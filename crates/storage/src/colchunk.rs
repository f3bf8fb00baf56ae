//! Column chunks: the columnar image of a heap table for the vectorized
//! engine personality.
//!
//! A [`ColumnChunks`] is built from a heap file at attach time (unsimulated
//! setup, like index builds) and holds, per column, a fixed-width **value
//! lane** (8 bytes per row in the simulated arena) plus a **validity
//! bitmap** (1 bit per row). Batch operators read whole lane ranges with
//! [`crate::page::touch`]-style line runs — exactly the homogeneous
//! sequential runs `Cpu::access_run` batches — instead of the row engines'
//! per-tuple slot/header/tuple touches. That is the entire point of the
//! `vec` personality: same answers, different (columnar) access pattern.
//!
//! Host-side correctness keeps the decoded [`Value`]s alongside the
//! simulated lanes (the repo's simstruct idiom): the lane bytes determine
//! *which lines the engine touches*, the `values` vectors determine *what
//! the query answers are*. Strings are represented in the lane by their
//! stable `hash64` (a dictionary-code stand-in with the right width); the
//! host value is authoritative for comparisons and output.

use crate::heap::HeapFile;
use crate::page::touch;
use crate::schema::Schema;
use crate::tuple::decode_row;
use crate::value::Value;
use simcore::{Cpu, Dep, Region, LINE};

/// One column's lane: an 8-byte-per-row value vector plus a validity bitmap
/// in the simulated arena, and the decoded host values.
#[derive(Debug, Clone)]
pub struct ColumnVec {
    /// Fixed-width value lane (8 B per row).
    pub data: Region,
    /// Validity bitmap (1 bit per row, byte-packed).
    pub valid: Region,
    /// Host-side decoded values (correctness source of truth).
    values: Vec<Value>,
}

impl ColumnVec {
    /// The value at `row`.
    pub fn value(&self, row: usize) -> &Value {
        &self.values[row]
    }

    /// All host values, in row order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Simulate reading rows `[lo, hi)` of this column: one streaming line
    /// run over the value lane plus the covering bitmap bytes.
    pub fn touch_range(&self, cpu: &mut Cpu, lo: usize, hi: usize, dep: Dep) {
        if hi <= lo {
            return;
        }
        touch(
            cpu,
            self.data.addr + 8 * lo as u64,
            8 * (hi - lo) as u64,
            dep,
        );
        let blo = lo as u64 / 8;
        let bhi = (hi as u64).div_ceil(8);
        touch(cpu, self.valid.addr + blo, (bhi - blo).max(1), dep);
    }
}

/// The columnar image of one table: per-column lanes over a shared row
/// count, in heap order (dead tuples excluded).
#[derive(Debug, Clone)]
pub struct ColumnChunks {
    rows: usize,
    cols: Vec<ColumnVec>,
}

/// Lane encoding of a value: `(lane_word, valid)`. Fixed 8-byte words keep
/// every column the same width; strings use their stable hash as a
/// dictionary-code stand-in.
fn lane_word(v: &Value) -> (u64, bool) {
    match v {
        Value::Int(x) => (*x as u64, true),
        Value::Float(x) => (x.to_bits(), true),
        Value::Date(x) => (*x as i64 as u64, true),
        Value::Str(s) => (Value::Str(s.clone()).hash64(), true),
        Value::Null => (0, false),
    }
}

impl ColumnChunks {
    /// Build the columnar image of `heap` (unsimulated — attach-time setup,
    /// like an index build). Dead (tombstoned) tuples are skipped, so row
    /// order equals live heap order.
    pub fn build(
        cpu: &mut Cpu,
        heap: &HeapFile,
        store: &crate::buffer::PageStore,
        schema: &Schema,
    ) -> crate::Result<ColumnChunks> {
        let arity = schema.arity();
        let mut host: Vec<Vec<Value>> = vec![Vec::new(); arity];
        let mut decode_err = None;
        heap.for_each_unsimulated(cpu.arena(), store, |_tid, bytes| {
            // Tombstoned slots read back as empty; they are not rows.
            if bytes.is_empty() || decode_err.is_some() {
                return;
            }
            match decode_row(schema, bytes) {
                Ok(row) => {
                    for (c, v) in row.into_iter().enumerate() {
                        host[c].push(v);
                    }
                }
                Err(e) => decode_err = Some(e),
            }
        })?;
        if let Some(e) = decode_err {
            return Err(e);
        }
        let rows = host.first().map_or(0, Vec::len);

        let mut cols = Vec::with_capacity(arity);
        for values in host {
            let lane_bytes = (8 * rows as u64).max(LINE);
            let bitmap_bytes = (rows as u64).div_ceil(8).max(LINE);
            let data = cpu.alloc(lane_bytes)?;
            let valid = cpu.alloc(bitmap_bytes)?;
            let mut lanes = Vec::with_capacity(8 * rows);
            let mut bits = vec![0u8; bitmap_bytes as usize];
            for (i, v) in values.iter().enumerate() {
                let (w, ok) = lane_word(v);
                lanes.extend_from_slice(&w.to_le_bytes());
                if ok {
                    bits[i / 8] |= 1 << (i % 8);
                }
            }
            let a = cpu.arena_mut();
            if !lanes.is_empty() {
                a.write(data.addr, &lanes)?;
            }
            a.write(valid.addr, &bits)?;
            cols.push(ColumnVec {
                data,
                valid,
                values,
            });
        }
        Ok(ColumnChunks { rows, cols })
    }

    /// Row count (live tuples at build time).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column `c`.
    pub fn col(&self, c: usize) -> &ColumnVec {
        &self.cols[c]
    }

    /// The value at `(col, row)`.
    pub fn value(&self, col: usize, row: usize) -> &Value {
        self.cols[col].value(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::PageStore;
    use crate::schema::{Schema, Ty};
    use crate::tuple::encode_row;
    use simcore::ArchConfig;

    fn build_heap(cpu: &mut Cpu, store: &mut PageStore, schema: &Schema, n: usize) -> HeapFile {
        let mut heap = HeapFile::new();
        let mut buf = Vec::new();
        for i in 0..n {
            let row = vec![
                Value::Int(i as i64),
                Value::Float(i as f64 + 0.5),
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("s{i}"))
                },
            ];
            encode_row(schema, &row, &mut buf).unwrap();
            heap.bulk_insert(cpu, store, &buf).unwrap();
        }
        heap
    }

    #[test]
    fn build_round_trips_values_and_validity() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut store = PageStore::new(4096);
        let schema = Schema::new([("k", Ty::Int), ("p", Ty::Float), ("n", Ty::Str)]);
        let heap = build_heap(&mut cpu, &mut store, &schema, 300);
        let chunks = ColumnChunks::build(&mut cpu, &heap, &store, &schema).unwrap();
        assert_eq!(chunks.rows(), 300);
        assert_eq!(chunks.arity(), 3);
        assert_eq!(chunks.value(0, 7), &Value::Int(7));
        assert_eq!(chunks.value(1, 7), &Value::Float(7.5));
        assert_eq!(chunks.value(2, 0), &Value::Null);
        assert_eq!(chunks.value(2, 1), &Value::Str("s1".into()));
        // Lane bytes mirror the host values.
        let lane = cpu
            .arena()
            .bytes(chunks.col(0).data.addr + 8 * 7, 8)
            .unwrap();
        assert_eq!(u64::from_le_bytes(lane.try_into().unwrap()), 7);
        // Validity bitmap: row 0 of column 2 is NULL, row 1 is set.
        let bits = cpu.arena().bytes(chunks.col(2).valid.addr, 1).unwrap()[0];
        assert_eq!(bits & 1, 0);
        assert_eq!(bits & 2, 2);
    }

    #[test]
    fn touch_range_streams_the_lane_lines() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut store = PageStore::new(4096);
        let schema = Schema::new([("k", Ty::Int), ("p", Ty::Float), ("n", Ty::Str)]);
        let heap = build_heap(&mut cpu, &mut store, &schema, 1024);
        let chunks = ColumnChunks::build(&mut cpu, &heap, &store, &schema).unwrap();
        let before = cpu.pmu_snapshot();
        chunks.col(0).touch_range(&mut cpu, 0, 1024, Dep::Stream);
        let d = cpu.pmu_snapshot().delta(&before);
        // 1024 rows × 8 B = 8192 B = 128 lines, plus the bitmap lines.
        assert!(d.get(simcore::Event::LoadIssued) >= 128);
    }

    #[test]
    fn empty_heap_builds_empty_chunks() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let store = PageStore::new(4096);
        let schema = Schema::new([("k", Ty::Int)]);
        let heap = HeapFile::new();
        let chunks = ColumnChunks::build(&mut cpu, &heap, &store, &schema).unwrap();
        assert_eq!(chunks.rows(), 0);
        assert_eq!(chunks.arity(), 1);
    }
}
