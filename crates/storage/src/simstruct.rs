//! Simulated in-memory structures for query operators.
//!
//! Hash tables and sort areas are where PG/MySQL-style engines spend the
//! energy SQLite does not (§3.3: "complex data structures … introduce extra
//! calculations and hinder hardware optimization"). These helpers keep the
//! *contents* host-side for correctness, while driving the simulated CPU
//! with the access pattern of the real structure: bucket-array chases,
//! entry-chain walks, run writes and merge reads.

use crate::tuple::Row;
use crate::value::Value;
use simcore::{Cpu, Dep, ExecOp, Region};

/// A chaining hash table over a simulated bucket array + entry arena.
pub struct SimHashTable {
    buckets: u64,
    region: Region,
    entry_bytes: u64,
    entries_base: u64,
    n_entries: u64,
    capacity: u64,
    map: Vec<Vec<(Value, Row)>>,
}

impl SimHashTable {
    /// Build for an expected entry count; `entry_bytes` approximates one
    /// entry's footprint (key + row payload + next pointer).
    pub fn new(cpu: &mut Cpu, expected: u64, entry_bytes: u64) -> crate::Result<SimHashTable> {
        let entry_bytes = entry_bytes.clamp(16, 4096);
        let buckets = (expected.max(16)).next_power_of_two();
        let capacity = expected.max(16) * 2;
        let region = cpu.alloc(buckets * 8 + capacity * entry_bytes)?;
        Ok(Self::new_in(region, expected, entry_bytes))
    }

    /// Build inside a caller-provided region (lets engines reuse a warm
    /// per-database temp area instead of paying cold DRAM on every query,
    /// as a real allocator would).
    pub fn new_in(region: Region, expected: u64, entry_bytes: u64) -> SimHashTable {
        let entry_bytes = entry_bytes.clamp(16, 4096);
        let buckets = (expected.max(16))
            .next_power_of_two()
            .min((region.len / 16).next_power_of_two() / 2)
            .max(16);
        let capacity = ((region.len.saturating_sub(buckets * 8)) / entry_bytes).max(16);
        SimHashTable {
            buckets,
            region,
            entry_bytes,
            entries_base: region.addr + buckets * 8,
            n_entries: 0,
            capacity,
            map: (0..buckets).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of entries inserted.
    pub fn len(&self) -> u64 {
        self.n_entries
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.n_entries == 0
    }

    /// Approximate simulated footprint in bytes (for work_mem accounting).
    pub fn footprint(&self) -> u64 {
        self.buckets * 8 + self.n_entries * self.entry_bytes
    }

    #[inline]
    fn bucket_of(&self, key: &Value) -> u64 {
        key.hash64() & (self.buckets - 1)
    }

    fn entry_addr(&self, i: u64) -> u64 {
        // Wrap over the arena region if the table grows past the estimate —
        // the simulation stays sound (same locality class), the host map
        // keeps correctness.
        self.entries_base + (i % self.capacity) * self.entry_bytes
    }

    /// Insert `key → row`: one bucket-head chase, a head update, and entry
    /// stores.
    pub fn insert(&mut self, cpu: &mut Cpu, key: Value, row: Row) {
        let b = self.bucket_of(&key);
        cpu.exec(ExecOp::Mul); // hash
        cpu.load(self.region.addr + b * 8, Dep::Chase); // bucket head
        cpu.store(self.region.addr + b * 8); // new head pointer
                                             // Entry header (key + next + row pointer) is one line; the row
                                             // payload itself was already materialised by the producer.
        let ea = self.entry_addr(self.n_entries);
        cpu.store(ea);
        cpu.store(ea + 8);
        self.map[b as usize].push((key, row));
        self.n_entries += 1;
    }

    /// Probe for `key`: bucket-head chase plus one chase per chain entry
    /// scanned (matches are compared; the chain is walked to its end as in
    /// a real bucket list with possible duplicates).
    pub fn probe(&self, cpu: &mut Cpu, key: &Value) -> &[(Value, Row)] {
        let b = self.bucket_of(key);
        cpu.exec(ExecOp::Mul);
        cpu.load(self.region.addr + b * 8, Dep::Chase);
        let chain = &self.map[b as usize];
        for i in 0..chain.len() as u64 {
            // Walk: load the entry's key line, compare, reload the matched
            // key word (an L1D hit on the same line).
            let ea = self.entry_addr(i);
            cpu.load(ea, Dep::Chase);
            cpu.load(ea + 8, Dep::Stream);
            cpu.exec(ExecOp::Branch);
        }
        chain
    }
}

/// A sort area: rows are staged with simulated writes, sorted host-side
/// (the comparisons are charged), and drained with streaming reads. When the
/// staged bytes exceed `work_mem`, merge passes are charged like an external
/// sort (extra read+write sweep per pass plus spill I/O waits).
pub struct SimSorter {
    region: Region,
    row_bytes: u64,
    work_mem: u64,
    rows: Vec<(Vec<Value>, Row)>,
    staged_bytes: u64,
}

impl SimSorter {
    /// Build with an expected row count and approximate row footprint.
    pub fn new(
        cpu: &mut Cpu,
        expected: u64,
        row_bytes: u64,
        work_mem: u64,
    ) -> crate::Result<SimSorter> {
        let row_bytes = row_bytes.clamp(16, 1 << 16);
        let cap = expected.max(16) * row_bytes;
        let region = cpu.alloc(cap.min(work_mem.max(row_bytes * 16)))?;
        Ok(Self::new_in(region, row_bytes, work_mem))
    }

    /// Build inside a caller-provided (reusable, warm) region.
    pub fn new_in(region: Region, row_bytes: u64, work_mem: u64) -> SimSorter {
        SimSorter {
            region,
            row_bytes: row_bytes.clamp(16, 1 << 16),
            work_mem,
            rows: Vec::new(),
            staged_bytes: 0,
        }
    }

    /// Number of staged rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing was staged.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Stage a row under its sort key.
    pub fn push(&mut self, cpu: &mut Cpu, key: Vec<Value>, row: Row) {
        let slot = self.staged_bytes % self.region.len.max(self.row_bytes);
        crate::page::touch_store(cpu, self.region.addr + slot, self.row_bytes);
        self.staged_bytes += self.row_bytes;
        self.rows.push((key, row));
    }

    /// Sort (charging comparisons) and return rows in key order.
    /// `descending[i]` flips the i-th key component.
    pub fn finish(mut self, cpu: &mut Cpu, descending: &[bool]) -> Vec<Row> {
        let n = self.rows.len() as u64;
        if n > 1 {
            // log2(n) merge/partition levels, each one sequential sweep of
            // the staged area (read + write back) plus a branch per element.
            // The first sweep is cold; later sweeps hit whatever cache level
            // the run size fits — the simulator prices that naturally.
            let levels = 64 - (n - 1).leading_zeros() as u64;
            let span = self.staged_bytes.min(self.region.len).max(self.row_bytes);
            for level in 0..levels {
                // Per element and level: read its key, read the record
                // start, write it to the destination, branch on the
                // comparison. Level ℓ of the recursion works on partitions
                // of span/2^ℓ — deep levels therefore revisit a window that
                // fits higher cache levels while it is hot, which is the
                // real locality structure of quicksort/mergesort. The
                // hierarchy prices the locality; we just issue the accesses.
                let window = (span >> level).max(self.row_bytes * 4).max(4096);
                for i in 0..n {
                    // Deep (hot-window) levels dominate this loop; the
                    // single-line runs are counter-identical to scalar
                    // load/load/store but take the batched L1D-hit path.
                    let src = self.region.addr + (i * self.row_bytes) % window;
                    cpu.access_run(src, 1, false, Dep::Stream);
                    cpu.access_run(src + 8, 1, false, Dep::Stream);
                    let dst =
                        self.region.addr + ((i * self.row_bytes) + window / 2 + level) % window;
                    cpu.access_run(dst, 1, true, Dep::Stream);
                    cpu.exec(ExecOp::Branch);
                }
            }
        }
        // External merge passes if we exceeded work_mem.
        if self.staged_bytes > self.work_mem && self.work_mem > 0 {
            let mut runs = self.staged_bytes.div_ceil(self.work_mem);
            while runs > 1 {
                // One full read+write sweep per merge level + spill latency.
                cpu.idle_c0(200e-6);
                let sweep = self.staged_bytes.min(self.region.len);
                crate::page::touch(cpu, self.region.addr, sweep, Dep::Stream);
                crate::page::touch_store(cpu, self.region.addr, sweep);
                runs = runs.div_ceil(8); // 8-way merge
            }
        }
        self.rows.sort_by(|(a, _), (b, _)| {
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                let ord = x.sql_cmp(y).unwrap_or(std::cmp::Ordering::Equal);
                let ord = if descending.get(i).copied().unwrap_or(false) {
                    ord.reverse()
                } else {
                    ord
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        // Drain: stream the sorted area back.
        crate::page::touch(
            cpu,
            self.region.addr,
            self.staged_bytes.min(self.region.len),
            Dep::Stream,
        );
        self.rows.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ArchConfig;

    fn cpu() -> Cpu {
        Cpu::new(ArchConfig::intel_i7_4790())
    }

    #[test]
    fn hash_insert_probe_roundtrip() {
        let mut c = cpu();
        let mut h = SimHashTable::new(&mut c, 100, 64).unwrap();
        for i in 0..100i64 {
            h.insert(&mut c, Value::Int(i % 10), vec![Value::Int(i)]);
        }
        assert_eq!(h.len(), 100);
        let hits = h.probe(&mut c, &Value::Int(3));
        let matching: Vec<_> = hits
            .iter()
            .filter(|(k, _)| k.group_eq(&Value::Int(3)))
            .collect();
        assert_eq!(matching.len(), 10);
    }

    #[test]
    fn probe_misses_return_no_match() {
        let mut c = cpu();
        let mut h = SimHashTable::new(&mut c, 10, 64).unwrap();
        h.insert(&mut c, Value::Int(1), vec![Value::Int(1)]);
        let hits = h.probe(&mut c, &Value::Int(999));
        assert!(hits.iter().all(|(k, _)| !k.group_eq(&Value::Int(999))));
    }

    #[test]
    fn hash_access_is_chasing() {
        let mut c = cpu();
        let mut h = SimHashTable::new(&mut c, 1000, 64).unwrap();
        let before = c.pmu_snapshot();
        for i in 0..1000i64 {
            h.insert(&mut c, Value::Int(i), vec![Value::Int(i)]);
        }
        let d = c.pmu_snapshot().delta(&before);
        assert!(
            d.get(simcore::Event::StallCycles) > 0,
            "hash builds should stall"
        );
    }

    #[test]
    fn growing_past_estimate_is_sound() {
        let mut c = cpu();
        let mut h = SimHashTable::new(&mut c, 4, 64).unwrap();
        for i in 0..100i64 {
            h.insert(&mut c, Value::Int(i), vec![Value::Int(i)]);
        }
        assert_eq!(h.len(), 100);
        let hits = h.probe(&mut c, &Value::Int(42));
        assert!(hits.iter().any(|(k, _)| k.group_eq(&Value::Int(42))));
    }

    #[test]
    fn sorter_orders_with_directions() {
        let mut c = cpu();
        let mut s = SimSorter::new(&mut c, 10, 32, 1 << 20).unwrap();
        for i in [3i64, 1, 2] {
            s.push(&mut c, vec![Value::Int(i)], vec![Value::Int(i)]);
        }
        let asc = s.finish(&mut c, &[false]);
        assert_eq!(
            asc.iter()
                .map(|r| r[0].as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let mut s = SimSorter::new(&mut c, 10, 32, 1 << 20).unwrap();
        for i in [3i64, 1, 2] {
            s.push(&mut c, vec![Value::Int(i)], vec![Value::Int(i)]);
        }
        let desc = s.finish(&mut c, &[true]);
        assert_eq!(
            desc.iter()
                .map(|r| r[0].as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![3, 2, 1]
        );
    }

    #[test]
    fn multi_key_sort_is_stable_over_components() {
        let mut c = cpu();
        let mut s = SimSorter::new(&mut c, 10, 32, 1 << 20).unwrap();
        for (a, b) in [(1i64, 2i64), (0, 9), (1, 1), (0, 3)] {
            s.push(
                &mut c,
                vec![Value::Int(a), Value::Int(b)],
                vec![Value::Int(a), Value::Int(b)],
            );
        }
        let rows = s.finish(&mut c, &[false, false]);
        let keys: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        assert_eq!(keys, vec![(0, 3), (0, 9), (1, 1), (1, 2)]);
    }

    #[test]
    fn small_work_mem_charges_spill_time() {
        let mut c1 = cpu();
        let mut big = SimSorter::new(&mut c1, 1000, 64, 1 << 20).unwrap();
        for i in 0..1000i64 {
            big.push(&mut c1, vec![Value::Int(i)], vec![Value::Int(i)]);
        }
        big.finish(&mut c1, &[false]);
        let t_mem = c1.time_s();

        let mut c2 = cpu();
        let mut small = SimSorter::new(&mut c2, 1000, 64, 4096).unwrap();
        for i in 0..1000i64 {
            small.push(&mut c2, vec![Value::Int(i)], vec![Value::Int(i)]);
        }
        small.finish(&mut c2, &[false]);
        assert!(c2.time_s() > t_mem, "spilling sort must cost more time");
    }
}
