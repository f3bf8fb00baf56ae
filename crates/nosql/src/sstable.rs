//! Immutable sorted runs.
//!
//! An SSTable's records are encoded into a contiguous simulated region in
//! 4 KB blocks; a sparse index (first key per block) and a bloom filter make
//! point reads one bloom probe + one index binary search + one block scan.

use crate::bloom::Bloom;
use simcore::{Cpu, Dep, ExecOp, Region};

const BLOCK: u64 = 4096;

/// One immutable sorted run.
pub struct SsTable {
    region: Region,
    /// `(first_key, block_offset)` per block.
    index: Vec<(Vec<u8>, u64)>,
    /// Records: `(key, value, offset_in_region)` — host-side mirror.
    records: Vec<(Vec<u8>, Vec<u8>, u64)>,
    bloom: Bloom,
    /// Total encoded bytes.
    pub bytes: u64,
}

impl SsTable {
    /// Build from key-sorted pairs, writing every block through the CPU.
    pub fn build(cpu: &mut Cpu, pairs: &[(Vec<u8>, Vec<u8>)]) -> crate::Result<SsTable> {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "SSTable input must be sorted"
        );
        let total: u64 = pairs
            .iter()
            .map(|(k, v)| 12 + k.len() as u64 + v.len() as u64)
            .sum();
        let region = cpu.alloc(total.max(BLOCK))?;
        let mut bloom = Bloom::new(cpu, pairs.len() as u64)?;

        let mut index = Vec::new();
        let mut records = Vec::with_capacity(pairs.len());
        let mut off = 0u64;
        let mut block_start = None::<u64>;
        for (k, v) in pairs {
            let len = 12 + k.len() as u64 + v.len() as u64;
            if block_start.is_none() || off - block_start.expect("set") + len > BLOCK {
                index.push((k.clone(), off));
                block_start = Some(off);
            }
            // Write the record.
            let end = (off + len).min(region.len);
            storage::page::touch_store(
                cpu,
                region.addr + off.min(region.len - 1),
                end - off.min(region.len - 1),
            );
            bloom.insert(cpu, k);
            records.push((k.clone(), v.clone(), off));
            off += len;
        }
        Ok(SsTable {
            region,
            index,
            records,
            bloom,
            bytes: off,
        })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Binary search over the sparse index (in-memory, chase-y): the number
    /// of blocks whose first key is `<= key`.
    fn index_search(&self, cpu: &mut Cpu, key: &[u8]) -> usize {
        let mut lo = 0usize;
        let mut hi = self.index.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            cpu.access_run(
                self.region.addr + (self.index[mid].1 % self.region.len),
                1,
                false,
                Dep::Chase,
            );
            cpu.exec(ExecOp::Branch);
            if self.index[mid].0.as_slice() <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Stream one block through the CPU.
    fn stream_block(&self, cpu: &mut Cpu, block: usize) {
        let block_off = self.index[block].1;
        let end = self
            .index
            .get(block + 1)
            .map(|(_, o)| *o)
            .unwrap_or(self.bytes)
            .min(self.region.len);
        storage::page::touch(
            cpu,
            self.region.addr + block_off.min(self.region.len - 1),
            end.saturating_sub(block_off).max(1),
            Dep::Stream,
        );
    }

    /// Point lookup: bloom probe → sparse-index binary search → block scan.
    pub fn get(&mut self, cpu: &mut Cpu, key: &[u8]) -> Option<Vec<u8>> {
        if !self.bloom.may_contain(cpu, key) {
            return None;
        }
        let block = self.index_search(cpu, key).checked_sub(1)?;
        self.stream_block(cpu, block);
        cpu.exec_n(ExecOp::Branch, 8);
        // Host-side answer.
        match self
            .records
            .binary_search_by(|(k, _, _)| k.as_slice().cmp(key))
        {
            Ok(i) => Some(self.records[i].1.clone()),
            Err(_) => None,
        }
    }

    /// Position a cursor at the first record `>= from`: the index search
    /// [`SsTable::get`] does, then the block it lands on streams (the first
    /// block when `from` precedes the run), as `get` streams its block.
    pub(crate) fn seek(&self, cpu: &mut Cpu, from: &[u8]) -> Cursor<'_> {
        let block = self.index_search(cpu, from).saturating_sub(1);
        if !self.index.is_empty() {
            self.stream_block(cpu, block);
        }
        let mut cursor = Cursor {
            run: self,
            pos: self
                .records
                .partition_point(|(k, _, _)| k.as_slice() < from),
            block,
        };
        cursor.follow(cpu);
        cursor
    }

    /// Stream every record in key order (compaction's input).
    pub fn scan_all(&self, cpu: &mut Cpu) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
        storage::page::touch(
            cpu,
            self.region.addr,
            self.bytes.min(self.region.len),
            Dep::Stream,
        );
        self.records.iter().map(|(k, v, _)| (k.clone(), v.clone()))
    }
}

/// A forward cursor over one run for a range scan. Past the block its seek
/// streams, each block streams once, when the head first moves into it.
pub(crate) struct Cursor<'a> {
    run: &'a SsTable,
    /// The head record.
    pos: usize,
    /// The last block streamed.
    block: usize,
}

impl<'a> Cursor<'a> {
    /// The head record's key and value (`None` past the run's end).
    pub(crate) fn head(&self) -> Option<(&'a [u8], &'a [u8])> {
        self.run
            .records
            .get(self.pos)
            .map(|(k, v, _)| (k.as_slice(), v.as_slice()))
    }

    /// Step past the head.
    pub(crate) fn advance(&mut self, cpu: &mut Cpu) {
        self.pos += 1;
        self.follow(cpu);
    }

    /// Stream the next block if the head has moved into it (records are
    /// contiguous and every block holds one, so a step crosses at most one
    /// block boundary).
    fn follow(&mut self, cpu: &mut Cpu) {
        let Some((_, _, off)) = self.run.records.get(self.pos) else {
            return;
        };
        if self
            .run
            .index
            .get(self.block + 1)
            .is_some_and(|(_, start)| start <= off)
        {
            self.block += 1;
            self.run.stream_block(cpu, self.block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ArchConfig;

    fn pairs(n: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| (format!("key{i:08}").into_bytes(), vec![7u8; 40]))
            .collect()
    }

    #[test]
    fn build_and_point_lookups() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut t = SsTable::build(&mut cpu, &pairs(5000)).unwrap();
        assert_eq!(t.len(), 5000);
        assert!(t.index.len() > 1, "multiple blocks expected");
        assert_eq!(t.get(&mut cpu, b"key00000042"), Some(vec![7u8; 40]));
        assert_eq!(t.get(&mut cpu, b"key99999999"), None);
        assert_eq!(t.get(&mut cpu, b"aaa"), None);
    }

    #[test]
    fn scan_streams_in_order() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let t = SsTable::build(&mut cpu, &pairs(100)).unwrap();
        let keys: Vec<Vec<u8>> = t.scan_all(&mut cpu).map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 100);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bloom_short_circuits_missing_keys() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut t = SsTable::build(&mut cpu, &pairs(2000)).unwrap();
        // A definitely-absent key: most probes should end at the bloom.
        let before = cpu.pmu_snapshot();
        for i in 0..100u64 {
            t.get(&mut cpu, format!("zzz{i}").as_bytes());
        }
        let d = cpu.pmu_snapshot().delta(&before);
        // Bloom-only negative lookups issue ~k loads, far fewer than a
        // block scan (64 lines) would.
        assert!(
            d.get(simcore::Event::LoadIssued) < 100 * 40,
            "negative lookups should be bloom-bounded: {}",
            d.get(simcore::Event::LoadIssued)
        );
    }
}
