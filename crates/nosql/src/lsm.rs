//! The LSM tree: WAL → memtable → levelled SSTable runs with size-tiered
//! compaction.

use crate::memtable::Memtable;
use crate::sstable::SsTable;
use crate::wal::Wal;
use simcore::Cpu;
use std::collections::BTreeMap;

/// The tombstone sentinel (empty values are reserved for deletions).
const TOMBSTONE: &[u8] = b"";

/// The longest key `put` and `delete` accept, in bytes.
const MAX_KEY: usize = 1024;

#[inline]
fn live(v: Vec<u8>) -> Option<Vec<u8>> {
    if v == TOMBSTONE {
        None
    } else {
        Some(v)
    }
}

/// Tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct LsmConfig {
    /// Memtable flush threshold (bytes).
    pub memtable_bytes: u64,
    /// Runs per tier before compaction merges them.
    pub fanout: usize,
    /// WAL group-commit size.
    pub wal_group: u32,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: 256 * 1024,
            fanout: 4,
            wal_group: 16,
        }
    }
}

/// The store.
pub struct LsmStore {
    cfg: LsmConfig,
    wal: Wal,
    mem: Memtable,
    /// Newest-first runs.
    runs: Vec<SsTable>,
    /// Flushes performed (diagnostic).
    pub flushes: u64,
    /// Compactions performed (diagnostic).
    pub compactions: u64,
}

impl LsmStore {
    /// Open an empty store.
    pub fn open(cpu: &mut Cpu, cfg: LsmConfig) -> crate::Result<LsmStore> {
        Ok(LsmStore {
            cfg,
            wal: Wal::new(cpu, 1 << 20, cfg.wal_group)?,
            mem: Memtable::new(cpu, cfg.memtable_bytes * 2)?,
            runs: Vec::new(),
            flushes: 0,
            compactions: 0,
        })
    }

    /// Write a key/value pair. An empty value is rejected: it would read
    /// as a deletion.
    pub fn put(&mut self, cpu: &mut Cpu, key: &[u8], value: &[u8]) -> crate::Result<()> {
        if key.len() > MAX_KEY || value.len() > 16 * 1024 {
            return Err(crate::KvError::TooLarge("key/value"));
        }
        if value == TOMBSTONE {
            return Err(crate::KvError::EmptyValue);
        }
        self.wal.append(cpu, key, value);
        self.mem.put(cpu, key, value);
        if self.mem.bytes() >= self.cfg.memtable_bytes {
            self.flush(cpu)?;
        }
        Ok(())
    }

    /// Point read (memtable first, then runs newest→oldest). Tombstones
    /// read as absent.
    pub fn get(&mut self, cpu: &mut Cpu, key: &[u8]) -> Option<Vec<u8>> {
        if let Some(v) = self.mem.get(cpu, key) {
            return live(v);
        }
        for run in self.runs.iter_mut() {
            if let Some(v) = run.get(cpu, key) {
                return live(v);
            }
        }
        None
    }

    /// Delete a key: a tombstone write (LSM deletes are writes); the value
    /// disappears from reads immediately and physically at compaction.
    pub fn delete(&mut self, cpu: &mut Cpu, key: &[u8]) -> crate::Result<()> {
        if key.len() > MAX_KEY {
            return Err(crate::KvError::TooLarge("key"));
        }
        self.wal.append(cpu, key, TOMBSTONE);
        self.mem.put(cpu, key, TOMBSTONE);
        if self.mem.bytes() >= self.cfg.memtable_bytes {
            self.flush(cpu)?;
        }
        Ok(())
    }

    /// Inclusive range scan from `from`, up to `limit` live records in key
    /// order. The memtable and every run seek to `from` (one skip-list
    /// descent; one sparse-index search per run) and a k-way merge reads
    /// forward until `limit` live records: of equal keys the newest source
    /// (memtable, then `runs[0]`, ...) wins and tombstones are skipped. Only
    /// the blocks and memtable nodes the merge reads are charged, and only
    /// the returned records are copied.
    pub fn scan(&self, cpu: &mut Cpu, from: &[u8], limit: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        if limit == 0 {
            return out;
        }
        let mut mem = self.mem.seek(cpu, from);
        let mut runs: Vec<_> = self.runs.iter().map(|r| r.seek(cpu, from)).collect();
        while out.len() < limit {
            // The smallest head; a strict `<` keeps the newest of equal keys.
            let mut next = mem.head();
            for head in runs.iter().filter_map(|r| r.head()) {
                if next.is_none_or(|(k, _)| head.0 < k) {
                    next = Some(head);
                }
            }
            let Some((key, value)) = next else { break };
            if mem.head().is_some_and(|(k, _)| k == key) {
                mem.advance(cpu);
            }
            for r in &mut runs {
                if r.head().is_some_and(|(k, _)| k == key) {
                    r.advance(cpu);
                }
            }
            if value != TOMBSTONE {
                out.push((key.to_vec(), value.to_vec()));
            }
        }
        out
    }

    /// Flush the memtable into a new run; maybe compact.
    pub fn flush(&mut self, cpu: &mut Cpu) -> crate::Result<()> {
        let pairs = self.mem.drain_sorted(cpu);
        if pairs.is_empty() {
            return Ok(());
        }
        let run = SsTable::build(cpu, &pairs)?;
        self.runs.insert(0, run);
        self.flushes += 1;
        if self.runs.len() > self.cfg.fanout {
            self.compact(cpu)?;
        }
        Ok(())
    }

    /// Merge every run into one (size-tiered major compaction): streaming
    /// reads of all inputs, streaming writes of the output. Tombstones are
    /// dropped — this is where deleted space is reclaimed.
    pub fn compact(&mut self, cpu: &mut Cpu) -> crate::Result<()> {
        let mut merged: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for run in self.runs.iter().rev() {
            for (k, v) in run.scan_all(cpu) {
                merged.insert(k, v);
            }
        }
        let pairs: Vec<(Vec<u8>, Vec<u8>)> =
            merged.into_iter().filter(|(_, v)| v != TOMBSTONE).collect();
        let out = SsTable::build(cpu, &pairs)?;
        self.runs = vec![out];
        self.compactions += 1;
        Ok(())
    }

    /// Records held by the runs and the memtable, counting every older
    /// version and tombstone no compaction has dropped yet (diagnostic).
    /// Right after [`flush`](Self::flush) + [`compact`](Self::compact) it
    /// is the number of live keys.
    pub fn entries(&self) -> usize {
        self.runs.iter().map(|r| r.len()).sum::<usize>() + self.mem.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ArchConfig;

    fn store(cpu: &mut Cpu) -> LsmStore {
        LsmStore::open(
            cpu,
            LsmConfig {
                memtable_bytes: 4 * 1024,
                fanout: 3,
                wal_group: 8,
            },
        )
        .unwrap()
    }

    #[test]
    fn put_get_across_flushes() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut s = store(&mut cpu);
        for i in 0..2000u64 {
            s.put(&mut cpu, format!("k{i:06}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        assert!(s.flushes > 0, "memtable should have flushed");
        for i in (0..2000u64).step_by(97) {
            let v = s.get(&mut cpu, format!("k{i:06}").as_bytes());
            assert_eq!(v, Some(i.to_le_bytes().to_vec()), "key {i}");
        }
        assert_eq!(s.get(&mut cpu, b"nope"), None);
    }

    #[test]
    fn newer_versions_win_after_compaction() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut s = store(&mut cpu);
        for round in 0..5u64 {
            for i in 0..300u64 {
                let mut v = vec![b'x'; 64];
                v[0] = b'0' + round as u8;
                s.put(&mut cpu, format!("k{i:04}").as_bytes(), &v).unwrap();
            }
        }
        assert!(s.compactions > 0, "fanout should have forced compaction");
        let got = s.get(&mut cpu, b"k0042").expect("key present");
        assert_eq!(got[0], b'4', "newest version must win");
    }

    #[test]
    fn delete_hides_immediately_and_compaction_reclaims() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut s = store(&mut cpu);
        for i in 0..500u64 {
            s.put(&mut cpu, format!("k{i:04}").as_bytes(), &[9u8; 40])
                .unwrap();
        }
        s.delete(&mut cpu, b"k0100").unwrap();
        assert_eq!(s.get(&mut cpu, b"k0100"), None);
        assert!(s.get(&mut cpu, b"k0101").is_some());
        // Scans skip tombstones too.
        let scanned = s.scan(&mut cpu, b"k0099", 5);
        assert!(scanned.iter().all(|(k, _)| k != b"k0100"));
        // Major compaction physically drops the key.
        s.flush(&mut cpu).unwrap();
        s.compact(&mut cpu).unwrap();
        assert_eq!(s.get(&mut cpu, b"k0100"), None);
        assert_eq!(s.entries(), 499);
    }

    #[test]
    fn entries_count_old_versions_until_a_full_compaction() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut s = store(&mut cpu);
        let key = |i: u64| format!("k{i:04}").into_bytes();
        // 100 keys of 13 bytes each stay under the 4 KB flush threshold.
        for i in 0..100 {
            s.put(&mut cpu, &key(i), &[1u8; 8]).unwrap();
        }
        s.flush(&mut cpu).unwrap();
        assert_eq!(s.entries(), 100);
        // Overwrite 40 flushed keys and delete one: the run keeps the old
        // versions beside the memtable's new ones and the tombstone.
        for i in 0..40 {
            s.put(&mut cpu, &key(i), &[2u8; 8]).unwrap();
        }
        s.delete(&mut cpu, &key(50)).unwrap();
        assert_eq!(s.entries(), 141);
        s.flush(&mut cpu).unwrap();
        assert_eq!(s.runs.len(), 2);
        assert_eq!(s.entries(), 141);
        s.compact(&mut cpu).unwrap();
        assert_eq!(s.entries(), 99);
        assert_eq!(s.get(&mut cpu, &key(7)), Some(vec![2u8; 8]));
        assert_eq!(s.get(&mut cpu, &key(50)), None);
    }

    #[test]
    fn empty_value_is_rejected_not_a_silent_delete() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut s = store(&mut cpu);
        s.put(&mut cpu, b"k", b"v").unwrap();
        assert!(matches!(
            s.put(&mut cpu, b"k", b""),
            Err(crate::KvError::EmptyValue)
        ));
        assert_eq!(s.get(&mut cpu, b"k"), Some(b"v".to_vec()));
        assert_eq!(
            s.scan(&mut cpu, b"", 10),
            vec![(b"k".to_vec(), b"v".to_vec())]
        );
    }

    #[test]
    fn delete_has_the_put_key_limit() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut s = store(&mut cpu);
        assert!(matches!(
            s.delete(&mut cpu, &[b'k'; 5000]),
            Err(crate::KvError::TooLarge(_))
        ));
        s.delete(&mut cpu, &[b'k'; MAX_KEY]).unwrap();
    }

    #[test]
    fn short_scans_read_only_what_they_merge() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut s = store(&mut cpu);
        for i in 0..5000u64 {
            s.put(&mut cpu, format!("k{i:08}").as_bytes(), &[1u8; 32])
                .unwrap();
        }
        let store_lines: u64 = s.runs.iter().map(|r| r.bytes / 64).sum();
        let before = cpu.pmu_snapshot();
        let got = s.scan(&mut cpu, b"k00002500", 20);
        let loads = cpu
            .pmu_snapshot()
            .delta(&before)
            .get(simcore::Event::LoadIssued);
        assert_eq!(got.len(), 20);
        assert_eq!(got[0].0, b"k00002500");
        assert!(
            loads * 8 < store_lines,
            "a 20-record scan loaded {loads} lines of a {store_lines}-line store"
        );
    }

    #[test]
    fn compaction_bounds_run_count() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut s = store(&mut cpu);
        for i in 0..5000u64 {
            s.put(&mut cpu, format!("k{i:08}").as_bytes(), &[1u8; 32])
                .unwrap();
        }
        assert!(
            s.runs.len() <= 4,
            "runs must stay bounded, got {}",
            s.runs.len()
        );
        assert_eq!(s.entries(), 5000);
    }
}
