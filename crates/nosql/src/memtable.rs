//! The mutable in-memory table.
//!
//! Contents live in a host `BTreeMap` (correctness); the simulated access
//! pattern is a skip list: ~log₂(n) pointer chases per operation through a
//! node arena, plus entry stores on insert.

use simcore::{Cpu, Dep, ExecOp, Region};
use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::ops::Bound;

/// An entry's value and the offset of its node in the arena.
type Node = (Vec<u8>, u64);

/// The memtable.
pub struct Memtable {
    map: BTreeMap<Vec<u8>, Node>,
    arena: Region,
    bytes: u64,
    next_node: u64,
}

impl Memtable {
    /// A memtable whose node arena covers `cap` bytes.
    pub fn new(cpu: &mut Cpu, cap: u64) -> crate::Result<Memtable> {
        let arena = cpu.alloc(cap.max(4096))?;
        Ok(Memtable {
            map: BTreeMap::new(),
            arena,
            bytes: 0,
            next_node: 0,
        })
    }

    /// Approximate resident bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn skiplist_descent(&self, cpu: &mut Cpu) {
        let levels = (64 - (self.map.len() as u64).leading_zeros() as u64).max(1);
        let nodes = (self.arena.len / 64).max(1);
        // Pseudo-random but deterministic node path.
        let mut h = self.next_node.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for _ in 0..levels {
            cpu.access_run(self.arena.addr + (h % nodes) * 64, 1, false, Dep::Chase);
            cpu.exec(ExecOp::Branch);
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
    }

    /// Insert or overwrite.
    pub fn put(&mut self, cpu: &mut Cpu, key: &[u8], value: &[u8]) {
        self.skiplist_descent(cpu);
        // New node: key+value copy into the arena.
        let len = (key.len() + value.len() + 32) as u64;
        let at = (self.next_node * 64) % self.arena.len;
        let end = (at + len).min(self.arena.len);
        storage::page::touch_store(cpu, self.arena.addr + at, end - at);
        self.next_node += len.div_ceil(64);
        if let Some((old, _)) = self.map.insert(key.to_vec(), (value.to_vec(), at)) {
            self.bytes -= (key.len() + old.len()) as u64;
        }
        self.bytes += (key.len() + value.len()) as u64;
    }

    /// Point lookup.
    pub fn get(&mut self, cpu: &mut Cpu, key: &[u8]) -> Option<Vec<u8>> {
        self.skiplist_descent(cpu);
        let hit = self.map.get(key).map(|(v, _)| v.clone());
        if let Some(v) = &hit {
            // Read the node's value bytes.
            let at = (key.len() as u64 * 131) % self.arena.len;
            let end = (at + v.len() as u64).min(self.arena.len);
            storage::page::touch(cpu, self.arena.addr + at, end - at, Dep::Stream);
        }
        hit
    }

    /// Position a cursor at the first entry `>= from`: one skip-list
    /// descent.
    pub(crate) fn seek(&self, cpu: &mut Cpu, from: &[u8]) -> Cursor<'_> {
        self.skiplist_descent(cpu);
        Cursor {
            arena: self.arena.addr,
            entries: self
                .map
                .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
                .peekable(),
        }
    }

    /// Drain in key order (flush to an SSTable): streaming reads.
    pub fn drain_sorted(&mut self, cpu: &mut Cpu) -> Vec<(Vec<u8>, Vec<u8>)> {
        let n = self.map.len() as u64;
        storage::page::touch(
            cpu,
            self.arena.addr,
            (n * 64).min(self.arena.len),
            Dep::Stream,
        );
        self.bytes = 0;
        self.next_node = 0;
        std::mem::take(&mut self.map)
            .into_iter()
            .map(|(k, (v, _))| (k, v))
            .collect()
    }
}

/// A forward cursor over the memtable for a range scan.
pub(crate) struct Cursor<'a> {
    arena: u64,
    entries: Peekable<btree_map::Range<'a, Vec<u8>, Node>>,
}

impl<'a> Cursor<'a> {
    /// The head entry's key and value (`None` past the last entry).
    pub(crate) fn head(&mut self) -> Option<(&'a [u8], &'a [u8])> {
        self.entries
            .peek()
            .map(|&(k, (v, _))| (k.as_slice(), v.as_slice()))
    }

    /// Step past the head: one chase load of its node line, whose level-0
    /// link leads to the next entry.
    pub(crate) fn advance(&mut self, cpu: &mut Cpu) {
        if let Some((_, (_, node))) = self.entries.next() {
            cpu.load(self.arena + node, Dep::Chase);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ArchConfig;

    #[test]
    fn put_get_overwrite() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut m = Memtable::new(&mut cpu, 1 << 20).unwrap();
        m.put(&mut cpu, b"a", b"1");
        m.put(&mut cpu, b"b", b"2");
        m.put(&mut cpu, b"a", b"3");
        assert_eq!(m.get(&mut cpu, b"a"), Some(b"3".to_vec()));
        assert_eq!(m.get(&mut cpu, b"missing"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn drain_is_sorted_and_resets() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut m = Memtable::new(&mut cpu, 1 << 20).unwrap();
        for k in [b"c".to_vec(), b"a".to_vec(), b"b".to_vec()] {
            m.put(&mut cpu, &k, b"v");
        }
        let drained = m.drain_sorted(&mut cpu);
        let keys: Vec<&[u8]> = drained.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b", b"c"]);
        assert!(m.is_empty());
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn lookups_chase_pointers() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut m = Memtable::new(&mut cpu, 1 << 20).unwrap();
        for i in 0..1000u64 {
            m.put(&mut cpu, &i.to_le_bytes(), b"v");
        }
        let before = cpu.pmu_snapshot();
        m.get(&mut cpu, &500u64.to_le_bytes());
        let d = cpu.pmu_snapshot().delta(&before);
        assert!(
            d.get(simcore::Event::StallCycles) > 0,
            "skip-list descent must stall"
        );
    }
}
