//! B+trees with integer keys and 64-bit payloads.
//!
//! Used as primary-key indexes (payload = heap tuple id) and secondary
//! indexes (payload = heap tuple id keyed by a non-PK column). SQLite-style
//! engines organise every table as a B-tree (§3.3); the DTCM proof of
//! concept pins the root and first layers of the current tables' B-trees in
//! TCM (§4.2).
//!
//! Node layout inside a page:
//!
//! ```text
//! header (8 B): [ is_leaf: u8 | pad | n: u16 | right_sibling: u32 (id+1, 0 = none) ]
//! leaf entry  (16 B each, from offset 8):  key: i64, payload: u64
//! internal    (from offset 8): child0: u32, then (key: i64, child: u32) pairs
//! ```
//!
//! Descents are pointer chases ([`Dep::Chase`]); within-leaf entry walks
//! stream. Duplicate keys are allowed (secondary indexes need them).

use crate::buffer::{BufferPool, PageStore};
use crate::page::{touch_store, PageId};
use simcore::{Cpu, Dep, ExecOp};

const HDR: u64 = 8;
const LEAF_ENTRY: u64 = 16;
const INT_PAIR: u64 = 12;

/// A B+tree rooted at a page.
#[derive(Debug, Clone)]
pub struct BTree {
    root: PageId,
    /// Distance from root to leaves (0 = root is a leaf).
    pub height: u32,
    /// Entries stored.
    pub len: u64,
}

fn leaf_cap(page_size: u32) -> u64 {
    (page_size as u64 - HDR) / LEAF_ENTRY
}

fn int_cap(page_size: u32) -> u64 {
    (page_size as u64 - HDR - 4) / INT_PAIR
}

// --- raw node accessors -----------------------------------------------

// Node accesses go through `Cpu::access_run` as single-line runs: identical
// counters to scalar loads/stores, but within-leaf entry walks (4 entries
// per line) and hot-node re-probes take the batched L1D-hit path.

fn read_header(cpu: &mut Cpu, addr: u64, dep: Dep) -> (bool, u16, Option<PageId>) {
    cpu.access_run(addr, 1, false, dep);
    let b = cpu.arena().bytes(addr, 8).expect("node header");
    let is_leaf = b[0] == 1;
    let n = u16::from_le_bytes([b[2], b[3]]);
    let sib = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
    (is_leaf, n, sib.checked_sub(1))
}

fn write_header(cpu: &mut Cpu, addr: u64, is_leaf: bool, n: u16, sib: Option<PageId>) {
    cpu.store(addr);
    let mut b = [0u8; 8];
    b[0] = is_leaf as u8;
    b[2..4].copy_from_slice(&n.to_le_bytes());
    b[4..8].copy_from_slice(&sib.map_or(0, |s| s + 1).to_le_bytes());
    cpu.arena_mut().write(addr, &b).expect("node header write");
}

fn leaf_entry_addr(addr: u64, i: u64) -> u64 {
    addr + HDR + i * LEAF_ENTRY
}

fn read_leaf_entry(cpu: &mut Cpu, addr: u64, i: u64, dep: Dep) -> (i64, u64) {
    let ea = leaf_entry_addr(addr, i);
    cpu.access_run(ea, 1, false, dep);
    let b = cpu.arena().bytes(ea, 16).expect("leaf entry");
    (
        i64::from_le_bytes(b[..8].try_into().expect("key")),
        u64::from_le_bytes(b[8..].try_into().expect("payload")),
    )
}

fn write_leaf_entry(cpu: &mut Cpu, addr: u64, i: u64, key: i64, payload: u64) {
    let ea = leaf_entry_addr(addr, i);
    cpu.access_run(ea, 1, true, Dep::Stream);
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&key.to_le_bytes());
    b[8..].copy_from_slice(&payload.to_le_bytes());
    cpu.arena_mut().write(ea, &b).expect("leaf entry write");
}

fn int_key_addr(addr: u64, i: u64) -> u64 {
    addr + HDR + 4 + i * INT_PAIR
}

fn read_int_key(cpu: &mut Cpu, addr: u64, i: u64, dep: Dep) -> i64 {
    let ka = int_key_addr(addr, i);
    cpu.access_run(ka, 1, false, dep);
    let b = cpu.arena().bytes(ka, 8).expect("internal key");
    i64::from_le_bytes(b.try_into().expect("key"))
}

fn read_int_child(cpu: &mut Cpu, addr: u64, idx: u64, dep: Dep) -> PageId {
    // child idx 0 sits right after the header; child i>0 follows key i-1.
    let ca = if idx == 0 {
        addr + HDR
    } else {
        int_key_addr(addr, idx - 1) + 8
    };
    cpu.access_run(ca, 1, false, dep);
    let b = cpu.arena().bytes(ca, 4).expect("internal child");
    u32::from_le_bytes(b.try_into().expect("child"))
}

fn write_int_child(cpu: &mut Cpu, addr: u64, idx: u64, child: PageId) {
    let ca = if idx == 0 {
        addr + HDR
    } else {
        int_key_addr(addr, idx - 1) + 8
    };
    cpu.store(ca);
    cpu.arena_mut()
        .write(ca, &child.to_le_bytes())
        .expect("child write");
}

fn write_int_key(cpu: &mut Cpu, addr: u64, i: u64, key: i64) {
    let ka = int_key_addr(addr, i);
    cpu.store(ka);
    cpu.arena_mut()
        .write(ka, &key.to_le_bytes())
        .expect("key write");
}

/// Shift a byte range right by `by` bytes (entry insertion). Simulates the
/// loads + stores of the move.
fn shift_right(cpu: &mut Cpu, addr: u64, len: u64, by: u64) {
    if len == 0 {
        return;
    }
    crate::page::touch(cpu, addr, len, Dep::Stream);
    touch_store(cpu, addr + by, len);
    let bytes = cpu
        .arena()
        .bytes(addr, len as usize)
        .expect("shift src")
        .to_vec();
    cpu.arena_mut().write(addr + by, &bytes).expect("shift dst");
}

impl BTree {
    /// Create an empty tree (allocates the root leaf).
    pub fn create(cpu: &mut Cpu, store: &mut PageStore) -> crate::Result<BTree> {
        let root = store.alloc_page(cpu)?;
        let addr = store.page(root).addr;
        write_header(cpu, addr, true, 0, None);
        Ok(BTree {
            root,
            height: 0,
            len: 0,
        })
    }

    /// Root page id (the DTCM co-design pins the top layers).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Binary search: first index in `[0, n)` whose key is `>= key`;
    /// `n` if all keys are smaller. Charges a compare per probe.
    fn lower_bound_leaf(cpu: &mut Cpu, addr: u64, n: u64, key: i64, dep: Dep) -> u64 {
        let (mut lo, mut hi) = (0u64, n);
        let mut first = true;
        while lo < hi {
            let mid = (lo + hi) / 2;
            // The first probe waits for the node (dependent); later probes
            // are branch-predicted and speculatively issued, so the pipeline
            // keeps them moving (§2.5.1: speculation hides the bubble).
            let probe_dep = if first { dep } else { Dep::Stream };
            first = false;
            let (k, _) = read_leaf_entry(cpu, addr, mid, probe_dep);
            cpu.exec(ExecOp::Branch);
            if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Child index to follow for `key` in an internal node.
    ///
    /// Routes to the *leftmost* child that can hold `key`: on equality with
    /// a separator we descend left, because duplicates of the separator key
    /// may end in the left subtree (separators are copied-up first keys).
    /// The leaf chain walk then covers the right-side duplicates.
    fn route(cpu: &mut Cpu, addr: u64, n: u64, key: i64, dep: Dep) -> u64 {
        let (mut lo, mut hi) = (0u64, n);
        let mut first = true;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let probe_dep = if first { dep } else { Dep::Stream };
            first = false;
            let k = read_int_key(cpu, addr, mid, probe_dep);
            cpu.exec(ExecOp::Branch);
            if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Descend to the leaf that owns `key`, returning `(leaf_id, path)`
    /// where `path[i] = (node_id, child_idx taken)`.
    fn descend(
        &self,
        cpu: &mut Cpu,
        store: &PageStore,
        pool: &mut BufferPool,
        key: i64,
    ) -> (PageId, Vec<(PageId, u64)>) {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut node = self.root;
        loop {
            let page = pool.access(cpu, store, node);
            let (is_leaf, n, _) = read_header(cpu, page.addr, Dep::Chase);
            if is_leaf {
                return (node, path);
            }
            let idx = Self::route(cpu, page.addr, n as u64, key, Dep::Chase);
            let child = read_int_child(cpu, page.addr, idx, Dep::Chase);
            path.push((node, idx));
            node = child;
        }
    }

    /// Insert `key → payload` (duplicates allowed).
    pub fn insert(
        &mut self,
        cpu: &mut Cpu,
        store: &mut PageStore,
        pool: &mut BufferPool,
        key: i64,
        payload: u64,
    ) -> crate::Result<()> {
        let (leaf, mut path) = self.descend(cpu, store, pool, key);
        let page_size = store.page_size();
        let addr = store.page(leaf).addr;
        let (_, n, sib) = read_header(cpu, addr, Dep::Chase);
        let n = n as u64;
        let pos = Self::lower_bound_leaf(cpu, addr, n, key, Dep::Chase);

        if n < leaf_cap(page_size) {
            shift_right(
                cpu,
                leaf_entry_addr(addr, pos),
                (n - pos) * LEAF_ENTRY,
                LEAF_ENTRY,
            );
            write_leaf_entry(cpu, addr, pos, key, payload);
            write_header(cpu, addr, true, (n + 1) as u16, sib);
            self.len += 1;
            return Ok(());
        }

        // Leaf split: move the upper half to a new right sibling.
        let new_id = store.alloc_page(cpu)?;
        let new_addr = store.page(new_id).addr;
        let split = n / 2;
        let moved = n - split;
        // Copy upper half entries.
        for i in 0..moved {
            let (k, p) = read_leaf_entry(cpu, addr, split + i, Dep::Stream);
            write_leaf_entry(cpu, new_addr, i, k, p);
        }
        write_header(cpu, new_addr, true, moved as u16, sib);
        write_header(cpu, addr, true, split as u16, Some(new_id));
        // Re-insert into the proper half.
        let (sep, _) = read_leaf_entry(cpu, new_addr, 0, Dep::Chase);
        let (taddr, tn, tsib) = if key < sep {
            (addr, split, Some(new_id))
        } else {
            (new_addr, moved, sib)
        };
        let pos = Self::lower_bound_leaf(cpu, taddr, tn, key, Dep::Chase);
        shift_right(
            cpu,
            leaf_entry_addr(taddr, pos),
            (tn - pos) * LEAF_ENTRY,
            LEAF_ENTRY,
        );
        write_leaf_entry(cpu, taddr, pos, key, payload);
        write_header(cpu, taddr, true, (tn + 1) as u16, tsib);
        self.len += 1;

        // Propagate the separator upward.
        self.insert_into_parent(cpu, store, &mut path, sep, new_id)
    }

    fn insert_into_parent(
        &mut self,
        cpu: &mut Cpu,
        store: &mut PageStore,
        path: &mut Vec<(PageId, u64)>,
        mut sep: i64,
        mut right: PageId,
    ) -> crate::Result<()> {
        let page_size = store.page_size();
        loop {
            let Some((parent, idx)) = path.pop() else {
                // Root split: new root with two children.
                let new_root = store.alloc_page(cpu)?;
                let ra = store.page(new_root).addr;
                write_header(cpu, ra, false, 1, None);
                let old_root = self.root;
                write_int_child(cpu, ra, 0, old_root);
                write_int_key(cpu, ra, 0, sep);
                write_int_child(cpu, ra, 1, right);
                self.root = new_root;
                self.height += 1;
                return Ok(());
            };
            let addr = store.page(parent).addr;
            let (_, n, _) = read_header(cpu, addr, Dep::Chase);
            let n = n as u64;
            if n < int_cap(page_size) {
                // Make room at key position `idx`, child position `idx+1`.
                let from = int_key_addr(addr, idx);
                let len = (n - idx) * INT_PAIR;
                shift_right(cpu, from, len, INT_PAIR);
                write_int_key(cpu, addr, idx, sep);
                write_int_child(cpu, addr, idx + 1, right);
                write_header(cpu, addr, false, (n + 1) as u16, None);
                return Ok(());
            }
            // Internal split. Gather (host-side) the keys/children, insert,
            // split around the median, write both halves (simulated writes).
            let mut keys = Vec::with_capacity(n as usize + 1);
            let mut children = Vec::with_capacity(n as usize + 2);
            children.push(read_int_child(cpu, addr, 0, Dep::Stream));
            for i in 0..n {
                keys.push(read_int_key(cpu, addr, i, Dep::Stream));
                children.push(read_int_child(cpu, addr, i + 1, Dep::Stream));
            }
            keys.insert(idx as usize, sep);
            children.insert(idx as usize + 1, right);

            let mid = keys.len() / 2;
            let up_key = keys[mid];
            let new_id = store.alloc_page(cpu)?;
            let na = store.page(new_id).addr;

            let left_keys = &keys[..mid];
            let right_keys = &keys[mid + 1..];
            let left_children = &children[..mid + 1];
            let right_children = &children[mid + 1..];

            write_header(cpu, addr, false, left_keys.len() as u16, None);
            write_int_child(cpu, addr, 0, left_children[0]);
            for (i, &k) in left_keys.iter().enumerate() {
                write_int_key(cpu, addr, i as u64, k);
                write_int_child(cpu, addr, i as u64 + 1, left_children[i + 1]);
            }
            write_header(cpu, na, false, right_keys.len() as u16, None);
            write_int_child(cpu, na, 0, right_children[0]);
            for (i, &k) in right_keys.iter().enumerate() {
                write_int_key(cpu, na, i as u64, k);
                write_int_child(cpu, na, i as u64 + 1, right_children[i + 1]);
            }
            sep = up_key;
            right = new_id;
        }
    }

    /// Remove one `key → payload` entry (lazy: the leaf may underflow but
    /// is never merged, like an index awaiting vacuum). Returns whether an
    /// entry was removed.
    pub fn delete(
        &mut self,
        cpu: &mut Cpu,
        store: &PageStore,
        pool: &mut BufferPool,
        key: i64,
        payload: u64,
    ) -> bool {
        let (mut leaf, _) = self.descend(cpu, store, pool, key);
        loop {
            let addr = store.page(leaf).addr;
            let (_, n, sib) = read_header(cpu, addr, Dep::Chase);
            let n = n as u64;
            let mut i = Self::lower_bound_leaf(cpu, addr, n, key, Dep::Chase);
            while i < n {
                let (k, p) = read_leaf_entry(cpu, addr, i, Dep::Stream);
                if k != key {
                    return false;
                }
                if p == payload {
                    // Shift the tail left over the removed entry.
                    let from = leaf_entry_addr(addr, i + 1);
                    let len = (n - i - 1) * LEAF_ENTRY;
                    if len > 0 {
                        crate::page::touch(cpu, from, len, Dep::Stream);
                        touch_store(cpu, from - LEAF_ENTRY, len);
                        let bytes = cpu
                            .arena()
                            .bytes(from, len as usize)
                            .expect("shift src")
                            .to_vec();
                        cpu.arena_mut()
                            .write(from - LEAF_ENTRY, &bytes)
                            .expect("shift dst");
                    }
                    write_header(cpu, addr, true, (n - 1) as u16, sib);
                    self.len -= 1;
                    return true;
                }
                i += 1;
            }
            // Duplicates may continue on the right sibling.
            match sib {
                Some(s) => leaf = s,
                None => return false,
            }
        }
    }

    /// First payload whose key equals `key`, if any.
    pub fn lookup(
        &self,
        cpu: &mut Cpu,
        store: &PageStore,
        pool: &mut BufferPool,
        key: i64,
    ) -> Option<u64> {
        let mut cur = self.seek(cpu, store, pool, key);
        match cur.next(cpu, store, pool) {
            Some((k, p)) if k == key => Some(p),
            _ => None,
        }
    }

    /// Cursor at the first entry with key `>= key`.
    pub fn seek(
        &self,
        cpu: &mut Cpu,
        store: &PageStore,
        pool: &mut BufferPool,
        key: i64,
    ) -> BTreeCursor {
        let (leaf, _) = self.descend(cpu, store, pool, key);
        let addr = store.page(leaf).addr;
        let (_, n, _) = read_header(cpu, addr, Dep::Chase);
        let pos = Self::lower_bound_leaf(cpu, addr, n as u64, key, Dep::Chase);
        BTreeCursor {
            page: Some(leaf),
            idx: pos,
            n: n as u64,
        }
    }

    /// Cursor at the smallest key.
    pub fn seek_first(
        &self,
        cpu: &mut Cpu,
        store: &PageStore,
        pool: &mut BufferPool,
    ) -> BTreeCursor {
        self.seek(cpu, store, pool, i64::MIN)
    }

    /// Bulk-load a tree from key-sorted pairs **without simulation** —
    /// construction of base data is setup, not measured workload.
    pub fn bulk_load(
        cpu: &mut Cpu,
        store: &mut PageStore,
        pairs: &[(i64, u64)],
    ) -> crate::Result<BTree> {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 <= w[1].0),
            "bulk_load needs sorted input"
        );
        let page_size = store.page_size();
        // Fill leaves to ~90% so later simulated inserts don't cascade.
        let per_leaf = ((leaf_cap(page_size) * 9) / 10).max(1);

        let mut leaves: Vec<(PageId, i64)> = Vec::new(); // (page, first key)
        let mut i = 0usize;
        while i < pairs.len() || leaves.is_empty() {
            let chunk = &pairs[i..(i + per_leaf as usize).min(pairs.len())];
            let id = store.alloc_page(cpu)?;
            let addr = store.page(id).addr;
            {
                let arena = cpu.arena_mut();
                let mut hdr = [0u8; 8];
                hdr[0] = 1;
                hdr[2..4].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
                arena.write(addr, &hdr)?;
                for (j, &(k, p)) in chunk.iter().enumerate() {
                    let ea = leaf_entry_addr(addr, j as u64);
                    arena.write(ea, &k.to_le_bytes())?;
                    arena.write(ea + 8, &p.to_le_bytes())?;
                }
            }
            leaves.push((id, chunk.first().map_or(i64::MIN, |e| e.0)));
            if chunk.is_empty() {
                break;
            }
            i += chunk.len();
        }
        // Chain sibling pointers.
        for w in 0..leaves.len().saturating_sub(1) {
            let addr = store.page(leaves[w].0).addr;
            let next = leaves[w + 1].0;
            cpu.arena_mut().write(addr + 4, &(next + 1).to_le_bytes())?;
        }

        // Build internal levels bottom-up.
        let mut level: Vec<(PageId, i64)> = leaves;
        let mut height = 0u32;
        let per_int = ((int_cap(page_size) * 9) / 10).max(2);
        while level.len() > 1 {
            height += 1;
            let mut next_level = Vec::new();
            for chunk in level.chunks(per_int as usize + 1) {
                let id = store.alloc_page(cpu)?;
                let addr = store.page(id).addr;
                let nkeys = chunk.len() - 1;
                let arena = cpu.arena_mut();
                let mut hdr = [0u8; 8];
                hdr[2..4].copy_from_slice(&(nkeys as u16).to_le_bytes());
                arena.write(addr, &hdr)?;
                arena.write(addr + HDR, &chunk[0].0.to_le_bytes())?;
                for (j, &(child, first_key)) in chunk.iter().enumerate().skip(1) {
                    let ka = int_key_addr(addr, j as u64 - 1);
                    arena.write(ka, &first_key.to_le_bytes())?;
                    arena.write(ka + 8, &child.to_le_bytes())?;
                }
                next_level.push((id, chunk[0].1));
            }
            level = next_level;
        }
        Ok(BTree {
            root: level[0].0,
            height,
            len: pairs.len() as u64,
        })
    }

    /// Page ids of the top `layers` levels (root = layer 1), breadth-first.
    /// Used by the DTCM co-design to pin hot B-tree nodes.
    pub fn top_pages(&self, cpu: &mut Cpu, store: &PageStore, layers: u32) -> Vec<PageId> {
        let mut out = Vec::new();
        let mut frontier = vec![self.root];
        for _ in 0..layers {
            out.extend_from_slice(&frontier);
            let mut next = Vec::new();
            for &id in &frontier {
                let addr = store.page(id).addr;
                // Unsimulated peek: planning step, not query execution.
                let b = cpu.arena().bytes(addr, 8).expect("header");
                if b[0] == 1 {
                    continue;
                }
                let n = u16::from_le_bytes([b[2], b[3]]) as u64;
                for idx in 0..=n {
                    let ca = if idx == 0 {
                        addr + HDR
                    } else {
                        int_key_addr(addr, idx - 1) + 8
                    };
                    let cb = cpu.arena().bytes(ca, 4).expect("child");
                    next.push(u32::from_le_bytes(cb.try_into().expect("child")));
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out
    }
}

/// Forward leaf-chain cursor.
#[derive(Debug, Clone)]
pub struct BTreeCursor {
    page: Option<PageId>,
    idx: u64,
    n: u64,
}

impl BTreeCursor {
    /// Next `(key, payload)` in key order, or `None` at end.
    pub fn next(
        &mut self,
        cpu: &mut Cpu,
        store: &PageStore,
        pool: &mut BufferPool,
    ) -> Option<(i64, u64)> {
        loop {
            let pid = self.page?;
            if self.idx < self.n {
                let page = pool.access(cpu, store, pid);
                let e = read_leaf_entry(cpu, page.addr, self.idx, Dep::Stream);
                self.idx += 1;
                return Some(e);
            }
            // Hop to the right sibling: a pointer chase.
            let page = pool.access(cpu, store, pid);
            let (_, _, sib) = read_header(cpu, page.addr, Dep::Chase);
            self.page = sib;
            self.idx = 0;
            if let Some(s) = sib {
                let sp = pool.access(cpu, store, s);
                let (_, n, _) = read_header(cpu, sp.addr, Dep::Chase);
                self.n = n as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ArchConfig;

    fn setup() -> (Cpu, PageStore, BufferPool) {
        let cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let store = PageStore::new(4096);
        let pool = BufferPool::new(1 << 22, 4096);
        (cpu, store, pool)
    }

    fn drain(
        cpu: &mut Cpu,
        store: &PageStore,
        pool: &mut BufferPool,
        mut cur: BTreeCursor,
    ) -> Vec<(i64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = cur.next(cpu, store, pool) {
            out.push(e);
        }
        out
    }

    #[test]
    fn insert_and_scan_sorted() {
        let (mut cpu, mut store, mut pool) = setup();
        let mut t = BTree::create(&mut cpu, &mut store).unwrap();
        // Insert in a scrambled order.
        let mut keys: Vec<i64> = (0..2000).collect();
        let n = keys.len();
        for i in 0..n {
            keys.swap(i, (i * 7919) % n);
        }
        for &k in &keys {
            t.insert(&mut cpu, &mut store, &mut pool, k, k as u64 * 10)
                .unwrap();
        }
        assert_eq!(t.len, 2000);
        assert!(t.height >= 1, "2000 entries must split");
        let cur = t.seek_first(&mut cpu, &store, &mut pool);
        let all = drain(&mut cpu, &store, &mut pool, cur);
        assert_eq!(all.len(), 2000);
        for (i, &(k, p)) in all.iter().enumerate() {
            assert_eq!(k, i as i64);
            assert_eq!(p, k as u64 * 10);
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        let (mut cpu, mut store, mut pool) = setup();
        let mut t = BTree::create(&mut cpu, &mut store).unwrap();
        for k in (0..1000).step_by(2) {
            t.insert(&mut cpu, &mut store, &mut pool, k, k as u64)
                .unwrap();
        }
        assert_eq!(t.lookup(&mut cpu, &store, &mut pool, 500), Some(500));
        assert_eq!(t.lookup(&mut cpu, &store, &mut pool, 501), None);
        assert_eq!(t.lookup(&mut cpu, &store, &mut pool, -1), None);
    }

    #[test]
    fn duplicates_are_kept() {
        let (mut cpu, mut store, mut pool) = setup();
        let mut t = BTree::create(&mut cpu, &mut store).unwrap();
        for p in 0..5u64 {
            t.insert(&mut cpu, &mut store, &mut pool, 42, p).unwrap();
        }
        t.insert(&mut cpu, &mut store, &mut pool, 41, 99).unwrap();
        let cur = t.seek(&mut cpu, &store, &mut pool, 42);
        let hits: Vec<u64> = drain(&mut cpu, &store, &mut pool, cur)
            .into_iter()
            .map(|(_, p)| p)
            .collect();
        assert_eq!(hits.len(), 5);
        let mut sorted = hits.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn seek_positions_at_lower_bound() {
        let (mut cpu, mut store, mut pool) = setup();
        let mut t = BTree::create(&mut cpu, &mut store).unwrap();
        for k in [10i64, 20, 30, 40] {
            t.insert(&mut cpu, &mut store, &mut pool, k, k as u64)
                .unwrap();
        }
        let cur = t.seek(&mut cpu, &store, &mut pool, 25);
        let rest = drain(&mut cpu, &store, &mut pool, cur);
        assert_eq!(rest.iter().map(|e| e.0).collect::<Vec<_>>(), vec![30, 40]);
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let (mut cpu, mut store, mut pool) = setup();
        let pairs: Vec<(i64, u64)> = (0..5000).map(|k| (k, (k * 3) as u64)).collect();
        let t = BTree::bulk_load(&mut cpu, &mut store, &pairs).unwrap();
        assert_eq!(t.len, 5000);
        assert!(t.height >= 1);
        let cur = t.seek_first(&mut cpu, &store, &mut pool);
        let all = drain(&mut cpu, &store, &mut pool, cur);
        assert_eq!(all, pairs);
        assert_eq!(t.lookup(&mut cpu, &store, &mut pool, 4321), Some(4321 * 3));
    }

    #[test]
    fn bulk_loaded_tree_accepts_inserts() {
        let (mut cpu, mut store, mut pool) = setup();
        let pairs: Vec<(i64, u64)> = (0..1000).map(|k| (k * 2, k as u64)).collect();
        let mut t = BTree::bulk_load(&mut cpu, &mut store, &pairs).unwrap();
        t.insert(&mut cpu, &mut store, &mut pool, 501, 777).unwrap();
        assert_eq!(t.lookup(&mut cpu, &store, &mut pool, 501), Some(777));
        assert_eq!(t.lookup(&mut cpu, &store, &mut pool, 500), Some(250));
    }

    #[test]
    fn top_pages_start_with_root() {
        let (mut cpu, mut store, _) = setup();
        let pairs: Vec<(i64, u64)> = (0..5000).map(|k| (k, k as u64)).collect();
        let t = BTree::bulk_load(&mut cpu, &mut store, &pairs).unwrap();
        let top = t.top_pages(&mut cpu, &store, 2);
        assert_eq!(top[0], t.root());
        assert!(top.len() > 1, "two layers should include children");
    }

    #[test]
    fn duplicates_straddling_leaf_boundaries_are_all_found() {
        // Bulk-load enough duplicates of one key that they span multiple
        // leaves; seek must start at the *leftmost* duplicate.
        let (mut cpu, mut store, mut pool) = setup();
        let mut pairs: Vec<(i64, u64)> = (0..300).map(|i| (10, i)).collect();
        pairs.splice(0..0, (0..100).map(|i| (5, 1000 + i)));
        pairs.extend((0..100).map(|i| (20, 2000 + i)));
        pairs.sort_by_key(|&(k, _)| k);
        let t = BTree::bulk_load(&mut cpu, &mut store, &pairs).unwrap();
        let cur = t.seek(&mut cpu, &store, &mut pool, 10);
        let hits: Vec<u64> = drain(&mut cpu, &store, &mut pool, cur)
            .into_iter()
            .take_while(|&(k, _)| k == 10)
            .map(|(_, p)| p)
            .collect();
        assert_eq!(hits.len(), 300, "must find every duplicate");
        // Same through incremental inserts.
        let (mut cpu, mut store, mut pool) = setup();
        let mut t = BTree::create(&mut cpu, &mut store).unwrap();
        for i in 0..600u64 {
            t.insert(&mut cpu, &mut store, &mut pool, (i % 3) as i64, i)
                .unwrap();
        }
        let cur = t.seek(&mut cpu, &store, &mut pool, 1);
        let ones = drain(&mut cpu, &store, &mut pool, cur)
            .into_iter()
            .take_while(|&(k, _)| k == 1)
            .count();
        assert_eq!(ones, 200);
    }

    #[test]
    fn descent_is_pointer_chasing() {
        let (mut cpu, mut store, mut pool) = setup();
        let pairs: Vec<(i64, u64)> = (0..20_000).map(|k| (k, k as u64)).collect();
        let t = BTree::bulk_load(&mut cpu, &mut store, &pairs).unwrap();
        assert!(t.height >= 1);
        // Random lookups should accumulate stall cycles (chases).
        let before = cpu.pmu_snapshot();
        for k in (0..20_000).step_by(997) {
            t.lookup(&mut cpu, &store, &mut pool, k);
        }
        let d = cpu.pmu_snapshot().delta(&before);
        assert!(d.get(simcore::Event::StallCycles) > 0);
    }
}
