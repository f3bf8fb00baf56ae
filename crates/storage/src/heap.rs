//! Heap files: unordered tuple storage over a page list.

use crate::buffer::{BufferPool, PageStore};
use crate::page::PageId;
use simcore::{Cpu, Dep};

/// A heap file: the ordered list of pages holding a table's tuples.
#[derive(Debug, Clone, Default)]
pub struct HeapFile {
    pages: Vec<PageId>,
    n_tuples: u64,
}

/// Position of a tuple: `(page, slot)`.
pub type TupleId = (PageId, u16);

impl HeapFile {
    /// Empty heap.
    pub fn new() -> HeapFile {
        HeapFile::default()
    }

    /// Number of tuples inserted.
    pub fn len(&self) -> u64 {
        self.n_tuples
    }

    /// Whether the heap holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.n_tuples == 0
    }

    /// Pages backing the heap.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Page id at position `idx` in heap order.
    pub fn page_id(&self, idx: usize) -> PageId {
        self.pages[idx]
    }

    /// Insert an encoded tuple, growing the page list as needed.
    pub fn insert(
        &mut self,
        cpu: &mut Cpu,
        store: &mut PageStore,
        pool: &mut BufferPool,
        bytes: &[u8],
    ) -> crate::Result<TupleId> {
        if let Some(&last) = self.pages.last() {
            let page = pool.access(cpu, store, last);
            if let Some(slot) = page.insert(cpu, bytes)? {
                self.n_tuples += 1;
                return Ok((last, slot));
            }
        }
        let id = store.alloc_page(cpu)?;
        self.pages.push(id);
        let page = pool.access(cpu, store, id);
        let slot = page
            .insert(cpu, bytes)?
            .expect("fresh page must accept a tuple that fits a page");
        self.n_tuples += 1;
        Ok((id, slot))
    }

    /// Unsimulated full iteration (index builds): calls `f(tid, bytes)` for
    /// every tuple in heap order.
    pub fn for_each_unsimulated<F: FnMut(TupleId, &[u8])>(
        &self,
        arena: &simcore::Arena,
        store: &PageStore,
        mut f: F,
    ) -> crate::Result<()> {
        for &pid in &self.pages {
            let page = store.page(pid);
            let n = page.n_slots_unsimulated(arena)?;
            for slot in 0..n {
                f((pid, slot), page.read_tuple_unsimulated(arena, slot)?);
            }
        }
        Ok(())
    }

    /// Unsimulated insert for bulk data loading (setup, not workload).
    pub fn bulk_insert(
        &mut self,
        cpu: &mut Cpu,
        store: &mut PageStore,
        bytes: &[u8],
    ) -> crate::Result<TupleId> {
        if let Some(&last) = self.pages.last() {
            let page = store.page(last);
            if let Some(slot) = page.insert_unsimulated(cpu.arena_mut(), bytes)? {
                self.n_tuples += 1;
                return Ok((last, slot));
            }
        }
        let id = store.alloc_page(cpu)?;
        self.pages.push(id);
        let page = store.page(id);
        let slot = page
            .insert_unsimulated(cpu.arena_mut(), bytes)?
            .expect("fresh page must accept a tuple that fits a page");
        self.n_tuples += 1;
        Ok((id, slot))
    }

    /// Cursor positioned before the first tuple.
    pub fn cursor(&self) -> HeapCursor {
        HeapCursor {
            page_idx: 0,
            slot: 0,
            page_slots: None,
        }
    }

    /// Read one tuple by id (simulating the page + tuple accesses with the
    /// given dependency class — index lookups pass [`Dep::Chase`]).
    pub fn fetch<'a>(
        &self,
        cpu: &'a mut Cpu,
        store: &PageStore,
        pool: &mut BufferPool,
        tid: TupleId,
        dep: Dep,
    ) -> crate::Result<&'a [u8]> {
        let page = pool.access(cpu, store, tid.0);
        page.read_tuple(cpu, tid.1, dep)
    }
}

/// Pull-based sequential scan state.
#[derive(Debug, Clone)]
pub struct HeapCursor {
    page_idx: usize,
    slot: u16,
    page_slots: Option<u16>,
}

impl HeapCursor {
    /// Advance to the next tuple; returns its id, or `None` at end.
    ///
    /// Sequential scans stream: page headers and tuples are loaded with
    /// [`Dep::Stream`], which is exactly why table scans concentrate energy
    /// in L1D (§3.2). Header reads and the per-tuple touches in
    /// [`crate::page`] all route through `Cpu::access_run`, so a warm page
    /// scan is simulated on the batched L1D-hit fast path with counters
    /// identical to per-line loads.
    pub fn next(
        &mut self,
        cpu: &mut Cpu,
        heap: &HeapFile,
        store: &PageStore,
        pool: &mut BufferPool,
    ) -> crate::Result<Option<TupleId>> {
        loop {
            let Some(&pid) = heap.pages.get(self.page_idx) else {
                return Ok(None);
            };
            let page = pool.access(cpu, store, pid);
            let n = match self.page_slots {
                Some(n) => n,
                None => {
                    let n = page.n_slots(cpu, Dep::Stream)?;
                    self.page_slots = Some(n);
                    n
                }
            };
            if self.slot < n {
                let s = self.slot;
                self.slot += 1;
                return Ok(Some((pid, s)));
            }
            self.page_idx += 1;
            self.slot = 0;
            self.page_slots = None;
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
        let pool = BufferPool::new(64 * 4096, 4096);
        (cpu, store, pool)
    }

    #[test]
    fn insert_then_scan_in_order() {
        let (mut cpu, mut store, mut pool) = setup();
        let mut heap = HeapFile::new();
        for i in 0..500u64 {
            let bytes = i.to_le_bytes();
            heap.insert(&mut cpu, &mut store, &mut pool, &bytes)
                .unwrap();
        }
        assert_eq!(heap.len(), 500);
        assert!(heap.n_pages() > 1);

        let mut cur = heap.cursor();
        let mut seen = Vec::new();
        while let Some(tid) = cur.next(&mut cpu, &heap, &store, &mut pool).unwrap() {
            let b = heap
                .fetch(&mut cpu, &store, &mut pool, tid, Dep::Stream)
                .unwrap();
            seen.push(u64::from_le_bytes(b.try_into().unwrap()));
        }
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn fetch_by_tid_random_access() {
        let (mut cpu, mut store, mut pool) = setup();
        let mut heap = HeapFile::new();
        let mut tids = Vec::new();
        for i in 0..100u64 {
            tids.push(
                heap.insert(&mut cpu, &mut store, &mut pool, &i.to_le_bytes())
                    .unwrap(),
            );
        }
        let b = heap
            .fetch(&mut cpu, &store, &mut pool, tids[57], Dep::Chase)
            .unwrap();
        assert_eq!(u64::from_le_bytes(b.try_into().unwrap()), 57);
    }

    #[test]
    fn empty_heap_scans_nothing() {
        let (mut cpu, store, mut pool) = setup();
        let heap = HeapFile::new();
        let mut cur = heap.cursor();
        assert!(cur
            .next(&mut cpu, &heap, &store, &mut pool)
            .unwrap()
            .is_none());
        assert!(heap.is_empty());
    }
}
