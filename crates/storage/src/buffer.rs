//! Page store ("disk") and buffer pool.
//!
//! Pages live permanently in the simulated arena — that region plays the
//! role of the database file. The buffer pool tracks which pages are
//! *resident*: an access to a non-resident page pays a simulated disk read
//! (an I/O wait plus a streamed read-and-copy of the page, which is what a
//! buffered `read(2)` costs and a real source of L1D store traffic) and may
//! evict the least-recently-used page. The pool size in pages is derived
//! from the engine's memory knob (Table 4).

use crate::page::{PageId, PageRef};
use simcore::Cpu;
use std::collections::HashMap;

/// Simulated disk read latency per page (SSD-class; the exact constant only
/// shifts Fig. 5's idle share, not the energy distribution).
pub const DISK_READ_S: f64 = 100e-6;

/// The "database file": all allocated pages.
pub struct PageStore {
    page_size: u32,
    pages: Vec<u64>,
}

impl PageStore {
    /// New store with the given page-size knob.
    pub fn new(page_size: u32) -> PageStore {
        assert!(page_size.is_power_of_two() && page_size >= 256);
        PageStore {
            page_size,
            pages: Vec::new(),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.page_size
    }

    /// Number of allocated pages.
    pub fn n_pages(&self) -> usize {
        self.pages.len()
    }

    /// Allocate and initialise a fresh page.
    pub fn alloc_page(&mut self, cpu: &mut Cpu) -> crate::Result<PageId> {
        let r = cpu.alloc(self.page_size as u64)?;
        let id = self.pages.len() as PageId;
        self.pages.push(r.addr);
        PageRef {
            addr: r.addr,
            size: self.page_size,
        }
        .init(cpu)?;
        Ok(id)
    }

    /// View a page (no residency logic — use [`BufferPool::access`] inside
    /// query execution).
    pub fn page(&self, id: PageId) -> PageRef {
        PageRef {
            addr: self.pages[id as usize],
            size: self.page_size,
        }
    }
}

/// LRU buffer pool over a [`PageStore`], plus the DTCM pin map.
///
/// A pinned page (the §4.2 co-design copies it into tightly coupled memory
/// once, at configuration time) is served from its TCM copy: it takes no
/// pool frame and never pays a disk read. Pools start with no pins.
pub struct BufferPool {
    capacity: usize,
    resident: HashMap<PageId, u64>,
    /// Page id → address of its TCM copy.
    pinned: HashMap<PageId, u64>,
    stamp: u64,
    charge_io: bool,
    /// Pages read from "disk" so far (diagnostic).
    pub disk_reads: u64,
}

impl BufferPool {
    /// Pool holding `buffer_bytes / page_size` pages (at least 4).
    pub fn new(buffer_bytes: u64, page_size: u32) -> BufferPool {
        let capacity = (buffer_bytes / page_size as u64).max(4) as usize;
        BufferPool {
            capacity,
            resident: HashMap::new(),
            pinned: HashMap::new(),
            stamp: 0,
            charge_io: true,
            disk_reads: 0,
        }
    }

    /// Pool over *anonymous memory* (temp structures, `temp_store=MEMORY`):
    /// misses track residency but charge no disk I/O and no read-copy.
    pub fn new_memory_resident(buffer_bytes: u64, page_size: u32) -> BufferPool {
        let mut p = BufferPool::new(buffer_bytes, page_size);
        p.charge_io = false;
        p
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a page is currently resident (diagnostic).
    pub fn is_resident(&self, id: PageId) -> bool {
        self.resident.contains_key(&id)
    }

    /// Serve page `id` from TCM at `tcm_addr` from now on, where the caller
    /// has already copied it.
    pub fn pin(&mut self, id: PageId, tcm_addr: u64) {
        self.resident.remove(&id);
        self.pinned.insert(id, tcm_addr);
    }

    /// Whether `id` is pinned in TCM.
    pub fn is_pinned(&self, id: PageId) -> bool {
        self.pinned.contains_key(&id)
    }

    /// Number of pages pinned in TCM.
    pub fn pinned_pages(&self) -> usize {
        self.pinned.len()
    }

    /// Return `id`'s [`PageRef`]: its TCM copy if pinned, else the page
    /// made resident. Charges the simulated disk read + copy on a miss.
    pub fn access(&mut self, cpu: &mut Cpu, store: &PageStore, id: PageId) -> PageRef {
        if let Some(&addr) = self.pinned.get(&id) {
            return PageRef {
                addr,
                size: store.page_size(),
            };
        }
        self.stamp += 1;
        let page = store.page(id);
        if let Some(ts) = self.resident.get_mut(&id) {
            *ts = self.stamp;
            return page;
        }
        // Miss: evict LRU if full, then "read" the page from disk.
        if self.resident.len() >= self.capacity {
            if let Some((&victim, _)) = self.resident.iter().min_by_key(|(_, &ts)| ts) {
                self.resident.remove(&victim);
            }
        }
        if self.charge_io {
            self.disk_reads += 1;
            cpu.idle_c0(DISK_READ_S);
            // Buffered read: the kernel copies the page through the CPU —
            // a streamed load + store per line.
            cpu.copy_run(page.addr, (page.size as u64).div_ceil(simcore::LINE));
        }
        self.resident.insert(id, self.stamp);
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ArchConfig;

    fn setup(buffer_bytes: u64) -> (Cpu, PageStore, BufferPool) {
        let cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let store = PageStore::new(4096);
        let pool = BufferPool::new(buffer_bytes, 4096);
        (cpu, store, pool)
    }

    #[test]
    fn hit_after_miss() {
        let (mut cpu, mut store, mut pool) = setup(16 * 4096);
        let p = store.alloc_page(&mut cpu).unwrap();
        pool.access(&mut cpu, &store, p);
        assert_eq!(pool.disk_reads, 1);
        pool.access(&mut cpu, &store, p);
        assert_eq!(pool.disk_reads, 1, "second access must hit");
    }

    #[test]
    fn lru_eviction_under_pressure() {
        let (mut cpu, mut store, mut pool) = setup(4 * 4096); // 4 frames
        let ids: Vec<PageId> = (0..6)
            .map(|_| store.alloc_page(&mut cpu).unwrap())
            .collect();
        for &id in &ids {
            pool.access(&mut cpu, &store, id);
        }
        assert!(!pool.is_resident(ids[0]));
        assert!(pool.is_resident(ids[5]));
        // Re-access of evicted page is a new disk read.
        let before = pool.disk_reads;
        pool.access(&mut cpu, &store, ids[0]);
        assert_eq!(pool.disk_reads, before + 1);
    }

    #[test]
    fn miss_costs_time_and_l1d_store_traffic() {
        let (mut cpu, mut store, mut pool) = setup(16 * 4096);
        let p = store.alloc_page(&mut cpu).unwrap();
        let t0 = cpu.time_s();
        let before = cpu.pmu_snapshot();
        pool.access(&mut cpu, &store, p);
        let d = cpu.pmu_snapshot().delta(&before);
        assert!(cpu.time_s() - t0 >= DISK_READ_S);
        assert_eq!(d.get(simcore::Event::StoreIssued), 4096 / 64);
    }

    /// A 4-frame pool on the ARM part, plus `n` fresh pages.
    fn arm_setup(n: usize) -> (Cpu, PageStore, BufferPool, Vec<PageId>) {
        let mut cpu = Cpu::new(ArchConfig::arm1176jzf_s());
        let mut store = PageStore::new(4096);
        let ids = (0..n)
            .map(|_| store.alloc_page(&mut cpu).unwrap())
            .collect();
        (cpu, store, BufferPool::new(4 * 4096, 4096), ids)
    }

    #[test]
    fn pinned_page_is_served_from_tcm_without_disk_read_or_frame() {
        let (mut cpu, store, mut pool, ids) = arm_setup(1);
        let tcm = cpu.alloc_tcm(4096).unwrap();
        pool.pin(ids[0], tcm.addr);
        let t0 = cpu.time_s();
        let page = pool.access(&mut cpu, &store, ids[0]);
        assert_eq!((page.addr, page.size), (tcm.addr, 4096));
        assert_eq!(pool.disk_reads, 0, "a pinned page never reads disk");
        assert_eq!(cpu.time_s(), t0, "and costs no simulated time");
        assert!(!pool.is_resident(ids[0]), "and takes no pool frame");
    }

    #[test]
    fn pins_leave_lru_eviction_of_unpinned_pages_unchanged() {
        let (mut cpu, store, mut pool, ids) = arm_setup(7);
        let tcm = cpu.alloc_tcm(4096).unwrap();
        pool.pin(ids[6], tcm.addr);
        // Fill the 4 frames, touching the pinned page in between: it must
        // neither take a frame nor refresh anything in the LRU order.
        for &id in &ids[..4] {
            pool.access(&mut cpu, &store, id);
            pool.access(&mut cpu, &store, ids[6]);
        }
        assert_eq!(pool.disk_reads, 4);
        assert!(ids[..4].iter().all(|&id| pool.is_resident(id)));
        // Two more misses evict the two least recently used pages.
        pool.access(&mut cpu, &store, ids[4]);
        pool.access(&mut cpu, &store, ids[5]);
        assert_eq!(pool.disk_reads, 6);
        assert!(!pool.is_resident(ids[0]) && !pool.is_resident(ids[1]));
        assert!(ids[2..6].iter().all(|&id| pool.is_resident(id)));
        pool.access(&mut cpu, &store, ids[0]);
        assert_eq!(pool.disk_reads, 7, "an evicted page misses again");
    }

    #[test]
    fn pinned_pages_counts_the_pins() {
        let (mut cpu, store, mut pool, ids) = arm_setup(3);
        assert_eq!(pool.pinned_pages(), 0, "pools start with no pins");
        pool.access(&mut cpu, &store, ids[0]);
        for &id in &ids {
            let tcm = cpu.alloc_tcm(4096).unwrap();
            pool.pin(id, tcm.addr);
        }
        assert_eq!(pool.pinned_pages(), 3);
        assert!(ids.iter().all(|&id| pool.is_pinned(id)));
        assert!(!pool.is_resident(ids[0]), "pinning frees the page's frame");
    }

    #[test]
    fn capacity_respects_knob() {
        let pool_small = BufferPool::new(8 * 1024 * 1024, 8192);
        assert_eq!(pool_small.capacity(), 1024);
        let tiny = BufferPool::new(0, 8192);
        assert_eq!(tiny.capacity(), 4, "floor of 4 frames");
    }
}
