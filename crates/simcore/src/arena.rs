//! Simulated physical memory.
//!
//! All workload data lives in a flat byte arena addressed by simulated
//! physical addresses. Address `0..dtcm_size` is the TCM window (fixed
//! physical addresses, per the ARM1176JZF-S manual); DRAM starts at
//! [`Arena::DRAM_BASE`]. The arena is a bump allocator — the workloads in this
//! repository build their working sets once and traverse them, so freeing is
//! only supported wholesale via [`Arena::reset_dram`]. DRAM is one zeroed host
//! allocation of its capacity; host memory grows only with the pages touched,
//! since the OS zeroes a large allocation's pages lazily (Linux overcommit).

use std::fmt;

/// Base simulated address of DRAM. Everything below is the TCM window.
const DRAM_BASE: u64 = 0x1000_0000;

/// Errors from simulated memory management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// DRAM allocation exceeded the configured capacity.
    OutOfMemory {
        /// Bytes requested (line-aligned).
        requested: u64,
        /// Bytes still free.
        available: u64,
    },
    /// TCM allocation exceeded the TCM window (or the part has no TCM).
    OutOfTcm {
        /// Bytes requested (line-aligned).
        requested: u64,
        /// Bytes still free.
        available: u64,
    },
    /// Access to an address that was never allocated.
    BadAddress(u64),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of simulated DRAM: requested {requested} B, {available} B left"
                )
            }
            MemError::OutOfTcm {
                requested,
                available,
            } => {
                write!(f, "out of TCM: requested {requested} B, {available} B left")
            }
            MemError::BadAddress(a) => write!(f, "unallocated simulated address {a:#x}"),
        }
    }
}

impl std::error::Error for MemError {}

/// A contiguous allocation in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First simulated address of the region.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// Whether `a` falls inside this region.
    pub fn contains(&self, a: u64) -> bool {
        a >= self.addr && a < self.addr + self.len
    }

    /// End address (exclusive).
    pub fn end(&self) -> u64 {
        self.addr + self.len
    }
}

/// Flat simulated memory: a TCM window plus bump-allocated DRAM.
///
/// The arena stores *real bytes* so database pages, B-trees and tuples are
/// genuine data structures, not abstractions; only the *timing and energy* of
/// touching them is simulated (by [`crate::Cpu`]). DRAM is one zeroed host
/// allocation of its capacity, whose pages take host memory once touched.
pub struct Arena {
    tcm: Vec<u8>,
    tcm_next: u64,
    dram: Vec<u8>,
    dram_next: u64,
    dram_high: u64,
}

impl Arena {
    /// Base simulated address of DRAM (TCM lives below this).
    pub const DRAM_BASE: u64 = DRAM_BASE;

    /// Create an arena with the given TCM window and DRAM capacity.
    pub fn new(tcm_size: u64, dram_cap: u64) -> Self {
        Arena {
            tcm: vec![0; tcm_size as usize],
            tcm_next: 0,
            dram: vec![0; dram_cap as usize],
            dram_next: 0,
            dram_high: 0,
        }
    }

    /// Allocate `len` bytes of DRAM, 64-byte aligned.
    pub fn alloc(&mut self, len: u64) -> Result<Region, MemError> {
        let aligned = len.div_ceil(crate::LINE) * crate::LINE;
        if self.dram_next + aligned > self.dram.len() as u64 {
            return Err(MemError::OutOfMemory {
                requested: aligned,
                available: self.dram.len() as u64 - self.dram_next,
            });
        }
        let addr = DRAM_BASE + self.dram_next;
        self.dram_next += aligned;
        self.dram_high = self.dram_high.max(self.dram_next);
        Ok(Region { addr, len })
    }

    /// Allocate `len` bytes of TCM, 64-byte aligned.
    pub fn alloc_tcm(&mut self, len: u64) -> Result<Region, MemError> {
        let aligned = len.div_ceil(crate::LINE) * crate::LINE;
        if self.tcm_next + aligned > self.tcm.len() as u64 {
            return Err(MemError::OutOfTcm {
                requested: aligned,
                available: self.tcm.len() as u64 - self.tcm_next,
            });
        }
        let addr = self.tcm_next;
        self.tcm_next += aligned;
        Ok(Region { addr, len })
    }

    /// Whether `addr` is inside the TCM window.
    pub fn is_tcm(&self, addr: u64) -> bool {
        addr < self.tcm.len() as u64
    }

    /// Bytes of DRAM currently allocated.
    pub fn dram_used(&self) -> u64 {
        self.dram_next
    }

    /// Bytes of TCM currently allocated.
    pub fn tcm_used(&self) -> u64 {
        self.tcm_next
    }

    /// Release every DRAM allocation (the backing store is kept).
    ///
    /// Used by harnesses that rebuild working sets between experiments on the
    /// same simulated machine.
    pub fn reset_dram(&mut self) {
        self.dram_next = 0;
    }

    fn slice(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        if self.is_tcm(addr) {
            let a = addr as usize;
            self.tcm.get(a..a + len).ok_or(MemError::BadAddress(addr))
        } else {
            let off = addr.checked_sub(DRAM_BASE);
            let a = off.ok_or(MemError::BadAddress(addr))? as usize;
            let dram = &self.dram[..self.dram_high as usize];
            dram.get(a..a + len).ok_or(MemError::BadAddress(addr))
        }
    }

    fn slice_mut(&mut self, addr: u64, len: usize) -> Result<&mut [u8], MemError> {
        if self.is_tcm(addr) {
            let a = addr as usize;
            self.tcm
                .get_mut(a..a + len)
                .ok_or(MemError::BadAddress(addr))
        } else {
            let off = addr.checked_sub(DRAM_BASE);
            let a = off.ok_or(MemError::BadAddress(addr))? as usize;
            let dram = &mut self.dram[..self.dram_high as usize];
            dram.get_mut(a..a + len).ok_or(MemError::BadAddress(addr))
        }
    }

    /// Read `out.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        out.copy_from_slice(self.slice(addr, out.len())?);
        Ok(())
    }

    /// Borrow `len` bytes starting at `addr` without copying.
    ///
    /// Callers that simulate the access separately (via
    /// [`crate::Cpu::load`]) use this to decode in place.
    pub fn bytes(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        self.slice(addr, len)
    }

    /// Write `data` starting at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        self.slice_mut(addr, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Read a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        self.write(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut a = Arena::new(0, 1 << 20);
        let r1 = a.alloc(100).unwrap();
        let r2 = a.alloc(1).unwrap();
        assert_eq!(r1.addr % crate::LINE, 0);
        assert_eq!(r2.addr % crate::LINE, 0);
        assert!(r2.addr >= r1.addr + 128); // 100 rounds up to 128
    }

    #[test]
    fn oom_reports_remaining() {
        let mut a = Arena::new(0, 128);
        a.alloc(64).unwrap();
        let e = a.alloc(128).unwrap_err();
        assert_eq!(
            e,
            MemError::OutOfMemory {
                requested: 128,
                available: 64
            }
        );
    }

    #[test]
    fn tcm_addresses_are_below_dram() {
        let mut a = Arena::new(1024, 1 << 20);
        let t = a.alloc_tcm(64).unwrap();
        let d = a.alloc(64).unwrap();
        assert!(a.is_tcm(t.addr));
        assert!(!a.is_tcm(d.addr));
        assert!(t.addr < d.addr);
    }

    #[test]
    fn tcm_exhaustion_errors() {
        let mut a = Arena::new(128, 1 << 20);
        a.alloc_tcm(128).unwrap();
        assert!(matches!(a.alloc_tcm(1), Err(MemError::OutOfTcm { .. })));
    }

    #[test]
    fn roundtrip_u64() {
        let mut a = Arena::new(64, 1 << 20);
        let r = a.alloc(64).unwrap();
        a.write_u64(r.addr + 8, 0xdead_beef).unwrap();
        assert_eq!(a.read_u64(r.addr + 8).unwrap(), 0xdead_beef);
        let t = a.alloc_tcm(64).unwrap();
        a.write_u64(t.addr, 42).unwrap();
        assert_eq!(a.read_u64(t.addr).unwrap(), 42);
    }

    #[test]
    fn bad_address_is_reported() {
        let a = Arena::new(0, 1 << 20);
        assert!(a.read_u64(Arena::DRAM_BASE + 4096).is_err());
    }

    #[test]
    fn gap_address_is_bad_address() {
        // Above the TCM window, below DRAM: no backing store at all.
        let mut a = Arena::new(1024, 1 << 20);
        a.alloc(64).unwrap();
        let gap = 0x0800_0000;
        assert_eq!(a.read_u64(gap), Err(MemError::BadAddress(gap)));
        assert_eq!(a.write_u64(gap, 1), Err(MemError::BadAddress(gap)));
    }

    #[test]
    fn line_past_last_allocation_is_bad_address() {
        // Inside the capacity, but never allocated.
        let mut a = Arena::new(0, 1 << 20);
        let r = a.alloc(100).unwrap(); // rounds up to two lines
        let past = r.addr + 2 * crate::LINE;
        assert_eq!(a.read_u64(past - 8), Ok(0));
        assert_eq!(a.read_u64(past), Err(MemError::BadAddress(past)));
        assert_eq!(a.write_u64(past, 1), Err(MemError::BadAddress(past)));
    }

    #[test]
    fn fresh_allocation_reads_zero() {
        let mut a = Arena::new(0, 1 << 20);
        let r1 = a.alloc(4096).unwrap();
        a.write(r1.addr, &[0xff; 4096]).unwrap();
        let r2 = a.alloc(4096).unwrap();
        let mut out = [0xaa; 4096];
        a.read(r2.addr, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn reset_dram_reuses_space() {
        let mut a = Arena::new(0, 256);
        let r = a.alloc(256).unwrap();
        a.write_u64(r.addr + 192, 7).unwrap();
        assert!(a.alloc(64).is_err());
        a.reset_dram();
        // Below the old high-water mark the bytes stay readable and kept.
        assert_eq!(a.read_u64(r.addr + 192), Ok(7));
        assert!(a.alloc(64).is_ok());
    }
}
