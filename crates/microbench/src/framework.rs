//! The two micro-benchmark design frameworks (§2.5.1) and the Fig. 4 data
//! layouts.
//!
//! Construction happens through [`simcore::Cpu::arena_mut`] — setup is
//! architecturally invisible, so the measurement window sees only the
//! traversal behaviour (plus honest cold misses on the first pass unless the
//! caller warms up).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simcore::{Cpu, Dep, ExecOp, MemError, Region};

/// Size of one chain/array item: exactly one cache line (§2.5.1).
pub const ITEM: u64 = simcore::LINE;

/// A linked chain of cache-line-sized items (Fig. 4b/4d).
///
/// Each item stores a forward pointer `f` in its first 8 bytes and (for
/// permuted chains) a backward pointer `b` in the next 8; the remaining bytes
/// are payload. The chain is circular so it can be traversed any number of
/// passes.
#[derive(Debug, Clone, Copy)]
pub struct ListChain {
    /// Backing allocation.
    pub region: Region,
    /// Number of items.
    pub items: u64,
    /// Address of the first item in logical order.
    pub head: u64,
}

impl ListChain {
    /// Build a chain whose logical order equals its physical order
    /// (Algorithm 2 / Fig. 4b). Used for L1D-resident working sets, where
    /// physical sequentiality cannot leak data to lower levels anyway.
    pub fn sequential(cpu: &mut Cpu, smem: u64) -> Result<ListChain, MemError> {
        let items = smem / ITEM;
        assert!(items >= 2, "chain needs at least two items");
        let region = cpu.alloc(items * ITEM)?;
        let arena = cpu.arena_mut();
        for j in 0..items {
            let next = (j + 1) % items;
            arena.write_u64(region.addr + j * ITEM, region.addr + next * ITEM)?;
        }
        Ok(ListChain {
            region,
            items,
            head: region.addr,
        })
    }

    /// Build a chain whose logical order is a span-constrained random
    /// permutation (Algorithm 3 / Fig. 4d).
    ///
    /// Starting from sequential order, every position `z` is exchanged with a
    /// random position `e` at distance `> espan`, avoiding logical neighbours
    /// — this "jump access on a large span" breaks all spatial locality, so a
    /// working set bigger than a cache level misses that level on every
    /// access (reuse distance = working-set size under LRU).
    pub fn permuted(
        cpu: &mut Cpu,
        smem: u64,
        espan: u64,
        seed: u64,
    ) -> Result<ListChain, MemError> {
        let items = smem / ITEM;
        assert!(items >= 8, "permuted chain needs at least 8 items");
        assert!(espan < items / 2, "espan must leave room for exchanges");
        let region = cpu.alloc(items * ITEM)?;

        // Logical visit order, host-side (construction is not measured).
        let mut order: Vec<u64> = (0..items).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for z in 1..items - 1 {
            // Find e with |z - e| > espan that is not a logical neighbour.
            let mut e;
            loop {
                e = rng.gen_range(1..items - 1);
                let far = z.abs_diff(e) > espan;
                if far && e != z {
                    break;
                }
            }
            order.swap(z as usize, e as usize);
        }

        // Write forward (f, offset 0) and backward (b, offset 8) pointers
        // following the logical order; circular in both directions.
        let arena = cpu.arena_mut();
        let n = items as usize;
        for k in 0..n {
            let cur = region.addr + order[k] * ITEM;
            let next = region.addr + order[(k + 1) % n] * ITEM;
            let prev = region.addr + order[(k + n - 1) % n] * ITEM;
            arena.write_u64(cur, next)?;
            arena.write_u64(cur + 8, prev)?;
        }
        Ok(ListChain {
            region,
            items,
            head: region.addr + order[0] * ITEM,
        })
    }

    /// Traverse the chain once through dependent loads, returning the final
    /// pointer (fed back in by multi-pass callers so the dependency is real).
    ///
    /// `per_item` is executed after each load — VMBS benchmarks insert
    /// `add`/`nop` work here.
    pub fn traverse_pass<F: FnMut(&mut Cpu)>(
        &self,
        cpu: &mut Cpu,
        mut ptr: u64,
        per_item: &mut F,
    ) -> Result<u64, MemError> {
        // The body is "unrolled": no per-item loop control, only a per-pass
        // counter update and backward branch (§2.5.2: unrolling keeps BLI
        // above 98%).
        for _ in 0..self.items {
            ptr = cpu.read_u64(ptr, Dep::Chase)?;
            per_item(cpu);
        }
        cpu.exec(ExecOp::Add);
        cpu.exec(ExecOp::Branch);
        Ok(ptr)
    }

    /// Traverse `passes` times with no per-item extra work.
    pub fn traverse(&self, cpu: &mut Cpu, passes: u64) -> Result<(), MemError> {
        let mut ptr = self.head;
        let mut noop = |_: &mut Cpu| {};
        for _ in 0..passes {
            ptr = self.traverse_pass(cpu, ptr, &mut noop)?;
        }
        Ok(())
    }
}

/// A flat array of cache-line-sized items (Fig. 4a).
#[derive(Debug, Clone, Copy)]
pub struct ArrayBuf {
    /// Backing allocation.
    pub region: Region,
    /// Number of 64-byte items.
    pub items: u64,
}

impl ArrayBuf {
    /// Allocate an array of `smem / 64` items in DRAM.
    pub fn new(cpu: &mut Cpu, smem: u64) -> Result<ArrayBuf, MemError> {
        let items = smem / ITEM;
        assert!(items >= 1);
        let region = cpu.alloc(items * ITEM)?;
        Ok(ArrayBuf { region, items })
    }

    /// Allocate the array in TCM (for `B_DTCM_array`, §4.3).
    pub fn new_tcm(cpu: &mut Cpu, smem: u64) -> Result<ArrayBuf, MemError> {
        let items = smem / ITEM;
        assert!(items >= 1);
        let region = cpu.alloc_tcm(items * ITEM)?;
        Ok(ArrayBuf { region, items })
    }

    /// One sequential pass of independent loads, with optional per-item work.
    pub fn traverse_pass<F: FnMut(&mut Cpu)>(&self, cpu: &mut Cpu, per_item: &mut F) {
        for i in 0..self.items {
            cpu.load(self.region.addr + i * ITEM, Dep::Stream);
            per_item(cpu);
        }
        cpu.exec(ExecOp::Add);
        cpu.exec(ExecOp::Branch);
    }

    /// `passes` sequential passes with no per-item work.
    pub fn traverse(&self, cpu: &mut Cpu, passes: u64) {
        let mut noop = |_: &mut Cpu| {};
        for _ in 0..passes {
            self.traverse_pass(cpu, &mut noop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ArchConfig, Event};

    fn cpu() -> Cpu {
        let mut c = Cpu::new(ArchConfig::intel_i7_4790());
        c.set_prefetch(false);
        c
    }

    /// Follow f-pointers host-side and check the chain is a single cycle
    /// visiting every item exactly once.
    fn assert_full_cycle(cpu: &Cpu, chain: &ListChain) {
        let mut seen = vec![false; chain.items as usize];
        let mut ptr = chain.head;
        for _ in 0..chain.items {
            let idx = ((ptr - chain.region.addr) / ITEM) as usize;
            assert!(!seen[idx], "chain revisited item {idx} early");
            seen[idx] = true;
            ptr = cpu.arena().read_u64(ptr).unwrap();
        }
        assert_eq!(ptr, chain.head, "chain is not circular");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn sequential_chain_is_a_cycle() {
        let mut c = cpu();
        let chain = ListChain::sequential(&mut c, 31 * 1024).unwrap();
        assert_eq!(chain.items, 496);
        assert_full_cycle(&c, &chain);
    }

    #[test]
    fn permuted_chain_is_a_cycle_with_long_jumps() {
        let mut c = cpu();
        let chain = ListChain::permuted(&mut c, 260 * 1024, 64, 42).unwrap();
        assert_full_cycle(&c, &chain);
        // Median physical jump distance should be large (locality broken).
        let mut jumps = Vec::new();
        let mut ptr = chain.head;
        for _ in 0..chain.items {
            let next = c.arena().read_u64(ptr).unwrap();
            jumps.push(ptr.abs_diff(next) / ITEM);
            ptr = next;
        }
        jumps.sort_unstable();
        let median = jumps[jumps.len() / 2];
        assert!(median > 64, "median jump {median} lines is too local");
    }

    #[test]
    fn backward_pointers_mirror_forward() {
        let mut c = cpu();
        let chain = ListChain::permuted(&mut c, 64 * 1024, 16, 7).unwrap();
        let mut ptr = chain.head;
        for _ in 0..chain.items {
            let next = c.arena().read_u64(ptr).unwrap();
            let back = c.arena().read_u64(next + 8).unwrap();
            assert_eq!(back, ptr);
            ptr = next;
        }
    }

    #[test]
    fn l1d_resident_chain_only_hits_l1d_after_warmup() {
        let mut c = cpu();
        let chain = ListChain::sequential(&mut c, 31 * 1024).unwrap();
        chain.traverse(&mut c, 1).unwrap(); // warm
        let m = c.measure(|c| chain.traverse(c, 4).unwrap());
        let miss = m.pmu.l1d_miss_rate().unwrap();
        assert!(miss < 0.001, "L1D-resident chain missed {miss}");
    }

    #[test]
    fn permuted_l2_chain_misses_l1d_and_hits_l2() {
        let mut c = cpu();
        // 240 KB: as close to L1D+L2 capacity as fits an inclusive L2 (the
        // paper's 260 KB relies on Haswell's non-inclusive L2).
        let chain = ListChain::permuted(&mut c, 240 * 1024, 64, 1).unwrap();
        chain.traverse(&mut c, 1).unwrap();
        let m = c.measure(|c| chain.traverse(c, 2).unwrap());
        assert!(
            m.pmu.l1d_miss_rate().unwrap() > 0.95,
            "l1 miss {:?}",
            m.pmu.l1d_miss_rate()
        );
        assert!(
            m.pmu.l2_miss_rate().unwrap() < 0.05,
            "l2 miss {:?}",
            m.pmu.l2_miss_rate()
        );
    }

    #[test]
    fn array_traversal_has_no_stalls_when_l1_resident() {
        let mut c = cpu();
        let arr = ArrayBuf::new(&mut c, 31 * 1024).unwrap();
        arr.traverse(&mut c, 1);
        let m = c.measure(|c| arr.traverse(c, 4));
        assert_eq!(m.pmu.get(Event::StallCycles), 0);
        assert!(m.pmu.ipc() > 1.9);
    }
}
