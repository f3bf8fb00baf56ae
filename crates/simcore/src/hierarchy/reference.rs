//! The scalar hierarchy walk: the oracle for the fused walk.
//!
//! [`Hierarchy::load`] and [`Hierarchy::store`] walk the stack the plain
//! way: one lookup per level, then the fills on the way back, each fill
//! rippling its dirty victim one level down, and the prefetcher's
//! proposals probed and pulled one by one. The fused walk in
//! `hierarchy.rs` must leave the PMU, every cache set, the streamer and
//! the DRAM row register exactly as these do. Production never reaches
//! them: only the CPU's reference step walks them, and the hierarchy unit
//! tests compare the fused walk against them.

use super::{AccessResult, Hierarchy, HitLevel};
use crate::cache::Lookup;
use crate::pmu::{Event, Pmu};

impl Hierarchy {
    /// Insert a line into L1D, rippling dirty evictions downward.
    fn fill_l1(&mut self, line: u64, dirty: bool, res: &mut AccessResult, pmu: &mut Pmu) {
        let f = self.l1d.fill(line, dirty, false);
        if let Some(victim) = f.writeback {
            res.wb_l1 += 1;
            pmu.bump(Event::WritebackL1);
            if let Some(l2) = &mut self.l2 {
                let f2 = l2.fill(victim, true, false);
                if let Some(v2) = f2.writeback {
                    res.wb_l2 += 1;
                    pmu.bump(Event::WritebackL2);
                    if let Some(l3) = &mut self.l3 {
                        let f3 = l3.fill(v2, true, false);
                        if let Some(v3) = f3.writeback {
                            res.wb_l3 += 1;
                            pmu.bump(Event::WritebackL3);
                            self.dram_access(v3);
                        }
                    } else {
                        res.wb_l3 += 1;
                        pmu.bump(Event::WritebackL3);
                        self.dram_access(v2);
                    }
                }
            } else {
                // No L2 (ARM): dirty L1 victims go straight to DRAM.
                res.wb_l3 += 1;
                pmu.bump(Event::WritebackL3);
                self.dram_access(victim);
            }
        }
    }

    /// Insert a line into L2, rippling dirty evictions downward.
    fn fill_l2(&mut self, line: u64, prefetched: bool, res: &mut AccessResult, pmu: &mut Pmu) {
        if let Some(l2) = &mut self.l2 {
            let f = l2.fill(line, false, prefetched);
            if let Some(victim) = f.writeback {
                res.wb_l2 += 1;
                pmu.bump(Event::WritebackL2);
                if let Some(l3) = &mut self.l3 {
                    let f3 = l3.fill(victim, true, false);
                    if let Some(v3) = f3.writeback {
                        res.wb_l3 += 1;
                        pmu.bump(Event::WritebackL3);
                        self.dram_access(v3);
                    }
                } else {
                    res.wb_l3 += 1;
                    pmu.bump(Event::WritebackL3);
                    self.dram_access(victim);
                }
            }
        }
    }

    /// Run the streamer for a demand access that reached L2, fetching the
    /// proposed lines into L2/L3.
    fn run_prefetcher(&mut self, line: u64, res: &mut AccessResult, pmu: &mut Pmu) {
        if !self.prefetch_enabled || self.l2.is_none() {
            return;
        }
        let proposals = self.streamer.on_l2_access(line);
        if proposals.is_empty() {
            return;
        }
        // Near lines: into L2 (from L3; from DRAM via L3 if absent there).
        for &p in proposals.l2() {
            let in_l2 = self.l2.as_ref().is_some_and(|c| c.probe(p));
            if in_l2 {
                continue;
            }
            let in_l3 = self.l3.as_ref().is_some_and(|c| c.probe(p));
            if !in_l3 {
                // Pull DRAM→L3 first: that is an L3 prefetch.
                let row_hit = self.dram_access(p);
                if let Some(l3) = &mut self.l3 {
                    l3.fill(p, false, true);
                }
                res.pf_l3 += 1;
                if row_hit {
                    res.pf_l3_row_hits += 1;
                }
                pmu.bump(Event::PrefetchL3);
            }
            self.fill_l2(p, true, res, pmu);
            res.pf_l2 += 1;
            pmu.bump(Event::PrefetchL2);
        }
        // Far lines: into L3 only.
        for &p in proposals.l3() {
            let resident = self.l2.as_ref().is_some_and(|c| c.probe(p))
                || self.l3.as_ref().is_some_and(|c| c.probe(p));
            if resident {
                continue;
            }
            let row_hit = self.dram_access(p);
            if let Some(l3) = &mut self.l3 {
                l3.fill(p, false, true);
            }
            res.pf_l3 += 1;
            if row_hit {
                res.pf_l3_row_hits += 1;
            }
            pmu.bump(Event::PrefetchL3);
        }
    }

    /// Simulate one demand load of the line containing `addr`.
    pub fn load(&mut self, addr: u64, pmu: &mut Pmu) -> AccessResult {
        let mut res = AccessResult::default();
        if addr < self.tcm_limit {
            pmu.bump(Event::TcmLoad);
            res.level = Some(HitLevel::Tcm);
            return res;
        }
        let line = addr & !(crate::LINE - 1);
        pmu.bump(Event::LoadIssued);

        if matches!(self.l1d.access(line, false), Lookup::Hit { .. }) {
            pmu.bump(Event::L1dLoadHit);
            res.level = Some(HitLevel::L1d);
            return res;
        }
        pmu.bump(Event::L1dLoadMiss);

        let Some(l2) = &mut self.l2 else {
            // ARM: straight to DRAM.
            pmu.bump(Event::L3Miss);
            res.dram_row_hit = self.dram_access(line);
            res.level = Some(HitLevel::Mem);
            self.fill_l1(line, false, &mut res, pmu);
            return res;
        };

        let l2_hit = matches!(l2.access(line, false), Lookup::Hit { .. });
        if l2_hit {
            pmu.bump(Event::L2Hit);
            res.level = Some(HitLevel::L2);
            self.run_prefetcher(line, &mut res, pmu);
            self.fill_l1(line, false, &mut res, pmu);
            return res;
        }
        pmu.bump(Event::L2Miss);
        self.run_prefetcher(line, &mut res, pmu);

        let l3_hit = self
            .l3
            .as_mut()
            .map(|l3| matches!(l3.access(line, false), Lookup::Hit { .. }))
            .unwrap_or(false);
        if l3_hit {
            pmu.bump(Event::L3Hit);
            res.level = Some(HitLevel::L3);
        } else {
            pmu.bump(Event::L3Miss);
            res.dram_row_hit = self.dram_access(line);
            res.level = Some(HitLevel::Mem);
            if let Some(l3) = &mut self.l3 {
                l3.fill(line, false, false);
            }
        }
        self.fill_l2(line, false, &mut res, pmu);
        self.fill_l1(line, false, &mut res, pmu);
        res
    }

    /// Simulate one store to the line containing `addr`.
    ///
    /// Returns `(result, allocated)`: `allocated` is `Some(level)` when the
    /// store missed L1D and a write-allocate fill was serviced at `level`.
    pub fn store(&mut self, addr: u64, pmu: &mut Pmu) -> (AccessResult, Option<HitLevel>) {
        let mut res = AccessResult::default();
        if addr < self.tcm_limit {
            pmu.bump(Event::TcmStore);
            res.level = Some(HitLevel::Tcm);
            return (res, None);
        }
        let line = addr & !(crate::LINE - 1);
        pmu.bump(Event::StoreIssued);

        if matches!(self.l1d.access(line, true), Lookup::Hit { .. }) {
            pmu.bump(Event::L1dStoreHit);
            res.level = Some(HitLevel::L1d);
            return (res, None);
        }
        pmu.bump(Event::L1dStoreMiss);
        // Write-allocate: fetch the line like a load, then dirty it. The
        // fetch shows up in the demand counters, as on real parts.
        let mut fill = self.load_for_allocate(line, pmu, &mut res);
        // The line is now in L1D; dirty it.
        self.l1d.access(line, true);
        if fill == Some(HitLevel::L1d) {
            // Degenerate: fill found it already in L1D (racing prefetch).
            fill = None;
        }
        (res, fill)
    }

    /// Load path used by write-allocate (no separate LoadIssued count — the
    /// L1dStoreMiss already recorded the demand).
    fn load_for_allocate(
        &mut self,
        line: u64,
        pmu: &mut Pmu,
        res: &mut AccessResult,
    ) -> Option<HitLevel> {
        let Some(l2) = &mut self.l2 else {
            pmu.bump(Event::L3Miss);
            res.dram_row_hit = self.dram_access(line);
            self.fill_l1(line, true, res, pmu);
            return Some(HitLevel::Mem);
        };
        if matches!(l2.access(line, false), Lookup::Hit { .. }) {
            pmu.bump(Event::L2Hit);
            self.fill_l1(line, true, res, pmu);
            return Some(HitLevel::L2);
        }
        pmu.bump(Event::L2Miss);
        let l3_hit = self
            .l3
            .as_mut()
            .map(|l3| matches!(l3.access(line, false), Lookup::Hit { .. }))
            .unwrap_or(false);
        let level = if l3_hit {
            pmu.bump(Event::L3Hit);
            HitLevel::L3
        } else {
            pmu.bump(Event::L3Miss);
            res.dram_row_hit = self.dram_access(line);
            if let Some(l3) = &mut self.l3 {
                l3.fill(line, false, false);
            }
            HitLevel::Mem
        };
        self.fill_l2(line, false, res, pmu);
        self.fill_l1(line, true, res, pmu);
        Some(level)
    }
}
