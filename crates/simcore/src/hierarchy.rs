//! The memory hierarchy: TCM window, L1D, L2, L3, DRAM.
//!
//! Implements the paper's "step-by-step replication strategy" (§2.3, Fig. 2):
//! a load that misses L1D searches L2, then L3, then DRAM, and the line is
//! copied into every level it passed on the way back. Stores are write-back /
//! write-allocate, so read-only query workloads still generate L1D store
//! traffic for temporaries (§3.2) and dirty lines ripple down on eviction.
//!
//! Production walks the stack through the fused walk below
//! ([`Hierarchy::load_fused`], [`Hierarchy::store_fused`] and their
//! stages). The scalar walk ([`Hierarchy::load`], [`Hierarchy::store`]) is
//! the oracle it must match, in `hierarchy/reference.rs`.

mod reference;

use crate::arch::ArchConfig;
use crate::cache::{Cache, Fill};
use crate::pmu::{Event, Pmu};
use crate::prefetch::{RunCursor, Streamer, FAR, NEAR};

/// Where a demand access was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Tightly coupled memory (fixed-address on-chip SRAM).
    Tcm,
    /// L1 data cache.
    L1d,
    /// Unified L2.
    L2,
    /// Last-level cache.
    L3,
    /// DRAM.
    Mem,
}

/// Everything the CPU needs to charge time and energy for one access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessResult {
    /// Servicing level (L1d when a store hits).
    pub level: Option<HitLevel>,
    /// Whether the DRAM access (if any) hit the open row buffer.
    pub dram_row_hit: bool,
    /// Lines prefetched into L2 as a side effect.
    pub pf_l2: u32,
    /// Lines prefetched into L3 as a side effect.
    pub pf_l3: u32,
    /// Of the L3 prefetches, how many hit the open DRAM row.
    pub pf_l3_row_hits: u32,
    /// Dirty evictions L1→L2 triggered by this access.
    pub wb_l1: u32,
    /// Dirty evictions L2→L3.
    pub wb_l2: u32,
    /// Dirty evictions L3→DRAM.
    pub wb_l3: u32,
}

/// Per-run context threaded through the fused cold-run/chase walks: the
/// streamer cursor for O(1) ascending continuation, plus one-sided residency
/// *knowledge windows* that elide prefetch-target probes the walk has
/// already proven.
///
/// Soundness contract: with `ln` the current demand line number, every line
/// number in the open interval `(ln, k2)` is L2-resident and every one in
/// `(ln, k3)` is L3-resident. The windows only ever claim residency, never
/// absence — a probe elided via the window would have *hit*, and a scalar
/// probe hit changes no state, so eliding it is exact. The windows extend
/// only at their contiguous upper edge when residency is proven (a probe
/// hit or a fill just performed) and clamp down on **every** eviction from
/// the level inside the window, so the claim can never go stale.
pub struct ColdCtx {
    cursor: Option<RunCursor>,
    /// Exclusive upper edge of the proven-L2-resident window.
    k2: u64,
    /// Exclusive upper edge of the proven-L3-resident window.
    k3: u64,
}

impl ColdCtx {
    fn knows_l2(&self, ln: u64, p: u64) -> bool {
        p > ln && p < self.k2
    }

    fn knows_l3(&self, ln: u64, p: u64) -> bool {
        p > ln && p < self.k3
    }

    /// Extend the L2 window after proving line `p` L2-resident. Only a
    /// contiguous extension is sound: anything else would sweep unproven
    /// lines into the window.
    fn extend_l2(&mut self, ln: u64, p: u64) {
        if p == self.k2.max(ln + 1) {
            self.k2 = p + 1;
        }
    }

    fn extend_l3(&mut self, ln: u64, p: u64) {
        if p == self.k3.max(ln + 1) {
            self.k3 = p + 1;
        }
    }

    /// An L2 fill displaced a victim: drop it (and everything above it —
    /// the window is an interval) from the L2 window.
    fn note_fill_l2(&mut self, ln: u64, f: &Fill) {
        if let Some(v) = f.writeback.or(f.evicted) {
            let v = v / crate::LINE;
            if v > ln && v < self.k2 {
                self.k2 = v;
            }
        }
    }

    fn note_fill_l3(&mut self, ln: u64, f: &Fill) {
        if let Some(v) = f.writeback.or(f.evicted) {
            let v = v / crate::LINE;
            if v > ln && v < self.k3 {
                self.k3 = v;
            }
        }
    }
}

/// The cache/DRAM stack for one core.
pub struct Hierarchy {
    l1d: Cache,
    l2: Option<Cache>,
    l3: Option<Cache>,
    streamer: Streamer,
    prefetch_enabled: bool,
    /// TCM window: addresses below this bypass the cache stack entirely.
    tcm_limit: u64,
    /// Open DRAM row (addr >> 13: 8 KB rows), or `u64::MAX` when none.
    open_row: u64,
    /// Whether the fused load may reuse the L2 victim computed at L2-miss
    /// time for the later demand fill: requires that the prefetch pulls in
    /// between (at most 6 lines ahead of the demand line) land in *other*
    /// L2 sets, i.e. at least 8 sets.
    l2_victim_gap_ok: bool,
}

const ROW_SHIFT: u32 = 13;

/// PMU counts of `n` L1D demand hits, as `n` scalar hits bump them.
#[inline]
fn count_l1_hits(pmu: &mut Pmu, write: bool, n: u64) {
    if write {
        pmu.add(Event::StoreIssued, n);
        pmu.add(Event::L1dStoreHit, n);
    } else {
        pmu.add(Event::LoadIssued, n);
        pmu.add(Event::L1dLoadHit, n);
    }
}

impl Hierarchy {
    /// Build the stack described by `arch`.
    pub fn new(arch: &ArchConfig) -> Self {
        let l2 = arch.l2.as_ref().map(Cache::new);
        Hierarchy {
            l1d: Cache::new(&arch.l1d),
            l2_victim_gap_ok: l2.as_ref().is_some_and(|c| c.sets() >= 8),
            l2,
            l3: arch.l3.as_ref().map(Cache::new),
            streamer: Streamer::new(),
            prefetch_enabled: true,
            tcm_limit: arch.dtcm_size,
            open_row: u64::MAX,
        }
    }

    /// Fresh, knowledge-free context for one fused run.
    pub fn cold_ctx(&self) -> ColdCtx {
        ColdCtx {
            cursor: None,
            k2: 0,
            k3: 0,
        }
    }

    /// Host-CPU prefetch of the set slices a demand walk of `line` will
    /// scan (see [`Cache::prefetch_set`]): issued early so the simulator's
    /// own L2/L3 tables arrive while the caller still runs charge
    /// arithmetic. No simulated state is touched.
    #[inline]
    pub fn prefetch_sets(&self, line: u64) {
        if let Some(l2) = &self.l2 {
            l2.prefetch_set(line);
            l2.prefetch_hint(line);
        }
        if let Some(l3) = &self.l3 {
            l3.prefetch_set(line);
            l3.prefetch_hint(line);
        }
    }

    /// Host-side bytes backing the whole stack's simulated cache metadata
    /// (compacted tag arrays + rank words + way-hint shadow tables, summed
    /// over every level — see [`Cache::footprint_bytes`]). Pure geometry,
    /// so the value is identical for every machine of one architecture.
    pub fn footprint_bytes(&self) -> u64 {
        self.l1d.footprint_bytes()
            + self.l2.as_ref().map_or(0, Cache::footprint_bytes)
            + self.l3.as_ref().map_or(0, Cache::footprint_bytes)
    }

    /// Enable/disable the hardware prefetcher (§2.5.3 turns it off for the
    /// micro-benchmarks and on for the query workloads).
    pub fn set_prefetch(&mut self, on: bool) {
        self.prefetch_enabled = on;
        if !on {
            self.streamer.reset();
        }
    }

    /// Whether the prefetcher is currently enabled.
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch_enabled
    }

    /// Addresses below this bypass the cache stack (the TCM window).
    pub fn tcm_limit(&self) -> u64 {
        self.tcm_limit
    }

    /// Fast path: demand-access up to `max_lines` sequential (non-TCM) lines
    /// starting at `first_line`, stopping at the first L1D miss. Returns the
    /// hit count; each counted line is PMU- and state-identical to a scalar
    /// [`Hierarchy::load`]/[`Hierarchy::store`] that hits L1D (hits never
    /// reach the prefetcher, DRAM row state, or lower levels).
    pub fn l1_hit_run(
        &mut self,
        first_line: u64,
        max_lines: u64,
        write: bool,
        pmu: &mut Pmu,
    ) -> u64 {
        let k = self.l1d.access_run(first_line, max_lines, write);
        count_l1_hits(pmu, write, k);
        k
    }

    /// Fast path: `n` repeated demand accesses to one resident (non-TCM)
    /// line, in O(1). Returns `false` (no state or PMU change) when the line
    /// is not L1D-resident and the caller must step the accesses one at a
    /// time.
    pub fn l1_repeat(&mut self, line: u64, n: u64, write: bool, pmu: &mut Pmu) -> bool {
        if !self.l1d.access_repeat(line, n, write) {
            return false;
        }
        count_l1_hits(pmu, write, n);
        true
    }

    /// Drop all cached state (between independent measurement runs).
    pub fn flush(&mut self) {
        self.l1d.flush();
        if let Some(c) = &mut self.l2 {
            c.flush();
        }
        if let Some(c) = &mut self.l3 {
            c.flush();
        }
        self.streamer.reset();
        self.open_row = u64::MAX;
    }

    #[inline]
    fn dram_access(&mut self, line_addr: u64) -> bool {
        let row = line_addr >> ROW_SHIFT;
        let hit = row == self.open_row;
        self.open_row = row;
        hit
    }

    /// Fused demand load, the production load walk: it leaves the PMU and
    /// every piece of state as the oracle [`Hierarchy::load`] does — same
    /// PMU order, same LRU promotions, same fills, same DRAM row
    /// transitions — but each cache set is scanned once (the scalar
    /// access-then-fill pair scans twice) and `ctx`'s knowledge windows
    /// elide prefetch-target probes that would provably hit.
    ///
    /// `line` must be line-aligned and at or above the TCM limit (the caller
    /// owns the TCM split). L1/L2 victim ways are precomputed at miss time;
    /// that is sound because nothing between the miss scan and the install
    /// touches the same set: the intervening work hits only lower levels,
    /// the streamer and the DRAM row register, and — for L2, where prefetch
    /// pulls *do* fill L2 — the pulls land at most 6 lines ahead, which the
    /// `l2_victim_gap_ok` geometry gate keeps in other sets.
    pub fn load_fused(&mut self, line: u64, ctx: &mut ColdCtx, pmu: &mut Pmu) -> AccessResult {
        debug_assert!(line >= self.tcm_limit && line.is_multiple_of(crate::LINE));
        let mut res = AccessResult::default();
        pmu.bump(Event::LoadIssued);
        let l1_victim = match self.l1d.find_or_victim(line) {
            Ok(w) => {
                self.l1d.touch_way(w, false);
                pmu.bump(Event::L1dLoadHit);
                res.level = Some(HitLevel::L1d);
                return res;
            }
            Err(v) => v,
        };
        pmu.bump(Event::L1dLoadMiss);
        let ln = line / crate::LINE;

        let Some(l2) = self.l2.as_mut() else {
            // ARM: straight to DRAM.
            pmu.bump(Event::L3Miss);
            res.dram_row_hit = self.dram_access(line);
            res.level = Some(HitLevel::Mem);
            self.fill_l1_at(line, l1_victim, false, ln, ctx, &mut res, pmu);
            return res;
        };
        let l2_victim = match l2.find_or_victim(line) {
            Ok(w) => {
                l2.touch_way(w, false);
                pmu.bump(Event::L2Hit);
                res.level = Some(HitLevel::L2);
                self.prefetch_fused(line, ln, ctx, &mut res, pmu);
                self.fill_l1_at(line, l1_victim, false, ln, ctx, &mut res, pmu);
                return res;
            }
            Err(v) => v,
        };
        pmu.bump(Event::L2Miss);
        let l2_victim = self.l2_victim_gap_ok.then_some(l2_victim);
        self.prefetch_fused(line, ln, ctx, &mut res, pmu);
        let level = self.demand_below_l2(line, ln, ctx, &mut res, pmu);
        res.level = Some(level);
        self.fill_l2_fused(line, false, l2_victim, ln, ctx, &mut res, pmu);
        self.fill_l1_at(line, l1_victim, false, ln, ctx, &mut res, pmu);
        res
    }

    /// Fused demand store, the production store walk: state-identical to
    /// the oracle [`Hierarchy::store`], with the same single-scan-per-set
    /// treatment as [`Hierarchy::load_fused`]. The caller owns the TCM
    /// split.
    pub fn store_fused(
        &mut self,
        line: u64,
        ctx: &mut ColdCtx,
        pmu: &mut Pmu,
    ) -> (AccessResult, Option<HitLevel>) {
        debug_assert!(line >= self.tcm_limit && line.is_multiple_of(crate::LINE));
        let mut res = AccessResult::default();
        pmu.bump(Event::StoreIssued);
        let l1_victim = match self.l1d.find_or_victim(line) {
            Ok(w) => {
                self.l1d.touch_way(w, true);
                pmu.bump(Event::L1dStoreHit);
                res.level = Some(HitLevel::L1d);
                return (res, None);
            }
            Err(v) => v,
        };
        pmu.bump(Event::L1dStoreMiss);
        let ln = line / crate::LINE;
        let mut fill = self.load_for_allocate_fused(line, l1_victim, ln, ctx, &mut res, pmu);
        // The line now sits at the precomputed L1 way; the oracle's
        // extra dirtying `access` is a hit there.
        self.l1d.touch_way(l1_victim, true);
        if fill == Some(HitLevel::L1d) {
            fill = None;
        }
        (res, fill)
    }

    /// The write-allocate fetch of [`Hierarchy::store_fused`] (the oracle's
    /// `load_for_allocate`, fused). No prefetcher here, matching the
    /// oracle — which also means the L2 victim precompute needs no
    /// geometry gate (only L3/DRAM state changes between scan and install).
    fn load_for_allocate_fused(
        &mut self,
        line: u64,
        l1_victim: usize,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) -> Option<HitLevel> {
        let Some(l2) = self.l2.as_mut() else {
            pmu.bump(Event::L3Miss);
            res.dram_row_hit = self.dram_access(line);
            self.fill_l1_at(line, l1_victim, true, ln, ctx, res, pmu);
            return Some(HitLevel::Mem);
        };
        let l2_victim = match l2.find_or_victim(line) {
            Ok(w) => {
                l2.touch_way(w, false);
                pmu.bump(Event::L2Hit);
                self.fill_l1_at(line, l1_victim, true, ln, ctx, res, pmu);
                return Some(HitLevel::L2);
            }
            Err(v) => v,
        };
        pmu.bump(Event::L2Miss);
        let level = self.demand_below_l2(line, ln, ctx, res, pmu);
        self.fill_l2_fused(line, false, Some(l2_victim), ln, ctx, res, pmu);
        self.fill_l1_at(line, l1_victim, true, ln, ctx, res, pmu);
        Some(level)
    }

    /// The L2-miss stage of both fused demand walks: an L3 lookup, else a
    /// DRAM access with the line installed into L3 (when there is one).
    /// Returns the servicing level.
    #[inline(always)] // per-line hot path; LLVM outlines it otherwise
    fn demand_below_l2(
        &mut self,
        line: u64,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) -> HitLevel {
        if let Some(l3) = self.l3.as_mut() {
            match l3.find_or_victim(line) {
                Ok(w) => {
                    l3.touch_way(w, false);
                    pmu.bump(Event::L3Hit);
                    return HitLevel::L3;
                }
                Err(v3) => {
                    // The scalar path drops this Fill (demand L3 fills never
                    // report writebacks) — but the eviction is real, so the
                    // knowledge window must still see it.
                    let f3 = l3.install_at(line, v3, false, false);
                    ctx.note_fill_l3(ln, &f3);
                }
            }
        }
        pmu.bump(Event::L3Miss);
        res.dram_row_hit = self.dram_access(line);
        HitLevel::Mem
    }

    /// The oracle's `fill_l1` with the victim way precomputed by the fused
    /// walk (nothing between the demand scan and this install touches the
    /// L1 set).
    #[allow(clippy::too_many_arguments)] // internal fused-walk plumbing
    fn fill_l1_at(
        &mut self,
        line: u64,
        way: usize,
        dirty: bool,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) {
        let Some(victim) = self.l1d.install_at(line, way, dirty, false).writeback else {
            return;
        };
        res.wb_l1 += 1;
        pmu.bump(Event::WritebackL1);
        match self.l2.as_mut() {
            Some(l2) => {
                let f2 = l2.fill(victim, true, false);
                self.ripple_l2_fill(f2, ln, ctx, res, pmu);
            }
            // No L2 (ARM): dirty L1 victims go straight to DRAM.
            None => self.writeback_to_dram(victim, res, pmu),
        }
    }

    /// The oracle's `fill_l2` with knowledge clamping and an optional
    /// precomputed victim way.
    #[allow(clippy::too_many_arguments)] // internal fused-walk plumbing
    fn fill_l2_fused(
        &mut self,
        line: u64,
        prefetched: bool,
        victim_way: Option<usize>,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) {
        let Some(l2) = self.l2.as_mut() else { return };
        let f = match victim_way {
            Some(w) => l2.install_at(line, w, false, prefetched),
            None => l2.fill(line, false, prefetched),
        };
        self.ripple_l2_fill(f, ln, ctx, res, pmu);
    }

    /// The aftermath of any fused-walk L2 fill, demand or writeback: clamp
    /// the L2 knowledge window on the eviction, and ripple a dirty victim
    /// into L3 (clamping that window too) or, without an L3, into DRAM.
    fn ripple_l2_fill(
        &mut self,
        f: Fill,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) {
        ctx.note_fill_l2(ln, &f);
        let Some(victim) = f.writeback else { return };
        res.wb_l2 += 1;
        pmu.bump(Event::WritebackL2);
        let spill = match self.l3.as_mut() {
            Some(l3) => {
                let f3 = l3.fill(victim, true, false);
                ctx.note_fill_l3(ln, &f3);
                f3.writeback
            }
            None => Some(victim),
        };
        if let Some(v) = spill {
            self.writeback_to_dram(v, res, pmu);
        }
    }

    /// A dirty last-level victim written back to DRAM.
    fn writeback_to_dram(&mut self, victim: u64, res: &mut AccessResult, pmu: &mut Pmu) {
        res.wb_l3 += 1;
        pmu.bump(Event::WritebackL3);
        self.dram_access(victim);
    }

    /// The oracle's `run_prefetcher` for the fused walk: the streamer is
    /// driven through the run cursor (O(1) per ascending line) and the
    /// knowledge windows elide probes of already-proven prefetch targets.
    fn prefetch_fused(
        &mut self,
        line: u64,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) {
        if !self.prefetch_enabled || self.l2.is_none() {
            return;
        }
        // Steady-state fast branch: once a trained ascending stream has the
        // knowledge frontiers at exactly `ln + NEAR` / `ln + NEAR + FAR`,
        // every step's proposal window collapses to two frontier pulls —
        // `ln+1` sits inside the proven-L2 window and `ln+NEAR+1 ..` up to
        // (but excluding) the far frontier inside the proven-L3 window. The
        // streamer step, the checks below and both pulls replicate the
        // general path's work for this exact state, so the walk stays
        // bit-identical while skipping the `Proposals` materialisation and
        // the statically-skippable window probes. Any deviation (clamped
        // window, page edge, retraining stream) fails the guards and falls
        // through to the general path with no state touched.
        if ctx.k2 == ln + NEAR && ctx.k3 == ln + NEAR + FAR {
            let stepped = match &mut ctx.cursor {
                Some(cur) if cur.continues(ln) => self.streamer.steady_ascending(cur, line),
                _ => false,
            };
            if stepped {
                // Host-side: start pulling the L3 set the far frontier will
                // reach ~16 lines from now. The walk streams 256B per line
                // out of the (multi-MB) L3 way array, which outruns the
                // host's own prefetchers on shared vCPUs; an explicit
                // lookahead touch hides that latency. No simulated state.
                if let Some(l3) = &self.l3 {
                    l3.prefetch_set((ln + NEAR + FAR + 16) * crate::LINE);
                }
                // Near frontier: pull `ln + NEAR` into L2. Its `knows_l3`
                // check is statically true (`ln+NEAR < k3`) and nothing
                // between the guard and here can clamp `k3`, so the L3 stage
                // of the general near pull is provably skipped.
                let p2 = (ln + NEAR) * crate::LINE;
                let l2 = self.l2.as_mut().expect("checked above");
                match l2.find_or_victim_cold(p2) {
                    Ok(_) => ctx.extend_l2(ln, ln + NEAR),
                    Err(vw2) => self.pull_l2(p2, vw2, ln, ctx, res, pmu),
                }
                // Far lines: same effect as the general path's far loop. When
                // `k3` still reads `ln + NEAR + FAR` (the near pull above
                // never touches L3, so in practice always), every target
                // strictly inside the window satisfies `knows_l3` and its
                // `pull_far` would return before touching any state — elide
                // those calls and drive only the frontier line. If `k3` ever
                // moved, fall back to the full loop so the knowledge checks
                // re-run for every target exactly as the general path would.
                if ctx.k3 == ln + NEAR + FAR {
                    self.pull_far((ln + NEAR + FAR) * crate::LINE, ln, ctx, res, pmu);
                } else {
                    for pn in (ln + NEAR + 1)..=(ln + NEAR + FAR) {
                        self.pull_far(pn * crate::LINE, ln, ctx, res, pmu);
                    }
                }
                return;
            }
        }
        let proposals = match &mut ctx.cursor {
            Some(cur) if cur.continues(ln) => self.streamer.step_ascending(cur, line),
            _ => {
                let (p, cur) = self.streamer.begin_run(line);
                ctx.cursor = Some(cur);
                p
            }
        };
        if proposals.is_empty() {
            return;
        }
        // Near lines: into L2 (from L3; from DRAM via L3 if absent there).
        for &p in proposals.l2() {
            let pn = p / crate::LINE;
            if ctx.knows_l2(ln, pn) {
                continue;
            }
            let l2 = self.l2.as_mut().expect("checked above");
            let vw2 = match l2.find_or_victim(p) {
                Ok(_) => {
                    ctx.extend_l2(ln, pn);
                    continue;
                }
                Err(v) => v,
            };
            if !ctx.knows_l3(ln, pn) {
                let found = self.l3.as_ref().map(|c| c.find_or_victim(p));
                self.pull_l3(p, found, ln, ctx, res, pmu);
            }
            // The pull target is absent in L2 and nothing since the scan
            // touched its set (the L3 pull is a different level): install at
            // the precomputed victim.
            self.pull_l2(p, vw2, ln, ctx, res, pmu);
        }
        // Far lines: into L3 only.
        for &p in proposals.l3() {
            self.pull_far(p, ln, ctx, res, pmu);
        }
    }

    /// One near-window prefetch pull into L2 at the victim way `vw2` found
    /// by the caller's scan (the target is absent and its set untouched
    /// since).
    #[inline(always)] // per-line hot path; LLVM outlines it otherwise
    fn pull_l2(
        &mut self,
        p: u64,
        vw2: usize,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) {
        self.fill_l2_fused(p, true, Some(vw2), ln, ctx, res, pmu);
        ctx.extend_l2(ln, p / crate::LINE);
        res.pf_l2 += 1;
        pmu.bump(Event::PrefetchL2);
    }

    /// One far-window prefetch pull (into L3 only): the body of the far loop
    /// of [`Hierarchy::prefetch_fused`], shared with its steady-state branch.
    fn pull_far(
        &mut self,
        p: u64,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) {
        let pn = p / crate::LINE;
        if ctx.knows_l2(ln, pn) || ctx.knows_l3(ln, pn) {
            return;
        }
        if self.l2.as_ref().is_some_and(|c| c.probe(p)) {
            ctx.extend_l2(ln, pn);
            return;
        }
        let found = self.l3.as_ref().map(|c| c.find_or_victim_cold(p));
        self.pull_l3(p, found, ln, ctx, res, pmu);
    }

    /// The DRAM→L3 stage of a prefetch pull, given the target's L3 lookup
    /// (`None` without an L3): an L3 hit only extends the L3 window;
    /// otherwise the line is read from DRAM, installed at the looked-up
    /// victim, and counted as an L3 prefetch.
    #[inline(always)] // per-line hot path; LLVM outlines it otherwise
    fn pull_l3(
        &mut self,
        p: u64,
        found: Option<Result<usize, usize>>,
        ln: u64,
        ctx: &mut ColdCtx,
        res: &mut AccessResult,
        pmu: &mut Pmu,
    ) {
        let pn = p / crate::LINE;
        if matches!(found, Some(Ok(_))) {
            ctx.extend_l3(ln, pn);
            return;
        }
        let row_hit = self.dram_access(p);
        if let Some(Err(v3)) = found {
            let l3 = self.l3.as_mut().expect("looked up");
            let f3 = l3.install_at(p, v3, false, true);
            ctx.note_fill_l3(ln, &f3);
            ctx.extend_l3(ln, pn);
        }
        res.pf_l3 += 1;
        res.pf_l3_row_hits += row_hit as u32;
        pmu.bump(Event::PrefetchL3);
    }

    /// Latency in cycles of a load serviced at `level`, at frequency `hz`.
    pub fn latency_cycles(&self, arch: &ArchConfig, level: HitLevel, hz: f64) -> f64 {
        match level {
            // TCM is "as fast as L1 cache" (ARM1176JZF-S TRM) — its win is
            // energy and *miss avoidance* (fixed physical address), not raw
            // latency.
            HitLevel::Tcm => arch.l1d.latency_cycles as f64,
            HitLevel::L1d => arch.l1d.latency_cycles as f64,
            HitLevel::L2 => arch.l2.map(|c| c.latency_cycles as f64).unwrap_or(4.0),
            HitLevel::L3 => arch.l3.map(|c| c.latency_cycles as f64).unwrap_or(12.0),
            HitLevel::Mem => {
                let base = arch
                    .l3
                    .map(|c| c.latency_cycles as f64)
                    .or_else(|| arch.l2.map(|c| c.latency_cycles as f64))
                    .unwrap_or(arch.l1d.latency_cycles as f64);
                base + arch.dram_latency_cycles(hz)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ArchConfig;

    fn h() -> (Hierarchy, Pmu) {
        let arch = ArchConfig::intel_i7_4790();
        let mut h = Hierarchy::new(&arch);
        h.set_prefetch(false);
        (h, Pmu::new())
    }

    const BASE: u64 = crate::Arena::DRAM_BASE;

    #[test]
    fn first_touch_misses_to_dram_then_hits_l1() {
        let (mut h, mut pmu) = h();
        let r = h.load(BASE, &mut pmu);
        assert_eq!(r.level, Some(HitLevel::Mem));
        let r2 = h.load(BASE + 8, &mut pmu);
        assert_eq!(r2.level, Some(HitLevel::L1d));
        assert_eq!(pmu.get(Event::LoadIssued), 2);
        assert_eq!(pmu.get(Event::L1dLoadHit), 1);
        assert_eq!(pmu.get(Event::L3Miss), 1);
    }

    #[test]
    fn step_by_step_replication_places_line_in_every_level() {
        let (mut h, mut pmu) = h();
        h.load(BASE, &mut pmu);
        // Evict from L1D by filling its set: L1D has 64 sets * 8 ways; lines
        // mapping to set 0 are 64 lines (4KB) apart.
        for i in 1..=8u64 {
            h.load(BASE + i * 4096, &mut pmu);
        }
        // Line 0 fell out of L1D but must still be in L2.
        let r = h.load(BASE, &mut pmu);
        assert_eq!(r.level, Some(HitLevel::L2));
    }

    #[test]
    fn store_hits_after_load_and_counts_store_hit() {
        let (mut h, mut pmu) = h();
        h.load(BASE, &mut pmu);
        let (r, alloc) = h.store(BASE + 16, &mut pmu);
        assert_eq!(r.level, Some(HitLevel::L1d));
        assert!(alloc.is_none());
        assert_eq!(pmu.get(Event::L1dStoreHit), 1);
    }

    #[test]
    fn store_miss_write_allocates() {
        let (mut h, mut pmu) = h();
        let (_, alloc) = h.store(BASE, &mut pmu);
        assert_eq!(alloc, Some(HitLevel::Mem));
        assert_eq!(pmu.get(Event::L1dStoreMiss), 1);
        // Now it hits.
        let (r, _) = h.store(BASE + 8, &mut pmu);
        assert_eq!(r.level, Some(HitLevel::L1d));
    }

    #[test]
    fn dirty_eviction_ripples_writebacks() {
        let (mut h, mut pmu) = h();
        h.store(BASE, &mut pmu);
        // Evict the dirty line from L1D set 0.
        let mut saw_wb = false;
        for i in 1..=8u64 {
            let r = h.load(BASE + i * 4096, &mut pmu);
            saw_wb |= r.wb_l1 > 0;
        }
        assert!(saw_wb);
        assert!(pmu.get(Event::WritebackL1) >= 1);
    }

    #[test]
    fn tcm_bypasses_cache_counters() {
        let arch = ArchConfig::arm1176jzf_s();
        let mut h = Hierarchy::new(&arch);
        let mut pmu = Pmu::new();
        let r = h.load(0x100, &mut pmu);
        assert_eq!(r.level, Some(HitLevel::Tcm));
        assert_eq!(pmu.get(Event::LoadIssued), 0);
        assert_eq!(pmu.get(Event::TcmLoad), 1);
        let (r2, _) = h.store(0x140, &mut pmu);
        assert_eq!(r2.level, Some(HitLevel::Tcm));
        assert_eq!(pmu.get(Event::TcmStore), 1);
    }

    #[test]
    fn arm_misses_go_straight_to_dram() {
        let arch = ArchConfig::arm1176jzf_s();
        let mut h = Hierarchy::new(&arch);
        let mut pmu = Pmu::new();
        let r = h.load(BASE, &mut pmu);
        assert_eq!(r.level, Some(HitLevel::Mem));
        assert_eq!(pmu.get(Event::L2Hit) + pmu.get(Event::L2Miss), 0);
    }

    #[test]
    fn sequential_scan_with_prefetch_hits_l2_mostly() {
        let arch = ArchConfig::intel_i7_4790();
        let mut h = Hierarchy::new(&arch);
        h.set_prefetch(true);
        let mut pmu = Pmu::new();
        // Stream through 512 KB: far beyond L1D, so every line is an L1D
        // miss; the streamer should convert most DRAM hits into L2/L3 hits.
        let lines = 512 * 1024 / crate::LINE;
        for i in 0..lines {
            h.load(BASE + i * crate::LINE, &mut pmu);
        }
        assert!(pmu.get(Event::PrefetchL2) > 0, "streamer never fired");
        assert!(pmu.get(Event::PrefetchL3) > 0);
        let mem = pmu.get(Event::L3Miss);
        assert!(
            (mem as f64) < lines as f64 * 0.6,
            "prefetcher should absorb demand DRAM traffic: {mem}/{lines}"
        );
    }

    #[test]
    fn prefetch_disabled_means_no_pf_events() {
        let (mut h, mut pmu) = h();
        for i in 0..1024u64 {
            h.load(BASE + i * crate::LINE, &mut pmu);
        }
        assert_eq!(pmu.get(Event::PrefetchL2), 0);
        assert_eq!(pmu.get(Event::PrefetchL3), 0);
    }

    #[test]
    fn dram_row_hits_for_sequential_misses() {
        let (mut h, mut pmu) = h();
        let mut row_hits = 0;
        for i in 0..128u64 {
            let r = h.load(BASE + i * crate::LINE, &mut pmu);
            if r.dram_row_hit {
                row_hits += 1;
            }
        }
        // 8 KB rows = 128 lines; sequential lines mostly hit the open row.
        assert!(
            row_hits > 100,
            "expected row-buffer locality, got {row_hits}"
        );
    }

    /// The fused walks must be PMU- and state-identical to the scalar walks
    /// on adversarial op mixes: cold ascending runs (training + knowledge
    /// windows), re-scans (hits), random chases (cursor breaks), stores
    /// (write-allocate + dirty ripples) and descending runs (retraining).
    #[test]
    fn fused_walks_equal_scalar_walks() {
        for (arch, prefetch) in [
            (ArchConfig::intel_i7_4790(), true),
            (ArchConfig::intel_i7_4790(), false),
            (ArchConfig::arm1176jzf_s(), true),
        ] {
            let mut ha = Hierarchy::new(&arch);
            let mut hb = Hierarchy::new(&arch);
            ha.set_prefetch(prefetch);
            hb.set_prefetch(prefetch);
            let mut pa = Pmu::new();
            let mut pb = Pmu::new();
            let mut rng = 0x243F6A8885A308D3u64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            // Runs of (base, lines, write): each run drives one ColdCtx,
            // mirroring how the CPU uses the fused walk.
            for round in 0..60u64 {
                let r = next();
                let base = BASE + (r % 4096) * crate::LINE;
                let lines = 1 + (next() % 96);
                let write = round % 3 == 2;
                let chase = round % 5 == 4;
                let mut ctx = hb.cold_ctx();
                for i in 0..lines {
                    let addr = if chase {
                        BASE + (next() % 8192) * crate::LINE
                    } else {
                        base + i * crate::LINE
                    };
                    let (ra, rb) = if write {
                        let (ra, fa) = ha.store(addr, &mut pa);
                        let (rb, fb) = hb.store_fused(addr, &mut ctx, &mut pb);
                        assert_eq!(fa, fb, "allocate level diverged at {addr:#x}");
                        (ra, rb)
                    } else {
                        (
                            ha.load(addr, &mut pa),
                            hb.load_fused(addr, &mut ctx, &mut pb),
                        )
                    };
                    assert_eq!(ra, rb, "AccessResult diverged at {addr:#x} round {round}");
                    assert_eq!(
                        pa.snapshot(),
                        pb.snapshot(),
                        "PMU diverged at {addr:#x} round {round}"
                    );
                }
            }
            // Deep state comparison: residency, LRU order and dirtiness.
            assert_eq!(ha.open_row, hb.open_row);
            let stacks = [(&mut ha, &mut pa), (&mut hb, &mut pb)];
            let mut finals = Vec::new();
            for (h, pmu) in stacks {
                // A long scalar sweep exposes LRU order, dirtiness and
                // streamer state through the PMU.
                for i in 0..4096u64 {
                    h.load(BASE + i * crate::LINE, pmu);
                }
                finals.push(pmu.snapshot());
            }
            assert_eq!(finals[0], finals[1], "post-trace sweep diverged");
        }
    }

    #[test]
    fn latency_ordering() {
        let arch = ArchConfig::intel_i7_4790();
        let h = Hierarchy::new(&arch);
        let hz = 3.6e9;
        let l1 = h.latency_cycles(&arch, HitLevel::L1d, hz);
        let l2 = h.latency_cycles(&arch, HitLevel::L2, hz);
        let l3 = h.latency_cycles(&arch, HitLevel::L3, hz);
        let mm = h.latency_cycles(&arch, HitLevel::Mem, hz);
        assert!(l1 < l2 && l2 < l3 && l3 < mm);
        assert!(mm > 200.0);
    }
}
