//! The simulated CPU: one core, its memory hierarchy, PMU, DVFS state and
//! energy meters behind a single façade.
//!
//! Workloads drive the machine through four verbs:
//!
//! * [`Cpu::load`] / [`Cpu::store`] — simulate a data access (timing, cache
//!   state, PMU, energy),
//! * [`Cpu::exec`] / [`Cpu::exec_n`] — simulate execution-unit work,
//! * typed accessors ([`Cpu::read_u64`] …) that both simulate and move real
//!   bytes in the [`Arena`],
//! * [`Cpu::idle_c0`] / [`Cpu::idle_deep`] — let simulated wall time pass
//!   without work (I/O waits, the background-calibration "sleep 1").
//!
//! Every access takes the *fast step*: it prices from a table built once
//! per operating point and walks the hierarchy fused. The run verbs
//! ([`Cpu::access_run`], [`Cpu::copy_run`], the repeat verbs) batch whole
//! runs; the single verbs (`load`, `store`, `exec_n` and everything built
//! on them) and a run verb's one-at-a-time fallbacks take a one-access
//! step. An access that may reach a governor-window edge or sampler tick
//! takes that same step with its time passed through `advance`, so the
//! governor ticks and the sample fires where they would. The *reference
//! step* in `cpu/reference.rs` derives every price and latency per call
//! and walks the hierarchy one level at a time. It is the oracle, never a
//! production path: the equivalence tests and perfbench's scalar arm call
//! it per access as the doc-hidden `load_reference` / `store_reference` /
//! `exec_n_reference`, and a machine built by the doc-hidden
//! `Cpu::new_reference` takes it for every access, so whole workloads can
//! be compared with it bit for bit (DESIGN.md §9).

mod reference;

use std::sync::atomic::{AtomicU64, Ordering};

use crate::arch::{ArchConfig, ArchKind};
use crate::arena::{Arena, MemError, Region};
use crate::dvfs::{Governor, PState};
use crate::energy::{EnergyMeter, EnergyModel, OpClass, Price, RaplReading, Rounds};
use crate::hierarchy::{AccessResult, ColdCtx, Hierarchy, HitLevel};
use crate::pmu::{Event, Pmu, PmuSnapshot};
use crate::timeline::TimelineSampler;

/// Process-wide fast-path counters, accumulated from every [`Cpu`] as it is
/// dropped (see [`take_run_stats`]). Relaxed ordering suffices: the values
/// are diagnostics summed across threads, with no ordering dependencies.
static RUN_BATCHED_LINES: AtomicU64 = AtomicU64::new(0);
static RUN_COLD_BATCHED_LINES: AtomicU64 = AtomicU64::new(0);
static RUN_FALLBACKS: AtomicU64 = AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Repeats charged whole after one probe on this thread, so unit tests
    /// can check that a repeat on a resident line takes that path.
    static ONE_PROBE_REPEATS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Fast-path effectiveness totals (see [`take_run_stats`] /
/// [`Cpu::run_stats`]). They count *lines* (accesses) of the run verbs
/// ([`Cpu::access_run`], [`Cpu::copy_run`] and the repeat verbs after their
/// first access). The single-access verbs take the same fused steps but are
/// not counted: the counters measure how well runs batch, and counting
/// single accesses would move every published `simcore.lines_*` figure and
/// `EXPLAIN ANALYZE`'s `fast=` column without saying anything about
/// batching.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// L1D/TCM hits charged through the batched hot path.
    pub batched_lines: u64,
    /// Misses charged through the fused cold-run/chase path.
    pub cold_batched_lines: u64,
    /// Always 0. It counted the lines of a memoized-replay regime that no
    /// longer exists: every run of L1D hits now takes the hot batch and
    /// counts in `batched_lines`. The field stays because readers outside
    /// simcore still publish it: the `simcore.run_replayed_lines` metric,
    /// `profile.json`'s `replayed` key, difftest's sums and hostbench's
    /// `simcore.lines_replayed`.
    pub replayed_lines: u64,
    /// Run-verb lines stepped one at a time through the single verbs: at a
    /// governor-window edge or sampler tick, under a fillable chase
    /// shadow, or a chase run's TCM line. On a machine built by
    /// `Cpu::new_reference`, every run-verb line but a repeat's first.
    pub fallbacks: u64,
}

impl RunStats {
    /// Lines served by a fast path: batched or cold-batched.
    pub fn served(&self) -> u64 {
        self.batched_lines + self.cold_batched_lines
    }
}

impl std::ops::AddAssign for RunStats {
    fn add_assign(&mut self, o: RunStats) {
        self.batched_lines += o.batched_lines;
        self.cold_batched_lines += o.cold_batched_lines;
        self.replayed_lines += o.replayed_lines;
        self.fallbacks += o.fallbacks;
    }
}

impl std::ops::SubAssign for RunStats {
    fn sub_assign(&mut self, o: RunStats) {
        self.batched_lines -= o.batched_lines;
        self.cold_batched_lines -= o.cold_batched_lines;
        self.replayed_lines -= o.replayed_lines;
        self.fallbacks -= o.fallbacks;
    }
}

impl std::ops::Sub for RunStats {
    type Output = RunStats;
    fn sub(mut self, o: RunStats) -> RunStats {
        self -= o;
        self
    }
}

/// Drain the process-wide fast-path counters, summed over every [`Cpu`]
/// dropped since the last call. Harnesses surface these as the
/// `simcore.run_batched_lines` / `simcore.run_cold_batched_lines` /
/// `simcore.run_replayed_lines` / `simcore.run_fallbacks` metrics.
pub fn take_run_stats() -> RunStats {
    RunStats {
        batched_lines: RUN_BATCHED_LINES.swap(0, Ordering::Relaxed),
        cold_batched_lines: RUN_COLD_BATCHED_LINES.swap(0, Ordering::Relaxed),
        replayed_lines: 0,
        fallbacks: RUN_FALLBACKS.swap(0, Ordering::Relaxed),
    }
}

/// High-water mark of host bytes backing one machine's simulated cache
/// metadata (SoA tag arrays + rank words + way-hint shadow tables), recorded
/// by every [`Cpu::new`] via `fetch_max`. A maximum rather than a sum: the
/// footprint claim is about the per-machine working set the host walks, and
/// geometry is identical across a suite's machines of one architecture.
static CACHE_BYTES_RESIDENT: AtomicU64 = AtomicU64::new(0);

/// Drain the [`Cpu`] cache-metadata footprint high-water mark (see
/// `CACHE_BYTES_RESIDENT`). Harnesses surface this as the
/// `simcore.cache_bytes_resident` metric; it depends only on which
/// architectures were instantiated, never on scheduling.
pub fn take_cache_bytes_resident() -> u64 {
    CACHE_BYTES_RESIDENT.swap(0, Ordering::Relaxed)
}

/// Hierarchy-level index for the per-level constant tables in [`Prices`]:
/// `Tcm, L1d, L2, L3, Mem` → `0..=4`.
#[inline]
fn level_ix(level: HitLevel) -> usize {
    match level {
        HitLevel::Tcm => 0,
        HitLevel::L1d => 1,
        HitLevel::L2 => 2,
        HitLevel::L3 => 3,
        HitLevel::Mem => 4,
    }
}

/// Hoisted operands of `advance(cycles, 0.0)`: the busy cycles, their wall
/// time `cycles / hz`, and the background energy `background_w(pstate,
/// busy=true) · dt` in nanojoules per domain (the exact products
/// `charge_power` forms).
#[derive(Debug, Clone, Copy, Default)]
struct BusyStep {
    cycles: f64,
    dt: f64,
    bg_nj: Price,
}

/// Hoisted operands of `advance(0.0, cycles)`: the stall cycles and their
/// wall time `cycles / hz`.
#[derive(Debug, Clone, Copy, Default)]
struct StallStep {
    cycles: f64,
    dt: f64,
}

/// How far the fast paths may run before the next governor-window edge or
/// sampler tick (see [`Cpu::budget`]).
///
/// Between edges, `pass_time` only accumulates — clock, energy, the
/// governor window's and the sampler window's active time — and the fast
/// steps replay those additions operand for operand. Simulated time only
/// grows, and both edge tests are monotone in the clock, so a run of fast
/// accesses whose *final* clock stays below `edge` never skipped a governor
/// tick or a sample. An access that may reach an edge passes its time
/// through `advance` instead, which ticks the governor and emits the sample
/// exactly as the reference step would.
#[derive(Debug, Clone, Copy)]
struct Budget {
    /// Every clock value below this is provably before the next edge;
    /// `INFINITY` with neither the governor nor a sampler active, and
    /// `NEG_INFINITY` on a reference machine, where no access fits.
    edge: f64,
    /// Rounding allowance per access: a step adds to the clock at most
    /// four times (a copied line), each rounding by at most half an ulp of
    /// `edge`.
    margin: f64,
}

impl Budget {
    /// How many accesses of at most `per_s` simulated seconds each
    /// provably end before the edge, starting at clock `now`.
    fn lines(&self, now: f64, per_s: f64) -> u64 {
        if self.edge == f64::INFINITY {
            return u64::MAX;
        }
        let per = per_s * (1.0 + 1e-9) + self.margin;
        let left = self.edge - now;
        if left > per {
            (left / per) as u64
        } else {
            0
        }
    }

    /// Whether one access of at most `per_s` simulated seconds, starting
    /// at clock `now`, provably ends before the edge.
    #[inline]
    fn fits(&self, now: f64, per_s: f64) -> bool {
        self.edge == f64::INFINITY || now + per_s * (1.0 + 1e-9) + self.margin < self.edge
    }
}

/// The closed forms of a run of identical known hits, one per accumulator
/// it advances (see [`Rounds`]): the three meter domains, busy cycles, the
/// clock, and the governor window's and the sampler window's active time.
#[derive(Debug, Clone, Copy, Default)]
struct KnownSums {
    meter: [Rounds; 3],
    busy: Rounds,
    time: Rounds,
    win: Rounds,
    sampler: Rounds,
}

/// The per-access charge constants of every fast path — hot batches,
/// repeats and the fused cold-run/chase steps — at one
/// `(pstate, ifetch_discount)` operating point. Every field holds the
/// *exact* f64 the reference step computes for the same access — prices via
/// the same model calls, stall cycles via the same `lat / mlp` divisions,
/// wall-time steps via the same `/ hz` divisions — so the fast paths replay
/// the scalar additions operand-for-operand and stay bit-identical. Runs
/// of identical known hits advance each accumulator by the exact closed
/// form of those additions, cached here so a rebuild clears it.
#[derive(Debug, Clone, Default)]
struct Prices {
    /// The operating point the table was built for (`None` until first use).
    at: Option<(PState, f64)>,
    hz: f64,
    /// `background_w(pstate, busy=true)` per domain (W).
    bg: (f64, f64, f64),
    /// Effective front-end price (`fetch_price_eff`).
    fetch: Price,
    /// Decode-switch penalty, charged only on a class transition.
    decode: Price,
    /// `stall_price(hz)` for one stall cycle (scaled by `n` at charge time,
    /// exactly as `advance` does).
    stall_unit: Price,
    /// `store_price(tcm, hz)`, indexed by `tcm as usize`.
    store: [Price; 2],
    /// `load_price(level, dram_row_hit, hz)`, indexed `[level_ix][row_hit]`.
    load: [[Price; 2]; 5],
    pf_l2: Price,
    /// `pf_l3_price(row_hit, hz)`, indexed by `row_hit as usize`.
    pf_l3: [Price; 2],
    /// Per-op `fetch + op_price(class)`, indexed by `ExecOp as usize`.
    exec: [Price; 5],
    /// Writeback prices for L1d/L2/L3.
    wb: [Price; 3],
    /// `latency / mlp` stream stall per level.
    stream_stall: [StallStep; 5],
    /// `latency / mlp / 2.0` write-allocate stall per level.
    alloc_stall: [StallStep; 5],
    /// Chase shadow re-arm per level: `(lat - 1).max(0)` and its OOO cap.
    chase_pending: [f64; 5],
    chase_fillable: [f64; 5],
    /// A load's issue slot (`1 / load_issue_width` busy cycles).
    issue: BusyStep,
    /// One busy cycle: a store, or a chase load's `advance(1, 0)`.
    one: BusyStep,
    /// Upper bound on the simulated seconds of one fused stream load or
    /// store: one busy cycle plus the longest stream stall (DRAM's).
    stream_step_s: f64,
    /// `charge_known_run`'s closed forms, indexed `[write][tcm]`.
    known: [[KnownSums; 2]; 2],
}

impl Prices {
    /// The operands of `advance(cycles, 0.0)` at this operating point.
    #[inline]
    fn busy(&self, cycles: f64) -> BusyStep {
        let dt = cycles / self.hz;
        BusyStep {
            cycles,
            dt,
            bg_nj: Price {
                core: self.bg.0 * dt * 1e9,
                pkg_extra: self.bg.1 * dt * 1e9,
                mem: self.bg.2 * dt * 1e9,
            },
        }
    }

    /// The busy step of one known L1D/TCM hit.
    #[inline]
    fn hot_step(&self, write: bool) -> BusyStep {
        if write {
            self.one
        } else {
            self.issue
        }
    }
}

/// Dependency class of a load (see crate docs for the timing model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dep {
    /// Address depends on a previous load (pointer chase): exposes latency.
    Chase,
    /// Address is independent (array/stream): latency is hidden by MLP.
    Stream,
}

/// Execution-unit operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOp {
    /// Integer ALU op (the paper's `add`).
    Add,
    /// No-op (the paper's `nop`).
    Nop,
    /// Multiply/divide-class op.
    Mul,
    /// Branch.
    Branch,
    /// Generic bookkeeping op (call overhead, address arithmetic).
    Generic,
}

impl ExecOp {
    /// Reciprocal throughput in cycles (Haswell-like).
    fn cycles(self, width_scale: f64) -> f64 {
        let c = match self {
            ExecOp::Nop => 0.25,
            ExecOp::Add => 0.5,
            ExecOp::Branch => 1.0,
            ExecOp::Mul => 1.0,
            ExecOp::Generic => 0.5,
        };
        c * width_scale
    }

    fn class(self) -> OpClass {
        match self {
            ExecOp::Add => OpClass::Add,
            ExecOp::Nop => OpClass::Nop,
            ExecOp::Mul => OpClass::Mul,
            ExecOp::Branch => OpClass::Branch,
            ExecOp::Generic => OpClass::Generic,
        }
    }

    fn event(self) -> Event {
        match self {
            ExecOp::Add => Event::AddOps,
            ExecOp::Nop => Event::NopOps,
            ExecOp::Mul => Event::MulOps,
            ExecOp::Branch => Event::BranchOps,
            ExecOp::Generic => Event::GenericOps,
        }
    }
}

/// A completed measurement window: PMU deltas, energy deltas, elapsed time.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Event-count deltas for the window.
    pub pmu: PmuSnapshot,
    /// Energy consumed in the window, per domain.
    pub rapl: RaplReading,
    /// Simulated wall time of the window (seconds).
    pub time_s: f64,
    /// Cycles elapsed (busy + stall) in the window.
    pub cycles: f64,
    /// Operating point at the end of the window.
    pub pstate: PState,
}

/// Opaque start-of-window token from [`Cpu::begin_measure`].
#[derive(Debug, Clone)]
pub struct MeasureToken {
    pmu: PmuSnapshot,
    rapl: RaplReading,
    time_s: f64,
    cycles: f64,
}

/// The simulated machine.
pub struct Cpu {
    arch: ArchConfig,
    arena: Arena,
    hier: Hierarchy,
    pmu: Pmu,
    meter: EnergyMeter,
    model: EnergyModel,
    pstate: PState,
    governor: Governor,
    governor_on: bool,
    busy_cycles: f64,
    stall_cycles: f64,
    /// Outstanding shadow cycles of the last chase load.
    pending: f64,
    /// Portion of `pending` that independent work may still fill.
    fillable: f64,
    time_s: f64,
    win_start_s: f64,
    win_active_s: f64,
    sampler: Option<TimelineSampler>,
    /// Last retired instruction class (for the decode-switch effect).
    last_class: u8,
    /// Instruction-fetch energy discount in `[0, 0.5]` — models an ITCM
    /// holding the hot code (§5: "instruction TCM (ITCM) should be
    /// considered").
    ifetch_discount: f64,
    /// Per-access constants of every fast path, keyed on
    /// `(pstate, ifetch_discount)`; rebuilt lazily when either changes.
    prices: Prices,
    /// Lines charged through the batched fast path by this machine.
    run_batched_lines: u64,
    /// Misses charged through the fused cold-run/chase fast path.
    run_cold_batched_lines: u64,
    /// Run-verb lines stepped one at a time (see [`RunStats::fallbacks`]).
    run_fallbacks: u64,
    /// Whether this machine is the oracle (`Cpu::new_reference`): its
    /// single verbs take the reference step and its time budget has no
    /// room, so no run verb batches.
    reference: bool,
}

impl Drop for Cpu {
    fn drop(&mut self) {
        RUN_BATCHED_LINES.fetch_add(self.run_batched_lines, Ordering::Relaxed);
        RUN_COLD_BATCHED_LINES.fetch_add(self.run_cold_batched_lines, Ordering::Relaxed);
        RUN_FALLBACKS.fetch_add(self.run_fallbacks, Ordering::Relaxed);
    }
}

impl Cpu {
    /// A fresh machine pinned at the architecture's top P-state with the
    /// prefetcher on and the governor off (the paper's trunk configuration).
    pub fn new(arch: ArchConfig) -> Self {
        let model = EnergyModel::for_arch(arch.kind);
        let arena = Arena::new(arch.dtcm_size, arch.dram_size);
        let hier = Hierarchy::new(&arch);
        CACHE_BYTES_RESIDENT.fetch_max(hier.footprint_bytes(), Ordering::Relaxed);
        let pstate = PState(arch.max_pstate);
        let governor = Governor::new(PState(arch.min_pstate), PState(arch.max_pstate));
        Cpu {
            arch,
            arena,
            hier,
            pmu: Pmu::new(),
            meter: EnergyMeter::default(),
            model,
            pstate,
            governor,
            governor_on: false,
            busy_cycles: 0.0,
            stall_cycles: 0.0,
            pending: 0.0,
            fillable: 0.0,
            time_s: 0.0,
            win_start_s: 0.0,
            win_active_s: 0.0,
            sampler: None,
            last_class: u8::MAX,
            ifetch_discount: 0.0,
            prices: Prices::default(),
            run_batched_lines: 0,
            run_cold_batched_lines: 0,
            run_fallbacks: 0,
            reference: false,
        }
    }

    /// The architecture this machine implements.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Current operating point.
    pub fn pstate(&self) -> PState {
        self.pstate
    }

    /// Pin the operating point (disables nothing else; with the governor on
    /// it will be re-adjusted at the next window).
    pub fn set_pstate(&mut self, ps: PState) {
        self.pstate = ps.clamp(self.arch.min_pstate, self.arch.max_pstate);
    }

    /// Enable/disable the EIST-like governor (§2.7).
    pub fn set_governor(&mut self, on: bool) {
        self.governor_on = on;
        self.win_start_s = self.time_s;
        self.win_active_s = 0.0;
    }

    /// Set the governor's re-evaluation window. Simulated workloads are
    /// orders of magnitude shorter than real runs, so experiments shrink
    /// the window proportionally.
    pub fn set_governor_interval(&mut self, seconds: f64) {
        assert!(seconds > 0.0);
        self.governor.interval_s = seconds;
        self.win_start_s = self.time_s;
        self.win_active_s = 0.0;
    }

    /// Enable/disable the hardware prefetcher (§2.5.3).
    pub fn set_prefetch(&mut self, on: bool) {
        self.hier.set_prefetch(on);
    }

    /// Model an instruction TCM holding the hot code: instruction-fetch
    /// energy is discounted by `d` (clamped to `[0, 0.5]`). The paper's §5
    /// suggests this for calculation-heavy engines ("energy-efficient …
    /// instruction-related components, e.g., instruction TCM (ITCM)").
    pub fn set_itcm_fetch_discount(&mut self, d: f64) {
        self.ifetch_discount = d.clamp(0.0, 0.5);
    }

    #[inline]
    fn fetch_price_eff(&self, hz: f64) -> crate::energy::Price {
        crate::energy::scale_price(self.model.fetch_price(hz), 1.0 - self.ifetch_discount)
    }

    /// Attach a timeline sampler with the given interval.
    pub fn attach_sampler(&mut self, interval_s: f64) {
        self.sampler = Some(TimelineSampler::new(interval_s, self.time_s));
    }

    /// Detach and return the sampler, if any.
    pub fn take_sampler(&mut self) -> Option<TimelineSampler> {
        self.sampler.take()
    }

    /// Drop all cached state and forget trained prefetch streams.
    pub fn flush_caches(&mut self) {
        self.settle();
        self.hier.flush();
    }

    /// Core frequency right now (Hz).
    pub fn freq_hz(&self) -> f64 {
        self.pstate.freq_hz()
    }

    /// Simulated wall-clock (seconds).
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// Total elapsed core cycles (busy + stall), excluding unresolved shadow.
    pub fn cycles(&self) -> f64 {
        self.busy_cycles + self.stall_cycles
    }

    // ------------------------------------------------------------------
    // Memory management
    // ------------------------------------------------------------------

    /// Allocate simulated DRAM.
    pub fn alloc(&mut self, len: u64) -> Result<Region, MemError> {
        self.arena.alloc(len)
    }

    /// Allocate TCM (fails on parts without TCM).
    pub fn alloc_tcm(&mut self, len: u64) -> Result<Region, MemError> {
        self.arena.alloc_tcm(len)
    }

    /// Release every DRAM allocation (cache contents are flushed too, since
    /// resident lines would alias fresh allocations).
    pub fn reset_dram(&mut self) {
        self.arena.reset_dram();
        self.flush_caches();
    }

    /// Direct access to the arena for *setup only* — reads/writes through
    /// this reference are architecturally invisible (no time, no energy, no
    /// PMU events). Workload inner loops must use the simulating accessors.
    pub fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    /// Read-only arena access (setup/verification only; not simulated).
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    // ------------------------------------------------------------------
    // Timing internals
    // ------------------------------------------------------------------

    /// Advance the clock by busy/stall cycles, charging background power and
    /// ticking the governor and sampler.
    fn advance(&mut self, busy: f64, stall: f64) {
        if stall > 0.0 {
            self.stall_cycles += stall;
            let n = stall;
            let p = self.model.stall_price(self.freq_hz());
            self.meter.charge(crate::energy::scale_price(p, n));
        }
        self.busy_cycles += busy;
        let dt = (busy + stall) / self.freq_hz();
        if dt > 0.0 {
            let bg = self.model.background_w(self.pstate, true);
            self.pass_time(dt, true, bg);
        }
    }

    /// Wall time passes; charge `power` watts per domain and run the
    /// governor/sampler bookkeeping.
    fn pass_time(&mut self, dt: f64, active: bool, power: (f64, f64, f64)) {
        self.time_s += dt;
        self.meter.charge_power(power, dt);
        if active {
            self.win_active_s += dt;
        }
        if let Some(s) = &mut self.sampler {
            s.advance(self.time_s, dt, active, self.pstate, self.meter.reading());
        }
        self.tick_governor();
    }

    /// Re-evaluate the governor for every completed window. A long advance
    /// can span several windows; each consumes up to one interval's worth of
    /// the accumulated active time, so fully-busy stretches read as 100%
    /// utilization window after window.
    fn tick_governor(&mut self) {
        if !self.governor_on {
            return;
        }
        while self.time_s - self.win_start_s >= self.governor.interval_s {
            let take = self.win_active_s.min(self.governor.interval_s);
            let util = take / self.governor.interval_s;
            self.win_active_s -= take;
            self.pstate = self.governor.next(self.pstate, util);
            self.win_start_s += self.governor.interval_s;
        }
    }

    /// Resolve outstanding shadow cycles as stall.
    fn settle(&mut self) {
        if self.pending > 0.0 {
            let p = self.pending;
            self.pending = 0.0;
            self.fillable = 0.0;
            self.advance(0.0, p);
        }
    }

    /// Busy work's overlap with an outstanding chase load: up to the
    /// fillable part of its shadow, `c` busy cycles retire inside it
    /// instead of stalling. Touches only `pending` and `fillable`, which no
    /// charge reads, so the fast steps may apply it anywhere in their step.
    #[inline]
    fn fill_shadow(&mut self, c: f64) {
        if self.fillable > 0.0 {
            let overlap = self.fillable.min(c);
            self.pending -= overlap;
            self.fillable -= overlap;
        }
    }

    // ------------------------------------------------------------------
    // Fast path
    // ------------------------------------------------------------------

    /// Rebuild the price table if the operating point changed since it was
    /// built.
    #[inline]
    fn ensure_prices(&mut self) {
        if self.prices.at != Some((self.pstate, self.ifetch_discount)) {
            self.prices = self.build_prices();
        }
    }

    /// The price table at the current operating point.
    fn build_prices(&self) -> Prices {
        let hz = self.freq_hz();
        let stall = |cycles: f64| StallStep {
            cycles,
            dt: cycles / hz,
        };
        let levels = [
            HitLevel::Tcm,
            HitLevel::L1d,
            HitLevel::L2,
            HitLevel::L3,
            HitLevel::Mem,
        ];
        let mut load = [[Price::default(); 2]; 5];
        let mut stream_stall = [StallStep::default(); 5];
        let mut alloc_stall = [StallStep::default(); 5];
        let mut chase_pending = [0.0; 5];
        let mut chase_fillable = [0.0; 5];
        for (ix, &level) in levels.iter().enumerate() {
            load[ix] = [
                self.model.load_price(level, false, hz),
                self.model.load_price(level, true, hz),
            ];
            let lat = self.hier.latency_cycles(&self.arch, level, hz);
            stream_stall[ix] = stall(lat / self.arch.mlp);
            alloc_stall[ix] = stall(lat / self.arch.mlp / 2.0);
            chase_pending[ix] = (lat - 1.0).max(0.0);
            chase_fillable[ix] = chase_pending[ix].min(self.arch.ooo_fill_cycles);
        }
        let fetch = self.fetch_price_eff(hz);
        let mut exec = [Price::default(); 5];
        for op in [
            ExecOp::Add,
            ExecOp::Nop,
            ExecOp::Mul,
            ExecOp::Branch,
            ExecOp::Generic,
        ] {
            exec[op as usize] =
                crate::energy::add_price(fetch, self.model.op_price(op.class(), hz));
        }
        let mut p = Prices {
            at: Some((self.pstate, self.ifetch_discount)),
            hz,
            bg: self.model.background_w(self.pstate, true),
            fetch,
            decode: self.model.decode_switch_price(hz),
            stall_unit: self.model.stall_price(hz),
            store: [
                self.model.store_price(false, hz),
                self.model.store_price(true, hz),
            ],
            load,
            pf_l2: self.model.pf_l2_price(hz),
            pf_l3: [
                self.model.pf_l3_price(false, hz),
                self.model.pf_l3_price(true, hz),
            ],
            exec,
            wb: [
                self.model.writeback_price(HitLevel::L1d, hz),
                self.model.writeback_price(HitLevel::L2, hz),
                self.model.writeback_price(HitLevel::L3, hz),
            ],
            stream_stall,
            alloc_stall,
            chase_pending,
            chase_fillable,
            ..Prices::default()
        };
        // The busy steps read the table's own `hz` and `bg`.
        p.issue = p.busy(1.0 / self.arch.load_issue_width);
        p.one = p.busy(1.0);
        p.stream_step_s = p.one.dt + stream_stall.iter().map(|s| s.dt).fold(0.0, f64::max);
        p
    }

    /// The fast paths' time budget from the current clock (see [`Budget`]).
    fn budget(&self) -> Budget {
        if self.reference {
            return Budget {
                edge: f64::NEG_INFINITY,
                margin: 0.0,
            };
        }
        let mut edge = f64::INFINITY;
        if self.governor_on {
            // `tick_governor` fires once `time_s - win_start_s >=
            // interval_s`. A clock four ulps below the rounded window end
            // cannot satisfy that, however either side rounds.
            let end = self.win_start_s + self.governor.interval_s;
            edge = end - end * 4.0 * f64::EPSILON;
        }
        if let Some(s) = &self.sampler {
            edge = edge.min(s.next_tick());
        }
        Budget {
            edge,
            margin: edge * 4.0 * f64::EPSILON,
        }
    }

    /// Re-sync a run verb's loop after a fallback step: the step may have
    /// ticked the governor (a new P-state, so new prices) or emitted a
    /// sample (a new next tick), and its walk, on its own fresh
    /// [`ColdCtx`], may have evicted lines inside `ctx`'s proven-resident
    /// windows.
    fn resync(&mut self, ctx: &mut ColdCtx) -> Budget {
        self.ensure_prices();
        *ctx = self.hier.cold_ctx();
        self.budget()
    }

    /// How many known L1D/TCM hits provably end before the next edge (all
    /// of them with neither governor nor sampler active). Prices must be
    /// ensured.
    fn hits_before_edge(&self, write: bool) -> u64 {
        self.budget()
            .lines(self.time_s, self.prices.hot_step(write).dt)
    }

    // The fast-path charge pieces below replay the reference step's timing
    // and energy helpers with operands from the price table.
    // Preconditions (enforced by callers): prices ensured, and — unless
    // the piece runs with `EDGE` — the access provably ends before the
    // next governor-window edge or sampler tick (see `Budget`), so
    // `pass_time` would only have accumulated.

    /// The reference step's front-end charge for an instruction of
    /// `class`: fetch, plus the decode-switch penalty on a class
    /// transition.
    #[inline]
    fn frontend_fast(&mut self, class: u8) {
        self.meter.charge(self.prices.fetch);
        if self.last_class != class && self.last_class != u8::MAX {
            self.meter.charge(self.prices.decode);
        }
        self.last_class = class;
    }

    /// `advance(step.cycles, 0.0)`: replayed from the table's operands, or,
    /// for an access that may reach an edge (`EDGE`), `advance` itself,
    /// which prices the time at the P-state of the moment and ticks the
    /// governor and the sampler.
    #[inline]
    fn busy_step<const EDGE: bool>(&mut self, step: BusyStep) {
        if EDGE {
            self.advance(step.cycles, 0.0);
            return;
        }
        self.busy_cycles += step.cycles;
        self.time_s += step.dt;
        self.meter.charge(step.bg_nj);
        self.win_active_s += step.dt;
        self.credit_sampler(step.dt);
    }

    /// `advance(0.0, step.cycles)`, replayed or called as in
    /// [`Cpu::busy_step`].
    #[inline]
    fn stall_step<const EDGE: bool>(&mut self, step: StallStep) {
        if EDGE {
            self.advance(0.0, step.cycles);
            return;
        }
        self.stall_cycles += step.cycles;
        self.meter.charge(crate::energy::scale_price(
            self.prices.stall_unit,
            step.cycles,
        ));
        self.time_s += step.dt;
        self.meter.charge_power(self.prices.bg, step.dt);
        self.win_active_s += step.dt;
        self.credit_sampler(step.dt);
    }

    /// The sampler's share of `pass_time` for one active step of `dt`
    /// seconds: below its next tick, all an attached sampler's `advance`
    /// does is add `dt` to the window's active time. A run of known hits
    /// credits all of its steps at once (`credit_active_run`).
    #[inline]
    fn credit_sampler(&mut self, dt: f64) {
        if let Some(s) = &mut self.sampler {
            s.credit_active(dt);
        }
    }

    /// The charges every one-access step opens with, in the reference
    /// step's order: the retired instruction, the front end, the access
    /// `price`, then `r`'s prefetch and writeback charges.
    #[inline(always)] // per-line hot path; LLVM outlines it otherwise
    fn charge_fused_access(&mut self, class: u8, price: Price, r: &AccessResult) {
        self.pmu.bump(Event::Instructions);
        self.frontend_fast(class);
        self.meter.charge(price);
        let p = &self.prices;
        for _ in 0..r.pf_l2 {
            self.meter.charge(p.pf_l2);
        }
        for i in 0..r.pf_l3 {
            self.meter.charge(p.pf_l3[(i < r.pf_l3_row_hits) as usize]);
        }
        for _ in 0..r.wb_l1 {
            self.meter.charge(p.wb[0]);
        }
        for _ in 0..r.wb_l2 {
            self.meter.charge(p.wb[1]);
        }
        for _ in 0..r.wb_l3 {
            self.meter.charge(p.wb[2]);
        }
    }

    /// Charge `k` known L1D (or TCM) hits: a hot batch, a repeat or a TCM
    /// run.
    ///
    /// The scalar path's f64 additions per hit are fetch, an optional
    /// decode switch, the hit price, busy cycles, wall time, background
    /// energy, governor-window credit and sampler credit, each operand the
    /// identical f64 the scalar path would produce. The first hit replays
    /// them one by one, since it may pay the decode switch. The other
    /// `k - 1` repeat one round of the same operands in every accumulator,
    /// so each accumulator advances by the exact closed form of that loop
    /// ([`Rounds`], cached per hit class in the price table): bit-identical
    /// to the additions, in O(1) while it stays in one binade.
    ///
    /// Preconditions (enforced by callers): no fillable chase shadow,
    /// every access a known L1D/TCM hit, and all `k` end before the next
    /// governor-window edge or sampler tick ([`Budget::lines`]).
    fn charge_known_run(&mut self, write: bool, tcm: bool, k: u64) {
        if k == 0 {
            return;
        }
        self.ensure_prices();
        let p = &self.prices;
        let step = p.hot_step(write);
        let price = if write {
            p.store[tcm as usize]
        } else {
            let level = if tcm { HitLevel::Tcm } else { HitLevel::L1d };
            p.load[level_ix(level)][0]
        };
        let round = [p.fetch, price, step.bg_nj];
        self.pmu.add(Event::Instructions, k);
        self.frontend_fast(write as u8);
        self.meter.charge(price);
        self.busy_step::<false>(step);
        let rest = k - 1;
        let sums = &mut self.prices.known[write as usize][tcm as usize];
        self.meter.charge_rounds(round, rest, &mut sums.meter);
        sums.busy.add(&mut self.busy_cycles, [step.cycles], rest);
        sums.time.add(&mut self.time_s, [step.dt], rest);
        sums.win.add(&mut self.win_active_s, [step.dt], rest);
        if let Some(s) = &mut self.sampler {
            s.credit_active_run(step.dt, rest, &mut sums.sampler);
        }
    }

    /// Charge `k` TCM accesses (always hits; no cache or DRAM state).
    fn charge_tcm_run(&mut self, write: bool, k: u64) {
        let ev = if write {
            Event::TcmStore
        } else {
            Event::TcmLoad
        };
        self.pmu.add(ev, k);
        self.charge_known_run(write, true, k);
    }

    /// A run verb's one-at-a-time fallback, for an access that may reach a
    /// governor-window edge or sampler tick or that no batching regime
    /// covers: count it in [`RunStats::fallbacks`], then take the single
    /// verb's step (on a reference machine, the reference step).
    #[inline]
    fn fallback_step(&mut self, line: u64, write: bool, dep: Dep) {
        self.run_fallbacks += 1;
        if write {
            self.store(line);
        } else {
            self.load(line, dep);
        }
    }

    /// Count one fused step of a run verb: an L1D hit as a batched line, a
    /// miss as a cold-batched one.
    #[inline]
    fn count_fused(&mut self, hit: bool) {
        if hit {
            self.run_batched_lines += 1;
        } else {
            self.run_cold_batched_lines += 1;
        }
    }

    // The one-access steps below are the reference step's load and store,
    // priced from the table and walked fused. With `EDGE` (the access may
    // reach a governor-window edge or sampler tick) they keep the walk and
    // the table built at the start of the access, as the reference keeps
    // the prices it derived at its start, and pass their busy and stall
    // cycles through `advance`. `EDGE` is a constant so that the per-line
    // steps of the batching loops compile without the edge path.

    /// One chase load of `line`: the previous shadow settled as stall, a
    /// TCM hit or the fused walk, one busy cycle, and the shadow re-armed.
    /// At an edge the table is rebuilt after the settle, which may have
    /// ticked the governor, since the reference prices the load at the
    /// P-state after its settle. Returns whether it hit L1D.
    fn chase_step<const EDGE: bool>(&mut self, line: u64, ctx: &mut ColdCtx) -> bool {
        // Chase lines are random: start pulling their (host-side) L2/L3 set
        // slices now so they arrive while the settle arithmetic runs.
        self.hier.prefetch_sets(line);
        // settle(): resolve the previous chase shadow as stall.
        if self.pending > 0.0 {
            let p = self.pending;
            self.pending = 0.0;
            self.fillable = 0.0;
            let stall = StallStep {
                cycles: p,
                dt: p / self.prices.hz,
            };
            self.stall_step::<EDGE>(stall);
            if EDGE {
                self.ensure_prices();
            }
        }
        let r = if line < self.hier.tcm_limit() {
            self.pmu.bump(Event::TcmLoad);
            AccessResult {
                level: Some(HitLevel::Tcm),
                ..AccessResult::default()
            }
        } else {
            self.hier.load_fused(line, ctx, &mut self.pmu)
        };
        let level = r.level.expect("load always resolves to a level");
        let ix = level_ix(level);
        self.charge_fused_access(0, self.prices.load[ix][r.dram_row_hit as usize], &r);
        self.busy_step::<EDGE>(self.prices.one);
        // Re-arm the shadow.
        self.pending = self.prices.chase_pending[ix];
        self.fillable = self.prices.chase_fillable[ix];
        matches!(level, HitLevel::L1d)
    }

    /// One stream load of a non-TCM `line` through the fused walk, with
    /// `fillable == 0` or its `fill_shadow` overlap applied by the caller.
    /// Returns whether it hit L1D.
    fn stream_step<const EDGE: bool>(&mut self, line: u64, ctx: &mut ColdCtx) -> bool {
        let r = self.hier.load_fused(line, ctx, &mut self.pmu);
        let level = r.level.expect("load always resolves to a level");
        let ix = level_ix(level);
        self.charge_fused_access(0, self.prices.load[ix][r.dram_row_hit as usize], &r);
        self.busy_step::<EDGE>(self.prices.issue);
        let hit = matches!(level, HitLevel::L1d);
        if !hit {
            // MLP-amortized exposed latency.
            self.stall_step::<EDGE>(self.prices.stream_stall[ix]);
        }
        hit
    }

    /// One store to a non-TCM `line` through the fused walk, with
    /// `fillable == 0` or its `fill_shadow` overlap applied by the caller.
    /// Returns whether it went without a write-allocate fill.
    fn store_step<const EDGE: bool>(&mut self, line: u64, ctx: &mut ColdCtx) -> bool {
        let (r, allocated) = self.hier.store_fused(line, ctx, &mut self.pmu);
        self.charge_fused_access(1, self.prices.store[0], &r);
        self.busy_step::<EDGE>(self.prices.one);
        let Some(level) = allocated else {
            return true;
        };
        let ix = level_ix(level);
        // Write-allocate fill: movement energy + softened latency.
        self.meter
            .charge(self.prices.load[ix][r.dram_row_hit as usize]);
        self.stall_step::<EDGE>(self.prices.alloc_stall[ix]);
        false
    }

    /// Consume the rest of a run through the fused cold walk, starting at a
    /// known L1D miss. Hits interleaved in the tail take the same fused
    /// steps (charged as batched lines); misses are bulk-charged
    /// (cold-batched lines). A line that may reach a governor-window edge
    /// or sampler tick is a fallback. Preconditions: `fillable == 0`
    /// (stream loads and stores never re-arm it, so it stays zero for the
    /// whole segment), every line ≥ the TCM limit.
    fn cold_segment(&mut self, line: &mut u64, left: &mut u64, write: bool) {
        self.ensure_prices();
        let mut ctx = self.hier.cold_ctx();
        let mut budget = self.budget();
        while *left > 0 {
            if !budget.fits(self.time_s, self.prices.stream_step_s) {
                self.fallback_step(*line, write, Dep::Stream);
                budget = self.resync(&mut ctx);
            } else {
                let hit = if write {
                    self.store_step::<false>(*line, &mut ctx)
                } else {
                    self.stream_step::<false>(*line, &mut ctx)
                };
                self.count_fused(hit);
            }
            *line += crate::LINE;
            *left -= 1;
        }
    }

    /// Simulate a run of `lines` sequential line accesses starting at the
    /// line containing `addr` — the batched fast path.
    ///
    /// Two fast regimes cover the run: TCM stretches and L1D hit runs are
    /// known hits, charged in O(1) from the price table (hot batch); cold
    /// stretches — including chase runs — go through the fused
    /// single-pass hierarchy walk with hoisted charges (bulk
    /// miss-charging). With the governor on or a timeline sampler
    /// attached, every regime runs only as far as its accesses provably end
    /// before the next governor-window edge or sampler tick (DESIGN.md §9,
    /// "Time budget"). The access that may reach the edge is stepped alone
    /// by the single verb's step, as are accesses under an unfilled chase
    /// shadow and TCM lines of a chase run; these count as
    /// [`RunStats::fallbacks`]. On a reference machine the budget has no
    /// room, so every access is such a fallback and takes the reference
    /// step. For any access sequence the PMU counters, RAPL joules,
    /// timeline cycles, governor P-states and timeline samples are
    /// bit-identical to issuing the same accesses one at a time through
    /// the reference step.
    pub fn access_run(&mut self, addr: u64, lines: u64, write: bool, dep: Dep) {
        let mut line = addr & !(crate::LINE - 1);
        let mut left = lines;
        let tcm_limit = self.hier.tcm_limit();
        self.ensure_prices();
        if dep == Dep::Chase && !write {
            // Chase loads settle and re-arm the shadow per access; the
            // fused walk + hoisted charges replay that exactly. A chase
            // step's time is known before it runs: the shadow it settles
            // plus one busy cycle.
            let mut ctx = self.hier.cold_ctx();
            let mut budget = self.budget();
            while left > 0 {
                let step_s = self.pending / self.prices.hz + self.prices.one.dt;
                if line >= tcm_limit && budget.fits(self.time_s, step_s) {
                    let hit = self.chase_step::<false>(line, &mut ctx);
                    self.count_fused(hit);
                } else {
                    self.fallback_step(line, write, dep);
                    budget = self.resync(&mut ctx);
                }
                line += crate::LINE;
                left -= 1;
            }
            return;
        }
        // Stream machinery (stores ignore `dep`, so write+chase runs land
        // here too).
        while left > 0 {
            self.ensure_prices();
            let cap = if self.fillable > 0.0 {
                0
            } else {
                self.hits_before_edge(write).min(left)
            };
            if cap == 0 {
                // A prior chase load left a fillable shadow (single steps
                // drain it, each consuming busy overlap), or the next
                // access may reach an edge: one fallback step, then
                // batching resumes.
                self.fallback_step(line, write, dep);
                line += crate::LINE;
                left -= 1;
                continue;
            }
            if line < tcm_limit {
                let k = (tcm_limit - line).div_ceil(crate::LINE).min(cap);
                self.charge_tcm_run(write, k);
                self.run_batched_lines += k;
                line += k * crate::LINE;
                left -= k;
                continue;
            }
            // L1D hit prefix, batch-charged.
            let k = self.hier.l1_hit_run(line, cap, write, &mut self.pmu);
            if k > 0 {
                self.charge_known_run(write, false, k);
                self.run_batched_lines += k;
                line += k * crate::LINE;
                left -= k;
                if left == 0 {
                    break;
                }
            }
            if k < cap {
                // The next line is a known L1D miss: bulk-charge the rest
                // of the run through the fused cold walk.
                self.cold_segment(&mut line, &mut left, write);
            }
        }
    }

    /// Simulate a line-granular copy over the run starting at `addr`: per
    /// line one stream load followed by one store, as LSM/buffer-pool block
    /// moves issue them. Bit-identical to the scalar alternation
    /// `load(line, Stream); store(line)` per line; the fused walk handles
    /// both cold and warm lines in one pass. A line whose pair may reach a
    /// governor-window edge or sampler tick, or that starts under a
    /// fillable chase shadow or in the TCM window, is a fallback pair.
    pub fn copy_run(&mut self, addr: u64, lines: u64) {
        let mut line = addr & !(crate::LINE - 1);
        let tcm_limit = self.hier.tcm_limit();
        self.ensure_prices();
        let mut ctx = self.hier.cold_ctx();
        let mut budget = self.budget();
        for _ in 0..lines {
            if line >= tcm_limit
                && self.fillable == 0.0
                && budget.fits(self.time_s, 2.0 * self.prices.stream_step_s)
            {
                let hit = self.stream_step::<false>(line, &mut ctx);
                self.count_fused(hit);
                let hit = self.store_step::<false>(line, &mut ctx);
                self.count_fused(hit);
            } else {
                self.fallback_step(line, false, Dep::Stream);
                self.fallback_step(line, true, Dep::Stream);
                budget = self.resync(&mut ctx);
            }
            line += crate::LINE;
        }
    }

    /// Fast-path effectiveness counters for this machine.
    pub fn run_stats(&self) -> RunStats {
        RunStats {
            batched_lines: self.run_batched_lines,
            cold_batched_lines: self.run_cold_batched_lines,
            replayed_lines: 0,
            fallbacks: self.run_fallbacks,
        }
    }

    /// Shared body of [`Cpu::load_repeat`] / [`Cpu::store_repeat`].
    fn repeat_access(&mut self, addr: u64, n: u64, write: bool) {
        if n == 0 {
            return;
        }
        if self.repeat_known_hits(addr & !(crate::LINE - 1), n, write) {
            self.run_batched_lines += n - 1;
            return;
        }
        // Otherwise the first access resolves residency/allocation through
        // a full walk (the single verb's step), and the rest batch as far
        // as the time budget allows.
        if write {
            self.store(addr);
        } else {
            self.load(addr, Dep::Stream);
        }
        let mut rest = n - 1;
        while rest > 0 {
            let k = if self.fillable > 0.0 {
                0
            } else {
                self.ensure_prices();
                self.hits_before_edge(write).min(rest)
            };
            if k == 0 {
                self.fallback_step(addr, write, Dep::Stream);
                rest -= 1;
                continue;
            }
            if addr < self.hier.tcm_limit() {
                self.charge_tcm_run(write, k);
            } else if self
                .hier
                .l1_repeat(addr & !(crate::LINE - 1), k, write, &mut self.pmu)
            {
                self.charge_known_run(write, false, k);
            } else {
                // Not resident (cannot happen right after the first access,
                // but keeps the fallback total): step it alone and re-probe.
                self.fallback_step(addr, write, Dep::Stream);
                rest -= 1;
                continue;
            }
            self.run_batched_lines += k;
            rest -= k;
        }
    }

    /// One probe of `line` for a repeat of `n` accesses: with no fillable
    /// chase shadow and all `n` ending before the next edge, the `n`
    /// accesses of a TCM line or of a resident L1D line, the first
    /// included, are `n` known hits, charged here. Returns whether it
    /// charged them; otherwise nothing changed.
    fn repeat_known_hits(&mut self, line: u64, n: u64, write: bool) -> bool {
        if self.fillable > 0.0 {
            return false;
        }
        self.ensure_prices();
        if self.hits_before_edge(write) < n {
            return false;
        }
        if line < self.hier.tcm_limit() {
            self.charge_tcm_run(write, n);
        } else if self.hier.l1_repeat(line, n, write, &mut self.pmu) {
            self.charge_known_run(write, false, n);
        } else {
            return false;
        }
        #[cfg(test)]
        ONE_PROBE_REPEATS.with(|c| c.set(c.get() + 1));
        true
    }

    /// The one-access step of [`Cpu::load`] / [`Cpu::store`], and so of
    /// every run-verb fallback: prices from the table and the time budget,
    /// then [`Cpu::access_step`], with `EDGE` set if the access may reach a
    /// governor-window edge or sampler tick.
    #[inline]
    fn access_fast(&mut self, addr: u64, write: bool, dep: Dep) {
        self.ensure_prices();
        let line = addr & !(crate::LINE - 1);
        let chase = dep == Dep::Chase && !write;
        let step_s = if chase {
            self.pending / self.prices.hz + self.prices.one.dt
        } else {
            self.prices.stream_step_s
        };
        if self.budget().fits(self.time_s, step_s) {
            self.access_step::<false>(line, write, chase);
        } else {
            self.access_at_edge(line, write, chase);
        }
    }

    /// [`Cpu::access_step`] for an access that may reach an edge. Edges are
    /// rare, so this stays out of line and keeps the single verbs' body as
    /// small as their step below the edge.
    #[cold]
    #[inline(never)]
    fn access_at_edge(&mut self, line: u64, write: bool, chase: bool) {
        self.access_step::<true>(line, write, chase);
    }

    /// One access of `line`: a chase load through [`Cpu::chase_step`], or
    /// busy work's shadow overlap followed by a TCM load or store charged
    /// as one known hit, or by any other access through the fused stream
    /// or store step (which charges an L1D hit with `charge_known_run`'s
    /// operands).
    fn access_step<const EDGE: bool>(&mut self, line: u64, write: bool, chase: bool) {
        let mut ctx = self.hier.cold_ctx();
        if chase {
            self.chase_step::<EDGE>(line, &mut ctx);
            return;
        }
        let hot = self.prices.hot_step(write);
        self.fill_shadow(hot.cycles);
        if line < self.hier.tcm_limit() {
            let (event, price) = if write {
                (Event::TcmStore, self.prices.store[1])
            } else {
                (Event::TcmLoad, self.prices.load[level_ix(HitLevel::Tcm)][0])
            };
            self.pmu.bump(event);
            self.charge_fused_access(write as u8, price, &AccessResult::default());
            self.busy_step::<EDGE>(hot);
        } else if write {
            self.store_step::<EDGE>(line, &mut ctx);
        } else {
            self.stream_step::<EDGE>(line, &mut ctx);
        }
    }

    /// The step of [`Cpu::exec_n`]: the reference step's charges with the
    /// fetch + op price from the table, then busy work's shadow overlap and
    /// its busy cycles, through `advance` when the ops may reach a
    /// governor-window edge or sampler tick.
    #[inline]
    fn exec_fast(&mut self, op: ExecOp, n: u64) {
        self.ensure_prices();
        let step = self.prices.busy(self.exec_cycles(op, n));
        let fits = self.budget().fits(self.time_s, step.dt);
        self.pmu.add(Event::Instructions, n);
        self.pmu.add(op.event(), n);
        let class = 2 + op.event() as u8;
        if self.last_class != class && self.last_class != u8::MAX {
            self.meter.charge(self.prices.decode);
        }
        self.last_class = class;
        self.meter.charge(crate::energy::scale_price(
            self.prices.exec[op as usize],
            n as f64,
        ));
        self.fill_shadow(step.cycles);
        if fits {
            self.busy_step::<false>(step);
        } else {
            self.busy_step::<true>(step);
        }
    }

    /// Busy cycles of `n` ops of `op` (the ARM core issues at half the
    /// width).
    #[inline]
    fn exec_cycles(&self, op: ExecOp, n: u64) -> f64 {
        let width_scale = if self.arch.kind == ArchKind::Arm {
            2.0
        } else {
            1.0
        };
        op.cycles(width_scale) * n as f64
    }

    // ------------------------------------------------------------------
    // The four verbs
    // ------------------------------------------------------------------

    /// Simulate one load of the line containing `addr`.
    pub fn load(&mut self, addr: u64, dep: Dep) {
        if self.reference {
            self.load_reference(addr, dep);
        } else {
            self.access_fast(addr, false, dep);
        }
    }

    /// Simulate one store to the line containing `addr`.
    pub fn store(&mut self, addr: u64) {
        if self.reference {
            self.store_reference(addr);
        } else {
            self.access_fast(addr, true, Dep::Stream);
        }
    }

    /// Simulate `n` repeated loads of the line containing `addr`.
    ///
    /// One probe finds the line resident in L1D (or in the TCM window), so
    /// all `n` loads are *known hits*, promoted in O(1) and charged in
    /// O(1) through the batched fast path: interpreter-style engines
    /// re-read the same hot structures hundreds of times per tuple, and
    /// simulating each probe individually would add nothing but
    /// wall-clock. When the line is absent, under a fillable chase shadow
    /// or with a governor-window edge or sampler tick inside the run, the
    /// first load goes through the full hierarchy and the rest batch up to
    /// the edge. Counters, joules and cycles are bit-identical to issuing
    /// the `n` loads one at a time.
    pub fn load_repeat(&mut self, addr: u64, n: u64) {
        self.repeat_access(addr, n, false);
    }

    /// Simulate `n` repeated stores to the line containing `addr` (known
    /// L1D/TCM hits after one probe, or a full-path first store when that
    /// probe cannot settle them — bit-identical to `n` scalar stores, like
    /// [`Cpu::load_repeat`]).
    pub fn store_repeat(&mut self, addr: u64, n: u64) {
        self.repeat_access(addr, n, true);
    }

    /// Simulate one execution-unit op.
    #[inline]
    pub fn exec(&mut self, op: ExecOp) {
        self.exec_n(op, 1);
    }

    /// Simulate `n` identical execution-unit ops.
    pub fn exec_n(&mut self, op: ExecOp, n: u64) {
        if n == 0 {
            return;
        }
        if self.reference {
            self.exec_n_reference(op, n);
        } else {
            self.exec_fast(op, n);
        }
    }

    /// Let wall time pass in C0-idle (the paper's background-measurement
    /// state, and what a thread blocked on I/O looks like with C-states off).
    pub fn idle_c0(&mut self, seconds: f64) {
        self.settle();
        let bg = self.model.background_w(self.pstate, false);
        self.pass_time(seconds, false, bg);
    }

    /// Deep idle (C-states enabled): much lower power.
    pub fn idle_deep(&mut self, seconds: f64) {
        self.settle();
        self.pass_time(seconds, false, self.model.idle_w());
    }

    // ------------------------------------------------------------------
    // Typed, simulating accessors
    // ------------------------------------------------------------------

    /// Load + read a `u64` at `addr`.
    pub fn read_u64(&mut self, addr: u64, dep: Dep) -> Result<u64, MemError> {
        self.load(addr, dep);
        self.arena.read_u64(addr)
    }

    /// Store + write a `u64` at `addr`.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemError> {
        self.store(addr);
        self.arena.write_u64(addr, v)
    }

    /// Load + read `out.len()` bytes (one simulated load per touched line,
    /// batched through [`Cpu::access_run`]).
    pub fn read_bytes(&mut self, addr: u64, out: &mut [u8], dep: Dep) -> Result<(), MemError> {
        let first = addr & !(crate::LINE - 1);
        let end = addr + out.len() as u64;
        self.access_run(first, (end - first).div_ceil(crate::LINE), false, dep);
        self.arena.read(addr, out)
    }

    /// Store + write `data` (one simulated store per touched line, batched
    /// through [`Cpu::access_run`]).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let first = addr & !(crate::LINE - 1);
        let end = addr + data.len() as u64;
        self.access_run(
            first,
            (end - first).div_ceil(crate::LINE),
            true,
            Dep::Stream,
        );
        self.arena.write(addr, data)
    }

    // ------------------------------------------------------------------
    // Meters
    // ------------------------------------------------------------------

    /// Cumulative RAPL reading (package ⊇ core; memory separate). On the ARM
    /// part there is no RAPL — use [`RaplReading::total_j`] as the external
    /// power meter's view.
    pub fn rapl(&self) -> RaplReading {
        self.meter.reading()
    }

    /// Snapshot the PMU with cycle counters synced.
    pub fn pmu_snapshot(&mut self) -> PmuSnapshot {
        self.pmu
            .set(Event::BusyCycles, self.busy_cycles.round() as u64);
        self.pmu
            .set(Event::StallCycles, self.stall_cycles.round() as u64);
        self.pmu.snapshot()
    }

    /// Begin a measurement window (settles outstanding shadow cycles first).
    pub fn begin_measure(&mut self) -> MeasureToken {
        self.settle();
        MeasureToken {
            pmu: self.pmu_snapshot(),
            rapl: self.rapl(),
            time_s: self.time_s,
            cycles: self.cycles(),
        }
    }

    /// Close a measurement window.
    pub fn end_measure(&mut self, tok: MeasureToken) -> Measurement {
        self.settle();
        let pmu = self.pmu_snapshot().delta(&tok.pmu);
        Measurement {
            pmu,
            rapl: self.rapl().delta(&tok.rapl),
            time_s: self.time_s - tok.time_s,
            cycles: self.cycles() - tok.cycles,
            pstate: self.pstate,
        }
    }

    /// Run `f` inside a measurement window.
    pub fn measure<F: FnOnce(&mut Cpu)>(&mut self, f: F) -> Measurement {
        let tok = self.begin_measure();
        f(self);
        self.end_measure(tok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> Cpu {
        let mut c = Cpu::new(ArchConfig::intel_i7_4790());
        c.set_prefetch(false);
        c
    }

    #[test]
    fn chase_loads_expose_latency_as_stall() {
        let mut c = cpu();
        let r = c.alloc(4096).unwrap();
        // Warm the line.
        c.load(r.addr, Dep::Stream);
        let m = c.measure(|c| {
            for _ in 0..1000 {
                c.load(r.addr, Dep::Chase);
            }
        });
        // L1 hit latency 4: 1 busy + 3 stall per load.
        let ipc = m.pmu.ipc();
        assert!(
            ipc > 0.2 && ipc < 0.3,
            "list-like IPC should be ~0.25, got {ipc}"
        );
    }

    #[test]
    fn stream_loads_are_dual_issued() {
        let mut c = cpu();
        let r = c.alloc(4096).unwrap();
        for i in 0..64 {
            c.load(r.addr + i * 64, Dep::Stream); // warm
        }
        let m = c.measure(|c| {
            for _ in 0..100 {
                for i in 0..64 {
                    c.load(r.addr + i * 64, Dep::Stream);
                }
            }
        });
        let ipc = m.pmu.ipc();
        assert!(
            ipc > 1.8 && ipc < 2.2,
            "array-like IPC should be ~2, got {ipc}"
        );
    }

    #[test]
    fn nops_fill_chase_shadow() {
        let mut c = cpu();
        let r = c.alloc(64).unwrap();
        c.load(r.addr, Dep::Stream);
        // chase + 4 nops: nops (1 cycle total) fill part of the 3-cycle shadow.
        let m = c.measure(|c| {
            for _ in 0..1000 {
                c.load(r.addr, Dep::Chase);
                c.exec_n(ExecOp::Nop, 4);
            }
        });
        let cycles = m.cycles / 1000.0;
        assert!(
            (cycles - 4.0).abs() < 0.1,
            "shadow should absorb nops, got {cycles}"
        );
        let stall_per = m.pmu.get(Event::StallCycles) as f64 / 1000.0;
        assert!(
            stall_per < 2.2,
            "stall should shrink to ~2, got {stall_per}"
        );
    }

    #[test]
    fn energy_flows_to_domains() {
        let mut c = cpu();
        let r = c.alloc(1 << 20).unwrap();
        let m = c.measure(|c| {
            for i in 0..(1 << 20) / 64 {
                c.load(r.addr + i * 64, Dep::Stream);
            }
        });
        assert!(m.rapl.core_j > 0.0);
        assert!(m.rapl.package_j >= m.rapl.core_j);
        assert!(m.rapl.memory_j > 0.0, "cold 1MB scan must touch DRAM");
    }

    #[test]
    fn idle_costs_background_only() {
        let mut c = cpu();
        let m0 = c.rapl();
        c.idle_c0(1.0);
        let d = c.rapl().delta(&m0);
        // Background power at P36 should be a few watts.
        assert!(d.package_j > 1.0 && d.package_j < 20.0, "pkg bg {:?}", d);
        assert!(d.memory_j > 0.5 && d.memory_j < 5.0);
        // Deep idle is far cheaper.
        let m1 = c.rapl();
        c.idle_deep(1.0);
        let d2 = c.rapl().delta(&m1);
        assert!(d2.package_j < d.package_j / 3.0);
    }

    #[test]
    fn lower_pstate_stretches_time_but_saves_energy_for_alu() {
        let work = |c: &mut Cpu| {
            c.exec_n(ExecOp::Add, 1_000_000);
        };
        let mut hi = cpu();
        let mhi = hi.measure(|c| work(c));
        let mut lo = cpu();
        lo.set_pstate(PState::P12);
        let mlo = lo.measure(|c| work(c));
        assert!(mlo.time_s > mhi.time_s * 2.5);
        // Active ALU energy shrinks with voltage; compare cores minus bg.
        assert!(mlo.rapl.core_j < mhi.rapl.core_j * 1.1);
    }

    #[test]
    fn governor_ramps_up_under_load() {
        let mut c = cpu();
        c.set_pstate(PState::P8);
        c.set_governor(true);
        c.exec_n(ExecOp::Add, 80_000_000);
        assert_eq!(c.pstate(), PState::P36);
    }

    #[test]
    fn governor_decays_during_io_waits() {
        let mut c = cpu();
        c.set_governor(true);
        assert_eq!(c.pstate(), PState::P36);
        c.idle_c0(0.05);
        assert!(
            c.pstate().0 < 36,
            "long idle should downclock, at {}",
            c.pstate()
        );
    }

    #[test]
    fn typed_accessors_simulate_and_move_bytes() {
        let mut c = cpu();
        let r = c.alloc(256).unwrap();
        c.write_u64(r.addr, 77).unwrap();
        assert_eq!(c.read_u64(r.addr, Dep::Stream).unwrap(), 77);
        let before = c.pmu_snapshot();
        let mut buf = [0u8; 128];
        c.read_bytes(r.addr, &mut buf, Dep::Stream).unwrap();
        let d = c.pmu_snapshot().delta(&before);
        assert_eq!(d.get(Event::LoadIssued), 2); // 128 B spans two lines
    }

    #[test]
    fn measure_is_delta_based() {
        let mut c = cpu();
        c.exec_n(ExecOp::Add, 1000);
        let m = c.measure(|c| c.exec_n(ExecOp::Nop, 500));
        assert_eq!(m.pmu.get(Event::NopOps), 500);
        assert_eq!(m.pmu.get(Event::AddOps), 0);
    }

    /// Exact equality of two measurements: PMU counts, RAPL bits, time and
    /// cycle bits. This is the fast path's contract — not "close enough".
    fn assert_identical(a: &Measurement, b: &Measurement) {
        assert_eq!(a.pmu, b.pmu, "PMU counters must be identical");
        assert_eq!(
            a.rapl.core_j.to_bits(),
            b.rapl.core_j.to_bits(),
            "core_j drifted: {} vs {}",
            a.rapl.core_j,
            b.rapl.core_j
        );
        assert_eq!(a.rapl.package_j.to_bits(), b.rapl.package_j.to_bits());
        assert_eq!(a.rapl.memory_j.to_bits(), b.rapl.memory_j.to_bits());
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
    }

    #[test]
    fn load_repeat_equals_individual_hot_loads() {
        // Batched hot loads must charge bit-identical energy and count the
        // same events as issuing each load individually against a resident
        // line.
        let mut a = cpu();
        let ra = a.alloc(64).unwrap();
        a.load_reference(ra.addr, Dep::Stream); // make resident
        let ta = a.begin_measure();
        for _ in 0..500 {
            a.load_reference(ra.addr, Dep::Stream);
        }
        let ma = a.end_measure(ta);

        let mut b = cpu();
        let rb = b.alloc(64).unwrap();
        b.load(rb.addr, Dep::Stream);
        let tb = b.begin_measure();
        b.load_repeat(rb.addr, 500);
        let mb = b.end_measure(tb);

        assert_identical(&ma, &mb);
        let st = b.run_stats();
        assert_eq!(
            st.batched_lines, 499,
            "the 499 repeats must take the fast path"
        );
    }

    #[test]
    fn access_run_equals_scalar_loop_on_warm_window() {
        // A warm 16 KB window: scalar per-line loads vs one access_run.
        let mut a = cpu();
        let ra = a.alloc(16 * 1024).unwrap();
        let mut b = cpu();
        let rb = b.alloc(16 * 1024).unwrap();
        for i in 0..256u64 {
            a.load_reference(ra.addr + i * 64, Dep::Stream);
            b.load(rb.addr + i * 64, Dep::Stream);
        }
        let ta = a.begin_measure();
        for _ in 0..4 {
            for i in 0..256u64 {
                a.load_reference(ra.addr + i * 64, Dep::Stream);
            }
            for i in 0..256u64 {
                a.store_reference(ra.addr + i * 64);
            }
        }
        let ma = a.end_measure(ta);

        let tb = b.begin_measure();
        for _ in 0..4 {
            b.access_run(rb.addr, 256, false, Dep::Stream);
            b.access_run(rb.addr, 256, true, Dep::Stream);
        }
        let mb = b.end_measure(tb);
        assert_identical(&ma, &mb);
        assert_eq!(mb.pmu.get(Event::L1dLoadHit), 4 * 256);
        assert_eq!(mb.pmu.get(Event::L1dStoreHit), 4 * 256);
        let st = b.run_stats();
        assert_eq!(st.batched_lines, 8 * 256);
        assert_eq!(st.fallbacks, 0);
    }

    #[test]
    fn access_run_equals_scalar_loop_on_cold_and_conflicting_runs() {
        let drive = |batched: bool| -> (Measurement, Cpu) {
            let mut c = Cpu::new(ArchConfig::intel_i7_4790());
            c.set_prefetch(true); // misses train the streamer — must match
            let r = c.alloc(1 << 20).unwrap();
            let t = c.begin_measure();
            // Cold sequential scan (row crossings every 8 KB), then a
            // set-conflict stride (4 KB apart → one L1D set), then a chase
            // run and a mixed rescan.
            if batched {
                c.access_run(r.addr, 2048, false, Dep::Stream);
                for i in 0..64u64 {
                    c.access_run(r.addr + i * 4096, 1, true, Dep::Stream);
                }
                c.access_run(r.addr, 16, false, Dep::Chase);
                c.access_run(r.addr + 64, 128, false, Dep::Stream);
            } else {
                for i in 0..2048u64 {
                    c.load_reference(r.addr + i * 64, Dep::Stream);
                }
                for i in 0..64u64 {
                    c.store_reference(r.addr + i * 4096);
                }
                for i in 0..16u64 {
                    c.load_reference(r.addr + i * 64, Dep::Chase);
                }
                for i in 0..128u64 {
                    c.load_reference(r.addr + 64 + i * 64, Dep::Stream);
                }
            }
            (c.end_measure(t), c)
        };
        let (ma, _a) = drive(false);
        let (mb, _b) = drive(true);
        assert_identical(&ma, &mb);
    }

    #[test]
    fn governed_and_sampled_rescans_stay_on_the_fast_path() {
        // Fig. 5's settings: 15 µs governor window, 10 µs sampler, prefetch
        // on. Batches must split only at the edges — a return to all-scalar
        // would stay bit-identical but give up the speedup.
        const PASSES: u64 = 1000;
        let drive = |batched: bool| -> (Measurement, Cpu) {
            let mut c = Cpu::new(ArchConfig::intel_i7_4790());
            c.set_prefetch(true);
            let r = c.alloc(16 * 1024).unwrap();
            for i in 0..256u64 {
                c.load_reference(r.addr + i * 64, Dep::Stream);
            }
            c.set_governor(true);
            c.set_governor_interval(15e-6);
            c.attach_sampler(10e-6);
            let t = c.begin_measure();
            for _ in 0..PASSES {
                if batched {
                    c.access_run(r.addr, 256, false, Dep::Stream);
                    c.access_run(r.addr, 256, true, Dep::Stream);
                } else {
                    for i in 0..256u64 {
                        c.load_reference(r.addr + i * 64, Dep::Stream);
                    }
                    for i in 0..256u64 {
                        c.store_reference(r.addr + i * 64);
                    }
                }
            }
            (c.end_measure(t), c)
        };
        let (ma, mut a) = drive(false);
        let (mb, mut b) = drive(true);
        assert_identical(&ma, &mb);
        assert_eq!(a.pstate(), b.pstate());
        let (sa, sb) = (a.take_sampler().unwrap(), b.take_sampler().unwrap());
        assert!(sa.samples.len() >= 10, "the run must cross sampler ticks");
        assert_eq!(sa.samples.len(), sb.samples.len());
        for (x, y) in sa.samples.iter().zip(&sb.samples) {
            assert_eq!(x.t_s.to_bits(), y.t_s.to_bits());
            assert_eq!(x.pstate, y.pstate);
            assert_eq!(x.utilization.to_bits(), y.utilization.to_bits());
            assert_eq!(x.rapl.total_j().to_bits(), y.rapl.total_j().to_bits());
        }
        let st = b.run_stats();
        let lines = PASSES * 512;
        assert_eq!(st.batched_lines + st.fallbacks, lines);
        assert!(
            st.fallbacks * 100 < lines,
            "only edge-crossing accesses may be stepped one at a time ({st:?})"
        );
    }

    #[test]
    fn run_stats_drain_to_process_totals_on_drop() {
        let _ = super::take_run_stats();
        {
            let mut c = cpu();
            let r = c.alloc(4096).unwrap();
            for i in 0..64u64 {
                c.load(r.addr + i * 64, Dep::Stream);
            }
            c.access_run(r.addr, 64, false, Dep::Stream);
            assert_eq!(c.run_stats().batched_lines, 64);
        }
        let st = super::take_run_stats();
        // Other tests may run concurrently and contribute; the drop above
        // guarantees at least this machine's counts are present.
        assert!(
            st.batched_lines >= 64,
            "dropped Cpu must flush batched={}",
            st.batched_lines
        );
    }

    #[test]
    fn store_repeat_counts_hits_and_zero_edge() {
        let mut c = cpu();
        let r = c.alloc(64).unwrap();
        c.store(r.addr); // allocate
        let t = c.begin_measure();
        c.store_repeat(r.addr, 100);
        c.store_repeat(r.addr, 0);
        c.load_repeat(r.addr, 0);
        let m = c.end_measure(t);
        assert_eq!(m.pmu.get(Event::StoreIssued), 100);
        assert_eq!(m.pmu.get(Event::L1dStoreHit), 100);
    }

    /// Repeats charged whole after one probe on this thread so far.
    fn one_probe_repeats() -> u64 {
        ONE_PROBE_REPEATS.with(|c| c.get())
    }

    #[test]
    fn repeat_on_a_resident_line_takes_one_probe() {
        // Results are bit-identical either way, so only this counter
        // notices a repeat that walks its first access and batches the
        // rest instead of charging all of it after one probe.
        let mut c = cpu();
        let r = c.alloc(4096).unwrap();
        c.load(r.addr, Dep::Stream);
        c.store(r.addr + 64);
        let before = one_probe_repeats();
        c.load_repeat(r.addr + 8, 120);
        c.store_repeat(r.addr + 64, 30);
        assert_eq!(one_probe_repeats(), before + 2, "resident lines");
        assert_eq!(c.run_stats().batched_lines, 119 + 29);
        let mut arm = Cpu::new(ArchConfig::arm1176jzf_s());
        let t = arm.alloc_tcm(1024).unwrap();
        arm.load_repeat(t.addr, 50);
        arm.store_repeat(t.addr + 64, 50);
        assert_eq!(one_probe_repeats(), before + 4, "TCM lines");

        // The repeats that keep the first access's walk: an absent line, a
        // fillable chase shadow, and an edge inside the run.
        c.load_repeat(r.addr + 128, 10);
        c.load(r.addr + 192, Dep::Chase);
        c.load_repeat(r.addr, 10);
        let mut g = cpu();
        let r = g.alloc(4096).unwrap();
        g.load(r.addr, Dep::Stream);
        g.set_governor(true);
        g.set_governor_interval(15e-6);
        g.idle_c0(15e-6 - 1e-9);
        g.load_repeat(r.addr, 10_000);
        assert_eq!(one_probe_repeats(), before + 4, "repeats that walk");
    }

    /// An access under test, at an address of the test region.
    type Access = fn(&mut Cpu, u64);

    /// Calls into the reference verbs on this thread so far.
    fn reference_calls() -> u64 {
        reference::CALLS.with(|c| c.get())
    }

    #[test]
    fn no_access_takes_the_reference_step_with_the_fast_path_on() {
        // Results are bit-identical either way, so only this counter
        // notices an access routed to the reference step. Run-verb
        // accesses stepped one at a time still count as fallbacks; single
        // accesses count nowhere.
        let calls = reference_calls();

        // Cold and warm loads and stores, a chase load, a load and a store
        // inside its shadow, an op block, TCM loads and stores.
        let mut c = cpu();
        let r = c.alloc(4096).unwrap();
        let (a, b) = (r.addr, r.addr + 64);
        for _ in 0..2 {
            c.load(a, Dep::Stream);
            c.store(b);
        }
        c.load(r.addr + 128, Dep::Chase);
        assert!(c.fillable > 0.0, "the chase load arms a fillable shadow");
        c.load(a, Dep::Stream);
        c.store(b);
        c.exec_n(ExecOp::Mul, 3);
        assert_eq!(c.run_stats(), RunStats::default(), "single verbs counted");

        // A clock a picosecond short of the governor's window end: each
        // single access crosses the edge, and the governor ticks inside it.
        let mut g = cpu();
        let r = g.alloc(4096).unwrap();
        g.set_governor(true);
        let singles: [(&str, Access); 4] = [
            ("cold load", |g, a| g.load(a, Dep::Stream)),
            ("cold store", |g, a| g.store(a + 64)),
            ("chase load", |g, a| g.load(a + 128, Dep::Chase)),
            ("op block", |g, _| g.exec_n(ExecOp::Mul, 3)),
        ];
        for (what, access) in singles {
            g.settle();
            g.set_governor_interval(15e-6);
            g.idle_c0(15e-6 - 1e-12);
            let window = g.win_start_s;
            access(&mut g, r.addr);
            assert!(g.win_start_s > window, "the {what} must cross the edge");
        }
        assert_eq!(g.run_stats(), RunStats::default(), "edge singles counted");

        // ARM TCM chase loads, single and inside a chase run.
        let mut arm = Cpu::new(ArchConfig::arm1176jzf_s());
        let t = arm.alloc_tcm(1024).unwrap();
        arm.load(t.addr, Dep::Stream);
        arm.store(t.addr);
        arm.load(t.addr, Dep::Chase);
        assert_eq!(arm.run_stats(), RunStats::default(), "TCM singles counted");
        arm.access_run(t.addr, 8, false, Dep::Chase);
        assert_eq!(arm.run_stats().fallbacks, 8, "a chase run's TCM lines");

        // Run-verb accesses under a fillable chase shadow.
        let runs: [(&str, Access); 3] = [
            ("access_run", |c, a| c.access_run(a, 4, false, Dep::Stream)),
            ("copy_run", |c, a| c.copy_run(a, 2)),
            ("load_repeat", |c, a| c.load_repeat(a, 4)),
        ];
        for (what, run) in runs {
            c.load(r.addr + 128, Dep::Chase);
            assert!(c.fillable > 0.0, "{what}: no fillable shadow");
            let before = c.run_stats().fallbacks;
            run(&mut c, r.addr);
            assert!(
                c.run_stats().fallbacks > before,
                "{what}: accesses under the shadow must count as fallbacks"
            );
        }

        assert_eq!(
            reference_calls(),
            calls,
            "an access took the reference step"
        );
        c.load_reference(r.addr, Dep::Stream);
        assert_eq!(reference_calls(), calls + 1, "the counter must count");
    }

    #[test]
    fn a_reference_machine_takes_the_reference_step_for_every_access() {
        // Every verb once: 8 stream lines, 8 stored lines, 4 chase lines, a
        // 3-line copy, two 5-access repeats, a load, a store and an op
        // block. Each access is one reference call; every run-verb line is
        // a fallback except a repeat's first access, a single access.
        let verbs = |c: &mut Cpu| {
            let r = c.alloc(4096).unwrap();
            c.access_run(r.addr, 8, false, Dep::Stream);
            c.access_run(r.addr + 512, 8, true, Dep::Stream);
            c.access_run(r.addr + 1024, 4, false, Dep::Chase);
            c.copy_run(r.addr + 2048, 3);
            c.load_repeat(r.addr, 5);
            c.store_repeat(r.addr + 64, 5);
            c.load(r.addr + 3072, Dep::Stream);
            c.store(r.addr + 3136);
            c.exec_n(ExecOp::Mul, 3);
        };
        let calls = reference_calls();
        let mut oracle = Cpu::new_reference(ArchConfig::intel_i7_4790());
        let m = oracle.measure(verbs);
        assert_eq!(reference_calls(), calls + 39, "reference steps");
        let st = oracle.run_stats();
        assert_eq!(st.served(), 0, "the oracle batched lines ({st:?})");
        assert_eq!(st.fallbacks, 34, "run-verb lines stepped alone ({st:?})");

        let mut fast = Cpu::new(ArchConfig::intel_i7_4790());
        assert_identical(&m, &fast.measure(verbs));
        assert_eq!(reference_calls(), calls + 39, "the fast machine's steps");
        assert!(fast.run_stats().served() > 0, "the fast machine batched");
    }

    #[test]
    fn itcm_discount_reduces_fetch_energy() {
        let work = |c: &mut Cpu| c.exec_n(ExecOp::Add, 100_000);
        let mut plain = Cpu::new(ArchConfig::arm1176jzf_s());
        let m1 = plain.measure(|c| work(c));
        let mut itcm = Cpu::new(ArchConfig::arm1176jzf_s());
        itcm.set_itcm_fetch_discount(0.4);
        let m2 = itcm.measure(|c| work(c));
        assert!(m2.rapl.core_j < m1.rapl.core_j);
        assert_eq!(m2.time_s, m1.time_s, "ITCM changes energy, not timing");
        // Clamping.
        itcm.set_itcm_fetch_discount(9.0);
    }

    #[test]
    fn arm_machine_runs_and_has_tcm() {
        let mut c = Cpu::new(ArchConfig::arm1176jzf_s());
        let t = c.alloc_tcm(1024).unwrap();
        let m = c.measure(|c| {
            for _ in 0..100 {
                c.load(t.addr, Dep::Chase);
            }
        });
        assert_eq!(m.pmu.get(Event::TcmLoad), 100);
        assert_eq!(m.pmu.get(Event::LoadIssued), 0);
        // TCM is "as fast as L1 cache" (ARM TRM): chase stalls match the
        // L1D hit latency, no more.
        let l1_lat = c.arch().l1d.latency_cycles as u64;
        assert_eq!(m.pmu.get(Event::StallCycles), 100 * (l1_lat - 1));
    }
}
