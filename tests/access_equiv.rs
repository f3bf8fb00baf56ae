//! Differential test for the memory-access fast path against its oracle.
//!
//! `Cpu::access_run` / `Cpu::copy_run` / the repeat verbs, and the single
//! verbs `Cpu::load` / `Cpu::store` / `Cpu::exec_n` themselves, promise
//! that for *any* access sequence the PMU counters, RAPL joules and
//! timeline cycles are bit-identical to issuing the same accesses one at a
//! time through the reference step. Production never calls that step; it
//! is the oracle. This test replays traces twice on ordinary machines —
//! once expanded to the reference verbs (`load_reference`,
//! `store_reference`, `exec_n_reference`), once through the public entry
//! points — and compares the two `Measurement`s exactly (`f64::to_bits`,
//! not an epsilon). `tests/fastpath_equiv.rs` makes the same comparison
//! on whole engine workloads, through a machine that takes the reference
//! step for every verb (`Cpu::new_reference`).
//!
//! Traces cover the randomized case plus the adversarial shapes that have
//! historically broken "fast path equals slow path" claims: set-conflict
//! strides that evict mid-run, cold runs crossing DRAM row boundaries with
//! the prefetcher on, runs and single accesses straddling the TCM window on
//! the ARM part, chase shadows draining into a run or a copy or filled by
//! op blocks, and P-state changes between runs.
//!
//! With the EIST governor on or a timeline sampler attached, the batching
//! regimes run only up to the next governor-window edge or sampler tick,
//! and the access that may reach it takes the one-access step with its
//! time passed through `advance`. The edge traces put an edge inside every
//! fast regime — hot batch, repeat, fused cold segment, chase step, copy,
//! single access — and `check` then also compares every timeline
//! sample and the final P-state bit for bit, so a governor tick or sample
//! taken one access late fails the test.
//!
//! A run of identical known hits (hot batch, repeat, TCM run) advances
//! every accumulator by an exact per-binade closed form rather than one
//! addition per hit, and a repeat on a resident or TCM line is charged
//! whole after one probe. The long traces start 100,000-access repeats,
//! hot runs and identical rescans on a fresh machine, where every
//! accumulator is zero and crosses many binades inside one call, with and
//! without fig. 5's governor and sampler; the repeat traces also probe
//! absent lines, TCM lines on either side of its limit and lines under a
//! fillable chase shadow.

mod common;

use common::{assert_identical, assert_same_samples};
use simcore::{ArchConfig, Cpu, Dep, ExecOp, PState, RunStats, LINE};

/// xorshift64* — deterministic, no external dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

/// One step of a replayable access trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A sequential run of `lines` line accesses from `addr`.
    Run {
        addr: u64,
        lines: u64,
        write: bool,
        dep: Dep,
    },
    /// `n` repeated accesses of one line.
    Repeat {
        addr: u64,
        n: u64,
        write: bool,
    },
    Load {
        addr: u64,
        dep: Dep,
    },
    Store {
        addr: u64,
    },
    /// A line-granular copy (`Cpu::copy_run`) of `lines` lines from `addr`.
    Copy {
        addr: u64,
        lines: u64,
    },
    /// `n` ops of one class (`Cpu::exec_n`).
    Exec(ExecOp, u64),
    SetPstate(u8),
    /// C0 idle for the given seconds: with the governor on, a long gap
    /// decays the P-state, and the following work ramps it back.
    Idle(f64),
}

/// Replay through the reference verbs only (the reference semantics: the
/// per-access step every fast step must reproduce bit for bit).
fn replay_scalar(cpu: &mut Cpu, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Run {
                addr,
                lines,
                write,
                dep,
            } => {
                let base = addr & !(LINE - 1);
                for i in 0..lines {
                    if write {
                        cpu.store_reference(base + i * LINE);
                    } else {
                        cpu.load_reference(base + i * LINE, dep);
                    }
                }
            }
            Op::Repeat { addr, n, write } => {
                for _ in 0..n {
                    if write {
                        cpu.store_reference(addr);
                    } else {
                        cpu.load_reference(addr, Dep::Stream);
                    }
                }
            }
            Op::Copy { addr, lines } => {
                let base = addr & !(LINE - 1);
                for i in 0..lines {
                    cpu.load_reference(base + i * LINE, Dep::Stream);
                    cpu.store_reference(base + i * LINE);
                }
            }
            Op::Load { addr, dep } => cpu.load_reference(addr, dep),
            Op::Store { addr } => cpu.store_reference(addr),
            Op::Exec(op, n) => cpu.exec_n_reference(op, n),
            Op::SetPstate(n) => cpu.set_pstate(PState(n)),
            Op::Idle(s) => cpu.idle_c0(s),
        }
    }
}

/// Replay through the batched entry points.
fn replay_batched(cpu: &mut Cpu, ops: &[Op]) {
    for &op in ops {
        match op {
            Op::Run {
                addr,
                lines,
                write,
                dep,
            } => cpu.access_run(addr, lines, write, dep),
            Op::Repeat { addr, n, write } => {
                if write {
                    cpu.store_repeat(addr, n);
                } else {
                    cpu.load_repeat(addr, n);
                }
            }
            Op::Copy { addr, lines } => cpu.copy_run(addr, lines),
            Op::Load { addr, dep } => cpu.load(addr, dep),
            Op::Store { addr } => cpu.store(addr),
            Op::Exec(op, n) => cpu.exec_n(op, n),
            Op::SetPstate(n) => cpu.set_pstate(PState(n)),
            Op::Idle(s) => cpu.idle_c0(s),
        }
    }
}

/// Run `ops` on two identically-configured CPUs and demand bit equality of
/// the measurement, the final P-state and the timeline samples (when
/// `setup` attached a sampler). `setup` runs on both before the measured
/// window (knobs, warming). Returns the batched CPU's fast-path counters.
fn check(arch: fn() -> ArchConfig, setup: impl Fn(&mut Cpu), ops: &[Op], what: &str) -> RunStats {
    let mut scalar_cpu = Cpu::new(arch());
    let mut batched_cpu = Cpu::new(arch());
    scalar_cpu.alloc(1 << 21).unwrap();
    batched_cpu.alloc(1 << 21).unwrap();
    setup(&mut scalar_cpu);
    setup(&mut batched_cpu);
    let scalar = scalar_cpu.measure(|c| replay_scalar(c, ops));
    let batched = batched_cpu.measure(|c| replay_batched(c, ops));
    assert_identical(&scalar, &batched, what);
    assert_eq!(
        scalar_cpu.pstate(),
        batched_cpu.pstate(),
        "{what}: final P-state diverged"
    );
    match (scalar_cpu.take_sampler(), batched_cpu.take_sampler()) {
        (Some(a), Some(b)) => assert_same_samples(&a.samples, &b.samples, what),
        (None, None) => {}
        _ => unreachable!("both CPUs ran the same setup"),
    }
    batched_cpu.run_stats()
}

/// A uniformly drawn op class.
fn exec_op(rng: &mut Rng) -> ExecOp {
    match rng.below(5) {
        0 => ExecOp::Add,
        1 => ExecOp::Nop,
        2 => ExecOp::Mul,
        3 => ExecOp::Branch,
        _ => ExecOp::Generic,
    }
}

/// A randomized mix of runs, repeats, scalar accesses, exec ops and
/// frequency changes over a 1 MB region.
fn random_trace(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let base = 1 << 21; // first DRAM-side alloc lands here on x86 (tcm=0)
    let span = 1 << 20;
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let addr = base + rng.below(span);
        ops.push(match rng.below(10) {
            0..=3 => Op::Run {
                addr,
                lines: rng.below(96), // includes zero-length runs
                write: rng.flip(),
                dep: if rng.below(4) == 0 {
                    Dep::Chase
                } else {
                    Dep::Stream
                },
            },
            4 => Op::Repeat {
                addr,
                n: rng.below(64),
                write: rng.flip(),
            },
            5..=6 => Op::Load {
                addr,
                dep: if rng.flip() { Dep::Chase } else { Dep::Stream },
            },
            7 => Op::Store { addr },
            8 => Op::Exec(exec_op(&mut rng), 1),
            _ => Op::SetPstate(8 + (rng.below(29) as u8)),
        });
    }
    ops
}

#[test]
fn randomized_traces_are_bit_identical() {
    for seed in 1..=8u64 {
        check(
            ArchConfig::intel_i7_4790,
            |_| {},
            &random_trace(seed, 400),
            &format!("random seed {seed}"),
        );
    }
}

#[test]
fn randomized_traces_with_prefetcher_are_bit_identical() {
    for seed in 100..=104u64 {
        check(
            ArchConfig::intel_i7_4790,
            |c| c.set_prefetch(true),
            &random_trace(seed, 400),
            &format!("random+prefetch seed {seed}"),
        );
    }
}

#[test]
fn set_conflict_strides_evict_mid_run_identically() {
    // 32 KB / 64 B / 8 ways = 64 sets → stride 4096 maps every access to one
    // L1D set. Interleaving conflict stores with re-scans forces evictions
    // in the middle of otherwise-resident runs.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for pass in 0..3u64 {
        for i in 0..32u64 {
            ops.push(Op::Store {
                addr: base + i * 4096 + pass * LINE,
            });
        }
        ops.push(Op::Run {
            addr: base,
            lines: 256,
            write: false,
            dep: Dep::Stream,
        });
        ops.push(Op::Run {
            addr: base,
            lines: 256,
            write: pass & 1 == 1,
            dep: Dep::Stream,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "set-conflict stride",
    );
}

#[test]
fn cold_runs_crossing_dram_rows_are_identical() {
    // 8 KB DRAM rows = 128 lines. A 700-line cold run crosses five row
    // boundaries; with the prefetcher on, every miss also perturbs the
    // streamer state. The fast path must fall back per missing line.
    let base: u64 = 1 << 21;
    let ops = [
        Op::Run {
            addr: base,
            lines: 700,
            write: false,
            dep: Dep::Stream,
        },
        Op::Run {
            addr: base,
            lines: 700,
            write: true,
            dep: Dep::Stream,
        },
        // Second pass is L2/L3-resident but not L1-resident: still scalar.
        Op::Run {
            addr: base,
            lines: 700,
            write: false,
            dep: Dep::Stream,
        },
    ];
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "row-crossing cold run",
    );
}

#[test]
fn chase_shadow_drains_into_run_identically() {
    // A chase load leaves a fillable out-of-order shadow; the first lines
    // of the next run must drain it one access at a time before the batch
    // can resume.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for i in 0..16u64 {
        ops.push(Op::Run {
            addr: base,
            lines: 64,
            write: false,
            dep: Dep::Stream,
        }); // warm
        ops.push(Op::Load {
            addr: base + (1 << 19) + i * 8192,
            dep: Dep::Chase,
        });
        ops.push(Op::Run {
            addr: base,
            lines: 64,
            write: i & 1 == 0,
            dep: Dep::Stream,
        });
        ops.push(Op::Repeat {
            addr: base + 64,
            n: 50,
            write: false,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |_| {},
        &ops,
        "chase shadow drain",
    );
}

/// ARM1176: addresses 0..32768 are the data TCM. Runs that start inside
/// the window and extend past it must split TCM-batch / cache-scalar at
/// exactly the boundary.
fn tcm_straddle_trace() -> Vec<Op> {
    let tcm_end: u64 = 32 * 1024;
    let mut ops = vec![
        Op::Run {
            addr: 0,
            lines: 512,
            write: false,
            dep: Dep::Stream,
        }, // whole TCM window
        Op::Run {
            addr: tcm_end - 4 * LINE,
            lines: 16,
            write: false,
            dep: Dep::Stream,
        },
        Op::Run {
            addr: tcm_end - 7 * LINE + 5, // unaligned straddle
            lines: 32,
            write: true,
            dep: Dep::Stream,
        },
        Op::Repeat {
            addr: 128,
            n: 100,
            write: false,
        },
        Op::Repeat {
            addr: tcm_end + 128,
            n: 100,
            write: true,
        },
    ];
    // And a randomized tail around the boundary.
    let mut rng = Rng::new(0xa11);
    for _ in 0..120 {
        ops.push(Op::Run {
            addr: tcm_end.saturating_sub(rng.below(16 * LINE)) + rng.below(32 * LINE),
            lines: rng.below(24),
            write: rng.flip(),
            dep: if rng.below(5) == 0 {
                Dep::Chase
            } else {
                Dep::Stream
            },
        });
    }
    ops
}

#[test]
fn tcm_straddling_runs_on_arm_are_identical() {
    check(
        ArchConfig::arm1176jzf_s,
        |_| {},
        &tcm_straddle_trace(),
        "TCM straddle",
    );
}

#[test]
fn tcm_straddle_with_governor_on_arm_is_identical() {
    // The ARM part runs pinned at P7 (700 MHz), but the governor still
    // closes a window every 70 cycles and the sampler ticks every 35: edges
    // land inside TCM batches, cache-side batches and repeats alike.
    let st = check(
        ArchConfig::arm1176jzf_s,
        edges(1e-7, 5e-8, false),
        &tcm_straddle_trace(),
        "TCM straddle, governor + sampler",
    );
    assert_split(st.batched_lines, st, "TCM straddle, governor + sampler");
}

#[test]
fn governor_and_sampler_modes_stay_identical() {
    // The default 1 ms governor window and a 10 µs sampler: batches split
    // at the few edges the trace crosses.
    let ops = random_trace(0x60_5e_44, 300);
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_governor(true),
        &ops,
        "governor on",
    );
    check(
        ArchConfig::intel_i7_4790,
        |c| c.attach_sampler(1e-5),
        &ops,
        "sampler attached",
    );
    check(
        ArchConfig::intel_i7_4790,
        |c| {
            c.set_governor(true);
            c.attach_sampler(1e-5);
            c.set_prefetch(true);
        },
        &ops,
        "governor + sampler + prefetch",
    );
}

/// Edge-trace setup: the governor on with a `governor_s` window, a sampler
/// ticking every `sampler_s`, and the prefetcher as given. Intervals of a
/// few dozen to a few hundred cycles put edges inside nearly every batch.
fn edges(governor_s: f64, sampler_s: f64, prefetch: bool) -> impl Fn(&mut Cpu) {
    move |c: &mut Cpu| {
        c.set_prefetch(prefetch);
        c.set_governor(true);
        c.set_governor_interval(governor_s);
        c.attach_sampler(sampler_s);
    }
}

/// An edge trace must exercise both sides of the split: `fast` lines went
/// through the regime under test and some accesses were stepped one at a
/// time (fallbacks).
fn assert_split(fast: u64, st: RunStats, what: &str) {
    assert!(fast > 0, "{what}: the regime under test never ran ({st:?})");
    assert!(
        st.fallbacks > 0,
        "{what}: no edge split the regime under test ({st:?})"
    );
}

/// A sequential run from `line` (a line index into the test region).
fn run(line: u64, lines: u64, write: bool, dep: Dep) -> Op {
    Op::Run {
        addr: (1 << 21) + line * LINE,
        lines,
        write,
        dep,
    }
}

#[test]
fn edge_inside_hot_batch_is_identical() {
    // A 480-line rescan of an L1D-resident window costs 240 cycles reading
    // and 480 writing; windows of 36 and 54 cycles split every batch.
    let mut ops = vec![run(0, 480, false, Dep::Stream)];
    for i in 0..6u64 {
        ops.push(run(0, 480, false, Dep::Stream));
        ops.push(run(0, 480, true, Dep::Stream));
        ops.push(Op::Exec(ExecOp::Mul, 1));
        ops.push(run(i, 400, false, Dep::Stream));
    }
    let st = check(
        ArchConfig::intel_i7_4790,
        edges(1.5e-8, 1e-8, false),
        &ops,
        "edge inside hot batch",
    );
    assert_split(st.batched_lines, st, "edge inside hot batch");
}

#[test]
fn edge_inside_identical_hot_rescans_is_identical() {
    // Identical 64-line rescans each take one hot batch (32 cycles
    // reading); roughly one in twenty straddles an edge and must split.
    let mut ops = vec![run(0, 64, false, Dep::Stream)];
    ops.extend(std::iter::repeat_n(run(0, 64, false, Dep::Stream), 200));
    ops.extend(std::iter::repeat_n(run(0, 64, true, Dep::Stream), 100));
    let what = "edge inside identical hot rescans";
    let st = check(
        ArchConfig::intel_i7_4790,
        edges(3e-7, 2e-7, true),
        &ops,
        what,
    );
    assert_split(st.batched_lines, st, what);
}

#[test]
fn edge_inside_repeat_is_identical() {
    let mut ops = Vec::new();
    for i in 0..20u64 {
        ops.push(Op::Repeat {
            addr: (1 << 21) + i * LINE + 8,
            n: 400,
            write: false,
        });
        ops.push(Op::Repeat {
            addr: (1 << 21) + i * LINE,
            n: 300,
            write: true,
        });
    }
    let st = check(
        ArchConfig::intel_i7_4790,
        edges(1.5e-8, 1e-8, false),
        &ops,
        "edge inside repeat",
    );
    assert_split(st.batched_lines, st, "edge inside repeat");
}

/// Long repeats, hot runs and identical rescans on a fresh machine: every
/// accumulator starts at zero, so the closed forms that charge a run of
/// known hits cross many binades inside one call. The first repeat walks
/// its absent line; the others take one probe of a resident line.
fn long_hot_trace() -> Vec<Op> {
    let repeat = |line: u64, n: u64, write: bool| Op::Repeat {
        addr: (1 << 21) + line * LINE + 8,
        n,
        write,
    };
    let mut ops = vec![
        repeat(0, 100_000, false),
        repeat(0, 100_000, false),
        repeat(0, 60_000, true),
        repeat(1, 1, true),
        repeat(1, 2, false),
    ];
    for i in 0..40u64 {
        ops.push(run(0, 480, i % 3 == 2, Dep::Stream));
    }
    ops.extend(std::iter::repeat_n(run(0, 64, false, Dep::Stream), 300));
    ops.push(repeat(3, 99_999, false));
    ops.push(repeat(0, 100_000, true));
    ops
}

#[test]
fn long_repeats_and_hot_runs_from_zero_are_identical() {
    let st = check(
        ArchConfig::intel_i7_4790,
        |_| {},
        &long_hot_trace(),
        "long repeats and hot runs",
    );
    assert!(
        st.batched_lines > 450_000,
        "long repeats and hot runs: the hot regimes must carry the trace ({st:?})"
    );
}

#[test]
fn long_repeats_under_fig5_governor_and_sampler_are_identical() {
    // Fig. 5's 15 µs governor window and 10 µs sampler: a 100,000-load
    // repeat takes about 14 µs, so edges fall inside the long repeats, and
    // the window accumulators restart near zero after every edge.
    let what = "long repeats, fig. 5 governor + sampler";
    let setup = edges(15e-6, 10e-6, true);
    let st = check(ArchConfig::intel_i7_4790, &setup, &long_hot_trace(), what);
    assert_split(st.batched_lines, st, what);
    let n = sample_count(ArchConfig::intel_i7_4790, &setup, &long_hot_trace());
    assert!(n >= 5, "{what}: too few ticks crossed ({n})");
}

#[test]
fn repeats_on_absent_lines_and_under_a_chase_shadow_are_identical() {
    // Nine lines 4 KB apart share one 8-way L1D set, so each round of
    // repeats evicts the line the next round starts with: every first
    // repeat of a line walks it in (from DRAM in the first round, from L2
    // after), the second takes one probe. A
    // DRAM chase load in between leaves a fillable shadow that the next
    // repeat drains one access at a time.
    let mut ops = Vec::new();
    for round in 0..4u64 {
        for i in 0..9u64 {
            let addr = (1 << 21) + i * 4096 + round * 8;
            let write = (i + round) % 3 == 0;
            ops.push(Op::Repeat {
                addr,
                n: 200 + i,
                write,
            });
            ops.push(Op::Repeat {
                addr,
                n: 300,
                write: !write,
            });
            ops.push(load(16_384 + round * 640 + i * 67, Dep::Chase));
            ops.push(Op::Repeat { addr, n: 40, write });
        }
    }
    let what = "repeats on absent lines and under a chase shadow";
    let plain = check(ArchConfig::intel_i7_4790, |_| {}, &ops, what);
    let edged = check(
        ArchConfig::intel_i7_4790,
        edges(3e-7, 2e-7, true),
        &ops,
        &format!("{what}, governor + sampler"),
    );
    for st in [plain, edged] {
        assert!(
            st.fallbacks > 0 && st.batched_lines > 0,
            "{what}: repeats must run both under the shadow and batched ({st:?})"
        );
    }
}

#[test]
fn repeats_on_tcm_and_across_its_limit_are_identical() {
    // ARM1176 from a fresh machine: long TCM repeats with every
    // accumulator at zero, then repeats on the last TCM line and the first
    // line past the 32 KB limit (absent, then resident), and TCM and cache
    // repeats under a DRAM chase load's shadow; then again with edges
    // every 70 and 35 cycles.
    let tcm_end: u64 = 32 * 1024;
    let repeat = |addr: u64, n: u64, write: bool| Op::Repeat { addr, n, write };
    let mut ops = vec![
        repeat(8, 100_000, false),
        repeat(LINE, 50_000, true),
        repeat(tcm_end - LINE, 1000, false),
        repeat(tcm_end - 1, 1000, true),
        repeat(tcm_end, 1000, false),
        repeat(tcm_end + 8, 1000, true),
        repeat(tcm_end + LINE - 1, 1000, false),
    ];
    for i in 0..8u64 {
        ops.push(Op::Load {
            addr: tcm_end + (64 + i * 37) * LINE,
            dep: Dep::Chase,
        });
        ops.push(repeat(tcm_end - (1 + i % 2) * LINE, 30, i % 3 == 0));
        ops.push(Op::Load {
            addr: tcm_end + (512 + i * 37) * LINE,
            dep: Dep::Chase,
        });
        ops.push(repeat(tcm_end + i % 2 * LINE, 30, i % 3 == 1));
    }
    check(ArchConfig::arm1176jzf_s, |_| {}, &ops, "TCM repeats");
    let st = check(
        ArchConfig::arm1176jzf_s,
        edges(1e-7, 5e-8, false),
        &ops,
        "TCM repeats, governor + sampler",
    );
    assert_split(st.batched_lines, st, "TCM repeats, governor + sampler");
}

#[test]
fn edge_inside_fused_cold_segment_is_identical() {
    // Cold reads from DRAM, cold write-allocates and an L2/L3-resident
    // rescan, with the prefetcher trained: one stream step may take up to
    // ~33 cycles, so the last tenth of every 360-cycle window goes scalar
    // and the rest stays on the fused walk.
    let ops = [
        run(0, 3000, false, Dep::Stream),
        run(3000, 3000, true, Dep::Stream),
        run(0, 3000, false, Dep::Stream),
        run(1500, 3000, true, Dep::Stream),
    ];
    let st = check(
        ArchConfig::intel_i7_4790,
        edges(1.5e-7, 1e-7, true),
        &ops,
        "edge inside fused cold segment",
    );
    assert_split(st.cold_batched_lines, st, "edge inside fused cold segment");
}

#[test]
fn edge_inside_chase_with_pending_shadow_is_identical() {
    // DRAM chase loads leave a ~258-cycle shadow that the next chase step
    // settles; stream runs after a chase drain its fillable part first.
    let mut ops = vec![run(0, 64, false, Dep::Stream)];
    for i in 0..8u64 {
        ops.push(run(16_384 + i * 128, 40, false, Dep::Chase));
        ops.push(run(0, 64, false, Dep::Chase));
        ops.push(run(0, 64, i & 1 == 0, Dep::Stream));
        ops.push(Op::Load {
            addr: (1 << 21) + (24_000 + i * 64) * LINE,
            dep: Dep::Chase,
        });
        ops.push(Op::Repeat {
            addr: 1 << 21,
            n: 40,
            write: false,
        });
    }
    let st = check(
        ArchConfig::intel_i7_4790,
        edges(3e-7, 2e-7, true),
        &ops,
        "edge inside chase step",
    );
    assert_split(st.cold_batched_lines, st, "edge inside chase step");
}

#[test]
fn edge_inside_copy_run_is_identical() {
    let ops = [
        Op::Copy {
            addr: 1 << 21,
            lines: 1500,
        },
        Op::Copy {
            addr: 1 << 21,
            lines: 300,
        },
        Op::Copy {
            addr: (1 << 21) + 900 * LINE + 17,
            lines: 1200,
        },
    ];
    let st = check(
        ArchConfig::intel_i7_4790,
        edges(3e-7, 2e-7, true),
        &ops,
        "edge inside copy_run",
    );
    assert_split(
        st.batched_lines + st.cold_batched_lines,
        st,
        "edge inside copy_run",
    );
}

#[test]
fn governor_decay_and_ramp_rebuild_prices_mid_run() {
    // Each idle gap spans dozens of 50 ns governor windows at zero
    // utilization, so the P-state decays to P8; the busy work after it
    // ramps back by four bins per window. Prices change at edges inside
    // hot batches, repeats, cold segments, chase runs and copies.
    let mut ops = Vec::new();
    for i in 0..4u64 {
        ops.push(Op::Idle(2e-6));
        ops.push(run(0, 480, false, Dep::Stream));
        ops.push(run(0, 480, true, Dep::Stream));
        ops.push(run(4096 + i * 700, 700, false, Dep::Stream));
        ops.push(run(16_384 + i * 64, 30, false, Dep::Chase));
        ops.push(Op::Repeat {
            addr: (1 << 21) + 3 * LINE,
            n: 300,
            write: i & 1 == 1,
        });
        ops.push(Op::Copy {
            addr: (1 << 21) + (8192 + i * 200) * LINE,
            lines: 200,
        });
    }
    let setup = edges(5e-8, 4e-8, true);
    let st = check(
        ArchConfig::intel_i7_4790,
        &setup,
        &ops,
        "governor decay and ramp",
    );
    assert_split(
        st.batched_lines + st.cold_batched_lines,
        st,
        "governor decay and ramp",
    );
    // The trace must really move the P-state both ways.
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.alloc(1 << 21).unwrap();
    setup(&mut cpu);
    replay_batched(&mut cpu, &ops);
    let sampler = cpu.take_sampler().unwrap();
    assert!(sampler.residency(PState::P8) > 0.0, "idle must decay to P8");
    assert!(
        sampler.residency(PState::P36) > 0.0,
        "work must ramp to P36"
    );
}

#[test]
fn sampler_tick_inside_its_tolerance_is_identical() {
    // The sampler fires once the clock is within 1e-12 s of its next tick.
    // An interval of 64 hot loads plus a fraction of that tolerance ends
    // the 64th load inside the band: the scalar loop samples right there,
    // so neither a batch nor a repeat may run past it.
    let dt = 0.5 / 3.6e9; // one load-issue slot at P36
    for frac in [0.2, 0.5, 0.8] {
        let setup = move |c: &mut Cpu| {
            c.set_prefetch(false);
            for i in 0..256u64 {
                c.load((1 << 21) + i * LINE, Dep::Stream);
            }
            c.attach_sampler(64.0 * dt + frac * 1e-12);
        };
        let mut ops = vec![run(0, 256, false, Dep::Stream); 4];
        ops.push(Op::Repeat {
            addr: (1 << 21) + 7 * LINE,
            n: 512,
            write: false,
        });
        let what = format!("tick inside tolerance, frac {frac}");
        let st = check(ArchConfig::intel_i7_4790, setup, &ops, &what);
        assert_split(st.batched_lines, st, &what);
    }
}

#[test]
fn randomized_traces_with_edges_are_bit_identical() {
    for seed in 200..=203u64 {
        let mut ops = random_trace(seed, 300);
        for at in [60, 150, 240] {
            ops.insert(at, Op::Idle(1e-6));
        }
        check(
            ArchConfig::intel_i7_4790,
            edges(1e-7, 7e-8, seed & 1 == 0),
            &ops,
            &format!("random with edges, seed {seed}"),
        );
    }
}

/// A single load of line `line` of the test region.
fn load(line: u64, dep: Dep) -> Op {
    Op::Load {
        addr: (1 << 21) + line * LINE,
        dep,
    }
}

/// A single store to line `line` of the test region.
fn store(line: u64) -> Op {
    Op::Store {
        addr: (1 << 21) + line * LINE,
    }
}

/// How many timeline samples `ops` emit on a fresh machine under `setup`.
fn sample_count(arch: fn() -> ArchConfig, setup: impl Fn(&mut Cpu), ops: &[Op]) -> usize {
    let mut cpu = Cpu::new(arch());
    cpu.alloc(1 << 21).unwrap();
    setup(&mut cpu);
    replay_batched(&mut cpu, ops);
    cpu.take_sampler().map_or(0, |s| s.samples.len())
}

#[test]
fn single_verbs_at_edges_are_identical() {
    // Only single loads, stores and op blocks, under 54- and 36-cycle
    // windows: cold misses (up to ~33 cycles each), warm hits, chases and
    // blocks of up to 96 cycles all straddle edges, and idle gaps decay the
    // governor so that prices change between single accesses too.
    let mut ops = Vec::new();
    for pass in 0..3u64 {
        ops.push(Op::Idle(2e-7));
        for i in 0..300u64 {
            ops.push(load(i, Dep::Stream));
            if i % 5 == 0 {
                ops.push(store(512 + pass * 1000 + i));
            }
            if i % 17 == 0 {
                ops.push(load(4096 + i * 67 + pass, Dep::Chase));
            }
            if i % 7 == 0 {
                ops.push(Op::Exec(ExecOp::Mul, 1 + i % 96));
            }
        }
    }
    for prefetch in [false, true] {
        let what = format!("single verbs at edges, prefetch {prefetch}");
        let setup = edges(1.5e-8, 1e-8, prefetch);
        check(ArchConfig::intel_i7_4790, &setup, &ops, &what);
        let n = sample_count(ArchConfig::intel_i7_4790, &setup, &ops);
        assert!(n >= 300, "{what}: the trace must cross many ticks ({n})");
    }
}

#[test]
fn exec_n_inside_chase_shadow_is_identical() {
    // A chase load leaves up to 16 fillable shadow cycles (3 after an L1D
    // hit, 16 after DRAM). Op blocks of a quarter cycle to 40 cycles fill
    // part of it, exactly all of it or overflow it, before the next chase
    // settles what is left as stall.
    let mut rng = Rng::new(0x5ad0);
    let mut ops = vec![run(0, 64, false, Dep::Stream)];
    for i in 0..60u64 {
        let line = if i % 3 == 0 { i % 64 } else { 8192 + i * 131 };
        ops.push(load(line, Dep::Chase));
        // 64 nops are exactly 16 cycles: the whole fillable part.
        if i % 5 == 0 {
            ops.push(Op::Exec(ExecOp::Nop, 64));
        }
        for _ in 0..rng.below(4) {
            ops.push(Op::Exec(exec_op(&mut rng), 1 + rng.below(40)));
        }
    }
    check(
        ArchConfig::intel_i7_4790,
        |_| {},
        &ops,
        "exec_n inside chase shadow",
    );
    check(
        ArchConfig::intel_i7_4790,
        edges(3e-8, 2e-8, true),
        &ops,
        "exec_n inside chase shadow, governor + sampler",
    );
}

#[test]
fn stream_load_under_fillable_shadow_is_identical() {
    // After a DRAM chase, single stream loads (warm hits and cold misses)
    // and stores drain the 16 fillable cycles through the fast step's
    // shadow overlap, half a cycle per load and one per store, and the
    // accesses after the shadow is drained find none left to fill.
    let mut ops = vec![run(0, 128, false, Dep::Stream)];
    for i in 0..32u64 {
        ops.push(load(16_384 + i * 97, Dep::Chase));
        for k in 0..40u64 {
            let line = if k % 4 == 3 { 4096 + i * 40 + k } else { k };
            ops.push(load(line, Dep::Stream));
            if k % 9 == 0 {
                ops.push(store(64 + k));
            }
        }
        ops.push(Op::Exec(ExecOp::Add, 3));
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "stream load under fillable shadow",
    );
    check(
        ArchConfig::intel_i7_4790,
        edges(3e-7, 2e-7, true),
        &ops,
        "stream load under fillable shadow, governor + sampler",
    );
}

#[test]
fn copy_run_under_fillable_shadow_is_identical() {
    // A chase load leaves a fillable shadow (3 cycles after an L1D hit, 16
    // after DRAM). The copy right after it steps its first pairs one at a
    // time, each load filling half a cycle and each store one, until the
    // shadow drains and the fused copy resumes; copies run over warm and
    // cold lines alike.
    let mut ops = vec![run(0, 64, false, Dep::Stream)];
    for i in 0..24u64 {
        let chased = if i % 2 == 0 { i } else { 16_384 + i * 97 };
        ops.push(load(chased, Dep::Chase));
        ops.push(Op::Copy {
            addr: (1 << 21) + (32 + i * 16) * LINE,
            lines: 24,
        });
    }
    let plain = check(ArchConfig::intel_i7_4790, |_| {}, &ops, "copy in shadow");
    let edged = check(
        ArchConfig::intel_i7_4790,
        edges(3e-8, 2e-8, true),
        &ops,
        "copy in shadow, governor + sampler",
    );
    for st in [plain, edged] {
        assert!(
            st.fallbacks > 0 && st.batched_lines + st.cold_batched_lines > 0,
            "copy pairs must run both under the shadow and fused ({st:?})"
        );
    }
}

#[test]
fn single_accesses_on_arm_tcm_are_identical() {
    // ARM1176: single loads (stream and chase), stores and op blocks deep
    // inside the 32 KB data TCM and within 24 lines either side of its
    // limit, unaligned, so the TCM/cache split of the single step is taken
    // in both directions; then again with edges every 70 and 35 cycles.
    let tcm_end: u64 = 32 * 1024;
    let mut rng = Rng::new(0x7c3);
    let mut ops = Vec::new();
    for i in 0..800u64 {
        let addr = if i % 4 == 0 {
            rng.below(tcm_end)
        } else {
            tcm_end - 24 * LINE + rng.below(48 * LINE)
        };
        ops.push(match rng.below(8) {
            0..=2 => Op::Load {
                addr,
                dep: Dep::Stream,
            },
            3..=4 => Op::Load {
                addr,
                dep: Dep::Chase,
            },
            5..=6 => Op::Store { addr },
            _ => Op::Exec(exec_op(&mut rng), 1 + rng.below(8)),
        });
    }
    check(
        ArchConfig::arm1176jzf_s,
        |_| {},
        &ops,
        "single TCM accesses",
    );
    let setup = edges(1e-7, 5e-8, false);
    check(
        ArchConfig::arm1176jzf_s,
        &setup,
        &ops,
        "single TCM accesses, governor + sampler",
    );
    let n = sample_count(ArchConfig::arm1176jzf_s, &setup, &ops);
    assert!(n >= 50, "single TCM accesses: too few ticks crossed ({n})");
}

/// A randomized trace of single loads, stores, op blocks, frequency
/// changes and idle gaps. Three in four accesses revisit a 24 KB window
/// (mostly L1D hits), the rest land anywhere in 1 MB; addresses are
/// unaligned.
fn random_single_trace(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let line = if rng.below(4) == 0 {
            rng.below(16_384)
        } else {
            rng.below(384)
        };
        let addr = (1 << 21) + line * LINE + rng.below(LINE);
        ops.push(match rng.below(12) {
            0..=4 => Op::Load {
                addr,
                dep: Dep::Stream,
            },
            5..=6 => Op::Load {
                addr,
                dep: Dep::Chase,
            },
            7..=8 => Op::Store { addr },
            9..=10 => Op::Exec(exec_op(&mut rng), 1 + rng.below(48)),
            _ if rng.below(4) == 0 => Op::Idle(3e-7),
            _ => Op::SetPstate(8 + (rng.below(29) as u8)),
        });
    }
    ops
}

#[test]
fn randomized_single_verb_traces_with_edges_are_bit_identical() {
    for seed in 300..=303u64 {
        let what = format!("random single verbs with edges, seed {seed}");
        let setup = edges(1e-7, 7e-8, seed & 1 == 0);
        let ops = random_single_trace(seed, 1500);
        check(ArchConfig::intel_i7_4790, &setup, &ops, &what);
        let n = sample_count(ArchConfig::intel_i7_4790, &setup, &ops);
        assert!(n >= 50, "{what}: too few ticks crossed ({n})");
    }
}

#[test]
fn batched_replay_actually_batches() {
    // Guard against the fast path silently degrading to all-scalar (which
    // would pass every equivalence test while delivering zero speedup).
    let base: u64 = 1 << 21;
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.alloc(1 << 21).unwrap();
    let warm = Op::Run {
        addr: base,
        lines: 256,
        write: false,
        dep: Dep::Stream,
    };
    replay_batched(&mut cpu, &[warm; 4]);
    let st = cpu.run_stats();
    assert!(
        st.batched_lines >= 3 * 256,
        "warm rescans must take the hot batch ({st:?})"
    );
    assert!(
        st.cold_batched_lines >= 256,
        "the cold first pass must go through the fused cold path ({st:?})"
    );
    assert_eq!(st.replayed_lines, 0, "nothing counts as replayed ({st:?})");
    assert_eq!(
        st.fallbacks, 0,
        "nothing here needs a fallback step ({st:?})"
    );
}

#[test]
fn cold_run_crossing_row_boundary_mid_run_is_identical() {
    // 8 KB DRAM rows = 128 lines. Starting mid-row puts the row crossing in
    // the middle of the fused cold segment, with the prefetcher running
    // ahead across the boundary — the row-hit/row-miss split must land on
    // exactly the same accesses as the scalar walk.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for (i, k) in [100u64, 120, 127].into_iter().enumerate() {
        ops.push(Op::Run {
            addr: base + k * LINE,
            lines: 96,
            write: false,
            dep: Dep::Stream,
        });
        ops.push(Op::Run {
            addr: base + (k + 1024 + 256 * i as u64) * LINE,
            lines: 96,
            write: true,
            dep: Dep::Stream,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "row boundary mid-run",
    );
}

#[test]
fn cold_run_reconflicting_with_just_evicted_set_is_identical() {
    // Stride-4096 stores keep one L1D set boiling; each cold rescan then
    // re-conflicts with lines evicted moments earlier, so the fused walk's
    // victim choices and writeback charges must track the scalar LRU state
    // exactly — including dirty victims rippling into L2/L3.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    for pass in 0..4u64 {
        for i in 0..16u64 {
            ops.push(Op::Store {
                addr: base + i * 4096,
            });
        }
        ops.push(Op::Run {
            addr: base + pass * LINE,
            lines: 300,
            write: pass & 1 == 0,
            dep: Dep::Stream,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "re-conflict with just-evicted set",
    );
}

#[test]
fn prefetcher_trained_run_interrupted_by_chase_is_identical() {
    // Ascending runs train the streamer; interleaved chase bursts to far
    // addresses retrain other streams, evict prefetched lines and leave a
    // chase shadow, then the ascending pattern resumes. Cursor
    // continuation and fast-forward must reproduce the scalar streamer
    // state across every interruption.
    let base: u64 = 1 << 21;
    let mut ops = Vec::new();
    let mut at = 0u64;
    for i in 0..12u64 {
        ops.push(Op::Run {
            addr: base + at * LINE,
            lines: 40,
            write: false,
            dep: Dep::Stream,
        });
        at += 40;
        ops.push(Op::Run {
            addr: base + (1 << 19) + i * 8192,
            lines: 3,
            write: false,
            dep: Dep::Chase,
        });
    }
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "chase-interrupted trained run",
    );
}

#[test]
fn replay_invalidated_by_intervening_write_is_detected() {
    // Identical rescans with conflicting stores in between: the stores
    // evict one line of the run, so the next rescan's hot batch must stop
    // at that line and hand the rest of the run to the cold walk, which
    // charges it as the miss it now is — checked differentially and via
    // the hot and cold counters.
    let base: u64 = 1 << 21;
    let run = Op::Run {
        addr: base,
        lines: 64,
        write: false,
        dep: Dep::Stream,
    };
    let mut ops = vec![run, run, run, run]; // cold, then three hot rescans
    for k in 1..=9u64 {
        // Nine ways' worth of stride-4096 conflicts into set 5 evict the
        // run's line at base + 5*LINE.
        ops.push(Op::Store {
            addr: base + 5 * LINE + k * 4096,
        });
    }
    ops.push(run); // 5 hits, the evicted line, 58 hits in the cold walk
    ops.push(run); // all hits again
    ops.push(run);
    check(
        ArchConfig::intel_i7_4790,
        |c| c.set_prefetch(true),
        &ops,
        "replay invalidated by intervening write",
    );

    // Counter check. The cold first pass is 64 cold lines. The rescan
    // after the stores batches lines 0-4, misses line 5 and takes the
    // other 58 as hits inside the cold walk, which count as batched. Every
    // other rescan is 64 batched lines. The stores are single verbs, which
    // count nowhere.
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.set_prefetch(true);
    cpu.alloc(1 << 21).unwrap();
    replay_batched(&mut cpu, &ops);
    let st = cpu.run_stats();
    let expect = RunStats {
        batched_lines: 5 * 64 + 5 + 58,
        cold_batched_lines: 64 + 1,
        ..RunStats::default()
    };
    assert_eq!(
        st, expect,
        "the hot batch must stop at the evicted line ({st:?})"
    );
}

#[test]
fn soa_cache_and_stamp_oracle_agree_on_victim_sequences() {
    // The SoA representation (compacted tag array + per-set rank word)
    // replaced the per-way LRU stamps; the retained stamp model is the
    // oracle. Drive both through the adversarial single-cache shapes — cold
    // sequential fills, stride conflicts that hammer one set, repeats,
    // invalidation holes, the fused walk's way-level primitives and random
    // mixes — and demand the *entire* victim sequence (every Fill's
    // writeback/evicted address) plus every hit/miss outcome be identical. LRU order is all victim selection
    // observes, so any divergence here is a representation bug.
    use simcore::cache::{oracle::StampCache, Cache};
    use simcore::CacheConfig;

    for &(size, ways) in &[
        (64 * 8 * 64, 8),    // i7-4790 L1D geometry
        (256 * 16 * 64, 16), // L3-like 16-way
        (4 * 2 * 64, 2),     // tiny, maximal conflict pressure
    ] {
        let cfg = CacheConfig {
            size,
            ways,
            latency_cycles: 1,
        };
        let mut c = Cache::new(&cfg);
        let mut o = StampCache::new(&cfg);
        let mut rng = Rng::new(0xa076_1d64_78bd_642f ^ size);
        let span_lines = 4 * (size / 64); // 4× capacity: constant eviction
        let (mut fills, mut touches) = (0u64, 0u64);
        for step in 0..6000u64 {
            let a = rng.below(span_lines) * LINE;
            match rng.below(11) {
                // Miss-then-fill, the demand pattern of the hierarchy.
                0..=3 => {
                    let w = rng.flip();
                    let hit = c.access(a, w);
                    assert_eq!(hit, o.access(a, w), "access {a} at step {step}");
                    if hit == simcore::cache::Lookup::Miss {
                        let d = rng.flip();
                        assert_eq!(
                            c.fill(a, d, false),
                            o.fill(a, d, false),
                            "demand fill {a} at step {step}"
                        );
                        fills += 1;
                    }
                }
                // Prefetch-style fill with no preceding access.
                4..=5 => {
                    let (d, p) = (rng.flip(), rng.flip());
                    assert_eq!(c.fill(a, d, p), o.fill(a, d, p), "fill {a} at step {step}");
                    fills += 1;
                }
                // Stride-conflict burst into one set (max-way walk shape).
                6 => {
                    let sets = size / 64 / u64::from(ways);
                    for k in 0..(ways as u64 + 2) {
                        let conflict = (a + k * sets * LINE) % (span_lines * LINE);
                        assert_eq!(
                            c.fill(conflict, k & 1 == 0, false),
                            o.fill(conflict, k & 1 == 0, false),
                            "conflict fill {conflict} at step {step}"
                        );
                        fills += 1;
                    }
                }
                7 => {
                    let n = rng.below(32);
                    let w = rng.flip();
                    assert_eq!(
                        c.access_run(a, n, w),
                        o.access_run(a, n, w),
                        "run {a} at step {step}"
                    );
                }
                8 => {
                    assert_eq!(c.invalidate(a), o.invalidate(a), "invalidate {a}");
                }
                // The fused walk's primitives: find_way then touch_way on a
                // hit, victim_way then install_at on a miss.
                9 => {
                    let way = c.find_way(a);
                    assert_eq!(way, o.find_way(a), "find_way {a} at step {step}");
                    let w = rng.flip();
                    match way {
                        Some(way) => {
                            assert_eq!(
                                c.touch_way(way, w),
                                o.touch_way(way, w),
                                "touch_way {a} at step {step}"
                            );
                            touches += 1;
                        }
                        None => {
                            let victim = c.victim_way(a);
                            assert_eq!(victim, o.victim_way(a), "victim_way {a} at step {step}");
                            let p = rng.flip();
                            assert_eq!(
                                c.install_at(a, victim, w, p),
                                o.install_at(a, victim, w, p),
                                "install_at {a} at step {step}"
                            );
                            fills += 1;
                        }
                    }
                }
                _ => {
                    let n = rng.below(16);
                    let w = rng.flip();
                    assert_eq!(
                        c.access_repeat(a, n, w),
                        o.access_repeat(a, n, w),
                        "repeat {a} at step {step}"
                    );
                }
            }
        }
        assert_eq!(c.resident(), o.resident(), "final residency");
        assert!(fills > 4000, "trace must keep the sets boiling ({fills})");
        assert!(touches > 40, "the primitives arm must hit too ({touches})");
    }
}
