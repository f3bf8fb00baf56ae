//! §5 DVFS trade-off experiments: the frequency-for-energy comparison and
//! the plan-aware custom DVFS policy extension.

use std::any::Any;
use std::fmt::Write as _;

use analysis::active::active_energy;
use analysis::report::TextTable;
use engines::{DvfsAdvisor, EngineKind, Plan};
use microbench::runner::{bench_cpu, RunConfig};
use microbench::MicroBenchId;
use mjrt::experiment::downcast_shard;
use mjrt::{ExpCtx, Experiment, HarnessConfig, Report};
use simcore::{ArchConfig, PState};
use workloads::{BasicOp, TpchScale};

use crate::Rig;

/// One (time, Active energy) outcome of a scenario at one P-state.
struct Outcome {
    time_s: f64,
    active_j: f64,
}

/// §5 — DVFS trade-offs for memory-bound vs CPU-bound query scenarios,
/// P36 → P24. Three shards: the B_mem micro-benchmark, the PG index scan
/// and the PG table scan, each measured at both operating points.
pub struct Sec5DvfsTradeoff;

const SEC5_SCENARIOS: [&str; 3] = [
    "B_mem (memory-bound)",
    "PostgreSQL index scan",
    "PostgreSQL table scan",
];

impl Sec5DvfsTradeoff {
    fn bmem(ctx: &ExpCtx<'_>, ps: PState) -> Outcome {
        let table = ctx.table_x86(ps);
        let cfg = RunConfig {
            pstate: ps,
            target_ops: ctx.cfg.cal_ops,
            ..RunConfig::p36()
        };
        let mut cpu = bench_cpu(ArchConfig::intel_i7_4790(), &cfg);
        let run = MicroBenchId::Mem.run(&mut cpu, &cfg);
        ctx.record(&run.measurement);
        Outcome {
            time_s: run.measurement.time_s,
            active_j: active_energy(&run.measurement, &table.background).active_j,
        }
    }

    fn pg(ctx: &ExpCtx<'_>, op: BasicOp, ps: PState) -> Outcome {
        let table = ctx.table_x86(ps);
        // A larger-than-default scale makes the index scan genuinely
        // memory-bound (its random fetches overflow L3), which is the
        // regime the paper's Sec. 5 experiment probes.
        let scale = TpchScale(ctx.cfg.sec5_scale);
        let mut rig = Rig::builder(EngineKind::Pg)
            .scale(scale)
            .pstate(ps)
            .stats(ctx.stats_sink())
            .build();
        let (m, _) = rig.profile(&op.plan());
        Outcome {
            time_s: m.time_s,
            active_j: active_energy(&m, &table.background).active_j,
        }
    }
}

impl Experiment for Sec5DvfsTradeoff {
    fn name(&self) -> &'static str {
        "sec5_dvfs_tradeoff"
    }

    fn shards(&self, _cfg: &HarnessConfig) -> usize {
        SEC5_SCENARIOS.len()
    }

    fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
        let run = |ps| match shard {
            0 => Self::bmem(ctx, ps),
            1 => Self::pg(ctx, BasicOp::IndexScan, ps),
            _ => Self::pg(ctx, BasicOp::TableScan, ps),
        };
        let pair: (Outcome, Outcome) = (run(PState::P36), run(PState::P24));
        Box::new(pair)
    }

    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, _ctx: &ExpCtx<'_>) -> Report {
        let mut r = Report::new();
        writeln!(r, "== Sec. 5: trading frequency for energy (P36 -> P24) ==").unwrap();
        writeln!(r).unwrap();
        for (i, s) in shards.into_iter().enumerate() {
            let (hi, lo) = downcast_shard::<(Outcome, Outcome)>(self.name(), i, s);
            let perf_loss = (lo.time_s / hi.time_s - 1.0) * 100.0;
            let energy_saving = (1.0 - lo.active_j / hi.active_j) * 100.0;
            // Energy-efficiency = Perf/Energy (the paper's [14] metric).
            let eff_hi = 1.0 / (hi.time_s * hi.active_j);
            let eff_lo = 1.0 / (lo.time_s * lo.active_j);
            writeln!(
                r,
                "{}:\n  perf loss {perf_loss:+.1}% | Eactive saving {energy_saving:.1}% | energy-efficiency {:+.1}%\n",
                SEC5_SCENARIOS[i],
                (eff_lo / eff_hi - 1.0) * 100.0
            )
            .unwrap();
        }
        r
    }
}

/// Extension — the §5 customized DVFS policy in action. Three shards, one
/// per policy (pinned P36 / pinned P24 / plan-aware advisor), each running
/// the same mixed batch on its own rig.
pub struct ExtCustomDvfs;

const POLICIES: [&str; 3] = ["pinned P36", "pinned P24", "advisor"];

fn batch() -> Vec<(&'static str, Plan)> {
    vec![
        ("table scan+agg", workloads::BasicOp::GroupBy.plan()),
        ("index scan", workloads::BasicOp::IndexScan.plan()),
        ("select", workloads::BasicOp::Select.plan()),
        (
            "deep NL pipeline",
            Plan::scan("nation")
                .join(Plan::scan("supplier"), 0, 2)
                .join(Plan::scan("partsupp"), 3, 1)
                .join(Plan::scan("part"), 8, 0),
        ),
    ]
}

/// The batch runs at twice the trunk scale so the index-scan plans cross
/// L3 and genuinely benefit from downclocking.
fn dvfs_scale(cfg: &HarnessConfig) -> TpchScale {
    TpchScale(cfg.scale * 2.0)
}

impl Experiment for ExtCustomDvfs {
    fn name(&self) -> &'static str {
        "ext_custom_dvfs"
    }

    fn shards(&self, _cfg: &HarnessConfig) -> usize {
        POLICIES.len()
    }

    fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
        let policy = POLICIES[shard];
        let t36 = ctx.table_x86(PState::P36);
        let t24 = ctx.table_x86(PState::P24);
        let advisor = DvfsAdvisor::default();
        let mut rig = Rig::builder(EngineKind::Pg)
            .scale(dvfs_scale(ctx.cfg))
            .pstate(PState::P36)
            .stats(ctx.stats_sink())
            .build();
        let profile = EngineKind::Pg.profile();
        let (mut time, mut energy) = (0.0f64, 0.0f64);
        for (_, plan) in batch() {
            let ps = match policy {
                "pinned P36" => PState::P36,
                "pinned P24" => PState::P24,
                _ => advisor.recommend(&plan, profile),
            };
            rig.cpu.set_pstate(ps);
            let (m, _) = rig.profile(&plan);
            let table = if ps == PState::P36 { &t36 } else { &t24 };
            time += m.time_s;
            energy += active_energy(&m, &table.background).active_j;
        }
        let pair: (f64, f64) = (time, energy);
        Box::new(pair)
    }

    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, _ctx: &ExpCtx<'_>) -> Report {
        let mut t = TextTable::new(["policy", "time (ms)", "Eactive (J)", "Perf/Energy vs P36"]);
        let mut base_eff = None;
        for (i, s) in shards.into_iter().enumerate() {
            let (time, energy) = downcast_shard::<(f64, f64)>(self.name(), i, s);
            let eff = 1.0 / (time * energy);
            let rel = base_eff.map_or(100.0, |b| eff / b * 100.0);
            base_eff.get_or_insert(eff);
            t.row([
                POLICIES[i].to_owned(),
                format!("{:.3}", time * 1e3),
                format!("{energy:.5}"),
                format!("{rel:.1}%"),
            ]);
        }
        let mut r = Report::new();
        writeln!(r, "== Extension: plan-aware DVFS (PG, mixed batch) ==").unwrap();
        write!(r, "{}", t.render()).unwrap();
        writeln!(r, "\nper-plan advisor choices:").unwrap();
        let advisor = DvfsAdvisor::default();
        for (name, plan) in batch() {
            writeln!(
                r,
                "  {:<18} -> {}",
                name,
                advisor.recommend(&plan, EngineKind::Pg.profile())
            )
            .unwrap();
        }
        r
    }
}
