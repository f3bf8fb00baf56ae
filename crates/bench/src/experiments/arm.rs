//! The ARM1176JZF-S proof-of-concept experiments: Fig. 13 (DTCM co-design
//! vs baseline SQLite) and the §4.2 strategy ablation.

use std::any::Any;
use std::fmt::Write as _;

use analysis::report::TextTable;
use engines::{dtcm, DtcmConfig, EngineKind, KnobLevel, Knobs};
use microbench::runner::{bench_cpu, RunConfig};
use microbench::MicroBenchId;
use mjrt::experiment::downcast_shard;
use mjrt::{ExpCtx, Experiment, HarnessConfig, Report};
use simcore::{ArchConfig, ArchKind, PState};
use storage::Row;
use workloads::{TpchQuery, TpchScale};

use crate::Rig;

const HOT_TABLES: [&str; 8] = [
    "lineitem", "orders", "customer", "part", "partsupp", "supplier", "nation", "region",
];

/// The paper's 10 MB / small-setting ARM rig, recording every
/// [`Rig::profile`] into the experiment's stats. `cfg` applies the §4.2
/// co-design with that budget split; `None` is the unmodified engine.
fn arm_rig(ctx: &ExpCtx<'_>, cfg: Option<DtcmConfig>) -> Rig {
    let mut rig = Rig::builder(EngineKind::Lite)
        .arch(ArchKind::Arm)
        .knobs(KnobLevel::Small)
        .scale(TpchScale(ctx.cfg.arm_scale))
        .raw_knobs(Knobs::arm_small())
        .stats(ctx.stats_sink())
        .build();
    if let Some(cfg) = cfg {
        dtcm::configure(&mut rig.cpu, &mut rig.db, &HOT_TABLES, cfg).expect("configure DTCM");
    }
    rig
}

fn canon(mut rows: Vec<Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// §4.3 / Fig. 13 — per-query energy saving and performance improvement of
/// the co-designed Lite engine vs. the unmodified one. Two shards: the peak
/// micro-benchmark saving and the full per-query comparison.
pub struct Fig13DtcmPoc;

/// Shard 1's output: the comparison table plus the aggregates the footer
/// derives its averages from.
struct Fig13Cmp {
    pins: usize,
    table: String,
    savings: Vec<f64>,
    perfs: Vec<f64>,
    rows_checked: usize,
}

impl Experiment for Fig13DtcmPoc {
    fn name(&self) -> &'static str {
        "fig13_dtcm_poc"
    }

    fn arch(&self) -> ArchKind {
        ArchKind::Arm
    }

    fn shards(&self, _cfg: &HarnessConfig) -> usize {
        2
    }

    fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
        if shard == 0 {
            // Peak saving: B_DTCM_array vs B_L1D_array on the ARM part.
            let cfg = RunConfig {
                pstate: PState(7),
                target_ops: ctx.cfg.cal_ops,
                ..RunConfig::p36()
            };
            let run = |id: MicroBenchId| {
                let mut cpu = bench_cpu(ArchConfig::arm1176jzf_s(), &cfg);
                let r = id.run(&mut cpu, &cfg);
                ctx.record(&r.measurement);
                r.measurement.rapl.total_j()
            };
            let pair: (f64, f64) = (run(MicroBenchId::L1dArray), run(MicroBenchId::DtcmArray));
            return Box::new(pair);
        }

        // Per-query comparison (ARM, small knobs, reduced 10 MB stand-in).
        let mut base = arm_rig(ctx, None);
        let mut opt = arm_rig(ctx, Some(DtcmConfig::default()));
        let pins = opt.db.pool().pinned_pages();

        let mut t = TextTable::new([
            "Query",
            "E_base (J)",
            "E_dtcm (J)",
            "saving%",
            "perf_improve%",
        ]);
        let (mut savings, mut perfs, mut rows_checked) = (Vec::new(), Vec::new(), 0usize);
        for q in TpchQuery::all() {
            let plan = q.plan();
            let (m_base, r_base) = base.profile(&plan);
            let (m_opt, r_opt) = opt.profile(&plan);
            assert_eq!(canon(r_base), canon(r_opt), "{} results diverged", q.name());
            rows_checked += 1;
            let saving = (1.0 - m_opt.rapl.total_j() / m_base.rapl.total_j()) * 100.0;
            let perf = (1.0 - m_opt.time_s / m_base.time_s) * 100.0;
            savings.push(saving);
            perfs.push(perf);
            t.row([
                q.name(),
                format!("{:.5}", m_base.rapl.total_j()),
                format!("{:.5}", m_opt.rapl.total_j()),
                format!("{saving:.2}"),
                format!("{perf:.2}"),
            ]);
        }
        Box::new(Fig13Cmp {
            pins,
            table: t.render(),
            savings,
            perfs,
            rows_checked,
        })
    }

    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, _ctx: &ExpCtx<'_>) -> Report {
        let mut it = shards.into_iter();
        let (e_l1d, e_tcm) =
            downcast_shard::<(f64, f64)>(self.name(), 0, it.next().expect("peak shard"));
        let cmp = downcast_shard::<Fig13Cmp>(self.name(), 1, it.next().expect("cmp shard"));
        let peak = (1.0 - e_tcm / e_l1d) * 100.0;

        let mut r = Report::new();
        writeln!(r, "== Sec 4.3: peak DTCM saving ==").unwrap();
        writeln!(
            r,
            "B_L1D_array {e_l1d:.4} J | B_DTCM_array {e_tcm:.4} J | peak saving {peak:.1}%\n"
        )
        .unwrap();
        writeln!(
            r,
            "DTCM pins: {} pages + 4 KB special variables\n",
            cmp.pins
        )
        .unwrap();
        writeln!(
            r,
            "== Fig. 13: per-query energy saving and performance improvement =="
        )
        .unwrap();
        write!(r, "{}", cmp.table).unwrap();
        let avg_saving = cmp.savings.iter().sum::<f64>() / cmp.savings.len() as f64;
        let avg_perf = cmp.perfs.iter().sum::<f64>() / cmp.perfs.len() as f64;
        let faster = cmp.perfs.iter().filter(|&&p| p > 0.0).count();
        writeln!(
            r,
            "\naverage saving {avg_saving:.2}% (= {:.0}% of the {peak:.1}% peak) | average perf {avg_perf:+.2}% | {faster}/{} queries faster | {} result sets verified equal",
            avg_saving / peak * 100.0,
            cmp.perfs.len(),
            cmp.rows_checked,
        )
        .unwrap();
        r
    }
}

/// One ablation configuration: its table label, the DTCM placement, and the
/// ITCM fetch discount (§5's closing suggestion).
struct Variant {
    label: &'static str,
    cfg: Option<DtcmConfig>,
    itcm: f64,
}

fn variants() -> [Variant; 6] {
    [
        Variant {
            label: "baseline",
            cfg: None,
            itcm: 0.0,
        },
        Variant {
            label: "buffer only (16K)",
            cfg: Some(DtcmConfig {
                buffer_bytes: 16 << 10,
                vars_bytes: 0,
                btree_bytes: 0,
            }),
            itcm: 0.0,
        },
        Variant {
            label: "special vars only (4K)",
            cfg: Some(DtcmConfig {
                buffer_bytes: 0,
                vars_bytes: 4 << 10,
                btree_bytes: 0,
            }),
            itcm: 0.0,
        },
        Variant {
            label: "btree tops only (12K)",
            cfg: Some(DtcmConfig {
                buffer_bytes: 0,
                vars_bytes: 0,
                btree_bytes: 12 << 10,
            }),
            itcm: 0.0,
        },
        Variant {
            label: "full co-design",
            cfg: Some(DtcmConfig::default()),
            itcm: 0.0,
        },
        Variant {
            label: "full + ITCM (sec. 5)",
            cfg: Some(DtcmConfig::default()),
            itcm: 0.4,
        },
    ]
}

/// Ablation of the §4.2 co-design strategies: which of the three DTCM
/// placements buys the energy saving and the performance improvement? One
/// shard per configuration (baseline, three single placements, the full
/// co-design, full + ITCM), each running the whole query suite.
pub struct AblationDtcm;

impl Experiment for AblationDtcm {
    fn name(&self) -> &'static str {
        "ablation_dtcm"
    }

    fn arch(&self) -> ArchKind {
        ArchKind::Arm
    }

    fn shards(&self, _cfg: &HarnessConfig) -> usize {
        variants().len()
    }

    fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
        let v = &variants()[shard];
        let mut rig = arm_rig(ctx, v.cfg);
        rig.cpu.set_itcm_fetch_discount(v.itcm);
        let (mut e, mut t) = (0.0, 0.0);
        for q in TpchQuery::all() {
            let (m, _) = rig.profile(&q.plan());
            e += m.rapl.total_j();
            t += m.time_s;
        }
        let pair: (f64, f64) = (e, t);
        Box::new(pair)
    }

    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, _ctx: &ExpCtx<'_>) -> Report {
        let totals: Vec<(f64, f64)> = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| downcast_shard::<(f64, f64)>(self.name(), i, s))
            .collect();
        let (be, bt) = totals[0];
        let mut t = TextTable::new(["configuration", "energy saving%", "perf improvement%"]);
        t.row(["baseline".to_owned(), "0.0".into(), "0.0".into()]);
        for (v, &(e, tt)) in variants().iter().zip(&totals).skip(1) {
            t.row([
                v.label.to_owned(),
                format!("{:.2}", (1.0 - e / be) * 100.0),
                format!("{:.2}", (1.0 - tt / bt) * 100.0),
            ]);
        }
        let mut r = Report::new();
        writeln!(
            r,
            "== Ablation: DTCM co-design strategies (suite totals) =="
        )
        .unwrap();
        write!(r, "{}", t.render()).unwrap();
        r
    }
}
