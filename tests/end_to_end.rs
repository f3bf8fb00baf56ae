//! Cross-crate integration tests: the full paper pipeline, end to end.
//!
//! These are the "does the reproduction actually reproduce" tests — they
//! calibrate, run real workloads through real engines on the simulated
//! machine, and assert the paper's *findings*, not implementation details.

use analysis::verify::{mean_accuracy, verify_all};
use analysis::{Breakdown, CalibrationBuilder, EnergyTable, MicroOp};
use engines::{dtcm, DtcmConfig, EngineKind, KnobLevel, Knobs};
use microbench::RunConfig;
use simcore::{ArchConfig, Cpu, PState};
use workloads::tpch::gen::build_tpch_db;
use workloads::{BasicOp, TpchQuery, TpchScale};

fn quick_table() -> EnergyTable {
    CalibrationBuilder::new(ArchConfig::intel_i7_4790())
        .target_ops(40_000)
        .calibrate()
        .expect("calibration")
}

fn breakdown_of(kind: EngineKind, table: &EnergyTable, plan: &engines::Plan) -> Breakdown {
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.set_prefetch(true);
    let mut db =
        build_tpch_db(&mut cpu, kind, KnobLevel::Baseline, TpchScale::tiny()).expect("load");
    db.session().run(&mut cpu, plan).expect("warm");
    let m = cpu.measure(|c| {
        db.session().run(c, plan).expect("measured");
    });
    table.breakdown(&m)
}

/// The headline finding: L1D load/store is the energy bottleneck of query
/// workloads — 39%–67% of Active energy — on every *row* engine. The
/// vectorized `vec` personality sits below the band by design — that is
/// the `ext_rowcol` result, asserted separately below.
#[test]
fn l1d_is_the_energy_bottleneck() {
    let table = quick_table();
    for kind in EngineKind::ROW {
        let parts: Vec<Breakdown> = [BasicOp::TableScan, BasicOp::Select, BasicOp::GroupBy]
            .iter()
            .map(|op| breakdown_of(kind, &table, &op.plan()))
            .collect();
        let merged = Breakdown::merge(&parts).expect("ops ran");
        let share = merged.l1d_share();
        assert!(
            (0.35..=0.80).contains(&share),
            "{}: EL1D+EReg2L1D = {:.1}% outside the paper band",
            kind.name(),
            share * 100.0
        );
        // And it must be the single largest component.
        for op in [
            MicroOp::L2,
            MicroOp::L3,
            MicroOp::Mem,
            MicroOp::Pf,
            MicroOp::Stall,
        ] {
            assert!(
                share > merged.share(op),
                "{}: {} exceeds the L1D share",
                kind.name(),
                op
            );
        }
    }
}

/// SQLite's sequential-scan bias gives it the highest L1D share (§3.3).
#[test]
fn sqlite_has_the_highest_l1d_share() {
    let table = quick_table();
    let plan = BasicOp::TableScan.plan();
    let shares: Vec<(EngineKind, f64)> = EngineKind::ALL
        .into_iter()
        .map(|k| (k, breakdown_of(k, &table, &plan).l1d_share()))
        .collect();
    let lite = shares
        .iter()
        .find(|(k, _)| *k == EngineKind::Lite)
        .expect("lite")
        .1;
    for (k, s) in &shares {
        if *k != EngineKind::Lite {
            assert!(
                lite > *s,
                "SQLite {lite:.3} must exceed {}: {s:.3}",
                k.name()
            );
        }
    }
}

/// The vectorized counterfactual: on the same operations, the `vec`
/// personality's L1D+Reg2L1D share must come in *below* every row
/// engine's — batches amortize the per-tuple state traffic that puts the
/// row trio in the 39–67% band (`ext_rowcol` quantifies this on TPC-H).
#[test]
fn vectorized_engine_cuts_the_l1d_share() {
    let table = quick_table();
    let ops = [BasicOp::TableScan, BasicOp::Select, BasicOp::GroupBy];
    let share_of = |kind: EngineKind| {
        let parts: Vec<Breakdown> = ops
            .iter()
            .map(|op| breakdown_of(kind, &table, &op.plan()))
            .collect();
        Breakdown::merge(&parts).expect("ops ran").l1d_share()
    };
    let vec_share = share_of(EngineKind::Vec);
    for kind in EngineKind::ROW {
        let row_share = share_of(kind);
        assert!(
            vec_share < row_share,
            "vec {:.1}% must undercut {} {:.1}%",
            vec_share * 100.0,
            kind.name(),
            row_share * 100.0
        );
    }
}

/// The calibration + verification pipeline meets the paper's accuracy band.
#[test]
fn verification_accuracy_in_paper_band() {
    let table = quick_table();
    let cfg = RunConfig {
        target_ops: 40_000,
        ..RunConfig::p36()
    };
    let results = verify_all(&table, &cfg);
    let mean = mean_accuracy(&results);
    assert!(mean > 0.85, "mean verification accuracy {mean:.3}");
    for r in &results {
        assert!(r.acc > 0.75, "{} accuracy {:.3}", r.name, r.acc);
    }
}

/// The DTCM co-design saves energy with no performance loss (§4.3), and
/// produces identical results.
#[test]
fn dtcm_poc_saves_energy_without_perf_loss() {
    let scale = TpchScale(1.0);
    let mut base_cpu = Cpu::new(ArchConfig::arm1176jzf_s());
    base_cpu.set_prefetch(true);
    let mut base =
        build_tpch_db(&mut base_cpu, EngineKind::Lite, KnobLevel::Small, scale).expect("load");
    base.knobs = Knobs::arm_small();

    let mut opt_cpu = Cpu::new(ArchConfig::arm1176jzf_s());
    opt_cpu.set_prefetch(true);
    let mut opt =
        build_tpch_db(&mut opt_cpu, EngineKind::Lite, KnobLevel::Small, scale).expect("load");
    opt.knobs = Knobs::arm_small();
    dtcm::configure(
        &mut opt_cpu,
        &mut opt,
        &["lineitem", "orders", "customer", "nation", "region"],
        DtcmConfig::default(),
    )
    .expect("configure");

    let (mut saved, mut total) = (0usize, 0usize);
    for qn in [1u8, 3, 6, 10, 12] {
        let plan = TpchQuery(qn).plan();
        let rb = base.session().run(&mut base_cpu, &plan).expect("warm b");
        let mb = base_cpu.measure(|c| {
            base.session().run(c, &plan).expect("base");
        });
        let ro = opt.session().run(&mut opt_cpu, &plan).expect("warm o");
        let mo = opt_cpu.measure(|c| {
            opt.session().run(c, &plan).expect("dtcm");
        });
        assert_eq!(rb.len(), ro.len(), "Q{qn} row counts diverge");
        total += 1;
        if mo.rapl.total_j() < mb.rapl.total_j() {
            saved += 1;
        }
        assert!(
            mo.time_s <= mb.time_s * 1.02,
            "Q{qn}: DTCM lost performance ({} vs {})",
            mo.time_s,
            mb.time_s
        );
    }
    assert!(
        saved * 2 > total,
        "DTCM saved energy on only {saved}/{total} queries"
    );
}

/// Lowering the P-state cuts micro-op energies on-chip but barely moves
/// DRAM energy (Table 2), and B_mem stays stall-dominated (Table 5).
#[test]
fn pstate_scaling_matches_tables_2_and_5() {
    let hi = quick_table();
    let lo = CalibrationBuilder::new(ArchConfig::intel_i7_4790())
        .pstate(PState::P12)
        .target_ops(40_000)
        .calibrate()
        .expect("calibration");
    assert!(lo.de(MicroOp::L1d) < hi.de(MicroOp::L1d) * 0.6);
    let mem_ratio = lo.de(MicroOp::Mem) / hi.de(MicroOp::Mem);
    assert!(
        mem_ratio > 0.90,
        "DRAM energy should be ~frequency-invariant: {mem_ratio}"
    );
}

/// Scale invariance (Fig. 8): growing the data does not dethrone L1D.
#[test]
fn l1d_bottleneck_survives_data_growth() {
    let table = quick_table();
    let plan = BasicOp::TableScan.plan();
    for scale in [TpchScale(0.5), TpchScale(2.0)] {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        cpu.set_prefetch(true);
        let mut db =
            build_tpch_db(&mut cpu, EngineKind::Pg, KnobLevel::Baseline, scale).expect("load");
        db.session().run(&mut cpu, &plan).expect("warm");
        let m = cpu.measure(|c| {
            db.session().run(c, &plan).expect("measured");
        });
        let bd = table.breakdown(&m);
        assert!(
            bd.l1d_share() > 0.30,
            "scale {:?}: L1D share fell to {:.1}%",
            scale,
            bd.l1d_share() * 100.0
        );
    }
}

/// §7's question, answered by the `nosql` extension: the L1D bottleneck
/// does NOT generalise to thin point-read KV workloads — their energy goes
/// to stalls and data movement instead.
#[test]
fn nosql_point_reads_are_not_l1d_bound() {
    let table = quick_table();
    // Relational table scan (L1D-bound, per the paper).
    let scan_bd = breakdown_of(EngineKind::Lite, &table, &BasicOp::TableScan.plan());

    // LSM point reads.
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.set_prefetch(true);
    let mut store = nosql::LsmStore::open(&mut cpu, nosql::LsmConfig::default()).unwrap();
    let mut w =
        nosql::Workload::load(&mut cpu, &mut store, nosql::YcsbMix::C, 10_000, 100).unwrap();
    w.run(&mut cpu, &mut store, 500).unwrap(); // warm
    let m = cpu.measure(|c| {
        w.run(c, &mut store, 2_000).unwrap();
    });
    let kv_bd = table.breakdown(&m);

    assert!(
        scan_bd.l1d_share() > kv_bd.l1d_share() * 2.0,
        "relational scan {:.2} should dwarf KV point reads {:.2}",
        scan_bd.l1d_share(),
        kv_bd.l1d_share()
    );
    assert!(
        kv_bd.share(MicroOp::Stall) > scan_bd.share(MicroOp::Stall),
        "KV point reads should stall more"
    );
}

/// Fig. 7 per-query claim: "the percent of EL1D+EReg2L1D of 76% queries is
/// greater than 40%" — check a majority clears the bar here too.
#[test]
fn most_tpch_queries_clear_the_l1d_bar() {
    let table = quick_table();
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    cpu.set_prefetch(true);
    let mut db = build_tpch_db(
        &mut cpu,
        EngineKind::Lite,
        KnobLevel::Baseline,
        TpchScale::tiny(),
    )
    .expect("load");
    let mut above = 0;
    let mut total = 0;
    for q in TpchQuery::all() {
        let plan = q.plan();
        db.session().run(&mut cpu, &plan).expect("warm");
        let m = cpu.measure(|c| {
            db.session().run(c, &plan).expect("measured");
        });
        let bd = table.breakdown(&m);
        total += 1;
        if bd.l1d_share() > 0.40 {
            above += 1;
        }
    }
    assert!(
        above * 100 >= total * 60,
        "only {above}/{total} queries above 40% L1D share"
    );
}
