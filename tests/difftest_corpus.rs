//! Fixed-corpus differential regression (ISSUE 5 tentpole).
//!
//! Pins engine agreement on TPC-H Q1–Q22 and the 7 basic operations across
//! all five variants (pg / lite / my / vec on the i7-4790, SQLite+DTCM on
//! the ARM1176JZF-S), with the energy-accounting invariants enabled: PMU
//! conservation, batched fast-path reconciliation, and the bounded-residual
//! `Σ ΔE_m·N_m` vs `Eactive` model check against freshly calibrated tables.
//!
//! Also pins minimized reproducers for the latent bugs fixed alongside the
//! harness (see the satellite regression tests in their home crates for
//! the pre-fix failures; these are the SQL-level shapes).

use analysis::{CalibrationBuilder, EnergyTable};
use mjdiff::{judge, run_variant, DiffConfig, Engine, Variant};
use simcore::{ArchConfig, ArchKind};

fn quick_tables() -> (EnergyTable, EnergyTable) {
    let x86 = CalibrationBuilder::quick().calibrate().expect("x86 table");
    let arm = CalibrationBuilder::new(ArchConfig::arm1176jzf_s())
        .target_ops(20_000)
        .calibrate()
        .expect("arm table");
    (x86, arm)
}

#[test]
fn fixed_corpus_agrees_across_all_variants_under_invariants() {
    let (x86, arm) = quick_tables();
    let cfg = DiffConfig::default();
    let runs: Vec<_> = Variant::ALL
        .iter()
        .map(|&v| {
            let table = match v.arch() {
                ArchKind::X86 => &x86,
                ArchKind::Arm => &arm,
            };
            run_variant(v, &cfg, Some(table))
        })
        .collect();
    // Agreement alone would also pass if every variant failed alike.
    for run in &runs {
        for (i, digest) in &run.outcomes {
            assert!(
                digest.is_ok(),
                "case {i} on {}: {digest:?}",
                run.variant.name()
            );
        }
    }
    let report = judge(runs, &cfg);
    assert_eq!(report.cases, 29, "22 TPC-H + 7 basic ops");
    assert!(
        report.clean(),
        "disagreements: {:#?}\nviolations: {:#?}",
        report.disagreements,
        report.violations
    );
}

/// Minimized SQL reproducers for the fixed planner/executor bugs: each must
/// now *compile to an error* (not panic, not produce divergent plans).
#[test]
fn minimized_reproducers_for_fixed_bugs_error_cleanly() {
    let engine = Engine::build(Variant::Lite);
    // ORDER BY position past the output arity (pre-fix: executor panic at
    // `row[c]` on every engine).
    for sql in [
        "SELECT l_orderkey, l_partkey FROM lineitem ORDER BY 3",
        "SELECT l_returnflag, COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY 9",
    ] {
        assert!(
            matches!(
                sqlfe::compile(sql, engine.catalog()),
                Err(sqlfe::SqlError::Plan(_))
            ),
            "{sql} must be rejected at plan time"
        );
    }
    // Aggregate mixing a non-grouped column: a plan error, not a panic.
    assert!(sqlfe::compile(
        "SELECT l_quantity, COUNT(*) FROM lineitem GROUP BY l_returnflag",
        engine.catalog()
    )
    .is_err());
}
