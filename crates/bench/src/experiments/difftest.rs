//! The differential correctness harness (`mjdiff`) as a registered
//! experiment: one shard per engine variant, `--jobs`-independent by
//! construction.
//!
//! Each shard is one [`mjdiff::run_variant`] under the calibrated table
//! for its variant's machine; `assemble` hands the runs to
//! [`mjdiff::judge`] (engines are rebuilt only on its cold minimization
//! path) and renders the report. Every failure line starts with
//! `DIFF-FAIL`, and any failure marks the report failed, so `repro_all`
//! exits 1.
//!
//! The fuzz count is the harness's `--diff-fuzz` flag; the fuzz seed is
//! [`mjdiff::SEED`], so a failing run reproduces with the same flags.

use std::any::Any;
use std::fmt::Write as _;

use mjdiff::{corpus, judge, run_variant, DiffConfig, Variant, VariantRun};
use mjrt::experiment::downcast_shard;
use mjrt::{ExpCtx, Experiment, HarnessConfig, Report};
use simcore::{ArchKind, PState};

/// Prefix of every failure line in the report.
const FAIL_MARK: &str = "DIFF-FAIL";

/// The operating point each variant's machine runs at (its architecture's
/// maximum — what `Cpu::new` pins), and hence the table to check against.
fn pstate_of(v: Variant) -> PState {
    match v.arch() {
        ArchKind::X86 => PState::P36,
        ArchKind::Arm => PState(7),
    }
}

/// The differential run `--diff-fuzz` selects.
fn config(ctx: &ExpCtx<'_>) -> DiffConfig {
    DiffConfig {
        fuzz: ctx.cfg.diff_fuzz,
        ..DiffConfig::default()
    }
}

/// Differential correctness across the four engine personalities (pg /
/// lite / my / vec) plus the ARM DTCM co-design (extension; underpins
/// every cross-engine figure).
pub struct Difftest;

impl Experiment for Difftest {
    fn name(&self) -> &'static str {
        "difftest"
    }

    fn shards(&self, _cfg: &HarnessConfig) -> usize {
        Variant::ALL.len()
    }

    fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
        let variant = Variant::ALL[shard];
        let table = ctx.table(variant.arch(), pstate_of(variant));
        Box::new(run_variant(variant, &config(ctx), Some(&table)))
    }

    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, ctx: &ExpCtx<'_>) -> Report {
        let runs = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| downcast_shard::<VariantRun>(self.name(), i, s))
            .collect();
        let cfg = config(ctx);
        let report = judge(runs, &cfg);

        let mut r = Report::new();
        writeln!(
            r,
            "== Differential correctness: {} variants x ({} fixed + {} fuzz cases, seed {:#x}) ==",
            Variant::ALL.len(),
            corpus::fixed_corpus().len(),
            cfg.fuzz,
            cfg.seed,
        )
        .unwrap();
        writeln!(
            r,
            "{} cases executed per variant, {} fuzz queries rejected by the frontend",
            report.cases, report.rejected,
        )
        .unwrap();
        for (v, violations) in &report.violations {
            writeln!(r, "{}: {} invariant violations", v.name(), violations.len()).unwrap();
            for viol in violations {
                writeln!(r, "  {FAIL_MARK} [{}] {viol}", v.name()).unwrap();
            }
        }
        for d in &report.disagreements {
            let (a, b) = d.pair;
            writeln!(r, "{FAIL_MARK} {}: {a} vs {b}: {}", d.case, d.detail).unwrap();
            if let Some(sql) = &d.minimized_sql {
                writeln!(r, "  minimized: {sql}").unwrap();
            }
        }

        let failures = report.failures();
        if failures == 0 {
            writeln!(
                r,
                "agreement: all variants agree on every case; all invariants hold"
            )
            .unwrap();
        } else {
            writeln!(r, "{FAIL_MARK} total: {failures} failure(s)").unwrap();
            r.fail(format!("{failures} differential failure(s)"));
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjrt::{CalibrationCache, StatsSink};

    /// One agreeing run per variant over the first two fixed cases.
    fn agreeing() -> Vec<VariantRun> {
        Variant::ALL
            .iter()
            .map(|&variant| VariantRun {
                variant,
                rejected: 0,
                outcomes: vec![
                    (0, Ok(vec!["A|F|3774200".into()])),
                    (1, Err("Plan(empty)".into())),
                ],
                violations: Vec::new(),
            })
            .collect()
    }

    fn assemble(runs: Vec<VariantRun>, diff_fuzz: usize) -> Report {
        let cfg = HarnessConfig {
            diff_fuzz,
            ..HarnessConfig::default()
        };
        let cal = CalibrationCache::new();
        let ctx = ExpCtx::new(&cfg, &cal, StatsSink::default(), None);
        let shards = runs
            .into_iter()
            .map(|o| Box::new(o) as Box<dyn Any + Send>)
            .collect();
        Difftest.assemble(shards, &ctx)
    }

    #[test]
    fn agreeing_variants_give_a_passing_report() {
        let r = assemble(agreeing(), 0);
        assert_eq!(r.failure(), None, "{}", r.text);
        assert!(!r.text.contains(FAIL_MARK), "{}", r.text);
        assert!(r.text.contains("agreement: all variants agree"));
    }

    #[test]
    fn a_differing_digest_fails_the_report() {
        let mut runs = agreeing();
        runs[2].outcomes[0].1 = Ok(vec!["A|F|3774201".into()]);
        let r = assemble(runs, 0);
        assert!(
            r.text
                .contains("DIFF-FAIL tpch/Q1: pg vs my: row 0 differs"),
            "{}",
            r.text
        );
        assert!(r.text.contains("DIFF-FAIL total: 1 failure(s)"));
        assert_eq!(r.failure(), Some("1 differential failure(s)"));
    }

    #[test]
    fn an_invariant_violation_fails_the_report() {
        let mut runs = agreeing();
        runs[4]
            .violations
            .push("tpch/Q2: L1D hits + misses != loads".into());
        let r = assemble(runs, 0);
        assert!(
            r.text
                .contains("DIFF-FAIL [lite-dtcm] tpch/Q2: L1D hits + misses != loads"),
            "{}",
            r.text
        );
        assert_eq!(r.failure(), Some("1 differential failure(s)"));
    }

    #[test]
    fn a_differing_fuzz_case_is_reported_with_its_reproducer() {
        // fuzz/0 follows the fixed corpus; only the fabricated vec digest
        // differs, so the real engines the reducer rebuilds agree on every
        // shrink candidate and the greedy shrink keeps the whole query.
        let fuzz0 = corpus::fixed_corpus().len();
        let mut runs = agreeing();
        for run in &mut runs {
            run.outcomes.push((fuzz0, Ok(vec!["Int(1)".into()])));
        }
        runs[3].outcomes[2].1 = Ok(vec!["Int(2)".into()]);
        let r = assemble(runs, 1);
        assert!(
            r.text
                .contains("DIFF-FAIL fuzz/0: pg vs vec: row 0 differs"),
            "{}",
            r.text
        );
        let sql = mjdiff::fuzz::gen_query(mjdiff::SEED, 0).to_sql();
        assert!(
            r.text.contains(&format!("\n  minimized: {sql}\n")),
            "{}",
            r.text
        );
        assert_eq!(r.failure(), Some("1 differential failure(s)"));
    }
}
