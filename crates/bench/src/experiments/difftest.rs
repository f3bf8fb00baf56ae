//! The differential correctness harness (`mjdiff`) as a registered
//! experiment: one shard per engine variant, `--jobs`-independent by
//! construction.
//!
//! Each shard builds its own simulated machine + engine, compiles the
//! shared corpus itself (the corpus is a pure function of the fuzz
//! configuration and the catalogs are identical across variants, so every
//! shard sees byte-identical plans), runs every case under the
//! energy-accounting invariants, and returns the canonical result digests.
//! `assemble` compares digests across shards; a disagreeing fuzz case is
//! shrunk to a minimal reproducer (engines are rebuilt only on that cold
//! path). Every failure line starts with `DIFF-FAIL`, and any failure
//! marks the report failed, so `repro_all` exits 1.
//!
//! The fuzz count is the harness's `--diff-fuzz` flag; the fuzz seed is
//! fixed, so a failing run reproduces with the same flags.

use std::any::Any;
use std::fmt::Write as _;

use mjdiff::corpus::{self, Case};
use mjdiff::harness::CaseOutcome;
use mjdiff::{compare, compile_case, reduce, Engine, Variant};
use mjrt::experiment::downcast_shard;
use mjrt::{ExpCtx, Experiment, HarnessConfig, Report};
use simcore::{ArchKind, PState};

/// Prefix of every failure line in the report.
const FAIL_MARK: &str = "DIFF-FAIL";

/// The fuzz stream's seed.
const SEED: u64 = 0x00d1ff;

/// The operating point each variant's machine runs at (its architecture's
/// maximum — what `Cpu::new` pins), and hence the table to check against.
fn pstate_of(v: Variant) -> PState {
    match v.arch() {
        ArchKind::X86 => PState::P36,
        ArchKind::Arm => PState(7),
    }
}

struct ShardOut {
    rejected: usize,
    /// `(corpus index, case name, canonical digest)` per compiled case.
    outcomes: Vec<(usize, String, Result<Vec<String>, String>)>,
    /// Invariant violations, as `case: message`.
    violations: Vec<String>,
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
        let mut engine = Engine::build(variant);
        let mut out = ShardOut {
            rejected: 0,
            outcomes: Vec::new(),
            violations: Vec::new(),
        };
        let cases = corpus::full_corpus(ctx.cfg.diff_fuzz, SEED);
        for (i, case) in cases.iter().enumerate() {
            let Ok(plan) = compile_case(case, engine.catalog()) else {
                out.rejected += 1;
                continue;
            };
            let o = engine.run_case(&plan, Some(&table));
            for v in o.violations {
                out.violations.push(format!("{}: {v}", case.name()));
            }
            out.outcomes.push((i, case.name(), o.digest));
        }
        Box::new(out)
    }

    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, ctx: &ExpCtx<'_>) -> Report {
        let outs: Vec<ShardOut> = shards
            .into_iter()
            .enumerate()
            .map(|(i, s)| downcast_shard::<ShardOut>(self.name(), i, s))
            .collect();
        let fuzz = ctx.cfg.diff_fuzz;
        let cases = corpus::full_corpus(fuzz, SEED);

        let mut r = Report::new();
        writeln!(
            r,
            "== Differential correctness: {} variants x ({} fixed + {} fuzz cases, seed {SEED:#x}) ==",
            Variant::ALL.len(),
            corpus::fixed_corpus().len(),
            fuzz,
        )
        .unwrap();
        writeln!(
            r,
            "{} cases executed per variant, {} fuzz queries rejected by the frontend",
            outs[0].outcomes.len(),
            outs[0].rejected,
        )
        .unwrap();

        let mut failures = 0usize;
        for (v, o) in Variant::ALL.iter().zip(&outs) {
            writeln!(
                r,
                "{}: {} invariant violations",
                v.name(),
                o.violations.len()
            )
            .unwrap();
            for viol in &o.violations {
                writeln!(r, "  {FAIL_MARK} [{}] {viol}", v.name()).unwrap();
                failures += 1;
            }
        }

        let mut disagreements = 0usize;
        let mut rebuilt: Option<Vec<Engine>> = None;
        for (slot, (idx, name, digest)) in outs[0].outcomes.iter().enumerate() {
            for (v, o) in Variant::ALL.iter().zip(&outs).skip(1) {
                let (oidx, _, other) = &o.outcomes[slot];
                assert_eq!(idx, oidx, "shards saw different corpora");
                let a = CaseOutcome {
                    digest: digest.clone(),
                    violations: Vec::new(),
                };
                let b = CaseOutcome {
                    digest: other.clone(),
                    violations: Vec::new(),
                };
                let Some(detail) = compare(&a, &b) else {
                    continue;
                };
                disagreements += 1;
                writeln!(
                    r,
                    "{FAIL_MARK} {name}: {} vs {}: {detail}",
                    Variant::ALL[0].name(),
                    v.name()
                )
                .unwrap();
                if let Case::Fuzz(_, q) = &cases[*idx] {
                    let engines = rebuilt.get_or_insert_with(|| {
                        Variant::ALL.iter().map(|&v| Engine::build(v)).collect()
                    });
                    let minimal =
                        reduce::minimize(q.clone(), |cand| still_disagrees(cand, engines));
                    writeln!(r, "  minimized: {}", minimal.to_sql()).unwrap();
                }
                break; // one record per case
            }
        }
        failures += disagreements;

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

/// Reducer oracle: does `cand` still split the variants?
fn still_disagrees(cand: &mjdiff::GenQuery, engines: &mut [Engine]) -> bool {
    let case = Case::Fuzz(0, cand.clone());
    let Ok(plan) = compile_case(&case, engines[0].catalog()) else {
        return false;
    };
    let outcomes: Vec<CaseOutcome> = engines
        .iter_mut()
        .map(|e| e.run_case(&plan, None))
        .collect();
    (1..outcomes.len()).any(|i| compare(&outcomes[0], &outcomes[i]).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjrt::{CalibrationCache, StatsSink};

    /// One agreeing output per variant over the first two fixed cases.
    fn agreeing() -> Vec<ShardOut> {
        Variant::ALL
            .iter()
            .map(|_| ShardOut {
                rejected: 0,
                outcomes: vec![
                    (0, "tpch/Q1".into(), Ok(vec!["A|F|3774200".into()])),
                    (1, "tpch/Q2".into(), Err("Plan(empty)".into())),
                ],
                violations: Vec::new(),
            })
            .collect()
    }

    fn assemble(outs: Vec<ShardOut>) -> Report {
        let cfg = HarnessConfig {
            diff_fuzz: 0,
            ..HarnessConfig::default()
        };
        let cal = CalibrationCache::new();
        let ctx = ExpCtx::new(&cfg, &cal, StatsSink::default(), None);
        let shards = outs
            .into_iter()
            .map(|o| Box::new(o) as Box<dyn Any + Send>)
            .collect();
        Difftest.assemble(shards, &ctx)
    }

    #[test]
    fn agreeing_variants_give_a_passing_report() {
        let r = assemble(agreeing());
        assert_eq!(r.failure(), None, "{}", r.text);
        assert!(!r.text.contains(FAIL_MARK), "{}", r.text);
        assert!(r.text.contains("agreement: all variants agree"));
    }

    #[test]
    fn a_differing_digest_fails_the_report() {
        let mut outs = agreeing();
        outs[2].outcomes[0].2 = Ok(vec!["A|F|3774201".into()]);
        let r = assemble(outs);
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
        let mut outs = agreeing();
        outs[4]
            .violations
            .push("tpch/Q2: L1D hits + misses != loads".into());
        let r = assemble(outs);
        assert!(
            r.text
                .contains("DIFF-FAIL [lite-dtcm] tpch/Q2: L1D hits + misses != loads"),
            "{}",
            r.text
        );
        assert_eq!(r.failure(), Some("1 differential failure(s)"));
    }
}
