#![warn(missing_docs)]

//! # mjdiff — differential correctness harness (`difftest`)
//!
//! The paper's §3 claim — the L1D load/store share of Active energy is
//! large and *stable across engines* — rests on the three engine
//! personalities computing the **same answers** with different access
//! patterns. A silently wrong result set means we are measuring the energy
//! of a bug, not of a query style. This crate makes engine agreement a
//! checked property instead of an assumption:
//!
//! * **Corpus** ([`corpus`]): all 22 TPC-H plans, the 7 basic operations,
//!   and a deterministic seeded generator of randomized SQL ([`fuzz`])
//!   over the TPC-H schema, compiled through `sqlfe` and executed on
//!   every engine variant.
//! * **Variants** ([`harness`]): the pg/lite/my/vec personalities on the
//!   simulated i7-4790, plus SQLite-with-DTCM on the ARM1176JZF-S — five
//!   executors, one expected answer.
//! * **Equivalence**: sorted-multiset comparison of canonicalized rows
//!   (floats rounded to 5 decimals, the repo's established cross-engine
//!   tolerance for accumulation-order differences).
//! * **Invariants** ([`invariants`]): every case also checks that the PMU
//!   micro-op counts are conserved across cache levels (hits + misses
//!   telescope down the hierarchy), that the batched fast-path counters
//!   reconcile with the scalar hit counts, and that the solved energy
//!   model's `Σ ΔE_m·N_m` estimate stays inside a bounded-residual band
//!   of measured Active energy (under it by at most the §3 `E_other`
//!   remainder, never meaningfully over it).
//! * **Reduction** ([`reduce`]): a disagreeing fuzz query is shrunk
//!   structurally (drop predicates, joins, aggregates, ORDER BY, LIMIT)
//!   to a minimal reproducer before it is reported.
//!
//! [`run_variant`] and [`judge`] are the only differential driver: the
//! first builds one variant and runs the full corpus on it, the second
//! compares the runs and shrinks each disagreeing fuzz case on freshly
//! built engines; [`diff`] runs both in-process. The `difftest` experiment
//! (crate `bench`) runs one [`run_variant`] per shard and [`judge`]s in its
//! assemble step, so `repro_all --filter difftest [--diff-fuzz N]` reports
//! the same for any `--jobs` and fails on any disagreement or invariant
//! violation. The fuzz seed defaults to [`SEED`].

pub mod corpus;
pub mod fuzz;
pub mod harness;
pub mod invariants;
pub mod reduce;

pub use corpus::{compile_case, Case};
pub use fuzz::GenQuery;
pub use harness::{CaseOutcome, Digest, Engine, Variant};

use analysis::EnergyTable;

/// The fuzz stream's default seed.
pub const SEED: u64 = 0x00d1ff;

/// Configuration for one differential run.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Number of seeded fuzz queries appended to the fixed corpus.
    pub fuzz: usize,
    /// Fuzzer seed (the corpus is a pure function of `(seed, fuzz)`).
    pub seed: u64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            fuzz: 0,
            seed: SEED,
        }
    }
}

/// One variant's pass over the full corpus: what [`judge`] compares.
#[derive(Debug, Clone)]
pub struct VariantRun {
    /// The variant that ran.
    pub variant: Variant,
    /// Fuzz queries rejected by the frontend.
    pub rejected: usize,
    /// `(corpus index, digest)` per compiled case, in corpus order.
    pub outcomes: Vec<(usize, Digest)>,
    /// Invariant violations, as `case: message`.
    pub violations: Vec<String>,
}

/// A cross-variant disagreement on one case.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Case name (e.g. `tpch/Q4` or `fuzz/17`).
    pub case: String,
    /// The two variants that disagreed.
    pub pair: (&'static str, &'static str),
    /// Human-readable first divergence.
    pub detail: String,
    /// For fuzz cases: the minimized reproducer SQL.
    pub minimized_sql: Option<String>,
}

/// Outcome of a full differential run.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Cases executed on every variant.
    pub cases: usize,
    /// Fuzz queries rejected by the frontend (an error, not a panic, is
    /// the required behaviour — rejects are counted, not failures).
    pub rejected: usize,
    /// Invariant violations per variant, in run order, each as
    /// `case: message`.
    pub violations: Vec<(Variant, Vec<String>)>,
    /// Result-set disagreements (empty on a healthy tree).
    pub disagreements: Vec<Disagreement>,
}

impl DiffReport {
    /// Invariant violations plus disagreements.
    pub fn failures(&self) -> usize {
        let violations: usize = self.violations.iter().map(|(_, v)| v.len()).sum();
        violations + self.disagreements.len()
    }

    /// True when every variant agreed everywhere and no invariant fired.
    pub fn clean(&self) -> bool {
        self.failures() == 0
    }
}

/// Compare two digests; `None` when they agree.
pub fn compare(a: &Digest, b: &Digest) -> Option<String> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            if x.len() != y.len() {
                return Some(format!("row counts differ: {} vs {}", x.len(), y.len()));
            }
            x.iter()
                .zip(y)
                .position(|(r, s)| r != s)
                .map(|i| format!("row {i} differs:\n  {}\n  {}", x[i], y[i]))
        }
        (Err(x), Err(y)) => {
            // Both rejected the plan: the *kind* of refusal must agree.
            (x != y).then(|| format!("errors differ: {x:?} vs {y:?}"))
        }
        (Ok(x), Err(e)) => Some(format!("one engine errored ({e}) vs {} rows", x.len())),
        (Err(e), Ok(y)) => Some(format!("one engine errored ({e}) vs {} rows", y.len())),
    }
}

/// Build `variant` and run the full corpus of `cfg` on it, checking the
/// invariants on every case — the energy-model one only when `table`, a
/// calibrated table for the variant's architecture, is given. The variant
/// compiles the corpus against its own catalog; catalogs are identical by
/// construction, so every variant runs the same plans.
pub fn run_variant(variant: Variant, cfg: &DiffConfig, table: Option<&EnergyTable>) -> VariantRun {
    let mut engine = Engine::build(variant);
    let mut run = VariantRun {
        variant,
        rejected: 0,
        outcomes: Vec::new(),
        violations: Vec::new(),
    };
    for (i, case) in corpus::full_corpus(cfg.fuzz, cfg.seed).iter().enumerate() {
        let Ok(plan) = compile_case(case, engine.catalog()) else {
            run.rejected += 1;
            continue;
        };
        let o = engine.run_case(&plan, table);
        let name = case.name();
        run.violations
            .extend(o.violations.iter().map(|v| format!("{name}: {v}")));
        run.outcomes.push((i, o.digest));
    }
    run
}

/// Compare every run of `cfg`'s corpus with the first, keep one record per
/// disagreeing case, and shrink each disagreeing fuzz case to a minimal
/// reproducer on freshly built engines (built once, on the first such
/// case).
pub fn judge(runs: Vec<VariantRun>, cfg: &DiffConfig) -> DiffReport {
    let cases = corpus::full_corpus(cfg.fuzz, cfg.seed);
    let (first, rest) = runs.split_first().expect("at least one variant run");
    let mut rebuilt: Option<Vec<Engine>> = None;
    let mut disagreements = Vec::new();
    for (slot, (idx, digest)) in first.outcomes.iter().enumerate() {
        for other in rest {
            let (other_idx, other_digest) = &other.outcomes[slot];
            assert_eq!(idx, other_idx, "variants ran different corpora");
            let Some(detail) = compare(digest, other_digest) else {
                continue;
            };
            let case = &cases[*idx];
            let minimized_sql = match case {
                Case::Fuzz(_, q) => {
                    let engines = rebuilt.get_or_insert_with(|| {
                        Variant::ALL.iter().map(|&v| Engine::build(v)).collect()
                    });
                    Some(reduce::minimize(q.clone(), |c| disagrees(c, engines)).to_sql())
                }
                _ => None,
            };
            disagreements.push(Disagreement {
                case: case.name(),
                pair: (first.variant.name(), other.variant.name()),
                detail,
                minimized_sql,
            });
            break; // one record per case
        }
    }
    DiffReport {
        cases: first.outcomes.len(),
        rejected: first.rejected,
        violations: runs
            .into_iter()
            .map(|r| (r.variant, r.violations))
            .collect(),
        disagreements,
    }
}

/// The reducer's oracle: does `q` still split `engines`? A query the
/// frontend rejects counts as agreement.
fn disagrees(q: &GenQuery, engines: &mut [Engine]) -> bool {
    let Ok(plan) = compile_case(&Case::Fuzz(0, q.clone()), engines[0].catalog()) else {
        return false;
    };
    let digests: Vec<Digest> = engines
        .iter_mut()
        .map(|e| e.run_case(&plan, None).digest)
        .collect();
    digests[1..]
        .iter()
        .any(|d| compare(&digests[0], d).is_some())
}

/// The whole differential run in-process: [`run_variant`] for every
/// variant, then [`judge`]. Every invariant but the energy model's is
/// checked; that one needs calibrated tables, which [`run_variant`] takes.
pub fn diff(cfg: &DiffConfig) -> DiffReport {
    let runs = Variant::ALL
        .iter()
        .map(|&v| run_variant(v, cfg, None))
        .collect();
    judge(runs, cfg)
}
