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
//!   over the TPC-H schema, compiled once through `sqlfe` and executed on
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
//! The harness is wired into `mjrt` as the `difftest` experiment (one
//! shard per variant, `--jobs`-independent by construction), run with
//! `repro_all --filter difftest [--diff-fuzz N]`; any disagreement or
//! invariant violation fails the run.

pub mod corpus;
pub mod fuzz;
pub mod harness;
pub mod invariants;
pub mod reduce;

pub use corpus::{compile_case, Case};
pub use fuzz::GenQuery;
pub use harness::{CaseOutcome, Engine, Variant};

use engines::Plan;

/// Configuration for one differential run.
#[derive(Debug, Clone, Copy)]
pub struct DiffConfig {
    /// Number of seeded fuzz queries appended to the fixed corpus.
    pub fuzz: usize,
    /// Fuzzer seed (the corpus is a pure function of `(seed, fuzz)`).
    pub seed: u64,
    /// Check the energy-model invariant (needs calibrated tables).
    pub energy: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            fuzz: 0,
            seed: 0x00d1ff,
            energy: true,
        }
    }
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
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Cases executed on every variant.
    pub cases: usize,
    /// Fuzz queries rejected by the frontend (an error, not a panic, is
    /// the required behaviour — rejects are counted, not failures).
    pub rejected: usize,
    /// Result-set disagreements (empty on a healthy tree).
    pub disagreements: Vec<Disagreement>,
    /// Energy-accounting invariant violations, as `case/variant: message`.
    pub violations: Vec<String>,
}

impl DiffReport {
    /// True when every variant agreed everywhere and no invariant fired.
    pub fn clean(&self) -> bool {
        self.disagreements.is_empty() && self.violations.is_empty()
    }
}

/// Compare two case outcomes; `None` when they agree.
pub fn compare(a: &CaseOutcome, b: &CaseOutcome) -> Option<String> {
    match (&a.digest, &b.digest) {
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

/// Run the whole differential harness in-process: build every variant,
/// compile the corpus once, execute everywhere, compare, and minimize any
/// fuzz disagreement. `tables` supplies a calibrated energy table per
/// architecture (return `None` to skip the energy invariant for it).
pub fn diff(
    cfg: &DiffConfig,
    tables: &dyn Fn(simcore::ArchKind) -> Option<std::sync::Arc<analysis::EnergyTable>>,
) -> DiffReport {
    let mut engines: Vec<Engine> = Variant::ALL.iter().map(|&v| Engine::build(v)).collect();
    let cases = corpus::full_corpus(cfg.fuzz, cfg.seed);

    let mut report = DiffReport::default();
    for case in &cases {
        let plan = match compile_case(case, engines[0].catalog()) {
            Ok(p) => p,
            Err(_) => {
                report.rejected += 1;
                continue;
            }
        };
        report.cases += 1;
        let outcomes: Vec<CaseOutcome> = engines
            .iter_mut()
            .map(|e| {
                let table = if cfg.energy {
                    tables(e.variant.arch())
                } else {
                    None
                };
                e.run_case(&plan, table.as_deref())
            })
            .collect();
        for (e, o) in engines.iter().zip(&outcomes) {
            for v in &o.violations {
                report
                    .violations
                    .push(format!("{}/{}: {v}", case.name(), e.variant.name()));
            }
        }
        for i in 1..outcomes.len() {
            if let Some(detail) = compare(&outcomes[0], &outcomes[i]) {
                let pair = (engines[0].variant.name(), engines[i].variant.name());
                let minimized_sql = minimize_case(case, &mut engines);
                report.disagreements.push(Disagreement {
                    case: case.name(),
                    pair,
                    detail,
                    minimized_sql,
                });
                break; // one disagreement record per case
            }
        }
    }
    report
}

/// For a disagreeing fuzz case, shrink the query to a minimal reproducer.
fn minimize_case(case: &Case, engines: &mut [Engine]) -> Option<String> {
    let Case::Fuzz(_, q) = case else { return None };
    let minimal = reduce::minimize(q.clone(), |cand| {
        disagrees(&Case::Fuzz(0, cand.clone()), engines)
    });
    Some(minimal.to_sql())
}

/// Whether `case` still produces a cross-variant disagreement (used as the
/// reducer's oracle). Compile failures count as "no disagreement".
fn disagrees(case: &Case, engines: &mut [Engine]) -> bool {
    let Ok(plan) = compile_case(case, engines[0].catalog()) else {
        return false;
    };
    let outcomes: Vec<CaseOutcome> = engines
        .iter_mut()
        .map(|e| e.run_case(&plan, None))
        .collect();
    (1..outcomes.len()).any(|i| compare(&outcomes[0], &outcomes[i]).is_some())
}

/// Render a plan-level case for reporting (used by the registered
/// experiment and the corpus regression test).
pub fn describe_plan(plan: &Plan) -> String {
    format!("{plan:?}")
}
