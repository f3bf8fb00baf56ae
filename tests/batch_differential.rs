//! Randomized differential property test: the vectorized batch executor
//! (`vec`) against the row executors, over generated plans on the demo
//! database.
//!
//! Two properties per generated plan:
//!
//! * **Multiset equality** — `vec` returns the same rows (sorted canonical
//!   comparison, the repo's cross-engine convention) as every row
//!   personality.
//! * **PMU conservation** — the batch executor's fast paths (line-batched
//!   lane touches, hot batches of known hits) must leave the counter hierarchy
//!   telescoping exactly like scalar execution does: hits + misses at each
//!   level reconcile with the accesses that reached it.
//!
//! The generator covers the operator shapes the batch executor implements:
//! filtered scans (including the float-truncation-sensitive IndexRange
//! fallback on the unindexed `price` column), index ranges on the `cat`
//! secondary index, hash joins, hash/scalar aggregation, sorts with and
//! without limits, and projections.

use engines::{db::demo_database, EngineKind, Plan};
use mjdiff::harness::canon_rows;
use mjdiff::invariants::conservation_violations;
use proptest::prelude::*;
use simcore::{ArchConfig, ArchKind, Cpu};
use storage::{AggFn, AggSpec, CmpOp, Expr};

/// A random single-column predicate over the items schema
/// (id: Int 0..200, cat: Int 0..10, price: Float 0.5..6.5).
fn arb_filter() -> impl Strategy<Value = Expr> {
    let cmp = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    (0usize..3, cmp, -5i64..210).prop_map(|(col, op, k)| {
        if col == 2 {
            // Fractional literal: exercises the float comparison path.
            Expr::cmp(op, Expr::col(2), Expr::float(k as f64 / 31.0))
        } else {
            Expr::cmp(op, Expr::col(col), Expr::int(k % 12))
        }
    })
}

/// A random leaf over the demo database: filtered scans and index ranges.
fn arb_leaf() -> BoxedStrategy<Plan> {
    prop_oneof![
        Just(Plan::scan("items")).boxed(),
        arb_filter()
            .prop_map(|f| Plan::scan_where("items", f))
            .boxed(),
        (arb_filter(), arb_filter())
            .prop_map(|(a, b)| Plan::scan_where("items", Expr::and_all([a, b])))
            .boxed(),
        // Index range on the `cat` secondary index (indexed path)…
        (-2i64..12, 0i64..6)
            .prop_map(|(lo, w)| Plan::IndexRange {
                table: "items".into(),
                col: "cat".into(),
                lo: Some(lo),
                hi: Some(lo + w),
                filter: None,
                project: None,
            })
            .boxed(),
        // …and on unindexed `price` (the Ge/Le fold-back fallback, where
        // float keys must NOT be truncated).
        (0i64..7, 0i64..4)
            .prop_map(|(lo, w)| Plan::IndexRange {
                table: "items".into(),
                col: "price".into(),
                lo: Some(lo),
                hi: Some(lo + w),
                filter: None,
                project: None,
            })
            .boxed(),
    ]
    .boxed()
}

/// A random plan over the demo database, covering every batch operator:
/// a leaf wrapped in join / aggregation / top-N, optionally projected.
fn arb_plan() -> impl Strategy<Value = Plan> {
    (arb_leaf(), 0u8..5, 1usize..20, 0u8..4).prop_map(|(base, wrap, n, proj)| {
        let p = match wrap {
            0 => base,
            1 => base.join(Plan::scan("cats"), 1, 0),
            2 => base.aggregate(
                vec![1],
                vec![
                    AggSpec::count_star(),
                    AggSpec::over(AggFn::Sum, Expr::col(2)),
                ],
            ),
            3 => base.aggregate(vec![], vec![AggSpec::over(AggFn::Avg, Expr::col(2))]),
            _ => base.top_n(vec![(2, true), (0, false)], n),
        };
        // Projection only when the output still has ≥1 column (always true).
        if proj == 0 {
            p.project(vec![Expr::col(0)])
        } else {
            p
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The batch executor agrees with every row personality on randomized
    /// plans, and its measurement window conserves the PMU hierarchy.
    #[test]
    fn batch_executor_matches_row_executors(plan in arb_plan()) {
        let mut digests = Vec::new();
        for kind in EngineKind::ALL {
            let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
            let mut db = demo_database(&mut cpu, kind).unwrap();
            let mut rows = None;
            let m = cpu.measure(|c| {
                rows = Some(db.session().run(c, &plan));
            });
            let rows = rows.expect("measure ran").expect("plan runs");
            let viol = conservation_violations(ArchKind::X86, &m.pmu);
            prop_assert!(viol.is_empty(), "{kind:?}: {viol:?}");
            digests.push((kind, canon_rows(&rows)));
        }
        for (kind, d) in &digests[1..] {
            prop_assert_eq!(&digests[0].1, d, "Pg vs {:?} on {}", kind, plan.explain());
        }
    }
}
