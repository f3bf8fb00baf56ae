//! A small semantic-preserving plan optimizer.
//!
//! Two rewrites, applied bottom-up:
//!
//! 1. **Index selection** — a `Scan` whose filter constrains an indexed
//!    integer/date column by a range (`=`, `<`, `<=`, `>`, `>=`,
//!    `BETWEEN`) becomes an `IndexRange` with the consumed bounds removed
//!    from the residual filter. The executor falls back to a scan when the
//!    personality has no usable index, so the rewrite is always safe.
//! 2. **Sorted-limit fusion** — `Limit(Sort(x))` becomes a top-N sort.
//!
//! The SQL frontend applies this pass by default; hand-built plans opt in
//! via [`optimize`].

use crate::plan::Plan;
use storage::{Catalog, CmpOp, Expr, Value};

/// Optimize a plan against a catalog (semantics preserved).
pub fn optimize(plan: Plan, catalog: &Catalog) -> Plan {
    match plan {
        Plan::Scan {
            table,
            filter,
            project,
        } => rewrite_scan(table, filter, project, catalog),
        Plan::IndexRange { .. } => plan,
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
            filter,
            project,
        } => Plan::Join {
            left: Box::new(optimize(*left, catalog)),
            right: Box::new(optimize(*right, catalog)),
            left_col,
            right_col,
            filter,
            project,
        },
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Plan::Aggregate {
            input: Box::new(optimize(*input, catalog)),
            group_by,
            aggs,
        },
        Plan::Sort { input, keys, limit } => Plan::Sort {
            input: Box::new(optimize(*input, catalog)),
            keys,
            limit,
        },
        Plan::Project { input, exprs } => Plan::Project {
            input: Box::new(optimize(*input, catalog)),
            exprs,
        },
        Plan::Limit { input, n } => match optimize(*input, catalog) {
            // Limit over a sort is a top-N sort.
            Plan::Sort { input, keys, limit } => {
                let n = limit.map_or(n, |l| l.min(n));
                Plan::Sort {
                    input,
                    keys,
                    limit: Some(n),
                }
            }
            other => Plan::Limit {
                input: Box::new(other),
                n,
            },
        },
    }
}

/// Per-column bounds harvested from a conjunct list.
#[derive(Debug, Clone, Copy, Default)]
struct Bounds {
    lo: Option<i64>,
    hi: Option<i64>,
}

impl Bounds {
    fn tighten_lo(&mut self, v: i64) {
        self.lo = Some(self.lo.map_or(v, |x| x.max(v)));
    }
    fn tighten_hi(&mut self, v: i64) {
        self.hi = Some(self.hi.map_or(v, |x| x.min(v)));
    }
    fn selectivity_score(&self) -> u32 {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) if l == h => 3, // equality
            (Some(_), Some(_)) => 2,           // closed range
            (Some(_), None) | (None, Some(_)) => 1,
            (None, None) => 0,
        }
    }
}

fn int_lit(e: &Expr) -> Option<i64> {
    match e {
        Expr::Lit(Value::Int(v)) => Some(*v),
        Expr::Lit(Value::Date(d)) => Some(*d as i64),
        _ => None,
    }
}

/// `(column, bound)` from one conjunct, if it is a usable range constraint.
fn extract_bound(e: &Expr) -> Option<(usize, Bounds)> {
    let mut b = Bounds::default();
    match e {
        Expr::Cmp(op, l, r) => {
            // col <op> lit  or  lit <op> col (flip).
            let (col, lit, op) = match (&**l, &**r) {
                (Expr::Col(c), rhs) => (*c, int_lit(rhs)?, *op),
                (lhs, Expr::Col(c)) => {
                    let flipped = match op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        other => *other,
                    };
                    (*c, int_lit(lhs)?, flipped)
                }
                _ => return None,
            };
            match op {
                CmpOp::Eq => {
                    b.tighten_lo(lit);
                    b.tighten_hi(lit);
                }
                CmpOp::Lt => b.tighten_hi(lit - 1),
                CmpOp::Le => b.tighten_hi(lit),
                CmpOp::Gt => b.tighten_lo(lit + 1),
                CmpOp::Ge => b.tighten_lo(lit),
                CmpOp::Ne => return None,
            }
            Some((col, b))
        }
        Expr::Between(x, lo, hi) => {
            let Expr::Col(c) = &**x else { return None };
            let lo = match lo {
                Value::Int(v) => *v,
                Value::Date(d) => *d as i64,
                _ => return None,
            };
            let hi = match hi {
                Value::Int(v) => *v,
                Value::Date(d) => *d as i64,
                _ => return None,
            };
            b.tighten_lo(lo);
            b.tighten_hi(hi);
            Some((*c, b))
        }
        _ => None,
    }
}

fn split_and(e: Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(l, r) => {
            split_and(*l, out);
            split_and(*r, out);
        }
        other => out.push(other),
    }
}

fn rewrite_scan(
    table: String,
    filter: Option<Expr>,
    project: Option<Vec<Expr>>,
    catalog: &Catalog,
) -> Plan {
    let Some(filter) = filter else {
        return Plan::Scan {
            table,
            filter: None,
            project,
        };
    };
    let Ok(t) = catalog.table(&table) else {
        return Plan::Scan {
            table,
            filter: Some(filter),
            project,
        };
    };

    let mut conjuncts = Vec::new();
    split_and(filter, &mut conjuncts);

    // Gather bounds per indexed column, remembering which conjuncts feed it.
    let mut best: Option<(usize, Bounds, Vec<usize>)> = None;
    let indexed: Vec<usize> = {
        let mut v = Vec::new();
        if t.pk_index.is_some() {
            if let Some(pk) = t.pk_col {
                v.push(pk);
            }
        }
        v.extend(t.secondary.iter().map(|(c, _)| *c));
        v
    };
    for &col in &indexed {
        let mut b = Bounds::default();
        let mut used = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if let Some((cc, cb)) = extract_bound(c) {
                if cc == col {
                    if let Some(l) = cb.lo {
                        b.tighten_lo(l);
                    }
                    if let Some(h) = cb.hi {
                        b.tighten_hi(h);
                    }
                    used.push(i);
                }
            }
        }
        if b.selectivity_score() > best.as_ref().map_or(0, |(_, bb, _)| bb.selectivity_score()) {
            best = Some((col, b, used));
        }
    }

    let Some((col, bounds, used)) = best else {
        return Plan::Scan {
            table,
            filter: Expr::conjoin(conjuncts),
            project,
        };
    };
    let residual: Vec<Expr> = conjuncts
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !used.contains(i))
        .map(|(_, c)| c)
        .collect();
    let col_name = t.schema.columns[col].name.clone();
    Plan::IndexRange {
        table,
        col: col_name,
        lo: bounds.lo,
        hi: bounds.hi,
        filter: Expr::conjoin(residual),
        project,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::demo_database;
    use crate::profile::EngineKind;
    use simcore::{ArchConfig, Cpu};

    fn opt(plan: Plan) -> (Plan, engines_test::Ctx) {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let db = demo_database(&mut cpu, EngineKind::Pg).unwrap();
        let p = optimize(plan, &db.catalog);
        (p, engines_test::Ctx { cpu, db })
    }

    mod engines_test {
        pub struct Ctx {
            pub cpu: simcore::Cpu,
            pub db: crate::db::Database,
        }
    }

    #[test]
    fn range_filter_becomes_index_range() {
        let plan = Plan::scan_where(
            "items",
            Expr::and_all([
                Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(2)),
                Expr::cmp(CmpOp::Le, Expr::col(1), Expr::int(4)),
                Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::float(1.0)),
            ]),
        );
        let (p, _) = opt(plan);
        let Plan::IndexRange {
            col,
            lo,
            hi,
            filter,
            ..
        } = p
        else {
            panic!("expected IndexRange, got {p:?}")
        };
        assert_eq!(col, "cat");
        assert_eq!((lo, hi), (Some(2), Some(4)));
        assert!(filter.is_some(), "float residual must remain");
    }

    #[test]
    fn equality_beats_open_range() {
        // id (pk) has an open bound; cat has equality → pick cat? No: both
        // indexed; equality scores higher.
        let plan = Plan::scan_where(
            "items",
            Expr::and_all([
                Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(10)),
                Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::int(3)),
            ]),
        );
        let (p, _) = opt(plan);
        let Plan::IndexRange { col, lo, hi, .. } = p else {
            panic!()
        };
        assert_eq!(col, "cat");
        assert_eq!((lo, hi), (Some(3), Some(3)));
    }

    #[test]
    fn strict_bounds_are_tightened_correctly() {
        let plan = Plan::scan_where(
            "items",
            Expr::and_all([
                Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(5)),
                Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(9)),
            ]),
        );
        let (p, mut ctx) = opt(plan.clone());
        let Plan::IndexRange { lo, hi, .. } = &p else {
            panic!()
        };
        assert_eq!((*lo, *hi), (Some(6), Some(8)));
        // Equivalence check.
        let a = ctx.db.session().run(&mut ctx.cpu, &plan).unwrap();
        let b = ctx.db.session().run(&mut ctx.cpu, &p).unwrap();
        let canon = |mut v: Vec<storage::Row>| {
            v.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
            v
        };
        assert_eq!(canon(a), canon(b));
    }

    #[test]
    fn flipped_literal_comparisons_are_recognised() {
        let plan = Plan::scan_where(
            "items",
            Expr::cmp(CmpOp::Gt, Expr::int(5), Expr::col(0)), // 5 > id  ⇒  id < 5
        );
        let (p, _) = opt(plan);
        let Plan::IndexRange { lo, hi, .. } = p else {
            panic!()
        };
        assert_eq!((lo, hi), (None, Some(4)));
    }

    #[test]
    fn unindexed_or_unconstrained_scans_stay_scans() {
        let plan = Plan::scan_where(
            "items",
            Expr::cmp(CmpOp::Gt, Expr::col(2), Expr::float(3.0)), // price: no index
        );
        let (p, _) = opt(plan);
        assert!(matches!(p, Plan::Scan { .. }));
        let (p, _) = opt(Plan::scan("items"));
        assert!(matches!(p, Plan::Scan { .. }));
    }

    #[test]
    fn limit_over_sort_fuses_to_top_n() {
        let plan = Plan::Limit {
            input: Box::new(Plan::scan("items").sort(vec![(2, true)])),
            n: 5,
        };
        let (p, _) = opt(plan);
        assert!(matches!(p, Plan::Sort { limit: Some(5), .. }));
    }

    #[test]
    fn optimized_plans_agree_with_originals_on_all_engines() {
        let plan = Plan::scan_where(
            "items",
            Expr::and_all([
                Expr::Between(Box::new(Expr::col(1)), Value::Int(1), Value::Int(6)),
                Expr::cmp(CmpOp::Ne, Expr::col(0), Expr::int(33)),
            ]),
        )
        .aggregate(vec![1], vec![storage::AggSpec::count_star()]);
        for kind in EngineKind::ALL {
            let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
            let mut db = demo_database(&mut cpu, kind).unwrap();
            let optimized = optimize(plan.clone(), &db.catalog);
            let canon = |mut v: Vec<storage::Row>| {
                v.sort_by(|x, y| format!("{x:?}").cmp(&format!("{y:?}")));
                v
            };
            let a = canon(db.session().run(&mut cpu, &plan).unwrap());
            let b = canon(db.session().run(&mut cpu, &optimized).unwrap());
            assert_eq!(a, b, "{kind:?}");
        }
    }
}
