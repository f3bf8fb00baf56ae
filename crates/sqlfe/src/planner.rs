//! Name resolution and plan construction.

use crate::ast::*;
use crate::SqlError;
use engines::{Dml, Plan};
use storage::{AggFn, AggSpec, BinOp, Catalog, CmpOp, Expr, Row, Schema, Ty, Value};

/// A compiled statement.
#[derive(Debug, Clone)]
pub enum Planned {
    /// A read query.
    Query(Plan),
    /// A write statement.
    Write(Dml),
    /// An EXPLAIN over a read query: render the plan instead of returning
    /// rows; with `analyze`, execute it and annotate per-operator costs.
    Explain {
        /// True for `EXPLAIN ANALYZE`.
        analyze: bool,
        /// The compiled (and optimized) query plan.
        plan: Plan,
    },
}

/// Plan a parsed statement against a catalog.
pub fn plan_statement(stmt: &Statement, catalog: &Catalog) -> Result<Planned, SqlError> {
    match stmt {
        Statement::Select(sel) => Ok(Planned::Query(plan_select(sel, catalog)?)),
        Statement::Explain { analyze, query } => Ok(Planned::Explain {
            analyze: *analyze,
            plan: plan_select(query, catalog)?,
        }),
        Statement::Insert { table, rows } => {
            let schema = &catalog
                .table(table)
                .map_err(|e| SqlError::Plan(e.to_string()))?
                .schema;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != schema.arity() {
                    return Err(SqlError::Plan(format!(
                        "INSERT arity {} != table arity {}",
                        row.len(),
                        schema.arity()
                    )));
                }
                let vals: Result<Row, SqlError> = row
                    .iter()
                    .zip(&schema.columns)
                    .map(|(e, col)| literal_value(e, col.ty))
                    .collect();
                out.push(vals?);
            }
            Ok(Planned::Write(Dml::Insert {
                table: table.clone(),
                rows: out,
            }))
        }
        Statement::Update { table, set, filter } => {
            let schema = catalog
                .table(table)
                .map_err(|e| SqlError::Plan(e.to_string()))?
                .schema
                .clone();
            let resolve = single_table_resolver(&schema);
            let mut assignments = Vec::new();
            for (col, e) in set {
                let idx = schema
                    .col(col)
                    .ok_or_else(|| SqlError::Plan(format!("no column `{col}`")))?;
                assignments.push((idx, to_expr(e, &resolve)?));
            }
            let filter = filter.as_ref().map(|f| to_expr(f, &resolve)).transpose()?;
            Ok(Planned::Write(Dml::Update {
                table: table.clone(),
                filter,
                set: assignments,
            }))
        }
        Statement::Delete { table, filter } => {
            let schema = catalog
                .table(table)
                .map_err(|e| SqlError::Plan(e.to_string()))?
                .schema
                .clone();
            let resolve = single_table_resolver(&schema);
            let filter = filter.as_ref().map(|f| to_expr(f, &resolve)).transpose()?;
            Ok(Planned::Write(Dml::Delete {
                table: table.clone(),
                filter,
            }))
        }
    }
}

type Resolver<'a> = Box<dyn Fn(&ColRef) -> Result<usize, SqlError> + 'a>;

fn single_table_resolver(schema: &Schema) -> Resolver<'_> {
    Box::new(move |cr: &ColRef| {
        schema
            .col(&cr.column)
            .ok_or_else(|| SqlError::Plan(format!("no column `{}`", cr.column)))
    })
}

/// One FROM/JOIN source with its offset in the concatenated row.
struct Source {
    name: String,
    schema: Schema,
    offset: usize,
}

struct Scope {
    sources: Vec<Source>,
}

impl Scope {
    /// Resolve to `(global index, source index)`.
    fn resolve(&self, cr: &ColRef) -> Result<(usize, usize), SqlError> {
        if let Some(t) = &cr.table {
            let (si, src) = self
                .sources
                .iter()
                .enumerate()
                .find(|(_, s)| s.name.eq_ignore_ascii_case(t))
                .ok_or_else(|| SqlError::Plan(format!("unknown table qualifier `{t}`")))?;
            let ci = src
                .schema
                .col(&cr.column)
                .ok_or_else(|| SqlError::Plan(format!("no column `{t}.{}`", cr.column)))?;
            return Ok((src.offset + ci, si));
        }
        let mut hit = None;
        for (si, src) in self.sources.iter().enumerate() {
            if let Some(ci) = src.schema.col(&cr.column) {
                if hit.is_some() {
                    return Err(SqlError::Plan(format!("ambiguous column `{}`", cr.column)));
                }
                hit = Some((src.offset + ci, si));
            }
        }
        hit.ok_or_else(|| SqlError::Plan(format!("no column `{}`", cr.column)))
    }
}

/// Which sources an expression references.
fn referenced_sources(e: &SExpr, scope: &Scope, acc: &mut Vec<usize>) -> Result<(), SqlError> {
    match e {
        SExpr::Col(cr) => {
            let (_, si) = scope.resolve(cr)?;
            if !acc.contains(&si) {
                acc.push(si);
            }
            Ok(())
        }
        SExpr::Bin(_, l, r) => {
            referenced_sources(l, scope, acc)?;
            referenced_sources(r, scope, acc)
        }
        SExpr::Not(x) => referenced_sources(x, scope, acc),
        SExpr::Between(x, lo, hi) => {
            referenced_sources(x, scope, acc)?;
            referenced_sources(lo, scope, acc)?;
            referenced_sources(hi, scope, acc)
        }
        SExpr::InList(x, list) => {
            referenced_sources(x, scope, acc)?;
            for i in list {
                referenced_sources(i, scope, acc)?;
            }
            Ok(())
        }
        SExpr::Like(x, _) => referenced_sources(x, scope, acc),
        SExpr::Agg(_, Some(x)) => referenced_sources(x, scope, acc),
        _ => Ok(()),
    }
}

fn split_conjuncts(e: SExpr, out: &mut Vec<SExpr>) {
    match e {
        SExpr::Bin(BinSym::And, l, r) => {
            split_conjuncts(*l, out);
            split_conjuncts(*r, out);
        }
        other => out.push(other),
    }
}

fn plan_select(sel: &Select, catalog: &Catalog) -> Result<Plan, SqlError> {
    // Build the scope.
    let mut sources = Vec::new();
    let mut offset = 0usize;
    for name in std::iter::once(&sel.from).chain(sel.joins.iter().map(|j| &j.table)) {
        let schema = catalog
            .table(name)
            .map_err(|e| SqlError::Plan(e.to_string()))?
            .schema
            .clone();
        let arity = schema.arity();
        sources.push(Source {
            name: name.clone(),
            schema,
            offset,
        });
        offset += arity;
    }
    let scope = Scope { sources };

    // Classify WHERE conjuncts: single-source ones are pushed onto that
    // source's scan; the rest are applied at the earliest join level where
    // every referenced source is in scope.
    let mut pushed: Vec<Vec<SExpr>> = scope.sources.iter().map(|_| Vec::new()).collect();
    let mut at_level: Vec<Vec<SExpr>> = scope.sources.iter().map(|_| Vec::new()).collect();
    if let Some(f) = &sel.filter {
        let mut conjuncts = Vec::new();
        split_conjuncts(f.clone(), &mut conjuncts);
        for c in conjuncts {
            let mut refs = Vec::new();
            referenced_sources(&c, &scope, &mut refs)?;
            match refs.as_slice() {
                [] | [_] => {
                    let si = refs.first().copied().unwrap_or(0);
                    pushed[si].push(c);
                }
                many => {
                    let level = *many.iter().max().expect("non-empty");
                    at_level[level].push(c);
                }
            }
        }
    }

    // Scans with pushed-down filters (column indices are table-local).
    let scan_of = |si: usize, pushed: &[SExpr]| -> Result<Plan, SqlError> {
        let src = &scope.sources[si];
        let local = |cr: &ColRef| -> Result<usize, SqlError> {
            // Table-local resolution for the pushed filter.
            if let Some(t) = &cr.table {
                if !src.name.eq_ignore_ascii_case(t) {
                    return Err(SqlError::Plan(format!(
                        "`{t}` out of scope in pushed filter"
                    )));
                }
            }
            src.schema
                .col(&cr.column)
                .ok_or_else(|| SqlError::Plan(format!("no column `{}`", cr.column)))
        };
        let exprs: Result<Vec<Expr>, SqlError> =
            pushed.iter().map(|c| to_expr(c, &local)).collect();
        let filter = Expr::conjoin(exprs?);
        Ok(Plan::Scan {
            table: src.name.clone(),
            filter,
            project: None,
        })
    };

    // Left-deep join chain.
    let mut plan = scan_of(0, &pushed[0])?;
    for (ji, j) in sel.joins.iter().enumerate() {
        let level = ji + 1;
        let (lg, _) = scope.resolve(&j.on_left)?;
        let (rg, rs) = scope.resolve(&j.on_right)?;
        // Normalise: the ON side living in the new table is the right key.
        let (left_col, right_col) = if rs == level {
            (lg, rg - scope.sources[level].offset)
        } else {
            // on_left references the new table instead.
            (rg, lg - scope.sources[level].offset)
        };
        let global = |cr: &ColRef| scope.resolve(cr).map(|(g, _)| g);
        let exprs: Result<Vec<Expr>, SqlError> = at_level[level]
            .iter()
            .map(|c| to_expr(c, &global))
            .collect();
        let filter = Expr::conjoin(exprs?);
        plan = Plan::Join {
            left: Box::new(plan),
            right: Box::new(scan_of(level, &pushed[level])?),
            left_col,
            right_col,
            filter,
            project: None,
        };
    }

    // Aggregation.
    let global = |cr: &ColRef| scope.resolve(cr).map(|(g, _)| g);
    let has_agg = sel
        .items
        .as_ref()
        .is_some_and(|items| items.iter().any(|i| contains_agg(&i.expr)));
    let mut output_aliases: Vec<Option<String>> = Vec::new();

    if has_agg || !sel.group_by.is_empty() {
        let items = sel.items.as_ref().ok_or_else(|| {
            SqlError::Plan("aggregate queries need an explicit select list".into())
        })?;
        // Group columns must be plain column references.
        let mut group_cols = Vec::new();
        for g in &sel.group_by {
            match g {
                SExpr::Col(cr) => group_cols.push(global(cr)?),
                _ => {
                    return Err(SqlError::Plan(
                        "GROUP BY supports plain column references".into(),
                    ))
                }
            }
        }
        // Collect aggregates in select-list order.
        let mut aggs = Vec::new();
        let mut projections: Vec<Expr> = Vec::new();
        for item in items {
            match &item.expr {
                SExpr::Agg(name, arg) => {
                    let f = match (name, arg) {
                        (AggName::Count, None) => AggSpec::count_star(),
                        (AggName::Count, Some(a)) => {
                            AggSpec::over(AggFn::Count, to_expr(a, &global)?)
                        }
                        (AggName::Sum, Some(a)) => AggSpec::over(AggFn::Sum, to_expr(a, &global)?),
                        (AggName::Avg, Some(a)) => AggSpec::over(AggFn::Avg, to_expr(a, &global)?),
                        (AggName::Min, Some(a)) => AggSpec::over(AggFn::Min, to_expr(a, &global)?),
                        (AggName::Max, Some(a)) => AggSpec::over(AggFn::Max, to_expr(a, &global)?),
                        _ => return Err(SqlError::Plan("aggregate needs an argument".into())),
                    };
                    aggs.push(f);
                    projections.push(Expr::col(group_cols.len() + aggs.len() - 1));
                }
                SExpr::Col(cr) => {
                    let g = global(cr)?;
                    let pos = group_cols.iter().position(|&c| c == g).ok_or_else(|| {
                        SqlError::Plan(format!("`{}` must appear in GROUP BY", cr.column))
                    })?;
                    projections.push(Expr::col(pos));
                }
                _ => {
                    return Err(SqlError::Plan(
                        "select items in aggregates must be columns or aggregate calls".into(),
                    ))
                }
            }
            output_aliases.push(item.alias.clone());
        }
        plan = plan.aggregate(group_cols, aggs);
        plan = plan.project(projections);
    } else if let Some(items) = &sel.items {
        let exprs: Result<Vec<Expr>, SqlError> =
            items.iter().map(|i| to_expr(&i.expr, &global)).collect();
        plan = plan.project(exprs?);
        output_aliases = items.iter().map(|i| i.alias.clone()).collect();
    } else {
        // SELECT *: aliases are the flattened column names.
        for src in &scope.sources {
            for c in &src.schema.columns {
                output_aliases.push(Some(c.name.clone()));
            }
        }
    }

    // ORDER BY: positions (1-based), aliases, or output column names.
    if !sel.order_by.is_empty() {
        let mut keys = Vec::new();
        for (e, desc) in &sel.order_by {
            let idx = match e {
                SExpr::Int(n) if *n >= 1 => (*n - 1) as usize,
                SExpr::Col(cr) => {
                    let by_alias = output_aliases.iter().position(|a| {
                        a.as_deref()
                            .is_some_and(|al| al.eq_ignore_ascii_case(&cr.column))
                    });
                    match by_alias {
                        Some(i) => i,
                        None => {
                            return Err(SqlError::Plan(format!(
                                "ORDER BY `{}` is not an output column; use a position or alias",
                                cr.column
                            )))
                        }
                    }
                }
                _ => {
                    return Err(SqlError::Plan(
                        "ORDER BY supports positions and output columns".into(),
                    ))
                }
            };
            if idx >= output_aliases.len() {
                return Err(SqlError::Plan(format!(
                    "ORDER BY position {} exceeds the {} output column(s)",
                    idx + 1,
                    output_aliases.len()
                )));
            }
            keys.push((idx, *desc));
        }
        plan = Plan::Sort {
            input: Box::new(plan),
            keys,
            limit: sel.limit,
        };
    } else if let Some(n) = sel.limit {
        plan = Plan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    Ok(plan)
}

fn contains_agg(e: &SExpr) -> bool {
    match e {
        SExpr::Agg(..) => true,
        SExpr::Bin(_, l, r) => contains_agg(l) || contains_agg(r),
        SExpr::Not(x) | SExpr::Like(x, _) => contains_agg(x),
        SExpr::Between(a, b, c) => contains_agg(a) || contains_agg(b) || contains_agg(c),
        SExpr::InList(x, list) => contains_agg(x) || list.iter().any(contains_agg),
        _ => false,
    }
}

/// Convert an AST expression to an executable one, resolving columns with
/// `resolve`.
fn to_expr<F: Fn(&ColRef) -> Result<usize, SqlError>>(
    e: &SExpr,
    resolve: &F,
) -> Result<Expr, SqlError> {
    Ok(match e {
        SExpr::Col(cr) => Expr::col(resolve(cr)?),
        SExpr::Int(v) => Expr::Lit(Value::Int(*v)),
        SExpr::Float(v) => Expr::Lit(Value::Float(*v)),
        SExpr::Str(s) => Expr::Lit(Value::Str(s.clone())),
        SExpr::Date(d) => Expr::Lit(Value::Date(*d)),
        SExpr::Null => Expr::Lit(Value::Null),
        SExpr::Not(x) => Expr::Not(Box::new(to_expr(x, resolve)?)),
        SExpr::Between(x, lo, hi) => {
            let lo = literal_only(lo)?;
            let hi = literal_only(hi)?;
            Expr::Between(Box::new(to_expr(x, resolve)?), lo, hi)
        }
        SExpr::InList(x, list) => {
            let vals: Result<Vec<Value>, SqlError> = list.iter().map(literal_only).collect();
            Expr::InList(Box::new(to_expr(x, resolve)?), vals?)
        }
        SExpr::Like(x, pat) => like_expr(to_expr(x, resolve)?, pat)?,
        SExpr::Agg(..) => {
            return Err(SqlError::Plan(
                "aggregate call outside the select list".into(),
            ))
        }
        SExpr::Bin(sym, l, r) => {
            let l = Box::new(to_expr(l, resolve)?);
            let r = Box::new(to_expr(r, resolve)?);
            match sym {
                BinSym::Add => Expr::Bin(BinOp::Add, l, r),
                BinSym::Sub => Expr::Bin(BinOp::Sub, l, r),
                BinSym::Mul => Expr::Bin(BinOp::Mul, l, r),
                BinSym::Div => Expr::Bin(BinOp::Div, l, r),
                BinSym::Eq => Expr::Cmp(CmpOp::Eq, l, r),
                BinSym::Ne => Expr::Cmp(CmpOp::Ne, l, r),
                BinSym::Lt => Expr::Cmp(CmpOp::Lt, l, r),
                BinSym::Le => Expr::Cmp(CmpOp::Le, l, r),
                BinSym::Gt => Expr::Cmp(CmpOp::Gt, l, r),
                BinSym::Ge => Expr::Cmp(CmpOp::Ge, l, r),
                BinSym::And => Expr::And(l, r),
                BinSym::Or => Expr::Or(l, r),
            }
        }
    })
}

fn like_expr(target: Expr, pat: &str) -> Result<Expr, SqlError> {
    let inner = pat.trim_matches('%');
    if inner.contains('%') || inner.contains('_') {
        return Err(SqlError::Plan(format!(
            "unsupported LIKE pattern `{pat}` (prefix and containment only)"
        )));
    }
    Ok(match (pat.starts_with('%'), pat.ends_with('%')) {
        (true, _) => Expr::Contains(Box::new(target), inner.to_owned()),
        (false, true) => Expr::StartsWith(Box::new(target), inner.to_owned()),
        (false, false) => Expr::Cmp(
            CmpOp::Eq,
            Box::new(target),
            Box::new(Expr::Lit(Value::Str(pat.into()))),
        ),
    })
}

fn literal_only(e: &SExpr) -> Result<Value, SqlError> {
    match e {
        SExpr::Int(v) => Ok(Value::Int(*v)),
        SExpr::Float(v) => Ok(Value::Float(*v)),
        SExpr::Str(s) => Ok(Value::Str(s.clone())),
        SExpr::Date(d) => Ok(Value::Date(*d)),
        SExpr::Null => Ok(Value::Null),
        other => Err(SqlError::Plan(format!(
            "expected a literal, found {other:?}"
        ))),
    }
}

/// Literal with coercion to the target column type (INSERT).
fn literal_value(e: &SExpr, ty: Ty) -> Result<Value, SqlError> {
    let v = literal_only(e)?;
    Ok(match (ty, v) {
        (Ty::Float, Value::Int(i)) => Value::Float(i as f64),
        (Ty::Date, Value::Int(i)) => Value::Date(i as i32),
        (_, v) => v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "items",
            Schema::new([("id", Ty::Int), ("cat", Ty::Int), ("price", Ty::Float)]),
        )
        .unwrap();
        c.create_table("cats", Schema::new([("cid", Ty::Int), ("name", Ty::Str)]))
            .unwrap();
        c
    }

    fn plan(sql: &str) -> Plan {
        let cat = catalog();
        match plan_statement(&parse(sql).unwrap(), &cat).unwrap() {
            Planned::Query(p) => p,
            _ => panic!("expected a query"),
        }
    }

    #[test]
    fn explain_plans_the_inner_select() {
        let cat = catalog();
        let planned =
            plan_statement(&parse("EXPLAIN ANALYZE SELECT * FROM items").unwrap(), &cat).unwrap();
        let Planned::Explain {
            analyze: true,
            plan,
        } = planned
        else {
            panic!("expected Planned::Explain");
        };
        assert!(matches!(plan, Plan::Scan { .. }));
    }

    #[test]
    fn pushes_single_table_filters_below_joins() {
        let p =
            plan("SELECT * FROM items JOIN cats ON cat = cid WHERE price > 2.0 AND name = 'cat-1'");
        let Plan::Join {
            left,
            right,
            filter,
            ..
        } = p
        else {
            panic!("expected join")
        };
        assert!(filter.is_none(), "all conjuncts should have been pushed");
        assert!(matches!(
            *left,
            Plan::Scan {
                filter: Some(_),
                ..
            }
        ));
        assert!(matches!(
            *right,
            Plan::Scan {
                filter: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn cross_table_predicates_stay_on_the_join() {
        let p = plan("SELECT * FROM items JOIN cats ON cat = cid WHERE id + cid > 4");
        let Plan::Join { filter, .. } = p else {
            panic!()
        };
        assert!(filter.is_some());
    }

    #[test]
    fn aggregates_build_aggregate_plus_projection() {
        let p = plan("SELECT cat, COUNT(*), SUM(price) FROM items GROUP BY cat ORDER BY 2 DESC");
        let Plan::Sort { input, keys, .. } = p else {
            panic!()
        };
        assert_eq!(keys, vec![(1, true)]);
        let Plan::Project { input, exprs } = *input else {
            panic!()
        };
        assert_eq!(exprs.len(), 3);
        assert!(matches!(*input, Plan::Aggregate { .. }));
    }

    #[test]
    fn order_by_alias() {
        let p = plan("SELECT cat AS c, COUNT(*) AS n FROM items GROUP BY cat ORDER BY n");
        assert!(matches!(p, Plan::Sort { keys, .. } if keys == vec![(1, false)]));
    }

    #[test]
    fn select_star_orders_by_column_name() {
        let p = plan("SELECT * FROM items ORDER BY price DESC LIMIT 3");
        assert!(matches!(p, Plan::Sort { keys, limit: Some(3), .. } if keys == vec![(2, true)]));
    }

    #[test]
    fn ambiguous_and_missing_columns_error() {
        let cat = catalog();
        let s = parse("SELECT * FROM items WHERE nope = 1").unwrap();
        assert!(plan_statement(&s, &cat).is_err());
        let s = parse("SELECT missing FROM items JOIN cats ON cat = cid").unwrap();
        assert!(plan_statement(&s, &cat).is_err());
    }

    #[test]
    fn non_grouped_column_in_aggregate_errors() {
        let cat = catalog();
        let s = parse("SELECT price, COUNT(*) FROM items GROUP BY cat").unwrap();
        let e = plan_statement(&s, &cat).unwrap_err();
        assert!(matches!(e, SqlError::Plan(msg) if msg.contains("GROUP BY")));
    }

    #[test]
    fn insert_coerces_ints_to_floats() {
        let cat = catalog();
        let s = parse("INSERT INTO items VALUES (1, 2, 3)").unwrap();
        let Planned::Write(Dml::Insert { rows, .. }) = plan_statement(&s, &cat).unwrap() else {
            panic!()
        };
        assert_eq!(rows[0][2], Value::Float(3.0));
    }

    #[test]
    fn update_and_delete_compile() {
        let cat = catalog();
        let s = parse("UPDATE items SET price = price * 1.1 WHERE cat IN (1, 2)").unwrap();
        assert!(matches!(
            plan_statement(&s, &cat).unwrap(),
            Planned::Write(Dml::Update { .. })
        ));
        let s = parse("DELETE FROM items WHERE id BETWEEN 5 AND 9").unwrap();
        assert!(matches!(
            plan_statement(&s, &cat).unwrap(),
            Planned::Write(Dml::Delete { .. })
        ));
    }

    fn plan_err(sql: &str) -> SqlError {
        let cat = catalog();
        let stmt = match parse(sql) {
            Ok(s) => s,
            Err(e) => return e, // rejected earlier, still an error not a panic
        };
        match plan_statement(&stmt, &cat) {
            Err(e) => e,
            Ok(_) => panic!("expected a planning error for {sql:?}"),
        }
    }

    #[test]
    fn order_by_position_past_output_arity_is_an_error() {
        // Pre-fix this compiled to Sort { keys: [(2, _)] } over 2-column
        // rows and panicked the executor at `row[2]`.
        let e = plan_err("SELECT id, cat FROM items ORDER BY 3");
        assert!(matches!(e, SqlError::Plan(_)), "{e:?}");
        let e = plan_err("SELECT cat, COUNT(*) FROM items GROUP BY cat ORDER BY 5");
        assert!(matches!(e, SqlError::Plan(_)), "{e:?}");
        // In-range positions still plan.
        plan("SELECT id, cat FROM items ORDER BY 2");
    }

    #[test]
    fn malformed_but_parseable_sql_errors_do_not_panic() {
        // Non-grouped column in an aggregate query.
        plan_err("SELECT price, COUNT(*) FROM items GROUP BY cat");
        // Unknown column in ORDER BY.
        plan_err("SELECT id FROM items ORDER BY nope");
        // Unknown column in WHERE.
        plan_err("SELECT id FROM items WHERE ghost = 1");
        // Ambiguous unqualified column across a join.
        plan_err(
            "SELECT * FROM items JOIN cats ON cat = cid WHERE id > 0 AND cid = id ORDER BY zzz",
        );
        // Aggregate with a missing argument.
        plan_err("SELECT SUM() FROM items");
    }

    #[test]
    fn like_patterns_map_to_string_predicates() {
        let p = plan("SELECT * FROM cats WHERE name LIKE 'cat%' AND name LIKE '%-1%'");
        let Plan::Scan {
            filter: Some(f), ..
        } = p
        else {
            panic!()
        };
        let s = format!("{f:?}");
        assert!(s.contains("StartsWith") && s.contains("Contains"));
    }
}
