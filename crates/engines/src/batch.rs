//! The batch-at-a-time columnar executor (the `vec` personality).
//!
//! Where the row executor ([`crate::executor`]) fetches and decodes one
//! tuple at a time — paying slot/header/decode loads and `state_loads_per_row`
//! interpreter traffic per row — this executor processes ~[`BATCH_ROWS`]-row
//! vectors over the columnar images built by
//! [`storage::ColumnChunks`]:
//!
//! * **Scans** stream only the column lanes a predicate references, select
//!   host-side, and *late-materialize*: output lanes are gathered only for
//!   surviving rows.
//! * **Index ranges** stream the key lane once and select in register.
//! * **Operator state** (the row engines' per-tuple VM/cursor traffic) is
//!   charged once per vector, amortized to `state_loads_per_row` (= 4 for
//!   [`crate::profile::VEC`]) per row instead of the row engines' 120–330.
//! * **Joins and aggregation** keep their inherently per-row random
//!   accesses (hash-bucket chases) but batch the hashing and bookkeeping.
//!
//! This module is the vec access and charging layer only. The operator
//! semantics — the unindexed `IndexRange` fold, hash-join build, probe and
//! key rule, the hash-aggregate group table, the aggregate fold and the
//! sort — come from a crate-private module shared with the row executor,
//! so the two cannot drift apart (the differential harness runs `vec` as a
//! fifth variant). Only the issued loads/stores/ops differ — which is the
//! whole point of the architectural counterfactual: how much of the paper's
//! 39–67% L1D energy share is *implementation style* rather than workload?

use crate::executor::{span_name, SCRATCH_BYTES};
use crate::ops::{self, col, RangePath, WorkMem};
use crate::plan::Plan;
use crate::profile::Profile;
use simcore::{Cpu, Dep, ExecOp, Region, LINE};
use storage::{AggSpec, Catalog, ColumnChunks, Expr, Row, StorageError};

/// Vector width: rows processed per batch.
pub const BATCH_ROWS: usize = 1024;

/// Per-query execution environment of the batch executor. Unlike the row
/// executor's [`crate::executor::Env`] it needs no buffer pool: batch
/// operators read column lanes directly, not heap pages.
pub struct BatchEnv<'a> {
    /// Catalog (the columnar images live on [`storage::TableInfo`]).
    pub catalog: &'a Catalog,
    /// Engine personality (must have [`Profile::vectorized`] set).
    pub profile: &'a Profile,
    work: WorkMem,
    scratch: Region,
    scratch_off: u64,
}

impl<'a> BatchEnv<'a> {
    /// Build an environment over `catalog`. `temp` is the session's
    /// reusable scratch region for sort runs and hash tables.
    pub fn new(
        cpu: &mut Cpu,
        catalog: &'a Catalog,
        profile: &'a Profile,
        work_mem: u64,
        temp: Option<Region>,
    ) -> storage::Result<BatchEnv<'a>> {
        let scratch = cpu.alloc(SCRATCH_BYTES)?;
        Ok(BatchEnv {
            catalog,
            profile,
            work: WorkMem::new(work_mem, temp),
            scratch,
            scratch_off: 0,
        })
    }

    /// Batched bookkeeping ops: `per_row_ops` per row, issued once per
    /// vector (the amortized interpretation dispatch).
    fn per_batch_ops(&mut self, cpu: &mut Cpu, rows: u64) {
        if rows > 0 {
            cpu.exec_n(ExecOp::Generic, self.profile.per_row_ops * rows);
        }
    }

    /// Batched operator-state traffic: the row engines charge
    /// `state_loads_per_row` per *tuple*; here the whole vector shares one
    /// operator-state visit, so the per-row charge collapses to the
    /// profile's (tiny) amortized value.
    fn state_touch(&mut self, cpu: &mut Cpu, rows: u64) {
        let n = self.profile.state_loads_per_row * rows;
        if n == 0 {
            return;
        }
        let lines = (self.scratch.len / LINE).clamp(1, 8);
        let per_line = n / lines;
        for l in 0..lines {
            cpu.load_repeat(self.scratch.addr + l * LINE, per_line.max(1));
        }
        cpu.store_repeat(self.scratch.addr, (n / 4).max(1));
        cpu.exec_n(ExecOp::Generic, (n as f64 * self.profile.ops_factor) as u64);
    }

    /// Charge the stores of materializing `rows` output tuples of `arity`
    /// columns into the scratch ring (whole-vector volume, ring-wrapped).
    fn materialize_rows(&mut self, cpu: &mut Cpu, arity: usize, rows: u64) {
        let mut remaining = arity as u64 * 16 * rows;
        let target = self.scratch;
        while remaining > 0 {
            let start = self.scratch_off % target.len;
            let chunk = remaining.min(target.len - start);
            storage::page::touch_store(cpu, target.addr + start, chunk);
            self.scratch_off = (self.scratch_off + chunk) % target.len;
            remaining -= chunk;
        }
    }
}

/// Execute `plan` batch-at-a-time and return its rows.
///
/// Operators emit the same `mjobs` spans as the row executor (names carry a
/// `v` prefix via [`span_name`]), so traced vec queries flame-graph and
/// EXPLAIN ANALYZE exactly like the row engines.
pub fn run(cpu: &mut Cpu, env: &mut BatchEnv<'_>, plan: &Plan) -> storage::Result<Vec<Row>> {
    mjobs::span::enter(cpu, || span_name(plan, env.profile));
    let rows = run_op(cpu, env, plan);
    if let Ok(r) = &rows {
        mjobs::span::annotate_rows(r.len() as u64);
    }
    mjobs::span::exit(cpu);
    rows
}

fn run_op(cpu: &mut Cpu, env: &mut BatchEnv<'_>, plan: &Plan) -> storage::Result<Vec<Row>> {
    match plan {
        Plan::Scan {
            table,
            filter,
            project,
        } => scan(cpu, env, table, filter, project),
        Plan::IndexRange {
            table,
            col,
            lo,
            hi,
            filter,
            project,
        } => index_range(cpu, env, table, col, *lo, *hi, filter, project),
        Plan::Join {
            left,
            right,
            left_col,
            right_col,
            filter,
            project,
        } => join(
            cpu, env, left, right, *left_col, *right_col, filter, project,
        ),
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => aggregate(cpu, env, input, group_by, aggs),
        Plan::Sort { input, keys, limit } => {
            let rows = run(cpu, env, input)?;
            ops::sort(cpu, &mut env.work, rows, keys, *limit)
        }
        Plan::Limit { input, n } => {
            let mut rows = run(cpu, env, input)?;
            rows.truncate(*n);
            Ok(rows)
        }
        Plan::Project { input, exprs } => {
            let rows = run(cpu, env, input)?;
            let mut out = Vec::with_capacity(rows.len());
            for batch in rows.chunks(BATCH_ROWS) {
                for row in batch {
                    out.push(exprs.iter().map(|e| e.eval(cpu, row)).collect::<Row>());
                }
                env.materialize_rows(cpu, exprs.len(), batch.len() as u64);
            }
            Ok(out)
        }
    }
}

/// Collect the column indices an expression references.
fn expr_cols(e: &Expr, out: &mut Vec<usize>) {
    match e {
        Expr::Col(i) => out.push(*i),
        Expr::Lit(_) => {}
        Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Bin(_, l, r) => {
            expr_cols(l, out);
            expr_cols(r, out);
        }
        Expr::Not(x)
        | Expr::Contains(x, _)
        | Expr::StartsWith(x, _)
        | Expr::Between(x, _, _)
        | Expr::InList(x, _) => expr_cols(x, out),
    }
}

/// The lanes `exprs` read, ascending and deduplicated.
fn lanes<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> Vec<usize> {
    let mut v = Vec::new();
    for e in exprs {
        expr_cols(e, &mut v);
    }
    v.sort_unstable();
    v.dedup();
    v
}

/// Which lanes the output needs (project-referenced columns, or all of
/// them), plus the output arity.
fn output_cols(arity: usize, project: &Option<Vec<Expr>>) -> (Vec<usize>, usize) {
    match project {
        Some(p) => (lanes(p), p.len()),
        None => ((0..arity).collect(), arity),
    }
}

/// Assemble the full host row at chunk position `r`.
fn row_at(chunks: &ColumnChunks, r: usize) -> Row {
    (0..chunks.arity())
        .map(|c| chunks.value(c, r).clone())
        .collect()
}

fn chunks_of<'c>(catalog: &'c Catalog, table: &str) -> storage::Result<&'c ColumnChunks> {
    catalog
        .table(table)?
        .columnar
        .as_ref()
        .ok_or(StorageError::Schema("columnar image not attached"))
}

fn scan(
    cpu: &mut Cpu,
    env: &mut BatchEnv<'_>,
    table: &str,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
) -> storage::Result<Vec<Row>> {
    let chunks = chunks_of(env.catalog, table)?;
    let arity = chunks.arity();
    let pred_cols = lanes(filter);
    let (out_cols, out_arity) = output_cols(arity, project);

    let rows = chunks.rows();
    let mut out = Vec::new();
    let mut lo = 0usize;
    while lo < rows {
        let hi = (lo + BATCH_ROWS).min(rows);
        let n = (hi - lo) as u64;
        // Predicate lanes stream once over the whole vector.
        for &c in &pred_cols {
            chunks.col(c).touch_range(cpu, lo, hi, Dep::Stream);
        }
        env.per_batch_ops(cpu, n);
        let mut survivors: Vec<usize> = Vec::with_capacity(hi - lo);
        match filter {
            Some(f) => {
                for r in lo..hi {
                    let row = row_at(chunks, r);
                    if f.matches(cpu, &row) {
                        survivors.push(r);
                    }
                }
            }
            None => survivors.extend(lo..hi),
        }
        // Late materialization: output lanes are only read for survivors.
        let k = survivors.len();
        for &c in &out_cols {
            if !pred_cols.contains(&c) {
                chunks.col(c).touch_range(cpu, lo, lo + k, Dep::Stream);
            }
        }
        env.state_touch(cpu, n);
        for &r in &survivors {
            out.extend(ops::filter_project(cpu, row_at(chunks, r), &None, project));
        }
        env.materialize_rows(cpu, out_arity, k as u64);
        lo = hi;
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn index_range(
    cpu: &mut Cpu,
    env: &mut BatchEnv<'_>,
    table: &str,
    colname: &str,
    lo_b: Option<i64>,
    hi_b: Option<i64>,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
) -> storage::Result<Vec<Row>> {
    let ci = match ops::range_path(env.catalog, table, colname, lo_b, hi_b, filter)? {
        RangePath::Scan(filter) => return scan(cpu, env, table, &filter, project),
        RangePath::Indexed { col, .. } => col,
    };

    // Columnar "index scan": stream the key lane once and select in
    // register, then emit in (key asc, row order) — the same order and the
    // same integral-key semantics (floats truncate, non-integral rows drop
    // out) as the row engines' B-tree emission.
    let chunks = chunks_of(env.catalog, table)?;
    let rows = chunks.rows();
    chunks.col(ci).touch_range(cpu, 0, rows, Dep::Stream);
    cpu.exec_n(ExecOp::Generic, rows as u64);
    let mut hits: Vec<(i64, usize)> = Vec::new();
    for r in 0..rows {
        if let Some(k) = chunks.value(ci, r).as_int() {
            if lo_b.is_none_or(|l| k >= l) && hi_b.is_none_or(|h| k <= h) {
                hits.push((k, r));
            }
        }
    }
    hits.sort_unstable();

    let (out_cols, out_arity) = output_cols(chunks.arity(), project);
    let mut out = Vec::new();
    for batch in hits.chunks(BATCH_ROWS) {
        let n = batch.len() as u64;
        env.per_batch_ops(cpu, n);
        // Selected rows are scattered: gather each hit's output lanes.
        for &(_, r) in batch {
            for &c in &out_cols {
                chunks.col(c).touch_range(cpu, r, r + 1, Dep::Stream);
            }
        }
        env.state_touch(cpu, n);
        let before = out.len();
        for &(_, r) in batch {
            out.extend(ops::filter_project(cpu, row_at(chunks, r), filter, project));
        }
        env.materialize_rows(cpu, out_arity, (out.len() - before) as u64);
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn join(
    cpu: &mut Cpu,
    env: &mut BatchEnv<'_>,
    left: &Plan,
    right: &Plan,
    left_col: usize,
    right_col: usize,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
) -> storage::Result<Vec<Row>> {
    // The vectorized personality always hash-joins, building on the right
    // child (workload plans put the smaller input there).
    let build_rows = run(cpu, env, right)?;
    let ht = ops::HashJoin::build(cpu, &mut env.work, build_rows, right_col)?;
    let probe_rows = run(cpu, env, left)?;
    let mut out = Vec::new();
    for batch in probe_rows.chunks(BATCH_ROWS) {
        env.state_touch(cpu, batch.len() as u64);
        let mut cands: Vec<Row> = Vec::new();
        for lrow in batch {
            for rrow in ht.probe(cpu, col(lrow, left_col)?) {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                cands.push(row);
            }
        }
        env.per_batch_ops(cpu, cands.len() as u64);
        let before = out.len();
        for row in cands {
            out.extend(ops::filter_project(cpu, row, filter, project));
        }
        let arity = out.last().map_or(0, |r| r.len());
        env.materialize_rows(cpu, arity, (out.len() - before) as u64);
    }
    Ok(out)
}

fn aggregate(
    cpu: &mut Cpu,
    env: &mut BatchEnv<'_>,
    input: &Plan,
    group_by: &[usize],
    aggs: &[AggSpec],
) -> storage::Result<Vec<Row>> {
    let rows = run(cpu, env, input)?;

    // Scalar aggregation: one state vector folded batch-at-a-time.
    if group_by.is_empty() {
        let mut states = ops::new_states(aggs);
        for batch in rows.chunks(BATCH_ROWS) {
            env.state_touch(cpu, batch.len() as u64);
            for row in batch {
                ops::update_states(cpu, &mut states, aggs, row);
            }
        }
        let result = ops::finish_row(Vec::new(), &states, aggs);
        env.materialize_rows(cpu, result.len(), 1);
        return Ok(vec![result]);
    }

    // Hash aggregation, batch-at-a-time: the group-state slot is still a
    // random (chase) access per row — vectorization cannot batch that — but
    // key hashing and bookkeeping amortize over the vector.
    let mut groups = ops::GroupTable::new(cpu, &mut env.work, rows.len(), group_by, aggs)?;
    for batch in rows.chunks(BATCH_ROWS) {
        let n = batch.len() as u64;
        env.state_touch(cpu, n);
        env.per_batch_ops(cpu, n);
        cpu.exec_n(ExecOp::Mul, n);
        for row in batch {
            groups.fold(cpu, row)?;
        }
    }
    let out = groups.finish();
    if let Some(r0) = out.first() {
        env.materialize_rows(cpu, r0.len(), out.len() as u64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::demo_database;
    use crate::dml::lit;
    use crate::profile::EngineKind;
    use crate::Dml;
    use simcore::{ArchConfig, Cpu, Event};
    use storage::{AggFn, CmpOp, Value};

    fn cpu() -> Cpu {
        Cpu::new(ArchConfig::intel_i7_4790())
    }

    #[test]
    fn vec_scan_issues_fewer_loads_than_row_scan() {
        // A selective single-column query: the row engines decode every
        // tuple and pay per-row interpreter traffic; the columnar engine
        // streams two lanes and late-materializes. Load counts must reflect
        // that — this is the energy argument the personality exists for.
        let plan = Plan::Scan {
            table: "items".into(),
            filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(20))),
            project: Some(vec![Expr::col(2)]),
        };
        let loads = |kind: EngineKind| {
            let mut c = cpu();
            let mut db = demo_database(&mut c, kind).unwrap();
            // Warm attach outside the measurement.
            db.session().run(&mut c, &plan).unwrap();
            let m = c.measure(|c| {
                db.session().run(c, &plan).unwrap();
            });
            m.pmu.get(Event::LoadIssued)
        };
        let row = loads(EngineKind::Pg);
        let vec = loads(EngineKind::Vec);
        assert!(
            vec * 4 < row,
            "columnar scan should load far less: vec={vec} row={row}"
        );
    }

    #[test]
    fn vec_results_match_row_results_on_each_operator_shape() {
        let plans = [
            Plan::scan("items"),
            Plan::scan_where(
                "items",
                Expr::cmp(CmpOp::Ge, Expr::col(2), Expr::float(3.0)),
            ),
            Plan::IndexRange {
                table: "items".into(),
                col: "cat".into(),
                lo: Some(2),
                hi: Some(5),
                filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(100))),
                project: None,
            },
            Plan::IndexRange {
                table: "items".into(),
                col: "price".into(), // no index on price: Expr fallback
                lo: Some(1),
                hi: Some(4),
                filter: None,
                project: None,
            },
            Plan::scan("items").join(Plan::scan("cats"), 1, 0),
            Plan::scan("items").aggregate(
                vec![1],
                vec![
                    AggSpec::count_star(),
                    AggSpec::over(AggFn::Sum, Expr::col(2)),
                ],
            ),
            Plan::scan("items").aggregate(vec![], vec![AggSpec::over(AggFn::Avg, Expr::col(2))]),
            Plan::scan("items").top_n(vec![(2, true), (0, false)], 9),
            Plan::Limit {
                input: Box::new(Plan::scan("items")),
                n: 13,
            },
            Plan::scan("cats").project(vec![Expr::col(1), Expr::col(0)]),
        ];
        for plan in &plans {
            let run_kind = |kind: EngineKind| {
                let mut c = cpu();
                let mut db = demo_database(&mut c, kind).unwrap();
                db.session().run(&mut c, plan).unwrap()
            };
            let pg = run_kind(EngineKind::Pg);
            let vec = run_kind(EngineKind::Vec);
            assert_eq!(pg, vec, "vec disagrees with Pg on {}", plan.explain());
        }
    }

    #[test]
    fn vec_spans_are_v_prefixed() {
        let plan = Plan::scan("items").aggregate(vec![1], vec![AggSpec::count_star()]);
        let mut c = cpu();
        let mut db = demo_database(&mut c, EngineKind::Vec).unwrap();
        db.session().run(&mut c, &plan).unwrap();
        mjobs::span::install();
        db.session().run(&mut c, &plan).unwrap();
        let spans = mjobs::span::take();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"vagg(hash)"), "{names:?}");
        assert!(names.contains(&"vscan(items)"), "{names:?}");
    }

    #[test]
    fn columnar_image_is_invalidated_by_dml_and_rebuilt() {
        let mut c = cpu();
        let mut db = demo_database(&mut c, EngineKind::Vec).unwrap();
        let count = |c: &mut Cpu, db: &mut crate::Database| {
            let plan = Plan::scan("items").aggregate(vec![], vec![AggSpec::count_star()]);
            db.session().run(c, &plan).unwrap()[0][0].as_int().unwrap()
        };
        assert_eq!(count(&mut c, &mut db), 200);
        assert!(db.catalog().table("items").unwrap().columnar.is_some());
        db.session()
            .execute(
                &mut c,
                &Dml::Insert {
                    table: "items".into(),
                    rows: vec![vec![Value::Int(900), Value::Int(1), Value::Float(2.5)]],
                },
            )
            .unwrap();
        // The write dropped the stale image...
        assert!(db.catalog().table("items").unwrap().columnar.is_none());
        // ...and the next query rebuilds it with the new row visible.
        assert_eq!(count(&mut c, &mut db), 201);
        assert!(db.catalog().table("items").unwrap().columnar.is_some());
        // Updates and vacuum invalidate too.
        db.session()
            .execute(
                &mut c,
                &Dml::Update {
                    table: "items".into(),
                    filter: Some(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(900))),
                    set: vec![(2, lit(Value::Float(9.0)))],
                },
            )
            .unwrap();
        assert!(db.catalog().table("items").unwrap().columnar.is_none());
        assert_eq!(count(&mut c, &mut db), 201);
        db.session().vacuum(&mut c, "items").unwrap();
        assert!(db.catalog().table("items").unwrap().columnar.is_none());
        assert_eq!(count(&mut c, &mut db), 201);
    }

    #[test]
    fn missing_columnar_image_is_a_typed_error() {
        let mut c = cpu();
        let db = demo_database(&mut c, EngineKind::Vec).unwrap();
        let profile = EngineKind::Vec.profile();
        let mut env = BatchEnv::new(&mut c, db.catalog(), profile, 1 << 20, None).unwrap();
        // Direct executor use without the session's ensure-columnar step.
        let err = run(&mut c, &mut env, &Plan::scan("items")).unwrap_err();
        assert!(matches!(err, StorageError::Schema(_)), "{err:?}");
    }
}
