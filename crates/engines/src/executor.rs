//! The profile-driven physical executor.
//!
//! One executor, three personalities: every structural switch in
//! [`Profile`] changes which simulated loads/stores/ops a query issues.
//! Operators materialize their outputs (filters and projections are fused
//! into scans and joins, so selective predicates still prune early); the
//! energy-relevant store traffic of tuple materialization is charged
//! explicitly against a scratch "register file" ring that stays
//! L1D-resident — the paper's observation that read-only queries still
//! issue ~⅔ as many stores as loads, 99.86% of which hit L1D (§3.2).
//!
//! Semantics shared with the batch executor (hash join, hash and scalar
//! aggregation, sort, the unindexed `IndexRange` fold) live in a
//! crate-private module; this one owns the row engines' access paths and
//! their per-row charging.

use crate::db::u64_to_tid;
use crate::ops::{self, col, key_of_row, RangePath, WorkMem};
use crate::plan::Plan;
use crate::profile::Profile;
use simcore::{Cpu, Dep, ExecOp, Region};
use std::collections::hash_map::{Entry, HashMap};
use storage::buffer::BufferPool;
use storage::catalog::TableInfo;
use storage::expr::AggState;
use storage::{AggSpec, BTree, Catalog, Expr, PageStore, Row, Value};

/// Per-query execution environment.
pub struct Env<'a> {
    /// The database file.
    pub store: &'a PageStore,
    /// Page residency, with the DTCM pins when the co-design is configured.
    pub pool: &'a mut BufferPool,
    /// Catalog.
    pub catalog: &'a Catalog,
    /// Engine personality.
    pub profile: &'a Profile,
    work: WorkMem,
    scratch: Region,
    /// TCM sub-region for the hottest VM variables (§4.2 "special
    /// variables"); `None` on ordinary builds.
    hot_vars: Option<Region>,
    scratch_off: u64,
    temp_store: PageStore,
    temp_pool: BufferPool,
}

/// Size of the executor's scratch "register file" ring.
pub const SCRATCH_BYTES: u64 = 8 * 1024;

impl<'a> Env<'a> {
    /// Build an environment. `hot_vars` points the hottest VM state at a TCM
    /// region (the DTCM build, §4.2 "special variables"); `temp` is the
    /// session's reusable scratch region for sort runs and hash tables.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cpu: &mut Cpu,
        store: &'a PageStore,
        pool: &'a mut BufferPool,
        catalog: &'a Catalog,
        profile: &'a Profile,
        work_mem: u64,
        hot_vars: Option<Region>,
        temp: Option<Region>,
    ) -> storage::Result<Env<'a>> {
        let scratch = cpu.alloc(SCRATCH_BYTES)?;
        Ok(Env {
            store,
            pool,
            catalog,
            profile,
            work: WorkMem::new(work_mem, temp),
            scratch,
            hot_vars,
            scratch_off: 0,
            temp_store: PageStore::new(4096),
            temp_pool: BufferPool::new_memory_resident(1 << 22, 4096),
        })
    }

    /// Charge the per-row interpreter traffic (VM registers / cursor
    /// structs / locals): `state_loads_per_row` loads, a quarter as many
    /// stores, a third as many bookkeeping ops, spread over a handful of
    /// hot lines. On the DTCM build these are served from TCM — the §4.2
    /// "special variables", which the paper measured as ~70% of all L1D
    /// loads in `sqlite3VdbeExec`.
    fn state_touch(&mut self, cpu: &mut Cpu) {
        let n = self.profile.state_loads_per_row;
        // On the DTCM build, the 4 KB special-variable budget covers the VM
        // registers and the hottest cursor fields — roughly 70% of this
        // traffic, per the paper's profiling of `sqlite3VdbeExec`; the rest
        // (deep cursor state, page-cache headers) stays in ordinary memory.
        let (hot_n, cold_n) = match self.hot_vars {
            Some(_) => ((n * 7) / 10, n - (n * 7) / 10),
            None => (0, n),
        };
        let touch = |cpu: &mut Cpu, region: Region, count: u64| {
            if count == 0 {
                return;
            }
            // Rotate across a few hot lines (compact structs, not one word).
            let lines = (region.len / simcore::LINE).clamp(1, 8);
            let per_line = count / lines;
            for l in 0..lines {
                cpu.load_repeat(region.addr + l * simcore::LINE, per_line.max(1));
            }
        };
        if let Some(hot) = self.hot_vars {
            touch(cpu, hot, hot_n);
        }
        let scratch = self.scratch;
        touch(cpu, scratch, cold_n);
        let store_target = self.hot_vars.unwrap_or(self.scratch);
        cpu.store_repeat(store_target.addr, n / 4);
        cpu.exec_n(ExecOp::Generic, (n as f64 * self.profile.ops_factor) as u64);
    }

    /// Charge the stores of materialising an `arity`-column tuple into the
    /// register/record ring (the TCM special-variable region on the DTCM
    /// build — SQLite's VM registers are both read and written there).
    fn materialize(&mut self, cpu: &mut Cpu, arity: usize) {
        let target = self.hot_vars.unwrap_or(self.scratch);
        let bytes = (arity as u64 * 16).min(target.len);
        let start = self.scratch_off % target.len;
        let end = (start + bytes).min(target.len);
        storage::page::touch_store(cpu, target.addr + start, end - start);
        self.scratch_off = (self.scratch_off + bytes) % target.len;
    }
}

/// The trace-span name of one plan operator: the variant, plus the detail
/// that distinguishes instances in a flame graph (table, index column,
/// join algorithm). Public so the profiler (mjprof) can map span streams
/// back onto plan nodes; only called when a span collector is installed.
pub fn span_name(plan: &Plan, profile: &Profile) -> String {
    let name = match plan {
        Plan::Scan { table, .. } => format!("scan({table})"),
        Plan::IndexRange { table, col, .. } => format!("index_range({table}.{col})"),
        Plan::Join { .. } => {
            if profile.hash_join {
                "hash_join".to_owned()
            } else {
                "index_nl_join".to_owned()
            }
        }
        Plan::Aggregate { group_by, .. } if group_by.is_empty() => "agg(scalar)".to_owned(),
        Plan::Aggregate { .. } if profile.hash_agg => "agg(hash)".to_owned(),
        Plan::Aggregate { .. } => "agg(tree)".to_owned(),
        Plan::Sort { .. } => "sort".to_owned(),
        Plan::Limit { .. } => "limit".to_owned(),
        Plan::Project { .. } => "project".to_owned(),
    };
    // Batch operators carry a `v` prefix so flame graphs and EXPLAIN
    // ANALYZE distinguish the executors at a glance.
    if profile.vectorized {
        format!("v{name}")
    } else {
        name
    }
}

/// Execute `plan` and return its rows.
///
/// Every operator is bracketed by an `mjobs` span (a no-op unless the
/// harness enabled `--trace`), so a traced query renders as a flame graph
/// of its plan tree with per-operator simulated time, cycles and energy.
/// Span capture only snapshots counters — it never advances the simulated
/// machine — so tracing cannot change measured results.
pub fn run(cpu: &mut Cpu, env: &mut Env<'_>, plan: &Plan) -> storage::Result<Vec<Row>> {
    mjobs::span::enter(cpu, || span_name(plan, env.profile));
    let rows = run_op(cpu, env, plan);
    if let Ok(r) = &rows {
        mjobs::span::annotate_rows(r.len() as u64);
    }
    mjobs::span::exit(cpu);
    rows
}

/// Operator dispatch (the body of [`run`], outside its trace span).
fn run_op(cpu: &mut Cpu, env: &mut Env<'_>, plan: &Plan) -> storage::Result<Vec<Row>> {
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
        } => {
            let join = if env.profile.hash_join {
                hash_join
            } else {
                index_nl_join
            };
            join(
                cpu, env, left, right, *left_col, *right_col, filter, project,
            )
        }
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
            for row in rows {
                let projected: Row = exprs.iter().map(|e| e.eval(cpu, &row)).collect();
                env.materialize(cpu, projected.len());
                out.push(projected);
            }
            Ok(out)
        }
    }
}

/// Fetch + decode one heap row, charging per-row personality costs.
/// Returns `None` for tombstoned (dead) tuples.
fn fetch_row(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    t: &TableInfo,
    tid: storage::heap::TupleId,
    dep: Dep,
) -> storage::Result<Option<Row>> {
    let page = env.pool.access(cpu, env.store, tid.0);
    let (addr, len) = page.tuple_bounds(cpu, tid.1, dep)?;
    if len == 0 {
        return Ok(None);
    }
    // First touch of the tuple's line(s) with the access-path dependency...
    storage::page::touch(cpu, addr, len as u64, dep);
    // ...then one load per column access, as real row decoders issue: these
    // hit the now-resident line(s) in L1D (or TCM, if the page is pinned),
    // which is precisely where the paper's scan energy concentrates (§3.2).
    let arity = t.schema.arity() as u64;
    let span = (len as u64).max(1);
    for i in 0..arity {
        cpu.load(addr + (i * 13) % span, Dep::Stream);
        cpu.exec(ExecOp::Generic); // decode dispatch
    }
    let row = storage::decode_row(&t.schema, cpu.arena().bytes(addr, len as usize)?)?;
    if env.profile.per_row_mul > 0 {
        cpu.exec_n(ExecOp::Mul, env.profile.per_row_mul);
    }
    env.state_touch(cpu);
    env.materialize(cpu, row.len());
    Ok(Some(row))
}

/// Apply per-row overhead + filter + projection; push survivors.
fn emit(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    row: Row,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
    out: &mut Vec<Row>,
) {
    cpu.exec_n(ExecOp::Generic, env.profile.per_row_ops);
    if let Some(row) = ops::filter_project(cpu, row, filter, project) {
        if project.is_some() {
            env.materialize(cpu, row.len());
        }
        out.push(row);
    }
}

/// Concatenate a join's two sides, charge the materialization, and emit.
fn emit_joined(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    lrow: &Row,
    rrow: impl IntoIterator<Item = Value>,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
    out: &mut Vec<Row>,
) {
    let mut row = lrow.clone();
    row.extend(rrow);
    env.materialize(cpu, row.len());
    emit(cpu, env, row, filter, project, out);
}

fn scan(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    table: &str,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
) -> storage::Result<Vec<Row>> {
    let catalog = env.catalog;
    let t = catalog.table(table)?;
    let mut out = Vec::new();
    if let (true, Some(pk)) = (env.profile.scan_via_btree, &t.pk_index) {
        // Lite/My: walk the table/clustered B-tree in key order; heap rows
        // are physically in that order, so fetches stream.
        let tree = pk.clone();
        let mut cur = tree.seek_first(cpu, env.store, env.pool);
        while let Some((_, payload)) = cur.next(cpu, env.store, env.pool) {
            if let Some(row) = fetch_row(cpu, env, t, u64_to_tid(payload), Dep::Stream)? {
                emit(cpu, env, row, filter, project, &mut out);
            }
        }
    } else {
        // Pg: raw sequential heap scan.
        let mut cur = t.heap.cursor();
        while let Some(tid) = cur.next(cpu, &t.heap, env.store, env.pool)? {
            if let Some(row) = fetch_row(cpu, env, t, tid, Dep::Stream)? {
                emit(cpu, env, row, filter, project, &mut out);
            }
        }
    }
    Ok(out)
}

/// Resolve a secondary-index payload to a heap row. Personalities with
/// `secondary_via_pk` pay an extra clustered-tree descent (the
/// SQLite-rowid / InnoDB-PK double lookup); the payload itself carries the
/// tuple id so results stay exact even for non-unique cluster keys.
fn fetch_via_index(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    t: &TableInfo,
    payload: u64,
    is_pk_index: bool,
    dep: Dep,
) -> storage::Result<Option<Row>> {
    if env.profile.secondary_via_pk && !is_pk_index {
        if let Some(pk) = &t.pk_index {
            // Descend the clustered tree (cost of the second lookup).
            let pseudo_key = (payload >> 4) as i64;
            let _ = pk.seek(cpu, env.store, env.pool, pseudo_key);
        }
    }
    fetch_row(cpu, env, t, u64_to_tid(payload), dep)
}

#[allow(clippy::too_many_arguments)]
fn index_range(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    table: &str,
    col: &str,
    lo: Option<i64>,
    hi: Option<i64>,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
) -> storage::Result<Vec<Row>> {
    let (t, ci, tree) = match ops::range_path(env.catalog, table, col, lo, hi, filter)? {
        RangePath::Scan(filter) => return scan(cpu, env, table, &filter, project),
        RangePath::Indexed { table, col, tree } => (table, col, tree),
    };
    let is_pk = t.pk_col == Some(ci);
    let mut cur = tree.seek(cpu, env.store, env.pool, lo.unwrap_or(i64::MIN));
    let mut out = Vec::new();
    while let Some((k, payload)) = cur.next(cpu, env.store, env.pool) {
        if let Some(h) = hi {
            if k > h {
                break;
            }
        }
        // Fetches of successive index entries are mutually independent:
        // the leaf supplies all tuple ids up front, so the heap reads
        // pipeline (MLP) instead of serialising.
        if let Some(row) = fetch_via_index(cpu, env, t, payload, is_pk, Dep::Stream)? {
            emit(cpu, env, row, filter, project, &mut out);
        }
    }
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn hash_join(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    left: &Plan,
    right: &Plan,
    left_col: usize,
    right_col: usize,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
) -> storage::Result<Vec<Row>> {
    // Build on the right child (workload plans put the smaller input there).
    let build_rows = run(cpu, env, right)?;
    let ht = ops::HashJoin::build(cpu, &mut env.work, build_rows, right_col)?;
    let probe_rows = run(cpu, env, left)?;
    let mut out = Vec::new();
    // By value: each probe row is freed as the output grows.
    for lrow in probe_rows {
        for rrow in ht.probe(cpu, col(&lrow, left_col)?) {
            emit_joined(cpu, env, &lrow, rrow.clone(), filter, project, &mut out);
        }
    }
    Ok(out)
}

/// The inner table and its index on `join_col`, when `plan` is a bare scan
/// whose output columns are the base table's — the precondition for
/// driving a nested-loop join through a base index.
fn as_indexable<'c>(
    catalog: &'c Catalog,
    plan: &'c Plan,
    join_col: usize,
) -> Option<(&'c TableInfo, &'c BTree, &'c Option<Expr>)> {
    let Plan::Scan {
        table,
        filter,
        project: None,
    } = plan
    else {
        return None;
    };
    let t = catalog.table(table).ok()?;
    Some((t, t.index_on(join_col)?, filter))
}

#[allow(clippy::too_many_arguments)]
fn index_nl_join(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    left: &Plan,
    right: &Plan,
    left_col: usize,
    right_col: usize,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
) -> storage::Result<Vec<Row>> {
    let outer_rows = run(cpu, env, left)?;
    let mut out = Vec::new();

    if let Some((t, tree, rfilter)) = as_indexable(env.catalog, right, right_col) {
        // Index nested loop: descend the inner index once per outer row.
        // Index keys are the column's integer view, so the seek finds every
        // candidate; the key rule then decides (a 1.5 seeks key 1 but must
        // not match an inner 1).
        let is_pk = t.pk_col == Some(right_col);
        for lrow in outer_rows {
            let lkey = col(&lrow, left_col)?;
            let Some(key) = lkey.as_int() else {
                continue;
            };
            let mut cur = tree.seek(cpu, env.store, env.pool, key);
            while let Some((k, payload)) = cur.next(cpu, env.store, env.pool) {
                if k != key {
                    break;
                }
                let Some(rrow) = fetch_via_index(cpu, env, t, payload, is_pk, Dep::Stream)? else {
                    continue;
                };
                if !ops::keys_match(col(&rrow, right_col)?, lkey) {
                    continue;
                }
                if let Some(rf) = rfilter {
                    if !rf.matches(cpu, &rrow) {
                        continue;
                    }
                }
                emit_joined(cpu, env, &lrow, rrow, filter, project, &mut out);
            }
        }
        return Ok(out);
    }

    // SQLite-style transient automatic index: materialise the inner child
    // into temp pages and build a B-tree over the join column (simulated
    // inserts — this is real work the engine does).
    let inner_rows = run(cpu, env, right)?;
    let mut auto = BTree::create(cpu, &mut env.temp_store)?;
    for (i, row) in inner_rows.iter().enumerate() {
        let key = auto_index_key(col(row, right_col)?);
        auto.insert(cpu, &mut env.temp_store, &mut env.temp_pool, key, i as u64)?;
    }
    for lrow in outer_rows {
        let lkey = col(&lrow, left_col)?;
        if matches!(lkey, Value::Null) {
            continue;
        }
        let key = auto_index_key(lkey);
        let mut cur = auto.seek(cpu, &env.temp_store, &mut env.temp_pool, key);
        while let Some((k, idx)) = cur.next(cpu, &env.temp_store, &mut env.temp_pool) {
            if k != key {
                break;
            }
            let rrow = &inner_rows[idx as usize];
            // Hashed keys (no integer image) can collide: verify.
            cpu.exec(ExecOp::Branch);
            if !ops::keys_match(col(rrow, right_col)?, lkey) {
                continue;
            }
            let rvals = rrow.iter().cloned();
            emit_joined(cpu, env, &lrow, rvals, filter, project, &mut out);
        }
    }
    Ok(out)
}

/// A join key's i64 B-tree key in the transient auto-index: its integer
/// image, else its stable hash (the join-key rule re-verifies after the
/// probe).
fn auto_index_key(v: &Value) -> i64 {
    ops::int_key(v).unwrap_or_else(|| v.hash64() as i64)
}

fn aggregate(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    input: &Plan,
    group_by: &[usize],
    aggs: &[AggSpec],
) -> storage::Result<Vec<Row>> {
    let rows = run(cpu, env, input)?;
    let out = if group_by.is_empty() {
        let mut states = ops::new_states(aggs);
        for row in &rows {
            ops::update_states(cpu, &mut states, aggs, row);
        }
        vec![ops::finish_row(Vec::new(), &states, aggs)]
    } else if env.profile.hash_agg {
        let mut groups = ops::GroupTable::new(cpu, &mut env.work, rows.len(), group_by, aggs)?;
        for row in &rows {
            cpu.exec(ExecOp::Mul); // hash
            groups.fold(cpu, row)?;
        }
        groups.finish()
    } else {
        tree_aggregate(cpu, env, &rows, group_by, aggs)?
    };
    for r in &out {
        env.materialize(cpu, r.len());
    }
    Ok(out)
}

/// Lite: ephemeral B-tree keyed by the group key (SQLite's transient index
/// for GROUP BY). With few groups the tree stays one or two L1D-resident
/// nodes, so grouping is load/store-dominated, not movement-dominated.
fn tree_aggregate(
    cpu: &mut Cpu,
    env: &mut Env<'_>,
    rows: &[Row],
    group_by: &[usize],
    aggs: &[AggSpec],
) -> storage::Result<Vec<Row>> {
    let region = env.work.alloc(cpu, 1 << 16)?;
    let slots = region.len / 64;
    let mut gt = BTree::create(cpu, &mut env.temp_store)?;
    let mut groups: HashMap<Vec<u8>, (Row, Vec<AggState>, u64)> = HashMap::new();
    for row in rows {
        let key_vals: Row = key_of_row(row, group_by.iter().copied())?;
        let key = ops::canon_key(&key_vals);
        let h = ops::hash_bytes(&key) as i64;
        let next_idx = groups.len() as u64;
        let (_, states, idx) = match groups.entry(key) {
            Entry::Occupied(e) => {
                // Existing group: one descent to find its row.
                let _ = gt.seek(cpu, &env.temp_store, &mut env.temp_pool, h);
                e.into_mut()
            }
            Entry::Vacant(e) => {
                gt.insert(cpu, &mut env.temp_store, &mut env.temp_pool, h, next_idx)?;
                e.insert((key_vals, ops::new_states(aggs), next_idx))
            }
        };
        // Aggregate-state read-modify-write.
        let state_addr = region.addr + (*idx % slots) * 64;
        cpu.load(state_addr, Dep::Stream);
        cpu.store(state_addr);
        ops::update_states(cpu, states, aggs, row);
    }
    // Emit in transient-tree order (deterministic: by hash, then key).
    let mut collected: Vec<(i64, Vec<u8>, Row, Vec<AggState>)> = groups
        .into_iter()
        .map(|(key, (key_vals, states, _))| (ops::hash_bytes(&key) as i64, key, key_vals, states))
        .collect();
    collected.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    Ok(collected
        .into_iter()
        .map(|(_, _, key_vals, states)| ops::finish_row(key_vals, &states, aggs))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::demo_database;
    use crate::ops::canon_key;
    use crate::profile::EngineKind;
    use simcore::{ArchConfig, Cpu};
    use storage::{AggFn, CmpOp};

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        rows
    }

    fn run_all(plan: &Plan) -> Vec<Vec<Row>> {
        EngineKind::ALL
            .into_iter()
            .map(|kind| {
                let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
                let mut db = demo_database(&mut cpu, kind).unwrap();
                sorted(db.session().run(&mut cpu, plan).unwrap())
            })
            .collect()
    }

    fn assert_engines_agree(plan: &Plan) -> Vec<Row> {
        let results = run_all(plan);
        for (i, kind) in EngineKind::ALL.into_iter().enumerate().skip(1) {
            assert_eq!(results[0], results[i], "Pg vs {kind:?} disagree");
        }
        results[0].clone()
    }

    #[test]
    fn filtered_scan_agrees_and_is_correct() {
        let plan = Plan::scan_where("items", Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(5)));
        let rows = assert_engines_agree(&plan);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn projection_evaluates_expressions() {
        let plan = Plan::Scan {
            table: "items".into(),
            filter: Some(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(3))),
            project: Some(vec![Expr::Bin(
                storage::BinOp::Mul,
                Box::new(Expr::col(2)),
                Box::new(Expr::int(2)),
            )]),
        };
        let rows = assert_engines_agree(&plan);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Float(7.0)); // price(id=3)=3.5 * 2
    }

    #[test]
    fn index_range_matches_filtered_scan() {
        let range = Plan::IndexRange {
            table: "items".into(),
            col: "cat".into(),
            lo: Some(2),
            hi: Some(3),
            filter: None,
            project: None,
        };
        let scan = Plan::scan_where(
            "items",
            Expr::and_all([
                Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::int(2)),
                Expr::cmp(CmpOp::Le, Expr::col(1), Expr::int(3)),
            ]),
        );
        let a = assert_engines_agree(&range);
        let b = assert_engines_agree(&scan);
        assert_eq!(a, b);
        assert_eq!(a.len(), 40);
    }

    #[test]
    fn join_agrees_across_engines() {
        // items ⋈ cats on cat = cid.
        let plan = Plan::scan("items").join(Plan::scan("cats"), 1, 0);
        let rows = assert_engines_agree(&plan);
        assert_eq!(rows.len(), 200);
        assert_eq!(rows[0].len(), 5);
    }

    #[test]
    fn join_with_projected_inner_uses_auto_index_path() {
        // Projected inner disables the base-index fast path for Lite.
        let inner = Plan::Scan {
            table: "cats".into(),
            filter: None,
            project: Some(vec![Expr::col(0), Expr::col(1)]),
        };
        let plan = Plan::scan("items").join(inner, 1, 0);
        let rows = assert_engines_agree(&plan);
        assert_eq!(rows.len(), 200);
    }

    /// `items` with `price` doubled: integral floats 1.0, 3.0, ..., 13.0.
    fn items_doubled_price() -> Plan {
        Plan::scan("items").project(vec![
            Expr::col(0),
            Expr::col(1),
            Expr::Bin(
                storage::BinOp::Mul,
                Box::new(Expr::col(2)),
                Box::new(Expr::int(2)),
            ),
        ])
    }

    /// `cats` behind a projection, which sends Lite to its transient
    /// auto-index instead of the base index.
    fn projected_cats() -> Plan {
        Plan::Scan {
            table: "cats".into(),
            filter: None,
            project: Some(vec![Expr::col(0), Expr::col(1)]),
        }
    }

    #[test]
    fn join_on_fractional_float_keys_matches_no_int_key() {
        // Every price is x.5, so `price = cid` holds for no row. Lite's
        // index nested loop used to seek the truncated key and match.
        for inner in [Plan::scan("cats"), projected_cats()] {
            let plan = Plan::scan("items").join(inner, 2, 0);
            assert_eq!(assert_engines_agree(&plan), Vec::<Row>::new());
        }
    }

    #[test]
    fn join_on_integral_float_keys_matches_equal_int_keys() {
        // 2*price in {1, 3, 5, 7, 9} meets a cid for the 144 items with
        // id % 7 < 5. Hash joins used to bucket Float(1.0) apart from
        // Int(1) and match nothing.
        for inner in [Plan::scan("cats"), projected_cats()] {
            let plan = items_doubled_price().join(inner, 2, 0);
            let rows = assert_engines_agree(&plan);
            assert_eq!(rows.len(), 144);
            assert!(rows.iter().all(|r| r[2].group_eq(&r[3])));
        }
    }

    #[test]
    fn aggregate_group_by_agrees() {
        let plan = Plan::scan("items").aggregate(
            vec![1],
            vec![
                AggSpec::count_star(),
                AggSpec::over(AggFn::Sum, Expr::col(2)),
                AggSpec::over(AggFn::Max, Expr::col(0)),
            ],
        );
        let rows = assert_engines_agree(&plan);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert_eq!(r[1], Value::Int(20)); // 20 items per category
        }
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let plan = Plan::scan_where(
            "items",
            Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::int(10_000)),
        )
        .aggregate(vec![], vec![AggSpec::count_star()]);
        let rows = assert_engines_agree(&plan);
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn sort_with_limit_agrees() {
        let plan = Plan::Sort {
            input: Box::new(Plan::scan("items")),
            keys: vec![(2, true), (0, false)],
            limit: Some(7),
        };
        // Sorted output is order-sensitive: compare directly, not via
        // sorted().
        let results: Vec<Vec<Row>> = EngineKind::ALL
            .into_iter()
            .map(|kind| {
                let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
                let mut db = demo_database(&mut cpu, kind).unwrap();
                db.session().run(&mut cpu, &plan).unwrap()
            })
            .collect();
        assert_eq!(results[0].len(), 7);
        for (i, kind) in EngineKind::ALL.into_iter().enumerate().skip(1) {
            assert_eq!(results[0], results[i], "Pg vs {kind:?} disagree");
        }
        // Highest price first.
        assert_eq!(results[0][0][2], Value::Float(6.5));
    }

    #[test]
    fn limit_truncates() {
        let plan = Plan::Limit {
            input: Box::new(Plan::scan("items")),
            n: 3,
        };
        for kind in EngineKind::ALL {
            let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
            let mut db = demo_database(&mut cpu, kind).unwrap();
            assert_eq!(db.session().run(&mut cpu, &plan).unwrap().len(), 3);
        }
    }

    #[test]
    fn engines_issue_different_access_patterns() {
        // Same plan, different personalities: Lite must stall less per row
        // on a pure scan? Not necessarily — but the *instruction mixes* must
        // differ measurably.
        let plan = Plan::scan("items").aggregate(vec![1], vec![AggSpec::count_star()]);
        let mut counts = Vec::new();
        for kind in EngineKind::ALL {
            let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
            let mut db = demo_database(&mut cpu, kind).unwrap();
            let m = cpu.measure(|c| {
                db.session().run(c, &plan).unwrap();
            });
            counts.push((kind, m.pmu.get(simcore::Event::GenericOps)));
        }
        let pg = counts[0].1;
        let my = counts[2].1;
        assert!(my > pg, "My must execute more bookkeeping ops: {counts:?}");
    }

    #[test]
    fn operators_emit_nested_energy_spans_when_traced() {
        let plan = Plan::scan("items")
            .join(Plan::scan("cats"), 1, 0)
            .aggregate(vec![1], vec![AggSpec::count_star()]);
        // The same warm-up + measured run on two identical fresh machines,
        // one untraced and one traced: results and the simulated cost must
        // not change (the --trace hard guarantee). The simulator is
        // deterministic, so any divergence is tracing's fault.
        let measure = |traced: bool| {
            let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
            let mut db = demo_database(&mut cpu, EngineKind::Pg).unwrap();
            let rows = db.session().run(&mut cpu, &plan).unwrap();
            if traced {
                mjobs::span::install();
            }
            let m = cpu.measure(|c| {
                assert_eq!(db.session().run(c, &plan).unwrap(), rows);
            });
            (m, mjobs::span::take())
        };
        let (m_plain, none) = measure(false);
        let (m_traced, spans) = measure(true);
        assert!(none.is_empty());
        assert_eq!(
            m_plain.pmu, m_traced.pmu,
            "tracing must not perturb the machine"
        );
        assert_eq!(m_plain.cycles, m_traced.cycles);

        // The plan tree appears as nested spans: agg(hash) at the root
        // (Pg hash-aggregates), the join below it, the scans below that.
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"agg(hash)"), "{names:?}");
        assert!(names.contains(&"hash_join"), "{names:?}");
        assert!(names.contains(&"scan(items)"), "{names:?}");
        let root = spans.iter().find(|s| s.name == "agg(hash)").unwrap();
        let join = spans.iter().find(|s| s.name == "hash_join").unwrap();
        let scan = spans.iter().find(|s| s.name == "scan(items)").unwrap();
        assert_eq!(root.depth, 0);
        assert_eq!(join.parent_seq, Some(root.seq));
        assert_eq!(scan.parent_seq, Some(join.seq));
        assert!(root.delta.rapl.total_j() >= join.delta.rapl.total_j());
        assert!(join.delta.time_s >= scan.delta.time_s);
        assert!(spans.iter().all(|s| !s.forced));
    }

    #[test]
    fn canon_key_distinguishes_types_and_values() {
        assert_ne!(canon_key(&[Value::Int(7)]), canon_key(&[Value::Date(7)]));
        assert_ne!(canon_key(&[Value::Int(7)]), canon_key(&[Value::Int(8)]));
        assert_eq!(
            canon_key(&[Value::Str("a".into()), Value::Null]),
            canon_key(&[Value::Str("a".into()), Value::Null])
        );
    }
}
