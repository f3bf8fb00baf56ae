//! Operator semantics shared by the row executor ([`crate::executor`]) and
//! the batch executor ([`crate::batch`]).
//!
//! The personalities must return the same rows and differ only in the
//! loads, stores and ops they issue (§3.3). So every decision the two
//! executors have to agree on lives here, once: temp-region allocation, the
//! unindexed `IndexRange` fold, hash-join sizing, spill, probe and the
//! join-key rule, the hash-aggregate group table, the scalar fold and sort
//! sizing. What the executors keep is what differs between them: how rows
//! are reached (heap pages and B-trees, or column lanes) and how work is
//! charged (per row, or per vector).

use simcore::{Cpu, Dep, ExecOp, Region, LINE};
use std::borrow::Cow;
use std::collections::HashMap;
use storage::expr::AggState;
use storage::{
    AggFn, AggSpec, BTree, Catalog, CmpOp, Expr, Row, SimHashTable, SimSorter, StorageError,
    TableInfo, Value,
};

/// Fetch column `c` of `row`. A plan whose join/sort/group column index
/// exceeds the row arity is malformed input, not an executor invariant —
/// surface it as a schema error instead of panicking the scheduler shard.
pub(crate) fn col(row: &Row, c: usize) -> storage::Result<&Value> {
    row.get(c)
        .ok_or(StorageError::Schema("plan column index out of row bounds"))
}

/// Clone the `cols`-indexed values out of `row` (group/sort keys), with the
/// same bounds policy as [`col`].
pub(crate) fn key_of_row(row: &Row, cols: impl Iterator<Item = usize>) -> storage::Result<Row> {
    cols.map(|c| col(row, c).cloned()).collect()
}

/// A row's residual `filter` and output `project`ion: `None` when the
/// filter rejects it, else the row or its projection.
pub(crate) fn filter_project(
    cpu: &mut Cpu,
    row: Row,
    filter: &Option<Expr>,
    project: &Option<Vec<Expr>>,
) -> Option<Row> {
    if let Some(f) = filter {
        if !f.matches(cpu, &row) {
            return None;
        }
    }
    Some(match project {
        Some(p) => p.iter().map(|e| e.eval(cpu, &row)).collect(),
        None => row,
    })
}

/// A query's working memory: the per-operation budget (`work_mem`) and
/// line-aligned bump allocation out of the session's reusable temp region.
pub(crate) struct WorkMem {
    /// Per-operation memory budget in bytes.
    pub(crate) budget: u64,
    temp: Option<Region>,
    off: u64,
}

impl WorkMem {
    pub(crate) fn new(budget: u64, temp: Option<Region>) -> WorkMem {
        WorkMem {
            budget,
            temp,
            off: 0,
        }
    }

    /// Carve `len` bytes (clamped to the region) out of the temp region,
    /// wrapping to its start when the rest is too short: the temp structures
    /// of the query's earlier operators are drained by then. Without a temp
    /// region this is a fresh allocation.
    pub(crate) fn alloc(&mut self, cpu: &mut Cpu, len: u64) -> storage::Result<Region> {
        let Some(base) = self.temp else {
            return Ok(cpu.alloc(len)?);
        };
        let len = len.min(base.len);
        if self.off + len > base.len {
            self.off = 0;
        }
        let region = Region {
            addr: base.addr + self.off,
            len,
        };
        self.off += len.div_ceil(LINE) * LINE;
        Ok(region)
    }
}

/// How an `IndexRange` reaches its rows.
pub(crate) enum RangePath<'c> {
    /// Through the index `tree` on column `col` of `table`.
    Indexed {
        table: &'c TableInfo,
        col: usize,
        tree: &'c BTree,
    },
    /// The column has no index: a scan, with the range folded into `Ge`/`Le`
    /// terms of this filter (so float keys compare un-truncated).
    Scan(Option<Expr>),
}

/// Resolve an `IndexRange` on `table.colname` over `[lo, hi]` with the
/// residual `filter`.
pub(crate) fn range_path<'c>(
    catalog: &'c Catalog,
    table: &str,
    colname: &str,
    lo: Option<i64>,
    hi: Option<i64>,
    filter: &Option<Expr>,
) -> storage::Result<RangePath<'c>> {
    let t = catalog.table(table)?;
    let ci = t
        .schema
        .col(colname)
        .ok_or(StorageError::Schema("unknown index column"))?;
    if let Some(tree) = t.index_on(ci) {
        return Ok(RangePath::Indexed {
            table: t,
            col: ci,
            tree,
        });
    }
    let bounds = [lo.map(|l| (CmpOp::Ge, l)), hi.map(|h| (CmpOp::Le, h))];
    let terms = bounds
        .into_iter()
        .flatten()
        .map(|(op, b)| Expr::cmp(op, Expr::col(ci), Expr::int(b)))
        .chain(filter.clone());
    Ok(RangePath::Scan(Expr::conjoin(terms)))
}

/// The join-key rule every join path follows: two keys match iff SQL `=`
/// holds ([`Value::group_eq`]), and NULL matches nothing.
pub(crate) fn keys_match(a: &Value, b: &Value) -> bool {
    !matches!(a, Value::Null) && a.group_eq(b)
}

/// A key's exact integer image, if it has one: ints, dates, and floats with
/// an integral value. Keys that [`keys_match`] share it (below 2^53 in
/// magnitude, where ints and floats convert exactly).
pub(crate) fn int_key(v: &Value) -> Option<i64> {
    match *v {
        Value::Int(x) => Some(x),
        Value::Date(d) => Some(d as i64),
        Value::Float(f) if f as i64 as f64 == f => Some(f as i64),
        _ => None,
    }
}

/// The value a hash-join key is bucketed as: its integer image when it has
/// one, so matching keys of different types meet. An `Int` is unchanged.
fn hash_key(v: &Value) -> Cow<'_, Value> {
    match int_key(v) {
        Some(x) if !matches!(v, Value::Int(_)) => Cow::Owned(Value::Int(x)),
        _ => Cow::Borrowed(v),
    }
}

/// A hash join's build side.
pub(crate) struct HashJoin {
    table: SimHashTable,
}

impl HashJoin {
    /// Build on `rows`, keyed by their column `key_col`: the table is sized
    /// from the input, and a grace-style spill is charged when it outgrows
    /// the `work_mem` budget.
    pub(crate) fn build(
        cpu: &mut Cpu,
        work: &mut WorkMem,
        rows: Vec<Row>,
        key_col: usize,
    ) -> storage::Result<HashJoin> {
        let arity = rows.first().map_or(1, |r| r.len());
        let entry_bytes = 24 + 16 * arity as u64;
        let n = rows.len() as u64;
        let region = work.alloc(
            cpu,
            n.max(16).next_power_of_two() * 8 + n.max(16) * 2 * entry_bytes,
        )?;
        let mut table = SimHashTable::new_in(region, n, entry_bytes);
        for row in rows {
            let key = hash_key(col(&row, key_col)?).into_owned();
            table.insert(cpu, key, row);
        }
        // Grace-style spill when the table exceeds work_mem: batches re-read.
        if table.footprint() > work.budget && work.budget > 0 {
            let batches = table.footprint().div_ceil(work.budget);
            cpu.idle_c0(200e-6 * batches as f64);
            cpu.exec_n(ExecOp::Generic, table.len() * 2);
        }
        Ok(HashJoin { table })
    }

    /// The build rows whose key matches `key` (a NULL key probes nothing).
    pub(crate) fn probe<'a>(
        &'a self,
        cpu: &mut Cpu,
        key: &'a Value,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        let chain = match key {
            Value::Null => &[],
            _ => self.table.probe(cpu, &hash_key(key)),
        };
        chain
            .iter()
            .filter(move |(k, _)| keys_match(k, key))
            .map(|(_, row)| row)
    }
}

/// Fresh aggregate states, one per `aggs` entry.
pub(crate) fn new_states(aggs: &[AggSpec]) -> Vec<AggState> {
    aggs.iter().map(|_| AggState::new()).collect()
}

/// Fold `row` into `states`.
pub(crate) fn update_states(cpu: &mut Cpu, states: &mut [AggState], aggs: &[AggSpec], row: &Row) {
    for (state, spec) in states.iter_mut().zip(aggs) {
        match (&spec.f, &spec.arg) {
            (AggFn::CountStar, _) | (_, None) => state.bump(cpu),
            (_, Some(e)) => {
                let v = e.eval(cpu, row);
                state.update(cpu, &v);
            }
        }
    }
}

/// One output row of an aggregate: the group's key values, then the
/// aggregate results.
pub(crate) fn finish_row(key_vals: Row, states: &[AggState], aggs: &[AggSpec]) -> Row {
    let mut row = key_vals;
    row.extend(aggs.iter().zip(states).map(|(a, s)| s.result(a.f)));
    row
}

/// The hash-aggregate group table: one 64-byte state slot per group in the
/// temp region, chased and written back for every input row.
pub(crate) struct GroupTable<'q> {
    group_by: &'q [usize],
    aggs: &'q [AggSpec],
    region: Region,
    slots: u64,
    groups: HashMap<Vec<u8>, (Row, Vec<AggState>)>,
}

impl<'q> GroupTable<'q> {
    /// A state area sized for `rows` input rows.
    pub(crate) fn new(
        cpu: &mut Cpu,
        work: &mut WorkMem,
        rows: usize,
        group_by: &'q [usize],
        aggs: &'q [AggSpec],
    ) -> storage::Result<GroupTable<'q>> {
        let region = work.alloc(cpu, (rows.max(16) as u64 * 64).min(1 << 22))?;
        Ok(GroupTable {
            group_by,
            aggs,
            region,
            slots: region.len / 64,
            groups: HashMap::new(),
        })
    }

    /// Fold `row` into its group: chase the group's state slot, write it
    /// back, update the aggregates.
    pub(crate) fn fold(&mut self, cpu: &mut Cpu, row: &Row) -> storage::Result<()> {
        let key_vals = key_of_row(row, self.group_by.iter().copied())?;
        let key = canon_key(&key_vals);
        let state_addr = self.region.addr + (hash_bytes(&key) % self.slots) * 64;
        cpu.load(state_addr, Dep::Chase);
        cpu.store(state_addr);
        let aggs = self.aggs;
        let (_, states) = self
            .groups
            .entry(key)
            .or_insert_with(|| (key_vals, new_states(aggs)));
        update_states(cpu, states, aggs, row);
        Ok(())
    }

    /// The output rows in canonical key order, so executions are bit-for-bit
    /// deterministic (`HashMap` iteration order is seeded per process).
    pub(crate) fn finish(self) -> Vec<Row> {
        let mut groups: Vec<_> = self.groups.into_iter().collect();
        groups.sort_by(|a, b| a.0.cmp(&b.0));
        groups
            .into_iter()
            .map(|(_, (key_vals, states))| finish_row(key_vals, &states, self.aggs))
            .collect()
    }
}

/// Sort `rows` on `keys` (`(column, descending)` pairs) in a sort area
/// sized to the input and capped by the `work_mem` budget, then keep the
/// first `limit` rows.
pub(crate) fn sort(
    cpu: &mut Cpu,
    work: &mut WorkMem,
    rows: Vec<Row>,
    keys: &[(usize, bool)],
    limit: Option<usize>,
) -> storage::Result<Vec<Row>> {
    let row_bytes = rows.first().map_or(32, |r| r.len() as u64 * 16 + 16);
    let region = work.alloc(
        cpu,
        (rows.len().max(16) as u64 * row_bytes).min(work.budget.max(row_bytes * 16)),
    )?;
    let mut sorter = SimSorter::new_in(region, row_bytes, work.budget);
    for row in rows {
        let key = key_of_row(&row, keys.iter().map(|&(c, _)| c))?;
        sorter.push(cpu, key, row);
    }
    let desc: Vec<bool> = keys.iter().map(|&(_, d)| d).collect();
    let mut sorted = sorter.finish(cpu, &desc);
    if let Some(n) = limit {
        sorted.truncate(n);
    }
    Ok(sorted)
}

/// Canonical byte encoding of a group key (type-tagged, order-preserving
/// enough for equality).
pub(crate) fn canon_key(vals: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 9);
    for v in vals {
        match v {
            Value::Int(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            Value::Date(d) => {
                out.push(4);
                out.extend_from_slice(&d.to_le_bytes());
            }
            Value::Null => out.push(5),
        }
    }
    out
}

/// FNV-1a over a canonical key.
pub(crate) fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in b {
        h ^= x as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_keys_match_by_sql_equality() {
        let (i, f, d) = (Value::Int(3), Value::Float(3.0), Value::Date(3));
        assert!(keys_match(&i, &f) && keys_match(&f, &d) && keys_match(&d, &i));
        assert!(!keys_match(&Value::Float(3.5), &i));
        assert!(!keys_match(&Value::Null, &Value::Null));
        assert!(!keys_match(&Value::Str("3".into()), &i));
        // Matching keys hash alike; an Int keeps its own hash.
        assert!(matches!(hash_key(&i), Cow::Borrowed(_)));
        assert_eq!(hash_key(&f).hash64(), i.hash64());
        assert_eq!(hash_key(&d).hash64(), i.hash64());
        assert_eq!(int_key(&Value::Float(3.5)), None);
        assert_eq!(int_key(&Value::Float(1e300)), None);
    }
}
