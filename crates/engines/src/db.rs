//! A database instance: storage + catalog + knobs for one engine.
//!
//! Per-query execution state lives in [`crate::session`]: a [`Database`]
//! holds what is shared across clients (store, pool, catalog, knobs), and
//! every query entry point is on [`crate::session::Session`].

use crate::knobs::{KnobLevel, Knobs};
use crate::profile::EngineKind;
use crate::session::SessionCtx;
use simcore::{Cpu, Region};
use storage::{
    encode_row, BTree, BufferPool, Catalog, PageStore, Row, Schema, StorageError, Value,
};

/// Pack a tuple id into a B-tree payload.
pub fn tid_to_u64(tid: storage::heap::TupleId) -> u64 {
    ((tid.0 as u64) << 16) | tid.1 as u64
}

/// Unpack a B-tree payload into a tuple id.
pub fn u64_to_tid(p: u64) -> storage::heap::TupleId {
    ((p >> 16) as u32, (p & 0xffff) as u16)
}

/// One engine instance over simulated storage.
///
/// Holds only the state *shared* across client sessions. Per-query scratch
/// state (the reusable temp region) lives in [`SessionCtx`]; query
/// execution goes through [`crate::session::Session`]. The storage fields
/// are deliberately not `pub`: external code reads them through
/// [`Database::store`] / [`Database::pool`] / [`Database::catalog`], so the
/// set of mutation sites stays auditable. The §4.2 DTCM co-design
/// ([`crate::dtcm::configure`]) is state here too: TCM pins in the pool and
/// the special-variable region, both used by every session's row executor.
pub struct Database {
    /// Which personality executes queries.
    pub kind: EngineKind,
    /// Resolved Table 4 knobs.
    pub knobs: Knobs,
    /// The "database file".
    pub(crate) store: PageStore,
    /// The buffer pool (sized by the buffer knob), with any DTCM pins.
    pub(crate) pool: BufferPool,
    /// TCM region for the VM's special variables; `None` unless the DTCM
    /// co-design gave them a budget.
    pub(crate) hot_vars: Option<Region>,
    /// Tables and indexes.
    pub(crate) catalog: Catalog,
    /// Scratch state for the built-in default session
    /// ([`Database::session`]); per-client sessions own their own.
    pub(crate) default_ctx: SessionCtx,
}

impl Database {
    /// New instance at a Table 4 level.
    pub fn new(kind: EngineKind, level: KnobLevel) -> Database {
        Database::with_knobs(kind, Knobs::resolve(kind, level))
    }

    /// New instance with explicit knobs (the ARM/DTCM experiment uses this).
    pub fn with_knobs(kind: EngineKind, knobs: Knobs) -> Database {
        Database {
            kind,
            knobs,
            store: PageStore::new(knobs.page_size),
            pool: BufferPool::new(knobs.buffer_bytes, knobs.page_size),
            hot_vars: None,
            catalog: Catalog::new(),
            default_ctx: SessionCtx::new(),
        }
    }

    /// The "database file" (read access; mutation happens through sessions
    /// and the setup paths).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Tables and indexes.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Create a table. `cluster_col` names the integer column the engine
    /// clusters/indexes as primary key (non-unique allowed, e.g. lineitem's
    /// `l_orderkey`).
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        cluster_col: Option<&str>,
    ) -> storage::Result<()> {
        let pk = match cluster_col {
            Some(c) => Some(
                schema
                    .col(c)
                    .ok_or(StorageError::Schema("unknown cluster column"))?,
            ),
            None => None,
        };
        self.catalog.create_table(name, schema)?;
        self.catalog.table_mut(name)?.pk_col = pk;
        Ok(())
    }

    /// Bulk-load rows (setup: unsimulated heap writes + bulk-built index).
    ///
    /// Clustering engines (Lite/My) physically order rows by the cluster
    /// column, like SQLite's rowid order and InnoDB's PK order.
    pub fn load_rows(
        &mut self,
        cpu: &mut Cpu,
        table: &str,
        mut rows: Vec<Row>,
    ) -> storage::Result<()> {
        let t = self.catalog.table(table)?;
        let schema = t.schema.clone();
        let pk = t.pk_col;
        for r in &rows {
            schema.check(r)?;
        }
        if self.kind != EngineKind::Pg {
            if let Some(pk) = pk {
                rows.sort_by_key(|r| r[pk].as_int().unwrap_or(i64::MAX));
            }
        }

        let mut buf = Vec::new();
        let mut pairs: Vec<(i64, u64)> = Vec::with_capacity(rows.len());
        {
            let t = self.catalog.table_mut(table)?;
            for r in &rows {
                encode_row(&schema, r, &mut buf)?;
                let tid = t.heap.bulk_insert(cpu, &mut self.store, &buf)?;
                if let Some(pk) = pk {
                    let key = r[pk]
                        .as_int()
                        .ok_or(StorageError::Schema("cluster column must be integral"))?;
                    pairs.push((key, tid_to_u64(tid)));
                }
            }
        }
        if pk.is_some() {
            pairs.sort_by_key(|&(k, _)| k);
            let tree = BTree::bulk_load(cpu, &mut self.store, &pairs)?;
            self.catalog.table_mut(table)?.pk_index = Some(tree);
        }
        Ok(())
    }

    /// Build a secondary index on an integral column (setup: unsimulated).
    ///
    /// Payloads are tuple ids for every engine; personalities that resolve
    /// secondaries through the clustered tree (Lite/My) charge the extra
    /// descent at query time (see `executor`).
    pub fn create_index(&mut self, cpu: &mut Cpu, table: &str, col: &str) -> storage::Result<()> {
        let t = self.catalog.table(table)?;
        let ci = t
            .schema
            .col(col)
            .ok_or(StorageError::Schema("unknown index column"))?;
        let schema = t.schema.clone();
        let heap = t.heap.clone();
        let mut pairs: Vec<(i64, u64)> = Vec::with_capacity(heap.len() as usize);
        let store = &self.store;
        heap.for_each_unsimulated(cpu.arena(), store, |tid, bytes| {
            if let Ok(row) = storage::decode_row(&schema, bytes) {
                if let Some(k) = row[ci].as_int() {
                    pairs.push((k, tid_to_u64(tid)));
                }
            }
        })?;
        pairs.sort_by_key(|&(k, _)| k);
        let tree = BTree::bulk_load(cpu, &mut self.store, &pairs)?;
        self.catalog.table_mut(table)?.secondary.push((ci, tree));
        Ok(())
    }
}

/// Build a tiny two-table database for unit tests and doc examples.
pub fn demo_database(cpu: &mut Cpu, kind: EngineKind) -> storage::Result<Database> {
    use storage::Ty;
    let mut db = Database::new(kind, KnobLevel::Baseline);
    db.create_table(
        "items",
        Schema::new([("id", Ty::Int), ("cat", Ty::Int), ("price", Ty::Float)]),
        Some("id"),
    )?;
    db.create_table(
        "cats",
        Schema::new([("cid", Ty::Int), ("name", Ty::Str)]),
        Some("cid"),
    )?;
    let items: Vec<Row> = (0..200)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::Int(i % 10),
                Value::Float((i % 7) as f64 + 0.5),
            ]
        })
        .collect();
    let cats: Vec<Row> = (0..10)
        .map(|c| vec![Value::Int(c), Value::Str(format!("cat-{c}"))])
        .collect();
    db.load_rows(cpu, "items", items)?;
    db.load_rows(cpu, "cats", cats)?;
    db.create_index(cpu, "items", "cat")?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ArchConfig;

    #[test]
    fn tid_roundtrip() {
        for tid in [(0u32, 0u16), (7, 3), (u32::MAX >> 17, u16::MAX)] {
            assert_eq!(u64_to_tid(tid_to_u64(tid)), tid);
        }
    }

    #[test]
    fn load_builds_pk_index_for_all_engines() {
        for kind in EngineKind::ALL {
            let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
            let db = demo_database(&mut cpu, kind).unwrap();
            let t = db.catalog.table("items").unwrap();
            assert_eq!(t.heap.len(), 200);
            assert!(t.pk_index.is_some());
            assert_eq!(t.pk_index.as_ref().unwrap().len, 200);
            assert_eq!(t.secondary.len(), 1);
        }
    }

    #[test]
    fn clustering_orders_heap_by_pk() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut db = Database::new(EngineKind::My, KnobLevel::Baseline);
        db.create_table("t", Schema::new([("k", storage::Ty::Int)]), Some("k"))
            .unwrap();
        db.load_rows(
            &mut cpu,
            "t",
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        )
        .unwrap();
        let t = db.catalog.table("t").unwrap();
        let mut seen = Vec::new();
        t.heap
            .for_each_unsimulated(cpu.arena(), &db.store, |_, bytes| {
                let row = storage::decode_row(&t.schema, bytes).unwrap();
                seen.push(row[0].as_int().unwrap());
            })
            .unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn pg_preserves_insertion_order() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut db = Database::new(EngineKind::Pg, KnobLevel::Baseline);
        db.create_table("t", Schema::new([("k", storage::Ty::Int)]), Some("k"))
            .unwrap();
        db.load_rows(
            &mut cpu,
            "t",
            vec![
                vec![Value::Int(3)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        )
        .unwrap();
        let t = db.catalog.table("t").unwrap();
        let mut seen = Vec::new();
        t.heap
            .for_each_unsimulated(cpu.arena(), &db.store, |_, bytes| {
                seen.push(
                    storage::decode_row(&t.schema, bytes).unwrap()[0]
                        .as_int()
                        .unwrap(),
                );
            })
            .unwrap();
        assert_eq!(seen, vec![3, 1, 2]);
    }
}
