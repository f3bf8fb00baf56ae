//! Session-scoped query execution.
//!
//! [`Database`] used to conflate two lifetimes: per-instance state (the
//! page store, buffer pool, catalog, knobs) and per-query scratch state
//! (the reusable temp region sorts and hash tables spill into). One shared
//! `temp` field meant two interleaved clients on the same instance would
//! silently alias each other's sort areas — the exact hazard that blocked
//! the concurrent OLTP serving scenario (ROADMAP item 2).
//!
//! The split:
//!
//! * [`Database`] keeps schema/storage/knob state and the setup paths
//!   (`create_table`, `load_rows`, `create_index`).
//! * [`SessionCtx`] is the owned, per-client scratch state: the lazily
//!   allocated temp region plus a checkout flag. A server keeps one per
//!   client stream, so each stream re-runs on its own warm scratch memory.
//! * [`Session`] is a short-lived execution handle binding a `Database`
//!   and a `SessionCtx` for one or more requests. All query entry points
//!   (`run`, `execute`, `vacuum`) live here.
//!
//! Rust's borrow rules make the interleaving model explicit: a `Session`
//! borrows the instance exclusively while a request executes, and the
//! virtual-time server in `mjserve` serialises requests exactly that way —
//! per-client `SessionCtx` values persist across requests while the
//! instance is borrowed once per request.
//!
//! Double-checkout of one session's scratch region is a typed
//! [`StorageError::ScratchBusy`] instead of silent aliasing; see
//! [`Session::checkout_scratch`].

use crate::batch::{self, BatchEnv};
use crate::db::Database;
use crate::executor::{self, Env};
use crate::knobs::Knobs;
use crate::plan::Plan;
use crate::profile::EngineKind;
use simcore::{Cpu, Region};
use storage::{BufferPool, Catalog, PageStore, Row, StorageError};

/// Owned per-client scratch state: the reusable temp region (sized from
/// `work_mem`, allocated lazily so a stream's second request onwards works
/// on warm memory) plus the checkout flag that turns double-borrow into a
/// typed error.
#[derive(Debug, Default)]
pub struct SessionCtx {
    temp: Option<Region>,
    checked_out: bool,
}

impl SessionCtx {
    /// Fresh scratch state (no region allocated yet).
    pub fn new() -> SessionCtx {
        SessionCtx::default()
    }

    /// Check the temp region out, allocating it on first use. Returns
    /// [`StorageError::ScratchBusy`] if it is already checked out.
    pub(crate) fn checkout(&mut self, cpu: &mut Cpu, work_mem: u64) -> storage::Result<Region> {
        if self.checked_out {
            return Err(StorageError::ScratchBusy);
        }
        let r = match self.temp {
            Some(r) => r,
            None => {
                let len = work_mem.clamp(1 << 20, 64 << 20);
                let r = cpu.alloc(len)?;
                self.temp = Some(r);
                r
            }
        };
        self.checked_out = true;
        Ok(r)
    }

    /// Return the region (idempotent).
    pub(crate) fn release(&mut self) {
        self.checked_out = false;
    }

    /// Run `f` with the temp region checked out, returning it afterwards
    /// whatever `f` returns.
    pub(crate) fn with_scratch<T>(
        &mut self,
        cpu: &mut Cpu,
        work_mem: u64,
        f: impl FnOnce(&mut Cpu, Region) -> storage::Result<T>,
    ) -> storage::Result<T> {
        let temp = self.checkout(cpu, work_mem)?;
        let result = f(cpu, temp);
        self.release();
        result
    }
}

/// A session: the per-client execution handle over one engine instance.
///
/// Obtained from [`Database::session`] (the instance's built-in default
/// scratch state — the one-shot/single-client case) or
/// [`Database::session_in`] (caller-owned [`SessionCtx`], one per client
/// stream). All query execution goes through here.
pub struct Session<'a> {
    kind: EngineKind,
    knobs: Knobs,
    pub(crate) store: &'a mut PageStore,
    pub(crate) pool: &'a mut BufferPool,
    pub(crate) catalog: &'a mut Catalog,
    hot_vars: Option<Region>,
    ctx: &'a mut SessionCtx,
}

impl Database {
    /// A session over this instance's default scratch state — the one-shot
    /// and single-client path. Concurrent client streams should each hold
    /// their own [`SessionCtx`] and use [`Database::session_in`].
    pub fn session(&mut self) -> Session<'_> {
        let kind = self.kind;
        let knobs = self.knobs;
        Session {
            kind,
            knobs,
            store: &mut self.store,
            pool: &mut self.pool,
            catalog: &mut self.catalog,
            hot_vars: self.hot_vars,
            ctx: &mut self.default_ctx,
        }
    }

    /// A session executing with caller-owned scratch state (`ctx`), so N
    /// client streams can interleave on one instance without aliasing each
    /// other's temp regions.
    pub fn session_in<'a>(&'a mut self, ctx: &'a mut SessionCtx) -> Session<'a> {
        let kind = self.kind;
        let knobs = self.knobs;
        Session {
            kind,
            knobs,
            store: &mut self.store,
            pool: &mut self.pool,
            catalog: &mut self.catalog,
            hot_vars: self.hot_vars,
            ctx,
        }
    }
}

impl<'a> Session<'a> {
    /// The engine personality this session executes with.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The instance's resolved knobs.
    pub fn knobs(&self) -> Knobs {
        self.knobs
    }

    /// The instance catalog.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// Check this session's scratch region out (allocating lazily). A
    /// second checkout before [`Session::release_scratch`] is the
    /// double-borrow hazard and fails with [`StorageError::ScratchBusy`].
    pub fn checkout_scratch(&mut self, cpu: &mut Cpu) -> storage::Result<Region> {
        self.ctx.checkout(cpu, self.knobs.work_mem)
    }

    /// Return the scratch region checked out by
    /// [`Session::checkout_scratch`].
    pub fn release_scratch(&mut self) {
        self.ctx.release();
    }

    /// Execute a logical plan with this engine's personality.
    pub fn run(&mut self, cpu: &mut Cpu, plan: &Plan) -> storage::Result<Vec<Row>> {
        let profile = self.kind.profile();
        if profile.vectorized {
            self.ensure_columnar(cpu, plan)?;
        }
        let work_mem = self.knobs.work_mem;
        let (store, pool, catalog) = (&*self.store, &mut *self.pool, &*self.catalog);
        let hot_vars = self.hot_vars;
        self.ctx.with_scratch(cpu, work_mem, |cpu, temp| {
            if profile.vectorized {
                let mut env = BatchEnv::new(cpu, catalog, profile, work_mem, Some(temp))?;
                batch::run(cpu, &mut env, plan)
            } else {
                let mut env = Env::new(
                    cpu,
                    store,
                    pool,
                    catalog,
                    profile,
                    work_mem,
                    hot_vars,
                    Some(temp),
                )?;
                executor::run(cpu, &mut env, plan)
            }
        })
    }

    /// Build the columnar image of every table `plan` reads, if missing —
    /// unsimulated attach-time setup, like index builds. DML and vacuum
    /// invalidate the images; the next vec query lands here and rebuilds.
    fn ensure_columnar(&mut self, cpu: &mut Cpu, plan: &Plan) -> storage::Result<()> {
        for name in plan.tables() {
            let t = self.catalog.table(&name)?;
            if t.columnar.is_some() {
                continue;
            }
            let heap = t.heap.clone();
            let schema = t.schema.clone();
            let chunks = storage::ColumnChunks::build(cpu, &heap, self.store, &schema)?;
            self.catalog.table_mut(&name)?.columnar = Some(chunks);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::demo_database;
    use crate::dml::lit;
    use crate::Dml;
    use simcore::ArchConfig;
    use storage::{CmpOp, Expr, Value};

    #[test]
    fn session_runs_and_executes_like_the_database_did() {
        for kind in EngineKind::ALL {
            let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
            let mut db = demo_database(&mut cpu, kind).unwrap();
            let mut s = db.session();
            let rows = s.run(&mut cpu, &Plan::scan("items")).unwrap();
            assert_eq!(rows.len(), 200, "{kind:?}");
            let n = s
                .execute(
                    &mut cpu,
                    &Dml::Update {
                        table: "items".into(),
                        filter: Some(Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::int(3))),
                        set: vec![(2, lit(Value::Float(1.5)))],
                    },
                )
                .unwrap();
            assert_eq!(n, 1, "{kind:?}");
        }
    }

    #[test]
    fn scratch_double_checkout_is_a_typed_error() {
        // Regression: `temp_region` used to hand the one shared scratch
        // region to anyone who asked, silently aliasing concurrent users'
        // sort areas. Now the second checkout is a typed refusal.
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut db = demo_database(&mut cpu, EngineKind::Pg).unwrap();
        let mut s = db.session();
        let r = s.checkout_scratch(&mut cpu).unwrap();
        assert!(r.len > 0);
        assert!(matches!(
            s.checkout_scratch(&mut cpu),
            Err(StorageError::ScratchBusy)
        ));
        // Execution needs the scratch region too, so it refuses as well
        // instead of aliasing the checked-out region.
        assert!(matches!(
            s.run(&mut cpu, &Plan::scan("items")),
            Err(StorageError::ScratchBusy)
        ));
        s.release_scratch();
        // Released: the same region comes back (warm memory, same address).
        let r2 = s.checkout_scratch(&mut cpu).unwrap();
        assert_eq!((r.addr, r.len), (r2.addr, r2.len));
        s.release_scratch();
        assert!(s.run(&mut cpu, &Plan::scan("items")).is_ok());
    }

    #[test]
    fn run_releases_scratch_on_error() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut db = demo_database(&mut cpu, EngineKind::Pg).unwrap();
        let mut s = db.session();
        assert!(s.run(&mut cpu, &Plan::scan("no_such_table")).is_err());
        // The failed run must not leak the checkout.
        assert!(s.run(&mut cpu, &Plan::scan("items")).is_ok());
    }

    #[test]
    fn per_client_session_ctxs_do_not_alias() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut db = demo_database(&mut cpu, EngineKind::Lite).unwrap();
        let mut a = SessionCtx::new();
        let mut b = SessionCtx::new();
        let ra = db
            .session_in(&mut a)
            .checkout_scratch(&mut cpu)
            .expect("client A scratch");
        // Client B checks out while A still holds its region: allowed, and
        // the regions are disjoint.
        let rb = db
            .session_in(&mut b)
            .checkout_scratch(&mut cpu)
            .expect("client B scratch");
        assert!(
            ra.addr + ra.len <= rb.addr || rb.addr + rb.len <= ra.addr,
            "per-client scratch regions must not overlap: {ra:?} vs {rb:?}"
        );
        a.release();
        b.release();
        // Both clients can run interleaved requests on their own ctx.
        assert_eq!(
            db.session_in(&mut a)
                .run(&mut cpu, &Plan::scan("items"))
                .unwrap()
                .len(),
            200
        );
        assert_eq!(
            db.session_in(&mut b)
                .run(&mut cpu, &Plan::scan("cats"))
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn one_shot_sessions_cover_query_and_dml() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut db = demo_database(&mut cpu, EngineKind::My).unwrap();
        let rows = db.session().run(&mut cpu, &Plan::scan("items")).unwrap();
        assert_eq!(rows.len(), 200);
        let n = db
            .session()
            .execute(
                &mut cpu,
                &Dml::Delete {
                    table: "items".into(),
                    filter: Some(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(10))),
                },
            )
            .unwrap();
        assert_eq!(n, 10);
    }
}
