//! The §4 proof of concept: the Lite engine, system-level co-designed for
//! an L1D-energy-efficient architecture with data TCM (ARM1176JZF-S-like).
//!
//! [`configure`] applies the three strategies of §4.2 to a loaded Lite
//! [`Database`], with the paper's DTCM budget split:
//!
//! 1. **Database buffer (16 KB).** The hottest table pages (smallest tables
//!    first — "more B-tree data of small tables are loaded into DTCM") are
//!    pinned in DTCM; reads of those pages bypass the cache hierarchy.
//! 2. **Special variables (4 KB).** The VM's hot execution structures (our
//!    executor scratch ring: registers, cursors, plan state) live in DTCM —
//!    the paper found ~70% of L1D loads are issued by `sqlite3VdbeExec`.
//! 3. **B-tree tops (12 KB).** The root and first layers of the queried
//!    tables' B-trees are pinned, divided evenly across tables.
//!
//! The result is ordinary database state — the pins live in the buffer
//! pool, the special-variable region on the [`Database`] — so the
//! co-designed build runs through [`Database::session`] like any other.
//! Pinning copies page bytes into the TCM window once at configuration time
//! (setup, unsimulated — the paper's port does this at open time); queries
//! are read-only, so no write-back path is needed.

use crate::db::Database;
use crate::profile::EngineKind;
use simcore::Cpu;
use storage::page::PageId;
use storage::{BufferPool, PageStore};

/// DTCM budget split (bytes), per §4.2.
#[derive(Debug, Clone, Copy)]
pub struct DtcmConfig {
    /// Budget for pinned hot data pages.
    pub buffer_bytes: u64,
    /// Budget for the VM's special variables (scratch ring).
    pub vars_bytes: u64,
    /// Budget for pinned B-tree top layers.
    pub btree_bytes: u64,
}

impl Default for DtcmConfig {
    fn default() -> Self {
        DtcmConfig {
            buffer_bytes: 16 * 1024,
            vars_bytes: 4 * 1024,
            btree_bytes: 12 * 1024,
        }
    }
}

/// Apply the §4.2 co-design to a loaded Lite database: install a fresh
/// buffer pool (sized by `db.knobs`) carrying the TCM pins, and the
/// special-variable region.
///
/// `hot_tables` lists the tables the workload queries (the paper pins
/// "the current tables"); budgets are divided evenly across them.
///
/// # Panics
/// Panics if `db` is not a Lite instance (the paper optimises SQLite).
pub fn configure(
    cpu: &mut Cpu,
    db: &mut Database,
    hot_tables: &[&str],
    config: DtcmConfig,
) -> storage::Result<()> {
    assert_eq!(
        db.kind,
        EngineKind::Lite,
        "the proof of concept optimises the Lite engine"
    );
    let page_size = db.store.page_size() as u64;
    let mut pool = BufferPool::new(db.knobs.buffer_bytes, db.store.page_size());

    // (2) Special variables: hot VM registers/cursors in DTCM.
    let hot_vars = if config.vars_bytes > 0 {
        Some(cpu.alloc_tcm(config.vars_bytes)?)
    } else {
        None
    };

    // (3) B-tree tops: divide the budget evenly across queried tables,
    // breadth-first from each root.
    if !hot_tables.is_empty() {
        let per_table_pages = (config.btree_bytes / page_size) / hot_tables.len() as u64;
        for name in hot_tables {
            let t = db.catalog.table(name)?;
            let Some(tree) = &t.pk_index else { continue };
            let tops = tree.top_pages(cpu, &db.store, 3);
            for pid in tops.into_iter().take(per_table_pages.max(1) as usize) {
                if pool.is_pinned(pid) {
                    continue;
                }
                if let Ok(region) = cpu.alloc_tcm(page_size) {
                    copy_page_to_tcm(cpu, &db.store, pid, region.addr, page_size);
                    pool.pin(pid, region.addr);
                }
            }
        }
    }

    // (1) Database buffer: pin hot data pages, smallest tables first.
    let mut tables: Vec<&str> = hot_tables.to_vec();
    tables.sort_by_key(|n| {
        db.catalog
            .table(n)
            .map(|t| t.heap.len())
            .unwrap_or(u64::MAX)
    });
    let mut budget = config.buffer_bytes;
    'outer: for name in tables {
        let t = db.catalog.table(name)?;
        // Pin the table's heap pages, plus leaf pages of tiny B-trees.
        for pid in heap_page_ids(t) {
            if budget < page_size {
                break 'outer;
            }
            if pool.is_pinned(pid) {
                continue;
            }
            let Ok(region) = cpu.alloc_tcm(page_size) else {
                break 'outer;
            };
            copy_page_to_tcm(cpu, &db.store, pid, region.addr, page_size);
            pool.pin(pid, region.addr);
            budget -= page_size;
        }
    }

    db.pool = pool;
    db.hot_vars = hot_vars;
    Ok(())
}

fn heap_page_ids(t: &storage::TableInfo) -> Vec<PageId> {
    // HeapFile doesn't expose its page list directly; walk page ids by
    // fetching bounds through the store-level metadata.
    (0..t.heap.n_pages() as u32)
        .map(|i| t.heap.page_id(i as usize))
        .collect()
}

fn copy_page_to_tcm(cpu: &mut Cpu, store: &PageStore, pid: PageId, tcm_addr: u64, page_size: u64) {
    let src = store.page(pid).addr;
    let mut buf = vec![0u8; page_size as usize];
    cpu.arena().read(src, &mut buf).expect("source page");
    cpu.arena_mut().write(tcm_addr, &buf).expect("tcm copy");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::Knobs;
    use crate::plan::Plan;
    use simcore::{ArchConfig, Event};
    use storage::{Row, Schema, Ty, Value};

    fn arm_db(cpu: &mut Cpu) -> Database {
        let mut db = Database::with_knobs(EngineKind::Lite, Knobs::arm_small());
        db.create_table(
            "t",
            Schema::new([("k", Ty::Int), ("v", Ty::Int)]),
            Some("k"),
        )
        .unwrap();
        let rows: Vec<Row> = (0..300)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
            .collect();
        db.load_rows(cpu, "t", rows).unwrap();
        db
    }

    /// [`arm_db`] with the default co-design applied.
    fn dtcm_db(cpu: &mut Cpu) -> Database {
        let mut db = arm_db(cpu);
        configure(cpu, &mut db, &["t"], DtcmConfig::default()).unwrap();
        db
    }

    #[test]
    fn dtcm_results_match_baseline() {
        let plan = Plan::scan_where(
            "t",
            storage::Expr::cmp(
                storage::CmpOp::Lt,
                storage::Expr::col(0),
                storage::Expr::int(50),
            ),
        );
        let mut cpu1 = Cpu::new(ArchConfig::arm1176jzf_s());
        let mut base = arm_db(&mut cpu1);
        let want = base.session().run(&mut cpu1, &plan).unwrap();

        let mut cpu2 = Cpu::new(ArchConfig::arm1176jzf_s());
        let mut dtcm = dtcm_db(&mut cpu2);
        let got = dtcm.session().run(&mut cpu2, &plan).unwrap();
        assert_eq!(want, got);
        assert!(dtcm.pool().pinned_pages() > 0);
    }

    #[test]
    fn dtcm_run_issues_tcm_loads() {
        let plan = Plan::scan("t");
        let mut cpu = Cpu::new(ArchConfig::arm1176jzf_s());
        let mut dtcm = dtcm_db(&mut cpu);
        // The default session and a caller-owned one both carry the pins
        // and the special-variable region.
        let mut ctx = crate::session::SessionCtx::new();
        for own_ctx in [false, true] {
            let m = cpu.measure(|c| {
                let mut s = if own_ctx {
                    dtcm.session_in(&mut ctx)
                } else {
                    dtcm.session()
                };
                s.run(c, &plan).unwrap();
            });
            assert!(
                m.pmu.get(Event::TcmLoad) > 0,
                "pinned pages must be read from TCM"
            );
            assert!(
                m.pmu.get(Event::TcmStore) > 0,
                "scratch ring must live in TCM"
            );
        }
    }

    #[test]
    fn dtcm_saves_energy_without_losing_performance() {
        // The §4.3 headline on a B-tree-heavy workload.
        let plan = Plan::scan("t").aggregate(vec![], vec![storage::AggSpec::count_star()]);

        let mut cpu1 = Cpu::new(ArchConfig::arm1176jzf_s());
        let mut base = arm_db(&mut cpu1);
        base.session().run(&mut cpu1, &plan).unwrap(); // warm
        let m_base = cpu1.measure(|c| {
            base.session().run(c, &plan).unwrap();
        });

        let mut cpu2 = Cpu::new(ArchConfig::arm1176jzf_s());
        let mut dtcm = dtcm_db(&mut cpu2);
        dtcm.session().run(&mut cpu2, &plan).unwrap(); // warm
        let m_dtcm = cpu2.measure(|c| {
            dtcm.session().run(c, &plan).unwrap();
        });

        let e_base = m_base.rapl.total_j();
        let e_dtcm = m_dtcm.rapl.total_j();
        assert!(
            e_dtcm < e_base,
            "DTCM must save energy: {e_dtcm} !< {e_base}"
        );
        assert!(
            m_dtcm.time_s <= m_base.time_s * 1.01,
            "DTCM must not lose performance: {} vs {}",
            m_dtcm.time_s,
            m_base.time_s
        );
    }
}
