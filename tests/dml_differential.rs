//! Stateful differential test: seeded write sessions on the demo database,
//! run on every engine personality and compared after every statement.
//!
//! difftest's corpus and fuzz only read a fixed dataset, so a cache that a
//! write should invalidate (vec's columnar image, an index a write forgot
//! to fix up) could go stale without any of them noticing. Here every
//! engine runs the same sequence of INSERT / UPDATE / DELETE / VACUUM
//! statements, and after each one the test compares
//!
//! * the affected-row counts, and
//! * the canonical row multisets (difftest's [`canon_rows`]) of a fixed
//!   query set: a full scan, index ranges on the secondary `cat` index,
//!   the `id` primary key and the unindexed `price` column, the
//!   `items` ⋈ `cats` join, grouped and scalar aggregates, and top-N.
//!
//! Every write drops `vec`'s columnar image, so every `vec` query after a
//! write also checks the rebuild.

use engines::dml::lit;
use engines::{db::demo_database, Database, Dml, EngineKind, Plan};
use mjdiff::harness::canon_rows;
use simcore::{ArchConfig, Cpu};
use storage::{AggFn, AggSpec, CmpOp, Expr, Value};

const SEEDS: u64 = 12;
const STATEMENTS: usize = 25;

/// SplitMix64: a dependency-free, fully deterministic statement source.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> i64 {
        (self.next() % n) as i64
    }
}

/// One statement of a write session.
#[derive(Debug, Clone)]
enum Stmt {
    Write(Dml),
    Vacuum(&'static str),
}

fn id_range(lo: i64, width: i64) -> Option<Expr> {
    Some(Expr::and_all([
        Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(lo)),
        Expr::cmp(CmpOp::Le, Expr::col(0), Expr::int(lo + width)),
    ]))
}

/// A price on the demo data's grid (multiples of 0.25), so float sums stay
/// exact whatever order an engine folds them in.
fn price(rng: &mut Rng) -> Value {
    Value::Float(0.5 + rng.below(28) as f64 * 0.25)
}

/// Statement `step` of a session. `next_id` hands out fresh `items` keys.
fn gen_stmt(rng: &mut Rng, step: usize, next_id: &mut i64) -> Stmt {
    let items = || "items".to_owned();
    match rng.below(7) {
        0 => {
            let rows = (0..=rng.below(3))
                .map(|_| {
                    *next_id += 1;
                    // Categories 10 and 11 have no `cats` row to join.
                    vec![Value::Int(*next_id), Value::Int(rng.below(12)), price(rng)]
                })
                .collect();
            Stmt::Write(Dml::Insert {
                table: items(),
                rows,
            })
        }
        // Same-length in-place rewrites: the indexed `cat`...
        1 => Stmt::Write(Dml::Update {
            table: items(),
            filter: id_range(rng.below(240), rng.below(30)),
            set: vec![(1, lit(Value::Int(rng.below(12))))],
        }),
        // ...and the unindexed `price`.
        2 => Stmt::Write(Dml::Update {
            table: items(),
            filter: Some(Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::int(rng.below(12)))),
            set: vec![(2, lit(price(rng)))],
        }),
        // A growing rewrite (new version + tombstone): every name is longer
        // than any earlier one.
        3 => {
            let cid = rng.below(10);
            let name = format!("{}-{cid}", "n".repeat(8 + step));
            Stmt::Write(Dml::Update {
                table: "cats".into(),
                filter: Some(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(cid))),
                set: vec![(1, lit(Value::Str(name)))],
            })
        }
        4 | 5 => Stmt::Write(Dml::Delete {
            table: items(),
            filter: id_range(rng.below(240), rng.below(12)),
        }),
        _ => Stmt::Vacuum(if rng.below(2) == 0 { "items" } else { "cats" }),
    }
}

/// The queries compared after every statement.
fn queries() -> Vec<Plan> {
    let range = |col: &str, lo: i64, hi: i64| Plan::IndexRange {
        table: "items".into(),
        col: col.into(),
        lo: Some(lo),
        hi: Some(hi),
        filter: None,
        project: None,
    };
    vec![
        Plan::scan("items"),
        range("cat", 2, 5),
        range("id", 20, 120),
        // No index on `price`: the range folds into a filtered scan.
        range("price", 1, 4),
        Plan::scan("items").join(Plan::scan("cats"), 1, 0),
        Plan::scan("items").aggregate(
            vec![1],
            vec![
                AggSpec::count_star(),
                AggSpec::over(AggFn::Sum, Expr::col(2)),
                AggSpec::over(AggFn::Max, Expr::col(0)),
            ],
        ),
        Plan::scan("items").aggregate(
            vec![],
            vec![
                AggSpec::count_star(),
                AggSpec::over(AggFn::Sum, Expr::col(2)),
                AggSpec::over(AggFn::Min, Expr::col(0)),
            ],
        ),
        Plan::scan("items").top_n(vec![(2, true), (0, false)], 9),
    ]
}

fn apply(cpu: &mut Cpu, db: &mut Database, stmt: &Stmt) -> Result<u64, String> {
    let mut s = db.session();
    match stmt {
        Stmt::Write(dml) => s.execute(cpu, dml),
        Stmt::Vacuum(table) => s.vacuum(cpu, table),
    }
    .map_err(|e| format!("{e:?}"))
}

fn digest(cpu: &mut Cpu, db: &mut Database, plan: &Plan) -> Result<Vec<String>, String> {
    let rows = db.session().run(cpu, plan).map_err(|e| format!("{e:?}"))?;
    Ok(canon_rows(&rows))
}

#[test]
fn write_sessions_agree_across_engines_after_every_statement() {
    let plans = queries();
    for seed in 0..SEEDS {
        let mut engines: Vec<(EngineKind, Cpu, Database)> = EngineKind::ALL
            .into_iter()
            .map(|kind| {
                let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
                let db = demo_database(&mut cpu, kind).unwrap();
                (kind, cpu, db)
            })
            .collect();
        let mut rng = Rng(seed);
        // Fresh keys follow the demo data's 0..200, inside the ranges that
        // UPDATE and DELETE pick from.
        let mut next_id = 199;
        let mut history = Vec::new();
        for step in 0..STATEMENTS {
            let stmt = gen_stmt(&mut rng, step, &mut next_id);
            history.push(stmt.clone());
            let counts: Vec<_> = engines
                .iter_mut()
                .map(|(_, cpu, db)| apply(cpu, db, &stmt))
                .collect();
            for ((kind, ..), n) in engines.iter().zip(&counts).skip(1) {
                assert_eq!(
                    &counts[0], n,
                    "seed {seed}: affected rows, Pg vs {kind:?}, after {history:#?}"
                );
            }
            for plan in &plans {
                let digests: Vec<_> = engines
                    .iter_mut()
                    .map(|(_, cpu, db)| digest(cpu, db, plan))
                    .collect();
                for ((kind, ..), d) in engines.iter().zip(&digests).skip(1) {
                    assert!(
                        &digests[0] == d,
                        "seed {seed}: Pg vs {kind:?} disagree on\n{}after {history:#?}",
                        plan.explain()
                    );
                }
            }
        }
    }
}
