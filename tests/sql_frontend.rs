//! Integration: SQL-compiled plans agree with hand-built plans on the
//! TPC-H database, across every engine.

use engines::{EngineKind, KnobLevel};
use mjdiff::harness::canon_rows;
use simcore::{ArchConfig, Cpu};
use sqlfe::{compile, Planned};
use storage::Row;
use workloads::tpch::gen::build_tpch_db;
use workloads::TpchScale;

fn run_sql(cpu: &mut Cpu, db: &mut engines::Database, sql: &str) -> Vec<Row> {
    match compile(sql, db.catalog()).expect("compile") {
        Planned::Query(plan) => db.session().run(cpu, &plan).expect("run"),
        Planned::Write(dml) => {
            let n = db.session().execute(cpu, &dml).expect("execute");
            vec![vec![storage::Value::Int(n as i64)]]
        }
        Planned::Explain { .. } => panic!("run_sql is not for EXPLAIN statements"),
    }
}

#[test]
fn sql_q6_equals_handbuilt_plan() {
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    let mut db = build_tpch_db(
        &mut cpu,
        EngineKind::Pg,
        KnobLevel::Baseline,
        TpchScale::tiny(),
    )
    .unwrap();
    let sql = "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
               WHERE l_shipdate BETWEEN DATE '1994-01-01' AND DATE '1994-12-31' \
               AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24";
    let via_sql = run_sql(&mut cpu, &mut db, sql);
    let via_plan = db
        .session()
        .run(&mut cpu, &workloads::TpchQuery(6).plan())
        .unwrap();
    assert_eq!(canon_rows(&via_sql), canon_rows(&via_plan));
}

#[test]
fn sql_joins_and_aggregates_agree_across_engines() {
    let sql = "SELECT n_name, COUNT(*) AS cnt, SUM(c_acctbal) \
               FROM customer JOIN nation ON c_nationkey = n_nationkey \
               WHERE c_acctbal > 0 GROUP BY n_name ORDER BY cnt DESC, 1 LIMIT 5";
    let mut results = Vec::new();
    for kind in EngineKind::ALL {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut db = build_tpch_db(&mut cpu, kind, KnobLevel::Baseline, TpchScale::tiny()).unwrap();
        results.push(canon_rows(&run_sql(&mut cpu, &mut db, sql)));
    }
    for (i, kind) in EngineKind::ALL.into_iter().enumerate().skip(1) {
        assert_eq!(results[0], results[i], "Pg vs {kind:?}");
    }
    assert!(!results[0].is_empty());
}

#[test]
fn sql_join_of_float_and_int_keys_follows_sql_equality() {
    // Every demo price is x.5, so `price = cid` holds for no row. Lite's
    // index nested loop used to seek the truncated price and count 200.
    let sql = "SELECT COUNT(*) FROM items JOIN cats ON items.price = cats.cid";
    for kind in EngineKind::ALL {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let mut db = engines::db::demo_database(&mut cpu, kind).unwrap();
        let rows = run_sql(&mut cpu, &mut db, sql);
        assert_eq!(rows, vec![vec![storage::Value::Int(0)]], "{kind:?}");
    }
}

#[test]
fn sql_dml_roundtrip() {
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    let mut db = build_tpch_db(
        &mut cpu,
        EngineKind::Lite,
        KnobLevel::Baseline,
        TpchScale::tiny(),
    )
    .unwrap();
    let before = run_sql(&mut cpu, &mut db, "SELECT COUNT(*) FROM region");
    assert_eq!(before[0][0], storage::Value::Int(5));

    run_sql(
        &mut cpu,
        &mut db,
        "INSERT INTO region VALUES (99, 'ATLANTIS')",
    );
    let mid = run_sql(&mut cpu, &mut db, "SELECT COUNT(*) FROM region");
    assert_eq!(mid[0][0], storage::Value::Int(6));

    run_sql(
        &mut cpu,
        &mut db,
        "UPDATE region SET r_name = 'SUNKEN' WHERE r_regionkey = 99",
    );
    let names = run_sql(
        &mut cpu,
        &mut db,
        "SELECT r_name FROM region WHERE r_regionkey = 99",
    );
    assert_eq!(names[0][0], storage::Value::Str("SUNKEN".into()));

    run_sql(
        &mut cpu,
        &mut db,
        "DELETE FROM region WHERE r_regionkey = 99",
    );
    let after = run_sql(&mut cpu, &mut db, "SELECT COUNT(*) FROM region");
    assert_eq!(after[0][0], storage::Value::Int(5));
}

#[test]
fn sql_filter_pushdown_reduces_simulated_work() {
    // The pushed-down filter must prune before the join: compare simulated
    // instructions against an artificial plan filtering after the join.
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    let mut db = build_tpch_db(
        &mut cpu,
        EngineKind::Pg,
        KnobLevel::Baseline,
        TpchScale::tiny(),
    )
    .unwrap();
    let sql = "SELECT * FROM orders JOIN customer ON o_custkey = c_custkey \
               WHERE o_totalprice > 540000.0";
    let Planned::Query(pushed) = compile(sql, db.catalog()).unwrap() else {
        panic!()
    };
    db.session().run(&mut cpu, &pushed).unwrap();
    let m_pushed = cpu.measure(|c| {
        db.session().run(c, &pushed).unwrap();
    });

    let o = workloads::tpch::gen::schema_orders().col_expect("o_totalprice");
    let unpushed = engines::Plan::Join {
        left: Box::new(engines::Plan::scan("orders")),
        right: Box::new(engines::Plan::scan("customer")),
        left_col: workloads::tpch::gen::schema_orders().col_expect("o_custkey"),
        right_col: workloads::tpch::gen::schema_customer().col_expect("c_custkey"),
        filter: Some(storage::Expr::cmp(
            storage::CmpOp::Gt,
            storage::Expr::col(o),
            storage::Expr::float(540000.0),
        )),
        project: None,
    };
    db.session().run(&mut cpu, &unpushed).unwrap();
    let m_unpushed = cpu.measure(|c| {
        db.session().run(c, &unpushed).unwrap();
    });
    let i_pushed = m_pushed.pmu.get(simcore::Event::Instructions);
    let i_unpushed = m_unpushed.pmu.get(simcore::Event::Instructions);
    assert!(
        i_pushed < i_unpushed,
        "pushdown should reduce work: {i_pushed} !< {i_unpushed}"
    );
}
