//! Whole-workload equivalence of simcore's fast path.
//!
//! `tests/access_equiv.rs` proves the fast steps equal the reference step
//! on access traces. This test proves it on what the engines actually
//! issue: every engine personality builds the demo database and runs scans,
//! index ranges, a join, grouped and scalar aggregates, top-N and a few DML
//! statements, once on a reference machine (`Cpu::new_reference`, whose
//! every access takes the reference step) and once on an ordinary one. The
//! two runs must return the same rows and affected-row counts, and
//! bit-equal `Measurement`s for the build and for every statement. The set
//! runs twice: ungoverned, and with fig. 5's 15 µs governor window and
//! 10 µs sampler, where the timeline samples and the final P-state must
//! match too. So that the comparison cannot pass with both runs on the
//! same path, the reference run must batch no line and the ordinary run
//! must batch some.

mod common;

use common::{assert_identical, assert_same_samples};
use engines::dml::lit;
use engines::{db::demo_database, Database, Dml, EngineKind, Plan};
use simcore::{ArchConfig, Cpu, Measurement, PState, RunStats, TimelineSample};
use storage::{AggFn, AggSpec, CmpOp, Expr, Row, Value};

/// One statement of the workload.
enum Stmt {
    Query(Plan),
    Write(Dml),
}

fn index_range(col: &str, lo: i64, hi: i64) -> Plan {
    Plan::IndexRange {
        table: "items".into(),
        col: col.into(),
        lo: Some(lo),
        hi: Some(hi),
        filter: None,
        project: None,
    }
}

/// The read-only part of the workload.
fn queries() -> Vec<Plan> {
    vec![
        Plan::scan("items"),
        index_range("cat", 2, 5),
        index_range("id", 20, 120),
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
            ],
        ),
        Plan::scan("items").top_n(vec![(2, true), (0, false)], 9),
    ]
}

/// The queries, a few writes, then the queries again over the written
/// tables (vec rebuilds its column images there).
fn workload() -> Vec<Stmt> {
    let id_range = |lo: i64, hi: i64| {
        Some(Expr::and_all([
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(lo)),
            Expr::cmp(CmpOp::Le, Expr::col(0), Expr::int(hi)),
        ]))
    };
    let writes = [
        Dml::Insert {
            table: "items".into(),
            rows: (200..216)
                .map(|i| vec![Value::Int(i), Value::Int(i % 12), Value::Float(1.25)])
                .collect(),
        },
        Dml::Update {
            table: "items".into(),
            filter: id_range(40, 90),
            set: vec![(1, lit(Value::Int(3)))],
        },
        Dml::Update {
            table: "cats".into(),
            filter: Some(Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::int(6))),
            set: vec![(1, lit(Value::Str("a-longer-category-name".into())))],
        },
        Dml::Delete {
            table: "items".into(),
            filter: id_range(100, 130),
        },
    ];
    let mut stmts: Vec<Stmt> = queries().into_iter().map(Stmt::Query).collect();
    stmts.extend(writes.into_iter().map(Stmt::Write));
    stmts.extend(queries().into_iter().map(Stmt::Query));
    stmts
}

/// A statement's result: its rows, or a write's affected-row count.
#[derive(Debug, PartialEq)]
enum Answer {
    Rows(Vec<Row>),
    Affected(u64),
}

fn apply(cpu: &mut Cpu, db: &mut Database, stmt: &Stmt) -> Answer {
    let mut s = db.session();
    match stmt {
        Stmt::Query(plan) => Answer::Rows(s.run(cpu, plan).expect("query")),
        Stmt::Write(dml) => Answer::Affected(s.execute(cpu, dml).expect("write")),
    }
}

/// Everything one run of the workload observes.
struct Outcome {
    answers: Vec<Answer>,
    /// The build's measurement, then one per statement.
    measurements: Vec<Measurement>,
    samples: Vec<TimelineSample>,
    pstate: PState,
    stats: RunStats,
}

/// Build the demo database on `kind` and run the workload on a reference
/// machine or an ordinary one, governed as fig. 5 runs (15 µs window,
/// 10 µs sampler, idle gaps between statements) or pinned at P36.
fn run(kind: EngineKind, governed: bool, reference: bool) -> Outcome {
    let arch = ArchConfig::intel_i7_4790();
    let mut cpu = if reference {
        Cpu::new_reference(arch)
    } else {
        Cpu::new(arch)
    };
    if governed {
        cpu.set_governor(true);
        cpu.set_governor_interval(15e-6);
        cpu.attach_sampler(10e-6);
    }
    let mut db = None;
    let mut measurements = vec![cpu.measure(|c| db = Some(demo_database(c, kind).expect("build")))];
    let mut db = db.expect("built");
    let mut answers = Vec::new();
    for stmt in &workload() {
        let mut answer = None;
        measurements.push(cpu.measure(|c| answer = Some(apply(c, &mut db, stmt))));
        answers.push(answer.expect("ran"));
        if governed {
            cpu.idle_c0(30e-6);
        }
    }
    Outcome {
        answers,
        measurements,
        samples: cpu.take_sampler().map_or(Vec::new(), |s| s.samples),
        pstate: cpu.pstate(),
        stats: cpu.run_stats(),
    }
}

#[test]
fn fast_path_equals_reference_on_every_engine() {
    for governed in [false, true] {
        for kind in EngineKind::ALL {
            let what = format!("{kind:?}, governed {governed}");
            let reference = run(kind, governed, true);
            let fast = run(kind, governed, false);
            let (rs, fs) = (reference.stats, fast.stats);
            assert!(
                rs.served() == 0 && rs.fallbacks > 0,
                "{what}: the reference run must step every run-verb line alone ({rs:?})"
            );
            assert!(
                fs.served() > 0,
                "{what}: the fast run batched nothing ({fs:?})"
            );
            assert_eq!(reference.answers, fast.answers, "{what}: results diverged");
            for (i, (a, b)) in reference
                .measurements
                .iter()
                .zip(&fast.measurements)
                .enumerate()
            {
                assert_identical(a, b, &format!("{what}, measurement {i}"));
            }
            assert_same_samples(&reference.samples, &fast.samples, &what);
            assert_eq!(
                reference.pstate, fast.pstate,
                "{what}: final P-state diverged"
            );
            if governed {
                // The comparison must cover real governor and sampler work:
                // ticks taken, and the P-state moved off P36 by the gaps.
                assert!(fast.samples.len() >= 10, "{what}: too few samples");
                assert!(
                    fast.samples.iter().any(|s| s.pstate != PState::P36),
                    "{what}: the governor never moved"
                );
            }
        }
    }
}
