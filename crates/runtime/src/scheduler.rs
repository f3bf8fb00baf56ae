//! The sharded experiment scheduler and report aggregator.
//!
//! ## Execution model
//!
//! Each selected experiment contributes `shards()` independent tasks. Tasks
//! go into one shared queue in deterministic (registry, shard) order;
//! `jobs` workers pull tasks as they free up — idle workers steal the next
//! pending task, so a long experiment never serialises the tail of the
//! suite behind it. Every shard builds its own `Cpu`/database rig, so the
//! single-threaded simulator is never shared across workers and a shard's
//! bytes do not depend on which worker ran it or when.
//!
//! ## Determinism
//!
//! The aggregator assembles and emits reports strictly in registry order,
//! regardless of completion order, and host-time-dependent output (the
//! wall-clock summary) goes to a separate writer. Consequence: the report
//! stream is **byte-identical** for `--jobs 1` and `--jobs N` — asserted by
//! `tests/determinism.rs` in the root crate.
//!
//! ## Observability
//!
//! With `--trace`, each worker installs an `mjobs` span collector around
//! every shard; the collected spans are written — in registry/shard order,
//! so trace content is `--jobs`-independent too — as `trace.jsonl` and
//! `trace.json` (Chrome `trace_event`, energy-width spans) into the run
//! directory after the suite, along with the `mjprof` rollups:
//! `flame.folded` (energy flamegraph, weight = exclusive nanojoules) and
//! `profile.json` (per-shard, per-operator energy attribution). With `--metrics`, the scheduler's own
//! instrumentation (queue waits, shard host times, panics, worker
//! utilization, per-experiment host vs sim time, calibration cache
//! traffic) is appended to the summary stream and exported as
//! `metrics.json`. Neither flag writes a byte to the report stream.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use analysis::report::TextTable;
use analysis::EnergyTable;
use mjobs::sink::TraceRun;
use mjobs::SpanRecord;

use crate::cal::CalibrationCache;
use crate::config::HarnessConfig;
use crate::experiment::{ExpCtx, Experiment, SimStats, StatsSink};

/// Per-experiment outcome, in registry order.
#[derive(Debug)]
pub struct ExpOutcome {
    /// Experiment name.
    pub name: &'static str,
    /// Shard count it ran with.
    pub shards: usize,
    /// Host wall-clock summed over its shards (and assembly).
    pub host: Duration,
    /// Simulated cost recorded by its shards.
    pub sim: SimStats,
    /// Error message if any shard (or assembly) panicked, or the assembled
    /// report was marked failed ([`Report::fail`](crate::Report::fail)).
    pub error: Option<String>,
}

/// Result of a full suite run.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// Per-experiment outcomes for the selected experiments.
    pub experiments: Vec<ExpOutcome>,
    /// Host wall-clock for the whole suite.
    pub host: Duration,
    /// Distinct calibration tables computed.
    pub calibrations: usize,
}

impl SuiteOutcome {
    /// Names of failed experiments.
    pub fn failures(&self) -> Vec<&'static str> {
        self.experiments
            .iter()
            .filter(|e| e.error.is_some())
            .map(|e| e.name)
            .collect()
    }
}

struct Task {
    exp: usize,
    shard: usize,
}

type ShardResult = Result<Box<dyn std::any::Any + Send>, String>;

/// Everything a worker hands back for one finished shard.
struct ShardDone {
    result: ShardResult,
    /// Energy-attributed spans collected while the shard ran (empty unless
    /// `cfg.trace`).
    spans: Vec<SpanRecord>,
    /// Host wall-clock the shard took, for the trace shard header.
    host_us: u64,
    /// Simulated cost the shard recorded.
    sim: SimStats,
}

struct Board {
    queue: Mutex<VecDeque<Task>>,
    /// `results[i][s]` = shard s of experiment i (None = not finished).
    results: Mutex<Vec<Vec<Option<ShardDone>>>>,
    host: Mutex<Vec<Duration>>,
    done: Condvar,
    /// Suite start, for queue-wait metrics.
    t0: Instant,
}

/// Run `registry` (filtered by `cfg.filter`) under `cfg.jobs` workers.
///
/// Reports stream to `out` in registry order as they complete; the
/// host-time summary (non-deterministic) goes to `summary`. An experiment
/// fails when one of its shards or its `assemble` panics, or when its
/// assembled report is marked failed
/// ([`Report::fail`](crate::Report::fail)): whatever text it produced
/// streams first, then an `EXPERIMENT FAILED:` line, and
/// [`SuiteOutcome::failures`] lists it.
///
/// Do not pass a held [`StderrLock`](std::io::StderrLock) as either writer:
/// workers print csv notices — and the panic hook prints shard panics — to
/// stderr from their own threads, and would deadlock against a lock held
/// here for the duration of the suite.
pub fn run_suite(
    registry: &[&dyn Experiment],
    cfg: &HarnessConfig,
    out: &mut dyn Write,
    summary: &mut dyn Write,
) -> std::io::Result<SuiteOutcome> {
    let t0 = Instant::now();
    // Start the suite with clean fast-path totals so metrics.json reflects
    // this run only, even when several suites share one process (tests).
    simcore::take_run_stats();
    simcore::take_cache_bytes_resident();
    let selected: Vec<&dyn Experiment> = registry
        .iter()
        .copied()
        .filter(|e| cfg.filter.as_deref().is_none_or(|f| e.name().contains(f)))
        .collect();

    let cal = CalibrationCache::new();
    let run_dir = make_run_dir(cfg);
    let csv_dir = if cfg.csv { run_dir.clone() } else { None };
    let shard_counts: Vec<usize> = selected.iter().map(|e| e.shards(cfg).max(1)).collect();

    let board = Board {
        queue: Mutex::new(
            selected
                .iter()
                .enumerate()
                .flat_map(|(i, _)| (0..shard_counts[i]).map(move |s| Task { exp: i, shard: s }))
                .collect(),
        ),
        results: Mutex::new(
            shard_counts
                .iter()
                .map(|&n| (0..n).map(|_| None).collect())
                .collect(),
        ),
        host: Mutex::new(vec![Duration::ZERO; selected.len()]),
        done: Condvar::new(),
        t0,
    };

    let total_tasks: usize = shard_counts.iter().sum();
    let jobs = cfg.jobs.max(1).min(total_tasks.max(1));

    let mut outcomes: Vec<ExpOutcome> = Vec::with_capacity(selected.len());
    // (experiment index, shard, host µs, spans) in registry/shard order —
    // the source material for the trace files written after the suite.
    let mut trace_runs: Vec<(usize, usize, u64, Vec<SpanRecord>)> = Vec::new();
    std::thread::scope(|scope| -> std::io::Result<()> {
        for _ in 0..jobs {
            scope.spawn(|| {
                worker(&board, &selected, cfg, &cal, csv_dir.as_deref());
            });
        }

        // Aggregate in registry order, streaming each report as soon as the
        // experiment's shards are all in.
        for (i, exp) in selected.iter().enumerate() {
            let shard_outs: Vec<Option<ShardDone>> = {
                let mut results = board.results.lock().expect("results poisoned");
                while results[i].iter().any(|r| r.is_none()) {
                    results = board.done.wait(results).expect("results poisoned");
                }
                results[i].iter_mut().map(Option::take).collect()
            };

            let mut error = None;
            let mut shards = Vec::with_capacity(shard_outs.len());
            let mut sim = SimStats::default();
            for (s, r) in shard_outs.into_iter().enumerate() {
                let done = r.expect("taken above");
                sim.merge(&done.sim);
                if cfg.trace {
                    trace_runs.push((i, s, done.host_us, done.spans));
                }
                match done.result {
                    Ok(v) => shards.push(v),
                    Err(e) => {
                        error.get_or_insert_with(|| format!("{} shard {s}: {e}", exp.name()));
                    }
                }
            }

            writeln!(
                out,
                "\n########################################################"
            )?;
            writeln!(out, "# {}", exp.name())?;
            writeln!(
                out,
                "########################################################"
            )?;
            let t_assemble = Instant::now();
            let stats = StatsSink::new(Mutex::new(sim));
            if error.is_none() {
                let ctx = ExpCtx::new(cfg, &cal, Arc::clone(&stats), csv_dir.as_deref());
                match catch_unwind(AssertUnwindSafe(|| exp.assemble(shards, &ctx))) {
                    Ok(report) => {
                        out.write_all(report.text.as_bytes())?;
                        error = report.failure().map(|why| format!("{}: {why}", exp.name()));
                    }
                    Err(p) => {
                        mjobs::metrics::counter_add("scheduler.assemble_panics", 1);
                        error = Some(format!("{} assemble: {}", exp.name(), panic_msg(&*p)));
                    }
                }
            }
            if let Some(e) = &error {
                writeln!(out, "EXPERIMENT FAILED: {e}")?;
            }
            out.flush()?;

            let host = board.host.lock().expect("host poisoned")[i] + t_assemble.elapsed();
            let sim = *stats.lock().expect("stats poisoned");
            mjobs::metrics::gauge_set(
                &format!("exp.{}.host_ms", exp.name()),
                host.as_secs_f64() * 1e3,
            );
            mjobs::metrics::gauge_set(&format!("exp.{}.sim_ms", exp.name()), sim.time_s * 1e3);
            mjobs::metrics::gauge_set(&format!("exp.{}.sim_j", exp.name()), sim.energy_j);
            mjobs::metrics::gauge_set(&format!("exp.{}.sim_kcycles", exp.name()), sim.cycles / 1e3);
            outcomes.push(ExpOutcome {
                name: exp.name(),
                shards: shard_counts[i],
                host,
                sim,
                error,
            });
        }
        Ok(())
    })?;

    // All workers have joined (scope end), so every shard's `Cpu` has
    // dropped and flushed its fast-path tallies into the simcore globals.
    // Publish them once per suite; all four are jobs-count independent
    // because batching decisions never depend on scheduling.
    let st = simcore::take_run_stats();
    mjobs::metrics::counter_add("simcore.run_batched_lines", st.batched_lines);
    mjobs::metrics::counter_add("simcore.run_cold_batched_lines", st.cold_batched_lines);
    mjobs::metrics::counter_add("simcore.run_replayed_lines", st.replayed_lines);
    mjobs::metrics::counter_add("simcore.run_fallbacks", st.fallbacks);
    // The cache-metadata footprint is pure geometry (SoA tag arrays + rank
    // words + way-hint tables of the largest machine built this suite), so
    // it too is jobs-count independent — asserted in tests/determinism.rs.
    mjobs::metrics::gauge_set(
        "simcore.cache_bytes_resident",
        simcore::take_cache_bytes_resident() as f64,
    );

    let outcome = SuiteOutcome {
        experiments: outcomes,
        host: t0.elapsed(),
        calibrations: cal.len(),
    };
    // Busy time / (workers × wall) — approximate (per-experiment host time
    // includes aggregator-side assembly), but a good saturation signal.
    let busy: f64 = outcome
        .experiments
        .iter()
        .map(|e| e.host.as_secs_f64())
        .sum();
    mjobs::metrics::gauge_set(
        "scheduler.worker_utilization",
        (busy / (jobs as f64 * outcome.host.as_secs_f64().max(1e-9))).min(1.0),
    );

    if cfg.trace {
        let trace_dir = cfg.trace_dir.clone().or_else(|| run_dir.clone());
        match trace_dir {
            Some(dir) => write_traces(&dir, &selected, cfg, &cal, jobs, &trace_runs),
            None => eprintln!("trace: no run directory available — traces not written"),
        }
    }
    write_summary(&outcome, jobs, cfg.metrics, summary)?;
    if cfg.metrics {
        if let Some(dir) = &run_dir {
            let path = dir.join("metrics.json");
            if let Err(e) = std::fs::write(&path, mjobs::metrics::global().to_json() + "\n") {
                eprintln!("metrics: cannot write {}: {e}", path.display());
            } else {
                eprintln!("metrics: wrote {}", path.display());
            }
        }
    }
    Ok(outcome)
}

/// Write `trace.jsonl` and `trace.json` (Chrome `trace_event`) for the
/// collected spans, in registry/shard order. Energy tables for the span
/// micro-op breakdowns come from the (already warm) calibration cache.
fn write_traces(
    dir: &Path,
    selected: &[&dyn Experiment],
    cfg: &HarnessConfig,
    cal: &CalibrationCache,
    jobs: usize,
    trace_runs: &[(usize, usize, u64, Vec<SpanRecord>)],
) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "trace: cannot create {}: {e} — traces not written",
            dir.display()
        );
        return;
    }
    // One energy table per experiment that actually produced spans; the
    // suite already calibrated these, so this is a cache hit.
    let mut tables: HashMap<usize, Arc<EnergyTable>> = HashMap::new();
    for (i, _, _, spans) in trace_runs {
        if !spans.is_empty() && !tables.contains_key(i) {
            let exp = selected[*i];
            tables.insert(*i, cal.table(exp.arch(), exp.pstate(), cfg.cal_ops));
        }
    }
    let runs: Vec<TraceRun<'_>> = trace_runs
        .iter()
        .map(|(i, s, host_us, spans)| TraceRun {
            exp: selected[*i].name(),
            shard: *s,
            host_us: *host_us,
            spans,
            table: tables.get(i).map(|t| t.as_ref()),
        })
        .collect();
    let host_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);

    let emit = |path: &Path, result: std::io::Result<()>| match result {
        Ok(()) => eprintln!("trace: wrote {}", path.display()),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    };
    let jsonl_path = dir.join("trace.jsonl");
    emit(
        &jsonl_path,
        std::fs::File::create(&jsonl_path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            mjobs::write_jsonl(&mut w, jobs, host_unix_ms, &runs)?;
            w.flush()
        }),
    );
    let chrome_path = dir.join("trace.json");
    emit(
        &chrome_path,
        std::fs::File::create(&chrome_path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            mjobs::write_chrome(&mut w, &runs)?;
            w.flush()
        }),
    );

    // The mjprof rollups: an energy flamegraph (folded stacks, weight =
    // exclusive nanojoules) and the queryable per-operator profile. Both
    // are derived from the same registry/shard-ordered spans and simulated
    // meters, so they are byte-identical for any `--jobs`.
    let mut folded = std::collections::BTreeMap::new();
    for (i, s, _, spans) in trace_runs {
        if spans.is_empty() {
            continue;
        }
        let prefix = [selected[*i].name().to_owned(), format!("shard{s}")];
        if let Err(e) = mjprof::fold_into(&mut folded, &prefix, spans) {
            eprintln!(
                "trace: {} shard {s}: malformed span stream not folded: {e}",
                selected[*i].name()
            );
        }
    }
    let folded_path = dir.join("flame.folded");
    emit(
        &folded_path,
        std::fs::File::create(&folded_path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            mjprof::write_folded(&mut w, &folded)?;
            w.flush()
        }),
    );

    let shards: Vec<mjprof::ShardProfile<'_>> = trace_runs
        .iter()
        .filter_map(|(i, s, _, spans)| {
            // Experiments that produced no spans at all have no energy
            // table and nothing to attribute; skip them rather than
            // emitting empty shells.
            let table = tables.get(i)?;
            Some(mjprof::ShardProfile {
                exp: selected[*i].name(),
                shard: *s,
                spans,
                table: table.as_ref(),
            })
        })
        .collect();
    let profile_path = dir.join("profile.json");
    emit(
        &profile_path,
        std::fs::File::create(&profile_path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            mjprof::write_profile(&mut w, &shards)?;
            w.flush()
        }),
    );
}

fn worker(
    board: &Board,
    selected: &[&dyn Experiment],
    cfg: &HarnessConfig,
    cal: &CalibrationCache,
    csv_dir: Option<&std::path::Path>,
) {
    loop {
        let task = board.queue.lock().expect("queue poisoned").pop_front();
        let Some(task) = task else { break };
        mjobs::metrics::histogram_record(
            "scheduler.queue_wait_us",
            board.t0.elapsed().as_micros() as u64,
        );
        let exp = selected[task.exp];
        let stats = StatsSink::default();
        let ctx = ExpCtx::new(cfg, cal, Arc::clone(&stats), csv_dir);
        if cfg.trace {
            mjobs::span::install();
        }
        let t0 = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| exp.run_shard(task.shard, &ctx)))
            .map_err(|p| panic_msg(&*p));
        let elapsed = t0.elapsed();
        // take() also force-closes spans left open by a panicking shard.
        let spans = if cfg.trace {
            mjobs::span::take()
        } else {
            Vec::new()
        };
        mjobs::metrics::counter_add("scheduler.shards_run", 1);
        mjobs::metrics::histogram_record("scheduler.shard_host_us", elapsed.as_micros() as u64);
        if result.is_err() {
            mjobs::metrics::counter_add("scheduler.shard_panics", 1);
        }
        board.host.lock().expect("host poisoned")[task.exp] += elapsed;
        board.results.lock().expect("results poisoned")[task.exp][task.shard] = Some(ShardDone {
            result,
            spans,
            host_us: elapsed.as_micros() as u64,
            // Never panic here: the aggregator waits for this result.
            sim: *stats.lock().unwrap_or_else(PoisonError::into_inner),
        });
        board.done.notify_all();
    }
}

fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_owned()
    }
}

/// Create the per-run output directory once, before any worker starts.
/// Needed whenever some artifact wants a home: CSVs, traces (unless
/// `--trace=DIR` picked an explicit directory), or `metrics.json`.
fn make_run_dir(cfg: &HarnessConfig) -> Option<PathBuf> {
    let trace_needs_dir = cfg.trace && cfg.trace_dir.is_none();
    if !cfg.csv && !trace_needs_dir && !cfg.metrics {
        return None;
    }
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    // The sequence number keeps same-second runs within one process (e.g.
    // back-to-back suites in a test) from landing in the same directory.
    static RUN_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = RUN_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = cfg
        .results_root
        .join(format!("run-{stamp}-{}-{seq}", std::process::id()));
    match std::fs::create_dir_all(&dir) {
        Ok(()) => Some(dir),
        Err(e) => {
            eprintln!(
                "run dir: cannot create {}: {e} — file output disabled",
                dir.display()
            );
            None
        }
    }
}

fn write_summary(
    outcome: &SuiteOutcome,
    jobs: usize,
    metrics: bool,
    summary: &mut dyn Write,
) -> std::io::Result<()> {
    let mut t = TextTable::new([
        "experiment",
        "shards",
        "host ms",
        "sim s",
        "sim kcycles",
        "sim J",
    ]);
    for e in &outcome.experiments {
        t.row([
            e.name.to_owned(),
            e.shards.to_string(),
            format!("{:.0}", e.host.as_secs_f64() * 1e3),
            format!("{:.4}", e.sim.time_s),
            format!("{:.0}", e.sim.cycles / 1e3),
            format!("{:.4}", e.sim.energy_j),
        ]);
    }
    let mut s = String::new();
    let _ = writeln!(s, "\n== suite summary ({jobs} jobs) ==");
    s.push_str(&t.render());
    let _ = writeln!(
        s,
        "suite wall-clock {:.2} s | {} calibration table(s) computed once and shared",
        outcome.host.as_secs_f64(),
        outcome.calibrations,
    );
    if metrics {
        let _ = writeln!(s, "\n== metrics ==");
        s.push_str(&mjobs::metrics::global().render_table());
    }
    summary.write_all(s.as_bytes())?;
    summary.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{downcast_shard, Report};
    use std::any::Any;

    struct Emit {
        name: &'static str,
        shards: usize,
        panic_on: Option<usize>,
        /// `assemble` marks the report failed.
        fail: bool,
    }

    impl Experiment for Emit {
        fn name(&self) -> &'static str {
            self.name
        }
        fn shards(&self, _cfg: &HarnessConfig) -> usize {
            self.shards
        }
        fn run_shard(&self, shard: usize, _ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
            if self.panic_on == Some(shard) {
                panic!("boom in shard {shard}");
            }
            let mut r = Report::new();
            writeln!(r, "{} shard {shard}", self.name).unwrap();
            Box::new(r)
        }
        fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, _ctx: &ExpCtx<'_>) -> Report {
            let mut r = Report::new();
            for (i, s) in shards.into_iter().enumerate() {
                r.append(&downcast_shard::<Report>(self.name, i, s));
            }
            if self.fail {
                r.fail("2 checks disagree");
            }
            r
        }
    }

    fn run_to_string(reg: &[&dyn Experiment], cfg: &HarnessConfig) -> (String, SuiteOutcome) {
        let mut out = Vec::new();
        let mut summary = Vec::new();
        let outcome = run_suite(reg, cfg, &mut out, &mut summary).expect("io");
        (String::from_utf8(out).expect("utf8"), outcome)
    }

    #[test]
    fn reports_stream_in_registry_order_and_parallel_matches_serial() {
        let a = Emit {
            name: "alpha",
            shards: 3,
            panic_on: None,
            fail: false,
        };
        let b = Emit {
            name: "beta",
            shards: 1,
            panic_on: None,
            fail: false,
        };
        let c = Emit {
            name: "gamma",
            shards: 2,
            panic_on: None,
            fail: false,
        };
        let reg: [&dyn Experiment; 3] = [&a, &b, &c];

        let serial = HarnessConfig {
            jobs: 1,
            ..HarnessConfig::default()
        };
        let parallel = HarnessConfig {
            jobs: 4,
            ..HarnessConfig::default()
        };

        let (s_out, s_outcome) = run_to_string(&reg, &serial);
        let (p_out, p_outcome) = run_to_string(&reg, &parallel);
        assert_eq!(s_out, p_out, "report stream must not depend on --jobs");
        assert!(s_out.find("# alpha").unwrap() < s_out.find("# beta").unwrap());
        assert!(s_out.find("# beta").unwrap() < s_out.find("# gamma").unwrap());
        assert!(s_out.contains("alpha shard 0\nalpha shard 1\nalpha shard 2\n"));
        assert!(s_outcome.failures().is_empty() && p_outcome.failures().is_empty());
    }

    /// Shard `s` records one window of `TIMES[s]` simulated seconds. With
    /// three or more workers the shards record in reverse order, forced by
    /// a turn counter: float addition is not associative, so summing in
    /// that order gives other bits than summing in shard order.
    struct ReverseRecord {
        turn: (Mutex<usize>, Condvar),
    }

    const TIMES: [f64; 3] = [0.1, 0.2, 0.3];

    impl Experiment for ReverseRecord {
        fn name(&self) -> &'static str {
            "reverse_record"
        }
        fn shards(&self, _cfg: &HarnessConfig) -> usize {
            TIMES.len()
        }
        fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
            let mut cpu = simcore::Cpu::new(simcore::ArchConfig::intel_i7_4790());
            let mut m = cpu.measure(|_| {});
            m.time_s = TIMES[shard];
            let (turn, cv) = &self.turn;
            let mut recorded = turn.lock().expect("turn");
            if ctx.cfg.jobs >= TIMES.len() {
                while *recorded < TIMES.len() - 1 - shard {
                    recorded = cv.wait(recorded).expect("turn");
                }
            }
            ctx.record(&m);
            *recorded += 1;
            cv.notify_all();
            Box::new(())
        }
        fn assemble(&self, _shards: Vec<Box<dyn Any + Send>>, _ctx: &ExpCtx<'_>) -> Report {
            Report::new()
        }
    }

    #[test]
    fn sim_stats_do_not_depend_on_the_order_shards_record_in() {
        let sim_s = |jobs: usize| {
            let e = ReverseRecord {
                turn: (Mutex::new(0), Condvar::new()),
            };
            let cfg = HarnessConfig {
                jobs,
                ..HarnessConfig::default()
            };
            let (_, outcome) = run_to_string(&[&e], &cfg);
            outcome.experiments[0].sim.time_s
        };
        let in_shard_order = (TIMES[0] + TIMES[1]) + TIMES[2];
        assert_ne!(in_shard_order, (TIMES[2] + TIMES[1]) + TIMES[0]);
        assert_eq!(sim_s(1).to_bits(), in_shard_order.to_bits());
        assert_eq!(sim_s(3).to_bits(), in_shard_order.to_bits());
    }

    #[test]
    fn filter_selects_by_substring() {
        let a = Emit {
            name: "fig01_x",
            shards: 1,
            panic_on: None,
            fail: false,
        };
        let b = Emit {
            name: "table2_y",
            shards: 1,
            panic_on: None,
            fail: false,
        };
        let reg: [&dyn Experiment; 2] = [&a, &b];
        let cfg = HarnessConfig {
            filter: Some("table2".into()),
            ..HarnessConfig::default()
        };
        let (out, outcome) = run_to_string(&reg, &cfg);
        assert!(!out.contains("fig01_x") && out.contains("table2_y"));
        assert_eq!(outcome.experiments.len(), 1);
    }

    #[test]
    fn shard_panic_fails_that_experiment_only() {
        let a = Emit {
            name: "bad",
            shards: 2,
            panic_on: Some(1),
            fail: false,
        };
        let b = Emit {
            name: "good",
            shards: 1,
            panic_on: None,
            fail: false,
        };
        let reg: [&dyn Experiment; 2] = [&a, &b];
        let cfg = HarnessConfig {
            jobs: 2,
            ..HarnessConfig::default()
        };
        let (out, outcome) = run_to_string(&reg, &cfg);
        assert!(out.contains("EXPERIMENT FAILED"), "out = {out:?}");
        assert!(
            out.contains("bad shard 1: boom in shard 1"),
            "error must name the experiment and shard, out = {out:?}"
        );
        assert!(out.contains("good shard 0"), "out = {out:?}");
        assert_eq!(outcome.failures(), vec!["bad"]);
        assert!(
            mjobs::metrics::global()
                .counter("scheduler.shard_panics")
                .unwrap_or(0)
                >= 1
        );
    }

    #[test]
    fn failed_report_streams_then_fails_that_experiment_only() {
        let a = Emit {
            name: "checked",
            shards: 2,
            panic_on: None,
            fail: true,
        };
        let b = Emit {
            name: "good",
            shards: 1,
            panic_on: None,
            fail: false,
        };
        let reg: [&dyn Experiment; 2] = [&a, &b];
        let cfg = HarnessConfig {
            jobs: 2,
            ..HarnessConfig::default()
        };
        let (out, outcome) = run_to_string(&reg, &cfg);
        assert!(
            out.contains(
                "checked shard 0\nchecked shard 1\n\
                 EXPERIMENT FAILED: checked: 2 checks disagree\n"
            ),
            "the text streams, then the failure names the experiment, out = {out:?}"
        );
        assert!(out.contains("# good\n"), "out = {out:?}");
        assert_eq!(out.matches("EXPERIMENT FAILED").count(), 1, "out = {out:?}");
        assert_eq!(outcome.failures(), vec!["checked"]);
    }

    #[test]
    fn trace_and_metrics_artifacts_are_written() {
        let a = Emit {
            name: "traced_exp",
            shards: 2,
            panic_on: None,
            fail: false,
        };
        let reg: [&dyn Experiment; 1] = [&a];
        let dir =
            std::env::temp_dir().join(format!("mjrt-sched-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = HarnessConfig {
            trace: true,
            trace_dir: Some(dir.clone()),
            metrics: true,
            results_root: dir.join("results"),
            jobs: 2,
            ..HarnessConfig::default()
        };
        let mut out = Vec::new();
        let mut summary = Vec::new();
        run_suite(&reg, &cfg, &mut out, &mut summary).expect("io");

        // Tracing/metrics never touch the report stream: same bytes as a
        // plain run of the same registry.
        let (plain, _) = run_to_string(&reg, &HarnessConfig::default());
        let out = String::from_utf8(out).unwrap();
        assert_eq!(out, plain, "tracing/metrics must not change the report");

        let jsonl = std::fs::read_to_string(dir.join("trace.jsonl")).expect("trace.jsonl");
        for line in jsonl.lines() {
            mjobs::json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        }
        assert!(jsonl.contains("\"type\": \"shard\""), "jsonl = {jsonl:?}");
        assert!(jsonl.contains("\"exp\": \"traced_exp\""));
        let chrome = std::fs::read_to_string(dir.join("trace.json")).expect("trace.json");
        mjobs::json::parse(&chrome).expect("chrome trace parses");

        // The profiler rollups land next to the traces. These toy shards
        // record no spans, so both artifacts are valid-but-empty.
        let folded = std::fs::read_to_string(dir.join("flame.folded")).expect("flame.folded");
        for line in folded.lines() {
            mjprof::parse_folded(line).unwrap_or_else(|| panic!("bad folded line {line:?}"));
        }
        let profile = std::fs::read_to_string(dir.join("profile.json")).expect("profile.json");
        let parsed = mjprof::parse_profile(&profile).expect("profile.json parses");
        assert_eq!(parsed.format, mjprof::PROFILE_FORMAT as u64);

        let summary = String::from_utf8(summary).unwrap();
        assert!(summary.contains("== metrics =="), "summary = {summary:?}");
        assert!(summary.contains("scheduler.shards_run"));

        // metrics.json lands in the per-run directory under results_root.
        let run_dirs: Vec<_> = std::fs::read_dir(dir.join("results"))
            .expect("results dir")
            .map(|e| e.expect("entry").path())
            .collect();
        assert_eq!(run_dirs.len(), 1);
        let metrics =
            std::fs::read_to_string(run_dirs[0].join("metrics.json")).expect("metrics.json");
        mjobs::json::parse(metrics.trim()).expect("metrics.json parses");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
