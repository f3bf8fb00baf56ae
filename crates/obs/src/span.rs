//! Simulated-time span stacks.
//!
//! A span brackets a region of *simulated* work: entering snapshots the
//! current thread's `Cpu` (PMU bank, RAPL meters, simulated clock), exiting
//! produces the delta as a plain [`Measurement`] — so every span carries
//! exactly what the analysis layer needs to attribute its energy to
//! micro-ops. Because the timeline is the simulator's, not the host's,
//! traces are deterministic: the same suite produces byte-identical span
//! streams regardless of `--jobs`, host load, or machine.
//!
//! Collection is **off by default** and costs one thread-local read per
//! call site when off. The runtime's scheduler [`install`]s a collector on
//! a worker thread just before running a shard and [`take`]s the records
//! after; instrumented code (the query executor) only ever calls
//! [`enter`] / [`exit`], which are no-ops without a collector. Span names
//! are built lazily — the closure passed to [`enter`] never runs when
//! collection is off.
//!
//! Collectors **nest**: [`install`] pushes a fresh collector onto a
//! thread-local stack and [`take`] pops it, so a profiler (mjprof's
//! `EXPLAIN ANALYZE`) can scope its own collection inside a shard that the
//! scheduler is already tracing — the outer collector keeps its records
//! and simply does not see the spans captured by the inner one.
//!
//! Spans also carry two profiler annotations: an optional row count
//! ([`annotate_rows`], set by the query executor on operator spans) and
//! the per-span delta of the simulator's fast-path counters
//! ([`SpanRecord::runs`]), both byte-deterministic.
//!
//! Spans that are still open at [`take`] time (a panic unwound through the
//! instrumented region) are force-closed with a zero delta and marked
//! [`SpanRecord::forced`]; an [`exit`] with no matching [`enter`] is
//! counted in the `trace.unbalanced_exits` metric and otherwise ignored.

use std::cell::RefCell;

use simcore::{Cpu, Measurement, PState, PmuSnapshot, RaplReading, RunStats};

use crate::metrics;

/// One completed span, recorded at exit (or force-closed at [`take`]).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (e.g. `"join"`, `"scan(lineitem)"`).
    pub name: String,
    /// Enter sequence number. The collector's sequence counter advances on
    /// every enter *and* exit, so sorting all `(seq, end_seq)` endpoints
    /// reconstructs the exact interleaving.
    pub seq: u64,
    /// Exit sequence number (assigned at exit or force-close).
    pub end_seq: u64,
    /// Nesting depth at enter (0 = root).
    pub depth: usize,
    /// `seq` of the enclosing span, if any.
    pub parent_seq: Option<u64>,
    /// Simulated seconds on the thread's `Cpu` clock at enter.
    pub start_s: f64,
    /// Cycles elapsed on the thread's `Cpu` at enter.
    pub start_cycles: f64,
    /// Cumulative RAPL total (joules) at enter.
    pub start_e_j: f64,
    /// The span's simulated cost: PMU deltas, per-domain energy, elapsed
    /// simulated time and cycles.
    pub delta: Measurement,
    /// Rows produced by the span's operator, when the instrumented code
    /// called [`annotate_rows`] (query-executor spans do; `None` elsewhere).
    pub rows: Option<u64>,
    /// Delta of the machine's fast-path counters across the span
    /// (batched / cold-batched / replayed lines vs scalar fallbacks).
    /// Like energy, a child's counts nest inside its parent's.
    pub runs: RunStats,
    /// True if the span never exited and was closed by [`take`].
    pub forced: bool,
}

struct OpenSpan {
    name: String,
    seq: u64,
    parent_seq: Option<u64>,
    pmu: PmuSnapshot,
    rapl: RaplReading,
    time_s: f64,
    cycles: f64,
    pstate: PState,
    runs: RunStats,
    rows: Option<u64>,
}

#[derive(Default)]
struct Collector {
    stack: Vec<OpenSpan>,
    records: Vec<SpanRecord>,
    next_seq: u64,
}

thread_local! {
    static COLLECTORS: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
}

/// Start collecting spans on this thread. Collectors nest: each `install`
/// pushes a fresh collector (own sequence counter, own records) and the
/// matching [`take`] pops it, restoring whatever was collecting before.
pub fn install() {
    COLLECTORS.with(|c| c.borrow_mut().push(Collector::default()));
}

/// Whether a collector is installed on this thread.
pub fn enabled() -> bool {
    COLLECTORS.with(|c| !c.borrow().is_empty())
}

/// Open a span. `name` is only evaluated when collection is on.
pub fn enter<F: FnOnce() -> String>(cpu: &mut Cpu, name: F) {
    COLLECTORS.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(col) = slot.last_mut() else { return };
        let seq = col.next_seq;
        col.next_seq += 1;
        let parent_seq = col.stack.last().map(|s| s.seq);
        col.stack.push(OpenSpan {
            name: name(),
            seq,
            parent_seq,
            pmu: cpu.pmu_snapshot(),
            rapl: cpu.rapl(),
            time_s: cpu.time_s(),
            cycles: cpu.cycles(),
            pstate: cpu.pstate(),
            runs: cpu.run_stats(),
            rows: None,
        });
    });
}

/// Attach a row count to the innermost open span (no-op when collection is
/// off or nothing is open). The query executor calls this just before
/// [`exit`] so profiler artifacts can report rows per operator.
pub fn annotate_rows(rows: u64) {
    COLLECTORS.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(col) = slot.last_mut() else { return };
        if let Some(open) = col.stack.last_mut() {
            open.rows = Some(rows);
        }
    });
}

/// Close the innermost open span, recording its simulated-cost delta.
pub fn exit(cpu: &mut Cpu) {
    COLLECTORS.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(col) = slot.last_mut() else { return };
        let Some(open) = col.stack.pop() else {
            metrics::counter_add("trace.unbalanced_exits", 1);
            return;
        };
        let end_seq = col.next_seq;
        col.next_seq += 1;
        let depth = col.stack.len();
        let pmu = cpu.pmu_snapshot().delta(&open.pmu);
        let delta = Measurement {
            pmu,
            rapl: cpu.rapl().delta(&open.rapl),
            time_s: cpu.time_s() - open.time_s,
            cycles: cpu.cycles() - open.cycles,
            pstate: cpu.pstate(),
        };
        col.records.push(SpanRecord {
            name: open.name,
            seq: open.seq,
            end_seq,
            depth,
            parent_seq: open.parent_seq,
            start_s: open.time_s,
            start_cycles: open.cycles,
            start_e_j: open.rapl.total_j(),
            delta,
            rows: open.rows,
            runs: cpu.run_stats() - open.runs,
            forced: false,
        });
    });
}

/// Stop the innermost collector on this thread and return every record,
/// sorted by enter sequence; an enclosing collector (if any) resumes.
/// Spans still open (the shard panicked mid-query) are closed with a
/// zero-cost delta and `forced = true`, so sinks can always rely on
/// balanced records.
pub fn take() -> Vec<SpanRecord> {
    COLLECTORS.with(|c| {
        let Some(mut col) = c.borrow_mut().pop() else {
            return Vec::new();
        };
        while let Some(open) = col.stack.pop() {
            let end_seq = col.next_seq;
            col.next_seq += 1;
            let depth = col.stack.len();
            col.records.push(SpanRecord {
                name: open.name,
                seq: open.seq,
                end_seq,
                depth,
                parent_seq: open.parent_seq,
                start_s: open.time_s,
                start_cycles: open.cycles,
                start_e_j: open.rapl.total_j(),
                delta: Measurement {
                    pmu: PmuSnapshot::zero(),
                    rapl: RaplReading::default(),
                    time_s: 0.0,
                    cycles: 0.0,
                    pstate: open.pstate,
                },
                rows: open.rows,
                runs: RunStats::default(),
                forced: true,
            });
        }
        col.records.sort_by_key(|r| r.seq);
        col.records
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ArchConfig, Dep, ExecOp};

    fn cpu() -> Cpu {
        Cpu::new(ArchConfig::intel_i7_4790())
    }

    #[test]
    fn disabled_is_a_no_op() {
        let mut c = cpu();
        assert!(!enabled());
        enter(&mut c, || unreachable!("name must not be built when off"));
        annotate_rows(3);
        exit(&mut c);
        assert!(take().is_empty());
    }

    #[test]
    fn nested_spans_record_depth_parent_and_cost() {
        let mut c = cpu();
        let buf = c.alloc(4096).unwrap();
        install();
        enter(&mut c, || "outer".into());
        c.exec_n(ExecOp::Add, 10);
        enter(&mut c, || "inner".into());
        for l in 0..8 {
            c.load(buf.addr + l * 64, Dep::Stream);
        }
        annotate_rows(8);
        exit(&mut c);
        c.exec_n(ExecOp::Add, 5);
        exit(&mut c);
        let recs = take();
        assert_eq!(recs.len(), 2);
        let outer = &recs[0];
        let inner = &recs[1];
        assert_eq!((outer.name.as_str(), outer.depth), ("outer", 0));
        assert_eq!((inner.name.as_str(), inner.depth), ("inner", 1));
        assert_eq!(inner.parent_seq, Some(outer.seq));
        assert!(outer.seq < inner.seq && inner.end_seq < outer.end_seq);
        // The child's cost nests inside the parent's.
        assert!(inner.delta.time_s > 0.0);
        assert!(outer.delta.time_s >= inner.delta.time_s);
        assert!(outer.delta.rapl.total_j() >= inner.delta.rapl.total_j());
        assert_eq!(inner.delta.pmu.get(simcore::Event::LoadIssued), 8);
        // Annotations land on the span that was open when they were made.
        assert_eq!(inner.rows, Some(8));
        assert_eq!(outer.rows, None);
        assert!(!outer.forced && !inner.forced);
    }

    #[test]
    fn unbalanced_spans_are_handled() {
        let mut c = cpu();
        install();
        // Exit with nothing open: ignored (counted in a metric).
        exit(&mut c);
        enter(&mut c, || "leaked".into());
        enter(&mut c, || "leaked_child".into());
        // No exits: a panic would unwind here. take() force-closes both.
        let recs = take();
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|r| r.forced));
        assert_eq!(recs[0].name, "leaked");
        assert_eq!(recs[0].depth, 0);
        assert_eq!(recs[1].depth, 1);
        assert_eq!(recs[1].parent_seq, Some(recs[0].seq));
        assert_eq!(recs[0].delta.time_s, 0.0);
        // Sequence endpoints still balance: every end_seq is distinct and
        // greater than its seq.
        assert!(recs.iter().all(|r| r.end_seq > r.seq));
        assert!(!enabled(), "take() uninstalls the collector");
    }

    #[test]
    fn reinstall_resets_sequence_numbers() {
        let mut c = cpu();
        install();
        enter(&mut c, || "a".into());
        exit(&mut c);
        let first = take();
        install();
        enter(&mut c, || "b".into());
        exit(&mut c);
        let second = take();
        assert_eq!(first[0].seq, second[0].seq, "per-shard sequences restart");
    }

    #[test]
    fn collectors_nest_without_clobbering_the_outer_one() {
        let mut c = cpu();
        install(); // outer (e.g. the scheduler's shard trace)
        enter(&mut c, || "outer_work".into());
        c.exec_n(ExecOp::Add, 4);
        exit(&mut c);

        install(); // inner (e.g. EXPLAIN ANALYZE scoping its own query)
        enter(&mut c, || "profiled".into());
        c.exec_n(ExecOp::Add, 4);
        exit(&mut c);
        let inner = take();
        assert_eq!(inner.len(), 1);
        assert_eq!(inner[0].name, "profiled");

        assert!(enabled(), "outer collector resumes after inner take()");
        enter(&mut c, || "outer_again".into());
        exit(&mut c);
        let outer = take();
        let names: Vec<&str> = outer.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["outer_work", "outer_again"]);
        assert!(!enabled());
    }

    #[test]
    fn spans_carry_fast_path_run_deltas() {
        let mut c = cpu();
        let buf = c.alloc(64 * 64).unwrap();
        // Warm the lines so a batched run is available, then span it.
        for l in 0..64 {
            c.load(buf.addr + l * 64, Dep::Stream);
        }
        install();
        enter(&mut c, || "hot_run".into());
        c.access_run(buf.addr, 64, false, Dep::Stream);
        exit(&mut c);
        let recs = take();
        let total = recs[0].runs;
        assert!(
            total.served() + total.fallbacks > 0,
            "span must see the run counters move"
        );
    }
}
