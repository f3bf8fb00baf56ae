#![warn(missing_docs)]

//! # mjrt — the parallel experiment runtime
//!
//! The paper's evaluation is ~20 experiments (Figs. 1–13, Tables 1–5 plus
//! extensions). Before this crate they ran strictly serially through one-off
//! binaries, each hand-wiring its own `Cpu`, calibration and CSV plumbing.
//! `mjrt` turns them into first-class values:
//!
//! * [`Experiment`] — a named, registrable experiment that renders a
//!   [`Report`]. Experiments may expose several independent **shards**
//!   (engine × operating-point cells); each shard builds its own simulated
//!   machine, so the single-threaded simulator is never shared and a
//!   shard's output is byte-identical no matter which worker runs it.
//! * [`scheduler::run_suite`] — a thread-pool scheduler that farms shards
//!   out to `--jobs` workers over a shared work queue and assembles each
//!   experiment's report **in registry order**, so the report stream is
//!   byte-identical between `--jobs 1` and `--jobs N`. An experiment whose
//!   shard panics, or whose report is marked failed ([`Report::fail`], as
//!   the differential harness does on any disagreement), fails the run.
//! * [`CalibrationCache`] — a once-per-(arch, P-state) energy-table cache
//!   shared by all workers, so parallel experiments never repeat the
//!   expensive `calibrate_at` runs.
//! * [`HarnessConfig`] — one typed configuration parsed once from CLI
//!   flags, the harness's only input channel.
//!
//! The runtime is instrumented with the `mjobs` observability crate:
//! `--trace` collects energy-attributed spans around every shard and writes
//! `trace.jsonl` + `trace.json` (Chrome `trace_event`, where span widths
//! are *joules*) into the run directory; `--metrics` reports scheduler and
//! calibration-cache metrics (queue waits, shard host times, panics, worker
//! utilization, cache hits/misses) on the summary stream and as
//! `metrics.json`. Both are off by default and neither ever changes the
//! report stream — `tests/determinism.rs` asserts it byte-for-byte.
//!
//! The experiment implementations themselves live in the `bench` crate
//! (`bench::experiments`); this crate only knows about `simcore` (machines)
//! and `analysis` (calibration + tables), so any workload crate can define
//! experiments without cycles.

pub mod cal;
pub mod config;
pub mod experiment;
pub mod scheduler;

pub use cal::CalibrationCache;
pub use config::HarnessConfig;
pub use experiment::{ExpCtx, Experiment, Report, SimStats, StatsSink};
pub use scheduler::{run_suite, ExpOutcome, SuiteOutcome};
