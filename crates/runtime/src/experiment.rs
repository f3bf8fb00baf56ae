//! The [`Experiment`] trait, shard context, and report types.
//!
//! An experiment is a named unit of the reproduction suite (one paper
//! figure/table or extension). It declares how many independent **shards**
//! it splits into — typically one per engine × operating-point cell — and
//! renders its output as a [`Report`] so the scheduler, not the experiment,
//! owns stdout. Shard outputs are passed to [`Experiment::assemble`] as
//! `Box<dyn Any>` values, letting each experiment carry whatever
//! intermediate type it likes (rendered text, table rows, summary numbers)
//! without the runtime knowing the shape.

use std::any::Any;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, Mutex};

use analysis::report::TextTable;
use analysis::EnergyTable;
use simcore::{ArchKind, Measurement, PState};

use crate::cal::CalibrationCache;
use crate::config::HarnessConfig;

/// A shard's (and ultimately an experiment's) rendered output.
///
/// Implements [`fmt::Write`], so experiment code ports from `println!` to
/// `writeln!(report, ..)` mechanically. A report can also carry a failure
/// ([`Report::fail`]): the scheduler still streams its text, then fails the
/// experiment exactly as if a shard had panicked.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// The rendered text, exactly as it will appear on the report stream.
    pub text: String,
    failure: Option<String>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Mark the experiment failed because of `why` (a check it runs did not
    /// hold). The first failure recorded wins.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failure.get_or_insert_with(|| why.into());
    }

    /// Why the experiment failed, if [`Report::fail`] was called.
    pub fn failure(&self) -> Option<&str> {
        self.failure.as_deref()
    }

    /// Append another report's text, keeping its failure if this report has
    /// none yet.
    pub fn append(&mut self, other: &Report) {
        self.text.push_str(&other.text);
        if self.failure.is_none() {
            self.failure = other.failure.clone();
        }
    }
}

impl fmt::Write for Report {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

/// Simulated-cost counters accumulated per shard (via [`ExpCtx::record`])
/// and summed per experiment.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimStats {
    /// Measurement windows recorded.
    pub measurements: u64,
    /// Simulated seconds across recorded windows.
    pub time_s: f64,
    /// Simulated cycles across recorded windows.
    pub cycles: f64,
    /// Simulated joules (all RAPL domains) across recorded windows.
    pub energy_j: f64,
}

impl SimStats {
    /// Add one measurement window.
    pub fn add(&mut self, m: &Measurement) {
        self.measurements += 1;
        self.time_s += m.time_s;
        self.cycles += m.cycles;
        self.energy_j += m.rapl.total_j();
    }

    /// Add another accumulator's totals.
    pub fn merge(&mut self, other: &SimStats) {
        self.measurements += other.measurements;
        self.time_s += other.time_s;
        self.cycles += other.cycles;
        self.energy_j += other.energy_j;
    }
}

/// A shard's stats accumulator (rigs that record their own measurements
/// hold clones). The scheduler gives every shard a fresh one and sums them
/// in shard order, so an experiment's f64 totals do not depend on which
/// shard finished first.
pub type StatsSink = Arc<Mutex<SimStats>>;

/// Everything a shard needs: the harness config, the shared calibration
/// cache, the shard's stats sink and the per-run CSV directory.
pub struct ExpCtx<'a> {
    /// The run's typed configuration.
    pub cfg: &'a HarnessConfig,
    cal: &'a CalibrationCache,
    stats: StatsSink,
    csv_dir: Option<&'a Path>,
}

impl<'a> ExpCtx<'a> {
    /// Build a context (normally done by the scheduler).
    pub fn new(
        cfg: &'a HarnessConfig,
        cal: &'a CalibrationCache,
        stats: StatsSink,
        csv_dir: Option<&'a Path>,
    ) -> ExpCtx<'a> {
        ExpCtx {
            cfg,
            cal,
            stats,
            csv_dir,
        }
    }

    /// The shared energy table for `(arch, ps)` — calibrated once per run.
    pub fn table(&self, arch: ArchKind, ps: PState) -> Arc<EnergyTable> {
        self.cal.table(arch, ps, self.cfg.cal_ops)
    }

    /// The i7-4790 table at `ps` (the common case).
    pub fn table_x86(&self, ps: PState) -> Arc<EnergyTable> {
        self.table(ArchKind::X86, ps)
    }

    /// Record a measurement window into the shard's stats.
    pub fn record(&self, m: &Measurement) {
        self.stats.lock().expect("stats sink poisoned").add(m);
    }

    /// Clone of the stats sink, for plumbing into rigs.
    pub fn stats_sink(&self) -> StatsSink {
        Arc::clone(&self.stats)
    }

    /// When CSV output is enabled, write `table` to `<run dir>/<name>.csv`.
    ///
    /// The run directory was created once by the scheduler before any worker
    /// started, so concurrent experiments cannot race on directory creation
    /// or clobber a previous run's files.
    pub fn maybe_write_csv(&self, name: &str, table: &TextTable) {
        let Some(dir) = self.csv_dir else { return };
        let path = dir.join(format!("{name}.csv"));
        if let Err(e) = std::fs::write(&path, table.to_csv()) {
            eprintln!("csv: cannot write {}: {e}", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }
}

/// A registrable experiment.
///
/// Implementations must be stateless (`&self` methods, `Sync`): all run
/// state lives in the shard bodies, so shards can execute on any worker in
/// any order and still produce identical bytes.
pub trait Experiment: Sync {
    /// Stable name (the old binary name, e.g. `"fig07_tpch"`).
    fn name(&self) -> &'static str;

    /// Architecture the experiment models.
    fn arch(&self) -> ArchKind {
        ArchKind::X86
    }

    /// Primary operating point (informational; shards pin their own).
    fn pstate(&self) -> PState {
        PState::P36
    }

    /// Number of independent shards at this configuration. Shard indices
    /// `0..shards()` are scheduled in parallel; each must be independent.
    fn shards(&self, _cfg: &HarnessConfig) -> usize {
        1
    }

    /// Run one shard. The returned value is opaque to the runtime and is
    /// handed back to [`Experiment::assemble`] in shard order.
    fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send>;

    /// Combine shard outputs (in shard order) into the experiment's report.
    ///
    /// The default expects each shard to have returned a [`Report`] and
    /// concatenates them — right for experiments whose shards emit disjoint,
    /// ordered sections. Experiments that interleave shard rows into one
    /// table override this.
    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, _ctx: &ExpCtx<'_>) -> Report {
        let mut out = Report::new();
        for (i, s) in shards.into_iter().enumerate() {
            let r = s
                .downcast::<Report>()
                .unwrap_or_else(|_| panic!("{}: shard {i} did not return a Report", self.name()));
            out.append(&r);
        }
        out
    }
}

/// Downcast helper for [`Experiment::assemble`] implementations.
pub fn downcast_shard<T: 'static>(name: &str, idx: usize, shard: Box<dyn Any + Send>) -> T {
    *shard
        .downcast::<T>()
        .unwrap_or_else(|_| panic!("{name}: shard {idx} returned an unexpected type"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    struct TwoShards;

    impl Experiment for TwoShards {
        fn name(&self) -> &'static str {
            "two_shards"
        }
        fn shards(&self, _cfg: &HarnessConfig) -> usize {
            2
        }
        fn run_shard(&self, shard: usize, _ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
            let mut r = Report::new();
            writeln!(r, "shard {shard}").unwrap();
            Box::new(r)
        }
    }

    #[test]
    fn default_assemble_concatenates_in_shard_order() {
        let cfg = HarnessConfig::default();
        let cal = CalibrationCache::new();
        let ctx = ExpCtx::new(&cfg, &cal, StatsSink::default(), None);
        let e = TwoShards;
        let outs: Vec<Box<dyn Any + Send>> = (0..2).map(|s| e.run_shard(s, &ctx)).collect();
        assert_eq!(e.assemble(outs, &ctx).text, "shard 0\nshard 1\n");
    }

    #[test]
    fn append_keeps_the_first_failure() {
        let mut r = Report::new();
        writeln!(r, "a").unwrap();
        assert_eq!(r.failure(), None);
        let mut bad = Report::new();
        writeln!(bad, "b").unwrap();
        bad.fail("first");
        r.append(&bad);
        let mut worse = Report::new();
        writeln!(worse, "c").unwrap();
        worse.fail("second");
        r.append(&worse);
        assert_eq!(r.text, "a\nb\nc\n");
        assert_eq!(r.failure(), Some("first"));
    }

    #[test]
    fn stats_accumulate_through_ctx() {
        let cfg = HarnessConfig::default();
        let cal = CalibrationCache::new();
        let ctx = ExpCtx::new(&cfg, &cal, StatsSink::default(), None);
        let mut cpu = simcore::Cpu::new(simcore::ArchConfig::intel_i7_4790());
        let m = cpu.measure(|c| {
            c.exec_n(simcore::ExecOp::Add, 100);
        });
        ctx.record(&m);
        let s = *ctx.stats_sink().lock().unwrap();
        assert_eq!(s.measurements, 1);
        assert!(s.time_s > 0.0 && s.energy_j > 0.0);
    }
}
