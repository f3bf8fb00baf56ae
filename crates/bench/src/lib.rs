//! # bench — the experiment harness
//!
//! Every table and figure in the paper is regenerated by an
//! [`mjrt::Experiment`] registered in [`experiments::REGISTRY`] (see
//! DESIGN.md §4 for the experiment index). The `repro_all` binary drives the
//! whole registry through the `mjrt` scheduler (`--jobs N` workers,
//! `--filter SUBSTR` selection; `repro_all --filter <name>` runs one
//! experiment).
//!
//! The simulator is deterministic, so one warm measured run replaces the
//! paper's 100 averaged runs; result display is disabled exactly as the
//! paper disables it (results are counted, never printed per-row).

use analysis::{Breakdown, EnergyTable};
use engines::{Database, EngineKind, KnobLevel, Knobs, Plan};
use mjrt::StatsSink;
use simcore::{ArchConfig, ArchKind, Cpu, Measurement, PState};
use storage::Row;
use workloads::{build_tpch_db, TpchScale};

pub mod experiments;

/// A loaded engine + machine pair ready to profile plans.
pub struct Rig {
    /// The simulated machine.
    pub cpu: Cpu,
    /// The loaded database.
    pub db: Database,
    stats: Option<StatsSink>,
}

/// Builder for a [`Rig`]: knobs, scale, operating point and architecture,
/// each defaulting to the paper's trunk configuration (§3: x86, baseline
/// knobs/scale, P-state pinned). The prefetcher stays on, as in the trunk.
#[derive(Clone)]
pub struct RigBuilder {
    engine: EngineKind,
    level: KnobLevel,
    scale: TpchScale,
    ps: Option<PState>,
    arch: ArchKind,
    raw_knobs: Option<Knobs>,
    stats: Option<StatsSink>,
}

impl Rig {
    /// Start building a rig for `engine`.
    pub fn builder(engine: EngineKind) -> RigBuilder {
        RigBuilder {
            engine,
            level: KnobLevel::Baseline,
            scale: TpchScale::baseline(),
            ps: None,
            arch: ArchKind::X86,
            raw_knobs: None,
            stats: None,
        }
    }

    /// Run `plan` once to warm caches/pool, then measure one run; returns
    /// the measurement and the measured run's rows.
    pub fn profile(&mut self, plan: &Plan) -> (Measurement, Vec<Row>) {
        self.db
            .session()
            .run(&mut self.cpu, plan)
            .expect("warm run");
        let db = &mut self.db;
        let mut rows = Vec::new();
        let m = self.cpu.measure(|c| {
            rows = db.session().run(c, plan).expect("measured run");
        });
        if let Some(s) = &self.stats {
            s.lock().expect("stats sink poisoned").add(&m);
        }
        (m, rows)
    }

    /// Profile and break down against a calibration table.
    pub fn breakdown(&mut self, table: &EnergyTable, plan: &Plan) -> Breakdown {
        let (m, _) = self.profile(plan);
        table.breakdown(&m)
    }
}

impl RigBuilder {
    /// Knob level (Table 4 small / baseline / large).
    pub fn knobs(mut self, level: KnobLevel) -> RigBuilder {
        self.level = level;
        self
    }

    /// TPC-H scale in "paper megabytes".
    pub fn scale(mut self, scale: TpchScale) -> RigBuilder {
        self.scale = scale;
        self
    }

    /// Pin the CPU at `ps` (EIST off). When never called, the machine keeps
    /// its architecture default (the ARM rigs rely on this).
    pub fn pstate(mut self, ps: PState) -> RigBuilder {
        self.ps = Some(ps);
        self
    }

    /// Target architecture (i7-4790 or ARM1176JZF-S).
    pub fn arch(mut self, arch: ArchKind) -> RigBuilder {
        self.arch = arch;
        self
    }

    /// Override the loaded database's knobs with an exact [`Knobs`] struct
    /// (the ARM experiments use `Knobs::arm_small()`).
    pub fn raw_knobs(mut self, knobs: Knobs) -> RigBuilder {
        self.raw_knobs = Some(knobs);
        self
    }

    /// Record every [`Rig::profile`] measurement into `sink` (the runtime's
    /// per-experiment stats).
    pub fn stats(mut self, sink: StatsSink) -> RigBuilder {
        self.stats = Some(sink);
        self
    }

    /// Build the machine and load TPC-H into it.
    pub fn build(self) -> Rig {
        let cfg = match self.arch {
            ArchKind::X86 => ArchConfig::intel_i7_4790(),
            ArchKind::Arm => ArchConfig::arm1176jzf_s(),
        };
        let mut cpu = Cpu::new(cfg);
        if let Some(ps) = self.ps {
            cpu.set_governor(false);
            cpu.set_pstate(ps);
        }
        let mut db =
            build_tpch_db(&mut cpu, self.engine, self.level, self.scale).expect("load TPC-H");
        if let Some(knobs) = self.raw_knobs {
            db.knobs = knobs;
        }
        Rig {
            cpu,
            db,
            stats: self.stats,
        }
    }
}

/// Format a share row: name + 8 percentages.
pub fn share_row(name: &str, bd: &Breakdown) -> Vec<String> {
    let mut cells = vec![name.to_owned()];
    cells.extend(analysis::report::share_cells(bd));
    cells
}

/// Standard table header for breakdown tables.
pub fn share_header() -> Vec<String> {
    let mut h = vec!["workload".to_owned()];
    h.extend(
        analysis::report::SHARE_HEADERS
            .iter()
            .map(|s| s.to_string()),
    );
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_row_has_header_arity() {
        // Header has 9 columns: workload + 8 shares.
        assert_eq!(share_header().len(), 9);
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        // Counts derive from the registry itself — a hardcoded total here
        // went stale every time an experiment was added.
        let total = experiments::REGISTRY.len();
        let mut names: Vec<&str> = experiments::REGISTRY.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), total);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate experiment names");
        assert!(experiments::find("fig07_tpch").is_some());
        assert!(experiments::find("ext_rowcol").is_some());
        assert!(experiments::find("no_such_experiment").is_none());
    }
}
