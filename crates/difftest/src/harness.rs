//! The engine variants under differential test, and per-case execution
//! with canonical digests + invariant checks.

use analysis::EnergyTable;
use engines::{Database, DtcmConfig, EngineKind, Knobs, Plan};
use simcore::{ArchConfig, ArchKind, Cpu};
use storage::{Catalog, Row, Value};
use workloads::tpch::gen::build_tpch_db;
use workloads::TpchScale;

use crate::invariants;

/// Tables pinned into the DTCM for the Lite-DTCM variant (the §4.2
/// co-design's hot set — everything, at differential scale).
pub const HOT_TABLES: &[&str] = &[
    "lineitem", "orders", "customer", "part", "partsupp", "supplier", "nation", "region",
];

/// One engine configuration under differential test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// PostgreSQL personality on the i7-4790.
    Pg,
    /// SQLite personality on the i7-4790.
    Lite,
    /// MySQL personality on the i7-4790.
    My,
    /// Vectorized columnar personality on the i7-4790.
    Vec,
    /// SQLite + DTCM co-design on the ARM1176JZF-S.
    LiteDtcm,
}

impl Variant {
    /// All variants, in report order: one per [`EngineKind`] plus the DTCM
    /// co-design (the `variant_per_engine_kind` test pins that coverage).
    pub const ALL: [Variant; EngineKind::COUNT + 1] = [
        Variant::Pg,
        Variant::Lite,
        Variant::My,
        Variant::Vec,
        Variant::LiteDtcm,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Pg => "pg",
            Variant::Lite => "lite",
            Variant::My => "my",
            Variant::Vec => "vec",
            Variant::LiteDtcm => "lite-dtcm",
        }
    }

    /// The engine personality this variant executes with. Exhaustive by
    /// construction: a new [`EngineKind`] without a differential variant
    /// fails the `variant_per_engine_kind` test.
    pub fn kind(self) -> EngineKind {
        match self {
            Variant::Pg => EngineKind::Pg,
            Variant::Lite | Variant::LiteDtcm => EngineKind::Lite,
            Variant::My => EngineKind::My,
            Variant::Vec => EngineKind::Vec,
        }
    }

    /// Simulated architecture the variant runs on.
    pub fn arch(self) -> ArchKind {
        match self {
            Variant::LiteDtcm => ArchKind::Arm,
            _ => ArchKind::X86,
        }
    }
}

/// A built engine variant: simulated CPU + loaded TPC-H database.
pub struct Engine {
    /// Which variant this is.
    pub variant: Variant,
    cpu: Cpu,
    db: Database,
}

/// One case's answer on one engine: sorted canonical row strings
/// ([`canon_rows`]), or the engine's error message.
pub type Digest = Result<Vec<String>, String>;

/// Result of one case on one engine: its [`Digest`] plus any invariant
/// violations observed while running.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Sorted canonical row strings, or the engine's error message.
    pub digest: Digest,
    /// Invariant violations (conservation / fast-path / energy model).
    pub violations: Vec<String>,
}

/// Canonicalize one row for cross-engine comparison. Floats are rounded
/// to 5 decimals — aggregate accumulation order differs across engines,
/// so exact bit equality is deliberately not required (the repo-wide
/// convention).
pub fn canon_row(row: &Row) -> String {
    row.iter()
        .map(|v| match v {
            Value::Float(f) => format!("F{f:.5}"),
            other => format!("{other:?}"),
        })
        .collect::<Vec<_>>()
        .join("|")
}

/// The sorted [`canon_row`]s of `rows`: a result set as a multiset, the
/// form the cross-engine tests compare.
pub fn canon_rows(rows: &[Row]) -> Vec<String> {
    let mut canon: Vec<String> = rows.iter().map(canon_row).collect();
    canon.sort();
    canon
}

impl Engine {
    /// Build a variant at the differential scale. All variants load the
    /// deterministic TPC-H dataset at [`TpchScale::tiny`], so every result
    /// set is directly comparable.
    pub fn build(variant: Variant) -> Engine {
        let scale = TpchScale::tiny();
        let mut cpu = Cpu::new(match variant.arch() {
            ArchKind::X86 => ArchConfig::intel_i7_4790(),
            ArchKind::Arm => ArchConfig::arm1176jzf_s(),
        });
        cpu.set_prefetch(true);
        // The co-design runs the paper's ARM setting: small knobs.
        let dtcm = variant == Variant::LiteDtcm;
        let level = if dtcm {
            engines::KnobLevel::Small
        } else {
            engines::KnobLevel::Baseline
        };
        let mut db = build_tpch_db(&mut cpu, variant.kind(), level, scale).expect("tpch load");
        if dtcm {
            db.knobs = Knobs::arm_small();
            engines::dtcm::configure(&mut cpu, &mut db, HOT_TABLES, DtcmConfig::default())
                .expect("dtcm configure");
        }
        Engine { variant, cpu, db }
    }

    /// The engine's catalog (identical across variants by construction).
    pub fn catalog(&self) -> &Catalog {
        self.db.catalog()
    }

    /// Execute `plan` and return `(estimated, measured)` Active energy for
    /// the window — the raw pair behind the energy-model invariant, used by
    /// reporting and for grounding the invariant bounds.
    pub fn probe_energy(&mut self, plan: &Plan, table: &EnergyTable) -> (f64, f64) {
        let db = &mut self.db;
        let m = self.cpu.measure(|c| {
            let _ = db.session().run(c, plan);
        });
        invariants::energy_pair(table, &m)
    }

    /// Execute `plan`, producing the canonical digest and checking the
    /// energy-accounting invariants over the run's measurement window.
    /// Pass a calibrated `table` for this variant's architecture to also
    /// check the energy-model invariant.
    pub fn run_case(&mut self, plan: &Plan, table: Option<&EnergyTable>) -> CaseOutcome {
        let s0 = self.cpu.run_stats();
        let mut result: Option<storage::Result<Vec<Row>>> = None;
        let db = &mut self.db;
        let m = self.cpu.measure(|c| {
            result = Some(db.session().run(c, plan));
        });
        let d = self.cpu.run_stats() - s0;
        let batched = d.batched_lines + d.replayed_lines;

        let mut violations = invariants::conservation_violations(self.variant.arch(), &m.pmu);
        if let Some(v) = invariants::batched_violation(&m.pmu, batched) {
            violations.push(v);
        }
        if let Some(t) = table {
            if let Some(v) = invariants::energy_violation(t, &m) {
                violations.push(v);
            }
        }

        let digest = match result.expect("measure ran") {
            Ok(rows) => Ok(canon_rows(&rows)),
            Err(e) => Err(format!("{e:?}")),
        };
        CaseOutcome { digest, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_per_engine_kind() {
        // The enum-exhaustiveness contract: every engine personality must
        // be under differential test as a plain-x86 variant. A new
        // `EngineKind` that is not mapped here first fails `Variant::kind`'s
        // exhaustive match, then this coverage check.
        for kind in EngineKind::ALL {
            assert!(
                Variant::ALL
                    .iter()
                    .any(|v| v.kind() == kind && v.arch() == ArchKind::X86),
                "{kind:?} has no x86 differential variant"
            );
        }
        // Names stay unique (report keys).
        let mut names: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Variant::ALL.len());
    }
}
