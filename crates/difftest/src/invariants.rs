//! Energy-accounting invariants checked on every differential case.
//!
//! Three families, all derived from how the simulated hierarchy issues PMU
//! events (see `simcore::hierarchy` and DESIGN.md §9):
//!
//! 1. **Conservation**: demand accesses telescope down the hierarchy —
//!    every issued load/store hits or misses L1D; every L1D miss is
//!    serviced by exactly one lower level.
//! 2. **Fast-path reconciliation**: lines charged through the batched
//!    fast path are L1/TCM hits by construction, so the batched-line
//!    counter can never exceed the window's L1/TCM hit counts.
//! 3. **Energy model**: the solved table's `Σ ΔE_m·N_m` estimate must sit
//!    inside a bounded-residual band of measured Active energy — below it
//!    by at most the `E_other` remainder the paper itself reports for
//!    query workloads (§3), and never meaningfully above it.

use analysis::active::active_energy;
use analysis::{EnergyTable, MicroOpCounts};
use simcore::{ArchKind, Event, Measurement, PmuSnapshot};

/// Lower bound on `Ê_active / E_active` for a query window. The model's
/// movement + add/nop sum deliberately excludes `E_other` (calculation,
/// L1I, TLB — §3's unisolated remainder), so it *undershoots* on real
/// queries: the paper reports data movement alone is 55–76.4 % of Active
/// for query workloads. An estimate below this floor means micro-ops went
/// missing, not that `E_other` grew.
pub const MIN_ENERGY_RATIO: f64 = 0.35;

/// Upper bound on `Ê_active / E_active`. The solved `ΔE_m` attribute
/// measured energy to micro-ops; the sum claiming (much) more energy than
/// the window actually drew is an accounting violation, not residual.
/// Slight overshoot is honest solver noise (same tolerance family as the
/// §2.5.5 verification band).
pub const MAX_ENERGY_RATIO: f64 = 1.25;

/// Active-energy floor below which the relative check is meaningless:
/// tiny windows (a handful of rows) are dominated by background-credit
/// granularity, and empirically drift to ~1.5× on sub-microjoule runs
/// while every ≥ 0.1 mJ window sits comfortably in band.
pub const MIN_ACTIVE_J: f64 = 5e-5;

/// PMU conservation equalities for a measurement window on `kind`.
/// Returns one message per violated relation (empty = conserved).
pub fn conservation_violations(kind: ArchKind, p: &PmuSnapshot) -> Vec<String> {
    let g = |e: Event| p.get(e);
    let mut out = Vec::new();
    let mut eq = |label: &str, lhs: u64, rhs: u64| {
        if lhs != rhs {
            out.push(format!("{label}: {lhs} != {rhs}"));
        }
    };

    eq(
        "LoadIssued == L1dLoadHit + L1dLoadMiss",
        g(Event::LoadIssued),
        g(Event::L1dLoadHit) + g(Event::L1dLoadMiss),
    );
    eq(
        "StoreIssued == L1dStoreHit + L1dStoreMiss",
        g(Event::StoreIssued),
        g(Event::L1dStoreHit) + g(Event::L1dStoreMiss),
    );
    match kind {
        ArchKind::X86 => {
            // Every L1D miss (demand load or write-allocate) is an L2
            // access; every L2 miss is an L3 access.
            eq(
                "L2Hit + L2Miss == L1dLoadMiss + L1dStoreMiss",
                g(Event::L2Hit) + g(Event::L2Miss),
                g(Event::L1dLoadMiss) + g(Event::L1dStoreMiss),
            );
            eq(
                "L3Hit + L3Miss == L2Miss",
                g(Event::L3Hit) + g(Event::L3Miss),
                g(Event::L2Miss),
            );
        }
        ArchKind::Arm => {
            // No L2/L3: every L1D miss goes straight to memory.
            eq(
                "L3Miss == L1dLoadMiss + L1dStoreMiss (ARM)",
                g(Event::L3Miss),
                g(Event::L1dLoadMiss) + g(Event::L1dStoreMiss),
            );
            eq("L2Hit == 0 (ARM)", g(Event::L2Hit), 0);
            eq("L2Miss == 0 (ARM)", g(Event::L2Miss), 0);
            eq("L3Hit == 0 (ARM)", g(Event::L3Hit), 0);
        }
    }
    out
}

/// Batched fast-path lines must reconcile with the scalar hit counters:
/// each hot-batched or replayed line was charged as an L1/TCM hit, so the
/// window's `batched_lines + replayed_lines` is bounded by its L1/TCM hit
/// counts. (Cold-batched lines are charged as misses and are exempt.)
pub fn batched_violation(p: &PmuSnapshot, batched_lines: u64) -> Option<String> {
    let hits = p.get(Event::L1dLoadHit)
        + p.get(Event::L1dStoreHit)
        + p.get(Event::TcmLoad)
        + p.get(Event::TcmStore);
    (batched_lines > hits)
        .then(|| format!("batched fast-path lines ({batched_lines}) exceed L1/TCM hits ({hits})"))
}

/// `(estimated, measured)` Active energy for a measurement window: the
/// Eq. 1 estimate `Σ ΔE_m·N_m + ΔE_add·N_add + ΔE_nop·N_nop` against the
/// §2.6 Busy-minus-Background measurement.
pub fn energy_pair(table: &EnergyTable, m: &Measurement) -> (f64, f64) {
    let counts = MicroOpCounts::from_pmu(&m.pmu);
    let estimated = table.estimate_active_j(&counts);
    let measured = active_energy(m, &table.background).active_j;
    (estimated, measured)
}

/// Energy-model invariant: the Eq. 1 estimate must sit inside the
/// bounded-residual band `[MIN_ENERGY_RATIO, MAX_ENERGY_RATIO] · Eactive`.
/// The gap below 1.0 is `E_other` (expected, §3); dropping under the floor
/// means counted micro-ops vanished, and overshooting the ceiling means the
/// table attributes more energy than the window drew. `None` when the
/// estimate is in band (or the window is too small to judge).
pub fn energy_violation(table: &EnergyTable, m: &Measurement) -> Option<String> {
    let (estimated, measured) = energy_pair(table, m);
    if measured < MIN_ACTIVE_J {
        return None;
    }
    let ratio = estimated / measured;
    (!(MIN_ENERGY_RATIO..=MAX_ENERGY_RATIO).contains(&ratio)).then(|| {
        format!(
            "energy model out of band: estimated {estimated:.6} J vs measured \
             {measured:.6} J (ratio {ratio:.3} outside \
             [{MIN_ENERGY_RATIO}, {MAX_ENERGY_RATIO}])"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ArchConfig, Cpu, Dep};

    #[test]
    fn random_access_mix_is_conserved_on_both_archs() {
        for (arch, kind) in [
            (ArchConfig::intel_i7_4790(), ArchKind::X86),
            (ArchConfig::arm1176jzf_s(), ArchKind::Arm),
        ] {
            let mut cpu = Cpu::new(arch);
            cpu.set_prefetch(true);
            let r = cpu.alloc(1 << 20).unwrap();
            let m = cpu.measure(|c| {
                let mut addr = r.addr;
                for i in 0..20_000u64 {
                    addr =
                        r.addr + (addr.wrapping_mul(2862933555777941757).wrapping_add(i)) % r.len;
                    if i % 3 == 0 {
                        c.store(addr);
                    } else {
                        c.load(addr, Dep::Stream);
                    }
                }
            });
            let v = conservation_violations(kind, &m.pmu);
            assert!(v.is_empty(), "{kind:?}: {v:?}");
        }
    }

    #[test]
    fn batched_runs_reconcile_with_hit_counters() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let r = cpu.alloc(32 * 1024).unwrap();
        let s0 = cpu.run_stats();
        let m = cpu.measure(|c| {
            // Warm then stream: the second pass is all batched L1 hits.
            c.access_run(r.addr, 64, false, Dep::Stream);
            c.access_run(r.addr, 64, false, Dep::Stream);
        });
        let d = cpu.run_stats() - s0;
        let hot = d.batched_lines + d.replayed_lines;
        assert!(batched_violation(&m.pmu, hot).is_none());
        // And the bound is real: claiming more batched lines than hits fires.
        assert!(batched_violation(&m.pmu, m.pmu.get(Event::LoadIssued) + 1).is_some());
    }
}
