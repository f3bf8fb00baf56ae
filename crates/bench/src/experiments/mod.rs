//! The experiment registry: every paper table/figure (and extension) as an
//! [`mjrt::Experiment`].
//!
//! [`REGISTRY`] is the single source of truth for the suite: `repro_all`
//! runs it end to end through the `mjrt` scheduler (`--filter` selects
//! experiments by name), and the report stream is emitted in exactly this
//! order regardless of `--jobs`.

pub mod arm;
pub mod difftest;
pub mod energy;
pub mod kernels;
pub mod micro;
pub mod nosql_ext;
pub mod rowcol;
pub mod sec5;
pub mod serve_oltp;
pub mod tpch;
pub mod writes;

use mjrt::Experiment;

/// Every experiment in suite (report) order — the x86 experiments first,
/// then the 2 ARM/DTCM ones (matching the historical `repro_all` order),
/// then the cross-variant differential harness.
pub static REGISTRY: &[&dyn Experiment] = &[
    &energy::Fig01EnergyTimeline,
    &micro::Fig03Traversal,
    &micro::Fig04Structures,
    &micro::Table1Behaviour,
    &energy::Table2MicroOpEnergy,
    &energy::Table3Verification,
    &tpch::Fig05PstateDistribution,
    &tpch::Fig06BasicOps,
    &tpch::Fig07Tpch,
    &tpch::Fig08DataSize,
    &tpch::Fig09Knobs,
    &kernels::Fig10Cpu2006,
    &tpch::Fig11Pstates,
    &kernels::Table5MemoryBound,
    &sec5::Sec5DvfsTradeoff,
    &writes::ExtWrites,
    &sec5::ExtCustomDvfs,
    &nosql_ext::FutureNosql,
    &serve_oltp::ServeOltp,
    &rowcol::ExtRowCol,
    &arm::Fig13DtcmPoc,
    &arm::AblationDtcm,
    &difftest::Difftest,
];

/// Look an experiment up by its exact registered name.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY.iter().copied().find(|e| e.name() == name)
}
