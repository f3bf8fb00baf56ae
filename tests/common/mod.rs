//! Bit-equality assertions shared by the fast-path equivalence tests.

use simcore::{Measurement, TimelineSample};

/// Bitwise equality of two measurement windows: counters are integers,
/// meters, time and cycles must match to the bit, and the window must end
/// at the same P-state.
pub fn assert_identical(a: &Measurement, b: &Measurement, what: &str) {
    assert_eq!(a.pmu, b.pmu, "{what}: PMU counters diverged");
    assert_eq!(a.pstate, b.pstate, "{what}: P-state diverged");
    for (name, x, y) in [
        ("core_j", a.rapl.core_j, b.rapl.core_j),
        ("package_j", a.rapl.package_j, b.rapl.package_j),
        ("memory_j", a.rapl.memory_j, b.rapl.memory_j),
        ("time_s", a.time_s, b.time_s),
        ("cycles", a.cycles, b.cycles),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: {name} diverged ({x} vs {y})"
        );
    }
}

/// Bitwise equality of two timelines: every sample's time, P-state,
/// utilization and cumulative RAPL reading.
pub fn assert_same_samples(a: &[TimelineSample], b: &[TimelineSample], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: sample count diverged");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.pstate, y.pstate, "{what}: sample {i} P-state diverged");
        for (name, p, q) in [
            ("t_s", x.t_s, y.t_s),
            ("utilization", x.utilization, y.utilization),
            ("core_j", x.rapl.core_j, y.rapl.core_j),
            ("package_j", x.rapl.package_j, y.rapl.package_j),
            ("memory_j", x.rapl.memory_j, y.rapl.memory_j),
        ] {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}: sample {i} {name} diverged ({p} vs {q})"
            );
        }
    }
}
