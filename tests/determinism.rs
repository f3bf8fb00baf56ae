//! The scheduler's central guarantee: the report stream on the report
//! writer is byte-identical between `--jobs 1` and `--jobs 4`, because
//! every shard owns its own simulated machine and the aggregator emits in
//! registry order. This drives a real 3-experiment subset of the suite
//! (single-shard, multi-shard-merging and calibration-sharing shapes). The
//! per-experiment `exp.<name>.sim_*` gauges are bit-identical too: every
//! shard records into its own stats, summed in shard order.
//!
//! The same subset also pins down the `mjobs` tracing guarantees: enabling
//! `--trace` must not change a byte of the report stream, and the trace
//! files themselves must be `--jobs`-independent once the explicitly
//! host-scoped (`host_`-prefixed) fields are stripped.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use mjrt::{run_suite, Experiment, HarnessConfig};

/// The suite publishes process-global metrics (including the simcore
/// fast-path totals, drained at suite start); run the suites one at a time
/// so no test observes another's counts.
fn seq() -> MutexGuard<'static, ()> {
    static SEQ: Mutex<()> = Mutex::new(());
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

fn subset() -> Vec<&'static dyn Experiment> {
    // fig01 drives a real TPC-H plan through the engine executor, so with
    // tracing on its shard contributes per-operator energy spans.
    [
        "fig01_energy_timeline",
        "fig03_traversal",
        "fig04_structures",
        "table5_memory_bound",
    ]
    .iter()
    .map(|n| bench::experiments::find(n).expect("registered experiment"))
    .collect()
}

fn run(jobs: usize, trace_dir: Option<PathBuf>) -> String {
    let cfg = HarnessConfig {
        jobs,
        cal_ops: 4_000, // quick calibration — identical for both runs
        csv: false,
        trace: trace_dir.is_some(),
        trace_dir,
        ..HarnessConfig::default()
    };
    let reg = subset();
    let mut out = Vec::new();
    let mut summary = Vec::new();
    let outcome = run_suite(&reg, &cfg, &mut out, &mut summary).expect("io");
    assert!(
        outcome.failures().is_empty(),
        "failures: {:?}",
        outcome.failures()
    );
    // Table 5 shares P36/P24/P12 tables through the calibration cache.
    assert_eq!(outcome.calibrations, 3);
    String::from_utf8(out).expect("reports are UTF-8")
}

/// The `exp.<name>.sim_*` gauges the last suite published, as bit patterns.
fn sim_gauges() -> Vec<(String, u64)> {
    mjobs::metrics::global()
        .snapshot()
        .into_iter()
        .filter_map(|(name, m)| match m {
            mjobs::metrics::Metric::Gauge(v)
                if name.starts_with("exp.") && name.contains(".sim_") =>
            {
                Some((name, v.to_bits()))
            }
            _ => None,
        })
        .collect()
}

#[test]
fn parallel_report_stream_is_byte_identical_to_serial() {
    let _guard = seq();
    mjobs::metrics::global().clear();
    let serial = run(1, None);
    let serial_sim = sim_gauges();
    mjobs::metrics::global().clear();
    let parallel = run(4, None);
    let parallel_sim = sim_gauges();
    assert_eq!(serial, parallel, "report stream must not depend on --jobs");

    // The simulated-cost gauges must not depend on the order in which
    // shards finish. Table 5's three shards all record measurements.
    assert_eq!(serial_sim.len(), 3 * subset().len(), "{serial_sim:?}");
    assert_eq!(
        serial_sim, parallel_sim,
        "exp.*.sim_* gauges must be bit-identical across --jobs"
    );
    let table5_j = serial_sim
        .iter()
        .find(|(n, _)| n == "exp.table5_memory_bound.sim_j")
        .map(|&(_, bits)| f64::from_bits(bits))
        .expect("table5 sim_j published");
    assert!(table5_j > 0.0, "table5's shards must record energy");

    // Sanity: all three experiments actually reported, in registry order.
    let i1 = serial.find("# fig03_traversal").expect("fig03 banner");
    let i2 = serial.find("# fig04_structures").expect("fig04 banner");
    let i3 = serial.find("# table5_memory_bound").expect("table5 banner");
    assert!(i1 < i2 && i2 < i3);
    assert!(serial.contains("== Table 5: energy bottleneck of B_mem across P-states =="));
}

/// Drop the host-scoped (wall-clock) fields from a JSONL trace. Only the
/// `run` and `shard` header lines carry them; span lines are pure simulated
/// time/cycles/energy and must survive untouched.
fn strip_host_fields(jsonl: &str) -> String {
    let mut out = String::new();
    for line in jsonl.lines() {
        let mut keep = line;
        let mut owned;
        if let Some(i) = line.find(", \"host_") {
            owned = line[..i].to_owned();
            owned.push('}');
            keep = &owned;
        }
        out.push_str(keep);
        out.push('\n');
    }
    out
}

#[test]
fn tracing_changes_nothing_and_traces_are_jobs_independent() {
    let _guard = seq();
    let base = std::env::temp_dir().join(format!("mj-determinism-{}", std::process::id()));
    let dir1 = base.join("j1");
    let dir4 = base.join("j4");
    let _ = std::fs::remove_dir_all(&base);

    let baseline = run(1, None);
    let traced1 = run(1, Some(dir1.clone()));
    let traced4 = run(4, Some(dir4.clone()));

    // (a) Enabling tracing must not change a byte of the report stream.
    assert_eq!(baseline, traced1, "--trace must not change the report");
    assert_eq!(baseline, traced4, "--trace must not change the report");

    // (b) Trace content is --jobs-independent after stripping host fields.
    let jsonl1 = std::fs::read_to_string(dir1.join("trace.jsonl")).expect("j1 trace.jsonl");
    let jsonl4 = std::fs::read_to_string(dir4.join("trace.jsonl")).expect("j4 trace.jsonl");
    assert_ne!(jsonl1, jsonl4, "host_* fields should differ between runs");
    let stripped1 = strip_host_fields(&jsonl1);
    let stripped4 = strip_host_fields(&jsonl4);
    // The `run` header's `jobs` field legitimately differs; drop it too.
    let dejob = |s: &str| s.replacen("\"jobs\": 4", "\"jobs\": 1", 1);
    assert_eq!(
        dejob(&stripped1),
        dejob(&stripped4),
        "simulated trace content must not depend on --jobs"
    );
    // Stripping really removed the host fields and nothing else.
    assert!(!stripped1.contains("host_"));
    assert!(stripped1.contains("\"type\": \"exit\""));

    // The Chrome trace has no host fields at all: byte-identical.
    let chrome1 = std::fs::read_to_string(dir1.join("trace.json")).expect("j1 trace.json");
    let chrome4 = std::fs::read_to_string(dir4.join("trace.json")).expect("j4 trace.json");
    assert_eq!(chrome1, chrome4, "chrome trace must not depend on --jobs");

    // The mjprof rollups are pure functions of the simulated meters:
    // byte-identical, non-trivial, and internally consistent.
    let folded1 = std::fs::read_to_string(dir1.join("flame.folded")).expect("j1 flame.folded");
    let folded4 = std::fs::read_to_string(dir4.join("flame.folded")).expect("j4 flame.folded");
    assert_eq!(folded1, folded4, "flamegraph must not depend on --jobs");
    assert!(folded1.lines().count() > 0, "fig01 spans must fold");
    for line in folded1.lines() {
        let (stack, nj) = mjprof::parse_folded(line).expect("folded line");
        assert!(nj > 0, "zero-weight stack {stack:?}");
    }

    let prof1 = std::fs::read_to_string(dir1.join("profile.json")).expect("j1 profile.json");
    let prof4 = std::fs::read_to_string(dir4.join("profile.json")).expect("j4 profile.json");
    assert_eq!(prof1, prof4, "profile must not depend on --jobs");
    let parsed = mjprof::parse_profile(&prof1).expect("profile parses");
    assert_eq!(parsed.format, mjprof::PROFILE_FORMAT as u64);
    let fig01 = parsed
        .experiments
        .iter()
        .find(|(n, _)| n == "fig01_energy_timeline")
        .expect("fig01 profiled");
    let shard = &fig01.1[0];
    assert!(shard.error.is_none());
    assert!(shard.total_j > 0.0);
    assert!(
        (shard.self_sum_j - shard.total_j).abs() <= 1e-9 * shard.total_j,
        "exclusive energies must telescope to the root RAPL delta"
    );

    let _ = std::fs::remove_dir_all(&base);
}

/// The batched-access fast path publishes `simcore.run_batched_lines` /
/// `simcore.run_cold_batched_lines` / `simcore.run_replayed_lines` (always
/// 0: no replay regime exists) / `simcore.run_fallbacks` once per suite.
/// Batching, cold-charging and fallback decisions depend only on the
/// access sequence — never on scheduling — so all four totals must be
/// `--jobs`-independent, and a scan-heavy subset must actually engage the
/// hot and cold fast paths.
#[test]
fn fast_path_counters_are_jobs_independent() {
    let _guard = seq();
    const COUNTERS: [&str; 4] = [
        "simcore.run_batched_lines",
        "simcore.run_cold_batched_lines",
        "simcore.run_replayed_lines",
        "simcore.run_fallbacks",
    ];
    let read = |name: &str| {
        mjobs::metrics::global()
            .counter(name)
            .unwrap_or_else(|| panic!("{name} published after suite"))
    };
    // The cache-metadata footprint is a gauge; read it via snapshot.
    let read_footprint = || {
        mjobs::metrics::global()
            .snapshot()
            .into_iter()
            .find_map(|(name, m)| match (name.as_str(), m) {
                ("simcore.cache_bytes_resident", mjobs::metrics::Metric::Gauge(v)) => Some(v),
                _ => None,
            })
            .expect("simcore.cache_bytes_resident published after suite")
    };

    mjobs::metrics::global().clear();
    run(1, None);
    let serial: Vec<u64> = COUNTERS.iter().map(|n| read(n)).collect();
    let footprint_serial = read_footprint();

    mjobs::metrics::global().clear();
    run(4, None);
    let parallel: Vec<u64> = COUNTERS.iter().map(|n| read(n)).collect();
    let footprint_parallel = read_footprint();

    for (i, name) in COUNTERS.iter().enumerate() {
        assert_eq!(serial[i], parallel[i], "{name} must not depend on --jobs");
    }
    assert!(
        serial[0] > 0,
        "the scan-heavy subset must engage the hot fast path"
    );
    assert!(serial[1] > 0, "cold scans must engage the fused cold path");

    // The SoA cache footprint is pure geometry: identical for any --jobs,
    // and non-trivial (the i7-4790 stack's tag + rank + hint arrays).
    assert_eq!(
        footprint_serial.to_bits(),
        footprint_parallel.to_bits(),
        "simcore.cache_bytes_resident must not depend on --jobs"
    );
    assert!(
        footprint_serial > 0.0,
        "the suite must instantiate at least one simulated machine"
    );
}
