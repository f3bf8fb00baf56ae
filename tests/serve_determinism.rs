//! Serving determinism: the virtual-time multi-session server keeps the
//! harness's central guarantee. The `serve_oltp` report stream is
//! byte-identical between `--jobs 1` and `--jobs 4` and across two
//! invocations with the same seed, and admission rejections — the one
//! statistic that only exists because requests *interleave* — are counted
//! deterministically.

use std::sync::{Mutex, MutexGuard};

use mjrt::{run_suite, HarnessConfig};
use mjserve::{serve, MixKind, ServeConfig};
use simcore::{ArchConfig, Cpu};

/// The suite publishes process-global metrics; serialize suite runs so no
/// test observes another's counts.
fn seq() -> MutexGuard<'static, ()> {
    static SEQ: Mutex<()> = Mutex::new(());
    SEQ.lock().unwrap_or_else(|e| e.into_inner())
}

fn run(jobs: usize) -> String {
    let cfg = HarnessConfig {
        jobs,
        // Small but multi-session: enough concurrency to exercise queueing
        // on every shard while keeping the suite quick.
        sessions: 4,
        arrival_rate: 3000.0,
        admit_limit: 2,
        csv: false,
        filter: Some("serve_oltp".into()),
        ..HarnessConfig::default()
    };
    let mut out = Vec::new();
    let mut summary = Vec::new();
    let outcome =
        run_suite(bench::experiments::REGISTRY, &cfg, &mut out, &mut summary).expect("io");
    assert_eq!(
        outcome.experiments.len(),
        1,
        "the filter selects serve_oltp only"
    );
    assert!(
        outcome.failures().is_empty(),
        "serve_oltp must succeed: {:?}",
        outcome.failures()
    );
    String::from_utf8(out).expect("reports are UTF-8")
}

#[test]
fn serve_report_is_byte_identical_across_jobs_and_invocations() {
    let _guard = seq();
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "report must not depend on --jobs");

    // Same seed, new invocation: byte-identical again.
    let again = run(1);
    assert_eq!(serial, again, "same-seed reruns must reproduce");

    // Sanity: all three personalities reported latency rows.
    for engine in ["PostgreSQL", "SQLite", "MySQL"] {
        assert!(serial.contains(engine), "missing {engine}:\n{serial}");
    }
    assert!(serial.contains("p99 us"));
}

#[test]
fn admission_rejections_are_counted_deterministically() {
    let _guard = seq();
    // Overload: everyone arrives at (virtually) the same instant with one
    // token and a two-slot queue, so most arrivals must be rejected — and
    // the count must be a pure function of the seed.
    let cfg = ServeConfig {
        mix: MixKind::Oltp,
        sessions: 16,
        requests_per_session: 2,
        arrival_rate_hz: 1e6,
        admit_limit: 1,
        queue_cap: 2,
        ycsb_keys: 64,
        ycsb_ops: 4,
        accounts: 32,
        ..ServeConfig::default()
    };
    let run = || {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let s = serve(&mut cpu, &cfg).expect("serve");
        (s.admitted, s.queued, s.rejected)
    };
    let (admitted, queued, rejected) = run();
    assert!(rejected > 0, "overload must reject");
    assert!(queued > 0, "the bounded queue must absorb some arrivals");
    assert_eq!(
        admitted + rejected,
        (cfg.sessions * cfg.requests_per_session) as u64,
        "every arrival is either admitted (possibly after queueing) or rejected"
    );
    assert_eq!((admitted, queued, rejected), run(), "counts must reproduce");
}
