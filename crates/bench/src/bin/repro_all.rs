//! Run the full reproduction suite through the `mjrt` scheduler.
//!
//! `cargo run --release -p bench --bin repro_all` regenerates every table
//! and figure; the output sections match DESIGN.md's experiment index and
//! feed EXPERIMENTS.md. Useful flags (see `mjrt::config::USAGE`):
//!
//! * `--jobs N` — run experiment shards on N worker threads. The report
//!   stream on stdout is byte-identical for any N; only wall-clock changes.
//! * `--filter SUBSTR` — run only experiments whose name contains SUBSTR.
//! * `--list` — print the registered experiment names and exit.
//! * `--csv` — write plotting-ready CSVs into a fresh per-run directory.
//! * `--trace[=DIR]` — write energy-attributed traces (`trace.jsonl` +
//!   Chrome-format `trace.json`) into the run directory (or DIR).
//! * `--metrics` — print the metrics summary (stderr) and write
//!   `metrics.json` into the run directory.
//! * `--sessions N` (and `--arrival-rate`, `--admit-limit`, `--mix`) —
//!   shape the serving experiment, e.g. `--filter serve_oltp --sessions 8`.
//! * `--diff-fuzz N` — seeded fuzz queries the differential harness runs
//!   after its fixed corpus (`--filter difftest --diff-fuzz 0` runs the
//!   corpus only).
//!
//! The host-time summary goes to stderr so stdout stays deterministic;
//! `--trace`/`--metrics` never change stdout either. The exit status is 1
//! when any experiment failed: a shard panicked, or a check such as the
//! differential harness's found a disagreement.

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--list") {
        args.remove(pos);
        for exp in bench::experiments::REGISTRY {
            println!("{}", exp.name());
        }
        return;
    }
    let cfg = match mjrt::HarnessConfig::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    // Keep stderr UNLOCKED: workers print csv/panic messages to stderr from
    // their own threads, and a lock held across the whole suite would
    // deadlock them (stdout is safe to lock — only the aggregator writes it).
    let mut stdout = std::io::stdout().lock();
    let mut stderr = std::io::stderr();
    let outcome = mjrt::run_suite(bench::experiments::REGISTRY, &cfg, &mut stdout, &mut stderr)
        .expect("write report stream");
    drop(stdout);

    let failures = outcome.failures();
    if !failures.is_empty() {
        eprintln!("\nFAILED experiments: {failures:?}");
        std::process::exit(1);
    }
    println!("\nall experiments completed");
}
