//! Wall-clock throughput benchmark for the simcore batched-access fast path.
//!
//! Replays six access traces through the per-access reference verbs
//! (`Cpu::load_reference`/`Cpu::store_reference`, the frozen scalar step
//! that is the fast path's test oracle; production reaches it only with
//! the fast path off) and through `Cpu::access_run`, and reports simulated
//! accesses per host second for each, plus the speedup.
//! The two replays issue the *identical* access sequence (the equivalence
//! is proven bit-exact by `tests/access_equiv.rs`); this binary measures
//! only how fast the simulator gets through it. Each arm runs three times with the arms
//! alternated, and the fastest rep per arm is reported — single runs on a
//! shared host swing far too much to gate on.
//!
//! Traces:
//! * `scan_hot`   — repeated passes over an L1-resident window (the shape of
//!   warm page scans; hot batching with O(1) known-hit charges, ≥5× target),
//! * `scan_cold`  — passes over a window larger than L3 (every line misses;
//!   the fused cold walk with bulk miss-charging, ≥3× target),
//! * `chase`      — pointer chasing (fused chase steps, ≥2× target),
//! * `mixed`      — interleaved warm runs, chases, repeats and stores,
//! * `set_conflict_storm` — stride-4096 accesses hammering one L1D set (L2
//!   hits after warmup): every access walks a full valid set and selects a
//!   victim, pinning the SoA representation's max-way-walk worst case under
//!   its own floor rather than letting the averaged traces hide it,
//! * `columnar_scan` — the vectorized executor's lane shape (per 1024-row
//!   batch: stream the predicate lane, gather the projected lane, store
//!   the materialized batch into a bounded scratch ring), so the `vec`
//!   personality's dominant access pattern has its own floor.
//!
//! `--e2e` additionally runs the full repro_all experiment suite twice
//! in-process — once with the fast paths disabled, once enabled — checks the
//! report streams are byte-identical, and records both wall-clocks. Results
//! are written as JSON (schema v3) to the path given as the one non-flag
//! argument, by default `BENCH_simcore.json` in full mode and
//! `target/perfbench-smoke.json` in smoke mode, and the file is re-read
//! and validated before exit. An unknown flag or a second path prints the
//! usage and exits 2. The JSON's `replayed_lines` always reads 0: simcore
//! no longer has a replay regime. `--smoke` shrinks the iteration counts
//! for CI and gates on the `scan_cold` and `columnar_scan` floors; the
//! full mode gates on every trace's hard floor and additionally reports
//! (without failing) any trace that met its floor but not its design
//! target — see [`THRESHOLDS`].

use std::process::ExitCode;
use std::time::Instant;

use mjobs::json::{parse, Json};
use simcore::{set_fastpath, ArchConfig, Cpu, Dep, RunStats, LINE};

/// Wall-clock of the previous release's repro_all (fast paths of PR 3 only,
/// measured on the same reference host before the cold/chase/replay paths
/// landed). Recorded in the JSON so the end-to-end delta is tracked.
const PREV_RELEASE_REPRO_ALL_S: f64 = 471.9;

/// Per-trace speedup thresholds: (trace, hard floor, design target).
///
/// The floor is a regression tripwire — the binary exits non-zero below it.
/// The target is the fast-path design goal; it is recorded per trace in the
/// JSON and a miss is printed as a note, not a failure. The SoA cache
/// arrays moved two of the fused walk's earlier missed targets: `scan_cold` now
/// reaches its 3× target on quiet host windows (measured 2.4–3.2× on the
/// shared reference host; floor raised 2.0 → 2.2 to the worst observed run
/// minus noise margin), and `chase` gets a higher floor (1.3 → 1.4) but
/// keeps missing its 2× target for a now-measured structural reason: its
/// batched throughput is invariant under a 4× shrink of the way arrays
/// (12.0 → 12.1 M/s), so the chase step is bound by the bit-identity
/// settle/charge chain plus one step-serialized random LLC access, not by
/// array footprint — see DESIGN.md §9 for the decomposition.
/// `columnar_scan` floors the vectorized executor's lane mix: its 512 KB
/// lanes never fit L1, so every line rides the fused cold walk (measured
/// 2.2× smoke / 2.5× full on the shared reference host; floor set to the
/// worst observed run minus noise margin).
const THRESHOLDS: &[(&str, f64, f64)] = &[
    ("scan_hot", 5.0, 5.0),
    ("scan_cold", 2.2, 3.0),
    ("chase", 1.4, 2.0),
    ("mixed", 1.5, 2.0),
    ("set_conflict_storm", 1.2, 1.5),
    ("columnar_scan", 1.8, 2.5),
];

fn thresholds_for(name: &str) -> (f64, f64) {
    THRESHOLDS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, floor, target)| (floor, target))
        .unwrap_or_else(|| panic!("no thresholds for trace {name}"))
}

/// xorshift64* — deterministic chase addresses without external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

struct TraceResult {
    name: &'static str,
    accesses: u64,
    scalar_ns: u128,
    batched_ns: u128,
    stats: RunStats,
}

impl TraceResult {
    fn scalar_aps(&self) -> f64 {
        self.accesses as f64 / (self.scalar_ns as f64 * 1e-9)
    }

    fn batched_aps(&self) -> f64 {
        self.accesses as f64 / (self.batched_ns as f64 * 1e-9)
    }

    fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.batched_ns as f64
    }
}

/// End-to-end suite timing: the same repro_all run with the fast paths off
/// and on, plus whether the two report streams matched byte-for-byte.
struct SuiteResult {
    wall_off_s: f64,
    wall_on_s: f64,
    report_identical: bool,
}

impl SuiteResult {
    fn speedup(&self) -> f64 {
        self.wall_off_s / self.wall_on_s
    }
}

fn fresh_cpu() -> (Cpu, u64) {
    let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
    let region = cpu.alloc(32 << 20).expect("bench arena");
    (cpu, region.addr)
}

/// Repetitions per arm. Each rep does identical simulated work, so the
/// fastest one is the closest estimate of the code's actual cost; the
/// others absorb scheduler preemption and host-cache pollution from
/// neighbouring processes (single runs swing ±30% on shared hosts, enough
/// to spuriously trip the speedup gates in either direction).
const REPS: u32 = 3;

/// Time `f(cpu, base)` once on a fresh machine; returns (elapsed ns, run
/// stats). The stats are drained per run so each rep starts clean.
fn timed_once(f: &impl Fn(&mut Cpu, u64)) -> (u128, RunStats) {
    let (mut cpu, base) = fresh_cpu();
    let t0 = Instant::now();
    f(&mut cpu, base);
    let ns = t0.elapsed().as_nanos().max(1);
    (ns, cpu.run_stats())
}

fn run_trace(
    name: &'static str,
    accesses: u64,
    scalar: impl Fn(&mut Cpu, u64),
    batched: impl Fn(&mut Cpu, u64),
) -> TraceResult {
    // Alternate the arms within each rep so a slow host phase (frequency
    // ramp, a neighbour filling the shared LLC) penalises both equally
    // instead of biasing whichever arm it happens to land on.
    let mut scalar_ns = u128::MAX;
    let mut batched_ns = u128::MAX;
    let mut stats = None;
    for _ in 0..REPS {
        let (s, _) = timed_once(&scalar);
        let (b, st) = timed_once(&batched);
        scalar_ns = scalar_ns.min(s);
        batched_ns = batched_ns.min(b);
        // The counters are deterministic — every rep reports the same
        // values — so keeping the first rep's is arbitrary but exact.
        stats.get_or_insert(st);
    }
    TraceResult {
        name,
        accesses,
        scalar_ns,
        batched_ns,
        stats: stats.expect("at least one rep"),
    }
}

fn run_all(scale: u64) -> Vec<TraceResult> {
    let mut results = Vec::new();

    // scan_hot: `passes` full passes over a 256-line (16 KB) window that
    // stays L1D-resident after the first pass, so every later pass is one
    // hot batch: a set scan per line and an O(1) charge.
    let hot_lines: u64 = 256;
    let passes: u64 = 2_000 * scale;
    results.push(run_trace(
        "scan_hot",
        hot_lines * passes,
        |cpu, base| {
            for _ in 0..passes {
                for i in 0..hot_lines {
                    cpu.load_reference(base + i * LINE, Dep::Stream);
                }
            }
        },
        |cpu, base| {
            for _ in 0..passes {
                cpu.access_run(base, hot_lines, false, Dep::Stream);
            }
        },
    ));

    // scan_cold: passes over a 16 MB window (past the 8 MB L3) — nothing
    // stays resident; the batched arm takes the fused cold walk.
    let cold_lines: u64 = (16 << 20) / LINE;
    let cold_passes: u64 = scale.div_ceil(4).max(1);
    results.push(run_trace(
        "scan_cold",
        cold_lines * cold_passes,
        |cpu, base| {
            for _ in 0..cold_passes {
                for i in 0..cold_lines {
                    cpu.load_reference(base + i * LINE, Dep::Stream);
                }
            }
        },
        |cpu, base| {
            for _ in 0..cold_passes {
                cpu.access_run(base, cold_lines, false, Dep::Stream);
            }
        },
    ));

    // chase: dependent loads at pseudo-random lines in a 1 MB window.
    let chases: u64 = 200_000 * scale;
    let chase_at = |r: &mut Rng| (r.next() % ((1 << 20) / LINE)) * LINE;
    results.push(run_trace(
        "chase",
        chases,
        |cpu, base| {
            let mut rng = Rng(0xc4a5e);
            for _ in 0..chases {
                cpu.load_reference(base + chase_at(&mut rng), Dep::Chase);
            }
        },
        |cpu, base| {
            let mut rng = Rng(0xc4a5e);
            for _ in 0..chases {
                cpu.access_run(base + chase_at(&mut rng), 1, false, Dep::Chase);
            }
        },
    ));

    // mixed: warm read run + chase + hot repeat + store run per iteration
    // (roughly the shape of an index-nested-loop over warm pages).
    let iters: u64 = 1_000 * scale;
    let mixed_accesses = iters * (64 + 1 + 32 + 64);
    results.push(run_trace(
        "mixed",
        mixed_accesses,
        |cpu, base| {
            let mut rng = Rng(0x313ed);
            for _ in 0..iters {
                for i in 0..64 {
                    cpu.load_reference(base + i * LINE, Dep::Stream);
                }
                cpu.load_reference(base + chase_at(&mut rng), Dep::Chase);
                for _ in 0..32 {
                    cpu.load_reference(base + 8 * LINE, Dep::Stream);
                }
                for i in 0..64 {
                    cpu.store_reference(base + i * LINE);
                }
            }
        },
        |cpu, base| {
            let mut rng = Rng(0x313ed);
            for _ in 0..iters {
                cpu.access_run(base, 64, false, Dep::Stream);
                cpu.access_run(base + chase_at(&mut rng), 1, false, Dep::Chase);
                cpu.load_repeat(base + 8 * LINE, 32);
                cpu.access_run(base, 64, true, Dep::Stream);
            }
        },
    ));

    // set_conflict_storm: every access at stride 4096 lands in L1D set 0
    // (64 sets × 64 B), with 40 distinct tags so L1 misses forever while L2
    // (8 stormed sets × 5 tags) hits after warmup. Steady state is the
    // representation's worst case: a full 8-way walk over an all-valid set,
    // a rank-word victim selection, an L2 lookup and an L1 fill — per
    // access, with periodic dirty victims rippling a writeback into L2.
    let storm_slots: u64 = 40;
    let storm_passes: u64 = 2_000 * scale;
    results.push(run_trace(
        "set_conflict_storm",
        storm_slots * storm_passes,
        |cpu, base| {
            for p in 0..storm_passes {
                for k in 0..storm_slots {
                    if (p + k) % 3 == 0 {
                        cpu.store_reference(base + k * 4096);
                    } else {
                        cpu.load_reference(base + k * 4096, Dep::Stream);
                    }
                }
            }
        },
        |cpu, base| {
            for p in 0..storm_passes {
                for k in 0..storm_slots {
                    cpu.access_run(base + k * 4096, 1, (p + k) % 3 == 0, Dep::Stream);
                }
            }
        },
    ));

    // columnar_scan: the batch executor's per-batch lane traffic — stream
    // the predicate lane (1024 rows × 8 B = 128 lines), stream the
    // projected lane for late materialization, store the materialized
    // batch into a 32 KB scratch ring. Lanes are 512 KB (L3-resident after
    // the first pass), the ring stays L1-resident — the mix the `vec`
    // personality issues on every scan.
    let batch_lines: u64 = (1024 * 8) / LINE;
    let col_batches: u64 = 64;
    let lane_bytes: u64 = col_batches * batch_lines * LINE;
    let ring_lines: u64 = 512;
    let col_passes: u64 = 30 * scale;
    results.push(run_trace(
        "columnar_scan",
        col_passes * col_batches * batch_lines * 3,
        |cpu, base| {
            for p in 0..col_passes {
                for b in 0..col_batches {
                    let pred = base + b * batch_lines * LINE;
                    let lane = base + lane_bytes + b * batch_lines * LINE;
                    let out = base
                        + 2 * lane_bytes
                        + ((p * col_batches + b) * batch_lines % ring_lines) * LINE;
                    for i in 0..batch_lines {
                        cpu.load_reference(pred + i * LINE, Dep::Stream);
                    }
                    for i in 0..batch_lines {
                        cpu.load_reference(lane + i * LINE, Dep::Stream);
                    }
                    for i in 0..batch_lines {
                        cpu.store_reference(out + i * LINE);
                    }
                }
            }
        },
        |cpu, base| {
            for p in 0..col_passes {
                for b in 0..col_batches {
                    let pred = base + b * batch_lines * LINE;
                    let lane = base + lane_bytes + b * batch_lines * LINE;
                    let out = base
                        + 2 * lane_bytes
                        + ((p * col_batches + b) * batch_lines % ring_lines) * LINE;
                    cpu.access_run(pred, batch_lines, false, Dep::Stream);
                    cpu.access_run(lane, batch_lines, false, Dep::Stream);
                    cpu.access_run(out, batch_lines, true, Dep::Stream);
                }
            }
        },
    ));

    results
}

/// Run the full repro_all suite in-process and return (wall seconds, report
/// bytes). `mjrt::run_suite` drains the fast-path counters itself, so each
/// arm starts clean.
fn run_suite_once() -> (f64, Vec<u8>) {
    let cfg = mjrt::HarnessConfig::default();
    let mut out = Vec::new();
    let mut summary = std::io::sink();
    let t0 = Instant::now();
    let outcome = mjrt::run_suite(bench::experiments::REGISTRY, &cfg, &mut out, &mut summary)
        .expect("suite report stream");
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        outcome.failures().is_empty(),
        "repro_all failed under perfbench: {:?}",
        outcome.failures()
    );
    (wall, out)
}

fn run_e2e() -> SuiteResult {
    eprintln!("perfbench: e2e arm 1/2 (fast paths off) ...");
    set_fastpath(false);
    let (wall_off_s, report_off) = run_suite_once();
    eprintln!("perfbench: e2e arm 2/2 (fast paths on) ...");
    set_fastpath(true);
    let (wall_on_s, report_on) = run_suite_once();
    SuiteResult {
        wall_off_s,
        wall_on_s,
        report_identical: report_off == report_on,
    }
}

fn to_json(results: &[TraceResult], suite: Option<&SuiteResult>, mode: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"microjoule.perfbench/v3\",\n");
    s.push_str(&format!("  \"mode\": \"{mode}\",\n"));
    s.push_str("  \"traces\": [\n");
    for (i, r) in results.iter().enumerate() {
        let (floor, target) = thresholds_for(r.name);
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"accesses\": {}, \
             \"scalar_accesses_per_sec\": {:.1}, \
             \"batched_accesses_per_sec\": {:.1}, \
             \"speedup\": {:.3}, \
             \"floor\": {:.1}, \"target\": {:.1}, \"target_met\": {}, \
             \"batched_lines\": {}, \"cold_batched_lines\": {}, \
             \"replayed_lines\": {}, \"fallback_lines\": {}}}{}\n",
            r.name,
            r.accesses,
            r.scalar_aps(),
            r.batched_aps(),
            r.speedup(),
            floor,
            target,
            r.speedup() >= target,
            r.stats.batched_lines,
            r.stats.cold_batched_lines,
            r.stats.replayed_lines,
            r.stats.fallbacks,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    match suite {
        Some(e) => s.push_str(&format!(
            "  \"suite\": {{\"name\": \"repro_all\", \
             \"wall_s_fastpath_off\": {:.1}, \"wall_s_fastpath_on\": {:.1}, \
             \"speedup\": {:.3}, \"report_identical\": {}, \
             \"prev_release_wall_s\": {:.1}}}\n",
            e.wall_off_s,
            e.wall_on_s,
            e.speedup(),
            e.report_identical,
            PREV_RELEASE_REPRO_ALL_S,
        )),
        None => s.push_str("  \"suite\": null\n"),
    }
    s.push_str("}\n");
    s
}

/// Re-read the written file and check it is valid JSON with sane numbers.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot re-read {path}: {e}"))?;
    let v = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != "microjoule.perfbench/v3" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let traces = v
        .get("traces")
        .and_then(Json::as_arr)
        .ok_or("missing \"traces\" array")?;
    if traces.len() != THRESHOLDS.len() {
        return Err(format!(
            "expected {} traces, found {}",
            THRESHOLDS.len(),
            traces.len()
        ));
    }
    for t in traces {
        let name = t.get("name").and_then(Json::as_str).ok_or("trace name")?;
        for key in ["scalar_accesses_per_sec", "batched_accesses_per_sec"] {
            let aps = t.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            if aps.is_nan() || aps <= 0.0 {
                return Err(format!("{name}: {key} = {aps} (must be > 0)"));
            }
        }
    }
    if let Some(suite) = v.get("suite") {
        if !matches!(suite, Json::Null) {
            for key in ["wall_s_fastpath_off", "wall_s_fastpath_on"] {
                let w = suite.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                if w.is_nan() || w <= 0.0 {
                    return Err(format!("suite: {key} = {w} (must be > 0)"));
                }
            }
        }
    }
    Ok(())
}

/// Command-line options.
#[derive(Debug, PartialEq)]
struct Args {
    smoke: bool,
    e2e: bool,
    /// Where the JSON goes: the non-flag argument, else the
    /// committed `BENCH_simcore.json` in full mode and a file under
    /// `target/` in smoke mode, so a smoke run never overwrites the
    /// committed full-mode figures.
    path: String,
}

const USAGE: &str = "usage: perfbench [--smoke] [--e2e] [PATH]";

/// Parse the command line; an unknown flag or a second path is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut smoke, mut e2e, mut path) = (false, false, None);
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--e2e" => e2e = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            _ => {
                if let Some(first) = path.replace(arg) {
                    return Err(format!("a second path after {first}"));
                }
            }
        }
    }
    let default = if smoke {
        "target/perfbench-smoke.json"
    } else {
        "BENCH_simcore.json"
    };
    Ok(Args {
        smoke,
        e2e,
        path: path.unwrap_or_else(|| default.to_string()),
    })
}

fn main() -> ExitCode {
    let Args { smoke, e2e, path } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Smoke keeps every trace and the validation but trims the run to a
    // couple of seconds; the committed BENCH_simcore.json comes from full.
    let (mode, scale) = if smoke { ("smoke", 1) } else { ("full", 20) };

    let results = run_all(scale);
    for r in &results {
        println!(
            "{:<10} {:>12} accesses  scalar {:>12.0}/s  batched {:>12.0}/s  speedup {:>6.2}x  ({} batched, {} cold, {} replayed, {} fallback lines)",
            r.name,
            r.accesses,
            r.scalar_aps(),
            r.batched_aps(),
            r.speedup(),
            r.stats.batched_lines,
            r.stats.cold_batched_lines,
            r.stats.replayed_lines,
            r.stats.fallbacks,
        );
    }

    let suite = e2e.then(run_e2e);
    if let Some(e) = &suite {
        println!(
            "repro_all   fastpath off {:>8.1}s  on {:>8.1}s  speedup {:>5.2}x  report_identical {}  (prev release {:.1}s)",
            e.wall_off_s,
            e.wall_on_s,
            e.speedup(),
            e.report_identical,
            PREV_RELEASE_REPRO_ALL_S,
        );
        if !e.report_identical {
            eprintln!("perfbench: fast paths changed the repro_all report stream");
            return ExitCode::FAILURE;
        }
    }

    let json = to_json(&results, suite.as_ref(), mode);
    let dir = std::path::Path::new(&path).parent();
    if let Some(Err(e)) = dir.map(std::fs::create_dir_all) {
        eprintln!("perfbench: cannot create the directory of {path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("perfbench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = validate(&path) {
        eprintln!("perfbench: invalid output: {e}");
        return ExitCode::FAILURE;
    }
    println!("perfbench: wrote {path}");

    let get = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("{name} trace missing"))
    };
    // Gates: smoke is CI's cheap regression tripwire (the scan_cold floor
    // per the roadmap, plus the columnar_scan floor so the `vec`
    // personality's lane path is covered in CI); the full run enforces
    // every floor and reports, without failing, any trace short of its
    // design target.
    let mut failed = false;
    for &(name, floor, target) in THRESHOLDS {
        if smoke && name != "scan_cold" && name != "columnar_scan" {
            continue;
        }
        let s = get(name).speedup();
        if s < floor {
            eprintln!("perfbench: {name} speedup {s:.2}x is below the {floor}x floor");
            failed = true;
        } else if !smoke && s < target {
            eprintln!(
                "perfbench: note: {name} speedup {s:.2}x meets the {floor}x floor \
                 but not the {target}x design target (host-bound; see DESIGN.md §9)"
            );
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|a| a.to_string()))
    }

    fn args(list: &[&str]) -> Args {
        try_args(list).unwrap_or_else(|e| panic!("{list:?}: {e}"))
    }

    #[test]
    fn default_output_keeps_smoke_runs_off_the_committed_file() {
        let full = args(&[]);
        assert!(!full.smoke && !full.e2e);
        assert_eq!(full.path, "BENCH_simcore.json");
        assert_eq!(args(&["--e2e"]).path, "BENCH_simcore.json");
        let smoke = args(&["--smoke"]);
        assert!(smoke.smoke && !smoke.e2e);
        assert_eq!(smoke.path, "target/perfbench-smoke.json");
        for list in [&["--smoke", "out.json"][..], &["out.json", "--smoke"]] {
            assert_eq!(args(list).path, "out.json", "{list:?}");
        }
        assert_eq!(args(&["out.json"]).path, "out.json");
    }

    #[test]
    fn unknown_flags_and_a_second_path_are_rejected() {
        for list in [
            &["--smok"][..],
            &["--smoke", "-x"],
            &["--e2e=1"],
            &["--smoke", "a.json", "b.json"],
            &["a.json", "--e2e", "b.json"],
        ] {
            assert!(try_args(list).is_err(), "{list:?} must be rejected");
        }
    }

    /// The committed `BENCH_simcore.json` must agree with the code that
    /// writes it: every trace's floor and target equal [`THRESHOLDS`], and
    /// its `target_met` flag matches its recorded speedup.
    #[test]
    fn committed_bench_file_matches_thresholds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json");
        let text = std::fs::read_to_string(path).expect("read the committed BENCH_simcore.json");
        let v = parse(&text).expect("BENCH_simcore.json parses");
        let traces = v
            .get("traces")
            .and_then(Json::as_arr)
            .expect("\"traces\" array");
        assert_eq!(traces.len(), THRESHOLDS.len(), "one entry per trace");
        for t in traces {
            let name = t.get("name").and_then(Json::as_str).expect("trace name");
            let num = |key: &str| {
                t.get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("{name}: no numeric {key:?}"))
            };
            let (floor, target) = thresholds_for(name);
            assert_eq!(num("floor"), floor, "{name}: floor differs from THRESHOLDS");
            assert_eq!(
                num("target"),
                target,
                "{name}: target differs from THRESHOLDS"
            );
            let target_met = match t.get("target_met") {
                Some(Json::Bool(b)) => *b,
                other => panic!("{name}: target_met is {other:?}"),
            };
            assert_eq!(
                target_met,
                num("speedup") >= target,
                "{name}: target_met disagrees with its speedup"
            );
        }
    }
}
