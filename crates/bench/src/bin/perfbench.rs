//! Wall-clock throughput benchmark for the simcore batched-access fast path.
//!
//! Replays six access traces through the per-access reference verbs
//! (`Cpu::load_reference`/`Cpu::store_reference`, the frozen scalar step
//! that is the fast path's test oracle and never a production path) and
//! through `Cpu::access_run` and the repeat verbs, and reports simulated
//! accesses per host second for each, plus the speedup. The two replays
//! issue the *identical* access sequence (the equivalence is proven
//! bit-exact by `tests/access_equiv.rs`), and after every rep the binary
//! checks that both machines end with the same PMU counters and the same
//! bits of RAPL joules, clock and cycles; a difference fails the run and
//! names the trace. Each arm runs three times with the arms alternated,
//! and the fastest rep per arm is reported — single runs on a shared host
//! swing far too much to gate on.
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
//! Results are written as JSON (schema v4) to the path given as the one
//! non-flag argument, by default `BENCH_simcore.json` in full mode and
//! `target/perfbench-smoke.json` in smoke mode, and the file is re-read
//! and validated before exit. An unknown flag or a second path prints the
//! usage and exits 2. `--smoke` shrinks the iteration counts for CI and
//! gates on the `scan_cold` and `columnar_scan` floors; the full mode
//! gates on every trace's hard floor and additionally reports (without
//! failing) any trace that met its floor but not its design target — see
//! [`THRESHOLDS`].

use std::process::ExitCode;
use std::time::Instant;

use mjobs::json::{parse, Json};
use simcore::{ArchConfig, Cpu, Dep, PmuSnapshot, RunStats, LINE};

/// The JSON schema `to_json` writes and `validate` accepts.
const SCHEMA: &str = "microjoule.perfbench/v4";

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

/// What a replay leaves on its machine: the PMU counters, and the bits of
/// the core, package and memory joules, the clock and the cycles.
type EndState = (PmuSnapshot, [u64; 5]);

fn end_state(cpu: &mut Cpu) -> EndState {
    let r = cpu.rapl();
    let values = [
        r.core_j,
        r.package_j,
        r.memory_j,
        cpu.time_s(),
        cpu.cycles(),
    ];
    (cpu.pmu_snapshot(), values.map(f64::to_bits))
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

/// Time `f(cpu, base)` once on a fresh machine; returns the elapsed ns,
/// the machine's end state and its run stats. The machine is dropped
/// before the next rep, so each rep starts clean.
fn timed_once(f: &impl Fn(&mut Cpu, u64)) -> (u128, EndState, RunStats) {
    let (mut cpu, base) = fresh_cpu();
    let t0 = Instant::now();
    f(&mut cpu, base);
    let ns = t0.elapsed().as_nanos().max(1);
    (ns, end_state(&mut cpu), cpu.run_stats())
}

/// Time both replays of a trace; an error names the trace if the two
/// machines end in different states.
fn run_trace(
    name: &'static str,
    accesses: u64,
    scalar: impl Fn(&mut Cpu, u64),
    batched: impl Fn(&mut Cpu, u64),
) -> Result<TraceResult, String> {
    // Alternate the arms within each rep so a slow host phase (frequency
    // ramp, a neighbour filling the shared LLC) penalises both equally
    // instead of biasing whichever arm it happens to land on.
    let mut scalar_ns = u128::MAX;
    let mut batched_ns = u128::MAX;
    let mut stats = None;
    for _ in 0..REPS {
        let (s, scalar_end, _) = timed_once(&scalar);
        let (b, batched_end, st) = timed_once(&batched);
        if scalar_end != batched_end {
            return Err(format!(
                "{name}: the scalar and batched replays ended in different states\n\
                 scalar:  {scalar_end:?}\nbatched: {batched_end:?}"
            ));
        }
        scalar_ns = scalar_ns.min(s);
        batched_ns = batched_ns.min(b);
        // The counters are deterministic — every rep reports the same
        // values — so keeping the first rep's is arbitrary but exact.
        stats.get_or_insert(st);
    }
    Ok(TraceResult {
        name,
        accesses,
        scalar_ns,
        batched_ns,
        stats: stats.expect("at least one rep"),
    })
}

fn run_all(scale: u64) -> Result<Vec<TraceResult>, String> {
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
    )?);

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
    )?);

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
    )?);

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
    )?);

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
    )?);

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
    )?);

    Ok(results)
}

fn to_json(results: &[TraceResult], mode: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
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
             \"fallback_lines\": {}}}{}\n",
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
            r.stats.fallbacks,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Re-read the written file and check it is valid JSON with sane numbers.
fn validate(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot re-read {path}: {e}"))?;
    let v = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != SCHEMA {
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
    Ok(())
}

/// Command-line options.
#[derive(Debug, PartialEq)]
struct Args {
    smoke: bool,
    /// Where the JSON goes: the non-flag argument, else the
    /// committed `BENCH_simcore.json` in full mode and a file under
    /// `target/` in smoke mode, so a smoke run never overwrites the
    /// committed full-mode figures.
    path: String,
}

const USAGE: &str = "usage: perfbench [--smoke] [PATH]";

/// Parse the command line; an unknown flag or a second path is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut smoke, mut path) = (false, None);
    for arg in args {
        match arg.as_str() {
            "--smoke" => smoke = true,
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
        path: path.unwrap_or_else(|| default.to_string()),
    })
}

fn main() -> ExitCode {
    let Args { smoke, path } = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Smoke keeps every trace and the validation but trims the run to a
    // couple of seconds; the committed BENCH_simcore.json comes from full.
    let (mode, scale) = if smoke { ("smoke", 1) } else { ("full", 20) };

    let results = match run_all(scale) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for r in &results {
        println!(
            "{:<10} {:>12} accesses  scalar {:>12.0}/s  batched {:>12.0}/s  speedup {:>6.2}x  ({} batched, {} cold, {} fallback lines)",
            r.name,
            r.accesses,
            r.scalar_aps(),
            r.batched_aps(),
            r.speedup(),
            r.stats.batched_lines,
            r.stats.cold_batched_lines,
            r.stats.fallbacks,
        );
    }

    let json = to_json(&results, mode);
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
        assert!(!full.smoke);
        assert_eq!(full.path, "BENCH_simcore.json");
        let smoke = args(&["--smoke"]);
        assert!(smoke.smoke);
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
            &["--smoke", "a.json", "b.json"],
            &["a.json", "--smoke", "b.json"],
        ] {
            assert!(try_args(list).is_err(), "{list:?} must be rejected");
        }
    }

    /// The committed `BENCH_simcore.json` must agree with the code that
    /// writes it: its schema is the one [`to_json`] writes, every trace's
    /// floor and target equal [`THRESHOLDS`], its recorded speedup meets
    /// its floor, and its `target_met` flag matches that speedup.
    #[test]
    fn committed_bench_file_matches_thresholds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_simcore.json");
        let text = std::fs::read_to_string(path).expect("read the committed BENCH_simcore.json");
        let v = parse(&text).expect("BENCH_simcore.json parses");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some(SCHEMA),
            "the committed file's schema is not the one to_json writes"
        );
        assert_eq!(
            v.get("mode").and_then(Json::as_str),
            Some("full"),
            "the committed file comes from a full run"
        );
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
            assert!(
                num("speedup") >= floor,
                "{name}: the committed speedup {} is below its {floor}x floor",
                num("speedup")
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
