//! The `profile.json` run-dir artifact: per-experiment, per-shard,
//! per-operator energy attribution aggregated from span streams.
//!
//! Where the JSONL trace is an event log and the Chrome trace a timeline,
//! the profile is the *queryable* rollup: for every shard it records the
//! total RAPL delta the spans account for, the telescoped sum of exclusive
//! energies (they must agree — `trace_check` verifies), the Eq. 1
//! micro-op estimate vs measured Active energy (they must sit inside the
//! difftest bounded-residual band), and a per-operator table keyed by span
//! name with calls, rows, exclusive time/cycles/joules, per-micro-op
//! energy, and fast-path counter deltas.
//!
//! Everything is derived from simulated meters and written in name order,
//! so the file is byte-identical for any `--jobs`.

use std::collections::BTreeMap;
use std::io::{self, Write};

use analysis::active::active_energy;
use analysis::{EnergyTable, MicroOp, MicroOpCounts};
use mjobs::json::{self, escape, num, Json};
use mjobs::span::SpanRecord;
use simcore::RunStats;

use crate::tree::SpanForest;

/// Format version stamped into `profile.json`.
pub const PROFILE_FORMAT: u32 = 1;

/// One shard's input to the profile writer.
pub struct ShardProfile<'a> {
    /// Experiment name.
    pub exp: &'a str,
    /// Shard index within the experiment.
    pub shard: usize,
    /// The shard's seq-sorted span stream.
    pub spans: &'a [SpanRecord],
    /// The experiment's solved energy table (for Eq. 1 attribution).
    pub table: &'a EnergyTable,
}

#[derive(Default)]
struct OpAgg {
    calls: u64,
    rows: Option<u64>,
    time_s: f64,
    cycles: f64,
    e_j: f64,
    self_j: f64,
    active_j: f64,
    ops_j: Vec<f64>, // MicroOp::MS order, then "other"
    runs: RunStats,
}

fn write_runs<W: Write>(w: &mut W, r: RunStats) -> io::Result<()> {
    write!(
        w,
        "{{\"batched\": {}, \"cold\": {}, \"replayed\": {}, \"fallbacks\": {}}}",
        r.batched_lines, r.cold_batched_lines, r.replayed_lines, r.fallbacks
    )
}

fn write_shard<W: Write>(w: &mut W, s: &ShardProfile<'_>) -> io::Result<()> {
    write!(
        w,
        "      {{\"shard\": {}, \"spans\": {}",
        s.shard,
        s.spans.len()
    )?;
    let forced = s.spans.iter().filter(|r| r.forced).count();
    write!(w, ", \"forced\": {forced}")?;
    let forest = match SpanForest::build(s.spans) {
        Ok(f) => f,
        Err(e) => {
            // Never fail the run for a malformed stream; surface it for
            // trace_check to flag instead.
            return write!(w, ", \"error\": {}}}", escape(&e));
        }
    };

    // Shard rollup: inclusive totals over roots, telescoped exclusive sum,
    // and the Eq. 1 estimate vs measured Active for the whole stream.
    let total_j = forest.total_j();
    let self_sum_j: f64 = (0..forest.len()).map(|i| forest.self_j(i)).sum();
    let mut active_j = 0.0;
    let mut est_j = 0.0;
    let mut runs_total = RunStats::default();
    for &r in forest.roots() {
        let m = &forest.rec(r).delta;
        active_j += active_energy(m, &s.table.background).active_j;
        est_j += s.table.estimate_active_j(&MicroOpCounts::from_pmu(&m.pmu));
        runs_total += forest.rec(r).runs;
    }
    write!(
        w,
        ", \"total_j\": {}, \"self_sum_j\": {}, \"active_j\": {}, \"est_j\": {}, \"runs\": ",
        num(total_j),
        num(self_sum_j),
        num(active_j),
        num(est_j)
    )?;
    write_runs(w, runs_total)?;

    // Per-operator rollup keyed by span name (deterministic BTreeMap order).
    let mut ops: BTreeMap<&str, OpAgg> = BTreeMap::new();
    for i in 0..forest.len() {
        let rec = forest.rec(i);
        let excl = forest.exclusive(i);
        let bd = s.table.breakdown(&excl);
        let agg = ops.entry(rec.name.as_str()).or_default();
        if agg.ops_j.is_empty() {
            agg.ops_j = vec![0.0; MicroOp::MS.len() + 1];
        }
        agg.calls += 1;
        if let Some(n) = rec.rows {
            *agg.rows.get_or_insert(0) += n;
        }
        agg.time_s += excl.time_s;
        agg.cycles += excl.cycles;
        agg.e_j += rec.delta.rapl.total_j();
        agg.self_j += forest.self_j(i);
        agg.active_j += bd.active_j();
        for (k, op) in MicroOp::MS.iter().enumerate() {
            agg.ops_j[k] += bd.energy_j(*op);
        }
        *agg.ops_j.last_mut().expect("ops_j sized") += bd.other_j();
        agg.runs += forest.exclusive_runs(i);
    }
    writeln!(w, ", \"operators\": [")?;
    let n = ops.len();
    for (k, (name, a)) in ops.into_iter().enumerate() {
        write!(
            w,
            "        {{\"name\": {}, \"calls\": {}, \"rows\": {}, \"time_s\": {}, \
             \"cycles\": {}, \"e_j\": {}, \"self_j\": {}, \"active_j\": {}, \"ops_j\": {{",
            escape(name),
            a.calls,
            a.rows.map_or("null".to_owned(), |r| r.to_string()),
            num(a.time_s),
            num(a.cycles),
            num(a.e_j),
            num(a.self_j),
            num(a.active_j),
        )?;
        for (i, op) in MicroOp::MS.iter().enumerate() {
            write!(w, "{}: {}, ", escape(op.symbol()), num(a.ops_j[i]))?;
        }
        write!(
            w,
            "\"other\": {}}}, \"runs\": ",
            num(a.ops_j[MicroOp::MS.len()])
        )?;
        write_runs(w, a.runs)?;
        writeln!(w, "}}{}", if k + 1 < n { "," } else { "" })?;
    }
    write!(w, "      ]}}")
}

/// Write `profile.json` for `shards` (already in registry/shard order;
/// consecutive entries with the same experiment name are grouped).
pub fn write_profile<W: Write>(w: &mut W, shards: &[ShardProfile<'_>]) -> io::Result<()> {
    writeln!(w, "{{\"format\": {PROFILE_FORMAT},")?;
    writeln!(w, " \"experiments\": [")?;
    let mut i = 0;
    while i < shards.len() {
        let exp = shards[i].exp;
        let end = shards[i..]
            .iter()
            .position(|s| s.exp != exp)
            .map_or(shards.len(), |p| i + p);
        writeln!(w, "  {{\"exp\": {}, \"shards\": [", escape(exp))?;
        for (k, s) in shards[i..end].iter().enumerate() {
            write_shard(w, s)?;
            writeln!(w, "{}", if k + 1 < end - i { "," } else { "" })?;
        }
        write!(w, "  ]}}")?;
        writeln!(w, "{}", if end < shards.len() { "," } else { "" })?;
        i = end;
    }
    writeln!(w, " ]}}")
}

/// Parsed form of a `profile.json` operator row.
#[derive(Debug, Clone)]
pub struct ParsedOp {
    /// Span name.
    pub name: String,
    /// Calls aggregated into this row.
    pub calls: u64,
    /// Summed annotated rows, when any call carried one.
    pub rows: Option<u64>,
    /// Exclusive simulated seconds.
    pub time_s: f64,
    /// Exclusive cycles.
    pub cycles: f64,
    /// Inclusive RAPL joules.
    pub e_j: f64,
    /// Exclusive RAPL joules.
    pub self_j: f64,
    /// Exclusive Active joules.
    pub active_j: f64,
}

/// Parsed form of one shard entry.
#[derive(Debug, Clone)]
pub struct ParsedShard {
    /// Shard index.
    pub shard: usize,
    /// Span count.
    pub spans: u64,
    /// Force-closed span count.
    pub forced: u64,
    /// Inclusive RAPL joules over root spans.
    pub total_j: f64,
    /// Telescoped sum of exclusive joules over all spans.
    pub self_sum_j: f64,
    /// Measured Active joules over root spans.
    pub active_j: f64,
    /// Eq. 1 estimated joules over root spans.
    pub est_j: f64,
    /// Fast-path counters `[batched, cold, replayed, fallbacks]`.
    pub runs: [u64; 4],
    /// Per-operator rollups, in name order.
    pub operators: Vec<ParsedOp>,
    /// Well-formedness error recorded at write time, if any.
    pub error: Option<String>,
}

/// Parsed form of `profile.json`.
#[derive(Debug, Clone)]
pub struct ParsedProfile {
    /// Format version.
    pub format: u64,
    /// `(experiment name, shards)` in file order.
    pub experiments: Vec<(String, Vec<ParsedShard>)>,
}

fn field_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("missing numeric field {key}"))
}

fn parse_runs(j: &Json) -> Result<[u64; 4], String> {
    let r = j.get("runs").ok_or("missing runs")?;
    Ok([
        field_f64(r, "batched")? as u64,
        field_f64(r, "cold")? as u64,
        field_f64(r, "replayed")? as u64,
        field_f64(r, "fallbacks")? as u64,
    ])
}

/// Parse `profile.json` text into its typed form, validating the schema.
pub fn parse_profile(text: &str) -> Result<ParsedProfile, String> {
    let root = json::parse(text)?;
    let format = field_f64(&root, "format")? as u64;
    let exps = root
        .get("experiments")
        .and_then(|e| e.as_arr())
        .ok_or("missing experiments array")?;
    let mut experiments = Vec::new();
    for e in exps {
        let name = e
            .get("exp")
            .and_then(|n| n.as_str())
            .ok_or("experiment without exp name")?
            .to_owned();
        let mut shards = Vec::new();
        for s in e
            .get("shards")
            .and_then(|s| s.as_arr())
            .ok_or("missing shards")?
        {
            let shard = field_f64(s, "shard")? as usize;
            let spans = field_f64(s, "spans")? as u64;
            let forced = field_f64(s, "forced")? as u64;
            if let Some(err) = s.get("error").and_then(|e| e.as_str()) {
                shards.push(ParsedShard {
                    shard,
                    spans,
                    forced,
                    total_j: 0.0,
                    self_sum_j: 0.0,
                    active_j: 0.0,
                    est_j: 0.0,
                    runs: [0; 4],
                    operators: Vec::new(),
                    error: Some(err.to_owned()),
                });
                continue;
            }
            let mut operators = Vec::new();
            for o in s
                .get("operators")
                .and_then(|o| o.as_arr())
                .ok_or("missing operators")?
            {
                operators.push(ParsedOp {
                    name: o
                        .get("name")
                        .and_then(|n| n.as_str())
                        .ok_or("operator without name")?
                        .to_owned(),
                    calls: field_f64(o, "calls")? as u64,
                    rows: o.get("rows").and_then(|r| r.as_f64()).map(|r| r as u64),
                    time_s: field_f64(o, "time_s")?,
                    cycles: field_f64(o, "cycles")?,
                    e_j: field_f64(o, "e_j")?,
                    self_j: field_f64(o, "self_j")?,
                    active_j: field_f64(o, "active_j")?,
                });
            }
            shards.push(ParsedShard {
                shard,
                spans,
                forced,
                total_j: field_f64(s, "total_j")?,
                self_sum_j: field_f64(s, "self_sum_j")?,
                active_j: field_f64(s, "active_j")?,
                est_j: field_f64(s, "est_j")?,
                runs: parse_runs(s)?,
                operators,
                error: None,
            });
        }
        experiments.push((name, shards));
    }
    Ok(ParsedProfile {
        format,
        experiments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::{ArchConfig, Cpu, Dep, ExecOp};

    #[test]
    fn profile_round_trips_and_telescopes() {
        let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
        let table = analysis::CalibrationBuilder::quick()
            .target_ops(2000)
            .calibrate()
            .expect("calibration");
        let buf = cpu.alloc(1 << 16).unwrap();
        mjobs::span::install();
        mjobs::span::enter(&mut cpu, || "query".into());
        mjobs::span::enter(&mut cpu, || "scan(t)".into());
        for l in 0..512 {
            cpu.load(buf.addr + (l % 1024) * 64, Dep::Stream);
        }
        mjobs::span::annotate_rows(512);
        mjobs::span::exit(&mut cpu);
        cpu.exec_n(ExecOp::Add, 300);
        mjobs::span::exit(&mut cpu);
        let spans = mjobs::span::take();

        let mut out = Vec::new();
        write_profile(
            &mut out,
            &[ShardProfile {
                exp: "demo",
                shard: 0,
                spans: &spans,
                table: &table,
            }],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let parsed = parse_profile(&text).expect("parses");
        assert_eq!(parsed.format, PROFILE_FORMAT as u64);
        assert_eq!(parsed.experiments.len(), 1);
        let (name, shards) = &parsed.experiments[0];
        assert_eq!(name, "demo");
        let s = &shards[0];
        assert!(s.error.is_none());
        assert_eq!(s.spans, 2);
        assert!(s.total_j > 0.0);
        assert!((s.self_sum_j - s.total_j).abs() <= 1e-9 * s.total_j);
        let scan = s.operators.iter().find(|o| o.name == "scan(t)").unwrap();
        assert_eq!(scan.rows, Some(512));
        assert!(scan.self_j > 0.0 && scan.self_j <= s.total_j);
        let op_sum: f64 = s.operators.iter().map(|o| o.self_j).sum();
        assert!((op_sum - s.total_j).abs() <= 1e-9 * s.total_j);
    }
}
