//! Experiment #22 — concurrent OLTP serving: tail latency vs energy per
//! request under admission control.
//!
//! The paper profiles one query at a time; this extension asks what its
//! energy question looks like when a database *serves*: N open-loop client
//! sessions (YCSB mixes, short TPC-H picks, point DML — `--mix`) arrive at
//! `--arrival-rate` requests per virtual second each and pass through a
//! token limiter (`--admit-limit`) with a bounded wait queue. Each
//! (engine personality, arrival-rate multiple) cell is one shard; inside a
//! shard the admission limit sweeps, producing a latency-vs-energy curve
//! per personality.
//!
//! Everything runs on the virtual clock (see `mjserve`), so the report —
//! including p50/p95/p99 tail latencies and rejection counts — is
//! byte-identical across `--jobs`. Each cell also reports interpolated
//! p999, the admit rate, and SLO attainment against the serve tail
//! budget (worst rolling window included in the families CSV). With
//! `--csv` the run directory gets the per-cell curve (`serve_oltp.csv`),
//! the per-family quantile rollup (`serve_oltp_families.csv`), and the
//! full per-request log (`serve_oltp_requests.csv`); with `--trace`,
//! per-request spans land in the trace like any other experiment's.

use std::any::Any;
use std::fmt::Write as _;

use analysis::report::TextTable;
use engines::EngineKind;
use mjrt::experiment::downcast_shard;
use mjrt::{ExpCtx, Experiment, HarnessConfig, Report};
use mjserve::{serve, ServeConfig, ServeSummary};
use simcore::{ArchConfig, Cpu};

/// Arrival-rate multiples swept per engine (under-, at-, and over-load
/// around the configured `--arrival-rate`).
pub const RATE_MULTS: [f64; 3] = [0.5, 1.0, 2.0];

/// The serving experiment.
pub struct ServeOltp;

fn admit_sweep(base: u32) -> Vec<u32> {
    let mut v = vec![
        (base / 2).max(1),
        base.max(1),
        base.saturating_mul(4).max(2),
    ];
    v.dedup();
    v
}

fn serve_cfg(cfg: &HarnessConfig, kind: EngineKind, rate_mult: f64, admit: u32) -> ServeConfig {
    ServeConfig {
        kind,
        mix: cfg.mix,
        sessions: cfg.sessions,
        arrival_rate_hz: cfg.arrival_rate * rate_mult,
        admit_limit: admit,
        ..ServeConfig::default()
    }
}

struct ShardOut {
    /// Summary-table rows, one per admission-limit cell.
    rows: Vec<Vec<String>>,
    /// Per-family quantile rows, several per cell.
    families: Vec<Vec<String>>,
    /// Per-request CSV rows across every cell in this shard.
    requests: Vec<Vec<String>>,
}

fn cell_row(kind: EngineKind, rate_hz: f64, admit: u32, s: &ServeSummary) -> Vec<String> {
    vec![
        kind.name().to_owned(),
        format!("{rate_hz:.0}"),
        admit.to_string(),
        s.admitted.to_string(),
        s.queued.to_string(),
        s.rejected.to_string(),
        format!("{:.1}", s.latency_percentile_s(50.0) * 1e6),
        format!("{:.1}", s.latency_percentile_s(95.0) * 1e6),
        format!("{:.1}", s.latency_percentile_s(99.0) * 1e6),
        format!("{:.1}", s.latency_percentile_s(99.9) * 1e6),
        format!("{:.2}", s.energy_per_request_j() * 1e6),
        format!("{:.0}", s.throughput_rps()),
        format!("{:.1}", s.admit_rate() * 100.0),
        format!("{:.1}", s.slo.attainment() * 100.0),
    ]
}

/// One row per request family in a cell: interpolated latency quantiles
/// from the log2 histograms plus mean energy, and the cell's worst
/// rolling-window SLO state for context.
fn family_rows(kind: EngineKind, rate_hz: f64, admit: u32, s: &ServeSummary) -> Vec<Vec<String>> {
    s.family_slos()
        .iter()
        .map(|f| {
            vec![
                kind.name().to_owned(),
                format!("{rate_hz:.0}"),
                admit.to_string(),
                f.family.to_owned(),
                f.requests.to_string(),
                format!("{:.1}", f.latency_us.p50()),
                format!("{:.1}", f.latency_us.p95()),
                format!("{:.1}", f.latency_us.p99()),
                format!("{:.1}", f.latency_us.p999()),
                format!("{:.2}", f.energy_nj.mean() * 1e-3),
                format!("{:.2}", f.energy_nj.p99() * 1e-3),
                format!("{:.1}", s.slo.worst_window_admit_rate * 100.0),
                format!("{:.1}", s.slo.worst_window_violation_rate * 100.0),
            ]
        })
        .collect()
}

impl Experiment for ServeOltp {
    fn name(&self) -> &'static str {
        "serve_oltp"
    }

    fn shards(&self, _cfg: &HarnessConfig) -> usize {
        EngineKind::ROW.len() * RATE_MULTS.len()
    }

    fn run_shard(&self, shard: usize, ctx: &ExpCtx<'_>) -> Box<dyn Any + Send> {
        let kind = EngineKind::ROW[shard / RATE_MULTS.len()];
        let mult = RATE_MULTS[shard % RATE_MULTS.len()];
        let mut out = ShardOut {
            rows: Vec::new(),
            families: Vec::new(),
            requests: Vec::new(),
        };
        for admit in admit_sweep(ctx.cfg.admit_limit) {
            // Fresh machine per cell: cells are independent measurements.
            let mut cpu = Cpu::new(ArchConfig::intel_i7_4790());
            let scfg = serve_cfg(ctx.cfg, kind, mult, admit);
            let s = serve(&mut cpu, &scfg).expect("serve scenario");
            out.rows
                .push(cell_row(kind, scfg.arrival_rate_hz, admit, &s));
            out.families
                .extend(family_rows(kind, scfg.arrival_rate_hz, admit, &s));
            for r in &s.records {
                out.requests.push(vec![
                    kind.name().to_owned(),
                    format!("{:.0}", scfg.arrival_rate_hz),
                    admit.to_string(),
                    r.session.to_string(),
                    r.index.to_string(),
                    r.kind.to_owned(),
                    format!("{:.3}", r.arrival_s * 1e6),
                    format!("{:.3}", r.start_s * 1e6),
                    format!("{:.3}", r.finish_s * 1e6),
                    format!("{:.3}", r.latency_s() * 1e6),
                    format!("{:.3}", r.energy_j * 1e6),
                ]);
            }
        }
        Box::new(out)
    }

    fn assemble(&self, shards: Vec<Box<dyn Any + Send>>, ctx: &ExpCtx<'_>) -> Report {
        let mut t = TextTable::new([
            "engine", "rate/s", "admit", "admitted", "queued", "rejected", "p50 us", "p95 us",
            "p99 us", "p999 us", "uJ/req", "req/s", "admit %", "slo %",
        ]);
        let mut fams = TextTable::new([
            "engine",
            "rate/s",
            "admit",
            "family",
            "requests",
            "p50 us",
            "p95 us",
            "p99 us",
            "p999 us",
            "uJ/req",
            "p99 uJ",
            "worst admit %",
            "worst late %",
        ]);
        let mut reqs = TextTable::new([
            "engine",
            "rate/s",
            "admit",
            "session",
            "idx",
            "kind",
            "arrival us",
            "start us",
            "finish us",
            "latency us",
            "energy uJ",
        ]);
        for (i, s) in shards.into_iter().enumerate() {
            let out = downcast_shard::<ShardOut>(self.name(), i, s);
            for row in out.rows {
                t.row(row);
            }
            for row in out.families {
                fams.row(row);
            }
            for row in out.requests {
                reqs.row(row);
            }
        }
        let mut r = Report::new();
        writeln!(
            r,
            "== Serving: {} sessions, mix {}, open-loop tail latency vs energy/request ==",
            ctx.cfg.sessions,
            ctx.cfg.mix.name()
        )
        .unwrap();
        write!(r, "{}", t.render()).unwrap();
        ctx.maybe_write_csv("serve_oltp", &t);
        ctx.maybe_write_csv("serve_oltp_families", &fams);
        ctx.maybe_write_csv("serve_oltp_requests", &reqs);
        r
    }
}
