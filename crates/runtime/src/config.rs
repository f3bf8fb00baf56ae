//! One typed harness configuration, parsed once.
//!
//! [`HarnessConfig`] holds every knob of a run. It is parsed from CLI flags
//! only ([`HarnessConfig::from_args`]) and threaded through the runtime to
//! every experiment shard via [`crate::ExpCtx`].

use std::path::PathBuf;

use mjserve::MixKind;

/// Calibration op budget for harness runs (larger than the unit-test quick
/// budget; still seconds, not minutes).
pub const DEFAULT_CAL_OPS: u64 = 120_000;

/// The harness default TPC-H scale, in "paper megabytes" (a reduced-scale
/// stand-in for the paper's 100 MB baseline).
pub const DEFAULT_SCALE: f64 = 4.0;

/// Default ARM/DTCM experiment scale (the paper's 10 MB configuration).
pub const DEFAULT_ARM_SCALE: f64 = 10.0;

/// Default §5 DVFS-trade-off scale (large enough that the PG index scan is
/// genuinely memory-bound).
pub const DEFAULT_SEC5_SCALE: f64 = 96.0;

/// Default count of seeded fuzz queries the differential harness appends to
/// its fixed corpus.
pub const DEFAULT_DIFF_FUZZ: usize = 50;

/// Typed harness configuration, parsed from CLI flags.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// TPC-H scale in "paper megabytes" (`--scale`).
    pub scale: f64,
    /// ARM/DTCM experiment scale (`--arm-scale`).
    pub arm_scale: f64,
    /// §5 DVFS trade-off scale (`--sec5-scale`).
    pub sec5_scale: f64,
    /// Calibration op budget (`--cal-ops`).
    pub cal_ops: u64,
    /// Write plotting-ready CSVs (`--csv`).
    pub csv: bool,
    /// Root directory for CSV output; each run creates one timestamped
    /// subdirectory under it (`--results-dir`).
    pub results_root: PathBuf,
    /// Worker threads for the experiment scheduler (`--jobs`; `0` means
    /// "auto": one worker per available hardware thread).
    pub jobs: usize,
    /// Case-sensitive substring filter on experiment names (`--filter`).
    pub filter: Option<String>,
    /// Collect energy-attributed spans and write `trace.jsonl` +
    /// `trace.json` (Chrome `trace_event`) into the run directory
    /// (`--trace[=DIR]`). Never changes the report stream.
    pub trace: bool,
    /// Explicit directory for trace files (`--trace=DIR`); `None` uses the
    /// per-run `results/run-*/` directory.
    pub trace_dir: Option<PathBuf>,
    /// Print the metrics summary after the suite and write `metrics.json`
    /// into the run directory (`--metrics`).
    pub metrics: bool,
    /// Client sessions for the serving experiment (`--sessions`, at least 1).
    pub sessions: u32,
    /// Per-session open-loop arrival rate in requests per virtual second
    /// for the serving experiment (`--arrival-rate`).
    pub arrival_rate: f64,
    /// Admission tokens (max concurrently executing requests) for the
    /// serving experiment (`--admit-limit`).
    pub admit_limit: u32,
    /// Request-family mix for the serving experiment: `oltp`, `ycsb`,
    /// `tpch`, or `dml` (`--mix`).
    pub mix: MixKind,
    /// Seeded fuzz queries the differential harness runs after its fixed
    /// corpus (`--diff-fuzz`; `0` runs the fixed corpus only).
    pub diff_fuzz: usize,
}

impl Default for HarnessConfig {
    fn default() -> HarnessConfig {
        HarnessConfig {
            scale: DEFAULT_SCALE,
            arm_scale: DEFAULT_ARM_SCALE,
            sec5_scale: DEFAULT_SEC5_SCALE,
            cal_ops: DEFAULT_CAL_OPS,
            csv: false,
            results_root: PathBuf::from("results"),
            jobs: 1,
            filter: None,
            trace: false,
            trace_dir: None,
            metrics: false,
            sessions: 64,
            arrival_rate: 200.0,
            admit_limit: 8,
            mix: MixKind::Oltp,
            diff_fuzz: DEFAULT_DIFF_FUZZ,
        }
    }
}

/// `--jobs 0` means "auto": one worker per available hardware thread (1 if
/// the platform cannot tell).
fn resolve_jobs(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n
    }
}

impl HarnessConfig {
    /// Defaults overridden by CLI flags. Errors carry a usage string
    /// suitable for printing.
    pub fn from_args<I, S>(args: I) -> Result<HarnessConfig, String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut cfg = HarnessConfig::default();
        cfg.apply_args(args)?;
        Ok(cfg)
    }

    /// Apply CLI flags on top of this configuration.
    pub fn apply_args<I, S>(&mut self, args: I) -> Result<(), String>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            let mut value = |name: &str| {
                it.next()
                    .map(|v| v.as_ref().to_owned())
                    .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
            };
            match arg {
                "--jobs" | "-j" => {
                    self.jobs = resolve_jobs(parse(&value("--jobs")?, "--jobs")?);
                }
                "--filter" | "-f" => self.filter = Some(value("--filter")?),
                "--trace" => self.trace = true,
                "--metrics" => self.metrics = true,
                "--profile" => {
                    self.trace = true;
                    self.metrics = true;
                }
                "--scale" => self.scale = positive(&value("--scale")?, "--scale")?,
                "--arm-scale" => self.arm_scale = positive(&value("--arm-scale")?, "--arm-scale")?,
                "--sec5-scale" => {
                    self.sec5_scale = positive(&value("--sec5-scale")?, "--sec5-scale")?;
                }
                "--cal-ops" => self.cal_ops = parse(&value("--cal-ops")?, "--cal-ops")?,
                "--csv" => self.csv = true,
                "--results-dir" => self.results_root = PathBuf::from(value("--results-dir")?),
                "--sessions" => match parse(&value("--sessions")?, "--sessions")? {
                    0 => return Err(format!("--sessions must be at least 1\n{USAGE}")),
                    n => self.sessions = n,
                },
                "--arrival-rate" => {
                    self.arrival_rate = positive(&value("--arrival-rate")?, "--arrival-rate")?;
                }
                "--admit-limit" => {
                    self.admit_limit = parse(&value("--admit-limit")?, "--admit-limit")?;
                }
                "--mix" => {
                    let v = value("--mix")?;
                    self.mix = MixKind::parse(&v)
                        .ok_or_else(|| format!("unknown mix {v:?} for --mix\n{USAGE}"))?;
                }
                "--diff-fuzz" => self.diff_fuzz = parse(&value("--diff-fuzz")?, "--diff-fuzz")?,
                other if other.starts_with("--trace=") => {
                    self.trace = true;
                    let dir = &other["--trace=".len()..];
                    if dir.is_empty() {
                        return Err(format!("--trace= needs a directory\n{USAGE}"));
                    }
                    self.trace_dir = Some(PathBuf::from(dir));
                }
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        Ok(())
    }
}

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("cannot parse {v:?} for {flag}\n{USAGE}"))
}

/// A scale or a rate: a finite number above zero.
fn positive(v: &str, flag: &str) -> Result<f64, String> {
    match parse::<f64>(v, flag)? {
        x if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(format!(
            "{flag} must be a finite number above zero, not {v:?}\n{USAGE}"
        )),
    }
}

/// CLI usage string shared by the harness binaries.
pub const USAGE: &str = "\
usage: [--jobs N (0 = auto)] [--filter SUBSTR] [--scale MB] [--arm-scale MB]
       [--sec5-scale MB] [--cal-ops N] [--csv] [--results-dir DIR]
       [--trace[=DIR]] [--metrics] [--profile] [--sessions N]
       [--arrival-rate HZ] [--admit-limit N] [--mix oltp|ycsb|tpch|dml]
       [--diff-fuzz N] [--list]

--trace writes trace.jsonl + trace.json (Chrome trace_event, energy-width
spans) plus the mjprof rollups flame.folded (energy flamegraph) and
profile.json (per-operator attribution) into the per-run results
directory; --metrics prints the metrics summary and writes metrics.json
there; --profile is shorthand for --trace --metrics, which together
produce everything profdiff compares. None of them changes the report
stream.
--sessions/--arrival-rate/--admit-limit/--mix shape the serving experiment
(serve_oltp): client-stream count, per-session open-loop rate in requests
per virtual second, admission tokens, and the request-family mix.
--diff-fuzz sets how many seeded fuzz queries the differential harness
(difftest) runs after its fixed corpus (default 50; 0 = corpus only); any
disagreement or invariant violation fails the run.";

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn flags_override_defaults() {
        let mut cfg = HarnessConfig::default();
        assert_eq!(cfg.diff_fuzz, DEFAULT_DIFF_FUZZ);
        cfg.apply_args([
            "--jobs",
            "4",
            "--filter",
            "fig0",
            "--scale",
            "2.5",
            "--csv",
            "--diff-fuzz",
            "0",
        ])
        .unwrap();
        assert_eq!(cfg.jobs, 4);
        assert_eq!(cfg.filter.as_deref(), Some("fig0"));
        assert_eq!(cfg.scale, 2.5);
        assert!(cfg.csv);
        assert_eq!(cfg.diff_fuzz, 0);
        assert!(!cfg.trace && !cfg.metrics);
    }

    #[test]
    fn jobs_zero_means_auto() {
        let mut cfg = HarnessConfig::default();
        cfg.apply_args(["--jobs", "0"]).unwrap();
        assert!(cfg.jobs >= 1, "auto resolves to at least one worker");
        let expect = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        assert_eq!(cfg.jobs, expect);
    }

    #[test]
    fn trace_and_metrics_flags() {
        let mut cfg = HarnessConfig::default();
        cfg.apply_args(["--trace", "--metrics"]).unwrap();
        assert!(cfg.trace && cfg.metrics);
        assert_eq!(cfg.trace_dir, None);

        let mut cfg = HarnessConfig::default();
        cfg.apply_args(["--trace=/tmp/traces"]).unwrap();
        assert!(cfg.trace);
        assert_eq!(cfg.trace_dir.as_deref(), Some(Path::new("/tmp/traces")));
        assert!(cfg.apply_args(["--trace="]).is_err());
    }

    #[test]
    fn profile_flag_implies_trace_and_metrics() {
        let mut cfg = HarnessConfig::default();
        cfg.apply_args(["--profile"]).unwrap();
        assert!(cfg.trace && cfg.metrics);
        assert_eq!(cfg.trace_dir, None);
    }

    #[test]
    fn serve_flags_override_defaults() {
        let mut cfg = HarnessConfig::default();
        assert_eq!(cfg.sessions, 64);
        cfg.apply_args([
            "--sessions",
            "16",
            "--arrival-rate",
            "450.5",
            "--admit-limit",
            "3",
            "--mix",
            "ycsb",
        ])
        .unwrap();
        assert_eq!(cfg.sessions, 16);
        assert_eq!(cfg.arrival_rate, 450.5);
        assert_eq!(cfg.admit_limit, 3);
        assert_eq!(cfg.mix, MixKind::Ycsb);
        assert!(cfg.apply_args(["--sessions", "many"]).is_err());
    }

    #[test]
    fn bad_flags_are_rejected() {
        let mut cfg = HarnessConfig::default();
        assert!(cfg.apply_args(["--jobs", "zero"]).is_err());
        assert!(cfg.apply_args(["--wat"]).is_err());
        assert!(cfg.apply_args(["--filter"]).is_err());
        assert!(cfg.apply_args(["--diff-fuzz", "some"]).is_err());
        assert!(cfg.apply_args(["--mix", "bogus"]).is_err());
        assert!(cfg.apply_args(["--sessions", "0"]).is_err());
        assert_eq!((cfg.mix, cfg.sessions), (MixKind::Oltp, 64));
        for flag in ["--scale", "--arm-scale", "--sec5-scale", "--arrival-rate"] {
            for bad in ["0", "-1", "nan", "inf"] {
                assert!(
                    cfg.apply_args([flag, bad]).is_err(),
                    "{flag} {bad} must be rejected"
                );
            }
        }
        let d = HarnessConfig::default();
        assert_eq!(
            (cfg.scale, cfg.arm_scale, cfg.sec5_scale, cfg.arrival_rate),
            (d.scale, d.arm_scale, d.sec5_scale, d.arrival_rate)
        );
    }
}
