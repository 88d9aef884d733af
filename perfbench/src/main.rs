//! End-to-end and per-layer benchmark of the ISOP+ reproduction.
//!
//! ```text
//! perfbench --workload optimize-cnn|daemon-fresh|daemon-large-store \
//!           --seed N --seconds S --trace 0|1 --isop PATH --scratch DIR
//! ```
//!
//! Every workload is a closed loop. With `--trace 0` the last stdout line
//! carries the end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics (alternate blocks of jobs run traced and untraced, so the
//! difference of their median latencies is the tracing overhead). Any failed correctness check prints `"correct": false` and
//! exits non-zero. See `README.md` next to this file for the workload
//! rationale and the layer → metric → workload map.

mod daemon;
mod optimize;
mod probe;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `isop` CLI binary the daemon workloads spawn.
    pub isop: PathBuf,
    /// Private directory for this run's stores and logs.
    pub scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{}'", argv[i]))?;
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: num("seed")? as u64,
        seconds: num("seconds")?,
        trace: get("trace")? == "1",
        isop: PathBuf::from(get("isop")?),
        scratch: PathBuf::from(get("scratch")?),
    })
}

/// What one workload run produced: the metrics it reports plus the
/// correctness tally.
#[derive(Default)]
pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub errors: Vec<String>,
    /// Metric name → (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl RunOutcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Jobs every timed window completes at least, even past `--seconds`, so
/// that p90 has ten samples beyond it.
pub const MIN_JOBS: usize = 110;

/// Latencies of the timed window plus its wall, from which the five
/// end-to-end metrics derive.
pub struct Timed {
    pub latencies: Vec<f64>,
    pub wall: f64,
}

impl Timed {
    pub fn put_end_to_end(&self, out: &mut RunOutcome, setup_s: f64, peak_rss_mb: f64) {
        out.put("jobs_per_s", self.latencies.len() as f64 / self.wall, "1/s");
        out.put("latency_p50_s", quantile(&self.latencies, 0.5), "s");
        out.put("latency_p90_s", quantile(&self.latencies, 0.9), "s");
        out.put("setup_s", setup_s, "s");
        out.put("peak_rss_mb", peak_rss_mb, "MB");
    }
}

/// Whether job `i` of a traced run is traced: alternate blocks of eight,
/// so both halves cover every task × space cell equally.
pub fn traced_job(i: u64) -> bool {
    (i / 8) % 2 == 1
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// Worker width of every workload: the machine's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_result(out: &RunOutcome) {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: scratch {}: {e}", args.scratch.display());
        return ExitCode::from(2);
    }
    let result = match args.workload.as_str() {
        "optimize-cnn" => optimize::run(&args),
        "daemon-fresh" => daemon::run(&args, daemon::Kind::Fresh),
        "daemon-large-store" => daemon::run(&args, daemon::Kind::LargeStore),
        other => Err(format!("unknown workload '{other}'")),
    };
    let _ = std::fs::remove_dir_all(&args.scratch);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, (value, _)) in &mut out.metrics {
        if !value.is_finite() {
            out.errors.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    print_result(&out);
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
