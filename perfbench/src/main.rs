//! `perfbench` — the end-to-end and per-layer benchmark of `accelwall`.
//!
//! ```text
//! perfbench --accelwall PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --accelwall PATH --steady RUNS [--workload NAME] [--seed N] [--seconds S]
//! ```
//!
//! With `--trace 0` one workload runs for `S` seconds and the last line
//! of stdout is one JSON object carrying `ops_per_s`, `latency_p50_us`,
//! `latency_p90_us`, `setup_s` and `peak_rss_mib`. With `--trace 1` the
//! run replays every layer and runs an untraced and a traced window of
//! every workload, and the last line carries the per-layer metrics
//! instead. `--steady` repeats runs as child processes and
//! prints each end-to-end metric's median, quartiles and range. See
//! README.md in this directory.

mod client;
mod gen;
mod layers;
mod mix;
mod regen;
mod stats;
mod trace;
mod warm;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

use accelerator_wall::json::Value;

use stats::{median, quartiles, Latencies};
use trace::Tracer;

/// The workloads, in the order the traced run visits them.
const WORKLOADS: [&str; 3] = ["regen", "serve-warm", "query-mix"];

/// Set-up blocks per run; `setup_s` is the fastest (see `stats::setup_s`).
const SETUP_REPS: usize = 21;

/// What every workload needs besides its window length.
pub struct Cfg {
    pub seed: u64,
    pub accelwall: PathBuf,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric::owned(name.to_string(), value, unit)
    }

    pub fn owned(name: String, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The outcome of one workload's timed window.
pub struct Window {
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed or whose output did not match.
    pub failed: u64,
    pub lat: Latencies,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    /// Per-layer counts taken over the window.
    pub layer: Vec<Metric>,
}

impl Window {
    fn end_to_end(&mut self) -> Result<Vec<Metric>, String> {
        let s = self.lat.summary()?;
        Ok(vec![
            Metric::new("ops_per_s", s.ops_per_s, "op/s"),
            Metric::new("latency_p50_us", s.p50_us, "us"),
            Metric::new("latency_p90_us", s.p90_us, "us"),
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_rss_mib", self.peak_rss_mib, "MiB"),
        ])
    }
}

fn run_workload(
    name: &str,
    cfg: &Cfg,
    window: Duration,
    setup_reps: usize,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    match name {
        "regen" => regen::run(cfg, window, setup_reps, tracer),
        "serve-warm" => warm::run(cfg, window, setup_reps, tracer),
        "query-mix" => mix::run(cfg, window, setup_reps, tracer),
        other => Err(format!(
            "unknown workload {other:?}; known: {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// The per-layer run: the replay, then an untraced and a traced window
/// of the same length for every workload, whose p50 difference is the
/// tracing overhead.
fn traced(cfg: &Cfg, seconds: f64) -> Result<(u64, u64, Vec<Metric>), String> {
    let mut metrics = layers::replay(cfg.seed)?;
    let (mut attempted, mut failed) = (0, 0);
    for name in WORKLOADS {
        // query-mix's cache counts need a full window: its wire cache
        // starts evicting only after tens of thousands of requests. The
        // untraced window matches it, so that both p50s see the same
        // cache state and only tracing separates them.
        let window = Duration::from_secs_f64(if name == "query-mix" {
            seconds
        } else {
            (seconds / 4.0).max(1.0)
        });
        let mut plain = run_workload(name, cfg, window, 1, &mut Tracer::new(false))?;
        let mut tracer = Tracer::new(true);
        let mut traced = run_workload(name, cfg, window, 1, &mut tracer)?;
        for line in tracer.summary() {
            eprintln!("{name}: {line}");
        }
        let overhead = traced.lat.summary()?.p50_us - plain.lat.summary()?.p50_us;
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
        metrics.append(&mut traced.layer);
        metrics.push(Metric::owned(
            format!("trace.overhead_us.{name}"),
            overhead,
            "us",
        ));
    }
    Ok((attempted, failed, metrics))
}

fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Value::object([
        ("correct", Value::from(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::object(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Value::object([
                        ("value", Value::from(m.value)),
                        ("unit", Value::from(m.unit)),
                    ]),
                )
            })),
        ),
    ])
    .to_string()
}

/// Repeats `runs` runs of each workload as child processes, with seeds
/// `seed..seed+runs`, and prints each end-to-end metric's spread.
fn steady(args: &Args, runs: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    for workload in workloads {
        let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
        for seed in args.seed..args.seed + runs {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                ])
                .arg("--accelwall")
                .arg(&args.accelwall)
                .output()
                .map_err(|e| format!("running {workload} seed {seed}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let doc =
                Value::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}: {last:?}"))?;
            if !out.status.success() || doc.get("correct") != Some(&Value::Bool(true)) {
                return Err(format!("{workload} seed {seed} failed: {last}"));
            }
            for (name, m) in doc
                .get("metrics")
                .and_then(Value::as_object)
                .unwrap_or_default()
            {
                let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or_default();
                match values.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, v)) => v.push(value),
                    None => values.push((name.clone(), unit.to_string(), vec![value])),
                }
            }
            eprintln!("{workload} seed {seed}: {last}");
        }
        println!("{workload}: {runs} runs of {} s", args.seconds);
        println!(
            "  {:<16} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12}",
            "metric", "median", "q1", "q3", "iqr/med", "min", "max"
        );
        for (name, unit, v) in &values {
            let med = median(v);
            let (q1, q3) = quartiles(v).unwrap_or((med, med));
            let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "  {:<16} {med:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}% {lo:>12.4} {hi:>12.4} {unit}",
                name,
                100.0 * (q3 - q1) / med
            );
        }
    }
    Ok(())
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    accelwall: PathBuf,
    steady: Option<u64>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        accelwall: PathBuf::from("target/release/accelwall"),
        steady: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                };
            }
            "--accelwall" => args.accelwall = PathBuf::from(value()?),
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    if let Some(runs) = args.steady {
        steady(args, runs)?;
        return Ok(true);
    }
    let cfg = Cfg {
        seed: args.seed,
        accelwall: args.accelwall.clone(),
    };
    let workload = args.workload.as_deref().ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let (attempted, failed, metrics) = if args.trace {
        traced(&cfg, args.seconds)?
    } else {
        let window = Duration::from_secs_f64(args.seconds);
        let mut w = run_workload(workload, &cfg, window, SETUP_REPS, &mut Tracer::new(false))?;
        (w.attempted, w.failed, w.end_to_end()?)
    };
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(|args| run(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: some outputs did not match");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
