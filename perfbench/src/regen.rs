//! `regen`: cold in-process replicas of `accelwall all --json`, one
//! caller in a closed loop.
//!
//! Every operation builds a fresh `Ctx`, runs the whole registry at the
//! default thread count and assembles the pretty-printed document the
//! CLI prints. The time is all in chipdb/dfg/accelsim/projection/studies
//! and core; the server and query crates are idle.

use std::process::Command;
use std::time::{Duration, Instant};

use accelerator_wall::cache::Ctx;
use accelerator_wall::error::Result as CoreResult;
use accelerator_wall::experiment::Artifact;
use accelerator_wall::json::Value;
use accelerator_wall::registry::Registry;

use crate::client::peak_rss_mib;
use crate::stats::{setup_s, Latencies};
use crate::trace::Tracer;
use crate::{Cfg, Metric, Window};

/// The `all --json` document exactly as the CLI prints it, plus whether
/// any target answered with an `"error"` entry.
pub fn assemble(results: &[(&'static str, CoreResult<Artifact>)]) -> (Vec<u8>, bool) {
    let mut failed = false;
    let doc = Value::object(results.iter().map(|(id, r)| {
        let v = match r {
            Ok(artifact) => artifact.json.clone(),
            Err(e) => {
                failed = true;
                Value::object([("error", Value::from(e.to_string()))])
            }
        };
        (*id, v)
    }));
    let mut text = doc.pretty();
    text.push('\n');
    (text.into_bytes(), failed)
}

/// One cold regeneration: fresh `Ctx`, full registry, assembled doc.
fn regenerate(ctx: &Ctx) -> Result<(Vec<u8>, bool), String> {
    let results = Registry::paper()
        .run_all(ctx)
        .map_err(|e| format!("scheduling failed: {e}"))?;
    Ok(assemble(&results))
}

/// Runs the shipped binary's `all --json` at `--threads 1` and at the
/// default; returns how many of the two outputs differ from `reference`.
fn cli_mismatches(cfg: &Cfg, reference: &[u8]) -> Result<u64, String> {
    let mut mismatches = 0;
    for threads in [&["--threads", "1"][..], &[]] {
        let out = Command::new(&cfg.accelwall)
            .args(["all", "--json"])
            .args(threads)
            .output()
            .map_err(|e| format!("running accelwall all --json: {e}"))?;
        if !out.status.success() || out.stdout != reference {
            eprintln!(
                "regen: `accelwall all --json {threads:?}` differs from the in-process document"
            );
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

pub fn run(
    cfg: &Cfg,
    window: Duration,
    setup_reps: usize,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let (reference, errored) = regenerate(&Ctx::new())?;
    // The peak of one cold regeneration: what one `accelwall all --json`
    // process holds. Back-to-back regenerations grow the allocator's
    // per-thread arenas further, by a different amount every run.
    let peak_rss_mib = peak_rss_mib("/proc/self/status")?;
    let mut failed = u64::from(errored);
    let mut attempted = 1;
    let mut setups = Vec::with_capacity(setup_reps);
    let setup_block = |setups: &mut Vec<f64>| -> Result<u64, String> {
        let t = Instant::now();
        let mismatches = cli_mismatches(cfg, &reference)?;
        setups.push(t.elapsed().as_secs_f64());
        Ok(mismatches)
    };
    for _ in 0..setup_reps - setup_reps / 2 {
        failed += setup_block(&mut setups)?;
        attempted += 2;
    }

    let (jobs0, steals0) = (accelwall_par::jobs_total(), accelwall_par::steals_total());
    let (mut sweep_computes, mut lowerings) = (0usize, 0usize);
    let start = Instant::now();
    let mut lat = Latencies::new(start, window);
    let mut op = 0u64;
    while start.elapsed() < window {
        op += 1;
        let t0 = Instant::now();
        let ctx = Ctx::new();
        let results = tracer.span("regen.run_all", op, || Registry::paper().run_all(&ctx));
        let doc = tracer.span("regen.assemble", op, || results.map(|r| assemble(&r)));
        lat.push(t0, t0.elapsed());
        match doc {
            Ok((bytes, false)) if bytes == reference => {}
            _ => failed += 1,
        }
        let counters = ctx.counters();
        sweep_computes += counters.sweep_computes;
        lowerings += counters.lowerings;
    }
    let ops = lat.len() as f64;
    let (jobs, steals) = (
        accelwall_par::jobs_total() - jobs0,
        accelwall_par::steals_total() - steals0,
    );
    // The rest of the set-up blocks, a window's length after the first.
    for _ in 0..setup_reps / 2 {
        failed += setup_block(&mut setups)?;
        attempted += 2;
    }
    Ok(Window {
        attempted: attempted + lat.len() as u64,
        failed,
        lat,
        setup_s: setup_s(&setups),
        peak_rss_mib,
        layer: vec![
            Metric::new("par.jobs", jobs as f64 / ops, "count"),
            Metric::new("par.steals", steals as f64 / ops, "count"),
            Metric::new("ctx.sweep_computes", sweep_computes as f64 / ops, "count"),
            Metric::new("ctx.lowerings", lowerings as f64 / ops, "count"),
        ],
    })
}
