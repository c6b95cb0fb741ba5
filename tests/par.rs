//! Integration tests of the `accelwall-par` compute pool: parallel
//! results ordered exactly like the serial loop, experiment panics
//! surfacing as [`Error::ExperimentPanicked`] through the artifact
//! cache's contained compute threads, thread count never leaking into
//! artifact bytes (`accelwall all --json` is byte-identical at 1 and 8
//! threads), and `--threads` observably pinning the served pool size.

mod common;

use accelerator_wall::json::Value;
use accelerator_wall::prelude::*;
use common::{get, ServeProcess};
use std::process::Command;

#[test]
fn par_map_matches_the_serial_loop_at_integration_scale() {
    // A mapping heavy enough to fan out across every worker, with a
    // value that would expose any index shuffling or chunk misplacement.
    let f = |i: usize| (i as f64).sqrt().mul_add(i as f64, 1.0);
    let serial: Vec<f64> = (0..10_000).map(f).collect();
    let parallel = accelwall_par::par_map(10_000, f);
    assert_eq!(parallel, serial);

    let chunked =
        accelwall_par::par_map_reduce(10_000, 64, move |r| r.map(f).sum::<f64>(), |a, b| a + b);
    // The tree reduction is deterministic, not just close: same chunk
    // boundaries, same fold order, every run.
    let again =
        accelwall_par::par_map_reduce(10_000, 64, move |r| r.map(f).sum::<f64>(), |a, b| a + b);
    assert_eq!(chunked.map(f64::to_bits), again.map(f64::to_bits));
}

#[test]
fn a_panicking_experiment_surfaces_as_experiment_panicked_through_the_cache() {
    // Arm a one-shot panic at the fig3a compute site, then request it
    // through the cache. The attempt runs on a shared `accelwall-par`
    // carrier thread; containment must still hold there: the requester
    // gets a typed error, the panic is counted, and nothing else dies.
    accelwall_faults::arm(accelwall_faults::FaultPlan::parse("fig3a:panic:1").expect("valid spec"))
        .expect("plan arms");
    let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
    match cache.get("fig3a") {
        Err(Error::ExperimentPanicked { id }) => assert_eq!(id, "fig3a"),
        other => panic!("expected ExperimentPanicked, got {other:?}"),
    }
    assert_eq!(cache.stats().panics_contained, 1);
    // The pool (and the whole process) survived the contained panic.
    let alive = accelwall_par::par_map(100, |i| i * 2);
    assert_eq!(alive[99], 198);
}

#[test]
fn all_json_is_byte_identical_across_thread_counts() {
    // The determinism contract of the whole pipeline: chunked RNG
    // streams, fixed-chunk regression sums, and index-placed map results
    // mean thread count can never leak into artifact bytes. One serial
    // run (env pinned to 1) against one parallel run (flag pinned to 8).
    let serial = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(["all", "--json"])
        .env(accelwall_par::THREADS_ENV, "1")
        .output()
        .expect("serial all runs");
    assert!(serial.status.success(), "serial all failed");
    let parallel = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(["all", "--json", "--threads", "8"])
        .env_remove(accelwall_par::THREADS_ENV)
        .output()
        .expect("parallel all runs");
    assert!(parallel.status.success(), "parallel all failed");
    assert!(
        serial.stdout == parallel.stdout,
        "all --json bytes differ between 1 and 8 threads"
    );
    // And the document is real JSON with every roster target present.
    let doc = Value::parse(&String::from_utf8_lossy(&serial.stdout)).expect("valid JSON");
    for id in Registry::paper().ids() {
        assert!(doc.get(id).is_some(), "{id} missing from all --json");
    }
}

#[test]
fn serve_reports_the_pinned_pool_size() {
    // `serve --threads 3` must reach the pool before anything starts it:
    // /metrics then gauges 3 - 1 = 2 workers (the submitting thread is
    // the third participant).
    let serve = ServeProcess::spawn(
        &["--workers", "2", "--threads", "3"],
        &[(accelwall_par::THREADS_ENV, None)],
    );
    let metrics = get(&serve.addr, "/metrics").body;
    let workers_line = metrics
        .lines()
        .find(|l| l.starts_with("accelwall_par_workers "))
        .unwrap_or_else(|| panic!("accelwall_par_workers missing in:\n{metrics}"));
    assert_eq!(workers_line, "accelwall_par_workers 2");
    assert!(metrics.contains("accelwall_par_jobs_total "));
    assert!(metrics.contains("accelwall_par_steals_total "));
    serve.shutdown_and_wait();
}
