//! Chaos tests of `accelwall serve` under an armed fault plan: every
//! static site in the faults roster fires, injected transient errors
//! answer 500-with-Retry-After and then recover byte-identical to the
//! CLI, contained experiment panics never reach the request handler,
//! `serve-request` panics drop the connection and are counted, hangs
//! turn into 504s while the compute settles in the background,
//! query-engine compute faults answer retryably without poisoning the
//! query LRU, and malformed `ACCELWALL_FAULTS` specs abort startup
//! before the socket binds.

mod common;

use accelerator_wall::json::Value;
use accelerator_wall::prelude::Registry;
use common::{cli_stdout, get, metric, try_request, ServeProcess};
use std::process::Command;
use std::thread;
use std::time::{Duration, Instant};

/// Comfortably past the cache's default retry backoff (25 ms, 50 ms,
/// ...) without slowing the suite down.
const PAST_BACKOFF: Duration = Duration::from_millis(300);

/// Spawns `accelwall serve` with `ACCELWALL_FAULTS=faults` and asserts
/// the armed-plan line echoes the spec back.
fn spawn(faults: &str, extra_args: &[&str]) -> ServeProcess {
    let mut args = vec!["--workers", "2"];
    args.extend_from_slice(extra_args);
    let mut serve = ServeProcess::spawn(&args, &[("ACCELWALL_FAULTS", Some(faults))]);
    let armed = serve.next_line();
    assert!(
        armed.contains("armed fault plan:"),
        "missing armed-plan announcement in {armed:?}"
    );
    serve
}

/// Every static site in the faults roster is probed by the running
/// server. Armed alone at `err:1`, each fires exactly once under one
/// fixed mix of requests, each on a new connection: `/healthz`, an
/// uncached `/experiments/fig3a` and a `/query` miss. A roster site
/// that nothing probes stays at 0 and fails here.
#[test]
fn every_static_fault_site_fires_under_a_fixed_mix() {
    for site in accelwall_faults::sites::names() {
        let serve = spawn(&format!("{site}:err:1"), &[]);
        let addr = serve.addr.clone();
        // Whichever request reaches the site first answers 503 or 500;
        // the budget is then spent and the rest pass.
        for path in [
            "/healthz",
            "/experiments/fig3a",
            "/query?workload=fft&node=7nm&lanes=2",
        ] {
            try_request(&addr, "GET", path, None);
        }
        let metrics = get(&addr, "/metrics").body;
        let fired = format!("accelwall_fault_injections_total{{site=\"{site}\",kind=\"err\"}} 1");
        assert!(metrics.contains(&fired), "{site} never fired:\n{metrics}");
        serve.shutdown_and_wait();
    }
}

/// The transient-error scenario: `fig3a:err:2` fails the first two
/// requests with a retryable 500, degrades `/healthz`, and the third
/// request (past the backoff) recovers byte-identical to the CLI, with
/// the retries visible in `/metrics` and no worker casualties.
#[test]
fn transient_errors_give_retryable_500s_then_recover_byte_identical() {
    let serve = spawn("fig3a:err:2", &[]);
    let addr = serve.addr.clone();

    let first = get(&addr, "/experiments/fig3a");
    assert_eq!(first.status, 500, "body:\n{}", first.body);
    let doc = first.json();
    assert_eq!(doc.get("target").and_then(Value::as_str), Some("fig3a"));
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("injected"));
    assert_eq!(doc.get("retryable").and_then(Value::as_bool), Some(true));
    assert!(
        first.header("retry-after").is_some(),
        "retryable 500 lacks Retry-After:\n{}",
        first.headers
    );

    // The failure shows up in /healthz, but the process stays up.
    let health = get(&addr, "/healthz");
    assert_eq!(health.status, 200);
    let hdoc = health.json();
    assert_eq!(hdoc.get("status").and_then(Value::as_str), Some("degraded"));
    let failed = hdoc.get("failed").and_then(Value::as_array).expect("array");
    assert!(failed
        .iter()
        .any(|f| f.get("id").and_then(Value::as_str) == Some("fig3a")));

    thread::sleep(PAST_BACKOFF);
    let second = get(&addr, "/experiments/fig3a");
    assert_eq!(second.status, 500, "body:\n{}", second.body);

    thread::sleep(PAST_BACKOFF);
    let third = get(&addr, "/experiments/fig3a");
    assert_eq!(third.status, 200, "body:\n{}", third.body);
    assert_eq!(
        third.body,
        cli_stdout(&["fig3a", "--json"]),
        "recovered artifact differs from the one-shot CLI"
    );

    let metrics = get(&addr, "/metrics").body;
    assert_eq!(
        metric(&metrics, "accelwall_artifact_cache_retries_total"),
        2.0
    );
    assert_eq!(metric(&metrics, "accelwall_worker_panics_total"), 0.0);
    assert_eq!(metric(&metrics, "accelwall_faults_armed"), 1.0);
    assert!(
        metrics.contains("accelwall_fault_injections_total{site=\"fig3a\",kind=\"err\"} 2"),
        "missing injection counter:\n{metrics}"
    );
    // The compute-once invariant, loosened only by the injected retries.
    let computes = metric(&metrics, "accelwall_artifact_cache_computes_total");
    let retries = metric(&metrics, "accelwall_artifact_cache_retries_total");
    assert!(
        computes <= Registry::paper().len() as f64 + retries,
        "recomputed a settled artifact: computes={computes} retries={retries}"
    );

    // Recovery clears the degradation.
    let hdoc = get(&addr, "/healthz").json();
    assert_eq!(hdoc.get("status").and_then(Value::as_str), Some("ready"));

    serve.shutdown_and_wait();
}

/// A panicking experiment is contained on its compute thread: the
/// request gets a retryable 500, other targets keep serving at full
/// capacity, no request handler panics, and the target recovers.
#[test]
fn a_panicking_experiment_is_contained_and_other_targets_keep_serving() {
    let serve = spawn("fig3a:panic:1", &[]);
    let addr = serve.addr.clone();

    let failed = get(&addr, "/experiments/fig3a");
    assert_eq!(failed.status, 500, "body:\n{}", failed.body);
    let doc = failed.json();
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("panic"));
    assert_eq!(doc.get("retryable").and_then(Value::as_bool), Some(true));

    // Other targets, concurrently, while fig3a sits failed.
    thread::scope(|scope| {
        for id in ["fig3b", "fig13"] {
            let addr = &addr;
            scope.spawn(move || {
                let resp = get(addr, &format!("/experiments/{id}"));
                assert_eq!(resp.status, 200, "{id} body:\n{}", resp.body);
            });
        }
    });

    let metrics = get(&addr, "/metrics").body;
    assert_eq!(
        metric(&metrics, "accelwall_artifact_cache_panics_contained_total"),
        1.0
    );
    // The panic died on a compute thread, not in the request handler.
    assert_eq!(metric(&metrics, "accelwall_worker_panics_total"), 0.0);

    thread::sleep(PAST_BACKOFF);
    let recovered = get(&addr, "/experiments/fig3a");
    assert_eq!(recovered.status, 200, "body:\n{}", recovered.body);
    assert_eq!(recovered.body, cli_stdout(&["fig3a", "--json"]));

    serve.shutdown_and_wait();
}

/// `serve-request:panic:N` panics the request handler itself: its
/// connection thread catches the panic, counts it, and drops the
/// connection (the client sees it close unanswered), and the server
/// keeps answering afterwards.
#[test]
fn handler_panics_drop_the_connection_and_the_server_keeps_answering() {
    let serve = spawn("serve-request:panic:2", &[]);
    let addr = serve.addr.clone();

    for i in 0..2 {
        assert!(
            try_request(&addr, "GET", "/healthz", None).is_none(),
            "connection {i} should have died on the injected worker panic"
        );
    }

    // Both handlers panicked and were contained; every subsequent
    // request is answered.
    thread::scope(|scope| {
        for _ in 0..2 {
            let addr = &addr;
            scope.spawn(move || {
                let resp = get(addr, "/healthz");
                assert_eq!(resp.status, 200);
                assert_eq!(
                    resp.json().get("status").and_then(Value::as_str),
                    Some("ready")
                );
            });
        }
    });

    // The panic counter may increment just after the client saw its
    // connection drop, so poll briefly rather than race it.
    let deadline = Instant::now() + Duration::from_secs(5);
    let metrics = loop {
        let metrics = get(&addr, "/metrics").body;
        if metric(&metrics, "accelwall_worker_panics_total") == 2.0 || Instant::now() > deadline {
            break metrics;
        }
        thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(metric(&metrics, "accelwall_worker_panics_total"), 2.0);
    assert!(
        metrics
            .contains("accelwall_fault_injections_total{site=\"serve-request\",kind=\"panic\"} 2"),
        "missing injection counter:\n{metrics}"
    );

    serve.shutdown_and_wait();
}

/// A hung compute exhausts the request's deadline (504 + Retry-After)
/// without wedging a slot: the attempt settles in the background and a
/// later request is served from it, with exactly one compute spent.
#[test]
fn a_hung_compute_times_out_with_504_then_settles() {
    let serve = spawn("fig3a:hang:600ms", &["--deadline-ms", "150"]);
    let addr = serve.addr.clone();

    let timed_out = get(&addr, "/experiments/fig3a");
    assert_eq!(timed_out.status, 504, "body:\n{}", timed_out.body);
    let doc = timed_out.json();
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("timeout"));
    assert_eq!(doc.get("retryable").and_then(Value::as_bool), Some(true));
    assert!(timed_out.header("retry-after").is_some());

    // The hung attempt keeps computing; poll until it lands.
    let deadline = Instant::now() + Duration::from_mins(1);
    let recovered = loop {
        thread::sleep(Duration::from_millis(300));
        let resp = get(&addr, "/experiments/fig3a");
        if resp.status == 200 {
            break resp;
        }
        assert_eq!(resp.status, 504, "body:\n{}", resp.body);
        assert!(Instant::now() < deadline, "compute never settled");
    };
    assert_eq!(recovered.body, cli_stdout(&["fig3a", "--json"]));

    let metrics = get(&addr, "/metrics").body;
    assert!(metric(&metrics, "accelwall_artifact_cache_compute_timeouts_total") >= 1.0);
    // One hang, no failures: the slot settled off a single attempt.
    assert_eq!(
        metric(&metrics, "accelwall_artifact_cache_retries_total"),
        0.0
    );

    serve.shutdown_and_wait();
}

/// The query engine under an armed plan: `query-compute:err:1` fails
/// the first miss with a retryable 500, and the failure is not memoized
/// — the retry computes cleanly (200) and a further repeat is served
/// from the LRU without another compute.
#[test]
fn injected_query_compute_faults_fail_retryably_without_poisoning_the_cache() {
    let serve = spawn("query-compute:err:1", &[]);
    let addr = serve.addr.clone();
    let path = "/query?workload=fft&node=7nm&lanes=2";

    let failed = get(&addr, path);
    assert_eq!(failed.status, 500, "body:\n{}", failed.body);
    let doc = failed.json();
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("injected"));
    assert_eq!(doc.get("retryable").and_then(Value::as_bool), Some(true));
    assert!(
        failed.header("retry-after").is_some(),
        "retryable 500 lacks Retry-After:\n{}",
        failed.headers
    );

    // The failed attempt was never cached: the retry recomputes and
    // answers 200, and the repeat after it is a pure LRU hit.
    let recovered = get(&addr, path);
    assert_eq!(recovered.status, 200, "body:\n{}", recovered.body);
    let warm = get(&addr, path);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.body, recovered.body, "warm repeat differs");

    let metrics = get(&addr, "/metrics").body;
    assert_eq!(metric(&metrics, "accelwall_query_computes_total"), 2.0);
    assert_eq!(metric(&metrics, "accelwall_query_cache_hits_total"), 1.0);
    assert!(
        metrics.contains("accelwall_fault_injections_total{site=\"query-compute\",kind=\"err\"} 1"),
        "missing injection counter:\n{metrics}"
    );
    // The fault stayed inside the engine: no worker died, and the
    // artifact cache never saw a failure.
    assert_eq!(metric(&metrics, "accelwall_worker_panics_total"), 0.0);
    assert_eq!(
        metric(&metrics, "accelwall_artifact_cache_retries_total"),
        0.0
    );

    serve.shutdown_and_wait();
}

/// The `serve-conn` site fires at admission on the accepting thread,
/// before any request is parsed: an `err` sheds the brand-new
/// connection with a 503 + close, and a `panic` is contained there —
/// the connection drops, but the server keeps accepting afterwards.
#[test]
fn injected_connection_faults_shed_or_drop_and_the_server_keeps_accepting() {
    // err: the connection is answered 503 and closed, never reaching
    // the parser or a handler.
    let serve = spawn("serve-conn:err:1", &[]);
    let addr = serve.addr.clone();
    let shed = get(&addr, "/healthz");
    assert_eq!(shed.status, 503, "body:\n{}", shed.body);
    assert!(
        shed.body
            .contains("injected transient fault at site \"serve-conn\""),
        "body:\n{}",
        shed.body
    );
    let ok = get(&addr, "/healthz");
    assert_eq!(ok.status, 200);
    let metrics = get(&addr, "/metrics").body;
    assert!(
        metrics.contains("accelwall_fault_injections_total{site=\"serve-conn\",kind=\"err\"} 1"),
        "missing injection counter:\n{metrics}"
    );
    serve.shutdown_and_wait();

    // panic: the connection drops with no bytes, the server survives
    // and keeps serving.
    let serve = spawn("serve-conn:panic:2", &[]);
    let addr = serve.addr.clone();
    for i in 0..2 {
        assert!(
            try_request(&addr, "GET", "/healthz", None).is_none(),
            "connection {i} should have been dropped by the injected accept panic"
        );
    }
    let resp = get(&addr, "/healthz");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.json().get("status").and_then(Value::as_str),
        Some("ready")
    );
    let metrics = get(&addr, "/metrics").body;
    assert!(
        metrics.contains("accelwall_fault_injections_total{site=\"serve-conn\",kind=\"panic\"} 2"),
        "missing injection counter:\n{metrics}"
    );
    // The contained panics never reached a request handler.
    assert_eq!(metric(&metrics, "accelwall_worker_panics_total"), 0.0);
    serve.shutdown_and_wait();
}

/// Malformed or unknown `ACCELWALL_FAULTS` specs abort startup with a
/// diagnostic instead of silently arming nothing.
#[test]
fn invalid_fault_specs_abort_startup() {
    // A rejected spec is a typed startup error: exit 1, never a panic's
    // exit 101.
    let spawn_expecting_failure = |spec: &str| -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_accelwall"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env("ACCELWALL_FAULTS", spec)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(
            out.status.code(),
            Some(1),
            "ACCELWALL_FAULTS={spec:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{err}");
        err
    };

    let err = spawn_expecting_failure("total-nonsense");
    assert!(err.contains("ACCELWALL_FAULTS is invalid"), "{err}");

    let err = spawn_expecting_failure("no-such-site:err:1");
    assert!(err.contains("no-such-site"), "{err}");

    let err = spawn_expecting_failure("fig3a:wobble:1");
    assert!(err.contains("wobble"), "{err}");

    let err = spawn_expecting_failure("fig3a:hang:oops");
    assert!(err.contains("oops"), "{err}");

    // Past what a `Duration` holds (~1.8e19 s).
    let err = spawn_expecting_failure("fig3a:hang:18446744073709551616s");
    assert!(err.contains("ACCELWALL_FAULTS is invalid"), "{err}");
}
