//! End-to-end tests of `accelwall serve`: spawn the real binary, speak
//! HTTP/1.1 over [`TcpStream`], and assert the service contract —
//! responses byte-identical to the one-shot CLI, shared inputs computed
//! at most once per server lifetime (observed through `/metrics`), and
//! a graceful drain that finishes in-flight requests before the process
//! exits.

mod common;

use accelerator_wall::json::Value;
use accelerator_wall::prelude::Registry;
use common::{cli_stdout, get, metric, read_response, request, Resp, ServeProcess};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// The acceptance test: concurrent requests for every registry target
/// return byte-identical JSON to `accelwall all --json`, the shared
/// inputs compute at most once across the whole server lifetime, and
/// the server drains gracefully with an in-flight request completing.
#[test]
fn serves_every_target_byte_identical_to_the_cli_then_drains() {
    let all = cli_stdout(&["all", "--json"]);
    let all_doc = Value::parse(&all).expect("all --json parses");

    let serve = ServeProcess::spawn(&["--workers", "4"], &[]);
    let addr = serve.addr.clone();

    // The roster route is byte-identical to `accelwall list --json`.
    let Resp {
        status,
        body: roster,
        ..
    } = get(&addr, "/experiments");
    assert_eq!(status, 200);
    assert_eq!(roster, cli_stdout(&["list", "--json"]));

    // Every target, requested concurrently from 8 client threads.
    let ids = Registry::paper().ids();
    std::thread::scope(|scope| {
        for chunk in ids.chunks(ids.len().div_ceil(8)) {
            let addr = &addr;
            let all_doc = &all_doc;
            scope.spawn(move || {
                for id in chunk {
                    let Resp { status, body, .. } = get(addr, &format!("/experiments/{id}"));
                    assert_eq!(status, 200, "{id} failed:\n{body}");
                    let mut expected = all_doc
                        .get(id)
                        .unwrap_or_else(|| panic!("{id} missing from all --json"))
                        .pretty();
                    expected.push('\n');
                    assert_eq!(body, expected, "{id}: server body != all --json");
                }
            });
        }
    });

    // The compute-once invariant held across the whole lifetime.
    let Resp {
        status,
        body: metrics,
        ..
    } = get(&addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metric(&metrics, "accelwall_ctx_corpus_computes") <= 1.0);
    assert!(metric(&metrics, "accelwall_ctx_model_computes") <= 1.0);
    assert!(metric(&metrics, "accelwall_ctx_fit_computes") <= 1.0);
    let computes = metric(&metrics, "accelwall_artifact_cache_computes_total");
    assert!(
        computes <= ids.len() as f64,
        "artifacts recomputed: {computes} > {}",
        ids.len()
    );
    // Demand exceeded computation: dependencies resolved through the
    // cache mean strictly fewer computes than requests would imply.
    assert!(metric(&metrics, "accelwall_artifact_cache_requests_total") >= ids.len() as f64);

    // Graceful drain with a request in flight: accept a connection,
    // leave its head unfinished, trigger shutdown, then finish the head
    // — the worker must still answer before the process exits.
    let mut slow = TcpStream::connect(&addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    slow.write_all(b"GET /experiments/wall HT")
        .expect("half a head");
    std::thread::sleep(Duration::from_millis(100));
    serve.shutdown();
    slow.write_all(b"TP/1.1\r\nHost: t\r\n\r\n")
        .expect("rest of the head");
    let Resp { status, body, .. } = read_response(&mut slow).expect("an answer");
    assert_eq!(status, 200, "in-flight request dropped during drain");
    assert!(Value::parse(&body).is_ok());
    serve.wait();
}

/// A dependent target requested first over HTTP computes its
/// prerequisites exactly once — the `CtxCounters` golden test extended
/// to the server path, observed through `/metrics`.
#[test]
fn dependent_target_over_http_computes_prerequisites_once() {
    let serve = ServeProcess::spawn(&["--workers", "4"], &[]);
    let addr = serve.addr.clone();

    // fig14 declares fig13 as a dependency; request the dependent first.
    let Resp { status, .. } = get(&addr, "/experiments/fig14");
    assert_eq!(status, 200);
    let metrics = get(&addr, "/metrics").body;
    assert_eq!(
        metric(&metrics, "accelwall_artifact_cache_computes_total"),
        2.0,
        "fig14 + its dep fig13"
    );

    // The prerequisite is already warm: a hit, no new compute.
    let Resp { status, .. } = get(&addr, "/experiments/fig13");
    assert_eq!(status, 200);
    let metrics = get(&addr, "/metrics").body;
    assert_eq!(
        metric(&metrics, "accelwall_artifact_cache_computes_total"),
        2.0
    );
    assert_eq!(metric(&metrics, "accelwall_artifact_cache_hits_total"), 1.0);
    // Both experiments priced their sweeps from one shared Ctx's walk
    // tables: fig14 built each workload's table once.
    assert_eq!(metric(&metrics, "accelwall_ctx_sweep_computes"), 16.0);
    assert!(
        metric(&metrics, "accelwall_ctx_sweep_requests")
            > metric(&metrics, "accelwall_ctx_sweep_computes")
    );

    serve.shutdown_and_wait();
}

/// Wire-level error handling: 404s carry the registry roster, wrong
/// methods get 405 + Allow, and garbage gets 400 — all without taking
/// the server down.
#[test]
fn error_responses_derive_from_the_registry() {
    let serve = ServeProcess::spawn(&["--workers", "4"], &[]);
    let addr = serve.addr.clone();

    let Resp { status, body, .. } = get(&addr, "/healthz");
    assert_eq!(status, 200);
    let health = Value::parse(&body).expect("healthz is JSON");
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ready"));
    assert!(health
        .get("failed")
        .and_then(Value::as_array)
        .expect("failed array")
        .is_empty());

    // Unknown id: the 404 body is the CLI's roster-carrying error.
    let Resp { status, body, .. } = get(&addr, "/experiments/fig99");
    assert_eq!(status, 404);
    assert!(body.contains("unknown target \"fig99\""));
    for id in Registry::paper().ids() {
        assert!(body.contains(id), "404 roster missing {id}");
    }

    // Unknown path: 404 naming the route table.
    let Resp { status, body, .. } = get(&addr, "/fig3b");
    assert_eq!(status, 404);
    assert!(body.contains("/experiments/{id}"));

    // Wrong methods: 405 with Allow.
    for (method, path) in [
        ("POST", "/experiments"),
        ("DELETE", "/experiments/fig3b"),
        ("GET", "/shutdown"),
        ("PUT", "/healthz"),
    ] {
        let Resp { status, .. } = request(&addr, method, path, None);
        assert_eq!(status, 405, "{method} {path}");
    }

    // Malformed request line: 400.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"not http at all\r\n\r\n").expect("send");
    let Resp { status, .. } = read_response(&mut stream).expect("an answer");
    assert_eq!(status, 400);

    // Accept: text/plain returns the human rendering, same bytes as the
    // one-shot CLI's default output.
    let Resp {
        status, body: text, ..
    } = request(&addr, "GET", "/experiments/fig3a", Some("text/plain"));
    assert_eq!(status, 200);
    assert_eq!(text, cli_stdout(&["fig3a"]));

    serve.shutdown_and_wait();
}
