//! `accelwall-server` — a dependency-free HTTP artifact server over the
//! experiment registry.
//!
//! The one-shot CLI recomputes artifacts per invocation; this crate
//! turns the same registry into a long-lived service. A [`Server`] holds
//! one process-lifetime [`ArtifactCache`] (registry + shared-input
//! [`Ctx`](accelerator_wall::cache::Ctx) + per-experiment `OnceLock`s),
//! so the first request for a target computes it — dependencies first,
//! exactly like an `all` run — and every later request is served from
//! memory. The pipeline's compute-once invariant extends from "per
//! process run" to "per server lifetime", and `/metrics` exposes the
//! counters that prove it.
//!
//! Everything is `std`-only, one blocking thread per connection (see
//! DESIGN.md, "Connection threads"):
//!
//! * a **leader/follower crew** accepts: one thread blocks in
//!   `accept()`, hands that role to a parked thread (or a new one) when
//!   a connection arrives, and serves the connection itself;
//! * each **connection thread** blocks in `read`, parses pipelined
//!   HTTP/1.1 off its buffer, and answers in request order on that same
//!   thread — warm `GET`s straight from a pre-serialized
//!   [`respcache::ResponseCache`], warm `/query` specs of any other
//!   spelling from the query engine's LRU, everything else computed
//!   there too.
//!   Connections are keep-alive by default (closing only on error,
//!   `Connection: close`, or the idle timeout);
//! * a **compute gate** bounds the computing: at most
//!   [`ServerConfig::workers`] requests compute at once and
//!   [`ServerConfig::backlog`] more wait; the rest answer `503` in
//!   pipeline order instead of queueing unboundedly, and a hard
//!   concurrent-connection cap ([`ServerConfig::max_connections`])
//!   sheds whole connections the same way.
//!
//! Shutdown is a drain: `POST /shutdown` (or [`ServerHandle::shutdown`])
//! stops accepting, connections idle between requests close at once,
//! requests already under way finish, and [`Server::run`] returns once
//! the last connection has closed.
//!
//! # Routes
//!
//! | Route | Response |
//! |---|---|
//! | `GET /experiments` | the registry roster (same JSON as `accelwall list --json`) |
//! | `GET /experiments/{id}` | the artifact as JSON, or its text rendering with `Accept: text/plain` |
//! | `GET /query?...` | an ad-hoc what-if spec answered by the query engine (`accelwall-query`) |
//! | `POST /query` | the same, with the spec as a JSON body (`Content-Length`-capped) |
//! | `GET /query/schema` | query-field introspection: kinds, rosters, defaults |
//! | `GET /healthz` | `{"status": "ready"\|"degraded", "failed": [...]}` — degraded lists targets in `Failed` state |
//! | `GET /metrics` | Prometheus-style counters (requests, latency, cache, query engine, `Ctx`, containment) |
//! | `POST /shutdown` | begins the graceful drain |
//!
//! Unknown `{id}`s answer `404` with the same roster-carrying message as
//! the CLI — both derive from [`Registry`](accelerator_wall::registry::Registry),
//! so there is no hand-maintained route list to drift.
//!
//! # Failure containment
//!
//! Experiments can fail, panic, or hang; none of those may take the
//! server down with them (see DESIGN.md, "Failure semantics"):
//!
//! * a panicking experiment is caught inside the cache and answers `500`
//!   with a typed `"kind": "panic"` JSON body — and should a panic ever
//!   escape a request handler anyway, the connection thread catches it,
//!   drops that connection, and `worker_panics_total` counts it;
//! * a transient failure answers `500` with a `Retry-After` hint; the
//!   cache retries it (bounded attempts, exponential backoff) on later
//!   requests instead of memoizing the error forever;
//! * a compute still running after [`ServerConfig::compute_deadline`]
//!   answers `504` while the compute continues in the background;
//! * `/healthz` reports `degraded` (with the failed-target list) while
//!   any slot is in `Failed` state, for load-balancer use.
//!
//! Every path above can be provoked deterministically by arming
//! `ACCELWALL_FAULTS` (see the `accelwall-faults` crate); the
//! `serve-request` static site fires per computed request at the top of
//! the handler, and `serve-conn` fires per accepted connection at
//! admission. While a fault plan is armed the response cache is
//! bypassed entirely, so every request it would have answered reaches
//! the handler and its probes; a `/query` spec the query engine's LRU
//! holds is still answered before the gate, since nothing computes it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod http;
pub mod metrics;
pub mod respcache;

mod conn;
mod gate;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use accelerator_wall::artifacts::ArtifactCache;
use accelerator_wall::error::Error;
use accelerator_wall::json::Value;
use accelwall_query::spec::{pairs_from_json, pairs_from_query};
use accelwall_query::{Miss, QueryEngine, QueryError, QuerySpec};

use conn::Crew;
use gate::Gate;
use http::{Request, Response};
use metrics::{Metrics, Route};
use respcache::ResponseCache;

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, `HOST:PORT`. Port 0 picks a free port.
    pub addr: String,
    /// Requests computed at once. Response-cache hits, and `/query`
    /// specs the query engine's LRU already holds, take no slot.
    pub workers: usize,
    /// Requests allowed to wait for a compute slot beyond the busy
    /// ones; the rest are shed with `503`.
    pub backlog: usize,
    /// Per-socket write timeout, and the read timeout while a request
    /// is partly received (bounds slow clients).
    pub io_timeout: Duration,
    /// How long a `GET /experiments/{id}` request waits for a compute
    /// before answering `504` (the compute itself keeps running and can
    /// settle the cache for later requests).
    pub compute_deadline: Duration,
    /// Byte cap on the query engine's response LRU (`/query` routes;
    /// the response cache shares its bodies rather than copying them).
    pub query_cache_bytes: usize,
    /// Hard cap on concurrently open connections; excess accepts are
    /// shed with an immediate `503` + close.
    pub max_connections: usize,
    /// How long a connection may sit idle between requests before its
    /// thread closes it (keep-alive harvest; slowloris protection), and
    /// how long an idle thread waits to accept again before exiting.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8373".to_string(),
            workers: 4,
            backlog: 64,
            io_timeout: Duration::from_secs(5),
            compute_deadline: Duration::from_secs(30),
            query_cache_bytes: accelwall_query::engine::DEFAULT_CACHE_BYTES,
            max_connections: 1024,
            idle_timeout: Duration::from_secs(5),
        }
    }
}

/// A bound (but not yet running) artifact server.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
}

/// Everything the serving threads share.
#[derive(Debug)]
struct Shared {
    listener: TcpListener,
    addr: SocketAddr,
    config: ServerConfig,
    cache: Arc<ArtifactCache>,
    engine: QueryEngine,
    metrics: Arc<Metrics>,
    respcache: ResponseCache,
    shutdown: Arc<AtomicBool>,
    gate: Gate,
    crew: Mutex<Crew>,
    /// Wakes parked crew threads: a hand-off was posted, or the drain
    /// began.
    role: Condvar,
    /// Wakes [`Server::run`]: the last crew thread exited.
    exited: Condvar,
}

impl Shared {
    fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shutdown: Arc::clone(&self.shutdown),
            metrics: Arc::clone(&self.metrics),
        }
    }
}

/// A cheap handle for observing and stopping a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<Metrics>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Begins the graceful drain: no new connections are accepted,
    /// requests under way finish, then [`Server::run`] returns.
    pub fn shutdown(&self) {
        // AcqRel: the release side publishes "draining" to the serving
        // threads' Acquire loads; the acquire side orders this thread
        // after any earlier shutdown call it lost the race to.
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            // Wake the thread blocked in `accept()`.
            let _ = TcpStream::connect(self.addr);
        }
    }
}

impl Server {
    /// Binds the listener and builds the shared serving state.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (bad address, port in use).
    pub fn bind(config: ServerConfig, cache: ArtifactCache) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = Arc::new(cache);
        // The query engine shares the artifact cache (and through it the
        // memoized `Ctx`), so shadowed specs and ad-hoc points reuse the
        // same lowered programs the registry targets computed.
        let engine = QueryEngine::new(Arc::clone(&cache), config.query_cache_bytes);
        Ok(Server {
            shared: Arc::new(Shared {
                listener,
                addr,
                respcache: ResponseCache::new(respcache::CAPACITY_BYTES),
                gate: Gate::new(config.workers, config.backlog),
                config,
                cache,
                engine,
                metrics: Arc::new(Metrics::new()),
                shutdown: Arc::new(AtomicBool::new(false)),
                crew: Mutex::default(),
                role: Condvar::new(),
                exited: Condvar::new(),
            }),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle usable from other threads to stop the server.
    pub fn handle(&self) -> ServerHandle {
        self.shared.handle()
    }

    /// Serves until a drain is requested and every connection has
    /// closed, then returns. The calling thread takes the accept role
    /// first and joins the crew of connection threads.
    ///
    /// # Errors
    ///
    /// None today: per-connection errors are answered on the wire
    /// (4xx/5xx) or close that connection, never escalated.
    pub fn run(self) -> std::io::Result<()> {
        conn::run(&self.shared);
        Ok(())
    }
}

/// Locks a mutex, riding through poisoning: every value the server
/// guards is updated in single statements, so a panic elsewhere cannot
/// leave it torn.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps one parsed request onto a route and a response: every route
/// but `/query`, whose spec [`ask`] parses before the gate.
fn route_request(request: &Request, shared: &Shared) -> (Route, Response) {
    let Shared {
        cache,
        engine,
        metrics,
        respcache,
        ..
    } = shared;
    let get_only = |route: Route, response: Response| {
        if request.method == "GET" {
            (route, response)
        } else {
            (route, Response::method_not_allowed("GET"))
        }
    };
    match request.path.as_str() {
        "/healthz" => get_only(Route::Healthz, Response::json(200, healthz_body(cache))),
        "/experiments" => get_only(Route::Experiments, Response::json(200, roster_body(cache))),
        "/query/schema" => get_only(
            Route::QuerySchema,
            Response::json(200, {
                let mut body = QueryEngine::schema().pretty();
                body.push('\n');
                body
            }),
        ),
        "/metrics" => get_only(
            Route::Metrics,
            Response::text(
                200,
                metrics.render(
                    cache.stats(),
                    cache.ctx().counters(),
                    &engine.stats(),
                    &respcache.stats(),
                ),
            ),
        ),
        "/shutdown" => {
            if request.method == "POST" {
                shared.handle().shutdown();
                (Route::Shutdown, Response::text(200, "draining\n"))
            } else {
                (Route::Shutdown, Response::method_not_allowed("POST"))
            }
        }
        path => match path.strip_prefix("/experiments/") {
            Some(id) => {
                if request.method != "GET" {
                    return (Route::Experiment, Response::method_not_allowed("GET"));
                }
                (
                    Route::Experiment,
                    experiment_response(id, request, cache, shared.config.compute_deadline),
                )
            }
            None => (Route::Other, Response::text(404, no_such_route_body())),
        },
    }
}

/// The `GET /experiments` body: the registry roster, byte-identical to
/// `accelwall list --json` output.
fn roster_body(cache: &ArtifactCache) -> Vec<u8> {
    let mut body = cache.registry().roster_json().pretty();
    body.push('\n');
    body.into_bytes()
}

/// The `GET /healthz` body: `ready` when every requested target is fine,
/// `degraded` with the failed-target list otherwise. Always `200` — the
/// process itself is serving either way; load balancers key on
/// `"status"`.
fn healthz_body(cache: &ArtifactCache) -> Vec<u8> {
    let failed = cache.failed_targets();
    let status = if failed.is_empty() {
        "ready"
    } else {
        "degraded"
    };
    let mut body = Value::object([
        ("status", Value::from(status)),
        (
            "failed",
            Value::array(failed.iter().map(|f| {
                Value::object([
                    ("id", Value::from(f.id)),
                    ("attempts", Value::from(u64::from(f.attempts))),
                    ("error", Value::from(f.error.to_string())),
                    ("retryable", Value::from(f.retry_in.is_some())),
                ])
            })),
        ),
    ])
    .pretty();
    body.push('\n');
    body.into_bytes()
}

/// The unknown-route `404` body, naming every routable path. Built from
/// [`Route::ALL`]'s labels so the list cannot drift from the router.
fn no_such_route_body() -> String {
    let routes: Vec<&str> = Route::ALL
        .iter()
        .filter(|&&r| r != Route::Other)
        .map(|r| r.label())
        .collect();
    format!("no such route; routes: {}\n", routes.join(" "))
}

/// The `GET /experiments/{id}` body, honoring `Accept: text/plain`.
///
/// Failures answer with a typed JSON body — `kind` distinguishes a
/// contained panic, an injected fault, a deadline timeout, and an
/// ordinary compute error — plus a `Retry-After` hint whenever the
/// cache's retry budget leaves the target retryable.
fn experiment_response(
    id: &str,
    request: &Request,
    cache: &ArtifactCache,
    compute_deadline: Duration,
) -> Response {
    match cache.get_within(id, Some(compute_deadline)) {
        Ok(artifact) => {
            if request.wants_plain_text() {
                Response::text(200, &artifact.text)
            } else {
                let mut body = artifact.json.pretty();
                body.push('\n');
                Response::json(200, body)
            }
        }
        // The 404 body carries the registry roster, exactly like the
        // CLI's unknown-target error — no hand-maintained route list.
        Err(e @ Error::UnknownExperiment { .. }) => Response::text(404, format!("{e}\n")),
        // Still computing when the deadline expired: 504, definitely
        // worth retrying — the background compute may settle the slot.
        Err(e @ Error::ComputeTimeout { .. }) => {
            Response::json(504, failure_body(id, &e, None, true)).with_retry_after(1)
        }
        Err(e) => {
            let failure = cache.failure_of(id);
            let attempts = failure.as_ref().map(|f| f.attempts);
            let retry_in = failure.as_ref().and_then(|f| f.retry_in);
            let response = Response::json(500, failure_body(id, &e, attempts, retry_in.is_some()));
            match retry_in {
                // Round up so "retry after" never undershoots backoff.
                Some(wait) => response.with_retry_after(wait.as_secs_f64().ceil().max(1.0) as u64),
                None => response,
            }
        }
    }
}

/// The JSON body for a failed `GET /experiments/{id}`.
fn failure_body(id: &str, error: &Error, attempts: Option<u32>, retryable: bool) -> Vec<u8> {
    let kind = match error.root_cause() {
        Error::ExperimentPanicked { .. } => "panic",
        Error::FaultInjected { .. } => "injected",
        Error::ComputeTimeout { .. } => "timeout",
        _ => "compute",
    };
    let mut fields = vec![
        ("target", Value::from(id)),
        ("error", Value::from(error.to_string())),
        ("kind", Value::from(kind)),
        ("retryable", Value::from(retryable)),
    ];
    if let Some(attempts) = attempts {
        fields.push(("attempts", Value::from(u64::from(attempts))));
    }
    let mut body = Value::object(fields).pretty();
    body.push('\n');
    body.into_bytes()
}

/// Parses a `/query` request's spec — the query string of a `GET`, the
/// JSON body of a `POST` — once, before the compute gate, and looks it
/// up in the query engine's LRU. A hit answers right here, in any
/// spelling, and so does a refusal: a `400` with the roster-carrying
/// message the CLI prints, or a `405`. A miss continues to the gate with
/// its spec, for [`query_response`] to compute.
fn ask(request: &Request, engine: &QueryEngine) -> ControlFlow<Response, (QuerySpec, Miss)> {
    let pairs = match request.method.as_str() {
        "GET" => pairs_from_query(&request.query),
        "POST" => match std::str::from_utf8(&request.body)
            .ok()
            .and_then(|text| Value::parse(text).ok())
        {
            Some(doc) => pairs_from_json(&doc),
            None => {
                let response = Response::text(400, "request body is not valid JSON\n");
                return ControlFlow::Break(response);
            }
        },
        _ => return ControlFlow::Break(Response::method_not_allowed("GET, POST")),
    };
    let spec = match pairs.and_then(|pairs| QuerySpec::from_pairs(&pairs)) {
        Ok(spec) => spec,
        Err(e) => return ControlFlow::Break(Response::text(400, format!("{e}\n"))),
    };
    match engine.lookup(&spec) {
        Ok(body) => ControlFlow::Break(Response::shared_json(200, body)),
        Err(miss) => ControlFlow::Continue((spec, miss)),
    }
}

/// Computes the `/query` answer for a spec [`ask`] missed, under the
/// gate, and maps [`QueryError`] onto HTTP statuses:
///
/// * a transient compute failure (injected fault, deadline) —
///   `500`/`504` with a typed JSON body and `Retry-After`, mirroring
///   `/experiments/{id}` failure semantics;
/// * a non-retryable compute error (e.g. a vacuous projection horizon)
///   — `400`, because it is the caller's knobs that made it impossible.
fn query_response(engine: &QueryEngine, spec: &QuerySpec, miss: Miss) -> Response {
    let e = match engine.compute(spec, miss) {
        Ok(body) => return Response::shared_json(200, body),
        Err(e @ QueryError::Invalid(_)) => return Response::text(400, format!("{e}\n")),
        Err(QueryError::Engine(e)) => e,
    };
    let (status, kind, retryable) = match e.root_cause() {
        Error::FaultInjected { .. } => (500, "injected", true),
        Error::ComputeTimeout { .. } => (504, "timeout", true),
        Error::ExperimentPanicked { .. } => (500, "panic", false),
        _ => (400, "compute", false),
    };
    let mut body = Value::object([
        ("error", Value::from(e.to_string())),
        ("kind", Value::from(kind)),
        ("retryable", Value::from(retryable)),
    ])
    .pretty();
    body.push('\n');
    let response = Response::json(status, body);
    if retryable {
        response.with_retry_after(1)
    } else {
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelerator_wall::cache::Ctx;
    use accelerator_wall::json::Value;
    use accelerator_wall::prelude::{Registry, SweepSpace};
    use std::io::{Read, Write};

    fn coarse_server() -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backlog: 8,
            io_timeout: Duration::from_secs(10),
            compute_deadline: Duration::from_mins(2),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, cache).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    fn raw_request(addr: SocketAddr, head: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(head.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        raw_request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        )
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        raw_request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    /// Pulls the value off a `name value` metrics line.
    fn metric(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|line| line.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{text}"))
    }

    #[test]
    fn end_to_end_routes_cache_and_drain() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();

        // /healthz: ready, nothing failed yet.
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let health = Value::parse(&body).expect("healthz is valid JSON");
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ready"));
        assert_eq!(
            health
                .get("failed")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(0)
        );

        // /experiments mirrors the registry roster.
        let (status, body) = get(addr, "/experiments");
        assert_eq!(status, 200);
        let roster = Value::parse(&body).expect("roster is valid JSON");
        assert_eq!(
            roster.as_array().map(<[Value]>::len),
            Some(Registry::paper().len())
        );

        // An artifact twice: compute then hit, byte-identical bodies.
        let (status, first) = get(addr, "/experiments/fig3a");
        assert_eq!(status, 200);
        let (_, second) = get(addr, "/experiments/fig3a");
        assert_eq!(first, second);
        assert!(Value::parse(&first).is_ok());

        // Accept: text/plain returns the rendered text.
        let (status, text) = raw_request(
            addr,
            "GET /experiments/fig3a HTTP/1.1\r\nHost: t\r\nAccept: text/plain\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert!(text.contains("Fig. 3a"), "plain text rendering:\n{text}");

        // Unknown id: 404 carrying the roster, like the CLI.
        let (status, body) = get(addr, "/experiments/fig99");
        assert_eq!(status, 404);
        assert!(body.contains("unknown target"));
        assert!(body.contains("fig3a"));

        // Wrong method and unknown path.
        let (status, _) = raw_request(
            addr,
            "POST /experiments HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        let (status, _) = raw_request(addr, "garbage\r\n\r\n");
        assert_eq!(status, 400);

        // /metrics reflects all of the above.
        let (status, text) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(text.contains("accelwall_requests_total{route=\"/healthz\"} 1"));
        assert!(text.contains("accelwall_artifact_cache_computes_total 1"));
        // fig3a never touches the corpus; the line must exist and stay 0.
        assert!(text.contains("accelwall_ctx_corpus_computes 0"));

        // Graceful drain via POST /shutdown.
        let (status, body) = raw_request(
            addr,
            "POST /shutdown HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!((status, body.as_str()), (200, "draining\n"));
        join.join().expect("server thread").expect("clean exit");
        // The listener is closed: a late connect is refused, or, should
        // it land in a backlog the closing listener has not yet torn
        // down, its first read ends in EOF or a reset, never in a reply
        // or a wait.
        if let Ok(mut late) = TcpStream::connect(addr) {
            late.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("read timeout");
            let mut byte = [0u8; 1];
            match late.read(&mut byte) {
                Ok(0) => {}
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
                other => panic!("the listener outlived the drain: {other:?}"),
            }
        }
    }

    fn query_spec(query: &str) -> QuerySpec {
        QuerySpec::from_pairs(&pairs_from_query(query).expect("pairs")).expect("valid spec")
    }

    /// One spec's three spellings: canonical `GET`, reordered `GET`,
    /// `POST`.
    fn spellings(addr: SocketAddr) -> [(u16, String); 3] {
        [
            get(addr, "/query?workload=fft&node=7nm&lanes=4"),
            get(addr, "/query?lanes=4&node=7nm&workload=fft"),
            post(
                addr,
                "/query",
                r#"{"workload": "fft", "node": "7nm", "lanes": 4}"#,
            ),
        ]
    }

    #[test]
    fn query_routes_answer_shadow_and_introspect() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();

        // One spec in three spellings is one engine-LRU entry: the
        // canonical GET computes, the reordered GET and the POST are
        // byte-identical hits.
        let [cold, reordered, posted] = spellings(addr);
        assert_eq!(cold.0, 200, "cold query: {}", cold.1);
        let report = Value::parse(&cold.1).expect("query body is valid JSON");
        assert_eq!(report.get("kind").and_then(Value::as_str), Some("point"));
        assert_eq!(reordered, cold, "reordered spelling must be byte-identical");
        assert_eq!(posted, cold, "POST spelling must be byte-identical");
        let (_, text) = get(addr, "/metrics");
        assert_eq!(metric(&text, "accelwall_query_computes_total"), 1);
        assert_eq!(metric(&text, "accelwall_query_cache_hits_total"), 2);

        // A spec that shadows a registry target answers with the exact
        // artifact bytes that GET /experiments/{id} serves.
        let (status, via_query) = post(addr, "/query", r#"{"kind": "sweep", "workload": "s3d"}"#);
        assert_eq!(status, 200, "shadow query: {via_query}");
        let (status, via_registry) = get(addr, "/experiments/fig13");
        assert_eq!(status, 200);
        assert_eq!(
            via_query, via_registry,
            "shadowed spec must be byte-identical to the registry artifact"
        );

        // Introspection lists the field roster.
        let (status, schema) = get(addr, "/query/schema");
        assert_eq!(status, 200);
        let schema = Value::parse(&schema).expect("schema is valid JSON");
        assert!(schema.get("fields").and_then(Value::as_array).is_some());

        // Spec validation failures answer 400 with the roster, wrong
        // methods 405, and an oversized POST body 413 before any read.
        let (status, body) = get(addr, "/query?workload=fft&warp=9");
        assert_eq!(status, 400);
        assert!(body.contains("unknown field"), "roster error: {body}");
        assert!(body.contains("known fields:"), "roster error: {body}");
        let (status, _) = raw_request(
            addr,
            "PUT /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        let (status, body) = raw_request(
            addr,
            &format!(
                "POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
                http::MAX_BODY_BYTES + 1
            ),
        );
        assert_eq!(status, 413, "oversized body: {body}");
        let (status, _) = post(addr, "/query", "not json");
        assert_eq!(status, 400);
        // A literal past f64::MAX is a JSON parse error, not infinity.
        let (status, body) = post(
            addr,
            "/query",
            r#"{"kind":"projection","domain":"gpu","horizon":1e999}"#,
        );
        assert_eq!(status, 400, "out-of-range horizon: {body}");
        assert!(body.contains("not valid JSON"), "{body}");

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    /// Two valid specs whose 64-bit keys collide: after `A` is cached,
    /// `B` in every spelling still gets its own answer.
    #[test]
    fn specs_whose_keys_collide_each_get_their_own_answer() {
        const A: &str = "kind=csr&reported=1833480505&physical=2067011688";
        const B: &str = "kind=csr&reported=2414187501&physical=2690618908";
        let key = |q| accelwall_query::cache_key(&query_spec(q));
        assert_eq!(key(A), key(B), "the pair no longer collides");
        let (handle, join) = coarse_server();
        let addr = handle.addr();
        assert_eq!(get(addr, &format!("/query?{A}")).0, 200);
        let b_json = r#"{"kind": "csr", "reported": 2414187501, "physical": 2690618908}"#;
        for (status, body) in [
            get(addr, &format!("/query?{B}")),
            get(
                addr,
                "/query?physical=2690618908&reported=2414187501&kind=csr",
            ),
            post(addr, "/query", b_json),
        ] {
            assert_eq!(status, 200, "{body}");
            let doc = Value::parse(&body).expect("valid JSON");
            let field = |name| doc.get(name).and_then(Value::as_f64);
            assert_eq!(field("reported"), Some(2_414_187_501.0), "{body}");
            assert_eq!(field("physical"), Some(2_690_618_908.0), "{body}");
            assert_eq!(field("csr"), Some(0.897_261_033_073_807_6), "{body}");
        }
        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn a_tiny_query_cache_evicts_but_never_exceeds_its_cap() {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backlog: 8,
            io_timeout: Duration::from_secs(10),
            compute_deadline: Duration::from_mins(2),
            query_cache_bytes: 16 * 1024,
            ..ServerConfig::default()
        };
        let server = Server::bind(config, cache).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let addr = handle.addr();

        // Enough distinct point specs to overflow a 16 KiB LRU.
        for node in [
            "45nm", "32nm", "28nm", "22nm", "16nm", "14nm", "10nm", "7nm", "5nm",
        ] {
            for lanes in [1u32, 2, 4, 8] {
                let (status, body) = get(
                    addr,
                    &format!("/query?workload=fft&node={node}&lanes={lanes}"),
                );
                assert_eq!(status, 200, "point query: {body}");
            }
        }
        let (_, text) = get(addr, "/metrics");
        assert!(
            metric(&text, "accelwall_query_cache_evictions_total") > 0,
            "expected evictions under a tiny cap:\n{text}"
        );
        assert!(
            metric(&text, "accelwall_query_cache_bytes")
                <= metric(&text, "accelwall_query_cache_capacity_bytes"),
            "cache exceeded its byte cap:\n{text}"
        );

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    /// Reads exactly one `Content-Length`-framed response off a
    /// keep-alive connection (no EOF to lean on). `carry` holds bytes of
    /// later pipelined responses over-read by a previous call.
    fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String) {
        let mut chunk = [0u8; 4096];
        let (head_end, content_length, status) = loop {
            if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&carry[..pos]).expect("head is utf-8");
                let status = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                let len = head
                    .lines()
                    .find_map(|line| {
                        let (name, value) = line.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse::<usize>().ok())?
                    })
                    .unwrap_or(0);
                break (pos + 4, len, status);
            }
            let n = stream.read(&mut chunk).expect("read head");
            assert!(n > 0, "connection closed mid-head");
            carry.extend_from_slice(&chunk[..n]);
        };
        while carry.len() < head_end + content_length {
            let n = stream.read(&mut chunk).expect("read body");
            assert!(n > 0, "connection closed mid-body");
            carry.extend_from_slice(&chunk[..n]);
        }
        let body =
            String::from_utf8(carry[head_end..head_end + content_length].to_vec()).expect("utf-8");
        carry.drain(..head_end + content_length);
        (status, body)
    }

    #[test]
    fn keep_alive_and_pipelining_serve_in_order_on_one_connection() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();
        // Baselines over two close-mode connections.
        let (_, roster) = get(addr, "/experiments");
        let (_, schema) = get(addr, "/query/schema");

        // Three sequential requests reuse ONE connection...
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut carry = Vec::new();
        for _ in 0..3 {
            stream
                .write_all(b"GET /experiments HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("send");
            let (status, body) = read_framed(&mut stream, &mut carry);
            assert_eq!(status, 200);
            assert_eq!(body, roster, "keep-alive repeats must be byte-identical");
        }
        // ...and a pipelined burst written in one shot flushes strictly
        // in request order, closing after the final response.
        stream
            .write_all(
                b"GET /query/schema HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /experiments HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /query/schema HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .expect("send pipeline");
        let (s1, b1) = read_framed(&mut stream, &mut carry);
        let (s2, b2) = read_framed(&mut stream, &mut carry);
        let (s3, b3) = read_framed(&mut stream, &mut carry);
        assert_eq!((s1, s2, s3), (200, 200, 200));
        assert_eq!(b1, schema, "pipelined response 1 out of order");
        assert_eq!(b2, roster, "pipelined response 2 out of order");
        assert_eq!(b3, schema, "pipelined response 3 out of order");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("eof after close");
        assert!(rest.is_empty(), "bytes after Connection: close: {rest:?}");

        // 9 requests so far over 3 connections; the 4th fetches proof.
        let (_, text) = get(addr, "/metrics");
        assert_eq!(metric(&text, "accelwall_connections_total"), 4);
        assert!(
            metric(&text, "accelwall_keepalive_reuses_total") >= 5,
            "{text}"
        );
        assert!(
            metric(&text, "accelwall_pipelined_requests_total") >= 1,
            "{text}"
        );
        assert!(
            metric(&text, "accelwall_response_cache_hits_total") >= 2,
            "{text}"
        );

        // Warm `/experiments/{id}` hits are answered from the response
        // cache, and each one still adds its wall time to the route's
        // latency sum.
        let latency_sum = |text: &str| -> f64 {
            let name = "accelwall_request_latency_seconds_sum{route=\"/experiments/{id}\"}";
            text.lines()
                .find_map(|line| line.strip_prefix(name))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("{name} missing:\n{text}"))
        };
        let (status, _) = get(addr, "/experiments/fig3a");
        assert_eq!(status, 200);
        let (_, text) = get(addr, "/metrics");
        let (sum_before, hits_before) = (
            latency_sum(&text),
            metric(&text, "accelwall_response_cache_hits_total"),
        );
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut carry = Vec::new();
        for _ in 0..20 {
            stream
                .write_all(b"GET /experiments/fig3a HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("send");
            assert_eq!(read_framed(&mut stream, &mut carry).0, 200);
        }
        let (_, text) = get(addr, "/metrics");
        assert!(
            metric(&text, "accelwall_response_cache_hits_total") >= hits_before + 20,
            "{text}"
        );
        assert!(
            latency_sum(&text) > sum_before,
            "warm hits added no latency: {sum_before} -> {}",
            latency_sum(&text)
        );

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn idle_timeout_reaps_and_the_connection_cap_sheds() {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            backlog: 8,
            io_timeout: Duration::from_secs(10),
            compute_deadline: Duration::from_mins(2),
            max_connections: 2,
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, cache).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let addr = handle.addr();

        let mut first = TcpStream::connect(addr).expect("connect");
        let second = TcpStream::connect(addr).expect("connect");
        // Serve one request on the first so both admits are processed.
        first
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let (status, _) = read_framed(&mut first, &mut Vec::new());
        assert_eq!(status, 200);

        // The third connection is over the cap: immediate 503 + close.
        let mut third = TcpStream::connect(addr).expect("connect");
        let mut shed = String::new();
        third.read_to_string(&mut shed).expect("read shed");
        assert!(shed.starts_with("HTTP/1.1 503"), "over-cap reply: {shed}");
        assert!(shed.contains("connection limit reached"), "{shed}");

        // Both idle connections are reaped by the timeout (EOF, no bytes).
        let mut eof = String::new();
        first.read_to_string(&mut eof).expect("idle eof");
        assert!(eof.is_empty());
        let mut second = second;
        let mut eof = String::new();
        second.read_to_string(&mut eof).expect("idle eof");
        assert!(eof.is_empty());

        // With the slots free again, a fresh connection is served.
        let (status, text) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(metric(&text, "accelwall_connections_over_cap_total") >= 1);
        assert!(metric(&text, "accelwall_idle_timeouts_total") >= 2);
        assert_eq!(metric(&text, "accelwall_open_connections"), 1);

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    /// SplitMix64 — the repo's standard dependency-free PRNG idiom.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn socket_writes_split_at_arbitrary_boundaries_are_byte_identical() {
        let (handle, join) = coarse_server();
        let addr = handle.addr();
        let pipeline: &[u8] = b"GET /experiments HTTP/1.1\r\nHost: t\r\n\r\n\
                                GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                                GET /experiments HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        let run = |chunks: &[&[u8]]| -> Vec<u8> {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for chunk in chunks {
                stream.write_all(chunk).expect("send chunk");
                stream.flush().expect("flush");
                // Let the server observe a genuinely partial buffer.
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut out = Vec::new();
            stream.read_to_end(&mut out).expect("read responses");
            out
        };
        let reference = run(&[pipeline]);
        assert!(!reference.is_empty());
        let mut state = 0xACCE_1E2A_7012_u64;
        for _ in 0..5 {
            // Split the stream at 3 PRNG-chosen interior boundaries.
            let mut cuts: Vec<usize> = (0..3)
                .map(|_| 1 + (splitmix64(&mut state) as usize) % (pipeline.len() - 1))
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut chunks: Vec<&[u8]> = Vec::new();
            let mut prev = 0;
            for &cut in &cuts {
                chunks.push(&pipeline[prev..cut]);
                prev = cut;
            }
            chunks.push(&pipeline[prev..]);
            let split = run(&chunks);
            assert_eq!(
                split, reference,
                "split at {cuts:?} changed the response bytes"
            );
        }

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn handle_shutdown_drains_without_a_request() {
        let (handle, join) = coarse_server();
        handle.shutdown();
        handle.shutdown(); // idempotent
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn a_drain_closes_idle_keep_alive_connections_at_once() {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            idle_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, cache).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        assert_eq!(read_framed(&mut stream, &mut Vec::new()).0, 200);

        // The connection sits idle, far inside its 30 s idle timeout:
        // the drain must close it rather than wait the timeout out.
        let drain = std::time::Instant::now();
        handle.shutdown();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("EOF, not a timeout");
        assert!(rest.is_empty(), "bytes after the drain: {rest:?}");
        join.join().expect("server thread").expect("clean exit");
        assert!(
            drain.elapsed() < Duration::from_secs(2),
            "{:?}",
            drain.elapsed()
        );
    }

    #[test]
    fn the_compute_gate_queues_one_request_then_sheds_with_503() {
        let cache = ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            backlog: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind(config, cache).expect("bind");
        let shared = Arc::clone(&server.shared);
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let addr = handle.addr();
        // A cached spec, held once: the canonical GET's response-cache
        // entry and the engine's LRU entry share one body.
        let (status, cached) = get(addr, "/query?workload=fft&node=7nm&lanes=4");
        assert_eq!(status, 200, "{cached}");
        let wire = shared.respcache.get("query?workload=fft&node=7nm&lanes=4");
        let lru = shared
            .engine
            .lookup(&query_spec("workload=fft&node=7nm&lanes=4"));
        assert!(matches!((wire, lru), (Some((_, w)), Ok(l)) if Arc::ptr_eq(&w.body, &l)));

        // The test holds the only compute slot, so the next request
        // waits in the backlog...
        let held = shared.gate.enter().expect("a free slot");
        let second = std::thread::spawn(move || get(addr, "/healthz"));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while shared.gate.waiting() == 0 {
            assert!(std::time::Instant::now() < deadline, "never queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        // ...and with the backlog full too, the ones after are shed,
        // an uncached spec among them — but every spelling of the
        // cached spec needs no slot and still answers.
        for path in ["/healthz", "/query?workload=aes"] {
            let (status, body) = get(addr, path);
            assert_eq!(
                (status, body.as_str()),
                (503, "server saturated, retry later\n")
            );
        }
        for (status, body) in spellings(addr) {
            assert_eq!((status, &body), (200, &cached));
        }
        drop(held);
        let (status, _) = second.join().expect("second client");
        assert_eq!(status, 200, "the queued request runs once the slot frees");
        let (_, text) = get(addr, "/metrics");
        assert_eq!(metric(&text, "accelwall_connections_rejected_total"), 2);
        assert_eq!(metric(&text, "accelwall_query_computes_total"), 1);

        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn framing_the_parser_cannot_follow_gets_one_answer_then_eof() {
        let (handle, join) = coarse_server();
        let head = "POST /query HTTP/1.1\r\nHost: t\r\n";
        let body = r#"{"workload": "fft"}"#;
        let chunked = format!("{head}Transfer-Encoding: chunked\r\n\r\n13\r\n{body}\r\n0\r\n\r\n");
        let two_lengths = format!("{head}Content-Length: 2\r\nContent-Length: 19\r\n\r\n{body}");
        for (raw, status) in [(chunked, 501), (two_lengths, 400)] {
            // Keep-alive requests: had the server guessed at the framing,
            // the leftover body bytes would parse as a second request.
            let mut stream = TcpStream::connect(handle.addr()).expect("connect");
            stream.write_all(raw.as_bytes()).expect("send");
            let mut carry = Vec::new();
            assert_eq!(read_framed(&mut stream, &mut carry).0, status, "{raw:?}");
            stream
                .read_to_end(&mut carry)
                .expect("EOF after the refusal");
            assert!(
                carry.is_empty(),
                "a second response followed: {:?}",
                String::from_utf8_lossy(&carry)
            );
        }
        handle.shutdown();
        join.join().expect("server thread").expect("clean exit");
    }
}
