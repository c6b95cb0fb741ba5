//! `query-mix`: a seeded open loop of what-if queries against a fresh
//! `accelwall serve`, down one pipelined keep-alive connection.
//!
//! One sender thread follows a fixed-rate arrival schedule; the calling
//! thread reads the replies in order. The mix writes to the response
//! cache (inserts and evictions) beside its reads and drives the pool
//! and the query engine: spec parse, canonical key, LRU, admission and
//! `simulate_lowered`. It is the only workload where requests queue.

use std::io::Write;
use std::net::Shutdown;
use std::sync::Arc;
use std::time::{Duration, Instant};

use accelerator_wall::artifacts::ArtifactCache;
use accelerator_wall::cache::Ctx;
use accelerator_wall::registry::Registry;
use accelerator_wall::workloads::Workload;
use accelwall_query::engine::DEFAULT_CACHE_BYTES;
use accelwall_query::{QueryEngine, QuerySpec};

use crate::client::{ratio, read_reply, scrape, Conn, Server};
use crate::gen::{get, schedule, Pool, Rng, Spec};
use crate::stats::{percentile, setup_s, Latencies};
use crate::trace::Tracer;
use crate::{Cfg, Metric, Window};

/// Mean arrival rate of the open loop, requests per second.
const RATE: u64 = 1000;

/// Specs re-answered in process after the window to check served bytes.
const SAMPLE: usize = 64;

/// The validated spec behind a pool entry.
pub fn query_spec(spec: &Spec) -> Result<QuerySpec, String> {
    let pairs: Vec<(String, String)> = spec
        .pairs
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect();
    QuerySpec::from_pairs(&pairs).map_err(|e| format!("generated spec is invalid: {e}"))
}

/// An in-process engine over a fresh cache, as `accelwall serve` builds it.
pub fn engine() -> QueryEngine {
    QueryEngine::new(
        Arc::new(ArtifactCache::new(Registry::paper(), Ctx::new())),
        DEFAULT_CACHE_BYTES,
    )
}

/// Spawns a server and sweeps every workload through `/query` once, so
/// the lazily built inputs every later query needs (graphs, lowered
/// programs, sweeps) exist before the window opens.
fn spawn_warmed(cfg: &Cfg) -> Result<Server, String> {
    let server = Server::spawn(&cfg.accelwall)?;
    let mut conn = Conn::open(server.addr)?;
    for w in Workload::all() {
        let path = format!(
            "/query?kind=sweep&workload={}",
            w.abbrev().to_ascii_lowercase()
        );
        let reply = conn.call(&get(&path, None))?;
        if reply.status != 200 {
            return Err(format!("{path} answered {}", reply.status));
        }
    }
    Ok(server)
}

pub fn run(
    cfg: &Cfg,
    window: Duration,
    setup_reps: usize,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let pool = Pool::new(cfg.seed);
    let n = (RATE as f64 * window.as_secs_f64()) as usize;
    let reqs = pool.requests(cfg.seed, n);
    let due = schedule(cfg.seed, n, RATE);
    let mut setups = Vec::with_capacity(setup_reps);
    let mut server = None;
    for _ in 0..setup_reps - setup_reps / 2 {
        if let Some(s) = server.take() {
            Server::shutdown(s)?;
        }
        let t = Instant::now();
        server = Some(spawn_warmed(cfg)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let Some(server) = server else {
        return Err("no server was started".to_string());
    };

    let before = scrape(server.addr)?;
    let (mut writer, mut reader) = Conn::open(server.addr)?.split();
    let control = writer.try_clone().map_err(|e| e.to_string())?;
    let mut bodies: Vec<Option<Vec<u8>>> = vec![None; pool.specs.len()];
    let mut failed = 0u64;
    let start = Instant::now();
    let mut lat = Latencies::new(start, window);
    let (late, received) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> Result<Vec<u64>, String> {
            let mut late = Vec::with_capacity(n);
            for (k, r) in reqs.iter().enumerate() {
                let at = start + due[k];
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                late.push(u64::try_from(at.elapsed().as_nanos()).unwrap_or(u64::MAX));
                writer
                    .write_all(&r.bytes)
                    .map_err(|e| format!("sending request {k}: {e}"))?;
            }
            Ok(late)
        });
        let mut received = Ok(());
        for (k, r) in reqs.iter().enumerate() {
            let reply = match read_reply(&mut reader) {
                Ok(reply) => reply,
                Err(e) => {
                    // Unblock the sender before reporting.
                    let _ = control.shutdown(Shutdown::Both);
                    received = Err(format!("reply {k}: {e}"));
                    break;
                }
            };
            let at = start + due[k];
            let done = Instant::now();
            lat.push(at, done.saturating_duration_since(at));
            tracer.record("mix.request", k as u64, at, done);
            match (reply.status, &bodies[r.spec]) {
                (200, Some(first)) if *first == reply.body => {}
                (200, None) => bodies[r.spec] = Some(reply.body),
                _ => failed += 1,
            }
        }
        let late = sender
            .join()
            .unwrap_or_else(|_| Err("sender thread panicked".to_string()));
        (late, received)
    });
    received?;
    let mut late = late?;
    drop(reader);
    drop(control);
    let after = scrape(server.addr)?;
    let peak_rss_mib = server.peak_rss_mib()?;
    server.shutdown()?;
    for _ in 0..setup_reps / 2 {
        let t = Instant::now();
        let server = spawn_warmed(cfg)?;
        setups.push(t.elapsed().as_secs_f64());
        server.shutdown()?;
    }

    // Served bytes against the in-process engine, on a seeded sample.
    let engine = engine();
    let seen: Vec<usize> = (0..bodies.len()).filter(|&i| bodies[i].is_some()).collect();
    let mut rng = Rng::new(cfg.seed ^ 0x00c0_ffee);
    for _ in 0..SAMPLE.min(seen.len()) {
        let i = seen[rng.below(seen.len())];
        let answer = engine.answer(&query_spec(&pool.specs[i])?);
        if !matches!((&answer, &bodies[i]), (Ok(a), Some(b)) if **a == *b) {
            eprintln!("query-mix: served answer for spec {i} differs from QueryEngine::answer");
            failed += 1;
        }
    }

    late.sort_unstable();
    let late_p90_us = percentile(&late, 0.9)? as f64 / 1e3;
    let requests = after.requests_delta(&before);
    let hits = after.delta(&before, "accelwall_response_cache_hits_total");
    let misses = after.delta(&before, "accelwall_response_cache_misses_total");
    let qhits = after.delta(&before, "accelwall_query_cache_hits_total");
    let qmisses = after.delta(&before, "accelwall_query_cache_misses_total");
    Ok(Window {
        attempted: lat.len() as u64 + SAMPLE.min(seen.len()) as u64,
        failed,
        lat,
        setup_s: setup_s(&setups),
        peak_rss_mib,
        layer: vec![
            Metric::new(
                "server.respcache.hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
            ),
            Metric::new(
                "server.respcache.evictions",
                after.delta(&before, "accelwall_response_cache_evictions_total"),
                "count",
            ),
            Metric::new(
                "server.pool_share",
                ratio(requests - hits, requests),
                "ratio",
            ),
            Metric::new(
                "server.route_mean_us.query",
                after.route_mean_us(&before, "/query"),
                "us",
            ),
            Metric::new(
                "query.lru_hit_ratio",
                ratio(qhits, qhits + qmisses),
                "ratio",
            ),
            Metric::new(
                "query.computes",
                after.delta(&before, "accelwall_query_computes_total"),
                "count",
            ),
            Metric::new(
                "query.shed",
                after.delta(&before, "accelwall_query_shed_total"),
                "count",
            ),
            Metric::new("loadgen.late_p90_us", late_p90_us, "us"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelwall_server::{Server as InProcess, ServerConfig};

    #[test]
    fn every_generated_spec_answers_in_process() {
        let pool = Pool::new(5);
        let engine = engine();
        for spec in &pool.specs {
            let answer = engine.answer(&query_spec(spec).unwrap());
            assert!(answer.is_ok(), "{spec:?}: {answer:?}");
        }
    }

    /// Sends the first `n` requests of a seed's mix one at a time to a
    /// fresh in-process server; returns (query computes, wire inserts).
    fn counts(seed: u64, n: usize) -> (f64, f64) {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        };
        let server =
            InProcess::bind(config, ArtifactCache::new(Registry::paper(), Ctx::new())).unwrap();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let mut conn = Conn::open(handle.addr()).unwrap();
        for r in Pool::new(seed).requests(seed, n) {
            assert_eq!(conn.call(&r.bytes).unwrap().status, 200);
        }
        let after = scrape(handle.addr()).unwrap();
        drop(conn);
        handle.shutdown();
        thread.join().unwrap().unwrap();
        (
            after.get("accelwall_query_computes_total"),
            after.get("accelwall_response_cache_insertions_total"),
        )
    }

    #[test]
    fn same_seed_same_metrics_counts() {
        let a = counts(9, 400);
        assert!(a.0 > 0.0 && a.1 > 0.0, "{a:?}");
        assert_eq!(a, counts(9, 400));
    }
}
