//! `serve-warm`: one closed-loop keep-alive client cycling every
//! registry target (JSON and text) against a warmed `accelwall serve`.
//!
//! After setup every timed request is a response-cache hit answered on
//! the reactor thread, so this loads http/reactor/conn/respcache and
//! leaves the compute layers and the pool idle.

use std::process::Command;
use std::time::{Duration, Instant};

use accelerator_wall::registry::Registry;

use crate::client::{ratio, scrape, Conn, Server};
use crate::gen::{get, Rng};
use crate::stats::{median, setup_s, Latencies};
use crate::trace::Tracer;
use crate::{Cfg, Metric, Window};

/// One target rendering (JSON or text) and the request that fetches it.
pub struct Target {
    pub id: &'static str,
    pub text: bool,
    pub request: Vec<u8>,
}

/// Every registry target, once as JSON and once as `text/plain`.
pub fn targets() -> Vec<Target> {
    Registry::paper()
        .ids()
        .into_iter()
        .flat_map(|id| {
            [false, true].map(|text| Target {
                id,
                text,
                request: get(&format!("/experiments/{id}"), text.then_some("text/plain")),
            })
        })
        .collect()
}

/// Spawns a server and GETs every target once; returns the server and
/// the bodies, or an error on any non-200.
fn warm_server(cfg: &Cfg, targets: &[Target]) -> Result<(Server, Vec<Vec<u8>>), String> {
    let server = Server::spawn(&cfg.accelwall)?;
    let mut conn = Conn::open(server.addr)?;
    let mut bodies = Vec::with_capacity(targets.len());
    for t in targets {
        let reply = conn.call(&t.request)?;
        if reply.status != 200 {
            return Err(format!("warming {} answered {}", t.id, reply.status));
        }
        bodies.push(reply.body);
    }
    Ok((server, bodies))
}

/// How many served bodies differ from `accelwall <id> [--json]`.
fn cli_mismatches(cfg: &Cfg, targets: &[Target], bodies: &[Vec<u8>]) -> Result<u64, String> {
    let mut mismatches = 0;
    for (t, body) in targets.iter().zip(bodies) {
        let out = Command::new(&cfg.accelwall)
            .arg(t.id)
            .args(if t.text { &[][..] } else { &["--json"][..] })
            .output()
            .map_err(|e| format!("running accelwall {}: {e}", t.id))?;
        if !out.status.success() || out.stdout != *body {
            eprintln!(
                "serve-warm: served {} (text={}) differs from the CLI",
                t.id, t.text
            );
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// Median time to connect and read the first (cached) response on a
/// fresh connection, in µs.
fn connect_us(server: &Server, request: &[u8]) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(25);
    for _ in 0..25 {
        let t = Instant::now();
        Conn::open(server.addr)?.call(request)?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

pub fn run(
    cfg: &Cfg,
    window: Duration,
    setup_reps: usize,
    tracer: &mut Tracer,
) -> Result<Window, String> {
    let targets = targets();
    let mut setups = Vec::with_capacity(setup_reps);
    let mut warmed = None;
    for _ in 0..setup_reps - setup_reps / 2 {
        if let Some((server, _)) = warmed.take() {
            Server::shutdown(server)?;
        }
        let t = Instant::now();
        warmed = Some(warm_server(cfg, &targets)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let Some((server, bodies)) = warmed else {
        return Err("no server was warmed".to_string());
    };
    let mut failed = cli_mismatches(cfg, &targets, &bodies)?;
    let mut attempted = targets.len() as u64;

    let mut order: Vec<usize> = (0..targets.len()).collect();
    Rng::new(cfg.seed).shuffle(&mut order);
    let before = scrape(server.addr)?;
    let mut conn = Conn::open(server.addr)?;
    let start = Instant::now();
    let mut lat = Latencies::new(start, window);
    let mut op = 0u64;
    while start.elapsed() < window {
        let i = order[op as usize % order.len()];
        op += 1;
        let t0 = Instant::now();
        let reply = tracer.span("warm.request", op, || conn.call(&targets[i].request))?;
        lat.push(t0, t0.elapsed());
        if reply.status != 200 || reply.body != bodies[i] {
            failed += 1;
        }
    }
    let after = scrape(server.addr)?;
    drop(conn);
    let peak_rss_mib = server.peak_rss_mib()?;
    let connect = connect_us(&server, &targets[0].request)?;
    server.shutdown()?;
    attempted += lat.len() as u64;
    for _ in 0..setup_reps / 2 {
        let t = Instant::now();
        let (server, _) = warm_server(cfg, &targets)?;
        setups.push(t.elapsed().as_secs_f64());
        server.shutdown()?;
    }

    let requests = after.requests_delta(&before);
    Ok(Window {
        attempted,
        failed,
        lat,
        setup_s: setup_s(&setups),
        peak_rss_mib,
        layer: vec![
            Metric::new(
                "server.reactor.polls_per_req",
                ratio(
                    after.delta(&before, "accelwall_reactor_polls_total"),
                    requests,
                ),
                "ratio",
            ),
            Metric::new(
                "server.conn.reuses_per_conn",
                // Less the one connection the closing scrape opened.
                ratio(
                    after.delta(&before, "accelwall_keepalive_reuses_total"),
                    after.delta(&before, "accelwall_connections_total") - 1.0,
                ),
                "ratio",
            ),
            Metric::new(
                "server.route_mean_us.experiments",
                after.route_mean_us(&before, "/experiments/{id}"),
                "us",
            ),
            Metric::new("client.connect_us", connect, "us"),
        ],
    })
}
