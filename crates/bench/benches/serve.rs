//! Throughput/latency baseline for `accelwall serve`.
//!
//! Starts an in-process server (4 workers, the CLI default) backed by
//! the full paper registry and measures the three numbers that define
//! the artifact-server value proposition:
//!
//! 1. **cold first request** — `GET /experiments/fig14` on an empty
//!    cache (computes fig13 + fig14 and their sweeps);
//! 2. **warm-cache latency** — the same request again, served from the
//!    per-experiment `OnceLock` cache;
//! 3. **warm throughput** — 8 client threads hammering a warm target,
//!    requests per second — measured twice: close-per-request (every
//!    request pays connect + teardown) and keep-alive (one connection
//!    per client, requests pipelined 16 deep), plus a concurrency sweep
//!    over 1/8/64/256 keep-alive connections, each row timed from a
//!    barrier after every client has connected (its slowest connect is
//!    reported beside it as `connect_ms`);
//! 4. **query cold/warm latency and hit rate** — `GET /query` for an
//!    ad-hoc design point: the cold miss computes through the engine,
//!    the warm repeats come out of the sharded LRU, and the hit rate is
//!    read back from `/metrics`;
//! 5. **disarmed fault-probe cost** — `accelwall_faults::probe` with no
//!    `ACCELWALL_FAULTS` plan armed, which every request and compute
//!    attempt pays; the bench asserts it stays under 5 % of the warm
//!    request path.
//!
//! The output is one JSON document, with the host's core count as
//! `cores`; `BENCH_serve.json` at the repo root records a baseline run
//! (`cargo bench -p accelwall-bench --bench serve > BENCH_serve.json`).

use accelerator_wall::prelude::{ArtifactCache, Ctx, Registry};
use accelwall_server::{Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    assert!(
        response.starts_with("HTTP/1.1 200"),
        "bench request failed:\n{response}"
    );
    response
}

/// Drives `requests` GETs for `path` down ONE keep-alive connection in
/// pipelined bursts of `depth`, asserting every response is a 200.
fn keepalive_client(mut stream: TcpStream, path: &str, requests: usize, depth: usize) {
    stream.set_nodelay(true).ok();
    let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    let mut burst_bytes = Vec::with_capacity(request.len() * depth);
    let mut carry = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut remaining = requests;
    while remaining > 0 {
        let burst = remaining.min(depth);
        burst_bytes.clear();
        for _ in 0..burst {
            burst_bytes.extend_from_slice(request.as_bytes());
        }
        stream.write_all(&burst_bytes).expect("send burst");
        for _ in 0..burst {
            read_frame(&mut stream, &mut carry, &mut scratch);
        }
        remaining -= burst;
    }
}

/// Reads one `Content-Length`-framed response off `stream` (via the
/// cross-call `carry` buffer, which may already hold pipelined bytes).
fn read_frame(stream: &mut TcpStream, carry: &mut Vec<u8>, scratch: &mut [u8]) {
    loop {
        if let Some(head_end) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&carry[..head_end]).into_owned();
            assert!(
                head.starts_with("HTTP/1.1 200"),
                "bench request failed:\n{head}"
            );
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .and_then(|v| v.trim().parse().ok())
                .expect("Content-Length");
            let total = head_end + 4 + length;
            while carry.len() < total {
                let n = stream.read(scratch).expect("read body");
                assert!(n > 0, "connection closed mid-frame");
                carry.extend_from_slice(&scratch[..n]);
            }
            carry.drain(..total);
            return;
        }
        let n = stream.read(scratch).expect("read head");
        assert!(n > 0, "connection closed mid-head");
        carry.extend_from_slice(&scratch[..n]);
    }
}

fn main() {
    let cache = ArtifactCache::new(Registry::paper(), Ctx::new());
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, cache).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let run = std::thread::spawn(move || server.run());

    // 1. Cold first request: computes the artifact and its dependency.
    let cold_start = Instant::now();
    get(addr, "/experiments/fig14");
    let cold = cold_start.elapsed();

    // 2. Warm-cache latency: mean over repeated single-client requests.
    const WARM_SAMPLES: u32 = 200;
    let warm_start = Instant::now();
    for _ in 0..WARM_SAMPLES {
        get(addr, "/experiments/fig14");
    }
    let warm = warm_start.elapsed() / WARM_SAMPLES;

    // 3. Warm throughput: 8 clients, fixed request budget each.
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 250;
    get(addr, "/experiments/fig3b"); // warm the target
    let throughput_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                for _ in 0..REQUESTS_PER_CLIENT {
                    get(addr, "/experiments/fig3b");
                }
            });
        }
    });
    let throughput_wall = throughput_start.elapsed();
    let total_requests = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    let rps = total_requests / throughput_wall.as_secs_f64();

    // 3b. Keep-alive throughput: the same 8 clients, but each holds ONE
    // connection and pipelines requests 16 deep — the connection
    // thread's warm path (parse → response-cache hit → writev), no
    // per-request connect/teardown.
    const PIPELINE_DEPTH: usize = 16;
    const KEEPALIVE_REQUESTS_PER_CLIENT: usize = 4_000;
    let keepalive_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                keepalive_client(
                    TcpStream::connect(addr).expect("connect"),
                    "/experiments/fig3b",
                    KEEPALIVE_REQUESTS_PER_CLIENT,
                    PIPELINE_DEPTH,
                );
            });
        }
    });
    let keepalive_wall = keepalive_start.elapsed();
    let keepalive_total = (CLIENTS * KEEPALIVE_REQUESTS_PER_CLIENT) as f64;
    let rps_keepalive = keepalive_total / keepalive_wall.as_secs_f64();
    let keepalive_close_ratio = rps_keepalive / rps;

    // 3c. Concurrency sweep: keep-alive throughput as the connection
    // count scales past the compute-slot count (each connection has its
    // own thread; cache hits never take a compute slot). Every client
    // connects first; the clock starts once all have, so a slow
    // handshake shows up in `connect_ms`, not in `rps`.
    let mut sweep = Vec::new();
    for conns in [1usize, 8, 64, 256] {
        let per_client = (16_384 / conns).max(PIPELINE_DEPTH);
        let connected = Barrier::new(conns + 1);
        let (wall, slowest_connect) = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..conns)
                .map(|_| {
                    scope.spawn(|| {
                        let dial = Instant::now();
                        let stream = TcpStream::connect(addr).expect("connect");
                        let connect = dial.elapsed();
                        connected.wait();
                        keepalive_client(stream, "/experiments/fig3b", per_client, PIPELINE_DEPTH);
                        connect
                    })
                })
                .collect();
            connected.wait();
            let start = Instant::now();
            let slowest = clients
                .into_iter()
                .map(|client| client.join().expect("sweep client"))
                .max()
                .unwrap_or_default();
            (start.elapsed(), slowest)
        });
        sweep.push((
            conns,
            (conns * per_client) as f64 / wall.as_secs_f64(),
            slowest_connect,
        ));
    }

    // 4. Query engine: cold miss vs warm repeat. The warm repeats are
    // served upstream of the engine (the server's pre-serialized
    // response cache), so the hit rate is counted as "query answers
    // served without spending a compute" — a before/after delta of the
    // engine's compute counter over the query phase. CI gates it at
    // 0.995 (one compute in 201 requests).
    const QUERY: &str = "/query?workload=fft&node=7nm&lanes=4";
    const QUERY_WARM_SAMPLES: u32 = 200;
    let counter = |metrics: &str, name: &str| -> f64 {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing"))
    };
    let before = get(addr, "/metrics");
    let computes_before = counter(&before, "accelwall_query_computes_total");
    let query_cold_start = Instant::now();
    get(addr, QUERY);
    let query_cold = query_cold_start.elapsed();
    let query_warm_start = Instant::now();
    for _ in 0..QUERY_WARM_SAMPLES {
        get(addr, QUERY);
    }
    let query_warm = query_warm_start.elapsed() / QUERY_WARM_SAMPLES;
    let metrics = get(addr, "/metrics");
    let computes = counter(&metrics, "accelwall_query_computes_total") - computes_before;
    let query_requests = f64::from(QUERY_WARM_SAMPLES) + 1.0;
    let query_hit_rate = 1.0 - computes / query_requests;

    handle.shutdown();
    run.join().expect("server thread").expect("clean drain");

    // 5. Disarmed probe cost: the per-request fault-injection tax when
    // no plan is armed (one relaxed atomic load per probe).
    const PROBE_SAMPLES: u32 = 1_000_000;
    let probe_start = Instant::now();
    for _ in 0..PROBE_SAMPLES {
        std::hint::black_box(accelwall_faults::probe(std::hint::black_box(
            accelwall_faults::Site::ServeRequest,
        )))
        .expect("no plan armed");
    }
    let probe_ns = probe_start.elapsed().as_secs_f64() * 1e9 / f64::from(PROBE_SAMPLES);
    // The warm request path pays one probe per connection.
    let probe_overhead_pct = probe_ns / (warm.as_secs_f64() * 1e9) * 100.0;
    assert!(
        probe_overhead_pct < 5.0,
        "disarmed probes cost {probe_overhead_pct:.3}% of the warm path (budget: 5%)"
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("{{");
    println!("  \"bench\": \"serve\",");
    println!("  \"cores\": {cores},");
    println!("  \"workers\": 4,");
    println!("  \"cold_first_request_ms\": {:.3},", ms(cold));
    println!("  \"warm_cache_request_ms\": {:.3},", ms(warm));
    println!(
        "  \"warm_speedup\": {:.1},",
        cold.as_secs_f64() / warm.as_secs_f64()
    );
    println!("  \"throughput_clients\": {CLIENTS},");
    println!("  \"throughput_requests\": {},", total_requests as u64);
    println!("  \"throughput_rps\": {rps:.0},");
    println!("  \"throughput_rps_keepalive\": {rps_keepalive:.0},");
    println!("  \"keepalive_pipeline_depth\": {PIPELINE_DEPTH},");
    println!("  \"keepalive_close_ratio\": {keepalive_close_ratio:.2},");
    println!("  \"concurrency_sweep\": [");
    for (i, (conns, sweep_rps, connect)) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        println!(
            "    {{ \"connections\": {conns}, \"rps\": {sweep_rps:.0}, \"connect_ms\": {:.3} }}{comma}",
            ms(*connect)
        );
    }
    println!("  ],");
    println!("  \"query_cold_ms\": {:.3},", ms(query_cold));
    println!("  \"query_warm_ms\": {:.3},", ms(query_warm));
    println!("  \"query_hit_rate\": {query_hit_rate:.4},");
    println!("  \"disarmed_probe_ns\": {probe_ns:.2},");
    println!("  \"disarmed_probe_warm_overhead_pct\": {probe_overhead_pct:.4}");
    println!("}}");
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
