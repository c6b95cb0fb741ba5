//! The per-layer replay: times calls into each crate's public functions
//! with the workloads' own inputs, outside any timed window.
//!
//! Each figure is the median over repetitions, so a stray preemption on
//! a shared host moves it less than it would move a mean.

use std::hint::black_box;
use std::time::Instant;

use accelerator_wall::artifacts::ArtifactCache;
use accelerator_wall::cache::Ctx;
use accelerator_wall::projection::{wall_sensitivity, Domain, TargetMetric};
use accelerator_wall::registry::Registry;
use accelerator_wall::workloads::Workload;
use accelwall_query::spec::{pairs_from_json, pairs_from_query};
use accelwall_query::{cache_key, QuerySpec};
use accelwall_server::http::{parse_bytes, ParseOutcome, Response};
use accelwall_server::metrics::Route;
use accelwall_server::respcache::ResponseCache;

use crate::gen::{Pool, Variant, POOL_POINTS};
use crate::mix::{engine, query_spec};
use crate::regen::assemble;
use crate::stats::median;
use crate::warm::targets;
use crate::Metric;

/// Repetitions of each cold pipeline stage.
const REPS: usize = 9;

/// Seconds (as `f64`) `f` takes.
fn time<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median seconds per call of `f` over `reps` calls, each timed alone.
fn per_call(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|i| time(|| f(i)).0).collect();
    median(&samples)
}

/// Median seconds per call over `rounds` rounds of `batch` calls, for
/// calls too short to time one at a time.
fn per_call_batched(rounds: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| time(|| (0..batch).for_each(&mut f)).0 / batch as f64)
        .collect();
    median(&samples)
}

fn core_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// chipdb, dfg, accelsim, projection and core, with regen's inputs.
fn pipeline(pool: &Pool) -> Result<Vec<Metric>, String> {
    let mut corpus = Vec::new();
    let mut fit = Vec::new();
    let mut build = Vec::new();
    let mut lower = Vec::new();
    let mut sweep = Vec::new();
    let mut points = 0usize;
    for _ in 0..REPS {
        let ctx = Ctx::new();
        corpus.push(time(|| black_box(ctx.corpus().len())).0);
        fit.push(time(|| ctx.density_fit()).0);
        let (t, built) = time(|| {
            Workload::all()
                .iter()
                .map(|&w| ctx.dfg(w).map(|_| ()))
                .collect::<Result<Vec<_>, _>>()
        });
        built.map_err(core_err)?;
        build.push(t);
        let (t, lowered) = time(|| {
            Workload::all()
                .iter()
                .map(|&w| ctx.program(w).map(|_| ()))
                .collect::<Result<Vec<_>, _>>()
        });
        lowered.map_err(core_err)?;
        lower.push(t);
        let (t, swept) = time(|| {
            Workload::all()
                .iter()
                .map(|&w| ctx.sweep(w).map(<[_]>::len))
                .sum::<Result<usize, _>>()
        });
        points = swept.map_err(core_err)?;
        sweep.push(t);
    }
    let sweep_s = median(&sweep);

    // simulate_lowered on query-mix's point specs, each once.
    let ctx = Ctx::new();
    let configs = pool.specs[..POOL_POINTS.min(2000)]
        .iter()
        .map(|s| {
            let spec = query_spec(s)?;
            let workload = spec.workload.ok_or("point spec without workload")?;
            let program = ctx.program(workload).map_err(core_err)?;
            let config = accelerator_wall::accelsim::DesignConfig::new(
                spec.node,
                spec.lanes,
                spec.simplification,
                spec.heterogeneity,
            );
            Ok((program, config))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let point_s = per_call(configs.len(), |i| {
        let (program, config) = &configs[i];
        let _ = black_box(accelerator_wall::accelsim::simulate_lowered(
            program, config,
        ));
    });

    let sensitivity_s = per_call(REPS, |_| {
        for &domain in Domain::all() {
            for metric in [TargetMetric::Performance, TargetMetric::EnergyEfficiency] {
                let _ = black_box(wall_sensitivity(domain, metric));
            }
        }
    });

    // core: per-target self time in schedule order on one memoized Ctx.
    let registry = Registry::paper();
    let order: Vec<usize> = registry.schedule().map_err(core_err)?.concat();
    let ids = registry.ids();
    let mut self_times = vec![Vec::with_capacity(REPS); ids.len()];
    for _ in 0..REPS {
        let ctx = Ctx::new();
        for &i in &order {
            let (t, artifact) = time(|| registry.run(ids[i], &ctx));
            artifact.map_err(core_err)?;
            self_times[i].push(t);
        }
    }
    let mut run_all = Vec::new();
    let mut assemble_t = Vec::new();
    for _ in 0..REPS {
        let ctx = Ctx::new();
        let (t, results) = time(|| registry.run_all(&ctx));
        run_all.push(t);
        let results = results.map_err(core_err)?;
        assemble_t.push(time(|| black_box(assemble(&results))).0);
    }
    let run_all_s = median(&run_all);
    let exp_s: Vec<f64> = self_times.iter().map(|t| median(t)).collect();

    // ArtifactCache::get and Value::pretty on a filled cache.
    let cache = ArtifactCache::new(Registry::paper(), Ctx::new());
    for id in &ids {
        cache.get(id).map_err(core_err)?;
    }
    let get_s = per_call_batched(REPS, 10 * ids.len(), |i| {
        let _ = black_box(cache.get(ids[i % ids.len()]));
    });
    let artifacts = ids
        .iter()
        .map(|id| cache.get(id).map_err(core_err))
        .collect::<Result<Vec<_>, _>>()?;
    let pretty_s = per_call_batched(REPS, artifacts.len(), |i| {
        black_box(artifacts[i].json.pretty());
    });

    let mut out = vec![
        Metric::new("chipdb.corpus_us", median(&corpus) * 1e6, "us"),
        Metric::new("chipdb.fit_us", median(&fit) * 1e6, "us"),
        Metric::new("dfg.build_us", median(&build) * 1e6, "us"),
        Metric::new("dfg.lower_us", median(&lower) * 1e6, "us"),
        Metric::new("accelsim.sweep_us", sweep_s * 1e6, "us"),
        Metric::new("accelsim.points_per_s", points as f64 / sweep_s, "1/s"),
        Metric::new("accelsim.point_us", point_s * 1e6, "us"),
        Metric::new("projection.sensitivity_us", sensitivity_s * 1e6, "us"),
    ];
    for (id, s) in ids.iter().zip(&exp_s) {
        out.push(Metric::owned(format!("core.exp.{id}_us"), s * 1e6, "us"));
    }
    out.extend([
        Metric::new("core.run_all_us", run_all_s * 1e6, "us"),
        Metric::new(
            "core.parallel_gain",
            exp_s.iter().sum::<f64>() / run_all_s,
            "ratio",
        ),
        Metric::new("core.assemble_us", median(&assemble_t) * 1e6, "us"),
        Metric::new("core.artifact_get_ns", get_s * 1e9, "ns"),
        Metric::new("core.json_pretty_us", pretty_s * 1e6, "us"),
    ]);
    Ok(out)
}

/// server and query calls, replayed with serve-warm's and query-mix's
/// own request bytes and keys.
fn serving(pool: &Pool, seed: u64) -> Result<Vec<Metric>, String> {
    let warm = targets();
    let parse_s = per_call_batched(REPS, 20 * warm.len(), |i| {
        let parsed = parse_bytes(&warm[i % warm.len()].request);
        black_box(matches!(parsed, Ok(ParseOutcome::Complete { .. })));
    });

    // The response cache keyed as the reactor keys it: `exp:{id}:{j|t}`
    // for targets, `query?{raw query}` for queries.
    let body = vec![b'x'; 4096];
    let warm_keys: Vec<String> = warm
        .iter()
        .map(|t| format!("exp:{}:{}", t.id, if t.text { 't' } else { 'j' }))
        .collect();
    let warm_cache = ResponseCache::new(4 * 1024 * 1024);
    for key in &warm_keys {
        warm_cache.insert(key, Route::Experiment, &Response::json(200, body.clone()));
    }
    let get_s = per_call_batched(REPS, 20 * warm_keys.len(), |i| {
        black_box(warm_cache.get(&warm_keys[i % warm_keys.len()]));
    });

    // query-mix's GETs, answered once each in order: a spec's first
    // answer is an engine miss, every later one an LRU hit.
    struct Call {
        query: String,
        key: String,
        spec: QuerySpec,
        response: Response,
    }
    let reqs = pool.requests(seed, 20_000);
    let engine = engine();
    let mut seen = std::collections::BTreeSet::new();
    let mut miss = Vec::new();
    let mut calls = Vec::new();
    for r in reqs.iter().filter(|r| r.variant != Variant::Post) {
        let text = String::from_utf8_lossy(&r.bytes);
        let Some(query) = text
            .strip_prefix("GET /query?")
            .and_then(|t| t.split(' ').next())
        else {
            continue;
        };
        let spec = query_spec(&pool.specs[r.spec])?;
        let (t, answer) = time(|| engine.answer(&spec));
        let answer = answer.map_err(|e| format!("answering {query}: {e}"))?;
        if seen.insert(r.spec) {
            miss.push(t);
        }
        calls.push(Call {
            query: query.to_string(),
            key: format!("query?{query}"),
            spec,
            response: Response::json(200, answer.as_ref().clone()),
        });
    }
    let mix_cache = ResponseCache::new(4 * 1024 * 1024);
    let insert_s = per_call_batched(1, calls.len(), |i| {
        mix_cache.insert(&calls[i].key, Route::Query, &calls[i].response);
    });
    let get_full_s = per_call_batched(REPS, calls.len(), |i| {
        black_box(mix_cache.get(&calls[i].key));
    });
    let head_s = per_call_batched(REPS, calls.len(), |i| {
        black_box(calls[i].response.head_bytes(true));
    });

    // query: parse (GET query string and POST JSON), key, answer.
    let posts: Vec<String> = reqs
        .iter()
        .filter(|r| r.variant == Variant::Post)
        .map(|r| pool.specs[r.spec].json_body())
        .collect();
    let parse_get_s = per_call_batched(REPS, calls.len(), |i| {
        let pairs = pairs_from_query(&calls[i].query);
        let _ = black_box(pairs.and_then(|p| QuerySpec::from_pairs(&p)));
    });
    let parse_post_s = per_call_batched(REPS, posts.len(), |i| {
        let pairs = accelerator_wall::json::Value::parse(&posts[i])
            .map_err(|e| e.to_string())
            .map(|doc| pairs_from_json(&doc).and_then(|p| QuerySpec::from_pairs(&p)));
        let _ = black_box(pairs);
    });
    let key_s = per_call_batched(REPS, calls.len(), |i| {
        black_box(cache_key(&calls[i].spec));
    });
    let hit_s = per_call_batched(REPS, calls.len(), |i| {
        let _ = black_box(engine.answer(&calls[i].spec));
    });
    let share_get = calls.len() as f64 / (calls.len() + posts.len()) as f64;

    Ok(vec![
        Metric::new("server.http.parse_ns", parse_s * 1e9, "ns"),
        Metric::new("server.respcache.get_ns", get_s * 1e9, "ns"),
        Metric::new("server.respcache.insert_ns", insert_s * 1e9, "ns"),
        Metric::new("server.respcache.get_full_ns", get_full_s * 1e9, "ns"),
        Metric::new("server.head_bytes_ns", head_s * 1e9, "ns"),
        Metric::new(
            "query.parse_us",
            (share_get * parse_get_s + (1.0 - share_get) * parse_post_s) * 1e6,
            "us",
        ),
        Metric::new("query.key_ns", key_s * 1e9, "ns"),
        Metric::new("query.answer_hit_us", hit_s * 1e6, "us"),
        Metric::new("query.answer_miss_us", median(&miss) * 1e6, "us"),
    ])
}

/// Every replayed layer metric.
pub fn replay(seed: u64) -> Result<Vec<Metric>, String> {
    let pool = Pool::new(seed);
    let mut out = pipeline(&pool)?;
    out.extend(serving(&pool, seed)?);
    Ok(out)
}
