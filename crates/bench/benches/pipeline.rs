//! Serial-versus-parallel baseline for the whole compute pipeline.
//!
//! The `accelwall-par` pool freezes its size the first time any kernel
//! touches it, so one process cannot honestly time both configurations.
//! This bench therefore re-executes itself: the parent spawns two child
//! copies of this binary — one pinned to `ACCELWALL_THREADS=1`, one to
//! `ACCELWALL_THREADS=4` — and each child times six kernels cold plus a
//! full `accelwall all` replica, reporting one flat JSON line the parent
//! folds into the final document.
//!
//! Measured per configuration:
//!
//! 1. **cold `all`** — `Registry::paper().run_all` on a fresh `Ctx`
//!    (the number the `--threads` flag exists to improve);
//! 2. **corpus** — `CorpusSpec::paper_scale().generate()`, the chunked
//!    deterministic RNG streams;
//! 3. **fit** — the log-log regressions over the generated corpus;
//! 4. **sweep** — one workload's design-space sweep on the paper grid
//!    (shared timing and energy walks over the bytecode program);
//! 5. **sched** — the list scheduler over the lowered program;
//! 6. **interp** — the bytecode register-machine interpreter;
//! 7. **sensitivity** — the ±20 % wall-sensitivity grid, every domain.
//!
//! The output also carries a `quick_*` section so CI can re-measure two
//! machine-portable ratios in seconds: the serial/parallel cold-`all`
//! ratio (coarse sweep space) and the per-point-vs-shared-walk
//! sweep-kernel ratio on the full Table III grid. The `bench-smoke` job
//! fails when either regresses more than 25 % against the committed
//! baseline.
//! Speedups are ratios of same-machine runs, so the gates are portable
//! across core counts; `cores` records what the baseline machine
//! offered, and `single_core_host` flags runs where
//! `available_parallelism() == 1` — on such hosts every thread-scaling
//! ratio sits near 1.0 *by construction* and must not be read as a
//! parallelization regression. `BENCH_pipeline.json` at the repo root
//! records a baseline run (`cargo bench -p accelwall-bench --bench
//! pipeline > BENCH_pipeline.json`).

use accelerator_wall::json::Value;
use accelerator_wall::prelude::*;
use std::process::Command;
use std::time::{Duration, Instant};

/// Pool sizes the parent pins into the two child processes.
const SERIAL_THREADS: usize = 1;
const PARALLEL_THREADS: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    if let Some(i) = args.iter().position(|a| a == "--child") {
        let mode = args.get(i + 1).map_or("full", String::as_str);
        child(mode);
        return;
    }
    parent(quick);
}

/// Spawn one pinned copy of this binary and parse its JSON report.
fn child_report(mode: &str, threads: usize) -> Value {
    let exe = std::env::current_exe().expect("bench exe path");
    let out = Command::new(exe)
        .args(["--child", mode])
        .env(accelwall_par::THREADS_ENV, threads.to_string())
        .output()
        .expect("child bench runs");
    assert!(
        out.status.success(),
        "child ({mode}, {threads} threads) failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Value::parse(&String::from_utf8_lossy(&out.stdout)).expect("child emits JSON")
}

fn field(report: &Value, key: &str) -> f64 {
    report
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("child report missing {key}"))
}

fn parent(quick: bool) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let single_core = cores == 1;
    let quick_serial = child_report("quick", SERIAL_THREADS);
    let quick_parallel = child_report("quick", PARALLEL_THREADS);
    let (qs, qp) = (
        field(&quick_serial, "all_ms"),
        field(&quick_parallel, "all_ms"),
    );
    let (q_point, q_lowered) = (
        field(&quick_serial, "sweep_per_point_ms"),
        field(&quick_serial, "sweep_lowered_ms"),
    );

    println!("{{");
    println!("  \"bench\": \"pipeline\",");
    println!("  \"cores\": {cores},");
    println!("  \"single_core_host\": {single_core},");
    if single_core {
        println!(
            "  \"note\": \"single-core host: thread-scaling speedups sit \
             near 1.0 by construction and are not regressions\","
        );
    }
    println!("  \"threads_serial\": {SERIAL_THREADS},");
    println!("  \"threads_parallel\": {PARALLEL_THREADS},");
    println!("  \"quick_all_serial_ms\": {qs:.3},");
    println!("  \"quick_all_parallel_ms\": {qp:.3},");
    println!("  \"quick_all_speedup\": {:.3},", qs / qp);
    println!("  \"quick_sweep_per_point_ms\": {q_point:.3},");
    println!("  \"quick_sweep_lowered_ms\": {q_lowered:.3},");
    if quick {
        println!(
            "  \"quick_sweep_lowering_speedup\": {:.3}",
            q_point / q_lowered
        );
        println!("}}");
        return;
    }
    println!(
        "  \"quick_sweep_lowering_speedup\": {:.3},",
        q_point / q_lowered
    );

    let serial = child_report("full", SERIAL_THREADS);
    let parallel = child_report("full", PARALLEL_THREADS);
    for kernel in [
        "all",
        "corpus",
        "fit",
        "sweep",
        "sched",
        "interp",
        "sensitivity",
    ] {
        let key = format!("{kernel}_ms");
        let (s, p) = (field(&serial, &key), field(&parallel, &key));
        println!("  \"{kernel}_serial_ms\": {s:.3},");
        println!("  \"{kernel}_parallel_ms\": {p:.3},");
        println!("  \"{kernel}_speedup\": {:.3},", s / p);
    }
    let (s, p) = (field(&serial, "all_ms"), field(&parallel, "all_ms"));
    println!(
        "  \"all_speedup_at_{PARALLEL_THREADS}_threads\": {:.3}",
        s / p
    );
    println!("}}");
}

/// One pinned configuration: time every kernel, report a flat JSON line.
fn child(mode: &str) {
    if mode == "quick" {
        let start = Instant::now();
        run_all_with(Ctx::with_space(SweepSpace::coarse()));
        let all_ms = ms(start.elapsed());
        // Sweep-kernel ratio on the full Table III grid: the lowered
        // sweep, which shares walks across points, vs pricing every point
        // with its own walks. Both run over one shared program, so the
        // ratio isolates the sharing and is portable across machines.
        let program = Workload::all()[0].default_instance().lower();
        let space = SweepSpace::table3();
        let per_point_start = Instant::now();
        for config in space.configs() {
            let r = simulate_lowered(&program, &config).expect("point");
            std::hint::black_box(r.cycles);
        }
        let sweep_per_point_ms = ms(per_point_start.elapsed());
        let lowered_start = Instant::now();
        let points = run_sweep_lowered(&program, &space).expect("sweep");
        let sweep_lowered_ms = ms(lowered_start.elapsed());
        std::hint::black_box(points.len());
        println!(
            "{{ \"all_ms\": {all_ms:.3}, \"sweep_per_point_ms\": {sweep_per_point_ms:.3}, \
             \"sweep_lowered_ms\": {sweep_lowered_ms:.3} }}"
        );
        return;
    }

    // Kernels first, each on fresh inputs (no Ctx memoization in play),
    // then the end-to-end run. Means over repeats keep the small kernels
    // out of timer noise; the sweep and `all` are single-shot.
    const REPEATS: u32 = 10;
    let corpus_ms = timed(REPEATS, || {
        std::hint::black_box(CorpusSpec::paper_scale().generate().len());
    });

    let corpus = CorpusSpec::paper_scale().generate();
    let fit_ms = timed(REPEATS, || {
        let fit = accelerator_wall::chipdb::fit::transistor_density_fit(&corpus).expect("fit");
        std::hint::black_box(fit.exponent);
        for &group in NodeGroup::all() {
            if let Ok(tdp) = accelerator_wall::chipdb::fit::tdp_fit(&corpus, group) {
                std::hint::black_box(tdp.exponent);
            }
        }
    });

    let dfg = Workload::all()[0].default_instance();
    let sweep_start = Instant::now();
    let points = run_sweep(&dfg, &SweepSpace::table3()).expect("sweep");
    let sweep_ms = ms(sweep_start.elapsed());
    std::hint::black_box(points.len());

    // Scheduler and interpreter breakdowns, both over one shared lowered
    // program — the representation the hot paths actually run on.
    let program = dfg.lower();
    let sched_config = DesignConfig::new(TechNode::N7, 256, 5, true);
    let sched_ms = timed(REPEATS, || {
        let s = schedule_lowered(&program, &sched_config).expect("schedule");
        std::hint::black_box(s.makespan);
    });

    let inputs: std::collections::HashMap<String, f64> = program
        .input_slots()
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.clone(), 0.5 + 0.1 * i as f64))
        .collect();
    let interp_ms = timed(REPEATS, || {
        let out = program.evaluate(&inputs).expect("evaluate");
        std::hint::black_box(out.len());
    });

    let sensitivity_ms = timed(REPEATS, || {
        for &domain in Domain::all() {
            for metric in [TargetMetric::Performance, TargetMetric::EnergyEfficiency] {
                let rows =
                    accelerator_wall::projection::sensitivity::wall_sensitivity(domain, metric)
                        .expect("sensitivity");
                std::hint::black_box(rows.len());
            }
        }
    });

    let all_start = Instant::now();
    run_all_with(Ctx::new());
    let all_ms = ms(all_start.elapsed());

    println!(
        "{{ \"all_ms\": {all_ms:.3}, \"corpus_ms\": {corpus_ms:.3}, \"fit_ms\": {fit_ms:.3}, \
         \"sweep_ms\": {sweep_ms:.3}, \"sched_ms\": {sched_ms:.3}, \
         \"interp_ms\": {interp_ms:.3}, \"sensitivity_ms\": {sensitivity_ms:.3} }}"
    );
}

/// In-process replica of `accelwall all`: every registry target, and
/// every one of them must succeed for the timing to count.
fn run_all_with(ctx: Ctx) {
    let results = Registry::paper().run_all(&ctx).expect("scheduling");
    for (id, r) in &results {
        assert!(r.is_ok(), "{id} failed during bench");
    }
    std::hint::black_box(results.len());
}

fn timed(repeats: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..repeats {
        f();
    }
    ms(start.elapsed() / repeats)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
