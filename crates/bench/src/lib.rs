//! Shared helpers for the figure-regeneration benchmarks.
//!
//! The benches live in `benches/`: `figures` regenerates every evaluation
//! figure, `tables` every table, `components` measures the analysis
//! kernels in isolation, and `ablations` quantifies the design decisions
//! called out in DESIGN.md. They run on the dependency-free [`harness`]
//! module — a Criterion-shaped wall-clock timer that works in offline
//! build environments where no registry crates resolve.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;

use accelerator_wall::prelude::*;

/// Regenerates the complete Fig. 14 attribution grid (both metrics, all
/// 16 workloads) over the given sweep space and returns the geometric-mean
/// total gains — the heavy path the attribution benches exercise.
pub fn fig14_grid(space: &SweepSpace) -> (f64, f64) {
    use accelerator_wall::accelsim::attribution::Metric;
    let mut perf_log = 0.0;
    let mut ee_log = 0.0;
    for &w in Workload::all() {
        let dfg = w.default_instance();
        #[expect(
            clippy::expect_used,
            reason = "bench harness; aborting the bench on a broken sweep is the desired behavior"
        )]
        let p = attribute_gains(&dfg, Metric::Performance, space).expect("sweep runs");
        #[expect(
            clippy::expect_used,
            reason = "bench harness; aborting the bench on a broken sweep is the desired behavior"
        )]
        let e = attribute_gains(&dfg, Metric::EnergyEfficiency, space).expect("sweep runs");
        perf_log += p.total_gain.ln();
        ee_log += e.total_gain.ln();
    }
    let n = Workload::all().len() as f64;
    ((perf_log / n).exp(), (ee_log / n).exp())
}

/// Projects all eight accelerator walls and returns the sum of headrooms
/// (a scalar the optimizer cannot elide).
pub fn all_walls() -> f64 {
    let mut acc = 0.0;
    for &d in Domain::all() {
        for m in [TargetMetric::Performance, TargetMetric::EnergyEfficiency] {
            #[expect(
                clippy::expect_used,
                reason = "bench harness; aborting the bench on a broken projection is the desired behavior"
            )]
            let w = accelerator_wall(d, m).expect("walls project");
            acc += w.further_linear + w.further_log;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_run() {
        let (p, e) = fig14_grid(&SweepSpace::coarse());
        assert!(p > 1.0 && e > 1.0);
        assert!(all_walls() > 8.0);
    }
}
