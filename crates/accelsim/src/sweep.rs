//! The Table III design-space sweep (Fig. 13).

use crate::sim::{DesignConfig, SimReport, MAX_PARTITION, MAX_SIMPLIFICATION};
use crate::table::WalkTable;
use crate::Result;
use accelwall_cmos::TechNode;
use accelwall_dfg::{Dfg, Program};
use std::borrow::Borrow;

/// The swept parameter grid of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpace {
    /// Partitioning factors (powers of two).
    pub partition_factors: Vec<u64>,
    /// Simplification degrees.
    pub simplification_degrees: Vec<u32>,
    /// CMOS nodes.
    pub nodes: Vec<TechNode>,
    /// Whether heterogeneous fusion is enabled for every point.
    pub heterogeneity: bool,
}

impl SweepSpace {
    /// The full Table III grid: partitioning 1…2¹⁹, simplification 1…13,
    /// nodes {45, 32, 22, 14, 10, 7, 5} nm — 20 × 13 × 7 = 1820 points.
    pub fn table3() -> Self {
        SweepSpace {
            partition_factors: (0..=MAX_PARTITION.trailing_zeros() as u64)
                .map(|k| 1u64 << k)
                .collect(),
            simplification_degrees: (1..=MAX_SIMPLIFICATION).collect(),
            nodes: TechNode::sweep_nodes().to_vec(),
            heterogeneity: true,
        }
    }

    /// A decimated grid for fast tests and doc examples (5 × 4 × 3).
    pub fn coarse() -> Self {
        SweepSpace {
            partition_factors: vec![1, 16, 256, 4096, 65536],
            simplification_degrees: vec![1, 5, 9, 13],
            nodes: vec![TechNode::N45, TechNode::N14, TechNode::N5],
            heterogeneity: true,
        }
    }

    /// Number of design points the space enumerates.
    pub fn len(&self) -> usize {
        self.partition_factors.len() * self.simplification_degrees.len() * self.nodes.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates every configuration in the space.
    pub fn configs(&self) -> impl Iterator<Item = DesignConfig> + '_ {
        self.nodes.iter().flat_map(move |&node| {
            self.simplification_degrees.iter().flat_map(move |&s| {
                self.partition_factors
                    .iter()
                    .map(move |&p| DesignConfig::new(node, p, s, self.heterogeneity))
            })
        })
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The configuration simulated.
    pub config: DesignConfig,
    /// Its simulation outcome.
    pub report: SimReport,
}

/// Runs the sweep over one lowered `program`, one [`SweepPoint`] per
/// configuration: a collect over the program's [`WalkTable`], which runs
/// each graph walk once and prices every point with an O(1) assembly, so
/// every report is bit-identical to simulating each point from scratch
/// with [`simulate_lowered`](crate::simulate_lowered).
///
/// # Errors
///
/// Those of [`WalkTable::sweep`].
pub fn run_sweep_lowered(program: &Program, space: &SweepSpace) -> Result<Vec<SweepPoint>> {
    let table = WalkTable::new(program);
    let mut points = Vec::with_capacity(space.len());
    points.extend(table.sweep(space)?);
    Ok(points)
}

/// Runs the sweep over `dfg` — the front-end convenience over
/// [`run_sweep_lowered`] that lowers per call. Hot paths lower once with
/// [`Dfg::lower`] and share the program.
///
/// # Errors
///
/// Same as [`run_sweep_lowered`].
pub fn run_sweep(dfg: &Dfg, space: &SweepSpace) -> Result<Vec<SweepPoint>> {
    run_sweep_lowered(&dfg.lower(), space)
}

/// The sweep point with the best energy efficiency (the Fig. 13 annotated
/// optimum), the last of equals in iteration order. Takes a slice of
/// points or a [`WalkTable::sweep`] iterator alike.
pub fn best_efficiency<P: Borrow<SweepPoint>>(points: impl IntoIterator<Item = P>) -> Option<P> {
    // NaN policy: a poisoned point can never be the optimum (and, under
    // `total_cmp` alone, a positive NaN would outrank every real value).
    let efficiency = |p: &P| p.borrow().report.energy_efficiency();
    points
        .into_iter()
        .filter(|p| efficiency(p).is_finite())
        .max_by(|a, b| efficiency(a).total_cmp(&efficiency(b)))
}

/// The runtime–power Pareto frontier of a sweep: the design points no
/// other point beats on *both* runtime and power — the visible lower-left
/// envelope of the Fig. 13 cloud. Sorted by ascending runtime (and thus
/// descending power).
pub fn pareto_runtime_power(points: &[SweepPoint]) -> Vec<&SweepPoint> {
    let mut sorted: Vec<&SweepPoint> = points.iter().collect();
    // `total_cmp` keeps the sort total on NaN; a NaN runtime sorts last
    // and a NaN power never lowers the running minimum, so poisoned
    // points cannot enter the frontier.
    sorted.sort_by(|a, b| {
        a.report
            .runtime_s
            .total_cmp(&b.report.runtime_s)
            .then(a.report.power_w().total_cmp(&b.report.power_w()))
    });
    let mut frontier: Vec<&SweepPoint> = Vec::new();
    let mut best_power = f64::INFINITY;
    for p in sorted {
        if p.report.power_w() < best_power {
            best_power = p.report.power_w();
            frontier.push(p);
        }
    }
    frontier
}

/// The sweep point with the best throughput, the last of equals in
/// iteration order.
pub fn best_performance<P: Borrow<SweepPoint>>(points: impl IntoIterator<Item = P>) -> Option<P> {
    // Same NaN policy as [`best_efficiency`]: poisoned points never win.
    let throughput = |p: &P| p.borrow().report.throughput();
    points
        .into_iter()
        .filter(|p| throughput(p).is_finite())
        .max_by(|a, b| throughput(a).total_cmp(&throughput(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use accelwall_workloads::Workload;

    #[test]
    fn table3_dimensions() {
        let s = SweepSpace::table3();
        assert_eq!(s.partition_factors.len(), 20);
        assert_eq!(s.partition_factors[0], 1);
        assert_eq!(*s.partition_factors.last().unwrap(), 524_288);
        assert_eq!(s.simplification_degrees.len(), 13);
        assert_eq!(s.nodes.len(), 7);
        assert_eq!(s.len(), 1820);
        assert!(!s.is_empty());
    }

    #[test]
    fn sweep_covers_every_config() {
        let g = Workload::Trd.default_instance();
        let space = SweepSpace::coarse();
        let points = run_sweep(&g, &space).unwrap();
        assert_eq!(points.len(), space.len());
    }

    #[test]
    fn stencil_optimum_is_newest_node() {
        // Paper: "the optimal points for energy efficiency are received
        // for 5nm CMOS" at high-but-not-tapering partitioning and the
        // highest non-serializing simplification.
        let g = Workload::S3d.default_instance();
        let points = run_sweep(&g, &SweepSpace::table3()).unwrap();
        let best = best_efficiency(&points).unwrap();
        assert_eq!(best.config.node, TechNode::N5, "{:?}", best.config);
        assert!(best.config.simplification_degree >= 4);
        assert!(best.config.partition_factor > 1);
        assert!(
            best.config.partition_factor < 524_288,
            "over-partitioning must not be optimal"
        );
    }

    #[test]
    fn best_performance_uses_aggressive_partitioning() {
        let g = Workload::S3d.default_instance();
        let points = run_sweep(&g, &SweepSpace::table3()).unwrap();
        let best = best_performance(&points).unwrap();
        assert!(best.config.partition_factor >= 256);
        assert_eq!(best.config.node, TechNode::N5);
    }

    #[test]
    fn empty_points_have_no_best() {
        assert!(best_efficiency(&[]).is_none());
        assert!(best_performance(&[]).is_none());
    }

    #[test]
    fn nan_poisoned_points_never_win_or_enter_the_frontier() {
        // Regression: the selectors used `partial_cmp(..).expect(..)`,
        // so one NaN report panicked the whole sweep analysis; with the
        // explicit NaN policy a poisoned point is simply never chosen.
        let g = Workload::Trd.default_instance();
        let mut points = run_sweep(&g, &SweepSpace::coarse()).unwrap();
        let clean_best_eff = best_efficiency(&points).unwrap().config;
        let clean_best_perf = best_performance(&points).unwrap().config;
        let poisoned = SweepPoint {
            config: points[0].config,
            report: SimReport {
                runtime_s: f64::NAN,
                ..points[0].report
            },
        };
        points.insert(0, poisoned);
        // NaN runtime makes throughput, power, and efficiency NaN too.
        assert!(points[0].report.energy_efficiency().is_nan());
        let best = best_efficiency(&points).unwrap();
        assert!(best.report.energy_efficiency().is_finite());
        assert_eq!(best.config, clean_best_eff);
        let best = best_performance(&points).unwrap();
        assert_eq!(best.config, clean_best_perf);
        let frontier = pareto_runtime_power(&points);
        assert!(!frontier.is_empty());
        assert!(frontier.iter().all(|p| p.report.runtime_s.is_finite()));
        // All-NaN input: no winner rather than an arbitrary one.
        let all_poisoned: Vec<SweepPoint> = points[..1].to_vec();
        assert!(best_efficiency(&all_poisoned).is_none());
        assert!(best_performance(&all_poisoned).is_none());
    }

    #[test]
    fn runtime_power_frontier_is_dominance_free() {
        let g = Workload::S3d.default_instance();
        let points = run_sweep(&g, &SweepSpace::coarse()).unwrap();
        let frontier = pareto_runtime_power(&points);
        assert!(!frontier.is_empty() && frontier.len() < points.len());
        // Staircase: runtime ascends, power strictly descends.
        for w in frontier.windows(2) {
            assert!(w[0].report.runtime_s <= w[1].report.runtime_s);
            assert!(w[0].report.power_w() > w[1].report.power_w());
        }
        // No point dominates a frontier member on both axes.
        for f in &frontier {
            for p in &points {
                let dominates = p.report.runtime_s < f.report.runtime_s
                    && p.report.power_w() < f.report.power_w();
                assert!(!dominates, "{:?} dominates {:?}", p.config, f.config);
            }
        }
    }

    #[test]
    fn newest_node_traces_the_frontier() {
        // Fig. 13's per-node clouds nest: the 5 nm cloud sits down-left of
        // every older node's, so the runtime-power envelope is traced
        // entirely by the final node — "the optimal points are received
        // for 5nm CMOS".
        let g = Workload::S3d.default_instance();
        let points = run_sweep(&g, &SweepSpace::table3()).unwrap();
        let frontier = pareto_runtime_power(&points);
        assert!(frontier.len() >= 5);
        assert!(
            frontier.iter().all(|p| p.config.node == TechNode::N5),
            "an older node broke onto the envelope"
        );
    }

    #[test]
    fn cmos_advancement_reduces_power_across_the_space() {
        // Fig. 13: the point clouds shift down (less power) as nodes
        // advance, at matched knob settings.
        let g = Workload::S3d.default_instance();
        for &(p, s) in &[(16u64, 1u32), (256, 5), (4096, 9)] {
            let old = simulate(&g, &DesignConfig::new(TechNode::N45, p, s, true)).unwrap();
            let new = simulate(&g, &DesignConfig::new(TechNode::N5, p, s, true)).unwrap();
            assert!(
                new.power_w() < old.power_w(),
                "p={p} s={s}: {} !< {}",
                new.power_w(),
                old.power_w()
            );
        }
    }
}
