//! Fig. 14: decomposing optimal-point gains into their sources.
//!
//! For each workload the paper finds the design-space optimum, then
//! attributes the gain over the unoptimized 45 nm baseline to four
//! sources: partitioning, heterogeneity, simplification, and CMOS power
//! saving. We measure the decomposition by walking a fixed toggle order —
//! baseline → +partitioning → +heterogeneity → +simplification → +CMOS —
//! and taking each step's multiplicative gain; contributions are reported
//! as shares of the total log-space gain. The benchmark harness ships an
//! ablation comparing alternative orders (see DESIGN.md).
//!
//! The figure's CSR column follows the paper's argument that partitioning
//! (more parallel transistors) and CMOS saving are *transistor-driven*:
//! `CSR = total gain / (partitioning gain × CMOS gain)`, i.e. the product
//! of the heterogeneity and simplification factors.

use crate::sim::{DesignConfig, SimReport};
use crate::sweep::{best_efficiency, best_performance, SweepPoint, SweepSpace};
use crate::table::WalkTable;
use crate::{Result, SimError};
use accelwall_cmos::TechNode;
use accelwall_dfg::Dfg;
use std::borrow::Borrow;
use std::fmt;

/// Which target function the optimum maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Throughput (operations per second) — Fig. 14a.
    Performance,
    /// Energy efficiency (operations per joule) — Fig. 14b.
    EnergyEfficiency,
}

impl Metric {
    fn of(self, report: &SimReport) -> f64 {
        match self {
            Metric::Performance => report.throughput(),
            Metric::EnergyEfficiency => report.energy_efficiency(),
        }
    }
}

/// The four gain sources of Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GainSource {
    /// Parallel lanes and ports (transistor-driven).
    Partitioning,
    /// Operator fusion and algorithm-specific units.
    Heterogeneity,
    /// Datapath narrowing.
    Simplification,
    /// More energy-efficient CMOS (transistor-driven).
    CmosSaving,
}

impl GainSource {
    /// All sources in toggle order.
    pub fn all() -> &'static [GainSource] {
        const ALL: [GainSource; 4] = [
            GainSource::Partitioning,
            GainSource::Heterogeneity,
            GainSource::Simplification,
            GainSource::CmosSaving,
        ];
        &ALL
    }
}

impl fmt::Display for GainSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GainSource::Partitioning => "Partitioning",
            GainSource::Heterogeneity => "Heterogeneity",
            GainSource::Simplification => "Simplification",
            GainSource::CmosSaving => "CMOS Saving",
        };
        f.write_str(s)
    }
}

/// One source's share of a workload's optimal gain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// The gain source.
    pub source: GainSource,
    /// Multiplicative gain factor of this toggle step.
    pub factor: f64,
    /// Share of the total log-space gain, in percent (can be negative if
    /// a step moves against the metric before a later step redeems it).
    pub percent: f64,
}

/// The full Fig. 14 row for one workload and metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Workload (graph) name.
    pub workload: String,
    /// Metric the optimum maximizes.
    pub metric: Metric,
    /// The winning configuration.
    pub best_config: DesignConfig,
    /// Total gain over the unoptimized 45 nm baseline.
    pub total_gain: f64,
    /// Ordered per-source contributions.
    pub contributions: Vec<Contribution>,
    /// Chip Specialization Return: the non-transistor-driven share
    /// (heterogeneity × simplification factors).
    pub csr: f64,
}

/// Computes the Fig. 14 attribution of `dfg` under `metric`, sweeping
/// `space` for the optimum. Lowers once; the sweep and the toggle chain
/// price from one [`WalkTable`].
///
/// # Errors
///
/// Propagates simulation errors (invalid space, empty graph).
pub fn attribute_gains(dfg: &Dfg, metric: Metric, space: &SweepSpace) -> Result<Attribution> {
    let table = WalkTable::new(&dfg.lower());
    let points = table.sweep(space)?;
    attribute_gains_priced(&table, metric, points)
}

/// Computes the Fig. 14 attribution from an already-run sweep over `dfg`.
/// Front-end convenience over [`attribute_gains_priced`] that lowers and
/// builds the walk table per call.
///
/// # Errors
///
/// Same as [`attribute_gains_priced`].
pub fn attribute_gains_with_points(
    dfg: &Dfg,
    metric: Metric,
    points: &[SweepPoint],
) -> Result<Attribution> {
    attribute_gains_priced(&WalkTable::new(&dfg.lower()), metric, points)
}

/// Computes the Fig. 14 attribution of the program `table` was built
/// from, at the optimum of `points`.
///
/// This is the reuse path: callers that derive several analyses from one
/// program's design space (the Fig. 13 scatter, both Fig. 14 metrics)
/// share one table, and neither re-lower the graph nor re-run a walk.
/// `points` must come from that program — a slice of swept points or the
/// table's own [`WalkTable::sweep`] iterator; the toggle chain re-prices
/// its optimum through the table.
///
/// # Errors
///
/// Returns [`SimError::EmptySweep`] when `points` is empty, and
/// propagates simulation errors from the toggle chain.
pub fn attribute_gains_priced<P: Borrow<SweepPoint>>(
    table: &WalkTable,
    metric: Metric,
    points: impl IntoIterator<Item = P>,
) -> Result<Attribution> {
    let best = match metric {
        Metric::Performance => best_performance(points),
        Metric::EnergyEfficiency => best_efficiency(points),
    }
    .ok_or(SimError::EmptySweep)?;
    let target = best.borrow().config;

    // Toggle chain: baseline -> +P -> +het -> +simplification -> +CMOS.
    let steps = [
        DesignConfig::baseline(),
        DesignConfig::new(TechNode::N45, target.partition_factor, 1, false),
        DesignConfig::new(
            TechNode::N45,
            target.partition_factor,
            1,
            target.heterogeneity,
        ),
        DesignConfig::new(
            TechNode::N45,
            target.partition_factor,
            target.simplification_degree,
            target.heterogeneity,
        ),
        target,
    ];
    let values: Vec<f64> = steps
        .iter()
        .map(|c| table.price(c).map(|r| metric.of(&r)))
        .collect::<Result<_>>()?;

    let total_gain = values[4] / values[0];
    let log_total = total_gain.ln();
    let contributions: Vec<Contribution> = GainSource::all()
        .iter()
        .enumerate()
        .map(|(i, &source)| {
            let factor = values[i + 1] / values[i];
            let percent = if log_total.abs() < 1e-12 {
                0.0
            } else {
                factor.ln() / log_total * 100.0
            };
            Contribution {
                source,
                factor,
                percent,
            }
        })
        .collect();

    let csr = contributions
        .iter()
        .filter(|c| {
            matches!(
                c.source,
                GainSource::Heterogeneity | GainSource::Simplification
            )
        })
        .map(|c| c.factor)
        .product();

    Ok(Attribution {
        workload: table.name().to_string(),
        metric,
        best_config: target,
        total_gain,
        contributions,
        csr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run_sweep;
    use accelwall_workloads::Workload;

    fn attr(w: Workload, metric: Metric) -> Attribution {
        attribute_gains(&w.default_instance(), metric, &SweepSpace::table3()).unwrap()
    }

    #[test]
    fn stencil_performance_attribution() {
        let a = attr(Workload::S3d, Metric::Performance);
        assert!(a.total_gain > 10.0, "total {:.1}", a.total_gain);
        // Partitioning is the primary performance source (paper finding).
        let part = a.contributions[0];
        assert_eq!(part.source, GainSource::Partitioning);
        for c in &a.contributions[1..] {
            assert!(
                part.percent >= c.percent,
                "partitioning should dominate perf: {:?}",
                a.contributions
            );
        }
    }

    #[test]
    fn stencil_efficiency_attribution() {
        let a = attr(Workload::S3d, Metric::EnergyEfficiency);
        assert!(a.total_gain > 5.0);
        // CMOS saving is the dominating efficiency factor (paper finding).
        let cmos = a
            .contributions
            .iter()
            .find(|c| c.source == GainSource::CmosSaving)
            .unwrap();
        assert!(
            cmos.percent >= 25.0,
            "CMOS saving should be a leading factor: {:?}",
            a.contributions
        );
    }

    #[test]
    fn csr_is_low_for_both_metrics() {
        // Paper: "for both performance and energy efficiency, CSR is low."
        for metric in [Metric::Performance, Metric::EnergyEfficiency] {
            let a = attr(Workload::S3d, metric);
            assert!(
                a.csr < 0.25 * a.total_gain,
                "{metric:?}: CSR {:.2} vs total {:.2}",
                a.csr,
                a.total_gain
            );
        }
    }

    #[test]
    fn percents_sum_to_one_hundred() {
        let a = attr(Workload::Gmm, Metric::Performance);
        let sum: f64 = a.contributions.iter().map(|c| c.percent).sum();
        assert!((sum - 100.0).abs() < 1e-6, "sum {sum}");
    }

    #[test]
    fn factors_compose_to_total() {
        let a = attr(Workload::Trd, Metric::EnergyEfficiency);
        let product: f64 = a.contributions.iter().map(|c| c.factor).product();
        assert!((product / a.total_gain - 1.0).abs() < 1e-9);
    }

    #[test]
    fn with_points_matches_the_sweeping_path() {
        let dfg = Workload::Red.default_instance();
        let space = SweepSpace::coarse();
        let points = run_sweep(&dfg, &space).unwrap();
        let direct = attribute_gains(&dfg, Metric::Performance, &space).unwrap();
        let reused = attribute_gains_with_points(&dfg, Metric::Performance, &points).unwrap();
        assert_eq!(direct, reused);
    }

    #[test]
    fn empty_sweep_is_a_typed_error() {
        let dfg = Workload::Red.default_instance();
        let err = attribute_gains_with_points(&dfg, Metric::Performance, &[]).unwrap_err();
        assert_eq!(err, SimError::EmptySweep);
    }

    #[test]
    fn csr_equals_non_transistor_factors() {
        let a = attr(Workload::Red, Metric::Performance);
        let het = a.contributions[1].factor;
        let simp = a.contributions[2].factor;
        assert!((a.csr - het * simp).abs() < 1e-12);
    }
}
