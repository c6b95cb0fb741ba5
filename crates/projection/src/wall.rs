//! Pareto projection and wall evaluation.

use crate::domains::{Domain, TargetMetric};
use crate::{ProjectionError, Result};
use accelwall_chipdb::fit::{NodeGroup, PAPER_TC_LAW};
use accelwall_cmos::TechNode;
use accelwall_stats::{pareto_frontier, Linear, LogLinear};
use accelwall_studies::{bitcoin, fpga, gpu, video};

/// The scatter a projection is fitted to.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionInput {
    /// Domain the points come from.
    pub domain: Domain,
    /// Metric being projected.
    pub metric: TargetMetric,
    /// `(physical capability, observed gain)` per chip, both relative to
    /// the domain baseline (gain may be in absolute domain units).
    pub points: Vec<(f64, f64)>,
    /// Physical capability of the final-node (5 nm) Table V chip, on the
    /// same relative axis.
    pub physical_limit: f64,
}

/// The fitted wall for one (domain, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct WallProjection {
    /// Domain projected.
    pub domain: Domain,
    /// Metric projected.
    pub metric: TargetMetric,
    /// The Eq. 5 linear Pareto-frontier model.
    pub linear: Linear,
    /// The Eq. 6 logarithmic Pareto-frontier model.
    pub log: LogLinear,
    /// Physical capability at the 5 nm limit.
    pub physical_limit: f64,
    /// Best gain observed in the data.
    pub current_best: f64,
    /// The wall under the linear model.
    pub linear_wall: f64,
    /// The wall under the logarithmic model.
    pub log_wall: f64,
    /// Remaining headroom under the linear model (`linear_wall /
    /// current_best`).
    pub further_linear: f64,
    /// Remaining headroom under the logarithmic model.
    pub further_log: f64,
    /// Number of Pareto-frontier points the models were fitted to.
    pub frontier_len: usize,
    /// A ±1.96σ confidence band on the linear wall (mean-response
    /// standard error at the extrapolated limit — the honest error bar
    /// Section VII's single numbers elide). Degenerate (`lo == hi`) when
    /// the frontier fits exactly.
    pub linear_wall_band: (f64, f64),
}

/// Fits both projection models to an input's Pareto frontier and
/// evaluates the accelerator wall.
///
/// # Errors
///
/// * [`ProjectionError::LimitInsideData`] when the physical limit does
///   not exceed every observed capability (nothing to extrapolate to).
/// * [`ProjectionError::Stats`] when the frontier is degenerate (fewer
///   than two points, or coincident capabilities).
pub fn project(input: &ProjectionInput) -> Result<WallProjection> {
    let xs: Vec<f64> = input.points.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = input.points.iter().map(|p| p.1).collect();
    let observed_max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if input.physical_limit <= observed_max {
        return Err(ProjectionError::LimitInsideData {
            limit: input.physical_limit,
            observed_max,
        });
    }
    let frontier = pareto_frontier(&xs, &ys)?;
    let fx: Vec<f64> = frontier.iter().map(|p| p.x).collect();
    let fy: Vec<f64> = frontier.iter().map(|p| p.y).collect();
    let linear = Linear::fit(&fx, &fy)?;
    let log = LogLinear::fit(&fx, &fy)?;
    let current_best = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    // A projection below today's best is vacuous; the wall is at least
    // what has already been built (the paper's frontiers are monotone).
    let linear_wall = linear.eval(input.physical_limit).max(current_best);
    let log_wall = log.eval(input.physical_limit).max(current_best);
    let (band_lo, band_hi) = linear.confidence_band(input.physical_limit, 1.96);
    Ok(WallProjection {
        domain: input.domain,
        metric: input.metric,
        linear,
        log,
        physical_limit: input.physical_limit,
        current_best,
        linear_wall,
        log_wall,
        further_linear: linear_wall / current_best,
        further_log: log_wall / current_best,
        frontier_len: frontier.len(),
        linear_wall_band: (band_lo.max(0.0), band_hi.max(current_best)),
    })
}

/// Builds the projection input for a domain and metric from the study
/// datasets, then projects the wall.
///
/// # Errors
///
/// Propagates study and statistics errors.
pub fn accelerator_wall(domain: Domain, metric: TargetMetric) -> Result<WallProjection> {
    let input = projection_input(domain, metric)?;
    project(&input)
}

/// Assembles the `(physical, gain)` scatter and 5 nm limit for a domain.
///
/// Physical axes per domain (see the crate docs): area-limited switched
/// silicon for the small ASICs (video, mining), TDP-capped switching
/// budget for GPUs and FPGA boards. Efficiency walls follow the paper's
/// "smallest dies" rule: ASIC/FPGA efficiency budgets scale the Table V
/// TDP by `min_die / max_die`, while GPUs — whose identity is their board
/// power class — project at the full Table V budget.
///
/// # Errors
///
/// Propagates study errors.
pub fn projection_input(domain: Domain, metric: TargetMetric) -> Result<ProjectionInput> {
    projection_input_with(domain, metric, domain.limits())
}

/// [`projection_input`] with explicit Table V parameters — the hook the
/// sensitivity analysis perturbs.
///
/// # Errors
///
/// Propagates study errors.
pub fn projection_input_with(
    domain: Domain,
    metric: TargetMetric,
    limits: crate::domains::DomainLimits,
) -> Result<ProjectionInput> {
    let n5 = domain.final_node();
    let (points, physical_limit) = match (domain, metric) {
        (Domain::VideoDecoding, TargetMetric::Performance) => {
            let chips = video::decoder_chips();
            let phys = |node: TechNode, die: f64, mhz: f64| {
                PAPER_TC_LAW.eval(node.density_factor(die)) * mhz
            };
            let base = phys(chips[0].node, chips[0].die_mm2, chips[0].freq_mhz);
            let pts = chips
                .iter()
                .map(|c| (phys(c.node, c.die_mm2, c.freq_mhz) / base, c.mpixels_per_s))
                .collect();
            let limit = phys(n5, limits.max_die_mm2, limits.freq_mhz) / base;
            (pts, limit)
        }
        (Domain::VideoDecoding, TargetMetric::EnergyEfficiency) => {
            let chips = video::decoder_chips();
            let base = chips[0].node.dynamic_energy_rel();
            let pts = chips
                .iter()
                .map(|c| (base / c.node.dynamic_energy_rel(), c.mpixels_per_joule()))
                .collect();
            (pts, base / n5.dynamic_energy_rel())
        }
        (Domain::GpuGraphics, TargetMetric::Performance) => {
            let chips = gpu::gpu_chips();
            let base = chips[0].physical_throughput();
            let pts = chips
                .iter()
                .map(|g| {
                    (
                        g.physical_throughput() / base,
                        gpu::latent_performance_gain(g),
                    )
                })
                .collect();
            let area = PAPER_TC_LAW.eval(n5.density_factor(limits.max_die_mm2)) / 1e9
                * limits.freq_mhz
                / 1e3;
            let power = NodeGroup::N10ToN5.paper_tdp_law().eval(limits.tdp_w);
            (pts, area.min(power) / base)
        }
        (Domain::GpuGraphics, TargetMetric::EnergyEfficiency) => {
            let chips = gpu::gpu_chips();
            let base = chips[0].physical_efficiency();
            let pts = chips
                .iter()
                .map(|g| {
                    (
                        g.physical_efficiency() / base,
                        gpu::latent_efficiency_gain(g),
                    )
                })
                .collect();
            let cap = NodeGroup::N10ToN5.paper_tdp_law().eval(limits.tdp_w);
            (pts, cap / limits.tdp_w / base)
        }
        (Domain::FpgaCnn, TargetMetric::Performance) => {
            let rows = all_fpga_rows();
            let base = fpga_budget(&rows[0]);
            let pts = rows
                .iter()
                .map(|r| (fpga_budget(r) / base, r.gops))
                .collect();
            let limit = NodeGroup::N10ToN5.paper_tdp_law().eval(limits.tdp_w) / base;
            (pts, limit)
        }
        (Domain::FpgaCnn, TargetMetric::EnergyEfficiency) => {
            let rows = all_fpga_rows();
            let base = fpga_budget(&rows[0]) / rows[0].power_w;
            let pts = rows
                .iter()
                .map(|r| (fpga_budget(r) / r.power_w / base, r.gops_per_joule()))
                .collect();
            let lean_tdp = limits.tdp_w * limits.min_die_mm2 / limits.max_die_mm2;
            let limit = NodeGroup::N10ToN5.paper_tdp_law().eval(lean_tdp) / lean_tdp / base;
            (pts, limit)
        }
        (Domain::BitcoinMining, TargetMetric::Performance) => {
            let asics = bitcoin::asic_miners();
            let base = &asics[0];
            let pts = asics
                .iter()
                .map(|m| {
                    (
                        bitcoin::physical_per_area_gain(m, base),
                        m.ghash_per_s_per_mm2(),
                    )
                })
                .collect();
            let limit = (n5.density_rel() * n5.frequency_potential())
                / (base.node.density_rel() * base.node.frequency_potential());
            (pts, limit)
        }
        (Domain::BitcoinMining, TargetMetric::EnergyEfficiency) => {
            let asics = bitcoin::asic_miners();
            let base = asics[0].clone();
            let pts = asics
                .iter()
                .map(|m| {
                    (
                        bitcoin::physical_efficiency_gain(m, &base),
                        m.ghash_per_joule(),
                    )
                })
                .collect();
            let limit = base.node.dynamic_energy_rel() / n5.dynamic_energy_rel();
            (pts, limit)
        }
    };
    Ok(ProjectionInput {
        domain,
        metric,
        points,
        physical_limit,
    })
}

fn all_fpga_rows() -> Vec<fpga::FpgaImpl> {
    // Fig. 15c/16c pools AlexNet and VGG-16 ("AlexNet+VGG-16" axis).
    let mut rows = fpga::alexnet_impls();
    rows.extend(fpga::vgg16_impls());
    rows
}

/// A board's TDP-capped switching budget (B-transistors × GHz) from its
/// node group law.
fn fpga_budget(r: &fpga::FpgaImpl) -> f64 {
    #[expect(
        clippy::expect_used,
        reason = "the FPGA dataset is a static table whose nodes (28/20 nm) all map to a group; covered by the fig8 study tests"
    )]
    let group = NodeGroup::of(r.node).expect("FPGA nodes are 28/20 nm");
    group.paper_tdp_law().eval(r.power_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall(d: Domain, m: TargetMetric) -> WallProjection {
        accelerator_wall(d, m).unwrap()
    }

    #[test]
    fn all_eight_walls_project() {
        for &d in Domain::all() {
            for m in [TargetMetric::Performance, TargetMetric::EnergyEfficiency] {
                let w = wall(d, m);
                assert!(w.physical_limit > 1.0, "{d} {m:?}");
                assert!(w.current_best > 0.0);
                assert!(
                    w.frontier_len >= 2,
                    "{d} {m:?}: frontier {}",
                    w.frontier_len
                );
                assert!(w.further_linear >= 1.0, "{d} {m:?}");
                assert!(w.further_log >= 1.0);
            }
        }
    }

    #[test]
    fn video_performance_headroom() {
        // Paper: "further performance improvements of 3-130x."
        let w = wall(Domain::VideoDecoding, TargetMetric::Performance);
        assert!(
            (3.0..130.0).contains(&w.further_linear) || (3.0..130.0).contains(&w.further_log),
            "linear {:.1} log {:.1}",
            w.further_linear,
            w.further_log
        );
        assert!(w.further_log <= w.further_linear);
    }

    #[test]
    fn video_efficiency_headroom() {
        // Paper: 1.2-14x further energy efficiency.
        let w = wall(Domain::VideoDecoding, TargetMetric::EnergyEfficiency);
        assert!(
            w.further_log < 20.0 && w.further_linear < 40.0,
            "linear {:.1} log {:.1}",
            w.further_linear,
            w.further_log
        );
    }

    #[test]
    fn gpu_performance_headroom_is_slim() {
        // Paper: 1.4-2.5x — the starkest wall.
        let w = wall(Domain::GpuGraphics, TargetMetric::Performance);
        assert!(
            (1.1..4.0).contains(&w.further_linear),
            "linear headroom {:.2}",
            w.further_linear
        );
    }

    #[test]
    fn gpu_efficiency_headroom_is_slimmer() {
        // Paper: 1.4-1.7x.
        let w = wall(Domain::GpuGraphics, TargetMetric::EnergyEfficiency);
        assert!(
            (1.0..2.5).contains(&w.further_linear),
            "linear headroom {:.2}",
            w.further_linear
        );
    }

    #[test]
    fn fpga_headrooms_match_paper_bands() {
        // Paper: performance 2.1-3.4x, efficiency 2.7-3.5x.
        let p = wall(Domain::FpgaCnn, TargetMetric::Performance);
        assert!(
            (1.5..8.0).contains(&p.further_linear),
            "perf headroom {:.2}",
            p.further_linear
        );
        let e = wall(Domain::FpgaCnn, TargetMetric::EnergyEfficiency);
        assert!(
            (1.5..6.0).contains(&e.further_linear),
            "EE headroom {:.2}",
            e.further_linear
        );
    }

    #[test]
    fn bitcoin_headrooms_match_paper_bands() {
        // Paper: performance 2-20x, efficiency 1.4-5x.
        let p = wall(Domain::BitcoinMining, TargetMetric::Performance);
        assert!(
            (2.0..25.0).contains(&p.further_linear),
            "perf headroom {:.2}",
            p.further_linear
        );
        assert!(p.further_log < p.further_linear);
        let e = wall(Domain::BitcoinMining, TargetMetric::EnergyEfficiency);
        assert!(
            (1.2..9.0).contains(&e.further_linear),
            "EE headroom {:.2}",
            e.further_linear
        );
    }

    #[test]
    fn linear_wall_dominates_log_wall_everywhere() {
        // Extrapolating a concave (log) fit can never exceed the linear
        // fit far beyond the data when both fit the same rising frontier.
        for &d in Domain::all() {
            for m in [TargetMetric::Performance, TargetMetric::EnergyEfficiency] {
                let w = wall(d, m);
                assert!(
                    w.log_wall <= w.linear_wall * 1.05,
                    "{d} {m:?}: log {:.1} vs linear {:.1}",
                    w.log_wall,
                    w.linear_wall
                );
            }
        }
    }

    #[test]
    fn limit_inside_data_is_rejected() {
        let input = ProjectionInput {
            domain: Domain::VideoDecoding,
            metric: TargetMetric::Performance,
            points: vec![(1.0, 1.0), (10.0, 5.0)],
            physical_limit: 5.0,
        };
        assert!(matches!(
            project(&input),
            Err(ProjectionError::LimitInsideData { .. })
        ));
    }

    #[test]
    fn confidence_band_brackets_the_linear_wall() {
        for &d in Domain::all() {
            let w = wall(d, TargetMetric::Performance);
            let (lo, hi) = w.linear_wall_band;
            assert!(lo <= hi, "{d}");
            // The raw linear estimate (before the current-best floor)
            // lies inside the band.
            assert!(
                w.linear.eval(w.physical_limit) <= hi + 1e-9,
                "{d}: wall above band"
            );
            // Extrapolation uncertainty is substantial: the band is wide
            // relative to the estimate whenever the frontier is noisy.
            assert!(hi.is_finite() && lo.is_finite());
        }
    }

    #[test]
    fn projection_wall_never_below_current_best() {
        for &d in Domain::all() {
            let w = wall(d, TargetMetric::Performance);
            assert!(w.linear_wall >= w.current_best);
            assert!(w.log_wall >= w.current_best);
        }
    }
}
