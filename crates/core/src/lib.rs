//! # accelerator-wall
//!
//! A from-scratch Rust reproduction of **"The Accelerator Wall: Limits of
//! Chip Specialization"** (Fuchs & Wentzlaff, HPCA 2019).
//!
//! The paper asks: once CMOS scaling ends and transistor budgets freeze,
//! how much further can chip *specialization* carry accelerator gains?
//! Answering that takes a full analysis stack, all of which lives in this
//! workspace and is re-exported here:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`stats`] | regression / Pareto machinery (Eqs. 5–6 fits) |
//! | [`cmos`] | device-scaling model (Fig. 3a) |
//! | [`chipdb`] | datasheet corpus + transistor-budget fits (Figs. 3b–3c) |
//! | [`potential`] | the CMOS potential model (Fig. 3d) |
//! | [`csr`] | Chip Specialization Return (Eqs. 1–4) |
//! | [`dfg`] | dataflow-graph formalism + Table II limits |
//! | [`workloads`] | the 16 Table IV benchmark DFGs |
//! | [`accelsim`] | pre-RTL design-space simulator (Figs. 13–14) |
//! | [`studies`] | the four empirical case studies (Figs. 1, 4–9) |
//! | [`projection`] | the accelerator wall itself (Figs. 15–16) |
//!
//! On top of the analysis stack sits the **reproduction pipeline** — the
//! machinery that turns those layers into the paper's figures and tables:
//!
//! | Module | Role |
//! |---|---|
//! | [`error`] | one workspace-wide [`error::Error`] every layer converts into |
//! | [`experiment`] | the [`experiment::Experiment`] trait + [`experiment::Artifact`] output |
//! | [`cache`] | [`cache::Ctx`] — memoizes corpus, fits, and sweeps once per process |
//! | [`artifacts`] | [`artifacts::ArtifactCache`] — memoizes experiment outputs for long-lived processes |
//! | [`registry`] | all paper targets, dependency-ordered parallel execution |
//! | [`experiments`] | the per-layer experiment implementations |
//! | [`json`] | a small dependency-free JSON value + parser for `--json` output |
//! | [`report`] | per-domain verdict synthesis (the `report` target) |
//!
//! # Quickstart
//!
//! ```
//! use accelerator_wall::prelude::*;
//!
//! // How far can Bitcoin-mining ASICs still go after 5 nm?
//! let wall = accelerator_wall(Domain::BitcoinMining, TargetMetric::Performance)?;
//! println!(
//!     "headroom: {:.1}x (linear) / {:.1}x (log)",
//!     wall.further_linear, wall.further_log
//! );
//! assert!(wall.further_linear < 25.0);
//!
//! // Decompose a design-space optimum into its gain sources (Fig. 14).
//! let dfg = Workload::S3d.default_instance();
//! let attribution = attribute_gains(
//!     &dfg,
//!     Metric::EnergyEfficiency,
//!     &SweepSpace::coarse(),
//! )?;
//! assert!(attribution.csr < attribution.total_gain);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifacts;
pub mod cache;
pub mod error;
pub mod experiment;
pub mod experiments;
pub mod json;
pub mod registry;
pub mod report;

pub use accelwall_accelsim as accelsim;
pub use accelwall_chipdb as chipdb;
pub use accelwall_cmos as cmos;
pub use accelwall_csr as csr;
pub use accelwall_dfg as dfg;
pub use accelwall_potential as potential;
pub use accelwall_projection as projection;
pub use accelwall_stats as stats;
pub use accelwall_studies as studies;
pub use accelwall_workloads as workloads;

/// The working set of names most analyses need.
pub mod prelude {
    pub use crate::artifacts::{ArtifactCache, CacheStats};
    pub use crate::cache::Ctx;
    pub use crate::error::{Error, ResultExt};
    pub use crate::experiment::{Artifact, Experiment};
    pub use crate::registry::Registry;
    pub use crate::report::{DomainReport, Maturity};
    pub use accelwall_accelsim::attribution::Metric;
    pub use accelwall_accelsim::{
        attribute_gains, attribute_gains_priced, attribute_gains_with_points, run_sweep,
        run_sweep_lowered, schedule, schedule_lowered, simulate, simulate_lowered,
        simulate_scheduled, Attribution, DesignConfig, Schedule, SimReport, SweepSpace, WalkTable,
    };
    pub use accelwall_chipdb::{ChipKind, ChipRecord, CorpusSpec, NodeGroup};
    pub use accelwall_cmos::{ScalingMetric, TechNode};
    pub use accelwall_csr::{csr, decompose, ArchObservations, CsrSeries, RelationMatrix};
    pub use accelwall_dfg::{
        concept_limit, Component, Dfg, DfgBuilder, Op, Program, SpecializationConcept,
    };
    pub use accelwall_potential::{fig3d_grid, ChipSpec, PotentialModel, TdpZone};
    pub use accelwall_projection::{
        accelerator_wall, beyond_wall, BeyondWall, Domain, TargetMetric, WallProjection,
    };
    pub use accelwall_workloads::{InstanceSize, Workload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_wires_the_whole_stack() {
        // One end-to-end pass touching every layer through the facade.
        let model = PotentialModel::paper();
        let baseline = PotentialModel::reference_spec();
        let spec = ChipSpec::new(TechNode::N7, 100.0, 1.2, 150.0);
        let physical = model.throughput_gain(&spec, &baseline);
        assert!(physical > 1.0);
        let d = decompose(2.0 * physical, physical, 1.0).unwrap();
        assert!((d.specialization - 2.0).abs() < 1e-9);

        let dfg = Workload::Trd.default_instance();
        let report = simulate(&dfg, &DesignConfig::baseline()).unwrap();
        assert!(report.runtime_s > 0.0);

        let wall = accelerator_wall(Domain::GpuGraphics, TargetMetric::Performance).unwrap();
        assert!(wall.further_linear >= 1.0);
    }
}
