//! Pre-RTL accelerator design-space simulator — the Aladdin substitute.
//!
//! Section VI of the paper drives Aladdin (a pre-RTL power/performance
//! simulator) over 16 accelerator benchmarks, sweeping the Table III design
//! space: partitioning factors 1…2¹⁹, simplification degrees 1…13, and
//! seven CMOS nodes, with heterogeneity (operator fusion) layered on top.
//! This crate implements the same knob set over the dataflow graphs of
//! [`accelwall_workloads`]:
//!
//! * **Partitioning** replicates execution lanes and memory ports: up to
//!   `partition_factor` operations issue per cycle. Runtime follows the
//!   classic bound `max(critical path, work / lanes)`, so partitioning
//!   helps until the DFG's depth dominates — the Fig. 13 plateau.
//! * **Simplification** narrows the datapath: each degree sheds 2 bits of
//!   width, linearly cutting dynamic energy, area, and leakage; once the
//!   width drops below the workload's required precision, operations
//!   serialize (`ceil(precision / width)` passes) — the "diminishing
//!   returns due to deep pipelining" the paper describes.
//! * **Heterogeneity** fuses chains of dependent single-cycle operations
//!   into one cycle; faster transistors fit longer chains, which is how
//!   newer CMOS keeps improving performance after partitioning saturates.
//! * **CMOS node** scales per-operation energy, leakage, and the fusion
//!   window through [`accelwall_cmos`].
//!
//! The output of a run is a [`SimReport`] with cycles, runtime, energy,
//! power, area, throughput, and energy efficiency; a [`WalkTable`] runs a
//! program's graph walks once and prices any design point from them,
//! [`sweep`] runs the full Table III grid (Fig. 13) over one, and
//! [`attribution`] decomposes each workload's optimal-point gain into the
//! four sources of Fig. 14.
//!
//! # Example
//!
//! ```
//! use accelwall_accelsim::{simulate, DesignConfig};
//! use accelwall_cmos::TechNode;
//! use accelwall_workloads::Workload;
//!
//! let dfg = Workload::S3d.default_instance();
//! let base = simulate(&dfg, &DesignConfig::baseline()).unwrap();
//! let tuned = simulate(
//!     &dfg,
//!     &DesignConfig::new(TechNode::N5, 256, 5, true),
//! )
//! .unwrap();
//! assert!(tuned.runtime_s < base.runtime_s);
//! assert!(tuned.energy_efficiency() > base.energy_efficiency());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attribution;
pub mod fu;
pub mod sched;
pub mod sim;
pub mod sweep;
pub mod table;

pub use attribution::{
    attribute_gains, attribute_gains_priced, attribute_gains_with_points, Attribution, GainSource,
};
pub use sched::{schedule, schedule_lowered, schedule_reference, simulate_scheduled, Schedule};
pub use sim::{simulate, simulate_lowered, DesignConfig, SimReport};
pub use sweep::{run_sweep, run_sweep_lowered, SweepPoint, SweepSpace};
pub use table::WalkTable;

use std::error::Error;
use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration violated the Table III ranges.
    InvalidConfig {
        /// Which knob was out of range.
        knob: &'static str,
        /// A rendering of the offending value.
        value: String,
    },
    /// The graph has no computation vertices to schedule.
    EmptyGraph,
    /// A sweep produced no design points, so there is no optimum to pick.
    EmptySweep,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { knob, value } => {
                write!(f, "invalid design config: {knob} = {value}")
            }
            SimError::EmptyGraph => write!(f, "graph has no computation vertices"),
            SimError::EmptySweep => write!(f, "sweep produced no design points"),
        }
    }
}

impl Error for SimError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
