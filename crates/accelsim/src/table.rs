//! [`WalkTable`]: every graph walk a program's design points need, run
//! once, so any valid point prices in O(1).

use crate::sim::{
    assemble_report, energy_walk, graph_costs, timing_walk, DesignConfig, GraphCosts, SimReport,
    Timing, MAX_SIMPLIFICATION,
};
use crate::sweep::{SweepPoint, SweepSpace};
use crate::{Result, SimError};
use accelwall_cmos::TechNode;
use accelwall_dfg::Program;

/// The walks that price every design point of one lowered program.
///
/// A timing walk reads only the fusion window and the serial pass count,
/// and an energy walk only the simplification degree; neither reads the
/// partitioning factor. Every node in [`TechNode::all`], with
/// heterogeneity on and off, falls in one of five fusion windows, and the
/// degrees `1..=MAX_SIMPLIFICATION` in three pass counts: 15 timing walks
/// and 13 energy walks cover every config [`DesignConfig::validate`]
/// accepts. The table runs them once, then prices a config with one
/// `assemble_report` — the same walks and assembly
/// [`simulate_lowered`](crate::simulate_lowered) runs per call, so every
/// report is bit-identical to it.
#[derive(Debug, Clone)]
pub struct WalkTable {
    name: String,
    costs: GraphCosts,
    /// One timing walk per `(fusion window, serial passes)` key.
    timings: Vec<((u32, u32), Timing)>,
    /// One energy walk per degree, at index `degree - 1`.
    energies: Vec<f64>,
}

impl WalkTable {
    /// Runs every walk `program`'s valid configs need.
    pub fn new(program: &Program) -> WalkTable {
        let degrees =
            || (1..=MAX_SIMPLIFICATION).map(|d| DesignConfig::new(TechNode::N45, 1, d, false));
        let mut windows: Vec<u32> = TechNode::all()
            .iter()
            .flat_map(|&node| [true, false].map(|het| DesignConfig::new(node, 1, 1, het)))
            .map(|config| config.fusion_window())
            .collect();
        let mut passes: Vec<u32> = degrees().map(|c| c.serial_passes()).collect();
        for keys in [&mut windows, &mut passes] {
            keys.sort_unstable();
            keys.dedup();
        }
        let timings = windows
            .iter()
            .flat_map(|&w| passes.iter().map(move |&p| (w, p)))
            .map(|(w, p)| ((w, p), timing_walk(program, w, p)))
            .collect();
        let energies = degrees()
            .map(|c| energy_walk(program, c.width_factor(), c.serial_passes()))
            .collect();
        WalkTable {
            name: program.name().to_string(),
            costs: graph_costs(program),
            timings,
            energies,
        }
    }

    /// The name of the program the table was built from.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Prices one design point in O(1).
    ///
    /// # Errors
    ///
    /// Those of [`simulate_lowered`](crate::simulate_lowered):
    /// [`SimError::InvalidConfig`] for out-of-range knobs, then
    /// [`SimError::EmptyGraph`] for graphs without compute vertices.
    pub fn price(&self, config: &DesignConfig) -> Result<SimReport> {
        self.check(config)?;
        let (timing, dynamic_pj) = self.walks(config);
        Ok(assemble_report(&timing, dynamic_pj, &self.costs, config))
    }

    /// Prices every point of `space`, one [`SweepPoint`] per configuration
    /// in [`SweepSpace::configs`] order. The walks are looked up once per
    /// `(node, degree)` row and shared by the row's partitioning factors.
    /// The iterator holds no points: clone it to walk the space again.
    ///
    /// # Errors
    ///
    /// The error the point-at-a-time loop would meet first: the first
    /// [`SimError::InvalidConfig`] in configuration order, or
    /// [`SimError::EmptyGraph`] for graphs without compute vertices.
    pub fn sweep<'a>(
        &'a self,
        space: &'a SweepSpace,
    ) -> Result<impl Iterator<Item = SweepPoint> + Clone + 'a> {
        // Validity does not depend on the node, so the first node's block
        // of configs holds the first invalid one.
        let node_block = space.simplification_degrees.len() * space.partition_factors.len();
        for config in space.configs().take(node_block) {
            self.check(&config)?;
        }
        // A space without partitioning factors has no points, and its
        // degrees went unchecked: it prices no rows.
        let nodes = if space.partition_factors.is_empty() {
            &[][..]
        } else {
            &space.nodes[..]
        };
        let rows = nodes.iter().flat_map(move |&node| {
            space
                .simplification_degrees
                .iter()
                .map(move |&degree| DesignConfig::new(node, 1, degree, space.heterogeneity))
        });
        Ok(rows.flat_map(move |row| {
            let (timing, dynamic_pj) = self.walks(&row);
            space
                .partition_factors
                .iter()
                .map(move |&partition_factor| {
                    let config = DesignConfig {
                        partition_factor,
                        ..row
                    };
                    let report = assemble_report(&timing, dynamic_pj, &self.costs, &config);
                    SweepPoint { config, report }
                })
        }))
    }

    fn check(&self, config: &DesignConfig) -> Result<()> {
        config.validate()?;
        if self.costs.ops == 0 {
            return Err(SimError::EmptyGraph);
        }
        Ok(())
    }

    /// The timing and energy walks of a validated `config`.
    fn walks(&self, config: &DesignConfig) -> (Timing, f64) {
        let key = (config.fusion_window(), config.serial_passes());
        #[expect(
            clippy::expect_used,
            reason = "the table walks every window of TechNode::all() and every degree's pass count"
        )]
        let &(_, timing) = self
            .timings
            .iter()
            .find(|(k, _)| *k == key)
            .expect("a validated config's timing key is in the table");
        let degree = config.simplification_degree as usize;
        (timing, self.energies[degree - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelwall_workloads::Workload;

    #[test]
    fn fifteen_timing_walks_and_thirteen_energy_walks() {
        let table = WalkTable::new(&Workload::Trd.default_instance().lower());
        assert_eq!(table.timings.len(), 15);
        assert_eq!(table.energies.len(), 13);
        assert_eq!(table.name(), Workload::Trd.default_instance().name());
    }

    #[test]
    fn a_space_without_points_prices_nothing() {
        // No partitioning factor means no point, so no degree is checked
        // and none may be looked up, not even one out of range.
        let table = WalkTable::new(&Workload::Trd.default_instance().lower());
        let space = SweepSpace {
            partition_factors: Vec::new(),
            simplification_degrees: vec![14],
            ..SweepSpace::coarse()
        };
        assert_eq!(table.sweep(&space).unwrap().count(), 0);
    }
}
