//! The simulator core: design configuration, scheduling model, and report.

use crate::fu::{self, FuCost};
use crate::{Result, SimError};
use accelwall_cmos::TechNode;
use accelwall_dfg::{Dfg, Program, VertexClass};

/// Reference clock of every design point, in GHz. The paper's sweep holds
/// frequency fixed and lets CMOS speed show up as deeper operator fusion
/// (more gates per cycle), matching its Fig. 13 narrative.
pub const CLOCK_GHZ: f64 = 1.0;

/// Bits of datapath precision the workloads actually need; narrowing below
/// this forces multi-pass serialization.
pub const REQUIRED_PRECISION_BITS: u32 = 24;

/// Largest Table III partitioning factor (2¹⁹).
pub const MAX_PARTITION: u64 = 524_288;

/// Largest Table III simplification degree.
pub const MAX_SIMPLIFICATION: u32 = 13;

/// One point in the Table III design space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DesignConfig {
    /// CMOS process node.
    pub node: TechNode,
    /// Partitioning factor: parallel issue lanes and memory ports
    /// (1, 2, 4, … 524288).
    pub partition_factor: u64,
    /// Simplification degree 1–13: each degree sheds 2 bits of datapath
    /// width starting from 32.
    pub simplification_degree: u32,
    /// Whether heterogeneous operator fusion is enabled.
    pub heterogeneity: bool,
}

impl DesignConfig {
    /// Creates a configuration.
    pub fn new(
        node: TechNode,
        partition_factor: u64,
        simplification_degree: u32,
        heterogeneity: bool,
    ) -> Self {
        DesignConfig {
            node,
            partition_factor,
            simplification_degree,
            heterogeneity,
        }
    }

    /// The unoptimized reference: 45 nm, no partitioning, no
    /// simplification, no fusion — the normalization point of Fig. 14.
    pub fn baseline() -> Self {
        DesignConfig::new(TechNode::N45, 1, 1, false)
    }

    /// Validates the Table III ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending knob:
    /// partition factor must be a power of two in `1..=524288`, the
    /// simplification degree in `1..=13`.
    pub fn validate(&self) -> Result<()> {
        if self.partition_factor == 0
            || self.partition_factor > MAX_PARTITION
            || !self.partition_factor.is_power_of_two()
        {
            return Err(SimError::InvalidConfig {
                knob: "partition_factor",
                value: self.partition_factor.to_string(),
            });
        }
        if self.simplification_degree == 0 || self.simplification_degree > MAX_SIMPLIFICATION {
            return Err(SimError::InvalidConfig {
                knob: "simplification_degree",
                value: self.simplification_degree.to_string(),
            });
        }
        Ok(())
    }

    /// Datapath width in bits after simplification.
    pub fn datapath_bits(&self) -> u32 {
        32 - 2 * (self.simplification_degree - 1)
    }

    /// Fraction of the full-width datapath that remains (energy/area
    /// scale).
    pub fn width_factor(&self) -> f64 {
        f64::from(self.datapath_bits()) / 32.0
    }

    /// Serial passes an operation needs at this width.
    pub fn serial_passes(&self) -> u32 {
        REQUIRED_PRECISION_BITS.div_ceil(self.datapath_bits())
    }

    /// Fusion window: how many dependent single-cycle ops fit in one clock.
    /// Faster transistors fit longer chains; without heterogeneity the
    /// window is 1.
    pub fn fusion_window(&self) -> u32 {
        if self.heterogeneity {
            ((2.0 * self.node.frequency_potential()).round() as u32).max(1)
        } else {
            1
        }
    }
}

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig::baseline()
    }
}

/// The simulator's verdict on one (graph, configuration) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Total schedule length in clock cycles.
    pub cycles: f64,
    /// Wall-clock runtime in seconds at the reference clock.
    pub runtime_s: f64,
    /// Dynamic energy of the run in joules.
    pub dynamic_energy_j: f64,
    /// Leakage power in watts.
    pub leakage_w: f64,
    /// Accelerator area in normalized adder units.
    pub area_units: f64,
    /// Computation operations executed (graph compute vertices).
    pub ops: u64,
    /// Critical-path length in cycles (the partitioning asymptote).
    pub critical_path_cycles: f64,
}

impl SimReport {
    /// Average power: dynamic plus leakage, in watts.
    pub fn power_w(&self) -> f64 {
        self.dynamic_energy_j / self.runtime_s + self.leakage_w
    }

    /// Total energy: dynamic plus leaked, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.dynamic_energy_j + self.leakage_w * self.runtime_s
    }

    /// Throughput in operations per second.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.runtime_s
    }

    /// Energy efficiency in operations per joule.
    pub fn energy_efficiency(&self) -> f64 {
        self.ops as f64 / self.total_energy_j()
    }
}

/// Critical path and issue-slot work of one graph: the timing half of the
/// per-vertex cost walk. It reads only the fusion window and the serial
/// pass count, so one [`timing_walk`] prices every Table III point that
/// shares those two — whatever its node, degree or partitioning factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Timing {
    /// Critical-path length in cycles (the partitioning asymptote).
    pub(crate) critical_path: f64,
    /// Total issue-slot work in cycles.
    pub(crate) work_cycles: f64,
}

/// Config-independent cost constants of one lowered graph: the FU-class
/// lane area, the scratchpad area, and the op count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GraphCosts {
    pub(crate) lane_area: f64,
    pub(crate) sram_area: f64,
    pub(crate) ops: u64,
}

/// Number of FU classes [`class_key`] collapses ops into.
const CLASSES: usize = 8;

/// Computes the config-independent cost constants of `program`.
pub(crate) fn graph_costs(program: &Program) -> GraphCosts {
    let mut present = [false; CLASSES];
    for (v, &class) in program.classes().iter().enumerate() {
        if class == VertexClass::Compute {
            present[usize::from(class_key(program.opcode(v)))] = true;
        }
    }
    let stats = program.stats();
    GraphCosts {
        // Area: each lane instantiates one FU per op class present, plus
        // the scratchpad sized to the largest working set (banking
        // replicates ports, not capacity). Summed in ascending class key.
        lane_area: (0..CLASSES)
            .filter(|&k| present[k])
            .map(|k| class_area(k as u8))
            .sum(),
        sram_area: stats.max_working_set as f64 * fu::SRAM_WORD_AREA_UNITS,
        ops: stats.computes as u64,
    }
}

/// The timing walk: critical path and total work of `program` under a
/// fusion window and a serial pass count. One forward pass over the flat
/// arrays.
pub(crate) fn timing_walk(program: &Program, fusion_window: u32, serial_passes: u32) -> Timing {
    let window = f64::from(fusion_window);
    let passes = f64::from(serial_passes);

    // Per-node finish times along the critical path, and total work.
    let mut finish = vec![0.0f64; program.vertex_count()];
    let mut work_cycles = 0.0f64;

    for v in 0..program.vertex_count() {
        let ready = program
            .operands(v)
            .iter()
            .map(|&o| finish[o as usize])
            .fold(0.0f64, f64::max);
        match program.class(v) {
            VertexClass::Input => {
                // One port access; streams through the `lanes` ports.
                finish[v] = 1.0;
                work_cycles += 1.0;
            }
            VertexClass::Output => {
                finish[v] = ready + 1.0;
                work_cycles += 1.0;
            }
            VertexClass::Compute => {
                let c: FuCost = fu::cost(program.opcode(v));
                let (cp_cost, slot_cost) = if c.fusible {
                    (passes / window, passes / window)
                } else {
                    // Pipelined/iterative units: full latency on the path,
                    // one issue slot per pass.
                    (f64::from(c.latency_cycles) * passes, passes)
                };
                finish[v] = ready + cp_cost;
                work_cycles += slot_cost;
            }
        }
    }

    Timing {
        critical_path: finish.iter().copied().fold(0.0f64, f64::max).max(1.0),
        work_cycles,
    }
}

/// The energy walk: dynamic energy of `program` in picojoules, before
/// node scaling, at a datapath width factor and serial pass count — both
/// set by the simplification degree alone. Accumulates in vertex order.
pub(crate) fn energy_walk(program: &Program, width: f64, serial_passes: u32) -> f64 {
    let passes = f64::from(serial_passes);
    let mut dynamic_pj = 0.0f64;
    for v in 0..program.vertex_count() {
        match program.class(v) {
            VertexClass::Input | VertexClass::Output => {
                dynamic_pj += fu::ACCESS_ENERGY_PJ * width;
            }
            VertexClass::Compute => {
                dynamic_pj += fu::cost(program.opcode(v)).energy_pj * width * passes;
            }
        }
    }
    dynamic_pj
}

/// Assembles the final [`SimReport`] of one design point from its walks'
/// results — the only place `partition_factor` enters, O(1) per point.
/// The expressions are kept verbatim from the original monolithic walk so
/// reports stay bit-identical.
pub(crate) fn assemble_report(
    timing: &Timing,
    dynamic_pj: f64,
    costs: &GraphCosts,
    config: &DesignConfig,
) -> SimReport {
    let lanes = config.partition_factor as f64;
    let width = config.width_factor();
    let cycles = timing.critical_path.max(timing.work_cycles / lanes);
    let runtime_s = cycles / (CLOCK_GHZ * 1e9);
    let area_units = (costs.lane_area * lanes + costs.sram_area) * width;
    let dynamic_energy_j = dynamic_pj * 1e-12 * config.node.dynamic_energy_rel();
    // A normalized area unit holds a fixed transistor count, so leakage
    // scales with the per-transistor leakage of the node alone.
    let leakage_w = area_units * fu::LEAK_UW_PER_AREA_UNIT * 1e-6 * config.node.leakage_rel();
    SimReport {
        cycles,
        runtime_s,
        dynamic_energy_j,
        leakage_w,
        area_units,
        ops: costs.ops,
        critical_path_cycles: timing.critical_path,
    }
}

/// Runs the analytical schedule of a lowered `program` under `config`.
///
/// The model is the standard pre-RTL bound pair:
/// `cycles = max(critical path, work / lanes)`, with per-op costs from the
/// FU library scaled by fusion, serialization, and CMOS node — the same
/// quantities Aladdin extracts from its dynamic trace. A timing walk and
/// an energy walk read only the flat SoA arrays. Callers pricing many
/// points over one graph (the sweep, the attribution toggle chain) build
/// a [`WalkTable`](crate::WalkTable) instead, which runs the same two
/// walks once per distinct key, so one cost model prices every point.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for out-of-range knobs and
/// [`SimError::EmptyGraph`] for graphs without compute vertices.
pub fn simulate_lowered(program: &Program, config: &DesignConfig) -> Result<SimReport> {
    config.validate()?;
    if program.stats().computes == 0 {
        return Err(SimError::EmptyGraph);
    }
    let timing = timing_walk(program, config.fusion_window(), config.serial_passes());
    let dynamic_pj = energy_walk(program, config.width_factor(), config.serial_passes());
    Ok(assemble_report(
        &timing,
        dynamic_pj,
        &graph_costs(program),
        config,
    ))
}

/// Runs the analytical schedule of `dfg` under `config` — the front-end
/// convenience over [`simulate_lowered`] that lowers per call. Hot loops
/// should lower once with [`Dfg::lower`] and share the program.
///
/// # Errors
///
/// Same as [`simulate_lowered`].
pub fn simulate(dfg: &Dfg, config: &DesignConfig) -> Result<SimReport> {
    simulate_lowered(&dfg.lower(), config)
}

/// Collapses ops into FU classes so a lane holds one unit per class.
fn class_key(op: accelwall_dfg::Op) -> u8 {
    use accelwall_dfg::Op;
    match op {
        Op::Add | Op::Sub | Op::Min | Op::Max | Op::Abs | Op::Neg => 0,
        Op::And | Op::Or | Op::Xor | Op::Not | Op::Shl | Op::Shr => 1,
        Op::CmpLt | Op::CmpEq | Op::Select | Op::Copy => 2,
        Op::Mul => 3,
        Op::Div | Op::Mod => 4,
        Op::Sqrt => 5,
        Op::Sigmoid => 6,
        Op::Lut { .. } => 7,
    }
}

fn class_area(key: u8) -> f64 {
    use accelwall_dfg::Op;
    let representative = match key {
        0 => Op::Add,
        1 => Op::Xor,
        2 => Op::Select,
        3 => Op::Mul,
        4 => Op::Div,
        5 => Op::Sqrt,
        6 => Op::Sigmoid,
        _ => Op::Lut { table: 0 },
    };
    fu::cost(representative).area_units
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelwall_workloads::Workload;

    fn s3d() -> Dfg {
        Workload::S3d.default_instance()
    }

    #[test]
    fn baseline_runs() {
        let r = simulate(&s3d(), &DesignConfig::baseline()).unwrap();
        assert!(r.cycles > 100.0);
        assert!(r.runtime_s > 0.0);
        assert!(r.power_w() > 0.0);
        assert!(r.ops > 100);
    }

    #[test]
    fn partitioning_improves_runtime_until_critical_path() {
        let g = s3d();
        let mut last = f64::INFINITY;
        let mut plateaued = false;
        for p in [1u64, 4, 16, 64, 256, 1024, 4096] {
            let r = simulate(&g, &DesignConfig::new(TechNode::N45, p, 1, false)).unwrap();
            assert!(r.cycles <= last + 1e-9, "partitioning must not hurt");
            if (r.cycles - r.critical_path_cycles).abs() < 1e-9 {
                plateaued = true;
            }
            last = r.cycles;
        }
        assert!(plateaued, "runtime should hit the critical-path asymptote");
    }

    #[test]
    fn over_partitioning_wastes_leakage() {
        // Paper: "old nodes experience diminishing returns due to
        // underutilized partitioned resources."
        let g = s3d();
        let modest = simulate(&g, &DesignConfig::new(TechNode::N45, 256, 1, false)).unwrap();
        let absurd = simulate(
            &g,
            &DesignConfig::new(TechNode::N45, MAX_PARTITION, 1, false),
        )
        .unwrap();
        assert_eq!(absurd.cycles, absurd.critical_path_cycles);
        assert!(absurd.leakage_w > 100.0 * modest.leakage_w);
        assert!(absurd.energy_efficiency() < modest.energy_efficiency());
    }

    #[test]
    fn simplification_saves_power_not_runtime_at_low_degree() {
        let g = s3d();
        let plain = simulate(&g, &DesignConfig::new(TechNode::N45, 16, 1, false)).unwrap();
        let simp = simulate(&g, &DesignConfig::new(TechNode::N45, 16, 5, false)).unwrap();
        assert_eq!(plain.cycles, simp.cycles, "width 24 needs no extra passes");
        assert!(simp.dynamic_energy_j < plain.dynamic_energy_j);
        assert!(simp.leakage_w < plain.leakage_w);
    }

    #[test]
    fn extreme_simplification_serializes() {
        let g = s3d();
        let simp5 = simulate(&g, &DesignConfig::new(TechNode::N45, 16, 5, false)).unwrap();
        let simp13 = simulate(&g, &DesignConfig::new(TechNode::N45, 16, 13, false)).unwrap();
        // Width 8 needs ceil(24/8) = 3 passes.
        assert!(simp13.cycles > 2.0 * simp5.cycles);
    }

    #[test]
    fn heterogeneity_shortens_the_critical_path() {
        let g = s3d();
        let base = simulate(
            &g,
            &DesignConfig::new(TechNode::N45, MAX_PARTITION, 1, false),
        )
        .unwrap();
        let fused = simulate(
            &g,
            &DesignConfig::new(TechNode::N45, MAX_PARTITION, 1, true),
        )
        .unwrap();
        assert!(fused.critical_path_cycles < base.critical_path_cycles);
    }

    #[test]
    fn newer_nodes_fuse_deeper() {
        let c45 = DesignConfig::new(TechNode::N45, 1, 1, true);
        let c5 = DesignConfig::new(TechNode::N5, 1, 1, true);
        assert!(c5.fusion_window() > c45.fusion_window());
        assert_eq!(DesignConfig::baseline().fusion_window(), 1);
    }

    #[test]
    fn cmos_scaling_cuts_energy_and_leakage() {
        let g = s3d();
        let old = simulate(&g, &DesignConfig::new(TechNode::N45, 64, 1, false)).unwrap();
        let new = simulate(&g, &DesignConfig::new(TechNode::N5, 64, 1, false)).unwrap();
        assert!(new.dynamic_energy_j < 0.1 * old.dynamic_energy_j);
        assert!(new.leakage_w < old.leakage_w);
        assert_eq!(new.cycles, old.cycles, "same schedule without fusion");
    }

    #[test]
    fn config_validation() {
        assert!(DesignConfig::new(TechNode::N45, 3, 1, false)
            .validate()
            .is_err());
        assert!(DesignConfig::new(TechNode::N45, 0, 1, false)
            .validate()
            .is_err());
        assert!(DesignConfig::new(TechNode::N45, 1, 0, false)
            .validate()
            .is_err());
        assert!(DesignConfig::new(TechNode::N45, 1, 14, false)
            .validate()
            .is_err());
        assert!(DesignConfig::new(TechNode::N45, 1 << 19, 13, true)
            .validate()
            .is_ok());
    }

    #[test]
    fn datapath_width_schedule() {
        assert_eq!(
            DesignConfig::new(TechNode::N45, 1, 1, false).datapath_bits(),
            32
        );
        assert_eq!(
            DesignConfig::new(TechNode::N45, 1, 5, false).datapath_bits(),
            24
        );
        assert_eq!(
            DesignConfig::new(TechNode::N45, 1, 13, false).datapath_bits(),
            8
        );
        assert_eq!(
            DesignConfig::new(TechNode::N45, 1, 13, false).serial_passes(),
            3
        );
    }

    #[test]
    fn work_conservation_across_partitioning() {
        // Total ops never change with the knobs; only their schedule does.
        let g = s3d();
        let a = simulate(&g, &DesignConfig::new(TechNode::N45, 1, 1, false)).unwrap();
        let b = simulate(&g, &DesignConfig::new(TechNode::N7, 4096, 7, true)).unwrap();
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn all_workloads_simulate_across_extreme_configs() {
        for &w in Workload::all() {
            let g = w.default_instance();
            for config in [
                DesignConfig::baseline(),
                DesignConfig::new(TechNode::N5, MAX_PARTITION, 13, true),
                DesignConfig::new(TechNode::N22, 64, 7, true),
            ] {
                let r = simulate(&g, &config).unwrap();
                assert!(r.runtime_s > 0.0 && r.power_w() > 0.0, "{w} {config:?}");
            }
        }
    }
}
