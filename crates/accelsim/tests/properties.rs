//! Randomized tests of the simulator and scheduler over randomly
//! generated dataflow graphs and design points, driven by the
//! deterministic [`Rng`] from `accelwall-stats`.

use accelwall_accelsim::{
    run_sweep_lowered, schedule, schedule_reference, simulate, simulate_lowered, DesignConfig,
    SweepSpace,
};
use accelwall_cmos::TechNode;
use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};
use accelwall_stats::Rng;
use accelwall_workloads::Workload;

const OPS: [Op; 10] = [
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Min,
    Op::Max,
    Op::Abs,
    Op::Xor,
    Op::Sqrt,
    Op::Select,
    Op::Copy,
];

const CASES: u64 = 96;

fn build(inputs: usize, ops: &[(u8, u8, u8, u8)]) -> Dfg {
    let mut b = DfgBuilder::new("random");
    let mut nodes: Vec<NodeId> = (0..inputs).map(|i| b.input(format!("x{i}"))).collect();
    for &(op_sel, a_sel, b_sel, c_sel) in ops {
        let op = OPS[op_sel as usize % OPS.len()];
        let pick = |sel: u8, n: usize| sel as usize % n;
        let n = nodes.len();
        let operands: Vec<NodeId> = (0..op.arity())
            .map(|k| nodes[pick([a_sel, b_sel, c_sel][k], n)])
            .collect();
        nodes.push(b.op(op, &operands));
    }
    let tail = nodes.len().saturating_sub(2);
    for (k, &n) in nodes[tail..].iter().enumerate() {
        b.output(format!("o{k}"), n);
    }
    b.build().expect("random graphs are valid by construction")
}

/// Draws a random `(inputs, ops)` graph recipe; operand selectors index
/// already-existing nodes, so the graph is a DAG by construction.
fn arb_graph(rng: &mut Rng) -> (usize, Vec<(u8, u8, u8, u8)>) {
    let inputs = rng.range(1, 6) as usize;
    let n_ops = rng.range(1, 80) as usize;
    let ops = (0..n_ops)
        .map(|_| {
            (
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
            )
        })
        .collect();
    (inputs, ops)
}

fn arb_config(rng: &mut Rng) -> DesignConfig {
    let nodes = TechNode::sweep_nodes();
    let node = nodes[rng.index(nodes.len())];
    let p_exp = rng.below(16) as u32;
    let s = rng.range(1, 14) as u32;
    let het = rng.flip();
    DesignConfig::new(node, 1 << p_exp, s, het)
}

#[test]
fn simulate_is_total_and_sane() {
    let mut rng = Rng::seed(0xACCE_0001);
    for _ in 0..CASES {
        let (inputs, ops) = arb_graph(&mut rng);
        let config = arb_config(&mut rng);
        let dfg = build(inputs, &ops);
        let r = simulate(&dfg, &config).unwrap();
        assert!(r.cycles >= 1.0);
        assert!(r.runtime_s > 0.0);
        assert!(r.dynamic_energy_j > 0.0);
        assert!(r.leakage_w > 0.0);
        assert!(r.power_w().is_finite());
        assert!(r.cycles >= r.critical_path_cycles - 1e-9);
        assert_eq!(r.ops, dfg.stats().computes as u64);
    }
}

#[test]
fn scheduler_is_total_and_dependence_safe() {
    let mut rng = Rng::seed(0xACCE_0002);
    for _ in 0..CASES {
        let (inputs, ops) = arb_graph(&mut rng);
        let config = arb_config(&mut rng);
        let dfg = build(inputs, &ops);
        let s = schedule(&dfg, &config).unwrap();
        assert!(s.respects_dependences(&dfg));
        assert!(s.makespan >= 1);
        assert!(s.peak_lanes_busy <= config.partition_factor);
        assert!(s.utilization > 0.0 && s.utilization <= 1.0 + 1e-9);
        // Every node got a slot.
        for id in dfg.ids() {
            assert!(s.finish_cycle[id.index()] > s.start_cycle[id.index()]);
        }
    }
}

#[test]
fn bound_lower_bounds_schedule_without_fusion() {
    let mut rng = Rng::seed(0xACCE_0003);
    for _ in 0..CASES {
        let (inputs, ops) = arb_graph(&mut rng);
        let p_exp = rng.below(12) as u32;
        let s = rng.range(1, 14) as u32;
        let dfg = build(inputs, &ops);
        let config = DesignConfig::new(TechNode::N45, 1 << p_exp, s, false);
        let bound = simulate(&dfg, &config).unwrap().cycles;
        let actual = schedule(&dfg, &config).unwrap().makespan as f64;
        assert!(
            actual >= bound * 0.99 - 1.0,
            "scheduled {actual} below bound {bound}"
        );
        assert!(
            actual <= 2.0 * bound + 8.0,
            "scheduled {actual} breaks Graham vs bound {bound}"
        );
    }
}

#[test]
fn lowered_scheduler_is_bit_identical_to_the_reference_on_random_graphs() {
    // `schedule` runs the flat bytecode scheduler; `schedule_reference`
    // keeps the original adjacency-list walk verbatim. The two must agree
    // on every field of every schedule — start cycles, finish cycles,
    // makespan, peak occupancy, and utilization (an f64, compared
    // exactly).
    let mut rng = Rng::seed(0xACCE_0006);
    for _ in 0..CASES {
        let (inputs, ops) = arb_graph(&mut rng);
        let config = arb_config(&mut rng);
        let dfg = build(inputs, &ops);
        let lowered = schedule(&dfg, &config).unwrap();
        let reference = schedule_reference(&dfg, &config).unwrap();
        assert_eq!(lowered, reference, "{config:?}");
        assert_eq!(
            lowered.utilization.to_bits(),
            reference.utilization.to_bits()
        );
    }
}

#[test]
fn lowered_scheduler_is_bit_identical_to_the_reference_on_registry_workloads() {
    let configs = [
        DesignConfig::baseline(),
        DesignConfig::new(TechNode::N45, 64, 1, false),
        DesignConfig::new(TechNode::N7, 256, 5, true),
        DesignConfig::new(TechNode::N5, 4096, 13, true),
    ];
    for &w in Workload::all() {
        let dfg = w.default_instance();
        for config in configs {
            let lowered = schedule(&dfg, &config).unwrap();
            let reference = schedule_reference(&dfg, &config).unwrap();
            assert_eq!(lowered, reference, "{w} {config:?}");
        }
    }
}

#[test]
fn hoisted_sweep_is_bit_identical_to_per_point_simulation_on_random_graphs() {
    // The sweep shares each timing and energy walk across many points; a
    // point-by-point `simulate_lowered` runs both walks per point. Every
    // report field must still match to the bit.
    let mut rng = Rng::seed(0xACCE_0007);
    let space = SweepSpace::coarse();
    for _ in 0..24 {
        let (inputs, ops) = arb_graph(&mut rng);
        let dfg = build(inputs, &ops);
        let program = dfg.lower();
        let points = run_sweep_lowered(&program, &space).unwrap();
        assert_eq!(points.len(), space.len());
        for (point, config) in points.iter().zip(space.configs()) {
            assert_eq!(point.config, config, "sweep must keep config order");
            let direct = simulate_lowered(&program, &config).unwrap();
            assert_eq!(point.report, direct, "{config:?}");
        }
    }
}

#[test]
fn hoisted_sweep_is_bit_identical_to_per_point_simulation_on_registry_workloads() {
    let space = SweepSpace::coarse();
    for &w in Workload::all() {
        let program = w.default_instance().lower();
        let points = run_sweep_lowered(&program, &space).unwrap();
        for (point, config) in points.iter().zip(space.configs()) {
            let direct = simulate_lowered(&program, &config).unwrap();
            assert_eq!(point.report, direct, "{w} {config:?}");
        }
    }
}

#[test]
fn bytecode_vm_matches_the_tree_walking_oracle_on_registry_workloads() {
    // Deterministic pseudo-random inputs per workload; the register
    // machine and the legacy recursive interpreter must agree on every
    // output bit (or return the identical error).
    let mut rng = Rng::seed(0xACCE_0008);
    for &w in Workload::all() {
        let dfg = w.default_instance();
        let program = dfg.lower();
        let inputs: std::collections::HashMap<String, f64> = program
            .input_slots()
            .iter()
            .map(|(name, _)| (name.clone(), rng.uniform(-4.0, 4.0)))
            .collect();
        let vm = program.evaluate(&inputs);
        let oracle = dfg.evaluate_reference(&inputs);
        assert_eq!(vm, oracle, "{w}");
        if let (Ok(vm), Ok(oracle)) = (&vm, &oracle) {
            for (name, value) in vm {
                assert_eq!(value.to_bits(), oracle[name].to_bits(), "{w} {name}");
            }
        }
    }
}

#[test]
fn energy_scales_linearly_with_width() {
    // Halving the datapath (degree 9 = 16 bits) halves dynamic energy
    // exactly in the model — until serialization multiplies passes.
    let mut rng = Rng::seed(0xACCE_0004);
    for _ in 0..CASES {
        let (inputs, ops) = arb_graph(&mut rng);
        let p_exp = rng.below(8) as u32;
        let dfg = build(inputs, &ops);
        let full = simulate(
            &dfg,
            &DesignConfig::new(TechNode::N45, 1 << p_exp, 1, false),
        )
        .unwrap();
        let s5 = simulate(
            &dfg,
            &DesignConfig::new(TechNode::N45, 1 << p_exp, 5, false),
        )
        .unwrap();
        // Width 24/32 = 0.75, same pass count.
        assert!((s5.dynamic_energy_j / full.dynamic_energy_j - 0.75).abs() < 1e-9);
    }
}

#[test]
fn leakage_independent_of_clock_schedule() {
    let mut rng = Rng::seed(0xACCE_0005);
    for _ in 0..CASES {
        let (inputs, ops) = arb_graph(&mut rng);
        let dfg = build(inputs, &ops);
        let a = simulate(&dfg, &DesignConfig::new(TechNode::N7, 4, 1, false)).unwrap();
        let b = simulate(&dfg, &DesignConfig::new(TechNode::N7, 4, 1, true)).unwrap();
        // Fusion changes cycles, not area/leakage.
        assert_eq!(a.leakage_w, b.leakage_w);
        assert_eq!(a.area_units, b.area_units);
    }
}
