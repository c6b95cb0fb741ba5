//! Integration of the simulation pipeline: workloads → DFG analyses →
//! simulator → sweep → attribution, mirroring the paper's Section VI flow.

use accelerator_wall::accelsim::attribution::Metric;
use accelerator_wall::accelsim::sweep::best_efficiency;
use accelerator_wall::accelsim::SimError;
use accelerator_wall::prelude::*;

#[test]
fn every_workload_sweeps_and_attributes() {
    let space = SweepSpace::coarse();
    for &w in Workload::all() {
        let dfg = w.default_instance();
        let points = run_sweep(&dfg, &space).unwrap();
        assert_eq!(points.len(), space.len(), "{w}");
        let a = attribute_gains(&dfg, Metric::Performance, &space).unwrap();
        assert!(a.total_gain > 1.0, "{w}: no gain at all?");
        let product: f64 = a.contributions.iter().map(|c| c.factor).product();
        assert!((product / a.total_gain - 1.0).abs() < 1e-9, "{w}");
    }
}

#[test]
fn partitioning_dominates_performance_on_parallel_kernels() {
    // Fig. 14a: partitioning is the primary performance source for the
    // embarrassingly parallel kernels.
    let space = SweepSpace::table3();
    for w in [Workload::S2d, Workload::Gmm, Workload::Trd, Workload::Sad] {
        let a = attribute_gains(&w.default_instance(), Metric::Performance, &space).unwrap();
        let top = a
            .contributions
            .iter()
            .max_by(|x, y| x.percent.partial_cmp(&y.percent).unwrap())
            .unwrap();
        assert_eq!(
            format!("{}", top.source),
            "Partitioning",
            "{w}: {:?}",
            a.contributions
        );
    }
}

#[test]
fn cmos_saving_leads_efficiency_on_average() {
    // Fig. 14b: CMOS saving is the dominating efficiency factor on
    // average across the suite.
    let space = SweepSpace::coarse();
    let mut cmos_log_share = 0.0;
    let mut others_max = f64::NEG_INFINITY;
    let mut per_source = std::collections::HashMap::new();
    for &w in Workload::all() {
        let a = attribute_gains(&w.default_instance(), Metric::EnergyEfficiency, &space).unwrap();
        for c in &a.contributions {
            *per_source.entry(c.source.to_string()).or_insert(0.0) += c.factor.ln();
        }
    }
    for (source, log_sum) in &per_source {
        if source == "CMOS Saving" {
            cmos_log_share = *log_sum;
        } else {
            others_max = others_max.max(*log_sum);
        }
    }
    assert!(
        cmos_log_share > others_max,
        "CMOS saving should lead: {per_source:?}"
    );
}

#[test]
fn serial_workloads_gain_less_from_partitioning_than_parallel_ones() {
    // NWN's wavefront bounds its parallel speedup; the stencil's doesn't.
    let space = SweepSpace::table3();
    let nwn = attribute_gains(
        &Workload::Nwn.default_instance(),
        Metric::Performance,
        &space,
    )
    .unwrap();
    let s2d = attribute_gains(
        &Workload::S2d.default_instance(),
        Metric::Performance,
        &space,
    )
    .unwrap();
    let part_factor = |a: &Attribution| a.contributions[0].factor;
    assert!(
        part_factor(&nwn) < part_factor(&s2d),
        "NWN partitioning {:.1}x should trail S2D {:.1}x",
        part_factor(&nwn),
        part_factor(&s2d)
    );
}

#[test]
fn sweep_optimum_feeds_the_wall_narrative() {
    // The Fig. 13 optimum lives at the final node; rerunning the sweep
    // with the 5nm column removed must strictly reduce the attainable
    // efficiency — CMOS dependence in one assertion.
    let dfg = Workload::S3d.default_instance();
    let full = run_sweep(&dfg, &SweepSpace::table3()).unwrap();
    let best_full = best_efficiency(&full).unwrap().report.energy_efficiency();

    let mut no5 = SweepSpace::table3();
    no5.nodes.retain(|n| *n != TechNode::N5);
    let truncated = run_sweep(&dfg, &no5).unwrap();
    let best_no5 = best_efficiency(&truncated)
        .unwrap()
        .report
        .energy_efficiency();

    assert!(
        best_full > best_no5,
        "removing the final node must cost efficiency: {best_full:.3e} vs {best_no5:.3e}"
    );
}

#[test]
fn dfg_interpreter_agrees_with_simulated_op_counts() {
    // The simulator charges exactly the graph's compute vertices.
    for &w in Workload::all() {
        let dfg = w.default_instance();
        let r = simulate(&dfg, &DesignConfig::baseline()).unwrap();
        assert_eq!(r.ops, dfg.stats().computes as u64, "{w}");
    }
}

/// Every field of a report, floats as their bit patterns.
fn report_bits(r: &SimReport) -> [u64; 7] {
    [
        r.cycles.to_bits(),
        r.runtime_s.to_bits(),
        r.dynamic_energy_j.to_bits(),
        r.leakage_w.to_bits(),
        r.area_units.to_bits(),
        r.ops,
        r.critical_path_cycles.to_bits(),
    ]
}

#[test]
fn sweep_shares_walks_yet_matches_point_simulation_to_the_bit() {
    // The sweep prices every point from its program's walk table: one
    // timing walk per (fusion window, serial passes) and one energy walk
    // per degree, so Table III's seven nodes share four fusion windows.
    // Each report must equal a from-scratch `simulate_lowered` of its own
    // config, field by field and bit by bit. Heterogeneity off gives every node window 1; repeated,
    // unsorted axes reuse walks out of order.
    let table3 = SweepSpace::table3();
    let fusion_off = SweepSpace {
        heterogeneity: false,
        ..SweepSpace::table3()
    };
    let repeated = SweepSpace {
        nodes: vec![TechNode::N5, TechNode::N45, TechNode::N32, TechNode::N5],
        simplification_degrees: vec![13, 1, 6, 13],
        ..SweepSpace::table3()
    };
    let four = [Workload::Aes, Workload::Fft, Workload::Rbm, Workload::S3d];
    let cases = [
        (&table3, Workload::all()),
        (&fusion_off, &four[..]),
        (&repeated, &four[..]),
    ];
    for (space, workloads) in cases {
        for &w in workloads {
            let program = w.default_instance().lower();
            let points = run_sweep_lowered(&program, space).unwrap();
            assert_eq!(points.len(), space.len(), "{w}");
            for (point, config) in points.iter().zip(space.configs()) {
                assert_eq!(point.config, config, "{w}: sweep must keep config order");
                let direct = simulate_lowered(&program, &config).unwrap();
                assert_eq!(
                    report_bits(&point.report),
                    report_bits(&direct),
                    "{w} {config:?}"
                );
            }
        }
    }

    // An invalid space fails with the error the point-at-a-time loop
    // meets first: the bad partition factor when degree 2 leads, the
    // bad degree when degree 14 leads.
    let program = Workload::Trd.default_instance().lower();
    for degrees in [vec![2, 14], vec![14, 2]] {
        let space = SweepSpace {
            partition_factors: vec![1, 3],
            simplification_degrees: degrees,
            ..SweepSpace::coarse()
        };
        let first = space
            .configs()
            .find_map(|config| simulate_lowered(&program, &config).err());
        assert!(first.is_some());
        assert_eq!(run_sweep_lowered(&program, &space).err(), first);
    }

    // The walk table behind the sweep prices any valid config, not only
    // Table III's: every node, fusion on and off, every degree, at the
    // smallest, a middle and the largest partitioning factor.
    for &w in Workload::all() {
        let program = w.default_instance().lower();
        let table = WalkTable::new(&program);
        for &node in TechNode::all() {
            for heterogeneity in [true, false] {
                for degree in 1..=13 {
                    for lanes in [1, 1 << 10, 1 << 19] {
                        let config = DesignConfig::new(node, lanes, degree, heterogeneity);
                        assert_eq!(
                            report_bits(&table.price(&config).unwrap()),
                            report_bits(&simulate_lowered(&program, &config).unwrap()),
                            "{w} {config:?}"
                        );
                    }
                }
            }
        }
    }

    // Its errors are `simulate_lowered`'s: the bad knob first, then the
    // graph without compute vertices.
    let mut b = DfgBuilder::new("passthrough");
    let x = b.input("x");
    b.output("y", x);
    let empty = b.build().unwrap().lower();
    for program in [&program, &empty] {
        let table = WalkTable::new(program);
        for config in [
            DesignConfig::new(TechNode::N45, 3, 1, false),
            DesignConfig::new(TechNode::N28, 1, 14, true),
            DesignConfig::baseline(),
        ] {
            assert_eq!(
                table.price(&config).err(),
                simulate_lowered(program, &config).err(),
                "{} {config:?}",
                program.name()
            );
        }
    }
    let baseline = DesignConfig::baseline();
    assert_eq!(
        WalkTable::new(&empty).price(&baseline).err(),
        Some(SimError::EmptyGraph)
    );
    assert_eq!(
        run_sweep_lowered(&empty, &SweepSpace::coarse()).err(),
        Some(SimError::EmptyGraph)
    );
}
