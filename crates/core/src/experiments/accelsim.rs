//! Accelerator-simulation experiments: the S3D design-space sweep
//! (Fig. 13), the per-workload gain attribution (Fig. 14), and the
//! sweep-parameter roster (Table III).
//!
//! Fig. 13 and Fig. 14 both price per-workload sweeps from the walk
//! tables of [`Ctx::walk_table`], so each workload's graph walks run once
//! even when every target runs in the same process. Each reduction walks
//! the points afresh ([`Ctx::sweep_points`]); none keeps them.

use accelwall_accelsim::attribution::Metric;
use accelwall_accelsim::sweep::best_efficiency;
use accelwall_accelsim::{attribute_gains_priced, Attribution, SweepPoint, SweepSpace};
use accelwall_cmos::TechNode;
use accelwall_workloads::Workload;

use super::outln;
use crate::cache::Ctx;
use crate::error::Result;
use crate::experiment::{Artifact, Experiment};
use crate::json::Value;

/// Fig. 13 — the S3D power/runtime/CMOS design-space sweep.
pub struct Fig13;

impl Experiment for Fig13 {
    fn id(&self) -> &'static str {
        "fig13"
    }

    fn description(&self) -> &'static str {
        "S3D power/runtime/CMOS design-space sweep"
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact> {
        let points = ctx.sweep_points(Workload::S3d)?;
        let count = ctx.sweep_space().len();
        let best = best_efficiency(points.clone());
        let point_json = |p: &SweepPoint| {
            Value::object([
                ("node", Value::from(p.config.node.to_string())),
                ("partition", Value::from(p.config.partition_factor)),
                (
                    "simplification",
                    Value::from(p.config.simplification_degree),
                ),
                ("runtime_s", Value::from(p.report.runtime_s)),
                ("power_w", Value::from(p.report.power_w())),
            ])
        };
        let json = Value::object([
            ("points", Value::from(count)),
            (
                "best_efficiency",
                Value::from(best.as_ref().map(point_json)),
            ),
            (
                "scatter",
                points.clone().step_by(37).map(|p| point_json(&p)).collect(),
            ),
        ]);
        let mut text = String::new();
        outln!(
            text,
            "Fig. 13 — 3D stencil power/runtime/CMOS sweep ({} design points)",
            count
        );
        let baseline = points.clone().find(|p| {
            p.config.partition_factor == 1
                && p.config.simplification_degree == 1
                && p.config.node == TechNode::N45
        });
        if let Some(b) = baseline {
            outln!(
                text,
                "baseline 45nm P=1 s=1:   runtime {:>10.3e}s  power {:>8.3}W",
                b.report.runtime_s,
                b.report.power_w()
            );
        }
        if let Some(p) = best {
            outln!(
                text,
                "best energy efficiency:  runtime {:>10.3e}s  power {:>8.3}W  @ {} P={} s={}",
                p.report.runtime_s,
                p.report.power_w(),
                p.config.node,
                p.config.partition_factor,
                p.config.simplification_degree
            );
        }
        for &node in &ctx.sweep_space().nodes {
            let node_best = points
                .clone()
                .filter(|p| p.config.node == node)
                .max_by(|a, b| {
                    a.report
                        .energy_efficiency()
                        .total_cmp(&b.report.energy_efficiency())
                });
            if let Some(nb) = node_best {
                outln!(
                    text,
                    "{:>6}: best-EE point runtime {:>10.3e}s power {:>8.3}W (P={}, s={})",
                    node.to_string(),
                    nb.report.runtime_s,
                    nb.report.power_w(),
                    nb.config.partition_factor,
                    nb.config.simplification_degree
                );
            }
        }
        Ok(Artifact::new(json, text))
    }
}

/// Fig. 14 — per-workload gain attribution at the optimum.
pub struct Fig14;

impl Experiment for Fig14 {
    fn id(&self) -> &'static str {
        "fig14"
    }

    fn description(&self) -> &'static str {
        "per-workload gain attribution at the optimum"
    }

    fn deps(&self) -> &'static [&'static str] {
        // Fig. 14 decomposes the same sweeps Fig. 13 plots; running the
        // scatter first means the attribution pass hits the cache.
        &["fig13"]
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact> {
        // Warm every per-workload walk table before the serial
        // attribution pass. Each table builds on its calling thread, so a
        // band of scoped threads (one per compute thread) spreads the
        // workloads' lowerings and walks; the rows still come out of the
        // memoized tables in roster order, so the artifact is
        // byte-identical to the serial loop.
        let bands = accelwall_par::threads().min(Workload::all().len()).max(1);
        std::thread::scope(|s| {
            for band in 0..bands {
                s.spawn(move || {
                    for (i, &w) in Workload::all().iter().enumerate() {
                        if i % bands == band {
                            let _ = ctx.walk_table(w);
                        }
                    }
                });
            }
        });
        let mut rows = Vec::new();
        for &w in Workload::all() {
            // Both optima and both toggle chains price from the one
            // table: no re-lowering, and no walk beyond the table's own.
            let table = ctx.walk_table(w)?;
            let points = ctx.sweep_points(w)?;
            let perf = attribute_gains_priced(table, Metric::Performance, points.clone())?;
            let ee = attribute_gains_priced(table, Metric::EnergyEfficiency, points)?;
            rows.push((w, perf, ee));
        }
        let contribution_json = |a: &Attribution| {
            Value::object([
                ("total_gain", Value::from(a.total_gain)),
                ("csr", Value::from(a.csr)),
                (
                    "contributions",
                    a.contributions
                        .iter()
                        .map(|c| {
                            Value::object([
                                ("source", Value::from(c.source.to_string())),
                                ("factor", Value::from(c.factor)),
                                ("percent", Value::from(c.percent)),
                            ])
                        })
                        .collect(),
                ),
            ])
        };
        let json = rows
            .iter()
            .map(|(w, p, e)| {
                Value::object([
                    ("workload", Value::from(w.abbrev())),
                    ("performance", contribution_json(p)),
                    ("efficiency", contribution_json(e)),
                ])
            })
            .collect();
        let mut text = String::new();
        for (title, pick) in [
            ("Fig. 14a — performance gain attribution", 0usize),
            ("Fig. 14b — energy-efficiency gain attribution", 1),
        ] {
            outln!(text, "{title}");
            outln!(
                text,
                "{:<5} {:>9} {:>7} | {:>7} {:>7} {:>7} {:>7}  (% of log gain)",
                "app",
                "gain(x)",
                "CSR",
                "Part",
                "Het",
                "Simp",
                "CMOS"
            );
            let mut geo_gain = 0.0;
            let mut geo_csr = 0.0;
            for (w, p, e) in &rows {
                let a = if pick == 0 { p } else { e };
                let pct = |src: &str| {
                    a.contributions
                        .iter()
                        .find(|c| c.source.to_string().starts_with(src))
                        .map_or(0.0, |c| c.percent)
                };
                outln!(
                    text,
                    "{:<5} {:>9.1} {:>7.2} | {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
                    w.abbrev(),
                    a.total_gain,
                    a.csr,
                    pct("Partitioning"),
                    pct("Heterogeneity"),
                    pct("Simplification"),
                    pct("CMOS")
                );
                geo_gain += a.total_gain.ln();
                geo_csr += a.csr.ln();
            }
            let n = rows.len() as f64;
            outln!(
                text,
                "{:<5} {:>9.1} {:>7.2}  (geometric means)",
                "AVG",
                (geo_gain / n).exp(),
                (geo_csr / n).exp()
            );
            outln!(text);
        }
        Ok(Artifact::new(json, text))
    }
}

/// Table III — the CMOS-specialization sweep parameters.
pub struct Table3;

impl Experiment for Table3 {
    fn id(&self) -> &'static str {
        "table3"
    }

    fn description(&self) -> &'static str {
        "CMOS-specialization sweep parameters"
    }

    fn run(&self, _ctx: &Ctx) -> Result<Artifact> {
        // The table documents the paper's sweep, not whatever (possibly
        // coarse) space the surrounding Ctx was configured with.
        let space = SweepSpace::table3();
        let json = Value::object([
            (
                "partition_factors",
                space
                    .partition_factors
                    .iter()
                    .map(|&f| Value::from(f))
                    .collect(),
            ),
            (
                "simplification_degrees",
                space
                    .simplification_degrees
                    .iter()
                    .map(|&d| Value::from(d))
                    .collect(),
            ),
            (
                "nodes",
                space
                    .nodes
                    .iter()
                    .map(|n| Value::from(n.to_string()))
                    .collect(),
            ),
            ("points", Value::from(space.len())),
        ]);
        let mut text = String::new();
        outln!(text, "Table III — CMOS-specialization sweep parameters");
        if let Some(last) = space.partition_factors.last() {
            outln!(text, "partitioning factor:   1, 2, 4, ... {last}");
        }
        if let (Some(first), Some(last)) = (
            space.simplification_degrees.first(),
            space.simplification_degrees.last(),
        ) {
            outln!(text, "simplification degree: {first}..{last}");
        }
        let nodes: Vec<String> = space
            .nodes
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        outln!(text, "CMOS process:          {}", nodes.join(", "));
        outln!(text, "total design points:   {}", space.len());
        Ok(Artifact::new(json, text))
    }
}
