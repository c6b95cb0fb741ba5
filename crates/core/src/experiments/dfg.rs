//! Dataflow-graph experiments: the Fig. 11 example graph, the S3D
//! structure (Fig. 12), Tables I–II, and the Graphviz export.

use accelwall_dfg::{concepts, limits, Dfg, DfgBuilder, DotOptions, Op};
use accelwall_workloads::Workload;

use super::outln;
use crate::cache::Ctx;
use crate::error::{Error, Result};
use crate::experiment::{Artifact, Experiment};
use crate::json::Value;

/// Builds the running example DFG of Fig. 11 (3 inputs → 2 stages → 2
/// outputs).
///
/// # Errors
///
/// Construction cannot fail for this fixed shape; the signature matches
/// the builder's fallible API.
pub fn fig11_graph() -> Result<Dfg> {
    let mut b = DfgBuilder::new("fig11");
    let d1 = b.input("d_in1");
    let d2 = b.input("d_in2");
    let d3 = b.input("d_in3");
    let s1a = b.op(Op::Add, &[d1, d2]);
    let s1b = b.op(Op::Div, &[d2, d3]);
    let s2a = b.op(Op::Sub, &[s1a, s1b]);
    let s2b = b.op(Op::Add, &[s1b, d3]);
    b.output("d_out1", s2a);
    b.output("d_out2", s2b);
    Ok(b.build()?)
}

/// Renders a graph as Graphviz: the `dot` target's body, also reachable
/// as `accelwall dot <WORKLOAD>` for any Table IV abbreviation.
///
/// # Errors
///
/// [`Error::UnknownWorkload`] when `which` is neither `fig11` nor a
/// Table IV abbreviation.
pub fn dot_artifact(which: &str) -> Result<Artifact> {
    let graph = if which.eq_ignore_ascii_case("fig11") {
        fig11_graph()?
    } else {
        Workload::all()
            .iter()
            .find(|w| w.abbrev().eq_ignore_ascii_case(which))
            .map(|w| w.default_instance())
            .ok_or_else(|| Error::UnknownWorkload {
                name: which.to_string(),
            })?
    };
    let dot = graph.to_dot(DotOptions::default());
    let json = Value::object([
        ("name", Value::from(graph.name())),
        ("dot", Value::from(dot.as_str())),
    ]);
    Ok(Artifact::new(json, dot))
}

/// Fig. 11 — the example DFG and its structural measures.
pub struct Fig11;

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn description(&self) -> &'static str {
        "example dataflow graph and its measures"
    }

    fn run(&self, _ctx: &Ctx) -> Result<Artifact> {
        let g = fig11_graph()?;
        let s = g.stats();
        let json = Value::object([
            ("vertices", Value::from(s.vertices)),
            ("edges", Value::from(s.edges)),
            ("inputs", Value::from(s.inputs)),
            ("outputs", Value::from(s.outputs)),
            ("depth", Value::from(s.depth)),
            ("compute_stages", Value::from(s.compute_stages)),
            ("paths", Value::from(s.path_count.to_string())),
            ("max_working_set", Value::from(s.max_working_set)),
        ]);
        let mut text = String::new();
        outln!(
            text,
            "Fig. 11 — example DFG: 3 inputs, 2 computation stages, 2 outputs"
        );
        outln!(
            text,
            "|V| = {}, |E| = {}, |V_IN| = {}, |V_OUT| = {}",
            s.vertices,
            s.edges,
            s.inputs,
            s.outputs
        );
        outln!(
            text,
            "depth D = {}, compute stages = {}, |P| = {} paths, max|WS_s| = {}",
            s.depth,
            s.compute_stages,
            s.path_count,
            s.max_working_set
        );
        Ok(Artifact::new(json, text))
    }
}

/// Fig. 12 — the 3D stencil computation structure.
pub struct Fig12;

impl Experiment for Fig12 {
    fn id(&self) -> &'static str {
        "fig12"
    }

    fn description(&self) -> &'static str {
        "3D stencil computation structure"
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact> {
        // Cached stats off the shared bytecode program — no re-analysis.
        let s = ctx.program(Workload::S3d)?.stats();
        let json = Value::object([
            ("workload", Value::from("S3D")),
            ("vertices", Value::from(s.vertices)),
            ("edges", Value::from(s.edges)),
            ("computes", Value::from(s.computes)),
            ("depth", Value::from(s.depth)),
            ("max_stage_width", Value::from(s.max_stage_width)),
        ]);
        let mut text = String::new();
        outln!(
            text,
            "Fig. 12 — 3D stencil computation structure (default instance)"
        );
        outln!(
            text,
            "|V| = {} ({} compute ops), |E| = {}, depth = {}, widest stage = {} concurrent vertices",
            s.vertices,
            s.computes,
            s.edges,
            s.depth,
            s.max_stage_width
        );
        outln!(
            text,
            "filtering is independent per lattice point: a maximally parallel kernel"
        );
        Ok(Artifact::new(json, text))
    }
}

/// Table I — the TPU examples of the specialization concepts.
pub struct Table1;

impl Experiment for Table1 {
    fn id(&self) -> &'static str {
        "table1"
    }

    fn description(&self) -> &'static str {
        "TPU examples of the specialization concepts"
    }

    fn run(&self, _ctx: &Ctx) -> Result<Artifact> {
        let examples = concepts::tpu_examples();
        let json = examples
            .iter()
            .map(|e| {
                Value::object([
                    ("component", Value::from(e.component.to_string())),
                    ("concept", Value::from(e.concept.to_string())),
                    ("index", Value::from(u32::from(e.index))),
                    ("description", Value::from(e.description)),
                ])
            })
            .collect();
        let mut text = String::new();
        outln!(
            text,
            "Table I — chip specialization concepts, TPU examples (Fig. 10)"
        );
        for e in examples {
            outln!(
                text,
                "({}) {:<14} x {:<14}: {}",
                e.index,
                e.component,
                e.concept,
                e.description
            );
        }
        Ok(Artifact::new(json, text))
    }
}

/// Table II — time/space complexity limits, evaluated on S3D.
pub struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn description(&self) -> &'static str {
        "time/space complexity limits of the concepts"
    }

    fn run(&self, ctx: &Ctx) -> Result<Artifact> {
        let cells = limits::table2();
        // The shared S3D program's cached stats, as Fig. 12 reads them.
        let s3d = ctx.program(Workload::S3d)?.stats();
        let json = cells
            .iter()
            .map(|c| {
                Value::object([
                    ("component", Value::from(c.component.to_string())),
                    ("concept", Value::from(c.concept.to_string())),
                    ("time", Value::from(c.time.to_string())),
                    ("space", Value::from(c.space.to_string())),
                    ("time_on_s3d", Value::from(c.time.evaluate(&s3d))),
                    ("space_on_s3d", Value::from(c.space.evaluate(&s3d))),
                ])
            })
            .collect();
        let mut text = String::new();
        outln!(
            text,
            "Table II — time/space complexity limits of specialization concepts"
        );
        outln!(
            text,
            "{:<14} {:<15} {:<26} {:<22}",
            "component",
            "concept",
            "time",
            "space"
        );
        for c in &cells {
            outln!(
                text,
                "{:<14} {:<15} {:<26} {:<22}",
                c.component.to_string(),
                c.concept.to_string(),
                c.time.to_string(),
                c.space.to_string()
            );
        }
        outln!(text);
        outln!(
            text,
            "evaluated on the S3D instance (|V|={}, |E|={}, D={}):",
            s3d.vertices,
            s3d.edges,
            s3d.depth
        );
        for c in &cells {
            outln!(
                text,
                "  {:<14}/{:<15} time {:>12.0}  space {:>12.0}",
                c.component.to_string(),
                c.concept.to_string(),
                c.time.evaluate(&s3d),
                c.space.evaluate(&s3d)
            );
        }
        Ok(Artifact::new(json, text))
    }
}

/// Graphviz export of the Fig. 11 example graph (the `dot` target).
pub struct Dot;

impl Experiment for Dot {
    fn id(&self) -> &'static str {
        "dot"
    }

    fn description(&self) -> &'static str {
        "Graphviz export of a workload DFG"
    }

    fn run(&self, _ctx: &Ctx) -> Result<Artifact> {
        dot_artifact("fig11")
    }
}
