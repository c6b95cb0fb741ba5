//! [`Program`]: the lowered, flat structure-of-arrays form of a [`Dfg`].
//!
//! A built [`Dfg`] is a pointer-rich front-end object: nodes own `String`
//! names and `Vec<NodeId>` operand lists, and every consumer walks them
//! through an indirection per edge. The hot paths — the interpreter, the
//! list scheduler, and the Table III sweep — touch every vertex and edge
//! thousands of times, so [`Dfg::lower`](crate::Dfg::lower) compiles the
//! graph once into this immutable structure-of-arrays bytecode program:
//!
//! * parallel arrays indexed by dense `u32` vertex id — one byte-sized
//!   [`VertexClass`] flag and one [`Op`] opcode per vertex;
//! * the edge table flattened into two CSR (compressed sparse row) pools:
//!   `operands(v)` and `consumers(v)` are contiguous slices, no per-node
//!   allocation;
//! * precomputed ASAP levels, remaining-path heights (the unit-latency
//!   scheduler priorities), and summary [`DfgStats`];
//! * input/output *slot maps* replacing string keys: [`Program::run`]
//!   takes positional values and never hashes a name.
//!
//! Vertex ids ascend in a topological order (inherited from the builder,
//! which only accepts operands that already exist), so a single forward
//! pass over the arrays visits producers before consumers and a single
//! backward pass visits consumers before producers. Everything here is
//! read-only after lowering: one `Arc<Program>` is shared by all sweep
//! workers without locks or clones.

use crate::analysis::DfgStats;
use crate::graph::Op;
use crate::{DfgError, Result};
use std::collections::HashMap;

/// The paper's vertex taxonomy, flattened to one byte per vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum VertexClass {
    /// An input variable (no incoming edges).
    Input = 0,
    /// A computation vertex; its opcode is in [`Program::opcode`].
    Compute = 1,
    /// An output variable (no outgoing edges), forwarding its operand.
    Output = 2,
}

/// An immutable lowered dataflow program. Construct through
/// [`Dfg::lower`](crate::Dfg::lower).
///
/// ```
/// use accelwall_dfg::{DfgBuilder, Op, VertexClass};
/// let mut b = DfgBuilder::new("tiny");
/// let x = b.input("x");
/// let y = b.input("y");
/// let s = b.op(Op::Add, &[x, y]);
/// b.output("o", s);
/// let p = b.build().unwrap().lower();
/// assert_eq!(p.vertex_count(), 4);
/// assert_eq!(p.class(2), VertexClass::Compute);
/// assert_eq!(p.operands(2), &[0, 1]);
/// assert_eq!(p.consumers(0), &[2]);
/// assert_eq!(p.run(&[2.0, 3.0]).unwrap(), vec![5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub(crate) name: String,
    /// Per-vertex taxonomy flag, id order.
    pub(crate) classes: Vec<VertexClass>,
    /// Per-vertex opcode; [`Op::Copy`] for input and output vertices
    /// (both forward a value unchanged).
    pub(crate) opcodes: Vec<Op>,
    /// CSR row offsets into [`Program::operand_pool`], length `n + 1`.
    pub(crate) operand_offsets: Vec<u32>,
    /// Flat in-edge table: operand ids of vertex `v` are
    /// `operand_pool[operand_offsets[v]..operand_offsets[v + 1]]`.
    pub(crate) operand_pool: Vec<u32>,
    /// CSR row offsets into [`Program::consumer_pool`], length `n + 1`.
    pub(crate) consumer_offsets: Vec<u32>,
    /// Flat out-edge table, each row ascending by consumer id.
    pub(crate) consumer_pool: Vec<u32>,
    /// ASAP level of every vertex (inputs at 0).
    pub(crate) levels: Vec<u32>,
    /// Remaining-path height of every vertex: the vertex count of the
    /// longest path from it to any sink — the unit-latency scheduling
    /// priority the list scheduler scales by per-config op latencies.
    pub(crate) heights: Vec<u32>,
    /// Input slots `(name, vertex id)`, ascending by id; positional
    /// argument order of [`Program::run`].
    pub(crate) input_slots: Vec<(String, u32)>,
    /// Output slots `(name, vertex id)`, ascending by id; positional
    /// result order of [`Program::run`].
    pub(crate) output_slots: Vec<(String, u32)>,
    /// Registered lookup tables for [`Op::Lut`].
    pub(crate) tables: Vec<[u8; 256]>,
    /// Summary statistics, precomputed at lowering time.
    pub(crate) stats: DfgStats,
}

impl Program {
    /// The program's name (workload identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total vertex count `|V|`.
    pub fn vertex_count(&self) -> usize {
        self.classes.len()
    }

    /// Total edge count `|E|`.
    pub fn edge_count(&self) -> usize {
        self.operand_pool.len()
    }

    /// The taxonomy flag of vertex `v`.
    pub fn class(&self, v: usize) -> VertexClass {
        self.classes[v]
    }

    /// All taxonomy flags, id order.
    pub fn classes(&self) -> &[VertexClass] {
        &self.classes
    }

    /// The opcode of vertex `v` ([`Op::Copy`] for inputs and outputs).
    pub fn opcode(&self, v: usize) -> Op {
        self.opcodes[v]
    }

    /// All opcodes, id order.
    pub fn opcodes(&self) -> &[Op] {
        &self.opcodes
    }

    /// The ordered operand ids of vertex `v`, as a contiguous slice.
    pub fn operands(&self, v: usize) -> &[u32] {
        &self.operand_pool[self.operand_offsets[v] as usize..self.operand_offsets[v + 1] as usize]
    }

    /// The consumer ids of vertex `v` (vertices using `v` as an operand,
    /// with multiplicity), ascending, as a contiguous slice.
    pub fn consumers(&self, v: usize) -> &[u32] {
        &self.consumer_pool
            [self.consumer_offsets[v] as usize..self.consumer_offsets[v + 1] as usize]
    }

    /// ASAP level of every vertex, id order (inputs at level 0).
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Remaining-path height of every vertex: vertices on the longest
    /// path from it to any sink. Sources with the largest height lie on
    /// the program's critical path; the list scheduler's latency-weighted
    /// priorities are this skeleton with each vertex's unit cost replaced
    /// by its per-config latency.
    pub fn heights(&self) -> &[u32] {
        &self.heights
    }

    /// Input slots `(name, vertex id)`, ascending by id. The positional
    /// argument order of [`Program::run`].
    pub fn input_slots(&self) -> &[(String, u32)] {
        &self.input_slots
    }

    /// Output slots `(name, vertex id)`, ascending by id. The positional
    /// result order of [`Program::run`].
    pub fn output_slots(&self) -> &[(String, u32)] {
        &self.output_slots
    }

    /// The lookup table registered under `table`, if any.
    pub fn table(&self, table: u8) -> Option<&[u8; 256]> {
        self.tables.get(table as usize)
    }

    /// Summary statistics, precomputed once at lowering time.
    pub fn stats(&self) -> DfgStats {
        self.stats
    }

    /// Approximate resident size of the lowered arrays in bytes — the
    /// footprint one sweep worker shares, exported as a `/metrics` gauge.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        self.classes.len() * size_of::<VertexClass>()
            + self.opcodes.len() * size_of::<Op>()
            + (self.operand_offsets.len()
                + self.operand_pool.len()
                + self.consumer_offsets.len()
                + self.consumer_pool.len()
                + self.levels.len()
                + self.heights.len())
                * size_of::<u32>()
            + self
                .input_slots
                .iter()
                .chain(&self.output_slots)
                .map(|(name, _)| name.len() + size_of::<u32>())
                .sum::<usize>()
            + self.tables.len() * 256
    }

    /// Evaluates the program positionally: `inputs[k]` feeds the `k`-th
    /// [input slot](Program::input_slots), and the result vector holds
    /// one value per [output slot](Program::output_slots), in order. No
    /// string keys are touched — this is the hot-loop entry point.
    ///
    /// # Errors
    ///
    /// * [`DfgError::MissingInput`] when `inputs` is shorter than the
    ///   input slot map (naming the first unfed slot).
    /// * [`DfgError::NonFiniteValue`] when an operation produces NaN or
    ///   infinity (for example division by zero).
    pub fn run(&self, inputs: &[f64]) -> Result<Vec<f64>> {
        if inputs.len() < self.input_slots.len() {
            let (name, _) = &self.input_slots[inputs.len()];
            return Err(DfgError::MissingInput(name.clone()));
        }
        let mut values = vec![0.0f64; self.vertex_count()];
        let mut outputs = Vec::with_capacity(self.output_slots.len());
        let mut next_input = 0usize;
        for v in 0..self.vertex_count() {
            let value = match self.classes[v] {
                VertexClass::Input => {
                    let fed = inputs[next_input];
                    next_input += 1;
                    fed
                }
                VertexClass::Compute => self.apply(v, &values),
                VertexClass::Output => {
                    let forwarded = values[self.operands(v)[0] as usize];
                    outputs.push(forwarded);
                    forwarded
                }
            };
            if !value.is_finite() {
                return Err(DfgError::NonFiniteValue { node: v });
            }
            values[v] = value;
        }
        Ok(outputs)
    }

    /// One opcode dispatch of the register machine: applies vertex `v`'s
    /// operation to its operands' values. Semantically identical to the
    /// legacy tree-walker's dispatch, operand for operand.
    pub(crate) fn apply(&self, v: usize, values: &[f64]) -> f64 {
        let args = self.operands(v);
        let arg = |k: usize| values[args[k] as usize];
        let bits = |x: f64| x as u64;
        match self.opcodes[v] {
            Op::Add => arg(0) + arg(1),
            Op::Sub => arg(0) - arg(1),
            Op::Mul => arg(0) * arg(1),
            Op::Div => arg(0) / arg(1),
            Op::Mod => arg(0).rem_euclid(arg(1)),
            Op::Min => arg(0).min(arg(1)),
            Op::Max => arg(0).max(arg(1)),
            Op::Abs => arg(0).abs(),
            Op::Neg => -arg(0),
            Op::Sqrt => arg(0).sqrt(),
            Op::And => (bits(arg(0)) & bits(arg(1))) as f64,
            Op::Or => (bits(arg(0)) | bits(arg(1))) as f64,
            Op::Xor => (bits(arg(0)) ^ bits(arg(1))) as f64,
            Op::Not => (!(bits(arg(0)) as u32)) as f64,
            Op::Shl => ((bits(arg(0))) << (bits(arg(1)) & 63)) as f64,
            Op::Shr => ((bits(arg(0))) >> (bits(arg(1)) & 63)) as f64,
            Op::CmpLt => f64::from(arg(0) < arg(1)),
            Op::CmpEq => f64::from(arg(0) == arg(1)),
            Op::Select => {
                if arg(0) != 0.0 {
                    arg(1)
                } else {
                    arg(2)
                }
            }
            Op::Sigmoid => 1.0 / (1.0 + (-arg(0)).exp()),
            Op::Lut { table } => {
                #[expect(
                    clippy::expect_used,
                    reason = "DfgBuilder::build validates every Lut op's table id before a graph can exist"
                )]
                let t = self.table(table).expect("lut table registered at build");
                t[(bits(arg(0)) & 0xff) as usize] as f64
            }
            Op::Copy => arg(0),
        }
    }

    /// Evaluates the program for one set of input values keyed by input
    /// variable name; returns the output variable values keyed by name.
    /// The named counterpart of [`Program::run`], kept API-compatible
    /// with the front-end interpreter.
    ///
    /// # Errors
    ///
    /// * [`DfgError::MissingInput`] when `inputs` lacks a named input.
    /// * [`DfgError::NonFiniteValue`] when an operation produces NaN or
    ///   infinity.
    pub fn evaluate(&self, inputs: &HashMap<String, f64>) -> Result<HashMap<String, f64>> {
        let mut values = vec![0.0f64; self.vertex_count()];
        let mut outputs = HashMap::new();
        let mut next_input = 0usize;
        let mut next_output = 0usize;
        for v in 0..self.vertex_count() {
            let value = match self.classes[v] {
                VertexClass::Input => {
                    let (name, _) = &self.input_slots[next_input];
                    next_input += 1;
                    *inputs
                        .get(name)
                        .ok_or_else(|| DfgError::MissingInput(name.clone()))?
                }
                VertexClass::Compute => self.apply(v, &values),
                VertexClass::Output => {
                    let (name, _) = &self.output_slots[next_output];
                    next_output += 1;
                    let forwarded = values[self.operands(v)[0] as usize];
                    outputs.insert(name.clone(), forwarded);
                    forwarded
                }
            };
            if !value.is_finite() {
                return Err(DfgError::NonFiniteValue { node: v });
            }
            values[v] = value;
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DfgBuilder, Op};

    fn fig11() -> Program {
        let mut b = DfgBuilder::new("fig11");
        let d1 = b.input("d1");
        let d2 = b.input("d2");
        let d3 = b.input("d3");
        let s1a = b.op(Op::Add, &[d1, d2]);
        let s1b = b.op(Op::Div, &[d2, d3]);
        let s2a = b.op(Op::Sub, &[s1a, s1b]);
        let s2b = b.op(Op::Add, &[s1b, d3]);
        b.output("o1", s2a);
        b.output("o2", s2b);
        b.build().unwrap().lower()
    }

    #[test]
    fn csr_tables_mirror_the_graph() {
        let p = fig11();
        assert_eq!(p.vertex_count(), 9);
        assert_eq!(p.edge_count(), 10);
        // d2 feeds both stage-1 ops.
        assert_eq!(p.consumers(1), &[3, 4]);
        // s2a reads s1a and s1b.
        assert_eq!(p.operands(5), &[3, 4]);
        // Inputs have no operands; outputs no consumers.
        assert!(p.operands(0).is_empty());
        assert!(p.consumers(7).is_empty());
        // Row lengths sum to the edge count on both sides.
        let in_edges: usize = (0..p.vertex_count()).map(|v| p.operands(v).len()).sum();
        let out_edges: usize = (0..p.vertex_count()).map(|v| p.consumers(v).len()).sum();
        assert_eq!(in_edges, p.edge_count());
        assert_eq!(out_edges, p.edge_count());
    }

    #[test]
    fn classes_and_slots_agree() {
        let p = fig11();
        assert_eq!(p.class(0), VertexClass::Input);
        assert_eq!(p.class(3), VertexClass::Compute);
        assert_eq!(p.class(8), VertexClass::Output);
        assert_eq!(
            p.input_slots()
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["d1", "d2", "d3"]
        );
        assert_eq!(p.output_slots()[1], ("o2".to_string(), 8));
    }

    #[test]
    fn heights_measure_remaining_paths() {
        let p = fig11();
        // d2 -> s1b -> s2a/s2b -> output: 4 vertices.
        assert_eq!(p.heights()[1], 4);
        // Outputs are sinks.
        assert_eq!(p.heights()[7], 1);
        // Max height over sources equals the depth.
        let max: u32 = p.heights().iter().copied().max().unwrap_or(0);
        assert_eq!(max as usize, p.stats().depth);
    }

    #[test]
    fn run_matches_named_evaluation() {
        let p = fig11();
        let named = p
            .evaluate(&HashMap::from([
                ("d1".to_string(), 6.0),
                ("d2".to_string(), 4.0),
                ("d3".to_string(), 2.0),
            ]))
            .unwrap();
        let positional = p.run(&[6.0, 4.0, 2.0]).unwrap();
        assert_eq!(positional, vec![named["o1"], named["o2"]]);
        assert_eq!(positional[0], (6.0 + 4.0) - 4.0 / 2.0);
    }

    #[test]
    fn run_reports_the_first_unfed_slot() {
        let p = fig11();
        assert_eq!(
            p.run(&[1.0, 2.0]),
            Err(DfgError::MissingInput("d3".to_string()))
        );
    }

    #[test]
    fn size_bytes_is_positive_and_scales() {
        let small = fig11();
        let mut b = DfgBuilder::new("big");
        let xs: Vec<_> = (0..64).map(|i| b.input(format!("x{i}"))).collect();
        let r = b.reduce(Op::Add, &xs);
        b.output("o", r);
        let big = b.build().unwrap().lower();
        assert!(small.size_bytes() > 0);
        assert!(big.size_bytes() > small.size_bytes());
    }

    #[test]
    fn lut_tables_survive_lowering() {
        let mut b = DfgBuilder::new("lut");
        let mut table = [0u8; 256];
        table[9] = 77;
        let t = b.register_table(table);
        let x = b.input("x");
        let r = b.op(Op::Lut { table: t }, &[x]);
        b.output("y", r);
        let p = b.build().unwrap().lower();
        assert_eq!(p.run(&[9.0]).unwrap(), vec![77.0]);
        assert_eq!(p.table(0).unwrap()[9], 77);
    }
}
