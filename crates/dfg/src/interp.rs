//! Interpretation of DFGs: the bytecode VM and its legacy oracle.
//!
//! Executes a graph on `f64` values so workload generators can be validated
//! functionally against plain-software implementations of the same kernels.
//! Bitwise operations interpret their operands as unsigned 64-bit integers
//! (every integer the workloads use is exactly representable in an `f64`).
//!
//! Since the bytecode refactor the shipping interpreter is the register
//! machine in [`Program::evaluate`](crate::Program::evaluate) /
//! [`Program::run`](crate::Program::run): a single forward loop over the
//! lowered SoA arrays, operands fetched through CSR slices, no per-node
//! `Vec` allocation and no string hashing on the positional path.
//! [`Dfg::evaluate`] lowers and delegates, so front-end callers keep the
//! old API; callers in loops should lower once. The original tree-walker
//! survives as [`Dfg::evaluate_reference`], a differential oracle the
//! property tests replay against the VM — it must never change
//! independently of the VM's semantics.

use crate::graph::{Dfg, NodeKind, Op};
use crate::{DfgError, Result};
use std::collections::HashMap;

impl Dfg {
    /// Evaluates the graph for one set of input values, keyed by input
    /// variable name; returns the output variable values.
    ///
    /// Lowers the graph and runs the bytecode VM. Each call pays one
    /// lowering pass; hot loops should call [`Dfg::lower`] once and then
    /// [`Program::evaluate`](crate::Program::evaluate) or the positional
    /// [`Program::run`](crate::Program::run).
    ///
    /// # Errors
    ///
    /// * [`DfgError::MissingInput`] when `inputs` lacks a named input.
    /// * [`DfgError::NonFiniteValue`] when an operation produces NaN or
    ///   infinity (for example division by zero).
    pub fn evaluate(&self, inputs: &HashMap<String, f64>) -> Result<HashMap<String, f64>> {
        self.lower().evaluate(inputs)
    }

    /// The legacy tree-walking interpreter, retained verbatim as the
    /// differential oracle for the bytecode VM: the test suite asserts
    /// that [`Program::evaluate`](crate::Program::evaluate) is
    /// bit-identical to this on random graphs and on every registry
    /// workload. Shipping code paths use the VM; do not call this except
    /// to compare against it.
    ///
    /// # Errors
    ///
    /// Same contract as [`Dfg::evaluate`].
    pub fn evaluate_reference(
        &self,
        inputs: &HashMap<String, f64>,
    ) -> Result<HashMap<String, f64>> {
        let mut values = vec![0.0f64; self.nodes.len()];
        let mut outputs = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let value = match &node.kind {
                NodeKind::Input(name) => *inputs
                    .get(name)
                    .ok_or_else(|| DfgError::MissingInput(name.clone()))?,
                NodeKind::Compute(op) => {
                    let args: Vec<f64> = node.operands.iter().map(|o| values[o.index()]).collect();
                    self.apply(*op, &args)
                }
                NodeKind::Output(name) => {
                    let v = values[node.operands[0].index()];
                    outputs.insert(name.clone(), v);
                    v
                }
            };
            if !value.is_finite() {
                return Err(DfgError::NonFiniteValue { node: i });
            }
            values[i] = value;
        }
        Ok(outputs)
    }

    fn apply(&self, op: Op, args: &[f64]) -> f64 {
        let bits = |x: f64| x as u64;
        match op {
            Op::Add => args[0] + args[1],
            Op::Sub => args[0] - args[1],
            Op::Mul => args[0] * args[1],
            Op::Div => args[0] / args[1],
            Op::Mod => args[0].rem_euclid(args[1]),
            Op::Min => args[0].min(args[1]),
            Op::Max => args[0].max(args[1]),
            Op::Abs => args[0].abs(),
            Op::Neg => -args[0],
            Op::Sqrt => args[0].sqrt(),
            Op::And => (bits(args[0]) & bits(args[1])) as f64,
            Op::Or => (bits(args[0]) | bits(args[1])) as f64,
            Op::Xor => (bits(args[0]) ^ bits(args[1])) as f64,
            Op::Not => (!(bits(args[0]) as u32)) as f64,
            Op::Shl => ((bits(args[0])) << (bits(args[1]) & 63)) as f64,
            Op::Shr => ((bits(args[0])) >> (bits(args[1]) & 63)) as f64,
            Op::CmpLt => f64::from(args[0] < args[1]),
            Op::CmpEq => f64::from(args[0] == args[1]),
            Op::Select => {
                if args[0] != 0.0 {
                    args[1]
                } else {
                    args[2]
                }
            }
            Op::Sigmoid => 1.0 / (1.0 + (-args[0]).exp()),
            Op::Lut { table } => {
                #[expect(
                    clippy::expect_used,
                    reason = "DfgBuilder::build validates every Lut op's table id before a graph can exist"
                )]
                let t = self.table(table).expect("lut table registered at build");
                t[(bits(args[0]) & 0xff) as usize] as f64
            }
            Op::Copy => args[0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DfgBuilder;
    use accelwall_stats::rng::Rng;

    fn eval1(op: Op, args: &[f64]) -> f64 {
        let mut b = DfgBuilder::new("t");
        let ids: Vec<_> = args
            .iter()
            .enumerate()
            .map(|(i, _)| b.input(format!("x{i}")))
            .collect();
        let r = b.op(op, &ids);
        b.output("y", r);
        let g = b.build().unwrap();
        let inputs: HashMap<String, f64> = args
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("x{i}"), v))
            .collect();
        let vm = g.evaluate(&inputs).unwrap();
        // Every single-op evaluation doubles as a VM-vs-oracle check.
        assert_eq!(vm, g.evaluate_reference(&inputs).unwrap());
        vm["y"]
    }

    #[test]
    fn arithmetic_ops() {
        assert_eq!(eval1(Op::Add, &[2.0, 3.0]), 5.0);
        assert_eq!(eval1(Op::Sub, &[2.0, 3.0]), -1.0);
        assert_eq!(eval1(Op::Mul, &[2.0, 3.0]), 6.0);
        assert_eq!(eval1(Op::Div, &[7.0, 2.0]), 3.5);
        assert_eq!(eval1(Op::Mod, &[7.0, 3.0]), 1.0);
        assert_eq!(eval1(Op::Min, &[2.0, 3.0]), 2.0);
        assert_eq!(eval1(Op::Max, &[2.0, 3.0]), 3.0);
        assert_eq!(eval1(Op::Abs, &[-2.5]), 2.5);
        assert_eq!(eval1(Op::Neg, &[2.5]), -2.5);
        assert_eq!(eval1(Op::Sqrt, &[9.0]), 3.0);
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(
            eval1(Op::And, &[0b1100 as f64, 0b1010 as f64]),
            0b1000 as f64
        );
        assert_eq!(
            eval1(Op::Or, &[0b1100 as f64, 0b1010 as f64]),
            0b1110 as f64
        );
        assert_eq!(
            eval1(Op::Xor, &[0b1100 as f64, 0b1010 as f64]),
            0b0110 as f64
        );
        assert_eq!(eval1(Op::Shl, &[1.0, 4.0]), 16.0);
        assert_eq!(eval1(Op::Shr, &[16.0, 4.0]), 1.0);
        assert_eq!(eval1(Op::Not, &[0.0]), u32::MAX as f64);
    }

    #[test]
    fn comparison_and_select() {
        assert_eq!(eval1(Op::CmpLt, &[1.0, 2.0]), 1.0);
        assert_eq!(eval1(Op::CmpLt, &[2.0, 1.0]), 0.0);
        assert_eq!(eval1(Op::CmpEq, &[2.0, 2.0]), 1.0);
        assert_eq!(eval1(Op::Select, &[1.0, 10.0, 20.0]), 10.0);
        assert_eq!(eval1(Op::Select, &[0.0, 10.0, 20.0]), 20.0);
    }

    #[test]
    fn sigmoid_midpoint() {
        assert!((eval1(Op::Sigmoid, &[0.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lut_indexes_table() {
        let mut b = DfgBuilder::new("t");
        let mut table = [0u8; 256];
        table[7] = 42;
        let t = b.register_table(table);
        let x = b.input("x");
        let r = b.op(Op::Lut { table: t }, &[x]);
        b.output("y", r);
        let g = b.build().unwrap();
        let out = g
            .evaluate(&HashMap::from([("x".to_string(), 7.0)]))
            .unwrap();
        assert_eq!(out["y"], 42.0);
    }

    #[test]
    fn missing_input_errors() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        b.output("y", x);
        let g = b.build().unwrap();
        assert!(matches!(
            g.evaluate(&HashMap::new()),
            Err(DfgError::MissingInput(_))
        ));
        assert_eq!(
            g.evaluate(&HashMap::new()),
            g.evaluate_reference(&HashMap::new())
        );
    }

    #[test]
    fn division_by_zero_reported() {
        let mut b = DfgBuilder::new("t");
        let x = b.input("x");
        let z = b.input("z");
        let d = b.op(Op::Div, &[x, z]);
        b.output("y", d);
        let g = b.build().unwrap();
        let inputs = HashMap::from([("x".to_string(), 1.0), ("z".to_string(), 0.0)]);
        assert!(matches!(
            g.evaluate(&inputs),
            Err(DfgError::NonFiniteValue { .. })
        ));
        // The VM reports the same node index as the oracle.
        assert_eq!(g.evaluate(&inputs), g.evaluate_reference(&inputs));
    }

    #[test]
    fn fig11_evaluates() {
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
        let g = b.build().unwrap();
        let out = g
            .evaluate(&HashMap::from([
                ("d1".to_string(), 6.0),
                ("d2".to_string(), 4.0),
                ("d3".to_string(), 2.0),
            ]))
            .unwrap();
        assert_eq!(out["o1"], (6.0 + 4.0) - 4.0 / 2.0);
        assert_eq!(out["o2"], 4.0 / 2.0 + 2.0);
    }

    /// Builds a random DFG with `n` compute vertices drawn from the full
    /// opcode set (the chipdb synthesizer's RNG pattern: SplitMix64-seeded
    /// xoshiro256++), returning the graph and a random input assignment.
    fn random_dfg(seed: u64) -> (Dfg, HashMap<String, f64>) {
        let mut rng = Rng::seed(seed);
        let mut b = DfgBuilder::new(format!("rand{seed}"));
        let mut table = [0u8; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = (rng.next_u64() ^ i as u64) as u8;
        }
        let lut = b.register_table(table);
        let n_inputs = rng.range(2, 6) as usize;
        let mut pool: Vec<_> = (0..n_inputs).map(|i| b.input(format!("x{i}"))).collect();
        let mut inputs = HashMap::new();
        for i in 0..n_inputs {
            // A mix of small integers (bitwise-friendly) and reals,
            // including zero so division errors get exercised too.
            let v = if rng.flip() {
                rng.below(17) as f64
            } else {
                rng.uniform(-4.0, 4.0)
            };
            inputs.insert(format!("x{i}"), v);
        }
        const OPS: [Op; 22] = [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Mod,
            Op::Min,
            Op::Max,
            Op::Abs,
            Op::Neg,
            Op::Sqrt,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Not,
            Op::Shl,
            Op::Shr,
            Op::CmpLt,
            Op::CmpEq,
            Op::Select,
            Op::Sigmoid,
            Op::Copy,
            Op::Lut { table: 0 },
        ];
        let n_ops = rng.range(4, 40) as usize;
        for _ in 0..n_ops {
            let mut op = OPS[rng.index(OPS.len())];
            if let Op::Lut { .. } = op {
                op = Op::Lut { table: lut };
            }
            let operands: Vec<_> = (0..op.arity())
                .map(|_| pool[rng.index(pool.len())])
                .collect();
            let id = b.op(op, &operands);
            pool.push(id);
        }
        let n_outs = rng.range(1, 4) as usize;
        for o in 0..n_outs {
            b.output(format!("o{o}"), pool[rng.index(pool.len())]);
        }
        (b.build().unwrap(), inputs)
    }

    #[test]
    fn vm_is_bit_identical_to_the_oracle_on_random_graphs() {
        for seed in 0..200 {
            let (g, inputs) = random_dfg(seed);
            let vm = g.lower().evaluate(&inputs);
            let oracle = g.evaluate_reference(&inputs);
            // Exact equality on both the Ok and Err sides: same output
            // names, same f64 bits, same failing node index.
            assert_eq!(vm, oracle, "seed {seed}");
            if let (Ok(vm), Ok(oracle)) = (&vm, &oracle) {
                for (name, value) in vm {
                    assert_eq!(
                        value.to_bits(),
                        oracle[name].to_bits(),
                        "seed {seed} output {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn positional_run_matches_named_evaluation_on_random_graphs() {
        for seed in 200..260 {
            let (g, inputs) = random_dfg(seed);
            let p = g.lower();
            let fed: Vec<f64> = p.input_slots().iter().map(|(n, _)| inputs[n]).collect();
            match (p.run(&fed), p.evaluate(&inputs)) {
                (Ok(positional), Ok(named)) => {
                    for ((name, _), v) in p.output_slots().iter().zip(&positional) {
                        assert_eq!(v.to_bits(), named[name].to_bits(), "seed {seed} {name}");
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "seed {seed}"),
                (a, b) => panic!("seed {seed}: run {a:?} vs evaluate {b:?}"),
            }
        }
    }
}
