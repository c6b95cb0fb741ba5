//! RBM: restricted Boltzmann machine inference (CortexSuite).
//!
//! One visible-to-hidden pass: `h_j = σ(Σ_i v_i · w_ij + bias_j)` — a dense
//! matrix-vector product per hidden unit followed by the logistic
//! activation, the paper's example of an algorithm-specific functional unit
//! (computation heterogeneity).

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// Builds the RBM hidden-layer inference DFG for `visible` inputs
/// (`v{i}`), `hidden` units with weights `w{i}_{j}` and biases `b{j}`;
/// outputs the activations `h{j}`.
///
/// # Panics
///
/// Panics if either layer is empty.
#[allow(clippy::needless_range_loop, reason = "i/j index the weight matrix")]
pub fn build(visible: usize, hidden: usize) -> Dfg {
    assert!(visible > 0 && hidden > 0, "RBM layers must be non-empty");
    let mut b = DfgBuilder::new(format!("rbm_v{visible}_h{hidden}"));
    let v: Vec<NodeId> = (0..visible).map(|i| b.input(format!("v{i}"))).collect();
    for j in 0..hidden {
        let prods: Vec<NodeId> = v
            .iter()
            .enumerate()
            .map(|(i, &vi)| {
                let w = b.input(format!("w{i}_{j}"));
                b.op(Op::Mul, &[vi, w])
            })
            .collect();
        let dot = b.reduce(Op::Add, &prods);
        let bias = b.input(format!("b{j}"));
        let pre = b.op(Op::Add, &[dot, bias]);
        let act = b.op(Op::Sigmoid, &[pre]);
        b.output(format!("h{j}"), act);
    }
    crate::finish(b)
}

/// Reference hidden-layer inference; `weights[i][j]` couples visible `i` to
/// hidden `j`.
#[allow(clippy::needless_range_loop, reason = "i/j index the weight matrix")]
pub fn rbm_reference(v: &[f64], weights: &[Vec<f64>], biases: &[f64]) -> Vec<f64> {
    (0..biases.len())
        .map(|j| {
            let pre: f64 = v
                .iter()
                .enumerate()
                .map(|(i, vi)| vi * weights[i][j])
                .sum::<f64>()
                + biases[j];
            1.0 / (1.0 + (-pre).exp())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn matches_reference_inference() {
        let (nv, nh) = (6, 4);
        let g = build(nv, nh);
        let v: Vec<f64> = (0..nv).map(|i| (i as f64 * 0.4).sin()).collect();
        let weights: Vec<Vec<f64>> = (0..nv)
            .map(|i| {
                (0..nh)
                    .map(|j| ((i * 3 + j) % 7) as f64 * 0.2 - 0.6)
                    .collect()
            })
            .collect();
        let biases: Vec<f64> = (0..nh).map(|j| j as f64 * 0.1 - 0.2).collect();
        let mut inputs = HashMap::new();
        for (i, &vi) in v.iter().enumerate() {
            inputs.insert(format!("v{i}"), vi);
        }
        for (i, row) in weights.iter().enumerate() {
            for (j, &wij) in row.iter().enumerate() {
                inputs.insert(format!("w{i}_{j}"), wij);
            }
        }
        for (j, &bj) in biases.iter().enumerate() {
            inputs.insert(format!("b{j}"), bj);
        }
        let out = g.evaluate(&inputs).unwrap();
        let h = rbm_reference(&v, &weights, &biases);
        for (j, hj) in h.iter().enumerate() {
            assert!((out[&format!("h{j}")] - hj).abs() < 1e-12, "unit {j}");
            assert!((0.0..=1.0).contains(&out[&format!("h{j}")]));
        }
    }

    #[test]
    fn hidden_units_are_independent_lanes() {
        let g = build(12, 8);
        let s = g.stats();
        assert_eq!(s.outputs, 8);
        // All 12*8 multiplies fire in the first compute stage (stage 0 is
        // the input vertices).
        assert_eq!(g.stages()[1].len(), 96);
    }

    #[test]
    fn uses_sigmoid_units() {
        let g = build(3, 2);
        let sigmoids = g
            .compute_ids()
            .iter()
            .filter(|&&id| {
                matches!(
                    g.node(id).kind,
                    accelwall_dfg::NodeKind::Compute(Op::Sigmoid)
                )
            })
            .count();
        assert_eq!(sigmoids, 2);
    }
}
