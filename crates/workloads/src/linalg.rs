//! Linear-algebra and data-mining kernels: GMM, SMV, and KNN.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// Dense matrix multiplication `C = A × B` for `n × n` matrices.
///
/// Each output element is an independent dot product: `n²` parallel lanes
/// of `n` multiplies feeding a log-depth adder tree — the TPU's bread and
/// butter.
///
/// # Panics
///
/// Panics if `n == 0`.
#[allow(clippy::needless_range_loop, reason = "i/j index two coupled matrices")]
pub fn build_gmm(n: usize) -> Dfg {
    assert!(n > 0, "matrix dimension must be positive");
    let mut b = DfgBuilder::new(format!("gmm_n{n}"));
    let a: Vec<Vec<NodeId>> = (0..n)
        .map(|i| (0..n).map(|j| b.input(format!("a{i}_{j}"))).collect())
        .collect();
    let bb: Vec<Vec<NodeId>> = (0..n)
        .map(|i| (0..n).map(|j| b.input(format!("b{i}_{j}"))).collect())
        .collect();
    for i in 0..n {
        for j in 0..n {
            let prods: Vec<NodeId> = (0..n)
                .map(|k| b.op(Op::Mul, &[a[i][k], bb[k][j]]))
                .collect();
            let dot = b.reduce(Op::Add, &prods);
            b.output(format!("c{i}_{j}"), dot);
        }
    }
    crate::finish(b)
}

/// Reference dense matrix multiply.
pub fn gmm_reference(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let mut c = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            c[i][j] = (0..n).map(|k| a[i][k] * b[k][j]).sum();
        }
    }
    c
}

/// The deterministic CSR sparsity pattern used by [`build_smv`]: row `i`
/// touches columns `(i·7 + 3·k) mod n` for `k = 0..nnz_per_row`
/// (duplicates collapse).
pub fn smv_pattern(n: usize, nnz_per_row: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| {
            let mut cols: Vec<usize> = (0..nnz_per_row).map(|k| (i * 7 + 3 * k) % n).collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect()
}

/// Sparse matrix-vector multiply `y = M · x` in CSR form with the fixed
/// pseudo-random sparsity pattern of [`smv_pattern`]. Nonzero values enter
/// as inputs `m{i}_{j}`, the dense vector as `x{j}`.
///
/// # Panics
///
/// Panics if `n == 0` or `nnz_per_row == 0`.
pub fn build_smv(n: usize, nnz_per_row: usize) -> Dfg {
    assert!(n > 0 && nnz_per_row > 0, "SMV needs nonzero dimensions");
    let mut b = DfgBuilder::new(format!("smv_n{n}_nnz{nnz_per_row}"));
    let x: Vec<NodeId> = (0..n).map(|j| b.input(format!("x{j}"))).collect();
    let pattern = smv_pattern(n, nnz_per_row);
    for (i, cols) in pattern.iter().enumerate() {
        let prods: Vec<NodeId> = cols
            .iter()
            .map(|&j| {
                let m = b.input(format!("m{i}_{j}"));
                b.op(Op::Mul, &[m, x[j]])
            })
            .collect();
        let dot = b.reduce(Op::Add, &prods);
        b.output(format!("y{i}"), dot);
    }
    crate::finish(b)
}

/// Reference SpMV over the same pattern; `values[i]` pairs with
/// `smv_pattern(n, nnz)[i]`.
pub fn smv_reference(pattern: &[Vec<usize>], values: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
    pattern
        .iter()
        .zip(values)
        .map(|(cols, vals)| cols.iter().zip(vals).map(|(&j, v)| v * x[j]).sum())
        .collect()
}

/// 1-nearest-neighbor search: squared Euclidean distances from one query
/// to `m` reference points in `dim` dimensions, then a min-reduction.
/// Outputs the smallest distance (`best`).
///
/// # Panics
///
/// Panics if `m == 0` or `dim == 0`.
pub fn build_knn(m: usize, dim: usize) -> Dfg {
    assert!(m > 0 && dim > 0, "KNN needs points and dimensions");
    let mut b = DfgBuilder::new(format!("knn_m{m}_d{dim}"));
    let q: Vec<NodeId> = (0..dim).map(|d| b.input(format!("q{d}"))).collect();
    let mut dists = Vec::with_capacity(m);
    for i in 0..m {
        let mut sq_terms = Vec::with_capacity(dim);
        for (d, &qd) in q.iter().enumerate() {
            let p = b.input(format!("p{i}_{d}"));
            let diff = b.op(Op::Sub, &[p, qd]);
            sq_terms.push(b.op(Op::Mul, &[diff, diff]));
        }
        dists.push(b.reduce(Op::Add, &sq_terms));
    }
    let best = b.reduce(Op::Min, &dists);
    b.output("best", best);
    crate::finish(b)
}

/// Reference 1-NN squared distance.
pub fn knn_reference(points: &[Vec<f64>], query: &[f64]) -> f64 {
    points
        .iter()
        .map(|p| {
            p.iter()
                .zip(query)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn gmm_matches_reference() {
        let n = 4;
        let g = build_gmm(n);
        let a: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| (i * n + j) as f64 * 0.5 - 2.0).collect())
            .collect();
        let m: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| ((i + 2 * j) % 5) as f64 - 1.0).collect())
            .collect();
        let mut inputs = HashMap::new();
        for i in 0..n {
            for j in 0..n {
                inputs.insert(format!("a{i}_{j}"), a[i][j]);
                inputs.insert(format!("b{i}_{j}"), m[i][j]);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let c = gmm_reference(&a, &m);
        for i in 0..n {
            for j in 0..n {
                assert!((out[&format!("c{i}_{j}")] - c[i][j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn gmm_shape() {
        let n = 6;
        let s = build_gmm(n).stats();
        assert_eq!(s.inputs, 2 * n * n);
        assert_eq!(s.outputs, n * n);
        // n^2 dot products: n muls + (n-1) adds each.
        assert_eq!(s.computes, n * n * (2 * n - 1));
    }

    #[test]
    fn smv_matches_reference() {
        let (n, nnz) = (8, 3);
        let g = build_smv(n, nnz);
        let pattern = smv_pattern(n, nnz);
        let values: Vec<Vec<f64>> = pattern
            .iter()
            .enumerate()
            .map(|(i, cols)| {
                cols.iter()
                    .map(|&j| ((i * 13 + j * 5) % 7) as f64 - 3.0)
                    .collect()
            })
            .collect();
        let x: Vec<f64> = (0..n).map(|j| (j as f64).cos() * 2.0).collect();
        let mut inputs = HashMap::new();
        for (j, &v) in x.iter().enumerate() {
            inputs.insert(format!("x{j}"), v);
        }
        for (i, cols) in pattern.iter().enumerate() {
            for (k, &j) in cols.iter().enumerate() {
                inputs.insert(format!("m{i}_{j}"), values[i][k]);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let y = smv_reference(&pattern, &values, &x);
        for (i, yi) in y.iter().enumerate() {
            assert!((out[&format!("y{i}")] - yi).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn smv_pattern_is_deterministic_and_bounded() {
        let p1 = smv_pattern(16, 4);
        let p2 = smv_pattern(16, 4);
        assert_eq!(p1, p2);
        assert!(p1.iter().all(|cols| !cols.is_empty() && cols.len() <= 4));
        assert!(p1.iter().flatten().all(|&j| j < 16));
    }

    #[test]
    fn knn_matches_reference() {
        let (m, dim) = (10, 3);
        let g = build_knn(m, dim);
        let points: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                (0..dim)
                    .map(|d| ((i * 3 + d * 7) % 9) as f64 - 4.0)
                    .collect()
            })
            .collect();
        let query: Vec<f64> = vec![0.5, -1.5, 2.0];
        let mut inputs = HashMap::new();
        for (d, &q) in query.iter().enumerate() {
            inputs.insert(format!("q{d}"), q);
        }
        for (i, p) in points.iter().enumerate() {
            for (d, &v) in p.iter().enumerate() {
                inputs.insert(format!("p{i}_{d}"), v);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        assert!((out["best"] - knn_reference(&points, &query)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmm_zero_panics() {
        let _ = build_gmm(0);
    }
}
