//! NWN: Needleman-Wunsch global sequence alignment.
//!
//! The dynamic-programming recurrence
//! `H[i][j] = max(H[i-1][j-1] + s(i,j), H[i-1][j] + gap, H[i][j-1] + gap)`
//! produces the classic anti-diagonal *wavefront* dependence structure:
//! parallelism grows along the diagonal and the depth is `m + n` — the
//! antithesis of the embarrassingly parallel kernels, which is exactly why
//! the paper includes it.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// Builds the NW scoring DFG for sequences of length `m` and `n`.
///
/// Inputs: the substitution scores `s{i}_{j}` (for 1-based cell `(i, j)`),
/// the gap penalty `gap`, and the precomputed boundary rows/columns
/// `h0_{j}` / `h{i}_0`. Output: the full scoring-matrix corner `score`
/// (= `H[m][n]`) plus the final row `hrow{j}` for traceback consumers.
///
/// # Panics
///
/// Panics if `m == 0` or `n == 0`.
#[allow(
    clippy::needless_range_loop,
    reason = "wavefront indexes the DP matrix"
)]
pub fn build(m: usize, n: usize) -> Dfg {
    assert!(m > 0 && n > 0, "sequences must be non-empty");
    let mut b = DfgBuilder::new(format!("nwn_{m}x{n}"));
    let gap = b.input("gap");
    // Boundary conditions as inputs (H[0][j] and H[i][0]).
    let mut h: Vec<Vec<NodeId>> = vec![vec![gap; n + 1]; m + 1];
    for (j, cell) in h[0].iter_mut().enumerate() {
        *cell = b.input(format!("h0_{j}"));
    }
    for i in 1..=m {
        h[i][0] = b.input(format!("h{i}_0"));
    }
    for i in 1..=m {
        for j in 1..=n {
            let s = b.input(format!("s{i}_{j}"));
            let diag = b.op(Op::Add, &[h[i - 1][j - 1], s]);
            let up = b.op(Op::Add, &[h[i - 1][j], gap]);
            let left = b.op(Op::Add, &[h[i][j - 1], gap]);
            let m1 = b.op(Op::Max, &[diag, up]);
            h[i][j] = b.op(Op::Max, &[m1, left]);
        }
    }
    for j in 1..=n {
        b.output(format!("hrow{j}"), h[m][j]);
    }
    b.output("score", h[m][n]);
    crate::finish(b)
}

/// Reference NW scoring matrix; returns `H` of shape `(m+1) × (n+1)`.
pub fn nw_reference(scores: &[Vec<f64>], gap: f64) -> Vec<Vec<f64>> {
    let m = scores.len();
    let n = scores[0].len();
    let mut h = vec![vec![0.0; n + 1]; m + 1];
    for (j, cell) in h[0].iter_mut().enumerate() {
        *cell = gap * j as f64;
    }
    for i in 1..=m {
        h[i][0] = gap * i as f64;
        for j in 1..=n {
            h[i][j] = (h[i - 1][j - 1] + scores[i - 1][j - 1])
                .max(h[i - 1][j] + gap)
                .max(h[i][j - 1] + gap);
        }
    }
    h
}

/// Match/mismatch substitution score for two residues.
pub fn substitution(a: u8, c: u8, match_score: f64, mismatch: f64) -> f64 {
    if a == c {
        match_score
    } else {
        mismatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn matches_reference_alignment() {
        let (m, n) = (6, 5);
        let gap = -2.0;
        let a = b"GATTAC";
        let c = b"GCATG";
        let scores: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                (0..n)
                    .map(|j| substitution(a[i], c[j], 3.0, -1.0))
                    .collect()
            })
            .collect();
        let g = build(m, n);
        let mut inputs = HashMap::from([("gap".to_string(), gap)]);
        for j in 0..=n {
            inputs.insert(format!("h0_{j}"), gap * j as f64);
        }
        for i in 1..=m {
            inputs.insert(format!("h{i}_0"), gap * i as f64);
        }
        for i in 1..=m {
            for j in 1..=n {
                inputs.insert(format!("s{i}_{j}"), scores[i - 1][j - 1]);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let h = nw_reference(&scores, gap);
        assert!((out["score"] - h[m][n]).abs() < 1e-12);
        for j in 1..=n {
            assert!((out[&format!("hrow{j}")] - h[m][j]).abs() < 1e-12);
        }
    }

    #[test]
    fn wavefront_depth_scales_with_m_plus_n() {
        // The DP chain forces depth ~ 3*(m+n): each cell adds two max
        // levels and an add level along the critical path.
        let s8 = build(8, 8).stats();
        let s4 = build(4, 4).stats();
        assert!(
            s8.depth > s4.depth + 8,
            "depth {} vs {}",
            s8.depth,
            s4.depth
        );
    }

    #[test]
    fn wavefront_serializes_the_critical_path() {
        // Unlike the stencils (constant depth regardless of grid size),
        // the DP chain threads through every cell on the main diagonal:
        // at least 3 dependent ops per diagonal step.
        let s = build(8, 8).stats();
        assert!(
            s.depth > 3 * 8,
            "depth {} too shallow for a wavefront",
            s.depth
        );
    }
}
