//! Direct vs. Winograd convolution — the algorithm layer, executable.
//!
//! The FPGA CNN study (Fig. 8) credits its best CSR jumps to *algorithmic*
//! optimization, naming the Winograd transform used by the Arria-10
//! implementation \[47\]. This module builds both algorithms for the same
//! problem — a 3×3 filter over a 4×4 input tile producing a 2×2 output
//! (Winograd F(2×2, 3×3)) — as dataflow graphs:
//!
//! * [`build_direct`]: the textbook form, 9 multiplies per output pixel
//!   (36 per tile);
//! * [`build_winograd`]: transform the tile with add/sub lattices, 16
//!   element-wise multiplies, transform back — a 2.25× multiplier
//!   reduction for identical results.
//!
//! The filter transform `U = G·g·Gᵀ` is host-side work (filters are known
//! offline), exactly as in the FPGA implementations, so `U` enters as
//! inputs.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// Direct 3×3 valid convolution of a 4×4 tile: inputs `d{r}_{c}` (tile)
/// and `g{r}_{c}` (filter); outputs `y{r}_{c}` (2×2).
pub fn build_direct() -> Dfg {
    let mut b = DfgBuilder::new("conv3x3_direct");
    let d: Vec<Vec<NodeId>> = (0..4)
        .map(|r| (0..4).map(|c| b.input(format!("d{r}_{c}"))).collect())
        .collect();
    let g: Vec<Vec<NodeId>> = (0..3)
        .map(|r| (0..3).map(|c| b.input(format!("g{r}_{c}"))).collect())
        .collect();
    for out_r in 0..2 {
        for out_c in 0..2 {
            let mut terms = Vec::with_capacity(9);
            for (kr, g_row) in g.iter().enumerate() {
                for (kc, &w) in g_row.iter().enumerate() {
                    terms.push(b.op(Op::Mul, &[w, d[out_r + kr][out_c + kc]]));
                }
            }
            let sum = b.reduce(Op::Add, &terms);
            b.output(format!("y{out_r}_{out_c}"), sum);
        }
    }
    crate::finish(b)
}

/// Winograd F(2×2, 3×3): inputs `d{r}_{c}` (4×4 tile) and the
/// pre-transformed filter `u{r}_{c}` (4×4); outputs `y{r}_{c}` (2×2).
///
/// Computes `V = Bᵀ·d·B` (adds/subs only), `M = U ⊙ V` (16 multiplies),
/// `Y = Aᵀ·M·A` (adds/subs only).
pub fn build_winograd() -> Dfg {
    let mut b = DfgBuilder::new("conv3x3_winograd");
    let d: Vec<Vec<NodeId>> = (0..4)
        .map(|r| (0..4).map(|c| b.input(format!("d{r}_{c}"))).collect())
        .collect();
    let u: Vec<Vec<NodeId>> = (0..4)
        .map(|r| (0..4).map(|c| b.input(format!("u{r}_{c}"))).collect())
        .collect();

    // t = Bᵀ·d: rows of Bᵀ are [1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1].
    let bt_row = |b: &mut DfgBuilder, col: &[NodeId; 4]| -> [NodeId; 4] {
        [
            b.op(Op::Sub, &[col[0], col[2]]),
            b.op(Op::Add, &[col[1], col[2]]),
            b.op(Op::Sub, &[col[2], col[1]]),
            b.op(Op::Sub, &[col[1], col[3]]),
        ]
    };
    // Apply Bᵀ down the columns, then B across the rows (same stencil).
    let mut t = [[d[0][0]; 4]; 4];
    for c in 0..4 {
        let col = [d[0][c], d[1][c], d[2][c], d[3][c]];
        let out = bt_row(&mut b, &col);
        for r in 0..4 {
            t[r][c] = out[r];
        }
    }
    let mut v = [[d[0][0]; 4]; 4];
    for r in 0..4 {
        let row = [t[r][0], t[r][1], t[r][2], t[r][3]];
        let out = bt_row(&mut b, &row);
        v[r] = out;
    }

    // M = U ⊙ V: the only multiplies in the graph.
    let mut m = [[d[0][0]; 4]; 4];
    for r in 0..4 {
        for c in 0..4 {
            m[r][c] = b.op(Op::Mul, &[u[r][c], v[r][c]]);
        }
    }

    // Y = Aᵀ·M·A with Aᵀ = [[1,1,1,0],[0,1,-1,-1]].
    let at_pair = |b: &mut DfgBuilder, col: &[NodeId; 4]| -> [NodeId; 2] {
        let s01 = b.op(Op::Add, &[col[0], col[1]]);
        let first = b.op(Op::Add, &[s01, col[2]]);
        let d12 = b.op(Op::Sub, &[col[1], col[2]]);
        let second = b.op(Op::Sub, &[d12, col[3]]);
        [first, second]
    };
    let mut p = [[d[0][0]; 4]; 2];
    for c in 0..4 {
        let col = [m[0][c], m[1][c], m[2][c], m[3][c]];
        let out = at_pair(&mut b, &col);
        p[0][c] = out[0];
        p[1][c] = out[1];
    }
    for (r, p_row) in p.iter().enumerate() {
        let out = at_pair(&mut b, p_row);
        b.output(format!("y{r}_0"), out[0]);
        b.output(format!("y{r}_1"), out[1]);
    }
    crate::finish(b)
}

/// Reference direct convolution of a 4×4 tile with a 3×3 filter (valid).
pub fn direct_reference(tile: &[[f64; 4]; 4], filter: &[[f64; 3]; 3]) -> [[f64; 2]; 2] {
    let mut y = [[0.0; 2]; 2];
    for (out_r, y_row) in y.iter_mut().enumerate() {
        for (out_c, y_cell) in y_row.iter_mut().enumerate() {
            *y_cell = (0..3)
                .flat_map(|kr| (0..3).map(move |kc| (kr, kc)))
                .map(|(kr, kc)| filter[kr][kc] * tile[out_r + kr][out_c + kc])
                .sum();
        }
    }
    y
}

/// Host-side Winograd filter transform `U = G·g·Gᵀ`.
pub fn filter_transform(filter: &[[f64; 3]; 3]) -> [[f64; 4]; 4] {
    // G = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]]
    let g_rows = |col: [f64; 3]| -> [f64; 4] {
        [
            col[0],
            0.5 * (col[0] + col[1] + col[2]),
            0.5 * (col[0] - col[1] + col[2]),
            col[2],
        ]
    };
    // U = G · g · Gᵀ.
    let mut tmp = [[0.0; 3]; 4];
    for c in 0..3 {
        let col = [filter[0][c], filter[1][c], filter[2][c]];
        let out = g_rows(col);
        for r in 0..4 {
            tmp[r][c] = out[r];
        }
    }
    let mut u = [[0.0; 4]; 4];
    for r in 0..4 {
        let out = g_rows(tmp[r]);
        u[r] = out;
    }
    u
}

/// Multiplier count of a graph (the scarce FPGA resource — DSP slices).
pub fn multiplier_count(dfg: &Dfg) -> usize {
    dfg.compute_ids()
        .iter()
        .filter(|&&id| matches!(dfg.node(id).kind, accelwall_dfg::NodeKind::Compute(Op::Mul)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn tile() -> [[f64; 4]; 4] {
        let mut t = [[0.0; 4]; 4];
        for (r, row) in t.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = ((r * 4 + c) as f64 * 0.7).sin() * 3.0;
            }
        }
        t
    }

    fn filter() -> [[f64; 3]; 3] {
        [[1.0, 0.0, -1.0], [2.0, 0.5, -2.0], [1.0, -0.5, -1.0]]
    }

    #[test]
    fn direct_dfg_matches_reference() {
        let g = build_direct();
        let mut inputs = HashMap::new();
        for (r, row) in tile().iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                inputs.insert(format!("d{r}_{c}"), *v);
            }
        }
        for (r, row) in filter().iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                inputs.insert(format!("g{r}_{c}"), *v);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let y = direct_reference(&tile(), &filter());
        for r in 0..2 {
            for c in 0..2 {
                assert!((out[&format!("y{r}_{c}")] - y[r][c]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn winograd_dfg_matches_direct_reference() {
        // The whole point: a different algorithm, identical answers.
        let g = build_winograd();
        let u = filter_transform(&filter());
        let mut inputs = HashMap::new();
        for (r, row) in tile().iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                inputs.insert(format!("d{r}_{c}"), *v);
            }
        }
        for (r, row) in u.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                inputs.insert(format!("u{r}_{c}"), *v);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let y = direct_reference(&tile(), &filter());
        for r in 0..2 {
            for c in 0..2 {
                assert!(
                    (out[&format!("y{r}_{c}")] - y[r][c]).abs() < 1e-9,
                    "({r},{c}): {} vs {}",
                    out[&format!("y{r}_{c}")],
                    y[r][c]
                );
            }
        }
    }

    #[test]
    fn winograd_saves_2_25x_multipliers() {
        let direct = multiplier_count(&build_direct());
        let winograd = multiplier_count(&build_winograd());
        assert_eq!(direct, 36);
        assert_eq!(winograd, 16);
        assert!((direct as f64 / winograd as f64 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn winograd_trades_multiplies_for_additions() {
        let direct = build_direct().stats();
        let winograd = build_winograd().stats();
        let adds = |s: &accelwall_dfg::DfgStats, muls: usize| s.computes - muls;
        assert!(
            adds(&winograd, 16) > adds(&direct, 36),
            "winograd should carry more add/sub lattice"
        );
    }
}
