//! 2D and 3D stencils (S2D, S3D) — the paper's Fig. 12/13 case study.
//!
//! A stencil filters each interior lattice point with a weighted sum of its
//! neighborhood (9-point in 2D, 27-point in 3D). Filtering is independent
//! across points — the "highly parallel" structure Fig. 12 visualizes —
//! while each point's weighted sum is a small reduction tree.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// 9-point 2D stencil over a `rows × cols` grid. Weights are the inputs
/// `w0..w8` (row-major over the 3×3 neighborhood); interior outputs only.
///
/// # Panics
///
/// Panics if either dimension is below 3 (no interior points).
pub fn build_2d(rows: usize, cols: usize) -> Dfg {
    assert!(rows >= 3 && cols >= 3, "2D stencil needs a 3x3 interior");
    let mut b = DfgBuilder::new(format!("s2d_{rows}x{cols}"));
    let ws: Vec<NodeId> = (0..9).map(|k| b.input(format!("w{k}"))).collect();
    let grid: Vec<Vec<NodeId>> = (0..rows)
        .map(|r| (0..cols).map(|c| b.input(format!("g{r}_{c}"))).collect())
        .collect();
    for r in 1..rows - 1 {
        for c in 1..cols - 1 {
            let mut terms = Vec::with_capacity(9);
            for (k, (dr, dc)) in neighborhood2().iter().enumerate() {
                let cell = grid[(r as isize + dr) as usize][(c as isize + dc) as usize];
                terms.push(b.op(Op::Mul, &[ws[k], cell]));
            }
            let sum = b.reduce(Op::Add, &terms);
            b.output(format!("o{r}_{c}"), sum);
        }
    }
    crate::finish(b)
}

/// Reference 9-point 2D stencil.
pub fn stencil2d_reference(grid: &[Vec<f64>], weights: &[f64; 9]) -> Vec<Vec<f64>> {
    let rows = grid.len();
    let cols = grid[0].len();
    let mut out = vec![vec![0.0; cols]; rows];
    for r in 1..rows - 1 {
        for c in 1..cols - 1 {
            out[r][c] = neighborhood2()
                .iter()
                .enumerate()
                .map(|(k, (dr, dc))| {
                    weights[k] * grid[(r as isize + dr) as usize][(c as isize + dc) as usize]
                })
                .sum();
        }
    }
    out
}

/// 27-point 3D stencil over an `nx × ny × nz` lattice, interior outputs
/// only; weights are inputs `w0..w26`.
///
/// # Panics
///
/// Panics if any dimension is below 3.
pub fn build_3d(nx: usize, ny: usize, nz: usize) -> Dfg {
    assert!(
        nx >= 3 && ny >= 3 && nz >= 3,
        "3D stencil needs a 3x3x3 interior"
    );
    let mut b = DfgBuilder::new(format!("s3d_{nx}x{ny}x{nz}"));
    let ws: Vec<NodeId> = (0..27).map(|k| b.input(format!("w{k}"))).collect();
    let mut lattice: Vec<Vec<Vec<NodeId>>> = Vec::with_capacity(nx);
    for x in 0..nx {
        let mut plane = Vec::with_capacity(ny);
        for y in 0..ny {
            let mut row = Vec::with_capacity(nz);
            for z in 0..nz {
                row.push(b.input(format!("g{x}_{y}_{z}")));
            }
            plane.push(row);
        }
        lattice.push(plane);
    }
    for x in 1..nx - 1 {
        for y in 1..ny - 1 {
            for z in 1..nz - 1 {
                let mut terms = Vec::with_capacity(27);
                for (k, (dx, dy, dz)) in neighborhood3().iter().enumerate() {
                    let cell = lattice[(x as isize + dx) as usize][(y as isize + dy) as usize]
                        [(z as isize + dz) as usize];
                    terms.push(b.op(Op::Mul, &[ws[k], cell]));
                }
                let sum = b.reduce(Op::Add, &terms);
                b.output(format!("o{x}_{y}_{z}"), sum);
            }
        }
    }
    crate::finish(b)
}

/// Reference 27-point 3D stencil; `lattice[x][y][z]`, weights in
/// [`neighborhood3`] order.
pub fn stencil3d_reference(lattice: &[Vec<Vec<f64>>], weights: &[f64; 27]) -> Vec<Vec<Vec<f64>>> {
    let (nx, ny, nz) = (lattice.len(), lattice[0].len(), lattice[0][0].len());
    let mut out = vec![vec![vec![0.0; nz]; ny]; nx];
    for x in 1..nx - 1 {
        for y in 1..ny - 1 {
            for z in 1..nz - 1 {
                out[x][y][z] = neighborhood3()
                    .iter()
                    .enumerate()
                    .map(|(k, (dx, dy, dz))| {
                        weights[k]
                            * lattice[(x as isize + dx) as usize][(y as isize + dy) as usize]
                                [(z as isize + dz) as usize]
                    })
                    .sum();
            }
        }
    }
    out
}

/// The 3×3 neighborhood offsets in weight order (row-major).
pub fn neighborhood2() -> [(isize, isize); 9] {
    let mut n = [(0, 0); 9];
    let mut k = 0;
    for dr in -1..=1 {
        for dc in -1..=1 {
            n[k] = (dr, dc);
            k += 1;
        }
    }
    n
}

/// The 3×3×3 neighborhood offsets in weight order.
pub fn neighborhood3() -> [(isize, isize, isize); 27] {
    let mut n = [(0, 0, 0); 27];
    let mut k = 0;
    for dx in -1..=1 {
        for dy in -1..=1 {
            for dz in -1..=1 {
                n[k] = (dx, dy, dz);
                k += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn stencil2d_matches_reference() {
        let (rows, cols) = (5, 6);
        let g = build_2d(rows, cols);
        let grid: Vec<Vec<f64>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| (r * cols + c) as f64 * 0.5 - 3.0)
                    .collect()
            })
            .collect();
        let weights = [0.5, 1.0, -0.5, 2.0, 4.0, 2.0, -0.5, 1.0, 0.5];
        let mut inputs = HashMap::new();
        for (k, w) in weights.iter().enumerate() {
            inputs.insert(format!("w{k}"), *w);
        }
        for (r, row) in grid.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                inputs.insert(format!("g{r}_{c}"), *v);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let expected = stencil2d_reference(&grid, &weights);
        for r in 1..rows - 1 {
            for c in 1..cols - 1 {
                assert!(
                    (out[&format!("o{r}_{c}")] - expected[r][c]).abs() < 1e-9,
                    "mismatch at ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn stencil3d_matches_reference() {
        let (nx, ny, nz) = (4, 4, 4);
        let g = build_3d(nx, ny, nz);
        let lattice: Vec<Vec<Vec<f64>>> = (0..nx)
            .map(|x| {
                (0..ny)
                    .map(|y| {
                        (0..nz)
                            .map(|z| ((x * 7 + y * 3 + z) % 11) as f64 - 5.0)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut weights = [0.0; 27];
        for (k, w) in weights.iter_mut().enumerate() {
            *w = (k as f64 - 13.0) * 0.25;
        }
        let mut inputs = HashMap::new();
        for (k, w) in weights.iter().enumerate() {
            inputs.insert(format!("w{k}"), *w);
        }
        for (x, plane) in lattice.iter().enumerate() {
            for (y, row) in plane.iter().enumerate() {
                for (z, v) in row.iter().enumerate() {
                    inputs.insert(format!("g{x}_{y}_{z}"), *v);
                }
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let expected = stencil3d_reference(&lattice, &weights);
        for x in 1..nx - 1 {
            for y in 1..ny - 1 {
                for z in 1..nz - 1 {
                    assert!(
                        (out[&format!("o{x}_{y}_{z}")] - expected[x][y][z]).abs() < 1e-9,
                        "mismatch at ({x},{y},{z})"
                    );
                }
            }
        }
    }

    #[test]
    fn stencil_parallelism_structure() {
        // Interior points filter independently: the widest stage carries
        // one multiply per (point, weight) pair.
        let s = build_3d(4, 4, 4).stats();
        assert_eq!(s.outputs, 8); // 2x2x2 interior
        assert_eq!(s.max_stage_width, 8 * 27); // all muls concurrent
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn degenerate_grid_panics() {
        let _ = build_2d(2, 5);
    }
}
