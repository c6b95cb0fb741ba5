//! MDY: molecular dynamics — Lennard-Jones pairwise forces (SHOC md).
//!
//! All-pairs force accumulation over `n` particles in 3D. Per pair:
//! displacement, squared distance, a reciprocal, the LJ force factor
//! `f = r⁻⁶ · (r⁻⁶ − c) · r⁻²`, and a fused multiply-accumulate into each
//! axis — a mix of cheap adds, expensive divides, and deep reconvergence
//! that stresses the simulator's heterogeneous FU costs.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// Builds the all-pairs LJ force DFG for `n` particles.
///
/// Inputs: positions `x{i}`/`y{i}`/`z{i}` and the potential constant `c`
/// (0.5 for the standard reduced-unit LJ kernel). Outputs: force vectors
/// `fx{i}`/`fy{i}`/`fz{i}`.
///
/// # Panics
///
/// Panics if `n < 2` (no pairs to integrate).
pub fn build(n: usize) -> Dfg {
    assert!(n >= 2, "molecular dynamics needs at least two particles");
    let mut b = DfgBuilder::new(format!("mdy_n{n}"));
    let c = b.input("c");
    let xs: Vec<NodeId> = (0..n).map(|i| b.input(format!("x{i}"))).collect();
    let ys: Vec<NodeId> = (0..n).map(|i| b.input(format!("y{i}"))).collect();
    let zs: Vec<NodeId> = (0..n).map(|i| b.input(format!("z{i}"))).collect();

    for i in 0..n {
        let mut fx_terms = Vec::new();
        let mut fy_terms = Vec::new();
        let mut fz_terms = Vec::new();
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = b.op(Op::Sub, &[xs[i], xs[j]]);
            let dy = b.op(Op::Sub, &[ys[i], ys[j]]);
            let dz = b.op(Op::Sub, &[zs[i], zs[j]]);
            let dx2 = b.op(Op::Mul, &[dx, dx]);
            let dy2 = b.op(Op::Mul, &[dy, dy]);
            let dz2 = b.op(Op::Mul, &[dz, dz]);
            let r2 = b.reduce(Op::Add, &[dx2, dy2, dz2]);
            let inv_r2 = {
                let one = b.op(Op::Div, &[r2, r2]); // exact 1.0 for r2 != 0
                b.op(Op::Div, &[one, r2])
            };
            let inv_r4 = b.op(Op::Mul, &[inv_r2, inv_r2]);
            let inv_r6 = b.op(Op::Mul, &[inv_r4, inv_r2]);
            let shifted = b.op(Op::Sub, &[inv_r6, c]);
            let lj = b.op(Op::Mul, &[inv_r6, shifted]);
            let force = b.op(Op::Mul, &[lj, inv_r2]);
            fx_terms.push(b.op(Op::Mul, &[force, dx]));
            fy_terms.push(b.op(Op::Mul, &[force, dy]));
            fz_terms.push(b.op(Op::Mul, &[force, dz]));
        }
        let fx = b.reduce(Op::Add, &fx_terms);
        let fy = b.reduce(Op::Add, &fy_terms);
        let fz = b.reduce(Op::Add, &fz_terms);
        b.output(format!("fx{i}"), fx);
        b.output(format!("fy{i}"), fy);
        b.output(format!("fz{i}"), fz);
    }
    crate::finish(b)
}

/// Reference all-pairs LJ force computation.
pub fn md_reference(pos: &[(f64, f64, f64)], c: f64) -> Vec<(f64, f64, f64)> {
    let n = pos.len();
    let mut forces = vec![(0.0, 0.0, 0.0); n];
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let dx = pos[i].0 - pos[j].0;
            let dy = pos[i].1 - pos[j].1;
            let dz = pos[i].2 - pos[j].2;
            let r2 = dx * dx + dy * dy + dz * dz;
            let inv_r2 = 1.0 / r2;
            let inv_r6 = inv_r2 * inv_r2 * inv_r2;
            let force = inv_r6 * (inv_r6 - c) * inv_r2;
            forces[i].0 += force * dx;
            forces[i].1 += force * dy;
            forces[i].2 += force * dz;
        }
    }
    forces
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn positions(n: usize) -> Vec<(f64, f64, f64)> {
        (0..n)
            .map(|i| {
                (
                    (i as f64 * 1.3).sin() * 2.0 + i as f64,
                    (i as f64 * 0.7).cos() * 1.5,
                    i as f64 * 0.5 - 1.0,
                )
            })
            .collect()
    }

    #[test]
    fn matches_reference_forces() {
        let n = 6;
        let c = 0.5;
        let pos = positions(n);
        let g = build(n);
        let mut inputs = HashMap::from([("c".to_string(), c)]);
        for (i, &(x, y, z)) in pos.iter().enumerate() {
            inputs.insert(format!("x{i}"), x);
            inputs.insert(format!("y{i}"), y);
            inputs.insert(format!("z{i}"), z);
        }
        let out = g.evaluate(&inputs).unwrap();
        let expected = md_reference(&pos, c);
        for (i, &(fx, fy, fz)) in expected.iter().enumerate() {
            assert!((out[&format!("fx{i}")] - fx).abs() < 1e-9, "fx{i}");
            assert!((out[&format!("fy{i}")] - fy).abs() < 1e-9, "fy{i}");
            assert!((out[&format!("fz{i}")] - fz).abs() < 1e-9, "fz{i}");
        }
    }

    #[test]
    fn newtons_third_law_for_two_particles() {
        let pos = vec![(0.0, 0.0, 0.0), (1.1, 0.3, -0.4)];
        let f = md_reference(&pos, 0.5);
        assert!((f[0].0 + f[1].0).abs() < 1e-12);
        assert!((f[0].1 + f[1].1).abs() < 1e-12);
        assert!((f[0].2 + f[1].2).abs() < 1e-12);
    }

    #[test]
    fn kernel_mixes_cheap_and_expensive_units() {
        let g = build(4);
        let divs = g
            .compute_ids()
            .iter()
            .filter(|&&id| matches!(g.node(id).kind, accelwall_dfg::NodeKind::Compute(Op::Div)))
            .count();
        // Two divides per ordered pair (the reciprocal construction).
        assert_eq!(divs, 2 * 4 * 3);
    }
}
