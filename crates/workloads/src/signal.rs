//! FFT: radix-2 decimation-in-time butterfly network over complex inputs.
//!
//! The generated DFG is the classic `log2(n)`-stage butterfly lattice:
//! each stage pairs values `(a, b)` with a twiddle factor `w` and computes
//! `a' = a + w·b`, `b' = a - w·b` in expanded real arithmetic (4 multiplies
//! and 6 add/subs per butterfly). Twiddle factors enter as inputs — the DFG
//! formalism has no constant vertices, and treating them as data matches
//! how a streaming FFT engine consumes a twiddle ROM.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// Builds the radix-2 DIT FFT network for `n` complex points (`n` a power
/// of two ≥ 2). Inputs: `re{i}`/`im{i}` in natural order and the twiddles
/// `wr{s}_{k}`/`wi{s}_{k}` per stage `s` and butterfly position `k`;
/// outputs `Xre{i}`/`Xim{i}`.
///
/// # Panics
///
/// Panics if `n` is not a power of two or below 2.
pub fn build_fft(n: usize) -> Dfg {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "FFT size must be a power of two >= 2"
    );
    let mut b = DfgBuilder::new(format!("fft_n{n}"));

    // Bit-reversed load order, as the in-place DIT network requires.
    let stages = n.trailing_zeros() as usize;
    let mut re: Vec<NodeId> = Vec::with_capacity(n);
    let mut im: Vec<NodeId> = Vec::with_capacity(n);
    for i in 0..n {
        let src = bit_reverse(i, stages);
        re.push(b.input(format!("re{src}")));
        im.push(b.input(format!("im{src}")));
    }

    for s in 0..stages {
        let half = 1usize << s;
        let span = half << 1;
        let mut k = 0usize;
        for base in (0..n).step_by(span) {
            for j in 0..half {
                let (ia, ib) = (base + j, base + j + half);
                let wr = b.input(format!("wr{s}_{k}"));
                let wi = b.input(format!("wi{s}_{k}"));
                // t = w * b (complex)
                let t_re = {
                    let p1 = b.op(Op::Mul, &[wr, re[ib]]);
                    let p2 = b.op(Op::Mul, &[wi, im[ib]]);
                    b.op(Op::Sub, &[p1, p2])
                };
                let t_im = {
                    let p1 = b.op(Op::Mul, &[wr, im[ib]]);
                    let p2 = b.op(Op::Mul, &[wi, re[ib]]);
                    b.op(Op::Add, &[p1, p2])
                };
                let new_a_re = b.op(Op::Add, &[re[ia], t_re]);
                let new_a_im = b.op(Op::Add, &[im[ia], t_im]);
                let new_b_re = b.op(Op::Sub, &[re[ia], t_re]);
                let new_b_im = b.op(Op::Sub, &[im[ia], t_im]);
                re[ia] = new_a_re;
                im[ia] = new_a_im;
                re[ib] = new_b_re;
                im[ib] = new_b_im;
                k += 1;
            }
        }
    }

    for i in 0..n {
        b.output(format!("Xre{i}"), re[i]);
        b.output(format!("Xim{i}"), im[i]);
    }
    crate::finish(b)
}

/// The twiddle factor the network expects at stage `s`, butterfly `k`
/// (for size-`n` transforms): `exp(-2πi · j / span)` where `j = k mod half`
/// and `span = 2^(s+1)`.
pub fn twiddle(s: usize, k: usize) -> (f64, f64) {
    let half = 1usize << s;
    let span = half << 1;
    let j = k % half;
    let angle = -2.0 * std::f64::consts::PI * j as f64 / span as f64;
    (angle.cos(), angle.sin())
}

/// Reference DFT (O(n²) direct evaluation — unambiguous ground truth).
pub fn dft_reference(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = re.len();
    let mut out_re = vec![0.0; n];
    let mut out_im = vec![0.0; n];
    for (k, (or, oi)) in out_re.iter_mut().zip(out_im.iter_mut()).enumerate() {
        for j in 0..n {
            let angle = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
            let (c, s) = (angle.cos(), angle.sin());
            *or += re[j] * c - im[j] * s;
            *oi += re[j] * s + im[j] * c;
        }
    }
    (out_re, out_im)
}

fn bit_reverse(mut x: usize, bits: usize) -> usize {
    let mut r = 0;
    for _ in 0..bits {
        r = (r << 1) | (x & 1);
        x >>= 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn run_fft(n: usize, re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let g = build_fft(n);
        let mut inputs = HashMap::new();
        for i in 0..n {
            inputs.insert(format!("re{i}"), re[i]);
            inputs.insert(format!("im{i}"), im[i]);
        }
        let stages = n.trailing_zeros() as usize;
        for s in 0..stages {
            for k in 0..n / 2 {
                let (wr, wi) = twiddle(s, k);
                inputs.insert(format!("wr{s}_{k}"), wr);
                inputs.insert(format!("wi{s}_{k}"), wi);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let xr = (0..n).map(|i| out[&format!("Xre{i}")]).collect();
        let xi = (0..n).map(|i| out[&format!("Xim{i}")]).collect();
        (xr, xi)
    }

    #[test]
    fn fft_matches_direct_dft() {
        for n in [2usize, 4, 8, 16] {
            let re: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin() + 0.3).collect();
            let im: Vec<f64> = (0..n).map(|i| (i as f64 * 1.7).cos() - 0.1).collect();
            let (xr, xi) = run_fft(n, &re, &im);
            let (er, ei) = dft_reference(&re, &im);
            for i in 0..n {
                assert!(
                    (xr[i] - er[i]).abs() < 1e-9 && (xi[i] - ei[i]).abs() < 1e-9,
                    "n={n} bin {i}: ({}, {}) vs ({}, {})",
                    xr[i],
                    xi[i],
                    er[i],
                    ei[i]
                );
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let n = 8;
        let mut re = vec![0.0; n];
        re[0] = 1.0;
        let im = vec![0.0; n];
        let (xr, xi) = run_fft(n, &re, &im);
        for i in 0..n {
            assert!((xr[i] - 1.0).abs() < 1e-12 && xi[i].abs() < 1e-12);
        }
    }

    #[test]
    fn network_shape() {
        let n = 16;
        let s = build_fft(n).stats();
        // log2(16) = 4 stages x 8 butterflies x 10 ops.
        assert_eq!(s.computes, 4 * 8 * 10);
        assert_eq!(s.outputs, 2 * n);
        // Each butterfly contributes 3 levels (mul, sub/add of products,
        // then the ± combine): depth = in + 4*3 + out = 14.
        assert_eq!(s.depth, 14);
    }

    #[test]
    fn bit_reverse_involution() {
        for i in 0..16 {
            assert_eq!(bit_reverse(bit_reverse(i, 4), 4), i);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let _ = build_fft(12);
    }
}
