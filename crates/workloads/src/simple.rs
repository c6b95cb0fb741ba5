//! The SHOC microbenchmarks: Triad (TRD) and Reduction (RED).

use accelwall_dfg::{Dfg, DfgBuilder, Op};

/// STREAM-style triad: `out[i] = b[i] + s · c[i]` over `n` elements.
///
/// The canonical bandwidth-bound kernel: `n` independent multiply-add
/// lanes, depth 2, no reconvergence — maximal partitioning headroom.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn build_triad(n: usize) -> Dfg {
    assert!(n > 0, "triad needs at least one element");
    let mut b = DfgBuilder::new(format!("trd_n{n}"));
    let s = b.input("s");
    for i in 0..n {
        let bi = b.input(format!("b{i}"));
        let ci = b.input(format!("c{i}"));
        let m = b.op(Op::Mul, &[s, ci]);
        let a = b.op(Op::Add, &[bi, m]);
        b.output(format!("a{i}"), a);
    }
    crate::finish(b)
}

/// Reference triad kernel.
pub fn triad_reference(s: f64, bs: &[f64], cs: &[f64]) -> Vec<f64> {
    bs.iter().zip(cs).map(|(b, c)| b + s * c).collect()
}

/// Parallel sum reduction of `n` inputs through a balanced adder tree.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn build_reduction(n: usize) -> Dfg {
    assert!(n > 0, "reduction needs at least one element");
    let mut b = DfgBuilder::new(format!("red_n{n}"));
    let xs: Vec<_> = (0..n).map(|i| b.input(format!("x{i}"))).collect();
    let sum = b.reduce(Op::Add, &xs);
    b.output("sum", sum);
    crate::finish(b)
}

/// Reference reduction kernel.
pub fn reduction_reference(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn triad_matches_reference() {
        let n = 16;
        let g = build_triad(n);
        let s = 2.5;
        let bs: Vec<f64> = (0..n).map(|i| i as f64 * 0.75).collect();
        let cs: Vec<f64> = (0..n).map(|i| (i as f64 - 3.0) * 1.25).collect();
        let mut inputs = HashMap::from([("s".to_string(), s)]);
        for i in 0..n {
            inputs.insert(format!("b{i}"), bs[i]);
            inputs.insert(format!("c{i}"), cs[i]);
        }
        let out = g.evaluate(&inputs).unwrap();
        let expected = triad_reference(s, &bs, &cs);
        for (i, e) in expected.iter().enumerate() {
            assert!((out[&format!("a{i}")] - e).abs() < 1e-12);
        }
    }

    #[test]
    fn triad_shape() {
        let s = build_triad(64).stats();
        assert_eq!(s.inputs, 129);
        assert_eq!(s.outputs, 64);
        assert_eq!(s.computes, 128);
        assert_eq!(s.depth, 4); // input, mul, add, output
    }

    #[test]
    fn reduction_matches_reference() {
        let n = 37; // deliberately not a power of two
        let g = build_reduction(n);
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let inputs: HashMap<String, f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("x{i}"), v))
            .collect();
        let out = g.evaluate(&inputs).unwrap();
        assert!((out["sum"] - reduction_reference(&xs)).abs() < 1e-9);
    }

    #[test]
    fn reduction_depth_is_logarithmic() {
        let s = build_reduction(128).stats();
        assert_eq!(s.computes, 127);
        // in, 7 adder levels, out.
        assert_eq!(s.depth, 9);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_size_panics() {
        let _ = build_reduction(0);
    }
}
