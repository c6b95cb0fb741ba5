//! SAD: sum of absolute differences — the motion-estimation inner kernel
//! (PARSEC's x264 hotspot).

use accelwall_dfg::{Dfg, DfgBuilder, Op};

/// SAD between a `rows × cols` current block (`c{r}_{c}`) and reference
/// block (`r{r}_{c}`): per-pixel subtract + absolute value feeding one
/// adder tree; output `sad`.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn build_sad(rows: usize, cols: usize) -> Dfg {
    assert!(rows > 0 && cols > 0, "SAD block must be non-empty");
    let mut b = DfgBuilder::new(format!("sad_{rows}x{cols}"));
    let mut terms = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let cur = b.input(format!("c{r}_{c}"));
            let refp = b.input(format!("r{r}_{c}"));
            let d = b.op(Op::Sub, &[cur, refp]);
            terms.push(b.op(Op::Abs, &[d]));
        }
    }
    let sum = b.reduce(Op::Add, &terms);
    b.output("sad", sum);
    crate::finish(b)
}

/// Reference SAD.
pub fn sad_reference(current: &[f64], reference: &[f64]) -> f64 {
    current
        .iter()
        .zip(reference)
        .map(|(c, r)| (c - r).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sad_matches_reference() {
        let (rows, cols) = (4, 4);
        let g = build_sad(rows, cols);
        let cur: Vec<f64> = (0..rows * cols).map(|i| (i % 256) as f64).collect();
        let refb: Vec<f64> = (0..rows * cols)
            .map(|i| ((i * 31 + 5) % 256) as f64)
            .collect();
        let mut inputs = HashMap::new();
        for r in 0..rows {
            for c in 0..cols {
                inputs.insert(format!("c{r}_{c}"), cur[r * cols + c]);
                inputs.insert(format!("r{r}_{c}"), refb[r * cols + c]);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        assert!((out["sad"] - sad_reference(&cur, &refb)).abs() < 1e-9);
    }

    #[test]
    fn identical_blocks_have_zero_sad() {
        let g = build_sad(2, 2);
        let mut inputs = HashMap::new();
        for r in 0..2 {
            for c in 0..2 {
                inputs.insert(format!("c{r}_{c}"), 9.0);
                inputs.insert(format!("r{r}_{c}"), 9.0);
            }
        }
        assert_eq!(g.evaluate(&inputs).unwrap()["sad"], 0.0);
    }

    #[test]
    fn shape_counts() {
        let s = build_sad(4, 4).stats();
        assert_eq!(s.inputs, 32);
        // 16 subs + 16 abs + 15 adds.
        assert_eq!(s.computes, 47);
        assert_eq!(s.outputs, 1);
    }
}
