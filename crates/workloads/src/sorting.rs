//! SRT: a sorting network (Batcher bitonic sort).
//!
//! A sorting network is the natural spatial form of the merge-sort
//! benchmark: data-independent compare-exchange stages, each a (min, max)
//! pair — exactly the structure an accelerator would lay out.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// Builds a bitonic sorting network for `n` inputs (`n` a power of two
/// ≥ 2), sorting ascending into outputs `y0..y{n-1}`.
///
/// # Panics
///
/// Panics if `n` is not a power of two or below 2.
pub fn build_bitonic(n: usize) -> Dfg {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "bitonic size must be a power of two >= 2"
    );
    let mut b = DfgBuilder::new(format!("srt_n{n}"));
    let mut wires: Vec<NodeId> = (0..n).map(|i| b.input(format!("x{i}"))).collect();

    // Standard bitonic network: for each phase k and sub-step j, exchange
    // lanes (i, i^j), direction chosen by bit k of i.
    let mut k = 2usize;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            for i in 0..n {
                let l = i ^ j;
                if l > i {
                    let ascending = i & k == 0;
                    let lo = b.op(Op::Min, &[wires[i], wires[l]]);
                    let hi = b.op(Op::Max, &[wires[i], wires[l]]);
                    if ascending {
                        wires[i] = lo;
                        wires[l] = hi;
                    } else {
                        wires[i] = hi;
                        wires[l] = lo;
                    }
                }
            }
            j /= 2;
        }
        k *= 2;
    }

    for (i, &w) in wires.iter().enumerate() {
        b.output(format!("y{i}"), w);
    }
    crate::finish(b)
}

/// Reference sort.
pub fn sort_reference(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn run(n: usize, xs: &[f64]) -> Vec<f64> {
        let g = build_bitonic(n);
        let inputs: HashMap<String, f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("x{i}"), v))
            .collect();
        let out = g.evaluate(&inputs).unwrap();
        (0..n).map(|i| out[&format!("y{i}")]).collect()
    }

    #[test]
    fn sorts_adversarial_patterns() {
        let n = 16;
        let patterns: Vec<Vec<f64>> = vec![
            (0..n).rev().map(|i| i as f64).collect(),
            (0..n).map(|i| ((i * 7) % n) as f64).collect(),
            vec![3.0; n],
            (0..n).map(|i| (i as f64 * 1.3).sin()).collect(),
        ];
        for xs in patterns {
            assert_eq!(run(n, &xs), sort_reference(&xs), "input {xs:?}");
        }
    }

    #[test]
    fn sorts_small_sizes() {
        for n in [2usize, 4, 8] {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 5 + 2) % n) as f64 - 1.0).collect();
            assert_eq!(run(n, &xs), sort_reference(&xs));
        }
    }

    #[test]
    fn network_size_matches_formula() {
        // Bitonic network has n/2 * log(n) * (log(n)+1) / 2 comparators,
        // each expanding to a Min and a Max node.
        let n = 16usize;
        let log = n.trailing_zeros() as usize;
        let comparators = n / 2 * log * (log + 1) / 2;
        let s = build_bitonic(n).stats();
        assert_eq!(s.computes, comparators * 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn odd_size_panics() {
        let _ = build_bitonic(10);
    }
}
