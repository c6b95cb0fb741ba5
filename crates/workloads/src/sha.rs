//! SHA-256 — the Bitcoin mining kernel, as an extension workload.
//!
//! The paper's Bitcoin study (Figs. 1 and 9) treats miners empirically;
//! this module makes their *computation* available to the simulator: the
//! full SHA-256 compression function as a dataflow graph — 64 rounds of
//! 32-bit adds, rotates, and bitwise choice/majority logic plus the
//! message-schedule expansion. Together with the miner dataset it enables
//! a cross-validation experiment (see `examples/sha256_miner_model.rs`):
//! does simulating this DFG across the miner nodes reproduce the
//! empirically observed per-area gains?
//!
//! Conventions: all words are 32-bit values carried in `f64`s (exact);
//! modular addition is an `Add` followed by an `And` with the `mask32`
//! input; round constants `k{t}` and shift amounts `c{n}` enter as inputs,
//! like every other constant in this DFG formalism.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};
use std::collections::HashMap;

/// SHA-256 round constants.
#[allow(
    clippy::unreadable_literal,
    reason = "FIPS 180-4 writes these without digit separators; verbatim digits can be eyeball-diffed against the spec"
)]
pub const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 initial hash values.
#[allow(
    clippy::unreadable_literal,
    reason = "FIPS 180-4 writes these without digit separators; verbatim digits can be eyeball-diffed against the spec"
)]
pub const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The distinct shift amounts SHA-256 uses (rotations contribute both
/// `n` and `32 - n`), deduplicated and sorted.
fn shift_amounts() -> Vec<u32> {
    let mut set: Vec<u32> = [2u32, 3, 6, 7, 10, 11, 13, 15, 17, 18, 19, 22, 25]
        .iter()
        .flat_map(|&n| [n, 32 - n])
        .collect();
    set.sort_unstable();
    set.dedup();
    set
}

struct Words {
    mask32: NodeId,
    shifts: HashMap<u32, NodeId>,
}

impl Words {
    fn shift(&self, n: u32) -> NodeId {
        self.shifts[&n]
    }
}

fn add32(b: &mut DfgBuilder, w: &Words, x: NodeId, y: NodeId) -> NodeId {
    let sum = b.op(Op::Add, &[x, y]);
    b.op(Op::And, &[sum, w.mask32])
}

fn rotr(b: &mut DfgBuilder, w: &Words, x: NodeId, n: u32) -> NodeId {
    let right = b.op(Op::Shr, &[x, w.shift(n)]);
    let left = b.op(Op::Shl, &[x, w.shift(32 - n)]);
    let left = b.op(Op::And, &[left, w.mask32]);
    b.op(Op::Or, &[right, left])
}

fn shr(b: &mut DfgBuilder, w: &Words, x: NodeId, n: u32) -> NodeId {
    b.op(Op::Shr, &[x, w.shift(n)])
}

fn xor3(b: &mut DfgBuilder, x: NodeId, y: NodeId, z: NodeId) -> NodeId {
    let xy = b.op(Op::Xor, &[x, y]);
    b.op(Op::Xor, &[xy, z])
}

/// Builds the SHA-256 compression DFG over one 512-bit block with the
/// given number of `rounds` (64 = full SHA-256).
///
/// Inputs: message words `m0..m15`, chaining values `h0..h7`, round
/// constants `k0..k{rounds-1}`, the 32-bit mask `mask32`, and shift
/// amounts `c{n}`. Outputs: the updated chaining values `out0..out7`.
///
/// # Panics
///
/// Panics if `rounds` is 0 or exceeds 64.
pub fn build(rounds: usize) -> Dfg {
    assert!((1..=64).contains(&rounds), "SHA-256 has 1..=64 rounds");
    let mut b = DfgBuilder::new(format!("sha256_r{rounds}"));
    let mask32 = b.input("mask32");
    let mut shifts = HashMap::new();
    for n in shift_amounts() {
        shifts.insert(n, b.input(format!("c{n}")));
    }
    let w = Words { mask32, shifts };

    // Message schedule.
    let mut sched: Vec<NodeId> = (0..16).map(|i| b.input(format!("m{i}"))).collect();
    for t in 16..rounds {
        let s0 = {
            let r7 = rotr(&mut b, &w, sched[t - 15], 7);
            let r18 = rotr(&mut b, &w, sched[t - 15], 18);
            let s3 = shr(&mut b, &w, sched[t - 15], 3);
            xor3(&mut b, r7, r18, s3)
        };
        let s1 = {
            let r17 = rotr(&mut b, &w, sched[t - 2], 17);
            let r19 = rotr(&mut b, &w, sched[t - 2], 19);
            let s10 = shr(&mut b, &w, sched[t - 2], 10);
            xor3(&mut b, r17, r19, s10)
        };
        let a1 = add32(&mut b, &w, sched[t - 16], s0);
        let a2 = add32(&mut b, &w, a1, sched[t - 7]);
        let wt = add32(&mut b, &w, a2, s1);
        sched.push(wt);
    }

    // Working state.
    let iv: Vec<NodeId> = (0..8).map(|i| b.input(format!("h{i}"))).collect();
    let ks: Vec<NodeId> = (0..rounds).map(|t| b.input(format!("k{t}"))).collect();
    let (mut a, mut bb, mut c, mut d, mut e, mut f, mut g, mut h) =
        (iv[0], iv[1], iv[2], iv[3], iv[4], iv[5], iv[6], iv[7]);

    for t in 0..rounds {
        let sigma1 = {
            let r6 = rotr(&mut b, &w, e, 6);
            let r11 = rotr(&mut b, &w, e, 11);
            let r25 = rotr(&mut b, &w, e, 25);
            xor3(&mut b, r6, r11, r25)
        };
        let ch = {
            let ef = b.op(Op::And, &[e, f]);
            let ne = b.op(Op::Not, &[e]);
            let neg = b.op(Op::And, &[ne, g]);
            b.op(Op::Xor, &[ef, neg])
        };
        let t1 = {
            let x = add32(&mut b, &w, h, sigma1);
            let x = add32(&mut b, &w, x, ch);
            let x = add32(&mut b, &w, x, ks[t]);
            add32(&mut b, &w, x, sched[t])
        };
        let sigma0 = {
            let r2 = rotr(&mut b, &w, a, 2);
            let r13 = rotr(&mut b, &w, a, 13);
            let r22 = rotr(&mut b, &w, a, 22);
            xor3(&mut b, r2, r13, r22)
        };
        let maj = {
            let ab = b.op(Op::And, &[a, bb]);
            let ac = b.op(Op::And, &[a, c]);
            let bc = b.op(Op::And, &[bb, c]);
            xor3(&mut b, ab, ac, bc)
        };
        let t2 = add32(&mut b, &w, sigma0, maj);

        h = g;
        g = f;
        f = e;
        e = add32(&mut b, &w, d, t1);
        d = c;
        c = bb;
        bb = a;
        a = add32(&mut b, &w, t1, t2);
    }

    // Final chaining addition.
    for (i, (&ivw, &sw)) in iv.iter().zip([a, bb, c, d, e, f, g, h].iter()).enumerate() {
        let out = add32(&mut b, &w, ivw, sw);
        b.output(format!("out{i}"), out);
    }
    crate::finish(b)
}

/// The input map for evaluating the DFG: message words, chaining values,
/// and all constants.
pub fn inputs(message: &[u32; 16], chain: &[u32; 8], rounds: usize) -> HashMap<String, f64> {
    let mut m = HashMap::new();
    m.insert("mask32".to_string(), f64::from(u32::MAX));
    for n in shift_amounts() {
        m.insert(format!("c{n}"), f64::from(n));
    }
    for (i, &w) in message.iter().enumerate() {
        m.insert(format!("m{i}"), f64::from(w));
    }
    for (i, &h) in chain.iter().enumerate() {
        m.insert(format!("h{i}"), f64::from(h));
    }
    for (t, &k) in K.iter().take(rounds).enumerate() {
        m.insert(format!("k{t}"), f64::from(k));
    }
    m
}

/// Builds the Bitcoin mining double-SHA256 structure: two chained
/// 64-round compressions, as a miner core evaluates per nonce (the second
/// compression hashes the first digest padded to a block). The digest of
/// stage one feeds message words `m0..m7` of stage two; padding words are
/// inputs (`pad8..pad15`), chaining values are the standard IV.
///
/// The resulting graph has twice the depth of a single compression — the
/// structural reason mining cores pipeline two hash engines back to back.
pub fn build_double() -> Dfg {
    let mut b = DfgBuilder::new("sha256d");
    let mask32 = b.input("mask32");
    let mut shifts = HashMap::new();
    for n in shift_amounts() {
        shifts.insert(n, b.input(format!("c{n}")));
    }
    let w = Words { mask32, shifts };

    let stage = |b: &mut DfgBuilder,
                 w: &Words,
                 sched_init: Vec<NodeId>,
                 iv: Vec<NodeId>,
                 ks: &[NodeId]|
     -> Vec<NodeId> {
        let mut sched = sched_init;
        for t in 16..64 {
            let s0 = {
                let r7 = rotr(b, w, sched[t - 15], 7);
                let r18 = rotr(b, w, sched[t - 15], 18);
                let s3 = shr(b, w, sched[t - 15], 3);
                xor3(b, r7, r18, s3)
            };
            let s1 = {
                let r17 = rotr(b, w, sched[t - 2], 17);
                let r19 = rotr(b, w, sched[t - 2], 19);
                let s10 = shr(b, w, sched[t - 2], 10);
                xor3(b, r17, r19, s10)
            };
            let a1 = add32(b, w, sched[t - 16], s0);
            let a2 = add32(b, w, a1, sched[t - 7]);
            let wt = add32(b, w, a2, s1);
            sched.push(wt);
        }
        let (mut a, mut bb, mut c, mut d, mut e, mut f, mut g, mut h) =
            (iv[0], iv[1], iv[2], iv[3], iv[4], iv[5], iv[6], iv[7]);
        for t in 0..64 {
            let sigma1 = {
                let r6 = rotr(b, w, e, 6);
                let r11 = rotr(b, w, e, 11);
                let r25 = rotr(b, w, e, 25);
                xor3(b, r6, r11, r25)
            };
            let ch = {
                let ef = b.op(Op::And, &[e, f]);
                let ne = b.op(Op::Not, &[e]);
                let neg = b.op(Op::And, &[ne, g]);
                b.op(Op::Xor, &[ef, neg])
            };
            let t1 = {
                let x = add32(b, w, h, sigma1);
                let x = add32(b, w, x, ch);
                let x = add32(b, w, x, ks[t]);
                add32(b, w, x, sched[t])
            };
            let sigma0 = {
                let r2 = rotr(b, w, a, 2);
                let r13 = rotr(b, w, a, 13);
                let r22 = rotr(b, w, a, 22);
                xor3(b, r2, r13, r22)
            };
            let maj = {
                let ab = b.op(Op::And, &[a, bb]);
                let ac = b.op(Op::And, &[a, c]);
                let bc = b.op(Op::And, &[bb, c]);
                xor3(b, ab, ac, bc)
            };
            let t2 = add32(b, w, sigma0, maj);
            h = g;
            g = f;
            f = e;
            e = add32(b, w, d, t1);
            d = c;
            c = bb;
            bb = a;
            a = add32(b, w, t1, t2);
        }
        iv.iter()
            .zip([a, bb, c, d, e, f, g, h])
            .map(|(&ivw, sw)| add32(b, w, ivw, sw))
            .collect()
    };

    let m1: Vec<NodeId> = (0..16).map(|i| b.input(format!("m{i}"))).collect();
    let iv1: Vec<NodeId> = (0..8).map(|i| b.input(format!("h{i}"))).collect();
    let ks: Vec<NodeId> = (0..64).map(|t| b.input(format!("k{t}"))).collect();
    let digest1 = stage(&mut b, &w, m1, iv1.clone(), &ks);

    let mut m2 = digest1;
    for i in 8..16 {
        m2.push(b.input(format!("pad{i}")));
    }
    let digest2 = stage(&mut b, &w, m2, iv1, &ks);
    for (i, &d) in digest2.iter().enumerate() {
        b.output(format!("out{i}"), d);
    }
    crate::finish(b)
}

/// Reference double SHA-256 over one block: compress, pad the digest to a
/// block, compress again (chaining both stages from the same `chain`).
pub fn double_reference(message: &[u32; 16], chain: &[u32; 8]) -> [u32; 8] {
    let first = compress_reference(message, chain, 64);
    let mut second_block = [0u32; 16];
    second_block[..8].copy_from_slice(&first);
    second_block[8] = 0x8000_0000;
    second_block[15] = 256; // 8 words of message
    compress_reference(&second_block, chain, 64)
}

/// Reference SHA-256 compression function with `rounds` rounds.
pub fn compress_reference(message: &[u32; 16], chain: &[u32; 8], rounds: usize) -> [u32; 8] {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(message);
    for t in 16..rounds {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let mut s = *chain;
    for t in 0..rounds {
        let sigma1 = s[4].rotate_right(6) ^ s[4].rotate_right(11) ^ s[4].rotate_right(25);
        let ch = (s[4] & s[5]) ^ (!s[4] & s[6]);
        let t1 = s[7]
            .wrapping_add(sigma1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let sigma0 = s[0].rotate_right(2) ^ s[0].rotate_right(13) ^ s[0].rotate_right(22);
        let maj = (s[0] & s[1]) ^ (s[0] & s[2]) ^ (s[1] & s[2]);
        let t2 = sigma0.wrapping_add(maj);
        s = [
            t1.wrapping_add(t2),
            s[0],
            s[1],
            s[2],
            t1.wrapping_add(s[3]),
            s[4],
            s[5],
            s[6],
        ];
    }
    let mut out = [0u32; 8];
    for i in 0..8 {
        out[i] = chain[i].wrapping_add(s[i]);
    }
    out
}

/// Full single-block SHA-256 of a short (< 56 byte) message: pads per
/// FIPS 180-4 and compresses once. Returns the 8-word digest.
pub fn sha256_short(data: &[u8]) -> [u32; 8] {
    assert!(data.len() < 56, "single-block helper");
    let mut block = [0u8; 64];
    block[..data.len()].copy_from_slice(data);
    block[data.len()] = 0x80;
    let bits = (data.len() as u64) * 8;
    block[56..].copy_from_slice(&bits.to_be_bytes());
    let mut words = [0u32; 16];
    for (i, w) in words.iter_mut().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "the slice is exactly 4 bytes by construction of the range"
        )]
        let bytes = block[4 * i..4 * i + 4].try_into().expect("4 bytes");
        *w = u32::from_be_bytes(bytes);
    }
    compress_reference(&words, &H0, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_dfg(message: &[u32; 16], chain: &[u32; 8], rounds: usize) -> [u32; 8] {
        let g = build(rounds);
        let out = g.evaluate(&inputs(message, chain, rounds)).unwrap();
        let mut digest = [0u32; 8];
        for (i, d) in digest.iter_mut().enumerate() {
            *d = out[&format!("out{i}")] as u32;
        }
        digest
    }

    #[test]
    #[allow(clippy::unreadable_literal, reason = "digits verbatim from FIPS 180-4")]
    fn fips_vector_abc() {
        // SHA-256("abc") = ba7816bf 8f01cfea 414140de 5dae2223
        //                  b00361a3 96177a9c b410ff61 f20015ad
        let expected: [u32; 8] = [
            0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223, 0xb00361a3, 0x96177a9c, 0xb410ff61,
            0xf20015ad,
        ];
        assert_eq!(sha256_short(b"abc"), expected);
    }

    #[test]
    #[allow(clippy::unreadable_literal, reason = "digits verbatim from FIPS 180-4")]
    fn fips_vector_empty() {
        // SHA-256("") = e3b0c442 98fc1c14 9afbf4c8 996fb924 ...
        let d = sha256_short(b"");
        assert_eq!(d[0], 0xe3b0c442);
        assert_eq!(d[7], 0x7852b855);
    }

    #[test]
    fn dfg_matches_reference_full_rounds() {
        // Build the "abc" padded block and compress through the DFG.
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[56..].copy_from_slice(&(24u64).to_be_bytes());
        let mut words = [0u32; 16];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u32::from_be_bytes(block[4 * i..4 * i + 4].try_into().unwrap());
        }
        assert_eq!(run_dfg(&words, &H0, 64), sha256_short(b"abc"));
    }

    #[test]
    fn dfg_matches_reference_partial_rounds() {
        let message: [u32; 16] = core::array::from_fn(|i| (i as u32).wrapping_mul(0x9e37_79b9));
        for rounds in [1usize, 8, 16, 17, 32, 48] {
            assert_eq!(
                run_dfg(&message, &H0, rounds),
                compress_reference(&message, &H0, rounds),
                "rounds = {rounds}"
            );
        }
    }

    #[test]
    fn double_sha_matches_reference() {
        let message: [u32; 16] = core::array::from_fn(|i| (i as u32).wrapping_mul(0x0123_4567));
        let g = build_double();
        let mut ins = inputs(&message, &H0, 64);
        // Second-stage padding: digest (8 words) + 0x80... + length 256.
        let mut pad = [0u32; 16];
        pad[8] = 0x8000_0000;
        pad[15] = 256;
        for (i, &p) in pad.iter().enumerate().skip(8) {
            ins.insert(format!("pad{i}"), f64::from(p));
        }
        let out = g.evaluate(&ins).unwrap();
        let expected = double_reference(&message, &H0);
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(out[&format!("out{i}")] as u32, e, "word {i}");
        }
    }

    #[test]
    fn double_sha_doubles_the_pipeline_depth() {
        let single = build(64).stats();
        let double = build_double().stats();
        assert!(double.depth as f64 > 1.8 * single.depth as f64);
        assert!(double.computes > 2 * single.computes - 200);
    }

    #[test]
    fn graph_is_bitwise_dominated() {
        // A mining core is adds and boolean lattice: no multipliers.
        let g = build(64);
        let has_mul = g.compute_ids().iter().any(|&id| {
            matches!(
                g.node(id).kind,
                accelwall_dfg::NodeKind::Compute(Op::Mul | Op::Div)
            )
        });
        assert!(!has_mul);
        let s = g.stats();
        assert!(
            s.computes > 2000,
            "full SHA-256 is a big graph: {}",
            s.computes
        );
        // The round recurrence serializes: depth scales with rounds.
        assert!(s.depth > 300, "depth {}", s.depth);
    }

    #[test]
    fn round_chain_limits_parallelism() {
        // Unlike the stencils, doubling rounds roughly doubles depth.
        let d16 = build(16).stats().depth;
        let d32 = build(32).stats().depth;
        let d64 = build(64).stats().depth;
        assert!(d32 as f64 > 1.6 * d16 as f64);
        assert!(d64 as f64 > 1.6 * d32 as f64);
    }
}
