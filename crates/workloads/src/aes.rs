//! AES: the Advanced Encryption Standard block cipher (MachSuite).
//!
//! Builds the AES-128 encryption dataflow over a 16-byte state: AddRoundKey,
//! then `rounds − 1` full rounds (SubBytes → ShiftRows → MixColumns →
//! AddRoundKey) and a final round without MixColumns — exactly FIPS-197
//! when `rounds = 10`. SubBytes and the GF(2⁸) doubling of MixColumns are
//! 256-entry lookup tables ([`accelwall_dfg::Op::Lut`]), the paper's
//! "super node" form of computation heterogeneity; everything else is XOR
//! lattice. Round keys enter as inputs: key expansion is host-side work in
//! accelerator practice (and in MachSuite's kernel).

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// The AES S-box.
pub const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// GF(2⁸) doubling table (`xtime`).
pub fn xtime_table() -> [u8; 256] {
    let mut t = [0u8; 256];
    for (x, out) in t.iter_mut().enumerate() {
        let doubled = (x as u16) << 1;
        *out = (doubled & 0xff) as u8 ^ if x & 0x80 != 0 { 0x1b } else { 0x00 };
    }
    t
}

/// Builds the AES encryption DFG with `rounds` rounds (10 = real AES-128).
///
/// Inputs: state bytes `s0..s15` (FIPS column-major order `s[r + 4c]`) and
/// round-key bytes `rk{r}_{i}` for `r = 0..=rounds`. Outputs: ciphertext
/// bytes `ct0..ct15`.
///
/// # Panics
///
/// Panics if `rounds == 0`.
pub fn build(rounds: usize) -> Dfg {
    assert!(rounds > 0, "AES needs at least one round");
    let mut b = DfgBuilder::new(format!("aes_r{rounds}"));
    let sbox = b.register_table(SBOX);
    let xtime = b.register_table(xtime_table());

    let mut state: Vec<NodeId> = (0..16).map(|i| b.input(format!("s{i}"))).collect();

    // Initial AddRoundKey.
    state = add_round_key(&mut b, &state, 0);

    for r in 1..=rounds {
        // SubBytes.
        state = state
            .iter()
            .map(|&s| b.op(Op::Lut { table: sbox }, &[s]))
            .collect();
        // ShiftRows: row `row` rotates left by `row` columns.
        let mut shifted = state.clone();
        for row in 0..4 {
            for col in 0..4 {
                shifted[row + 4 * col] = state[row + 4 * ((col + row) % 4)];
            }
        }
        state = shifted;
        // MixColumns on all but the final round.
        if r != rounds {
            let mut mixed = Vec::with_capacity(16);
            for col in 0..4 {
                let a: Vec<NodeId> = (0..4).map(|row| state[row + 4 * col]).collect();
                let d: Vec<NodeId> = a
                    .iter()
                    .map(|&ai| b.op(Op::Lut { table: xtime }, &[ai]))
                    .collect();
                // c_i = 2*a_i ^ 3*a_{i+1} ^ a_{i+2} ^ a_{i+3}
                for row in 0..4 {
                    let t3 = b.op(Op::Xor, &[d[(row + 1) % 4], a[(row + 1) % 4]]);
                    let x1 = b.op(Op::Xor, &[d[row], t3]);
                    let x2 = b.op(Op::Xor, &[x1, a[(row + 2) % 4]]);
                    mixed.push(b.op(Op::Xor, &[x2, a[(row + 3) % 4]]));
                }
            }
            // `mixed` was filled column-major (col outer, row inner), which
            // is exactly the state layout s[row + 4*col].
            state = mixed;
        }
        state = add_round_key(&mut b, &state, r);
    }

    for (i, &s) in state.iter().enumerate() {
        b.output(format!("ct{i}"), s);
    }
    crate::finish(b)
}

fn add_round_key(b: &mut DfgBuilder, state: &[NodeId], round: usize) -> Vec<NodeId> {
    state
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let k = b.input(format!("rk{round}_{i}"));
            b.op(Op::Xor, &[s, k])
        })
        .collect()
}

/// AES-128 key expansion: 11 round keys from a 16-byte key.
pub fn key_schedule(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for i in 0..4 {
        w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
    }
    let mut rcon: u8 = 1;
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for byte in &mut temp {
                *byte = SBOX[*byte as usize];
            }
            temp[0] ^= rcon;
            rcon = xtime_table()[rcon as usize];
        }
        for k in 0..4 {
            w[i][k] = w[i - 4][k] ^ temp[k];
        }
    }
    let mut keys = [[0u8; 16]; 11];
    for (r, rk) in keys.iter_mut().enumerate() {
        for c in 0..4 {
            rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
        }
    }
    keys
}

/// Reference AES encryption with `rounds` rounds over the given round keys
/// (10 rounds + FIPS key schedule = standard AES-128).
#[allow(
    clippy::needless_range_loop,
    reason = "rounds index two coupled tables"
)]
pub fn aes_reference(block: &[u8; 16], round_keys: &[[u8; 16]], rounds: usize) -> [u8; 16] {
    let xt = xtime_table();
    let mut state = *block;
    for i in 0..16 {
        state[i] ^= round_keys[0][i];
    }
    for r in 1..=rounds {
        for byte in &mut state {
            *byte = SBOX[*byte as usize];
        }
        let copy = state;
        for row in 0..4 {
            for col in 0..4 {
                state[row + 4 * col] = copy[row + 4 * ((col + row) % 4)];
            }
        }
        if r != rounds {
            let copy = state;
            for col in 0..4 {
                let a = [
                    copy[4 * col],
                    copy[1 + 4 * col],
                    copy[2 + 4 * col],
                    copy[3 + 4 * col],
                ];
                for row in 0..4 {
                    state[row + 4 * col] = xt[a[row] as usize]
                        ^ xt[a[(row + 1) % 4] as usize]
                        ^ a[(row + 1) % 4]
                        ^ a[(row + 2) % 4]
                        ^ a[(row + 3) % 4];
                }
            }
        }
        for i in 0..16 {
            state[i] ^= round_keys[r][i];
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn run_dfg(block: &[u8; 16], keys: &[[u8; 16]], rounds: usize) -> [u8; 16] {
        let g = build(rounds);
        let mut inputs = HashMap::new();
        for (i, &v) in block.iter().enumerate() {
            inputs.insert(format!("s{i}"), v as f64);
        }
        for (r, rk) in keys.iter().enumerate().take(rounds + 1) {
            for (i, &v) in rk.iter().enumerate() {
                inputs.insert(format!("rk{r}_{i}"), v as f64);
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let mut ct = [0u8; 16];
        for (i, byte) in ct.iter_mut().enumerate() {
            *byte = out[&format!("ct{i}")] as u8;
        }
        ct
    }

    #[test]
    fn fips197_test_vector() {
        // FIPS-197 Appendix C.1.
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let keys = key_schedule(&key);
        assert_eq!(aes_reference(&plaintext, &keys, 10), expected);
        assert_eq!(run_dfg(&plaintext, &keys, 10), expected);
    }

    #[test]
    fn dfg_matches_reference_for_short_rounds() {
        let keys = key_schedule(&[0x2b; 16]);
        let block = [0x5a; 16];
        for rounds in [1usize, 2, 4] {
            assert_eq!(
                run_dfg(&block, &keys, rounds),
                aes_reference(&block, &keys, rounds),
                "rounds = {rounds}"
            );
        }
    }

    #[test]
    fn sbox_is_a_permutation() {
        let mut seen = [false; 256];
        for &v in &SBOX {
            assert!(!seen[v as usize], "duplicate sbox value {v:#x}");
            seen[v as usize] = true;
        }
    }

    #[test]
    fn xtime_matches_gf_doubling() {
        let t = xtime_table();
        assert_eq!(t[0x57], 0xae); // FIPS-197 example
        assert_eq!(t[0xae], 0x47);
        assert_eq!(t[0x80], 0x1b);
    }

    #[test]
    fn lut_nodes_dominate_the_graph() {
        let g = build(2);
        let luts = g
            .compute_ids()
            .iter()
            .filter(|&&id| {
                matches!(
                    g.node(id).kind,
                    accelwall_dfg::NodeKind::Compute(Op::Lut { .. })
                )
            })
            .count();
        // 2 rounds x 16 SubBytes + 1 MixColumns round x 16 xtime.
        assert_eq!(luts, 48);
    }
}
