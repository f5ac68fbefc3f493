//! Bitsliced syndrome blocks: 64 consecutive positions per machine word
//! per bit-plane, extended by `x⁶⁴ mod G` anchor jumps.
//!
//! The serial stepper ([`crate::syndrome::SyndromeSeq`]) advances one
//! position per shift/XOR — a loop-carried dependence that caps
//! extension at one value per ~2 cycles. This module replaces it for
//! bulk growth: since `r(base+k) = Σⱼ aⱼ·r(j+k)` where
//! `a = r(base) = Σⱼ aⱼ·xʲ`, a whole 64-position block is the XOR of at
//! most `width` precomputed *basis rows* (the bit-planes of
//! `r(j)..r(j+63)`), selected by the bits of the block's anchor value —
//! `width²` independent word-XORs per 64 positions instead of 64
//! dependent steps. Anchors advance by one multiply with `x⁶⁴ mod G`
//! per block in [`gf2poly::ModCtx`]. Output is bit-identical to serial
//! stepping; consumers see the same plain `syn` table, merely grown in
//! blocks (with up to 63 positions of overshoot their explicit bounds
//! already tolerate).

use gf2poly::{GenPoly, ModCtx, Poly};

/// Serial positions required before block extension can start: the
/// basis needs `r(0)..r(width-1+63)`, and two aligned 64-word
/// transposes (positions `0..128`) cover that for every width ≤ 32.
pub const BASIS_PREFIX: usize = 128;

/// Transposes a 64×64 bit matrix: `out[i]` bit `j` = `in[j]` bit `i`
/// (row index ↔ LSB-first bit index). Recursive block swaps, six
/// levels of masked delta-swaps (the Hacker's Delight scheme, oriented
/// for LSB bit numbering).
pub fn transpose64(a: &[u64; 64]) -> [u64; 64] {
    let mut m = *a;
    let mut s = 32usize;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while s != 0 {
        let mut k = 0usize;
        while k < 64 {
            if k & s == 0 {
                let t = ((m[k] >> s) ^ m[k | s]) & mask;
                m[k] ^= t << s;
                m[k | s] ^= t;
            }
            k += 1;
        }
        s >>= 1;
        mask ^= mask << s;
    }
    m
}

/// The per-binding block-extension state: the basis rows and the anchor
/// modmul context. Built once from the serial prefix (cheap: two
/// transposes plus `width²` funnel shifts), then [`PlaneState::extend`]
/// grows the syndrome table block-at-a-time.
#[derive(Debug, Clone)]
pub struct PlaneState {
    width: usize,
    ctx: ModCtx,
    /// `x⁶⁴ mod G`: advances a block anchor in one modmul.
    leap: Poly,
    /// `basis[j·width + b]` = bit-plane `b` of `r(j)..r(j+63)`; the
    /// block at anchor `a` is the XOR of rows `j` with bit `j` of `a`
    /// set.
    basis: Vec<u64>,
}

impl PlaneState {
    /// Builds the basis from the serially-computed prefix
    /// `syn_prefix[0..BASIS_PREFIX]` (`= r(0)..r(127)`).
    pub fn new(g: &GenPoly, syn_prefix: &[u64]) -> PlaneState {
        assert!(syn_prefix.len() >= BASIS_PREFIX, "serial prefix too short");
        let width = g.width() as usize;
        let ctx = ModCtx::new(g.to_poly()).expect("generator has degree >= 1");
        let leap = ctx.x_pow(64);
        let mut w: [u64; 64] = syn_prefix[..64].try_into().expect("64 words");
        let p0 = transpose64(&w);
        w.copy_from_slice(&syn_prefix[64..BASIS_PREFIX]);
        let p1 = transpose64(&w);
        let mut basis = vec![0u64; width * width];
        for j in 0..width {
            for b in 0..width {
                // Lane k of row (j, b) is bit b of r(j+k): a funnel
                // shift of the two aligned transposes.
                basis[j * width + b] = if j == 0 {
                    p0[b]
                } else {
                    (p0[b] >> j) | (p1[b] << (64 - j))
                };
            }
        }
        PlaneState {
            width,
            ctx,
            leap,
            basis,
        }
    }

    /// Grows `syn` (a table already holding at least `BASIS_PREFIX`
    /// serial values of this binding) so `syn[upto]` exists, whole
    /// blocks at a time — the table may end up to 63 positions past
    /// `upto`.
    pub fn extend(&self, syn: &mut Vec<u64>, upto: usize) {
        debug_assert!(syn.len() >= BASIS_PREFIX);
        while syn.len() <= upto {
            let base = syn.len();
            let prev = Poly::from_mask(u128::from(syn[base - 64]));
            let anchor = self.ctx.mul(self.leap, prev).mask() as u64;
            let mut blk = [0u64; 64];
            let mut a = anchor;
            while a != 0 {
                let j = a.trailing_zeros() as usize;
                a &= a - 1;
                let row = &self.basis[j * self.width..(j + 1) * self.width];
                for (plane, &r) in blk.iter_mut().zip(row) {
                    *plane ^= r;
                }
            }
            let vals = transpose64(&blk);
            debug_assert_eq!(vals[0], anchor, "lane 0 is the anchor itself");
            syn.extend_from_slice(&vals);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syndrome::SyndromeSeq;

    #[test]
    fn transpose_orientation_and_involution() {
        let mut m = [0u64; 64];
        // A recognizable asymmetric pattern.
        for (j, row) in m.iter_mut().enumerate() {
            *row = (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << (j % 64);
        }
        let t = transpose64(&m);
        for (i, &trow) in t.iter().enumerate() {
            for (j, &mrow) in m.iter().enumerate() {
                assert_eq!(trow >> j & 1, mrow >> i & 1, "({i},{j})");
            }
        }
        assert_eq!(transpose64(&t), m, "transpose is an involution");
    }

    #[test]
    fn block_extension_matches_serial_stepping() {
        for (width, koopman) in [
            (17u32, 0x1685Bu64),
            (24, 0x8F6E37),
            (29, 0x1800_5B41),
            (32, 0x82608EDB),
            (32, 0xBA0DC66B),
        ] {
            let g = GenPoly::from_koopman(width, koopman).unwrap();
            let mut seq = SyndromeSeq::new(&g);
            let mut syn = vec![seq.peek()];
            seq.extend_table(&mut syn, BASIS_PREFIX - 1);
            let bs = PlaneState::new(&g, &syn);
            // Grow through several non-aligned targets.
            for upto in [129usize, 700, 701, 5000] {
                bs.extend(&mut syn, upto);
            }
            let want: Vec<u64> = SyndromeSeq::new(&g).take(syn.len()).collect();
            assert_eq!(syn, want, "width {width} poly {koopman:#x}");
        }
    }

    #[test]
    fn extension_resumes_from_unaligned_lengths() {
        let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
        let mut seq = SyndromeSeq::new(&g);
        let mut syn = vec![seq.peek()];
        // A serial table that ran past the prefix to an odd length.
        seq.extend_table(&mut syn, 200);
        let bs = PlaneState::new(&g, &syn);
        bs.extend(&mut syn, 1000);
        let want: Vec<u64> = SyndromeSeq::new(&g).take(syn.len()).collect();
        assert_eq!(syn, want);
    }
}
