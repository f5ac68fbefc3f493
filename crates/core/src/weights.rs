//! Exact undetected-error counts `W₂`, `W₃`, `W₄` at arbitrary lengths.
//!
//! `Wₖ` is the number of undetectable k-bit error patterns across the
//! `n + r` codeword bits — equivalently the number of weight-`k` codewords.
//! The paper's worked example (§2): the 802.3 CRC at a 12112-bit data word
//! has `{W₂ = 0; W₃ = 0; W₄ = 223,059}`.
//!
//! Counting uses the shift decomposition: every weight-`k` codeword is
//! `x^s · C'(x)` with `C'(0) = 1`, so
//! `Wₖ(L) = Σ_t Nₖ(t) · (L − t)` where `Nₖ(t)` counts the weight-`k`
//! multiples with constant term 1 and degree exactly `t`, and `L = n + r`
//! is the codeword length. The paper estimates >5 months for a direct
//! weight evaluation at 32 Kbits (§4.1); this closed form needs `O(L²)`
//! hash probes (~10⁸ at MTU length — well under a second).

use crate::dmin::dmin2;
use crate::workspace::SyndromeWorkspace;
use crate::{Error, Result};
use gf2poly::GenPoly;

/// Exact weights `W₂..W₄` for a generator at one data-word length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Weights234 {
    /// Data-word length `n` in bits.
    pub data_len: u32,
    /// Codeword length `n + r` in bits.
    pub codeword_len: u32,
    /// Undetectable 2-bit error patterns.
    pub w2: u128,
    /// Undetectable 3-bit error patterns.
    pub w3: u128,
    /// Undetectable 4-bit error patterns.
    pub w4: u128,
}

impl Weights234 {
    /// The smallest k in {2,3,4} with `Wₖ > 0`, if any — a HD witness:
    /// `HD ≤ k` when `Some`, `HD ≥ 5` when `None`.
    pub fn first_nonzero(&self) -> Option<u32> {
        if self.w2 > 0 {
            Some(2)
        } else if self.w3 > 0 {
            Some(3)
        } else if self.w4 > 0 {
            Some(4)
        } else {
            None
        }
    }
}

/// Computes exact `W₂`, `W₃` and `W₄` for `g` at data-word length
/// `data_len`.
///
/// One-shot convenience over [`SyndromeWorkspace::weights234`]; callers
/// evaluating many polynomials (or one polynomial through several
/// stages) should hold a workspace and call the method directly so
/// syndromes, the position index and `d_min` knowledge carry over.
///
/// # Errors
///
/// [`Error::BadLength`] if `data_len` is zero, or if the codeword length
/// exceeds the multiplicative order of `x` (syndromes would repeat and the
/// single-occupancy counting argument breaks; every length in the paper's
/// tables is below the order of the polynomial concerned).
///
/// ```
/// use crc_hd::{weights::weights234, GenPoly};
/// let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
/// let w = weights234(&g, 360).unwrap();
/// assert_eq!((w.w2, w.w3), (0, 0));
/// ```
pub fn weights234(g: &GenPoly, data_len: u32) -> Result<Weights234> {
    SyndromeWorkspace::new().weights234(g, data_len)
}

/// Exact `W₂` at any data-word length, from the multiplicative order
/// alone: the weight-2 codewords are exactly the shifts of `1 + x^(m·e)`
/// where `e` is the order, so
/// `W₂(L) = Σ_{m ≥ 1, m·e ≤ L−1} (L − m·e)`.
///
/// Unlike [`weights234`] this has no length restriction.
///
/// # Errors
///
/// [`Error::BadLength`] for zero or overflowing lengths.
pub fn weight2(g: &GenPoly, data_len: u32) -> Result<u128> {
    if data_len == 0 {
        return Err(Error::BadLength("data_len must be positive".into()));
    }
    let l = data_len
        .checked_add(g.width())
        .ok_or_else(|| Error::BadLength("codeword length overflow".into()))? as u128;
    Ok(weight2_from_order(dmin2(g), l))
}

/// The `W₂` closed form given a precomputed order — shared by
/// [`weight2`] and the workspace kernels (which cache the order).
pub(crate) fn weight2_from_order(order: u128, l: u128) -> u128 {
    let mut w2: u128 = 0;
    let mut d = order;
    while d < l {
        w2 += l - d;
        d += order;
    }
    w2
}

/// The undetected fraction `Wₖ / C(n+r, k)` — the paper's "slightly more
/// than 1 out of every 2³² possible errors" observation for 802.3 at MTU.
pub fn undetected_fraction(count: u128, codeword_len: u32, k: u32) -> f64 {
    let total = gf2poly::int::binomial(codeword_len as u128, k);
    if total == 0 {
        return 0.0;
    }
    count as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g32(koopman: u64) -> GenPoly {
        GenPoly::from_koopman(32, koopman).unwrap()
    }

    #[test]
    fn zero_length_rejected() {
        assert!(weights234(&g32(0x82608EDB), 0).is_err());
    }

    #[test]
    fn w4_first_becomes_nonzero_at_the_802_3_breakpoint() {
        // §4.1: at 2974 bits all four weights are zero; at 2975 bits there
        // is "in fact exactly one" undetected 4-bit error.
        let g = g32(0x82608EDB);
        let below = weights234(&g, 2974).unwrap();
        assert_eq!((below.w2, below.w3, below.w4), (0, 0, 0));
        assert_eq!(below.first_nonzero(), None);
        let at = weights234(&g, 2975).unwrap();
        assert_eq!((at.w2, at.w3), (0, 0));
        assert_eq!(at.w4, 1, "exactly one undetected 4-bit error at 2975");
        assert_eq!(at.first_nonzero(), Some(4));
    }

    #[test]
    fn parity_polynomials_have_zero_w3() {
        let g = g32(0xBA0DC66B);
        let w = weights234(&g, 1000).unwrap();
        assert_eq!(w.w3, 0);
    }

    #[test]
    fn weights_nondecreasing_with_length() {
        // §4.5 invariant: "weight values were ensured to be non-decreasing
        // when computed over increasing payload lengths".
        let g = g32(0x82608EDB);
        let mut prev = (0u128, 0u128, 0u128);
        for n in [2900u32, 2975, 3000, 3200, 3500] {
            let w = weights234(&g, n).unwrap();
            assert!(w.w2 >= prev.0 && w.w3 >= prev.1 && w.w4 >= prev.2, "n={n}");
            prev = (w.w2, w.w3, w.w4);
        }
    }

    #[test]
    fn w2_counts_multiples_of_the_order() {
        // x^8+x^7+x+1 = (x+1)^2(x^3+x+1)(x^3+x^2+1): order lcm(7,7)·2 = 14
        // ⇒ weight-2 codewords are shifts of 1 + x^14, 1 + x^28, ...
        let g = GenPoly::from_normal(8, 0x83).unwrap();
        assert_eq!(dmin2(&g), 14);
        // Codeword length 38: d = 14 gives 24 shifts; d = 28 gives 10.
        assert_eq!(weight2(&g, 30).unwrap(), 24 + 10);
        // Below the order no weight-2 codeword fits.
        assert_eq!(weight2(&g, 5).unwrap(), 0);
        // weights234 refuses lengths past the order (counting would need
        // duplicate syndromes).
        assert!(weights234(&g, 30).is_err());
    }

    #[test]
    fn cross_checked_against_exhaustive_spectrum() {
        // For small codes the multiplier enumeration gives every weight.
        for (width, normal) in [(8u32, 0x07u64), (8, 0x9B), (16, 0x1021), (16, 0x8005)] {
            let g = GenPoly::from_normal(width, normal).unwrap();
            for n in [4u32, 9, 16] {
                let spec = crate::spectrum::spectrum(&g, n).unwrap();
                let w = weights234(&g, n).unwrap();
                assert_eq!(w.w2, spec.count(2), "{normal:#x} n={n} W2");
                assert_eq!(w.w3, spec.count(3), "{normal:#x} n={n} W3");
                assert_eq!(w.w4, spec.count(4), "{normal:#x} n={n} W4");
            }
        }
    }

    #[test]
    fn undetected_fraction_sane() {
        let f = undetected_fraction(223_059, 12_144, 4);
        // ≈ 2.46e-10, "slightly more than 1 out of every 2^32".
        assert!(f > 1.0 / 2f64.powi(32));
        assert!(f < 1.2 / 2f64.powi(32));
    }
}
