//! Complete weight spectra by exhaustive multiplier enumeration — the
//! crate's ground truth at small lengths.
//!
//! Every codeword of an `n`-bit data word is `m(x)·G(x)` for a unique
//! multiplier `m` of degree `< n`, so walking all `2ⁿ − 1` nonzero
//! multipliers (in Gray-code order, one shifted XOR per step) enumerates
//! the code exactly. This is the same "simple code" cross-check the paper
//! used for validation (§4.5), and it doubles as the reproduction of the
//! paper's 8-/16-bit exhaustive searches.

use crate::{Error, Result};
use gf2poly::GenPoly;

/// Largest data-word length for exhaustive enumeration (2³⁰ codewords).
pub const MAX_SPECTRUM_LEN: u32 = 30;

/// The weight distribution of a CRC code at one data-word length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightSpectrum {
    data_len: u32,
    codeword_len: u32,
    counts: Vec<u128>,
}

impl WeightSpectrum {
    /// Number of codewords of weight exactly `k` (the paper's `Wₖ`).
    pub fn count(&self, k: u32) -> u128 {
        self.counts.get(k as usize).copied().unwrap_or(0)
    }

    /// All counts, indexed by weight; index 0 is always 0 (the zero word
    /// is excluded, matching the undetectable-*error* interpretation).
    pub fn counts(&self) -> &[u128] {
        &self.counts
    }

    /// The exact Hamming distance: the smallest nonzero weight present,
    /// or `None` when the counts hold no nonzero codeword at all (an
    /// all-zero vector — reachable through [`WeightSpectrum::from_counts`],
    /// where the old `expect` panicked).
    pub fn hd(&self) -> Option<u32> {
        self.counts
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, &c)| c > 0)
            .map(|(k, _)| k as u32)
    }

    /// Assembles a spectrum from externally computed counts — the exact
    /// distribution layer ([`crate::distribution`]) lowers its
    /// big-integer counts into this type through here.
    ///
    /// # Errors
    ///
    /// [`Error::BadLength`] when the lengths are inconsistent
    /// (`codeword_len ≤ data_len`) or `counts` is not one entry per
    /// weight `0..=codeword_len`.
    pub fn from_counts(
        data_len: u32,
        codeword_len: u32,
        counts: Vec<u128>,
    ) -> Result<WeightSpectrum> {
        if codeword_len <= data_len {
            return Err(Error::BadLength(format!(
                "codeword_len {codeword_len} must exceed data_len {data_len}"
            )));
        }
        if counts.len() != codeword_len as usize + 1 {
            return Err(Error::BadLength(format!(
                "need {} counts (one per weight 0..={codeword_len}), got {}",
                codeword_len + 1,
                counts.len()
            )));
        }
        Ok(WeightSpectrum {
            data_len,
            codeword_len,
            counts,
        })
    }

    /// Data-word length `n`.
    pub fn data_len(&self) -> u32 {
        self.data_len
    }

    /// Codeword length `n + r`.
    pub fn codeword_len(&self) -> u32 {
        self.codeword_len
    }

    /// Total number of nonzero codewords (`2ⁿ − 1`).
    pub fn total(&self) -> u128 {
        self.counts.iter().sum()
    }
}

/// Enumerates the full weight spectrum of `g` at data-word length
/// `data_len` (≤ [`MAX_SPECTRUM_LEN`]).
///
/// # Errors
///
/// [`Error::BadLength`] when `data_len` is 0 or exceeds the enumeration
/// cap.
///
/// ```
/// use crc_hd::{spectrum::spectrum, GenPoly};
/// let g = GenPoly::from_normal(8, 0x07).unwrap();
/// let spec = spectrum(&g, 10).unwrap();
/// assert_eq!(spec.total(), (1 << 10) - 1);
/// assert_eq!(spec.hd(), Some(4)); // HD of CRC-8/0x07 at 10 data bits
/// ```
pub fn spectrum(g: &GenPoly, data_len: u32) -> Result<WeightSpectrum> {
    if data_len == 0 || data_len > MAX_SPECTRUM_LEN {
        return Err(Error::BadLength(format!(
            "data_len {data_len} outside 1..={MAX_SPECTRUM_LEN}"
        )));
    }
    let codeword_len = data_len + g.width();
    let gmask = g.to_poly().mask();
    let mut counts = vec![0u128; codeword_len as usize + 1];
    // Gray-code walk: multiplier i and i+1 differ in bit tz(i+1), so the
    // product changes by G << tz.
    let mut product: u128 = 0;
    let total: u64 = 1u64 << data_len;
    for i in 1..total {
        product ^= gmask << i.trailing_zeros();
        counts[product.count_ones() as usize] += 1;
    }
    Ok(WeightSpectrum {
        data_len,
        codeword_len,
        counts,
    })
}

/// Exact Hamming distance at `data_len` by exhaustive enumeration —
/// shorthand for `spectrum(g, data_len)?.hd()`.
///
/// # Errors
///
/// As [`spectrum`]; additionally [`Error::BadLength`] should the
/// spectrum hold no nonzero codeword (unreachable for `data_len ≥ 1`,
/// but no longer a panic path).
pub fn hd_exhaustive(g: &GenPoly, data_len: u32) -> Result<u32> {
    spectrum(g, data_len)?
        .hd()
        .ok_or_else(|| Error::BadLength(format!("no nonzero codeword at data_len {data_len}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dmin::dmin;

    #[test]
    fn rejects_out_of_range_lengths() {
        let g = GenPoly::from_normal(8, 0x07).unwrap();
        assert!(spectrum(&g, 0).is_err());
        assert!(spectrum(&g, MAX_SPECTRUM_LEN + 1).is_err());
    }

    #[test]
    fn totals_and_parity_structure() {
        let g = GenPoly::from_normal(8, 0x07).unwrap(); // divisible by x+1
        let spec = spectrum(&g, 12).unwrap();
        assert_eq!(spec.total(), (1 << 12) - 1);
        for k in (1..spec.counts().len()).step_by(2) {
            assert_eq!(spec.count(k as u32), 0, "odd weight {k} must be absent");
        }
    }

    #[test]
    fn gray_walk_matches_direct_multiplication() {
        let g = GenPoly::from_normal(8, 0x9B).unwrap();
        let n = 10u32;
        let spec = spectrum(&g, n).unwrap();
        // Recount the slow way.
        let gmask = g.to_poly().mask();
        let mut counts = vec![0u128; (n + 8) as usize + 1];
        for m in 1u128..(1 << n) {
            let mut prod: u128 = 0;
            for b in 0..n {
                if m >> b & 1 == 1 {
                    prod ^= gmask << b;
                }
            }
            counts[prod.count_ones() as usize] += 1;
        }
        assert_eq!(spec.counts(), &counts[..]);
    }

    #[test]
    fn hd_matches_dmin_breakpoints_for_crc8() {
        // Cross-validate the two independent HD computations over every
        // 8-bit generator at several lengths.
        for koopman in (0x80u64..0x100).step_by(7) {
            let g = match GenPoly::from_koopman(8, koopman) {
                Ok(g) => g,
                Err(_) => continue,
            };
            for n in [3u32, 8, 15, 22] {
                let hd = hd_exhaustive(&g, n).unwrap();
                // dmin-based HD: smallest w whose d_min fits the codeword.
                let cap = n + 8 - 1;
                let mut hd_dmin = None;
                for w in 2..=hd + 1 {
                    if dmin(&g, w, cap).unwrap().is_some() {
                        hd_dmin = Some(w);
                        break;
                    }
                }
                assert_eq!(hd_dmin, Some(hd), "poly {koopman:#x} n={n}");
            }
        }
    }

    #[test]
    fn generator_weight_bounds_hd() {
        let g = GenPoly::from_koopman(8, 0x83).unwrap();
        let spec = spectrum(&g, 20).unwrap();
        assert!(spec.hd().unwrap() <= g.weight());
    }

    #[test]
    fn all_zero_counts_yield_no_hd_instead_of_panicking() {
        // Regression: hd() used to `expect` a minimum weight and panic
        // on an all-zero counts vector.
        let empty = WeightSpectrum::from_counts(4, 12, vec![0; 13]).unwrap();
        assert_eq!(empty.hd(), None);
        assert_eq!(empty.total(), 0);
        // And from_counts validates its shape.
        assert!(WeightSpectrum::from_counts(12, 12, vec![0; 13]).is_err());
        assert!(WeightSpectrum::from_counts(4, 12, vec![0; 5]).is_err());
    }
}
