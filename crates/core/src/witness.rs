//! Witness reconstruction: not just *whether* a low-weight undetectable
//! pattern exists, but *which bits* form one.
//!
//! The `d_min` searches answer existence questions; this module recovers
//! concrete minimal patterns — the paper's "in fact exactly one such
//! undetected error" at 2975 bits for 802.3 is a specific 4-bit pattern,
//! and having it in hand lets `netsim` inject it into real frames.

use crate::posmap::PosMap;
use crate::syndrome::SyndromeSeq;
use crate::{Error, Result};
use gf2poly::GenPoly;

/// A concrete undetectable error pattern: bit positions (exponents,
/// counted from the codeword end) whose flips form a codeword.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Sorted bit positions; `positions[0] == 0` (constant term).
    pub positions: Vec<u32>,
}

impl Witness {
    /// The pattern weight.
    pub fn weight(&self) -> u32 {
        self.positions.len() as u32
    }

    /// The pattern degree (highest position).
    pub fn degree(&self) -> u32 {
        *self.positions.last().expect("witnesses are nonempty")
    }

    /// Serializes the pattern into a frame-sized byte vector for
    /// injection: position `i` maps to bit `i` counted from the *end* of
    /// the buffer, MSB-first within bytes (network order).
    ///
    /// # Errors
    ///
    /// [`Error::BadLength`] if the pattern does not fit `frame_len` bytes.
    pub fn to_frame_pattern(&self, frame_len: usize) -> Result<Vec<u8>> {
        let nbits = frame_len as u64 * 8;
        if u64::from(self.degree()) >= nbits {
            return Err(Error::BadLength(format!(
                "witness degree {} exceeds frame of {nbits} bits",
                self.degree()
            )));
        }
        let mut out = vec![0u8; frame_len];
        for &p in &self.positions {
            let bit_from_end = p as usize;
            let byte = frame_len - 1 - bit_from_end / 8;
            out[byte] ^= 1 << (bit_from_end % 8);
        }
        Ok(out)
    }

    /// Verifies the witness against a generator: the XOR of the syndromes
    /// at its positions must vanish.
    pub fn verify(&self, g: &GenPoly) -> bool {
        let mut seq = SyndromeSeq::new(g);
        let mut acc = 0u64;
        let mut pos_iter = self.positions.iter().peekable();
        let mut i = 0u32;
        while let Some(&&next) = pos_iter.peek() {
            if i == next {
                acc ^= seq.peek();
                pos_iter.next();
            }
            if pos_iter.peek().is_none() {
                break;
            }
            seq.step();
            i += 1;
        }
        acc == 0
    }
}

/// Finds a minimal-degree weight-`w` witness (w in 2..=4) with degree at
/// most `cap`, or `None` if none exists.
///
/// The returned pattern has a set bit at position 0 (every codeword is a
/// shift of such a pattern); shift it anywhere in a longer frame to get
/// further undetectable patterns.
///
/// # Errors
///
/// [`Error::BadLength`] for unsupported weights.
///
/// ```
/// use crc_hd::{witness::find_witness, GenPoly};
/// // The unique undetected 4-bit error of 802.3 at 2975 data bits (§4.1).
/// let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
/// let w = find_witness(&g, 4, 3_006).unwrap().unwrap();
/// assert_eq!(w.degree(), 3_006);
/// assert!(w.verify(&g));
/// ```
pub fn find_witness(g: &GenPoly, w: u32, cap: u32) -> Result<Option<Witness>> {
    if !(2..=4).contains(&w) {
        return Err(Error::BadLength(format!(
            "witness reconstruction supports weights 2..=4, got {w}"
        )));
    }
    if g.divisible_by_x_plus_1() && w % 2 == 1 {
        return Ok(None);
    }
    let mut map = PosMap::with_capacity(cap as usize);
    let mut seq = SyndromeSeq::new(g);
    let mut syn: Vec<u64> = vec![seq.peek()];
    let mut avail = 0u32;
    for t in (w - 1)..=cap {
        while syn.len() <= t as usize {
            syn.push(seq.step());
        }
        while avail + 1 < t {
            avail += 1;
            map.insert(syn[avail as usize], avail);
        }
        let target = 1 ^ syn[t as usize];
        match w {
            2 => {
                if target == 0 {
                    return Ok(Some(Witness {
                        positions: vec![0, t],
                    }));
                }
            }
            3 => {
                if let Some(i) = map.get(target) {
                    return Ok(Some(Witness {
                        positions: vec![0, i, t],
                    }));
                }
            }
            _ => {
                for i in 1..t {
                    if let Some(j) = map.get(target ^ syn[i as usize]) {
                        if j != i {
                            let mut positions = vec![0, i, j, t];
                            positions.sort_unstable();
                            return Ok(Some(Witness { positions }));
                        }
                    }
                }
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g32(k: u64) -> GenPoly {
        GenPoly::from_koopman(32, k).unwrap()
    }

    #[test]
    fn witness_degrees_match_dmin() {
        for (k, w, cap) in [
            (0x82608EDBu64, 4u32, 4_000u32),
            (0x8F6E37A0, 4, 6_000),
            (0x82608EDB, 5, 0), // unsupported weight -> error, checked below
        ] {
            if w > 4 {
                continue;
            }
            let g = g32(k);
            let wit = find_witness(&g, w, cap).unwrap();
            let d = crate::dmin::dmin(&g, w, cap).unwrap();
            match (wit, d) {
                (Some(wit), Some(d)) => {
                    assert_eq!(wit.degree(), d, "poly {k:#x}");
                    assert_eq!(wit.weight(), w);
                    assert!(wit.verify(&g));
                }
                (None, None) => {}
                other => panic!("mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn weight2_witness_is_the_order() {
        let g = GenPoly::from_normal(8, 0x83).unwrap(); // order 14
        let wit = find_witness(&g, 2, 100).unwrap().unwrap();
        assert_eq!(wit.positions, vec![0, 14]);
        assert!(wit.verify(&g));
    }

    #[test]
    fn weight3_witness_for_non_parity_poly() {
        let g = g32(0x82608EDB);
        // d_min(3) = 91639 is too deep for a test; use a CRC-8 non-parity
        // polynomial instead.
        let g8 = GenPoly::from_normal(8, 0x1D).unwrap(); // CRC-8/AUTOSAR-ish base
        if !g8.divisible_by_x_plus_1() {
            if let Some(wit) = find_witness(&g8, 3, 300).unwrap() {
                assert_eq!(wit.weight(), 3);
                assert!(wit.verify(&g8));
            }
        }
        // Parity polynomials cannot have odd witnesses.
        assert!(find_witness(&g32(0xBA0DC66B), 3, 10_000).unwrap().is_none());
        let _ = g;
    }

    #[test]
    fn unsupported_weight_is_an_error() {
        assert!(find_witness(&g32(0x82608EDB), 5, 100).is_err());
        assert!(find_witness(&g32(0x82608EDB), 1, 100).is_err());
    }

    #[test]
    fn frame_pattern_round_trip() {
        let g = GenPoly::from_normal(8, 0x07).unwrap();
        let wit = find_witness(&g, 4, 40).unwrap().expect("weight-4 exists");
        let frame = wit.to_frame_pattern(8).unwrap();
        // Popcount matches the witness weight.
        let bits: u32 = frame.iter().map(|b| b.count_ones()).sum();
        assert_eq!(bits, wit.weight());
        // Too-small frames are rejected.
        assert!(wit.to_frame_pattern(1).is_err());
    }

    #[test]
    fn verify_rejects_corrupted_witnesses() {
        let g = g32(0x8F6E37A0);
        let mut wit = find_witness(&g, 4, 6_000).unwrap().unwrap();
        assert!(wit.verify(&g));
        wit.positions[1] += 1;
        assert!(!wit.verify(&g));
    }
}
