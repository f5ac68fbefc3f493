//! [`GenPoly`]: a validated CRC generator polynomial, the one generator
//! type of the workspace.
//!
//! A degree-`r` generator has `r + 1` coefficients, so it cannot fit in an
//! `r`-bit integer; the three written conventions drop a different bit:
//!
//! * **Normal** (MSB-first): coefficients of `x^(r-1)..x^0`, the `x^r` term
//!   implicit. 802.3's generator is `0x04C11DB7`.
//! * **Reversed** (LSB-first): the normal form bit-reflected, used by
//!   reflected (`refin = true`) implementations. 802.3: `0xEDB88320`.
//! * **Koopman**: coefficients of `x^r..x^1`, the `+1` term implicit: the
//!   paper's notation, whose top bit is always set. 802.3: `0x82608EDB`.

use crate::{Error, Poly, Result};

/// A CRC generator polynomial of degree (width) `r` with nonzero constant
/// term, the only polynomials in the paper's search space.
///
/// The value is held in **normal** (MSB-first) notation: the low `r` bits
/// are the coefficients of `x^(r-1)..x^0`, the `x^r` coefficient implicit.
/// Construct from the paper's Koopman notation with
/// [`GenPoly::from_koopman`].
///
/// ```
/// use gf2poly::GenPoly;
/// let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap(); // IEEE 802.3
/// assert_eq!(g.normal(), 0x04C11DB7);
/// assert_eq!(g.reversed(), 0xEDB88320);
/// assert_eq!(g.width(), 32);
/// assert!(!g.divisible_by_x_plus_1());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GenPoly {
    width: u32,
    normal: u64,
}

impl GenPoly {
    /// Builds from normal (MSB-first, implicit `x^width`) notation.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedWidth`] outside 3..=64;
    /// [`Error::BadGenerator`] if bits exceed the width or the constant
    /// term is zero (such generators waste a bit of the FCS and are
    /// excluded from the paper's space).
    pub fn from_normal(width: u32, normal: u64) -> Result<GenPoly> {
        if !(3..=64).contains(&width) {
            return Err(Error::UnsupportedWidth(width));
        }
        let mask = Self::mask_for(width);
        if normal & !mask != 0 {
            return Err(Error::BadGenerator(format!(
                "value {normal:#x} exceeds width {width}"
            )));
        }
        if normal & 1 == 0 {
            return Err(Error::BadGenerator(
                "constant term must be 1 (the paper's implicit +1)".into(),
            ));
        }
        Ok(GenPoly { width, normal })
    }

    /// Builds from the paper's Koopman notation (bits are `x^width..x^1`,
    /// `+1` implicit; the top bit must be set).
    ///
    /// # Errors
    ///
    /// As [`GenPoly::from_normal`], plus an error when the top bit is
    /// clear (the value would denote a lower-degree polynomial).
    pub fn from_koopman(width: u32, koopman: u64) -> Result<GenPoly> {
        if !(3..=64).contains(&width) {
            return Err(Error::UnsupportedWidth(width));
        }
        let mask = Self::mask_for(width);
        if koopman & !mask != 0 {
            return Err(Error::BadGenerator(format!(
                "value {koopman:#x} exceeds width {width}"
            )));
        }
        if koopman >> (width - 1) & 1 != 1 {
            return Err(Error::BadGenerator(
                "koopman notation requires the x^width bit set".into(),
            ));
        }
        GenPoly::from_normal(width, (koopman << 1 | 1) & mask)
    }

    /// Builds from a full polynomial with explicit `x^width` term.
    ///
    /// # Errors
    ///
    /// As [`GenPoly::from_normal`].
    pub fn from_poly(p: Poly) -> Result<GenPoly> {
        let width = p.degree().ok_or(Error::UnsupportedWidth(0))?;
        if !(3..=64).contains(&width) {
            return Err(Error::UnsupportedWidth(width));
        }
        GenPoly::from_normal(width, (p.mask() & Self::mask_for(width) as u128) as u64)
    }

    /// CRC width `r` (the polynomial degree).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Normal-notation value (low `width` bits).
    #[inline]
    pub fn normal(&self) -> u64 {
        self.normal
    }

    /// Koopman-notation value (the paper's hex constants).
    #[inline]
    pub fn koopman(&self) -> u64 {
        (self.normal >> 1) | 1 << (self.width - 1)
    }

    /// Reversed-notation value: the normal form bit-reflected within
    /// `width` bits, as reflected implementations write it.
    #[inline]
    pub fn reversed(&self) -> u64 {
        self.normal.reverse_bits() >> (64 - self.width)
    }

    /// The full polynomial with all `width + 1` coefficients.
    pub fn to_poly(&self) -> Poly {
        Poly::from_mask(1u128 << self.width | self.normal as u128)
    }

    /// Low-`width`-bits mask.
    #[inline]
    pub fn mask(&self) -> u64 {
        Self::mask_for(self.width)
    }

    #[inline]
    fn mask_for(width: u32) -> u64 {
        if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }

    /// Weight (number of nonzero coefficients) of the full polynomial —
    /// an upper bound on any achievable HD.
    #[inline]
    pub fn weight(&self) -> u32 {
        self.normal.count_ones() + 1
    }

    /// Whether `x + 1` divides the generator. If so, all odd-weight errors
    /// are detectable (the implicit parity bit of §4.2), and every odd
    /// `d_min` search can be skipped.
    #[inline]
    pub fn divisible_by_x_plus_1(&self) -> bool {
        // Parity of the full polynomial: normal bits + the implicit x^width.
        (self.normal.count_ones() + 1).is_multiple_of(2)
    }

    /// The reciprocal generator (coefficients reversed), which has an
    /// identical weight profile \[Peterson72\] — the pairing the paper uses
    /// to halve its search space.
    pub fn reciprocal(&self) -> GenPoly {
        let full = self.to_poly().reciprocal();
        GenPoly::from_poly(full).expect("reciprocal of a valid generator is valid")
    }

    /// True if this generator equals its own reciprocal.
    pub fn is_palindrome(&self) -> bool {
        *self == self.reciprocal()
    }
}

impl std::fmt::Display for GenPoly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "0x{:0width$X}",
            self.koopman(),
            width = self.width.div_ceil(4) as usize
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn koopman_normal_round_trip() {
        for (w, k) in [
            (32u32, 0x82608EDBu64),
            (32, 0xBA0DC66B),
            (16, 0x8810), // CCITT 0x1021 in Koopman form
            (8, 0x83),
            (64, 0xA17870F5D4F51B49),
            (64, u64::MAX), // all-ones: no shift may overflow at width 64
        ] {
            let g = GenPoly::from_koopman(w, k).unwrap();
            assert_eq!(g.koopman(), k, "width {w}");
            let g2 = GenPoly::from_normal(w, g.normal()).unwrap();
            assert_eq!(g, g2);
            assert_eq!(GenPoly::from_poly(g.to_poly()).unwrap(), g);
            // The reversed form is a width-bit reflection of the normal one.
            assert_eq!(g.reversed() & !g.mask(), 0, "width {w}");
            assert_eq!(g.reversed().reverse_bits() >> (64 - w), g.normal());
        }
        let ieee = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
        assert_eq!(ieee.reversed(), 0xEDB8_8320);
        assert_eq!(ieee.to_poly().mask(), 0x1_04C1_1DB7);
        // The paper's Castagnoli 0x8F6E37A0 is exactly CRC-32C.
        assert_eq!(
            GenPoly::from_koopman(32, 0x8F6E37A0).unwrap().normal(),
            0x1EDC_6F41
        );
    }

    #[test]
    fn parity_divisibility() {
        // 0xBA0DC66B is {1,3,28}: divisible by x+1.
        assert!(GenPoly::from_koopman(32, 0xBA0DC66B)
            .unwrap()
            .divisible_by_x_plus_1());
        // 802.3 {32} primitive is not.
        assert!(!GenPoly::from_koopman(32, 0x82608EDB)
            .unwrap()
            .divisible_by_x_plus_1());
    }

    #[test]
    fn rejects_invalid() {
        assert!(GenPoly::from_normal(2, 0b11).is_err());
        assert!(GenPoly::from_normal(65, 1).is_err());
        assert!(GenPoly::from_normal(8, 0x1FF).is_err());
        // Even polynomial (no +1 term).
        assert!(GenPoly::from_normal(8, 0x06).is_err());
        // Koopman value without the top bit.
        assert!(GenPoly::from_koopman(32, 0x12345678).is_err());
        // A full polynomial needs a constant term and a degree in range:
        // `x` has neither, `x^8` lacks the +1, zero has no degree.
        assert!(GenPoly::from_poly(Poly::from_mask(0b10)).is_err());
        assert!(GenPoly::from_poly(Poly::from_mask(0x100)).is_err());
        assert!(GenPoly::from_poly(Poly::ZERO).is_err());
    }

    #[test]
    fn reciprocal_pairs() {
        let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
        let r = g.reciprocal();
        assert_eq!(r.reciprocal(), g);
        assert_eq!(r.weight(), g.weight());
        assert!(!g.is_palindrome());
        // A palindrome: x^4 + x^3 + x + 1... needs even distribution.
        let p = GenPoly::from_normal(4, 0b1011).unwrap(); // x^4+x^3+x+1
        assert!(p.is_palindrome());
    }

    #[test]
    fn display_uses_koopman_hex() {
        let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
        assert_eq!(g.to_string(), "0x82608EDB");
        let g = GenPoly::from_koopman(8, 0x83).unwrap();
        assert_eq!(g.to_string(), "0x83");
    }
}
