//! Arithmetic in the quotient ring GF(2)\[x\] / (f), used for order,
//! irreducibility, and primitivity computations.

use crate::poly::Poly;
use crate::{Error, Result};

/// Precomputed context for arithmetic modulo a fixed polynomial `f`.
///
/// All elements are represented as [`Poly`] values of degree `< deg f`.
///
/// ```
/// use gf2poly::{ModCtx, Poly};
/// let f = Poly::from_mask(0b1011); // x^3 + x + 1 (primitive)
/// let ctx = ModCtx::new(f).unwrap();
/// // x^7 = 1 in GF(8) generated by a primitive polynomial.
/// assert_eq!(ctx.x_pow(7), Poly::ONE);
/// assert_eq!(ctx.x_pow(3), Poly::from_mask(0b011)); // x^3 = x + 1
/// ```
#[derive(Debug, Clone)]
pub struct ModCtx {
    modulus: Poly,
    degree: u32,
}

impl ModCtx {
    /// Creates a context for reduction modulo `f`.
    ///
    /// # Errors
    ///
    /// [`Error::ZeroPolynomial`] if `f` is zero or constant (degree 0):
    /// the quotient ring would be trivial.
    pub fn new(modulus: Poly) -> Result<ModCtx> {
        match modulus.degree() {
            None | Some(0) => Err(Error::ZeroPolynomial),
            Some(d) => Ok(ModCtx { modulus, degree: d }),
        }
    }

    /// The modulus polynomial.
    #[inline]
    pub fn modulus(&self) -> Poly {
        self.modulus
    }

    /// Degree of the modulus (the dimension of the quotient ring over GF(2)).
    #[inline]
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// Reduces an arbitrary polynomial modulo `f`.
    #[inline]
    pub fn reduce(&self, a: Poly) -> Poly {
        a % self.modulus
    }

    /// Product of two residues.
    ///
    /// Residues have degree `< deg f ≤ 127`, and products are reduced
    /// shift-by-shift so intermediate values never overflow the 128-bit
    /// representation even when `deg f = 127`.
    pub fn mul(&self, a: Poly, b: Poly) -> Poly {
        // Iterate over bits of b from the top down: acc = acc*x + bit*a.
        let bm = b.mask();
        if bm == 0 || a.is_zero() {
            return Poly::ZERO;
        }
        let top = 127 - bm.leading_zeros();
        let fm = self.modulus.mask();
        let d = self.degree;
        let am = self.reduce(a).mask();
        let mut acc = 0u128;
        for i in (0..=top).rev() {
            // acc *= x (mod f)
            acc <<= 1;
            if acc >> d & 1 == 1 {
                acc ^= fm;
            }
            if bm >> i & 1 == 1 {
                acc ^= am;
                if acc >> d & 1 == 1 {
                    acc ^= fm;
                }
            }
        }
        Poly::from_mask(acc)
    }

    /// Square of a residue.
    #[inline]
    pub fn square(&self, a: Poly) -> Poly {
        self.mul(a, a)
    }

    /// `base^e mod f` by square-and-multiply.
    pub fn pow(&self, base: Poly, mut e: u64) -> Poly {
        let mut result = Poly::ONE;
        let mut b = self.reduce(base);
        while e > 0 {
            if e & 1 == 1 {
                result = self.mul(result, b);
            }
            b = self.square(b);
            e >>= 1;
        }
        self.reduce(result)
    }

    /// `x^e mod f`.
    #[inline]
    pub fn x_pow(&self, e: u64) -> Poly {
        self.pow(Poly::X, e)
    }

    /// `x^(2^k) mod f` by `k` repeated squarings (the Frobenius iterate,
    /// the workhorse of Rabin's irreducibility test).
    pub fn x_pow_pow2(&self, k: u32) -> Poly {
        let mut a = self.reduce(Poly::X);
        for _ in 0..k {
            a = self.square(a);
        }
        a
    }

    /// The coefficient mask of `x^e mod f` — the *folding constant* that
    /// carryless-multiply CRC engines multiply a data chunk with to slide
    /// it `e` bit positions through the generator. See [`fold_constants`]
    /// for the CRC-oriented convenience wrapper.
    #[inline]
    pub fn x_pow_mask(&self, e: u64) -> u128 {
        self.x_pow(e).mask()
    }

    /// Trace map `Tr(a) = a + a^2 + a^4 + … + a^(2^(d-1)) mod f` over the
    /// subfield tower of degree `d`; used by equal-degree splitting in
    /// characteristic 2 (Cantor–Zassenhaus).
    pub fn trace(&self, a: Poly, d: u32) -> Poly {
        let mut acc = Poly::ZERO;
        let mut t = self.reduce(a);
        for _ in 0..d {
            acc += t;
            t = self.square(t);
        }
        acc
    }
}

/// Derives CRC folding constants: for each exponent `e`, the coefficient
/// mask of `x^e mod G`, where `G = x^width + poly` is the full generator
/// of a width-`width` CRC (`poly` in normal MSB-first notation).
///
/// Carryless-multiply CRC engines (PCLMULQDQ / PMULL folding) consume
/// these as their per-polynomial key schedule. crckit walks its schedule
/// out of its own slicing tables, which is cheaper at construction, and
/// tests it against this square-and-multiply derivation.
///
/// Every returned constant fits the low `width` bits (degree `< width`).
///
/// ```
/// use gf2poly::modring::fold_constants;
/// // CRC-32 (802.3): x^32 mod G folds a register one width forward.
/// let k = fold_constants(32, 0x04C1_1DB7, &[32, 64]).unwrap();
/// assert_eq!(k[0], 0x04C1_1DB7); // x^32 ≡ poly (mod G)
/// ```
///
/// # Errors
///
/// [`Error::ZeroPolynomial`] if `width` is 0 or exceeds 64 (no valid
/// generator exists).
pub fn fold_constants(width: u32, poly: u64, exponents: &[u64]) -> Result<Vec<u64>> {
    if width == 0 || width > 64 {
        return Err(Error::ZeroPolynomial);
    }
    let full = Poly::from_mask(1u128 << width | poly as u128);
    let ctx = ModCtx::new(full)?;
    Ok(exponents
        .iter()
        .map(|&e| ctx.x_pow_mask(e) as u64)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_trivial_moduli() {
        assert!(ModCtx::new(Poly::ZERO).is_err());
        assert!(ModCtx::new(Poly::ONE).is_err());
        assert!(ModCtx::new(Poly::X).is_ok());
    }

    #[test]
    fn mul_matches_schoolbook_for_small_moduli() {
        let f = Poly::from_mask(0b1_0001_1011); // degree 8
        let ctx = ModCtx::new(f).unwrap();
        for a in 0u128..64 {
            for b in 0u128..64 {
                let pa = Poly::from_mask(a);
                let pb = Poly::from_mask(b);
                let expected = (pa * pb) % f;
                assert_eq!(ctx.mul(pa, pb), expected, "a={a:#b} b={b:#b}");
            }
        }
    }

    #[test]
    fn mul_handles_max_degree_modulus() {
        // Degree-127 modulus: products must not overflow u128.
        let f = Poly::from_mask((1u128 << 127) | 0b11);
        let ctx = ModCtx::new(f).unwrap();
        let a = Poly::from_mask(u128::MAX >> 1); // degree 126 residue
        let sq = ctx.square(a);
        assert!(sq.degree().unwrap() < 127);
        // (a^2)^2 == (a*a)*(a*a) consistency
        assert_eq!(ctx.square(sq), ctx.mul(sq, sq));
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let f = Poly::from_mask(0b1011);
        let ctx = ModCtx::new(f).unwrap();
        let mut acc = Poly::ONE;
        for e in 0..20u64 {
            assert_eq!(ctx.x_pow(e), acc, "e={e}");
            acc = ctx.mul(acc, Poly::X);
        }
    }

    #[test]
    fn primitive_element_order_in_gf8() {
        let ctx = ModCtx::new(Poly::from_mask(0b1011)).unwrap();
        assert_eq!(ctx.x_pow(7), Poly::ONE);
        for e in 1..7 {
            assert_ne!(ctx.x_pow(e), Poly::ONE, "order must be exactly 7");
        }
    }

    #[test]
    fn frobenius_iterate_matches_pow() {
        let ctx = ModCtx::new(Poly::from_mask(0x0100_011B)).unwrap(); // deg 24
        for k in 0..10 {
            assert_eq!(ctx.x_pow_pow2(k), ctx.x_pow(1u64 << k), "k={k}");
        }
    }

    #[test]
    fn fold_constants_match_x_pow() {
        let ctx = ModCtx::new(Poly::from_mask(1u128 << 32 | 0x04C1_1DB7)).unwrap();
        let ks = fold_constants(32, 0x04C1_1DB7, &[31, 32, 64, 127, 128, 191, 512]).unwrap();
        for (&e, &k) in [31u64, 32, 64, 127, 128, 191, 512].iter().zip(&ks) {
            assert_eq!(k as u128, ctx.x_pow_mask(e), "e={e}");
            assert!(k <= u32::MAX as u64, "constant wider than the CRC width");
        }
        // Degenerate widths are rejected.
        assert!(fold_constants(0, 0, &[1]).is_err());
        assert!(fold_constants(65, 0, &[1]).is_err());
    }

    #[test]
    fn trace_is_additive() {
        let f = Poly::from_mask(0b10_0101); // degree 5
        let ctx = ModCtx::new(f).unwrap();
        let a = Poly::from_mask(0b1101);
        let b = Poly::from_mask(0b0111);
        let d = 5;
        assert_eq!(
            ctx.trace(a + b, d),
            ctx.trace(a, d) + ctx.trace(b, d),
            "trace must be GF(2)-linear"
        );
    }
}
