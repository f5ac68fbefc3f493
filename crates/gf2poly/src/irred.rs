//! Irreducibility and primitivity testing, plus counting, enumeration and
//! random generation of irreducible polynomials.
//!
//! The paper's polynomial classes are described by irreducible
//! factorizations; sampling random members of a class (for the Table 2
//! census estimate) requires drawing uniform random irreducibles of a given
//! degree, and the class sizes come from the necklace-counting formula
//! implemented in [`count_irreducibles`].

use crate::int::prime_divisors;
use crate::modring::ModCtx;
use crate::poly::Poly;
use crate::rng::SplitMix64;
use crate::{Error, Result};

/// Rabin's irreducibility test.
///
/// `f` of degree `n ≥ 1` is irreducible over GF(2) iff
/// `x^(2^n) ≡ x (mod f)` and, for every prime `q | n`,
/// `gcd(x^(2^(n/q)) − x, f) = 1`.
///
/// ```
/// use gf2poly::{is_irreducible, Poly};
/// assert!(is_irreducible(Poly::from_mask(0b1011)));   // x^3 + x + 1
/// assert!(!is_irreducible(Poly::from_mask(0b1001)));  // x^3 + 1 = (x+1)(x^2+x+1)
/// ```
pub fn is_irreducible(f: Poly) -> bool {
    let n = match f.degree() {
        None | Some(0) => return false,
        Some(n) => n,
    };
    if n == 1 {
        return true;
    }
    // Any irreducible of degree ≥ 2 has a nonzero constant term
    // (otherwise x divides it).
    if !f.has_constant_term() {
        return false;
    }
    let ctx = ModCtx::new(f).expect("degree >= 1");
    // x^(2^n) == x (mod f)
    if ctx.x_pow_pow2(n) != Poly::X {
        return false;
    }
    for q in prime_divisors(n as u64) {
        let k = n / q as u32;
        let h = ctx.x_pow_pow2(k) + Poly::X;
        if f.gcd(h).degree() != Some(0) {
            return false;
        }
    }
    true
}

/// Tests whether `f` is primitive: irreducible with `x` generating the full
/// multiplicative group of `GF(2^n)`, i.e. `ord(x) = 2^n − 1`.
///
/// Primitive polynomials maximize the length at which 2-bit errors stay
/// detectable; the paper proves no 32-bit *primitive* polynomial achieves
/// HD > 4 at the Ethernet MTU length.
///
/// ```
/// use gf2poly::{is_primitive, Poly};
/// assert!(is_primitive(Poly::from_mask(0b1011)));     // x^3 + x + 1
/// // x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5, not 15.
/// assert!(!is_primitive(Poly::from_mask(0b11111)));
/// ```
pub fn is_primitive(f: Poly) -> bool {
    let n = match f.degree() {
        None | Some(0) => return false,
        Some(n) => n,
    };
    if n > 63 {
        // 2^n − 1 would overflow u64; unsupported widths are non-primitive
        // by fiat here, and unreachable from the CRC search space (≤ 64).
        return n == 64 && is_primitive_deg64(f);
    }
    if !is_irreducible(f) {
        return false;
    }
    let ctx = ModCtx::new(f).expect("degree >= 1");
    let group = (1u64 << n) - 1;
    for p in prime_divisors(group) {
        if ctx.x_pow(group / p) == Poly::ONE {
            return false;
        }
    }
    true
}

fn is_primitive_deg64(f: Poly) -> bool {
    if !is_irreducible(f) {
        return false;
    }
    let ctx = ModCtx::new(f).expect("degree 64");
    // 2^64 - 1 = 3 · 5 · 17 · 257 · 641 · 65537 · 6700417.
    for p in [3u64, 5, 17, 257, 641, 65537, 6700417] {
        // x^((2^64-1)/p): exponent fits u64.
        let e = u64::MAX / p;
        if ctx.x_pow(e) == Poly::ONE {
            return false;
        }
    }
    true
}

/// Number of irreducible polynomials of degree `d` over GF(2), by the
/// necklace/Möbius formula `(1/d) Σ_{e|d} μ(e) 2^(d/e)`.
///
/// ```
/// use gf2poly::count_irreducibles;
/// assert_eq!(count_irreducibles(1), 2);   // x, x+1
/// assert_eq!(count_irreducibles(15), 2182);
/// // The paper: "6.93·10^7 possibilities" of primitive degree-31 factors —
/// // every degree-31 irreducible is primitive because 2^31 − 1 is prime.
/// assert_eq!(count_irreducibles(31), 69_273_666);
/// ```
///
/// # Panics
///
/// Panics if `d == 0` or `d > 64`.
pub fn count_irreducibles(d: u32) -> u64 {
    assert!((1..=64).contains(&d), "degree must be in 1..=64");
    let mut total: i128 = 0;
    for e in 1..=d {
        if !d.is_multiple_of(e) {
            continue;
        }
        let mu = moebius(e as u64);
        if mu == 0 {
            continue;
        }
        let term = 1i128 << (d / e);
        total += mu as i128 * term;
    }
    debug_assert!(total > 0 && total % d as i128 == 0);
    (total / d as i128) as u64
}

/// Möbius function for small arguments.
fn moebius(n: u64) -> i32 {
    if n == 1 {
        return 1;
    }
    let f = crate::int::factor_u64(n);
    if f.iter().any(|&(_, e)| e > 1) {
        0
    } else if f.len().is_multiple_of(2) {
        1
    } else {
        -1
    }
}

/// Iterator over all irreducible polynomials of degree `d`, in ascending
/// mask order. Intended for small degrees (the iteration space is `2^(d-1)`
/// candidates); the exhaustive-search experiments use it up to `d ≈ 16`.
pub fn enumerate_irreducibles(d: u32) -> impl Iterator<Item = Poly> {
    assert!(
        (1..=32).contains(&d),
        "enumeration supported for degree 1..=32"
    );
    let lo = 1u128 << d;
    let hi = 1u128 << (d + 1);
    (lo..hi).map(Poly::from_mask).filter(move |p| {
        // Degree-1: x and x+1 both count. Higher degrees need constant term.
        (d == 1 || p.has_constant_term()) && is_irreducible(*p)
    })
}

/// Draws a uniformly random irreducible polynomial of degree `d`
/// (with nonzero constant term when `d ≥ 2`) by rejection sampling;
/// the expected number of trials is about `d`.
///
/// # Errors
///
/// [`Error::DegreeOverflow`] if `d` is 0 or exceeds 64.
pub fn random_irreducible(d: u32, rng: &mut SplitMix64) -> Result<Poly> {
    if d == 0 || d > 64 {
        return Err(Error::DegreeOverflow);
    }
    if d == 1 {
        // Only x+1 is useful as a CRC factor (x is excluded by the
        // nonzero-constant-term requirement), but stay uniform over both.
        return Ok(if rng.next_u64() & 1 == 0 {
            Poly::X
        } else {
            Poly::X_PLUS_1
        });
    }
    loop {
        // Random monic degree-d polynomial with constant term 1.
        let inner_bits = d - 1;
        let mid = if inner_bits == 0 {
            0
        } else if inner_bits <= 64 {
            (rng.next_u64() as u128) & ((1u128 << inner_bits) - 1)
        } else {
            rng.next_u128() & ((1u128 << inner_bits) - 1)
        };
        let candidate = Poly::from_mask((1u128 << d) | (mid << 1) | 1);
        if is_irreducible(candidate) {
            return Ok(candidate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_one_and_two() {
        assert!(is_irreducible(Poly::X));
        assert!(is_irreducible(Poly::X_PLUS_1));
        assert!(is_irreducible(Poly::from_mask(0b111))); // x^2+x+1
        assert!(!is_irreducible(Poly::from_mask(0b101))); // (x+1)^2
        assert!(!is_irreducible(Poly::from_mask(0b110))); // x(x+1)
        assert!(!is_irreducible(Poly::ONE));
        assert!(!is_irreducible(Poly::ZERO));
    }

    #[test]
    fn counts_match_enumeration_small_degrees() {
        for d in 1..=12u32 {
            let counted = count_irreducibles(d);
            let enumerated = enumerate_irreducibles(d).count() as u64;
            assert_eq!(counted, enumerated, "degree {d}");
        }
    }

    #[test]
    fn known_irreducible_counts() {
        // OEIS A001037.
        let expect = [
            2u64, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335, 630, 1161, 2182, 4080,
        ];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(count_irreducibles(i as u32 + 1), e, "degree {}", i + 1);
        }
        assert_eq!(count_irreducibles(28), 9_586_395);
        assert_eq!(count_irreducibles(30), 35_790_267);
        assert_eq!(count_irreducibles(31), 69_273_666);
    }

    #[test]
    fn primitivity_subset_of_irreducibility() {
        for d in 2..=8u32 {
            let mut prim = 0u64;
            for p in enumerate_irreducibles(d) {
                if is_primitive(p) {
                    prim += 1;
                }
            }
            // #primitive(d) = φ(2^d - 1) / d  (OEIS A011260).
            let expect = [1u64, 2, 2, 6, 6, 18, 16][(d - 2) as usize];
            assert_eq!(prim, expect, "degree {d}");
        }
    }

    #[test]
    fn paper_polynomials_irreducibility_status() {
        // The paper calls 802.3 "irreducible, but not primitive", but direct
        // computation shows x has full order 2^32 − 1, i.e. the polynomial
        // IS primitive — consistent with the paper's own Table 1, where
        // 802.3 keeps HD=3 beyond 131072 bits (a small order would cap it).
        // The prose statement is a paper erratum; see docs/REPRODUCTION.md.
        let ieee = Poly::from_mask(0x1_04C1_1DB7);
        assert!(is_irreducible(ieee));
        assert!(is_primitive(ieee));
        // Castagnoli 0xD419CC15 {32}: "irreducible, although not primitive".
        let cast = Poly::from_mask(0x1_A833_982B);
        assert!(is_irreducible(cast));
        assert!(!is_primitive(cast));
    }

    #[test]
    fn random_irreducibles_have_right_degree_and_pass_test() {
        let mut rng = SplitMix64::new(12345);
        for d in [2u32, 3, 8, 15, 28, 31, 32, 64] {
            let p = random_irreducible(d, &mut rng).unwrap();
            assert_eq!(p.degree(), Some(d));
            assert!(is_irreducible(p));
            if d >= 2 {
                assert!(p.has_constant_term());
            }
        }
        assert!(random_irreducible(0, &mut rng).is_err());
        assert!(random_irreducible(65, &mut rng).is_err());
    }

    #[test]
    fn degree_31_irreducibles_are_all_primitive() {
        // 2^31 − 1 is prime, so order can only be 1 or 2^31−1.
        let mut rng = SplitMix64::new(777);
        for _ in 0..3 {
            let p = random_irreducible(31, &mut rng).unwrap();
            assert!(is_primitive(p));
        }
    }
}
