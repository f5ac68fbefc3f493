//! Factorization classes: exact census sizes and uniform-ish sampling.
//!
//! Table 2 of the paper counts, per factorization class, the polynomials
//! achieving HD=6 at Ethernet MTU length. Estimating those counts by
//! sampling requires (a) the exact number of polynomials in each class and
//! (b) a way to draw random members. Both live here.

use crate::factor::FactorSignature;
use crate::int::binomial;
use crate::irred::{count_irreducibles, random_irreducible};
use crate::poly::Poly;
use crate::rng::SplitMix64;
use crate::{Error, Result};
use std::collections::BTreeMap;

/// A factorization class: all polynomials (with nonzero constant term)
/// whose irreducible factorization has a given degree signature.
///
/// Degree-1 factors are always `x + 1`: the factor `x` is excluded because
/// CRC generator polynomials have a nonzero constant term (the paper's
/// implicit "+1").
///
/// ```
/// use gf2poly::FactorClass;
/// let class = FactorClass::parse("{1,3,28}").unwrap();
/// assert_eq!(class.total_degree(), 32);
/// // 2 degree-3 irreducibles × 9,586,395 degree-28 irreducibles.
/// assert_eq!(class.size(), 2 * 9_586_395);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorClass {
    signature: FactorSignature,
    /// degree → number of factors of that degree.
    by_degree: BTreeMap<u32, u32>,
}

impl FactorClass {
    /// Builds a class from a signature.
    ///
    /// # Errors
    ///
    /// [`Error::DegreeOverflow`] if the total degree exceeds 127 or any
    /// factor degree exceeds 64 (orders would overflow).
    pub fn new(signature: FactorSignature) -> Result<FactorClass> {
        if signature.total_degree() > 127 || signature.degrees().iter().any(|&d| d > 64) {
            return Err(Error::DegreeOverflow);
        }
        let mut by_degree = BTreeMap::new();
        for &d in signature.degrees() {
            *by_degree.entry(d).or_insert(0) += 1;
        }
        Ok(FactorClass {
            signature,
            by_degree,
        })
    }

    /// Parses a class from the paper's notation, e.g. `"{1,1,15,15}"`.
    ///
    /// # Errors
    ///
    /// Propagates signature parse errors and degree-range errors.
    pub fn parse(s: &str) -> Result<FactorClass> {
        FactorClass::new(s.parse()?)
    }

    /// The degree signature of the class.
    pub fn signature(&self) -> &FactorSignature {
        &self.signature
    }

    /// Degree of every member polynomial.
    pub fn total_degree(&self) -> u32 {
        self.signature.total_degree()
    }

    /// Exact number of distinct member polynomials.
    ///
    /// For `k` factors of degree `d` drawn from `I'(d)` available
    /// irreducibles (with repetition allowed — multiplicities are part of
    /// the signature), the count is the multiset coefficient
    /// `C(I'(d) + k − 1, k)`; counts multiply across degrees.
    /// `I'(1) = 1` because only `x+1` is admissible.
    pub fn size(&self) -> u128 {
        let mut total: u128 = 1;
        for (&d, &k) in &self.by_degree {
            let pool = if d == 1 {
                1
            } else {
                count_irreducibles(d) as u128
            };
            total = total.saturating_mul(multiset_coefficient(pool, k));
        }
        total
    }

    /// Draws a random member of the class.
    ///
    /// Factors are drawn independently and uniformly from the irreducibles
    /// of each degree; for the astronomically large pools of the paper's
    /// classes this is indistinguishable from uniform over the class
    /// (repeat draws have probability ≈ k²/I'(d)).
    ///
    /// # Errors
    ///
    /// Propagates irreducible-generation errors (degree out of range).
    pub fn sample(&self, rng: &mut SplitMix64) -> Result<Poly> {
        let mut acc = Poly::ONE;
        for (&d, &k) in &self.by_degree {
            for _ in 0..k {
                let p = if d == 1 {
                    Poly::X_PLUS_1
                } else {
                    random_irreducible(d, rng)?
                };
                acc = acc.checked_mul(p)?;
            }
        }
        Ok(acc)
    }

    /// The Table 2 classes of the paper, with the published HD=6 census.
    ///
    /// Returned as `(class, published_count)` pairs. The entries sum to
    /// 21,392; the paper's prose says 21,292 (see `docs/REPRODUCTION.md`).
    pub fn table2_classes() -> Vec<(FactorClass, u64)> {
        [
            ("{1,1,30}", 658u64),
            ("{1,3,28}", 448),
            ("{1,1,15,15}", 9887),
            ("{1,1,2,28}", 895),
            ("{1,3,14,14}", 4154),
            ("{1,1,1,1,28}", 448),
            ("{1,1,2,14,14}", 2639),
            ("{1,1,1,1,14,14}", 2263),
        ]
        .into_iter()
        .map(|(s, n)| (FactorClass::parse(s).expect("valid class"), n))
        .collect()
    }
}

impl std::fmt::Display for FactorClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.signature.fmt(f)
    }
}

/// Multiset coefficient `C(n + k − 1, k)`: ways to choose `k` items from
/// `n` with repetition.
fn multiset_coefficient(n: u128, k: u32) -> u128 {
    if n == 0 {
        return if k == 0 { 1 } else { 0 };
    }
    binomial(n + k as u128 - 1, k)
}

/// Number of polynomials in the paper's full `r`-bit search space:
/// all degree-`r` polynomials with nonzero constant term, counted up to
/// reciprocal equivalence: `2^(r-2) + 2^(r/2 - 1)` for even `r`.
///
/// ```
/// use gf2poly::class::distinct_search_space;
/// // The paper: "the entire set of 1,073,774,592 distinct polynomials".
/// assert_eq!(distinct_search_space(32), 1_073_774_592);
/// ```
///
/// # Panics
///
/// Panics for `r < 2` or odd `r` (CRC widths of interest are even).
pub fn distinct_search_space(r: u32) -> u64 {
    assert!(
        r >= 2 && r.is_multiple_of(2),
        "width must be an even integer >= 2"
    );
    // Space: coefficients of x^(r-1)..x^1 free, x^r and x^0 fixed to 1.
    // Reciprocal pairing identifies p with its coefficient reversal.
    // Palindromes are fixed points: coefficient pairs (i, r-i) for
    // i = 1..r/2 plus the free middle coefficient give 2^(r/2) of them.
    let total = 1u64 << (r - 1);
    let palindromes = 1u64 << (r / 2);
    (total - palindromes) / 2 + palindromes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::factor;

    #[test]
    fn multiset_coefficients() {
        assert_eq!(multiset_coefficient(2182, 2), 2182 * 2183 / 2);
        assert_eq!(multiset_coefficient(1, 2), 1);
        assert_eq!(multiset_coefficient(0, 3), 0);
    }

    #[test]
    fn class_sizes_for_paper_classes() {
        // {1,31}: only-primitive deg-31 irreducibles (all of them are):
        // the paper says 6.93e7 possibilities.
        let c = FactorClass::parse("{1,31}").unwrap();
        assert_eq!(c.size(), 69_273_666);
        // {1,3,28}: 2 cubic irreducibles × I(28).
        let c = FactorClass::parse("{1,3,28}").unwrap();
        assert_eq!(c.size(), 2 * 9_586_395);
        // {1,1,15,15}: single (x+1)^2 choice × multiset of two deg-15s.
        let c = FactorClass::parse("{1,1,15,15}").unwrap();
        assert_eq!(c.size(), 2182u128 * 2183 / 2);
        // {1,1,30}: I(30) members.
        let c = FactorClass::parse("{1,1,30}").unwrap();
        assert_eq!(c.size(), 35_790_267);
    }

    #[test]
    fn class_size_cross_checked_by_enumeration() {
        // Degree-6 class {3,3}: 2 cubics with repetition → C(3,2) = 3.
        let c = FactorClass::parse("{3,3}").unwrap();
        assert_eq!(c.size(), 3);
        // Enumerate all degree-6 polys with constant term and count.
        let mut n = 0u32;
        for mask in (1u128 << 6)..(1u128 << 7) {
            let p = Poly::from_mask(mask | 1);
            if mask & 1 == 0 {
                continue;
            }
            if factor(p).signature() == *c.signature() {
                n += 1;
            }
        }
        assert_eq!(n as u128, c.size());
    }

    #[test]
    fn sampling_lands_in_class() {
        let mut rng = SplitMix64::new(404);
        for s in ["{1,3,28}", "{1,1,15,15}", "{1,1,30}", "{32}", "{1,31}"] {
            let class = FactorClass::parse(s).unwrap();
            let member = class.sample(&mut rng).unwrap();
            assert_eq!(member.degree(), Some(class.total_degree()));
            assert!(member.has_constant_term());
            assert_eq!(factor(member).signature(), *class.signature(), "class {s}");
        }
    }

    #[test]
    fn table2_classes_all_degree_32_with_parity() {
        let classes = FactorClass::table2_classes();
        assert_eq!(classes.len(), 8);
        let total: u64 = classes.iter().map(|&(_, n)| n).sum();
        // The paper's prose says "21,292 polynomials with HD=6", but its
        // Table 2 entries sum to 21,392 — an internal inconsistency of the
        // paper, recorded in docs/REPRODUCTION.md. We pin the table sum.
        assert_eq!(total, 21_392, "sum of the paper's Table 2 entries");
        for (c, _) in &classes {
            assert_eq!(c.total_degree(), 32);
            assert!(
                c.signature().has_degree_one_factor(),
                "all HD=6 classes are divisible by x+1"
            );
        }
    }

    #[test]
    fn search_space_constant_from_paper() {
        assert_eq!(distinct_search_space(32), 1_073_774_592);
        assert_eq!(distinct_search_space(8), 72); // 64 + 8
        assert_eq!(distinct_search_space(16), 16_512);
    }

    #[test]
    fn rejects_oversized_classes() {
        assert!(FactorClass::parse("{64,64}").is_err());
        assert!(FactorClass::parse("{65}").is_err());
        assert!(FactorClass::parse("{64,63}").is_ok());
    }
}
