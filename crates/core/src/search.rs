//! Polynomial-space enumeration and the exhaustive-search oracle.
//!
//! [`PolySpace`] is the paper's representation of a whole `width`-bit
//! space and its enumeration order; the survey campaign (`crc-survey`)
//! splits it into shards. [`exhaustive_search`] scans a space in full on
//! one thread, screening each candidate through one HD filter and
//! nothing else (run at 8 and 16 bits, exactly the paper's §4.5
//! validation strategy). It is the deliberately simple oracle that the
//! survey engine's tests, the integration tests and the
//! `exhaustive_small` experiment check the campaign against.
//!
//! Table 2 is sampled by the survey census's factorization-class strata,
//! not here. The `table2` experiment evaluates those eight shards
//! directly rather than running a census `Campaign`: census mode always
//! adds the 32 tap-count strata, and that route measured 6.5× the CPU
//! (104 against 16 CPU-s for the eight classes at 100 samples each, on a
//! 2-core host).

use crate::filter::hd_filter_in;
use crate::workspace::SyndromeWorkspace;
use crate::Result;
use gf2poly::{factor, GenPoly};

/// The full `width`-bit polynomial space in the paper's representation:
/// Koopman-notation values with the top bit set (degree exactly `width`,
/// constant term implicit) — `2^(width-1)` polynomials.
#[derive(Debug, Clone, Copy)]
pub struct PolySpace {
    width: u32,
}

impl PolySpace {
    /// Creates the space of `width`-bit generators.
    ///
    /// # Panics
    ///
    /// Panics for widths outside 3..=32 (spaces beyond 32 bits are not
    /// enumerable in practice; the paper's is 32).
    pub fn new(width: u32) -> PolySpace {
        assert!((3..=32).contains(&width), "enumerable widths are 3..=32");
        PolySpace { width }
    }

    /// The space's width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Total polynomials (before reciprocal pairing): `2^(width-1)`.
    pub fn total(&self) -> u64 {
        1 << (self.width - 1)
    }

    /// Distinct polynomials after reciprocal pairing — the paper's
    /// 1,073,774,592 at width 32.
    pub fn distinct(&self) -> u64 {
        gf2poly::class::distinct_search_space(self.width)
    }

    /// Iterates every generator in the space.
    pub fn iter_all(&self) -> impl Iterator<Item = GenPoly> + '_ {
        self.iter_range(0, self.total())
    }

    /// The generator at `offset` (0-based) in the space's canonical
    /// enumeration order (ascending Koopman value).
    ///
    /// # Panics
    ///
    /// Panics if `offset >= total()`.
    pub fn nth(&self, offset: u64) -> GenPoly {
        assert!(offset < self.total(), "offset {offset} outside the space");
        // Invariant: `PolySpace::new` asserts 3 <= width <= 32, so the
        // shift is in range and lo + offset keeps the top bit set.
        let lo = 1u64 << (self.width - 1);
        GenPoly::from_koopman(self.width, lo + offset).expect("top bit set by construction")
    }

    /// Iterates generators at offsets `start..end` of the enumeration
    /// order — the resumable work-unit primitive: any contiguous slice of
    /// the space can be (re)scanned independently of the rest, so a
    /// sharded survey can partition `0..total()` into ranges and replay
    /// any shard bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > total()`.
    pub fn iter_range(&self, start: u64, end: u64) -> impl Iterator<Item = GenPoly> + '_ {
        assert!(start <= end, "range start {start} past end {end}");
        assert!(end <= self.total(), "range end {end} outside the space");
        (start..end).map(move |offset| self.nth(offset))
    }

    /// Iterates one representative per reciprocal pair (the member whose
    /// Koopman value is numerically smallest; palindromes represent
    /// themselves).
    pub fn iter_canonical(&self) -> impl Iterator<Item = GenPoly> + '_ {
        self.iter_all()
            .filter(|g| g.koopman() <= g.reciprocal().koopman())
    }
}

/// A polynomial that survived an HD filter, with its factorization class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Survivor {
    /// The surviving generator.
    pub poly: GenPoly,
    /// Its irreducible-factorization signature (the paper's `{d1,..,dk}`).
    pub class: String,
}

/// Exhaustively finds every canonical polynomial of `width` bits with
/// `HD ≥ target_hd` at `data_len`, in ascending Koopman order.
///
/// This is the paper's full search, run on spaces small enough to finish
/// on a laptop (8 and 16 bits in the experiments; width ≤ 20 is sensible).
///
/// # Errors
///
/// Propagates filter errors.
pub fn exhaustive_search(width: u32, data_len: u32, target_hd: u32) -> Result<Vec<Survivor>> {
    // One workspace for the whole scan: rebinding keeps allocations.
    let mut ws = SyndromeWorkspace::new();
    let mut out = Vec::new();
    for g in PolySpace::new(width).iter_canonical() {
        if hd_filter_in(&mut ws, &g, data_len, target_hd)?.passed() {
            let class = factor(g.to_poly()).signature().to_string();
            out.push(Survivor { poly: g, class });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_counts() {
        let s = PolySpace::new(8);
        assert_eq!(s.total(), 128);
        assert_eq!(s.distinct(), 72);
        assert_eq!(s.iter_all().count(), 128);
        assert_eq!(s.iter_canonical().count(), 72);
        let s16 = PolySpace::new(16);
        assert_eq!(s16.distinct(), 16_512);
    }

    #[test]
    fn range_iteration_partitions_the_space() {
        // Any partition of 0..total into contiguous ranges re-yields
        // iter_all exactly — the resumable-shard invariant.
        let s = PolySpace::new(9);
        let all: Vec<u64> = s.iter_all().map(|g| g.koopman()).collect();
        for shards in [1u64, 3, 7, 16] {
            let chunk = s.total().div_ceil(shards);
            let mut rebuilt = Vec::new();
            for i in 0..shards {
                let start = i * chunk;
                let end = ((i + 1) * chunk).min(s.total());
                rebuilt.extend(s.iter_range(start, end).map(|g| g.koopman()));
            }
            assert_eq!(rebuilt, all, "{shards} shards");
        }
        assert_eq!(s.nth(0).koopman(), 1 << 8);
        assert_eq!(s.nth(s.total() - 1).koopman(), (1 << 9) - 1);
        assert_eq!(s.iter_range(5, 5).count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the space")]
    fn nth_out_of_range_panics() {
        let s = PolySpace::new(8);
        let _ = s.nth(s.total());
    }

    #[test]
    fn canonical_members_reconstruct_the_space() {
        // Every polynomial is either canonical or the reciprocal of a
        // canonical one.
        let s = PolySpace::new(8);
        let canon: std::collections::HashSet<u64> =
            s.iter_canonical().map(|g| g.koopman()).collect();
        for g in s.iter_all() {
            assert!(
                canon.contains(&g.koopman()) || canon.contains(&g.reciprocal().koopman()),
                "{g}"
            );
        }
    }

    #[test]
    fn exhaustive_8bit_search_matches_ground_truth() {
        // Full 8-bit space at 16 data bits, HD >= 4, against the
        // exhaustive spectrum evaluator.
        let survivors = exhaustive_search(8, 16, 4).unwrap();
        let expect: Vec<u64> = PolySpace::new(8)
            .iter_canonical()
            .filter(|g| crate::spectrum::hd_exhaustive(g, 16).unwrap() >= 4)
            .map(|g| g.koopman())
            .collect();
        let got: Vec<u64> = survivors.iter().map(|s| s.poly.koopman()).collect();
        assert_eq!(got, expect);
        assert!(!survivors.is_empty());
        // Every survivor carries a well-formed class signature.
        for s in &survivors {
            assert!(s.class.starts_with('{') && s.class.ends_with('}'));
        }
    }

    #[test]
    fn hd6_survivors_all_divisible_by_x_plus_1() {
        // The paper's headline structural finding, checked exhaustively on
        // the 8-bit space at n = 4 (the longest length where 8-bit
        // generators still reach HD 6): every survivor has the parity
        // factor. (At n = 2, odd-HD generators without x+1 also clear the
        // HD >= 6 bar with HD = 7 — the claim is specific to HD = 6.)
        let survivors = exhaustive_search(8, 4, 6).unwrap();
        assert!(!survivors.is_empty(), "some 8-bit polys reach HD 6 at n=4");
        for s in &survivors {
            assert!(
                s.poly.divisible_by_x_plus_1(),
                "{} reaches HD6 without x+1",
                s.poly
            );
            assert_eq!(crate::spectrum::hd_exhaustive(&s.poly, 4).unwrap(), 6);
        }
    }
}
