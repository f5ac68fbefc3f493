//! Polynomial-space search drivers: exhaustive scans (run in full at 8 and
//! 16 bits, exactly the paper's §4.5 validation strategy) and the sampled
//! factorization-class census that reproduces Table 2 at laptop scale.
//!
//! These are the screen-only drivers: each candidate runs through one HD
//! filter and nothing else. The survey campaign (`crc-survey`) covers the
//! same spaces but also profiles and weighs every survivor, which is why
//! the `exhaustive_small` and `table2` experiments do not route through
//! it. Measured with 2 threads: the 16-bit, HD ≥ 4 @ 1024 scan takes
//! 0.20 s here and 3.8 s as a `survey run` (max weight 4), both finding
//! the same 7,370 survivors; `table2` at 100 samples per class takes
//! 9.6 s (16 CPU-s) here and 58 s (104 CPU-s) as a census over the same
//! 8 classes, which also screens the 32 tap strata.
//!
//! Workers run on `std::thread::scope`, claim work from one atomic
//! counter and return their partial results through their join handles,
//! so results never depend on the thread count.

use crate::filter::hd_filter_in;
use crate::workspace::SyndromeWorkspace;
use crate::Result;
use gf2poly::{factor, wilson, FactorClass, GenPoly, SplitMix64, Z95};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
/// `HD ≥ target_hd` at `data_len`, in parallel.
///
/// This is the paper's full search, run on spaces small enough to finish
/// on a laptop (8 and 16 bits in the experiments; width ≤ 20 is sensible).
///
/// # Errors
///
/// Propagates filter errors.
pub fn exhaustive_search(
    width: u32,
    data_len: u32,
    target_hd: u32,
    threads: usize,
) -> Result<Vec<Survivor>> {
    let space = PolySpace::new(width);
    let lo = 1u64 << (width - 1);
    let total = space.total();
    let next = AtomicU64::new(0);
    // Set by a worker whose filter failed; it publishes nothing (the
    // error travels through the join handle), so Relaxed suffices.
    let stop = AtomicBool::new(false);
    const CHUNK: u64 = 256;
    let worker = || {
        // One workspace per worker: rebinding keeps allocations.
        let mut ws = SyndromeWorkspace::new();
        let mut hits = Vec::new();
        loop {
            let start = next.fetch_add(CHUNK, Ordering::Relaxed);
            if start >= total || stop.load(Ordering::Relaxed) {
                return Ok(hits);
            }
            for offset in start..(start + CHUNK).min(total) {
                let g = GenPoly::from_koopman(width, lo + offset).expect("in range");
                if g.koopman() > g.reciprocal().koopman() {
                    continue; // non-canonical member of a reciprocal pair
                }
                match hd_filter_in(&mut ws, &g, data_len, target_hd) {
                    Ok(v) if v.passed() => {
                        let class = factor(g.to_poly()).signature().to_string();
                        hits.push(Survivor { poly: g, class });
                    }
                    Ok(_) => {}
                    Err(e) => {
                        stop.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                }
            }
        }
    };

    let mut out = Vec::new();
    for partial in run_workers(threads, worker) {
        out.extend(partial?);
    }
    out.sort_by_key(|s| s.poly.koopman());
    Ok(out)
}

/// Runs `threads` (at least one) copies of `worker` on scoped threads and
/// returns their results in spawn order.
fn run_workers<T: Send>(threads: usize, worker: impl FnOnce() -> T + Copy + Send) -> Vec<T> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("search worker"))
            .collect()
    })
}

/// Estimate of a factorization class's HD census by stratified sampling —
/// the laptop-scale substitute for the paper's Table 2 (see "Sampling
/// Table 2" in `docs/REPRODUCTION.md`).
#[derive(Debug, Clone)]
pub struct CensusEstimate {
    /// The sampled class signature.
    pub class: String,
    /// Exact number of polynomials in the class.
    pub class_size: u128,
    /// Samples drawn.
    pub samples: u64,
    /// Samples that passed the HD filter.
    pub hits: u64,
    /// Point estimate of the class's census: `hits/samples × class_size`.
    pub estimate: f64,
    /// 95% Wilson confidence interval on the census (lower, upper).
    pub ci95: (f64, f64),
    /// The passing samples with the lowest sample indices, at most 8 of
    /// them, for spot verification. Like every other field, independent
    /// of the thread count.
    pub examples: Vec<GenPoly>,
}

/// Samples `samples` random members of `class` and filters each for
/// `HD ≥ target_hd` at `data_len`, in parallel. Deterministic for a given
/// `seed` and thread-independent (each sample index derives its own RNG).
///
/// # Errors
///
/// Propagates class-sampling and filter errors.
pub fn class_census(
    class: &FactorClass,
    data_len: u32,
    target_hd: u32,
    samples: u64,
    seed: u64,
    threads: usize,
) -> Result<CensusEstimate> {
    const EXAMPLES: usize = 8;
    let next = AtomicU64::new(0);
    // As in `exhaustive_search`: an early-stop flag that publishes nothing.
    let stop = AtomicBool::new(false);
    // Each worker returns its hit count and its first `EXAMPLES` hits with
    // their sample indices; claimed indices only increase, so those are
    // the worker's lowest-indexed hits.
    let worker = || {
        let mut ws = SyndromeWorkspace::new();
        let mut hits = 0u64;
        let mut examples = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= samples || stop.load(Ordering::Relaxed) {
                return Ok((hits, examples));
            }
            // Per-sample deterministic RNG: thread-schedule independent.
            let mut rng = SplitMix64::new(seed ^ (i.wrapping_mul(0xA076_1D64_78BD_642F)));
            let poly = class
                .sample(&mut rng)
                .expect("class degrees validated at construction");
            let g = GenPoly::from_poly(poly).expect("class members are valid generators");
            match hd_filter_in(&mut ws, &g, data_len, target_hd) {
                Ok(v) if v.passed() => {
                    hits += 1;
                    if examples.len() < EXAMPLES {
                        examples.push((i, g));
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    return Err(e);
                }
            }
        }
    };

    let mut hits = 0u64;
    let mut examples = Vec::new();
    for partial in run_workers(threads, worker) {
        let (h, ex) = partial?;
        hits += h;
        examples.extend(ex);
    }
    examples.sort_by_key(|&(i, _)| i);
    examples.truncate(EXAMPLES);
    let class_size = class.size();
    let (p_hat, lo, hi) = wilson(hits, samples, Z95);
    Ok(CensusEstimate {
        class: class.to_string(),
        class_size,
        samples,
        hits,
        estimate: p_hat * class_size as f64,
        ci95: (lo * class_size as f64, hi * class_size as f64),
        examples: examples.into_iter().map(|(_, g)| g).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::hd_filter;

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
        let survivors = exhaustive_search(8, 16, 4, 2).unwrap();
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
        let survivors = exhaustive_search(8, 4, 6, 2).unwrap();
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

    #[test]
    fn census_is_deterministic_and_bounded() {
        let class = FactorClass::parse("{1,3,4}").unwrap(); // degree-8 class
        let a = class_census(&class, 16, 4, 200, 42, 2).unwrap();
        let b = class_census(&class, 16, 4, 200, 42, 1).unwrap();
        assert_eq!(a.hits, b.hits, "thread count must not change results");
        assert_eq!(a.examples, b.examples, "nor which examples are kept");
        assert!(a.hits <= a.samples);
        assert!(a.ci95.0 <= a.estimate && a.estimate <= a.ci95.1);
        assert!(a.examples.len() as u64 <= a.hits.min(8));
    }

    #[test]
    fn census_cross_checked_by_enumeration() {
        // For a fully enumerable class, the census estimate with total
        // sampling coverage should bracket the true count. Class {1,7}:
        // (x+1) × deg-7 irreducibles = 18 members.
        let class = FactorClass::parse("{1,7}").unwrap();
        assert_eq!(class.size(), 18);
        let true_count = PolySpace::new(8)
            .iter_all()
            .filter(|g| {
                factor(g.to_poly()).signature().to_string() == "{1,7}"
                    && hd_filter(g, 16, 4).unwrap().passed()
            })
            .count() as f64;
        let est = class_census(&class, 16, 4, 2000, 7, 2).unwrap();
        // With 2000 samples of an 18-member class the estimate is tight.
        assert!(
            (est.estimate - true_count).abs() <= 2.0,
            "estimate {} vs true {true_count}",
            est.estimate
        );
    }
}
