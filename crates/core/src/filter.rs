//! The paper's §4.1 filtering machinery, faithfully reproduced.
//!
//! The exhaustive search was made tractable by four techniques, each
//! implemented here so the experiment harness can measure its effect:
//!
//! 1. **Filtering, not weighing** — decide `HD > target?` without exact
//!    weights ([`hd_filter`]).
//! 2. **Early bailout** — stop a weight evaluation at the first
//!    undetectable pattern ([`enumerative::check`] with
//!    `early_bailout = true` vs a full count).
//! 3. **FCS-bits-first ordering** — try error patterns touching the FCS
//!    field first, because most rejected polynomials have an early
//!    counterexample there ([`enumerative::EnumOrder::FcsFirst`]).
//! 4. **Increasing-length staged filtering** — filter the population at a
//!    short length before re-filtering survivors at longer lengths
//!    ([`StagedFilter`]); **inverse filtering** reuses the early-out
//!    evaluator to certify upper length bounds ([`certify_hd_absent`]).

use crate::syndrome::syndrome_table;
use crate::workspace::SyndromeWorkspace;
use crate::Result;
use gf2poly::GenPoly;

/// Verdict of an HD filter on one polynomial at one length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// No error pattern of weight `< target_hd` is undetectable: the
    /// polynomial achieves at least the target HD at this length.
    Pass,
    /// An undetectable pattern of this weight exists (`HD ≤ weight`).
    FailAt(u32),
}

impl FilterVerdict {
    /// True for [`FilterVerdict::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, FilterVerdict::Pass)
    }
}

/// The fast filter: does `g` achieve `HD ≥ target_hd` for `data_len`-bit
/// data words? Runs the weight-existence checks in ascending weight order
/// — exactly the paper's "filter 2-, 3-, 4-bit weights first" strategy,
/// with the syndrome-map evaluator in place of pattern enumeration.
///
/// # Errors
///
/// Propagates budget errors from extreme `target_hd`/`data_len`
/// combinations (not reachable for the paper's parameters).
pub fn hd_filter(g: &GenPoly, data_len: u32, target_hd: u32) -> Result<FilterVerdict> {
    hd_filter_in(&mut SyndromeWorkspace::new(), g, data_len, target_hd)
}

/// [`hd_filter`] over a caller-held workspace: syndromes, the position
/// index and `d_min` knowledge accumulated by earlier evaluations of the
/// same polynomial (any length, any stage) are reused, and survive for
/// later ones. This is the filter the survey campaign workers and the
/// staged/breakpoint drivers run.
///
/// # Errors
///
/// As [`hd_filter`].
pub fn hd_filter_in(
    ws: &mut SyndromeWorkspace,
    g: &GenPoly,
    data_len: u32,
    target_hd: u32,
) -> Result<FilterVerdict> {
    let codeword_len = data_len + g.width();
    for w in 2..target_hd {
        if g.divisible_by_x_plus_1() && w % 2 == 1 {
            continue;
        }
        if ws.exists_weight(g, w, codeword_len)? {
            return Ok(FilterVerdict::FailAt(w));
        }
    }
    Ok(FilterVerdict::Pass)
}

/// Paper-literal pattern enumeration, for the ablation experiments.
pub mod enumerative {
    use super::*;

    /// Enumeration order over candidate error patterns.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum EnumOrder {
        /// Lexicographic over bit positions — the naive baseline.
        Natural,
        /// Patterns with one, then two, bits inside the FCS field first —
        /// the paper's "exploiting common behavior of error detection
        /// failures" heuristic, then the remainder.
        FcsFirst,
    }

    /// Result of an enumerative weight check.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct EnumOutcome {
        /// Weight that was checked.
        pub weight: u32,
        /// Number of candidate patterns evaluated before the verdict.
        pub patterns_tested: u64,
        /// Number of undetectable patterns found (1 with early bailout and
        /// a hit; the full count without early bailout).
        pub undetected: u64,
    }

    impl EnumOutcome {
        /// True when at least one undetectable pattern was found.
        pub fn found(&self) -> bool {
            self.undetected > 0
        }
    }

    /// Checks weight-`k` error patterns (k in 2..=4) over an
    /// `data_len + r` codeword by direct enumeration, in the requested
    /// order, optionally bailing out at the first undetectable pattern.
    ///
    /// Positions are indexed from the end of the codeword (position `i`
    /// carries `x^i`), so the FCS field occupies positions `0..r`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `2..=4` (the paper's filter range).
    pub fn check(
        g: &GenPoly,
        data_len: u32,
        k: u32,
        order: EnumOrder,
        early_bailout: bool,
    ) -> EnumOutcome {
        assert!((2..=4).contains(&k), "enumerative filter covers k = 2..=4");
        let r = g.width();
        let l = data_len + r;
        let syn = syndrome_table(g, l as usize);
        let mut outcome = EnumOutcome {
            weight: k,
            patterns_tested: 0,
            undetected: 0,
        };
        match order {
            EnumOrder::Natural => {
                enum_subsets(&syn, k as usize, 0, l, &mut outcome, early_bailout, |acc| {
                    acc == 0
                });
            }
            EnumOrder::FcsFirst => {
                // A pattern with j bits inside the FCS field (positions
                // < r) and k-j data bits is undetectable exactly when the
                // XOR of the data-bit syndromes has popcount j with all
                // bits below r — the FCS bits are then *determined*, so
                // each qualifying data subset is one pattern. Trying
                // j = 1, then 2 first is the paper's heuristic; it turns
                // a C(n, k)-shaped search into a C(n, k-1)-shaped one
                // whenever a mostly-data pattern exists.
                let fcs_mask: u64 = if r == 64 { u64::MAX } else { (1 << r) - 1 };
                for j in [1u32, 2, 0, 3] {
                    if j > k || (j == k && j > 0) {
                        // Pure-FCS patterns have their own bits as the
                        // (nonzero) syndrome: never undetectable.
                        continue;
                    }
                    enum_subsets(
                        &syn,
                        (k - j) as usize,
                        r,
                        l,
                        &mut outcome,
                        early_bailout,
                        |acc| acc & !fcs_mask == 0 && acc.count_ones() == j,
                    );
                    if early_bailout && outcome.undetected > 0 {
                        return outcome;
                    }
                }
            }
        }
        outcome
    }

    /// Enumerates all `k`-subsets of positions `[lo, hi)` in ascending
    /// lexicographic order, testing the XOR of their syndromes with
    /// `is_hit`; returns early when bailing out on a hit.
    fn enum_subsets(
        syn: &[u64],
        k: usize,
        lo: u32,
        hi: u32,
        out: &mut EnumOutcome,
        bail: bool,
        is_hit: impl Fn(u64) -> bool + Copy,
    ) {
        if (hi - lo) < k as u32 {
            return;
        }
        rec(syn, k, lo, hi, 0, out, bail, is_hit);
    }

    #[allow(clippy::too_many_arguments)]
    fn rec(
        syn: &[u64],
        remaining: usize,
        lo: u32,
        hi: u32,
        acc: u64,
        out: &mut EnumOutcome,
        bail: bool,
        is_hit: impl Fn(u64) -> bool + Copy,
    ) -> bool {
        if remaining == 0 {
            out.patterns_tested += 1;
            if is_hit(acc) {
                out.undetected += 1;
                if bail {
                    return true;
                }
            }
            return false;
        }
        // Ascending positions; leave room for the remaining - 1 picks.
        for p in lo..=(hi - remaining as u32) {
            if rec(
                syn,
                remaining - 1,
                p + 1,
                hi,
                acc ^ syn[p as usize],
                out,
                bail,
                is_hit,
            ) {
                return true;
            }
        }
        false
    }
}

/// One stage of a [`StagedFilter`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStats {
    /// Data-word length filtered at.
    pub data_len: u32,
    /// Candidates entering the stage.
    pub candidates_in: usize,
    /// Survivors leaving the stage.
    pub survivors_out: usize,
}

/// The paper's increasing-length staged filter: candidates are screened at
/// a short length first ("evaluating polynomials for HD>4 at length 1024
/// is almost 17,500 times faster than at length 12112 bits"), and only
/// survivors proceed to longer, costlier stages. HD can only shrink with
/// length, so no true survivor is ever lost.
#[derive(Debug, Clone)]
pub struct StagedFilter {
    lengths: Vec<u32>,
    target_hd: u32,
}

impl StagedFilter {
    /// Builds a staged filter over ascending data-word lengths.
    ///
    /// # Panics
    ///
    /// Panics if `lengths` is empty or not strictly ascending.
    pub fn new(lengths: Vec<u32>, target_hd: u32) -> StagedFilter {
        assert!(!lengths.is_empty(), "at least one stage required");
        assert!(
            lengths.windows(2).all(|w| w[0] < w[1]),
            "stage lengths must be strictly ascending"
        );
        StagedFilter { lengths, target_hd }
    }

    /// The stage lengths.
    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    /// Runs the pipeline, returning the final survivors and per-stage
    /// funnel statistics.
    ///
    /// Candidates walk the stages polynomial-major over one shared
    /// workspace: a candidate's short-length filter work (syndromes,
    /// index, certified-clean `d_min` ranges) is exactly a prefix of its
    /// longer-length work, so later stages only pay the *extension* —
    /// the staged funnel's re-filtering becomes nearly free. The
    /// survivor set and per-stage funnel statistics are identical to the
    /// stage-major formulation (a candidate reaches stage `k+1` exactly
    /// when it survives stage `k`, in input order either way).
    ///
    /// # Errors
    ///
    /// Propagates filter errors (budget exhaustion).
    pub fn run(
        &self,
        candidates: impl IntoIterator<Item = GenPoly>,
    ) -> Result<(Vec<GenPoly>, Vec<StageStats>)> {
        let mut stats: Vec<StageStats> = self
            .lengths
            .iter()
            .map(|&len| StageStats {
                data_len: len,
                candidates_in: 0,
                survivors_out: 0,
            })
            .collect();
        let mut ws = SyndromeWorkspace::new();
        let mut survivors = Vec::new();
        for g in candidates {
            let mut passed_all = true;
            for (stage, &len) in self.lengths.iter().enumerate() {
                stats[stage].candidates_in += 1;
                if hd_filter_in(&mut ws, &g, len, self.target_hd)?.passed() {
                    stats[stage].survivors_out += 1;
                } else {
                    passed_all = false;
                    break;
                }
            }
            if passed_all {
                survivors.push(g);
            }
        }
        Ok((survivors, stats))
    }
}

/// Inverse filtering: certifies that **none** of `polys` achieves
/// `HD ≥ hd` at `data_len` — the paper's method for establishing that "no
/// possible polynomials of any class" reach a given HD beyond a length.
/// Returns `Ok(None)` when the bound holds, or the first counterexample.
///
/// # Errors
///
/// Propagates filter errors.
pub fn certify_hd_absent(polys: &[GenPoly], data_len: u32, hd: u32) -> Result<Option<GenPoly>> {
    for g in polys {
        if hd_filter(g, data_len, hd)?.passed() {
            return Ok(Some(*g));
        }
    }
    Ok(None)
}

/// Locates the largest data-word length with `HD ≥ hd` by the paper's
/// doubling-then-bisect strategy over early-out evaluations, counting
/// evaluator calls (the quantity the §4.1 anecdote optimizes). The answer
/// equals `HdProfile::max_len_for_hd`; this exists to *measure* the search
/// strategy.
///
/// Returns `(max_len, evaluations)`; `max_len` is clamped to `hi`.
///
/// # Errors
///
/// Propagates filter errors.
pub fn breakpoint_search(g: &GenPoly, hd: u32, hi: u32) -> Result<(u32, u64)> {
    breakpoint_search_in(&mut SyndromeWorkspace::new(), g, hd, hi)
}

/// [`breakpoint_search`] over a caller-held workspace. The evaluation
/// *count* is identical to the scratch strategy (same doubling+bisect
/// schedule, same verdicts), but each evaluation resumes the workspace's
/// certified-clean `d_min` ranges instead of re-deriving overlapping
/// syndrome prefixes — the whole search costs about one scan to the
/// final breakpoint.
///
/// # Errors
///
/// Propagates filter errors.
pub fn breakpoint_search_in(
    ws: &mut SyndromeWorkspace,
    g: &GenPoly,
    hd: u32,
    hi: u32,
) -> Result<(u32, u64)> {
    let mut evals = 0u64;
    let mut check = |len: u32, evals: &mut u64| -> Result<bool> {
        *evals += 1;
        Ok(hd_filter_in(ws, g, len, hd)?.passed())
    };
    // Doubling phase from a short length.
    let mut lo = 8u32;
    if !check(lo, &mut evals)? {
        return Ok((0, evals));
    }
    let mut cur = lo * 2;
    while cur < hi && check(cur, &mut evals)? {
        lo = cur;
        cur *= 2;
    }
    let mut hi_bound = cur.min(hi);
    if cur >= hi && check(hi, &mut evals)? {
        return Ok((hi, evals));
    }
    // Bisect (lo passes, hi_bound fails).
    while hi_bound - lo > 1 {
        let mid = lo + (hi_bound - lo) / 2;
        if check(mid, &mut evals)? {
            lo = mid;
        } else {
            hi_bound = mid;
        }
    }
    Ok((lo, evals))
}

#[cfg(test)]
mod tests {
    use super::enumerative::{check, EnumOrder};
    use super::*;
    use crate::dmin::exists_weight;

    fn g32(koopman: u64) -> GenPoly {
        GenPoly::from_koopman(32, koopman).unwrap()
    }

    #[test]
    fn fast_filter_verdicts_match_paper_mtu_results() {
        // At the Ethernet MTU: 802.3 fails HD=5 (it is HD=4); BA0DC66B
        // passes HD=6.
        assert_eq!(
            hd_filter(&g32(0x82608EDB), 12_112, 5).unwrap(),
            FilterVerdict::FailAt(4)
        );
        assert!(hd_filter(&g32(0xBA0DC66B), 12_112, 6).unwrap().passed());
        // The misprinted Castagnoli constant fails HD=6 at MTU.
        assert_eq!(
            hd_filter(&g32(0xFB567D89), 12_112, 6).unwrap(),
            FilterVerdict::FailAt(4)
        );
    }

    #[test]
    fn enumerative_matches_fast_filter_small() {
        // Small CRC-8 cases where full enumeration is cheap.
        for koopman in [0x83u64, 0x97, 0xEA] {
            let g = GenPoly::from_koopman(8, koopman).unwrap();
            for n in [6u32, 10, 14] {
                for k in 2..=4 {
                    let full = check(&g, n, k, EnumOrder::Natural, false);
                    let fast = exists_weight(&g, k, n + 8).unwrap();
                    assert_eq!(full.found(), fast, "poly {koopman:#x} n={n} k={k}");
                    // And the spectrum agrees on the exact count.
                    let spec = crate::spectrum::spectrum(&g, n).unwrap();
                    assert_eq!(full.undetected as u128, spec.count(k));
                }
            }
        }
    }

    #[test]
    fn enumeration_orders_agree_on_counts() {
        // The FCS-first phases partition the pattern space differently
        // (data subsets with syndrome-popcount tests instead of explicit
        // FCS positions) but must find exactly the same undetectable
        // patterns.
        let g = GenPoly::from_koopman(16, 0xC86C).unwrap(); // CRC-16/ARC poly
        for n in [24u32, 40] {
            for k in [2u32, 3, 4] {
                let nat = check(&g, n, k, EnumOrder::Natural, false);
                let fcs = check(&g, n, k, EnumOrder::FcsFirst, false);
                assert_eq!(nat.undetected, fcs.undetected, "n={n} k={k}");
                // And the popcount formulation evaluates fewer subsets.
                assert!(fcs.patterns_tested <= nat.patterns_tested, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn fcs_first_finds_hits_much_sooner_on_rejected_polys() {
        // The paper's heuristic: most rejected polynomials have an early
        // undetectable pattern with 1-2 FCS bits; trying those first
        // collapses a C(n,k) search into a C(n,k-1) one.
        let g = GenPoly::from_koopman(16, 0x8810).unwrap(); // CCITT
                                                            // CCITT has HD=4 at 1024 bits: weight-4 patterns exist.
        let nat = check(&g, 1024, 4, EnumOrder::Natural, true);
        let fcs = check(&g, 1024, 4, EnumOrder::FcsFirst, true);
        assert!(nat.found() && fcs.found());
        assert!(
            fcs.patterns_tested * 5 < nat.patterns_tested,
            "FCS-first {} vs natural {}",
            fcs.patterns_tested,
            nat.patterns_tested
        );
    }

    #[test]
    fn early_bailout_tests_no_more_patterns() {
        let g = GenPoly::from_koopman(8, 0x83).unwrap();
        let full = check(&g, 25, 4, EnumOrder::Natural, false);
        let bail = check(&g, 25, 4, EnumOrder::Natural, true);
        assert!(full.found() && bail.found());
        assert!(bail.patterns_tested <= full.patterns_tested);
        assert_eq!(bail.undetected, 1);
    }

    #[test]
    fn staged_filter_funnel_is_monotone_and_sound() {
        // All 8-bit generators, target HD >= 4, staged 16 -> 32 -> 64.
        let polys: Vec<GenPoly> = (0x80u64..0x100)
            .filter_map(|k| GenPoly::from_koopman(8, k).ok())
            .collect();
        let staged = StagedFilter::new(vec![16, 32, 64], 4);
        let (survivors, stats) = staged.run(polys.iter().copied()).unwrap();
        assert_eq!(stats.len(), 3);
        assert!(stats
            .windows(2)
            .all(|w| w[0].survivors_out == w[1].candidates_in));
        // Soundness: survivors equal a direct filter at the final length.
        let direct: Vec<GenPoly> = polys
            .iter()
            .copied()
            .filter(|g| hd_filter(g, 64, 4).unwrap().passed())
            .collect();
        assert_eq!(survivors, direct);
    }

    #[test]
    fn inverse_filter_certifies_upper_bounds() {
        // No 8-bit polynomial keeps HD>=5 at 100 data bits (each has at
        // most 9 nonzero coefficients; exhaustive check).
        let polys: Vec<GenPoly> = (0x80u64..0x100)
            .filter_map(|k| GenPoly::from_koopman(8, k).ok())
            .collect();
        assert_eq!(certify_hd_absent(&polys, 100, 5).unwrap(), None);
        // But HD>=4 at 20 bits does have representatives.
        assert!(certify_hd_absent(&polys, 20, 4).unwrap().is_some());
    }

    #[test]
    fn breakpoint_search_agrees_with_profile() {
        let g = g32(0x82608EDB);
        let (len, evals) = breakpoint_search(&g, 5, 65_536).unwrap();
        assert_eq!(len, 2_974, "802.3 keeps HD=5 through 2974 bits");
        assert!(evals < 40, "doubling+bisect needs few evaluations");
    }
}
