//! HD-vs-length profiles: one Table 1 row / Figure 1 curve per generator.
//!
//! A profile is assembled from `d_min` values computed in ascending weight
//! order, each search capped at the running minimum (a `d_min(w)` at or
//! above `min_{w'<w} d_min(w')` can never be the smallest weight fitting a
//! codeword, so nothing above the cap matters). The caps keep the whole
//! Table 1 computation in seconds — the expensive scans are exactly the
//! paper's hard confirmations, e.g. proving `0xD419CC15` admits no weight-4
//! multiple below its order 65537 (the paper's "HD=5 up to almost 64K").

use crate::workspace::SyndromeWorkspace;
use crate::{Error, Result};
use gf2poly::GenPoly;

/// Default highest weight explored by [`HdProfile::compute`]. Table 1's
/// smallest lengths reach HD=15, and odd weights are free for parity
/// polynomials, so 16 covers every row of the paper while keeping the
/// meet-in-the-middle tails cheap.
pub const DEFAULT_MAX_WEIGHT: u32 = 16;

/// An HD-vs-length profile for one generator over `1..=max_len` data bits.
///
/// ```
/// use crc_hd::{HdProfile, GenPoly};
/// let g = GenPoly::from_koopman(32, 0x8F6E37A0).unwrap(); // CRC-32C
/// let p = HdProfile::compute(&g, 6000).unwrap();
/// assert_eq!(p.hd_at(5243), Some(6));
/// assert_eq!(p.hd_at(5244), Some(4));
/// assert_eq!(p.max_len_for_hd(6), Some(5243));
/// ```
#[derive(Debug, Clone)]
pub struct HdProfile {
    g: GenPoly,
    max_len: u32,
    order: u128,
    /// `(w, d_min(w))` for every weight whose minimal multiple matters,
    /// ascending in `w`; `d_min` values are strictly decreasing.
    dmins: Vec<(u32, u32)>,
    max_weight_explored: u32,
}

/// One constant-HD band of a profile: `hd` holds for data-word lengths
/// `from..=to` (`hd = None` means "above every explored weight").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HdBand {
    /// The Hamming distance over the band; `None` when all explored
    /// weights are absent (HD exceeds the exploration limit).
    pub hd: Option<u32>,
    /// First data-word length of the band (bits).
    pub from: u32,
    /// Last data-word length of the band (bits).
    pub to: u32,
}

impl HdProfile {
    /// Computes a profile exploring weights up to [`DEFAULT_MAX_WEIGHT`].
    ///
    /// # Errors
    ///
    /// [`Error::BadLength`] for a zero `max_len`; propagates
    /// [`Error::BudgetExceeded`] from extreme parameter combinations.
    pub fn compute(g: &GenPoly, max_len: u32) -> Result<HdProfile> {
        HdProfile::compute_up_to_weight(g, max_len, DEFAULT_MAX_WEIGHT)
    }

    /// Computes a profile exploring weights `2..=max_weight` (one-shot
    /// convenience over [`HdProfile::compute_in`]).
    ///
    /// # Errors
    ///
    /// As [`HdProfile::compute`].
    pub fn compute_up_to_weight(g: &GenPoly, max_len: u32, max_weight: u32) -> Result<HdProfile> {
        HdProfile::compute_in(&mut SyndromeWorkspace::new(), g, max_len, max_weight)
    }

    /// Computes a profile through a caller-held workspace: `d_min`
    /// searches resume whatever earlier stages (an HD pre-filter, a
    /// shorter profile) already certified, and everything this profile
    /// learns stays behind for later stages — in particular, a
    /// subsequent `weights234` on the same workspace skips every degree
    /// this profile proved clean.
    ///
    /// # Errors
    ///
    /// As [`HdProfile::compute`].
    pub fn compute_in(
        ws: &mut SyndromeWorkspace,
        g: &GenPoly,
        max_len: u32,
        max_weight: u32,
    ) -> Result<HdProfile> {
        compute_with(g, max_len, max_weight, ws.order(g), |w, cap| {
            ws.dmin(g, w, cap)
        })
    }

    /// Reconstructs a profile from previously computed parts — the
    /// deserialization half of a checkpointed survey: a worker computes a
    /// profile once, persists `(order, dmins, max_weight_explored)` in a
    /// survivor log, and any later process rebuilds the identical profile
    /// without re-running the `d_min` searches.
    ///
    /// `max_len` must not exceed the `max_len` of the original compute
    /// call: `compute` censors its `d_min` searches at the original
    /// degree cap, so a weight whose minimal multiple lies above that
    /// cap is *absent* from the parts, and querying a rebuilt profile
    /// beyond the explored range would silently over-report HD there.
    /// (The parts themselves do not record the original cap, so this
    /// precondition cannot be checked here — callers that persist parts
    /// must persist the explored range alongside them, as the survey's
    /// survivor records do via their reference length.) Shrinking
    /// `max_len` is always safe.
    ///
    /// # Errors
    ///
    /// [`Error::BadLength`] for `max_len` outside `1..=2^30`;
    /// [`Error::BadPolynomial`] when the parts violate the profile
    /// invariants (weights not strictly ascending from ≥ 2, `d_min`
    /// values not strictly descending, or a weight above
    /// `max_weight_explored`).
    pub fn from_parts(
        g: &GenPoly,
        max_len: u32,
        order: u128,
        dmins: Vec<(u32, u32)>,
        max_weight_explored: u32,
    ) -> Result<HdProfile> {
        if max_len == 0 || max_len > (1 << 30) {
            return Err(Error::BadLength(format!(
                "max_len {max_len} outside 1..=2^30"
            )));
        }
        for pair in dmins.windows(2) {
            if pair[0].0 >= pair[1].0 || pair[0].1 <= pair[1].1 {
                return Err(Error::BadPolynomial(format!(
                    "profile parts out of order: ({}, {}) then ({}, {})",
                    pair[0].0, pair[0].1, pair[1].0, pair[1].1
                )));
            }
        }
        if let Some(&(w, _)) = dmins.first() {
            if w < 2 {
                return Err(Error::BadPolynomial(format!("profile weight {w} < 2")));
            }
        }
        if let Some(&(w, _)) = dmins.last() {
            if w > max_weight_explored {
                return Err(Error::BadPolynomial(format!(
                    "profile weight {w} above explored limit {max_weight_explored}"
                )));
            }
        }
        Ok(HdProfile {
            g: *g,
            max_len,
            order,
            dmins,
            max_weight_explored,
        })
    }

    /// The generator this profile describes.
    pub fn generator(&self) -> &GenPoly {
        &self.g
    }

    /// Largest data-word length covered.
    pub fn max_len(&self) -> u32 {
        self.max_len
    }

    /// The multiplicative order of `x` (degree of the smallest weight-2
    /// multiple), even when it lies beyond `max_len`.
    pub fn order(&self) -> u128 {
        self.order
    }

    /// Highest weight explored.
    pub fn max_weight_explored(&self) -> u32 {
        self.max_weight_explored
    }

    /// The `(w, d_min(w))` pairs that shape the profile (ascending `w`,
    /// strictly descending `d_min`).
    pub fn dmins(&self) -> &[(u32, u32)] {
        &self.dmins
    }

    /// The Hamming distance at data-word length `n`, or `None` when HD
    /// exceeds every explored weight.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds `max_len`.
    pub fn hd_at(&self, n: u32) -> Option<u32> {
        assert!(
            n >= 1 && n <= self.max_len,
            "length {n} out of profile range"
        );
        let d = n + self.g.width() - 1;
        // dmins is ascending in w and descending in d_min: the first entry
        // whose d_min fits is the minimum fitting weight.
        self.dmins
            .iter()
            .rev()
            .take_while(|&&(_, dm)| dm <= d)
            .last()
            .map(|&(w, _)| w)
    }

    /// The largest data-word length at which `HD ≥ hd` (equivalently: all
    /// error patterns of fewer than `hd` bits are detectable), or `None`
    /// if even length 1 fails; `Some(max_len)` means "holds through the
    /// whole profiled range".
    pub fn max_len_for_hd(&self, hd: u32) -> Option<u32> {
        let r = self.g.width();
        // Smallest d_min over weights < hd bounds the usable length.
        let limit = self
            .dmins
            .iter()
            .filter(|&&(w, _)| w < hd)
            .map(|&(_, d)| d)
            .min();
        match limit {
            None => Some(self.max_len),
            Some(d) if d <= r => None,
            Some(d) => Some((d - r).min(self.max_len)),
        }
    }

    /// The constant-HD bands over `1..=max_len`, ascending in length —
    /// one Table 1 column.
    pub fn bands(&self) -> Vec<HdBand> {
        let r = self.g.width();
        let mut out = Vec::new();
        // dmins ascend in w and descend in d_min: the HD = w band runs
        // from where the weight-w multiple first fits down-length until
        // the next (smaller-w, larger-d_min) multiple takes over.
        let mut next_end = self.max_len;
        for &(w, d) in &self.dmins {
            let from = d.saturating_sub(r - 1).max(1);
            if from > next_end {
                continue; // band lies entirely above the profiled range
            }
            out.push(HdBand {
                hd: Some(w),
                from,
                to: next_end,
            });
            if from == 1 {
                out.reverse();
                return out;
            }
            next_end = from - 1;
        }
        out.push(HdBand {
            hd: None,
            from: 1,
            to: next_end,
        });
        out.reverse();
        out
    }
}

/// The profile cap chain, generic over the `d_min` provider — shared by
/// the workspace-backed [`HdProfile::compute_in`] and the scratch
/// [`crate::reference::profile`], so both assemble profiles through
/// identical control flow. Each weight's search is capped one below the
/// running minimum: only strictly smaller degrees can change any HD
/// value.
pub(crate) fn compute_with(
    g: &GenPoly,
    max_len: u32,
    max_weight: u32,
    order: u128,
    mut dmin_at: impl FnMut(u32, u32) -> Result<Option<u32>>,
) -> Result<HdProfile> {
    if max_len == 0 || max_len > (1 << 30) {
        return Err(Error::BadLength(format!(
            "max_len {max_len} outside 1..=2^30"
        )));
    }
    let r = g.width();
    let degree_cap = max_len
        .checked_add(r - 1)
        .ok_or_else(|| Error::BadLength("length overflow".into()))?;
    let mut dmins: Vec<(u32, u32)> = Vec::new();
    // Running minimum of found d_min values; only degrees strictly
    // below it can change any HD value.
    let mut best = degree_cap + 1;
    if order <= degree_cap as u128 {
        best = order as u32;
        dmins.push((2, best));
    }
    let skip_odd = g.divisible_by_x_plus_1();
    let mut w = 3;
    while w <= max_weight && best > r {
        if skip_odd && w % 2 == 1 {
            w += 1;
            continue;
        }
        let cap = best - 1;
        if cap < w - 1 {
            break;
        }
        if let Some(d) = dmin_at(w, cap)? {
            debug_assert!(d < best);
            best = d;
            dmins.push((w, d));
        }
        w += 1;
    }
    Ok(HdProfile {
        g: *g,
        max_len,
        order,
        dmins,
        max_weight_explored: max_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g32(koopman: u64) -> GenPoly {
        GenPoly::from_koopman(32, koopman).unwrap()
    }

    #[test]
    fn profile_802_3_matches_paper_table1() {
        // Table 1: HD=8 to 91, 7 to 171, 6 to 268, 5 to 2974, 4 to 91607.
        let g = g32(0x82608EDB);
        let p = HdProfile::compute(&g, 4000).unwrap();
        assert_eq!(p.max_len_for_hd(8), Some(91));
        assert_eq!(p.max_len_for_hd(7), Some(171));
        assert_eq!(p.max_len_for_hd(6), Some(268));
        assert_eq!(p.max_len_for_hd(5), Some(2974));
        assert_eq!(p.hd_at(2974), Some(5));
        assert_eq!(p.hd_at(2975), Some(4));
        assert_eq!(p.hd_at(3999), Some(4));
        // The MTU-relevant claim: HD=4 at 12112 needs a longer profile —
        // covered by the Table 1 experiment binary.
    }

    #[test]
    fn profile_ba0dc66b_matches_paper() {
        // §4.3: HD=6 up to almost 16Kb.
        let g = g32(0xBA0DC66B);
        let p = HdProfile::compute(&g, 20_000).unwrap();
        assert_eq!(p.max_len_for_hd(6), Some(16_360));
        assert_eq!(p.hd_at(12_112), Some(6), "HD=6 at the Ethernet MTU");
        assert_eq!(p.hd_at(16_360), Some(6));
        assert_eq!(p.hd_at(16_361), Some(4));
    }

    #[test]
    fn profile_iscsi_crossover() {
        // The iSCSI polynomial loses HD=6 at 5244 — Koopman's improvement
        // moves that boundary past the MTU.
        let g = g32(0x8F6E37A0);
        let p = HdProfile::compute(&g, 13_000).unwrap();
        assert_eq!(p.max_len_for_hd(6), Some(5_243));
        assert_eq!(p.hd_at(12_112), Some(4), "HD=4 at MTU for CRC-32C");
    }

    #[test]
    fn bands_partition_the_range() {
        let g = g32(0x82608EDB);
        let p = HdProfile::compute(&g, 3000).unwrap();
        let bands = p.bands();
        assert_eq!(bands.first().unwrap().from, 1);
        assert_eq!(bands.last().unwrap().to, 3000);
        for pair in bands.windows(2) {
            assert_eq!(pair[0].to + 1, pair[1].from, "bands must be contiguous");
            let a = pair[0].hd;
            let b = pair[1].hd;
            // HD decreases (None = "very high" sorts above everything).
            match (a, b) {
                (None, Some(_)) => {}
                (Some(x), Some(y)) => assert!(x > y),
                _ => panic!("bands out of order: {a:?} then {b:?}"),
            }
        }
        // And each band's hd matches hd_at inside it.
        for band in &bands {
            assert_eq!(p.hd_at(band.from), band.hd);
            assert_eq!(p.hd_at(band.to), band.hd);
        }
    }

    #[test]
    fn hd_at_agrees_with_exhaustive_spectrum_small_codes() {
        for koopman in [0x83u64, 0x97, 0xEA, 0x9C, 0xFF] {
            let g = GenPoly::from_koopman(8, koopman).unwrap();
            let p = HdProfile::compute(&g, 24).unwrap();
            for n in [1u32, 2, 5, 9, 13, 20, 24] {
                let exhaustive = crate::spectrum::hd_exhaustive(&g, n).unwrap();
                assert_eq!(p.hd_at(n), Some(exhaustive), "poly {koopman:#x} at n={n}");
            }
        }
    }

    #[test]
    fn from_parts_round_trips_a_computed_profile() {
        let g = g32(0x8F6E37A0);
        let p = HdProfile::compute(&g, 6000).unwrap();
        let rebuilt = HdProfile::from_parts(
            &g,
            p.max_len(),
            p.order(),
            p.dmins().to_vec(),
            p.max_weight_explored(),
        )
        .unwrap();
        assert_eq!(rebuilt.bands(), p.bands());
        for n in [1u32, 100, 5243, 5244, 6000] {
            assert_eq!(rebuilt.hd_at(n), p.hd_at(n), "n={n}");
        }
        for hd in 2..=8 {
            assert_eq!(rebuilt.max_len_for_hd(hd), p.max_len_for_hd(hd));
        }
        // A *shorter* max_len re-ranges the same parts (extending past
        // the original compute range is unsound: parts are censored at
        // the original degree cap — see the from_parts docs).
        let shorter = HdProfile::from_parts(&g, 1000, p.order(), p.dmins().to_vec(), 16).unwrap();
        assert_eq!(shorter.hd_at(1000), p.hd_at(1000));
        assert_eq!(shorter.max_len_for_hd(6), Some(1000));
    }

    #[test]
    fn from_parts_rejects_malformed_parts() {
        let g = g32(0x8F6E37A0);
        // Weights must ascend, d_min must descend.
        assert!(HdProfile::from_parts(&g, 100, 7, vec![(4, 10), (3, 5)], 16).is_err());
        assert!(HdProfile::from_parts(&g, 100, 7, vec![(3, 5), (4, 10)], 16).is_err());
        // Weight below 2 or above the explored limit.
        assert!(HdProfile::from_parts(&g, 100, 7, vec![(1, 10)], 16).is_err());
        assert!(HdProfile::from_parts(&g, 100, 7, vec![(4, 10)], 3).is_err());
        // Bad lengths.
        assert!(HdProfile::from_parts(&g, 0, 7, vec![], 16).is_err());
        assert!(HdProfile::from_parts(&g, (1 << 30) + 1, 7, vec![], 16).is_err());
    }

    #[test]
    fn order_reported_even_beyond_range() {
        let g = g32(0x8F6E37A0);
        let p = HdProfile::compute(&g, 100).unwrap();
        assert_eq!(p.order(), 2_147_483_647);
    }

    #[test]
    #[should_panic(expected = "out of profile range")]
    fn hd_at_out_of_range_panics() {
        let g = g32(0x82608EDB);
        let p = HdProfile::compute(&g, 100).unwrap();
        let _ = p.hd_at(101);
    }
}
