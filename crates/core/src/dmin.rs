//! Minimal-degree low-weight multiples: `d_min(w)`.
//!
//! `d_min(w)` is the smallest degree of a weight-`w` multiple of the
//! generator with nonzero constant term. Because every codeword factors
//! uniquely as `x^s · C'(x)` with `C'(0) = 1`, and `C'` is itself a
//! codeword, **every Table 1 breakpoint is a `d_min` value**: a weight-`w`
//! error first becomes undetectable at data-word length
//! `d_min(w) − (r − 1)`, and the largest length guaranteeing `HD ≥ h` is
//! `min_{w < h} d_min(w) − r`.
//!
//! The paper localizes these breakpoints with hours-to-days of filtered
//! enumeration (§4.1 reports 19 days for one HD=6 confirmation). The
//! searches here are exact and run in seconds by working per *top degree*
//! `t` with hash lookups over the syndrome sequence:
//!
//! * `w = 2` — algebraic: `d_min(2)` is the multiplicative order of `x`.
//! * `w = 3` — one probe per `t`: is `1 ⊕ r(t)` a known syndrome?
//! * `w = 4` — `O(t)` probes per `t`: for each `i`, is `1 ⊕ r(t) ⊕ r(i)`
//!   a known syndrome?
//! * `w ≥ 5` — meet-in-the-middle: the interior `w − 2` positions are
//!   split `a + b`; all `a`-subsets live in a multimap keyed by their
//!   syndrome XOR, and `b`-subsets probe it.

use crate::posmap::{pack_positions, packed_disjoint_from, packed_last, XorMultiMap};
use crate::syndrome::SyndromeSeq;
use crate::workspace::SyndromeWorkspace;
use crate::{Error, Result};
use gf2poly::int::binomial;
use gf2poly::GenPoly;

/// Entry budget for the meet-in-the-middle subset map (~16M entries ≈
/// 0.8 GB with table overhead). Searches that would exceed it return
/// [`Error::BudgetExceeded`] instead of thrashing.
const MITM_MAP_BUDGET: u128 = 1 << 24;

/// `d_min(2)`: the multiplicative order of `x` mod `G` (degree of the
/// smallest two-term multiple `x^e + 1`).
///
/// ```
/// use crc_hd::{dmin::dmin2, GenPoly};
/// let g = GenPoly::from_koopman(32, 0xBA0DC66B).unwrap();
/// assert_eq!(dmin2(&g), 114_695); // ⇒ HD=2 begins at length 114,664
/// ```
pub fn dmin2(g: &GenPoly) -> u128 {
    gf2poly::order_of_x(g.to_poly()).expect("generators have a constant term")
}

/// Smallest degree `t ≤ cap` of a weight-`w` multiple of `G` with nonzero
/// constant term, or `None` if no such multiple exists with degree ≤ cap.
///
/// For generators divisible by `x + 1`, odd `w` returns `None` immediately
/// (odd-weight multiples are impossible — the paper's implicit parity bit).
///
/// # Errors
///
/// * [`Error::BadLength`] if `w < 2`.
/// * [`Error::BudgetExceeded`] if a `w ≥ 5` search would need a
///   meet-in-the-middle map beyond the memory budget; retry with a
///   smaller `cap`.
///
/// ```
/// use crc_hd::{dmin::dmin, GenPoly};
/// // 802.3 transitions from HD=5 to HD=4 at data length 2975 (§4.1):
/// // the minimal weight-4 multiple has degree 2975 + 31 = 3006.
/// let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
/// assert_eq!(dmin(&g, 4, 5000).unwrap(), Some(3006));
/// ```
pub fn dmin(g: &GenPoly, w: u32, cap: u32) -> Result<Option<u32>> {
    SyndromeWorkspace::new().dmin(g, w, cap)
}

/// Convenience: does any weight-`w` codeword fit in `codeword_len` bits?
///
/// Equivalent to `d_min(w) ≤ codeword_len − 1`; this is the primitive the
/// §4.1-style filters are built from.
///
/// # Errors
///
/// As [`dmin`].
pub fn exists_weight(g: &GenPoly, w: u32, codeword_len: u32) -> Result<bool> {
    if codeword_len == 0 {
        return Ok(false);
    }
    Ok(dmin(g, w, codeword_len - 1)?.is_some())
}

/// Persistent meet-in-the-middle search state for one weight: the
/// a-subset multimap plus the highest position whose subsets it holds.
///
/// A [`crate::workspace::SyndromeWorkspace`] owns one per weight so the
/// `hd_filter → HdProfile → weights234` funnel extends subset maps
/// incrementally instead of rebuilding them per call; the scratch paths
/// build a throwaway one. Invariant: the map holds exactly the a-subsets
/// of `[1, avail]` for this weight's split.
#[derive(Debug, Clone)]
pub(crate) struct MitmState {
    map: XorMultiMap,
    avail: u32,
}

impl MitmState {
    pub(crate) fn new() -> MitmState {
        MitmState {
            map: XorMultiMap::with_capacity(1024),
            avail: 0,
        }
    }

    /// Forgets every subset (keeping allocations) — called when the
    /// owning workspace rebinds to a new polynomial.
    pub(crate) fn reset(&mut self) {
        self.map.clear();
        self.avail = 0;
    }
}

/// Meet-in-the-middle search for `w ≥ 5`, shared by the workspace and
/// the [`crate::reference`] scratch path. Grows `syn` through the
/// caller's `seq` (the grow-only workspace table, or a fresh scratch
/// one); probes start at degree `max(w-1, probe_from)` — positions below
/// `probe_from` still feed the subset map, but a caller that has already
/// certified `[0, probe_from)` clean skips their probe cost.
pub(crate) fn mitm_scan(
    w: u32,
    cap: u32,
    probe_from: u32,
    syn: &mut Vec<u64>,
    seq: &mut SyndromeSeq,
) -> Result<Option<u32>> {
    mitm_scan_with(w, cap, probe_from, syn, seq, &mut MitmState::new())
}

/// [`mitm_scan`] over caller-owned state. Three properties make resumed
/// state answer-identical to a fresh map:
///
/// * The subset map's contents at position budget `avail` depend only on
///   `(w, avail)` — growing it across calls lands in the same state as
///   one big build.
/// * A persistent map may hold subsets with positions *beyond* the
///   current top degree `t` (from an earlier larger-cap call); probes
///   filter them with [`packed_last`], which is vacuous for fresh maps.
/// * The memory-budget check is analytic — `C(t−1, a)` entries against
///   [`MITM_MAP_BUDGET`] — so whether a `(w, cap)` call errors depends
///   only on those numbers, never on how much state previous calls left
///   behind. (For a fresh map `C(t−1, a)` *is* `map.len()`: the multimap
///   keeps duplicates, so the count is exact even past the polynomial's
///   order.)
pub(crate) fn mitm_scan_with(
    w: u32,
    cap: u32,
    probe_from: u32,
    syn: &mut Vec<u64>,
    seq: &mut SyndromeSeq,
    state: &mut MitmState,
) -> Result<Option<u32>> {
    let interior = (w - 2) as usize;
    // Balance the split, but cap the stored side at 7 positions (the
    // packing limit); the probe side may be larger — it only recurses.
    let a = (interior / 2).min(7);
    let b = interior - a;
    debug_assert!(a >= 1 && b >= a);

    let mut probe_positions = vec![0u32; b];
    let mut insert_positions = vec![0u32; a];

    for t in (w - 1)..=cap {
        seq.extend_table(syn, t as usize);
        // Abort if the search outgrows the memory budget before a witness
        // appears (checked before inserting this degree's tranche).
        if binomial(t as u128 - 1, a as u32) > MITM_MAP_BUDGET {
            return Err(Error::BudgetExceeded {
                estimated: binomial(cap as u128 - 1, a as u32),
                limit: MITM_MAP_BUDGET,
            });
        }
        while state.avail < t - 1 {
            state.avail += 1;
            insert_a_subsets(syn, state.avail, a, &mut state.map, &mut insert_positions);
        }
        if t < probe_from {
            continue;
        }
        let target = 1 ^ syn[t as usize];
        if probe_b_subsets(syn, t, target, a, b, &state.map, &mut probe_positions) {
            return Ok(Some(t));
        }
    }
    Ok(None)
}

/// Inserts every a-subset of [1, newest] that contains `newest` into the
/// map (the map already holds all a-subsets of [1, newest-1]).
fn insert_a_subsets(
    syn: &[u64],
    newest: u32,
    a: usize,
    map: &mut XorMultiMap,
    scratch: &mut [u32],
) {
    if newest < 1 || (newest as usize) < a {
        return;
    }
    scratch[a - 1] = newest;
    let base = syn[newest as usize];
    rec_insert(syn, newest, a - 1, base, map, scratch);
}

fn rec_insert(
    syn: &[u64],
    max_excl: u32,
    remaining: usize,
    acc: u64,
    map: &mut XorMultiMap,
    scratch: &mut [u32],
) {
    if remaining == 0 {
        map.insert(acc, pack_positions(scratch));
        return;
    }
    // Choose positions descending to keep scratch sorted ascending.
    for p in (remaining as u32..max_excl).rev() {
        scratch[remaining - 1] = p;
        rec_insert(syn, p, remaining - 1, acc ^ syn[p as usize], map, scratch);
    }
}

/// Enumerates b-subsets of [1, t-1], probing the a-subset map for a
/// disjoint complement summing to `target`.
fn probe_b_subsets(
    syn: &[u64],
    t: u32,
    target: u64,
    a: usize,
    b: usize,
    map: &XorMultiMap,
    scratch: &mut [u32],
) -> bool {
    rec_probe(syn, t, t, b, target, a, b, map, scratch)
}

#[allow(clippy::too_many_arguments)]
fn rec_probe(
    syn: &[u64],
    t: u32,
    max_excl: u32,
    remaining: usize,
    acc: u64,
    a: usize,
    b: usize,
    map: &XorMultiMap,
    scratch: &mut [u32],
) -> bool {
    if remaining == 0 {
        // acc = target ^ XOR(b-subset); need a disjoint a-subset with this
        // XOR whose positions fit the interior [1, t-1] — a persistent map
        // may hold subsets from beyond this degree (packed_last filters
        // them; fresh maps never contain any).
        return map.any_match(acc, |packed| {
            packed_last(packed, a) < t && packed_disjoint_from(packed, a, &scratch[..b])
        });
    }
    for p in (remaining as u32..max_excl).rev() {
        scratch[remaining - 1] = p;
        if rec_probe(
            syn,
            t,
            p,
            remaining - 1,
            acc ^ syn[p as usize],
            a,
            b,
            map,
            scratch,
        ) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g32(koopman: u64) -> GenPoly {
        GenPoly::from_koopman(32, koopman).unwrap()
    }

    #[test]
    fn weight_below_two_is_error() {
        assert!(dmin(&g32(0x82608EDB), 1, 100).is_err());
    }

    #[test]
    fn odd_weights_impossible_with_parity_factor() {
        let g = g32(0xBA0DC66B); // {1,3,28}
        assert_eq!(dmin(&g, 3, 100_000).unwrap(), None);
        assert_eq!(dmin(&g, 5, 100_000).unwrap(), None);
        assert_eq!(dmin(&g, 7, 1_000).unwrap(), None);
    }

    #[test]
    fn dmin_of_generator_weight_is_the_degree() {
        // The generator itself is the smallest multiple of its own weight
        // for these generators (no lower-degree multiple can exist).
        let g = g32(0x80108400); // weight 5, degree 32
        assert_eq!(dmin(&g, 5, 100).unwrap(), Some(32));
        let g = g32(0x90022004); // weight 6, degree 32
        assert_eq!(dmin(&g, 6, 100).unwrap(), Some(32));
    }

    #[test]
    fn paper_802_3_breakpoints_small() {
        let g = g32(0x82608EDB);
        // HD=6→5 at 269 ⇒ d_min(5) = 269 + 31 = 300.
        assert_eq!(dmin(&g, 5, 2000).unwrap(), Some(300));
        // HD=5→4 at 2975 ⇒ d_min(4) = 3006.
        assert_eq!(dmin(&g, 4, 5000).unwrap(), Some(3006));
        // HD=7→6 at 172 ⇒ d_min(6) = 203.
        assert_eq!(dmin(&g, 6, 299).unwrap(), Some(203));
        // HD=8→7 at 92 ⇒ d_min(7) = 123.
        assert_eq!(dmin(&g, 7, 202).unwrap(), Some(123));
    }

    #[test]
    fn paper_ba0dc66b_hd6_boundary() {
        // §4.1: "homing in on 16361 as the shortest length with HD<6"
        // ⇒ d_min(4) = 16361 + 31 = 16392. The paper spent 19 days
        // confirming the 16360 side; the incremental search is exact.
        let g = g32(0xBA0DC66B);
        assert_eq!(dmin(&g, 4, 20_000).unwrap(), Some(16_392));
    }

    #[test]
    fn paper_iscsi_poly_hd6_boundary() {
        // 0x8F6E37A0 keeps HD=6 only to 5243 ⇒ d_min(4) = 5275.
        let g = g32(0x8F6E37A0);
        assert_eq!(dmin(&g, 4, 10_000).unwrap(), Some(5_275));
    }

    #[test]
    fn castagnoli_misprint_loses_hd6_by_383_bits() {
        // §3: the misprinted 1F6ACFB13 "has HD=6 up to a length of only
        // 382 bits". The misprint flips one bit of the {1,1,15,15}
        // polynomial and destroys its (x+1)^2 factor, so *odd*-weight
        // multiples appear: d_min(5) = 415 ⇒ HD=6 holds through 383 bits
        // (one more than the paper's figure — see docs/REPRODUCTION.md), then
        // HD=5 to 2922 (d_min(4) = 2954), HD=4 beyond.
        let g = g32(0xFB567D89);
        assert!(
            !g.divisible_by_x_plus_1(),
            "misprint loses the parity factor"
        );
        assert_eq!(dmin(&g, 5, 1_000).unwrap(), Some(415));
        assert_eq!(dmin(&g, 4, 4_000).unwrap(), Some(2_954));
        // The correct polynomial keeps parity and has no weight-4
        // multiple anywhere near these degrees.
        let correct = g32(0xFA567D89);
        assert!(correct.divisible_by_x_plus_1());
        assert_eq!(dmin(&correct, 4, 4_000).unwrap(), None);
    }

    #[test]
    fn exists_weight_matches_dmin() {
        let g = g32(0x82608EDB);
        // d_min(4) = 3006: weight-4 codewords fit from codeword length 3007.
        assert!(!exists_weight(&g, 4, 3006).unwrap());
        assert!(exists_weight(&g, 4, 3007).unwrap());
        assert!(!exists_weight(&g, 4, 0).unwrap());
    }

    #[test]
    fn mitm_agrees_with_direct_methods_on_small_polys() {
        // For 8-bit generators, cross-check w=4 (direct) against the same
        // answer recovered via the MITM path for w=5/6 consistency: use
        // exhaustive spectrum ground truth instead (see spectrum tests);
        // here check internal consistency between dmin3/dmin4 and MITM
        // at w=5 where both-path polynomials exist.
        let g = GenPoly::from_normal(8, 0x07).unwrap(); // CRC-8 poly
        let d3 = dmin(&g, 3, 300).unwrap();
        let d4 = dmin(&g, 4, 300).unwrap();
        let d5 = dmin(&g, 5, 300).unwrap();
        // x^8+x^2+x+1 = (x+1)(x^7+x^6+x^5+x^4+x^3+x^2+1): parity factor,
        // and the degree-7 factor has order 127 (2^7−1 is prime).
        assert_eq!(d3, None);
        assert_eq!(d5, None);
        assert_eq!(dmin2(&g), 127);
        // The generator's own weight is 4: it is itself the minimal
        // weight-4 multiple.
        assert_eq!(d4, Some(8));
    }

    #[test]
    fn mitm_path_matches_spectrum_ground_truth() {
        // Force the MITM path (w = 5..8) on small generators and compare
        // against exhaustive spectrum enumeration.
        for koopman in [0x83u64, 0x97, 0xEA, 0x9C, 0xCD] {
            let g = GenPoly::from_koopman(8, koopman).unwrap();
            for w in 5..=8u32 {
                let cap = 28; // codeword degree cap for 21 data bits
                let found = dmin(&g, w, cap).unwrap();
                // Ground truth: smallest data length where a weight-w
                // codeword appears, via full enumeration (degree d fits
                // at data length n iff d <= n + 7).
                let mut truth = None;
                for n in 1..=(cap - 7) {
                    let spec = crate::spectrum::spectrum(&g, n).unwrap();
                    if spec.count(w) > 0 {
                        truth = Some(n + 8 - 1); // max degree at that length
                        break;
                    }
                }
                match (found, truth) {
                    (None, None) => {}
                    (Some(d), Some(first_deg_cap)) => {
                        // d is the exact degree; it must first fit exactly
                        // when the codeword degree cap reaches it.
                        assert_eq!(d, first_deg_cap, "poly {koopman:#x} w={w}");
                    }
                    other => panic!("poly {koopman:#x} w={w}: mismatch {other:?}"),
                }
            }
        }
    }
}
