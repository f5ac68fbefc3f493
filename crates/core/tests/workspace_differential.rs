//! Differential suite: every workspace kernel against the scratch-built
//! reference paths (CI job `screening-equivalence`).
//!
//! The workspace changes *how* answers are computed three times over —
//! direct-indexed probes instead of hash probes, memoized scan resumes
//! instead of fresh scans, certified-zero sweep skipping instead of full
//! sweeps — and none of those may change a single answer. Each test
//! drives a shared workspace through a schedule of mixed calls (the
//! access pattern the survey engine and the staged/breakpoint drivers
//! produce) and asserts bit-identical results against
//! [`crc_hd::reference`], which still computes everything from scratch
//! per call.

use crc_hd::filter::{breakpoint_search, breakpoint_search_in, hd_filter_in, StagedFilter};
use crc_hd::profile::HdProfile;
use crc_hd::reference;
use crc_hd::workspace::{IndexPolicy, SyndromeWorkspace};
use crc_hd::GenPoly;
use gf2poly::SplitMix64;

/// Deterministic sample of generators at one width: a few fixed
/// well-known values plus random draws.
fn sample_polys(width: u32, count: usize, seed: u64) -> Vec<GenPoly> {
    let mut rng = SplitMix64::new(seed ^ (width as u64) << 32);
    let mut out: Vec<GenPoly> = Vec::new();
    let known: &[u64] = match width {
        8 => &[0x83, 0x97, 0xEA],
        16 => &[0x8810, 0xC86C, 0xAC9A],
        32 => &[0x82608EDB, 0xBA0DC66B, 0x8F6E37A0, 0xFB567D89],
        _ => &[],
    };
    for &k in known {
        out.push(GenPoly::from_koopman(width, k).unwrap());
    }
    let lo = 1u64 << (width - 1);
    while out.len() < count {
        let k = lo | (rng.next_u64() & (lo - 1));
        out.push(GenPoly::from_koopman(width, k).expect("top bit set"));
    }
    out
}

/// The length schedules one polynomial is probed at, in an order that
/// exercises shrink-after-grow memo paths (not just monotone growth).
fn schedules(width: u32) -> Vec<Vec<u32>> {
    let base = vec![
        vec![8, 16, 33, 64, 100],
        vec![100, 16, 64, 8, 33],
        vec![64, 250, 40],
    ];
    if width >= 16 {
        let mut with_long = base;
        with_long.push(vec![900, 120, 500]);
        with_long
    } else {
        base
    }
}

#[test]
fn hd_filter_verdicts_identical_across_widths_and_schedules() {
    for width in [8u32, 13, 16, 32] {
        for policy in [IndexPolicy::Auto, IndexPolicy::ForceHash] {
            let mut ws = SyndromeWorkspace::with_policy(policy);
            for g in sample_polys(width, 8, 11) {
                for schedule in schedules(width) {
                    for len in schedule {
                        for hd in [3u32, 4, 5, 6] {
                            let got = hd_filter_in(&mut ws, &g, len, hd).unwrap();
                            let want = reference::hd_filter(&g, len, hd).unwrap();
                            assert_eq!(got, want, "{g} len={len} hd={hd} policy={policy:?}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn weights_identical_with_and_without_prior_stages() {
    for width in [8u32, 13, 16, 32] {
        for policy in [IndexPolicy::Auto, IndexPolicy::ForceHash] {
            let mut ws = SyndromeWorkspace::with_policy(policy);
            for g in sample_polys(width, 6, 23) {
                for schedule in schedules(width) {
                    for len in schedule {
                        let got = ws.weights234(&g, len);
                        let want = reference::weights234(&g, len);
                        match (got, want) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(a, b, "{g} len={len} policy={policy:?}")
                            }
                            (Err(_), Err(_)) => {} // same refusal (past the order)
                            (a, b) => panic!("{g} len={len}: {a:?} vs {b:?}"),
                        }
                    }
                }
                // And once more after a full profile primed the memo —
                // the maximally-hinted sweep must still count the same.
                let _ = HdProfile::compute_in(&mut ws, &g, 200, 8).unwrap();
                if let Ok(want) = reference::weights234(&g, 150) {
                    assert_eq!(ws.weights234(&g, 150).unwrap(), want, "{g} hinted");
                }
            }
        }
    }
}

#[test]
fn profiles_identical_to_scratch_assembly() {
    for width in [8u32, 13, 16, 32] {
        let mut ws = SyndromeWorkspace::new();
        for g in sample_polys(width, 6, 37) {
            for max_len in [24u32, 150, 800] {
                for max_weight in [5u32, 8] {
                    let got = HdProfile::compute_in(&mut ws, &g, max_len, max_weight).unwrap();
                    let want = reference::profile(&g, max_len, max_weight).unwrap();
                    assert_eq!(got.order(), want.order(), "{g}");
                    assert_eq!(got.dmins(), want.dmins(), "{g} max_len={max_len}");
                    assert_eq!(got.bands(), want.bands(), "{g} max_len={max_len}");
                }
            }
        }
    }
}

#[test]
fn dmin_identical_under_shuffled_cap_schedules() {
    // Caps shrink and grow in arbitrary order: memoized resume must
    // never change an answer (including error-free None/Some flips at
    // the exact boundary).
    for width in [8u32, 13, 16, 32] {
        let mut ws = SyndromeWorkspace::new();
        for g in sample_polys(width, 6, 41) {
            for cap in [5u32, 300, 40, 77, 500, 39, 301] {
                for w in 2..=6u32 {
                    let got = ws.dmin(&g, w, cap).unwrap();
                    let want = reference::dmin(&g, w, cap).unwrap();
                    assert_eq!(got, want, "{g} w={w} cap={cap}");
                }
            }
        }
    }
}

#[test]
fn wide_widths_identical_across_every_index_flavor() {
    // The wide-width kernels (two-level index under `Auto`, persistent
    // MITM maps) and the hash oracle path at the widths they exist for,
    // against the scratch oracle, under shuffled length/cap schedules:
    // verdicts, weights, profiles and d_min must be bit-identical.
    for width in [17u32, 24, 29, 32] {
        for policy in [IndexPolicy::Auto, IndexPolicy::ForceHash] {
            let mut ws = SyndromeWorkspace::with_policy(policy);
            for g in sample_polys(width, 4, 71) {
                for cap in [5u32, 300, 40, 500, 299] {
                    for w in 2..=6u32 {
                        let got = ws.dmin(&g, w, cap).unwrap();
                        let want = reference::dmin(&g, w, cap).unwrap();
                        assert_eq!(got, want, "{g} w={w} cap={cap} policy={policy:?}");
                    }
                }
                for len in [100u32, 16, 900, 64, 899] {
                    let got = ws.weights234(&g, len);
                    let want = reference::weights234(&g, len);
                    match (got, want) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "{g} len={len} policy={policy:?}"),
                        (Err(_), Err(_)) => {} // same refusal (past the order)
                        (a, b) => panic!("{g} len={len}: {a:?} vs {b:?}"),
                    }
                }
                for (len, hd) in [(64u32, 5u32), (250, 4), (120, 6)] {
                    let got = hd_filter_in(&mut ws, &g, len, hd).unwrap();
                    let want = reference::hd_filter(&g, len, hd).unwrap();
                    assert_eq!(got, want, "{g} len={len} hd={hd} policy={policy:?}");
                }
                let got = HdProfile::compute_in(&mut ws, &g, 400, 8).unwrap();
                let want = reference::profile(&g, 400, 8).unwrap();
                assert_eq!(got.dmins(), want.dmins(), "{g} policy={policy:?}");
                assert_eq!(got.bands(), want.bands(), "{g} policy={policy:?}");
            }
        }
    }
}

#[test]
fn hash_index_never_rehashes_under_the_sizing_contract() {
    // Width-32 regression for the PosMap reserve audit: every scan
    // pre-sizes through `reserve_hash`, and `PosMap::reserve`
    // at-least-doubles per actual resize, so even the breakpoint
    // search's bisection pattern (the index trailing its table through
    // many slightly-growing caps) must trigger zero implicit growth
    // rehashes.
    let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
    let mut ws = SyndromeWorkspace::with_policy(IndexPolicy::ForceHash);
    for cap in [10u32, 500, 1200, 1201, 1300, 2000, 3500, 5000] {
        ws.dmin(&g, 4, cap).unwrap();
    }
    breakpoint_search_in(&mut ws, &g, 5, 65_536).unwrap();
    ws.weights234(&g, 3000).unwrap();
    assert_eq!(ws.hash_rehashes(), 0, "implicit rehash despite reserve");
}

#[test]
fn breakpoint_search_evaluation_counts_identical() {
    // The workspace variant must take the *same* doubling+bisect path:
    // identical breakpoints and identical evaluation counts (the §4.1
    // quantity the search strategy is measured by).
    for (width, koopman, hd, hi) in [
        (32u32, 0x82608EDBu64, 5u32, 65_536u32),
        (32, 0x82608EDB, 6, 4096),
        (32, 0xBA0DC66B, 6, 32_768),
        (16, 0x8810, 4, 8192),
        (8, 0x83, 4, 1024),
    ] {
        let g = GenPoly::from_koopman(width, koopman).unwrap();
        let mut ws = SyndromeWorkspace::new();
        let got = breakpoint_search_in(&mut ws, &g, hd, hi).unwrap();
        let want = reference::breakpoint_search(&g, hd, hi).unwrap();
        assert_eq!(got, want, "{g} hd={hd} hi={hi}");
        // The free function (fresh workspace) agrees too.
        assert_eq!(breakpoint_search(&g, hd, hi).unwrap(), want);
    }
}

#[test]
fn staged_filter_funnel_identical_to_scratch_filtering() {
    let polys = sample_polys(8, 40, 53);
    let staged = StagedFilter::new(vec![16, 32, 64], 4);
    let (survivors, stats) = staged.run(polys.iter().copied()).unwrap();
    // Scratch stage-major replay.
    let mut current = polys.clone();
    for (stage, &len) in [16u32, 32, 64].iter().enumerate() {
        assert_eq!(stats[stage].candidates_in, current.len(), "stage {stage}");
        current.retain(|g| reference::hd_filter(g, len, 4).unwrap().passed());
        assert_eq!(stats[stage].survivors_out, current.len(), "stage {stage}");
    }
    assert_eq!(survivors, current);
}

#[test]
fn one_workspace_survives_width_changes() {
    // A campaign worker's workspace outlives candidates; mixing widths
    // (direct and hash bindings interleaved) must leave no residue.
    let mut ws = SyndromeWorkspace::new();
    let mixed: Vec<GenPoly> = sample_polys(8, 4, 61)
        .into_iter()
        .chain(sample_polys(32, 4, 61))
        .chain(sample_polys(13, 4, 61))
        .collect();
    for _round in 0..2 {
        for g in &mixed {
            match (ws.weights234(g, 60), reference::weights234(g, 60)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{g}"),
                (Err(_), Err(_)) => {} // both refuse past the order
                (a, b) => panic!("{g}: {a:?} vs {b:?}"),
            }
            assert_eq!(
                hd_filter_in(&mut ws, g, 48, 5).unwrap(),
                reference::hd_filter(g, 48, 5).unwrap(),
                "{g}"
            );
        }
    }
}
