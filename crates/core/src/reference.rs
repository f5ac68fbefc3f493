//! The pre-workspace scratch evaluators, preserved verbatim as the
//! differential-testing oracle.
//!
//! Every function here rebuilds its syndrome sequence and [`PosMap`]
//! position index from zero on each call — exactly the paths the crate
//! shipped before [`crate::workspace::SyndromeWorkspace`] existed. They
//! are kept (rather than deleted) for three reasons:
//!
//! 1. **Differential tests** (`tests/workspace_differential.rs`, CI job
//!    `screening-equivalence`) compare every workspace kernel — direct
//!    index, hash fallback, memoized resume — against these
//!    independently-coded scratch paths across widths and length
//!    schedules.
//! 2. **Before/after benches**: the `weights_throughput` bench bin's
//!    "scratch" rows run these to keep the speedup measurable from PR to
//!    PR.
//! 3. They document the straight-line algorithms without the caching
//!    machinery.
//!
//! Production callers should use the main module entry points
//! ([`crate::weights::weights234`], [`crate::filter::hd_filter`], …),
//! which route through the workspace kernels.

use crate::dmin::{dmin2, mitm_scan};
use crate::filter::FilterVerdict;
use crate::posmap::PosMap;
use crate::profile::HdProfile;
use crate::syndrome::SyndromeSeq;
use crate::weights::{weight2, Weights234};
use crate::{Error, Result};
use gf2poly::GenPoly;

/// Scratch-built `d_min(w)` (see [`crate::workspace::SyndromeWorkspace::dmin`]
/// for the production path).
///
/// # Errors
///
/// * [`Error::BadLength`] if `w < 2`.
/// * [`Error::BudgetExceeded`] if a `w ≥ 5` search outgrows the
///   meet-in-the-middle memory budget.
pub fn dmin(g: &GenPoly, w: u32, cap: u32) -> Result<Option<u32>> {
    if w < 2 {
        return Err(Error::BadLength(format!("weight {w} < 2 has no multiples")));
    }
    if w == 2 {
        let e = dmin2(g);
        return Ok(if e <= cap as u128 {
            Some(e as u32)
        } else {
            None
        });
    }
    if g.divisible_by_x_plus_1() && w % 2 == 1 {
        return Ok(None);
    }
    if cap < w - 1 {
        return Ok(None);
    }
    match w {
        3 => Ok(dmin3(g, cap)),
        4 => Ok(dmin4(g, cap)),
        _ => {
            let mut seq = SyndromeSeq::new(g);
            let mut syn: Vec<u64> = vec![seq.peek()];
            mitm_scan(w, cap, 0, &mut syn, &mut seq)
        }
    }
}

/// Scratch-built weight-existence check.
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

fn dmin3(g: &GenPoly, cap: u32) -> Option<u32> {
    let mut map = PosMap::with_capacity(cap as usize);
    let mut seq = SyndromeSeq::new(g);
    let mut syn: Vec<u64> = vec![seq.peek()]; // r(0) = 1
    let mut avail = 0u32; // positions 1..=avail are in the map
    for t in 2..=cap {
        seq.extend_table(&mut syn, t as usize);
        while avail < t - 1 {
            avail += 1;
            map.insert(syn[avail as usize], avail);
        }
        // Codeword 1 + x^i + x^t needs r(i) = 1 ^ r(t) for some 1 ≤ i < t.
        if map.get(1 ^ syn[t as usize]).is_some() {
            return Some(t);
        }
    }
    None
}

fn dmin4(g: &GenPoly, cap: u32) -> Option<u32> {
    let mut map = PosMap::with_capacity(cap as usize);
    let mut seq = SyndromeSeq::new(g);
    let mut syn: Vec<u64> = Vec::with_capacity(cap as usize + 1);
    syn.push(seq.peek());
    let mut avail = 0u32;
    for t in 3..=cap {
        seq.extend_table(&mut syn, t as usize);
        while avail < t - 1 {
            avail += 1;
            map.insert(syn[avail as usize], avail);
        }
        let target = 1 ^ syn[t as usize];
        // Codeword 1 + x^i + x^j + x^t: r(i) ^ r(j) = target, with
        // distinct i, j in [1, t-1]. Syndromes are distinct below the
        // order, so the map lookup identifies j uniquely; j != i rules
        // out the degenerate pair.
        for i in 1..t {
            if let Some(j) = map.get(target ^ syn[i as usize]) {
                if j != i {
                    return Some(t);
                }
            }
        }
    }
    None
}

/// Scratch-built exact `W₂..W₄` (the per-`t` PosMap probe sweep).
///
/// # Errors
///
/// As [`crate::weights::weights234`].
pub fn weights234(g: &GenPoly, data_len: u32) -> Result<Weights234> {
    if data_len == 0 {
        return Err(Error::BadLength("data_len must be positive".into()));
    }
    let r = g.width();
    let codeword_len = data_len
        .checked_add(r)
        .ok_or_else(|| Error::BadLength("codeword length overflow".into()))?;
    let l = codeword_len as u64;
    let order = dmin2(g);
    if (l as u128) > order {
        return Err(Error::BadLength(format!(
            "codeword length {l} exceeds the polynomial order {order}; \
             exact counting requires distinct syndromes"
        )));
    }

    // W2 from the order alone (always 0 under the order restriction, but
    // computed through the same closed form for uniformity).
    let w2 = weight2(g, data_len)?;

    // W3 and W4 by top-degree sweep.
    let mut w3: u128 = 0;
    let mut w4: u128 = 0;
    let mut map = PosMap::with_capacity(codeword_len as usize);
    let mut seq = SyndromeSeq::new(g);
    let mut syn: Vec<u64> = Vec::with_capacity(codeword_len as usize);
    syn.push(seq.peek());
    let mut avail = 0u32;
    let parity = g.divisible_by_x_plus_1();
    for t in 2..codeword_len {
        seq.extend_table(&mut syn, t as usize);
        while avail < t - 1 {
            avail += 1;
            map.insert(syn[avail as usize], avail);
        }
        let rt = syn[t as usize];
        let shifts = (l - t as u64) as u128;
        // N3(t): unique i (injectivity below the order) with r(i) = 1^r(t).
        if !parity {
            if let Some(i) = map.get(1 ^ rt) {
                debug_assert!(i >= 1 && i < t);
                w3 += shifts;
            }
        }
        // N4(t): pairs i < j in [1, t-1] with r(i) ^ r(j) = 1 ^ r(t).
        let target = 1 ^ rt;
        let mut pairs: u128 = 0;
        for i in 1..t {
            if let Some(j) = map.get(target ^ syn[i as usize]) {
                if j > i {
                    pairs += 1;
                }
            }
        }
        w4 += pairs * shifts;
    }
    Ok(Weights234 {
        data_len,
        codeword_len,
        w2,
        w3,
        w4,
    })
}

/// Scratch-built HD filter (one fresh evaluation per weight).
///
/// # Errors
///
/// As [`crate::filter::hd_filter`].
pub fn hd_filter(g: &GenPoly, data_len: u32, target_hd: u32) -> Result<FilterVerdict> {
    let codeword_len = data_len + g.width();
    for w in 2..target_hd {
        if g.divisible_by_x_plus_1() && w % 2 == 1 {
            continue;
        }
        if exists_weight(g, w, codeword_len)? {
            return Ok(FilterVerdict::FailAt(w));
        }
    }
    Ok(FilterVerdict::Pass)
}

/// Scratch-built doubling+bisect breakpoint search: every evaluation
/// rebuilds from zero — the cost profile the workspace variant
/// ([`crate::filter::breakpoint_search_in`]) amortizes away. Returns
/// `(max_len, evaluations)` exactly like the production path.
///
/// # Errors
///
/// Propagates filter errors.
pub fn breakpoint_search(g: &GenPoly, hd: u32, hi: u32) -> Result<(u32, u64)> {
    let mut evals = 0u64;
    let check = |len: u32, evals: &mut u64| -> Result<bool> {
        *evals += 1;
        Ok(hd_filter(g, len, hd)?.passed())
    };
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

/// Scratch-built profile assembly: the same cap chain as
/// [`HdProfile::compute_up_to_weight`], driven by [`dmin`] instead of a
/// workspace.
///
/// # Errors
///
/// As [`HdProfile::compute_up_to_weight`].
pub fn profile(g: &GenPoly, max_len: u32, max_weight: u32) -> Result<HdProfile> {
    crate::profile::compute_with(g, max_len, max_weight, dmin2(g), |w, cap| dmin(g, w, cap))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_known_breakpoints() {
        let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
        assert_eq!(dmin(&g, 4, 5000).unwrap(), Some(3006));
        assert_eq!(dmin(&g, 5, 2000).unwrap(), Some(300));
        let w = weights234(&g, 2975).unwrap();
        assert_eq!((w.w2, w.w3, w.w4), (0, 0, 1));
        assert_eq!(hd_filter(&g, 12_112, 5).unwrap(), FilterVerdict::FailAt(4));
    }
}
