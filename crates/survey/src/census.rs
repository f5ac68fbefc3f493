//! The stratified sampled census: strata, per-stratum draws, and the
//! Wilson-interval extrapolation to the full space.
//!
//! The paper's real subject is the 2³¹ space of 32-bit generators —
//! far past what an exhaustive toy survey covers. The census mode
//! ([`Mode::Census`]) replaces contiguous enumeration shards with one
//! shard per *stratum* and extrapolates what the sample shows to the
//! whole space:
//!
//! * **Tap-count strata.** A width-`r` generator in normal notation has
//!   its constant bit fixed at 1 and `r − 1` free coefficient bits, so
//!   the polynomials with exactly `t` feedback taps number
//!   `C(r−1, t−1)` — an *exact* stratum size. Sampling uniformly inside
//!   a stratum is combination unranking: draw an index below
//!   `C(r−1, t−1)`, decode it to a set of tap positions. The `r` tap
//!   strata partition the space, so their per-stratum estimates sum to
//!   a full-space estimate. Taps are also the engine-cost axis, so the
//!   strata double as the cost dimension of the frontier.
//! * **Factorization-class strata.** The paper's Table 2 counts HD=6
//!   survivors per irreducible-factorization class;
//!   [`gf2poly::FactorClass`] supplies exact class sizes and uniform
//!   member sampling, so named classes ride along as extra strata
//!   (overlapping the tap strata — they refine the question, not the
//!   partition, and are excluded from the totals row).
//!
//! Every stratum draws from its own SplitMix64 stream
//! ([`crate::campaign::unit_seed`]), so a census campaign shards,
//! checkpoints, resumes and distributes exactly like an exhaustive one.
//!
//! # Interpreting the estimates
//!
//! For a stratum of exact size `N` with `n` distinct sampled members of
//! which `s` survive the screen (`HD ≥ min_hd` at the screen length),
//! the report gives the observed density `s/n`, its Wilson score
//! interval at the configured `z` (the same interval the simulator's
//! Monte-Carlo statistics use — robust at the tiny densities and zero
//! counts a census meets), and the extrapolated survivor counts
//! `N · density` with `N · [low, high]` bounds. Per-target-length rows
//! estimate the HD-boundary density the same way: the fraction still at
//! `HD ≥ min_hd` at each leaderboard length. The totals row sums the
//! tap strata; summed bounds are conservative when read jointly.

use crate::campaign::{Mode, FORMAT_VERSION};
use crate::engine::Campaign;
use crate::json::Json;
use crate::{Error, Result};
use crc_hd::distribution::Nat;
use gf2poly::int::binomial;
use gf2poly::{wilson, FactorClass, SplitMix64};

/// One census stratum: an exactly sized, uniformly sampleable subset of
/// the polynomial space.
#[derive(Debug, Clone)]
pub enum Stratum {
    /// All generators with exactly this many feedback taps
    /// (`C(width−1, taps−1)` of them).
    Taps(u32),
    /// All generators with this irreducible-factorization signature.
    Class(FactorClass),
}

impl Stratum {
    /// Human-readable stratum label, used in reports.
    pub fn label(&self) -> String {
        match self {
            Stratum::Taps(t) => format!("taps={t}"),
            Stratum::Class(c) => format!("class={c}"),
        }
    }

    /// Exact number of member polynomials for width `width`.
    pub fn size(&self, width: u32) -> u128 {
        match self {
            Stratum::Taps(t) => binomial(width as u128 - 1, *t - 1),
            Stratum::Class(c) => c.size(),
        }
    }

    /// Draws one member uniformly, as a Koopman-notation value.
    ///
    /// # Errors
    ///
    /// Propagates class-sampling errors; [`Error::Config`] if a sampled
    /// class member does not form a valid generator (prevented by
    /// [`validate_classes`]).
    pub fn draw(&self, width: u32, rng: &mut SplitMix64) -> Result<u64> {
        match self {
            Stratum::Taps(t) => {
                // Free coefficient bits in Koopman notation are
                // 0..width−2 (normal bits 1..width−1 shifted down by
                // the implicit +1); the top bit width−1 is always set.
                let m = width - 1;
                let k = *t - 1;
                let idx = rng.next_below(binomial(m as u128, k) as u64);
                Ok((1u64 << (width - 1)) | unrank_combination(m, k, idx))
            }
            Stratum::Class(c) => {
                let p = c
                    .sample(rng)
                    .map_err(|e| Error::Config(format!("class sample: {e}")))?;
                let g = crc_hd::GenPoly::from_poly(p)
                    .map_err(|e| Error::Config(format!("class member: {e}")))?;
                Ok(g.koopman())
            }
        }
    }
}

/// The deterministic strata layout of a census campaign: tap counts
/// `1..=width` first (shard id = taps − 1), then the configured classes
/// in config order.
///
/// # Errors
///
/// [`Error::Config`] when the campaign is not in census mode or a class
/// signature fails to parse.
pub fn strata(config: &crate::campaign::CampaignConfig) -> Result<Vec<Stratum>> {
    let Mode::Census { classes, .. } = &config.mode else {
        return Err(Error::Config("not a census campaign".into()));
    };
    let mut out: Vec<Stratum> = (1..=config.width).map(Stratum::Taps).collect();
    for s in classes {
        out.push(Stratum::Class(parse_class(config.width, s)?));
    }
    Ok(out)
}

fn parse_class(width: u32, s: &str) -> Result<FactorClass> {
    let c = FactorClass::parse(s).map_err(|e| Error::Config(format!("census class {s:?}: {e}")))?;
    if c.total_degree() != width {
        return Err(Error::Config(format!(
            "census class {s:?} has total degree {}, campaign width is {width}",
            c.total_degree()
        )));
    }
    Ok(c)
}

/// Validates census class signatures: parseable, canonical spelling,
/// total degree equal to the campaign width, no duplicates.
///
/// # Errors
///
/// [`Error::Config`] naming the first offending signature.
pub fn validate_classes(width: u32, classes: &[String]) -> Result<()> {
    let mut seen = std::collections::BTreeSet::new();
    for s in classes {
        let c = parse_class(width, s)?;
        let canonical = c.to_string();
        if *s != canonical {
            return Err(Error::Config(format!(
                "census class {s:?} is not in canonical form (write {canonical:?})"
            )));
        }
        if !seen.insert(canonical) {
            return Err(Error::Config(format!("duplicate census class {s:?}")));
        }
    }
    Ok(())
}

/// Decodes combination index `idx` (in `0..C(m, k)`) to the bit mask of
/// `k` set positions among `0..m` — the decreasing combinadic, so the
/// map is a bijection and uniform indices give uniform combinations.
pub fn unrank_combination(m: u32, k: u32, idx: u64) -> u64 {
    debug_assert!((idx as u128) < binomial(m as u128, k));
    let mut idx = idx as u128;
    let mut k = k;
    let mut mask = 0u64;
    for p in (0..m).rev() {
        if k == 0 {
            break;
        }
        let c = binomial(p as u128, k);
        if idx >= c {
            idx -= c;
            mask |= 1 << p;
            k -= 1;
        }
    }
    debug_assert_eq!(k, 0);
    mask
}

pub use gf2poly::Z95;

/// Fixed-point scale of the extrapolated counts: millionths.
const MICRO: u64 = 1_000_000;

/// `⌊size · s · 10⁶ / n⌋` exactly — the point estimate `size · s/n` in
/// millionth units, computed in integer arithmetic (no `f64` product,
/// which loses integer precision for the 2³¹-sized width-32 strata).
fn point_micro(size: u128, s: u64, n: u64) -> Nat {
    if n == 0 {
        return Nat::zero();
    }
    let (q, _) = Nat::from_u128(size)
        .mul_small(s)
        .mul_small(MICRO)
        .divmod_small(n);
    q
}

/// `⌊size · frac · 10⁶⌋` exactly: the `f64` fraction is an exact binary
/// rational `m · 2^e` (`m ≤ 2⁵³`), so the product reduces to a
/// big-integer multiply and shift — matching the PR-4 rule (explicit
/// IEEE-exact arithmetic, no `powi`/libm) down to the rendered digit.
fn scaled_micro(size: u128, frac: f64) -> Nat {
    debug_assert!((0.0..=1.0).contains(&frac));
    if frac <= 0.0 {
        return Nat::zero();
    }
    if frac >= 1.0 {
        return Nat::from_u128(size).mul_small(MICRO);
    }
    let bits = frac.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let mantissa = bits & ((1u64 << 52) - 1);
    let (m, e) = if exp == 0 {
        (mantissa, -1074i64) // subnormal
    } else {
        (mantissa | (1u64 << 52), exp - 1075)
    };
    let mut v = Nat::from_u128(size).mul_small(m).mul_small(MICRO);
    if e >= 0 {
        v.shl_bits(e as usize);
    } else {
        v.shr_bits((-e) as usize);
    }
    v
}

/// Renders a millionths count as `integer.dddddd` — the byte-stable
/// form the census artifacts carry instead of a shortest-round-trip
/// `f64`.
fn render_micro(micro: &Nat) -> String {
    let (int, frac) = micro.divmod_small(MICRO);
    format!("{}.{frac:06}", int.to_decimal())
}

/// Deterministic extrapolated survivor counts for one stratum of exact
/// `size` with `survivors` of `sampled` draws passing: the point
/// estimate `size · survivors/sampled` and the Wilson bounds at `z`,
/// each computed exactly (integer part plus a truncated six-digit
/// fraction) and returned as decimal strings. This is the scheme the
/// census report renders; it never multiplies `size as f64` by a
/// density, so 2³¹-sized strata keep every integer digit and the bytes
/// are host-independent.
pub fn extrapolate(size: u128, survivors: u64, sampled: u64, z: f64) -> (String, String, String) {
    let (_, lo, hi) = wilson(survivors, sampled, z);
    (
        render_micro(&point_micro(size, survivors, sampled)),
        render_micro(&scaled_micro(size, lo)),
        render_micro(&scaled_micro(size, hi)),
    )
}

/// Builds the census report for a completed census campaign: one entry
/// per stratum with densities, Wilson bounds at `z` and extrapolated
/// survivor counts, per-target-length HD-boundary estimates, and a
/// totals row summing the tap strata (which partition the space). The
/// document is byte-deterministic for a given campaign and `z`.
///
/// # Errors
///
/// [`Error::Config`] when the campaign is not in census mode,
/// [`Error::Incomplete`] before every stratum is checkpointed, and IO or
/// parse errors from unreadable shard logs.
pub fn census_report(campaign: &Campaign, z: f64) -> Result<Json> {
    let config = campaign.config();
    let strata = strata(config)?;
    let (done, total) = campaign.progress();
    if done != total {
        return Err(Error::Incomplete { done, total });
    }
    let config_hash = campaign.config_hash();
    let lengths = &config.target_lengths;
    let tap_count = config.width as usize;

    // Totals accumulate over the tap strata only — they partition the
    // space; class strata overlap them.
    let mut tot_sampled = 0u64;
    let mut tot_survivors = 0u64;
    let mut tot_est: Vec<(Nat, Nat, Nat)> =
        vec![(Nat::zero(), Nat::zero(), Nat::zero()); lengths.len() + 1];

    let mut rows = Vec::new();
    for (i, stratum) in strata.iter().enumerate() {
        let result = campaign.shard_result(i as u64)?;
        let size = stratum.size(config.width);
        let n = result.scanned;

        // Survivor counts: index 0 is the screen itself, then one per
        // target length (HD still ≥ min_hd there; profiles censored at
        // max_weight report "above" as surviving, consistently with the
        // screen's own verdict).
        let mut counts = vec![0u64; lengths.len() + 1];
        for rec in &result.survivors {
            counts[0] += 1;
            let profile = rec.profile(rec.ref_len)?;
            for (j, &len) in lengths.iter().enumerate() {
                if profile.hd_at(len).is_none_or(|hd| hd >= config.min_hd) {
                    counts[j + 1] += 1;
                }
            }
        }

        let mut est = Vec::new();
        for (j, &s) in counts.iter().enumerate() {
            let (p, lo, hi) = wilson(s, n, z);
            // Extrapolated counts in exact millionths — never through a
            // `size as f64` product (the former precision leak).
            let e_mid = point_micro(size, s, n);
            let e_lo = scaled_micro(size, lo);
            let e_hi = scaled_micro(size, hi);
            if i < tap_count {
                tot_est[j].0.add_assign(&e_mid);
                tot_est[j].1.add_assign(&e_lo);
                tot_est[j].2.add_assign(&e_hi);
            }
            est.push((s, p, lo, hi, e_mid, e_lo, e_hi));
        }
        if i < tap_count {
            tot_sampled += n;
            tot_survivors += counts[0];
        }

        let row_for = |label: &str, e: &(u64, f64, f64, f64, Nat, Nat, Nat)| {
            Json::obj([
                ("at", Json::Str(label.to_string())),
                ("survivors", Json::Int(e.0)),
                ("density", Json::Num(e.1)),
                ("density_low", Json::Num(e.2)),
                ("density_high", Json::Num(e.3)),
                ("est", Json::Str(render_micro(&e.4))),
                ("est_low", Json::Str(render_micro(&e.5))),
                ("est_high", Json::Str(render_micro(&e.6))),
            ])
        };
        let mut length_rows = vec![row_for("screen", &est[0])];
        for (j, &len) in lengths.iter().enumerate() {
            length_rows.push(row_for(&format!("len={len}"), &est[j + 1]));
        }
        rows.push(Json::obj([
            ("stratum", Json::Str(stratum.label())),
            (
                "kind",
                Json::Str(
                    match stratum {
                        Stratum::Taps(_) => "taps",
                        Stratum::Class(_) => "class",
                    }
                    .into(),
                ),
            ),
            ("size", Json::Str(size.to_string())),
            ("sampled", Json::Int(n)),
            ("estimates", Json::Arr(length_rows)),
        ]));
    }

    let space: u128 = strata
        .iter()
        .take(tap_count)
        .map(|s| s.size(config.width))
        .sum();
    let mut total_rows = Vec::new();
    let labels: Vec<String> = std::iter::once("screen".to_string())
        .chain(lengths.iter().map(|l| format!("len={l}")))
        .collect();
    for (label, (est, lo, hi)) in labels.iter().zip(&tot_est) {
        total_rows.push(Json::obj([
            ("at", Json::Str(label.clone())),
            ("est", Json::Str(render_micro(est))),
            ("est_low", Json::Str(render_micro(lo))),
            ("est_high", Json::Str(render_micro(hi))),
        ]));
    }

    Ok(Json::obj([
        ("format", Json::Str("crc-survey-census".into())),
        ("version", Json::Int(FORMAT_VERSION)),
        ("config_hash", Json::Str(format!("{config_hash:#018x}"))),
        ("z", Json::Num(z)),
        ("space", Json::Str(space.to_string())),
        ("min_hd", Json::Int(config.min_hd as u64)),
        ("screen_len", Json::Int(config.screen_len() as u64)),
        ("strata", Json::Arr(rows)),
        (
            "totals",
            Json::obj([
                ("size", Json::Str(space.to_string())),
                ("sampled", Json::Int(tot_sampled)),
                ("survivors", Json::Int(tot_survivors)),
                ("estimates", Json::Arr(total_rows)),
            ]),
        ),
    ]))
}

/// Renders the census report as a text table (one line per stratum at
/// the screen length, then the totals row).
pub fn render_census_table(doc: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "census: survivors with HD >= {} at {} bits (z = {})",
        doc.get("min_hd").and_then(Json::as_u64).unwrap_or(0),
        doc.get("screen_len").and_then(Json::as_u64).unwrap_or(0),
        doc.get("z").and_then(Json::as_f64).unwrap_or(0.0),
    );
    let _ = writeln!(
        out,
        "{:<18} {:>14} {:>8} {:>9} {:>12} {:>12} {:>12}",
        "stratum", "size", "sampled", "survive", "est", "est_low", "est_high"
    );
    // The est fields are exact decimal strings; show them verbatim.
    let est_str = |row: &Json, key: &str| {
        row.get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let strata = doc.get("strata").and_then(Json::as_arr).unwrap_or(&[]);
    for row in strata {
        let screen = row
            .get("estimates")
            .and_then(Json::as_arr)
            .and_then(|e| e.first());
        let Some(screen) = screen else { continue };
        let _ = writeln!(
            out,
            "{:<18} {:>14} {:>8} {:>9} {:>18} {:>18} {:>18}",
            row.get("stratum").and_then(Json::as_str).unwrap_or("?"),
            row.get("size").and_then(Json::as_str).unwrap_or("?"),
            row.get("sampled").and_then(Json::as_u64).unwrap_or(0),
            screen.get("survivors").and_then(Json::as_u64).unwrap_or(0),
            est_str(screen, "est"),
            est_str(screen, "est_low"),
            est_str(screen, "est_high"),
        );
    }
    if let Some(totals) = doc.get("totals") {
        let screen = totals
            .get("estimates")
            .and_then(Json::as_arr)
            .and_then(|e| e.first());
        if let Some(screen) = screen {
            let _ = writeln!(
                out,
                "{:<18} {:>14} {:>8} {:>9} {:>18} {:>18} {:>18}",
                "TOTAL (taps)",
                totals.get("size").and_then(Json::as_str).unwrap_or("?"),
                totals.get("sampled").and_then(Json::as_u64).unwrap_or(0),
                totals.get("survivors").and_then(Json::as_u64).unwrap_or(0),
                est_str(screen, "est"),
                est_str(screen, "est_low"),
                est_str(screen, "est_high"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::engine::{evaluate_unit, UnitScratch};

    #[test]
    fn tap_strata_partition_the_space() {
        for width in [3u32, 8, 13, 16, 32] {
            let total: u128 = (1..=width).map(|t| Stratum::Taps(t).size(width)).sum();
            assert_eq!(total, 1u128 << (width - 1), "width {width}");
        }
    }

    #[test]
    fn unranking_is_a_bijection() {
        let (m, k) = (7u32, 3u32);
        let n = binomial(m as u128, k) as u64;
        let mut seen = std::collections::BTreeSet::new();
        for idx in 0..n {
            let mask = unrank_combination(m, k, idx);
            assert_eq!(mask.count_ones(), k);
            assert!(mask < 1 << m);
            assert!(seen.insert(mask), "duplicate combination {mask:#b}");
        }
        assert_eq!(seen.len() as u64, n);
    }

    #[test]
    fn tap_draws_land_in_their_stratum() {
        let mut rng = SplitMix64::new(7);
        for t in 1..=13u32 {
            let s = Stratum::Taps(t);
            for _ in 0..50 {
                let k = s.draw(13, &mut rng).unwrap();
                let g = crc_hd::GenPoly::from_koopman(13, k).unwrap();
                assert_eq!(crc_hd::costmodel::engine_cost(&g).taps, t);
            }
        }
    }

    #[test]
    fn class_draws_land_in_their_class() {
        let c = parse_class(13, "{1,12}").unwrap();
        let s = Stratum::Class(c);
        let mut rng = SplitMix64::new(3);
        for _ in 0..20 {
            let k = s.draw(13, &mut rng).unwrap();
            let g = crc_hd::GenPoly::from_koopman(13, k).unwrap();
            let sig = gf2poly::factor(g.to_poly()).signature().to_string();
            assert_eq!(sig, "{1,12}");
        }
    }

    #[test]
    fn width32_stratum_extrapolation_is_exact_and_deterministic() {
        // Regression: the report used to render `size as f64 * bound`,
        // which loses integer digits once strata reach 2³¹ polynomials.
        let size = Stratum::Taps(16).size(32);
        assert_eq!(size, 300_540_195); // C(31,15)
                                       // The old path rendered `size as f64 * (s as f64 / n as f64)`
                                       // as a shortest-round-trip f64 — noise digits past the exact
                                       // fraction …
        let f64_est = format!("{}", size as f64 * (2f64 / 7f64));
        assert_ne!(f64_est, "85868627.142857");
        // … while the integer scheme truncates the exact rational.
        let (est, lo, hi) = extrapolate(size, 2, 7, Z95);
        assert_eq!(est, "85868627.142857");
        assert_eq!(extrapolate(size, 2, 7, Z95), (est.clone(), lo, hi));
        // A dyadic-exact case keeps every integer digit too.
        let (est, lo, hi) = extrapolate(size, 2, 3, Z95);
        assert_eq!(est, "200360130.000000");
        // The bounds bracket the point estimate.
        let to_f = |s: &str| s.parse::<f64>().unwrap();
        assert!(to_f(&lo) <= 200_360_130.0 && 200_360_130.0 <= to_f(&hi));
        // Degenerate edges: all survive / none survive.
        let (e1, _, h1) = extrapolate(size, 3, 3, Z95);
        assert_eq!(e1, "300540195.000000");
        assert_eq!(h1, "300540195.000000");
        let (e0, l0, _) = extrapolate(size, 0, 3, Z95);
        assert_eq!(e0, "0.000000");
        assert_eq!(l0, "0.000000");
        // Unsampled stratum renders zeros, not NaN.
        let (eu, ..) = extrapolate(size, 0, 0, Z95);
        assert_eq!(eu, "0.000000");
    }

    #[test]
    fn covered_class_stratum_matches_exhaustive_search() {
        // Class {1,7} at width 8 is (x+1) × the 18 degree-7 irreducibles;
        // 2000 draws cover every member, so the stratum's survivors are
        // exactly the oracle's and the extrapolation is their count.
        let config = CampaignConfig {
            width: 8,
            shards: 9,
            seed: 7,
            mode: Mode::Census {
                per_stratum: 2000,
                classes: vec!["{1,7}".into()],
            },
            min_hd: 4,
            target_lengths: vec![16],
            ber_grid: vec![1e-5],
            max_weight: 4,
        };
        config.validate().unwrap();
        let class = config.work_unit(8); // after the 8 tap strata
        let mut scratch = UnitScratch::default();
        let result = evaluate_unit(&config, class, &mut scratch).unwrap();
        assert_eq!(result.scanned, 18, "distinct draws cover the class");
        let got: Vec<u64> = result.survivors.iter().map(|r| r.koopman).collect();
        // The oracle keeps one member per reciprocal pair; reciprocals
        // share class and HD, and the census screens both.
        let mut expect: Vec<u64> = crc_hd::search::exhaustive_search(8, 16, 4)
            .unwrap()
            .into_iter()
            .filter(|s| s.class == "{1,7}")
            .flat_map(|s| [s.poly.koopman(), s.poly.reciprocal().koopman()])
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert!(!got.is_empty());
        assert_eq!(got, expect);
        let size = strata(&config).unwrap()[8].size(8);
        assert_eq!(size, 18);
        let (est, ..) = extrapolate(size, got.len() as u64, result.scanned, Z95);
        assert_eq!(est, format!("{}.000000", got.len()));
        // A scratch that has run another stratum gives the same bytes.
        evaluate_unit(&config, config.work_unit(3), &mut scratch).unwrap();
        assert_eq!(evaluate_unit(&config, class, &mut scratch).unwrap(), result);
    }

    #[test]
    fn class_validation_rejects_bad_signatures() {
        assert!(validate_classes(13, &["{1,12}".into()]).is_ok());
        assert!(validate_classes(13, &["{1,11}".into()]).is_err(), "degree");
        assert!(validate_classes(13, &["nope".into()]).is_err(), "parse");
        assert!(
            validate_classes(13, &["{12,1}".into()]).is_err(),
            "canonical spelling"
        );
        assert!(
            validate_classes(13, &["{1,12}".into(), "{1,12}".into()]).is_err(),
            "duplicate"
        );
    }

    #[test]
    fn census_config_validates_strata_count() {
        let mut c = CampaignConfig {
            width: 13,
            shards: 13,
            seed: 1,
            mode: Mode::Census {
                per_stratum: 10,
                classes: vec![],
            },
            min_hd: 4,
            target_lengths: vec![64],
            ber_grid: vec![1e-5],
            max_weight: 6,
        };
        assert!(c.validate().is_ok());
        c.shards = 12;
        assert!(c.validate().is_err(), "shards must equal strata");
        c.shards = 14;
        c.mode = Mode::Census {
            per_stratum: 10,
            classes: vec!["{1,12}".into()],
        };
        assert!(c.validate().is_ok());
    }
}
