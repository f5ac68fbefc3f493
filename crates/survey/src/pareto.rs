//! Pareto selection over the survivor stream.
//!
//! A survey does not have one winner: HD at each target length, the
//! undetected-error probability across the BER grid, and implementation
//! cost pull in different directions (the paper itself keeps 802.3 for
//! compatibility, proposes `0xBA0DC66B` for HD, and singles out
//! `0x90022004`/`0x80108400` for hardware cost). The frontier keeps
//! every polynomial not beaten *everywhere* by some other survivor.

use crate::campaign::{CampaignConfig, SurvivorRecord};
use crate::Result;
use crc_hd::distribution::distribution;
use crc_hd::GenPoly;

/// Which P_ud computation feeds the objective vector.
///
/// The default [`PudAxis::Truncated`] is the paper's own methodology —
/// `W₂..W₄` times per-weight pattern probabilities, cheap enough to
/// evaluate from the survivor record alone and byte-stable across
/// releases (the golden leaderboard pins it). [`PudAxis::Exact`]
/// replaces the truncation with the full weight distribution from
/// [`crc_hd::distribution`]: every weight contributes, so the curve
/// stays meaningful at high BER where the weight-5+ tail dominates, and
/// extends to P_ud ≤ 1e-30 where the truncated form has nothing left.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PudAxis {
    /// `W₂..W₄` truncation (the paper's Figure 1 methodology).
    #[default]
    Truncated,
    /// Full-distribution P_ud at the reference length.
    Exact,
}

/// The exact P_ud curve of one survivor over the config's BER grid,
/// computed once from the full weight distribution at the reference
/// length.
///
/// # Errors
///
/// Propagates [`crc_hd::Error`] from polynomial reconstruction or a
/// distribution whose cost estimate exceeds the default budget.
pub fn exact_pud_curve(rec: &SurvivorRecord, cfg: &CampaignConfig) -> Result<Vec<f64>> {
    let g = GenPoly::from_koopman(rec.width, rec.koopman).map_err(crc_hd::Error::from)?;
    let dist = distribution(&g, cfg.ref_len())?;
    Ok(cfg.ber_grid.iter().map(|&b| dist.p_ud(b)).collect())
}

/// The objective vector of one survivor: HD per target length
/// (maximize), P_ud per grid BER at the reference length (minimize),
/// feedback taps (minimize).
#[derive(Debug, Clone, PartialEq)]
pub struct Objectives {
    /// `hd_at` each `target_lengths` entry; `None` means above every
    /// explored weight — the strongest possible value.
    pub hds: Vec<Option<u32>>,
    /// `P_ud` at each `ber_grid` entry.
    pub p_ud: Vec<f64>,
    /// Feedback taps (engine cost).
    pub taps: u32,
}

impl Objectives {
    /// Evaluates the vector for one record under one config.
    ///
    /// # Errors
    ///
    /// Propagates profile-reconstruction errors (corrupt records).
    pub fn evaluate(rec: &SurvivorRecord, cfg: &CampaignConfig) -> Result<Objectives> {
        Self::evaluate_with(rec, cfg, PudAxis::Truncated)
    }

    /// Evaluates the vector with an explicit choice of P_ud axis.
    ///
    /// # Errors
    ///
    /// As [`Objectives::evaluate`]; additionally distribution errors
    /// under [`PudAxis::Exact`].
    pub fn evaluate_with(
        rec: &SurvivorRecord,
        cfg: &CampaignConfig,
        axis: PudAxis,
    ) -> Result<Objectives> {
        let profile = rec.profile(cfg.ref_len())?;
        let p_ud = match axis {
            PudAxis::Truncated => cfg.ber_grid.iter().map(|&b| rec.p_ud(b)).collect(),
            PudAxis::Exact => exact_pud_curve(rec, cfg)?,
        };
        Ok(Objectives {
            hds: cfg
                .target_lengths
                .iter()
                .map(|&n| profile.hd_at(n))
                .collect(),
            p_ud,
            taps: rec.taps,
        })
    }

    /// HD as a totally ordered rank: `None` (above every explored
    /// weight) outranks any finite value.
    fn hd_rank(hd: Option<u32>) -> u32 {
        hd.unwrap_or(u32::MAX)
    }

    /// True when `self` dominates `other`: at least as good on every
    /// axis and strictly better on at least one.
    pub fn dominates(&self, other: &Objectives) -> bool {
        debug_assert_eq!(self.hds.len(), other.hds.len());
        debug_assert_eq!(self.p_ud.len(), other.p_ud.len());
        let mut strictly = false;
        for (a, b) in self.hds.iter().zip(&other.hds) {
            let (a, b) = (Self::hd_rank(*a), Self::hd_rank(*b));
            if a < b {
                return false;
            }
            strictly |= a > b;
        }
        for (a, b) in self.p_ud.iter().zip(&other.p_ud) {
            if a > b {
                return false;
            }
            strictly |= a < b;
        }
        if self.taps > other.taps {
            return false;
        }
        strictly |= self.taps < other.taps;
        strictly
    }
}

/// The frontier over already-evaluated objective vectors: indices of
/// every non-dominated entry, in input order. Ties (identical vectors)
/// all stay on the frontier. Callers that already hold the objectives
/// (the leaderboard ranks with them too) use this directly so the
/// O(n²) dominance sweep runs on evaluations done once.
pub fn frontier_indices(objectives: &[Objectives]) -> Vec<usize> {
    (0..objectives.len())
        .filter(|&i| {
            !objectives
                .iter()
                .enumerate()
                .any(|(j, oj)| j != i && oj.dominates(&objectives[i]))
        })
        .collect()
}

/// Computes the Pareto frontier: indices (into `records`) of every
/// non-dominated survivor, in input order, with the evaluated
/// objectives.
///
/// # Errors
///
/// Propagates objective-evaluation errors.
pub fn pareto_front(
    records: &[SurvivorRecord],
    cfg: &CampaignConfig,
) -> Result<Vec<(usize, Objectives)>> {
    pareto_front_with(records, cfg, PudAxis::Truncated)
}

/// [`pareto_front`] with an explicit P_ud axis.
///
/// # Errors
///
/// As [`pareto_front`]; additionally distribution errors under
/// [`PudAxis::Exact`].
pub fn pareto_front_with(
    records: &[SurvivorRecord],
    cfg: &CampaignConfig,
    axis: PudAxis,
) -> Result<Vec<(usize, Objectives)>> {
    let objectives: Vec<Objectives> = records
        .iter()
        .map(|r| Objectives::evaluate_with(r, cfg, axis))
        .collect::<Result<_>>()?;
    Ok(frontier_indices(&objectives)
        .into_iter()
        .map(|i| (i, objectives[i].clone()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(hds: &[Option<u32>], p_ud: &[f64], taps: u32) -> Objectives {
        Objectives {
            hds: hds.to_vec(),
            p_ud: p_ud.to_vec(),
            taps,
        }
    }

    #[test]
    fn dominance_is_strict_and_directional() {
        let a = obj(&[Some(6), Some(4)], &[1e-12], 5);
        let b = obj(&[Some(6), Some(4)], &[1e-12], 7);
        assert!(a.dominates(&b), "fewer taps, all else equal");
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "equality is not dominance");
        // Trade-off: better HD vs fewer taps — neither dominates.
        let hd = obj(&[Some(8), Some(6)], &[1e-12], 10);
        let cheap = obj(&[Some(4), Some(4)], &[1e-12], 3);
        assert!(!hd.dominates(&cheap) && !cheap.dominates(&hd));
        // None (HD above explored weights) outranks any finite HD.
        let hi = obj(&[None], &[0.0], 5);
        let lo = obj(&[Some(12)], &[0.0], 5);
        assert!(hi.dominates(&lo));
        // Lower P_ud dominates.
        let clean = obj(&[Some(4)], &[1e-15, 1e-18], 5);
        let noisy = obj(&[Some(4)], &[1e-12, 1e-14], 5);
        assert!(clean.dominates(&noisy));
        assert!(!noisy.dominates(&clean));
    }

    #[test]
    fn exact_axis_brackets_the_truncated_curve() {
        use crate::campaign::Mode;
        let cfg = CampaignConfig {
            width: 8,
            shards: 1,
            seed: 1,
            mode: Mode::Exhaustive,
            min_hd: 3,
            target_lengths: vec![8, 24],
            ber_grid: vec![1e-4, 1e-7],
            max_weight: 8,
        };
        let mut records = Vec::new();
        for g in cfg.space().iter_all() {
            if g.koopman() > g.reciprocal().koopman() {
                continue;
            }
            if let Some(rec) = SurvivorRecord::screen(&g, &cfg).unwrap() {
                records.push(rec);
            }
        }
        assert!(records.len() > 10);
        // The truncated curve drops every weight ≥ 5 term (every
        // weight ≥ 3 term when the record carries no W₃/W₄), so the
        // exact value sits above it by at most Σ_{k≥c} Wₖ εᵏ ≤ 2ⁿ · εᶜ.
        let n = cfg.ref_len();
        for rec in &records {
            let exact = exact_pud_curve(rec, &cfg).unwrap();
            let cutoff = if rec.w34.is_some() { 5 } else { 3 };
            for (&ber, &e) in cfg.ber_grid.iter().zip(&exact) {
                let t = rec.p_ud(ber);
                assert!(
                    t <= e * (1.0 + 1e-9),
                    "poly {:#x} ber {ber}: truncated {t} above exact {e}",
                    rec.koopman
                );
                let tail = (0..cutoff).fold((1u64 << n) as f64, |acc, _| acc * ber);
                assert!(
                    e - t <= tail,
                    "poly {:#x} ber {ber}: gap {} above tail bound {tail}",
                    rec.koopman,
                    e - t
                );
            }
        }
        // The exact frontier is sound under the same dominance sweep.
        let front = pareto_front_with(&records, &cfg, PudAxis::Exact).unwrap();
        assert!(!front.is_empty() && front.len() < records.len());
        let all: Vec<Objectives> = records
            .iter()
            .map(|r| Objectives::evaluate_with(r, &cfg, PudAxis::Exact).unwrap())
            .collect();
        for (i, oi) in &front {
            assert!(!all.iter().any(|o| o.dominates(oi)), "index {i} dominated");
        }
    }

    #[test]
    fn frontier_on_a_real_small_campaign() {
        use crate::campaign::Mode;
        let cfg = CampaignConfig {
            width: 8,
            shards: 1,
            seed: 1,
            mode: Mode::Exhaustive,
            min_hd: 3,
            target_lengths: vec![8, 24],
            ber_grid: vec![1e-4],
            max_weight: 8,
        };
        let mut records = Vec::new();
        for g in cfg.space().iter_all() {
            if g.koopman() > g.reciprocal().koopman() {
                continue;
            }
            if let Some(rec) = SurvivorRecord::screen(&g, &cfg).unwrap() {
                records.push(rec);
            }
        }
        assert!(records.len() > 10, "enough survivors to be interesting");
        let front = pareto_front(&records, &cfg).unwrap();
        assert!(!front.is_empty() && front.len() < records.len());
        // Frontier soundness: no member is dominated by any survivor.
        let all: Vec<Objectives> = records
            .iter()
            .map(|r| Objectives::evaluate(r, &cfg).unwrap())
            .collect();
        for (i, oi) in &front {
            assert!(!all.iter().any(|o| o.dominates(oi)), "index {i} dominated");
        }
        // Completeness: every non-member is dominated by someone.
        let member: std::collections::HashSet<usize> = front.iter().map(|(i, _)| *i).collect();
        for (i, o) in all.iter().enumerate() {
            if !member.contains(&i) {
                assert!(
                    all.iter().any(|other| other.dominates(o)),
                    "index {i} excluded but undominated"
                );
            }
        }
    }
}
