//! Campaign configuration, work units, survivor records and the
//! checkpoint schema.
//!
//! A campaign is fully described by a [`CampaignConfig`]; everything a
//! worker computes is a pure function of `(config, shard id)`, which is
//! the resume invariant: a shard log on disk never has to be recomputed,
//! and recomputing it anyway would reproduce it byte for byte.

use crate::json::{Json, JsonError};
use crate::{Error, Result};
use crc_hd::costmodel::engine_cost;
use crc_hd::filter::hd_filter_in;
use crc_hd::profile::HdProfile;
use crc_hd::search::PolySpace;
use crc_hd::workspace::MemoFact;
use crc_hd::{GenPoly, SyndromeWorkspace};

/// Version stamp written into every artifact; readers reject other
/// versions instead of guessing. Version 2 added the stratified census
/// mode and the persisted `d_min` memo on survivor records.
pub const FORMAT_VERSION: u64 = 2;

/// How a shard covers its slice of the polynomial space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Every polynomial in the shard's range is screened.
    Exhaustive,
    /// `per_shard` draws from the shard's own SplitMix64 stream (netsim's
    /// seed-splitting idiom): deterministic per `(seed, shard)`, so a
    /// sampled campaign shards, checkpoints and resumes exactly like an
    /// exhaustive one.
    Sampled {
        /// Random draws per shard (duplicates collapse before screening).
        per_shard: u64,
    },
    /// Stratified sampled census: one shard per stratum, where the
    /// strata are every feedback-tap count (tap count `t` has exactly
    /// `C(width−1, t−1)` members, so estimates extrapolate exactly) plus
    /// any named factorization classes ([`gf2poly::FactorClass`], whose
    /// exact sizes the class machinery provides). Each stratum draws
    /// from its own SplitMix64 stream; see [`crate::census`] for the
    /// strata layout and the Wilson-interval extrapolation.
    Census {
        /// Random draws per stratum (duplicates collapse before
        /// screening).
        per_stratum: u64,
        /// Factorization-class strata (signature strings like
        /// `"{1,3,28}"`), screened in addition to the tap-count strata.
        classes: Vec<String>,
    },
}

/// Full description of one survey campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// CRC width of the space (3..=32; `PolySpace` bounds).
    pub width: u32,
    /// Number of work units the space splits into.
    pub shards: u64,
    /// Campaign seed: feeds the per-shard streams in sampled mode and is
    /// part of the artifact identity in both modes.
    pub seed: u64,
    /// Exhaustive or sampled coverage.
    pub mode: Mode,
    /// Screening bar: candidates must reach `HD ≥ min_hd` at the
    /// *shortest* target length (HD only shrinks with length, so this is
    /// the staged-filter short-length screen; survivors are then profiled
    /// in full).
    pub min_hd: u32,
    /// Data-word lengths (bits) the leaderboard ranks at; strictly
    /// ascending. The longest doubles as the P_ud reference length.
    pub target_lengths: Vec<u32>,
    /// Bit-error rates of the P_ud grid.
    pub ber_grid: Vec<f64>,
    /// Highest weight each survivor's profile explores.
    pub max_weight: u32,
}

impl CampaignConfig {
    /// Checks the parameter invariants.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        if !(3..=32).contains(&self.width) {
            return Err(Error::Config(format!(
                "width {} outside 3..=32",
                self.width
            )));
        }
        let total = PolySpace::new(self.width).total();
        if self.shards == 0 || self.shards > total {
            return Err(Error::Config(format!(
                "shards {} outside 1..={total}",
                self.shards
            )));
        }
        if self.target_lengths.is_empty() || !self.target_lengths.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::Config(
                "target_lengths must be nonempty and strictly ascending".into(),
            ));
        }
        if self.min_hd < 2 {
            return Err(Error::Config(format!("min_hd {} below 2", self.min_hd)));
        }
        if self.max_weight < self.min_hd {
            return Err(Error::Config(format!(
                "max_weight {} below min_hd {}",
                self.max_weight, self.min_hd
            )));
        }
        if self.ber_grid.is_empty()
            || !self
                .ber_grid
                .iter()
                .all(|&b| b.is_finite() && 0.0 < b && b < 0.5)
        {
            return Err(Error::Config(
                "ber_grid must be nonempty with every rate in (0, 0.5)".into(),
            ));
        }
        match &self.mode {
            Mode::Exhaustive => {}
            Mode::Sampled { per_shard } => {
                if *per_shard == 0 {
                    return Err(Error::Config("sampled mode needs per_shard >= 1".into()));
                }
            }
            Mode::Census {
                per_stratum,
                classes,
            } => {
                if *per_stratum == 0 {
                    return Err(Error::Config("census mode needs per_stratum >= 1".into()));
                }
                crate::census::validate_classes(self.width, classes)?;
                let strata = self.width as u64 + classes.len() as u64;
                if self.shards != strata {
                    return Err(Error::Config(format!(
                        "census mode needs shards == strata count {strata} \
                         (width {} tap strata + {} classes), found {}",
                        self.width,
                        classes.len(),
                        self.shards
                    )));
                }
            }
        }
        Ok(())
    }

    /// The screening length: the shortest target length.
    pub fn screen_len(&self) -> u32 {
        self.target_lengths[0]
    }

    /// The profile range and P_ud reference length: the longest target.
    pub fn ref_len(&self) -> u32 {
        *self.target_lengths.last().expect("validated nonempty")
    }

    /// The polynomial space this campaign covers.
    pub fn space(&self) -> PolySpace {
        PolySpace::new(self.width)
    }

    /// The shard decomposition. Exhaustive and sampled campaigns split
    /// the enumeration into contiguous offset ranges covering the space
    /// exactly once, in shard order; a census campaign has one unit per
    /// stratum, whose range `0..per_stratum` counts draws rather than
    /// offsets.
    pub fn work_units(&self) -> Vec<WorkUnit> {
        (0..self.shards)
            .map(|shard| self.work_unit(shard))
            .collect()
    }

    /// One entry of [`CampaignConfig::work_units`], computed in O(1)
    /// without building the whole list. `shard` must be below
    /// `self.shards`.
    pub fn work_unit(&self, shard: u64) -> WorkUnit {
        debug_assert!(
            shard < self.shards,
            "shard {shard} outside 0..{}",
            self.shards
        );
        if let Mode::Census { per_stratum, .. } = &self.mode {
            return WorkUnit {
                shard,
                start: 0,
                end: *per_stratum,
            };
        }
        let total = self.space().total();
        let chunk = total.div_ceil(self.shards);
        WorkUnit {
            shard,
            start: (shard * chunk).min(total),
            end: ((shard + 1) * chunk).min(total),
        }
    }

    /// FNV-1a hash of the canonical config rendering — the identity
    /// stamped into every artifact so a resume refuses to mix campaigns.
    pub fn content_hash(&self) -> u64 {
        let text = self.to_json().render();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// The canonical JSON form (field order fixed).
    pub fn to_json(&self) -> Json {
        let mode = match &self.mode {
            Mode::Exhaustive => Json::Str("exhaustive".into()),
            Mode::Sampled { per_shard } => {
                Json::obj([("sampled_per_shard", Json::Int(*per_shard))])
            }
            Mode::Census {
                per_stratum,
                classes,
            } => Json::obj([
                ("census_per_stratum", Json::Int(*per_stratum)),
                (
                    "census_classes",
                    Json::Arr(classes.iter().map(|c| Json::Str(c.clone())).collect()),
                ),
            ]),
        };
        Json::obj([
            ("width", Json::Int(self.width as u64)),
            ("shards", Json::Int(self.shards)),
            ("seed", Json::Int(self.seed)),
            ("mode", mode),
            ("min_hd", Json::Int(self.min_hd as u64)),
            (
                "target_lengths",
                Json::Arr(
                    self.target_lengths
                        .iter()
                        .map(|&n| Json::Int(n as u64))
                        .collect(),
                ),
            ),
            (
                "ber_grid",
                Json::Arr(self.ber_grid.iter().map(|&b| Json::Num(b)).collect()),
            ),
            ("max_weight", Json::Int(self.max_weight as u64)),
        ])
    }

    /// Parses and validates a config from its JSON form.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on schema problems, [`Error::Config`] on invalid
    /// parameters.
    pub fn from_json(v: &Json) -> Result<CampaignConfig> {
        let mode_v = v.require("mode")?;
        let mode = match mode_v.as_str() {
            Some("exhaustive") => Mode::Exhaustive,
            Some(other) => return Err(Error::Parse(format!("unknown mode {other:?}"))),
            None if mode_v.get("census_per_stratum").is_some() => Mode::Census {
                per_stratum: require_u64(mode_v, "census_per_stratum")?,
                classes: mode_v
                    .require("census_classes")?
                    .as_arr()
                    .ok_or_else(|| Error::Parse("census_classes not an array".into()))?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| Error::Parse("bad census class".into()))
                    })
                    .collect::<Result<Vec<String>>>()?,
            },
            None => Mode::Sampled {
                per_shard: require_u64(mode_v, "sampled_per_shard")?,
            },
        };
        let cfg = CampaignConfig {
            width: require_u32(v, "width")?,
            shards: require_u64(v, "shards")?,
            seed: require_u64(v, "seed")?,
            mode,
            min_hd: require_u32(v, "min_hd")?,
            target_lengths: v
                .require("target_lengths")?
                .as_arr()
                .ok_or_else(|| Error::Parse("target_lengths not an array".into()))?
                .iter()
                .map(|x| {
                    x.as_u32()
                        .ok_or_else(|| Error::Parse("bad target length".into()))
                })
                .collect::<Result<Vec<u32>>>()?,
            ber_grid: v
                .require("ber_grid")?
                .as_arr()
                .ok_or_else(|| Error::Parse("ber_grid not an array".into()))?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| Error::Parse("bad BER value".into()))
                })
                .collect::<Result<Vec<f64>>>()?,
            max_weight: require_u32(v, "max_weight")?,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

fn require_u64(v: &Json, key: &str) -> Result<u64> {
    v.require(key)?
        .as_u64()
        .ok_or_else(|| Error::Parse(format!("{key} is not an unsigned integer")))
}

fn require_u32(v: &Json, key: &str) -> Result<u32> {
    v.require(key)?
        .as_u32()
        .ok_or_else(|| Error::Parse(format!("{key} is not a 32-bit unsigned integer")))
}

/// One shard's slice of the space: offsets `start..end` of the
/// enumeration order (see `PolySpace::iter_range`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkUnit {
    /// Shard id, `0..config.shards`.
    pub shard: u64,
    /// First offset covered (inclusive).
    pub start: u64,
    /// One past the last offset covered.
    pub end: u64,
}

/// Random stream index for sampled-mode candidate draws within a shard.
pub const STREAM_SAMPLE: u64 = 0;

/// Derives the deterministic seed for one stream of one shard — the same
/// SplitMix64-finalizer splitting netsim uses for its trial shards: any
/// shard of any campaign can be reproduced from `(seed, shard, stream)`
/// alone, independent of thread schedule.
pub fn unit_seed(seed: u64, shard: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything the selection layer needs about one surviving polynomial,
/// computed once by a worker and persisted in its shard log.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivorRecord {
    /// Koopman-notation value.
    pub koopman: u64,
    /// CRC width.
    pub width: u32,
    /// Irreducible-factorization signature (`{d1,..,dk}`).
    pub class: String,
    /// Feedback taps (`costmodel::engine_cost`): the Pareto cost axis.
    pub taps: u32,
    /// Multiplicative order of `x` mod the generator.
    pub order: u128,
    /// `(w, d_min(w))` profile parts (`HdProfile::dmins`).
    pub dmins: Vec<(u32, u32)>,
    /// The full `d_min` memo the screening funnel deposited
    /// ([`SyndromeWorkspace::memo_facts`]): exact minimal degrees *and*
    /// certified-clean ranges. Where `dmins` is the profile's censored
    /// summary, this is the resumable state — seeding it back
    /// ([`SurvivorRecord::reprofile_in`]) lets a second pass at longer
    /// lengths (8k–64k bits) continue each weight's scan where the
    /// campaign stopped instead of restarting from degree `w − 1`.
    pub memo: Vec<(u32, MemoFact)>,
    /// Highest weight the profile explored.
    pub max_weight_explored: u32,
    /// Data length (bits) the weight counts below refer to.
    pub ref_len: u32,
    /// Exact `W₂` at `ref_len` (any length; from the order alone).
    pub w2: u128,
    /// Exact `(W₃, W₄)` at `ref_len`, or `None` when the reference
    /// codeword outruns the order (the closed form needs distinct
    /// syndromes; such polynomials are at HD 2 there anyway, and `w2`
    /// already dominates their P_ud).
    pub w34: Option<(u128, u128)>,
}

impl SurvivorRecord {
    /// Screens `g` and, if it clears the bar, evaluates the full record:
    /// profile parts, factorization class, engine cost and exact weights
    /// at the reference length (one-shot convenience over
    /// [`SurvivorRecord::screen_in`]).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from `crc-hd`.
    pub fn screen(g: &GenPoly, cfg: &CampaignConfig) -> Result<Option<SurvivorRecord>> {
        SurvivorRecord::screen_in(g, cfg, &mut SyndromeWorkspace::new())
    }

    /// [`SurvivorRecord::screen`] over a caller-held workspace — the
    /// form the campaign workers run, one workspace per worker across
    /// all of its candidates. The stages share everything: the
    /// short-length HD screen's syndromes and certified-clean `d_min`
    /// ranges seed the full profile (staged-length-first, as in the
    /// paper's §4.1 funnel), the profile's searches seed the exact
    /// weight sweep, and the cached order serves `W₂` and the
    /// distinct-syndrome check for free.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from `crc-hd`.
    pub fn screen_in(
        g: &GenPoly,
        cfg: &CampaignConfig,
        ws: &mut SyndromeWorkspace,
    ) -> Result<Option<SurvivorRecord>> {
        // Funnel telemetry: one relaxed increment per stage reached, never
        // touching the evaluation itself (artifact bytes are unaffected).
        let funnel = crate::metrics::funnel();
        if let Some(f) = funnel {
            f.candidates.inc();
        }
        if !hd_filter_in(ws, g, cfg.screen_len(), cfg.min_hd)?.passed() {
            return Ok(None);
        }
        if let Some(f) = funnel {
            f.hd_pass.inc();
        }
        let profile = HdProfile::compute_in(ws, g, cfg.ref_len(), cfg.max_weight)?;
        if let Some(f) = funnel {
            f.profiled.inc();
        }
        let ref_len = cfg.ref_len();
        let w2 = ws.weight2(g, ref_len)?;
        let codeword = ref_len as u128 + g.width() as u128;
        let w34 = if codeword <= profile.order() {
            let w = ws.weights234(g, ref_len)?;
            debug_assert_eq!(w.w2, w2);
            if let Some(f) = funnel {
                f.weights.inc();
            }
            Some((w.w3, w.w4))
        } else {
            None
        };
        if let Some(f) = funnel {
            f.recorded.inc();
        }
        Ok(Some(SurvivorRecord {
            koopman: g.koopman(),
            width: g.width(),
            class: gf2poly::factor(g.to_poly()).signature().to_string(),
            taps: engine_cost(g).taps,
            order: profile.order(),
            dmins: profile.dmins().to_vec(),
            memo: ws.memo_facts(g),
            max_weight_explored: profile.max_weight_explored(),
            ref_len,
            w2,
            w34,
        }))
    }

    /// The generator this record describes.
    pub fn poly(&self) -> GenPoly {
        GenPoly::from_koopman(self.width, self.koopman).expect("validated at construction")
    }

    /// Rebuilds the HD profile over `1..=max_len` from the persisted
    /// parts (no `d_min` searches re-run). `max_len` is capped by the
    /// record's `ref_len` — the range the original computation explored;
    /// beyond it the persisted parts are censored and would over-report
    /// HD.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for `max_len` beyond `ref_len`; propagates
    /// `HdProfile::from_parts` validation errors.
    pub fn profile(&self, max_len: u32) -> Result<HdProfile> {
        if max_len > self.ref_len {
            return Err(Error::Config(format!(
                "profile range {max_len} exceeds the explored range {} of {}",
                self.ref_len,
                self.poly()
            )));
        }
        Ok(HdProfile::from_parts(
            &self.poly(),
            max_len,
            self.order,
            self.dmins.clone(),
            self.max_weight_explored,
        )?)
    }

    /// Recomputes the HD profile over `1..=max_len`, which — unlike
    /// [`SurvivorRecord::profile`] — may exceed the campaign's explored
    /// range: the record's persisted order and `d_min` memo are seeded
    /// into `ws` first, so every weight's scan *resumes* from the degree
    /// the campaign certified clean rather than restarting from `w − 1`.
    /// This is the second-pass entry point for re-profiling survivors at
    /// 8k–64k bits after a short-length census.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors from `crc-hd` (e.g. a weight ≥ 5
    /// search exceeding its budget at very long lengths).
    pub fn reprofile_in(
        &self,
        ws: &mut SyndromeWorkspace,
        max_len: u32,
        max_weight: u32,
    ) -> Result<HdProfile> {
        let g = self.poly();
        ws.seed_order(&g, self.order);
        ws.seed_memo(&g, &self.memo);
        Ok(HdProfile::compute_in(ws, &g, max_len, max_weight)?)
    }

    /// The probability of an undetected error at `ref_len` under a BSC
    /// with bit-error rate `ber`, from the exact low weights:
    /// `P_ud(ε) = Σ_k W_k ε^k (1−ε)^(L−k)` truncated at weight 4 — the
    /// paper's §2 dominant-term form (higher-weight terms are smaller by
    /// further powers of `ε`). Zero exactly when the polynomial holds
    /// `HD ≥ 5` at the reference length.
    pub fn p_ud(&self, ber: f64) -> f64 {
        // Explicit multiply chains instead of `powi`: the latter may
        // lower to platform libm, and leaderboard bytes must not depend
        // on the host (IEEE multiplication is exactly rounded
        // everywhere).
        fn powu(base: f64, exp: u32) -> f64 {
            let mut r = 1.0;
            for _ in 0..exp {
                r *= base;
            }
            r
        }
        let l = self.ref_len + self.width;
        let q = 1.0 - ber;
        let term = |w: u128, k: u32| w as f64 * powu(ber, k) * powu(q, l - k);
        let mut p = term(self.w2, 2);
        if let Some((w3, w4)) = self.w34 {
            p += term(w3, 3) + term(w4, 4);
        }
        p
    }

    /// The JSON form written into shard logs (orders and weight counts
    /// as decimal strings: they exceed `u64` at larger widths).
    pub fn to_json(&self) -> Json {
        let (w3, w4) = match self.w34 {
            Some((w3, w4)) => (Json::Str(w3.to_string()), Json::Str(w4.to_string())),
            None => (Json::Null, Json::Null),
        };
        Json::obj([
            ("koopman", Json::Str(format!("{:#X}", self.koopman))),
            ("width", Json::Int(self.width as u64)),
            ("class", Json::Str(self.class.clone())),
            ("taps", Json::Int(self.taps as u64)),
            ("order", Json::Str(self.order.to_string())),
            (
                "dmins",
                Json::Arr(
                    self.dmins
                        .iter()
                        .map(|&(w, d)| Json::Arr(vec![Json::Int(w as u64), Json::Int(d as u64)]))
                        .collect(),
                ),
            ),
            (
                "memo",
                Json::Arr(
                    self.memo
                        .iter()
                        .map(|&(w, fact)| {
                            let (kind, val) = match fact {
                                MemoFact::MinDegree(d) => ("min", d),
                                MemoFact::ZeroBelow(t) => ("zero_below", t),
                            };
                            Json::Arr(vec![
                                Json::Int(w as u64),
                                Json::Str(kind.into()),
                                Json::Int(val as u64),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "max_weight_explored",
                Json::Int(self.max_weight_explored as u64),
            ),
            ("ref_len", Json::Int(self.ref_len as u64)),
            ("w2", Json::Str(self.w2.to_string())),
            ("w3", w3),
            ("w4", w4),
        ])
    }

    /// Parses a record back from its JSON form.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on any schema mismatch.
    pub fn from_json(v: &Json) -> Result<SurvivorRecord> {
        let koopman_text = v
            .require("koopman")?
            .as_str()
            .ok_or_else(|| Error::Parse("koopman is not a string".into()))?;
        let koopman = koopman_text
            .strip_prefix("0x")
            .or_else(|| koopman_text.strip_prefix("0X"))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| Error::Parse(format!("bad koopman value {koopman_text:?}")))?;
        let parse_u128 = |key: &str| -> Result<u128> {
            v.require(key)?
                .as_str()
                .and_then(|s| s.parse::<u128>().ok())
                .ok_or_else(|| Error::Parse(format!("{key} is not a decimal string")))
        };
        let w34 = match (v.require("w3")?, v.require("w4")?) {
            (Json::Null, Json::Null) => None,
            _ => Some((parse_u128("w3")?, parse_u128("w4")?)),
        };
        let dmins = v
            .require("dmins")?
            .as_arr()
            .ok_or_else(|| Error::Parse("dmins is not an array".into()))?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| Error::Parse("dmins entry is not a pair".into()))?;
                Ok((
                    pair[0]
                        .as_u32()
                        .ok_or_else(|| Error::Parse("bad dmin weight".into()))?,
                    pair[1]
                        .as_u32()
                        .ok_or_else(|| Error::Parse("bad dmin degree".into()))?,
                ))
            })
            .collect::<Result<Vec<(u32, u32)>>>()?;
        let memo = v
            .require("memo")?
            .as_arr()
            .ok_or_else(|| Error::Parse("memo is not an array".into()))?
            .iter()
            .map(|entry| {
                let entry = entry
                    .as_arr()
                    .filter(|e| e.len() == 3)
                    .ok_or_else(|| Error::Parse("memo entry is not a triple".into()))?;
                let w = entry[0]
                    .as_u32()
                    .ok_or_else(|| Error::Parse("bad memo weight".into()))?;
                let val = entry[2]
                    .as_u32()
                    .ok_or_else(|| Error::Parse("bad memo value".into()))?;
                let fact = match entry[1].as_str() {
                    Some("min") => MemoFact::MinDegree(val),
                    Some("zero_below") => MemoFact::ZeroBelow(val),
                    other => return Err(Error::Parse(format!("bad memo kind {other:?}"))),
                };
                Ok((w, fact))
            })
            .collect::<Result<Vec<(u32, MemoFact)>>>()?;
        let rec = SurvivorRecord {
            koopman,
            width: require_u32(v, "width")?,
            class: v
                .require("class")?
                .as_str()
                .ok_or_else(|| Error::Parse("class is not a string".into()))?
                .to_string(),
            taps: require_u32(v, "taps")?,
            order: parse_u128("order")?,
            dmins,
            memo,
            max_weight_explored: require_u32(v, "max_weight_explored")?,
            ref_len: require_u32(v, "ref_len")?,
            w2: parse_u128("w2")?,
            w34,
        };
        // Round-trip sanity: the koopman value must denote a valid
        // generator of the recorded width.
        GenPoly::from_koopman(rec.width, rec.koopman)
            .map_err(|e| Error::Parse(format!("invalid survivor polynomial: {e}")))?;
        Ok(rec)
    }
}

/// The result of processing one shard: what the log file records.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardResult {
    /// The unit that was processed.
    pub unit: WorkUnit,
    /// Polynomials examined (range size, or deduplicated draws).
    pub scanned: u64,
    /// Canonical representatives among them (reciprocal pairing).
    pub canonical: u64,
    /// Survivors, ascending by Koopman value.
    pub survivors: Vec<SurvivorRecord>,
}

impl ShardResult {
    /// The shard-log JSON document.
    pub fn to_json(&self, config_hash: u64) -> Json {
        Json::obj([
            ("format", Json::Str("crc-survey-shard".into())),
            ("version", Json::Int(FORMAT_VERSION)),
            ("config_hash", Json::Str(format!("{config_hash:#018x}"))),
            ("shard", Json::Int(self.unit.shard)),
            ("start", Json::Int(self.unit.start)),
            ("end", Json::Int(self.unit.end)),
            ("scanned", Json::Int(self.scanned)),
            ("canonical", Json::Int(self.canonical)),
            (
                "survivors",
                Json::Arr(self.survivors.iter().map(|s| s.to_json()).collect()),
            ),
        ])
    }

    /// Parses a shard log, checking format, version and campaign
    /// identity.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on schema or identity mismatch.
    pub fn from_json(v: &Json, config_hash: u64) -> Result<ShardResult> {
        check_header(v, "crc-survey-shard", config_hash)?;
        Ok(ShardResult {
            unit: WorkUnit {
                shard: require_u64(v, "shard")?,
                start: require_u64(v, "start")?,
                end: require_u64(v, "end")?,
            },
            scanned: require_u64(v, "scanned")?,
            canonical: require_u64(v, "canonical")?,
            survivors: v
                .require("survivors")?
                .as_arr()
                .ok_or_else(|| Error::Parse("survivors is not an array".into()))?
                .iter()
                .map(SurvivorRecord::from_json)
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

/// Validates the `format`/`version`/`config_hash` header common to all
/// campaign artifacts.
pub(crate) fn check_header(v: &Json, format: &str, config_hash: u64) -> Result<()> {
    match v.require("format")?.as_str() {
        Some(f) if f == format => {}
        other => {
            return Err(Error::Parse(format!(
                "expected format {format:?}, found {other:?}"
            )))
        }
    }
    match require_u64(v, "version")? {
        FORMAT_VERSION => {}
        other => {
            return Err(Error::Parse(format!(
                "unsupported format version {other} (expected {FORMAT_VERSION})"
            )))
        }
    }
    let expect = format!("{config_hash:#018x}");
    match v.require("config_hash")?.as_str() {
        Some(h) if h == expect => Ok(()),
        other => Err(Error::Parse(format!(
            "artifact belongs to a different campaign: config hash {other:?}, expected {expect}"
        ))),
    }
}

/// The `campaign.json` checkpoint: config identity plus the set of
/// completed shards. Written atomically when a campaign is created and
/// again when its last shard completes; completions in between are
/// recorded in the campaign journal (see [`crate::engine`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The campaign parameters.
    pub config: CampaignConfig,
    /// Completed shard ids (sorted; `BTreeSet` keeps the JSON stable).
    pub completed: std::collections::BTreeSet<u64>,
}

impl Checkpoint {
    /// The checkpoint JSON document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format", Json::Str("crc-survey-campaign".into())),
            ("version", Json::Int(FORMAT_VERSION)),
            (
                "config_hash",
                Json::Str(format!("{:#018x}", self.config.content_hash())),
            ),
            ("config", self.config.to_json()),
            (
                "completed",
                Json::Arr(self.completed.iter().map(|&s| Json::Int(s)).collect()),
            ),
        ])
    }

    /// Parses a checkpoint, re-deriving and verifying the config hash.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on schema problems or identity mismatch.
    pub fn from_json(v: &Json) -> Result<Checkpoint> {
        let config = CampaignConfig::from_json(v.require("config")?)?;
        check_header(v, "crc-survey-campaign", config.content_hash())?;
        let completed = v
            .require("completed")?
            .as_arr()
            .ok_or_else(|| Error::Parse("completed is not an array".into()))?
            .iter()
            .map(|x| {
                x.as_u64()
                    .ok_or_else(|| Error::Parse("bad shard id".into()))
            })
            .collect::<Result<std::collections::BTreeSet<u64>>>()?;
        for &shard in &completed {
            if shard >= config.shards {
                return Err(Error::Parse(format!(
                    "completed shard {shard} outside 0..{}",
                    config.shards
                )));
            }
        }
        Ok(Checkpoint { config, completed })
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Error {
        Error::Parse(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crc_hd::weights::{weight2, weights234};

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            width: 12,
            shards: 7,
            seed: 42,
            mode: Mode::Exhaustive,
            min_hd: 4,
            target_lengths: vec![64, 256, 1024],
            ber_grid: vec![1e-5, 1e-6],
            max_weight: 8,
        }
    }

    #[test]
    fn work_units_partition_the_space_exactly() {
        let c = cfg();
        let units = c.work_units();
        assert_eq!(units.len(), 7);
        assert_eq!(units[0].start, 0);
        assert_eq!(units.last().unwrap().end, c.space().total());
        for pair in units.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Degenerate split: more shards than needed still covers exactly.
        let mut narrow = cfg();
        narrow.width = 3;
        narrow.shards = 4;
        let units = narrow.work_units();
        assert_eq!(units.iter().map(|u| u.end - u.start).sum::<u64>(), 4);
        // The O(1) accessor agrees with the list in every mode.
        let mut sampled = cfg();
        sampled.mode = Mode::Sampled { per_shard: 50 };
        let census = CampaignConfig {
            shards: 12,
            mode: Mode::Census {
                per_stratum: 30,
                classes: vec![],
            },
            ..cfg()
        };
        for c in [cfg(), narrow, sampled, census] {
            c.validate().unwrap();
            let units = c.work_units();
            assert_eq!(units.len() as u64, c.shards);
            for (s, unit) in units.iter().enumerate() {
                assert_eq!(c.work_unit(s as u64), *unit, "{:?} shard {s}", c.mode);
            }
        }
    }

    /// `doc` with the integer field `key` raised by 2³²: a value a `u32`
    /// cast would wrap back to the original.
    fn wrapped_past_u32(doc: &Json, key: &str) -> Json {
        let Json::Obj(pairs) = doc else {
            panic!("not an object")
        };
        let mut pairs = pairs.clone();
        let field = pairs.iter_mut().find(|(k, _)| k == key).expect("field");
        let n = field.1.as_u64().expect("integer field");
        field.1 = Json::Int(n + (1 << 32));
        Json::Obj(pairs)
    }

    #[test]
    fn config_json_round_trip_and_hash_stability() {
        for mode in [Mode::Exhaustive, Mode::Sampled { per_shard: 50 }] {
            let mut c = cfg();
            c.mode = mode;
            let back = CampaignConfig::from_json(&c.to_json()).unwrap();
            assert_eq!(back, c);
            assert_eq!(back.content_hash(), c.content_hash());
        }
        // The hash is sensitive to every parameter.
        let mut other = cfg();
        other.seed += 1;
        assert_ne!(other.content_hash(), cfg().content_hash());
        // Out-of-range 32-bit fields are refused, not truncated.
        for key in ["width", "min_hd", "max_weight"] {
            let doc = wrapped_past_u32(&cfg().to_json(), key);
            assert!(
                matches!(CampaignConfig::from_json(&doc), Err(Error::Parse(_))),
                "{key}"
            );
        }
    }

    #[test]
    fn config_validation_rejects_bad_parameters() {
        let mut c = cfg();
        c.width = 2;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.shards = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.target_lengths = vec![64, 64];
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.ber_grid = vec![0.7];
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.max_weight = 3;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.mode = Mode::Sampled { per_shard: 0 };
        assert!(c.validate().is_err());
        assert!(cfg().validate().is_ok());
    }

    #[test]
    fn unit_seed_matches_the_netsim_idiom() {
        assert_ne!(unit_seed(1, 0, 0), unit_seed(1, 0, 1));
        assert_ne!(unit_seed(1, 0, 0), unit_seed(1, 1, 0));
        assert_ne!(unit_seed(1, 0, 0), unit_seed(2, 0, 0));
        assert_eq!(unit_seed(7, 3, 1), unit_seed(7, 3, 1));
    }

    #[test]
    fn survivor_record_evaluates_and_round_trips() {
        let c = cfg();
        // 0xBA9 is some 12-bit generator; screen a few until one passes.
        let mut found = None;
        for g in c.space().iter_range(0, 512) {
            if let Some(rec) = SurvivorRecord::screen(&g, &c).unwrap() {
                found = Some(rec);
                break;
            }
        }
        let rec = found.expect("some 12-bit polynomial reaches HD 4 at 64 bits");
        let back = SurvivorRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
        // Out-of-range 32-bit fields are refused, not truncated.
        for key in ["width", "taps", "max_weight_explored", "ref_len"] {
            let doc = wrapped_past_u32(&rec.to_json(), key);
            assert!(
                matches!(SurvivorRecord::from_json(&doc), Err(Error::Parse(_))),
                "{key}"
            );
        }
        // The rebuilt profile answers HD queries at every target length.
        let profile = back.profile(c.ref_len()).unwrap();
        for &n in &c.target_lengths {
            let _ = profile.hd_at(n);
        }
        assert!(profile.hd_at(c.screen_len()).is_none_or(|hd| hd >= 4));
        // Rebuilding past the explored range is refused (the parts are
        // censored at the original degree cap).
        assert!(matches!(
            back.profile(c.ref_len() + 1),
            Err(Error::Config(_))
        ));
        // P_ud is monotone in BER on the grid region.
        assert!(rec.p_ud(1e-5) >= rec.p_ud(1e-6));
    }

    #[test]
    fn weights_in_record_match_direct_computation() {
        let c = CampaignConfig {
            target_lengths: vec![16, 100],
            ..cfg()
        };
        for g in c.space().iter_range(100, 300) {
            if let Some(rec) = SurvivorRecord::screen(&g, &c).unwrap() {
                let codeword = 100u128 + 12;
                if codeword <= rec.order {
                    let w = weights234(&g, 100).unwrap();
                    assert_eq!(rec.w34, Some((w.w3, w.w4)));
                    assert_eq!(rec.w2, w.w2);
                } else {
                    assert_eq!(rec.w34, None);
                    assert_eq!(rec.w2, weight2(&g, 100).unwrap());
                }
            }
        }
    }

    #[test]
    fn checkpoint_round_trip_and_identity_guard() {
        let mut ck = Checkpoint {
            config: cfg(),
            completed: [0u64, 3, 5].into_iter().collect(),
        };
        let back = Checkpoint::from_json(&ck.to_json()).unwrap();
        assert_eq!(back, ck);
        // A completed shard outside the range is rejected.
        ck.completed.insert(99);
        assert!(Checkpoint::from_json(&ck.to_json()).is_err());
        // A shard log from a different campaign is rejected.
        let sr = ShardResult {
            unit: WorkUnit {
                shard: 0,
                start: 0,
                end: 10,
            },
            scanned: 10,
            canonical: 5,
            survivors: vec![],
        };
        let logged = sr.to_json(cfg().content_hash());
        assert!(ShardResult::from_json(&logged, cfg().content_hash()).is_ok());
        assert!(ShardResult::from_json(&logged, 12345).is_err());
    }
}
