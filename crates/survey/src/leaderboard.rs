//! Leaderboard reporting: the paper's "best polynomial per length
//! regime" table, regenerated from a completed campaign.
//!
//! For every target length the survivors are ranked by `(HD, P_ud at
//! the head of the BER grid, taps, Koopman value)` — HD first because it
//! is the paper's headline measure, P_ud to split polynomials with
//! equal HD by their exact low-weight structure, taps as the hardware
//! tie-break, Koopman value last so the order is total and the rendered
//! artifact is byte-deterministic. Entries on the campaign's Pareto
//! frontier are flagged.
//!
//! A 32-bit spot-check section places the paper's own polynomials
//! (IEEE 802.3, Castagnoli's CRC-32C, Koopman's `0xBA0DC66B`) exactly
//! where Table 1 puts them, so every leaderboard carries its own anchor
//! against the source material.

use crate::campaign::{CampaignConfig, SurvivorRecord, FORMAT_VERSION};
use crate::engine::Campaign;
use crate::json::Json;
use crate::pareto::{frontier_indices, Objectives, PudAxis};
use crate::Result;
use crc_hd::profile::HdProfile;
use crc_hd::report::TextTable;
use crc_hd::GenPoly;

/// The paper's 32-bit reference polynomials for the spot-check section.
pub const NOTABLES_32: [(u64, &str); 3] = [
    (0x82608EDB, "IEEE 802.3"),
    (0x8F6E37A0, "Castagnoli CRC-32C (iSCSI)"),
    (0xBA0DC66B, "Koopman 0xBA0DC66B"),
];

/// The Ethernet MTU data-word length the spot checks anchor at.
pub const MTU_BITS: u32 = 12_112;

/// Leaderboard construction options.
#[derive(Debug, Clone, Copy)]
pub struct LeaderboardOptions {
    /// Entries kept per length regime.
    pub top: usize,
    /// Include the 32-bit paper spot-check section (three `HdProfile`
    /// computations out to ~16 Kbit; cheap in release builds, skippable
    /// in tight test loops).
    pub spot_check_32: bool,
    /// Which P_ud computation ranks the board and feeds the frontier.
    /// The default [`PudAxis::Truncated`] keeps the artifact bytes
    /// identical to the pre-distribution era (the golden leaderboard
    /// pins them); [`PudAxis::Exact`] recomputes every curve from the
    /// full weight distribution and stamps a `p_ud_axis` key into the
    /// document so the two artifacts can never be confused.
    pub pud_axis: PudAxis,
}

impl Default for LeaderboardOptions {
    fn default() -> LeaderboardOptions {
        LeaderboardOptions {
            top: 5,
            spot_check_32: true,
            pud_axis: PudAxis::Truncated,
        }
    }
}

/// Builds the leaderboard document for a completed campaign.
///
/// # Errors
///
/// [`crate::Error::Incomplete`] while shards are outstanding; IO/parse
/// errors from the shard logs.
pub fn build(campaign: &Campaign, opts: &LeaderboardOptions) -> Result<Json> {
    let survivors = campaign.survivors()?;
    build_from_records(campaign.config(), &survivors, opts)
}

/// Builds the leaderboard from already-loaded records (the example and
/// tests drive this directly).
///
/// # Errors
///
/// Propagates objective-evaluation errors from corrupt records.
pub fn build_from_records(
    cfg: &CampaignConfig,
    survivors: &[SurvivorRecord],
    opts: &LeaderboardOptions,
) -> Result<Json> {
    let objectives: Vec<Objectives> = survivors
        .iter()
        .map(|r| Objectives::evaluate_with(r, cfg, opts.pud_axis))
        .collect::<Result<_>>()?;
    let front = frontier_indices(&objectives);
    let on_front: std::collections::HashSet<usize> = front.iter().copied().collect();
    let head_ber = cfg.ber_grid[0];

    let mut regimes = Vec::new();
    for (li, &len) in cfg.target_lengths.iter().enumerate() {
        let mut order: Vec<usize> = (0..survivors.len()).collect();
        order.sort_by(|&a, &b| {
            let hd_a = objectives[a].hds[li].unwrap_or(u32::MAX);
            let hd_b = objectives[b].hds[li].unwrap_or(u32::MAX);
            hd_b.cmp(&hd_a)
                .then_with(|| objectives[a].p_ud[0].total_cmp(&objectives[b].p_ud[0]))
                .then_with(|| survivors[a].taps.cmp(&survivors[b].taps))
                .then_with(|| survivors[a].koopman.cmp(&survivors[b].koopman))
        });
        let entries: Vec<Json> = order
            .iter()
            .take(opts.top)
            .enumerate()
            .map(|(rank, &i)| {
                let rec = &survivors[i];
                Json::obj([
                    ("rank", Json::Int(rank as u64 + 1)),
                    ("poly", Json::Str(rec.poly().to_string())),
                    ("class", Json::Str(rec.class.clone())),
                    (
                        "hd",
                        match objectives[i].hds[li] {
                            Some(h) => Json::Int(h as u64),
                            None => Json::Null,
                        },
                    ),
                    (
                        "p_ud_ref",
                        Json::Str(format!("{:e}", objectives[i].p_ud[0])),
                    ),
                    ("taps", Json::Int(rec.taps as u64)),
                    ("pareto", Json::Bool(on_front.contains(&i))),
                ])
            })
            .collect();
        regimes.push(Json::obj([
            ("data_len", Json::Int(len as u64)),
            ("entries", Json::Arr(entries)),
        ]));
    }

    let front_json: Vec<Json> = front
        .iter()
        .map(|&i| {
            let (rec, o) = (&survivors[i], &objectives[i]);
            Json::obj([
                ("poly", Json::Str(rec.poly().to_string())),
                ("class", Json::Str(rec.class.clone())),
                ("taps", Json::Int(rec.taps as u64)),
                (
                    "hds",
                    Json::Arr(
                        o.hds
                            .iter()
                            .map(|hd| match hd {
                                Some(h) => Json::Int(*h as u64),
                                None => Json::Null,
                            })
                            .collect(),
                    ),
                ),
                (
                    "p_ud",
                    Json::Arr(o.p_ud.iter().map(|p| Json::Str(format!("{p:e}"))).collect()),
                ),
            ])
        })
        .collect();

    let mut doc = vec![
        (
            "format".to_string(),
            Json::Str("crc-survey-leaderboard".into()),
        ),
        ("version".to_string(), Json::Int(FORMAT_VERSION)),
        (
            "config_hash".to_string(),
            Json::Str(format!("{:#018x}", cfg.content_hash())),
        ),
        ("config".to_string(), cfg.to_json()),
        ("survivors".to_string(), Json::Int(survivors.len() as u64)),
        ("head_ber".to_string(), Json::Num(head_ber)),
        ("regimes".to_string(), Json::Arr(regimes)),
        ("pareto_front".to_string(), Json::Arr(front_json)),
    ];
    // Stamped ONLY on the exact axis: the default truncated artifact
    // must stay byte-identical to the golden leaderboard.
    if opts.pud_axis == PudAxis::Exact {
        doc.insert(5, ("p_ud_axis".to_string(), Json::Str("exact".into())));
    }
    if opts.spot_check_32 {
        doc.push(("notables_32bit".to_string(), spot_check_32()?));
    }
    Ok(Json::Obj(doc))
}

/// The Table 1 anchor section: HD at the Ethernet MTU and the HD=6
/// boundary for the paper's three reference polynomials, plus the
/// derived regime verdict.
///
/// # Errors
///
/// Propagates profile-computation errors (not reachable for these fixed
/// inputs).
pub fn spot_check_32() -> Result<Json> {
    // Far enough to capture 0xBA0DC66B's HD=6 boundary at 16,360 bits.
    let profile_len = 17_000;
    let mut entries = Vec::new();
    let mut best: Option<(u64, u32)> = None;
    for (koopman, name) in NOTABLES_32 {
        let g = GenPoly::from_koopman(32, koopman).expect("paper constant");
        let p = HdProfile::compute(&g, profile_len)?;
        let hd_mtu = p.hd_at(MTU_BITS).expect("32-bit polys have finite HD here");
        if best.is_none_or(|(_, h)| hd_mtu > h) {
            best = Some((koopman, hd_mtu));
        }
        entries.push(Json::obj([
            ("poly", Json::Str(g.to_string())),
            ("name", Json::Str(name.into())),
            ("hd_at_mtu", Json::Int(hd_mtu as u64)),
            (
                "max_len_hd6",
                match p.max_len_for_hd(6) {
                    Some(n) => Json::Int(n as u64),
                    None => Json::Null,
                },
            ),
            (
                "taps",
                Json::Int(crc_hd::costmodel::engine_cost(&g).taps as u64),
            ),
        ]));
    }
    let (winner, hd) = best.expect("three notables");
    Ok(Json::obj([
        ("mtu_bits", Json::Int(MTU_BITS as u64)),
        ("entries", Json::Arr(entries)),
        (
            "mtu_winner",
            Json::Str(format!("{}", GenPoly::from_koopman(32, winner).unwrap())),
        ),
        ("mtu_winner_hd", Json::Int(hd as u64)),
    ]))
}

/// Renders a leaderboard document as human-readable tables (one per
/// length regime) and as a **single** CSV document: one header, a
/// `data_len` column attributing every row to its regime, all cells
/// through `core::report`'s escaping (class signatures like `{1,3,28}`
/// must survive the CSV trip intact).
pub fn render_tables(doc: &Json) -> (String, String) {
    const COLUMNS: [&str; 7] = ["rank", "poly", "class", "hd", "p_ud_ref", "taps", "pareto"];
    let mut text = String::new();
    let mut combined = TextTable::new(
        std::iter::once("data_len")
            .chain(COLUMNS)
            .map(str::to_string),
    );
    if let Some(regimes) = doc.get("regimes").and_then(|r| r.as_arr()) {
        for regime in regimes {
            let len = regime.get("data_len").and_then(|v| v.as_u64()).unwrap_or(0);
            let mut t = TextTable::new(COLUMNS);
            for e in regime
                .get("entries")
                .and_then(|v| v.as_arr())
                .unwrap_or(&[])
            {
                let cell = |k: &str| -> String {
                    match e.get(k) {
                        Some(Json::Str(s)) => s.clone(),
                        Some(Json::Int(n)) => n.to_string(),
                        Some(Json::Bool(b)) => b.to_string(),
                        Some(Json::Null) => format!(
                            ">{}",
                            doc.get("config")
                                .and_then(|c| c.get("max_weight"))
                                .and_then(|v| v.as_u64())
                                .unwrap_or(0)
                        ),
                        _ => String::new(),
                    }
                };
                t.push_row(COLUMNS.map(cell));
                combined.push_row(std::iter::once(len.to_string()).chain(COLUMNS.map(cell)));
            }
            text.push_str(&format!("best polynomials at {len} data bits:\n"));
            text.push_str(&t.render());
            text.push('\n');
        }
    }
    (text, combined.to_csv())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Mode;

    fn records_for(cfg: &CampaignConfig) -> Vec<SurvivorRecord> {
        cfg.space()
            .iter_all()
            .filter(|g| g.koopman() <= g.reciprocal().koopman())
            .filter_map(|g| SurvivorRecord::screen(&g, cfg).unwrap())
            .collect()
    }

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            width: 10,
            shards: 4,
            seed: 3,
            mode: Mode::Exhaustive,
            min_hd: 4,
            target_lengths: vec![16, 48],
            ber_grid: vec![1e-4, 1e-6],
            max_weight: 6,
        }
    }

    #[test]
    fn leaderboard_is_sorted_and_flags_the_front() {
        let c = cfg();
        let recs = records_for(&c);
        let doc = build_from_records(
            &c,
            &recs,
            &LeaderboardOptions {
                top: 8,
                spot_check_32: false,
                ..Default::default()
            },
        )
        .unwrap();
        let regimes = doc.get("regimes").unwrap().as_arr().unwrap();
        assert_eq!(regimes.len(), 2);
        for regime in regimes {
            let entries = regime.get("entries").unwrap().as_arr().unwrap();
            assert!(!entries.is_empty() && entries.len() <= 8);
            // HD non-increasing down the board (None sorts above all).
            let hd = |e: &Json| -> u64 { e.get("hd").and_then(|v| v.as_u64()).unwrap_or(u64::MAX) };
            for pair in entries.windows(2) {
                assert!(hd(&pair[0]) >= hd(&pair[1]));
            }
            // Rank 1 of the shortest regime meets the screen bar.
            assert!(hd(&entries[0]) >= 4);
        }
        // The top entry of every regime is Pareto-optimal or beaten only
        // on other axes; at minimum the flagged set is non-empty.
        assert!(!doc
            .get("pareto_front")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        // Determinism: building twice renders identical bytes.
        let again = build_from_records(
            &c,
            &recs,
            &LeaderboardOptions {
                top: 8,
                spot_check_32: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(again.render(), doc.render());
    }

    #[test]
    fn exact_axis_stamps_the_document_and_truncated_does_not() {
        let c = cfg();
        let recs = records_for(&c);
        let truncated = build_from_records(
            &c,
            &recs,
            &LeaderboardOptions {
                top: 3,
                spot_check_32: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            truncated.get("p_ud_axis").is_none(),
            "default artifact must keep the golden byte layout"
        );
        let exact = build_from_records(
            &c,
            &recs,
            &LeaderboardOptions {
                top: 3,
                spot_check_32: false,
                pud_axis: PudAxis::Exact,
            },
        )
        .unwrap();
        assert_eq!(exact.get("p_ud_axis").and_then(Json::as_str), Some("exact"));
        // The exact axis really recomputes the curves: at least one
        // p_ud_ref cell differs from the truncated artifact (weight-5+
        // terms are strictly positive for these codes).
        assert_ne!(truncated.render(), exact.render());
        // And the exact build is itself deterministic.
        let again = build_from_records(
            &c,
            &recs,
            &LeaderboardOptions {
                top: 3,
                spot_check_32: false,
                pud_axis: PudAxis::Exact,
            },
        )
        .unwrap();
        assert_eq!(again.render(), exact.render());
    }

    #[test]
    fn tables_round_class_signatures_through_csv() {
        let c = cfg();
        let recs = records_for(&c);
        let doc = build_from_records(
            &c,
            &recs,
            &LeaderboardOptions {
                top: 3,
                spot_check_32: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (text, csv) = render_tables(&doc);
        assert!(text.contains("best polynomials at 16 data bits"));
        // One CSV document: a single header, rows attributed by length.
        assert_eq!(
            csv.lines()
                .filter(|l| l.starts_with("data_len,rank,"))
                .count(),
            1
        );
        assert!(csv.lines().any(|l| l.starts_with("16,1,")));
        assert!(csv.lines().any(|l| l.starts_with("48,1,")));
        // Multi-factor class signatures contain commas: they must appear
        // quoted in the CSV, never bare.
        if let Some(line) = csv.lines().find(|l| l.contains("{") && l.contains(",")) {
            let class_start = line.find('{').unwrap();
            assert_eq!(
                &line[class_start - 1..class_start],
                "\"",
                "class cell must be quoted: {line}"
            );
        }
    }

    #[test]
    fn spot_check_places_the_paper_polynomials() {
        let sc = spot_check_32().unwrap();
        let entries = sc.get("entries").unwrap().as_arr().unwrap();
        let by_name = |tag: &str| -> &Json {
            entries
                .iter()
                .find(|e| e.get("name").unwrap().as_str().unwrap().contains(tag))
                .unwrap()
        };
        // Table 1: 802.3 and CRC-32C sit at HD=4 at the MTU; 0xBA0DC66B
        // holds HD=6. HD=6 boundaries: 268 / 5,243 / 16,360.
        let ieee = by_name("802.3");
        assert_eq!(ieee.get("hd_at_mtu").unwrap().as_u64(), Some(4));
        assert_eq!(ieee.get("max_len_hd6").unwrap().as_u64(), Some(268));
        let cast = by_name("Castagnoli");
        assert_eq!(cast.get("hd_at_mtu").unwrap().as_u64(), Some(4));
        assert_eq!(cast.get("max_len_hd6").unwrap().as_u64(), Some(5_243));
        let koop = by_name("BA0DC66B");
        assert_eq!(koop.get("hd_at_mtu").unwrap().as_u64(), Some(6));
        assert_eq!(koop.get("max_len_hd6").unwrap().as_u64(), Some(16_360));
        assert_eq!(
            sc.get("mtu_winner").unwrap().as_str(),
            Some("0xBA0DC66B"),
            "the paper's proposed polynomial wins the MTU regime"
        );
        assert_eq!(sc.get("mtu_winner_hd").unwrap().as_u64(), Some(6));
    }
}
