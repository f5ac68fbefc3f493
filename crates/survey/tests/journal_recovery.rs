//! Torn-write and corruption drill for the completion journal: a 13-bit
//! campaign stopped after a few shards has its journal or shard logs
//! damaged in every way a crash or a bad disk can damage them, and each
//! damaged directory must open, resume, and end byte-identical to an
//! uninterrupted run (manifest, every shard log, leaderboard).

use crc_survey::campaign::{CampaignConfig, Checkpoint, Mode};
use crc_survey::engine::Campaign;
use crc_survey::leaderboard::{build, LeaderboardOptions};
use crc_survey::Error;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Shards completed before the damage.
const STOP_AFTER: u64 = 5;

fn config() -> CampaignConfig {
    CampaignConfig {
        width: 13,
        shards: 8,
        seed: 7,
        mode: Mode::Exhaustive,
        min_hd: 4,
        target_lengths: vec![32, 128],
        ber_grid: vec![1e-4, 1e-6],
        max_weight: 6,
    }
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crc-journal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Manifest, shard logs and leaderboard of a complete campaign.
fn artifacts(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let campaign = Campaign::open(dir).unwrap();
    assert!(campaign.is_complete(), "{}", dir.display());
    let mut out = vec![(
        "campaign.json".to_string(),
        std::fs::read(dir.join("campaign.json")).unwrap(),
    )];
    for shard in 0..config().shards {
        let path = campaign.shard_log_path(shard);
        out.push((format!("shard {shard}"), std::fs::read(&path).unwrap()));
    }
    let opts = LeaderboardOptions {
        top: 5,
        spot_check_32: false,
        ..Default::default()
    };
    let board = build(&campaign, &opts).unwrap();
    out.push(("leaderboard".to_string(), board.render().into_bytes()));
    out
}

/// The artifacts of an uninterrupted run, computed once per process.
fn golden() -> &'static [(String, Vec<u8>)] {
    static GOLDEN: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let dir = test_dir("golden");
        Campaign::create(&dir, config())
            .unwrap()
            .run(2, None)
            .unwrap();
        let bytes = artifacts(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// A campaign stopped after `STOP_AFTER` shards.
fn stopped(tag: &str) -> PathBuf {
    let dir = test_dir(tag);
    Campaign::create(&dir, config())
        .unwrap()
        .run(2, Some(STOP_AFTER))
        .unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst.join("shards")).unwrap();
    for sub in ["", "shards"] {
        for entry in std::fs::read_dir(src.join(sub)).unwrap() {
            let path = entry.unwrap().path();
            if path.is_file() {
                std::fs::copy(&path, dst.join(sub).join(path.file_name().unwrap())).unwrap();
            }
        }
    }
}

fn journal(dir: &Path) -> PathBuf {
    dir.join("campaign.journal")
}

fn dropped() -> u64 {
    match telemetry::global().get("survey.engine.journal_dropped") {
        Some(telemetry::Metric::Counter(c)) => c.get(),
        _ => 0,
    }
}

/// Opens the damaged campaign, checks it counts `expect_done` shards,
/// resumes it to completion and compares against the golden bytes. Then
/// checks the writer repaired the journal: every line is intact.
fn resume_to_golden(dir: &Path, expect_done: u64, case: &str) {
    let mut campaign = Campaign::open(dir).unwrap_or_else(|e| panic!("{case}: open: {e}"));
    assert_eq!(campaign.progress().0, expect_done, "{case}");
    campaign.run(2, None).unwrap();
    assert!(campaign.is_complete(), "{case}");
    let got = artifacts(dir);
    for ((name, want), (_, have)) in golden().iter().zip(&got) {
        assert!(
            want == have,
            "{case}: {name} differs from the uninterrupted run"
        );
    }
    let text = std::fs::read_to_string(journal(dir)).unwrap();
    assert!(text.ends_with('\n'), "{case}: journal ends in a torn line");
    for line in text.lines().skip(1) {
        if crc_survey::frame::decode(line).is_err() {
            // Only a damaged middle line may remain (append-only).
            assert!(
                case.starts_with("flip"),
                "{case}: bad journal line {line:?}"
            );
        }
    }
}

#[test]
fn truncating_the_journal_at_every_offset_resumes_to_golden_bytes() {
    let base = stopped("trunc-base");
    let full = std::fs::read(journal(&base)).unwrap();
    let line_ends: Vec<usize> = (0..full.len()).filter(|&i| full[i] == b'\n').collect();
    assert_eq!(
        line_ends.len() as u64,
        1 + STOP_AFTER,
        "header + one line per shard"
    );
    let dir = test_dir("trunc");
    for cut in 0..=full.len() {
        copy_dir(&base, &dir);
        std::fs::OpenOptions::new()
            .write(true)
            .open(journal(&dir))
            .unwrap()
            .set_len(cut as u64)
            .unwrap();
        // Whole shard lines that survive the cut (the header must too).
        let whole = line_ends.iter().filter(|&&end| end < cut).count() as u64;
        resume_to_golden(&dir, whole.saturating_sub(1), &format!("cut at {cut}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_bit_flip_in_a_middle_line_costs_that_line_only() {
    let base = stopped("flip-base");
    let full = std::fs::read(journal(&base)).unwrap();
    let line_ends: Vec<usize> = (0..full.len()).filter(|&i| full[i] == b'\n').collect();
    // Line 3 of 1 + STOP_AFTER: a shard line with whole lines around it.
    let (start, end) = (line_ends[2] + 1, line_ends[3]);
    let dir = test_dir("flip");
    for (pos, bit) in [
        (start, 0),
        ((start + end) / 2, 3),
        (end - 1, 6),
        (end - 4, 1),
    ] {
        copy_dir(&base, &dir);
        let mut bytes = full.clone();
        bytes[pos] ^= 1 << bit;
        std::fs::write(journal(&dir), &bytes).unwrap();
        let before = dropped();
        resume_to_golden(
            &dir,
            STOP_AFTER - 1,
            &format!("flip bit {bit} of byte {pos}"),
        );
        assert!(dropped() > before, "the rejected line is counted");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn truncated_or_deleted_shard_logs_are_recomputed() {
    let base = stopped("log-base");
    let victim = Campaign::open(&base).unwrap().shard_log_path(2);
    let len = std::fs::metadata(&victim).unwrap().len();
    let dir = test_dir("log");
    for (case, new_len) in [
        ("truncate to zero", Some(0)),
        ("truncate to half", Some(len / 2)),
        ("delete", None),
    ] {
        copy_dir(&base, &dir);
        let log = dir.join("shards").join(victim.file_name().unwrap());
        match new_len {
            Some(n) => std::fs::OpenOptions::new()
                .write(true)
                .open(&log)
                .unwrap()
                .set_len(n)
                .unwrap(),
            None => std::fs::remove_file(&log).unwrap(),
        }
        let before = dropped();
        resume_to_golden(&dir, STOP_AFTER - 1, case);
        assert!(dropped() > before, "{case}: the rejected log is counted");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn a_damaged_log_is_recomputed_even_when_the_final_manifest_lists_it() {
    let dir = test_dir("full");
    Campaign::create(&dir, config())
        .unwrap()
        .run(2, None)
        .unwrap();
    let log = Campaign::open(&dir).unwrap().shard_log_path(6);
    let len = std::fs::metadata(&log).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&log)
        .unwrap()
        .set_len(len - 1)
        .unwrap();
    resume_to_golden(&dir, config().shards - 1, "final manifest, damaged log");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_log_edited_after_completion_is_reported_not_ranked() {
    let dir = test_dir("edited");
    let mut campaign = Campaign::create(&dir, config()).unwrap();
    campaign.run(2, None).unwrap();
    // Find a log with survivors and change one survivor's W2 count: the
    // log still parses, but it is no longer what the shard computed.
    let (shard, text) = (0..config().shards)
        .map(|s| {
            (
                s,
                std::fs::read_to_string(campaign.shard_log_path(s)).unwrap(),
            )
        })
        .find(|(_, t)| t.contains("\"w2\": \""))
        .expect("some shard has survivors");
    let edited = text.replacen("\"w2\": \"", "\"w2\": \"1", 1);
    std::fs::write(campaign.shard_log_path(shard), edited).unwrap();
    match campaign.survivors() {
        Err(Error::Parse(msg)) => assert!(msg.contains(&format!("shard {shard}")), "{msg}"),
        other => panic!("an edited log must be reported, got {other:?}"),
    }
    // A fresh open does not count the shard as complete.
    let reopened = Campaign::open(&dir).unwrap();
    assert_eq!(reopened.progress().0, config().shards - 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_journal_from_another_campaign_is_refused() {
    let dir = stopped("foreign");
    let other = test_dir("foreign-other");
    let mut cfg = config();
    cfg.seed += 1;
    Campaign::create(&other, cfg)
        .unwrap()
        .run(1, Some(1))
        .unwrap();
    std::fs::copy(journal(&other), journal(&dir)).unwrap();
    assert!(matches!(Campaign::open(&dir), Err(Error::Parse(_))));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&other);
}

#[test]
fn a_v2_manifest_without_a_journal_resumes_to_golden_bytes() {
    // The format written before the journal existed: the manifest
    // itself lists the completed shards.
    let dir = stopped("v2");
    let pending = Campaign::open(&dir).unwrap().pending_shards();
    let completed = (0..config().shards)
        .filter(|s| !pending.contains(s))
        .collect();
    std::fs::remove_file(journal(&dir)).unwrap();
    let manifest = Checkpoint {
        config: config(),
        completed,
    };
    std::fs::write(dir.join("campaign.json"), manifest.to_json().render()).unwrap();
    resume_to_golden(&dir, STOP_AFTER, "v2 manifest");
    let _ = std::fs::remove_dir_all(&dir);
}
