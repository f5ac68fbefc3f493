//! Distributed-merge fault injection: a 13-bit campaign driven by a
//! coordinator and two file-queue workers — with a third worker that
//! takes a lease and dies, and a zombie that resubmits a shard after
//! the campaign completes — must leave artifacts byte-identical to a
//! single-host `Campaign::run`.

use crc_survey::campaign::{CampaignConfig, Mode};
use crc_survey::coordinator::Coordinator;
use crc_survey::engine::{evaluate_unit, Campaign, UnitScratch};
use crc_survey::leaderboard::{build, LeaderboardOptions};
use crc_survey::transport::{FileQueueClient, FileQueueServer, Reply, Request, WorkerTransport};
use crc_survey::worker::{run_worker, WorkerOptions};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crc-coord-faults-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> CampaignConfig {
    CampaignConfig {
        width: 13,
        shards: 8,
        seed: 2002,
        mode: Mode::Exhaustive,
        min_hd: 4,
        target_lengths: vec![32, 128],
        ber_grid: vec![1e-4, 1e-6],
        max_weight: 6,
    }
}

/// Campaign artifacts plus the leaderboard built from them, as bytes.
fn artifact_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let campaign = Campaign::open(dir).unwrap();
    assert!(campaign.is_complete());
    let mut out = vec![(
        "campaign.json".to_string(),
        std::fs::read(dir.join("campaign.json")).unwrap(),
    )];
    for shard in 0..campaign.config().shards {
        let path = campaign.shard_log_path(shard);
        out.push((
            path.file_name().unwrap().to_string_lossy().into_owned(),
            std::fs::read(&path).unwrap(),
        ));
    }
    let board = build(
        &campaign,
        &LeaderboardOptions {
            top: 5,
            spot_check_32: false,
            ..Default::default()
        },
    )
    .unwrap();
    out.push(("leaderboard.json".to_string(), board.render().into_bytes()));
    out
}

#[test]
fn distributed_run_with_faults_matches_single_host_bytes() {
    // Ground truth: one process, plain thread pool.
    let single = test_dir("single");
    Campaign::create(&single, config())
        .unwrap()
        .run(2, None)
        .unwrap();

    // Distributed: coordinator + file queue, short leases so the dead
    // worker's shard re-issues quickly.
    let dist = test_dir("dist");
    let queue = test_dir("queue");
    let campaign = Campaign::create(&dist, config()).unwrap();
    let mut coordinator = Coordinator::new(campaign, Duration::from_millis(300));
    let mut server = FileQueueServer::new(&queue).unwrap();
    let coord_thread = {
        let poll = Duration::from_millis(2);
        // A generous linger keeps the coordinator answering while the
        // zombie below resubmits after completion.
        let linger = Duration::from_secs(5);
        std::thread::spawn(move || coordinator.serve(&mut server, poll, linger).unwrap())
    };

    let timing =
        |c: FileQueueClient| c.with_timing(Duration::from_millis(2), Duration::from_secs(60));

    // The victim takes a lease and dies without submitting.
    let mut victim = timing(FileQueueClient::new(&queue, "victim").unwrap());
    let Reply::Assign {
        shard: orphaned, ..
    } = victim
        .call(&Request::Lease {
            worker: "victim".into(),
        })
        .unwrap()
    else {
        panic!("victim expected a lease")
    };
    drop(victim); // rest in peace

    // Two live workers drain the campaign, including the re-issued
    // orphan once its lease expires.
    let worker_threads: Vec<_> = ["w1", "w2"]
        .into_iter()
        .map(|name| {
            let mut client = timing(FileQueueClient::new(&queue, name).unwrap());
            std::thread::spawn(move || {
                run_worker(
                    &mut client,
                    &WorkerOptions {
                        name: name.into(),
                        max_shards: None,
                        retry: Default::default(),
                    },
                )
                .unwrap()
            })
        })
        .collect();
    let submitted: u64 = worker_threads
        .into_iter()
        .map(|t| t.join().unwrap().shards_submitted)
        .sum();
    assert_eq!(submitted, config().shards, "workers covered every shard");

    // A zombie recomputes the orphaned shard and submits it after the
    // fact: accepted idempotently, bytes untouched.
    let cfg = config();
    let unit = cfg.work_units()[orphaned as usize];
    let stale = evaluate_unit(&cfg, unit, &mut UnitScratch::default()).unwrap();
    let mut zombie = timing(FileQueueClient::new(&queue, "zombie").unwrap());
    let reply = zombie
        .call(&Request::Submit {
            worker: "zombie".into(),
            log: stale.to_json(cfg.content_hash()),
            lease_next: false,
        })
        .unwrap();
    assert_eq!(
        reply,
        Reply::Accepted {
            shard: orphaned,
            fresh: false,
            complete: true,
            next: None,
        }
    );

    let summary = coord_thread.join().unwrap();
    assert_eq!(summary.shards_recorded, config().shards);
    assert_eq!(summary.duplicates, 1, "the zombie's resubmission");
    assert!(summary.leases_expired >= 1, "the victim's lease expired");
    assert_eq!(summary.refusals, 0);

    // The whole point: byte identity with the single-host run.
    let a = artifact_bytes(&single);
    let b = artifact_bytes(&dist);
    assert_eq!(a.len(), b.len());
    for ((name_a, bytes_a), (name_b, bytes_b)) in a.iter().zip(&b) {
        assert_eq!(name_a, name_b);
        assert_eq!(
            bytes_a, bytes_b,
            "{name_a} differs between single-host and distributed runs"
        );
    }

    for dir in [single, dist, queue] {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
