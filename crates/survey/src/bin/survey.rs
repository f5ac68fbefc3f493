//! The survey campaign CLI.
//!
//! ```text
//! survey run        --dir DIR --width W [--shards S] [--threads N] [--seed S]
//!                   [--lengths a,b,c] [--min-hd H] [--max-weight W]
//!                   [--ber 1e-5,1e-6] [--sample N] [--stop-after K]
//!                   [--census N [--classes SIG;SIG;...]]
//! survey resume     --dir DIR [--threads N] [--stop-after K]
//! survey report     --dir DIR [--out FILE] [--top K] [--no-spot-check]
//!                   [--exact-pud] [--z Z]
//! survey coordinate --dir DIR --transport T [--lease-ttl SECS] [--linger MS]
//!                   [creation flags, for a fresh DIR]
//! survey work       --transport T [--name NAME] [--max-shards K]
//! survey watch      --transport T [--interval SECS] [--once] [--name NAME]
//! survey merge      --dir DIR LOG [LOG...]
//! ```
//!
//! `run` creates a campaign and drives it to completion on local
//! threads. `resume` continues whatever `campaign.json` records.
//! `report` loads a completed campaign and writes the leaderboard JSON
//! (or, for census campaigns, the stratified estimate document).
//!
//! `coordinate`/`work` are the distributed pair: the coordinator owns
//! the campaign directory and leases shards over a transport (`file:DIR`
//! for a shared queue directory, `tcp:HOST:PORT` for a socket); workers
//! need only the transport address. `watch` polls a coordinator's
//! `Status` endpoint over either transport and renders live progress —
//! per-worker heartbeats, outstanding leases, scan rate, and the ETA
//! from the shard completion rate. `merge` folds shard-log files that
//! arrived out of band into the checkpoint. Run `survey help` for the
//! full story.

use crc_survey::campaign::{CampaignConfig, Mode, ShardResult};
use crc_survey::census::{census_report, render_census_table, Z95};
use crc_survey::chaos::{ChaosConfig, ChaosTransport};
use crc_survey::coordinator::Coordinator;
use crc_survey::engine::Campaign;
use crc_survey::json::Json;
use crc_survey::leaderboard::{build, render_tables, LeaderboardOptions};
use crc_survey::pareto::PudAxis;
use crc_survey::transport::{
    FileQueueClient, FileQueueServer, Reply, Request, StatusReport, TcpClient, TcpServer,
    WorkerTransport,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The one sentence that defines `--stop-after`; docs/CENSUS.md quotes
/// it verbatim and the CLI smoke test holds both to it.
const STOP_AFTER_SEMANTICS: &str = "--stop-after K exits at the next checkpoint boundary: \
after this invocation checkpoints K shards (fewer if the campaign finishes first) the \
process stops, and a later resume continues the manifest to artifacts byte-identical to \
an uninterrupted run.";

const USAGE: &str = "usage: survey <run|resume|report|coordinate|work|watch|merge|help> [options]";

fn help_text() -> String {
    format!(
        "{USAGE}

  run        --dir DIR --width W [--shards S] [--threads N] [--seed S]
             [--lengths a,b,c] [--min-hd H] [--max-weight W] [--ber 1e-5,...]
             [--sample N | --census N [--classes SIG;SIG;...]] [--stop-after K]
                 create a campaign and drive it on local threads.
                 --sample N draws N candidates per shard instead of
                 enumerating; --census N creates a stratified census
                 (N draws per stratum: one stratum per feedback-tap
                 count, plus one per --classes factorization signature,
                 e.g. --classes '{{1,15}};{{16}}').
  resume     --dir DIR [--threads N] [--stop-after K]
                 continue a campaign from its checkpoint.
  report     --dir DIR [--out FILE] [--top K] [--no-spot-check]
                 [--exact-pud] [--z Z]
                 write leaderboard.json for a completed campaign, or
                 census.json (estimates with Wilson bounds at critical
                 value Z, default 95%) for a census campaign.
                 --exact-pud ranks by full-distribution P_ud (exact at
                 every weight) instead of the W2-W4 truncation.
  coordinate --dir DIR --transport T [--lease-ttl SECS] [--linger MS]
                 [--quarantine-after K]
                 serve the campaign to remote workers; accepts the same
                 creation flags as `run` when DIR has no campaign yet.
                 Leases that expire re-issue the shard; duplicate
                 submissions are idempotent. A shard whose lease expires
                 K times (default 5; 0 disables) is quarantined and
                 never re-issued.
  work       --transport T [--name NAME] [--max-shards K]
                 [--retry-base-ms MS] [--retry-cap-ms MS]
                 [--retry-attempts N]
                 attach a worker to a coordinator: lease, evaluate,
                 submit, repeat until the coordinator reports the
                 campaign complete. Transient transport failures are
                 resent with capped exponential backoff + decorrelated
                 jitter (defaults 50ms base, 5s cap, 10 attempts).
  watch      --transport T [--interval SECS] [--once] [--name NAME]
                 poll a running coordinator's status endpoint and render
                 live progress: shards done, scan rate, ETA, outstanding
                 leases, and per-worker heartbeats. --once prints one
                 report and exits; otherwise polls every SECS (default 2)
                 until the campaign completes.
  merge      --dir DIR LOG [LOG...]
                 fold shard-log JSON files (collected out of band) into
                 the campaign checkpoint; byte-identical logs are
                 accepted idempotently, conflicting ones refused.

transports: file:DIR (shared queue directory) or tcp:HOST:PORT.
Every protocol line carries a CRC-32 trailer; damaged frames are
answered with a retry, never a crash.

chaos (coordinate/work): --chaos SEED [--chaos-rate PCT] wraps the
transport in a deterministic fault injector — dropped replies,
duplicated and delayed requests, truncated and bit-flipped frames — at
PCT percent per fault kind (default 10). The campaign must still
produce byte-identical artifacts; CI's chaos-smoke job holds it to
that.

checkpoints: {STOP_AFTER_SEMANTICS}
"
    )
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_or<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {flag}")),
    }
}

fn parse_list<T: std::str::FromStr>(text: &str, what: &str) -> Result<Vec<T>, String> {
    text.split(',')
        .map(|part| {
            part.trim()
                .parse()
                .map_err(|_| format!("bad {what} entry {part:?}"))
        })
        .collect()
}

fn require_dir(args: &[String]) -> Result<PathBuf, String> {
    flag_value(args, "--dir")
        .map(PathBuf::from)
        .ok_or_else(|| "--dir is required".into())
}

fn threads_or_default(args: &[String]) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    parse_or(args, "--threads", default)
}

fn stop_after(args: &[String]) -> Result<Option<u64>, String> {
    Ok(match flag_value(args, "--stop-after") {
        None => None,
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("bad value {v:?} for --stop-after"))?,
        ),
    })
}

fn config_from_args(args: &[String]) -> Result<CampaignConfig, String> {
    let width: u32 = parse_or(args, "--width", 0)?;
    if width == 0 {
        return Err("--width is required".into());
    }
    let lengths: Vec<u32> = match flag_value(args, "--lengths") {
        Some(v) => parse_list(&v, "length")?,
        None => vec![64, 256, 1024],
    };
    let ber_grid: Vec<f64> = match flag_value(args, "--ber") {
        Some(v) => parse_list(&v, "BER")?,
        None => vec![1e-5, 1e-6],
    };
    let census: Option<u64> = match flag_value(args, "--census") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("bad value {v:?} for --census"))?,
        ),
        None => None,
    };
    let (mode, shards) = match census {
        Some(per_stratum) => {
            if flag_value(args, "--sample").is_some() {
                return Err("--census and --sample are mutually exclusive".into());
            }
            let classes: Vec<String> = match flag_value(args, "--classes") {
                Some(v) => v
                    .split(';')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect(),
                None => Vec::new(),
            };
            // One shard per stratum: the w tap counts, then the classes.
            let shards = width as u64 + classes.len() as u64;
            (
                Mode::Census {
                    per_stratum,
                    classes,
                },
                shards,
            )
        }
        None => {
            let mode = match flag_value(args, "--sample") {
                Some(v) => Mode::Sampled {
                    per_shard: v
                        .parse()
                        .map_err(|_| format!("bad value {v:?} for --sample"))?,
                },
                None => Mode::Exhaustive,
            };
            (mode, parse_or(args, "--shards", 16)?)
        }
    };
    Ok(CampaignConfig {
        width,
        shards,
        seed: parse_or(args, "--seed", 1)?,
        mode,
        min_hd: parse_or(args, "--min-hd", 4)?,
        target_lengths: lengths,
        ber_grid,
        max_weight: parse_or(args, "--max-weight", 8)?,
    })
}

fn open_or_create(dir: &Path, args: &[String]) -> Result<Campaign, String> {
    if dir.join("campaign.json").exists() {
        Campaign::open(dir).map_err(|e| e.to_string())
    } else {
        Campaign::create(dir, config_from_args(args)?).map_err(|e| e.to_string())
    }
}

fn drive(campaign: &mut Campaign, threads: usize, stop: Option<u64>) -> Result<(), String> {
    let (done, total) = campaign.progress();
    eprintln!(
        "campaign {}: width {}, {done}/{total} shards done, {threads} threads",
        campaign.dir().display(),
        campaign.config().width
    );
    let summary = campaign.run(threads, stop).map_err(|e| e.to_string())?;
    let (done, total) = campaign.progress();
    eprintln!(
        "ran {} shards ({} scanned, {} canonical, {} survivors); {done}/{total} complete",
        summary.shards_run, summary.scanned, summary.canonical, summary.survivors
    );
    if !campaign.is_complete() {
        eprintln!("campaign paused at a checkpoint; `survey resume --dir ...` continues it");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let dir = require_dir(args)?;
    let config = config_from_args(args)?;
    let mut campaign = Campaign::create(&dir, config).map_err(|e| e.to_string())?;
    drive(&mut campaign, threads_or_default(args)?, stop_after(args)?)
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let dir = require_dir(args)?;
    let mut campaign = Campaign::open(&dir).map_err(|e| e.to_string())?;
    drive(&mut campaign, threads_or_default(args)?, stop_after(args)?)
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let dir = require_dir(args)?;
    let campaign = Campaign::open(&dir).map_err(|e| e.to_string())?;
    let z: f64 = parse_or(args, "--z", Z95)?;
    if matches!(campaign.config().mode, Mode::Census { .. }) {
        let doc = census_report(&campaign, z).map_err(|e| e.to_string())?;
        let out = flag_value(args, "--out")
            .map(PathBuf::from)
            .unwrap_or_else(|| dir.join("census.json"));
        std::fs::write(&out, doc.render()).map_err(|e| format!("write {}: {e}", out.display()))?;
        print!("{}", render_census_table(&doc));
        eprintln!("wrote {}", out.display());
        return Ok(());
    }
    let opts = LeaderboardOptions {
        top: parse_or(args, "--top", 5)?,
        spot_check_32: !args.iter().any(|a| a == "--no-spot-check"),
        pud_axis: if args.iter().any(|a| a == "--exact-pud") {
            PudAxis::Exact
        } else {
            PudAxis::Truncated
        },
    };
    let doc = build(&campaign, &opts).map_err(|e| e.to_string())?;
    let out = flag_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| dir.join("leaderboard.json"));
    std::fs::write(&out, doc.render()).map_err(|e| format!("write {}: {e}", out.display()))?;
    let (text, csv) = render_tables(&doc);
    print!("{text}");
    println!("machine-readable (CSV):\n{csv}");
    eprintln!("wrote {}", out.display());
    Ok(())
}

enum Transport {
    File(PathBuf),
    Tcp(String),
}

fn transport_from_args(args: &[String]) -> Result<Transport, String> {
    let spec = flag_value(args, "--transport")
        .ok_or_else(|| "--transport is required (file:DIR or tcp:HOST:PORT)".to_string())?;
    if let Some(dir) = spec.strip_prefix("file:") {
        Ok(Transport::File(PathBuf::from(dir)))
    } else if let Some(addr) = spec.strip_prefix("tcp:") {
        Ok(Transport::Tcp(addr.to_string()))
    } else {
        Err(format!(
            "bad transport {spec:?}: expected file:DIR or tcp:HOST:PORT"
        ))
    }
}

/// Parses the optional chaos flags: `--chaos SEED` turns fault
/// injection on, `--chaos-rate PCT` sets the per-fault-kind rate
/// (default 10%).
fn chaos_from_args(args: &[String]) -> Result<Option<ChaosConfig>, String> {
    match flag_value(args, "--chaos") {
        None => Ok(None),
        Some(v) => {
            let seed: u64 = v
                .parse()
                .map_err(|_| format!("bad value {v:?} for --chaos (expected a seed)"))?;
            let rate: u8 = parse_or(args, "--chaos-rate", 10u8)?;
            if rate > 100 {
                return Err(format!("--chaos-rate {rate} is not a percentage"));
            }
            Ok(Some(ChaosConfig::all(seed, rate)))
        }
    }
}

fn cmd_coordinate(args: &[String]) -> Result<(), String> {
    let dir = require_dir(args)?;
    let campaign = open_or_create(&dir, args)?;
    let lease_ttl = Duration::from_secs(parse_or(args, "--lease-ttl", 300u64)?);
    let linger = Duration::from_millis(parse_or(args, "--linger", 1_000u64)?);
    let quarantine_after: u32 = parse_or(args, "--quarantine-after", 5u32)?;
    let chaos = chaos_from_args(args)?;
    let poll = Duration::from_millis(10);
    let (done, total) = campaign.progress();
    let mut coordinator =
        Coordinator::new(campaign, lease_ttl).with_quarantine_after(quarantine_after);
    eprintln!(
        "coordinating {}: {done}/{total} shards done, lease ttl {lease_ttl:?}",
        dir.display()
    );
    if let Some(cfg) = &chaos {
        eprintln!(
            "chaos enabled: seed {}, {}% per fault kind",
            cfg.seed, cfg.corrupt_pct
        );
    }
    let summary = match transport_from_args(args)? {
        Transport::File(queue) => {
            let mut server = FileQueueServer::new(&queue).map_err(|e| e.to_string())?;
            match chaos {
                Some(cfg) => coordinator.serve(&mut ChaosTransport::new(server, cfg), poll, linger),
                None => coordinator.serve(&mut server, poll, linger),
            }
        }
        Transport::Tcp(addr) => {
            let mut server = TcpServer::bind(&addr).map_err(|e| e.to_string())?;
            eprintln!(
                "listening on {}",
                server.local_addr().map_err(|e| e.to_string())?
            );
            match chaos {
                Some(cfg) => coordinator.serve(&mut ChaosTransport::new(server, cfg), poll, linger),
                None => coordinator.serve(&mut server, poll, linger),
            }
        }
    }
    .map_err(|e| e.to_string())?;
    let quarantined = coordinator.quarantined_shards();
    let state = if coordinator.campaign().is_complete() {
        "campaign complete"
    } else {
        "campaign terminal (degraded)"
    };
    eprintln!(
        "{state}: {} shards recorded, {} duplicates, {} leases re-issued, {} refusals",
        summary.shards_recorded, summary.duplicates, summary.leases_expired, summary.refusals
    );
    if !quarantined.is_empty() {
        eprintln!("quarantined shards (never re-issued): {quarantined:?}");
    }
    Ok(())
}

fn cmd_work(args: &[String]) -> Result<(), String> {
    let name = flag_value(args, "--name").unwrap_or_else(|| format!("w{}", std::process::id()));
    let default_retry = crc_survey::worker::RetryPolicy::default();
    let retry = crc_survey::worker::RetryPolicy {
        base: Duration::from_millis(parse_or(
            args,
            "--retry-base-ms",
            default_retry.base.as_millis() as u64,
        )?),
        cap: Duration::from_millis(parse_or(
            args,
            "--retry-cap-ms",
            default_retry.cap.as_millis() as u64,
        )?),
        max_attempts: parse_or(args, "--retry-attempts", default_retry.max_attempts)?,
        // Decorrelate the fleet: each worker jitters off its own name.
        seed: name.bytes().fold(default_retry.seed, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        }),
    };
    let opts = crc_survey::worker::WorkerOptions {
        name,
        max_shards: match flag_value(args, "--max-shards") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("bad value {v:?} for --max-shards"))?,
            ),
        },
        retry,
    };
    let chaos = chaos_from_args(args)?;
    let summary = match transport_from_args(args)? {
        Transport::File(queue) => {
            let mut client = FileQueueClient::new(&queue, &opts.name).map_err(|e| e.to_string())?;
            match chaos {
                Some(cfg) => {
                    crc_survey::worker::run_worker(&mut ChaosTransport::new(client, cfg), &opts)
                }
                None => crc_survey::worker::run_worker(&mut client, &opts),
            }
        }
        Transport::Tcp(addr) => {
            let mut client = TcpClient::new(&addr);
            match chaos {
                Some(cfg) => {
                    crc_survey::worker::run_worker(&mut ChaosTransport::new(client, cfg), &opts)
                }
                None => crc_survey::worker::run_worker(&mut client, &opts),
            }
        }
    }
    .map_err(|e| e.to_string())?;
    eprintln!(
        "worker {} done: {} shards submitted ({} duplicates, {} retries, {} waits)",
        opts.name, summary.shards_submitted, summary.duplicates, summary.retries, summary.waits
    );
    Ok(())
}

/// Renders one status report as the live table `survey watch` prints.
fn render_status(s: &StatusReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let pct = (s.done * 100).checked_div(s.total).unwrap_or(100);
    let _ = write!(
        out,
        "campaign: {}/{} shards ({pct}%)  scanned {}  survivors {}  {} polys/s",
        s.done, s.total, s.scanned, s.survivors, s.polys_per_s
    );
    match s.eta_ms {
        Some(ms) if s.done < s.total => {
            let _ = writeln!(out, "  eta {}s", ms.div_ceil(1_000));
        }
        _ => {
            let _ = writeln!(out);
        }
    }
    let _ = writeln!(
        out,
        "session:  {} recorded  {} duplicates  {} leases expired  {} refused  {} frames rejected",
        s.recorded, s.duplicates, s.leases_expired, s.refusals, s.frames_rejected
    );
    if !s.quarantined.is_empty() {
        let _ = writeln!(
            out,
            "quarantined: {:?} (parked after repeated lease expiry; a late submit lifts it)",
            s.quarantined
        );
    }
    if !s.leases.is_empty() {
        let _ = writeln!(out, "leases:");
        for l in &s.leases {
            let _ = writeln!(
                out,
                "  shard {:>6}  worker {:<16}  age {:>6.1}s",
                l.shard,
                l.worker,
                l.age_ms as f64 / 1_000.0
            );
        }
    }
    if !s.workers.is_empty() {
        let _ = writeln!(
            out,
            "workers:  {:<16} {:>10} {:>8} {:>12}",
            "name", "last-seen", "shards", "last-submit"
        );
        for w in &s.workers {
            let last = match w.last_submit_ms {
                Some(ms) => format!("{:.1}s", ms as f64 / 1_000.0),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "          {:<16} {:>9.1}s {:>8} {:>12}",
                w.name,
                w.seen_ms as f64 / 1_000.0,
                w.submitted,
                last
            );
        }
    }
    out
}

fn cmd_watch(args: &[String]) -> Result<(), String> {
    let name = flag_value(args, "--name").unwrap_or_else(|| format!("watch{}", std::process::id()));
    let interval = Duration::from_secs(parse_or(args, "--interval", 2u64)?.max(1));
    let once = args.iter().any(|a| a == "--once");
    let mut client: Box<dyn WorkerTransport> = match transport_from_args(args)? {
        Transport::File(queue) => {
            Box::new(FileQueueClient::new(&queue, &name).map_err(|e| e.to_string())?)
        }
        Transport::Tcp(addr) => Box::new(TcpClient::new(&addr)),
    };
    let mut once_retries = 0u32;
    loop {
        // A watch session must outlive transient trouble: damaged
        // frames, timeouts, and explicit retry replies just mean "poll
        // again". Even --once retries a bounded number of times — one
        // mangled frame must not fail a monitoring cron job.
        let report = match client.call(&Request::Status {
            worker: name.clone(),
        }) {
            Ok(Reply::Status(report)) => report,
            Ok(Reply::Retry { reason }) | Err(crc_survey::Error::Frame(reason)) => {
                if once {
                    once_retries += 1;
                    if once_retries > 10 {
                        return Err(format!("status poll kept failing: {reason}"));
                    }
                }
                eprintln!("status poll will retry: {reason}");
                std::thread::sleep(if once {
                    Duration::from_millis(200)
                } else {
                    interval
                });
                continue;
            }
            Ok(Reply::Refused { reason }) => {
                return Err(format!("coordinator refused the status request: {reason}"))
            }
            Ok(other) => return Err(format!("expected a status reply, got {other:?}")),
            Err(e) => return Err(e.to_string()),
        };
        let complete = report.total > 0 && report.done == report.total;
        print!("{}", render_status(&report));
        if once {
            return Ok(());
        }
        if complete {
            eprintln!("campaign complete");
            return Ok(());
        }
        std::thread::sleep(interval);
        println!();
    }
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    let dir = require_dir(args)?;
    let mut campaign = Campaign::open(&dir).map_err(|e| e.to_string())?;
    let hash = campaign.config_hash();
    // Everything that is not a recognized flag (or its value) is a log.
    let mut logs = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--dir" {
            i += 2;
        } else {
            logs.push(PathBuf::from(&args[i]));
            i += 1;
        }
    }
    if logs.is_empty() {
        return Err("merge needs at least one shard-log file".into());
    }
    let (mut fresh, mut dup) = (0u64, 0u64);
    for path in logs {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let result =
            ShardResult::from_json(&doc, hash).map_err(|e| format!("{}: {e}", path.display()))?;
        if campaign
            .record_shard(&result)
            .map_err(|e| format!("{}: {e}", path.display()))?
        {
            fresh += 1;
        } else {
            dup += 1;
        }
    }
    let (done, total) = campaign.progress();
    eprintln!("merged {fresh} new shard logs ({dup} duplicates); {done}/{total} complete");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("coordinate") => cmd_coordinate(&args[1..]),
        Some("work") => cmd_work(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{}", help_text());
            return ExitCode::SUCCESS;
        }
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("survey: {msg}");
            ExitCode::FAILURE
        }
    }
}
