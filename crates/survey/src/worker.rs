//! The remote worker loop: lease, evaluate, submit, repeat.
//!
//! Only the first lease is an explicit [`Request::Lease`]. Each
//! submission asks for the next shard as well (`lease_next`), and the
//! coordinator's [`Reply::Accepted`] carries it, so a steady-state shard
//! costs one round trip. The worker sends an explicit lease again only
//! when an acceptance came back without one (nothing to lease right
//! now, or a coordinator that predates the field).
//!
//! A worker is stateless apart from its scratch buffers: it learns the
//! campaign configuration from the coordinator's
//! [`Reply::Welcome`], verifies the echoed content hash, and then runs
//! [`evaluate_unit`] — the exact code path of the single-host pool —
//! on every shard it leases. Crashing at any point is safe: an
//! unsubmitted lease expires at the coordinator and the shard is
//! re-issued; a shard submitted twice is idempotent because unit
//! results are pure in `(config, shard id)`.
//!
//! # Retry policy
//!
//! Every request goes through a [`RetryPolicy`]: transient failures
//! (transport errors classified retryable by
//! [`Error::is_retryable`] — timeouts, refused connections, CRC-damaged
//! frames — plus an explicit [`Reply::Retry`] from the far end) are
//! resent with capped exponential backoff and *decorrelated jitter*
//! (`sleep = min(cap, uniform(base, 3·prev))`), so a fleet knocked
//! loose by one coordinator hiccup does not stampede back in
//! lock-step. Only after `max_attempts` consecutive failures of the
//! same request does the worker give up. Resending is always safe:
//! `Hello`/`Lease`/`Status` are read-only and `Submit` is idempotent.
//! Permanent disagreements ([`Reply::Refused`], schema mismatches) stay
//! fatal — a resend cannot fix computing the wrong campaign.

use crate::campaign::CampaignConfig;
use crate::engine::{evaluate_unit, UnitScratch};
use crate::transport::{Reply, Request, ShardLease, WorkerTransport};
use crate::{Error, Result};
use gf2poly::SplitMix64;
use std::time::{Duration, Instant};

/// Backoff schedule for transient request failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First (and minimum) backoff sleep.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Attempts per request before giving up (at least 1).
    pub max_attempts: u32,
    /// Seed of the jitter stream (deterministic per worker; give each
    /// worker its own seed so their schedules decorrelate).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(50),
            cap: Duration::from_secs(5),
            max_attempts: 10,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// Knobs for [`run_worker`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// The worker's name (file-name safe; shows up in queue paths).
    pub name: String,
    /// Stop after submitting this many shards (`None` = run until the
    /// campaign is done) — the hook the fault-injection tests use to
    /// model a worker that walks away.
    pub max_shards: Option<u64>,
    /// Backoff schedule for transient request failures.
    pub retry: RetryPolicy,
}

/// Tallies from one [`run_worker`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Shards evaluated and accepted (fresh or duplicate).
    pub shards_submitted: u64,
    /// Of those, how many the coordinator already had.
    pub duplicates: u64,
    /// Requests resent after a transient failure or [`Reply::Retry`].
    pub retries: u64,
    /// [`Reply::Wait`] backoffs honoured.
    pub waits: u64,
}

/// Drives one request through the retry schedule.
struct Retrier {
    policy: RetryPolicy,
    rng: SplitMix64,
    retries: u64,
}

impl Retrier {
    fn new(policy: RetryPolicy) -> Retrier {
        Retrier {
            policy,
            rng: SplitMix64::new(policy.seed),
            retries: 0,
        }
    }

    /// Uniform draw in `[lo, hi]` milliseconds off the jitter stream.
    fn jitter_ms(&mut self, lo: u64, hi: u64) -> u64 {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        lo + self.rng.next_below(hi - lo + 1)
    }

    /// Calls `transport` until a non-retry reply arrives, a permanent
    /// error surfaces, or the attempt budget runs out.
    fn call(
        &mut self,
        transport: &mut dyn WorkerTransport,
        what: &str,
        req: &Request,
    ) -> Result<Reply> {
        let base_ms = self.policy.base.as_millis().max(1) as u64;
        let cap_ms = self.policy.cap.as_millis().max(1) as u64;
        let mut prev_ms = base_ms;
        let max_attempts = self.policy.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            let failure = match transport.call(req) {
                Ok(Reply::Retry { reason }) => format!("far end asked for a resend: {reason}"),
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_retryable() => e.to_string(),
                Err(e) => return Err(e),
            };
            if attempt == max_attempts {
                return Err(Error::Io(format!(
                    "{what} failed after {max_attempts} attempts; last failure: {failure}"
                )));
            }
            self.retries += 1;
            if let Some(m) = crate::metrics::worker() {
                m.retries.inc();
            }
            // Decorrelated jitter: each sleep is drawn uniformly from
            // [base, 3·previous], capped — backoff grows on average but
            // two workers never sync up.
            prev_ms = self
                .jitter_ms(base_ms, prev_ms.saturating_mul(3).min(cap_ms))
                .min(cap_ms);
            std::thread::sleep(Duration::from_millis(prev_ms));
        }
        unreachable!("loop returns on the last attempt");
    }
}

/// Runs the worker loop over `transport` until the coordinator says the
/// campaign is complete (or `max_shards` is reached).
///
/// # Errors
///
/// A transport failure that outlives the retry schedule, a config hash
/// that does not match the config document, a lease that disagrees with
/// the config's own work units, or a [`Reply::Refused`] submission — a
/// refusal means this worker is computing a different campaign than the
/// coordinator is merging, so continuing would only waste cycles.
/// Transient failures (retryable errors, [`Reply::Retry`]) are resent
/// under [`WorkerOptions::retry`] and never surface unless the budget
/// runs dry.
pub fn run_worker(
    transport: &mut dyn WorkerTransport,
    opts: &WorkerOptions,
) -> Result<WorkerSummary> {
    let mut retrier = Retrier::new(opts.retry);
    let hello = retrier.call(
        transport,
        "hello",
        &Request::Hello {
            worker: opts.name.clone(),
        },
    )?;
    let Reply::Welcome {
        config,
        config_hash,
    } = hello
    else {
        return Err(Error::Parse(format!("expected welcome, got {hello:?}")));
    };
    let config = CampaignConfig::from_json(&config)?;
    let expect = format!("{:#018x}", config.content_hash());
    if config_hash != expect {
        return Err(Error::Parse(format!(
            "coordinator's config hash {config_hash} does not match its config document ({expect})"
        )));
    }
    let hash = config.content_hash();
    let mut scratch = UnitScratch::default();
    let mut summary = WorkerSummary::default();
    let t0 = Instant::now();
    let mut scanned = 0u64;
    // The lease the last acceptance carried; without one, ask for a
    // lease explicitly.
    let mut next: Option<ShardLease> = None;
    loop {
        if opts
            .max_shards
            .is_some_and(|max| summary.shards_submitted >= max)
        {
            break;
        }
        let ShardLease { shard, start, end } = match next.take() {
            Some(lease) => lease,
            None => match retrier.call(
                transport,
                "lease",
                &Request::Lease {
                    worker: opts.name.clone(),
                },
            )? {
                Reply::Assign { shard, start, end } => ShardLease { shard, start, end },
                Reply::Wait { backoff_ms } => {
                    // Jitter the hinted backoff (uniform in [½·hint,
                    // 1½·hint]) so waiting workers return staggered
                    // instead of re-asking in the same poll tick.
                    summary.waits += 1;
                    if let Some(m) = crate::metrics::worker() {
                        m.waits.inc();
                    }
                    let hint = backoff_ms.clamp(1, 2_000);
                    let ms = retrier.jitter_ms(hint / 2, hint + hint / 2);
                    std::thread::sleep(Duration::from_millis(ms));
                    continue;
                }
                Reply::Done => break,
                other => {
                    return Err(Error::Parse(format!(
                        "expected assign/wait/done, got {other:?}"
                    )))
                }
            },
        };
        if shard >= config.shards {
            return Err(Error::Parse(format!(
                "leased shard {shard} outside the campaign"
            )));
        }
        let unit = config.work_unit(shard);
        if (unit.start, unit.end) != (start, end) {
            return Err(Error::Parse(format!(
                "lease for shard {shard} covers {start}..{end}, config says {}..{}",
                unit.start, unit.end
            )));
        }
        let result = {
            let span = crate::metrics::engine().map(|m| telemetry::Span::start(&m.shard_us));
            let r = evaluate_unit(&config, unit, &mut scratch)?;
            if let Some(sp) = span {
                sp.finish();
            }
            r
        };
        crate::metrics::observe_index(scratch.workspace());
        scanned += result.scanned;
        if let Some(m) = crate::metrics::worker() {
            m.shards.inc();
            let us = t0.elapsed().as_micros().max(1) as u64;
            m.polys_per_s.set(scanned.saturating_mul(1_000_000) / us);
        }
        // Ask for the next shard with this one, unless this submission
        // reaches `max_shards`: a lease the worker will not run would sit
        // out its TTL at the coordinator.
        let lease_next = opts
            .max_shards
            .is_none_or(|max| summary.shards_submitted + 1 < max);
        match retrier.call(
            transport,
            "submit",
            &Request::Submit {
                worker: opts.name.clone(),
                log: result.to_json(hash),
                lease_next,
            },
        )? {
            Reply::Accepted {
                fresh,
                complete,
                next: granted,
                ..
            } => {
                summary.shards_submitted += 1;
                if !fresh {
                    summary.duplicates += 1;
                }
                if complete {
                    break;
                }
                next = granted;
            }
            Reply::Refused { reason } => {
                return Err(Error::Config(format!(
                    "coordinator refused shard {shard}: {reason}"
                )));
            }
            // The coordinator finished without serving this submission:
            // the campaign is over either way.
            Reply::Done => break,
            other => {
                return Err(Error::Parse(format!(
                    "expected accepted/refused/done, got {other:?}"
                )))
            }
        }
    }
    summary.retries = retrier.retries;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, Mode};
    use crate::coordinator::Coordinator;
    use crate::engine::Campaign;
    use crate::transport::{FileQueueClient, FileQueueServer, ServeTransport};
    use std::time::Instant;

    fn tiny_config() -> CampaignConfig {
        CampaignConfig {
            width: 10,
            shards: 4,
            seed: 3,
            mode: Mode::Exhaustive,
            min_hd: 4,
            target_lengths: vec![16, 64],
            ber_grid: vec![1e-5],
            max_weight: 6,
        }
    }

    #[test]
    fn worker_drives_a_campaign_over_the_file_queue() {
        let base = std::env::temp_dir().join(format!("crc-worker-fq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dir = base.join("campaign");
        let queue = base.join("queue");
        let campaign = Campaign::create(&dir, tiny_config()).unwrap();
        let mut coord = Coordinator::new(campaign, Duration::from_secs(60));
        let mut server = FileQueueServer::new(&queue).unwrap();
        let coord_thread = std::thread::spawn(move || {
            while !coord.campaign().is_complete() {
                if !server
                    .serve_one(&mut |req| coord.handle(req, Instant::now()))
                    .unwrap()
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            coord.summary()
        });
        let mut client = FileQueueClient::new(&queue, "w1")
            .unwrap()
            .with_timing(Duration::from_millis(5), Duration::from_secs(30));
        let summary = run_worker(
            &mut client,
            &WorkerOptions {
                name: "w1".into(),
                max_shards: None,
                retry: RetryPolicy::default(),
            },
        )
        .unwrap();
        assert_eq!(summary.shards_submitted, 4);
        assert_eq!(summary.duplicates, 0);
        let coord_summary = coord_thread.join().unwrap();
        assert_eq!(coord_summary.shards_recorded, 4);
        let reopened = Campaign::open(&dir).unwrap();
        assert!(reopened.is_complete());
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A coordinator that hands out shard 0 and then finishes without
    /// serving the submission.
    struct EndsBeforeSubmit(CampaignConfig);

    impl WorkerTransport for EndsBeforeSubmit {
        fn call(&mut self, req: &Request) -> crate::Result<Reply> {
            Ok(match req {
                Request::Hello { .. } => Reply::Welcome {
                    config: self.0.to_json(),
                    config_hash: format!("{:#018x}", self.0.content_hash()),
                },
                Request::Lease { .. } => {
                    let unit = self.0.work_unit(0);
                    Reply::Assign {
                        shard: 0,
                        start: unit.start,
                        end: unit.end,
                    }
                }
                _ => Reply::Done,
            })
        }
    }

    /// Serves a coordinator in-process and records each request's type.
    struct Direct<'a> {
        coord: &'a mut Coordinator,
        sent: Vec<String>,
    }

    impl WorkerTransport for Direct<'_> {
        fn call(&mut self, req: &Request) -> crate::Result<Reply> {
            let doc = req.to_json();
            self.sent
                .push(doc.require("type").unwrap().as_str().unwrap().to_string());
            Ok(self.coord.handle(req.clone(), Instant::now()))
        }
    }

    fn test_coordinator(tag: &str) -> (Coordinator, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("crc-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::create(&dir, tiny_config()).unwrap();
        (Coordinator::new(campaign, Duration::from_secs(60)), dir)
    }

    fn options(max_shards: Option<u64>) -> WorkerOptions {
        WorkerOptions {
            name: "w".into(),
            max_shards,
            retry: fast_policy(),
        }
    }

    #[test]
    fn each_shard_after_the_first_costs_one_request() {
        let (mut coord, dir) = test_coordinator("one-trip");
        let mut transport = Direct {
            coord: &mut coord,
            sent: Vec::new(),
        };
        let summary = run_worker(&mut transport, &options(None)).unwrap();
        assert_eq!(summary.shards_submitted, 4);
        assert_eq!(
            transport.sent,
            ["hello", "lease", "submit", "submit", "submit", "submit"],
            "every acceptance carried the next lease"
        );
        assert!(coord.campaign().is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_worker_that_stops_at_max_shards_holds_no_lease() {
        let (mut coord, dir) = test_coordinator("max-shards");
        let mut transport = Direct {
            coord: &mut coord,
            sent: Vec::new(),
        };
        let summary = run_worker(&mut transport, &options(Some(2))).unwrap();
        assert_eq!(summary.shards_submitted, 2);
        assert_eq!(transport.sent, ["hello", "lease", "submit", "submit"]);
        let status = coord.status(Instant::now());
        assert_eq!(status.done, 2);
        assert!(
            status.leases.is_empty(),
            "the last submission asked for no lease: {:?}",
            status.leases
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Leases shard 0 correctly, then hands out `bad` for shard 1: as an
    /// explicit `Assign`, or riding on the acceptance of shard 0.
    struct BadSecondLease {
        config: CampaignConfig,
        bad: ShardLease,
        piggyback: bool,
        leases: u32,
        submits: u32,
    }

    impl WorkerTransport for BadSecondLease {
        fn call(&mut self, req: &Request) -> crate::Result<Reply> {
            let unit = self.config.work_unit(0);
            let first = ShardLease {
                shard: 0,
                start: unit.start,
                end: unit.end,
            };
            let assign = |l: ShardLease| Reply::Assign {
                shard: l.shard,
                start: l.start,
                end: l.end,
            };
            Ok(match req {
                Request::Hello { .. } => Reply::Welcome {
                    config: self.config.to_json(),
                    config_hash: format!("{:#018x}", self.config.content_hash()),
                },
                Request::Lease { .. } => {
                    self.leases += 1;
                    assign(if self.leases == 1 { first } else { self.bad })
                }
                Request::Submit { lease_next, .. } => {
                    self.submits += 1;
                    // A worker that ran the bad lease anyway ends here,
                    // without an error.
                    Reply::Accepted {
                        shard: 0,
                        fresh: true,
                        complete: self.submits > 1,
                        next: (self.piggyback && *lease_next).then_some(self.bad),
                    }
                }
                Request::Status { .. } => Reply::Done,
            })
        }
    }

    #[test]
    fn a_piggybacked_lease_is_checked_like_an_assign() {
        let config = tiny_config();
        let unit = config.work_unit(1);
        for bad in [
            ShardLease {
                shard: 1,
                start: unit.start,
                end: unit.end + 1,
            },
            ShardLease {
                shard: config.shards,
                start: 0,
                end: 1,
            },
        ] {
            let errors = [true, false].map(|piggyback| {
                let mut transport = BadSecondLease {
                    config: config.clone(),
                    bad,
                    piggyback,
                    leases: 0,
                    submits: 0,
                };
                run_worker(&mut transport, &options(None))
                    .unwrap_err()
                    .to_string()
            });
            assert_eq!(errors[0], errors[1]);
            assert!(errors[0].contains("lease"), "{}", errors[0]);
        }
    }

    #[test]
    fn done_after_a_submit_ends_the_worker() {
        let summary = run_worker(
            &mut EndsBeforeSubmit(tiny_config()),
            &WorkerOptions {
                name: "w".into(),
                max_shards: None,
                retry: fast_policy(),
            },
        )
        .unwrap();
        assert_eq!(
            summary.shards_submitted, 0,
            "the submission was never accepted"
        );
    }

    /// A transport that fails (or asks for a resend) a fixed number of
    /// times per request before letting it through.
    struct Flaky {
        failures_left: u32,
        mode: FlakyMode,
        calls: u32,
    }

    enum FlakyMode {
        IoError,
        RetryReply,
        FatalError,
    }

    impl WorkerTransport for Flaky {
        fn call(&mut self, _req: &Request) -> crate::Result<Reply> {
            self.calls += 1;
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return match self.mode {
                    FlakyMode::IoError => Err(Error::Io("connection reset".into())),
                    FlakyMode::RetryReply => Ok(Reply::Retry {
                        reason: "CRC mismatch".into(),
                    }),
                    FlakyMode::FatalError => Err(Error::Config("wrong campaign".into())),
                };
            }
            Ok(Reply::Done)
        }
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            max_attempts: 5,
            seed: 99,
        }
    }

    #[test]
    fn retrier_resends_through_transient_failures() {
        for mode in [FlakyMode::IoError, FlakyMode::RetryReply] {
            let mut t = Flaky {
                failures_left: 3,
                mode,
                calls: 0,
            };
            let mut r = Retrier::new(fast_policy());
            let reply = r
                .call(&mut t, "lease", &Request::Lease { worker: "w".into() })
                .unwrap();
            assert_eq!(reply, Reply::Done);
            assert_eq!(t.calls, 4, "3 failures then success");
            assert_eq!(r.retries, 3);
        }
    }

    #[test]
    fn retrier_gives_up_after_the_attempt_budget() {
        let mut t = Flaky {
            failures_left: u32::MAX,
            mode: FlakyMode::IoError,
            calls: 0,
        };
        let mut r = Retrier::new(fast_policy());
        let err = r
            .call(&mut t, "submit", &Request::Lease { worker: "w".into() })
            .unwrap_err();
        assert_eq!(t.calls, 5, "exactly max_attempts calls");
        let msg = err.to_string();
        assert!(msg.contains("submit failed after 5 attempts"), "{msg}");
        assert!(msg.contains("connection reset"), "{msg}");
    }

    #[test]
    fn retrier_passes_permanent_errors_through_at_once() {
        let mut t = Flaky {
            failures_left: u32::MAX,
            mode: FlakyMode::FatalError,
            calls: 0,
        };
        let mut r = Retrier::new(fast_policy());
        let err = r
            .call(&mut t, "hello", &Request::Hello { worker: "w".into() })
            .unwrap_err();
        assert_eq!(t.calls, 1, "no retry on permanent errors");
        assert!(matches!(err, Error::Config(_)));
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn backoff_stays_within_base_and_cap() {
        let mut r = Retrier::new(RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            max_attempts: 10,
            seed: 7,
        });
        let mut prev = 10u64;
        for _ in 0..200 {
            let next = r.jitter_ms(10, prev.saturating_mul(3).min(100)).min(100);
            assert!((10..=100).contains(&next), "sleep {next} out of range");
            prev = next;
        }
    }
}
