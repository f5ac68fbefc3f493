//! The campaign coordinator: owns the manifest, leases shards, merges
//! submissions.
//!
//! A coordinator wraps an open [`Campaign`] and answers the protocol of
//! [`crate::transport`]:
//!
//! * [`Request::Hello`] → the campaign config + content hash, so workers
//!   need no local copy of anything but the queue address;
//! * [`Request::Lease`] → the lowest-numbered pending, unleased shard,
//!   stamped with a lease deadline. A worker that dies mid-lease simply
//!   stops renewing: once the deadline passes the shard is handed to the
//!   next asker. Because unit results are pure in `(config, shard id)`,
//!   re-running a shard is always safe;
//! * [`Request::Submit`] → the shard log is parsed and recorded through
//!   [`Campaign::record_shard`] — the exact write path (and therefore
//!   the exact bytes) of a single-host run. Duplicate submissions from
//!   zombie workers are idempotent; conflicting bytes are refused. When
//!   the submission sets `lease_next`, the coordinator then makes the
//!   same decision a [`Request::Lease`] would get and, if that is an
//!   assignment, returns it in [`Reply::Accepted`]'s `next`: after its
//!   first lease, a worker's every acceptance carries its next shard, so
//!   a steady-state shard costs one round trip.
//!
//! All decisions live in [`Coordinator::handle`], which takes the
//! current time as an argument so lease expiry is testable without
//! sleeping. [`Coordinator::serve`] is the production loop: serve the
//! transport (waking as soon as a request arrives where the transport
//! can wait for one), expire leases and persist the summary at most once
//! per poll interval, exit shortly after the campaign completes.
//!
//! # Fault tolerance
//!
//! Three mechanisms keep a flaky fleet from wedging the campaign:
//!
//! * **Lease re-grant**: a worker that asks for a lease while already
//!   holding one (its `Assign` reply was lost in flight) gets its own
//!   lowest-numbered shard handed back with a fresh deadline, instead
//!   of accumulating leases it does not know about.
//! * **Poison-shard quarantine**: a shard whose lease expires
//!   [`Coordinator::with_quarantine_after`] times is parked and never
//!   re-issued — a work unit that reliably kills workers must not take
//!   the whole fleet down with it. Quarantined shards are listed in
//!   status reports and `coordinator-summary.json`. A late submission
//!   of a parked shard is still accepted (work units are pure, so the
//!   bytes are trustworthy) and lifts the quarantine.
//! * **Degraded-terminal state**: when every still-pending shard is
//!   quarantined the campaign can no longer make progress;
//!   [`Coordinator::is_terminal`] turns true, leases answer
//!   [`Reply::Done`] so workers drain, and [`Coordinator::serve`]
//!   exits — with the quarantine on durable record rather than an
//!   eternal busy-wait.
//!
//! Coordinator restart needs no extra machinery: all durable state is
//! the checkpoint (manifest, journal and shard logs), which
//! [`Campaign::open`] rebuilds, and workers treat a refused connection
//! as retryable, so they simply re-handshake when the new process comes
//! up. Leases and quarantine are session state and reset on restart —
//! the worst case is re-evaluating work, never corrupting it.

use crate::campaign::{ShardResult, FORMAT_VERSION};
use crate::engine::Campaign;
use crate::frame::WireStats;
use crate::json::Json;
use crate::transport::{
    LeaseInfo, Reply, Request, ServeTransport, ShardLease, StatusReport, WorkerHeartbeat,
    ACCEPT_WAIT,
};
use crate::Result;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// Backoff hint sent with [`Reply::Wait`].
const WAIT_BACKOFF_MS: u64 = 100;

/// An idle [`ServeTransport::serve_one`] call that took at least this
/// long was itself waiting for a request (the TCP server blocks in
/// `accept` for up to [`ACCEPT_WAIT`]), so the serve loop goes straight
/// back to it instead of sleeping.
const WAITED_FOR_TRAFFIC: Duration = Duration::from_micros(ACCEPT_WAIT.as_micros() as u64 / 2);

/// Default lease-expiry count that parks a shard in quarantine.
const DEFAULT_QUARANTINE_AFTER: u32 = 5;

/// Tallies of coordinator activity, reported when [`Coordinator::serve`]
/// returns and persisted to `coordinator-summary.json` in the campaign
/// directory (refreshed at most once per poll interval and at shutdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoordSummary {
    /// Shard logs recorded for the first time.
    pub shards_recorded: u64,
    /// Idempotent duplicate submissions (byte-identical resubmits).
    pub duplicates: u64,
    /// Leases that expired and were returned to the pending pool.
    pub leases_expired: u64,
    /// Submissions refused (wrong campaign, conflicting bytes,
    /// malformed logs).
    pub refusals: u64,
}

/// Per-worker liveness, fed by every request the worker makes and
/// reported through [`Request::Status`].
#[derive(Debug, Clone, Copy)]
struct WorkerState {
    last_seen: Instant,
    last_submit: Option<Instant>,
    submitted: u64,
}

/// The coordinator state machine.
#[derive(Debug)]
pub struct Coordinator {
    campaign: Campaign,
    lease_ttl: Duration,
    leases: HashMap<u64, (String, Instant)>,
    /// Lease expiries per shard this session; at `quarantine_after` the
    /// shard is parked.
    expiry_counts: HashMap<u64, u32>,
    /// Shards parked after repeated lease expiry — never re-issued
    /// (`BTreeSet` so reports list them in shard order).
    quarantined: BTreeSet<u64>,
    /// Expiry count that parks a shard; 0 disables quarantine.
    quarantine_after: u32,
    /// Last wire-level framing snapshot from the serving transport.
    wire: WireStats,
    summary: CoordSummary,
    /// Workers seen this session, by name (`BTreeMap` so status reports
    /// list them in a stable order). Status observers are not tracked.
    workers: BTreeMap<String, WorkerState>,
    /// When this session handled its first request — the baseline for
    /// session rates and the ETA.
    started: Option<Instant>,
    /// Polynomials scanned across the shards recorded this session.
    scanned: u64,
    /// Survivors across the shards recorded this session.
    survivors: u64,
}

impl Coordinator {
    /// Wraps `campaign`; shards leased out and not submitted within
    /// `lease_ttl` are re-issued.
    pub fn new(campaign: Campaign, lease_ttl: Duration) -> Coordinator {
        Coordinator {
            campaign,
            lease_ttl,
            leases: HashMap::new(),
            expiry_counts: HashMap::new(),
            quarantined: BTreeSet::new(),
            quarantine_after: DEFAULT_QUARANTINE_AFTER,
            wire: WireStats::default(),
            summary: CoordSummary::default(),
            workers: BTreeMap::new(),
            started: None,
            scanned: 0,
            survivors: 0,
        }
    }

    /// Sets the lease-expiry count that parks a shard in quarantine
    /// (default 5); `0` disables quarantine entirely.
    pub fn with_quarantine_after(mut self, expiries: u32) -> Coordinator {
        self.quarantine_after = expiries;
        self
    }

    /// The underlying campaign.
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// Shards currently parked in quarantine, ascending.
    pub fn quarantined_shards(&self) -> Vec<u64> {
        self.quarantined.iter().copied().collect()
    }

    /// Whether serving can stop: the campaign is complete, or it is
    /// degraded-terminal — every still-pending shard is quarantined, so
    /// no lease will ever be issued again.
    pub fn is_terminal(&self) -> bool {
        if self.campaign.is_complete() {
            return true;
        }
        !self.quarantined.is_empty()
            && self
                .campaign
                .pending()
                .all(|s| self.quarantined.contains(&s))
    }

    /// Activity counters so far.
    pub fn summary(&self) -> CoordSummary {
        self.summary
    }

    fn expire_leases(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, (_, deadline))| *deadline <= now)
            .map(|(&shard, _)| shard)
            .collect();
        for &shard in &expired {
            self.leases.remove(&shard);
            let count = self.expiry_counts.entry(shard).or_insert(0);
            *count += 1;
            if self.quarantine_after > 0 && *count >= self.quarantine_after {
                self.quarantined.insert(shard);
            }
        }
        let n = expired.len() as u64;
        self.summary.leases_expired += n;
        if n > 0 {
            if let Some(m) = crate::metrics::coord() {
                m.leases_expired.add(n);
                m.quarantined.set(self.quarantined.len() as u64);
            }
        }
    }

    /// Builds the live progress report behind [`Reply::Status`].
    pub fn status(&mut self, now: Instant) -> StatusReport {
        self.expire_leases(now);
        let (done, total) = self.campaign.progress();
        let mut leases: Vec<LeaseInfo> = self
            .leases
            .iter()
            .map(|(&shard, (worker, deadline))| LeaseInfo {
                shard,
                worker: worker.clone(),
                // The grant time is deadline - ttl; saturate against
                // clock weirdness rather than panic.
                age_ms: (now + self.lease_ttl)
                    .saturating_duration_since(*deadline)
                    .as_millis() as u64,
            })
            .collect();
        leases.sort_unstable_by_key(|l| l.shard);
        let workers = self
            .workers
            .iter()
            .map(|(name, w)| WorkerHeartbeat {
                name: name.clone(),
                seen_ms: now.saturating_duration_since(w.last_seen).as_millis() as u64,
                submitted: w.submitted,
                last_submit_ms: w
                    .last_submit
                    .map(|t| now.saturating_duration_since(t).as_millis() as u64),
            })
            .collect();
        // Session rate and ETA from the shard completion rate: elapsed
        // time is measured from the first request this session handled.
        let elapsed_ms = self
            .started
            .map(|t| now.saturating_duration_since(t).as_millis().max(1) as u64)
            .unwrap_or(1);
        let polys_per_s = self.scanned.saturating_mul(1_000) / elapsed_ms;
        let eta_ms = (self.summary.shards_recorded > 0)
            .then(|| (total - done).saturating_mul(elapsed_ms) / self.summary.shards_recorded);
        StatusReport {
            done,
            total,
            recorded: self.summary.shards_recorded,
            duplicates: self.summary.duplicates,
            leases_expired: self.summary.leases_expired,
            refusals: self.summary.refusals,
            scanned: self.scanned,
            survivors: self.survivors,
            polys_per_s,
            eta_ms,
            frames_rejected: self.wire.frames_rejected,
            quarantined: self.quarantined_shards(),
            leases,
            workers,
        }
    }

    /// Answers a lease request from `worker` as of `now`: the same
    /// decision serves [`Request::Lease`] and a [`Request::Submit`] that
    /// sets `lease_next`.
    fn lease(&mut self, worker: &str, now: Instant) -> Reply {
        if self.campaign.is_complete() {
            return Reply::Done;
        }
        self.expire_leases(now);
        let next = self
            .campaign
            .pending()
            .find(|s| !self.leases.contains_key(s) && !self.quarantined.contains(s));
        // No fresh shard: before parking the worker, re-grant its own
        // lowest outstanding lease — if its Assign reply was lost in
        // flight, this heals the loss without waiting out a TTL expiry.
        let next = next.or_else(|| {
            self.leases
                .iter()
                .filter(|(_, (w, _))| w == worker)
                .map(|(&shard, _)| shard)
                .min()
        });
        match next {
            Some(shard) => {
                self.leases
                    .insert(shard, (worker.to_string(), now + self.lease_ttl));
                let unit = self.campaign.config().work_unit(shard);
                Reply::Assign {
                    shard,
                    start: unit.start,
                    end: unit.end,
                }
            }
            // Degraded-terminal: everything still pending is
            // quarantined, so this worker will never get work — let it
            // drain instead of spinning on Wait.
            None if self.is_terminal() => Reply::Done,
            None => Reply::Wait {
                backoff_ms: WAIT_BACKOFF_MS,
            },
        }
    }

    /// Answers one request as of `now` (injected for testable expiry).
    pub fn handle(&mut self, req: Request, now: Instant) -> Reply {
        self.started.get_or_insert(now);
        if let Some(m) = crate::metrics::coord() {
            m.requests.inc();
        }
        // Every worker request is a heartbeat; status observers are
        // read-only and stay out of the worker table.
        if !matches!(req, Request::Status { .. }) {
            self.workers
                .entry(req.worker().to_string())
                .and_modify(|w| w.last_seen = now)
                .or_insert(WorkerState {
                    last_seen: now,
                    last_submit: None,
                    submitted: 0,
                });
        }
        match req {
            Request::Hello { .. } => Reply::Welcome {
                config: self.campaign.config().to_json(),
                config_hash: format!("{:#018x}", self.campaign.config_hash()),
            },
            Request::Lease { worker } => self.lease(&worker, now),
            Request::Submit {
                worker,
                log,
                lease_next,
            } => {
                let recorded =
                    ShardResult::from_json(&log, self.campaign.config_hash()).and_then(|r| {
                        let stats = (r.unit.shard, r.scanned, r.survivors.len() as u64);
                        let fresh = self.campaign.record_shard(&r)?;
                        Ok((stats, fresh))
                    });
                match recorded {
                    Ok(((shard, scanned, survivors), fresh)) => {
                        self.leases.remove(&shard);
                        // A parked shard that still produced a valid
                        // log was not poison after all — lift the
                        // quarantine (the result bytes are pure in
                        // `(config, shard)`, so late work is as good as
                        // on-time work).
                        if self.quarantined.remove(&shard) {
                            self.expiry_counts.remove(&shard);
                            if let Some(m) = crate::metrics::coord() {
                                m.quarantined.set(self.quarantined.len() as u64);
                            }
                        }
                        if let Some(w) = self.workers.get_mut(&worker) {
                            w.last_submit = Some(now);
                            w.submitted += 1;
                        }
                        if fresh {
                            self.summary.shards_recorded += 1;
                            self.scanned += scanned;
                            self.survivors += survivors;
                        } else {
                            self.summary.duplicates += 1;
                        }
                        if let Some(m) = crate::metrics::coord() {
                            if fresh {
                                m.recorded.inc();
                            } else {
                                m.duplicates.inc();
                            }
                            m.shards_done.set(self.campaign.progress().0);
                        }
                        let next = match lease_next.then(|| self.lease(&worker, now)) {
                            Some(Reply::Assign { shard, start, end }) => {
                                Some(ShardLease { shard, start, end })
                            }
                            _ => None,
                        };
                        Reply::Accepted {
                            shard,
                            fresh,
                            complete: self.campaign.is_complete(),
                            next,
                        }
                    }
                    Err(e) => {
                        self.summary.refusals += 1;
                        if let Some(m) = crate::metrics::coord() {
                            m.refusals.inc();
                        }
                        Reply::Refused {
                            reason: e.to_string(),
                        }
                    }
                }
            }
            Request::Status { .. } => Reply::Status(self.status(now)),
        }
    }

    /// Renders the durable session-summary document written alongside
    /// the campaign artifacts. Integers only; the config hash ties the
    /// document to its campaign, and campaign-lifetime progress
    /// (`done`/`total`) rides along so the file is useful after the
    /// process exits.
    pub fn summary_json(&self) -> Json {
        let (done, total) = self.campaign.progress();
        Json::obj([
            ("format", Json::Str("crc-survey-coordinator-summary".into())),
            ("version", Json::Int(FORMAT_VERSION)),
            (
                "config_hash",
                Json::Str(format!("{:#018x}", self.campaign.config_hash())),
            ),
            ("done", Json::Int(done)),
            ("total", Json::Int(total)),
            ("shards_recorded", Json::Int(self.summary.shards_recorded)),
            ("duplicates", Json::Int(self.summary.duplicates)),
            ("leases_expired", Json::Int(self.summary.leases_expired)),
            ("refusals", Json::Int(self.summary.refusals)),
            ("scanned", Json::Int(self.scanned)),
            ("survivors", Json::Int(self.survivors)),
            (
                "quarantined",
                Json::Arr(
                    self.quarantined
                        .iter()
                        .map(|&s| Json::Int(s))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("frames_sent", Json::Int(self.wire.frames_sent)),
            ("frames_rejected", Json::Int(self.wire.frames_rejected)),
            ("retries_signalled", Json::Int(self.wire.retries_signalled)),
            ("chaos_injected", Json::Int(self.wire.chaos_injected)),
        ])
    }

    /// Persists [`Coordinator::summary_json`] to
    /// `coordinator-summary.json` in the campaign directory, atomically
    /// (temp + rename, like every other artifact).
    ///
    /// # Errors
    ///
    /// IO failures from the write.
    pub fn write_summary(&self) -> Result<()> {
        crate::engine::write_atomic(
            &self.campaign.dir().join("coordinator-summary.json"),
            &self.summary_json().render(),
        )
    }

    /// Serves `transport` until the campaign reaches a terminal state
    /// (complete, or degraded-terminal with every pending shard
    /// quarantined — see [`Coordinator::is_terminal`]), then lingers
    /// for `linger` so workers parked in [`Reply::Wait`] backoff can
    /// still learn it is [`Reply::Done`]. On the way out it calls
    /// [`ServeTransport::finish`], so a request that arrives after the
    /// linger still learns it.
    ///
    /// A transport that waits for requests (TCP) is called straight
    /// back, so a request is answered as soon as it arrives; one that
    /// returns at once when idle (the file queue) is topped up to `poll`
    /// by sleeping. At most once per `poll`, busy or idle, the loop
    /// expires leases, so quarantine progresses even when every worker
    /// is dead, and persists the session summary to
    /// `coordinator-summary.json` when it changed; it persists it once
    /// more before returning, so the counters survive the process.
    ///
    /// # Errors
    ///
    /// Transport-level failures from
    /// [`ServeTransport::serve_one`]; per-request problems are answered
    /// with [`Reply::Refused`] and never end the loop.
    pub fn serve(
        &mut self,
        transport: &mut dyn ServeTransport,
        poll: Duration,
        linger: Duration,
    ) -> Result<CoordSummary> {
        let mut complete_since: Option<Instant> = None;
        let mut last_tick: Option<Instant> = None;
        let mut persisted: Option<String> = None;
        loop {
            let started = Instant::now();
            let served = transport.serve_one(&mut |req| self.handle(req, Instant::now()))?;
            let spent = started.elapsed();
            self.wire = transport.wire_stats();
            if self.is_terminal() {
                let since = *complete_since.get_or_insert_with(Instant::now);
                if !served && since.elapsed() >= linger {
                    self.write_summary()?;
                    transport.finish()?;
                    return Ok(self.summary);
                }
            } else {
                complete_since = None;
            }
            // Tick on time, not on idleness: a fleet that keeps the
            // coordinator busy must not leave the summary stale.
            if last_tick.is_none_or(|t| started.duration_since(t) >= poll) {
                last_tick = Some(started);
                // Expire leases so a fleet that died without a word
                // still drives quarantine forward…
                self.expire_leases(Instant::now());
                // …and persist the summary when it changed (the
                // document is a few hundred bytes).
                let doc = self.summary_json().render();
                if persisted.as_deref() != Some(&doc) {
                    crate::engine::write_atomic(
                        &self.campaign.dir().join("coordinator-summary.json"),
                        &doc,
                    )?;
                    persisted = Some(doc);
                }
            }
            if !served && spent < WAITED_FOR_TRAFFIC {
                std::thread::sleep(poll.saturating_sub(spent));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, Mode};
    use crate::engine::{evaluate_unit, UnitScratch};
    use crate::json::Json;
    use crate::transport::{
        FileQueueClient, FileQueueServer, TcpClient, TcpServer, WorkerTransport,
    };
    use crate::Error;

    fn test_config() -> CampaignConfig {
        CampaignConfig {
            width: 10,
            shards: 3,
            seed: 11,
            mode: Mode::Exhaustive,
            min_hd: 4,
            target_lengths: vec![16, 64],
            ber_grid: vec![1e-5],
            max_weight: 6,
        }
    }

    fn fresh_coordinator(tag: &str, ttl: Duration) -> (Coordinator, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("crc-coord-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::create(&dir, test_config()).unwrap();
        (Coordinator::new(campaign, ttl), dir)
    }

    fn shard_log(config: &CampaignConfig, shard: u64) -> Json {
        let unit = config.work_units()[shard as usize];
        let result = evaluate_unit(config, unit, &mut UnitScratch::default()).unwrap();
        result.to_json(config.content_hash())
    }

    #[test]
    fn leases_expire_and_reissue() {
        let (mut coord, dir) = fresh_coordinator("expire", Duration::from_secs(5));
        let t0 = Instant::now();
        // Worker a takes shard 0 and dies.
        let r = coord.handle(Request::Lease { worker: "a".into() }, t0);
        assert!(matches!(r, Reply::Assign { shard: 0, .. }));
        // While the lease lives, worker b is routed around shard 0.
        let r = coord.handle(Request::Lease { worker: "b".into() }, t0);
        assert!(matches!(r, Reply::Assign { shard: 1, .. }));
        let r = coord.handle(Request::Lease { worker: "b".into() }, t0);
        assert!(matches!(r, Reply::Assign { shard: 2, .. }));
        // No fresh shard left: b gets its own lowest lease re-granted
        // (heals a lost Assign reply), not a Wait.
        let r = coord.handle(Request::Lease { worker: "b".into() }, t0);
        assert!(matches!(r, Reply::Assign { shard: 1, .. }));
        // A worker with no leases of its own does wait.
        let r = coord.handle(Request::Lease { worker: "c".into() }, t0);
        assert!(matches!(r, Reply::Wait { .. }));
        // Past the deadline, shard 0 is re-issued.
        let late = t0 + Duration::from_secs(6);
        let r = coord.handle(Request::Lease { worker: "b".into() }, late);
        assert!(matches!(r, Reply::Assign { shard: 0, .. }));
        assert_eq!(coord.summary().leases_expired, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_submissions_are_idempotent() {
        let (mut coord, dir) = fresh_coordinator("dup", Duration::from_secs(5));
        let config = coord.campaign().config().clone();
        let now = Instant::now();
        let log = shard_log(&config, 1);
        let r = coord.handle(
            Request::Submit {
                worker: "a".into(),
                log: log.clone(),
                lease_next: false,
            },
            now,
        );
        assert_eq!(
            r,
            Reply::Accepted {
                shard: 1,
                fresh: true,
                complete: false,
                next: None,
            }
        );
        // The zombie resubmits the identical unit: accepted, not fresh,
        // artifacts untouched.
        let before = std::fs::read_to_string(coord.campaign().shard_log_path(1)).unwrap();
        let r = coord.handle(
            Request::Submit {
                worker: "zombie".into(),
                log,
                lease_next: false,
            },
            now,
        );
        assert_eq!(
            r,
            Reply::Accepted {
                shard: 1,
                fresh: false,
                complete: false,
                next: None,
            }
        );
        let after = std::fs::read_to_string(coord.campaign().shard_log_path(1)).unwrap();
        assert_eq!(before, after);
        assert_eq!(coord.summary().duplicates, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn conflicting_or_foreign_submissions_are_refused() {
        let (mut coord, dir) = fresh_coordinator("refuse", Duration::from_secs(5));
        let now = Instant::now();
        // A log from a different campaign (wrong hash) is refused.
        let mut other = test_config();
        other.seed = 999;
        let foreign = shard_log(&other, 0);
        let r = coord.handle(
            Request::Submit {
                worker: "a".into(),
                log: foreign,
                lease_next: false,
            },
            now,
        );
        assert!(matches!(r, Reply::Refused { .. }));
        assert_eq!(coord.summary().refusals, 1);
        assert_eq!(coord.campaign().pending_shards(), vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_protocol_completes_a_campaign() {
        let (mut coord, dir) = fresh_coordinator("full", Duration::from_secs(60));
        let now = Instant::now();
        let Reply::Welcome {
            config,
            config_hash,
        } = coord.handle(Request::Hello { worker: "w".into() }, now)
        else {
            panic!("expected welcome")
        };
        let config = CampaignConfig::from_json(&config).unwrap();
        assert_eq!(config_hash, format!("{:#018x}", config.content_hash()));
        let mut scratch = UnitScratch::default();
        loop {
            match coord.handle(Request::Lease { worker: "w".into() }, Instant::now()) {
                Reply::Assign { shard, .. } => {
                    let unit = config.work_units()[shard as usize];
                    let result = evaluate_unit(&config, unit, &mut scratch).unwrap();
                    let r = coord.handle(
                        Request::Submit {
                            worker: "w".into(),
                            log: result.to_json(config.content_hash()),
                            lease_next: false,
                        },
                        Instant::now(),
                    );
                    assert!(matches!(r, Reply::Accepted { fresh: true, .. }));
                }
                Reply::Done => break,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert!(coord.campaign().is_complete());
        assert_eq!(coord.summary().shards_recorded, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_reports_heartbeats_leases_and_eta() {
        let (mut coord, dir) = fresh_coordinator("status", Duration::from_secs(60));
        let config = coord.campaign().config().clone();
        let t0 = Instant::now();

        // Before any work: no ETA, no workers, full campaign pending.
        let Reply::Status(empty) = coord.handle(
            Request::Status {
                worker: "watch1".into(),
            },
            t0,
        ) else {
            panic!("expected status reply")
        };
        assert_eq!((empty.done, empty.total), (0, 3));
        assert_eq!(empty.eta_ms, None);
        assert!(empty.workers.is_empty(), "observers are not workers");
        assert!(empty.leases.is_empty());

        // One lease outstanding, one shard submitted by another worker.
        let r = coord.handle(Request::Lease { worker: "a".into() }, t0);
        assert!(matches!(r, Reply::Assign { shard: 0, .. }));
        let r = coord.handle(
            Request::Submit {
                worker: "b".into(),
                log: shard_log(&config, 1),
                lease_next: false,
            },
            t0 + Duration::from_secs(2),
        );
        assert!(matches!(r, Reply::Accepted { fresh: true, .. }));

        let Reply::Status(s) = coord.handle(
            Request::Status {
                worker: "watch1".into(),
            },
            t0 + Duration::from_secs(4),
        ) else {
            panic!("expected status reply")
        };
        assert_eq!((s.done, s.total), (1, 3));
        assert_eq!(s.recorded, 1);
        assert!(s.scanned > 0);
        assert_eq!(s.leases.len(), 1);
        assert_eq!(s.leases[0].shard, 0);
        assert_eq!(s.leases[0].worker, "a");
        assert_eq!(s.leases[0].age_ms, 4_000);
        let names: Vec<&str> = s.workers.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, ["a", "b"], "sorted, observer excluded");
        assert_eq!(s.workers[1].submitted, 1);
        assert_eq!(s.workers[1].last_submit_ms, Some(2_000));
        assert_eq!(s.workers[0].last_submit_ms, None);
        // 2 shards remain at 1 shard per 4s of session time.
        assert_eq!(s.eta_ms, Some(8_000));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn submit_and_lease(config: &CampaignConfig, worker: &str, shard: u64) -> Request {
        Request::Submit {
            worker: worker.into(),
            log: shard_log(config, shard),
            lease_next: true,
        }
    }

    fn lease_of(config: &CampaignConfig, shard: u64) -> Option<ShardLease> {
        let unit = config.work_unit(shard);
        Some(ShardLease {
            shard,
            start: unit.start,
            end: unit.end,
        })
    }

    #[test]
    fn a_flagged_submission_carries_the_next_lease() {
        let (mut coord, dir) = fresh_coordinator("piggyback", Duration::from_secs(60));
        let config = coord.campaign().config().clone();
        let t0 = Instant::now();
        let r = coord.handle(Request::Lease { worker: "a".into() }, t0);
        assert!(matches!(r, Reply::Assign { shard: 0, .. }));
        let r = coord.handle(Request::Lease { worker: "b".into() }, t0);
        assert!(matches!(r, Reply::Assign { shard: 1, .. }));
        // a hands in shard 0 and gets the lowest pending, unleased shard.
        let r = coord.handle(submit_and_lease(&config, "a", 0), t0);
        assert_eq!(
            r,
            Reply::Accepted {
                shard: 0,
                fresh: true,
                complete: false,
                next: lease_of(&config, 2),
            }
        );
        let Reply::Status(s) = coord.handle(
            Request::Status {
                worker: "watch1".into(),
            },
            t0,
        ) else {
            panic!("expected status reply")
        };
        let leases: Vec<(u64, &str)> = s
            .leases
            .iter()
            .map(|l| (l.shard, l.worker.as_str()))
            .collect();
        assert_eq!(leases, [(1, "b"), (2, "a")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flagged_duplicate_at_the_tail_regrants_the_workers_own_lease() {
        let (mut coord, dir) = fresh_coordinator("piggyback-tail", Duration::from_secs(60));
        let config = coord.campaign().config().clone();
        let t0 = Instant::now();
        coord.handle(Request::Lease { worker: "a".into() }, t0);
        coord.handle(Request::Lease { worker: "b".into() }, t0);
        let r = coord.handle(submit_and_lease(&config, "a", 0), t0);
        assert!(matches!(
            r,
            Reply::Accepted {
                next: Some(ShardLease { shard: 2, .. }),
                ..
            }
        ));
        // That reply was lost and a resends: a duplicate, and with no
        // fresh shard left, a gets its own outstanding lease back.
        let r = coord.handle(submit_and_lease(&config, "a", 0), t0);
        assert_eq!(
            r,
            Reply::Accepted {
                shard: 0,
                fresh: false,
                complete: false,
                next: lease_of(&config, 2),
            }
        );
        // b holds nothing more and nothing is free: a Wait, so no lease.
        let r = coord.handle(submit_and_lease(&config, "b", 1), t0);
        assert!(matches!(
            r,
            Reply::Accepted {
                fresh: true,
                next: None,
                ..
            }
        ));
        // The last shard completes the campaign: Done, so no lease.
        let r = coord.handle(submit_and_lease(&config, "a", 2), t0);
        assert!(matches!(
            r,
            Reply::Accepted {
                complete: true,
                next: None,
                ..
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_expiries_quarantine_a_shard() {
        let (coord, dir) = fresh_coordinator("quarantine", Duration::from_secs(1));
        let mut coord = coord.with_quarantine_after(2);
        let config = coord.campaign().config().clone();
        let t0 = Instant::now();
        // Shard 0 expires twice under worker "sick" → parked.
        for round in 0..2u64 {
            let t = t0 + Duration::from_secs(3 * round);
            let r = coord.handle(
                Request::Lease {
                    worker: "sick".into(),
                },
                t,
            );
            assert!(matches!(r, Reply::Assign { shard: 0, .. }));
        }
        let late = t0 + Duration::from_secs(10);
        // Next lease: shard 0 is quarantined, so shard 1 is issued.
        let r = coord.handle(
            Request::Lease {
                worker: "ok".into(),
            },
            late,
        );
        assert!(matches!(r, Reply::Assign { shard: 1, .. }));
        assert_eq!(coord.quarantined_shards(), vec![0]);
        assert_eq!(coord.summary().leases_expired, 2);
        assert!(!coord.is_terminal());

        // Status surfaces the quarantine.
        let Reply::Status(s) = coord.handle(
            Request::Status {
                worker: "watch1".into(),
            },
            late,
        ) else {
            panic!("expected status reply")
        };
        assert_eq!(s.quarantined, vec![0]);

        // Record everything but the parked shard: the campaign becomes
        // degraded-terminal and drains workers with Done.
        for shard in [1, 2] {
            let r = coord.handle(
                Request::Submit {
                    worker: "ok".into(),
                    log: shard_log(&config, shard),
                    lease_next: false,
                },
                late,
            );
            assert!(matches!(r, Reply::Accepted { fresh: true, .. }));
        }
        assert!(coord.is_terminal());
        assert!(!coord.campaign().is_complete());
        let r = coord.handle(
            Request::Lease {
                worker: "ok".into(),
            },
            late,
        );
        assert_eq!(r, Reply::Done);
        // The summary document names the parked shard.
        let doc = coord.summary_json();
        let q = doc.require("quarantined").unwrap().as_arr().unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].as_u64(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn late_submission_lifts_quarantine() {
        let (coord, dir) = fresh_coordinator("unquarantine", Duration::from_secs(1));
        let mut coord = coord.with_quarantine_after(1);
        let config = coord.campaign().config().clone();
        let t0 = Instant::now();
        let r = coord.handle(
            Request::Lease {
                worker: "slow".into(),
            },
            t0,
        );
        assert!(matches!(r, Reply::Assign { shard: 0, .. }));
        // One expiry parks it (quarantine_after = 1).
        let late = t0 + Duration::from_secs(5);
        let r = coord.handle(
            Request::Lease {
                worker: "other".into(),
            },
            late,
        );
        assert!(matches!(r, Reply::Assign { shard: 1, .. }));
        assert_eq!(coord.quarantined_shards(), vec![0]);
        // The slow worker finally submits shard 0: accepted, quarantine
        // lifted, campaign can complete fully.
        let r = coord.handle(
            Request::Submit {
                worker: "slow".into(),
                log: shard_log(&config, 0),
                lease_next: false,
            },
            late,
        );
        assert!(matches!(r, Reply::Accepted { fresh: true, .. }));
        assert!(coord.quarantined_shards().is_empty());
        for shard in [1, 2] {
            coord.handle(
                Request::Submit {
                    worker: "other".into(),
                    log: shard_log(&config, shard),
                    lease_next: false,
                },
                late,
            );
        }
        assert!(coord.campaign().is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_persists_deterministically() {
        let (mut coord, dir) = fresh_coordinator("persist", Duration::from_secs(60));
        let config = coord.campaign().config().clone();
        let now = Instant::now();
        for shard in 0..3 {
            let r = coord.handle(
                Request::Submit {
                    worker: "w".into(),
                    log: shard_log(&config, shard),
                    lease_next: false,
                },
                now,
            );
            assert!(matches!(r, Reply::Accepted { .. }));
        }
        coord.write_summary().unwrap();
        let path = dir.join("coordinator-summary.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, coord.summary_json().render(), "written bytes match");
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.require("format").unwrap().as_str(),
            Some("crc-survey-coordinator-summary")
        );
        assert_eq!(doc.require("shards_recorded").unwrap().as_u64(), Some(3));
        assert_eq!(doc.require("done").unwrap().as_u64(), Some(3));
        assert_eq!(doc.require("total").unwrap().as_u64(), Some(3));
        assert!(doc.require("scanned").unwrap().as_u64().unwrap() > 0);
        // Re-writing produces identical bytes.
        coord.write_summary().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Serves a request on every call until `busy_for` has passed, then
    /// fails as a dead listener would: `Hello`s, with one shard
    /// submission halfway through.
    struct AlwaysBusy {
        started: Instant,
        busy_for: Duration,
        submit: Option<Json>,
    }

    impl ServeTransport for AlwaysBusy {
        fn serve_one(&mut self, handler: &mut dyn FnMut(Request) -> Reply) -> Result<bool> {
            let elapsed = self.started.elapsed();
            if elapsed >= self.busy_for {
                return Err(Error::Io("script over".into()));
            }
            let worker = "w".to_string();
            let req = match self.submit.take_if(|_| elapsed >= self.busy_for / 2) {
                Some(log) => Request::Submit {
                    worker,
                    log,
                    lease_next: false,
                },
                None => Request::Hello { worker },
            };
            handler(req);
            Ok(true)
        }
    }

    #[test]
    fn summary_is_persisted_while_the_coordinator_stays_busy() {
        let (mut coord, dir) = fresh_coordinator("busy", Duration::from_secs(60));
        let config = coord.campaign().config().clone();
        let poll = Duration::from_millis(10);
        let mut transport = AlwaysBusy {
            started: Instant::now(),
            busy_for: poll * 11,
            submit: Some(shard_log(&config, 0)),
        };
        // Never idle: the loop only ends when the script does.
        assert!(coord.serve(&mut transport, poll, Duration::ZERO).is_err());
        let text = std::fs::read_to_string(dir.join("coordinator-summary.json"))
            .expect("the summary is written on time, not only when idle");
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.require("shards_recorded").unwrap().as_u64(),
            Some(1),
            "a tick after the mid-run submission refreshed it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_requests_are_answered_on_arrival_not_after_a_poll() {
        let (mut coord, dir) = fresh_coordinator("wake", Duration::from_secs(60));
        let config = coord.campaign().config().clone();
        let mut server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let worker = || "w".to_string();
        let submit = |shard| Request::Submit {
            worker: worker(),
            log: shard_log(&config, shard),
            lease_next: false,
        };
        let requests = [
            Request::Hello { worker: worker() },
            submit(0),
            submit(1),
            Request::Status { worker: worker() },
            submit(2),
        ];
        // A 1 s poll: a loop that sleeps out its poll when idle would
        // answer most of these calls late.
        let coord_thread = std::thread::spawn(move || {
            coord
                .serve(&mut server, Duration::from_secs(1), Duration::ZERO)
                .unwrap()
        });
        let mut client = TcpClient::new(&addr).with_timeout(Duration::from_secs(10));
        for req in &requests {
            // Let the coordinator go idle before each call.
            std::thread::sleep(Duration::from_millis(150));
            let t = Instant::now();
            let reply = client.call(req).unwrap();
            let rtt = t.elapsed();
            assert!(
                !matches!(reply, Reply::Refused { .. } | Reply::Retry { .. }),
                "{reply:?}"
            );
            assert!(
                rtt < Duration::from_millis(300),
                "{:?} answered after {rtt:?}",
                req.to_json().require("type").unwrap()
            );
        }
        // The last submission completed the campaign; with no linger the
        // loop ends on its next idle return.
        assert_eq!(coord_thread.join().unwrap().shards_recorded, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_queue_requests_queued_after_serve_returns_get_done() {
        let (mut coord, dir) = fresh_coordinator("fq-done", Duration::from_secs(60));
        let config = coord.campaign().config().clone();
        let queue = dir.with_extension("queue");
        let _ = std::fs::remove_dir_all(&queue);
        let mut server = FileQueueServer::new(&queue).unwrap();
        for shard in 0..3 {
            let log = shard_log(&config, shard);
            coord.handle(
                Request::Submit {
                    worker: "w".into(),
                    log,
                    lease_next: false,
                },
                Instant::now(),
            );
        }
        let poll = Duration::from_millis(10);
        coord.serve(&mut server, poll, Duration::ZERO).unwrap();
        // A worker's resent submission lands after the coordinator has
        // gone; no one will ever serve it.
        let mut client = FileQueueClient::new(&queue, "w")
            .unwrap()
            .with_timing(poll, Duration::from_secs(30));
        let t = Instant::now();
        let reply = client
            .call(&Request::Submit {
                worker: "w".into(),
                log: shard_log(&config, 2),
                lease_next: false,
            })
            .unwrap();
        assert_eq!(reply, Reply::Done);
        assert!(t.elapsed() < poll * 20, "answered after {:?}", t.elapsed());
        // A new coordinator on the same queue clears the stale marker.
        FileQueueServer::new(&queue).unwrap();
        let mut client = client.with_timing(poll, poll * 5);
        let err = client
            .call(&Request::Lease { worker: "w".into() })
            .unwrap_err();
        assert!(err.is_retryable(), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&queue);
    }
}
