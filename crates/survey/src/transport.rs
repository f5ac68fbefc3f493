//! Pluggable coordinator↔worker message transport.
//!
//! The distributed campaign protocol is a plain request/reply exchange
//! of JSON documents; this module defines the messages and two wire
//! implementations with identical semantics:
//!
//! * **File queue** ([`FileQueueClient`] / [`FileQueueServer`]) — a
//!   shared directory (NFS-friendly, no ports, trivially debuggable):
//!   workers drop request files into `inbox/` with an atomic rename and
//!   poll `outbox/<worker>/` for the matching reply file. Sequence
//!   numbers in the file names pair requests with replies. A
//!   coordinator that finished leaves a framed [`Reply::Done`] in
//!   `done.json`, which answers every request it will never serve.
//! * **TCP** ([`TcpClient`] / [`TcpServer`]) — line-delimited JSON over
//!   `std::net`: one connection per request, one compact-rendered
//!   request line in, one reply line back.
//!
//! After a worker's first [`Request::Lease`], each shard costs one round
//! trip: a [`Request::Submit`] with `lease_next` set asks for the next
//! shard, and the [`Reply::Accepted`] carries it in `next`. Both fields
//! are omitted from the wire when unset, and a missing field reads as
//! unset, so peers built before them interoperate with peers built
//! after: an old worker never asks, and an old coordinator never
//! answers, in which case the worker falls back to an explicit lease.
//!
//! Both sides see only the [`Request`]/[`Reply`] enums; the coordinator
//! serves any [`ServeTransport`], a worker drives any
//! [`WorkerTransport`]. Transport choice never affects campaign
//! artifacts — work units are pure in `(config, shard id)` and the
//! coordinator re-renders submissions through the same schema types the
//! single-host engine writes.
//!
//! Every wire line carries a CRC-32 trailer ([`crate::frame`]) and is
//! verified on read. A frame that fails verification is *retryable*,
//! never fatal: servers answer [`Reply::Retry`] (when they can still
//! attribute the sender) or drop the frame; clients surface
//! [`crate::Error::Frame`], which the worker retry layer resends. Both
//! ends count what they saw into [`WireCounters`], surfaced through
//! [`WorkerTransport::wire_stats`] / [`ServeTransport::wire_stats`].

use crate::frame::{self, WireCounters, WireStats};
use crate::json::Json;
use crate::{Error, Result};
use gf2poly::SplitMix64;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A worker-originated protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// First contact: asks for the campaign configuration.
    Hello {
        /// The worker's self-chosen name (file-name safe).
        worker: String,
    },
    /// Asks for a shard lease.
    Lease {
        /// The requesting worker.
        worker: String,
    },
    /// Submits one completed shard log (the full shard-log document).
    Submit {
        /// The submitting worker.
        worker: String,
        /// The shard-log JSON document.
        log: Json,
        /// Also lease the worker its next shard, answered in
        /// [`Reply::Accepted`]'s `next`. On the wire as `lease_next`,
        /// present only when `true`.
        lease_next: bool,
    },
    /// Asks for a live status report (`survey watch`, dashboards).
    /// Read-only: status requests never acquire leases and are not
    /// tracked as worker heartbeats.
    Status {
        /// The requesting observer (file-name safe, like any worker
        /// name — file-queue replies land in `outbox/<worker>/`).
        worker: String,
    },
}

impl Request {
    /// The worker name carried by any request.
    pub fn worker(&self) -> &str {
        match self {
            Request::Hello { worker } | Request::Lease { worker } => worker,
            Request::Submit { worker, .. } => worker,
            Request::Status { worker } => worker,
        }
    }

    /// The wire form.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { worker } => Json::obj([
                ("type", Json::Str("hello".into())),
                ("worker", Json::Str(worker.clone())),
            ]),
            Request::Lease { worker } => Json::obj([
                ("type", Json::Str("lease".into())),
                ("worker", Json::Str(worker.clone())),
            ]),
            Request::Submit {
                worker,
                log,
                lease_next,
            } => {
                let mut pairs = vec![
                    ("type", Json::Str("submit".into())),
                    ("worker", Json::Str(worker.clone())),
                    ("log", log.clone()),
                ];
                if *lease_next {
                    pairs.push(("lease_next", Json::Bool(true)));
                }
                Json::obj(pairs)
            }
            Request::Status { worker } => Json::obj([
                ("type", Json::Str("status".into())),
                ("worker", Json::Str(worker.clone())),
            ]),
        }
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on schema problems or an unsafe worker name.
    pub fn from_json(v: &Json) -> Result<Request> {
        let worker = v
            .require("worker")?
            .as_str()
            .ok_or_else(|| Error::Parse("worker is not a string".into()))?
            .to_string();
        validate_worker_name(&worker)?;
        match v.require("type")?.as_str() {
            Some("hello") => Ok(Request::Hello { worker }),
            Some("lease") => Ok(Request::Lease { worker }),
            Some("submit") => Ok(Request::Submit {
                worker,
                log: v.require("log")?.clone(),
                lease_next: match v.get("lease_next") {
                    None => false,
                    Some(flag) => flag
                        .as_bool()
                        .ok_or_else(|| Error::Parse("lease_next is not a bool".into()))?,
                },
            }),
            Some("status") => Ok(Request::Status { worker }),
            other => Err(Error::Parse(format!("unknown request type {other:?}"))),
        }
    }
}

/// A coordinator reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Hello`]: the campaign configuration and its
    /// content hash — workers need no local copy of the config.
    Welcome {
        /// The campaign config document (`CampaignConfig::to_json`).
        config: Json,
        /// The config content hash (`{:#018x}`), echoed for sanity.
        config_hash: String,
    },
    /// A shard lease: process this unit and submit its log.
    Assign {
        /// Shard id.
        shard: u64,
        /// First offset (or draw index) covered, inclusive.
        start: u64,
        /// One past the last offset covered.
        end: u64,
    },
    /// Nothing to lease right now (all pending shards are leased out);
    /// retry after the hinted backoff.
    Wait {
        /// Suggested retry delay in milliseconds.
        backoff_ms: u64,
    },
    /// The campaign is complete; the worker may exit.
    Done,
    /// A submission was accepted.
    Accepted {
        /// The shard that was recorded.
        shard: u64,
        /// `false` when the shard was already checkpointed (idempotent
        /// duplicate).
        fresh: bool,
        /// `true` once the whole campaign is complete — the worker may
        /// exit without another round trip.
        complete: bool,
        /// The worker's next lease, when the submission asked for one
        /// (`lease_next`) and the coordinator would have answered a
        /// [`Request::Lease`] with [`Reply::Assign`]. On the wire only
        /// when present.
        next: Option<ShardLease>,
    },
    /// The request was rejected (wrong campaign, conflicting bytes,
    /// malformed log). Semantic and permanent: resending the same
    /// request cannot succeed.
    Refused {
        /// Human-readable reason.
        reason: String,
    },
    /// The request (or its reply) was damaged or lost in flight —
    /// resend it. Transient and idempotent-safe, unlike
    /// [`Reply::Refused`]: servers answer this for CRC-rejected frames,
    /// and chaos wrappers for simulated wire faults.
    Retry {
        /// Human-readable reason (which fault was detected).
        reason: String,
    },
    /// Answer to [`Request::Status`]: a live progress report.
    Status(StatusReport),
}

/// A granted shard lease: [`Reply::Assign`]'s fields, as carried in
/// [`Reply::Accepted`]'s `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardLease {
    /// Shard id.
    pub shard: u64,
    /// First offset (or draw index) covered, inclusive.
    pub start: u64,
    /// One past the last offset covered.
    pub end: u64,
}

impl ShardLease {
    fn to_json(self) -> Json {
        Json::obj([
            ("shard", Json::Int(self.shard)),
            ("start", Json::Int(self.start)),
            ("end", Json::Int(self.end)),
        ])
    }

    fn from_json(v: &Json) -> Result<ShardLease> {
        let int = |key: &str| -> Result<u64> {
            v.require(key)?
                .as_u64()
                .ok_or_else(|| Error::Parse(format!("lease {key} is not an unsigned integer")))
        };
        Ok(ShardLease {
            shard: int("shard")?,
            start: int("start")?,
            end: int("end")?,
        })
    }
}

/// One outstanding shard lease, as reported by [`Reply::Status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseInfo {
    /// The leased shard.
    pub shard: u64,
    /// The worker holding the lease.
    pub worker: String,
    /// Milliseconds since the lease was granted.
    pub age_ms: u64,
}

/// One worker's heartbeat, as reported by [`Reply::Status`]. The
/// coordinator tracks every worker that has contacted it this session
/// (status observers excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHeartbeat {
    /// The worker's name.
    pub name: String,
    /// Milliseconds since the worker's last request of any kind.
    pub seen_ms: u64,
    /// Fresh shards this worker has submitted this session.
    pub submitted: u64,
    /// Milliseconds since its last accepted submission, if any.
    pub last_submit_ms: Option<u64>,
}

/// The live progress document behind [`Reply::Status`]. All quantities
/// are integers (milliseconds, counts, polynomials per second) so the
/// wire form renders deterministically for a fixed coordinator state.
///
/// Counters split into two groups: campaign-lifetime progress
/// (`done`/`total`, from the manifest) and session counters that reset
/// with the coordinator process (`recorded`, `duplicates`,
/// `leases_expired`, `refusals`, `scanned`, `survivors`, the rate and
/// the ETA).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatusReport {
    /// Shards checkpointed in the manifest.
    pub done: u64,
    /// Shards in the campaign.
    pub total: u64,
    /// Fresh shard results recorded by this coordinator session.
    pub recorded: u64,
    /// Idempotent duplicate submissions this session.
    pub duplicates: u64,
    /// Leases reclaimed after TTL expiry this session.
    pub leases_expired: u64,
    /// Refused requests this session.
    pub refusals: u64,
    /// Polynomials scanned across the shards recorded this session.
    pub scanned: u64,
    /// Survivors recorded this session.
    pub survivors: u64,
    /// Session scan rate in polynomials per second (0 until the first
    /// shard lands).
    pub polys_per_s: u64,
    /// Estimated milliseconds to completion from the session's shard
    /// completion rate; `None` until one shard has been recorded.
    pub eta_ms: Option<u64>,
    /// Wire frames the serving transport rejected on CRC/trailer
    /// verification this session (0 when served through
    /// [`Coordinator::handle`] directly).
    ///
    /// [`Coordinator::handle`]: crate::coordinator::Coordinator::handle
    pub frames_rejected: u64,
    /// Poison shards parked after repeatedly expiring their leases;
    /// ascending. Quarantined shards are no longer issued — the
    /// campaign reaches a terminal degraded state instead of spinning,
    /// and `survey merge` can fold their logs in later.
    pub quarantined: Vec<u64>,
    /// Outstanding leases, ascending by shard.
    pub leases: Vec<LeaseInfo>,
    /// Known workers, ascending by name.
    pub workers: Vec<WorkerHeartbeat>,
}

impl StatusReport {
    /// The wire form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("done", Json::Int(self.done)),
            ("total", Json::Int(self.total)),
            ("recorded", Json::Int(self.recorded)),
            ("duplicates", Json::Int(self.duplicates)),
            ("leases_expired", Json::Int(self.leases_expired)),
            ("refusals", Json::Int(self.refusals)),
            ("scanned", Json::Int(self.scanned)),
            ("survivors", Json::Int(self.survivors)),
            ("polys_per_s", Json::Int(self.polys_per_s)),
            ("eta_ms", self.eta_ms.map_or(Json::Null, Json::Int)),
            ("frames_rejected", Json::Int(self.frames_rejected)),
            (
                "quarantined",
                Json::Arr(self.quarantined.iter().copied().map(Json::Int).collect()),
            ),
            (
                "leases",
                Json::Arr(
                    self.leases
                        .iter()
                        .map(|l| {
                            Json::obj([
                                ("shard", Json::Int(l.shard)),
                                ("worker", Json::Str(l.worker.clone())),
                                ("age_ms", Json::Int(l.age_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("name", Json::Str(w.name.clone())),
                                ("seen_ms", Json::Int(w.seen_ms)),
                                ("submitted", Json::Int(w.submitted)),
                                (
                                    "last_submit_ms",
                                    w.last_submit_ms.map_or(Json::Null, Json::Int),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on schema problems.
    pub fn from_json(v: &Json) -> Result<StatusReport> {
        let int = |key: &str| -> Result<u64> {
            v.require(key)?
                .as_u64()
                .ok_or_else(|| Error::Parse(format!("{key} is not an unsigned integer")))
        };
        let opt_int = |key: &str| -> Result<Option<u64>> {
            match v.require(key)? {
                Json::Null => Ok(None),
                other => other
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| Error::Parse(format!("{key} is not null or an integer"))),
            }
        };
        let leases = v
            .require("leases")?
            .as_arr()
            .ok_or_else(|| Error::Parse("leases is not an array".into()))?
            .iter()
            .map(|l| {
                Ok(LeaseInfo {
                    shard: l
                        .require("shard")?
                        .as_u64()
                        .ok_or_else(|| Error::Parse("lease shard is not an integer".into()))?,
                    worker: l
                        .require("worker")?
                        .as_str()
                        .ok_or_else(|| Error::Parse("lease worker is not a string".into()))?
                        .to_string(),
                    age_ms: l
                        .require("age_ms")?
                        .as_u64()
                        .ok_or_else(|| Error::Parse("lease age_ms is not an integer".into()))?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let workers = v
            .require("workers")?
            .as_arr()
            .ok_or_else(|| Error::Parse("workers is not an array".into()))?
            .iter()
            .map(|w| {
                Ok(WorkerHeartbeat {
                    name: w
                        .require("name")?
                        .as_str()
                        .ok_or_else(|| Error::Parse("worker name is not a string".into()))?
                        .to_string(),
                    seen_ms: w
                        .require("seen_ms")?
                        .as_u64()
                        .ok_or_else(|| Error::Parse("worker seen_ms is not an integer".into()))?,
                    submitted: w
                        .require("submitted")?
                        .as_u64()
                        .ok_or_else(|| Error::Parse("worker submitted is not an integer".into()))?,
                    last_submit_ms: match w.require("last_submit_ms")? {
                        Json::Null => None,
                        other => Some(other.as_u64().ok_or_else(|| {
                            Error::Parse("worker last_submit_ms is not null or an integer".into())
                        })?),
                    },
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let quarantined = v
            .require("quarantined")?
            .as_arr()
            .ok_or_else(|| Error::Parse("quarantined is not an array".into()))?
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| Error::Parse("quarantined shard is not an integer".into()))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(StatusReport {
            done: int("done")?,
            total: int("total")?,
            recorded: int("recorded")?,
            duplicates: int("duplicates")?,
            leases_expired: int("leases_expired")?,
            refusals: int("refusals")?,
            scanned: int("scanned")?,
            survivors: int("survivors")?,
            polys_per_s: int("polys_per_s")?,
            eta_ms: opt_int("eta_ms")?,
            frames_rejected: int("frames_rejected")?,
            quarantined,
            leases,
            workers,
        })
    }
}

impl Reply {
    /// The wire form.
    pub fn to_json(&self) -> Json {
        match self {
            Reply::Welcome {
                config,
                config_hash,
            } => Json::obj([
                ("type", Json::Str("welcome".into())),
                ("config", config.clone()),
                ("config_hash", Json::Str(config_hash.clone())),
            ]),
            Reply::Assign { shard, start, end } => Json::obj([
                ("type", Json::Str("assign".into())),
                ("shard", Json::Int(*shard)),
                ("start", Json::Int(*start)),
                ("end", Json::Int(*end)),
            ]),
            Reply::Wait { backoff_ms } => Json::obj([
                ("type", Json::Str("wait".into())),
                ("backoff_ms", Json::Int(*backoff_ms)),
            ]),
            Reply::Done => Json::obj([("type", Json::Str("done".into()))]),
            Reply::Accepted {
                shard,
                fresh,
                complete,
                next,
            } => {
                let mut pairs = vec![
                    ("type", Json::Str("accepted".into())),
                    ("shard", Json::Int(*shard)),
                    ("fresh", Json::Bool(*fresh)),
                    ("complete", Json::Bool(*complete)),
                ];
                if let Some(lease) = next {
                    pairs.push(("next", lease.to_json()));
                }
                Json::obj(pairs)
            }
            Reply::Refused { reason } => Json::obj([
                ("type", Json::Str("refused".into())),
                ("reason", Json::Str(reason.clone())),
            ]),
            Reply::Retry { reason } => Json::obj([
                ("type", Json::Str("retry".into())),
                ("reason", Json::Str(reason.clone())),
            ]),
            Reply::Status(report) => {
                let Json::Obj(mut pairs) = report.to_json() else {
                    unreachable!("StatusReport::to_json returns an object")
                };
                pairs.insert(0, ("type".into(), Json::Str("status".into())));
                Json::Obj(pairs)
            }
        }
    }

    /// Parses the wire form.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on schema problems.
    pub fn from_json(v: &Json) -> Result<Reply> {
        let int = |key: &str| -> Result<u64> {
            v.require(key)?
                .as_u64()
                .ok_or_else(|| Error::Parse(format!("{key} is not an unsigned integer")))
        };
        match v.require("type")?.as_str() {
            Some("welcome") => Ok(Reply::Welcome {
                config: v.require("config")?.clone(),
                config_hash: v
                    .require("config_hash")?
                    .as_str()
                    .ok_or_else(|| Error::Parse("config_hash is not a string".into()))?
                    .to_string(),
            }),
            Some("assign") => Ok(Reply::Assign {
                shard: int("shard")?,
                start: int("start")?,
                end: int("end")?,
            }),
            Some("wait") => Ok(Reply::Wait {
                backoff_ms: int("backoff_ms")?,
            }),
            Some("done") => Ok(Reply::Done),
            Some("accepted") => Ok(Reply::Accepted {
                shard: int("shard")?,
                fresh: v
                    .require("fresh")?
                    .as_bool()
                    .ok_or_else(|| Error::Parse("fresh is not a bool".into()))?,
                complete: v
                    .require("complete")?
                    .as_bool()
                    .ok_or_else(|| Error::Parse("complete is not a bool".into()))?,
                next: v.get("next").map(ShardLease::from_json).transpose()?,
            }),
            Some("refused") => Ok(Reply::Refused {
                reason: v
                    .require("reason")?
                    .as_str()
                    .ok_or_else(|| Error::Parse("reason is not a string".into()))?
                    .to_string(),
            }),
            Some("retry") => Ok(Reply::Retry {
                reason: v
                    .require("reason")?
                    .as_str()
                    .ok_or_else(|| Error::Parse("reason is not a string".into()))?
                    .to_string(),
            }),
            Some("status") => Ok(Reply::Status(StatusReport::from_json(v)?)),
            other => Err(Error::Parse(format!("unknown reply type {other:?}"))),
        }
    }
}

/// Validates a worker name: nonempty, ≤ 64 chars, file-name-safe
/// (`A–Z a–z 0–9 . _ -`), since file-queue paths embed it.
///
/// # Errors
///
/// [`Error::Config`] describing the violation.
pub fn validate_worker_name(name: &str) -> Result<()> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(Error::Config(format!(
            "worker name {name:?} is not file-name safe ([A-Za-z0-9._-], 1..=64 chars)"
        )))
    }
}

/// The worker side of a transport: one blocking request/reply round
/// trip per call.
pub trait WorkerTransport {
    /// Sends `req` and waits for the coordinator's reply.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on wire failures or timeout, [`Error::Frame`] on a
    /// reply that failed CRC verification (both retryable),
    /// [`Error::Parse`] on a verified but schema-invalid reply.
    fn call(&mut self, req: &Request) -> Result<Reply>;

    /// Frame/fault counters observed by this transport end so far.
    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }
}

/// The coordinator side of a transport: service of one pending request
/// at a time.
pub trait ServeTransport {
    /// Serves at most one request through `handler` and returns whether
    /// one was served. With nothing pending, an implementation may wait
    /// a bounded time for a request to arrive (the TCP server waits up to
    /// 10 ms in `accept` on Linux) or return `false` at once (the file
    /// queue); callers only top an immediate `false` up to their poll
    /// interval, so a request that arrives during a wait is served as
    /// soon as it lands. Malformed or truncated client traffic is dropped
    /// (optionally answered with [`Reply::Refused`]) rather than
    /// propagated — a misbehaving worker must not take the coordinator
    /// down.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on transport-level failures (unreadable queue
    /// directory, dead listener).
    fn serve_one(&mut self, handler: &mut dyn FnMut(Request) -> Reply) -> Result<bool>;

    /// Tells clients the campaign is over, once serving has stopped for
    /// good. The file queue leaves a terminal marker that answers every
    /// request still queued with [`Reply::Done`]; the default does
    /// nothing (a TCP client whose server is gone is refused at once).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the marker cannot be written.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }

    /// Frame/fault counters observed by this transport end so far.
    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }
}

// ---------------------------------------------------------------------
// File-queue transport
// ---------------------------------------------------------------------

fn io_err<T>(what: &str, path: &Path, e: std::io::Error) -> Result<T> {
    Err(Error::Io(format!("{what} {}: {e}", path.display())))
}

/// The file-queue terminal marker, in the queue root.
const DONE_MARKER: &str = "done.json";

fn write_file_atomic(dir: &Path, tmp_dir: &Path, name: &str, contents: &str) -> Result<()> {
    let tmp = tmp_dir.join(name);
    std::fs::write(&tmp, contents).or_else(|e| io_err("write", &tmp, e))?;
    let dst = dir.join(name);
    std::fs::rename(&tmp, &dst).or_else(|e| io_err("rename into", &dst, e))
}

/// The worker end of the file-queue transport rooted at a shared
/// directory. Creating a client resets any stale reply directory left
/// by a previous worker of the same name.
#[derive(Debug)]
pub struct FileQueueClient {
    root: PathBuf,
    worker: String,
    seq: u64,
    poll: Duration,
    timeout: Duration,
    stats: Arc<WireCounters>,
}

impl FileQueueClient {
    /// Opens (and creates, if needed) the queue at `root` for `worker`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for an unsafe worker name, [`Error::Io`] when
    /// the queue directories cannot be created.
    pub fn new(root: &Path, worker: &str) -> Result<FileQueueClient> {
        validate_worker_name(worker)?;
        let outbox = root.join("outbox").join(worker);
        let _ = std::fs::remove_dir_all(&outbox);
        for d in [root.join("inbox"), root.join("tmp"), outbox] {
            std::fs::create_dir_all(&d).or_else(|e| io_err("create", &d, e))?;
        }
        Ok(FileQueueClient {
            root: root.to_path_buf(),
            worker: worker.to_string(),
            seq: 0,
            poll: Duration::from_millis(25),
            timeout: Duration::from_secs(120),
            stats: Arc::new(WireCounters::default()),
        })
    }

    /// Overrides the reply poll interval and overall call timeout.
    pub fn with_timing(mut self, poll: Duration, timeout: Duration) -> FileQueueClient {
        self.poll = poll;
        self.timeout = timeout;
        self
    }

    /// Reads the framed reply at `path`, `None` while it does not exist.
    /// With `consume` the file is removed once read.
    fn read_reply(&self, path: &Path, consume: bool) -> Result<Option<Reply>> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return io_err("read", path, e),
        };
        if consume {
            let _ = std::fs::remove_file(path);
        }
        let payload = frame::decode(&text).inspect_err(|_| {
            self.stats.count_rejected();
        })?;
        Ok(Some(Reply::from_json(&Json::parse(payload)?)?))
    }
}

impl WorkerTransport for FileQueueClient {
    fn call(&mut self, req: &Request) -> Result<Reply> {
        self.seq += 1;
        let name = format!("req-{}-{:08}.json", self.worker, self.seq);
        write_file_atomic(
            &self.root.join("inbox"),
            &self.root.join("tmp"),
            &name,
            &frame::encode(&req.to_json().render_compact()),
        )?;
        self.stats.count_sent();
        let rsp = self
            .root
            .join("outbox")
            .join(&self.worker)
            .join(format!("rsp-{:08}.json", self.seq));
        let marker = self.root.join(DONE_MARKER);
        let deadline = Instant::now() + self.timeout;
        loop {
            if let Some(reply) = self.read_reply(&rsp, true)? {
                return Ok(reply);
            }
            // The server writes every reply before the marker, so once
            // the marker exists a reply that is still missing never comes.
            if let Some(done) = self.read_reply(&marker, false)? {
                return Ok(self.read_reply(&rsp, true)?.unwrap_or(done));
            }
            if Instant::now() >= deadline {
                return Err(Error::Io(format!(
                    "no reply to {name} within {:?} (coordinator gone?)",
                    self.timeout
                )));
            }
            std::thread::sleep(self.poll);
        }
    }

    fn wire_stats(&self) -> WireStats {
        self.stats.snapshot()
    }
}

/// The coordinator end of the file-queue transport.
#[derive(Debug)]
pub struct FileQueueServer {
    root: PathBuf,
    stats: Arc<WireCounters>,
}

impl FileQueueServer {
    /// Opens (and creates, if needed) the queue at `root`, removing the
    /// terminal marker a previous coordinator left.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the queue directories cannot be created or a
    /// stale marker cannot be removed.
    pub fn new(root: &Path) -> Result<FileQueueServer> {
        for d in [root.join("inbox"), root.join("outbox"), root.join("tmp")] {
            std::fs::create_dir_all(&d).or_else(|e| io_err("create", &d, e))?;
        }
        let marker = root.join(DONE_MARKER);
        match std::fs::remove_file(&marker) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return io_err("remove", &marker, e)
            }
            _ => {}
        }
        Ok(FileQueueServer {
            root: root.to_path_buf(),
            stats: Arc::new(WireCounters::default()),
        })
    }

    /// Writes one framed reply into `worker`'s outbox under `seq`.
    fn write_reply(&self, worker: &str, seq: &str, reply: &Reply) -> Result<()> {
        let outbox = self.root.join("outbox").join(worker);
        std::fs::create_dir_all(&outbox).or_else(|e| io_err("create", &outbox, e))?;
        write_file_atomic(
            &outbox,
            &self.root.join("tmp"),
            &format!("rsp-{seq}.json"),
            &frame::encode(&reply.to_json().render_compact()),
        )?;
        self.stats.count_sent();
        Ok(())
    }
}

/// Splits a `req-<worker>-<seq>.json` file name into its parts, when
/// the worker name is well formed. The file name survives payload
/// corruption, so a damaged frame can still be answered with
/// [`Reply::Retry`] instead of silently starving the sender.
fn request_file_parts(name: &str) -> Option<(&str, &str)> {
    let stem = name.strip_prefix("req-")?.strip_suffix(".json")?;
    let (worker, seq) = stem.rsplit_once('-')?;
    validate_worker_name(worker).ok()?;
    Some((worker, seq))
}

impl ServeTransport for FileQueueServer {
    fn serve_one(&mut self, handler: &mut dyn FnMut(Request) -> Reply) -> Result<bool> {
        let inbox = self.root.join("inbox");
        let mut names: Vec<String> = std::fs::read_dir(&inbox)
            .or_else(|e| io_err("list", &inbox, e))?
            .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("req-") && n.ends_with(".json"))
            .collect();
        names.sort();
        let Some(name) = names.into_iter().next() else {
            return Ok(false);
        };
        let path = inbox.join(&name);
        let text = match std::fs::read(&path) {
            Ok(bytes) => match frame::decode_bytes(&bytes) {
                Ok(payload) => payload,
                Err(e) => {
                    // Damaged frame: the CRC caught wire corruption. The
                    // file name still attributes the sender, so answer
                    // with a retryable signal instead of starving it.
                    self.stats.count_rejected();
                    if let Some((worker, seq)) = request_file_parts(&name) {
                        let retry = Reply::Retry {
                            reason: e.to_string(),
                        };
                        let _ = self.write_reply(worker, seq, &retry);
                        self.stats.count_retry();
                    }
                    let _ = std::fs::remove_file(&path);
                    return Ok(true);
                }
            },
            Err(e) => return io_err("read", &path, e),
        };
        // Verified but malformed requests are dropped, not fatal:
        // remove the file so the queue keeps moving.
        let parsed = Json::parse(&text).map_err(Error::from).and_then(|v| {
            let req = Request::from_json(&v)?;
            let (worker, seq) = request_file_parts(&name)
                .ok_or_else(|| Error::Parse(format!("bad request file name {name:?}")))?;
            if worker != req.worker() {
                return Err(Error::Parse(format!(
                    "request file {name:?} does not match its worker field {:?}",
                    req.worker()
                )));
            }
            Ok((req, seq.to_string()))
        });
        match parsed {
            Ok((req, seq)) => {
                let reply = handler(req.clone());
                self.write_reply(req.worker(), &seq, &reply)?;
                let _ = std::fs::remove_file(&path);
                Ok(true)
            }
            Err(_) => {
                let _ = std::fs::remove_file(&path);
                Ok(true)
            }
        }
    }

    fn finish(&mut self) -> Result<()> {
        write_file_atomic(
            &self.root,
            &self.root.join("tmp"),
            DONE_MARKER,
            &frame::encode(&Reply::Done.to_json().render_compact()),
        )
    }

    fn wire_stats(&self) -> WireStats {
        self.stats.snapshot()
    }
}

// ---------------------------------------------------------------------
// TCP transport (line-delimited JSON)
// ---------------------------------------------------------------------

/// The worker end of the TCP transport: one connection per call, one
/// compact JSON line each way.
#[derive(Debug)]
pub struct TcpClient {
    addr: String,
    timeout: Duration,
    connect_base: Duration,
    jitter: SplitMix64,
    stats: Arc<WireCounters>,
}

impl TcpClient {
    /// A client for the coordinator at `addr` (`host:port`).
    pub fn new(addr: &str) -> TcpClient {
        // The jitter stream only decorrelates concurrent clients'
        // connect storms; seed it from whatever distinguishes them.
        let mut seed = u64::from(std::process::id()) ^ 0x7c3a_9d1e_55aa_0f42;
        for b in addr.bytes() {
            seed = seed.rotate_left(7) ^ u64::from(b);
        }
        TcpClient {
            addr: addr.to_string(),
            timeout: Duration::from_secs(120),
            connect_base: Duration::from_millis(25),
            jitter: SplitMix64::new(seed),
            stats: Arc::new(WireCounters::default()),
        }
    }

    /// Overrides the connect/read timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> TcpClient {
        self.timeout = timeout;
        self
    }

    /// Connects with capped exponential backoff plus jitter: workers
    /// may start before the coordinator binds its listener, and a
    /// coordinator restart must not be greeted by a lockstep stampede.
    fn connect(&mut self) -> Result<TcpStream> {
        let deadline = Instant::now() + self.timeout;
        let mut attempt = 0u32;
        loop {
            match TcpStream::connect(&self.addr) {
                Ok(s) => return Ok(s),
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(Error::Io(format!(
                            "connect to {} timed out after {:?} ({} attempts; last error: {e})",
                            self.addr,
                            self.timeout,
                            attempt + 1
                        )));
                    }
                    // base·2^attempt, capped at 2 s, then uniformly
                    // jittered over [half, full] so restarted
                    // coordinators see a spread-out reconnect wave.
                    let cap = self
                        .connect_base
                        .saturating_mul(1u32 << attempt.min(8))
                        .min(Duration::from_secs(2));
                    let half = cap.as_millis().max(2) as u64 / 2;
                    let sleep = half + self.jitter.next_below(half + 1);
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(sleep));
                }
            }
        }
    }
}

impl WorkerTransport for TcpClient {
    fn call(&mut self, req: &Request) -> Result<Reply> {
        let mut stream = self.connect()?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| Error::Io(format!("socket timeout: {e}")))?;
        let mut line = frame::encode(&req.to_json().render_compact());
        line.push('\n');
        stream
            .write_all(line.as_bytes())
            .map_err(|e| Error::Io(format!("send to {}: {e}", self.addr)))?;
        self.stats.count_sent();
        let mut reply_line = Vec::new();
        BufReader::new((&mut stream).take(MAX_LINE + 1))
            .read_until(b'\n', &mut reply_line)
            .map_err(|e| {
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) {
                    Error::Io(format!(
                        "read from {} timed out after {:?} (connected, but no reply line)",
                        self.addr, self.timeout
                    ))
                } else {
                    Error::Io(format!("receive from {}: {e}", self.addr))
                }
            })?;
        if reply_line.is_empty() {
            return Err(Error::Io(format!(
                "coordinator at {} closed the connection",
                self.addr
            )));
        }
        if reply_line.last() != Some(&b'\n') && reply_line.len() as u64 > MAX_LINE {
            return Err(Error::Io(format!(
                "reply from {} exceeds {MAX_LINE} bytes without a line end",
                self.addr
            )));
        }
        let payload = frame::decode_bytes(&reply_line).inspect_err(|_| {
            self.stats.count_rejected();
        })?;
        Reply::from_json(&Json::parse(&payload)?)
    }

    fn wire_stats(&self) -> WireStats {
        self.stats.snapshot()
    }
}

/// The coordinator end of the TCP transport. On Linux the listener
/// blocks in [`ServeTransport::serve_one`] for up to 10 ms waiting for a
/// connection, so a request is accepted the moment it arrives; other
/// targets keep a non-blocking listener that the caller polls.
#[derive(Debug)]
pub struct TcpServer {
    listener: TcpListener,
    io_timeout: Duration,
    stats: Arc<WireCounters>,
}

impl TcpServer {
    /// Binds `addr` (`host:port`; port 0 picks a free one).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the address cannot be bound.
    pub fn bind(addr: &str) -> Result<TcpServer> {
        let listener =
            TcpListener::bind(addr).map_err(|e| Error::Io(format!("bind {addr}: {e}")))?;
        // Linux applies SO_RCVTIMEO to accept(2) (socket(7)). std sets
        // that option only through a stream, so the listening socket
        // passes through one and back.
        #[cfg(target_os = "linux")]
        let listener = {
            use std::os::fd::OwnedFd;
            let socket = TcpStream::from(OwnedFd::from(listener));
            socket
                .set_read_timeout(Some(ACCEPT_WAIT))
                .map_err(|e| Error::Io(format!("listener accept timeout: {e}")))?;
            TcpListener::from(OwnedFd::from(socket))
        };
        #[cfg(not(target_os = "linux"))]
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::Io(format!("nonblocking listener: {e}")))?;
        Ok(TcpServer {
            listener,
            io_timeout: Duration::from_secs(10),
            stats: Arc::new(WireCounters::default()),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the socket has no local address.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| Error::Io(format!("local addr: {e}")))
    }
}

/// Longest time one [`TcpServer`] `serve_one` call waits in `accept` for
/// a connection (Linux only; elsewhere the listener does not wait).
pub(crate) const ACCEPT_WAIT: Duration = Duration::from_millis(10);

/// Longest request or reply line, in bytes before the `\n`, that either
/// end of the TCP transport reads.
const MAX_LINE: u64 = 1 << 26;

/// Reads one `\n`-terminated line of raw bytes from a blocking stream
/// (damaged frames may not be UTF-8; the framing layer decides). A line
/// longer than [`MAX_LINE`] is an error.
fn read_line_from(stream: &mut TcpStream, timeout: Duration) -> std::io::Result<Vec<u8>> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(timeout))?;
    let mut buf = Vec::new();
    BufReader::new(stream.take(MAX_LINE + 1)).read_until(b'\n', &mut buf)?;
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() as u64 > MAX_LINE {
        return Err(std::io::Error::other("request line too long"));
    }
    Ok(buf)
}

impl ServeTransport for TcpServer {
    fn serve_one(&mut self, handler: &mut dyn FnMut(Request) -> Reply) -> Result<bool> {
        let (mut stream, _) = match self.listener.accept() {
            Ok(conn) => conn,
            // The accept wait ran out (or, off Linux, nothing is queued).
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(false)
            }
            Err(e) => return Err(Error::Io(format!("accept: {e}"))),
        };
        // From here on, client failures are the client's problem: drop
        // the connection and keep serving.
        let Ok(line) = read_line_from(&mut stream, self.io_timeout) else {
            return Ok(true);
        };
        let reply = match frame::decode_bytes(&line) {
            // Damaged frame: the CRC caught wire corruption; the
            // connection is still open, so signal a retryable failure.
            Err(e) => {
                self.stats.count_rejected();
                self.stats.count_retry();
                Reply::Retry {
                    reason: e.to_string(),
                }
            }
            // Verified but schema-invalid: a sender bug, permanent.
            Ok(payload) => match Json::parse(&payload)
                .map_err(Error::from)
                .and_then(|v| Request::from_json(&v))
            {
                Ok(req) => handler(req),
                Err(e) => Reply::Refused {
                    reason: e.to_string(),
                },
            },
        };
        let mut out = frame::encode(&reply.to_json().render_compact());
        out.push('\n');
        if stream.write_all(out.as_bytes()).is_ok() {
            self.stats.count_sent();
        }
        Ok(true)
    }

    fn wire_stats(&self) -> WireStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> (Vec<Request>, Vec<Reply>) {
        let reqs = vec![
            Request::Hello {
                worker: "w1".into(),
            },
            Request::Lease {
                worker: "w-2.a".into(),
            },
            Request::Submit {
                worker: "w1".into(),
                log: Json::obj([("shard", Json::Int(3))]),
                lease_next: false,
            },
            Request::Submit {
                worker: "w1".into(),
                log: Json::obj([("shard", Json::Int(4))]),
                lease_next: true,
            },
            Request::Status {
                worker: "watch1".into(),
            },
        ];
        let replies = vec![
            Reply::Welcome {
                config: Json::obj([("width", Json::Int(13))]),
                config_hash: "0x0123456789abcdef".into(),
            },
            Reply::Assign {
                shard: 2,
                start: 512,
                end: 1024,
            },
            Reply::Wait { backoff_ms: 50 },
            Reply::Done,
            Reply::Accepted {
                shard: 2,
                fresh: true,
                complete: false,
                next: None,
            },
            Reply::Accepted {
                shard: 2,
                fresh: false,
                complete: false,
                next: Some(ShardLease {
                    shard: 3,
                    start: 768,
                    end: 1024,
                }),
            },
            Reply::Refused {
                reason: "wrong campaign".into(),
            },
            Reply::Retry {
                reason: "CRC mismatch: frame carries deadbeef".into(),
            },
            Reply::Status(StatusReport {
                done: 3,
                total: 16,
                recorded: 3,
                duplicates: 1,
                leases_expired: 2,
                refusals: 0,
                scanned: 24_576,
                survivors: 9,
                polys_per_s: 120_000,
                eta_ms: Some(650),
                frames_rejected: 4,
                quarantined: vec![7, 11],
                leases: vec![LeaseInfo {
                    shard: 4,
                    worker: "w1".into(),
                    age_ms: 1_200,
                }],
                workers: vec![
                    WorkerHeartbeat {
                        name: "w1".into(),
                        seen_ms: 5,
                        submitted: 2,
                        last_submit_ms: Some(410),
                    },
                    WorkerHeartbeat {
                        name: "w2".into(),
                        seen_ms: 90,
                        submitted: 1,
                        last_submit_ms: None,
                    },
                ],
            }),
            Reply::Status(StatusReport::default()),
        ];
        (reqs, replies)
    }

    #[test]
    fn messages_round_trip_compactly() {
        let (reqs, replies) = sample_messages();
        for r in reqs {
            let line = r.to_json().render_compact();
            assert!(!line.contains('\n'));
            assert_eq!(Request::from_json(&Json::parse(&line).unwrap()).unwrap(), r);
        }
        for r in replies {
            let line = r.to_json().render_compact();
            assert!(!line.contains('\n'));
            assert_eq!(Reply::from_json(&Json::parse(&line).unwrap()).unwrap(), r);
        }
    }

    #[test]
    fn unset_lease_fields_keep_the_old_wire_form() {
        // Lines as peers without `lease_next`/`next` write them.
        let submit = r#"{"type": "submit", "worker": "w1", "log": {"shard": 3}}"#;
        let accepted = r#"{"type": "accepted", "shard": 2, "fresh": true, "complete": false}"#;
        let req = Request::from_json(&Json::parse(submit).unwrap()).unwrap();
        assert!(matches!(
            req,
            Request::Submit {
                lease_next: false,
                ..
            }
        ));
        assert_eq!(req.to_json().render_compact(), submit);
        let reply = Reply::from_json(&Json::parse(accepted).unwrap()).unwrap();
        assert!(matches!(reply, Reply::Accepted { next: None, .. }));
        assert_eq!(reply.to_json().render_compact(), accepted);
    }

    #[test]
    fn a_malformed_next_lease_is_a_parse_error() {
        for line in [
            r#"{"type":"accepted","shard":2,"fresh":true,"complete":false,"next":{"shard":3,"start":0}}"#,
            r#"{"type":"accepted","shard":2,"fresh":true,"complete":false,"next":{"shard":3,"start":0,"end":"9"}}"#,
            r#"{"type":"accepted","shard":2,"fresh":true,"complete":false,"next":{"shard":-3,"start":0,"end":9}}"#,
            r#"{"type":"accepted","shard":2,"fresh":true,"complete":false,"next":7}"#,
            r#"{"type":"submit","worker":"w1","log":{},"lease_next":1}"#,
        ] {
            // CRC-valid: the frame passes, the schema does not.
            let framed = frame::encode(line);
            let doc = Json::parse(frame::decode(&framed).unwrap()).unwrap();
            let err = if line.contains("submit") {
                Request::from_json(&doc).unwrap_err()
            } else {
                Reply::from_json(&doc).unwrap_err()
            };
            assert!(matches!(err, Error::Parse(_)), "{line}: {err:?}");
        }
    }

    #[test]
    fn worker_names_are_validated() {
        assert!(validate_worker_name("w1").is_ok());
        assert!(validate_worker_name("host-3.worker_9").is_ok());
        assert!(validate_worker_name("").is_err());
        assert!(validate_worker_name("a/b").is_err());
        assert!(validate_worker_name("a b").is_err());
        assert!(validate_worker_name(&"x".repeat(65)).is_err());
    }

    fn echo_handler(req: Request) -> Reply {
        match req {
            Request::Hello { .. } => Reply::Welcome {
                config: Json::obj([("width", Json::Int(13))]),
                config_hash: "0xh".into(),
            },
            Request::Lease { .. } => Reply::Wait { backoff_ms: 7 },
            Request::Submit { log, .. } => Reply::Accepted {
                shard: log.get("shard").and_then(Json::as_u64).unwrap_or(0),
                fresh: true,
                complete: false,
                next: None,
            },
            Request::Status { .. } => Reply::Status(StatusReport {
                done: 1,
                total: 2,
                ..StatusReport::default()
            }),
        }
    }

    #[test]
    fn file_queue_round_trips() {
        let root = std::env::temp_dir().join(format!("crc-survey-fq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut server = FileQueueServer::new(&root).unwrap();
        let mut client = FileQueueClient::new(&root, "w1")
            .unwrap()
            .with_timing(Duration::from_millis(5), Duration::from_secs(10));
        let server_thread = {
            let root = root.clone();
            std::thread::spawn(move || {
                let mut served = 0;
                while served < 3 {
                    if server.serve_one(&mut |req| echo_handler(req)).unwrap() {
                        served += 1;
                    } else {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                drop(root);
            })
        };
        assert!(matches!(
            client
                .call(&Request::Hello {
                    worker: "w1".into()
                })
                .unwrap(),
            Reply::Welcome { .. }
        ));
        assert_eq!(
            client
                .call(&Request::Lease {
                    worker: "w1".into()
                })
                .unwrap(),
            Reply::Wait { backoff_ms: 7 }
        );
        assert_eq!(
            client
                .call(&Request::Submit {
                    worker: "w1".into(),
                    log: Json::obj([("shard", Json::Int(5))]),
                    lease_next: false,
                })
                .unwrap(),
            Reply::Accepted {
                shard: 5,
                fresh: true,
                complete: false,
                next: None,
            }
        );
        server_thread.join().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tcp_round_trips() {
        let mut server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let server_thread = std::thread::spawn(move || {
            let mut served = 0;
            while served < 2 {
                if server.serve_one(&mut |req| echo_handler(req)).unwrap() {
                    served += 1;
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        });
        let mut client = TcpClient::new(&addr).with_timeout(Duration::from_secs(10));
        assert!(matches!(
            client
                .call(&Request::Hello {
                    worker: "w1".into()
                })
                .unwrap(),
            Reply::Welcome { .. }
        ));
        assert_eq!(
            client
                .call(&Request::Lease {
                    worker: "w1".into()
                })
                .unwrap(),
            Reply::Wait { backoff_ms: 7 }
        );
        server_thread.join().unwrap();
    }

    #[test]
    fn idle_tcp_serve_one_returns_after_a_bounded_wait() {
        let mut server = TcpServer::bind("127.0.0.1:0").unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        // On its own thread, so a platform whose accept ignores the
        // timeout fails the deadline below instead of hanging the suite.
        let server_thread = std::thread::spawn(move || {
            let t = Instant::now();
            let served = server.serve_one(&mut |req| echo_handler(req));
            let _ = tx.send((served.unwrap(), t.elapsed()));
        });
        let (served, waited) = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("an idle serve_one must return within 1 s");
        server_thread.join().unwrap();
        assert!(!served, "nothing was pending");
        if cfg!(target_os = "linux") {
            assert!(
                waited >= ACCEPT_WAIT / 2,
                "the listener waits in accept, not returns at once ({waited:?})"
            );
        }
    }

    #[test]
    fn tcp_server_drops_overlong_lines_and_keeps_serving() {
        let mut server = TcpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || {
            let mut served = 0;
            while served < 2 {
                if server.serve_one(&mut |req| echo_handler(req)).unwrap() {
                    served += 1;
                } else {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        });
        // One byte past the bound and no newline: the server reads that
        // far, then drops the connection without a reply.
        let mut raw = TcpStream::connect(addr).unwrap();
        let chunk = vec![b'x'; 1 << 16];
        let mut left = MAX_LINE + 1;
        while left > 0 {
            let n = left.min(chunk.len() as u64) as usize;
            raw.write_all(&chunk[..n]).unwrap();
            left -= n as u64;
        }
        let mut reply = Vec::new();
        let _ = raw.read_to_end(&mut reply);
        assert!(reply.is_empty(), "an overlong line gets no reply");
        let mut client = TcpClient::new(&addr.to_string()).with_timeout(Duration::from_secs(10));
        assert!(matches!(
            client
                .call(&Request::Hello {
                    worker: "w1".into()
                })
                .unwrap(),
            Reply::Welcome { .. }
        ));
        server_thread.join().unwrap();
    }

    #[test]
    fn tcp_client_rejects_overlong_replies_and_keeps_calling() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || {
            for overlong in [true, false] {
                let (mut conn, _) = listener.accept().unwrap();
                let mut request = Vec::new();
                BufReader::new(&mut conn)
                    .read_until(b'\n', &mut request)
                    .unwrap();
                if overlong {
                    // One byte past the bound and no newline; the client
                    // stops reading there, so the rest may not be sent.
                    let chunk = vec![b'x'; 1 << 16];
                    let mut left = MAX_LINE + 1 + (1 << 20);
                    while left > 0 {
                        let n = left.min(chunk.len() as u64) as usize;
                        if conn.write_all(&chunk[..n]).is_err() {
                            break;
                        }
                        left -= n as u64;
                    }
                } else {
                    let reply = echo_handler(Request::Hello {
                        worker: "w1".into(),
                    });
                    let mut line = frame::encode(&reply.to_json().render_compact());
                    line.push('\n');
                    conn.write_all(line.as_bytes()).unwrap();
                }
            }
        });
        let mut client = TcpClient::new(&addr.to_string()).with_timeout(Duration::from_secs(10));
        let hello = Request::Hello {
            worker: "w1".into(),
        };
        let err = client.call(&hello).unwrap_err();
        assert!(err.to_string().contains("without a line end"), "{err}");
        assert!(matches!(
            client.call(&hello).unwrap(),
            Reply::Welcome { .. }
        ));
        server_thread.join().unwrap();
    }
}
