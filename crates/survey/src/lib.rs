//! Sharded, checkpointable polynomial-survey campaigns with Pareto
//! selection — the paper's survey methodology (evaluate an entire
//! polynomial space, pick winners per length regime) packaged as a
//! production-shaped subsystem that outlives a process.
//!
//! # Architecture
//!
//! A **campaign** evaluates every polynomial of one [`PolySpace`]
//! (or a deterministic sample of it) against a screening bar, profiles
//! the survivors, and ranks them. It is built from four layers:
//!
//! 1. **Work units** ([`campaign`]): the space splits into `shards`
//!    contiguous offset ranges over `PolySpace::iter_range`. A unit's
//!    result is a pure function of `(config, shard id)` — thread count,
//!    claim order and host play no part. Sampled mode draws candidates
//!    from a per-shard SplitMix64 stream derived by
//!    [`campaign::unit_seed`], the same seed-splitting idiom netsim uses
//!    for its trial shards.
//! 2. **Engine** ([`engine`]): a scoped worker pool claims units off an
//!    atomic counter, screens with `core`'s `hd_filter` (at the
//!    shortest target length — the staged-filter observation that HD
//!    only shrinks with length), evaluates survivors into
//!    [`campaign::SurvivorRecord`]s (profile parts via
//!    `HdProfile`, exact weights, factorization class, engine cost),
//!    and checkpoints.
//! 3. **Checkpoints**: every artifact is versioned JSON stamped with the
//!    config's content hash. `campaign.json` holds the config and the
//!    completed-shard set; `shards/shard-NNNNN.json` holds one unit's
//!    survivors; `campaign.journal` gets one CRC-framed line per
//!    completed shard, carrying the length and CRC-32 of its log. Logs
//!    and the manifest are written atomically (temp + rename), a shard's
//!    journal line is appended only after its log is in place, and the
//!    manifest is rewritten only when the last shard completes. Nothing
//!    is fsynced: [`Campaign::open`] instead checks every journaled log
//!    against its line, so the checkpoint it rebuilds names only work
//!    whose bytes are on disk intact.
//! 4. **Selection** ([`pareto`], [`leaderboard`]): survivors are ranked
//!    per target length and filtered to the Pareto frontier over
//!    (HD at each target length, P_ud across a BER grid, feedback
//!    taps), reproducing the paper's per-regime winners plus the
//!    hardware-cost axis it applies to `0x90022004`/`0x80108400`.
//!
//! # Resume invariants
//!
//! Killing a campaign at any point and resuming it must yield artifacts
//! **byte-identical** to an uninterrupted run. This holds because:
//!
//! * a unit's result depends only on `(config, shard id)`;
//! * completed shard logs are never rewritten (and rewriting one would
//!   reproduce the same bytes);
//! * a shard counts as complete only once its log is in place: its
//!   journal line is appended after the log's rename, and on open a
//!   journaled log must still have the journaled length and CRC;
//! * all JSON rendering is deterministic (fixed key order, fixed
//!   indentation, shortest-round-trip numbers);
//! * resumes refuse artifacts whose config hash differs.
//!
//! After a process kill, the observable differences are a possible
//! orphan shard log that no journal line names and a torn last journal
//! line; the resume recomputes those shards to identical bytes. After a
//! host crash, a log or journal line that had not reached the disk is
//! caught the same way on open (a torn or corrupt line fails its CRC
//! trailer; a short or stale log fails its length or CRC), and costs
//! only the recomputation of its shard.
//!
//! ```
//! use crc_survey::campaign::{CampaignConfig, Mode};
//! use crc_survey::engine::Campaign;
//! use crc_survey::leaderboard::{build, LeaderboardOptions};
//!
//! let dir = std::env::temp_dir().join(format!("survey-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let cfg = CampaignConfig {
//!     width: 8,
//!     shards: 4,
//!     seed: 7,
//!     mode: Mode::Exhaustive,
//!     min_hd: 4,
//!     target_lengths: vec![8, 16],
//!     ber_grid: vec![1e-5],
//!     max_weight: 6,
//! };
//! let mut campaign = Campaign::create(&dir, cfg).unwrap();
//! campaign.run(2, None).unwrap();            // or stop early and…
//! let mut resumed = Campaign::open(&dir).unwrap();
//! resumed.run(2, None).unwrap();             // …resume bit-identically
//! let opts = LeaderboardOptions { top: 3, spot_check_32: false, ..Default::default() };
//! let board = build(&resumed, &opts).unwrap();
//! assert!(board.get("survivors").unwrap().as_u64().unwrap() > 0);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! # Going distributed
//!
//! Because work units are pure in `(config, shard id)` and artifacts
//! are byte-deterministic, the single-host pool generalizes to many
//! hosts without touching the formats: a [`coordinator`] owns the
//! manifest and leases shards over a pluggable [`transport`] (a shared
//! file-queue directory, or line-delimited JSON over TCP) to
//! [`worker`] loops that run [`engine::evaluate_unit`] — the exact
//! code path of the local pool — and stream shard logs back. Lease
//! expiry re-issues a dead worker's shards; duplicate submissions are
//! idempotent because recomputing a unit reproduces its bytes. The
//! merged campaign directory is byte-identical to a single-host run.
//!
//! The [`census`] module adds the stratified sampled census over the
//! spaces too large to enumerate, with exact stratum sizes and
//! Wilson-interval extrapolation; see `docs/CENSUS.md` for the
//! operator runbook.
//!
//! # Observability
//!
//! Every layer records into the process-global [`telemetry`] registry
//! through the cached handles in [`metrics`]: the screening funnel
//! (candidates → HD filter → profile → weights → record), engine
//! polys/s and shard-duration spans, index-policy gauges, and
//! coordinator lease/duplicate counters. The coordinator answers a
//! `Status` request with live progress (`survey watch` renders it) and
//! persists its counters to `coordinator-summary.json`. Instrumentation
//! never touches artifact bytes — every golden file is byte-identical
//! with telemetry on, off, or absent; see `docs/OBSERVABILITY.md` for
//! the metric catalog.
//!
//! [`PolySpace`]: crc_hd::search::PolySpace

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod census;
pub mod chaos;
pub mod coordinator;
pub mod engine;
pub mod frame;
pub mod json;
pub mod leaderboard;
pub mod metrics;
pub mod pareto;
pub mod transport;
pub mod worker;

pub use campaign::{CampaignConfig, Mode, SurvivorRecord};
pub use engine::{Campaign, RunSummary};

use std::fmt;

/// Errors produced by survey operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Invalid campaign parameters.
    Config(String),
    /// Malformed or mismatched artifact (JSON, schema, version, or
    /// campaign identity).
    Parse(String),
    /// Filesystem failure.
    Io(String),
    /// A wire frame failed CRC/trailer verification (truncated or
    /// corrupted in flight). Always retryable: the sender still holds
    /// the request and work units are idempotent.
    Frame(String),
    /// An operation needed a completed campaign.
    Incomplete {
        /// Shards checkpointed so far.
        done: u64,
        /// Shards in the campaign.
        total: u64,
    },
    /// An evaluation error from `crc-hd`.
    Core(crc_hd::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(s) => write!(f, "bad campaign config: {s}"),
            Error::Parse(s) => write!(f, "bad campaign artifact: {s}"),
            Error::Io(s) => write!(f, "campaign io: {s}"),
            Error::Frame(s) => write!(f, "wire frame rejected: {s}"),
            Error::Incomplete { done, total } => {
                write!(f, "campaign incomplete: {done}/{total} shards")
            }
            Error::Core(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl Error {
    /// Whether retrying the same request can succeed.
    ///
    /// Transport-level failures ([`Error::Io`] — timeouts, refused
    /// connections, lost replies) and damaged frames ([`Error::Frame`])
    /// are transient: the protocol is idempotent, so the worker retry
    /// layer resends. Everything else (schema mismatches, config
    /// conflicts, evaluation errors) signals a real disagreement that a
    /// resend cannot fix.
    pub fn is_retryable(&self) -> bool {
        matches!(self, Error::Io(_) | Error::Frame(_))
    }
}

impl std::error::Error for Error {}

impl From<crc_hd::Error> for Error {
    fn from(e: crc_hd::Error) -> Error {
        Error::Core(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
