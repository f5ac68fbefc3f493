//! The campaign engine: a checkpointed worker pool over work units.
//!
//! # Execution model
//!
//! [`Campaign::run`] builds the list of *pending* units (all units minus
//! the checkpoint's completed set), then spawns a scoped worker pool.
//! Workers claim pending units through one atomic counter (the same
//! claim-by-index idiom as netsim's shard pool and `core::search`); each
//! worker carries its own scratch ([`UnitScratch`]) so per-unit allocations
//! are reused across the units it processes. A unit's result depends
//! only on `(config, shard id)` — never on thread count, claim order, or
//! what other units ran in the same process — which is the whole
//! determinism story.
//!
//! # Checkpoint protocol
//!
//! A campaign directory holds three kinds of file:
//!
//! * `campaign.json`, the manifest: config, content hash and the set of
//!   completed shards. It is written twice: by [`Campaign::create`] with
//!   an empty set, and when the last shard completes, listing them all;
//! * `shards/shard-NNNNN.json`, one survivor log per completed shard;
//! * `campaign.journal`, an append-only record of shard completions.
//!
//! Completing a shard performs, in order:
//!
//! 1. write `shards/shard-NNNNN.json` atomically (temp file + rename);
//! 2. under the checkpoint lock, append one line to `campaign.journal`
//!    naming the shard with the byte length and CRC-32 of its log.
//!
//! Every journal line is framed like a wire frame ([`crate::frame`]) and
//! ends in a newline. The first line names the campaign:
//!
//! ```text
//! {"format":"crc-survey-journal","version":1,"config_hash":"0x…"}#crc32=…
//! {"shard":3,"len":2817,"crc":"5f0c1a2b"}#crc32=…
//! ```
//!
//! Lines are under 100 bytes, where the framing CRC (the 802.3
//! polynomial) keeps Hamming distance 5, so any error of up to four bits
//! in a line's payload is caught.
//!
//! Nothing is fsynced. Instead, [`Campaign::open`] validates what it
//! reads, and never writes. A shard is complete when the manifest lists
//! it or a journal line names it; when a journal line names it, its log on
//! disk must also have the journaled length and CRC. A line that fails
//! its trailer is skipped, a tail with no final newline is ignored, and
//! the shards they named are recomputed. The first append after an open
//! cuts the file back to its last intact line. So a process kill costs at
//! most the shards in flight, and a host crash costs the shards whose log
//! or journal line had not reached the disk. Neither can produce wrong
//! bytes: a unit's result is pure in `(config, shard id)`, so recomputing
//! it reproduces its log exactly.

use crate::campaign::{
    unit_seed, CampaignConfig, Checkpoint, Mode, ShardResult, SurvivorRecord, WorkUnit,
    STREAM_SAMPLE,
};
use crate::frame;
use crate::json::Json;
use crate::{Error, Result};
use gf2poly::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The completion journal's file name inside a campaign directory.
const JOURNAL: &str = "campaign.journal";
/// The journal format's own version, independent of the JSON artifacts'
/// `FORMAT_VERSION`.
const JOURNAL_VERSION: u64 = 1;

/// A campaign bound to its on-disk directory.
#[derive(Debug)]
pub struct Campaign {
    dir: PathBuf,
    checkpoint: Checkpoint,
    /// `checkpoint.config.content_hash()`, computed once.
    config_hash: u64,
    /// Lowest shard id not yet complete (`config.shards` once all are).
    first_pending: u64,
    /// Whether `campaign.json` on disk already lists every shard.
    manifest_full: bool,
    journal: Journal,
}

/// Aggregate counts from one `run` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Shards completed by this call.
    pub shards_run: u64,
    /// Polynomials examined by this call.
    pub scanned: u64,
    /// Canonical representatives among them.
    pub canonical: u64,
    /// Survivors recorded by this call.
    pub survivors: u64,
}

impl Campaign {
    /// Creates a fresh campaign directory (with its `shards/` subdir)
    /// and writes the initial checkpoint.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for invalid parameters; [`Error::Io`] if the
    /// directory already holds a campaign or cannot be written.
    pub fn create(dir: &Path, config: CampaignConfig) -> Result<Campaign> {
        config.validate()?;
        let manifest = dir.join("campaign.json");
        if manifest.exists() {
            return Err(Error::Io(format!(
                "{} already holds a campaign (use resume)",
                manifest.display()
            )));
        }
        std::fs::create_dir_all(dir.join("shards"))
            .map_err(|e| Error::Io(format!("create {}: {e}", dir.display())))?;
        let campaign = Campaign {
            dir: dir.to_path_buf(),
            config_hash: config.content_hash(),
            checkpoint: Checkpoint {
                config,
                completed: BTreeSet::new(),
            },
            first_pending: 0,
            manifest_full: false,
            // Intact length 0: the first append replaces whatever a
            // journal left in this directory by an earlier campaign.
            journal: Journal::default(),
        };
        campaign.write_checkpoint()?;
        Ok(campaign)
    }

    /// Opens an existing campaign from its `campaign.json` and
    /// `campaign.journal`, validating every journaled shard log (see the
    /// checkpoint protocol above). Never writes.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the manifest or journal is unreadable,
    /// [`Error::Parse`] when the manifest is malformed or
    /// version-incompatible, or the journal's header names another
    /// campaign.
    pub fn open(dir: &Path) -> Result<Campaign> {
        let manifest = dir.join("campaign.json");
        let text = std::fs::read_to_string(&manifest)
            .map_err(|e| Error::Io(format!("read {}: {e}", manifest.display())))?;
        let mut checkpoint = Checkpoint::from_json(&Json::parse(&text)?)?;
        let config_hash = checkpoint.config.content_hash();
        let shards = checkpoint.config.shards;
        let manifest_full = checkpoint.completed.len() as u64 == shards;
        let (journal, rejected) = Journal::read(dir, config_hash, shards)?;
        for shard in rejected {
            checkpoint.completed.remove(&shard);
        }
        checkpoint.completed.extend(journal.stamps.keys());
        let mut campaign = Campaign {
            dir: dir.to_path_buf(),
            checkpoint,
            config_hash,
            first_pending: 0,
            manifest_full,
            journal,
        };
        campaign.advance_first_pending();
        Ok(campaign)
    }

    /// The campaign parameters.
    pub fn config(&self) -> &CampaignConfig {
        &self.checkpoint.config
    }

    /// The config's content hash ([`CampaignConfig::content_hash`]),
    /// computed once when the campaign was created or opened.
    pub fn config_hash(&self) -> u64 {
        self.config_hash
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Completed / total shard counts.
    pub fn progress(&self) -> (u64, u64) {
        (
            self.checkpoint.completed.len() as u64,
            self.checkpoint.config.shards,
        )
    }

    /// True once every shard has a checkpointed log.
    pub fn is_complete(&self) -> bool {
        self.checkpoint.completed.len() as u64 == self.checkpoint.config.shards
    }

    /// Shard ids not yet checkpointed, ascending, without building a
    /// list: the scan starts at the lowest pending shard.
    pub(crate) fn pending(&self) -> impl Iterator<Item = u64> + '_ {
        (self.first_pending..self.checkpoint.config.shards)
            .filter(|s| !self.checkpoint.completed.contains(s))
    }

    /// Shard ids not yet checkpointed, ascending — what a coordinator
    /// still has to hand out.
    pub fn pending_shards(&self) -> Vec<u64> {
        self.pending().collect()
    }

    /// Path of one shard's survivor log.
    pub fn shard_log_path(&self, shard: u64) -> PathBuf {
        shard_log_path_in(&self.dir, shard)
    }

    /// Runs pending shards on `threads` workers until the campaign
    /// completes, an error occurs, or `stop_after` shards have been
    /// checkpointed by this call (the kill-at-a-checkpoint primitive the
    /// determinism tests and the CI resume check drive). A campaign whose
    /// shards are all complete but whose manifest does not list them yet
    /// (the process stopped between the last journal line and the final
    /// manifest write) gets its final manifest here.
    ///
    /// # Errors
    ///
    /// Propagates evaluation and IO errors; the checkpoint on disk stays
    /// valid (completed shards remain completed).
    pub fn run(&mut self, threads: usize, stop_after: Option<u64>) -> Result<RunSummary> {
        let config = self.checkpoint.config.clone();
        let config_hash = self.config_hash;
        let pending: Vec<WorkUnit> = self.pending().map(|s| config.work_unit(s)).collect();
        if pending.is_empty() {
            self.write_final_manifest()?;
            return Ok(RunSummary::default());
        }
        let threads = threads.max(1).min(pending.len());
        let next = AtomicUsize::new(0);
        let allowance = AtomicU64::new(stop_after.unwrap_or(u64::MAX));
        // A lock is poisoned only when a worker panicked holding it; the
        // scope re-raises that panic, so these never fire on their own.
        const ERROR_SLOT: &str = "no worker panics holding the error slot";
        const SUMMARY: &str = "no worker panics holding the run summary";
        const CHECKPOINT: &str = "no worker panics holding the checkpoint lock";
        let summary = Mutex::new(RunSummary::default());
        let error: Mutex<Option<Error>> = Mutex::new(None);
        let dir = self.dir.clone();
        // The campaign's completion state is shared mutable state:
        // workers serialize the journal append under this lock (see the
        // protocol above).
        let campaign = Mutex::new(self);
        let t0 = Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut scratch = UnitScratch::default();
                    loop {
                        // Claim one unit of allowance, then one unit.
                        if allowance
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |a| {
                                a.checked_sub(1)
                            })
                            .is_err()
                        {
                            return;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= pending.len() || error.lock().expect(ERROR_SLOT).is_some() {
                            return;
                        }
                        let unit = pending[idx];
                        let evaluated = {
                            // Time the evaluation alone (not the
                            // checkpoint IO) into the shard histogram.
                            let span = crate::metrics::engine()
                                .map(|m| telemetry::Span::start(&m.shard_us));
                            let r = evaluate_unit(&config, unit, &mut scratch);
                            if let Some(sp) = span {
                                sp.finish();
                            }
                            crate::metrics::observe_index(&scratch.ws);
                            r
                        };
                        let outcome = evaluated.and_then(|result| {
                            let log = result.to_json(config_hash).render();
                            write_atomic(&shard_log_path_in(&dir, unit.shard), &log)?;
                            let stamp = Stamp::of(log.as_bytes());
                            let mut campaign = campaign.lock().expect(CHECKPOINT);
                            campaign.commit(unit.shard, stamp)?;
                            let mut s = summary.lock().expect(SUMMARY);
                            s.shards_run += 1;
                            s.scanned += result.scanned;
                            s.canonical += result.canonical;
                            s.survivors += result.survivors.len() as u64;
                            if let Some(m) = crate::metrics::engine() {
                                // Pool-wide scan rate and the shard-rate
                                // ETA, refreshed per completed unit.
                                let done = campaign.progress().0;
                                let us = t0.elapsed().as_micros().max(1) as u64;
                                m.polys_per_s.set(s.scanned.saturating_mul(1_000_000) / us);
                                let remaining = config.shards.saturating_sub(done);
                                m.eta_ms
                                    .set(remaining.saturating_mul(us / 1_000) / s.shards_run);
                            }
                            Ok(())
                        });
                        if let Err(e) = outcome {
                            *error.lock().expect(ERROR_SLOT) = Some(e);
                            return;
                        }
                    }
                });
            }
        });

        if let Some(e) = error.into_inner().expect(ERROR_SLOT) {
            return Err(e);
        }
        Ok(summary.into_inner().expect(SUMMARY))
    }

    /// Loads every survivor from the completed shard logs, in ascending
    /// shard then Koopman order (for exhaustive campaigns this is global
    /// Koopman order). A log that a journal line vouches for must still
    /// have the journaled length and CRC.
    ///
    /// # Errors
    ///
    /// [`Error::Incomplete`] unless the campaign is complete;
    /// [`Error::Parse`] naming the shard when a log no longer matches its
    /// journal line; IO/parse errors from unreadable logs.
    pub fn survivors(&self) -> Result<Vec<SurvivorRecord>> {
        let (done, total) = self.progress();
        if done != total {
            return Err(Error::Incomplete { done, total });
        }
        let mut out = Vec::new();
        for shard in 0..total {
            out.extend(self.shard_result(shard)?.survivors);
        }
        Ok(out)
    }

    /// Reads and parses one shard's log, first checking it against its
    /// journal line when it has one.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] naming the shard when the log no longer matches
    /// its journal line, is not a log of this campaign, or records
    /// another shard; [`Error::Io`] when it is unreadable.
    pub(crate) fn shard_result(&self, shard: u64) -> Result<ShardResult> {
        let path = self.shard_log_path(shard);
        let bytes =
            std::fs::read(&path).map_err(|e| Error::Io(format!("read {}: {e}", path.display())))?;
        if let Some(stamp) = self.journal.stamps.get(&shard) {
            let found = Stamp::of(&bytes);
            if found != *stamp {
                return Err(Error::Parse(format!(
                    "shard {shard}: {} has length {} and CRC {:08x}, but the journal \
                     recorded {} and {:08x}; it changed after completion",
                    path.display(),
                    found.len,
                    found.crc,
                    stamp.len,
                    stamp.crc
                )));
            }
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| Error::Parse(format!("{} is not UTF-8", path.display())))?;
        let result = ShardResult::from_json(&Json::parse(&text)?, self.config_hash)?;
        if result.unit.shard != shard {
            return Err(Error::Parse(format!(
                "{} records shard {}, expected {shard}",
                path.display(),
                result.unit.shard
            )));
        }
        Ok(result)
    }

    /// Records one shard's result — the coordinator's merge path,
    /// sharing the byte-for-byte write protocol of [`Campaign::run`]
    /// (shard log atomically first, then the journal line). Idempotent:
    /// resubmitting an already checkpointed shard succeeds when the
    /// bytes match (deterministic work units always match) and returns
    /// `false`; a conflicting resubmission is refused without touching
    /// the artifacts.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for a shard id outside the campaign or a
    /// result that conflicts with the checkpointed log; IO errors from
    /// the writes.
    pub fn record_shard(&mut self, result: &ShardResult) -> Result<bool> {
        let shard = result.unit.shard;
        let config = &self.checkpoint.config;
        if shard >= config.shards {
            return Err(Error::Config(format!(
                "shard {shard} outside 0..{}",
                config.shards
            )));
        }
        let expect = config.work_unit(shard);
        if result.unit != expect {
            return Err(Error::Config(format!(
                "shard {shard} covers {}..{}, campaign expects {}..{}",
                result.unit.start, result.unit.end, expect.start, expect.end
            )));
        }
        let bytes = result.to_json(self.config_hash).render();
        let path = self.shard_log_path(shard);
        if self.checkpoint.completed.contains(&shard) {
            let existing = std::fs::read_to_string(&path)
                .map_err(|e| Error::Io(format!("read {}: {e}", path.display())))?;
            if existing == bytes {
                return Ok(false);
            }
            return Err(Error::Config(format!(
                "shard {shard} resubmitted with different contents than its checkpointed log"
            )));
        }
        write_atomic(&path, &bytes)?;
        self.commit(shard, Stamp::of(bytes.as_bytes()))?;
        Ok(true)
    }

    /// Marks `shard`, whose log is on disk with `stamp`, complete: one
    /// journal append, plus the final manifest if it was the last shard.
    fn commit(&mut self, shard: u64, stamp: Stamp) -> Result<()> {
        self.journal
            .append(&self.dir, self.config_hash, shard, stamp)?;
        self.checkpoint.completed.insert(shard);
        self.advance_first_pending();
        self.write_final_manifest()
    }

    /// Writes the manifest listing every shard, once the campaign is
    /// complete and the manifest on disk does not list them all yet.
    fn write_final_manifest(&mut self) -> Result<()> {
        if self.is_complete() && !self.manifest_full {
            self.write_checkpoint()?;
            self.manifest_full = true;
        }
        Ok(())
    }

    fn advance_first_pending(&mut self) {
        while self.first_pending < self.checkpoint.config.shards
            && self.checkpoint.completed.contains(&self.first_pending)
        {
            self.first_pending += 1;
        }
    }

    fn write_checkpoint(&self) -> Result<()> {
        write_atomic(
            &self.dir.join("campaign.json"),
            &self.checkpoint.to_json().render(),
        )
    }
}

fn shard_log_path_in(dir: &Path, shard: u64) -> PathBuf {
    dir.join("shards").join(format!("shard-{shard:05}.json"))
}

/// Writes `contents` to `path` atomically: temp file in the same
/// directory, then rename. Readers never observe a torn file.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents)
        .map_err(|e| Error::Io(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path).map_err(|e| {
        Error::Io(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// The byte length and CRC-32 ([`frame::checksum`]) of a shard log as
/// written: what a journal line vouches for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Stamp {
    len: u64,
    crc: u32,
}

impl Stamp {
    fn of(log: &[u8]) -> Stamp {
        Stamp {
            len: log.len() as u64,
            crc: frame::checksum(log),
        }
    }
}

/// `campaign.journal`: what its intact lines vouch for, and the append
/// handle, opened on first use.
#[derive(Debug, Default)]
struct Journal {
    /// The stamp of every journaled shard whose log checked out on open
    /// or was written by this process.
    stamps: BTreeMap<u64, Stamp>,
    /// Length of the file's intact prefix: a valid header and the lines
    /// after it up to the last valid one. Zero means no usable header.
    intact_len: u64,
    file: Option<File>,
}

impl Journal {
    /// The header payload naming the campaign a journal belongs to.
    fn header(config_hash: u64) -> String {
        format!(
            r#"{{"format":"crc-survey-journal","version":{JOURNAL_VERSION},"config_hash":"{config_hash:#018x}"}}"#
        )
    }

    /// Reads `dir`'s journal (a missing one is empty) and checks every
    /// journaled shard's log against its line. Returns the journal and
    /// the journaled shards whose logs failed that check; those are not
    /// complete even if the manifest lists them. Counts every rejected
    /// line and log in `survey.engine.journal_dropped`.
    fn read(dir: &Path, config_hash: u64, shards: u64) -> Result<(Journal, Vec<u64>)> {
        let path = dir.join(JOURNAL);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Journal::default(), Vec::new()))
            }
            Err(e) => return Err(Error::Io(format!("read {}: {e}", path.display()))),
        };
        // A line is intact when it ends in a newline and passes its CRC
        // trailer; a final segment with no newline is a torn append.
        let intact = |line: &[u8]| {
            line.strip_suffix(b"\n")
                .and_then(|l| frame::decode_bytes(l).ok())
        };
        let mut journal = Journal::default();
        let mut dropped = 0u64;
        let mut lines = bytes.split_inclusive(|&b| b == b'\n');
        match lines.next().map(|line| (line.len(), intact(line))) {
            None => {}
            Some((len, Some(header))) => {
                let expect = Journal::header(config_hash);
                if header != expect {
                    return Err(Error::Parse(format!(
                        "{} belongs to a different campaign: header {header}, expected {expect}",
                        path.display()
                    )));
                }
                journal.intact_len = len as u64;
            }
            // Without a header nothing after it can be tied to this
            // campaign: drop the whole journal and recompute.
            Some((_, None)) => dropped = 1 + lines.by_ref().count() as u64,
        }
        let mut offset = journal.intact_len;
        let mut entries = BTreeMap::new();
        for line in lines {
            offset += line.len() as u64;
            match intact(line).and_then(|payload| parse_entry(&payload, shards)) {
                Some((shard, stamp)) => {
                    entries.insert(shard, stamp);
                    journal.intact_len = offset;
                }
                None => dropped += 1,
            }
        }
        let mut rejected = Vec::new();
        for (shard, stamp) in entries {
            let log = std::fs::read(shard_log_path_in(dir, shard));
            if log.is_ok_and(|log| Stamp::of(&log) == stamp) {
                journal.stamps.insert(shard, stamp);
            } else {
                rejected.push(shard);
            }
        }
        dropped += rejected.len() as u64;
        if dropped > 0 {
            if let Some(m) = crate::metrics::engine() {
                m.journal_dropped.add(dropped);
            }
        }
        Ok((journal, rejected))
    }

    /// Appends the line for `shard`, opening the file on first use and
    /// cutting it back to its intact prefix (writing the header when
    /// there is none).
    fn append(&mut self, dir: &Path, config_hash: u64, shard: u64, stamp: Stamp) -> Result<()> {
        let path = dir.join(JOURNAL);
        let io = |e: std::io::Error| Error::Io(format!("append {}: {e}", path.display()));
        let mut text = String::new();
        if self.intact_len == 0 {
            text.push_str(&frame::encode(&Journal::header(config_hash)));
            text.push('\n');
        }
        let entry = format!(
            r#"{{"shard":{shard},"len":{},"crc":"{:08x}"}}"#,
            stamp.len, stamp.crc
        );
        text.push_str(&frame::encode(&entry));
        text.push('\n');
        let file = match &mut self.file {
            Some(file) => file,
            None => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(io)?;
                file.set_len(self.intact_len).map_err(io)?;
                self.file.insert(file)
            }
        };
        if let Err(e) = file.write_all(text.as_bytes()) {
            // The file may now end in a partial line: reopen and cut it
            // back on the next append.
            self.file = None;
            return Err(io(e));
        }
        self.intact_len += text.len() as u64;
        self.stamps.insert(shard, stamp);
        Ok(())
    }
}

/// Parses one journal entry payload, `{"shard":N,"len":L,"crc":"…"}`.
fn parse_entry(payload: &str, shards: u64) -> Option<(u64, Stamp)> {
    let doc = Json::parse(payload).ok()?;
    let shard = doc.get("shard")?.as_u64().filter(|&s| s < shards)?;
    let len = doc.get("len")?.as_u64()?;
    let crc = u32::from_str_radix(doc.get("crc")?.as_str()?, 16).ok()?;
    Some((shard, Stamp { len, crc }))
}

/// Per-worker reusable state: the survivor accumulator and the
/// sampled-mode offset list live across all units a worker processes,
/// and so does the syndrome workspace — every candidate's filter →
/// profile → weights funnel runs over one set of allocations, rebound
/// (not reallocated) per candidate. One per local worker thread, one
/// per remote [`crate::worker`] loop.
#[derive(Default)]
pub struct UnitScratch {
    survivors: Vec<SurvivorRecord>,
    offsets: Vec<u64>,
    ws: crc_hd::SyndromeWorkspace,
}

impl UnitScratch {
    /// Read-only view of the syndrome workspace, exposing its index
    /// stat accessors to telemetry gauges (see
    /// [`crate::metrics::observe_index`]).
    pub fn workspace(&self) -> &crc_hd::SyndromeWorkspace {
        &self.ws
    }
}

/// Processes one work unit: pure in `(config, unit)` — never affected
/// by thread count, claim order, host, or transport, which is the whole
/// determinism story. Exposed so [`crate::worker`] runs the exact code
/// path the local pool runs.
///
/// # Errors
///
/// Propagates evaluation errors from `crc-hd`.
pub fn evaluate_unit(
    config: &CampaignConfig,
    unit: WorkUnit,
    scratch: &mut UnitScratch,
) -> Result<ShardResult> {
    let space = config.space();
    scratch.survivors.clear();
    let mut scanned = 0u64;
    let mut canonical = 0u64;

    let screen =
        |g: &crc_hd::GenPoly, scratch: &mut UnitScratch, canonical: &mut u64| -> Result<()> {
            // One member per reciprocal pair, as in the paper's search.
            if g.koopman() > g.reciprocal().koopman() {
                return Ok(());
            }
            *canonical += 1;
            if let Some(rec) = SurvivorRecord::screen_in(g, config, &mut scratch.ws)? {
                scratch.survivors.push(rec);
            }
            Ok(())
        };

    match &config.mode {
        Mode::Exhaustive => {
            for g in space.iter_range(unit.start, unit.end) {
                scanned += 1;
                screen(&g, scratch, &mut canonical)?;
            }
        }
        Mode::Sampled { per_shard } => {
            // The shard's own candidate stream (netsim seed splitting):
            // draws land inside the shard's range, so shards stay
            // disjoint and the union remains a subset sample.
            scratch.offsets.clear();
            let span = unit.end - unit.start;
            if span > 0 {
                let mut rng = SplitMix64::new(unit_seed(config.seed, unit.shard, STREAM_SAMPLE));
                for _ in 0..*per_shard {
                    scratch.offsets.push(unit.start + rng.next_below(span));
                }
                scratch.offsets.sort_unstable();
                scratch.offsets.dedup();
                for i in 0..scratch.offsets.len() {
                    let offset = scratch.offsets[i];
                    scanned += 1;
                    screen(&space.nth(offset), scratch, &mut canonical)?;
                }
            }
        }
        Mode::Census { per_stratum, .. } => {
            // One shard per stratum; each draws from its own stream and
            // screens *every* distinct draw — density estimates cover
            // the whole stratum, so there is no reciprocal skip here
            // (`canonical` still counts the canonical-form members, for
            // the record).
            let stratum = crate::census::strata(config)?
                .into_iter()
                .nth(unit.shard as usize)
                .ok_or_else(|| Error::Config(format!("shard {} has no stratum", unit.shard)))?;
            let mut rng = SplitMix64::new(unit_seed(config.seed, unit.shard, STREAM_SAMPLE));
            scratch.offsets.clear();
            for _ in 0..*per_stratum {
                scratch.offsets.push(stratum.draw(config.width, &mut rng)?);
            }
            scratch.offsets.sort_unstable();
            scratch.offsets.dedup();
            for i in 0..scratch.offsets.len() {
                let g = crc_hd::GenPoly::from_koopman(config.width, scratch.offsets[i])
                    .map_err(|e| Error::Config(format!("census draw: {e}")))?;
                scanned += 1;
                if g.koopman() <= g.reciprocal().koopman() {
                    canonical += 1;
                }
                if let Some(rec) = SurvivorRecord::screen_in(&g, config, &mut scratch.ws)? {
                    scratch.survivors.push(rec);
                }
            }
        }
    }

    // Exhaustive ranges are already ascending; sampled draws were
    // sorted. Hold the invariant either way — leaderboards and logs
    // depend on it.
    debug_assert!(scratch
        .survivors
        .windows(2)
        .all(|w| w[0].koopman < w[1].koopman));
    Ok(ShardResult {
        unit,
        scanned,
        canonical,
        survivors: scratch.survivors.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("crc-survey-engine-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config() -> CampaignConfig {
        CampaignConfig {
            width: 10,
            shards: 5,
            seed: 9,
            mode: Mode::Exhaustive,
            min_hd: 4,
            target_lengths: vec![16, 48],
            ber_grid: vec![1e-4, 1e-5],
            max_weight: 6,
        }
    }

    #[test]
    fn thread_count_does_not_change_artifacts() {
        let d1 = test_dir("t1");
        let d4 = test_dir("t4");
        let mut c1 = Campaign::create(&d1, small_config()).unwrap();
        let mut c4 = Campaign::create(&d4, small_config()).unwrap();
        let s1 = c1.run(1, None).unwrap();
        let s4 = c4.run(4, None).unwrap();
        assert_eq!(s1, s4);
        assert!(c1.is_complete() && c4.is_complete());
        for shard in 0..small_config().shards {
            let a = std::fs::read(c1.shard_log_path(shard)).unwrap();
            let b = std::fs::read(c4.shard_log_path(shard)).unwrap();
            assert_eq!(a, b, "shard {shard}");
        }
        assert_eq!(
            std::fs::read(d1.join("campaign.json")).unwrap(),
            std::fs::read(d4.join("campaign.json")).unwrap()
        );
        assert_eq!(c1.survivors().unwrap(), c4.survivors().unwrap());
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d4);
    }

    #[test]
    fn stop_after_checkpoints_and_resumes() {
        let straight_dir = test_dir("straight");
        let chopped_dir = test_dir("chopped");
        let mut straight = Campaign::create(&straight_dir, small_config()).unwrap();
        straight.run(2, None).unwrap();

        let mut chopped = Campaign::create(&chopped_dir, small_config()).unwrap();
        let mut rounds = 0;
        while !chopped.is_complete() {
            // Re-open from disk each round: a genuine process restart.
            let mut resumed = Campaign::open(&chopped_dir).unwrap();
            resumed.run(2, Some(2)).unwrap();
            chopped = Campaign::open(&chopped_dir).unwrap();
            rounds += 1;
            assert!(rounds < 100, "campaign must make progress");
        }
        assert!(rounds >= 3, "stop_after=2 over 5 shards needs 3 rounds");
        for shard in 0..small_config().shards {
            assert_eq!(
                std::fs::read(straight.shard_log_path(shard)).unwrap(),
                std::fs::read(chopped.shard_log_path(shard)).unwrap(),
                "shard {shard}"
            );
        }
        assert_eq!(
            std::fs::read(straight_dir.join("campaign.json")).unwrap(),
            std::fs::read(chopped_dir.join("campaign.json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&straight_dir);
        let _ = std::fs::remove_dir_all(&chopped_dir);
    }

    #[test]
    fn survivors_match_exhaustive_search() {
        // The campaign's survivor set equals core's one-shot exhaustive
        // search at the screen length.
        let dir = test_dir("xcheck");
        let cfg = small_config();
        let mut c = Campaign::create(&dir, cfg.clone()).unwrap();
        c.run(3, None).unwrap();
        let got: Vec<u64> = c.survivors().unwrap().iter().map(|s| s.koopman).collect();
        let expect: Vec<u64> =
            crc_hd::search::exhaustive_search(cfg.width, cfg.screen_len(), cfg.min_hd)
                .unwrap()
                .iter()
                .map(|s| s.poly.koopman())
                .collect();
        assert_eq!(got, expect);
        assert!(!got.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampled_mode_is_deterministic_and_subsets_exhaustive() {
        let da = test_dir("sa");
        let db = test_dir("sb");
        let mut cfg = small_config();
        cfg.mode = Mode::Sampled { per_shard: 40 };
        let mut a = Campaign::create(&da, cfg.clone()).unwrap();
        let mut b = Campaign::create(&db, cfg.clone()).unwrap();
        a.run(1, None).unwrap();
        b.run(4, None).unwrap();
        let sa = a.survivors().unwrap();
        assert_eq!(sa, b.survivors().unwrap());
        // Sampled survivors are a subset of the exhaustive set.
        let full: std::collections::HashSet<u64> =
            crc_hd::search::exhaustive_search(cfg.width, cfg.screen_len(), cfg.min_hd)
                .unwrap()
                .iter()
                .map(|s| s.poly.koopman())
                .collect();
        for s in &sa {
            assert!(full.contains(&s.koopman), "{:#x}", s.koopman);
        }
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }

    #[test]
    fn create_refuses_an_existing_campaign_and_open_validates() {
        let dir = test_dir("guard");
        let _c = Campaign::create(&dir, small_config()).unwrap();
        assert!(matches!(
            Campaign::create(&dir, small_config()),
            Err(Error::Io(_))
        ));
        // Corrupt the manifest: open must fail cleanly.
        std::fs::write(dir.join("campaign.json"), "{not json").unwrap();
        assert!(Campaign::open(&dir).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn survivors_requires_completion() {
        let dir = test_dir("partial");
        let mut c = Campaign::create(&dir, small_config()).unwrap();
        c.run(1, Some(2)).unwrap();
        assert!(matches!(
            c.survivors(),
            Err(Error::Incomplete { done: 2, total: 5 })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
