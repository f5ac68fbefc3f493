//! Cached handles onto the process-global [`telemetry`] registry.
//!
//! Hot paths (the per-candidate screening funnel, the per-burst
//! simulator loops) must not pay a registry lookup per event, so this
//! module resolves each metric once into a `OnceLock` and hands back
//! `None` while the global registry is disabled — callers write
//! `if let Some(m) = metrics::funnel() { m.candidates.inc(); }`, which
//! costs one relaxed load on the disabled path.
//!
//! The full metric catalog (names, types, units) is documented in
//! `docs/OBSERVABILITY.md`; names are hierarchical and dot-separated,
//! and everything recorded here is an integer so telemetry snapshots
//! stay byte-deterministic.

use std::sync::{Arc, OnceLock};

use telemetry::{Counter, Gauge, Histogram};

/// Shard evaluation durations bucketed from 1 ms to 100 s (microsecond
/// observations).
const SHARD_US_BOUNDS: &[u64] = &[
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
];

/// The per-stage screening funnel: each counter is the number of
/// candidates that *reached* that stage, so adjacent ratios are the
/// per-stage pass rates — except `weights`, which counts the subset of
/// profiled candidates whose exact `weights234` sweep ran (it is
/// skipped when the codeword length exceeds the generator's order, so
/// it can sit below `recorded`).
#[derive(Debug)]
pub struct Funnel {
    /// Candidates entering the screen (canonical representatives in
    /// exhaustive mode, draws in sampled/census modes).
    pub candidates: Arc<Counter>,
    /// Candidates that cleared the staged `hd_filter` bar.
    pub hd_pass: Arc<Counter>,
    /// Candidates whose full `HdProfile` was computed.
    pub profiled: Arc<Counter>,
    /// Candidates whose exact `weights234` closed-form sweep ran
    /// (skipped when the codeword length exceeds the order).
    pub weights: Arc<Counter>,
    /// Candidates that became survivor records.
    pub recorded: Arc<Counter>,
}

/// Engine-side rates and index-policy gauges, refreshed after each work
/// unit.
#[derive(Debug)]
pub struct Engine {
    /// Work-unit wall time in microseconds.
    pub shard_us: Arc<Histogram>,
    /// Polynomials scanned per second across the local pool (or the
    /// worker process), refreshed per completed unit.
    pub polys_per_s: Arc<Gauge>,
    /// Estimated milliseconds to campaign completion from the shard
    /// completion rate; 0 until one shard completes.
    pub eta_ms: Arc<Gauge>,
    /// Positions held in the workspace value→position index.
    pub index_positions: Arc<Gauge>,
    /// Spill rows materialized by the two-level index.
    pub index_spill_rows: Arc<Gauge>,
    /// Positions stored in two-level spill rows.
    pub index_spill_positions: Arc<Gauge>,
    /// Implicit growth rehashes of the hash index (high-water mark; the
    /// sizing contract keeps this at 0).
    pub index_rehashes: Arc<Gauge>,
    /// Slot capacity of the hash index (high-water mark).
    pub index_hash_capacity: Arc<Gauge>,
    /// Times any workspace was (re)bound to a polynomial.
    pub index_rebinds: Arc<Gauge>,
    /// Journal lines and journaled shard logs that `Campaign::open`
    /// rejected (torn, corrupt, or no longer matching); each costs one
    /// recomputed shard.
    pub journal_dropped: Arc<Counter>,
}

/// Coordinator-side counters mirroring [`CoordSummary`] plus request
/// traffic.
///
/// [`CoordSummary`]: crate::coordinator::CoordSummary
#[derive(Debug)]
pub struct Coord {
    /// Requests handled, any type.
    pub requests: Arc<Counter>,
    /// Fresh shard results recorded.
    pub recorded: Arc<Counter>,
    /// Duplicate submissions accepted idempotently.
    pub duplicates: Arc<Counter>,
    /// Leases reclaimed after TTL expiry.
    pub leases_expired: Arc<Counter>,
    /// Requests refused (bad config hash, unknown worker, bad shard).
    pub refusals: Arc<Counter>,
    /// `Reply::Retry` answers issued for damaged or undeliverable
    /// traffic.
    pub retries: Arc<Counter>,
    /// Shards recorded in the manifest (gauge: includes prior sessions).
    pub shards_done: Arc<Gauge>,
    /// Shards currently parked in quarantine after repeated lease
    /// expiries.
    pub quarantined: Arc<Gauge>,
}

/// Worker-loop progress counters.
#[derive(Debug)]
pub struct Worker {
    /// Shards evaluated and submitted by this worker process.
    pub shards: Arc<Counter>,
    /// Polynomials scanned per second by this worker, refreshed per
    /// shard.
    pub polys_per_s: Arc<Gauge>,
    /// `Reply::Wait` backoffs honoured.
    pub waits: Arc<Counter>,
    /// Requests resent after a retryable failure or `Reply::Retry`.
    pub retries: Arc<Counter>,
}

/// Wire-level framing counters shared by every transport end in the
/// process (both directions; see [`WireCounters`]).
///
/// [`WireCounters`]: crate::frame::WireCounters
#[derive(Debug)]
pub struct Transport {
    /// Frames put on the wire.
    pub frames_sent: Arc<Counter>,
    /// Frames rejected by CRC/trailer verification on read.
    pub frames_rejected: Arc<Counter>,
    /// `Reply::Retry` answers produced for damaged traffic.
    pub retries_signalled: Arc<Counter>,
    /// Faults deliberately injected by a chaos wrapper.
    pub chaos_injected: Arc<Counter>,
}

/// The screening-funnel counters, or `None` while telemetry is
/// disabled.
pub fn funnel() -> Option<&'static Funnel> {
    static FUNNEL: OnceLock<Funnel> = OnceLock::new();
    let reg = telemetry::global();
    if !reg.enabled() {
        return None;
    }
    Some(FUNNEL.get_or_init(|| Funnel {
        candidates: reg.counter("survey.funnel.candidates"),
        hd_pass: reg.counter("survey.funnel.hd_pass"),
        profiled: reg.counter("survey.funnel.profiled"),
        weights: reg.counter("survey.funnel.weights"),
        recorded: reg.counter("survey.funnel.recorded"),
    }))
}

/// The engine gauges and shard-duration histogram, or `None` while
/// telemetry is disabled.
pub fn engine() -> Option<&'static Engine> {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    let reg = telemetry::global();
    if !reg.enabled() {
        return None;
    }
    Some(ENGINE.get_or_init(|| Engine {
        shard_us: reg.histogram("survey.engine.shard_us", SHARD_US_BOUNDS),
        polys_per_s: reg.gauge("survey.engine.polys_per_s"),
        eta_ms: reg.gauge("survey.engine.eta_ms"),
        index_positions: reg.gauge("survey.index.positions"),
        index_spill_rows: reg.gauge("survey.index.spill_rows"),
        index_spill_positions: reg.gauge("survey.index.spill_positions"),
        index_rehashes: reg.gauge("survey.index.rehashes"),
        index_hash_capacity: reg.gauge("survey.index.hash_capacity"),
        index_rebinds: reg.gauge("survey.index.rebinds"),
        journal_dropped: reg.counter("survey.engine.journal_dropped"),
    }))
}

/// The coordinator counters, or `None` while telemetry is disabled.
pub fn coord() -> Option<&'static Coord> {
    static COORD: OnceLock<Coord> = OnceLock::new();
    let reg = telemetry::global();
    if !reg.enabled() {
        return None;
    }
    Some(COORD.get_or_init(|| Coord {
        requests: reg.counter("survey.coord.requests"),
        recorded: reg.counter("survey.coord.recorded"),
        duplicates: reg.counter("survey.coord.duplicates"),
        leases_expired: reg.counter("survey.coord.leases_expired"),
        refusals: reg.counter("survey.coord.refusals"),
        retries: reg.counter("survey.coord.retries"),
        shards_done: reg.gauge("survey.coord.shards_done"),
        quarantined: reg.gauge("survey.coord.quarantined"),
    }))
}

/// The worker-loop counters, or `None` while telemetry is disabled.
pub fn worker() -> Option<&'static Worker> {
    static WORKER: OnceLock<Worker> = OnceLock::new();
    let reg = telemetry::global();
    if !reg.enabled() {
        return None;
    }
    Some(WORKER.get_or_init(|| Worker {
        shards: reg.counter("survey.worker.shards"),
        polys_per_s: reg.gauge("survey.worker.polys_per_s"),
        waits: reg.counter("survey.worker.waits"),
        retries: reg.counter("survey.worker.retries"),
    }))
}

/// The wire framing counters, or `None` while telemetry is disabled.
pub fn transport() -> Option<&'static Transport> {
    static TRANSPORT: OnceLock<Transport> = OnceLock::new();
    let reg = telemetry::global();
    if !reg.enabled() {
        return None;
    }
    Some(TRANSPORT.get_or_init(|| Transport {
        frames_sent: reg.counter("survey.transport.frames_sent"),
        frames_rejected: reg.counter("survey.transport.frames_rejected"),
        retries_signalled: reg.counter("survey.transport.retries_signalled"),
        chaos_injected: reg.counter("survey.transport.chaos_injected"),
    }))
}

/// Refresh the engine index gauges from a workspace's stat accessors.
///
/// Gauges take the running maximum across workspaces so a many-thread
/// pool reports its busiest index rather than whichever thread updated
/// last.
pub fn observe_index(ws: &crc_hd::SyndromeWorkspace) {
    if let Some(m) = engine() {
        m.index_positions.set_max(u64::from(ws.positions_indexed()));
        m.index_spill_rows.set_max(ws.two_level_spill_rows() as u64);
        m.index_spill_positions
            .set_max(ws.two_level_spill_positions() as u64);
        m.index_rehashes.set_max(ws.hash_rehashes());
        m.index_hash_capacity.set_max(ws.hash_capacity() as u64);
        m.index_rebinds.set_max(ws.rebinds());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_resolve_and_count_when_enabled() {
        let reg = telemetry::global();
        let was = reg.enabled();
        reg.set_enabled(true);
        let f = funnel().expect("enabled registry yields handles");
        let before = f.candidates.get();
        f.candidates.inc();
        // `>=`: other lib tests drive the same process-global counter.
        assert!(f.candidates.get() > before);
        assert!(engine().is_some());
        assert!(coord().is_some());
        assert!(worker().is_some());
        assert!(transport().is_some());
        reg.set_enabled(was);
    }
}
