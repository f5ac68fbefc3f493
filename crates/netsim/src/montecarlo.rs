//! Monte-Carlo corruption experiments and directed error injection.
//!
//! Two complementary modes validate the weight analysis of `crc-hd`:
//!
//! * **Random trials** ([`run_trials`], [`run_weighted_trials`], or the
//!   underlying [`Simulator`]) measure detected/undetected rates under a
//!   channel model. Undetected events are astronomically rare for 32-bit
//!   CRCs (≈2⁻³² of corruptions), so statistical validation uses small
//!   widths where the rate is measurable (≈2⁻⁸ for CRC-8), exactly like
//!   the paper's 8/16-bit validation searches.
//! * **Directed injection** ([`inject_undetectable`]) XORs a *known
//!   codeword* (a multiple of the generator) onto a frame, demonstrating
//!   the blind spots the weight analysis predicts — without waiting 2³²
//!   trials for one to occur naturally.
//!
//! # The sharded engine
//!
//! [`Simulator`] partitions a run into fixed-size **shards** of
//! [`Simulator::DEFAULT_SHARD_FRAMES`] frames. Shard `i` derives its
//! plan, fill and [`Channel::fork`] seeds from
//! [`shard_seed`]`(cfg.seed, i, stream)`, so the work inside a shard is a
//! pure function of the configuration. Worker threads claim shard indices
//! from an atomic counter and merge [`TrialStats`] with exact integer
//! sums — commutative, so the tally is **bit-identical for any thread
//! count**. Within a shard, frames are processed in bursts of
//! [`Simulator::DEFAULT_BATCH`]: payloads are filled and sealed in place
//! (no per-frame allocation), corrupted through
//! [`Channel::corrupt_batch`], and verified through
//! [`FrameCodec::verify_batch`] so the CLMUL engine sees contiguous work.
//!
//! # The two stages of a burst
//!
//! Every burst passes through two stages, called back to back:
//! **produce** (plan frame lengths, prepare buffers, run the channel —
//! RNG-bound) and **consume** (compose payloads, batch-verify CRCs,
//! tally — CRC-bound). Planning, channel and payload randomness live on
//! **disjoint** [`shard_seed`] streams
//! ([`STREAM_PLAN`]/[`STREAM_CHANNEL`]/[`STREAM_FILL`]), so a frame's
//! length and tag never depend on how many payload bytes were drawn
//! before it.
//!
//! Which stage fills payloads depends on the path: content-independent
//! channels ride the **delta path** (corrupt all-zero frames in produce;
//! fill, seal and compose only the corrupted minority in consume), while
//! content-dependent channels — jammers keying on frame bytes, stuffing
//! slips, length errors — are filled and sealed eagerly in produce so
//! the channel sees real content. The delta path fills only corrupted
//! frames and the eager path fills every frame, yet both draw the same
//! plan and channel streams, which is what keeps their tallies identical
//! for a content-independent channel.

use crate::channel::{Channel, FixedWeightChannel};
use crate::frame::FrameCodec;
use crckit::CrcParams;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Bucket bounds (µs) for the consume-stage burst histogram: a burst is
/// a few hundred frames of compose + batch-verify, so the interesting
/// range spans tens of microseconds to tens of milliseconds.
const CONSUME_BURST_BOUNDS: [u64; 9] = [10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000];

/// Process-wide engine-path counters (`sim.path.*`) and the consume-stage
/// burst histogram, shared by every worker.
struct PathMetrics {
    /// Frames tallied on the eager (encode→corrupt→verify) path.
    eager_frames: Arc<telemetry::Counter>,
    /// Frames tallied on the delta (all-zero composition) path.
    delta_frames: Arc<telemetry::Counter>,
    /// Duration of each consume stage call, µs.
    consume_burst_us: Arc<telemetry::Histogram>,
}

fn path_metrics() -> Option<&'static PathMetrics> {
    if !telemetry::global().enabled() {
        return None;
    }
    static CELL: OnceLock<PathMetrics> = OnceLock::new();
    Some(CELL.get_or_init(|| {
        let reg = telemetry::global();
        PathMetrics {
            eager_frames: reg.counter("sim.path.eager_frames"),
            delta_frames: reg.counter("sim.path.delta_frames"),
            consume_burst_us: reg.histogram("sim.consume_burst_us", &CONSUME_BURST_BOUNDS),
        }
    }))
}

/// Configuration for a Monte-Carlo run.
#[derive(Debug, Clone, Copy)]
pub struct TrialConfig {
    /// Payload length per frame, bytes.
    pub payload_len: usize,
    /// Number of frames to push through the channel.
    pub trials: u64,
    /// RNG seed (payloads and channel are derived deterministically).
    pub seed: u64,
}

/// Tally of a Monte-Carlo run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialStats {
    /// Frames the channel left untouched.
    pub clean: u64,
    /// Corrupted frames the CRC caught.
    pub detected: u64,
    /// Corrupted frames the CRC accepted — undetected errors.
    pub undetected: u64,
    /// Total bits flipped across all frames.
    pub bits_flipped: u64,
}

impl TrialStats {
    /// Total frames.
    pub fn total(&self) -> u64 {
        self.clean + self.detected + self.undetected
    }

    /// Frames the channel corrupted (detected or not).
    pub fn corrupted(&self) -> u64 {
        self.detected + self.undetected
    }

    /// Accumulates another tally into this one — exact integer sums, so
    /// merging is commutative and associative: shard results can be
    /// combined in any order with an identical outcome.
    pub fn merge(&mut self, other: &TrialStats) {
        self.clean += other.clean;
        self.detected += other.detected;
        self.undetected += other.undetected;
        self.bits_flipped += other.bits_flipped;
    }

    /// Folds one frame's outcome into the tally: `verdict` is `None` for
    /// an untouched frame, otherwise whether the corrupted frame still
    /// verified (an undetected error).
    pub(crate) fn tally_frame(&mut self, flips: u32, verdict: Option<bool>) {
        self.bits_flipped += flips as u64;
        match verdict {
            None => self.clean += 1,
            Some(true) => self.undetected += 1,
            Some(false) => self.detected += 1,
        }
    }

    /// Undetected fraction among corrupted frames (`None` if nothing was
    /// corrupted).
    pub fn undetected_rate(&self) -> Option<f64> {
        let corrupted = self.corrupted();
        if corrupted == 0 {
            None
        } else {
            Some(self.undetected as f64 / corrupted as f64)
        }
    }

    /// Wilson score interval for the undetected rate at critical value
    /// `z` (`None` if nothing was corrupted).
    ///
    /// Unlike the normal approximation, Wilson stays inside `[0, 1]` and
    /// gives a meaningful upper bound even when zero undetected events
    /// were observed — the usual situation for 32-bit CRCs, where the
    /// interesting number is "how small a rate have the trials excluded".
    pub fn undetected_wilson(&self, z: f64) -> Option<(f64, f64)> {
        let n = self.corrupted();
        if n == 0 {
            return None;
        }
        let (_, lo, hi) = gf2poly::wilson(self.undetected, n, z);
        Some((lo, hi))
    }

    /// The 95% Wilson interval ([`TrialStats::undetected_wilson`] at
    /// z = 1.96).
    pub fn undetected_ci95(&self) -> Option<(f64, f64)> {
        self.undetected_wilson(gf2poly::Z95)
    }
}

/// Derives the deterministic seed for one shard of a run.
///
/// `stream` separates independent random streams inside the same shard
/// (stream 0 drives frame planning — lengths and traffic classes —
/// stream 1 the channel fork, stream 2 payload content); the SplitMix64
/// finalizer decorrelates the structured inputs. This function is the
/// whole seeding scheme: any shard of any CI run can be reproduced
/// locally from `(seed, shard, stream)` alone.
///
/// Plan, channel and fill draw from **disjoint streams** so the number of
/// payload bytes drawn never shifts a frame's plan or corruption: the
/// delta path fills only the corrupted frames while the eager path fills
/// every frame, and because both read identical plan and channel streams
/// a content-independent channel tallies bit-identically on either path.
pub fn shard_seed(seed: u64, shard: u64, stream: u64) -> u64 {
    let mut z = seed
        ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Random stream index for frame planning (lengths, traffic classes)
/// within a shard.
pub const STREAM_PLAN: u64 = 0;
/// Random stream index for the channel fork within a shard.
pub const STREAM_CHANNEL: u64 = 1;
/// Random stream index for payload content within a shard.
pub const STREAM_FILL: u64 = 2;

/// The two payload-side random streams of one shard: `plan` draws frame
/// lengths and tags, `fill` draws payload bytes. Whichever stage fills
/// payloads (produce on the eager path, consume on the delta path) draws
/// from `fill`; `plan` is untouched by how many frames get filled.
pub(crate) struct ShardStreams {
    pub(crate) plan: rand::rngs::StdRng,
    pub(crate) fill: rand::rngs::StdRng,
}

impl ShardStreams {
    pub(crate) fn new(seed: u64, shard: u64) -> ShardStreams {
        ShardStreams {
            plan: rand::rngs::StdRng::seed_from_u64(shard_seed(seed, shard, STREAM_PLAN)),
            fill: rand::rngs::StdRng::seed_from_u64(shard_seed(seed, shard, STREAM_FILL)),
        }
    }
}

/// The sharded, batch-driven trial engine.
///
/// ```
/// use netsim::channel::BscChannel;
/// use netsim::frame::FrameCodec;
/// use netsim::montecarlo::{Simulator, TrialConfig};
/// use crckit::catalog;
///
/// let codec = FrameCodec::new(catalog::CRC32_ISCSI);
/// let cfg = TrialConfig { payload_len: 256, trials: 4_000, seed: 7 };
/// let one = Simulator::new().threads(1).run(&codec, &BscChannel::new(1e-3), &cfg);
/// let four = Simulator::new().threads(4).run(&codec, &BscChannel::new(1e-3), &cfg);
/// assert_eq!(one, four); // same seed => identical stats, any thread count
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    threads: usize,
}

impl Default for Simulator {
    fn default() -> Simulator {
        Simulator::new()
    }
}

impl Simulator {
    /// Frames per burst fed through `corrupt_batch`/`verify_batch`. Part
    /// of the random-stream layout: a channel whose `corrupt_batch`
    /// override carries a stream across frame boundaries (e.g.
    /// [`crate::channel::BscChannel`]'s geometric skip) lays it out per
    /// burst.
    pub const DEFAULT_BATCH: usize = 256;
    /// Frames per shard — the determinism unit. Small enough that modest
    /// runs still fan out across workers, large enough that per-shard
    /// setup (channel fork, RNG init) is noise. Part of the random-stream
    /// layout: every frame draws from its shard's streams.
    pub const DEFAULT_SHARD_FRAMES: u64 = 1024;

    /// A simulator that uses every available core.
    pub fn new() -> Simulator {
        Simulator { threads: 0 }
    }

    /// Sets the worker thread count (0 = one per available core).
    ///
    /// Thread count affects wall-clock only, never results: shards are
    /// claimed dynamically but their contents depend only on the seed.
    pub fn threads(mut self, threads: usize) -> Simulator {
        self.threads = threads;
        self
    }

    /// The resolved worker count for a run of `shards` shards.
    fn worker_count(&self, shards: u64) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let requested = if self.threads == 0 {
            auto
        } else {
            self.threads
        };
        requested.clamp(1, shards.max(1) as usize)
    }

    /// Pushes random frames through forks of `channel`, tallying CRC
    /// verdicts. Deterministic for a given `cfg` regardless of
    /// `threads`: shard and burst sizes are the fixed
    /// [`Simulator::DEFAULT_SHARD_FRAMES`] and [`Simulator::DEFAULT_BATCH`].
    ///
    /// For [`Channel::content_independent`] channels the engine runs the
    /// **delta path**: the burst is corrupted as all-zero delta frames
    /// first, frames the channel left untouched are tallied clean with no
    /// payload or CRC work at all, and only the corrupted minority is
    /// filled, sealed, composed with its delta and batch-verified. CRC
    /// linearity makes the verdict distribution identical to the eager
    /// encode→corrupt→verify path, which content-dependent channels
    /// (e.g. [`crate::channel::JammerChannel`] or the length-changing
    /// slip models) always take. In debug builds a mis-flagged channel —
    /// one claiming content independence whose corruption actually
    /// depends on frame bytes — panics before any trial runs.
    pub fn run(&self, codec: &FrameCodec, channel: &dyn Channel, cfg: &TrialConfig) -> TrialStats {
        #[cfg(debug_assertions)]
        assert_content_flag(channel, cfg.seed, cfg.payload_len + codec.overhead());
        let payload_len = cfg.payload_len;
        self.run_engine(
            codec,
            channel,
            cfg.seed,
            cfg.trials,
            || move |_: &mut rand::rngs::StdRng| (payload_len, 0),
            |stats: &mut TrialStats, _tag, flips, verdict| stats.tally_frame(flips, verdict),
        )
    }

    /// The engine's one driver, shared by [`Simulator::run`] and
    /// [`Simulator::run_mix`]: workers claim shard indices from an atomic
    /// counter, run each shard's bursts through [`produce_burst`] and
    /// [`consume_burst`] back to back, and the workers' partial tallies
    /// merge at the end. `make_plan` yields a per-worker closure fixing
    /// each frame's `(payload_len, tag)` from the shard's plan stream;
    /// `sink` folds one frame's outcome into the worker's mergeable
    /// partial `S` (`verdict = None` for frames the channel left
    /// untouched). A shard's draws depend on its index alone and merging
    /// is an exact sum, so the tally is the same at any thread count.
    pub(crate) fn run_engine<S, GP, FP>(
        &self,
        codec: &FrameCodec,
        channel: &dyn Channel,
        seed: u64,
        trials: u64,
        make_plan: GP,
        sink: impl Fn(&mut S, usize, u32, Option<bool>) + Sync,
    ) -> S
    where
        S: Default + Send + Merge,
        GP: Fn() -> FP + Sync,
        FP: FnMut(&mut rand::rngs::StdRng) -> (usize, usize),
    {
        let shard_frames = Self::DEFAULT_SHARD_FRAMES;
        let shards = trials.div_ceil(shard_frames);
        let batch = Self::DEFAULT_BATCH;
        let delta = channel.content_independent();
        let pm = path_metrics();
        let next = AtomicU64::new(0);
        // One worker's whole life: burst buffers are reused across every
        // shard it claims.
        let worker = || {
            let mut local = S::default();
            let mut scratch = BurstScratch::new(batch);
            let mut plan = make_plan();
            loop {
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= shards {
                    return local;
                }
                let mut streams = ShardStreams::new(seed, shard);
                let mut ch = channel.fork(shard_seed(seed, shard, STREAM_CHANNEL));
                let mut left = shard_frames.min(trials - shard * shard_frames);
                while left > 0 {
                    let burst = (batch as u64).min(left) as usize;
                    produce_burst(
                        codec,
                        ch.as_mut(),
                        &mut streams,
                        &mut scratch,
                        burst,
                        &mut plan,
                    );
                    let fill = if delta { Some(&mut streams.fill) } else { None };
                    let span = pm.map(|p| telemetry::Span::start(&p.consume_burst_us));
                    consume_burst(codec, fill, &mut scratch, |tag, flips, verdict| {
                        sink(&mut local, tag, flips, verdict)
                    });
                    if let Some(sp) = span {
                        sp.finish();
                    }
                    if let Some(p) = pm {
                        let path = if delta {
                            &p.delta_frames
                        } else {
                            &p.eager_frames
                        };
                        path.add(burst as u64);
                    }
                    left -= burst as u64;
                }
            }
        };
        let workers = self.worker_count(shards);
        if workers <= 1 {
            return worker();
        }
        let partials: Vec<S> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("simulator worker"))
                .collect()
        });
        let mut acc = S::default();
        for partial in partials {
            acc.merge_from(partial);
        }
        acc
    }

    /// Flips exactly `k` distinct random bit positions per frame and
    /// tallies verdicts: the empirical estimate of the paper's
    /// `Wₖ / C(n+r, k)` undetected fraction, on the sharded engine.
    pub fn run_weighted(
        &self,
        codec: &FrameCodec,
        payload_len: usize,
        k: u32,
        trials: u64,
        seed: u64,
    ) -> TrialStats {
        let channel = FixedWeightChannel::new(k);
        self.run(
            codec,
            &channel,
            &TrialConfig {
                payload_len,
                trials,
                seed,
            },
        )
    }
}

/// One worker's reusable burst buffers: the frames a burst carries from
/// the produce stage (plan + corrupt) to the consume stage (compose +
/// verify + tally), and the consume stage's payload buffer.
pub(crate) struct BurstScratch {
    /// Frames in use this burst (`frames[..used]`).
    used: usize,
    frames: Vec<Vec<u8>>,
    flips: Vec<u32>,
    tags: Vec<usize>,
    /// Payload the delta path seals before composing it onto a delta.
    work: Vec<u8>,
}

impl BurstScratch {
    fn new(batch: usize) -> BurstScratch {
        BurstScratch {
            used: 0,
            frames: vec![Vec::new(); batch],
            flips: Vec::new(),
            tags: vec![0; batch],
            work: Vec::new(),
        }
    }
}

/// Stage one of the engine: plans the burst's frames — drawing lengths
/// and tags from the shard's plan stream — prepares their buffers, and
/// corrupts them through the channel.
///
/// Content-dependent channels (the eager path) see real frames: payloads
/// drawn from the fill stream and sealed in place. Content-independent
/// channels see all-zero delta frames, so untouched frames cost no
/// payload or CRC work at all; the delta path's all-zero invariant holds
/// across length changes because growing re-zeroes exactly the truncated
/// bytes.
pub(crate) fn produce_burst(
    codec: &FrameCodec,
    ch: &mut dyn Channel,
    streams: &mut ShardStreams,
    buf: &mut BurstScratch,
    burst: usize,
    frame_plan: &mut impl FnMut(&mut rand::rngs::StdRng) -> (usize, usize),
) {
    let eager = !ch.content_independent();
    let overhead = codec.overhead();
    buf.used = burst;
    for i in 0..burst {
        let (payload_len, tag) = frame_plan(&mut streams.plan);
        buf.tags[i] = tag;
        let frame = &mut buf.frames[i];
        if eager {
            frame.clear();
            frame.resize(payload_len, 0);
            streams.fill.fill(&mut frame[..]);
            codec.seal(frame);
        } else {
            frame.resize(payload_len + overhead, 0);
        }
    }
    ch.corrupt_batch(&mut buf.frames[..burst], &mut buf.flips);
}

/// Stage two of the engine: on the delta path (`fill` is `Some`),
/// composes a real sealed frame under each corrupted delta — `(payload ‖
/// FCS) ⊕ δ`, payloads drawn from the fill stream — then batch-verifies
/// the corrupted subset, reports every frame to `sink` (`verdict = None`
/// for untouched frames), and restores the delta path's all-zero
/// invariant on dirty frames so the buffers can be reused.
pub(crate) fn consume_burst(
    codec: &FrameCodec,
    fill: Option<&mut rand::rngs::StdRng>,
    buf: &mut BurstScratch,
    mut sink: impl FnMut(usize, u32, Option<bool>),
) {
    let burst = buf.used;
    let delta = fill.is_some();
    if let Some(rng) = fill {
        let overhead = codec.overhead();
        for (frame, &f) in buf.frames[..burst].iter_mut().zip(buf.flips.iter()) {
            if f == 0 {
                continue;
            }
            buf.work.clear();
            buf.work.resize(frame.len() - overhead, 0);
            rng.fill(&mut buf.work[..]);
            codec.seal(&mut buf.work);
            for (d, w) in frame.iter_mut().zip(buf.work.iter()) {
                *d ^= w;
            }
        }
    }
    // Verify the corrupted subset in one contiguous batch.
    let corrupted: Vec<&[u8]> = buf.frames[..burst]
        .iter()
        .zip(buf.flips.iter())
        .filter(|(_, &f)| f > 0)
        .map(|(frame, _)| frame.as_slice())
        .collect();
    let verdicts = codec.verify_batch(&corrupted);
    let mut v = verdicts.iter();
    for (&tag, &f) in buf.tags[..burst].iter().zip(buf.flips.iter()) {
        let verdict = if f == 0 {
            None
        } else {
            Some(*v.next().expect("one verdict per corrupted frame"))
        };
        sink(tag, f, verdict);
    }
    if delta {
        for (frame, &f) in buf.frames[..burst].iter_mut().zip(buf.flips.iter()) {
            if f > 0 {
                frame.iter_mut().for_each(|b| *b = 0);
            }
        }
    }
}

/// Debug-build guard against mis-flagged channels: one claiming
/// [`Channel::content_independent`] must, for the same fork seed, apply
/// the same XOR delta (and keep the same length) on an all-zero frame as
/// on arbitrary content. Content-dependent corruption routed onto the
/// delta path would silently tally wrong verdicts; this probe turns that
/// into a loud panic before any trial runs.
#[cfg(debug_assertions)]
pub(crate) fn assert_content_flag(channel: &dyn Channel, seed: u64, frame_len: usize) {
    if !channel.content_independent() || frame_len == 0 {
        return;
    }
    let probe_seed = shard_seed(seed, u64::MAX, STREAM_CHANNEL);
    let mut zero = vec![0u8; frame_len];
    let flips_zero = channel.fork(probe_seed).corrupt(&mut zero);
    let mut payload_rng = rand::rngs::StdRng::seed_from_u64(probe_seed ^ 0x5EED);
    // Two independent payloads: the chance a content-dependent channel
    // mimics its zero-frame delta on both is negligible.
    for _ in 0..2 {
        let mut payload = vec![0u8; frame_len];
        payload_rng.fill(&mut payload[..]);
        let mut noisy = payload.clone();
        let flips = channel.fork(probe_seed).corrupt(&mut noisy);
        let delta_matches = zero.len() == frame_len
            && noisy.len() == frame_len
            && flips == flips_zero
            && noisy
                .iter()
                .zip(payload.iter())
                .zip(zero.iter())
                .all(|((n, p), z)| n ^ p == *z);
        assert!(
            delta_matches,
            "channel claims content_independent() but its corruption depends on frame \
             bytes; it must return false and take the eager path"
        );
    }
}

/// Mergeable partial results for the shard-pool driver.
pub(crate) trait Merge {
    /// Folds `other` into `self`; must be commutative and associative so
    /// shard completion order cannot affect the merged result.
    fn merge_from(&mut self, other: Self);
}

impl Merge for TrialStats {
    fn merge_from(&mut self, other: TrialStats) {
        self.merge(&other);
    }
}

/// Pushes random frames through a channel and tallies CRC verdicts.
///
/// Convenience wrapper over [`Simulator::run`] with default sharding and
/// all available cores; the channel argument is the fork prototype (its
/// current RNG state is ignored, as [`run_trials`] has always reseeded).
pub fn run_trials(codec: &FrameCodec, channel: &mut dyn Channel, cfg: &TrialConfig) -> TrialStats {
    Simulator::new().run(codec, &*channel, cfg)
}

/// Flips exactly `k` distinct random bit positions per frame and tallies
/// verdicts. Convenience wrapper over [`Simulator::run_weighted`].
pub fn run_weighted_trials(
    codec: &FrameCodec,
    payload_len: usize,
    k: u32,
    trials: u64,
    seed: u64,
) -> TrialStats {
    Simulator::new().run_weighted(codec, payload_len, k, trials, seed)
}

/// Builds an undetectable error pattern for `params` sized for
/// `payload_len`-byte frames: a random multiple of the generator,
/// byte-aligned for reflected or unreflected conventions.
///
/// The returned vector has frame length (`payload_len` + FCS bytes);
/// XORing it onto any valid frame yields another valid frame.
pub fn undetectable_pattern(params: CrcParams, payload_len: usize, seed: u64) -> Vec<u8> {
    // A codeword of the *pure* algorithm (init 0, no reflection, xorout 0)
    // is a multiple of G in MSB-first bit order. For reflected algorithms
    // the per-byte bit-reversal of a multiple is exactly an undetectable
    // delta for the reflected computation, so we build pure and reflect as
    // needed. init/xorout cancel in any XOR delta and need no handling.
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pure = CrcParams {
        name: "PURE",
        init: 0,
        refin: false,
        refout: false,
        xorout: 0,
        check: 0,
        ..params
    };
    let codec = FrameCodec::new(pure);
    let mut msg = vec![0u8; payload_len];
    rng.fill(&mut msg[..]);
    // Keep the pattern sparse-ish so tests exercise interesting weights.
    for b in msg.iter_mut() {
        if rng.gen::<f64>() < 0.9 {
            *b = 0;
        }
    }
    let mut pattern = codec.encode(&msg);
    if params.refin {
        for b in pattern.iter_mut() {
            *b = b.reverse_bits();
        }
    }
    pattern
}

/// XORs a known-undetectable pattern onto `frame`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn inject_undetectable(frame: &mut [u8], pattern: &[u8]) {
    assert_eq!(
        frame.len(),
        pattern.len(),
        "pattern must match frame length"
    );
    for (f, p) in frame.iter_mut().zip(pattern) {
        *f ^= p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{
        BscChannel, BurstChannel, GilbertElliottChannel, JammerChannel, StuffingChannel,
        TruncationChannel,
    };
    use crckit::catalog;

    #[test]
    fn zero_ber_all_clean() {
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let mut ch = BscChannel::new(0.0);
        let cfg = TrialConfig {
            payload_len: 64,
            trials: 50,
            seed: 1,
        };
        let s = run_trials(&codec, &mut ch, &cfg);
        assert_eq!(s.clean, 50);
        assert_eq!(s.undetected_rate(), None);
        assert_eq!(s.undetected_ci95(), None);
    }

    #[test]
    fn crc32_catches_every_random_corruption() {
        // 2000 corrupted frames is ~2^-21 of the way to an expected
        // undetected event for a 32-bit CRC: zero undetected expected.
        let codec = FrameCodec::new(catalog::CRC32_ISCSI);
        let mut ch = BscChannel::new(5e-3);
        let cfg = TrialConfig {
            payload_len: 200,
            trials: 2000,
            seed: 2,
        };
        let s = run_trials(&codec, &mut ch, &cfg);
        assert!(s.detected > 1000, "BER should corrupt most frames");
        assert_eq!(s.undetected, 0);
    }

    #[test]
    fn bursts_within_width_always_detected() {
        let codec = FrameCodec::new(catalog::CRC32_MEF);
        let mut ch = BurstChannel::new(32);
        let cfg = TrialConfig {
            payload_len: 150,
            trials: 3000,
            seed: 3,
        };
        let s = run_trials(&codec, &mut ch, &cfg);
        assert_eq!(s.clean, 0, "burst channel always corrupts");
        assert_eq!(s.undetected, 0, "bursts <= width are always detected");
    }

    #[test]
    fn stats_are_identical_across_thread_counts() {
        // Thread count reschedules work, it never changes it — across
        // delta-path channels, eager-path (content-dependent) channels,
        // and a partial tail shard.
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let cfg = TrialConfig {
            payload_len: 307,
            trials: 4_777, // deliberately not a multiple of the shard size
            seed: 0xDE7E_2717,
        };
        for channel in [
            &BscChannel::new(1e-3) as &dyn Channel,
            &BurstChannel::new(24),
            &GilbertElliottChannel::new(1e-4, 1e-2, 1e-7, 1e-2),
            &JammerChannel::hdlc(0.5),
            &StuffingChannel::new(0.02),
            &TruncationChannel::new(0.05, 16),
        ] {
            let one = Simulator::new().threads(1).run(&codec, channel, &cfg);
            for threads in [2usize, 3, 5, 8] {
                let many = Simulator::new().threads(threads).run(&codec, channel, &cfg);
                assert_eq!(one, many, "1-thread vs {threads}-thread divergence");
            }
        }
    }

    #[test]
    fn telemetry_tracks_path_split() {
        // A delta-path run must account for every trial frame on the
        // delta path counter; an eager-path (content-dependent) run must
        // land on the eager counter. Counters are process-global and other
        // tests run sims in parallel, so assert the delta grew by at least
        // this run's share.
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let cfg = TrialConfig {
            payload_len: 64,
            trials: 2_000,
            seed: 7,
        };
        let reg = telemetry::global();
        let delta = reg.counter("sim.path.delta_frames");
        let eager = reg.counter("sim.path.eager_frames");
        let (d0, e0) = (delta.get(), eager.get());
        let sim = Simulator::new().threads(2);
        sim.run(&codec, &BscChannel::new(1e-3), &cfg);
        assert!(delta.get() - d0 >= cfg.trials, "BSC rides the delta path");
        sim.run(&codec, &JammerChannel::hdlc(0.5), &cfg);
        assert!(
            eager.get() - e0 >= cfg.trials,
            "jammer rides the eager path"
        );
    }

    #[test]
    fn mix_is_identical_across_thread_counts() {
        let codec = FrameCodec::new(catalog::CRC32_ISCSI);
        let mix = crate::imix::TrafficMix::simple_imix();
        let ch = JammerChannel::hdlc(0.3);
        let one = Simulator::new()
            .threads(1)
            .run_mix(&codec, &ch, &mix, 3_000, 21);
        let four = Simulator::new()
            .threads(4)
            .run_mix(&codec, &ch, &mix, 3_000, 21);
        assert_eq!(one.per_class.len(), four.per_class.len());
        for ((ca, sa), (cb, sb)) in one.per_class.iter().zip(&four.per_class) {
            assert_eq!(ca, cb);
            assert_eq!(sa, sb, "per-class divergence for {}", ca.label);
        }
    }

    #[test]
    fn content_dependent_channels_ride_the_eager_path_end_to_end() {
        // Slips and length errors at CRC-32 scale: plenty of corruption,
        // nothing undetected.
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let cfg = TrialConfig {
            payload_len: 256,
            trials: 4_000,
            seed: 0xEA6E,
        };
        for (name, channel) in [
            ("jammer", &JammerChannel::hdlc(0.8) as &dyn Channel),
            ("stuffing", &StuffingChannel::new(0.05)),
            ("truncation", &TruncationChannel::new(0.2, 8)),
        ] {
            let s = Simulator::new().run(&codec, channel, &cfg);
            assert_eq!(s.total(), cfg.trials, "{name}");
            assert!(s.corrupted() > 200, "{name} corrupted too little");
            assert!(s.clean > 0, "{name} should leave some frames clean");
            assert_eq!(s.undetected, 0, "{name}: CRC-32 must catch all of these");
        }
    }

    /// A deliberately mis-flagged channel: claims content independence
    /// but keys its flips on the frame's bytes.
    #[cfg(debug_assertions)]
    #[derive(Debug, Clone)]
    struct MisflaggedChannel(JammerChannel);

    #[cfg(debug_assertions)]
    impl Channel for MisflaggedChannel {
        fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
            self.0.corrupt(frame)
        }
        fn reseed(&mut self, seed: u64) {
            self.0.reseed(seed);
        }
        fn fork(&self, seed: u64) -> Box<dyn Channel> {
            let mut ch = self.clone();
            ch.reseed(seed);
            Box::new(ch)
        }
        fn content_independent(&self) -> bool {
            true // the lie under test
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "content_independent")]
    fn misflagged_channel_is_caught_in_debug_builds() {
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let cfg = TrialConfig {
            payload_len: 512,
            trials: 100,
            seed: 3,
        };
        let ch = MisflaggedChannel(JammerChannel::hdlc(1.0));
        let _ = Simulator::new().run(&codec, &ch, &cfg);
    }

    #[test]
    fn merge_is_exact() {
        let a = TrialStats {
            clean: 1,
            detected: 2,
            undetected: 3,
            bits_flipped: 10,
        };
        let mut m = TrialStats::default();
        m.merge(&a);
        m.merge(&a);
        assert_eq!(
            m,
            TrialStats {
                clean: 2,
                detected: 4,
                undetected: 6,
                bits_flipped: 20
            }
        );
        assert_eq!(m.total(), 12);
        assert_eq!(m.corrupted(), 10);
    }

    #[test]
    fn wilson_interval_brackets_the_rate() {
        let s = TrialStats {
            clean: 0,
            detected: 900,
            undetected: 100,
            bits_flipped: 0,
        };
        let (lo, hi) = s.undetected_ci95().unwrap();
        let p = s.undetected_rate().unwrap();
        assert!(lo < p && p < hi, "CI [{lo}, {hi}] must bracket {p}");
        assert!(lo > 0.08 && hi < 0.13, "CI [{lo}, {hi}] is too loose");
        // Zero observed events still give a meaningful upper bound.
        let none = TrialStats {
            clean: 0,
            detected: 10_000,
            undetected: 0,
            bits_flipped: 0,
        };
        let (lo0, hi0) = none.undetected_ci95().unwrap();
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 1e-3, "upper bound {hi0}");
    }

    #[test]
    fn shard_seed_separates_streams_and_shards() {
        assert_ne!(shard_seed(1, 0, 0), shard_seed(1, 0, 1));
        assert_ne!(shard_seed(1, 0, 0), shard_seed(1, 1, 0));
        assert_ne!(shard_seed(1, 0, 0), shard_seed(2, 0, 0));
        assert_eq!(shard_seed(7, 3, 1), shard_seed(7, 3, 1));
    }

    #[test]
    fn crc8_undetected_rate_matches_weight_prediction() {
        // CRC-8/0x07 at a 2-byte payload: k=4 random flips go undetected
        // at rate W4 / C(24, 4). Compute the exact rate from the code
        // spectrum and compare with simulation.
        let g = crc_hd_spectrum_rate();
        let codec = FrameCodec::new(catalog::CRC8_SMBUS);
        let s = run_weighted_trials(&codec, 2, 4, 60_000, 11);
        let measured = s.undetected_rate().unwrap_or(0.0);
        assert_eq!(s.corrupted(), s.total(), "every weighted frame corrupts");
        // 3-sigma tolerance for 60k Bernoulli trials.
        let sigma = (g * (1.0 - g) / 60_000f64).sqrt();
        assert!(
            (measured - g).abs() < 4.0 * sigma + 1e-4,
            "measured {measured}, predicted {g}"
        );
        // The Wilson interval agrees with the point estimate's story.
        let (lo, hi) = s.undetected_ci95().unwrap();
        assert!(lo <= g + 4.0 * sigma && g - 4.0 * sigma <= hi);
    }

    /// Exact W4/C(24,4) for CRC-8/0x07 at 16 data bits via crc-hd.
    fn crc_hd_spectrum_rate() -> f64 {
        let g = crc_hd::GenPoly::from_normal(8, 0x07).unwrap();
        let spec = crc_hd::spectrum::spectrum(&g, 16).unwrap();
        let w4 = spec.count(4) as f64;
        let total = crc_hd::costmodel::error_patterns(24, 4) as f64;
        w4 / total
    }

    #[test]
    fn injected_codewords_are_never_detected() {
        for params in [
            catalog::CRC32_ISO_HDLC,
            catalog::CRC32_ISCSI,
            catalog::CRC32_MEF,
            catalog::CRC16_ARC,
            catalog::CRC16_XMODEM,
        ] {
            let codec = FrameCodec::new(params);
            let payload = vec![0x5Au8; 96];
            let clean = codec.encode(&payload);
            for seed in 0..10 {
                let pattern = undetectable_pattern(params, payload.len(), seed);
                let mut frame = clean.clone();
                inject_undetectable(&mut frame, &pattern);
                if frame == clean {
                    continue; // the random multiple was zero — no error
                }
                assert!(
                    codec.verify(&frame),
                    "{}: injected codeword was detected (weight analysis broken)",
                    params.name
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "pattern must match")]
    fn inject_length_mismatch_panics() {
        let mut frame = vec![0u8; 8];
        inject_undetectable(&mut frame, &[0u8; 4]);
    }
}
