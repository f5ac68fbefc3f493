//! Bit-error channel models.
//!
//! Channels are **batch-first**: the sharded simulator corrupts frames in
//! bursts through [`Channel::corrupt_batch`], and spawns one independent
//! channel per shard with [`Channel::fork`] so results are a pure function
//! of `(seed, shard index)` — identical no matter how many worker threads
//! process the shards.
//!
//! Two families live here:
//!
//! * **Content-independent XOR-delta channels** ([`BscChannel`],
//!   [`BurstChannel`], [`GilbertElliottChannel`], [`FixedWeightChannel`]):
//!   the flipped positions never depend on the frame bytes, so the
//!   simulator can run them on its zero-delta fast path.
//! * **Content-dependent channels** ([`JammerChannel`],
//!   [`StuffingChannel`], [`TruncationChannel`]): the corruption inspects
//!   frame content or changes the frame *length*, which no XOR delta can
//!   express — these always take the eager encode→corrupt→verify path.

use rand::Rng;
use rand::SeedableRng;

/// A channel that corrupts frames in place, reporting a corruption
/// magnitude.
///
/// `corrupt` receives the frame as a `Vec` so channels modeling
/// synchronization slips or length errors can insert and remove bits or
/// bytes, not just flip them. The contract on the return value is:
/// **zero if and only if the frame is byte-identical to what was sent** —
/// the simulator tallies zero-return frames as clean without verifying
/// them. For flip channels the magnitude is the number of flipped bits;
/// length-changing channels document their own unit.
///
/// Implementations must be `Send + Sync` so a prototype channel can be
/// shared across the simulator's worker threads, each of which [`fork`]s
/// its own deterministic instance per shard.
///
/// [`fork`]: Channel::fork
pub trait Channel: Send + Sync {
    /// Corrupts `frame`, returning a nonzero magnitude iff it was
    /// modified (the number of flipped bits, for bit-flip channels).
    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32;

    /// Reseeds the channel's randomness — and resets any channel state
    /// (e.g. a Markov chain's current state) — for reproducible
    /// experiments: after `reseed(s)` the corruption stream is a pure
    /// function of `s`.
    fn reseed(&mut self, seed: u64);

    /// Returns an independent copy of this channel reseeded with `seed`,
    /// ignoring the prototype's accumulated RNG state.
    ///
    /// This is the simulator's seed-splitting primitive: shard `i` runs on
    /// `channel.fork(shard_seed(cfg.seed, i, ..))`, so the corruption each
    /// shard applies depends only on the configuration, never on which
    /// thread happens to process it.
    fn fork(&self, seed: u64) -> Box<dyn Channel>;

    /// Returns `true` when this channel's corruption is a
    /// **content-independent XOR delta**: the set of flipped bit positions
    /// never depends on the bytes of the frame, only on the channel's own
    /// randomness and the frame *length*.
    ///
    /// This property is what lets the simulator corrupt an all-zero delta
    /// frame first and skip CRC work entirely for frames the channel
    /// leaves untouched: because the CRC is linear, `verify(frame ⊕ δ)`
    /// depends on the payload and `δ` in a way that composing the delta
    /// afterwards reproduces exactly. Channels that inspect frame content
    /// (e.g. [`JammerChannel`] targeting sync words) or change the frame
    /// length ([`StuffingChannel`], [`TruncationChannel`] — a length
    /// change is never an XOR delta) must keep the default `false`, which
    /// routes them through the eager encode→corrupt→verify path. In debug
    /// builds the simulator probes channels claiming `true` and panics on
    /// a mis-flagged one.
    fn content_independent(&self) -> bool {
        false
    }

    /// Corrupts a burst of frames, recording per-frame flip counts into
    /// `flips` (cleared and resized to `frames.len()`).
    ///
    /// The default implementation applies [`Channel::corrupt`] frame by
    /// frame, preserving any cross-frame state evolution (as for the
    /// Gilbert–Elliott chain). Channels may override it with a faster
    /// batch path as long as the *distribution* of corruptions is
    /// unchanged; [`BscChannel`] carries its geometric skip across frame
    /// boundaries, which is exact for a memoryless channel and skips the
    /// per-frame overshoot draw.
    fn corrupt_batch(&mut self, frames: &mut [Vec<u8>], flips: &mut Vec<u32>) {
        flips.clear();
        flips.extend(frames.iter_mut().map(|frame| self.corrupt(frame)));
    }
}

/// The memoryless binary symmetric channel: every bit flips independently
/// with probability `ber`.
///
/// ```
/// use netsim::channel::{BscChannel, Channel};
/// let mut ch = BscChannel::new(0.0);
/// let mut frame = vec![0xAAu8; 64];
/// assert_eq!(ch.corrupt(&mut frame), 0); // zero BER never corrupts
/// ```
#[derive(Debug, Clone)]
pub struct BscChannel {
    ber: f64,
    rng: rand::rngs::StdRng,
}

impl BscChannel {
    /// Creates a channel with the given bit error rate (0.0..=1.0).
    ///
    /// # Panics
    ///
    /// Panics if `ber` is outside `[0, 1]` or not finite.
    pub fn new(ber: f64) -> BscChannel {
        assert!(
            ber.is_finite() && (0.0..=1.0).contains(&ber),
            "BER must be in [0,1]"
        );
        BscChannel {
            ber,
            rng: rand::rngs::StdRng::seed_from_u64(0x0BE5_C0DE),
        }
    }

    /// The configured bit error rate.
    pub fn ber(&self) -> f64 {
        self.ber
    }
}

impl Channel for BscChannel {
    fn content_independent(&self) -> bool {
        true
    }

    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
        if self.ber == 0.0 {
            return 0;
        }
        let mut flipped = 0;
        // Geometric skipping: draw the gap to the next flipped bit instead
        // of testing every bit — exact for the BSC and far faster at the
        // low BERs networking cares about.
        let nbits = frame.len() as u64 * 8;
        let mut pos = next_gap(&mut self.rng, self.ber);
        while pos < nbits {
            frame[(pos / 8) as usize] ^= 1 << (pos % 8);
            flipped += 1;
            pos += 1 + next_gap(&mut self.rng, self.ber);
        }
        flipped
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
    }

    fn fork(&self, seed: u64) -> Box<dyn Channel> {
        let mut ch = self.clone();
        ch.reseed(seed);
        Box::new(ch)
    }

    fn corrupt_batch(&mut self, frames: &mut [Vec<u8>], flips: &mut Vec<u32>) {
        flips.clear();
        flips.resize(frames.len(), 0);
        if self.ber == 0.0 {
            return;
        }
        // One geometric stream across the whole burst: because the BSC is
        // memoryless, carrying the overshoot of the last gap into the next
        // frame is exact, and at low BER a single draw skips many clean
        // frames — the main RNG saving of the batch path.
        let mut idx = 0;
        let mut pos = next_gap(&mut self.rng, self.ber);
        while idx < frames.len() {
            let nbits = frames[idx].len() as u64 * 8;
            if pos >= nbits {
                pos -= nbits;
                idx += 1;
                continue;
            }
            frames[idx][(pos / 8) as usize] ^= 1 << (pos % 8);
            flips[idx] += 1;
            pos += 1 + next_gap(&mut self.rng, self.ber);
        }
    }
}

/// Draws a geometric gap (number of untouched bits before the next flip).
fn next_gap(rng: &mut impl Rng, p: f64) -> u64 {
    if p >= 1.0 {
        return 0;
    }
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (u.ln() / (1.0 - p).ln()).floor() as u64
}

/// A burst channel: each corruption event flips a random nonzero pattern
/// within a contiguous span of at most `max_span` bits.
///
/// CRCs detect every burst no longer than their width — the guarantee the
/// paper notes "remains intact for all the codes we consider".
#[derive(Debug, Clone)]
pub struct BurstChannel {
    max_span: u32,
    rng: rand::rngs::StdRng,
}

impl BurstChannel {
    /// Creates a burst channel with bursts spanning at most `max_span`
    /// bits (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `max_span` is 0 or exceeds 64.
    pub fn new(max_span: u32) -> BurstChannel {
        assert!((1..=64).contains(&max_span), "span must be in 1..=64");
        BurstChannel {
            max_span,
            rng: rand::rngs::StdRng::seed_from_u64(0xB0B5),
        }
    }

    /// Maximum burst span in bits.
    pub fn max_span(&self) -> u32 {
        self.max_span
    }
}

impl Channel for BurstChannel {
    fn content_independent(&self) -> bool {
        true
    }

    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
        let nbits = frame.len() as u64 * 8;
        if nbits == 0 {
            return 0;
        }
        let span = self.rng.gen_range(1..=self.max_span.min(nbits as u32));
        // A burst of `span` bits: first and last bit set (defining the
        // span), interior random.
        let mut pattern: u64 = 1 | 1 << (span - 1);
        if span > 2 {
            let interior_mask = ((1u64 << (span - 2)) - 1) << 1;
            pattern |= self.rng.gen::<u64>() & interior_mask;
        }
        let start = self.rng.gen_range(0..=nbits - span as u64);
        let mut flipped = 0;
        for i in 0..span as u64 {
            if pattern >> i & 1 == 1 {
                let pos = start + i;
                frame[(pos / 8) as usize] ^= 1 << (pos % 8);
                flipped += 1;
            }
        }
        flipped
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
    }

    fn fork(&self, seed: u64) -> Box<dyn Channel> {
        let mut ch = self.clone();
        ch.reseed(seed);
        Box::new(ch)
    }
}

/// The two-state Gilbert–Elliott bursty channel: a Markov chain switches
/// between a good state (low BER) and a bad state (high BER), reproducing
/// the clustered errors observed on real links — the reason Stone &
/// Partridge saw CRCs exercised "once every few thousand packets".
#[derive(Debug, Clone)]
pub struct GilbertElliottChannel {
    p_g2b: f64,
    p_b2g: f64,
    ber_good: f64,
    ber_bad: f64,
    in_bad: bool,
    rng: rand::rngs::StdRng,
}

impl GilbertElliottChannel {
    /// Creates a Gilbert–Elliott channel.
    ///
    /// `p_g2b`/`p_b2g` are per-bit transition probabilities; `ber_good`/
    /// `ber_bad` are the flip probabilities in each state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub fn new(p_g2b: f64, p_b2g: f64, ber_good: f64, ber_bad: f64) -> GilbertElliottChannel {
        for (name, p) in [
            ("p_g2b", p_g2b),
            ("p_b2g", p_b2g),
            ("ber_good", ber_good),
            ("ber_bad", ber_bad),
        ] {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(&p),
                "{name} must be in [0,1]"
            );
        }
        GilbertElliottChannel {
            p_g2b,
            p_b2g,
            ber_good,
            ber_bad,
            in_bad: false,
            rng: rand::rngs::StdRng::seed_from_u64(0x6E11),
        }
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        if self.p_g2b + self.p_b2g == 0.0 {
            0.0
        } else {
            self.p_g2b / (self.p_g2b + self.p_b2g)
        }
    }
}

impl Channel for GilbertElliottChannel {
    fn content_independent(&self) -> bool {
        true
    }

    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
        let mut flipped = 0;
        for byte in frame.iter_mut() {
            for bit in 0..8 {
                let transition = if self.in_bad { self.p_b2g } else { self.p_g2b };
                if self.rng.gen::<f64>() < transition {
                    self.in_bad = !self.in_bad;
                }
                let ber = if self.in_bad {
                    self.ber_bad
                } else {
                    self.ber_good
                };
                if ber > 0.0 && self.rng.gen::<f64>() < ber {
                    *byte ^= 1 << bit;
                    flipped += 1;
                }
            }
        }
        flipped
    }

    fn reseed(&mut self, seed: u64) {
        // Reset the Markov state too: reproducibility demands the whole
        // corruption stream be a function of the seed alone.
        self.in_bad = false;
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
    }

    fn fork(&self, seed: u64) -> Box<dyn Channel> {
        let mut ch = self.clone();
        ch.reseed(seed);
        Box::new(ch)
    }
}

/// A directed-error channel that flips exactly `weight` distinct random
/// bit positions per frame — the empirical probe of the paper's
/// `Wₖ / C(n+r, k)` undetected fraction, packaged as a [`Channel`] so
/// weighted trials ride the same sharded simulator as random traffic.
#[derive(Debug, Clone)]
pub struct FixedWeightChannel {
    weight: u32,
    rng: rand::rngs::StdRng,
    scratch: Vec<u64>,
}

impl FixedWeightChannel {
    /// Creates a channel flipping exactly `weight` bits per frame (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is 0.
    pub fn new(weight: u32) -> FixedWeightChannel {
        assert!(weight >= 1, "weight must be at least 1");
        FixedWeightChannel {
            weight,
            rng: rand::rngs::StdRng::seed_from_u64(0x3162),
            scratch: Vec::with_capacity(weight as usize),
        }
    }

    /// The number of bits flipped per frame.
    pub fn weight(&self) -> u32 {
        self.weight
    }
}

impl Channel for FixedWeightChannel {
    fn content_independent(&self) -> bool {
        true
    }

    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
        let nbits = frame.len() as u64 * 8;
        assert!(
            self.weight as u64 <= nbits,
            "frame of {nbits} bits cannot hold {} distinct flips",
            self.weight
        );
        self.scratch.clear();
        while self.scratch.len() < self.weight as usize {
            let p = self.rng.gen_range(0..nbits);
            if !self.scratch.contains(&p) {
                self.scratch.push(p);
            }
        }
        for &p in &self.scratch {
            frame[(p / 8) as usize] ^= 1 << (p % 8);
        }
        self.weight
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
    }

    fn fork(&self, seed: u64) -> Box<dyn Channel> {
        let mut ch = self.clone();
        ch.reseed(seed);
        Box::new(ch)
    }
}

/// A content-dependent jammer: scans the frame for bytes matching a sync
/// pattern and, with probability `hit_prob` per match, flips one random
/// bit of the matching byte — interference that keys on recognizable
/// structure in the data (flag bytes, preambles) rather than striking
/// uniformly.
///
/// Because the flipped positions — and even the number of RNG draws — are
/// a function of the frame *content*, this channel cannot be expressed as
/// a content-independent XOR delta and always takes the simulator's eager
/// encode→corrupt→verify path.
///
/// **Draw-order contract:** the RNG is drawn only at sync bytes, in frame
/// order — one hit draw per sync byte, then one bit draw if it hits — so
/// a seeded jammer's flips are a pure function of the frame and the seed.
/// [`Channel::corrupt`] skips sync-free 32-byte lanes with one
/// branch-free test each and, inside a lane that holds the sync byte,
/// visits only the sync bytes through an exact zero-byte mask walked in
/// ascending byte order; neither step may change which bytes draw or in
/// what order.
#[derive(Debug, Clone)]
pub struct JammerChannel {
    sync: u8,
    hit_prob: f64,
    rng: rand::rngs::StdRng,
}

impl JammerChannel {
    /// Creates a jammer striking bytes equal to `sync` with probability
    /// `hit_prob` each.
    ///
    /// # Panics
    ///
    /// Panics if `hit_prob` is outside `[0, 1]` or not finite.
    pub fn new(sync: u8, hit_prob: f64) -> JammerChannel {
        assert!(
            hit_prob.is_finite() && (0.0..=1.0).contains(&hit_prob),
            "hit_prob must be in [0,1]"
        );
        JammerChannel {
            sync,
            hit_prob,
            rng: rand::rngs::StdRng::seed_from_u64(0x7A77),
        }
    }

    /// A jammer keyed on the HDLC flag byte `0x7E`.
    pub fn hdlc(hit_prob: f64) -> JammerChannel {
        JammerChannel::new(0x7E, hit_prob)
    }

    /// The byte pattern the jammer strikes.
    pub fn sync(&self) -> u8 {
        self.sync
    }

    /// Draws for one sync byte: a hit draw, then a bit draw if it hits.
    /// Returns the flip count (0 or 1).
    #[inline]
    fn strike_byte(&mut self, byte: &mut u8) -> u32 {
        if self.rng.gen::<f64>() < self.hit_prob {
            *byte ^= 1 << self.rng.gen_range(0..8u32);
            1
        } else {
            0
        }
    }

    /// The per-byte strike loop over `bytes`, returning the flip count.
    fn strike(&mut self, bytes: &mut [u8]) -> u32 {
        let mut flipped = 0;
        for byte in bytes {
            if *byte == self.sync {
                flipped += self.strike_byte(byte);
            }
        }
        flipped
    }

    /// Strikes the sync bytes of one lane known to hold at least one.
    /// Each 8-byte word is read little-endian, so ascending set bits of
    /// its sync mask are ascending byte offsets: the draws land on the
    /// same bytes in the same order as [`JammerChannel::strike`].
    fn strike_lane(&mut self, lane: &mut [u8; JAM_LANE]) -> u32 {
        let mut flipped = 0;
        let (words, _) = lane.as_chunks_mut::<8>();
        for word in words {
            let mut hits = sync_mask(u64::from_le_bytes(*word), self.sync);
            while hits != 0 {
                let at = hits.trailing_zeros() as usize / 8;
                flipped += self.strike_byte(&mut word[at]);
                hits &= hits - 1;
            }
        }
        flipped
    }
}

/// Bytes per lane of the jammer's sync scan. On random payload about one
/// byte in 256 is the sync byte, so most lanes hold none and cost one
/// vectorized compare-and-OR instead of a branch per byte. On a 2-core
/// AVX-512 Xeon, 16-byte lanes tied end to end and 64-byte lanes took
/// about 1.5× as long per frame; a SWAR `u64` zero-byte test and a
/// bit-mask walk were slower *as the lane test* — inside a lane that
/// holds the sync byte, the mask walk ([`sync_mask`]) is what visits the
/// hits.
const JAM_LANE: usize = 32;

/// The high bit of every byte of `word` equal to `sync`, and no other
/// bit. Exact (no false positives from borrows): with `x = word ^
/// splat(sync)`, `(x & 0x7F..) + 0x7F..` sets a byte's high bit iff its
/// low seven bits are nonzero, and OR-ing `x` adds bytes whose own high
/// bit is set, so only zero bytes of `x` end with the high bit clear.
#[inline]
fn sync_mask(word: u64, sync: u8) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    let x = word ^ u64::from_ne_bytes([sync; 8]);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

impl Channel for JammerChannel {
    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
        let sync = self.sync;
        let (lanes, tail) = frame.as_chunks_mut::<JAM_LANE>();
        let mut flipped = 0;
        for lane in lanes {
            if lane.iter().fold(false, |any, &b| any | (b == sync)) {
                flipped += self.strike_lane(lane);
            }
        }
        flipped + self.strike(tail)
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
    }

    fn fork(&self, seed: u64) -> Box<dyn Channel> {
        let mut ch = self.clone();
        ch.reseed(seed);
        Box::new(ch)
    }
}

/// HDLC bit-stuffing slips — the paper's §3 motivation for FCS failures
/// on framed links.
///
/// HDLC transmitters insert ("stuff") a 0 after every run of five 1 bits
/// so data can never mimic the `0x7E` flag. A noise hit on or near a
/// stuffing bit desynchronizes that process: the receiver either deletes
/// a data bit it mistook for stuffing, or keeps a spurious stuffed zero —
/// and the entire rest of the frame shifts by one bit position. The FCS is
/// then computed over shifted data, which is exactly the failure mode a
/// pure bit-flip channel never produces.
///
/// This model treats the frame bits (LSB-first within each byte) as the
/// transmitted stream: every position following a run of five consecutive
/// 1 bits is a *stuffing point*, and each suffers a slip independently
/// with probability `slip_prob`. A slip either inserts a spurious 0 bit
/// at the point, or deletes the bit sitting there, chosen 50/50; all
/// slips are decided against the original bit sequence, then applied in
/// one rebuild pass (so the slip count is bounded by the original frame's
/// stuffing points). The rebuilt stream is repacked into bytes, zero-
/// padding any final partial byte, so the frame can shrink, grow, or keep
/// its length with every bit after the slip shifted.
///
/// [`Channel::corrupt`] returns the number of slips applied. Length
/// changes and bit shifts are not XOR deltas, so the channel is
/// content-dependent by construction and rides the eager path.
#[derive(Debug, Clone)]
pub struct StuffingChannel {
    slip_prob: f64,
    rng: rand::rngs::StdRng,
    slips: Vec<(usize, bool)>,
    rebuilt: Vec<u8>,
}

impl StuffingChannel {
    /// Creates a stuffing-slip channel with the given per-stuffing-point
    /// slip probability.
    ///
    /// # Panics
    ///
    /// Panics if `slip_prob` is outside `[0, 1]` or not finite.
    pub fn new(slip_prob: f64) -> StuffingChannel {
        assert!(
            slip_prob.is_finite() && (0.0..=1.0).contains(&slip_prob),
            "slip_prob must be in [0,1]"
        );
        StuffingChannel {
            slip_prob,
            rng: rand::rngs::StdRng::seed_from_u64(0x57FF),
            slips: Vec::new(),
            rebuilt: Vec::new(),
        }
    }

    /// Counts the stuffing points of a frame: positions following each
    /// run of five consecutive 1 bits, LSB-first within bytes. The upper
    /// bound on the slips any single [`Channel::corrupt`] call applies.
    pub fn stuffing_points(frame: &[u8]) -> usize {
        let mut points = 0;
        let mut run = 0u32;
        for i in 0..frame.len() * 8 {
            if frame[i / 8] >> (i % 8) & 1 == 1 {
                run += 1;
                if run == 5 {
                    points += 1;
                    run = 0;
                }
            } else {
                run = 0;
            }
        }
        points
    }
}

impl Channel for StuffingChannel {
    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
        let nbits = frame.len() * 8;
        // Pass 1: decide every slip against the original bit sequence.
        self.slips.clear();
        let mut run = 0u32;
        for i in 0..nbits {
            if frame[i / 8] >> (i % 8) & 1 == 1 {
                run += 1;
                if run == 5 {
                    if self.rng.gen::<f64>() < self.slip_prob {
                        let insert = self.rng.gen::<bool>();
                        // A deletion past the last bit has nothing to
                        // delete; dropping it keeps the contract that a
                        // nonzero return means the frame was modified.
                        if insert || i + 1 < nbits {
                            self.slips.push((i + 1, insert));
                        }
                    }
                    run = 0;
                }
            } else {
                run = 0;
            }
        }
        if self.slips.is_empty() {
            return 0;
        }
        // Pass 2: rebuild the received stream with the slips applied.
        self.rebuilt.clear();
        let mut out_bits = 0usize;
        let mut skip_next = false;
        let mut s = 0usize;
        for i in 0..=nbits {
            if s < self.slips.len() && self.slips[s].0 == i {
                let insert = self.slips[s].1;
                s += 1;
                if insert {
                    // Spurious stuffed zero enters the stream here.
                    if out_bits.is_multiple_of(8) {
                        self.rebuilt.push(0);
                    }
                    out_bits += 1;
                } else {
                    // The bit at this position is swallowed.
                    skip_next = true;
                }
            }
            if i == nbits {
                break;
            }
            if skip_next {
                skip_next = false;
                continue;
            }
            if out_bits.is_multiple_of(8) {
                self.rebuilt.push(0);
            }
            if frame[i / 8] >> (i % 8) & 1 == 1 {
                self.rebuilt[out_bits / 8] |= 1 << (out_bits % 8);
            }
            out_bits += 1;
        }
        // A slip in a shift-invariant tail (e.g. deleting one of many
        // trailing zeros) can rebuild the exact original frame; report
        // those as clean so `corrupt > 0 ⇔ frame modified` stays exact.
        if self.rebuilt == *frame {
            return 0;
        }
        std::mem::swap(frame, &mut self.rebuilt);
        self.slips.len() as u32
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
    }

    fn fork(&self, seed: u64) -> Box<dyn Channel> {
        let mut ch = self.clone();
        ch.reseed(seed);
        Box::new(ch)
    }
}

/// Length errors: frames cut short or extended with any length field left
/// untouched — the DMA glitches and reassembly bugs Stone & Partridge
/// traced behind checksum failures, where the checksum covers a different
/// number of bytes than was sent.
///
/// With probability `p` per frame, either truncates 1..=`max_delta`
/// trailing bytes (never below one byte) or appends 1..=`max_delta`
/// random bytes, 50/50. [`Channel::corrupt`] returns 8× the number of
/// bytes cut or appended.
///
/// The corruption draws no randomness from the frame content, but a
/// length change is not an XOR delta, so the channel must keep
/// [`Channel::content_independent`] `false` and ride the eager path.
#[derive(Debug, Clone)]
pub struct TruncationChannel {
    p: f64,
    max_delta: usize,
    rng: rand::rngs::StdRng,
}

impl TruncationChannel {
    /// Creates a length-error channel hitting each frame with probability
    /// `p`, cutting or extending up to `max_delta` bytes (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `max_delta` is 0.
    pub fn new(p: f64, max_delta: usize) -> TruncationChannel {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "p must be in [0,1]"
        );
        assert!(max_delta >= 1, "max_delta must be at least 1");
        TruncationChannel {
            p,
            max_delta,
            rng: rand::rngs::StdRng::seed_from_u64(0x7255),
        }
    }

    /// Maximum bytes cut or appended per length error.
    pub fn max_delta(&self) -> usize {
        self.max_delta
    }
}

impl Channel for TruncationChannel {
    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
        if frame.is_empty() || self.rng.gen::<f64>() >= self.p {
            return 0;
        }
        let delta = self.rng.gen_range(1..=self.max_delta);
        if self.rng.gen::<bool>() {
            // Cut, but never to an empty frame.
            let cut = delta.min(frame.len() - 1);
            if cut == 0 {
                return 0;
            }
            frame.truncate(frame.len() - cut);
            (cut * 8) as u32
        } else {
            for _ in 0..delta {
                let b: u8 = self.rng.gen();
                frame.push(b);
            }
            (delta * 8) as u32
        }
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
    }

    fn fork(&self, seed: u64) -> Box<dyn Channel> {
        let mut ch = self.clone();
        ch.reseed(seed);
        Box::new(ch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsc_flip_count_tracks_ber() {
        let mut ch = BscChannel::new(0.01);
        ch.reseed(42);
        let mut total = 0u64;
        let trials = 400;
        for _ in 0..trials {
            let mut frame = vec![0u8; 125]; // 1000 bits
            total += ch.corrupt(&mut frame) as u64;
        }
        let mean = total as f64 / trials as f64;
        // Expect ~10 flips/frame; allow generous slack for 400 trials.
        assert!((8.0..12.0).contains(&mean), "mean flips {mean}");
    }

    #[test]
    fn bsc_zero_and_one_extremes() {
        let mut frame = vec![0u8; 16];
        assert_eq!(BscChannel::new(0.0).corrupt(&mut frame), 0);
        assert!(frame.iter().all(|&b| b == 0));
        let mut all = BscChannel::new(1.0);
        let flips = all.corrupt(&mut frame);
        assert_eq!(flips, 128, "BER 1.0 flips every bit");
        assert!(frame.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn bsc_batch_extremes_match_sequential() {
        let mut ch = BscChannel::new(1.0);
        let mut frames = vec![vec![0u8; 16], vec![0u8; 3]];
        let mut flips = Vec::new();
        ch.corrupt_batch(&mut frames, &mut flips);
        assert_eq!(flips, vec![128, 24]);
        assert!(frames.iter().flatten().all(|&b| b == 0xFF));

        let mut zero = BscChannel::new(0.0);
        zero.corrupt_batch(&mut frames, &mut flips);
        assert_eq!(flips, vec![0, 0]);
    }

    #[test]
    fn bsc_batch_flip_count_tracks_ber() {
        let mut ch = BscChannel::new(0.01);
        ch.reseed(42);
        let mut total = 0u64;
        let bursts = 4;
        let mut flips = Vec::new();
        for _ in 0..bursts {
            let mut frames = vec![vec![0u8; 125]; 100]; // 1000 bits each
            ch.corrupt_batch(&mut frames, &mut flips);
            total += flips.iter().map(|&f| f as u64).sum::<u64>();
        }
        let mean = total as f64 / (bursts * 100) as f64;
        assert!((8.0..12.0).contains(&mean), "mean flips {mean}");
    }

    #[test]
    #[should_panic(expected = "BER must be in")]
    fn bsc_rejects_bad_ber() {
        let _ = BscChannel::new(1.5);
    }

    #[test]
    fn bsc_is_reproducible_after_reseed() {
        let mut ch = BscChannel::new(0.05);
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ch.reseed(9);
        ch.corrupt(&mut a);
        ch.reseed(9);
        ch.corrupt(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut proto = BscChannel::new(0.05);
        // Disturb the prototype's RNG: forks must not care.
        let mut junk = vec![0u8; 256];
        proto.corrupt(&mut junk);
        let mut a = proto.fork(123);
        let mut b = BscChannel::new(0.05).fork(123);
        let mut fa = vec![0u8; 64];
        let mut fb = vec![0u8; 64];
        a.corrupt(&mut fa);
        b.corrupt(&mut fb);
        assert_eq!(fa, fb, "fork output is a function of the fork seed only");
    }

    #[test]
    fn ge_fork_resets_markov_state() {
        // Drive the prototype hard so it is almost surely in the bad state,
        // then check a fork reproduces a fresh channel bit-for-bit.
        let mut proto = GilbertElliottChannel::new(0.9, 0.0, 0.0, 1.0);
        let mut junk = vec![0u8; 64];
        proto.corrupt(&mut junk);
        let mut forked = proto.fork(7);
        let mut fresh = GilbertElliottChannel::new(0.9, 0.0, 0.0, 1.0).fork(7);
        let mut fa = vec![0u8; 64];
        let mut fb = vec![0u8; 64];
        forked.corrupt(&mut fa);
        fresh.corrupt(&mut fb);
        assert_eq!(fa, fb);
    }

    #[test]
    fn burst_stays_within_span() {
        let mut ch = BurstChannel::new(32);
        ch.reseed(3);
        for _ in 0..200 {
            let mut frame = vec![0u8; 100];
            let flips = ch.corrupt(&mut frame);
            assert!(flips >= 1);
            // All set bits must fit within a 32-bit window.
            let positions: Vec<usize> = (0..800)
                .filter(|&i| frame[i / 8] >> (i % 8) & 1 == 1)
                .collect();
            let span = positions.last().unwrap() - positions.first().unwrap() + 1;
            assert!(span <= 32, "burst spanned {span} bits");
        }
    }

    #[test]
    fn fixed_weight_flips_exactly_k() {
        let mut ch = FixedWeightChannel::new(5);
        ch.reseed(11);
        for _ in 0..100 {
            let mut frame = vec![0u8; 32];
            assert_eq!(ch.corrupt(&mut frame), 5);
            let ones: u32 = frame.iter().map(|b| b.count_ones()).sum();
            assert_eq!(ones, 5, "exactly k distinct positions flipped");
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn fixed_weight_rejects_short_frames() {
        let mut ch = FixedWeightChannel::new(9);
        let mut frame = vec![0u8; 1];
        ch.corrupt(&mut frame);
    }

    #[test]
    fn gilbert_elliott_is_burstier_than_bsc_at_equal_average() {
        // Same average BER; the GE channel should concentrate errors in
        // fewer frames (higher variance of per-frame flips).
        let frames = 600;
        let frame_len = 250;
        let avg_ber = 1e-3;
        let mut bsc = BscChannel::new(avg_ber);
        bsc.reseed(1);
        // GE: bad state 1% of the time with 100x the error rate.
        let mut ge = GilbertElliottChannel::new(1e-4, 9.9e-3, 0.0, avg_ber * 101.0);
        ge.reseed(1);
        assert!((ge.stationary_bad() - 0.0099).abs() < 1e-3);
        let var = |ch: &mut dyn Channel| {
            let mut counts = Vec::new();
            for _ in 0..frames {
                let mut f = vec![0u8; frame_len];
                counts.push(ch.corrupt(&mut f) as f64);
            }
            let mean = counts.iter().sum::<f64>() / frames as f64;
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / frames as f64
        };
        let v_bsc = var(&mut bsc);
        let v_ge = var(&mut ge);
        assert!(
            v_ge > v_bsc,
            "Gilbert–Elliott variance {v_ge} should exceed BSC variance {v_bsc}"
        );
    }

    #[test]
    fn jammer_strikes_only_sync_bytes() {
        let mut ch = JammerChannel::new(0x7E, 1.0);
        ch.reseed(5);
        let mut frame = vec![0x11, 0x7E, 0x22, 0x7E, 0x7E, 0x33];
        let flips = ch.corrupt(&mut frame);
        assert_eq!(flips, 3, "hit_prob 1.0 strikes every sync byte");
        assert_eq!((frame[0], frame[2], frame[5]), (0x11, 0x22, 0x33));
        for i in [1usize, 3, 4] {
            assert_eq!((frame[i] ^ 0x7E).count_ones(), 1, "one bit per strike");
        }
    }

    #[test]
    fn jammer_without_sync_bytes_is_silent() {
        let mut ch = JammerChannel::hdlc(1.0);
        let mut frame = vec![0x00u8; 64];
        assert_eq!(ch.corrupt(&mut frame), 0);
        assert!(frame.iter().all(|&b| b == 0));
        let mut zero_prob = JammerChannel::hdlc(0.0);
        let mut flags = vec![0x7Eu8; 64];
        assert_eq!(zero_prob.corrupt(&mut flags), 0);
        assert!(flags.iter().all(|&b| b == 0x7E));
    }

    /// The jammer's per-byte loop before the lane scan: the oracle whose
    /// draw order [`JammerChannel::corrupt`] must keep.
    fn jammer_bytewise(
        sync: u8,
        hit_prob: f64,
        rng: &mut rand::rngs::StdRng,
        frame: &mut [u8],
    ) -> u32 {
        let mut flipped = 0;
        for byte in frame.iter_mut() {
            if *byte == sync && rng.gen::<f64>() < hit_prob {
                *byte ^= 1 << rng.gen_range(0..8u32);
                flipped += 1;
            }
        }
        flipped
    }

    #[test]
    fn jammer_lane_scan_matches_bytewise_reference() {
        let mut content = rand::rngs::StdRng::seed_from_u64(0x1A7E);
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for len in (0..=100usize).chain([1518]) {
            // One sync byte alone on a sync-free background, at lane edges.
            for at in [0, 15, 16, 31, 32, 63, len.wrapping_sub(1)] {
                if at < len {
                    let mut lone = vec![0u8; len];
                    lone[at] = 0x7E;
                    frames.push(lone);
                }
            }
            let mut random = vec![0u8; len];
            content.fill(&mut random[..]);
            let dense: Vec<u8> = (0..len)
                .map(|_| if content.gen::<bool>() { 0x7E } else { 0x11 })
                .collect();
            frames.extend([random, dense, vec![0x7E; len]]);
        }
        // The in-lane mask walk: a sync byte at every offset of a word and
        // of a lane, on backgrounds of bytes one borrow or one bit away
        // from it (a borrowing zero-byte test would flag their neighbours).
        for bait in [0x7Fu8, 0xFE, 0x3E, 0x00, 0xFF] {
            for at in 0..2 * JAM_LANE {
                let mut lone = vec![bait; 2 * JAM_LANE + 5];
                lone[at] = 0x7E;
                frames.push(lone);
            }
            // Several sync bytes in one word: every 8-bit pattern, in the
            // second word of the second lane.
            for pattern in 0..=255u8 {
                let mut multi = vec![bait; 2 * JAM_LANE + 5];
                for bit in 0..8 {
                    if pattern >> bit & 1 == 1 {
                        multi[JAM_LANE + 8 + bit] = 0x7E;
                    }
                }
                frames.push(multi);
            }
        }
        for (i, hit_prob) in [0.0, 0.25, 0.7, 1.0].into_iter().enumerate() {
            let seed = 0x5EED + i as u64;
            let mut ch = JammerChannel::hdlc(hit_prob);
            ch.reseed(seed);
            let mut reference = rand::rngs::StdRng::seed_from_u64(seed);
            for frame in &frames {
                let mut lane_scanned = frame.clone();
                let mut bytewise = frame.clone();
                let flips = ch.corrupt(&mut lane_scanned);
                let want = jammer_bytewise(0x7E, hit_prob, &mut reference, &mut bytewise);
                let ctx = format!("len {} hit_prob {hit_prob}", frame.len());
                assert_eq!(lane_scanned, bytewise, "{ctx}");
                assert_eq!(flips, want, "{ctx}");
                assert_eq!(
                    ch.rng.clone().gen::<u64>(),
                    reference.clone().gen::<u64>(),
                    "RNG streams out of step: {ctx}"
                );
            }
        }
    }

    #[test]
    fn stuffing_slip_count_bounded_by_stuffing_points() {
        // 0xFF bytes: a stuffing point every 5 bits.
        let original = vec![0xFFu8; 20];
        assert_eq!(StuffingChannel::stuffing_points(&original), 160 / 5);
        let mut ch = StuffingChannel::new(1.0);
        ch.reseed(3);
        let mut frame = original.clone();
        let slips = ch.corrupt(&mut frame);
        assert!((1..=32).contains(&slips), "slips {slips}");
        assert_ne!(frame, original, "slips must modify the frame");
    }

    #[test]
    fn stuffing_needs_ones_runs() {
        let mut ch = StuffingChannel::new(1.0);
        // No run of five 1s anywhere: 0x55 alternates bits.
        let mut frame = vec![0x55u8; 32];
        assert_eq!(StuffingChannel::stuffing_points(&frame), 0);
        assert_eq!(ch.corrupt(&mut frame), 0);
        assert!(frame.iter().all(|&b| b == 0x55));
        let mut never = StuffingChannel::new(0.0);
        let mut ones = vec![0xFFu8; 32];
        assert_eq!(never.corrupt(&mut ones), 0);
        assert!(ones.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn stuffing_insertion_shifts_the_tail() {
        // One stuffing point (bits 0..=4 are 1s), then a distinctive tail:
        // any slip shifts every later bit by one position.
        let original = vec![0x1F, 0xA5, 0xC3, 0x99];
        assert_eq!(StuffingChannel::stuffing_points(&original), 1);
        let mut ch = StuffingChannel::new(1.0);
        let mut saw_change = 0;
        for seed in 0..20 {
            ch.reseed(seed);
            let mut frame = original.clone();
            if ch.corrupt(&mut frame) > 0 {
                assert_ne!(frame, original);
                saw_change += 1;
            }
        }
        assert_eq!(saw_change, 20, "slip_prob 1.0 always slips here");
    }

    #[test]
    fn truncation_respects_length_bounds() {
        let mut ch = TruncationChannel::new(1.0, 8);
        ch.reseed(9);
        let mut cuts = 0;
        let mut extends = 0;
        for _ in 0..200 {
            let mut frame = vec![0xA5u8; 64];
            let bits = ch.corrupt(&mut frame);
            assert!(bits > 0, "p = 1.0 always corrupts multi-byte frames");
            assert_eq!(bits % 8, 0, "magnitude is whole bytes");
            assert!((56..=72).contains(&frame.len()), "len {}", frame.len());
            if frame.len() < 64 {
                cuts += 1;
                assert!(frame.iter().all(|&b| b == 0xA5), "cut keeps the prefix");
            } else {
                extends += 1;
                assert!(frame[..64].iter().all(|&b| b == 0xA5));
            }
        }
        assert!(cuts > 50 && extends > 50, "{cuts} cuts / {extends} extends");
    }

    #[test]
    fn truncation_never_empties_a_frame() {
        let mut ch = TruncationChannel::new(1.0, 100);
        ch.reseed(1);
        for _ in 0..100 {
            let mut frame = vec![0u8; 3];
            ch.corrupt(&mut frame);
            assert!(!frame.is_empty());
        }
        let mut untouched = TruncationChannel::new(0.0, 4);
        let mut frame = vec![7u8; 10];
        assert_eq!(untouched.corrupt(&mut frame), 0);
        assert_eq!(frame, vec![7u8; 10]);
    }

    #[test]
    fn content_dependent_channels_stay_off_the_delta_path() {
        let channels: [Box<dyn Channel>; 3] = [
            Box::new(JammerChannel::hdlc(0.5)),
            Box::new(StuffingChannel::new(0.1)),
            Box::new(TruncationChannel::new(0.1, 4)),
        ];
        for ch in &channels {
            assert!(!ch.content_independent());
            assert!(!ch.fork(1).content_independent(), "forks keep the flag");
        }
    }
}
