//! Channel and framing simulation for CRC error-detection experiments.
//!
//! The paper's context is Internet data integrity: Ethernet frames, iSCSI
//! PDUs, and Stone & Partridge's observation that corrupted packets reach
//! the CRC far more often than raw bit error rates suggest (§4.4). This
//! crate provides that context as an executable substrate:
//!
//! * [`channel`] — bit-error models: the memoryless binary symmetric
//!   channel, fixed-span burst errors, a two-state Gilbert–Elliott model
//!   for bursty Internet-like links, and a fixed-weight directed-error
//!   channel — plus a **content-dependent suite** (a sync-byte
//!   [`JammerChannel`], HDLC bit-stuffing slips in [`StuffingChannel`],
//!   and [`TruncationChannel`] length errors) whose corruption inspects
//!   frame bytes or changes frame length. All are batch-first
//!   ([`Channel::corrupt_batch`]) and forkable ([`Channel::fork`]) for
//!   the sharded engine.
//! * [`frame`] — Ethernet-like framing and iSCSI-like PDUs (separate
//!   header and data digests) over any `crckit` algorithm, with in-place
//!   sealing and batch verification feeding the CLMUL engine contiguous
//!   work.
//! * [`montecarlo`] — the sharded, batch-driven [`Simulator`] measuring
//!   detected/undetected corruption rates (with Wilson confidence
//!   intervals), plus directed injection of known-undetectable patterns
//!   (multiples of the generator) to exercise the blind spots the paper's
//!   weight analysis predicts.
//! * [`imix`] — mixed-size Internet traffic workloads on the same engine.
//!
//! # The sharded architecture
//!
//! A run of `trials` frames is split into fixed-size shards of
//! [`Simulator::DEFAULT_SHARD_FRAMES`] = 1024 frames (the tail shard may
//! be short). Worker threads — one per core by default — claim shard
//! indices from an atomic counter, so scheduling is dynamic, but the
//! *work* inside shard `i` is a pure function of the configuration. Each
//! shard draws from three disjoint random streams seeded by
//! [`montecarlo::shard_seed`]`(cfg.seed, i, stream)`:
//!
//! * [`montecarlo::STREAM_PLAN`] (0) plans frames: payload lengths and
//!   traffic-class tags;
//! * [`montecarlo::STREAM_CHANNEL`] (1) [`Channel::fork`]s the channel,
//!   which resets all channel state (RNG *and* e.g. the Gilbert–Elliott
//!   Markov state);
//! * [`montecarlo::STREAM_FILL`] (2) fills payload bytes.
//!
//! Tallies merge by exact integer sums ([`TrialStats::merge`]),
//! commutative and associative, so the same seed gives bit-identical
//! [`TrialStats`] at 1 thread or 64. Within a shard, frames are processed
//! in bursts of [`Simulator::DEFAULT_BATCH`] (256): payloads are filled
//! and sealed in place in reused buffers ([`FrameCodec::seal`]),
//! corrupted in one [`Channel::corrupt_batch`] call (the BSC carries its
//! geometric skip across frame boundaries — exact for a memoryless
//! channel and far fewer RNG draws at low BER), and the corrupted subset
//! is verified in one [`FrameCodec::verify_batch`] call.
//!
//! # The two stages of a burst, and when eager vs delta applies
//!
//! Every burst passes through a **produce** stage (plan frame lengths,
//! prepare buffers, run the channel — RNG-bound) and a **consume** stage
//! (compose payloads, batch-verify, tally — CRC-bound), called back to
//! back on the worker that owns the shard. Which stage fills payloads
//! depends on the channel:
//!
//! * [`Channel::content_independent`] channels ride the **delta path**:
//!   produce corrupts all-zero frames, and consume fills/seals/composes
//!   only the corrupted minority (CRC linearity keeps verdicts exact), so
//!   clean frames cost no payload or CRC work at all.
//! * Content-dependent channels ([`JammerChannel`], [`StuffingChannel`],
//!   [`TruncationChannel`]) take the **eager path**: produce fills and
//!   seals real frames before the channel sees them, because their
//!   corruption keys on frame bytes or changes the frame length — which
//!   no XOR delta can express. Debug builds probe channels claiming
//!   content independence and panic on a mis-flagged one.
//!
//! The two paths draw different amounts from the fill stream, but the
//! plan and channel streams are their own, so a content-independent
//! channel tallies bit-identically on either path.
//!
//! # Reproducing a CI simulation run locally
//!
//! CI's `sim-determinism` job runs
//! `cargo run --release -p crc-experiments --bin sim_determinism -- --threads T --out out.json`
//! at `T = 1`, `2` and `4` and requires the JSON files byte-identical.
//! To reproduce any of its scenarios, build a `Simulator` at any thread
//! count (shard and burst sizes are fixed constants) and run it with the
//! seed printed in the JSON; per-shard streams derive from
//! [`montecarlo::shard_seed`] as described above, so even a single shard
//! can be replayed in isolation.
//!
//! # Quick start
//!
//! ```
//! use netsim::channel::BscChannel;
//! use netsim::frame::FrameCodec;
//! use netsim::montecarlo::{Simulator, TrialConfig};
//! use crckit::catalog;
//!
//! let codec = FrameCodec::new(catalog::CRC32_ISCSI);
//! let stats = Simulator::new().run(
//!     &codec,
//!     &BscChannel::new(1e-3),
//!     &TrialConfig { payload_len: 256, trials: 200, seed: 7 },
//! );
//! assert_eq!(stats.total(), 200);
//! // At this BER every corrupted frame is caught (HD >= 4 territory).
//! assert_eq!(stats.undetected, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod frame;
pub mod imix;
pub mod montecarlo;

pub use channel::{
    BscChannel, BurstChannel, Channel, FixedWeightChannel, GilbertElliottChannel, JammerChannel,
    StuffingChannel, TruncationChannel,
};
pub use frame::FrameCodec;
pub use montecarlo::{run_trials, Simulator, TrialConfig, TrialStats};
