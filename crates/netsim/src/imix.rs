//! Internet-mix (IMIX) traffic workloads.
//!
//! The paper grounds its evaluation in the two most frequent Internet
//! message sizes — 40-byte acknowledgments and 576-byte data packets —
//! plus full-MTU frames (§3, Figure 1's marked lengths). This module
//! models that mix explicitly so experiments can report error-detection
//! behavior per packet class instead of a single frame size.
//!
//! Mixed-traffic runs ride the same sharded engine as fixed-size trials:
//! [`Simulator::run_mix`] partitions the run into shards, draws classes
//! and payloads from per-shard RNG streams, and merges per-class tallies
//! with exact sums — deterministic for any worker thread count.

use crate::channel::Channel;
use crate::frame::FrameCodec;
use crate::montecarlo::{Merge, Simulator, TrialStats};
use rand::Rng;

/// One packet class in a traffic mix: payload size and relative weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketClass {
    /// Payload length in bytes (before the FCS).
    pub payload_len: usize,
    /// Relative frequency weight (need not be normalized).
    pub weight: u32,
    /// Human-readable label.
    pub label: &'static str,
}

/// A weighted mix of packet classes.
#[derive(Debug, Clone)]
pub struct TrafficMix {
    classes: Vec<PacketClass>,
    total_weight: u32,
}

impl TrafficMix {
    /// Builds a mix from classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is empty or all weights are zero.
    pub fn new(classes: Vec<PacketClass>) -> TrafficMix {
        assert!(!classes.is_empty(), "mix needs at least one class");
        let total_weight = classes.iter().map(|c| c.weight).sum();
        assert!(total_weight > 0, "mix needs positive total weight");
        TrafficMix {
            classes,
            total_weight,
        }
    }

    /// The classic "simple IMIX": 40-byte, 576-byte and 1500-byte packets
    /// in 7:4:1 proportion — matching the paper's observation that 40-byte
    /// acks and 512+40-byte data packets dominate Internet traffic.
    pub fn simple_imix() -> TrafficMix {
        TrafficMix::new(vec![
            PacketClass {
                payload_len: 40,
                weight: 7,
                label: "40B ack",
            },
            PacketClass {
                payload_len: 576,
                weight: 4,
                label: "576B data",
            },
            PacketClass {
                payload_len: 1500,
                weight: 1,
                label: "1500B MTU",
            },
        ])
    }

    /// The packet classes.
    pub fn classes(&self) -> &[PacketClass] {
        &self.classes
    }

    /// Draws a class index according to the weights.
    fn draw(&self, rng: &mut impl Rng) -> usize {
        let mut ticket = rng.gen_range(0..self.total_weight);
        for (i, c) in self.classes.iter().enumerate() {
            if ticket < c.weight {
                return i;
            }
            ticket -= c.weight;
        }
        self.classes.len() - 1
    }
}

/// Per-class tallies from a mixed-traffic run.
#[derive(Debug, Clone, Default)]
pub struct MixStats {
    /// One tally per packet class, in mix order.
    pub per_class: Vec<(PacketClass, TrialStats)>,
}

impl MixStats {
    /// Aggregate tally across all classes.
    pub fn total(&self) -> TrialStats {
        let mut out = TrialStats::default();
        for (_, s) in &self.per_class {
            out.merge(s);
        }
        out
    }

    /// Accumulates another per-class tally (from another shard of the
    /// same mix) into this one. An empty `MixStats` (the [`Default`])
    /// merges as the identity.
    ///
    /// # Panics
    ///
    /// Panics if both sides are non-empty with different class lists.
    pub fn merge(&mut self, other: &MixStats) {
        if self.per_class.is_empty() {
            self.per_class = other.per_class.clone();
            return;
        }
        if other.per_class.is_empty() {
            return;
        }
        assert_eq!(
            self.per_class.len(),
            other.per_class.len(),
            "cannot merge tallies of different mixes"
        );
        for ((class, stats), (other_class, other_stats)) in
            self.per_class.iter_mut().zip(&other.per_class)
        {
            assert_eq!(
                class, other_class,
                "cannot merge tallies of different mixes"
            );
            stats.merge(other_stats);
        }
    }
}

impl Merge for MixStats {
    fn merge_from(&mut self, other: MixStats) {
        self.merge(&other);
    }
}

impl Simulator {
    /// Pushes mixed-size frames through forks of `channel`, tallying per
    /// class — the sharded, batch-driven form of [`run_mix`].
    pub fn run_mix(
        &self,
        codec: &FrameCodec,
        channel: &dyn Channel,
        mix: &TrafficMix,
        trials: u64,
        seed: u64,
    ) -> MixStats {
        #[cfg(debug_assertions)]
        {
            let longest = mix.classes.iter().map(|c| c.payload_len).max().unwrap_or(0);
            crate::montecarlo::assert_content_flag(channel, seed, longest + codec.overhead());
        }
        // The class index rides the engine's frame tag, so the plan and
        // sink closures need no shared buffer.
        let stats: MixStats = self.run_engine(
            codec,
            channel,
            seed,
            trials,
            || {
                |rng: &mut rand::rngs::StdRng| {
                    let class = mix.draw(rng);
                    (mix.classes[class].payload_len, class)
                }
            },
            |s: &mut MixStats, class, flips, verdict| {
                if s.per_class.is_empty() {
                    s.per_class = mix
                        .classes
                        .iter()
                        .map(|&c| (c, TrialStats::default()))
                        .collect();
                }
                s.per_class[class].1.tally_frame(flips, verdict);
            },
        );
        // A zero-trial run never reached the sink: report empty classes.
        if stats.per_class.is_empty() {
            return MixStats {
                per_class: mix
                    .classes
                    .iter()
                    .map(|&c| (c, TrialStats::default()))
                    .collect(),
            };
        }
        stats
    }
}

/// Pushes `trials` mixed-size frames through a channel, tallying per
/// class. Convenience wrapper over [`Simulator::run_mix`] with default
/// sharding and all available cores; like [`crate::run_trials`], the
/// channel argument is only the fork prototype — its current RNG state
/// is ignored and left untouched.
pub fn run_mix(
    codec: &FrameCodec,
    channel: &mut dyn Channel,
    mix: &TrafficMix,
    trials: u64,
    seed: u64,
) -> MixStats {
    Simulator::new().run_mix(codec, &*channel, mix, trials, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BscChannel, GilbertElliottChannel};
    use crckit::catalog;
    use rand::SeedableRng;

    #[test]
    fn simple_imix_shape() {
        let mix = TrafficMix::simple_imix();
        assert_eq!(mix.classes().len(), 3);
        assert_eq!(mix.total_weight, 12);
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_mix_panics() {
        let _ = TrafficMix::new(vec![]);
    }

    #[test]
    fn draw_respects_weights() {
        let mix = TrafficMix::simple_imix();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut counts = [0u32; 3];
        for _ in 0..12_000 {
            counts[mix.draw(&mut rng)] += 1;
        }
        // Expect roughly 7000 / 4000 / 1000.
        assert!((6500..7500).contains(&counts[0]), "{counts:?}");
        assert!((3500..4500).contains(&counts[1]), "{counts:?}");
        assert!((700..1300).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn mixed_run_tallies_and_detects() {
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let mut ch = BscChannel::new(1e-3);
        let mix = TrafficMix::simple_imix();
        let stats = run_mix(&codec, &mut ch, &mix, 6_000, 77);
        let total = stats.total();
        assert_eq!(total.total(), 6_000);
        assert_eq!(total.undetected, 0);
        // Larger frames are corrupted more often.
        let rate = |s: &TrialStats| s.detected as f64 / s.total().max(1) as f64;
        let ack = rate(&stats.per_class[0].1);
        let mtu = rate(&stats.per_class[2].1);
        assert!(
            mtu > ack,
            "MTU frames must see more corruption ({mtu} vs {ack})"
        );
    }

    #[test]
    fn mix_stats_are_identical_across_thread_counts() {
        let codec = FrameCodec::new(catalog::CRC32_ISCSI);
        let mix = TrafficMix::simple_imix();
        let ch = GilbertElliottChannel::new(1e-4, 1e-2, 1e-7, 1e-2);
        let one = Simulator::new()
            .threads(1)
            .run_mix(&codec, &ch, &mix, 4_000, 5);
        let four = Simulator::new()
            .threads(4)
            .run_mix(&codec, &ch, &mix, 4_000, 5);
        assert_eq!(one.per_class.len(), four.per_class.len());
        for ((ca, sa), (cb, sb)) in one.per_class.iter().zip(&four.per_class) {
            assert_eq!(ca, cb);
            assert_eq!(sa, sb, "per-class divergence for {}", ca.label);
        }
    }

    #[test]
    fn mix_merge_identity_and_sums() {
        let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
        let mix = TrafficMix::simple_imix();
        let ch = BscChannel::new(1e-3);
        let sim = Simulator::new().threads(1);
        let run = sim.run_mix(&codec, &ch, &mix, 2_000, 9);
        let mut acc = MixStats::default();
        acc.merge(&run);
        acc.merge(&run);
        assert_eq!(acc.total().total(), 2 * run.total().total());
    }
}
