//! Cross-validation of the Monte-Carlo engine against the exact weight
//! oracles in `crc-hd` — the repo's own version of the paper's §4.5
//! "simple code" cross-checks.
//!
//! For small generators and lengths the undetected fraction of random
//! weight-`k` errors is known *exactly*: `Wₖ / C(n+r, k)`, with `Wₖ`
//! computed two independent ways (exhaustive spectrum enumeration and the
//! closed-form `weights234` shift decomposition). Driving
//! [`FixedWeightChannel`] through the [`Simulator`] must reproduce that
//! fraction within the Wilson 95% interval — on the XOR-delta fast path,
//! on the eager path (forced via a wrapper channel), and at several
//! thread counts, with the delta and eager tallies bit-identical because
//! CRC linearity makes the verdict independent of payload content.

use crc_hd::{costmodel, distribution, spectrum, weights, GenPoly};
use crckit::catalog;
use netsim::channel::{BscChannel, Channel, FixedWeightChannel};
use netsim::frame::FrameCodec;
use netsim::montecarlo::{Simulator, TrialConfig, TrialStats};

/// Forces a content-independent channel onto the eager path by lying in
/// the conservative direction (claiming content dependence is always
/// safe — the engine just loses the delta shortcut).
struct ForceEager(Box<dyn Channel>);

impl Channel for ForceEager {
    fn corrupt(&mut self, frame: &mut Vec<u8>) -> u32 {
        self.0.corrupt(frame)
    }
    fn reseed(&mut self, seed: u64) {
        self.0.reseed(seed);
    }
    fn fork(&self, seed: u64) -> Box<dyn Channel> {
        Box::new(ForceEager(self.0.fork(seed)))
    }
    fn content_independent(&self) -> bool {
        false
    }
    fn corrupt_batch(&mut self, frames: &mut [Vec<u8>], flips: &mut Vec<u32>) {
        self.0.corrupt_batch(frames, flips);
    }
}

/// The exact undetected fraction of weight-`k` errors for `(width,
/// normal)` at `data_bits`, cross-checked between the two oracles.
fn exact_rate(width: u32, normal: u64, data_bits: u32, k: u32) -> f64 {
    let g = GenPoly::from_normal(width, normal).expect("valid generator");
    let spec = spectrum::spectrum(&g, data_bits).expect("within enumeration cap");
    let w_spec = spec.count(k);
    let w_closed = {
        let w = weights::weights234(&g, data_bits).expect("within order");
        match k {
            2 => w.w2,
            3 => w.w3,
            4 => w.w4,
            _ => unreachable!("oracle comparison covers k in 2..=4"),
        }
    };
    assert_eq!(
        w_spec, w_closed,
        "spectrum and weights234 oracles disagree: {normal:#x} n={data_bits} k={k}"
    );
    // Third oracle: the full weight distribution (MacWilliams transfer)
    // must reproduce the same count from a completely different
    // algorithm — and it extends the cross-check to every weight, not
    // just W₂..W₄ (see `distribution_rate`).
    let w_dist = distribution::distribution(&g, data_bits)
        .expect("within budget")
        .count_u128(k)
        .expect("fits u128 at these lengths");
    assert_eq!(
        w_spec, w_dist,
        "spectrum and distribution oracles disagree: {normal:#x} n={data_bits} k={k}"
    );
    let codeword_bits = data_bits + width;
    w_spec as f64 / costmodel::error_patterns(codeword_bits, k) as f64
}

/// The exact undetected fraction of weight-`k` errors from the full
/// weight distribution alone — the oracle for weights the `weights234`
/// closed form cannot reach (`k ≥ 5`), pinned against the exhaustive
/// spectrum where that is available.
fn distribution_rate(width: u32, normal: u64, data_bits: u32, k: u32) -> f64 {
    let g = GenPoly::from_normal(width, normal).expect("valid generator");
    let dist = distribution::distribution(&g, data_bits).expect("within budget");
    let w_k = dist.count_u128(k).expect("fits u128 at these lengths");
    let spec = spectrum::spectrum(&g, data_bits).expect("within enumeration cap");
    assert_eq!(
        w_k,
        spec.count(k),
        "distribution disagrees with exhaustive spectrum: {normal:#x} n={data_bits} k={k}"
    );
    w_k as f64 / costmodel::error_patterns(data_bits + width, k) as f64
}

/// Runs weighted trials and checks the measurement against the oracle.
fn check_against_oracle(
    codec: &FrameCodec,
    width: u32,
    normal: u64,
    payload_bytes: usize,
    k: u32,
    trials: u64,
    seed: u64,
) -> TrialStats {
    let predicted = exact_rate(width, normal, payload_bytes as u32 * 8, k);
    check_predicted(codec, normal, payload_bytes, k, trials, seed, predicted)
}

/// Runs weighted trials against an already-computed exact rate.
fn check_predicted(
    codec: &FrameCodec,
    normal: u64,
    payload_bytes: usize,
    k: u32,
    trials: u64,
    seed: u64,
    predicted: f64,
) -> TrialStats {
    let sim = Simulator::new();
    let stats = sim.run_weighted(codec, payload_bytes, k, trials, seed);
    assert_eq!(
        stats.corrupted(),
        stats.total(),
        "a fixed-weight channel corrupts every frame"
    );
    if predicted == 0.0 {
        // The oracle says these patterns are all detectable; the
        // simulator must agree exactly, not just statistically.
        assert_eq!(
            stats.undetected, 0,
            "{normal:#x} k={k}: oracle predicts zero undetected"
        );
    } else {
        let (lo, hi) = stats.undetected_ci95().expect("corrupted frames exist");
        assert!(
            (lo..=hi).contains(&predicted),
            "{normal:#x} payload={payload_bytes}B k={k}: exact rate {predicted:.6} \
             outside Wilson 95% [{lo:.6}, {hi:.6}] ({}/{} undetected)",
            stats.undetected,
            stats.total()
        );
    }
    stats
}

#[test]
fn crc8_weighted_trials_match_exact_oracles() {
    // CRC-8/0x07 (SMBus): divisible by x+1, so every odd-weight pattern
    // is detected (W3 = 0) while W4 gives a measurable ~2⁻⁸-scale rate —
    // the paper's reason for validating at 8-bit scale first.
    let codec = FrameCodec::new(catalog::CRC8_SMBUS);
    for (payload_bytes, k, seed) in [(2usize, 4u32, 0x0AC1), (3, 4, 0x0AC2), (2, 3, 0x0AC3)] {
        check_against_oracle(&codec, 8, 0x07, payload_bytes, k, 60_000, seed as u64);
    }
}

#[test]
fn crc8_high_weight_trials_match_the_distribution_oracle() {
    // Weights the closed-form oracle cannot reach: 0x07 is divisible by
    // x+1, so W₅ = 0 (odd weight) and the simulator must measure *zero*
    // undetected weight-5 patterns; W₆ > 0 gives a measurable rate only
    // the full distribution predicts.
    let codec = FrameCodec::new(catalog::CRC8_SMBUS);
    let zero = distribution_rate(8, 0x07, 16, 5);
    assert_eq!(zero, 0.0, "x+1 divisibility kills every odd weight");
    check_predicted(&codec, 0x07, 2, 5, 60_000, 0x0AC6, zero);
    let w6_rate = distribution_rate(8, 0x07, 16, 6);
    assert!(w6_rate > 0.0, "weight-6 rate must be measurable");
    check_predicted(&codec, 0x07, 2, 6, 60_000, 0x0AC7, w6_rate);
}

#[test]
fn crc16_weighted_trials_match_exact_oracles() {
    let codec = FrameCodec::new(catalog::CRC16_ARC);
    check_against_oracle(&codec, 16, 0x8005, 2, 4, 80_000, 0x0AC4);
}

#[test]
fn delta_and_eager_paths_tally_bit_identically() {
    // For a content-independent channel the verdict of `verify(frame ⊕ δ)`
    // depends only on δ (CRC linearity), so forcing the eager path must
    // reproduce the delta path's tally exactly — same channel stream,
    // same verdicts, same integers.
    let codec8 = FrameCodec::new(catalog::CRC8_SMBUS);
    let weighted = FixedWeightChannel::new(4);
    let eager_weighted = ForceEager(Box::new(FixedWeightChannel::new(4)));
    let cfg = TrialConfig {
        payload_len: 2,
        trials: 60_000,
        seed: 0x0AC1,
    };
    let sim = Simulator::new();
    let delta = sim.run(&codec8, &weighted, &cfg);
    let eager = sim.run(&codec8, &eager_weighted, &cfg);
    assert_eq!(delta, eager, "delta vs eager divergence (fixed weight)");
    assert!(
        delta.undetected > 0,
        "rate must be measurable at CRC-8 scale"
    );

    // Same property for a channel with clean frames in the mix: clean
    // tallies and the per-burst verdict order must also agree.
    let codec32 = FrameCodec::new(catalog::CRC32_ISO_HDLC);
    let bsc = BscChannel::new(2e-4);
    let eager_bsc = ForceEager(Box::new(BscChannel::new(2e-4)));
    let cfg32 = TrialConfig {
        payload_len: 640,
        trials: 20_000,
        seed: 0x0AC5,
    };
    let delta32 = sim.run(&codec32, &bsc, &cfg32);
    let eager32 = sim.run(&codec32, &eager_bsc, &cfg32);
    assert_eq!(delta32, eager32, "delta vs eager divergence (BSC)");
    assert!(delta32.clean > 0 && delta32.detected > 0);
}

#[test]
fn oracle_run_is_bit_identical_across_thread_counts() {
    let codec = FrameCodec::new(catalog::CRC8_SMBUS);
    let one = Simulator::new()
        .threads(1)
        .run_weighted(&codec, 2, 4, 60_000, 0x0AC1);
    for threads in [2usize, 4] {
        let many = Simulator::new()
            .threads(threads)
            .run_weighted(&codec, 2, 4, 60_000, 0x0AC1);
        assert_eq!(one, many, "{threads}-thread run diverged");
    }
    // And the tally satisfies the oracle bound.
    let predicted = exact_rate(8, 0x07, 16, 4);
    let (lo, hi) = one.undetected_ci95().expect("all frames corrupted");
    assert!((lo..=hi).contains(&predicted));
}
