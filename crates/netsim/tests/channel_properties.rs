//! Property tests for the channel models: structural guarantees
//! (burst span, fixed weight, fork determinism, stuffing slip bounds,
//! truncation length bounds) and the Gilbert–Elliott chain's stationary
//! occupancy.

use netsim::channel::{
    BscChannel, BurstChannel, Channel, FixedWeightChannel, GilbertElliottChannel, JammerChannel,
    StuffingChannel, TruncationChannel,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Bit positions set in a frame (all-zero before corruption).
fn set_bits(frame: &[u8]) -> Vec<usize> {
    (0..frame.len() * 8)
        .filter(|&i| frame[i / 8] >> (i % 8) & 1 == 1)
        .collect()
}

/// Deterministic random frame content for the content-dependent channels.
fn random_frame(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut frame = vec![0u8; len];
    rng.fill(&mut frame[..]);
    frame
}

/// Deterministic frame content dense in the HDLC flag `0x7E`: each byte is
/// the flag with probability ½, otherwise uniform. Uniform frames hold a
/// flag in only about one byte of 256, so the jammer would rarely strike.
fn sync_dense_frame(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| if rng.gen::<bool>() { 0x7E } else { rng.gen() })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every burst fits inside a `max_span`-bit window — on the per-frame
    /// path and on the batch path.
    #[test]
    fn burst_never_exceeds_max_span(args in (1u32..65, 1usize..200, any::<u64>())) {
        let (max_span, frame_len, seed) = args;
        let mut ch = BurstChannel::new(max_span);
        ch.reseed(seed);
        let mut frames = vec![vec![0u8; frame_len]; 8];
        let mut flips = Vec::new();
        ch.corrupt_batch(&mut frames, &mut flips);
        for (frame, &f) in frames.iter().zip(&flips) {
            let positions = set_bits(frame);
            prop_assert!(f >= 1, "a burst always flips at least one bit");
            prop_assert_eq!(positions.len(), f as usize);
            let span = positions.last().unwrap() - positions.first().unwrap() + 1;
            prop_assert!(
                span as u32 <= max_span,
                "burst spanned {} bits with max_span {}",
                span,
                max_span
            );
        }
    }

    /// The fixed-weight channel flips exactly `k` distinct positions.
    #[test]
    fn fixed_weight_is_exact(args in (1u32..33, 8usize..100, any::<u64>())) {
        let (k, frame_len, seed) = args;
        let mut ch = FixedWeightChannel::new(k);
        ch.reseed(seed);
        let mut frame = vec![0u8; frame_len];
        prop_assert_eq!(ch.corrupt(&mut frame), k);
        prop_assert_eq!(set_bits(&frame).len(), k as usize);
    }

    /// Forks are pure functions of the fork seed: two forks of channels
    /// with different histories corrupt identically.
    #[test]
    fn forks_reproduce_regardless_of_history(seed in any::<u64>()) {
        let channels: [(Box<dyn Channel>, Box<dyn Channel>); 3] = [
            (Box::new(BscChannel::new(0.01)), Box::new(BscChannel::new(0.01))),
            (Box::new(BurstChannel::new(13)), Box::new(BurstChannel::new(13))),
            (
                Box::new(GilbertElliottChannel::new(0.1, 0.1, 0.0, 0.5)),
                Box::new(GilbertElliottChannel::new(0.1, 0.1, 0.0, 0.5)),
            ),
        ];
        for (mut used, fresh) in channels {
            let mut junk = vec![0u8; 512];
            used.corrupt(&mut junk); // advance RNG and channel state
            let mut a = used.fork(seed);
            let mut b = fresh.fork(seed);
            let mut fa = vec![0u8; 256];
            let mut fb = vec![0u8; 256];
            let ca = a.corrupt(&mut fa);
            let cb = b.corrupt(&mut fb);
            prop_assert_eq!(ca, cb);
            prop_assert_eq!(fa, fb);
        }
    }

    /// The default batch path equals the sequential path bit-for-bit for
    /// stateful channels (Gilbert–Elliott keeps its Markov state across
    /// frames either way).
    #[test]
    fn ge_batch_matches_sequential(seed in any::<u64>()) {
        let proto = GilbertElliottChannel::new(0.01, 0.05, 1e-3, 0.3);
        let mut batch_ch = proto.fork(seed);
        let mut seq_ch = proto.fork(seed);
        let mut batch_frames = vec![vec![0u8; 64]; 6];
        let mut seq_frames = batch_frames.clone();
        let mut flips = Vec::new();
        batch_ch.corrupt_batch(&mut batch_frames, &mut flips);
        for (frame, &f) in seq_frames.iter_mut().zip(&flips) {
            prop_assert_eq!(seq_ch.corrupt(frame), f);
        }
        prop_assert_eq!(batch_frames, seq_frames);
    }

    /// Jammer forks are pure functions of the fork seed, regardless of the
    /// prototype's history, on sync-dense frames where the jammer strikes often.
    #[test]
    fn jammer_forks_are_deterministic(args in (any::<u64>(), any::<u64>(), 1usize..300)) {
        let (seed, content_seed, len) = args;
        let mut used = JammerChannel::hdlc(0.7);
        let mut junk = sync_dense_frame(content_seed ^ 1, 512);
        used.corrupt(&mut junk); // advance the prototype's RNG
        let mut a = used.fork(seed);
        let mut b = JammerChannel::hdlc(0.7).fork(seed);
        let mut fa = sync_dense_frame(content_seed, len);
        let mut fb = fa.clone();
        let ca = a.corrupt(&mut fa);
        let cb = b.corrupt(&mut fb);
        prop_assert_eq!(ca, cb);
        prop_assert_eq!(fa, fb);
    }

    /// Stuffing slips are bounded by the frame's stuffing points; slips
    /// modify the frame, and a zero return leaves it untouched.
    #[test]
    fn stuffing_slips_bounded_by_stuffing_points(
        args in (any::<u64>(), any::<u64>(), 1usize..200, 0.0f64..1.0)
    ) {
        let (seed, content_seed, len, slip_prob) = args;
        let original = random_frame(content_seed, len);
        let points = StuffingChannel::stuffing_points(&original) as u32;
        let mut ch = StuffingChannel::new(slip_prob);
        ch.reseed(seed);
        let mut frame = original.clone();
        let slips = ch.corrupt(&mut frame);
        prop_assert!(slips <= points, "slips {} > stuffing points {}", slips, points);
        if slips == 0 {
            prop_assert_eq!(frame, original, "zero slips must leave the frame intact");
        } else {
            prop_assert_ne!(frame, original, "slips must modify the frame");
            // A slip shifts/inserts/deletes single bits: length moves by
            // at most one byte per slip.
            let delta = frame.len().abs_diff(original.len());
            prop_assert!(delta <= slips as usize);
        }
    }

    /// Truncation keeps lengths within [1, len + max_delta] and its
    /// untouched frames exactly intact.
    #[test]
    fn truncation_length_distribution(
        args in (any::<u64>(), 2usize..200, 1usize..32, 0.0f64..1.0)
    ) {
        let (seed, len, max_delta, p) = args;
        let mut ch = TruncationChannel::new(p, max_delta);
        ch.reseed(seed);
        let original = random_frame(seed ^ 0xC0FFEE, len);
        for _ in 0..16 {
            let mut frame = original.clone();
            let bits = ch.corrupt(&mut frame);
            prop_assert!(!frame.is_empty());
            prop_assert!(frame.len() <= len + max_delta);
            prop_assert!(frame.len() >= len.saturating_sub(max_delta).max(1));
            if bits == 0 {
                prop_assert_eq!(&frame, &original);
            } else {
                prop_assert_ne!(frame.len(), len, "length errors change the length");
                prop_assert_eq!(bits as usize, frame.len().abs_diff(len) * 8);
            }
        }
    }

    /// For every content-dependent channel, the default batch path equals
    /// the sequential path bit-for-bit on identical content.
    #[test]
    fn content_dependent_batch_matches_sequential(args in (any::<u64>(), any::<u64>())) {
        let (seed, content_seed) = args;
        let protos: [Box<dyn Channel>; 3] = [
            Box::new(JammerChannel::hdlc(0.6)),
            Box::new(StuffingChannel::new(0.3)),
            Box::new(TruncationChannel::new(0.5, 8)),
        ];
        for proto in &protos {
            let mut batch_ch = proto.fork(seed);
            let mut seq_ch = proto.fork(seed);
            // Uniform and sync-dense frames alternate, so the jammer strikes.
            let mut batch_frames: Vec<Vec<u8>> = (0..6)
                .map(|i| {
                    let content = content_seed.wrapping_add(i);
                    let len = 48 + 17 * i as usize;
                    if i % 2 == 0 {
                        random_frame(content, len)
                    } else {
                        sync_dense_frame(content, len)
                    }
                })
                .collect();
            let mut seq_frames = batch_frames.clone();
            let mut flips = Vec::new();
            batch_ch.corrupt_batch(&mut batch_frames, &mut flips);
            for (frame, &f) in seq_frames.iter_mut().zip(&flips) {
                prop_assert_eq!(seq_ch.corrupt(frame), f);
            }
            prop_assert_eq!(&batch_frames, &seq_frames);
        }
    }
}

proptest! {
    // Occupancy cases simulate 200k bits each; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Empirical bad-state occupancy matches `stationary_bad`. With
    /// `ber_bad = 1` and `ber_good = 0` every bad-state bit flips and no
    /// good-state bit does, so the flip fraction *is* the occupancy.
    #[test]
    fn ge_stationary_bad_matches_occupancy(
        args in (0.01f64..0.5, 0.01f64..0.5, any::<u64>())
    ) {
        let (p_g2b, p_b2g, seed) = args;
        let mut ch = GilbertElliottChannel::new(p_g2b, p_b2g, 0.0, 1.0);
        ch.reseed(seed);
        let nbits = 200_000u64;
        let mut frame = vec![0u8; (nbits / 8) as usize];
        let occupancy = ch.corrupt(&mut frame) as f64 / nbits as f64;
        let pi = ch.stationary_bad();
        // The occupancy estimator's variance is inflated by the chain's
        // autocorrelation: roughly pi*(1-pi) * (2/(p+q)) / n. Allow six
        // sigmas plus slack for the burn-in from the good-state start.
        let sigma = (pi * (1.0 - pi) * (2.0 / (p_g2b + p_b2g)) / nbits as f64).sqrt();
        prop_assert!(
            (occupancy - pi).abs() < 6.0 * sigma + 0.01,
            "occupancy {} vs stationary {} (sigma {})",
            occupancy,
            pi,
            sigma
        );
    }
}
