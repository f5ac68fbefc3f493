//! End-to-end channel simulation: Ethernet-sized frames through memoryless
//! and bursty channels, plus the small-CRC statistical validation of the
//! weight analysis (the measurable analogue of the paper's §2 numbers).
//!
//! Runs on the sharded batch engine: one shard per 1024 frames, one
//! worker per core, bit-identical results at any thread count.
//!
//! Run with: `cargo run --release --example ethernet_monte_carlo`

use koopman_crc::crc_hd::{costmodel, weights, GenPoly};
use koopman_crc::crckit::catalog;
use koopman_crc::netsim::channel::{
    BscChannel, GilbertElliottChannel, JammerChannel, StuffingChannel, TruncationChannel,
};
use koopman_crc::netsim::frame::FrameCodec;
use koopman_crc::netsim::montecarlo::{Simulator, TrialConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Full-size frames through channels -------------------------------
    let sim = Simulator::new(); // sharded, all cores
    let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
    let cfg = TrialConfig {
        payload_len: 1_514, // MTU frame
        trials: 30_000,
        seed: 0xE7E2,
    };
    let s = sim.run(&codec, &BscChannel::new(1e-5), &cfg);
    println!(
        "BSC 1e-5, {} MTU frames: clean {}, detected {}, undetected {}",
        s.total(),
        s.clean,
        s.detected,
        s.undetected
    );
    if let Some((_, hi)) = s.undetected_ci95() {
        println!(
            "  95% Wilson upper bound on the undetected rate: {hi:.2e} \
             (the real rate is ~2^-32 ≈ 2.3e-10 of corruptions)"
        );
    }

    let ge = GilbertElliottChannel::new(1e-5, 1e-2, 1e-8, 1e-3);
    let s = sim.run(&codec, &ge, &cfg);
    println!(
        "Gilbert–Elliott bursty link: clean {}, detected {}, undetected {} \
         (errors cluster; CRC exercised once every ~{} frames — Stone00's regime)",
        s.clean,
        s.detected,
        s.undetected,
        s.total().checked_div(s.detected).unwrap_or(0)
    );
    assert_eq!(s.undetected, 0, "a 32-bit CRC sees ~2^-32 of corruptions");

    // Determinism spot check: the same seed on one worker thread must
    // reproduce the sharded run bit for bit.
    let replay = Simulator::new().threads(1).run(&codec, &ge, &cfg);
    assert_eq!(s, replay, "sharded results are thread-count invariant");
    println!("replayed on 1 thread: identical tallies (sharding is deterministic)");

    // --- Content-dependent corruption: the eager path -------------------
    // Jammed sync bytes, HDLC stuffing slips and length errors all key on
    // frame content or change frame length — no XOR delta can express
    // them, so the engine fills and seals every frame before the channel
    // sees it.
    println!("\nContent-dependent channels (eager path), 30k MTU frames each:");
    for (name, ch) in [
        (
            "jammer (0x7E, 25%)",
            &JammerChannel::hdlc(0.25) as &dyn koopman_crc::netsim::Channel,
        ),
        ("stuffing slips", &StuffingChannel::new(1e-3)),
        ("truncation/extension", &TruncationChannel::new(0.02, 16)),
    ] {
        let s = sim.run(&codec, ch, &cfg);
        println!(
            "  {name:<22} clean {:>6}, detected {:>6}, undetected {}",
            s.clean, s.detected, s.undetected
        );
        assert_eq!(
            s.undetected, 0,
            "32-bit CRCs catch all of these at this scale"
        );
    }

    // --- Statistical validation where the rate IS measurable -------------
    // For CRC-8 the undetected fraction of random k-bit errors is Wk/C(L,k)
    // ≈ 2^-8 — measurable in 10^5 trials. Exactly the paper's reason for
    // validating on 8-bit CRCs first (§4.5).
    println!("\nCRC-8 validation: measured vs predicted undetected fraction of 4-bit errors");
    let g = GenPoly::from_normal(8, 0x07)?;
    let codec8 = FrameCodec::new(catalog::CRC8_SMBUS);
    for payload in [2usize, 4, 8] {
        let n_bits = payload as u32 * 8;
        let l_bits = n_bits + 8;
        let w = weights::weights234(&g, n_bits)?;
        let predicted = w.w4 as f64 / costmodel::error_patterns(l_bits, 4) as f64;
        let s = sim.run_weighted(&codec8, payload, 4, 120_000, 0xCAFE + payload as u64);
        let measured = s.undetected_rate().unwrap_or(0.0);
        let (lo, hi) = s.undetected_ci95().expect("all frames corrupted");
        println!(
            "  {payload}-byte payload: predicted {predicted:.5}, measured {measured:.5} \
             (95% CI [{lo:.5}, {hi:.5}], {} / {})",
            s.undetected,
            s.total()
        );
        let sigma = (predicted * (1.0 - predicted) / s.total() as f64).sqrt();
        assert!(
            (measured - predicted).abs() < 5.0 * sigma + 1e-4,
            "simulation must match the weight analysis"
        );
    }
    println!("\nWeight analysis confirmed by simulation at 8-bit scale; at 32-bit scale");
    println!("the same mathematics gives the paper's 223,059/C(12144,4) ≈ 2^-32.");
    Ok(())
}
