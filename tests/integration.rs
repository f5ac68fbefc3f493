//! Cross-crate integration: the full pipeline from polynomial search to
//! framed traffic on a noisy channel.

use koopman_crc::crc_hd::search::exhaustive_search;
use koopman_crc::crc_hd::spectrum;
use koopman_crc::crc_hd::{GenPoly, HdProfile};
use koopman_crc::crckit::{catalog, fcs, Crc, CrcParams};
use koopman_crc::netsim::channel::{BscChannel, BurstChannel};
use koopman_crc::netsim::frame::FrameCodec;
use koopman_crc::netsim::montecarlo::{
    inject_undetectable, run_trials, undetectable_pattern, TrialConfig,
};

/// Search → adopt → frame → verify: find the best 8-bit polynomial for a
/// 16-bit payload, wire it into a CRC engine, and check it on traffic.
#[test]
fn search_to_traffic_pipeline() {
    // 1. Find the best achievable HD at 16 data bits over all 8-bit polys.
    let mut chosen = None;
    for hd in (3..=7).rev() {
        let survivors = exhaustive_search(8, 16, hd).unwrap();
        if let Some(s) = survivors.first() {
            chosen = Some((hd, s.poly));
            break;
        }
    }
    let (hd, poly) = chosen.expect("some polynomial survives HD>=3");
    assert!(hd >= 4, "8-bit CRCs reach HD 4+ at 16 bits");
    // 2. Exhaustive ground truth agrees.
    assert_eq!(spectrum::hd_exhaustive(&poly, 16).unwrap(), hd);

    // 3. Wire into an engine and run framed traffic.
    let params = CrcParams::new("CRC-8/CHOSEN", 8, poly.normal()).unwrap();
    let crc = Crc::try_new(params).unwrap();
    let framed = fcs::append(&crc, b"\xAB\xCD");
    assert!(fcs::verify(&crc, &framed).unwrap());

    // 4. Every (hd-1)-bit corruption of that frame is caught.
    let nbits = framed.len() * 8;
    let flips = (hd - 1) as usize;
    // Walk a deterministic sample of flip combinations.
    let mut tested = 0;
    for a in 0..nbits {
        for b in (a + 1)..nbits.min(a + 7) {
            let mut frame = framed.clone();
            frame[a / 8] ^= 1 << (a % 8);
            frame[b / 8] ^= 1 << (b % 8);
            if flips >= 3 {
                let c = (b + 5) % nbits;
                if c == a || c == b {
                    continue;
                }
                frame[c / 8] ^= 1 << (c % 8);
            }
            assert!(
                !fcs::verify(&crc, &frame).unwrap(),
                "undetected at ({a},{b})"
            );
            tested += 1;
        }
    }
    assert!(tested > 100);
}

/// The profile, the engine, and the simulator must tell one story: below
/// the HD boundary no k-bit error passes; an injected codeword always does.
#[test]
fn profile_engine_simulator_agree() {
    let g = GenPoly::from_koopman(32, 0xBA0DC66B).unwrap();
    let profile = HdProfile::compute(&g, 4_000).unwrap();
    assert_eq!(profile.hd_at(1_000), Some(6));

    // Random traffic with few flips: always detected at this length.
    let codec = FrameCodec::new(catalog::CRC32_MEF); // same polynomial
    let mut ch = BscChannel::new(2e-4); // ~2 flips across ~1 KB frames
    let stats = run_trials(
        &codec,
        &mut ch,
        &TrialConfig {
            payload_len: 125, // 1000 data bits
            trials: 5_000,
            seed: 99,
        },
    );
    assert_eq!(stats.undetected, 0);
    assert!(stats.detected > 500);

    // But a *codeword* injection sails through — the blind spot exists
    // exactly where the algebra says it does.
    let payload = vec![7u8; 125];
    let clean = codec.encode(&payload);
    let pattern = undetectable_pattern(catalog::CRC32_MEF, payload.len(), 5);
    let mut frame = clean.clone();
    inject_undetectable(&mut frame, &pattern);
    assert_ne!(frame, clean);
    assert!(codec.verify(&frame), "codeword injection must be invisible");
}

/// Burst guarantee, end to end, for the paper's recommended polynomial.
#[test]
fn burst_guarantee_end_to_end() {
    let codec = FrameCodec::new(catalog::CRC32_MEF);
    let mut ch = BurstChannel::new(32);
    let stats = run_trials(
        &codec,
        &mut ch,
        &TrialConfig {
            payload_len: 1_514,
            trials: 2_000,
            seed: 5,
        },
    );
    assert_eq!(stats.clean, 0);
    assert_eq!(stats.undetected, 0);
}

/// The umbrella re-exports expose a coherent API surface.
#[test]
fn umbrella_reexports_work_together() {
    let g = koopman_crc::crc_hd::GenPoly::from_koopman(32, 0x82608EDB).unwrap();
    let full = g.to_poly();
    let fac = koopman_crc::gf2poly::factor(full);
    assert!(fac.is_irreducible());
    // One generator type: crc-hd's value drives crckit's hardware view.
    let lfsr = koopman_crc::crckit::GaloisLfsr::new(g);
    assert_eq!(lfsr.tap_count(), 13);
    let crc = koopman_crc::crckit::Crc::new(koopman_crc::crckit::catalog::CRC32_ISO_HDLC);
    assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
}
