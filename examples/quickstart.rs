//! Quickstart: compute CRCs, inspect a polynomial, and chart its
//! error-detection profile.
//!
//! Run with: `cargo run --release --example quickstart`

use koopman_crc::crc_hd::{GenPoly, HdProfile};
use koopman_crc::crckit::{catalog, Crc, Digest, EngineKind};
use koopman_crc::gf2poly::{factor, order_of_x};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Computing checksums with a standard algorithm ---------------
    // `Crc::new` detects the CPU and picks the fastest engine tier
    // (CLMUL folding on pclmulqdq/pmull hardware).
    let crc32c = Crc::new(catalog::CRC32_ISCSI);
    println!(
        "CRC-32C(\"123456789\") = {:#010X}  [engine tier: {}, hardware: {}]",
        crc32c.checksum(b"123456789"),
        crc32c.engine(),
        crc32c.engine().is_hardware_accelerated(),
    );

    // Streaming over chunks gives the same answer.
    let mut digest = Digest::new(&crc32c);
    digest.update(b"123");
    digest.update(b"456789");
    assert_eq!(digest.finalize(), crc32c.checksum(b"123456789"));

    // Every tier is bit-identical; pin one explicitly (slicing-by-16 is
    // the portable software tier), or batch frames together.
    let frames: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 1514]).collect();
    let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
    let digests = crc32c.checksum_batch(&refs);
    for (frame, digest) in refs.iter().zip(&digests) {
        assert_eq!(*digest, crc32c.checksum_with(EngineKind::Slice16, frame));
    }

    // --- 2. Looking inside a generator polynomial ------------------------
    // The paper's headline polynomial, 0xBA0DC66B (Koopman notation).
    let g = GenPoly::from_koopman(32, 0xBA0DC66B)?;
    let fac = factor(g.to_poly());
    println!("\n0xBA0DC66B = {fac}");
    println!("factorization class: {}", fac.signature());
    println!(
        "order of x: {} (bounds the HD=2 onset)",
        order_of_x(g.to_poly())?
    );

    // --- 3. The error-detection profile ----------------------------------
    // How many independent bit errors are *guaranteed* detected, by
    // message length?
    let profile = HdProfile::compute(&g, 20_000)?;
    println!("\nHD profile of 0xBA0DC66B (data-word bits -> guaranteed detected errors):");
    for band in profile.bands() {
        if let Some(hd) = band.hd {
            println!(
                "  {:>6} ..= {:>6} bits : detects any {} bit flips",
                band.from,
                band.to,
                hd - 1
            );
        } else {
            println!(
                "  {:>6} ..= {:>6} bits : beyond the explored weight range",
                band.from, band.to
            );
        }
    }
    println!(
        "\nAt the Ethernet MTU (12112 bits): HD = {:?} — two bits better than CRC-32C.",
        profile.hd_at(12_112).unwrap()
    );
    Ok(())
}
