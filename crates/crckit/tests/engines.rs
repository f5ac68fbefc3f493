//! Cross-validation of every engine tier against the bit-at-a-time
//! reference — the paper's §4.5 methodology ("comparing answers obtained
//! with simple code to optimized code") applied to the full catalog, a
//! deterministic parameter sweep, and every length through the engines'
//! internal thresholds.

use crckit::{catalog, Crc, CrcParams, Digest, EngineKind};
use gf2poly::SplitMix64;

/// Deterministic pseudo-random payload.
fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| (rng.next_u64() >> 56) as u8).collect()
}

#[test]
fn every_engine_matches_bitwise_on_every_catalog_entry() {
    // 600 bytes crosses several CLMUL block strides and the slicing
    // tiers' 16-byte chunking with a remainder.
    let data = payload(600, 1);
    for params in catalog::ALL {
        let crc = Crc::new(params);
        let reference = crc.checksum_bitwise(&data);
        for kind in EngineKind::ALL {
            assert_eq!(
                crc.checksum_with(kind, &data),
                reference,
                "{} on {kind}",
                params.name
            );
        }
    }
}

#[test]
fn every_engine_matches_the_published_check_values() {
    for params in catalog::ALL {
        let crc = Crc::new(params);
        for kind in EngineKind::ALL {
            assert_eq!(
                crc.checksum_with(kind, b"123456789"),
                params.check,
                "{} on {kind}",
                params.name
            );
        }
    }
}

#[test]
fn clmul_is_hardware_backed_where_the_cpu_allows() {
    // Auto-selection follows the CPU flags alone. On CLMUL-capable hosts
    // this pins the hardware kernel into the differential net; elsewhere,
    // and in builds without the `clmul` feature (the no-CLMUL CI job), it
    // must pick slicing-by-16, not the portable software fold.
    let crc = Crc::new(catalog::CRC32_ISO_HDLC);
    if EngineKind::Clmul.is_hardware_accelerated() {
        assert_eq!(crc.engine(), EngineKind::Clmul);
        let data = payload(65_536, 2);
        assert_eq!(crc.checksum(&data), crc.checksum_bitwise(&data));
    } else {
        assert_eq!(crc.engine(), EngineKind::Slice16);
    }
}

#[test]
fn length_sweep_across_engine_thresholds() {
    // 0..=73 covers: empty, sub-word, word-boundary ±1, the 16-byte CLMUL
    // chunk, the 64-byte CLMUL block, and 64+9 spanning block + chunk +
    // tail. Width/reflection sweep picks up every table alignment.
    let data = payload(74, 3);
    for width in [8u32, 16, 24, 32, 40, 48, 56, 64] {
        // A dense and a sparse generator per width.
        for poly in [0x07u64, 0x03] {
            let poly = if width == 8 {
                poly
            } else {
                (poly << (width - 8)) | 0x5B
            };
            for (refin, refout) in [(false, false), (true, true), (true, false), (false, true)] {
                let mask = if width == 64 {
                    u64::MAX
                } else {
                    (1 << width) - 1
                };
                let params = CrcParams::new("SWEEP", width, poly & mask | 1)
                    .unwrap()
                    .refin(refin)
                    .refout(refout)
                    .init(0xACE1_ACE1_ACE1_ACE1 & mask)
                    .xorout(0x1357_9BDF_0246_8ACE & mask);
                let crc = Crc::new(params);
                for len in 0..=73 {
                    let slice = &data[..len];
                    let reference = crc.checksum_bitwise(slice);
                    for kind in EngineKind::ALL {
                        assert_eq!(
                            crc.checksum_with(kind, slice),
                            reference,
                            "width {width} poly {poly:#x} refin {refin} refout {refout} \
                             len {len} on {kind}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn auto_dispatch_matches_bitwise_at_every_length_to_4096() {
    // Every size crossover of the default tier (the 64-byte fold start,
    // the 256-byte 512-bit loop) lies inside 0..=4096; the explicit ±1 lengths past 4096 pin
    // the 512-bit loop's stride and tail boundaries at larger sizes.
    let data = payload(4096 + 257, 10);
    let lengths = (0..=4096).chain([
        4096 + 63,
        4096 + 64,
        4096 + 65,
        4096 + 255,
        4096 + 256,
        4096 + 257,
    ]);
    let lengths: Vec<usize> = lengths.collect();
    for params in catalog::ALL {
        let crc = Crc::new(params);
        for &len in &lengths {
            let slice = &data[..len];
            assert_eq!(
                crc.checksum(slice),
                crc.checksum_bitwise(slice),
                "{} len {len} on {}",
                params.name,
                crc.engine()
            );
        }
    }
}

#[test]
fn long_buffers_hit_the_bulk_paths() {
    // Long enough that CLMUL runs its 4-accumulator loop many times;
    // lengths ±1 around 64-byte multiples catch block-boundary bugs.
    for params in [
        catalog::CRC32_ISO_HDLC,
        catalog::CRC32_BZIP2,
        catalog::CRC32_ISCSI,
        catalog::CRC64_XZ,
        catalog::CRC64_ECMA_182,
        catalog::CRC16_ARC,
        catalog::CRC24_OPENPGP,
        catalog::CRC8_SMBUS,
    ] {
        let crc = Crc::new(params);
        for len in [1535, 4096, 4097, 16_383, 65_536] {
            let data = payload(len, len as u64);
            let reference = crc.checksum_bitwise(&data);
            for kind in [EngineKind::Slice16, EngineKind::Clmul] {
                assert_eq!(
                    crc.checksum_with(kind, &data),
                    reference,
                    "{} len {len} on {kind}",
                    params.name
                );
            }
        }
    }
}

#[test]
fn streamed_digest_crosses_tier_thresholds() {
    // A Digest fed in odd-sized pieces exercises the accelerated tiers'
    // mid-stream entry (nonzero incoming state) and tail handling.
    let data = payload(10_000, 9);
    for params in [
        catalog::CRC32_ISO_HDLC,
        catalog::CRC32_BZIP2,
        catalog::CRC64_XZ,
    ] {
        let crc = Crc::new(params);
        let expected = crc.checksum_bitwise(&data);
        let mut digest = Digest::new(&crc);
        let mut fed = 0;
        for (i, step) in [1usize, 7, 15, 63, 64, 65, 200, 1000, 3000]
            .iter()
            .cycle()
            .enumerate()
        {
            let step = (*step).min(data.len() - fed);
            digest.update(&data[fed..fed + step]);
            fed += step;
            if fed == data.len() {
                break;
            }
            assert!(i < 1000, "sweep must terminate");
        }
        assert_eq!(digest.finalize(), expected, "{}", params.name);
    }
}
