//! Cross-validation of every engine tier against the bit-at-a-time
//! reference — the paper's §4.5 methodology ("comparing answers obtained
//! with simple code to optimized code") applied to the full catalog, a
//! deterministic parameter sweep, and every length through the engines'
//! internal thresholds.

use crckit::{catalog, Crc, CrcParams, Digest, EngineKind};
use gf2poly::SplitMix64;

/// One engine per tier, each pinned through `Crc::try_with_engine`.
fn tiers(params: CrcParams) -> [Crc; 2] {
    EngineKind::ALL.map(|kind| Crc::try_with_engine(params, kind).unwrap())
}

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
        for crc in tiers(params) {
            assert_eq!(
                crc.checksum(&data),
                crc.checksum_bitwise(&data),
                "{} on {}",
                params.name,
                crc.engine()
            );
        }
    }
}

#[test]
fn every_engine_matches_the_published_check_values() {
    for params in catalog::ALL {
        for crc in tiers(params) {
            assert_eq!(
                crc.checksum(b"123456789"),
                params.check,
                "{} on {}",
                params.name,
                crc.engine()
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
                for crc in tiers(params) {
                    for len in 0..=73 {
                        let slice = &data[..len];
                        assert_eq!(
                            crc.checksum(slice),
                            crc.checksum_bitwise(slice),
                            "width {width} poly {poly:#x} refin {refin} refout {refout} \
                             len {len} on {}",
                            crc.engine()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn odd_widths_match_bitwise_at_every_length_through_the_fold_thresholds() {
    // Widths on both sides of every byte and word boundary, both
    // reflections, every length to 300 (the 16-, 64- and 256-byte kernel
    // thresholds with each tail) and frame sizes past them.
    let data = payload(4109, 11);
    let lengths: Vec<usize> = (0..=300)
        .chain([511, 512, 1023, 1500, 1504, 4109])
        .collect();
    for width in [8u32, 9, 13, 16, 17, 24, 31, 32, 33, 40, 63, 64] {
        let mask = u64::MAX >> (64 - width);
        let poly = 0x9E37_79B9_7F4A_7C15 & mask | 1;
        for reflected in [false, true] {
            let params = CrcParams::new("ODD", width, poly)
                .unwrap()
                .reflected(reflected)
                .init(0xC3A5_C85C_97CB_3127 & mask)
                .xorout(mask);
            for crc in tiers(params) {
                for &len in &lengths {
                    let slice = &data[..len];
                    assert_eq!(
                        crc.checksum(slice),
                        crc.checksum_bitwise(slice),
                        "width {width} reflected {reflected} len {len} on {}",
                        crc.engine()
                    );
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
        let tiers = tiers(params);
        for len in [1535, 4096, 4097, 16_383, 65_536] {
            let data = payload(len, len as u64);
            let reference = tiers[0].checksum_bitwise(&data);
            for crc in &tiers {
                assert_eq!(
                    crc.checksum(&data),
                    reference,
                    "{} len {len} on {}",
                    params.name,
                    crc.engine()
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
    for crc in [
        catalog::CRC32_ISO_HDLC,
        catalog::CRC32_BZIP2,
        catalog::CRC64_XZ,
    ]
    .into_iter()
    .flat_map(tiers)
    {
        let params = *crc.params();
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
        assert_eq!(
            digest.finalize(),
            expected,
            "{} on {}",
            params.name,
            crc.engine()
        );
    }
}

#[test]
fn digest_over_random_small_chunkings_equals_one_shot() {
    // Frame-sized messages fed 1 to 40 bytes at a time: most pieces are
    // under the 16-byte fold threshold, so every update enters the short
    // path or a single partial fold with a live incoming state.
    let mut rng = SplitMix64::new(12);
    for params in [
        catalog::CRC32_ISO_HDLC,
        catalog::CRC32_BZIP2,
        catalog::CRC64_XZ,
        catalog::CRC64_ECMA_182,
        catalog::CRC16_ARC,
        catalog::CRC24_OPENPGP,
        catalog::CRC8_SMBUS,
    ] {
        for crc in tiers(params) {
            for len in [0usize, 1, 15, 16, 17, 40, 64, 300, 1500] {
                let data = payload(len, len as u64 + 100);
                let expected = crc.checksum(&data);
                assert_eq!(expected, crc.checksum_bitwise(&data));
                for _ in 0..20 {
                    let mut digest = Digest::new(&crc);
                    let mut fed = 0;
                    while fed < len {
                        let step = (1 + (rng.next_u64() % 40) as usize).min(len - fed);
                        digest.update(&data[fed..fed + step]);
                        fed += step;
                    }
                    assert_eq!(
                        digest.finalize(),
                        expected,
                        "{} len {len} on {}",
                        params.name,
                        crc.engine()
                    );
                }
            }
        }
    }
}
