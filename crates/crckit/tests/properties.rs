//! Property-based tests for the CRC engines.

use crckit::{catalog, fcs, Crc, CrcParams, Digest, EngineKind};
use proptest::prelude::*;

fn arbitrary_params() -> impl Strategy<Value = CrcParams> {
    (
        prop_oneof![Just(8u32), Just(16), Just(24), Just(32), Just(40), Just(64)],
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(width, poly, init, refin, refout, xorout)| {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            // Force an odd polynomial (constant term) as all real CRCs have.
            let poly = (poly & mask) | 1;
            CrcParams::new("PROP", width, poly)
                .expect("masked poly fits")
                .init(init & mask)
                .refin(refin)
                .refout(refout)
                .xorout(xorout & mask)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engines_agree(params in arbitrary_params(), data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let a = Crc::new(params).checksum(&data);
        for kind in EngineKind::ALL {
            let crc = Crc::try_with_engine(params, kind).unwrap();
            prop_assert_eq!(a, crc.checksum_bitwise(&data));
            prop_assert_eq!(a, crc.checksum(&data));
        }
    }

    #[test]
    fn digest_split_equals_one_shot(
        params in arbitrary_params(),
        data in proptest::collection::vec(any::<u8>(), 1..300),
        split_frac in 0.0f64..1.0
    ) {
        let crc = Crc::new(params);
        let split = (data.len() as f64 * split_frac) as usize;
        let mut d = Digest::new(&crc);
        d.update(&data[..split]);
        d.update(&data[split..]);
        prop_assert_eq!(d.finalize(), crc.checksum(&data));
    }

    #[test]
    fn framed_messages_verify(
        params in arbitrary_params(),
        data in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let crc = Crc::new(params);
        let framed = fcs::append(&crc, &data);
        prop_assert!(fcs::verify(&crc, &framed).unwrap());
    }

    #[test]
    fn single_bit_flips_always_detected(
        data in proptest::collection::vec(any::<u8>(), 0..100),
        bit in 0usize..800usize
    ) {
        // HD >= 2 for every CRC: one flipped bit can never go undetected.
        let crc = Crc::new(catalog::CRC32_ISO_HDLC);
        let mut framed = fcs::append(&crc, &data);
        let bit = bit % (framed.len() * 8);
        framed[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(!fcs::verify(&crc, &framed).unwrap());
    }

    #[test]
    fn pure_mode_linearity(
        a in proptest::collection::vec(any::<u8>(), 1..150),
        b_seed in any::<u64>()
    ) {
        // For init=0/xorout=0 algorithms the CRC is GF(2)-linear.
        let params = CrcParams::new("PURE", 32, 0x04C1_1DB7).unwrap();
        let crc = Crc::new(params);
        let mut seed = b_seed;
        let b: Vec<u8> = a.iter().map(|_| {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 56) as u8
        }).collect();
        let xored: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        prop_assert_eq!(crc.checksum(&xored), crc.checksum(&a) ^ crc.checksum(&b));
    }

    #[test]
    fn burst_errors_within_width_detected(
        data in proptest::collection::vec(any::<u8>(), 5..120),
        start_frac in 0.0f64..1.0,
        burst_pattern in 1u32..u32::MAX
    ) {
        // Any nonzero error burst spanning <= 32 bits is detected by a
        // 32-bit CRC — the classical guarantee the paper takes as given.
        let crc = Crc::new(catalog::CRC32_ISCSI);
        let mut framed = fcs::append(&crc, &data);
        let max_start = framed.len() - 4;
        let start = (max_start as f64 * start_frac) as usize;
        let bytes = burst_pattern.to_le_bytes();
        for (i, byte) in bytes.iter().enumerate() {
            framed[start + i] ^= byte;
        }
        prop_assert!(!fcs::verify(&crc, &framed).unwrap());
    }
}
