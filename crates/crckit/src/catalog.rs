//! Catalog of standard CRC algorithms and the DSN 2002 paper's polynomials.
//!
//! Check values are the CRC of the ASCII bytes `"123456789"`, following the
//! convention of Williams' Rocksoft survey and the CRC RevEng catalogue;
//! [`self_check`] verifies every entry at test time.

use crate::params::CrcParams;

// ---------------------------------------------------------------------
// The eight 32-bit polynomials of the paper, in Koopman notation.
// ---------------------------------------------------------------------

/// IEEE 802.3 (Ethernet) CRC-32 — `{32}`, primitive.
/// HD=4 at the Ethernet MTU; the paper's baseline.
pub const KOOPMAN_IEEE_802_3: u64 = 0x8260_8EDB;
/// Castagnoli's `{1,31}` polynomial — CRC-32C, adopted by iSCSI.
/// HD=6 to 5243 bits, HD=4 far beyond 128 Kbits.
pub const KOOPMAN_CASTAGNOLI_ISCSI: u64 = 0x8F6E_37A0;
/// Koopman's headline `{1,3,28}` polynomial: HD=6 to 16,360 bits and
/// HD=4 to 114,663 bits — the paper's proposed iSCSI improvement.
pub const KOOPMAN_BA0DC66B: u64 = 0xBA0D_C66B;
/// Castagnoli's `{1,1,15,15}` polynomial: HD=6 to 32,736 bits.
pub const KOOPMAN_FA567D89: u64 = 0xFA56_7D89;
/// Koopman's `{1,1,30}` polynomial: HD=6 to 32,738 bits (2014 errata).
pub const KOOPMAN_992C1A4C: u64 = 0x992C_1A4C;
/// `{1,1,30}` with only five feedback taps, HD=6 to almost 32 Kbits.
pub const KOOPMAN_90022004: u64 = 0x9002_2004;
/// Castagnoli's `{32}` polynomial: HD=5 to 65,505 bits.
pub const KOOPMAN_D419CC15: u64 = 0xD419_CC15;
/// `{32}` with the minimum possible taps achieving HD=5 to almost 64 Kbits.
pub const KOOPMAN_80108400: u64 = 0x8010_8400;

/// The misprinted Castagnoli value from \[Castagnoli93\] Table XI
/// (`1F6ACFB13` instead of `1F4ACFB13`): the paper shows it only achieves
/// HD=6 to 382 bits and "should not be used". Kept for the reproduction of
/// that finding.
pub const KOOPMAN_CASTAGNOLI_MISPRINT: u64 = 0xFB56_7D89;

/// All eight paper polynomials as `(koopman, label, factorization class)`.
pub const PAPER_POLYS: [(u64, &str, &str); 8] = [
    (KOOPMAN_IEEE_802_3, "IEEE 802.3", "{32}"),
    (
        KOOPMAN_CASTAGNOLI_ISCSI,
        "Castagnoli iSCSI 0x8F6E37A0",
        "{1,31}",
    ),
    (KOOPMAN_BA0DC66B, "Koopman 0xBA0DC66B", "{1,3,28}"),
    (KOOPMAN_FA567D89, "Castagnoli 0xFA567D89", "{1,1,15,15}"),
    (KOOPMAN_992C1A4C, "Koopman 0x992C1A4C", "{1,1,30}"),
    (KOOPMAN_90022004, "Koopman 0x90022004", "{1,1,30}"),
    (KOOPMAN_D419CC15, "Castagnoli 0xD419CC15", "{32}"),
    (KOOPMAN_80108400, "Koopman 0x80108400", "{32}"),
];

// ---------------------------------------------------------------------
// Standard algorithm parameter sets (CRC RevEng naming).
// ---------------------------------------------------------------------

/// CRC-8 (SMBus PEC): poly 0x07, unreflected.
pub const CRC8_SMBUS: CrcParams = CrcParams {
    name: "CRC-8/SMBUS",
    width: 8,
    poly: 0x07,
    init: 0x00,
    refin: false,
    refout: false,
    xorout: 0x00,
    check: 0xF4,
};

/// CRC-8/MAXIM (Dallas 1-Wire): poly 0x31 reflected.
pub const CRC8_MAXIM: CrcParams = CrcParams {
    name: "CRC-8/MAXIM",
    width: 8,
    poly: 0x31,
    init: 0x00,
    refin: true,
    refout: true,
    xorout: 0x00,
    check: 0xA1,
};

/// CRC-16/ARC (a.k.a. CRC-16/IBM): poly 0x8005 reflected.
pub const CRC16_ARC: CrcParams = CrcParams {
    name: "CRC-16/ARC",
    width: 16,
    poly: 0x8005,
    init: 0x0000,
    refin: true,
    refout: true,
    xorout: 0x0000,
    check: 0xBB3D,
};

/// CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, unreflected.
pub const CRC16_CCITT_FALSE: CrcParams = CrcParams {
    name: "CRC-16/CCITT-FALSE",
    width: 16,
    poly: 0x1021,
    init: 0xFFFF,
    refin: false,
    refout: false,
    xorout: 0x0000,
    check: 0x29B1,
};

/// CRC-16/KERMIT (CCITT reflected).
pub const CRC16_KERMIT: CrcParams = CrcParams {
    name: "CRC-16/KERMIT",
    width: 16,
    poly: 0x1021,
    init: 0x0000,
    refin: true,
    refout: true,
    xorout: 0x0000,
    check: 0x2189,
};

/// CRC-16/XMODEM (CCITT unreflected, zero init).
pub const CRC16_XMODEM: CrcParams = CrcParams {
    name: "CRC-16/XMODEM",
    width: 16,
    poly: 0x1021,
    init: 0x0000,
    refin: false,
    refout: false,
    xorout: 0x0000,
    check: 0x31C3,
};

/// CRC-32/ISO-HDLC — the ubiquitous "CRC-32" of Ethernet, zip, PNG:
/// the 802.3 polynomial with the 802.3 bit conventions.
pub const CRC32_ISO_HDLC: CrcParams = CrcParams {
    name: "CRC-32/ISO-HDLC",
    width: 32,
    poly: 0x04C1_1DB7,
    init: 0xFFFF_FFFF,
    refin: true,
    refout: true,
    xorout: 0xFFFF_FFFF,
    check: 0xCBF4_3926,
};

/// CRC-32/BZIP2: the 802.3 polynomial, unreflected conventions.
pub const CRC32_BZIP2: CrcParams = CrcParams {
    name: "CRC-32/BZIP2",
    width: 32,
    poly: 0x04C1_1DB7,
    init: 0xFFFF_FFFF,
    refin: false,
    refout: false,
    xorout: 0xFFFF_FFFF,
    check: 0xFC89_1918,
};

/// CRC-32/MPEG-2: 802.3 polynomial, no reflection, no output XOR.
pub const CRC32_MPEG2: CrcParams = CrcParams {
    name: "CRC-32/MPEG-2",
    width: 32,
    poly: 0x04C1_1DB7,
    init: 0xFFFF_FFFF,
    refin: false,
    refout: false,
    xorout: 0x0000_0000,
    check: 0x0376_E6E7,
};

/// CRC-32C (iSCSI, SCTP, ext4, NVMe): Castagnoli's `{1,31}` polynomial —
/// the paper's `0x8F6E37A0` with the standard reflected conventions.
pub const CRC32_ISCSI: CrcParams = CrcParams {
    name: "CRC-32/ISCSI",
    width: 32,
    poly: 0x1EDC_6F41,
    init: 0xFFFF_FFFF,
    refin: true,
    refout: true,
    xorout: 0xFFFF_FFFF,
    check: 0xE306_9283,
};

/// CRC-32/MEF: Koopman's `0xBA0DC66B` (normal form 0x741B8CD7) as deployed
/// in the field with reflected conventions — the paper's proposed iSCSI
/// improvement.
pub const CRC32_MEF: CrcParams = CrcParams {
    name: "CRC-32/MEF",
    width: 32,
    poly: 0x741B_8CD7,
    init: 0xFFFF_FFFF,
    refin: true,
    refout: true,
    xorout: 0x0000_0000,
    check: 0xD2C2_2F51,
};

/// CRC-32/BASE91-D ("CRC-32D"): Castagnoli's `0xD419CC15` (normal form
/// 0xA833982B) with reflected conventions.
pub const CRC32_BASE91_D: CrcParams = CrcParams {
    name: "CRC-32/BASE91-D",
    width: 32,
    poly: 0xA833_982B,
    init: 0xFFFF_FFFF,
    refin: true,
    refout: true,
    xorout: 0xFFFF_FFFF,
    check: 0x8731_5576,
};

/// CRC-32/AIXM ("CRC-32Q"): an unreflected 32-bit CRC used in aviation
/// data, included as an unreflected-32 engine exercise.
pub const CRC32_AIXM: CrcParams = CrcParams {
    name: "CRC-32/AIXM",
    width: 32,
    poly: 0x8141_41AB,
    init: 0x0000_0000,
    refin: false,
    refout: false,
    xorout: 0x0000_0000,
    check: 0x3010_BF7F,
};

/// CRC-64/XZ: reflected 64-bit CRC of the xz container format.
pub const CRC64_XZ: CrcParams = CrcParams {
    name: "CRC-64/XZ",
    width: 64,
    poly: 0x42F0_E1EB_A9EA_3693,
    init: 0xFFFF_FFFF_FFFF_FFFF,
    refin: true,
    refout: true,
    xorout: 0xFFFF_FFFF_FFFF_FFFF,
    check: 0x995D_C9BB_DF19_39FA,
};

/// CRC-64/ECMA-182: unreflected 64-bit CRC (DLT tape cartridges).
pub const CRC64_ECMA_182: CrcParams = CrcParams {
    name: "CRC-64/ECMA-182",
    width: 64,
    poly: 0x42F0_E1EB_A9EA_3693,
    init: 0x0000_0000_0000_0000,
    refin: false,
    refout: false,
    xorout: 0x0000_0000_0000_0000,
    check: 0x6C40_DF5F_0B49_7347,
};

/// CRC-8/AUTOSAR: poly 0x2F, init/xorout 0xFF, unreflected.
pub const CRC8_AUTOSAR: CrcParams = CrcParams {
    name: "CRC-8/AUTOSAR",
    width: 8,
    poly: 0x2F,
    init: 0xFF,
    refin: false,
    refout: false,
    xorout: 0xFF,
    check: 0xDF,
};

/// CRC-8/BLUETOOTH: poly 0xA7 reflected.
pub const CRC8_BLUETOOTH: CrcParams = CrcParams {
    name: "CRC-8/BLUETOOTH",
    width: 8,
    poly: 0xA7,
    init: 0x00,
    refin: true,
    refout: true,
    xorout: 0x00,
    check: 0x26,
};

/// CRC-16/MODBUS: the ARC polynomial with all-ones init.
pub const CRC16_MODBUS: CrcParams = CrcParams {
    name: "CRC-16/MODBUS",
    width: 16,
    poly: 0x8005,
    init: 0xFFFF,
    refin: true,
    refout: true,
    xorout: 0x0000,
    check: 0x4B37,
};

/// CRC-16/USB: MODBUS with an output complement.
pub const CRC16_USB: CrcParams = CrcParams {
    name: "CRC-16/USB",
    width: 16,
    poly: 0x8005,
    init: 0xFFFF,
    refin: true,
    refout: true,
    xorout: 0xFFFF,
    check: 0xB4C8,
};

/// CRC-16/GSM: CCITT polynomial, zero init, complemented output.
pub const CRC16_GSM: CrcParams = CrcParams {
    name: "CRC-16/GSM",
    width: 16,
    poly: 0x1021,
    init: 0x0000,
    refin: false,
    refout: false,
    xorout: 0xFFFF,
    check: 0xCE3C,
};

/// CRC-16/DNP (distributed network protocol): poly 0x3D65 reflected,
/// complemented output.
pub const CRC16_DNP: CrcParams = CrcParams {
    name: "CRC-16/DNP",
    width: 16,
    poly: 0x3D65,
    init: 0x0000,
    refin: true,
    refout: true,
    xorout: 0xFFFF,
    check: 0xEA82,
};

/// CRC-24/OPENPGP: the 24-bit CRC of RFC 4880, exercising a non-power-of-
/// two byte width.
pub const CRC24_OPENPGP: CrcParams = CrcParams {
    name: "CRC-24/OPENPGP",
    width: 24,
    poly: 0x86_4CFB,
    init: 0xB7_04CE,
    refin: false,
    refout: false,
    xorout: 0x00_0000,
    check: 0x21_CF02,
};

/// CRC-32/CKSUM (POSIX cksum): 802.3 polynomial, zero init, complemented
/// output, unreflected.
pub const CRC32_CKSUM: CrcParams = CrcParams {
    name: "CRC-32/CKSUM",
    width: 32,
    poly: 0x04C1_1DB7,
    init: 0x0000_0000,
    refin: false,
    refout: false,
    xorout: 0xFFFF_FFFF,
    check: 0x765E_7680,
};

/// CRC-32/JAMCRC: ISO-HDLC without the final complement.
pub const CRC32_JAMCRC: CrcParams = CrcParams {
    name: "CRC-32/JAMCRC",
    width: 32,
    poly: 0x04C1_1DB7,
    init: 0xFFFF_FFFF,
    refin: true,
    refout: true,
    xorout: 0x0000_0000,
    check: 0x340B_C6D9,
};

/// CRC-32/XFER: the sparse 0x000000AF polynomial (weight 5) — a low-tap
/// generator in the spirit of the paper's 0x80108400.
pub const CRC32_XFER: CrcParams = CrcParams {
    name: "CRC-32/XFER",
    width: 32,
    poly: 0x0000_00AF,
    init: 0x0000_0000,
    refin: false,
    refout: false,
    xorout: 0x0000_0000,
    check: 0xBD0B_E338,
};

/// CRC-64/GO-ISO: the sparse ISO 3309 64-bit polynomial as used by Go's
/// `hash/crc64`.
pub const CRC64_GO_ISO: CrcParams = CrcParams {
    name: "CRC-64/GO-ISO",
    width: 64,
    poly: 0x0000_0000_0000_001B,
    init: 0xFFFF_FFFF_FFFF_FFFF,
    refin: true,
    refout: true,
    xorout: 0xFFFF_FFFF_FFFF_FFFF,
    check: 0xB909_56C7_75A4_1001,
};

/// Every catalog entry, for iteration in tests and benches.
pub const ALL: [CrcParams; 26] = [
    CRC8_SMBUS,
    CRC8_MAXIM,
    CRC8_AUTOSAR,
    CRC8_BLUETOOTH,
    CRC16_ARC,
    CRC16_CCITT_FALSE,
    CRC16_KERMIT,
    CRC16_XMODEM,
    CRC16_MODBUS,
    CRC16_USB,
    CRC16_GSM,
    CRC16_DNP,
    CRC24_OPENPGP,
    CRC32_ISO_HDLC,
    CRC32_BZIP2,
    CRC32_MPEG2,
    CRC32_ISCSI,
    CRC32_MEF,
    CRC32_BASE91_D,
    CRC32_AIXM,
    CRC32_CKSUM,
    CRC32_JAMCRC,
    CRC32_XFER,
    CRC64_XZ,
    CRC64_ECMA_182,
    CRC64_GO_ISO,
];

/// Verifies an entry against its published check value.
///
/// Returns the computed CRC of `"123456789"` for diagnostics.
pub fn self_check(params: &CrcParams) -> (bool, u64) {
    let crc = crate::Crc::new(*params);
    let got = crc.checksum(b"123456789");
    (got == params.check, got)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenPoly;

    #[test]
    fn every_catalog_entry_passes_self_check() {
        for params in &ALL {
            let (ok, got) = self_check(params);
            assert!(
                ok,
                "{}: check value mismatch: got {got:#x}, want {:#x}",
                params.name, params.check
            );
        }
    }

    #[test]
    fn paper_polys_map_to_deployed_standards() {
        // 0x8F6E37A0 (Koopman) == CRC-32C == 0x1EDC6F41 (normal).
        let p = GenPoly::from_koopman(32, KOOPMAN_CASTAGNOLI_ISCSI).unwrap();
        assert_eq!(p.normal(), CRC32_ISCSI.poly);
        // 0xBA0DC66B == CRC-32/MEF's 0x741B8CD7.
        let p = GenPoly::from_koopman(32, KOOPMAN_BA0DC66B).unwrap();
        assert_eq!(p.normal(), CRC32_MEF.poly);
        // 0xD419CC15 == CRC-32D's 0xA833982B.
        let p = GenPoly::from_koopman(32, KOOPMAN_D419CC15).unwrap();
        assert_eq!(p.normal(), CRC32_BASE91_D.poly);
        // 802.3 == CRC-32/ISO-HDLC's 0x04C11DB7.
        let p = GenPoly::from_koopman(32, KOOPMAN_IEEE_802_3).unwrap();
        assert_eq!(p.normal(), CRC32_ISO_HDLC.poly);
    }

    #[test]
    fn misprint_differs_from_correct_value_by_one_bit() {
        // §3: "1F6ACFB13 ... should have been 1F4ACFB13, a one-bit
        // difference".
        let diff = KOOPMAN_FA567D89 ^ KOOPMAN_CASTAGNOLI_MISPRINT;
        assert_eq!(diff.count_ones(), 1);
    }

    #[test]
    fn paper_poly_list_is_consistent() {
        for (k, _, _) in PAPER_POLYS {
            let p = GenPoly::from_koopman(32, k).unwrap();
            assert_eq!(p.koopman(), k);
            // All paper polynomials have the +1 term by construction.
            assert!(p.to_poly().has_constant_term());
        }
    }
}
