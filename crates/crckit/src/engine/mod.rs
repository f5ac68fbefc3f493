//! The pluggable CRC engine.
//!
//! One [`Crc`] value owns what its engine tier runs, and nothing more:
//!
//! | [`EngineKind`] | technique                              | owns | use case |
//! |----------------|----------------------------------------|------|----------|
//! | `Slice16`      | slicing-by-16                          | 32 KiB of tables | CPUs without carryless multiply |
//! | `Clmul`        | carryless-multiply folding (PCLMULQDQ / PMULL, VPCLMULQDQ) and a Barrett reduction | ~0.6 KiB of constants | every length, down to the empty message |
//!
//! [`Crc::new`] picks the tier from the host's CPU flags alone: `Clmul`
//! where the CPU has a carryless multiply, else `Slice16`. Within `Clmul`
//! the kernel follows input length. [`Crc::try_with_engine`] pins a tier
//! for benchmarking and cross-validation against [`Crc::checksum_bitwise`],
//! the one free-standing bit-at-a-time oracle — the paper's §4.5
//! "comparing answers obtained with simple code to optimized code"
//! methodology.
//!
//! Both tiers share one raw-state representation (the slicing state
//! convention), so [`crate::Digest`] streaming picks up the fast paths
//! transparently and either tier can resume the other's state.

use crate::params::CrcParams;
use crate::Result;
use std::fmt;

mod clmul;
mod fold;
mod slice16;

/// Identifies one of the interchangeable computation strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Slicing-by-16: sixteen tables, 16 input bytes per step.
    Slice16,
    /// Carryless-multiply folding (x86_64 `pclmulqdq`, aarch64 `pmull`).
    /// Auto-selection picks it only where the CPU has the instruction;
    /// pinned on a CPU without it (or in a build without the `clmul`
    /// feature) it folds on a bit-identical portable software multiply.
    Clmul,
}

impl EngineKind {
    /// Every engine kind, for iteration in tests and benches.
    pub const ALL: [EngineKind; 2] = [EngineKind::Slice16, EngineKind::Clmul];

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Slice16 => "slice16",
            EngineKind::Clmul => "clmul",
        }
    }

    /// Whether this tier runs on dedicated CPU instructions *on this
    /// host, right now*. Auto-selection picks `Clmul` exactly when this
    /// holds for it; a pinned `Clmul` still computes correctly without
    /// it, on the portable software multiply.
    pub fn is_hardware_accelerated(self) -> bool {
        match self {
            EngineKind::Clmul => clmul::hardware_available(),
            EngineKind::Slice16 => false,
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Picks the default tier from the CPU flags: CLMUL when the CPU has a
/// carryless multiply, else slicing-by-16.
fn select_engine() -> EngineKind {
    if clmul::hardware_available() {
        EngineKind::Clmul
    } else {
        EngineKind::Slice16
    }
}

/// A ready-to-use CRC calculator: the parameters, the raw initial state,
/// and the tables or constants of its engine tier.
///
/// ```
/// use crckit::{Crc, catalog};
/// let crc = Crc::new(catalog::CRC32_ISO_HDLC);
/// assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc {
    params: CrcParams,
    /// `params.init` as a raw state.
    init: u64,
    tier: Tier,
}

/// What each engine tier runs on.
#[derive(Debug, Clone)]
enum Tier {
    Slice16(slice16::Tables),
    Clmul(Box<fold::FoldTable>),
}

impl Crc {
    /// Builds an engine with the fastest tier the host supports.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`CrcParams::validate`] — parameter
    /// sets are almost always compile-time constants, so an `expect` here
    /// beats plumbing a `Result` through every call site. Use
    /// [`Crc::try_new`] for run-time-assembled parameters.
    pub fn new(params: CrcParams) -> Crc {
        Crc::try_new(params).expect("invalid CRC parameters")
    }

    /// Fallible construction for run-time-assembled parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`CrcParams::validate`] errors.
    pub fn try_new(params: CrcParams) -> Result<Crc> {
        Crc::try_with_engine(params, select_engine())
    }

    /// Builds an engine pinned to a specific tier (the auto-selection of
    /// [`Crc::new`] skipped) — for benchmarking and cross-validation.
    ///
    /// # Errors
    ///
    /// Propagates [`CrcParams::validate`] errors.
    pub fn try_with_engine(params: CrcParams, kind: EngineKind) -> Result<Crc> {
        params.validate()?;
        let init = if params.refin {
            reflect(params.init, params.width)
        } else {
            params.init << (64 - params.width)
        };
        let tier = match kind {
            EngineKind::Slice16 => Tier::Slice16(slice16::Tables::new(&params)),
            EngineKind::Clmul => Tier::Clmul(Box::new(fold::FoldTable::new(&params))),
        };
        Ok(Crc { params, init, tier })
    }

    /// The parameters this engine implements.
    pub fn params(&self) -> &CrcParams {
        &self.params
    }

    /// The tier [`Crc::checksum`] runs on.
    pub fn engine(&self) -> EngineKind {
        match self.tier {
            Tier::Slice16(_) => EngineKind::Slice16,
            Tier::Clmul(_) => EngineKind::Clmul,
        }
    }

    /// One-shot CRC of a byte slice.
    pub fn checksum(&self, bytes: &[u8]) -> u64 {
        self.finalize_raw(self.update_raw(self.init, bytes))
    }

    /// CRCs of many independent buffers — the shape of per-frame digest
    /// work in `netsim`-style packet loops.
    ///
    /// Semantically identical to mapping [`Crc::checksum`] over the
    /// buffers; the batch form keeps the engine's working set (tables or
    /// folding constants) hot across messages.
    pub fn checksum_batch(&self, buffers: &[&[u8]]) -> Vec<u64> {
        buffers.iter().map(|bytes| self.checksum(bytes)).collect()
    }

    /// One-shot CRC using an independent bit-at-a-time implementation.
    ///
    /// This deliberately does **not** share the tables or raw-state
    /// plumbing of the tiers: it is the free-standing reference the whole
    /// engine stack is validated against.
    pub fn checksum_bitwise(&self, bytes: &[u8]) -> u64 {
        let p = &self.params;
        let mut state = p.init & p.mask();
        for &byte in bytes {
            let byte = if p.refin { byte.reverse_bits() } else { byte };
            for i in (0..8).rev() {
                let in_bit = (byte >> i) & 1;
                let top = (state >> (p.width - 1)) & 1;
                state = (state << 1) & p.mask();
                if top ^ in_bit as u64 == 1 {
                    state ^= p.poly;
                }
            }
        }
        // refin was handled at input; refout independently reflects the
        // final register value.
        let state = if p.refout {
            reflect(state, p.width)
        } else {
            state
        };
        (state ^ p.xorout) & p.mask()
    }

    // ----- raw-state plumbing shared with `Digest` -----

    /// The raw state [`Crc::checksum`] and [`crate::Digest`] start from.
    #[inline]
    pub(crate) fn init_raw(&self) -> u64 {
        self.init
    }

    /// Advances a raw state over `bytes` on this engine's tier.
    #[inline]
    pub(crate) fn update_raw(&self, state: u64, bytes: &[u8]) -> u64 {
        match &self.tier {
            Tier::Slice16(tables) => tables.update(state, bytes),
            Tier::Clmul(ft) => clmul::update(ft, self.params.refin, state, bytes),
        }
    }

    #[inline]
    pub(crate) fn finalize_raw(&self, state: u64) -> u64 {
        let p = &self.params;
        let reg = if p.refin {
            // State is stored reflected; reg is the reflected register.
            if p.refout {
                state
            } else {
                reflect(state, p.width)
            }
        } else {
            let reg = state >> (64 - p.width);
            if p.refout {
                reflect(reg, p.width)
            } else {
                reg
            }
        };
        (reg ^ p.xorout) & p.mask()
    }
}

/// Reflects the low `width` bits of `v`.
#[inline]
pub(crate) fn reflect(v: u64, width: u32) -> u64 {
    v.reverse_bits() >> (64 - width)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One engine per tier.
    fn tiers(params: CrcParams) -> [Crc; 2] {
        EngineKind::ALL.map(|kind| Crc::try_with_engine(params, kind).unwrap())
    }

    fn engines_agree(params: CrcParams, data: &[u8]) {
        for crc in tiers(params) {
            let kind = crc.engine();
            assert_eq!(
                crc.checksum(data),
                crc.checksum_bitwise(data),
                "{}: {kind} vs bitwise reference (len {})",
                params.name,
                data.len()
            );
        }
    }

    #[test]
    fn engines_agree_across_parameter_space() {
        let data: Vec<u8> = (0u16..1025).map(|i| (i * 37 + 11) as u8).collect();
        for width in [8u32, 16, 24, 32, 48, 64] {
            let poly = match width {
                8 => 0x07,
                16 => 0x1021,
                24 => 0x864CFB,
                32 => 0x04C11DB7,
                48 => 0x4AF5_1E29_8D7C,
                _ => 0x42F0E1EBA9EA3693,
            };
            for refl in [false, true] {
                for init in [0u64, !0u64 >> (64 - width)] {
                    let p = CrcParams::new("T", width, poly)
                        .unwrap()
                        .reflected(refl)
                        .init(init)
                        .xorout(init ^ 0xA5);
                    engines_agree(p, &data);
                    engines_agree(p, b"");
                    engines_agree(p, b"x");
                    engines_agree(p, &data[..7]);
                    engines_agree(p, &data[..8]);
                    engines_agree(p, &data[..9]);
                    engines_agree(p, &data[..64]);
                    engines_agree(p, &data[..127]);
                }
            }
        }
    }

    #[test]
    fn mixed_reflection_modes() {
        // refin != refout exercises the reflection fix-up paths.
        let data = b"The quick brown fox jumps over the lazy dog";
        for (refin, refout) in [(true, false), (false, true)] {
            let p = CrcParams::new("T", 32, 0x04C11DB7)
                .unwrap()
                .refin(refin)
                .refout(refout)
                .init(0xFFFF_FFFF);
            engines_agree(p, data);
        }
    }

    #[test]
    fn pure_mode_is_polynomial_remainder() {
        // init = 0, no reflection, xorout = 0: the CRC is the remainder of
        // message(x)·x^width divided by the generator — check linearity:
        // crc(a ⊕ b) = crc(a) ⊕ crc(b) for equal-length inputs.
        let crc = Crc::new(CrcParams::new("PURE", 32, 0x04C11DB7).unwrap());
        let a = [0x12u8, 0x34, 0x56, 0x78, 0x9A, 0xBC];
        let b = [0xFFu8, 0x00, 0xAA, 0x55, 0x11, 0xEE];
        let xored: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        assert_eq!(crc.checksum(&xored), crc.checksum(&a) ^ crc.checksum(&b));
    }

    #[test]
    fn checksum_of_empty_is_init_transform() {
        // Empty message: register = init, only refout/xorout applied.
        let p = CrcParams::new("T", 32, 0x04C11DB7)
            .unwrap()
            .init(0x1234_5678)
            .xorout(0xFFFF_FFFF);
        let crc = Crc::new(p);
        assert_eq!(crc.checksum(b""), 0x1234_5678 ^ 0xFFFF_FFFF);
    }

    #[test]
    fn try_new_rejects_invalid() {
        let p = CrcParams::new("T", 16, 0x1021).unwrap().init(0xFFFF_FFFF);
        assert!(Crc::try_new(p).is_err());
    }

    #[test]
    fn batch_matches_individual() {
        let crc = Crc::new(crate::catalog::CRC32_ISO_HDLC);
        let bufs: Vec<Vec<u8>> = (0..20usize)
            .map(|i| (0..i * 37).map(|j| (j * 13 + i) as u8).collect())
            .collect();
        let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
        let batch = crc.checksum_batch(&refs);
        for (buf, got) in bufs.iter().zip(&batch) {
            assert_eq!(*got, crc.checksum(buf));
        }
    }

    #[test]
    fn pinned_engine_is_reported() {
        let crc = Crc::try_with_engine(crate::catalog::CRC32_ISCSI, EngineKind::Slice16).unwrap();
        assert_eq!(crc.engine(), EngineKind::Slice16);
        assert_eq!(crc.checksum(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn raw_state_is_interchangeable_between_tiers() {
        // Either tier resumes a state the other produced, mid-message and
        // back again: the contract that makes streamed digests
        // engine-agnostic.
        let data: Vec<u8> = (0..512u32).map(|i| (i * 7 + 1) as u8).collect();
        for params in [
            crate::catalog::CRC64_XZ,
            crate::catalog::CRC32_BZIP2,
            crate::catalog::CRC16_ARC,
            crate::catalog::CRC24_OPENPGP,
        ] {
            let [slice, clmul] = tiers(params);
            let expected = slice.checksum_bitwise(&data);
            for (a, b) in [(3, 200), (15, 16), (64, 300), (200, 511)] {
                for (first, second) in [(&slice, &clmul), (&clmul, &slice)] {
                    let s = first.update_raw(first.init_raw(), &data[..a]);
                    let s = second.update_raw(s, &data[a..b]);
                    let s = first.update_raw(s, &data[b..]);
                    assert_eq!(
                        first.finalize_raw(s),
                        expected,
                        "{} split {a}/{b}, {} first",
                        params.name,
                        first.engine()
                    );
                }
            }
        }
    }

    #[test]
    fn each_tier_owns_only_what_it_runs() {
        for params in crate::catalog::ALL {
            let [slice, clmul] = tiers(params);
            match (&slice.tier, &clmul.tier) {
                (Tier::Slice16(tables), Tier::Clmul(ft)) => {
                    assert_eq!(tables.bytes(), 16 * 256 * 8, "{}", params.name);
                    assert!(std::mem::size_of_val(&**ft) <= 4096, "{}", params.name);
                }
                _ => panic!("{}: tiers not as pinned", params.name),
            }
        }
    }
}
