//! The pluggable CRC engine.
//!
//! One [`Crc`] value owns everything needed to run either engine tier
//! over the same parameter set:
//!
//! | [`EngineKind`] | technique                              | use case |
//! |----------------|----------------------------------------|----------|
//! | `Slice16`      | slicing-by-16, 32 KiB of tables        | CPUs without carryless multiply |
//! | `Clmul`        | carryless-multiply folding (PCLMULQDQ / PMULL, VPCLMULQDQ) | frames from 64 B up; slicing-by-16 below |
//!
//! [`Crc::new`] picks the tier from the host's CPU flags alone: `Clmul`
//! where the CPU has a carryless multiply, else `Slice16`. Within `Clmul`
//! the kernel follows input length. [`Crc::checksum_bitwise`] is the one
//! free-standing bit-at-a-time oracle; [`Crc::checksum_with`] runs a
//! specific tier for benchmarking and cross-validation against it — the
//! paper's §4.5 "comparing answers obtained with simple code to
//! optimized code" methodology.
//!
//! Both tiers share one raw-state representation (the slicing state
//! convention), so [`crate::Digest`] streaming picks up the fast paths
//! transparently and either tier can resume the other's state.

use crate::params::CrcParams;
use crate::Result;
use std::fmt;

mod clmul;
mod fold;

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

/// A ready-to-use CRC calculator with precomputed tables, folding
/// constants and a selected default engine tier.
///
/// ```
/// use crckit::{Crc, catalog};
/// let crc = Crc::new(catalog::CRC32_ISO_HDLC);
/// assert_eq!(crc.checksum(b"123456789"), 0xCBF4_3926);
/// ```
#[derive(Debug, Clone)]
pub struct Crc {
    params: CrcParams,
    /// Slicing tables (16 × 256). For reflected algorithms the state
    /// lives in the low bits of a `u64`; for non-reflected algorithms the
    /// tables are top-aligned in the `u64` so slicing needs no
    /// width-dependent shifts in the inner loop. `tables[0]` doubles as
    /// the byte-at-a-time table of the remainder steps.
    tables: Box<[[u64; 256]; 16]>,
    /// Folding constants for the CLMUL tier, `x^k mod G` walked out of
    /// `tables`.
    fold: fold::FoldTable,
    /// The tier [`Crc::checksum`] and [`crate::Digest`] run on.
    kind: EngineKind,
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
        let mut tables = Box::new([[0u64; 256]; 16]);
        if params.refin {
            let poly_rev = reflect(params.poly, params.width);
            for b in 0..256u64 {
                let mut v = b;
                for _ in 0..8 {
                    v = if v & 1 == 1 {
                        (v >> 1) ^ poly_rev
                    } else {
                        v >> 1
                    };
                }
                tables[0][b as usize] = v;
            }
            for k in 1..16 {
                for b in 0..256usize {
                    let prev = tables[k - 1][b];
                    tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                }
            }
        } else {
            // Top-aligned tables: state bit (width-1) sits at u64 bit 63.
            let poly_top = params.poly << (64 - params.width);
            for b in 0..256u64 {
                let mut v = b << 56;
                for _ in 0..8 {
                    v = if v >> 63 == 1 {
                        (v << 1) ^ poly_top
                    } else {
                        v << 1
                    };
                }
                tables[0][b as usize] = v;
            }
            for k in 1..16 {
                for b in 0..256usize {
                    let prev = tables[k - 1][b];
                    tables[k][b] = (prev << 8) ^ tables[0][(prev >> 56) as usize];
                }
            }
        }
        let mut crc = Crc {
            params,
            tables,
            fold: fold::FoldTable::default(),
            kind,
        };
        crc.fold = fold::FoldTable::derive(&crc);
        Ok(crc)
    }

    /// The parameters this engine implements.
    pub fn params(&self) -> &CrcParams {
        &self.params
    }

    /// The tier [`Crc::checksum`] runs on.
    pub fn engine(&self) -> EngineKind {
        self.kind
    }

    /// One-shot CRC of a byte slice on the selected fastest tier.
    pub fn checksum(&self, bytes: &[u8]) -> u64 {
        self.checksum_with(self.kind, bytes)
    }

    /// One-shot CRC on an explicitly chosen tier. Every tier returns the
    /// identical value; this exists for benchmarking and the §4.5-style
    /// cross-validation the test suite performs.
    pub fn checksum_with(&self, kind: EngineKind, bytes: &[u8]) -> u64 {
        let raw = self.update_with(kind, self.init_raw(), bytes);
        self.finalize_raw(raw)
    }

    /// CRCs of many independent buffers on the selected tier — the shape
    /// of per-frame digest work in `netsim`-style packet loops.
    ///
    /// Semantically identical to mapping [`Crc::checksum`] over the
    /// buffers; the batch form hoists the initial-state computation and
    /// keeps the engine's working set (tables or folding keys) hot
    /// across messages.
    pub fn checksum_batch(&self, buffers: &[&[u8]]) -> Vec<u64> {
        let mut out = Vec::with_capacity(buffers.len());
        let init = self.init_raw();
        for bytes in buffers {
            out.push(self.finalize_raw(self.update_with(self.kind, init, bytes)));
        }
        out
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

    #[inline]
    pub(crate) fn init_raw(&self) -> u64 {
        let p = &self.params;
        if p.refin {
            reflect(p.init & p.mask(), p.width)
        } else {
            (p.init & p.mask()) << (64 - p.width)
        }
    }

    #[inline]
    pub(crate) fn step_byte(&self, state: u64, byte: u8) -> u64 {
        if self.params.refin {
            (state >> 8) ^ self.tables[0][((state ^ byte as u64) & 0xFF) as usize]
        } else {
            (state << 8) ^ self.tables[0][((state >> 56) ^ byte as u64) as usize]
        }
    }

    /// Advances a raw state over `bytes` on the given tier.
    pub(crate) fn update_with(&self, kind: EngineKind, state: u64, bytes: &[u8]) -> u64 {
        match kind {
            // Inputs too short to fold take slicing-by-16 on the CLMUL tier
            // too, through the same call site.
            EngineKind::Slice16 => self.update_slice16_raw(state, bytes),
            EngineKind::Clmul if bytes.len() < clmul::MIN_FOLD => {
                self.update_slice16_raw(state, bytes)
            }
            EngineKind::Clmul => clmul::update(self, &self.fold, state, bytes),
        }
    }

    /// Advances a raw state on the selected default tier — the streaming
    /// entry point [`crate::Digest`] uses, so streamed updates enjoy the
    /// same acceleration as one-shot checksums.
    #[inline]
    pub(crate) fn update_dispatch_raw(&self, state: u64, bytes: &[u8]) -> u64 {
        self.update_with(self.kind, state, bytes)
    }

    /// Slicing-by-8 update: not a tier of its own, but the remainder
    /// engine slicing-by-16 and the accelerated tiers drain through.
    #[inline]
    pub(crate) fn update_raw(&self, mut state: u64, bytes: &[u8]) -> u64 {
        let mut chunks = bytes.chunks_exact(8);
        if self.params.refin {
            for chunk in &mut chunks {
                let x = state ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                state = self.tables[7][(x & 0xFF) as usize]
                    ^ self.tables[6][(x >> 8 & 0xFF) as usize]
                    ^ self.tables[5][(x >> 16 & 0xFF) as usize]
                    ^ self.tables[4][(x >> 24 & 0xFF) as usize]
                    ^ self.tables[3][(x >> 32 & 0xFF) as usize]
                    ^ self.tables[2][(x >> 40 & 0xFF) as usize]
                    ^ self.tables[1][(x >> 48 & 0xFF) as usize]
                    ^ self.tables[0][(x >> 56) as usize];
            }
        } else {
            for chunk in &mut chunks {
                let x = state ^ u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
                state = self.tables[7][(x >> 56) as usize]
                    ^ self.tables[6][(x >> 48 & 0xFF) as usize]
                    ^ self.tables[5][(x >> 40 & 0xFF) as usize]
                    ^ self.tables[4][(x >> 32 & 0xFF) as usize]
                    ^ self.tables[3][(x >> 24 & 0xFF) as usize]
                    ^ self.tables[2][(x >> 16 & 0xFF) as usize]
                    ^ self.tables[1][(x >> 8 & 0xFF) as usize]
                    ^ self.tables[0][(x & 0xFF) as usize];
            }
        }
        for &b in chunks.remainder() {
            state = self.step_byte(state, b);
        }
        state
    }

    /// Slicing-by-16 update: two independent 8-byte lookup chains per
    /// iteration, halving the loop-carried dependency length of slice-8.
    pub(crate) fn update_slice16_raw(&self, mut state: u64, bytes: &[u8]) -> u64 {
        let mut chunks = bytes.chunks_exact(16);
        if self.params.refin {
            for chunk in &mut chunks {
                let x = state ^ u64::from_le_bytes(chunk[..8].try_into().expect("8-byte chunk"));
                let y = u64::from_le_bytes(chunk[8..].try_into().expect("8-byte chunk"));
                state = self.tables[15][(x & 0xFF) as usize]
                    ^ self.tables[14][(x >> 8 & 0xFF) as usize]
                    ^ self.tables[13][(x >> 16 & 0xFF) as usize]
                    ^ self.tables[12][(x >> 24 & 0xFF) as usize]
                    ^ self.tables[11][(x >> 32 & 0xFF) as usize]
                    ^ self.tables[10][(x >> 40 & 0xFF) as usize]
                    ^ self.tables[9][(x >> 48 & 0xFF) as usize]
                    ^ self.tables[8][(x >> 56) as usize]
                    ^ self.tables[7][(y & 0xFF) as usize]
                    ^ self.tables[6][(y >> 8 & 0xFF) as usize]
                    ^ self.tables[5][(y >> 16 & 0xFF) as usize]
                    ^ self.tables[4][(y >> 24 & 0xFF) as usize]
                    ^ self.tables[3][(y >> 32 & 0xFF) as usize]
                    ^ self.tables[2][(y >> 40 & 0xFF) as usize]
                    ^ self.tables[1][(y >> 48 & 0xFF) as usize]
                    ^ self.tables[0][(y >> 56) as usize];
            }
        } else {
            for chunk in &mut chunks {
                let x = state ^ u64::from_be_bytes(chunk[..8].try_into().expect("8-byte chunk"));
                let y = u64::from_be_bytes(chunk[8..].try_into().expect("8-byte chunk"));
                state = self.tables[15][(x >> 56) as usize]
                    ^ self.tables[14][(x >> 48 & 0xFF) as usize]
                    ^ self.tables[13][(x >> 40 & 0xFF) as usize]
                    ^ self.tables[12][(x >> 32 & 0xFF) as usize]
                    ^ self.tables[11][(x >> 24 & 0xFF) as usize]
                    ^ self.tables[10][(x >> 16 & 0xFF) as usize]
                    ^ self.tables[9][(x >> 8 & 0xFF) as usize]
                    ^ self.tables[8][(x & 0xFF) as usize]
                    ^ self.tables[7][(y >> 56) as usize]
                    ^ self.tables[6][(y >> 48 & 0xFF) as usize]
                    ^ self.tables[5][(y >> 40 & 0xFF) as usize]
                    ^ self.tables[4][(y >> 32 & 0xFF) as usize]
                    ^ self.tables[3][(y >> 24 & 0xFF) as usize]
                    ^ self.tables[2][(y >> 16 & 0xFF) as usize]
                    ^ self.tables[1][(y >> 8 & 0xFF) as usize]
                    ^ self.tables[0][(y & 0xFF) as usize];
            }
        }
        self.update_raw(state, chunks.remainder())
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

    fn engines_agree(params: CrcParams, data: &[u8]) {
        let crc = Crc::new(params);
        let reference = crc.checksum_bitwise(data);
        for kind in EngineKind::ALL {
            assert_eq!(
                crc.checksum_with(kind, data),
                reference,
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
        // Any tier can resume a state another tier produced: the contract
        // that makes streamed digests engine-agnostic.
        let crc = Crc::new(crate::catalog::CRC64_XZ);
        let data: Vec<u8> = (0..512u32).map(|i| (i * 7 + 1) as u8).collect();
        let expected = crc.checksum_bitwise(&data);
        for first in EngineKind::ALL {
            for second in EngineKind::ALL {
                let mid = crc.update_with(first, crc.init_raw(), &data[..200]);
                let end = crc.update_with(second, mid, &data[200..]);
                assert_eq!(crc.finalize_raw(end), expected, "{first} then {second}");
            }
        }
    }
}
