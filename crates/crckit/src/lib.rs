//! CRC computation engine.
//!
//! This crate is the "downstream user" face of the Koopman DSN 2002
//! reproduction: everything needed to actually *use* the polynomials the
//! paper evaluates — a Rocksoft-parameter model, two engine tiers plus a
//! bit-at-a-time oracle (see below), frame FCS handling, a catalog of
//! standard algorithms with check values, and a Galois-LFSR "hardware
//! view" exposing the feedback tap counts the paper cares about for
//! high-speed implementations. Conversions between the paper's Koopman
//! form and the normal/reversed forms found in standards documents live
//! on [`GenPoly`], re-exported from `gf2poly`.
//!
//! # Quick start
//!
//! ```
//! use crckit::{Crc, catalog};
//!
//! // CRC-32C — the Castagnoli polynomial the iSCSI draft adopted,
//! // 0x8F6E37A0 in the paper's notation.
//! let crc = Crc::new(catalog::CRC32_ISCSI);
//! assert_eq!(crc.checksum(b"123456789"), 0xE306_9283);
//! ```
//!
//! # Engine tiers
//!
//! [`Crc::new`] reads the host's CPU flags at construction and selects
//! one of two interchangeable engine tiers ([`EngineKind`]): `Clmul` where
//! the CPU has a carryless multiply, `Slice16` elsewhere. Both tiers are
//! bit-identical on every parameter set to the free-standing
//! bit-at-a-time oracle [`Crc::checksum_bitwise`], enforced by the §4.5
//! differential test suite. [`Crc::try_with_engine`] pins a tier
//! explicitly; building with `--no-default-features` compiles the
//! intrinsic kernels out entirely. A `Crc` builds and holds only what
//! its tier runs:
//!
//! | engine | technique | working set | ns per call at 40 / 576 / 1514 B / 64 KiB* |
//! |--------|-----------|-------------|-----------------|
//! | [`Crc::checksum_bitwise`] (oracle) | shift register, 1 bit/step | none | 440 / 6,400 / 17,000 / 740,000 |
//! | [`EngineKind::Slice16`]  | slicing-by-16 | 32 KiB of tables | 22 / 310 / 850 / 37,000 |
//! | [`EngineKind::Clmul`]    | PCLMULQDQ/PMULL folding from 16 B; 4×512-bit VPCLMULQDQ from 256 B; Barrett reduction | ~0.6 KiB of constants, no table | 15 / 22 / 34 / 1,060 |
//!
//! \* CRC-32/ISO-HDLC, one core of a 2-core AVX-512 Xeon (the oracle row
//! from an earlier run); regenerate the tier rows with `cargo run
//! --release -p crc-experiments --bin crc_throughput`, which also writes
//! the machine-readable `BENCH_crc_throughput.json` and times
//! construction (`ctor_ns`: ~0.5 µs for a `Clmul` engine, ~4 µs for a
//! `Slice16` one).
//!
//! The CLMUL tier picks its kernel by input length and CPU: under 16
//! bytes the message and state reduce directly, one 128-bit accumulator
//! folds from 16 bytes, four from 64 bytes, and on x86_64 hosts with
//! AVX-512 VPCLMULQDQ and GFNI four 512-bit accumulators from 256 bytes.
//! Every path ends in a Barrett reduction (Gopal et al., Intel, 2009)
//! instead of a table lookup. It derives its folding and Barrett
//! constants from `x^k mod G` at construction, so *every* catalog
//! polynomial — not just the CRC32 variants production libraries
//! hardcode — gets hardware folding, reflected or not, at any width from
//! 8 to 64. On a CPU without carryless multiply auto-selection picks
//! slicing-by-16; a `Clmul` engine pinned there (or built without the
//! `clmul` feature) folds on a bit-identical portable software multiply.

// Unsafe is denied crate-wide and re-allowed in exactly one place: the
// CPU-intrinsic kernels of `engine::clmul`, which are differentially
// validated against the safe portable implementation.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod combine;
pub mod digest;
pub mod engine;
pub mod fcs;
pub mod lfsr;
pub mod params;

pub use digest::Digest;
pub use engine::{Crc, EngineKind};
pub use gf2poly::GenPoly;
pub use lfsr::GaloisLfsr;
pub use params::CrcParams;

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by `crckit` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Width outside the supported 8..=64 range.
    UnsupportedWidth(u32),
    /// A parameter does not fit in the declared width.
    ValueTooWide {
        /// Name of the offending parameter.
        field: &'static str,
        /// The out-of-range value.
        value: u64,
    },
    /// A frame is too short to contain the FCS field.
    FrameTooShort {
        /// Actual frame length in bytes.
        len: usize,
        /// Minimum length required.
        need: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnsupportedWidth(w) => write!(f, "unsupported CRC width {w} (need 8..=64)"),
            Error::ValueTooWide { field, value } => {
                write!(
                    f,
                    "parameter {field} = {value:#x} does not fit the CRC width"
                )
            }
            Error::FrameTooShort { len, need } => {
                write!(
                    f,
                    "frame of {len} bytes is shorter than the {need}-byte minimum"
                )
            }
        }
    }
}

impl StdError for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
