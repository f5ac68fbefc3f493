//! Polynomial algebra over GF(2) for CRC analysis.
//!
//! This crate is the algebraic substrate for the reproduction of
//! Koopman's DSN 2002 paper *"32-Bit Cyclic Redundancy Codes for Internet
//! Applications"*. The paper reasons about CRC generator polynomials through
//! their algebraic structure: irreducibility, primitivity, multiplicative
//! order (which fixes where 2-bit errors become undetectable), divisibility
//! by `x + 1` (which makes all odd-weight errors detectable), and
//! irreducible-factorization *classes* such as `{1,3,28}`.
//!
//! Everything here is exact, deterministic (randomized factoring uses a
//! seeded, self-contained PRNG), and dependency-free.
//!
//! # Quick start
//!
//! ```
//! use gf2poly::{Poly, factor::factor, order::order_of_x};
//!
//! // The polynomial behind Koopman's 0xBA0DC66B (full 33-bit form).
//! let g = Poly::from_mask(0x1_741B_8CD7);
//! let f = factor(g);
//! assert_eq!(f.signature().to_string(), "{1,3,28}");
//! // The order of x mod g bounds where 2-bit errors become undetectable.
//! assert_eq!(order_of_x(g).unwrap(), 114_695);
//! ```
//!
//! # Representation
//!
//! [`Poly`] packs coefficients into a `u128` bit mask (bit *i* is the
//! coefficient of `x^i`), so degrees up to 127 are supported — enough for
//! CRC generators up to width 64 and all products arising during their
//! factorization. Arithmetic that could exceed that cap returns an error
//! rather than silently truncating.
//!
//! [`GenPoly`] is the validated CRC generator built on it, the one
//! generator type of the workspace: it converts between the paper's
//! Koopman notation and the normal and reversed forms of the standards.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod class;
pub mod factor;
pub mod genpoly;
pub mod int;
pub mod irred;
pub mod modring;
pub mod order;
pub mod poly;
pub mod rng;

pub use class::FactorClass;
pub use factor::{factor, FactorSignature, Factorization};
pub use genpoly::GenPoly;
pub use irred::{count_irreducibles, is_irreducible, is_primitive};
pub use modring::{fold_constants, ModCtx};
pub use order::order_of_x;
pub use poly::Poly;
pub use rng::{wilson, SplitMix64, Z95};

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by `gf2poly` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A result would exceed the supported maximum degree (127).
    DegreeOverflow,
    /// Division or reduction by the zero polynomial.
    DivisionByZero,
    /// The operation requires a nonzero constant term (i.e. `x ∤ f`).
    DivisibleByX,
    /// The operation requires a nonzero polynomial.
    ZeroPolynomial,
    /// A polynomial string could not be parsed.
    Parse(String),
    /// CRC generator width outside the supported 3..=64 range.
    UnsupportedWidth(u32),
    /// A generator value does not fit its width or lacks required bits.
    BadGenerator(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DegreeOverflow => {
                write!(f, "result degree exceeds the supported maximum of 127")
            }
            Error::DivisionByZero => write!(f, "division by the zero polynomial"),
            Error::DivisibleByX => write!(f, "polynomial must have a nonzero constant term"),
            Error::ZeroPolynomial => write!(f, "operation is undefined for the zero polynomial"),
            Error::Parse(s) => write!(f, "invalid polynomial syntax: {s}"),
            Error::UnsupportedWidth(w) => write!(f, "unsupported CRC width {w} (need 3..=64)"),
            Error::BadGenerator(s) => write!(f, "bad generator polynomial: {s}"),
        }
    }
}

impl StdError for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
