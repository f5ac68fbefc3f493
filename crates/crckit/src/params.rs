//! The Rocksoft™ parameter model describing a concrete CRC algorithm.

use crate::{Error, GenPoly, Result};

/// A complete CRC algorithm specification (Williams' Rocksoft model).
///
/// `width`/`poly` fix the mathematics; `init`, `refin`, `refout` and
/// `xorout` fix the bit-level conventions that differ between standards
/// using the same polynomial (e.g. CRC-32/ISO-HDLC vs CRC-32/BZIP2).
///
/// `poly` is stored in **normal** (MSB-first) notation. Use
/// [`CrcParams::with_koopman_poly`] to build from the paper's notation.
///
/// ```
/// use crckit::CrcParams;
///
/// let params = CrcParams::with_koopman_poly("CRC-32/EXAMPLE", 32, 0x82608EDB)
///     .unwrap()
///     .reflected(true)
///     .init(0xFFFF_FFFF)
///     .xorout(0xFFFF_FFFF);
/// assert_eq!(params.poly, 0x04C1_1DB7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrcParams {
    /// Human-readable algorithm name, e.g. `"CRC-32/ISO-HDLC"`.
    pub name: &'static str,
    /// CRC width in bits (8..=64).
    pub width: u32,
    /// Generator polynomial in normal (MSB-first) notation.
    pub poly: u64,
    /// Initial shift-register value (before reflection).
    pub init: u64,
    /// Reflect each input byte (LSB-first bit order).
    pub refin: bool,
    /// Reflect the final register value before `xorout`.
    pub refout: bool,
    /// Value XORed onto the (possibly reflected) register at the end.
    pub xorout: u64,
    /// CRC of the ASCII bytes `"123456789"` — the catalog self-check.
    pub check: u64,
}

impl CrcParams {
    /// Starts a specification from a polynomial in normal notation, with
    /// `init = 0`, no reflection and `xorout = 0` ("pure" division mode).
    ///
    /// The `check` field is left at 0 and is only meaningful for catalog
    /// entries; [`crate::Crc::new`] ignores it.
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedWidth`] / [`Error::ValueTooWide`] on bad inputs.
    pub fn new(name: &'static str, width: u32, poly: u64) -> Result<CrcParams> {
        if !(8..=64).contains(&width) {
            return Err(Error::UnsupportedWidth(width));
        }
        let params = CrcParams {
            name,
            width,
            poly,
            init: 0,
            refin: false,
            refout: false,
            xorout: 0,
            check: 0,
        };
        if poly & !params.mask() != 0 {
            return Err(Error::ValueTooWide {
                field: "poly",
                value: poly,
            });
        }
        Ok(params)
    }

    /// Starts a specification from a polynomial in the paper's Koopman
    /// notation (implicit `+1` term).
    ///
    /// # Errors
    ///
    /// [`Error::UnsupportedWidth`] / [`Error::ValueTooWide`] on bad inputs.
    pub fn with_koopman_poly(name: &'static str, width: u32, koopman: u64) -> Result<CrcParams> {
        let g = GenPoly::from_koopman(width, koopman).map_err(|e| match e {
            gf2poly::Error::UnsupportedWidth(w) => Error::UnsupportedWidth(w),
            _ => Error::ValueTooWide {
                field: "koopman poly",
                value: koopman,
            },
        })?;
        CrcParams::new(name, width, g.normal())
    }

    /// Sets the initial register value.
    #[must_use]
    pub fn init(mut self, init: u64) -> CrcParams {
        self.init = init;
        self
    }

    /// Sets input and output reflection together (the common case).
    #[must_use]
    pub fn reflected(mut self, reflected: bool) -> CrcParams {
        self.refin = reflected;
        self.refout = reflected;
        self
    }

    /// Sets input reflection only.
    #[must_use]
    pub fn refin(mut self, refin: bool) -> CrcParams {
        self.refin = refin;
        self
    }

    /// Sets output reflection only.
    #[must_use]
    pub fn refout(mut self, refout: bool) -> CrcParams {
        self.refout = refout;
        self
    }

    /// Sets the final XOR value.
    #[must_use]
    pub fn xorout(mut self, xorout: u64) -> CrcParams {
        self.xorout = xorout;
        self
    }

    /// Sets the expected CRC of `"123456789"` (catalog self-check value).
    #[must_use]
    pub fn check(mut self, check: u64) -> CrcParams {
        self.check = check;
        self
    }

    /// Bit mask of the low `width` bits.
    #[inline]
    pub(crate) fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Validates that `init` and `xorout` fit the width.
    ///
    /// # Errors
    ///
    /// [`Error::ValueTooWide`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.init & !self.mask() != 0 {
            return Err(Error::ValueTooWide {
                field: "init",
                value: self.init,
            });
        }
        if self.xorout & !self.mask() != 0 {
            return Err(Error::ValueTooWide {
                field: "xorout",
                value: self.xorout,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let p = CrcParams::new("T", 32, 0x04C1_1DB7)
            .unwrap()
            .init(0xFFFF_FFFF)
            .reflected(true)
            .xorout(0xFFFF_FFFF)
            .check(0xCBF4_3926);
        assert!(p.refin && p.refout);
        assert_eq!(p.check, 0xCBF4_3926);
        p.validate().unwrap();
    }

    #[test]
    fn koopman_constructor_matches_normal() {
        let a = CrcParams::with_koopman_poly("K", 32, 0x8260_8EDB).unwrap();
        let b = CrcParams::new("N", 32, 0x04C1_1DB7).unwrap();
        assert_eq!(a.poly, b.poly);
        // Koopman form must have the top bit set.
        assert!(matches!(
            CrcParams::with_koopman_poly("K", 32, 0x7FFF_FFFF),
            Err(Error::ValueTooWide { .. })
        ));
    }

    #[test]
    fn validation_catches_wide_values() {
        assert_eq!(CrcParams::new("T", 7, 1), Err(Error::UnsupportedWidth(7)));
        assert_eq!(CrcParams::new("T", 65, 1), Err(Error::UnsupportedWidth(65)));
        assert!(matches!(
            CrcParams::new("T", 16, 0x1_0000),
            Err(Error::ValueTooWide { field: "poly", .. })
        ));
        let p = CrcParams::new("T", 16, 0x1021).unwrap().init(0x1_0000);
        assert!(matches!(
            p.validate(),
            Err(Error::ValueTooWide { field: "init", .. })
        ));
        let p = CrcParams::new("T", 16, 0x1021).unwrap().xorout(u64::MAX);
        assert!(matches!(
            p.validate(),
            Err(Error::ValueTooWide {
                field: "xorout",
                ..
            })
        ));
    }
}
