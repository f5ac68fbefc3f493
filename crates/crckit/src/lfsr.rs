//! Galois LFSR "hardware view" of a CRC.
//!
//! The paper repeatedly refers to generator polynomials as *feedback
//! polynomials* "in reference to the feedback taps of hardware-based shift
//! register implementations", and motivates `0x90022004`/`0x80108400` by
//! their few taps ("may help in creating high-speed combinational logic
//! implementation of CRCs by reducing logic synthesis minterms"). This
//! module models that hardware view: a bit-serial Galois LFSR whose XOR
//! gate count is exactly the tap count.

use crate::GenPoly;

/// A bit-serial Galois linear-feedback shift register for a CRC generator.
///
/// Shifting in the data word followed by `width` zero bits leaves the FCS
/// in the register — the classical hardware CRC circuit.
///
/// ```
/// use crckit::{GaloisLfsr, GenPoly};
///
/// let poly = GenPoly::from_koopman(32, 0x80108400).unwrap();
/// let lfsr = GaloisLfsr::new(poly);
/// // The paper's minimal-tap HD=5 polynomial needs only 3 XOR taps.
/// assert_eq!(lfsr.tap_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct GaloisLfsr {
    poly: GenPoly,
    state: u64,
    steps: u64,
}

impl GaloisLfsr {
    /// Builds an LFSR with an all-zero register.
    pub fn new(poly: GenPoly) -> GaloisLfsr {
        GaloisLfsr {
            poly,
            state: 0,
            steps: 0,
        }
    }

    /// The register width in bits.
    pub fn width(&self) -> u32 {
        self.poly.width()
    }

    /// Current register contents (low `width` bits).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Total bits shifted in since construction or reset.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Number of feedback XOR taps — the paper's hardware-cost metric.
    /// Excludes the implicit `x^width` feedback wire itself.
    pub fn tap_count(&self) -> u32 {
        // Taps below x^width, minus the +1 "tap" which is the feedback
        // wire's own entry point in a Galois register: conventionally the
        // XOR gate count is the number of nonzero middle coefficients.
        self.poly.normal().count_ones() - 1
    }

    /// Resets the register to zero.
    pub fn reset(&mut self) {
        self.state = 0;
        self.steps = 0;
    }

    /// Shifts in one message bit (polynomial-division step).
    pub fn shift_bit(&mut self, bit: bool) {
        let w = self.width();
        let top = (self.state >> (w - 1)) & 1 == 1;
        self.state = (self.state << 1) & self.poly.mask();
        if top ^ bit {
            self.state ^= self.poly.normal();
        }
        self.steps += 1;
    }

    /// Shifts in a byte MSB-first (network bit order).
    pub fn shift_byte(&mut self, byte: u8) {
        for i in (0..8).rev() {
            self.shift_bit(byte >> i & 1 == 1);
        }
    }

    /// Runs the full hardware CRC procedure on a message: shift in all
    /// bytes, then `width` zero bits; returns the FCS left in the register.
    pub fn fcs_of(&mut self, message: &[u8]) -> u64 {
        self.reset();
        for &b in message {
            self.shift_byte(b);
        }
        // Equivalent to multiplying by x^width before division; the
        // register state after the message already includes this in the
        // standard "simple" formulation where each input bit is XORed at
        // the top — so no flush is needed here.
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CrcParams;
    use crate::Crc;

    #[test]
    fn lfsr_matches_pure_crc_engine() {
        // init=0, unreflected, xorout=0 is exactly the LFSR circuit.
        let params = CrcParams::new("PURE32", 32, 0x04C1_1DB7).unwrap();
        let crc = Crc::new(params);
        let poly = GenPoly::from_normal(32, 0x04C1_1DB7).unwrap();
        let mut lfsr = GaloisLfsr::new(poly);
        for msg in [&b""[..], b"a", b"hello world", b"123456789"] {
            assert_eq!(lfsr.fcs_of(msg), crc.checksum(msg), "msg {msg:?}");
        }
    }

    #[test]
    fn paper_tap_counts() {
        // §4.2: 0x90022004 has five nonzero coefficients in its hex
        // representation; 0x80108400 achieves "the minimum possible number
        // of non-zero coefficients" for HD=5 to ~64Kb.
        let taps = |k: u64| GaloisLfsr::new(GenPoly::from_koopman(32, k).unwrap()).tap_count();
        // Normal form of 0x90022004 is 0x20044009: weight 5 ⇒ 4 XOR taps.
        assert_eq!(taps(0x9002_2004), 4);
        // Normal form of 0x80108400 is 0x00210801: weight 4 ⇒ 3 XOR taps.
        assert_eq!(taps(0x8010_8400), 3);
        // The 802.3 polynomial by contrast needs 13.
        assert_eq!(taps(0x8260_8EDB), 13);
    }

    #[test]
    fn step_counting_and_reset() {
        let poly = GenPoly::from_normal(16, 0x1021).unwrap();
        let mut lfsr = GaloisLfsr::new(poly);
        lfsr.shift_byte(0xAB);
        assert_eq!(lfsr.steps(), 8);
        lfsr.shift_bit(true);
        assert_eq!(lfsr.steps(), 9);
        lfsr.reset();
        assert_eq!(lfsr.steps(), 0);
        assert_eq!(lfsr.state(), 0);
    }

    #[test]
    fn single_one_bit_into_zero_register_loads_poly_tail() {
        let poly = GenPoly::from_normal(8, 0x07).unwrap();
        let mut lfsr = GaloisLfsr::new(poly);
        lfsr.shift_bit(true);
        // A single 1 entering an all-zero register XORs in the polynomial.
        assert_eq!(lfsr.state(), 0x07);
    }
}
