//! Syndrome sequences: `r(i) = x^i mod G`, the algebraic backbone of every
//! weight computation.
//!
//! A bit pattern `x^{i₁} + … + x^{iₖ}` is a codeword (an undetectable
//! error) exactly when its syndromes XOR to zero. All searches in this
//! crate therefore reduce to subset-XOR questions over the sequence
//! `r(0), r(1), r(2), …`, which this module generates at one shift/XOR per
//! step.

use gf2poly::GenPoly;

/// An iterator-style generator of the syndrome sequence `x^i mod G`.
///
/// ```
/// use crc_hd::{syndrome::SyndromeSeq, GenPoly};
/// let g = GenPoly::from_normal(8, 0x07).unwrap(); // x^8 + x^2 + x + 1
/// let syn: Vec<u64> = SyndromeSeq::new(&g).take(10).collect();
/// assert_eq!(syn[0], 1);          // x^0
/// assert_eq!(syn[7], 0x80);       // x^7
/// assert_eq!(syn[8], 0x07);       // x^8 ≡ x^2 + x + 1
/// ```
#[derive(Debug, Clone)]
pub struct SyndromeSeq {
    state: u64,
    poly: u64,
    top: u64,
    mask: u64,
}

impl SyndromeSeq {
    /// Starts the sequence at `r(0) = 1`.
    pub fn new(g: &GenPoly) -> SyndromeSeq {
        SyndromeSeq {
            state: 1,
            poly: g.normal(),
            top: 1u64 << (g.width() - 1),
            mask: g.mask(),
        }
    }

    /// The current value without advancing.
    #[inline]
    pub fn peek(&self) -> u64 {
        self.state
    }

    /// Advances one step (multiply by `x` mod `G`) and returns the *new*
    /// value.
    #[inline]
    pub fn step(&mut self) -> u64 {
        let feedback = self.state & self.top != 0;
        self.state = (self.state << 1) & self.mask;
        if feedback {
            self.state ^= self.poly;
        }
        self.state
    }

    /// Grows `table` so that `table[k] = r(k)` exists for all `k ≤ upto`,
    /// stepping this generator forward as needed. Requires the invariant
    /// every incremental consumer maintains: `self.peek()` is the value at
    /// position `table.len() - 1` (i.e. the table was filled by this
    /// sequence). This is the one extension primitive shared by the
    /// scratch paths and [`crate::workspace::SyndromeWorkspace`], so every
    /// caller grows tables the same way.
    #[inline]
    pub fn extend_table(&mut self, table: &mut Vec<u64>, upto: usize) {
        debug_assert_eq!(table.last().copied(), Some(self.peek()));
        while table.len() <= upto {
            table.push(self.step());
        }
    }
}

impl Iterator for SyndromeSeq {
    type Item = u64;

    /// Yields `r(0), r(1), r(2), …`.
    fn next(&mut self) -> Option<u64> {
        let out = self.state;
        self.step();
        Some(out)
    }
}

/// Collects the first `len` syndromes into a vector (`r(0)..r(len-1)`).
pub fn syndrome_table(g: &GenPoly, len: usize) -> Vec<u64> {
    SyndromeSeq::new(g).take(len).collect()
}

/// Computes `r(e) = x^e mod G` directly by square-and-multiply —
/// `O(log e)` instead of `e` steps; used to cross-check the stepper and to
/// jump to distant positions.
pub fn syndrome_at(g: &GenPoly, e: u64) -> u64 {
    let ctx = gf2poly::ModCtx::new(g.to_poly()).expect("generator has degree >= 3");
    ctx.x_pow(e).mask() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_matches_closed_form() {
        let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
        let table = syndrome_table(&g, 100);
        for e in [0u64, 1, 31, 32, 33, 64, 99] {
            assert_eq!(table[e as usize], syndrome_at(&g, e), "e={e}");
        }
    }

    #[test]
    fn jump_matches_long_walk() {
        let g = GenPoly::from_koopman(16, 0x8810).unwrap();
        let mut seq = SyndromeSeq::new(&g);
        let mut last = seq.peek();
        for _ in 0..5000 {
            last = seq.step();
        }
        assert_eq!(last, syndrome_at(&g, 5000));
    }

    #[test]
    fn syndromes_are_nonzero_and_distinct_below_order() {
        // gcd(x, G) = 1 so x^i mod G is never 0, and syndromes repeat only
        // with period equal to the order of x.
        let g = GenPoly::from_normal(8, 0x07).unwrap();
        let order = gf2poly::order_of_x(g.to_poly()).unwrap() as usize;
        let table = syndrome_table(&g, order);
        let mut seen = std::collections::HashSet::new();
        for (i, &s) in table.iter().enumerate() {
            assert_ne!(s, 0, "syndrome at {i}");
            assert!(seen.insert(s), "duplicate syndrome at {i}");
        }
        // And the sequence closes the cycle at exactly `order`.
        assert_eq!(syndrome_at(&g, order as u64), 1);
    }

    #[test]
    fn width_64_no_overflow() {
        let g = GenPoly::from_normal(64, 0x42F0_E1EB_A9EA_3693 | 1).unwrap();
        let t = syndrome_table(&g, 130);
        assert_eq!(t[63], 1u64 << 63);
        assert_eq!(t[64], g.normal());
        assert_eq!(t[129], syndrome_at(&g, 129));
    }
}
