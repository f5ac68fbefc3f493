//! The slicing-by-16 tier: sixteen 256-entry tables, 16 input bytes per
//! step, for CPUs without a carryless multiply.

use super::reflect;
use crate::params::CrcParams;

/// Slicing tables (16 × 256). For reflected algorithms the state lives in
/// the low bits of a `u64`; for non-reflected algorithms the tables are
/// top-aligned in the `u64` so slicing needs no width-dependent shifts in
/// the inner loop. `t[0]` doubles as the byte-at-a-time table of the
/// remainder steps.
#[derive(Debug, Clone)]
pub(crate) struct Tables {
    t: Box<[[u64; 256]; 16]>,
    refin: bool,
}

impl Tables {
    pub(crate) fn new(params: &CrcParams) -> Tables {
        let mut t = Box::new([[0u64; 256]; 16]);
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
                t[0][b as usize] = v;
            }
            for k in 1..16 {
                for b in 0..256usize {
                    let prev = t[k - 1][b];
                    t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
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
                t[0][b as usize] = v;
            }
            for k in 1..16 {
                for b in 0..256usize {
                    let prev = t[k - 1][b];
                    t[k][b] = (prev << 8) ^ t[0][(prev >> 56) as usize];
                }
            }
        }
        Tables {
            t,
            refin: params.refin,
        }
    }

    #[inline]
    fn step_byte(&self, state: u64, byte: u8) -> u64 {
        if self.refin {
            (state >> 8) ^ self.t[0][((state ^ byte as u64) & 0xFF) as usize]
        } else {
            (state << 8) ^ self.t[0][((state >> 56) ^ byte as u64) as usize]
        }
    }

    /// Slicing-by-8 update: the remainder loop of slicing-by-16.
    #[inline]
    fn update8(&self, mut state: u64, bytes: &[u8]) -> u64 {
        let t = &self.t;
        let mut chunks = bytes.chunks_exact(8);
        if self.refin {
            for chunk in &mut chunks {
                let x = state ^ u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                state = t[7][(x & 0xFF) as usize]
                    ^ t[6][(x >> 8 & 0xFF) as usize]
                    ^ t[5][(x >> 16 & 0xFF) as usize]
                    ^ t[4][(x >> 24 & 0xFF) as usize]
                    ^ t[3][(x >> 32 & 0xFF) as usize]
                    ^ t[2][(x >> 40 & 0xFF) as usize]
                    ^ t[1][(x >> 48 & 0xFF) as usize]
                    ^ t[0][(x >> 56) as usize];
            }
        } else {
            for chunk in &mut chunks {
                let x = state ^ u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
                state = t[7][(x >> 56) as usize]
                    ^ t[6][(x >> 48 & 0xFF) as usize]
                    ^ t[5][(x >> 40 & 0xFF) as usize]
                    ^ t[4][(x >> 32 & 0xFF) as usize]
                    ^ t[3][(x >> 24 & 0xFF) as usize]
                    ^ t[2][(x >> 16 & 0xFF) as usize]
                    ^ t[1][(x >> 8 & 0xFF) as usize]
                    ^ t[0][(x & 0xFF) as usize];
            }
        }
        for &b in chunks.remainder() {
            state = self.step_byte(state, b);
        }
        state
    }

    /// Advances a raw state over `bytes`: two independent 8-byte lookup
    /// chains per iteration, halving the loop-carried dependency length
    /// of slicing-by-8.
    pub(crate) fn update(&self, mut state: u64, bytes: &[u8]) -> u64 {
        let t = &self.t;
        let mut chunks = bytes.chunks_exact(16);
        if self.refin {
            for chunk in &mut chunks {
                let x = state ^ u64::from_le_bytes(chunk[..8].try_into().expect("8-byte chunk"));
                let y = u64::from_le_bytes(chunk[8..].try_into().expect("8-byte chunk"));
                state = t[15][(x & 0xFF) as usize]
                    ^ t[14][(x >> 8 & 0xFF) as usize]
                    ^ t[13][(x >> 16 & 0xFF) as usize]
                    ^ t[12][(x >> 24 & 0xFF) as usize]
                    ^ t[11][(x >> 32 & 0xFF) as usize]
                    ^ t[10][(x >> 40 & 0xFF) as usize]
                    ^ t[9][(x >> 48 & 0xFF) as usize]
                    ^ t[8][(x >> 56) as usize]
                    ^ t[7][(y & 0xFF) as usize]
                    ^ t[6][(y >> 8 & 0xFF) as usize]
                    ^ t[5][(y >> 16 & 0xFF) as usize]
                    ^ t[4][(y >> 24 & 0xFF) as usize]
                    ^ t[3][(y >> 32 & 0xFF) as usize]
                    ^ t[2][(y >> 40 & 0xFF) as usize]
                    ^ t[1][(y >> 48 & 0xFF) as usize]
                    ^ t[0][(y >> 56) as usize];
            }
        } else {
            for chunk in &mut chunks {
                let x = state ^ u64::from_be_bytes(chunk[..8].try_into().expect("8-byte chunk"));
                let y = u64::from_be_bytes(chunk[8..].try_into().expect("8-byte chunk"));
                state = t[15][(x >> 56) as usize]
                    ^ t[14][(x >> 48 & 0xFF) as usize]
                    ^ t[13][(x >> 40 & 0xFF) as usize]
                    ^ t[12][(x >> 32 & 0xFF) as usize]
                    ^ t[11][(x >> 24 & 0xFF) as usize]
                    ^ t[10][(x >> 16 & 0xFF) as usize]
                    ^ t[9][(x >> 8 & 0xFF) as usize]
                    ^ t[8][(x & 0xFF) as usize]
                    ^ t[7][(y >> 56) as usize]
                    ^ t[6][(y >> 48 & 0xFF) as usize]
                    ^ t[5][(y >> 40 & 0xFF) as usize]
                    ^ t[4][(y >> 32 & 0xFF) as usize]
                    ^ t[3][(y >> 24 & 0xFF) as usize]
                    ^ t[2][(y >> 16 & 0xFF) as usize]
                    ^ t[1][(y >> 8 & 0xFF) as usize]
                    ^ t[0][(y & 0xFF) as usize];
            }
        }
        self.update8(state, chunks.remainder())
    }

    /// Bytes of lookup tables this tier holds.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.t)
    }
}
