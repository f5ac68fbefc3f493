//! Per-polynomial folding constants for the carryless-multiply tier.
//!
//! Folding rewrites a 128-bit accumulator `S` sliding `D` bits down a
//! message as `S·x^D ≡ S_hi_half·(x^(D+64) mod G) ⊕ S_lo_half·(x^D mod G)`,
//! turning an arbitrarily long division into a chain of 64×64 carryless
//! multiplies by *constants* — `x^k mod G` values this module derives for
//! **any** generator, not just the hardcoded CRC32 tables of production
//! libraries.
//!
//! The constants come from the engine's own slicing tables: running the
//! raw state over zero bytes multiplies its residue by `x^8` per byte, so
//! every `x^k mod G` here is a short walk from `x^0` — a few hundred
//! table lookups for the whole schedule, several times cheaper than
//! square-and-multiply through [`gf2poly::modring::fold_constants`],
//! which the tests keep as the independent oracle.
//!
//! Bit-order bookkeeping: in the reflected domain a carryless multiply of
//! two 64-bit-reflected values yields the 127-bit product reflected
//! across 128 bits, i.e. shifted down by one — compensated here by using
//! exponents one lower (`x^(D-1)`, `x^(D+63)`) and storing the constants
//! bit-reversed, so the kernels never need a corrective shift.

use super::{reflect, Crc};

/// Carryless-multiply key schedule of one bit-order domain: `k[t]` is
/// the `(k_hi, k_lo)` pair that folds an accumulator `128·t` bits
/// forward, domain-adjusted (bit-reversed in the reflected domain).
/// `k[0]` is unused. The 128-bit kernels read `t ≤ 4`; only the x86_64
/// 512-bit kernel reads longer distances and [`FoldTable::wide`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Keys {
    pub k: [(u64, u64); 17],
}

impl Keys {
    /// The schedule of `crc`'s generator in the reflected domain if
    /// `reflected`, else in the normal domain.
    fn derive(crc: &Crc, reflected: bool) -> Keys {
        Keys::from_residues(&residues(crc, u32::from(reflected)), reflected)
    }

    /// The schedule from `r[j] = x^(64·j − δ) mod G` (low-aligned).
    fn from_residues(r: &[u64; 34], reflected: bool) -> Keys {
        let adjust = |v: u64| if reflected { v.reverse_bits() } else { v };
        let mut k = [(0, 0); 17];
        for (t, pair) in k.iter_mut().enumerate().skip(1) {
            *pair = (adjust(r[2 * t + 1]), adjust(r[2 * t]));
        }
        Keys { k }
    }
}

/// The schedules a [`Crc`] folds with.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FoldTable {
    /// The schedule in the algorithm's own domain, for the 128-bit and
    /// portable kernels.
    pub keys: Keys,
    /// The reflected-domain schedule of the same generator, for the
    /// 512-bit kernel, which runs every algorithm reflected (it
    /// bit-reverses the bytes of non-reflected ones). Equal to `keys` for
    /// reflected algorithms; `None` on hosts that cannot run that kernel.
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    pub wide: Option<Keys>,
}

impl FoldTable {
    /// Derives the schedules for `crc`, whose slicing tables must already
    /// be built.
    pub(crate) fn derive(crc: &Crc) -> FoldTable {
        let refin = crc.params().refin;
        let keys = Keys::derive(crc, refin);
        FoldTable {
            keys,
            #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
            wide: super::clmul::wide_available().then(|| {
                if refin {
                    keys
                } else {
                    Keys::derive(crc, true)
                }
            }),
        }
    }
}

/// `r[j] = x^(64·j − δ) mod G` for `j` in `2..34`, low-aligned, walked on
/// `crc`'s raw state: from `x^0`, single-bit steps up to `x^(128 − δ)`
/// mod 8, then 8 zero bytes per step of `j`.
fn residues(crc: &Crc, delta: u32) -> [u64; 34] {
    let p = crc.params();
    let w = p.width;
    let (mut s, g) = if p.refin {
        (1u64 << (w - 1), reflect(p.poly, w))
    } else {
        (1u64 << (64 - w), p.poly << (64 - w))
    };
    let first = 128 - delta as usize;
    for _ in 0..first % 8 {
        s = if p.refin {
            if s & 1 == 1 {
                (s >> 1) ^ g
            } else {
                s >> 1
            }
        } else if s >> 63 == 1 {
            (s << 1) ^ g
        } else {
            s << 1
        };
    }
    let zeros = [0u8; 16];
    s = crc.update_raw(s, &zeros[..first / 8]);
    let mut r = [0u64; 34];
    for (j, slot) in r.iter_mut().enumerate().skip(2) {
        if j > 2 {
            s = crc.update_raw(s, &zeros[..8]);
        }
        *slot = if p.refin {
            reflect(s, w)
        } else {
            s >> (64 - w)
        };
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2poly::modring::fold_constants;

    /// The schedule through square-and-multiply, independent of the
    /// slicing tables.
    fn oracle(params: &crate::CrcParams, d: u64) -> (u64, u64) {
        let delta = u64::from(params.refin);
        let raw = fold_constants(params.width, params.poly, &[d + 64 - delta, d - delta]).unwrap();
        let adjust = |v: u64| if params.refin { v.reverse_bits() } else { v };
        (adjust(raw[0]), adjust(raw[1]))
    }

    #[test]
    fn table_walk_matches_square_and_multiply() {
        let odd_widths = [8u32, 9, 13, 33, 63, 64].map(|w| {
            crate::CrcParams::new("T", w, (0x5B << (w - 8)) & (u64::MAX >> (64 - w)) | 1).unwrap()
        });
        for params in crate::catalog::ALL.into_iter().chain(odd_widths) {
            for refl in [false, true] {
                let params = params.reflected(refl);
                let crc = Crc::new(params);
                assert_eq!(FoldTable::derive(&crc).keys.k, Keys::derive(&crc, refl).k);
                // Both domains from either table orientation: the
                // algorithm's own, and the reflected one the 512-bit
                // kernel folds in.
                for domain in [params, params.reflected(true)] {
                    let keys = Keys::derive(&crc, domain.refin);
                    for (t, &got) in keys.k.iter().enumerate().skip(1) {
                        let d = 128 * t as u64;
                        let want = oracle(&domain, d);
                        assert_eq!(got, want, "{} refin {refl} D {d}", params.name);
                    }
                }
            }
        }
    }

    #[test]
    fn reflected_constants_are_bit_reversals_of_shifted_exponents() {
        let refl = FoldTable::derive(&Crc::new(crate::catalog::CRC32_ISO_HDLC)).keys;
        let bzip2 = Crc::new(crate::catalog::CRC32_BZIP2);
        assert_eq!(
            Keys::derive(&bzip2, true).k,
            refl.k,
            "the 512-bit kernel runs BZIP2 reflected"
        );
        #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
        if let Some(wide) = FoldTable::derive(&bzip2).wide {
            assert_eq!(wide.k, refl.k);
        }
        let norm = FoldTable::derive(&bzip2).keys;
        // Same polynomial: the reflected schedule must be the bit-reversal
        // of the normal schedule's exponent-shifted counterpart.
        let shifted =
            fold_constants(32, 0x04C1_1DB7, &[575, 511, 447, 383, 319, 255, 191, 127]).unwrap();
        assert_eq!(refl.k[4].0, shifted[0].reverse_bits());
        assert_eq!(refl.k[4].1, shifted[1].reverse_bits());
        assert_eq!(refl.k[1].0, shifted[6].reverse_bits());
        assert_eq!(refl.k[1].1, shifted[7].reverse_bits());
        let plain = fold_constants(32, 0x04C1_1DB7, &[576, 512]).unwrap();
        assert_eq!(norm.k[4], (plain[0], plain[1]));
    }

    #[test]
    fn constants_fit_the_width_before_reflection() {
        for params in crate::catalog::ALL {
            let ft = FoldTable::derive(&Crc::new(params.reflected(false))).keys;
            for k in ft.k.into_iter().skip(1) {
                if params.width < 64 {
                    assert!(
                        k.0 < 1 << params.width,
                        "{}: constant overflows",
                        params.name
                    );
                    assert!(
                        k.1 < 1 << params.width,
                        "{}: constant overflows",
                        params.name
                    );
                }
            }
        }
    }
}
