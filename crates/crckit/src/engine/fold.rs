//! Per-polynomial constants for the carryless-multiply tier.
//!
//! Folding rewrites a 128-bit accumulator `S` sliding `D` bits down a
//! message as `S·x^D ≡ S_hi_half·(x^(D+64) mod G) ⊕ S_lo_half·(x^D mod G)`,
//! turning an arbitrarily long division into a chain of 64×64 carryless
//! multiplies by *constants* — `x^k mod G` values this module derives for
//! **any** generator, not just the hardcoded CRC32 tables of production
//! libraries.
//!
//! A Barrett reduction (Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction", Intel, 2009) ends every
//! fold. It works modulo the generator padded to degree 64,
//! `G' = G·x^(64−w)`: since `(V·x^64) mod G' = x^(64−w)·((V·x^w) mod G)`,
//! the 64-bit remainder of a folded residue `V` is the CRC register
//! top-aligned — the raw state of a non-reflected algorithm, and the bit
//! reversal of a reflected one's — for every width from 8 to 64.
//!
//! Every constant comes from one 64-step long division of `x^128` by
//! `G'`, whose quotient is Barrett's `μ` and whose remainders are
//! `x^(64..=128) mod G'`, then a walk of Barrett steps by `x^64` on the
//! tier's own multiplier: no lookup table, and several times cheaper
//! than square-and-multiply through [`gf2poly::modring::fold_constants`],
//! which the tests keep as the independent oracle.
//!
//! Bit-order bookkeeping: in the reflected domain a carryless multiply of
//! two 64-bit-reflected values yields the 127-bit product reflected
//! across 128 bits, i.e. shifted down by one — compensated here by using
//! exponents one lower (`x^(D-1)`, `x^(D+63)`, `x^127`, `μ/x`, `G'/x`) and
//! storing the constants bit-reversed, so the kernels never need a
//! corrective shift.

use super::clmul::Backend;
use crate::params::CrcParams;

/// Barrett constants of one bit-order domain. In the normal domain
/// `(fold, mu, poly)` are `x^128 mod G'`, `μ = ⌊x^128 / G'⌋` and `G'`,
/// each without its `x^64` term; in the reflected domain they are the bit
/// reversals of `x^127 mod G'`, `⌊μ / x⌋` and `⌊G' / x⌋`. The masks stand
/// in for the terms those forms drop: `μ`'s `x^64` in the normal domain,
/// `G'`'s constant term (set only at width 64) in the reflected one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Barrett {
    pub fold: u64,
    pub mu: u64,
    pub poly: u64,
    pub mu_fix: u64,
    pub poly_fix: u64,
}

/// Carryless-multiply constants of one bit-order domain: `k[t]` is the
/// `(k_hi, k_lo)` pair that folds an accumulator `128·t` bits forward,
/// domain-adjusted (bit-reversed in the reflected domain), and `barrett`
/// reduces the final residue. `k[0]` is unused. The 128-bit kernels read
/// `t ≤ 4`; only the x86_64 512-bit kernel reads longer distances and
/// [`FoldTable::wide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Keys {
    pub k: [(u64, u64); 17],
    pub barrett: Barrett,
}

/// The constants a CLMUL-tier [`super::Crc`] folds and reduces with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FoldTable {
    /// The constants in the algorithm's own domain, for the 128-bit and
    /// portable kernels.
    pub keys: Keys,
    /// The reflected-domain constants of the same generator, whose fold
    /// keys the 512-bit kernel runs every algorithm with (it bit-reverses
    /// the bytes of non-reflected ones, and its residue back). Equal to
    /// `keys` for reflected algorithms; `None` on hosts that cannot run
    /// that kernel.
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    pub wide: Option<Keys>,
}

impl FoldTable {
    /// Derives the constants for `params` on the host's multiplier.
    pub(crate) fn new(params: &CrcParams) -> FoldTable {
        let powers = super::clmul::powers(params);
        let keys = powers.keys(params.refin);
        FoldTable {
            keys,
            #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
            wide: super::clmul::wide_available().then(|| {
                if params.refin {
                    keys
                } else {
                    powers.keys(true)
                }
            }),
        }
    }
}

/// The powers of `x` every constant of one generator is read from, in
/// either domain.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Powers {
    params: CrcParams,
    /// `G'` without its `x^64` term.
    g: u64,
    /// `μ = ⌊x^128 / G'⌋` without its `x^64` term.
    mu: u64,
    /// `x^127 mod G'` and `x^128 mod G'`.
    x127: u64,
    x128: u64,
    /// `r[j] = x^(64·j − 1) mod G`, low-aligned, for `j` in `2..34`.
    r: [u64; 34],
}

impl Powers {
    /// The powers of `params`'s generator, computed with `B`'s multiply.
    #[inline(always)]
    pub(crate) fn new<B: Backend>(params: &CrcParams) -> Powers {
        let w = params.width;
        let g = params.poly << (64 - w);
        // Long division of x^128 by G' = x^64 + g: `pow` runs through
        // x^(64+i) mod G', and the quotient bit of x^(64−i) is the top
        // bit of x^(63+i) mod G'.
        let (mut pow, mut mu, mut x127) = (g, 0u64, 0u64);
        // The walk below starts at x^(127 − w) mod G', 64 below r[2]'s
        // exponent once padded.
        let start = 127 - w;
        let mut p = if start < 64 { 1 << start } else { 0 };
        for i in 1..=64 {
            if 63 + i == start {
                p = pow;
            }
            if i == 64 {
                x127 = pow;
            }
            let top = pow >> 63;
            pow = pow << 1 ^ (g & top.wrapping_neg());
            mu |= top << (64 - i);
        }
        // x^(64·j − 1 + 64 − w) mod G' is r[j] padded; each step
        // multiplies by x^64 with one Barrett reduction of `p·x^64`.
        let mut r = [0u64; 34];
        for slot in r.iter_mut().skip(2) {
            let q = p ^ (B::mul(p, mu) >> 64) as u64;
            p = B::mul(q, g) as u64;
            *slot = p >> (64 - w);
        }
        Powers {
            params: *params,
            g,
            mu,
            x127,
            x128: pow,
            r,
        }
    }

    /// The constants in the reflected domain if `reflected`, else in the
    /// normal domain.
    pub(crate) fn keys(&self, reflected: bool) -> Keys {
        let p = &self.params;
        let top = p.width - 1;
        // The normal domain folds by x^(64·j) mod G, one step past r[j].
        let times_x = |v: u64| v << 1 & p.mask() ^ (p.poly & (v >> top & 1).wrapping_neg());
        let adjust = |v: u64| {
            if reflected {
                v.reverse_bits()
            } else {
                times_x(v)
            }
        };
        let mut k = [(0, 0); 17];
        for (t, pair) in k.iter_mut().enumerate().skip(1) {
            *pair = (adjust(self.r[2 * t + 1]), adjust(self.r[2 * t]));
        }
        let (g, mu) = (self.g, self.mu);
        let barrett = if reflected {
            Barrett {
                fold: self.x127.reverse_bits(),
                mu: (1 << 63 | mu >> 1).reverse_bits(),
                poly: (1 << 63 | g >> 1).reverse_bits(),
                mu_fix: 0,
                poly_fix: (g & 1).wrapping_neg(),
            }
        } else {
            Barrett {
                fold: self.x128,
                mu,
                poly: g,
                mu_fix: !0,
                poly_fix: 0,
            }
        };
        Keys { k, barrett }
    }
}

#[cfg(test)]
mod tests {
    use super::super::clmul::Soft;
    use super::*;
    use gf2poly::modring::fold_constants;

    /// `x^e mod G` through square-and-multiply, low-aligned.
    fn oracle_mod_g(params: &CrcParams, e: u64) -> u64 {
        fold_constants(params.width, params.poly, &[e]).unwrap()[0]
    }

    /// The fold pair for distance `d` through square-and-multiply,
    /// independent of the Barrett walk.
    fn oracle(params: &CrcParams, d: u64) -> (u64, u64) {
        let delta = u64::from(params.refin);
        let adjust = |v: u64| if params.refin { v.reverse_bits() } else { v };
        (
            adjust(oracle_mod_g(params, d + 64 - delta)),
            adjust(oracle_mod_g(params, d - delta)),
        )
    }

    fn test_params() -> impl Iterator<Item = CrcParams> {
        let odd_widths = [8u32, 9, 13, 33, 63, 64].map(|w| {
            CrcParams::new("T", w, (0x5B << (w - 8)) & (u64::MAX >> (64 - w)) | 1).unwrap()
        });
        // Even generators leave G' without a constant term at width 64.
        let even = [CrcParams::new("E", 64, 0x42F0_E1EB_A9EA_3692).unwrap()];
        crate::catalog::ALL
            .into_iter()
            .chain(odd_widths)
            .chain(even)
    }

    #[test]
    fn walk_matches_square_and_multiply() {
        for params in test_params() {
            for refl in [false, true] {
                let params = params.reflected(refl);
                let w = params.width;
                let g = params.poly << (64 - w);
                let powers = Powers::new::<Soft>(&params);
                assert_eq!(FoldTable::new(&params).keys, powers.keys(refl));
                // The host's multiplier derives the same powers.
                let hw = super::super::clmul::powers(&params);
                // Both domains: the algorithm's own, and the reflected one
                // the 512-bit kernel folds in.
                for domain in [params, params.reflected(true)] {
                    let keys = powers.keys(domain.refin);
                    assert_eq!(hw.keys(domain.refin), keys, "{} refin {refl}", params.name);
                    for (t, &got) in keys.k.iter().enumerate().skip(1) {
                        let d = 128 * t as u64;
                        let want = oracle(&domain, d);
                        assert_eq!(got, want, "{} refin {refl} D {d}", params.name);
                    }
                    // x^e mod G' = x^(64−w)·(x^(e−64+w) mod G).
                    let padded = |e: u64| oracle_mod_g(&params, e - 64 + u64::from(w)) << (64 - w);
                    let b = keys.barrett;
                    if domain.refin {
                        assert_eq!(b.fold, padded(127).reverse_bits(), "{}", params.name);
                        assert_eq!(b.poly, (1 << 63 | g >> 1).reverse_bits());
                        assert_eq!(b.poly_fix, if g & 1 == 1 { !0 } else { 0 });
                        assert_eq!(b.mu_fix, 0);
                    } else {
                        assert_eq!(b.fold, padded(128), "{}", params.name);
                        assert_eq!(b.poly, g);
                        // μ·G' = x^128 + ρ with deg ρ < 64: the product's
                        // x^64..x^127 terms, μ_lo ⊕ g ⊕ ⌊μ_lo·g / x^64⌋,
                        // cancel.
                        let mid = b.mu ^ g ^ (Soft::mul(b.mu, g) >> 64) as u64;
                        assert_eq!(mid, 0, "{}: μ is not ⌊x^128 / G'⌋", params.name);
                        assert_eq!(b.mu_fix, !0);
                    }
                }
            }
        }
    }

    #[test]
    fn reflected_constants_are_bit_reversals_of_shifted_exponents() {
        let refl = FoldTable::new(&crate::catalog::CRC32_ISO_HDLC).keys;
        let bzip2 = crate::catalog::CRC32_BZIP2;
        assert_eq!(
            Powers::new::<Soft>(&bzip2).keys(true).k,
            refl.k,
            "the 512-bit kernel runs BZIP2 reflected"
        );
        #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
        if let Some(wide) = FoldTable::new(&bzip2).wide {
            assert_eq!(wide.k, refl.k);
        }
        let norm = FoldTable::new(&bzip2).keys;
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
            let ft = FoldTable::new(&params.reflected(false)).keys;
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
