//! The carryless-multiply folding tier.
//!
//! Data reduces through 128-bit *folding*: a 128-bit accumulator slides
//! down the message, each step folded `D` bits forward by two 64×64
//! carryless multiplies against `x^k mod G` constants
//! ([`super::fold::Keys`]) and XORed with the next 16 bytes. By input
//! length:
//!
//! * under [`MIN_FOLD`] (16) bytes nothing folds: the message, with the
//!   state XORed into its first 8 bytes, fits one 128-bit block, which
//!   goes straight to the reduction below;
//! * from [`MIN_FOLD`] one accumulator folds 16 bytes per step;
//! * from [`QUAD_FOLD`] four accumulators stride 64 bytes per step and
//!   combine into one before the 16-byte steps;
//! * from [`WIDE_FOLD`], on x86_64 hosts with AVX-512 VPCLMULQDQ and
//!   GFNI, four 512-bit accumulators (sixteen 128-bit lanes) stride 256
//!   bytes per step; the remaining whole blocks and chunks each fold in
//!   one step, in parallel instead of one after another.
//!
//! Every kernel shifts a partial last chunk in (its spilled head folds
//! 128 bits forward), so no byte tail is left. A Barrett reduction
//! ([`super::fold::Barrett`]; Gopal et al., Intel, 2009) then turns the
//! 128-bit residue — congruent to the whole message modulo `G` — into the
//! raw state with three multiplies, so the tier holds no lookup table.
//!
//! Non-reflected algorithms run the same kernel bodies. In the 128-bit
//! kernel one byte-reversing shuffle per 16-byte block turns big-endian
//! message order into the register layout the reflected path loads
//! natively, and the key vectors swap lanes to match. The 512-bit kernel
//! instead reverses the bits of every byte (one GFNI affine per 64
//! bytes), which turns the message into the reflected message of the
//! same polynomial: a byte shuffle there competes with VPCLMULQDQ for
//! one execution port and held CRC-32/BZIP2 to 0.71× of CRC-32/ISO-HDLC
//! at 64 KiB on a 2-core AVX-512 Xeon, the affine to 0.98×. It hands a
//! non-reflected residue back fully bit-reversed, in the 128-bit
//! kernel's layout, so every path reduces with the algorithm's own
//! constants.
//!
//! Three multipliers implement the fold and the reduction, each behind
//! one [`Backend`]:
//!
//! * x86_64 `pclmulqdq` (`_mm_clmulepi64_si128`), selected by runtime
//!   feature detection (and `vpclmulqdq` for the 512-bit loop);
//! * aarch64 `pmull` (`vmull_p64`), likewise;
//! * a portable software carryless multiply, which runs only when
//!   [`super::EngineKind::Clmul`] is pinned on a CPU without the
//!   instruction or in a build without the `clmul` cargo feature
//!   (auto-selection picks slicing-by-16 there) — bit-identical output,
//!   so a pinned `Clmul` is correct everywhere.
//!
//! An incoming raw state XORs into the first 8 message bytes (both
//! directions of the Rocksoft reflection convention); a message shorter
//! than that is instead padded after the state.

use super::fold::{Barrett, FoldTable, Keys, Powers};
use crate::params::CrcParams;

/// Shortest input that folds (one 16-byte chunk); shorter inputs reduce
/// directly.
const MIN_FOLD: usize = 16;

/// Shortest input the four 128-bit accumulators run on.
const QUAD_FOLD: usize = 64;

/// Shortest input the 4×512-bit loop runs on, where the host has it.
#[cfg_attr(not(all(feature = "clmul", target_arch = "x86_64")), allow(dead_code))]
const WIDE_FOLD: usize = 256;

/// Whether this host can run the fold on dedicated instructions.
pub(crate) fn hardware_available() -> bool {
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    {
        return std::is_x86_feature_detected!("pclmulqdq")
            && std::is_x86_feature_detected!("ssse3")
            && std::is_x86_feature_detected!("sse4.1");
    }
    #[cfg(all(feature = "clmul", target_arch = "aarch64"))]
    {
        return std::arch::is_aarch64_feature_detected!("aes");
    }
    #[allow(unreachable_code)]
    false
}

/// Whether this host can run the 4×512-bit kernel.
#[cfg(all(feature = "clmul", target_arch = "x86_64"))]
pub(crate) fn wide_available() -> bool {
    hardware_available() && x86::wide_available()
}

/// The powers of `x` behind `params`'s fold and Barrett constants,
/// computed on the host's multiplier.
pub(crate) fn powers(params: &CrcParams) -> Powers {
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    if let Some(powers) = x86::powers(params) {
        return powers;
    }
    #[cfg(all(feature = "clmul", target_arch = "aarch64"))]
    if hardware_available() {
        return Powers::new::<aarch64::Pmull>(params);
    }
    Powers::new::<Soft>(params)
}

/// Advances a raw state over `bytes` on the CLMUL tier.
#[inline]
pub(crate) fn update(ft: &FoldTable, refin: bool, state: u64, bytes: &[u8]) -> u64 {
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    if let Some(raw) = x86::update(ft, refin, state, bytes) {
        return raw;
    }
    #[cfg(all(feature = "clmul", target_arch = "aarch64"))]
    if hardware_available() {
        return update_generic::<aarch64::Pmull>(&ft.keys, refin, state, bytes);
    }
    update_generic::<Soft>(&ft.keys, refin, state, bytes)
}

/// [`update`] on the scalar kernel and `B`'s multiply; kept out of line
/// so the hardware dispatch in [`update`] stays small enough to inline.
#[inline(never)]
fn update_generic<B: Backend>(keys: &Keys, refin: bool, state: u64, bytes: &[u8]) -> u64 {
    if bytes.len() < MIN_FOLD {
        short::<B>(&keys.barrett, refin, state, bytes)
    } else {
        reduce::<B>(
            &keys.barrett,
            refin,
            fold_generic::<B>(keys, refin, state, bytes),
        )
    }
}

/// A 64×64→127-bit carryless multiply provider.
pub(crate) trait Backend {
    fn mul(a: u64, b: u64) -> u128;
}

/// Portable software carryless multiply (one shift-XOR per set bit of the
/// constant — folding constants average width/2 bits).
pub(crate) struct Soft;

impl Backend for Soft {
    #[inline(always)]
    fn mul(a: u64, mut b: u64) -> u128 {
        let wide = a as u128;
        let mut acc = 0u128;
        while b != 0 {
            acc ^= wide << b.trailing_zeros();
            b &= b - 1;
        }
        acc
    }
}

/// One 128-bit accumulator, tracked as (high-degree half, low-degree
/// half) independent of the bit-order domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Acc {
    hi: u64,
    lo: u64,
}

#[inline(always)]
fn load(refin: bool, chunk: &[u8]) -> Acc {
    // First message bytes always carry the higher polynomial degrees; the
    // reflection convention only changes the bit order inside each half.
    let half = |b: &[u8]| -> u64 {
        let b = b.try_into().expect("8-byte half");
        if refin {
            u64::from_le_bytes(b)
        } else {
            u64::from_be_bytes(b)
        }
    };
    Acc {
        hi: half(&chunk[..8]),
        lo: half(&chunk[8..16]),
    }
}

#[inline(always)]
fn xor(a: Acc, b: Acc) -> Acc {
    Acc {
        hi: a.hi ^ b.hi,
        lo: a.lo ^ b.lo,
    }
}

/// A 127-bit product as an accumulator: in the reflected domain the
/// product's low integer bits are the high polynomial degrees; in the
/// normal domain the high bits are.
#[inline(always)]
fn split(refin: bool, p: u128) -> Acc {
    if refin {
        Acc {
            hi: p as u64,
            lo: (p >> 64) as u64,
        }
    } else {
        Acc {
            hi: (p >> 64) as u64,
            lo: p as u64,
        }
    }
}

/// Barrett reduction of a 128-bit `t` to `t mod G'`, the raw state:
/// `q = ⌊t_hi·μ / x^64⌋`, then `t ⊕ q·G'` leaves only the low half.
#[inline(always)]
fn barrett<B: Backend>(c: &Barrett, refin: bool, t: Acc) -> u64 {
    let q = split(refin, B::mul(t.hi, c.mu)).hi ^ (t.hi & c.mu_fix);
    t.lo ^ split(refin, B::mul(q, c.poly)).lo ^ (q & c.poly_fix)
}

/// The raw state of a message whose folded residue is `v`:
/// `(V·x^64) mod G'`, once `V`'s high half has folded 128 bits forward.
#[inline(always)]
fn reduce<B: Backend>(c: &Barrett, refin: bool, v: Acc) -> u64 {
    let t = split(refin, B::mul(v.hi, c.fold));
    barrett::<B>(
        c,
        refin,
        Acc {
            hi: t.hi ^ v.lo,
            lo: t.lo,
        },
    )
}

/// The first `1..=8` bytes of `b` as a little-endian `u64`, read without
/// a copy: two overlapping 4-byte loads, or the first, middle and last
/// byte.
#[inline(always)]
fn load_le_upto8(b: &[u8]) -> u64 {
    let n = b.len();
    debug_assert!((1..=8).contains(&n));
    if n >= 4 {
        let first = u32::from_le_bytes(b[..4].try_into().expect("4 bytes"));
        let last = u32::from_le_bytes(b[n - 4..].try_into().expect("4 bytes"));
        u64::from(first) | u64::from(last) << (8 * (n - 4))
    } else {
        u64::from(b[0])
            | u64::from(b[n / 2]) << (8 * (n / 2))
            | u64::from(b[n - 1]) << (8 * (n - 1))
    }
}

/// Advances `state` over fewer than [`MIN_FOLD`] bytes with one
/// reduction and no table.
#[inline(always)]
fn short<B: Backend>(c: &Barrett, refin: bool, state: u64, bytes: &[u8]) -> u64 {
    let n = bytes.len();
    debug_assert!(n < MIN_FOLD);
    // The state as the little-endian message bytes it XORs into.
    let s = if refin { state } else { state.swap_bytes() };
    if n > 8 {
        // The message, state XORed in and zero-padded in front to 16
        // bytes, is the residue `V` itself; two overlapping 8-byte loads
        // read it.
        let first = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let last = u64::from_le_bytes(bytes[n - 8..].try_into().expect("8 bytes"));
        let msg = (u128::from(first) | u128::from(last) << (8 * (n - 8))) ^ u128::from(s);
        let block = msg << (8 * (16 - n));
        reduce::<B>(c, refin, load(refin, &block.to_le_bytes()))
    } else if n > 0 {
        // The message is shorter than the state: with `x` the state XORed
        // with the message bytes, the register is `x·x^(8n)` mod `G'` — a
        // product of under 128 bits, which only the Barrett step needs.
        let x = load_le_upto8(bytes) ^ s;
        let t = if refin {
            u128::from(x) << (64 - 8 * n)
        } else {
            u128::from(x.swap_bytes()) << (8 * n)
        };
        barrett::<B>(c, refin, split(refin, t))
    } else {
        state
    }
}

/// The shared scalar folding kernel, generic over the multiplier, for
/// inputs of at least [`MIN_FOLD`] bytes with `state` pre-XORed into the
/// first 8. It folds in exactly the order of the x86 128-bit kernel, so
/// the two return equal residues, not merely congruent ones.
fn fold_generic<B: Backend>(keys: &Keys, refin: bool, state: u64, bytes: &[u8]) -> Acc {
    let n = bytes.len();
    debug_assert!(n >= MIN_FOLD);
    let fold = |acc: Acc, k: (u64, u64)| split(refin, B::mul(acc.hi, k.0) ^ B::mul(acc.lo, k.1));
    let chunk = |pos: usize| load(refin, &bytes[pos..pos + 16]);

    let mut s = chunk(0);
    s.hi ^= state;
    let mut pos = 16;
    if n >= QUAD_FOLD {
        let mut acc = [s, chunk(16), chunk(32), chunk(48)];
        pos = 64;
        while pos + 64 <= n {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = xor(fold(*a, keys.k[4]), chunk(pos + 16 * i));
            }
            pos += 64;
        }
        s = xor(
            xor(fold(acc[0], keys.k[3]), fold(acc[1], keys.k[2])),
            xor(fold(acc[2], keys.k[1]), acc[3]),
        );
    }
    while pos + 16 <= n {
        s = xor(fold(s, keys.k[1]), chunk(pos));
        pos += 16;
    }
    let tail = n - pos;
    if tail > 0 {
        // The message now ends `s ‖ t` with `tail` bytes `t`. Its last 16
        // bytes are `s[tail..] ‖ t`; the `tail` bytes of `s` before them,
        // zero-padded in front, fold 128 bits forward. Byte `i` of a
        // block is byte `i` of these little-endian `u128`s.
        let sb = u128::from_le_bytes(serialize(refin, s));
        let end = u128::from_le_bytes(bytes[n - 16..].try_into().expect("16 bytes"));
        let head = sb << (8 * (16 - tail));
        let last = sb >> (8 * tail) | end & (!0u128 << (8 * (16 - tail)));
        s = xor(
            fold(load(refin, &head.to_le_bytes()), keys.k[1]),
            load(refin, &last.to_le_bytes()),
        );
    }
    s
}

/// The 16 message bytes an accumulator stands for ([`load`] inverted).
#[inline(always)]
fn serialize(refin: bool, s: Acc) -> [u8; 16] {
    let mut out = [0u8; 16];
    if refin {
        out[..8].copy_from_slice(&s.hi.to_le_bytes());
        out[8..].copy_from_slice(&s.lo.to_le_bytes());
    } else {
        out[..8].copy_from_slice(&s.hi.to_be_bytes());
        out[8..].copy_from_slice(&s.lo.to_be_bytes());
    }
    out
}

#[cfg(all(feature = "clmul", target_arch = "x86_64"))]
mod x86 {
    #![allow(unsafe_code)]

    use super::super::fold::{FoldTable, Keys, Powers};
    use super::{reduce, short, Acc, Backend, MIN_FOLD, QUAD_FOLD, WIDE_FOLD};
    use crate::params::CrcParams;
    use std::arch::x86_64::*;

    /// `pclmulqdq`-backed multiplier for the reduction and the constant
    /// derivation. Private to this module: every function here that uses
    /// it enables the feature and is reached only after detecting it, so
    /// the intrinsic inlines.
    struct Pclmul;

    impl Backend for Pclmul {
        #[inline(always)]
        fn mul(a: u64, b: u64) -> u128 {
            // SAFETY: this backend runs only inside the functions below,
            // which callers reach after detecting pclmulqdq; the transmute
            // reinterprets 16 initialized bytes.
            unsafe {
                let p = _mm_clmulepi64_si128(
                    _mm_cvtsi64_si128(a as i64),
                    _mm_cvtsi64_si128(b as i64),
                    0x00,
                );
                std::mem::transmute::<__m128i, u128>(p)
            }
        }
    }

    /// Whether the 4×512-bit kernel can run: 512-bit carryless
    /// multiplies, plus GFNI for the bit reversal of non-reflected bytes.
    pub(super) fn wide_available() -> bool {
        std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("vpclmulqdq")
            && std::is_x86_feature_detected!("gfni")
    }

    /// [`super::powers`] on `pclmulqdq`, or `None` on a CPU without it.
    pub(super) fn powers(params: &CrcParams) -> Option<Powers> {
        // SAFETY: the required CPU features are detected first.
        super::hardware_available().then(|| unsafe { powers_detected(params) })
    }

    /// # Safety
    ///
    /// The CPU must pass [`super::hardware_available`].
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    unsafe fn powers_detected(params: &CrcParams) -> Powers {
        Powers::new::<Pclmul>(params)
    }

    /// [`super::update`] on `pclmulqdq`, and on the 512-bit kernel where
    /// `ft.wide` is set; `None` on a CPU without `pclmulqdq`.
    #[inline]
    pub(super) fn update(ft: &FoldTable, refin: bool, state: u64, bytes: &[u8]) -> Option<u64> {
        // SAFETY: the required CPU features are detected first.
        super::hardware_available().then(|| unsafe { update_detected(ft, refin, state, bytes) })
    }

    /// # Safety
    ///
    /// The CPU must pass [`super::hardware_available`].
    #[target_feature(
        enable = "pclmulqdq",
        enable = "sse2",
        enable = "ssse3",
        enable = "sse4.1"
    )]
    unsafe fn update_detected(ft: &FoldTable, refin: bool, state: u64, bytes: &[u8]) -> u64 {
        let n = bytes.len();
        let c = &ft.keys.barrett;
        // Literal reflection flags below let each path compile for its
        // own domain.
        if n < MIN_FOLD {
            return if refin {
                short::<Pclmul>(c, true, state, bytes)
            } else {
                short::<Pclmul>(c, false, state, bytes)
            };
        }
        if let Some(wide) = ft.wide.as_ref().filter(|_| n >= WIDE_FOLD) {
            // SAFETY: `wide` is only derived where `wide_available` holds,
            // and `n` is at least WIDE_FOLD.
            return if refin {
                reduce::<Pclmul>(
                    c,
                    true,
                    acc::<false>(fold_wide::<false>(wide, state, bytes)),
                )
            } else {
                reduce::<Pclmul>(c, false, acc::<true>(fold_wide::<true>(wide, state, bytes)))
            };
        }
        if refin {
            reduce::<Pclmul>(c, true, acc::<false>(fold::<false>(&ft.keys, state, bytes)))
        } else {
            reduce::<Pclmul>(c, false, acc::<true>(fold::<true>(&ft.keys, state, bytes)))
        }
    }

    /// The 128-bit kernel's residue, for the tests that hold it to the
    /// portable kernel's.
    #[cfg(test)]
    pub(super) fn fold_detected(keys: &Keys, refin: bool, state: u64, bytes: &[u8]) -> Acc {
        assert!(super::hardware_available() && bytes.len() >= MIN_FOLD);
        // SAFETY: the required CPU features were just detected.
        unsafe {
            if refin {
                acc::<false>(fold::<false>(keys, state, bytes))
            } else {
                acc::<true>(fold::<true>(keys, state, bytes))
            }
        }
    }

    /// A register as an accumulator: the high-degree half sits in lane 0
    /// of reflected registers, in lane 1 of byte-reversed (`BSWAP`) ones.
    #[inline]
    #[target_feature(enable = "sse2", enable = "sse4.1")]
    fn acc<const BSWAP: bool>(s: __m128i) -> Acc {
        let (l0, l1) = (
            _mm_cvtsi128_si64(s) as u64,
            _mm_extract_epi64::<1>(s) as u64,
        );
        if BSWAP {
            Acc { hi: l1, lo: l0 }
        } else {
            Acc { hi: l0, lo: l1 }
        }
    }

    /// Reverses the bytes of each 128-bit lane (`pshufb` index vector).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn reverse_bytes() -> __m128i {
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
    }

    /// Loads the 16 message bytes at `pos` into register layout: the
    /// high-degree half in the lane the key vector pairs with `k_hi`.
    /// Reflected blocks load as they are; non-reflected (`BSWAP`) blocks
    /// are byte-reversed so their big-endian halves land the same way.
    #[inline]
    #[target_feature(enable = "sse2", enable = "ssse3")]
    unsafe fn load<const BSWAP: bool>(bytes: &[u8], pos: usize) -> __m128i {
        debug_assert!(pos + 16 <= bytes.len());
        let v = _mm_loadu_si128(bytes.as_ptr().add(pos) as *const __m128i);
        if BSWAP {
            _mm_shuffle_epi8(v, reverse_bytes())
        } else {
            v
        }
    }

    /// Key vector for one fold distance: `k_hi` in the lane holding the
    /// accumulator's high-degree half — the low lane when reflected, the
    /// high lane otherwise — so one multiply pair serves both domains.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn key<const BSWAP: bool>(k: (u64, u64)) -> __m128i {
        if BSWAP {
            _mm_set_epi64x(k.0 as i64, k.1 as i64)
        } else {
            _mm_set_epi64x(k.1 as i64, k.0 as i64)
        }
    }

    /// Folds one accumulator forward by the key vector's distance.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn fold1(acc: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k, 0x00),
            _mm_clmulepi64_si128(acc, k, 0x11),
        )
    }

    /// `pshufb` index windows for the partial last chunk, 16 bytes each:
    /// entries 16..32 are the identity, the rest zero a byte.
    const SHIFT: [u8; 48] = {
        let mut t = [0x80u8; 48];
        let mut i = 0;
        while i < 16 {
            t[16 + i] = i as u8;
            i += 1;
        }
        t
    };

    /// The 16-byte window of [`SHIFT`] at `at` (at most 32).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn window(at: usize) -> __m128i {
        let w: &[u8; 16] = SHIFT[at..at + 16].try_into().expect("window inside SHIFT");
        // SAFETY: `w` is 16 readable bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(w.as_ptr() as *const __m128i) }
    }

    /// Folds in a partial last chunk of `tail` (1 to 15) bytes. The
    /// message ends `s ‖ t`, so its last 16 bytes are `s[tail..] ‖ t`:
    /// `end` holds them with stale bytes in place of `s[tail..]`. The
    /// `tail` bytes of `s` before them, zero-padded in front, fold 128
    /// bits forward with `k128`. Registers hold their 16 message bytes in
    /// order, or reversed where `BSWAP`, so the windows mirror.
    #[inline]
    #[target_feature(
        enable = "pclmulqdq",
        enable = "sse2",
        enable = "ssse3",
        enable = "sse4.1"
    )]
    fn shift_in<const BSWAP: bool>(
        s: __m128i,
        end: __m128i,
        tail: usize,
        k128: __m128i,
    ) -> __m128i {
        debug_assert!((1..16).contains(&tail));
        // `head` moves the first `tail` message bytes of `s` to the end of
        // a block, zeros before them; `rest` moves the others to its
        // start. `head`'s high bits also mark where `end`'s stale bytes
        // lie.
        let (head, rest) = if BSWAP {
            (window(32 - tail), window(16 - tail))
        } else {
            (window(tail), window(16 + tail))
        };
        let last = _mm_blendv_epi8(end, _mm_shuffle_epi8(s, rest), head);
        _mm_xor_si128(fold1(_mm_shuffle_epi8(s, head), k128), last)
    }

    /// The 128-bit kernel; folds in the order of `fold_generic` and
    /// returns the residue in register layout.
    ///
    /// # Safety
    ///
    /// The CPU must pass [`super::hardware_available`], and `bytes` must
    /// hold at least [`MIN_FOLD`] bytes.
    #[target_feature(
        enable = "pclmulqdq",
        enable = "sse2",
        enable = "ssse3",
        enable = "sse4.1"
    )]
    unsafe fn fold<const BSWAP: bool>(keys: &Keys, state: u64, bytes: &[u8]) -> __m128i {
        let n = bytes.len();
        debug_assert!(n >= MIN_FOLD);
        // The state XORs into the first 8 message bytes: the low lane when
        // reflected, the high lane after the byte reversal.
        let state = if BSWAP {
            _mm_set_epi64x(state as i64, 0)
        } else {
            _mm_set_epi64x(0, state as i64)
        };
        let k128 = key::<BSWAP>(keys.k[1]);
        let mut s = _mm_xor_si128(load::<BSWAP>(bytes, 0), state);
        let mut pos = 16usize;
        if n >= QUAD_FOLD {
            let k512 = key::<BSWAP>(keys.k[4]);
            let mut a0 = s;
            let mut a1 = load::<BSWAP>(bytes, 16);
            let mut a2 = load::<BSWAP>(bytes, 32);
            let mut a3 = load::<BSWAP>(bytes, 48);
            pos = 64;
            while pos + 64 <= n {
                a0 = _mm_xor_si128(fold1(a0, k512), load::<BSWAP>(bytes, pos));
                a1 = _mm_xor_si128(fold1(a1, k512), load::<BSWAP>(bytes, pos + 16));
                a2 = _mm_xor_si128(fold1(a2, k512), load::<BSWAP>(bytes, pos + 32));
                a3 = _mm_xor_si128(fold1(a3, k512), load::<BSWAP>(bytes, pos + 48));
                pos += 64;
            }
            s = _mm_xor_si128(
                _mm_xor_si128(
                    fold1(a0, key::<BSWAP>(keys.k[3])),
                    fold1(a1, key::<BSWAP>(keys.k[2])),
                ),
                _mm_xor_si128(fold1(a2, k128), a3),
            );
        }
        while pos + 16 <= n {
            s = _mm_xor_si128(fold1(s, k128), load::<BSWAP>(bytes, pos));
            pos += 16;
        }
        let tail = n - pos;
        if tail > 0 {
            s = shift_in::<BSWAP>(s, load::<BSWAP>(bytes, n - 16), tail, k128);
        }
        s
    }

    /// GF2P8AFFINEQB matrix reversing the bit order of every byte.
    const BIT_REVERSE: i64 = 0x8040_2010_0804_0201_u64 as i64;

    /// Loads 64 message bytes, XORed with `with`, as four 128-bit lanes
    /// in reflected layout; non-reflected (`BITREV`) bytes get their bit
    /// order reversed, which turns them into the reflected message of the
    /// same polynomial.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "gfni")]
    unsafe fn load4<const BITREV: bool>(bytes: &[u8], pos: usize, with: __m512i) -> __m512i {
        debug_assert!(pos + 64 <= bytes.len());
        let v = _mm512_loadu_si512(bytes.as_ptr().add(pos) as *const __m512i);
        let v = _mm512_xor_si512(v, with);
        if BITREV {
            _mm512_gf2p8affine_epi64_epi8::<0>(v, _mm512_set1_epi64(BIT_REVERSE))
        } else {
            v
        }
    }

    /// The 16-byte form of [`load4`], for the 512-bit kernel's tail.
    #[inline]
    #[target_feature(enable = "sse2", enable = "gfni")]
    unsafe fn load1<const BITREV: bool>(bytes: &[u8], pos: usize) -> __m128i {
        debug_assert!(pos + 16 <= bytes.len());
        let v = _mm_loadu_si128(bytes.as_ptr().add(pos) as *const __m128i);
        if BITREV {
            _mm_gf2p8affine_epi64_epi8::<0>(v, _mm_set1_epi64x(BIT_REVERSE))
        } else {
            v
        }
    }

    /// Folds four lanes forward by `k`'s distance and XORs in `data`.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
    fn fold4_xor(acc: __m512i, k: __m512i, data: __m512i) -> __m512i {
        _mm512_ternarylogic_epi64::<0x96>(
            _mm512_clmulepi64_epi128::<0x00>(acc, k),
            _mm512_clmulepi64_epi128::<0x11>(acc, k),
            data,
        )
    }

    /// The 4×512-bit kernel: sixteen 128-bit lanes stride 256 bytes per
    /// step. It runs every algorithm in the reflected domain (`keys` is
    /// the reflected schedule): non-reflected bytes are bit-reversed on
    /// load — a GFNI affine, which unlike a byte shuffle leaves the
    /// carryless multiplier's execution port alone — and their residue is
    /// turned back into the 128-bit kernel's register layout on the way
    /// out. The residue is congruent to the 128-bit kernel's modulo `G`
    /// but not equal to it, because it folds in a different order.
    ///
    /// # Safety
    ///
    /// The CPU must pass [`super::wide_available`], and `bytes` must hold
    /// at least [`WIDE_FOLD`] bytes.
    #[target_feature(
        enable = "avx512f",
        enable = "vpclmulqdq",
        enable = "gfni",
        enable = "pclmulqdq",
        enable = "sse4.1",
        enable = "ssse3"
    )]
    unsafe fn fold_wide<const BITREV: bool>(keys: &Keys, state: u64, bytes: &[u8]) -> __m128i {
        let n = bytes.len();
        assert!(n >= WIDE_FOLD);
        let key4 = |k: (u64, u64)| {
            _mm512_set_epi64(
                k.1 as i64, k.0 as i64, k.1 as i64, k.0 as i64, k.1 as i64, k.0 as i64, k.1 as i64,
                k.0 as i64,
            )
        };
        // The state XORs into the first 8 message bytes: little-endian
        // when reflected, big-endian (then bit-reversed with the data)
        // otherwise.
        let state = if BITREV { state.swap_bytes() } else { state };
        let zero = _mm512_setzero_si512();
        let mut z0 = load4::<BITREV>(
            bytes,
            0,
            _mm512_zextsi128_si512(_mm_set_epi64x(0, state as i64)),
        );
        let mut z1 = load4::<BITREV>(bytes, 64, zero);
        let mut z2 = load4::<BITREV>(bytes, 128, zero);
        let mut z3 = load4::<BITREV>(bytes, 192, zero);
        let mut pos = 256usize;
        let k2048 = key4(keys.k[16]);
        while pos + 256 <= n {
            z0 = fold4_xor(z0, k2048, load4::<BITREV>(bytes, pos, zero));
            z1 = fold4_xor(z1, k2048, load4::<BITREV>(bytes, pos + 64, zero));
            z2 = fold4_xor(z2, k2048, load4::<BITREV>(bytes, pos + 128, zero));
            z3 = fold4_xor(z3, k2048, load4::<BITREV>(bytes, pos + 192, zero));
            pos += 256;
        }
        // Every step below is one fold deep, not one per remaining
        // block: the last whole 64-byte blocks (up to three) advance the
        // accumulators they would have reached next, leaving them in
        // rotated message order; the four lanes and the 16-byte chunks
        // (up to three) then fold straight to the end of the last whole
        // chunk; a final partial chunk shifts in last.
        let next = |z: __m512i, at: usize| fold4_xor(z, k2048, load4::<BITREV>(bytes, at, zero));
        let (z0, z1, z2, z3) = match (n - pos) / 64 {
            0 => (z0, z1, z2, z3),
            1 => (z1, z2, z3, next(z0, pos)),
            2 => (z2, z3, next(z0, pos), next(z1, pos + 64)),
            _ => (z3, next(z0, pos), next(z1, pos + 64), next(z2, pos + 128)),
        };
        pos += (n - pos) / 64 * 64;
        let z = _mm512_xor_si512(
            fold4_xor(z0, key4(keys.k[12]), fold4_xor(z1, key4(keys.k[8]), z3)),
            fold4_xor(z2, key4(keys.k[4]), zero),
        );
        // Each 16-byte unit folds by its distance to the end of the last
        // whole chunk, `t` units of 128 bits; the last unit needs none.
        let chunks = (n - pos) / 16;
        let key = key::<false>;
        let unit = |v: __m128i, t: usize| {
            if t == 0 {
                v
            } else {
                fold1(v, key(keys.k[t]))
            }
        };
        let mut s = _mm_xor_si128(
            _mm_xor_si128(
                unit(_mm512_extracti32x4_epi32::<0>(z), chunks + 3),
                unit(_mm512_extracti32x4_epi32::<1>(z), chunks + 2),
            ),
            _mm_xor_si128(
                unit(_mm512_extracti32x4_epi32::<2>(z), chunks + 1),
                unit(_mm512_extracti32x4_epi32::<3>(z), chunks),
            ),
        );
        for i in 0..chunks {
            let chunk = load1::<BITREV>(bytes, pos + 16 * i);
            s = _mm_xor_si128(s, unit(chunk, chunks - 1 - i));
        }
        pos += 16 * chunks;
        let tail = n - pos;
        if tail > 0 {
            s = shift_in::<false>(s, load1::<BITREV>(bytes, n - 16), tail, key(keys.k[1]));
        }
        if BITREV {
            // All 128 bits reversed: bits within bytes, then the bytes.
            let s = _mm_gf2p8affine_epi64_epi8::<0>(s, _mm_set1_epi64x(BIT_REVERSE));
            _mm_shuffle_epi8(s, reverse_bytes())
        } else {
            s
        }
    }
}

#[cfg(all(feature = "clmul", target_arch = "aarch64"))]
mod aarch64 {
    #![allow(unsafe_code)]

    /// `pmull`-backed multiplier for the shared scalar kernel.
    pub(super) struct Pmull;

    impl super::Backend for Pmull {
        #[inline(always)]
        fn mul(a: u64, b: u64) -> u128 {
            // SAFETY: this backend is only selected after runtime
            // detection of the `aes` feature set (which carries PMULL).
            unsafe { mul_p64(a, b) }
        }
    }

    #[inline]
    #[target_feature(enable = "aes")]
    unsafe fn mul_p64(a: u64, b: u64) -> u128 {
        std::arch::aarch64::vmull_p64(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, Crc, EngineKind};

    /// Second, independent software multiply to validate `Soft::mul`.
    fn mul_naive(a: u64, b: u64) -> u128 {
        let mut acc = 0u128;
        for i in 0..64 {
            if b >> i & 1 == 1 {
                acc ^= (a as u128) << i;
            }
        }
        acc
    }

    #[test]
    fn soft_multiply_matches_naive() {
        let mut rng = gf2poly::SplitMix64::new(0x1234_5678_9ABC_DEF0);
        for _ in 0..200 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            assert_eq!(Soft::mul(a, b), mul_naive(a, b));
        }
        assert_eq!(Soft::mul(0, 0xFFFF), 0);
        assert_eq!(Soft::mul(u64::MAX, 1), u64::MAX as u128);
    }

    const PARAMS: [CrcParams; 6] = [
        catalog::CRC32_ISO_HDLC, // reflected
        catalog::CRC32_BZIP2,    // unreflected
        catalog::CRC64_XZ,       // reflected, width 64
        catalog::CRC64_ECMA_182, // unreflected, width 64
        catalog::CRC16_ARC,      // reflected, narrow
        catalog::CRC24_OPENPGP,  // unreflected, odd width
    ];

    #[test]
    fn portable_kernel_matches_slicing_engine() {
        // The portable kernel, and the reduction alone below 16 bytes,
        // must agree with slicing-by-16 from any incoming state,
        // regardless of what the host CPU supports.
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 131 + 7) as u8).collect();
        for params in PARAMS {
            let slice = Crc::try_with_engine(params, EngineKind::Slice16).unwrap();
            let keys = Powers::new::<Soft>(&params).keys(params.refin);
            let lengths = (0..=80).chain([127, 128, 129, 255, 256, 1024, 4096]);
            for len in lengths {
                let bytes = &data[..len];
                for state in [
                    slice.init,
                    0,
                    !0 >> (64 - params.width),
                    0x5A5A_A5A5_1234_8765,
                ] {
                    let state = if params.refin {
                        state & params.mask()
                    } else {
                        state << (64 - params.width)
                    };
                    assert_eq!(
                        update_generic::<Soft>(&keys, params.refin, state, bytes),
                        slice.update_raw(state, bytes),
                        "{} len {len} state {state:#x}",
                        params.name
                    );
                }
            }
        }
    }

    #[test]
    fn hardware_and_portable_kernels_agree() {
        if !hardware_available() {
            return; // hardware path covered only where it exists
        }
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 89 + 3) as u8).collect();
        for params in PARAMS {
            let ft = FoldTable::new(&params);
            let keys = &ft.keys;
            let lengths = (0..=80).chain([96, 100, 127, 128, 255, 256, 257, 271, 272]);
            let lengths = lengths.chain([319, 320, 383, 447, 511, 512, 777, 1514, 2048]);
            for len in lengths {
                let bytes = &data[..len];
                for state in [0, 0x0123_4567_89AB_CDEF_u64] {
                    let state = if params.refin {
                        state & params.mask()
                    } else {
                        state << (64 - params.width)
                    };
                    // The 128-bit kernel folds in the portable kernel's
                    // order: equal residues.
                    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
                    if len >= MIN_FOLD {
                        assert_eq!(
                            x86::fold_detected(keys, params.refin, state, bytes),
                            fold_generic::<Soft>(keys, params.refin, state, bytes),
                            "{} len {len}",
                            params.name
                        );
                    }
                    // The 512-bit kernel, where the host has it, folds in
                    // another order: its residue is only congruent, so
                    // compare raw states.
                    assert_eq!(
                        update(&ft, params.refin, state, bytes),
                        update_generic::<Soft>(keys, params.refin, state, bytes),
                        "{} len {len}",
                        params.name
                    );
                }
            }
        }
    }
}
