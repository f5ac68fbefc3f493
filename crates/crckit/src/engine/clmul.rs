//! The carryless-multiply folding tier.
//!
//! Data reduces through 128-bit *folding*: a 128-bit accumulator slides
//! down the message, each step folded `D` bits forward by two 64×64
//! carryless multiplies against `x^k mod G` constants
//! ([`super::fold::FoldTable`]) and XORed with the next 16 bytes. By
//! input length:
//!
//! * under [`MIN_FOLD`] bytes the slicing engine runs alone — the fold
//!   set-up and drain cost more than they save;
//! * from [`MIN_FOLD`] four accumulators stride 64 bytes per step and
//!   combine into one before the 16-byte tail steps;
//! * from [`WIDE_FOLD`], on x86_64 hosts with AVX-512 VPCLMULQDQ and
//!   GFNI, four 512-bit accumulators (sixteen 128-bit lanes) stride 256
//!   bytes per step; the remaining whole blocks and chunks each fold in
//!   one step, in parallel instead of one after another, and a partial
//!   last chunk shifts in, so no byte tail is left.
//!
//! The final 128-bit residue — by construction congruent to the whole
//! processed prefix modulo `G` — is serialized back into 16 *virtual
//! message bytes* and drained through the slicing engine together with
//! any byte tail. That drain costs a constant ≤ 31 bytes of table work
//! and sidesteps a per-polynomial Barrett reduction entirely.
//!
//! Non-reflected algorithms run the same kernel bodies. In the 128-bit
//! kernel one byte-reversing shuffle per 16-byte block turns big-endian
//! message order into the register layout the reflected path loads
//! natively, and the key vectors swap lanes to match. The 512-bit kernel
//! instead reverses the bits of every byte (one GFNI affine per 64
//! bytes), which turns the message into the reflected message of the
//! same polynomial: a byte shuffle there competes with VPCLMULQDQ for
//! one execution port and held CRC-32/BZIP2 to 0.71× of CRC-32/ISO-HDLC
//! at 64 KiB on a 2-core AVX-512 Xeon, the affine to 0.98×.
//!
//! Three multipliers implement the 128-bit fold:
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
//! Correctness of the drain rests on two facts the test suite pins down:
//! from a zero raw state the slicing engine's state is a function of the
//! message polynomial modulo `G` alone, and an incoming state XORs into
//! the first 8 message bytes (both directions of the Rocksoft reflection
//! convention).

use super::fold::{FoldTable, Keys};
use super::Crc;

/// Shortest input the fold runs on (one 64-byte block for the four
/// accumulators); shorter inputs go straight to slicing-by-16.
pub(crate) const MIN_FOLD: usize = 64;

/// Shortest input the 4×512-bit loop runs on, where the host has it.
#[cfg_attr(not(all(feature = "clmul", target_arch = "x86_64")), allow(dead_code))]
const WIDE_FOLD: usize = 256;

/// Whether this host can run the fold on dedicated instructions.
pub(crate) fn hardware_available() -> bool {
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    {
        return std::is_x86_feature_detected!("pclmulqdq")
            && std::is_x86_feature_detected!("ssse3");
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

/// Advances a raw state over `bytes` (at least [`MIN_FOLD`] of them) on
/// the CLMUL tier.
pub(crate) fn update(crc: &Crc, ft: &FoldTable, state: u64, bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() >= MIN_FOLD);
    let refin = crc.params().refin;
    let (virt, consumed) = fold_bulk(ft, refin, state, bytes);
    let mid = crc.update_slice16_raw(0, &virt);
    crc.update_raw(mid, &bytes[consumed..])
}

/// Folds the whole 16-byte chunks of `bytes` (at least [`MIN_FOLD`]
/// bytes; the 512-bit kernel also shifts in a partial last chunk), with
/// `state` pre-XORed into the first 8 message bytes. Returns the 16 virtual
/// message bytes the residue serializes to, and how many input bytes
/// were consumed.
fn fold_bulk(ft: &FoldTable, refin: bool, state: u64, bytes: &[u8]) -> ([u8; 16], usize) {
    #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
    if hardware_available() {
        // `wide` is only derived where the 512-bit kernel can run.
        return match &ft.wide {
            Some(wide) if bytes.len() >= WIDE_FOLD => {
                x86::fold_wide_detected(wide, refin, state, bytes)
            }
            _ => x86::fold_detected(&ft.keys, refin, state, bytes),
        };
    }
    #[cfg(all(feature = "clmul", target_arch = "aarch64"))]
    if hardware_available() {
        return fold_generic::<aarch64::Pmull>(&ft.keys, refin, state, bytes);
    }
    fold_generic::<Soft>(&ft.keys, refin, state, bytes)
}

/// A 64×64→127-bit carryless multiply provider.
trait Backend {
    fn mul(a: u64, b: u64) -> u128;
}

/// Portable software carryless multiply (one shift-XOR per set bit of the
/// constant — folding constants average width/2 bits).
struct Soft;

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
#[derive(Clone, Copy)]
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

/// The shared scalar folding kernel, generic over the multiplier. It
/// folds in exactly the order of the x86 128-bit kernel, so the two
/// return equal residues, not merely congruent ones.
fn fold_generic<B: Backend>(
    keys: &Keys,
    refin: bool,
    state: u64,
    bytes: &[u8],
) -> ([u8; 16], usize) {
    debug_assert!(bytes.len() >= MIN_FOLD);
    // In the reflected domain the 127-bit product's low integer bits are
    // the high polynomial degrees; in the normal domain the high bits are.
    let split = |p: u128| -> Acc {
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
    };
    let fold = |acc: Acc, k: (u64, u64)| split(B::mul(acc.hi, k.0) ^ B::mul(acc.lo, k.1));

    let mut acc = [
        load(refin, &bytes[0..16]),
        load(refin, &bytes[16..32]),
        load(refin, &bytes[32..48]),
        load(refin, &bytes[48..64]),
    ];
    acc[0].hi ^= state;
    let mut pos = 64;
    while pos + 64 <= bytes.len() {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = xor(
                fold(*a, keys.k[4]),
                load(refin, &bytes[pos + 16 * i..pos + 16 * i + 16]),
            );
        }
        pos += 64;
    }
    let mut s = xor(
        xor(fold(acc[0], keys.k[3]), fold(acc[1], keys.k[2])),
        xor(fold(acc[2], keys.k[1]), acc[3]),
    );
    while pos + 16 <= bytes.len() {
        s = xor(fold(s, keys.k[1]), load(refin, &bytes[pos..pos + 16]));
        pos += 16;
    }
    (serialize(refin, s), pos)
}

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

    use super::super::fold::Keys;
    use std::arch::x86_64::*;

    /// Whether the 4×512-bit kernel can run: 512-bit carryless
    /// multiplies, plus GFNI for the bit reversal of non-reflected bytes.
    pub(super) fn wide_available() -> bool {
        std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("vpclmulqdq")
            && std::is_x86_feature_detected!("gfni")
    }

    /// Safe wrapper for the 128-bit kernel: callers guarantee
    /// [`super::hardware_available`] returned true.
    pub(super) fn fold_detected(
        keys: &Keys,
        refin: bool,
        state: u64,
        bytes: &[u8],
    ) -> ([u8; 16], usize) {
        // SAFETY: only reached after detecting pclmulqdq and ssse3.
        unsafe {
            if refin {
                fold::<false>(keys, state, bytes)
            } else {
                fold::<true>(keys, state, bytes)
            }
        }
    }

    /// Safe wrapper for the 512-bit kernel: callers guarantee
    /// [`super::wide_available`] returned true. `keys` is the
    /// reflected-domain schedule.
    pub(super) fn fold_wide_detected(
        keys: &Keys,
        refin: bool,
        state: u64,
        bytes: &[u8],
    ) -> ([u8; 16], usize) {
        assert!(bytes.len() >= super::WIDE_FOLD);
        // SAFETY: only reached after detecting every enabled feature.
        unsafe {
            if refin {
                fold_wide::<false>(keys, state, bytes)
            } else {
                fold_wide::<true>(keys, state, bytes)
            }
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

    /// Stores a register as 16 bytes, lane 0 first.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn store(s: __m128i) -> [u8; 16] {
        let mut out = [0u8; 16];
        // SAFETY: `out` is 16 writable bytes; the store is unaligned.
        unsafe { _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, s) };
        out
    }

    /// The 128-bit kernel; folds in the order of `fold_generic`.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "ssse3")]
    pub(super) unsafe fn fold<const BSWAP: bool>(
        keys: &Keys,
        state: u64,
        bytes: &[u8],
    ) -> ([u8; 16], usize) {
        let n = bytes.len();
        debug_assert!(n >= super::MIN_FOLD);
        // The state XORs into the first 8 message bytes: the low lane when
        // reflected, the high lane after the byte reversal.
        let state = if BSWAP {
            _mm_set_epi64x(state as i64, 0)
        } else {
            _mm_set_epi64x(0, state as i64)
        };
        let k512 = key::<BSWAP>(keys.k[4]);
        let mut a0 = _mm_xor_si128(load::<BSWAP>(bytes, 0), state);
        let mut a1 = load::<BSWAP>(bytes, 16);
        let mut a2 = load::<BSWAP>(bytes, 32);
        let mut a3 = load::<BSWAP>(bytes, 48);
        let mut pos = 64usize;
        while pos + 64 <= n {
            a0 = _mm_xor_si128(fold1(a0, k512), load::<BSWAP>(bytes, pos));
            a1 = _mm_xor_si128(fold1(a1, k512), load::<BSWAP>(bytes, pos + 16));
            a2 = _mm_xor_si128(fold1(a2, k512), load::<BSWAP>(bytes, pos + 32));
            a3 = _mm_xor_si128(fold1(a3, k512), load::<BSWAP>(bytes, pos + 48));
            pos += 64;
        }
        let k128 = key::<BSWAP>(keys.k[1]);
        let mut s = _mm_xor_si128(
            _mm_xor_si128(
                fold1(a0, key::<BSWAP>(keys.k[3])),
                fold1(a1, key::<BSWAP>(keys.k[2])),
            ),
            _mm_xor_si128(fold1(a2, k128), a3),
        );
        while pos + 16 <= n {
            s = _mm_xor_si128(fold1(s, k128), load::<BSWAP>(bytes, pos));
            pos += 16;
        }
        // Non-reflected: the reversal back gives the big-endian halves.
        let s = if BSWAP {
            _mm_shuffle_epi8(s, reverse_bytes())
        } else {
            s
        };
        (store(s), pos)
    }

    /// `pshufb` index windows for the partial last chunk: 16 bytes at
    /// `tail` move the first `tail` bytes of a register to its end
    /// (zeros before them); 16 bytes at `16 + tail` move the rest to its
    /// start. The first window's high bits also mark the bytes it zeroes.
    const SHIFT: [u8; 48] = {
        let mut t = [0x80u8; 48];
        let mut i = 0;
        while i < 16 {
            t[16 + i] = i as u8;
            i += 1;
        }
        t
    };

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
    /// carryless multiplier's execution port alone — and the residue's
    /// bytes are bit-reversed back on the way out. Its residue is
    /// congruent to the 128-bit kernel's modulo `G` but not equal to it,
    /// because it folds in a different order.
    #[target_feature(
        enable = "avx512f",
        enable = "vpclmulqdq",
        enable = "gfni",
        enable = "pclmulqdq",
        enable = "sse4.1"
    )]
    pub(super) unsafe fn fold_wide<const BITREV: bool>(
        keys: &Keys,
        state: u64,
        bytes: &[u8],
    ) -> ([u8; 16], usize) {
        let n = bytes.len();
        debug_assert!(n >= super::WIDE_FOLD);
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
            // The message now ends `s ‖ t` with `tail` bytes `t`. Its
            // last 16 bytes are `s[tail..] ‖ t`; the `tail` bytes of `s`
            // before them, zero-padded in front, fold 128 bits forward.
            // Both index windows lie inside `SHIFT` because `tail < 16`.
            let head = _mm_loadu_si128(SHIFT.as_ptr().add(tail) as *const __m128i);
            let rest = _mm_loadu_si128(SHIFT.as_ptr().add(16 + tail) as *const __m128i);
            let last = _mm_blendv_epi8(
                load1::<BITREV>(bytes, n - 16),
                _mm_shuffle_epi8(s, rest),
                head,
            );
            s = _mm_xor_si128(fold1(_mm_shuffle_epi8(s, head), key(keys.k[1])), last);
            pos = n;
        }
        // Reflected-domain virtual bytes; bit-reversed, they are the
        // normal-domain message of the same residue.
        let s = if BITREV {
            _mm_gf2p8affine_epi64_epi8::<0>(s, _mm_set1_epi64x(BIT_REVERSE))
        } else {
            s
        };
        (store(s), pos)
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
    use super::super::EngineKind;
    use super::*;
    use crate::catalog;

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

    #[test]
    fn portable_fold_matches_slicing_engine() {
        // The portable kernel must agree with slice-8 regardless of what
        // the host CPU supports.
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 131 + 7) as u8).collect();
        for params in [
            catalog::CRC32_ISO_HDLC, // reflected
            catalog::CRC32_BZIP2,    // unreflected
            catalog::CRC64_XZ,       // reflected, width 64
            catalog::CRC64_ECMA_182, // unreflected, width 64
            catalog::CRC16_ARC,      // reflected, narrow
            catalog::CRC24_OPENPGP,  // unreflected, odd width
        ] {
            let crc = crate::Crc::new(params);
            let keys = &crc.fold.keys;
            for len in [64usize, 65, 79, 80, 127, 128, 129, 255, 256, 1024, 4096] {
                let bytes = &data[..len];
                let state = crc.init_raw();
                let (virt, consumed) = fold_generic::<Soft>(keys, params.refin, state, bytes);
                let mid = crc.update_raw(0, &virt);
                let folded = crc.update_raw(mid, &bytes[consumed..]);
                let expected = crc.update_raw(state, bytes);
                assert_eq!(
                    crc.finalize_raw(folded),
                    crc.finalize_raw(expected),
                    "{} len {len}",
                    params.name
                );
            }
        }
    }

    #[test]
    fn hardware_and_portable_kernels_agree() {
        if !hardware_available() {
            return; // hardware path covered only where it exists
        }
        let data: Vec<u8> = (0..2048u32).map(|i| (i * 89 + 3) as u8).collect();
        for params in [
            catalog::CRC32_ISO_HDLC,
            catalog::CRC32_BZIP2,
            catalog::CRC64_XZ,
            catalog::CRC64_ECMA_182,
        ] {
            let crc = crate::Crc::new(params);
            let ft = &crc.fold;
            let keys = &ft.keys;
            let lengths = [64usize, 65, 96, 100, 127, 128, 255, 256, 257, 271, 272];
            let lengths = lengths
                .into_iter()
                .chain([319, 320, 383, 447, 511, 512, 777, 1514, 2048]);
            for len in lengths {
                let state = crc.init_raw();
                let bytes = &data[..len];
                let sw = fold_generic::<Soft>(keys, params.refin, state, bytes);
                // The 128-bit kernel folds in the portable kernel's order:
                // equal residues.
                #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
                let hw = x86::fold_detected(keys, params.refin, state, bytes);
                #[cfg(not(all(feature = "clmul", target_arch = "x86_64")))]
                let hw = fold_bulk(ft, params.refin, state, bytes);
                assert_eq!(hw, sw, "{} len {len}", params.name);
                // The 512-bit kernel folds in another order: its residue
                // is only congruent, so compare checksums.
                #[cfg(all(feature = "clmul", target_arch = "x86_64"))]
                if let Some(wide) = ft.wide.as_ref().filter(|_| len >= WIDE_FOLD) {
                    let (virt, consumed) =
                        x86::fold_wide_detected(wide, params.refin, state, bytes);
                    // It also shifts in a partial last chunk.
                    assert_eq!(consumed, len, "{} len {len}", params.name);
                    let wide = crc.finalize_raw(crc.update_raw(0, &virt));
                    assert_eq!(
                        wide,
                        crc.checksum_bitwise(bytes),
                        "{} len {len}",
                        params.name
                    );
                }
            }
        }
    }

    #[test]
    fn clmul_tier_handles_short_inputs_via_slicing() {
        let crc = crate::Crc::new(catalog::CRC32_ISCSI);
        for len in 0..MIN_FOLD {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(
                crc.checksum_with(EngineKind::Clmul, &data),
                crc.checksum_bitwise(&data),
                "len {len}"
            );
        }
    }
}
