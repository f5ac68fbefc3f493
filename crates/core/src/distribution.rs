//! Exact full weight distributions `W₀..W_{n+r}` at any data length —
//! the transfer-matrix layer that turns the paper's truncated `W₂–W₄`
//! P_ud into an exact quantity at every weight and BER.
//!
//! # The recursion
//!
//! A pattern `x^{i₁}+…+x^{iₖ}` of length `L = n + r` is a codeword
//! exactly when its syndromes XOR to zero, so the code is the kernel of
//! the parity-check matrix whose column `t` is `r(t) = x^t mod G` — the
//! same syndrome sequence every other oracle in this crate walks. Its
//! *dual* code is therefore directly enumerable: for each `a ∈ 𝔽₂^r`
//! the dual word has bit `t` equal to `parity(a & r(t))`, and the dual
//! weight histogram `B₀..B_L` (with `Σ Bᵢ = 2^r`) follows from one
//! sweep over the `2^r` masks. The MacWilliams identity then transfers
//! `B` to the code's own distribution,
//!
//! ```text
//! W(x) = 2^{-r} · Σᵢ Bᵢ (1-x)^i (1+x)^{L-i},
//! ```
//!
//! evaluated as a Horner recursion over `i` — one polynomial
//! state-update per length step, which is what makes the computation
//! iterative in `L` rather than exponential in `n`.
//!
//! # Word-parallel state updates
//!
//! Both halves run on the crate's bitsliced GF(2) kernels:
//!
//! * The syndrome table grows through [`crate::bitslice::PlaneState`]
//!   (64 positions per anchor step, one [`gf2poly::ModCtx`] multiply
//!   each) past the serial
//!   [`crate::bitslice::BASIS_PREFIX`].
//! * For widths ≤ [`FWHT_MAX_WIDTH`] the dual sweep collapses to a
//!   syndrome histogram plus an in-place fast Walsh–Hadamard transform
//!   (`Σₜ (−1)^{a·r(t)} = L − 2·weight(a)`): `r·2^r` adds, independent
//!   of `L`. Wider generators run the dual sweep 64 masks at a time:
//!   a 64-entry parity table over the low mask bits turns each column
//!   into one bit-plane, planes ripple into carry-save counters, and
//!   [`crate::bitslice::transpose64`] extracts the 64 lane weights.
//!
//! # Exact counts past `u128`
//!
//! MacWilliams intermediates reach `2^{r+L}` even when the final counts
//! fit a machine word, so the transfer runs entirely in [`Nat`], a
//! minimal arbitrary-precision unsigned integer (the big-integer escape
//! for lengths where `2ⁿ` overflows `u128`). [`WeightDistribution`]
//! exposes a `u128` view when the counts fit and the exact [`Nat`] view
//! always; [`WeightDistribution::p_ud`] folds the counts through an
//! extended-exponent float (an `f64` mantissa with an `i64` binary
//! exponent, IEEE-rounded ops only — no `powi`, no libm) so undetected
//! fractions far below `1e-300` come back finite and deterministic.
//!
//! The module is self-verifying: the MacWilliams division by `2^r` must
//! be exact, `W₀` must be exactly one (the zero word, which the public
//! counts then exclude, matching [`crate::spectrum::WeightSpectrum`]),
//! and the counts must sum to `2ⁿ − 1`. Any violation panics rather
//! than returning silently wrong counts.

use crate::bitslice::{transpose64, PlaneState, BASIS_PREFIX};
use crate::spectrum::WeightSpectrum;
use crate::syndrome::SyndromeSeq;
use crate::{Error, Result};
use gf2poly::GenPoly;
use std::cmp::Ordering;
use std::fmt;

/// Widest generator the histogram-plus-FWHT dual sweep handles; the
/// transform table is `2^width` machine words (8 MiB at 20), beyond
/// which the 64-lane bitsliced mask sweep wins on memory.
pub const FWHT_MAX_WIDTH: u32 = 20;

/// Default work budget for [`distribution`]: covers every width ≤ 16
/// generator to the Ethernet MTU and the 32-bit generators to a few
/// hundred data bits, while refusing sweeps that would run for hours.
pub const DEFAULT_OP_LIMIT: u128 = 1 << 35;

// ---------------------------------------------------------------------
// Nat: minimal arbitrary-precision unsigned integer
// ---------------------------------------------------------------------

/// Arbitrary-precision unsigned integer: little-endian `u64` limbs with
/// no trailing zero limbs (zero is the empty limb vector).
///
/// Deliberately minimal — just the operations the exact distribution
/// transfer and the census extrapolation need (add, subtract, scalar
/// multiply, shifts, small divmod, decimal rendering). No external
/// big-integer crate is involved, so results are identical on every
/// host.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct Nat {
    limbs: Vec<u64>,
}

impl Nat {
    /// Zero.
    pub fn zero() -> Nat {
        Nat { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Nat {
        Nat { limbs: vec![1] }
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Nat {
        let mut n = Nat { limbs: vec![v] };
        n.norm();
        n
    }

    /// From a `u128`.
    pub fn from_u128(v: u128) -> Nat {
        let mut n = Nat {
            limbs: vec![v as u64, (v >> 64) as u64],
        };
        n.norm();
        n
    }

    fn norm(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Bit length: position of the highest set bit plus one (0 for 0).
    pub fn bits(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() as u64 * 64 - u64::from(top.leading_zeros()),
        }
    }

    /// The value as `u128` when it fits.
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u128),
            2 => Some(self.limbs[0] as u128 | (self.limbs[1] as u128) << 64),
            _ => None,
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Nat) {
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, a) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *a = s2;
            carry = u64::from(c1) + u64::from(c2);
            if carry == 0 && i >= other.limbs.len() {
                break;
            }
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// `self -= other`; panics when `other > self`.
    pub fn sub_assign(&mut self, other: &Nat) {
        let mut borrow = 0u64;
        for (i, a) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, c1) = a.overflowing_sub(b);
            let (d2, c2) = d1.overflowing_sub(borrow);
            *a = d2;
            borrow = u64::from(c1) + u64::from(c2);
            if borrow == 0 && i >= other.limbs.len() {
                break;
            }
        }
        assert_eq!(borrow, 0, "Nat subtraction underflow");
        self.norm();
    }

    /// `self * m` for a machine-word scalar.
    #[must_use]
    pub fn mul_small(&self, m: u64) -> Nat {
        let mut out = Nat::zero();
        out.add_mul_small(self, m);
        out
    }

    /// `self += other * m` (fused, one pass).
    pub fn add_mul_small(&mut self, other: &Nat, m: u64) {
        if m == 0 || other.is_zero() {
            return;
        }
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry = 0u128;
        for (i, a) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let t = *a as u128 + b as u128 * m as u128 + carry;
            *a = t as u64;
            carry = t >> 64;
            if carry == 0 && i >= other.limbs.len() {
                break;
            }
        }
        while carry != 0 {
            self.limbs.push(carry as u64);
            carry >>= 64;
        }
    }

    /// `self <<= k` bits.
    pub fn shl_bits(&mut self, k: usize) {
        if self.is_zero() || k == 0 {
            return;
        }
        let (words, bits) = (k / 64, k % 64);
        if bits != 0 {
            let mut carry = 0u64;
            for a in self.limbs.iter_mut() {
                let t = (*a << bits) | carry;
                carry = *a >> (64 - bits);
                *a = t;
            }
            if carry != 0 {
                self.limbs.push(carry);
            }
        }
        if words != 0 {
            let mut v = vec![0u64; words];
            v.extend_from_slice(&self.limbs);
            self.limbs = v;
        }
    }

    /// `self >>= k` bits (shifted-out bits are discarded).
    pub fn shr_bits(&mut self, k: usize) {
        let (words, bits) = (k / 64, k % 64);
        if words >= self.limbs.len() {
            self.limbs.clear();
            return;
        }
        self.limbs.drain(..words);
        if bits != 0 {
            let len = self.limbs.len();
            for i in 0..len {
                let hi = if i + 1 < len { self.limbs[i + 1] } else { 0 };
                self.limbs[i] = (self.limbs[i] >> bits) | (hi << (64 - bits));
            }
        }
        self.norm();
    }

    /// True when the low `k` bits are all zero (exact-division check).
    pub fn low_bits_zero(&self, k: usize) -> bool {
        let (words, bits) = (k / 64, k % 64);
        if self.bits() == 0 {
            return true;
        }
        if self.limbs.len() < words || (bits != 0 && self.limbs.len() == words) {
            // Fewer significant bits than k: zero iff the value is zero,
            // handled above; a short nonzero value still has nonzero low
            // bits only if they overlap its limbs — checked below.
        }
        for &l in self.limbs.iter().take(words) {
            if l != 0 {
                return false;
            }
        }
        if bits != 0 {
            if let Some(&l) = self.limbs.get(words) {
                if l & ((1u64 << bits) - 1) != 0 {
                    return false;
                }
            }
        }
        true
    }

    /// `(self / d, self % d)` for a machine-word divisor.
    pub fn divmod_small(&self, d: u64) -> (Nat, u64) {
        assert!(d != 0, "division by zero");
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = rem << 64 | self.limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        let mut quot = Nat { limbs: q };
        quot.norm();
        (quot, rem as u64)
    }

    /// The 64 bits starting at bit `shift` (little-endian bit order).
    fn extract_u64_at(&self, shift: u64) -> u64 {
        let (word, off) = ((shift / 64) as usize, (shift % 64) as u32);
        let lo = self.limbs.get(word).copied().unwrap_or(0);
        if off == 0 {
            lo
        } else {
            let hi = self.limbs.get(word + 1).copied().unwrap_or(0);
            (lo >> off) | (hi << (64 - off))
        }
    }

    /// Decimal rendering (the JSON artifacts never round big counts
    /// through `f64`).
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.divmod_small(CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut out = chunks.last().unwrap().to_string();
        for c in chunks.iter().rev().skip(1) {
            out.push_str(&format!("{c:019}"));
        }
        out
    }
}

impl PartialOrd for Nat {
    fn partial_cmp(&self, other: &Nat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Nat {
    fn cmp(&self, other: &Nat) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            ord => ord,
        }
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

// ---------------------------------------------------------------------
// Int: signed wrapper for the MacWilliams intermediates
// ---------------------------------------------------------------------

/// Signed big integer (sign + magnitude); only the MacWilliams Horner
/// recursion needs negatives, so it stays module-private.
#[derive(Debug, Clone)]
struct Int {
    neg: bool,
    mag: Nat,
}

impl Int {
    fn from_u64(v: u64) -> Int {
        Int {
            neg: false,
            mag: Nat::from_u64(v),
        }
    }

    fn neg(mut self) -> Int {
        if !self.mag.is_zero() {
            self.neg = !self.neg;
        }
        self
    }

    fn add_signed(&mut self, other_neg: bool, other_mag: &Nat) {
        if self.neg == other_neg {
            self.mag.add_assign(other_mag);
        } else if self.mag >= *other_mag {
            self.mag.sub_assign(other_mag);
            if self.mag.is_zero() {
                self.neg = false;
            }
        } else {
            let mut m = other_mag.clone();
            m.sub_assign(&self.mag);
            self.mag = m;
            self.neg = other_neg;
        }
    }

    /// `self -= other`.
    fn sub_assign(&mut self, other: &Int) {
        let (neg, mag) = (!other.neg, other.mag.clone());
        self.add_signed(neg && !mag.is_zero(), &mag);
    }

    /// `self += n * m` (a nonnegative quantity).
    fn add_nat_mul_small(&mut self, n: &Nat, m: u64) {
        if !self.neg {
            self.mag.add_mul_small(n, m);
        } else {
            let t = n.mul_small(m);
            self.add_signed(false, &t);
        }
    }
}

// ---------------------------------------------------------------------
// F64x: extended-exponent deterministic float for P_ud
// ---------------------------------------------------------------------

/// `m · 2^e` with `m == 0` or `1 ≤ m < 2`: every operation is a fixed
/// sequence of IEEE exactly-rounded `f64` ops plus integer exponent
/// bookkeeping, so results are bit-identical across hosts and survive
/// exponents far past `f64`'s underflow at `1e-308`.
#[derive(Debug, Clone, Copy)]
struct F64x {
    m: f64,
    e: i64,
}

impl F64x {
    const ZERO: F64x = F64x { m: 0.0, e: 0 };
    const ONE: F64x = F64x { m: 1.0, e: 0 };
    /// 2^64 as an exact `f64`.
    const TWO64: f64 = 18_446_744_073_709_551_616.0;

    /// A power of two `2^k` for `|k| ≤ 1023` via exponent bits (exact).
    fn pow2(k: i64) -> f64 {
        debug_assert!((-1022..=1023).contains(&k));
        f64::from_bits(((k + 1023) as u64) << 52)
    }

    fn from_f64(x: f64) -> F64x {
        debug_assert!(x >= 0.0 && x.is_finite());
        if x == 0.0 {
            return F64x::ZERO;
        }
        let mut x = x;
        let mut e = 0i64;
        // Scaling by 2^64 is exact; one step lifts any subnormal.
        while x < 1.0 {
            x *= F64x::TWO64;
            e -= 64;
        }
        let bits = x.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        F64x {
            m: f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52)),
            e: e + exp,
        }
    }

    fn from_u64(v: u64) -> F64x {
        // u64→f64 conversion is correctly rounded.
        F64x::from_f64(v as f64)
    }

    fn from_nat(n: &Nat) -> F64x {
        let bits = n.bits();
        if bits == 0 {
            return F64x::ZERO;
        }
        if bits <= 64 {
            return F64x::from_u64(n.extract_u64_at(0));
        }
        // Top 64 bits carry the full f64 precision; dropped low bits
        // perturb by < 2⁻⁶⁴ relative.
        let shift = bits - 64;
        let f = F64x::from_u64(n.extract_u64_at(shift));
        F64x {
            m: f.m,
            e: f.e + shift as i64,
        }
    }

    fn mul(self, o: F64x) -> F64x {
        if self.m == 0.0 || o.m == 0.0 {
            return F64x::ZERO;
        }
        let mut m = self.m * o.m; // in [1, 4)
        let mut e = self.e + o.e;
        if m >= 2.0 {
            m *= 0.5; // exact
            e += 1;
        }
        F64x { m, e }
    }

    fn div(self, o: F64x) -> F64x {
        debug_assert!(o.m != 0.0);
        if self.m == 0.0 {
            return F64x::ZERO;
        }
        let mut m = self.m / o.m; // in (1/2, 2)
        let mut e = self.e - o.e;
        if m < 1.0 {
            m *= 2.0; // exact
            e -= 1;
        }
        F64x { m, e }
    }

    fn add(self, o: F64x) -> F64x {
        if self.m == 0.0 {
            return o;
        }
        if o.m == 0.0 {
            return self;
        }
        let (big, small) = if self.e >= o.e { (self, o) } else { (o, self) };
        let d = big.e - small.e;
        if d > 64 {
            return big; // below one ulp of the larger addend
        }
        let mut m = big.m + small.m * F64x::pow2(-d);
        let mut e = big.e;
        if m >= 2.0 {
            m *= 0.5;
            e += 1;
        }
        F64x { m, e }
    }

    fn powu(self, mut n: u64) -> F64x {
        let mut base = self;
        let mut acc = F64x::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            n >>= 1;
        }
        acc
    }

    fn to_f64(self) -> f64 {
        if self.m == 0.0 {
            return 0.0;
        }
        if self.e > 1024 {
            return f64::INFINITY;
        }
        if self.e < -1075 {
            return 0.0;
        }
        // Two half-steps keep each scale factor in pow2's exact range
        // and let subnormals round in gradually.
        let h1 = self.e / 2;
        let h2 = self.e - h1;
        self.m * F64x::pow2(h1) * F64x::pow2(h2)
    }
}

// ---------------------------------------------------------------------
// Dual-code weight histogram
// ---------------------------------------------------------------------

/// Grows the syndrome table `r(0)..r(l-1)` — serially up to the basis
/// prefix, then block-at-a-time through the bitsliced plane kernel.
fn grow_syndromes(g: &GenPoly, l: usize) -> Vec<u64> {
    let mut seq = SyndromeSeq::new(g);
    let mut syn = vec![seq.peek()];
    if l > BASIS_PREFIX {
        seq.extend_table(&mut syn, BASIS_PREFIX - 1);
        let planes = PlaneState::new(g, &syn);
        planes.extend(&mut syn, l - 1);
        syn.truncate(l);
    } else {
        seq.extend_table(&mut syn, l - 1);
    }
    syn
}

/// Dual weight histogram via syndrome histogram + in-place fast
/// Walsh–Hadamard transform: `F(a) = Σₜ (−1)^{a·r(t)} = l − 2·wt(a)`.
fn fwht_histogram(syn: &[u64], width: u32, l: usize) -> Vec<u64> {
    let size = 1usize << width;
    let mut f = vec![0i64; size];
    for &s in syn {
        f[s as usize] += 1;
    }
    let mut h = 1usize;
    while h < size {
        let mut base = 0;
        while base < size {
            for i in base..base + h {
                let (a, b) = (f[i], f[i + h]);
                f[i] = a + b;
                f[i + h] = a - b;
            }
            base += h * 2;
        }
        h *= 2;
    }
    let mut b = vec![0u64; l + 1];
    for &v in &f {
        let diff = l as i64 - v;
        debug_assert_eq!(diff & 1, 0, "l − F(a) is always even");
        b[(diff / 2) as usize] += 1;
    }
    b
}

/// Dual weight histogram by the 64-lane bitsliced mask sweep: lanes are
/// the low 6 bits of the dual mask, groups iterate the high bits, each
/// column contributes one parity bit-plane rippled into carry-save
/// counters, and `transpose64` turns the counter planes back into 64
/// per-lane weights.
fn bitsliced_histogram(syn: &[u64], width: u32, l: usize) -> Vec<u64> {
    debug_assert!(width > 6);
    // par[m]: lane j holds parity(j & m) for the 64 lane indices.
    let mut par = [0u64; 64];
    for (m, slot) in par.iter_mut().enumerate() {
        let mut w = 0u64;
        for j in 0..64u64 {
            w |= u64::from((j & m as u64).count_ones() & 1) << j;
        }
        *slot = w;
    }
    let pre: Vec<(u64, u64)> = syn
        .iter()
        .map(|&s| (par[(s & 63) as usize], s >> 6))
        .collect();
    let planes = (64 - (l as u64).leading_zeros()) as usize; // counts ≤ l
    let mut b = vec![0u64; l + 1];
    let mut cnt = [0u64; 64];
    for gidx in 0u64..1u64 << (width - 6) {
        cnt[..planes].fill(0);
        for &(plane_low, hi) in &pre {
            let base = u64::from((gidx & hi).count_ones() & 1);
            let mut carry = plane_low ^ base.wrapping_neg();
            for c in cnt[..planes].iter_mut() {
                if carry == 0 {
                    break;
                }
                let nc = *c & carry;
                *c ^= carry;
                carry = nc;
            }
            debug_assert_eq!(carry, 0, "counter planes cover weights ≤ l");
        }
        let lanes = transpose64(&cnt);
        for &w in &lanes {
            b[w as usize] += 1;
        }
    }
    b
}

/// The dual-code weight histogram `B₀..B_l` for `g` over codeword
/// length `l` (so `Σ Bᵢ = 2^width`).
fn dual_weight_histogram(g: &GenPoly, l: usize) -> Vec<u64> {
    let syn = grow_syndromes(g, l);
    let b = if g.width() <= FWHT_MAX_WIDTH {
        fwht_histogram(&syn, g.width(), l)
    } else {
        bitsliced_histogram(&syn, g.width(), l)
    };
    debug_assert_eq!(
        b.iter().map(|&x| x as u128).sum::<u128>(),
        1u128 << g.width()
    );
    b
}

// ---------------------------------------------------------------------
// MacWilliams transfer
// ---------------------------------------------------------------------

/// Transfers the dual histogram to the code's weight enumerator via the
/// Horner recursion `S₀ = B_l`, `Sₖ = Sₖ₋₁·(1−x) + B_{l−k}·(1+x)^k`:
/// one state-update per length step, `(1+x)^k` maintained incrementally.
/// Returns `W₀..W_l` (including the zero word at index 0) after the —
/// checked-exact — division by `2^width`.
fn macwilliams(b: &[u64], width: u32) -> Vec<Nat> {
    let l = b.len() - 1;
    let mut acc: Vec<Int> = vec![Int::from_u64(b[l])];
    let mut vpow: Vec<Nat> = vec![Nat::one()];
    for k in 1..=l {
        // (1+x)^k from (1+x)^{k−1}: coefficients pairwise-summed.
        vpow.push(vpow[k - 1].clone());
        for j in (1..k).rev() {
            let (lo, hi) = vpow.split_at_mut(j);
            hi[0].add_assign(&lo[j - 1]);
        }
        // acc ← acc · (1 − x), in place, top coefficient first.
        acc.push(acc[k - 1].clone().neg());
        for j in (1..k).rev() {
            let (lo, hi) = acc.split_at_mut(j);
            hi[0].sub_assign(&lo[j - 1]);
        }
        let coeff = b[l - k];
        if coeff != 0 {
            for (a, v) in acc.iter_mut().zip(vpow.iter()) {
                a.add_nat_mul_small(v, coeff);
            }
        }
    }
    acc.into_iter()
        .map(|v| {
            assert!(
                !v.neg || v.mag.is_zero(),
                "MacWilliams coefficient went negative"
            );
            let mut m = v.mag;
            assert!(
                m.low_bits_zero(width as usize),
                "MacWilliams sum not divisible by 2^width"
            );
            m.shr_bits(width as usize);
            m
        })
        .collect()
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// The exact full weight distribution of a CRC code at one data length:
/// `Wₖ` for every weight `k ∈ 0..=n+r`, as arbitrary-precision counts.
///
/// Index 0 is always 0 — the zero word is excluded, matching
/// [`WeightSpectrum`]'s undetectable-*error* interpretation — so the
/// counts sum to `2ⁿ − 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightDistribution {
    data_len: u32,
    codeword_len: u32,
    counts: Vec<Nat>,
}

impl WeightDistribution {
    /// All counts, indexed by weight.
    pub fn counts(&self) -> &[Nat] {
        &self.counts
    }

    /// `Wₖ` as `u128`: `Some(0)` past the codeword length, `None` when
    /// the exact count overflows `u128` (use [`Self::counts`] then).
    pub fn count_u128(&self, k: u32) -> Option<u128> {
        match self.counts.get(k as usize) {
            None => Some(0),
            Some(n) => n.to_u128(),
        }
    }

    /// Every count as `u128`, when they all fit (always true for
    /// `data_len ≤ 127`).
    pub fn counts_u128(&self) -> Option<Vec<u128>> {
        self.counts.iter().map(Nat::to_u128).collect()
    }

    /// The exact Hamming distance: the smallest nonzero weight present,
    /// or `None` when no nonzero codeword exists.
    pub fn hd(&self) -> Option<u32> {
        self.counts
            .iter()
            .enumerate()
            .skip(1)
            .find(|(_, c)| !c.is_zero())
            .map(|(k, _)| k as u32)
    }

    /// Data-word length `n`.
    pub fn data_len(&self) -> u32 {
        self.data_len
    }

    /// Codeword length `n + r`.
    pub fn codeword_len(&self) -> u32 {
        self.codeword_len
    }

    /// Total number of nonzero codewords (`2ⁿ − 1`).
    pub fn total(&self) -> Nat {
        let mut t = Nat::zero();
        for c in &self.counts {
            t.add_assign(c);
        }
        t
    }

    /// Lowers into the exhaustive-enumeration spectrum type (shared by
    /// every downstream consumer); `None` when a count overflows `u128`.
    pub fn to_spectrum(&self) -> Option<WeightSpectrum> {
        let counts = self.counts_u128()?;
        WeightSpectrum::from_counts(self.data_len, self.codeword_len, counts).ok()
    }

    /// The exact undetected-error probability at bit-error rate `ber`:
    /// `Σₖ Wₖ · berᵏ · (1−ber)^{L−k}` over *every* weight, computed in
    /// extended-exponent arithmetic so values far below `f64`'s
    /// underflow threshold still compare correctly before the final
    /// rounding to `f64`. Deterministic across hosts (IEEE-rounded
    /// `f64` ops and integer exponents only — no `powi`, no libm).
    ///
    /// Returns 0 when `ber` is outside `(0, 1)`.
    pub fn p_ud(&self, ber: f64) -> f64 {
        if !(ber > 0.0 && ber < 1.0) {
            return 0.0;
        }
        let e = F64x::from_f64(ber);
        let q = F64x::from_f64(1.0 - ber);
        let ratio = e.div(q);
        // term starts at q^L and picks up one e/q per weight step.
        let mut term = q.powu(self.codeword_len as u64);
        let mut acc = F64x::ZERO;
        for w in self.counts.iter().skip(1) {
            term = term.mul(ratio);
            if !w.is_zero() {
                acc = acc.add(F64x::from_nat(w).mul(term));
            }
        }
        acc.to_f64()
    }
}

/// Work estimate for a `(width, codeword_len)` distribution run, in
/// word-op units comparable against [`DEFAULT_OP_LIMIT`].
fn cost_estimate(width: u32, l: u128) -> u128 {
    let enumeration = if width <= FWHT_MAX_WIDTH {
        (width as u128) << width
    } else {
        (l << width) / 64
    };
    enumeration + l * l * l / 192
}

/// Computes the exact full weight distribution of `g` at `data_len`
/// under the default work budget ([`DEFAULT_OP_LIMIT`]).
///
/// Unlike [`crate::weights::weights234`] there is no order restriction
/// — lengths past the order of `x` (where syndromes repeat) are fine —
/// and unlike [`crate::spectrum::spectrum`] the cost is polynomial in
/// the data length rather than `2ⁿ`.
///
/// # Errors
///
/// [`Error::BadLength`] for `data_len == 0`;
/// [`Error::UnsupportedWidth`] past width 32 (the dual sweep
/// enumerates `2^width` masks on the bitsliced kernels);
/// [`Error::BudgetExceeded`] when the cost estimate exceeds the budget.
///
/// ```
/// use crc_hd::distribution::distribution;
/// use crc_hd::GenPoly;
/// let g = GenPoly::from_normal(8, 0x07).unwrap();
/// let d = distribution(&g, 10).unwrap();
/// assert_eq!(d.hd(), Some(4));
/// assert_eq!(d.total().to_u128(), Some((1 << 10) - 1));
/// ```
pub fn distribution(g: &GenPoly, data_len: u32) -> Result<WeightDistribution> {
    distribution_with_limit(g, data_len, DEFAULT_OP_LIMIT)
}

/// [`distribution`] with an explicit work budget (word-op estimate).
///
/// # Errors
///
/// As [`distribution`].
pub fn distribution_with_limit(
    g: &GenPoly,
    data_len: u32,
    limit: u128,
) -> Result<WeightDistribution> {
    if data_len == 0 {
        return Err(Error::BadLength("data_len must be at least 1".into()));
    }
    if g.width() > 32 {
        return Err(Error::UnsupportedWidth(g.width()));
    }
    let codeword_len = data_len + g.width();
    let estimated = cost_estimate(g.width(), codeword_len as u128);
    if estimated > limit {
        return Err(Error::BudgetExceeded { estimated, limit });
    }
    let b = dual_weight_histogram(g, codeword_len as usize);
    let mut counts = macwilliams(&b, g.width());
    // W₀ is exactly the zero word; exclude it to match WeightSpectrum.
    assert_eq!(counts[0], Nat::one(), "W0 must count exactly the zero word");
    counts[0] = Nat::zero();
    // Self-check: the nonzero counts must sum to 2ⁿ − 1.
    let mut expect = Nat::one();
    expect.shl_bits(data_len as usize);
    expect.sub_assign(&Nat::one());
    let dist = WeightDistribution {
        data_len,
        codeword_len,
        counts,
    };
    assert_eq!(dist.total(), expect, "weight counts must sum to 2^n - 1");
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectrum::spectrum;
    use crate::weights::{weight2, weights234};

    #[test]
    fn nat_arithmetic_basics() {
        let mut a = Nat::from_u128(u128::MAX);
        a.add_assign(&Nat::one());
        assert_eq!(a.bits(), 129);
        assert_eq!(a.to_u128(), None);
        a.sub_assign(&Nat::one());
        assert_eq!(a.to_u128(), Some(u128::MAX));
        let b = Nat::from_u64(1_000_000_007).mul_small(998_244_353);
        assert_eq!(b.to_u128(), Some(1_000_000_007u128 * 998_244_353));
        let (q, r) = b.divmod_small(12_345);
        assert_eq!(
            q.to_u128().unwrap() * 12_345 + r as u128,
            b.to_u128().unwrap()
        );
        let mut s = Nat::one();
        s.shl_bits(200);
        assert_eq!(s.bits(), 201);
        assert!(s.low_bits_zero(200));
        assert!(!s.low_bits_zero(201));
        s.shr_bits(137);
        assert_eq!(s.to_u128(), Some(1u128 << 63));
        assert_eq!(
            Nat::from_u128(123_456_789_012_345_678_901_234_567_890u128).to_decimal(),
            "123456789012345678901234567890"
        );
        assert!(Nat::from_u64(5) > Nat::from_u64(4));
        assert!(Nat::from_u128(1 << 100) > Nat::from_u64(u64::MAX));
    }

    #[test]
    fn f64x_roundtrips_and_extends_past_underflow() {
        for x in [1.0f64, 0.5, 1e-300, 3.25e17, 4.9e-324] {
            assert_eq!(F64x::from_f64(x).to_f64(), x, "{x}");
        }
        // 1e-3 to the 200th power underflows f64 but stays exact here.
        let tiny = F64x::from_f64(1e-3).powu(200);
        assert!(tiny.m >= 1.0 && tiny.m < 2.0);
        assert_eq!(tiny.e, -1994); // log2(1e-600) ≈ -1993.16, m ≈ 1.79
        assert_eq!(tiny.to_f64(), 0.0);
        // And dividing back up recovers a representable value.
        let back = tiny.div(F64x::from_f64(1e-3).powu(199));
        assert!((back.to_f64() - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn fwht_and_bitsliced_sweeps_agree() {
        for (width, normal) in [(8u32, 0x07u64), (8, 0x9B), (13, 0x101B)] {
            let g = GenPoly::from_normal(width, normal).unwrap();
            for l in [10usize, 64, 150] {
                let syn = grow_syndromes(&g, l);
                assert_eq!(
                    fwht_histogram(&syn, width, l),
                    bitsliced_histogram(&syn, width, l),
                    "width {width} l {l}"
                );
            }
        }
    }

    #[test]
    fn matches_exhaustive_spectrum_at_small_lengths() {
        for (width, normal) in [(8u32, 0x07u64), (8, 0x9B), (16, 0x1021)] {
            let g = GenPoly::from_normal(width, normal).unwrap();
            for n in [1u32, 2, 5, 11, 16] {
                let spec = spectrum(&g, n).unwrap();
                let dist = distribution(&g, n).unwrap();
                assert_eq!(
                    dist.counts_u128().unwrap(),
                    spec.counts(),
                    "{normal:#x} n={n}"
                );
                assert_eq!(dist.hd(), spec.hd());
                assert_eq!(dist.to_spectrum().unwrap(), spec);
            }
        }
    }

    #[test]
    fn big_integer_escape_past_u128() {
        // 200 data bits: counts overflow u128, the Nat view stays exact.
        let g = GenPoly::from_normal(8, 0x9B).unwrap();
        let dist = distribution(&g, 200).unwrap();
        assert!(dist.counts_u128().is_none());
        assert!(dist.to_spectrum().is_none());
        let mut expect = Nat::one();
        expect.shl_bits(200);
        expect.sub_assign(&Nat::one());
        assert_eq!(dist.total(), expect);
        // W2 has its own closed form at any length within the order.
        assert_eq!(
            dist.count_u128(2).unwrap(),
            weight2(&g, 200).unwrap(),
            "W2 closed form"
        );
        let p = dist.p_ud(1e-5);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn matches_weights234_closed_form() {
        let g = GenPoly::from_normal(16, 0x8005).unwrap();
        let dist = distribution(&g, 100).unwrap();
        let w = weights234(&g, 100).unwrap();
        assert_eq!(dist.count_u128(2).unwrap(), w.w2);
        assert_eq!(dist.count_u128(3).unwrap(), w.w3);
        assert_eq!(dist.count_u128(4).unwrap(), w.w4);
    }

    #[test]
    fn p_ud_matches_direct_f64_sum_where_f64_suffices() {
        let g = GenPoly::from_normal(8, 0x07).unwrap();
        let n = 18u32;
        let dist = distribution(&g, n).unwrap();
        let l = n + 8;
        for ber in [1e-2f64, 1e-3, 1e-5] {
            let q = 1.0 - ber;
            let mut direct = 0.0f64;
            for (k, w) in dist.counts().iter().enumerate().skip(1) {
                let mut term = w.to_u128().unwrap() as f64;
                for _ in 0..k {
                    term *= ber;
                }
                for _ in 0..(l as usize - k) {
                    term *= q;
                }
                direct += term;
            }
            let exact = dist.p_ud(ber);
            assert!(
                (exact - direct).abs() <= direct * 1e-9,
                "ber {ber}: {exact} vs {direct}"
            );
        }
    }

    #[test]
    fn p_ud_reaches_far_below_f64_underflow_territory() {
        // HD=4 code at tiny BER: leading term ~ W4·ber⁴ — representable
        // here, and the value must be positive and finite, not a silent 0
        // from intermediate underflow of q^L·(e/q)^k chains.
        let g = GenPoly::from_normal(16, 0x1021).unwrap();
        let dist = distribution(&g, 100).unwrap();
        let p = dist.p_ud(1e-9);
        assert!(p > 0.0 && p < 1e-25, "p_ud = {p}");
        assert_eq!(dist.p_ud(0.0), 0.0);
        assert_eq!(dist.p_ud(1.0), 0.0);
    }

    #[test]
    fn budget_and_argument_guards() {
        let g = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
        assert!(matches!(
            distribution(&g, 12_112),
            Err(Error::BudgetExceeded { .. })
        ));
        let g8 = GenPoly::from_normal(8, 0x07).unwrap();
        assert!(matches!(distribution(&g8, 0), Err(Error::BadLength(_))));
        assert!(matches!(
            distribution_with_limit(&g8, 1000, 10),
            Err(Error::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn works_past_the_order_of_x() {
        // x⁸+1 = (x+1)⁸ has order 8, so an 18-bit codeword already wraps
        // the syndrome sequence and weights234 refuses — the dual
        // transfer has no such restriction and must still match the
        // exhaustive spectrum.
        let g = GenPoly::from_normal(8, 0x01).unwrap();
        let n = 10u32;
        assert!(weights234(&g, n).is_err(), "past the order");
        let spec = spectrum(&g, n).unwrap();
        let dist = distribution(&g, n).unwrap();
        assert_eq!(dist.counts_u128().unwrap(), spec.counts());
    }
}
