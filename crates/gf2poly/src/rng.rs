//! A tiny, self-contained, deterministic PRNG, and the confidence
//! interval the workspace's sampling code reports.
//!
//! Randomized polynomial factoring (Cantor–Zassenhaus) and random
//! irreducible generation need a source of pseudo-random bits. Keeping the
//! algebra crate dependency-free, we ship SplitMix64 — a well-studied 64-bit
//! mixer with full period 2^64 — rather than pulling in `rand`. Simulation
//! code elsewhere in the workspace uses `rand` proper.
//!
//! Every sampled estimate in the workspace — class censuses, the survey's
//! stratified census, the simulator's undetected rates — is a binomial
//! proportion, bracketed by the one [`wilson`] interval defined here.

/// SplitMix64 pseudo-random generator (Steele, Lea & Flood 2014).
///
/// Deterministic given its seed; *not* cryptographically secure.
///
/// ```
/// use gf2poly::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub const fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 128 bits (two draws).
    pub fn next_u128(&mut self) -> u128 {
        (self.next_u64() as u128) << 64 | self.next_u64() as u128
    }

    /// Uniform value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }
}

impl Default for SplitMix64 {
    /// A fixed, documented default seed — experiments are reproducible by
    /// default and callers opt *in* to other seeds.
    fn default() -> SplitMix64 {
        SplitMix64::new(0x5EED_C0DE_2002_D5A1)
    }
}

/// The critical value of the standard 95% interval, Φ⁻¹(0.975).
pub const Z95: f64 = 1.959_963_984_540_054;

/// The Wilson score interval around the proportion `s/n` at critical
/// value `z`. Returns `(density, low, high)`; `(0, 0, 1)` when nothing
/// was sampled.
///
/// Unlike the normal approximation, Wilson stays inside `[0, 1]` and
/// gives a meaningful upper bound when zero successes were observed —
/// the usual situation for rare events such as an undetected CRC error
/// or a survivor in a sparse stratum.
///
/// ```
/// let (p, lo, hi) = gf2poly::wilson(0, 10_000, gf2poly::Z95);
/// assert_eq!((p, lo), (0.0, 0.0));
/// assert!(hi > 0.0 && hi < 1e-3);
/// ```
pub fn wilson(s: u64, n: u64, z: f64) -> (f64, f64, f64) {
    if n == 0 {
        return (0.0, 0.0, 1.0);
    }
    let nf = n as f64;
    let p = s as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    // The bounds are exact at the extremes; snapping them hides the
    // ±1 ulp the center−half cancellation would otherwise leak.
    let low = if s == 0 {
        0.0
    } else {
        (center - half).max(0.0)
    };
    let high = if s == n {
        1.0
    } else {
        (center + half).min(1.0)
    };
    (p, low, high)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(99);
        for bound in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn wilson_interval_is_sane() {
        assert_eq!(wilson(0, 0, Z95), (0.0, 0.0, 1.0));
        let (p, lo, hi) = wilson(0, 100, Z95);
        assert_eq!(p, 0.0);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05);
        let (p, lo, hi) = wilson(100, 100, Z95);
        assert_eq!(p, 1.0);
        assert!(lo > 0.95 && hi == 1.0);
        let (p, lo, hi) = wilson(10, 100, Z95);
        assert!(lo < p && p < hi, "{lo} < {p} < {hi}");
        // Wider z widens the interval.
        let (_, lo3, hi3) = wilson(10, 100, 3.0);
        assert!(lo3 < lo && hi3 > hi);
        let (_, lo, hi) = wilson(50, 100, Z95);
        assert!(lo < 0.5 && hi > 0.5 && (0.5 - lo - (hi - 0.5)).abs() < 1e-12);
    }

    #[test]
    fn known_first_output() {
        // Reference value from the SplitMix64 reference implementation.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
    }
}
