//! The paper's §3 computational cost model, reproduced as checkable
//! arithmetic.
//!
//! The paper argues brute force is intractable: evaluating all ≈2³⁰
//! polynomials against all C(12144, 6) six-bit error patterns is
//! ≈4.78·10³⁰ pattern/polynomial pairs, or "151 million years" at 10¹⁵
//! pairs per second. These numbers are regenerated here and printed by the
//! `cost_model` experiment binary.

use gf2poly::int::binomial;
use gf2poly::GenPoly;

/// Seconds per Julian year (365.25 days).
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Number of distinct `r`-bit polynomials after reciprocal pairing —
/// the paper's 1,073,774,592 for `r = 32`.
pub fn distinct_polynomials(r: u32) -> u64 {
    gf2poly::class::distinct_search_space(r)
}

/// Bit patterns with `k` of `n + r` codeword bits set: `C(n+r, k)`.
pub fn error_patterns(codeword_len: u32, k: u32) -> u128 {
    binomial(codeword_len as u128, k)
}

/// Total pattern/polynomial pairs for a brute-force scan of every
/// distinct `r`-bit polynomial at one codeword length and weight.
pub fn brute_force_pairs(r: u32, codeword_len: u32, k: u32) -> f64 {
    distinct_polynomials(r) as f64 * error_patterns(codeword_len, k) as f64
}

/// Wall-clock years to evaluate `pairs` at `rate` pairs/second.
pub fn years_at_rate(pairs: f64, rate: f64) -> f64 {
    pairs / rate / SECONDS_PER_YEAR
}

/// The paper's headline intractability numbers for the MTU search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtuCostModel {
    /// C(12144, 4) ≈ 9.06·10¹⁴.
    pub patterns_4bit: u128,
    /// C(12144, 6) ≈ 4.45·10²¹.
    pub patterns_6bit: u128,
    /// Distinct polynomials: 1,073,774,592.
    pub polynomials: u64,
    /// ≈ 4.78·10³⁰ pairs.
    pub total_pairs: f64,
    /// Years at 10⁹ pairs/s on each of 10⁶ processors ⇒ ≈151 million.
    pub years_at_paper_rate: f64,
}

/// Evaluates the model at the paper's parameters (12112-bit data word,
/// 32-bit CRC).
pub fn mtu_cost_model() -> MtuCostModel {
    let codeword = 12_112 + 32;
    let patterns_4bit = error_patterns(codeword, 4);
    let patterns_6bit = error_patterns(codeword, 6);
    let polynomials = distinct_polynomials(32);
    let total_pairs = polynomials as f64 * patterns_6bit as f64;
    MtuCostModel {
        patterns_4bit,
        patterns_6bit,
        polynomials,
        total_pairs,
        years_at_paper_rate: years_at_rate(total_pairs, 1e9 * 1e6),
    }
}

/// Implementation cost of one generator — the third axis of a survey's
/// Pareto selection (the paper's hardware grounds for preferring
/// `0x90022004`/`0x80108400`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineCost {
    /// Feedback taps: nonzero coefficients below `x^width` — the
    /// XOR-gate count of the serial LFSR, so lower means cheaper
    /// hardware.
    pub taps: u32,
}

/// Evaluates the engine-cost model for one generator.
pub fn engine_cost(g: &GenPoly) -> EngineCost {
    EngineCost {
        taps: g.normal().count_ones(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_cost_orders_the_paper_polynomials() {
        let dense = engine_cost(&GenPoly::from_koopman(32, 0x82608EDB).unwrap());
        let sparse = engine_cost(&GenPoly::from_koopman(32, 0x80108400).unwrap());
        // 802.3 has 14 taps; the paper's low-tap pick (5 terms) has 4.
        assert_eq!(dense.taps, 14);
        assert_eq!(sparse.taps, 4);
        // taps + the implicit x^width term is the full weight.
        let g = GenPoly::from_koopman(32, 0xBA0DC66B).unwrap();
        assert_eq!(engine_cost(&g).taps + 1, g.weight());
    }

    #[test]
    fn reproduces_paper_section3_numbers() {
        let m = mtu_cost_model();
        assert_eq!(m.polynomials, 1_073_774_592);
        // "4.45·10^21" 6-bit combinations.
        assert!((m.patterns_6bit as f64 / 4.45e21 - 1.0).abs() < 0.01);
        // "more than 4.78·10^30 bit combination/polynomial pairs" — the
        // exact product is 4.7777·10^30, which rounds to the paper's 4.78.
        assert!(m.total_pairs > 4.77e30);
        assert!(m.total_pairs < 4.79e30);
        // "151 million years" at 10^9 pairs/s × 10^6 processors.
        assert!((m.years_at_paper_rate / 151.0e6 - 1.0).abs() < 0.01);
    }

    #[test]
    fn four_bit_pattern_count_matches_section2() {
        // §2 prints C(12144, 4) ≈ 9.06·10^14 (typeset garbled in the PDF);
        // the exact value:
        let m = mtu_cost_model();
        assert_eq!(m.patterns_4bit, 905_776_814_103_876);
    }

    #[test]
    fn years_scale_linearly_with_rate() {
        let y1 = years_at_rate(1e30, 1e15);
        let y2 = years_at_rate(1e30, 2e15);
        assert!((y1 / y2 - 2.0).abs() < 1e-12);
    }
}
