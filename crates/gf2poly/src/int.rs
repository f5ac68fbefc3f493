//! Integer factorization support: deterministic Miller–Rabin and Brent's
//! variant of Pollard's rho for `u64`.
//!
//! The multiplicative order of `x` modulo an irreducible polynomial of
//! degree `d` divides `2^d − 1`; computing it requires the prime
//! factorization of `2^d − 1` for `d ≤ 64`. Rather than maintaining an
//! error-prone hardcoded table of Mersenne-number factorizations, we factor
//! at runtime — Pollard rho dispatches 64-bit numbers in microseconds.

/// Modular multiplication for `u64` via 128-bit intermediates.
#[inline]
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Modular exponentiation for `u64`.
#[inline]
fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut acc = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin primality test for `u64`.
///
/// Uses the witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}, which
/// is proven sufficient for all `n < 3.3·10^24`, comfortably covering `u64`.
///
/// ```
/// use gf2poly::int::is_prime;
/// assert!(is_prime(2_147_483_647));       // 2^31 - 1, Mersenne prime
/// assert!(!is_prime(2_147_483_649));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let s = d.trailing_zeros();
    d >>= s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds one nontrivial factor of a composite `n` using Brent's cycle
/// variant of Pollard's rho. `n` must be composite and odd.
fn pollard_rho(n: u64) -> u64 {
    debug_assert!(n > 3 && !is_prime(n));
    let mut c = 1u64;
    loop {
        let f = |x: u64| (mul_mod(x, x, n) + c) % n;
        let (mut x, mut ys);
        let mut y = 2u64;
        let mut r = 1u64;
        let mut q = 1u64;
        let mut g;
        loop {
            x = y;
            for _ in 0..r {
                y = f(y);
            }
            let mut k = 0u64;
            loop {
                ys = y;
                let lim = 128.min(r - k);
                for _ in 0..lim {
                    y = f(y);
                    q = mul_mod(q, x.abs_diff(y), n);
                }
                g = gcd_u64(q, n);
                k += lim;
                if k >= r || g > 1 {
                    break;
                }
            }
            r <<= 1;
            if g > 1 {
                break;
            }
        }
        if g == n {
            // Backtrack one step at a time.
            g = 1;
            let mut y2 = ys;
            while g == 1 {
                y2 = f(y2);
                g = gcd_u64(x.abs_diff(y2), n);
            }
        }
        if g != n {
            return g;
        }
        c += 1; // rare: retry with a different polynomial increment
    }
}

/// Greatest common divisor for `u64`.
pub fn gcd_u64(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Least common multiple with 128-bit intermediate, saturating at `u128::MAX`.
pub fn lcm_u128(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let g = {
        let (mut x, mut y) = (a, b);
        while y != 0 {
            let t = x % y;
            x = y;
            y = t;
        }
        x
    };
    (a / g).saturating_mul(b)
}

/// Binomial coefficient `C(n, k)` in `u128`: exact, saturating only at
/// the `u128` ceiling, far beyond every count the workspace takes.
///
/// ```
/// use gf2poly::int::binomial;
/// // Weight-4 error patterns in a 12,144-bit codeword.
/// assert_eq!(binomial(12144, 4), 905_776_814_103_876);
/// ```
#[inline]
pub fn binomial(n: u128, k: u32) -> u128 {
    let k = k as u128;
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    // Ascending factors keep every intermediate division exact:
    // after step i, acc = C(n - k + i + 1, i + 1).
    for i in 0..k {
        acc = acc.saturating_mul(n - k + i + 1) / (i + 1);
    }
    acc
}

/// Full prime factorization of `n` as sorted `(prime, exponent)` pairs.
///
/// ```
/// use gf2poly::int::factor_u64;
/// // 2^28 - 1 = 3 · 5 · 29 · 43 · 113 · 127
/// assert_eq!(
///     factor_u64((1 << 28) - 1),
///     vec![(3, 1), (5, 1), (29, 1), (43, 1), (113, 1), (127, 1)]
/// );
/// ```
pub fn factor_u64(n: u64) -> Vec<(u64, u32)> {
    let mut out: Vec<(u64, u32)> = Vec::new();
    if n < 2 {
        return out;
    }
    let mut stack = vec![n];
    let mut primes: Vec<u64> = Vec::new();
    while let Some(mut m) = stack.pop() {
        for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
            while m % p == 0 {
                primes.push(p);
                m /= p;
            }
        }
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            primes.push(m);
            continue;
        }
        let d = pollard_rho(m);
        stack.push(d);
        stack.push(m / d);
    }
    primes.sort_unstable();
    for p in primes {
        match out.last_mut() {
            Some((q, e)) if *q == p => *e += 1,
            _ => out.push((p, 1)),
        }
    }
    out
}

/// Factorization of `2^d − 1`, the group order of `GF(2^d)^*`.
///
/// # Panics
///
/// Panics if `d == 0` or `d > 64`.
pub fn factor_two_pow_minus_1(d: u32) -> Vec<(u64, u32)> {
    assert!((1..=64).contains(&d), "degree must be in 1..=64");
    let n = if d == 64 { u64::MAX } else { (1u64 << d) - 1 };
    factor_u64(n)
}

/// The distinct prime divisors of `n`.
pub fn prime_divisors(n: u64) -> Vec<u64> {
    factor_u64(n).into_iter().map(|(p, _)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primality() {
        let primes = [2u64, 3, 5, 7, 11, 13, 127, 8191, 131071, 524287];
        for p in primes {
            assert!(is_prime(p), "{p} is prime");
        }
        for c in [0u64, 1, 4, 6, 9, 15, 21, 25, 1001, 2047 /* 23·89 */] {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn mersenne_prime_exponents_match_known_list() {
        // Mersenne primes 2^p - 1 for p in this range: known classical list.
        let mersenne_exp = [2u32, 3, 5, 7, 13, 17, 19, 31, 61];
        for d in 2..=61 {
            let n = (1u128 << d) - 1;
            let expect = mersenne_exp.contains(&d);
            assert_eq!(is_prime(n as u64), expect, "2^{d}-1 primality");
        }
    }

    #[test]
    fn factorization_reconstructs_value() {
        for n in [1u64, 2, 12, 360, 1 << 20, 999_999_937, 0xFFFF_FFFF] {
            let f = factor_u64(n);
            let prod: u128 = f.iter().map(|&(p, e)| (p as u128).pow(e)).product();
            if n >= 2 {
                assert_eq!(prod, n as u128, "n={n}");
                for &(p, _) in &f {
                    assert!(is_prime(p), "factor {p} of {n} must be prime");
                }
            } else {
                assert!(f.is_empty());
            }
        }
    }

    #[test]
    fn known_mersenne_factorizations() {
        // Classical values cross-checked against published tables; these are
        // exactly the group orders the paper's polynomials live in.
        assert_eq!(
            factor_two_pow_minus_1(32),
            vec![(3, 1), (5, 1), (17, 1), (257, 1), (65537, 1)]
        );
        assert_eq!(factor_two_pow_minus_1(31), vec![(2147483647, 1)]);
        assert_eq!(
            factor_two_pow_minus_1(30),
            vec![(3, 2), (7, 1), (11, 1), (31, 1), (151, 1), (331, 1)]
        );
        assert_eq!(factor_two_pow_minus_1(15), vec![(7, 1), (31, 1), (151, 1)]);
        assert_eq!(
            factor_two_pow_minus_1(28),
            vec![(3, 1), (5, 1), (29, 1), (43, 1), (113, 1), (127, 1)]
        );
    }

    #[test]
    fn factors_large_semiprime() {
        // 2^59 - 1 = 179951 * 3203431780337
        let f = factor_u64((1 << 59) - 1);
        assert_eq!(f, vec![(179951, 1), (3203431780337, 1)]);
    }

    #[test]
    fn factors_u64_max() {
        // 2^64 - 1 = 3 · 5 · 17 · 257 · 641 · 65537 · 6700417
        assert_eq!(
            factor_two_pow_minus_1(64),
            vec![
                (3, 1),
                (5, 1),
                (17, 1),
                (257, 1),
                (641, 1),
                (65537, 1),
                (6700417, 1)
            ]
        );
    }

    #[test]
    fn choose_counts() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(5, 7), 0);
        assert_eq!(binomial(31, 15), 300_540_195);
        assert_eq!(binomial(12144, 4), 905_776_814_103_876);
        // Symmetric: the k > n/2 half takes the short loop.
        assert_eq!(binomial(31, 16), binomial(31, 15));
        // Past the u128 ceiling the product saturates instead of overflowing.
        assert!(binomial(1 << 64, 4) > 1 << 120);
    }

    #[test]
    fn lcm_and_gcd() {
        assert_eq!(gcd_u64(12, 18), 6);
        assert_eq!(lcm_u128(4, 6), 12);
        assert_eq!(lcm_u128(0, 5), 0);
        assert_eq!(lcm_u128(7, 13), 91);
    }
}
