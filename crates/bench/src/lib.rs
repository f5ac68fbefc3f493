//! Shared helpers for the experiment binaries and benches.
//!
//! Each binary regenerates one artifact: a table or figure of the paper,
//! or, for the `*_throughput` bins, a `BENCH_*.json` trail at the
//! repository root. Where the repository's numbers depart from the
//! paper's text, `docs/REPRODUCTION.md` says why.
//!
//! | binary                    | artifact                                        |
//! |---------------------------|-------------------------------------------------|
//! | `table1`                  | Table 1 (HD bands per polynomial)               |
//! | `figure1`                 | Figure 1 (HD-vs-length series, CSV)             |
//! | `table2`                  | Table 2 (HD=6 census per factorization class)   |
//! | `exhaustive_small`        | §4.5 scaled exhaustive searches (8/16 bits)     |
//! | `ablation`                | §4.1 filtering-technique measurements           |
//! | `weights_mtu`             | §2 weights at the Ethernet MTU (W₄ = 223,059)   |
//! | `cost_model`              | §3 intractability arithmetic                    |
//! | `applications`            | §4.3/§4.4 iSCSI & jumbo-frame studies           |
//! | `sim_determinism`         | netsim tallies for the 1/2/4-thread golden diff |
//! | `crc_throughput`          | crckit ns per call per engine tier              |
//! | `sim_throughput`          | netsim Monte-Carlo frames/s                     |
//! | `survey_throughput`       | campaign-engine polynomials/s                   |
//! | `weights_throughput`      | screening-kernel cost per polynomial            |
//! | `distribution_throughput` | exact weight distribution cost per polynomial   |

use crc_hd::GenPoly;

/// The eight polynomials of Table 1 / Figure 1, with the paper's labels
/// and factorization classes (Koopman notation).
pub const PAPER_POLYS: [(u64, &str, &str); 8] = [
    (0x82608EDB, "IEEE 802.3", "{32}"),
    (0x8F6E37A0, "Castagnoli iSCSI", "{1,31}"),
    (0xBA0DC66B, "Koopman", "{1,3,28}"),
    (0xFA567D89, "Castagnoli", "{1,1,15,15}"),
    (0x992C1A4C, "Koopman", "{1,1,30}"),
    (0x90022004, "Koopman low-tap", "{1,1,30}"),
    (0xD419CC15, "Castagnoli", "{32}"),
    (0x80108400, "Koopman low-tap", "{32}"),
];

/// Paper-reported `max_len_for_hd` anchors (post-errata) for verification:
/// `(koopman, hd, max_len)`.
pub const TABLE1_ANCHORS: [(u64, u32, u32); 12] = [
    (0x82608EDB, 8, 91),
    (0x82608EDB, 7, 171),
    (0x82608EDB, 6, 268),
    (0x82608EDB, 5, 2_974),
    (0x82608EDB, 4, 91_607),
    (0x8F6E37A0, 6, 5_243),
    (0xBA0DC66B, 6, 16_360),
    (0xBA0DC66B, 4, 114_663),
    (0xFA567D89, 6, 32_736),
    (0xFA567D89, 4, 65_502),
    (0x992C1A4C, 6, 32_738), // 2014 errata value
    (0xD419CC15, 5, 65_505),
];

/// Builds a [`GenPoly`] from a Koopman constant, panicking on bad input
/// (harness constants are static).
pub fn poly(koopman: u64) -> GenPoly {
    GenPoly::from_koopman(32, koopman).expect("paper polynomial is valid")
}

/// Parses a `--flag value` style argument from the command line, falling
/// back to `default` when the flag is absent. A flag given with a missing
/// or unparsable value prints the error and exits with status 2.
pub fn arg_or<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, flag, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The value after `flag` in `args`, parsed; `default` when `flag` is
/// absent.
///
/// # Errors
///
/// A message naming `flag` when it is present but has no value after it
/// or the value does not parse.
fn parse_arg<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    let value = args.get(i + 1).ok_or(format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("bad value {value:?} for {flag}"))
}

/// Marked message lengths from Figure 1's x-axis annotations.
pub const MARKED_LENGTHS: [(u32, &str); 6] = [
    (400, "40B ack packet"),
    (4_496, "512+40B packet"),
    (12_112, "1 MTU"),
    (24_224, "2 MTU"),
    (48_448, "4 MTU"),
    (96_896, "8 MTU"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_polys_all_parse() {
        for (k, _, class) in PAPER_POLYS {
            let g = poly(k);
            assert_eq!(g.koopman(), k);
            let sig = gf2poly::factor(g.to_poly()).signature().to_string();
            assert_eq!(sig, class, "{k:#010X}");
        }
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_arg_reads_or_defaults_and_rejects_bad_values() {
        let absent = args(&["table2", "--seed", "7"]);
        assert_eq!(parse_arg(&absent, "--samples", 2_000u64), Ok(2_000));
        let valid = args(&["table2", "--samples", "200"]);
        assert_eq!(parse_arg(&valid, "--samples", 2_000u64), Ok(200));
        let bad = parse_arg(&args(&["--samples", "2k"]), "--samples", 2_000u64).unwrap_err();
        assert!(bad.contains("--samples") && bad.contains("2k"), "{bad}");
        let trailing = parse_arg(&args(&["--samples"]), "--samples", 2_000u64).unwrap_err();
        assert!(trailing.contains("--samples"), "{trailing}");
    }

    #[test]
    fn anchors_reference_known_polys() {
        for (k, hd, _) in TABLE1_ANCHORS {
            assert!(PAPER_POLYS.iter().any(|&(p, _, _)| p == k));
            assert!((2..=8).contains(&hd));
        }
    }
}
