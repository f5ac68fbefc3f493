//! Measures the paper's §4.1 filtering techniques one by one — the
//! ablation study behind the "7 minutes → under 7 seconds" and "two
//! polynomials per second per CPU" anecdotes.
//!
//! Usage: `cargo run --release -p crc-experiments --bin ablation
//! [--polys 400] [--len 12112]`

use crc_experiments::{arg_or, poly};
use crc_hd::filter::enumerative::{check, EnumOrder};
use crc_hd::filter::{breakpoint_search, hd_filter, StagedFilter};
use crc_hd::weights::weights234;
use crc_hd::GenPoly;
use gf2poly::SplitMix64;
use std::time::Instant;

fn random_polys(count: usize, seed: u64) -> Vec<GenPoly> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let k = rng.next_u64() | 1 << 31;
            GenPoly::from_koopman(32, k & 0xFFFF_FFFF).expect("top bit set")
        })
        .collect()
}

fn main() {
    let n_polys: usize = arg_or("--polys", 400);
    let mtu: u32 = arg_or("--len", 12_112);

    // ---- E5: early bailout vs exact weights (paper: 7 min → <7 s) -----
    println!("[E5] early bailout vs exact weight computation, 802.3 @ 32768 bits");
    let ieee = poly(0x82608EDB);
    let t0 = Instant::now();
    let w = weights234(&ieee, 32_768).expect("within order");
    let exact_t = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let verdict = hd_filter(&ieee, 32_768, 5).expect("filter");
    let filter_t = t0.elapsed().as_secs_f64();
    println!(
        "  exact W2..W4 = ({}, {}, {}) in {exact_t:.3}s; early-out verdict {verdict:?} \
         in {filter_t:.4}s; speedup {:.0}x",
        w.w2,
        w.w3,
        w.w4,
        exact_t / filter_t.max(1e-9)
    );
    assert!(filter_t < exact_t, "early bailout must beat exact counting");

    // ---- E6: FCS-bits-first enumeration ordering -----------------------
    println!("\n[E6] FCS-first vs natural enumeration order (paper-literal filter)");
    // Use rejected polynomials whose first weight-4 witness is low enough
    // for the natural order to terminate in reasonable time.
    let rejected: Vec<GenPoly> = random_polys(4_000, 0xFC5)
        .into_iter()
        .filter(|g| matches!(crc_hd::dmin::dmin(g, 4, 300), Ok(Some(_))))
        .take(6)
        .collect();
    let mut nat_total = 0u64;
    let mut fcs_total = 0u64;
    let mut fcs_wins = 0u32;
    for g in &rejected {
        let nat = check(g, 512, 4, EnumOrder::Natural, true);
        let fcs = check(g, 512, 4, EnumOrder::FcsFirst, true);
        assert!(nat.found() && fcs.found());
        nat_total += nat.patterns_tested;
        fcs_total += fcs.patterns_tested;
        if fcs.patterns_tested <= nat.patterns_tested {
            fcs_wins += 1;
        }
    }
    println!(
        "  {} rejected polys @512 bits, k=4 first-witness search:\n  natural order tested {} patterns, FCS-first {} — {:.0}x fewer; FCS-first won {}/{}",
        rejected.len(),
        nat_total,
        fcs_total,
        nat_total as f64 / fcs_total.max(1) as f64,
        fcs_wins,
        rejected.len()
    );

    // ---- E7: increasing-length staged filtering ------------------------
    println!("\n[E7] increasing-length staged filtering");
    // (a) The paper's arithmetic: filtering at 1024 bits is ~17,500x
    // cheaper than evaluating at 12112 bits for a C(n, 4) enumerator.
    let ratio = crc_hd::costmodel::error_patterns(12_144, 4) as f64
        / crc_hd::costmodel::error_patterns(1_056, 4) as f64;
    println!("  C(12144,4)/C(1056,4) = {ratio:.0} (paper: \"almost 17,500 times faster\")");
    // (b) Demonstrate the scaling law empirically with full k=3 counts.
    let g = poly(0x82608EDB);
    let t0 = Instant::now();
    let small = check(&g, 256, 3, EnumOrder::Natural, false);
    let t_small = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let large = check(&g, 1_024, 3, EnumOrder::Natural, false);
    let t_large = t0.elapsed().as_secs_f64();
    println!(
        "  full k=3 enumeration: {:.4}s @256 bits vs {:.3}s @1024 bits = {:.0}x (theory {:.0}x)",
        t_small,
        t_large,
        t_large / t_small.max(1e-9),
        large.patterns_tested as f64 / small.patterns_tested as f64
    );
    // (c) Staging with the d_min evaluator: a negative result worth
    // reporting — its cost depends on where the first witness lies, not
    // on the length cap, so staging only re-pays survivor confirmations.
    let candidates = random_polys(n_polys, 0x57A6ED);
    let t0 = Instant::now();
    let direct: Vec<&GenPoly> = candidates
        .iter()
        .filter(|g| hd_filter(g, mtu, 5).unwrap().passed())
        .collect();
    let direct_t = t0.elapsed().as_secs_f64();
    let staged = StagedFilter::new(vec![256, 1_024, 4_096, mtu], 5);
    let t0 = Instant::now();
    let (survivors, stats) = staged.run(candidates.iter().copied()).expect("staged run");
    let staged_t = t0.elapsed().as_secs_f64();
    for s in &stats {
        println!(
            "  stage {:>6} bits: {:>5} in -> {:>4} out",
            s.data_len, s.candidates_in, s.survivors_out
        );
    }
    println!(
        "  d_min evaluator: direct {direct_t:.2}s vs staged {staged_t:.2}s — staging helps the\n  paper's enumerator (cost set by the length cap) but not the witness-search\n  evaluator (cost set by the answer); identical survivors: {}",
        survivors.len() == direct.len()
            && survivors.iter().zip(&direct).all(|(a, b)| a == *b)
    );

    // ---- E8: inverse filtering / breakpoint localization ---------------
    println!(
        "\n[E8] breakpoint search (doubling + bisection over early-out filters) vs exact \
         incremental d_min(4)"
    );
    for (k, hd, expect, cap) in [
        (0x82608EDBu64, 5u32, 2_974u32, 65_536u32),
        (0xBA0DC66B, 6, 16_360, 20_000),
    ] {
        let g = poly(k);
        let t0 = Instant::now();
        let (len, evals) = breakpoint_search(&g, hd, 131_072).expect("search");
        let search_t = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let d4 = crc_hd::dmin::dmin(&g, 4, cap).expect("d_min(4)");
        let dmin_t = t0.elapsed().as_secs_f64();
        println!(
            "  0x{k:08X}: HD={hd} holds to {len} bits ({evals} evaluations, {search_t:.2}s) — \
             paper: {expect}; exact d_min(4) = {d4:?} in {dmin_t:.2}s"
        );
        assert_eq!(len, expect);
        // Both bounds end where a weight-4 multiple of degree d_min(4)
        // first fits in the data plus 32 check bits.
        assert_eq!(d4, Some(len + 32));
    }

    // ---- E9: overall filter throughput ---------------------------------
    println!("\n[E9] MTU filter throughput (paper: ~2 polynomials/s/CPU in 2001)");
    let batch = random_polys(n_polys, 0x7420);
    let t0 = Instant::now();
    let mut passed = 0u32;
    for g in &batch {
        if hd_filter(g, mtu, 5).unwrap().passed() {
            passed += 1;
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "  {} polys filtered for HD>=5 @ {mtu} bits in {dt:.2}s = {:.0} polys/s/core \
         ({passed} passed)",
        batch.len(),
        batch.len() as f64 / dt
    );
}
