//! The paper's §4.5 validation strategy, reproduced in full: exhaustive
//! searches of the complete 8-bit and 16-bit polynomial spaces, with every
//! verdict cross-checkable against the exhaustive codeword spectrum.
//!
//! Usage: `cargo run --release -p crc-experiments --bin exhaustive_small
//! [--len16 1024] [--hd16 4]`

use crc_hd::report::TextTable;
use crc_hd::search::{exhaustive_search, PolySpace};
use crc_hd::spectrum::hd_exhaustive;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    // ----- 8-bit space: every polynomial, several lengths, HD census ----
    println!(
        "Exhaustive 8-bit search (all {} distinct polynomials):\n",
        PolySpace::new(8).distinct()
    );
    let mut t = TextTable::new(["data bits", "HD>=4", "HD>=5", "HD>=6", "best HD"]);
    for n in [4u32, 8, 16, 24, 30] {
        let mut counts = [0usize; 3];
        let mut best = 0;
        for (i, hd) in [4u32, 5, 6].iter().enumerate() {
            counts[i] = exhaustive_search(8, n, *hd).expect("8-bit search").len();
        }
        for g in PolySpace::new(8).iter_canonical() {
            best = best.max(hd_exhaustive(&g, n).expect("small length"));
        }
        t.push_row([
            n.to_string(),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            best.to_string(),
        ]);
    }
    println!("{}", t.render());

    // Consistency: at 8 data bits the filter verdicts must equal the
    // spectrum ground truth for every polynomial.
    let n = 8;
    let survivors: std::collections::BTreeSet<u64> = exhaustive_search(8, n, 4)
        .expect("verify pass")
        .into_iter()
        .map(|s| s.poly.koopman())
        .collect();
    let mut agree = 0u32;
    for g in PolySpace::new(8).iter_canonical() {
        let truth = hd_exhaustive(&g, n).unwrap() >= 4;
        assert_eq!(truth, survivors.contains(&g.koopman()), "poly {g}");
        agree += 1;
    }
    println!("filter vs spectrum cross-check at n={n}: {agree}/{agree} polynomials agree\n");

    // ----- 16-bit space: the paper-scaled exhaustive run ---------------
    let len16: u32 = crc_experiments::arg_or("--len16", 1_024);
    let hd16: u32 = crc_experiments::arg_or("--hd16", 4);
    let space = PolySpace::new(16);
    println!(
        "Exhaustive 16-bit search: {} distinct polynomials, HD>={hd16} at {len16} bits…",
        space.distinct()
    );
    let t0 = Instant::now();
    let survivors = exhaustive_search(16, len16, hd16).expect("16-bit search");
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "  {} survivors in {:.1}s ({:.0} polys/s on one core; \
         the paper reports ~2/s/CPU on 2001 hardware)\n",
        survivors.len(),
        dt,
        space.distinct() as f64 / dt
    );

    // Class breakdown of survivors — the Table 2 *shape* at 16 bits.
    let mut by_class: BTreeMap<String, usize> = BTreeMap::new();
    for s in &survivors {
        *by_class.entry(s.class.clone()).or_default() += 1;
    }
    let mut t = TextTable::new(["class", "survivors"]);
    let mut rows: Vec<_> = by_class.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    for (class, count) in rows.iter().take(12) {
        t.push_row([class.clone(), count.to_string()]);
    }
    println!("survivor factorization classes (top 12):\n{}", t.render());

    // The paper's structural finding at 16-bit scale: HD=6 implies the
    // parity factor. Pick a length where 16-bit HD=6 is achievable.
    let hd6 = exhaustive_search(16, 120, 6).expect("hd6 search");
    let all_parity = hd6.iter().all(|s| s.poly.divisible_by_x_plus_1());
    println!(
        "HD>=6 at 120 bits: {} survivors, all divisible by (x+1): {}",
        hd6.len(),
        all_parity
    );
    assert!(all_parity, "paper's §4.2 parity finding must hold");
}
