//! Reproduces **Table 2** of the paper at laptop scale: the census of
//! polynomials achieving HD=6 at the Ethernet MTU, by factorization class.
//!
//! The paper's numbers come from a 3-month, ~80-machine exhaustive search;
//! this binary substitutes stratified random sampling within each class:
//! the eight class strata of a width-32 survey census (exact class sizes
//! × sampled HD=6 density, extrapolated in exact millionths with Wilson
//! 95% intervals). The substitution is described under "Sampling Table 2"
//! in `docs/REPRODUCTION.md`. Classes whose density is below the sampling
//! resolution are reported as upper bounds.
//!
//! Only the class shards run, each through `evaluate_unit`, one worker
//! per core; a census `Campaign` would also screen the 32 tap strata
//! (see the `crc_hd::search` module doc for what that costs).
//!
//! Usage: `cargo run --release -p crc-experiments --bin table2
//! [--samples 2000] [--len 12112] [--seed 2002]`

use crc_hd::report::{with_commas, TextTable};
use crc_survey::census::{extrapolate, Z95};
use crc_survey::engine::{evaluate_unit, UnitScratch};
use crc_survey::{CampaignConfig, Mode};
use gf2poly::FactorClass;
use std::sync::Mutex;
use std::time::Instant;

/// An `integer.dddddd` count rendered by [`extrapolate`], in millionths.
fn micro(count: &str) -> u128 {
    let (int, frac) = count
        .split_once('.')
        .expect("extrapolate renders integer.dddddd");
    format!("{int}{frac}").parse().expect("decimal digits")
}

/// Half a millionths count, rounded to a whole polynomial: the paper's
/// one-per-reciprocal-pair count.
fn canonical(micro: u128) -> u128 {
    (micro + 1_000_000) / 2_000_000
}

fn main() {
    let samples: u64 = crc_experiments::arg_or("--samples", 2_000);
    let len: u32 = crc_experiments::arg_or("--len", 12_112);
    let seed: u64 = crc_experiments::arg_or("--seed", 2_002);

    let classes = FactorClass::table2_classes();
    let width = 32;
    let config = CampaignConfig {
        width,
        shards: width as u64 + classes.len() as u64,
        seed,
        mode: Mode::Census {
            per_stratum: samples,
            classes: classes.iter().map(|(c, _)| c.to_string()).collect(),
        },
        min_hd: 6,
        target_lengths: vec![len],
        ber_grid: vec![1e-6],
        max_weight: 6,
    };
    config.validate().expect("valid census config");

    println!(
        "Table 2 reproduction: HD=6 census at {len}-bit data words, \
         {samples} draws/class (seed {seed})\n"
    );
    // Class strata follow the `width` tap strata in shard order. One
    // worker per core claims them in turn, reusing its scratch: a thread
    // per shard time-slices eight workspaces through the cores' caches,
    // which cost ~25% more CPU on a 2-core host.
    let pending = Mutex::new(width as u64..config.shards);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut results: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cores.min(classes.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = UnitScratch::default();
                    let mut done = Vec::new();
                    loop {
                        let Some(shard) = pending
                            .lock()
                            .expect("no worker panics holding the shard list")
                            .next()
                        else {
                            return done;
                        };
                        let t0 = Instant::now();
                        let result = evaluate_unit(&config, config.work_unit(shard), &mut scratch)
                            .expect("class shard evaluates");
                        done.push((result, t0.elapsed().as_secs_f64()));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("class shard worker"))
            .collect()
    });
    results.sort_by_key(|(result, _)| result.unit.shard);

    // The paper's census counts one representative per reciprocal pair
    // (its search space is the 2^30 deduplicated polynomials), while class
    // sampling measures full-space density; reciprocals preserve both the
    // class and the HD profile, so the paper's count is half the
    // full-space count (palindromes are negligible).
    let mut t = TextTable::new([
        "class",
        "class size",
        "hits/draws",
        "est. full-space",
        "est. canonical (÷2)",
        "95% CI (canonical)",
        "paper",
    ]);
    let mut total_micro = 0u128;
    let mut paper_total = 0u64;
    for ((class, paper_count), (result, secs)) in classes.iter().zip(&results) {
        let hits = result.survivors.len() as u64;
        eprintln!("  {class} sampled in {secs:.1}s ({hits} hits)");
        // Every survivor must carry the parity factor (§4.2).
        for rec in &result.survivors {
            assert!(
                rec.poly().divisible_by_x_plus_1(),
                "{:#010x} in {class} reaches HD 6 without x+1",
                rec.koopman
            );
        }
        let size = class.size();
        let (est, lo, hi) = extrapolate(size, hits, result.scanned, Z95);
        total_micro += micro(&est);
        paper_total += paper_count;
        let ci = if hits == 0 {
            format!("< {}", canonical(micro(&hi)))
        } else {
            format!("{} – {}", canonical(micro(&lo)), canonical(micro(&hi)))
        };
        t.push_row([
            class.to_string(),
            with_commas(size),
            format!("{hits}/{}", result.scanned),
            est.clone(),
            canonical(micro(&est)).to_string(),
            ci,
            with_commas(*paper_count as u128),
        ]);
    }
    println!("{}", t.render());
    println!(
        "estimated canonical total: {}   paper total: {} (Table 2 sums to 21,392; \
         the prose says 21,292 — see docs/REPRODUCTION.md)",
        canonical(total_micro),
        with_commas(paper_total as u128)
    );
    println!(
        "\nNote: {{1,1,15,15}} and {{1,3,14,14}} dominate the census in both the paper\n\
         and the estimate; classes with density below ~1/draws appear as bounds."
    );
}
