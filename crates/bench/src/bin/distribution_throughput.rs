//! Exact-distribution throughput: per-polynomial cost of the full
//! weight distribution (`crc_hd::distribution`) across the kernel
//! regimes, with a machine-readable trail.
//!
//! Three scenario groups:
//!
//! * **13-bit survey width at 1024 bits** (FWHT kernel): the survey's
//!   exact-P_ud axis cost, measured over a fixed candidate batch.
//! * **16-bit catalog generators at 1024 bits** (FWHT kernel at its
//!   widest routine width): CCITT-16 and CRC-16/ARC.
//! * **24-bit generator at 256 bits** (bitsliced 64-lane sweep — the
//!   kernel the FWHT path hands over to past width 20).
//!
//! Every scenario asserts the distribution against an independent
//! oracle (`weights234` / `weight2`) before timing is trusted. Writes
//! `BENCH_distribution_throughput.json` (uploaded by the CI
//! `throughput-trail` job) so the trajectory stays diffable from PR to
//! PR.
//!
//! Usage: `cargo run --release -p crc-experiments --bin
//! distribution_throughput [--reps 3] [--out PATH]`

use crc_experiments::arg_or;
use crc_hd::distribution::distribution;
use crc_hd::search::PolySpace;
use crc_hd::{weights, GenPoly};
use std::fmt::Write as _;
use std::time::Instant;

/// Median-of-`reps` wall time for `run`, in seconds.
fn measure(reps: usize, mut run: impl FnMut()) -> f64 {
    let mut times = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        run();
        times.push(start.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

struct Row {
    scenario: &'static str,
    kernel: &'static str,
    per_poly_ms: f64,
}

/// Pins a freshly computed distribution against the closed-form
/// low-weight oracle at the same length.
fn check_against_weights234(g: &GenPoly, data_len: u32) {
    let d = distribution(g, data_len).expect("within budget");
    let w = weights::weights234(g, data_len).expect("length within the order");
    assert_eq!(d.count_u128(2), Some(w.w2), "{g} W2 at {data_len}");
    assert_eq!(d.count_u128(3), Some(w.w3), "{g} W3 at {data_len}");
    assert_eq!(d.count_u128(4), Some(w.w4), "{g} W4 at {data_len}");
}

fn main() {
    let reps: usize = arg_or("--reps", 3);
    let out_path: String = arg_or("--out", "BENCH_distribution_throughput.json".to_string());
    let mut rows: Vec<Row> = Vec::new();
    let push = |rows: &mut Vec<Row>, scenario, kernel, secs: f64, polys: usize| {
        let per_poly_ms = secs * 1e3 / polys as f64;
        println!("  {scenario:<22} {kernel:<10} {per_poly_ms:>9.3} ms/poly");
        rows.push(Row {
            scenario,
            kernel,
            per_poly_ms,
        });
    };

    // ---- 13-bit survey width at 1024 bits (FWHT) ----
    let space = PolySpace::new(13);
    let batch: Vec<GenPoly> = space
        .iter_range(0, 200)
        .filter(|g| g.koopman() <= g.reciprocal().koopman() && 1024 + 13 <= crc_hd::dmin::dmin2(g))
        .take(8)
        .collect();
    assert!(batch.len() >= 4, "enough survey candidates to time");
    println!(
        "full distribution at 1024 bits, 13-bit survey width ({} polys):",
        batch.len()
    );
    for g in &batch {
        check_against_weights234(g, 1024);
    }
    let t = measure(reps, || {
        for g in &batch {
            let d = distribution(g, 1024).expect("within budget");
            assert!(d.hd().is_some());
        }
    });
    push(&mut rows, "dist_survey13_1024", "fwht", t, batch.len());

    // ---- 16-bit catalog generators at 1024 bits (FWHT) ----
    let polys16 = [
        GenPoly::from_normal(16, 0x1021).unwrap(),
        GenPoly::from_normal(16, 0x8005).unwrap(),
    ];
    println!("full distribution at 1024 bits, 16-bit catalog generators:");
    for g in &polys16 {
        check_against_weights234(g, 1024);
    }
    let t = measure(reps, || {
        for g in &polys16 {
            let d = distribution(g, 1024).expect("within budget");
            assert!(d.hd().is_some());
        }
    });
    push(&mut rows, "dist_16bit_1024", "fwht", t, polys16.len());

    // ---- 24-bit generator at 256 bits (bitsliced sweep) ----
    let g24 = GenPoly::from_normal(24, 0x86_4CFB).unwrap(); // CRC-24/OpenPGP
    println!("full distribution at 256 bits, 24-bit generator:");
    let d = distribution(&g24, 256).expect("within budget");
    // The exhaustive cross-check cannot reach width 24; W₂ has a
    // closed form at any length and the low weights pin HD.
    assert_eq!(
        d.count_u128(2),
        Some(weights::weight2(&g24, 256).unwrap()),
        "W2 oracle at 256 bits"
    );
    assert!(d.hd().is_some());
    let t = measure(reps, || {
        let d = distribution(&g24, 256).expect("within budget");
        assert!(d.hd().is_some());
    });
    push(&mut rows, "dist_24bit_256", "bitsliced", t, 1);

    // ---- JSON trail ----
    let per = |scenario: &str| {
        rows.iter()
            .find(|r| r.scenario == scenario)
            .expect("row exists")
            .per_poly_ms
    };
    println!(
        "\nsurvey-width distribution: {:.2} ms/poly; 16-bit: {:.2} ms/poly; \
         24-bit bitsliced: {:.2} ms/poly",
        per("dist_survey13_1024"),
        per("dist_16bit_1024"),
        per("dist_24bit_256")
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"distribution_throughput\",").unwrap();
    writeln!(json, "  \"unit\": \"ms/poly\",").unwrap();
    writeln!(json, "  \"survey_width\": 13,").unwrap();
    writeln!(json, "  \"survey_len\": 1024,").unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"kernel\": \"{}\", \"per_poly_ms\": {:.4}}}{comma}",
            r.scenario, r.kernel, r.per_poly_ms
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
