//! Regenerates **Table 1** of the paper: the data-word lengths at which
//! each of the eight polynomials achieves each Hamming distance, computed
//! exactly to 131,072 bits (128 Kbits, the paper's horizon).
//!
//! Usage: `cargo run --release -p crc-experiments --bin table1
//! [--max-len 131072] [--extras 1]`
//!
//! `--extras 1` appends the misprinted Castagnoli constant from §3.

use crc_experiments::{arg_or, poly, PAPER_POLYS, TABLE1_ANCHORS};
use crc_hd::profile::HdProfile;
use crc_hd::report::TextTable;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn main() {
    let max_len: u32 = arg_or("--max-len", 131_072);
    let extras: u32 = arg_or("--extras", 0);

    let mut polys: Vec<(u64, String)> = PAPER_POLYS
        .iter()
        .map(|&(k, label, class)| (k, format!("{label} {class}")))
        .collect();
    if extras > 0 {
        polys.push((0xFB56_7D89, "Castagnoli93 misprint {1,1,2,28}".into()));
    }

    println!("Table 1 reproduction: HD vs data-word length (bits), r = 32, to {max_len} bits\n");

    // Profiles are independent; split across two worker threads (the box
    // the experiments run on has two cores).
    let t0 = Instant::now();
    let profiles: Vec<(u64, String, HdProfile)> = {
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((k, _)) = polys.get(i) else {
                    return done;
                };
                let t = Instant::now();
                let p = HdProfile::compute(&poly(*k), max_len).expect("profile within budget");
                eprintln!(
                    "  computed 0x{k:08X} in {:.2}s (order {})",
                    t.elapsed().as_secs_f64(),
                    p.order()
                );
                done.push((i, p));
            }
        };
        let mut v: Vec<(usize, HdProfile)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("profile worker"))
                .collect()
        });
        v.sort_by_key(|&(i, _)| i);
        v.into_iter()
            .map(|(i, p)| (polys[i].0, polys[i].1.clone(), p))
            .collect()
    };
    eprintln!("total profile time: {:.2}s\n", t0.elapsed().as_secs_f64());

    // Per-polynomial band tables (the content of Table 1, one column each).
    for (k, label, p) in &profiles {
        let mut t = TextTable::new(["HD", "from (bits)", "to (bits)"]);
        for band in p.bands().iter().rev() {
            let hd = band
                .hd
                .map(|h| h.to_string())
                .unwrap_or_else(|| format!(">{}", p.max_weight_explored()));
            let to = if band.to == max_len {
                format!("{}+", band.to)
            } else {
                band.to.to_string()
            };
            t.push_row([hd, band.from.to_string(), to]);
        }
        println!("0x{k:08X}  {label}   (order of x: {})", p.order());
        println!("{}", t.render());
    }

    // Summary matrix like the published table: rows HD, columns polys.
    let hds: Vec<u32> = (2..=15).rev().collect();
    let mut matrix = TextTable::new(
        std::iter::once("HD".to_string())
            .chain(profiles.iter().map(|(k, _, _)| format!("{k:08X}"))),
    );
    for hd in hds {
        let mut row = vec![hd.to_string()];
        for (_, _, p) in &profiles {
            let cell = p
                .bands()
                .iter()
                .find(|b| b.hd == Some(hd))
                .map(|b| format!("{}-{}", b.from, b.to))
                .unwrap_or_default();
            row.push(cell);
        }
        matrix.push_row(row);
    }
    println!(
        "Summary (lengths in bits achieving each HD):\n{}",
        matrix.render()
    );

    // Verify the paper's published anchors.
    let mut ok = 0;
    let mut bad = 0;
    for (k, hd, expect) in TABLE1_ANCHORS {
        if expect > max_len {
            continue;
        }
        let p = &profiles.iter().find(|(pk, _, _)| *pk == k).unwrap().2;
        let got = p.max_len_for_hd(hd);
        if got == Some(expect) {
            ok += 1;
        } else {
            bad += 1;
            println!("ANCHOR MISMATCH: 0x{k:08X} HD={hd}: paper {expect}, computed {got:?}");
        }
    }
    println!("paper anchors verified: {ok} matched, {bad} mismatched");
    if bad > 0 {
        std::process::exit(1);
    }
}
