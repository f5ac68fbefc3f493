//! Engine-tier throughput measurement with a machine-readable trail.
//!
//! Measures every [`EngineKind`] on representative catalog algorithms and
//! buffer sizes, prints a human-readable table, checks the acceptance
//! gate (CLMUL ≥ 3× slice-by-16 on 64 KiB CRC-32/ISO-HDLC where the
//! hardware supports it), and writes `BENCH_crc_throughput.json` so the
//! performance trajectory stays diffable from PR to PR.
//!
//! Usage: `cargo run --release --bin crc_throughput [--reps N] [--out PATH]`

use crc_experiments::arg_or;
use crckit::{catalog, Crc, CrcParams, EngineKind};
use std::fmt::Write as _;
use std::time::Instant;

/// One measurement cell.
struct Sample {
    algorithm: &'static str,
    engine: EngineKind,
    buffer_bytes: usize,
    gib_per_s: f64,
}

/// Median-of-N wall-clock throughput for one (algorithm, engine, size).
fn measure(crc: &Crc, kind: EngineKind, data: &[u8], reps: usize) -> f64 {
    // Calibrate iterations so each sample runs ≥ ~5 ms.
    let once = {
        let start = Instant::now();
        std::hint::black_box(crc.checksum_with(kind, data));
        start.elapsed().as_secs_f64().max(1e-9)
    };
    let iters = ((5e-3 / once) as usize).clamp(1, 1_000_000);
    let mut rates: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(crc.checksum_with(kind, std::hint::black_box(data)));
            }
            let secs = start.elapsed().as_secs_f64();
            (data.len() as f64 * iters as f64) / secs / (1u64 << 30) as f64
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn main() {
    let reps: usize = arg_or("--reps", 7);
    let out_path: String = arg_or("--out", "BENCH_crc_throughput.json".to_string());

    let algorithms: [CrcParams; 7] = [
        catalog::CRC32_ISO_HDLC,
        catalog::CRC32_ISCSI,
        catalog::CRC32_BZIP2,
        catalog::CRC32_XFER,
        catalog::CRC64_XZ,
        catalog::CRC64_GO_ISO,
        catalog::CRC16_ARC, // the one narrow width
    ];
    let sizes = [1514usize, 65_536];

    let clmul_hw = EngineKind::Clmul.is_hardware_accelerated();
    println!(
        "engine tiers on this host: clmul hardware = {clmul_hw}, default = {}",
        Crc::new(catalog::CRC32_ISO_HDLC).engine()
    );
    println!(
        "{:<18} {:>7}  {:>9} {:>9} {:>9} {:>9}",
        "algorithm", "bytes", "bitwise", "bytewise", "slice16", "clmul"
    );

    let mut samples: Vec<Sample> = Vec::new();
    for params in algorithms {
        let crc = Crc::new(params);
        for &size in &sizes {
            let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
            print!("{:<18} {size:>7} ", params.name);
            for kind in EngineKind::ALL {
                // The bitwise reference is ~100× slower: one calibrated
                // sample tells the story without minutes of wall time.
                let r = if kind == EngineKind::Bitwise { 1 } else { reps };
                let gib = measure(&crc, kind, &data, r);
                print!(" {gib:>9.3}");
                samples.push(Sample {
                    algorithm: params.name,
                    engine: kind,
                    buffer_bytes: size,
                    gib_per_s: gib,
                });
            }
            println!();
        }
    }

    // Acceptance gate: CLMUL ≥ 3× slice-by-16 on 64 KiB CRC-32/ISO-HDLC.
    let rate = |alg: &str, kind: EngineKind, size: usize| {
        samples
            .iter()
            .find(|s| s.algorithm == alg && s.engine == kind && s.buffer_bytes == size)
            .map(|s| s.gib_per_s)
            .expect("measured above")
    };
    let slice16 = rate("CRC-32/ISO-HDLC", EngineKind::Slice16, 65_536);
    let clmul = rate("CRC-32/ISO-HDLC", EngineKind::Clmul, 65_536);
    let speedup = clmul / slice16;
    println!("\nCRC-32/ISO-HDLC 64 KiB: clmul/slice16 speedup = {speedup:.2}x");
    if clmul_hw && speedup < 3.0 {
        eprintln!("WARNING: CLMUL speedup below the 3x acceptance target");
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"crc_engine_throughput\",").unwrap();
    writeln!(json, "  \"unit\": \"GiB/s\",").unwrap();
    writeln!(json, "  \"clmul_hardware\": {clmul_hw},").unwrap();
    writeln!(
        json,
        "  \"gate_clmul_vs_slice16_64kib_iso_hdlc\": {speedup:.3},"
    )
    .unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"engine\": \"{}\", \"buffer_bytes\": {}, \
             \"gib_per_s\": {:.4}}}{comma}",
            s.algorithm, s.engine, s.buffer_bytes, s.gib_per_s
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
