//! Engine-tier throughput measurement with a machine-readable trail.
//!
//! Measures both [`EngineKind`] tiers and the auto dispatch of [`Crc::checksum`]
//! on representative catalog algorithms at real frame sizes (16 B acks to
//! 64 KiB buffers; 128 B is the one size in the 128-bit folding kernel's
//! range on hosts that have the 512-bit one), prints ns per call and GiB/s tables, checks the
//! acceptance gates, and writes `BENCH_crc_throughput.json` so the
//! performance trajectory stays diffable from PR to PR. The gates:
//!
//! * CLMUL ≥ 3× slice-by-16 on 64 KiB CRC-32/ISO-HDLC where the hardware
//!   supports it;
//! * auto dispatch within 10% of the fastest single tier at every size;
//! * the non-reflected CRC-32/BZIP2 at ≥ 0.9× the throughput of the
//!   reflected CRC-32/ISO-HDLC (same generator) at 128 B, 1514 B and
//!   64 KiB.
//!
//! A missed gate prints a warning; shared hosts are too noisy to fail on.
//! Each repetition measures every column once, round-robin, so a host
//! switching speed mid-run shifts all columns alike. Cells are medians
//! over the repetitions, and each gate is the median of per-repetition
//! ratios between batches run back to back, so a speed switch between
//! two cells cannot fake a gap.
//!
//! Usage: `cargo run --release -p crc-experiments --bin crc_throughput
//! [--reps N] [--out PATH]`

use crc_experiments::arg_or;
use crckit::{catalog, Crc, CrcParams, EngineKind};
use std::fmt::Write as _;
use std::time::Instant;

/// A measured column: one pinned tier, or the auto dispatch.
#[derive(Clone, Copy, PartialEq)]
enum Column {
    Tier(EngineKind),
    Auto,
}

impl Column {
    const ALL: [Column; 3] = [
        Column::Tier(EngineKind::Slice16),
        Column::Tier(EngineKind::Clmul),
        Column::Auto,
    ];

    fn name(self) -> &'static str {
        match self {
            Column::Tier(kind) => kind.name(),
            Column::Auto => "auto",
        }
    }

    #[inline]
    fn run(self, crc: &Crc, data: &[u8]) -> u64 {
        match self {
            Column::Tier(kind) => crc.checksum_with(kind, data),
            Column::Auto => crc.checksum(data),
        }
    }
}

/// One measurement cell.
struct Sample {
    algorithm: &'static str,
    column: Column,
    buffer_bytes: usize,
    ns_per_call: f64,
}

impl Sample {
    fn gib_per_s(&self) -> f64 {
        self.buffer_bytes as f64 / self.ns_per_call * 1e9 / (1u64 << 30) as f64
    }
}

/// Calls per timed batch, so each batch runs ≥ ~2 ms.
fn calibrate(crc: &Crc, column: Column, data: &[u8]) -> usize {
    let start = Instant::now();
    std::hint::black_box(column.run(crc, data));
    let once = start.elapsed().as_secs_f64().max(1e-8);
    ((2e-3 / once) as usize).clamp(1, 1_000_000)
}

/// Nanoseconds per call over one batch of `calls`.
fn batch(crc: &Crc, column: Column, data: &[u8], calls: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(column.run(crc, std::hint::black_box(data)));
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
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
    let sizes = [16usize, 40, 128, 576, 1514, 65_536];

    let clmul_hw = EngineKind::Clmul.is_hardware_accelerated();
    let default = Crc::new(catalog::CRC32_ISO_HDLC).engine();
    let flags = cpu_flags();
    println!("engine tiers on this host: clmul hardware = {clmul_hw}, default = {default}");
    println!("cpu flags: {}", flags.join(" "));
    print!("{:<18} {:>7} ", "ns per call", "bytes");
    for column in Column::ALL {
        print!(" {:>10}", column.name());
    }
    println!("  auto/best");

    let mut samples: Vec<Sample> = Vec::new();
    let mut auto_misses = Vec::new();
    for params in algorithms {
        let crc = Crc::new(params);
        for &size in &sizes {
            let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
            let calls: Vec<usize> = Column::ALL
                .iter()
                .map(|&c| calibrate(&crc, c, &data))
                .collect();
            let mut times = vec![Vec::new(); Column::ALL.len()];
            let mut auto_vs_best = Vec::new();
            for _ in 0..reps.max(1) {
                let mut best = f64::MAX;
                for (i, &column) in Column::ALL.iter().enumerate() {
                    let ns = batch(&crc, column, &data, calls[i]);
                    times[i].push(ns);
                    if column == Column::Auto {
                        auto_vs_best.push(ns / best);
                    } else {
                        best = best.min(ns);
                    }
                }
            }
            print!("{:<18} {size:>7} ", params.name);
            for (&column, times) in Column::ALL.iter().zip(times) {
                let ns = median(times);
                print!(" {ns:>10.1}");
                samples.push(Sample {
                    algorithm: params.name,
                    column,
                    buffer_bytes: size,
                    ns_per_call: ns,
                });
            }
            let ratio = median(auto_vs_best);
            println!("  {ratio:>9.2}");
            if ratio > 1.10 {
                auto_misses.push(format!(
                    "{} {size} B: auto {ratio:.2}× the best tier",
                    params.name
                ));
            }
        }
    }

    let ns = |alg: &str, column: Column, size: usize| {
        samples
            .iter()
            .find(|s| s.algorithm == alg && s.column == column && s.buffer_bytes == size)
            .map(|s| s.ns_per_call)
            .expect("measured above")
    };
    let clmul = Column::Tier(EngineKind::Clmul);
    let slice16 = Column::Tier(EngineKind::Slice16);
    let speedup = ns("CRC-32/ISO-HDLC", slice16, 65_536) / ns("CRC-32/ISO-HDLC", clmul, 65_536);
    println!("\nCRC-32/ISO-HDLC 64 KiB: clmul/slice16 speedup = {speedup:.2}x");
    if clmul_hw && speedup < 3.0 {
        eprintln!("WARNING: CLMUL speedup below the 3x acceptance target");
    }
    for miss in &auto_misses {
        eprintln!("WARNING: auto dispatch loses to a single tier: {miss}");
    }
    let mut reflection = Vec::new();
    let (iso, bzip2) = (
        Crc::new(catalog::CRC32_ISO_HDLC),
        Crc::new(catalog::CRC32_BZIP2),
    );
    for size in [128usize, 1514, 65_536] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
        let calls = calibrate(&iso, Column::Auto, &data);
        let ratios = (0..3 * reps.max(1))
            .map(|_| {
                let reflected = batch(&iso, Column::Auto, &data, calls);
                reflected / batch(&bzip2, Column::Auto, &data, calls)
            })
            .collect();
        let r = median(ratios);
        println!("CRC-32/BZIP2 vs CRC-32/ISO-HDLC throughput at {size} B (auto): {r:.3}x");
        if clmul_hw && r < 0.9 {
            eprintln!("WARNING: non-reflected throughput below 0.9x reflected at {size} B");
        }
        reflection.push((size, r));
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"crc_engine_throughput\",").unwrap();
    writeln!(json, "  \"unit\": \"ns_per_call, GiB/s\",").unwrap();
    writeln!(
        json,
        "  \"host\": {{\"cores\": {}, \"cpu_flags\": [{}]}},",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        flags
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    )
    .unwrap();
    writeln!(json, "  \"clmul_hardware\": {clmul_hw},").unwrap();
    writeln!(json, "  \"default_engine\": \"{default}\",").unwrap();
    writeln!(json, "  \"reps\": {reps},").unwrap();
    writeln!(
        json,
        "  \"gate_clmul_vs_slice16_64kib_iso_hdlc\": {speedup:.3},"
    )
    .unwrap();
    for (size, r) in reflection {
        writeln!(json, "  \"gate_bzip2_vs_iso_hdlc_{size}\": {r:.3},").unwrap();
    }
    writeln!(json, "  \"auto_misses\": {},", auto_misses.len()).unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"algorithm\": \"{}\", \"engine\": \"{}\", \"buffer_bytes\": {}, \
             \"ns_per_call\": {:.2}, \"gib_per_s\": {:.4}}}{comma}",
            s.algorithm,
            s.column.name(),
            s.buffer_bytes,
            s.ns_per_call,
            s.gib_per_s()
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}

/// The CPU features that pick the CRC kernel, as detected at run time.
fn cpu_flags() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = Vec::new();
        if std::is_x86_feature_detected!("pclmulqdq") {
            flags.push("pclmulqdq");
        }
        if std::is_x86_feature_detected!("avx512f") {
            flags.push("avx512f");
        }
        if std::is_x86_feature_detected!("vpclmulqdq") {
            flags.push("vpclmulqdq");
        }
        if std::is_x86_feature_detected!("gfni") {
            flags.push("gfni");
        }
        flags
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("aes") {
            vec!["pmull"]
        } else {
            Vec::new()
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    Vec::new()
}
