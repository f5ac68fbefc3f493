//! Engine-tier throughput measurement with a machine-readable trail.
//!
//! Measures both [`EngineKind`] tiers, each a [`Crc`] pinned through
//! [`Crc::try_with_engine`], and the auto-selected [`Crc::new`] on
//! representative catalog algorithms at real frame sizes (16 B acks,
//! 44 B — the length an IMIX ack is verified at — to 64 KiB buffers; 128
//! B is the one size in the 128-bit folding kernel's range on hosts that
//! have the 512-bit one), plus a `ctor_ns` row per tier timing
//! `Crc::try_with_engine` itself. It prints ns per call and GiB/s
//! tables, checks the acceptance gates, and writes
//! `BENCH_crc_throughput.json` so the performance trajectory stays
//! diffable from PR to PR. The gates:
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
//! two cells cannot fake a gap. Every timed batch is sized to run ≥ 2
//! ms: after a warm-up, the call count doubles until one batch takes
//! that long, and a timed batch that still comes in shorter (the host
//! sped up after calibration) is rerun at double the count, which the
//! cell keeps. The summary prints the shortest batch kept.
//!
//! Usage: `cargo run --release -p crc-experiments --bin crc_throughput
//! [--reps N] [--out PATH]`

use crc_experiments::arg_or;
use crckit::{catalog, Crc, CrcParams, EngineKind};
use std::fmt::Write as _;
use std::time::Instant;

/// A measured column: one pinned tier, or the auto-selected one.
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

    /// The column's engine for `params`.
    fn build(self, params: CrcParams) -> Crc {
        match self {
            Column::Tier(kind) => Crc::try_with_engine(params, kind).expect("catalog parameters"),
            Column::Auto => Crc::new(params),
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

/// Shortest batch [`calibrate`] accepts, in seconds.
const MIN_BATCH_S: f64 = 2e-3;

/// Seconds of warm-up calls before a batch size is chosen.
const WARMUP_S: f64 = 1e-3;

/// Seconds to run `f` `calls` times.
fn time<T>(calls: usize, f: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64()
}

/// Calls of `f` per timed batch: after a warm-up, the count doubles
/// until one batch runs ≥ [`MIN_BATCH_S`].
fn calibrate<T>(mut f: impl FnMut() -> T) -> usize {
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < WARMUP_S {
        std::hint::black_box(f());
    }
    let mut calls = 1;
    while time(calls, &mut f) < MIN_BATCH_S && calls < 1 << 30 {
        calls *= 2;
    }
    calls
}

/// Times batches of calls and remembers the shortest batch it kept.
struct Batches {
    shortest_s: f64,
    timed: usize,
}

impl Batches {
    /// Nanoseconds per call of `f` over one batch of `calls`. A batch
    /// under [`MIN_BATCH_S`] (the host sped up since calibration) is
    /// rerun with the count doubled, and the cell keeps the larger count
    /// for its later repetitions.
    fn batch<T>(&mut self, calls: &mut usize, mut f: impl FnMut() -> T) -> f64 {
        let mut s = time(*calls, &mut f);
        while s < MIN_BATCH_S && *calls < 1 << 30 {
            *calls *= 2;
            s = time(*calls, &mut f);
        }
        self.shortest_s = self.shortest_s.min(s);
        self.timed += 1;
        s * 1e9 / *calls as f64
    }
}

/// One checksum of `data`, opaque to the optimizer.
fn checksum(crc: &Crc, data: &[u8]) -> u64 {
    crc.checksum(std::hint::black_box(data))
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
    let sizes = [16usize, 40, 44, 128, 576, 1514, 65_536];

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

    let mut batches = Batches {
        shortest_s: f64::INFINITY,
        timed: 0,
    };
    let mut samples: Vec<Sample> = Vec::new();
    let mut ctor_ns = Vec::new();
    let mut auto_misses = Vec::new();
    for params in algorithms {
        let crcs: Vec<Crc> = Column::ALL.iter().map(|c| c.build(params)).collect();
        for &size in &sizes {
            let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();
            let mut calls: Vec<usize> = crcs
                .iter()
                .map(|crc| calibrate(|| checksum(crc, &data)))
                .collect();
            let mut times = vec![Vec::new(); Column::ALL.len()];
            let mut auto_vs_best = Vec::new();
            for _ in 0..reps.max(1) {
                let mut best = f64::MAX;
                for (i, &column) in Column::ALL.iter().enumerate() {
                    let ns = batches.batch(&mut calls[i], || checksum(&crcs[i], &data));
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
        // Construction cost per tier: what a caller pays per `Crc`.
        let build = |kind: EngineKind| {
            let p = std::hint::black_box(params);
            Crc::try_with_engine(p, kind).expect("catalog parameters")
        };
        let mut calls: Vec<usize> = EngineKind::ALL
            .iter()
            .map(|&kind| calibrate(|| build(kind)))
            .collect();
        let mut times = vec![Vec::new(); EngineKind::ALL.len()];
        for _ in 0..reps.max(1) {
            for (i, &kind) in EngineKind::ALL.iter().enumerate() {
                times[i].push(batches.batch(&mut calls[i], || build(kind)));
            }
        }
        print!("{:<18} {:>7} ", params.name, "ctor_ns");
        for (&kind, times) in EngineKind::ALL.iter().zip(times) {
            let ns = median(times);
            print!(" {ns:>10.1}");
            ctor_ns.push((params.name, kind, ns));
        }
        println!();
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
        let calls = calibrate(|| checksum(&iso, &data));
        let mut calls = [calls, calls];
        let ratios = (0..3 * reps.max(1))
            .map(|_| {
                let reflected = batches.batch(&mut calls[0], || checksum(&iso, &data));
                reflected / batches.batch(&mut calls[1], || checksum(&bzip2, &data))
            })
            .collect();
        let r = median(ratios);
        println!("CRC-32/BZIP2 vs CRC-32/ISO-HDLC throughput at {size} B (auto): {r:.3}x");
        if clmul_hw && r < 0.9 {
            eprintln!("WARNING: non-reflected throughput below 0.9x reflected at {size} B");
        }
        reflection.push((size, r));
    }
    let shortest_ms = batches.shortest_s * 1e3;
    println!(
        "shortest timed batch: {shortest_ms:.3} ms of {} batches (target ≥ {} ms)",
        batches.timed,
        MIN_BATCH_S * 1e3
    );

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
    writeln!(json, "  \"shortest_batch_ms\": {shortest_ms:.3},").unwrap();
    writeln!(
        json,
        "  \"gate_clmul_vs_slice16_64kib_iso_hdlc\": {speedup:.3},"
    )
    .unwrap();
    for (size, r) in reflection {
        writeln!(json, "  \"gate_bzip2_vs_iso_hdlc_{size}\": {r:.3},").unwrap();
    }
    writeln!(json, "  \"auto_misses\": {},", auto_misses.len()).unwrap();
    writeln!(json, "  \"ctor_ns\": [").unwrap();
    for (i, (algorithm, kind, ns)) in ctor_ns.iter().enumerate() {
        let comma = if i + 1 == ctor_ns.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"algorithm\": \"{algorithm}\", \"engine\": \"{kind}\", \"ns\": {ns:.1}}}{comma}"
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
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
