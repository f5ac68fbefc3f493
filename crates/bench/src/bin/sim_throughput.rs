//! Trial-engine throughput measurement with a machine-readable trail.
//!
//! Compares ways of running the same Monte-Carlo scenario
//! (CRC-32/ISO-HDLC, MTU frames, BSC at low BER):
//!
//! * **reference** — the PR-1 single-thread loop: allocate + encode one
//!   frame, corrupt it, verify it, repeat;
//! * **batch ×1** — the sharded engine pinned to one thread: reused frame
//!   buffers sealed in place, burst corruption, burst verification;
//! * **sharded ×N** — the same engine on every available core.
//!
//! A second scenario, **jammer_eager**, swaps the BSC for the
//! content-dependent [`JammerChannel`], which cannot take the XOR-delta
//! shortcut: every frame is filled, sealed and (when struck) verified —
//! the eager path at full scale.
//!
//! Prints frames/sec for each, checks the acceptance gate (sharded ≥ 5×
//! reference on ≥ 4 cores; single-thread batch > reference everywhere),
//! and writes `BENCH_sim_throughput.json` so the trajectory stays
//! diffable from PR to PR.
//!
//! Usage: `cargo run --release -p crc-experiments --bin sim_throughput
//! [--trials N] [--reps N] [--out PATH]`

use crc_experiments::arg_or;
use crckit::catalog;
use netsim::channel::{BscChannel, Channel, JammerChannel};
use netsim::frame::FrameCodec;
use netsim::montecarlo::{Simulator, TrialConfig, TrialStats};
use std::fmt::Write as _;
use std::time::Instant;

const BER: f64 = 1e-5;
/// Strike probability per HDLC flag byte for the eager-path scenario:
/// random MTU payloads carry ~6 flag bytes, so most frames are struck.
const JAMMER_HIT: f64 = 0.25;

/// The PR-1 trial loop, kept verbatim as the measurement baseline: one
/// frame at a time, a fresh allocation per encode, no batching.
fn run_trials_reference(
    codec: &FrameCodec,
    channel: &mut dyn Channel,
    cfg: &TrialConfig,
) -> TrialStats {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    channel.reseed(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut stats = TrialStats::default();
    let mut payload = vec![0u8; cfg.payload_len];
    for _ in 0..cfg.trials {
        rng.fill(&mut payload[..]);
        let mut frame = codec.encode(&payload);
        let flips = channel.corrupt(&mut frame);
        stats.bits_flipped += flips as u64;
        if flips == 0 {
            stats.clean += 1;
        } else if codec.verify(&frame) {
            stats.undetected += 1;
        } else {
            stats.detected += 1;
        }
    }
    stats
}

/// Median-of-`reps` frames/sec for one way of running the scenario.
fn measure(reps: usize, trials: u64, mut run: impl FnMut() -> TrialStats) -> f64 {
    let mut rates: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            let stats = std::hint::black_box(run());
            assert_eq!(stats.total(), trials, "every mode must do all the work");
            assert_eq!(stats.undetected, 0, "32-bit CRC at this scale");
            trials as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

fn main() {
    let trials: u64 = arg_or("--trials", 100_000);
    let reps: usize = arg_or("--reps", 5);
    let out_path: String = arg_or("--out", "BENCH_sim_throughput.json".to_string());
    let telemetry_out: String = arg_or("--telemetry-out", "BENCH_sim_telemetry.json".to_string());

    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
    let cfg = TrialConfig {
        payload_len: 1_514,
        trials,
        seed: 0x51F0,
    };
    println!(
        "sim_throughput: {} trials of {}B MTU frames, BSC {BER:.0e}, engine {} \
         ({host_threads} host threads)",
        trials,
        cfg.payload_len,
        codec.engine()
    );

    let reference = measure(reps, trials, || {
        let mut ch = BscChannel::new(BER);
        run_trials_reference(&codec, &mut ch, &cfg)
    });
    println!("  reference ×1 : {reference:>12.0} frames/s");

    let single = Simulator::new().threads(1);
    let batch1 = measure(reps, trials, || {
        single.run(&codec, &BscChannel::new(BER), &cfg)
    });
    println!("  batch     ×1 : {batch1:>12.0} frames/s");

    let parallel = Simulator::new();
    let sharded = measure(reps, trials, || {
        parallel.run(&codec, &BscChannel::new(BER), &cfg)
    });
    println!("  sharded   ×{host_threads} : {sharded:>12.0} frames/s");

    // The content-dependent workload: every frame filled and sealed, no
    // delta shortcut — the eager path is what the jammer suite stresses.
    let jam_cfg = TrialConfig {
        seed: 0x51F1,
        ..cfg
    };
    let jammer_eager = measure(reps, trials, || {
        parallel.run(&codec, &JammerChannel::hdlc(JAMMER_HIT), &jam_cfg)
    });
    println!("  jammer_eager ×{host_threads} : {jammer_eager:>9.0} frames/s");

    let batch_speedup = batch1 / reference;
    let sharded_speedup = sharded / reference;
    println!(
        "\nbatch ×1 vs reference: {batch_speedup:.2}x; sharded ×{host_threads} vs \
         reference: {sharded_speedup:.2}x; eager (jammer) runs at {:.2}x the \
         delta path",
        jammer_eager / sharded
    );
    if batch_speedup < 1.0 {
        eprintln!("WARNING: single-thread batch engine slower than the reference loop");
    }
    if host_threads >= 4 && sharded_speedup < 5.0 {
        eprintln!("WARNING: sharded speedup below the 5x acceptance target on >=4 cores");
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"sim_throughput\",").unwrap();
    writeln!(json, "  \"unit\": \"frames/s\",").unwrap();
    writeln!(
        json,
        "  \"scenario\": \"CRC-32/ISO-HDLC, 1514B payload, BSC 1e-5\","
    )
    .unwrap();
    writeln!(json, "  \"trials\": {trials},").unwrap();
    writeln!(json, "  \"host_threads\": {host_threads},").unwrap();
    writeln!(
        json,
        "  \"gate_sharded_vs_reference\": {sharded_speedup:.3},"
    )
    .unwrap();
    writeln!(json, "  \"gate_batch1_vs_reference\": {batch_speedup:.3},").unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    let rows = [
        ("reference", 1usize, reference),
        ("batch", 1, batch1),
        ("sharded", host_threads, sharded),
        ("jammer_eager", host_threads, jammer_eager),
    ];
    for (i, (mode, threads, rate)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"mode\": \"{mode}\", \"threads\": {threads}, \
             \"frames_per_s\": {rate:.0}}}{comma}"
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");

    // Engine telemetry accumulated across every run above: the
    // eager-vs-delta path split and the consume-stage burst histogram. Integers only, so the file is
    // diffable like the throughput trail.
    telemetry::global()
        .write_snapshot(std::path::Path::new(&telemetry_out))
        .expect("write telemetry snapshot");
    println!("wrote {telemetry_out}");
}
