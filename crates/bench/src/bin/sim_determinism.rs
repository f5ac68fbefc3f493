//! Exact-count dump of a fixed Monte-Carlo suite, for determinism checks.
//!
//! Runs the simulator over a fixed set of scenarios at the given worker
//! thread count and writes every tally as JSON. CI's `sim-determinism`
//! job runs this at `--threads 1`, `2` and `4` and requires all outputs
//! byte-identical: the engine's results must be a pure function of the
//! seed, never of the thread schedule. The thread count is deliberately
//! *not* recorded in the JSON so the files diff directly. The job also
//! diffs the output against `crates/netsim/golden/sim_determinism.json`,
//! so a change in any channel's RNG draw order fails even when every
//! thread count agrees.
//!
//! The suite covers both engine paths: content-independent channels on
//! the XOR-delta fast path and content-dependent ones (jammer, stuffing
//! slips, length errors) on the eager path.
//!
//! Usage: `cargo run --release -p crc-experiments --bin sim_determinism
//! [--threads N] [--out PATH]`

use crckit::catalog;
use netsim::channel::{
    BscChannel, BurstChannel, Channel, GilbertElliottChannel, JammerChannel, StuffingChannel,
    TruncationChannel,
};
use netsim::frame::FrameCodec;
use netsim::imix::TrafficMix;
use netsim::montecarlo::{Simulator, TrialConfig, TrialStats};
use std::fmt::Write as _;

use crc_experiments::arg_or;

fn stats_json(name: &str, seed: u64, s: &TrialStats) -> String {
    format!(
        "    {{\"scenario\": \"{name}\", \"seed\": {seed}, \"clean\": {}, \"detected\": {}, \
         \"undetected\": {}, \"bits_flipped\": {}}}",
        s.clean, s.detected, s.undetected, s.bits_flipped
    )
}

fn main() {
    let threads: usize = arg_or("--threads", 0);
    let out_path: String = arg_or("--out", "sim_determinism.json".to_string());
    let sim = Simulator::new().threads(threads);

    let mut rows: Vec<String> = Vec::new();

    // Random traffic: delta-path channel families first, then the
    // content-dependent suite exercising the eager path.
    let scenarios: [(&str, Box<dyn Channel>, TrialConfig); 6] = [
        (
            "bsc_1e-4_mtu",
            Box::new(BscChannel::new(1e-4)),
            TrialConfig {
                payload_len: 1_514,
                trials: 50_000,
                seed: 0xD17E_0001,
            },
        ),
        (
            "gilbert_elliott_mtu",
            Box::new(GilbertElliottChannel::new(1e-4, 1e-2, 1e-7, 1e-2)),
            TrialConfig {
                payload_len: 1_514,
                trials: 30_000,
                seed: 0xD17E_0002,
            },
        ),
        (
            "burst32_256B",
            Box::new(BurstChannel::new(32)),
            TrialConfig {
                payload_len: 256,
                trials: 20_000,
                seed: 0xD17E_0003,
            },
        ),
        (
            "jammer_hdlc_mtu",
            Box::new(JammerChannel::hdlc(0.25)),
            TrialConfig {
                payload_len: 1_514,
                trials: 20_000,
                seed: 0xD17E_0006,
            },
        ),
        (
            "stuffing_slips_576B",
            Box::new(StuffingChannel::new(2e-3)),
            TrialConfig {
                payload_len: 576,
                trials: 20_000,
                seed: 0xD17E_0007,
            },
        ),
        (
            "truncation_256B",
            Box::new(TruncationChannel::new(0.05, 16)),
            TrialConfig {
                payload_len: 256,
                trials: 20_000,
                seed: 0xD17E_0008,
            },
        ),
    ];
    let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
    for (name, channel, cfg) in &scenarios {
        let stats = sim.run(&codec, channel.as_ref(), cfg);
        rows.push(stats_json(name, cfg.seed, &stats));
        println!(
            "{name}: clean {} detected {} undetected {}",
            stats.clean, stats.detected, stats.undetected
        );
    }

    // Weighted trials at CRC-8 scale, where undetected counts are nonzero
    // — merging must be exact on every field, not just the common ones.
    let codec8 = FrameCodec::new(catalog::CRC8_SMBUS);
    let weighted = sim.run_weighted(&codec8, 2, 4, 60_000, 0xD17E_0004);
    assert!(
        weighted.undetected > 0,
        "CRC-8 weighted trials should see measurable undetected events"
    );
    rows.push(stats_json("crc8_weighted_k4", 0xD17E_0004, &weighted));
    println!(
        "crc8_weighted_k4: detected {} undetected {}",
        weighted.detected, weighted.undetected
    );

    // Mixed-size traffic: per-class tallies must merge deterministically.
    // The jammer rows are the eager-path shape perfbench's `imix_sim` runs.
    let mix = TrafficMix::simple_imix();
    let mixes: [(&str, Box<dyn Channel>, u64); 2] = [
        (
            "imix",
            Box::new(GilbertElliottChannel::new(1e-4, 1e-2, 1e-7, 1e-2)),
            0xD17E_0005,
        ),
        (
            "imix_jammer",
            Box::new(JammerChannel::hdlc(0.25)),
            0xD17E_0009,
        ),
    ];
    for (prefix, channel, seed) in &mixes {
        let mix_stats = sim.run_mix(&codec, channel.as_ref(), &mix, 24_000, *seed);
        for (class, stats) in &mix_stats.per_class {
            rows.push(stats_json(
                &format!("{prefix}_{}", class.label.replace(' ', "_")),
                *seed,
                stats,
            ));
        }
        println!("{prefix} total: {:?}", mix_stats.total());
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"suite\": \"sim_determinism\",").unwrap();
    writeln!(
        json,
        "  \"shard_frames\": {},",
        Simulator::DEFAULT_SHARD_FRAMES
    )
    .unwrap();
    writeln!(json, "  \"scenarios\": [").unwrap();
    writeln!(json, "{}", rows.join(",\n")).unwrap();
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write determinism JSON");
    println!("wrote {out_path}");
}
