//! The repository's benchmark: one command per workload, every metric
//! printed by name and unit, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_w18 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics on the library's own entry
//! points (`Campaign::run`, `Coordinator::serve` + `run_worker`,
//! `Simulator::run_mix`). `--trace 1` alternates those untraced runs with a
//! traced run that calls each layer's public functions from this package
//! and times every call, checks that the traced run reproduces the
//! untraced outputs byte for byte, and reports the per-layer metrics plus
//! the tracing overhead. The last line of standard output is the JSON
//! result; the lines before it are the human-readable report. See
//! `perfbench/README.md` for the metric catalogue.

mod sim;
mod stats;
mod survey;

use stats::{Ledger, Sheet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Metrics and units printed with `--trace 0` (must match
/// `BENCHMARK.json`).
const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics and units printed with `--trace 1` (must match
/// `BENCHMARK.json`). A workload that does not exercise a layer reports it
/// as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("crc_hd.filter.calls", "count"),
    ("crc_hd.filter.busy_s", "s"),
    ("crc_hd.filter.pass_ratio", "ratio"),
    ("crc_hd.profile.calls", "count"),
    ("crc_hd.profile.busy_s", "s"),
    ("crc_hd.weights.calls", "count"),
    ("crc_hd.weights.busy_s", "s"),
    ("crc_hd.weights.ms_p50", "ms"),
    ("crc_hd.weights.ms_p90", "ms"),
    ("survey.campaign.record_busy_s", "s"),
    ("survey.engine.evaluate_busy_s", "s"),
    ("survey.engine.shard_ms_p50", "ms"),
    ("survey.engine.shard_ms_p99", "ms"),
    ("survey.engine.record_shard_busy_s", "s"),
    ("survey.engine.record_shard_ms_p50", "ms"),
    ("survey.engine.record_shard_ms_p99", "ms"),
    ("survey.engine.checkpoint_lock_wait_s", "s"),
    ("survey.engine.checkpoint_bytes", "bytes"),
    ("survey.engine.run_checkpoint_frac", "ratio"),
    ("survey.engine.polys_per_s", "1/s"),
    ("survey.funnel.candidates", "count"),
    ("survey.funnel.hd_pass", "count"),
    ("survey.funnel.profiled", "count"),
    ("survey.funnel.weights", "count"),
    ("survey.funnel.recorded", "count"),
    ("survey.transport.lease_rtt_ms_p50", "ms"),
    ("survey.transport.lease_rtt_ms_p99", "ms"),
    ("survey.transport.submit_rtt_ms_p50", "ms"),
    ("survey.transport.submit_rtt_ms_p99", "ms"),
    ("survey.transport.requests", "count"),
    ("survey.transport.bytes_sent", "bytes"),
    ("survey.transport.bytes_received", "bytes"),
    ("survey.transport.retries", "count"),
    ("survey.transport.frames_rejected", "count"),
    ("survey.transport.wait_replies", "count"),
    ("survey.coordinator.handle_ms_p50", "ms"),
    ("survey.coordinator.handle_ms_p99", "ms"),
    ("crckit.checksum_ns.iso_hdlc.16", "ns"),
    ("crckit.checksum_ns.iso_hdlc.40", "ns"),
    ("crckit.checksum_ns.iso_hdlc.576", "ns"),
    ("crckit.checksum_ns.iso_hdlc.1500", "ns"),
    ("crckit.checksum_ns.iso_hdlc.65536", "ns"),
    ("crckit.checksum_ns.bzip2.16", "ns"),
    ("crckit.checksum_ns.bzip2.40", "ns"),
    ("crckit.checksum_ns.bzip2.576", "ns"),
    ("crckit.checksum_ns.bzip2.1500", "ns"),
    ("crckit.checksum_ns.bzip2.65536", "ns"),
    ("netsim.montecarlo.fill_ns_per_frame", "ns"),
    ("netsim.frame.seal_ns_per_frame", "ns"),
    ("netsim.channel.corrupt_ns_per_frame", "ns"),
    ("netsim.frame.verify_ns_per_frame", "ns"),
    ("netsim.montecarlo.corrupted_ratio", "ratio"),
    ("telemetry.trace_overhead_frac", "ratio"),
    ("telemetry.accounted_frac", "ratio"),
];

/// Everything a workload needs from the command line and the host.
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Measuring budget for the timed repetitions.
    pub budget: Duration,
    /// Whether to alternate untraced runs with traced ones.
    pub trace: bool,
    /// Worker threads (`available_parallelism`).
    pub threads: usize,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
}

/// What a workload reports.
pub struct Outcome {
    /// Every metric it measured.
    pub sheet: Sheet,
    /// Operation and check tallies.
    pub ledger: Ledger,
}

/// Runs `rep(i)` for `i = 0, 1, …` until the budget is spent: at least
/// `min` times, and once more only while a repetition of the mean length
/// so far still ends inside the budget.
///
/// # Errors
///
/// The first error `rep` returns.
pub fn repeat_within(
    budget: Duration,
    min: usize,
    mut rep: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let t0 = Instant::now();
    let mut n = 0usize;
    loop {
        rep(n)?;
        n += 1;
        let elapsed = t0.elapsed();
        if n >= min && elapsed + elapsed / n as u32 > budget {
            return Ok(n);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload sweep_w18|fleet_w16|imix_sim \
                     --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("bad value for {flag}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// `nproc`, CPU model, the carry-less-multiply and AVX-512 flags, and the
/// CRC engine `Crc::new` selects — stamped on every result.
fn host_fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engine = crckit::Crc::new(crckit::catalog::CRC32_ISO_HDLC).engine();
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"pclmulqdq\": {}, \
         \"avx512f\": {}, \"vpclmulqdq\": {}, \"crc_engine\": \"{}\"}}}}",
        json_escape(&field("model name")),
        has("pclmulqdq"),
        has("avx512f"),
        has("vpclmulqdq"),
        engine.name()
    )
}

fn json_escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Empties every file under `dir` but deletes nothing.
fn retire(dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => retire(&path),
            Ok(t) if t.is_file() => {
                let _ = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(0));
            }
            _ => {}
        }
    }
}

fn result_line(table: &[(&str, &str)], outcome: &Outcome) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .sheet
                .get(name)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let l = &outcome.ledger;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        l.bad_checks == 0,
        l.attempted.max(1),
        l.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(".perfbench-work").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        work,
    };
    println!("{}", host_fingerprint());
    println!(
        "workload {} seed {} budget {}s trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.threads
    );
    let _ = std::fs::remove_dir_all(&ctx.work);
    let result = std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("create {}: {e}", ctx.work.display()))
        .and_then(|()| match args.workload.as_str() {
            "sweep_w18" => survey::sweep_w18(&ctx),
            "fleet_w16" => survey::fleet_w16(&ctx),
            "imix_sim" => sim::imix_sim(&ctx),
            other => Err(format!("unknown workload {other:?}\n{USAGE}")),
        });
    retire(&ctx.work);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        // The crckit layer is measured directly in every traced run; its
        // figures move imix_sim and, through the frame trailers, fleet_w16.
        sim::checksum_sweep(args.seed, &mut outcome.sheet, &mut outcome.ledger);
    }
    match peak_rss_mb() {
        Ok(mb) => outcome.sheet.set("peak_rss_mb", mb),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    for (name, value) in outcome.sheet.entries() {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| n == name)
            .map_or("?", |(_, u)| *u);
        println!("{name:<40} {value:>16.6} {unit}");
    }
    let l = &outcome.ledger;
    println!(
        "op_failure_ratio {}/{} = {}",
        l.failed,
        l.attempted,
        l.failed as f64 / l.attempted.max(1) as f64
    );
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(table, &outcome));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units printed here and those `BENCHMARK.json`
    /// declares must agree exactly, in order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let field = |entry: &str, key: &str| -> String {
            let rest = &entry[entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            body[..body.find(']').expect("section closes")]
                .split('{')
                .skip(1)
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect()
        };
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload imix_sim --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("imix_sim", 3, 5, true)
        );
        assert!(parse_args(&argv("--workload imix_sim --seed 3 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload imix_sim --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload imix_sim --seed 3 --seconds 0 --trace 0")).is_err());
    }

    #[test]
    fn repeat_within_respects_minimum_and_budget() {
        let mut n = 0;
        let reps = repeat_within(Duration::ZERO, 2, |_| {
            n += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((reps, n), (2, 2));
    }
}
