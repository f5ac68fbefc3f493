//! The `imix_sim` workload and the crckit size sweep.
//!
//! `Simulator::run_mix` with the content-dependent HDLC jammer takes the
//! eager path: every frame is filled, sealed, corrupted and verified. The
//! traced run re-implements that sharded eager loop from the public
//! pieces — `shard_seed` streams, `Channel::fork`/`corrupt_batch`,
//! `FrameCodec::seal`/`verify_batch` — timing each stage per burst, and
//! must tally exactly what `run_mix` tallied.

use crate::stats::{
    list, median, quantile, report_accounting, report_overhead, secs, Ledger, SetupSampler, Sheet,
};
use crate::{repeat_within, Ctx, Outcome};
use crckit::{catalog, Crc};
use netsim::channel::{Channel, JammerChannel};
use netsim::frame::FrameCodec;
use netsim::imix::TrafficMix;
use netsim::montecarlo::{shard_seed, STREAM_CHANNEL, STREAM_FILL, STREAM_PLAN};
use netsim::{Simulator, TrialStats};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Frames per repetition: 0.09–0.15 s on one thread, so a 30 s run holds
/// about two hundred repetitions and about ten lie beyond the p95.
const IMIX_FRAMES: u64 = 1 << 18;
/// Simulator threads. One thread leaves the host's other core to the
/// kernel and to neighbouring load: with every core busy, any other
/// runnable task took its share out of the measured run, and an
/// intermittent single-core load cut the two-thread median by up to a
/// third but the one-thread p90 by at most 7%.
const IMIX_THREADS: usize = 1;
/// The quantile of the per-repetition rates reported as `items_per_s`.
/// Contention on a shared host only ever slows a repetition down, so the
/// fast tail tracks the program while the median tracks the neighbours:
/// the host switched for seconds at a time between a fast mode and one
/// about 1.55 times slower, and some runs spent under 10% of their time
/// in the fast mode.
const RATE_QUANTILE: f64 = 0.95;
/// The quantile of the set-up batch means reported as `setup_s`: the fast
/// tail, for the same reason (the 10 µs set-up read 9 µs in the fast mode
/// and 15–16 µs in the slow one).
const SETUP_QUANTILE: f64 = 0.05;
const JAM_PROB: f64 = 0.25;
const SWEEP_SIZES: [usize; 5] = [16, 40, 576, 1500, 65536];

/// Per-stage busy time of the traced eager loop, summed over threads.
#[derive(Default, Clone, Copy)]
struct StageTrace {
    frames: u64,
    corrupted: u64,
    fill_s: f64,
    seal_s: f64,
    corrupt_s: f64,
    verify_s: f64,
}

impl StageTrace {
    fn merge(&mut self, o: &StageTrace) {
        self.frames += o.frames;
        self.corrupted += o.corrupted;
        self.fill_s += o.fill_s;
        self.seal_s += o.seal_s;
        self.corrupt_s += o.corrupt_s;
        self.verify_s += o.verify_s;
    }
}

/// Mirror of `TrafficMix`'s weighted class draw (one `gen_range` over the
/// total weight, walked through the classes).
fn draw_class(mix: &TrafficMix, total_weight: u32, rng: &mut impl Rng) -> usize {
    let mut ticket = rng.gen_range(0..total_weight);
    for (i, c) in mix.classes().iter().enumerate() {
        if ticket < c.weight {
            return i;
        }
        ticket -= c.weight;
    }
    mix.classes().len() - 1
}

/// The sharded eager loop of `Simulator::run_mix`, stage-timed per burst.
/// Returns the per-class tallies and the stage times.
fn traced_mix(
    codec: &FrameCodec,
    channel: &JammerChannel,
    mix: &TrafficMix,
    trials: u64,
    seed: u64,
    threads: usize,
) -> (Vec<TrialStats>, StageTrace) {
    let shard_frames = Simulator::DEFAULT_SHARD_FRAMES;
    let batch = Simulator::DEFAULT_BATCH;
    let shards = trials.div_ceil(shard_frames);
    let total_weight: u32 = mix.classes().iter().map(|c| c.weight).sum();
    let classes = mix.classes().len();
    let next = AtomicU64::new(0);
    let parts: Vec<(Vec<TrialStats>, StageTrace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.clamp(1, shards.max(1) as usize))
            .map(|_| {
                s.spawn(|| {
                    let mut tallies = vec![TrialStats::default(); classes];
                    let mut tr = StageTrace::default();
                    let mut frames: Vec<Vec<u8>> = vec![Vec::new(); batch];
                    let mut tags = vec![0usize; batch];
                    let mut flips = Vec::new();
                    loop {
                        let shard = next.fetch_add(1, Ordering::Relaxed);
                        if shard >= shards {
                            break;
                        }
                        let mut plan =
                            rand::rngs::StdRng::seed_from_u64(shard_seed(seed, shard, STREAM_PLAN));
                        let mut fill =
                            rand::rngs::StdRng::seed_from_u64(shard_seed(seed, shard, STREAM_FILL));
                        let mut ch = channel.fork(shard_seed(seed, shard, STREAM_CHANNEL));
                        let mut left = shard_frames.min(trials - shard * shard_frames);
                        while left > 0 {
                            let burst = (batch as u64).min(left) as usize;
                            // Plan and fill draw from separate streams, so
                            // filling the whole burst before sealing it
                            // consumes each stream exactly as run_mix does.
                            let t = Instant::now();
                            for (frame, tag) in frames[..burst].iter_mut().zip(&mut tags) {
                                *tag = draw_class(mix, total_weight, &mut plan);
                                frame.clear();
                                frame.resize(mix.classes()[*tag].payload_len, 0);
                                fill.fill(&mut frame[..]);
                            }
                            let t_seal = Instant::now();
                            for frame in &mut frames[..burst] {
                                codec.seal(frame);
                            }
                            let t_corrupt = Instant::now();
                            ch.corrupt_batch(&mut frames[..burst], &mut flips);
                            let t_verify = Instant::now();
                            let corrupted: Vec<&[u8]> = frames[..burst]
                                .iter()
                                .zip(&flips)
                                .filter(|(_, &f)| f > 0)
                                .map(|(frame, _)| frame.as_slice())
                                .collect();
                            let verdicts = codec.verify_batch(&corrupted);
                            let t_end = Instant::now();
                            tr.fill_s += secs(t_seal - t);
                            tr.seal_s += secs(t_corrupt - t_seal);
                            tr.corrupt_s += secs(t_verify - t_corrupt);
                            tr.verify_s += secs(t_end - t_verify);
                            tr.frames += burst as u64;
                            tr.corrupted += corrupted.len() as u64;
                            let mut v = verdicts.iter();
                            for (&tag, &f) in tags[..burst].iter().zip(&flips) {
                                let stats = &mut tallies[tag];
                                stats.bits_flipped += u64::from(f);
                                if f == 0 {
                                    stats.clean += 1;
                                } else if *v.next().expect("one verdict per corrupted frame") {
                                    stats.undetected += 1;
                                } else {
                                    stats.detected += 1;
                                }
                            }
                            left -= burst as u64;
                        }
                    }
                    (tallies, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced simulator workers do not panic"))
            .collect()
    });
    let mut tallies = vec![TrialStats::default(); classes];
    let mut trace = StageTrace::default();
    for (part, tr) in parts {
        for (acc, t) in tallies.iter_mut().zip(&part) {
            acc.merge(t);
        }
        trace.merge(&tr);
    }
    (tallies, trace)
}

/// IMIX frames through the content-dependent HDLC jammer, CRC-32/ISO-HDLC.
pub fn imix_sim(ctx: &Ctx) -> Result<Outcome, String> {
    let mut sheet = Sheet::default();
    let mut ledger = Ledger::default();
    let mut setup = SetupSampler::new(|_| {
        let t = Instant::now();
        let built = (
            FrameCodec::new(catalog::CRC32_ISO_HDLC),
            JammerChannel::hdlc(JAM_PROB),
            TrafficMix::simple_imix(),
            Simulator::new().threads(IMIX_THREADS),
        );
        let el = t.elapsed();
        black_box(built);
        Ok(el)
    })?;

    let codec = FrameCodec::new(catalog::CRC32_ISO_HDLC);
    let channel = JammerChannel::hdlc(JAM_PROB);
    let mix = TrafficMix::simple_imix();
    let sim = Simulator::new().threads(IMIX_THREADS);
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut trace = StageTrace::default();
    let mut capacity_s = 0.0;
    let mut reference: Option<Vec<TrialStats>> = None;
    repeat_within(ctx.budget, if ctx.trace { 2 } else { 1 }, |i| {
        setup.window()?;
        let t = Instant::now();
        let (tallies, wall) = if ctx.trace && i % 2 == 1 {
            let (tallies, tr) =
                traced_mix(&codec, &channel, &mix, IMIX_FRAMES, ctx.seed, IMIX_THREADS);
            let wall = t.elapsed();
            trace.merge(&tr);
            capacity_s += secs(wall) * IMIX_THREADS as f64;
            traced_rates.push(IMIX_FRAMES as f64 / secs(wall));
            (tallies, wall)
        } else {
            let stats = sim.run_mix(&codec, &channel, &mix, IMIX_FRAMES, ctx.seed);
            let wall = t.elapsed();
            rates.push(IMIX_FRAMES as f64 / secs(wall));
            (stats.per_class.into_iter().map(|(_, s)| s).collect(), wall)
        };
        let mut total = TrialStats::default();
        for s in &tallies {
            total.merge(s);
        }
        ledger.ops(IMIX_FRAMES, 0);
        ledger.check(
            total.total() == IMIX_FRAMES,
            "every frame is tallied exactly once",
        );
        ledger.check(total.undetected == 0, "no corrupted frame passes CRC-32");
        if i < 2 {
            println!(
                "  rep {i}: {} frames in {:.3} s, {} corrupted, {} detected",
                total.total(),
                secs(wall),
                total.corrupted(),
                total.detected
            );
        }
        match &reference {
            None => reference = Some(tallies),
            Some(r) => ledger.check(*r == tallies, "per-class tallies equal the first run's"),
        }
        Ok(())
    })?;
    setup.window()?;
    sheet.set("setup_s", setup.report(SETUP_QUANTILE));
    let rate = quantile(&rates, RATE_QUANTILE);
    println!(
        "  frames_per_s: p{:.0} {rate:.1} (median {:.1}) of {} untraced runs: {}",
        RATE_QUANTILE * 100.0,
        median(&rates),
        rates.len(),
        list(&rates)
    );
    sheet.set("items_per_s", rate);
    if ctx.trace {
        let per_frame = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
        sheet.set(
            "netsim.montecarlo.fill_ns_per_frame",
            per_frame(trace.fill_s, trace.frames),
        );
        sheet.set(
            "netsim.frame.seal_ns_per_frame",
            per_frame(trace.seal_s, trace.frames),
        );
        sheet.set(
            "netsim.channel.corrupt_ns_per_frame",
            per_frame(trace.corrupt_s, trace.frames),
        );
        sheet.set(
            "netsim.frame.verify_ns_per_frame",
            per_frame(trace.verify_s, trace.corrupted),
        );
        sheet.set(
            "netsim.montecarlo.corrupted_ratio",
            trace.corrupted as f64 / trace.frames.max(1) as f64,
        );
        let layers = [
            ("netsim.montecarlo.fill", trace.fill_s),
            ("netsim.frame.seal", trace.seal_s),
            ("netsim.channel.corrupt", trace.corrupt_s),
            ("netsim.frame.verify", trace.verify_s),
        ];
        report_accounting(&mut sheet, &layers, capacity_s);
        report_overhead(&mut sheet, median(&rates), &traced_rates);
    }
    Ok(Outcome { sheet, ledger })
}

/// `Crc::checksum` (auto dispatch) per call at each sweep size, for the
/// reflected CRC-32/ISO-HDLC and the non-reflected CRC-32/BZIP2: the
/// median over nine batches of 1–5 ms each on this class of host. Every
/// checksum is checked against the bitwise reference engine.
pub fn checksum_sweep(seed: u64, sheet: &mut Sheet, ledger: &mut Ledger) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for (label, params) in [
        ("iso_hdlc", catalog::CRC32_ISO_HDLC),
        ("bzip2", catalog::CRC32_BZIP2),
    ] {
        let crc = Crc::new(params);
        for size in SWEEP_SIZES {
            let mut buf = vec![0u8; size];
            rng.fill(&mut buf[..]);
            let expect = crc.checksum_bitwise(&buf);
            ledger.check(
                crc.checksum(&buf) == expect,
                &format!("{label} checksum at {size} B matches the bitwise engine"),
            );
            let calls = (20_000_000 / (size + 64)).max(256);
            let mut batches = Vec::with_capacity(9);
            for _ in 0..9 {
                let t = Instant::now();
                let mut acc = 0u64;
                for _ in 0..calls {
                    acc ^= crc.checksum(black_box(&buf));
                }
                black_box(acc);
                batches.push(secs(t.elapsed()) * 1e9 / calls as f64);
            }
            sheet.set(
                &format!("crckit.checksum_ns.{label}.{size}"),
                median(&batches),
            );
        }
    }
    println!(
        "  crckit engine {} (auto dispatch)",
        Crc::new(catalog::CRC32_ISO_HDLC).engine().name()
    );
}
