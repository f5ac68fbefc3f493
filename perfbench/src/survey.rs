//! The survey workloads: the width-18 sweep on the local `Campaign::run`
//! pool, and the width-16 fleet served by `Coordinator::serve` to
//! `run_worker` loops over loopback TCP.
//!
//! The traced local pool below re-implements `Campaign::run` and
//! `evaluate_unit` from the crates' public functions — `hd_filter_in`,
//! `HdProfile::compute_in`, `SyndromeWorkspace::weight2`/`weights234`,
//! the record fields, the shard log and `Checkpoint` renders — so each
//! call can be timed from this file; it writes the same files in the same
//! order and under the same lock as `Campaign::run`, and its artifacts
//! must equal the untraced run's byte for byte. The traced fleet wraps
//! the transports instead: a timing `WorkerTransport` around each
//! `TcpClient` and a timing `ServeTransport` around the `TcpServer`, which
//! times every `Coordinator::handle` call.

use crate::stats::{
    list, median, ms, report_accounting, report_overhead, secs, Ledger, SetupSampler, Sheet,
};
use crate::{repeat_within, Ctx, Outcome};
use crc_hd::costmodel::engine_cost;
use crc_hd::filter::hd_filter_in;
use crc_hd::{GenPoly, HdProfile, SyndromeWorkspace};
use crc_survey::campaign::{
    unit_seed, CampaignConfig, Checkpoint, Mode, ShardResult, SurvivorRecord, WorkUnit,
};
use crc_survey::coordinator::Coordinator;
use crc_survey::engine::{evaluate_unit, Campaign, RunSummary, UnitScratch};
use crc_survey::frame::{self, WireStats};
use crc_survey::json::Json;
use crc_survey::transport::{
    Reply, Request, ServeTransport, TcpClient, TcpServer, WorkerTransport,
};
use crc_survey::worker::{run_worker, RetryPolicy, WorkerOptions, WorkerSummary};
use gf2poly::SplitMix64;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sweep shards re-evaluated on fresh scratch per run.
const SWEEP_REEVALUATE: usize = 16;

/// Coordinator idle poll, as `survey coordinate` serves.
const POLL: Duration = Duration::from_millis(10);
/// Long enough that a worker parked in a `Wait` backoff (at most 150 ms)
/// still hears `Done`; the benchmark stops the coordinator as soon as
/// every worker has returned, so the linger never adds to a run.
const LINGER: Duration = Duration::from_secs(2);
const LEASE_TTL: Duration = Duration::from_secs(60);
/// Connect and read timeout of each worker's `TcpClient`.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// A fleet worker still running this long after the fleet started counts
/// as failed. Its retry budget (four attempts of at most
/// `CLIENT_TIMEOUT` each) ends it well inside this deadline.
const WORKER_DEADLINE: Duration = Duration::from_secs(60);

const FUNNEL: [&str; 5] = [
    "survey.funnel.candidates",
    "survey.funnel.hd_pass",
    "survey.funnel.profiled",
    "survey.funnel.weights",
    "survey.funnel.recorded",
];

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Exhaustive width-`width` space, HD ≥ 5 at 128 bits, profiles to 1024.
fn exhaustive_config(width: u32, shards: u64, seed: u64) -> CampaignConfig {
    CampaignConfig {
        width,
        shards,
        seed,
        mode: Mode::Exhaustive,
        min_hd: 5,
        target_lengths: vec![128, 1024],
        ber_grid: vec![1e-5, 1e-6],
        max_weight: 8,
    }
}

fn registry_value(name: &str) -> u64 {
    match telemetry::global().get(name) {
        Some(telemetry::Metric::Counter(c)) => c.get(),
        Some(telemetry::Metric::Gauge(g)) => g.get(),
        Some(telemetry::Metric::Histogram(h)) => h.sum(),
        _ => 0,
    }
}

fn funnel_counts() -> [u64; 5] {
    FUNNEL.map(registry_value)
}

/// Campaign artifacts by relative path: `campaign.json` and every shard
/// log (the coordinator's `coordinator-summary.json` is not an artifact).
type Artifacts = BTreeMap<String, Vec<u8>>;

fn read_artifacts(dir: &Path) -> Result<Artifacts, String> {
    let mut out = Artifacts::new();
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
    out.insert("campaign.json".into(), read(&dir.join("campaign.json"))?);
    let shards = dir.join("shards");
    for entry in
        std::fs::read_dir(&shards).map_err(|e| format!("list {}: {e}", shards.display()))?
    {
        let path = entry.map_err(err)?.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if name.ends_with(".json") {
            out.insert(format!("shards/{name}"), read(&path)?);
        }
    }
    Ok(out)
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Bytes the checkpoint protocol writes over one campaign: the manifest
/// after creation and after each of the `S` shard completions (in
/// ascending completion order; each rewrite lists every completed shard),
/// plus every shard log. Computed, not measured; the manifest formula is
/// checked against the final manifest's real size.
fn checkpoint_bytes(cfg: &CampaignConfig, artifacts: &Artifacts, ledger: &mut Ledger) -> f64 {
    let render = |completed: &[u64]| {
        Checkpoint {
            config: cfg.clone(),
            completed: completed.iter().copied().collect(),
        }
        .to_json()
        .render()
        .len() as u64
    };
    let (empty, one) = (render(&[]), render(&[0]));
    let per_entry = render(&[0, 1]) - one - 1;
    let mut total = empty;
    let mut len = one;
    for k in 1..=cfg.shards {
        total += len;
        if k < cfg.shards {
            len += per_entry + k.to_string().len() as u64;
        }
    }
    let final_len = artifacts.get("campaign.json").map_or(0, |b| b.len() as u64);
    ledger.check(
        len == final_len,
        "computed final manifest size matches campaign.json",
    );
    let logs: u64 = artifacts
        .iter()
        .filter(|(k, _)| k.starts_with("shards/"))
        .map(|(_, v)| v.len() as u64)
        .sum();
    (total + logs) as f64
}

/// `n` distinct indices below `len`, drawn from `seed`.
fn sample_indices(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    let mut rng = SplitMix64::new(seed);
    let n = n.min(len);
    for i in 0..n {
        let j = i + rng.next_below((len - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(n);
    idx
}

// ---------------------------------------------------------------------
// Local pool: sweep_w18
// ---------------------------------------------------------------------

/// Re-evaluates a seed-chosen sample of shards on fresh scratch and
/// compares the rendered logs with the files on disk.
fn reevaluate_shards(
    ctx: &Ctx,
    cfg: &CampaignConfig,
    campaign: &Campaign,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let units = cfg.work_units();
    let hash = cfg.content_hash();
    for i in sample_indices(units.len(), SWEEP_REEVALUATE, ctx.seed ^ 0x5EED_C0DE) {
        let fresh = evaluate_unit(cfg, units[i], &mut UnitScratch::default()).map_err(err)?;
        let on_disk =
            std::fs::read_to_string(campaign.shard_log_path(units[i].shard)).map_err(err)?;
        ledger.check(
            fresh.to_json(hash).render() == on_disk,
            "re-evaluated shard matches its log byte for byte",
        );
    }
    Ok(())
}

struct LocalRep {
    wall: Duration,
    candidates: u64,
    summary: RunSummary,
    funnel: [u64; 5],
    gauge: u64,
    /// Share of the pool's busy capacity (wall × threads) spent outside
    /// `evaluate_unit`, from the library's own `survey.engine.shard_us`
    /// histogram: checkpoint writes, lock wait and the pool's tail.
    checkpoint_frac: f64,
}

fn untraced_local(dir: &Path, cfg: &CampaignConfig, threads: usize) -> Result<LocalRep, String> {
    let mut campaign = Campaign::create(dir, cfg.clone()).map_err(err)?;
    let before = funnel_counts();
    let eval_before = registry_value("survey.engine.shard_us");
    let t0 = Instant::now();
    let summary = campaign.run(threads, None).map_err(err)?;
    let wall = t0.elapsed();
    let eval_s = (registry_value("survey.engine.shard_us") - eval_before) as f64 / 1e6;
    let after = funnel_counts();
    let threads = threads.clamp(1, cfg.shards as usize);
    Ok(LocalRep {
        wall,
        candidates: summary.canonical,
        summary,
        funnel: std::array::from_fn(|i| after[i] - before[i]),
        gauge: registry_value("survey.engine.polys_per_s"),
        checkpoint_frac: 1.0 - eval_s / (secs(wall) * threads as f64),
    })
}

/// Per-layer tallies of one traced run (summed over its threads).
#[derive(Default)]
struct FunnelTrace {
    candidates: u64,
    filter_pass: u64,
    profiled: u64,
    weighed: u64,
    recorded: u64,
    filter_s: f64,
    profile_s: f64,
    weights_calls: u64,
    weights_s: f64,
    weights_ms: Vec<f64>,
    record_s: f64,
    evaluate_s: f64,
    shard_ms: Vec<f64>,
    record_shard_s: f64,
    record_shard_ms: Vec<f64>,
    lock_wait_s: f64,
}

impl FunnelTrace {
    fn merge(&mut self, o: FunnelTrace) {
        self.candidates += o.candidates;
        self.filter_pass += o.filter_pass;
        self.profiled += o.profiled;
        self.weighed += o.weighed;
        self.recorded += o.recorded;
        self.filter_s += o.filter_s;
        self.profile_s += o.profile_s;
        self.weights_calls += o.weights_calls;
        self.weights_s += o.weights_s;
        self.weights_ms.extend(o.weights_ms);
        self.record_s += o.record_s;
        self.evaluate_s += o.evaluate_s;
        self.shard_ms.extend(o.shard_ms);
        self.record_shard_s += o.record_shard_s;
        self.record_shard_ms.extend(o.record_shard_ms);
        self.lock_wait_s += o.lock_wait_s;
    }

    /// The funnel counts in `FUNNEL` order.
    fn counts(&self) -> [u64; 5] {
        [
            self.candidates,
            self.filter_pass,
            self.profiled,
            self.weighed,
            self.recorded,
        ]
    }
}

/// `SurvivorRecord::screen_in` step by step, timing each layer.
fn traced_screen(
    g: &GenPoly,
    cfg: &CampaignConfig,
    ws: &mut SyndromeWorkspace,
    tr: &mut FunnelTrace,
) -> Result<Option<SurvivorRecord>, String> {
    tr.candidates += 1;
    let t = Instant::now();
    let verdict = hd_filter_in(ws, g, cfg.screen_len(), cfg.min_hd).map_err(err)?;
    tr.filter_s += secs(t.elapsed());
    if !verdict.passed() {
        return Ok(None);
    }
    tr.filter_pass += 1;
    let ref_len = cfg.ref_len();
    let t = Instant::now();
    let profile = HdProfile::compute_in(ws, g, ref_len, cfg.max_weight).map_err(err)?;
    tr.profile_s += secs(t.elapsed());
    tr.profiled += 1;
    let t = Instant::now();
    let w2 = ws.weight2(g, ref_len).map_err(err)?;
    tr.weights_calls += 1;
    let w34 = if u128::from(ref_len) + u128::from(g.width()) <= profile.order() {
        let w = ws.weights234(g, ref_len).map_err(err)?;
        tr.weights_calls += 1;
        tr.weighed += 1;
        Some((w.w3, w.w4))
    } else {
        None
    };
    let el = t.elapsed();
    tr.weights_s += secs(el);
    tr.weights_ms.push(ms(el));
    let t = Instant::now();
    let record = SurvivorRecord {
        koopman: g.koopman(),
        width: g.width(),
        class: gf2poly::factor(g.to_poly()).signature().to_string(),
        taps: engine_cost(g).taps,
        order: profile.order(),
        dmins: profile.dmins().to_vec(),
        memo: ws.memo_facts(g),
        max_weight_explored: profile.max_weight_explored(),
        ref_len,
        w2,
        w34,
    };
    tr.record_s += secs(t.elapsed());
    tr.recorded += 1;
    Ok(Some(record))
}

/// `evaluate_unit` of an exhaustive campaign over the traced screen.
fn traced_unit(
    cfg: &CampaignConfig,
    unit: WorkUnit,
    ws: &mut SyndromeWorkspace,
    tr: &mut FunnelTrace,
) -> Result<ShardResult, String> {
    if !matches!(cfg.mode, Mode::Exhaustive) {
        return Err("only exhaustive campaigns are traced".into());
    }
    let mut survivors = Vec::new();
    let (mut scanned, mut canonical) = (0u64, 0u64);
    for g in cfg.space().iter_range(unit.start, unit.end) {
        scanned += 1;
        if g.koopman() > g.reciprocal().koopman() {
            continue;
        }
        canonical += 1;
        survivors.extend(traced_screen(&g, cfg, ws, tr)?);
    }
    Ok(ShardResult {
        unit,
        scanned,
        canonical,
        survivors,
    })
}

/// The library's atomic write: a temp file beside `path`, then a rename.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
}

/// `Campaign::run` with every layer call timed. As there, threads claim
/// units in order and evaluate them; each writes its shard log outside
/// any lock, then inserts the shard into the checkpoint and rewrites
/// `campaign.json` under one lock.
fn traced_local(
    dir: &Path,
    cfg: &CampaignConfig,
    threads: usize,
) -> Result<(Duration, FunnelTrace, usize), String> {
    let campaign = Campaign::create(dir, cfg.clone()).map_err(err)?;
    let manifest = campaign.dir().join("campaign.json");
    let checkpoint = Mutex::new(Checkpoint {
        config: cfg.clone(),
        completed: BTreeSet::new(),
    });
    let units = cfg.work_units();
    let threads = threads.clamp(1, units.len());
    let next = AtomicUsize::new(0);
    let hash = cfg.content_hash();
    let t0 = Instant::now();
    let parts: Vec<Result<FunnelTrace, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut ws = SyndromeWorkspace::new();
                    let mut tr = FunnelTrace::default();
                    while let Some(&unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let t = Instant::now();
                        let result = traced_unit(cfg, unit, &mut ws, &mut tr)?;
                        let el = t.elapsed();
                        tr.evaluate_s += secs(el);
                        tr.shard_ms.push(ms(el));
                        let t = Instant::now();
                        let log = result.to_json(hash).render();
                        tr.record_s += secs(t.elapsed());
                        let t = Instant::now();
                        write_atomic(&campaign.shard_log_path(unit.shard), &log)?;
                        let log_write = t.elapsed();
                        let t = Instant::now();
                        let mut ck = checkpoint
                            .lock()
                            .expect("no thread panicked holding the checkpoint");
                        tr.lock_wait_s += secs(t.elapsed());
                        let t = Instant::now();
                        ck.completed.insert(unit.shard);
                        write_atomic(&manifest, &ck.to_json().render())?;
                        drop(ck);
                        let el = log_write + t.elapsed();
                        tr.record_shard_s += secs(el);
                        tr.record_shard_ms.push(ms(el));
                    }
                    Ok(tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced workers do not panic"))
            .collect()
    });
    let wall = t0.elapsed();
    let mut trace = FunnelTrace::default();
    for part in parts {
        trace.merge(part?);
    }
    Ok((wall, trace, threads))
}

/// Exhaustive width-18 space in 4096 shards on the local pool, run until
/// the budget is spent (with `--trace 1`, every second run is traced).
pub fn sweep_w18(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = exhaustive_config(18, 4096, ctx.seed);
    let mut sheet = Sheet::default();
    let mut ledger = Ledger::default();
    let mut setup = SetupSampler::new(|i| {
        let dir = ctx.work.join(format!("setup-{i}"));
        let t = Instant::now();
        Campaign::create(&dir, cfg.clone()).map_err(err)?;
        let el = t.elapsed();
        remove(&dir);
        Ok(el)
    })?;

    let mut untraced: Vec<LocalRep> = Vec::new();
    let mut traced_rates: Vec<f64> = Vec::new();
    let mut trace = FunnelTrace::default();
    let mut busy_capacity_s = 0.0;
    let mut reference: Option<Artifacts> = None;
    repeat_within(ctx.budget, if ctx.trace { 2 } else { 1 }, |i| {
        setup.window()?;
        let dir = ctx.work.join(format!("rep-{i}"));
        if ctx.trace && i % 2 == 1 {
            let (wall, tr, threads) = traced_local(&dir, &cfg, ctx.threads)?;
            println!(
                "  rep {i} (traced): {} candidates in {:.3} s",
                tr.candidates,
                secs(wall)
            );
            if let Some(first) = untraced.first() {
                ledger.check(
                    tr.counts() == first.funnel,
                    "traced funnel counts equal the untraced survey.funnel counters",
                );
            }
            traced_rates.push(tr.candidates as f64 / secs(wall));
            busy_capacity_s += secs(wall) * threads as f64;
            trace.merge(tr);
        } else {
            let rep = untraced_local(&dir, &cfg, ctx.threads)?;
            println!(
                "  rep {i}: {} candidates, {} survivors in {:.3} s",
                rep.candidates,
                rep.summary.survivors,
                secs(rep.wall)
            );
            ledger.check(
                rep.funnel[0] == rep.candidates && rep.funnel[4] == rep.summary.survivors,
                "survey.funnel counters agree with the run summary",
            );
            if let Some(first) = untraced.first() {
                ledger.check(rep.funnel == first.funnel, "funnel counts repeat exactly");
            } else {
                let campaign = Campaign::open(&dir).map_err(err)?;
                reevaluate_shards(ctx, &cfg, &campaign, &mut ledger)?;
            }
            untraced.push(rep);
        }
        let campaign = Campaign::open(&dir).map_err(err)?;
        let (done, total) = campaign.progress();
        ledger.ops(total, total - done);
        ledger.check(campaign.survivors().is_ok(), "every shard log parses");
        let artifacts = read_artifacts(&dir)?;
        match &reference {
            None => reference = Some(artifacts),
            Some(r) => ledger.check(
                *r == artifacts,
                "artifacts equal the first run's byte for byte",
            ),
        }
        // Repetition directories stay until the run ends: deleting 4097
        // files mid-run leaves filesystem work that slows the next timed
        // repetition.
        Ok(())
    })?;
    setup.window()?;
    sheet.set("setup_s", setup.report(0.5));

    let rates: Vec<f64> = untraced
        .iter()
        .map(|r| r.candidates as f64 / secs(r.wall))
        .collect();
    let rate = median(&rates);
    println!(
        "  candidates_per_s: median of {} untraced runs: {}",
        rates.len(),
        list(&rates)
    );
    sheet.set("items_per_s", rate);
    let last = untraced.last().ok_or("no untraced run")?;
    let gauge = last.gauge as f64;
    println!(
        "  survey.engine.polys_per_s gauge {gauge} vs candidates_per_s {rate:.1}: ratio {:.3}; \
         scanned/candidates {:.3}",
        gauge / rate,
        last.summary.scanned as f64 / last.candidates as f64
    );
    sheet.set("survey.engine.polys_per_s", gauge);
    for (name, value) in FUNNEL.iter().zip(last.funnel) {
        sheet.set(name, value as f64);
    }
    let fracs: Vec<f64> = untraced.iter().map(|r| r.checkpoint_frac).collect();
    println!(
        "  Campaign::run outside evaluate_unit (survey.engine.shard_us): {:.1}% of busy \
         capacity, median of {} untraced runs",
        100.0 * median(&fracs),
        fracs.len()
    );
    sheet.set("survey.engine.run_checkpoint_frac", median(&fracs));
    let reference = reference.ok_or("no artifacts")?;
    let bytes = checkpoint_bytes(&cfg, &reference, &mut ledger);
    sheet.set("survey.engine.checkpoint_bytes", bytes);
    if ctx.trace {
        report_funnel_trace(&mut sheet, &trace, busy_capacity_s, rate, &traced_rates);
    }
    Ok(Outcome { sheet, ledger })
}

fn report_funnel_trace(
    sheet: &mut Sheet,
    tr: &FunnelTrace,
    capacity_s: f64,
    untraced_rate: f64,
    traced_rates: &[f64],
) {
    sheet.set("crc_hd.filter.calls", tr.candidates as f64);
    sheet.set("crc_hd.filter.busy_s", tr.filter_s);
    sheet.set(
        "crc_hd.filter.pass_ratio",
        tr.filter_pass as f64 / tr.candidates.max(1) as f64,
    );
    sheet.set("crc_hd.profile.calls", tr.profiled as f64);
    sheet.set("crc_hd.profile.busy_s", tr.profile_s);
    sheet.set("crc_hd.weights.calls", tr.weights_calls as f64);
    sheet.set("crc_hd.weights.busy_s", tr.weights_s);
    sheet.set_percentiles("crc_hd.weights.ms", &tr.weights_ms, 90);
    sheet.set("survey.campaign.record_busy_s", tr.record_s);
    sheet.set("survey.engine.evaluate_busy_s", tr.evaluate_s);
    sheet.set_percentiles("survey.engine.shard_ms", &tr.shard_ms, 99);
    sheet.set("survey.engine.record_shard_busy_s", tr.record_shard_s);
    sheet.set_percentiles("survey.engine.record_shard_ms", &tr.record_shard_ms, 99);
    sheet.set("survey.engine.checkpoint_lock_wait_s", tr.lock_wait_s);
    let layers = [
        ("crc_hd.filter", tr.filter_s),
        ("crc_hd.profile", tr.profile_s),
        ("crc_hd.weights", tr.weights_s),
        ("survey.campaign.record", tr.record_s),
        ("survey.engine.record_shard", tr.record_shard_s),
        ("survey.engine.checkpoint_lock_wait", tr.lock_wait_s),
    ];
    report_accounting(sheet, &layers, capacity_s);
    report_overhead(sheet, untraced_rate, traced_rates);
}

// ---------------------------------------------------------------------
// Fleet: fleet_w16
// ---------------------------------------------------------------------

/// Per-worker transport tallies. Requests are always counted; the timings
/// and byte counts only in traced runs.
#[derive(Default)]
struct ClientTrace {
    requests: u64,
    hello_ms: f64,
    lease_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    eval_ms: Vec<f64>,
    bytes_sent: u64,
    bytes_received: u64,
}

/// A `WorkerTransport` around `TcpClient` that times each round trip and
/// the evaluation between an `Assign` reply and the next `Submit`.
struct TimedClient {
    inner: TcpClient,
    traced: bool,
    trace: ClientTrace,
    assigned_at: Option<Instant>,
}

fn wire_len(doc: &Json) -> u64 {
    frame::encode(&doc.render_compact()).len() as u64 + 1
}

impl WorkerTransport for TimedClient {
    fn call(&mut self, req: &Request) -> crc_survey::Result<Reply> {
        self.trace.requests += 1;
        if !self.traced {
            return self.inner.call(req);
        }
        if let (Request::Submit { .. }, Some(at)) = (req, self.assigned_at.take()) {
            self.trace.eval_ms.push(ms(at.elapsed()));
        }
        self.trace.bytes_sent += wire_len(&req.to_json());
        let t = Instant::now();
        let reply = self.inner.call(req);
        let rtt = ms(t.elapsed());
        match req {
            Request::Lease { .. } => self.trace.lease_ms.push(rtt),
            Request::Submit { .. } => self.trace.submit_ms.push(rtt),
            _ => self.trace.hello_ms += rtt,
        }
        if let Ok(r) = &reply {
            self.trace.bytes_received += wire_len(&r.to_json());
            if matches!(r, Reply::Assign { .. }) {
                self.assigned_at = Some(Instant::now());
            }
        }
        reply
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }
}

/// A `ServeTransport` around `TcpServer` that the benchmark can stop once
/// every worker has returned, and that times each `Coordinator::handle`
/// call in traced runs.
struct StoppableServer<'a> {
    inner: TcpServer,
    stop: &'a AtomicBool,
    traced: bool,
    handle_ms: Vec<f64>,
    submit_ms: Vec<f64>,
}

impl ServeTransport for StoppableServer<'_> {
    fn serve_one(&mut self, handler: &mut dyn FnMut(Request) -> Reply) -> crc_survey::Result<bool> {
        if self.stop.load(Ordering::SeqCst) {
            return Err(crc_survey::Error::Io(
                "stopped: every worker returned".into(),
            ));
        }
        if !self.traced {
            return self.inner.serve_one(handler);
        }
        let (handle_ms, submit_ms) = (&mut self.handle_ms, &mut self.submit_ms);
        self.inner.serve_one(&mut |req| {
            let submit = matches!(req, Request::Submit { .. });
            let t = Instant::now();
            let reply = handler(req);
            let el = ms(t.elapsed());
            handle_ms.push(el);
            if submit {
                submit_ms.push(el);
            }
            reply
        })
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }
}

struct WorkerOutcome {
    result: Result<WorkerSummary, String>,
    elapsed: Duration,
    wire: WireStats,
    trace: ClientTrace,
}

fn fleet_worker(i: u64, addr: &str, seed: u64, traced: bool) -> WorkerOutcome {
    let t0 = Instant::now();
    let mut client = TimedClient {
        inner: TcpClient::new(addr).with_timeout(CLIENT_TIMEOUT),
        traced,
        trace: ClientTrace::default(),
        assigned_at: None,
    };
    let opts = WorkerOptions {
        name: format!("bench-w{i}"),
        max_shards: None,
        retry: RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            max_attempts: 4,
            seed: unit_seed(seed, i, 7),
        },
    };
    let result = run_worker(&mut client, &opts).map_err(err);
    WorkerOutcome {
        result,
        elapsed: t0.elapsed(),
        wire: client.wire_stats(),
        trace: client.trace,
    }
}

struct FleetRep {
    wall: Duration,
    candidates: u64,
    workers: Vec<WorkerOutcome>,
    handle_ms: Vec<f64>,
    submit_handle_ms: Vec<f64>,
}

/// One fleet campaign: the coordinator serves on its own thread, which
/// sleeps between polls, while one worker per core runs `run_worker` over
/// loopback TCP. Timed from the workers' start to the last worker's
/// return.
fn fleet_rep(
    ctx: &Ctx,
    cfg: &CampaignConfig,
    dir: &Path,
    traced: bool,
    ledger: &mut Ledger,
) -> Result<FleetRep, String> {
    let campaign = Campaign::create(dir, cfg.clone()).map_err(err)?;
    let mut coord = Coordinator::new(campaign, LEASE_TTL);
    let server = TcpServer::bind("127.0.0.1:0").map_err(err)?;
    let addr = server.local_addr().map_err(err)?.to_string();
    let stop = AtomicBool::new(false);
    let mut serve = StoppableServer {
        inner: server,
        stop: &stop,
        traced,
        handle_ms: Vec::new(),
        submit_ms: Vec::new(),
    };
    let workers = ctx.threads as u64;
    let before = funnel_counts()[0];
    let (wall, outcomes, served) = std::thread::scope(|s| {
        let coordinator = s.spawn(|| coord.serve(&mut serve, POLL, LINGER));
        let t0 = Instant::now();
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let addr = addr.as_str();
                s.spawn(move || fleet_worker(i, addr, ctx.seed, traced))
            })
            .collect();
        let outcomes: Vec<WorkerOutcome> = handles
            .into_iter()
            .map(|h| h.join().expect("fleet workers do not panic"))
            .collect();
        let wall = t0.elapsed();
        stop.store(true, Ordering::SeqCst);
        let served = coordinator.join().expect("the coordinator does not panic");
        (wall, outcomes, served)
    });
    let candidates = funnel_counts()[0] - before;

    let stopped_by_us =
        matches!(&served, Err(e) if e.to_string().contains("every worker returned"));
    ledger.check(
        served.is_ok() || stopped_by_us,
        "coordinator serves until stopped",
    );
    let summary = coord.summary();
    let (done, total) = coord.campaign().progress();
    ledger.ops(
        total,
        (total - done) + summary.refusals + summary.leases_expired,
    );
    let mut retries = 0;
    let mut rejected = serve.wire_stats().frames_rejected;
    let mut requests = 0;
    let mut failed_workers = 0;
    for (i, w) in outcomes.iter().enumerate() {
        requests += w.trace.requests;
        rejected += w.wire.frames_rejected;
        match &w.result {
            Ok(s) if w.elapsed <= WORKER_DEADLINE => retries += s.retries,
            Ok(_) => {
                failed_workers += 1;
                eprintln!("worker {i} missed its {WORKER_DEADLINE:?} deadline");
            }
            Err(e) => {
                failed_workers += 1;
                eprintln!("worker {i} failed: {e}");
            }
        }
    }
    ledger.ops(workers, failed_workers);
    ledger.ops(requests, retries + rejected);
    Ok(FleetRep {
        wall,
        candidates,
        workers: outcomes,
        handle_ms: serve.handle_ms,
        submit_handle_ms: serve.submit_ms,
    })
}

/// One set-up: create the campaign and coordinator, bind port 0, and
/// answer one worker `Hello` over the wire. The hello runs on this thread,
/// framed as `TcpClient::call` frames it: connect, send, serve, then read
/// the reply. A client thread would add two cross-core wake-ups, which on
/// a shared host made the figure drift by half from run to run.
fn fleet_setup(dir: &Path, cfg: &CampaignConfig) -> Result<Duration, String> {
    let t0 = Instant::now();
    let campaign = Campaign::create(dir, cfg.clone()).map_err(err)?;
    let mut coord = Coordinator::new(campaign, LEASE_TTL);
    let mut server = TcpServer::bind("127.0.0.1:0").map_err(err)?;
    let mut stream = TcpStream::connect(server.local_addr().map_err(err)?).map_err(err)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).map_err(err)?;
    let hello = Request::Hello {
        worker: "bench-setup".into(),
    };
    let mut line = frame::encode(&hello.to_json().render_compact());
    line.push('\n');
    stream.write_all(line.as_bytes()).map_err(err)?;
    let deadline = Instant::now() + CLIENT_TIMEOUT;
    while !server
        .serve_one(&mut |req| coord.handle(req, Instant::now()))
        .map_err(err)?
    {
        if Instant::now() > deadline {
            return Err("set-up hello was never accepted".into());
        }
        std::thread::yield_now();
    }
    let mut reply = Vec::new();
    BufReader::new(&mut stream)
        .read_until(b'\n', &mut reply)
        .map_err(err)?;
    let payload = frame::decode_bytes(&reply).map_err(err)?;
    let reply = Json::parse(&payload)
        .map_err(err)
        .and_then(|v| Reply::from_json(&v).map_err(err))?;
    let el = t0.elapsed();
    match reply {
        Reply::Welcome { .. } => Ok(el),
        other => Err(format!("set-up hello failed: {other:?}")),
    }
}

/// Exhaustive width-16 space in 1024 shards over loopback TCP.
pub fn fleet_w16(ctx: &Ctx) -> Result<Outcome, String> {
    let cfg = exhaustive_config(16, 1024, ctx.seed);
    let mut sheet = Sheet::default();
    let mut ledger = Ledger::default();
    let mut setup = SetupSampler::new(|i| {
        let dir = ctx.work.join(format!("setup-{i}"));
        let el = fleet_setup(&dir, &cfg);
        remove(&dir);
        el
    })?;

    // The fleet must reproduce a local `Campaign::run` of its config.
    let local_dir = ctx.work.join("local");
    let local = Campaign::create(&local_dir, cfg.clone())
        .and_then(|mut c| c.run(ctx.threads, None))
        .map_err(err)?;
    let reference = read_artifacts(&local_dir)?;

    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut traced: Vec<FleetRep> = Vec::new();
    repeat_within(ctx.budget, if ctx.trace { 2 } else { 1 }, |i| {
        setup.window()?;
        let dir = ctx.work.join(format!("rep-{i}"));
        let is_traced = ctx.trace && i % 2 == 1;
        let rep = fleet_rep(ctx, &cfg, &dir, is_traced, &mut ledger)?;
        println!(
            "  rep {i}{}: {} candidates in {:.3} s",
            if is_traced { " (traced)" } else { "" },
            rep.candidates,
            secs(rep.wall)
        );
        ledger.check(
            rep.candidates == local.canonical,
            "fleet screens as many candidates as the local run",
        );
        ledger.check(
            read_artifacts(&dir)? == reference,
            "fleet artifacts equal a local Campaign::run byte for byte",
        );
        let rate = rep.candidates as f64 / secs(rep.wall);
        if is_traced {
            traced_rates.push(rate);
            traced.push(rep);
        } else {
            rates.push(rate);
        }
        Ok(())
    })?;
    setup.window()?;
    sheet.set("setup_s", setup.report(0.5));
    let rate = median(&rates);
    println!(
        "  candidates_per_s: median of {} untraced runs: {}",
        rates.len(),
        list(&rates)
    );
    sheet.set("items_per_s", rate);
    let bytes = checkpoint_bytes(&cfg, &reference, &mut ledger);
    sheet.set("survey.engine.checkpoint_bytes", bytes);
    if ctx.trace {
        report_fleet_trace(&mut sheet, &traced, rate, &traced_rates);
    }
    Ok(Outcome { sheet, ledger })
}

fn report_fleet_trace(
    sheet: &mut Sheet,
    reps: &[FleetRep],
    untraced_rate: f64,
    traced_rates: &[f64],
) {
    let mut all = ClientTrace::default();
    let mut capacity_s = 0.0;
    let mut handle_ms = Vec::new();
    let mut submit_handle_ms = Vec::new();
    let (mut retries, mut rejected, mut waits) = (0, 0, 0);
    for rep in reps {
        capacity_s += secs(rep.wall) * rep.workers.len() as f64;
        handle_ms.extend_from_slice(&rep.handle_ms);
        submit_handle_ms.extend_from_slice(&rep.submit_handle_ms);
        for w in &rep.workers {
            let t = &w.trace;
            all.requests += t.requests;
            all.hello_ms += t.hello_ms;
            all.lease_ms.extend_from_slice(&t.lease_ms);
            all.submit_ms.extend_from_slice(&t.submit_ms);
            all.eval_ms.extend_from_slice(&t.eval_ms);
            all.bytes_sent += t.bytes_sent;
            all.bytes_received += t.bytes_received;
            if let Ok(s) = &w.result {
                retries += s.retries;
                waits += s.waits;
            }
            rejected += w.wire.frames_rejected;
        }
    }
    sheet.set_percentiles("survey.transport.lease_rtt_ms", &all.lease_ms, 99);
    sheet.set_percentiles("survey.transport.submit_rtt_ms", &all.submit_ms, 99);
    sheet.set("survey.transport.requests", all.requests as f64);
    sheet.set("survey.transport.bytes_sent", all.bytes_sent as f64);
    sheet.set("survey.transport.bytes_received", all.bytes_received as f64);
    sheet.set("survey.transport.retries", retries as f64);
    sheet.set("survey.transport.frames_rejected", rejected as f64);
    sheet.set("survey.transport.wait_replies", waits as f64);
    sheet.set_percentiles("survey.coordinator.handle_ms", &handle_ms, 99);
    let eval_s = all.eval_ms.iter().sum::<f64>() / 1e3;
    sheet.set("survey.engine.evaluate_busy_s", eval_s);
    sheet.set_percentiles("survey.engine.shard_ms", &all.eval_ms, 99);
    // On the fleet `Campaign::record_shard` runs inside the coordinator's
    // `Submit` handling, so its figures are those calls.
    sheet.set(
        "survey.engine.record_shard_busy_s",
        submit_handle_ms.iter().sum::<f64>() / 1e3,
    );
    sheet.set_percentiles("survey.engine.record_shard_ms", &submit_handle_ms, 99);
    let lease_s = all.lease_ms.iter().sum::<f64>() / 1e3;
    let submit_s = all.submit_ms.iter().sum::<f64>() / 1e3;
    println!(
        "  coordinator handle: {:.3} s over {} requests; submit handling {:.3} s",
        handle_ms.iter().sum::<f64>() / 1e3,
        handle_ms.len(),
        submit_handle_ms.iter().sum::<f64>() / 1e3
    );
    let layers = [
        ("survey.engine.evaluate", eval_s),
        ("survey.transport.lease_rtt", lease_s),
        ("survey.transport.submit_rtt", submit_s),
        ("survey.transport.hello_rtt", all.hello_ms / 1e3),
    ];
    report_accounting(sheet, &layers, capacity_s);
    report_overhead(sheet, untraced_rate, traced_rates);
}
