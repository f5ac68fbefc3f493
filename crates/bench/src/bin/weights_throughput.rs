//! Weight-kernel throughput: per-polynomial cost of the screening
//! primitives, before (scratch paths) and after (workspace kernels),
//! with a machine-readable trail.
//!
//! Three scenario groups:
//!
//! * **`weights234` at the Ethernet MTU** (32-bit generators): the
//!   scratch sweep vs each wide-width workspace kernel — the ForceHash
//!   oracle and the two-level index (the `Auto` workspace mode at 32
//!   bits) — plus two staged
//!   rows: `profile_hinted` times *only* the weights stage after a
//!   profile primed the memo on the same workspace (the marginal cost
//!   the survey's stage order actually pays, provably ≤ the cold
//!   workspace row), and `funnel` times profile+weights together
//!   against the sum of both scratch stages.
//! * **`weights234` at 1024 bits over the 13-bit survey width** (direct
//!   `u16` kernel vs the scratch hash sweep): the survey campaign's
//!   dominant cost, measured over a fixed candidate batch.
//! * **A full `HdProfile` to the MTU**: scratch assembly vs a shared
//!   workspace.
//!
//! Every before/after pair asserts identical results before timing is
//! trusted. Writes `BENCH_weights_throughput.json` (uploaded by the CI
//! `throughput-trail` job) so the trajectory stays diffable from PR to
//! PR.
//!
//! Usage: `cargo run --release -p crc-experiments --bin
//! weights_throughput [--reps 3] [--out PATH]`

use crc_experiments::arg_or;
use crc_hd::profile::HdProfile;
use crc_hd::search::PolySpace;
use crc_hd::workspace::{IndexPolicy, SyndromeWorkspace};
use crc_hd::{reference, GenPoly};
use std::fmt::Write as _;
use std::time::Instant;

const MTU_BITS: u32 = 12_112;

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
    mode: &'static str,
    per_poly_ms: f64,
}

fn main() {
    let reps: usize = arg_or("--reps", 3);
    let out_path: String = arg_or("--out", "BENCH_weights_throughput.json".to_string());
    let mut rows: Vec<Row> = Vec::new();
    let push = |rows: &mut Vec<Row>, scenario, mode, secs: f64, polys: usize| {
        let per_poly_ms = secs * 1e3 / polys as f64;
        println!("  {scenario:<22} {mode:<18} {per_poly_ms:>9.3} ms/poly");
        rows.push(Row {
            scenario,
            mode,
            per_poly_ms,
        });
    };

    // ---- weights234 at the MTU (32-bit generators, hash kernel) ----
    let g802 = GenPoly::from_koopman(32, 0x82608EDB).unwrap();
    let gk = GenPoly::from_koopman(32, 0xBA0DC66B).unwrap();
    let mtu_polys = [g802, gk];
    println!("weights234 at MTU ({MTU_BITS} bits), 32-bit generators:");
    let want: Vec<_> = mtu_polys
        .iter()
        .map(|g| reference::weights234(g, MTU_BITS).unwrap())
        .collect();
    // The paper's §2 worked example keeps the bench honest.
    assert_eq!(want[0].w4, 223_059, "802.3 W4 at the MTU");
    assert_eq!(want[1].w4, 0, "0xBA0DC66B holds HD=6 at the MTU");

    let t = measure(reps, || {
        for (g, w) in mtu_polys.iter().zip(&want) {
            assert_eq!(&reference::weights234(g, MTU_BITS).unwrap(), w);
        }
    });
    push(&mut rows, "weights234_mtu", "scratch", t, mtu_polys.len());

    // One cold-workspace row per wide-width kernel flavor; `two_level`
    // is what `SyndromeWorkspace::new()` resolves to at 32 bits.
    for (mode, policy) in [
        ("hash_workspace", IndexPolicy::ForceHash),
        ("two_level", IndexPolicy::Auto),
    ] {
        let t = measure(reps, || {
            let mut ws = SyndromeWorkspace::with_policy(policy);
            for (g, w) in mtu_polys.iter().zip(&want) {
                assert_eq!(&ws.weights234(g, MTU_BITS).unwrap(), w);
            }
        });
        push(&mut rows, "weights234_mtu", mode, t, mtu_polys.len());
    }

    // The survey stage order: profile first, then weights ride its
    // certified-clean ranges. `profile_hinted` times the weights stage
    // alone (its marginal cost on a primed workspace); `funnel` times
    // both stages together.
    let t = {
        let mut times = Vec::new();
        for _ in 0..reps.max(1) {
            let mut ws = SyndromeWorkspace::new();
            let mut weights_secs = 0.0;
            for (g, w) in mtu_polys.iter().zip(&want) {
                let _ = HdProfile::compute_in(&mut ws, g, MTU_BITS, 8).unwrap();
                let start = Instant::now();
                assert_eq!(&ws.weights234(g, MTU_BITS).unwrap(), w);
                weights_secs += start.elapsed().as_secs_f64();
            }
            times.push(weights_secs);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        times[times.len() / 2]
    };
    push(
        &mut rows,
        "weights234_mtu",
        "profile_hinted",
        t,
        mtu_polys.len(),
    );

    let t = measure(reps, || {
        let mut ws = SyndromeWorkspace::new();
        for (g, w) in mtu_polys.iter().zip(&want) {
            let _ = HdProfile::compute_in(&mut ws, g, MTU_BITS, 8).unwrap();
            assert_eq!(&ws.weights234(g, MTU_BITS).unwrap(), w);
        }
    });
    push(&mut rows, "weights234_mtu", "funnel", t, mtu_polys.len());

    // ---- weights234 at 1024 bits, 13-bit survey width (direct u16) ----
    let space = PolySpace::new(13);
    let batch: Vec<GenPoly> = space
        .iter_range(0, 400)
        .filter(|g| g.koopman() <= g.reciprocal().koopman() && 1024 + 13 <= crc_hd::dmin::dmin2(g))
        .collect();
    println!(
        "weights234 at 1024 bits, 13-bit survey width ({} polys):",
        batch.len()
    );
    let want: Vec<_> = batch
        .iter()
        .map(|g| reference::weights234(g, 1024).unwrap())
        .collect();

    let t = measure(reps, || {
        for (g, w) in batch.iter().zip(&want) {
            assert_eq!(&reference::weights234(g, 1024).unwrap(), w);
        }
    });
    push(&mut rows, "weights234_survey13", "scratch", t, batch.len());

    let t = measure(reps, || {
        let mut ws = SyndromeWorkspace::new();
        for (g, w) in batch.iter().zip(&want) {
            assert_eq!(&ws.weights234(g, 1024).unwrap(), w);
        }
    });
    push(
        &mut rows,
        "weights234_survey13",
        "workspace",
        t,
        batch.len(),
    );

    // ---- full HdProfile to the MTU (32-bit generators) ----
    println!("HdProfile to {MTU_BITS} bits, 32-bit generators:");
    let want: Vec<_> = mtu_polys
        .iter()
        .map(|g| reference::profile(g, MTU_BITS, 8).unwrap().dmins().to_vec())
        .collect();
    let t = measure(reps, || {
        for (g, w) in mtu_polys.iter().zip(&want) {
            assert_eq!(&reference::profile(g, MTU_BITS, 8).unwrap().dmins(), w);
        }
    });
    push(&mut rows, "hd_profile_mtu", "scratch", t, mtu_polys.len());

    let t = measure(reps, || {
        let mut ws = SyndromeWorkspace::new();
        for (g, w) in mtu_polys.iter().zip(&want) {
            assert_eq!(
                &HdProfile::compute_in(&mut ws, g, MTU_BITS, 8)
                    .unwrap()
                    .dmins(),
                w
            );
        }
    });
    push(&mut rows, "hd_profile_mtu", "workspace", t, mtu_polys.len());

    // ---- speedup summary + JSON trail ----
    let per = |scenario: &str, mode: &str| {
        rows.iter()
            .find(|r| r.scenario == scenario && r.mode == mode)
            .expect("row exists")
            .per_poly_ms
    };
    let survey_speedup =
        per("weights234_survey13", "scratch") / per("weights234_survey13", "workspace");
    // The PR-6 headline: the wide-width kernel against the scratch sweep.
    let mtu_kernel_speedup = per("weights234_mtu", "scratch") / per("weights234_mtu", "two_level");
    // The PR-5 trail pinned the scratch sweep at 683.6 ms/poly on the
    // reference host; same-run scratch wobbles with turbo/thermal state,
    // so record the kernel against that pinned figure as well.
    const PR5_SCRATCH_BASELINE_MS: f64 = 683.6;
    let mtu_vs_pr5_baseline = PR5_SCRATCH_BASELINE_MS / per("weights234_mtu", "two_level");
    // The hinted row is the weights stage alone on a profile-primed
    // workspace; never worse than the cold workspace (two-level) row.
    let hinted_vs_workspace =
        per("weights234_mtu", "profile_hinted") / per("weights234_mtu", "two_level");
    // The funnel row times both stages, so compare it against both
    // scratch stages, not weights alone.
    let funnel_scratch = per("hd_profile_mtu", "scratch") + per("weights234_mtu", "scratch");
    let funnel_speedup = funnel_scratch / per("weights234_mtu", "funnel");
    println!(
        "\nsurvey-width weights kernel: {survey_speedup:.2}x; \
         MTU weights kernel: {mtu_kernel_speedup:.2}x; \
         MTU profile+weights funnel: {funnel_speedup:.2}x; \
         hinted/workspace: {hinted_vs_workspace:.3}"
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"benchmark\": \"weights_throughput\",").unwrap();
    writeln!(json, "  \"unit\": \"ms/poly\",").unwrap();
    writeln!(json, "  \"mtu_bits\": {MTU_BITS},").unwrap();
    writeln!(json, "  \"survey_width\": 13,").unwrap();
    writeln!(json, "  \"survey_len\": 1024,").unwrap();
    writeln!(json, "  \"survey_kernel_speedup\": {survey_speedup:.3},").unwrap();
    writeln!(json, "  \"mtu_kernel_speedup\": {mtu_kernel_speedup:.3},").unwrap();
    writeln!(
        json,
        "  \"mtu_scratch_baseline_pr5_ms\": {PR5_SCRATCH_BASELINE_MS},"
    )
    .unwrap();
    writeln!(json, "  \"mtu_vs_pr5_baseline\": {mtu_vs_pr5_baseline:.3},").unwrap();
    writeln!(json, "  \"hinted_vs_workspace\": {hinted_vs_workspace:.3},").unwrap();
    writeln!(json, "  \"mtu_funnel_speedup\": {funnel_speedup:.3},").unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"mode\": \"{}\", \"per_poly_ms\": {:.4}}}{comma}",
            r.scenario, r.mode, r.per_poly_ms
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
