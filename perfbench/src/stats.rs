//! Sample statistics and the metric sheet every workload fills in.

use std::time::Duration;

/// Linear-interpolated quantile of `samples` (`q` in `[0, 1]`); 0 for an
/// empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `samples` rounded to one decimal, space-separated, for the report.
pub fn list(samples: &[f64]) -> String {
    let v: Vec<String> = samples.iter().map(|x| format!("{x:.1}")).collect();
    v.join(" ")
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Milliseconds as `f64`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-ups run first to warm up and to size the batches; not reported.
const SETUP_WARMUP: usize = 5;
/// Each sample is the mean of a batch of back-to-back set-ups lasting at
/// least this long, so that allocator and cache noise of single calls
/// (a set-up takes 10 µs to 0.5 ms) averages out inside the sample.
const SETUP_BATCH: Duration = Duration::from_millis(2);
/// Batches per window. A run takes one window before each repetition and
/// one after the last, so at least 52 batches.
const SETUP_WINDOW: usize = 26;

/// Set-up timing spread over a run: `setup_s` is the median of per-set-up
/// batch means, taken in windows between the repetitions. Spreading the
/// windows matters more than the sample count: on a shared host, creating
/// files ran 20 times slower for several seconds after a previous run
/// deleted its scratch tree, and pure compute 1.7 times slower for
/// seconds at a time, so samples taken all at once measured the spell
/// they fell in.
pub struct SetupSampler<F> {
    sample: F,
    batch: usize,
    next: usize,
    means: Vec<f64>,
}

impl<F: FnMut(usize) -> Result<Duration, String>> SetupSampler<F> {
    /// Warms up and sizes the batches. `sample(i)` performs the `i`-th
    /// set-up and returns its wall time, its teardown excluded.
    ///
    /// # Errors
    ///
    /// The first error `sample` returns.
    pub fn new(mut sample: F) -> Result<Self, String> {
        let mut fastest = Duration::MAX;
        for i in 0..SETUP_WARMUP {
            fastest = fastest.min(sample(i)?);
        }
        let batch = SETUP_BATCH.as_nanos().div_ceil(fastest.as_nanos().max(1)) as usize;
        Ok(SetupSampler {
            sample,
            batch,
            next: SETUP_WARMUP,
            means: Vec::new(),
        })
    }

    /// Times one window of `SETUP_WINDOW` batches.
    ///
    /// # Errors
    ///
    /// The first error `sample` returns.
    pub fn window(&mut self) -> Result<(), String> {
        for _ in 0..SETUP_WINDOW {
            let mut total = Duration::ZERO;
            for _ in 0..self.batch {
                total += (self.sample)(self.next)?;
                self.next += 1;
            }
            self.means.push(secs(total) / self.batch as f64);
        }
        Ok(())
    }

    /// The `q` quantile of the per-set-up times in seconds; prints it with
    /// the spread and the p90 with its sample count.
    pub fn report(&self, q: f64) -> f64 {
        let v = &self.means;
        println!(
            "  setup: {} batches of {} over the run, s per set-up: min {:.3e} median {:.3e} \
             p90 {:.3e} (~{:.0} batches beyond) max {:.3e}; reported p{:.0} {:.3e}",
            v.len(),
            self.batch,
            quantile(v, 0.0),
            median(v),
            quantile(v, 0.9),
            v.len() as f64 * 0.1,
            quantile(v, 1.0),
            q * 100.0,
            quantile(v, q)
        );
        quantile(v, q)
    }
}

/// Named metric values, in the order they were set (units live in the
/// metric tables of `main.rs`). A name set twice keeps its last value.
#[derive(Debug, Default)]
pub struct Sheet {
    entries: Vec<(String, f64)>,
}

impl Sheet {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some(e) => e.1 = value,
            None => self.entries.push((name.to_string(), value)),
        }
    }

    /// Sets a sample set's median and a high percentile as
    /// `<prefix>_p50` and `<prefix>_p<pct>`, and prints how many samples
    /// lie beyond the high percentile (the report is meaningful only with
    /// at least ten).
    pub fn set_percentiles(&mut self, prefix: &str, samples: &[f64], pct: u32) {
        self.set(&format!("{prefix}_p50"), median(samples));
        self.set(
            &format!("{prefix}_p{pct}"),
            quantile(samples, f64::from(pct) / 100.0),
        );
        let beyond = samples.len() as f64 * (1.0 - f64::from(pct) / 100.0);
        println!(
            "  {prefix}: {} samples, ~{beyond:.0} beyond p{pct}{}",
            samples.len(),
            if beyond < 10.0 {
                " (fewer than 10)"
            } else {
                ""
            }
        );
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Every entry, in insertion order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }
}

/// Prints each layer's share of the busy capacity (wall × threads of the
/// traced runs), names the dominant one, and sets
/// `telemetry.accounted_frac` to the summed share.
pub fn report_accounting(sheet: &mut Sheet, layers: &[(&str, f64)], capacity_s: f64) {
    let total: f64 = layers.iter().map(|(_, s)| s).sum();
    for (name, s) in layers {
        println!(
            "  layer {name:<36} {s:>10.4} s  {:>6.2}%",
            100.0 * s / capacity_s
        );
    }
    if let Some((name, s)) = layers.iter().max_by(|a, b| a.1.total_cmp(&b.1)) {
        println!(
            "  dominant layer: {name} ({:.1}% of {capacity_s:.3} busy-capacity s); \
             layers account for {:.1}%",
            100.0 * s / capacity_s,
            100.0 * total / capacity_s
        );
    }
    sheet.set("telemetry.accounted_frac", total / capacity_s);
}

/// Sets `telemetry.trace_overhead_frac`: the traced runs' throughput loss
/// against the untraced runs (medians; negative when noise favours the
/// traced runs).
pub fn report_overhead(sheet: &mut Sheet, untraced_rate: f64, traced_rates: &[f64]) {
    let traced = median(traced_rates);
    println!(
        "  traced throughput {traced:.1}/s over {} runs vs untraced {untraced_rate:.1}/s",
        traced_rates.len()
    );
    sheet.set(
        "telemetry.trace_overhead_frac",
        1.0 - traced / untraced_rate,
    );
}

/// Pass/fail tallies behind `attempted`, `failed` and `correct`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    /// Operations attempted: work units, wire requests, workers and
    /// correctness checks.
    pub attempted: u64,
    /// Operations that failed, including every failed check.
    pub failed: u64,
    /// Correctness checks that failed.
    pub bad_checks: u64,
}

impl Ledger {
    /// Counts `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Counts one correctness check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.bad_checks += 1;
            eprintln!("check failed: {what}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
