//! The named metric registry, the process-global instance, and the two
//! sinks (deterministic JSON snapshots and the human table).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

/// A registered metric: shared handles are handed out as `Arc`s so callers
/// can cache them (e.g. in a `OnceLock`) and avoid registry lookups on hot
/// paths.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// A last-value gauge.
    Gauge(Arc<Gauge>),
    /// A fixed-bucket histogram.
    Histogram(Arc<Histogram>),
}

/// A collection of metrics addressed by hierarchical dot-separated names
/// (`survey.funnel.hd_pass`, `sim.path.delta_frames`).
///
/// Registration is get-or-create: asking twice for the same name returns
/// the same underlying metric. Names are kept in a `BTreeMap`, so every
/// enumeration (snapshots, tables) walks them in lexicographic order —
/// one of the two properties that make snapshots byte-deterministic (the
/// other being that only integers are ever serialised).
#[derive(Debug, Default)]
pub struct Registry {
    enabled: AtomicBool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Characters permitted in metric names. Names are embedded verbatim in
/// JSON snapshots and table rows, so the alphabet is kept to things that
/// need no escaping.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl Registry {
    /// Create an empty registry with instrumentation enabled.
    pub fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(true),
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether instrumented code should record anything.
    ///
    /// This is the hot-path switch: callers check it once (a relaxed load)
    /// and skip metric updates entirely when it is false, so the disabled
    /// path costs one branch.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn instrumentation on or off. Existing metric values are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Get or register the counter called `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is invalid (see module docs) or already registered
    /// as a different metric kind — both programming errors.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut map = self.metrics.lock().expect("telemetry registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match entry {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the gauge called `name`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Registry::counter`].
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut map = self.metrics.lock().expect("telemetry registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match entry {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the histogram called `name` with the given bucket
    /// bounds.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Registry::counter`], plus a panic when the
    /// name exists as a histogram with different bounds.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut map = self.metrics.lock().expect("telemetry registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))));
        match entry {
            Metric::Histogram(h) => {
                assert_eq!(
                    h.bounds(),
                    bounds,
                    "metric {name:?} already registered with different bounds"
                );
                Arc::clone(h)
            }
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Look up a metric without registering it.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics
            .lock()
            .expect("telemetry registry poisoned")
            .get(name)
            .cloned()
    }

    /// All registered names, in lexicographic order.
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .lock()
            .expect("telemetry registry poisoned")
            .keys()
            .cloned()
            .collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics
            .lock()
            .expect("telemetry registry poisoned")
            .len()
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render a byte-deterministic JSON snapshot of every metric.
    ///
    /// The schema (see `docs/OBSERVABILITY.md`) contains only integers:
    /// counters and gauges serialise their value, histograms their bounds,
    /// per-bucket counts (overflow last), count, and sum. Keys appear in
    /// lexicographic name order; rendering the same registry state twice
    /// yields identical bytes.
    pub fn snapshot(&self) -> String {
        let map = self.metrics.lock().expect("telemetry registry poisoned");
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"format\": \"telemetry-snapshot\",\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str("  \"metrics\": {");
        let mut first = true;
        for (name, metric) in map.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            let _ = write!(out, "    \"{name}\": ");
            match metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "{{\"type\": \"counter\", \"value\": {}}}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{{\"type\": \"gauge\", \"value\": {}}}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"type\": \"histogram\", \"bounds\": {}, \"buckets\": {}, \"count\": {}, \"sum\": {}}}",
                        int_array(h.bounds()),
                        int_array(&h.bucket_counts()),
                        h.count(),
                        h.sum()
                    );
                }
            }
        }
        if !map.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Write [`Registry::snapshot`] to `path` via the atomic tmp+rename
    /// protocol used for campaign checkpoints: readers never observe a
    /// half-written file.
    pub fn write_snapshot(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.snapshot())?;
        fs::rename(&tmp, path)
    }

    /// Render a human-readable table of every metric, one row per name.
    pub fn render_table(&self) -> String {
        let map = self.metrics.lock().expect("telemetry registry poisoned");
        let mut rows: Vec<(String, String)> = Vec::with_capacity(map.len());
        for (name, metric) in map.iter() {
            let value = match metric {
                Metric::Counter(c) => format!("{}", c.get()),
                Metric::Gauge(g) => format!("{}", g.get()),
                Metric::Histogram(h) => format!(
                    "count={} sum={} p50<={} p99<={}",
                    h.count(),
                    h.sum(),
                    bound_label(h.quantile_bound(500)),
                    bound_label(h.quantile_bound(990)),
                ),
            };
            rows.push((name.clone(), value));
        }
        let width = rows
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(6)
            .max("metric".len());
        let mut out = String::new();
        let _ = writeln!(out, "{:width$}  value", "metric");
        for (name, value) in rows {
            let _ = writeln!(out, "{name:width$}  {value}");
        }
        out
    }
}

/// Format a slice of integers as a JSON array.
fn int_array(vals: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
    s
}

/// Render a quantile bound, mapping the overflow sentinel to `inf`.
fn bound_label(b: u64) -> String {
    if b == u64::MAX {
        "inf".to_string()
    } else {
        b.to_string()
    }
}

/// The process-global registry.
///
/// Long-lived binaries (the survey engine, the coordinator, the simulator
/// benches) record into this instance; snapshots and `survey watch` read
/// from it. It starts enabled; callers that need guaranteed-zero overhead
/// call `global().set_enabled(false)` during startup.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create() {
        let r = Registry::new();
        let a = r.counter("x.a");
        let b = r.counter("x.a");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        let r = Registry::new();
        r.counter("has space");
    }

    #[test]
    fn enabled_flag_toggles() {
        let r = Registry::new();
        assert!(r.enabled());
        r.set_enabled(false);
        assert!(!r.enabled());
        r.set_enabled(true);
        assert!(r.enabled());
    }

    /// Two registries driven through identical operations must serialise
    /// to identical bytes, and re-rendering the same registry must too.
    #[test]
    fn snapshot_is_byte_deterministic() {
        let build = || {
            let r = Registry::new();
            // Register in an order that differs from lexicographic order to
            // prove ordering comes from names, not registration sequence.
            r.gauge("z.rate").set(44);
            r.counter("a.events").add(7);
            let h = r.histogram("m.lat_us", &[10, 100, 1000]);
            for v in [3, 10, 11, 5000] {
                h.observe(v);
            }
            r
        };
        let one = build();
        let two = build();
        assert_eq!(one.snapshot(), two.snapshot());
        assert_eq!(one.snapshot(), one.snapshot());

        let snap = one.snapshot();
        assert!(snap.starts_with("{\n  \"format\": \"telemetry-snapshot\""));
        assert!(snap.ends_with("}\n"));
        // Lexicographic ordering of names in the output.
        let a = snap.find("a.events").unwrap();
        let m = snap.find("m.lat_us").unwrap();
        let z = snap.find("z.rate").unwrap();
        assert!(a < m && m < z);
        assert!(
            snap.contains("\"buckets\": [2, 1, 0, 1]"),
            "histogram buckets serialised: {snap}"
        );
    }

    #[test]
    fn empty_registry_snapshot_is_stable() {
        let r = Registry::new();
        assert_eq!(
            r.snapshot(),
            "{\n  \"format\": \"telemetry-snapshot\",\n  \"version\": 1,\n  \"metrics\": {}\n}\n"
        );
    }

    #[test]
    fn write_snapshot_is_atomic_tmp_rename() {
        let dir = std::env::temp_dir().join(format!("telemetry-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let r = Registry::new();
        r.counter("c").add(3);
        r.write_snapshot(&path).unwrap();
        let bytes = std::fs::read_to_string(&path).unwrap();
        assert_eq!(bytes, r.snapshot());
        assert!(!dir.join("snap.tmp").exists(), "tmp file renamed away");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn render_table_lists_every_metric() {
        let r = Registry::new();
        r.counter("survey.funnel.candidates").add(10);
        r.gauge("survey.engine.polys_per_s").set(1234);
        r.histogram("survey.engine.shard_us", &[1000]).observe(5);
        let table = r.render_table();
        assert!(table.contains("survey.funnel.candidates"));
        assert!(table.contains("1234"));
        assert!(table.contains("count=1"));
        assert!(table.lines().count() == 4, "header + 3 rows: {table}");
    }
}
