//! The metrics registry: counters, gauges and log-scale histograms,
//! addressed by `(name, sorted label set)` and rendered in the
//! Prometheus text exposition format.
//!
//! # Design
//!
//! * Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared
//!   atomics: once registered, updating a metric is a handful of
//!   relaxed atomic operations — no locks on any hot path.
//! * The registry itself is a mutex-guarded `BTreeMap`, locked only to
//!   register a new series or to take a render-time snapshot. The
//!   B-tree keeps names and label sets sorted, so rendering the same
//!   state twice produces byte-identical text.
//! * Histograms use one fixed 1–2–5 log-scale bucket ladder (1 µs to
//!   500 s) for every series. Counts and the sum (integer nanoseconds)
//!   are plain `u64` adds, so merging two histograms is associative
//!   and deterministic.
//! * Two sets of series combine one way only, [`Registry::absorb`]:
//!   counters and gauges add, histograms add bucket by bucket.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Histogram bucket upper bounds, seconds: a 1–2–5 ladder per decade
/// from 1 µs to 500 s. Values above the last bound land in `+Inf`.
pub const BUCKET_BOUNDS: [f64; 27] = [
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2e-1, 5e-1, 1.0, 2.0, 5.0, 1e1, 2e1, 5e1, 1e2, 2e2, 5e2,
];

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A standalone counter (not attached to any registry) — register
    /// it later with [`Registry::register_counter`] to expose it.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

/// An integer gauge (set / add / high-water max).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A standalone gauge; see [`Registry::register_gauge`].
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (negative to decrement) and returns the new value,
    /// so callers can feed a high-water companion gauge atomically.
    #[inline]
    pub fn add(&self, delta: i64) -> i64 {
        self.value.fetch_add(delta, Ordering::Relaxed) + delta
    }

    /// Raises the value to `v` if it is higher (high-water mark).
    #[inline]
    pub fn record_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKET_BOUNDS.len()],
    inf: AtomicU64,
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// A fixed-bucket log-scale histogram of durations in seconds.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                inf: AtomicU64::new(0),
                count: AtomicU64::new(0),
                sum_nanos: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A standalone histogram, attached to no registry.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation, in seconds. Negative and non-finite
    /// values are clamped to zero.
    pub fn observe(&self, seconds: f64) {
        let seconds = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        match BUCKET_BOUNDS.iter().position(|&b| seconds <= b) {
            Some(i) => self.inner.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.inner.inf.fetch_add(1, Ordering::Relaxed),
        };
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        // Integer nanoseconds: merge/aggregate stays associative (u64
        // adds commute; float adds would not).
        let nanos = (seconds * 1e9).round().min(u64::MAX as f64) as u64;
        self.inner.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one observation from a [`Duration`].
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Folds another histogram's observations into this one. Both use
    /// the same fixed bucket ladder, so merging is exact, associative
    /// and commutative.
    pub fn merge_from(&self, other: &Histogram) {
        self.absorb(&other.snapshot());
    }

    /// Folds a [`HistogramSnapshot`] into this histogram, bucket by
    /// bucket — how [`Registry::absorb`] merges histogram series.
    /// Buckets align positionally with [`BUCKET_BOUNDS`]; a snapshot
    /// with a different bucket count contributes only the buckets both
    /// sides share.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        for (mine, theirs) in self.inner.buckets.iter().zip(&snap.buckets) {
            mine.fetch_add(*theirs, Ordering::Relaxed);
        }
        self.inner.inf.fetch_add(snap.inf, Ordering::Relaxed);
        self.inner.count.fetch_add(snap.count, Ordering::Relaxed);
        self.inner
            .sum_nanos
            .fetch_add(snap.sum_nanos, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::SeqCst))
                .collect(),
            inf: self.inner.inf.load(Ordering::SeqCst),
            count: self.inner.count.load(Ordering::SeqCst),
            sum_nanos: self.inner.sum_nanos.load(Ordering::SeqCst),
        }
    }

    /// Estimates the `q`-quantile (`0 ≤ q ≤ 1`); see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts, aligned with
    /// [`BUCKET_BOUNDS`].
    pub buckets: Vec<u64>,
    /// Observations above the last bound.
    pub inf: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of observations, integer nanoseconds.
    pub sum_nanos: u64,
}

impl HistogramSnapshot {
    /// Sum of observations, seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_nanos as f64 / 1e9
    }

    /// Estimates the `q`-quantile as the upper bound of the bucket the
    /// `⌈q·count⌉`-th observation fell into — within one bucket width
    /// of the exact order statistic by construction. `None` for an
    /// empty histogram; `+∞` when the quantile lands above the last
    /// bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Some(BUCKET_BOUNDS[i]);
            }
        }
        Some(f64::INFINITY)
    }
}

/// What kind of metric a family is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous integer value.
    Gauge,
    /// Duration distribution.
    Histogram,
}

impl Kind {
    fn type_name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One metric's point-in-time value, inside a [`Sample`].
#[derive(Debug, Clone)]
pub enum Value {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One `(name, labels, value)` triple from a registry snapshot.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric family name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Family help text.
    pub help: String,
    /// Family kind.
    pub kind: Kind,
    /// The value.
    pub value: Value,
}

struct Family {
    help: String,
    kind: Kind,
    series: BTreeMap<Vec<(String, String)>, Metric>,
}

/// A set of metric families. Handle lookups lock; handle updates do
/// not. Clone-cheap handles mean callers register once and update
/// forever without touching the registry again.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn series(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        kind: Kind,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` registered as {} and {}",
            family.kind.type_name(),
            kind.type_name()
        );
        family.series.entry(labels).or_insert_with(make).clone()
    }

    /// The counter `name{labels}`, created on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.series(name, labels, help, Kind::Counter, || {
            Metric::Counter(Counter::new())
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// The gauge `name{labels}`, created on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.series(name, labels, help, Kind::Gauge, || {
            Metric::Gauge(Gauge::new())
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// The histogram `name{labels}`, created on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Histogram {
        match self.series(name, labels, help, Kind::Histogram, || {
            Metric::Histogram(Histogram::new())
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Exposes an existing [`Counter`] handle under `name{labels}` —
    /// how a component that owns its own counters (e.g. the result
    /// cache) becomes the single source of truth for both its API and
    /// `/metrics`. A first registration wins; re-registering the same
    /// series is a no-op.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], help: &str, c: &Counter) {
        self.series(name, labels, help, Kind::Counter, || {
            Metric::Counter(c.clone())
        });
    }

    /// Exposes an existing [`Gauge`] handle; see
    /// [`Registry::register_counter`].
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], help: &str, g: &Gauge) {
        self.series(name, labels, help, Kind::Gauge, || Metric::Gauge(g.clone()));
    }

    /// Adds every series of `other` into this registry — the one rule
    /// by which two sets of series combine: counters and gauges add,
    /// histograms add bucket by bucket. A series this registry lacks
    /// arrives with `other`'s help text and kind.
    ///
    /// # Panics
    ///
    /// When a family has one kind here and another in `other`.
    pub fn absorb(&self, other: &Registry) {
        for sample in other.snapshot() {
            let labels: Vec<(&str, &str)> = sample
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let (name, help) = (sample.name.as_str(), sample.help.as_str());
            match sample.value {
                Value::Counter(v) => self.counter(name, &labels, help).add(v),
                Value::Gauge(v) => {
                    self.gauge(name, &labels, help).add(v);
                }
                Value::Histogram(h) => self.histogram(name, &labels, help).absorb(&h),
            }
        }
    }

    /// A sorted point-in-time snapshot of every series.
    pub fn snapshot(&self) -> Vec<Sample> {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            for (labels, metric) in &family.series {
                out.push(Sample {
                    name: name.clone(),
                    labels: labels.clone(),
                    help: family.help.clone(),
                    kind: family.kind,
                    value: match metric {
                        Metric::Counter(c) => Value::Counter(c.get()),
                        Metric::Gauge(g) => Value::Gauge(g.get()),
                        Metric::Histogram(h) => Value::Histogram(h.snapshot()),
                    },
                });
            }
        }
        out
    }

    /// Renders the registry as one Prometheus text exposition
    /// document. Families and series come out in sorted order, so equal
    /// state always renders byte-identically.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.type_name());
            for (labels, metric) in &family.series {
                let plain = render_labels(labels, None);
                match metric {
                    Metric::Counter(c) => {
                        let _ = writeln!(out, "{name}{plain} {}", c.get());
                    }
                    Metric::Gauge(g) => {
                        let _ = writeln!(out, "{name}{plain} {}", g.get());
                    }
                    Metric::Histogram(h) => {
                        let h = h.snapshot();
                        let mut cumulative = 0u64;
                        for (n, bound) in h.buckets.iter().zip(BUCKET_BOUNDS) {
                            cumulative += n;
                            let le = render_labels(labels, Some(("le", &format_bound(bound))));
                            let _ = writeln!(out, "{name}_bucket{le} {cumulative}");
                        }
                        let le = render_labels(labels, Some(("le", "+Inf")));
                        let _ = writeln!(out, "{name}_bucket{le} {}", cumulative + h.inf);
                        let _ = writeln!(out, "{name}_sum{plain} {}", h.sum_seconds());
                        let _ = writeln!(out, "{name}_count{plain} {}", h.count);
                    }
                }
            }
        }
        out
    }
}

/// Escapes a label value for the text exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `{a="x",b="y"}` (empty string for no labels), with an
/// optional extra pair appended (used for `le`).
fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

/// Formats a bucket bound the way it will round-trip through the
/// scraper (`f64` default `Display`: `0.000001`, `0.5`, `500`).
fn format_bound(bound: f64) -> String {
    format!("{bound}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_strictly_increasing() {
        for pair in BUCKET_BOUNDS.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?}");
        }
    }

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        g.record_max(2);
        assert_eq!(g.get(), 4, "record_max never lowers");
        g.record_max(40);
        assert_eq!(g.get(), 40);
    }

    #[test]
    fn histogram_count_sum_and_quantiles_are_consistent() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantile");
        for ms in [1.0, 2.0, 3.0, 40.0] {
            h.observe(ms / 1e3);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.buckets.iter().sum::<u64>() + snap.inf, snap.count);
        assert_eq!(snap.sum_nanos, 46_000_000);
        // 1 ms and 2 ms share the 2e-3 bucket; 3 ms → 5e-3; 40 ms → 5e-2.
        assert_eq!(h.quantile(0.5), Some(2e-3));
        assert_eq!(h.quantile(1.0), Some(5e-2));
        // Off-scale observations land in +Inf.
        h.observe(1e6);
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn histogram_merge_is_exact() {
        let (a, b, both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in [1e-4, 3e-3] {
            a.observe(v);
            both.observe(v);
        }
        for v in [2e-2, 0.7, 9.0] {
            b.observe(v);
            both.observe(v);
        }
        let merged = Histogram::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.snapshot(), both.snapshot());
    }

    #[test]
    fn rendering_is_sorted_escaped_and_stable() {
        let registry = Registry::new();
        registry.counter("zzz_total", &[], "last family").add(9);
        registry
            .counter("aaa_total", &[("k", "with\"quote\\and\nnewline")], "first")
            .inc();
        registry
            .gauge("mmm", &[("b", "2"), ("a", "1")], "labels sort")
            .set(-3);
        let text = registry.render_prometheus();
        let again = registry.render_prometheus();
        assert_eq!(text, again, "equal state renders byte-identically");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[2],
            "aaa_total{k=\"with\\\"quote\\\\and\\nnewline\"} 1"
        );
        assert!(text.contains("mmm{a=\"1\",b=\"2\"} -3"), "{text}");
        let zzz = lines.iter().position(|l| l.starts_with("zzz")).unwrap();
        let aaa = lines.iter().position(|l| l.starts_with("aaa")).unwrap();
        assert!(aaa < zzz, "families sorted by name");
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let registry = Registry::new();
        let h = registry.histogram("lat_seconds", &[("stage", "parse")], "latency");
        h.observe(1.5e-6); // 2e-6 bucket
        h.observe(1.5e-6);
        h.observe(0.3); // 5e-1 bucket
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE lat_seconds histogram"), "{text}");
        assert!(
            text.contains("lat_seconds_bucket{stage=\"parse\",le=\"0.000002\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{stage=\"parse\",le=\"0.5\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_count{stage=\"parse\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn registered_handles_share_state() {
        let registry = Registry::new();
        let external = Counter::new();
        external.add(3);
        registry.register_counter("shared_total", &[], "externally owned", &external);
        external.add(2);
        assert!(registry.render_prometheus().contains("shared_total 5"));
    }

    #[test]
    fn absorb_adds_every_kind_and_brings_missing_series() {
        let ours = Registry::new();
        ours.counter("req_total", &[("status", "200")], "requests")
            .add(3);
        ours.gauge("depth", &[], "queue depth").set(2);
        ours.histogram("lat_seconds", &[], "latency").observe(1e-3);
        let theirs = Registry::new();
        theirs
            .counter("req_total", &[("status", "200")], "requests")
            .add(4);
        theirs.gauge("depth", &[], "queue depth").set(-5);
        let h = theirs.histogram("lat_seconds", &[], "latency");
        h.observe(1e-3);
        h.observe(0.3);
        theirs
            .histogram("only_theirs_seconds", &[("stage", "x")], "arrives whole")
            .observe(0.3);

        ours.absorb(&theirs);
        assert_eq!(ours.counter("req_total", &[("status", "200")], "").get(), 7);
        assert_eq!(ours.gauge("depth", &[], "").get(), -3, "gauges add");
        let snap = ours.histogram("lat_seconds", &[], "").snapshot();
        let bucket = |bound: f64| BUCKET_BOUNDS.iter().position(|&b| b == bound).unwrap();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[bucket(1e-3)], 2);
        assert_eq!(snap.buckets[bucket(0.5)], 1);
        assert_eq!(snap.sum_nanos, 302_000_000);
        let text = ours.render_prometheus();
        assert!(
            text.contains(
                "# HELP only_theirs_seconds arrives whole\n\
                 # TYPE only_theirs_seconds histogram\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("only_theirs_seconds_count{stage=\"x\"} 1"),
            "{text}"
        );
        assert_eq!(
            theirs.counter("req_total", &[("status", "200")], "").get(),
            4,
            "the absorbed registry is left as it was"
        );
    }

    #[test]
    #[should_panic(expected = "registered as gauge and counter")]
    fn absorb_keeps_the_kind_check() {
        let ours = Registry::new();
        ours.gauge("x", &[], "");
        let theirs = Registry::new();
        theirs.counter("x", &[], "");
        ours.absorb(&theirs);
    }

    #[test]
    #[should_panic(expected = "registered as counter and gauge")]
    fn kind_conflicts_panic() {
        let registry = Registry::new();
        registry.counter("x", &[], "");
        registry.gauge("x", &[], "");
    }
}
