//! The metrics registry: labeled counters, gauges, and log-bucketed
//! latency histograms, with Prometheus-text and JSON exposition.
//!
//! The design follows the label-based registry pattern of production Rust
//! metrics crates (e.g. `prometric`), specialized for a single-threaded
//! simulator: handles are `Rc`-shared cells, so the hot path is one
//! unsynchronized integer add — no locks, no hashing, and **no heap
//! allocation** after the handle is created.
//!
//! ```
//! use timecache_telemetry::Registry;
//!
//! let reg = Registry::new();
//! let hits = reg.counter("cache_hits_total", "Demand hits.", &[("cache", "l1d")]);
//! hits.inc();
//! hits.add(2);
//! assert_eq!(hits.get(), 3);
//! assert!(reg.render_prometheus().contains("cache_hits_total{cache=\"l1d\"} 3"));
//! ```

use crate::encode;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Number of latency buckets: powers of two from `2^0` through `2^31`,
/// plus the implicit `+Inf` overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.set(self.0.get().wrapping_add(v));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A gauge: a value that can go up and down. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Rc<Cell<f64>>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.set(v);
    }

    /// Adds `v` (may be negative).
    #[inline]
    pub fn add(&self, v: f64) {
        self.0.set(self.0.get() + v);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.0.get()
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// `buckets[i]` counts observations with `value <= 2^i`; the final
    /// bucket is the `+Inf` overflow.
    buckets: [Cell<u64>; HISTOGRAM_BUCKETS + 1],
    sum: Cell<u64>,
    count: Cell<u64>,
}

// Derived `Default` is unavailable for arrays longer than 32 elements.
impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| Cell::new(0)),
            sum: Cell::new(0),
            count: Cell::new(0),
        }
    }
}

/// A log2-bucketed histogram of nonnegative integer observations (cycle
/// latencies). Bucket upper bounds are `1, 2, 4, …, 2^31, +Inf` — covering
/// every latency the simulator can produce while keeping observation O(1)
/// and allocation-free.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Rc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let idx = Self::bucket_index(value);
        let b = &self.0.buckets[idx];
        b.set(b.get() + 1);
        self.0.sum.set(self.0.sum.get().wrapping_add(value));
        self.0.count.set(self.0.count.get() + 1);
    }

    /// The bucket an observation falls into: the smallest `i` with
    /// `value <= 2^i`, or the overflow bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            let i = 64 - (value - 1).leading_zeros() as usize;
            i.min(HISTOGRAM_BUCKETS)
        }
    }

    /// The inclusive upper bound of bucket `i` (`f64::INFINITY` for the
    /// overflow bucket).
    pub fn bucket_bound(i: usize) -> f64 {
        if i >= HISTOGRAM_BUCKETS {
            f64::INFINITY
        } else {
            (1u64 << i) as f64
        }
    }

    /// Per-bucket (non-cumulative) observation counts.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.buckets.iter().map(Cell::get).collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.get()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.get()
    }

    /// Arithmetic mean of observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.sum() as f64 / self.count() as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: Kind,
    /// (sorted label pairs, handle) per series.
    series: Vec<(Vec<(String, String)>, Series)>,
}

/// The metric registry. Cloning shares the underlying store, so a single
/// registry can be handed to the simulator, the OS model, and the attack
/// programs, and scraped once at the end (or at any point mid-run).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    families: Rc<RefCell<Vec<Family>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the counter `name` with the given label pairs.
    ///
    /// # Panics
    ///
    /// Panics if `name` already exists with a different metric type.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, Kind::Counter, labels) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Gets or creates the gauge `name` with the given label pairs.
    ///
    /// # Panics
    ///
    /// Panics if `name` already exists with a different metric type.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, Kind::Gauge, labels) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Gets or creates the histogram `name` with the given label pairs.
    ///
    /// # Panics
    ///
    /// Panics if `name` already exists with a different metric type.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, help, Kind::Histogram, labels) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked in series()"),
        }
    }

    /// Looks up an existing counter's current value (scrape helper for
    /// tests and reports). Returns `None` if the series does not exist.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = sorted_labels(labels);
        let families = self.families.borrow();
        let fam = families.iter().find(|f| f.name == name)?;
        fam.series.iter().find_map(|(l, s)| match s {
            Series::Counter(c) if *l == key => Some(c.get()),
            _ => None,
        })
    }

    fn series(&self, name: &str, help: &str, kind: Kind, labels: &[(&str, &str)]) -> Series {
        assert!(
            is_valid_metric_name(name),
            "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
        );
        let key = sorted_labels(labels);
        let mut families = self.families.borrow_mut();
        let fam = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(
                    f.kind == kind,
                    "metric {name} registered as {} but requested as {}",
                    f.kind.as_str(),
                    kind.as_str()
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_owned(),
                    help: help.to_owned(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some((_, s)) = fam.series.iter().find(|(l, _)| *l == key) {
            return s.clone();
        }
        let s = match kind {
            Kind::Counter => Series::Counter(Counter::default()),
            Kind::Gauge => Series::Gauge(Gauge::default()),
            Kind::Histogram => Series::Histogram(Histogram::default()),
        };
        fam.series.push((key, s.clone()));
        s
    }

    /// Renders the whole registry in the Prometheus text exposition format
    /// (v0.0.4): `# HELP` / `# TYPE` headers, one sample per line,
    /// histograms expanded to cumulative `_bucket`/`_sum`/`_count` series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in self.families.borrow().iter() {
            out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.as_str()));
            for (labels, series) in &fam.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&fam.name);
                        out.push_str(&prom_labels(labels, None));
                        out.push_str(&format!(" {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&fam.name);
                        out.push_str(&prom_labels(labels, None));
                        out.push_str(&format!(" {}\n", encode::prom_f64(g.get())));
                    }
                    Series::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (i, c) in counts.iter().enumerate() {
                            cumulative += c;
                            let le = encode::prom_f64(Histogram::bucket_bound(i));
                            out.push_str(&format!("{}_bucket", fam.name));
                            out.push_str(&prom_labels(labels, Some(&le)));
                            out.push_str(&format!(" {cumulative}\n"));
                        }
                        out.push_str(&format!("{}_sum", fam.name));
                        out.push_str(&prom_labels(labels, None));
                        out.push_str(&format!(" {}\n", h.sum()));
                        out.push_str(&format!("{}_count", fam.name));
                        out.push_str(&prom_labels(labels, None));
                        out.push_str(&format!(" {}\n", h.count()));
                    }
                }
            }
        }
        out
    }

    /// Renders the whole registry as a single JSON document:
    /// `{"metrics": [{"name", "type", "help", "series": [...]}]}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"metrics\":[");
        for (fi, fam) in self.families.borrow().iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            encode::json_string(&mut out, &fam.name);
            out.push_str(",\"type\":");
            encode::json_string(&mut out, fam.kind.as_str());
            out.push_str(",\"help\":");
            encode::json_string(&mut out, &fam.help);
            out.push_str(",\"series\":[");
            for (si, (labels, series)) in fam.series.iter().enumerate() {
                if si > 0 {
                    out.push(',');
                }
                out.push_str("{\"labels\":{");
                for (li, (k, v)) in labels.iter().enumerate() {
                    if li > 0 {
                        out.push(',');
                    }
                    encode::json_string(&mut out, k);
                    out.push(':');
                    encode::json_string(&mut out, v);
                }
                out.push('}');
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!(",\"value\":{}", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(",\"value\":");
                        encode::json_f64(&mut out, g.get());
                    }
                    Series::Histogram(h) => {
                        out.push_str(",\"buckets\":[");
                        for (i, c) in h.bucket_counts().iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            out.push_str(&format!("{c}"));
                        }
                        out.push_str(&format!("],\"sum\":{},\"count\":{}", h.sum(), h.count()));
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// A plain-data copy of a registry's full contents at one instant.
///
/// Unlike [`Registry`] (whose handles are `Rc`-shared and therefore pinned
/// to one thread), a snapshot owns all of its data and is `Send`: a worker
/// thread can record into its own registry, snapshot it, and hand the
/// snapshot across a thread boundary for [`Registry::merge`] on the main
/// thread. This is how the bench harness's parallel sweep engine folds
/// per-worker metrics back into the run-level registry.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    families: Vec<FamilySnap>,
}

impl RegistrySnapshot {
    /// Whether the snapshot contains no series at all.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }
}

#[derive(Debug, Clone)]
struct FamilySnap {
    name: String,
    help: String,
    /// The family kind travels implicitly in [`ValueSnap`]; merge re-derives
    /// it through the typed accessors, which enforce kind consistency.
    series: Vec<(Vec<(String, String)>, ValueSnap)>,
}

#[derive(Debug, Clone)]
enum ValueSnap {
    Counter(u64),
    Gauge(f64),
    Histogram {
        buckets: Vec<u64>,
        sum: u64,
        count: u64,
    },
}

impl Registry {
    /// Captures every family and series as owned plain data (see
    /// [`RegistrySnapshot`]).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let families = self
            .families
            .borrow()
            .iter()
            .map(|fam| FamilySnap {
                name: fam.name.clone(),
                help: fam.help.clone(),
                series: fam
                    .series
                    .iter()
                    .map(|(labels, s)| {
                        let value = match s {
                            Series::Counter(c) => ValueSnap::Counter(c.get()),
                            Series::Gauge(g) => ValueSnap::Gauge(g.get()),
                            Series::Histogram(h) => ValueSnap::Histogram {
                                buckets: h.bucket_counts(),
                                sum: h.sum(),
                                count: h.count(),
                            },
                        };
                        (labels.clone(), value)
                    })
                    .collect(),
            })
            .collect();
        RegistrySnapshot { families }
    }

    /// Folds a snapshot into this registry, creating any missing families
    /// and series. Counters and histograms are *additive* (values, bucket
    /// counts, sums, and observation counts are summed — merging N worker
    /// snapshots yields the same totals as one serial run recording
    /// everything); gauges adopt the snapshot's value (last merge wins).
    ///
    /// # Panics
    ///
    /// Panics if a metric name exists in both with different types.
    pub fn merge(&self, snap: &RegistrySnapshot) {
        for fam in &snap.families {
            for (labels, value) in &fam.series {
                let labels_ref: Vec<(&str, &str)> = labels
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                match value {
                    ValueSnap::Counter(v) => {
                        self.counter(&fam.name, &fam.help, &labels_ref).add(*v);
                    }
                    ValueSnap::Gauge(v) => {
                        self.gauge(&fam.name, &fam.help, &labels_ref).set(*v);
                    }
                    ValueSnap::Histogram {
                        buckets,
                        sum,
                        count,
                    } => {
                        let h = self.histogram(&fam.name, &fam.help, &labels_ref);
                        for (cell, add) in h.0.buckets.iter().zip(buckets) {
                            cell.set(cell.get() + add);
                        }
                        h.0.sum.set(h.0.sum.get().wrapping_add(*sum));
                        h.0.count.set(h.0.count.get() + count);
                    }
                }
            }
        }
    }
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, val)| (k.to_string(), val.to_string()))
        .collect();
    v.sort();
    v
}

fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", encode::prom_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_series_are_shared_by_identity() {
        let r = Registry::new();
        let a = r.counter("x_total", "x", &[("k", "v")]);
        let b = r.counter("x_total", "x", &[("k", "v")]);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        // Label order must not matter.
        let c = r.counter("y_total", "y", &[("a", "1"), ("b", "2")]);
        let d = r.counter("y_total", "y", &[("b", "2"), ("a", "1")]);
        c.inc();
        assert_eq!(d.get(), 1);
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let r = Registry::new();
        let a = r.counter("x_total", "x", &[("k", "a")]);
        let b = r.counter("x_total", "x", &[("k", "b")]);
        a.inc();
        assert_eq!(b.get(), 0);
        assert_eq!(r.counter_value("x_total", &[("k", "a")]), Some(1));
        assert_eq!(r.counter_value("x_total", &[("k", "c")]), None);
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_conflicts_are_rejected() {
        let r = Registry::new();
        r.counter("m", "m", &[]);
        r.gauge("m", "m", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_are_rejected() {
        Registry::new().counter("0bad name", "", &[]);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1 << 31), 31);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
        assert_eq!(Histogram::bucket_bound(0), 1.0);
        assert_eq!(Histogram::bucket_bound(5), 32.0);
        assert!(Histogram::bucket_bound(HISTOGRAM_BUCKETS).is_infinite());
    }

    #[test]
    fn histogram_tracks_sum_count_mean() {
        let h = Histogram::default();
        for v in [2u64, 30, 200] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 232);
        assert!((h.mean() - 232.0 / 3.0).abs() < 1e-12);
        let counts = h.bucket_counts();
        assert_eq!(counts[1], 1); // 2 -> le 2
        assert_eq!(counts[5], 1); // 30 -> le 32
        assert_eq!(counts[8], 1); // 200 -> le 256
    }

    #[test]
    fn prometheus_text_shape() {
        let r = Registry::new();
        r.counter("hits_total", "Total hits.", &[("cache", "l1d")])
            .add(7);
        r.gauge("occupancy", "Lines resident.", &[]).set(0.5);
        let h = r.histogram("lat_cycles", "Latency.", &[("level", "llc")]);
        h.observe(30);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE hits_total counter"));
        assert!(text.contains("hits_total{cache=\"l1d\"} 7"));
        assert!(text.contains("occupancy 0.5"));
        assert!(text.contains("lat_cycles_bucket{level=\"llc\",le=\"32\"} 1"));
        assert!(text.contains("lat_cycles_bucket{level=\"llc\",le=\"+Inf\"} 1"));
        assert!(text.contains("lat_cycles_sum{level=\"llc\"} 30"));
        assert!(text.contains("lat_cycles_count{level=\"llc\"} 1"));
    }

    #[test]
    fn snapshot_is_send_and_owns_its_data() {
        fn assert_send<T: Send>() {}
        assert_send::<RegistrySnapshot>();
        let r = Registry::new();
        r.counter("a_total", "a", &[("k", "v")]).add(3);
        let snap = r.snapshot();
        // Mutating the registry after the snapshot must not change it.
        r.counter("a_total", "a", &[("k", "v")]).add(10);
        let fresh = Registry::new();
        fresh.merge(&snap);
        assert_eq!(fresh.counter_value("a_total", &[("k", "v")]), Some(3));
    }

    #[test]
    fn merge_adds_counters_and_histograms_sets_gauges() {
        let a = Registry::new();
        a.counter("c_total", "c", &[]).add(2);
        a.gauge("g", "g", &[]).set(1.5);
        a.histogram("h", "h", &[]).observe(3);
        a.histogram("h", "h", &[]).observe(100);

        let b = Registry::new();
        b.counter("c_total", "c", &[]).add(5);
        b.gauge("g", "g", &[]).set(9.0);
        b.histogram("h", "h", &[]).observe(3);

        a.merge(&b.snapshot());
        assert_eq!(a.counter_value("c_total", &[]), Some(7));
        let h = a.histogram("h", "h", &[]);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.bucket_counts()[Histogram::bucket_index(3)], 2);
        assert_eq!(a.gauge("g", "g", &[]).get(), 9.0);
    }

    #[test]
    fn merging_n_snapshots_equals_serial_totals() {
        let serial = Registry::new();
        let merged = Registry::new();
        for worker in 0..4u64 {
            let w = Registry::new();
            for v in 0..10u64 {
                serial.counter("x_total", "x", &[]).add(worker + v);
                w.counter("x_total", "x", &[]).add(worker + v);
                serial.histogram("lat", "l", &[]).observe(v);
                w.histogram("lat", "l", &[]).observe(v);
            }
            merged.merge(&w.snapshot());
        }
        assert_eq!(
            merged.counter_value("x_total", &[]),
            serial.counter_value("x_total", &[])
        );
        assert_eq!(
            merged.histogram("lat", "l", &[]).bucket_counts(),
            serial.histogram("lat", "l", &[]).bucket_counts()
        );
        assert_eq!(serial.render_prometheus(), merged.render_prometheus());
    }

    #[test]
    fn json_is_structurally_sound() {
        let r = Registry::new();
        r.counter("a_total", "a \"quoted\" help", &[("k", "v")])
            .inc();
        r.histogram("h", "h", &[]).observe(5);
        let json = r.render_json();
        assert!(json.starts_with("{\"metrics\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"a \\\"quoted\\\" help\""));
        assert!(json.contains("\"value\":1"));
        assert!(json.contains("\"count\":1"));
        // Balanced braces/brackets (cheap structural check).
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }
}
