//! The global metric registry: named atomic counters, gauges and
//! histograms, rendered as Prometheus text.
//!
//! Handles are resolved once (at worker/session setup, never per node
//! expansion) and are `&'static`: after resolution an update is a single
//! relaxed atomic op, safe to call from any thread with no further
//! registry involvement. The registry itself is process-global so every
//! layer — engines, caches, the service — contributes to one scrape.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram with atomic counts.
///
/// Units are the caller's choice (the solver records seconds); `bounds`
/// are the inclusive upper edges of the buckets, the final implicit
/// bucket is `+Inf`. Quantiles are linearly interpolated inside the
/// bucket that crosses the target rank, matching how Prometheus's
/// `histogram_quantile` reads the same buckets.
#[derive(Debug)]
pub struct HistogramMetric {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    /// Sum in micro-units so it fits an atomic integer.
    sum_micro: AtomicU64,
    count: AtomicU64,
}

impl HistogramMetric {
    /// A histogram over the given ascending bucket bounds.
    pub fn new(bounds: &[f64]) -> HistogramMetric {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        HistogramMetric {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_micro: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_micro
            .fetch_add((v * 1e6).max(0.0) as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// The bucket bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative count up to and including bucket `i` (`i == bounds.len()`
    /// is the `+Inf` bucket, i.e. the total).
    pub fn cumulative(&self, i: usize) -> u64 {
        self.counts[..=i]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Interpolated quantile (`0.0..=1.0`); 0 when empty. The `+Inf`
    /// bucket reports twice the last finite bound — a histogram cannot
    /// say more about its tail.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        let mut lo = 0.0;
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            let hi = self
                .bounds
                .get(i)
                .copied()
                .unwrap_or(2.0 * self.bounds[self.bounds.len() - 1]);
            if seen + n >= target && n > 0 {
                let into = (target - seen) as f64 / n as f64;
                return lo + (hi - lo) * into;
            }
            seen += n;
            lo = hi;
        }
        lo
    }

    /// Writes the `_bucket` (cumulative), `_sum` and `_count` series of
    /// this histogram in Prometheus text format. A labeled `name` like
    /// `m{span="x"}` renders as `m_bucket{span="x",le="..."}`: the series
    /// suffix goes on the metric name, extra labels merge with `le`.
    pub fn render_prometheus(&self, name: &str, out: &mut String) {
        let (base, labels) = match name.split_once('{') {
            Some((base, labels)) => (base, labels.trim_end_matches('}')),
            None => (name, ""),
        };
        // extra labels precede `le` on buckets and stand alone elsewhere
        let (prefix, braced) = if labels.is_empty() {
            (String::new(), String::new())
        } else {
            (format!("{labels},"), format!("{{{labels}}}"))
        };
        for i in 0..=self.bounds.len() {
            let le = self
                .bounds
                .get(i)
                .map_or_else(|| "+Inf".into(), f64::to_string);
            let cum = self.cumulative(i);
            let _ = writeln!(out, "{base}_bucket{{{prefix}le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(out, "{base}_sum{braced} {}", self.sum());
        let _ = writeln!(out, "{base}_count{braced} {}", self.count());
    }
}

enum Slot {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static HistogramMetric),
}

/// A named collection of metrics. One process-global instance exists
/// behind [`registry`]; private registries are constructible for tests.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Box::leak(Box::default())))
        {
            Slot::Counter(c) => c,
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// The counter `name{label="value"}`, created on first use.
    pub fn labeled_counter(&self, name: &str, label: &str, value: &str) -> &'static Counter {
        self.counter(&format!("{name}{{{label}=\"{value}\"}}"))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Box::leak(Box::default())))
        {
            Slot::Gauge(g) => g,
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// The histogram named `name`, created on first use with `bounds`
    /// (later calls may pass any bounds; the first registration wins).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> &'static HistogramMetric {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Box::leak(Box::new(HistogramMetric::new(bounds)))))
        {
            Slot::Histogram(h) => h,
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// Value of a counter if it exists (exact key, including any label).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.slots.lock().unwrap().get(name) {
            Some(Slot::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Renders every metric in Prometheus text exposition format,
    /// sorted by name so scrapes are deterministic.
    pub fn render_prometheus(&self, out: &mut String) {
        let slots = self.slots.lock().unwrap();
        let mut last_base = String::new();
        for (name, slot) in slots.iter() {
            let base = name.split('{').next().unwrap_or(name);
            if base != last_base {
                let kind = match slot {
                    Slot::Counter(_) => "counter",
                    Slot::Gauge(_) => "gauge",
                    Slot::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_base = base.to_string();
            }
            match slot {
                Slot::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Slot::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Slot::Histogram(h) => h.render_prometheus(name, out),
            }
        }
    }
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("ops_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(r.counter_value("ops_total"), Some(5));
        // same name returns the same handle
        r.counter("ops_total").inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("depth");
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let r = Registry::new();
        r.labeled_counter("wins_total", "engine", "astar").add(2);
        r.labeled_counter("wins_total", "engine", "genetic").inc();
        assert_eq!(r.counter_value("wins_total{engine=\"astar\"}"), Some(2));
        assert_eq!(r.counter_value("wins_total{engine=\"genetic\"}"), Some(1));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn histogram_percentiles_interpolate() {
        let h = HistogramMetric::new(&[1.0, 2.0, 5.0, 10.0]);
        // 50 observations in (1, 2], 50 in (5, 10]
        for _ in 0..50 {
            h.observe(1.5);
            h.observe(7.0);
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - (50.0 * 1.5 + 50.0 * 7.0)).abs() < 1e-3);
        // p25 lands mid-way through the first occupied bucket
        let p25 = h.quantile(0.25);
        assert!(p25 > 1.0 && p25 <= 2.0, "{p25}");
        // p50 is the upper edge of the first occupied bucket
        assert!((h.quantile(0.5) - 2.0).abs() < 1e-9);
        // p75 interpolates inside (5, 10]
        let p75 = h.quantile(0.75);
        assert!(p75 > 5.0 && p75 <= 10.0, "{p75}");
        // extremes
        assert!(h.quantile(0.0) > 1.0);
        assert!((h.quantile(1.0) - 10.0).abs() < 1e-9);
        // empty histogram reports 0
        assert_eq!(HistogramMetric::new(&[1.0]).quantile(0.9), 0.0);
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        // empty: every quantile is 0, including the extremes
        let empty = HistogramMetric::new(&[1.0, 2.0]);
        assert_eq!(empty.quantile(0.0), 0.0);
        assert_eq!(empty.quantile(0.5), 0.0);
        assert_eq!(empty.quantile(1.0), 0.0);

        // all mass in the implicit +Inf bucket: quantiles interpolate
        // between the last finite bound and twice that bound — the
        // histogram can only say "past the end"
        let inf = HistogramMetric::new(&[1.0, 2.0, 5.0]);
        for _ in 0..10 {
            inf.observe(1e9);
        }
        for q in [0.0, 0.01, 0.5, 0.99] {
            let v = inf.quantile(q);
            assert!(v > 5.0 && v <= 10.0, "q={q} v={v}");
        }
        assert!((inf.quantile(1.0) - 10.0).abs() < 1e-9);

        // single-bucket histogram: quantiles interpolate 0..bound, and
        // out-of-range q is clamped rather than extrapolated
        let one = HistogramMetric::new(&[4.0]);
        for _ in 0..4 {
            one.observe(1.0);
        }
        assert!((one.quantile(0.25) - 1.0).abs() < 1e-9);
        assert!((one.quantile(0.5) - 2.0).abs() < 1e-9);
        assert!((one.quantile(1.0) - 4.0).abs() < 1e-9);
        assert!((one.quantile(2.0) - 4.0).abs() < 1e-9, "q clamps to 1");
        assert!(one.quantile(-1.0) > 0.0, "q clamps to 0, rank >= 1");
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = HistogramMetric::new(&[1.0, 2.0]);
        h.observe(100.0);
        assert_eq!(h.cumulative(2), 1);
        assert_eq!(h.cumulative(1), 0);
        // the +Inf bucket can only report "beyond the last bound"
        assert!((h.quantile(0.5) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn exact_bucket_edges_are_inclusive() {
        let h = HistogramMetric::new(&[1.0, 2.0]);
        h.observe(1.0);
        h.observe(2.0);
        assert_eq!(h.cumulative(0), 1);
        assert_eq!(h.cumulative(1), 2);
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.gauge("a_gauge").set(7);
        let h = r.histogram("c_hist", &[0.5, 1.0]);
        h.observe(0.7);
        let mut out = String::new();
        r.render_prometheus(&mut out);
        let a = out.find("a_gauge 7").expect("gauge rendered");
        let b = out.find("b_total 2").expect("counter rendered");
        let c = out.find("c_hist_bucket{le=\"0.5\"} 0").expect("bucket 0");
        assert!(a < b && b < c, "sorted output:\n{out}");
        assert!(out.contains("# TYPE b_total counter"));
        assert!(out.contains("c_hist_bucket{le=\"1\"} 1"));
        assert!(out.contains("c_hist_bucket{le=\"+Inf\"} 1"));
        assert!(out.contains("c_hist_count 1"));
    }

    #[test]
    fn labeled_histogram_renders_well_formed_series() {
        // a labeled registration must merge its labels with `le` on the
        // bucket series, not append `_bucket` after the closing brace
        let r = Registry::new();
        let h = r.histogram("d_hist{span=\"x\"}", &[0.5]);
        h.observe(0.1);
        let mut out = String::new();
        r.render_prometheus(&mut out);
        assert!(out.contains("# TYPE d_hist histogram"), "{out}");
        assert!(
            out.contains("d_hist_bucket{span=\"x\",le=\"0.5\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("d_hist_bucket{span=\"x\",le=\"+Inf\"} 1"),
            "{out}"
        );
        assert!(out.contains("d_hist_sum{span=\"x\"} 0.1"), "{out}");
        assert!(out.contains("d_hist_count{span=\"x\"} 1"), "{out}");
    }
}
