//! A fixed-bucket atomic histogram and its Prometheus rendering.
//!
//! Counters and gauges are plain atomics owned by the code that measures
//! them. The histogram is shared because its bucketing, quantiles and
//! text rendering are the same wherever it is used: a server's latency
//! series and the span collector's `htd_span_seconds` family.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn labeled_histogram_renders_well_formed_series() {
        // a labeled name must merge its labels with `le` on the bucket
        // series, not append `_bucket` after the closing brace
        let h = HistogramMetric::new(&[0.5]);
        h.observe(0.1);
        let mut out = String::new();
        h.render_prometheus("d_hist{span=\"x\"}", &mut out);
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
