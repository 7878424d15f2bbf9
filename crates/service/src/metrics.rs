//! Service observability: lock-free counters, latency/width histograms,
//! and the Prometheus text rendering behind `GET /metrics`.
//!
//! Everything is plain atomics so the hot path (one solve) costs a handful
//! of relaxed increments. The latency histograms are
//! [`htd_trace::HistogramMetric`]s owned by this server instance (not the
//! process-global registry, so in-process cluster nodes keep their own);
//! quantiles (p50/p95) are interpolated from their buckets at scrape time,
//! never maintained online.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use htd_core::Json;
use htd_trace::HistogramMetric;

/// Upper bounds (ms) of the solve-latency histogram buckets; the last
/// bucket is +Inf.
pub const LATENCY_BUCKETS_MS: [f64; 14] = [
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
];

/// Upper bounds (seconds) for the queue-wait / solve-time split. Finer at
/// the low end: queue waits on a healthy server are sub-millisecond.
pub const SECONDS_BUCKETS: [f64; 12] = [
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0,
];

/// Widths `0..=MAX_TRACKED_WIDTH-1` get their own counter; anything wider
/// lands in the overflow bucket.
pub const MAX_TRACKED_WIDTH: usize = 32;

/// All counters and gauges of one server instance.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    /// Total requests by kind.
    pub solve_requests: AtomicU64,
    /// `answer` (conjunctive-query) requests.
    pub answer_requests: AtomicU64,
    /// `ping` requests.
    pub ping_requests: AtomicU64,
    /// `stats` requests.
    pub stats_requests: AtomicU64,
    /// `put_cert` pushes received from cluster peers.
    pub put_cert_requests: AtomicU64,
    /// HTTP scrapes (`/healthz` + `/metrics`).
    pub http_requests: AtomicU64,
    /// Responses with status `ok`.
    pub ok_responses: AtomicU64,
    /// Responses with status `rejected` (backpressure).
    pub rejected_responses: AtomicU64,
    /// Responses with status `timeout` (deadline expired in queue).
    pub timeout_responses: AtomicU64,
    /// Responses with status `error`.
    pub error_responses: AtomicU64,
    /// Responses with status `shutting_down`.
    pub shedding_responses: AtomicU64,
    /// Cache hits / misses (solve requests with cache enabled).
    pub cache_hits: AtomicU64,
    /// Cache misses.
    pub cache_misses: AtomicU64,
    /// Requests currently waiting in the work queue.
    pub queue_depth: AtomicI64,
    /// Solves currently running on workers.
    pub inflight: AtomicI64,
    /// Wall-clock latency of cold solves (worker time), ms.
    pub solve_latency: HistogramMetric,
    /// End-to-end service latency of `ok` responses (incl. cache hits), ms.
    pub request_latency: HistogramMetric,
    /// Time a job spent waiting in the work queue, seconds.
    pub queue_wait: HistogramMetric,
    /// Time a job spent actually solving on a worker, seconds. Together
    /// with [`Metrics::queue_wait`] this splits end-to-end latency into
    /// its queueing and compute parts.
    pub solve_time: HistogramMetric,
    /// Upper widths served, by value (capped at [`MAX_TRACKED_WIDTH`]).
    pub widths: Vec<AtomicU64>,
    /// Exact answers served.
    pub exact_served: AtomicU64,
    /// Inexact (anytime-bound) answers served.
    pub inexact_served: AtomicU64,
    /// Cluster: non-owned requests forwarded to a ring owner.
    pub cluster_forwards: AtomicU64,
    /// Cluster: forwards that failed over past at least one owner.
    pub cluster_failovers: AtomicU64,
    /// Cluster: every owner unusable — the request was solved locally.
    pub cluster_local_fallbacks: AtomicU64,
    /// Cluster: certificates replicated to a live replica.
    pub cluster_replications: AtomicU64,
    /// Cluster: certificates queued as hints for unreachable owners.
    pub cluster_handoffs_queued: AtomicU64,
    /// Cluster: hinted certificates delivered after recovery.
    pub cluster_handoffs_delivered: AtomicU64,
    /// Cluster: pushed certificates the local oracle verified + admitted.
    pub cluster_certs_accepted: AtomicU64,
    /// Cluster: pushed certificates the local oracle rejected.
    pub cluster_cert_rejects: AtomicU64,
    /// Cluster: failed peer health probes.
    pub cluster_probe_failures: AtomicU64,
    /// Cluster: ring membership size (self included; 0 = not clustered).
    pub cluster_ring_nodes: AtomicI64,
    /// Cluster: peers currently in each failure-detector state.
    pub cluster_peers_alive: AtomicI64,
    /// Peers the detector currently suspects.
    pub cluster_peers_suspect: AtomicI64,
    /// Peers the detector declared down.
    pub cluster_peers_down: AtomicI64,
    /// Peers that announced a graceful drain (leave-intent).
    pub cluster_peers_leaving: AtomicI64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics anchored at "now".
    pub fn new() -> Metrics {
        Metrics {
            start: Instant::now(),
            solve_requests: AtomicU64::new(0),
            answer_requests: AtomicU64::new(0),
            ping_requests: AtomicU64::new(0),
            put_cert_requests: AtomicU64::new(0),
            stats_requests: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            ok_responses: AtomicU64::new(0),
            rejected_responses: AtomicU64::new(0),
            timeout_responses: AtomicU64::new(0),
            error_responses: AtomicU64::new(0),
            shedding_responses: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            queue_depth: AtomicI64::new(0),
            inflight: AtomicI64::new(0),
            solve_latency: HistogramMetric::new(&LATENCY_BUCKETS_MS),
            request_latency: HistogramMetric::new(&LATENCY_BUCKETS_MS),
            queue_wait: HistogramMetric::new(&SECONDS_BUCKETS),
            solve_time: HistogramMetric::new(&SECONDS_BUCKETS),
            widths: (0..=MAX_TRACKED_WIDTH).map(|_| AtomicU64::new(0)).collect(),
            exact_served: AtomicU64::new(0),
            inexact_served: AtomicU64::new(0),
            cluster_forwards: AtomicU64::new(0),
            cluster_failovers: AtomicU64::new(0),
            cluster_local_fallbacks: AtomicU64::new(0),
            cluster_replications: AtomicU64::new(0),
            cluster_handoffs_queued: AtomicU64::new(0),
            cluster_handoffs_delivered: AtomicU64::new(0),
            cluster_certs_accepted: AtomicU64::new(0),
            cluster_cert_rejects: AtomicU64::new(0),
            cluster_probe_failures: AtomicU64::new(0),
            cluster_ring_nodes: AtomicI64::new(0),
            cluster_peers_alive: AtomicI64::new(0),
            cluster_peers_suspect: AtomicI64::new(0),
            cluster_peers_down: AtomicI64::new(0),
            cluster_peers_leaving: AtomicI64::new(0),
        }
    }

    /// Milliseconds since server start.
    pub fn uptime_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Records a served outcome (width + exactness).
    pub fn record_served(&self, upper: u32, exact: bool) {
        let idx = (upper as usize).min(MAX_TRACKED_WIDTH);
        self.widths[idx].fetch_add(1, Ordering::Relaxed);
        if exact {
            self.exact_served.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inexact_served.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The Prometheus text exposition (version 0.0.4) for `GET /metrics`.
    pub fn render_prometheus(
        &self,
        cache_entries: u64,
        cache_bytes: u64,
        draining: bool,
    ) -> String {
        use std::fmt::Write as _;
        let mut o = String::with_capacity(4096);
        let c = |o: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(o, "# HELP {name} {help}");
            let _ = writeln!(o, "# TYPE {name} counter");
            let _ = writeln!(o, "{name} {v}");
        };
        let g = |o: &mut String, name: &str, help: &str, v: f64| {
            let _ = writeln!(o, "# HELP {name} {help}");
            let _ = writeln!(o, "# TYPE {name} gauge");
            let _ = writeln!(o, "{name} {v}");
        };
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);

        let _ = writeln!(o, "# HELP htd_requests_total Requests by command.");
        let _ = writeln!(o, "# TYPE htd_requests_total counter");
        for (k, v) in [
            ("solve", ld(&self.solve_requests)),
            ("answer", ld(&self.answer_requests)),
            ("ping", ld(&self.ping_requests)),
            ("stats", ld(&self.stats_requests)),
            ("put_cert", ld(&self.put_cert_requests)),
            ("http", ld(&self.http_requests)),
        ] {
            let _ = writeln!(o, "htd_requests_total{{cmd=\"{k}\"}} {v}");
        }
        let _ = writeln!(o, "# HELP htd_responses_total Responses by status.");
        let _ = writeln!(o, "# TYPE htd_responses_total counter");
        for (k, v) in [
            ("ok", ld(&self.ok_responses)),
            ("rejected", ld(&self.rejected_responses)),
            ("timeout", ld(&self.timeout_responses)),
            ("error", ld(&self.error_responses)),
            ("shutting_down", ld(&self.shedding_responses)),
        ] {
            let _ = writeln!(o, "htd_responses_total{{status=\"{k}\"}} {v}");
        }
        c(
            &mut o,
            "htd_cache_hits_total",
            "Result-cache hits.",
            ld(&self.cache_hits),
        );
        c(
            &mut o,
            "htd_cache_misses_total",
            "Result-cache misses.",
            ld(&self.cache_misses),
        );
        g(
            &mut o,
            "htd_cache_entries",
            "Entries in the result cache.",
            cache_entries as f64,
        );
        g(
            &mut o,
            "htd_cache_bytes",
            "Approximate result-cache size.",
            cache_bytes as f64,
        );
        g(
            &mut o,
            "htd_queue_depth",
            "Requests waiting in the work queue.",
            self.queue_depth.load(Ordering::Relaxed) as f64,
        );
        g(
            &mut o,
            "htd_inflight",
            "Solves currently running.",
            self.inflight.load(Ordering::Relaxed) as f64,
        );
        g(
            &mut o,
            "htd_draining",
            "1 while a graceful shutdown drains in-flight work.",
            if draining { 1.0 } else { 0.0 },
        );
        g(
            &mut o,
            "htd_uptime_ms",
            "Milliseconds since start.",
            self.uptime_ms() as f64,
        );
        c(
            &mut o,
            "htd_exact_served_total",
            "Exact answers served.",
            ld(&self.exact_served),
        );
        c(
            &mut o,
            "htd_inexact_served_total",
            "Anytime-bound answers served.",
            ld(&self.inexact_served),
        );

        // cluster series, zero outside cluster mode (stable schema)
        for (name, help, v) in [
            (
                "htd_cluster_forwards_total",
                "Non-owned requests forwarded to their ring owner.",
                ld(&self.cluster_forwards),
            ),
            (
                "htd_cluster_failovers_total",
                "Forwards that failed over past at least one owner.",
                ld(&self.cluster_failovers),
            ),
            (
                "htd_cluster_local_fallbacks_total",
                "Requests solved locally because every owner was unusable.",
                ld(&self.cluster_local_fallbacks),
            ),
            (
                "htd_cluster_replications_total",
                "Certificates replicated to live replicas.",
                ld(&self.cluster_replications),
            ),
            (
                "htd_cluster_handoffs_queued_total",
                "Certificates queued as hints for unreachable owners.",
                ld(&self.cluster_handoffs_queued),
            ),
            (
                "htd_cluster_handoffs_delivered_total",
                "Hinted certificates delivered after peer recovery.",
                ld(&self.cluster_handoffs_delivered),
            ),
            (
                "htd_cluster_certs_accepted_total",
                "Pushed certificates the local oracle verified and admitted.",
                ld(&self.cluster_certs_accepted),
            ),
            (
                "htd_cluster_cert_rejects_total",
                "Pushed certificates the local oracle rejected.",
                ld(&self.cluster_cert_rejects),
            ),
            (
                "htd_cluster_probe_failures_total",
                "Failed peer health probes.",
                ld(&self.cluster_probe_failures),
            ),
        ] {
            c(&mut o, name, help, v);
        }
        g(
            &mut o,
            "htd_cluster_ring_size",
            "Ring membership size, self included (0 = not clustered).",
            self.cluster_ring_nodes.load(Ordering::Relaxed) as f64,
        );
        let _ = writeln!(
            o,
            "# HELP htd_cluster_peers Peers by failure-detector state."
        );
        let _ = writeln!(o, "# TYPE htd_cluster_peers gauge");
        for (state, v) in [
            ("alive", &self.cluster_peers_alive),
            ("suspect", &self.cluster_peers_suspect),
            ("down", &self.cluster_peers_down),
            ("leaving", &self.cluster_peers_leaving),
        ] {
            let _ = writeln!(
                o,
                "htd_cluster_peers{{state=\"{state}\"}} {}",
                v.load(Ordering::Relaxed)
            );
        }

        for (hist, name, help) in [
            (
                &self.solve_latency,
                "htd_solve_latency_ms",
                "Cold solve latency (worker wall clock), ms.",
            ),
            (
                &self.request_latency,
                "htd_request_latency_ms",
                "End-to-end request latency of ok responses, ms.",
            ),
            (
                &self.queue_wait,
                "htd_queue_seconds",
                "Time jobs waited in the work queue, seconds.",
            ),
            (
                &self.solve_time,
                "htd_solve_seconds",
                "Time jobs spent solving on a worker, seconds.",
            ),
        ] {
            let _ = writeln!(o, "# HELP {name} {help}");
            let _ = writeln!(o, "# TYPE {name} histogram");
            hist.render_prometheus(name, &mut o);
            let _ = writeln!(o, "{name}_p50 {}", hist.quantile(0.5));
            let _ = writeln!(o, "{name}_p95 {}", hist.quantile(0.95));
        }

        let _ = writeln!(o, "# HELP htd_width_served_total Served upper widths.");
        let _ = writeln!(o, "# TYPE htd_width_served_total counter");
        for (w, v) in self.widths.iter().enumerate() {
            let v = v.load(Ordering::Relaxed);
            if v > 0 {
                if w == MAX_TRACKED_WIDTH {
                    let _ = writeln!(
                        o,
                        "htd_width_served_total{{width=\"{MAX_TRACKED_WIDTH}+\"}} {v}"
                    );
                } else {
                    let _ = writeln!(o, "htd_width_served_total{{width=\"{w}\"}} {v}");
                }
            }
        }
        o
    }

    /// The JSON snapshot behind the `stats` command and `/healthz`.
    pub fn snapshot_json(&self, cache_entries: u64, cache_bytes: u64, draining: bool) -> Json {
        let ld = |a: &AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
        Json::Obj(vec![
            ("uptime_ms".into(), Json::Num(self.uptime_ms() as f64)),
            ("draining".into(), Json::Bool(draining)),
            ("solve_requests".into(), ld(&self.solve_requests)),
            ("answer_requests".into(), ld(&self.answer_requests)),
            ("ok".into(), ld(&self.ok_responses)),
            ("rejected".into(), ld(&self.rejected_responses)),
            ("timeouts".into(), ld(&self.timeout_responses)),
            ("errors".into(), ld(&self.error_responses)),
            ("cache_hits".into(), ld(&self.cache_hits)),
            ("cache_misses".into(), ld(&self.cache_misses)),
            ("cache_entries".into(), Json::Num(cache_entries as f64)),
            ("cache_bytes".into(), Json::Num(cache_bytes as f64)),
            (
                "queue_depth".into(),
                Json::Num(self.queue_depth.load(Ordering::Relaxed) as f64),
            ),
            (
                "inflight".into(),
                Json::Num(self.inflight.load(Ordering::Relaxed) as f64),
            ),
            (
                "solve_p50_ms".into(),
                Json::Num(self.solve_latency.quantile(0.5)),
            ),
            (
                "solve_p95_ms".into(),
                Json::Num(self.solve_latency.quantile(0.95)),
            ),
            (
                "queue_p95_ms".into(),
                Json::Num(self.queue_wait.quantile(0.95) * 1e3),
            ),
            ("cluster_forwards".into(), ld(&self.cluster_forwards)),
            ("cluster_failovers".into(), ld(&self.cluster_failovers)),
            (
                "cluster_cert_rejects".into(),
                ld(&self.cluster_cert_rejects),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles() {
        let h = HistogramMetric::new(&LATENCY_BUCKETS_MS);
        for _ in 0..90 {
            h.observe(1.5); // bucket (1, 2]
        }
        for _ in 0..10 {
            h.observe(400.0); // bucket (250, 500]
        }
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5);
        assert!(p50 > 1.0 && p50 <= 2.0, "{p50}");
        let p95 = h.quantile(0.95);
        assert!(p95 > 250.0 && p95 <= 500.0, "{p95}");
        assert_eq!(HistogramMetric::new(&LATENCY_BUCKETS_MS).quantile(0.5), 0.0);
    }

    #[test]
    fn seconds_histograms_render_with_their_own_buckets() {
        let m = Metrics::new();
        m.queue_wait.observe(0.0007); // bucket (0.0005, 0.001]
        m.solve_time.observe(0.3); // bucket (0.25, 0.5]
        let text = m.render_prometheus(0, 0, false);
        assert!(text.contains("htd_queue_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("htd_queue_seconds_count 1"));
        assert!(text.contains("htd_solve_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("htd_solve_seconds_sum 0.3"));
        let snap = m.snapshot_json(0, 0, false);
        let q = snap.get("queue_p95_ms").unwrap().as_f64().unwrap();
        assert!(q > 0.5 && q <= 1.0, "{q}");
    }

    #[test]
    fn cluster_series_render_with_states() {
        let m = Metrics::new();
        m.cluster_forwards.fetch_add(3, Ordering::Relaxed);
        m.cluster_cert_rejects.fetch_add(1, Ordering::Relaxed);
        m.cluster_peers_down.store(2, Ordering::Relaxed);
        m.cluster_ring_nodes.store(3, Ordering::Relaxed);
        let text = m.render_prometheus(0, 0, false);
        assert!(text.contains("htd_cluster_forwards_total 3"));
        assert!(text.contains("htd_cluster_cert_rejects_total 1"));
        assert!(text.contains("htd_cluster_peers{state=\"down\"} 2"));
        assert!(text.contains("htd_cluster_peers{state=\"alive\"} 0"));
        assert!(text.contains("htd_cluster_ring_size 3"));
        let snap = m.snapshot_json(0, 0, false);
        assert_eq!(snap.get("cluster_forwards").unwrap().as_u64(), Some(3));
        assert_eq!(snap.get("cluster_cert_rejects").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn prometheus_rendering_contains_series() {
        let m = Metrics::new();
        m.solve_requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.solve_latency.observe(7.0);
        m.record_served(4, true);
        m.record_served(100, false);
        let text = m.render_prometheus(5, 1024, false);
        assert!(text.contains("htd_requests_total{cmd=\"solve\"} 3"));
        assert!(text.contains("htd_cache_hits_total 2"));
        assert!(text.contains("htd_solve_latency_ms_bucket{le=\"10\"} 1"));
        assert!(text.contains("htd_solve_latency_ms_count 1"));
        assert!(text.contains("htd_width_served_total{width=\"4\"} 1"));
        assert!(text.contains("htd_width_served_total{width=\"32+\"} 1"));
        assert!(text.contains("htd_cache_entries 5"));
        // snapshot mirrors the counters
        let snap = m.snapshot_json(5, 1024, true);
        assert_eq!(snap.get("cache_hits").unwrap().as_u64(), Some(2));
        assert_eq!(snap.get("draining").unwrap().as_bool(), Some(true));
    }
}
