//! The serving metrics subsystem: lock-cheap counters and histograms the
//! driver updates on its hot path, snapshot-able from any thread in the
//! same JSON style as `BENCH_serving.json` so CI can gate tail latency.
//!
//! Design constraints, in order:
//!
//! 1. **Recording must be cheap** — one step records one latency sample,
//!    one queue-depth sample, and a few counter bumps. [`Histogram`] is a
//!    fixed array of relaxed atomics bucketed by power of two, so a record
//!    is two atomic adds and never takes a lock; reject/admit counters are
//!    plain atomics. Only the per-tenant token map takes a (short) mutex,
//!    and only when a step actually decoded tokens.
//! 2. **Snapshots must not stop the world** — [`Metrics::snapshot`] reads
//!    the atomics without pausing the driver; a snapshot is internally
//!    consistent to within one in-flight step, which is all a metrics
//!    poll needs.
//! 3. **Quantiles are bucketed** — p50/p99 from a power-of-two histogram
//!    are upper bucket bounds (at most 2× the true value). That is the
//!    right trade for an always-on server metric; exact percentiles for
//!    CI gates come from [`percentile`] over raw samples (what
//!    `serve_bench` records).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;
use vqllm_llm::RejectReason;

use crate::net::json;

/// Power-of-two bucket count: values are `µs` (or depths) up to `2^63`.
const BUCKETS: usize = 64;

/// A lock-free log2-bucketed histogram over non-negative integer samples
/// (microseconds, queue depths). Recording is two relaxed atomic adds;
/// quantiles are read as upper bucket bounds (within 2× of exact).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index of a sample: `0` holds 0, `i` holds `(2^(i-1), 2^i]`.
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Upper bound of bucket `i` (the conservative quantile readout).
    fn bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i.min(63)
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(bucket) = self.buckets.get(Self::bucket(v)) {
            bucket.fetch_add(1, Relaxed);
        }
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Relaxed) as f64 / n as f64
        }
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// The `q`-quantile (`0.0..=1.0`) as an upper bucket bound — within
    /// 2× of the exact order statistic. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Relaxed);
            if seen >= rank {
                return Self::bound(i);
            }
        }
        self.max()
    }
}

/// Exact percentile over raw samples: sorts a copy and reads the
/// ceil-rank order statistic (the `BENCH_serving.json` CI-gate path).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q.clamp(0.0, 1.0) * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s.get(rank - 1).copied().unwrap_or(0.0)
}

/// Generates [`DisconnectReason`] from the one table below: each variant
/// with its docs and its metrics code. The enum, [`DisconnectReason::ALL`]
/// and [`DisconnectReason::code`] all come from the table, so `ALL` is in
/// declaration order and `reason as usize` is the reason's slot in it.
macro_rules! disconnect_reasons {
    ($($(#[$doc:meta])* $variant:ident => $code:literal,)*) => {
        /// Why a connection was closed, as the per-reason disconnect
        /// counters track it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum DisconnectReason {
            $($(#[$doc])* $variant,)*
        }

        impl DisconnectReason {
            /// All reasons, in counter-array (and declaration) order.
            pub const ALL: &'static [DisconnectReason] = &[$(DisconnectReason::$variant),*];

            /// The metrics JSON key suffix (`disconnects_<code>`).
            pub fn code(&self) -> &'static str {
                match self {
                    $(DisconnectReason::$variant => $code,)*
                }
            }
        }
    };
}

disconnect_reasons! {
    /// Evicted: the writer queue stayed over its watermark past the
    /// configured grace (or hit its hard cap) — the reader was too slow.
    SlowReader => "slow_reader",
    /// Reaped: no frames received for longer than the idle timeout.
    Idle => "idle",
    /// The client hung up: a clean EOF, or a reset, abort or broken pipe
    /// on either half (a close with frames still unread is a reset).
    Eof => "eof",
    /// An over-long line, another protocol violation, or a socket error
    /// other than a hang-up.
    Error => "error",
}

/// The driver's live metrics surface. Shared (`Arc`) between the driver
/// thread (writes) and any snapshot reader; everything except the
/// per-tenant map is atomic.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Wall time of each engine step, µs.
    pub step_latency: Histogram,
    /// Requests waiting (front-end + engine queue) sampled before each
    /// step.
    pub queue_depth: Histogram,
    decoded_tokens: AtomicU64,
    admitted: AtomicU64,
    /// Per-reason rejections, indexed by [`RejectReason::slot`].
    rejected: [AtomicU64; RejectReason::CODES.len()],
    /// tenant -> decoded tokens.
    tenants: Mutex<Vec<(u64, u64)>>,
    /// Connections currently open (gauge).
    active_connections: AtomicU64,
    /// Connections ever accepted (counter).
    connections_total: AtomicU64,
    /// Per-reason connection closes.
    disconnects: [AtomicU64; DisconnectReason::ALL.len()],
    /// Deepest any connection's writer queue has ever been.
    writer_queue_peak: AtomicU64,
    /// Supervised driver restarts (engine rebuilds after a driver death).
    restarts: AtomicU64,
    /// Requests quarantined by the fault-containment layer.
    quarantined: AtomicU64,
    /// Running groups shed by the step watchdog.
    watchdog_sheds: AtomicU64,
    /// Times the breaker tripped (halving `max_batch` for a cooldown).
    breaker_trips: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh metrics; the tokens/s denominator starts now.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            step_latency: Histogram::new(),
            queue_depth: Histogram::new(),
            decoded_tokens: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            rejected: [const { AtomicU64::new(0) }; RejectReason::CODES.len()],
            tenants: Mutex::new(Vec::new()),
            active_connections: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            disconnects: [const { AtomicU64::new(0) }; DisconnectReason::ALL.len()],
            writer_queue_peak: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            watchdog_sheds: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
        }
    }

    /// Counts a supervised driver restart.
    pub fn record_restart(&self) {
        self.restarts.fetch_add(1, Relaxed);
    }

    /// Supervised driver restarts so far.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Relaxed)
    }

    /// Counts requests quarantined by the containment layer.
    pub fn record_quarantined(&self, n: u64) {
        self.quarantined.fetch_add(n, Relaxed);
    }

    /// Requests quarantined so far.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Relaxed)
    }

    /// Counts a watchdog shed of the running group.
    pub fn record_watchdog_shed(&self) {
        self.watchdog_sheds.fetch_add(1, Relaxed);
    }

    /// Counts a breaker trip.
    pub fn record_breaker_trip(&self) {
        self.breaker_trips.fetch_add(1, Relaxed);
    }

    /// Counts a connection entering service (bumps the gauge and the
    /// lifetime total).
    pub fn connection_opened(&self) {
        self.active_connections.fetch_add(1, Relaxed);
        self.connections_total.fetch_add(1, Relaxed);
    }

    /// Counts a connection leaving service, tagged with why.
    pub fn connection_closed(&self, reason: DisconnectReason) {
        self.active_connections.fetch_sub(1, Relaxed);
        // `reason as usize` is its slot in ALL (both come from one
        // table), and the array is sized by ALL, so the lookup cannot miss.
        if let Some(counter) = self.disconnects.get(reason as usize) {
            counter.fetch_add(1, Relaxed);
        }
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> u64 {
        self.active_connections.load(Relaxed)
    }

    /// Folds one observed writer-queue depth into the peak.
    pub fn observe_writer_depth(&self, depth: u64) {
        self.writer_queue_peak.fetch_max(depth, Relaxed);
    }

    /// Deepest writer queue observed across all connections.
    pub fn writer_queue_peak(&self) -> u64 {
        self.writer_queue_peak.load(Relaxed)
    }

    /// Records one engine step: wall time, batch decoded, and the queue
    /// depth observed just before the step.
    pub fn record_step(&self, us: u64, batch: usize, queue_depth: usize) {
        self.step_latency.record(us);
        self.queue_depth.record(queue_depth as u64);
        self.decoded_tokens.fetch_add(batch as u64, Relaxed);
    }

    /// Counts an admitted request.
    pub fn record_admitted(&self) {
        self.admitted.fetch_add(1, Relaxed);
    }

    /// Counts a typed rejection (including cancellations).
    pub fn record_rejection(&self, reason: &RejectReason) {
        // `slot()` indexes `CODES`, which sizes the array, so the lookup
        // cannot miss.
        if let Some(counter) = self.rejected.get(reason.slot()) {
            counter.fetch_add(1, Relaxed);
        }
    }

    /// Adds decoded tokens to a tenant's account.
    pub fn add_tenant_tokens(&self, tenant: u64, tokens: u64) {
        if tokens == 0 {
            return;
        }
        let mut map = super::lock_recover(&self.tenants);
        match map.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, n)) => *n += tokens,
            None => map.push((tenant, tokens)),
        }
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime_s = self.started.elapsed().as_secs_f64().max(1e-9);
        let decoded = self.decoded_tokens.load(Relaxed);
        let mut tenants: Vec<TenantRate> = {
            let map = super::lock_recover(&self.tenants);
            map.iter()
                .map(|&(tenant, tokens)| TenantRate {
                    tenant,
                    tokens,
                    tokens_per_s: tokens as f64 / uptime_s,
                })
                .collect()
        };
        tenants.sort_by_key(|t| t.tenant);
        MetricsSnapshot {
            uptime_s,
            steps: self.step_latency.count(),
            decoded_tokens: decoded,
            tokens_per_s: decoded as f64 / uptime_s,
            step_latency_p50_us: self.step_latency.quantile(0.50),
            step_latency_p99_us: self.step_latency.quantile(0.99),
            step_latency_mean_us: self.step_latency.mean(),
            step_latency_max_us: self.step_latency.max(),
            queue_depth_p50: self.queue_depth.quantile(0.50),
            queue_depth_max: self.queue_depth.max(),
            admitted: self.admitted.load(Relaxed),
            rejected: RejectReason::CODES
                .iter()
                .zip(self.rejected.iter())
                .map(|(code, c)| (*code, c.load(Relaxed)))
                .collect(),
            active_connections: self.active_connections.load(Relaxed),
            connections_total: self.connections_total.load(Relaxed),
            disconnects: DisconnectReason::ALL
                .iter()
                .zip(self.disconnects.iter())
                .map(|(r, c)| (r.code(), c.load(Relaxed)))
                .collect(),
            writer_queue_peak: self.writer_queue_peak.load(Relaxed),
            restarts: self.restarts.load(Relaxed),
            quarantined: self.quarantined.load(Relaxed),
            watchdog_sheds: self.watchdog_sheds.load(Relaxed),
            breaker_trips: self.breaker_trips.load(Relaxed),
            tenants,
        }
    }
}

/// One tenant's decode account in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRate {
    /// The tenant tag.
    pub tenant: u64,
    /// Tokens decoded for this tenant.
    pub tokens: u64,
    /// Tokens/s over the metrics' uptime (includes idle time).
    pub tokens_per_s: f64,
}

/// A point-in-time copy of the driver metrics, JSON-able in the
/// `BENCH_serving.json` flat style.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Seconds since the metrics were created.
    pub uptime_s: f64,
    /// Engine steps recorded.
    pub steps: u64,
    /// Tokens decoded across all tenants.
    pub decoded_tokens: u64,
    /// Aggregate tokens/s over uptime (includes idle time).
    pub tokens_per_s: f64,
    /// Median step wall time (bucketed upper bound), µs.
    pub step_latency_p50_us: u64,
    /// 99th-percentile step wall time (bucketed upper bound), µs.
    pub step_latency_p99_us: u64,
    /// Mean step wall time, µs.
    pub step_latency_mean_us: f64,
    /// Worst step wall time, µs.
    pub step_latency_max_us: u64,
    /// Median queue depth sampled before each step.
    pub queue_depth_p50: u64,
    /// Worst queue depth sampled.
    pub queue_depth_max: u64,
    /// Requests admitted by the front end.
    pub admitted: u64,
    /// Per-reason rejection counts, `(wire code, count)`.
    pub rejected: Vec<(&'static str, u64)>,
    /// Connections currently open.
    pub active_connections: u64,
    /// Connections ever accepted into service.
    pub connections_total: u64,
    /// Per-reason disconnect counts, `(code, count)`.
    pub disconnects: Vec<(&'static str, u64)>,
    /// Deepest writer queue observed across all connections.
    pub writer_queue_peak: u64,
    /// Supervised driver restarts.
    pub restarts: u64,
    /// Requests quarantined by the fault-containment layer.
    pub quarantined: u64,
    /// Running groups shed by the step watchdog.
    pub watchdog_sheds: u64,
    /// Breaker trips (temporary `max_batch` halvings).
    pub breaker_trips: u64,
    /// Per-tenant decode accounts, sorted by tenant.
    pub tenants: Vec<TenantRate>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as one flat JSON object (the
    /// `BENCH_serving.json` style: scalar fields at the top level,
    /// `rejected_<reason>` counters inlined, tenants as an array of small
    /// objects).
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        let push_num = |o: &mut String, k: &str, v: f64, first: bool| {
            if !first {
                o.push(',');
            }
            json::push_escaped(k, o);
            o.push(':');
            json::push_f64(v, o);
        };
        push_num(&mut o, "uptime_s", round3(self.uptime_s), true);
        push_num(&mut o, "steps", self.steps as f64, false);
        push_num(&mut o, "decoded_tokens", self.decoded_tokens as f64, false);
        push_num(&mut o, "tokens_per_s", round3(self.tokens_per_s), false);
        push_num(
            &mut o,
            "step_latency_p50_us",
            self.step_latency_p50_us as f64,
            false,
        );
        push_num(
            &mut o,
            "step_latency_p99_us",
            self.step_latency_p99_us as f64,
            false,
        );
        push_num(
            &mut o,
            "step_latency_mean_us",
            round3(self.step_latency_mean_us),
            false,
        );
        push_num(
            &mut o,
            "step_latency_max_us",
            self.step_latency_max_us as f64,
            false,
        );
        push_num(
            &mut o,
            "queue_depth_p50",
            self.queue_depth_p50 as f64,
            false,
        );
        push_num(
            &mut o,
            "queue_depth_max",
            self.queue_depth_max as f64,
            false,
        );
        push_num(&mut o, "admitted", self.admitted as f64, false);
        for (code, n) in &self.rejected {
            push_num(&mut o, &format!("rejected_{code}"), *n as f64, false);
        }
        push_num(
            &mut o,
            "active_connections",
            self.active_connections as f64,
            false,
        );
        push_num(
            &mut o,
            "connections_total",
            self.connections_total as f64,
            false,
        );
        for (code, n) in &self.disconnects {
            push_num(&mut o, &format!("disconnects_{code}"), *n as f64, false);
        }
        push_num(
            &mut o,
            "writer_queue_peak",
            self.writer_queue_peak as f64,
            false,
        );
        push_num(&mut o, "restarts", self.restarts as f64, false);
        push_num(&mut o, "quarantined", self.quarantined as f64, false);
        push_num(&mut o, "watchdog_sheds", self.watchdog_sheds as f64, false);
        push_num(&mut o, "breaker_trips", self.breaker_trips as f64, false);
        o.push_str(",\"tenants\":[");
        for (i, t) in self.tenants.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "{{\"tenant\":{},\"tokens\":{},\"tokens_per_s\":{}}}",
                t.tenant,
                t.tokens,
                round3(t.tokens_per_s)
            ));
        }
        o.push_str("]}");
        o
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucketed_upper_bounds() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.max(), 5000);
        // p50 falls in the 100s bucket (65, 128] -> bound 128.
        assert_eq!(h.quantile(0.5), 128);
        // p99 -> the 5000 sample's bucket (4096, 8192].
        assert_eq!(h.quantile(0.99), 8192);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), 0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exact_percentile_matches_order_statistics() {
        let s: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn connection_counters_track_opens_closes_and_queue_peak() {
        let m = Metrics::new();
        m.connection_opened();
        m.connection_opened();
        m.observe_writer_depth(3);
        m.observe_writer_depth(17);
        m.observe_writer_depth(5);
        m.connection_closed(DisconnectReason::SlowReader);
        assert_eq!(m.active_connections(), 1);
        assert_eq!(m.writer_queue_peak(), 17);
        let snap = m.snapshot();
        assert_eq!(snap.active_connections, 1);
        assert_eq!(snap.connections_total, 2);
        assert_eq!(snap.writer_queue_peak, 17);
        assert_eq!(
            snap.disconnects.iter().find(|(c, _)| *c == "slow_reader"),
            Some(&("slow_reader", 1))
        );
        let j = crate::net::json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(
            j.get("disconnects_slow_reader").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            j.get("active_connections").and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            j.get("writer_queue_peak").and_then(|v| v.as_u64()),
            Some(17)
        );
    }

    #[test]
    fn rate_limited_and_draining_rejections_have_counters() {
        let m = Metrics::new();
        m.record_rejection(&RejectReason::RateLimited { retry_after_ms: 5 });
        m.record_rejection(&RejectReason::Draining { retry_after_ms: 9 });
        let snap = m.snapshot();
        assert_eq!(
            snap.rejected.iter().find(|(c, _)| *c == "rate_limited"),
            Some(&("rate_limited", 1))
        );
        assert_eq!(
            snap.rejected.iter().find(|(c, _)| *c == "draining"),
            Some(&("draining", 1))
        );
    }

    #[test]
    fn snapshot_json_is_parseable_and_flat() {
        let m = Metrics::new();
        m.record_step(250, 8, 3);
        m.record_step(300, 8, 2);
        m.record_admitted();
        m.record_rejection(&RejectReason::Deadline { retry_after_ms: 7 });
        m.add_tenant_tokens(3, 16);
        let snap = m.snapshot();
        let j = crate::net::json::parse(&snap.to_json()).expect("valid JSON");
        assert_eq!(
            j.get("decoded_tokens").and_then(|v| v.as_u64()),
            Some(16),
            "{j:?}"
        );
        assert_eq!(j.get("rejected_deadline").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(j.get("admitted").and_then(|v| v.as_u64()), Some(1));
        assert!(j.get("step_latency_p99_us").is_some());
        let tenants = j.get("tenants").expect("tenants array");
        match tenants {
            crate::net::json::Json::Arr(a) => {
                assert_eq!(a.len(), 1);
                assert_eq!(a[0].get("tokens").and_then(|v| v.as_u64()), Some(16));
            }
            other => panic!("tenants not an array: {other:?}"),
        }
    }
}
