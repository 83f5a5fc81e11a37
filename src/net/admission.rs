//! The front-end admission layer: weighted fair queueing plus SLO-aware
//! deadline admission, sitting between the network protocol and the
//! engine's FIFO.
//!
//! The engine queue stays strict FIFO (and nearly empty — the driver only
//! forwards when a decode slot is about to be free), so *this* queue is
//! where multi-tenant policy lives:
//!
//! * ordering comes from [`FairQueue`] — stride-scheduled weighted
//!   fairness within a priority class, strict preemption across classes;
//! * admission is bounded ([`AdmissionConfig::max_pending`]) and
//!   deadline-aware: a request whose projected completion (via
//!   [`SloEstimator`], priced at the measured step latency) misses its
//!   deadline is rejected *now* with a computed
//!   [`retry_after_ms`](AdmitReject::retry_after_ms) rather than admitted
//!   to fail later, and a full queue also reports when to come back
//!   instead of a bare `QueueFull`.
//!
//! Everything is pure data structure — the driver supplies the measured
//! step latency and the engine's in-flight token count — so the policy is
//! deterministic and unit-testable without threads or clocks.

use std::collections::VecDeque;

use vqllm_llm::serve::{FairQueue, SloEstimator};
use vqllm_llm::{ContextHandle, DecodeRequest, RejectReason};

/// Fairness and SLO limits of the network front end.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Largest number of requests waiting in the fair queue; beyond this,
    /// submissions are rejected with a computed retry-after.
    pub max_pending: usize,
    /// Weight for tenants without an explicit entry in
    /// [`AdmissionConfig::weights`].
    pub default_weight: u32,
    /// Explicit per-tenant `(tenant, weight)` scheduling weights: a
    /// weight-2 tenant is granted two decode slots for every one a
    /// weight-1 tenant gets when both are backlogged.
    pub weights: Vec<(u64, u32)>,
    /// Step-latency prior (µs) used for deadline math until the metrics
    /// have measured real steps.
    pub default_step_us: f64,
    /// Optional per-tenant token budgets per sliding window, layered on
    /// top of the fairness weights: weights decide *who goes first* among
    /// admitted work, budgets decide *how much* a tenant may admit at
    /// all.
    pub rate_limit: Option<RateLimitConfig>,
    /// Explicit step-watchdog budget in µs: a step that takes longer has
    /// its running group shed with typed `internal` rejections and trips
    /// the breaker. `None` derives the budget from the measured p99 step
    /// latency ([`AdmissionConfig::watchdog_multiplier`] ×, floored at
    /// [`AdmissionConfig::watchdog_floor_us`]).
    pub step_timeout_us: Option<u64>,
    /// Multiplier over the measured p99 step latency when no explicit
    /// [`AdmissionConfig::step_timeout_us`] is set.
    pub watchdog_multiplier: f64,
    /// Lower bound on the derived watchdog budget, µs — keeps scheduling
    /// jitter on micro-steps from shedding healthy work.
    pub watchdog_floor_us: u64,
    /// Steps the breaker halves the effective `max_batch` for after a
    /// watchdog shed (`0` disables the breaker).
    pub breaker_cooldown_steps: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_pending: 256,
            default_weight: 1,
            weights: Vec::new(),
            default_step_us: 200.0,
            rate_limit: None,
            step_timeout_us: None,
            watchdog_multiplier: 8.0,
            watchdog_floor_us: 50_000,
            breaker_cooldown_steps: 32,
        }
    }
}

/// Per-tenant token budgets over a sliding window.
///
/// A request is charged its `gen_tokens` at admission (cancelling later
/// does not refund the charge — the policy bounds *admitted* work).
/// When a charge would push the tenant's total over its budget inside
/// the window, the request is rejected as
/// [`RejectReason::RateLimited`] with `retry_after_ms` set to when
/// enough of the window will have slid for the same request to fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateLimitConfig {
    /// Sliding-window length in milliseconds.
    pub window_ms: u64,
    /// Token budget per window for tenants without an explicit entry in
    /// [`RateLimitConfig::budgets`] (`u64::MAX` = unlimited).
    pub default_budget: u64,
    /// Explicit per-tenant `(tenant, tokens-per-window)` budgets.
    pub budgets: Vec<(u64, u64)>,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        RateLimitConfig {
            window_ms: 1_000,
            default_budget: u64::MAX,
            budgets: Vec::new(),
        }
    }
}

impl RateLimitConfig {
    /// The budget applying to `tenant`.
    pub fn budget(&self, tenant: u64) -> u64 {
        self.budgets
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(self.default_budget, |&(_, b)| b)
    }
}

/// Hard cap on tracked tenant ledgers. One-shot tenants (charge once,
/// never return) would otherwise leave a `(tenant, charges)` entry behind
/// forever — the per-tenant prune only runs on that tenant's *next*
/// submit. Past the cap, the stalest ledger is evicted.
const MAX_LEDGERS: usize = 4096;

/// The sliding-window charge ledger backing [`RateLimitConfig`]. Pure
/// data structure: the caller supplies a monotonic `now_ms`, so the
/// policy is deterministic and testable without clocks.
///
/// Memory is bounded two ways: every charge globally **sweeps** ledgers
/// whose newest entry has slid fully out of the window (so a burst of
/// one-shot tenants cannot grow the table without bound), and a hard
/// `MAX_LEDGERS` cap evicts the stalest ledger if distinct *active*
/// tenants somehow exceed it.
#[derive(Debug, Default)]
pub struct RateLimiter {
    /// tenant -> charges still inside the window, oldest first.
    ledgers: Vec<(u64, VecDeque<(u64, u64)>)>,
}

impl RateLimiter {
    /// An empty ledger.
    pub fn new() -> RateLimiter {
        RateLimiter::default()
    }

    /// Tenants with a tracked ledger (bounded by `MAX_LEDGERS`).
    pub fn tracked_tenants(&self) -> usize {
        self.ledgers.len()
    }

    /// Drops every ledger whose charges have all slid out of the window
    /// ending at `now_ms`, then enforces [`MAX_LEDGERS`] by evicting the
    /// ledger with the oldest newest-charge. Evicting an *active* ledger
    /// forgets spent budget (fail-open), which is the right failure mode
    /// for an overload guard.
    fn sweep(&mut self, window_ms: u64, now_ms: u64) {
        self.ledgers.retain(|(_, l)| match l.back() {
            Some(&(t, _)) => now_ms.saturating_sub(t) < window_ms,
            None => false,
        });
        while self.ledgers.len() > MAX_LEDGERS {
            self.evict_stalest();
        }
    }

    /// Evicts the ledger whose newest charge is oldest.
    fn evict_stalest(&mut self) {
        if let Some(i) = self
            .ledgers
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, l))| l.back().map_or(0, |&(t, _)| t))
            .map(|(i, _)| i)
        {
            self.ledgers.swap_remove(i);
        }
    }

    /// Charges `tokens` to `tenant` at `now_ms`, or reports how many
    /// milliseconds to wait for the charge to fit the budget.
    ///
    /// A request larger than the whole budget can never fit; it reports
    /// one full window as its (honest, if hopeless) backoff.
    pub fn try_charge(
        &mut self,
        cfg: &RateLimitConfig,
        tenant: u64,
        tokens: u64,
        now_ms: u64,
    ) -> Result<(), u64> {
        let budget = cfg.budget(tenant);
        if tokens > budget {
            return Err(cfg.window_ms.max(1));
        }
        // Global sweep: one-shot tenants are pruned by *any* tenant's
        // charge, not only their own next submit.
        self.sweep(cfg.window_ms, now_ms);
        // Hold the cap across the insert a previously-unseen tenant is
        // about to make.
        if self.ledgers.len() >= MAX_LEDGERS && !self.ledgers.iter().any(|(t, _)| *t == tenant) {
            self.evict_stalest();
        }
        if !self.ledgers.iter().any(|(t, _)| *t == tenant) {
            self.ledgers.push((tenant, VecDeque::new()));
        }
        let Some((_, ledger)) = self.ledgers.iter_mut().find(|(t, _)| *t == tenant) else {
            // Unreachable (the tenant was inserted just above); admit
            // rather than panic if it ever isn't.
            return Ok(());
        };
        // Slide the window: drop charges older than window_ms.
        while let Some(&(t, _)) = ledger.front() {
            if now_ms.saturating_sub(t) >= cfg.window_ms {
                ledger.pop_front();
            } else {
                break;
            }
        }
        let spent: u64 = ledger.iter().map(|&(_, n)| n).sum();
        if spent + tokens > budget {
            // Walk the ledger oldest-first until enough has expired for
            // the new charge to fit; the retry is when that happens.
            let mut freed = 0u64;
            for &(t, n) in ledger.iter() {
                freed += n;
                if spent - freed + tokens <= budget {
                    let expires = t + cfg.window_ms;
                    return Err(expires.saturating_sub(now_ms).max(1));
                }
            }
            return Err(cfg.window_ms.max(1));
        }
        ledger.push_back((now_ms, tokens));
        Ok(())
    }

    /// Tokens currently charged to `tenant` inside the window ending at
    /// `now_ms`.
    pub fn spent(&self, tenant: u64, window_ms: u64, now_ms: u64) -> u64 {
        self.ledgers
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(0, |(_, l)| {
                l.iter()
                    .filter(|&&(t, _)| now_ms.saturating_sub(t) < window_ms)
                    .map(|&(_, n)| n)
                    .sum()
            })
    }
}

/// One request as the network front end carries it: the engine-facing
/// decode request plus the scheduling envelope (context, priority class,
/// optional deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct NetRequest {
    /// The registered context to decode against.
    pub ctx: ContextHandle,
    /// The decode work itself (tenant tag, query row, positions).
    pub req: DecodeRequest,
    /// Priority class (higher is served strictly first); fairness applies
    /// within a class.
    pub priority: u8,
    /// Optional completion deadline in milliseconds from submission; when
    /// set, admission projects completion time and rejects unmeetable
    /// requests immediately.
    pub deadline_ms: Option<u64>,
}

impl NetRequest {
    /// A request with default priority and no deadline.
    pub fn new(ctx: ContextHandle, req: DecodeRequest) -> NetRequest {
        NetRequest {
            ctx,
            req,
            priority: 0,
            deadline_ms: None,
        }
    }

    /// Sets the priority class.
    pub fn priority(mut self, priority: u8) -> NetRequest {
        self.priority = priority;
        self
    }

    /// Sets a completion deadline (milliseconds from submission).
    pub fn deadline_ms(mut self, ms: u64) -> NetRequest {
        self.deadline_ms = Some(ms);
        self
    }
}

/// A typed front-end rejection: the reason plus a backoff the caller can
/// act on (always at least 1 ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitReject {
    /// The typed reason (also what `poll` reports for the handle).
    pub reason: RejectReason,
    /// Computed backoff after which a retry could succeed.
    pub retry_after_ms: u64,
}

/// A request waiting in the fair queue, tagged with its driver ticket id.
#[derive(Debug)]
pub struct Pending {
    /// The driver's ticket id (what `cancel` and completion resolve).
    pub id: u64,
    /// The queued request.
    pub net: NetRequest,
}

/// The admission state machine: a bounded [`FairQueue`] of [`Pending`]
/// requests with an exact count of queued-but-not-forwarded tokens (the
/// SLO estimator's backlog input).
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    queue: FairQueue<Pending>,
    /// Sum of `gen_tokens` across the queue (kept exact by push/pop/
    /// cancel).
    pending_tokens: u64,
    /// Decode slots per engine step, for the drain model.
    max_batch: usize,
    /// Sliding-window charge ledger (empty when rate limits are off).
    limiter: RateLimiter,
}

impl Admission {
    /// An empty admission queue for an engine of `max_batch` decode slots.
    pub fn new(cfg: AdmissionConfig, max_batch: usize) -> Admission {
        let mut queue = FairQueue::new(cfg.default_weight);
        for &(tenant, weight) in &cfg.weights {
            queue.set_weight(tenant, weight);
        }
        Admission {
            cfg,
            queue,
            pending_tokens: 0,
            max_batch: max_batch.max(1),
            limiter: RateLimiter::new(),
        }
    }

    /// The configured limits.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Requests waiting in the fair queue.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the fair queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Tokens of queued (not yet forwarded) work.
    pub fn pending_tokens(&self) -> u64 {
        self.pending_tokens
    }

    /// The estimator currently pricing admission: the measured step
    /// latency when available, the configured prior before that.
    pub fn estimator(&self, measured_step_us: Option<f64>) -> SloEstimator {
        SloEstimator::new(
            measured_step_us.unwrap_or(self.cfg.default_step_us),
            self.max_batch,
        )
    }

    /// Admits `net` (tagged with driver ticket `id`) into the fair queue,
    /// or rejects it with a typed reason and a computed retry-after.
    ///
    /// `engine_tokens` is the engine-side backlog (tokens still owed by
    /// running + forwarded requests); `measured_step_us` is the metrics'
    /// current mean step latency, if any steps have run; `now_ms` is a
    /// monotonic millisecond clock (the driver's uptime) that positions
    /// the rate-limit window.
    pub fn admit(
        &mut self,
        id: u64,
        net: NetRequest,
        engine_tokens: u64,
        measured_step_us: Option<f64>,
        now_ms: u64,
    ) -> Result<(), AdmitReject> {
        let est = self.estimator(measured_step_us);
        let tokens_ahead = self.pending_tokens + engine_tokens;
        if self.queue.len() >= self.cfg.max_pending {
            // Full queue: come back once one average queued request's
            // worth of backlog has drained.
            let avg = self.pending_tokens / self.queue.len().max(1) as u64;
            let retry = (est.queue_drain_ms(avg.max(1)).ceil() as u64).max(1);
            return Err(AdmitReject {
                reason: RejectReason::QueueFull {
                    max_queue: self.cfg.max_pending,
                },
                retry_after_ms: retry,
            });
        }
        if let Some(deadline_ms) = net.deadline_ms {
            if let Err(retry_after_ms) = est.admit(tokens_ahead, net.req.gen_tokens, deadline_ms) {
                return Err(AdmitReject {
                    reason: RejectReason::Deadline { retry_after_ms },
                    retry_after_ms,
                });
            }
        }
        // The budget check runs last so only otherwise-admittable
        // requests spend window budget.
        if let Some(rl) = &self.cfg.rate_limit {
            if let Err(retry_after_ms) =
                self.limiter
                    .try_charge(rl, net.req.tenant, net.req.gen_tokens as u64, now_ms)
            {
                return Err(AdmitReject {
                    reason: RejectReason::RateLimited { retry_after_ms },
                    retry_after_ms,
                });
            }
        }
        self.pending_tokens += net.req.gen_tokens as u64;
        let (tenant, priority) = (net.req.tenant, net.priority);
        self.queue.push(tenant, priority, Pending { id, net });
        Ok(())
    }

    /// Dequeues the next request in fair-scheduling order.
    pub fn pop(&mut self) -> Option<Pending> {
        let p = self.queue.pop()?;
        self.pending_tokens -= p.net.req.gen_tokens as u64;
        Some(p)
    }

    /// Removes a queued request by ticket id (the cancellation path).
    pub fn cancel(&mut self, id: u64) -> Option<Pending> {
        let p = self.queue.remove_where(|p| p.id == id)?;
        self.pending_tokens -= p.net.req.gen_tokens as u64;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqllm_llm::DecodeRequest;

    fn req(tenant: u64, gen_tokens: usize) -> NetRequest {
        NetRequest::new(
            ContextHandle::detached(0),
            DecodeRequest::new(tenant, vec![0.0; 8], 4, gen_tokens),
        )
    }

    #[test]
    fn admits_in_weighted_fair_order() {
        let cfg = AdmissionConfig {
            weights: vec![(1, 2)],
            ..AdmissionConfig::default()
        };
        let mut adm = Admission::new(cfg, 8);
        for i in 0..6 {
            adm.admit(i, req(1, 4), 0, None, 0).expect("admit");
            adm.admit(100 + i, req(2, 4), 0, None, 0).expect("admit");
        }
        assert_eq!(adm.pending_tokens(), 48);
        let order: Vec<u64> = (0..9)
            .map(|_| adm.pop().expect("queued").net.req.tenant)
            .collect();
        let ones = order.iter().filter(|&&t| t == 1).count();
        assert_eq!(ones, 6, "weight-2 tenant takes 6 of the first 9 grants");
    }

    #[test]
    fn impossible_deadline_rejects_with_retry_after() {
        let mut adm = Admission::new(AdmissionConfig::default(), 8);
        // 200 µs prior × 32 steps = 6.4 ms > 0 ms deadline.
        let err = adm
            .admit(1, req(1, 32).deadline_ms(0), 0, None, 0)
            .expect_err("unmeetable");
        assert!(matches!(err.reason, RejectReason::Deadline { .. }));
        assert!(err.retry_after_ms >= 1);
        assert!(adm.is_empty(), "rejected requests never enter the queue");
        // The same request with a generous deadline admits.
        adm.admit(2, req(1, 32).deadline_ms(10_000), 0, None, 0)
            .expect("meetable");
    }

    #[test]
    fn full_queue_rejects_with_computed_backoff() {
        let cfg = AdmissionConfig {
            max_pending: 2,
            ..AdmissionConfig::default()
        };
        let mut adm = Admission::new(cfg, 8);
        adm.admit(1, req(1, 16), 0, None, 0).expect("admit");
        adm.admit(2, req(1, 16), 0, None, 0).expect("admit");
        let err = adm.admit(3, req(1, 16), 0, None, 0).expect_err("full");
        assert!(matches!(
            err.reason,
            RejectReason::QueueFull { max_queue: 2 }
        ));
        assert!(err.retry_after_ms >= 1);
    }

    #[test]
    fn cancel_removes_exactly_one_and_rebalances_tokens() {
        let mut adm = Admission::new(AdmissionConfig::default(), 8);
        adm.admit(1, req(1, 10), 0, None, 0).expect("admit");
        adm.admit(2, req(1, 20), 0, None, 0).expect("admit");
        assert_eq!(adm.pending_tokens(), 30);
        let cancelled = adm.cancel(1).expect("queued");
        assert_eq!(cancelled.id, 1);
        assert_eq!(adm.pending_tokens(), 20);
        assert!(adm.cancel(1).is_none(), "already removed");
        assert_eq!(adm.pop().expect("remaining").id, 2);
    }

    #[test]
    fn rate_limit_charges_slide_out_of_the_window() {
        let cfg = RateLimitConfig {
            window_ms: 100,
            default_budget: 10,
            budgets: vec![(7, 4)],
        };
        let mut rl = RateLimiter::new();
        // Tenant 7's explicit budget is 4 tokens / 100 ms.
        rl.try_charge(&cfg, 7, 3, 0).expect("3 of 4 fits");
        assert_eq!(rl.spent(7, 100, 0), 3);
        let retry = rl.try_charge(&cfg, 7, 2, 10).expect_err("3+2 > 4");
        // The charge at t=0 expires at t=100, so from t=10 wait 90 ms.
        assert_eq!(retry, 90);
        rl.try_charge(&cfg, 7, 1, 10).expect("3+1 fits exactly");
        // At t=100 the first charge has slid out: 1 remains, 3 fits.
        rl.try_charge(&cfg, 7, 3, 100).expect("window slid");
        assert_eq!(rl.spent(7, 100, 100), 4);
        // Other tenants use the default budget, independently.
        rl.try_charge(&cfg, 8, 10, 100).expect("default budget");
        // A request larger than the whole budget reports a full window.
        assert_eq!(rl.try_charge(&cfg, 7, 5, 200), Err(100));
    }

    #[test]
    fn one_shot_tenant_burst_does_not_grow_the_ledger_unboundedly() {
        let cfg = RateLimitConfig {
            window_ms: 100,
            default_budget: 10,
            budgets: Vec::new(),
        };
        let mut rl = RateLimiter::new();
        // 50 000 one-shot tenants, each charging once and never
        // returning, spread over time so every earlier charge has slid
        // fully out of the window by the time a later tenant arrives.
        for i in 0..50_000u64 {
            let now = i * 200; // 2 windows apart
            rl.try_charge(&cfg, i, 1, now).expect("within budget");
            assert!(
                rl.tracked_tenants() <= 2,
                "expired one-shot ledgers must be swept, got {} at tenant {i}",
                rl.tracked_tenants()
            );
        }
        // Even same-instant bursts (nothing expired yet) stay capped.
        let mut rl = RateLimiter::new();
        for i in 0..(super::MAX_LEDGERS as u64 + 500) {
            rl.try_charge(&cfg, 1_000_000 + i, 1, 10_000_000)
                .expect("ok");
        }
        assert!(
            rl.tracked_tenants() <= super::MAX_LEDGERS,
            "hard cap must bound same-window tenant bursts, got {}",
            rl.tracked_tenants()
        );
        // An active tenant's in-window charges survive the sweep.
        let mut rl = RateLimiter::new();
        rl.try_charge(&cfg, 7, 9, 0).expect("admit");
        rl.try_charge(&cfg, 8, 1, 50)
            .expect("sweeps tenant nothing");
        assert_eq!(rl.spent(7, 100, 50), 9, "in-window charges survive");
        rl.try_charge(&cfg, 7, 2, 60)
            .expect_err("budget still counted");
    }

    #[test]
    fn rate_limited_tenant_rejects_typed_while_others_admit() {
        let cfg = AdmissionConfig {
            rate_limit: Some(RateLimitConfig {
                window_ms: 60_000,
                default_budget: u64::MAX,
                budgets: vec![(1, 8)],
            }),
            ..AdmissionConfig::default()
        };
        let mut adm = Admission::new(cfg, 8);
        adm.admit(1, req(1, 8), 0, None, 0).expect("budget fits");
        let err = adm
            .admit(2, req(1, 1), 0, None, 5)
            .expect_err("over budget");
        match err.reason {
            RejectReason::RateLimited { retry_after_ms } => {
                assert_eq!(retry_after_ms, err.retry_after_ms);
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected RateLimited, got {other:?}"),
        }
        // The unlimited tenant is unaffected.
        adm.admit(3, req(2, 64), 0, None, 5)
            .expect("unlimited tenant");
        assert_eq!(adm.len(), 2);
    }

    #[test]
    fn rejected_charges_do_not_spend_budget() {
        let cfg = AdmissionConfig {
            max_pending: 1,
            rate_limit: Some(RateLimitConfig {
                window_ms: 60_000,
                default_budget: 8,
                budgets: Vec::new(),
            }),
            ..AdmissionConfig::default()
        };
        let mut adm = Admission::new(cfg, 8);
        adm.admit(1, req(1, 8), 0, None, 0).expect("admit");
        // Queue-full rejection happens before the budget check, so the
        // failed admit must not charge the window.
        let err = adm.admit(2, req(2, 8), 0, None, 0).expect_err("full");
        assert!(matches!(err.reason, RejectReason::QueueFull { .. }));
        adm.pop().expect("drain");
        adm.admit(3, req(2, 8), 0, None, 0)
            .expect("tenant 2 budget untouched by the queue-full rejection");
    }

    #[test]
    fn engine_backlog_tightens_the_deadline_check() {
        let mut adm = Admission::new(AdmissionConfig::default(), 1);
        // 1 token/step at 1000 µs/step: 10 engine tokens ahead = 10 ms.
        let measured = Some(1000.0);
        adm.admit(1, req(1, 5).deadline_ms(20), 10, measured, 0)
            .expect("15 ms projected fits 20 ms");
        let err = adm
            .admit(2, req(1, 5).deadline_ms(12), 15, measured, 0)
            .expect_err("25 ms projected misses 12 ms");
        assert!(matches!(err.reason, RejectReason::Deadline { .. }));
    }
}
