//! What every load generator records about a request, and how a measured
//! window of those records becomes the end-to-end metrics.

use crate::spec::{Arrival, Workload};
use crate::speed::{Placement, Speed, SpeedLog};
use crate::stats::{self, Figure};
use crate::trace::Trace;

/// Which requests' decoded rows to keep.
#[derive(Debug, Clone, Copy)]
pub enum Keep<'a> {
    /// Those at these (sorted) positions of the generated list.
    Sampled(&'a [usize]),
    /// Every request's (traced phases: the probe phase replays them).
    All,
}

impl Keep<'_> {
    /// Whether the request at list position `idx` is kept.
    pub fn wants(&self, idx: usize) -> bool {
        match self {
            Keep::Sampled(s) => s.binary_search(&idx).is_ok(),
            Keep::All => true,
        }
    }
}

/// One phase of load, through either front.
#[derive(Debug, Clone, Copy)]
pub struct Plan<'a> {
    /// When requests are sent ([`Arrival::Rounds`] is engine-direct only).
    pub arrival: Arrival,
    /// Excluded lead-in, ns. Open loop: 0 (the schedule carries its own
    /// warm-up phase).
    pub warmup_ns: u64,
    /// Closed loops: length of the measured window, ns. Open loop:
    /// ignored, the schedule ends the phase.
    pub measure_ns: u64,
    /// Rows to keep (TCP: parsed back from token frames, or — for
    /// done-only requests — from a `poll` reply).
    pub keep: Keep<'a>,
    /// Whether to record spans and — engine-direct — batch compositions,
    /// or — TCP — sample `ping` / `stats` every 50 ms on the first
    /// connection.
    pub trace: bool,
    /// Where the threads are pinned. Probe readings are taken on the
    /// program's core for the length of the phase: inline between steps
    /// engine-direct, from a sampler thread beside the server over TCP.
    pub placement: Placement,
    /// Read the process's peak resident set when this many requests of the
    /// phase (warm-up included) have finished; 0 = never. Memory that
    /// grows with requests served is only comparable at equal counts, and
    /// a fixed-length window serves more of them on a faster core.
    pub rss_after: usize,
}

/// The request slots of an [`Arrival::InFlight`] closed loop that are
/// empty: when each came free. A slot is refilled once the think time of
/// the request that will take it has passed.
#[derive(Debug)]
pub struct Slots(Vec<u64>);

impl Slots {
    /// `n` slots, all free since `at`.
    pub fn new(n: usize, at: u64) -> Slots {
        Slots(vec![at; n])
    }

    /// A request finished at `at`.
    pub fn free(&mut self, at: u64) {
        self.0.push(at);
    }

    /// Takes a slot whose refill (`freed + think_ns`) has fallen due by
    /// `now` and returns when it did — the instant the next request
    /// arrived. `Err` holds the earliest time one will, if any is free.
    pub fn take(&mut self, now: u64, think_ns: u64) -> Result<u64, Option<u64>> {
        match self.0.iter().position(|&f| f + think_ns <= now) {
            Some(i) => Ok(self.0.swap_remove(i) + think_ns),
            None => Err(self.0.iter().map(|&f| f + think_ns).min()),
        }
    }
}

/// How a request ended, as the load generator saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every token row arrived, in order, and the request was reported
    /// done with the right count.
    Ok,
    /// Refused by admission or the engine (typed rejection).
    Rejected,
    /// The program answered with an error (frame or `Result`).
    Errored,
    /// The connection ended first.
    Eof,
    /// Still unfinished when the drain timeout passed.
    TimedOut,
    /// Done, but with the wrong number of token rows.
    WrongCount,
    /// Frames out of order (token before accepted, index gap, frame after
    /// done).
    FrameOrder,
    /// Output rows differ from the solo decode of the same request.
    Mismatch,
}

/// One request's life, in nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct ReqRecord {
    /// Position in the generated request list.
    pub idx: usize,
    /// Open-loop phase (0 = warm-up, 1..=3 = r1..r3); 0 on closed loops.
    pub phase: usize,
    /// Whether token rows were streamed to the caller.
    pub stream: bool,
    /// Tokens asked for.
    pub gen_tokens: usize,
    /// The instant latencies are taken from: `try_submit` called / submit
    /// line written, or — open loop — the request's due time.
    pub start_ns: u64,
    /// When the request was actually handed over (open loop: how late the
    /// generator ran is `sent_ns − start_ns`).
    pub sent_ns: u64,
    /// TCP: when the `accepted` frame was parsed (0 elsewhere).
    pub accepted_ns: u64,
    /// When each token row became visible to the caller.
    pub token_ns: Vec<u64>,
    /// When the request was known done (0 = never).
    pub done_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
    /// The decoded rows, kept only for requests the run will check or
    /// replay.
    pub rows: Option<Vec<Vec<f32>>>,
    /// Engine-direct: `finished_step − submitted_step − (gen_tokens − 1)`.
    pub queue_wait_steps: u64,
    /// Live KV: final compressed private-KV bytes.
    pub kv_bytes: usize,
}

impl ReqRecord {
    /// A record for a request about to be sent.
    pub fn new(r: &crate::gen::Request, start_ns: u64, sent_ns: u64) -> ReqRecord {
        ReqRecord {
            idx: r.idx,
            phase: r.phase,
            stream: r.stream,
            gen_tokens: r.gen_tokens,
            start_ns,
            sent_ns,
            accepted_ns: 0,
            token_ns: Vec::with_capacity(if r.stream { r.gen_tokens } else { 0 }),
            done_ns: 0,
            outcome: Outcome::TimedOut,
            rows: None,
            queue_wait_steps: 0,
            kv_bytes: 0,
        }
    }
}

/// One engine step as the calling thread saw it.
#[derive(Debug, Clone)]
pub struct StepRec {
    /// `Engine::step` called.
    pub start_ns: u64,
    /// `Engine::step` returned.
    pub end_ns: u64,
    /// `StepReport.batch`.
    pub batch: usize,
    /// `StepReport.groups`.
    pub groups: usize,
    /// `StepReport.admitted.len()`.
    pub admitted: usize,
    /// `StepReport.finished.len()`.
    pub finished: usize,
    /// `StepReport.kv_quant_us`.
    pub kv_quant_us: f64,
    /// Traced runs: the batch composition in slot order, as
    /// `(record position, tokens already decoded)` — what the probe phase
    /// needs to replay the identical kernel calls. Empty when untraced.
    pub lanes: Vec<(u32, u32)>,
}

/// What one phase of load produced.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Every request sent, in send order.
    pub records: Vec<ReqRecord>,
    /// Engine-direct: every non-idle step.
    pub steps: Vec<StepRec>,
    /// Engine-direct: wall time of each `try_submit`, ns.
    pub submit_ns: Vec<u64>,
    /// Engine-direct: wall time of each `take_output`, ns.
    pub take_ns: Vec<u64>,
    /// The measured window `[start, end)`, ns since the run's epoch.
    pub window: (u64, u64),
    /// Spans (traced phases only).
    pub trace: Trace,
    /// Probe readings taken on the program's core during the phase.
    pub speed: SpeedLog,
    /// `VmHWM` in MB when the [`Plan::rss_after`]-th request finished (0
    /// when the phase never got that far).
    pub rss_mb: f64,
}

/// The end-to-end figures of one measured window.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Tokens per second (see `decode_tok_per_s` in the README).
    pub decode_tok_per_s: Figure,
    /// Time to first token, ms.
    pub ttft_p50_ms: Figure,
    /// Time to first token, ms.
    pub ttft_p75_ms: Figure,
    /// Gap between token rows, ms.
    pub itl_p50_ms: Figure,
    /// Gap between token rows, ms.
    pub itl_p75_ms: Figure,
    /// Submit/due to done, ms.
    pub req_p50_ms: Figure,
    /// Submit/due to done, ms.
    pub req_p75_ms: Figure,
    /// Share of requests sent that finished correctly inside both limits.
    pub slo_ok_share: f64,
    /// Requests sent in the window.
    pub attempted: usize,
    /// Of those, not [`Outcome::Ok`].
    pub failed: usize,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The interval `[from, to]` in ms, at the reference speed: multiplied by
/// the factor of the window it ended in.
fn norm_ms(speed: &Speed, from: u64, to: u64) -> f64 {
    ms(to.saturating_sub(from)) * speed.at(to)
}

/// Whether `r` met the workload's frozen latency limits. A request whose
/// rows were not streamed has no first token to time, so it is held to
/// the same envelope end to end: first-token limit plus one gap limit per
/// further token.
pub fn within_slo(w: &Workload, r: &ReqRecord, speed: &Speed) -> bool {
    if r.outcome != Outcome::Ok {
        return false;
    }
    if r.token_ns.is_empty() {
        let envelope = w.ttft_limit_ms + (r.gen_tokens.saturating_sub(1)) as f64 * w.itl_limit_ms;
        return norm_ms(speed, r.start_ns, r.done_ns) <= envelope;
    }
    norm_ms(speed, r.start_ns, r.token_ns[0]) <= w.ttft_limit_ms
        && r.token_ns
            .windows(2)
            .all(|p| norm_ms(speed, p[0], p[1]) <= w.itl_limit_ms)
}

/// The latency samples of a measured window, ms, and its counts.
#[derive(Debug, Default)]
pub struct Samples {
    /// Time to first token of every correct streamed request.
    pub ttft: Vec<f64>,
    /// Every gap between consecutive token rows of those requests.
    pub itl: Vec<f64>,
    /// Submit/due to done of every correct request.
    pub req: Vec<f64>,
    /// `(timestamp, tokens)` of every token delivery, whichever request.
    pub events: Vec<(u64, u64)>,
    /// Requests sent in the window.
    pub attempted: usize,
    /// Of those, not [`Outcome::Ok`].
    pub failed: usize,
    /// Of those, correct and inside both latency limits.
    pub slo_ok: usize,
}

/// Collects the samples of the records `in_window` selects (token events
/// are collected from every record). Every latency is taken at the
/// reference speed ([`Speed::unit`] leaves it as measured).
pub fn samples(
    w: &Workload,
    records: &[ReqRecord],
    in_window: impl Fn(&ReqRecord) -> bool,
    speed: &Speed,
) -> Samples {
    let mut s = Samples::default();
    for r in records {
        if r.token_ns.is_empty() {
            // Done-only delivery: the rows arrive with the done frame.
            if r.outcome == Outcome::Ok {
                s.events.push((r.done_ns, r.gen_tokens as u64));
            }
        } else {
            s.events.extend(r.token_ns.iter().map(|&t| (t, 1)));
        }
        if !in_window(r) {
            continue;
        }
        s.attempted += 1;
        if r.outcome != Outcome::Ok {
            s.failed += 1;
            continue;
        }
        s.slo_ok += usize::from(within_slo(w, r, speed));
        s.req.push(norm_ms(speed, r.start_ns, r.done_ns));
        if let Some(&first) = r.token_ns.first() {
            s.ttft.push(norm_ms(speed, r.start_ns, first));
            s.itl
                .extend(r.token_ns.windows(2).map(|p| norm_ms(speed, p[0], p[1])));
        }
    }
    s
}

/// Summarises the records `in_window` selects. Token throughput counts
/// every token stamped inside `window`, whichever request it belongs to;
/// `subwindows` is 1 for the open loop (tokens over the phase) and
/// [`crate::spec::SUBWINDOWS`] for closed loops. A closed loop's rate is as
/// fast as the core allows, so each sub-window's rate is divided by
/// `rate_speed`'s factor at its middle; the open loop's rate is its offered
/// load whatever the core does, and takes [`Speed::unit`].
pub fn summarise(
    s: &Samples,
    window: (u64, u64),
    subwindows: usize,
    rate_speed: &Speed,
) -> EndToEnd {
    let width = (window.1 - window.0) / subwindows.max(1) as u64;
    let rates: Vec<f64> = stats::subwindow_rates(&s.events, window.0, window.1, subwindows)
        .iter()
        .enumerate()
        .map(|(i, r)| r / rate_speed.at(window.0 + i as u64 * width + width / 2))
        .collect();
    EndToEnd {
        decode_tok_per_s: stats::median(&rates),
        ttft_p50_ms: stats::percentile(&s.ttft, 0.50),
        ttft_p75_ms: stats::percentile(&s.ttft, 0.75),
        itl_p50_ms: stats::percentile(&s.itl, 0.50),
        itl_p75_ms: stats::percentile(&s.itl, 0.75),
        req_p50_ms: stats::percentile(&s.req, 0.50),
        req_p75_ms: stats::percentile(&s.req, 0.75),
        slo_ok_share: s.slo_ok as f64 / s.attempted.max(1) as f64,
        attempted: s.attempted,
        failed: s.failed,
    }
}

/// Each latency's percentile ladder with its sample count, naming the
/// highest percentile the sample supports (at least ten samples beyond
/// it).
pub fn ladders(s: &Samples) -> Vec<String> {
    [("ttft_ms", &s.ttft), ("itl_ms", &s.itl), ("req_ms", &s.req)]
        .into_iter()
        .map(|(name, v)| {
            let row: Vec<String> = [0.50, 0.75, 0.90, 0.95, 0.99]
                .iter()
                .map(|&q| {
                    format!(
                        "p{:<2} {:.3}",
                        (q * 100.0) as u32,
                        stats::percentile(v, q).value
                    )
                })
                .collect();
            let top = stats::top_percentile(v)
                .map_or("none".to_string(), |(q, _)| format!("p{}", q * 100.0));
            format!(
                "{name:<8} n={:<7} {}  (highest supported: {top})",
                v.len(),
                row.join("  ")
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn rec(start: u64, tokens: &[u64], done: u64, outcome: Outcome) -> ReqRecord {
        ReqRecord {
            idx: 0,
            phase: 0,
            stream: !tokens.is_empty(),
            gen_tokens: tokens.len().max(1),
            start_ns: start,
            sent_ns: start,
            accepted_ns: 0,
            token_ns: tokens.to_vec(),
            done_ns: done,
            outcome,
            rows: None,
            queue_wait_steps: 0,
            kv_bytes: 0,
        }
    }

    #[test]
    fn a_slot_refills_once_its_think_time_is_over() {
        let mut slots = Slots::new(2, 100);
        assert_eq!(slots.take(100, 0), Ok(100));
        assert_eq!(slots.take(120, 50), Err(Some(150)), "still thinking");
        assert_eq!(slots.take(160, 50), Ok(150), "arrived when the think ended");
        assert_eq!(slots.take(160, 0), Err(None), "none free");
        slots.free(200);
        assert_eq!(slots.take(205, 5), Ok(205));
    }

    #[test]
    fn latencies_failures_and_slo_share() {
        let w = &WORKLOADS[0];
        let m = 1_000_000; // 1 ms
        let mut recs = vec![
            rec(0, &[2 * m, 3 * m, 5 * m], 5 * m, Outcome::Ok),
            rec(m, &[4 * m, 6 * m], 6 * m, Outcome::Ok),
            // Fails: counts as attempted and as missing the limits.
            rec(2 * m, &[3 * m], 0, Outcome::Eof),
            // Outside the window: its token counts, the request does not.
            rec(0, &[7 * m], 7 * m, Outcome::Ok),
        ];
        recs[3].idx = 99;
        let s = samples(w, &recs, |r| r.idx != 99, &Speed::unit());
        let e = summarise(&s, (0, 10 * m), 1, &Speed::unit());
        assert_eq!((e.attempted, e.failed), (3, 1));
        assert_eq!(e.ttft_p50_ms.value, 2.0);
        assert_eq!(e.ttft_p75_ms, Figure { value: 3.0, n: 2 });
        assert_eq!(e.itl_p50_ms.value, 2.0, "gaps 1, 2, 2 ms");
        assert_eq!(e.req_p75_ms.value, 5.0);
        // 7 tokens stamped in 10 ms, the failed request's row and the
        // outsider's included.
        assert!((e.decode_tok_per_s.value - 700.0).abs() < 1e-6);
        assert!((e.slo_ok_share - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn done_only_requests_are_held_to_the_same_envelope() {
        let w = &WORKLOADS[3];
        let mut r = rec(0, &[], 1_000_000, Outcome::Ok);
        r.gen_tokens = 4;
        assert!(within_slo(w, &r, &Speed::unit()));
        r.done_ns = ((w.ttft_limit_ms + 3.0 * w.itl_limit_ms) * 1e6) as u64 + 1_000_000;
        assert!(!within_slo(w, &r, &Speed::unit()));
        let unit = Speed::unit();
        let e = summarise(
            &samples(w, &[r], |_| true, &unit),
            (0, 1_000_000_000),
            1,
            &unit,
        );
        assert_eq!(e.ttft_p50_ms.n, 0, "nothing streamed, no first token");
        assert_eq!(e.req_p50_ms.n, 1);
    }
}
