//! The middle rung of the depth ladder: the same closed-loop traffic sent
//! through an in-process [`vq_llm::Client`] with `submit_streaming` sinks
//! — the driver thread, admission and fair queue, but no protocol and no
//! socket.
//!
//! The sink runs on the driver thread and only forwards each event over a
//! channel; the load-generator thread stamps it on receipt, so "visible to
//! the caller" means the same here as over TCP.

use crate::gen::Request;
use crate::load::{Outcome, PhaseResult, ReqRecord, Slots};
use crate::trace::Clock;
use std::sync::mpsc;
use std::time::Duration;
use vq_llm::{Client, ContextHandle, DecodeRequest, NetRequest, StreamEvent};

enum Ev {
    Accepted,
    Token(usize),
    Done(usize),
    Rejected,
}

/// Keeps `slots` requests in flight for `warmup_ns + measure_ns`, cycling
/// through `reqs`, and returns what happened.
pub fn run(
    client: &Client,
    handles: &[ContextHandle],
    reqs: &[Request],
    slots: usize,
    warmup_ns: u64,
    measure_ns: u64,
    clock: Clock,
) -> PhaseResult {
    let begin = clock.now_ns();
    let (warm_end, end) = (begin + warmup_ns, begin + warmup_ns + measure_ns);
    let (tx, rx) = mpsc::channel::<(usize, Ev)>();
    let mut out = PhaseResult {
        window: (warm_end, end),
        ..PhaseResult::default()
    };
    let mut next = 0usize;
    let mut inflight = 0usize;
    let send = |out: &mut PhaseResult, next: &mut usize, ready: u64| {
        let r = &reqs[*next % reqs.len()];
        *next += 1;
        let pos = out.records.len();
        let net = NetRequest::new(
            handles[r.ctx],
            DecodeRequest::new(r.tenant, r.query.clone(), r.context_len, r.gen_tokens),
        )
        .priority(r.priority);
        let tx = tx.clone();
        let t0 = clock.now_ns();
        client.submit_streaming(
            net,
            Box::new(move |ev| {
                let ev = match ev {
                    StreamEvent::Accepted { .. } => Ev::Accepted,
                    StreamEvent::Token { index, .. } => Ev::Token(index),
                    StreamEvent::Done { tokens, .. } => Ev::Done(tokens),
                    StreamEvent::Rejected { .. } => Ev::Rejected,
                };
                let _ = tx.send((pos, ev));
            }),
        );
        // Timed from when the request arrived (think time over).
        let mut rec = ReqRecord::new(r, ready, t0);
        rec.stream = true;
        out.records.push(rec);
    };
    let mut slots = Slots::new(slots, begin);
    loop {
        let now = clock.now_ns();
        let soonest = if now < end {
            loop {
                match slots.take(now, reqs[next % reqs.len()].think_ns) {
                    Ok(ready) => send(&mut out, &mut next, ready),
                    Err(wait) => break wait,
                }
                inflight += 1;
            }
        } else {
            None
        };
        if inflight == 0 && soonest.is_none() {
            break;
        }
        let wait = match soonest {
            Some(t) => Duration::from_nanos(t.saturating_sub(now)),
            None => Duration::from_secs_f64(crate::spec::DRAIN_TIMEOUT_S),
        };
        let (pos, ev) = match rx.recv_timeout(wait) {
            Ok(m) => m,
            Err(mpsc::RecvTimeoutError::Timeout) if soonest.is_some() => continue,
            Err(_) => break, // the rest stay TimedOut
        };
        let now = clock.now_ns();
        let rec = &mut out.records[pos];
        let finished = match ev {
            Ev::Accepted => {
                rec.accepted_ns = now;
                false
            }
            Ev::Token(index) => {
                if index != rec.token_ns.len() {
                    rec.outcome = Outcome::FrameOrder;
                }
                rec.token_ns.push(now);
                false
            }
            Ev::Done(tokens) => {
                rec.done_ns = now;
                if rec.outcome == Outcome::TimedOut {
                    let ok = tokens == rec.gen_tokens && rec.token_ns.len() == rec.gen_tokens;
                    rec.outcome = if ok { Outcome::Ok } else { Outcome::WrongCount };
                }
                true
            }
            Ev::Rejected => {
                rec.done_ns = now;
                rec.outcome = Outcome::Rejected;
                true
            }
        };
        if finished {
            inflight -= 1;
            slots.free(now);
        }
    }
    out
}
