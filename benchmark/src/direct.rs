//! The engine-direct load generator: one thread calling
//! `Engine::{try_submit, step, take_output}`.
//!
//! It drives all three arrival patterns, because the TCP workloads run
//! their traffic through this rung too in a traced run (the bottom of the
//! depth ladder, and the only place `Engine::step` can be timed from
//! outside). A token row counts as visible to the caller when the step
//! that decoded it returns.

use crate::gen::Request;
use crate::load::{Outcome, PhaseResult, Plan, ReqRecord, Slots, StepRec};
use crate::spec::Arrival;
use crate::trace::Clock;
use std::collections::HashMap;
use std::time::Duration;
use vq_llm::{ContextHandle, DecodeRequest, Engine, RequestHandle};

struct Runner<'a> {
    engine: &'a mut Engine,
    handles: &'a [ContextHandle],
    plan: Plan<'a>,
    clock: Clock,
    out: PhaseResult,
    /// Engine request id → (handle, record position).
    live: HashMap<u64, (RequestHandle, usize)>,
    /// Engine ids holding a slot, in slot order (admission order with
    /// finished requests removed — the order `MultiServer` keeps).
    running: Vec<u64>,
    /// Span the current submits/steps hang under (traced rounds).
    parent: u32,
    /// Requests finished so far, however they ended.
    finished: usize,
}

impl Runner<'_> {
    fn submit(&mut self, r: &Request, start_ns: Option<u64>) {
        let req = DecodeRequest::new(r.tenant, r.query.clone(), r.context_len, r.gen_tokens);
        let t0 = self.clock.now_ns();
        let res = self.engine.try_submit(self.handles[r.ctx], req);
        let t1 = self.clock.now_ns();
        self.out.submit_ns.push(t1 - t0);
        let mut rec = ReqRecord::new(r, start_ns.unwrap_or(t0), t0);
        // Engine-direct callers see every row, streamed or not.
        rec.stream = true;
        let pos = self.out.records.len();
        if self.plan.trace {
            self.out
                .trace
                .push("submit", t0, t1, self.parent, r.idx as u32 + 1);
        }
        match res {
            Ok(h) => {
                self.live.insert(h.id(), (h, pos));
            }
            Err(_) => {
                rec.outcome = Outcome::Rejected;
                rec.done_ns = t1;
            }
        }
        self.out.records.push(rec);
    }

    /// One `Engine::step`; returns the records that finished in it.
    fn step(&mut self) -> Vec<usize> {
        let t0 = self.clock.now_ns();
        let report = self.engine.step();
        let t1 = self.clock.now_ns();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                // Unreachable under the admission invariants; every live
                // request is lost with the engine's state.
                eprintln!("engine step failed: {e}");
                for (_, (_, pos)) in self.live.drain() {
                    self.out.records[pos].outcome = Outcome::Errored;
                }
                self.running.clear();
                self.engine.cancel_all();
                return Vec::new();
            }
        };
        if report.batch == 0 {
            return Vec::new();
        }
        self.running.extend(&report.admitted);
        let lanes = if self.plan.trace {
            self.out.trace.push("step", t0, t1, self.parent, 0);
            self.running
                .iter()
                .filter_map(|id| self.live.get(id))
                .map(|&(_, pos)| (pos as u32, self.out.records[pos].token_ns.len() as u32))
                .collect()
        } else {
            Vec::new()
        };
        for id in &self.running {
            if let Some(&(_, pos)) = self.live.get(id) {
                self.out.records[pos].token_ns.push(t1);
            }
        }
        self.out.steps.push(StepRec {
            start_ns: t0,
            end_ns: t1,
            batch: report.batch,
            groups: report.groups,
            admitted: report.admitted.len(),
            finished: report.finished.len(),
            kv_quant_us: report.kv_quant_us,
            lanes,
        });
        for id in &report.quarantined {
            if let Some((_, pos)) = self.live.remove(id) {
                self.out.records[pos].outcome = Outcome::Rejected;
            }
        }
        self.running
            .retain(|id| !report.finished.contains(id) && !report.quarantined.contains(id));
        let mut done = Vec::new();
        for id in &report.finished {
            let Some((h, pos)) = self.live.remove(id) else {
                continue;
            };
            let t2 = self.clock.now_ns();
            let output = self.engine.take_output(&h);
            let t3 = self.clock.now_ns();
            self.out.take_ns.push(t3 - t2);
            let rec = &mut self.out.records[pos];
            if self.plan.trace {
                self.out
                    .trace
                    .push("take_output", t2, t3, self.parent, rec.idx as u32 + 1);
            }
            rec.done_ns = t1;
            match output {
                Some(o)
                    if o.steps.len() == rec.gen_tokens && rec.token_ns.len() == rec.gen_tokens =>
                {
                    rec.outcome = Outcome::Ok;
                    rec.queue_wait_steps = (o.finished_step - o.submitted_step)
                        .saturating_sub(rec.gen_tokens as u64 - 1);
                    rec.kv_bytes = o.kv_bytes;
                    if self.plan.keep.wants(rec.idx) {
                        rec.rows = Some(o.steps);
                    }
                }
                Some(_) => rec.outcome = Outcome::WrongCount,
                None => rec.outcome = Outcome::Errored,
            }
            done.push(pos);
        }
        let before = self.finished;
        self.finished += report.finished.len();
        if (before + 1..=self.finished).contains(&self.plan.rss_after) {
            self.out.rss_mb = crate::report::peak_rss_mb();
        }
        // Between two steps, on the thread and core that ran them.
        self.out.speed.sample_if_due(self.clock);
        done
    }
}

/// Runs one phase of `reqs` against `engine` and returns what happened.
/// Closed loops cycle through `reqs` for as long as the phase lasts; the
/// open loop sends each request once, at its due time after the phase's
/// start.
pub fn run(
    engine: &mut Engine,
    handles: &[ContextHandle],
    reqs: &[Request],
    plan: Plan<'_>,
    clock: Clock,
) -> PhaseResult {
    let begin = clock.now_ns();
    let warm_end = begin + plan.warmup_ns;
    let mut r = Runner {
        engine,
        handles,
        plan,
        clock,
        out: PhaseResult::default(),
        live: HashMap::new(),
        running: Vec::new(),
        parent: 0,
        finished: 0,
    };
    // Closed loops: the warm-up sends from the middle of the list and the
    // window restarts it, so a window always opens on the same requests
    // (the ones the correctness sample is drawn from).
    let mut next = match plan.arrival {
        Arrival::Open => 0,
        _ => reqs.len() / 2,
    };
    let mut window = None;
    let mut open_window = |now: u64, next: &mut usize| {
        if window.is_none() && now >= warm_end {
            window = Some((now, now + plan.measure_ns));
            *next = 0;
        }
        window.is_some_and(|(_, end)| now >= end)
    };
    match plan.arrival {
        Arrival::Rounds(n) => loop {
            // The window opens on a round boundary.
            let t0 = clock.now_ns();
            if open_window(t0, &mut next) {
                break;
            }
            if plan.trace {
                r.parent = r.out.trace.push("round", t0, t0, 0, 0);
            }
            for _ in 0..n {
                r.submit(&reqs[next % reqs.len()], None);
                next += 1;
            }
            while !r.engine.is_idle() {
                r.step();
            }
            if plan.trace {
                r.out.trace.spans[r.parent as usize - 1].end_ns = clock.now_ns();
            }
        },
        Arrival::InFlight(n) => {
            let mut slots = Slots::new(n, begin);
            let mut closed = false;
            loop {
                let now = clock.now_ns();
                closed = closed || open_window(now, &mut next);
                let soonest = if closed {
                    None
                } else {
                    loop {
                        let req = &reqs[next % reqs.len()];
                        match slots.take(now, req.think_ns) {
                            // The request arrived when its think time
                            // ended; this thread could only hand it over
                            // between steps. Its latency runs from the
                            // arrival.
                            Ok(ready) => r.submit(req, Some(ready)),
                            Err(wait) => break wait,
                        }
                        next += 1;
                    }
                };
                if !r.engine.is_idle() {
                    for _ in 0..r.step().len() {
                        slots.free(clock.now_ns());
                    }
                } else if let Some(t) = soonest {
                    std::thread::sleep(Duration::from_nanos(t.saturating_sub(clock.now_ns())));
                } else {
                    break;
                }
            }
        }
        Arrival::Open => loop {
            let now = clock.now_ns();
            while next < reqs.len() && begin + reqs[next].due_ns <= now {
                let due = begin + reqs[next].due_ns;
                r.submit(&reqs[next], Some(due));
                next += 1;
            }
            if !r.engine.is_idle() {
                r.step();
            } else if next < reqs.len() {
                let due = begin + reqs[next].due_ns;
                std::thread::sleep(Duration::from_nanos(due.saturating_sub(clock.now_ns())));
            } else {
                break;
            }
        },
    }
    r.out.window = window.unwrap_or((begin, clock.now_ns()));
    r.out
}
