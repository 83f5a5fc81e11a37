//! The seeded traffic generator.
//!
//! Everything the program under test receives is made here from
//! `(workload, seed)` before the first request is sent: the full request
//! list and, for the open loop, the arrival schedule. The same seed gives
//! byte-identical traffic ([`encode`] is what the tests compare); no
//! workload name or seed ever reaches the engine or the wire — a request
//! carries a context index, a tenant tag, a query row and its lengths.
//!
//! The generator is a splitmix64 of its own rather than the vendored
//! `rand` stand-in: the traffic is part of the benchmark's definition and
//! must not move when that stand-in does.

use crate::spec::{Arrival, Gen, Workload};
use vq_llm::net::proto;

/// splitmix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated by `stream` so one benchmark
    /// seed yields independent streams for tensors, requests and samples.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform over the inclusive range.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo) as u64 + 1) as usize
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Position in the generated list.
    pub idx: usize,
    /// Protocol context index.
    pub ctx: usize,
    /// Tenant tag (1-based).
    pub tenant: u64,
    /// Query row, `head_dim` wide.
    pub query: Vec<f32>,
    /// Shared-context tokens attended at the first step.
    pub context_len: usize,
    /// Tokens to decode.
    pub gen_tokens: usize,
    /// Priority class.
    pub priority: u8,
    /// Whether token rows are streamed.
    pub stream: bool,
    /// Open loop: nanoseconds after the run's start at which the request
    /// is due. 0 on closed-loop workloads.
    pub due_ns: u64,
    /// Closed loop with think time: nanoseconds the slot this request
    /// takes stays empty first. 0 elsewhere.
    pub think_ns: u64,
    /// Open loop: the phase the request belongs to (0 = warm-up, 1..=3 =
    /// `r1..r3`).
    pub phase: usize,
}

impl Request {
    /// The submit line a TCP client writes for this request.
    pub fn submit_line(&self) -> String {
        proto::submit_line(
            self.ctx,
            self.tenant,
            &self.query,
            self.context_len,
            self.gen_tokens,
            self.priority,
            None,
            self.stream,
        )
    }
}

/// One open-loop phase: a fixed rate held for a duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Requests per second.
    pub rate: u32,
    /// Nanoseconds after the run's start at which the phase begins.
    pub start_ns: u64,
    /// Phase length in nanoseconds.
    pub len_ns: u64,
}

/// Consecutive phases of `(rate, seconds)`.
pub fn phases(spans: &[(u32, f64)]) -> Vec<Phase> {
    let mut start_ns = 0;
    spans
        .iter()
        .map(|&(rate, len_s)| {
            let len_ns = (len_s * 1e9) as u64;
            let p = Phase {
                rate,
                start_ns,
                len_ns,
            };
            start_ns += len_ns;
            p
        })
        .collect()
}

/// The open loop's phases for a run measuring `seconds`: a warm-up at
/// `r2` (phase 0, excluded), then either `r2` held for the whole of it
/// (phase 2; phases 1 and 3 empty) — the untraced run, whose end-to-end
/// latencies are the ones at `r2` — or, `sweep`, `r1 < r2 < r3` for a third
/// each (phases 1..=3) — the traced run's per-rate figures.
pub fn open_phases(w: &Workload, warmup_s: f64, seconds: f64, sweep: bool) -> Vec<Phase> {
    let (side, middle) = if sweep {
        (seconds / 3.0, seconds / 3.0)
    } else {
        (0.0, seconds)
    };
    phases(&[
        (w.rates[1], warmup_s),
        (w.rates[0], side),
        (w.rates[1], middle),
        (w.rates[2], side),
    ])
}

/// `n` distinct positions below `below`, sorted: the requests whose rows
/// a run keeps and re-decodes solo.
pub fn sample_positions(seed: u64, below: usize, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 3);
    let mut all: Vec<usize> = (0..below).collect();
    let n = n.min(below);
    for i in 0..n {
        all.swap(i, i + rng.below((below - i) as u64) as usize);
    }
    all.truncate(n);
    all.sort_unstable();
    all
}

fn make(w: &Workload, rng: &mut Rng, idx: usize, gen_tokens: usize) -> Request {
    let ctx = rng.below(w.shapes.len() as u64) as usize;
    let shape = &w.shapes[ctx];
    Request {
        idx,
        ctx,
        tenant: 1 + rng.below(w.tenants),
        query: (0..shape.head_dim)
            .map(|_| (rng.unit() * 2.0 - 1.0) as f32)
            .collect(),
        context_len: rng.between(shape.ctx_len.0, shape.ctx_len.1),
        gen_tokens,
        priority: u8::from(rng.below(100) < w.priority1_pct),
        stream: rng.below(100) >= w.nostream_pct,
        due_ns: 0,
        think_ns: match w.think_max_us {
            0 => 0,
            max_us => rng.below(max_us * 1_000),
        },
        phase: 0,
    }
}

/// Draws `gen_tokens` for `count` requests. A [`Gen::Deck`] is dealt in
/// shuffled whole decks, so every deck's worth of requests offers exactly
/// the same token load.
fn gen_tokens(w: &Workload, rng: &mut Rng, count: usize) -> Vec<usize> {
    match w.gen {
        Gen::Fixed(n) => vec![n; count],
        Gen::Uniform(lo, hi) => (0..count).map(|_| rng.between(lo, hi)).collect(),
        Gen::Deck(cards) => {
            let deck: Vec<usize> = cards
                .iter()
                .flat_map(|&(g, copies)| std::iter::repeat_n(g, copies))
                .collect();
            let mut out = Vec::with_capacity(count + deck.len());
            while out.len() < count {
                let mut d = deck.clone();
                for i in (1..d.len()).rev() {
                    d.swap(i, rng.below(i as u64 + 1) as usize);
                }
                out.extend(d);
            }
            out.truncate(count);
            out
        }
    }
}

/// The closed-loop request list of a workload: `w.list_len` requests, sent
/// in order and cycled when a run outlasts them.
pub fn closed_list(w: &Workload, seed: u64) -> Vec<Request> {
    debug_assert!(w.arrival != Arrival::Open);
    let mut rng = Rng::new(seed, 1);
    let gens = gen_tokens(w, &mut rng, w.list_len);
    gens.into_iter()
        .enumerate()
        .map(|(idx, g)| make(w, &mut rng, idx, g))
        .collect()
}

/// The open-loop request list and arrival schedule over `phases`.
///
/// Arrivals are a Poisson process **conditioned on its count**: each
/// phase holds exactly `round(rate × length)` arrivals at independent
/// uniform times, sorted — the same law as Poisson arrivals given that
/// many occurred, without the ±√n count noise that would make the offered
/// load differ from seed to seed.
pub fn open_schedule(w: &Workload, seed: u64, phases: &[Phase]) -> Vec<Request> {
    let mut rng = Rng::new(seed, 2);
    let counts: Vec<usize> = phases
        .iter()
        .map(|p| (p.rate as f64 * p.len_ns as f64 / 1e9).round() as usize)
        .collect();
    let gens = gen_tokens(w, &mut rng, counts.iter().sum());
    let mut out = Vec::with_capacity(gens.len());
    for (pi, (p, &count)) in phases.iter().zip(&counts).enumerate() {
        let mut due: Vec<u64> = (0..count)
            .map(|_| p.start_ns + (rng.unit() * p.len_ns as f64) as u64)
            .collect();
        due.sort_unstable();
        for d in due {
            let idx = out.len();
            let mut r = make(w, &mut rng, idx, gens[idx]);
            r.due_ns = d;
            r.phase = pi;
            out.push(r);
        }
    }
    out
}

/// Canonical bytes of a request list and its schedule: one submit line
/// plus due time and phase per request. Equal bytes ⇔ equal traffic.
pub fn encode(reqs: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in reqs {
        out.extend_from_slice(r.submit_line().as_bytes());
        out.extend_from_slice(
            format!(" due={} think={} phase={}\n", r.due_ns, r.think_ns, r.phase).as_bytes(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    fn traffic(w: &Workload, seed: u64) -> Vec<Request> {
        if w.arrival == Arrival::Open {
            open_schedule(w, seed, &open_phases(w, 2.0, 30.0, true))
        } else {
            closed_list(w, seed)
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in &WORKLOADS {
            let a = encode(&traffic(w, 7));
            assert!(!a.is_empty(), "{}", w.name);
            assert_eq!(a, encode(&traffic(w, 7)), "{}", w.name);
            assert_ne!(a, encode(&traffic(w, 8)), "{}", w.name);
        }
    }

    #[test]
    fn nothing_identifying_the_benchmark_reaches_the_wire() {
        // A submit line is what the program under test receives. It must
        // name neither the workload nor the seed (a seed could only ever
        // appear by accident as a number; 0xBEEF5EED is not one any field
        // can take).
        let seed = 0xBEEF_5EED;
        for w in &WORKLOADS {
            let bytes = String::from_utf8(encode(&traffic(w, seed))).expect("ascii");
            for line in bytes.lines().take(200) {
                let frame = line.split(" due=").next().unwrap_or("");
                assert!(!frame.contains(w.name), "{}", w.name);
                assert!(!frame.contains(&seed.to_string()), "{}", w.name);
                assert!(!frame.contains("seed") && !frame.contains("workload"));
            }
        }
    }

    #[test]
    fn sample_positions_are_seeded_distinct_and_sorted() {
        let a = sample_positions(5, 100, 32);
        assert_eq!(a.len(), 32);
        assert!(a.windows(2).all(|p| p[0] < p[1]) && a[31] < 100);
        assert_eq!(a, sample_positions(5, 100, 32));
        assert_ne!(a, sample_positions(6, 100, 32));
        assert_eq!(sample_positions(5, 8, 32), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn requests_respect_the_workload_shape() {
        for w in &WORKLOADS {
            for r in traffic(w, 3) {
                let s = &w.shapes[r.ctx];
                assert_eq!(r.query.len(), s.head_dim);
                assert!((s.ctx_len.0..=s.ctx_len.1).contains(&r.context_len));
                assert!((1..=w.tenants).contains(&r.tenant));
                assert!(r.query.iter().all(|q| (-1.0..1.0).contains(q)));
                assert!(r.think_ns < w.think_max_us.max(1) * 1_000);
            }
        }
    }

    #[test]
    fn open_loop_rate_is_nominal_and_the_mix_is_exact() {
        let w = workload("tcp_open_mixed").expect("workload");
        let ph = open_phases(w, 2.0, 30.0, true);
        assert_eq!(
            ph.iter().map(|p| p.rate).collect::<Vec<_>>(),
            [w.rates[1], w.rates[0], w.rates[1], w.rates[2]]
        );
        let reqs = open_schedule(w, 11, &ph);
        for (pi, p) in ph.iter().enumerate() {
            let in_phase: Vec<&Request> = reqs.iter().filter(|r| r.phase == pi).collect();
            let realised = in_phase.len() as f64 / (p.len_ns as f64 / 1e9);
            assert!(
                (realised / p.rate as f64 - 1.0).abs() < 0.02,
                "phase {pi}: {realised} vs {}",
                p.rate
            );
            assert!(in_phase
                .iter()
                .all(|r| r.due_ns >= p.start_ns && r.due_ns < p.start_ns + p.len_ns));
        }
        assert!(reqs.windows(2).all(|p| p[0].due_ns <= p[1].due_ns));
        // Held, not swept: the whole window at r2, nothing at r1 or r3.
        let held = open_schedule(w, 11, &open_phases(w, 2.0, 30.0, false));
        let in_phase = |p: usize| held.iter().filter(|r| r.phase == p).count();
        assert_eq!((in_phase(1), in_phase(3)), (0, 0));
        assert_eq!(in_phase(2), 30 * w.rates[1] as usize);
        // 30 / 55 / 15 % by construction, to within one deck.
        let share =
            |g: usize| reqs.iter().filter(|r| r.gen_tokens == g).count() as f64 / reqs.len() as f64;
        assert!((share(4) - 0.30).abs() < 0.02);
        assert!((share(16) - 0.55).abs() < 0.02);
        assert!((share(64) - 0.15).abs() < 0.02);
        // Both delivery paths and both contexts are exercised.
        let n = reqs.len() as f64;
        let nostream = reqs.iter().filter(|r| !r.stream).count() as f64 / n;
        assert!((nostream - 0.20).abs() < 0.05, "{nostream}");
        let ctx1 = reqs.iter().filter(|r| r.ctx == 1).count() as f64 / n;
        assert!((ctx1 - 0.5).abs() < 0.06, "{ctx1}");
    }
}
