//! One run of one workload: set-up, warm-up, the measured phase, the
//! correctness check — and, for the traced run, the extra rungs and the
//! probe phase.

use crate::check;
use crate::direct;
use crate::gen::{self, Request};
use crate::load::{self, EndToEnd, Keep, Outcome, PhaseResult, Plan, ReqRecord};
use crate::probe;
use crate::report::{self, Header, RunReport, Values};
use crate::setup::{self, Built};
use crate::spec::{self, Arrival, Front, Workload};
use crate::speed::{Placement, Speed, SpeedLog};
use crate::stats;
use crate::tcp::{self, TcpLoad};
use crate::trace::Clock;
use vq_llm::NetServer;

/// Seconds as nanoseconds.
pub fn ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// Warm-up before a window measuring `seconds`.
pub fn warmup_s(seconds: f64) -> f64 {
    spec::WARMUP_S.min(seconds / 4.0)
}

/// The workload's whole traffic for a run measuring `seconds`. The open
/// loop holds `r2` for the whole window, or — `sweep`, the traced run —
/// climbs `r1 < r2 < r3` a third of it each.
pub fn traffic(w: &Workload, seed: u64, seconds: f64, sweep: bool) -> Vec<Request> {
    match w.arrival {
        Arrival::Open => gen::open_schedule(
            w,
            seed,
            &gen::open_phases(w, warmup_s(seconds), seconds, sweep),
        ),
        _ => gen::closed_list(w, seed),
    }
}

/// The list positions whose rows a run keeps and re-decodes solo: `n` of
/// them, seeded. Closed loops draw from the head of the list, which the
/// measured window always starts on — as far in as a window of `seconds`
/// is sure to get (`check_span` is sized for the full-length run).
pub fn check_positions(
    w: &Workload,
    seed: u64,
    reqs: &[Request],
    n: usize,
    seconds: f64,
) -> Vec<usize> {
    match w.arrival {
        Arrival::Open => {
            // Any request after the warm-up phase.
            let first = reqs.iter().position(|r| r.phase > 0).unwrap_or(0);
            gen::sample_positions(seed, reqs.len() - first, n)
                .into_iter()
                .map(|p| p + first)
                .collect()
        }
        _ => {
            let span = (w.check_span as f64 * seconds / spec::DURATION_S) as usize;
            gen::sample_positions(seed, span.clamp(n, reqs.len()), n)
        }
    }
}

/// A set-up workload: the engine (or the server that owns it) and the
/// load generator's connections.
pub struct Stack {
    /// Handles, contexts, plan cache and stage times of the set-up.
    pub built: Built,
    /// The engine, on engine-direct workloads.
    pub engine: Option<vq_llm::Engine>,
    /// The server, on TCP workloads.
    pub server: Option<NetServer>,
    /// The connections, on TCP workloads.
    pub load: Option<TcpLoad>,
    /// Process-visible set-up time: synth, quantize, build, register, and
    /// — TCP — bind, connect, hello.
    pub setup_s: f64,
}

/// Sets the workload up from nothing.
pub fn set_up(w: &Workload, seed: u64, clock: Clock) -> Stack {
    let t0 = clock.now_ns();
    let (engine, mut built) = setup::build(w, seed);
    let (engine, server, load) = match w.front {
        Front::Direct => (Some(engine), None, None),
        Front::Tcp => {
            let t = clock.now_ns();
            let server = setup::serve(w, engine, built.handles.clone());
            let load = TcpLoad::connect(server.local_addr(), spec::nproc(), clock)
                .expect("connect to the loopback server");
            built.times.bind_s = (clock.now_ns() - t) as f64 / 1e9;
            (None, Some(server), Some(load))
        }
    };
    Stack {
        built,
        engine,
        server,
        load,
        setup_s: (clock.now_ns() - t0) as f64 / 1e9,
    }
}

impl Stack {
    /// Closes the connections and stops the server.
    pub fn tear_down(self) {
        drop(self.load);
        if let Some(s) = self.server {
            s.shutdown();
        }
    }

    /// One phase of the workload's own traffic through its own front:
    /// `(records…, tcp extras)`.
    pub fn phase(
        &mut self,
        w: &Workload,
        reqs: &[Request],
        plan: Plan<'_>,
        clock: Clock,
    ) -> (PhaseResult, Option<tcp::TcpPhase>) {
        match w.front {
            Front::Direct => {
                let engine = self
                    .engine
                    .as_mut()
                    .expect("direct workload holds its engine");
                (
                    direct::run(engine, &self.built.handles, reqs, plan, clock),
                    None,
                )
            }
            Front::Tcp => {
                let load = self
                    .load
                    .as_mut()
                    .expect("tcp workload holds its connections");
                let mut phase = load.run(reqs, plan, clock);
                let result = std::mem::take(&mut phase.result);
                (result, Some(phase))
            }
        }
    }
}

/// The records the end-to-end metrics are taken over: closed loops, those
/// sent inside the window; open loop, those due in the `r2` phase.
pub fn measured(w: &Workload, window: (u64, u64)) -> impl Fn(&ReqRecord) -> bool {
    let open = w.arrival == Arrival::Open;
    move |r| {
        if open {
            r.phase == 2
        } else {
            r.start_ns >= window.0 && r.start_ns < window.1
        }
    }
}

/// The window token throughput is taken over (open loop: the `r2` phase).
pub fn rate_window(
    w: &Workload,
    result: &PhaseResult,
    seconds: f64,
    sweep: bool,
) -> ((u64, u64), usize) {
    if w.arrival == Arrival::Open {
        let ph = gen::open_phases(w, warmup_s(seconds), seconds, sweep);
        let begin = result.window.0;
        (
            (
                begin + ph[2].start_ns,
                begin + ph[2].start_ns + ph[2].len_ns,
            ),
            1,
        )
    } else {
        (result.window, spec::SUBWINDOWS)
    }
}

/// Summarises a phase of `w` with every time as measured (the traced
/// run's phases, which are compared with each other, not across runs).
pub fn summarise(w: &Workload, result: &PhaseResult, seconds: f64, sweep: bool) -> EndToEnd {
    let (window, k) = rate_window(w, result, seconds, sweep);
    let unit = Speed::unit();
    let samples = load::samples(w, &result.records, measured(w, result.window), &unit);
    load::summarise(&samples, window, k, &unit)
}

/// Probe readings around a piece of single-threaded work such as a set-up.
fn readings(log: &mut SpeedLog, clock: Clock) {
    for _ in 0..5 {
        log.sample(clock);
    }
}

fn push_end_to_end(vals: &mut Values, e: &EndToEnd) {
    vals.fig("decode_tok_per_s", e.decode_tok_per_s);
    vals.fig("ttft_p50_ms", e.ttft_p50_ms);
    vals.fig("ttft_p75_ms", e.ttft_p75_ms);
    vals.fig("itl_p50_ms", e.itl_p50_ms);
    vals.fig("itl_p75_ms", e.itl_p75_ms);
    vals.fig("req_p50_ms", e.req_p50_ms);
    vals.fig("req_p75_ms", e.req_p75_ms);
}

/// Whether any record shows the program emitting wrong output (as opposed
/// to refusing or losing a request).
pub fn outputs_correct(records: &[ReqRecord]) -> bool {
    !records.iter().any(|r| {
        matches!(
            r.outcome,
            Outcome::Mismatch | Outcome::WrongCount | Outcome::FrameOrder
        )
    })
}

/// The untraced run: end-to-end metrics only.
pub fn untraced(w: &'static Workload, seed: u64, seconds: f64) -> RunReport {
    let clock = Clock::start();
    let placement = Placement::take();
    // Set up several times and report the median; the last one serves.
    // Each is taken at the reference speed by the readings either side.
    let mut setups = Vec::new();
    let mut setups_raw = Vec::new();
    let mut stack = None;
    for _ in 0..w.setup_reps {
        if let Some(old) = stack.take() {
            Stack::tear_down(old);
        }
        let mut log = SpeedLog::default();
        readings(&mut log, clock);
        let s = set_up(w, seed, clock);
        readings(&mut log, clock);
        setups.push(s.setup_s * log.factor());
        setups_raw.push(s.setup_s);
        stack = Some(s);
    }
    let mut stack = stack.expect("at least one set-up");
    let reqs = traffic(w, seed, seconds, false);
    let positions = check_positions(w, seed, &reqs, w.check_sample, seconds);
    let plan = Plan {
        arrival: w.arrival,
        warmup_ns: ns(warmup_s(seconds)),
        measure_ns: ns(seconds),
        keep: Keep::Sampled(&positions),
        trace: false,
        placement,
        rss_after: (w.rss_after as f64 * seconds / spec::DURATION_S).ceil() as usize,
    };
    let (mut result, _) = stack.phase(w, &reqs, plan, clock);
    let peak_rss_mb = if result.rss_mb > 0.0 {
        result.rss_mb
    } else {
        report::peak_rss_mb()
    };
    let contexts = stack.built.contexts.clone();
    stack.tear_down();
    let checked = check::against_solo(w, seed, &contexts, &reqs, &mut result.records);
    let (window, k) = rate_window(w, &result, seconds, false);
    let speed = result.speed.table();
    let unit = Speed::unit();
    let samples = load::samples(w, &result.records, measured(w, result.window), &speed);
    // The open loop's token rate is its offered load, whatever the core does.
    let rate_speed = if w.arrival == Arrival::Open {
        &unit
    } else {
        &speed
    };
    let e = load::summarise(&samples, window, k, rate_speed);
    let mut notes = load::ladders(&samples);
    let raw = load::summarise(
        &load::samples(w, &result.records, measured(w, result.window), &unit),
        window,
        k,
        &unit,
    );
    notes.push(format!(
        "probe: median {:.2} us over {} readings (reference {:.2} us), {}; as measured: setup {:.3} s, \
         {:.1} tok/s, ttft p50 {:.3} ms, itl p50 {:.3} ms, req p50 {:.3} ms",
        result.speed.median_ns() / 1e3,
        result.speed.samples.len(),
        crate::speed::PROBE_REF_NS / 1e3,
        placement.describe(),
        stats::median(&setups_raw).value,
        raw.decode_tok_per_s.value,
        raw.ttft_p50_ms.value,
        raw.itl_p50_ms.value,
        raw.req_p50_ms.value
    ));
    let mut vals = Values::default();
    vals.fig("setup_s", stats::median(&setups));
    push_end_to_end(&mut vals, &e);
    vals.set("slo_ok_share", e.slo_ok_share);
    vals.set("peak_rss_mb", peak_rss_mb);
    notes.push(checked.note());
    RunReport {
        header: Header::new(w, seed, seconds, false, placement),
        correct: checked.records > 0 && outputs_correct(&result.records),
        attempted: e.attempted,
        failed: e.failed,
        values: vals.in_order(spec::END_TO_END),
        notes,
    }
}

/// Closed-loop capacity of an open-loop workload's mix, requests/s: the
/// same requests with twice `max_batch` of them kept in flight, so a slot
/// never waits for the client. This is how `r1..r3` were frozen (0.30,
/// 0.45 and 0.80 of the median of three such runs on the seed commit);
/// no run of the benchmark calls it.
pub fn capacity(w: &'static Workload, seed: u64, seconds: f64) -> f64 {
    let clock = Clock::start();
    let placement = Placement::take();
    let mut stack = set_up(w, seed, clock);
    let reqs = traffic(w, seed, seconds, false);
    let plan = Plan {
        arrival: Arrival::InFlight(2 * spec::MAX_BATCH),
        warmup_ns: ns(warmup_s(seconds)),
        measure_ns: ns(seconds),
        keep: Keep::Sampled(&[]),
        trace: false,
        placement,
        rss_after: 0,
    };
    let phase = stack
        .load
        .as_mut()
        .expect("tcp workload")
        .run(&reqs, plan, clock);
    stack.tear_down();
    let (w0, w1) = phase.result.window;
    let done = phase
        .result
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok && r.done_ns >= w0 && r.done_ns < w1)
        .count();
    // At the reference speed, like every other rate.
    done as f64 / seconds / phase.result.speed.factor()
}

/// Shares of `--seconds` a traced run spends in each phase: an untraced
/// phase (the base of `trace.overhead_pct` and, on TCP workloads, the top
/// rung of the depth ladder), the traced phase, and each further rung.
pub const UNTRACED_SHARE: f64 = 0.15;
/// See [`UNTRACED_SHARE`].
pub const TRACED_SHARE: f64 = 0.50;
/// See [`UNTRACED_SHARE`].
pub const RUNG_SHARE: f64 = 0.15;

fn fig_us(v: &[u64], q: f64) -> stats::Figure {
    let us: Vec<f64> = v.iter().map(|&n| n as f64 / 1e3).collect();
    stats::percentile(&us, q)
}

fn mean_of(v: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = v.collect();
    stats::mean(&v).value
}

/// `multi.*`: what the engine-direct rung saw of the scheduler.
fn push_multi(
    vals: &mut Values,
    rung: &PhaseResult,
    engine: &vq_llm::Engine,
    before: vq_llm::ServerStats,
    col_groups: usize,
) {
    let step_us: Vec<f64> = rung
        .steps
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    vals.fig("multi.step_us_p50", stats::percentile(&step_us, 0.50));
    vals.fig("multi.step_us_p95", stats::percentile(&step_us, 0.95));
    vals.fig("multi.step_us_max", stats::max(&step_us));
    vals.set("multi.steps", rung.steps.len() as f64);
    vals.set(
        "multi.batch_mean",
        mean_of(rung.steps.iter().map(|s| s.batch as f64)),
    );
    vals.set(
        "multi.groups_mean",
        mean_of(rung.steps.iter().map(|s| s.groups as f64)),
    );
    vals.fig("multi.submit_us_p50", fig_us(&rung.submit_ns, 0.50));
    vals.fig("multi.take_output_us_p50", fig_us(&rung.take_ns, 0.50));
    let waits: Vec<f64> = rung
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Ok)
        .map(|r| r.queue_wait_steps as f64)
        .collect();
    vals.fig(
        "multi.queue_wait_steps_p50",
        stats::percentile(&waits, 0.50),
    );
    vals.fig(
        "multi.queue_wait_steps_p95",
        stats::percentile(&waits, 0.95),
    );
    // Counters are cumulative; `before` is where the rung started.
    let s = engine.stats();
    vals.set("multi.rejected", (s.rejected - before.rejected) as f64);
    vals.set(
        "multi.quarantined",
        (s.quarantined - before.quarantined) as f64,
    );
    vals.set("multi.cancelled", (s.cancelled - before.cancelled) as f64);
    vals.set(
        "tenant_kv.kv_quant_us_per_step",
        mean_of(rung.steps.iter().map(|s| s.kv_quant_us)),
    );
    let folded = s.kv_folded_tokens - before.kv_folded_tokens;
    let outliers = s.kv_outlier_groups - before.kv_outlier_groups;
    vals.set("tenant_kv.folded_tokens", folded as f64);
    vals.set("tenant_kv.outlier_groups", outliers as f64);
    // K and V each fold `col_groups` groups per token.
    vals.set(
        "tenant_kv.outlier_share",
        outliers as f64 / (2.0 * col_groups as f64 * folded.max(1) as f64),
    );
    let data = s.kv_data_sq - before.kv_data_sq;
    vals.set(
        "tenant_kv.fold_nmse",
        if data > 0.0 {
            (s.kv_err_sq - before.kv_err_sq) / data
        } else {
            0.0
        },
    );
}

/// `host_exec.*`, `multi.step_self_us_p50` and the replayed `tenant_kv.*`.
fn push_replay(vals: &mut Values, r: &probe::Replay, copy_gbps: f64) -> String {
    let attn = if r.attn_tailed_us.is_empty() {
        &r.attn_ragged_us
    } else {
        &r.attn_tailed_us
    };
    vals.fig(
        "host_exec.attn_ragged_us_p50",
        stats::percentile(&r.attn_ragged_us, 0.50),
    );
    vals.fig(
        "host_exec.attn_tailed_us_p50",
        stats::percentile(&r.attn_tailed_us, 0.50),
    );
    vals.fig(
        "host_exec.score_pass_us_p50",
        stats::percentile(&r.score_us, 0.50),
    );
    vals.fig(
        "host_exec.value_gemm_us_p50",
        stats::percentile(&r.value_us, 0.50),
    );
    vals.fig(
        "host_exec.linear_gemm_us_p50",
        stats::percentile(&r.linear_us, 0.50),
    );
    let bytes = stats::percentile(&r.attn_bytes, 0.50);
    vals.fig("host_exec.attn_bytes", bytes);
    let attn_us = stats::percentile(attn, 0.50).value;
    let gbps = if attn_us > 0.0 {
        bytes.value / attn_us / 1e3
    } else {
        0.0
    };
    vals.set("host_exec.attn_gbps", gbps);
    vals.set("host_exec.stream_copy_gbps", copy_gbps);
    vals.set("host_exec.attn_roofline_share", gbps / copy_gbps);
    vals.set(
        "host_exec.step_kernel_share",
        r.kernel_ns as f64 / r.step_ns.max(1) as f64,
    );
    vals.fig(
        "multi.step_self_us_p50",
        stats::percentile(&r.step_self_us, 0.50),
    );
    vals.fig(
        "tenant_kv.append_us_p50",
        stats::percentile(&r.append_us, 0.50),
    );
    vals.fig(
        "tenant_kv.append_us_p99",
        stats::percentile(&r.append_us, 0.99),
    );
    vals.set(
        "tenant_kv.ext_len_mean",
        r.ext_len.0 as f64 / r.ext_len.1.max(1) as f64,
    );
    format!(
        "replayed {} steps ({} attention calls); {} replayed rows differ from the recorded ones",
        r.steps,
        attn.len(),
        r.row_mismatches
    )
}

/// `loadgen.*` of the traced phase, and the open loop's per-rate figures.
fn push_loadgen(vals: &mut Values, w: &Workload, result: &PhaseResult, e: &EndToEnd, seconds: f64) {
    vals.set("loadgen.sent", e.attempted as f64);
    vals.set("loadgen.completed", (e.attempted - e.failed) as f64);
    vals.set("loadgen.failed", e.failed as f64);
    vals.set(
        "loadgen.fail_share",
        e.failed as f64 / e.attempted.max(1) as f64,
    );
    vals.set("loadgen.slo_ok_share", e.slo_ok_share);
    let in_window = measured(w, result.window);
    let rejected = result
        .records
        .iter()
        .filter(|r| in_window(r) && r.outcome == Outcome::Rejected)
        .count();
    vals.set(
        "admission.rejected_share",
        rejected as f64 / e.attempted.max(1) as f64,
    );
    if w.arrival != Arrival::Open {
        return;
    }
    let lag: Vec<f64> = result
        .records
        .iter()
        .map(|r| (r.sent_ns - r.start_ns) as f64 / 1e6)
        .collect();
    vals.fig("loadgen.lag_p99_ms", stats::percentile(&lag, 0.99));
    let phases = gen::open_phases(w, warmup_s(seconds), seconds, true);
    let begin = result.window.0;
    let mut best = 0.0;
    for (p, names) in [
        (1, ("loadgen.r1.ttft_p95_ms", "loadgen.r1.backlog_end")),
        (2, ("loadgen.r2.ttft_p95_ms", "loadgen.r2.backlog_end")),
        (3, ("loadgen.r3.ttft_p95_ms", "loadgen.r3.backlog_end")),
    ] {
        let of_phase: Vec<&ReqRecord> = result.records.iter().filter(|r| r.phase == p).collect();
        let ttft: Vec<f64> = of_phase
            .iter()
            .filter(|r| r.outcome == Outcome::Ok && !r.token_ns.is_empty())
            .map(|r| (r.token_ns[0] - r.start_ns) as f64 / 1e6)
            .collect();
        vals.fig(names.0, stats::percentile(&ttft, 0.95));
        let end = begin + phases[p].start_ns + phases[p].len_ns;
        // Due by the end of the phase, not finished by then.
        let backlog = result
            .records
            .iter()
            .filter(|r| r.phase >= 1 && r.phase <= p && (r.done_ns == 0 || r.done_ns > end))
            .count();
        vals.set(names.1, backlog as f64);
        let ok = of_phase
            .iter()
            .filter(|r| load::within_slo(w, r, &Speed::unit()))
            .count();
        let meets = ok as f64 >= spec::SLO_SHARE * of_phase.len() as f64
            && backlog <= spec::BACKLOG_BATCHES * spec::MAX_BATCH;
        if meets {
            best = phases[p].rate as f64;
        }
    }
    vals.set("loadgen.slo_max_rate_rps", best);
}

/// `driver.*` and the counter-valued `net.*`, from the `stats` replies
/// sampled during the traced phase and the server's final snapshot.
fn push_driver(vals: &mut Values, phase: &tcp::TcpPhase, server: &NetServer, own_closes: u64) {
    let m = server.client().metrics();
    vals.set("driver.step_latency_p50_us", m.step_latency_p50_us as f64);
    vals.set("driver.step_latency_p99_us", m.step_latency_p99_us as f64);
    vals.set("driver.queue_depth_p50", m.queue_depth_p50 as f64);
    vals.set("driver.queue_depth_max", m.queue_depth_max as f64);
    let s = &phase.stats;
    vals.set(
        "driver.front_queued_mean",
        mean_of(s.iter().map(|x| x.front_queued)),
    );
    vals.set(
        "driver.engine_queued_mean",
        mean_of(s.iter().map(|x| x.engine_queued)),
    );
    vals.set("driver.running_mean", mean_of(s.iter().map(|x| x.running)));
    if let (Some(a), Some(b)) = (s.first(), s.last()) {
        // Steps × mean step over elapsed, from cumulative counters.
        let busy_us = b.steps * b.step_mean_us - a.steps * a.step_mean_us;
        let elapsed_us = (b.t_ns - a.t_ns) as f64 / 1e3;
        vals.set(
            "driver.busy_share",
            if elapsed_us > 0.0 {
                busy_us / elapsed_us
            } else {
                0.0
            },
        );
    }
    let end = server.client().stats();
    vals.set(
        "driver.inflight_tokens_end",
        end.map_or(-1.0, |d| d.inflight_tokens as f64),
    );
    vals.set("net.writer_queue_peak", m.writer_queue_peak as f64);
    let of = |list: &[(&'static str, u64)], code: &str| {
        list.iter().find(|(c, _)| *c == code).map_or(0, |&(_, n)| n)
    };
    vals.set(
        "net.disconnects_slow_reader",
        of(&m.disconnects, "slow_reader") as f64,
    );
    let total: u64 = m.disconnects.iter().map(|&(_, n)| n).sum();
    vals.set(
        "net.disconnects_total",
        total.saturating_sub(own_closes) as f64,
    );
    vals.set(
        "net.rejected_total",
        m.rejected.iter().map(|&(_, n)| n).sum::<u64>() as f64,
    );
    let rtt: Vec<f64> = phase.ping_rtt_ns.iter().map(|&n| n as f64 / 1e3).collect();
    vals.fig("net.ping_rtt_loaded_us_p50", stats::percentile(&rtt, 0.50));
    vals.set(
        "net.bytes_per_token_wire",
        phase.token_frame_bytes as f64 / phase.token_frames.max(1) as f64,
    );
    vals.fig(
        "admission.retry_after_ms_p50",
        stats::percentile(&phase.retry_after_ms, 0.50),
    );
}

/// The traced run: per-layer metrics only. Spans go to `out_dir` when one
/// is given.
pub fn traced(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    out_dir: Option<&std::path::Path>,
) -> RunReport {
    let clock = Clock::start();
    let placement = Placement::take();
    let mut vals = Values::default();
    let mut notes = Vec::new();
    let mut stack = set_up(w, seed, clock);
    let times = stack.built.times;
    vals.set("vq.quantize_kv_s", times.quantize_kv_s);
    vals.set("vq.quantize_weights_s", times.quantize_weights_s);
    vals.set("core.engine_build_ms", times.engine_build_s * 1e3);
    vals.set("core.register_context_ms", times.register_s * 1e3);
    let (cold, warm) = probe::plan_times(w, clock);
    vals.set("core.plan_cold_us", cold);
    vals.fig("core.plan_warm_us", stats::percentile(&warm, 0.50));

    // Quiet-server probes, before any load: each opens and closes its own
    // connection, which the server will count as an `eof` disconnect.
    let mut own_closes = 0;
    if let Some(server) = &stack.server {
        let hello: Vec<f64> = (0..20)
            .filter_map(|_| tcp::Conn::open(server.local_addr(), clock).ok())
            .map(|c| c.connect_to_hello_ns as f64 / 1e3)
            .collect();
        own_closes += hello.len() as u64;
        vals.fig(
            "net.connect_to_hello_us_p50",
            stats::percentile(&hello, 0.50),
        );
        if let Ok(mut c) = tcp::Conn::open(server.local_addr(), clock) {
            own_closes += 1;
            let rtt: Vec<f64> = (0..200)
                .filter_map(|_| c.ping_blocking(clock).ok())
                .map(|n| n as f64 / 1e3)
                .collect();
            vals.fig("net.ping_rtt_idle_us_p50", stats::percentile(&rtt, 0.50));
        }
    }

    let (u_s, t_s, rung_s) = (
        seconds * UNTRACED_SHARE,
        seconds * TRACED_SHARE,
        seconds * RUNG_SHARE,
    );
    let lead = ns(warmup_s(seconds) / 2.0);
    let direct = w.front == Front::Direct;

    // The same traffic untraced, then traced.
    let reqs_u = traffic(w, seed, u_s, true);
    let plan = |measure_s: f64, keep, trace| Plan {
        arrival: w.arrival,
        warmup_ns: lead,
        measure_ns: ns(measure_s),
        keep,
        trace,
        placement,
        rss_after: 0,
    };
    let (res_u, _) = stack.phase(w, &reqs_u, plan(u_s, Keep::Sampled(&[]), false), clock);
    let e_u = summarise(w, &res_u, u_s, true);
    let reqs = traffic(w, seed, t_s, true);
    let positions = check_positions(w, seed, &reqs, spec::CHECK_SAMPLE_TRACED, t_s);
    let cache_before = stack.built.plan_cache.stats();
    let stats_before = stack.engine.as_ref().map(|e| e.stats()).unwrap_or_default();
    let keep = if direct {
        Keep::All
    } else {
        Keep::Sampled(&positions)
    };
    let (mut res_t, tcp_t) = stack.phase(w, &reqs, plan(t_s, keep, true), clock);
    let cache = stack.built.plan_cache.stats();
    vals.set("core.plan_cache_hits", cache.hits as f64);
    vals.set("core.plan_cache_misses", cache.misses as f64);
    let (dh, dm) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    vals.set(
        "core.plan_cache_hit_ratio",
        if dh + dm == 0 {
            1.0
        } else {
            dh as f64 / (dh + dm) as f64
        },
    );
    vals.set(
        "core.plan_cache_entries",
        stack.built.plan_cache.len() as f64,
    );
    let scratch = scratch_dir();
    vals.set(
        "core.plan_cache_save_load_ms",
        probe::plan_cache_save_load_ms(&stack.built.plan_cache, &scratch, clock),
    );

    // TCP workloads: the same traffic straight into an engine of its own
    // (the bottom rung; the only place `Engine::step` can be timed), and —
    // closed loop — through an in-process driver (the middle rung).
    let mut rung0 = None;
    let mut engine0 = None;
    if !direct {
        if let (Some(phase), Some(server)) = (&tcp_t, &stack.server) {
            push_driver(&mut vals, phase, server, own_closes);
        }
        let reqs0 = traffic(w, seed, rung_s, true);
        let (mut e0, h0) = setup::rebuild(
            &stack.built.contexts,
            spec::MAX_BATCH,
            spec::MAX_PENDING,
            w.kv_quant,
        );
        let r0 = direct::run(&mut e0, &h0, &reqs0, plan(rung_s, Keep::All, true), clock);
        if let Arrival::InFlight(slots) = w.arrival {
            let (e1, h1) = setup::rebuild(
                &stack.built.contexts,
                spec::MAX_BATCH,
                spec::MAX_QUEUE,
                w.kv_quant,
            );
            let (client, driver) = vq_llm::net::spawn_driver(e1, setup::admission(w));
            let r1 = crate::inproc::run(&client, &h1, &reqs0, slots, lead, ns(rung_s), clock);
            driver.shutdown();
            let (d0, d1) = (
                summarise(w, &r0, rung_s, true),
                summarise(w, &r1, rung_s, true),
            );
            let us = |hi: stats::Figure, lo: stats::Figure| (hi.value - lo.value) * 1e3;
            vals.set(
                "driver.added_ttft_us_p50",
                us(d1.ttft_p50_ms, d0.ttft_p50_ms),
            );
            vals.set("driver.added_req_us_p50", us(d1.req_p50_ms, d0.req_p50_ms));
            vals.set("net.added_ttft_us_p50", us(e_u.ttft_p50_ms, d1.ttft_p50_ms));
            vals.set("net.added_req_us_p50", us(e_u.req_p50_ms, d1.req_p50_ms));
            notes.push(format!(
                "depth ladder req p50: engine {:.3} ms, through the driver {:.3} ms, over TCP {:.3} ms",
                d0.req_p50_ms.value, d1.req_p50_ms.value, e_u.req_p50_ms.value
            ));
        }
        rung0 = Some((r0, reqs0, h0));
        engine0 = Some(e0);
    }

    // Probe phase, on the engine-direct rung's records and engine.
    let copy_gbps = probe::stream_copy_gbps();
    let pool: Vec<f64> = probe::pool_scope_us(spec::CPU_THREADS, clock);
    vals.fig("host_exec.pool_scope_us", stats::percentile(&pool, 0.50));
    {
        let (rung, rung_reqs, handles, engine) = match (&rung0, &mut engine0) {
            (Some((r0, reqs0, h0)), Some(e0)) => (r0, reqs0.as_slice(), h0.as_slice(), e0),
            _ => (
                &res_t,
                reqs.as_slice(),
                stack.built.handles.as_slice(),
                stack
                    .engine
                    .as_mut()
                    .expect("direct workload holds its engine"),
            ),
        };
        let before = if direct {
            stats_before
        } else {
            vq_llm::ServerStats::default()
        };
        let col_groups = stack.built.contexts[0].kq().col_groups();
        push_multi(&mut vals, rung, engine, before, col_groups);
        let replay = probe::replay(
            engine,
            handles,
            w,
            rung_reqs,
            rung,
            seconds * RUNG_SHARE,
            clock,
        );
        notes.push(push_replay(&mut vals, &replay, copy_gbps));
        vals.fig(
            "multi.idle_step_us_p50",
            stats::percentile(&probe::idle_step_us(engine, clock), 0.50),
        );
        let adm = probe::admit_pop_us(w, handles, rung_reqs, clock);
        vals.fig("admission.admit_pop_us_p50", stats::percentile(&adm, 0.50));
        let rows: Vec<Vec<f32>> = rung
            .records
            .iter()
            .filter_map(|r| r.rows.as_ref())
            .flatten()
            .take(1000)
            .cloned()
            .collect();
        let (parse, render, client) = probe::proto_us(rung_reqs, &rows, clock);
        vals.fig("net.parse_submit_us_p50", stats::percentile(&parse, 0.50));
        vals.fig("net.render_token_us_p50", stats::percentile(&render, 0.50));
        vals.fig(
            "loadgen.parse_frame_us_p50",
            stats::percentile(&client, 0.50),
        );
    }

    // Live KV: bytes per appended token, and the measured output error
    // against the same requests decoded with the private cache kept f32.
    if w.kv_quant != vq_llm::KvQuantMode::Off {
        let ok = || res_t.records.iter().filter(|r| r.outcome == Outcome::Ok);
        let bytes: usize = ok().map(|r| r.kv_bytes).sum();
        let appended: usize = ok().map(|r| r.gen_tokens - 1).sum();
        vals.set(
            "tenant_kv.kv_bytes_per_token",
            bytes as f64 / appended.max(1) as f64,
        );
        let mut rows = std::collections::BTreeMap::new();
        for r in ok() {
            if let (true, Some(x)) = (positions.binary_search(&r.idx).is_ok(), &r.rows) {
                rows.insert(r.idx, x.clone());
            }
        }
        let held: Vec<usize> = rows.keys().copied().collect();
        let base = check::decode_solo(
            &stack.built.contexts,
            &reqs,
            &held,
            vq_llm::KvQuantMode::F32Tail,
        );
        let (rel, max_abs) = check::output_error(&rows, &base);
        vals.set("tenant_kv.kv_out_rel_err", rel);
        vals.set("tenant_kv.out_max_abs_err", max_abs);
    }

    // Correctness of the traced phase, on its seeded sample.
    for r in res_t.records.iter_mut() {
        if positions.binary_search(&r.idx).is_err() {
            r.rows = None;
        }
    }
    let contexts = stack.built.contexts.clone();
    stack.tear_down();
    let checked = check::against_solo(w, seed, &contexts, &reqs, &mut res_t.records);
    let e_t = summarise(w, &res_t, t_s, true);
    let probe_us: Vec<f64> = res_t
        .speed
        .samples
        .iter()
        .map(|&(_, d)| d as f64 / 1e3)
        .collect();
    vals.fig("loadgen.probe_us_p50", stats::percentile(&probe_us, 0.50));
    push_loadgen(&mut vals, w, &res_t, &e_t, t_s);
    // Closed loops: tokens per second lost to tracing. The open loop's
    // token rate is its offered load whatever tracing costs, so there the
    // overhead is read off the median gap between token rows instead.
    let overhead = if w.arrival == Arrival::Open {
        let (u, t) = (e_u.itl_p50_ms.value, e_t.itl_p50_ms.value);
        if u > 0.0 {
            (t - u) / u * 100.0
        } else {
            0.0
        }
    } else {
        let (u, t) = (e_u.decode_tok_per_s.value, e_t.decode_tok_per_s.value);
        if u > 0.0 {
            (u - t) / u * 100.0
        } else {
            0.0
        }
    };
    vals.set("trace.overhead_pct", overhead);
    vals.set("trace.residual_pct", residual_pct(w, &res_t, &e_t, &e_u));
    notes.push(checked.note());
    if let Some(dir) = out_dir {
        let path = dir.join(format!("{}.seed{seed}.spans.jsonl", w.name));
        match res_t.trace.write_jsonl(&path) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                res_t.trace.spans.len(),
                path.display()
            )),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    RunReport {
        header: Header::new(w, seed, seconds, true, placement),
        correct: checked.records > 0 && outputs_correct(&res_t.records),
        attempted: e_t.attempted,
        failed: e_t.failed,
        values: vals.in_order(spec::PER_LAYER),
        notes,
    }
}

/// Request latency the traced phase's spans do not account for, percent.
///
/// * Engine-direct rounds: time inside a `round` span but outside every
///   `submit` / `step` / `take_output` under it — the calling loop itself.
/// * `tcp_closed_short`: the part of the traced `req_p50_ms` the depth
///   ladder does not reconstruct. Its rungs (engine, `driver.added`,
///   `net.added`) sum to the untraced phase's median by construction, so
///   this is the traced median's excess over the untraced one.
/// * Open loop: time between a request's due time and its send (the
///   generator's own lateness), as a share of all request time.
fn residual_pct(w: &Workload, res: &PhaseResult, e: &EndToEnd, untraced: &EndToEnd) -> f64 {
    match (w.front, w.arrival) {
        (Front::Direct, _) => {
            let (own, covered) = res.trace.coverage("round");
            (own.saturating_sub(covered)) as f64 / own.max(1) as f64 * 100.0
        }
        (Front::Tcp, Arrival::Open) => {
            let ok = || res.records.iter().filter(|r| r.outcome == Outcome::Ok);
            let late: u64 = ok().map(|r| r.sent_ns - r.start_ns).sum();
            let total: u64 = ok().map(|r| r.done_ns - r.start_ns).sum();
            late as f64 / total.max(1) as f64 * 100.0
        }
        (Front::Tcp, _) => {
            let (traced, ladder) = (e.req_p50_ms.value, untraced.req_p50_ms.value);
            (traced - ladder) / traced.max(1e-9) * 100.0
        }
    }
}

/// Where a run may leave scratch files: beside its own executable, which
/// the build put inside the checkout's target directory. Never derived
/// from a compile-time path.
pub fn scratch_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(std::env::temp_dir)
}
