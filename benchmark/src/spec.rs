//! The benchmark's definition: the four workloads, every metric by name,
//! and the constants frozen on the seed commit.
//!
//! `BENCHMARK.json` at the repository root names the same workloads and
//! metrics (the smoke test checks the two agree); everything its fixed
//! key set has no room for — arrival rates, latency limits, the default
//! seed — is frozen here and explained in `README.md`.

use vq_llm::KvQuantMode;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_250_928;
/// Measured-phase length `--all` uses (`run_seconds` in `BENCHMARK.json`).
pub const DURATION_S: f64 = 20.0;
/// Measured-phase length of `--smoke`.
pub const SMOKE_S: f64 = 2.0;
/// Warm-up of the same traffic before the measured phase, excluded.
pub const WARMUP_S: f64 = 2.0;
/// Gain on every synthetic projection weight. A decode step feeds its
/// output row back as the next query and — with live KV — as the next
/// appended K/V row, so the gain decides whether 256 generated rows stay
/// in the range the context's codebooks were trained on. At 12 they sit
/// at about half the context rows' norm and drift by under 1.5x (fold
/// NMSE 0.05, about 1 % of groups in the outlier channel); at the 25
/// `serve_bench` uses for 24-token requests the f32 baseline overflows
/// by token 250. Workloads without live KV are scale-invariant.
pub const PROJECTION_GAIN: f32 = 12.0;
/// Decode slots of every engine the benchmark builds.
pub const MAX_BATCH: usize = 8;
/// Engine queue bound: the library default.
pub const MAX_QUEUE: usize = 64;
/// Requests re-decoded solo in a traced run (which spends its time on
/// probes; an untraced run checks `Workload::check_sample`).
pub const CHECK_SAMPLE_TRACED: usize = 8;
/// Sub-windows behind `decode_tok_per_s` on closed-loop workloads.
pub const SUBWINDOWS: usize = 10;
/// The non-default server settings: evictions and watchdog sheds must
/// show up as failures, never act as tuning.
pub const WRITER_QUEUE_CAP: usize = 4096;
/// See [`WRITER_QUEUE_CAP`].
pub const MAX_PENDING: usize = 4096;
/// See [`WRITER_QUEUE_CAP`].
pub const STEP_TIMEOUT_US: u64 = 5_000_000;
/// An open-loop phase has a growing backlog when more requests than this
/// many full batches are still unfinished at its end.
pub const BACKLOG_BATCHES: usize = 2;
/// Share of sent requests that must meet both latency limits for a rate
/// to count towards `loadgen.slo_max_rate_rps`.
pub const SLO_SHARE: f64 = 0.95;
/// How long a run waits for in-flight requests after its deadline before
/// counting them as timed out.
pub const DRAIN_TIMEOUT_S: f64 = 10.0;

/// How requests reach the program under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// Straight into `Engine::{try_submit, step, take_output}`.
    Direct,
    /// Over loopback TCP through `net::server`.
    Tcp,
}

/// When requests are sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Closed loop: this many requests submitted together, the next round
    /// once the engine has drained.
    Rounds(usize),
    /// Closed loop: this many requests in flight in total, a finished one
    /// replaced after a full client round trip.
    InFlight(usize),
    /// Open loop: a seeded arrival schedule at fixed rates, timed from
    /// each request's due time.
    Open,
}

/// How many tokens a request generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gen {
    /// Always this many.
    Fixed(usize),
    /// Uniform over the inclusive range.
    Uniform(usize, usize),
    /// A shuffled deck of `(gen_tokens, copies)`: exact shares per deck,
    /// so the offered token load is the same on every seed.
    Deck(&'static [(usize, usize)]),
}

/// One shared context and the prefix lengths requests attend in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Cached tokens.
    pub seq: usize,
    /// Channels per head.
    pub head_dim: usize,
    /// Inclusive range of `context_len`.
    pub ctx_len: (usize, usize),
}

/// One workload of the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// The name later issues refer to.
    pub name: &'static str,
    /// Why it exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// How requests reach the program.
    pub front: Front,
    /// When they are sent.
    pub arrival: Arrival,
    /// The registered contexts, in protocol `ctx` order.
    pub shapes: &'static [Shape],
    /// Tokens per request.
    pub gen: Gen,
    /// Live-KV mode of the engine.
    pub kv_quant: KvQuantMode,
    /// Distinct tenant tags (1-based).
    pub tenants: u64,
    /// Explicit fair-queue weights, `(tenant, weight)`.
    pub weights: &'static [(u64, u32)],
    /// Percent of requests in priority class 1.
    pub priority1_pct: u64,
    /// Percent of requests sent with `stream:false`.
    pub nostream_pct: u64,
    /// Length of the pre-generated closed-loop request list (cycled when
    /// a run needs more).
    pub list_len: usize,
    /// [`Arrival::InFlight`]: a freed slot is refilled after a seeded think
    /// time uniform in `[0, this)` µs. Without one, refills arrive locked
    /// to the step boundary and time to first token reads one step or two
    /// depending on which side of the boundary the scheduler of the day
    /// lands them — 2.2 ms or 3.4 ms on the same commit and seed. Two
    /// steps' worth of think time spreads the arrival phase evenly.
    pub think_max_us: u64,
    /// Requests re-decoded solo after the timed window.
    pub check_sample: usize,
    /// Closed loops: the correctness sample is drawn from the first this
    /// many requests of the list — ones a full-length window is sure to
    /// send even on a much slower build.
    pub check_span: usize,
    /// Set-ups per untraced run (`setup_s` is their median).
    pub setup_reps: usize,
    /// `peak_rss_mb` is read when this many requests of a full-length
    /// run's phase have finished (warm-up included): about half of what the
    /// seed commit serves, so every run gets there and all of them are
    /// compared at the same count.
    pub rss_after: usize,
    /// Time-to-first-token limit of `slo_ok_share`: 5× the seed commit's
    /// median, frozen.
    pub ttft_limit_ms: f64,
    /// Inter-token limit of `slo_ok_share`: 5× the seed commit's median.
    pub itl_limit_ms: f64,
    /// Open-loop rates `r1 < r2 < r3` in requests/s: 0.30, 0.45 and 0.80
    /// of the mix's closed-loop capacity on the seed commit (98 req/s at
    /// the reference speed, median of three `bench --capacity`), frozen.
    /// `r2`, which the untraced run holds for its whole window and where
    /// the end-to-end latencies are taken, is 0.45 and not the 0.55 first
    /// drafted: arrivals keep wall-clock time, so with the core a quarter
    /// slower 0.55 is 0.73 — onto the knee of the queueing curve, where
    /// waiting grows faster than any linear correction undoes. At 0.45
    /// `r2` stays under the knee at every speed level seen; `r3` (traced
    /// run) is there to climb it.
    pub rates: [u32; 3],
}

/// Threads the kernels run on, on every workload. The program under test
/// is pinned to one core (`speed::Placement`), which is what lets a probe
/// on that core say how fast it is running; and measured with both cores
/// of the reference box, a batch-8 step of `offline_long` took 3.4-3.9 ms
/// on two kernel threads against 3.5 ms on one, only less steadily.
pub const CPU_THREADS: usize = 1;

/// Cores available to this process, as first asked — before
/// `speed::Placement::take` narrows the asking thread to one of them.
pub fn nproc() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The four workloads. Names are the record.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "offline_long",
        why: "kernel-bound: batch-8 rounds over a 2048x128 context with a wide length spread; the front end does no work",
        front: Front::Direct,
        // 12, not the 16 first drafted: with exactly half of each round
        // admitted at once the TTFT median sat on the edge between the
        // admitted and the queued half and flipped between 4 ms and
        // 100 ms. At 1.5x oversubscription the median is an admitted
        // request, the p75 a queued one, and admit-on-finish still
        // re-forms the batch mid-drain.
        arrival: Arrival::Rounds(12),
        shapes: &[Shape {
            seq: 2048,
            head_dim: 128,
            ctx_len: (512, 1984),
        }],
        gen: Gen::Uniform(32, 64),
        kv_quant: KvQuantMode::Off,
        tenants: 8,
        weights: &[],
        priority1_pct: 0,
        nostream_pct: 0,
        list_len: 1536,
        think_max_us: 0,
        check_sample: 32,
        check_span: 384,
        setup_reps: 3,
        rss_after: 350,
        ttft_limit_ms: 15.0,
        itl_limit_ms: 14.0,
        rates: [0; 3],
    },
    Workload {
        name: "live_kv_long_gen",
        why: "writes beside reads: every step appends, folds and outlier-tests a K/V row per tenant and attends a growing private extension",
        front: Front::Direct,
        arrival: Arrival::Rounds(8),
        shapes: &[Shape {
            seq: 512,
            head_dim: 64,
            ctx_len: (257, 257),
        }],
        gen: Gen::Fixed(256),
        kv_quant: KvQuantMode::Quantized {
            tail_window: 2,
            outlier_keep_milli: 1000,
        },
        tenants: 8,
        weights: &[],
        priority1_pct: 0,
        nostream_pct: 0,
        list_len: 512,
        think_max_us: 0,
        check_sample: 8,
        check_span: 96,
        setup_reps: 5,
        rss_after: 120,
        ttft_limit_ms: 10.0,
        itl_limit_ms: 13.0,
        rates: [0; 3],
    },
    Workload {
        name: "tcp_closed_short",
        why: "per-request and fixed-per-step cost: 8 short streamed requests in flight over loopback TCP, no standing queue",
        front: Front::Tcp,
        arrival: Arrival::InFlight(MAX_BATCH),
        shapes: &[Shape {
            seq: 256,
            head_dim: 32,
            ctx_len: (16, 252),
        }],
        gen: Gen::Fixed(4),
        kv_quant: KvQuantMode::Off,
        tenants: 8,
        weights: &[],
        priority1_pct: 0,
        nostream_pct: 0,
        list_len: 4096,
        think_max_us: 4000,
        check_sample: 32,
        check_span: 2048,
        setup_reps: 5,
        rss_after: 7000,
        ttft_limit_ms: 17.0,
        itl_limit_ms: 10.0,
        rates: [0; 3],
    },
    Workload {
        name: "tcp_open_mixed",
        why: "the only standing queue: open-loop arrivals over two contexts, four weighted tenants, mixed lengths, streamed and done-only",
        front: Front::Tcp,
        arrival: Arrival::Open,
        shapes: &[
            Shape {
                seq: 1024,
                head_dim: 64,
                ctx_len: (64, 960),
            },
            Shape {
                seq: 256,
                head_dim: 32,
                ctx_len: (16, 192),
            },
        ],
        // 30 / 55 / 15 %, not the 50 / 35 / 15 first drafted: with half
        // the requests in the shortest class the median request latency
        // sat on the edge between two classes and read 30 ms or 65 ms by
        // the luck of the seed (45 / 40 / 15 still spread 22 %). Now the
        // median and the 75th percentile both fall well inside the middle
        // class.
        gen: Gen::Deck(&[(4, 6), (16, 11), (64, 3)]),
        kv_quant: KvQuantMode::Off,
        tenants: 4,
        weights: &[(1, 1), (2, 1), (3, 2), (4, 4)],
        priority1_pct: 25,
        nostream_pct: 20,
        list_len: 0,
        think_max_us: 0,
        check_sample: 32,
        check_span: 0,
        setup_reps: 5,
        rss_after: 480,
        ttft_limit_ms: 27.0,
        itl_limit_ms: 20.0,
        rates: [30, 44, 79],
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric of the record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
    /// How it is measured (the README glossary).
    pub how: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    how: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        how,
    }
}

const fn lo(name: &'static str, unit: &'static str, how: &'static str) -> Metric {
    e2e(name, unit, "lower", 0.0, how)
}

const fn hi(name: &'static str, unit: &'static str, how: &'static str) -> Metric {
    e2e(name, unit, "higher", 0.0, how)
}

/// End-to-end metrics, printed by every untraced run of every workload.
///
/// Every time among them is taken **at the reference speed** (`speed.rs`):
/// multiplied by the frozen reference reading of the benchmark's speed probe
/// over the probe's median reading, on the program's core, in the half
/// second the time ended in. As measured, ten runs of one commit spread
/// 10-25 % on this box whenever a neighbour on the host is busy (a core
/// sits on one of a few speed levels a quarter apart for seconds to
/// minutes); taken this way they spread 1-6 %. The bounds stay at the
/// quarter the contract allows (three times the worst spread seen is under
/// it) because the box is not ours: what the probe cannot see — a level
/// change that slows table lookups and the kernels differently — comes back
/// as spread. The upper percentile of each latency is the 75th because
/// nothing higher held still as measured: across workloads the 90th spread
/// up to 22 % (TTFT on the open loop, whose 95th sits on the knee of the
/// queueing curve and spread 76-93 %). Every run still prints each
/// latency's ladder up to p99 and its figures as measured, and the
/// per-layer metrics carry p95 / p99 / max of the step.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", "lower", 0.25, "median over the run's set-ups (3 on offline_long, 5 elsewhere) of: synthesise tensors, quantize_kv / quantize_weights, build the engine, register_context, and (TCP) bind + connect + hello; each at the reference speed by ten probe readings around it"),
    e2e("decode_tok_per_s", "tok/s", "higher", 0.25, "closed loop: median of 10 equal sub-windows of the measured phase, tokens stamped when their row became visible, each sub-window's rate at the reference speed; open loop: tokens delivered over the measured phase as measured (the offered load, unless the server saturates)"),
    e2e("ttft_p50_ms", "ms", "lower", 0.25, "request arrived (try_submit called / submit line written; think time over; open loop: due time) to first token row visible to the caller, at the reference speed; engine-direct at step boundaries; streamed requests only; pooled over the phase"),
    e2e("ttft_p75_ms", "ms", "lower", 0.25, "as ttft_p50_ms, nearest-rank 75th percentile"),
    e2e("itl_p50_ms", "ms", "lower", 0.25, "gap between consecutive token rows of one request, at the reference speed, pooled over the phase"),
    e2e("itl_p75_ms", "ms", "lower", 0.25, "as itl_p50_ms, nearest-rank 75th percentile"),
    e2e("req_p50_ms", "ms", "lower", 0.25, "request arrived to done, at the reference speed, every request sent in the phase that finished correctly"),
    e2e("req_p75_ms", "ms", "lower", 0.25, "as req_p50_ms, nearest-rank 75th percentile"),
    e2e("slo_ok_share", "ratio", "higher", 0.15, "share of requests sent that finished correctly with TTFT and every gap (at the reference speed) inside the workload's frozen limits (5x the seed commit's medians); a done-only request is held to the same envelope end to end; a failed request misses"),
    e2e("peak_rss_mb", "MB", "lower", 0.25, "VmHWM of the run's process, load generator included, read when the workload's fixed count of requests has finished (about half a run's worth: memory that grows with requests served is compared at equal counts); at the end of the phase if it never got that far"),
];

/// Per-layer metrics, printed by every traced run of every workload (0
/// where a layer is not on the workload's path).
pub const PER_LAYER: &[Metric] = &[
    lo("vq.quantize_kv_s", "s", "Session::quantize_kv over every K and V tensor of the set-up"),
    lo("vq.quantize_weights_s", "s", "Session::quantize_weights over every projection weight of the set-up"),
    lo("core.engine_build_ms", "ms", "Engine::builder()...build()"),
    lo("core.register_context_ms", "ms", "Engine::register_context summed over the workload's contexts (measured profiles + canonical plans)"),
    lo("core.plan_cold_us", "us", "Session::kv_plan of the serving attention shape on an empty PlanCache"),
    lo("core.plan_warm_us", "us", "the same call again, median of 200 (a cache hit)"),
    hi("core.plan_cache_hits", "count", "Engine::cache_stats().hits at the end of the traced phase"),
    lo("core.plan_cache_misses", "count", "Engine::cache_stats().misses at the end of the traced phase (registration plans + replans)"),
    hi("core.plan_cache_hit_ratio", "ratio", "hits / lookups during the traced phase alone; 1 when the steady state makes no lookup at all"),
    lo("core.plan_cache_entries", "count", "PlanCache::len at the end of the traced phase"),
    lo("core.plan_cache_save_load_ms", "ms", "Engine::save_plan_cache_to then PlanCache::load_from of the warmed cache"),
    lo("host_exec.attn_ragged_us_p50", "us", "Backend::run_attention_ragged replayed on the recorded batch compositions (0 with live KV on)"),
    lo("host_exec.attn_tailed_us_p50", "us", "Backend::run_attention_ragged_tailed replayed on recorded compositions with rebuilt extensions (0 with live KV off)"),
    lo("host_exec.score_pass_us_p50", "us", "host_exec::gemv_lut_batch alone on the same queries"),
    lo("host_exec.value_gemm_us_p50", "us", "Backend::run_gemm of a batch x seq weight matrix against V under the attention plan"),
    lo("host_exec.linear_gemm_us_p50", "us", "Backend::run_gemm of the attention output against W under the linear plan"),
    lo("host_exec.attn_bytes", "bytes", "packed K+V codes + K/V codebooks + queries + outputs of a median replayed attention call, computed from tensor sizes"),
    hi("host_exec.attn_gbps", "GB/s", "attn_bytes over the replayed attention median"),
    hi("host_exec.stream_copy_gbps", "GB/s", "bytes read + written per second by a 64 MiB slice copy measured in the same process (best of 5)"),
    hi("host_exec.attn_roofline_share", "ratio", "attn_gbps / stream_copy_gbps"),
    lo("host_exec.pool_scope_us", "us", "WorkerPool::shared().scope spawning one empty job per kernel thread, median"),
    hi("host_exec.step_kernel_share", "ratio", "replayed attention + linear time over step time, summed over the sampled steps"),
    lo("multi.step_us_p50", "us", "Engine::step wall time (TCP workloads: on the engine-direct rung driven by the same traffic)"),
    lo("multi.step_us_p95", "us", "as multi.step_us_p50"),
    lo("multi.step_us_max", "us", "as multi.step_us_p50"),
    hi("multi.steps", "count", "non-idle steps in the traced phase"),
    hi("multi.batch_mean", "count", "mean StepReport.batch over non-idle steps"),
    lo("multi.groups_mean", "count", "mean StepReport.groups over non-idle steps"),
    lo("multi.step_self_us_p50", "us", "step minus replayed attention, linear and KV append for the same composition"),
    lo("multi.submit_us_p50", "us", "Engine::try_submit wall time"),
    lo("multi.take_output_us_p50", "us", "Engine::take_output wall time"),
    lo("multi.idle_step_us_p50", "us", "Engine::step on an idle engine, 1000 calls after the phase"),
    lo("multi.queue_wait_steps_p50", "steps", "finished_step - submitted_step - (gen_tokens - 1) from RequestOutput"),
    lo("multi.queue_wait_steps_p95", "steps", "as multi.queue_wait_steps_p50"),
    lo("multi.rejected", "count", "ServerStats.rejected over the traced phase"),
    lo("multi.quarantined", "count", "ServerStats.quarantined over the traced phase"),
    lo("multi.cancelled", "count", "ServerStats.cancelled over the traced phase"),
    lo("tenant_kv.append_us_p50", "us", "TenantKv::append replayed on the workload's own output rows"),
    lo("tenant_kv.append_us_p99", "us", "as tenant_kv.append_us_p50 (the fold steps)"),
    lo("tenant_kv.kv_quant_us_per_step", "us", "mean StepReport.kv_quant_us (modelled, not wall time)"),
    lo("tenant_kv.folded_tokens", "count", "ServerStats.kv_folded_tokens over the traced phase"),
    lo("tenant_kv.outlier_groups", "count", "ServerStats.kv_outlier_groups over the traced phase"),
    lo("tenant_kv.outlier_share", "ratio", "outlier groups over folded K and V groups"),
    lo("tenant_kv.fold_nmse", "ratio", "ServerStats::kv_nmse over the traced phase"),
    lo("tenant_kv.ext_len_mean", "tokens", "mean private-extension length per lane over the traced steps"),
    lo("tenant_kv.out_max_abs_err", "abs", "largest |output - F32Tail output| over the checked requests"),
    lo("tenant_kv.kv_bytes_per_token", "bytes", "RequestOutput.kv_bytes over appended tokens (compressed private KV)"),
    lo("tenant_kv.kv_out_rel_err", "ratio", "relative L2 of the output rows against the same requests decoded under KvQuantMode::F32Tail, outside the timed window"),
    lo("driver.step_latency_p50_us", "us", "Client::metrics() histogram (log2 buckets, within 2x)"),
    lo("driver.step_latency_p99_us", "us", "as driver.step_latency_p50_us"),
    lo("driver.queue_depth_p50", "count", "Client::metrics() histogram of fair queue + engine queue before each step"),
    lo("driver.queue_depth_max", "count", "as driver.queue_depth_p50"),
    lo("driver.front_queued_mean", "count", "mean DriverStats.front_queued over the stats replies sampled every 50 ms on the first connection"),
    lo("driver.engine_queued_mean", "count", "as driver.front_queued_mean, DriverStats.engine_queued"),
    hi("driver.running_mean", "count", "as driver.front_queued_mean, DriverStats.running"),
    lo("driver.inflight_tokens_end", "count", "DriverStats.inflight_tokens once the phase has drained (must be 0)"),
    lo("driver.busy_share", "ratio", "steps x mean step latency over elapsed time, from the first and last sampled stats reply"),
    lo("driver.added_ttft_us_p50", "us", "depth ladder: TTFT median through an in-process Client minus engine-direct, same traffic (tcp_closed_short only)"),
    lo("driver.added_req_us_p50", "us", "depth ladder: request median through an in-process Client minus engine-direct"),
    lo("admission.admit_pop_us_p50", "us", "Admission::admit + pop on the workload's own requests, in isolation"),
    lo("admission.rejected_share", "ratio", "rejected frames over requests sent in the traced phase"),
    lo("admission.retry_after_ms_p50", "ms", "median retry_after_ms of those rejections (0 when none)"),
    lo("net.added_ttft_us_p50", "us", "depth ladder: TTFT median over loopback TCP (the untraced phase) minus in-process Client (tcp_closed_short only)"),
    lo("net.added_req_us_p50", "us", "depth ladder: request median over loopback TCP minus in-process Client"),
    lo("net.parse_submit_us_p50", "us", "proto::parse_frame on the workload's own submit lines"),
    lo("net.render_token_us_p50", "us", "proto::event_frame on the workload's own token rows"),
    lo("net.bytes_per_token_wire", "bytes", "token-frame bytes received over tokens received"),
    lo("net.ping_rtt_idle_us_p50", "us", "ping verb to pong frame on an idle server"),
    lo("net.ping_rtt_loaded_us_p50", "us", "the same every 50 ms on the first connection during the traced phase (reader, writer queue, socket, no engine)"),
    lo("net.connect_to_hello_us_p50", "us", "TcpStream::connect to hello frame parsed"),
    lo("net.writer_queue_peak", "frames", "MetricsSnapshot.writer_queue_peak"),
    lo("net.disconnects_slow_reader", "count", "MetricsSnapshot.disconnects[slow_reader]"),
    lo("net.disconnects_total", "count", "every disconnect the server counted before the load generator closed its connections, minus the probe connections the benchmark closed itself"),
    lo("net.rejected_total", "count", "sum of MetricsSnapshot.rejected"),
    hi("loadgen.sent", "count", "requests sent in the traced phase"),
    hi("loadgen.completed", "count", "of those, finished correctly"),
    lo("loadgen.failed", "count", "of those, rejected, errored, cut off, timed out, miscounted or mismatched"),
    lo("loadgen.fail_share", "ratio", "failed / sent"),
    hi("loadgen.slo_ok_share", "ratio", "share of requests sent that finished correctly within both frozen latency limits"),
    lo("loadgen.lag_p99_ms", "ms", "open loop: how late after its due time a request was written"),
    lo("loadgen.probe_us_p50", "us", "the speed probe's median reading on the program's core during the traced phase (reference 24.4): per-layer times are as measured, and this is what they were measured beside"),
    lo("loadgen.parse_frame_us_p50", "us", "json::parse on token frames rendered from the workload's own rows (the client's own cost)"),
    lo("loadgen.r1.ttft_p95_ms", "ms", "open loop: TTFT p95 at rate r1"),
    lo("loadgen.r2.ttft_p95_ms", "ms", "open loop: TTFT p95 at rate r2"),
    lo("loadgen.r3.ttft_p95_ms", "ms", "open loop: TTFT p95 at rate r3"),
    lo("loadgen.r1.backlog_end", "count", "open loop: requests due in the r1 phase still unfinished at its end"),
    lo("loadgen.r2.backlog_end", "count", "as loadgen.r1.backlog_end"),
    lo("loadgen.r3.backlog_end", "count", "as loadgen.r1.backlog_end"),
    hi("loadgen.slo_max_rate_rps", "1/s", "highest of r1..r3 with at least 95 % of sent requests inside both limits and no growing backlog"),
    lo("trace.overhead_pct", "%", "untraced vs traced phase of the same traffic in the same process: tokens per second lost (closed loops), median token gap gained (open loop, whose token rate is its offered load)"),
    lo("trace.residual_pct", "%", "request latency no span accounts for: engine-direct, time in a round outside submit / step / take_output; tcp_closed_short, the part of the traced req_p50_ms the depth ladder does not reconstruct; open loop, due-to-sent lateness over all request time"),
];

/// The command `BENCHMARK.json` names.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--bin",
    "bench",
    "--",
];

/// `BENCHMARK.json` as this crate defines it (`bench --print json`); the
/// smoke test holds the checked-in file to it.
pub fn benchmark_json() -> String {
    let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|c| quoted(c)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.join(", "),
        DURATION_S,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// The README's metric table (`bench --print glossary`).
pub fn glossary() -> String {
    let mut s = String::from(
        "| metric | unit | better | bound | how it is measured |\n|---|---|---|---|---|\n",
    );
    for (m, e2e) in END_TO_END
        .iter()
        .map(|m| (m, true))
        .chain(PER_LAYER.iter().map(|m| (m, false)))
    {
        let bound = if e2e {
            format!("{:.0} %", m.bound * 100.0)
        } else {
            "—".to_string()
        };
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name, m.unit, m.better, bound, m.how
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_the_contract() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER).collect();
        for m in &all {
            assert!(
                !m.name.is_empty()
                    && m.name.len() <= 64
                    && m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert_eq!(all.iter().filter(|o| o.name == m.name).count(), 1);
        }
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn every_request_a_workload_can_generate_is_admissible() {
        for w in &WORKLOADS {
            let max_gen = match w.gen {
                Gen::Fixed(n) | Gen::Uniform(_, n) => n,
                Gen::Deck(d) => d.iter().map(|&(g, _)| g).max().unwrap_or(0),
            };
            for s in w.shapes {
                assert!(s.ctx_len.0 >= 1 && s.ctx_len.0 <= s.ctx_len.1, "{}", w.name);
                if w.kv_quant == KvQuantMode::Off {
                    // Teacher-forced decode walks the shared context.
                    assert!(s.ctx_len.1 + max_gen - 1 <= s.seq, "{}", w.name);
                } else {
                    assert!(s.ctx_len.1 <= s.seq, "{}", w.name);
                }
            }
            if w.arrival == Arrival::Open {
                assert!(w.rates[0] < w.rates[1] && w.rates[1] < w.rates[2]);
            }
        }
    }
}
