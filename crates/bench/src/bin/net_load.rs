//! Concurrent load harness for the network serving front end
//! (`vq_llm::net`) — the production-hardening acceptance bin.
//!
//! Drives **hundreds of concurrent loopback TCP connections** against one
//! `NetServer` with a deliberately hostile traffic mix:
//!
//! * **streaming clients** — submit a streamed decode and consume every
//!   `token` frame promptly (the healthy fast-reader population);
//! * **poll clients** — submit with `stream:false`, wait for `done`, then
//!   exercise the `poll` verb (the request/response population);
//! * **slow readers** — submit a large streamed backlog and then never
//!   read a byte, so their bounded writer queues overflow and the server
//!   must evict them (and cancel their tickets) without ever blocking the
//!   driver thread;
//! * **mid-stream droppers** — submit, wait for `accepted`, and hang up,
//!   so reader-side EOF must cancel the orphaned work.
//!
//! Every healthy request's end-to-end latency (submit write → `done`
//! frame) is recorded; the run ends with a graceful `NetServer::drain`.
//! Results are **merged** into `BENCH_serving.json` (the file is shared
//! with `serve_bench`, so existing keys are preserved) under `net_load_*`
//! keys.
//!
//! `--smoke` asserts the CI gates (exit code 1 otherwise):
//!
//! * every healthy connection completes all of its requests with the
//!   right number of token frames;
//! * the writer-queue peak never exceeds the configured bound (the
//!   backpressure contract: slow readers cost their own connection, not
//!   unbounded server memory);
//! * every slow reader is evicted with a typed `slow_reader` disconnect
//!   and the driver still drains to idle with exactly zero inflight
//!   tokens (eviction cancelled the orphaned work);
//! * the final graceful drain completes without escalating to
//!   cancellation.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use vq_llm::net::json::{self, Json};
use vq_llm::net::{loopback_with, percentile, proto, NetConfig};
use vq_llm::tensor::synth;
use vq_llm::{AdmissionConfig, Engine, ServeConfig, Session, SharedContext, VqAlgorithm};
use vqllm_bench::Report;

const SEQ: usize = 256;
const HEAD_DIM: usize = 32;
/// The slow readers decode against a second, fatter context so each
/// token frame is ~1.2 KB: their backlog must exceed what the kernel
/// will buffer for a never-reading peer (~4.3 MB on default Linux
/// tcp_wmem/tcp_rmem) without requiring tens of thousands of decoded
/// tokens to get there.
const HEAD_DIM_SLOW: usize = 128;
const MAX_BATCH: usize = 8;

/// The configured writer-queue bound the smoke gate checks against.
const WRITER_QUEUE_CAP: usize = 32;

/// Tokens per healthy streaming request.
const STREAM_GEN: usize = 5;
/// Tokens per poll-mode request.
const POLL_GEN: usize = 3;
/// Tokens per slow-reader request.
const SLOW_GEN: usize = 240;
/// Requests each slow reader submits up front (7200 tokens ≈ 8.6 MB of
/// token frames — 2x the kernel's loopback absorption, so the server's
/// writer is guaranteed to block and the bounded queue to overflow).
const SLOW_REQS: usize = 30;
/// Tokens per mid-stream-dropper request (never fully delivered).
const DROP_GEN: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Stream,
    Poll,
    Slow,
    Drop,
}

struct Mix {
    stream: usize,
    poll: usize,
    slow: usize,
    drop: usize,
    /// Sequential requests per healthy connection.
    rounds: usize,
}

impl Mix {
    fn connections(&self) -> usize {
        self.stream + self.poll + self.slow + self.drop
    }
    fn healthy(&self) -> usize {
        self.stream + self.poll
    }
    fn healthy_requests(&self) -> usize {
        self.healthy() * self.rounds
    }
}

/// What one client thread observed.
struct Outcome {
    role: Role,
    /// Healthy requests that completed with the right frame count.
    completed: usize,
    /// End-to-end latencies (submit write → done frame), µs.
    latencies_us: Vec<f64>,
    /// Slow readers only: the server hung up on us (the desired end).
    evicted: bool,
    err: Option<String>,
}

fn query(tenant: u64, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|d| ((tenant as usize * 13 + d) as f32 * 0.21).sin())
        .collect()
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    // The accept backlog is finite and every client dials at once:
    // retry refused connections briefly instead of failing the run.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads frames until one matches `event`; `Err` carries what went wrong.
fn read_until_event(
    reader: &mut BufReader<TcpStream>,
    event: &str,
    max: usize,
) -> Result<Json, String> {
    for _ in 0..max {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err(format!("EOF while waiting for {event:?}"));
        }
        let v = json::parse(line.trim()).map_err(|e| format!("bad frame {line:?}: {e}"))?;
        if v.get("event").and_then(Json::as_str) == Some(event) {
            return Ok(v);
        }
        if v.get("event").and_then(Json::as_str) == Some("rejected") {
            return Err(format!("rejected while waiting for {event:?}: {line:?}"));
        }
    }
    Err(format!("no {event:?} frame within {max} frames"))
}

/// One client connection's whole life. `idx` picks the tenant id.
fn run_client(
    addr: SocketAddr,
    role: Role,
    idx: usize,
    rounds: usize,
    barrier: Arc<Barrier>,
) -> Outcome {
    let mut out = Outcome {
        role,
        completed: 0,
        latencies_us: Vec::new(),
        evicted: false,
        err: None,
    };
    let fail = |out: &mut Outcome, msg: String| {
        out.err = Some(msg);
    };

    let stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            barrier.wait();
            fail(&mut out, format!("connect: {e}"));
            return out;
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(120)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => {
            barrier.wait();
            fail(&mut out, format!("clone: {e}"));
            return out;
        }
    };
    let mut reader = BufReader::new(stream);
    if let Err(e) = read_until_event(&mut reader, "hello", 4) {
        barrier.wait();
        fail(&mut out, format!("hello: {e}"));
        return out;
    }

    let tenant = 1 + idx as u64;
    let q = query(
        tenant,
        if role == Role::Slow {
            HEAD_DIM_SLOW
        } else {
            HEAD_DIM
        },
    );
    let context_len = 16 + (idx % 64);
    barrier.wait();

    match role {
        Role::Stream | Role::Poll => {
            let (gen, streamed) = match role {
                Role::Stream => (STREAM_GEN, true),
                _ => (POLL_GEN, false),
            };
            for _ in 0..rounds {
                let t0 = Instant::now();
                let line = proto::submit_line(0, tenant, &q, context_len, gen, 0, None, streamed);
                if let Err(e) = writeln!(writer, "{line}") {
                    fail(&mut out, format!("submit: {e}"));
                    return out;
                }
                let accepted = match read_until_event(&mut reader, "accepted", 8) {
                    Ok(v) => v,
                    Err(e) => {
                        fail(&mut out, format!("accepted: {e}"));
                        return out;
                    }
                };
                let mut tokens = 0usize;
                loop {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) => {
                            fail(&mut out, "EOF mid-request".to_string());
                            return out;
                        }
                        Ok(_) => {}
                        Err(e) => {
                            fail(&mut out, format!("read: {e}"));
                            return out;
                        }
                    }
                    let v = match json::parse(line.trim()) {
                        Ok(v) => v,
                        Err(e) => {
                            fail(&mut out, format!("bad frame {line:?}: {e}"));
                            return out;
                        }
                    };
                    match v.get("event").and_then(Json::as_str) {
                        Some("token") => tokens += 1,
                        Some("done") => break,
                        Some("rejected") => {
                            fail(&mut out, format!("rejected: {line:?}"));
                            return out;
                        }
                        _ => {}
                    }
                }
                let want = if streamed { gen } else { 0 };
                if tokens != want {
                    fail(&mut out, format!("{tokens} token frames, wanted {want}"));
                    return out;
                }
                out.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                out.completed += 1;
                if role == Role::Poll {
                    // Exercise the poll verb on the finished request.
                    let id = accepted.get("id").and_then(Json::as_u64).unwrap_or(0);
                    if writeln!(writer, "{{\"verb\":\"poll\",\"id\":{id}}}").is_err() {
                        fail(&mut out, "poll write failed".to_string());
                        return out;
                    }
                    match read_until_event(&mut reader, "status", 4) {
                        Ok(v) if v.get("state").and_then(Json::as_str) == Some("finished") => {}
                        Ok(v) => {
                            fail(&mut out, format!("poll state: {v:?}"));
                            return out;
                        }
                        Err(e) => {
                            fail(&mut out, format!("poll: {e}"));
                            return out;
                        }
                    }
                }
            }
        }
        Role::Slow => {
            // Submit a frame backlog far past socket buffering (against
            // the fat context, ctx index 1), then go silent: the server
            // must evict this connection instead of buffering without
            // bound or stalling the driver.
            for _ in 0..SLOW_REQS {
                let line = proto::submit_line(1, tenant, &q, 8, SLOW_GEN, 0, None, true);
                if writeln!(writer, "{line}").is_err() {
                    out.evicted = true; // already hung up on — even better
                    return out;
                }
            }
            // Never read; probe with pings until a write fails, which is
            // the client-visible proof the server hung up. (Eviction is
            // guaranteed — the backlog exceeds kernel buffering — so the
            // deadline only bounds a regression.)
            let deadline = Instant::now() + Duration::from_secs(120);
            while Instant::now() < deadline {
                if writeln!(writer, "{{\"verb\":\"ping\"}}").is_err() {
                    out.evicted = true;
                    return out;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            fail(&mut out, "slow reader was never evicted".to_string());
        }
        Role::Drop => {
            let line = proto::submit_line(0, tenant, &q, context_len, DROP_GEN, 0, None, true);
            if let Err(e) = writeln!(writer, "{line}") {
                fail(&mut out, format!("submit: {e}"));
                return out;
            }
            if let Err(e) = read_until_event(&mut reader, "accepted", 8) {
                fail(&mut out, format!("accepted: {e}"));
                return out;
            }
            // Hang up mid-stream; the server's reader sees EOF and must
            // cancel the orphaned ticket.
        }
    }
    out
}

fn disconnects(m: &vq_llm::net::MetricsSnapshot, code: &str) -> u64 {
    m.disconnects
        .iter()
        .find(|(c, _)| *c == code)
        .map_or(0, |&(_, n)| n)
}

/// Upserts `key` in a top-level JSON object.
fn set(fields: &mut Vec<(String, Json)>, key: &str, v: Json) {
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some(slot) => slot.1 = v,
        None => fields.push((key.to_string(), v)),
    }
}

fn num(n: f64) -> Json {
    Json::Num((n * 10.0).round() / 10.0)
}

/// One key per line — the same human-diffable shape `serve_bench` writes.
fn render_pretty(fields: &[(String, Json)]) -> String {
    let mut s = String::from("{\n");
    for (i, (k, v)) in fields.iter().enumerate() {
        s.push_str("  ");
        json::push_escaped(k, &mut s);
        s.push_str(": ");
        s.push_str(&json::to_string(v));
        if i + 1 < fields.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("}\n");
    s
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mix = if smoke {
        Mix {
            stream: 96,
            poll: 24,
            slow: 4,
            drop: 4,
            rounds: 1,
        }
    } else {
        Mix {
            stream: 144,
            poll: 36,
            slow: 6,
            drop: 6,
            rounds: 2,
        }
    };
    let mut report = Report::new(
        "net_load",
        "Concurrent TCP load: backpressure, eviction, and drain under a hostile mix",
    );

    let session = Session::builder()
        .cpu_threads(2)
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .build()
        .expect("session");
    let quantize = |dim: usize, seed: u64| {
        let k = synth::kv_stream(SEQ, dim, 0.85, seed);
        let v = synth::kv_stream(SEQ, dim, 0.85, seed + 1);
        let w = synth::correlated_channels(dim, dim, 4, 0.9, seed + 2);
        SharedContext::new(
            session.quantize_kv(&k, seed).expect("K"),
            session.quantize_kv(&v, seed + 1).expect("V"),
            session.quantize_weights(&w, seed + 2).expect("W"),
        )
        .expect("context")
    };
    let ctx = quantize(HEAD_DIM, 31);
    let ctx_slow = quantize(HEAD_DIM_SLOW, 41);
    let mut engine = Engine::builder()
        .backend(std::sync::Arc::clone(session.backend()))
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(MAX_BATCH, 4096))
        .build()
        .expect("engine");
    let handle = engine.register_context(ctx).expect("register");
    let handle_slow = engine.register_context(ctx_slow).expect("register slow");

    let cfg = AdmissionConfig {
        max_pending: 4096,
        ..AdmissionConfig::default()
    };
    let net = NetConfig {
        max_connections: 1024,
        writer_queue_cap: WRITER_QUEUE_CAP,
        slow_reader_grace: Duration::from_millis(300),
        ..NetConfig::default()
    };
    let server = loopback_with(engine, vec![handle, handle_slow], cfg, net).expect("bind loopback");
    let addr = server.local_addr();
    let client = server.client().clone();

    // Spawn every connection, synchronize on a barrier so the load lands
    // at once, and run the mix.
    let conns = mix.connections();
    let barrier = Arc::new(Barrier::new(conns + 1));
    let mut handles = Vec::with_capacity(conns);
    let mut idx = 0usize;
    for (role, n) in [
        (Role::Stream, mix.stream),
        (Role::Poll, mix.poll),
        (Role::Drop, mix.drop),
        (Role::Slow, mix.slow),
    ] {
        for _ in 0..n {
            let barrier = Arc::clone(&barrier);
            let rounds = mix.rounds;
            let i = idx;
            handles.push((
                role,
                std::thread::spawn(move || run_client(addr, role, i, rounds, barrier)),
            ));
            idx += 1;
        }
    }
    barrier.wait();
    let t0 = Instant::now();

    // Join the healthy and dropper threads first; slow readers sit
    // silent until told to hang up.
    let mut outcomes = Vec::with_capacity(conns);
    let mut slow_handles = Vec::new();
    for (role, h) in handles {
        if role == Role::Slow {
            slow_handles.push(h);
        } else {
            outcomes.push(h.join().expect("client thread"));
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    // Every slow reader must be evicted with a typed disconnect.
    let evict_deadline = Instant::now() + Duration::from_secs(60);
    let slow_evictions = loop {
        let n = disconnects(&client.metrics(), "slow_reader");
        if n >= mix.slow as u64 || Instant::now() >= evict_deadline {
            break n;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    for h in slow_handles {
        outcomes.push(h.join().expect("slow client thread"));
    }

    // Evictions and EOFs cancel orphaned work: the driver must reach
    // idle with exactly zero inflight tokens before the drain.
    let idle_deadline = Instant::now() + Duration::from_secs(120);
    let mut idle_inflight = u64::MAX;
    while Instant::now() < idle_deadline {
        match client.stats() {
            Some(s) if s.front_queued == 0 && s.engine_queued == 0 && s.running == 0 => {
                idle_inflight = s.inflight_tokens;
                break;
            }
            Some(_) => std::thread::sleep(Duration::from_millis(10)),
            None => break,
        }
    }

    let m = client.metrics();
    let drain_report = server.drain(Duration::from_secs(60));

    let completed: usize = outcomes.iter().map(|o| o.completed).sum();
    let mut latencies: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let p50_us = percentile(&latencies, 0.50);
    let p99_us = percentile(&latencies, 0.99);
    let mean_us = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let max_us = latencies.iter().fold(0.0f64, |a, &b| a.max(b));
    let failures: Vec<&Outcome> = outcomes
        .iter()
        .filter(|o| o.err.is_some() && o.role != Role::Slow)
        .collect();

    report.section(&format!(
        "{conns} concurrent loopback connections ({} streaming + {} poll + {} slow + {} dropper), \
         batch {MAX_BATCH}, writer queue cap {WRITER_QUEUE_CAP}",
        mix.stream, mix.poll, mix.slow, mix.drop
    ));
    report.line(format!(
        "  healthy requests: {completed}/{} completed in {elapsed_s:.2} s",
        mix.healthy_requests()
    ));
    report.line(format!(
        "  e2e latency p50 {p50_us:9.0} us   p99 {p99_us:9.0} us   mean {mean_us:9.0} us   \
         max {max_us:9.0} us"
    ));
    report.line(format!(
        "  writer queue peak {} (cap {WRITER_QUEUE_CAP}); disconnects: slow_reader {}, eof {}, \
         error {}, idle {}",
        m.writer_queue_peak,
        disconnects(&m, "slow_reader"),
        disconnects(&m, "eof"),
        disconnects(&m, "error"),
        disconnects(&m, "idle"),
    ));
    report.line(format!(
        "  connections total {}, decoded tokens {}, idle inflight {idle_inflight}",
        m.connections_total, m.decoded_tokens
    ));
    report.line(format!(
        "  drain: completed {}, cancelled {}",
        drain_report.completed, drain_report.cancelled
    ));
    for f in &failures {
        report.line(format!(
            "  FAILURE: {}",
            f.err.as_deref().unwrap_or("unknown")
        ));
    }

    // Merge the net_load_* keys into BENCH_serving.json, preserving
    // whatever serve_bench last wrote there.
    let mut json_path = vqllm_bench::results_dir();
    json_path.pop();
    json_path.push("BENCH_serving.json");
    let mut fields = match std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|s| json::parse(&s).ok())
    {
        Some(Json::Obj(fields)) => fields,
        _ => Vec::new(),
    };
    set(&mut fields, "net_load_connections", num(conns as f64));
    set(
        &mut fields,
        "net_load_requests",
        num(mix.healthy_requests() as f64),
    );
    set(&mut fields, "net_load_completed", num(completed as f64));
    set(&mut fields, "net_load_p50_us", num(p50_us));
    set(&mut fields, "net_load_p99_us", num(p99_us));
    set(&mut fields, "net_load_mean_us", num(mean_us));
    set(&mut fields, "net_load_max_us", num(max_us));
    set(
        &mut fields,
        "net_load_writer_queue_peak",
        num(m.writer_queue_peak as f64),
    );
    set(
        &mut fields,
        "net_load_writer_queue_cap",
        num(WRITER_QUEUE_CAP as f64),
    );
    set(
        &mut fields,
        "net_load_slow_reader_evictions",
        num(slow_evictions as f64),
    );
    set(
        &mut fields,
        "net_load_eof_disconnects",
        num(disconnects(&m, "eof") as f64),
    );
    set(
        &mut fields,
        "net_load_drain_completed",
        num(drain_report.completed as f64),
    );
    set(
        &mut fields,
        "net_load_drain_cancelled",
        num(drain_report.cancelled as f64),
    );
    set(&mut fields, "net_load_elapsed_s", num(elapsed_s));
    set(
        &mut fields,
        "net_load_decoded_tokens",
        num(m.decoded_tokens as f64),
    );
    let rendered = render_pretty(&fields);
    std::fs::write(&json_path, &rendered).expect("write BENCH_serving.json");
    report.section("BENCH_serving.json (net_load_* keys merged)");
    report.line(rendered.trim_end());
    report.finish();

    // --- The acceptance gates (asserted in --smoke / CI) ---
    let mut failed = false;
    if completed == mix.healthy_requests() && failures.is_empty() {
        println!(
            "OK: all {} healthy requests over {} connections completed",
            completed,
            mix.healthy()
        );
    } else {
        eprintln!(
            "FAIL: {}/{} healthy requests completed ({} client failures)",
            completed,
            mix.healthy_requests(),
            failures.len()
        );
        failed = true;
    }
    if m.writer_queue_peak <= WRITER_QUEUE_CAP as u64 {
        println!(
            "OK: writer queue peak {} within the configured bound {}",
            m.writer_queue_peak, WRITER_QUEUE_CAP
        );
    } else {
        eprintln!(
            "FAIL: writer queue peak {} exceeded the configured bound {}",
            m.writer_queue_peak, WRITER_QUEUE_CAP
        );
        failed = true;
    }
    let slow_confirmed = outcomes
        .iter()
        .filter(|o| o.role == Role::Slow && o.evicted)
        .count();
    if slow_evictions >= mix.slow as u64 && slow_confirmed == mix.slow {
        println!(
            "OK: all {} slow readers evicted (typed slow_reader disconnects, client-confirmed)",
            mix.slow
        );
    } else {
        eprintln!(
            "FAIL: slow readers evicted {slow_evictions}/{} (client-confirmed {slow_confirmed})",
            mix.slow
        );
        failed = true;
    }
    if idle_inflight == 0 {
        println!("OK: driver idled with exactly zero inflight tokens before the drain");
    } else {
        eprintln!("FAIL: driver inflight tokens at idle = {idle_inflight} (expected 0)");
        failed = true;
    }
    if drain_report.cancelled == 0 {
        println!(
            "OK: graceful drain completed without escalation ({} finished under drain)",
            drain_report.completed
        );
    } else {
        eprintln!(
            "FAIL: drain escalated to cancellation ({} cancelled)",
            drain_report.cancelled
        );
        failed = true;
    }
    if failed && smoke {
        std::process::exit(1);
    }
}
