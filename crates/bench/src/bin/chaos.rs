//! Chaos harness for the serving stack — the fault-tolerance acceptance
//! bin. Drives the engine driver and the TCP front end **under injected
//! fault schedules** (`vqllm_core::failpoint`) and gates that the
//! service degrades the way the design promises:
//!
//! * **kernel panic storm** — a burst of forced group panics quarantines
//!   each victim with a typed `internal` rejection; the driver keeps
//!   serving and healthy follow-ups decode **bitwise identical** to a
//!   solo `Session` drain;
//! * **wedged step** — an injected in-step delay blows the configured
//!   `step_timeout_us`; the watchdog sheds the running group (typed) and
//!   trips the breaker, after which healthy traffic completes normally;
//! * **forced KV exhaustion** — the `llm.step.append` failpoint
//!   quarantines exactly the offending request (`kv_capacity`); its
//!   batch-mate finishes bitwise-equal to solo;
//! * **driver kill over TCP** — a forced panic in the driver loop under
//!   a *supervised* loopback server: the pre-kill request resolves on
//!   the wire as `driver_restarted` with a computed retry hint, the
//!   connection survives, and post-restart requests stream solo-exact
//!   bytes.
//!
//! Cross-cutting gates (asserted with `--smoke`, exit 1 on failure): no
//! healthy request's bytes ever diverge from solo, no wait ever hangs
//! (every resolution observed within a generous deadline), and
//! `inflight_tokens` returns to exactly zero at idle after every
//! scenario. Results merge into `BENCH_serving.json` under `chaos_*`
//! keys (shared with `serve_bench`/`net_load`, existing keys preserved).

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use vq_llm::core::failpoint::{self, Action};
use vq_llm::net::json::{self, Json};
use vq_llm::net::{loopback_supervised, percentile, proto, spawn_driver, NetConfig};
use vq_llm::tensor::synth;
use vq_llm::{
    AdmissionConfig, ContextHandle, DecodeRequest, Engine, EngineFactory, NetRequest, RejectReason,
    ServeConfig, Session, SharedContext, SupervisorConfig, TicketEnd, VqAlgorithm,
};
use vqllm_bench::Report;

const SEQ: usize = 256;
const HEAD_DIM: usize = 32;
const MAX_BATCH: usize = 4;
/// Every wait in this harness bounds itself by this deadline; hitting it
/// is itself a gate failure (a hung client).
const WAIT: Duration = Duration::from_secs(120);

/// One shared (session, quantized context) pair — quantization is the
/// expensive part, and sharing the backend keeps decode bytes
/// comparable with solo drains.
fn harness() -> &'static (Session, SharedContext) {
    static HARNESS: OnceLock<(Session, SharedContext)> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let session = Session::builder()
            .cpu_threads(2)
            .weight_algo(VqAlgorithm::Gptvq2)
            .kv_algo(VqAlgorithm::Cq4)
            .build()
            .expect("session");
        let k = synth::kv_stream(SEQ, HEAD_DIM, 0.85, 31);
        let v = synth::kv_stream(SEQ, HEAD_DIM, 0.85, 32);
        let w = synth::correlated_channels(HEAD_DIM, HEAD_DIM, 4, 0.9, 33);
        let ctx = SharedContext::new(
            session.quantize_kv(&k, 1).expect("K"),
            session.quantize_kv(&v, 2).expect("V"),
            session.quantize_weights(&w, 3).expect("W"),
        )
        .expect("context");
        (session, ctx)
    })
}

fn engine(max_batch: usize, max_queue: usize) -> (Engine, ContextHandle) {
    let (session, ctx) = harness();
    let mut engine = Engine::builder()
        .backend(std::sync::Arc::clone(session.backend()))
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(max_batch, max_queue))
        .build()
        .expect("engine");
    let handle = engine.register_context(ctx.clone()).expect("register");
    (engine, handle)
}

fn factory(max_batch: usize, max_queue: usize) -> EngineFactory {
    Box::new(move || {
        let (engine, handle) = engine(max_batch, max_queue);
        Ok((engine, vec![handle]))
    })
}

fn query(tenant: u64) -> Vec<f32> {
    (0..HEAD_DIM)
        .map(|d| ((tenant as usize * 13 + d) as f32 * 0.21).sin())
        .collect()
}

/// Drains one request alone through `Session::serve` — the byte-level
/// reference every healthy request is gated against.
fn solo_reference(req: DecodeRequest) -> Vec<Vec<f32>> {
    let (session, ctx) = harness();
    let mut srv = session
        .serve(ctx.clone(), ServeConfig::new(1, 1))
        .expect("solo server");
    let handle = srv.submit(req).expect("admitted");
    srv.run_until_drained().expect("drained");
    srv.take_output(&handle).expect("finished").steps
}

/// The OK:/FAIL: gate ledger; any failure flips the process exit code
/// under `--smoke`.
struct Gates {
    failed: bool,
}

impl Gates {
    fn check(&mut self, ok: bool, what: &str) {
        if ok {
            println!("OK: {what}");
        } else {
            eprintln!("FAIL: {what}");
            self.failed = true;
        }
    }
}

/// Scenario totals folded into the BENCH keys.
#[derive(Default)]
struct Totals {
    quarantined: u64,
    restarts: u64,
    watchdog_sheds: u64,
    healthy_completed: usize,
    healthy_us: Vec<f64>,
}

/// Submits `n` healthy requests, waits for all of them, and gates each
/// against the solo reference. Returns how many completed bitwise-equal.
fn healthy_wave(
    client: &vq_llm::Client,
    h: ContextHandle,
    base_tenant: u64,
    n: usize,
    totals: &mut Totals,
) -> usize {
    let reqs: Vec<DecodeRequest> = (0..n)
        .map(|i| {
            let tenant = base_tenant + i as u64;
            DecodeRequest::new(tenant, query(tenant), 20 + i, 2 + i % 3)
        })
        .collect();
    let t0 = Instant::now();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| client.submit(NetRequest::new(h, r.clone())))
        .collect();
    let mut ok = 0;
    for (req, t) in reqs.into_iter().zip(&tickets) {
        match client.wait_timeout(t, WAIT) {
            Ok(TicketEnd::Finished(out)) if out.steps == solo_reference(req) => {
                totals.healthy_us.push(t0.elapsed().as_secs_f64() * 1e6);
                ok += 1;
            }
            Ok(TicketEnd::Finished(_)) => eprintln!("healthy decode diverged from solo"),
            other => eprintln!("healthy request did not finish: {other:?}"),
        }
    }
    totals.healthy_completed += ok;
    ok
}

/// Waits for the driver to go idle and returns its inflight-token gauge
/// (`u64::MAX` if it never idles or died).
fn idle_inflight(client: &vq_llm::Client) -> u64 {
    let deadline = Instant::now() + WAIT;
    while Instant::now() < deadline {
        match client.stats() {
            Some(s) if s.front_queued == 0 && s.engine_queued == 0 && s.running == 0 => {
                return s.inflight_tokens;
            }
            Some(_) => std::thread::sleep(Duration::from_millis(5)),
            None => break,
        }
    }
    u64::MAX
}

/// A burst of forced kernel panics: each victim quarantines typed, the
/// service survives, healthy traffic decodes solo-exact afterwards.
fn scenario_panic_storm(report: &mut Report, gates: &mut Gates, totals: &mut Totals, storm: usize) {
    report.section(&format!("scenario: kernel panic storm ({storm} forced)"));
    let (engine, h) = engine(MAX_BATCH, 64);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    failpoint::configure(
        "llm.step.group",
        Action::Panic("chaos: forced kernel panic".into()),
        0,
        Some(storm as u64),
    );
    let mut typed = 0;
    for i in 0..storm {
        let tenant = 100 + i as u64;
        let t = client.submit(NetRequest::new(
            h,
            DecodeRequest::new(tenant, query(tenant), 20, 3),
        ));
        match client.wait_timeout(&t, WAIT) {
            Ok(TicketEnd::Rejected {
                reason: RejectReason::Internal { .. },
                ..
            }) => typed += 1,
            other => eprintln!("storm victim {i} resolved unexpectedly: {other:?}"),
        }
    }
    failpoint::clear();
    let healthy = healthy_wave(&client, h, 200, storm + 1, totals);
    let m = client.metrics();
    let inflight = idle_inflight(&client);
    totals.quarantined += m.quarantined;
    report.line(format!(
        "  {typed}/{storm} victims typed internal; {healthy}/{} healthy solo-exact after; \
         quarantined {}, idle inflight {inflight}",
        storm + 1,
        m.quarantined
    ));
    gates.check(
        typed == storm,
        &format!("panic storm: all {storm} victims quarantined with typed internal rejections"),
    );
    gates.check(
        healthy == storm + 1,
        "panic storm: every healthy follow-up decoded bitwise-equal to solo",
    );
    gates.check(
        inflight == 0,
        "panic storm: inflight tokens exactly 0 at idle",
    );
    driver.shutdown();
}

/// An injected in-step delay wedges a step past `step_timeout_us`: the
/// watchdog sheds the running group typed and trips the breaker, then
/// healthy traffic completes at the (temporarily halved) batch.
fn scenario_wedged_step(report: &mut Report, gates: &mut Gates, totals: &mut Totals) {
    report.section("scenario: wedged step (watchdog + breaker)");
    let cfg = AdmissionConfig {
        step_timeout_us: Some(50_000),
        ..AdmissionConfig::default()
    };
    let (engine, h) = engine(MAX_BATCH, 64);
    let (client, driver) = spawn_driver(engine, cfg);

    failpoint::configure("llm.step.group", Action::DelayMs(150), 0, Some(1));
    let wedged = client.submit(NetRequest::new(h, DecodeRequest::new(1, query(1), 20, 4)));
    let end = client.wait_timeout(&wedged, WAIT);
    let shed_typed = matches!(
        end,
        Ok(TicketEnd::Rejected {
            reason: RejectReason::Internal { .. },
            ..
        })
    );
    if !shed_typed {
        eprintln!("wedged request resolved unexpectedly: {end:?}");
    }
    failpoint::clear();
    let healthy = healthy_wave(&client, h, 300, 3, totals);
    let m = client.metrics();
    let inflight = idle_inflight(&client);
    totals.watchdog_sheds += m.watchdog_sheds;
    report.line(format!(
        "  watchdog sheds {}, breaker trips {}, {healthy}/3 healthy solo-exact after, \
         idle inflight {inflight}",
        m.watchdog_sheds, m.breaker_trips
    ));
    gates.check(
        shed_typed && m.watchdog_sheds >= 1,
        "wedged step: watchdog shed the running group with a typed rejection",
    );
    gates.check(
        m.breaker_trips >= 1,
        "wedged step: the breaker tripped (halved batch cooldown)",
    );
    gates.check(
        healthy == 3,
        "wedged step: healthy traffic completed solo-exact after the breaker",
    );
    gates.check(
        inflight == 0,
        "wedged step: inflight tokens exactly 0 at idle",
    );
    driver.shutdown();
}

/// Forced KV exhaustion quarantines exactly the offending request; its
/// batch-mate is untouched and bitwise-equal to solo.
fn scenario_kv_exhaustion(report: &mut Report, gates: &mut Gates, totals: &mut Totals) {
    report.section("scenario: forced KV exhaustion (single-request quarantine)");
    let (engine, h) = engine(MAX_BATCH, 64);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    failpoint::configure(
        "llm.step.append",
        Action::Error("chaos: forced exhaustion".into()),
        0,
        Some(1),
    );
    let victim = client.submit(NetRequest::new(h, DecodeRequest::new(1, query(1), 20, 4)));
    let mate_req = DecodeRequest::new(2, query(2), 20, 4);
    let mate = client.submit(NetRequest::new(h, mate_req.clone()));
    let v_end = client.wait_timeout(&victim, WAIT);
    let v_typed = matches!(
        v_end,
        Ok(TicketEnd::Rejected {
            reason: RejectReason::KvCapacity { .. },
            ..
        })
    );
    if !v_typed {
        eprintln!("exhaustion victim resolved unexpectedly: {v_end:?}");
    }
    let mate_exact = matches!(
        client.wait_timeout(&mate, WAIT),
        Ok(TicketEnd::Finished(out)) if out.steps == solo_reference(mate_req)
    );
    failpoint::clear();
    let m = client.metrics();
    let inflight = idle_inflight(&client);
    totals.quarantined += m.quarantined;
    if mate_exact {
        totals.healthy_completed += 1;
    }
    report.line(format!(
        "  victim typed kv_capacity: {v_typed}; batch-mate solo-exact: {mate_exact}; \
         quarantined {}, idle inflight {inflight}",
        m.quarantined
    ));
    gates.check(
        v_typed && m.quarantined == 1,
        "kv exhaustion: exactly the offending request quarantined, typed kv_capacity",
    );
    gates.check(
        mate_exact,
        "kv exhaustion: the batch-mate finished bitwise-equal to solo",
    );
    gates.check(
        inflight == 0,
        "kv exhaustion: inflight tokens exactly 0 at idle",
    );
    driver.shutdown();
}

/// Reads frames until a terminal event for `id` (`done` or `rejected`);
/// returns (streamed rows, reject info if rejected).
#[allow(clippy::type_complexity)]
fn read_to_terminal(
    reader: &mut BufReader<TcpStream>,
) -> Result<(Vec<Vec<f32>>, Option<(String, u64)>), String> {
    let mut rows = Vec::new();
    for _ in 0..4096 {
        let mut line = String::new();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("EOF mid-request".into());
        }
        let v = json::parse(line.trim()).map_err(|e| format!("bad frame {line:?}: {e}"))?;
        match v.get("event").and_then(Json::as_str) {
            Some("token") => {
                rows.push(v.get("value").and_then(Json::as_f32s).ok_or("no value")?);
            }
            Some("done") => return Ok((rows, None)),
            Some("rejected") => {
                let reason = v
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                let retry = v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0);
                return Ok((rows, Some((reason, retry))));
            }
            _ => {}
        }
    }
    Err("no terminal frame within 4096 frames".into())
}

/// A forced driver kill under the supervised TCP front end: the pre-kill
/// request resolves `driver_restarted` on the wire, the connection
/// survives the restart, and post-restart requests stream solo-exact
/// bytes.
fn scenario_driver_kill(report: &mut Report, gates: &mut Gates, totals: &mut Totals, post: usize) {
    report.section(&format!(
        "scenario: driver kill under supervision ({post} healthy requests across the restart)"
    ));
    let server = loopback_supervised(
        factory(MAX_BATCH, 64),
        AdmissionConfig::default(),
        SupervisorConfig::default(),
        NetConfig::default(),
    )
    .expect("bind supervised loopback");
    let addr = server.local_addr();
    let client = server.client().clone();

    let stream = TcpStream::connect(addr).expect("connect");
    let _ = stream.set_read_timeout(Some(WAIT));
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut hello = String::new();
    reader.read_line(&mut hello).expect("hello");

    // Kill the driver on its next step: the in-flight request must come
    // back on the wire as a typed driver_restarted with a retry hint.
    failpoint::configure(
        "net.driver.step",
        Action::Panic("chaos: forced driver kill".into()),
        0,
        Some(1),
    );
    let q = query(7);
    let line = proto::submit_line(0, 7, &q, 20, 4, 0, None, true);
    writeln!(writer, "{line}").expect("submit");
    let (_, reject) = read_to_terminal(&mut reader).expect("pre-kill terminal");
    let restarted_typed =
        matches!(&reject, Some((code, retry)) if code == "driver_restarted" && *retry >= 1);
    if !restarted_typed {
        eprintln!("pre-kill request resolved unexpectedly: {reject:?}");
    }
    failpoint::clear();

    // The same connection keeps working against the rebuilt engine.
    let mut exact = 0;
    let t0 = Instant::now();
    for i in 0..post {
        let tenant = 400 + i as u64;
        let req = DecodeRequest::new(tenant, query(tenant), 20, 3);
        let line = proto::submit_line(0, tenant, &query(tenant), 20, 3, 0, None, true);
        writeln!(writer, "{line}").expect("submit");
        match read_to_terminal(&mut reader) {
            Ok((rows, None)) if rows == solo_reference(req) => {
                totals.healthy_us.push(t0.elapsed().as_secs_f64() * 1e6);
                exact += 1;
            }
            Ok((_, None)) => eprintln!("post-restart decode {i} diverged from solo"),
            other => eprintln!("post-restart request {i} failed: {other:?}"),
        }
    }
    totals.healthy_completed += exact;
    let m = client.metrics();
    let inflight = idle_inflight(&client);
    totals.restarts += m.restarts;
    report.line(format!(
        "  pre-kill typed driver_restarted: {restarted_typed}; {exact}/{post} post-restart \
         solo-exact; restarts {}, idle inflight {inflight}",
        m.restarts
    ));
    gates.check(
        restarted_typed,
        "driver kill: pre-kill request resolved driver_restarted with retry hint >= 1",
    );
    gates.check(
        exact == post && post >= 1,
        "driver kill: healthy requests completed solo-exact across the forced restart",
    );
    gates.check(m.restarts == 1, "driver kill: exactly one restart counted");
    gates.check(
        inflight == 0,
        "driver kill: inflight tokens exactly 0 at idle",
    );
    let drain = server.drain(Duration::from_secs(60));
    gates.check(
        drain.cancelled == 0,
        "driver kill: graceful drain completed without escalation",
    );
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
    let (storm, post) = if smoke { (3, 3) } else { (8, 6) };
    let mut report = Report::new(
        "chaos",
        "Injected fault schedules: quarantine, watchdog, supervised restart",
    );
    let mut gates = Gates { failed: false };
    let mut totals = Totals::default();

    // Failpoints are process-global: clear between scenarios so each
    // schedule is exactly what the scenario armed.
    failpoint::clear();
    scenario_panic_storm(&mut report, &mut gates, &mut totals, storm);
    failpoint::clear();
    scenario_wedged_step(&mut report, &mut gates, &mut totals);
    failpoint::clear();
    scenario_kv_exhaustion(&mut report, &mut gates, &mut totals);
    failpoint::clear();
    scenario_driver_kill(&mut report, &mut gates, &mut totals, post);
    failpoint::clear();

    totals
        .healthy_us
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let p99_us = percentile(&totals.healthy_us, 0.99);

    // Merge the chaos_* keys into BENCH_serving.json, preserving
    // whatever serve_bench / net_load last wrote there.
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
    set(&mut fields, "chaos_restarts", num(totals.restarts as f64));
    set(
        &mut fields,
        "chaos_quarantined",
        num(totals.quarantined as f64),
    );
    set(
        &mut fields,
        "chaos_watchdog_sheds",
        num(totals.watchdog_sheds as f64),
    );
    set(
        &mut fields,
        "chaos_healthy_requests",
        num(totals.healthy_completed as f64),
    );
    set(&mut fields, "chaos_healthy_p99_us", num(p99_us));
    let rendered = render_pretty(&fields);
    std::fs::write(&json_path, &rendered).expect("write BENCH_serving.json");
    report.section("BENCH_serving.json (chaos_* keys merged)");
    report.line(rendered.trim_end());
    report.finish();

    if gates.failed && smoke {
        std::process::exit(1);
    }
}
