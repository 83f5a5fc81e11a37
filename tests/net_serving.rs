//! End-to-end tests of the network serving front end (`vq_llm::net`):
//! driver-thread lifecycle, weighted fairness under contention, SLO
//! deadline rejection, cancellation, and — the acceptance pin — a
//! loopback TCP client whose streamed token frames are **bitwise**
//! identical to a solo in-process engine drain of the same requests.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

use vq_llm::net::json::{self, Json};
use vq_llm::net::{loopback_with, proto, spawn_driver, NetConfig};
use vq_llm::tensor::synth;
use vq_llm::{
    AdmissionConfig, ContextHandle, DecodeRequest, Engine, NetRequest, NetServer, RateLimitConfig,
    RejectReason, RequestStatus, ServeConfig, Session, SharedContext, StreamEvent, TicketEnd,
    VqAlgorithm,
};

const SEQ: usize = 256;
const HEAD_DIM: usize = 32;

/// One shared (session, quantized context) pair for the whole file —
/// quantization is the expensive part.
fn harness() -> &'static (Session, SharedContext) {
    static HARNESS: OnceLock<(Session, SharedContext)> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let session = Session::builder()
            .cpu_threads(2)
            .weight_algo(VqAlgorithm::Gptvq2)
            .kv_algo(VqAlgorithm::Cq4)
            .build()
            .expect("valid session");
        let k = synth::kv_stream(SEQ, HEAD_DIM, 0.85, 31);
        let v = synth::kv_stream(SEQ, HEAD_DIM, 0.85, 32);
        let w = synth::correlated_channels(HEAD_DIM, HEAD_DIM, 4, 0.9, 33);
        let ctx = SharedContext::new(
            session.quantize_kv(&k, 1).expect("quantize K"),
            session.quantize_kv(&v, 2).expect("quantize V"),
            session.quantize_weights(&w, 3).expect("quantize W"),
        )
        .expect("valid context");
        (session, ctx)
    })
}

/// A fresh engine over the harness context, sharing the harness backend
/// so decode bytes are comparable with solo drains.
fn engine(max_batch: usize, max_queue: usize) -> (Engine, ContextHandle) {
    let (session, ctx) = harness();
    let mut engine = Engine::builder()
        .backend(std::sync::Arc::clone(session.backend()))
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(max_batch, max_queue))
        .build()
        .expect("valid engine");
    let handle = engine.register_context(ctx.clone()).expect("register");
    (engine, handle)
}

fn query(tenant: u64) -> Vec<f32> {
    (0..HEAD_DIM)
        .map(|d| ((tenant as usize * 13 + d) as f32 * 0.21).sin())
        .collect()
}

/// Drains one request alone through a fresh one-context engine at batch
/// 1 — the solo reference the driven/TCP paths must reproduce bitwise.
fn solo_reference(req: DecodeRequest) -> Vec<Vec<f32>> {
    let (mut solo, h) = engine(1, 1);
    let ticket = solo.try_submit(h, req).expect("admitted");
    solo.run_until_drained().expect("drained");
    solo.take_output(&ticket).expect("finished").steps
}

/// The driver completes work submitted through the thread-safe client,
/// resolves waits, streams tokens in order, and its decode bytes match a
/// solo drain.
#[test]
fn driver_completes_streams_and_matches_solo() {
    let (engine, h) = engine(2, 16);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    let req = DecodeRequest::new(7, query(7), 20, 3);
    let (ev_tx, ev_rx) = std::sync::mpsc::channel();
    let ticket = client.submit_streaming(
        NetRequest::new(h, req.clone()),
        Box::new(move |ev: StreamEvent| {
            let _ = ev_tx.send(ev);
        }),
    );
    let plain = client.submit(NetRequest::new(h, DecodeRequest::new(8, query(8), 50, 2)));

    let end = client.wait(&ticket).expect("driver alive");
    let TicketEnd::Finished(out) = end else {
        panic!("streamed request did not finish: {end:?}");
    };
    assert_eq!(out.steps.len(), 3);
    assert_eq!(out.steps, solo_reference(req), "driver diverged from solo");

    // Sink saw: accepted, token 0..3 (ascending, bitwise equal), done.
    // The ticket resolves just before the terminal sink event fires (so
    // poll-after-done is never stale), so drain the channel up to `done`
    // instead of snapshotting it.
    let mut events: Vec<StreamEvent> = Vec::new();
    loop {
        let ev = ev_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("sink event");
        let done = matches!(ev, StreamEvent::Done { .. });
        events.push(ev);
        if done {
            break;
        }
    }
    assert!(matches!(events[0], StreamEvent::Accepted { .. }));
    let tokens: Vec<(usize, Vec<f32>)> = events
        .iter()
        .filter_map(|e| match e {
            StreamEvent::Token { index, value, .. } => Some((*index, value.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(tokens.len(), 3);
    for (i, (index, value)) in tokens.iter().enumerate() {
        assert_eq!(*index, i, "tokens arrive in decode order");
        assert_eq!(value, &out.steps[i], "streamed row differs from output");
    }
    assert!(matches!(
        events.last(),
        Some(StreamEvent::Done { tokens: 3, .. })
    ));

    let plain_end = client
        .wait_timeout(&plain, Duration::from_secs(30))
        .expect("resolves well before the deadline");
    assert!(matches!(plain_end, TicketEnd::Finished(_)));
    assert_eq!(client.poll(&plain), RequestStatus::Finished { tokens: 2 });

    let stats = client.stats().expect("driver alive");
    assert_eq!(stats.server.completed, 2);
    let m = client.metrics();
    assert_eq!(m.admitted, 2);
    assert_eq!(m.decoded_tokens, 5);
    assert!(m.steps > 0);
    driver.shutdown();
}

/// Weighted fairness under contention: a weight-2 tenant backlogged
/// against a weight-1 tenant is served ~2:1. A long blocker request pins
/// the engine's single slot while both tenants queue, so the service
/// order is decided entirely by the fair queue.
#[test]
fn weighted_tenants_are_served_two_to_one() {
    let (engine, h) = engine(1, 4);
    let cfg = AdmissionConfig {
        weights: vec![(1, 2), (2, 1)],
        ..AdmissionConfig::default()
    };
    let (client, driver) = spawn_driver(engine, cfg);

    // The blocker holds the only decode slot for 64 steps — long enough
    // for every contended submission below to be queued behind it.
    let blocker = client.submit(NetRequest::new(h, DecodeRequest::new(99, query(99), 8, 64)));

    let mut tickets = Vec::new();
    for i in 0..12 {
        for tenant in [1u64, 2] {
            let req = DecodeRequest::new(tenant, query(tenant), 10 + i, 2);
            tickets.push((tenant, client.submit(NetRequest::new(h, req))));
        }
    }

    assert!(matches!(client.wait(&blocker), Ok(TicketEnd::Finished(_))));
    let mut served: Vec<(u64, u64)> = Vec::new(); // (finished_step, tenant)
    for (tenant, ticket) in &tickets {
        match client.wait(ticket).expect("driver alive") {
            TicketEnd::Finished(out) => served.push((out.finished_step, *tenant)),
            other => panic!("tenant {tenant} did not finish: {other:?}"),
        }
    }
    served.sort_unstable();

    // With one slot, completion order == grant order. Every prefix of the
    // grant order stays within one grant of the ideal 2:1 share, so check
    // a mid-drain window: of the first 9 grants, tenant 1 gets 6 ± 1.
    let first9: Vec<u64> = served.iter().take(9).map(|&(_, t)| t).collect();
    let ones = first9.iter().filter(|&&t| t == 1).count();
    assert!(
        (5..=7).contains(&ones),
        "weight-2 tenant got {ones}/9 early grants (expected ~6): {first9:?}"
    );
    // Everyone finishes — weighted fairness never starves the light
    // tenant.
    assert_eq!(served.len(), 24);

    let m = client.metrics();
    let t1 = m.tenants.iter().find(|t| t.tenant == 1).expect("tenant 1");
    let t2 = m.tenants.iter().find(|t| t.tenant == 2).expect("tenant 2");
    assert_eq!(t1.tokens, 24);
    assert_eq!(t2.tokens, 24);
    driver.shutdown();
}

/// SLO admission: an impossible deadline rejects immediately — typed,
/// with a positive computed retry-after — and never enters the queue.
#[test]
fn impossible_deadline_rejects_immediately_with_retry_after() {
    let (engine, h) = engine(8, 64);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    let req = DecodeRequest::new(1, query(1), 10, 64);
    let ticket = client.submit(NetRequest::new(h, req).deadline_ms(0));
    // Resolution is immediate (no decode work pending), so a short wait
    // is generous.
    let end = client
        .wait_timeout(&ticket, Duration::from_secs(10))
        .expect("deadline rejections resolve immediately");
    match end {
        TicketEnd::Rejected {
            reason: RejectReason::Deadline { retry_after_ms },
            retry_after_ms: retry,
        } => {
            assert!(retry_after_ms >= 1, "retry_after_ms must be positive");
            assert_eq!(retry, retry_after_ms);
        }
        other => panic!("expected a typed deadline rejection, got {other:?}"),
    }
    assert!(matches!(
        client.poll(&ticket),
        RequestStatus::Rejected {
            reason: RejectReason::Deadline { .. }
        }
    ));

    // A generous deadline admits and completes.
    let ok = client
        .submit(NetRequest::new(h, DecodeRequest::new(2, query(2), 10, 2)).deadline_ms(60_000));
    assert!(matches!(client.wait(&ok), Ok(TicketEnd::Finished(_))));

    let m = client.metrics();
    assert_eq!(
        m.rejected.iter().find(|(c, _)| *c == "deadline"),
        Some(&("deadline", 1))
    );
    assert_eq!(m.admitted, 1);
    driver.shutdown();
}

/// Cancellation through the driver: a queued request resolves to the
/// typed `Cancelled` tombstone and frees its fair-queue entry.
#[test]
fn cancel_through_the_driver_resolves_typed() {
    let (engine, h) = engine(1, 8);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    let blocker = client.submit(NetRequest::new(h, DecodeRequest::new(9, query(9), 8, 32)));
    let victim = client.submit(NetRequest::new(h, DecodeRequest::new(1, query(1), 10, 4)));
    client.cancel(&victim);
    let end = client.wait(&victim).expect("driver alive");
    assert!(
        matches!(
            end,
            TicketEnd::Rejected {
                reason: RejectReason::Cancelled,
                ..
            }
        ),
        "{end:?}"
    );
    assert!(matches!(client.wait(&blocker), Ok(TicketEnd::Finished(_))));
    driver.shutdown();
}

/// The acceptance pin: tokens streamed over a real TCP socket are
/// bitwise identical to a solo engine drain of the same request. Also
/// exercises the `poll`, `cancel`, and `stats` verbs end to end.
#[test]
fn loopback_tcp_streamed_tokens_are_bitwise_equal_to_solo_session() {
    let (engine, h) = engine(2, 16);
    let server = NetServer::bind(
        engine,
        vec![h],
        AdmissionConfig::default(),
        ("127.0.0.1", 0),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    let read_frame = |reader: &mut BufReader<TcpStream>| -> Json {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server frame");
        json::parse(line.trim()).unwrap_or_else(|e| panic!("bad frame {line:?}: {e}"))
    };

    // The handshake comes first: protocol version + line cap.
    let hello = read_frame(&mut reader);
    assert_eq!(hello.get("event").and_then(Json::as_str), Some("hello"));
    assert_eq!(
        hello.get("proto").and_then(Json::as_u64),
        Some(vq_llm::net::PROTO_VERSION)
    );
    assert!(hello
        .get("line_length_cap")
        .and_then(Json::as_u64)
        .is_some());

    // ping/pong keepalive round-trips on the same connection.
    writeln!(writer, "{{\"verb\":\"ping\"}}").expect("send ping");
    let pong = read_frame(&mut reader);
    assert_eq!(pong.get("event").and_then(Json::as_str), Some("pong"));

    // Three ragged streaming requests on one connection.
    let specs: [(u64, usize, usize); 3] = [(1, 30, 4), (2, 150, 2), (3, 77, 5)];
    for &(tenant, context_len, gen) in &specs {
        let line = proto::submit_line(0, tenant, &query(tenant), context_len, gen, 0, None, true);
        writeln!(writer, "{line}").expect("send submit");
    }

    // Collect frames until every request is done. Ids are assigned in
    // submission order; `accepted` events confirm the mapping.
    let mut accepted_ids: Vec<u64> = Vec::new();
    let mut tokens: std::collections::HashMap<u64, Vec<(usize, Vec<f32>)>> =
        std::collections::HashMap::new();
    let mut done = std::collections::HashSet::new();
    while done.len() < specs.len() {
        let v = read_frame(&mut reader);
        let event = v.get("event").and_then(Json::as_str).expect("event");
        let id = v.get("id").and_then(Json::as_u64).expect("id");
        match event {
            "accepted" => accepted_ids.push(id),
            "token" => {
                let index = v.get("index").and_then(Json::as_usize).expect("index");
                let value = v.get("value").and_then(Json::as_f32s).expect("value");
                tokens.entry(id).or_default().push((index, value));
            }
            "done" => {
                assert!(done.insert(id), "duplicate done for {id}");
            }
            other => panic!("unexpected event {other:?}: {v:?}"),
        }
    }
    assert_eq!(accepted_ids.len(), specs.len());

    for (&(tenant, context_len, gen), &id) in specs.iter().zip(&accepted_ids) {
        let got = tokens.remove(&id).unwrap_or_default();
        assert_eq!(got.len(), gen, "tenant {tenant}: token frame count");
        for (i, (index, _)) in got.iter().enumerate() {
            assert_eq!(*index, i, "tenant {tenant}: frames in decode order");
        }
        let rows: Vec<Vec<f32>> = got.into_iter().map(|(_, v)| v).collect();
        let solo = solo_reference(DecodeRequest::new(tenant, query(tenant), context_len, gen));
        assert_eq!(
            rows, solo,
            "tenant {tenant}: TCP-streamed tokens diverged bitwise from solo drain"
        );
    }

    // poll: a finished request reports its state and decoded rows.
    let first = accepted_ids[0];
    writeln!(writer, "{{\"verb\":\"poll\",\"id\":{first}}}").expect("send poll");
    let status = read_frame(&mut reader);
    assert_eq!(status.get("event").and_then(Json::as_str), Some("status"));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("finished"));
    assert_eq!(
        status.get("tokens").and_then(Json::as_usize),
        Some(specs[0].2)
    );
    let steps = status.get("steps").expect("finished poll carries rows");
    match steps {
        Json::Arr(rows) => assert_eq!(rows.len(), specs[0].2),
        other => panic!("steps not an array: {other:?}"),
    }

    // poll of an unknown id is typed, not an error.
    writeln!(writer, "{{\"verb\":\"poll\",\"id\":999}}").expect("send poll");
    let unknown = read_frame(&mut reader);
    assert_eq!(unknown.get("state").and_then(Json::as_str), Some("unknown"));

    // deadline rejection over the wire: typed, with retry_after_ms > 0.
    let line = proto::submit_line(0, 5, &query(5), 10, 64, 0, Some(0), false);
    writeln!(writer, "{line}").expect("send submit");
    let rej = read_frame(&mut reader);
    assert_eq!(rej.get("event").and_then(Json::as_str), Some("rejected"));
    assert_eq!(rej.get("reason").and_then(Json::as_str), Some("deadline"));
    assert!(
        rej.get("retry_after_ms")
            .and_then(Json::as_u64)
            .expect("retry")
            >= 1,
        "{rej:?}"
    );

    // stats: scheduler counters + metrics snapshot, all JSON.
    writeln!(writer, "{{\"verb\":\"stats\"}}").expect("send stats");
    let stats = read_frame(&mut reader);
    assert_eq!(stats.get("event").and_then(Json::as_str), Some("stats"));
    assert_eq!(
        stats.get("proto").and_then(Json::as_u64),
        Some(vq_llm::net::PROTO_VERSION)
    );
    assert!(stats.get("uptime_ms").and_then(Json::as_u64).is_some());
    assert_eq!(stats.get("draining").and_then(Json::as_bool), Some(false));
    let srv = stats.get("server").expect("server object");
    assert_eq!(srv.get("completed").and_then(Json::as_u64), Some(3));
    assert_eq!(srv.get("inflight_tokens").and_then(Json::as_u64), Some(0));
    let metrics = stats.get("metrics").expect("metrics object");
    assert_eq!(
        metrics.get("rejected_deadline").and_then(Json::as_u64),
        Some(1)
    );
    assert!(metrics.get("step_latency_p99_us").is_some());

    // malformed frames get an error event, and the connection survives.
    writeln!(writer, "not json").expect("send garbage");
    let err = read_frame(&mut reader);
    assert_eq!(err.get("event").and_then(Json::as_str), Some("error"));

    server.shutdown();
}

/// Reads frames until one matches `event`, skipping others (pings,
/// stragglers); panics after `max` frames.
fn read_until_event(reader: &mut BufReader<TcpStream>, event: &str, max: usize) -> Json {
    for _ in 0..max {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server frame");
        let v = json::parse(line.trim()).unwrap_or_else(|e| panic!("bad frame {line:?}: {e}"));
        if v.get("event").and_then(Json::as_str) == Some(event) {
            return v;
        }
    }
    panic!("no {event:?} frame within {max} frames");
}

/// Polls the driver until it reports no queued or running work, then
/// returns the final stats (asserting the exact-accounting invariant:
/// an idle driver owes zero inflight tokens).
fn wait_idle(client: &vq_llm::Client) -> vq_llm::net::DriverStats {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("driver alive");
        if stats.front_queued == 0 && stats.engine_queued == 0 && stats.running == 0 {
            assert_eq!(
                stats.inflight_tokens, 0,
                "idle driver must owe zero inflight tokens"
            );
            return stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "driver never went idle: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A client that stops reading while the driver streams at full tilt is
/// evicted once its bounded writer queue overflows — without blocking
/// the driver — and its in-flight tickets are cancelled so the engine
/// goes idle with exact (zero) inflight-token accounting.
#[test]
fn slow_reader_is_evicted_and_its_tickets_cancelled() {
    let (engine, h) = engine(2, 64);
    let net = NetConfig {
        writer_queue_cap: 8,
        slow_reader_grace: Duration::from_millis(100),
        ..NetConfig::default()
    };
    let server =
        loopback_with(engine, vec![h], AdmissionConfig::default(), net).expect("bind loopback");
    let client = server.client().clone();

    // Never read a byte, and keep asking for streamed tokens until the
    // server gives up on us: however much the kernel's loopback buffers
    // grow to absorb, the frames owed eventually back up into the 8-frame
    // writer queue. A submit the server refuses still costs it a frame; a
    // write that fails or stalls means it has stopped listening, and the
    // counter says why.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_millis(100)))
        .expect("write timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut next_id = 0u64;
    loop {
        let m = client.metrics();
        let slow = m
            .disconnects
            .iter()
            .find(|(c, _)| *c == "slow_reader")
            .map_or(0, |&(_, n)| n);
        if slow >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slow reader never evicted: {m:?}"
        );
        for _ in 0..8 {
            let line = proto::submit_line(0, next_id, &query(next_id), 8, 240, 0, None, true);
            if writeln!(writer, "{line}").is_err() {
                break;
            }
            next_id += 1;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Eviction cancelled the tickets: the driver drains to idle instead
    // of decoding hundreds of tokens for nobody, and the backlog
    // counter lands exactly at zero.
    wait_idle(&client);
    let m = client.metrics();
    assert!(
        m.writer_queue_peak <= 8,
        "writer queue exceeded its bound: {}",
        m.writer_queue_peak
    );
    assert_eq!(m.active_connections, 0);
    drop(stream);
    server.shutdown();
}

/// A request line longer than the configured cap gets a typed error
/// frame and a disconnect — never unbounded buffering.
#[test]
fn oversized_line_gets_typed_error_and_disconnect() {
    let (engine, h) = engine(1, 4);
    let net = NetConfig {
        line_length_cap: 256,
        ..NetConfig::default()
    };
    let server =
        loopback_with(engine, vec![h], AdmissionConfig::default(), net).expect("bind loopback");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    let hello = read_until_event(&mut reader, "hello", 4);
    assert_eq!(
        hello.get("line_length_cap").and_then(Json::as_u64),
        Some(256)
    );

    let oversize = "x".repeat(1024);
    writeln!(writer, "{oversize}").expect("send oversize line");
    let err = read_until_event(&mut reader, "error", 4);
    let msg = err.get("message").and_then(Json::as_str).expect("message");
    assert!(msg.contains("cap"), "unexpected error message: {msg}");
    // The server closes the connection after the error frame.
    let mut line = String::new();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0, "{line:?}");

    // The disconnect metric lands just after the socket closes — poll
    // briefly rather than racing the server's cleanup.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let m = server.client().metrics();
        let errors = m
            .disconnects
            .iter()
            .find(|(c, _)| *c == "error")
            .map_or(0, |&(_, n)| n);
        if errors == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "error disconnect never counted: {m:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

/// Hanging up mid-stream cancels the connection's in-flight requests,
/// freeing decode slots for other tenants, and the inflight-token
/// counter returns exactly to zero (the underflow-regression pin).
#[test]
fn mid_stream_disconnect_cancels_and_frees_the_slot() {
    let (engine, h) = engine(1, 8);
    let server =
        vq_llm::net::loopback(engine, vec![h], AdmissionConfig::default()).expect("bind loopback");
    let client = server.client().clone();

    {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let mut writer = stream.try_clone().expect("clone socket");
        let mut reader = BufReader::new(stream);
        read_until_event(&mut reader, "hello", 2);
        // A long request that cannot finish before we hang up.
        let line = proto::submit_line(0, 1, &query(1), 8, 240, 0, None, true);
        writeln!(writer, "{line}").expect("send submit");
        read_until_event(&mut reader, "accepted", 4);
        // Drop both halves: mid-stream disconnect.
    }

    // The reader observes EOF, cancels the ticket, the slot frees, and
    // the exact accounting lands at zero (wait_idle asserts it).
    wait_idle(&client);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let m = client.metrics();
        let eof = m
            .disconnects
            .iter()
            .find(|(c, _)| *c == "eof")
            .map_or(0, |&(_, n)| n);
        if eof >= 1 && m.active_connections == 0 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "EOF never recorded");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The freed slot serves the next tenant immediately.
    let ticket = client.submit(NetRequest::new(h, DecodeRequest::new(2, query(2), 10, 2)));
    assert!(matches!(client.wait(&ticket), Ok(TicketEnd::Finished(_))));
    server.shutdown();
}

/// Graceful drain at the driver level: in-flight work finishes (bitwise
/// identical to solo), new submissions reject typed as `draining` with
/// a computed retry, and the report counts the completions.
#[test]
fn drain_finishes_inflight_rejects_new_typed_and_reports() {
    let (engine, h) = engine(1, 16);
    let (client, driver) = spawn_driver(engine, AdmissionConfig::default());

    // Enough sequential work (4 × 200 steps on one slot) that the drain
    // probe below lands while the engine is still busy.
    let reqs: Vec<DecodeRequest> = (0..4)
        .map(|i| DecodeRequest::new(i, query(i), 8 + i as usize, 200))
        .collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| client.submit(NetRequest::new(h, r.clone())))
        .collect();

    let drain_client = client.clone();
    let drain = std::thread::spawn(move || driver.drain(Duration::from_secs(120)));
    // Wait until the driver acknowledges it is draining.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match drain_client.stats() {
            Some(s) if s.draining => break,
            Some(_) => {}
            None => panic!("driver exited before the drain was observed"),
        }
        assert!(std::time::Instant::now() < deadline, "drain never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // New work is rejected typed, with a positive computed backoff.
    let probe = client.submit(NetRequest::new(h, DecodeRequest::new(9, query(9), 10, 2)));
    match client.wait(&probe).expect("driver alive") {
        TicketEnd::Rejected {
            reason: RejectReason::Draining { retry_after_ms },
            retry_after_ms: retry,
        } => {
            assert!(retry_after_ms >= 1);
            assert_eq!(retry, retry_after_ms);
        }
        other => panic!("expected a typed draining rejection, got {other:?}"),
    }

    // Everything in flight finishes, bitwise identical to solo drains.
    for (req, ticket) in reqs.iter().zip(&tickets) {
        match client.wait(ticket).expect("driver alive") {
            TicketEnd::Finished(out) => {
                assert_eq!(
                    out.steps,
                    solo_reference(req.clone()),
                    "drained decode diverged from solo"
                );
            }
            other => panic!("in-flight request did not survive the drain: {other:?}"),
        }
    }
    let report = drain.join().expect("drain thread");
    assert_eq!(report.completed, 4);
    assert_eq!(report.cancelled, 0);
}

/// Graceful drain through the TCP server: the in-flight stream flushes
/// to the client bitwise-complete, and the drained server refuses new
/// connections with a typed frame.
#[test]
fn server_drain_flushes_streams_and_refuses_new_connections() {
    let (engine, h) = engine(1, 8);
    let server =
        vq_llm::net::loopback(engine, vec![h], AdmissionConfig::default()).expect("bind loopback");
    let addr = server.local_addr();

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    read_until_event(&mut reader, "hello", 2);

    let req = DecodeRequest::new(3, query(3), 20, 60);
    let line = proto::submit_line(0, 3, &query(3), 20, 60, 0, None, true);
    writeln!(writer, "{line}").expect("send submit");
    read_until_event(&mut reader, "accepted", 2);

    // Drain from another thread while this one consumes the stream.
    let drain = std::thread::spawn(move || server.drain(Duration::from_secs(120)));

    let mut rows: Vec<Vec<f32>> = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server frame");
        let v = json::parse(line.trim()).unwrap_or_else(|e| panic!("bad frame {line:?}: {e}"));
        match v.get("event").and_then(Json::as_str) {
            Some("token") => rows.push(v.get("value").and_then(Json::as_f32s).expect("value")),
            Some("done") => break,
            Some("rejected") => panic!("in-flight stream rejected during drain: {v:?}"),
            _ => {}
        }
    }
    assert_eq!(
        rows,
        solo_reference(req),
        "drained TCP stream diverged bitwise from solo"
    );
    let report = drain.join().expect("drain thread");
    assert_eq!(report.cancelled, 0, "a clean drain cancels nothing");

    // The drained server is gone: a new dial is either refused outright
    // or answered with a typed frame and closed.
    if let Ok(probe) = TcpStream::connect(addr) {
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut r = BufReader::new(probe);
        let mut line = String::new();
        if r.read_line(&mut line).unwrap_or(0) > 0 {
            let v = json::parse(line.trim()).expect("frame");
            assert_eq!(
                v.get("event").and_then(Json::as_str),
                Some("conn_rejected"),
                "{line:?}"
            );
        }
    }
}

/// Per-tenant rate limits over the wire: the budgeted tenant's second
/// request rejects typed `rate_limited` with a positive retry, while an
/// unbudgeted tenant sails through.
#[test]
fn rate_limited_tenant_gets_typed_rejection_over_tcp() {
    let (engine, h) = engine(2, 16);
    let cfg = AdmissionConfig {
        rate_limit: Some(RateLimitConfig {
            window_ms: 60_000,
            default_budget: u64::MAX,
            budgets: vec![(1, 4)],
        }),
        ..AdmissionConfig::default()
    };
    let server = vq_llm::net::loopback(engine, vec![h], cfg).expect("bind loopback");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    read_until_event(&mut reader, "hello", 2);

    // Tenant 1 spends its whole 4-token budget...
    let line = proto::submit_line(0, 1, &query(1), 10, 4, 0, None, false);
    writeln!(writer, "{line}").expect("send submit");
    read_until_event(&mut reader, "accepted", 2);
    // ...so its next token rejects typed.
    let line = proto::submit_line(0, 1, &query(1), 10, 1, 0, None, false);
    writeln!(writer, "{line}").expect("send submit");
    let rej = read_until_event(&mut reader, "rejected", 4);
    assert_eq!(
        rej.get("reason").and_then(Json::as_str),
        Some("rate_limited")
    );
    assert!(
        rej.get("retry_after_ms")
            .and_then(Json::as_u64)
            .expect("retry")
            >= 1
    );

    // An unbudgeted tenant is unaffected.
    let line = proto::submit_line(0, 2, &query(2), 10, 4, 0, None, false);
    writeln!(writer, "{line}").expect("send submit");
    read_until_event(&mut reader, "accepted", 4);

    let m = server.client().metrics();
    assert_eq!(
        m.rejected.iter().find(|(c, _)| *c == "rate_limited"),
        Some(&("rate_limited", 1))
    );
    server.shutdown();
}

/// The connection limit: accepts past `max_connections` are answered
/// with a typed `conn_rejected` frame and closed; a freed slot accepts
/// again.
#[test]
fn connection_limit_rejects_typed_then_recovers() {
    let (engine, h) = engine(1, 4);
    let net = NetConfig {
        max_connections: 1,
        ..NetConfig::default()
    };
    let server =
        loopback_with(engine, vec![h], AdmissionConfig::default(), net).expect("bind loopback");
    let addr = server.local_addr();

    let first = TcpStream::connect(addr).expect("connect");
    first
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut first_reader = BufReader::new(first.try_clone().expect("clone"));
    read_until_event(&mut first_reader, "hello", 2);

    let second = TcpStream::connect(addr).expect("connect");
    second
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut second_reader = BufReader::new(second);
    let rej = read_until_event(&mut second_reader, "conn_rejected", 2);
    assert_eq!(
        rej.get("reason").and_then(Json::as_str),
        Some("connection_limit")
    );
    assert!(
        rej.get("retry_after_ms")
            .and_then(Json::as_u64)
            .expect("retry")
            >= 1
    );

    // Hang up the first connection; once the server notices, the slot
    // frees and a new dial gets its hello.
    drop(first);
    drop(first_reader);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let probe = TcpStream::connect(addr).expect("connect");
        probe
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        let mut r = BufReader::new(probe);
        let mut line = String::new();
        if r.read_line(&mut line).unwrap_or(0) > 0 && line.contains("\"event\":\"hello\"") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed: {line:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// Idle connections are reaped after `idle_timeout`, with a farewell
/// error frame, a clean close, and a typed disconnect metric; `ping`
/// resets the idle clock.
#[test]
fn idle_connection_is_reaped_after_timeout() {
    let (engine, h) = engine(1, 4);
    let net = NetConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..NetConfig::default()
    };
    let server =
        loopback_with(engine, vec![h], AdmissionConfig::default(), net).expect("bind loopback");

    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone socket");
    let mut reader = BufReader::new(stream);
    read_until_event(&mut reader, "hello", 2);

    // Pings keep the connection alive well past the idle timeout.
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(150));
        writeln!(writer, "{{\"verb\":\"ping\"}}").expect("send ping");
        read_until_event(&mut reader, "pong", 2);
    }

    // Then silence: the reaper sends a farewell error and closes.
    let err = read_until_event(&mut reader, "error", 4);
    let msg = err.get("message").and_then(Json::as_str).expect("message");
    assert!(msg.contains("idle"), "unexpected farewell: {msg}");
    let mut line = String::new();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0);

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let m = server.client().metrics();
        let idle = m
            .disconnects
            .iter()
            .find(|(c, _)| *c == "idle")
            .map_or(0, |&(_, n)| n);
        if idle >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "idle reap not counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}
