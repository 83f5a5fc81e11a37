//! Serving an engine over TCP: the network front end end to end.
//!
//! Builds a CPU-backed `Engine`, registers a quantized shared context,
//! and binds a [`NetServer`] — driver thread, weighted fair queue,
//! SLO-aware admission, line protocol. Then it plays the client side
//! over a real loopback socket: reads the `hello` handshake, streams two
//! tenants' tokens, shows a typed deadline rejection with its computed
//! `retry_after_ms`, fetches the `stats` frame (scheduler counters +
//! latency histograms), and finishes with a **graceful drain** — the
//! last in-flight stream flushes to completion while the drain report
//! counts what finished vs what had to be cancelled.
//!
//! ```sh
//! cargo run --release --example net_serve
//! # or keep serving so examples/net_client.rs can connect:
//! cargo run --release --example net_serve -- 127.0.0.1:8844
//! ```
//!
//! The query width is the context's `head_dim` (32 here) — a client
//! sending any other width gets a typed `invalid` rejection, not a hang.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use vq_llm::net::proto;
use vq_llm::tensor::synth;
use vq_llm::{AdmissionConfig, Engine, NetServer, ServeConfig, SharedContext, VqAlgorithm};

const SEQ: usize = 320;
const HEAD_DIM: usize = 32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut engine = Engine::builder()
        .cpu_threads(0) // real host execution, sized to the machine
        .weight_algo(VqAlgorithm::Gptvq2)
        .kv_algo(VqAlgorithm::Cq4)
        .serve_config(ServeConfig::new(4, 16))
        .build()?;
    let session = engine.session_unbound();
    let ctx = SharedContext::new(
        session.quantize_kv(&synth::kv_stream(SEQ, HEAD_DIM, 0.85, 1), 1)?,
        session.quantize_kv(&synth::kv_stream(SEQ, HEAD_DIM, 0.85, 2), 2)?,
        session.quantize_weights(
            &synth::correlated_channels(HEAD_DIM, HEAD_DIM, 4, 0.9, 3),
            3,
        )?,
    )?;
    let handle = engine.register_context(ctx)?;

    // Tenant 1 is paid-tier: two decode slots for every one of tenant 2's
    // when both are backlogged.
    let cfg = AdmissionConfig {
        weights: vec![(1, 2), (2, 1)],
        ..AdmissionConfig::default()
    };

    // With an explicit address, just serve until killed (for net_client).
    if let Some(addr) = std::env::args().nth(1) {
        let server = NetServer::bind(engine, vec![handle], cfg, addr.as_str())?;
        println!(
            "serving on {} — try: cargo run --release --example net_client -- {}",
            server.local_addr(),
            server.local_addr()
        );
        loop {
            std::thread::sleep(Duration::from_secs(60));
        }
    }

    // Otherwise: loopback demo, server and client in one process.
    let server = NetServer::bind(engine, vec![handle], cfg, ("127.0.0.1", 0))?;
    println!("serving on {}", server.local_addr());

    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let recv = |reader: &mut BufReader<TcpStream>| -> String {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server frame");
        line.trim().to_string()
    };

    let query = |tenant: u64| -> Vec<f32> {
        (0..HEAD_DIM)
            .map(|d| ((tenant as usize * 11 + d) as f32 * 0.17).sin())
            .collect()
    };

    // Two streaming submissions on one connection...
    for tenant in [1u64, 2] {
        let line = proto::submit_line(0, tenant, &query(tenant), 100, 3, 0, None, true);
        writeln!(writer, "{line}")?;
    }
    // ...and one that cannot meet its deadline: rejected *now*, with a
    // computed backoff, instead of admitted to fail later.
    writeln!(
        writer,
        "{}",
        proto::submit_line(0, 3, &query(3), 100, 64, 0, Some(0), false)
    )?;

    let mut done = 0;
    while done < 3 {
        let frame = recv(&mut reader);
        println!("<- {frame}");
        if frame.contains("\"done\"") || frame.contains("\"rejected\"") {
            done += 1;
        }
    }

    // Poll a finished request: the status frame carries its decoded rows.
    writeln!(writer, "{{\"verb\":\"poll\",\"id\":1}}")?;
    println!("<- {}", recv(&mut reader));

    // Scheduler counters + metrics snapshot (step latency p50/p99, queue
    // depth, per-reason rejections, per-tenant tokens/s, connection
    // lifecycle counters).
    writeln!(writer, "{{\"verb\":\"stats\"}}")?;
    println!("<- {}", recv(&mut reader));

    // Graceful drain: submit one more stream, then drain the server
    // while this client is still reading. The in-flight stream flushes
    // to completion (bitwise identical to a solo decode), new work
    // would be rejected typed as `draining` with a computed
    // `retry_after_ms`, and the report counts the outcome.
    writeln!(
        writer,
        "{}",
        proto::submit_line(0, 1, &query(1), 100, 3, 0, None, true)
    )?;
    loop {
        let frame = recv(&mut reader);
        println!("<- {frame}");
        if frame.contains("\"accepted\"") {
            break;
        }
    }
    let drainer = std::thread::spawn(move || server.drain(Duration::from_secs(30)));
    loop {
        let frame = recv(&mut reader);
        println!("<- {frame}");
        if frame.contains("\"done\"") {
            break;
        }
    }
    let report = drainer.join().expect("drain thread");
    println!(
        "drained: {} completed, {} cancelled",
        report.completed, report.cancelled
    );
    Ok(())
}
