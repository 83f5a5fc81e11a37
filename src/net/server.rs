//! The TCP front end: a line-protocol server over `std::net` that
//! exposes a driven engine to remote clients.
//!
//! Threading model (all plain `std` threads, no async runtime):
//!
//! * one **accept** thread owns the `TcpListener` and spawns a pair of
//!   threads per connection (refusing accepts past
//!   [`NetConfig::max_connections`] with a typed `conn_rejected` frame);
//! * each connection's **reader** thread parses one frame per line
//!   ([`proto::parse_frame`], capped at [`NetConfig::line_length_cap`]
//!   bytes) and acts on the shared [`Client`] — submit into the fair
//!   queue, poll, cancel, stats, ping;
//! * each connection's **writer** thread drains a **bounded**
//!   [`FrameQueue`] of pre-rendered frames. The driver thread pushes
//!   streaming events into that queue through the request's
//!   [`StreamSink`], and the reader pushes verb replies; the queue
//!   serializes them, so a client sees `hello`, then `accepted`, then
//!   `token`s in decode order, then `done`.
//!
//! # Load behavior
//!
//! The writer queue is where backpressure lives. A client that stops
//! reading while the driver streams at full tilt would, with an
//! unbounded channel, buffer frames without limit — one stalled
//! consumer could take the process down. Instead the queue holds at
//! most [`NetConfig::writer_queue_cap`] frames with two watermarks:
//!
//! * at the **hard** cap a push from the driver cannot be absorbed and
//!   the connection is evicted immediately;
//! * continuously above the **soft** watermark (half the cap) for
//!   longer than [`NetConfig::slow_reader_grace`], the connection is
//!   evicted by the reader's poll tick.
//!
//! Eviction never blocks the driver and never drops a frame for a
//! healthy connection: frames queued before a normal close are flushed,
//! only an evicted (or errored) connection's queue is discarded. The
//! reader cancels the connection's in-flight tickets on every exit path
//! — eviction, EOF, read error, idle timeout — so decode slots free up
//! as soon as their consumer is gone.
//!
//! Shutdown is cooperative: readers use a short socket read timeout to
//! observe the stop flag, the accept thread is woken by a loopback
//! connection, and the driver resolves every in-flight ticket as
//! cancelled ([`DriverHandle::shutdown`]). [`NetServer::drain`] is the
//! graceful variant: new work is rejected (typed `draining`), in-flight
//! requests finish and flush, and only the deadline escalates to
//! cancellation.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vqllm_llm::serve::ContextHandle;
use vqllm_llm::DecodeRequest;

use crate::engine::Engine;
use crate::net::admission::{AdmissionConfig, NetRequest};
use crate::net::driver::{
    self, Client, DrainReport, DriverHandle, EngineFactory, HandleTable, StreamEvent,
    SupervisorConfig, Ticket,
};
use crate::net::metrics::{DisconnectReason, Metrics};
use crate::net::proto::{self, ClientFrame};

/// How long a connection reader blocks before re-checking the stop
/// flag, idle clock, and slow-reader grace.
const READ_POLL: Duration = Duration::from_millis(50);

/// Send timeout on connection writers: bounds how long a final flush to
/// a non-reading peer can stall a connection's teardown.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Connection-lifecycle limits of the TCP front end (the knobs that are
/// about sockets rather than scheduling — scheduling policy lives in
/// [`AdmissionConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Concurrent connections accepted; past this, an accept is answered
    /// with a `conn_rejected` frame and closed.
    pub max_connections: usize,
    /// Disconnect a connection that has not sent a complete frame for
    /// this long (`ping` counts as activity; `None` disables reaping).
    pub idle_timeout: Option<Duration>,
    /// Longest request line accepted, in bytes; a longer line gets a
    /// typed `error` frame and a disconnect instead of unbounded
    /// buffering.
    pub line_length_cap: usize,
    /// Hard bound on frames queued to one connection's writer; a push
    /// that would exceed it evicts the connection.
    pub writer_queue_cap: usize,
    /// How long a connection may hold its writer queue above the soft
    /// watermark (half of [`NetConfig::writer_queue_cap`]) before it is
    /// evicted as a slow reader.
    pub slow_reader_grace: Duration,
    /// When set, the server emits a `ping` frame after this long without
    /// sending anything else (lets clients distinguish an idle server
    /// from a dead one).
    pub keepalive_interval: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 256,
            idle_timeout: Some(Duration::from_secs(300)),
            line_length_cap: 1 << 20,
            writer_queue_cap: 256,
            slow_reader_grace: Duration::from_secs(2),
            keepalive_interval: None,
        }
    }
}

/// The bounded per-connection frame queue between producers (driver
/// sink, reader replies) and the connection's writer thread.
///
/// Pushes never block: a push that would pass the hard cap reports
/// [`PushOutcome::Overflow`] and the caller evicts the connection. The
/// soft watermark starts a grace clock instead, so a reader that is
/// merely behind gets [`NetConfig::slow_reader_grace`] to catch up.
struct FrameQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    /// Hard cap (eviction on the push that would exceed it).
    cap: usize,
    /// Soft watermark (grace clock starts here).
    soft: usize,
}

struct QueueState {
    frames: VecDeque<String>,
    /// No more pushes; the writer drains what is queued, then exits.
    closed: bool,
    /// Discard everything and exit now (the eviction path).
    aborted: bool,
    /// When the depth first crossed the soft watermark (cleared when it
    /// sinks back below).
    over_soft_since: Option<Instant>,
    /// Deepest the queue has been.
    peak: usize,
}

/// What happened to a [`FrameQueue::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushOutcome {
    /// Queued (or silently dropped because the queue already closed —
    /// nothing is listening).
    Ok,
    /// The push would exceed the hard cap: evict the connection.
    Overflow,
}

impl FrameQueue {
    fn new(cap: usize) -> FrameQueue {
        let cap = cap.max(2);
        FrameQueue {
            state: Mutex::new(QueueState {
                frames: VecDeque::new(),
                closed: false,
                aborted: false,
                over_soft_since: None,
                peak: 0,
            }),
            cv: Condvar::new(),
            cap,
            soft: (cap / 2).max(1),
        }
    }

    /// Queues one frame; never blocks. Returns the depth after the push
    /// alongside the outcome so callers can feed the peak-depth gauge.
    fn push(&self, frame: String) -> (PushOutcome, usize) {
        let mut s = super::lock_recover(&self.state);
        if s.closed || s.aborted {
            return (PushOutcome::Ok, s.frames.len());
        }
        if s.frames.len() >= self.cap {
            return (PushOutcome::Overflow, s.frames.len());
        }
        s.frames.push_back(frame);
        let depth = s.frames.len();
        s.peak = s.peak.max(depth);
        if depth >= self.soft {
            s.over_soft_since.get_or_insert_with(Instant::now);
        }
        drop(s);
        self.cv.notify_one();
        (PushOutcome::Ok, depth)
    }

    /// The writer thread's blocking pop: `None` when the queue is done
    /// (closed and drained, or aborted).
    fn pop_blocking(&self) -> Option<String> {
        let mut s = super::lock_recover(&self.state);
        loop {
            if s.aborted {
                return None;
            }
            if let Some(frame) = s.frames.pop_front() {
                if s.frames.len() < self.soft {
                    s.over_soft_since = None;
                }
                return Some(frame);
            }
            if s.closed {
                return None;
            }
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Whether the queue has sat at or above the soft watermark for
    /// longer than `grace` (the reader's poll-tick eviction check).
    fn slow_expired(&self, grace: Duration) -> bool {
        let s = super::lock_recover(&self.state);
        matches!(s.over_soft_since, Some(t) if t.elapsed() > grace)
    }

    /// No more pushes; queued frames still flush (the normal-close
    /// path).
    fn close(&self) {
        let mut s = super::lock_recover(&self.state);
        s.closed = true;
        drop(s);
        self.cv.notify_all();
    }

    /// Discard everything, exit now (the eviction path — the client is
    /// not reading, so the queued frames have no consumer).
    fn abort(&self) {
        let mut s = super::lock_recover(&self.state);
        s.aborted = true;
        s.frames.clear();
        drop(s);
        self.cv.notify_all();
    }

    /// Deepest the queue has been.
    fn peak(&self) -> usize {
        super::lock_recover(&self.state).peak
    }
}

/// Everything the driver sink, reader, and writer share about one
/// connection.
struct Conn {
    queue: FrameQueue,
    /// A clone of the socket used only for `shutdown` — waking the
    /// reader and unblocking a writer mid-`write_all` from any thread.
    sock: TcpStream,
    /// The first close reason wins; later ones are ignored.
    closing: Mutex<Option<DisconnectReason>>,
    /// Tickets submitted over this connection (cancelled on exit).
    tickets: Mutex<HashMap<u64, Ticket>>,
}

impl Conn {
    /// Records the close reason (first caller wins), discards the
    /// writer queue, and shuts the socket down so the reader and writer
    /// wake immediately. Safe from any thread, including the driver's.
    fn evict(&self, reason: DisconnectReason) {
        let mut c = super::lock_recover(&self.closing);
        if c.is_none() {
            *c = Some(reason);
        }
        drop(c);
        self.queue.abort();
        let _ = self.sock.shutdown(Shutdown::Both);
    }

    /// The recorded close reason, if any path set one.
    fn close_reason(&self) -> Option<DisconnectReason> {
        *super::lock_recover(&self.closing)
    }
}

/// What the accept loop hands every connection thread.
struct ConnCtx {
    client: Client,
    /// Live context handles by protocol index — shared with the driver
    /// supervisor, which republishes fresh handles after an engine
    /// rebuild (so connections survive a driver restart).
    contexts: Arc<HandleTable>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    cfg: NetConfig,
    metrics: Arc<Metrics>,
    started: Instant,
}

/// A serving engine bound to a TCP address.
///
/// Construction takes ownership of a configured [`Engine`] (contexts
/// already registered — the handles, in order, become the protocol's
/// `ctx` indices), spawns the driver thread, and starts accepting
/// connections. [`NetServer::shutdown`] (or drop) stops everything;
/// [`NetServer::drain`] is the graceful variant.
pub struct NetServer {
    addr: SocketAddr,
    client: Client,
    driver: Option<DriverHandle>,
    stop: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` with default [`NetConfig`] limits. See
    /// [`NetServer::bind_with`].
    ///
    /// # Errors
    ///
    /// Returns the `TcpListener` bind error.
    pub fn bind(
        engine: Engine,
        contexts: Vec<ContextHandle>,
        cfg: AdmissionConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<NetServer> {
        NetServer::bind_with(engine, contexts, cfg, NetConfig::default(), addr)
    }

    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving `engine` over the line protocol. `contexts` maps the
    /// protocol's `ctx` index to registered context handles; `net`
    /// bounds the connection lifecycle (limits, timeouts, writer
    /// queues).
    ///
    /// # Errors
    ///
    /// Returns the `TcpListener` bind error.
    pub fn bind_with(
        engine: Engine,
        contexts: Vec<ContextHandle>,
        cfg: AdmissionConfig,
        net: NetConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let (client, driver) = driver::spawn(engine, cfg);
        let contexts = Arc::new(HandleTable::new(contexts));
        NetServer::serve_parts(listener, client, driver, contexts, net)
    }

    /// Binds `addr` and serves behind a **supervised** driver: the
    /// factory builds the engine (and re-registers its contexts), and a
    /// driver death mid-service resolves in-flight work as typed
    /// `driver_restarted`, rebuilds the engine through the factory, and
    /// keeps serving on the same sockets — see
    /// [`driver::spawn_supervised`].
    ///
    /// # Errors
    ///
    /// Returns the `TcpListener` bind error, or the factory's error
    /// (as `io::ErrorKind::Other`) if the initial engine build fails.
    pub fn bind_supervised(
        factory: EngineFactory,
        cfg: AdmissionConfig,
        sup: SupervisorConfig,
        net: NetConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let (client, driver, contexts) = driver::spawn_supervised(factory, cfg, sup)
            .map_err(|e| std::io::Error::other(format!("building the engine: {e}")))?;
        NetServer::serve_parts(listener, client, driver, contexts, net)
    }

    /// The common tail of every constructor: wires the accept loop over
    /// an already-bound listener and an already-spawned driver.
    fn serve_parts(
        listener: TcpListener,
        client: Client,
        driver: DriverHandle,
        contexts: Arc<HandleTable>,
        net: NetConfig,
    ) -> std::io::Result<NetServer> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let draining = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(ConnCtx {
            client: client.clone(),
            contexts,
            stop: Arc::clone(&stop),
            draining: Arc::clone(&draining),
            metrics: client.metrics_shared(),
            cfg: net,
            started: Instant::now(),
        });
        let accept_loop = {
            let stop = Arc::clone(&stop);
            let conns = Arc::new(AtomicUsize::new(0));
            move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut stream) = conn else { continue };
                    if ctx.draining.load(Ordering::Acquire) {
                        // Draining: answer with a typed rejection
                        // rather than silently refusing the dial.
                        let line = proto::conn_rejected_frame(
                            "draining",
                            "server draining, not accepting connections",
                            1_000,
                        );
                        let _ = writeln!(stream, "{line}");
                        continue;
                    }
                    // Plain capacity gate: the counter publishes no
                    // other data, so relaxed is enough (the check/add
                    // pair is racy regardless of ordering; the limit
                    // is a soft cap, not an exact one).
                    if conns.load(Ordering::Relaxed) >= ctx.cfg.max_connections.max(1) {
                        let line = proto::conn_rejected_frame(
                            "connection_limit",
                            "connection limit reached",
                            100,
                        );
                        let _ = writeln!(stream, "{line}");
                        continue;
                    }
                    conns.fetch_add(1, Ordering::Relaxed);
                    let ctx = Arc::clone(&ctx);
                    let conns = Arc::clone(&conns);
                    let _ = thread::Builder::new()
                        .name("vq-llm-conn".into())
                        .spawn(move || {
                            serve_connection(stream, ctx);
                            conns.fetch_sub(1, Ordering::Relaxed);
                        });
                }
            }
        };
        #[expect(
            clippy::expect_used,
            reason = "runs once inside NetServer::bind, before serving starts; a server that cannot spawn its accept loop cannot start at all."
        )]
        let accept = thread::Builder::new()
            .name("vq-llm-accept".into())
            .spawn(accept_loop)
            .expect("spawn accept thread");
        Ok(NetServer {
            addr,
            client,
            driver: Some(driver),
            stop,
            draining,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when bound to
    /// port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process client handle to the same driver the socket
    /// clients reach — for embedding a server and local submissions in
    /// one process.
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// Stops accepting, stops the driver (unresolved tickets resolve as
    /// cancelled), and joins the accept thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Gracefully drains the server within `deadline`:
    ///
    /// 1. new connections and new submissions are rejected with typed
    ///    `draining` frames carrying a `retry_after_ms`;
    /// 2. requests already in flight decode to completion and their
    ///    frames flush to their clients (streamed bytes stay bitwise
    ///    identical to a solo decode — draining changes *when* the
    ///    server stops, never what it was computing);
    /// 3. whatever is still unfinished at the deadline is cancelled.
    ///
    /// Returns what happened to the in-flight work, then tears the
    /// sockets down like [`NetServer::shutdown`].
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        // Pairs with the accept loop's `Acquire` load: once observed,
        // new dials see the typed `draining` rejection.
        self.draining.store(true, Ordering::Release);
        let report = match self.driver.take() {
            Some(driver) => driver.drain(deadline),
            None => DrainReport {
                completed: 0,
                cancelled: 0,
            },
        };
        self.shutdown_inner();
        report
    }

    fn shutdown_inner(&mut self) {
        // Pairs with the `Acquire` loads in the accept loop and the
        // per-connection read loops; the loopback dial below makes the
        // accept loop re-check it promptly.
        self.stop.store(true, Ordering::Release);
        // Wake the accept loop with a throwaway loopback connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(join) = self.accept.take() {
            let _ = join.join();
        }
        if let Some(driver) = self.driver.take() {
            driver.shutdown();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// How one attempt to read a capped line ended.
enum LineRead {
    /// A complete line (without the newline).
    Line(String),
    /// Clean EOF.
    Eof,
    /// The read timed out ([`READ_POLL`]); partial data stays buffered.
    TimedOut,
    /// The line exceeded [`NetConfig::line_length_cap`].
    TooLong,
    /// Socket error (including a local `shutdown` by the eviction
    /// path).
    Err,
}

/// Reads one newline-terminated line without ever buffering more than
/// `cap` bytes, via `fill_buf`/`consume` — the defense against a client
/// streaming an endless line.
fn read_capped_line(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>, cap: usize) -> LineRead {
    loop {
        let available = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return LineRead::TimedOut;
            }
            Err(_) => return LineRead::Err,
        };
        if available.is_empty() {
            return if buf.is_empty() {
                LineRead::Eof
            } else {
                // Trailing bytes with no newline: treat like EOF (the
                // peer cannot complete the frame anymore).
                LineRead::Eof
            };
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > cap {
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(available.get(..pos).unwrap_or_default());
                reader.consume(pos + 1);
                let line = String::from_utf8_lossy(buf).into_owned();
                buf.clear();
                return LineRead::Line(line);
            }
            None => {
                let n = available.len();
                if buf.len() + n > cap {
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

/// One connection: reader loop here, writer thread alongside, bounded
/// queue between every producer and the socket.
fn serve_connection(stream: TcpStream, ctx: Arc<ConnCtx>) {
    ctx.metrics.connection_opened();
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let (Ok(write_half), Ok(shutdown_half)) = (stream.try_clone(), stream.try_clone()) else {
        ctx.metrics.connection_closed(DisconnectReason::Error);
        return;
    };
    let conn = Arc::new(Conn {
        queue: FrameQueue::new(ctx.cfg.writer_queue_cap),
        sock: shutdown_half,
        closing: Mutex::new(None),
        tickets: Mutex::new(HashMap::new()),
    });

    // The protocol handshake: the first frame a client ever sees names
    // the protocol version and the server's line cap.
    push_frame(
        &conn,
        &ctx.metrics,
        proto::hello_frame(ctx.cfg.line_length_cap),
    );

    let writer = {
        let conn = Arc::clone(&conn);
        thread::Builder::new()
            .name("vq-llm-conn-writer".into())
            .spawn(move || {
                let mut w = write_half;
                while let Some(line) = conn.queue.pop_blocking() {
                    if w.write_all(line.as_bytes()).is_err() || w.write_all(b"\n").is_err() {
                        conn.evict(DisconnectReason::Error);
                        break;
                    }
                    let _ = w.flush();
                }
            })
    };
    let Ok(writer) = writer else {
        // Thread exhaustion: this connection cannot be served. Drop it
        // instead of taking the whole server down with a panic.
        let _ = conn.sock.shutdown(Shutdown::Both);
        ctx.metrics.connection_closed(DisconnectReason::Error);
        return;
    };

    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    let mut last_frame = Instant::now();
    let mut last_sent_ping = Instant::now();
    // (reason, flush): whether queued frames still have a consumer worth
    // flushing to (a reader we are politely disconnecting) or not (a
    // peer that vanished or stopped reading).
    let (exit_reason, flush) = loop {
        // A reason recorded by another thread (driver overflow eviction,
        // writer error) ends the loop even while reads still succeed.
        if let Some(reason) = conn.close_reason() {
            break (reason, false);
        }
        match read_capped_line(&mut reader, &mut buf, ctx.cfg.line_length_cap) {
            LineRead::Line(line) => {
                last_frame = Instant::now();
                let line = line.trim().to_string();
                if !line.is_empty() {
                    handle_line(&line, &ctx, &conn);
                }
            }
            LineRead::Eof => break (DisconnectReason::Eof, true),
            LineRead::Err => {
                break (
                    conn.close_reason().unwrap_or(DisconnectReason::Error),
                    false,
                )
            }
            LineRead::TooLong => {
                push_frame(
                    &conn,
                    &ctx.metrics,
                    proto::error_frame(&format!(
                        "line exceeds cap of {} bytes; disconnecting",
                        ctx.cfg.line_length_cap
                    )),
                );
                break (DisconnectReason::Error, true);
            }
            LineRead::TimedOut => {
                if ctx.stop.load(Ordering::Acquire) {
                    break (DisconnectReason::Eof, true);
                }
                if conn.queue.slow_expired(ctx.cfg.slow_reader_grace) {
                    break (DisconnectReason::SlowReader, false);
                }
                if let Some(idle) = ctx.cfg.idle_timeout {
                    if last_frame.elapsed() > idle {
                        push_frame(
                            &conn,
                            &ctx.metrics,
                            proto::error_frame("idle timeout; disconnecting"),
                        );
                        break (DisconnectReason::Idle, true);
                    }
                }
                if let Some(interval) = ctx.cfg.keepalive_interval {
                    if last_sent_ping.elapsed() > interval {
                        last_sent_ping = Instant::now();
                        push_frame(&conn, &ctx.metrics, proto::ping_frame());
                    }
                }
            }
        }
    };

    let reason = conn.close_reason().unwrap_or(exit_reason);
    // Free the engine's slots: every ticket this connection still owns
    // is cancelled (a resolved ticket's cancel is a no-op).
    let tickets: Vec<Ticket> = super::lock_recover(&conn.tickets)
        .drain()
        .map(|(_, t)| t)
        .collect();
    for t in &tickets {
        ctx.client.cancel(t);
    }
    if flush && conn.close_reason().is_none() {
        // Polite close: what was already queued (farewell frames
        // included) still flushes to the peer before the socket closes.
        // The writer's send timeout bounds how long a non-reading peer
        // can stall the flush.
        conn.queue.close();
        let _ = writer.join();
        let _ = conn.sock.shutdown(Shutdown::Both);
    } else {
        // The peer vanished or was evicted: nothing is reading. Shut
        // the socket first so a writer blocked mid-`write_all` wakes.
        conn.queue.abort();
        let _ = conn.sock.shutdown(Shutdown::Both);
        let _ = writer.join();
    }
    ctx.metrics.observe_writer_depth(conn.queue.peak() as u64);
    ctx.metrics.connection_closed(reason);
}

/// Pushes one frame into the connection's queue, recording depth into
/// the peak gauge and evicting the connection on overflow. Used from
/// the reader *and* the driver sink — neither ever blocks.
fn push_frame(conn: &Conn, metrics: &Metrics, frame: String) {
    let (outcome, depth) = conn.queue.push(frame);
    metrics.observe_writer_depth(depth as u64);
    if outcome == PushOutcome::Overflow {
        conn.evict(DisconnectReason::SlowReader);
    }
}

/// Parses and executes one request line, pushing replies (and, for
/// submits, wiring the streaming sink) into the writer queue.
fn handle_line(line: &str, ctx: &Arc<ConnCtx>, conn: &Arc<Conn>) {
    let frame = match proto::parse_frame(line) {
        Ok(f) => f,
        Err(msg) => {
            push_frame(conn, &ctx.metrics, proto::error_frame(&msg));
            return;
        }
    };
    match frame {
        ClientFrame::Submit {
            ctx: ctx_idx,
            tenant,
            query,
            context_len,
            gen_tokens,
            priority,
            deadline_ms,
            stream,
        } => {
            let Some(handle) = ctx.contexts.get(ctx_idx) else {
                push_frame(
                    conn,
                    &ctx.metrics,
                    proto::error_frame(&format!(
                        "unknown ctx index {ctx_idx} (have {})",
                        ctx.contexts.len()
                    )),
                );
                return;
            };
            let mut net = NetRequest::new(
                handle,
                DecodeRequest::new(tenant, query, context_len, gen_tokens),
            )
            .priority(priority);
            if let Some(ms) = deadline_ms {
                net = net.deadline_ms(ms);
            }
            // Every submission streams its lifecycle events; the sink
            // drops per-token frames unless the client asked for them.
            // The sink runs on the driver thread, so it must never
            // block: push_frame evicts on overflow instead.
            let sink_conn = Arc::clone(conn);
            let sink_metrics = Arc::clone(&ctx.metrics);
            let ticket = ctx.client.submit_streaming(
                net,
                Box::new(move |ev: StreamEvent| {
                    if !stream && matches!(ev, StreamEvent::Token { .. }) {
                        return;
                    }
                    push_frame(&sink_conn, &sink_metrics, proto::event_frame(&ev));
                }),
            );
            super::lock_recover(&conn.tickets).insert(ticket.id(), ticket);
        }
        ClientFrame::Poll { id } => {
            let reply = {
                let tickets = super::lock_recover(&conn.tickets);
                match tickets.get(&id) {
                    Some(ticket) => {
                        // A DriverDown wait maps through poll() to a
                        // typed `internal` rejection; Timeout just means
                        // the ticket is still pending.
                        let status = ctx.client.poll(ticket);
                        let end = ctx.client.wait_timeout(ticket, Duration::ZERO).ok();
                        proto::status_frame(id, &status, end.as_ref())
                    }
                    None => proto::status_frame(id, &vqllm_llm::RequestStatus::Unknown, None),
                }
            };
            push_frame(conn, &ctx.metrics, reply);
        }
        ClientFrame::Cancel { id } => {
            let ticket = super::lock_recover(&conn.tickets).get(&id).cloned();
            if let Some(ticket) = ticket {
                ctx.client.cancel(&ticket);
            }
            // The terminal `rejected` event arrives through the sink.
        }
        ClientFrame::Ping => {
            push_frame(conn, &ctx.metrics, proto::pong_frame());
        }
        ClientFrame::Stats => {
            let uptime_ms = ctx.started.elapsed().as_millis().min(u64::MAX as u128) as u64;
            let reply = match ctx.client.stats() {
                Some(stats) => proto::stats_frame(&stats, &ctx.client.metrics(), uptime_ms),
                None => proto::error_frame("driver stopped"),
            };
            push_frame(conn, &ctx.metrics, reply);
        }
    }
}

/// Convenience constructor used by the examples and tests: binds the
/// engine to a loopback address with an OS-assigned port and default
/// [`NetConfig`] limits.
pub fn loopback(
    engine: Engine,
    contexts: Vec<ContextHandle>,
    cfg: AdmissionConfig,
) -> std::io::Result<NetServer> {
    NetServer::bind(engine, contexts, cfg, ("127.0.0.1", 0))
}

/// [`loopback`] with explicit [`NetConfig`] limits (what the load
/// harness and the disconnect tests use).
pub fn loopback_with(
    engine: Engine,
    contexts: Vec<ContextHandle>,
    cfg: AdmissionConfig,
    net: NetConfig,
) -> std::io::Result<NetServer> {
    NetServer::bind_with(engine, contexts, cfg, net, ("127.0.0.1", 0))
}

/// [`loopback_with`] behind a supervised driver (what the chaos harness
/// uses to force and survive driver kills).
pub fn loopback_supervised(
    factory: EngineFactory,
    cfg: AdmissionConfig,
    sup: SupervisorConfig,
    net: NetConfig,
) -> std::io::Result<NetServer> {
    NetServer::bind_supervised(factory, cfg, sup, net, ("127.0.0.1", 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_queue_flushes_on_close_but_not_on_abort() {
        let q = FrameQueue::new(8);
        assert_eq!(q.push("a".into()).0, PushOutcome::Ok);
        assert_eq!(q.push("b".into()).0, PushOutcome::Ok);
        q.close();
        assert_eq!(
            q.push("late".into()).0,
            PushOutcome::Ok,
            "dropped, not queued"
        );
        assert_eq!(q.pop_blocking().as_deref(), Some("a"));
        assert_eq!(q.pop_blocking().as_deref(), Some("b"));
        assert!(q.pop_blocking().is_none(), "closed and drained");

        let q = FrameQueue::new(8);
        q.push("a".into());
        q.abort();
        assert!(q.pop_blocking().is_none(), "aborted queues discard");
        assert_eq!(q.peak(), 1);
    }

    #[test]
    fn frame_queue_overflows_at_the_hard_cap() {
        let q = FrameQueue::new(2);
        assert_eq!(q.push("a".into()).0, PushOutcome::Ok);
        assert_eq!(q.push("b".into()).0, PushOutcome::Ok);
        assert_eq!(q.push("c".into()).0, PushOutcome::Overflow);
        // Overflow does not enqueue; depth stays at the cap.
        assert_eq!(q.peak(), 2);
        assert_eq!(q.pop_blocking().as_deref(), Some("a"));
        assert_eq!(q.push("c".into()).0, PushOutcome::Ok, "room again");
    }

    #[test]
    fn frame_queue_grace_clock_tracks_the_soft_watermark() {
        let q = FrameQueue::new(4); // soft watermark = 2
        q.push("a".into());
        assert!(!q.slow_expired(Duration::ZERO), "below soft");
        q.push("b".into());
        std::thread::sleep(Duration::from_millis(5));
        assert!(q.slow_expired(Duration::ZERO), "over soft past grace");
        assert!(!q.slow_expired(Duration::from_secs(60)), "grace not up");
        // Draining below the soft watermark clears the clock.
        q.pop_blocking();
        assert!(!q.slow_expired(Duration::ZERO));
    }
}
