//! The loopback-TCP load generator.
//!
//! One thread per connection, at most `nproc` of each. A connection
//! multiplexes all of its in-flight requests: the server numbers requests
//! in its `accepted` frames, which arrive in submit order per connection,
//! and every later frame carries that number. A frame's timestamp is taken
//! when the `read` that delivered it returns, before it is parsed.
//!
//! A connection must read frames and send on a schedule (due times, think
//! times) from one thread, and `std` has no readiness call, so the thread
//! polls a non-blocking socket and sleeps ≤ 100 µs when nothing happened —
//! which the kernel stretches to ≈ 170 µs here. That is the bound on how
//! late a frame is stamped or a due request written
//! (`loadgen.lag_p99_ms` reports the latter). `SO_RCVTIMEO` is no
//! alternative: it rounds every wait up to a 4 ms jiffy.

use crate::gen::Request;
use crate::load::{Outcome, PhaseResult, Plan, ReqRecord, Slots};
use crate::spec::{self, Arrival};
use crate::speed::{self, Sampler};
use crate::trace::Clock;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;
use vq_llm::net::json::{self, Json};

const SAMPLE_EVERY_NS: u64 = 50_000_000;
const POLL: Duration = Duration::from_micros(100);

/// One `stats` reply sampled during a traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsSample {
    /// When the reply was read.
    pub t_ns: u64,
    /// `DriverStats.front_queued`.
    pub front_queued: f64,
    /// `DriverStats.engine_queued`.
    pub engine_queued: f64,
    /// `DriverStats.running`.
    pub running: f64,
    /// `DriverStats.inflight_tokens`.
    pub inflight_tokens: f64,
    /// Steps the driver has recorded.
    pub steps: f64,
    /// Mean step latency so far, µs.
    pub step_mean_us: f64,
}

/// One open connection and what has been read from it but not yet split
/// into lines.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `TcpStream::connect` called → `hello` frame parsed, ns.
    pub connect_to_hello_ns: u64,
}

impl Conn {
    /// Connects and reads the `hello` handshake.
    pub fn open(addr: SocketAddr, clock: Clock) -> std::io::Result<Conn> {
        let t0 = clock.now_ns();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let mut c = Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            connect_to_hello_ns: 0,
        };
        let line = c
            .read_line_blocking()?
            .ok_or_else(|| std::io::Error::new(ErrorKind::UnexpectedEof, "closed before hello"))?;
        let hello = json::parse(&line).ok();
        if hello
            .as_ref()
            .and_then(|v| v.get("event"))
            .and_then(Json::as_str)
            != Some("hello")
        {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("no hello: {line}"),
            ));
        }
        c.connect_to_hello_ns = clock.now_ns() - t0;
        Ok(c)
    }

    fn take_line(&mut self) -> Option<String> {
        let pos = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..pos]).into_owned();
        self.buf.drain(..=pos);
        Some(line)
    }

    /// Next line, blocking (probes only). `None` at end of stream.
    pub fn read_line_blocking(&mut self) -> std::io::Result<Option<String>> {
        let mut tmp = [0u8; 4096];
        loop {
            if let Some(l) = self.take_line() {
                return Ok(Some(l));
            }
            match self.stream.read(&mut tmp)? {
                0 => return Ok(None),
                n => self.buf.extend_from_slice(&tmp[..n]),
            }
        }
    }

    /// Writes one frame. On a non-blocking socket a full send buffer is
    /// waited out (submit lines are small; it does not happen unless the
    /// server stopped reading).
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Round trip of one `ping` on an otherwise quiet connection, ns.
    pub fn ping_blocking(&mut self, clock: Clock) -> std::io::Result<u64> {
        let t0 = clock.now_ns();
        self.send_line("{\"verb\":\"ping\"}")?;
        loop {
            match self.read_line_blocking()? {
                Some(l) if l.contains("\"pong\"") => return Ok(clock.now_ns() - t0),
                Some(_) => {}
                None => return Err(ErrorKind::UnexpectedEof.into()),
            }
        }
    }
}

/// What one phase of TCP load produced beyond the request records.
#[derive(Debug, Default)]
pub struct TcpPhase {
    /// Request records, steps empty.
    pub result: PhaseResult,
    /// Bytes of token frames read (newline included).
    pub token_frame_bytes: u64,
    /// Token frames read.
    pub token_frames: u64,
    /// `ping` → `pong` under load, ns.
    pub ping_rtt_ns: Vec<u64>,
    /// `stats` replies under load.
    pub stats: Vec<StatsSample>,
    /// `retry_after_ms` of every rejection frame.
    pub retry_after_ms: Vec<f64>,
    /// A few raw token frames (what the client-side parse probe times).
    pub sample_frames: Vec<String>,
}

struct Worker<'a> {
    conn: &'a mut Conn,
    clock: Clock,
    plan: Plan<'a>,
    sampler: bool,
    records: Vec<ReqRecord>,
    /// Sent, not yet acknowledged (`accepted` / `rejected` / `error`), in
    /// send order.
    awaiting: VecDeque<usize>,
    by_id: HashMap<u64, usize>,
    /// Done-only requests whose rows were asked for with `poll`.
    polling: HashMap<u64, usize>,
    inflight: usize,
    /// Requests finished so far, and the count at which to read the
    /// process's peak resident set (this connection's share of
    /// `Plan::rss_after`).
    finished: usize,
    rss_after: usize,
    /// Closed loop: the request slots not yet refilled.
    slots: Slots,
    pings: VecDeque<u64>,
    last_sample_ns: u64,
    out: TcpPhase,
    dead: bool,
}

impl Worker<'_> {
    /// Writes `r`'s submit line; its latency runs from `start_ns`, when it
    /// arrived (due time, or think time over).
    fn send(&mut self, r: &Request, start_ns: u64) {
        let line = r.submit_line();
        let t0 = self.clock.now_ns();
        let ok = self.conn.send_line(&line).is_ok();
        let mut rec = ReqRecord::new(r, start_ns, t0);
        let pos = self.records.len();
        if ok {
            self.awaiting.push_back(pos);
            self.inflight += 1;
        } else {
            rec.outcome = Outcome::Eof;
            self.dead = true;
        }
        if self.plan.trace {
            let t1 = self.clock.now_ns();
            self.out
                .result
                .trace
                .push("send", t0, t1, 0, r.idx as u32 + 1);
        }
        self.records.push(rec);
    }

    fn finish(&mut self, pos: usize, now: u64, outcome: Outcome) {
        let rec = &mut self.records[pos];
        rec.done_ns = now;
        // The first fault found is the one reported.
        if rec.outcome == Outcome::TimedOut {
            rec.outcome = outcome;
        }
        self.inflight -= 1;
        self.finished += 1;
        if self.finished == self.rss_after {
            self.out.result.rss_mb = crate::report::peak_rss_mb();
        }
        if self.plan.arrival != Arrival::Open {
            self.slots.free(now);
        }
    }

    fn on_frame(&mut self, line: &str, now: u64) {
        let Ok(v) = json::parse(line) else {
            return;
        };
        let id = v.get("id").and_then(Json::as_u64);
        match v.get("event").and_then(Json::as_str).unwrap_or("") {
            "accepted" => {
                if let (Some(id), Some(pos)) = (id, self.awaiting.pop_front()) {
                    self.records[pos].accepted_ns = now;
                    self.by_id.insert(id, pos);
                }
            }
            "token" => {
                self.out.token_frames += 1;
                self.out.token_frame_bytes += line.len() as u64 + 1;
                if self.out.sample_frames.len() < 64 {
                    self.out.sample_frames.push(line.to_string());
                }
                let Some(&pos) = id.and_then(|id| self.by_id.get(&id)) else {
                    return;
                };
                let rec = &mut self.records[pos];
                let index = v.get("index").and_then(Json::as_usize);
                if !rec.stream || index != Some(rec.token_ns.len()) {
                    rec.outcome = Outcome::FrameOrder;
                }
                rec.token_ns.push(now);
                if self.plan.keep.wants(rec.idx) {
                    let row = v.get("value").and_then(Json::as_f32s).unwrap_or_default();
                    rec.rows.get_or_insert_with(Vec::new).push(row);
                }
            }
            "done" => {
                let Some(pos) = id.and_then(|id| self.by_id.remove(&id)) else {
                    return;
                };
                let rec = &self.records[pos];
                let tokens = v.get("tokens").and_then(Json::as_usize);
                let seen = if rec.stream {
                    rec.token_ns.len()
                } else {
                    rec.gen_tokens
                };
                let ok = tokens == Some(rec.gen_tokens) && seen == rec.gen_tokens;
                if ok && !rec.stream && self.plan.keep.wants(rec.idx) {
                    // Done-only delivery: the rows are fetched with `poll`.
                    let id = id.unwrap_or(0);
                    if self
                        .conn
                        .send_line(&format!("{{\"verb\":\"poll\",\"id\":{id}}}"))
                        .is_ok()
                    {
                        self.polling.insert(id, pos);
                    }
                }
                self.finish(pos, now, if ok { Outcome::Ok } else { Outcome::WrongCount });
            }
            "status" => {
                if let Some(pos) = id.and_then(|id| self.polling.remove(&id)) {
                    let rows = match v.get("steps") {
                        Some(Json::Arr(rows)) => rows.iter().filter_map(Json::as_f32s).collect(),
                        _ => Vec::new(),
                    };
                    self.records[pos].rows = Some(rows);
                }
            }
            "rejected" => {
                let pos = match id.and_then(|id| self.by_id.remove(&id)) {
                    Some(pos) => Some(pos),
                    None => self.awaiting.pop_front(),
                };
                if let Some(ms) = v.get("retry_after_ms").and_then(Json::as_f64) {
                    self.out.retry_after_ms.push(ms);
                }
                if let Some(pos) = pos {
                    self.finish(pos, now, Outcome::Rejected);
                }
            }
            "error" => {
                if let Some(pos) = self.awaiting.pop_front() {
                    self.finish(pos, now, Outcome::Errored);
                }
            }
            "pong" => {
                if let Some(t0) = self.pings.pop_front() {
                    self.out.ping_rtt_ns.push(now - t0);
                }
            }
            "stats" => {
                let num = |o: Option<&Json>, k: &str| {
                    o.and_then(|o| o.get(k))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                let (s, m) = (v.get("server"), v.get("metrics"));
                self.out.stats.push(StatsSample {
                    t_ns: now,
                    front_queued: num(s, "front_queued"),
                    engine_queued: num(s, "engine_queued"),
                    running: num(s, "running"),
                    inflight_tokens: num(s, "inflight_tokens"),
                    steps: num(m, "steps"),
                    step_mean_us: num(m, "step_latency_mean_us"),
                });
            }
            _ => {}
        }
    }

    /// Reads what is there and handles every complete frame; sleeps
    /// `idle_wait` when nothing was.
    fn pump(&mut self, idle_wait: Duration) {
        let mut tmp = [0u8; 1 << 16];
        match self.conn.stream.read(&mut tmp) {
            Ok(0) => self.dead = true,
            Ok(n) => {
                let now = self.clock.now_ns();
                self.conn.buf.extend_from_slice(&tmp[..n]);
                while let Some(line) = self.conn.take_line() {
                    self.on_frame(&line, now);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(idle_wait),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => self.dead = true,
        }
    }

    fn sample(&mut self, now: u64) {
        if self.sampler && now - self.last_sample_ns >= SAMPLE_EVERY_NS {
            self.last_sample_ns = now;
            let sent = self.conn.send_line("{\"verb\":\"ping\"}").is_ok()
                && self.conn.send_line("{\"verb\":\"stats\"}").is_ok();
            if sent {
                self.pings.push_back(now);
            }
        }
    }

    fn quiet(&self) -> bool {
        self.inflight == 0 && self.polling.is_empty()
    }

    fn run(&mut self, mine: &[&Request], begin: u64) {
        let warm_end = begin + self.plan.warmup_ns;
        let end = warm_end + self.plan.measure_ns;
        let open = self.plan.arrival == Arrival::Open;
        let last_due = mine.last().map_or(0, |r| r.due_ns);
        let give_up =
            (spec::DRAIN_TIMEOUT_S * 1e9) as u64 + if open { begin + last_due } else { end };
        // Closed loop: the warm-up sends from the middle of the list and
        // the window restarts it, so a window always opens on the same
        // requests (the ones the correctness sample is drawn from).
        let mut next = if open { 0 } else { mine.len() / 2 };
        let mut in_window = open;
        while !self.dead {
            let now = self.clock.now_ns();
            if !in_window && now >= warm_end {
                in_window = true;
                next = 0;
            }
            // When the next send falls due (open loop: its due time;
            // closed loop: a slot came free and its think time passed).
            let next_send = if open {
                while next < mine.len() && begin + mine[next].due_ns <= now {
                    self.send(mine[next], begin + mine[next].due_ns);
                    next += 1;
                }
                mine.get(next).map(|r| begin + r.due_ns)
            } else if now < end {
                loop {
                    let r = mine[next % mine.len()];
                    match self.slots.take(now, r.think_ns) {
                        // Timed, like a due request, from when it arrived
                        // (think time over), not from when this loop got
                        // round to writing it.
                        Ok(ready) => self.send(r, ready),
                        Err(wait) => break wait,
                    }
                    next += 1;
                }
            } else {
                None
            };
            if next_send.is_none() && self.quiet() && (open || now >= end) {
                break;
            }
            if now >= give_up {
                break;
            }
            self.sample(now);
            let until_send =
                Duration::from_nanos(next_send.map_or(u64::MAX, |t| t.saturating_sub(now)));
            if self.quiet() {
                // Nothing can arrive: sleep straight through to the send.
                std::thread::sleep(
                    until_send
                        .min(Duration::from_millis(20))
                        .saturating_sub(POLL),
                );
            }
            self.pump(until_send.min(POLL));
        }
        // Whatever is still open never finished: cut off or timed out.
        let outcome = if self.dead {
            Outcome::Eof
        } else {
            Outcome::TimedOut
        };
        for rec in &mut self.records {
            if rec.done_ns == 0 && rec.outcome == Outcome::TimedOut {
                rec.outcome = outcome;
            }
        }
        if self.plan.trace {
            self.request_spans();
        }
    }

    /// `req ⊃ wait_accepted, queue (accepted → first token), stream (first
    /// token → done)` for every finished request (`send` was recorded
    /// live).
    fn request_spans(&mut self) {
        for rec in &self.records {
            if rec.outcome != Outcome::Ok {
                continue;
            }
            let req = rec.idx as u32 + 1;
            let t = &mut self.out.result.trace;
            let root = t.push("req", rec.start_ns, rec.done_ns, 0, req);
            t.push("wait_accepted", rec.sent_ns, rec.accepted_ns, root, req);
            let first = rec.token_ns.first().copied().unwrap_or(rec.done_ns);
            t.push("queue", rec.accepted_ns, first, root, req);
            t.push("stream", first, rec.done_ns, root, req);
        }
    }
}

/// The load generator's connections to one server.
#[derive(Debug)]
pub struct TcpLoad {
    conns: Vec<Conn>,
}

impl TcpLoad {
    /// Opens `n` connections.
    pub fn connect(addr: SocketAddr, n: usize, clock: Clock) -> std::io::Result<TcpLoad> {
        Ok(TcpLoad {
            conns: (0..n)
                .map(|_| Conn::open(addr, clock))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Connections held.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// Whether no connection is held.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Runs one phase over the held connections, one thread each.
    /// Closed loop: `reqs` is cycled, connection `c` taking every
    /// `len()`-th request from `c`. Open loop: each request is sent once,
    /// at its due time after the phase's start, by connection
    /// `position % len()`.
    pub fn run(&mut self, reqs: &[Request], plan: Plan<'_>, clock: Clock) -> TcpPhase {
        let n = self.conns.len();
        let total = match plan.arrival {
            Arrival::InFlight(k) => k,
            _ => 0,
        };
        let open = plan.arrival == Arrival::Open;
        let begin = clock.now_ns();
        // The kernels run on the server's driver thread; the readings come
        // from a thread pinned to the same core.
        let sampler = Sampler::start(clock, plan.placement.program);
        let parts: Vec<TcpPhase> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let mine: Vec<&Request> = reqs.iter().skip(c).step_by(n).collect();
                    let slots = total / n + usize::from(c < total % n);
                    s.spawn(move || {
                        if let Some(cpu) = plan.placement.load {
                            speed::pin_to(cpu);
                        }
                        let _ = conn.stream.set_nonblocking(true);
                        let mut w = Worker {
                            conn,
                            clock,
                            plan,
                            sampler: plan.trace && c == 0,
                            records: Vec::new(),
                            awaiting: VecDeque::new(),
                            by_id: HashMap::new(),
                            polling: HashMap::new(),
                            inflight: 0,
                            finished: 0,
                            rss_after: plan.rss_after.div_ceil(n),
                            slots: Slots::new(slots, begin),
                            pings: VecDeque::new(),
                            last_sample_ns: begin,
                            out: TcpPhase::default(),
                            dead: false,
                        };
                        if !mine.is_empty() {
                            w.run(&mine, begin);
                        }
                        let _ = w.conn.stream.set_nonblocking(false);
                        w.out.result.records = w.records;
                        w.out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load-generator thread panicked"))
                .collect()
        });
        let mut all = TcpPhase::default();
        // The high-water mark only rises: the latest reading is the one
        // taken with every connection's share served — if all got that far.
        let readings = parts.iter().map(|p| p.result.rss_mb);
        if readings.clone().all(|mb| mb > 0.0) {
            all.result.rss_mb = readings.fold(0.0, f64::max);
        }
        all.result.speed = sampler.finish();
        for p in parts {
            all.result.records.extend(p.result.records);
            all.result.trace.absorb(p.result.trace);
            all.token_frame_bytes += p.token_frame_bytes;
            all.token_frames += p.token_frames;
            all.ping_rtt_ns.extend(p.ping_rtt_ns);
            all.stats.extend(p.stats);
            all.retry_after_ms.extend(p.retry_after_ms);
            all.sample_frames.extend(p.sample_frames);
        }
        all.result.records.sort_by_key(|r| r.sent_ns);
        all.result.window = if open {
            (begin, clock.now_ns())
        } else {
            (
                begin + plan.warmup_ns,
                begin + plan.warmup_ns + plan.measure_ns,
            )
        };
        all
    }
}
