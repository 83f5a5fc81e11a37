//! The engine driver: a dedicated thread that owns an [`Engine`] and
//! steps it whenever work is pending, behind a thread-safe [`Client`]
//! handle.
//!
//! The engine's API is deliberately synchronous and single-threaded —
//! `submit`/`step`/`poll` on one `&mut Engine` — which keeps the
//! scheduler deterministic and testable. The driver is the seam that
//! turns it into a service:
//!
//! * **one owner** — the driver thread holds the `Engine`; everything
//!   else talks to it through an mpsc command channel, so there is no
//!   lock around the scheduler and no step ever waits on a client;
//! * **work-conserving, never spinning** — the loop blocks on the
//!   channel when the engine is idle and drains commands between steps
//!   when it is not; a submit wakes it by virtue of the channel recv;
//! * **fairness in front, FIFO behind** — submissions enter the
//!   [`Admission`] fair queue (weighted stride scheduling + deadline
//!   admission) and are forwarded to the engine only while a decode slot
//!   is free, so the engine's own FIFO never holds more than a batch and
//!   cannot reorder the fairness decisions;
//! * **completion without polling** — every submission returns a
//!   [`Ticket`] holding a private wait cell the driver resolves when the
//!   request finishes or is rejected; [`Client::wait`] and
//!   [`Client::wait_timeout`] block on that cell directly, no driver
//!   round-trip;
//! * **streaming** — a [`StreamSink`] submitted with the request is
//!   called *from the driver thread* after every step with the newly
//!   decoded rows ([`StreamEvent::Token`]), so frame order is exactly
//!   decode order: `Accepted`, then one `Token` per decoded row, then
//!   `Done` (or `Rejected` at any point before completion);
//! * **measured admission** — every step's wall time feeds the shared
//!   [`Metrics`], and the admission deadline math prices new arrivals at
//!   the measured mean step latency (falling back to the configured
//!   prior while cold).
//!
//! Determinism note: the decode bytes themselves stay bitwise identical
//! to a solo drain — the driver only decides *when* requests enter the
//! engine, and the scheduler is numerically invisible (`tests/serving.rs`
//! pins that; `tests/net_serving.rs` re-pins it through a TCP socket).

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use vqllm_core::failpoint::{self, Site};
use vqllm_llm::{
    ContextHandle, RejectReason, RequestHandle, RequestOutput, RequestStatus, ServerStats,
};

use crate::engine::Engine;
use crate::net::admission::{Admission, AdmissionConfig, NetRequest};
use crate::net::lock_recover;
use crate::net::metrics::{Metrics, MetricsSnapshot};

/// How a driven request ends: the terminal state a [`Ticket`]'s wait
/// resolves to.
#[derive(Debug, Clone, PartialEq)]
pub enum TicketEnd {
    /// All requested tokens decoded; the full output is attached (for
    /// streamed requests the rows were also delivered incrementally).
    Finished(RequestOutput),
    /// Refused — at admission, at forwarding, or by cancellation.
    Rejected {
        /// The typed reason.
        reason: RejectReason,
        /// Computed backoff when retrying could help; `0` when it cannot
        /// (invalid request, cancelled, driver stopped).
        retry_after_ms: u64,
    },
}

/// What the driver pushes through a [`StreamSink`], in guaranteed order:
/// `Accepted`, then `Token` per decoded row (ascending `index`), then
/// exactly one terminal `Done` or `Rejected`.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// The request passed admission and entered the fair queue.
    Accepted {
        /// The ticket id.
        id: u64,
    },
    /// One newly decoded hidden-state row.
    Token {
        /// The ticket id.
        id: u64,
        /// Zero-based decode step of this row.
        index: usize,
        /// The row (`head_dim` wide), bitwise as the engine produced it.
        value: Vec<f32>,
    },
    /// All rows decoded.
    Done {
        /// The ticket id.
        id: u64,
        /// Total rows decoded.
        tokens: usize,
    },
    /// The request will produce no further events.
    Rejected {
        /// The ticket id.
        id: u64,
        /// The typed reason.
        reason: RejectReason,
        /// Computed backoff (0 when retrying cannot help).
        retry_after_ms: u64,
    },
}

/// A per-request event callback, invoked from the driver thread.
pub type StreamSink = Box<dyn FnMut(StreamEvent) + Send + 'static>;

/// Why a wait returned without the ticket resolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitError {
    /// The deadline passed with the ticket still pending (retry the
    /// wait; the ticket stays live).
    Timeout,
    /// The driver thread died and was not (or could not be) restarted:
    /// the ticket will never resolve. Distinct from a rejection — the
    /// engine's state at the time of death is unknown.
    DriverDown,
}

impl std::fmt::Display for WaitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaitError::Timeout => write!(f, "wait timed out; ticket still pending"),
            WaitError::DriverDown => write!(f, "driver down; ticket will never resolve"),
        }
    }
}

/// A wait cell's lifecycle: pending until the driver resolves it, or
/// marked down by the supervisor's final sweep when the driver dies for
/// good (so no waiter ever blocks forever on a dead thread).
#[derive(Debug, Clone)]
enum CellState {
    Pending,
    Done(TicketEnd),
    DriverDown,
}

/// The one-shot completion cell a ticket blocks on.
#[derive(Debug)]
struct WaitCell {
    state: Mutex<CellState>,
    cv: Condvar,
}

impl WaitCell {
    fn new() -> WaitCell {
        WaitCell {
            state: Mutex::new(CellState::Pending),
            cv: Condvar::new(),
        }
    }

    /// First terminal transition wins; later resolves (and a sweep after
    /// a resolve) are no-ops.
    fn resolve(&self, end: TicketEnd) {
        let mut s = lock_recover(&self.state);
        if matches!(*s, CellState::Pending) {
            *s = CellState::Done(end);
            self.cv.notify_all();
        }
    }

    /// Marks a still-pending cell as orphaned by a dead driver.
    fn mark_down(&self) {
        let mut s = lock_recover(&self.state);
        if matches!(*s, CellState::Pending) {
            *s = CellState::DriverDown;
            self.cv.notify_all();
        }
    }

    fn peek(&self) -> CellState {
        lock_recover(&self.state).clone()
    }

    fn wait(&self) -> Result<TicketEnd, WaitError> {
        let mut s = lock_recover(&self.state);
        loop {
            match &*s {
                CellState::Done(end) => return Ok(end.clone()),
                CellState::DriverDown => return Err(WaitError::DriverDown),
                CellState::Pending => {
                    s = self
                        .cv
                        .wait(s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                }
            }
        }
    }

    fn wait_timeout(&self, dur: Duration) -> Result<TicketEnd, WaitError> {
        let deadline = Instant::now() + dur;
        let mut s = lock_recover(&self.state);
        loop {
            match &*s {
                CellState::Done(end) => return Ok(end.clone()),
                CellState::DriverDown => return Err(WaitError::DriverDown),
                CellState::Pending => {}
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(WaitError::Timeout);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(s, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            s = guard;
        }
    }
}

/// Every pending wait cell, keyed by ticket id — shared between clients
/// (insert at submit, *before* the command is sent) and the driver
/// (remove at resolution). Whatever is still in the table when the
/// driver thread exits gets swept to [`CellState::DriverDown`], which is
/// what makes [`Client::wait`] hang-proof against driver death.
#[derive(Debug, Default)]
struct CellTable {
    inner: Mutex<CellTableInner>,
}

#[derive(Debug, Default)]
struct CellTableInner {
    /// Latched true by the sweep: nothing will ever resolve a cell again.
    down: bool,
    cells: HashMap<u64, Arc<WaitCell>>,
}

impl CellTable {
    /// Tracks a pending cell. Returns `false` (without tracking) when
    /// the driver is already gone for good — the submit must resolve the
    /// cell itself, because no sweep will run again.
    fn insert(&self, id: u64, cell: &Arc<WaitCell>) -> bool {
        let mut t = lock_recover(&self.inner);
        if t.down {
            return false;
        }
        t.cells.insert(id, Arc::clone(cell));
        true
    }

    fn remove(&self, id: u64) {
        lock_recover(&self.inner).cells.remove(&id);
    }

    /// Marks every still-tracked cell as orphaned and latches the table
    /// down (the driver-thread exit path, clean or not — resolved
    /// tickets were already removed). Inserts racing this sweep either
    /// land before the drain (and get marked here) or observe the latch
    /// and resolve themselves.
    fn sweep_down(&self) {
        let cells: Vec<Arc<WaitCell>> = {
            let mut t = lock_recover(&self.inner);
            t.down = true;
            t.cells.drain().map(|(_, c)| c).collect()
        };
        for cell in cells {
            cell.mark_down();
        }
    }
}

/// A submitted request's handle: the driver-assigned id plus the wait
/// cell its completion resolves. Waiting never round-trips through the
/// driver, so a resolved ticket is observable even after the driver
/// stopped.
#[derive(Debug, Clone)]
pub struct Ticket {
    id: u64,
    cell: Arc<WaitCell>,
}

impl Ticket {
    /// The driver-assigned id (what the line protocol's `poll`/`cancel`
    /// verbs reference).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Where a request currently queues, as the driver tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// In the front-end fair queue.
    Queued,
    /// Handed to the engine (holding or about to hold a decode slot).
    Running,
}

struct SubmitCmd {
    id: u64,
    net: NetRequest,
    sink: Option<StreamSink>,
    cell: Arc<WaitCell>,
}

enum Cmd {
    Submit(Box<SubmitCmd>),
    Cancel { id: u64 },
    Stats { reply: Sender<DriverStats> },
    Drain(DrainJob),
    Shutdown,
}

/// An in-progress graceful drain: reject new work, finish what's in
/// flight, escalate to cancel-everything at the deadline.
struct DrainJob {
    deadline: Instant,
    reply: Sender<DrainReport>,
    /// In-flight requests that ran to completion since the drain began.
    completed: usize,
}

/// What a graceful drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests in flight at drain start that ran to completion.
    pub completed: usize,
    /// Requests cancelled at the deadline (0 for a clean drain).
    pub cancelled: usize,
}

/// A point-in-time view of the serving stack's queues (the `stats`
/// verb's payload, next to the metrics snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct DriverStats {
    /// The engine scheduler's cumulative counters.
    pub server: ServerStats,
    /// Requests waiting in the front-end fair queue.
    pub front_queued: usize,
    /// Requests waiting in the engine's (intentionally shallow) FIFO.
    pub engine_queued: usize,
    /// Requests holding a decode slot.
    pub running: usize,
    /// Tokens still owed by requests handed to the engine (the SLO
    /// backlog term; exactly 0 when the driver is idle).
    pub inflight_tokens: u64,
    /// Whether the driver is refusing new work pending shutdown.
    pub draining: bool,
}

/// The thread-safe handle to a driven engine. Cheap to clone; every
/// clone talks to the same driver thread.
#[derive(Clone)]
pub struct Client {
    tx: Sender<Cmd>,
    metrics: Arc<Metrics>,
    phases: Arc<Mutex<HashMap<u64, Phase>>>,
    cells: Arc<CellTable>,
    next_id: Arc<AtomicU64>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Submits a request; never blocks and never fails. A refused
    /// request's ticket resolves to [`TicketEnd::Rejected`] (immediately,
    /// when the driver has stopped).
    pub fn submit(&self, net: NetRequest) -> Ticket {
        self.submit_inner(net, None)
    }

    /// Submits a request with a streaming sink: the driver calls it with
    /// every [`StreamEvent`] in decode order, from the driver thread.
    pub fn submit_streaming(&self, net: NetRequest, sink: StreamSink) -> Ticket {
        self.submit_inner(net, Some(sink))
    }

    fn submit_inner(&self, net: NetRequest, sink: Option<StreamSink>) -> Ticket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(WaitCell::new());
        let ticket = Ticket {
            id,
            cell: Arc::clone(&cell),
        };
        // Register the cell before the command is sent: if the driver
        // dies while the command is in flight, the exit sweep finds the
        // cell and marks it DriverDown instead of leaving the waiter
        // stuck. When the table is already latched down (driver gone for
        // good) no sweep will run again, so resolve the refusal here and
        // skip the send entirely.
        if !self.cells.insert(id, &cell) {
            let reason = RejectReason::Invalid {
                what: "driver stopped",
            };
            if let Some(mut s) = sink {
                s(StreamEvent::Rejected {
                    id,
                    reason,
                    retry_after_ms: 0,
                });
            }
            cell.resolve(TicketEnd::Rejected {
                reason,
                retry_after_ms: 0,
            });
            return ticket;
        }
        let cmd = Cmd::Submit(Box::new(SubmitCmd {
            id,
            net,
            sink,
            cell,
        }));
        if let Err(mpsc::SendError(Cmd::Submit(mut boxed))) = self.tx.send(cmd) {
            let reason = RejectReason::Invalid {
                what: "driver stopped",
            };
            if let Some(s) = boxed.sink.as_mut() {
                s(StreamEvent::Rejected {
                    id,
                    reason,
                    retry_after_ms: 0,
                });
            }
            boxed.cell.resolve(TicketEnd::Rejected {
                reason,
                retry_after_ms: 0,
            });
            self.cells.remove(id);
        }
        ticket
    }

    /// Where the ticket currently is: `Queued` (front-end fair queue, or
    /// still in flight to the driver), `Running` (handed to the engine),
    /// `Finished`, or `Rejected`.
    pub fn poll(&self, ticket: &Ticket) -> RequestStatus {
        match ticket.cell.peek() {
            CellState::Done(TicketEnd::Finished(out)) => RequestStatus::Finished {
                tokens: out.steps.len(),
            },
            CellState::Done(TicketEnd::Rejected { reason, .. }) => {
                RequestStatus::Rejected { reason }
            }
            CellState::DriverDown => RequestStatus::Rejected {
                reason: RejectReason::Internal {
                    what: "driver down",
                },
            },
            CellState::Pending => match lock_recover(&self.phases).get(&ticket.id) {
                Some(Phase::Running) => RequestStatus::Running,
                _ => RequestStatus::Queued,
            },
        }
    }

    /// Blocks until the ticket resolves.
    ///
    /// # Errors
    ///
    /// Returns [`WaitError::DriverDown`] (never `Timeout`) if the driver
    /// thread died without resolving the ticket — the wait unblocks
    /// instead of hanging forever.
    pub fn wait(&self, ticket: &Ticket) -> Result<TicketEnd, WaitError> {
        ticket.cell.wait()
    }

    /// Blocks until the ticket resolves or the deadline passes.
    ///
    /// # Errors
    ///
    /// Returns [`WaitError::Timeout`] when the deadline passes with the
    /// ticket still pending, [`WaitError::DriverDown`] when the driver
    /// thread died without resolving it.
    pub fn wait_timeout(&self, ticket: &Ticket, dur: Duration) -> Result<TicketEnd, WaitError> {
        ticket.cell.wait_timeout(dur)
    }

    /// Requests cancellation: a queued or running request frees its
    /// entry/slot and the ticket resolves to
    /// [`RejectReason::Cancelled`]; a ticket that already resolved is
    /// unaffected.
    pub fn cancel(&self, ticket: &Ticket) {
        let _ = self.tx.send(Cmd::Cancel { id: ticket.id });
    }

    /// Queue/scheduler counters, fetched from the driver thread (`None`
    /// when the driver has stopped).
    pub fn stats(&self) -> Option<DriverStats> {
        let (tx, rx) = mpsc::channel();
        self.tx.send(Cmd::Stats { reply: tx }).ok()?;
        rx.recv().ok()
    }

    /// A point-in-time copy of the driver's metrics (lock-free reads; no
    /// driver round-trip).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The live metrics the driver records into — shared with the
    /// server's connection plumbing so connection gauges land in the
    /// same snapshot.
    pub(crate) fn metrics_shared(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }
}

/// The handle that owns the driver thread: keep it alive for as long as
/// the engine should serve, then [`DriverHandle::shutdown`].
#[derive(Debug)]
pub struct DriverHandle {
    tx: Sender<Cmd>,
    join: Option<JoinHandle<()>>,
}

impl DriverHandle {
    /// Stops the driver: every unresolved ticket resolves to
    /// [`RejectReason::Cancelled`] and the thread exits. Idempotent with
    /// respect to a driver that already stopped.
    pub fn shutdown(mut self) {
        let _ = self.tx.send(Cmd::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }

    /// Gracefully drains the driver, blocking until it exits: new
    /// submissions are rejected as [`RejectReason::Draining`] (with a
    /// computed retry-after), in-flight requests run to completion, and
    /// anything still unfinished at `deadline` is cancelled. Returns
    /// what happened to the in-flight work.
    pub fn drain(mut self, deadline: Duration) -> DrainReport {
        let (reply, rx) = mpsc::channel();
        let sent = self
            .tx
            .send(Cmd::Drain(DrainJob {
                deadline: Instant::now() + deadline,
                reply,
                completed: 0,
            }))
            .is_ok();
        let report = if sent {
            rx.recv().unwrap_or(DrainReport {
                completed: 0,
                cancelled: 0,
            })
        } else {
            // The driver already stopped: nothing was in flight.
            DrainReport {
                completed: 0,
                cancelled: 0,
            }
        };
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        report
    }
}

impl Drop for DriverHandle {
    fn drop(&mut self) {
        let _ = self.tx.send(Cmd::Shutdown);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// Rebuilds the engine (and re-registers its contexts) after a driver
/// death: the supervisor's warm-restart recipe. The handles come back in
/// protocol `ctx`-index order; a persisted plan cache makes the rebuild
/// skip cold-start planning.
pub type EngineFactory =
    Box<dyn FnMut() -> Result<(Engine, Vec<ContextHandle>), String> + Send + 'static>;

/// The live context-handle table: the supervisor republishes fresh
/// handles here after an engine rebuild, and the protocol layer maps
/// `ctx` indices through it on every submit — so connections keep
/// working across a restart without re-dialing.
#[derive(Debug, Default)]
pub struct HandleTable {
    handles: Mutex<Vec<ContextHandle>>,
}

impl HandleTable {
    /// A table holding `handles` in protocol `ctx`-index order.
    pub fn new(handles: Vec<ContextHandle>) -> HandleTable {
        HandleTable {
            handles: Mutex::new(handles),
        }
    }

    /// The handle at protocol index `idx`, if registered.
    pub fn get(&self, idx: usize) -> Option<ContextHandle> {
        lock_recover(&self.handles).get(idx).copied()
    }

    /// Registered handles.
    pub fn len(&self) -> usize {
        lock_recover(&self.handles).len()
    }

    /// Whether no context is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replaces the whole table (the post-restart republish).
    fn publish(&self, handles: Vec<ContextHandle>) {
        *lock_recover(&self.handles) = handles;
    }
}

/// Restart limits of a supervised driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Engine rebuilds attempted over the driver's lifetime before the
    /// supervisor gives up (remaining waiters then observe
    /// [`WaitError::DriverDown`]). Bounds a crash loop.
    pub max_restarts: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { max_restarts: 3 }
    }
}

/// Spawns the driver thread for a (pre-configured, contexts already
/// registered) engine and returns the client handle plus the thread's
/// owner.
///
/// Unsupervised: if the driver thread panics, every unresolved ticket's
/// wait returns [`WaitError::DriverDown`] and the driver stays down. Use
/// [`spawn_supervised`] for restart-on-death.
pub fn spawn(engine: Engine, cfg: AdmissionConfig) -> (Client, DriverHandle) {
    spawn_inner(engine, cfg, None)
}

/// Spawns a **supervised** driver: the factory builds the initial engine
/// (and is kept for rebuilds), and when the driver thread dies — a panic
/// escaping a step, a wedged engine, an injected fault — the supervisor,
/// in the same thread:
///
/// 1. resolves every live ticket as
///    [`RejectReason::DriverRestarted`] with a retry computed from the
///    measured step latency and the backlog at death;
/// 2. rebuilds the engine through the factory (a persisted plan cache
///    makes this a warm start) and republishes the fresh context handles
///    into the returned [`HandleTable`];
/// 3. re-opens admission with a clean queue and continues serving —
///    [`Metrics::restarts`] counts each recovery.
///
/// After [`SupervisorConfig::max_restarts`] rebuilds (or a factory
/// error), the thread exits and remaining waiters observe
/// [`WaitError::DriverDown`].
///
/// # Errors
///
/// Returns the factory's error if the *initial* engine build fails.
pub fn spawn_supervised(
    mut factory: EngineFactory,
    cfg: AdmissionConfig,
    sup: SupervisorConfig,
) -> Result<(Client, DriverHandle, Arc<HandleTable>), String> {
    let (engine, contexts) = factory()?;
    let handles = Arc::new(HandleTable::new(contexts));
    let (client, driver) = spawn_inner(engine, cfg, Some((factory, sup, Arc::clone(&handles))));
    Ok((client, driver, handles))
}

/// Best-effort panic payload message (panics carry `&str` or `String`
/// in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn spawn_inner(
    engine: Engine,
    cfg: AdmissionConfig,
    supervisor: Option<(EngineFactory, SupervisorConfig, Arc<HandleTable>)>,
) -> (Client, DriverHandle) {
    let (tx, rx) = mpsc::channel();
    let metrics = Arc::new(Metrics::new());
    let phases = Arc::new(Mutex::new(HashMap::new()));
    let cells = Arc::new(CellTable::default());
    let max_batch = engine.serve_config().max_batch;
    let admission = Admission::new(cfg, max_batch);
    let state = DriverState {
        engine,
        admission,
        rx,
        metrics: Arc::clone(&metrics),
        phases: Arc::clone(&phases),
        cells: Arc::clone(&cells),
        tickets: HashMap::new(),
        inflight_tokens: 0,
        started: Instant::now(),
        drain: None,
        steps_done: 0,
        breaker_until: 0,
    };
    let driver_loop = move || {
        let mut state = state;
        let mut supervisor = supervisor;
        let mut restarts_left = supervisor.as_ref().map_or(0, |(_, s, _)| s.max_restarts);
        loop {
            match panic::catch_unwind(AssertUnwindSafe(|| state.run_inner())) {
                Ok(()) => break, // clean shutdown/drain exit
                Err(payload) => {
                    let cause = panic_message(payload.as_ref());
                    let restarted = match supervisor.as_mut() {
                        Some((factory, _, handles)) if restarts_left > 0 => {
                            restarts_left -= 1;
                            state.restart(factory, handles, &cause)
                        }
                        _ => false,
                    };
                    if !restarted {
                        break;
                    }
                }
            }
        }
        // Clean or not, nothing resolves tickets after this point:
        // whatever is still tracked (a submit that raced the exit, a
        // ticket orphaned by an unsupervised death) unblocks as
        // DriverDown instead of hanging its waiter.
        state.cells.sweep_down();
    };
    #[expect(
        clippy::expect_used,
        reason = "runs once at driver construction, before any request is accepted; spawn failure here is unrecoverable resource exhaustion at boot."
    )]
    let join = thread::Builder::new()
        .name("vq-llm-driver".into())
        .spawn(driver_loop)
        .expect("spawn driver thread");
    let client = Client {
        tx: tx.clone(),
        metrics,
        phases,
        cells,
        next_id: Arc::new(AtomicU64::new(1)),
    };
    (
        client,
        DriverHandle {
            tx,
            join: Some(join),
        },
    )
}

/// One live ticket's driver-side record, from admission to resolution.
struct TicketRec {
    cell: Arc<WaitCell>,
    sink: Option<StreamSink>,
    tenant: u64,
    gen_tokens: usize,
    /// Engine handle once forwarded.
    handle: Option<RequestHandle>,
    /// Rows already observed/streamed.
    streamed: usize,
}

struct DriverState {
    engine: Engine,
    admission: Admission,
    rx: Receiver<Cmd>,
    metrics: Arc<Metrics>,
    phases: Arc<Mutex<HashMap<u64, Phase>>>,
    cells: Arc<CellTable>,
    tickets: HashMap<u64, TicketRec>,
    /// Tokens still owed by requests handed to the engine (grows by
    /// `gen_tokens` at forward, shrinks per streamed/finished row and by
    /// the unstreamed remainder on cancel) — the engine-side term of the
    /// SLO backlog. Exactly 0 whenever the driver is idle.
    inflight_tokens: u64,
    /// The driver's monotonic clock origin (positions rate-limit
    /// windows).
    started: Instant,
    /// `Some` while a graceful drain is in progress.
    drain: Option<DrainJob>,
    /// Steps executed (the breaker's cooldown clock; survives restarts).
    steps_done: u64,
    /// While `steps_done` is below this, the breaker halves the
    /// effective `max_batch` in [`DriverState::forward`].
    breaker_until: u64,
}

impl DriverState {
    fn idle(&self) -> bool {
        self.engine.is_idle() && self.admission.is_empty()
    }

    /// Subtracts owed tokens with an underflow guard: the cancel/finish
    /// race must never wrap the backlog counter (a wrapped counter would
    /// poison every deadline-admission decision until restart).
    fn charge_down(&mut self, n: u64) {
        debug_assert!(
            self.inflight_tokens >= n,
            "inflight_tokens underflow: {} - {n}",
            self.inflight_tokens
        );
        self.inflight_tokens = self.inflight_tokens.saturating_sub(n);
    }

    /// Milliseconds since the driver started (the rate-limit clock).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis().min(u64::MAX as u128) as u64
    }

    /// Checks an in-progress drain: `Some` with the final report exactly
    /// when the drain just completed — cleanly (everything in flight
    /// finished) or by deadline escalation (the rest cancelled).
    fn drain_progress(&mut self) -> Option<DrainReport> {
        let (deadline, completed) = match self.drain.as_ref() {
            Some(job) => (job.deadline, job.completed),
            None => return None,
        };
        if self.idle() {
            return Some(DrainReport {
                completed,
                cancelled: 0,
            });
        }
        if Instant::now() >= deadline {
            let cancelled = self.escalate_drain();
            return Some(DrainReport {
                completed,
                cancelled,
            });
        }
        None
    }

    /// The drain deadline passed with work still in flight: cancel every
    /// live ticket (queued or holding a slot) and zero the backlog.
    fn escalate_drain(&mut self) -> usize {
        let ids: Vec<u64> = self.tickets.keys().copied().collect();
        let cancelled = ids.len();
        self.engine.cancel_all();
        for id in ids {
            self.admission.cancel(id);
            self.metrics.record_rejection(&RejectReason::Cancelled);
            self.resolve(id, RejectReason::Cancelled);
        }
        self.inflight_tokens = 0;
        cancelled
    }

    /// Rejects every command still sitting in the channel on exit, so a
    /// submit that raced the shutdown resolves instead of hanging its
    /// waiter.
    fn flush_channel(&mut self) {
        while let Ok(cmd) = self.rx.try_recv() {
            match cmd {
                Cmd::Submit(mut boxed) => {
                    let reason = RejectReason::Invalid {
                        what: "driver stopped",
                    };
                    if let Some(s) = boxed.sink.as_mut() {
                        s(StreamEvent::Rejected {
                            id: boxed.id,
                            reason,
                            retry_after_ms: 0,
                        });
                    }
                    boxed.cell.resolve(TicketEnd::Rejected {
                        reason,
                        retry_after_ms: 0,
                    });
                    self.cells.remove(boxed.id);
                }
                Cmd::Drain(job) => {
                    let _ = job.reply.send(DrainReport {
                        completed: 0,
                        cancelled: 0,
                    });
                }
                // Dropping the reply makes Client::stats return None.
                Cmd::Stats { .. } | Cmd::Cancel { .. } | Cmd::Shutdown => {}
            }
        }
    }

    /// One supervised incarnation of the drive loop. Returns on clean
    /// shutdown/drain; panics (deliberately un-caught here) when the
    /// engine is suspect — the supervisor frame in [`spawn_inner`]
    /// catches that and decides between restart and death.
    fn run_inner(&mut self) {
        loop {
            if let Some(report) = self.drain_progress() {
                if let Some(job) = self.drain.take() {
                    let _ = job.reply.send(report);
                }
                self.flush_channel();
                return;
            }
            if self.idle() {
                debug_assert!(self.tickets.is_empty(), "idle driver with live tickets");
                debug_assert_eq!(self.inflight_tokens, 0, "idle driver owes tokens");
                // Nothing to decode: park on the channel.
                match self.rx.recv() {
                    Ok(Cmd::Shutdown) | Err(_) => return self.shutdown_now(),
                    Ok(cmd) => self.handle_cmd(cmd),
                }
                // A drain request against an idle driver completes on the
                // next loop iteration without ever blocking again.
                continue;
            }
            // Drain whatever arrived while stepping.
            loop {
                match self.rx.try_recv() {
                    Ok(Cmd::Shutdown) => return self.shutdown_now(),
                    Ok(cmd) => self.handle_cmd(cmd),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        if self.idle() {
                            return;
                        }
                        break;
                    }
                }
            }
            self.forward();
            if !self.engine.is_idle() {
                // Fault-injection site for the supervisor path: a panic
                // (or error) here kills this incarnation of the driver
                // exactly as a wedged/corrupt engine would.
                #[expect(
                    clippy::panic,
                    reason = "deliberate fault-injection panic; the supervisor frame in spawn_inner catches it and restarts the engine (chaos tests pin this)."
                )]
                if let Some(msg) = failpoint::fire(Site::NetDriverStep) {
                    panic!("failpoint net.driver.step: {msg}");
                }
                let depth = self.admission.len() + self.engine.queued();
                let t0 = Instant::now();
                match self.engine.step() {
                    Ok(report) => {
                        let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                        self.metrics.record_step(us, report.batch, depth);
                        self.steps_done += 1;
                        if !report.quarantined.is_empty() {
                            // The engine's containment layer tombstoned
                            // these mid-step; after_step observes them as
                            // typed rejections and settles their tokens.
                            self.metrics
                                .record_quarantined(report.quarantined.len() as u64);
                        }
                        // inflight_tokens is settled per ticket inside
                        // after_step (streamed rows, finish tails, cancel
                        // remainders) — exact even when a cancel lands in
                        // the same step a request finishes.
                        self.after_step();
                        let timeout = self.step_timeout_us();
                        if us > timeout {
                            self.shed_running(us, timeout);
                        }
                    }
                    #[expect(
                        clippy::panic,
                        reason = "deliberate escalation: a step error means the engine state is suspect; the supervisor catches the panic and rebuilds, or sweeps every waiter to DriverDown."
                    )]
                    Err(e) => {
                        // The admission invariants make step errors
                        // unreachable in normal use, so the engine state
                        // is suspect. Escalate to the supervisor, which
                        // rebuilds the engine (or, unsupervised, sweeps
                        // every waiter to DriverDown).
                        panic!("engine step failed: {e}");
                    }
                }
            }
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Submit(boxed) => self.handle_submit(*boxed),
            Cmd::Cancel { id } => self.handle_cancel(id),
            Cmd::Stats { reply } => {
                let _ = reply.send(DriverStats {
                    server: self.engine.stats(),
                    front_queued: self.admission.len(),
                    engine_queued: self.engine.queued(),
                    running: self.engine.running(),
                    inflight_tokens: self.inflight_tokens,
                    draining: self.drain.is_some(),
                });
            }
            Cmd::Drain(job) => {
                if self.drain.is_some() {
                    // A second concurrent drain cannot track the first's
                    // progress; report it empty rather than deadlock it.
                    let _ = job.reply.send(DrainReport {
                        completed: 0,
                        cancelled: 0,
                    });
                } else {
                    self.drain = Some(job);
                }
            }
            Cmd::Shutdown => {
                // The recv loops intercept Shutdown before dispatch;
                // tolerate a stray one as a no-op rather than killing
                // this incarnation of the driver.
                debug_assert!(false, "shutdown is handled by the loop");
            }
        }
    }

    fn handle_submit(&mut self, cmd: SubmitCmd) {
        let SubmitCmd {
            id,
            net,
            mut sink,
            cell,
        } = cmd;
        let measured =
            (self.metrics.step_latency.count() > 0).then(|| self.metrics.step_latency.mean());
        if self.drain.is_some() {
            // Draining: nothing new is admitted; suggest coming back once
            // the present backlog has decoded (the drain's natural end).
            let est = self.admission.estimator(measured);
            let backlog = self.admission.pending_tokens() + self.inflight_tokens;
            let retry_after_ms = (est.queue_drain_ms(backlog.max(1)).ceil() as u64).max(1);
            let reason = RejectReason::Draining { retry_after_ms };
            self.metrics.record_rejection(&reason);
            // Resolve before the sink fires: once a terminal frame is on
            // the wire, a `poll` round-trip must see the terminal state.
            cell.resolve(TicketEnd::Rejected {
                reason,
                retry_after_ms,
            });
            self.cells.remove(id);
            if let Some(s) = sink.as_mut() {
                s(StreamEvent::Rejected {
                    id,
                    reason,
                    retry_after_ms,
                });
            }
            return;
        }
        let tenant = net.req.tenant;
        let gen_tokens = net.req.gen_tokens;
        let now_ms = self.now_ms();
        match self
            .admission
            .admit(id, net, self.inflight_tokens, measured, now_ms)
        {
            Ok(()) => {
                self.metrics.record_admitted();
                lock_recover(&self.phases).insert(id, Phase::Queued);
                if let Some(s) = sink.as_mut() {
                    s(StreamEvent::Accepted { id });
                }
                self.tickets.insert(
                    id,
                    TicketRec {
                        cell,
                        sink,
                        tenant,
                        gen_tokens,
                        handle: None,
                        streamed: 0,
                    },
                );
            }
            Err(rej) => {
                self.metrics.record_rejection(&rej.reason);
                cell.resolve(TicketEnd::Rejected {
                    reason: rej.reason,
                    retry_after_ms: rej.retry_after_ms,
                });
                self.cells.remove(id);
                if let Some(s) = sink.as_mut() {
                    s(StreamEvent::Rejected {
                        id,
                        reason: rej.reason,
                        retry_after_ms: rej.retry_after_ms,
                    });
                }
            }
        }
    }

    fn handle_cancel(&mut self, id: u64) {
        if self.admission.cancel(id).is_some() {
            // Still in the fair queue: never reached the engine.
            self.metrics.record_rejection(&RejectReason::Cancelled);
            self.resolve(id, RejectReason::Cancelled);
            return;
        }
        let Some((handle, owed)) = self.tickets.get(&id).and_then(|r| {
            r.handle
                .map(|h| (h, r.gen_tokens.saturating_sub(r.streamed) as u64))
        }) else {
            return; // already resolved (or never existed)
        };
        if self.engine.cancel(&handle) {
            self.charge_down(owed);
            self.metrics.record_rejection(&RejectReason::Cancelled);
            self.resolve(id, RejectReason::Cancelled);
        }
    }

    /// Resolves a ticket to a rejection, emitting the terminal sink
    /// event.
    fn resolve(&mut self, id: u64, reason: RejectReason) {
        lock_recover(&self.phases).remove(&id);
        if let Some(mut rec) = self.tickets.remove(&id) {
            let retry_after_ms = reason.retry_hint_ms().unwrap_or(0);
            // Resolve before the sink fires: once the terminal frame is
            // on the wire, a `poll` round-trip must see the terminal
            // state, never a stale `queued`.
            rec.cell.resolve(TicketEnd::Rejected {
                reason,
                retry_after_ms,
            });
            self.cells.remove(id);
            if let Some(s) = rec.sink.as_mut() {
                s(StreamEvent::Rejected {
                    id,
                    reason,
                    retry_after_ms,
                });
            }
        }
    }

    /// Moves fair-queue requests into the engine while a decode slot is
    /// free. The engine queue therefore never holds more than one
    /// batch's worth of requests, so the engine's FIFO cannot reorder
    /// the fair queue's grants.
    fn forward(&mut self) {
        let mut max_batch = self.engine.serve_config().max_batch;
        if self.steps_done < self.breaker_until {
            // Breaker tripped: run at half batch until the cooldown
            // expires, so whatever wedged the last oversized step gets
            // headroom instead of an immediate repeat.
            max_batch = (max_batch / 2).max(1);
        }
        while self.engine.running() + self.engine.queued() < max_batch {
            let Some(p) = self.admission.pop() else { break };
            let gen = p.net.req.gen_tokens as u64;
            let handle = self.engine.submit(p.net.ctx, p.net.req);
            if let RequestStatus::Rejected { reason } = self.engine.poll(&handle) {
                // The engine refused what admission let through (bad
                // query shape, unknown context, KV overflow): surface
                // the typed reason on the ticket.
                self.metrics.record_rejection(&reason);
                self.resolve(p.id, reason);
                continue;
            }
            self.inflight_tokens += gen;
            if let Some(rec) = self.tickets.get_mut(&p.id) {
                rec.handle = Some(handle);
                lock_recover(&self.phases).insert(p.id, Phase::Running);
            } else {
                // The ticket record vanished (cannot happen outside a
                // cancel race): don't decode for nobody.
                self.engine.cancel(&handle);
                self.charge_down(gen);
            }
        }
    }

    /// Streams newly decoded rows and resolves finished requests, in
    /// ticket-id order (stable across runs).
    fn after_step(&mut self) {
        let mut live: Vec<(u64, RequestHandle)> = self
            .tickets
            .iter()
            .filter_map(|(&id, r)| r.handle.map(|h| (id, h)))
            .collect();
        live.sort_unstable_by_key(|&(id, _)| id);
        for (id, handle) in live {
            let streamed = match self.tickets.get(&id) {
                Some(rec) => rec.streamed,
                None => continue,
            };
            let new_rows: Vec<Vec<f32>> = self
                .engine
                .partial_output(&handle)
                .map(|rows| rows.get(streamed..).unwrap_or_default().to_vec())
                .unwrap_or_default();
            if let Some(rec) = self.tickets.get_mut(&id).filter(|_| !new_rows.is_empty()) {
                for (k, row) in new_rows.iter().enumerate() {
                    if let Some(s) = rec.sink.as_mut() {
                        s(StreamEvent::Token {
                            id,
                            index: streamed + k,
                            value: row.clone(),
                        });
                    }
                }
                rec.streamed += new_rows.len();
                let tenant = rec.tenant;
                self.metrics
                    .add_tenant_tokens(tenant, new_rows.len() as u64);
                self.charge_down(new_rows.len() as u64);
            }
            match self.engine.poll(&handle) {
                RequestStatus::Finished { .. } => {
                    let Some(out) = self.engine.take_output(&handle) else {
                        // poll said Finished, so the output must exist; if
                        // the engine disagrees, fail the ticket rather
                        // than wedge its waiter.
                        let reason = RejectReason::Internal {
                            what: "finished output missing",
                        };
                        if let Some(rec) = self.tickets.get(&id) {
                            let owed = rec.gen_tokens.saturating_sub(rec.streamed) as u64;
                            self.charge_down(owed);
                        }
                        self.metrics.record_rejection(&reason);
                        self.resolve(id, reason);
                        continue;
                    };
                    lock_recover(&self.phases).remove(&id);
                    let Some(mut rec) = self.tickets.remove(&id) else {
                        continue;
                    };
                    // Rows decoded in the finishing step are no longer
                    // visible via partial_output; deliver them from the
                    // collected output.
                    let tail = out.steps.get(rec.streamed..).unwrap_or_default();
                    if !tail.is_empty() {
                        for (k, row) in tail.iter().enumerate() {
                            if let Some(s) = rec.sink.as_mut() {
                                s(StreamEvent::Token {
                                    id,
                                    index: rec.streamed + k,
                                    value: row.clone(),
                                });
                            }
                        }
                        self.metrics
                            .add_tenant_tokens(rec.tenant, tail.len() as u64);
                    }
                    self.charge_down(tail.len() as u64);
                    // Resolve before the sink fires: a client that polls
                    // right after reading `done` must see `finished`.
                    let tokens = out.steps.len();
                    rec.cell.resolve(TicketEnd::Finished(out));
                    self.cells.remove(id);
                    if let Some(s) = rec.sink.as_mut() {
                        s(StreamEvent::Done { id, tokens });
                    }
                    if let Some(job) = self.drain.as_mut() {
                        job.completed += 1;
                    }
                }
                RequestStatus::Rejected { reason } => {
                    // Reachable only through external cancellation paths;
                    // keep the ticket's contract either way. The rows this
                    // ticket never decoded come off the backlog with it.
                    let owed = self
                        .tickets
                        .get(&id)
                        .map(|rec| rec.gen_tokens.saturating_sub(rec.streamed) as u64)
                        .unwrap_or(0);
                    self.charge_down(owed);
                    self.metrics.record_rejection(&reason);
                    self.resolve(id, reason);
                }
                _ => {}
            }
        }
    }

    /// The step timeout the watchdog sheds against: the explicit
    /// override when configured, otherwise a multiple of the measured
    /// p99 step latency (the configured prior while cold), floored so
    /// scheduling jitter on fast steps never trips it.
    fn step_timeout_us(&self) -> u64 {
        let cfg = self.admission.config();
        if let Some(t) = cfg.step_timeout_us {
            return t.max(1);
        }
        let p99 = if self.metrics.step_latency.count() > 0 {
            self.metrics.step_latency.quantile(0.99) as f64
        } else {
            cfg.default_step_us
        };
        ((p99 * cfg.watchdog_multiplier) as u64).max(cfg.watchdog_floor_us)
    }

    /// The step watchdog fired: a step took `us` against a budget of
    /// `timeout` µs. Steps are synchronous, so the overrun is detected
    /// at the boundary — the running group is shed with typed
    /// rejections (finished work already completed in `after_step`),
    /// and the breaker halves the effective batch for a cooldown so a
    /// pathological batch shape cannot wedge the service twice in a row.
    fn shed_running(&mut self, us: u64, timeout: u64) {
        let reason = RejectReason::Internal {
            what: "watchdog: step exceeded timeout, running group shed",
        };
        let live: Vec<(u64, RequestHandle, u64)> = self
            .tickets
            .iter()
            .filter_map(|(&id, r)| {
                r.handle
                    .map(|h| (id, h, r.gen_tokens.saturating_sub(r.streamed) as u64))
            })
            .collect();
        for (id, handle, owed) in live {
            if self.engine.cancel(&handle) {
                self.charge_down(owed);
                self.metrics.record_rejection(&reason);
                self.resolve(id, reason);
            }
        }
        self.metrics.record_watchdog_shed();
        let cooldown = self.admission.config().breaker_cooldown_steps;
        if cooldown > 0 {
            self.breaker_until = self.steps_done + cooldown;
            self.metrics.record_breaker_trip();
        }
        eprintln!(
            "vq-llm driver watchdog: step took {us} µs (budget {timeout} µs), running group shed"
        );
    }

    /// The warm-restart path the supervisor frame runs after this
    /// driver incarnation panicked: resolve everything live as
    /// [`RejectReason::DriverRestarted`], rebuild the engine through
    /// the factory, republish the fresh context handles, and re-open
    /// admission. Returns `false` (driver stays down) if the rebuild
    /// fails.
    fn restart(&mut self, factory: &mut EngineFactory, handles: &HandleTable, cause: &str) -> bool {
        // Price the retry hint from what the service knew at death: the
        // measured step latency over the backlog that just evaporated.
        let measured =
            (self.metrics.step_latency.count() > 0).then(|| self.metrics.step_latency.mean());
        let est = self.admission.estimator(measured);
        let backlog = (self.admission.pending_tokens() + self.inflight_tokens).max(1);
        let retry_after_ms = (est.queue_drain_ms(backlog).ceil() as u64).max(1);
        let reason = RejectReason::DriverRestarted { retry_after_ms };
        // Rebuild and republish BEFORE resolving tickets: a waiter
        // unblocked by `driver_restarted` may immediately re-fetch a
        // context handle, and must never observe the dead engine's. (If
        // the rebuild fails, the tickets stay pending and the exit sweep
        // marks them DriverDown — no false restart promise.)
        let (engine, contexts) = match factory() {
            Ok(v) => v,
            Err(e) => {
                eprintln!("vq-llm driver: engine rebuild failed, staying down: {e}");
                return false;
            }
        };
        let max_batch = engine.serve_config().max_batch;
        let cfg = self.admission.config().clone();
        self.engine = engine;
        self.admission = Admission::new(cfg, max_batch);
        handles.publish(contexts);
        let ids: Vec<u64> = self.tickets.keys().copied().collect();
        let dropped = ids.len();
        for id in ids {
            self.metrics.record_rejection(&reason);
            self.resolve(id, reason);
        }
        lock_recover(&self.phases).clear();
        self.inflight_tokens = 0;
        // A drain preempted by the death still gets its report: what
        // finished before the crash counts, the rest was dropped.
        if let Some(job) = self.drain.take() {
            let _ = job.reply.send(DrainReport {
                completed: job.completed,
                cancelled: dropped,
            });
        }
        self.metrics.record_restart();
        eprintln!(
            "vq-llm driver: restarted after panic ({cause}); {dropped} in-flight request(s) \
             resolved driver_restarted"
        );
        true
    }

    /// Resolves every unresolved ticket as cancelled and drops the
    /// engine (the shutdown path). A drain that shutdown preempted still
    /// gets its report, counting the preempted remainder as cancelled.
    fn shutdown_now(&mut self) {
        let ids: Vec<u64> = self.tickets.keys().copied().collect();
        let cancelled = ids.len();
        for id in ids {
            self.metrics.record_rejection(&RejectReason::Cancelled);
            self.resolve(id, RejectReason::Cancelled);
        }
        lock_recover(&self.phases).clear();
        self.inflight_tokens = 0;
        if let Some(job) = self.drain.take() {
            let _ = job.reply.send(DrainReport {
                completed: job.completed,
                cancelled,
            });
        }
        self.flush_channel();
    }
}
