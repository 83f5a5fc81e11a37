//! Request vocabulary of the serving layer: what a tenant submits, the
//! handle it gets back, and the output it can collect.

/// Scheduler-assigned request identifier (unique per [`MultiServer`]
/// instance).
///
/// [`MultiServer`]: crate::serve::MultiServer
pub type RequestId = u64;

/// Opaque handle returned by [`MultiServer::submit`]; pass it back to
/// [`MultiServer::poll`] or collect [`MultiServer::take_output`].
///
/// [`MultiServer::submit`]: crate::serve::MultiServer::submit
/// [`MultiServer::poll`]: crate::serve::MultiServer::poll
/// [`MultiServer::take_output`]: crate::serve::MultiServer::take_output
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestHandle {
    pub(crate) id: RequestId,
}

impl RequestHandle {
    /// The server-assigned id.
    pub fn id(&self) -> RequestId {
        self.id
    }
}

/// One tenant's decode request against the server's [`SharedContext`].
///
/// The request enters the shared context at `context_len` cached tokens
/// and asks for `gen_tokens` decode steps; each step attends one more
/// token of the context (teacher-forced decode over the pre-quantized
/// cache), so admission requires `context_len + gen_tokens - 1` to fit
/// both the shared context and the model's window.
///
/// [`SharedContext`]: crate::serve::SharedContext
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeRequest {
    /// Caller-supplied tenant tag (reported back in the output).
    pub tenant: u64,
    /// Initial query/hidden state, `head_dim` wide.
    pub query: Vec<f32>,
    /// Tokens of the shared context attended at the first step (≥ 1).
    pub context_len: usize,
    /// Decode steps requested (≥ 1).
    pub gen_tokens: usize,
}

impl DecodeRequest {
    /// Builds a request.
    pub fn new(tenant: u64, query: Vec<f32>, context_len: usize, gen_tokens: usize) -> Self {
        DecodeRequest {
            tenant,
            query,
            context_len,
            gen_tokens,
        }
    }
}

/// Generates [`RejectReason`] from the one table below: each variant with
/// its docs, its fields and its wire code. The enum,
/// [`RejectReason::code`], [`RejectReason::slot`] and
/// [`RejectReason::CODES`] all come from the table, so a variant without a
/// code does not compile.
macro_rules! reject_reasons {
    ($(
        $(#[$doc:meta])*
        $variant:ident $({ $($(#[$field_doc:meta])* $field:ident: $ty:ty,)* })? => $code:literal,
    )*) => {
        /// Why a request was refused at admission. Every rejection is
        /// explicit and typed — [`MultiServer::submit`] hands back a handle
        /// whose [`RequestStatus::Rejected`] carries the reason, and
        /// [`MultiServer::try_submit`] surfaces the same information as an
        /// [`LlmError`].
        ///
        /// [`MultiServer::submit`]: crate::serve::MultiServer::submit
        /// [`MultiServer::try_submit`]: crate::serve::MultiServer::try_submit
        /// [`LlmError`]: crate::LlmError
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum RejectReason {
            $(
                $(#[$doc])*
                $variant $({ $($(#[$field_doc])* $field: $ty,)* })?,
            )*
        }

        impl RejectReason {
            /// Every wire code, in slot order: the protocol's `reason`
            /// strings and the `rejected_<code>` metrics keys.
            pub const CODES: &'static [&'static str] = &[$($code),*];

            /// The protocol wire code (`queue_full`, `deadline`, ...).
            pub fn code(&self) -> &'static str {
                match self {
                    $(RejectReason::$variant { .. } => $code,)*
                }
            }

            /// This reason's index into [`RejectReason::CODES`], e.g. into
            /// an array of per-reason counters.
            pub fn slot(&self) -> usize {
                enum Slot {
                    $($variant,)*
                }
                match self {
                    $(RejectReason::$variant { .. } => Slot::$variant as usize,)*
                }
            }
        }
    };
}

reject_reasons! {
    /// The bounded queue is at its configured `max_queue` limit.
    QueueFull {
        /// The configured admission limit.
        max_queue: usize,
    } => "queue_full",
    /// The request was malformed or unservable against its context
    /// (wrong query width, zero tokens, decode past the shared context).
    Invalid {
        /// Description of the problem.
        what: &'static str,
    } => "invalid",
    /// The request would grow its KV cache past the model's limits.
    KvCapacity {
        /// What was out of range.
        what: &'static str,
        /// The offending value.
        value: usize,
        /// The model's limit for it.
        limit: usize,
    } => "kv_capacity",
    /// The request named a context handle this engine never issued.
    UnknownContext {
        /// The unrecognized handle id.
        id: u64,
    } => "unknown_context",
    /// The request was cancelled after admission
    /// ([`MultiServer::cancel`](crate::serve::MultiServer::cancel) or the
    /// protocol's `cancel` verb); its slot or queue entry was freed.
    Cancelled => "cancelled",
    /// SLO-aware admission projected the request cannot meet its deadline
    /// under the current load.
    Deadline {
        /// Milliseconds after which the same deadline could be met if the
        /// queue ahead has drained (always at least 1).
        retry_after_ms: u64,
    } => "deadline",
    /// The tenant exhausted its token budget for the current rate-limit
    /// window (a budget layered on top of the fair-queue weights).
    RateLimited {
        /// Milliseconds until enough of the sliding window has passed for
        /// the same request to fit the budget (always at least 1).
        retry_after_ms: u64,
    } => "rate_limited",
    /// The server is draining for shutdown: in-flight requests finish,
    /// but nothing new is admitted.
    Draining {
        /// Estimated milliseconds until the drain completes.
        retry_after_ms: u64,
    } => "draining",
    /// The request was quarantined by the fault-containment layer: a
    /// contained panic, a forced KV/allocation failure mid-decode, or a
    /// watchdog shed. The request itself may have been healthy (collateral
    /// of sharing a batch group with the faulty one), but its partial
    /// state is gone, so it is rejected rather than silently restarted.
    Internal {
        /// What faulted (kernel site or watchdog description).
        what: &'static str,
    } => "internal",
    /// The driver thread died and was rebuilt by the supervisor; every
    /// ticket alive across the restart resolves with this reason. The
    /// request can be retried after `retry_after_ms` against the warm
    /// engine.
    DriverRestarted {
        /// Computed backoff until the restarted driver is warm (always at
        /// least 1).
        retry_after_ms: u64,
    } => "driver_restarted",
}

impl RejectReason {
    /// Classifies an admission error (panics on non-admission errors,
    /// which `admit` never returns).
    pub(crate) fn from_llm(e: &crate::LlmError) -> RejectReason {
        match *e {
            crate::LlmError::QueueFull { max_queue } => RejectReason::QueueFull { max_queue },
            crate::LlmError::InvalidRequest { what } => RejectReason::Invalid { what },
            crate::LlmError::KvCapacity { what, value, limit } => {
                RejectReason::KvCapacity { what, value, limit }
            }
            crate::LlmError::UnknownContext { id } => RejectReason::UnknownContext { id },
            crate::LlmError::Cancelled => RejectReason::Cancelled,
            crate::LlmError::DeadlineUnmeetable { retry_after_ms } => {
                RejectReason::Deadline { retry_after_ms }
            }
            crate::LlmError::RateLimited { retry_after_ms } => {
                RejectReason::RateLimited { retry_after_ms }
            }
            crate::LlmError::Draining { retry_after_ms } => {
                RejectReason::Draining { retry_after_ms }
            }
            crate::LlmError::Internal { what } => RejectReason::Internal { what },
            crate::LlmError::DriverRestarted { retry_after_ms } => {
                RejectReason::DriverRestarted { retry_after_ms }
            }
            ref other => {
                // Only admission-shaped errors reach this conversion;
                // surface a stray one as a typed internal rejection
                // instead of a panic.
                debug_assert!(false, "admission produced a non-admission error: {other}");
                RejectReason::Internal {
                    what: "non-admission error",
                }
            }
        }
    }

    /// The equivalent [`LlmError`](crate::LlmError), for callers using the
    /// `Result`-shaped admission path.
    pub fn into_error(self) -> crate::LlmError {
        match self {
            RejectReason::QueueFull { max_queue } => crate::LlmError::QueueFull { max_queue },
            RejectReason::Invalid { what } => crate::LlmError::InvalidRequest { what },
            RejectReason::KvCapacity { what, value, limit } => {
                crate::LlmError::KvCapacity { what, value, limit }
            }
            RejectReason::UnknownContext { id } => crate::LlmError::UnknownContext { id },
            RejectReason::Cancelled => crate::LlmError::Cancelled,
            RejectReason::Deadline { retry_after_ms } => {
                crate::LlmError::DeadlineUnmeetable { retry_after_ms }
            }
            RejectReason::RateLimited { retry_after_ms } => {
                crate::LlmError::RateLimited { retry_after_ms }
            }
            RejectReason::Draining { retry_after_ms } => {
                crate::LlmError::Draining { retry_after_ms }
            }
            RejectReason::Internal { what } => crate::LlmError::Internal { what },
            RejectReason::DriverRestarted { retry_after_ms } => {
                crate::LlmError::DriverRestarted { retry_after_ms }
            }
        }
    }

    /// The computed backoff this rejection carries, if retrying later
    /// could help (`None` for rejections where a retry cannot succeed:
    /// invalid requests, cancellations, unknown contexts).
    ///
    /// `KvCapacity` carries a minimum 1 ms hint: after a quarantine or a
    /// shed frees cache memory, the same request can succeed, so the
    /// wire-visible `retry_after_ms` must never be the "do not retry"
    /// zero.
    pub fn retry_hint_ms(&self) -> Option<u64> {
        match *self {
            RejectReason::Deadline { retry_after_ms }
            | RejectReason::RateLimited { retry_after_ms }
            | RejectReason::Draining { retry_after_ms }
            | RejectReason::DriverRestarted { retry_after_ms } => Some(retry_after_ms.max(1)),
            RejectReason::KvCapacity { .. } => Some(1),
            _ => None,
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.into_error())
    }
}

/// Where a submitted request currently is in its typed lifecycle:
/// `Queued → Running → Finished`, or `Rejected` straight from admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStatus {
    /// Waiting for a batch slot.
    Queued,
    /// Occupying a decode slot.
    Running,
    /// All steps decoded; the output (`tokens` hidden-state rows) is ready
    /// to collect via `take_output`.
    Finished {
        /// Decoded tokens waiting in the output.
        tokens: usize,
    },
    /// Refused at admission; the request never entered the queue.
    Rejected {
        /// Why admission refused it.
        reason: RejectReason,
    },
    /// Not known to this scheduler (never submitted, or already
    /// collected).
    Unknown,
}

/// The collected result of a completed request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutput {
    /// Scheduler-assigned id.
    pub id: RequestId,
    /// The tenant tag from the [`DecodeRequest`].
    pub tenant: u64,
    /// One decoded hidden-state row (`head_dim` wide) per step, in step
    /// order.
    pub steps: Vec<Vec<f32>>,
    /// Total on-the-fly KV-quantization overhead charged to this tenant's
    /// cache growth, microseconds.
    pub kv_quant_us: f64,
    /// Scheduler step at which the request was submitted.
    pub submitted_step: u64,
    /// Scheduler step at which the last token was decoded.
    pub finished_step: u64,
    /// Fold-time reconstruction nMSE of this request's live KV cache
    /// (0.0 when live KV is off or nothing was folded) — feed to
    /// [`accuracy::project_kv_accuracy`](crate::accuracy::project_kv_accuracy).
    pub kv_nmse: f64,
    /// Final compressed footprint of the live KV cache in bytes (packed
    /// codes + outliers + f32 tail; 0 when live KV is off).
    pub kv_bytes: usize,
}
