//! Persistent worker pool for the host kernels' row-parallel paths.
//!
//! PR 2's `std::thread::scope` path paid a full OS-thread spawn + join per
//! kernel call — on decode-sized operands the spawn cost rivals the kernel
//! itself, which is why the seed bench recorded a *parallel* GeMV slower
//! than the serial one. [`WorkerPool`] replaces it with workers spawned
//! **once** (lazily, at the first parallel kernel call or when a
//! `CpuBackend` warms it) and fed through a shared job queue; a kernel call
//! is then two mutex pushes and a condvar wake instead of N `clone()`d
//! stacks.
//!
//! Design points:
//!
//! * **Process-wide singleton** ([`WorkerPool::shared`]), sized to
//!   `available_parallelism`. Every `CpuBackend` shares the same OS
//!   threads; the per-backend `threads` knob controls how many chunks a
//!   call is partitioned into (static row partitioning derived from
//!   `HostBlocking`), not how many threads exist.
//! * **Caller participation**: [`WorkerPool::scope`] lets the submitting
//!   thread drain the queue while it waits, so a pool on a 1-core machine
//!   (zero useful workers) still completes every job, and an
//!   oversubscribed pool degrades to sequential execution instead of
//!   deadlocking.
//! * **Borrowed jobs**: jobs may borrow the caller's stack (the kernels
//!   hand out disjoint `&mut` row chunks). `scope` guarantees every job
//!   has finished before it returns, which is what makes the lifetime
//!   erasure in [`Scope::spawn`] sound.
//! * **Panic safety**: a panicking job neither kills its worker nor wedges
//!   the scope — the panic is caught, its payload message is captured, the
//!   scope's completion latch still fires (via a drop guard), and the
//!   failure surfaces on the submitting thread once the scope is fully
//!   joined: as a structured [`KernelError::Panicked`] from
//!   [`WorkerPool::try_scope`] (what the kernels use, so the serving layer
//!   can quarantine the offending request), or as a re-raised panic
//!   carrying the same message from [`WorkerPool::scope`].

use crate::KernelError;
use vqllm_core::failpoint::{self, Site};

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A type-erased unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, recovering from poisoning instead of panicking.
///
/// Sound here because every critical section in this module is short
/// straight-line code that cannot panic; jobs that *can* panic run
/// outside these guards (under `catch_unwind`), so a poisoned lock
/// never exposes torn state — and the pool must keep serving other
/// scopes after one job panics.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Shared FIFO feeding the workers (and draining callers).
struct JobQueue {
    /// Pending jobs plus the shutdown flag, under one lock.
    state: Mutex<(VecDeque<Job>, bool)>,
    /// Signalled when a job is pushed or shutdown begins.
    available: Condvar,
}

impl JobQueue {
    fn new() -> Self {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            available: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut state = lock_recover(&self.state);
        state.0.push_back(job);
        drop(state);
        self.available.notify_one();
    }

    /// Blocking pop for workers; `None` means shutdown and drained.
    fn pop_wait(&self) -> Option<Job> {
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Non-blocking pop for caller-drain loops.
    fn try_pop(&self) -> Option<Job> {
        lock_recover(&self.state).0.pop_front()
    }

    fn shutdown(&self) {
        lock_recover(&self.state).1 = true;
        self.available.notify_all();
    }
}

/// A persistent, channel-fed pool of worker threads.
pub struct WorkerPool {
    queue: Arc<JobQueue>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(JobQueue::new());
        #[expect(
            clippy::expect_used,
            reason = "pool construction (first parallel kernel call or backend warm-up), not the per-call path; per-connection/per-job spawns handle failure instead."
        )]
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("vqllm-host-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop_wait() {
                            // A panicking job must not kill the worker; the
                            // scope's drop guard reports it to the caller.
                            let _ = panic::catch_unwind(AssertUnwindSafe(job));
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        WorkerPool {
            queue,
            workers: Mutex::new(workers),
            threads,
        }
    }

    /// The process-wide pool, spawned on first use and sized to
    /// `available_parallelism`. All `CpuBackend`s (and direct `host_exec`
    /// callers) share it, so kernel calls never pay thread spawns.
    pub fn shared() -> &'static WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED.get_or_init(|| {
            WorkerPool::new(
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1),
            )
        })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f`, which may [`Scope::spawn`] borrowing jobs onto the pool,
    /// and returns only after every spawned job has completed. The calling
    /// thread participates by draining the queue while it waits.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError::Panicked`] (tagged with `site.name()` and the
    /// job's downcast panic message) if any spawned job panicked. The
    /// panic does **not** unwind out of this call, which is what lets the
    /// serving layer above treat a poisoned kernel as a per-request fault
    /// instead of a dead thread. A fired `pool.scope` failpoint returns
    /// the same error, tagged `pool.scope`, without running `f`.
    pub fn try_scope<'env, R>(
        &self,
        site: Site,
        f: impl FnOnce(&Scope<'_, 'env>) -> R,
    ) -> Result<R, KernelError> {
        // Failpoint: fail the scope before anything is queued.
        if let Some(message) = failpoint::fire(Site::PoolScope) {
            return Err(KernelError::Panicked {
                site: Site::PoolScope.name(),
                message,
            });
        }
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panicked: AtomicBool::new(false),
                panic_msg: Mutex::new(None),
            }),
            _env: PhantomData,
        };
        // Join before propagating any panic from `f` itself: spawned jobs
        // borrow the caller's stack and must not outlive this frame.
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.join();
        match result {
            Ok(result) => {
                // Acquire pairs with the `Release` store in
                // `record_panic`: observing the flag makes the message
                // written before it visible.
                if scope.state.panicked.load(Ordering::Acquire) {
                    let message = lock_recover(&scope.state.panic_msg)
                        .take()
                        .unwrap_or_else(|| "worker pool job panicked".to_string());
                    Err(KernelError::Panicked {
                        site: site.name(),
                        message,
                    })
                } else {
                    Ok(result)
                }
            }
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Panicking convenience wrapper around [`WorkerPool::try_scope`] for
    /// callers without an error channel.
    ///
    /// # Panics
    ///
    /// Panics with the captured job message if any spawned job panicked
    /// (never the old bare "worker pool job panicked").
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        match self.try_scope(Site::PoolScope, f) {
            Ok(result) => result,
            #[expect(
                clippy::panic,
                reason = "documented panicking wrapper: `scope` re-raises the captured job panic for callers without an error channel; kernels use the non-panicking `try_scope`."
            )]
            Err(e) => panic!("{e}"),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.shutdown();
        for handle in lock_recover(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Book-keeping for one [`WorkerPool::scope`] invocation.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
    /// First captured panic payload message (later panics in the same
    /// scope are dropped — one message is enough to name the fault).
    panic_msg: Mutex<Option<String>>,
}

impl ScopeState {
    /// Records a caught job panic: keeps the first downcast payload
    /// message and marks the scope poisoned.
    fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        let mut slot = lock_recover(&self.panic_msg);
        slot.get_or_insert(message);
        drop(slot);
        // Release pairs with the `Acquire` load in `try_scope`: the
        // message above is published before the flag flips.
        self.panicked.store(true, Ordering::Release);
    }
}

/// Decrements the scope latch when dropped — runs even if the job panics,
/// so a scope can never wedge on a poisoned job.
struct CompletionGuard {
    state: Arc<ScopeState>,
}

impl Drop for CompletionGuard {
    fn drop(&mut self) {
        // Backstop: the job wrapper catches and records panics itself
        // (with the payload message); this only fires if unwinding somehow
        // escapes that catch.
        if std::thread::panicking() {
            self.state.panicked.store(true, Ordering::Release);
        }
        let mut pending = lock_recover(&self.state.pending);
        *pending -= 1;
        if *pending == 0 {
            self.state.done.notify_all();
        }
    }
}

/// Spawn handle passed to the closure of [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Enqueues `job` on the pool. The job may borrow from `'env` (the
    /// caller's stack); the enclosing [`WorkerPool::scope`] blocks until it
    /// has run.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        *lock_recover(&self.state.pending) += 1;
        let guard = CompletionGuard {
            state: Arc::clone(&self.state),
        };
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _guard = guard;
            // Catch here (not just in the worker loop) so the payload can
            // be recorded for the scope's structured error; the latch
            // guard still drops normally afterwards.
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job)) {
                _guard.state.record_panic(payload.as_ref());
            }
        });
        // SAFETY: `WorkerPool::scope` joins (waits for `pending == 0`)
        // before returning, and the completion guard only fires after the
        // job has run (or unwound), so no borrow in `job` outlives `'env`.
        let wrapped: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(
                wrapped,
            )
        };
        self.pool.queue.push(wrapped);
    }

    /// Drains the queue from the calling thread, then waits for any jobs
    /// still running on workers.
    fn join(&self) {
        // Run queued jobs inline — this is what makes a 1-core pool (or a
        // pool busy with other scopes) make progress instead of blocking.
        while let Some(job) = self.pool.queue.try_pop() {
            let _ = panic::catch_unwind(AssertUnwindSafe(job));
        }
        let mut pending = lock_recover(&self.state.pending);
        while *pending > 0 {
            pending = self
                .state
                .done
                .wait(pending)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_runs_every_job_and_blocks_until_done() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0usize; 64];
        pool.scope(|scope| {
            for (i, chunk) in data.chunks_mut(7).enumerate() {
                scope.spawn(move || {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        *slot = i * 7 + j;
                    }
                });
            }
        });
        let expect: Vec<usize> = (0..64).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn sequential_jobs_reuse_the_same_workers() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn empty_scope_returns_immediately() {
        let pool = WorkerPool::new(1);
        let out = pool.scope(|_| 42);
        assert_eq!(out, 42);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = WorkerPool::shared() as *const WorkerPool;
        let b = WorkerPool::shared() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(WorkerPool::shared().threads() >= 1);
    }

    #[test]
    fn panicking_job_is_reported_not_wedged() {
        let pool = WorkerPool::new(2);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("boom"));
                scope.spawn(|| ());
            });
        }));
        let payload = result.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "re-raise carries the payload: {msg}");
        // The pool survives and keeps executing later scopes.
        let ran = AtomicBool::new(false);
        pool.scope(|scope| {
            scope.spawn(|| ran.store(true, Ordering::SeqCst));
        });
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn try_scope_returns_structured_panicked_error() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_scope(Site::HostGemmFused, |scope| {
                scope.spawn(|| panic!("lut index {} out of range", 7));
                scope.spawn(|| ());
            })
            .unwrap_err();
        match err {
            KernelError::Panicked { site, message } => {
                assert_eq!(site, Site::HostGemmFused.name());
                assert_eq!(message, "lut index 7 out of range");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn pool_self_heals_after_contained_panics() {
        let pool = WorkerPool::new(2);
        // Poison every worker (more panics than threads, so workers and
        // the caller-drain path both see one).
        for _ in 0..4 {
            let _ = pool.try_scope(Site::HostGemvXw, |scope| {
                for _ in 0..3 {
                    scope.spawn(|| panic!("transient"));
                }
            });
        }
        // Full healthy scope still completes with correct data.
        let counter = AtomicUsize::new(0);
        pool.try_scope(Site::HostGemvXw, |scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn nested_parallelism_from_many_threads() {
        let pool = Arc::new(WorkerPool::new(2));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..10 {
                        pool.scope(|scope| {
                            for _ in 0..3 {
                                let total = &total;
                                scope.spawn(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 120);
    }
}
