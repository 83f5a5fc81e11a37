//! `vqllm-lint`: workspace invariant checker.
//!
//! Three repo-specific rule families, each enforcing a convention the
//! serving stack's correctness rests on but that neither `rustc` nor
//! clippy can see:
//!
//! 1. **atomic orderings** (`atomic-explicit`, `atomic-seqcst`) — every
//!    atomic op must name a literal `Ordering`, and any `SeqCst` must
//!    carry an `// ordering:` justification on the same or preceding
//!    line.
//! 2. **lock discipline** (`lock-order`) — a declared lock hierarchy per
//!    file; lexically nested `.lock()`s within one function must acquire
//!    outer-rank locks before inner-rank ones, and every declared class
//!    must still be locked in its file.
//! 3. **failpoint coverage** (`registry`) — every site declared in the
//!    `sites!` table (`vqllm_core::failpoint::Site`) must be fired by
//!    non-test code. The rest of registry consistency is the compiler's:
//!    sites and `RejectReason` wire codes are generated from one table
//!    each, so an undeclared site or a code-less reason does not compile.
//!
//! Hot-path panic-freedom is clippy's (`#![deny(clippy::unwrap_used, …)]`
//! in the serving modules, each exception an `#[expect(…, reason)]`), and
//! the README's failpoint table is checked by a `vqllm-core` unit test.
//!
//! Output is machine-readable: one finding per line, `file:line rule
//! message`.

use std::fmt;
use std::io;
use std::path::Path;

pub mod registry;
pub mod rules;
pub mod source;

/// One lint finding, printable as `file:line rule message`.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    pub fn new(file: &str, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The lint crate's own sources (fixtures embed rule-triggering text).
pub const SELF_PATH: &str = "crates/lint/";

/// Declared lock hierarchy: within one file, a lock with a lower rank is
/// the outer lock and must be acquired first when nesting. Receivers are
/// matched by the final field name before `.lock()` / inside
/// `lock_recover(...)`.
#[derive(Debug, Clone, Copy)]
pub struct LockClass {
    /// Workspace-relative path suffix of the file the class lives in.
    pub file: &'static str,
    /// Final path component of the lock receiver (`self.state.pending`
    /// matches `pending`).
    pub recv: &'static str,
    /// Lower = outer. Nesting must be strictly increasing.
    pub rank: u32,
    /// Unique: the stale-class check keys on it.
    pub name: &'static str,
}

pub const LOCK_HIERARCHY: &[LockClass] = &[
    // Driver: phase map and handle table are control plane (outer); the
    // cell table guards the set of wait cells; each WaitCell's state
    // mutex is innermost (resolved while sweeping the table).
    LockClass {
        file: "src/net/driver.rs",
        recv: "phases",
        rank: 10,
        name: "driver.phases",
    },
    LockClass {
        file: "src/net/driver.rs",
        recv: "handles",
        rank: 15,
        name: "HandleTable.handles",
    },
    LockClass {
        file: "src/net/driver.rs",
        recv: "inner",
        rank: 20,
        name: "CellTable.inner",
    },
    LockClass {
        file: "src/net/driver.rs",
        recv: "state",
        rank: 30,
        name: "WaitCell.state",
    },
    // NetServer: per-connection closing flag and ticket map are outer; the
    // writer FrameQueue state is innermost (pushed to while routing).
    LockClass {
        file: "src/net/server.rs",
        recv: "closing",
        rank: 10,
        name: "Conn.closing",
    },
    LockClass {
        file: "src/net/server.rs",
        recv: "tickets",
        rank: 20,
        name: "Conn.tickets",
    },
    LockClass {
        file: "src/net/server.rs",
        recv: "state",
        rank: 30,
        name: "FrameQueue.state",
    },
    // Worker pool: job queue state is outer; the scope completion latch
    // and the panic-message slot are taken from within scopes.
    LockClass {
        file: "crates/kernels/src/host_exec/pool.rs",
        recv: "workers",
        rank: 5,
        name: "pool.workers",
    },
    LockClass {
        file: "crates/kernels/src/host_exec/pool.rs",
        recv: "state",
        rank: 10,
        name: "pool.state",
    },
    LockClass {
        file: "crates/kernels/src/host_exec/pool.rs",
        recv: "pending",
        rank: 20,
        name: "scope.pending",
    },
    LockClass {
        file: "crates/kernels/src/host_exec/pool.rs",
        recv: "panic_msg",
        rank: 30,
        name: "scope.panic_msg",
    },
    // The plan cache's entry map (plans are built outside it), the
    // failpoint registry, tenant metrics and the CPU backend's modelled-
    // output memo are single-lock files; listed so any future second lock
    // in them must declare a rank.
    LockClass {
        file: "crates/core/src/plan_cache.rs",
        recv: "map",
        rank: 10,
        name: "PlanCache.map",
    },
    LockClass {
        file: "crates/kernels/src/backend.rs",
        recv: "modelled",
        rank: 10,
        name: "CpuBackend.modelled",
    },
    LockClass {
        file: "crates/core/src/failpoint.rs",
        recv: "sites",
        rank: 10,
        name: "failpoint.sites",
    },
    LockClass {
        file: "src/net/metrics.rs",
        recv: "tenants",
        rank: 10,
        name: "metrics.tenants",
    },
];

/// Run every rule over the workspace rooted at `root` and return the
/// findings sorted by location.
pub fn run_check(root: &Path) -> io::Result<Vec<Finding>> {
    let files = source::load_workspace(root)?;
    let mut findings = Vec::new();
    findings.extend(rules::atomics(&files));
    findings.extend(rules::lock_discipline(&files, LOCK_HIERARCHY));
    findings.extend(registry::check(&files));
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(findings)
}
