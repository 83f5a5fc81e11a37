//! `vqllm-lint`: workspace invariant checker.
//!
//! Four repo-specific rule families, each enforcing a convention the
//! serving stack's correctness rests on but that `rustc` cannot see:
//!
//! 1. **panic-freedom** (`panic`, `index`) — `unwrap()`/`expect()`/
//!    `panic!`/`unreachable!`/`todo!`/`unimplemented!` and bare slice
//!    indexing are banned in hot-path modules; survivors need a waiver
//!    with a written rationale in `lint-allow.txt`.
//! 2. **atomic orderings** (`atomic-explicit`, `atomic-seqcst`) — every
//!    atomic op must name a literal `Ordering`, and any `SeqCst` must
//!    carry an `// ordering:` justification on the same or preceding
//!    line.
//! 3. **lock discipline** (`lock-order`) — a declared lock hierarchy per
//!    file; lexically nested `.lock()`s within one function must acquire
//!    outer-rank locks before inner-rank ones.
//! 4. **registry consistency** (`registry`, `docs`) — `RejectReason` ↔
//!    `RejectKind` counters ↔ wire codes must partition `rejected`, and
//!    every failpoint site literal must be registered in
//!    `vqllm_core::failpoint::SITES` and listed in the README table.
//!
//! Output is machine-readable: one finding per line, `file:line rule
//! message`. `--fix-docs` regenerates the README failpoint table from
//! the source-of-truth registry.

use std::fmt;
use std::io;
use std::path::Path;

pub mod registry;
pub mod rules;
pub mod source;
pub mod waiver;

/// One lint finding, printable as `file:line rule message`.
#[derive(Debug, Clone)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
    /// Trimmed raw source line, used for waiver pattern matching
    /// (empty for "something is missing" findings, which only a
    /// file-level `*` waiver can suppress).
    pub snippet: String,
}

impl Finding {
    pub fn new(file: &str, line: usize, rule: &'static str, message: String) -> Finding {
        Finding {
            file: file.to_string(),
            line,
            rule,
            message,
            snippet: String::new(),
        }
    }

    pub fn with_snippet(mut self, snippet: &str) -> Finding {
        self.snippet = snippet.trim().to_string();
        self
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

/// Modules where a panic is an outage, not a bug report: the request
/// path from socket to kernel. Paths are workspace-relative prefixes.
pub const HOT_PATHS: &[&str] = &[
    "src/net/",
    "crates/llm/src/serve",
    "crates/kernels/src/host_exec",
    "crates/core/src/failpoint.rs",
];

/// The lint crate's own sources (fixtures embed rule-triggering text).
pub const SELF_PATH: &str = "crates/lint/";

/// Declared lock hierarchy: within one file, a lock with a lower rank is
/// the outer lock and must be acquired first when nesting. Receivers are
/// matched by the final field name before `.lock()` / inside
/// `lock_recover(...)`.
pub struct LockClass {
    /// Workspace-relative path suffix of the file the class lives in.
    pub file: &'static str,
    /// Final path component of the lock receiver (`self.state.pending`
    /// matches `pending`).
    pub recv: &'static str,
    /// Lower = outer. Nesting must be strictly increasing.
    pub rank: u32,
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
    // Server: per-connection closing flag and ticket map are outer; the
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
    // Plan cache: the entry map is outer, per-entry build gates inner.
    LockClass {
        file: "crates/core/src/plan_cache.rs",
        recv: "map",
        rank: 10,
        name: "PlanCache.map",
    },
    LockClass {
        file: "crates/core/src/plan_cache.rs",
        recv: "gate",
        rank: 20,
        name: "PlanCache.gate",
    },
    // Failpoint registry, tenant metrics and the CPU backend's modelled-
    // output memo are single-lock files; listed so any future second lock
    // in them must declare a rank.
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

pub fn is_hot(path: &str) -> bool {
    !path.starts_with(SELF_PATH) && HOT_PATHS.iter().any(|p| path.starts_with(p))
}

/// Run every rule over the workspace rooted at `root`, apply the waiver
/// file, and return surviving findings sorted by location.
pub fn run_check(root: &Path) -> io::Result<Vec<Finding>> {
    let files = source::load_workspace(root)?;
    let readme = std::fs::read_to_string(root.join("README.md")).ok();

    let mut findings = Vec::new();
    findings.extend(rules::panic_free(&files));
    findings.extend(rules::atomics(&files));
    findings.extend(rules::lock_discipline(&files));
    findings.extend(registry::check(&files, readme.as_deref()));

    let waiver_text = std::fs::read_to_string(root.join("lint-allow.txt")).unwrap_or_default();
    let (waivers, mut waiver_findings) = waiver::parse(&waiver_text);
    let mut kept = waiver::apply(findings, &waivers);
    kept.append(&mut waiver_findings);
    kept.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(kept)
}

/// Regenerate the README failpoint-site table from the source registry.
/// Returns true when the README changed.
pub fn fix_docs(root: &Path) -> io::Result<bool> {
    registry::fix_docs(root)
}
