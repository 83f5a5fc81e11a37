//! The two line-level rule families: atomic orderings and lock
//! discipline. Failpoint coverage lives in `registry.rs`.

use std::collections::HashSet;

use crate::source::SourceFile;
use crate::{Finding, LockClass, SELF_PATH};

// ---------------------------------------------------------------------------
// Atomic-ordering audit.
// ---------------------------------------------------------------------------

const ATOMIC_OPS: &[&str] = &[
    ".load(",
    ".store(",
    ".swap(",
    ".fetch_add(",
    ".fetch_sub(",
    ".fetch_and(",
    ".fetch_nand(",
    ".fetch_or(",
    ".fetch_xor(",
    ".fetch_max(",
    ".fetch_min(",
    ".fetch_update(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

pub fn atomics(files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files.iter().filter(|f| !f.path.starts_with(SELF_PATH)) {
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let lno = idx + 1;
            for op in ATOMIC_OPS {
                let mut from = 0;
                while let Some(pos) = line.code[from..].find(op) {
                    let col = from + pos;
                    from = col + op.len();
                    let span = call_span(file, idx, col + op.len() - 1);
                    if !ORDERINGS.iter().any(|o| span.contains(o)) {
                        out.push(Finding::new(
                            &file.path,
                            lno,
                            "atomic-explicit",
                            format!(
                                "`{}` without a literal `Ordering::` argument; orderings must be explicit at the call site",
                                op.trim_start_matches('.').trim_end_matches('(')
                            ),
                        ));
                    }
                }
            }
            // SeqCst demands a written justification: it is the "I could
            // not prove anything weaker" ordering, and unexplained uses
            // rot into load-bearing mysteries.
            if line.code.contains("SeqCst") && !line.code.trim_start().starts_with("use ") {
                let justified = line.comment.contains("ordering:")
                    || (idx > 0 && file.lines[idx - 1].comment.contains("ordering:"));
                if !justified {
                    out.push(Finding::new(
                        &file.path,
                        lno,
                        "atomic-seqcst",
                        "`SeqCst` without an `// ordering:` justification on this or the preceding line; downgrade or explain".to_string(),
                    ));
                }
            }
        }
    }
    out
}

/// Collect the argument span of a call whose `(` sits at (`line_idx`,
/// `col`) in stripped code, across up to 8 lines, until parens balance.
fn call_span(file: &SourceFile, line_idx: usize, col: usize) -> String {
    let mut span = String::new();
    let mut depth = 0i32;
    for (k, line) in file.lines.iter().enumerate().skip(line_idx).take(8) {
        let start = if k == line_idx { col } else { 0 };
        for c in line.code.chars().skip(start) {
            span.push(c);
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        return span;
                    }
                }
                _ => {}
            }
        }
        span.push(' ');
    }
    span
}

// ---------------------------------------------------------------------------
// Lock discipline.
// ---------------------------------------------------------------------------

struct Held {
    rank: u32,
    name: &'static str,
    binding: Option<String>,
    depth: i32,
    line: usize,
}

/// Checks `hierarchy` against the workspace: nested acquisitions in rank
/// order, and every declared class still locked in non-test code of its
/// file (a class whose lock was removed or renamed is stale, and a stale
/// class would silently admit a new lock of that name at the wrong rank).
pub fn lock_discipline(files: &[SourceFile], hierarchy: &[LockClass]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut locked: HashSet<&str> = HashSet::new();
    for file in files {
        let classes: Vec<&LockClass> = hierarchy
            .iter()
            .filter(|c| file.path.ends_with(c.file))
            .collect();
        if classes.is_empty() {
            continue;
        }
        locked.extend(check_file_locks(file, &classes, &mut out));
    }
    for class in hierarchy.iter().filter(|c| !locked.contains(c.name)) {
        out.push(Finding::new(
            class.file,
            1,
            "lock-order",
            format!(
                "lock class {} is declared but no non-test code in this file locks `{}`; delete the stale class",
                class.name, class.recv
            ),
        ));
    }
    out
}

/// Checks one file's nesting order; returns the names of the classes it
/// locks.
fn check_file_locks(
    file: &SourceFile,
    classes: &[&LockClass],
    out: &mut Vec<Finding>,
) -> Vec<&'static str> {
    let mut depth = 0i32;
    let mut held: Vec<Held> = Vec::new();
    let mut locked = Vec::new();

    for (idx, line) in file.lines.iter().enumerate() {
        let lno = idx + 1;
        if !line.in_test {
            for recv in lock_receivers(&line.code) {
                let Some(class) = classes.iter().find(|c| c.recv == recv) else {
                    continue;
                };
                locked.push(class.name);
                for h in &held {
                    if h.rank >= class.rank {
                        out.push(Finding::new(
                            &file.path,
                            lno,
                            "lock-order",
                            format!(
                                "{} (rank {}) acquired while holding {} (rank {}, line {}); the hierarchy requires outer (lower rank) locks first",
                                class.name, class.rank, h.name, h.rank, h.line
                            ),
                        ));
                    }
                }
                held.push(Held {
                    rank: class.rank,
                    name: class.name,
                    binding: let_binding(&line.code),
                    depth,
                    line: lno,
                });
            }
            // An explicit drop releases a named guard early.
            if line.code.contains("drop(") {
                if let Some(dropped) = ident_in_call(&line.code, "drop(") {
                    held.retain(|h| h.binding.as_deref() != Some(dropped.as_str()));
                }
            }
        }
        depth += brace_delta(&line.code);
        // Bound guards live while their block does; temporaries (no
        // `let`) die at end of statement, approximated as end of line.
        held.retain(|h| h.binding.is_some() && h.depth <= depth);
    }
    locked
}

/// Receivers locked on this line: final path component before `.lock(`
/// plus the argument of `lock_recover(...)`.
fn lock_receivers(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let b: Vec<char> = code.chars().collect();
    let mut from = 0;
    while let Some(pos) = code[from..].find(".lock(") {
        let col = char_index(code, from + pos);
        let mut start = col;
        while start > 0 && (b[start - 1].is_alphanumeric() || b[start - 1] == '_') {
            start -= 1;
        }
        if start < col {
            out.push(b[start..col].iter().collect());
        }
        from += pos + ".lock(".len();
    }
    from = 0;
    while let Some(pos) = code[from..].find("lock_recover(") {
        let tail = &code[from + pos + "lock_recover(".len()..];
        let arg: String = tail
            .trim_start_matches(['&', ' '])
            .trim_start_matches("mut ")
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
            .collect();
        if let Some(last) = arg.rsplit('.').next() {
            if !last.is_empty() {
                out.push(last.to_string());
            }
        }
        from += pos + "lock_recover(".len();
    }
    out
}

fn char_index(code: &str, byte_pos: usize) -> usize {
    code[..byte_pos].chars().count()
}

/// Name bound by a `let` on this line, if any (`let mut g = ...` → `g`).
fn let_binding(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t
        .strip_prefix("let ")
        .or_else(|| t.find(" let ").map(|p| &t[p + 5..]))?;
    let rest = rest.trim_start().trim_start_matches("mut ").trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

fn ident_in_call(code: &str, call: &str) -> Option<String> {
    let pos = code.find(call)?;
    let arg: String = code[pos + call.len()..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if arg.is_empty() {
        None
    } else {
        Some(arg)
    }
}

fn brace_delta(code: &str) -> i32 {
    let mut d = 0;
    for c in code.chars() {
        match c {
            '{' => d += 1,
            '}' => d -= 1,
            _ => {}
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn driver_rs(src: &str) -> Vec<SourceFile> {
        vec![SourceFile::parse("src/net/driver.rs", src)]
    }

    /// Two of the driver's classes, as `LOCK_HIERARCHY` declares them.
    const DRIVER: &[LockClass] = &[
        LockClass {
            file: "src/net/driver.rs",
            recv: "phases",
            rank: 10,
            name: "driver.phases",
        },
        LockClass {
            file: "src/net/driver.rs",
            recv: "state",
            rank: 30,
            name: "WaitCell.state",
        },
    ];

    // --- atomics rule ---

    #[test]
    fn atomics_requires_literal_ordering() {
        let f = driver_rs(
            "fn f() {\n    flag.store(true, ord);\n    flag.load(Ordering::Acquire);\n}\n",
        );
        let got = atomics(&f);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "atomic-explicit");
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn atomics_multiline_call_spans() {
        let f = driver_rs("fn f() {\n    flag.compare_exchange(\n        false,\n        true,\n        Ordering::AcqRel,\n        Ordering::Acquire,\n    );\n}\n");
        assert!(atomics(&f).is_empty());
    }

    #[test]
    fn seqcst_needs_ordering_comment() {
        let bare = driver_rs("fn f() { flag.store(true, Ordering::SeqCst); }\n");
        let got = atomics(&bare);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "atomic-seqcst");

        let same = driver_rs(
            "fn f() { flag.store(true, Ordering::SeqCst); } // ordering: total order vs drain\n",
        );
        assert!(atomics(&same).is_empty());
        let prev = driver_rs("fn f() {\n    // ordering: total order vs drain\n    flag.store(true, Ordering::SeqCst);\n}\n");
        assert!(atomics(&prev).is_empty());
    }

    // --- lock discipline ---

    #[test]
    fn lock_order_flags_inversion() {
        let src = "impl T {\n    fn bad(&self) {\n        let cell = self.state.lock();\n        let map = self.phases.lock();\n    }\n}\n";
        let got = lock_discipline(&driver_rs(src), DRIVER);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rule, "lock-order");
        assert!(got[0].message.contains("driver.phases"));
    }

    #[test]
    fn lock_order_accepts_declared_order_and_drop() {
        let ok = "impl T {\n    fn good(&self) {\n        let map = self.phases.lock();\n        let cell = self.state.lock();\n    }\n    fn resequenced(&self) {\n        let cell = self.state.lock();\n        drop(cell);\n        let map = self.phases.lock();\n    }\n}\n";
        assert!(lock_discipline(&driver_rs(ok), DRIVER).is_empty());
    }

    #[test]
    fn lock_order_scopes_guards_to_blocks() {
        let ok = "impl T {\n    fn scoped(&self) {\n        {\n            let cell = self.state.lock();\n        }\n        let map = self.phases.lock();\n    }\n}\n";
        assert!(lock_discipline(&driver_rs(ok), DRIVER).is_empty());
    }

    #[test]
    fn lock_order_sees_lock_recover_helper() {
        let src = "impl T {\n    fn bad(&self) {\n        let cell = lock_recover(&self.state);\n        let map = lock_recover(&self.phases);\n    }\n}\n";
        let got = lock_discipline(&driver_rs(src), DRIVER);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn lock_class_never_locked_is_stale() {
        // `gate` is declared but never locked in its file; `map` is
        // declared in a file the workspace no longer has.
        let mut classes = DRIVER.to_vec();
        classes.push(LockClass {
            file: "src/net/driver.rs",
            recv: "gate",
            rank: 40,
            name: "driver.gate",
        });
        classes.push(LockClass {
            file: "crates/core/src/gone.rs",
            recv: "map",
            rank: 10,
            name: "Gone.map",
        });
        // Only test code locks `gate`, which does not count.
        let src = "impl T {\n    fn good(&self) {\n        let map = self.phases.lock();\n        let cell = self.state.lock();\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn t(x: &T) { let g = x.gate.lock(); }\n}\n";
        let got = lock_discipline(&driver_rs(src), &classes);
        let stale: Vec<&str> = got
            .iter()
            .filter(|f| f.message.contains("stale"))
            .map(|f| f.file.as_str())
            .collect();
        assert_eq!(
            stale,
            ["src/net/driver.rs", "crates/core/src/gone.rs"],
            "{got:?}"
        );
        assert!(got[0].message.contains("driver.gate"));
        assert!(lock_discipline(&driver_rs(src), DRIVER).is_empty());
    }
}
