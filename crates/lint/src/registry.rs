//! Rule 4: cross-registry consistency.
//!
//! Three hand-maintained registries must stay in lockstep:
//!
//! - `RejectReason` (crates/llm/src/serve/request.rs) — the typed
//!   rejection surface of the serving layer;
//! - `RejectKind` (src/net/metrics.rs) — per-reason counters that must
//!   partition `rejected`: the `of()` mapping, the `ALL` array, and the
//!   `code()` wire strings;
//! - `REJECT_WIRE_CODES` (src/net/proto.rs) — the protocol-side list of
//!   every code a client can observe.
//!
//! Plus the failpoint registry: every site string fired anywhere in the
//! workspace must appear in `vqllm_core::failpoint::SITES` and in the
//! README's generated site table (`--fix-docs` rewrites the latter).

use std::io;
use std::path::Path;

use crate::source::SourceFile;
use crate::{Finding, SELF_PATH};

pub const REQUEST_RS: &str = "crates/llm/src/serve/request.rs";
pub const METRICS_RS: &str = "src/net/metrics.rs";
pub const PROTO_RS: &str = "src/net/proto.rs";
pub const FAILPOINT_RS: &str = "crates/core/src/failpoint.rs";

/// Failpoint site strings live in these namespaces; a dotted literal
/// starting with one of them is treated as a site label even when passed
/// through a helper rather than to `fire()` directly.
const SITE_NAMESPACES: &[&str] = &["llm", "net", "host", "pool"];

/// Call shapes whose first string argument is a failpoint site.
const SITE_CALLS: &[&str] = &["fire(", "failpoint(", "configure("];

pub fn check(files: &[SourceFile], readme: Option<&str>) -> Vec<Finding> {
    let mut out = Vec::new();
    check_reject_chain(files, &mut out);
    check_failpoints(files, readme, &mut out);
    out
}

fn find<'a>(files: &'a [SourceFile], path: &str) -> Option<&'a SourceFile> {
    files.iter().find(|f| f.path == path)
}

// ---------------------------------------------------------------------------
// RejectReason ↔ RejectKind ↔ wire codes.
// ---------------------------------------------------------------------------

fn check_reject_chain(files: &[SourceFile], out: &mut Vec<Finding>) {
    let (Some(request), Some(metrics), Some(proto)) = (
        find(files, REQUEST_RS),
        find(files, METRICS_RS),
        find(files, PROTO_RS),
    ) else {
        // Partial fixture sets (unit tests) check what they provide.
        return;
    };

    let Some((reasons, reason_line)) = enum_variants(request, "enum RejectReason") else {
        out.push(Finding::new(
            &request.path,
            1,
            "registry",
            "could not locate `enum RejectReason`".into(),
        ));
        return;
    };
    let Some((kinds, kind_line)) = enum_variants(metrics, "enum RejectKind") else {
        out.push(Finding::new(
            &metrics.path,
            1,
            "registry",
            "could not locate `enum RejectKind`".into(),
        ));
        return;
    };

    // of(): every RejectReason must map to a counter kind.
    let of_pairs = match_pairs(metrics, "fn of(", "RejectReason::", "RejectKind::");
    for r in &reasons {
        if !of_pairs.iter().any(|(from, _, _)| from == r) {
            out.push(Finding::new(
                &metrics.path,
                kind_line,
                "registry",
                format!("RejectReason::{r} has no RejectKind::of() mapping; its rejections would not be counted"),
            ));
        }
    }
    for (from, _, line) in &of_pairs {
        if !reasons.contains(from) {
            out.push(Finding::new(
                &metrics.path,
                *line,
                "registry",
                format!(
                    "RejectKind::of() maps RejectReason::{from}, which is not a declared variant"
                ),
            ));
        }
    }
    for (_, to, line) in &of_pairs {
        if !kinds.contains(to) {
            out.push(Finding::new(
                &metrics.path,
                *line,
                "registry",
                format!(
                    "RejectKind::of() targets RejectKind::{to}, which is not a declared variant"
                ),
            ));
        }
    }

    // ALL: the counter registration array must cover every kind exactly.
    let all = idents_in_block(metrics, "ALL: [RejectKind", "RejectKind::");
    for k in &kinds {
        if !all.iter().any(|(name, _)| name == k) {
            out.push(Finding::new(
                &metrics.path,
                kind_line,
                "registry",
                format!("RejectKind::{k} is missing from RejectKind::ALL; its counter would never be registered or snapshotted"),
            ));
        }
    }
    for (name, line) in &all {
        if !kinds.contains(name) {
            out.push(Finding::new(
                &metrics.path,
                *line,
                "registry",
                format!(
                    "RejectKind::ALL lists RejectKind::{name}, which is not a declared variant"
                ),
            ));
        }
    }

    // code(): every kind needs a unique wire string.
    let codes = match_strings(metrics, "fn code(", "RejectKind::");
    for k in &kinds {
        if !codes.iter().any(|(kind, _, _)| kind == k) {
            out.push(Finding::new(
                &metrics.path,
                kind_line,
                "registry",
                format!("RejectKind::{k} has no code() wire string"),
            ));
        }
    }
    for (i, (_, code, line)) in codes.iter().enumerate() {
        if codes[..i].iter().any(|(_, c, _)| c == code) {
            out.push(Finding::new(
                &metrics.path,
                *line,
                "registry",
                format!("duplicate wire code \"{code}\" in RejectKind::code()"),
            ));
        }
    }

    // proto.rs REJECT_WIRE_CODES must equal the code() set, both ways.
    let Some((wire, wire_line)) = const_strings(proto, "REJECT_WIRE_CODES") else {
        out.push(Finding::new(
            &proto.path,
            1,
            "registry",
            "could not locate `REJECT_WIRE_CODES`; the protocol-side code list is the registry --check verifies".into(),
        ));
        return;
    };
    for (_, code, _) in &codes {
        if !wire.iter().any(|(w, _)| w == code) {
            out.push(Finding::new(
                &proto.path,
                wire_line,
                "registry",
                format!("wire code \"{code}\" (RejectKind::code) is missing from proto::REJECT_WIRE_CODES"),
            ));
        }
    }
    for (w, line) in &wire {
        if !codes.iter().any(|(_, c, _)| c == w) {
            out.push(Finding::new(
                &proto.path,
                *line,
                "registry",
                format!("proto::REJECT_WIRE_CODES lists \"{w}\", which no RejectKind produces"),
            ));
        }
    }
    let _ = reason_line;
}

// ---------------------------------------------------------------------------
// Failpoint sites.
// ---------------------------------------------------------------------------

fn check_failpoints(files: &[SourceFile], readme: Option<&str>, out: &mut Vec<Finding>) {
    let Some(fp) = find(files, FAILPOINT_RS) else {
        return;
    };
    let Some((sites, sites_line)) = site_table(fp) else {
        out.push(Finding::new(
            &fp.path,
            1,
            "registry",
            "could not locate `pub const SITES`; the central failpoint site registry is required"
                .into(),
        ));
        return;
    };
    for (i, (name, desc, line)) in sites.iter().enumerate() {
        if sites[..i].iter().any(|(n, _, _)| n == name) {
            out.push(Finding::new(
                &fp.path,
                *line,
                "registry",
                format!("duplicate failpoint site \"{name}\" in SITES"),
            ));
        }
        if desc.trim().is_empty() {
            out.push(Finding::new(
                &fp.path,
                *line,
                "registry",
                format!("failpoint site \"{name}\" has an empty description"),
            ));
        }
    }

    // Every site literal used anywhere must be registered, and every
    // registered site must still be used somewhere.
    let site_names: Vec<&str> = sites.iter().map(|(n, _, _)| n.as_str()).collect();
    let registry_block = block_of(fp, "const SITES").unwrap_or((sites_line, sites_line));
    let mut used: Vec<&str> = Vec::new();
    for file in files.iter().filter(|f| !f.path.starts_with(SELF_PATH)) {
        let in_registry_file = file.path == fp.path;
        for (idx, line) in file.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            if in_registry_file && (registry_block.0..=registry_block.1).contains(&idx) {
                continue; // the SITES table itself is not a call site
            }
            let lno = idx + 1;
            for s in &line.strings {
                let direct = SITE_CALLS.iter().any(|c| literal_follows(line, c, s));
                let namespaced = is_site_shaped(s)
                    && SITE_NAMESPACES.contains(&s.split('.').next().unwrap_or(""));
                if !direct && !namespaced {
                    continue;
                }
                if let Some(canon) = site_names.iter().copied().find(|n| *n == s.as_str()) {
                    if !used.contains(&canon) {
                        used.push(canon);
                    }
                } else {
                    out.push(
                        Finding::new(
                            &file.path,
                            lno,
                            "registry",
                            format!("failpoint site \"{s}\" is not registered in vqllm_core::failpoint::SITES"),
                        )
                        .with_snippet(&line.raw),
                    );
                }
            }
        }
    }
    for (name, _, line) in &sites {
        if !used.contains(&name.as_str()) {
            out.push(Finding::new(
                &fp.path,
                *line,
                "registry",
                format!(
                    "failpoint site \"{name}\" is registered but never referenced by any call site"
                ),
            ));
        }
    }

    // README table must mirror SITES (regenerate with --fix-docs).
    match readme.and_then(readme_sites) {
        None => out.push(Finding::new(
            "README.md",
            1,
            "docs",
            "README is missing the generated failpoint site table (markers `<!-- failpoint-sites:begin/end -->`); run `vqllm-lint --fix-docs`".into(),
        )),
        Some(listed) => {
            for (name, _, line) in &sites {
                if !listed.contains(name) {
                    out.push(Finding::new(
                        &fp.path,
                        *line,
                        "docs",
                        format!("failpoint site \"{name}\" is missing from the README table; run `vqllm-lint --fix-docs`"),
                    ));
                }
            }
            for l in &listed {
                if !site_names.contains(&l.as_str()) {
                    out.push(Finding::new(
                        "README.md",
                        1,
                        "docs",
                        format!("README lists failpoint site \"{l}\" which is not in SITES; run `vqllm-lint --fix-docs`"),
                    ));
                }
            }
        }
    }
}

/// True when `s` looks like a dotted site label: lowercase ident
/// segments joined by `.` (excludes IPs, file names, JSON keys).
fn is_site_shaped(s: &str) -> bool {
    let segs: Vec<&str> = s.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|seg| {
            !seg.is_empty()
                && seg.chars().next().is_some_and(|c| c.is_ascii_lowercase())
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// True when string literal `s` is the first argument of `call` on this
/// line (in stripped code, literals appear as `""`, so the call shape is
/// `call"` after removing whitespace-insensitive `("` matching).
fn literal_follows(line: &crate::source::Line, call: &str, s: &str) -> bool {
    let code = &line.code;
    let mut from = 0;
    while let Some(pos) = code[from..].find(call) {
        let after = &code[from + pos + call.len()..];
        let after = after.trim_start().trim_start_matches(['&', ' ']);
        if after.starts_with('"') {
            // Index of this literal among the line's strings = number of
            // closed literal pairs before it.
            let quotes_before = code[..from + pos].matches('"').count();
            if line.strings.get(quotes_before / 2).map(|x| x.as_str()) == Some(s) {
                return true;
            }
        }
        from += pos + call.len();
    }
    false
}

// ---------------------------------------------------------------------------
// Source-shape parsers (line/token level, mirroring how the code is
// actually written; fixtures in tests pin the accepted shapes).
// ---------------------------------------------------------------------------

/// Variants of `enum <name>`, with the declaration line.
fn enum_variants(file: &SourceFile, decl: &str) -> Option<(Vec<String>, usize)> {
    let (start, end) = block_of(file, decl)?;
    let mut variants = Vec::new();
    let mut depth = 0i32;
    let mut expecting = true;
    for line in &file.lines[start..=end] {
        let code = line.code.trim();
        if code.starts_with('#') {
            continue;
        }
        for tok in tokens(code) {
            match tok.as_str() {
                "{" | "(" | "[" => {
                    depth += 1;
                    if depth == 1 {
                        expecting = true;
                    }
                }
                "}" | ")" | "]" => depth -= 1,
                "," if depth == 1 => expecting = true,
                t if depth == 1
                    && expecting
                    && t.chars().next().is_some_and(|c| c.is_ascii_uppercase()) =>
                {
                    variants.push(t.to_string());
                    expecting = false;
                }
                _ => {}
            }
        }
    }
    Some((variants, start + 1))
}

/// `(From, To, line)` pairs inside the body of `fn_decl`, matching
/// `from_prefix::X => ... to_prefix::Y` arms.
fn match_pairs(
    file: &SourceFile,
    fn_decl: &str,
    from_prefix: &str,
    to_prefix: &str,
) -> Vec<(String, String, usize)> {
    let Some((start, end)) = block_of(file, fn_decl) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (off, line) in file.lines[start..=end].iter().enumerate() {
        let code = &line.code;
        let mut from = 0;
        while let Some(pos) = code[from..].find(from_prefix) {
            let src = ident_after(&code[from + pos + from_prefix.len()..]);
            let tail = &code[from + pos..];
            if let Some(tpos) = tail.find(to_prefix) {
                let dst = ident_after(&tail[tpos + to_prefix.len()..]);
                if !src.is_empty() && !dst.is_empty() {
                    out.push((src, dst, start + off + 1));
                }
            }
            from += pos + from_prefix.len();
        }
    }
    out
}

/// `(Variant, "string", line)` triples inside the body of `fn_decl`.
fn match_strings(file: &SourceFile, fn_decl: &str, prefix: &str) -> Vec<(String, String, usize)> {
    let Some((start, end)) = block_of(file, fn_decl) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (off, line) in file.lines[start..=end].iter().enumerate() {
        if let Some(pos) = line.code.find(prefix) {
            let variant = ident_after(&line.code[pos + prefix.len()..]);
            if let (false, Some(s)) = (variant.is_empty(), line.strings.first()) {
                out.push((variant, s.clone(), start + off + 1));
            }
        }
    }
    out
}

/// Qualified idents `prefix::X` inside the block opened at `decl`.
fn idents_in_block(file: &SourceFile, decl: &str, prefix: &str) -> Vec<(String, usize)> {
    let Some((start, end)) = block_of(file, decl) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (off, line) in file.lines[start..=end].iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = line.code[from..].find(prefix) {
            let name = ident_after(&line.code[from + pos + prefix.len()..]);
            if !name.is_empty() {
                out.push((name, start + off + 1));
            }
            from += pos + prefix.len();
        }
    }
    out
}

/// String literals inside `const <name>`, with their lines.
fn const_strings(file: &SourceFile, name: &str) -> Option<(Vec<(String, usize)>, usize)> {
    let decl = format!("const {name}");
    let (start, end) = block_of(file, &decl)?;
    let mut out = Vec::new();
    for (off, line) in file.lines[start..=end].iter().enumerate() {
        for s in &line.strings {
            out.push((s.clone(), start + off + 1));
        }
    }
    Some((out, start + 1))
}

/// One `(site, description, line)` row of the SITES table.
type SiteRow = (String, String, usize);

/// The SITES table: `(site, description, line)` triples from the pairs
/// of string literals inside `pub const SITES`.
fn site_table(file: &SourceFile) -> Option<(Vec<SiteRow>, usize)> {
    let (strings, line) = const_strings(file, "SITES")?;
    let mut out = Vec::new();
    let mut it = strings.into_iter();
    while let Some((site, l)) = it.next() {
        let desc = it.next().map(|(d, _)| d).unwrap_or_default();
        out.push((site, desc, l));
    }
    Some((out, line))
}

/// Find the item opened by the first line containing `decl`: returns
/// (decl line index, last line index), 0-based. Brace-balanced for
/// `{}` items (enums, fns); a `;` at brace depth zero ends brace-less
/// items (consts, whose `[...]` values carry no braces).
fn block_of(file: &SourceFile, decl: &str) -> Option<(usize, usize)> {
    let start = file.lines.iter().position(|l| l.code.contains(decl))?;
    let mut depth = 0i32;
    let mut opened = false;
    for (idx, line) in file.lines.iter().enumerate().skip(start) {
        let from = if idx == start {
            line.code.find(decl).unwrap_or(0)
        } else {
            0
        };
        for c in line.code[from..].chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return Some((start, idx));
                    }
                }
                // Brackets/parens only shield `;` (array lengths, fn
                // params); braces alone decide block structure.
                '[' | '(' => depth += 1,
                ']' | ')' => depth -= 1,
                ';' if depth == 0 => return Some((start, idx)),
                _ => {}
            }
        }
    }
    Some((start, file.lines.len() - 1))
}

fn ident_after(s: &str) -> String {
    s.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

fn tokens(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in code.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            if !c.is_whitespace() {
                out.push(c.to_string());
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

// ---------------------------------------------------------------------------
// README table generation (--fix-docs).
// ---------------------------------------------------------------------------

pub const TABLE_BEGIN: &str =
    "<!-- failpoint-sites:begin (generated by `vqllm-lint --fix-docs`; do not edit by hand) -->";
pub const TABLE_END: &str = "<!-- failpoint-sites:end -->";

/// Site names listed in the README's generated table, if present.
fn readme_sites(readme: &str) -> Option<Vec<String>> {
    let begin = readme.find("<!-- failpoint-sites:begin")?;
    let end = readme.find(TABLE_END)?;
    let mut out = Vec::new();
    for line in readme[begin..end].lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("| `") {
            if let Some(site) = rest.split('`').next() {
                out.push(site.to_string());
            }
        }
    }
    Some(out)
}

pub fn render_table(sites: &[(String, String, usize)]) -> String {
    let mut s = String::new();
    s.push_str(TABLE_BEGIN);
    s.push('\n');
    s.push_str("| site | fault is injected at |\n");
    s.push_str("| --- | --- |\n");
    for (name, desc, _) in sites {
        s.push_str(&format!("| `{name}` | {desc} |\n"));
    }
    s.push_str(TABLE_END);
    s
}

/// Rewrite the README block between the markers from the SITES registry.
/// Returns true when the file changed.
pub fn fix_docs(root: &Path) -> io::Result<bool> {
    let fp_path = root.join(FAILPOINT_RS);
    let text = std::fs::read_to_string(&fp_path)?;
    let fp = SourceFile::parse(FAILPOINT_RS, &text);
    let sites = site_table(&fp)
        .ok_or_else(|| io::Error::other("no `pub const SITES` in failpoint.rs"))?
        .0;

    let readme_path = root.join("README.md");
    let readme = std::fs::read_to_string(&readme_path)?;
    let table = render_table(&sites);

    let new = match (readme.find("<!-- failpoint-sites:begin"), readme.find(TABLE_END)) {
        (Some(b), Some(e)) if e > b => {
            format!("{}{}{}", &readme[..b], table, &readme[e + TABLE_END.len()..])
        }
        _ => {
            return Err(io::Error::other(
                "README.md has no failpoint-sites markers; add `<!-- failpoint-sites:begin -->` / `<!-- failpoint-sites:end -->` where the table belongs",
            ))
        }
    };
    if new != readme {
        std::fs::write(&readme_path, new)?;
        return Ok(true);
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    // Miniature but shape-accurate fixtures of the three real files.
    const REQUEST_FIX: &str =
        "pub enum RejectReason {\n    QueueFull { depth: usize },\n    Draining,\n}\n";
    const METRICS_FIX: &str = "pub enum RejectKind {\n    QueueFull,\n    Draining,\n}\nimpl RejectKind {\n    pub const ALL: [RejectKind; 2] = [RejectKind::QueueFull, RejectKind::Draining];\n    pub fn of(reason: &RejectReason) -> RejectKind {\n        match reason {\n            RejectReason::QueueFull { .. } => RejectKind::QueueFull,\n            RejectReason::Draining => RejectKind::Draining,\n        }\n    }\n    pub fn code(self) -> &'static str {\n        match self {\n            RejectKind::QueueFull => \"queue_full\",\n            RejectKind::Draining => \"draining\",\n        }\n    }\n}\n";
    const PROTO_FIX: &str =
        "pub const REJECT_WIRE_CODES: &[&str] = &[\"queue_full\", \"draining\"];\n";
    const FAILPOINT_FIX: &str = "pub const SITES: &[(&str, &str)] = &[\n    (\"llm.step\", \"whole-step fault\"),\n    (\"pool.scope\", \"scope entry\"),\n];\n";
    const README_FIX: &str = "# x\n<!-- failpoint-sites:begin -->\n| site | fault is injected at |\n| --- | --- |\n| `llm.step` | whole-step fault |\n| `pool.scope` | scope entry |\n<!-- failpoint-sites:end -->\n";

    fn fixture(edits: &[(&str, &str, &str)]) -> Vec<SourceFile> {
        let mut texts = vec![
            (REQUEST_RS, REQUEST_FIX.to_string()),
            (METRICS_RS, METRICS_FIX.to_string()),
            (PROTO_RS, PROTO_FIX.to_string()),
            (FAILPOINT_RS, FAILPOINT_FIX.to_string()),
            (
                "crates/llm/src/serve/multi.rs",
                "fn step() { failpoint::fire(\"llm.step\"); }\n".to_string(),
            ),
            (
                "crates/kernels/src/host_exec/pool.rs",
                "fn scope() { failpoint::fire(\"pool.scope\"); }\n".to_string(),
            ),
        ];
        for (path, from, to) in edits {
            for (p, t) in texts.iter_mut() {
                if p == path {
                    assert!(t.contains(from), "fixture edit `{from}` not found in {p}");
                    *t = t.replace(from, to);
                }
            }
        }
        texts
            .into_iter()
            .map(|(p, t)| SourceFile::parse(p, &t))
            .collect()
    }

    #[test]
    fn consistent_fixture_is_clean() {
        let got = check(&fixture(&[]), Some(README_FIX));
        assert!(got.is_empty(), "unexpected findings: {got:?}");
    }

    #[test]
    fn deleting_a_counter_mapping_fails() {
        // A new RejectReason variant without an of() arm: uncounted.
        let files = fixture(&[(REQUEST_RS, "Draining,\n}", "Draining,\n    Evicted,\n}")]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter()
                .any(|f| f.message.contains("Evicted") && f.message.contains("of()")),
            "missing-counter not caught: {got:?}"
        );
    }

    #[test]
    fn deleting_an_all_entry_fails() {
        let files = fixture(&[(
            METRICS_RS,
            "[RejectKind::QueueFull, RejectKind::Draining]",
            "[RejectKind::QueueFull]",
        )]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter()
                .any(|f| f.message.contains("ALL") && f.message.contains("Draining")),
            "missing ALL entry not caught: {got:?}"
        );
    }

    #[test]
    fn deleting_a_wire_code_fails() {
        let files = fixture(&[(PROTO_RS, "\"queue_full\", ", "")]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter().any(
                |f| f.message.contains("queue_full") && f.message.contains("REJECT_WIRE_CODES")
            ),
            "missing wire code not caught: {got:?}"
        );
    }

    #[test]
    fn stale_wire_code_fails() {
        let files = fixture(&[(PROTO_RS, "\"draining\"]", "\"draining\", \"ghost\"]")]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter().any(|f| f.message.contains("ghost")),
            "stale wire code not caught: {got:?}"
        );
    }

    #[test]
    fn unregistered_fire_site_fails() {
        let files = fixture(&[(
            "crates/llm/src/serve/multi.rs",
            "fire(\"llm.step\")",
            "fire(\"llm.rogue\")",
        )]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter()
                .any(|f| f.message.contains("llm.rogue") && f.message.contains("SITES")),
            "unregistered site not caught: {got:?}"
        );
    }

    #[test]
    fn deleting_a_sites_entry_fails() {
        // Site still fired in code but removed from the registry.
        let files = fixture(&[(FAILPOINT_RS, "    (\"pool.scope\", \"scope entry\"),\n", "")]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter().any(|f| f.message.contains("pool.scope")),
            "deleted SITES entry not caught: {got:?}"
        );
    }

    #[test]
    fn stale_site_and_helper_arg_labels() {
        // Registered but never referenced anywhere.
        let files = fixture(&[(
            "crates/kernels/src/host_exec/pool.rs",
            "failpoint::fire(\"pool.scope\");",
            "noop();",
        )]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter().any(|f| f.message.contains("never referenced")),
            "stale site not caught: {got:?}"
        );
        // A namespaced label passed through a helper arg still counts as
        // a use (and as a violation when unregistered).
        let files = fixture(&[(
            "crates/kernels/src/host_exec/pool.rs",
            "failpoint::fire(\"pool.scope\");",
            "helper(rows, \"pool.scope\", f); helper(rows, \"host.ghost\", f);",
        )]);
        let got = check(&files, Some(README_FIX));
        assert!(got.iter().any(|f| f.message.contains("host.ghost")));
        assert!(!got
            .iter()
            .any(|f| f.message.contains("\"pool.scope\" is registered but")));
    }

    #[test]
    fn readme_table_checked_and_rendered() {
        let stale = README_FIX.replace("| `pool.scope` | scope entry |\n", "");
        let got = check(&fixture(&[]), Some(&stale));
        assert!(got
            .iter()
            .any(|f| f.rule == "docs" && f.message.contains("pool.scope")));

        let got = check(&fixture(&[]), None);
        assert!(got
            .iter()
            .any(|f| f.rule == "docs" && f.message.contains("markers")));

        let fp = SourceFile::parse(FAILPOINT_RS, FAILPOINT_FIX);
        let table = render_table(&site_table(&fp).unwrap().0);
        assert!(table.contains("| `llm.step` | whole-step fault |"));
        assert!(table.starts_with(TABLE_BEGIN) && table.trim_end().ends_with(TABLE_END));
    }

    #[test]
    fn enum_parser_handles_fields_and_attrs() {
        let f = SourceFile::parse(
            REQUEST_RS,
            "#[derive(Debug)]\npub enum RejectReason {\n    /// doc\n    QueueFull { depth: usize, cap: usize },\n    #[allow(dead_code)]\n    Deadline(u64),\n    Draining,\n}\n",
        );
        let (vars, _) = enum_variants(&f, "enum RejectReason").unwrap();
        assert_eq!(vars, ["QueueFull", "Deadline", "Draining"]);
    }
}
