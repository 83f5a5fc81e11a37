//! Rule 4: failpoint-site coverage and the README site table.
//!
//! Failpoint sites are declared once, in the `sites!` table of
//! `crates/core/src/failpoint.rs`, which generates `failpoint::Site`; the
//! compiler then refuses a fired or configured site that is not declared.
//! Two facts it cannot see are checked here:
//!
//! - every declared `Site::X` is fired by non-test code — `fire(Site::X)`,
//!   or the kernels' `failpoint(Site::X)` — since an unused public variant
//!   compiles cleanly but names a site no drill can reach;
//! - the README's generated site table lists exactly the declared sites
//!   (`--fix-docs` rewrites it from the table).
//!
//! Rejection reasons need no check here: `RejectReason`'s wire codes and
//! counter slots are generated from one table in
//! `crates/llm/src/serve/request.rs`.

use std::io;
use std::path::Path;

use crate::source::SourceFile;
use crate::{Finding, SELF_PATH};

pub const FAILPOINT_RS: &str = "crates/core/src/failpoint.rs";

/// One row of the `sites!` table.
#[derive(Debug, Default)]
pub struct SiteRow {
    /// The `Site` variant.
    pub variant: String,
    /// The dotted site name.
    pub name: String,
    /// Where the fault is injected.
    pub at: String,
    /// 1-based line of the row.
    pub line: usize,
}

pub fn check(files: &[SourceFile], readme: Option<&str>) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(sites) = files
        .iter()
        .find(|f| f.path == FAILPOINT_RS)
        .and_then(site_table)
    else {
        out.push(Finding::new(
            FAILPOINT_RS,
            1,
            "registry",
            "could not locate the `sites!` table; the failpoint site registry is required".into(),
        ));
        return out;
    };

    let fired_code: Vec<String> = files
        .iter()
        .filter(|f| !f.path.starts_with(SELF_PATH))
        .flat_map(|f| f.lines.iter().filter(|l| !l.in_test))
        .map(|l| l.code.split_whitespace().collect())
        .collect();
    for site in &sites {
        let calls = [
            format!("fire(Site::{})", site.variant),
            format!("failpoint(Site::{})", site.variant),
        ];
        if !fired_code
            .iter()
            .any(|code| calls.iter().any(|c| code.contains(c.as_str())))
        {
            out.push(Finding::new(
                FAILPOINT_RS,
                site.line,
                "registry",
                format!(
                    "failpoint site \"{}\" (Site::{}) is declared but no non-test code fires it",
                    site.name, site.variant
                ),
            ));
        }
    }

    // README table must mirror the `sites!` table (regenerate with --fix-docs).
    match readme.and_then(readme_sites) {
        None => out.push(Finding::new(
            "README.md",
            1,
            "docs",
            "README is missing the generated failpoint site table (markers `<!-- failpoint-sites:begin/end -->`); run `vqllm-lint --fix-docs`".into(),
        )),
        Some(listed) => {
            for site in &sites {
                if !listed.contains(&site.name) {
                    out.push(Finding::new(
                        FAILPOINT_RS,
                        site.line,
                        "docs",
                        format!("failpoint site \"{}\" is missing from the README table; run `vqllm-lint --fix-docs`", site.name),
                    ));
                }
            }
            for l in &listed {
                if !sites.iter().any(|s| &s.name == l) {
                    out.push(Finding::new(
                        "README.md",
                        1,
                        "docs",
                        format!("README lists failpoint site \"{l}\" which the `sites!` table does not declare; run `vqllm-lint --fix-docs`"),
                    ));
                }
            }
        }
    }
    out
}

/// The rows of the `sites!` invocation: each `Variant => "name", "at";`,
/// whose two strings may sit on continuation lines.
fn site_table(file: &SourceFile) -> Option<Vec<SiteRow>> {
    let start = file
        .lines
        .iter()
        .position(|l| l.code.trim() == "sites! {")?;
    let mut rows: Vec<SiteRow> = Vec::new();
    for (idx, line) in file.lines.iter().enumerate().skip(start + 1) {
        if line.code.trim() == "}" {
            return Some(rows);
        }
        if let Some((variant, _)) = line.code.split_once("=>") {
            rows.push(SiteRow {
                variant: variant.trim().to_string(),
                line: idx + 1,
                ..SiteRow::default()
            });
        }
        if let Some(row) = rows.last_mut() {
            for s in &line.strings {
                if row.name.is_empty() {
                    row.name = s.clone();
                } else {
                    row.at.push_str(s);
                }
            }
        }
    }
    None
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

pub fn render_table(sites: &[SiteRow]) -> String {
    let mut s = String::new();
    s.push_str(TABLE_BEGIN);
    s.push('\n');
    s.push_str("| site | fault is injected at |\n");
    s.push_str("| --- | --- |\n");
    for site in sites {
        s.push_str(&format!("| `{}` | {} |\n", site.name, site.at));
    }
    s.push_str(TABLE_END);
    s
}

/// Rewrite the README block between the markers from the `sites!` table.
/// Returns true when the file changed.
pub fn fix_docs(root: &Path) -> io::Result<bool> {
    let fp_path = root.join(FAILPOINT_RS);
    let text = std::fs::read_to_string(&fp_path)?;
    let fp = SourceFile::parse(FAILPOINT_RS, &text);
    let sites =
        site_table(&fp).ok_or_else(|| io::Error::other("no `sites!` table in failpoint.rs"))?;

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

    // Miniature but shape-accurate fixtures: the site table (one row
    // split over two lines, as the real table writes long rows), its
    // README mirror, and the two call sites that fire it.
    const FAILPOINT_FIX: &str = "sites! {\n    LlmStep => \"llm.step\", \"whole-step fault\";\n    PoolScope => \"pool.scope\",\n        \"scope entry\";\n}\n";
    const README_FIX: &str = "# x\n<!-- failpoint-sites:begin -->\n| site | fault is injected at |\n| --- | --- |\n| `llm.step` | whole-step fault |\n| `pool.scope` | scope entry |\n<!-- failpoint-sites:end -->\n";
    const POOL_RS: &str = "crates/kernels/src/host_exec/pool.rs";

    fn fixture(edits: &[(&str, &str, &str)]) -> Vec<SourceFile> {
        let mut texts = vec![
            (FAILPOINT_RS, FAILPOINT_FIX.to_string()),
            (
                "crates/llm/src/serve/multi.rs",
                "fn step() { failpoint::fire(Site::LlmStep); }\n".to_string(),
            ),
            (
                POOL_RS,
                "fn scope() { failpoint::fire(Site::PoolScope); }\n".to_string(),
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
    fn deleting_a_sites_entry_fails() {
        // A row deleted while its site is still fired no longer compiles;
        // the README table still names it, so `--check` flags it too.
        let files = fixture(&[(
            FAILPOINT_RS,
            "    PoolScope => \"pool.scope\",\n        \"scope entry\";\n",
            "",
        )]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter().any(|f| f.message.contains("pool.scope")),
            "deleted table row not caught: {got:?}"
        );
    }

    #[test]
    fn stale_site_and_helper_arg_labels() {
        // Declared but never fired anywhere.
        let files = fixture(&[(POOL_RS, "failpoint::fire(Site::PoolScope);", "noop();")]);
        let got = check(&files, Some(README_FIX));
        assert!(
            got.iter()
                .any(|f| f.message.contains("pool.scope") && f.message.contains("fires it")),
            "stale site not caught: {got:?}"
        );
        // The kernels' `failpoint(Site::X)` helper counts as firing;
        // configuring the site, or firing it from test code, does not.
        let helper = fixture(&[(POOL_RS, "failpoint::fire(", "failpoint(")]);
        assert!(check(&helper, Some(README_FIX)).is_empty());
        for dead in [
            "fn scope() { failpoint::configure(Site::PoolScope, a, 0, None); }\n",
            "#[cfg(test)]\nmod tests { fn t() { failpoint::fire(Site::PoolScope); } }\n",
        ] {
            let files = fixture(&[(
                POOL_RS,
                "fn scope() { failpoint::fire(Site::PoolScope); }\n",
                dead,
            )]);
            let got = check(&files, Some(README_FIX));
            assert!(
                got.iter().any(|f| f.message.contains("fires it")),
                "{dead}: {got:?}"
            );
        }
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
        let table = render_table(&site_table(&fp).unwrap());
        assert!(table.contains("| `llm.step` | whole-step fault |"));
        assert!(table.contains("| `pool.scope` | scope entry |"));
        assert!(table.starts_with(TABLE_BEGIN) && table.trim_end().ends_with(TABLE_END));
    }
}
