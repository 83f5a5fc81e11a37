//! Failpoint-site coverage.
//!
//! Failpoint sites are declared once, in the `sites!` table of
//! `crates/core/src/failpoint.rs`, which generates `failpoint::Site`; the
//! compiler then refuses a fired or configured site that is not declared,
//! and a `vqllm-core` unit test checks the README's site table against
//! it. The one fact neither can see is checked here: every declared
//! `Site::X` is fired by non-test code — `fire(Site::X)`, or the kernels'
//! `failpoint(Site::X)` — since an unused public variant compiles cleanly
//! but names a site no drill can reach.
//!
//! Rejection reasons need no check here: `RejectReason`'s wire codes and
//! counter slots are generated from one table in
//! `crates/llm/src/serve/request.rs`.

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
    /// 1-based line of the row.
    pub line: usize,
}

pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let Some(sites) = files
        .iter()
        .find(|f| f.path == FAILPOINT_RS)
        .and_then(site_table)
    else {
        return vec![Finding::new(
            FAILPOINT_RS,
            1,
            "registry",
            "could not locate the `sites!` table; the failpoint site registry is required".into(),
        )];
    };

    let fired_code: Vec<String> = files
        .iter()
        .filter(|f| !f.path.starts_with(SELF_PATH))
        .flat_map(|f| f.lines.iter().filter(|l| !l.in_test))
        .map(|l| l.code.split_whitespace().collect())
        .collect();
    sites
        .iter()
        .filter(|site| {
            let calls = [
                format!("fire(Site::{})", site.variant),
                format!("failpoint(Site::{})", site.variant),
            ];
            !fired_code
                .iter()
                .any(|code| calls.iter().any(|c| code.contains(c.as_str())))
        })
        .map(|site| {
            Finding::new(
                FAILPOINT_RS,
                site.line,
                "registry",
                format!(
                    "failpoint site \"{}\" (Site::{}) is declared but no non-test code fires it",
                    site.name, site.variant
                ),
            )
        })
        .collect()
}

/// The rows of the `sites!` invocation: each `Variant => "name", "at";`,
/// whose strings may sit on continuation lines.
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
        if let Some(row) = rows.last_mut().filter(|r| r.name.is_empty()) {
            if let Some(name) = line.strings.first() {
                row.name = name.clone();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    // Miniature but shape-accurate fixtures: the site table (one row
    // split over two lines, as the real table writes long rows) and the
    // two call sites that fire it.
    const FAILPOINT_FIX: &str = "sites! {\n    LlmStep => \"llm.step\", \"whole-step fault\";\n    PoolScope => \"pool.scope\",\n        \"scope entry\";\n}\n";
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
        let got = check(&fixture(&[]));
        assert!(got.is_empty(), "unexpected findings: {got:?}");
    }

    #[test]
    fn stale_site_and_helper_arg_labels() {
        // Declared but never fired anywhere.
        let files = fixture(&[(POOL_RS, "failpoint::fire(Site::PoolScope);", "noop();")]);
        let got = check(&files);
        assert!(
            got.iter()
                .any(|f| f.message.contains("pool.scope") && f.message.contains("fires it")),
            "stale site not caught: {got:?}"
        );
        // The kernels' `failpoint(Site::X)` helper counts as firing;
        // configuring the site, or firing it from test code, does not.
        let helper = fixture(&[(POOL_RS, "failpoint::fire(", "failpoint(")]);
        assert!(check(&helper).is_empty());
        for dead in [
            "fn scope() { failpoint::configure(Site::PoolScope, a, 0, None); }\n",
            "#[cfg(test)]\nmod tests { fn t() { failpoint::fire(Site::PoolScope); } }\n",
        ] {
            let files = fixture(&[(
                POOL_RS,
                "fn scope() { failpoint::fire(Site::PoolScope); }\n",
                dead,
            )]);
            let got = check(&files);
            assert!(
                got.iter().any(|f| f.message.contains("fires it")),
                "{dead}: {got:?}"
            );
        }
    }
}
