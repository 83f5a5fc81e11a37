//! Source model: load `.rs` files, strip comments, blank string-literal
//! contents (keeping the quotes so call shapes survive), and mask
//! `#[cfg(test)]` items — the token-level substrate every rule runs on.
//!
//! This is deliberately a lexer, not a parser: the rules only need
//! line-level facts (is this `.lock()` in code, in a comment or in a
//! string? is this line test code?), and a character-state machine
//! answers those exactly without a syntax tree.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One physical line of a source file, pre-lexed.
#[derive(Debug, Clone)]
pub struct Line {
    /// Code with comments removed and string-literal contents dropped;
    /// the delimiting quotes remain, so `fire("x")` becomes `fire("")`.
    pub code: String,
    /// Text of any comment on the line (`//` tail or block-comment body).
    pub comment: String,
    /// String literals that *close* on this line, in source order.
    pub strings: Vec<String>,
    /// True when the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub lines: Vec<Line>,
}

impl SourceFile {
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let mut lines = lex(text);
        mask_cfg_test(&mut lines);
        SourceFile {
            path: path.to_string(),
            lines,
        }
    }
}

enum Mode {
    Code,
    /// Nested block comment, with depth.
    Block(u32),
    /// Inside a normal string literal (may span lines).
    Str,
    /// Inside a raw string literal, with the `#` count of its delimiter.
    RawStr(u32),
}

fn lex(text: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut mode = Mode::Code;
    let mut cur_str = String::new();

    for raw in text.split('\n') {
        let bytes: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut strings = Vec::new();
        let mut i = 0usize;

        while i < bytes.len() {
            let c = bytes[i];
            match mode {
                Mode::Block(depth) => {
                    if c == '*' && bytes.get(i + 1) == Some(&'/') {
                        if depth == 1 {
                            mode = Mode::Code;
                        } else {
                            mode = Mode::Block(depth - 1);
                        }
                        i += 2;
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(c);
                        i += 1;
                    }
                }
                Mode::Str => {
                    if c == '\\' {
                        cur_str.push(c);
                        if let Some(&n) = bytes.get(i + 1) {
                            cur_str.push(n);
                        }
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        strings.push(std::mem::take(&mut cur_str));
                        mode = Mode::Code;
                        i += 1;
                    } else {
                        cur_str.push(c);
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if c == '"' {
                        let h = hashes as usize;
                        let closes = (1..=h).all(|k| bytes.get(i + k) == Some(&'#'));
                        if closes {
                            code.push('"');
                            for _ in 0..h {
                                code.push('#');
                            }
                            strings.push(std::mem::take(&mut cur_str));
                            mode = Mode::Code;
                            i += 1 + h;
                            continue;
                        }
                    }
                    cur_str.push(c);
                    i += 1;
                }
                Mode::Code => {
                    if c == '/' && bytes.get(i + 1) == Some(&'/') {
                        comment.push_str(&raw[byte_offset(raw, i) + 2..]);
                        break;
                    } else if c == '/' && bytes.get(i + 1) == Some(&'*') {
                        mode = Mode::Block(1);
                        i += 2;
                    } else if c == '"' {
                        code.push('"');
                        mode = Mode::Str;
                        i += 1;
                    } else if c == 'r'
                        && !prev_is_ident(&code)
                        && matches!(bytes.get(i + 1), Some('"') | Some('#'))
                    {
                        // Raw string: r"..." or r#"..."# (any hash depth).
                        let mut h = 0usize;
                        let mut j = i + 1;
                        while bytes.get(j) == Some(&'#') {
                            h += 1;
                            j += 1;
                        }
                        if bytes.get(j) == Some(&'"') {
                            code.push('r');
                            for _ in 0..h {
                                code.push('#');
                            }
                            code.push('"');
                            mode = Mode::RawStr(h as u32);
                            i = j + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else if c == '\'' {
                        // Char literal vs lifetime. A char literal closes with
                        // a quote one (escaped: more) char later; a lifetime
                        // never closes.
                        if bytes.get(i + 1) == Some(&'\\') {
                            code.push_str("''");
                            i += 2;
                            while i < bytes.len() && bytes[i] != '\'' {
                                i += 1;
                            }
                            i += 1;
                        } else if bytes.get(i + 2) == Some(&'\'') && bytes.get(i + 1).is_some() {
                            code.push_str("''");
                            i += 3;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }

        out.push(Line {
            code,
            comment,
            strings,
            in_test: false,
        });
        // A normal string continued past a newline keeps its content.
        if matches!(mode, Mode::Str | Mode::RawStr(_)) {
            cur_str.push('\n');
        }
    }
    out
}

/// Map a char index into `raw` to a byte offset (raw is mostly ASCII; this
/// keeps comments with non-ASCII text from slicing mid-codepoint).
fn byte_offset(raw: &str, char_idx: usize) -> usize {
    raw.char_indices()
        .nth(char_idx)
        .map(|(b, _)| b)
        .unwrap_or(raw.len())
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Mark every line belonging to a `#[cfg(test)]` item (module, fn, or
/// `use`) as `in_test`. Brace-tracked on the stripped code, so braces in
/// strings and comments cannot confuse it.
fn mask_cfg_test(lines: &mut [Line]) {
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        lines[i].in_test = true;
        // Scan forward for the item body: a `{` opens a block item we track
        // to balance; a `;` at depth zero first means a braceless item.
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        'mask: while j < lines.len() {
            lines[j].in_test = true;
            let start = if j == i {
                lines[i].code.find("#[cfg(test)]").unwrap_or(0) + "#[cfg(test)]".len()
            } else {
                0
            };
            for c in lines[j].code[start..].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            break 'mask;
                        }
                    }
                    ';' if !opened => break 'mask,
                    _ => {}
                }
            }
            j += 1;
        }
        i = (j + 1).max(i + 1);
    }
}

/// Walk the workspace source roots, skipping vendored and generated trees.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    for top in ["src", "crates", "tests", "examples", "benches"] {
        collect(&root.join(top), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&p)?;
        files.push(SourceFile::parse(&rel, &text));
    }
    Ok(files)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> SourceFile {
        SourceFile::parse("t.rs", src)
    }

    #[test]
    fn strips_line_comments() {
        let f = one("let x = 1; // unwrap() here is prose\n");
        assert_eq!(f.lines[0].code.trim_end(), "let x = 1;");
        assert!(f.lines[0].comment.contains("unwrap()"));
    }

    #[test]
    fn blanks_strings_keeps_quotes() {
        let f = one(r#"fire("llm.step"); let s = "panic!";"#);
        assert_eq!(f.lines[0].code, r#"fire(""); let s = "";"#);
        assert_eq!(f.lines[0].strings, vec!["llm.step", "panic!"]);
    }

    #[test]
    fn raw_strings_and_escapes() {
        let f = one(r##"let a = r#"no "end" yet"#; let b = "q\"q";"##);
        assert_eq!(f.lines[0].strings, vec![r#"no "end" yet"#, r#"q\"q"#]);
        assert!(!f.lines[0].code.contains("end"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = one("a /* one /* two */ still */ b\n/* open\nunwrap()\n*/ c");
        assert_eq!(f.lines[0].code.replace(' ', ""), "ab");
        assert!(f.lines[2].code.is_empty());
        assert!(f.lines[2].comment.contains("unwrap()"));
        assert_eq!(f.lines[3].code.trim(), "c");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = one("let c = '\"'; fn f<'a>(x: &'a str) {} let d = '\\n';");
        // The quote char literal must not open a string.
        assert!(f.lines[0].strings.is_empty());
        assert!(f.lines[0].code.contains("<'a>"));
    }

    #[test]
    fn masks_cfg_test_blocks() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let f = one(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn masks_braceless_cfg_test_use() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let f = one(src);
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }
}
