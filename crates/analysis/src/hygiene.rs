//! Source-level unsafe-hygiene check: every `unsafe` occurrence in the
//! workspace's own crates must be justified by a nearby `// SAFETY:`
//! comment — and `unsafe fn` *declarations* specifically by a
//! `# Safety` doc section, the caller-facing half of the contract: a
//! `// SAFETY:` comment explains why this site is sound, but a
//! declaration's obligation falls on every caller, so it must live in
//! the rendered docs.
//!
//! This is a lint over text, not an AST pass — deliberately simple and
//! dependency-free. It scans `crates/*/src` and the workspace `src/`,
//! skipping `vendor/` (third-party stand-ins) and `target/`. A finding
//! names the file and line so CI output is directly actionable.

use std::path::{Path, PathBuf};

/// One uncommented `unsafe` site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HygieneFinding {
    /// File containing the naked `unsafe`.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// The site is a fn *declaration*, which needs a `# Safety` doc
    /// section (a `// SAFETY:` comment is not caller-facing).
    pub needs_doc: bool,
}

impl std::fmt::Display for HygieneFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.needs_doc {
            write!(
                f,
                "{}:{}: `{}` — {} fn declaration without a `# Safety` doc section",
                self.file.display(),
                self.line,
                self.snippet,
                ["un", "safe"].concat()
            )
        } else {
            write!(
                f,
                "{}:{}: `{}` without a SAFETY comment",
                self.file.display(),
                self.line,
                self.snippet
            )
        }
    }
}

/// How many lines above an `unsafe` site a justifying comment may sit.
/// Generous enough for a multi-line SAFETY paragraph, small enough that
/// a comment cannot accidentally cover an unrelated block.
const LOOKBACK: usize = 12;

/// Scan one file's source text. Returns a finding for every line using
/// the `unsafe` keyword with no `SAFETY`/`# Safety` comment within
/// `LOOKBACK` preceding lines (or on the line itself) — and, for
/// `unsafe fn` declarations, a finding whenever the lookback window has
/// no `# Safety` doc section, even if a `// SAFETY:` comment is present
/// (the contract must be caller-visible in the docs).
pub fn scan_source(file: &Path, text: &str) -> Vec<HygieneFinding> {
    // Built by concatenation so this file does not flag itself.
    let needle: String = ["un", "safe"].concat();
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        // Comments, doc comments and attributes (e.g. the
        // `deny(..._op_in_..._fn)` lint gate) never *use* the keyword.
        if trimmed.starts_with("//") || trimmed.starts_with("#[") || trimmed.starts_with("#!") {
            continue;
        }
        if !uses_keyword(trimmed, &needle) {
            continue;
        }
        let is_fn_decl = declares_unsafe_fn(trimmed, &needle);
        let lookback = i.saturating_sub(LOOKBACK)..=i;
        let justified = if is_fn_decl {
            lookback.clone().any(|j| lines[j].contains("# Safety"))
        } else {
            lookback
                .clone()
                .any(|j| lines[j].contains("SAFETY") || lines[j].contains("# Safety"))
        };
        if !justified {
            out.push(HygieneFinding {
                file: file.to_path_buf(),
                line: i + 1,
                snippet: trimmed.trim_end().to_string(),
                needs_doc: is_fn_decl,
            });
        }
    }
    out
}

/// Does `line` declare an `unsafe fn` (the keyword followed by the `fn`
/// token and a function *name*)? Matches declarations like
/// `pub(crate) unsafe fn f(...)`; does not match blocks, trait impls,
/// fn-pointer *types* (`fn(` with no name), or identifiers merely
/// containing the keyword.
fn declares_unsafe_fn(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            let rest = line[end..].trim_start();
            if rest.strip_prefix("fn").is_some_and(|r| {
                r.starts_with(char::is_whitespace)
                    && r.trim_start()
                        .starts_with(|c: char| c.is_alphabetic() || c == '_')
            }) {
                return true;
            }
        }
        from = end;
    }
    false
}

/// Does `line` use `needle` as a standalone keyword (not as part of a
/// longer identifier like a lint name)?
fn uses_keyword(line: &str, needle: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let before_ok = start == 0 || !is_ident(bytes[start - 1]);
        let after_ok = end == bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

/// Recursively scan every `.rs` file under `root`, skipping `vendor`,
/// `target`, and hidden directories.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<HygieneFinding>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "vendor" || name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path)?;
                out.extend(scan_source(&path, &text));
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(suffix: &str) -> String {
        [["un", "safe"].concat().as_str(), suffix].concat()
    }

    #[test]
    fn commented_block_passes() {
        let src = format!(
            "fn f() {{\n    // SAFETY: justified here.\n    {} {{ }}\n}}\n",
            kw("")
        );
        assert!(scan_source(Path::new("x.rs"), &src).is_empty());
    }

    #[test]
    fn naked_block_is_flagged() {
        let src = format!("fn f() {{\n    {} {{ }}\n}}\n", kw(""));
        let f = scan_source(Path::new("x.rs"), &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn doc_safety_section_covers_decl() {
        let src = format!(
            "/// # Safety\n///\n/// Caller checks i.\n{} fn g(i: usize) {{}}\n",
            kw("")
        );
        assert!(scan_source(Path::new("x.rs"), &src).is_empty());
    }

    #[test]
    fn fn_decl_with_only_a_safety_comment_is_flagged() {
        // A `// SAFETY:` comment justifies a *site*; a declaration's
        // contract must be a caller-visible `# Safety` doc section.
        let src = format!(
            "// SAFETY: this is not caller-facing.\n{} fn g(i: usize) {{}}\n",
            kw("")
        );
        let f = scan_source(Path::new("x.rs"), &src);
        assert_eq!(f.len(), 1);
        assert!(f[0].needs_doc);
        assert!(f[0].to_string().contains("# Safety"));
    }

    #[test]
    fn fn_decl_with_doc_section_and_visibility_is_clean() {
        let src = format!(
            "/// # Safety\n///\n/// Caller checks i.\npub(crate) {} fn g(i: usize) {{}}\n",
            kw("")
        );
        assert!(scan_source(Path::new("x.rs"), &src).is_empty());
    }

    #[test]
    fn fn_pointer_type_is_not_a_declaration() {
        // A field of fn-pointer type has no caller-facing doc surface;
        // the ordinary SAFETY-comment rule applies instead.
        let src = format!(
            "// SAFETY: callee contract forwarded by call().\ncall_one: {} fn(*const u8, usize),\n",
            kw("")
        );
        assert!(scan_source(Path::new("x.rs"), &src).is_empty());
    }

    #[test]
    fn impl_and_block_sites_still_accept_safety_comments() {
        let src = format!(
            "// SAFETY: disjoint writes.\n{} impl Send for W {{}}\n",
            kw("")
        );
        assert!(scan_source(Path::new("x.rs"), &src).is_empty());
        let src = format!("// SAFETY: in bounds.\nlet v = {} {{ *p }};\n", kw(""));
        assert!(scan_source(Path::new("x.rs"), &src).is_empty());
    }

    #[test]
    fn lint_attribute_is_not_a_use() {
        let src = format!("#![deny({})]\n", kw("_op_in_") + &kw("_fn"));
        assert!(scan_source(Path::new("x.rs"), &src).is_empty());
    }

    #[test]
    fn identifier_containing_keyword_is_not_a_use() {
        let src = format!("let {}_count = 3;\n", kw(""));
        assert!(scan_source(Path::new("x.rs"), &src).is_empty());
    }

    #[test]
    fn lookback_window_is_bounded() {
        let mut src = String::from("// SAFETY: far away.\n");
        for _ in 0..LOOKBACK + 2 {
            src.push_str("let x = 1;\n");
        }
        src.push_str(&format!("{} {{ }}\n", kw("")));
        assert_eq!(scan_source(Path::new("x.rs"), &src).len(), 1);
    }

    #[test]
    fn the_workspace_itself_is_clean() {
        // crates/analysis/src/hygiene.rs -> repo root is three levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let findings = scan_tree(root).unwrap();
        assert!(
            findings.is_empty(),
            "uncommented {} sites:\n{}",
            ["un", "safe"].concat(),
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
