//! Per-file analysis context shared by all passes: the token stream,
//! `// LINT: allow(...)` annotations, and `#[cfg(test)]` regions.

use crate::lexer::{lex, TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One `// LINT: allow(<pass>) <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Pass name inside the parens (`panic`, `lock-order`, …).
    pub pass: String,
    /// Free-text justification after the closing paren.
    pub reason: String,
    /// Line the annotation comment sits on.
    pub line: u32,
    /// Line the annotation applies to: its own line for trailing
    /// comments, the next code line for standalone comments.
    pub applies_to: u32,
}

/// A lexed workspace source file plus derived pass inputs.
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators (baseline keys,
    /// config path matching, and reports all use this form).
    pub rel: String,
    /// Raw source lines (0-indexed storage; line N is `lines[N-1]`).
    pub lines: Vec<String>,
    /// Non-comment tokens, in order.
    pub tokens: Vec<Token>,
    /// Comment tokens, in order (passes scan these for SAFETY).
    pub comments: Vec<Token>,
    /// Parsed LINT allow annotations.
    pub allows: Vec<Allow>,
    /// Lines covered by a `#[cfg(test)]` item — skipped by all passes.
    pub test_lines: BTreeSet<u32>,
}

impl SourceFile {
    /// Reads and analyzes one file. `root` anchors the relative path.
    pub fn load(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        let rel = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        Ok(SourceFile::from_source(path.to_path_buf(), rel, &text))
    }

    /// Builds the context from in-memory source (used by fixture tests).
    pub fn from_source(path: PathBuf, rel: String, text: &str) -> SourceFile {
        let all = lex(text);
        let mut tokens = Vec::new();
        let mut comments = Vec::new();
        for t in all {
            if t.is_comment() {
                comments.push(t);
            } else {
                tokens.push(t);
            }
        }
        let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        let allows = parse_allows(&comments, &lines);
        let test_lines = find_test_regions(&tokens);
        SourceFile { path, rel, lines, tokens, comments, allows, test_lines }
    }

    /// Whether `line` sits inside a `#[cfg(test)]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_lines.contains(&line)
    }

    /// Whether a finding of `pass` at `line` is suppressed by an
    /// annotation. The reason is required by the grammar, so a match
    /// here always carries a justification.
    pub fn allowed(&self, pass: &str, line: u32) -> bool {
        self.allows.iter().any(|a| a.pass == pass && a.applies_to == line)
    }

    /// Trimmed text of a 1-based line ("" when out of range).
    pub fn line_text(&self, line: u32) -> &str {
        self.lines.get(line as usize - 1).map(|s| s.trim()).unwrap_or("")
    }
}

/// Extracts `// LINT: allow(<pass>) <reason>` annotations. A trailing
/// comment applies to its own line; a standalone comment (nothing but
/// whitespace before it) applies to the next non-comment code line.
fn parse_allows(comments: &[Token], lines: &[String]) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        if c.kind != TokKind::LineComment {
            continue;
        }
        let body = c.text.trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("LINT:") else { continue };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow(") else { continue };
        let Some(close) = rest.find(')') else { continue };
        let pass = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim().to_string();
        let standalone = c.col == 1
            || lines.get(c.line as usize - 1).is_some_and(|l| l.trim_start().starts_with("//"));
        let applies_to = if standalone { next_code_line(lines, c.line) } else { c.line };
        out.push(Allow { pass, reason, line: c.line, applies_to });
    }
    out
}

/// First line after `from` that holds code (non-blank, non-comment).
fn next_code_line(lines: &[String], from: u32) -> u32 {
    let mut n = from + 1;
    while let Some(l) = lines.get(n as usize - 1) {
        let t = l.trim();
        if !t.is_empty() && !t.starts_with("//") {
            return n;
        }
        n += 1;
    }
    from + 1
}

/// Finds lines covered by `#[cfg(test)]`-gated items: the attribute
/// token pattern `#` `[` `cfg` `(` `test` followed by the item's body
/// up to its matching `}` (or `;` for statement-like items).
fn find_test_regions(tokens: &[Token]) -> BTreeSet<u32> {
    let mut set = BTreeSet::new();
    let mut i = 0usize;
    while i + 4 < tokens.len() {
        let is_cfg_test = tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "("
            && tokens[i + 4].text == "test";
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip to the end of the attribute's `[...]`.
        let mut j = i + 1;
        let mut brackets = 0i32;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "[" => brackets += 1,
                "]" => {
                    brackets -= 1;
                    if brackets == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        // The gated item runs to the matching `}` of its first brace,
        // or to `;` if one appears before any `{` (e.g. `use` items).
        let mut depth = 0i32;
        let mut end_line = tokens.get(j).map(|t| t.line).unwrap_or(tokens[i].line);
        while j < tokens.len() {
            let t = &tokens[j];
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.line;
                        j += 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end_line = t.line;
                    j += 1;
                    break;
                }
                _ => {}
            }
            end_line = t.end_line();
            j += 1;
        }
        for l in tokens[i].line..=end_line {
            set.insert(l);
        }
        i = j;
    }
    set
}

/// Per-function token slices: `(name, start index, end index exclusive)`.
/// Used by the lock-order pass to scope acquisition tracking.
pub fn functions(tokens: &[Token]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].kind == TokKind::Ident && tokens[i].text == "fn" {
            let name = tokens
                .get(i + 1)
                .filter(|t| t.kind == TokKind::Ident || t.kind == TokKind::RawIdent)
                .map(|t| t.text.clone())
                .unwrap_or_default();
            // Find the body's opening brace (skip signature; a `;`
            // before `{` means a trait method decl with no body).
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut open = None;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    // The lexer keeps `>>` whole, so `Vec<Shard<J>>`
                    // closes two generic levels with one token.
                    ">>" => angle -= 2,
                    "->" => {}
                    "{" if angle <= 0 => {
                        open = Some(j);
                        break;
                    }
                    ";" if angle <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let Some(open) = open else {
                i = j + 1;
                continue;
            };
            let close = matching_brace(tokens, open);
            out.push((name, open, close));
            // Nested fns are re-discovered by continuing inside.
            i = open + 1;
        } else {
            i += 1;
        }
    }
    out
}

/// Index of the `}` matching the `{` at `open` (or last token index).
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    tokens.len().saturating_sub(1)
}

/// Grouping of allow annotations by pass, for reporting.
pub fn allows_by_pass(files: &[SourceFile]) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for f in files {
        for a in &f.allows {
            *m.entry(a.pass.clone()).or_insert(0) += 1;
        }
    }
    m
}
