//! Lock-order discipline.
//!
//! Tracks guard acquisition syntactically per function and checks:
//!
//! * **order** — acquiring a lock ranked *earlier* (more outer) in the
//!   `[locks] hierarchy` while holding a later-ranked one is an
//!   inversion;
//! * **blocking** — holding any tracked lock across a call to a
//!   declared-blocking function (`[locks] blocking`) is flagged, with
//!   a carve-out for `Condvar::wait*` on the guard being waited on
//!   (the wait releases that lock).
//!
//! Guard liveness is modeled syntactically:
//!
//! * a let-bound guard (`let g = m.lock().unwrap();` — the chain after
//!   the acquisition is only `unwrap`/`expect`/`?` and the statement
//!   binds it directly) lives until the enclosing `}` or an explicit
//!   `drop(g)`;
//! * any other acquisition is a temporary that lives to the end of its
//!   statement (`;`) — **or**, if the statement opens a block first
//!   (`match m.lock().unwrap().x() { … }`), to that block's closing
//!   `}`. This models Rust's scrutinee-temporary rule, the bug class
//!   where a guard silently outlives the "one line" it appears on.
//!
//! Bindings that immediately copy out of the guard
//! (`let n = *m.lock().unwrap();`) are temporaries, not guards: the
//! leading `*` deref disqualifies the let-binding rule.

use crate::config::Config;
use crate::lexer::{TokKind, Token};
use crate::passes::{emit, Pass};
use crate::report::Finding;
use crate::source::{functions, matching_brace, SourceFile};

pub struct LockOrder;

const WAITS: [&str; 3] = ["wait", "wait_timeout", "wait_timeout_while"];

#[derive(Debug)]
struct Held {
    name: String,
    /// Binding variable for let-bound guards (enables `drop(g)`).
    var: Option<String>,
    /// Token index at which the guard is dead (inclusive bound: the
    /// guard no longer counts once the scan reaches this index).
    until: usize,
    line: u32,
}

impl Pass for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn run(&self, file: &SourceFile, cfg: &Config, out: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for (_name, open, close) in functions(toks) {
            check_fn(file, cfg, toks, open, close, out);
        }
    }
}

fn check_fn(
    file: &SourceFile,
    cfg: &Config,
    toks: &[Token],
    open: usize,
    close: usize,
    out: &mut Vec<Finding>,
) {
    let mut held: Vec<Held> = Vec::new();
    let mut brace_stack: Vec<usize> = Vec::new();
    let mut i = open;
    while i <= close && i < toks.len() {
        held.retain(|h| i < h.until);
        let t = &toks[i];
        match t.text.as_str() {
            "{" => brace_stack.push(i),
            "}" => {
                brace_stack.pop();
            }
            _ => {}
        }
        // Explicit drop(var) releases a guard early.
        if t.kind == TokKind::Ident && t.text == "drop" && tok_text(toks, i + 1) == "(" {
            if let Some(v) = toks.get(i + 2).filter(|v| v.kind == TokKind::Ident) {
                held.retain(|h| h.var.as_deref() != Some(v.text.as_str()));
            }
        }
        if let Some(acq) = acquisition_at(cfg, toks, i) {
            let line = t.line;
            if let Some(new_rank) = cfg.lock_rank(&acq.name) {
                for h in held.iter().filter(|h| h.name != acq.name) {
                    if let Some(held_rank) = cfg.lock_rank(&h.name) {
                        if new_rank < held_rank {
                            emit(
                                file,
                                "lock-order",
                                line,
                                format!(
                                    "acquires `{}` (rank {}) while holding `{}` (rank {}, \
                                     acquired line {}) — inverts the declared hierarchy",
                                    acq.name, new_rank, h.name, held_rank, h.line
                                ),
                                out,
                            );
                        }
                    }
                }
            }
            let until = if acq.var.is_some() {
                // Let-bound guard: lives to the enclosing `}`.
                brace_stack.last().map(|&b| matching_brace(toks, b)).unwrap_or(close)
            } else {
                temporary_end(toks, acq.end, close)
            };
            held.push(Held { name: acq.name, var: acq.var, until, line });
            i = acq.end;
            continue;
        }
        // Condvar wait: blocking for every held lock EXCEPT the guard
        // passed as the first argument (the wait releases it).
        let is_wait = t.kind == TokKind::Ident
            && WAITS.contains(&t.text.as_str())
            && tok_text(toks, i.wrapping_sub(1)) == "."
            && tok_text(toks, i + 1) == "(";
        if is_wait {
            let waited = first_arg_ident(toks, i + 1);
            for h in &held {
                if waited.is_some() && h.var.as_deref() == waited.as_deref() {
                    continue;
                }
                emit(
                    file,
                    "lock-order",
                    t.line,
                    format!(
                        "lock `{}` (acquired line {}) held across condvar `{}`",
                        h.name, h.line, t.text
                    ),
                    out,
                );
            }
            i += 1;
            continue;
        }
        // Declared-blocking call while holding any lock.
        if t.kind == TokKind::Ident
            && cfg.blocking.iter().any(|b| b == &t.text)
            && tok_text(toks, i + 1) == "("
            && tok_text(toks, i.wrapping_sub(1)) != "fn"
        {
            for h in &held {
                emit(
                    file,
                    "lock-order",
                    t.line,
                    format!(
                        "lock `{}` (acquired line {}) held across blocking call `{}`",
                        h.name, h.line, t.text
                    ),
                    out,
                );
            }
        }
        i += 1;
    }
}

struct Acquisition {
    name: String,
    var: Option<String>,
    /// Token index just past the acquisition chain (`.unwrap()` etc.).
    end: usize,
}

/// Recognizes an acquisition whose method-name token is at `i`:
/// `.lock(` / `.try_lock(` on a receiver, or a configured
/// acquire-method (e.g. `.health(`, `.device(`).
fn acquisition_at(cfg: &Config, toks: &[Token], i: usize) -> Option<Acquisition> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident
        || tok_text(toks, i.wrapping_sub(1)) != "."
        || tok_text(toks, i + 1) != "("
    {
        return None;
    }
    let name = match t.text.as_str() {
        "lock" | "try_lock" => receiver_name(toks, i - 1)?,
        m => cfg.acquire_methods.get(m)?.clone(),
    };
    // Skip the call's argument list, then a trailing
    // `.unwrap()` / `.expect(..)` / `?` chain.
    let mut j = skip_group(toks, i + 1);
    let mut plain_chain = true;
    loop {
        if tok_text(toks, j) == "?" {
            j += 1;
        } else if tok_text(toks, j) == "." {
            let m = tok_text(toks, j + 1);
            if (m == "unwrap" || m == "expect") && tok_text(toks, j + 2) == "(" {
                j = skip_group(toks, j + 2);
            } else {
                plain_chain = false;
                break;
            }
        } else {
            break;
        }
    }
    let var = if plain_chain && tok_text(toks, j) == ";" { let_binding_var(toks, i) } else { None };
    Some(Acquisition { name, var, end: j })
}

/// If the statement containing the acquisition at method-token `i` is
/// `let [mut] NAME = <receiver-chain>…;` with no leading `*`, returns
/// `NAME`. Walks backward over the receiver chain.
fn let_binding_var(toks: &[Token], i: usize) -> Option<String> {
    let mut k = i - 1; // the `.` before the method name
    loop {
        let prev = tok_text(toks, k.wrapping_sub(1));
        if prev == "]" || prev == ")" {
            k = walk_back_group(toks, k - 1)?;
        } else if toks.get(k.wrapping_sub(1)).is_some_and(|p| p.kind == TokKind::Ident) {
            k -= 1;
            // An ident may itself be preceded by `.` — keep walking.
            if tok_text(toks, k.wrapping_sub(1)) == "." {
                k -= 1;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    // `k` is now the first token of the receiver expression.
    if tok_text(toks, k.wrapping_sub(1)) != "=" {
        return None;
    }
    let b = k.checked_sub(2)?;
    let name = toks.get(b).filter(|v| v.kind == TokKind::Ident)?;
    let mut l = b.wrapping_sub(1);
    if tok_text(toks, l) == "mut" {
        l = l.wrapping_sub(1);
    }
    if tok_text(toks, l) != "let" {
        return None;
    }
    Some(name.text.clone())
}

/// Receiver lock name for `.lock()`: the identifier before the dot,
/// skipping one trailing index/call group (`devices[id].lock()` →
/// `devices`).
fn receiver_name(toks: &[Token], dot: usize) -> Option<String> {
    let mut k = dot;
    let prev = tok_text(toks, k.wrapping_sub(1));
    if prev == "]" || prev == ")" {
        k = walk_back_group(toks, k - 1)?;
    }
    toks.get(k.wrapping_sub(1))
        .filter(|t| t.kind == TokKind::Ident && t.text != "self")
        .map(|t| t.text.clone())
}

/// Where a temporary acquired with chain ending at `chain_end` dies:
/// the next `;` at depth 0, or — if a `{` opens first at depth 0 (a
/// `match`/`if`/`while` header scrutinee) — that block's closing `}`.
fn temporary_end(toks: &[Token], chain_end: usize, fn_close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = chain_end;
    while j <= fn_close && j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                if depth == 0 {
                    // The acquisition was an argument inside a call —
                    // the temporary dies with the enclosing statement;
                    // keep scanning past the close.
                } else {
                    depth -= 1;
                }
            }
            "{" if depth == 0 => return matching_brace(toks, j),
            "{" => depth += 1,
            "}" => depth -= 1,
            ";" if depth <= 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    fn_close
}

/// First identifier inside a call's argument list, skipping `&`,
/// `mut`, and `*` (so `.wait(&mut inner)` → `inner`).
fn first_arg_ident(toks: &[Token], open_paren: usize) -> Option<String> {
    let mut j = open_paren + 1;
    while matches!(tok_text(toks, j), "&" | "mut" | "*") {
        j += 1;
    }
    toks.get(j).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone())
}

/// Index just past the balanced group opened at `at` (`(` or `[`).
fn skip_group(toks: &[Token], at: usize) -> usize {
    let (open_sym, close_sym) = match tok_text(toks, at) {
        "[" => ("[", "]"),
        _ => ("(", ")"),
    };
    let mut depth = 0i32;
    let mut j = at;
    while j < toks.len() {
        if toks[j].text == open_sym {
            depth += 1;
        } else if toks[j].text == close_sym {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    toks.len()
}

/// Walks backward over one balanced `[..]`/`(..)` group whose closer
/// is at `close`; returns the index of the opening token.
fn walk_back_group(toks: &[Token], close: usize) -> Option<usize> {
    let (open_sym, close_sym) = match tok_text(toks, close) {
        "]" => ("[", "]"),
        ")" => ("(", ")"),
        _ => return None,
    };
    let mut depth = 0i32;
    let mut j = close;
    loop {
        if toks[j].text == close_sym {
            depth += 1;
        } else if toks[j].text == open_sym {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j = j.checked_sub(1)?;
    }
}

fn tok_text(toks: &[Token], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}
