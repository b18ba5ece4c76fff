//! Per-file structural analysis over the token stream: function
//! extents, `#[cfg(test)]` regions, and handler-closure regions
//! (`log_undo` / `log_effect` / `defer_on_commit` / `defer_on_abort` /
//! `log_version_install`, the WAL's replay closure, and the server's
//! event-loop dispatch closures).

use crate::source::{lex, Comment, TokKind, Token};

/// A function item found in the token stream.
#[derive(Debug, Clone)]
pub struct Function {
    /// The function's name.
    pub name: String,
    /// Token-index range `[body_open, body_close]` of the `{ ... }`
    /// body, or `None` for a bodyless declaration.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Whether the function sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// Why a closure region is considered a *handler*: code that runs at
/// commit or abort time, or where a panic takes more down with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerKind {
    /// `txn.log_undo(...)`, or the second argument of
    /// `txn.log_effect(captured, undo, install)` — the inverse, replayed
    /// on abort.
    Undo,
    /// `txn.defer_on_commit(...)` — disposable commit-time action.
    DeferCommit,
    /// `txn.defer_on_abort(...)` — deferred abort-time action.
    DeferAbort,
    /// `txn.log_version_install(...)`, or the third argument of
    /// `txn.log_effect(..)` — the multi-version read path's
    /// commit-time closure: it runs while abstract locks are still
    /// held and triggers chain GC, so a panic there dooms the commit
    /// *after* the point of no return.
    VersionInstall,
    /// `log.replay(...)` — the WAL recovery replay closure
    /// (crates/server and crates/wal): it rebuilds state after a
    /// crash, so a panic there turns a survivable crash into a
    /// permanent one.
    WalReplay,
    /// `.run_tick(...)` in crates/server — the event loop's dispatch
    /// closures: one loop multiplexes every connection pinned to it,
    /// so a panic there kills them all at once, mid-tick.
    EventLoop,
}

/// A handler region: the token-index range of a registration call's
/// argument list, `( ... )` inclusive — or, for `log_effect`, which
/// registers two handlers at once, of the one argument that is this
/// handler.
#[derive(Debug, Clone)]
pub struct HandlerRegion {
    pub kind: HandlerKind,
    /// Token index of the registration method's name.
    pub name_idx: usize,
    /// Inclusive token-index range.
    pub range: (usize, usize),
}

/// Everything the rules need to know about one file.
#[derive(Debug)]
pub struct FileAnalysis {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub functions: Vec<Function>,
    pub handlers: Vec<HandlerRegion>,
    /// Token-index ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl FileAnalysis {
    /// Lex and analyze `text`, labelling diagnostics with `path`.
    pub fn build(path: &str, text: &str) -> FileAnalysis {
        let (tokens, comments) = lex(text);
        let test_ranges = find_test_ranges(&tokens);
        let mut fa = FileAnalysis {
            path: path.replace('\\', "/"),
            functions: Vec::new(),
            handlers: Vec::new(),
            test_ranges,
            tokens,
            comments,
        };
        fa.functions = fa.find_functions();
        fa.handlers = fa.find_handlers();
        fa
    }

    /// Whether the file as a whole is test code (an integration test,
    /// bench, or fuzz target rather than library source).
    pub fn is_test_file(&self) -> bool {
        let p = &self.path;
        p.starts_with("tests/") || p.contains("/tests/") || p.starts_with("benches/")
    }

    /// Token at `i`, if in range.
    pub fn tok(&self, i: usize) -> Option<&Token> {
        self.tokens.get(i)
    }

    /// Whether token `i` is the identifier `s`.
    pub fn is_ident(&self, i: usize, s: &str) -> bool {
        matches!(self.tokens.get(i), Some(t) if t.kind == TokKind::Ident && t.text == s)
    }

    /// Whether token `i` is the punctuation `s`.
    pub fn is_punct(&self, i: usize, s: &str) -> bool {
        matches!(self.tokens.get(i), Some(t) if t.kind == TokKind::Punct && t.text == s)
    }

    /// Whether token index `i` falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| i >= a && i <= b)
    }

    /// Whether token index `i` falls inside any handler region.
    pub fn in_handler(&self, i: usize) -> bool {
        self.handlers
            .iter()
            .any(|h| i >= h.range.0 && i <= h.range.1)
    }

    /// The token index of the `)`/`}`/`]` matching the opener at `open`.
    /// Falls back to the last token on unbalanced input.
    pub fn matching(&self, open: usize) -> usize {
        let (o, c) = match self.tokens[open].text.as_str() {
            "(" => ("(", ")"),
            "{" => ("{", "}"),
            "[" => ("[", "]"),
            _ => return open,
        };
        let mut depth = 0usize;
        for i in open..self.tokens.len() {
            let t = &self.tokens[i];
            if t.kind == TokKind::Punct {
                if t.text == o {
                    depth += 1;
                } else if t.text == c {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
            }
        }
        self.tokens.len().saturating_sub(1)
    }

    fn find_functions(&self) -> Vec<Function> {
        let mut out = Vec::new();
        let n = self.tokens.len();
        let mut i = 0;
        while i < n {
            if self.is_ident(i, "fn") {
                let name = match self.tokens.get(i + 1) {
                    Some(t) if t.kind == TokKind::Ident => t.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                // The body opens at the first `{` after the signature;
                // a `;` first means a bodyless declaration. Neither can
                // occur inside the signature's parens/brackets, so skip
                // balanced groups on the way.
                let mut j = i + 2;
                let mut body = None;
                while j < n {
                    let t = &self.tokens[j];
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" => {
                                j = self.matching(j);
                            }
                            "{" => {
                                body = Some((j, self.matching(j)));
                                break;
                            }
                            ";" => break,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                out.push(Function {
                    name,
                    body,
                    line: self.tokens[i].line,
                    in_test: self.in_test(i),
                });
                // Continue *inside* the signature/body so nested fns
                // are found too.
                i += 2;
            } else {
                i += 1;
            }
        }
        out
    }

    fn find_handlers(&self) -> Vec<HandlerRegion> {
        let mut out = Vec::new();
        let in_server = self.path.contains("crates/server/");
        let in_wal = self.path.contains("crates/wal/");
        for i in 0..self.tokens.len() {
            let t = &self.tokens[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            // Must be a method call: `.name(` — this skips the
            // definitions themselves (`fn log_undo(...)`).
            if i == 0 || !self.is_punct(i - 1, ".") || !self.is_punct(i + 1, "(") {
                continue;
            }
            let mut region = |kind, range| {
                out.push(HandlerRegion {
                    kind,
                    name_idx: i,
                    range,
                });
            };
            let kind = match t.text.as_str() {
                "log_effect" => {
                    // One call, both fates: `(captured, undo, install)`.
                    if let [_, undo, install] = self.call_args(i + 1)[..] {
                        region(HandlerKind::Undo, undo);
                        region(HandlerKind::VersionInstall, install);
                    }
                    continue;
                }
                "log_undo" => HandlerKind::Undo,
                "defer_on_commit" => HandlerKind::DeferCommit,
                "defer_on_abort" => HandlerKind::DeferAbort,
                "log_version_install" => HandlerKind::VersionInstall,
                "replay" if in_server || in_wal => HandlerKind::WalReplay,
                "run_tick" if in_server => HandlerKind::EventLoop,
                _ => continue,
            };
            region(kind, (i + 1, self.matching(i + 1)));
        }
        out
    }

    /// The inclusive token ranges of the arguments of the call whose
    /// `(` is at `open`, split at its top-level commas. A closure's
    /// `|params|` may hold commas of their own and are skipped whole.
    fn call_args(&self, open: usize) -> Vec<(usize, usize)> {
        let close = self.matching(open);
        let mut args = Vec::new();
        let mut start = open + 1;
        let mut j = start;
        while j < close {
            if self.is_punct(j, "(") || self.is_punct(j, "[") || self.is_punct(j, "{") {
                j = self.matching(j);
            } else if self.is_punct(j, "|") && (j == start || self.is_ident(j - 1, "move")) {
                j = (j + 1..close)
                    .find(|&k| self.is_punct(k, "|"))
                    .unwrap_or(close);
            } else if self.is_punct(j, ",") {
                args.push((start, j - 1));
                start = j + 1;
            }
            j += 1;
        }
        if start < close {
            args.push((start, close - 1));
        }
        args
    }
}

/// Token-index ranges of items annotated `#[cfg(test)]`.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let text = |i: usize| tokens.get(i).map(|t: &Token| t.text.as_str());
    let mut i = 0usize;
    while i + 6 < tokens.len() {
        let is_cfg_test = text(i) == Some("#")
            && text(i + 1) == Some("[")
            && text(i + 2) == Some("cfg")
            && text(i + 3) == Some("(")
            && text(i + 4) == Some("test")
            && text(i + 5) == Some(")")
            && text(i + 6) == Some("]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // The annotated item runs from the attribute to the matching
        // `}` of its first brace (mod/fn/impl body) or a `;`.
        let mut j = i + 7;
        let mut end = tokens.len().saturating_sub(1);
        while j < tokens.len() {
            match text(j) {
                Some("{") => {
                    let mut depth = 0usize;
                    while j < tokens.len() {
                        match text(j) {
                            Some("{") => depth += 1,
                            Some("}") => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    end = j;
                    break;
                }
                Some(";") => {
                    end = j;
                    break;
                }
                _ => j += 1,
            }
        }
        out.push((i, end));
        i = end + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r"
pub struct S { base: u32 }
impl S {
    pub fn add(&self, txn: &Txn, k: u64) -> TxResult<()> {
        self.lock.lock(txn)?;
        self.base.add(k);
        let base = self.base.clone();
        txn.log_undo(move || { base.remove(&k); });
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn t() { let x = [1]; x[0]; }
}
";

    #[test]
    fn functions_and_test_regions() {
        let fa = FileAnalysis::build("crates/boosted/src/x.rs", SRC);
        let names: Vec<(&str, bool)> = fa
            .functions
            .iter()
            .map(|f| (f.name.as_str(), f.in_test))
            .collect();
        assert_eq!(names, vec![("add", false), ("helper", true), ("t", true)]);
        assert!(fa.functions[0].body.is_some());
    }

    #[test]
    fn handler_regions_cover_the_closure() {
        let fa = FileAnalysis::build("crates/boosted/src/x.rs", SRC);
        assert_eq!(fa.handlers.len(), 1);
        assert_eq!(fa.handlers[0].kind, HandlerKind::Undo);
        // `remove` is inside the region, `add` is not.
        let remove_idx = fa
            .tokens
            .iter()
            .position(|t| t.text == "remove")
            .expect("remove token");
        let add_idx = fa.tokens.iter().position(|t| t.text == "add").unwrap();
        assert!(fa.in_handler(remove_idx));
        assert!(!fa.in_handler(add_idx));
    }

    #[test]
    fn an_effect_registers_its_two_arms_as_two_handlers() {
        let src = "impl S { fn put(&self, txn: &Txn, k: u64, v: u64) {
            txn.log_effect(
                (Arc::clone(&self.base), k, v),
                |(base, k, _)| { base.remove(&k); },
                move |(base, k, v), stamp| base.versions.install(k, Some(v), stamp),
            );
        } }";
        let fa = FileAnalysis::build("crates/boosted/src/x.rs", src);
        let kinds: Vec<HandlerKind> = fa.handlers.iter().map(|h| h.kind).collect();
        assert_eq!(kinds, vec![HandlerKind::Undo, HandlerKind::VersionInstall]);
        let idx = |text: &str| fa.tokens.iter().position(|t| t.text == text).unwrap();
        let within = |h: &HandlerRegion, i: usize| i >= h.range.0 && i <= h.range.1;
        // Each arm is its own region; the captured tuple is in neither.
        assert!(within(&fa.handlers[0], idx("remove")));
        assert!(!within(&fa.handlers[1], idx("remove")));
        assert!(within(&fa.handlers[1], idx("install")));
        assert!(!within(&fa.handlers[0], idx("install")));
        assert!(!fa.in_handler(idx("clone")));
    }

    #[test]
    fn wal_replay_closures_only_count_in_wal_and_server_paths() {
        let src = "fn f(&self) { log.replay(|r| apply(r)); }";
        for path in ["crates/wal/src/group.rs", "crates/server/src/lib.rs"] {
            let fa = FileAnalysis::build(path, src);
            let kinds: Vec<HandlerKind> = fa.handlers.iter().map(|h| h.kind).collect();
            assert_eq!(kinds, vec![HandlerKind::WalReplay], "{path}");
        }
        let other = FileAnalysis::build("crates/boosted/src/x.rs", src);
        assert!(other.handlers.is_empty());
    }
}
