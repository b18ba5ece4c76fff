//! Stage 2a of the CFG analyzer: lowering a parsed function body
//! ([`crate::parser::Block`]) into a per-function control-flow graph of
//! *discipline events*.
//!
//! The CFG abstracts everything except what the lockset dataflow needs:
//! abstract-lock acquisitions, base-object calls, inverse/deferred
//! registrations, explicit releases, calls to same-file txn helpers,
//! and the negative edge of a `let .. else`. Evaluation order is
//! preserved (receiver before arguments, left to right); handler
//! closure bodies are *not* lowered — inverses run post-abort under the
//! runtime's locks and are exempt from the method-body discipline.
//!
//! Join blocks record which identifiers the branch condition mentions
//! ([`BlockKind::CondJoin`]), so the dataflow can tell a
//! result-conditioned inverse (`if result { log_undo }` — the no-op
//! path needs no inverse) from a genuinely divergent one. Loop heads
//! are distinct ([`BlockKind::LoopHead`]) because back edges must merge
//! pending inverses silently: a `continue` before the undo is not a
//! divergence, the next iteration logs it.

use crate::analysis::{FileAnalysis, Function, HandlerKind};
use crate::parser::{Block, Expr, Stmt};
use std::collections::{BTreeMap, BTreeSet};

/// Abstract-lock / base-call method name tables shared with the line
/// rules (defined in `rules.rs`).
use crate::rules::{ACQUIRE_METHODS, BASE_READ_METHODS};

/// One discipline-relevant event inside a basic block.
#[derive(Debug, Clone)]
pub enum Event {
    /// An abstract-lock acquisition (`self.lock.lock(txn)?`); `lock` is
    /// the receiver path (`self.lock`), `idx` the original token index
    /// of the method name.
    Acquire { lock: String, idx: usize },
    /// A `self.base.<method>(..)` call.
    BaseCall {
        method: String,
        idx: usize,
        mutating: bool,
        /// Identifiers bound by the enclosing `let`, if any — used to
        /// recognize result-conditioned inverse coverage.
        bindings: Vec<String>,
    },
    /// An inverse/deferred registration (`txn.log_undo(..)` etc).
    Register { kind: HandlerKind, idx: usize },
    /// An explicit release before commit (two-phase violation when
    /// reachable); the message is classified at lowering time.
    Release { idx: usize, message: String },
    /// A call to a same-file txn method (`self.helper(txn, ..)?`).
    Call { callee: String, idx: usize },
    /// Entry into the `else` block of `let PAT = .. else { .. }`: the
    /// pattern did *not* match, so a pending mutation whose result was
    /// being bound never happened on this path.
    LetElseNegative { bindings: Vec<String> },
}

/// How a block's predecessors merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockKind {
    Normal,
    /// Join point of an `if`/`match`; holds the identifiers the
    /// condition/scrutinee mentions.
    CondJoin {
        cond_idents: Vec<String>,
    },
    /// Loop header (merges the entry edge with back edges).
    LoopHead,
    /// The function's single exit (returns, `?`, and body fall-through
    /// all edge here).
    Exit,
}

/// One basic block.
#[derive(Debug)]
pub struct BasicBlock {
    pub kind: BlockKind,
    pub events: Vec<Event>,
    pub succs: Vec<usize>,
}

/// A per-function control-flow graph. Block 0 is the entry.
#[derive(Debug)]
pub struct Cfg {
    pub blocks: Vec<BasicBlock>,
    pub exit: usize,
}

impl Cfg {
    /// Predecessor lists, computed from successor edges.
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, blk) in self.blocks.iter().enumerate() {
            for &s in &blk.succs {
                if !preds[s].contains(&b) {
                    preds[s].push(b);
                }
            }
        }
        preds
    }
}

/// Build the CFG for `f`'s parsed `body`. `local_txn_fns` holds the
/// names of same-file non-test functions taking a `&Txn` (candidates
/// for `Event::Call`).
pub fn build_cfg(
    fa: &FileAnalysis,
    f: &Function,
    body: &Block,
    local_txn_fns: &BTreeSet<String>,
) -> Cfg {
    let mut lw = Lowerer {
        txn: fa.txn_param(f),
        fn_name: f.name.clone(),
        handlers: fa.handlers.iter().fold(BTreeMap::new(), |mut by_call, h| {
            by_call
                .entry(h.name_idx)
                .or_insert_with(Vec::new)
                .push(h.kind);
            by_call
        }),
        local_txn_fns,
        blocks: vec![
            BasicBlock {
                kind: BlockKind::Normal,
                events: Vec::new(),
                succs: Vec::new(),
            },
            BasicBlock {
                kind: BlockKind::Exit,
                events: Vec::new(),
                succs: Vec::new(),
            },
        ],
        exit: 1,
        loops: Vec::new(),
        last_base_call: None,
    };
    if let Some(end) = lw.lower_block(body, 0) {
        lw.edge(end, lw.exit);
    }
    Cfg {
        blocks: lw.blocks,
        exit: 1,
    }
}

struct Lowerer<'a> {
    /// The function's `&Txn` parameter identifier, if any.
    txn: Option<String>,
    fn_name: String,
    /// Registration call (method-name token index) → the handlers it
    /// registers: one, or `log_effect`'s two.
    handlers: BTreeMap<usize, Vec<HandlerKind>>,
    local_txn_fns: &'a BTreeSet<String>,
    blocks: Vec<BasicBlock>,
    exit: usize,
    /// `(loop head, break join)` stack for `break`/`continue`.
    loops: Vec<(usize, usize)>,
    /// `(block, event index)` of the most recent base call emitted —
    /// `let` lowering tags it with the pattern's bindings.
    last_base_call: Option<(usize, usize)>,
}

impl Lowerer<'_> {
    fn new_block(&mut self, kind: BlockKind) -> usize {
        self.blocks.push(BasicBlock {
            kind,
            events: Vec::new(),
            succs: Vec::new(),
        });
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn in_count(&self, b: usize) -> usize {
        self.blocks
            .iter()
            .filter(|blk| blk.succs.contains(&b))
            .count()
    }

    fn push_event(&mut self, cur: usize, ev: Event) {
        if matches!(ev, Event::BaseCall { .. }) {
            self.last_base_call = Some((cur, self.blocks[cur].events.len()));
        }
        self.blocks[cur].events.push(ev);
    }

    fn lower_block(&mut self, b: &Block, mut cur: usize) -> Option<usize> {
        for s in &b.stmts {
            match s {
                Stmt::Item => {}
                Stmt::Expr(e) => {
                    cur = self.lower_expr(e, cur)?;
                }
                Stmt::Let {
                    bindings,
                    init,
                    else_block,
                } => {
                    if let Some(init) = init {
                        let before = self.last_base_call;
                        cur = self.lower_expr(init, cur)?;
                        // Tag the init's base call (if any) with the
                        // bindings so the dataflow can link `result` in
                        // `if result { log_undo }` back to the mutation.
                        if self.last_base_call != before {
                            if let Some((blk, i)) = self.last_base_call {
                                if let Event::BaseCall { bindings: bs, .. } =
                                    &mut self.blocks[blk].events[i]
                                {
                                    bs.clone_from(bindings);
                                }
                            }
                        }
                    }
                    if let Some(eb) = else_block {
                        let neg = self.new_block(BlockKind::Normal);
                        self.blocks[neg].events.push(Event::LetElseNegative {
                            bindings: bindings.clone(),
                        });
                        self.edge(cur, neg);
                        if let Some(neg_end) = self.lower_block(eb, neg) {
                            // A let-else else-block must diverge; if the
                            // parser saw one that doesn't, route it to
                            // the exit rather than rejoining wrongly.
                            self.edge(neg_end, self.exit);
                        }
                        let cont = self.new_block(BlockKind::Normal);
                        self.edge(cur, cont);
                        cur = cont;
                    }
                }
            }
        }
        Some(cur)
    }

    /// Lower `e` starting in block `cur`; returns the block control
    /// falls out of, or `None` if every path diverges.
    #[allow(clippy::too_many_lines)]
    fn lower_expr(&mut self, e: &Expr, mut cur: usize) -> Option<usize> {
        match e {
            Expr::Lit | Expr::Macro | Expr::Path { .. } => Some(cur),
            Expr::Field { recv, .. } => self.lower_expr(recv, cur),
            Expr::Seq(es) => {
                for e in es {
                    cur = self.lower_expr(e, cur)?;
                }
                Some(cur)
            }
            Expr::Block(b) => self.lower_block(b, cur),
            Expr::Closure(body) => {
                // Closure bodies run later (or never): lower their
                // events inline but contain any divergence — a closure-
                // local `return` must not kill the enclosing flow.
                let entry = cur;
                match self.lower_expr(body, cur) {
                    Some(c) => Some(c),
                    None => {
                        let cont = self.new_block(BlockKind::Normal);
                        self.edge(entry, cont);
                        Some(cont)
                    }
                }
            }
            Expr::Return(inner) => {
                if let Some(inner) = inner {
                    cur = self.lower_expr(inner, cur)?;
                }
                self.edge(cur, self.exit);
                None
            }
            Expr::Break => {
                let target = self.loops.last().map_or(self.exit, |&(_, brk)| brk);
                self.edge(cur, target);
                None
            }
            Expr::Continue => {
                let target = self.loops.last().map_or(self.exit, |&(head, _)| head);
                self.edge(cur, target);
                None
            }
            Expr::Try(inner) => {
                cur = self.lower_expr(inner, cur)?;
                // Error path leaves the function; success continues.
                self.edge(cur, self.exit);
                let cont = self.new_block(BlockKind::Normal);
                self.edge(cur, cont);
                Some(cont)
            }
            Expr::If {
                cond_idents,
                cond,
                then_blk,
                else_expr,
            } => {
                cur = self.lower_expr(cond, cur)?;
                let join = self.new_block(BlockKind::CondJoin {
                    cond_idents: cond_idents.clone(),
                });
                let then_b = self.new_block(BlockKind::Normal);
                self.edge(cur, then_b);
                if let Some(t_end) = self.lower_block(then_blk, then_b) {
                    self.edge(t_end, join);
                }
                if let Some(else_expr) = else_expr {
                    let else_b = self.new_block(BlockKind::Normal);
                    self.edge(cur, else_b);
                    if let Some(e_end) = self.lower_expr(else_expr, else_b) {
                        self.edge(e_end, join);
                    }
                } else {
                    self.edge(cur, join);
                }
                (self.in_count(join) > 0).then_some(join)
            }
            Expr::Match {
                scrut_idents,
                scrutinee,
                arms,
            } => {
                cur = self.lower_expr(scrutinee, cur)?;
                let join = self.new_block(BlockKind::CondJoin {
                    cond_idents: scrut_idents.clone(),
                });
                for arm in arms {
                    let arm_b = self.new_block(BlockKind::Normal);
                    self.edge(cur, arm_b);
                    if let Some(a_end) = self.lower_expr(&arm.body, arm_b) {
                        self.edge(a_end, join);
                    }
                }
                (self.in_count(join) > 0).then_some(join)
            }
            Expr::Loop(body) => {
                let head = self.new_block(BlockKind::LoopHead);
                self.edge(cur, head);
                let brk = self.new_block(BlockKind::Normal);
                self.loops.push((head, brk));
                if let Some(b_end) = self.lower_block(body, head) {
                    self.edge(b_end, head);
                }
                self.loops.pop();
                (self.in_count(brk) > 0).then_some(brk)
            }
            Expr::While { cond, body } => {
                let head = self.new_block(BlockKind::LoopHead);
                self.edge(cur, head);
                let cond_end = self.lower_expr(cond, head)?;
                let brk = self.new_block(BlockKind::Normal);
                let body_b = self.new_block(BlockKind::Normal);
                self.edge(cond_end, body_b);
                self.edge(cond_end, brk);
                self.loops.push((head, brk));
                if let Some(b_end) = self.lower_block(body, body_b) {
                    self.edge(b_end, head);
                }
                self.loops.pop();
                Some(brk)
            }
            Expr::For { iter, body } => {
                cur = self.lower_expr(iter, cur)?;
                let head = self.new_block(BlockKind::LoopHead);
                self.edge(cur, head);
                let brk = self.new_block(BlockKind::Normal);
                let body_b = self.new_block(BlockKind::Normal);
                self.edge(head, body_b);
                self.edge(head, brk);
                self.loops.push((head, brk));
                if let Some(b_end) = self.lower_block(body, body_b) {
                    self.edge(b_end, head);
                }
                self.loops.pop();
                Some(brk)
            }
            Expr::Call { callee, args } => {
                cur = self.lower_expr(callee, cur)?;
                for a in args {
                    cur = self.lower_expr(a, cur)?;
                }
                self.classify_call(callee, args, cur);
                Some(cur)
            }
            Expr::MethodCall {
                recv,
                name,
                name_idx,
                args,
            } => {
                cur = self.lower_expr(recv, cur)?;
                if let Some(kinds) = self.handlers.get(name_idx).cloned() {
                    // Handler registration: the closure body is exempt
                    // from the method-body discipline — skip the args.
                    for kind in kinds {
                        self.push_event(
                            cur,
                            Event::Register {
                                kind,
                                idx: *name_idx,
                            },
                        );
                    }
                    return Some(cur);
                }
                for a in args {
                    cur = self.lower_expr(a, cur)?;
                }
                self.classify_method(recv, name, *name_idx, args, cur);
                Some(cur)
            }
        }
    }

    fn mentions_txn(&self, args: &[Expr]) -> bool {
        self.txn
            .as_deref()
            .is_some_and(|t| args.iter().any(|a| a.mentions(t)))
    }

    fn classify_method(&mut self, recv: &Expr, name: &str, idx: usize, args: &[Expr], cur: usize) {
        let recv_path = recv.path_text();
        // Base-object call (`self.base.<m>(..)`).
        if recv_path.as_deref() == Some("self.base") {
            self.push_event(
                cur,
                Event::BaseCall {
                    method: name.to_string(),
                    idx,
                    mutating: !BASE_READ_METHODS.contains(&name),
                    bindings: Vec::new(),
                },
            );
            return;
        }
        // Abstract-lock acquisition: an acquire-family method that is
        // handed the transaction. (`parking_lot`-style `x.lock()` with
        // no txn argument is a plain mutex, not an abstract lock.)
        if ACQUIRE_METHODS.contains(&name) && self.mentions_txn(args) {
            self.push_event(
                cur,
                Event::Acquire {
                    lock: recv_path.unwrap_or_else(|| "<expr>".to_string()),
                    idx,
                },
            );
            return;
        }
        // Explicit releases (strict two-phase violations if reachable).
        if name.starts_with("unlock") {
            self.push_event(
                cur,
                Event::Release {
                    idx,
                    message: format!(
                        "`.{name}()` is reachable before commit/abort — abstract locks are \
                         strict two-phase"
                    ),
                },
            );
            return;
        }
        if name == "release" {
            let last_seg = recv_path
                .as_deref()
                .and_then(|p| p.rsplit(['.', ':']).next())
                .unwrap_or("")
                .to_lowercase();
            if last_seg.contains("lock") {
                self.push_event(
                    cur,
                    Event::Release {
                        idx,
                        message: format!(
                            "`{}.release(..)` is reachable before commit/abort — abstract \
                             locks are strict two-phase",
                            recv_path.as_deref().unwrap_or("<expr>")
                        ),
                    },
                );
                return;
            }
        }
        // Same-file txn helper call (`self.helper(txn, ..)`).
        if recv_path.as_deref() == Some("self")
            && name != self.fn_name
            && self.local_txn_fns.contains(name)
            && self.mentions_txn(args)
        {
            self.push_event(
                cur,
                Event::Call {
                    callee: name.to_string(),
                    idx,
                },
            );
        }
    }

    fn classify_call(&mut self, callee: &Expr, args: &[Expr], cur: usize) {
        let Expr::Path { segs, idx } = callee else {
            return;
        };
        let last = segs.last().map(String::as_str).unwrap_or("");
        // `drop(<lock-ish binding>)` releases a guard early.
        if last == "drop" && args.len() == 1 {
            if let Some(arg) = args[0].path_text() {
                let lower = arg.to_lowercase();
                if !arg.contains('.') && (lower.contains("lock") || lower.contains("guard")) {
                    self.push_event(
                        cur,
                        Event::Release {
                            idx: *idx,
                            message: format!(
                                "`drop({arg})` releases a lock before commit/abort — abstract \
                                 locks are strict two-phase"
                            ),
                        },
                    );
                }
            }
            return;
        }
        // Free-function txn helper in the same file.
        if segs.len() == 1
            && last != self.fn_name
            && self.local_txn_fns.contains(last)
            && self.mentions_txn(args)
        {
            self.push_event(
                cur,
                Event::Call {
                    callee: last.to_string(),
                    idx: *idx,
                },
            );
        }
    }
}

/// Syntactic acquisition scan over a function body at the token level —
/// used for call summaries (the lock-order graph and rule 2's
/// interprocedural splice) without needing the callee to parse.
/// Returns `(receiver path, method-name token index)` pairs.
pub fn syntactic_acquires(fa: &FileAnalysis, f: &Function) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let Some((b0, b1)) = f.body else {
        return out;
    };
    let Some(txn) = fa.txn_param(f) else {
        return out;
    };
    for i in b0..=b1 {
        let is_acquire = i > b0
            && fa.is_punct(i - 1, ".")
            && fa.is_punct(i + 1, "(")
            && matches!(fa.tok(i), Some(t) if ACQUIRE_METHODS.contains(&t.text.as_str()))
            && !fa.in_handler(i);
        if !is_acquire {
            continue;
        }
        // The call must be handed the transaction.
        let close = fa.matching(i + 1);
        let has_txn = (i + 2..close).any(|j| fa.is_ident(j, &txn));
        if !has_txn {
            continue;
        }
        // Walk the dotted receiver path backwards.
        let mut segs = Vec::new();
        let mut j = i - 1; // the `.`
        while j >= 2 {
            let prev = j - 1;
            if matches!(fa.tok(prev), Some(t) if t.kind == crate::source::TokKind::Ident) {
                segs.push(fa.tokens[prev].text.clone());
                if prev >= 1 && fa.is_punct(prev - 1, ".") {
                    j = prev - 1;
                    continue;
                }
            }
            break;
        }
        segs.reverse();
        if segs.is_empty() {
            continue;
        }
        out.push((segs.join("."), i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_body;

    fn cfg_of(src: &str) -> (FileAnalysis, Cfg) {
        let fa = FileAnalysis::build("crates/boosted/src/x.rs", src);
        let f = fa.functions[0].clone();
        let body = parse_body(&fa, f.body.expect("body")).expect("parse");
        let locals: BTreeSet<String> = fa
            .functions
            .iter()
            .filter(|g| !g.in_test && g.body.is_some() && fa.txn_param(g).is_some())
            .map(|g| g.name.clone())
            .collect();
        let cfg = build_cfg(&fa, &f, &body, &locals);
        (fa, cfg)
    }

    fn all_events(cfg: &Cfg) -> Vec<String> {
        cfg.blocks
            .iter()
            .flat_map(|b| b.events.iter())
            .map(|e| match e {
                Event::Acquire { lock, .. } => format!("acquire:{lock}"),
                Event::BaseCall {
                    method, mutating, ..
                } => format!("base:{method}:{mutating}"),
                Event::Register { kind, .. } => format!("register:{kind:?}"),
                Event::Release { .. } => "release".to_string(),
                Event::Call { callee, .. } => format!("call:{callee}"),
                Event::LetElseNegative { .. } => "let-else-neg".to_string(),
            })
            .collect()
    }

    #[test]
    fn events_classify_acquire_base_register() {
        let (_, cfg) = cfg_of(
            "impl S { pub fn add(&self, txn: &Txn, k: u64) -> TxResult<()> {
                self.lock.lock(txn)?;
                self.base.add(k);
                txn.log_undo(move || {});
                self.inner.lock().push(k);
                Ok(())
            } }",
        );
        let evs = all_events(&cfg);
        assert!(evs.contains(&"acquire:self.lock".to_string()));
        assert!(evs.contains(&"base:add:true".to_string()));
        assert!(evs.contains(&"register:Undo".to_string()));
        // `self.inner.lock()` without the txn argument is not abstract.
        assert_eq!(evs.iter().filter(|e| e.starts_with("acquire")).count(), 1);
    }

    #[test]
    fn try_edges_to_exit_and_branches_join() {
        let (_, cfg) = cfg_of(
            "impl S { pub fn f(&self, txn: &Txn) -> TxResult<()> {
                self.lock.lock(txn)?;
                if txn.fast() { self.base.add(1); } else { self.base.remove(2); }
                Ok(())
            } }",
        );
        // There is an exit block with at least 2 predecessors (the `?`
        // error path and the final fall-through).
        let preds = cfg.preds();
        assert!(preds[cfg.exit].len() >= 2);
        assert!(cfg
            .blocks
            .iter()
            .any(|b| matches!(b.kind, BlockKind::CondJoin { .. })));
    }

    #[test]
    fn local_helper_calls_become_call_events() {
        let (_, cfg) = cfg_of(
            "impl S {
                pub fn f(&self, txn: &Txn) -> TxResult<()> {
                    self.helper(txn)?;
                    Ok(())
                }
                fn helper(&self, txn: &Txn) -> TxResult<()> {
                    self.lock.lock(txn)
                }
            }",
        );
        assert!(all_events(&cfg).contains(&"call:helper".to_string()));
    }

    #[test]
    fn syntactic_acquires_need_the_txn_argument() {
        let fa = FileAnalysis::build(
            "crates/boosted/src/x.rs",
            "impl S { fn helper(&self, txn: &Txn) -> TxResult<()> {
                self.locks.a.lock(txn)?;
                self.plain.lock();
                Ok(())
            } }",
        );
        let acq = syntactic_acquires(&fa, &fa.functions[0]);
        assert_eq!(acq.len(), 1);
        assert_eq!(acq[0].0, "self.locks.a");
    }
}
