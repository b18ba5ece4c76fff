//! Stage 1 of the CFG analyzer: a hand-rolled recursive-descent parser
//! producing a statement/expression AST for function bodies.
//!
//! The crate is dependency-free by policy (no `syn`), so this parser is
//! grown from the positionally-exact lexer in [`crate::source`]. It is
//! deliberately *not* a full Rust grammar: it covers the expression
//! language boosted methods are written in (`let`/`let-else`, `if`/
//! `if let`, `match` with guards, `loop`/`while`/`for`, `?`, method
//! chains, closures, macros-as-opaque-leaves, struct literals, casts)
//! and reports a [`ParseError`] on anything else. The engine turns that
//! into a `parse-failure` finding, so an exotic construct fails the lint
//! run instead of going unchecked.
//!
//! Every AST node that matters for diagnostics carries the *original*
//! token index from the lexer (not the cooked index), so downstream
//! passes can reuse `FileAnalysis` facilities (handler regions,
//! suppression target lines) unchanged.

use crate::analysis::FileAnalysis;
use crate::source::TokKind;

/// A cooked token: the lexer's single-character punctuation merged into
/// multi-character operators (`::`, `=>`, `->`, `..=`, `&&`, `==`, …)
/// by line/column adjacency. `lo` is the original token index of the
/// first constituent.
#[derive(Debug, Clone)]
pub struct PTok {
    pub text: String,
    pub kind: TokKind,
    pub lo: usize,
    pub line: u32,
}

/// Two-character operators the cooker merges (checked pairwise, so
/// `..=` forms from `..` + `=`).
const GLUED: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "..=", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=",
];

/// Merge adjacent punctuation tokens in `[lo, hi]` into operators.
/// Shift operators are intentionally *not* merged: `>` must stay a
/// single token so generic-argument lists stay balanced.
pub fn cook(fa: &FileAnalysis, lo: usize, hi: usize) -> Vec<PTok> {
    let mut out: Vec<PTok> = Vec::with_capacity(hi.saturating_sub(lo) + 1);
    for i in lo..=hi.min(fa.tokens.len().saturating_sub(1)) {
        let t = &fa.tokens[i];
        if t.kind == TokKind::Punct {
            if let Some(prev) = out.last_mut() {
                if prev.kind == TokKind::Punct {
                    // Constituents of a glued punct are 1-char ASCII, so
                    // the last one sits at `prev.lo + len - 1` in the
                    // original stream. Positional adjacency: same line,
                    // columns touching.
                    let last_idx = prev.lo + prev.text.len() - 1;
                    let adjacent = fa
                        .tokens
                        .get(last_idx)
                        .is_some_and(|pt| pt.line == t.line && pt.col + 1 == t.col);
                    let glued = format!("{}{}", prev.text, t.text);
                    if adjacent && GLUED.contains(&glued.as_str()) {
                        prev.text = glued;
                        continue;
                    }
                }
            }
        }
        out.push(PTok {
            text: t.text.clone(),
            kind: t.kind,
            lo: i,
            line: t.line,
        });
    }
    out
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// One statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `let PAT = init;` / `let PAT = init else { .. };` / `let PAT;`
    Let {
        /// Lower-case identifiers bound by the pattern (heuristic:
        /// bindings are snake_case, enum constructors are CamelCase).
        bindings: Vec<String>,
        init: Option<Expr>,
        else_block: Option<Block>,
    },
    /// An expression statement (with or without trailing `;`).
    Expr(Expr),
    /// A nested item (fn/struct/use/…), opaque to the dataflow.
    Item,
}

/// One match arm (the pattern is reduced to its identifiers; guard
/// tokens are folded into the pattern scan).
#[derive(Debug, Clone)]
pub struct Arm {
    pub body: Expr,
}

/// One expression. Evaluation-order information is preserved (receiver
/// before arguments, operands left to right); types, paths and
/// patterns are reduced to what the dataflow needs.
#[derive(Debug, Clone)]
pub enum Expr {
    If {
        /// Identifiers in the condition (for `if let`, the scrutinee).
        cond_idents: Vec<String>,
        cond: Box<Expr>,
        then_blk: Block,
        /// `else { .. }` (as `Expr::Block`) or `else if ..`.
        else_expr: Option<Box<Expr>>,
    },
    Match {
        scrut_idents: Vec<String>,
        scrutinee: Box<Expr>,
        arms: Vec<Arm>,
    },
    Loop(Block),
    While {
        cond: Box<Expr>,
        body: Block,
    },
    For {
        iter: Box<Expr>,
        body: Block,
    },
    Return(Option<Box<Expr>>),
    Break,
    Continue,
    /// `inner?` — a fallible early exit.
    Try(Box<Expr>),
    MethodCall {
        recv: Box<Expr>,
        name: String,
        /// Original token index of the method name.
        name_idx: usize,
        args: Vec<Expr>,
    },
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
    },
    Field {
        recv: Box<Expr>,
        name: String,
    },
    Path {
        segs: Vec<String>,
        /// Original token index of the first segment.
        idx: usize,
    },
    Lit,
    /// A macro invocation, opaque.
    Macro,
    Closure(Box<Expr>),
    Block(Block),
    /// Operand sequences evaluated in order: binary chains, tuples,
    /// arrays, struct-literal fields, index expressions.
    Seq(Vec<Expr>),
}

impl Expr {
    /// The dotted path text if this is a plain path / field chain
    /// (`self.base`, `map`), else `None`.
    pub fn path_text(&self) -> Option<String> {
        match self {
            Expr::Path { segs, .. } => Some(segs.join("::")),
            Expr::Field { recv, name } => Some(format!("{}.{name}", recv.path_text()?)),
            _ => None,
        }
    }

    /// Whether the expression mentions `ident` anywhere (used to link a
    /// branch condition to a mutation's result binding, and to find the
    /// `txn` argument of acquire calls).
    pub fn mentions(&self, ident: &str) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Path { segs, .. } = e {
                if segs.iter().any(|s| s == ident) {
                    found = true;
                }
            }
        });
        found
    }

    /// Pre-order traversal over this expression and its children.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::If {
                cond,
                then_blk,
                else_expr,
                ..
            } => {
                cond.walk(f);
                walk_block(then_blk, f);
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                scrutinee.walk(f);
                for a in arms {
                    a.body.walk(f);
                }
            }
            Expr::Loop(b) | Expr::Block(b) => walk_block(b, f),
            Expr::While { cond, body } => {
                cond.walk(f);
                walk_block(body, f);
            }
            Expr::For { iter, body } => {
                iter.walk(f);
                walk_block(body, f);
            }
            Expr::Return(Some(e)) | Expr::Try(e) | Expr::Closure(e) => e.walk(f),
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Call { callee, args } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Field { recv, .. } => recv.walk(f),
            Expr::Seq(es) => {
                for e in es {
                    e.walk(f);
                }
            }
            Expr::Return(None)
            | Expr::Break
            | Expr::Continue
            | Expr::Path { .. }
            | Expr::Lit
            | Expr::Macro => {}
        }
    }
}

fn walk_block(b: &Block, f: &mut impl FnMut(&Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    e.walk(f);
                }
            }
            Stmt::Expr(e) => e.walk(f),
            Stmt::Item => {}
        }
    }
}

/// A parse failure: reported as a `parse-failure` finding.
#[derive(Debug, Clone)]
pub struct ParseError {
    pub line: u32,
    pub what: String,
}

/// Parse the body `{ ... }` of `f` (token range from
/// [`crate::analysis::Function::body`]) into a [`Block`].
pub fn parse_body(fa: &FileAnalysis, body: (usize, usize)) -> Result<Block, ParseError> {
    let toks = cook(fa, body.0, body.1);
    let mut p = Parser {
        toks,
        pos: 0,
        fuel: 100_000,
    };
    let blk = p.parse_block()?;
    Ok(blk)
}

struct Parser {
    toks: Vec<PTok>,
    pos: usize,
    /// Decremented on every expression; guards against non-termination
    /// on pathological input (a parse error beats an infinite loop).
    fuel: u32,
}

const BIN_OPS: &[&str] = &[
    "+", "-", "*", "/", "%", "^", "&", "|", "&&", "||", "==", "!=", "<", ">", "<=", ">=", "=",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "..", "..=",
];

/// Item-introducing keywords at statement position.
const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "impl",
    "mod",
    "use",
    "const",
    "static",
    "type",
    "trait",
    "macro_rules",
];

fn is_binding_ident(s: &str) -> bool {
    let lower_start = s
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '_');
    lower_start && !matches!(s, "mut" | "ref" | "box" | "move" | "_")
}

impl Parser {
    fn peek(&self) -> Option<&PTok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&PTok> {
        self.toks.get(self.pos + off)
    }

    fn at(&self, s: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokKind::Punct && t.text == s)
    }

    fn at_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(t) if t.kind == TokKind::Ident && t.text == s)
    }

    fn bump(&mut self) -> Result<PTok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.err("unexpected end of body"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.at(s) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{s}`")))
        }
    }

    fn err(&self, what: &str) -> ParseError {
        let (line, found) = self
            .peek()
            .map_or((0, "<eof>".to_string()), |t| (t.line, t.text.clone()));
        ParseError {
            line,
            what: format!("{what}, found `{found}`"),
        }
    }

    /// Collect identifier texts in the cooked-token range `[a, b)`.
    fn idents_between(&self, a: usize, b: usize) -> Vec<String> {
        self.toks[a..b.min(self.toks.len())]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    }

    fn skip_attrs(&mut self) -> Result<(), ParseError> {
        while self.at("#") {
            self.pos += 1;
            if self.at("!") {
                self.pos += 1;
            }
            if self.at("[") {
                self.skip_balanced("[", "]")?;
            } else {
                return Err(self.err("expected `[` after `#`"));
            }
        }
        Ok(())
    }

    fn skip_balanced(&mut self, open: &str, close: &str) -> Result<(), ParseError> {
        self.expect(open)?;
        let mut depth = 1usize;
        while depth > 0 {
            let t = self.bump()?;
            if t.kind == TokKind::Punct {
                if t.text == open {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                }
            }
        }
        Ok(())
    }

    fn parse_block(&mut self) -> Result<Block, ParseError> {
        self.expect("{")?;
        let mut stmts = Vec::new();
        while !self.at("}") {
            if self.peek().is_none() {
                return Err(self.err("unclosed block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect("}")?;
        Ok(Block { stmts })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.skip_attrs()?;
        if self.at(";") {
            self.pos += 1;
            return Ok(Stmt::Item);
        }
        if self.at_ident("let") {
            return self.parse_let();
        }
        // Nested items are opaque: skip to the end of the item.
        let at_item = self
            .peek()
            .is_some_and(|t| t.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()))
            || (self.at_ident("pub")
                && self
                    .peek_at(1)
                    .is_some_and(|t| ITEM_KEYWORDS.contains(&t.text.as_str())));
        if at_item {
            self.skip_item()?;
            return Ok(Stmt::Item);
        }
        let e = self.parse_expr(false)?;
        if self.at(";") {
            self.pos += 1;
        }
        Ok(Stmt::Expr(e))
    }

    /// Consume a nested item: everything to the first top-level `;` or
    /// through the first top-level brace group.
    fn skip_item(&mut self) -> Result<(), ParseError> {
        loop {
            if self.at(";") {
                self.pos += 1;
                return Ok(());
            }
            if self.at("{") {
                self.skip_balanced("{", "}")?;
                return Ok(());
            }
            if self.at("(") {
                self.skip_balanced("(", ")")?;
                continue;
            }
            if self.at("[") {
                self.skip_balanced("[", "]")?;
                continue;
            }
            self.bump()?;
        }
    }

    fn parse_let(&mut self) -> Result<Stmt, ParseError> {
        self.bump()?; // `let`
        let (bindings, _) = self.scan_pattern(&["=", ";"], &[])?;
        let mut init = None;
        let mut else_block = None;
        if self.at("=") {
            self.pos += 1;
            init = Some(self.parse_expr(false)?);
            if self.at_ident("else") {
                self.pos += 1;
                else_block = Some(self.parse_block()?);
            }
        }
        self.expect(";")?;
        Ok(Stmt::Let {
            bindings,
            init,
            else_block,
        })
    }

    /// Consume pattern tokens until a stop punct/ident at bracket depth
    /// zero. Returns (binding identifiers, all identifiers). The type
    /// ascription of `let x: T = ..` is folded into the scan.
    fn scan_pattern(
        &mut self,
        stop_puncts: &[&str],
        stop_idents: &[&str],
    ) -> Result<(Vec<String>, Vec<String>), ParseError> {
        let mut bindings = Vec::new();
        let mut idents = Vec::new();
        let mut depth = 0usize;
        let mut in_type = false; // after a depth-0 `:`
        loop {
            let Some(t) = self.peek() else {
                return Err(self.err("unterminated pattern"));
            };
            if depth == 0 {
                if t.kind == TokKind::Punct && stop_puncts.contains(&t.text.as_str()) {
                    return Ok((bindings, idents));
                }
                if t.kind == TokKind::Ident && stop_idents.contains(&t.text.as_str()) {
                    return Ok((bindings, idents));
                }
                if t.kind == TokKind::Punct && t.text == ":" {
                    in_type = true;
                }
            }
            match t.kind {
                TokKind::Punct => match t.text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                    _ => {}
                },
                TokKind::Ident if !in_type => {
                    idents.push(t.text.clone());
                    if is_binding_ident(&t.text) {
                        bindings.push(t.text.clone());
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    fn parse_expr(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        self.fuel = self
            .fuel
            .checked_sub(1)
            .ok_or_else(|| self.err("expression too complex"))?;
        let first = self.parse_prefix(no_struct)?;
        let mut chain = vec![first];
        loop {
            if self.at_ident("as") {
                self.pos += 1;
                self.scan_type()?;
                continue;
            }
            let is_bin = self
                .peek()
                .is_some_and(|t| t.kind == TokKind::Punct && BIN_OPS.contains(&t.text.as_str()));
            if !is_bin {
                break;
            }
            let op = self.bump()?;
            // `..` / `..=` may be a trailing open range (`&v[1..]`).
            if (op.text == ".." || op.text == "..=") && self.range_rhs_absent() {
                chain.push(Expr::Lit);
                continue;
            }
            chain.push(self.parse_prefix(no_struct)?);
        }
        Ok(if chain.len() == 1 {
            chain.pop().expect("nonempty")
        } else {
            Expr::Seq(chain)
        })
    }

    fn range_rhs_absent(&self) -> bool {
        self.peek().is_none_or(|t| {
            t.kind == TokKind::Punct && matches!(t.text.as_str(), ")" | "]" | "}" | "," | ";")
        })
    }

    fn parse_prefix(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        // Prefix operators.
        if self.at("&") || self.at("&&") || self.at("*") || self.at("-") || self.at("!") {
            self.pos += 1;
            if self.at_ident("mut") {
                self.pos += 1;
            }
            return self.parse_prefix(no_struct);
        }
        // Closures: `|..| body`, `|| body`, `move |..| body`.
        if self.at_ident("move")
            && (self
                .peek_at(1)
                .is_some_and(|t| t.text == "|" || t.text == "||"))
        {
            self.pos += 1;
        }
        if self.at("||") {
            self.pos += 1;
            return self.parse_closure_tail();
        }
        if self.at("|") {
            self.pos += 1;
            let mut depth = 0usize;
            loop {
                let Some(t) = self.peek() else {
                    return Err(self.err("unterminated closure parameters"));
                };
                if depth == 0 && t.text == "|" && t.kind == TokKind::Punct {
                    break;
                }
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "<" => depth += 1,
                        ")" | "]" | ">" => depth = depth.saturating_sub(1),
                        _ => {}
                    }
                }
                self.pos += 1;
            }
            self.expect("|")?;
            return self.parse_closure_tail();
        }
        let prim = self.parse_primary(no_struct)?;
        self.parse_postfix(prim)
    }

    fn parse_closure_tail(&mut self) -> Result<Expr, ParseError> {
        if self.at("->") {
            self.pos += 1;
            self.scan_type()?;
        }
        Ok(Expr::Closure(Box::new(self.parse_expr(false)?)))
    }

    #[allow(clippy::too_many_lines)]
    fn parse_primary(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let Some(t) = self.peek().cloned() else {
            return Err(self.err("expected expression"));
        };
        // Loop labels: `'outer: loop { .. }`.
        if t.kind == TokKind::Lifetime {
            self.pos += 1;
            self.expect(":")?;
            return self.parse_primary(no_struct);
        }
        if t.kind == TokKind::Lit {
            self.pos += 1;
            return Ok(Expr::Lit);
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => return Ok(Expr::Block(self.parse_block()?)),
                "(" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    while !self.at(")") {
                        items.push(self.parse_expr(false)?);
                        if self.at(",") {
                            self.pos += 1;
                        }
                    }
                    self.expect(")")?;
                    return Ok(Expr::Seq(items));
                }
                "[" => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    while !self.at("]") {
                        items.push(self.parse_expr(false)?);
                        if self.at(",") || self.at(";") {
                            self.pos += 1;
                        }
                    }
                    self.expect("]")?;
                    return Ok(Expr::Seq(items));
                }
                ".." | "..=" => {
                    self.pos += 1;
                    if self.range_rhs_absent() {
                        return Ok(Expr::Lit);
                    }
                    return self.parse_prefix(no_struct);
                }
                _ => return Err(self.err("unexpected token in expression")),
            }
        }
        // Keyword expressions.
        match t.text.as_str() {
            "if" => {
                self.pos += 1;
                if self.at_ident("let") {
                    self.pos += 1;
                    self.scan_pattern(&["="], &[])?;
                    self.expect("=")?;
                }
                let c0 = self.pos;
                let cond = self.parse_expr(true)?;
                let cond_idents = self.idents_between(c0, self.pos);
                let then_blk = self.parse_block()?;
                let else_expr = if self.at_ident("else") {
                    self.pos += 1;
                    Some(Box::new(if self.at_ident("if") {
                        self.parse_primary(false)?
                    } else {
                        Expr::Block(self.parse_block()?)
                    }))
                } else {
                    None
                };
                Ok(Expr::If {
                    cond_idents,
                    cond: Box::new(cond),
                    then_blk,
                    else_expr,
                })
            }
            "match" => {
                self.pos += 1;
                let s0 = self.pos;
                let scrutinee = self.parse_expr(true)?;
                let scrut_idents = self.idents_between(s0, self.pos);
                self.expect("{")?;
                let mut arms = Vec::new();
                while !self.at("}") {
                    self.skip_attrs()?;
                    self.scan_pattern(&["=>"], &[])?;
                    self.expect("=>")?;
                    let body = self.parse_expr(false)?;
                    if self.at(",") {
                        self.pos += 1;
                    }
                    arms.push(Arm { body });
                }
                self.expect("}")?;
                Ok(Expr::Match {
                    scrut_idents,
                    scrutinee: Box::new(scrutinee),
                    arms,
                })
            }
            "loop" => {
                self.pos += 1;
                Ok(Expr::Loop(self.parse_block()?))
            }
            "while" => {
                self.pos += 1;
                if self.at_ident("let") {
                    self.pos += 1;
                    self.scan_pattern(&["="], &[])?;
                    self.expect("=")?;
                }
                let cond = self.parse_expr(true)?;
                let body = self.parse_block()?;
                Ok(Expr::While {
                    cond: Box::new(cond),
                    body,
                })
            }
            "for" => {
                self.pos += 1;
                self.scan_pattern(&[], &["in"])?;
                if !self.at_ident("in") {
                    return Err(self.err("expected `in`"));
                }
                self.pos += 1;
                let iter = self.parse_expr(true)?;
                let body = self.parse_block()?;
                Ok(Expr::For {
                    iter: Box::new(iter),
                    body,
                })
            }
            "return" => {
                self.pos += 1;
                if self.value_absent() {
                    Ok(Expr::Return(None))
                } else {
                    Ok(Expr::Return(Some(Box::new(self.parse_expr(false)?))))
                }
            }
            "break" => {
                self.pos += 1;
                if matches!(self.peek(), Some(t) if t.kind == TokKind::Lifetime) {
                    self.pos += 1;
                }
                if !self.value_absent() {
                    // Break-with-value: evaluate, then break.
                    let v = self.parse_expr(false)?;
                    return Ok(Expr::Seq(vec![v, Expr::Break]));
                }
                Ok(Expr::Break)
            }
            "continue" => {
                self.pos += 1;
                if matches!(self.peek(), Some(t) if t.kind == TokKind::Lifetime) {
                    self.pos += 1;
                }
                Ok(Expr::Continue)
            }
            "unsafe" | "async" if self.peek_at(1).is_some_and(|n| n.text == "{") => {
                self.pos += 1;
                Ok(Expr::Block(self.parse_block()?))
            }
            _ => self.parse_path_expr(no_struct),
        }
    }

    fn value_absent(&self) -> bool {
        self.peek().is_none_or(|t| {
            t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "}" | ")" | "," | "]")
        })
    }

    /// A path (`a::b::<T>::c`, `$name`), optionally continued as a
    /// macro invocation or a struct literal.
    fn parse_path_expr(&mut self, no_struct: bool) -> Result<Expr, ParseError> {
        let idx = self.peek().map_or(0, |t| t.lo);
        let mut segs = Vec::new();
        loop {
            if self.at("$") {
                self.pos += 1;
                let t = self.bump()?;
                segs.push(format!("${}", t.text));
            } else if matches!(self.peek(), Some(t) if t.kind == TokKind::Ident) {
                segs.push(self.bump()?.text);
            } else {
                return Err(self.err("expected identifier"));
            }
            if self.at("::") {
                self.pos += 1;
                if self.at("<") {
                    self.skip_generic_args()?;
                    if self.at("::") {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        // Macro invocation: `path!(..)` / `path![..]` / `path!{..}`.
        if self.at("!") {
            self.pos += 1;
            if self.at("(") {
                self.skip_balanced("(", ")")?;
            } else if self.at("[") {
                self.skip_balanced("[", "]")?;
            } else if self.at("{") {
                self.skip_balanced("{", "}")?;
            } else {
                return Err(self.err("expected macro delimiter"));
            }
            return Ok(Expr::Macro);
        }
        // Struct literal: `Path { field: expr, .. }`.
        if self.at("{") && !no_struct {
            self.pos += 1;
            let mut fields = Vec::new();
            while !self.at("}") {
                self.skip_attrs()?;
                if self.at("..") {
                    self.pos += 1;
                    if !self.at("}") {
                        fields.push(self.parse_expr(false)?);
                    }
                    continue;
                }
                // `name: expr` or shorthand `name`.
                let _ = self.bump()?;
                if self.at(":") {
                    self.pos += 1;
                    fields.push(self.parse_expr(false)?);
                }
                if self.at(",") {
                    self.pos += 1;
                }
            }
            self.expect("}")?;
            return Ok(Expr::Seq(fields));
        }
        Ok(Expr::Path { segs, idx })
    }

    fn skip_generic_args(&mut self) -> Result<(), ParseError> {
        self.expect("<")?;
        let mut depth = 1usize;
        while depth > 0 {
            let t = self.bump()?;
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    "(" => {
                        // `Fn(..)` sugar inside generic args.
                        let mut d = 1usize;
                        while d > 0 {
                            let u = self.bump()?;
                            if u.kind == TokKind::Punct {
                                match u.text.as_str() {
                                    "(" => d += 1,
                                    ")" => d -= 1,
                                    _ => {}
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Consume a type after `as`, `->`, or in a closure signature.
    fn scan_type(&mut self) -> Result<(), ParseError> {
        // `seen_atom` distinguishes type-prefix sigils from binary
        // operators that follow a complete cast: in `id as u64 * 2` the
        // `*` multiplies, in `p as *const u8` it makes a raw pointer.
        let mut seen_atom = false;
        loop {
            let Some(t) = self.peek() else { return Ok(()) };
            match t.kind {
                TokKind::Ident
                    if matches!(t.text.as_str(), "dyn" | "impl" | "mut" | "const" | "fn") =>
                {
                    self.pos += 1;
                }
                TokKind::Ident if !matches!(t.text.as_str(), "else" | "as" | "in") => {
                    if seen_atom {
                        return Ok(());
                    }
                    seen_atom = true;
                    self.pos += 1;
                }
                TokKind::Lifetime => self.pos += 1,
                TokKind::Punct => match t.text.as_str() {
                    "::" => {
                        seen_atom = false;
                        self.pos += 1;
                    }
                    "*" if self
                        .peek_at(1)
                        .is_some_and(|n| n.text == "const" || n.text == "mut") =>
                    {
                        self.pos += 1;
                    }
                    "&" | "&&" if !seen_atom => self.pos += 1,
                    "->" | "!" => self.pos += 1,
                    "<" => {
                        self.skip_generic_args()?;
                        seen_atom = true;
                    }
                    "(" => {
                        self.skip_balanced("(", ")")?;
                        seen_atom = true;
                    }
                    "[" => {
                        self.skip_balanced("[", "]")?;
                        seen_atom = true;
                    }
                    _ => return Ok(()),
                },
                _ => return Ok(()),
            }
        }
    }

    fn parse_postfix(&mut self, mut e: Expr) -> Result<Expr, ParseError> {
        loop {
            if self.at("?") {
                self.pos += 1;
                e = Expr::Try(Box::new(e));
                continue;
            }
            if self.at("(") {
                self.pos += 1;
                let mut args = Vec::new();
                while !self.at(")") {
                    args.push(self.parse_expr(false)?);
                    if self.at(",") {
                        self.pos += 1;
                    }
                }
                self.expect(")")?;
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                };
                continue;
            }
            if self.at("[") {
                self.pos += 1;
                let mut items = vec![e];
                while !self.at("]") {
                    items.push(self.parse_expr(false)?);
                    if self.at(",") {
                        self.pos += 1;
                    }
                }
                self.expect("]")?;
                e = Expr::Seq(items);
                continue;
            }
            if self.at(".") {
                self.pos += 1;
                let t = self.bump()?;
                match t.kind {
                    TokKind::Lit => {
                        // Tuple index `.0`.
                        e = Expr::Field {
                            recv: Box::new(e),
                            name: t.text,
                        };
                    }
                    TokKind::Ident if t.text == "await" => {}
                    TokKind::Ident => {
                        // Optional turbofish between name and args.
                        if self.at("::") {
                            self.pos += 1;
                            self.skip_generic_args()?;
                        }
                        if self.at("(") {
                            self.pos += 1;
                            let mut args = Vec::new();
                            while !self.at(")") {
                                args.push(self.parse_expr(false)?);
                                if self.at(",") {
                                    self.pos += 1;
                                }
                            }
                            self.expect(")")?;
                            e = Expr::MethodCall {
                                recv: Box::new(e),
                                name: t.text,
                                name_idx: t.lo,
                                args,
                            };
                        } else {
                            e = Expr::Field {
                                recv: Box::new(e),
                                name: t.text,
                            };
                        }
                    }
                    _ => return Err(self.err("expected field or method name after `.`")),
                }
                continue;
            }
            return Ok(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Result<Block, ParseError> {
        let full = format!("fn f(&self, txn: &Txn) -> TxResult<()> {src}");
        let fa = FileAnalysis::build("crates/boosted/src/x.rs", &full);
        let body = fa.functions[0].body.expect("body");
        parse_body(&fa, body)
    }

    #[test]
    fn parses_lock_mutate_log_shape() {
        let b = parse(
            "{
                self.lock.lock(txn)?;
                let result = self.base.add(key.clone());
                if result {
                    let base = Arc::clone(&self.base);
                    txn.log_undo(move || { base.remove(&key); });
                }
                Ok(result)
            }",
        )
        .expect("parse");
        assert_eq!(b.stmts.len(), 4);
        let Stmt::Let { bindings, init, .. } = &b.stmts[1] else {
            panic!("expected let");
        };
        assert_eq!(bindings, &["result".to_string()]);
        assert!(matches!(init, Some(Expr::MethodCall { name, .. }) if name == "add"));
    }

    #[test]
    fn parses_let_else_loop_match_and_guards() {
        let b = parse(
            "{
                loop {
                    let Some(holder) = self.base.remove_min() else {
                        return Ok(None);
                    };
                    match self.base.min() {
                        None => return Ok(None),
                        Some(h) if h.deleted.load(Ordering::Acquire) => {
                            let popped = self.base.remove_min().expect(\"emptied\");
                            debug_assert!(popped.deleted.load(Ordering::Acquire));
                        }
                        Some(h) => return Ok(Some(h.key.clone())),
                    }
                    if holder.deleted.load(Ordering::Acquire) {
                        continue;
                    }
                    return Ok(None);
                }
            }",
        )
        .expect("parse");
        assert_eq!(b.stmts.len(), 1);
    }

    #[test]
    fn parses_postfix_on_match_and_casts() {
        parse(
            "{
                let id = match self.policy {
                    ReleasePolicy::Leak => None,
                    ReleasePolicy::Recycle => self.pool.released.lock().pop(),
                }
                .unwrap_or_else(|| self.counter.get_and_add(1));
                let wide = id as u64 * 2;
                Ok(wide)
            }",
        )
        .expect("parse");
    }

    #[test]
    fn cond_idents_link_bindings_to_branches() {
        let b = parse(
            "{
                let removed = self.base.remove(key);
                if let Some(old) = removed.clone() {
                    txn.log_undo(move || { base.insert(k, old); });
                }
                Ok(removed)
            }",
        )
        .expect("parse");
        let Stmt::Expr(Expr::If { cond_idents, .. }) = &b.stmts[1] else {
            panic!("expected if");
        };
        assert!(cond_idents.contains(&"removed".to_string()));
    }

    #[test]
    fn name_idx_is_an_original_token_index() {
        let src = "fn f(&self, txn: &Txn) { self.base.add(k); }";
        let fa = FileAnalysis::build("crates/boosted/src/x.rs", src);
        let b = parse_body(&fa, fa.functions[0].body.unwrap()).expect("parse");
        let Stmt::Expr(Expr::MethodCall { name_idx, name, .. }) = &b.stmts[0] else {
            panic!("expected method call");
        };
        assert_eq!(name, "add");
        assert_eq!(fa.tokens[*name_idx].text, "add");
    }

    #[test]
    fn unknown_syntax_is_an_error_not_a_hang() {
        assert!(parse("{ let x = a << 3; x }").is_err());
    }
}
