//! A small, self-contained Rust lexer.
//!
//! The workspace vendors no external crates (`syn` included), so the
//! analyzer carries its own token scanner. It is deliberately lossy —
//! no expression trees, no type resolution — but it is *positionally
//! exact*: every token and comment keeps its 1-based line and column,
//! which is all the discipline rules need. Strings, raw strings, char
//! literals, lifetimes and nested block comments are handled so that
//! `unsafe` inside a string or a doc example never counts as code.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `unsafe`, `base`, ...).
    Ident,
    /// Single punctuation character (`.`, `{`, `(`, `!`, ...).
    Punct,
    /// String / char / numeric literal, collapsed to one token.
    Lit,
    /// Lifetime (`'a`) — kept distinct so `'` never opens a char literal
    /// scan by mistake.
    Lifetime,
}

/// One code token with its position.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text; literals keep their quotes.
    pub text: String,
    /// Lexeme class.
    pub kind: TokKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column of the first character.
    pub col: u32,
}

/// One comment (line or block) with its line. Doc comments are
/// comments too; rules distinguish them by prefix.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text *after* the `//` / `/*` opener (closing `*/`
    /// stripped for block comments).
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

struct Lexer<'a> {
    chars: std::str::Chars<'a>,
    /// Lookahead buffer (we need up to 3 chars of peek).
    buf: Vec<char>,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            chars: src.chars(),
            buf: Vec::new(),
            line: 1,
            col: 1,
        }
    }

    fn peek(&mut self, n: usize) -> Option<char> {
        while self.buf.len() <= n {
            let c = self.chars.next()?;
            self.buf.push(c);
        }
        self.buf.get(n).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = if self.buf.is_empty() {
            self.chars.next()?
        } else {
            self.buf.remove(0)
        };
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lex `src` into code tokens and comments.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Comment>) {
    let mut lx = Lexer::new(src);
    let mut toks: Vec<Token> = Vec::new();
    let mut comments: Vec<Comment> = Vec::new();

    while let Some(c) = lx.peek(0) {
        let (line, col) = (lx.line, lx.col);
        if c.is_whitespace() {
            lx.bump();
            continue;
        }
        // Comments.
        if c == '/' && lx.peek(1) == Some('/') {
            lx.bump();
            lx.bump();
            let mut text = String::new();
            while let Some(ch) = lx.peek(0) {
                if ch == '\n' {
                    break;
                }
                text.push(lx.bump().unwrap_or('\0'));
            }
            comments.push(Comment { text, line });
            continue;
        }
        if c == '/' && lx.peek(1) == Some('*') {
            lx.bump();
            lx.bump();
            let mut depth = 1usize;
            let mut text = String::new();
            while depth > 0 {
                match (lx.peek(0), lx.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        text.push(lx.bump().unwrap_or('\0'));
                        text.push(lx.bump().unwrap_or('\0'));
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        lx.bump();
                        lx.bump();
                        if depth > 0 {
                            text.push('*');
                            text.push('/');
                        }
                    }
                    (Some(_), _) => text.push(lx.bump().unwrap_or('\0')),
                    (None, _) => break, // unterminated; tolerate
                }
            }
            comments.push(Comment { text, line });
            continue;
        }
        // Raw strings: r"..." / r#"..."# / br"..." etc.
        if c == 'r' || (c == 'b' && lx.peek(1) == Some('r')) {
            let base = if c == 'b' { 2 } else { 1 };
            let mut hashes = 0usize;
            while lx.peek(base + hashes) == Some('#') {
                hashes += 1;
            }
            if lx.peek(base + hashes) == Some('"') {
                for _ in 0..=(base + hashes) {
                    lx.bump();
                }
                // Consume until `"` followed by `hashes` hash marks.
                loop {
                    match lx.bump() {
                        None => break,
                        Some('"') => {
                            let mut ok = true;
                            for k in 0..hashes {
                                if lx.peek(k) != Some('#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                for _ in 0..hashes {
                                    lx.bump();
                                }
                                break;
                            }
                        }
                        Some(_) => {}
                    }
                }
                toks.push(Token {
                    text: String::from("\"raw\""),
                    kind: TokKind::Lit,
                    line,
                    col,
                });
                continue;
            }
            // else: fall through to identifier handling below.
        }
        // Byte string b"..." / byte char b'…'.
        if c == 'b' && matches!(lx.peek(1), Some('"' | '\'')) {
            let quote = lx.peek(1).unwrap_or('"');
            lx.bump(); // b
            lx.bump(); // quote
            consume_quoted(&mut lx, quote);
            toks.push(Token {
                text: String::from("\"bytes\""),
                kind: TokKind::Lit,
                line,
                col,
            });
            continue;
        }
        // String literal.
        if c == '"' {
            lx.bump();
            consume_quoted(&mut lx, '"');
            toks.push(Token {
                text: String::from("\"str\""),
                kind: TokKind::Lit,
                line,
                col,
            });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let next = lx.peek(1);
            let after = lx.peek(2);
            let is_lifetime = matches!(next, Some(n) if is_ident_start(n)) && after != Some('\'');
            if is_lifetime {
                lx.bump(); // '
                let mut text = String::from("'");
                while let Some(ch) = lx.peek(0) {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(lx.bump().unwrap_or('\0'));
                }
                toks.push(Token {
                    text,
                    kind: TokKind::Lifetime,
                    line,
                    col,
                });
            } else {
                lx.bump();
                consume_quoted(&mut lx, '\'');
                toks.push(Token {
                    text: String::from("'c'"),
                    kind: TokKind::Lit,
                    line,
                    col,
                });
            }
            continue;
        }
        // Identifier / keyword (incl. raw identifiers r#ident handled
        // above only when followed by `"`; `r#type` lands here via 'r').
        if is_ident_start(c) {
            let mut text = String::new();
            text.push(lx.bump().unwrap_or('\0'));
            // Raw identifier r#name.
            if text == "r"
                && lx.peek(0) == Some('#')
                && matches!(lx.peek(1), Some(n) if is_ident_start(n))
            {
                lx.bump(); // #
                text.clear();
            }
            while let Some(ch) = lx.peek(0) {
                if !is_ident_continue(ch) {
                    break;
                }
                text.push(lx.bump().unwrap_or('\0'));
            }
            toks.push(Token {
                text,
                kind: TokKind::Ident,
                line,
                col,
            });
            continue;
        }
        // Number literal.
        if c.is_ascii_digit() {
            let mut text = String::new();
            while let Some(ch) = lx.peek(0) {
                let float_dot = ch == '.'
                    && matches!(lx.peek(1), Some(d) if d.is_ascii_digit())
                    && !text.contains('.');
                if ch.is_alphanumeric() || ch == '_' || float_dot {
                    text.push(lx.bump().unwrap_or('\0'));
                } else {
                    break;
                }
            }
            toks.push(Token {
                text,
                kind: TokKind::Lit,
                line,
                col,
            });
            continue;
        }
        // Single punctuation character.
        let ch = lx.bump().unwrap_or('\0');
        toks.push(Token {
            text: ch.to_string(),
            kind: TokKind::Punct,
            line,
            col,
        });
    }
    (toks, comments)
}

/// Consume a quoted literal body up to the closing `quote`, honouring
/// backslash escapes. The opening quote must already be consumed.
fn consume_quoted(lx: &mut Lexer<'_>, quote: char) {
    while let Some(ch) = lx.bump() {
        if ch == '\\' {
            lx.bump();
        } else if ch == quote {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).0.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_and_punct_with_positions() {
        let (toks, _) = lex("fn add(&self) {}\n  x.y");
        assert_eq!(toks[0].text, "fn");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        let x = toks.iter().find(|t| t.text == "x").unwrap();
        assert_eq!((x.line, x.col), (2, 3));
    }

    #[test]
    fn comments_are_kept_out_of_tokens() {
        let (toks, comments) = lex("a // SAFETY: fine\nb /* unsafe */ c");
        assert_eq!(
            toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert_eq!(comments.len(), 2);
        assert_eq!(comments[0].text.trim(), "SAFETY: fine");
        assert_eq!(comments[1].text.trim(), "unsafe");
    }

    #[test]
    fn strings_hide_their_contents() {
        assert_eq!(texts(r#"f("unsafe { }")"#), vec!["f", "(", "\"str\"", ")"]);
        assert_eq!(
            texts("g(r#\"drop(lock)\"#)"),
            vec!["g", "(", "\"raw\"", ")"]
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let t = texts("fn f<'a>(x: &'a str, c: char) { let y = 'z'; }");
        assert!(t.contains(&"'a".to_string()));
        assert!(t.contains(&"'c'".to_string()));
    }

    #[test]
    fn nested_block_comments_terminate() {
        let (toks, comments) = lex("a /* x /* y */ z */ b");
        assert_eq!(
            toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(comments.len(), 1);
    }

    #[test]
    fn numbers_including_floats_and_ranges() {
        assert_eq!(texts("1.5 + 0x1f_u32"), vec!["1.5", "+", "0x1f_u32"]);
        assert_eq!(texts("0..10"), vec!["0", ".", ".", "10"]);
    }
}
