//! A lightweight Rust lexer.
//!
//! Produces a flat token stream with 1-based line/column spans, plus the
//! comment list (comments carry the `lint:allow` suppressions). This is
//! *not* a full Rust parser: the rules operate on token patterns, which
//! is exactly the right altitude for workspace-specific invariants —
//! precise enough for `file:line:col` diagnostics, simple enough to
//! stay dependency-free and fast over the whole workspace.
//!
//! Handled faithfully (because getting them wrong corrupts every span
//! after the first occurrence): line and nested block comments, string
//! escapes, raw strings (`r#"…"#`), byte and raw-byte strings, raw
//! identifiers (`r#fn`), char-literal vs. lifetime disambiguation,
//! numeric literals with underscores/exponents/suffixes, and the
//! multi-character operators (`==`, `!=`, `::`, `->`, …).

use std::fmt;

/// Token classification — only as fine-grained as the rules need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are not distinguished).
    Ident,
    /// Integer literal (any base, with or without suffix).
    Int,
    /// Float literal (decimal point, exponent, or f32/f64 suffix).
    Float,
    /// String literal of any flavour (plain, raw, byte).
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Punctuation / operator, possibly multi-character.
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token's source text (string literals keep their quotes).
    pub text: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.text, self.line, self.col)
    }
}

/// A comment (line or block) with its source position.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including the `//` / `/*` markers.
    pub text: String,
    /// 1-based line where the comment starts.
    pub line: u32,
    /// 1-based column where the comment starts.
    pub col: u32,
}

/// The full lexer output for one file.
#[derive(Debug, Default)]
pub struct LexOutput {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Token>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

/// Lex a source file. Never fails: unterminated constructs are consumed
/// to end-of-file (the compiler rejects such files long before the
/// linter sees them in practice).
pub fn lex(src: &str) -> LexOutput {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
    out: LexOutput,
}

impl Lexer {
    fn new(src: &str) -> Self {
        Self {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
            out: LexOutput::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    /// Consume one character, tracking line/column.
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> LexOutput {
        while let Some(c) = self.peek(0) {
            let (line, col) = (self.line, self.col);
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line, col),
                '/' if self.peek(1) == Some('*') => self.block_comment(line, col),
                '"' => self.string(line, col, String::new()),
                '\'' => self.char_or_lifetime(line, col),
                _ if c.is_ascii_digit() => self.number(line, col),
                _ if is_ident_start(c) => self.ident_or_prefixed(line, col),
                _ => self.punct(line, col),
            }
        }
        self.out
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32, col: u32) {
        self.out.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn line_comment(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { text, line, col });
    }

    fn block_comment(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment { text, line, col });
    }

    /// A plain (escaped) string literal; `prefix` carries `b` etc.
    fn string(&mut self, line: u32, col: u32, prefix: String) {
        let mut text = prefix;
        text.push('"');
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            text.push(c);
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// A raw string literal starting at the current `#` or `"`;
    /// `prefix` carries the already-consumed `r` / `br`.
    fn raw_string(&mut self, line: u32, col: u32, prefix: String) {
        let mut text = prefix;
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            text.push('#');
            self.bump();
        }
        if self.peek(0) == Some('"') {
            text.push('"');
            self.bump();
            'body: while let Some(c) = self.bump() {
                text.push(c);
                if c == '"' {
                    // Need `hashes` trailing #s to close.
                    for k in 0..hashes {
                        if self.peek(k) != Some('#') {
                            continue 'body;
                        }
                    }
                    for _ in 0..hashes {
                        text.push('#');
                        self.bump();
                    }
                    break;
                }
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    fn char_or_lifetime(&mut self, line: u32, col: u32) {
        // Disambiguation: '\…' and 'x' (any single char followed by a
        // closing quote) are char literals; otherwise it's a lifetime.
        let next = self.peek(1);
        let is_char = match next {
            Some('\\') => true,
            Some(_) => self.peek(2) == Some('\''),
            None => false,
        };
        if is_char {
            let mut text = String::new();
            text.push('\'');
            self.bump();
            while let Some(c) = self.bump() {
                text.push(c);
                match c {
                    '\\' => {
                        if let Some(esc) = self.bump() {
                            text.push(esc);
                        }
                    }
                    '\'' => break,
                    _ => {}
                }
            }
            self.push(TokenKind::Char, text, line, col);
        } else {
            let mut text = String::from('\'');
            self.bump();
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line, col);
        }
    }

    fn number(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        let mut float = false;
        // After a `.` the digits are a tuple field: `t.0.1` is `t` `.`
        // `0` `.` `1`, never the float `0.1`.
        if self.out.tokens.last().is_some_and(|t| t.is_punct(".")) {
            while let Some(c) = self.peek(0).filter(char::is_ascii_digit) {
                text.push(c);
                self.bump();
            }
            self.push(TokenKind::Int, text, line, col);
            return;
        }
        // Base prefix?
        if self.peek(0) == Some('0')
            && matches!(self.peek(1), Some('x' | 'X' | 'o' | 'O' | 'b' | 'B'))
        {
            text.push(self.bump().expect("digit present"));
            text.push(self.bump().expect("base char present"));
            while let Some(c) = self.peek(0) {
                if c.is_ascii_hexdigit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        } else {
            while let Some(c) = self.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            // Fractional part — but not a range (`0..n`) and not a
            // method call on a literal (`1.max(2)`).
            if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                float = true;
                text.push('.');
                self.bump();
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            } else if self.peek(0) == Some('.')
                && self.peek(1).is_none_or(|c| !is_ident_start(c) && c != '.')
            {
                // `1.` with nothing usable after: still a float.
                float = true;
                text.push('.');
                self.bump();
            }
            // Exponent.
            if matches!(self.peek(0), Some('e' | 'E')) {
                let sign = matches!(self.peek(1), Some('+' | '-'));
                let digit_at = if sign { 2 } else { 1 };
                if self.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
                    float = true;
                    text.push(self.bump().expect("exponent char present"));
                    if sign {
                        text.push(self.bump().expect("sign present"));
                    }
                    while let Some(c) = self.peek(0) {
                        if c.is_ascii_digit() || c == '_' {
                            text.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        // Suffix (u32, f64, usize, …).
        let mut suffix = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                suffix.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if suffix.starts_with('f') {
            float = true;
        }
        text.push_str(&suffix);
        let kind = if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, text, line, col);
    }

    fn ident_or_prefixed(&mut self, line: u32, col: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // String prefixes and raw identifiers.
        match (text.as_str(), self.peek(0)) {
            ("r" | "br" | "rb", Some('#')) => {
                // `r#"…"#` raw string vs `r#ident` raw identifier.
                if text == "r"
                    && self.peek(1).is_some_and(is_ident_start)
                    && self.peek(1) != Some('"')
                {
                    // Raw identifier: consume `#` + ident, emit as Ident.
                    self.bump();
                    let mut ident = String::new();
                    while let Some(c) = self.peek(0) {
                        if is_ident_continue(c) {
                            ident.push(c);
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    self.push(TokenKind::Ident, ident, line, col);
                } else {
                    self.raw_string(line, col, text);
                }
            }
            ("r" | "br" | "rb", Some('"')) => self.raw_string(line, col, text),
            ("b" | "c", Some('"')) => self.string(line, col, text),
            ("b", Some('\'')) => {
                // Byte literal b'x'.
                let mut t = text;
                t.push('\'');
                self.bump();
                while let Some(c) = self.bump() {
                    t.push(c);
                    match c {
                        '\\' => {
                            if let Some(esc) = self.bump() {
                                t.push(esc);
                            }
                        }
                        '\'' => break,
                        _ => {}
                    }
                }
                self.push(TokenKind::Char, t, line, col);
            }
            _ => self.push(TokenKind::Ident, text, line, col),
        }
    }

    fn punct(&mut self, line: u32, col: u32) {
        const THREE: [&str; 5] = ["..=", "...", "<<=", ">>=", "=>>"];
        const TWO: [&str; 19] = [
            "==", "!=", "<=", ">=", "&&", "||", "->", "=>", "::", "..", "+=", "-=", "*=", "/=",
            "%=", "^=", "&=", "|=", "<<",
        ];
        let take = |n: usize, lx: &Self| -> String {
            (0..n).filter_map(|k| lx.peek(k)).collect::<String>()
        };
        let three = take(3, self);
        if THREE.contains(&three.as_str()) {
            for _ in 0..3 {
                self.bump();
            }
            self.push(TokenKind::Punct, three, line, col);
            return;
        }
        let two = take(2, self);
        if TWO.contains(&two.as_str()) {
            for _ in 0..2 {
                self.bump();
            }
            self.push(TokenKind::Punct, two, line, col);
            return;
        }
        let c = self.bump().expect("punct char present");
        self.push(TokenKind::Punct, c.to_string(), line, col);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Number of lines in `src` (at least 1, even for empty content).
pub fn line_count(src: &str) -> usize {
    src.lines().count().max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let toks = kinds("let x = a.unwrap();");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, ["let", "x", "=", "a", ".", "unwrap", "(", ")", ";"]);
    }

    #[test]
    fn spans_are_one_based() {
        let out = lex("a\n  bb");
        assert_eq!((out.tokens[0].line, out.tokens[0].col), (1, 1));
        assert_eq!((out.tokens[1].line, out.tokens[1].col), (2, 3));
    }

    #[test]
    fn comments_are_collected_not_tokenized() {
        let out = lex("x // trailing\n/* block\nstill */ y");
        let texts: Vec<&str> = out.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["x", "y"]);
        assert_eq!(out.comments.len(), 2);
        assert!(out.comments[0].text.contains("trailing"));
        assert_eq!(out.comments[1].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let out = lex("/* a /* b */ c */ x");
        assert_eq!(out.tokens.len(), 1);
        assert_eq!(out.tokens[0].text, "x");
    }

    #[test]
    fn strings_with_escapes_and_raw() {
        let out = lex(r##"let s = "a\"b"; let r = r#"raw "quoted""#;"##);
        let strs: Vec<&str> = out
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[0].contains("a\\\"b"));
        assert!(strs[1].contains("raw"));
    }

    #[test]
    fn string_containing_comment_markers() {
        let out = lex(r#"let s = "// not a comment"; y"#);
        assert!(out.comments.is_empty());
        assert!(out.tokens.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn char_vs_lifetime() {
        let out = lex("'a' 'x: &'a str '\\n'");
        let kinds: Vec<TokenKind> = out.tokens.iter().map(|t| t.kind).collect();
        assert_eq!(kinds[0], TokenKind::Char); // 'a'
        assert_eq!(kinds[1], TokenKind::Lifetime); // 'x (label)
        assert!(out
            .tokens
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert_eq!(out.tokens.last().map(|t| t.kind), Some(TokenKind::Char));
    }

    #[test]
    fn numbers_int_vs_float() {
        let toks = kinds("1 1.5 1e3 0x1F 2f64 3usize 0..10 1.max(2)");
        let find = |s: &str| toks.iter().find(|(_, t)| t == s).map(|(k, _)| *k);
        assert_eq!(find("1"), Some(TokenKind::Int));
        assert_eq!(find("1.5"), Some(TokenKind::Float));
        assert_eq!(find("1e3"), Some(TokenKind::Float));
        assert_eq!(find("0x1F"), Some(TokenKind::Int));
        assert_eq!(find("2f64"), Some(TokenKind::Float));
        assert_eq!(find("3usize"), Some(TokenKind::Int));
        // `0..10` keeps the range operator intact.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Punct && t == ".."));
        // `1.max` stays an int followed by a method call.
        assert!(toks.iter().any(|(_, t)| t == "max"));
    }

    #[test]
    fn tuple_field_chain_is_not_a_float() {
        let toks = kinds("t.0.1 == 3");
        let texts: Vec<&str> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, ["t", ".", "0", ".", "1", "==", "3"]);
        assert!(toks.iter().all(|(k, _)| *k != TokenKind::Float));
    }

    #[test]
    fn multichar_operators() {
        let toks = kinds("a == b != c && d || e -> f :: g ..= h");
        for op in ["==", "!=", "&&", "||", "->", "::", "..="] {
            assert!(
                toks.iter().any(|(k, t)| *k == TokenKind::Punct && t == op),
                "missing {op}"
            );
        }
    }

    #[test]
    fn raw_identifier() {
        let toks = kinds("r#fn x");
        assert_eq!(toks[0], (TokenKind::Ident, "fn".to_string()));
        assert_eq!(toks[1], (TokenKind::Ident, "x".to_string()));
    }

    #[test]
    fn byte_string_and_byte_char() {
        let toks = kinds(r#"b"bytes" b'x'"#);
        assert_eq!(toks[0].0, TokenKind::Str);
        assert_eq!(toks[1].0, TokenKind::Char);
    }

    #[test]
    fn raw_string_multi_hash_ignores_inner_quote_hash() {
        // `"#` inside an `r##`-string is body text, not a terminator.
        let out = lex(r###"let s = r##"x"#y"##; z"###);
        let s = out
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("one string");
        assert!(s.text.contains("x\"#y"));
        assert!(out.tokens.iter().any(|t| t.is_ident("z")));
    }

    #[test]
    fn raw_string_swallows_comment_markers() {
        // Comment openers inside a raw string must not start comments,
        // and a lint:allow inside one must not register as a comment.
        let out = lex(r##"let s = r#"// lint:allow(float-eq): nope /* block */"#; y"##);
        assert!(out.comments.is_empty());
        assert!(out.tokens.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn raw_string_zero_hashes_and_raw_byte_string() {
        let out = lex(r##"r"plain raw" br#"bytes "quoted""#"##);
        let strs: Vec<&str> = out
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs.len(), 2);
        assert!(strs[0].contains("plain raw"));
        assert!(strs[1].contains("bytes \"quoted\""));
    }

    #[test]
    fn unterminated_raw_string_consumes_to_eof_without_panic() {
        let out = lex(r##"let s = r#"never closed"##); // missing final #
        assert_eq!(
            out.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Str)
                .count(),
            1
        );
    }

    #[test]
    fn deeply_nested_block_comment_balances() {
        let out = lex("/* 1 /* 2 /* 3 */ 2 */ 1 */ after");
        let texts: Vec<&str> = out.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["after"]);
        assert_eq!(out.comments.len(), 1);
        assert!(out.comments[0].text.contains("3"));
    }

    #[test]
    fn block_comment_ignores_line_comment_and_string_markers_inside() {
        // `//` and `"` inside a block comment are plain text; the
        // comment still closes at the matching `*/`.
        let out = lex("/* // \" unclosed quote */ x\ny");
        let texts: Vec<&str> = out.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["x", "y"]);
        assert_eq!(out.comments.len(), 1);
    }

    #[test]
    fn unterminated_nested_block_comment_consumes_to_eof() {
        let out = lex("/* outer /* inner */ still open\nx");
        // `x` is inside the never-closed outer comment, not a token.
        assert!(out.tokens.is_empty());
        assert_eq!(out.comments.len(), 1);
    }

    #[test]
    fn adjacent_raw_strings_and_comment_interleave() {
        // Positions after multi-line raw strings stay correct, so a
        // following lint:allow lands on the right line.
        let out = lex("let a = r#\"line1\nline2\"#;\n// lint:allow(float-eq): why\nlet b = 1.0;");
        let c = &out.comments[0];
        assert_eq!(c.line, 3);
        let b = out.tokens.iter().find(|t| t.is_ident("b")).expect("b");
        assert_eq!(b.line, 4);
    }
}
