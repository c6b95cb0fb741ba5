//! A small hand-rolled Rust lexer.
//!
//! The lints in this crate need just enough token structure to tell code
//! from strings and comments, to find method-call and macro-invocation
//! patterns, and to anchor every finding to a line and column. A full
//! parser would be overkill (and would drag in a dependency, which the
//! workspace does without), so this module tokenizes the
//! mechanical subset of Rust the rules rely on:
//!
//! * identifiers (including raw `r#ident`) and lifetimes,
//! * string literals: plain, raw (`r"…"`, `r#"…"#`), byte, and chars,
//! * numeric literals, with a float/integer distinction for the
//!   `float-hygiene` rule,
//! * line and nested block comments, kept as tokens so the
//!   `// lint:allow(...)` escape hatch can be read back out,
//! * punctuation, with the handful of two-character operators the rules
//!   match on (`==`, `!=`, `::`, `->`) pre-combined.
//!
//! Positions are 1-based lines and columns, counted in characters, so a
//! finding renders as the `path:line:col` form editors jump to.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unwrap`, `r#type`).
    Ident,
    /// A lifetime such as `'static`.
    Lifetime,
    /// An integer literal (`42`, `0xFF`, `1_000u64`).
    Int,
    /// A floating-point literal (`1.5`, `2e9`, `0.877_f64`).
    Float,
    /// A string literal of any flavor (plain, raw, byte), quotes included
    /// in the span but not in `text`.
    Str,
    /// A character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A `//` comment, text excluding the slashes' newline.
    LineComment,
    /// A `/* ... */` comment (nesting handled), delimiters included.
    BlockComment,
    /// Punctuation; multi-character only for `==`, `!=`, `::`, `->`.
    Punct,
}

/// One lexed token with its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token class.
    pub kind: TokenKind,
    /// The token text. For [`TokenKind::Str`] this is the *content*
    /// (delimiters stripped, escapes left as written); for everything
    /// else it is the raw source slice.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
    /// 1-based column (in characters) of the token's first character.
    pub col: usize,
}

impl Token {
    /// Whether this token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    /// Whether this token is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == text
    }

    /// Whether this token is a comment of either flavor.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Tokenizes Rust source, keeping comments.
///
/// The lexer is total: unrecognized bytes become one-character
/// [`TokenKind::Punct`] tokens rather than errors, because a linter must
/// keep scanning whatever it is fed. Unterminated strings and comments
/// swallow the rest of the file (matching how rustc would recover) —
/// the `cargo build` gate, not the linter, owns rejecting such files.
pub fn tokenize(source: &str) -> Vec<Token> {
    Lexer::new(source).run()
}

struct Lexer<'a> {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
    tokens: Vec<Token>,
    source: std::marker::PhantomData<&'a ()>,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Lexer<'a> {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
            source: std::marker::PhantomData,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, text: String, line: usize, col: usize) {
        self.tokens.push(Token {
            kind,
            text,
            line,
            col,
        });
    }

    fn run(mut self) -> Vec<Token> {
        while let Some(c) = self.peek() {
            let (line, col) = (self.line, self.col);
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => self.line_comment(line, col),
                '/' if self.peek_at(1) == Some('*') => self.block_comment(line, col),
                '"' => self.string(line, col),
                'r' | 'b' => {
                    if self.raw_or_byte_prefix(line, col) {
                        // handled as a literal
                    } else {
                        self.ident(line, col);
                    }
                }
                '\'' => self.char_or_lifetime(line, col),
                c if c.is_ascii_digit() => self.number(line, col),
                c if c == '_' || c.is_alphabetic() => self.ident(line, col),
                _ => self.punct(line, col),
            }
        }
        self.tokens
    }

    fn line_comment(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokenKind::LineComment, text, line, col);
    }

    fn block_comment(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            if c == '/' && self.peek_at(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek_at(1) == Some('/') {
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
        self.push(TokenKind::BlockComment, text, line, col);
    }

    /// Plain `"..."` strings; escapes are skipped, not interpreted.
    fn string(&mut self, line: usize, col: usize) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    text.push(c);
                    if let Some(escaped) = self.bump() {
                        text.push(escaped);
                    }
                }
                _ => text.push(c),
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// Handles `r"…"`, `r#"…"#`, `br"…"`, `b"…"`, `b'…'`, and raw idents
    /// (`r#ident`). Returns `false` when the `r`/`b` starts a plain
    /// identifier instead.
    fn raw_or_byte_prefix(&mut self, line: usize, col: usize) -> bool {
        let first = self.peek();
        let mut ahead = 1;
        if first == Some('b') && self.peek_at(1) == Some('r') {
            ahead = 2;
        }
        // Count the hashes after the prefix.
        let mut hashes = 0;
        while self.peek_at(ahead + hashes) == Some('#') {
            hashes += 1;
        }
        let raw = ahead == 2 || first == Some('r');
        match self.peek_at(ahead + hashes) {
            Some('"') if raw => {
                for _ in 0..=(ahead + hashes) {
                    self.bump();
                }
                self.raw_string_body(hashes, line, col);
                true
            }
            Some('"') if first == Some('b') && ahead == 1 && hashes == 0 => {
                self.bump(); // the b
                self.string(line, col);
                true
            }
            Some('\'') if first == Some('b') && ahead == 1 && hashes == 0 => {
                self.bump(); // the b
                self.char_or_lifetime(line, col);
                true
            }
            Some(c) if raw && hashes == 1 && (c == '_' || c.is_alphabetic()) => {
                // Raw identifier r#ident: lex as one Ident token.
                self.bump();
                self.bump();
                let mut text = String::from("r#");
                while let Some(c) = self.peek() {
                    if c == '_' || c.is_alphanumeric() {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokenKind::Ident, text, line, col);
                true
            }
            _ => false,
        }
    }

    fn raw_string_body(&mut self, hashes: usize, line: usize, col: usize) {
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut matched = 0;
                while matched < hashes && self.peek() == Some('#') {
                    self.bump();
                    matched += 1;
                }
                if matched == hashes {
                    self.push(TokenKind::Str, text, line, col);
                    return;
                }
                text.push('"');
                for _ in 0..matched {
                    text.push('#');
                }
            } else {
                text.push(c);
            }
        }
        self.push(TokenKind::Str, text, line, col);
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime): a lifetime is a
    /// quote followed by an identifier *not* closed by another quote.
    fn char_or_lifetime(&mut self, line: usize, col: usize) {
        let next = self.peek_at(1);
        let next2 = self.peek_at(2);
        let is_lifetime = matches!(next, Some(c) if c == '_' || c.is_alphabetic())
            && next2 != Some('\'')
            && next != Some('\\');
        if is_lifetime {
            self.bump(); // quote
            let mut text = String::from("'");
            while let Some(c) = self.peek() {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, line, col);
            return;
        }
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\'' => break,
                '\\' => {
                    text.push(c);
                    if let Some(escaped) = self.bump() {
                        text.push(escaped);
                    }
                }
                _ => text.push(c),
            }
        }
        self.push(TokenKind::Char, text, line, col);
    }

    fn number(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        let mut is_float = false;
        // Hex/octal/binary literals are always integers.
        if self.peek() == Some('0') && matches!(self.peek_at(1), Some('x' | 'o' | 'b')) {
            for _ in 0..2 {
                if let Some(c) = self.bump() {
                    text.push(c);
                }
            }
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokenKind::Int, text, line, col);
            return;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == '_' {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        // A fractional part: a dot followed by a digit (not `..` or a
        // method call like `1.max(2)`).
        if self.peek() == Some('.') && matches!(self.peek_at(1), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            text.push('.');
            self.bump();
            while let Some(c) = self.peek() {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
        }
        // An exponent.
        if matches!(self.peek(), Some('e' | 'E')) {
            let sign = matches!(self.peek_at(1), Some('+' | '-'));
            let digit_at = if sign { 2 } else { 1 };
            if matches!(self.peek_at(digit_at), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                for _ in 0..digit_at {
                    if let Some(c) = self.bump() {
                        text.push(c);
                    }
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // A type suffix (`1.5f64`, `3usize`) — `f` suffixes mean float.
        if matches!(self.peek(), Some(c) if c == '_' || c.is_alphabetic()) {
            let mut suffix = String::new();
            while let Some(c) = self.peek() {
                if c == '_' || c.is_alphanumeric() {
                    suffix.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            if suffix.starts_with('f') {
                is_float = true;
            }
            text.push_str(&suffix);
        }
        let kind = if is_float {
            TokenKind::Float
        } else {
            TokenKind::Int
        };
        self.push(kind, text, line, col);
    }

    fn ident(&mut self, line: usize, col: usize) {
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, line, col);
    }

    /// The two-character operators the lints match on are combined;
    /// everything else is a single character.
    fn punct(&mut self, line: usize, col: usize) {
        let Some(c) = self.bump() else {
            return;
        };
        let pair = self.peek().map(|n| (c, n));
        let combined = matches!(pair, Some(('=' | '!', '=') | (':', ':') | ('-', '>')));
        // `=> `, `<=`, `>=` must NOT combine into `==`/`!=`; the match
        // above only pairs the exact operators the rules consume.
        let mut text = String::from(c);
        if combined {
            if let Some(n) = self.bump() {
                text.push(n);
            }
        }
        self.push(TokenKind::Punct, text, line, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        tokenize(src)
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_and_puncts() {
        let toks = kinds("let x = 4.2 + foo::bar(1);");
        assert!(toks.contains(&(TokenKind::Ident, "let".into())));
        assert!(toks.contains(&(TokenKind::Float, "4.2".into())));
        assert!(toks.contains(&(TokenKind::Punct, "::".into())));
        assert!(toks.contains(&(TokenKind::Int, "1".into())));
    }

    #[test]
    fn float_vs_int_classification() {
        assert_eq!(kinds("1")[0].0, TokenKind::Int);
        assert_eq!(kinds("1.5")[0].0, TokenKind::Float);
        assert_eq!(kinds("2e9")[0].0, TokenKind::Float);
        assert_eq!(kinds("1E-3")[0].0, TokenKind::Float);
        assert_eq!(kinds("3f64")[0].0, TokenKind::Float);
        assert_eq!(kinds("0xFF")[0].0, TokenKind::Int);
        assert_eq!(kinds("1_000u64")[0].0, TokenKind::Int);
        // A method call on an integer is not a float.
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (TokenKind::Int, "1".into()));
        assert_eq!(toks[2], (TokenKind::Ident, "max".into()));
    }

    #[test]
    fn operators_combine_exactly_where_needed() {
        let toks = kinds("a == b != c <= d => e -> f");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "<", "=", "=", ">", "->"]);
    }

    #[test]
    fn strings_hide_their_contents_from_the_token_stream() {
        // The unwrap inside the string must not produce an Ident token.
        let toks = tokenize(r#"let s = "x.unwrap()"; s.len()"#);
        assert!(!toks.iter().any(|t| t.is_ident("unwrap")));
        assert!(toks.iter().any(|t| t.kind == TokenKind::Str));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let toks = tokenize("let s = r#\"quote \" inside\"#; x");
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.text, "quote \" inside");
        assert!(toks.iter().any(|t| t.is_ident("x")));
        // br strings and plain r strings too.
        let toks = tokenize(r#"br"bytes" r"raw" b"byte""#);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 3);
    }

    #[test]
    fn raw_idents_lex_as_idents() {
        let toks = tokenize("let r#type = 1;");
        assert!(toks.iter().any(|t| t.is_ident("r#type")));
    }

    #[test]
    fn comments_are_tokens_with_text() {
        let toks = tokenize("x // lint:allow(rule): why\n/* block\n * bit */ y");
        let line = toks.iter().find(|t| t.kind == TokenKind::LineComment);
        assert!(line.unwrap().text.contains("lint:allow(rule)"));
        let block = toks.iter().find(|t| t.kind == TokenKind::BlockComment);
        assert!(block.unwrap().text.contains("block"));
        assert!(toks.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let toks = tokenize("/* outer /* inner */ still */ tail");
        assert!(toks.iter().any(|t| t.is_ident("tail")));
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokenKind::BlockComment)
                .count(),
            1
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "x"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Char && t.text == "\\n"));
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let toks = tokenize("ab\n  cd");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn escaped_quote_does_not_end_a_string() {
        let toks = tokenize(r#""a\"b" end"#);
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].text, r#"a\"b"#);
        assert!(toks[1].is_ident("end"));
    }
}
