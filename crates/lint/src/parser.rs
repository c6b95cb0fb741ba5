//! A hand-rolled recursive-descent parser for the item-level subset of
//! Rust the semantic lint rules need.
//!
//! The parser runs over the comment-filtered token view
//! ([`crate::SourceFile::code_tokens`]) and produces the lightweight
//! tree described in [`crate::ast`]. Its grammar is deliberately
//! shallow: it fully classifies *items* (functions, structs, enums,
//! traits, impls, mods, uses, consts, statics, type aliases, macros)
//! and brace-matches their bodies, but leaves expression parsing to the
//! token-scan helpers ([`calls_in`]) that rules apply to body ranges.
//! Generics are skipped by angle-depth counting, attributes by
//! bracket matching; `impl`/`trait`/`mod` bodies are descended into so
//! methods land in the tree.
//!
//! The parser is total in the same spirit as the lexer: a token that
//! fits no production is recorded as a [`ParseError`] recovery and
//! skipped, never an abort. The workspace's own sources must parse with
//! *zero* recoveries — `tests/lint.rs` pins that — so a recovery on real
//! code is a parser bug surfaced loudly, not silently degraded
//! analysis.

use crate::ast::{Call, Field, Item, ItemKind, ParseError, ParsedFile, Span};
use crate::lexer::{Token, TokenKind};

/// Parses the code-token view of one file into an item tree.
pub fn parse(code: &[&Token]) -> ParsedFile {
    let mut parser = Parser {
        code,
        pos: 0,
        recoveries: Vec::new(),
    };
    let items = parser.items(code.len());
    ParsedFile {
        items,
        recoveries: parser.recoveries,
    }
}

fn span_of(t: &Token) -> Span {
    Span {
        line: t.line,
        col: t.col,
    }
}

struct Parser<'a> {
    code: &'a [&'a Token],
    pos: usize,
    recoveries: Vec<ParseError>,
}

impl<'a> Parser<'a> {
    fn at(&self, i: usize) -> Option<&'a Token> {
        self.code.get(i).copied()
    }

    fn peek(&self) -> Option<&'a Token> {
        self.at(self.pos)
    }

    fn peek_is_ident(&self, text: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(text))
    }

    fn peek_is_punct(&self, text: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(text))
    }

    /// Parses items until `end` (exclusive) or a closing `}` balancing
    /// the caller's block, which the caller consumes.
    fn items(&mut self, end: usize) -> Vec<Item> {
        let mut items = Vec::new();
        while self.pos < end {
            if self.peek_is_punct("}") {
                break;
            }
            if self.peek_is_punct(";") {
                self.pos += 1;
                continue;
            }
            self.skip_attributes(end);
            if self.pos >= end || self.peek_is_punct("}") {
                break;
            }
            match self.item(end) {
                Some(item) => items.push(item),
                None => {
                    // Recovery: note the token and move past it.
                    if let Some(t) = self.peek() {
                        self.recoveries.push(ParseError {
                            span: span_of(t),
                            message: format!("unexpected token {:?} at item position", t.text),
                        });
                    }
                    self.pos += 1;
                }
            }
        }
        items
    }

    /// Skips any run of outer `#[...]` and inner `#![...]` attributes.
    fn skip_attributes(&mut self, end: usize) {
        while self.pos < end && self.peek_is_punct("#") {
            let mut i = self.pos + 1;
            if self.at(i).is_some_and(|t| t.is_punct("!")) {
                i += 1;
            }
            if !self.at(i).is_some_and(|t| t.is_punct("[")) {
                return; // a stray `#`; let item() report it
            }
            self.pos = self.match_delim(i, "[", "]") + 1;
        }
    }

    /// Parses one item starting at `self.pos`, or returns `None` if the
    /// current token opens no known production (the caller records the
    /// recovery).
    fn item(&mut self, end: usize) -> Option<Item> {
        // Modifier prefix: visibility and qualifiers.
        loop {
            if self.peek_is_ident("pub") {
                self.pos += 1;
                if self.peek_is_punct("(") {
                    self.pos = self.match_delim(self.pos, "(", ")") + 1;
                }
            } else if self.peek_is_ident("unsafe")
                || self.peek_is_ident("async")
                || (self.peek_is_ident("default")
                    && self
                        .at(self.pos + 1)
                        .is_some_and(|t| t.is_ident("fn") || t.is_ident("unsafe")))
                || (self.peek_is_ident("const")
                    && self.at(self.pos + 1).is_some_and(|t| t.is_ident("fn")))
            {
                self.pos += 1;
            } else if self.peek_is_ident("extern")
                && self
                    .at(self.pos + 1)
                    .is_some_and(|t| t.kind == TokenKind::Str)
                && self.at(self.pos + 2).is_some_and(|t| t.is_ident("fn"))
            {
                self.pos += 2;
            } else {
                break;
            }
        }
        let t = self.peek()?;
        let span = span_of(t);
        if t.is_ident("fn") {
            Some(self.fn_item(span))
        } else if t.is_ident("struct") {
            Some(self.struct_item(span))
        } else if t.is_ident("enum") || t.is_ident("union") {
            Some(self.enum_item(span))
        } else if t.is_ident("trait") {
            Some(self.trait_item(span, end))
        } else if t.is_ident("impl") {
            Some(self.impl_item(span, end))
        } else if t.is_ident("mod") {
            Some(self.mod_item(span, end))
        } else if t.is_ident("use") {
            Some(self.use_item(span))
        } else if t.is_ident("const") || t.is_ident("static") {
            Some(self.const_item(span))
        } else if t.is_ident("type") {
            Some(self.type_item(span))
        } else if t.is_ident("macro_rules") {
            Some(self.macro_rules_item(span))
        } else if t.is_ident("extern") {
            Some(self.extern_item(span))
        } else if t.kind == TokenKind::Ident && self.macro_invocation_ahead() {
            Some(self.macro_invocation_item(span))
        } else {
            None
        }
    }

    /// Whether `pos` starts `path::to::mac! ( … )` — an item-level
    /// macro invocation.
    fn macro_invocation_ahead(&self) -> bool {
        let mut i = self.pos;
        while self.at(i).is_some_and(|t| t.kind == TokenKind::Ident)
            && self.at(i + 1).is_some_and(|t| t.is_punct("::"))
        {
            i += 2;
        }
        self.at(i).is_some_and(|t| t.kind == TokenKind::Ident)
            && self.at(i + 1).is_some_and(|t| t.is_punct("!"))
    }

    /// `fn name<generics>(params) -> ret where … { body }` — the body
    /// is brace-matched, not parsed; trait signatures end at `;`.
    fn fn_item(&mut self, span: Span) -> Item {
        self.pos += 1; // `fn`
        let name = self.take_name();
        let mut item = Item::new(ItemKind::Fn, name, span);
        if self.peek_is_punct("<") {
            self.pos = self.skip_generics(self.pos) + 1;
        }
        if self.peek_is_punct("(") {
            let open = self.pos;
            let close = self.match_delim(open, "(", ")");
            item.fields = self.params(open + 1, close);
            self.pos = close + 1;
        }
        match self.seek_body_or_semi() {
            Some((open, close)) => {
                item.body = Some((open, close));
                self.pos = close + 1;
            }
            None => self.pos += 1, // the `;`
        }
        item
    }

    /// `struct Name<T> { fields }` | `struct Name(T);` | `struct Name;`
    fn struct_item(&mut self, span: Span) -> Item {
        self.pos += 1;
        let name = self.take_name();
        let mut item = Item::new(ItemKind::Struct, name, span);
        if self.peek_is_punct("<") {
            self.pos = self.skip_generics(self.pos) + 1;
        }
        if self.peek_is_punct("(") {
            // Tuple struct: skip the fields, then the trailing `;`
            // (possibly behind a where clause).
            self.pos = self.match_delim(self.pos, "(", ")") + 1;
            self.skip_to_semi();
            return item;
        }
        // Optional where clause, then either `;` or a field block.
        while self.pos < self.code.len() {
            if self.peek_is_punct(";") {
                self.pos += 1;
                return item;
            }
            if self.peek_is_punct("{") {
                let open = self.pos;
                let close = self.match_delim(open, "{", "}");
                item.fields = self.struct_fields(open + 1, close);
                self.pos = close + 1;
                return item;
            }
            self.pos += 1;
        }
        item
    }

    /// `enum`/`union`: name recorded, body skipped wholesale.
    fn enum_item(&mut self, span: Span) -> Item {
        self.pos += 1;
        let name = self.take_name();
        let mut item = Item::new(ItemKind::Enum, name, span);
        match self.seek_body_or_semi() {
            Some((open, close)) => {
                item.body = Some((open, close));
                self.pos = close + 1;
            }
            None => self.pos += 1,
        }
        item
    }

    /// `trait Name: Bounds { members }` — members are parsed so default
    /// method bodies land in the tree.
    fn trait_item(&mut self, span: Span, end: usize) -> Item {
        self.pos += 1;
        let name = self.take_name();
        let mut item = Item::new(ItemKind::Trait, name, span);
        while self.pos < end && !self.peek_is_punct("{") && !self.peek_is_punct(";") {
            self.pos += 1;
        }
        if self.peek_is_punct("{") {
            let open = self.pos;
            let close = self.match_delim(open, "{", "}");
            self.pos = open + 1;
            item.children = self.items(close);
            self.pos = close + 1;
        } else {
            self.pos += 1; // trait alias `;`
        }
        item
    }

    /// `impl<G> Trait for Type where … { members }` — the self type's
    /// head identifier becomes the item name.
    fn impl_item(&mut self, span: Span, end: usize) -> Item {
        self.pos += 1;
        if self.peek_is_punct("<") {
            self.pos = self.skip_generics(self.pos) + 1;
        }
        let mut first_path_name = String::new();
        let mut name = String::new();
        let mut trait_name = None;
        let mut angle = 0usize;
        while self.pos < end {
            let Some(t) = self.peek() else { break };
            if angle == 0 && (t.is_punct("{") || t.is_ident("where")) {
                break;
            }
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") {
                angle = angle.saturating_sub(1);
            } else if angle == 0 && t.is_ident("for") {
                trait_name = Some(std::mem::take(&mut first_path_name));
                name.clear();
            } else if angle == 0 && t.kind == TokenKind::Ident && !t.is_ident("dyn") {
                if first_path_name.is_empty() && trait_name.is_none() {
                    first_path_name.clone_from(&t.text);
                }
                name.clone_from(&t.text);
            }
            self.pos += 1;
        }
        let mut item = Item::new(ItemKind::Impl, name, span);
        item.trait_name = trait_name.filter(|n| !n.is_empty());
        while self.pos < end && !self.peek_is_punct("{") {
            self.pos += 1; // where clause
        }
        if self.peek_is_punct("{") {
            let open = self.pos;
            let close = self.match_delim(open, "{", "}");
            self.pos = open + 1;
            item.children = self.items(close);
            self.pos = close + 1;
        }
        item
    }

    /// `mod name;` | `mod name { items }`
    fn mod_item(&mut self, span: Span, end: usize) -> Item {
        self.pos += 1;
        let name = self.take_name();
        let mut item = Item::new(ItemKind::Mod, name, span);
        if self.peek_is_punct("{") {
            let open = self.pos;
            let close = self.match_delim(open, "{", "}");
            self.pos = open + 1;
            item.children = self.items(close);
            self.pos = close + 1;
        } else if self.pos < end {
            self.pos += 1; // `;`
        }
        item
    }

    /// `use path::{a, b as c};` — the whole path (space-joined) is the
    /// item name.
    fn use_item(&mut self, span: Span) -> Item {
        self.pos += 1;
        let mut text = String::new();
        while self.pos < self.code.len() && !self.peek_is_punct(";") {
            if let Some(t) = self.peek() {
                if !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&t.text);
            }
            self.pos += 1;
        }
        self.pos += 1; // `;`
        Item::new(ItemKind::Use, text, span)
    }

    /// `const NAME: Ty = expr;` | `static NAME: Ty = expr;` — the type
    /// text is kept in `fields[0]` for the symbol index.
    fn const_item(&mut self, span: Span) -> Item {
        self.pos += 1;
        if self.peek_is_ident("mut") {
            self.pos += 1;
        }
        let name = self.take_name();
        let mut item = Item::new(ItemKind::Const, name.clone(), span);
        if self.peek_is_punct(":") {
            let ty_start = self.pos + 1;
            let ty_end = self.seek_eq_or_semi(ty_start);
            item.fields.push(Field {
                name,
                ty: self.join(ty_start, ty_end),
                span,
            });
            self.pos = ty_end;
        }
        self.skip_to_semi();
        item
    }

    /// `type Alias = Ty;` (or a bodyless associated `type Item;`).
    fn type_item(&mut self, span: Span) -> Item {
        self.pos += 1;
        let name = self.take_name();
        self.skip_to_semi();
        Item::new(ItemKind::TypeAlias, name, span)
    }

    /// `macro_rules! name { … }` (or `(...)`/`[...]` + `;`).
    fn macro_rules_item(&mut self, span: Span) -> Item {
        self.pos += 2; // `macro_rules` `!`
        let name = self.take_name();
        self.skip_macro_body();
        Item::new(ItemKind::Macro, name, span)
    }

    /// `extern crate name;` | `extern "abi" { … }`
    fn extern_item(&mut self, span: Span) -> Item {
        self.pos += 1;
        if self.peek_is_ident("crate") {
            self.pos += 1;
            let name = self.take_name();
            self.skip_to_semi();
            return Item::new(ItemKind::Extern, name, span);
        }
        if self.peek().is_some_and(|t| t.kind == TokenKind::Str) {
            self.pos += 1;
        }
        if self.peek_is_punct("{") {
            self.pos = self.match_delim(self.pos, "{", "}") + 1;
        }
        Item::new(ItemKind::Extern, String::new(), span)
    }

    /// `path::to::mac! { … }` or `mac!(…);` at item level
    /// (`thread_local!`, `criterion_group!`, …).
    fn macro_invocation_item(&mut self, span: Span) -> Item {
        let mut name = String::new();
        while let Some(t) = self.peek() {
            if t.kind == TokenKind::Ident {
                name.clone_from(&t.text);
                self.pos += 1;
                if self.peek_is_punct("::") {
                    self.pos += 1;
                    continue;
                }
            }
            break;
        }
        if self.peek_is_punct("!") {
            self.pos += 1;
        }
        self.skip_macro_body();
        Item::new(ItemKind::Macro, name, span)
    }

    /// Skips a macro's delimited body: `{…}` stands alone, `(...)` and
    /// `[...]` take a trailing `;`.
    fn skip_macro_body(&mut self) {
        if self.peek_is_punct("{") {
            self.pos = self.match_delim(self.pos, "{", "}") + 1;
        } else if self.peek_is_punct("(") {
            self.pos = self.match_delim(self.pos, "(", ")") + 1;
            self.skip_to_semi();
        } else if self.peek_is_punct("[") {
            self.pos = self.match_delim(self.pos, "[", "]") + 1;
            self.skip_to_semi();
        }
    }

    /// Consumes and returns an identifier (or `_`), empty on mismatch.
    fn take_name(&mut self) -> String {
        match self.peek() {
            Some(t) if t.kind == TokenKind::Ident || t.is_punct("_") => {
                self.pos += 1;
                t.text.clone()
            }
            _ => String::new(),
        }
    }

    /// From an opening delimiter at `open`, the index of its match
    /// (or the last token, for unbalanced input).
    fn match_delim(&self, open: usize, od: &str, cd: &str) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < self.code.len() {
            let t = self.code[i];
            if t.is_punct(od) {
                depth += 1;
            } else if t.is_punct(cd) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// From a `<` at `from`, the index of the matching `>`, counting
    /// angles only outside nested bracket groups.
    fn skip_generics(&self, from: usize) -> usize {
        let mut angle = 0usize;
        let mut nest = 0usize;
        let mut i = from;
        while i < self.code.len() {
            let t = self.code[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                nest += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                nest = nest.saturating_sub(1);
            } else if nest == 0 && t.is_punct("<") {
                angle += 1;
            } else if nest == 0 && t.is_punct(">") {
                angle -= 1;
                if angle == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.code.len().saturating_sub(1)
    }

    /// Scans forward for the item's `{` body (at bracket depth 0) or a
    /// terminating `;`; returns the matched body range or `None` for
    /// `;`. Leaves `self.pos` on the found token.
    fn seek_body_or_semi(&mut self) -> Option<(usize, usize)> {
        let mut nest = 0usize;
        while self.pos < self.code.len() {
            let t = self.code[self.pos];
            if t.is_punct("(") || t.is_punct("[") {
                nest += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                nest = nest.saturating_sub(1);
            } else if nest == 0 && t.is_punct(";") {
                return None;
            } else if nest == 0 && t.is_punct("{") {
                let close = self.match_delim(self.pos, "{", "}");
                return Some((self.pos, close));
            }
            self.pos += 1;
        }
        None
    }

    /// Advances past the next `;` at bracket depth 0 (expression
    /// braces, arrays, and parens all nest).
    fn skip_to_semi(&mut self) {
        let mut nest = 0usize;
        while self.pos < self.code.len() {
            let t = self.code[self.pos];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                nest += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                nest = nest.saturating_sub(1);
            } else if nest == 0 && t.is_punct(";") {
                self.pos += 1;
                return;
            }
            self.pos += 1;
        }
    }

    /// The index of the `=` or `;` ending a const/static's type, at
    /// bracket and angle depth 0.
    fn seek_eq_or_semi(&self, from: usize) -> usize {
        let mut nest = 0usize;
        let mut angle = 0usize;
        let mut i = from;
        while i < self.code.len() {
            let t = self.code[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                nest += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                nest = nest.saturating_sub(1);
            } else if nest == 0 && t.is_punct("<") {
                angle += 1;
            } else if nest == 0 && t.is_punct(">") {
                angle = angle.saturating_sub(1);
            } else if nest == 0 && angle == 0 && (t.is_punct("=") || t.is_punct(";")) {
                return i;
            }
            i += 1;
        }
        self.code.len()
    }

    /// Space-joined token text over `[start, end)`.
    fn join(&self, start: usize, end: usize) -> String {
        let mut s = String::new();
        for t in &self.code[start.min(self.code.len())..end.min(self.code.len())] {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&t.text);
        }
        s
    }

    /// Struct fields between a brace pair: `[pub] name: Type,`*.
    fn struct_fields(&mut self, start: usize, end: usize) -> Vec<Field> {
        let mut fields = Vec::new();
        let mut i = start;
        while i < end {
            // Skip attributes and visibility.
            while i < end && self.at(i).is_some_and(|t| t.is_punct("#")) {
                let mut j = i + 1;
                if self.at(j).is_some_and(|t| t.is_punct("!")) {
                    j += 1;
                }
                if self.at(j).is_some_and(|t| t.is_punct("[")) {
                    i = self.match_delim(j, "[", "]") + 1;
                } else {
                    i += 1;
                }
            }
            if self.at(i).is_some_and(|t| t.is_ident("pub")) {
                i += 1;
                if self.at(i).is_some_and(|t| t.is_punct("(")) {
                    i = self.match_delim(i, "(", ")") + 1;
                }
            }
            let Some(name_tok) = self.at(i).filter(|t| t.kind == TokenKind::Ident) else {
                break;
            };
            if !self.at(i + 1).is_some_and(|t| t.is_punct(":")) {
                break;
            }
            let ty_start = i + 2;
            let ty_end = self.field_type_end(ty_start, end);
            fields.push(Field {
                name: name_tok.text.clone(),
                ty: self.join(ty_start, ty_end),
                span: span_of(name_tok),
            });
            i = ty_end + 1; // past the comma (or the close brace)
        }
        fields
    }

    /// The index of the `,` ending a field's type (angle- and
    /// bracket-aware), or `end`.
    fn field_type_end(&self, from: usize, end: usize) -> usize {
        let mut nest = 0usize;
        let mut angle = 0usize;
        let mut i = from;
        while i < end {
            let t = self.code[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                nest += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                nest = nest.saturating_sub(1);
            } else if nest == 0 && t.is_punct("<") {
                angle += 1;
            } else if nest == 0 && t.is_punct(">") {
                angle = angle.saturating_sub(1);
            } else if nest == 0 && angle == 0 && t.is_punct(",") {
                return i;
            }
            i += 1;
        }
        end
    }

    /// Fn parameters between the signature parens: top-level commas
    /// split bindings; `[&] [mut] name: Type` yields a [`Field`],
    /// `self` receivers and pattern bindings are skipped.
    fn params(&mut self, start: usize, end: usize) -> Vec<Field> {
        let mut params = Vec::new();
        let mut i = start;
        while i < end {
            let piece_end = self.field_type_end(i, end);
            // Find the top-level `:` separating pattern from type.
            let mut colon = None;
            let mut nest = 0usize;
            for j in i..piece_end {
                let t = self.code[j];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    nest += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    nest = nest.saturating_sub(1);
                } else if nest == 0 && t.is_punct(":") {
                    colon = Some(j);
                    break;
                }
            }
            if let Some(c) = colon {
                // The binding name is the last plain ident before `:`.
                let name_tok = (i..c).rev().map(|j| self.code[j]).find(|t| {
                    t.kind == TokenKind::Ident && !t.is_ident("mut") && !t.is_ident("ref")
                });
                if let Some(name_tok) = name_tok {
                    params.push(Field {
                        name: name_tok.text.clone(),
                        ty: self.join(c + 1, piece_end),
                        span: span_of(name_tok),
                    });
                }
            }
            i = piece_end + 1;
        }
        params
    }
}

/// Extracts every call site in `[start, end)` of the code-token view:
/// method calls with their receiver chains and path/bare calls, each
/// with top-level-comma-split argument ranges.
pub fn calls_in(code: &[&Token], start: usize, end: usize) -> Vec<Call> {
    let end = end.min(code.len());
    let mut calls = Vec::new();
    let mut i = start;
    while i < end {
        let t = code[i];
        if t.kind == TokenKind::Ident {
            // The `(` may sit behind a turbofish: `channel::<u32>(...)`.
            let mut open = i + 1;
            if code.get(open).is_some_and(|n| n.is_punct("::"))
                && code.get(open + 1).is_some_and(|n| n.is_punct("<"))
            {
                open = angle_close(code, open + 1) + 1;
            }
            // Exclude declarations/keywords that look like calls.
            if code.get(open).is_some_and(|n| n.is_punct("("))
                && !matches!(
                    t.text.as_str(),
                    "fn" | "if" | "while" | "for" | "match" | "return" | "in"
                )
            {
                let close = match_close(code, open, "(", ")");
                let (chain, is_method) = receiver_chain(code, i);
                calls.push(Call {
                    chain,
                    method: t.text.clone(),
                    is_method,
                    open,
                    close,
                    args: split_args(code, open, close),
                    span: Span {
                        line: t.line,
                        col: t.col,
                    },
                });
            }
        }
        i += 1;
    }
    calls
}

/// From a `<` at `from`, the index of its matching `>` (bracket groups
/// inside the angles nest).
fn angle_close(code: &[&Token], from: usize) -> usize {
    let mut angle = 0usize;
    let mut nest = 0usize;
    let mut i = from;
    while i < code.len() {
        let t = code[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            nest += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            nest = nest.saturating_sub(1);
        } else if nest == 0 && t.is_punct("<") {
            angle += 1;
        } else if nest == 0 && t.is_punct(">") {
            angle -= 1;
            if angle == 0 {
                return i;
            }
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

fn match_close(code: &[&Token], open: usize, od: &str, cd: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < code.len() {
        if code[i].is_punct(od) {
            depth += 1;
        } else if code[i].is_punct(cd) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    code.len().saturating_sub(1)
}

fn match_open(code: &[&Token], close: usize, od: &str, cd: &str) -> usize {
    let mut depth = 0usize;
    let mut i = close;
    loop {
        if code[i].is_punct(cd) {
            depth += 1;
        } else if code[i].is_punct(od) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        if i == 0 {
            return 0;
        }
        i -= 1;
    }
}

/// Walks the postfix chain backwards from the called name at `name_at`:
/// `self.shared.queue.lock(...)` → (`["self","shared","queue"]`, true);
/// `mpsc::channel(...)` → (`["mpsc"]`, false).
fn receiver_chain(code: &[&Token], name_at: usize) -> (Vec<String>, bool) {
    let mut chain = Vec::new();
    let Some(prev) = name_at.checked_sub(1) else {
        return (chain, false);
    };
    let is_method = code[prev].is_punct(".");
    if !is_method && !code[prev].is_punct("::") {
        return (chain, false);
    }
    let mut i = prev;
    // `i` sits on the `.` or `::` before the segment we just took.
    while let Some(mut j) = i.checked_sub(1) {
        // Skip a trailing `?` on the previous segment's value.
        if code[j].is_punct("?") {
            let Some(k) = j.checked_sub(1) else { break };
            j = k;
        }
        let seg = code[j];
        if seg.kind == TokenKind::Ident || seg.kind == TokenKind::Int || seg.is_ident("self") {
            chain.push(seg.text.clone());
            i = match j.checked_sub(1) {
                Some(k) if code[k].is_punct(".") || code[k].is_punct("::") => k,
                _ => break,
            };
        } else if seg.is_punct(")") || seg.is_punct("]") {
            let (od, cd) = if seg.is_punct(")") {
                ("(", ")")
            } else {
                ("[", "]")
            };
            let open = match_open(code, j, od, cd);
            let Some(before) = open.checked_sub(1) else {
                break;
            };
            if code[before].kind == TokenKind::Ident {
                chain.push(format!(
                    "{}{}",
                    code[before].text,
                    if od == "(" { "()" } else { "[]" }
                ));
                i = match before.checked_sub(1) {
                    Some(k) if code[k].is_punct(".") || code[k].is_punct("::") => k,
                    _ => break,
                };
            } else {
                break;
            }
        } else {
            break;
        }
    }
    chain.reverse();
    (chain, is_method)
}

/// Splits `(open, close)` into top-level argument ranges: commas inside
/// nested brackets or between closure pipes do not split.
fn split_args(code: &[&Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut nest = 0usize;
    let mut in_pipes = false;
    let mut arg_start = open + 1;
    let mut i = open + 1;
    while i < close {
        let t = code[i];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            nest += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            nest = nest.saturating_sub(1);
        } else if nest == 0 && t.is_punct("|") {
            in_pipes = !in_pipes;
        } else if nest == 0 && !in_pipes && t.is_punct(",") {
            args.push((arg_start, i));
            arg_start = i + 1;
        }
        i += 1;
    }
    if arg_start < close {
        args.push((arg_start, close));
    }
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parsed(src: &str) -> ParsedFile {
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        parse(&code)
    }

    #[test]
    fn items_classify_and_nest() {
        let src = "\
            //! module docs\n\
            use std::sync::{Arc, Mutex};\n\
            pub const LIMIT: usize = 8;\n\
            static NAME: &str = \"x\";\n\
            pub struct Pool<T> { pub queue: Mutex<Vec<T>>, cap: usize }\n\
            enum State { A, B { n: u32 } }\n\
            pub trait Job { fn run(&self); fn label(&self) -> &str { \"j\" } }\n\
            impl<T: Send> Pool<T> {\n\
                pub fn new(cap: usize) -> Pool<T> { todo!() }\n\
            }\n\
            impl<T> Drop for Pool<T> { fn drop(&mut self) {} }\n\
            mod inner { pub fn helper() {} }\n\
            fn main() { let _ = 1; }\n";
        let p = parsed(src);
        assert!(p.recoveries.is_empty(), "{:?}", p.recoveries);
        let kinds: Vec<(ItemKind, &str)> =
            p.items.iter().map(|i| (i.kind, i.name.as_str())).collect();
        assert_eq!(kinds[0].0, ItemKind::Use);
        assert_eq!(kinds[1], (ItemKind::Const, "LIMIT"));
        assert_eq!(kinds[2], (ItemKind::Const, "NAME"));
        assert_eq!(kinds[3], (ItemKind::Struct, "Pool"));
        assert_eq!(kinds[4], (ItemKind::Enum, "State"));
        assert_eq!(kinds[5], (ItemKind::Trait, "Job"));
        assert_eq!(kinds[6], (ItemKind::Impl, "Pool"));
        assert_eq!(kinds[7], (ItemKind::Impl, "Pool"));
        assert_eq!(kinds[8], (ItemKind::Mod, "inner"));
        assert_eq!(kinds[9], (ItemKind::Fn, "main"));

        let pool = &p.items[3];
        assert_eq!(pool.fields.len(), 2);
        assert_eq!(pool.fields[0].name, "queue");
        assert!(pool.fields[0].ty.contains("Mutex"));

        let job = &p.items[5];
        assert_eq!(job.children.len(), 2);
        assert!(job.children[0].body.is_none(), "signature has no body");
        assert!(job.children[1].body.is_some(), "default body parsed");

        let imp = &p.items[7];
        assert_eq!(imp.trait_name.as_deref(), Some("Drop"));
        assert_eq!(imp.children[0].name, "drop");

        assert_eq!(p.fns_with_bodies().len(), 5);
    }

    #[test]
    fn fn_params_carry_names_and_types() {
        let p = parsed("fn f(n: usize, map: &mut HashMap<String, f64>) {}\n");
        let f = &p.items[0];
        assert_eq!(f.fields.len(), 2);
        assert_eq!(f.fields[1].name, "map");
        assert!(f.fields[1].ty.contains("HashMap"));
    }

    #[test]
    fn macros_and_attributes_parse_clean() {
        let src = "\
            #![allow(dead_code)]\n\
            #[derive(Debug)]\n\
            struct S;\n\
            macro_rules! out { ($($t:tt)*) => { print!($($t)*) }; }\n\
            thread_local! { static TL: u32 = 0; }\n\
            my::path::mac!(a, b);\n";
        let p = parsed(src);
        assert!(p.recoveries.is_empty(), "{:?}", p.recoveries);
        assert_eq!(p.items.len(), 4);
        assert_eq!(p.items[1].name, "out");
        assert_eq!(p.items[3].kind, ItemKind::Macro);
    }

    #[test]
    fn recovery_skips_but_records() {
        let p = parsed("@ fn ok() {}\n");
        assert_eq!(p.recoveries.len(), 1);
        assert_eq!(p.items.len(), 1);
        assert_eq!(p.items[0].name, "ok");
    }

    #[test]
    fn calls_extract_chains_and_args() {
        let src = "fn f() {\n\
            self.shared.queue.lock();\n\
            mpsc::channel::<u32>();\n\
            a.compare_exchange(c, n, Ordering::AcqRel, Ordering::Acquire);\n\
            v.sort_by(|a, b| a.total_cmp(b));\n\
            pool().wake.notify_all();\n\
        }\n";
        let tokens = tokenize(src);
        let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
        let p = parse(&code);
        let (open, close) = p.items[0].body.unwrap();
        let calls = calls_in(&code, open, close);
        let lock = calls.iter().find(|c| c.method == "lock").unwrap();
        assert_eq!(lock.chain, ["self", "shared", "queue"]);
        assert!(lock.is_method);
        assert!(lock.args.is_empty());
        let chan = calls.iter().find(|c| c.method == "channel").unwrap();
        assert_eq!(chan.chain, ["mpsc"]);
        assert!(!chan.is_method);
        let cas = calls
            .iter()
            .find(|c| c.method == "compare_exchange")
            .unwrap();
        assert_eq!(cas.args.len(), 4);
        let sort = calls.iter().find(|c| c.method == "sort_by").unwrap();
        assert_eq!(sort.args.len(), 1, "closure commas must not split");
        let notify = calls.iter().find(|c| c.method == "notify_all").unwrap();
        assert_eq!(notify.chain, ["pool()", "wake"]);
    }
}
