//! The item tree the recursive-descent parser produces.
//!
//! The semantic rules (`atomic-ordering`, `lock-order`, `determinism`)
//! need more shape than a token stream offers: which function a call
//! sits in, what type a struct field has. A full Rust AST would be
//! wildly out of proportion (and the workspace takes no dependencies,
//! so no `syn`), so [`crate::parser`]
//! produces this deliberately lightweight tree instead:
//!
//! * items carry their name, kind, and the token range of their
//!   brace-matched body — bodies are *not* parsed into statements;
//!   rules scan the body's token slice with [`crate::parser::calls_in`];
//! * struct fields and `fn` parameters keep their declared type as the
//!   joined token text, enough for `contains("AtomicU64")`-style
//!   classification;
//! * all positions are indices into the *code* token view
//!   ([`crate::SourceFile::code_tokens`]), so comments never perturb
//!   ranges.
//!
//! Anything the parser cannot classify becomes a [`ParseError`]
//! recovery (skip one token, keep going) rather than an abort; the
//! workspace gate asserts the real tree parses with zero recoveries.

/// A 1-based source position, for anchoring findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// What an [`Item`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn` (free, impl method, or trait method).
    Fn,
    /// `struct`, with [`Item::fields`] populated for brace structs.
    Struct,
    /// `enum` or `union`; variants are not parsed.
    Enum,
    /// `trait`, with its methods as [`Item::children`].
    Trait,
    /// `impl` block; [`Item::name`] is the self type,
    /// [`Item::trait_name`] the implemented trait if any.
    Impl,
    /// `const` or `static` item.
    Const,
    /// `use` declaration; [`Item::name`] is the joined path text.
    Use,
    /// `mod`, with its items as [`Item::children`] when inline.
    Mod,
    /// `type` alias.
    TypeAlias,
    /// `macro_rules!` definition or an item-level macro invocation.
    Macro,
    /// `extern crate` or an `extern "abi" { ... }` block.
    Extern,
}

/// A named, typed slot: a struct field or an `fn` parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// The field or binding name.
    pub name: String,
    /// The declared type as space-joined token text
    /// (`"Arc < Vec < u8 > >"`).
    pub ty: String,
    /// Where the name token sits.
    pub span: Span,
}

/// One parsed item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The item class.
    pub kind: ItemKind,
    /// The item's name: fn/struct/mod/const name, impl self type,
    /// joined path text for `use`.
    pub name: String,
    /// For `impl Trait for Type`, the trait's name.
    pub trait_name: Option<String>,
    /// Position of the introducing keyword (or name) token.
    pub span: Span,
    /// Code-token indices of the body's `{` and matching `}`, when the
    /// item has a brace body the parser did not descend into (fn bodies,
    /// enum bodies). `impl`/`trait`/`mod` bodies are descended into via
    /// [`Item::children`] instead.
    pub body: Option<(usize, usize)>,
    /// Struct fields (brace structs) or `fn` parameters.
    pub fields: Vec<Field>,
    /// Nested items: impl/trait members, inline-mod items.
    pub children: Vec<Item>,
}

impl Item {
    pub(crate) fn new(kind: ItemKind, name: String, span: Span) -> Item {
        Item {
            kind,
            name,
            trait_name: None,
            span,
            body: None,
            fields: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// A token the parser could not fit into the item grammar; it skipped
/// one token and resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where the unparseable token sits.
    pub span: Span,
    /// The token text and what was expected.
    pub message: String,
}

/// The parse result for one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedFile {
    /// Top-level items, in source order.
    pub items: Vec<Item>,
    /// Every recovery the parser performed; empty on a clean parse.
    pub recoveries: Vec<ParseError>,
}

impl ParsedFile {
    /// Every item in the tree, depth-first, including nested ones.
    pub fn walk(&self) -> Vec<&Item> {
        fn visit<'a>(items: &'a [Item], out: &mut Vec<&'a Item>) {
            for item in items {
                out.push(item);
                visit(&item.children, out);
            }
        }
        let mut out = Vec::new();
        visit(&self.items, &mut out);
        out
    }

    /// Every `fn` in the tree (free fns, impl methods, trait defaults)
    /// that has a body.
    pub fn fns_with_bodies(&self) -> Vec<&Item> {
        self.walk()
            .into_iter()
            .filter(|i| i.kind == ItemKind::Fn && i.body.is_some())
            .collect()
    }
}

/// One call site extracted from a body's token range: a method call
/// (`recv.a.b.method(args)`) or a path/bare call (`mpsc::channel()`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Receiver segments, outermost first: `self.inner.cursor.load(..)`
    /// yields `["self", "inner", "cursor"]`; call segments render as
    /// `"name()"`. Path calls keep the path segments
    /// (`["mpsc"]` for `mpsc::channel(..)`); bare calls are empty.
    pub chain: Vec<String>,
    /// The called name (`load`, `channel`).
    pub method: String,
    /// True for `.method(...)`, false for `path::call(...)` / bare.
    pub is_method: bool,
    /// Code-token index of the opening `(`.
    pub open: usize,
    /// Code-token index of the matching `)`.
    pub close: usize,
    /// Top-level argument ranges `[start, end)` between the parens,
    /// split at commas outside nested brackets and closure pipes.
    pub args: Vec<(usize, usize)>,
    /// Position of the called-name token.
    pub span: Span,
}
