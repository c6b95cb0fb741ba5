//! A lexed source file plus the two per-file analyses every rule shares:
//! which lines are test-only code, and where `// lint:allow` escape
//! hatches sit.
//!
//! Test scope matters because the rules police *shipping* code:
//! `#[cfg(test)]` items, `mod tests` bodies, and `#[test]` functions are
//! exempt, as are whole files that live under `tests/`, `benches/`, or
//! `examples/`.
//!
//! The escape hatch is deliberately noisy to use: an allow comment must
//! name the rule it silences *and* carry a justification after a colon —
//! `// lint:allow(float-hygiene): an exact-zero guard, not a tolerance`.
//! A bare `// lint:allow(rule)` is itself a finding, so suppressions
//! stay reviewable instead of accreting silently.

use crate::ast::ParsedFile;
use crate::lexer::{tokenize, Token, TokenKind};
use crate::parser;
use std::path::PathBuf;

/// One `// lint:allow(rule): justification` comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule name inside the parentheses.
    pub rule: String,
    /// The justification after the colon, trimmed; empty when missing.
    pub justification: String,
    /// 1-based line the comment sits on.
    pub line: usize,
}

/// A loaded, lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// The raw source text.
    pub text: String,
    /// The token stream, comments included.
    pub tokens: Vec<Token>,
    /// The item tree over the code-token view (see
    /// [`SourceFile::code_tokens`]); token ranges in it index that view.
    pub parsed: ParsedFile,
    /// `test_lines[line - 1]` is true when that line is test-only code.
    pub test_lines: Vec<bool>,
    /// Every `lint:allow` comment in the file.
    pub allows: Vec<Allow>,
    /// Whether the whole file is test collateral (under `tests/`,
    /// `benches/`, or `examples/`).
    pub test_file: bool,
}

impl SourceFile {
    /// Lexes `text` and runs the shared per-file analyses.
    pub fn new(rel_path: String, abs_path: PathBuf, text: String) -> SourceFile {
        let tokens = tokenize(&text);
        let line_count = text.lines().count().max(1);
        let test_file = {
            let parts: Vec<&str> = rel_path.split('/').collect();
            parts
                .iter()
                .any(|p| matches!(*p, "tests" | "benches" | "examples"))
        };
        let mut test_lines = vec![test_file; line_count];
        if !test_file {
            mark_test_spans(&tokens, &mut test_lines);
        }
        let allows = collect_allows(&tokens);
        let parsed = {
            let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
            parser::parse(&code)
        };
        SourceFile {
            rel_path,
            abs_path,
            text,
            tokens,
            parsed,
            test_lines,
            allows,
            test_file,
        }
    }

    /// Whether `line` (1-based) is inside test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines
            .get(line.saturating_sub(1))
            .copied()
            .unwrap_or(self.test_file)
    }

    /// The allow comment (if any) that covers a finding of `rule` on
    /// `line`: either a trailing comment on the same line or a comment on
    /// the line directly above.
    pub fn allow_for(&self, rule: &str, line: usize) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
    }

    /// The non-comment tokens, for rules that match on code structure.
    pub fn code_tokens(&self) -> Vec<&Token> {
        self.tokens.iter().filter(|t| !t.is_comment()).collect()
    }
}

/// Marks the line spans of `#[cfg(test)]` items, `#[test]` functions, and
/// `mod tests { ... }` bodies.
///
/// The walk is token-based: after a test attribute (or the `mod tests`
/// header) it finds the item's opening `{` and its brace-matched close.
/// String and comment contents were already folded into single tokens by
/// the lexer, so brace counting cannot be fooled by braces in literals.
fn mark_test_spans(tokens: &[Token], test_lines: &mut [bool]) {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut i = 0;
    while i < code.len() {
        let start = code[i];
        let is_attr_open = start.is_punct("#") && code.get(i + 1).is_some_and(|t| t.is_punct("["));
        if is_attr_open {
            // Scan the attribute body for the `test` / `cfg(test)` marker.
            // A `test` inside `not(...)` (as in `#[cfg(not(test))]`) means
            // the opposite — shipping code — so track the paren depth at
            // which a `not` group opened and ignore idents inside it.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut paren_depth = 0usize;
            let mut not_depth: Option<usize> = None;
            let mut has_test = false;
            while j < code.len() && depth > 0 {
                let t = code[j];
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                } else if t.is_punct("(") {
                    if code
                        .get(j.wrapping_sub(1))
                        .is_some_and(|p| p.is_ident("not"))
                        && not_depth.is_none()
                    {
                        not_depth = Some(paren_depth);
                    }
                    paren_depth += 1;
                } else if t.is_punct(")") {
                    paren_depth = paren_depth.saturating_sub(1);
                    if not_depth == Some(paren_depth) {
                        not_depth = None;
                    }
                } else if t.is_ident("test") && not_depth.is_none() {
                    has_test = true;
                }
                j += 1;
            }
            if has_test {
                if let Some((open, close)) = item_body(&code, j) {
                    mark(test_lines, start.line, close.line.max(open.line));
                }
                // Also cover the attribute lines themselves.
                mark(test_lines, start.line, code[j.saturating_sub(1)].line);
            }
            i = j;
            continue;
        }
        if start.is_ident("mod") && code.get(i + 1).is_some_and(|t| t.is_ident("tests")) {
            if let Some((open, close)) = item_body(&code, i + 2) {
                mark(test_lines, start.line, close.line.max(open.line));
            }
        }
        i += 1;
    }
}

/// From `from`, finds the next `{` (stopping at `;`, which means the item
/// has no body) and returns the open and its brace-matched close token.
fn item_body<'t>(code: &[&'t Token], from: usize) -> Option<(&'t Token, &'t Token)> {
    let mut i = from;
    while i < code.len() {
        let t = code[i];
        if t.is_punct(";") {
            return None;
        }
        if t.is_punct("{") {
            let open = t;
            let mut depth = 1usize;
            let mut j = i + 1;
            while j < code.len() {
                if code[j].is_punct("{") {
                    depth += 1;
                } else if code[j].is_punct("}") {
                    depth -= 1;
                    if depth == 0 {
                        return Some((open, code[j]));
                    }
                }
                j += 1;
            }
            return Some((open, code[code.len() - 1]));
        }
        i += 1;
    }
    None
}

fn mark(test_lines: &mut [bool], from_line: usize, to_line: usize) {
    for line in from_line..=to_line {
        if let Some(slot) = test_lines.get_mut(line.saturating_sub(1)) {
            *slot = true;
        }
    }
}

/// Pulls every `lint:allow(rule): justification` out of the comments.
///
/// A directive must *be* the comment: `lint:allow(` right at the start of
/// a plain `//` or `/* */` comment. Doc comments (`///`, `//!`, `/**`,
/// `/*!`) and prose that merely mentions the syntax are documentation,
/// not suppressions.
fn collect_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in tokens {
        if t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment {
            continue;
        }
        let Some(body) = plain_comment_body(&t.text) else {
            continue;
        };
        let Some(rest) = body.trim_start().strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let justification = rest[close + 1..]
            .strip_prefix(':')
            .map(|j| {
                let j = j.trim();
                // Stop at a block-comment terminator if present.
                j.split("*/").next().unwrap_or(j).trim().to_string()
            })
            .unwrap_or_default();
        allows.push(Allow {
            rule,
            justification,
            line: t.line,
        });
    }
    allows
}

/// The content of a plain (non-doc) comment, or `None` for doc comments.
fn plain_comment_body(text: &str) -> Option<&str> {
    if let Some(rest) = text.strip_prefix("//") {
        if rest.starts_with('/') || rest.starts_with('!') {
            return None;
        }
        return Some(rest);
    }
    if let Some(rest) = text.strip_prefix("/*") {
        if rest.starts_with('*') || rest.starts_with('!') {
            return None;
        }
        return Some(rest);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(
            rel.to_string(),
            Path::new("/nonexistent").into(),
            src.into(),
        )
    }

    #[test]
    fn cfg_test_modules_are_test_scope() {
        let src = "fn shipping() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn helper() { x.unwrap(); }\n\
                   }\n\
                   fn also_shipping() {}\n";
        let f = file("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn bare_mod_tests_is_test_scope() {
        let src = "mod tests {\n    fn f() {}\n}\nfn shipping() {}\n";
        let f = file("crates/x/src/lib.rs", src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(4));
    }

    #[test]
    fn test_attribute_covers_one_function() {
        let src = "#[test]\nfn case() {\n    boom();\n}\nfn shipping() {}\n";
        let f = file("crates/x/src/lib.rs", src);
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn cfg_all_test_counts() {
        let src = "#[cfg(all(test, unix))]\nmod tests {\n    fn f() {}\n}\n";
        let f = file("crates/x/src/lib.rs", src);
        assert!(f.is_test_line(3));
    }

    #[test]
    fn cfg_not_test_is_shipping_code() {
        let src = "#[cfg(not(test))]\nfn shipping() {\n    work();\n}\n";
        let f = file("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn files_under_tests_benches_examples_are_all_test() {
        for rel in [
            "tests/cli.rs",
            "crates/stats/tests/properties.rs",
            "crates/bench/benches/serve.rs",
            "examples/quickstart.rs",
        ] {
            assert!(file(rel, "fn f() { x.unwrap(); }").is_test_line(1), "{rel}");
        }
        assert!(!file("crates/x/src/lib.rs", "fn f() {}").is_test_line(1));
    }

    #[test]
    fn allows_parse_rule_and_justification() {
        let src = "x(); // lint:allow(determinism): order-insensitive sum\n\
                   y(); // lint:allow(float-hygiene)\n";
        let f = file("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 2);
        assert_eq!(f.allows[0].rule, "determinism");
        assert_eq!(f.allows[0].justification, "order-insensitive sum");
        assert_eq!(f.allows[0].line, 1);
        assert!(f.allows[1].justification.is_empty());
    }

    #[test]
    fn allow_covers_same_line_and_next_line() {
        let src = "// lint:allow(rule-a): above\nx();\ny(); // lint:allow(rule-b): trailing\n";
        let f = file("crates/x/src/lib.rs", src);
        assert!(f.allow_for("rule-a", 2).is_some());
        assert!(f.allow_for("rule-b", 3).is_some());
        assert!(f.allow_for("rule-a", 3).is_none());
        assert!(f.allow_for("rule-b", 2).is_none());
    }

    #[test]
    fn doc_comments_and_prose_mentions_are_not_directives() {
        let src = "//! docs may cite lint:allow(rule-a): not a directive\n\
                   /// silence with `// lint:allow(rule-b): <why>`\n\
                   // prose mentioning lint:allow(rule-c): mid-comment\n\
                   /* block prose about lint:allow(rule-d): also not */\n\
                   fn f() {}\n\
                   /* lint:allow(rule-e): a real block directive */ x();\n";
        let f = file("crates/x/src/lib.rs", src);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "rule-e");
        assert_eq!(f.allows[0].justification, "a real block directive");
    }

    #[test]
    fn string_braces_do_not_derail_span_tracking() {
        let src = "#[cfg(test)]\nmod tests {\n    const S: &str = \"}\";\n    fn f() {}\n}\nfn shipping() {}\n";
        let f = file("crates/x/src/lib.rs", src);
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }
}
