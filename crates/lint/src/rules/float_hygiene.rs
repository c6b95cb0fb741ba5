//! `float-hygiene` — no exact float equality in the numeric crates.
//!
//! The paper's fits run in log space, where a single NaN poisons a whole
//! regression. In the fitting/stats/projection crates this rule flags
//! `==` / `!=` with a float-literal (or `NAN`/`INFINITY`) operand: exact
//! float equality is almost always a bug; when an exact-zero guard is
//! genuinely intended, say so with a justified allow.
//!
//! `clippy::float_cmp` is no substitute: it exempts comparisons against
//! `0.0` and the infinities, which are exactly the guards this rule
//! polices. NaN-unsafe `partial_cmp(..).unwrap()` sort keys are
//! `clippy::unwrap_used` findings under the clippy gate in
//! `tests/lint.rs`.

use crate::lexer::TokenKind;
use crate::workspace::Workspace;
use crate::{Finding, Lint};

/// See the module docs.
pub struct FloatHygiene;

/// The crates whose numeric kernels this rule polices.
const SCOPES: [&str; 3] = ["crates/stats", "crates/chipdb", "crates/projection"];

const FLOAT_CONSTS: [&str; 3] = ["NAN", "INFINITY", "NEG_INFINITY"];

impl Lint for FloatHygiene {
    fn name(&self) -> &'static str {
        "float-hygiene"
    }

    fn description(&self) -> &'static str {
        "no float ==/!= against a float literal or NAN/INFINITY in fitting/stats/projection code"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        for scope in SCOPES {
            for file in ws.files_under(scope) {
                if file.test_file {
                    continue;
                }
                let code = file.code_tokens();
                for (i, t) in code.iter().enumerate() {
                    if file.is_test_line(t.line) {
                        continue;
                    }
                    if t.is_punct("==") || t.is_punct("!=") {
                        let floaty = |j: Option<usize>| {
                            j.and_then(|j| code.get(j)).is_some_and(|n| {
                                n.kind == TokenKind::Float
                                    || (n.kind == TokenKind::Ident
                                        && FLOAT_CONSTS.contains(&n.text.as_str()))
                            })
                        };
                        // `x == f64::NAN`: the constant sits two tokens
                        // past the operator, behind the `f64::` path.
                        let pathed_const = code.get(i + 2).is_some_and(|p| p.is_punct("::"))
                            && floaty(Some(i + 3));
                        if floaty(i.checked_sub(1)) || floaty(Some(i + 1)) || pathed_const {
                            findings.push(Finding {
                                rule: self.name(),
                                path: file.rel_path.clone(),
                                line: t.line,
                                col: t.col,
                                message: format!(
                                    "float `{}` comparison; compare against an epsilon, \
                                     use `is_nan()`/`is_finite()`, or justify the exact \
                                     check with `// lint:allow(float-hygiene): <why>`",
                                    t.text
                                ),
                            });
                        }
                    }
                }
            }
        }
        findings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::workspace;

    fn check_at(path: &str, src: &str) -> Vec<Finding> {
        FloatHygiene.check(&workspace(&[(path, src)]))
    }

    #[test]
    fn flags_float_literal_equality() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\nfn g(y: f64) -> bool { 1.5 != y }\n";
        let found = check_at("crates/stats/src/lib.rs", src);
        assert_eq!(found.len(), 2);
        assert!(found[0].message.contains("=="));
        assert_eq!(found[1].line, 2);
    }

    #[test]
    fn flags_nan_constant_equality() {
        let src = "fn f(x: f64) -> bool { x == f64::NAN }\n";
        assert_eq!(check_at("crates/projection/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn integer_equality_is_fine() {
        let src = "fn f(x: usize) -> bool { x == 0 && x != 3 }\n";
        assert!(check_at("crates/stats/src/lib.rs", src).is_empty());
    }

    #[test]
    fn out_of_scope_crates_are_not_checked() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
        assert!(check_at("crates/server/src/lib.rs", src).is_empty());
        assert!(check_at("src/bin/accelwall.rs", src).is_empty());
    }

    #[test]
    fn test_scope_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(x: f64) -> bool { x == 0.5 }\n}\n";
        assert!(check_at("crates/stats/src/lib.rs", src).is_empty());
    }
}
