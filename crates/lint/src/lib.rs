//! `accelwall-lint` — a dependency-free static analyzer for the
//! workspace's own invariants.
//!
//! The reproduction's credibility rests on properties the paper's models
//! silently assume — NaN-free log-log regressions, byte-identical
//! output, deliberate atomic orderings, a cycle-free lock order — that
//! earlier PRs established only by convention. This crate turns the ones
//! no compiler check or plain test can see into a machine-checked gate,
//! mirroring the design of the experiment pipeline it polices:
//!
//! * [`lexer`] — a hand-rolled, line/column-tracking Rust tokenizer that
//!   understands strings, raw strings, comments, and (via [`source`])
//!   `#[cfg(test)]` / `mod tests` scopes;
//! * [`parser`] + [`ast`] — a recursive-descent parser over the code
//!   tokens producing a lightweight item tree (fns, impls, consts,
//!   use-paths) plus call/method-chain extraction, so semantic rules
//!   reason about *which* function and *which* receiver, not just which
//!   token;
//! * [`symbols`] — a per-crate symbol index (struct-field and
//!   const/static types) distilled from the trees;
//! * [`workspace`] — loads every `.rs` file under the workspace root;
//! * [`Lint`] + [`LintRegistry`] — a rule trait and the standard roster,
//!   exactly like `Experiment` + `Registry::paper()`;
//! * [`rules`] — the four shipped rules (see [`LintRegistry::standard`]):
//!   token-level `float-hygiene` and the parser-backed `atomic-ordering`,
//!   `lock-order`, and `determinism` concurrency rules.
//!
//! Generic policy — no panic paths or `process::exit` in shipping code,
//! no unbounded `mpsc::channel`, no registry dependencies, no experiment
//! type left out of the registry (`dead_code`) — is left to clippy,
//! rustc and `Cargo.lock`; the clippy gate in `tests/lint.rs` enforces
//! it. Checks over values the binary holds at run time are plain tests:
//! `tests/docs.rs` holds the docs to the registry and the route labels,
//! and `tests/faults.rs` fires every static fault site.
//!
//! Findings can be silenced, one site at a time, with a justified
//! escape hatch: `// lint:allow(<rule>): <why this site is safe>`.
//! An allow without a justification, naming an unknown rule, or
//! suppressing nothing is itself a finding, so the escape hatches stay
//! as reviewable as the violations they cover.
//!
//! The same engine backs two gates: the `accelwall lint [--json]` CLI
//! subcommand and the `tests/lint.rs` integration test asserting the
//! tree is clean.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;
pub mod symbols;
pub mod workspace;

use accelerator_wall::json::Value;
use std::fmt;

pub use source::SourceFile;
pub use workspace::Workspace;

/// One rule violation, anchored to a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (its [`Lint::name`]).
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line; 0 when the finding concerns the file as a whole.
    pub line: usize,
    /// 1-based column; 0 when unanchored.
    pub col: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}:{}: ", self.path, self.line, self.col)?;
        } else {
            write!(f, "{}: ", self.path)?;
        }
        write!(f, "[{}] {}", self.rule, self.message)
    }
}

/// A pluggable invariant check.
///
/// Implementations look at the whole [`Workspace`] and return raw
/// findings; `lint:allow` suppression and allow-comment auditing are
/// applied centrally by [`LintRegistry::run`], so individual rules stay
/// oblivious to the escape-hatch mechanics.
pub trait Lint {
    /// The kebab-case rule name used in output and `lint:allow(...)`.
    fn name(&self) -> &'static str;

    /// One line describing the invariant the rule enforces.
    fn description(&self) -> &'static str;

    /// Scans the workspace and reports every violation.
    fn check(&self, ws: &Workspace) -> Vec<Finding>;
}

/// The rule a lint-allow audit finding is reported under.
pub const ALLOW_AUDIT_RULE: &str = "lint-allow";

/// The allow-audit rule's description, for the roster listing.
pub const ALLOW_AUDIT_DESCRIPTION: &str =
    "every lint:allow names a known rule, carries a justification, and suppresses something";

/// The ordered rule roster — the analyzer's `Registry::paper()`.
pub struct LintRegistry {
    lints: Vec<Box<dyn Lint>>,
}

impl LintRegistry {
    /// Every shipped rule, in reporting order.
    pub fn standard() -> LintRegistry {
        LintRegistry {
            lints: vec![
                Box::new(rules::float_hygiene::FloatHygiene),
                Box::new(rules::atomic_ordering::AtomicOrdering),
                Box::new(rules::lock_order::LockOrder),
                Box::new(rules::determinism::Determinism),
            ],
        }
    }

    /// Iterates the registered rules.
    pub fn lints(&self) -> impl Iterator<Item = &dyn Lint> {
        self.lints.iter().map(Box::as_ref)
    }

    /// Whether `rule` names a registered lint (or the allow-audit rule).
    pub fn knows(&self, rule: &str) -> bool {
        rule == ALLOW_AUDIT_RULE || self.lints().any(|l| l.name() == rule)
    }

    /// Runs every rule over the workspace, applies justified
    /// `lint:allow` suppressions, and audits the allow comments
    /// themselves (unknown rule, missing justification, suppressing
    /// nothing — each is a finding under [`ALLOW_AUDIT_RULE`]).
    pub fn run(&self, ws: &Workspace) -> Report {
        let mut findings = Vec::new();
        let mut used = Vec::new(); // (path, allow line, rule) triples
        for lint in self.lints() {
            for finding in lint.check(ws) {
                let allow = ws
                    .files
                    .iter()
                    .find(|f| f.rel_path == finding.path)
                    .and_then(|f| f.allow_for(finding.rule, finding.line));
                match allow {
                    Some(a) if !a.justification.is_empty() => {
                        used.push((finding.path.clone(), a.line, finding.rule));
                    }
                    _ => findings.push(finding),
                }
            }
        }
        // Audit the escape hatches.
        for f in &ws.files {
            for a in &f.allows {
                let message = if !self.knows(&a.rule) {
                    let known: Vec<&str> = self.lints().map(Lint::name).collect();
                    format!(
                        "lint:allow names unknown rule {:?}; known rules: {}",
                        a.rule,
                        known.join(" ")
                    )
                } else if a.justification.is_empty() {
                    format!(
                        "lint:allow({}) must carry a justification: \
                         `// lint:allow({}): <why this site is safe>`",
                        a.rule, a.rule
                    )
                } else if !used
                    .iter()
                    .any(|(p, l, r)| *p == f.rel_path && *l == a.line && *r == a.rule)
                {
                    format!(
                        "lint:allow({}) suppresses nothing here; remove the stale comment",
                        a.rule
                    )
                } else {
                    continue;
                };
                findings.push(Finding {
                    rule: ALLOW_AUDIT_RULE,
                    path: f.rel_path.clone(),
                    line: a.line,
                    col: 0,
                    message,
                });
            }
        }
        findings.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
        });
        Report {
            findings,
            rules: self
                .lints()
                .map(|l| (l.name(), l.description()))
                .chain(std::iter::once((ALLOW_AUDIT_RULE, ALLOW_AUDIT_DESCRIPTION)))
                .collect(),
            files_scanned: ws.files.len(),
        }
    }
}

/// The outcome of one [`LintRegistry::run`].
#[derive(Debug)]
pub struct Report {
    /// Surviving findings, sorted by path, line, column, rule.
    pub findings: Vec<Finding>,
    /// The `(name, description)` roster of rules that ran.
    pub rules: Vec<(&'static str, &'static str)>,
    /// How many source files were scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Whether the workspace passed every rule.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The machine-readable findings document (`accelwall lint --json`).
    pub fn to_json(&self) -> Value {
        Value::object([
            ("clean", Value::from(self.is_clean())),
            ("files_scanned", Value::from(self.files_scanned)),
            ("finding_count", Value::from(self.findings.len())),
            (
                "rules",
                Value::array(self.rules.iter().map(|(name, description)| {
                    Value::object([
                        ("name", Value::from(*name)),
                        ("description", Value::from(*description)),
                    ])
                })),
            ),
            (
                "findings",
                Value::array(self.findings.iter().map(|f| {
                    Value::object([
                        ("rule", Value::from(f.rule)),
                        ("path", Value::from(f.path.as_str())),
                        ("line", Value::from(f.line)),
                        ("column", Value::from(f.col)),
                        ("message", Value::from(f.message.as_str())),
                    ])
                })),
            ),
        ])
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        if self.is_clean() {
            writeln!(
                f,
                "lint clean: {} rules over {} files, 0 findings",
                self.rules.len(),
                self.files_scanned
            )
        } else {
            writeln!(
                f,
                "lint failed: {} finding(s) from {} rules over {} files",
                self.findings.len(),
                self.rules.len(),
                self.files_scanned
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_rule_names_are_unique_and_kebab() {
        let r = LintRegistry::standard();
        let names: Vec<&str> = r.lints().map(Lint::name).collect();
        assert_eq!(names.len(), 4);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate rule names");
        for (name, lint) in names.iter().zip(r.lints()) {
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{name} is not kebab-case"
            );
            assert!(!lint.description().is_empty(), "{name} lacks a description");
        }
        assert!(r.knows("float-hygiene"));
        assert!(r.knows("atomic-ordering"));
        assert!(r.knows(ALLOW_AUDIT_RULE));
        assert!(!r.knows("no-such-rule"));
    }

    #[test]
    fn finding_display_is_editor_clickable() {
        let f = Finding {
            rule: "float-hygiene",
            path: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 13,
            message: "boom".into(),
        };
        assert_eq!(
            f.to_string(),
            "crates/x/src/lib.rs:7:13: [float-hygiene] boom"
        );
        let roster_level = Finding {
            line: 0,
            col: 0,
            ..f
        };
        assert_eq!(
            roster_level.to_string(),
            "crates/x/src/lib.rs: [float-hygiene] boom"
        );
    }
}
