//! `doc-sync` — `EXPERIMENTS.md` tracks the registry roster.
//!
//! The registry is the single source of truth for target ids and
//! descriptions; the CLI and server derive their rosters from it at
//! runtime, but Markdown cannot. This rule closes that last gap:
//!
//! * `EXPERIMENTS.md` must contain a `## Target roster` section whose
//!   table rows are exactly `Registry::paper()` — same ids, same
//!   descriptions, same order — so the document can never advertise a
//!   target that does not run, or omit one that does;
//! * every `` `accelwall <target>` `` reference anywhere in the document
//!   must name a registered target (or a CLI verb: `all`, `list`,
//!   `serve`, `lint`), catching stale references when a target is
//!   renamed.

use crate::workspace::Workspace;
use crate::{Finding, Lint};
use accelerator_wall::registry::Registry;

/// See the module docs.
pub struct DocSync;

const DOC_PATH: &str = "EXPERIMENTS.md";

/// The heading whose table must mirror the registry.
const ROSTER_HEADING: &str = "## Target roster";

/// CLI verbs that are not experiment targets but are fine to reference.
const CLI_VERBS: [&str; 4] = ["all", "list", "serve", "lint"];

impl Lint for DocSync {
    fn name(&self) -> &'static str {
        "doc-sync"
    }

    fn description(&self) -> &'static str {
        "EXPERIMENTS.md's target roster matches Registry::paper() and references no stale targets"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        let has_experiments = ws
            .files_under("crates/core/src/experiments")
            .next()
            .is_some();
        let Some(doc) = ws.experiments_md.as_deref() else {
            if has_experiments {
                findings.push(Finding {
                    rule: self.name(),
                    path: DOC_PATH.to_string(),
                    line: 0,
                    col: 0,
                    message: "EXPERIMENTS.md is missing but the workspace has experiment \
                              targets to document"
                        .to_string(),
                });
            }
            return findings;
        };
        if !has_experiments {
            // Fixture workspaces without the experiment tree only get the
            // stale-reference scan.
            self.check_references(doc, &mut findings);
            return findings;
        }
        let registry = Registry::paper();
        let expected: Vec<(&str, &str)> = registry
            .experiments()
            .map(|e| (e.id(), e.description()))
            .collect();
        match roster_rows(doc) {
            None => findings.push(Finding {
                rule: self.name(),
                path: DOC_PATH.to_string(),
                line: 0,
                col: 0,
                message: format!(
                    "missing `{ROSTER_HEADING}` section; it must table every \
                     Registry::paper() target (id, description, deps)"
                ),
            }),
            Some(rows) => {
                for (i, (line_no, id, description)) in rows.iter().enumerate() {
                    match expected.get(i) {
                        None => findings.push(Finding {
                            rule: self.name(),
                            path: DOC_PATH.to_string(),
                            line: *line_no,
                            col: 0,
                            message: format!(
                                "roster row {id:?} has no matching registry entry \
                                 (the registry has {} targets)",
                                expected.len()
                            ),
                        }),
                        Some((want_id, want_desc)) => {
                            if id != want_id {
                                findings.push(Finding {
                                    rule: self.name(),
                                    path: DOC_PATH.to_string(),
                                    line: *line_no,
                                    col: 0,
                                    message: format!(
                                        "roster row {} is {id:?} but the registry has \
                                         {want_id:?} at this position (rows must follow \
                                         registry order)",
                                        i + 1
                                    ),
                                });
                            } else if description != want_desc {
                                findings.push(Finding {
                                    rule: self.name(),
                                    path: DOC_PATH.to_string(),
                                    line: *line_no,
                                    col: 0,
                                    message: format!(
                                        "roster description for {id:?} is {description:?} \
                                         but the registry says {want_desc:?}"
                                    ),
                                });
                            }
                        }
                    }
                }
                if rows.len() < expected.len() {
                    let missing: Vec<&str> =
                        expected[rows.len()..].iter().map(|(id, _)| *id).collect();
                    findings.push(Finding {
                        rule: self.name(),
                        path: DOC_PATH.to_string(),
                        line: 0,
                        col: 0,
                        message: format!(
                            "target roster is missing registered targets: {}",
                            missing.join(" ")
                        ),
                    });
                }
            }
        }
        self.check_references(doc, &mut findings);
        findings
    }
}

impl DocSync {
    /// Flags `accelwall <word>` references to unknown targets.
    fn check_references(&self, doc: &str, findings: &mut Vec<Finding>) {
        let registry = Registry::paper();
        let ids = registry.ids();
        for (idx, line) in doc.lines().enumerate() {
            let mut rest = line;
            while let Some(at) = rest.find("accelwall ") {
                rest = &rest[at + "accelwall ".len()..];
                let word: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if word.is_empty() {
                    continue;
                }
                if !ids.contains(&word.as_str()) && !CLI_VERBS.contains(&word.as_str()) {
                    findings.push(Finding {
                        rule: self.name(),
                        path: DOC_PATH.to_string(),
                        line: idx + 1,
                        col: 0,
                        message: format!(
                            "`accelwall {word}` references an unknown target; known \
                             targets come from Registry::paper() (run `accelwall list`)"
                        ),
                    });
                }
            }
        }
    }
}

/// Parses the roster table: `(line, id, description)` per data row.
/// Returns `None` when the heading is absent.
fn roster_rows(doc: &str) -> Option<Vec<(usize, String, String)>> {
    let mut rows = Vec::new();
    let mut in_section = false;
    let mut header_rows_skipped = 0usize;
    for (idx, line) in doc.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with("## ") {
            if in_section {
                break;
            }
            in_section = trimmed == ROSTER_HEADING;
            continue;
        }
        if !in_section || !trimmed.starts_with('|') {
            continue;
        }
        // Skip the `| id | description |` header and `|---|---|` ruler.
        if header_rows_skipped < 2 {
            header_rows_skipped += 1;
            continue;
        }
        let cells: Vec<&str> = trimmed.trim_matches('|').split('|').collect();
        if cells.len() < 2 {
            continue;
        }
        let id = cells[0].trim().trim_matches('`').to_string();
        let description = cells[1].trim().to_string();
        rows.push((idx + 1, id, description));
    }
    if in_section || !rows.is_empty() {
        Some(rows)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::workspace_full;
    use crate::Workspace;
    use std::path::Path;

    const EXP_FILE: (&str, &str) = (
        "crates/core/src/experiments/x.rs",
        "fn id(&self) -> &'static str { \"fig1\" }",
    );

    /// A roster document generated from the real registry: must pass.
    fn faithful_roster() -> String {
        let registry = Registry::paper();
        let mut doc =
            String::from("# EXPERIMENTS\n\n## Target roster\n\n| id | description |\n|---|---|\n");
        use std::fmt::Write as _;
        for e in registry.experiments() {
            let _ = writeln!(doc, "| `{}` | {} |", e.id(), e.description());
        }
        doc
    }

    #[test]
    fn the_real_experiments_md_is_in_sync() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let ws = Workspace::discover(here).expect("workspace above crates/lint");
        assert_eq!(DocSync.check(&ws), Vec::new());
    }

    #[test]
    fn faithful_roster_passes() {
        let ws = workspace_full(&[EXP_FILE], Some(&faithful_roster()));
        assert_eq!(DocSync.check(&ws), Vec::new());
    }

    #[test]
    fn missing_document_is_a_finding_only_with_experiments_present() {
        let with = workspace_full(&[EXP_FILE], None);
        assert!(DocSync
            .check(&with)
            .iter()
            .any(|f| f.message.contains("missing")));
        let without = workspace_full(&[("crates/x/src/lib.rs", "fn f() {}")], None);
        assert!(DocSync.check(&without).is_empty());
    }

    #[test]
    fn missing_roster_section_is_a_finding() {
        let ws = workspace_full(&[EXP_FILE], Some("# EXPERIMENTS\n\nno roster here\n"));
        let found = DocSync.check(&ws);
        assert!(found.iter().any(|f| f.message.contains("Target roster")));
    }

    #[test]
    fn wrong_description_and_missing_rows_are_findings() {
        let mut doc = faithful_roster();
        // Corrupt the first data row's description.
        doc = doc.replacen(
            Registry::paper()
                .experiments()
                .next()
                .unwrap()
                .description(),
            "something stale",
            1,
        );
        let ws = workspace_full(&[EXP_FILE], Some(&doc));
        assert!(DocSync
            .check(&ws)
            .iter()
            .any(|f| f.message.contains("something stale")));
        // Drop the last row.
        let mut doc = faithful_roster();
        let trimmed = doc.trim_end().rfind('\n').unwrap();
        doc.truncate(trimmed + 1);
        let ws = workspace_full(&[EXP_FILE], Some(&doc));
        assert!(DocSync
            .check(&ws)
            .iter()
            .any(|f| f.message.contains("missing registered targets")));
    }

    #[test]
    fn stale_accelwall_references_are_findings() {
        let mut doc = faithful_roster();
        doc.push_str("\nSee `accelwall fig99` for details, or `accelwall list`.\n");
        let ws = workspace_full(&[EXP_FILE], Some(&doc));
        let found = DocSync.check(&ws);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("fig99"));
        assert!(found[0].line > 0);
    }

    #[test]
    fn cli_verbs_are_not_stale_references() {
        let mut doc = faithful_roster();
        doc.push_str("\nRun `accelwall all`, `accelwall serve`, `accelwall lint`.\n");
        let ws = workspace_full(&[EXP_FILE], Some(&doc));
        assert!(DocSync.check(&ws).is_empty());
    }
}
