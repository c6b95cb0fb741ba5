//! A per-crate symbol index distilled from the parsed item trees.
//!
//! The semantic rules reason about identity across files of one crate:
//! `atomic-ordering` groups sites by atomic *field*, and `determinism`
//! needs to know which struct fields are `HashMap`s.
//! This module builds that context once per [`Workspace`] from the
//! [`crate::ast`] trees — no re-lexing, no re-parsing.

use crate::ast::ItemKind;
use crate::workspace::Workspace;
use std::collections::BTreeMap;

/// The crate a workspace-relative path belongs to: `crates/par/...` →
/// `par`, anything under the root `src/` → `accelwall` (the CLI crate).
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("crates").to_string(),
        _ => "accelwall".to_string(),
    }
}

/// What one crate declares, keyed for the rules' lookups.
#[derive(Debug, Default)]
pub struct CrateIndex {
    /// Struct-field name → declared type text, for every struct in the
    /// crate (space-joined tokens, e.g. `"Arc < AtomicU64 >"`). On a
    /// field-name collision the first declaration wins; the rules only
    /// do `contains(...)` classification, so collisions are benign.
    pub field_types: BTreeMap<String, String>,
    /// `const`/`static` name → declared type text.
    pub static_types: BTreeMap<String, String>,
}

/// The workspace-wide index: one [`CrateIndex`] per crate.
#[derive(Debug, Default)]
pub struct SymbolIndex {
    crates: BTreeMap<String, CrateIndex>,
}

impl SymbolIndex {
    /// Builds the index from every parsed file in the workspace.
    pub fn build(ws: &Workspace) -> SymbolIndex {
        let mut index = SymbolIndex::default();
        for file in &ws.files {
            if file.test_file {
                continue;
            }
            let entry = index.crates.entry(crate_of(&file.rel_path)).or_default();
            for item in file.parsed.walk() {
                match item.kind {
                    ItemKind::Struct => {
                        for f in &item.fields {
                            entry
                                .field_types
                                .entry(f.name.clone())
                                .or_insert_with(|| f.ty.clone());
                        }
                    }
                    ItemKind::Const => {
                        for f in &item.fields {
                            entry
                                .static_types
                                .entry(f.name.clone())
                                .or_insert_with(|| f.ty.clone());
                        }
                    }
                    _ => {}
                }
            }
        }
        index
    }

    /// The index for one crate, if any of its files were scanned.
    pub fn of(&self, krate: &str) -> Option<&CrateIndex> {
        self.crates.get(krate)
    }

    /// The declared type text of `name` as a struct field or
    /// const/static in `krate`.
    pub fn type_of(&self, krate: &str, name: &str) -> Option<&str> {
        let c = self.of(krate)?;
        c.field_types
            .get(name)
            .or_else(|| c.static_types.get(name))
            .map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::workspace;

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(crate_of("crates/par/src/lib.rs"), "par");
        assert_eq!(crate_of("src/bin/accelwall.rs"), "accelwall");
        assert_eq!(crate_of("tests/lint.rs"), "accelwall");
    }

    #[test]
    fn index_collects_fields_and_statics() {
        let ws = workspace(&[
            (
                "crates/par/src/lib.rs",
                "use std::sync::atomic::AtomicU64;\n\
                 pub struct Pool { cursor: AtomicU64, size: usize }\n\
                 static JOBS: AtomicU64 = AtomicU64::new(0);\n",
            ),
            (
                "crates/par/src/extra.rs",
                "pub struct Extra { cursor: usize }\n",
            ),
        ]);
        let index = SymbolIndex::build(&ws);
        assert_eq!(index.type_of("par", "cursor"), Some("AtomicU64"));
        assert_eq!(index.type_of("par", "JOBS"), Some("AtomicU64"));
        assert_eq!(index.type_of("par", "size"), Some("usize"));
        assert!(index.type_of("server", "cursor").is_none());
    }
}
