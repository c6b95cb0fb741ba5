//! The shipped lint rules.
//!
//! Each rule is one module with one [`crate::Lint`] implementation plus
//! its own fixture tests. The roster lives in
//! [`crate::LintRegistry::standard`]; to add a rule, follow the
//! "Static analysis" section of `DESIGN.md`.

pub mod atomic_ordering;
pub mod determinism;
pub mod float_hygiene;
pub mod lock_order;

#[cfg(test)]
pub(crate) mod testutil {
    use crate::source::SourceFile;
    use crate::workspace::Workspace;
    use std::path::{Path, PathBuf};

    /// A synthetic in-memory workspace built from `(path, source)` pairs.
    pub fn workspace(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: PathBuf::from("/fixture"),
            files: files
                .iter()
                .map(|(rel, src)| {
                    SourceFile::new(
                        (*rel).to_string(),
                        Path::new("/fixture").join(rel),
                        (*src).to_string(),
                    )
                })
                .collect(),
        }
    }
}
