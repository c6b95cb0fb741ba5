//! The shipped lint rules.
//!
//! Each rule is one module with one [`crate::Lint`] implementation plus
//! its own fixture tests. The roster lives in
//! [`crate::LintRegistry::standard`]; to add a rule, follow the
//! "Static analysis" section of `DESIGN.md`.

pub mod atomic_ordering;
pub mod determinism;
pub mod doc_sync;
pub mod fault_sites;
pub mod float_hygiene;
pub mod lock_order;
pub mod registry_sync;

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
            experiments_md: None,
            design_md: None,
        }
    }

    /// Same, with an EXPERIMENTS.md.
    pub fn workspace_full(files: &[(&str, &str)], experiments_md: Option<&str>) -> Workspace {
        let mut ws = workspace(files);
        ws.experiments_md = experiments_md.map(str::to_string);
        ws
    }
}
