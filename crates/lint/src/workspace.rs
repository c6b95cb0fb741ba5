//! Workspace discovery and loading.
//!
//! The linter operates on the checkout, not on compiled artifacts: it
//! walks the workspace root and lexes every `.rs` file. Build output
//! (`target/`), VCS metadata, and hidden directories are skipped.

use crate::source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Everything the lints look at, loaded once.
#[derive(Debug)]
pub struct Workspace {
    /// The workspace root directory.
    pub root: PathBuf,
    /// Every lexed `.rs` file, sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Walks upward from `start` to the first directory whose
    /// `Cargo.toml` declares `[workspace]`, then loads it.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when no workspace root exists above `start` or a
    /// file read fails.
    pub fn discover(start: &Path) -> io::Result<Workspace> {
        let mut dir = start.to_path_buf();
        loop {
            let manifest = dir.join("Cargo.toml");
            if manifest.is_file() && fs::read_to_string(&manifest)?.contains("[workspace]") {
                return Workspace::load(&dir);
            }
            if !dir.pop() {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!(
                        "no workspace root (a Cargo.toml with [workspace]) at or above {}",
                        start.display()
                    ),
                ));
            }
        }
    }

    /// Loads the workspace rooted at `root`.
    ///
    /// # Errors
    ///
    /// An [`io::Error`] when a directory or file cannot be read.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        walk(root, root, &mut files)?;
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// The files whose path starts with `prefix` (workspace-relative).
    pub fn files_under<'w>(&'w self, prefix: &'w str) -> impl Iterator<Item = &'w SourceFile> {
        self.files.iter().filter(move |f| {
            f.rel_path
                .strip_prefix(prefix)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
        })
    }
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || name == "target" {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path)?;
            files.push(SourceFile::new(rel(root, &path), path, text));
        }
    }
    Ok(())
}

fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loading this very workspace exercises discovery, lexing, and the
    /// path bookkeeping on real input.
    #[test]
    fn loads_the_enclosing_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let ws = Workspace::discover(here).expect("workspace above crates/lint");
        assert!(ws.root.join("Cargo.toml").is_file());
        assert!(ws
            .files
            .iter()
            .any(|f| f.rel_path == "crates/lint/src/workspace.rs"));
        assert!(!ws.files.iter().any(|f| f.rel_path.starts_with("target/")));
    }

    #[test]
    fn files_under_matches_whole_path_components() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let ws = Workspace::discover(here).expect("workspace above crates/lint");
        assert!(ws.files_under("crates/lint/src").count() >= 3);
        assert_eq!(ws.files_under("crates/li").count(), 0);
    }
}
