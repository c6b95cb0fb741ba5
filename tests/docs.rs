//! The docs agree with the values the binary holds at run time:
//! EXPERIMENTS.md's target roster is `Registry::paper()`, every
//! `accelwall <word>` it names is a target or verb that `accelwall list`
//! prints, and every route the server labels for `/metrics` is a path
//! in DESIGN.md's route table.

mod common;

use accelerator_wall::prelude::Registry;
use accelwall_server::metrics::Route;
use common::cli_stdout;
use std::fs;
use std::path::Path;

fn read_doc(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The body rows, as trimmed cells, of the first Markdown table at or
/// after the line `anchor`.
fn table_rows(doc: &str, anchor: &str) -> Vec<Vec<String>> {
    let rows: Vec<Vec<String>> = doc
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != anchor)
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // the header and the ruler
        .map(|row| {
            row.trim_matches('|')
                .split('|')
                .map(|cell| cell.trim().to_string())
                .collect()
        })
        .collect();
    assert!(!rows.is_empty(), "no table at or after {anchor:?}");
    rows
}

/// The word after each `accelwall ` in `text`.
fn accelwall_words(text: &str) -> Vec<&str> {
    text.match_indices("accelwall ")
        .map(|(at, prefix)| {
            let rest = &text[at + prefix.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|word| !word.is_empty())
        .collect()
}

/// The path of each route cell: `` `GET /query?...` `` is `/query`.
fn route_paths(design: &str) -> Vec<String> {
    table_rows(design, "| Route | Behavior |")
        .iter()
        .filter_map(|row| {
            let route = row[0].trim_matches('`').split_whitespace().nth(1)?;
            Some(route.split('?').next().unwrap_or(route).to_string())
        })
        .collect()
}

/// The labels that no documented path equals, whole.
fn undocumented<'a>(labels: impl IntoIterator<Item = &'a str>, paths: &[String]) -> Vec<&'a str> {
    labels
        .into_iter()
        .filter(|label| !paths.iter().any(|path| path == label))
        .collect()
}

#[test]
fn experiments_md_lists_the_registry_and_only_listed_commands() {
    let doc = read_doc("EXPERIMENTS.md");
    let documented: Vec<(String, String)> = table_rows(&doc, "## Target roster")
        .into_iter()
        .map(|row| {
            let id = row[0].trim_matches('`').to_string();
            (id, row.get(1).cloned().unwrap_or_default())
        })
        .collect();
    let registered: Vec<(String, String)> = Registry::paper()
        .experiments()
        .map(|e| (e.id().to_string(), e.description().to_string()))
        .collect();
    assert_eq!(
        documented, registered,
        "EXPERIMENTS.md's `## Target roster` rows must be Registry::paper()'s \
         (id, description) pairs, in registry order"
    );

    // Every target and verb `accelwall list` prints, one per indented
    // line.
    let list = cli_stdout(&["list"]);
    let known: Vec<&str> = list
        .lines()
        .filter_map(|line| line.strip_prefix("  ")?.split_whitespace().next())
        .collect();
    let stale: Vec<&str> = accelwall_words(&doc)
        .into_iter()
        .filter(|word| !known.contains(word))
        .collect();
    assert!(
        stale.is_empty(),
        "EXPERIMENTS.md names `accelwall` commands that `accelwall list` does not: {stale:?}"
    );
    for verb in ["all", "query", "serve", "lint", "list"] {
        assert!(known.contains(&verb), "`accelwall list` lacks {verb}");
    }
    assert_eq!(accelwall_words("see `accelwall fig99 --json`"), ["fig99"]);
    assert!(!known.contains(&"fig99"));
}

#[test]
fn design_md_documents_every_labelled_route() {
    let paths = route_paths(&read_doc("DESIGN.md"));
    let labels = Route::ALL
        .into_iter()
        .filter(|&route| route != Route::Other)
        .map(Route::label);
    let missing = undocumented(labels, &paths);
    assert!(
        missing.is_empty(),
        "served routes absent from DESIGN.md's route table: {missing:?}"
    );

    // Paths match whole: a table holding only `/healthz` does not
    // document a `/health` label.
    let only_healthz =
        route_paths("| Route | Behavior |\n|---|---|\n| `GET /healthz` | liveness |\n");
    assert_eq!(only_healthz, ["/healthz"]);
    assert_eq!(
        undocumented(["/health", "/healthz"], &only_healthz),
        ["/health"]
    );
}
