//! End-to-end tests of `accelwall lint`: the shipped workspace must be
//! clean (this is the same gate CI runs), `--json` must round-trip
//! through `core::json` with the documented keys and the full rule
//! roster, seeded fixture workspaces must fail with editor-clickable
//! `file:line` findings (one failing and one justified-allow scenario
//! per semantic rule), `--list-rules` must print the roster and apply
//! only to `lint`, and the item-tree parser must round-trip every
//! shipped source file without a single error recovery.
//!
//! The generic checks live with clippy and rustc instead: the clippy
//! gate below denies panic paths, `process::exit` outside `main`, the
//! unbounded `mpsc::channel`, dead code (an experiment type the
//! registry never constructs) and stale or reason-less lint
//! expectations on every lib and bin target, and both lockfiles must
//! resolve every package inside the repository.

use accelerator_wall::json::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn run_in(dir: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn the_shipped_workspace_is_clean() {
    let (ok, stdout, stderr) = run_in(&repo_root(), &["lint"]);
    assert!(ok, "lint found problems:\n{stdout}{stderr}");
    assert!(
        stdout.contains("lint clean"),
        "unexpected output:\n{stdout}"
    );
    assert!(stdout.contains("0 findings"));
}

#[test]
fn lint_works_from_a_subdirectory() {
    // Workspace discovery walks upward, so the gate holds from anywhere
    // inside the checkout.
    let (ok, stdout, _) = run_in(&repo_root().join("crates/stats/src"), &["lint"]);
    assert!(ok, "lint from subdirectory failed:\n{stdout}");
}

#[test]
fn json_report_round_trips_with_the_rule_roster() {
    let (ok, stdout, _) = run_in(&repo_root(), &["lint", "--json"]);
    assert!(ok);
    let doc = Value::parse(&stdout).unwrap_or_else(|e| panic!("{e}\n{stdout}"));
    assert_eq!(doc.get("clean").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("finding_count").and_then(Value::as_f64), Some(0.0));
    assert!(doc.get("files_scanned").and_then(Value::as_f64).unwrap() > 50.0);
    let rules: Vec<&str> = doc
        .get("rules")
        .and_then(Value::as_array)
        .expect("rules array")
        .iter()
        .map(|r| r.get("name").and_then(Value::as_str).expect("rule name"))
        .collect();
    assert_eq!(
        rules,
        [
            "float-hygiene",
            "atomic-ordering",
            "lock-order",
            "determinism",
            "lint-allow",
        ]
    );
    for rule in doc.get("rules").and_then(Value::as_array).unwrap() {
        assert!(!rule
            .get("description")
            .and_then(Value::as_str)
            .unwrap()
            .is_empty());
    }
    assert!(doc
        .get("findings")
        .and_then(Value::as_array)
        .expect("findings array")
        .is_empty());
}

/// A throwaway workspace under the target dir (std-only: no tempfile
/// crate), removed on drop.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let root = repo_root()
            .join("target/lint-fixtures")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("fixture root");
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("has parent")).expect("fixture dirs");
        fs::write(path, content).expect("fixture file");
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn seeded_violations_fail_with_file_line_findings() {
    let fix = Fixture::new("seeded");
    fix.write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    fix.write("crates/stats/Cargo.toml", "[package]\nname = \"stats\"\n");
    fix.write(
        "crates/stats/src/lib.rs",
        "pub fn near_zero(x: f64) -> bool {\n    x == 0.0\n}\n\
         // lint:allow(float-hygiene)\n\
         pub fn unit(x: f64) -> bool {\n    x == 1.0\n}\n\
         // lint:allow(no-such-rule): misspelled\n\
         pub fn half(x: f64) -> f64 {\n    x / 2.0\n}\n\
         // lint:allow(float-hygiene): nothing below compares floats\n\
         pub fn double(x: f64) -> f64 {\n    x * 2.0\n}\n",
    );
    let (ok, stdout, _) = run_in(&fix.root, &["lint"]);
    assert!(!ok, "seeded fixture unexpectedly clean:\n{stdout}");
    // Editor-clickable path:line:col anchors, one per seeded violation.
    assert!(
        stdout.contains("crates/stats/src/lib.rs:2:7: [float-hygiene]"),
        "{stdout}"
    );
    // The allow audit: a justification-free allow is a finding, and the
    // violation it failed to justify still counts.
    assert!(
        stdout.contains("crates/stats/src/lib.rs:4:0: [lint-allow]")
            && stdout.contains("must carry a justification"),
        "{stdout}"
    );
    assert!(
        stdout.contains("crates/stats/src/lib.rs:6:7: [float-hygiene]"),
        "{stdout}"
    );
    // An allow naming an unknown rule.
    assert!(
        stdout.contains("crates/stats/src/lib.rs:8:0: [lint-allow]")
            && stdout.contains("unknown rule \"no-such-rule\""),
        "{stdout}"
    );
    // An allow that suppresses nothing.
    assert!(
        stdout.contains("crates/stats/src/lib.rs:12:0: [lint-allow]")
            && stdout.contains("suppresses nothing"),
        "{stdout}"
    );
    assert!(stdout.contains("lint failed: 5 finding(s)"), "{stdout}");

    let (ok, stdout, _) = run_in(&fix.root, &["lint", "--json"]);
    assert!(!ok);
    let doc = Value::parse(&stdout).unwrap_or_else(|e| panic!("{e}\n{stdout}"));
    assert_eq!(doc.get("clean").and_then(Value::as_bool), Some(false));
    let findings = doc.get("findings").and_then(Value::as_array).unwrap();
    assert_eq!(
        findings.len() as f64,
        doc.get("finding_count").and_then(Value::as_f64).unwrap()
    );
    assert!(findings.iter().any(|f| {
        f.get("rule").and_then(Value::as_str) == Some("float-hygiene")
            && f.get("path").and_then(Value::as_str) == Some("crates/stats/src/lib.rs")
            && f.get("line").and_then(Value::as_f64) == Some(2.0)
    }));
}

#[test]
fn justified_allows_suppress_and_test_code_is_exempt() {
    let fix = Fixture::new("allowed");
    fix.write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    fix.write("crates/stats/Cargo.toml", "[package]\nname = \"stats\"\n");
    fix.write(
        "crates/stats/src/lib.rs",
        "pub fn is_origin(x: f64) -> bool {\n\
         \x20   // lint:allow(float-hygiene): an exact-zero guard, not a tolerance\n\
         \x20   x == 0.0\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   #[test]\n\
         \x20   fn t() {\n\
         \x20       assert!(super::is_origin(0.0) && 0.5 + 0.5 == 1.0);\n\
         \x20   }\n\
         }\n",
    );
    fix.write(
        "crates/stats/tests/integration.rs",
        "#[test]\nfn t() {\n    assert!(0.5 + 0.5 == 1.0);\n}\n",
    );
    let (ok, stdout, stderr) = run_in(&fix.root, &["lint"]);
    assert!(ok, "expected clean:\n{stdout}{stderr}");
}

#[test]
fn lint_rejects_flags_of_other_subcommands() {
    let (ok, _, stderr) = run_in(&repo_root(), &["lint", "--addr", "0:0"]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");
    let (ok, _, stderr) = run_in(&repo_root(), &["lint", "extra"]);
    assert!(!ok);
    assert!(stderr.contains("no operand"), "{stderr}");
}

// ---- semantic rules: one failing + one justified-allow fixture each ----

/// The shared fixture scaffolding for one semantic-rule scenario.
fn semantic_fixture(name: &str, krate: &str, src: &str) -> Fixture {
    let fix = Fixture::new(name);
    fix.write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    fix.write(
        &format!("crates/{krate}/Cargo.toml"),
        &format!("[package]\nname = \"{krate}\"\n"),
    );
    fix.write(&format!("crates/{krate}/src/lib.rs"), src);
    fix
}

#[test]
fn atomic_ordering_flags_seqcst_and_honors_allows() {
    let violating = "use std::sync::atomic::{AtomicU64, Ordering};\n\
        pub fn bump(n: &AtomicU64) -> u64 {\n\
        \x20   n.fetch_add(1, Ordering::SeqCst)\n\
        }\n";
    let fix = semantic_fixture("atomic-bad", "par", violating);
    let (ok, stdout, _) = run_in(&fix.root, &["lint"]);
    assert!(!ok, "expected a finding:\n{stdout}");
    assert!(stdout.contains("[atomic-ordering]"), "{stdout}");
    assert!(stdout.contains("crates/par/src/lib.rs:3:"), "{stdout}");
    drop(fix);

    let allowed = "use std::sync::atomic::{AtomicU64, Ordering};\n\
        pub fn bump(n: &AtomicU64) -> u64 {\n\
        \x20   // lint:allow(atomic-ordering): this counter seeds the global epoch and must totally order with every reader\n\
        \x20   n.fetch_add(1, Ordering::SeqCst)\n\
        }\n";
    let fix = semantic_fixture("atomic-ok", "par", allowed);
    let (ok, stdout, stderr) = run_in(&fix.root, &["lint"]);
    assert!(ok, "expected clean:\n{stdout}{stderr}");
}

#[test]
fn lock_order_flags_cycles_and_honors_allows() {
    let violating = "use std::sync::Mutex;\n\
        pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
        pub fn one(s: &S) -> u32 {\n\
        \x20   let ga = s.a.lock().unwrap();\n\
        \x20   let gb = s.b.lock().unwrap();\n\
        \x20   *ga + *gb\n\
        }\n\
        pub fn two(s: &S) -> u32 {\n\
        \x20   let gb = s.b.lock().unwrap();\n\
        \x20   let ga = s.a.lock().unwrap();\n\
        \x20   *ga + *gb\n\
        }\n";
    let fix = semantic_fixture("lock-bad", "query", violating);
    let (ok, stdout, _) = run_in(&fix.root, &["lint"]);
    assert!(!ok, "expected a cycle finding:\n{stdout}");
    assert!(stdout.contains("[lock-order]"), "{stdout}");
    drop(fix);

    // Same shape, fully clean: guards extracted without unwrap and the
    // cycle justified at its reported anchor (the first edge's site).
    let allowed = "use std::sync::Mutex;\n\
        pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n\
        pub fn one(s: &S) -> u32 {\n\
        \x20   let ga = match s.a.lock() { Ok(g) => g, Err(e) => e.into_inner() };\n\
        \x20   // lint:allow(lock-order): `two` runs only during single-threaded teardown, after every caller of `one` has joined\n\
        \x20   let gb = match s.b.lock() { Ok(g) => g, Err(e) => e.into_inner() };\n\
        \x20   *ga + *gb\n\
        }\n\
        pub fn two(s: &S) -> u32 {\n\
        \x20   let gb = match s.b.lock() { Ok(g) => g, Err(e) => e.into_inner() };\n\
        \x20   let ga = match s.a.lock() { Ok(g) => g, Err(e) => e.into_inner() };\n\
        \x20   *ga + *gb\n\
        }\n";
    let fix = semantic_fixture("lock-ok", "query", allowed);
    let (ok, stdout, stderr) = run_in(&fix.root, &["lint"]);
    assert!(ok, "expected clean:\n{stdout}{stderr}");
}

#[test]
fn determinism_flags_hash_iteration_and_honors_allows() {
    let violating = "use std::collections::HashMap;\n\
        pub fn render(map: &HashMap<String, u32>) -> String {\n\
        \x20   let mut out = String::new();\n\
        \x20   for (k, v) in map.iter() {\n\
        \x20       out.push_str(&format!(\"{k}={v}\\n\"));\n\
        \x20   }\n\
        \x20   out\n\
        }\n";
    let fix = semantic_fixture("det-bad", "stats", violating);
    let (ok, stdout, _) = run_in(&fix.root, &["lint"]);
    assert!(!ok, "expected a finding:\n{stdout}");
    assert!(stdout.contains("[determinism]"), "{stdout}");
    assert!(stdout.contains("crates/stats/src/lib.rs:4:"), "{stdout}");
    drop(fix);

    let allowed = "use std::collections::HashMap;\n\
        pub fn total(map: &HashMap<String, u32>) -> u64 {\n\
        \x20   let mut sum = 0u64;\n\
        \x20   // lint:allow(determinism): integer summation is order-insensitive; only the total leaves this fn\n\
        \x20   for (_k, v) in map.iter() {\n\
        \x20       sum += u64::from(*v);\n\
        \x20   }\n\
        \x20   sum\n\
        }\n";
    let fix = semantic_fixture("det-ok", "stats", allowed);
    let (ok, stdout, stderr) = run_in(&fix.root, &["lint"]);
    assert!(ok, "expected clean:\n{stdout}{stderr}");
}

// ---- the rule roster ----

#[test]
fn list_rules_prints_the_full_roster() {
    let (ok, stdout, _) = run_in(&repo_root(), &["lint", "--list-rules"]);
    assert!(ok);
    for rule in [
        "float-hygiene",
        "atomic-ordering",
        "lock-order",
        "determinism",
        "lint-allow",
    ] {
        assert!(stdout.contains(rule), "missing {rule}:\n{stdout}");
    }
    // Handed to clippy, rustc and Cargo.lock (see the clippy gate
    // below), or to plain tests over the runtime values they re-lexed
    // (tests/docs.rs, tests/faults.rs).
    for retired in [
        "no-panic-paths",
        "no-exit-in-lib",
        "bounded-channel",
        "dep-free",
        "registry-sync",
        "doc-sync",
        "fault-sites",
    ] {
        assert!(!stdout.contains(retired), "{retired} is back:\n{stdout}");
    }
}

#[test]
fn rule_flags_only_apply_to_lint() {
    let (ok, _, stderr) = run_in(&repo_root(), &["list", "--list-rules"]);
    assert!(!ok);
    assert!(stderr.contains("--list-rules"), "{stderr}");
    // Every run checks every rule: there is no flag to pick some.
    let (ok, _, stderr) = run_in(&repo_root(), &["lint", "--rule", "determinism"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag \"--rule\""), "{stderr}");
}

// ---- parser round-trip ----

#[test]
fn parser_round_trips_the_whole_workspace_without_recoveries() {
    // Every shipped source file must parse into the item tree without a
    // single error recovery — the semantic rules are only as good as
    // the tree under them.
    let ws = accelwall_lint::Workspace::load(&repo_root()).expect("workspace loads");
    assert!(ws.files.len() > 100, "suspiciously small workspace");
    let mut fns = 0usize;
    for file in &ws.files {
        assert!(
            file.parsed.recoveries.is_empty(),
            "{}: parser recovered at {:?}",
            file.rel_path,
            file.parsed.recoveries
        );
        fns += file.parsed.fns_with_bodies().len();
    }
    assert!(fns > 500, "suspiciously few parsed fn bodies: {fns}");
}

// ---- the clippy gate: generic checks handed to clippy and rustc ----

/// The lints the gate denies. Each has a seeded violation in
/// `the_clippy_gate_fails_seeded_violations_with_file_line_findings`,
/// so dropping one from this list fails that test.
const GATE_LINTS: [&str; 11] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::exit",
    // With the repository's clippy.toml: `std::sync::mpsc::channel`.
    "clippy::disallowed_methods",
    "clippy::allow_attributes_without_reason",
    "unfulfilled_lint_expectations",
    "unknown_lints",
    // With crate-private experiment modules: an experiment type that
    // `Registry::paper()` never constructs.
    "dead_code",
];

/// One error-level diagnostic of a gate run.
#[derive(Debug)]
struct Diagnostic {
    /// The lint (`clippy::unwrap_used`), or the error code.
    code: String,
    /// `file:line:col`, relative to the linted workspace's root.
    at: String,
    /// The diagnostic as rustc prints it.
    rendered: String,
}

/// Runs `cargo clippy` over `targets` of the workspace at `manifest`
/// with every [`GATE_LINTS`] entry denied, and returns whether it
/// passed plus its error-level diagnostics. `--locked` keeps it from
/// rewriting a lockfile, and its own target directory keeps it from
/// waiting on the `cargo test` that runs it. A missing clippy fails
/// the gate; it never skips.
fn clippy_gate(manifest: &Path, target_dir: &Path, targets: &[&str]) -> (bool, Vec<Diagnostic>) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let mut cmd = Command::new(cargo);
    cmd.args(["clippy", "--offline", "--locked", "--quiet", "--keep-going"])
        .arg("--manifest-path")
        .arg(manifest)
        .arg("--target-dir")
        .arg(target_dir)
        .args(targets)
        .arg("--message-format=json")
        .arg("--");
    for lint in GATE_LINTS {
        cmd.args(["-D", lint]);
    }
    let out = cmd
        .env("CLIPPY_CONF_DIR", repo_root())
        .stdin(Stdio::null())
        .output()
        .expect("cargo runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut diagnostics = Vec::new();
    for line in stdout.lines() {
        let msg = Value::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let Some(message) = msg.get("message") else {
            continue;
        };
        let primary = message
            .get("spans")
            .and_then(Value::as_array)
            .and_then(|spans| {
                spans
                    .iter()
                    .find(|s| s.get("is_primary").and_then(Value::as_bool) == Some(true))
            });
        let (Some("error"), Some(span)) = (message.get("level").and_then(Value::as_str), primary)
        else {
            continue;
        };
        let field = |v: &Value, key| v.get(key).and_then(Value::as_str).unwrap_or("").to_string();
        let number = |key| span.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        diagnostics.push(Diagnostic {
            code: message
                .get("code")
                .map_or(String::new(), |c| field(c, "code")),
            at: format!(
                "{}:{}:{}",
                field(span, "file_name"),
                number("line_start"),
                number("column_start")
            ),
            rendered: field(message, "rendered"),
        });
    }
    let passed = out.status.success();
    assert!(
        passed || !diagnostics.is_empty(),
        "the clippy gate could not run ({}); install clippy with \
         `rustup component add clippy`:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    (passed, diagnostics)
}

fn assert_gate_passes(manifest: &Path, target_dir: &str, targets: &[&str]) {
    let (passed, diagnostics) = clippy_gate(manifest, &repo_root().join(target_dir), targets);
    let rendered: String = diagnostics.iter().map(|d| d.rendered.as_str()).collect();
    assert!(passed, "clippy gate failed:\n{rendered}");
}

#[test]
fn the_workspace_passes_the_clippy_gate() {
    assert_gate_passes(
        &repo_root().join("Cargo.toml"),
        "target/clippy-gate/workspace",
        &["--workspace", "--lib", "--bins"],
    );
}

#[test]
fn the_benchmark_passes_the_clippy_gate() {
    assert_gate_passes(
        &repo_root().join("perfbench/Cargo.toml"),
        "target/clippy-gate/perfbench",
        &["--bins"],
    );
}

/// Runs the clippy gate over a one-crate fixture whose lib is `src`.
/// Its manifest allows `disallowed_methods`, as the workspace's does,
/// so a seeded `channel()` error shows the gate's `-D` overriding a
/// manifest `allow`.
fn gate_on_fixture(name: &str, src: &str) -> (bool, Vec<Diagnostic>) {
    let fix = Fixture::new(name);
    fix.write(
        "Cargo.toml",
        "[package]\nname = \"gate-fixture\"\nversion = \"0.1.0\"\nedition = \"2021\"\n\n\
         [lints.clippy]\ndisallowed_methods = \"allow\"\n\n[workspace]\n",
    );
    fix.write(
        "Cargo.lock",
        "version = 4\n\n[[package]]\nname = \"gate-fixture\"\nversion = \"0.1.0\"\n",
    );
    fix.write("src/lib.rs", src);
    clippy_gate(
        &fix.root.join("Cargo.toml"),
        &fix.root.join("target"),
        &["--lib"],
    )
}

/// The `(lint, file:line:col)` of each diagnostic.
fn codes_at(diagnostics: &[Diagnostic]) -> Vec<(&str, &str)> {
    diagnostics
        .iter()
        .map(|d| (d.code.as_str(), d.at.as_str()))
        .collect()
}

#[test]
fn the_clippy_gate_fails_seeded_violations_with_file_line_findings() {
    let (passed, diagnostics) = gate_on_fixture(
        "clippy-gate",
        "use std::sync::mpsc;\n\
         pub fn a(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
         pub fn b(x: Option<u32>) -> u32 {\n    x.expect(\"set\")\n}\n\
         pub fn c() {\n    panic!(\"boom\")\n}\n\
         pub fn d() {\n    todo!()\n}\n\
         pub fn e() {\n    unimplemented!()\n}\n\
         pub fn f() {\n    std::process::exit(3)\n}\n\
         pub fn g() -> (mpsc::Sender<u8>, mpsc::Receiver<u8>) {\n    mpsc::channel()\n}\n\
         pub fn h(v: &mut [(u32, f64)]) {\n    v.sort_by(|p, q| p.1.partial_cmp(&q.1).unwrap());\n}\n\
         #[expect(clippy::unwrap_used)]\n\
         pub fn i(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n\
         #[expect(clippy::unwrap_used, reason = \"nothing here unwraps\")]\n\
         pub fn j() {}\n\
         #[expect(clippy::no_such_lint, reason = \"misspelled\")]\n\
         pub fn k() {}\n\
         fn l() {}\n",
    );
    assert!(!passed, "seeded fixture passed the gate: {diagnostics:#?}");
    let expected = [
        ("clippy::unwrap_used", "src/lib.rs:3:5"),
        ("clippy::expect_used", "src/lib.rs:6:5"),
        ("clippy::panic", "src/lib.rs:9:5"),
        ("clippy::todo", "src/lib.rs:12:5"),
        ("clippy::unimplemented", "src/lib.rs:15:5"),
        ("clippy::exit", "src/lib.rs:18:5"),
        ("clippy::disallowed_methods", "src/lib.rs:21:5"),
        // A NaN-unsafe sort comparator.
        ("clippy::unwrap_used", "src/lib.rs:24:22"),
        ("clippy::allow_attributes_without_reason", "src/lib.rs:26:1"),
        ("unfulfilled_lint_expectations", "src/lib.rs:30:10"),
        ("unknown_lints", "src/lib.rs:32:10"),
        ("dead_code", "src/lib.rs:34:4"),
    ];
    for (code, at) in expected {
        assert!(
            diagnostics.iter().any(|d| d.code == code && d.at == at),
            "no {code} error at {at}: {diagnostics:#?}"
        );
    }
    assert_eq!(diagnostics.len(), expected.len(), "{diagnostics:#?}");
}

#[test]
fn bounded_channel_flags_unbounded_and_honors_allows() {
    // clippy.toml disallows `std::sync::mpsc::channel`; the bounded
    // `sync_channel` passes, and a justified `#[expect]` suppresses.
    let (passed, diagnostics) = gate_on_fixture(
        "gate-channel",
        "use std::sync::mpsc;\n\
         pub fn wire() -> (mpsc::Sender<u64>, mpsc::Receiver<u64>) {\n\
         \x20   mpsc::channel()\n\
         }\n\
         pub fn bounded() -> (mpsc::SyncSender<u64>, mpsc::Receiver<u64>) {\n\
         \x20   mpsc::sync_channel(8)\n\
         }\n\
         #[expect(\n\
         \x20   clippy::disallowed_methods,\n\
         \x20   reason = \"at most one message per caller by construction\"\n\
         )]\n\
         pub fn wire_once() -> (mpsc::Sender<u64>, mpsc::Receiver<u64>) {\n\
         \x20   mpsc::channel()\n\
         }\n",
    );
    assert!(!passed, "expected a finding: {diagnostics:#?}");
    assert_eq!(
        codes_at(&diagnostics),
        [("clippy::disallowed_methods", "src/lib.rs:3:5")],
        "{diagnostics:#?}"
    );
}

#[test]
fn float_hygiene_catches_comparator_closures_outside_numeric_crates() {
    // A `partial_cmp(..).unwrap()` comparator panics on NaN wherever it
    // sits; `clippy::unwrap_used` flags it and `total_cmp` passes.
    let (passed, diagnostics) = gate_on_fixture(
        "gate-comparator",
        "pub fn rank(v: &mut [(String, f64)]) {\n\
         \x20   v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());\n\
         }\n\
         pub fn rank_total(v: &mut [(String, f64)]) {\n\
         \x20   v.sort_by(|a, b| a.1.total_cmp(&b.1));\n\
         }\n",
    );
    assert!(!passed, "expected a finding: {diagnostics:#?}");
    assert_eq!(
        codes_at(&diagnostics),
        [("clippy::unwrap_used", "src/lib.rs:2:22")],
        "{diagnostics:#?}"
    );
    assert!(
        diagnostics[0]
            .rendered
            .contains("a.1.partial_cmp(&b.1).unwrap()"),
        "{diagnostics:#?}"
    );
}

/// The `source = ...` lines of a `Cargo.lock`, as `line: text`. Path
/// packages carry none; a registry or git package does.
fn lockfile_sources(lock: &str) -> Vec<String> {
    lock.lines()
        .enumerate()
        .filter(|(_, line)| line.trim_start().starts_with("source ="))
        .map(|(i, line)| format!("{}: {}", i + 1, line.trim()))
        .collect()
}

#[test]
fn lockfiles_resolve_every_package_inside_the_repository() {
    // The workspace builds offline with the standard library alone.
    for rel in ["Cargo.lock", "perfbench/Cargo.lock"] {
        let lock = fs::read_to_string(repo_root().join(rel)).expect("lockfile reads");
        let sources = lockfile_sources(&lock);
        assert!(
            sources.is_empty(),
            "{rel} pulls packages from outside the repository:\n{}",
            sources.join("\n")
        );
    }
    let seeded = "version = 4\n\n[[package]]\nname = \"serde\"\nversion = \"1.0.0\"\n\
                  source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(
        lockfile_sources(seeded),
        ["6: source = \"registry+https://github.com/rust-lang/crates.io-index\""]
    );
}
