//! End-to-end tests of the `accelwall` regeneration binary: every target
//! must exit cleanly and print its figure/table header, `--json` must
//! emit valid JSON with the documented keys, the `list` output must match
//! the registry exactly, a full `all` run must compute every shared
//! input exactly once, and a reader closing the pipe early must not make
//! the binary panic.

use accelerator_wall::json::Value;
use accelerator_wall::prelude::*;
use std::process::{Command, Stdio};

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn run_json(args: &[&str]) -> Value {
    let mut args = args.to_vec();
    args.push("--json");
    let (ok, stdout) = run(&args);
    assert!(ok, "{args:?} failed");
    Value::parse(&stdout).unwrap_or_else(|e| panic!("{args:?}: {e}\n{stdout}"))
}

#[test]
fn every_target_succeeds_with_its_header() {
    let expectations = [
        ("fig1", "Fig. 1"),
        ("fig2", "Fig. 2"),
        ("fig3a", "Fig. 3a"),
        ("fig3b", "Fig. 3b"),
        ("fig3c", "Fig. 3c"),
        ("fig3d", "Fig. 3d"),
        ("fig4", "Fig. 4a"),
        ("fig5", "Fig. 5"),
        ("fig6", "Fig. 6"),
        ("fig7", "Fig. 7"),
        ("fig8", "Fig. 8"),
        ("fig9", "Fig. 9a"),
        ("fig11", "Fig. 11"),
        ("fig12", "Fig. 12"),
        ("table1", "Table I"),
        ("table2", "Table II"),
        ("table3", "Table III"),
        ("table4", "Table IV"),
        ("table5", "Table V"),
        ("fig15", "Fig. 15"),
        ("fig16", "Fig. 16"),
        ("wall", "Accelerator Wall"),
        ("beyond", "Beyond the wall"),
        ("insights", "Section IV-E"),
        ("dark", "Dark-silicon"),
        ("sensitivity", "sensitivity"),
        ("roadmap", "roadmap"),
        ("report", "Domain reports"),
    ];
    for (target, header) in expectations {
        let (ok, stdout) = run(&[target]);
        assert!(ok, "{target} failed");
        assert!(
            stdout.contains(header),
            "{target}: missing {header:?} in output:\n{stdout}"
        );
    }
}

#[test]
fn json_mode_emits_valid_json() {
    for target in ["fig1", "fig3d", "fig15", "beyond", "sensitivity"] {
        let parsed = run_json(&[target]);
        assert!(
            parsed.is_array() || parsed.is_object(),
            "{target}: unexpected JSON shape"
        );
    }
}

#[test]
fn fig3b_json_has_the_fit_keys() {
    let v = run_json(&["fig3b"]);
    assert!(
        v.get("corpus_records")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    for side in ["fitted", "paper"] {
        let fit = v.get(side).unwrap_or_else(|| panic!("missing {side}"));
        assert!(fit.get("coefficient").and_then(Value::as_f64).is_some());
        assert!(fit.get("exponent").and_then(Value::as_f64).is_some());
    }
}

#[test]
fn fig14_json_attributes_every_workload() {
    let v = run_json(&["fig14"]);
    let rows = v.as_array().expect("fig14 emits an array");
    assert_eq!(rows.len(), Workload::all().len());
    for row in rows {
        assert!(row.get("workload").and_then(Value::as_str).is_some());
        for metric in ["performance", "efficiency"] {
            let a = row
                .get(metric)
                .unwrap_or_else(|| panic!("missing {metric}"));
            assert!(a.get("total_gain").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
            assert!(a.get("csr").and_then(Value::as_f64).is_some());
            assert!(!a
                .get("contributions")
                .and_then(Value::as_array)
                .expect("contributions")
                .is_empty());
        }
    }
}

#[test]
fn table5_json_lists_every_domain_with_limits() {
    let v = run_json(&["table5"]);
    let rows = v.as_array().expect("table5 emits an array");
    assert_eq!(rows.len(), Domain::all().len());
    for row in rows {
        for key in ["domain", "platform"] {
            assert!(
                row.get(key).and_then(Value::as_str).is_some(),
                "missing {key}"
            );
        }
        for key in ["min_die_mm2", "max_die_mm2", "tdp_w", "freq_mhz"] {
            assert!(
                row.get(key).and_then(Value::as_f64).unwrap_or(0.0) > 0.0,
                "missing {key}"
            );
        }
    }
}

#[test]
fn wall_json_reports_headroom_per_domain() {
    let v = run_json(&["wall"]);
    let rows = v.as_array().expect("wall emits an array");
    assert_eq!(rows.len(), Domain::all().len());
    for row in rows {
        assert!(row.get("domain").and_then(Value::as_str).is_some());
        for side in ["performance_headroom", "efficiency_headroom"] {
            let h = row.get(side).unwrap_or_else(|| panic!("missing {side}"));
            assert!(h.get("log").and_then(Value::as_f64).is_some());
            assert!(h.get("linear").and_then(Value::as_f64).is_some());
        }
    }
}

#[test]
fn all_json_is_one_document_keyed_by_experiment_id() {
    let v = run_json(&["all"]);
    let doc = v.as_object().expect("all --json emits one object");
    let ids = Registry::paper().ids();
    assert_eq!(
        doc.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        ids,
        "document keys must be the registry ids in registry order"
    );
    for (id, artifact) in doc {
        assert!(artifact.get("error").is_none(), "{id} reported an error");
    }
}

#[test]
fn a_closed_stdout_pipe_ends_quietly() {
    // `accelwall all --json | head -1`: the document (~150 KB) outgrows
    // any pipe buffer, so the write hits a reader that has already gone.
    let mut child = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(["all", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("binary exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}

#[test]
fn dot_target_emits_graphviz() {
    let (ok, stdout) = run(&["dot", "TRD"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"));
    assert!(stdout.trim_end().ends_with('}'));
    // Unknown workloads fail cleanly.
    let out = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(["dot", "NOPE"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn unknown_target_fails_with_the_registry_roster() {
    let out = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(["fig99"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown target"));
    // The hint names every real target, straight from the registry.
    for id in Registry::paper().ids() {
        assert!(stderr.contains(id), "roster hint missing {id}");
    }
}

#[test]
fn list_matches_the_registry_exactly() {
    let (ok, stdout) = run(&["list"]);
    assert!(ok);
    let listed: Vec<&str> = stdout
        .lines()
        .skip(1) // "regeneration targets:" banner
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let mut expected = Registry::paper().ids();
    expected.push("all");
    expected.push("query");
    expected.push("serve");
    expected.push("lint");
    expected.push("list");
    assert_eq!(listed, expected, "`list` must mirror the registry");
}

#[test]
fn list_json_emits_the_shared_roster_document() {
    let v = run_json(&["list"]);
    let rows = v.as_array().expect("list --json emits an array");
    let registry = Registry::paper();
    assert_eq!(rows.len(), registry.len());
    for (row, e) in rows.iter().zip(registry.experiments()) {
        assert_eq!(row.get("id").and_then(Value::as_str), Some(e.id()));
        assert_eq!(
            row.get("description").and_then(Value::as_str),
            Some(e.description())
        );
        assert!(row.get("deps").and_then(Value::as_array).is_some());
    }
}

#[test]
fn unknown_flags_fail_with_the_flag_roster() {
    // The regression this pins: `--jsno` used to be silently ignored and
    // the target ran in text mode as if nothing was wrong.
    let out = Command::new(env!("CARGO_BIN_EXE_accelwall"))
        .args(["fig3b", "--jsno"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "--jsno must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--jsno\""));
    for flag in ["--json", "--addr", "--workers"] {
        assert!(stderr.contains(flag), "flag roster missing {flag}");
    }
}

#[test]
fn flags_are_validated_against_the_command() {
    for (args, expect) in [
        (&["fig3b", "--workers", "4"][..], "only apply"),
        (&["serve", "--json"][..], "does not apply"),
        (&["serve", "--workers", "0"][..], "at least 1"),
        (&["serve", "--workers", "many"][..], "positive integer"),
        (&["serve", "--addr"][..], "needs a value"),
        (&["fig3b", "extra-operand"][..], "takes no operand"),
        (&["fig3b", "--threads", "4"][..], "only applies"),
        (&["all", "--threads", "0"][..], "at least 1"),
        (&["all", "--threads", "many"][..], "positive integer"),
        (&["serve", "--threads"][..], "needs a value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_accelwall"))
            .args(args)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expect), "{args:?}: stderr was\n{stderr}");
    }
}

#[test]
fn all_computes_each_shared_input_exactly_once() {
    // In-process replica of `accelwall all` on a coarse sweep space: the
    // memoizing Ctx must build the corpus, the density fit, the potential
    // model, and each workload's sweep exactly once, no matter how many
    // experiments request them concurrently.
    let ctx = Ctx::with_space(SweepSpace::coarse());
    let results = Registry::paper()
        .run_all(&ctx)
        .expect("scheduling succeeds");
    for (id, r) in &results {
        assert!(r.is_ok(), "{id} failed: {:?}", r.as_ref().err());
    }
    let c = ctx.counters();
    assert_eq!(c.corpus_computes, 1, "corpus generated more than once");
    assert_eq!(c.fit_computes, 1, "density fit computed more than once");
    assert_eq!(c.model_computes, 1, "potential model built more than once");
    assert_eq!(
        c.sweep_computes,
        Workload::all().len(),
        "some workload sweep ran more than once"
    );
    // The whole point of the cache: demand exceeds computation.
    assert!(c.corpus_requests > c.corpus_computes);
    assert!(c.sweep_requests > c.sweep_computes);
}
