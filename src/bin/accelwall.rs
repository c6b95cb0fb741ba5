//! `accelwall` — regenerate every table and figure of the paper, or
//! serve them over HTTP.
//!
//! Usage:
//!
//! ```text
//! accelwall <target> [--json]
//! accelwall all [--json] [--threads N]
//! accelwall dot [WORKLOAD] [--json]
//! accelwall list [--json]
//! accelwall query [--schema] [--field value ...]
//! accelwall serve [--addr HOST:PORT] [--workers N] [--deadline-ms N] [--threads N]
//! accelwall lint [--json] [--list-rules]
//! ```
//!
//! The target roster is owned by [`Registry::paper`]; this binary is a
//! thin driver around it. `list` prints every registered target with its
//! description (`--json` emits the same roster document the server's
//! `GET /experiments` route returns), `all` runs the whole registry one
//! target at a time in dependency order, and `--json` swaps the text
//! rendering for the experiment's JSON artifact. With `all`, `--json`
//! emits one JSON document keyed by experiment id. `serve` starts the
//! long-lived artifact server (`accelwall-server`): one process-lifetime
//! cache, every artifact computed at most once, `POST /shutdown` for a
//! graceful drain.
//! `lint` runs every rule of the workspace invariant checker
//! (`accelwall-lint`) over the enclosing checkout and exits non-zero on
//! any finding; `--list-rules` prints the rule roster instead.
//!
//! `serve` also reads the `ACCELWALL_FAULTS` environment variable: a
//! fault-plan spec (`fig3b:err:2,table5:hang:500ms`, see the
//! `accelwall-faults` crate) armed before the listener starts, so chaos
//! tests can provoke failures deterministically. Site names are
//! validated against the registry roster plus the static probe sites —
//! a typo fails startup with the full accepted-site list, exactly like
//! an unknown target.
//!
//! `query` answers one ad-hoc what-if spec through `accelwall-query` —
//! the same typed spec, validation, and executor behind the server's
//! `/query` routes — and prints the JSON body. Its arguments are
//! `--field value` pairs over the query schema (`--schema` prints it),
//! e.g. `accelwall query --workload fft --node 7nm --lanes 4`.
//!
//! Unknown targets *and* unknown flags both fail with a roster-style
//! error listing everything that would have been accepted.
//!
//! `--threads N` pins the size of the shared `accelwall-par` compute
//! pool (the `ACCELWALL_THREADS` environment variable does the same;
//! the flag wins). It applies to the two commands that run the compute
//! kernels: `all` and `serve`. The pool is sized once per process, so
//! the flag must be — and is — applied before any experiment runs.

use accelerator_wall::error::Error;
use accelerator_wall::experiments::dot_artifact;
use accelerator_wall::json::Value;
use accelerator_wall::prelude::{ArtifactCache, Ctx, Registry};
use accelwall_server::{Server, ServerConfig};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Writes the CLI's output to stdout. A reader that closes the pipe
/// early (`accelwall all | head -1`) has all it wanted, so the process
/// ends quietly with status 0; any other write error ends it with
/// status 1. (`print!` panics on both.)
fn write_stdout(args: std::fmt::Arguments<'_>) {
    let Err(e) = std::io::stdout().lock().write_fmt(args) else {
        return;
    };
    let code = if e.kind() == ErrorKind::BrokenPipe {
        0
    } else {
        eprintln!("accelwall: cannot write to stdout: {e}");
        1
    };
    #[expect(
        clippy::exit,
        reason = "with stdout gone there is no caller left to hand the error to; ending here keeps every output site a one-line call"
    )]
    std::process::exit(code);
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        out!("\n")
    };
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

/// Every flag the CLI accepts, with its value shape — the "roster" the
/// unknown-flag error prints, mirroring the unknown-target error.
const KNOWN_FLAGS: &[(&str, &str)] = &[
    ("--json", "emit the JSON artifact instead of text"),
    ("--addr", "HOST:PORT the server binds (serve only)"),
    ("--workers", "requests computed at once (serve only)"),
    ("--deadline-ms", "compute deadline before 504 (serve only)"),
    ("--threads", "compute-pool thread count (all and serve)"),
    ("--list-rules", "print the lint rule roster (lint only)"),
];

/// Parsed command line: positionals plus validated flags.
#[derive(Debug, Default)]
struct Args {
    target: Option<String>,
    operand: Option<String>,
    json: bool,
    addr: Option<String>,
    workers: Option<usize>,
    deadline_ms: Option<u64>,
    threads: Option<usize>,
    list_rules: bool,
}

fn parse_args(raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut raw = raw.peekable();
    let mut positionals = Vec::new();
    while let Some(arg) = raw.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let (name, inline) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (flag, None),
            };
            let mut value_for = |what: &str| {
                inline
                    .clone()
                    .or_else(|| raw.next())
                    .ok_or_else(|| format!("flag --{name} needs a value ({what})"))
            };
            match name {
                "json" => {
                    if inline.is_some() {
                        return Err("flag --json takes no value".to_string());
                    }
                    args.json = true;
                }
                "addr" => args.addr = Some(value_for("HOST:PORT")?),
                "workers" => {
                    let value = value_for("a thread count")?;
                    let workers: usize = value.parse().map_err(|_| {
                        format!("--workers needs a positive integer, got {value:?}")
                    })?;
                    if workers == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                    args.workers = Some(workers);
                }
                "threads" => {
                    let value = value_for("a thread count")?;
                    let threads: usize = value.parse().map_err(|_| {
                        format!("--threads needs a positive integer, got {value:?}")
                    })?;
                    if threads == 0 {
                        return Err("--threads must be at least 1".to_string());
                    }
                    args.threads = Some(threads);
                }
                "list-rules" => {
                    if inline.is_some() {
                        return Err("flag --list-rules takes no value".to_string());
                    }
                    args.list_rules = true;
                }
                "deadline-ms" => {
                    let value = value_for("milliseconds")?;
                    let ms: u64 = value.parse().map_err(|_| {
                        format!("--deadline-ms needs a positive integer, got {value:?}")
                    })?;
                    if ms == 0 {
                        return Err("--deadline-ms must be at least 1".to_string());
                    }
                    args.deadline_ms = Some(ms);
                }
                _ => {
                    let known = KNOWN_FLAGS
                        .iter()
                        .map(|(f, _)| *f)
                        .collect::<Vec<_>>()
                        .join(" ");
                    return Err(format!("unknown flag \"--{name}\"; known flags: {known}"));
                }
            }
        } else {
            positionals.push(arg);
        }
    }
    let mut positionals = positionals.into_iter();
    args.target = positionals.next();
    args.operand = positionals.next();
    if let Some(extra) = positionals.next() {
        return Err(format!("unexpected extra argument {extra:?}"));
    }
    // Flag/command compatibility, so typos fail loudly instead of
    // silently doing the default thing.
    let is_serve = args.target.as_deref() == Some("serve");
    if !is_serve && (args.workers.is_some() || args.deadline_ms.is_some()) {
        return Err("--workers and --deadline-ms only apply to `accelwall serve`".to_string());
    }
    if !is_serve && args.addr.is_some() {
        return Err("--addr only applies to `accelwall serve`".to_string());
    }
    if is_serve && args.json {
        return Err("--json does not apply to `accelwall serve`".to_string());
    }
    let computes = matches!(args.target.as_deref(), Some("serve" | "all"));
    if args.threads.is_some() && !computes {
        return Err("--threads only applies to `accelwall all` and `accelwall serve`".to_string());
    }
    if args.list_rules && args.target.as_deref() != Some("lint") {
        return Err("--list-rules only applies to `accelwall lint`".to_string());
    }
    if args.operand.is_some() && !matches!(args.target.as_deref(), Some("dot")) {
        return Err(format!(
            "target {:?} takes no operand",
            args.target.as_deref().unwrap_or("")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `query` takes `--field value` pairs over the query schema, not the
    // fixed flag roster above — route it before the strict parser.
    if raw.first().map(String::as_str) == Some("query") {
        return query(&raw[1..]);
    }
    let args = match parse_args(raw.into_iter()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("run `accelwall list` for targets and flags");
            return ExitCode::FAILURE;
        }
    };
    // Pin the compute pool before anything can start it; after the first
    // parallel kernel runs, the pool size is frozen for the process.
    if let Some(threads) = args.threads {
        accelwall_par::set_threads(threads);
    }
    let registry = Registry::paper();
    match args.target.as_deref() {
        None | Some("list") => {
            if args.json {
                outln!("{}", registry.roster_json().pretty());
            } else {
                outln!("regeneration targets:");
                for e in registry.experiments() {
                    outln!("  {:<12} {}", e.id(), e.description());
                }
                outln!("  {:<12} run every target above", "all");
                outln!("  {:<12} answer an ad-hoc what-if spec", "query");
                outln!("  {:<12} serve artifacts over HTTP", "serve");
                outln!("  {:<12} check workspace invariants", "lint");
                outln!("  {:<12} print this roster", "list");
            }
            ExitCode::SUCCESS
        }
        Some("all") => run_all(&registry, args.json),
        Some("serve") => serve(registry, &args),
        Some("lint") => lint(&args),
        Some("dot") => {
            // `dot` keeps its positional operand: any Table IV
            // abbreviation, defaulting to the Fig. 11 example graph.
            let which = args.operand.unwrap_or_else(|| "fig11".to_string());
            match dot_artifact(&which) {
                Ok(artifact) => {
                    if args.json {
                        outln!("{}", artifact.json.pretty());
                    } else {
                        out!("{}", artifact.text);
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("dot failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(t) => match registry.get(t) {
            Ok(experiment) => match experiment.run(&Ctx::new()) {
                Ok(artifact) => {
                    if args.json {
                        outln!("{}", artifact.json.pretty());
                    } else {
                        out!("{}", artifact.text);
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{t} failed: {e}");
                    ExitCode::FAILURE
                }
            },
            Err(e @ Error::UnknownExperiment { .. }) => {
                eprintln!("{e}");
                eprintln!("run `accelwall list` for descriptions");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// Answers one ad-hoc query spec and prints the JSON body.
///
/// Arguments are `--field value` pairs (or `--field=value`) over the
/// query schema; `--schema` prints that schema instead. Validation is
/// the spec's own: an unknown field or out-of-roster value fails with
/// the full accepted list, exactly like an unknown target. Retryable
/// failures (shedding, injected faults) exit non-zero with the reason.
fn query(raw: &[String]) -> ExitCode {
    use accelwall_query::{QueryEngine, QuerySpec};
    if raw.iter().any(|a| a == "--schema") {
        if raw.len() > 1 {
            eprintln!("--schema takes no other arguments");
            return ExitCode::FAILURE;
        }
        outln!("{}", QueryEngine::schema().pretty());
        return ExitCode::SUCCESS;
    }
    let mut pairs = Vec::new();
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            eprintln!("query arguments are --field value pairs, got {arg:?}");
            eprintln!("run `accelwall query --schema` for the field roster");
            return ExitCode::FAILURE;
        };
        let (name, value) = match flag.split_once('=') {
            Some((name, value)) => (name.to_string(), value.to_string()),
            None => match args.next() {
                Some(value) => (flag.to_string(), value.clone()),
                None => {
                    eprintln!("flag --{flag} needs a value");
                    return ExitCode::FAILURE;
                }
            },
        };
        pairs.push((name, value));
    }
    let spec = match QuerySpec::from_pairs(&pairs) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("run `accelwall query --schema` for the field roster");
            return ExitCode::FAILURE;
        }
    };
    let cache = ArtifactCache::new(Registry::paper(), Ctx::new());
    let engine = QueryEngine::new(std::sync::Arc::new(cache), 0);
    match engine.answer(&spec) {
        Ok(body) => {
            out!("{}", String::from_utf8_lossy(&body));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("query failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every rule of the workspace invariant checker over the
/// enclosing checkout.
///
/// The workspace root is discovered by walking upward from the current
/// directory, so `accelwall lint` works from any subdirectory of the
/// repo; a run outside any checkout fails with the discovery error.
/// `--list-rules` prints the roster instead.
fn lint(args: &Args) -> ExitCode {
    use accelwall_lint::{LintRegistry, ALLOW_AUDIT_DESCRIPTION, ALLOW_AUDIT_RULE};
    let registry = LintRegistry::standard();
    if args.list_rules {
        let roster: Vec<(&str, &str)> = registry
            .lints()
            .map(|l| (l.name(), l.description()))
            .chain(std::iter::once((ALLOW_AUDIT_RULE, ALLOW_AUDIT_DESCRIPTION)))
            .collect();
        if args.json {
            let doc = Value::array(roster.iter().map(|(name, description)| {
                Value::object([
                    ("name", Value::from(*name)),
                    ("description", Value::from(*description)),
                ])
            }));
            outln!("{}", doc.pretty());
        } else {
            outln!("lint rules:");
            for (name, description) in roster {
                outln!("  {name:<16} {description}");
            }
        }
        return ExitCode::SUCCESS;
    }
    let report = std::env::current_dir()
        .and_then(|dir| accelwall_lint::Workspace::discover(&dir))
        .map(|ws| registry.run(&ws));
    match report {
        Ok(report) => {
            if args.json {
                outln!("{}", report.to_json().pretty());
            } else {
                out!("{report}");
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lint failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses and arms the `ACCELWALL_FAULTS` plan, if the variable is set.
///
/// Site names are validated against the registry's experiment ids plus
/// the static probe-site roster; a bad spec or unknown site fails
/// startup with the full accepted list, mirroring the unknown-target
/// error. Returns the armed plan's canonical summary for the banner.
fn arm_faults(registry: &Registry) -> Result<Option<String>, String> {
    let spec = match std::env::var(accelwall_faults::ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => spec,
        _ => return Ok(None),
    };
    let plan = accelwall_faults::FaultPlan::parse(&spec)
        .map_err(|e| format!("{} is invalid: {e}", accelwall_faults::ENV_VAR))?;
    plan.validate_sites(&registry.ids())
        .map_err(|e| format!("{} is invalid: {e}", accelwall_faults::ENV_VAR))?;
    let summary = plan.summary();
    accelwall_faults::arm(plan)
        .map_err(|e| format!("{} could not be armed: {e}", accelwall_faults::ENV_VAR))?;
    Ok(Some(summary))
}

/// Starts the long-lived artifact server and blocks until it drains.
fn serve(registry: Registry, args: &Args) -> ExitCode {
    let config = ServerConfig {
        addr: args
            .addr
            .clone()
            .unwrap_or_else(|| ServerConfig::default().addr),
        workers: args
            .workers
            .unwrap_or_else(|| ServerConfig::default().workers),
        compute_deadline: args.deadline_ms.map_or_else(
            || ServerConfig::default().compute_deadline,
            std::time::Duration::from_millis,
        ),
        ..ServerConfig::default()
    };
    let workers = config.workers;
    let armed = match arm_faults(&registry) {
        Ok(armed) => armed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let cache = ArtifactCache::new(registry, Ctx::new());
    let server = match Server::bind(config, cache) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // One parseable line so scripts (and the integration tests) can
    // discover the resolved port when binding to port 0. Keep it FIRST:
    // the fault banner below must never displace it.
    outln!(
        "accelwall serve listening on http://{} ({workers} workers)",
        server.local_addr()
    );
    if let Some(plan) = armed {
        outln!("accelwall serve armed fault plan: {plan}");
    }
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => {
            outln!("accelwall serve drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the whole registry against one shared memoizing [`Ctx`]:
/// experiments execute one at a time in schedule order, and every shared
/// input (corpus, potential model, per-workload programs and sweeps) is
/// computed once.
fn run_all(registry: &Registry, json: bool) -> ExitCode {
    let results = match registry.run_all(&Ctx::new()) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("scheduling failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    if json {
        let doc = Value::object(results.iter().map(|(id, r)| {
            let v = match r {
                Ok(artifact) => artifact.json.clone(),
                Err(e) => {
                    failed = true;
                    Value::object([("error", Value::from(e.to_string()))])
                }
            };
            (*id, v)
        }));
        outln!("{}", doc.pretty());
    } else {
        for (id, r) in &results {
            outln!("=== {id} ===");
            match r {
                Ok(artifact) => out!("{}", artifact.text),
                Err(e) => {
                    failed = true;
                    eprintln!("{id} failed: {e}");
                }
            }
            outln!();
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
