//! `accelwall-faults` — deterministic fault injection for the stack.
//!
//! The paper's method is to *characterize a limit before you hit it*.
//! This crate applies the same discipline to failures: instead of
//! waiting for a panicking experiment or a transient compute error to
//! show up in production, a [`FaultPlan`] provokes every failure mode on
//! demand so tests can prove the stack contains it, and keep proving it
//! as the code changes.
//!
//! A plan is parsed from a spec string — usually the `ACCELWALL_FAULTS`
//! environment variable ([`ENV_VAR`]) — of comma-separated entries:
//!
//! ```text
//! fig3b:err:2,fig14:panic:1,table5:hang:500ms
//! ```
//!
//! Each entry names an injection **site**, a fault **kind**, and a
//! **budget**:
//!
//! | Kind | Budget | Effect at the probe |
//! |---|---|---|
//! | `err:N` | first `N` hits | returns [`InjectedFault`] (a transient error) |
//! | `panic:N` | first `N` hits | panics (containment must catch it) |
//! | `hang:DUR` | first hit | sleeps `DUR` (`500ms`, `2s`, `0.5s`), then passes |
//!
//! A probe names its [`Site`]: one of the static probe points (the unit
//! variants, listed in [`Site::STATIC`]) or a dynamic per-experiment
//! site (the artifact cache probes [`Site::Experiment`] with the
//! experiment id). A plan names sites as strings;
//! [`FaultPlan::validate_sites`] checks it against the union at arm time
//! so typos fail loudly with the full roster, exactly like an unknown
//! CLI target.
//!
//! Probes are free when nothing is armed: [`probe`] is a single relaxed
//! atomic load on the disarmed path, so shipping code keeps its probes
//! compiled in with no measurable overhead (`BENCH_serve.json` records
//! the warm-path delta). Once armed — [`arm`] or [`arm_from_env`], at
//! most once per process — every rule counts how often it fired, and
//! [`report`] exposes the counts so tests (and `/metrics`) can assert
//! injection coverage rather than trusting it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod sites;

pub use sites::Site;

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// The environment variable [`arm_from_env`] reads the spec from.
pub const ENV_VAR: &str = "ACCELWALL_FAULTS";

/// What an armed rule does when its site is probed within budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an [`InjectedFault`] error on the first `times` hits, then
    /// pass — a transient failure that a retry must recover from.
    Err {
        /// How many probe hits fail before the site heals.
        times: u32,
    },
    /// Panic on the first `times` hits — containment must catch it.
    Panic {
        /// How many probe hits panic before the site heals.
        times: u32,
    },
    /// Sleep for `duration` on the first hit, then pass — a bounded hang
    /// that a compute deadline must cut short.
    Hang {
        /// How long the single hanging hit sleeps.
        duration: Duration,
    },
}

impl FaultKind {
    /// How many probe hits this kind consumes before the site heals.
    pub fn budget(&self) -> u32 {
        match self {
            FaultKind::Err { times } | FaultKind::Panic { times } => *times,
            FaultKind::Hang { .. } => 1,
        }
    }

    /// The kind's spec keyword (`err`, `panic`, `hang`).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Err { .. } => "err",
            FaultKind::Panic { .. } => "panic",
            FaultKind::Hang { .. } => "hang",
        }
    }
}

/// One `site:kind:budget` entry of a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    /// The injection site this rule targets.
    pub site: String,
    /// What happens when the site is probed within budget.
    pub kind: FaultKind,
}

/// A parsed (not yet armed) fault plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The rules in spec order; sites are unique.
    pub rules: Vec<FaultRule>,
}

/// Why a spec string (or an arming attempt) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec was empty or contained an empty entry.
    Empty,
    /// An entry was not of the `site:kind:budget` shape.
    Malformed {
        /// The offending entry, verbatim.
        entry: String,
    },
    /// An entry named a kind other than `err`, `panic`, or `hang`.
    UnknownKind {
        /// The offending entry, verbatim.
        entry: String,
        /// The kind keyword that was not recognized.
        kind: String,
    },
    /// An `err`/`panic` budget was not a positive integer.
    BadCount {
        /// The offending entry, verbatim.
        entry: String,
        /// The budget field that failed to parse.
        value: String,
    },
    /// A `hang` duration was not `<n>ms` or `<n>s`.
    BadDuration {
        /// The offending entry, verbatim.
        entry: String,
        /// The duration field that failed to parse.
        value: String,
    },
    /// Two entries targeted the same site.
    DuplicateSite {
        /// The site named more than once.
        site: String,
    },
    /// A rule named a site that is neither static nor known-dynamic.
    UnknownSite {
        /// The site that matched nothing.
        site: String,
        /// Every site the validator would have accepted.
        known: Vec<String>,
    },
    /// [`arm`] was called twice; a process arms at most one plan.
    AlreadyArmed,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Empty => write!(
                f,
                "empty fault spec; expected comma-separated site:kind:budget entries \
                 like \"fig3b:err:2,table5:hang:500ms\""
            ),
            SpecError::Malformed { entry } => write!(
                f,
                "malformed fault entry {entry:?}; expected site:kind:budget \
                 (e.g. \"fig3b:err:2\", \"fig14:panic:1\", \"table5:hang:500ms\")"
            ),
            SpecError::UnknownKind { entry, kind } => write!(
                f,
                "unknown fault kind {kind:?} in {entry:?}; known kinds: err panic hang"
            ),
            SpecError::BadCount { entry, value } => write!(
                f,
                "fault budget {value:?} in {entry:?} must be a positive integer"
            ),
            SpecError::BadDuration { entry, value } => write!(
                f,
                "hang duration {value:?} in {entry:?} must be <n>ms or <n>s, \
                 integer or fractional (e.g. 500ms, 0.5s)"
            ),
            SpecError::DuplicateSite { site } => {
                write!(f, "site {site:?} appears in more than one fault entry")
            }
            SpecError::UnknownSite { site, known } => {
                write!(f, "unknown fault site {site:?}; known sites: ")?;
                for (i, k) in known.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    f.write_str(k)?;
                }
                Ok(())
            }
            SpecError::AlreadyArmed => {
                write!(
                    f,
                    "a fault plan is already armed; arm at most once per process"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl FaultPlan {
    /// Parses a comma-separated `site:kind:budget` spec.
    ///
    /// # Errors
    ///
    /// A [`SpecError`] pinpointing the first offending entry.
    pub fn parse(spec: &str) -> Result<FaultPlan, SpecError> {
        if spec.trim().is_empty() {
            return Err(SpecError::Empty);
        }
        let mut rules: Vec<FaultRule> = Vec::new();
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                return Err(SpecError::Empty);
            }
            let mut fields = entry.split(':');
            let (site, kind, budget) = match (fields.next(), fields.next(), fields.next()) {
                (Some(s), Some(k), Some(b)) if fields.next().is_none() && !s.is_empty() => {
                    (s.trim(), k.trim(), b.trim())
                }
                _ => {
                    return Err(SpecError::Malformed {
                        entry: entry.to_string(),
                    })
                }
            };
            let kind = match kind {
                "err" => FaultKind::Err {
                    times: parse_count(entry, budget)?,
                },
                "panic" => FaultKind::Panic {
                    times: parse_count(entry, budget)?,
                },
                "hang" => FaultKind::Hang {
                    duration: parse_duration(entry, budget)?,
                },
                other => {
                    return Err(SpecError::UnknownKind {
                        entry: entry.to_string(),
                        kind: other.to_string(),
                    })
                }
            };
            if rules.iter().any(|r| r.site == site) {
                return Err(SpecError::DuplicateSite {
                    site: site.to_string(),
                });
            }
            rules.push(FaultRule {
                site: site.to_string(),
                kind,
            });
        }
        Ok(FaultPlan { rules })
    }

    /// Checks every rule's site against the static roster plus the
    /// caller's dynamic site names (e.g. the registry's experiment ids).
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownSite`] carrying the full accepted-site list,
    /// mirroring the CLI's unknown-target error.
    pub fn validate_sites(&self, dynamic: &[&str]) -> Result<(), SpecError> {
        for rule in &self.rules {
            if !sites::is_static(&rule.site) && !dynamic.contains(&rule.site.as_str()) {
                let known = sites::names()
                    .map(str::to_string)
                    .chain(dynamic.iter().map(|d| (*d).to_string()))
                    .collect();
                return Err(SpecError::UnknownSite {
                    site: rule.site.clone(),
                    known,
                });
            }
        }
        Ok(())
    }

    /// Renders the plan back into its canonical spec string.
    pub fn summary(&self) -> String {
        self.rules
            .iter()
            .map(|r| match &r.kind {
                FaultKind::Err { times } => format!("{}:err:{times}", r.site),
                FaultKind::Panic { times } => format!("{}:panic:{times}", r.site),
                FaultKind::Hang { duration } => {
                    format!("{}:hang:{}ms", r.site, duration.as_millis())
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn parse_count(entry: &str, value: &str) -> Result<u32, SpecError> {
    match value.parse::<u32>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(SpecError::BadCount {
            entry: entry.to_string(),
            value: value.to_string(),
        }),
    }
}

/// Parses a `hang` duration: a non-negative number — integer or
/// fractional, like `500ms`, `2s`, or `0.5s` — followed by its unit.
/// A bare number, a negative value, or anything else (`500`, `fast`,
/// `1.2.3s`) is rejected with the entry pinpointed.
fn parse_duration(entry: &str, value: &str) -> Result<Duration, SpecError> {
    let bad = || SpecError::BadDuration {
        entry: entry.to_string(),
        value: value.to_string(),
    };
    let split = value
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .ok_or_else(bad)?;
    let (number, unit) = value.split_at(split);
    // `f64::parse` would also take exponents, signs, `inf`, and `nan`;
    // the digits-and-one-dot shape keeps the spec grammar strict.
    if number.is_empty() || number.matches('.').count() > 1 {
        return Err(bad());
    }
    let n: f64 = number.parse().map_err(|_| bad())?;
    let seconds = match unit {
        "ms" => n / 1e3,
        "s" => n,
        _ => return Err(bad()),
    };
    // Rejects what no `Duration` holds (above ~1.8e19 s, or infinite)
    // instead of panicking.
    Duration::try_from_secs_f64(seconds).map_err(|_| bad())
}

/// The error an `err`-kind probe returns — a transient, retryable
/// failure with the firing site in the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The site whose armed rule fired.
    pub site: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected transient fault at site {:?} (armed via {ENV_VAR})",
            self.site
        )
    }
}

impl std::error::Error for InjectedFault {}

/// One armed rule's coverage record, for [`report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// The rule's injection site.
    pub site: String,
    /// The kind keyword (`err`, `panic`, `hang`).
    pub kind: &'static str,
    /// The rule's total budget.
    pub budget: u32,
    /// How many probe hits actually fired so far.
    pub fired: u32,
}

/// A [`FaultPlan`] with live per-rule budgets and fired counters.
#[derive(Debug)]
pub struct ArmedPlan {
    rules: Vec<ArmedRule>,
}

#[derive(Debug)]
struct ArmedRule {
    rule: FaultRule,
    remaining: AtomicU32,
    fired: AtomicU32,
}

impl ArmedPlan {
    /// Arms a plan locally (tests drive this directly; production code
    /// arms the process-global plan via [`arm`]).
    pub fn new(plan: FaultPlan) -> ArmedPlan {
        ArmedPlan {
            rules: plan
                .rules
                .into_iter()
                .map(|rule| ArmedRule {
                    remaining: AtomicU32::new(rule.kind.budget()),
                    fired: AtomicU32::new(0),
                    rule,
                })
                .collect(),
        }
    }

    /// Fires the site's rule if one is armed and within budget.
    ///
    /// A `hang` rule sleeps here and then passes; a `panic` rule panics
    /// here (the caller's containment is the thing under test).
    ///
    /// # Errors
    ///
    /// [`InjectedFault`] when an `err` rule fires.
    pub fn probe(&self, site: &str) -> Result<(), InjectedFault> {
        let Some(armed) = self.rules.iter().find(|r| r.rule.site == site) else {
            return Ok(());
        };
        // Claim one unit of budget; losers of the race (or exhausted
        // rules) pass through untouched. AcqRel on the winning claim
        // orders each firing after the previous one; Acquire on failure
        // is enough to observe exhaustion.
        if armed
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_err()
        {
            return Ok(());
        }
        armed.fired.fetch_add(1, Ordering::Relaxed);
        match &armed.rule.kind {
            FaultKind::Err { .. } => Err(InjectedFault {
                site: site.to_string(),
            }),
            #[expect(
                clippy::panic,
                reason = "panicking is this rule's entire job; containment upstream is the thing under test"
            )]
            FaultKind::Panic { .. } => {
                panic!("injected fault: site {site:?} ordered to panic by the armed FaultPlan")
            }
            FaultKind::Hang { duration } => {
                std::thread::sleep(*duration);
                Ok(())
            }
        }
    }

    /// Per-rule coverage: which sites fired, how often, out of what
    /// budget.
    pub fn report(&self) -> Vec<SiteReport> {
        self.rules
            .iter()
            .map(|r| SiteReport {
                site: r.rule.site.clone(),
                kind: r.rule.kind.label(),
                budget: r.rule.kind.budget(),
                fired: r.fired.load(Ordering::Relaxed),
            })
            .collect()
    }
}

static ARMED: OnceLock<ArmedPlan> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Arms `plan` as the process-global plan; at most one plan per process.
///
/// # Errors
///
/// [`SpecError::AlreadyArmed`] when a plan was armed earlier.
pub fn arm(plan: FaultPlan) -> Result<&'static ArmedPlan, SpecError> {
    let mut fresh = false;
    let armed = ARMED.get_or_init(|| {
        fresh = true;
        ArmedPlan::new(plan)
    });
    if !fresh {
        return Err(SpecError::AlreadyArmed);
    }
    // Relaxed: ACTIVE is only a fast-path gate — the plan itself is
    // published by (and re-read through) the ARMED OnceLock, whose
    // get()/get_or_init() pair carries the acquire/release edge.
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(armed)
}

/// Parses [`ENV_VAR`] and arms the result; `Ok(None)` when unset/empty.
///
/// # Errors
///
/// A [`SpecError`] for an unparsable spec or a second arming.
pub fn arm_from_env() -> Result<Option<&'static ArmedPlan>, SpecError> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => arm(FaultPlan::parse(&spec)?).map(Some),
        _ => Ok(None),
    }
}

/// Whether a plan is armed in this process.
pub fn is_armed() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// The process-global injection probe.
///
/// Disarmed (the shipping default) this is one relaxed atomic load —
/// probes stay compiled into hot paths at no measurable cost. Armed, it
/// defers to [`ArmedPlan::probe`].
///
/// # Errors
///
/// [`InjectedFault`] when an armed `err` rule fires at `site`.
pub fn probe(site: Site) -> Result<(), InjectedFault> {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Ok(());
    }
    match ARMED.get() {
        Some(plan) => plan.probe(site.name()),
        None => Ok(()),
    }
}

/// The armed plan's coverage report; empty when nothing is armed.
pub fn report() -> Vec<SiteReport> {
    ARMED.get().map_or_else(Vec::new, ArmedPlan::report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example_spec() {
        let plan = FaultPlan::parse("fig3b:err:2, fig14:panic:1,table5:hang:500ms").unwrap();
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[0].site, "fig3b");
        assert_eq!(plan.rules[0].kind, FaultKind::Err { times: 2 });
        assert_eq!(plan.rules[1].kind, FaultKind::Panic { times: 1 });
        assert_eq!(
            plan.rules[2].kind,
            FaultKind::Hang {
                duration: Duration::from_millis(500)
            }
        );
        assert_eq!(
            plan.summary(),
            "fig3b:err:2,fig14:panic:1,table5:hang:500ms"
        );
    }

    #[test]
    fn fractional_second_hang_durations_parse() {
        let plan = FaultPlan::parse("serve-request:hang:0.5s").unwrap();
        assert_eq!(
            plan.rules[0].kind,
            FaultKind::Hang {
                duration: Duration::from_millis(500)
            }
        );
        assert_eq!(plan.summary(), "serve-request:hang:500ms");
        let plan = FaultPlan::parse("a:hang:2.5s,b:hang:1.5ms").unwrap();
        assert_eq!(
            plan.rules[0].kind,
            FaultKind::Hang {
                duration: Duration::from_millis(2500)
            }
        );
        assert_eq!(
            plan.rules[1].kind,
            FaultKind::Hang {
                duration: Duration::from_micros(1500)
            }
        );
    }

    #[test]
    fn rejects_malformed_specs_with_precise_errors() {
        assert_eq!(FaultPlan::parse(""), Err(SpecError::Empty));
        assert_eq!(FaultPlan::parse("a:err:1,"), Err(SpecError::Empty));
        assert!(matches!(
            FaultPlan::parse("fig3b:err"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("fig3b:err:1:2"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("fig3b:explode:1"),
            Err(SpecError::UnknownKind { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("fig3b:err:0"),
            Err(SpecError::BadCount { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("fig3b:err:two"),
            Err(SpecError::BadCount { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("fig3b:hang:500"),
            Err(SpecError::BadDuration { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("fig3b:hang:fast"),
            Err(SpecError::BadDuration { .. })
        ));
        // Fractional durations are accepted, but only in the strict
        // digits-and-one-dot shape: no double dots, bare dots, signs,
        // exponents, or missing units.
        for rejected in [
            "fig3b:hang:1.2.3s",
            "fig3b:hang:.s",
            "fig3b:hang:.ms",
            "fig3b:hang:0.5",
            "fig3b:hang:-1s",
            "fig3b:hang:1e3ms",
            "fig3b:hang:99999999999999999999999ms",
        ] {
            assert!(
                matches!(
                    FaultPlan::parse(rejected),
                    Err(SpecError::BadDuration { .. })
                ),
                "{rejected} should be rejected"
            );
        }
        assert_eq!(
            FaultPlan::parse("a:err:1,a:panic:1"),
            Err(SpecError::DuplicateSite { site: "a".into() })
        );
    }

    #[test]
    fn validation_accepts_static_and_dynamic_sites_and_lists_the_roster() {
        let plan = FaultPlan::parse("serve-request:panic:1,fig3b:err:2").unwrap();
        assert!(plan.validate_sites(&["fig3b", "fig14"]).is_ok());
        let plan = FaultPlan::parse("fig99:err:1").unwrap();
        match plan.validate_sites(&["fig3b"]) {
            Err(SpecError::UnknownSite { site, known }) => {
                assert_eq!(site, "fig99");
                assert!(known.contains(&Site::ServeRequest.name().to_string()));
                assert!(known.contains(&"fig3b".to_string()));
            }
            other => panic!("expected UnknownSite, got {other:?}"),
        }
    }

    #[test]
    fn err_budget_fails_n_times_then_heals_and_records_coverage() {
        let armed = ArmedPlan::new(FaultPlan::parse("x:err:2").unwrap());
        assert!(armed.probe("x").is_err());
        assert!(armed.probe("x").is_err());
        assert!(armed.probe("x").is_ok(), "budget exhausted, site healed");
        assert!(armed.probe("unrelated").is_ok());
        let report = armed.report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].site, "x");
        assert_eq!(report[0].kind, "err");
        assert_eq!(report[0].budget, 2);
        assert_eq!(report[0].fired, 2);
    }

    #[test]
    fn concurrent_probes_never_overfire_the_budget() {
        let armed = ArmedPlan::new(FaultPlan::parse("x:err:3").unwrap());
        let errors = std::sync::atomic::AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        if armed.probe("x").is_err() {
                            errors.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(errors.load(Ordering::SeqCst), 3);
        assert_eq!(armed.report()[0].fired, 3);
    }

    #[test]
    fn panic_rule_panics_exactly_once() {
        let armed = ArmedPlan::new(FaultPlan::parse("x:panic:1").unwrap());
        let result = std::panic::catch_unwind(|| armed.probe("x"));
        assert!(result.is_err(), "first hit panics");
        assert!(armed.probe("x").is_ok(), "budget spent, site healed");
        assert_eq!(armed.report()[0].fired, 1);
    }

    #[test]
    fn hang_rule_sleeps_once_then_passes() {
        let armed = ArmedPlan::new(FaultPlan::parse("x:hang:50ms").unwrap());
        let start = std::time::Instant::now();
        assert!(armed.probe("x").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(50));
        let start = std::time::Instant::now();
        assert!(armed.probe("x").is_ok());
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn disarmed_global_probe_is_a_no_op() {
        // This test must not arm the global plan: sibling tests in this
        // process rely on the disarmed fast path staying silent.
        assert!(!is_armed() || ARMED.get().is_some());
        assert!(probe(Site::Experiment("never-armed-site")).is_ok());
        assert!(report().iter().all(|r| r.site != "never-armed-site"));
    }
}
