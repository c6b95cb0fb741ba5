//! [`ArtifactCache`]: process-lifetime memoization with failure
//! containment.
//!
//! The [`Ctx`](crate::cache::Ctx) memoizes the *inputs* experiments share
//! (corpus, fits, sweeps). This module memoizes the *outputs*: each
//! registry target's [`Artifact`] is computed at most once per cache
//! lifetime, so a long-lived process (the `accelwall serve` HTTP server)
//! extends the pipeline's compute-once invariant from "per `all` run" to
//! "per server lifetime".
//!
//! Success is permanent; failure is not. Each target sits behind a slot
//! state machine —
//!
//! ```text
//! Empty ── first request ──► Computing ──► Done (artifact, forever)
//!   ▲                           │
//!   └── retry after backoff ────┴──► Failed { attempts, last_error }
//! ```
//!
//! — where a failed attempt parks the slot in `Failed` with a
//! decorrelated-jitter backoff stamp instead of memoizing the error
//! forever. A later request after the backoff window retries (bounded by
//! [`RetryPolicy::max_attempts`]); inside the window, and once the budget
//! is spent, requests answer the stored error immediately. Panicking
//! experiments are caught (`catch_unwind`) on a dedicated compute thread
//! and converted to [`Error::ExperimentPanicked`], so one bad target can
//! never poison a lock or kill a server worker.
//!
//! Computes run on their own named thread (`accelwall-compute-{n}`) while
//! requesters wait on a condvar; [`ArtifactCache::get_within`] bounds
//! that wait, turning a hung experiment into a typed
//! [`Error::ComputeTimeout`] (the server's `504`) while the compute keeps
//! running and can still settle the slot for later requests.
//!
//! Requesting an artifact still resolves its declared dependencies first,
//! in the same order [`Registry::schedule`] would, so a dependent target
//! requested cold warms exactly the caches an `all` run would.
//!
//! Every fault path is observable: [`CacheStats`] counts requests, hits,
//! computes, retries, contained panics, and timeouts, and
//! [`ArtifactCache::failed_targets`] lists the slots currently in
//! `Failed` (the server's `/healthz` degraded report). Before every
//! attempt the cache probes `accelwall_faults` with the experiment's id,
//! so an armed [`FaultPlan`](accelwall_faults::FaultPlan) can provoke any
//! of these paths deterministically.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use accelwall_faults::Site;
use accelwall_stats::rng::{decorrelated_backoff, Rng};

use crate::cache::Ctx;
use crate::error::{Error, Result};
use crate::experiment::{Artifact, Experiment};
use crate::registry::Registry;

/// Bounds on how failure retries behave.
///
/// The first failure of a slot waits exactly `backoff_base`; each later
/// failure draws a decorrelated-jitter window
/// ([`accelwall_stats::rng::decorrelated_backoff`]) — uniform in
/// `[backoff_base, 3 × previous]`, clamped to `backoff_cap` — so
/// concurrently failing targets spread their retries instead of
/// thundering back in lockstep. After `max_attempts` failures the error
/// is permanent for the cache's lifetime. The `Retry-After` a server
/// reports always comes from the actual stamped instant
/// ([`FailedTarget::retry_in`]), never from re-deriving the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try + retries) before a failure sticks.
    pub max_attempts: u32,
    /// Floor of every backoff window; the first failure waits exactly
    /// this long.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff window.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// Distinguishes jitter streams across attempts within one process;
/// Relaxed: a pure uniqueness counter, no ordering with other state.
static JITTER_NONCE: AtomicUsize = AtomicUsize::new(0);

/// A fresh jitter stream for one backoff draw, seeded from the process
/// id and a global nonce — never the clock, so arming a fault plan in a
/// test cannot make the schedule depend on wall time.
fn jitter_rng() -> Rng {
    let nonce = JITTER_NONCE.fetch_add(1, Ordering::Relaxed) as u64;
    Rng::seed(u64::from(std::process::id()).wrapping_shl(32) ^ nonce)
}

/// One target currently (or permanently) in the `Failed` state.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedTarget {
    /// The failed experiment's id.
    pub id: &'static str,
    /// Consecutive failed attempts so far.
    pub attempts: u32,
    /// The most recent failure.
    pub error: Error,
    /// Time until a request may retry; `None` once the attempt budget is
    /// spent and the failure is permanent.
    pub retry_in: Option<Duration>,
}

/// Memoizes every registry target's artifact for the life of the value.
///
/// Thread-safe: concurrent requests for the same target share one
/// compute (waiters park on a per-slot condvar), exactly like the shared
/// inputs in [`Ctx`]. Cloning shares the same slots.
#[derive(Debug, Clone)]
pub struct ArtifactCache {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    registry: Registry,
    ctx: Ctx,
    slots: Vec<Slot>,
    policy: RetryPolicy,
    requests: AtomicUsize,
    hits: AtomicUsize,
    computes: AtomicUsize,
    retries: AtomicUsize,
    panics_contained: AtomicUsize,
    timeouts: AtomicUsize,
}

#[derive(Debug)]
struct Slot {
    /// The settled artifact; written exactly once, before the gate turns
    /// `Done`, so readers that see the value never need the lock.
    value: OnceLock<Artifact>,
    gate: Mutex<Gate>,
    ready: Condvar,
}

#[derive(Debug)]
enum Gate {
    Empty,
    Computing,
    Done,
    Failed {
        attempts: u32,
        last_error: Error,
        retry_at: Instant,
        /// The window just served, fed back as the `previous` term of
        /// the next decorrelated-jitter draw.
        backoff: Duration,
    },
}

/// A snapshot of the counters of an [`ArtifactCache`].
///
/// The cache invariant is `computes <= targets + retries` regardless of
/// request counts or thread interleaving; `hits` counts requests
/// answered from an already-settled slot (a stored artifact, or a stored
/// failure that is not yet eligible to retry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Times [`ArtifactCache::get`] was called.
    pub requests: usize,
    /// Requests whose slot was already settled on arrival.
    pub hits: usize,
    /// Experiment attempts actually executed (including dependency fills
    /// and failed attempts).
    pub computes: usize,
    /// Attempts beyond the first for a slot — failures given another try.
    pub retries: usize,
    /// Experiment panics caught and converted to typed errors.
    pub panics_contained: usize,
    /// Requests that gave up waiting under a [`ArtifactCache::get_within`]
    /// deadline.
    pub timeouts: usize,
}

impl CacheStats {
    /// Requests that had to wait for (or trigger) a compute.
    pub fn misses(&self) -> usize {
        self.requests - self.hits
    }
}

fn lock(gate: &Mutex<Gate>) -> MutexGuard<'_, Gate> {
    // A panicking experiment never holds the gate (computes run under
    // catch_unwind and settle the gate afterwards), but recover anyway.
    gate.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ArtifactCache {
    /// Wraps a registry and a shared-input context in an artifact cache
    /// with the default [`RetryPolicy`].
    pub fn new(registry: Registry, ctx: Ctx) -> ArtifactCache {
        ArtifactCache::with_retry_policy(registry, ctx, RetryPolicy::default())
    }

    /// As [`ArtifactCache::new`], with an explicit retry policy (tests
    /// use tiny backoffs to exercise recovery quickly).
    pub fn with_retry_policy(registry: Registry, ctx: Ctx, policy: RetryPolicy) -> ArtifactCache {
        let slots = registry
            .experiments()
            .map(|_| Slot {
                value: OnceLock::new(),
                gate: Mutex::new(Gate::Empty),
                ready: Condvar::new(),
            })
            .collect();
        ArtifactCache {
            inner: Arc::new(Inner {
                registry,
                ctx,
                slots,
                policy,
                requests: AtomicUsize::new(0),
                hits: AtomicUsize::new(0),
                computes: AtomicUsize::new(0),
                retries: AtomicUsize::new(0),
                panics_contained: AtomicUsize::new(0),
                timeouts: AtomicUsize::new(0),
            }),
        }
    }

    /// The registry whose targets this cache serves.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// The shared-input context every cached run draws from.
    pub fn ctx(&self) -> &Ctx {
        &self.inner.ctx
    }

    /// The memoized artifact for `id`, computing it (and its declared
    /// dependencies, dependencies first) on first request, with no bound
    /// on how long the compute may take.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownExperiment`] for ids outside the registry (the
    /// caller gets the full roster, exactly like the CLI),
    /// [`Error::DependencyCycle`] if declarations deadlock, or the
    /// failure of the most recent attempt — retryable after its backoff
    /// window until [`RetryPolicy::max_attempts`] is spent.
    pub fn get(&self, id: &str) -> Result<&Artifact> {
        self.get_within(id, None)
    }

    /// As [`ArtifactCache::get`], but gives up waiting after `deadline`
    /// with [`Error::ComputeTimeout`]. The compute itself keeps running
    /// on its own thread and can still settle the slot for later
    /// requests — a hung experiment costs a request, not a worker.
    ///
    /// # Errors
    ///
    /// As [`ArtifactCache::get`], plus [`Error::ComputeTimeout`].
    pub fn get_within(&self, id: &str, deadline: Option<Duration>) -> Result<&Artifact> {
        self.inner.requests.fetch_add(1, Ordering::Relaxed);
        let index = self.index_of(id)?;
        if let Some(settled) = self.peek(index) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return settled;
        }
        let wait_until = deadline.map(|d| Instant::now() + d);
        for dep in self.closure(index)? {
            // Dependency warming is best-effort, exactly as in an `all`
            // run: a failed dep surfaces through the target's own run.
            let _ = self.resolve(dep, wait_until);
        }
        self.resolve(index, wait_until)
    }

    /// Answers from a settled slot without blocking: a stored artifact,
    /// or a stored failure that is not currently eligible to retry.
    fn peek(&self, index: usize) -> Option<Result<&Artifact>> {
        let slot = &self.inner.slots[index];
        if let Some(artifact) = slot.value.get() {
            return Some(Ok(artifact));
        }
        let gate = lock(&slot.gate);
        if let Gate::Failed {
            attempts,
            last_error,
            retry_at,
            ..
        } = &*gate
        {
            if *attempts >= self.inner.policy.max_attempts || Instant::now() < *retry_at {
                return Some(Err(last_error.clone()));
            }
        }
        None
    }

    /// Drives one slot to a settled answer: starts (or retries) the
    /// compute if the slot is open, otherwise waits for the thread that
    /// is already computing it.
    fn resolve(&self, index: usize, wait_until: Option<Instant>) -> Result<&Artifact> {
        let slot = &self.inner.slots[index];
        let started = Instant::now();
        let mut gate = lock(&slot.gate);
        loop {
            match &*gate {
                Gate::Done => {
                    let value = slot.value.get();
                    #[expect(
                        clippy::expect_used,
                        reason = "Done is written only after the OnceLock fills"
                    )]
                    return Ok(value.expect("Done gate implies a stored artifact"));
                }
                Gate::Failed {
                    attempts,
                    last_error,
                    retry_at,
                    backoff,
                } => {
                    if *attempts >= self.inner.policy.max_attempts || Instant::now() < *retry_at {
                        return Err(last_error.clone());
                    }
                    let (prior, prior_backoff) = (*attempts, *backoff);
                    self.inner.retries.fetch_add(1, Ordering::Relaxed);
                    *gate = Gate::Computing;
                    drop(gate);
                    self.spawn_attempt(index, prior, prior_backoff);
                    gate = lock(&slot.gate);
                }
                Gate::Empty => {
                    *gate = Gate::Computing;
                    drop(gate);
                    self.spawn_attempt(index, 0, Duration::ZERO);
                    gate = lock(&slot.gate);
                }
                Gate::Computing => match wait_until {
                    None => {
                        gate = slot
                            .ready
                            .wait(gate)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    Some(until) => {
                        let now = Instant::now();
                        if now >= until {
                            self.inner.timeouts.fetch_add(1, Ordering::Relaxed);
                            return Err(Error::ComputeTimeout {
                                id: self.id_of(index).to_string(),
                                waited_ms: started.elapsed().as_millis() as u64,
                            });
                        }
                        gate = slot
                            .ready
                            .wait_timeout(gate, until - now)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                },
            }
        }
    }

    /// Runs one attempt off the requester's thread so a panic or a hang
    /// is contained there, never on a server worker. Attempts go through
    /// the shared `accelwall-par` detached-spawn helper, which parks and
    /// reuses carrier threads — retries under backoff no longer churn a
    /// fresh OS thread each attempt. If no carrier can be obtained the
    /// helper runs the attempt inline; containment still holds
    /// (`catch_unwind`), only the deadline degrades to best-effort.
    fn spawn_attempt(&self, index: usize, prior_failures: u32, prior_backoff: Duration) {
        self.inner.computes.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::clone(&self.inner);
        accelwall_par::spawn_detached(&format!("accelwall-compute-{index}"), move || {
            run_attempt(&inner, index, prior_failures, prior_backoff);
        });
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            requests: self.inner.requests.load(Ordering::Relaxed),
            hits: self.inner.hits.load(Ordering::Relaxed),
            computes: self.inner.computes.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            panics_contained: self.inner.panics_contained.load(Ordering::Relaxed),
            timeouts: self.inner.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Every target currently in the `Failed` state, in registry order
    /// (the server's `/healthz` degraded report). Empty means ready.
    pub fn failed_targets(&self) -> Vec<FailedTarget> {
        (0..self.inner.slots.len())
            .filter_map(|index| self.failure_at(index))
            .collect()
    }

    /// The `Failed`-state record for `id`, if it is currently failed.
    pub fn failure_of(&self, id: &str) -> Option<FailedTarget> {
        self.failure_at(self.index_of(id).ok()?)
    }

    fn failure_at(&self, index: usize) -> Option<FailedTarget> {
        let gate = lock(&self.inner.slots[index].gate);
        if let Gate::Failed {
            attempts,
            last_error,
            retry_at,
            ..
        } = &*gate
        {
            let retry_in = if *attempts >= self.inner.policy.max_attempts {
                None
            } else {
                Some(retry_at.saturating_duration_since(Instant::now()))
            };
            return Some(FailedTarget {
                id: self.id_of(index),
                attempts: *attempts,
                error: last_error.clone(),
                retry_in,
            });
        }
        None
    }

    fn index_of(&self, id: &str) -> Result<usize> {
        self.inner
            .registry
            .experiments()
            .position(|e| e.id() == id)
            .ok_or_else(|| Error::UnknownExperiment {
                id: id.to_string(),
                known: self.inner.registry.ids(),
            })
    }

    fn id_of(&self, index: usize) -> &'static str {
        self.inner
            .registry
            .experiments()
            .nth(index)
            .map_or("<out of roster>", Experiment::id)
    }

    /// The dependency closure of `index` in dependencies-first order,
    /// excluding `index` itself.
    fn closure(&self, index: usize) -> Result<Vec<usize>> {
        let mut order = Vec::new();
        let mut state = vec![Visit::Unvisited; self.inner.slots.len()];
        self.visit(index, &mut state, &mut order)?;
        order.pop();
        Ok(order)
    }

    fn visit(&self, index: usize, state: &mut [Visit], order: &mut Vec<usize>) -> Result<()> {
        match state[index] {
            Visit::Done => return Ok(()),
            Visit::InProgress => {
                return Err(Error::DependencyCycle {
                    ids: self.inner.registry.ids(),
                })
            }
            Visit::Unvisited => state[index] = Visit::InProgress,
        }
        let deps: Vec<usize> = self
            .experiment(index)?
            .deps()
            .iter()
            .map(|d| self.index_of(d))
            .collect::<Result<_>>()?;
        for dep in deps {
            self.visit(dep, state, order)?;
        }
        state[index] = Visit::Done;
        order.push(index);
        Ok(())
    }

    /// The experiment at roster position `index`, as a typed error.
    ///
    /// `slots` and the roster share their length, so every index that
    /// reaches here is in range; keeping the lookup fallible means an
    /// inconsistency would surface as a typed error, not a panic in
    /// whichever server worker happened to trip it.
    fn experiment(&self, index: usize) -> Result<&dyn Experiment> {
        self.inner
            .registry
            .experiments()
            .nth(index)
            .ok_or_else(|| Error::UnknownExperiment {
                id: format!("roster index {index}"),
                known: self.inner.registry.ids(),
            })
    }
}

/// One compute attempt, run on its own thread: probe the fault plan,
/// run the experiment under `catch_unwind`, settle the gate, wake the
/// waiters.
fn run_attempt(inner: &Arc<Inner>, index: usize, prior_failures: u32, prior_backoff: Duration) {
    let outcome = catch_unwind(AssertUnwindSafe(|| attempt(inner, index)));
    let result = outcome.unwrap_or_else(|_| {
        inner.panics_contained.fetch_add(1, Ordering::Relaxed);
        Err(Error::ExperimentPanicked {
            id: inner
                .registry
                .experiments()
                .nth(index)
                .map_or_else(|| format!("roster index {index}"), |e| e.id().to_string()),
        })
    });
    let slot = &inner.slots[index];
    let mut gate = lock(&slot.gate);
    match result {
        Ok(artifact) => {
            // Only one attempt is ever in flight per slot, so this set
            // wins; the gate turns Done strictly after the value lands.
            let _ = slot.value.set(artifact);
            *gate = Gate::Done;
        }
        Err(error) => {
            let attempts = prior_failures + 1;
            let backoff = decorrelated_backoff(
                &mut jitter_rng(),
                inner.policy.backoff_base,
                inner.policy.backoff_cap,
                prior_backoff,
            );
            *gate = Gate::Failed {
                attempts,
                last_error: error,
                retry_at: Instant::now() + backoff,
                backoff,
            };
        }
    }
    drop(gate);
    slot.ready.notify_all();
}

fn attempt(inner: &Arc<Inner>, index: usize) -> Result<Artifact> {
    let experiment =
        inner
            .registry
            .experiments()
            .nth(index)
            .ok_or_else(|| Error::UnknownExperiment {
                id: format!("roster index {index}"),
                known: inner.registry.ids(),
            })?;
    // Each experiment id is a dynamic fault-injection site: an armed
    // plan like `fig3b:err:2` fires here, before the real compute.
    accelwall_faults::probe(Site::Experiment(experiment.id()))?;
    experiment.run(&inner.ctx)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Visit {
    Unvisited,
    InProgress,
    Done,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use accelwall_accelsim::SweepSpace;
    use accelwall_stats::StatsError;

    fn cache() -> ArtifactCache {
        ArtifactCache::new(Registry::paper(), Ctx::with_space(SweepSpace::coarse()))
    }

    /// A tiny policy so recovery tests run in milliseconds.
    fn eager_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
        }
    }

    /// An experiment that fails its first `failures` runs, then succeeds.
    struct Flaky {
        id: &'static str,
        failures: u32,
        runs: AtomicUsize,
    }

    impl Experiment for Flaky {
        fn id(&self) -> &'static str {
            self.id
        }
        fn description(&self) -> &'static str {
            "fails N times then succeeds"
        }
        fn run(&self, _ctx: &Ctx) -> Result<Artifact> {
            let run = self.runs.fetch_add(1, Ordering::SeqCst);
            if (run as u32) < self.failures {
                return Err(Error::Stats(StatsError::NotEnoughData {
                    provided: run,
                    required: self.failures as usize,
                }));
            }
            Ok(Artifact::new(
                Value::from(self.id),
                format!("{}\n", self.id),
            ))
        }
    }

    /// An experiment that panics its first `panics` runs, then succeeds.
    struct Panicky {
        id: &'static str,
        panics: u32,
        runs: AtomicUsize,
    }

    impl Experiment for Panicky {
        fn id(&self) -> &'static str {
            self.id
        }
        fn description(&self) -> &'static str {
            "panics N times then succeeds"
        }
        fn run(&self, _ctx: &Ctx) -> Result<Artifact> {
            let run = self.runs.fetch_add(1, Ordering::SeqCst);
            assert!((run as u32) >= self.panics, "{} ordered to panic", self.id);
            Ok(Artifact::new(
                Value::from(self.id),
                format!("{}\n", self.id),
            ))
        }
    }

    /// An experiment that sleeps long, for deadline tests.
    struct Sleepy {
        id: &'static str,
        sleep: Duration,
    }

    impl Experiment for Sleepy {
        fn id(&self) -> &'static str {
            self.id
        }
        fn description(&self) -> &'static str {
            "sleeps, then succeeds"
        }
        fn run(&self, _ctx: &Ctx) -> Result<Artifact> {
            std::thread::sleep(self.sleep);
            Ok(Artifact::new(
                Value::from(self.id),
                format!("{}\n", self.id),
            ))
        }
    }

    fn fake_cache(experiments: Vec<Box<dyn Experiment>>) -> ArtifactCache {
        ArtifactCache::with_retry_policy(
            Registry::from_experiments(experiments),
            Ctx::with_space(SweepSpace::coarse()),
            eager_policy(),
        )
    }

    #[test]
    fn repeat_requests_compute_once_and_hit_after() {
        let cache = cache();
        let a = cache.get("fig3a").unwrap().clone();
        let b = cache.get("fig3a").unwrap().clone();
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.computes, 1);
        assert_eq!(s.retries, 0);
        assert_eq!(s.panics_contained, 0);
    }

    #[test]
    fn dependent_target_fills_its_prerequisites_first() {
        let cache = cache();
        // fig14 declares fig13 as a dependency; a cold fig14 request must
        // leave fig13 warm so the follow-up request is a pure hit.
        cache.get("fig14").unwrap();
        let after_first = cache.stats();
        assert_eq!(after_first.computes, 2, "fig14 + its dep fig13");
        cache.get("fig13").unwrap();
        let s = cache.stats();
        assert_eq!(s.computes, 2, "fig13 was already computed");
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn unknown_id_carries_the_roster_and_counts_nothing() {
        let cache = cache();
        match cache.get("fig99") {
            Err(Error::UnknownExperiment { id, known }) => {
                assert_eq!(id, "fig99");
                assert_eq!(known, cache.registry().ids());
            }
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
        assert_eq!(cache.stats().computes, 0);
    }

    #[test]
    fn concurrent_requests_share_one_compute() {
        let cache = cache();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    cache.get("fig3a").unwrap();
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.computes, 1);
        assert_eq!(s.requests, 8);
        // The shared inputs stayed compute-once too.
        assert!(cache.ctx().counters().corpus_computes <= 1);
    }

    #[test]
    fn transient_failures_retry_after_backoff_and_then_stick_as_ok() {
        let cache = fake_cache(vec![Box::new(Flaky {
            id: "flaky",
            failures: 2,
            runs: AtomicUsize::new(0),
        })]);
        assert!(cache.get("flaky").is_err(), "attempt 1 fails");
        // Inside the backoff window the stored error answers instantly.
        assert!(cache.get("flaky").is_err());
        let degraded = cache.failed_targets();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].id, "flaky");
        assert_eq!(degraded[0].attempts, 1);
        assert!(degraded[0].retry_in.is_some(), "budget not yet spent");
        // Decorrelated jitter with a zero previous window degenerates to
        // the floor, so the first retry window is exactly the base.
        assert!(degraded[0].retry_in.unwrap() <= eager_policy().backoff_base);
        std::thread::sleep(Duration::from_millis(10));
        assert!(cache.get("flaky").is_err(), "attempt 2 fails");
        std::thread::sleep(Duration::from_millis(25));
        let artifact = cache.get("flaky").unwrap().clone();
        assert_eq!(artifact.text, "flaky\n");
        // Recovered: no longer degraded, success is memoized.
        assert!(cache.failed_targets().is_empty());
        assert_eq!(cache.get("flaky").unwrap().clone(), artifact);
        let s = cache.stats();
        assert_eq!(s.computes, 3, "two failures + one success");
        assert_eq!(s.retries, 2);
        assert!(s.computes <= 1 + s.retries, "computes <= targets + retries");
    }

    #[test]
    fn attempt_budget_makes_a_failure_permanent() {
        let cache = fake_cache(vec![Box::new(Flaky {
            id: "doomed",
            failures: u32::MAX,
            runs: AtomicUsize::new(0),
        })]);
        for _ in 0..eager_policy().max_attempts {
            assert!(cache.get("doomed").is_err());
            std::thread::sleep(Duration::from_millis(25));
        }
        let before = cache.stats().computes;
        assert!(cache.get("doomed").is_err(), "budget spent: still an error");
        assert_eq!(cache.stats().computes, before, "and no further attempts");
        let degraded = cache.failed_targets();
        assert_eq!(degraded[0].attempts, eager_policy().max_attempts);
        assert!(degraded[0].retry_in.is_none(), "permanently failed");
    }

    #[test]
    fn a_panicking_experiment_is_contained_and_recovers() {
        let cache = fake_cache(vec![Box::new(Panicky {
            id: "bomb",
            panics: 1,
            runs: AtomicUsize::new(0),
        })]);
        match cache.get("bomb") {
            Err(Error::ExperimentPanicked { id }) => assert_eq!(id, "bomb"),
            other => panic!("expected ExperimentPanicked, got {other:?}"),
        }
        assert_eq!(cache.stats().panics_contained, 1);
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(cache.get("bomb").unwrap().text, "bomb\n");
    }

    #[test]
    fn a_hung_compute_times_out_the_request_but_settles_the_slot() {
        let cache = fake_cache(vec![Box::new(Sleepy {
            id: "slow",
            sleep: Duration::from_millis(150),
        })]);
        match cache.get_within("slow", Some(Duration::from_millis(20))) {
            Err(Error::ComputeTimeout { id, .. }) => assert_eq!(id, "slow"),
            other => panic!("expected ComputeTimeout, got {other:?}"),
        }
        assert_eq!(cache.stats().timeouts, 1);
        // The compute kept running on its own thread; once it settles,
        // requests are answered from the slot with no new attempt.
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(cache.get("slow").unwrap().text, "slow\n");
        assert_eq!(cache.stats().computes, 1);
    }
}
