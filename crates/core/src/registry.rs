//! The experiment registry: the single roster of every paper target.
//!
//! The CLI's target list, its `--help`-style header, the unknown-target
//! error message, and the `all` run order are all derived from
//! [`Registry::paper`] — there is no hand-maintained list of target
//! names anywhere else, so the documentation cannot drift from the code.
//!
//! [`Registry::run_all`] executes experiments one at a time on the
//! calling thread, in schedule order (every experiment after its
//! dependencies), sharing one [`Ctx`] whose memoization makes the shared
//! inputs (corpus, potential model, per-workload programs and sweeps)
//! compute exactly once per process. Each experiment runs under
//! [`catch_unwind`], so a panic fails its own slot and no other.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::cache::Ctx;
use crate::error::{Error, Result};
use crate::experiment::{Artifact, Experiment};
use crate::experiments;
use crate::json::Value;

/// An ordered collection of experiments, with dependency scheduling.
pub struct Registry {
    experiments: Vec<Box<dyn Experiment>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("ids", &self.ids())
            .finish()
    }
}

impl Registry {
    /// Every regeneration target of the paper, in presentation order
    /// (figures, tables, then the synthesis analyses).
    pub fn paper() -> Registry {
        Registry {
            experiments: vec![
                Box::new(experiments::studies::Fig1),
                Box::new(experiments::csr::Fig2),
                Box::new(experiments::cmos::Fig3a),
                Box::new(experiments::chipdb::Fig3b),
                Box::new(experiments::chipdb::Fig3c),
                Box::new(experiments::potential::Fig3d),
                Box::new(experiments::studies::Fig4),
                Box::new(experiments::studies::Fig5),
                Box::new(experiments::csr::Fig6),
                Box::new(experiments::csr::Fig7),
                Box::new(experiments::studies::Fig8),
                Box::new(experiments::studies::Fig9),
                Box::new(experiments::dfg::Fig11),
                Box::new(experiments::dfg::Fig12),
                Box::new(experiments::accelsim::Fig13),
                Box::new(experiments::accelsim::Fig14),
                Box::new(experiments::projection::Fig15),
                Box::new(experiments::projection::Fig16),
                Box::new(experiments::dfg::Table1),
                Box::new(experiments::dfg::Table2),
                Box::new(experiments::accelsim::Table3),
                Box::new(experiments::workloads::Table4),
                Box::new(experiments::projection::Table5),
                Box::new(experiments::projection::Wall),
                Box::new(experiments::projection::Beyond),
                Box::new(experiments::studies::Insights),
                Box::new(experiments::potential::Dark),
                Box::new(experiments::projection::Sensitivity),
                Box::new(experiments::dfg::Dot),
                Box::new(experiments::potential::Roadmap),
                Box::new(experiments::report::Report),
            ],
        }
    }

    /// A registry over an arbitrary experiment set. Production code uses
    /// [`Registry::paper`]; this constructor exists so chaos tests can
    /// build registries of deliberately flaky, panicking, or hanging
    /// fakes and drive them through the exact production cache paths.
    pub fn from_experiments(experiments: Vec<Box<dyn Experiment>>) -> Registry {
        Registry { experiments }
    }

    /// Number of registered experiments.
    pub fn len(&self) -> usize {
        self.experiments.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.experiments.is_empty()
    }

    /// Iterates the experiments in registry order.
    pub fn experiments(&self) -> impl Iterator<Item = &dyn Experiment> {
        self.experiments.iter().map(Box::as_ref)
    }

    /// Every target id, in registry order.
    pub fn ids(&self) -> Vec<&'static str> {
        self.experiments.iter().map(|e| e.id()).collect()
    }

    /// The machine-readable roster: one `{id, description, deps}` object
    /// per target, in registry order.
    ///
    /// This single document backs both `accelwall list --json` and the
    /// server's `GET /experiments` route, so the two can never drift.
    pub fn roster_json(&self) -> Value {
        Value::array(self.experiments().map(|e| {
            Value::object([
                ("id", Value::from(e.id())),
                ("description", Value::from(e.description())),
                ("deps", e.deps().iter().copied().collect()),
            ])
        }))
    }

    /// Looks up one experiment by id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownExperiment`] carrying the full known-id
    /// list (the CLI prints it verbatim).
    pub fn get(&self, id: &str) -> Result<&dyn Experiment> {
        self.experiments
            .iter()
            .find(|e| e.id() == id)
            .map(Box::as_ref)
            .ok_or_else(|| Error::UnknownExperiment {
                id: id.to_string(),
                known: self.ids(),
            })
    }

    /// Runs one experiment by id against `ctx`.
    ///
    /// # Errors
    ///
    /// Unknown ids and any layer failure from the experiment itself.
    pub fn run(&self, id: &str, ctx: &Ctx) -> Result<Artifact> {
        self.get(id)?.run(ctx)
    }

    /// Groups experiment indices into waves: every experiment lands in
    /// the first wave after all of its `deps()` have completed.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownExperiment`] for a dep naming no registered id;
    /// [`Error::DependencyCycle`] when declarations deadlock.
    pub fn schedule(&self) -> Result<Vec<Vec<usize>>> {
        for e in &self.experiments {
            for dep in e.deps() {
                self.get(dep)?;
            }
        }
        let mut done = vec![false; self.experiments.len()];
        let mut waves = Vec::new();
        while done.iter().any(|d| !d) {
            let wave: Vec<usize> = (0..self.experiments.len())
                .filter(|&i| !done[i])
                .filter(|&i| {
                    self.experiments[i].deps().iter().all(|dep| {
                        self.experiments
                            .iter()
                            .zip(&done)
                            .any(|(e, &d)| d && e.id() == *dep)
                    })
                })
                .collect();
            if wave.is_empty() {
                return Err(Error::DependencyCycle {
                    ids: self
                        .experiments
                        .iter()
                        .zip(&done)
                        .filter(|(_, &d)| !d)
                        .map(|(e, _)| e.id())
                        .collect(),
                });
            }
            for &i in &wave {
                done[i] = true;
            }
            waves.push(wave);
        }
        Ok(waves)
    }

    /// Runs every experiment on the calling thread, in schedule order,
    /// sharing `ctx`. Results come back in registry order; a failure or
    /// a panic is reported in the experiment's own slot
    /// ([`Error::ExperimentPanicked`] for a panic) rather than aborting
    /// the experiments after it.
    ///
    /// # Errors
    ///
    /// Only scheduling failures ([`Registry::schedule`]) fail the whole
    /// run.
    pub fn run_all(&self, ctx: &Ctx) -> Result<Vec<(&'static str, Result<Artifact>)>> {
        let mut results: Vec<(usize, Result<Artifact>)> = self
            .schedule()?
            .concat()
            .into_iter()
            .map(|i| {
                let exp = self.experiments[i].as_ref();
                // Unwind-safe enough: `ctx` memoizes through `OnceLock`s,
                // which stay empty when their initializer unwinds, and
                // through counters a panic cannot leave torn.
                let result = catch_unwind(AssertUnwindSafe(|| exp.run(ctx))).unwrap_or_else(|_| {
                    Err(Error::ExperimentPanicked {
                        id: exp.id().to_string(),
                    })
                });
                (i, result)
            })
            .collect();
        results.sort_by_key(|&(i, _)| i);
        Ok(results
            .into_iter()
            .map(|(i, result)| (self.experiments[i].id(), result))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique_and_nonempty() {
        let registry = Registry::paper();
        let ids = registry.ids();
        assert!(!ids.is_empty());
        let unique: HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate experiment ids");
        for e in registry.experiments() {
            assert!(
                !e.description().is_empty(),
                "{} lacks a description",
                e.id()
            );
        }
    }

    #[test]
    fn unknown_id_error_carries_the_registry_roster() {
        let registry = Registry::paper();
        match registry.get("fig99") {
            Err(Error::UnknownExperiment { id, known }) => {
                assert_eq!(id, "fig99");
                assert_eq!(known, registry.ids());
            }
            Err(other) => panic!("expected UnknownExperiment, got {other:?}"),
            Ok(e) => panic!("expected UnknownExperiment, got experiment {}", e.id()),
        }
    }

    #[test]
    fn schedule_covers_everything_and_respects_deps() {
        let registry = Registry::paper();
        let waves = registry.schedule().unwrap();
        let mut seen = HashSet::new();
        let ids = registry.ids();
        for wave in &waves {
            for &i in wave {
                // Every dep completed in a strictly earlier wave.
                for dep in registry.experiments[i].deps() {
                    assert!(seen.contains(dep), "{} ran before its dep {dep}", ids[i]);
                }
            }
            for &i in wave {
                seen.insert(ids[i]);
            }
        }
        assert_eq!(seen.len(), registry.len());
    }

    #[test]
    fn roster_json_mirrors_the_registry() {
        let registry = Registry::paper();
        let roster = registry.roster_json();
        let rows = roster.as_array().unwrap();
        assert_eq!(rows.len(), registry.len());
        for (row, e) in rows.iter().zip(registry.experiments()) {
            assert_eq!(row.get("id").and_then(Value::as_str), Some(e.id()));
            assert_eq!(
                row.get("description").and_then(Value::as_str),
                Some(e.description())
            );
            let deps: Vec<&str> = row
                .get("deps")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .filter_map(Value::as_str)
                .collect();
            assert_eq!(deps, e.deps());
        }
    }

    /// A fake experiment that succeeds, or panics when told to.
    struct Fake {
        id: &'static str,
        deps: &'static [&'static str],
        panics: bool,
    }

    impl Experiment for Fake {
        fn id(&self) -> &'static str {
            self.id
        }
        fn description(&self) -> &'static str {
            "succeeds, or panics when told to"
        }
        fn deps(&self) -> &'static [&'static str] {
            self.deps
        }
        fn run(&self, _ctx: &Ctx) -> Result<Artifact> {
            assert!(!self.panics, "{} ordered to panic", self.id);
            Ok(Artifact::new(
                Value::from(self.id),
                format!("{}\n", self.id),
            ))
        }
    }

    #[test]
    fn run_all_contains_a_panic_in_its_own_slot() {
        let fake =
            |id, deps, panics| -> Box<dyn Experiment> { Box::new(Fake { id, deps, panics }) };
        // Schedule order is `boom`, `before`, `after`: both fakes that
        // succeed run after the panic, one of them a wave later.
        let registry = Registry::from_experiments(vec![
            fake("after", &["before"], false),
            fake("boom", &[], true),
            fake("before", &[], false),
        ]);
        let ctx = Ctx::with_space(accelwall_accelsim::SweepSpace::coarse());
        let results = registry.run_all(&ctx).expect("the fakes schedule");
        let ids: Vec<&str> = results.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ["after", "boom", "before"], "registry order");
        for (id, result) in &results {
            match (*id, result) {
                ("boom", Err(Error::ExperimentPanicked { id })) => assert_eq!(id, "boom"),
                ("after" | "before", Ok(artifact)) => {
                    assert_eq!(artifact.text, format!("{id}\n"));
                }
                (id, other) => panic!("{id}: {other:?}"),
            }
        }
    }

    #[test]
    fn declared_deps_order_the_summary_targets() {
        let registry = Registry::paper();
        let wall = registry.get("wall").unwrap();
        assert!(wall.deps().contains(&"fig15"));
        let fig14 = registry.get("fig14").unwrap();
        assert!(fig14.deps().contains(&"fig13"));
    }
}
