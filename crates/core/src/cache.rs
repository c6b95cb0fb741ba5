//! [`Ctx`]: memoized shared inputs for the experiment pipeline.
//!
//! Several paper targets start from the same expensive computations: the
//! synthetic datasheet corpus (Figs. 3b/3c), the fitted transistor-count
//! law (Fig. 3b), the calibrated potential model (Fig. 3d, dark silicon,
//! the roadmap), the per-workload bytecode programs, and the
//! per-workload walk tables that price the Table III sweeps (Figs. 13/14)
//! and `/query` points. A `Ctx` computes each of these exactly once per
//! process — concurrent callers block on the same [`OnceLock`] rather
//! than recomputing — and counts computes vs. requests so tests can
//! assert the "at most once" guarantee instead of trusting it.
//!
//! A `Ctx` keeps inputs, not intermediates. A workload's front-end graph
//! is read only by its one-time lowering, so [`Ctx::program`] builds the
//! graph inside the program's once-cell, lowers it and drops it. A sweep's
//! points are read only by the reduction each reader makes of them, so
//! [`Ctx::walk_table`] keeps the walks that price them — a few hundred
//! bytes per workload — and [`Ctx::sweep_points`] hands them out one at a
//! time, in configuration order, for each reader to reduce on its own.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use accelwall_accelsim::{SweepPoint, SweepSpace, WalkTable};
use accelwall_chipdb::{fit, ChipRecord, CorpusSpec};
use accelwall_dfg::{Dfg, Program};
use accelwall_potential::PotentialModel;
use accelwall_stats::PowerLaw;
use accelwall_workloads::Workload;

use crate::error::{Error, Result, ResultExt};

/// Memoizing context shared by every experiment in one pipeline run.
///
/// Cheap to create; all caches fill lazily on first use. Thread-safe:
/// experiments running in parallel share one `Ctx` by reference.
#[derive(Debug)]
pub struct Ctx {
    sweep_space: SweepSpace,
    corpus: OnceLock<Vec<ChipRecord>>,
    density_fit: OnceLock<Result<PowerLaw>>,
    model: OnceLock<PotentialModel>,
    tables: Vec<OnceLock<Result<WalkTable>>>,
    sweeps: Vec<OnceLock<Result<Vec<SweepPoint>>>>,
    programs: Vec<OnceLock<Arc<Program>>>,
    corpus_computes: AtomicUsize,
    corpus_requests: AtomicUsize,
    fit_computes: AtomicUsize,
    fit_requests: AtomicUsize,
    model_computes: AtomicUsize,
    model_requests: AtomicUsize,
    sweep_computes: AtomicUsize,
    sweep_requests: AtomicUsize,
    lowerings: AtomicUsize,
    program_requests: AtomicUsize,
    program_nodes: AtomicUsize,
    program_edges: AtomicUsize,
    program_bytes: AtomicUsize,
}

/// A snapshot of the compute/request counters of a [`Ctx`].
///
/// `*_computes` counts how many times the underlying input was actually
/// built; `*_requests` counts accessor calls. The pipeline invariant is
/// `corpus_computes <= 1`, `fit_computes <= 1`, `model_computes <= 1`,
/// and `sweep_computes <= ` number of distinct workloads, regardless of
/// request counts or thread interleaving. The `sweep_*` pair keeps its
/// name (and its `/metrics` series) but counts walk tables, which price
/// every sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtxCounters {
    /// Times the datasheet corpus was generated.
    pub corpus_computes: usize,
    /// Times [`Ctx::corpus`] was called.
    pub corpus_requests: usize,
    /// Times the transistor-count law was fitted.
    pub fit_computes: usize,
    /// Times [`Ctx::density_fit`] was called.
    pub fit_requests: usize,
    /// Times the potential model was built.
    pub model_computes: usize,
    /// Times [`Ctx::potential_model`] was called.
    pub model_requests: usize,
    /// Walk tables actually built, one per workload at most.
    pub sweep_computes: usize,
    /// Times [`Ctx::walk_table`] was called, directly or through
    /// [`Ctx::sweep_points`] or a first [`Ctx::sweep`].
    pub sweep_requests: usize,
    /// Graphs actually built and lowered to bytecode programs. The
    /// pipeline invariant is one lowering per distinct workload
    /// regardless of how many readers consume the program.
    pub lowerings: usize,
    /// Times [`Ctx::program`] was called.
    pub program_requests: usize,
    /// Total vertices across all lowered programs.
    pub program_nodes: usize,
    /// Total edges across all lowered programs.
    pub program_edges: usize,
    /// Total heap bytes across all lowered programs.
    pub program_bytes: usize,
}

impl Ctx {
    /// A context sweeping the full Table III grid (what the CLI uses).
    pub fn new() -> Ctx {
        Ctx::with_space(SweepSpace::table3())
    }

    /// A context sweeping a custom grid (tests use the coarse grid to
    /// keep the Fig. 13/14 paths fast).
    pub fn with_space(sweep_space: SweepSpace) -> Ctx {
        Ctx {
            sweep_space,
            corpus: OnceLock::new(),
            density_fit: OnceLock::new(),
            model: OnceLock::new(),
            tables: Workload::all().iter().map(|_| OnceLock::new()).collect(),
            sweeps: Workload::all().iter().map(|_| OnceLock::new()).collect(),
            programs: Workload::all().iter().map(|_| OnceLock::new()).collect(),
            corpus_computes: AtomicUsize::new(0),
            corpus_requests: AtomicUsize::new(0),
            fit_computes: AtomicUsize::new(0),
            fit_requests: AtomicUsize::new(0),
            model_computes: AtomicUsize::new(0),
            model_requests: AtomicUsize::new(0),
            sweep_computes: AtomicUsize::new(0),
            sweep_requests: AtomicUsize::new(0),
            lowerings: AtomicUsize::new(0),
            program_requests: AtomicUsize::new(0),
            program_nodes: AtomicUsize::new(0),
            program_edges: AtomicUsize::new(0),
            program_bytes: AtomicUsize::new(0),
        }
    }

    /// The design-space grid this context sweeps workloads over.
    pub fn sweep_space(&self) -> &SweepSpace {
        &self.sweep_space
    }

    /// The paper-scale synthetic datasheet corpus (2613 chips).
    pub fn corpus(&self) -> &[ChipRecord] {
        self.corpus_requests.fetch_add(1, Ordering::Relaxed);
        self.corpus.get_or_init(|| {
            self.corpus_computes.fetch_add(1, Ordering::Relaxed);
            CorpusSpec::paper_scale().generate()
        })
    }

    /// The Fig. 3b transistor-count law fitted to [`Ctx::corpus`].
    ///
    /// # Errors
    ///
    /// Returns the (memoized) fit failure if the corpus is degenerate.
    pub fn density_fit(&self) -> Result<PowerLaw> {
        self.fit_requests.fetch_add(1, Ordering::Relaxed);
        self.density_fit
            .get_or_init(|| {
                self.fit_computes.fetch_add(1, Ordering::Relaxed);
                fit::transistor_density_fit(self.corpus())
                    .context("fitting the Fig. 3b transistor-count law")
            })
            .clone()
    }

    /// The paper-calibrated CMOS potential model (Fig. 3d and onward).
    pub fn potential_model(&self) -> &PotentialModel {
        self.model_requests.fetch_add(1, Ordering::Relaxed);
        self.model.get_or_init(|| {
            self.model_computes.fetch_add(1, Ordering::Relaxed);
            PotentialModel::paper()
        })
    }

    /// The memoized [`WalkTable`] of `workload`, built from its cached
    /// bytecode program ([`Ctx::program`]): every graph walk any of the
    /// workload's design points needs, run once, so each point then
    /// prices in O(1) ([`WalkTable::price`]).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownWorkload`] for a workload outside the roster.
    pub fn walk_table(&self, workload: Workload) -> Result<&WalkTable> {
        self.sweep_requests.fetch_add(1, Ordering::Relaxed);
        slot(&self.tables, workload)?
            .get_or_init(|| {
                self.sweep_computes.fetch_add(1, Ordering::Relaxed);
                self.program(workload)
                    .map(|program| WalkTable::new(&program))
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// `workload`'s points over [`Ctx::sweep_space`], priced from its
    /// [`Ctx::walk_table`] one at a time in configuration order. Nothing
    /// keeps them: clone the iterator to walk the space again.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownWorkload`], or the simulation failure for an
    /// invalid space.
    pub fn sweep_points(
        &self,
        workload: Workload,
    ) -> Result<impl Iterator<Item = SweepPoint> + Clone + '_> {
        self.walk_table(workload)?
            .sweep(&self.sweep_space)
            .map_err(|e| Error::from(e).context(format!("sweeping {}", workload.abbrev())))
    }

    /// `workload`'s points over [`Ctx::sweep_space`], collected from
    /// [`Ctx::sweep_points`] and kept for the life of the `Ctx`. Kept
    /// only for perfbench's in-process layer replay: 1,820 points of 72
    /// bytes per workload are more than any reader needs, so no product
    /// path calls it (a `run_all` test pins that).
    ///
    /// # Errors
    ///
    /// Those of [`Ctx::sweep_points`].
    pub fn sweep(&self, workload: Workload) -> Result<&[SweepPoint]> {
        slot(&self.sweeps, workload)?
            .get_or_init(|| {
                let mut points = Vec::with_capacity(self.sweep_space.len());
                points.extend(self.sweep_points(workload)?);
                Ok(points)
            })
            .as_ref()
            .map(Vec::as_slice)
            .map_err(Clone::clone)
    }

    /// Builds `workload`'s front-end graph (its default instance). Not
    /// memoized: nothing reads a graph after its lowering, so a `Ctx`
    /// keeps only the program ([`Ctx::program`]), and each call builds
    /// a fresh graph the caller owns.
    ///
    /// # Errors
    ///
    /// None today; the `Result` keeps the accessor's shape.
    pub fn dfg(&self, workload: Workload) -> Result<Dfg> {
        Ok(workload.default_instance())
    }

    /// The memoized bytecode lowering of `workload`'s graph, shared behind
    /// an [`Arc`] so the sweep, the scheduler, and the attribution toggle
    /// chain all run over one flat program per workload. The graph is
    /// built inside the once-cell and dropped after the lowering. The
    /// `lowerings` counter (and the `/metrics` gauge it feeds) makes the
    /// once-per-workload invariant observable.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownWorkload`] for a workload outside the roster.
    pub fn program(&self, workload: Workload) -> Result<Arc<Program>> {
        self.program_requests.fetch_add(1, Ordering::Relaxed);
        Ok(slot(&self.programs, workload)?
            .get_or_init(|| {
                self.lowerings.fetch_add(1, Ordering::Relaxed);
                let program = Arc::new(workload.default_instance().lower());
                self.program_nodes
                    .fetch_add(program.vertex_count(), Ordering::Relaxed);
                self.program_edges
                    .fetch_add(program.edge_count(), Ordering::Relaxed);
                self.program_bytes
                    .fetch_add(program.size_bytes(), Ordering::Relaxed);
                program
            })
            .clone())
    }

    /// Snapshot of the compute/request counters.
    pub fn counters(&self) -> CtxCounters {
        CtxCounters {
            corpus_computes: self.corpus_computes.load(Ordering::Relaxed),
            corpus_requests: self.corpus_requests.load(Ordering::Relaxed),
            fit_computes: self.fit_computes.load(Ordering::Relaxed),
            fit_requests: self.fit_requests.load(Ordering::Relaxed),
            model_computes: self.model_computes.load(Ordering::Relaxed),
            model_requests: self.model_requests.load(Ordering::Relaxed),
            sweep_computes: self.sweep_computes.load(Ordering::Relaxed),
            sweep_requests: self.sweep_requests.load(Ordering::Relaxed),
            lowerings: self.lowerings.load(Ordering::Relaxed),
            program_requests: self.program_requests.load(Ordering::Relaxed),
            program_nodes: self.program_nodes.load(Ordering::Relaxed),
            program_edges: self.program_edges.load(Ordering::Relaxed),
            program_bytes: self.program_bytes.load(Ordering::Relaxed),
        }
    }
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx::new()
    }
}

/// `workload`'s slot in a per-workload memo, in roster order.
fn slot<T>(slots: &[T], workload: Workload) -> Result<&T> {
    Workload::all()
        .iter()
        .position(|&w| w == workload)
        .and_then(|i| slots.get(i))
        .ok_or_else(|| Error::UnknownWorkload {
            name: format!("{workload:?}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_generated_once_across_repeat_requests() {
        let ctx = Ctx::with_space(SweepSpace::coarse());
        let n1 = ctx.corpus().len();
        let n2 = ctx.corpus().len();
        assert_eq!(n1, n2);
        let c = ctx.counters();
        assert_eq!(c.corpus_computes, 1);
        assert_eq!(c.corpus_requests, 2);
    }

    #[test]
    fn density_fit_reuses_the_corpus_and_memoizes() {
        let ctx = Ctx::with_space(SweepSpace::coarse());
        let a = ctx.density_fit().unwrap();
        let b = ctx.density_fit().unwrap();
        assert_eq!(a, b);
        let c = ctx.counters();
        assert_eq!(c.fit_computes, 1);
        assert_eq!(c.fit_requests, 2);
        // The fit pulled the corpus through the memoized accessor.
        assert_eq!(c.corpus_computes, 1);
    }

    #[test]
    fn walk_tables_memoize_per_workload() {
        let ctx = Ctx::with_space(SweepSpace::coarse());
        let a = ctx.walk_table(Workload::Red).unwrap();
        let b = ctx.walk_table(Workload::Red).unwrap();
        assert!(std::ptr::eq(a, b), "second request must hit the cache");
        let n = ctx.sweep_points(Workload::Trd).unwrap().count();
        assert_eq!(n, SweepSpace::coarse().len());
        let c = ctx.counters();
        assert_eq!(c.sweep_computes, 2);
        assert_eq!(c.sweep_requests, 3);
    }

    #[test]
    fn sweep_collects_the_table_points_once() {
        let ctx = Ctx::with_space(SweepSpace::coarse());
        let kept = ctx.sweep(Workload::Red).unwrap();
        assert!(kept
            .iter()
            .copied()
            .eq(ctx.sweep_points(Workload::Red).unwrap()));
        assert!(std::ptr::eq(kept, ctx.sweep(Workload::Red).unwrap()));
        assert_eq!(ctx.counters().sweep_computes, 1);
    }

    #[test]
    fn run_all_keeps_no_sweep_points() {
        // Every reader prices from the walk tables and reduces the points
        // as they come: none may call `Ctx::sweep`, which would keep
        // 16 x 1,820 points for the life of a server's Ctx.
        let ctx = Ctx::new();
        let results = crate::registry::Registry::paper()
            .run_all(&ctx)
            .expect("scheduling succeeds");
        for (id, r) in &results {
            assert!(r.is_ok(), "{id} failed: {:?}", r.as_ref().err());
        }
        for (w, sweep) in Workload::all().iter().zip(&ctx.sweeps) {
            assert!(sweep.get().is_none(), "a reader kept {w}'s sweep points");
        }
        assert_eq!(ctx.counters().sweep_computes, Workload::all().len());
    }

    #[test]
    fn programs_lower_once_per_workload() {
        let ctx = Ctx::with_space(SweepSpace::coarse());
        let a = ctx.program(Workload::Red).unwrap();
        let b = ctx.program(Workload::Red).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        // The walk table pulls the same shared program.
        ctx.walk_table(Workload::Red).unwrap();
        ctx.walk_table(Workload::Red).unwrap();
        let c = ctx.counters();
        assert_eq!(c.lowerings, 1);
        assert_eq!(c.program_requests, 3);
        assert_eq!(c.program_nodes, a.vertex_count());
        assert_eq!(c.program_edges, a.edge_count());
        assert_eq!(c.program_bytes, a.size_bytes());
    }

    #[test]
    fn concurrent_requests_still_compute_once() {
        let ctx = Ctx::with_space(SweepSpace::coarse());
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    ctx.corpus();
                    ctx.potential_model();
                    ctx.program(Workload::Red).unwrap();
                    ctx.walk_table(Workload::Red).unwrap();
                });
            }
        });
        let c = ctx.counters();
        assert_eq!(c.corpus_computes, 1);
        assert_eq!(c.model_computes, 1);
        // The graph build lives in the program's once-cell: one build
        // and one lowering, however the eight threads interleave.
        assert_eq!(c.lowerings, 1);
        assert_eq!(c.sweep_computes, 1);
        assert_eq!(c.corpus_requests, 8);
    }
}
