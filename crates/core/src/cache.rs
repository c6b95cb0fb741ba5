//! [`Ctx`]: memoized shared inputs for the experiment pipeline.
//!
//! Several paper targets start from the same expensive computations: the
//! synthetic datasheet corpus (Figs. 3b/3c), the fitted transistor-count
//! law (Fig. 3b), the calibrated potential model (Fig. 3d, dark silicon,
//! the roadmap), the per-workload bytecode programs, and the
//! per-workload Table III sweeps (Figs. 13/14). A `Ctx` computes each of
//! these exactly once per process — concurrent callers block on the same
//! [`OnceLock`] rather than recomputing — and counts computes vs.
//! requests so tests can assert the "at most once" guarantee instead of
//! trusting it.
//!
//! A workload's front-end graph is read only by its one-time lowering,
//! so [`Ctx::program`] builds the graph inside the program's once-cell,
//! lowers it and drops it: a `Ctx` holds each workload's program, never
//! its graph.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use accelwall_accelsim::{run_sweep_lowered, SweepPoint, SweepSpace};
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
/// request counts or thread interleaving.
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
    /// Workload sweeps actually simulated.
    pub sweep_computes: usize,
    /// Times [`Ctx::sweep`] was called.
    pub sweep_requests: usize,
    /// Graphs actually built and lowered to bytecode programs. The
    /// pipeline invariant is one lowering per distinct workload
    /// regardless of how many sweep points or toggle chains consume the
    /// program.
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

    /// The memoized [`run_sweep_lowered`] of `workload` over
    /// [`Ctx::sweep_space`]. The sweep shares the workload's cached
    /// bytecode program ([`Ctx::program`]) — one lowering covers every
    /// grid point.
    ///
    /// # Errors
    ///
    /// Returns the (memoized) simulation failure for invalid spaces.
    pub fn sweep(&self, workload: Workload) -> Result<&[SweepPoint]> {
        self.sweep_requests.fetch_add(1, Ordering::Relaxed);
        let slot = Workload::all()
            .iter()
            .position(|&w| w == workload)
            .and_then(|i| self.sweeps.get(i))
            .ok_or_else(|| Error::UnknownWorkload {
                name: format!("{workload:?}"),
            })?;
        slot.get_or_init(|| {
            self.sweep_computes.fetch_add(1, Ordering::Relaxed);
            self.program(workload).and_then(|program| {
                run_sweep_lowered(&program, &self.sweep_space)
                    .context(format!("sweeping {}", workload.abbrev()))
            })
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
        let slot = Workload::all()
            .iter()
            .position(|&w| w == workload)
            .and_then(|i| self.programs.get(i))
            .ok_or_else(|| Error::UnknownWorkload {
                name: format!("{workload:?}"),
            })?;
        Ok(slot
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
    fn sweeps_memoize_per_workload() {
        let ctx = Ctx::with_space(SweepSpace::coarse());
        let a = ctx.sweep(Workload::Red).unwrap().len();
        let b = ctx.sweep(Workload::Red).unwrap().len();
        let c = ctx.sweep(Workload::Trd).unwrap().len();
        assert_eq!(a, b);
        assert_eq!(a, SweepSpace::coarse().len());
        assert_eq!(c, SweepSpace::coarse().len());
        let counters = ctx.counters();
        assert_eq!(counters.sweep_computes, 2);
        assert_eq!(counters.sweep_requests, 3);
    }

    #[test]
    fn programs_lower_once_per_workload() {
        let ctx = Ctx::with_space(SweepSpace::coarse());
        let a = ctx.program(Workload::Red).unwrap();
        let b = ctx.program(Workload::Red).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        // The sweep pulls the same shared program.
        ctx.sweep(Workload::Red).unwrap();
        ctx.sweep(Workload::Red).unwrap();
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
                    ctx.sweep(Workload::Red).unwrap();
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
