//! The workspace-wide error type.
//!
//! Every layer of the stack defines its own narrow error enum
//! ([`StatsError`], [`SimError`], [`DfgError`], ...). That is the right
//! shape inside a crate — callers can match on exactly the failures that
//! routine can produce — but the experiment pipeline runs *all* layers
//! behind one trait object, so it needs a single type that any layer's
//! failure converts into. [`Error`] is that type: one variant per layer,
//! `From` conversions so `?` works everywhere, plus pipeline-level
//! failures (unknown experiment id, unknown workload) and a [`Context`]
//! wrapper that threads "while doing what" breadcrumbs through
//! [`std::error::Error::source`].
//!
//! ```
//! use accelerator_wall::error::{Error, ResultExt};
//! use accelerator_wall::stats::PowerLaw;
//!
//! fn fit() -> Result<f64, Error> {
//!     let fit = PowerLaw::fit(&[1.0], &[2.0]).context("fitting Fig. 3b law")?;
//!     Ok(fit.exponent)
//! }
//! let err = fit().unwrap_err();
//! assert!(err.to_string().contains("fitting Fig. 3b law"));
//! assert!(std::error::Error::source(&err).is_some());
//! ```

use std::fmt;

use accelwall_accelsim::SimError;
use accelwall_csr::CsrError;
use accelwall_dfg::DfgError;
use accelwall_potential::PotentialError;
use accelwall_projection::ProjectionError;
use accelwall_stats::StatsError;
use accelwall_studies::StudyError;

use crate::report::ReportError;

/// Convenience alias used throughout the experiment pipeline.
pub type Result<T> = std::result::Result<T, Error>;

/// Any failure the reproduction stack can produce, unified.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Statistics layer (fits, Pareto frontiers).
    Stats(StatsError),
    /// Pre-RTL simulator layer (configs, sweeps, attribution).
    Sim(SimError),
    /// Case-study layer (datasets, CSR series).
    Study(StudyError),
    /// Wall-projection layer.
    Projection(ProjectionError),
    /// CMOS potential model layer.
    Potential(PotentialError),
    /// Chip Specialization Return layer.
    Csr(CsrError),
    /// Dataflow-graph layer.
    Dfg(DfgError),
    /// Report-assembly layer.
    Report(ReportError),
    /// A regeneration target id not present in the registry.
    UnknownExperiment {
        /// The id that was requested.
        id: String,
        /// Every id the registry does know, in registry order.
        known: Vec<&'static str>,
    },
    /// A workload abbreviation not present in Table IV.
    UnknownWorkload {
        /// The name that was requested.
        name: String,
    },
    /// Experiment `deps()` declarations form a cycle, so no run order
    /// exists.
    DependencyCycle {
        /// The experiments stuck waiting on each other.
        ids: Vec<&'static str>,
    },
    /// An experiment thread panicked instead of returning a result.
    ExperimentPanicked {
        /// The experiment whose thread died.
        id: String,
    },
    /// An armed fault plan (`ACCELWALL_FAULTS`) injected a transient
    /// failure at a named site. Retryable by construction.
    FaultInjected {
        /// The injection site that fired.
        site: String,
    },
    /// A request gave up waiting for a compute still in flight
    /// ([`ArtifactCache::get_within`](crate::artifacts::ArtifactCache::get_within)).
    /// The compute itself keeps running and may settle the slot later.
    ComputeTimeout {
        /// The experiment still computing when the deadline expired.
        id: String,
        /// How long the request waited before giving up.
        waited_ms: u64,
    },
    /// A lower-level failure annotated with what the pipeline was doing.
    Context {
        /// What was being attempted.
        what: String,
        /// The underlying failure.
        source: Box<Error>,
    },
}

impl Error {
    /// Wraps the error with a "while doing what" breadcrumb.
    #[must_use]
    pub fn context(self, what: impl Into<String>) -> Error {
        Error::Context {
            what: what.into(),
            source: Box::new(self),
        }
    }

    /// The innermost error, unwrapping any [`Error::Context`] layers.
    pub fn root_cause(&self) -> &Error {
        match self {
            Error::Context { source, .. } => source.root_cause(),
            other => other,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Stats(e) => write!(f, "statistics failed: {e}"),
            Error::Sim(e) => write!(f, "simulator failed: {e}"),
            Error::Study(e) => write!(f, "case study failed: {e}"),
            Error::Projection(e) => write!(f, "wall projection failed: {e}"),
            Error::Potential(e) => write!(f, "potential model failed: {e}"),
            Error::Csr(e) => write!(f, "CSR computation failed: {e}"),
            Error::Dfg(e) => write!(f, "dataflow graph failed: {e}"),
            Error::Report(e) => write!(f, "report assembly failed: {e}"),
            Error::UnknownExperiment { id, known } => {
                write!(f, "unknown target {id:?}; known targets: ")?;
                for (i, k) in known.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    f.write_str(k)?;
                }
                Ok(())
            }
            Error::UnknownWorkload { name } => {
                write!(
                    f,
                    "unknown workload {name:?}; see `accelwall table4` for the roster"
                )
            }
            Error::DependencyCycle { ids } => {
                write!(f, "experiment dependency cycle among: {}", ids.join(" "))
            }
            Error::ExperimentPanicked { id } => write!(f, "experiment {id} panicked"),
            Error::FaultInjected { site } => {
                write!(
                    f,
                    "injected transient fault at site {site:?} (armed via ACCELWALL_FAULTS)"
                )
            }
            Error::ComputeTimeout { id, waited_ms } => {
                write!(
                    f,
                    "experiment {id} still computing after {waited_ms} ms (deadline exceeded; retry later)"
                )
            }
            Error::Context { what, source } => write!(f, "{what}: {source}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Stats(e) => Some(e),
            Error::Sim(e) => Some(e),
            Error::Study(e) => Some(e),
            Error::Projection(e) => Some(e),
            Error::Potential(e) => Some(e),
            Error::Csr(e) => Some(e),
            Error::Dfg(e) => Some(e),
            Error::Report(e) => Some(e),
            Error::Context { source, .. } => Some(source.as_ref()),
            Error::UnknownExperiment { .. }
            | Error::UnknownWorkload { .. }
            | Error::DependencyCycle { .. }
            | Error::ExperimentPanicked { .. }
            | Error::FaultInjected { .. }
            | Error::ComputeTimeout { .. } => None,
        }
    }
}

impl From<StatsError> for Error {
    fn from(e: StatsError) -> Error {
        Error::Stats(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Error {
        Error::Sim(e)
    }
}

impl From<StudyError> for Error {
    fn from(e: StudyError) -> Error {
        Error::Study(e)
    }
}

impl From<ProjectionError> for Error {
    fn from(e: ProjectionError) -> Error {
        Error::Projection(e)
    }
}

impl From<PotentialError> for Error {
    fn from(e: PotentialError) -> Error {
        Error::Potential(e)
    }
}

impl From<CsrError> for Error {
    fn from(e: CsrError) -> Error {
        Error::Csr(e)
    }
}

impl From<DfgError> for Error {
    fn from(e: DfgError) -> Error {
        Error::Dfg(e)
    }
}

impl From<ReportError> for Error {
    fn from(e: ReportError) -> Error {
        Error::Report(e)
    }
}

impl From<accelwall_faults::InjectedFault> for Error {
    fn from(e: accelwall_faults::InjectedFault) -> Error {
        Error::FaultInjected { site: e.site }
    }
}

/// Extension adding [`Error::context`] directly onto fallible results.
pub trait ResultExt<T> {
    /// Converts the error into [`Error`] and wraps it with a breadcrumb.
    fn context(self, what: impl Into<String>) -> Result<T>;
}

impl<T, E: Into<Error>> ResultExt<T> for std::result::Result<T, E> {
    fn context(self, what: impl Into<String>) -> Result<T> {
        self.map_err(|e| e.into().context(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_the_source_chain() {
        let stats = StatsError::NotEnoughData {
            provided: 1,
            required: 2,
        };
        let err: Error = stats.clone().into();
        assert_eq!(err, Error::Stats(stats));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn context_nests_and_root_cause_unwraps() {
        let base: Error = SimError::EmptyGraph.into();
        let wrapped = base
            .clone()
            .context("sweeping TRD")
            .context("running fig13");
        assert_eq!(wrapped.root_cause(), &base);
        let text = wrapped.to_string();
        assert!(text.contains("running fig13"));
        assert!(text.contains("sweeping TRD"));
        assert!(text.contains("no computation vertices"));
    }

    #[test]
    fn unknown_experiment_lists_known_ids() {
        let err = Error::UnknownExperiment {
            id: "fig99".into(),
            known: vec!["fig1", "fig2"],
        };
        let text = err.to_string();
        assert!(text.contains("unknown target \"fig99\""));
        assert!(text.contains("fig1 fig2"));
    }

    #[test]
    fn result_ext_converts_and_annotates() {
        let r: std::result::Result<(), DfgError> = Err(DfgError::NoOutputs);
        let err = r.context("building the TRD graph").unwrap_err();
        assert!(matches!(err.root_cause(), Error::Dfg(DfgError::NoOutputs)));
    }
}
