//! Parameterized what-if queries over the accelerator-wall pipeline.
//!
//! The experiment registry answers exactly the paper's precomputed
//! targets; this crate answers *arbitrary* accelerator-wall questions —
//! any (workload, Table III knob vector, CMOS node) combination plus
//! CSR and wall-projection what-ifs — at interactive cost, because the
//! bytecode VM made a single design point cheap enough to price on
//! demand.
//!
//! The pipeline has four stages:
//!
//! 1. **Spec** ([`QuerySpec`]) — a typed record parsed from CLI flags, a
//!    URL query string, or a JSON body. Unknown fields are rejected with
//!    the full roster, the same discipline the CLI applies to flags.
//! 2. **Canonicalization** ([`canonical_string`] / [`cache_key`]) —
//!    defaults are filled in, fields are emitted in one fixed order, and
//!    floats print via Rust's shortest-roundtrip display, so `8` and
//!    `8.0` produce the same stable `u64` FNV-1a key.
//! 3. **Cache** ([`QueryCache`]) — a sharded, byte-capped LRU over
//!    pre-serialized JSON response bodies, found by key and matched on
//!    the exact spec, sitting beside (not replacing) the per-experiment
//!    `ArtifactCache`.
//! 4. **Executor** ([`QueryEngine`]) — answers misses through `Ctx`'s
//!    memoized lowered programs, the sweep runner, and the
//!    projection/CSR machinery. It bounds nothing itself: the server's
//!    compute gate decides how many misses compute at once.
//!
//! A spec that exactly shadows a registry target (today: a full `s3d`
//! sweep shadows `fig13`) is delegated to the `ArtifactCache`, so its
//! response body is byte-identical to `GET /experiments/fig13`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

pub mod canon;
pub mod engine;
pub mod lru;
pub mod spec;

pub use canon::{cache_key, canonical_string};
pub use engine::{Miss, QueryEngine, QueryStats};
pub use lru::{QueryCache, QueryCacheStats};
pub use spec::{QueryKind, QuerySpec};

/// Why a query could not be answered.
#[derive(Debug)]
pub enum QueryError {
    /// The spec failed validation: unknown or duplicate field, a value
    /// outside its roster or range, or a field that does not apply to
    /// the requested kind. Maps to a client error.
    Invalid(String),
    /// The pipeline itself failed while computing the answer.
    Engine(accelerator_wall::error::Error),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Invalid(msg) => write!(f, "invalid query: {msg}"),
            QueryError::Engine(e) => write!(f, "query execution failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Engine(e) => Some(e),
            QueryError::Invalid(_) => None,
        }
    }
}

impl From<accelerator_wall::error::Error> for QueryError {
    fn from(e: accelerator_wall::error::Error) -> Self {
        QueryError::Engine(e)
    }
}
