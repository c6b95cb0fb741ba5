//! The 16 Table IV benchmark applications as dataflow-graph generators.
//!
//! The paper's design-space exploration (Section VI) runs Aladdin over
//! accelerator benchmarks drawn from MachSuite, SHOC, CortexSuite, and
//! PARSEC. Aladdin consumes each benchmark as a dynamic dependence graph;
//! this crate builds those graphs from scratch — each generator constructs
//! the *real* dependence structure of its algorithm (FFT butterfly
//! networks, Needleman-Wunsch wavefronts, CSR sparse dot products, AES
//! S-box rounds, ...), parameterized by problem size.
//!
//! Every module also ships a plain-software *reference kernel* and a test
//! that interprets the generated DFG (via [`accelwall_dfg::Dfg::evaluate`])
//! and checks it computes exactly what the reference computes — functional
//! validation of the dependence structure.
//!
//! # Example
//!
//! ```
//! use accelwall_workloads::Workload;
//!
//! let dfg = Workload::Fft.default_instance();
//! let stats = dfg.stats();
//! assert!(stats.computes > 100);
//! assert_eq!(Workload::Fft.abbrev(), "FFT");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aes;
pub mod conv;
pub mod graphs;
pub mod linalg;
pub mod mdy;
pub mod nwn;
pub mod rbm;
pub mod sha;
pub mod signal;
pub mod simple;
pub mod sorting;
pub mod stencil;
pub mod video;

use accelwall_dfg::{Dfg, DfgBuilder};
use std::fmt;

/// The 16 evaluated applications of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Advanced Encryption Standard (MachSuite) — cryptography.
    Aes,
    /// Breadth-First Search (MachSuite) — graph processing.
    Bfs,
    /// Fast Fourier Transform (MachSuite) — signal processing.
    Fft,
    /// General Matrix Multiplication (MachSuite) — linear algebra.
    Gmm,
    /// Molecular Dynamics (SHOC) — molecular dynamics.
    Mdy,
    /// K-Nearest Neighbors (MachSuite) — data mining.
    Knn,
    /// Needleman-Wunsch (MachSuite) — bioinformatics.
    Nwn,
    /// Restricted Boltzmann Machine (CortexSuite) — machine learning.
    Rbm,
    /// Reduction (SHOC) — microbenchmarking.
    Red,
    /// Sum of Absolute Differences (PARSEC) — video processing.
    Sad,
    /// Merge Sort (MachSuite) — algorithms.
    Srt,
    /// Sparse Matrix-Vector Multiply (MachSuite) — linear algebra.
    Smv,
    /// Single-Source Shortest Path (internal) — graph processing.
    Ssp,
    /// 2D Stencil (MachSuite) — image processing.
    S2d,
    /// 3D Stencil (MachSuite) — image processing.
    S3d,
    /// Triad (SHOC) — microbenchmarking.
    Trd,
}

impl Workload {
    /// All 16 workloads, Table IV order.
    pub fn all() -> &'static [Workload] {
        const ALL: [Workload; 16] = [
            Workload::Aes,
            Workload::Bfs,
            Workload::Fft,
            Workload::Gmm,
            Workload::Mdy,
            Workload::Knn,
            Workload::Nwn,
            Workload::Rbm,
            Workload::Red,
            Workload::Sad,
            Workload::Srt,
            Workload::Smv,
            Workload::Ssp,
            Workload::S2d,
            Workload::S3d,
            Workload::Trd,
        ];
        &ALL
    }

    /// Table IV abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Workload::Aes => "AES",
            Workload::Bfs => "BFS",
            Workload::Fft => "FFT",
            Workload::Gmm => "GMM",
            Workload::Mdy => "MDY",
            Workload::Knn => "KNN",
            Workload::Nwn => "NWN",
            Workload::Rbm => "RBM",
            Workload::Red => "RED",
            Workload::Sad => "SAD",
            Workload::Srt => "SRT",
            Workload::Smv => "SMV",
            Workload::Ssp => "SSP",
            Workload::S2d => "S2D",
            Workload::S3d => "S3D",
            Workload::Trd => "TRD",
        }
    }

    /// Full application name, as in Table IV.
    pub fn full_name(self) -> &'static str {
        match self {
            Workload::Aes => "Advanced Encryption Standard",
            Workload::Bfs => "Breadth-First Search",
            Workload::Fft => "Fast Fourier Transform",
            Workload::Gmm => "General Matrix Multiplication",
            Workload::Mdy => "Molecular Dynamics",
            Workload::Knn => "K-Nearest Neighbors",
            Workload::Nwn => "Needleman-Wunsch",
            Workload::Rbm => "Restricted Boltzmann machine",
            Workload::Red => "Reduction",
            Workload::Sad => "Sum of Absolute Differences",
            Workload::Srt => "Merge Sort",
            Workload::Smv => "Sparse Matrix-Vector Multiply",
            Workload::Ssp => "Single Source, Shortest Path",
            Workload::S2d => "2D Stencil",
            Workload::S3d => "3D Stencil",
            Workload::Trd => "Triad",
        }
    }

    /// Application domain, as in Table IV.
    pub fn domain(self) -> &'static str {
        match self {
            Workload::Aes => "Cryptography",
            Workload::Bfs | Workload::Ssp => "Graph Processing",
            Workload::Fft => "Signal Processing",
            Workload::Gmm | Workload::Smv => "Linear Algebra",
            Workload::Mdy => "Molecular Dynamics",
            Workload::Knn => "Data Mining",
            Workload::Nwn => "Bioinformatics",
            Workload::Rbm => "Machine Learning",
            Workload::Red | Workload::Trd => "Microbenchmarking",
            Workload::Sad => "Video Processing",
            Workload::Srt => "Algorithms",
            Workload::S2d | Workload::S3d => "Image Processing",
        }
    }

    /// Benchmark suite of origin, as cited in Table IV.
    pub fn suite(self) -> &'static str {
        match self {
            Workload::Mdy | Workload::Red | Workload::Trd => "SHOC",
            Workload::Rbm => "CortexSuite",
            Workload::Sad => "PARSEC",
            Workload::Ssp => "Internal",
            _ => "MachSuite",
        }
    }

    /// Builds the workload's DFG at the default instance size used by the
    /// design-space sweep: large enough to expose the algorithm's
    /// parallelism structure, small enough to schedule in microseconds.
    pub fn default_instance(self) -> Dfg {
        self.instance(InstanceSize::Default)
    }

    /// Builds the workload's DFG at a chosen problem size.
    pub fn instance(self, size: InstanceSize) -> Dfg {
        use InstanceSize::{Default, Large, Small};
        match (self, size) {
            (Workload::Aes, Small) => aes::build(1),
            (Workload::Aes, Default) => aes::build(2),
            (Workload::Aes, Large) => aes::build(10),
            (Workload::Bfs, Small) => graphs::build_bfs(8, 2),
            (Workload::Bfs, Default) => graphs::build_bfs(16, 4),
            (Workload::Bfs, Large) => graphs::build_bfs(48, 8),
            (Workload::Fft, Small) => signal::build_fft(8),
            (Workload::Fft, Default) => signal::build_fft(16),
            (Workload::Fft, Large) => signal::build_fft(64),
            (Workload::Gmm, Small) => linalg::build_gmm(4),
            (Workload::Gmm, Default) => linalg::build_gmm(6),
            (Workload::Gmm, Large) => linalg::build_gmm(12),
            (Workload::Mdy, Small) => mdy::build(4),
            (Workload::Mdy, Default) => mdy::build(8),
            (Workload::Mdy, Large) => mdy::build(16),
            (Workload::Knn, Small) => linalg::build_knn(8, 3),
            (Workload::Knn, Default) => linalg::build_knn(24, 4),
            (Workload::Knn, Large) => linalg::build_knn(96, 8),
            (Workload::Nwn, Small) => nwn::build(4, 4),
            (Workload::Nwn, Default) => nwn::build(8, 8),
            (Workload::Nwn, Large) => nwn::build(20, 20),
            (Workload::Rbm, Small) => rbm::build(6, 4),
            (Workload::Rbm, Default) => rbm::build(12, 8),
            (Workload::Rbm, Large) => rbm::build(32, 24),
            (Workload::Red, Small) => simple::build_reduction(32),
            (Workload::Red, Default) => simple::build_reduction(128),
            (Workload::Red, Large) => simple::build_reduction(1024),
            (Workload::Sad, Small) => video::build_sad(2, 2),
            (Workload::Sad, Default) => video::build_sad(4, 4),
            (Workload::Sad, Large) => video::build_sad(16, 16),
            (Workload::Srt, Small) => sorting::build_bitonic(8),
            (Workload::Srt, Default) => sorting::build_bitonic(16),
            (Workload::Srt, Large) => sorting::build_bitonic(64),
            (Workload::Smv, Small) => linalg::build_smv(8, 3),
            (Workload::Smv, Default) => linalg::build_smv(16, 4),
            (Workload::Smv, Large) => linalg::build_smv(64, 8),
            (Workload::Ssp, Small) => graphs::build_ssp(6, 2),
            (Workload::Ssp, Default) => graphs::build_ssp(12, 3),
            (Workload::Ssp, Large) => graphs::build_ssp(32, 6),
            (Workload::S2d, Small) => stencil::build_2d(4, 4),
            (Workload::S2d, Default) => stencil::build_2d(8, 8),
            (Workload::S2d, Large) => stencil::build_2d(20, 20),
            (Workload::S3d, Small) => stencil::build_3d(3, 3, 3),
            (Workload::S3d, Default) => stencil::build_3d(4, 4, 4),
            (Workload::S3d, Large) => stencil::build_3d(7, 7, 7),
            (Workload::Trd, Small) => simple::build_triad(16),
            (Workload::Trd, Default) => simple::build_triad(64),
            (Workload::Trd, Large) => simple::build_triad(512),
        }
    }
}

/// Problem-size tiers for [`Workload::instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceSize {
    /// Smallest structurally interesting instance (fast tests).
    Small,
    /// The sweep default.
    Default,
    /// A scaled-up instance for scaling studies.
    Large,
}

impl InstanceSize {
    /// All tiers, ascending.
    pub fn all() -> &'static [InstanceSize] {
        const ALL: [InstanceSize; 3] = [
            InstanceSize::Small,
            InstanceSize::Default,
            InstanceSize::Large,
        ];
        &ALL
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Finalizes a generator's graph; a failure panics at the generator's
/// call site.
#[track_caller]
fn finish(b: DfgBuilder) -> Dfg {
    #[expect(
        clippy::expect_used,
        reason = "generators assemble their graphs from static structure; build() only fails on programming errors, which this crate's tests catch"
    )]
    let dfg = b.build().expect("workload graph is structurally valid");
    dfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_workloads() {
        assert_eq!(Workload::all().len(), 16);
        let abbrevs: std::collections::HashSet<_> =
            Workload::all().iter().map(|w| w.abbrev()).collect();
        assert_eq!(abbrevs.len(), 16);
    }

    #[test]
    fn all_default_instances_build_and_are_nontrivial() {
        for &w in Workload::all() {
            let g = w.default_instance();
            let s = g.stats();
            assert!(s.computes >= 16, "{w}: only {} compute nodes", s.computes);
            assert!(s.outputs >= 1, "{w}: no outputs");
            assert!(s.depth >= 3, "{w}: depth {}", s.depth);
        }
    }

    #[test]
    fn table_iv_metadata_is_complete() {
        for &w in Workload::all() {
            assert!(!w.full_name().is_empty());
            assert!(!w.domain().is_empty());
            assert!(!w.suite().is_empty());
        }
        assert_eq!(Workload::Ssp.suite(), "Internal");
        assert_eq!(Workload::Sad.suite(), "PARSEC");
    }

    #[test]
    fn display_is_abbrev() {
        assert_eq!(Workload::S3d.to_string(), "S3D");
    }

    #[test]
    fn instances_scale_monotonically() {
        for &w in Workload::all() {
            let small = w.instance(InstanceSize::Small).stats();
            let default = w.instance(InstanceSize::Default).stats();
            let large = w.instance(InstanceSize::Large).stats();
            assert!(
                small.computes < default.computes && default.computes < large.computes,
                "{w}: {} / {} / {}",
                small.computes,
                default.computes,
                large.computes
            );
        }
    }

    #[test]
    fn large_instances_stay_tractable() {
        for &w in Workload::all() {
            let s = w.instance(InstanceSize::Large).stats();
            assert!(
                s.vertices < 200_000,
                "{w}: {} vertices is too big for the sweep",
                s.vertices
            );
        }
    }
}
