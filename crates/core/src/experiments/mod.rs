//! Implementations of every paper target, grouped by the domain crate
//! they exercise.
//!
//! Each submodule holds the [`crate::experiment::Experiment`] impls for
//! one layer of the stack; [`crate::registry::Registry::paper`] owns the
//! roster and presentation order. The submodules are crate-private, so
//! an experiment type that `Registry::paper()` never constructs is
//! rustc's `dead_code`, which the clippy gate in `tests/lint.rs` denies.
//! The helpers here cover the two things every experiment does: render
//! CSR series and append formatted lines to the text artifact.

pub(crate) mod accelsim;
pub(crate) mod chipdb;
pub(crate) mod cmos;
pub(crate) mod csr;
pub(crate) mod dfg;
pub(crate) mod potential;
pub(crate) mod projection;
pub(crate) mod report;
pub(crate) mod studies;
pub(crate) mod workloads;

pub use dfg::dot_artifact;

use crate::json::Value;
use accelwall_csr::CsrSeries;

/// `write!` into the text artifact, ignoring the infallible `fmt` error.
macro_rules! out {
    ($buf:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = write!($buf, $($arg)*);
    }};
}

/// `writeln!` into the text artifact, ignoring the infallible `fmt` error.
macro_rules! outln {
    ($buf:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf);
    }};
    ($buf:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf, $($arg)*);
    }};
}

pub(crate) use {out, outln};

/// The standard JSON rendering of a CSR series: one object per chip.
pub(crate) fn series_json(series: &CsrSeries) -> Value {
    series
        .rows
        .iter()
        .map(|r| {
            Value::object([
                ("label", Value::from(r.label.as_str())),
                ("reported_gain", Value::from(r.reported_gain)),
                ("physical_gain", Value::from(r.physical_gain)),
                ("csr", Value::from(r.csr)),
            ])
        })
        .collect()
}

/// The standard text rendering of a CSR series: title plus aligned rows.
pub(crate) fn push_series(buf: &mut String, title: &str, series: &CsrSeries) {
    outln!(buf, "{title}");
    outln!(
        buf,
        "{:<28} {:>12} {:>12} {:>8}",
        "chip",
        "reported(x)",
        "physical(x)",
        "CSR"
    );
    for r in &series.rows {
        outln!(
            buf,
            "{:<28} {:>12.2} {:>12.2} {:>8.2}",
            r.label,
            r.reported_gain,
            r.physical_gain,
            r.csr
        );
    }
}
