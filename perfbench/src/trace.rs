//! In-memory spans recorded around the benchmark's calls into the
//! program, written out once the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call: which layer boundary, which operation it served.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub start: Instant,
    pub dur: Duration,
}

/// A span recorder; disabled, it only runs the closures.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Runs `f`, recording a span named `name` for operation `op`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            op,
            start,
            dur: start.elapsed(),
        });
        out
    }

    /// Records an already-measured interval.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                op,
                start,
                dur: end.saturating_duration_since(start),
            });
        }
    }

    /// Per-name span count, distinct operations, wall extent, total and
    /// median duration, one line each.
    pub fn summary(&self) -> Vec<String> {
        let mut by_name: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
        for s in &self.spans {
            by_name.entry(s.name).or_default().push(s);
        }
        by_name
            .into_iter()
            .map(|(name, spans)| {
                let mut d: Vec<Duration> = spans.iter().map(|s| s.dur).collect();
                d.sort_unstable();
                let ops: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.op).collect();
                let first = spans.iter().map(|s| s.start).min();
                let last = spans.iter().map(|s| s.start + s.dur).max();
                let extent = first.zip(last).map_or(Duration::ZERO, |(a, b)| b - a);
                format!(
                    "span {name:<16} count {:>8} ops {:>8} extent_s {:>8.3} busy_ms {:>10.3} p50_us {:>9.3}",
                    d.len(),
                    ops.len(),
                    extent.as_secs_f64(),
                    d.iter().sum::<Duration>().as_secs_f64() * 1e3,
                    d[d.len() / 2].as_secs_f64() * 1e6
                )
            })
            .collect()
    }
}
