//! Order statistics for latency samples and run-to-run spreads.

use std::time::{Duration, Instant};

/// Fewest samples that must lie beyond a reported percentile; a tail
/// estimate resting on fewer is noise, so [`percentile`] refuses it.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0..1`) of an ascending slice.
///
/// # Errors
///
/// When fewer than [`MIN_BEYOND`] samples lie above the chosen rank.
pub fn percentile(sorted: &[u64], p: f64) -> Result<u64, String> {
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; need at least {MIN_BEYOND}",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Shortest slice of a timed window that gets its own percentiles.
const MIN_SLICE: Duration = Duration::from_secs(3);

/// Most slices one window is cut into.
const MAX_SLICES: u32 = 10;

/// Operation rate and latency percentiles of one timed window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p90_us: f64,
}

/// Latencies of one timed window, in nanoseconds, cut into equal time
/// slices: each latency goes to the slice in which its operation started
/// (or was due), and each completion is counted in the slice in which it
/// finished.
///
/// Each figure is taken per slice and the median across slices is
/// reported, so a host stall that spoils one slice does not move it.
/// Counting completions rather than starts makes the rate of an open
/// loop the rate the program kept up with, not the offered rate: a
/// backlog lowers it.
#[derive(Debug)]
pub struct Latencies {
    start: Instant,
    slice: Duration,
    slices: Vec<Vec<u64>>,
    completed: Vec<u64>,
}

impl Latencies {
    /// Slices of at least [`MIN_SLICE`], at most [`MAX_SLICES`] of them.
    pub fn new(start: Instant, window: Duration) -> Latencies {
        let n = (window.as_secs() / MIN_SLICE.as_secs()).clamp(1, u64::from(MAX_SLICES)) as u32;
        Latencies {
            start,
            slice: window / n,
            slices: vec![Vec::new(); n as usize],
            completed: vec![0; n as usize],
        }
    }

    /// The slice holding instant `at`; later instants go to the last.
    fn slice_of(&self, at: Instant) -> usize {
        let offset = at.saturating_duration_since(self.start).as_nanos();
        let i = (offset / self.slice.as_nanos().max(1)) as usize;
        i.min(self.slices.len() - 1)
    }

    /// Records one operation that started (or was due) at `started` and
    /// finished `latency` later.
    pub fn push(&mut self, started: Instant, latency: Duration) {
        let i = self.slice_of(started);
        self.slices[i].push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX));
        let j = self.slice_of(started + latency);
        self.completed[j] += 1;
    }

    pub fn len(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }

    /// Medians across slices of each slice's completion rate, p50 and p90.
    ///
    /// # Errors
    ///
    /// When a slice was too short for a steady p90 (see [`percentile`]).
    pub fn summary(&mut self) -> Result<Summary, String> {
        let (mut rate, mut p50, mut p90) = (Vec::new(), Vec::new(), Vec::new());
        for (s, &done) in self.slices.iter_mut().zip(&self.completed) {
            s.sort_unstable();
            rate.push(done as f64 / self.slice.as_secs_f64());
            p50.push(percentile(s, 0.50)? as f64 / 1e3);
            p90.push(percentile(s, 0.90)? as f64 / 1e3);
        }
        eprintln!("slices ops_per_s {rate:.1?} p50_us {p50:.1?} p90_us {p90:.1?}");
        Ok(Summary {
            ops_per_s: median(&rate),
            p50_us: median(&p50),
            p90_us: median(&p90),
        })
    }
}

/// The reported set-up time of a run's set-up blocks: the fastest, in
/// seconds.
///
/// A block is 10–25 ms of mostly parallel work, and on a shared 2-vCPU
/// host another tenant's load stretches some blocks of every run. The
/// fastest block is the one it stretched least, so it moves far less with
/// that load than the median does, while more work in every block still
/// raises it. Each workload runs half its blocks before the timed window
/// and half after it, so that the fastest is sought over the whole run,
/// not over one busy moment.
pub fn setup_s(blocks: &[f64]) -> f64 {
    let med = median(blocks);
    let (q1, q3) = quartiles(blocks).unwrap_or((med, med));
    let fastest = blocks.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "setup blocks {}: min {fastest:.5} q1 {q1:.5} median {med:.5} q3 {q3:.5}",
        blocks.len()
    );
    fastest
}

/// The median of a non-empty set of values (mean of the middle pair
/// for even counts); 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => f64::midpoint(v[n / 2 - 1], v[n / 2]),
    }
}

/// First and third quartiles by the "exclusive" method, matching
/// Python's `statistics.quantiles(values, n=4)`.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), Ok(50));
        assert_eq!(percentile(&s, 0.9), Ok(90));
        // p95 of 100 leaves 5 samples beyond it: refused.
        assert!(percentile(&s, 0.95).is_err());
        assert!(percentile(&s[..19], 0.5).is_err());
        assert_eq!(percentile(&s[..20], 0.5), Ok(10));
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn latencies_report_the_median_slice() {
        let start = Instant::now();
        let mut l = Latencies::new(start, Duration::from_secs(9));
        assert_eq!(l.slices.len(), 3);
        // Slices 0 and 2 take 1..=100 us; slice 1 is stalled (10x).
        for (slice, scale) in [(0u64, 1), (1, 10), (2, 1)] {
            let at = start + Duration::from_secs(3 * slice + 1);
            for us in 1..=100 {
                l.push(at, Duration::from_micros(us * scale));
            }
        }
        assert_eq!(l.len(), 300);
        let s = l.summary().unwrap();
        assert_eq!((s.p50_us, s.p90_us), (50.0, 90.0));
        assert!((s.ops_per_s - 100.0 / 3.0).abs() < 1e-9);
        // Late starts land in the last slice.
        l.push(start + Duration::from_secs(20), Duration::from_micros(1));
        assert_eq!(l.slices[2].len(), 101);
        assert_eq!(
            Latencies::new(start, Duration::from_secs(2)).slices.len(),
            1
        );
        assert_eq!(
            Latencies::new(start, Duration::from_secs(100)).slices.len(),
            10
        );
    }

    #[test]
    fn rate_counts_completions_not_arrivals() {
        let start = Instant::now();
        let mut l = Latencies::new(start, Duration::from_secs(9));
        // 100 operations are due in each slice, but those due in slices
        // 0 and 1 sit in a backlog and all finish in slice 2.
        for slice in 0..3u64 {
            let at = start + Duration::from_secs(3 * slice + 1);
            let wait = Duration::from_secs(6 - 3 * slice.min(2));
            for _ in 0..100 {
                l.push(at, wait);
            }
        }
        assert_eq!(l.completed, vec![0, 0, 300]);
        assert_eq!(l.summary().unwrap().ops_per_s, 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(setup_s(&[0.03, 0.01, 0.02]), 0.01);
    }
}
