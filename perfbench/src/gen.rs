//! Seeded input generation: the RNG, the query-mix spec pool and request
//! stream, and the open-loop arrival schedule. Everything here is a pure
//! function of the seed, so one seed always yields one request sequence.

use std::time::Duration;

use accelerator_wall::cmos::TechNode;
use accelerator_wall::workloads::Workload;

/// SplitMix64: tiny, fast, and good enough to shuffle benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Distinct point specs in the query-mix pool: more than the 4 MiB wire
/// cache holds (~5.7k point entries), far fewer than the 32 MiB engine
/// LRU holds.
pub const POOL_POINTS: usize = 8000;

// The mix below is chosen to exercise particular server paths, not taken
// from measured traffic: no query log of `accelwall serve` exists to
// derive it from. Each share is large enough to give its path's per-layer
// figures thousands of samples per window, and canonical GETs, the
// wire-cacheable path, stay the majority.

/// Zipf exponent of the point-spec popularity skew. At 0.9 over
/// [`POOL_POINTS`] specs the hottest tenth draws over half the point
/// traffic and stays in the wire cache, while the tail overflows it, so
/// one window sees wire-cache hits, inserts and evictions.
const ZIPF_S: f64 = 0.9;

/// Percent of requests sent as canonical `GET /query?...`: wire-cache
/// hits, and inserts on a spec's first visit or after its eviction.
const CANONICAL_PCT: usize = 70;

/// Percent sent as `GET` with the fields permuted: wire-cache misses that
/// the engine canonicalizes onto an LRU entry.
const REORDERED_PCT: usize = 15;

/// Percent sent as `POST /query` JSON: never wire-cached, so always
/// through the pool and JSON parsing. The rest (5%) are sweep, projection
/// and csr specs, so every query kind runs.
const POST_PCT: usize = 10;

/// One what-if spec as `(field, value)` pairs in canonical field order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub pairs: Vec<(&'static str, String)>,
}

impl Spec {
    /// `a=1&b=2` in the given pair order.
    pub fn query_string(&self, order: &[usize]) -> String {
        let parts: Vec<String> = order
            .iter()
            .map(|&i| format!("{}={}", self.pairs[i].0, self.pairs[i].1))
            .collect();
        parts.join("&")
    }

    /// A flat JSON object of string members, canonical order.
    pub fn json_body(&self) -> String {
        let parts: Vec<String> = self
            .pairs
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{v}\""))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

/// How one query-mix request is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `GET /query?...` with fields in canonical order (wire-cacheable).
    Canonical,
    /// `GET` with the fields permuted: a wire-cache miss that the engine
    /// canonicalizes back onto the same LRU entry.
    Reordered,
    /// `POST /query` with a JSON body: never wire-cached.
    Post,
}

/// One scheduled query-mix request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixRequest {
    /// Index into [`Pool::specs`].
    pub spec: usize,
    pub variant: Variant,
    /// The exact request bytes.
    pub bytes: Vec<u8>,
}

/// The seeded spec pool: point specs first (popularity rank order),
/// then the sweep/projection/csr specs.
#[derive(Debug)]
pub struct Pool {
    pub specs: Vec<Spec>,
    /// Cumulative Zipf weights over the point specs.
    cdf: Vec<f64>,
}

impl Pool {
    pub fn new(seed: u64) -> Pool {
        let mut rng = Rng::new(seed);
        let nodes = TechNode::sweep_nodes();
        let workloads = Workload::all();
        let mut seen = std::collections::BTreeSet::new();
        let mut specs = Vec::with_capacity(POOL_POINTS + 128);
        while specs.len() < POOL_POINTS {
            let w = rng.below(workloads.len());
            let n = rng.below(nodes.len());
            let lanes = 1u64 << rng.below(20);
            let simpl = 1 + rng.below(13);
            let het = rng.below(2) == 1;
            if !seen.insert((w, n, lanes, simpl, het)) {
                continue;
            }
            specs.push(Spec {
                pairs: vec![
                    ("kind", "point".to_string()),
                    ("workload", workloads[w].abbrev().to_ascii_lowercase()),
                    ("node", nodes[n].to_string()),
                    ("lanes", lanes.to_string()),
                    ("simplification", simpl.to_string()),
                    ("heterogeneity", het.to_string()),
                ],
            });
        }
        for w in workloads.iter().filter(|&&w| w != Workload::S3d) {
            specs.push(Spec {
                pairs: vec![
                    ("kind", "sweep".to_string()),
                    ("workload", w.abbrev().to_ascii_lowercase()),
                ],
            });
        }
        for domain in ["video", "gpu", "fpga", "bitcoin"] {
            for metric in ["performance", "efficiency"] {
                for horizon in ["1", "2", "4"] {
                    specs.push(Spec {
                        pairs: vec![
                            ("kind", "projection".to_string()),
                            ("domain", domain.to_string()),
                            ("metric", metric.to_string()),
                            ("horizon", horizon.to_string()),
                        ],
                    });
                }
            }
        }
        for reported in ["2", "10", "50", "200"] {
            for physical in ["1.5", "4", "8"] {
                for base in [None, Some("2")] {
                    let mut pairs = vec![
                        ("kind", "csr".to_string()),
                        ("reported", reported.to_string()),
                        ("physical", physical.to_string()),
                    ];
                    if let Some(base) = base {
                        pairs.push(("physical_base", base.to_string()));
                    }
                    specs.push(Spec { pairs });
                }
            }
        }
        let mut total = 0.0;
        let cdf = (1..=POOL_POINTS)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Pool { specs, cdf }
    }

    /// A Zipf-skewed point-spec index.
    fn zipf_point(&self, rng: &mut Rng) -> usize {
        let total = self.cdf.last().copied().unwrap_or(1.0);
        let u = rng.unit() * total;
        self.cdf.partition_point(|&c| c < u).min(POOL_POINTS - 1)
    }

    /// The first `n` requests of the seeded mix: canonical `GET`s,
    /// reordered `GET`s and `POST`s of Zipf-drawn point specs in the
    /// shares above, and canonical `GET`s of the other kinds.
    pub fn requests(&self, seed: u64, n: usize) -> Vec<MixRequest> {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
        (0..n)
            .map(|_| {
                let roll = rng.below(100);
                let (spec, variant) = if roll < CANONICAL_PCT {
                    (self.zipf_point(&mut rng), Variant::Canonical)
                } else if roll < CANONICAL_PCT + REORDERED_PCT {
                    (self.zipf_point(&mut rng), Variant::Reordered)
                } else if roll < CANONICAL_PCT + REORDERED_PCT + POST_PCT {
                    (self.zipf_point(&mut rng), Variant::Post)
                } else {
                    (
                        POOL_POINTS + rng.below(self.specs.len() - POOL_POINTS),
                        Variant::Canonical,
                    )
                };
                let bytes = self.request_bytes(spec, variant, &mut rng);
                MixRequest {
                    spec,
                    variant,
                    bytes,
                }
            })
            .collect()
    }

    fn request_bytes(&self, spec: usize, variant: Variant, rng: &mut Rng) -> Vec<u8> {
        let spec = &self.specs[spec];
        let canonical: Vec<usize> = (0..spec.pairs.len()).collect();
        match variant {
            Variant::Canonical => get_query(&spec.query_string(&canonical)),
            Variant::Reordered => {
                let mut order = canonical.clone();
                while order == canonical {
                    rng.shuffle(&mut order);
                }
                get_query(&spec.query_string(&order))
            }
            Variant::Post => {
                let body = spec.json_body();
                format!(
                    "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes()
            }
        }
    }
}

fn get_query(query: &str) -> Vec<u8> {
    format!("GET /query?{query} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// A plain keep-alive `GET` with an optional `Accept` header.
pub fn get(path: &str, accept: Option<&str>) -> Vec<u8> {
    match accept {
        Some(accept) => format!("GET {path} HTTP/1.1\r\nHost: bench\r\nAccept: {accept}\r\n\r\n"),
        None => format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n"),
    }
    .into_bytes()
}

/// Seeded Poisson arrivals at a fixed mean rate: the due time of each of
/// `n` requests, measured from the start of the window. Exponential
/// gaps keep the sender from phase-locking with the server's idle naps,
/// which a strictly periodic schedule does.
pub fn schedule(seed: u64, n: usize, rate_per_s: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let due = Duration::from_secs_f64(t);
            t += -(1.0 - rng.unit()).ln() / rate_per_s as f64;
            due
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_other_seed_differs() {
        let a = Pool::new(7);
        let b = Pool::new(7);
        assert_eq!(a.specs, b.specs);
        assert_eq!(a.requests(7, 2000), b.requests(7, 2000));
        assert_ne!(a.requests(7, 200), Pool::new(8).requests(8, 200));
    }

    #[test]
    fn pool_is_distinct_and_mix_shares_hold() {
        let pool = Pool::new(3);
        let distinct: std::collections::BTreeSet<_> = pool.specs.iter().map(|s| &s.pairs).collect();
        assert_eq!(distinct.len(), pool.specs.len());
        let reqs = pool.requests(3, 20_000);
        let share = |v: Variant| reqs.iter().filter(|r| r.variant == v).count() as f64 / 2e4;
        let pct = |p: usize| p as f64 / 100.0;
        assert!((share(Variant::Reordered) - pct(REORDERED_PCT)).abs() < 0.02);
        assert!((share(Variant::Post) - pct(POST_PCT)).abs() < 0.02);
        let others = reqs.iter().filter(|r| r.spec >= POOL_POINTS).count() as f64 / 2e4;
        let other_pct = 100 - CANONICAL_PCT - REORDERED_PCT - POST_PCT;
        assert!((others - pct(other_pct)).abs() < 0.01);
        // The skew: the hottest tenth of the points draws most traffic.
        let points: Vec<_> = reqs.iter().filter(|r| r.spec < POOL_POINTS).collect();
        let hot = points.iter().filter(|r| r.spec < POOL_POINTS / 10).count();
        assert!(hot * 2 > points.len(), "{hot} of {}", points.len());
    }

    #[test]
    fn reordered_requests_never_use_canonical_order() {
        let pool = Pool::new(11);
        for r in pool.requests(11, 3000) {
            let text = String::from_utf8(r.bytes).unwrap();
            let canonical = pool.specs[r.spec]
                .query_string(&[0, 1, 2, 3, 4, 5][..pool.specs[r.spec].pairs.len()]);
            match r.variant {
                Variant::Canonical => assert!(text.contains(&canonical)),
                Variant::Reordered => assert!(!text.contains(&canonical)),
                Variant::Post => assert!(text.starts_with("POST /query ")),
            }
        }
    }

    #[test]
    fn arrival_schedule_is_seeded_poisson_at_the_rate() {
        let a = schedule(4, 40_000, 4000);
        assert_eq!(a, schedule(4, 40_000, 4000));
        assert_ne!(a, schedule(5, 40_000, 4000));
        assert_eq!(a[0], Duration::ZERO);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // 40 000 arrivals at 4000/s span ~10 s (mean gap 250 us).
        let span = a[a.len() - 1].as_secs_f64();
        assert!((span - 10.0).abs() < 0.2, "{span}");
        // Exponential gaps: about 1/e of them exceed the mean.
        let long = a
            .windows(2)
            .filter(|w| w[1].saturating_sub(w[0]) > Duration::from_micros(250))
            .count();
        assert!(
            (long as f64 / 40_000.0 - (-1.0f64).exp()).abs() < 0.02,
            "{long}"
        );
    }
}
