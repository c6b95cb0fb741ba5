//! Synthetic datasheet corpus generator.
//!
//! Substitute for the paper's scrape of 1612 CPU and 1001 GPU datasheets
//! (CPU DB, TechPowerUp). The generating process is the *published* model
//! plus log-normal noise:
//!
//! * transistor count: `TC = 4.99e9 · D^0.877 · ε`,
//! * TDP: inverted from the record's node-group law
//!   `TC[G] × f[GHz] = c · TDP^e`, perturbed by `ε`,
//!
//! with `ln ε ~ N(0, σ²)`. Because OLS in log-log space is the
//! maximum-likelihood estimator under exactly this noise model, fitting the
//! synthetic corpus recovers the published coefficients — the only use the
//! paper ever makes of the raw data (see DESIGN.md, substitutions table).

use crate::fit::{NodeGroup, PAPER_TC_LAW};
use crate::{ChipKind, ChipRecord};
use accelwall_cmos::TechNode;
use accelwall_stats::Rng;

/// Configuration of a synthetic corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusSpec {
    /// Number of CPU records to generate.
    pub cpus: usize,
    /// Number of GPU records to generate.
    pub gpus: usize,
    /// Standard deviation of the log-normal datasheet noise.
    pub log_noise_sigma: f64,
    /// RNG seed; a fixed seed makes the corpus reproducible.
    pub seed: u64,
}

impl CorpusSpec {
    /// The paper-scale corpus: 1612 CPUs and 1001 GPUs, with a noise level
    /// (σ = 0.25 in log space, i.e. roughly ±30% scatter) that matches the
    /// visual spread of Fig. 3b.
    pub fn paper_scale() -> Self {
        CorpusSpec {
            cpus: 1612,
            gpus: 1001,
            log_noise_sigma: 0.25,
            seed: 0xACCE_13B0,
        }
    }

    /// A small corpus for fast tests.
    pub fn small() -> Self {
        CorpusSpec {
            cpus: 120,
            gpus: 80,
            log_noise_sigma: 0.2,
            seed: 7,
        }
    }

    /// Generates the corpus deterministically from the seed.
    ///
    /// Records are produced in fixed chunks of [`GENERATE_CHUNK`], each
    /// drawing from its own RNG stream seeded by `(seed, chunk index)` —
    /// not by call order — so the corpus is a pure function of the spec
    /// whether the chunks run serially or across the `accelwall-par`
    /// pool. The record at position `i` is a CPU for `i < cpus`, a GPU
    /// otherwise.
    pub fn generate(&self) -> Vec<ChipRecord> {
        let total = self.cpus + self.gpus;
        let spec = self.clone();
        accelwall_par::par_chunks(total, GENERATE_CHUNK, move |range| {
            spec.generate_chunk(range.start / GENERATE_CHUNK)
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Generates one chunk of the corpus: the records at positions
    /// `[chunk · GENERATE_CHUNK, (chunk + 1) · GENERATE_CHUNK)` (clamped
    /// to the corpus size), drawn from that chunk's own RNG stream.
    /// [`generate`](CorpusSpec::generate) is exactly the concatenation of
    /// every chunk in index order.
    fn generate_chunk(&self, chunk: usize) -> Vec<ChipRecord> {
        let total = self.cpus + self.gpus;
        let start = (chunk * GENERATE_CHUNK).min(total);
        let end = ((chunk + 1) * GENERATE_CHUNK).min(total);
        let mut rng = Rng::seed(chunk_stream_seed(self.seed, chunk as u64));
        (start..end)
            .map(|i| {
                if i < self.cpus {
                    synthesize(&mut rng, ChipKind::Cpu, i, self.log_noise_sigma)
                } else {
                    synthesize(&mut rng, ChipKind::Gpu, i - self.cpus, self.log_noise_sigma)
                }
            })
            .collect()
    }
}

/// Records per RNG stream. This constant is part of the corpus
/// definition: changing it re-seeds every stream and therefore changes
/// every record (pinned by `paper_scale_corpus_is_pinned` below), so it
/// must not be retuned casually.
pub const GENERATE_CHUNK: usize = 64;

/// Derives the RNG seed of one generation chunk from the corpus seed.
/// A SplitMix64-style finalizer decorrelates adjacent chunk indices.
fn chunk_stream_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec::paper_scale()
    }
}

/// Nodes sampled for the corpus, paired with rough era weights. The spread
/// mirrors Fig. 3b's legend groups (180–90, 80–45, 40–20, 16–12 nm).
const NODE_POOL: &[(TechNode, u32)] = &[
    (TechNode::N180, 6),
    (TechNode::N130, 8),
    (TechNode::N110, 4),
    (TechNode::N90, 8),
    (TechNode::N65, 10),
    (TechNode::N55, 6),
    (TechNode::N45, 10),
    (TechNode::N40, 8),
    (TechNode::N32, 8),
    (TechNode::N28, 12),
    (TechNode::N22, 8),
    (TechNode::N20, 4),
    (TechNode::N16, 8),
    (TechNode::N14, 6),
    (TechNode::N12, 2),
];

fn pick_node(rng: &mut Rng) -> TechNode {
    let total: u32 = NODE_POOL.iter().map(|(_, w)| w).sum();
    let mut roll = rng.below(u64::from(total)) as u32;
    for &(node, w) in NODE_POOL {
        if roll < w {
            return node;
        }
        roll -= w;
    }
    unreachable!("weights cover the roll range")
}

fn synthesize(rng: &mut Rng, kind: ChipKind, index: usize, sigma: f64) -> ChipRecord {
    let node = pick_node(rng);
    // Die area: CPUs cluster 60–400 mm², GPUs 80–700 mm² (log-uniform).
    let (area_lo, area_hi) = match kind {
        ChipKind::Cpu => (60.0f64, 400.0f64),
        _ => (80.0f64, 700.0f64),
    };
    let area = rng.log_uniform(area_lo, area_hi);
    let d = node.density_factor(area);
    let transistors = PAPER_TC_LAW.eval(d) * (sigma * rng.std_normal()).exp();

    // Frequency: CPUs 1.5–4 GHz scaled by era; GPUs 0.5–1.8 GHz.
    let speedup = node.frequency_potential().min(2.0);
    let freq_mhz = match kind {
        ChipKind::Cpu => rng.uniform(1200.0, 2200.0) * speedup.max(0.5),
        _ => rng.uniform(500.0, 900.0) * speedup.max(0.5),
    };

    // TDP: invert the node-group law where one exists; older nodes fall
    // back to a classical (pre-dark-silicon) proportional model.
    // TDP carries only a third of the datasheet noise: heavy multiplicative
    // noise on the *predictor* of a log-log regression would attenuate the
    // fitted exponent (classical errors-in-variables bias), which real
    // datasheets — where TDP is a designed-in bin, not a measurement —
    // do not exhibit.
    let cap = (transistors / 1e9) * (freq_mhz / 1e3);
    let tdp_noise = (sigma / 3.0 * rng.std_normal()).exp();
    let tdp_w = match NodeGroup::of(node) {
        Some(group) => group.paper_tdp_law().invert(cap) * tdp_noise,
        None => (cap * 400.0 * node.dynamic_energy_rel()) * tdp_noise,
    }
    .clamp(3.0, 900.0);

    let year = 1999 + (node.density_rel().log2() * 1.4 + 6.0).clamp(0.0, 19.0) as u32;

    ChipRecord {
        name: format!("{kind}-{index:04}"),
        kind,
        node,
        die_area_mm2: area,
        transistors,
        tdp_w,
        freq_mhz,
        year,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit;

    #[test]
    fn paper_scale_counts() {
        let corpus = CorpusSpec::paper_scale().generate();
        assert_eq!(corpus.len(), 2613);
        let cpus = corpus.iter().filter(|r| r.kind == ChipKind::Cpu).count();
        assert_eq!(cpus, 1612);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CorpusSpec::small().generate();
        let b = CorpusSpec::small().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn generate_is_the_concatenation_of_chunks() {
        let spec = CorpusSpec::small();
        let chunk_count = (spec.cpus + spec.gpus).div_ceil(GENERATE_CHUNK);
        let chunked: Vec<ChipRecord> = (0..chunk_count)
            .flat_map(|c| spec.generate_chunk(c))
            .collect();
        assert_eq!(chunked, spec.generate());
        // Past-the-end chunks are empty, not a panic.
        assert!(spec.generate_chunk(chunk_count).is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = CorpusSpec::small();
        let a = spec.generate();
        spec.seed += 1;
        let b = spec.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn records_are_physically_sane() {
        for r in CorpusSpec::small().generate() {
            assert!(r.die_area_mm2 > 10.0 && r.die_area_mm2 < 1000.0, "{r:?}");
            assert!(r.transistors > 1e5 && r.transistors < 1e12, "{r:?}");
            assert!(r.tdp_w >= 3.0 && r.tdp_w <= 900.0, "{r:?}");
            assert!(r.freq_mhz > 100.0 && r.freq_mhz < 9000.0, "{r:?}");
            assert!((1999..=2018).contains(&r.year), "{r:?}");
        }
    }

    #[test]
    fn paper_scale_corpus_is_pinned() {
        // Guards the per-chunk seed derivation: retuning GENERATE_CHUNK
        // or chunk_stream_seed would silently regenerate every record,
        // shifting every corpus-derived figure. The first and last
        // paper-scale records are pinned bit-exactly.
        let corpus = CorpusSpec::paper_scale().generate();
        let first = &corpus[0];
        assert_eq!(first.name, "CPU-0000");
        assert_eq!(first.kind, ChipKind::Cpu);
        assert_eq!(first.node, TechNode::N45);
        assert_eq!(first.die_area_mm2, 206.926_879_298_365_12);
        assert_eq!(first.transistors, 507_994_917.472_838_4);
        assert_eq!(first.tdp_w, 110.600_189_537_557_71);
        assert_eq!(first.freq_mhz, 2_083.416_772_185_071_3);
        assert_eq!(first.year, 2005);
        let last = &corpus[corpus.len() - 1];
        assert_eq!(last.name, "GPU-1000");
        assert_eq!(last.kind, ChipKind::Gpu);
        assert_eq!(last.node, TechNode::N14);
        assert_eq!(last.die_area_mm2, 377.415_754_644_541_15);
        assert_eq!(last.transistors, 10_891_732_509.756_414);
        assert_eq!(last.tdp_w, 378.714_909_762_174_8);
        assert_eq!(last.freq_mhz, 1_221.570_554_461_746_7);
        assert_eq!(last.year, 2009);
    }

    #[test]
    fn corpus_fit_recovers_fig3b_law() {
        let corpus = CorpusSpec::paper_scale().generate();
        let law = fit::transistor_density_fit(&corpus).unwrap();
        assert!(
            (law.exponent - fit::PAPER_TC_EXPONENT).abs() < 0.03,
            "exponent {}",
            law.exponent
        );
        assert!(
            (law.coefficient / fit::PAPER_TC_COEFFICIENT - 1.0).abs() < 0.15,
            "coefficient {:e}",
            law.coefficient
        );
        assert!(law.r_squared > 0.9, "r2 {}", law.r_squared);
    }

    #[test]
    fn corpus_fit_recovers_fig3c_laws() {
        let corpus = CorpusSpec::paper_scale().generate();
        for &group in NodeGroup::all() {
            if group == NodeGroup::N10ToN5 {
                // Projection-only group: no manufactured chips in the corpus.
                continue;
            }
            let published = group.paper_tdp_law();
            let fitted = fit::tdp_fit(&corpus, group).unwrap();
            assert!(
                (fitted.exponent - published.exponent).abs() < 0.06,
                "{group}: exponent {} vs {}",
                fitted.exponent,
                published.exponent
            );
        }
    }
}
