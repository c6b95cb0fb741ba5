//! GPU graphics rendering (Figs. 5–7): programming framework and chip
//! engineering.
//!
//! The paper combines a GPU datasheet corpus with scraped game-benchmark
//! results over 20+ GPUs and six years, then (a) plots per-game frame-rate
//! and frames-per-joule gains against the CMOS potential (Fig. 5), and
//! (b) builds the Eq. 3/4 architecture relation matrix across ten GPU
//! architectures (Figs. 6–7).
//!
//! The GPU *hardware* rows below are real public datasheet facts. The
//! per-game frame rates are a documented synthetic reconstruction (the
//! AnandTech scrape is not redistributable): each GPU's FPS is its modeled
//! physical potential times a slowly-drifting CSR trajectory (≈0.95 in
//! 2011 rising to ≈1.2 by 2017) times a deterministic per-(game, GPU)
//! wiggle — which bakes in exactly the paper's finding that frame rates
//! track CMOS potential with near-flat specialization returns.

use crate::Result;
use accelwall_chipdb::fit::NodeGroup;
use accelwall_cmos::TechNode;
use accelwall_csr::{ArchObservations, CsrSeries, RelationMatrix};

/// Market tier of a GPU — Fig. 5 draws high-end parts opaque and
/// mid/low-end parts translucent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuTier {
    /// Flagship / enthusiast parts (the opaque Fig. 5 markers).
    HighEnd,
    /// Mid-range parts (the translucent markers).
    MidRange,
}

/// One GPU's datasheet facts.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuChip {
    /// Product name.
    pub name: &'static str,
    /// Microarchitecture, as labeled in Figs. 6–7.
    pub arch: &'static str,
    /// Process node.
    pub node: TechNode,
    /// Transistor count.
    pub transistors: f64,
    /// Boost/core clock in MHz.
    pub freq_mhz: f64,
    /// Board TDP in watts.
    pub tdp_w: f64,
    /// Release year.
    pub year: u32,
    /// Market tier.
    pub tier: GpuTier,
}

impl GpuChip {
    /// Physical throughput potential in transistor-GHz: the binding
    /// minimum of the switched-silicon budget (actual transistors × clock)
    /// and the Fig. 3c TDP cap for the chip's node group.
    pub fn physical_throughput(&self) -> f64 {
        let switched = self.transistors / 1e9 * self.freq_mhz / 1e3;
        match NodeGroup::of(self.node) {
            Some(group) => switched.min(group.paper_tdp_law().eval(self.tdp_w)),
            None => switched,
        }
    }

    /// Physical efficiency potential: throughput per watt of TDP.
    pub fn physical_efficiency(&self) -> f64 {
        self.physical_throughput() / self.tdp_w
    }
}

/// The GPU dataset: the ten Fig. 6/7 architectures, 65 nm Tesla through
/// 16 nm Pascal.
pub fn gpu_chips() -> Vec<GpuChip> {
    // (name, arch, node, transistors, MHz, TDP, year, tier)
    use GpuTier::{HighEnd as H, MidRange as M};
    #[allow(clippy::type_complexity, reason = "literal datasheet rows")]
    let rows: [(&str, &str, TechNode, f64, f64, f64, u32, GpuTier); 22] = [
        (
            "GeForce 8800 GT",
            "Tesla",
            TechNode::N65,
            754e6,
            600.0,
            105.0,
            2007,
            H,
        ),
        (
            "GeForce GTX 280",
            "Tesla 2",
            TechNode::N65,
            1.4e9,
            602.0,
            236.0,
            2008,
            H,
        ),
        (
            "GeForce GTX 285",
            "Tesla 2",
            TechNode::N55,
            1.4e9,
            648.0,
            204.0,
            2009,
            H,
        ),
        (
            "Radeon HD 5870",
            "TeraScale 2",
            TechNode::N40,
            2.15e9,
            850.0,
            188.0,
            2009,
            H,
        ),
        (
            "GeForce GTX 480",
            "Fermi",
            TechNode::N40,
            3.0e9,
            700.0,
            250.0,
            2010,
            H,
        ),
        (
            "GeForce GTX 580",
            "Fermi 2",
            TechNode::N40,
            3.0e9,
            772.0,
            244.0,
            2011,
            H,
        ),
        (
            "Radeon HD 7970",
            "GCN 1",
            TechNode::N28,
            4.31e9,
            925.0,
            250.0,
            2012,
            H,
        ),
        (
            "GeForce GTX 680",
            "Kepler",
            TechNode::N28,
            3.54e9,
            1006.0,
            195.0,
            2012,
            H,
        ),
        (
            "Radeon R9 290X",
            "GCN 2",
            TechNode::N28,
            6.2e9,
            1000.0,
            290.0,
            2013,
            H,
        ),
        (
            "GeForce GTX 980",
            "Maxwell 2",
            TechNode::N28,
            5.2e9,
            1126.0,
            165.0,
            2014,
            H,
        ),
        (
            "GeForce GTX 980 Ti",
            "Maxwell 2",
            TechNode::N28,
            8.0e9,
            1075.0,
            250.0,
            2015,
            H,
        ),
        (
            "GeForce GTX 1070",
            "Pascal",
            TechNode::N16,
            7.2e9,
            1506.0,
            150.0,
            2016,
            H,
        ),
        (
            "GeForce GTX 1080",
            "Pascal",
            TechNode::N16,
            7.2e9,
            1607.0,
            180.0,
            2016,
            H,
        ),
        (
            "GeForce GTX 1080 Ti",
            "Pascal",
            TechNode::N16,
            11.8e9,
            1480.0,
            250.0,
            2017,
            H,
        ),
        // Mid-range parts (Fig. 5's translucent markers).
        (
            "GeForce GTS 450",
            "Fermi",
            TechNode::N40,
            1.17e9,
            783.0,
            106.0,
            2010,
            M,
        ),
        (
            "GeForce GTX 560 Ti",
            "Fermi 2",
            TechNode::N40,
            1.95e9,
            822.0,
            170.0,
            2011,
            M,
        ),
        (
            "Radeon HD 7850",
            "GCN 1",
            TechNode::N28,
            2.8e9,
            860.0,
            130.0,
            2012,
            M,
        ),
        (
            "GeForce GTX 660",
            "Kepler",
            TechNode::N28,
            2.54e9,
            980.0,
            140.0,
            2012,
            M,
        ),
        (
            "Radeon R9 270X",
            "GCN 1",
            TechNode::N28,
            2.8e9,
            1050.0,
            180.0,
            2013,
            M,
        ),
        (
            "GeForce GTX 960",
            "Maxwell 2",
            TechNode::N28,
            2.94e9,
            1127.0,
            120.0,
            2015,
            M,
        ),
        (
            "GeForce GTX 950",
            "Maxwell 2",
            TechNode::N28,
            2.94e9,
            1024.0,
            90.0,
            2015,
            M,
        ),
        (
            "GeForce GTX 1060",
            "Pascal",
            TechNode::N16,
            4.4e9,
            1708.0,
            120.0,
            2016,
            M,
        ),
    ];
    rows.iter()
        .map(|&(name, arch, node, tc, mhz, tdp, year, tier)| GpuChip {
            name,
            arch,
            node,
            transistors: tc,
            freq_mhz: mhz,
            tdp_w: tdp,
            year,
            tier,
        })
        .collect()
}

/// One benchmarked game configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Game {
    /// Title and resolution, as in Fig. 5's panels.
    pub title: &'static str,
    /// First year the game appears in benchmark suites.
    pub since: u32,
    /// Baseline frame rate on the oldest GPU that runs it.
    base_fps: f64,
}

/// The benchmarked games: the five Fig. 5 panels plus older titles that
/// give the pre-2011 architectures the ≥ 5 shared applications Eq. 3
/// needs before Eq. 4 can chain the rest.
pub fn games() -> Vec<Game> {
    vec![
        Game {
            title: "Half-Life 2 LC FHD",
            since: 2005,
            base_fps: 60.0,
        },
        Game {
            title: "Oblivion FHD",
            since: 2006,
            base_fps: 32.0,
        },
        Game {
            title: "Company of Heroes FHD",
            since: 2006,
            base_fps: 45.0,
        },
        Game {
            title: "Crysis FHD",
            since: 2007,
            base_fps: 22.0,
        },
        Game {
            title: "BioShock FHD",
            since: 2007,
            base_fps: 40.0,
        },
        Game {
            title: "Far Cry 2 FHD",
            since: 2008,
            base_fps: 36.0,
        },
        Game {
            title: "Metro 2033 FHD",
            since: 2010,
            base_fps: 28.0,
        },
        Game {
            title: "Portal 2 FHD",
            since: 2011,
            base_fps: 90.0,
        },
        Game {
            title: "Crysis 3 FHD",
            since: 2011,
            base_fps: 24.0,
        },
        Game {
            title: "Battlefield 4 FHD",
            since: 2011,
            base_fps: 35.0,
        },
        Game {
            title: "Battlefield 4 QHD",
            since: 2011,
            base_fps: 22.0,
        },
        Game {
            title: "GTA V FHD",
            since: 2011,
            base_fps: 30.0,
        },
        Game {
            title: "GTA V FHD 99th perc.",
            since: 2011,
            base_fps: 21.0,
        },
    ]
}

/// The five panels shown in Fig. 5 (the "Apps 1-5" subset).
pub fn fig5_games() -> Vec<Game> {
    let titles = [
        "Crysis 3 FHD",
        "Battlefield 4 FHD",
        "Battlefield 4 QHD",
        "GTA V FHD",
        "GTA V FHD 99th perc.",
    ];
    games()
        .into_iter()
        .filter(|g| titles.contains(&g.title))
        .collect()
}

/// Whether a GPU appears in a game's benchmark window (titles are
/// benchmarked on hardware from their era onward).
pub fn is_benchmarked(gpu: &GpuChip, game: &Game) -> bool {
    gpu.year >= game.since && gpu.year <= game.since + 7
}

/// The synthetic-reconstruction CSR trajectory: specialization returns
/// drift up slowly with driver/framework maturity (new CUDA releases,
/// engine tuning), plateauing — the paper's Fig. 5 CSR curves.
fn csr_trajectory(year: u32) -> f64 {
    match year {
        0..=2008 => 0.92,
        2009 => 0.95,
        2010 => 0.97,
        2011 => 0.95,
        2012 => 1.02,
        2013 => 1.06,
        2014 => 1.10,
        2015 => 1.13,
        2016 => 1.16,
        _ => 1.20,
    }
}

/// Deterministic per-(game, GPU) wiggle of about ±8%.
fn wiggle(game: &Game, gpu: &GpuChip) -> f64 {
    let h = game
        .title
        .bytes()
        .chain(gpu.name.bytes())
        .fold(0u64, |acc, b| acc.wrapping_mul(131).wrapping_add(b as u64));
    1.0 + ((h % 1000) as f64 / 1000.0 - 0.5) * 0.16
}

/// The reconstructed frame rate of `gpu` on `game`, or `None` when the
/// pair is outside the benchmark window.
pub fn frame_rate(gpu: &GpuChip, game: &Game) -> Option<f64> {
    if !is_benchmarked(gpu, game) {
        return None;
    }
    #[expect(
        clippy::expect_used,
        reason = "the static GPU dataset has a high-end chip in every benchmark window; dataset tests pin this"
    )]
    let oldest = gpu_chips()
        .into_iter()
        .filter(|g| g.tier == GpuTier::HighEnd && is_benchmarked(g, game))
        .min_by_key(|g| g.year)
        .expect("window contains a high-end gpu");
    let physical = gpu.physical_throughput() / oldest.physical_throughput();
    let csr = csr_trajectory(gpu.year) / csr_trajectory(oldest.year);
    Some(game.base_fps * physical * csr * wiggle(game, gpu))
}

/// The latent (game-independent) frame-rate gain of a GPU over the
/// dataset's oldest chip: its physical-potential ratio times the CSR
/// trajectory ratio — the curve each game's frame rates realize. The
/// projection study (Figs. 15b/16b) consumes this directly.
pub fn latent_performance_gain(gpu: &GpuChip) -> f64 {
    let chips = gpu_chips();
    let oldest = &chips[0];
    (gpu.physical_throughput() / oldest.physical_throughput())
        * (csr_trajectory(gpu.year) / csr_trajectory(oldest.year))
}

/// The latent frames-per-joule gain over the oldest chip.
pub fn latent_efficiency_gain(gpu: &GpuChip) -> f64 {
    let chips = gpu_chips();
    let oldest = &chips[0];
    (gpu.physical_efficiency() / oldest.physical_efficiency())
        * (csr_trajectory(gpu.year) / csr_trajectory(oldest.year))
}

/// Frames per joule for a (gpu, game) pair.
pub fn frames_per_joule(gpu: &GpuChip, game: &Game) -> Option<f64> {
    frame_rate(gpu, game).map(|fps| fps / gpu.tdp_w)
}

/// The Fig. 5a series for one game: frame-rate gain and CSR per GPU,
/// normalized to the oldest benchmarked GPU.
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn performance_series(game: &Game) -> Result<CsrSeries> {
    series(game, frame_rate, GpuChip::physical_throughput)
}

/// The Fig. 5b series for one game: frames-per-joule gain and CSR.
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn efficiency_series(game: &Game) -> Result<CsrSeries> {
    series(game, frames_per_joule, GpuChip::physical_efficiency)
}

fn series(
    game: &Game,
    metric: impl Fn(&GpuChip, &Game) -> Option<f64>,
    physical: impl Fn(&GpuChip) -> f64,
) -> Result<CsrSeries> {
    let mut tested: Vec<(GpuChip, f64)> = gpu_chips()
        .into_iter()
        .filter_map(|g| metric(&g, game).map(|v| (g, v)))
        .collect();
    tested.sort_by_key(|(g, _)| g.year);
    #[expect(
        clippy::expect_used,
        reason = "the static GPU dataset benchmarks a high-end chip for every game; dataset tests pin this"
    )]
    let (base_gpu, base_value) = tested
        .iter()
        .find(|(g, _)| g.tier == GpuTier::HighEnd)
        .expect("every game has a high-end GPU")
        .clone();
    let rows = tested
        .iter()
        .map(|(g, v)| (g.name, v / base_value, physical(g) / physical(&base_gpu)))
        .collect();
    Ok(CsrSeries::new(rows)?)
}

/// Builds the Eq. 3/4 observations: every (architecture, game) gain, using
/// the best frame rate among the architecture's GPUs (the paper compares
/// architectures, not SKUs). `efficiency` selects frames/J instead of
/// frames/s.
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn arch_observations(efficiency: bool) -> Result<ArchObservations> {
    // One scan task per GPU, fanned across the `accelwall-par` pool; each
    // task walks every game's benchmark window. Tasks land at their chip
    // index and the per-(arch, game) merge takes a max, so the resulting
    // observations are identical to the serial double loop.
    let chips = gpu_chips();
    let all_games = games();
    let scanned = accelwall_par::par_map(chips.len(), move |i| {
        let gpu = &chips[i];
        all_games
            .iter()
            .filter_map(|game| {
                let value = if efficiency {
                    frames_per_joule(gpu, game)
                } else {
                    frame_rate(gpu, game)
                };
                value.map(|v| ((gpu.arch, game.title), v))
            })
            .collect::<Vec<((&'static str, &'static str), f64)>>()
    });
    let mut best: std::collections::BTreeMap<(&str, &str), f64> = std::collections::BTreeMap::new();
    for ((arch, game), v) in scanned.into_iter().flatten() {
        let entry = best.entry((arch, game)).or_insert(v);
        *entry = entry.max(v);
    }
    let mut obs = ArchObservations::new();
    for ((arch, game), v) in best {
        obs.add(arch, game, v).map_err(crate::StudyError::Csr)?;
    }
    Ok(obs)
}

/// The Figs. 6–7 relation matrix over architectures (Eq. 3 with ≥ 5 shared
/// games, Eq. 4 transitivity for the rest).
///
/// ```
/// let m = accelwall_studies::gpu::arch_relation_matrix(false)?;
/// // Pascal and Tesla never shared a benchmarked game; Eq. 4 chains them.
/// assert!(m.gain("Pascal", "Tesla")?.unwrap() > 8.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Propagates relation-matrix construction errors.
pub fn arch_relation_matrix(efficiency: bool) -> Result<RelationMatrix> {
    let obs = arch_observations(efficiency)?;
    RelationMatrix::build(&obs, 5).map_err(crate::StudyError::Csr)
}

/// An architecture's CSR relative to Tesla: its relation-matrix gain
/// divided by its best GPU's physical-potential gain over Tesla's.
///
/// # Errors
///
/// Propagates relation-matrix errors.
pub fn arch_csr(efficiency: bool) -> Result<Vec<(String, f64)>> {
    let matrix = arch_relation_matrix(efficiency)?;
    let chips = gpu_chips();
    let physical_of = |arch: &str| -> f64 {
        chips
            .iter()
            .filter(|g| g.arch == arch)
            .map(|g| {
                if efficiency {
                    g.physical_efficiency()
                } else {
                    g.physical_throughput()
                }
            })
            .fold(0.0, f64::max)
    };
    let tesla_physical = physical_of("Tesla");
    Ok(matrix
        .relative_to("Tesla")
        .map_err(crate::StudyError::Csr)?
        .into_iter()
        .map(|(arch, gain)| {
            let csr = gain / (physical_of(&arch) / tesla_physical);
            (arch, csr)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_two_gpus_ten_architectures_two_tiers() {
        let chips = gpu_chips();
        assert_eq!(chips.len(), 22);
        let archs: std::collections::HashSet<_> = chips.iter().map(|g| g.arch).collect();
        assert_eq!(archs.len(), 10);
        let mids = chips.iter().filter(|g| g.tier == GpuTier::MidRange).count();
        assert_eq!(mids, 8);
    }

    #[test]
    fn high_end_parts_lead_their_generation() {
        // Translucent (mid-range) markers sit below the opaque ones: for
        // every year with both tiers, the best high-end physical potential
        // beats the best mid-range one.
        let chips = gpu_chips();
        for year in [2012u32, 2015, 2016] {
            let best = |tier: GpuTier| {
                chips
                    .iter()
                    .filter(|g| g.year == year && g.tier == tier)
                    .map(super::GpuChip::physical_throughput)
                    .fold(0.0, f64::max)
            };
            assert!(
                best(GpuTier::HighEnd) > best(GpuTier::MidRange),
                "year {year}"
            );
        }
    }

    #[test]
    fn fig5_frame_rate_gains_four_to_six_x() {
        // Paper: "over a period of six years performance increased by
        // 4-6x" for the five panels.
        for game in fig5_games() {
            let s = performance_series(&game).unwrap();
            assert!(
                (3.5..7.5).contains(&s.peak_reported()),
                "{}: perf gain {:.2}",
                game.title,
                s.peak_reported()
            );
        }
    }

    #[test]
    fn fig5_efficiency_gains_four_and_a_half_to_seven_and_a_half_x() {
        // Paper: "energy efficiency increased by 4.5-7.5x."
        for game in fig5_games() {
            let s = efficiency_series(&game).unwrap();
            assert!(
                (3.5..9.0).contains(&s.peak_reported()),
                "{}: EE gain {:.2}",
                game.title,
                s.peak_reported()
            );
        }
    }

    #[test]
    fn fig5_csr_stays_near_unity() {
        // Paper: CSR 0.95-1.44 for performance, 0.99-1.47 for efficiency.
        for game in fig5_games() {
            for s in [
                performance_series(&game).unwrap(),
                efficiency_series(&game).unwrap(),
            ] {
                for row in &s.rows {
                    assert!(
                        (0.7..1.7).contains(&row.csr),
                        "{} / {}: CSR {:.2}",
                        game.title,
                        row.label,
                        row.csr
                    );
                }
            }
        }
    }

    #[test]
    fn relation_matrix_connects_all_ten_architectures() {
        let m = arch_relation_matrix(false).unwrap();
        assert_eq!(m.architectures().len(), 10);
        let rel = m.relative_to("Tesla").unwrap();
        assert_eq!(rel.len(), 10, "transitivity must connect every arch");
    }

    #[test]
    fn newer_architectures_deliver_better_absolute_gains() {
        // Fig. 6a: Pascal >> Tesla in absolute frame rate.
        let m = arch_relation_matrix(false).unwrap();
        let pascal = m.gain("Pascal", "Tesla").unwrap().unwrap();
        // The paper reports 13-16x; our potential model puts the Pascal
        // flagships somewhat higher (see EXPERIMENTS.md).
        assert!(
            (8.0..40.0).contains(&pascal),
            "Pascal over Tesla: {pascal:.1} (paper: 13-16x)"
        );
        let kepler = m.gain("Kepler", "Tesla").unwrap().unwrap();
        assert!(kepler < pascal);
        assert!(kepler > 1.0);
    }

    #[test]
    fn pascal_csr_roughly_matches_tesla_csr() {
        // Paper: "the CSR for the 16nm Pascal is roughly the same as that
        // of the 65nm Tesla" — order-of-magnitude smaller than the
        // absolute gains.
        for efficiency in [false, true] {
            let csr = arch_csr(efficiency).unwrap();
            let pascal = csr.iter().find(|(a, _)| a == "Pascal").unwrap().1;
            assert!(
                (0.6..1.8).contains(&pascal),
                "efficiency={efficiency}: Pascal CSR {pascal:.2}"
            );
        }
    }

    #[test]
    fn benchmark_windows_respect_eras() {
        let chips = gpu_chips();
        let old_gpu = &chips[0]; // 2007
        let new_game = games().into_iter().find(|g| g.since == 2011).unwrap();
        assert!(frame_rate(old_gpu, &new_game).is_none());
        let old_game = games().into_iter().find(|g| g.since == 2007).unwrap();
        assert!(frame_rate(old_gpu, &old_game).is_some());
    }

    #[test]
    fn frame_rates_are_deterministic() {
        let g = gpu_chips();
        let game = fig5_games()[0];
        assert_eq!(frame_rate(&g[7], &game), frame_rate(&g[7], &game));
    }

    #[test]
    fn every_adjacent_arch_pair_shares_enough_games() {
        // The Eq. 3 gate (>= 5 shared apps) must hold somewhere along the
        // architecture chain or Eq. 4 has nothing to chain through.
        let obs = arch_observations(false).unwrap();
        assert_eq!(obs.architectures().len(), 10);
    }
}
