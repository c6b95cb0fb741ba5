//! Bitcoin mining across CPU, GPU, FPGA, and ASIC platforms
//! (Figs. 1 and 9): the impact of the chip-platform layer.
//!
//! Miner rows are reconstructed from the mining-hardware wikis and vendor
//! datasheets the paper cites \[60\]–\[63\]. ASIC miners integrate wildly
//! different chip counts, so — as the paper argues — performance is
//! normalized *per chip area* (GH/s/mm²); efficiency is GH/J.

use crate::Result;
use accelwall_cmos::TechNode;
use accelwall_csr::CsrSeries;

/// The platform a miner is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// General-purpose CPU.
    Cpu,
    /// Graphics processor.
    Gpu,
    /// FPGA board.
    Fpga,
    /// Dedicated mining ASIC.
    Asic,
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Platform::Cpu => "CPU",
            Platform::Gpu => "GPU",
            Platform::Fpga => "FPGA",
            Platform::Asic => "ASIC",
        };
        f.write_str(s)
    }
}

/// One mining chip.
#[derive(Debug, Clone, PartialEq)]
pub struct Miner {
    /// Product / chip name.
    pub name: &'static str,
    /// Platform class.
    pub platform: Platform,
    /// Process node.
    pub node: TechNode,
    /// Hash rate per chip in GH/s.
    pub ghash_per_s: f64,
    /// Power per chip in watts.
    pub power_w: f64,
    /// Die area in mm².
    pub die_mm2: f64,
    /// Introduction date as (year, month) — the Fig. 1 x axis.
    pub intro: (u32, u32),
    /// Chip clock in GHz.
    pub freq_ghz: f64,
}

impl Miner {
    /// Performance per area in GH/s/mm² — the Fig. 1/9a metric.
    pub fn ghash_per_s_per_mm2(&self) -> f64 {
        self.ghash_per_s / self.die_mm2
    }

    /// Energy efficiency in GH/J — the Fig. 9b metric.
    pub fn ghash_per_joule(&self) -> f64 {
        self.ghash_per_s / self.power_w
    }
}

/// The miner dataset: the platform procession CPU → GPU → FPGA → ASIC,
/// then five generations of ASICs racing down the node ladder.
pub fn miners() -> Vec<Miner> {
    // (name, platform, node, GH/s, W, mm², (year, month), GHz)
    #[allow(clippy::type_complexity, reason = "literal datasheet rows")]
    let rows: [(&str, Platform, TechNode, f64, f64, f64, (u32, u32), f64); 14] = [
        (
            "Athlon 64 3400+",
            Platform::Cpu,
            TechNode::N130,
            0.0014,
            89.0,
            193.0,
            (2009, 1),
            2.4,
        ),
        (
            "Core i7-950",
            Platform::Cpu,
            TechNode::N45,
            0.02,
            130.0,
            263.0,
            (2010, 3),
            3.07,
        ),
        (
            "Radeon HD 5870",
            Platform::Gpu,
            TechNode::N40,
            0.40,
            188.0,
            334.0,
            (2010, 9),
            0.85,
        ),
        (
            "Radeon HD 6990 (per die)",
            Platform::Gpu,
            TechNode::N40,
            0.41,
            188.0,
            389.0,
            (2011, 4),
            0.83,
        ),
        (
            "Spartan-6 LX150",
            Platform::Fpga,
            TechNode::N45,
            0.10,
            6.8,
            220.0,
            (2011, 6),
            0.1,
        ),
        (
            "X6500 (dual LX150, per chip)",
            Platform::Fpga,
            TechNode::N45,
            0.2,
            8.5,
            220.0,
            (2011, 9),
            0.2,
        ),
        (
            "ASICMiner BE100",
            Platform::Asic,
            TechNode::N130,
            0.3,
            2.0,
            30.0,
            (2012, 12),
            0.3,
        ),
        (
            "Avalon A3256",
            Platform::Asic,
            TechNode::N110,
            0.282,
            1.2,
            22.0,
            (2013, 1),
            0.28,
        ),
        (
            "Bitfury gen1",
            Platform::Asic,
            TechNode::N55,
            1.56,
            1.9,
            14.0,
            (2013, 10),
            0.32,
        ),
        (
            "BM1380 (Antminer S1)",
            Platform::Asic,
            TechNode::N55,
            2.8,
            3.1,
            18.0,
            (2013, 11),
            0.35,
        ),
        (
            "BM1382 (Antminer S3)",
            Platform::Asic,
            TechNode::N28,
            11.2,
            11.0,
            20.0,
            (2014, 7),
            0.45,
        ),
        (
            "BM1384 (Antminer S5)",
            Platform::Asic,
            TechNode::N28,
            21.5,
            12.5,
            24.0,
            (2014, 12),
            0.5,
        ),
        (
            "BM1385 (Antminer S7)",
            Platform::Asic,
            TechNode::N28,
            32.5,
            13.2,
            26.0,
            (2015, 8),
            0.6,
        ),
        (
            "BM1387 (Antminer S9)",
            Platform::Asic,
            TechNode::N16,
            74.0,
            7.3,
            15.5,
            (2016, 6),
            0.65,
        ),
    ];
    rows.iter()
        .map(|&(name, platform, node, gh, w, mm2, intro, ghz)| Miner {
            name,
            platform,
            node,
            ghash_per_s: gh,
            power_w: w,
            die_mm2: mm2,
            intro,
            freq_ghz: ghz,
        })
        .collect()
}

/// The ASIC subset, chronological — the Fig. 1 series.
pub fn asic_miners() -> Vec<Miner> {
    miners()
        .into_iter()
        .filter(|m| m.platform == Platform::Asic)
        .collect()
}

/// Physical per-area throughput potential of a miner relative to a
/// baseline: transistor density × switching-speed potential of the node —
/// the paper's "transistor performance" (Fig. 1). Mining is embarrassingly
/// parallel fixed-function hashing, so hash rate per mm² tracks how much
/// silicon switches per second per unit area; 130 nm → 16 nm gives
/// (130/16)² × (speed ratio) ≈ 315x, the paper's 307x.
pub fn physical_per_area_gain(miner: &Miner, baseline: &Miner) -> f64 {
    (miner.node.density_rel() * miner.node.frequency_potential())
        / (baseline.node.density_rel() * baseline.node.frequency_potential())
}

/// Physical efficiency potential relative to a baseline: hashes per joule
/// scale with the reciprocal dynamic energy per switched gate.
pub fn physical_efficiency_gain(miner: &Miner, baseline: &Miner) -> f64 {
    baseline.node.dynamic_energy_rel() / miner.node.dynamic_energy_rel()
}

/// Fig. 1: the ASIC evolution series, normalized to the first (130 nm)
/// mining ASIC — performance per area, transistor performance, and CSR.
///
/// ```
/// let series = accelwall_studies::bitcoin::fig1_series()?;
/// // ~477x performance, ~315x of it transistors: CSR stalls near 1.5x.
/// let last = series.rows.last().unwrap();
/// assert!(last.csr < 2.0);
/// # Ok::<(), accelwall_studies::StudyError>(())
/// ```
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn fig1_series() -> Result<CsrSeries> {
    Ok(CsrSeries::new(scan_family(
        asic_miners(),
        Miner::ghash_per_s_per_mm2,
        physical_per_area_gain,
    ))?)
}

/// Scans one chip family across the `accelwall-par` pool: each row's
/// reported gain and physical potential against the family's first
/// (baseline) member. Rows land at their miner index, so the series
/// order matches the serial loop.
fn scan_family(
    family: Vec<Miner>,
    reported: fn(&Miner) -> f64,
    physical: fn(&Miner, &Miner) -> f64,
) -> Vec<(&'static str, f64, f64)> {
    accelwall_par::par_map(family.len(), move |i| {
        let (m, base) = (&family[i], &family[0]);
        (m.name, reported(m) / reported(base), physical(m, base))
    })
}

/// Fig. 9a: all platforms, performance per area vs. the CPU baseline.
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn fig9_performance_series() -> Result<CsrSeries> {
    Ok(CsrSeries::new(scan_family(
        miners(),
        Miner::ghash_per_s_per_mm2,
        physical_per_area_gain,
    ))?)
}

/// Fig. 9b: all platforms, energy efficiency vs. the CPU baseline.
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn fig9_efficiency_series() -> Result<CsrSeries> {
    Ok(CsrSeries::new(scan_family(
        miners(),
        Miner::ghash_per_joule,
        physical_efficiency_gain,
    ))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_procession_is_chronological() {
        let all = miners();
        assert!(all.windows(2).all(|w| w[0].intro <= w[1].intro));
        assert_eq!(all[0].platform, Platform::Cpu);
        assert_eq!(all.last().unwrap().platform, Platform::Asic);
    }

    #[test]
    fn fig1_performance_improved_about_510x() {
        // Paper Fig. 1: ASIC perf/area improved 510x over the 130 nm
        // baseline ASIC.
        let s = fig1_series().unwrap();
        assert!(
            (350.0..700.0).contains(&s.peak_reported()),
            "peak {:.0}",
            s.peak_reported()
        );
    }

    #[test]
    fn fig1_transistor_performance_about_307x() {
        // Paper Fig. 1: "mainly due to a 307x improvement in transistor
        // performance."
        let s = fig1_series().unwrap();
        assert!(
            (230.0..400.0).contains(&s.peak_physical()),
            "physical {:.0}",
            s.peak_physical()
        );
    }

    #[test]
    fn fig1_csr_is_modest_and_stalls() {
        // Paper: CSR ~1.7x total and flat over the last two years.
        let s = fig1_series().unwrap();
        let csr_final = s.rows.last().unwrap().csr;
        assert!((1.0..2.6).contains(&csr_final), "final CSR {csr_final:.2}");
        // The 28 nm-era chips already reached comparable CSR.
        let csr_28nm_peak = s.rows[4..7].iter().map(|r| r.csr).fold(0.0, f64::max);
        assert!(
            csr_final < 1.6 * csr_28nm_peak,
            "CSR should not keep climbing: final {csr_final:.2} vs 28nm peak {csr_28nm_peak:.2}"
        );
    }

    #[test]
    fn asics_beat_cpus_by_five_to_six_orders_of_magnitude() {
        // Paper: "~600,000x compared to the baseline CPU miner."
        let s = fig9_performance_series().unwrap();
        assert!(
            (2e5..2e6).contains(&s.peak_reported()),
            "peak vs CPU {:.0}",
            s.peak_reported()
        );
    }

    #[test]
    fn asic_over_asic_specialization_return_is_about_2x() {
        // Paper: "specialization returns improve by about 2x across
        // ASICs."
        let asics = asic_miners();
        let base = &asics[0];
        let last = asics.last().unwrap();
        let reported = last.ghash_per_s_per_mm2() / base.ghash_per_s_per_mm2();
        let physical = physical_per_area_gain(last, base);
        let csr = reported / physical;
        assert!((1.0..3.0).contains(&csr), "ASIC CSR {csr:.2}");
    }

    #[test]
    fn platform_transitions_deliver_non_recurring_boosts() {
        // Paper insight: each platform jump (CPU->GPU->FPGA->ASIC) is a
        // one-time CSR leap.
        let s = fig9_performance_series().unwrap();
        let csr_of = |name: &str| s.rows.iter().find(|r| r.label.contains(name)).unwrap().csr;
        let cpu = csr_of("i7-950");
        let gpu = csr_of("5870");
        let asic = csr_of("S9");
        assert!(gpu > 3.0 * cpu, "GPU jump: {gpu:.1} vs {cpu:.1}");
        assert!(asic > 10.0 * gpu, "ASIC jump: {asic:.1} vs {gpu:.1}");
    }

    #[test]
    fn efficiency_shows_two_csr_regions() {
        // Fig. 9b: CSR improves within the early (130/110 nm) region and
        // within the modern (28/16 nm) region, with a decline between —
        // the 110 nm -> 28 nm sprint outpaced algorithmic innovation.
        let s = fig9_efficiency_series().unwrap();
        let csr_of = |name: &str| s.rows.iter().find(|r| r.label.contains(name)).unwrap().csr;
        let region1_peak = csr_of("Avalon").max(csr_of("BE100"));
        let region2_start = csr_of("S3");
        let region2_end = csr_of("S9");
        assert!(
            region2_start < region1_peak,
            "dip between regions: {region2_start:.1} !< {region1_peak:.1}"
        );
        assert!(
            region2_end > region2_start,
            "recovery within region 2: {region2_end:.1} !> {region2_start:.1}"
        );
    }

    #[test]
    fn per_chip_metrics_are_positive_and_sane() {
        for m in miners() {
            assert!(m.ghash_per_s_per_mm2() > 0.0);
            assert!(m.ghash_per_joule() > 0.0);
            assert!(m.die_mm2 > 5.0 && m.die_mm2 < 500.0);
        }
    }
}
