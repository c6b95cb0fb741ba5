//! ASIC video decoders (Fig. 4): the specialization stack end to end.
//!
//! Twelve fabricated decoder chips, ISSCC 2006 through JSSC 2017,
//! reconstructed from the published papers the study cites \[27\]–\[38\].
//! Performance is decoding throughput (MPixels/s), efficiency is
//! MPixels/J; the hardware budget is reported as NAND-gate logic plus
//! on-chip SRAM, from which transistor counts are estimated exactly as the
//! paper does (4 transistors per NAND gate, 6 per SRAM bit).

use crate::Result;
use accelwall_cmos::TechNode;
use accelwall_csr::CsrSeries;

/// One published decoder ASIC.
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderChip {
    /// Venue-year label, as on the Fig. 4 axis.
    pub label: &'static str,
    /// Process node.
    pub node: TechNode,
    /// Decoding throughput in MPixels/s.
    pub mpixels_per_s: f64,
    /// Core power in milliwatts.
    pub power_mw: f64,
    /// Logic complexity in kilo NAND gates.
    pub logic_kgates: f64,
    /// On-chip SRAM in kilobytes (`None` when the paper did not disclose
    /// it — those chips are omitted from the Fig. 4b budget panel).
    pub sram_kb: Option<f64>,
    /// Core clock in MHz.
    pub freq_mhz: f64,
    /// Die (core) area in mm².
    pub die_mm2: f64,
}

impl DecoderChip {
    /// Estimated transistors: 4 per NAND gate + 6 per SRAM bit.
    /// Returns `None` when the SRAM size was not disclosed.
    pub fn transistors(&self) -> Option<f64> {
        self.sram_kb
            .map(|kb| self.logic_kgates * 1e3 * 4.0 + kb * 1024.0 * 8.0 * 6.0)
    }

    /// Energy efficiency in MPixels/J.
    pub fn mpixels_per_joule(&self) -> f64 {
        self.mpixels_per_s / (self.power_mw * 1e-3)
    }
}

/// The twelve-chip dataset, in chronological order.
pub fn decoder_chips() -> Vec<DecoderChip> {
    // (label, node, MPix/s, mW, kgates, SRAM KB, MHz, die mm²)
    // Sources: [27] Lin ISSCC'06 H.264 HDTV; [28] Chien ISSCC'07
    // multi-standard; [29] Zhou VLSI'09 1080p60; [30] Chuang ISSCC'10
    // quad-HD/3D; [31] Zhou JSSC'11 530 MPix/s; [32] Tsung ISSCC'11 3DTV
    // STB; [33] Zhou ISSCC'12 Super Hi-Vision; [34] Tikekar ISSCC'13 HEVC;
    // [35] Ju ESSCIRC'14 0.2 nJ/pixel; [36] Ju JSSC'16 codec LSI;
    // [37] Ju ESSCIRC'16 VP9; [38] Zhou JSSC'17 8K HEVC.
    #[allow(clippy::type_complexity, reason = "literal datasheet rows")]
    let rows: [(&str, TechNode, f64, f64, f64, Option<f64>, f64, f64); 12] = [
        (
            "ISSCC2006",
            TechNode::N180,
            30.0,
            180.0,
            160.0,
            Some(4.5),
            120.0,
            7.0,
        ),
        (
            "ISSCC2007",
            TechNode::N130,
            62.0,
            71.0,
            252.0,
            Some(9.0),
            135.0,
            8.0,
        ),
        (
            "VLSI2009",
            TechNode::N90,
            124.0,
            60.0,
            314.0,
            Some(30.0),
            150.0,
            6.0,
        ),
        (
            "ISSCC2010",
            TechNode::N65,
            249.0,
            59.5,
            414.0,
            Some(74.0),
            180.0,
            7.0,
        ),
        (
            "JSSC2011",
            TechNode::N90,
            530.0,
            198.0,
            662.0,
            Some(80.0),
            200.0,
            10.0,
        ),
        (
            "ISSCC2011",
            TechNode::N40,
            1106.0,
            170.0,
            1000.0,
            Some(140.0),
            270.0,
            12.0,
        ),
        (
            "ISSCC2012",
            TechNode::N65,
            1750.0,
            410.0,
            1300.0,
            Some(450.0),
            280.0,
            21.0,
        ),
        (
            "ISSCC2013",
            TechNode::N40,
            249.0,
            76.0,
            446.0,
            None,
            200.0,
            1.77,
        ),
        (
            "ESSCIRC2014",
            TechNode::N28,
            498.0,
            100.0,
            880.0,
            Some(164.0),
            300.0,
            4.0,
        ),
        (
            "JSSC2016",
            TechNode::N28,
            498.0,
            250.0,
            1200.0,
            Some(210.0),
            330.0,
            5.0,
        ),
        (
            "ESSCIRC2016",
            TechNode::N28,
            498.0,
            95.0,
            940.0,
            None,
            310.0,
            2.6,
        ),
        (
            "JSSC2017",
            TechNode::N40,
            1990.0,
            690.0,
            2900.0,
            Some(450.0),
            400.0,
            16.0,
        ),
    ];
    rows.iter()
        .map(
            |&(label, node, mpix, mw, kgates, sram, mhz, die)| DecoderChip {
                label,
                node,
                mpixels_per_s: mpix,
                power_mw: mw,
                logic_kgates: kgates,
                sram_kb: sram,
                freq_mhz: mhz,
                die_mm2: die,
            },
        )
        .collect()
}

/// Physical throughput potential of a decoder relative to the 2006
/// baseline: transistors × clock, scaled — the paper's "more processing
/// elements in parallel, clocked faster" argument. Chips without a
/// disclosed SRAM budget fall back to logic-gate transistors alone.
fn physical_perf(chip: &DecoderChip) -> f64 {
    let transistors = chip
        .transistors()
        .unwrap_or(chip.logic_kgates * 1e3 * 4.0 * 1.6); // typical SRAM share
    transistors * chip.freq_mhz
}

/// Physical efficiency potential: operations per joule scale with the
/// reciprocal of the node's dynamic energy per operation.
fn physical_ee(chip: &DecoderChip) -> f64 {
    1.0 / chip.node.dynamic_energy_rel()
}

/// The Fig. 4a series: throughput gains and CSR, normalized to the
/// ISSCC 2006 baseline.
///
/// ```
/// let series = accelwall_studies::video::performance_series()?;
/// // Decoding throughput improved by up to ~64x (paper's headline)...
/// assert!(series.peak_reported() > 50.0);
/// // ...yet the best chip's CSR never cleared 1.0.
/// assert!(series.csr_of_best_chip() <= 1.0);
/// # Ok::<(), accelwall_studies::StudyError>(())
/// ```
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn performance_series() -> Result<CsrSeries> {
    Ok(CsrSeries::new(scan_family(
        |c| c.mpixels_per_s,
        physical_perf,
    ))?)
}

/// Scans the decoder family across the `accelwall-par` pool: each row's
/// reported gain and physical potential against the ISSCC 2006 baseline.
/// Rows land at their chip index, so the series order matches the
/// serial loop.
fn scan_family(
    reported: fn(&DecoderChip) -> f64,
    physical: fn(&DecoderChip) -> f64,
) -> Vec<(&'static str, f64, f64)> {
    let chips = decoder_chips();
    accelwall_par::par_map(chips.len(), move |i| {
        let (c, base) = (&chips[i], &chips[0]);
        (
            c.label,
            reported(c) / reported(base),
            physical(c) / physical(base),
        )
    })
}

/// The Fig. 4c series: energy-efficiency gains and CSR, normalized to the
/// ISSCC 2006 baseline.
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn efficiency_series() -> Result<CsrSeries> {
    Ok(CsrSeries::new(scan_family(
        DecoderChip::mpixels_per_joule,
        physical_ee,
    ))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_chips_in_chronology() {
        let chips = decoder_chips();
        assert_eq!(chips.len(), 12);
        assert_eq!(chips[0].label, "ISSCC2006");
        assert_eq!(chips[11].label, "JSSC2017");
    }

    #[test]
    fn throughput_improved_about_64x() {
        // Paper: "absolute decoding throughput improved by rates of up
        // to 64x."
        let s = performance_series().unwrap();
        assert!(
            (50.0..80.0).contains(&s.peak_reported()),
            "peak perf {:.1}",
            s.peak_reported()
        );
    }

    #[test]
    fn efficiency_improved_about_34x() {
        // Paper: "throughput per energy improved by up to 34x."
        let s = efficiency_series().unwrap();
        assert!(
            (25.0..45.0).contains(&s.peak_reported()),
            "peak EE {:.1}",
            s.peak_reported()
        );
    }

    #[test]
    fn best_chips_gained_no_specialization_return() {
        // Paper: "for the best performing ASICs, chip specialization did
        // not improve, and even got worse since CSR was less than one."
        let s = performance_series().unwrap();
        assert!(
            s.csr_of_best_chip() <= 1.0,
            "best-chip CSR {:.2}",
            s.csr_of_best_chip()
        );
    }

    #[test]
    fn jssc2017_transistor_budget_about_36x() {
        // Paper: "JSSC2017 has ~36x more transistors" than the baseline.
        let chips = decoder_chips();
        let ratio = chips[11].transistors().unwrap() / chips[0].transistors().unwrap();
        assert!((28.0..45.0).contains(&ratio), "transistor ratio {ratio:.1}");
    }

    #[test]
    fn physical_layer_outpaced_specialization() {
        // The study's conclusion: the physical layer had a higher impact
        // than the specialization-stack layers.
        let s = performance_series().unwrap();
        let best = s
            .rows
            .iter()
            .max_by(|a, b| a.reported_gain.partial_cmp(&b.reported_gain).unwrap())
            .unwrap();
        assert!(best.physical_gain > best.reported_gain);
    }

    #[test]
    fn undisclosed_sram_handled() {
        let chips = decoder_chips();
        let hidden: Vec<_> = chips.iter().filter(|c| c.sram_kb.is_none()).collect();
        assert_eq!(hidden.len(), 2);
        for c in hidden {
            assert!(c.transistors().is_none());
        }
    }

    #[test]
    fn frequencies_rise_with_node_generation() {
        // Fig. 4b: clocks climb from ~120 MHz to ~400 MHz.
        let chips = decoder_chips();
        assert!(chips[0].freq_mhz < 150.0);
        assert!(chips[11].freq_mhz >= 350.0);
    }
}
