//! FPGA convolutional neural networks (Fig. 8): the algorithm layer.
//!
//! Published FPGA implementations of AlexNet and VGG-16 (FPGA'15 through
//! FPGA'18), reconstructed from the cited papers \[43\]–\[49\]. The study
//! isolates the *algorithm* layer: the devices span only two CMOS nodes
//! (28 nm and 20 nm), so gains beyond the device budget are algorithmic —
//! data layouts, GEMM restructuring, and the Winograd transform.

use crate::Result;
use accelwall_cmos::TechNode;
use accelwall_csr::CsrSeries;

/// Which CNN model an implementation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CnnModel {
    /// AlexNet (2012; ~1.5 GOP per image).
    AlexNet,
    /// VGG-16 (2014; ~31 GOP per image, 3x the weights).
    Vgg16,
}

impl std::fmt::Display for CnnModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CnnModel::AlexNet => f.write_str("AlexNet"),
            CnnModel::Vgg16 => f.write_str("VGG-16"),
        }
    }
}

/// One published FPGA CNN implementation.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaImpl {
    /// Venue-year label, as on the Fig. 8 axis.
    pub label: &'static str,
    /// Target model.
    pub model: CnnModel,
    /// FPGA device.
    pub device: &'static str,
    /// Device node.
    pub node: TechNode,
    /// Throughput in GOP/s.
    pub gops: f64,
    /// Board power in watts.
    pub power_w: f64,
    /// LUT utilization in percent.
    pub lut_pct: f64,
    /// DSP utilization in percent.
    pub dsp_pct: f64,
    /// BRAM utilization in percent.
    pub bram_pct: f64,
    /// Clock in MHz.
    pub freq_mhz: f64,
    /// Total DSP slices on the device.
    pub device_dsps: f64,
}

impl FpgaImpl {
    /// Energy efficiency in GOP/J.
    pub fn gops_per_joule(&self) -> f64 {
        self.gops / self.power_w
    }

    /// Physical compute budget actually engaged: DSP slices in use times
    /// clock (MAC-slots per second, in DSP-GHz). This is the denominator
    /// of the study's CSR — gains beyond it are algorithmic.
    pub fn physical_budget(&self) -> f64 {
        self.device_dsps * self.dsp_pct / 100.0 * self.freq_mhz / 1e3
    }
}

/// The AlexNet implementations (11 rows, Fig. 8 left column).
pub fn alexnet_impls() -> Vec<FpgaImpl> {
    // (label, device, node, GOPS, W, LUT%, DSP%, BRAM%, MHz, device DSPs)
    #[allow(clippy::type_complexity, reason = "literal datasheet rows")]
    let rows: [(&str, &str, TechNode, f64, f64, f64, f64, f64, f64, f64); 11] = [
        (
            "FPGA2015",
            "Virtex-7 VX485T",
            TechNode::N28,
            61.6,
            18.6,
            61.3,
            80.0,
            50.0,
            100.0,
            2800.0,
        ),
        (
            "FPGA2016",
            "Stratix-V GSD8",
            TechNode::N28,
            72.4,
            25.8,
            46.0,
            37.0,
            52.0,
            120.0,
            1963.0,
        ),
        (
            "FPGA2016*",
            "Stratix-V GXA7",
            TechNode::N28,
            114.5,
            19.1,
            58.0,
            100.0,
            61.0,
            150.0,
            256.0,
        ),
        (
            "ICCAD2016",
            "Stratix-V GXA7",
            TechNode::N28,
            134.1,
            20.1,
            81.0,
            100.0,
            70.0,
            150.0,
            256.0,
        ),
        (
            "FPL2016",
            "Zynq XC7Z045",
            TechNode::N28,
            161.9,
            9.4,
            83.0,
            88.0,
            87.0,
            150.0,
            900.0,
        ),
        (
            "ISCA2017",
            "Arria-10 GX1150",
            TechNode::N20,
            360.4,
            35.0,
            52.0,
            49.0,
            61.0,
            240.0,
            1518.0,
        ),
        (
            "ISCA2017*",
            "Arria-10 GX1150",
            TechNode::N20,
            460.5,
            37.0,
            55.0,
            60.0,
            66.0,
            250.0,
            1518.0,
        ),
        (
            "ISCA2017**",
            "Arria-10 GX1150",
            TechNode::N20,
            619.0,
            41.0,
            58.0,
            70.0,
            70.0,
            270.0,
            1518.0,
        ),
        (
            "FPGA2017",
            "KU060",
            TechNode::N20,
            365.0,
            25.0,
            60.0,
            55.0,
            58.0,
            200.0,
            2760.0,
        ),
        (
            "FPGA2017*",
            "Arria-10 GX1150",
            TechNode::N20,
            1382.0,
            44.3,
            58.0,
            97.0,
            61.0,
            303.0,
            1518.0,
        ),
        (
            "FPGA2017**",
            "Arria-10 GX1150",
            TechNode::N20,
            1020.0,
            40.0,
            62.0,
            85.0,
            72.0,
            280.0,
            1518.0,
        ),
    ];
    build(CnnModel::AlexNet, &rows)
}

/// The VGG-16 implementations (9 rows, Fig. 8 right column).
pub fn vgg16_impls() -> Vec<FpgaImpl> {
    #[allow(clippy::type_complexity, reason = "literal datasheet rows")]
    let rows: [(&str, &str, TechNode, f64, f64, f64, f64, f64, f64, f64); 9] = [
        (
            "FPGA2016",
            "Zynq XC7Z045",
            TechNode::N28,
            137.0,
            9.6,
            84.0,
            89.0,
            87.0,
            150.0,
            900.0,
        ),
        (
            "FPGA2016*",
            "Stratix-V GSD8",
            TechNode::N28,
            117.8,
            25.8,
            52.0,
            40.0,
            56.0,
            120.0,
            1963.0,
        ),
        (
            "FPGA2016**",
            "Virtex-7 VX690T",
            TechNode::N28,
            202.4,
            26.0,
            55.0,
            78.0,
            67.0,
            150.0,
            3600.0,
        ),
        (
            "ICCAD2016",
            "Arria-10 GX1150",
            TechNode::N20,
            645.3,
            50.0,
            38.0,
            100.0,
            52.0,
            200.0,
            1518.0,
        ),
        (
            "FCCM2017",
            "Virtex-7 VX690T",
            TechNode::N28,
            354.0,
            26.0,
            56.0,
            90.0,
            70.0,
            200.0,
            3600.0,
        ),
        (
            "FPGA2017",
            "Arria-10 GX1150",
            TechNode::N20,
            866.0,
            41.7,
            60.0,
            65.0,
            62.0,
            240.0,
            1518.0,
        ),
        (
            "FPGA2017*",
            "KU060",
            TechNode::N20,
            310.0,
            26.0,
            58.0,
            53.0,
            60.0,
            200.0,
            2760.0,
        ),
        (
            "FPGA2018",
            "Virtex-7 VX690T",
            TechNode::N28,
            570.0,
            35.0,
            70.0,
            101.0,
            83.0,
            200.0,
            3600.0,
        ),
        (
            "FPGA2018*",
            "Arria-10 GX1150",
            TechNode::N20,
            1171.0,
            50.0,
            65.0,
            100.0,
            76.0,
            242.0,
            1518.0,
        ),
    ];
    build(CnnModel::Vgg16, &rows)
}

#[allow(clippy::type_complexity, reason = "literal datasheet rows")]
fn build(
    model: CnnModel,
    rows: &[(
        &'static str,
        &'static str,
        TechNode,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
        f64,
    )],
) -> Vec<FpgaImpl> {
    rows.iter()
        .map(
            |&(label, device, node, gops, w, lut, dsp, bram, mhz, dsps)| FpgaImpl {
                label,
                model,
                device,
                node,
                gops,
                power_w: w,
                lut_pct: lut,
                dsp_pct: dsp.min(100.0),
                bram_pct: bram,
                freq_mhz: mhz,
                device_dsps: dsps,
            },
        )
        .collect()
}

/// All implementations for a model.
pub fn impls(model: CnnModel) -> Vec<FpgaImpl> {
    match model {
        CnnModel::AlexNet => alexnet_impls(),
        CnnModel::Vgg16 => vgg16_impls(),
    }
}

/// The Fig. 8a series: throughput gains and CSR, normalized to the
/// weakest implementation of the model.
///
/// ```
/// use accelwall_studies::fpga::{performance_series, CnnModel};
/// let alexnet = performance_series(CnnModel::AlexNet)?;
/// // An emerging domain: CSR still climbs with algorithmic work.
/// assert!(alexnet.peak_csr() > 2.5);
/// # Ok::<(), accelwall_studies::StudyError>(())
/// ```
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn performance_series(model: CnnModel) -> Result<CsrSeries> {
    let mut rows = impls(model);
    rows.sort_by(|a, b| a.gops.total_cmp(&b.gops));
    Ok(CsrSeries::new(scan_family(
        rows,
        |r| r.gops,
        FpgaImpl::physical_budget,
    ))?)
}

/// Scans one model's (pre-sorted) implementations across the
/// `accelwall-par` pool: each row's reported gain and physical potential
/// against the weakest (first) implementation. Rows land at their index,
/// so the series order matches the serial loop.
fn scan_family(
    rows: Vec<FpgaImpl>,
    reported: fn(&FpgaImpl) -> f64,
    physical: fn(&FpgaImpl) -> f64,
) -> Vec<(&'static str, f64, f64)> {
    accelwall_par::par_map(rows.len(), move |i| {
        let (r, base) = (&rows[i], &rows[0]);
        (
            r.label,
            reported(r) / reported(base),
            physical(r) / physical(base),
        )
    })
}

/// The Fig. 8c series: energy-efficiency gains and CSR. The physical
/// denominator scales the engaged budget by the node's energy advantage.
///
/// # Errors
///
/// Propagates CSR validation errors (impossible on the embedded dataset).
pub fn efficiency_series(model: CnnModel) -> Result<CsrSeries> {
    let mut rows = impls(model);
    rows.sort_by(|a, b| a.gops_per_joule().total_cmp(&b.gops_per_joule()));
    Ok(CsrSeries::new(scan_family(
        rows,
        FpgaImpl::gops_per_joule,
        |r| r.physical_budget() / (r.power_w * r.node.dynamic_energy_rel()),
    ))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_sizes_match_fig8() {
        assert_eq!(alexnet_impls().len(), 11);
        assert_eq!(vgg16_impls().len(), 9);
    }

    #[test]
    fn alexnet_performance_improved_about_24x() {
        // Paper: "AlexNet performance ... improved by about 24x."
        let s = performance_series(CnnModel::AlexNet).unwrap();
        assert!(
            (18.0..30.0).contains(&s.peak_reported()),
            "AlexNet perf gain {:.1}",
            s.peak_reported()
        );
    }

    #[test]
    fn vgg_performance_improved_about_9x() {
        // Paper: "VGG-16 improved by about 9x."
        let s = performance_series(CnnModel::Vgg16).unwrap();
        assert!(
            (7.0..13.0).contains(&s.peak_reported()),
            "VGG perf gain {:.1}",
            s.peak_reported()
        );
    }

    #[test]
    fn efficiency_gains_14x_and_7x() {
        // Paper: AlexNet EE ~14x, VGG-16 EE ~7x.
        let alex = efficiency_series(CnnModel::AlexNet).unwrap();
        assert!(
            (8.0..18.0).contains(&alex.peak_reported()),
            "AlexNet EE {:.1}",
            alex.peak_reported()
        );
        let vgg = efficiency_series(CnnModel::Vgg16).unwrap();
        assert!(
            (4.0..10.0).contains(&vgg.peak_reported()),
            "VGG EE {:.1}",
            vgg.peak_reported()
        );
    }

    #[test]
    fn csr_improves_in_the_emerging_domain() {
        // Paper: "CSR improved by up to 6x in both models" — the
        // counter-phenomenon to the mature domains.
        for model in [CnnModel::AlexNet, CnnModel::Vgg16] {
            let s = performance_series(model).unwrap();
            assert!(
                s.peak_csr() > 2.5,
                "{model}: peak CSR {:.1} should show algorithmic gains",
                s.peak_csr()
            );
        }
    }

    #[test]
    fn best_chip_csr_trails_peak_csr() {
        // Paper: "for the best performing FPGAs in each model CSR did not
        // improve while absolute performance increased" — the top chip
        // wins on budget, not algorithm.
        for model in [CnnModel::AlexNet, CnnModel::Vgg16] {
            let s = performance_series(model).unwrap();
            assert!(
                s.csr_of_best_chip() < s.peak_csr(),
                "{model}: best-chip CSR {:.1} vs peak {:.1}",
                s.csr_of_best_chip(),
                s.peak_csr()
            );
        }
    }

    #[test]
    fn winograd_row_has_the_algorithmic_edge() {
        // FPGA2017* is the Winograd-transform implementation [47]: its
        // GOPS per engaged DSP-GHz should beat the plain GEMM designs.
        let alex = alexnet_impls();
        let winograd = alex.iter().find(|r| r.label == "FPGA2017*").unwrap();
        let plain = alex.iter().find(|r| r.label == "FPGA2016").unwrap();
        let density = |r: &FpgaImpl| r.gops / r.physical_budget();
        assert!(density(winograd) > 3.0 * density(plain));
    }

    #[test]
    fn vgg_stresses_resources_harder() {
        // Paper: VGG's 3x model size and 20x ops/image stress FPGA
        // resources; its implementations run at >= the BRAM pressure of
        // AlexNet's on average.
        let avg =
            |v: &[FpgaImpl], f: fn(&FpgaImpl) -> f64| v.iter().map(f).sum::<f64>() / v.len() as f64;
        let alex = alexnet_impls();
        let vgg = vgg16_impls();
        assert!(avg(&vgg, |r| r.bram_pct) >= avg(&alex, |r| r.bram_pct) - 5.0);
    }

    #[test]
    fn only_28_and_20_nm_devices() {
        for r in alexnet_impls().iter().chain(vgg16_impls().iter()) {
            assert!(
                r.node == TechNode::N28 || r.node == TechNode::N20,
                "{}: {}",
                r.label,
                r.node
            );
        }
    }
}
