//! A curated table of well-known real chips.
//!
//! Independent spot checks for the synthetic corpus: these are famous,
//! publicly documented parts whose die size, transistor count, TDP, and
//! node are widely reported. The unit tests verify that the paper's
//! published Fig. 3b law predicts their transistor counts to within the
//! scatter visible in the figure (about a factor of three either way).

use crate::{ChipKind, ChipRecord};
use accelwall_cmos::TechNode;

/// Rows: (name, kind, node, die mm², transistors, TDP W, MHz, year).
#[allow(clippy::type_complexity, reason = "literal datasheet rows")]
const CURATED: &[(&str, ChipKind, TechNode, f64, f64, f64, f64, u32)] = &[
    // CPUs.
    (
        "Athlon 64 3400+",
        ChipKind::Cpu,
        TechNode::N130,
        193.0,
        105.9e6,
        89.0,
        2400.0,
        2003,
    ),
    (
        "Pentium 4 Northwood",
        ChipKind::Cpu,
        TechNode::N130,
        146.0,
        55.0e6,
        68.0,
        2800.0,
        2002,
    ),
    (
        "Core 2 Duo E6600",
        ChipKind::Cpu,
        TechNode::N65,
        143.0,
        291.0e6,
        65.0,
        2400.0,
        2006,
    ),
    (
        "Phenom X4 9950",
        ChipKind::Cpu,
        TechNode::N65,
        285.0,
        450.0e6,
        140.0,
        2600.0,
        2008,
    ),
    (
        "Core i7-920",
        ChipKind::Cpu,
        TechNode::N45,
        263.0,
        731.0e6,
        130.0,
        2660.0,
        2008,
    ),
    (
        "Core i7-2600K",
        ChipKind::Cpu,
        TechNode::N32,
        216.0,
        1.16e9,
        95.0,
        3400.0,
        2011,
    ),
    (
        "FX-8350",
        ChipKind::Cpu,
        TechNode::N32,
        315.0,
        1.2e9,
        125.0,
        4000.0,
        2012,
    ),
    (
        "Core i7-4770K",
        ChipKind::Cpu,
        TechNode::N22,
        177.0,
        1.4e9,
        84.0,
        3500.0,
        2013,
    ),
    (
        "Core i7-6700K",
        ChipKind::Cpu,
        TechNode::N14,
        122.0,
        1.75e9,
        91.0,
        4000.0,
        2015,
    ),
    (
        "Ryzen 7 1800X",
        ChipKind::Cpu,
        TechNode::N14,
        213.0,
        4.8e9,
        95.0,
        3600.0,
        2017,
    ),
    (
        "Xeon Platinum 8180",
        ChipKind::Cpu,
        TechNode::N14,
        694.0,
        8.0e9,
        205.0,
        2500.0,
        2017,
    ),
    // GPUs.
    (
        "GeForce 8800 GTX (G80)",
        ChipKind::Gpu,
        TechNode::N90,
        484.0,
        681.0e6,
        155.0,
        575.0,
        2006,
    ),
    (
        "GeForce GTX 280 (GT200)",
        ChipKind::Gpu,
        TechNode::N65,
        576.0,
        1.4e9,
        236.0,
        602.0,
        2008,
    ),
    (
        "Radeon HD 5870 (Cypress)",
        ChipKind::Gpu,
        TechNode::N40,
        334.0,
        2.15e9,
        188.0,
        850.0,
        2009,
    ),
    (
        "GeForce GTX 480 (GF100)",
        ChipKind::Gpu,
        TechNode::N40,
        529.0,
        3.0e9,
        250.0,
        700.0,
        2010,
    ),
    (
        "GeForce GTX 680 (GK104)",
        ChipKind::Gpu,
        TechNode::N28,
        294.0,
        3.54e9,
        195.0,
        1006.0,
        2012,
    ),
    (
        "Radeon R9 290X (Hawaii)",
        ChipKind::Gpu,
        TechNode::N28,
        438.0,
        6.2e9,
        290.0,
        1000.0,
        2013,
    ),
    (
        "GeForce GTX 980 (GM204)",
        ChipKind::Gpu,
        TechNode::N28,
        398.0,
        5.2e9,
        165.0,
        1126.0,
        2014,
    ),
    (
        "GeForce GTX Titan X (GM200)",
        ChipKind::Gpu,
        TechNode::N28,
        601.0,
        8.0e9,
        250.0,
        1000.0,
        2015,
    ),
    (
        "Radeon RX 480 (Polaris 10)",
        ChipKind::Gpu,
        TechNode::N14,
        232.0,
        5.7e9,
        150.0,
        1266.0,
        2016,
    ),
    (
        "GeForce GTX 1080 (GP104)",
        ChipKind::Gpu,
        TechNode::N16,
        314.0,
        7.2e9,
        180.0,
        1607.0,
        2016,
    ),
    (
        "Tesla P100 (GP100)",
        ChipKind::Gpu,
        TechNode::N16,
        610.0,
        15.3e9,
        300.0,
        1328.0,
        2016,
    ),
    (
        "Titan V (GV100)",
        ChipKind::Gpu,
        TechNode::N12,
        815.0,
        21.1e9,
        250.0,
        1200.0,
        2017,
    ),
];

/// Returns the curated real-chip table.
pub fn curated_chips() -> Vec<ChipRecord> {
    CURATED
        .iter()
        .map(|&(name, kind, node, area, tc, tdp, mhz, year)| ChipRecord {
            name: name.to_string(),
            kind,
            node,
            die_area_mm2: area,
            transistors: tc,
            tdp_w: tdp,
            freq_mhz: mhz,
            year,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{transistor_density_fit, PAPER_TC_LAW};

    #[test]
    fn table_is_nonempty_and_distinct() {
        let chips = curated_chips();
        assert!(chips.len() >= 20);
        let names: std::collections::HashSet<_> = chips.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), chips.len());
    }

    #[test]
    fn paper_law_predicts_curated_counts_within_scatter() {
        // Fig. 3b shows roughly half a decade of scatter around the fit;
        // accept a factor of 3.5 either way for individual chips.
        for chip in curated_chips() {
            let predicted = PAPER_TC_LAW.eval(chip.density_factor());
            let ratio = chip.transistors / predicted;
            assert!(
                (1.0 / 3.5..=3.5).contains(&ratio),
                "{}: predicted {predicted:.2e}, actual {:.2e} (ratio {ratio:.2})",
                chip.name,
                chip.transistors
            );
        }
    }

    #[test]
    fn fitting_real_chips_lands_near_paper_exponent() {
        // 23 famous chips are a coarse sample, but the fitted exponent
        // should land in the same sub-linear regime as the paper's 0.877.
        let fit = transistor_density_fit(&curated_chips()).unwrap();
        assert!(
            (0.7..1.05).contains(&fit.exponent),
            "exponent {}",
            fit.exponent
        );
    }

    #[test]
    fn newer_chips_have_more_transistors_per_area() {
        let chips = curated_chips();
        let old = chips.iter().find(|c| c.name.contains("Athlon")).unwrap();
        let new = chips.iter().find(|c| c.name.contains("Titan V")).unwrap();
        let old_density = old.transistors / old.die_area_mm2;
        let new_density = new.transistors / new.die_area_mm2;
        assert!(new_density / old_density > 20.0);
    }
}
