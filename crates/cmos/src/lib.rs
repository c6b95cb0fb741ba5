//! CMOS device-scaling model for the Accelerator Wall reproduction.
//!
//! The paper (Section III, Fig. 3a) models how transistor-level properties —
//! supply voltage, gate capacitance, switching speed, dynamic power, and
//! leakage — change across process nodes, using the Stillmaker & Baas
//! scaling equations for 180 nm → 7 nm and the IRDS 2017 projection for
//! 5 nm. This crate embeds that model as a per-node parameter table plus the
//! derived quantities every other crate consumes:
//!
//! * **frequency potential** — how much faster a gate switches than at the
//!   45 nm reference,
//! * **dynamic energy per operation** — the `C · VDD²` product, relative,
//! * **dynamic power at fixed frequency** — same product (power = E · f),
//! * **leakage per transistor** — relative static power contribution,
//! * **density** — transistors per unit area, `∝ 1/node²`.
//!
//! All relative quantities are normalized to [`TechNode::N45`], the paper's
//! reference node for the potential model.
//!
//! # Example
//!
//! ```
//! use accelwall_cmos::TechNode;
//!
//! let n5 = TechNode::N5;
//! // A 5 nm gate switches ~2.3x faster than a 45 nm gate...
//! assert!(n5.frequency_potential() > 2.0);
//! // ...and spends ~21x less energy per operation.
//! assert!(1.0 / n5.dynamic_energy_rel() > 20.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod scaling;

pub use scaling::{fig3a_series, ScalingMetric};

use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// A CMOS process node covered by the model.
///
/// Spans every node that appears in the paper's case studies (180 nm video
/// decoders through 16 nm GPUs and Bitcoin ASICs) and its projections
/// (down to the IRDS-projected 5 nm "final" node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(
    missing_docs,
    reason = "variants are self-describing: N<feature size in nm>"
)]
pub enum TechNode {
    N180,
    N130,
    N110,
    N90,
    N65,
    N55,
    N45,
    N40,
    N32,
    N28,
    N22,
    N20,
    N16,
    N14,
    N12,
    N10,
    N7,
    N5,
}

/// Device-level parameters of a node, relative to the 45 nm reference
/// (except `vdd_volts`, which is absolute).
///
/// The values are calibrated to the published Stillmaker & Baas curves and
/// the IRDS 2017 5 nm projection, i.e. the same sources as the paper's
/// Fig. 3a.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Feature size in nanometers.
    pub nanometers: f64,
    /// Nominal supply voltage in volts.
    pub vdd_volts: f64,
    /// Gate capacitance relative to 45 nm (scales with feature size).
    pub capacitance_rel: f64,
    /// Gate delay relative to 45 nm (smaller is faster; improvement slows
    /// at advanced nodes).
    pub gate_delay_rel: f64,
    /// Sub-threshold + gate leakage per transistor relative to 45 nm.
    /// Declines far slower than dynamic energy — the root of the
    /// dark-silicon power wall the paper's TDP model captures.
    pub leakage_per_transistor_rel: f64,
}

/// Reference VDD at the 45 nm node, used to normalize `C · V²` products.
const VDD_45NM: f64 = 1.0;

/// One row per node: (node, nm, VDD, C_rel, delay_rel, leak_rel).
const TABLE: &[(TechNode, NodeParams)] = &[
    (TechNode::N180, np(180.0, 1.80, 4.000, 4.17, 3.00)),
    (TechNode::N130, np(130.0, 1.30, 2.889, 2.86, 2.40)),
    (TechNode::N110, np(110.0, 1.20, 2.444, 2.44, 2.10)),
    (TechNode::N90, np(90.0, 1.10, 2.000, 1.96, 1.80)),
    (TechNode::N65, np(65.0, 1.10, 1.444, 1.41, 1.40)),
    (TechNode::N55, np(55.0, 1.00, 1.222, 1.22, 1.20)),
    (TechNode::N45, np(45.0, 1.00, 1.000, 1.00, 1.00)),
    (TechNode::N40, np(40.0, 0.99, 0.889, 0.93, 0.93)),
    (TechNode::N32, np(32.0, 0.97, 0.711, 0.83, 0.82)),
    (TechNode::N28, np(28.0, 0.95, 0.622, 0.77, 0.75)),
    (TechNode::N22, np(22.0, 0.90, 0.489, 0.69, 0.66)),
    (TechNode::N20, np(20.0, 0.88, 0.444, 0.66, 0.62)),
    (TechNode::N16, np(16.0, 0.85, 0.356, 0.60, 0.55)),
    (TechNode::N14, np(14.0, 0.82, 0.311, 0.57, 0.51)),
    (TechNode::N12, np(12.0, 0.80, 0.267, 0.54, 0.47)),
    (TechNode::N10, np(10.0, 0.75, 0.222, 0.51, 0.42)),
    (TechNode::N7, np(7.0, 0.70, 0.156, 0.47, 0.36)),
    (TechNode::N5, np(5.0, 0.65, 0.111, 0.44, 0.30)),
];

const fn np(nm: f64, vdd: f64, cap: f64, delay: f64, leak: f64) -> NodeParams {
    NodeParams {
        nanometers: nm,
        vdd_volts: vdd,
        capacitance_rel: cap,
        gate_delay_rel: delay,
        leakage_per_transistor_rel: leak,
    }
}

impl TechNode {
    /// All nodes in the model, from oldest (180 nm) to newest (5 nm).
    pub fn all() -> &'static [TechNode] {
        const ALL: [TechNode; 18] = [
            TechNode::N180,
            TechNode::N130,
            TechNode::N110,
            TechNode::N90,
            TechNode::N65,
            TechNode::N55,
            TechNode::N45,
            TechNode::N40,
            TechNode::N32,
            TechNode::N28,
            TechNode::N22,
            TechNode::N20,
            TechNode::N16,
            TechNode::N14,
            TechNode::N12,
            TechNode::N10,
            TechNode::N7,
            TechNode::N5,
        ];
        &ALL
    }

    /// The node subset swept by the paper's design-space exploration
    /// (Table III): 45, 32, 22, 14, 10, 7, 5 nm.
    pub fn sweep_nodes() -> &'static [TechNode] {
        const SWEEP: [TechNode; 7] = [
            TechNode::N45,
            TechNode::N32,
            TechNode::N22,
            TechNode::N14,
            TechNode::N10,
            TechNode::N7,
            TechNode::N5,
        ];
        &SWEEP
    }

    /// Looks a node up by feature size in nanometers.
    ///
    /// ```
    /// use accelwall_cmos::TechNode;
    /// assert_eq!(TechNode::from_nanometers(28.0), Some(TechNode::N28));
    /// assert_eq!(TechNode::from_nanometers(6.0), None);
    /// ```
    pub fn from_nanometers(nm: f64) -> Option<TechNode> {
        TABLE
            .iter()
            .find(|(_, p)| p.nanometers == nm)
            .map(|(n, _)| *n)
    }

    /// Feature size in nanometers.
    pub fn nanometers(self) -> f64 {
        self.params().nanometers
    }

    /// Device parameters of this node.
    pub fn params(self) -> &'static NodeParams {
        // TABLE holds one row per variant in declaration order, so the
        // discriminant is the row (pinned by
        // `table_rows_follow_declaration_order`).
        &TABLE[self as usize].1
    }

    /// Switching-speed potential relative to 45 nm (reciprocal gate delay).
    pub fn frequency_potential(self) -> f64 {
        1.0 / self.params().gate_delay_rel
    }

    /// Dynamic energy per operation relative to 45 nm: the `C · VDD²`
    /// product, normalized.
    pub fn dynamic_energy_rel(self) -> f64 {
        let p = self.params();
        p.capacitance_rel * (p.vdd_volts / VDD_45NM).powi(2)
    }

    /// Dynamic power at a fixed clock frequency relative to 45 nm.
    ///
    /// Power is energy × frequency, so at fixed frequency this equals
    /// [`dynamic_energy_rel`](Self::dynamic_energy_rel).
    pub fn dynamic_power_rel(self) -> f64 {
        self.dynamic_energy_rel()
    }

    /// Leakage power per transistor relative to 45 nm.
    pub fn leakage_rel(self) -> f64 {
        self.params().leakage_per_transistor_rel
    }

    /// Transistor density relative to 45 nm (`∝ 1/node²`).
    ///
    /// ```
    /// use accelwall_cmos::TechNode;
    /// assert!((TechNode::N5.density_rel() - 81.0).abs() < 1e-9);
    /// ```
    pub fn density_rel(self) -> f64 {
        let nm = self.nanometers();
        (45.0 / nm) * (45.0 / nm)
    }

    /// The paper's transistor-density factor `D = A / N²` in mm²/nm² for a
    /// die of `area_mm2` fabricated at this node (x-axis of Fig. 3b).
    pub fn density_factor(self, area_mm2: f64) -> f64 {
        area_mm2 / (self.nanometers() * self.nanometers())
    }

    /// "Transistor speed × density" potential relative to 45 nm — the
    /// headline physical-capability scalar the paper attributes CMOS-driven
    /// gains to for area-limited chips.
    pub fn transistor_potential(self) -> f64 {
        self.density_rel() * self.frequency_potential()
    }

    /// Year the node reached volume production (7 nm and 5 nm are the
    /// roadmap projections the paper worked with; 5 nm was "not
    /// commercially available yet" at publication).
    pub fn intro_year(self) -> u32 {
        match self {
            TechNode::N180 => 1999,
            TechNode::N130 => 2001,
            TechNode::N110 => 2003,
            TechNode::N90 => 2004,
            TechNode::N65 => 2006,
            TechNode::N55 => 2008,
            TechNode::N45 => 2008,
            TechNode::N40 => 2009,
            TechNode::N32 => 2010,
            TechNode::N28 => 2011,
            TechNode::N22 => 2012,
            TechNode::N20 => 2014,
            TechNode::N16 => 2015,
            TechNode::N14 => 2015,
            TechNode::N12 => 2017,
            TechNode::N10 => 2017,
            TechNode::N7 => 2019,
            TechNode::N5 => 2021,
        }
    }

    /// The newest node in volume production by `year`, if any node existed.
    pub fn newest_by_year(year: u32) -> Option<TechNode> {
        TechNode::all()
            .iter()
            .copied()
            .rev()
            .find(|n| n.intro_year() <= year)
    }
}

impl fmt::Display for TechNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.nanometers() as u32)
    }
}

/// Error returned when parsing a [`TechNode`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTechNodeError {
    input: String,
}

impl fmt::Display for ParseTechNodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown CMOS node {:?}; expected e.g. \"28nm\"",
            self.input
        )
    }
}

impl Error for ParseTechNodeError {}

impl FromStr for TechNode {
    type Err = ParseTechNodeError;

    /// Parses strings like `"28nm"`, `"28 nm"`, or `"28"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim().trim_end_matches("nm").trim();
        trimmed
            .parse::<f64>()
            .ok()
            .and_then(TechNode::from_nanometers)
            .ok_or_else(|| ParseTechNodeError {
                input: s.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_node_is_unity() {
        let n = TechNode::N45;
        assert_eq!(n.frequency_potential(), 1.0);
        assert_eq!(n.dynamic_energy_rel(), 1.0);
        assert_eq!(n.leakage_rel(), 1.0);
        assert_eq!(n.density_rel(), 1.0);
    }

    #[test]
    fn table_rows_follow_declaration_order() {
        assert_eq!(TABLE.len(), TechNode::all().len());
        for (row, (&node, (table_node, _))) in TechNode::all().iter().zip(TABLE).enumerate() {
            assert_eq!((node as usize, node), (row, *table_node));
        }
    }

    #[test]
    fn all_nodes_ordered_oldest_to_newest() {
        let nodes = TechNode::all();
        assert_eq!(nodes.len(), 18);
        assert!(nodes
            .windows(2)
            .all(|w| w[0].nanometers() > w[1].nanometers()));
    }

    #[test]
    fn frequency_potential_monotonically_improves() {
        let nodes = TechNode::all();
        assert!(nodes
            .windows(2)
            .all(|w| w[0].frequency_potential() < w[1].frequency_potential()));
    }

    #[test]
    fn dynamic_energy_monotonically_declines() {
        let nodes = TechNode::all();
        assert!(nodes
            .windows(2)
            .all(|w| w[0].dynamic_energy_rel() > w[1].dynamic_energy_rel()));
    }

    #[test]
    fn leakage_declines_slower_than_dynamic_energy() {
        // The dark-silicon premise: static power scales worse than dynamic.
        for &n in TechNode::all() {
            if n.nanometers() < 45.0 {
                assert!(
                    n.leakage_rel() > n.dynamic_energy_rel(),
                    "{n}: leakage should decline slower than dynamic energy"
                );
            }
        }
    }

    #[test]
    fn five_nm_headline_ratios() {
        // 45 -> 5 nm: ~21x energy efficiency per op, ~2.3x speed, 81x density.
        let n5 = TechNode::N5;
        let ee = 1.0 / n5.dynamic_energy_rel();
        assert!((20.0..23.0).contains(&ee), "energy ratio {ee}");
        assert!((2.0..2.5).contains(&n5.frequency_potential()));
        assert!((n5.density_rel() - 81.0).abs() < 1e-9);
    }

    #[test]
    fn density_factor_matches_paper_example() {
        // Paper: large 5 nm chips reach D <= 30 and ~100G transistors.
        // An 800 mm2 die at 5 nm has D = 800 / 25 = 32 mm2/nm2.
        let d = TechNode::N5.density_factor(800.0);
        assert!((d - 32.0).abs() < 1e-9);
    }

    #[test]
    fn from_nanometers_roundtrips() {
        for &n in TechNode::all() {
            assert_eq!(TechNode::from_nanometers(n.nanometers()), Some(n));
        }
    }

    #[test]
    fn parse_from_str_variants() {
        assert_eq!("28nm".parse::<TechNode>().unwrap(), TechNode::N28);
        assert_eq!("28 nm".parse::<TechNode>().unwrap(), TechNode::N28);
        assert_eq!("28".parse::<TechNode>().unwrap(), TechNode::N28);
        assert!("6nm".parse::<TechNode>().is_err());
        assert!("abc".parse::<TechNode>().is_err());
    }

    #[test]
    fn display_formats_with_suffix() {
        assert_eq!(TechNode::N7.to_string(), "7nm");
        assert_eq!(TechNode::N180.to_string(), "180nm");
    }

    #[test]
    fn vdd_declines_with_scaling() {
        let nodes = TechNode::all();
        assert!(nodes
            .windows(2)
            .all(|w| w[0].params().vdd_volts >= w[1].params().vdd_volts));
    }

    #[test]
    fn sweep_nodes_are_table_iii() {
        let nm: Vec<f64> = TechNode::sweep_nodes()
            .iter()
            .map(|n| n.nanometers())
            .collect();
        assert_eq!(nm, vec![45.0, 32.0, 22.0, 14.0, 10.0, 7.0, 5.0]);
    }

    #[test]
    fn intro_years_are_monotone() {
        let nodes = TechNode::all();
        assert!(nodes
            .windows(2)
            .all(|w| w[0].intro_year() <= w[1].intro_year()));
        assert_eq!(TechNode::N5.intro_year(), 2021);
    }

    #[test]
    fn newest_by_year_tracks_the_roadmap() {
        assert_eq!(TechNode::newest_by_year(1998), None);
        assert_eq!(TechNode::newest_by_year(2005), Some(TechNode::N90));
        assert_eq!(TechNode::newest_by_year(2013), Some(TechNode::N22));
        assert_eq!(TechNode::newest_by_year(2030), Some(TechNode::N5));
    }

    #[test]
    fn transistor_potential_compounds_density_and_speed() {
        let n5 = TechNode::N5;
        let expected = n5.density_rel() * n5.frequency_potential();
        assert_eq!(n5.transistor_potential(), expected);
        assert!(
            expected > 150.0,
            "5nm potential should exceed 150x: {expected}"
        );
    }
}
