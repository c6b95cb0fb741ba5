//! The physical-gains roadmap over calendar time.
//!
//! Section II argues that "future processing roadmaps and evaluation
//! methods will become specialization-driven." This module makes the
//! *physical* half of that roadmap concrete: for a fixed chip template
//! (die, clock, TDP), it walks the node introduction years and evaluates
//! the potential model at each year's best available node — producing the
//! historical exponential climb, the slowdown through the 2010s, and the
//! hard flatline after the final (5 nm) node arrives. Everything a domain
//! gains beyond this curve is, by Eq. 1, specialization.

use crate::model::{ChipSpec, PotentialModel};
use accelwall_cmos::TechNode;

/// One year of the physical roadmap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadmapPoint {
    /// Calendar year.
    pub year: u32,
    /// Best node in volume production that year.
    pub node: TechNode,
    /// Physical throughput gain vs. the template at its first node.
    pub throughput_gain: f64,
    /// Physical energy-efficiency gain vs. the template at its first node.
    pub efficiency_gain: f64,
}

/// Walks the roadmap for a chip template from `from_year` through
/// `to_year`, holding die, clock, and TDP fixed and upgrading the node as
/// the years pass. Years before the first node are skipped.
///
/// After the final node's introduction the curve is exactly flat — the
/// accelerator wall as a time series.
pub fn physical_roadmap(
    model: &PotentialModel,
    template: &ChipSpec,
    from_year: u32,
    to_year: u32,
) -> Vec<RoadmapPoint> {
    let mut points = Vec::new();
    let mut baseline: Option<ChipSpec> = None;
    for year in from_year..=to_year {
        let Some(node) = TechNode::newest_by_year(year) else {
            continue;
        };
        let spec = ChipSpec::new(
            node,
            template.die_area_mm2,
            template.freq_ghz,
            template.tdp_w,
        );
        let base = *baseline.get_or_insert(spec);
        points.push(RoadmapPoint {
            year,
            node,
            throughput_gain: model.throughput_gain(&spec, &base),
            efficiency_gain: model.efficiency_gain(&spec, &base),
        });
    }
    points
}

/// The year after which the physical roadmap is flat (the final node's
/// introduction): 2021 under the IRDS projection the paper used.
pub fn scaling_end_year() -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "TechNode::all() is a non-empty static table (asserted in cmos tests)"
    )]
    let year = TechNode::all()
        .iter()
        .map(|n| n.intro_year())
        .max()
        .expect("node table is non-empty");
    year
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template() -> ChipSpec {
        ChipSpec::new(TechNode::N45, 100.0, 1.0, 100.0)
    }

    #[test]
    fn roadmap_climbs_then_flatlines() {
        let model = PotentialModel::paper();
        let points = physical_roadmap(&model, &template(), 2000, 2030);
        assert!(!points.is_empty());
        // Monotone non-decreasing throughput.
        assert!(points
            .windows(2)
            .all(|w| w[0].throughput_gain <= w[1].throughput_gain + 1e-9));
        // Flat after scaling ends.
        let end = scaling_end_year();
        let wall_value = points
            .iter()
            .find(|p| p.year == end)
            .expect("range covers the end")
            .throughput_gain;
        for p in points.iter().filter(|p| p.year > end) {
            assert_eq!(p.throughput_gain, wall_value, "year {}", p.year);
        }
        // And it genuinely climbed before that.
        assert!(wall_value > 10.0, "total climb {wall_value}");
    }

    #[test]
    fn pre_silicon_years_are_skipped() {
        let model = PotentialModel::paper();
        let points = physical_roadmap(&model, &template(), 1990, 2002);
        assert!(points.iter().all(|p| p.year >= 1999));
    }

    #[test]
    fn scaling_ends_in_2021() {
        assert_eq!(scaling_end_year(), 2021);
    }

    #[test]
    fn decade_over_decade_slowdown() {
        // The 2010s deliver a smaller physical multiple than the 2000s —
        // the slowdown that motivates the whole paper.
        let model = PotentialModel::paper();
        let points = physical_roadmap(&model, &template(), 2000, 2020);
        let at = |y: u32| {
            points
                .iter()
                .find(|p| p.year == y)
                .expect("year in range")
                .throughput_gain
        };
        let first_decade = at(2010) / at(2000);
        let second_decade = at(2020) / at(2010);
        assert!(
            second_decade < first_decade,
            "2000s {first_decade:.1}x vs 2010s {second_decade:.1}x"
        );
    }

    #[test]
    fn efficiency_roadmap_also_climbs() {
        let model = PotentialModel::paper();
        let points = physical_roadmap(&model, &template(), 2000, 2025);
        let last = points.last().expect("non-empty");
        assert!(last.efficiency_gain > 5.0);
    }
}
