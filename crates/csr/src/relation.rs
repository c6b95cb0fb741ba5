//! The architecture relation matrix of Eqs. 3 and 4.
//!
//! The GPU study (Figs. 6–7) compares nine architectures whose benchmark
//! coverage only partially overlaps. Eq. 3 sets the relative gain of a pair
//! with at least five shared applications to the geometric mean of the
//! per-application gain ratios; Eq. 4 connects the remaining pairs
//! transitively through intermediary architectures, iterating until the
//! matrix stops growing.

use crate::{CsrError, Result};
use accelwall_stats::geomean;
use std::collections::BTreeMap;

/// Per-architecture, per-application gain observations.
///
/// Gains may be in any consistent unit (frames/s, frames/J, ...) as long as
/// a given application's numbers are comparable across architectures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArchObservations {
    // BTreeMaps keep iteration deterministic.
    gains: BTreeMap<String, BTreeMap<String, f64>>,
}

impl ArchObservations {
    /// Creates an empty observation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records architecture `arch` achieving `gain` on application `app`.
    /// A repeated (arch, app) pair overwrites the earlier value.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError::InvalidGain`] for non-positive or non-finite
    /// gains.
    pub fn add(&mut self, arch: &str, app: &str, gain: f64) -> Result<()> {
        if !(gain > 0.0 && gain.is_finite()) {
            return Err(CsrError::InvalidGain {
                what: "observation",
                value: gain,
            });
        }
        self.gains
            .entry(arch.to_string())
            .or_default()
            .insert(app.to_string(), gain);
        Ok(())
    }

    /// Architectures present, sorted.
    pub fn architectures(&self) -> Vec<&str> {
        self.gains.keys().map(String::as_str).collect()
    }

    /// Applications shared by two architectures.
    fn shared_apps(&self, x: &str, y: &str) -> Vec<&str> {
        match (self.gains.get(x), self.gains.get(y)) {
            (Some(gx), Some(gy)) => gx
                .keys()
                .filter(|app| gy.contains_key(*app))
                .map(String::as_str)
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// The completed pairwise relation matrix: `gain(x → y)` is how much better
/// architecture `x` is than `y`, geometric-mean sense.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationMatrix {
    archs: Vec<String>,
    // Row-major n x n; None = unrelated even after transitive closure.
    cells: Vec<Option<f64>>,
}

impl RelationMatrix {
    /// Builds the matrix per Eqs. 3–4.
    ///
    /// Pairs sharing at least `min_shared_apps` applications get a direct
    /// Eq. 3 geometric-mean gain (the paper uses 5); remaining pairs are
    /// filled by Eq. 4's transitive geometric means, iterating to a
    /// fixpoint. Direct relations are never overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError::EmptyObservations`] when no architecture has
    /// observations.
    pub fn build(obs: &ArchObservations, min_shared_apps: usize) -> Result<Self> {
        let archs: Vec<String> = obs
            .architectures()
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        if archs.is_empty() {
            return Err(CsrError::EmptyObservations);
        }
        let n = archs.len();
        let mut cells: Vec<Option<f64>> = vec![None; n * n];
        let idx = |i: usize, j: usize| i * n + j;

        // Diagonal.
        for i in 0..n {
            cells[idx(i, i)] = Some(1.0);
        }

        // Eq. 3: direct pairs.
        for i in 0..n {
            for j in (i + 1)..n {
                let shared = obs.shared_apps(&archs[i], &archs[j]);
                if shared.len() >= min_shared_apps {
                    let ratios: Vec<f64> = shared
                        .iter()
                        .map(|app| obs.gains[&archs[i]][*app] / obs.gains[&archs[j]][*app])
                        .collect();
                    #[expect(
                        clippy::expect_used,
                        reason = "shared is non-empty (len >= min_shared_apps) and gains are validated positive on insert"
                    )]
                    let g = geomean(&ratios).expect("ratios of validated gains are positive");
                    cells[idx(i, j)] = Some(g);
                    cells[idx(j, i)] = Some(1.0 / g);
                }
            }
        }

        // Eq. 4: transitive closure by geometric means over intermediaries,
        // iterated until no new pair is added (as the paper describes).
        loop {
            let mut added = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i == j || cells[idx(i, j)].is_some() {
                        continue;
                    }
                    let through: Vec<f64> = (0..n)
                        .filter(|&k| k != i && k != j)
                        .filter_map(|k| match (cells[idx(i, k)], cells[idx(k, j)]) {
                            (Some(a), Some(b)) => Some(a * b),
                            _ => None,
                        })
                        .collect();
                    if !through.is_empty() {
                        #[expect(
                            clippy::expect_used,
                            reason = "through is checked non-empty and products of positive cells stay positive"
                        )]
                        let g = geomean(&through).expect("positive products");
                        added.push((i, j, g));
                    }
                }
            }
            if added.is_empty() {
                break;
            }
            for (i, j, g) in added {
                // A later entry for (j, i) from the same round may disagree
                // slightly with 1/g on inconsistent data; keep the first.
                if cells[idx(i, j)].is_none() {
                    cells[idx(i, j)] = Some(g);
                }
                if cells[idx(j, i)].is_none() {
                    cells[idx(j, i)] = Some(1.0 / g);
                }
            }
        }

        Ok(RelationMatrix { archs, cells })
    }

    /// Architectures covered by the matrix, sorted.
    pub fn architectures(&self) -> &[String] {
        &self.archs
    }

    /// The relative gain `x → y`, if the architectures are connected.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError::UnknownArchitecture`] for names absent from the
    /// observations; `Ok(None)` for known-but-disconnected pairs.
    pub fn gain(&self, x: &str, y: &str) -> Result<Option<f64>> {
        let i = self.index_of(x)?;
        let j = self.index_of(y)?;
        Ok(self.cells[i * self.archs.len() + j])
    }

    /// Every architecture's gain relative to `baseline`, sorted by name.
    /// Disconnected architectures are omitted.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError::UnknownArchitecture`] if `baseline` is unknown.
    pub fn relative_to(&self, baseline: &str) -> Result<Vec<(String, f64)>> {
        let j = self.index_of(baseline)?;
        Ok(self
            .archs
            .iter()
            .enumerate()
            .filter_map(|(i, name)| self.cells[i * self.archs.len() + j].map(|g| (name.clone(), g)))
            .collect())
    }

    fn index_of(&self, name: &str) -> Result<usize> {
        self.archs
            .iter()
            .position(|a| a == name)
            .ok_or_else(|| CsrError::UnknownArchitecture(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observations where gain(arch, app) = s_arch * t_app: every pairwise
    /// relation must equal the ratio of the arch scales, regardless of
    /// which apps overlap.
    fn consistent_obs(scales: &[(&str, f64)], apps: &[(&str, f64)]) -> ArchObservations {
        let mut obs = ArchObservations::new();
        for &(arch, s) in scales {
            for &(app, t) in apps {
                obs.add(arch, app, s * t).unwrap();
            }
        }
        obs
    }

    #[test]
    fn direct_pairs_recover_scale_ratios() {
        let obs = consistent_obs(
            &[("tesla", 1.0), ("fermi", 2.5), ("pascal", 8.0)],
            &[("a", 1.0), ("b", 3.0), ("c", 0.5), ("d", 7.0), ("e", 2.0)],
        );
        let m = RelationMatrix::build(&obs, 5).unwrap();
        let g = m.gain("pascal", "tesla").unwrap().unwrap();
        assert!((g - 8.0).abs() < 1e-9);
        let g = m.gain("fermi", "pascal").unwrap().unwrap();
        assert!((g - 2.5 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_symmetry_holds() {
        let obs = consistent_obs(
            &[("x", 1.0), ("y", 3.0)],
            &[("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0), ("e", 5.0)],
        );
        let m = RelationMatrix::build(&obs, 5).unwrap();
        let xy = m.gain("x", "y").unwrap().unwrap();
        let yx = m.gain("y", "x").unwrap().unwrap();
        assert!((xy * yx - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transitive_closure_fills_disjoint_pairs() {
        // x and z share no apps; both share 5 apps with y.
        let mut obs = ArchObservations::new();
        let apps_xy = ["a", "b", "c", "d", "e"];
        let apps_yz = ["f", "g", "h", "i", "j"];
        for app in apps_xy {
            obs.add("x", app, 2.0).unwrap();
            obs.add("y", app, 1.0).unwrap();
        }
        for app in apps_yz {
            obs.add("y", app, 1.0).unwrap();
            obs.add("z", app, 4.0).unwrap();
        }
        let m = RelationMatrix::build(&obs, 5).unwrap();
        // Direct: x/y = 2, y/z = 1/4. Transitive: x/z = 1/2.
        let g = m.gain("x", "z").unwrap().unwrap();
        assert!((g - 0.5).abs() < 1e-9, "x over z = {g}");
    }

    #[test]
    fn min_shared_apps_gate() {
        // Only 3 shared apps: no direct relation, no intermediary either.
        let obs = consistent_obs(
            &[("x", 1.0), ("y", 2.0)],
            &[("a", 1.0), ("b", 2.0), ("c", 3.0)],
        );
        let m = RelationMatrix::build(&obs, 5).unwrap();
        assert_eq!(m.gain("x", "y").unwrap(), None);
    }

    #[test]
    fn relative_to_baseline_lists_connected_archs() {
        let obs = consistent_obs(
            &[("tesla", 1.0), ("kepler", 4.0), ("pascal", 13.0)],
            &[("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0), ("e", 5.0)],
        );
        let m = RelationMatrix::build(&obs, 5).unwrap();
        let rel = m.relative_to("tesla").unwrap();
        assert_eq!(rel.len(), 3);
        let pascal = rel.iter().find(|(n, _)| n == "pascal").unwrap();
        assert!((pascal.1 - 13.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_architecture_errors() {
        let obs = consistent_obs(&[("x", 1.0)], &[("a", 1.0)]);
        let m = RelationMatrix::build(&obs, 1).unwrap();
        assert!(matches!(
            m.gain("x", "nope"),
            Err(CsrError::UnknownArchitecture(_))
        ));
        assert!(m.relative_to("nope").is_err());
    }

    #[test]
    fn empty_observations_error() {
        let obs = ArchObservations::new();
        assert_eq!(
            RelationMatrix::build(&obs, 5).unwrap_err(),
            CsrError::EmptyObservations
        );
    }

    #[test]
    fn diagonal_is_unity() {
        let obs = consistent_obs(&[("x", 3.0)], &[("a", 1.0)]);
        let m = RelationMatrix::build(&obs, 1).unwrap();
        assert_eq!(m.gain("x", "x").unwrap(), Some(1.0));
    }

    #[test]
    fn rejects_invalid_observation() {
        let mut obs = ArchObservations::new();
        assert!(obs.add("x", "a", 0.0).is_err());
        assert!(obs.add("x", "a", f64::NAN).is_err());
    }

    #[test]
    fn chain_of_three_hops_connects_ends() {
        // a - b - c - d chain, disjoint app sets pairwise except neighbors.
        let mut obs = ArchObservations::new();
        let add_pair = |obs: &mut ArchObservations, x: &str, y: &str, ratio: f64, tag: &str| {
            for k in 0..5 {
                let app = format!("{tag}{k}");
                obs.add(x, &app, ratio).unwrap();
                obs.add(y, &app, 1.0).unwrap();
            }
        };
        add_pair(&mut obs, "b", "a", 2.0, "ab");
        add_pair(&mut obs, "c", "b", 3.0, "bc");
        add_pair(&mut obs, "d", "c", 5.0, "cd");
        let m = RelationMatrix::build(&obs, 5).unwrap();
        let g = m.gain("d", "a").unwrap().unwrap();
        assert!((g - 30.0).abs() < 1e-6, "d over a = {g}");
    }
}
