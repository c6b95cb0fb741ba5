//! Graph-processing kernels: BFS and SSP (Bellman-Ford relaxation).
//!
//! Both kernels run level-synchronous relaxation sweeps over a *fixed*
//! topology — the hardware analogue of an accelerator synthesized for one
//! graph structure (as in processing-in-memory BFS engines). Topologies are
//! generated deterministically from the node count so the DFG and the
//! reference kernel agree.

use accelwall_dfg::{Dfg, DfgBuilder, NodeId, Op};

/// Deterministic pseudo-random digraph. Node `v` always points at
/// `(v + 1) mod n` — a Hamiltonian ring guaranteeing strong connectivity —
/// plus `degree − 1` scattered chords `(v·(2k+3) + 7k + 2) mod n`
/// (self-loops and duplicates removed).
pub fn topology(n: usize, degree: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|v| {
            let mut adj = vec![(v + 1) % n];
            for k in 0..degree.saturating_sub(1) {
                adj.push((v * (2 * k + 3) + 7 * k + 2) % n);
            }
            adj.sort_unstable();
            adj.dedup();
            adj.retain(|&u| u != v);
            adj
        })
        .collect()
}

/// Deterministic edge weight for edge `v → u`.
pub fn edge_weight(v: usize, u: usize) -> f64 {
    ((v * 31 + u * 17) % 9 + 1) as f64
}

/// Level-synchronous BFS distance computation, unrolled for `levels`
/// sweeps over the [`topology`] of `n` nodes with out-degree `degree`.
///
/// Inputs `d0_{v}`: the initial distance vector (0 at the source, a large
/// sentinel elsewhere). Each sweep relaxes
/// `d[v] = min(d[v], min over in-neighbors u of d[u] + 1)`.
/// With `levels ≥` the graph's eccentricity the result is exact BFS.
/// Outputs `dist{v}`.
///
/// # Panics
///
/// Panics if `n < 2` or `levels == 0`.
pub fn build_bfs(n: usize, levels: usize) -> Dfg {
    assert!(n >= 2 && levels > 0, "BFS needs nodes and sweeps");
    build_relaxation(
        format!("bfs_n{n}_l{levels}"),
        n,
        levels,
        &topology(n, 3),
        RelaxKind::Unit,
    )
}

/// Bellman-Ford single-source shortest paths over the weighted
/// [`topology`]; same relaxation structure as BFS but with per-edge weight
/// inputs `w{v}_{u}`.
///
/// # Panics
///
/// Panics if `n < 2` or `sweeps == 0`.
pub fn build_ssp(n: usize, sweeps: usize) -> Dfg {
    assert!(n >= 2 && sweeps > 0, "SSP needs nodes and sweeps");
    build_relaxation(
        format!("ssp_n{n}_l{sweeps}"),
        n,
        sweeps,
        &topology(n, 3),
        RelaxKind::Weighted,
    )
}

enum RelaxKind {
    Unit,
    Weighted,
}

fn build_relaxation(
    name: String,
    n: usize,
    levels: usize,
    adj: &[Vec<usize>],
    kind: RelaxKind,
) -> Dfg {
    let mut b = DfgBuilder::new(name);
    let one = b.input("one"); // unit edge cost for BFS
    let mut dist: Vec<NodeId> = (0..n).map(|v| b.input(format!("d0_{v}"))).collect();
    // Pre-register weight inputs (once per edge, reused across sweeps).
    let mut weights = std::collections::HashMap::new();
    if matches!(kind, RelaxKind::Weighted) {
        for (v, outs) in adj.iter().enumerate() {
            for &u in outs {
                weights.insert((v, u), b.input(format!("w{v}_{u}")));
            }
        }
    }
    // Incoming adjacency: relax each node from its in-neighbors.
    let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, outs) in adj.iter().enumerate() {
        for &u in outs {
            incoming[u].push(v);
        }
    }
    for _ in 0..levels {
        let mut next = Vec::with_capacity(n);
        for (u, ins) in incoming.iter().enumerate() {
            let mut candidates = vec![dist[u]];
            for &v in ins {
                let cost = match kind {
                    RelaxKind::Unit => one,
                    RelaxKind::Weighted => weights[&(v, u)],
                };
                candidates.push(b.op(Op::Add, &[dist[v], cost]));
            }
            next.push(b.reduce(Op::Min, &candidates));
        }
        dist = next;
    }
    for (v, &d) in dist.iter().enumerate() {
        b.output(format!("dist{v}"), d);
    }
    crate::finish(b)
}

/// Reference relaxation sweeps (unit costs = BFS; else Bellman-Ford).
pub fn relaxation_reference(
    adj: &[Vec<usize>],
    init: &[f64],
    sweeps: usize,
    weight: impl Fn(usize, usize) -> f64,
) -> Vec<f64> {
    let mut dist = init.to_vec();
    for _ in 0..sweeps {
        let mut next = dist.clone();
        for (v, outs) in adj.iter().enumerate() {
            for &u in outs {
                next[u] = next[u].min(dist[v] + weight(v, u));
            }
        }
        dist = next;
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const SENTINEL: f64 = 1e9;

    fn init_dist(n: usize) -> Vec<f64> {
        let mut d = vec![SENTINEL; n];
        d[0] = 0.0;
        d
    }

    #[test]
    fn bfs_matches_reference_sweeps() {
        let (n, levels) = (12, 4);
        let g = build_bfs(n, levels);
        let init = init_dist(n);
        let mut inputs = HashMap::from([("one".to_string(), 1.0)]);
        for (v, &d) in init.iter().enumerate() {
            inputs.insert(format!("d0_{v}"), d);
        }
        let out = g.evaluate(&inputs).unwrap();
        let expected = relaxation_reference(&topology(n, 3), &init, levels, |_, _| 1.0);
        for (v, &e) in expected.iter().enumerate() {
            assert_eq!(out[&format!("dist{v}")], e, "node {v}");
        }
    }

    #[test]
    fn bfs_with_enough_levels_is_exact() {
        let n = 12;
        let adj = topology(n, 3);
        // Ground truth via an actual queue-based BFS.
        let mut exact = vec![usize::MAX; n];
        exact[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(v) = queue.pop_front() {
            for &u in &adj[v] {
                if exact[u] == usize::MAX {
                    exact[u] = exact[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        let relaxed = relaxation_reference(&adj, &init_dist(n), n, |_, _| 1.0);
        for v in 0..n {
            assert_eq!(relaxed[v] as usize, exact[v], "node {v}");
        }
    }

    #[test]
    fn ssp_matches_reference_sweeps() {
        let (n, sweeps) = (10, 3);
        let g = build_ssp(n, sweeps);
        let adj = topology(n, 3);
        let init = init_dist(n);
        let mut inputs = HashMap::from([("one".to_string(), 1.0)]);
        for (v, &d) in init.iter().enumerate() {
            inputs.insert(format!("d0_{v}"), d);
        }
        for (v, outs) in adj.iter().enumerate() {
            for &u in outs {
                inputs.insert(format!("w{v}_{u}"), edge_weight(v, u));
            }
        }
        let out = g.evaluate(&inputs).unwrap();
        let expected = relaxation_reference(&adj, &init, sweeps, edge_weight);
        for (v, &e) in expected.iter().enumerate() {
            assert_eq!(out[&format!("dist{v}")], e, "node {v}");
        }
    }

    #[test]
    fn topology_is_simple_and_in_range() {
        for (v, outs) in topology(16, 4).iter().enumerate() {
            assert!(outs.iter().all(|&u| u < 16 && u != v));
            let mut sorted = outs.clone();
            sorted.dedup();
            assert_eq!(&sorted, outs);
        }
    }

    #[test]
    fn sweeps_serialize_depth() {
        // Each sweep is a dependent phase: depth grows with sweep count.
        let d2 = build_bfs(12, 2).stats().depth;
        let d4 = build_bfs(12, 4).stats().depth;
        assert!(d4 > d2);
    }
}
