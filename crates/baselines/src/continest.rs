//! ConTinEst — scalable influence estimation in continuous-time diffusion
//! networks (Du, Song, Gomez-Rodriguez & Zha, NIPS 2013) — reimplemented
//! from scratch.
//!
//! The model: information traverses edge `(u, v)` after a random
//! transmission delay `τ_uv ~ Exp(rate = 1/w_uv)`, where the weight `w_uv`
//! comes from the paper's interaction → weighted-graph transformation
//! (`t − u_i`, see [`WeightedStaticGraph::from_network`]). The influence of
//! a seed set `S` with time budget `T` is the expected number of nodes whose
//! shortest delay distance from `S` is at most `T`.
//!
//! Estimation uses Cohen's randomized size-estimation framework, as in the
//! original system: for each of `num_samples` sampled delay assignments and
//! each of `num_labels` draws of i.i.d. `Exp(1)` node labels, compute for
//! every node `u` the **least label** within delay distance `T` of `u`.
//! With `m = num_samples × num_labels` least-label values `r*_j(u)`, the
//! neighbourhood size estimator is `|N(u, T)| ≈ (m − 1) / Σ_j r*_j(u)`, and
//! the estimator extends to sets by `r*_j(S) = min_{u∈S} r*_j(u)` — which is
//! what makes greedy selection cheap.
//!
//! Least labels are computed with the label-ordered pruned reverse Dijkstra
//! of Cohen's framework: process labels in increasing order; each label
//! relaxes outward on the transposed graph, pruning at nodes already reached
//! at a smaller or equal distance by an earlier (smaller) label.
//!
//! The original evaluation uses thousands of samples; defaults here are
//! laptop-scale (documented in DESIGN.md) and configurable.

use infprop_temporal_graph::{NodeId, WeightedStaticGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// ConTinEst parameters.
#[derive(Clone, Copy, Debug)]
pub struct ConTinEstConfig {
    /// Time budget `T`: a node counts as influenced if it is reachable
    /// within this total transmission delay. The experiments set it to the
    /// same absolute window ω used by the IRS methods.
    pub time_budget: f64,
    /// Number of sampled delay assignments.
    pub num_samples: usize,
    /// Number of `Exp(1)` label draws per sample.
    pub num_labels: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ConTinEstConfig {
    /// Laptop-scale defaults: 5 samples × 4 label draws.
    pub fn new(time_budget: f64) -> Self {
        ConTinEstConfig {
            time_budget,
            num_samples: 5,
            num_labels: 4,
            seed: 0,
        }
    }

    /// Sets sampling effort.
    pub fn with_effort(mut self, num_samples: usize, num_labels: usize) -> Self {
        self.num_samples = num_samples.max(1);
        self.num_labels = num_labels.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A prepared ConTinEst estimator: the `m × n` least-label matrix.
pub struct ConTinEst {
    /// `labels[j][u]` — least label within distance `T` of `u` in run `j`.
    labels: Vec<Vec<f64>>,
    num_nodes: usize,
}

impl ConTinEst {
    /// Builds the least-label matrix for `graph` under `config`.
    pub fn new(graph: &WeightedStaticGraph, config: &ConTinEstConfig) -> Self {
        assert!(config.time_budget > 0.0, "time budget must be positive");
        let n = graph.num_nodes();
        let transposed = graph.transpose();
        let mut runs = Vec::with_capacity(config.num_samples * config.num_labels);
        let mut rng = SmallRng::seed_from_u64(config.seed);

        for _ in 0..config.num_samples {
            // One delay assignment: τ_e ~ Exp(rate 1/w_e) ⇒ τ = −w·ln(U),
            // sampled in CSR order on the transposed graph (same joint
            // distribution as sampling on the forward edges).
            let mut delays: Vec<f64> = Vec::with_capacity(transposed.num_edges());
            for u in 0..n {
                for e in transposed.out_edges(NodeId::from_index(u)) {
                    let u01: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                    delays.push(-e.weight * u01.ln());
                }
            }
            for _ in 0..config.num_labels {
                let node_labels: Vec<f64> = (0..n)
                    .map(|_| -(rng.gen::<f64>().max(f64::MIN_POSITIVE)).ln())
                    .collect();
                runs.push(least_labels(
                    &transposed,
                    &delays,
                    &node_labels,
                    config.time_budget,
                ));
            }
        }
        ConTinEst {
            labels: runs,
            num_nodes: n,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Estimated influence (expected `|N(S, T)|`) of a seed set.
    ///
    /// Includes the seeds themselves, like the original estimator.
    pub fn influence(&self, seeds: &[NodeId]) -> f64 {
        if seeds.is_empty() || self.labels.is_empty() {
            return 0.0;
        }
        let m = self.labels.len();
        if m == 1 {
            // Degenerate single-run estimator: fall back to 1/r*.
            let r = self.min_label(&self.labels[0], seeds);
            return (1.0 / r).min(self.num_nodes as f64);
        }
        let sum: f64 = self
            .labels
            .iter()
            .map(|run| self.min_label(run, seeds))
            .sum();
        (((m - 1) as f64) / sum).min(self.num_nodes as f64)
    }

    fn min_label(&self, run: &[f64], seeds: &[NodeId]) -> f64 {
        seeds
            .iter()
            .map(|s| run[s.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Greedy top-k seed selection by estimated marginal influence, with
    /// CELF-style lazy evaluation (the estimator is monotone submodular in
    /// the same way as the exact coverage function).
    pub fn top_k(&self, k: usize) -> Vec<NodeId> {
        let n = self.num_nodes;
        if n == 0 || k == 0 {
            return Vec::new();
        }
        // Current per-run minima for the selected set.
        let mut current: Vec<f64> = vec![f64::INFINITY; self.labels.len()];
        let mut current_inf = 0.0f64;
        let gain_of = |current: &[f64], current_inf: f64, u: NodeId| -> f64 {
            let m = self.labels.len();
            let sum: f64 = self
                .labels
                .iter()
                .zip(current)
                .map(|(run, &cur)| cur.min(run[u.index()]))
                .sum();
            let inf = if m == 1 {
                (1.0 / sum).min(self.num_nodes as f64)
            } else {
                (((m - 1) as f64) / sum).min(self.num_nodes as f64)
            };
            inf - current_inf
        };

        #[derive(PartialEq)]
        struct Cand(f64, u32, usize);
        impl Eq for Cand {}
        impl PartialOrd for Cand {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Cand {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0).then(other.1.cmp(&self.1))
            }
        }

        let mut heap: BinaryHeap<Cand> = (0..n as u32)
            .map(|u| Cand(gain_of(&current, current_inf, NodeId(u)), u, 0))
            .collect();
        let mut picks = Vec::with_capacity(k);
        let mut round = 0usize;
        while picks.len() < k {
            let Some(Cand(gain, u, stamped)) = heap.pop() else {
                break;
            };
            if stamped == round {
                // Zero (or capped-away) marginal gains still yield a pick:
                // the estimator saturates at n on densely connected inputs,
                // and a top-k API should fill k seeds while nodes remain.
                let _ = gain;
                for (cur, run) in current.iter_mut().zip(&self.labels) {
                    *cur = cur.min(run[u as usize]);
                }
                current_inf += gain.max(0.0);
                picks.push(NodeId(u));
                round += 1;
            } else {
                heap.push(Cand(gain_of(&current, current_inf, NodeId(u)), u, round));
            }
        }
        picks
    }
}

/// Cohen's label-ordered pruned multi-source Dijkstra: for every node, the
/// minimum `Exp(1)` label among nodes within delay distance ≤ `budget`
/// (forward in the original graph = reverse on `transposed`).
fn least_labels(
    transposed: &WeightedStaticGraph,
    delays: &[f64],
    node_labels: &[f64],
    budget: f64,
) -> Vec<f64> {
    let n = transposed.num_nodes();
    // CSR offsets to align `delays` with `out_edges`.
    let mut offsets = vec![0usize; n + 1];
    for u in 0..n {
        offsets[u + 1] = offsets[u] + transposed.out_edges(NodeId::from_index(u)).len();
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| node_labels[a as usize].total_cmp(&node_labels[b as usize]));

    let mut result = vec![f64::INFINITY; n];
    // Smallest distance at which any earlier (smaller) label reached a node.
    let mut best_dist = vec![f64::INFINITY; n];
    let mut assigned = 0usize;
    let mut heap: BinaryHeap<(Reverse<OrderedF64>, u32)> = BinaryHeap::new();

    for &src in &order {
        if assigned == n {
            break;
        }
        if best_dist[src as usize] <= 0.0 {
            continue; // already reached at distance 0 by a smaller label
        }
        heap.clear();
        heap.push((Reverse(OrderedF64(0.0)), src));
        while let Some((Reverse(OrderedF64(d)), u)) = heap.pop() {
            if d >= best_dist[u as usize] {
                continue; // a smaller label already covers everything beyond u
            }
            if result[u as usize].is_infinite() {
                result[u as usize] = node_labels[src as usize];
                assigned += 1;
            }
            best_dist[u as usize] = d;
            let base = offsets[u as usize];
            for (j, e) in transposed.out_edges(NodeId(u)).iter().enumerate() {
                let nd = d + delays[base + j];
                if nd <= budget && nd < best_dist[e.dst.index()] {
                    heap.push((Reverse(OrderedF64(nd)), e.dst.0));
                }
            }
        }
    }
    result
}

/// Total-order f64 wrapper for the Dijkstra heap.
#[derive(PartialEq, Clone, Copy)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infprop_temporal_graph::InteractionNetwork;

    /// Direct tests of the label-ordered pruned Dijkstra.
    mod least_labels_direct {
        use super::super::*;

        /// Forward chain 0 → 1 → 2 with unit delays. On the transposed
        /// graph, node u's ball of radius T is its forward-reachable set in
        /// the original graph.
        fn reversed_chain() -> WeightedStaticGraph {
            // Transposed edges: 1 → 0, 2 → 1, each delay carried in order.
            WeightedStaticGraph::from_weighted_edges(
                3,
                vec![(NodeId(1), NodeId(0), 1.0), (NodeId(2), NodeId(1), 1.0)],
            )
        }

        #[test]
        fn min_label_in_ball_with_big_budget() {
            let g = reversed_chain();
            let delays = vec![1.0, 1.0]; // CSR order on the transposed graph
                                         // Labels: node 2 has the smallest.
            let labels = vec![0.9, 0.5, 0.1];
            let out = least_labels(&g, &delays, &labels, 10.0);
            // Ball(0) = {0,1,2} -> 0.1; Ball(1) = {1,2} -> 0.1; Ball(2) = {2}.
            assert_eq!(out, vec![0.1, 0.1, 0.1]);
        }

        #[test]
        fn budget_cuts_far_labels() {
            let g = reversed_chain();
            let delays = vec![1.0, 1.0];
            let labels = vec![0.9, 0.5, 0.1];
            // Budget 1.5: Ball(0) = {0,1}, Ball(1) = {1,2}, Ball(2) = {2}.
            let out = least_labels(&g, &delays, &labels, 1.5);
            assert_eq!(out, vec![0.5, 0.1, 0.1]);
        }

        #[test]
        fn every_node_gets_its_own_label_at_least() {
            let g = WeightedStaticGraph::from_weighted_edges(4, vec![]);
            let labels = vec![0.4, 0.3, 0.2, 0.1];
            let out = least_labels(&g, &[], &labels, 1.0);
            assert_eq!(out, labels);
        }

        #[test]
        fn pruning_never_loses_smaller_labels() {
            // Diamond on the transposed graph: 3 -> 1 -> 0, 3 -> 2 -> 0
            // (original: 0 -> {1,2} -> 3). Short path through 1, long
            // through 2.
            let g = WeightedStaticGraph::from_weighted_edges(
                4,
                vec![
                    (NodeId(1), NodeId(0), 1.0),
                    (NodeId(2), NodeId(0), 1.0),
                    (NodeId(3), NodeId(1), 1.0),
                    (NodeId(3), NodeId(2), 5.0),
                ],
            );
            // CSR order: edges sorted by (src, dst): (1,0),(2,0),(3,1),(3,2).
            let delays = vec![1.0, 1.0, 1.0, 5.0];
            let labels = vec![0.9, 0.8, 0.7, 0.05];
            // Budget 2.5: original-graph balls:
            //   Ball(0) = {0,1,2,3} (3 via 1 at distance 2)    -> 0.05
            //   Ball(1) = {1,3}                                 -> 0.05
            //   Ball(2) = {2} (the 2→3 delay 5.0 > 2.5)         -> 0.7
            //   Ball(3) = {3}                                   -> 0.05
            let out = least_labels(&g, &delays, &labels, 2.5);
            assert_eq!(out, vec![0.05, 0.05, 0.7, 0.05]);
        }
    }

    fn weighted(triples: &[(u32, u32, i64)]) -> WeightedStaticGraph {
        WeightedStaticGraph::from_network(&InteractionNetwork::from_triples(
            triples.iter().copied(),
        ))
    }

    #[test]
    fn isolated_node_influences_only_itself() {
        let g = weighted(&[(0, 1, 1)]);
        let cfg = ConTinEstConfig::new(10.0).with_effort(8, 4).with_seed(1);
        let ct = ConTinEst::new(&g, &cfg);
        // Node 1 has no out-edges: |N(1, T)| = 1 exactly (its own label).
        let inf = ct.influence(&[NodeId(1)]);
        assert!((inf - 1.0).abs() < 0.6, "influence {inf}");
    }

    #[test]
    fn hub_outranks_leaf() {
        // 0 → {1,2,3,4} quickly; 4 → nothing.
        let g = weighted(&[(0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4)]);
        let cfg = ConTinEstConfig::new(100.0).with_effort(10, 5).with_seed(2);
        let ct = ConTinEst::new(&g, &cfg);
        assert!(ct.influence(&[NodeId(0)]) > ct.influence(&[NodeId(4)]));
        assert_eq!(ct.top_k(1), vec![NodeId(0)]);
    }

    #[test]
    fn influence_is_monotone_in_budget() {
        let g = weighted(&[(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        let small = ConTinEst::new(
            &g,
            &ConTinEstConfig::new(0.5).with_effort(10, 5).with_seed(3),
        );
        let large = ConTinEst::new(
            &g,
            &ConTinEstConfig::new(500.0).with_effort(10, 5).with_seed(3),
        );
        assert!(large.influence(&[NodeId(0)]) + 1e-9 >= small.influence(&[NodeId(0)]));
    }

    #[test]
    fn set_influence_at_least_best_individual() {
        let g = weighted(&[(0, 1, 1), (2, 3, 2), (3, 4, 3)]);
        let ct = ConTinEst::new(
            &g,
            &ConTinEstConfig::new(100.0).with_effort(10, 5).with_seed(4),
        );
        let both = ct.influence(&[NodeId(0), NodeId(2)]);
        let a = ct.influence(&[NodeId(0)]);
        let b = ct.influence(&[NodeId(2)]);
        assert!(both + 1e-9 >= a.max(b), "both {both} a {a} b {b}");
    }

    #[test]
    fn top_k_returns_distinct_nodes() {
        let g = weighted(&[(0, 1, 1), (1, 2, 2), (2, 0, 3), (3, 4, 4)]);
        let ct = ConTinEst::new(
            &g,
            &ConTinEstConfig::new(50.0).with_effort(6, 4).with_seed(5),
        );
        let picks = ct.top_k(3);
        let mut dedup = picks.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), picks.len());
        assert!(!picks.is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let g = weighted(&[(0, 1, 1), (1, 2, 2), (0, 3, 5), (3, 2, 6)]);
        let cfg = ConTinEstConfig::new(20.0).with_effort(4, 3).with_seed(9);
        let a = ConTinEst::new(&g, &cfg).top_k(2);
        let b = ConTinEst::new(&g, &cfg).top_k(2);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_seed_set_is_zero() {
        let g = weighted(&[(0, 1, 1)]);
        let ct = ConTinEst::new(&g, &ConTinEstConfig::new(10.0));
        assert_eq!(ct.influence(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "time budget must be positive")]
    fn zero_budget_panics() {
        let g = weighted(&[(0, 1, 1)]);
        let _ = ConTinEst::new(&g, &ConTinEstConfig::new(0.0));
    }

    #[test]
    fn estimator_tracks_true_ball_size_on_chain() {
        // Chain with unit-ish weights and a huge budget: every node's ball
        // is the whole downstream suffix. With enough runs the estimate of
        // node 0's neighbourhood should be near 5 (nodes 0..=4).
        let g = weighted(&[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]);
        let ct = ConTinEst::new(
            &g,
            &ConTinEstConfig::new(1e6).with_effort(40, 10).with_seed(6),
        );
        let inf = ct.influence(&[NodeId(0)]);
        assert!((inf - 5.0).abs() < 1.5, "influence {inf}");
    }
}
