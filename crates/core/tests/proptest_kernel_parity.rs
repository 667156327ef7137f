//! Parity property tests for the vectorized frozen query kernel:
//!
//! * the merge paths — scalar reference, 16-byte lane blocks, and the
//!   `merge_max` entry point the query paths call — must write
//!   **bit-identical** accumulator bytes for arbitrary inputs and lengths
//!   (including ragged tails the arenas never produce);
//! * the true batch API (`influence_many_frozen`) must answer
//!   bit-identically to per-query `influence` on the frozen arena and to
//!   the live oracle, at 1, 2, and 8 threads, for arbitrary tie-heavy
//!   networks and seed sets with duplicates — including precision 4, where
//!   `β = 16` is smaller than the 64-byte merge tile.

use infprop_core::kernel::{merge_max, merge_max_lanes, merge_max_scalar};
use infprop_core::{ApproxIrs, ExactIrs, InfluenceOracle, LayeredApproxOracle};
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Window};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Random networks with timestamp ties.
fn networks() -> impl Strategy<Value = InteractionNetwork> {
    prop::collection::vec((0u32..16, 0u32..16, 0i64..30), 1..70)
        .prop_map(InteractionNetwork::from_triples)
}

/// Seed sets over the same id range, duplicates allowed (the batch path
/// dedups; answers must not change).
fn seed_sets() -> impl Strategy<Value = Vec<Vec<NodeId>>> {
    prop::collection::vec(
        prop::collection::vec((0u32..16).prop_map(NodeId), 0..8),
        0..14,
    )
}

proptest! {
    /// All merge paths agree bytewise with the scalar reference for any
    /// accumulator/source contents and any (possibly ragged) length.
    #[test]
    fn merge_paths_are_bit_identical(
        acc in prop::collection::vec(any::<u8>(), 0..200),
        src in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut scalar = acc.clone();
        merge_max_scalar(&mut scalar, &src);
        let mut lanes = acc.clone();
        merge_max_lanes(&mut lanes, &src);
        prop_assert_eq!(&lanes, &scalar);
        let mut dispatched = acc.clone();
        merge_max(&mut dispatched, &src);
        prop_assert_eq!(&dispatched, &scalar);
    }

    /// Frozen batch answers == per-query frozen answers == live oracle
    /// answers, bitwise, at every thread count and at both a precision
    /// where β fills multiple tiles (9) and one where β = 16 < TILE (4).
    #[test]
    fn frozen_batch_matches_per_query_and_live(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..40,
    ) {
        let n = net.num_nodes() as u32;
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().filter(|v| v.0 < n).collect())
            .collect();
        for precision in [4u8, 9] {
            let irs = ApproxIrs::compute_with_precision(&net, Window(w), precision);
            let frozen = irs.freeze();
            let live = irs.oracle();
            let per_query: Vec<u64> = seeds
                .iter()
                .map(|s| frozen.influence(s).to_bits())
                .collect();
            let live_ref: Vec<u64> = seeds
                .iter()
                .map(|s| live.influence(s).to_bits())
                .collect();
            prop_assert_eq!(&per_query, &live_ref, "frozen != live, k={}", precision);
            for threads in THREAD_COUNTS {
                let batch: Vec<u64> = frozen
                    .influence_many_frozen(&seeds, threads)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                prop_assert_eq!(&batch, &per_query, "k={} threads={}", precision, threads);
            }
        }
    }

    /// The exact frozen batch (with its sorted-slice fast paths for ≤ 2
    /// deduplicated seeds) matches per-query answers at every thread count.
    #[test]
    fn exact_frozen_batch_matches_per_query(
        net in networks(),
        seeds in seed_sets(),
        w in 1i64..40,
    ) {
        let n = net.num_nodes() as u32;
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().filter(|v| v.0 < n).collect())
            .collect();
        let frozen = ExactIrs::compute(&net, Window(w)).freeze();
        let per_query: Vec<u64> = seeds
            .iter()
            .map(|s| frozen.influence(s).to_bits())
            .collect();
        for threads in THREAD_COUNTS {
            let batch: Vec<u64> = frozen
                .influence_many_frozen(&seeds, threads)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&batch, &per_query, "threads={}", threads);
        }
    }

    /// The layered (base ⊕ overlay) batch path stays dominance-correct:
    /// after splitting history into a frozen base and appended delta, the
    /// batch answers equal per-query layered answers *and* a from-scratch
    /// frozen arena over the full history, bitwise.
    #[test]
    fn layered_batch_matches_scratch(
        triples in prop::collection::vec((0u32..12, 0u32..12, 0i64..40), 2..60),
        seeds in seed_sets(),
        w in 1i64..20,
        split_pct in 0usize..100,
    ) {
        let mut sorted = triples;
        sorted.sort_by_key(|&(_, _, t)| t);
        let split = sorted.len() * split_pct / 100;
        let net = InteractionNetwork::from_triples(sorted.iter().copied());
        let n = net.num_nodes() as u32;
        let seeds: Vec<Vec<NodeId>> = seeds
            .into_iter()
            .map(|s| s.into_iter().filter(|v| v.0 < n).collect())
            .collect();
        let base_net = InteractionNetwork::from_triples(sorted[..split].iter().copied());
        let mut layered = LayeredApproxOracle::from_network_with_precision(&base_net, Window(w), 5);
        for &(s, d, t) in &sorted[split..] {
            layered.append(Interaction::from_raw(s, d, t)).unwrap();
        }
        layered.refresh();
        let scratch = ApproxIrs::compute_with_precision(&net, Window(w), 5).freeze();
        let per_query: Vec<u64> = seeds
            .iter()
            .map(|s| layered.influence(s).to_bits())
            .collect();
        let scratch_ref: Vec<u64> = seeds
            .iter()
            .map(|s| scratch.influence(s).to_bits())
            .collect();
        prop_assert_eq!(&per_query, &scratch_ref, "layered != scratch");
        for threads in THREAD_COUNTS {
            let batch: Vec<u64> = layered
                .influence_many_frozen(&seeds, threads)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            prop_assert_eq!(&batch, &per_query, "threads={}", threads);
        }
    }
}
