//! Cross-crate checks of the frozen arenas through the facade: the IPFA v4
//! image holds exactly one node-major register copy plus the estimate
//! table, a reloaded image answers bit-identically to the live oracle,
//! each frozen format reads exactly one layout version, and the one
//! portable merge kernel agrees with its scalar reference.

use infprop::irs::kernel::{merge_max, merge_max_lanes, merge_max_scalar};
use infprop::irs::{
    FrozenApproxOracle, FrozenExactOracle, ARENA_ALIGN, FROZEN_APPROX_LAYOUT_VERSION,
    FROZEN_EXACT_LAYOUT_VERSION,
};
use infprop::prelude::*;
use infprop::sketch::CodecError;

fn network() -> InteractionNetwork {
    infprop::datasets::profiles::slashdot_like(3)
        .build(0.01)
        .network
}

fn align_up(at: usize) -> usize {
    at.div_ceil(ARENA_ALIGN) * ARENA_ALIGN
}

/// A few seed sets over the universe, singletons and overlapping groups.
fn seed_sets(n: usize) -> Vec<Vec<NodeId>> {
    let n = u32::try_from(n).unwrap();
    vec![
        vec![],
        vec![NodeId(0)],
        vec![NodeId(n - 1)],
        (0..n).step_by(7).map(NodeId).collect(),
        (0..n.min(40)).map(NodeId).collect(),
    ]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn frozen_approx_image_is_one_node_major_copy() {
    let net = network();
    let frozen = ApproxIrs::compute_with_precision(&net, net.window_from_percent(5.0), 7).freeze();
    let n = frozen.num_nodes();
    let beta = 1usize << frozen.precision();
    let mut image = Vec::new();
    frozen.write_to(&mut image).unwrap();

    assert_eq!(FROZEN_APPROX_LAYOUT_VERSION, 4);
    assert_eq!(&image[..4], b"IPFA");
    assert_eq!(image[4], FROZEN_APPROX_LAYOUT_VERSION);
    assert_eq!(image.len(), align_up(10) + align_up(n * beta) + n * 8);

    // The register section is the node-major rows, back to back.
    let regs_at = align_up(10);
    assert_eq!(&image[regs_at..regs_at + n * beta], frozen.registers());
    for u in [0, n / 2, n - 1] {
        let row = &image[regs_at + u * beta..regs_at + (u + 1) * beta];
        assert_eq!(row, frozen.node_registers(NodeId::from_index(u)));
    }
}

#[test]
fn frozen_approx_reload_answers_bit_identically() {
    let net = network();
    let irs = ApproxIrs::compute_with_precision(&net, net.window_from_percent(5.0), 7);
    let frozen = irs.freeze();
    let mut image = Vec::new();
    frozen.write_to(&mut image).unwrap();
    let loaded = FrozenApproxOracle::read_from(&mut image.as_slice()).unwrap();
    loaded.validate().unwrap();

    let seeds = seed_sets(net.num_nodes());
    let live = irs.oracle();
    let want: Vec<u64> = seeds.iter().map(|s| live.influence(s).to_bits()).collect();
    for threads in [1, 2] {
        assert_eq!(bits(&loaded.influence_many_frozen(&seeds, threads)), want);
    }
    for u in net.node_ids() {
        assert_eq!(loaded.individual(u).to_bits(), live.individual(u).to_bits());
    }
}

#[test]
fn frozen_approx_reads_only_the_current_version() {
    let net = network();
    let frozen = ApproxIrs::compute_with_precision(&net, net.window_from_percent(5.0), 7).freeze();
    let mut image = Vec::new();
    frozen.write_to(&mut image).unwrap();
    for version in 0..FROZEN_APPROX_LAYOUT_VERSION {
        image[4] = version;
        match FrozenApproxOracle::read_from(&mut image.as_slice()) {
            Err(CodecError::BadVersion(v)) => assert_eq!(v, version),
            other => panic!("IPFA v{version} was not rejected: {:?}", other.err()),
        }
    }
    image[4] = FROZEN_APPROX_LAYOUT_VERSION + 1;
    match FrozenApproxOracle::read_from(&mut image.as_slice()) {
        Err(CodecError::FutureVersion(v)) => assert_eq!(v, FROZEN_APPROX_LAYOUT_VERSION + 1),
        other => panic!("future IPFA version was not rejected: {:?}", other.err()),
    }
}

#[test]
fn frozen_exact_reload_and_version_gate() {
    let net = network();
    let irs = ExactIrs::compute(&net, net.window_from_percent(5.0));
    let frozen = irs.freeze();
    let mut image = Vec::new();
    frozen.write_to(&mut image).unwrap();
    assert_eq!(&image[..4], b"IPFE");
    assert_eq!(image[4], FROZEN_EXACT_LAYOUT_VERSION);

    let loaded = FrozenExactOracle::read_from(&mut image.as_slice()).unwrap();
    loaded.validate().unwrap();
    let seeds = seed_sets(net.num_nodes());
    let live = irs.oracle();
    let want: Vec<u64> = seeds.iter().map(|s| live.influence(s).to_bits()).collect();
    assert_eq!(bits(&loaded.influence_many_frozen(&seeds, 2)), want);

    for version in 0..FROZEN_EXACT_LAYOUT_VERSION {
        image[4] = version;
        match FrozenExactOracle::read_from(&mut image.as_slice()) {
            Err(CodecError::BadVersion(v)) => assert_eq!(v, version),
            other => panic!("IPFE v{version} was not rejected: {:?}", other.err()),
        }
    }
    image[4] = FROZEN_EXACT_LAYOUT_VERSION + 1;
    match FrozenExactOracle::read_from(&mut image.as_slice()) {
        Err(CodecError::FutureVersion(v)) => assert_eq!(v, FROZEN_EXACT_LAYOUT_VERSION + 1),
        other => panic!("future IPFE version was not rejected: {:?}", other.err()),
    }
}

#[test]
fn merge_kernels_match_the_scalar_reference() {
    // Deterministic bytes from a 64-bit LCG; lengths cover empty inputs,
    // whole 16-byte lane blocks, scalar tails and unequal slice lengths
    // (merges stop at the shorter slice).
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 56) as u8
    };
    for acc_len in [0usize, 1, 15, 16, 17, 64, 95, 512] {
        for src_len in [0usize, 3, 16, 33, 512] {
            let acc: Vec<u8> = (0..acc_len).map(|_| next()).collect();
            let src: Vec<u8> = (0..src_len).map(|_| next()).collect();
            let mut want = acc.clone();
            merge_max_scalar(&mut want, &src);
            let mut lanes = acc.clone();
            merge_max_lanes(&mut lanes, &src);
            let mut dispatched = acc.clone();
            merge_max(&mut dispatched, &src);
            assert_eq!(lanes, want, "lanes acc={acc_len} src={src_len}");
            assert_eq!(dispatched, want, "merge_max acc={acc_len} src={src_len}");
        }
    }
}
