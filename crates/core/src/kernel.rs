//! Wide-lane register-merge kernel for the frozen query path.
//!
//! Every approximate influence query reduces to the same inner operation:
//! fold one β-byte register row into an accumulator row with a bytewise
//! unsigned maximum (the HLL dominance merge). This module makes that
//! merge **vectorized by construction**:
//!
//! * [`merge_max_lanes`] — the one production kernel: a branch-free
//!   bytewise maximum over 16-byte lane blocks whose inner loop is the
//!   exact shape LLVM lowers to one `pmaxub`/`vpmaxub` per block on x86
//!   (and the equivalent byte-max on other SIMD ISAs), with a scalar pass
//!   closing ragged tails. No `unsafe`, no platform assumptions, exact for
//!   all byte values, and no dependence on the vectorizer recognizing a
//!   branchy compare. [`merge_max`] is the name the query paths call it by.
//! * [`merge_max_scalar`] — the plain `if b > *a` reference loop, kept as
//!   the parity baseline the proptests compare the lane kernel against.
//!
//! Both produce **bit-identical** accumulator contents for any input
//! (`max` on `u8` is exact — there is no float in sight until the merged
//! registers reach the estimator), so the frozen-vs-live parity
//! guarantees do not depend on which one runs.
//!
//! The kernels themselves carry no instrumentation: both the recorder
//! ([`crate::obs`]) and the causal tracer ([`crate::trace`]) observe the
//! query path from its *callers* (`query.batch`/`query.element` spans
//! around the batch drivers in `frozen`/`delta`), so the merge inner loop
//! stays alloc-free and branch-free with or without tracing. The zero-cost
//! claim is enforced, not assumed — `trace_noop_alloc.rs` proves the
//! `NoopTracer` path never allocates, and the parity proptests re-check
//! bit-identical answers with the live ring tracer attached.

/// Scalar bytewise-max fold — the parity reference loop. Merges the common
/// prefix of the two slices (`zip` semantics).
// xtask-contract: alloc-free, kernel
#[inline]
pub fn merge_max_scalar(acc: &mut [u8], src: &[u8]) {
    for (a, &b) in acc.iter_mut().zip(src) {
        if b > *a {
            *a = b;
        }
    }
}

/// Byte width of one portable wide lane block (one SSE/NEON vector).
pub const WIDE_LANES: usize = 16;

/// Branch-free bytewise-max fold over 16-byte lane blocks: the inner
/// fixed-width `max` loop is the canonical shape every SIMD backend lowers
/// to a single unsigned byte-max instruction per block, so the merge is
/// wide by construction rather than by the vectorizer's goodwill at
/// recognizing a branchy compare. Tail bytes (never produced by the
/// arenas, whose rows are powers of two ≥ 16) are closed by a scalar loop
/// with the same `zip` semantics as [`merge_max_scalar`].
// xtask-contract: alloc-free, kernel
#[inline]
pub fn merge_max_lanes(acc: &mut [u8], src: &[u8]) {
    let mut blocks = 0usize;
    for (a16, s16) in acc
        .chunks_exact_mut(WIDE_LANES)
        .zip(src.chunks_exact(WIDE_LANES))
    {
        for (a, &b) in a16.iter_mut().zip(s16) {
            *a = (*a).max(b);
        }
        blocks += 1;
    }
    let done = blocks * WIDE_LANES;
    for (a, &b) in acc.iter_mut().skip(done).zip(src.iter().skip(done)) {
        if b > *a {
            *a = b;
        }
    }
}

/// The merge the frozen and layered query paths call:
/// [`merge_max_lanes`].
// xtask-contract: alloc-free, kernel
#[inline]
pub fn merge_max(acc: &mut [u8], src: &[u8]) {
    merge_max_lanes(acc, src);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_merge_matches_scalar_with_tail() {
        // 19 bytes: one full lane block plus a 3-byte scalar tail.
        let src: Vec<u8> = (0..19).map(|i| (i * 37 + 11) as u8).collect();
        let base: Vec<u8> = (0..19).map(|i| (200 - i * 13) as u8).collect();
        let mut scalar = base.clone();
        merge_max_scalar(&mut scalar, &src);
        let mut lanes = base.clone();
        merge_max_lanes(&mut lanes, &src);
        assert_eq!(lanes, scalar);
        let mut dispatched = base.clone();
        merge_max(&mut dispatched, &src);
        assert_eq!(dispatched, scalar);
    }
}
