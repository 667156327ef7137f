//! `layered-churn`: writes beside reads on the same query layer. A
//! `LayeredApproxOracle` over the first 80% of a hub-skewed history takes
//! the rest as forward appends in batches, with `persist_pending` +
//! `refresh` after each batch and in-process `influence_many_frozen`
//! frames between batches; every few batches it runs `compact` +
//! `save_layered`, then a greedy top-k selection on the layered oracle.
//! Refresh re-runs `engine` over the window tail, and compaction adds
//! periodic spikes that only a tail percentile shows.
//!
//! The appended stream is replayed in whole cycles, each from a fresh
//! set-up, so every cycle does the same work.

use crate::serve_read::picks_flat;
use crate::stack::{self, PRECISION};
use crate::util::{
    dir_bytes, mean_rel_error, median, peak_rss_mb, quantile, secs, seed_dedup_ratio, Rng, Zipf,
};
use crate::Ctx;
use infprop_core::{
    greedy_top_k_threads, ExactStore, FrozenApproxOracle, InfluenceOracle, LayeredApproxOracle,
    ReversePassEngine, Selection, VhllStore,
};
use infprop_temporal_graph::{Interaction, InteractionNetwork, NodeId, Window};
use std::path::Path;
use std::time::Instant;

const HUBS: u32 = 64;
const FRAME_WIDTH: usize = 16;
const TOPK_K: usize = 16;
/// Uniform seed sets behind `vhll_rel_error`.
const ERROR_SETS: usize = 4096;

struct Sizes {
    n: u32,
    m: usize,
    batch: usize,
    /// Query frames answered between two batches.
    frames_per_batch: usize,
    /// Batches between two compactions.
    compact_every: usize,
}

pub fn run(ctx: &mut Ctx) {
    let z = if ctx.tiny {
        Sizes {
            n: 200,
            m: 2_000,
            batch: 50,
            frames_per_batch: 4,
            compact_every: 4,
        }
    } else {
        Sizes {
            n: 3_000,
            m: 30_000,
            batch: 150,
            frames_per_batch: 32,
            compact_every: 8,
        }
    };
    let (span, window) = stack::time_shape(z.m);
    let mut rng = Rng::new(ctx.seed);
    let path = stack::write_edges(
        &ctx.dir,
        &stack::hub_edges(&mut rng, z.n, z.m, span, HUBS),
        &mut ctx.input,
    );
    let dir = ctx.dir.join("layered");

    // Set-up runs again before every cycle, so its median spans the whole
    // run, not one burst of host noise.
    let mut setup = Vec::new();
    let (base, _, suffix) = set_up(ctx, &path, &dir, window, &mut setup);
    // Frames draw seeds from the parsed universe (labels the generator
    // never drew are absent from it).
    let universe = InfluenceOracle::num_nodes(&base);
    let zipf = Zipf::new(universe, &mut rng);
    let frames: Vec<Vec<Vec<NodeId>>> = (0..64)
        .map(|_| (0..FRAME_WIDTH).map(|_| zipf.seed_set(&mut rng)).collect())
        .collect();
    for f in &frames {
        for s in f {
            for v in s {
                ctx.input.update(&v.0.to_le_bytes());
            }
        }
    }
    let check_sets: Vec<Vec<NodeId>> = frames.iter().take(8).flatten().cloned().collect();
    let all_sets: Vec<Vec<NodeId>> = frames.iter().flatten().cloned().collect();
    // The sketch error is taken over uniform seed sets: the Zipf frames
    // concentrate on a few hubs, whose estimates alone then set the error
    // (0.011 to 0.024 over eight seeds).
    let error_sets: Vec<Vec<NodeId>> = (0..ERROR_SETS)
        .map(|_| {
            let k = 1 + rng.below(32);
            (0..k)
                .map(|_| NodeId(rng.below(universe as u64) as u32))
                .collect()
        })
        .collect();
    for v in error_sets.iter().flatten() {
        ctx.input.update(&v.0.to_le_bytes());
    }

    // Per cycle: ingest rate, query latencies, sketch error; over the run:
    // seed sets answered and the time their frames took.
    let mut ingest_rates = Vec::new();
    let (mut sets_answered, mut query_total_s) = (0usize, 0.0);
    let mut query_us: Vec<Vec<f64>> = Vec::new();
    let mut errors = Vec::new();
    let mut topk_ms = Vec::new();
    let mut bytes_per_interaction = Vec::new();
    // Arena bytes (exact, approx) of the end-of-cycle reference builds.
    let mut reference_bytes = (0, 0);
    let mut append_ns = Vec::new();
    let mut refresh_ns_per_interaction = Vec::new();
    let mut survivors = Vec::new();
    let mut next_frame = 0;
    ctx.start_timed();
    let start = Instant::now();
    while ingest_rates.is_empty() || secs(start) < ctx.seconds {
        let (mut layered, mut history, _) = set_up(ctx, &path, &dir, window, &mut setup);
        let (mut ingest_s, mut appended) = (0.0, 0usize);
        let (mut query_s, mut answered) = (0.0, 0usize);
        let mut latencies = Vec::new();
        for (b, batch) in suffix.chunks(z.batch).enumerate() {
            let t = Instant::now();
            let open = ctx.spans.begin("delta.append");
            for &i in batch {
                let ok = layered.append(i).is_ok();
                ctx.ops.record("churn.append", ok);
                if ok {
                    history.push(i);
                }
            }
            ctx.spans.end(open, batch.len() as u64);
            append_ns.push(t.elapsed().as_nanos() as f64 / batch.len() as f64);
            let open = ctx.spans.begin("delta.persist_pending");
            let persisted = layered.persist_pending(&dir).is_ok();
            ctx.spans.end(open, batch.len() as u64);
            ctx.ops.record("churn.persist_pending", persisted);
            let log = layered.delta().log().len();
            let open = ctx.spans.begin("delta.refresh");
            let r = Instant::now();
            layered.refresh();
            refresh_ns_per_interaction.push(r.elapsed().as_nanos() as f64 / log as f64);
            ctx.spans.end(open, log as u64);
            ingest_s += secs(t);
            // A batch whose persist failed was not ingested.
            if persisted {
                appended += batch.len();
            }

            // Frames run on this thread: the workload measures the layered
            // query layer under writes; `par` fan-out belongs to serve-read.
            for _ in 0..z.frames_per_batch {
                let sets = &frames[next_frame % frames.len()];
                next_frame += 1;
                let open = ctx.spans.begin("delta.query");
                let q = Instant::now();
                std::hint::black_box(layered.influence_many_frozen(sets, 1));
                let ns = q.elapsed().as_nanos() as f64;
                ctx.spans.end(open, sets.len() as u64);
                ctx.ops.record("churn.query", true);
                latencies.push(ns / 1e3);
                query_s += ns / 1e9;
                answered += sets.len();
            }

            if (b + 1) % z.compact_every == 0 {
                let before = layered.delta().log().len();
                ctx.spans
                    .scope("delta.compact", before as u64, || layered.compact());
                let saved = save(&layered, &dir, "delta.save_layered", ctx);
                survivors.push(layered.delta().tail().len() as f64 / before as f64);
                let frontier = layered.frontier().expect("compacted oracle has a frontier");
                history.retain(|i| frontier.delta(i.time) < window.get());
                if saved {
                    bytes_per_interaction.push(dir_bytes(&dir) as f64 / history.len() as f64);
                }
                let open = ctx.spans.begin("maximize.greedy");
                let t = Instant::now();
                let picks = greedy_top_k_threads(&layered, TOPK_K, 1);
                topk_ms.push(secs(t) * 1e3);
                ctx.spans.end(open, TOPK_K as u64);
                ctx.ops.record("churn.topk", true);
                check(
                    ctx,
                    &layered,
                    &history,
                    window,
                    &check_sets,
                    Some(&picks),
                    "after compaction",
                );
            }
        }
        reference_bytes.1 = check(
            ctx,
            &layered,
            &history,
            window,
            &check_sets,
            None,
            "at the end of a cycle",
        );
        let (err, exact_bytes) = rel_error(ctx, &layered, &history, window, &error_sets);
        errors.push(err);
        reference_bytes.0 = exact_bytes;
        ingest_rates.push(appended as f64 / ingest_s);
        sets_answered += answered;
        query_total_s += query_s;
        query_us.push(latencies);
    }

    ctx.e2e("setup_s", median(&setup));
    ctx.e2e("peak_rss_mb", peak_rss_mb());
    // Cycles do identical work, so the median cycle sets the rate and the
    // tail, and a burst of host noise in one cycle does not.
    let all: Vec<f64> = query_us.concat();
    let p99 = if query_us.len() >= 2 {
        median(
            &query_us
                .iter()
                .map(|q| quantile(q, 0.99))
                .collect::<Vec<_>>(),
        )
    } else {
        quantile(&all, 0.99)
    };
    ctx.e2e("ingest_interactions_per_s", median(&ingest_rates));
    ctx.e2e(
        "arena_bytes_per_interaction",
        median(&bytes_per_interaction),
    );
    // The query rate is taken over the whole run: the host moves between a
    // fast and a slow mode every few seconds, and a whole-run rate follows
    // the mix smoothly where the median cycle jumps between the modes.
    ctx.e2e("query_qps", sets_answered as f64 / query_total_s);
    ctx.e2e("query_frame_p50_us", quantile(&all, 0.5));
    ctx.e2e("query_frame_p99_us", p99);
    ctx.e2e("topk_p50_ms", median(&topk_ms));
    stack::check_rel_error(ctx, median(&errors));
    if ctx.spans.on() {
        let med_ms = |ctx: &Ctx, name: &str| median(&ctx.spans.durations(name)) / 1e6;
        // The reference builds behind the answer checks: the exact one at
        // the end of each cycle, the vHLL one after each compaction too.
        for (metric, span) in [
            ("temporal_graph.parse_s", "temporal_graph.parse"),
            ("engine.exact_build_s", "engine.exact_build"),
            ("engine.vhll_build_s", "engine.vhll_build"),
            ("frozen.freeze_exact_s", "frozen.freeze_exact"),
            ("frozen.freeze_vhll_s", "frozen.freeze_vhll"),
        ] {
            let v = med_ms(ctx, span) / 1e3;
            ctx.layer(metric, v);
        }
        ctx.layer("frozen.exact_arena_bytes", reference_bytes.0 as f64);
        ctx.layer("frozen.approx_arena_bytes", reference_bytes.1 as f64);
        ctx.layer("maximize.greedy_ms", median(&topk_ms));
        ctx.layer("oracle.seed_dedup_ratio", seed_dedup_ratio(&all_sets));
        ctx.layer("delta.append_ns", median(&append_ns));
        for (metric, span) in [
            ("delta.persist_pending_ms", "delta.persist_pending"),
            ("delta.refresh_ms", "delta.refresh"),
            ("delta.compact_ms", "delta.compact"),
            ("delta.save_layered_ms", "delta.save_layered"),
        ] {
            let v = med_ms(ctx, span);
            ctx.layer(metric, v);
        }
        ctx.layer(
            "engine.vhll_ns_per_interaction",
            median(&refresh_ns_per_interaction),
        );
        let v = median(&ctx.spans.durations("delta.query")) / FRAME_WIDTH as f64;
        ctx.layer("delta.query_ns", v);
        let v = frozen_ratio(&base, &suffix, &z, &frames);
        ctx.layer("delta.query_vs_frozen_ratio", v);
        ctx.layer(
            "delta.survivor_ratio",
            survivors.iter().sum::<f64>() / survivors.len().max(1) as f64,
        );
    }
}

/// Set-up: the edge list on disk parsed and split, the base oracle built
/// over the first 80% and saved. Returns the oracle, the history it holds
/// and the interactions left to append, and records its wall time.
fn set_up(
    ctx: &mut Ctx,
    path: &Path,
    dir: &Path,
    window: Window,
    setup: &mut Vec<f64>,
) -> (LayeredApproxOracle, Vec<Interaction>, Vec<Interaction>) {
    let t = Instant::now();
    let open = ctx.spans.begin("setup");
    let net = stack::parse(path, &mut ctx.spans);
    let cut = net.num_interactions() * 4 / 5;
    let prefix = net.interactions()[..cut].to_vec();
    let suffix = net.interactions()[cut..].to_vec();
    let base_net = InteractionNetwork::builder()
        .with_min_nodes(net.num_nodes())
        .extend(prefix.iter().copied())
        .build();
    let base = ctx.spans.scope("delta.base_build", cut as u64, || {
        LayeredApproxOracle::from_network_with_precision(&base_net, window, PRECISION)
    });
    save(&base, dir, "setup.save_layered", ctx);
    ctx.spans.end(open, 0);
    setup.push(secs(t));
    (base, prefix, suffix)
}

/// Layered query time over the frozen query time of its own base, on the
/// workload's frames at the states one cycle queries them in. It replays a
/// cycle after the timed window, so the traced and untraced cycles do the
/// same work, and it alternates which query of a pair runs first, so that
/// neither always finds the cache warm.
fn frozen_ratio(
    base: &LayeredApproxOracle,
    suffix: &[Interaction],
    z: &Sizes,
    frames: &[Vec<Vec<NodeId>>],
) -> f64 {
    let mut layered = base.clone();
    let (mut layered_ns, mut frozen_ns) = (0.0, 0.0);
    let mut next = 0;
    for (b, batch) in suffix.chunks(z.batch).enumerate() {
        // The timed cycles count rejected appends; the replay skips them.
        for &i in batch {
            let _ = layered.append(i);
        }
        layered.refresh();
        for _ in 0..z.frames_per_batch {
            let sets = &frames[next % frames.len()];
            next += 1;
            let time_layered = || {
                let q = Instant::now();
                std::hint::black_box(layered.influence_many_frozen(sets, 1));
                q.elapsed().as_nanos() as f64
            };
            let time_frozen = || {
                let q = Instant::now();
                std::hint::black_box(layered.base().influence_many_frozen(sets, 1));
                q.elapsed().as_nanos() as f64
            };
            let (l, f) = if next % 2 == 0 {
                let l = time_layered();
                (l, time_frozen())
            } else {
                let f = time_frozen();
                (time_layered(), f)
            };
            layered_ns += l;
            frozen_ns += f;
        }
        if (b + 1) % z.compact_every == 0 {
            layered.compact();
        }
    }
    layered_ns / frozen_ns
}

fn save(layered: &LayeredApproxOracle, dir: &Path, span: &'static str, ctx: &mut Ctx) -> bool {
    let open = ctx.spans.begin(span);
    let ok = layered.save_layered(dir).is_ok();
    ctx.spans.end(open, 0);
    ctx.ops.record("churn.save_layered", ok);
    ok
}

/// The layered answers must equal a from-scratch frozen build over the
/// history the layered oracle holds (after a compaction: the interactions
/// inside the window of the new frontier), on the same node universe; so
/// must its top-k picks, when given.
fn check(
    ctx: &mut Ctx,
    layered: &LayeredApproxOracle,
    history: &[Interaction],
    window: Window,
    sets: &[Vec<NodeId>],
    picks: Option<&[Selection]>,
    when: &str,
) -> u64 {
    let universe = InfluenceOracle::num_nodes(layered);
    let store = ctx
        .spans
        .scope("engine.vhll_build", history.len() as u64, || {
            ReversePassEngine::run_slice(
                history,
                window,
                VhllStore::with_nodes(PRECISION, universe),
            )
        });
    let reference: FrozenApproxOracle =
        ctx.spans
            .scope("frozen.freeze_vhll", universe as u64, || store.freeze());
    let expected = reference.influence_many_frozen(sets, 1);
    let got = layered.influence_many_frozen(sets, 1);
    ctx.checker
        .bits(&format!("layered answers {when}"), &expected, &got);
    if let Some(picks) = picks {
        let expected = greedy_top_k_threads(&reference, TOPK_K, 1);
        ctx.checker.bits(
            &format!("layered top-k picks {when}"),
            &picks_flat(&expected),
            &picks_flat(picks),
        );
    }
    reference.image().len() as u64
}

/// Mean relative error of the layered vHLL answers against an exact
/// from-scratch build over the same history, and that build's arena bytes.
fn rel_error(
    ctx: &mut Ctx,
    layered: &LayeredApproxOracle,
    history: &[Interaction],
    window: Window,
    sets: &[Vec<NodeId>],
) -> (f64, u64) {
    let universe = InfluenceOracle::num_nodes(layered);
    let store = ctx
        .spans
        .scope("engine.exact_build", history.len() as u64, || {
            ReversePassEngine::run_slice(history, window, ExactStore::with_nodes(universe))
        });
    let exact = ctx.spans.scope("frozen.freeze_exact", universe as u64, || {
        store.freeze(window)
    });
    let err = mean_rel_error(
        &layered.influence_many_frozen(sets, 1),
        &exact.influence_many_frozen(sets, 1),
    );
    (err, exact.image().len() as u64)
}
