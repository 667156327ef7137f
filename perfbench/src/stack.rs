//! The build stack shared by the workloads: generated edge list on disk →
//! parse → exact and vHLL builds → freeze → publish → load + validate. Each
//! layer call is wrapped in a span named after the layer.

use crate::util::{edge_list_bytes, median, Fnv, Rng, Spans};
use crate::Ctx;
use infprop_core::serve::ServedOracle;
use infprop_core::{ApproxIrs, ExactIrs, FrozenApproxOracle, FrozenExactOracle, NoopRecorder};
use infprop_temporal_graph::io::read_interactions_path;
use infprop_temporal_graph::{InteractionNetwork, Window};
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Sketch precision of every vHLL build: `β = 2^9 = 512` registers.
pub const PRECISION: u8 = 9;

/// Time span and window for `m` interactions, in the proportions of the
/// repository's uniform trajectory profile: the span is 2.5 time units per
/// interaction and the window a tenth of the span.
pub fn time_shape(m: usize) -> (i64, Window) {
    let span = m as i64 * 5 / 2;
    (span, Window(span / 10))
}

/// Uniform edge list: `m` interactions between distinct uniform endpoints
/// over `n` nodes, timestamps uniform over `0..span`, sorted.
pub fn uniform_edges(rng: &mut Rng, n: u32, m: usize, span: i64) -> Vec<(u32, u32, i64)> {
    edges(rng, m, span, |rng| {
        let a = rng.below(u64::from(n)) as u32;
        (a, rng.below(u64::from(n)) as u32)
    })
}

/// Hub-skewed edge list: half the sources come from `hubs` hub nodes.
pub fn hub_edges(rng: &mut Rng, n: u32, m: usize, span: i64, hubs: u32) -> Vec<(u32, u32, i64)> {
    edges(rng, m, span, |rng| {
        let a = if rng.next_u64() & 1 == 0 {
            rng.below(u64::from(hubs)) as u32
        } else {
            rng.below(u64::from(n)) as u32
        };
        (a, rng.below(u64::from(n)) as u32)
    })
}

fn edges(
    rng: &mut Rng,
    m: usize,
    span: i64,
    mut pair: impl FnMut(&mut Rng) -> (u32, u32),
) -> Vec<(u32, u32, i64)> {
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let (a, b) = pair(rng);
        if a != b {
            out.push((a, b, rng.below(span as u64) as i64));
        }
    }
    out.sort_by_key(|e| e.2);
    out
}

/// Writes the edge list under `dir`, folds its bytes into the input
/// fingerprint, and returns the file's path.
pub fn write_edges(dir: &Path, edges: &[(u32, u32, i64)], input: &mut Fnv) -> PathBuf {
    let path = dir.join("edges.txt");
    let bytes = edge_list_bytes(edges);
    input.update(&bytes);
    fs::write(&path, bytes).expect("write the generated edge list");
    path
}

/// `temporal-graph` I/O: parses the edge list from disk.
pub fn parse(path: &Path, spans: &mut Spans) -> InteractionNetwork {
    let open = spans.begin("temporal_graph.parse");
    let net = read_interactions_path(path)
        .expect("the generated edge list parses")
        .network;
    spans.end(open, net.num_interactions() as u64);
    net
}

/// Both frozen arenas of one network, as built in memory and as published.
pub struct Published {
    pub exact: FrozenExactOracle,
    pub approx: FrozenApproxOracle,
    pub exact_path: PathBuf,
    pub approx_path: PathBuf,
}

impl Published {
    pub fn bytes(&self) -> (u64, u64) {
        (
            self.exact.image().len() as u64,
            self.approx.image().len() as u64,
        )
    }
}

/// Exact and vHLL builds, freeze, and publish (tmp + rename) into `dir`.
/// Each IRS is dropped once frozen, as a one-shot build would.
pub fn build_and_publish(
    net: &InteractionNetwork,
    window: Window,
    dir: &Path,
    spans: &mut Spans,
) -> Published {
    let m = net.num_interactions() as u64;
    let n = net.num_nodes() as u64;
    let irs = spans.scope("engine.exact_build", m, || ExactIrs::compute(net, window));
    let exact = spans.scope("frozen.freeze_exact", n, || irs.freeze());
    drop(irs);
    let irs = spans.scope("engine.vhll_build", m, || {
        ApproxIrs::compute_with_precision(net, window, PRECISION)
    });
    let approx = spans.scope("frozen.freeze_vhll", n, || irs.freeze());
    drop(irs);
    let exact_path = dir.join("oracle.ipfe");
    let approx_path = dir.join("oracle.ipfa");
    let open = spans.begin("persist.publish");
    publish(&exact_path, |w| exact.write_to(w));
    publish(&approx_path, |w| approx.write_to(w));
    let published = Published {
        exact,
        approx,
        exact_path,
        approx_path,
    };
    let (e, a) = published.bytes();
    spans.end(open, e + a);
    published
}

/// Writes through a `.tmp` sibling and renames it into place, so a reader
/// never sees a half-written arena.
fn publish<E: std::fmt::Debug>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) {
    let tmp = path.with_extension("tmp");
    let mut w = BufWriter::new(File::create(&tmp).expect("create the arena file"));
    write(&mut w).expect("write the arena");
    w.flush().expect("flush the arena");
    drop(w);
    fs::rename(&tmp, path).expect("publish the arena");
}

/// Loads and deeply validates both published arenas through the serving
/// tier's open path; returns them in serving order (approx = 0, exact = 1).
pub fn load(p: &Published, spans: &mut Spans) -> Vec<ServedOracle> {
    let (e, a) = p.bytes();
    spans.scope("arena.load", e + a, || {
        [&p.approx_path, &p.exact_path]
            .into_iter()
            .map(|path| ServedOracle::open_recorded(path, &NoopRecorder).expect("arena loads"))
            .collect()
    })
}

/// The loaded arenas must be bit-identical to the in-memory frozen ones.
pub fn check_images(p: &Published, served: &[ServedOracle], checker: &mut crate::util::Checker) {
    match served {
        [ServedOracle::FrozenApprox(a), ServedOracle::FrozenExact(e)] => {
            checker.bytes("loaded IPFA image", p.approx.image(), a.image());
            checker.bytes("loaded IPFE image", p.exact.image(), e.image());
        }
        _ => checker.fail("loaded arenas are not the published frozen kinds".into()),
    }
}

pub const APPROX: u8 = 0;
pub const EXACT: u8 = 1;

/// The two loaded frozen oracles, in serving order.
pub fn frozen(served: &[ServedOracle]) -> (&FrozenApproxOracle, &FrozenExactOracle) {
    match served {
        [ServedOracle::FrozenApprox(a), ServedOracle::FrozenExact(e)] => (a, e),
        _ => panic!("served oracles are [approx, exact]"),
    }
}

/// The sketch-drift guard: the mean relative error of the vHLL answers
/// must stay within 3 × 1.04/√β. Records `vhll_rel_error`.
pub fn check_rel_error(ctx: &mut Ctx, err: f64) {
    ctx.checker.holds(
        "vhll_rel_error within 3 x 1.04/sqrt(beta)",
        err <= 3.0 * 1.04 / f64::from(1u32 << PRECISION).sqrt(),
    );
    ctx.e2e("vhll_rel_error", err);
}

/// The build stack's per-layer figures: medians of its spans over the run,
/// for `m` interactions and arenas of `bytes` (exact, approx).
pub fn build_layers(ctx: &mut Ctx, m: usize, bytes: (u64, u64)) {
    let med = |ctx: &Ctx, span: &str| median(&ctx.spans.durations(span));
    for (metric, span) in [
        ("temporal_graph.parse_s", "temporal_graph.parse"),
        ("engine.exact_build_s", "engine.exact_build"),
        ("engine.vhll_build_s", "engine.vhll_build"),
        ("frozen.freeze_exact_s", "frozen.freeze_exact"),
        ("frozen.freeze_vhll_s", "frozen.freeze_vhll"),
        ("persist.publish_s", "persist.publish"),
        ("arena.load_s", "arena.load"),
    ] {
        let v = med(ctx, span) / 1e9;
        ctx.layer(metric, v);
    }
    let v = med(ctx, "engine.vhll_build") / m as f64;
    ctx.layer("engine.vhll_ns_per_interaction", v);
    ctx.layer("frozen.exact_arena_bytes", bytes.0 as f64);
    ctx.layer("frozen.approx_arena_bytes", bytes.1 as f64);
}
