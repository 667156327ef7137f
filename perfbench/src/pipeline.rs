//! `build-pipeline`: a generated uniform edge list goes through parse →
//! exact + vHLL build → freeze → publish → load + validate → the first
//! frames answered. Nearly all the time is in `engine`/`hll`/`frozen`/
//! `persist`; `kernel` and `serve` answer one short pass of frames per
//! load, so a build or arena-format change shows here and not in
//! `serve-read`'s steady state.
//!
//! The frames are answered twice per load: first in-process through
//! `serve::answer_frame`, which the query figures time, then over the
//! server's Unix socket, whose replies must match byte for byte. The query
//! figures leave the wire out: a lone connection's round trip on a small
//! virtual machine is mostly the wake-up of the other CPU, and its median
//! swung by a quarter from run to run.

use crate::serve_read::{self, ClientOut};
use crate::stack;
use crate::util::{median, peak_rss_mb, quantile, secs, Rng, Zipf};
use crate::Ctx;
use infprop_core::serve::Server;
use std::time::Instant;

pub fn run(ctx: &mut Ctx) {
    let (n, m, frames) = if ctx.tiny {
        (400, 4_000, 20)
    } else {
        (20_000, 200_000, 100)
    };
    let (span, window) = stack::time_shape(m);
    let mut rng = Rng::new(ctx.seed);
    let path = stack::write_edges(
        &ctx.dir,
        &stack::uniform_edges(&mut rng, n, m, span),
        &mut ctx.input,
    );

    let t = Instant::now();
    let mut net = stack::parse(&path, &mut ctx.spans);
    let mut setup = vec![secs(t)];
    // Frames draw seeds from the parsed universe (labels the generator
    // never drew are absent from it).
    let universe = net.num_nodes() as u32;
    let zipf = Zipf::new(universe as usize, &mut rng);
    let frames = serve_read::schedule(&mut rng, &zipf, universe, frames);
    for f in &frames {
        ctx.input.update(&f.payload);
    }
    let sock = ctx.dir.join("pipeline.sock");

    // Per pass: write-path rate, served seed sets per second, latency tail.
    let mut ingest = Vec::new();
    let mut qps = Vec::new();
    let mut p99 = Vec::new();
    let mut latencies = Vec::new();
    let mut topk = Vec::new();
    let mut bytes = (0, 0);
    let mut last: Option<(Server, ClientOut)> = None;
    ctx.start_timed();
    let start = Instant::now();
    while ingest.is_empty() || secs(start) < ctx.seconds {
        // Set-up (parsing the edge list) runs again before every pass, so
        // its median spans the whole run, not one burst of host noise.
        if !ingest.is_empty() {
            let t = Instant::now();
            net = stack::parse(&path, &mut ctx.spans);
            setup.push(secs(t));
        }
        // The previous server must go first: dropping it unlinks its socket.
        drop(last.take());
        let open = ctx.spans.begin("pipeline");
        let t = Instant::now();
        let published = stack::build_and_publish(&net, window, &ctx.dir, &mut ctx.spans);
        let served = stack::load(&published, &mut ctx.spans);
        ingest.push(m as f64 / secs(t));
        let local = serve_read::answer_locally(&served, &frames, &mut ctx.spans);
        let (server, out) = serve_read::serve_once(served, &sock, &frames, &mut ctx.spans);
        ctx.spans.end(open, m as u64);

        ctx.ops.absorb(&local.ops);
        ctx.ops.absorb(&out.ops);
        serve_read::same_replies(ctx, &local, &out);
        let lat: Vec<f64> = local.influence.iter().map(|x| x.2).collect();
        p99.push(quantile(&lat, 0.99));
        latencies.extend(lat);
        qps.push(local.sets_per_busy_second());
        topk.extend_from_slice(&local.topk_ms);
        stack::check_images(&published, server.oracles(), &mut ctx.checker);
        let (approx, exact) = stack::frozen(server.oracles());
        serve_read::verify(
            ctx,
            std::slice::from_ref(&frames),
            std::slice::from_ref(&local),
            approx,
            exact,
        );
        bytes = published.bytes();
        last = Some((server, out));
    }
    let (server, out) = last.expect("one pass ran");

    ctx.e2e("setup_s", median(&setup));
    ctx.e2e("peak_rss_mb", peak_rss_mb());
    ctx.e2e("ingest_interactions_per_s", median(&ingest));
    ctx.e2e(
        "arena_bytes_per_interaction",
        (bytes.0 + bytes.1) as f64 / m as f64,
    );
    // Passes do identical work, so the median pass sets the rate and the
    // tail, and a burst of host noise in one pass does not.
    ctx.e2e("query_qps", median(&qps));
    ctx.e2e("query_frame_p50_us", quantile(&latencies, 0.5));
    ctx.e2e("query_frame_p99_us", median(&p99));
    ctx.e2e("topk_p50_ms", median(&topk));
    let (approx, exact) = stack::frozen(server.oracles());
    let err = serve_read::vhll_rel_error(std::slice::from_ref(&frames), approx, exact);
    stack::check_rel_error(ctx, err);
    if ctx.spans.on() {
        stack::build_layers(ctx, m, bytes);
        serve_read::serving_layers(
            ctx,
            std::slice::from_ref(&frames),
            std::slice::from_ref(&out),
            &server,
        );
    }
}
