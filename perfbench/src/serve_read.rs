//! `serve-read`: an in-process `serve::Server` on a Unix socket serves a
//! vHLL arena and an exact arena to two closed-loop client connections
//! (callers wait for each reply), one thread per connection. `serve` and
//! `kernel` do the work; `engine` is idle after set-up. The `par` fan-out
//! at the CLI-default thread count is measured in the traced replay.
//!
//! The frame schedule, the client loop, the answer checks and the serving
//! layers' replay are shared with `build-pipeline`, which serves one pass
//! of a schedule after every load.

use crate::stack::{self, APPROX, EXACT};
use crate::util::{
    mean_rel_error, median, peak_rss_mb, quantile, secs, seed_dedup_ratio, Ops, Rng, Spans, Zipf,
};
use crate::Ctx;
use infprop_core::serve::{
    answer_frame, decode_influence_response, decode_summary_response, decode_topk_response,
    encode_influence, encode_summary, encode_topk, Client, ServedOracle, Server, ServerConfig,
    STATUS_OK,
};
use infprop_core::{
    greedy_top_k_threads, par, InfluenceOracle, NoopRecorder, NoopTracer, Selection,
};
use infprop_temporal_graph::NodeId;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;

const SETUP_REPS: usize = 9;
const CLIENTS: usize = 2;
const TOPK_K: u32 = 16;
const WIDTHS: [usize; 3] = [1, 16, 256];
/// INFLUENCE frame widths in schedule order: three width-1 frames to one
/// of width 16 and one of width 256. With width-1 frames the majority, the
/// median frame is a width-1 frame; in equal numbers the median fell on the
/// edge between the width-16 frames of the two oracles and jumped between
/// them from run to run.
const MIX: [usize; 5] = [1, 1, 1, 16, 256];
/// Batch threads per connection. At the CLI default (one per core), both
/// connections fan every batch out through `par`, which spawns its workers
/// per batch; on a shared two-core host that made served throughput swing
/// twofold within a run and across runs, more than any bound the benchmark
/// may set. The fan-out is measured in the traced replay instead
/// (`par.batch_speedup_w*`).
const SERVER_THREADS: usize = 1;
/// In-process replays of the schedule behind the kernel and par figures.
const REPLAYS: usize = 3;

pub enum Kind {
    Influence { oracle: u8, sets: Vec<Vec<NodeId>> },
    TopK { oracle: u8 },
    Summary { oracle: u8, node: NodeId },
}

pub struct Frame {
    pub kind: Kind,
    pub payload: Vec<u8>,
}

impl Frame {
    fn op(&self) -> &'static str {
        match self.kind {
            Kind::Influence { .. } => "serve.influence",
            Kind::TopK { .. } => "serve.topk",
            Kind::Summary { .. } => "serve.summary",
        }
    }

    fn width(&self) -> usize {
        match &self.kind {
            Kind::Influence { sets, .. } => sets.len(),
            _ => 0,
        }
    }
}

/// One client's frame list: about 1% TOPK and 1% SUMMARY frames, the rest
/// INFLUENCE frames of width 1, 16 or 256 in the proportions of [`MIX`],
/// split across both oracles; counts are fixed and only positions and
/// seeds vary with the seed, so every seed carries the same mix of work.
pub fn schedule(rng: &mut Rng, zipf: &Zipf, n: u32, frames: usize) -> Vec<Frame> {
    let special = (frames / 100).max(1);
    let mut kinds = Vec::with_capacity(frames);
    for i in 0..special {
        // The first TOPK and SUMMARY frames go to the exact oracle, so a
        // schedule with one of each (build-pipeline's) runs greedy on the
        // exact arena: on the vHLL arena one input in eight (seed 35) took
        // 13.7 ms instead of about 0.8, a per-input swing that no
        // statistic over one input's runs can smooth.
        let oracle = ((i + 1) % 2) as u8;
        kinds.push(Kind::TopK { oracle });
        let node = NodeId(rng.below(u64::from(n)) as u32);
        kinds.push(Kind::Summary { oracle, node });
    }
    for i in 0..frames - 2 * special {
        let width = MIX[i % MIX.len()];
        let oracle = ((i / MIX.len()) % 2) as u8;
        let sets = (0..width).map(|_| zipf.seed_set(rng)).collect();
        kinds.push(Kind::Influence { oracle, sets });
    }
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.below(i as u64 + 1) as usize);
    }
    kinds
        .into_iter()
        .map(|kind| {
            let payload = match &kind {
                Kind::Influence { oracle, sets } => encode_influence(*oracle, sets),
                Kind::TopK { oracle } => encode_topk(*oracle, TOPK_K),
                Kind::Summary { oracle, node } => encode_summary(*oracle, *node),
            };
            Frame { kind, payload }
        })
        .collect()
}

/// What one closed-loop client saw.
#[derive(Default)]
pub struct ClientOut {
    /// (frame width, second of the window it finished in, round-trip µs;
    /// infinite when the op failed).
    pub influence: Vec<(usize, usize, f64)>,
    pub topk_ms: Vec<f64>,
    /// Seed sets answered, per second of the window.
    sets_per_second: Vec<u64>,
    /// First response to each schedule slot; repeats must match it.
    first: Vec<Option<Vec<u8>>>,
    changed: u64,
    pub ops: Ops,
}

impl ClientOut {
    /// Seed sets answered per second of INFLUENCE round-trip time.
    pub fn sets_per_busy_second(&self) -> f64 {
        let sets: usize = self.influence.iter().map(|x| x.0).sum();
        let us: f64 = self.influence.iter().map(|x| x.2).sum();
        sets as f64 / (us / 1e6)
    }
}

fn client_loop(
    sock: &Path,
    frames: &[Frame],
    start: Instant,
    deadline: Instant,
    spans: &mut Spans,
) -> ClientOut {
    let mut out = ClientOut {
        first: vec![None; frames.len()],
        ..ClientOut::default()
    };
    let mut client = match Client::connect_unix(sock) {
        Ok(c) => c,
        Err(_) => {
            out.ops.record("serve.connect", false);
            return out;
        }
    };
    // At least one pass over the schedule, so every frame is answered and
    // checked however short the window.
    let mut i = 0;
    while i < frames.len() || Instant::now() < deadline {
        let slot = i % frames.len();
        let f = &frames[slot];
        let open = spans.begin(f.op());
        let t = Instant::now();
        let reply = client.roundtrip(&f.payload);
        let us = t.elapsed().as_secs_f64() * 1e6;
        spans.end(open, f.width() as u64);
        let ok = matches!(&reply, Ok(p) if p.first() == Some(&STATUS_OK));
        out.ops.record(f.op(), ok);
        let lat = if ok { us } else { f64::INFINITY };
        let second = start.elapsed().as_secs() as usize;
        match f.kind {
            Kind::Influence { .. } => out.influence.push((f.width(), second, lat)),
            Kind::TopK { .. } => out.topk_ms.push(lat / 1e3),
            Kind::Summary { .. } => {}
        }
        if ok {
            if out.sets_per_second.len() <= second {
                out.sets_per_second.resize(second + 1, 0);
            }
            out.sets_per_second[second] += f.width() as u64;
        }
        match reply {
            Ok(p) => match &out.first[slot] {
                None => out.first[slot] = Some(p),
                Some(prev) => out.changed += u64::from(*prev != p),
            },
            // The connection is unusable; the failure is counted, never
            // retried.
            Err(_) => break,
        }
        i += 1;
    }
    out
}

pub fn run(ctx: &mut Ctx) {
    let (n, m, frames) = if ctx.tiny {
        (300u32, 3_000usize, 100usize)
    } else {
        (40_000, 200_000, 400)
    };
    let (span, window) = stack::time_shape(m);
    let mut rng = Rng::new(ctx.seed);
    let path = stack::write_edges(
        &ctx.dir,
        &stack::uniform_edges(&mut rng, n, m, span),
        &mut ctx.input,
    );
    let sock = ctx.dir.join("serve.sock");

    // Set-up: edge list on disk → a bound server over loaded arenas.
    let mut setup = Vec::new();
    // Interactions per second of the write path (build, freeze, publish,
    // load) in each set-up.
    let mut ingest = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // The previous server must go first: dropping it unlinks its socket.
        drop(state.take());
        let t = Instant::now();
        let open = ctx.spans.begin("setup");
        let net = stack::parse(&path, &mut ctx.spans);
        let w = Instant::now();
        let published = stack::build_and_publish(&net, window, &ctx.dir, &mut ctx.spans);
        drop(net);
        let served = stack::load(&published, &mut ctx.spans);
        ingest.push(m as f64 / secs(w));
        let server = bind(served, &sock, &mut ctx.spans);
        ctx.spans.end(open, 0);
        setup.push(secs(t));
        state = Some((published, server));
    }
    let (published, server) = state.expect("set-up ran");
    stack::check_images(&published, server.oracles(), &mut ctx.checker);
    let bytes = published.bytes();
    drop(published);

    // Frames draw seeds from the parsed universe (labels the generator
    // never drew are absent from it).
    let universe = server.oracles()[0].num_nodes() as u32;
    let zipf = Zipf::new(universe as usize, &mut rng);
    let schedules: Vec<Vec<Frame>> = (0..CLIENTS)
        .map(|_| schedule(&mut rng, &zipf, universe, frames))
        .collect();
    for f in schedules.iter().flatten() {
        ctx.input.update(&f.payload);
    }

    // The timed window: two closed-loop clients against the server. Its
    // peak RSS is the served arenas plus serving, not the set-up build.
    ctx.start_timed();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(ctx.seconds);
    let (outs, window_s) = std::thread::scope(|s| {
        let runner = s.spawn(|| server.run(&NoopRecorder, NoopTracer));
        let clients: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, frames)| {
                let mut lane = ctx.spans.lane(c as u32 + 1);
                let sock = &sock;
                s.spawn(move || (client_loop(sock, frames, start, deadline, &mut lane), lane))
            })
            .collect();
        let outs: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        let window_s = secs(start);
        server.stop_handle().store(true, Ordering::Release);
        runner
            .join()
            .expect("server thread")
            .expect("server runs cleanly");
        (outs, window_s)
    });
    let outs: Vec<ClientOut> = outs
        .into_iter()
        .map(|(out, lane)| {
            ctx.spans.absorb(lane);
            out
        })
        .collect();

    let (approx, exact) = stack::frozen(server.oracles());
    verify(ctx, &schedules, &outs, approx, exact);

    let mut influence = Vec::new();
    let mut topk = Vec::new();
    let mut per_second = Vec::new();
    for o in &outs {
        ctx.ops.absorb(&o.ops);
        influence.extend(o.influence.iter().map(|x| (x.1, x.2)));
        topk.extend_from_slice(&o.topk_ms);
        per_second.resize(per_second.len().max(o.sets_per_second.len()), 0);
        for (p, s) in per_second.iter_mut().zip(&o.sets_per_second) {
            *p += s;
        }
    }
    // Throughput and the latency tail are medians over the window's whole
    // seconds, so a burst of host noise in one second does not set them;
    // a window shorter than two seconds falls back to the whole window.
    let whole = (window_s as usize).min(per_second.len());
    let qps = if whole >= 2 {
        median(
            &per_second[..whole]
                .iter()
                .map(|&s| s as f64)
                .collect::<Vec<_>>(),
        )
    } else {
        per_second.iter().sum::<u64>() as f64 / window_s
    };
    ctx.e2e("setup_s", median(&setup));
    ctx.e2e("peak_rss_mb", peak_rss_mb());
    ctx.e2e("ingest_interactions_per_s", median(&ingest));
    ctx.e2e(
        "arena_bytes_per_interaction",
        (bytes.0 + bytes.1) as f64 / m as f64,
    );
    ctx.e2e("query_qps", qps);
    let all: Vec<f64> = influence.iter().map(|x| x.1).collect();
    ctx.e2e("query_frame_p50_us", quantile(&all, 0.5));
    ctx.e2e(
        "query_frame_p99_us",
        windowed_quantile(&influence, whole, 0.99),
    );
    ctx.e2e("topk_p50_ms", median(&topk));
    let err = vhll_rel_error(&schedules, approx, exact);
    stack::check_rel_error(ctx, err);

    if ctx.spans.on() {
        stack::build_layers(ctx, m, bytes);
        serving_layers(ctx, &schedules, &outs, &server);
    }
}

/// Answers one pass over `frames` in-process through the public
/// `serve::answer_frame`, the call the server makes per frame, timing each
/// frame the way a client times its round trip. Nothing crosses a socket
/// or a thread.
pub fn answer_locally(oracles: &[ServedOracle], frames: &[Frame], spans: &mut Spans) -> ClientOut {
    let mut out = ClientOut {
        first: vec![None; frames.len()],
        ..ClientOut::default()
    };
    for (slot, f) in frames.iter().enumerate() {
        let open = spans.begin("serve.answer_frame");
        let t = Instant::now();
        let (reply, _) = answer_frame(
            oracles,
            &f.payload,
            SERVER_THREADS,
            &NoopRecorder,
            NoopTracer,
        );
        let us = t.elapsed().as_secs_f64() * 1e6;
        spans.end(open, f.width() as u64);
        let ok = reply.first() == Some(&STATUS_OK);
        out.ops.record(f.op(), ok);
        let lat = if ok { us } else { f64::INFINITY };
        match f.kind {
            Kind::Influence { .. } => out.influence.push((f.width(), 0, lat)),
            Kind::TopK { .. } => out.topk_ms.push(lat / 1e3),
            Kind::Summary { .. } => {}
        }
        out.first[slot] = Some(reply);
    }
    out
}

/// The served replies must be byte-identical to the in-process ones.
pub fn same_replies(ctx: &mut Ctx, local: &ClientOut, served: &ClientOut) {
    for (l, s) in local.first.iter().zip(&served.first) {
        match (l, s) {
            (Some(l), Some(s)) => ctx.checker.bytes("served reply", l, s),
            _ => ctx.checker.fail("a frame went unanswered".into()),
        }
    }
}

/// Binds a server over the loaded arenas on the Unix socket `sock`.
fn bind(served: Vec<ServedOracle>, sock: &Path, spans: &mut Spans) -> Server {
    let config = ServerConfig {
        unix_path: Some(sock.to_path_buf()),
        tcp_addr: None,
        threads: SERVER_THREADS,
    };
    spans.scope("serve.bind", 0, || {
        Server::bind(&config, served).expect("bind the server")
    })
}

/// Binds a server over the loaded arenas, answers one pass over `frames`
/// from one client connection, and stops it. Returns the stopped server,
/// whose oracles the caller checks the replies against, and what the
/// client saw.
pub fn serve_once(
    served: Vec<ServedOracle>,
    sock: &Path,
    frames: &[Frame],
    spans: &mut Spans,
) -> (Server, ClientOut) {
    let server = bind(served, sock, spans);
    let out = std::thread::scope(|s| {
        let runner = s.spawn(|| server.run(&NoopRecorder, NoopTracer));
        let now = Instant::now();
        let out = client_loop(sock, frames, now, now, spans);
        server.stop_handle().store(true, Ordering::Release);
        runner
            .join()
            .expect("server thread")
            .expect("server runs cleanly");
        out
    });
    (server, out)
}

/// The `q` quantile of each of the first `whole` seconds' samples, then
/// their median; with fewer than two whole seconds, the plain quantile.
fn windowed_quantile(samples: &[(usize, f64)], whole: usize, q: f64) -> f64 {
    if whole < 2 {
        return quantile(&samples.iter().map(|x| x.1).collect::<Vec<_>>(), q);
    }
    let mut by_second = vec![Vec::new(); whole];
    for &(second, v) in samples {
        if second < whole {
            by_second[second].push(v);
        }
    }
    let per: Vec<f64> = by_second.iter().map(|v| quantile(v, q)).collect();
    median(&per)
}

fn oracle_of<'a>(
    oracle: u8,
    approx: &'a infprop_core::FrozenApproxOracle,
    exact: &'a infprop_core::FrozenExactOracle,
    sets: &[Vec<NodeId>],
    threads: usize,
) -> Vec<f64> {
    if oracle == APPROX {
        approx.influence_many_frozen(sets, threads)
    } else {
        exact.influence_many_frozen(sets, threads)
    }
}

/// Top-k picks as numbers, for bit-exact comparison.
pub fn picks_flat(picks: &[Selection]) -> Vec<f64> {
    picks
        .iter()
        .flat_map(|s| [f64::from(s.node.0), s.marginal, s.cumulative])
        .collect()
}

/// Every recorded reply must equal the in-process answer on the same
/// loaded arena, and every repeat of a frame must equal its first reply.
pub fn verify(
    ctx: &mut Ctx,
    schedules: &[Vec<Frame>],
    outs: &[ClientOut],
    approx: &infprop_core::FrozenApproxOracle,
    exact: &infprop_core::FrozenExactOracle,
) {
    let mut greedy: [Option<Vec<f64>>; 2] = [None, None];
    for (frames, out) in schedules.iter().zip(outs) {
        ctx.checker
            .holds("served replies repeat bit-identically", out.changed == 0);
        for (f, reply) in frames.iter().zip(&out.first) {
            let Some(reply) = reply else { continue };
            match &f.kind {
                Kind::Influence { oracle, sets } => {
                    let expected = oracle_of(*oracle, approx, exact, sets, 1);
                    match decode_influence_response(reply) {
                        Ok(got) => ctx.checker.bits("served INFLUENCE", &expected, &got),
                        Err(e) => ctx.checker.fail(format!("INFLUENCE reply: {e}")),
                    }
                }
                Kind::TopK { oracle } => {
                    let expected = greedy[usize::from(*oracle)]
                        .get_or_insert_with(|| {
                            let k = TOPK_K as usize;
                            picks_flat(&if *oracle == APPROX {
                                greedy_top_k_threads(approx, k, 1)
                            } else {
                                greedy_top_k_threads(exact, k, 1)
                            })
                        })
                        .clone();
                    match decode_topk_response(reply) {
                        Ok(got) => ctx
                            .checker
                            .bits("served TOPK", &expected, &picks_flat(&got)),
                        Err(e) => ctx.checker.fail(format!("TOPK reply: {e}")),
                    }
                }
                Kind::Summary { oracle, node } => match decode_summary_response(reply) {
                    Ok(got) => {
                        let expected = if *oracle == APPROX {
                            approx.individual(*node)
                        } else {
                            exact.individual(*node)
                        };
                        ctx.checker
                            .bits("served SUMMARY", &[expected], &[got.individual]);
                        let entries = (*oracle == EXACT).then(|| exact.summary(*node).to_vec());
                        ctx.checker
                            .holds("served SUMMARY entries", got.entries == entries);
                    }
                    Err(e) => ctx.checker.fail(format!("SUMMARY reply: {e}")),
                },
            }
        }
    }
}

/// Mean |approx − exact| / exact over the seed sets of every approx
/// INFLUENCE frame in the schedule (sets whose exact answer is 0 skipped).
pub fn vhll_rel_error(
    schedules: &[Vec<Frame>],
    approx: &infprop_core::FrozenApproxOracle,
    exact: &infprop_core::FrozenExactOracle,
) -> f64 {
    let sets: Vec<Vec<NodeId>> = schedules
        .iter()
        .flatten()
        .filter_map(|f| match &f.kind {
            Kind::Influence {
                oracle: APPROX,
                sets,
            } => Some(sets.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    let threads = par::default_threads();
    mean_rel_error(
        &approx.influence_many_frozen(&sets, threads),
        &exact.influence_many_frozen(&sets, threads),
    )
}

/// The serving layers' figures (`kernel`, `par`, `oracle`, `serve`,
/// `maximize`), measured in-process after the timed window on the same
/// loaded arenas the server answered from.
pub fn serving_layers(
    ctx: &mut Ctx,
    schedules: &[Vec<Frame>],
    outs: &[ClientOut],
    server: &Server,
) {
    let (approx, exact) = stack::frozen(server.oracles());
    let influence: Vec<&Frame> = schedules
        .iter()
        .flatten()
        .filter(|f| matches!(f.kind, Kind::Influence { .. }))
        .collect();

    // kernel: the workload's frames replayed through the batch API at one
    // thread; par: the same replay at one thread over the CLI default.
    // The two thread counts alternate frame by frame, in both orders, so
    // neither side runs on a warmer cache.
    let mut kernel_ns = [0.0f64; 2];
    let mut kernel_sets = [0usize; 2];
    for (w, width) in WIDTHS.iter().enumerate() {
        let mut t_at = [0.0f64; 2];
        for rep in 0..REPLAYS {
            for (i, f) in influence.iter().filter(|f| f.width() == *width).enumerate() {
                let Kind::Influence { oracle, sets } = &f.kind else {
                    unreachable!()
                };
                for ti in [(rep + i) % 2, (rep + i + 1) % 2] {
                    let name = ["kernel.replay_1t", "par.replay"][ti];
                    let open = ctx.spans.begin(name);
                    let clock = Instant::now();
                    let t = [1, par::default_threads()][ti];
                    std::hint::black_box(oracle_of(*oracle, approx, exact, sets, t));
                    let ns = clock.elapsed().as_nanos() as f64;
                    ctx.spans.end(open, sets.len() as u64);
                    t_at[ti] += ns;
                    if ti == 0 {
                        kernel_ns[usize::from(*oracle)] += ns;
                        kernel_sets[usize::from(*oracle)] += sets.len();
                    }
                }
            }
        }
        let name = [
            "par.batch_speedup_w1",
            "par.batch_speedup_w16",
            "par.batch_speedup_w256",
        ][w];
        ctx.layer(name, t_at[0] / t_at[1]);
    }
    ctx.layer(
        "kernel.approx_query_ns",
        kernel_ns[0] / kernel_sets[0].max(1) as f64,
    );
    ctx.layer(
        "kernel.exact_query_ns",
        kernel_ns[1] / kernel_sets[1].max(1) as f64,
    );
    let ratio = seed_dedup_ratio(influence.iter().flat_map(|f| match &f.kind {
        Kind::Influence { sets, .. } => sets.as_slice(),
        _ => &[],
    }));
    ctx.layer("oracle.seed_dedup_ratio", ratio);

    // serve: width-1 INFLUENCE frames, where framing is most of the cost.
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut answer = Vec::new();
    let mut served = Vec::new();
    for (frames, out) in schedules.iter().zip(outs) {
        for (f, reply) in frames.iter().zip(&out.first) {
            let (Kind::Influence { oracle, sets }, Some(reply)) = (&f.kind, reply) else {
                continue;
            };
            if sets.len() != 1 {
                continue;
            }
            let clock = Instant::now();
            std::hint::black_box(encode_influence(*oracle, sets));
            encode.push(clock.elapsed().as_secs_f64() * 1e6);
            let clock = Instant::now();
            let _ = std::hint::black_box(decode_influence_response(reply));
            decode.push(clock.elapsed().as_secs_f64() * 1e6);
            let open = ctx.spans.begin("serve.answer_frame");
            let clock = Instant::now();
            let (resp, _) = answer_frame(
                server.oracles(),
                &f.payload,
                SERVER_THREADS,
                &NoopRecorder,
                NoopTracer,
            );
            answer.push(clock.elapsed().as_secs_f64() * 1e6);
            ctx.spans.end(open, 1);
            ctx.checker.bytes("answer_frame reply", reply, &resp);
        }
        served.extend(out.influence.iter().filter(|x| x.0 == 1).map(|x| x.2));
    }
    let answer_us = median(&answer);
    ctx.layer("serve.encode_us", median(&encode));
    ctx.layer("serve.decode_us", median(&decode));
    ctx.layer("serve.answer_frame_us", answer_us);
    ctx.layer("serve.wire_overhead_us", median(&served) - answer_us);

    // maximize: the TOPK frames' greedy selections, in-process.
    let mut greedy = Vec::new();
    for f in schedules.iter().flatten() {
        if let Kind::TopK { oracle } = f.kind {
            let open = ctx.spans.begin("maximize.greedy");
            let clock = Instant::now();
            let k = TOPK_K as usize;
            if oracle == APPROX {
                std::hint::black_box(greedy_top_k_threads(approx, k, SERVER_THREADS));
            } else {
                std::hint::black_box(greedy_top_k_threads(exact, k, SERVER_THREADS));
            }
            greedy.push(clock.elapsed().as_secs_f64() * 1e3);
            ctx.spans.end(open, k as u64);
        }
    }
    ctx.layer("maximize.greedy_ms", median(&greedy));
}
