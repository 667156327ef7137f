//! The infprop benchmark: three workloads driven through the public API of
//! `infprop-core` and `infprop-temporal-graph`, every answer checked, every
//! metric printed by name and unit.
//!
//! ```text
//! perfbench --workload <build-pipeline|serve-read|layered-churn>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny] [--plant-flip]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the workload twice, half the time each, once untraced and once
//! with the benchmark's own spans around every layer call (untraced first
//! on even seeds, traced first on odd ones); it prints the per-layer
//! metrics and writes the span report and the tracing overhead (traced
//! minus untraced, per end-to-end metric). Every workload prints every
//! metric of its mode; per-layer metrics of layers it leaves idle come from
//! a tiny traced run of another workload. `--tiny` shrinks every
//! input for the benchmark's own tests; `--plant-flip` flips one bit of the
//! first reference answer, which must make the run report `correct: false`.
//! The last line of standard output is the result object.

mod churn;
mod pipeline;
mod serve_read;
mod stack;
mod util;

use std::path::{Path, PathBuf};
use std::time::Instant;
use util::{Checker, Fnv, Json, Ops, Spans};

const WORKLOADS: [&str; 3] = ["build-pipeline", "serve-read", "layered-churn"];

/// End-to-end metrics: name and unit. Every workload reports every one.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ingest_interactions_per_s", "1/s"),
    ("arena_bytes_per_interaction", "B"),
    ("query_qps", "1/s"),
    ("query_frame_p50_us", "us"),
    ("query_frame_p99_us", "us"),
    ("topk_p50_ms", "ms"),
    ("vhll_rel_error", "ratio"),
];

/// Per-layer metrics: name, unit, and the end-to-end metrics it feeds.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("temporal_graph.parse_s", "s", "setup_s"),
    (
        "engine.exact_build_s",
        "s",
        "ingest_interactions_per_s, peak_rss_mb",
    ),
    (
        "engine.vhll_build_s",
        "s",
        "ingest_interactions_per_s, peak_rss_mb",
    ),
    (
        "engine.vhll_ns_per_interaction",
        "ns",
        "ingest_interactions_per_s (layered-churn: per refreshed interaction)",
    ),
    (
        "frozen.freeze_exact_s",
        "s",
        "ingest_interactions_per_s, peak_rss_mb",
    ),
    (
        "frozen.freeze_vhll_s",
        "s",
        "ingest_interactions_per_s, peak_rss_mb",
    ),
    (
        "frozen.exact_arena_bytes",
        "B",
        "arena_bytes_per_interaction, peak_rss_mb",
    ),
    (
        "frozen.approx_arena_bytes",
        "B",
        "arena_bytes_per_interaction, peak_rss_mb",
    ),
    (
        "persist.publish_s",
        "s",
        "ingest_interactions_per_s, setup_s",
    ),
    ("arena.load_s", "s", "ingest_interactions_per_s, setup_s"),
    (
        "kernel.approx_query_ns",
        "ns",
        "query_qps, query_frame_p50_us",
    ),
    (
        "kernel.exact_query_ns",
        "ns",
        "query_qps, query_frame_p50_us",
    ),
    (
        "par.batch_speedup_w1",
        "ratio",
        "query_qps, query_frame_p99_us at the CLI-default --threads",
    ),
    (
        "par.batch_speedup_w16",
        "ratio",
        "query_qps, query_frame_p99_us at the CLI-default --threads",
    ),
    (
        "par.batch_speedup_w256",
        "ratio",
        "query_qps, query_frame_p99_us at the CLI-default --threads",
    ),
    (
        "oracle.seed_dedup_ratio",
        "ratio",
        "kernel.approx_query_ns, kernel.exact_query_ns, delta.query_ns",
    ),
    ("serve.encode_us", "us", "query_frame_p50_us"),
    ("serve.decode_us", "us", "query_frame_p50_us"),
    ("serve.answer_frame_us", "us", "query_frame_p50_us"),
    ("serve.wire_overhead_us", "us", "query_frame_p50_us"),
    ("maximize.greedy_ms", "ms", "topk_p50_ms"),
    ("delta.append_ns", "ns", "ingest_interactions_per_s"),
    (
        "delta.persist_pending_ms",
        "ms",
        "ingest_interactions_per_s",
    ),
    ("delta.refresh_ms", "ms", "ingest_interactions_per_s"),
    ("delta.query_ns", "ns", "query_frame_p50_us"),
    ("delta.query_vs_frozen_ratio", "ratio", "query_frame_p50_us"),
    (
        "delta.compact_ms",
        "ms",
        "query_frame_p99_us, arena_bytes_per_interaction",
    ),
    (
        "delta.save_layered_ms",
        "ms",
        "query_frame_p99_us, arena_bytes_per_interaction",
    ),
    (
        "delta.survivor_ratio",
        "ratio",
        "query_frame_p99_us, arena_bytes_per_interaction",
    ),
];

/// One workload run: its inputs, recorders and the metrics it reports.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    /// Work directory for generated inputs, arenas and the socket.
    pub dir: PathBuf,
    pub spans: Spans,
    pub checker: Checker,
    pub ops: Ops,
    /// Hash of every generated input (edge lists and frame schedules).
    pub input: Fnv,
    pub e2e: Vec<(&'static str, f64)>,
    pub layers: Vec<(&'static str, f64)>,
    /// Whether every peak-RSS reset of the run took effect.
    pub peak_reset: bool,
    /// Per-layer metrics taken from a tiny run of another workload, with
    /// that workload's name.
    pub borrowed: Vec<(&'static str, &'static str)>,
}

impl Ctx {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.0 == name),
            "unlisted metric {name}"
        );
        self.e2e.push((name, value));
    }

    /// Marks the start of the timed phase: `peak_rss_mb` covers only what
    /// runs from here on, not set-up and not an earlier run in the process.
    pub fn start_timed(&mut self) {
        self.peak_reset &= util::reset_peak_rss();
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.0 == name),
            "unlisted metric {name}"
        );
        self.layers.push((name, value));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    plant: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        plant: false,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => out.trace = value()? == "1",
            "--tiny" => out.tiny = true,
            "--plant-flip" => out.plant = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn run_once(args: &Args, traced: bool, seconds: f64, dir: PathBuf) -> Ctx {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
    let mut ctx = Ctx {
        seed: args.seed,
        seconds,
        tiny: args.tiny,
        dir: dir.clone(),
        spans: Spans::new(traced, 0, Instant::now()),
        checker: Checker::new(args.plant),
        ops: Ops::default(),
        input: Fnv::new(),
        e2e: Vec::new(),
        layers: Vec::new(),
        peak_reset: true,
        borrowed: Vec::new(),
    };
    match args.workload.as_str() {
        "build-pipeline" => pipeline::run(&mut ctx),
        "serve-read" => serve_read::run(&mut ctx),
        "layered-churn" => churn::run(&mut ctx),
        _ => unreachable!("workload validated before the run"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    ctx
}

/// Fills in the per-layer metrics a workload leaves idle (`delta` in
/// `build-pipeline`, the serving layers in `layered-churn`...) from a tiny
/// traced run of the workload that drives them, so every per-layer metric
/// prints on every workload. Those figures describe the tiny run, not this
/// workload, and the report says so. The tiny runs' answer checks and ops
/// count with the run's own.
fn fill_idle_layers(args: &Args, run: &mut Ctx, out_dir: &Path) {
    for other in WORKLOADS {
        let missing: Vec<&'static str> = PER_LAYER
            .iter()
            .map(|m| m.0)
            .filter(|name| !run.layers.iter().any(|m| m.0 == *name))
            .collect();
        if missing.is_empty() {
            break;
        }
        if other == args.workload {
            continue;
        }
        let probe_args = Args {
            workload: other.to_string(),
            tiny: true,
            ..*args
        };
        let probe = run_once(
            &probe_args,
            true,
            0.0,
            out_dir.join(format!("probe-{other}")),
        );
        for &(name, v) in &probe.layers {
            if missing.contains(&name) {
                run.layers.push((name, v));
                run.borrowed.push((name, other));
            }
        }
        run.ops.absorb(&probe.ops);
        run.checker.absorb(&probe.checker);
    }
}

/// Which run measured a per-layer metric; empty for the workload's own.
fn measured_by(run: &Ctx, name: &str) -> String {
    run.borrowed
        .iter()
        .find(|b| b.0 == name)
        .map_or(String::new(), |b| format!("(tiny {} run)", b.1))
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .expect("every metric is listed")
}

fn metrics_json(values: &[(&'static str, f64)]) -> Json {
    Json::obj(values.iter().map(|&(name, v)| {
        (
            name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit_of(name)))]),
        )
    }))
}

fn fingerprint(args: &Args, input_hash: u64, peak_reset: bool) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    // The arena load backend as built: a memory map when the core crate
    // has its `mmap` feature, a bulk read otherwise.
    let mmap = infprop_core::ArenaBytes::open(Path::new("perfbench/Cargo.toml"))
        .is_ok_and(|a| a.is_mapped());
    Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::Int(args.seed)),
        ("input_hash", Json::str(format!("{input_hash:016x}"))),
        ("tiny", Json::Bool(args.tiny)),
        (
            "cores",
            Json::Int(infprop_core::par::default_threads() as u64),
        ),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(env("PERFBENCH_RUSTC"))),
        ("rev", Json::str(env("PERFBENCH_REV"))),
        ("mmap", Json::Bool(mmap)),
        ("peak_rss_reset", Json::Bool(peak_reset)),
    ])
}

fn ops_json(ops: &Ops) -> Json {
    Json::obj(ops.by_op.iter().map(|(op, (a, f))| {
        (
            *op,
            Json::obj([("attempted", Json::Int(*a)), ("failed", Json::Int(*f))]),
        )
    }))
}

/// Writes the span report: per-layer metrics with the end-to-end metric
/// each feeds, per-span-name sample count, self and total time, the
/// tracing overhead, and every span.
fn write_trace_report(path: &Path, fp: Json, traced_workload: &str, traced: &Ctx, untraced: &Ctx) {
    let layers = Json::Arr(
        traced
            .layers
            .iter()
            .map(|&(name, v)| {
                let feeds = PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.2);
                let by = traced.borrowed.iter().find(|b| b.0 == name);
                let by = by.map_or(traced_workload.to_string(), |b| format!("{} (tiny)", b.1));
                Json::obj([
                    ("metric", Json::str(name)),
                    ("value", Json::Num(v)),
                    ("unit", Json::str(unit_of(name))),
                    ("feeds", Json::str(feeds)),
                    ("measured_by", Json::str(by)),
                ])
            })
            .collect(),
    );
    let table = traced.spans.layer_table();
    let spans = Json::Arr(
        table
            .iter()
            .map(|(name, s)| {
                Json::obj([
                    ("span", Json::str(*name)),
                    ("samples", Json::Int(s.samples)),
                    ("self_s", Json::Num(s.self_ns as f64 / 1e9)),
                    ("total_s", Json::Num(s.total_ns as f64 / 1e9)),
                    ("work", Json::Int(s.work)),
                ])
            })
            .collect(),
    );
    let overhead = Json::Arr(
        traced
            .e2e
            .iter()
            .filter_map(|&(name, t)| {
                let u = untraced.e2e.iter().find(|m| m.0 == name)?.1;
                Some(Json::obj([
                    ("metric", Json::str(name)),
                    ("unit", Json::str(unit_of(name))),
                    ("untraced", Json::Num(u)),
                    ("traced", Json::Num(t)),
                    ("traced_minus_untraced", Json::Num(t - u)),
                ]))
            })
            .collect(),
    );
    let all = Json::Arr(
        traced
            .spans
            .recs
            .iter()
            .map(|r| {
                Json::Arr(vec![
                    Json::str(r.name),
                    Json::Int(u64::from(r.lane)),
                    r.parent
                        .map_or(Json::Num(f64::NAN), |p| Json::Int(p as u64)),
                    Json::Int(r.start_ns),
                    Json::Int(r.end_ns),
                    Json::Int(r.work),
                ])
            })
            .collect(),
    );
    let report = Json::obj([
        ("fingerprint", fp),
        ("per_layer", layers),
        ("span_layers", spans),
        ("tracing_overhead", overhead),
        (
            "span_fields",
            Json::str("name, lane, parent index, start_ns, end_ns, work"),
        ),
        ("spans", all),
    ]);
    std::fs::write(path, report.render()).expect("write the trace report");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    }
    let out_dir = PathBuf::from("perfbench/out").join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&out_dir).expect("create the benchmark's output directory");

    let (run, untraced) = if args.trace {
        // The half that runs first runs cold; alternating the order by seed
        // keeps that from biasing the overhead one way.
        let half = args.seconds / 2.0;
        let work = out_dir.join("work");
        let work_traced = out_dir.join("work-traced");
        let (untraced, mut traced) = if args.seed % 2 == 0 {
            let u = run_once(&args, false, half, work);
            (u, run_once(&args, true, half, work_traced))
        } else {
            let t = run_once(&args, true, half, work_traced);
            (run_once(&args, false, half, work), t)
        };
        fill_idle_layers(&args, &mut traced, &out_dir);
        (traced, Some(untraced))
    } else {
        (
            run_once(&args, false, args.seconds, out_dir.join("work")),
            None,
        )
    };

    let peak_reset = run.peak_reset && untraced.as_ref().is_none_or(|u| u.peak_reset);
    let fp = fingerprint(&args, run.input.finish(), peak_reset);
    let mut ops = Ops::default();
    ops.absorb(&run.ops);
    let mut correct = run.checker.ok() && run.checker.checks > 0;
    let mut failures = run.checker.failures.clone();
    if let Some(u) = &untraced {
        ops.absorb(&u.ops);
        correct &= u.checker.ok() && u.input.finish() == run.input.finish();
        failures.extend(u.checker.failures.iter().cloned());
    }
    correct &= ops.attempted() > 0;
    println!("fingerprint {}", fp.render());
    println!("ops {}", ops_json(&ops).render());
    for f in &failures {
        println!("check failed: {f}");
    }
    let shown = if args.trace { &run.layers } else { &run.e2e };
    let listed: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let missing: Vec<&str> = listed
        .into_iter()
        .filter(|name| !shown.iter().any(|m| m.0 == *name))
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: {} did not measure {missing:?}", args.workload);
        std::process::exit(1);
    }
    for (name, v) in shown {
        let by = measured_by(&run, name);
        println!("  {name:<40} {v:>16.6} {:<6} {by}", unit_of(name));
    }
    if let Some(u) = &untraced {
        for &(name, t) in &run.e2e {
            if let Some(&(_, v)) = u.e2e.iter().find(|m| m.0 == name) {
                println!(
                    "  overhead {name:<31} {:>+16.6} {} (traced {t:.6}, untraced {v:.6})",
                    t - v,
                    unit_of(name)
                );
            }
        }
        let report = out_dir.join("trace-report.json");
        write_trace_report(&report, fp, &args.workload, &run, u);
        println!("trace report: {}", report.display());
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(ops.attempted())),
        ("failed", Json::Int(ops.failed())),
        ("metrics", metrics_json(shown)),
    ]);
    println!("{}", result.render());
}
