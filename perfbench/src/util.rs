//! Shared plumbing: seeded input generation, hashing, quantiles, the
//! benchmark's own in-memory spans, answer checks and op accounting.

use infprop_temporal_graph::NodeId;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// SplitMix64: small, seedable, and identical on every platform, so a seed
/// names one input exactly.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift, no modulo bias worth measuring).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf exponent of every seed draw.
const ZIPF_S: f64 = 1.1;
/// Seeds per set are uniform in `1..=MAX_SEEDS`.
const MAX_SEEDS: u64 = 32;

/// Zipf-skewed seed sampler: rank `r` has weight `1 / (r + 1)^s`, and
/// ranks map to nodes through a seeded permutation so hot nodes are not
/// simply the low ids.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, rng: &mut Rng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Zipf { cdf, perm }
    }

    fn sample(&self, rng: &mut Rng) -> NodeId {
        let u = rng.unit();
        let r = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        NodeId(self.perm[r])
    }

    /// One seed set: 1 to 32 seeds, skewed so that seeds repeat.
    pub fn seed_set(&self, rng: &mut Rng) -> Vec<NodeId> {
        let len = 1 + rng.below(MAX_SEEDS);
        (0..len).map(|_| self.sample(rng)).collect()
    }
}

/// Writes `(src, dst, time)` triples as a SNAP-style edge list and returns
/// the bytes (the benchmark hashes them into the input fingerprint).
pub fn edge_list_bytes(edges: &[(u32, u32, i64)]) -> Vec<u8> {
    let mut s = String::with_capacity(edges.len() * 20);
    for &(a, b, t) in edges {
        let _ = writeln!(s, "{a} {b} {t}");
    }
    s.into_bytes()
}

/// 64-bit FNV-1a, for input fingerprints.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank quantile of `v` (sorted here). Failed operations enter as
/// `f64::INFINITY`, so they count as missing every latency figure.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Mean |approx − exact| / exact over answer pairs whose exact answer is
/// not 0.
pub fn mean_rel_error(approx: &[f64], exact: &[f64]) -> f64 {
    let (sum, count) = approx
        .iter()
        .zip(exact)
        .filter(|(_, e)| **e > 0.0)
        .fold((0.0, 0usize), |(s, c), (a, e)| {
            (s + (a - e).abs() / e, c + 1)
        });
    sum / count.max(1) as f64
}

/// Unique seeds over requested seeds, summed over seed sets: the share of
/// a query's seeds that are useful work once duplicates are dropped.
pub fn seed_dedup_ratio<'a>(sets: impl IntoIterator<Item = &'a Vec<NodeId>>) -> f64 {
    let (mut unique, mut requested) = (0usize, 0usize);
    for s in sets {
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        unique += d.len();
        requested += s.len();
    }
    unique as f64 / requested as f64
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets the process's peak resident set (`VmHWM`) to its current
/// resident set, so that a later [`peak_rss_mb`] covers only what runs
/// after this call. Returns `false` when the kernel refused the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Total size of the files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One closed span: a layer call wrapped by the benchmark.
#[derive(Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call handled (interactions, seed sets, bytes...).
    pub work: u64,
}

/// Handle of an open span; inert when tracing is off.
pub struct Open(Option<usize>);

/// In-memory span recorder for one thread ("lane"). With tracing off every
/// call is a branch on `on` and nothing else, so the untraced run pays no
/// clock reads for it.
pub struct Spans {
    on: bool,
    lane: u32,
    origin: Instant,
    pub recs: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(on: bool, lane: u32, origin: Instant) -> Self {
        Spans {
            on,
            lane,
            origin,
            recs: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn lane(&self, lane: u32) -> Spans {
        Spans::new(self.on, lane, self.origin)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.recs.len();
        let now = self.origin.elapsed().as_nanos() as u64;
        self.recs.push(SpanRec {
            name,
            parent: self.stack.last().copied(),
            lane: self.lane,
            start_ns: now,
            end_ns: now,
            work: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open, work: u64) {
        if let Some(idx) = open.0 {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans must close in nesting order");
            let rec = &mut self.recs[idx];
            rec.end_ns = self.origin.elapsed().as_nanos() as u64;
            rec.work = work;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open, work);
        out
    }

    /// Folds another lane's closed spans into this recorder.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.recs.len();
        self.recs.extend(other.recs.into_iter().map(|mut r| {
            r.parent = r.parent.map(|p| p + base);
            r
        }));
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64)
            .collect()
    }

    /// Per-name sample count, total time and self time (span minus the
    /// time its child spans cover; children nest sequentially on a lane).
    pub fn layer_table(&self) -> BTreeMap<&'static str, LayerStat> {
        let mut child = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if let Some(p) = r.parent {
                child[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
        for (r, c) in self.recs.iter().zip(&child) {
            let e = out.entry(r.name).or_default();
            let dur = r.end_ns - r.start_ns;
            e.samples += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(*c);
            e.work += r.work;
        }
        out
    }
}

#[derive(Default, Clone, Copy)]
pub struct LayerStat {
    pub samples: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

// ---------------------------------------------------------------------------
// Answer checks and op accounting
// ---------------------------------------------------------------------------

/// Collects answer-check outcomes. With `plant` set, the first reference
/// it is handed gets one bit flipped, which must make the run fail: the
/// benchmark's own tests use that to prove the checks bite.
pub struct Checker {
    plant: bool,
    planted: bool,
    pub checks: u64,
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(plant: bool) -> Self {
        Checker {
            plant,
            planted: false,
            checks: 0,
            failures: Vec::new(),
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Counts another checker's checks and failures as this one's.
    pub fn absorb(&mut self, other: &Checker) {
        self.checks += other.checks;
        self.failures.extend(other.failures.iter().cloned());
    }

    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 16 {
            self.failures.push(msg);
        }
    }

    pub fn holds(&mut self, what: &str, cond: bool) {
        self.checks += 1;
        if !cond {
            self.fail(what.to_string());
        }
    }

    /// `got` must equal `expected` bit for bit.
    pub fn bits(&mut self, what: &str, expected: &[f64], got: &[f64]) {
        let mut exp: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
        if !exp.is_empty() && self.plant_now() {
            exp[0] ^= 1;
        }
        self.checks += 1;
        let same = exp.len() == got.len() && exp.iter().zip(got).all(|(e, g)| *e == g.to_bits());
        if !same {
            self.fail(format!(
                "{what}: answers differ from the in-process reference"
            ));
        }
    }

    /// `got` must equal `expected` byte for byte.
    pub fn bytes(&mut self, what: &str, expected: &[u8], got: &[u8]) {
        let same = if !expected.is_empty() && self.plant_now() {
            let mut exp = expected.to_vec();
            exp[0] ^= 1;
            exp == got
        } else {
            expected == got
        };
        self.checks += 1;
        if !same {
            self.fail(format!("{what}: bytes differ from the reference"));
        }
    }

    /// True exactly once when a planted error is asked for.
    fn plant_now(&mut self) -> bool {
        let now = self.plant && !self.planted;
        self.planted |= now;
        now
    }
}

/// Operations attempted and failed, per op type.
#[derive(Default)]
pub struct Ops {
    pub by_op: BTreeMap<&'static str, (u64, u64)>,
}

impl Ops {
    pub fn record(&mut self, op: &'static str, ok: bool) {
        let e = self.by_op.entry(op).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    pub fn absorb(&mut self, other: &Ops) {
        for (op, (a, f)) in &other.by_op {
            let e = self.by_op.entry(op).or_default();
            e.0 += a;
            e.1 += f;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.by_op.values().map(|v| v.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.by_op.values().map(|v| v.1).sum()
    }
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // JSON has no infinity: a figure made infinite by a failed op
            // prints as the largest finite double.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) if v.is_nan() => out.push_str("null"),
            Json::Num(_) => {
                let _ = write!(out, "{}", f64::MAX);
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    it.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    Json::Str(k.clone()).write(out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}
