//! End-to-end and per-layer benchmark of the Polaris stack.
//!
//! Four workloads, each stressing different layers and bypassing the
//! others (see `README.md` in this directory for why each exists):
//!
//! * [`collective_sweep`] — an F3-shaped sweep of serial `simx` cells
//!   fanned over the sweep pool;
//! * [`sharded_apps`] — a few large programs, each on `nproc` engine
//!   shards through `Fabric::run`;
//! * [`zero_copy_msg`] — two ranks on real threads over the virtual NIC
//!   (eager ping-pong, rendezvous stream);
//! * [`sweep_service`] — a closed loop of clients against the
//!   content-addressed sweep server.
//!
//! The benchmark measures each layer from outside, by timing calls into
//! its public entry points, and checks every output in-process.

pub mod collective_sweep;
pub mod sharded_apps;
pub mod stats;
pub mod sweep_service;
pub mod trace;
pub mod zero_copy_msg;

use stats::Tally;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

pub const WORKLOADS: [&str; 4] = [
    "collective_sweep",
    "sharded_apps",
    "zero_copy_msg",
    "sweep_service",
];

/// Input size. `Tiny` exists for the smoke tests; the command line
/// always runs `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// What a workload run is given.
pub struct Ctx {
    pub seed: u64,
    /// Measured time; passes keep starting until it has elapsed.
    pub seconds: f64,
    /// Worker threads, engine shards or clients: the machine's cores.
    pub jobs: usize,
    pub scale: Scale,
    pub tracer: Arc<Tracer>,
    /// Test hook: corrupt one expected output, so the run's checks
    /// must fail.
    pub tamper: bool,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    pub tally: Tally,
    /// Seconds of each repetition of the workload's set-up.
    pub setup_s: Vec<f64>,
    /// Host seconds of one pass over the workload's fixed work list.
    pub wall_s: f64,
    /// Completed passes.
    pub passes: u64,
    /// Request latencies, microseconds: every request's, or a uniform
    /// sample of them where requests number in the millions.
    pub req_us: Vec<f64>,
    /// Requests completed per second, from the median pass.
    pub req_per_s: f64,
    /// Per-layer metrics; names come from [`layer_metric_table`].
    pub layers: BTreeMap<String, f64>,
    /// Digest of the simulated or transferred outputs: equal digests
    /// mean equal outputs.
    pub digest: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Report {
    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Record one operation, with the reason when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.tally.record(ok);
        if !ok && self.failures.len() < 20 {
            self.failures.push(why());
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Run the named workload; `None` for an unknown name.
pub fn run_workload(name: &str, ctx: &Ctx) -> Option<Report> {
    Some(match name {
        "collective_sweep" => collective_sweep::run(ctx),
        "sharded_apps" => sharded_apps::run(ctx),
        "zero_copy_msg" => zero_copy_msg::run(ctx),
        "sweep_service" => sweep_service::run(ctx),
        _ => return None,
    })
}

/// Programs of `sharded_apps`; shard metrics are reported per program.
pub const PROGRAMS: [&str; 4] = ["ring", "stencil", "shuffle", "ps"];

const SHARD_METRICS: [(&str, &str); 8] = [
    ("run_s", "s"),
    ("events", "count"),
    ("ns_per_event", "ns"),
    ("windows", "count"),
    ("events_per_window", "count"),
    ("remote_share", "ratio"),
    ("imbalance", "ratio"),
    ("speedup_vs_1", "x"),
];

/// Layers that get a span around their entry points, hence a self time.
pub const SPAN_LAYERS: [&str; 8] = [
    "sweep",
    "topology",
    "network",
    "simx",
    "workloads",
    "shard",
    "msg",
    "serve",
];

/// Every per-layer metric, `(name, unit)`, in output order. A workload
/// that bypasses a layer reports 0 for its metrics.
pub fn layer_metric_table() -> Vec<(String, &'static str)> {
    let mut t: Vec<(String, &'static str)> = [
        ("sweep.busy_share", "ratio"),
        ("sweep.cells", "count"),
        ("topology.build_s", "s"),
        ("simx.calls_s", "s"),
        ("simx.messages", "count"),
        ("simx.ns_per_msg", "ns"),
        ("network.link_bytes", "B"),
        ("network.peak_link_util", "ratio"),
        ("workloads.compile_s", "s"),
        ("workloads.ops", "count"),
        ("msg.eager_sends", "count"),
        ("msg.rendezvous_sends", "count"),
        ("msg.host_copies_per_msg", "count"),
        ("msg.host_copy_bytes_per_msg", "B"),
        ("msg.unexpected_arrivals", "count"),
        ("msg.tx_pool_growth", "count"),
        ("msg.rel_retransmits", "count"),
        ("nic.dma_bytes", "B"),
        ("msg.isend_ns", "ns"),
        ("msg.wait_ns", "ns"),
        ("serve.hit_ratio", "ratio"),
        ("serve.evictions", "count"),
        ("serve.singleflight_waits", "count"),
        ("serve.hash_ns", "ns"),
        ("serve.miss_compute_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for p in PROGRAMS {
        for (m, u) in SHARD_METRICS {
            t.push((format!("shard.{p}.{m}"), u));
        }
    }
    for l in SPAN_LAYERS {
        t.push((format!("{l}.self_s"), "s"));
    }
    t.push(("trace.uncovered_share".to_string(), "ratio"));
    t.push(("trace.overhead_share".to_string(), "ratio"));
    t
}

/// End-to-end metrics `(name, value, unit)` of an untraced run.
pub fn end_to_end(r: &Report) -> Vec<(&'static str, f64, &'static str)> {
    let mut lat = r.req_us.clone();
    lat.sort_by(f64::total_cmp);
    let pct = |q| {
        if lat.is_empty() {
            0.0
        } else {
            stats::percentile(&lat, q)
        }
    };
    vec![
        ("setup_s", stats::median(&r.setup_s), "s"),
        ("wall_s", r.wall_s, "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("req_p50_us", pct(50.0), "us"),
        ("req_tail_us", pct(stats::tail_percentile(lat.len())), "us"),
        ("req_per_s", r.req_per_s, "1/s"),
    ]
}

/// Per-layer metrics of a traced run: the workload's own counters, the
/// span-derived self times, and tracing overhead against `untraced`.
pub fn per_layer(
    traced: &Report,
    untraced: &Report,
    tracer: &Tracer,
) -> Vec<(String, f64, &'static str)> {
    let spans = tracer.spans();
    let self_s = trace::self_seconds(&spans);
    let passes = traced.passes.max(1) as f64;
    let mut values = traced.layers.clone();
    for (name, s) in self_s {
        // Spans are named `<layer>` or `<layer>.<call>`.
        let layer = name.split('.').next().unwrap_or(name);
        if SPAN_LAYERS.contains(&layer) {
            *values.entry(format!("{layer}.self_s")).or_insert(0.0) += s / passes;
        }
    }
    values.insert(
        "trace.uncovered_share".into(),
        trace::uncovered_share(&spans, "pass"),
    );
    values.insert(
        "trace.overhead_share".into(),
        traced.wall_s / untraced.wall_s - 1.0,
    );
    let table = layer_metric_table();
    for name in values.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is missing from the table"
        );
    }
    table
        .into_iter()
        .map(|(n, u)| {
            let v = values.get(&n).copied().unwrap_or(0.0);
            (n, v, u)
        })
        .collect()
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run `pass` until `seconds` have elapsed, at least `min` times.
/// Returns each pass's host seconds.
pub fn timed_passes(seconds: f64, min: usize, mut pass: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        pass();
        walls.push(t.elapsed().as_secs_f64());
    }
    walls
}

/// Seconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// FNV-1a over 64-bit words: the digest of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Deterministic in-place shuffle (Fisher–Yates) driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = polaris_simnet::rng::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}
