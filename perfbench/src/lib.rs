//! The repository benchmark. One command runs a named workload from a
//! seed, checks the program's outputs, and prints every end-to-end
//! metric by name, unit and clock; `--trace 1` runs the same workload
//! with the benchmark's span recorder and prints the per-layer metrics
//! instead. See `README.md` in this directory.

mod offline;
pub mod report;
mod serve;
mod sys;
mod trace;
mod tune;

use rafiki::RafikiTuner;
use rafiki_engine::EngineMetrics;
use report::{Clock, Outcome};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["serve_read_hot", "serve_mgrast_shift", "offline_tune"];

/// End-to-end metrics every untraced run prints, with unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("frame_p50_us", "us"),
    ("sim_ops_per_sec", "ops/s"),
    ("tune_s", "s"),
    ("search_ms", "ms"),
    ("tuned_gain", "ratio"),
    ("pred_error", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Largest share of the mean frame round trip that the independently
/// timed layers may leave unexplained on `serve_read_hot`.
pub(crate) const RECONCILE_TOLERANCE: f64 = 0.5;

/// Input size: the benchmark's own, or the tiny one its tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size `BENCHMARK.json` runs.
    Full,
    /// A few thousand ops and a three-config tuner.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is made from.
    pub seed: u64,
    /// Requested measuring time; sizes the serve streams.
    pub seconds: u64,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Send one frame with an unknown op code (tests the failure path).
    pub inject_bad_op: bool,
    /// Directory the traced run writes its spans to.
    pub out_dir: PathBuf,
}

impl Options {
    /// Where the traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        self.out_dir
            .join(format!("trace-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// Runs one workload. Untraced runs report [`END_TO_END`]; traced runs
/// report the per-layer metrics ([`Layers`]).
///
/// # Errors
///
/// Fails on an unknown workload, or when the workload cannot run at all
/// (socket errors, a tuner that cannot be fitted).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    provenance(&mut out, opts);
    let mut tracer = opts.trace.then(Tracer::new);
    match opts.workload.as_str() {
        "serve_read_hot" => serve::run(
            opts,
            &serve::ServeSpec::read_hot(opts.scale),
            &mut out,
            tracer.as_mut(),
        )?,
        "serve_mgrast_shift" => serve::run(
            opts,
            &serve::ServeSpec::mgrast_shift(opts.scale),
            &mut out,
            tracer.as_mut(),
        )?,
        "offline_tune" => offline::run(opts, &mut out, tracer.as_mut())?,
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    }
    out.push("peak_rss_mb", "MB", Clock::Wall, sys::peak_rss_mb());
    if opts.trace {
        // A traced run prints per-layer metrics only; its end-to-end
        // numbers stay in the table for comparison with untraced runs.
        let (e2e, layers) = std::mem::take(&mut out.metrics)
            .into_iter()
            .partition(|m| END_TO_END.iter().any(|(n, _)| *n == m.name));
        out.traced_end_to_end = e2e;
        out.metrics = layers;
    }
    Ok(out)
}

fn provenance(out: &mut Outcome, opts: &Options) {
    let root = std::path::Path::new(".");
    out.provenance_str("workload", &opts.workload);
    out.provenance_json("seed", opts.seed.to_string());
    out.provenance_json("seconds", opts.seconds.to_string());
    out.provenance_json("trace", opts.trace.to_string());
    out.provenance_str("git_revision", &sys::git_revision());
    out.provenance_str(
        "source_digest",
        &sys::source_digest(&[&root.join("crates"), &root.join("perfbench")]),
    );
    out.provenance_json("nproc", sys::nproc().to_string());
    out.provenance_str("rustc", &sys::rustc_version());
}

/// Per-layer metrics. Every traced run prints all of them; a layer the
/// workload does not exercise reads 0 (`offline_tune` has no daemon).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Layers {
    pub encode_ns_per_op: f64,
    pub decode_ns_per_op: f64,
    pub response_encode_ns_per_op: f64,
    pub response_decode_ns_per_op: f64,
    pub residence_us_per_frame: f64,
    pub transport_us_per_frame: f64,
    pub empty_frame_us: f64,
    pub reconcile_gap_frac: f64,
    pub ops_per_sec: f64,
    pub frame_p95_us: f64,
    pub frame_p99_us: f64,
    pub frames: f64,
    pub ops: f64,
    pub windows_closed: f64,
    pub reoptimizations: f64,
    pub reconfigurations: f64,
    pub reconfig_apply_us: f64,
    pub observe_ns_per_op: f64,
    pub generate_ns_per_op: f64,
    pub read_ns_per_op: f64,
    pub write_ns_per_op: f64,
    pub reconfigure_us: f64,
    pub preload_ms: f64,
    pub snapshot_build_ms: f64,
    pub flushes: f64,
    pub compactions: f64,
    pub write_amp: f64,
    pub tables_per_read: f64,
    pub bloom_negative_frac: f64,
    pub file_cache_hit_frac: f64,
    pub file_cache_evictions: f64,
    pub disk_reads_per_read: f64,
    pub write_stall_ms: f64,
    pub controller_window_us_p50: f64,
    pub controller_window_us_max: f64,
    pub collect_s: f64,
    pub grid_points: f64,
    pub grid_ms_per_point: f64,
    pub fit_s: f64,
    pub predict_ns_per_row: f64,
    pub evals_per_search: f64,
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub trace_overhead_frac: f64,
    pub failed_op_frac: f64,
}

impl Layers {
    /// Fills the engine counters from `m` over a stretch in which
    /// `user_bytes` of payload were written.
    pub fn engine_counts(&mut self, m: &EngineMetrics, user_bytes: f64) {
        let reads = m.reads_completed.max(1) as f64;
        self.flushes = m.flushes as f64;
        self.compactions = m.compactions as f64;
        self.write_amp = if user_bytes > 0.0 {
            m.compacted_bytes as f64 / user_bytes
        } else {
            0.0
        };
        self.tables_per_read = m.candidates_probed as f64 / reads;
        self.bloom_negative_frac = if m.bloom_checks > 0 {
            m.bloom_negatives as f64 / m.bloom_checks as f64
        } else {
            0.0
        };
        self.file_cache_hit_frac = m.file_cache_hit_rate();
        self.file_cache_evictions = m.file_cache_evictions as f64;
        self.disk_reads_per_read = m.disk_reads as f64 / reads;
        self.write_stall_ms = m.write_stall_ns as f64 / 1e6;
    }

    /// Fills the tuner-fit phases of a traced fit.
    pub fn fit(&mut self, t: &tune::FitTimes) {
        self.collect_s = t.collect_s;
        self.grid_points = t.grid_points as f64;
        self.grid_ms_per_point = if t.grid_points > 0 {
            t.collect_s * 1e3 / t.grid_points as f64
        } else {
            0.0
        };
        self.fit_s = t.train_s;
    }

    /// Pushes every per-layer metric, in a fixed order.
    pub fn emit(&self, out: &mut Outcome) {
        use Clock::{Count, Sim, Wall};
        let rows: [(&'static str, &'static str, Clock, f64); 45] = [
            (
                "serve.protocol.encode_ns_per_op",
                "ns",
                Wall,
                self.encode_ns_per_op,
            ),
            (
                "serve.protocol.decode_ns_per_op",
                "ns",
                Wall,
                self.decode_ns_per_op,
            ),
            (
                "serve.protocol.response_encode_ns_per_op",
                "ns",
                Wall,
                self.response_encode_ns_per_op,
            ),
            (
                "serve.protocol.response_decode_ns_per_op",
                "ns",
                Wall,
                self.response_decode_ns_per_op,
            ),
            (
                "serve.server.residence_us_per_frame",
                "us",
                Wall,
                self.residence_us_per_frame,
            ),
            (
                "serve.server.transport_us_per_frame",
                "us",
                Wall,
                self.transport_us_per_frame,
            ),
            (
                "serve.server.empty_frame_us",
                "us",
                Wall,
                self.empty_frame_us,
            ),
            (
                "serve.reconcile_gap_frac",
                "ratio",
                Wall,
                self.reconcile_gap_frac,
            ),
            ("serve.ops_per_sec", "ops/s", Wall, self.ops_per_sec),
            ("serve.frame_p95_us", "us", Wall, self.frame_p95_us),
            ("serve.frame_p99_us", "us", Wall, self.frame_p99_us),
            ("serve.frames", "count", Count, self.frames),
            ("serve.ops", "count", Count, self.ops),
            ("serve.windows_closed", "count", Count, self.windows_closed),
            (
                "serve.reoptimizations",
                "count",
                Count,
                self.reoptimizations,
            ),
            (
                "serve.reconfigurations",
                "count",
                Count,
                self.reconfigurations,
            ),
            (
                "serve.reconfig_apply_us",
                "us",
                Wall,
                self.reconfig_apply_us,
            ),
            (
                "workload.observe_ns_per_op",
                "ns",
                Wall,
                self.observe_ns_per_op,
            ),
            (
                "workload.generate_ns_per_op",
                "ns",
                Wall,
                self.generate_ns_per_op,
            ),
            ("engine.read_ns_per_op", "ns", Wall, self.read_ns_per_op),
            ("engine.write_ns_per_op", "ns", Wall, self.write_ns_per_op),
            ("engine.reconfigure_us", "us", Wall, self.reconfigure_us),
            ("engine.preload_ms", "ms", Wall, self.preload_ms),
            (
                "engine.snapshot_build_ms",
                "ms",
                Wall,
                self.snapshot_build_ms,
            ),
            ("engine.flushes", "count", Count, self.flushes),
            ("engine.compactions", "count", Count, self.compactions),
            ("engine.write_amp", "ratio", Sim, self.write_amp),
            ("engine.tables_per_read", "ratio", Sim, self.tables_per_read),
            (
                "engine.bloom_negative_frac",
                "ratio",
                Sim,
                self.bloom_negative_frac,
            ),
            (
                "engine.file_cache_hit_frac",
                "ratio",
                Sim,
                self.file_cache_hit_frac,
            ),
            (
                "engine.file_cache_evictions",
                "count",
                Count,
                self.file_cache_evictions,
            ),
            (
                "engine.disk_reads_per_read",
                "ratio",
                Sim,
                self.disk_reads_per_read,
            ),
            ("engine.write_stall_ms", "ms", Sim, self.write_stall_ms),
            (
                "core.controller.window_us.p50",
                "us",
                Wall,
                self.controller_window_us_p50,
            ),
            (
                "core.controller.window_us.max",
                "us",
                Wall,
                self.controller_window_us_max,
            ),
            ("core.collect_s", "s", Wall, self.collect_s),
            ("core.grid_points", "count", Count, self.grid_points),
            ("core.grid_ms_per_point", "ms", Wall, self.grid_ms_per_point),
            ("neural.fit_s", "s", Wall, self.fit_s),
            (
                "neural.predict_ns_per_row",
                "ns",
                Wall,
                self.predict_ns_per_row,
            ),
            ("ga.evals_per_search", "count", Count, self.evals_per_search),
            ("proc.cpu_user_s", "s", Wall, self.cpu_user_s),
            ("proc.cpu_sys_s", "s", Wall, self.cpu_sys_s),
            (
                "trace.overhead_frac",
                "ratio",
                Wall,
                self.trace_overhead_frac,
            ),
            ("failed_op_frac", "ratio", Count, self.failed_op_frac),
        ];
        for (name, unit, clock, value) in rows {
            out.push(name, unit, clock, value);
        }
    }
}

/// Median wall time per row of one GA-generation-sized batch through
/// `RafikiTuner::predict_many`, ns.
pub(crate) fn predict_ns_per_row(tuner: &RafikiTuner) -> f64 {
    let Some(dataset) = tuner.dataset() else {
        return 0.0;
    };
    let genomes: Vec<Vec<f64>> = dataset
        .samples
        .iter()
        .map(|s| s.genome.clone())
        .cycle()
        .take(30)
        .collect();
    let mut per_row = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        let preds = tuner.predict_many(0.5, &genomes);
        let ns = t.elapsed().as_nanos() as f64;
        if preds.map(|p| p.len()).unwrap_or(0) == genomes.len() {
            per_row.push(ns / genomes.len() as f64);
        }
    }
    report::median(&per_row)
}

/// Measured cost of recording `spans` spans, s.
pub(crate) fn span_cost_s(spans: usize) -> f64 {
    let mut probe = Tracer::new();
    let n = 10_000u64;
    let t = Instant::now();
    for i in 0..n {
        probe.time("probe", i, None, || ());
    }
    t.elapsed().as_secs_f64() / n as f64 * spans as f64
}
