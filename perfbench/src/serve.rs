//! The two daemon workloads. Each starts `rafiki-serve` in-process with
//! one shard, connects one closed-loop client that sends stop-and-wait
//! batch frames, and times every frame round trip from the client.
//!
//! Set-up is everything before the first timed frame: the tuner fit,
//! bind, preload, and a warm-up stream past the post-preload compaction
//! storm. The traced run replays the recorded op stream through the
//! same public calls the daemon makes, so each layer is timed from
//! outside.

use crate::report::{median, quantile, quantile_sorted, Clock, Outcome};
use crate::trace::Tracer;
use crate::tune::{self, FitTimes};
use crate::{sys, Layers, Options, Scale};
use rafiki::{OnlineController, RafikiTuner};
use rafiki_engine::{Engine, EngineMetrics, OpCompletion, ServerSpec};
use rafiki_serve::protocol::{decode_batch_fast, encode_batch_into};
use rafiki_serve::{
    BatchResult, Client, ConfigReport, Json, Request, Response, ServeConfig, Server, StatsReport,
};
use rafiki_stats::mix64;
use rafiki_workload::{
    OnlineCharacterizer, OpKind, Operation, OperationSource, WorkloadGenerator, WorkloadSpec,
};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Frames per block in a traced run; blocks alternate traced and
/// untraced so the two halves see the same host conditions.
const TRACE_BLOCK: usize = 64;
/// Spans written to the trace file at most (all are aggregated).
const SPAN_FILE_LIMIT: usize = 200_000;
/// `optimize` sweeps per session: the first picks the winners, the
/// second adds call timings for `search_ms`.
const SWEEPS: usize = 2;
/// Payload of each preloaded row, bytes.
const PRELOAD_PAYLOAD: u32 = 1_000;
/// Windows of warm-up sent during set-up: past the compaction storm a
/// fresh preload sets off.
const WARMUP_WINDOWS: usize = 2;

/// The shape of one serve workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Rows preloaded into the daemon's engine.
    pub preload_keys: u64,
    /// Ops per frame.
    pub frame_ops: usize,
    /// Ops per characterization window.
    pub window_ops: usize,
    /// Read ratio of each regime, cycled.
    pub regimes: &'static [f64],
    /// Windows per regime before the next one starts.
    pub regime_windows: usize,
    /// Mean key-reuse distance of the generated stream, ops.
    pub krd_mean: f64,
    /// Timed ops per requested second of run time.
    pub ops_per_second: usize,
    /// Sessions per run, each set up afresh and sent the whole stream.
    pub sessions: usize,
    /// Whether the traced run fails when the layer self times do not
    /// reconcile with the frame round trip.
    pub reconcile: bool,
}

impl ServeSpec {
    /// `serve_read_hot`: a stationary 95%-read stream over 20k keys that
    /// fit the default 256 MB file cache, in 16-op frames.
    pub fn read_hot(scale: Scale) -> ServeSpec {
        let full = ServeSpec {
            preload_keys: 20_000,
            frame_ops: 16,
            window_ops: 20_000,
            regimes: &[0.95],
            regime_windows: usize::MAX,
            krd_mean: 20_000.0,
            ops_per_second: 100_000,
            sessions: 5,
            reconcile: true,
        };
        match scale {
            Scale::Full => full,
            Scale::Tiny => ServeSpec {
                preload_keys: 2_000,
                window_ops: 1_000,
                ops_per_second: 3_000,
                sessions: 1,
                ..full
            },
        }
    }

    /// `serve_mgrast_shift`: MG-RAST-like regimes switching between
    /// write-heavy (rr 0.1) and read-heavy (rr 0.9) phases, each several
    /// windows long, over 300k preloaded 1 KB rows plus inserts (more
    /// than the default file cache holds), in 256-op frames.
    pub fn mgrast_shift(scale: Scale) -> ServeSpec {
        let full = ServeSpec {
            preload_keys: 300_000,
            frame_ops: 256,
            window_ops: 12_800,
            regimes: &[0.1, 0.9],
            regime_windows: 2,
            krd_mean: 200_000.0,
            ops_per_second: 150_000,
            sessions: 5,
            reconcile: false,
        };
        match scale {
            Scale::Full => full,
            Scale::Tiny => ServeSpec {
                preload_keys: 5_000,
                window_ops: 1_024,
                regime_windows: 2,
                ops_per_second: 4_096,
                sessions: 1,
                ..full
            },
        }
    }

    fn warmup_ops(&self) -> usize {
        WARMUP_WINDOWS * self.window_ops
    }

    /// Ops per measurement chunk: one window of a stationary stream, or
    /// one full cycle through the regimes of a shifting one, so that
    /// every chunk carries the same mix of work.
    fn chunk_ops(&self) -> usize {
        if self.regimes.len() > 1 {
            self.regimes.len() * self.regime_windows * self.window_ops
        } else {
            self.window_ops
        }
    }

    /// Timed ops for a run of `seconds`: a whole number of chunks.
    fn timed_ops(&self, seconds: u64) -> usize {
        let unit = self.chunk_ops();
        let want = self.ops_per_second.saturating_mul(seconds.max(1) as usize);
        want.div_ceil(unit).max(1) * unit
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            window_ops: self.window_ops,
            preload_keys: self.preload_keys,
            preload_payload: PRELOAD_PAYLOAD,
            shards: 1,
            ..ServeConfig::default()
        }
    }

    /// The whole op stream (warm-up then timed) for `seed`.
    ///
    /// Every window holds exactly its regime's share of reads, spread
    /// evenly, so the controller sees the same read ratios — and takes
    /// the same decisions — whatever the seed; the seed picks the keys.
    /// Each regime draws reads and writes from two generators over the
    /// keyspace grown so far.
    pub fn generate(&self, seed: u64, timed_ops: usize) -> Vec<Operation> {
        let total = self.warmup_ops() + timed_ops;
        let regime_ops = self.regime_windows.saturating_mul(self.window_ops);
        let mut ops = Vec::with_capacity(total);
        let mut keyspace = self.preload_keys;
        let mut regime = 0u64;
        while ops.len() < total {
            let rr = self.regimes[regime as usize % self.regimes.len()];
            let spec = |read_ratio| WorkloadSpec {
                initial_keys: keyspace,
                krd_mean: self.krd_mean,
                ..WorkloadSpec::with_read_ratio(read_ratio)
            };
            let mut reads = WorkloadGenerator::new(spec(1.0), mix64(seed ^ mix64(2 * regime)));
            let mut writes = WorkloadGenerator::new(spec(0.0), mix64(seed ^ mix64(2 * regime + 1)));
            let per_window = (rr * self.window_ops as f64).round() as usize;
            let n = regime_ops.min(total - ops.len());
            ops.extend((0..n).map(|i| {
                let w = self.window_ops;
                if (i % w + 1) * per_window / w > (i % w) * per_window / w {
                    reads.next_op()
                } else {
                    writes.next_op()
                }
            }));
            keyspace = writes.keyspace();
            regime += 1;
        }
        ops
    }
}

/// A raw connection speaking batch frames, so that per-op failures are
/// counted rather than raised and each codec call can be timed.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: String,
    line: String,
}

/// One frame's client-side timings, ns since the tracer's origin.
#[derive(Debug, Clone, Copy, Default)]
struct FrameTimes {
    start: u64,
    encoded: u64,
    received: u64,
    end: u64,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: String::new(),
            line: String::new(),
        })
    }

    /// Sends one frame and appends each op's latency (µs) to `lat`;
    /// returns how many ops failed (an error result, or missing).
    /// `corrupt` replaces the first op's code with an unknown one.
    fn frame(
        &mut self,
        ops: &[Operation],
        lat: &mut Vec<u32>,
        corrupt: bool,
        timer: Option<(&Tracer, &mut FrameTimes)>,
    ) -> io::Result<u64> {
        let start = Instant::now();
        self.out.clear();
        encode_batch_into(ops, &mut self.out);
        if corrupt {
            let at = self.out.find("[[").map_or(0, |i| i + 2);
            self.out.replace_range(at..at + 1, "9");
        }
        self.out.push('\n');
        let encoded = Instant::now();
        self.writer.write_all(self.out.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let received = Instant::now();
        let response = Json::parse(self.line.trim())
            .map_err(|e| e.to_string())
            .and_then(|j| Response::from_json(&j));
        if let Some((tracer, t)) = timer {
            *t = FrameTimes {
                start: tracer.at(start),
                encoded: tracer.at(encoded),
                received: tracer.at(received),
                end: tracer.now(),
            };
        }
        let mut failed = 0u64;
        match response {
            Ok(Response::Batch(results)) => {
                for result in &results {
                    match result {
                        BatchResult::Done { latency_us } => {
                            lat.push(u32::try_from(*latency_us).unwrap_or(u32::MAX));
                        }
                        BatchResult::Error { .. } => {
                            lat.push(0);
                            failed += 1;
                        }
                    }
                }
                let missing = ops.len().saturating_sub(results.len());
                lat.extend(std::iter::repeat_n(0, missing));
                failed += missing as u64;
            }
            _ => {
                lat.extend(std::iter::repeat_n(0, ops.len()));
                failed += ops.len() as u64;
            }
        }
        Ok(failed)
    }

    /// Round trip of an empty batch frame: sockets, wake-ups and framing
    /// with no shard hand-off and no engine work.
    fn empty_frame(&mut self) -> io::Result<u64> {
        let start = Instant::now();
        self.writer
            .write_all(b"{\"type\":\"batch\",\"ops\":[]}\n")?;
        self.line.clear();
        self.reader.read_line(&mut self.line)?;
        Ok(start.elapsed().as_nanos() as u64)
    }
}

/// What the timed stream recorded.
#[derive(Debug, Default)]
struct StreamRecord {
    /// Round trip of every frame, ns.
    rtt_ns: Vec<u64>,
    /// Whether each frame was traced.
    traced: Vec<bool>,
    /// Daemon-reported latency of every op (warm-up included), µs.
    latencies: Vec<u32>,
    failed_ops: u64,
    wall_s: f64,
    /// Round trips of the empty frames sent between traced blocks, ns.
    empty_frame_ns: Vec<u64>,
    /// User and system CPU seconds over the timed stream.
    cpu: (f64, f64),
}

/// Runs a serve workload and fills `out`.
///
/// # Errors
///
/// Fails on socket errors or a tuner that cannot be fitted.
pub fn run(
    opts: &Options,
    spec: &ServeSpec,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let cpus = sys::allowed_cpus().map_err(|e| e.to_string())?;
    // The daemon's threads and the client share the highest allowed
    // CPU; the tuner fit and re-measurements use every allowed CPU.
    let pinned = *cpus.last().ok_or("no allowed cpu")?;
    out.provenance_str(
        "placement",
        "client, connection, shard and accept threads pinned to one cpu; \
         tuner fit and re-measurement os-placed on every allowed cpu",
    );
    out.provenance_json("cpus", format!("{cpus:?}"));
    out.provenance_json("pinned_cpu", pinned.to_string());
    out.provenance_json(
        "threads",
        "{\"client\": 1, \"connection\": 1, \"shard\": 1, \"accept\": 1}".into(),
    );
    let timed_ops = spec.timed_ops(opts.seconds);
    let warmup_ops = spec.warmup_ops();
    out.provenance_json("frame_ops", spec.frame_ops.to_string());
    out.provenance_json("window_ops", spec.window_ops.to_string());
    out.provenance_json("warmup_ops", warmup_ops.to_string());
    out.provenance_json("timed_ops", timed_ops.to_string());
    out.provenance_json("timed_frames", (timed_ops / spec.frame_ops).to_string());
    out.provenance_json("preload_keys", spec.preload_keys.to_string());

    let t = Instant::now();
    let ops = spec.generate(opts.seed, timed_ops);
    let generate_ns = t.elapsed().as_nanos() as f64 / ops.len() as f64;
    let plan = tune::serve_plan(opts.scale);
    let serve_cfg = spec.serve_config();
    let sessions_wanted = if tracer.is_some() { 1 } else { spec.sessions };
    out.provenance_json("sessions", sessions_wanted.to_string());

    // Each session fits the tuner, starts a fresh daemon, warms it up
    // (set-up ends here) and sends the whole timed stream.
    let mut setup_s = Vec::with_capacity(sessions_wanted);
    let mut runs = Vec::with_capacity(sessions_wanted);
    let mut fit_times = FitTimes::default();
    let mut sessions = Vec::with_capacity(sessions_wanted);
    let mut tuner = None;
    for _ in 0..sessions_wanted {
        let t = Instant::now();
        let (fitted, times) =
            tune::fit(&plan, tracer.as_deref_mut()).map_err(|e| format!("tuner fit: {e}"))?;
        let fit_s = t.elapsed().as_secs_f64();
        fit_times = times;
        // The sweep is not set-up work: it runs on the side, before the
        // daemon takes the tuner.
        let sweep_start = Instant::now();
        let sweep = tune::sweep(&fitted, tracer.as_deref_mut(), SWEEPS);
        let setup_start = t + sweep_start.elapsed();
        runs.push((fit_s, sweep));
        tuner = Some(tune::duplicate(&fitted, &plan).ok_or("fitted tuner lost its state")?);
        let server = Server::bind("127.0.0.1:0", fitted, serve_cfg).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        sys::pin_current_thread(&[pinned]).map_err(|e| e.to_string())?;
        let result = std::thread::scope(|scope| {
            let daemon = scope.spawn(|| server.run());
            let result = drive(
                addr,
                spec,
                &ops,
                opts,
                &mut setup_s,
                setup_start,
                tracer.as_deref_mut(),
            );
            // Whatever happened, stop the daemon and wait for it.
            server.stop();
            let report = daemon.join();
            (result, report)
        });
        sys::pin_current_thread(&cpus).map_err(|e| e.to_string())?;
        let (result, report) = result;
        let report = report
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| e.to_string())?;
        let (record, stats, config) = result.map_err(|e| e.to_string())?;
        sessions.push((record, stats, config, report));
    }
    let tuner = tuner.ok_or("no session ran")?;

    // Correctness, per session.
    let sent = (warmup_ops + timed_ops) as u64;
    let windows = sent / spec.window_ops as u64;
    for (record, stats, config, report) in &sessions {
        out.attempted += sent;
        out.failed += record.failed_ops;
        out.check(record.failed_ops == 0, "every batch result is a latency");
        out.check(
            stats.operations == sent,
            format!("daemon counted {} ops, {sent} sent", stats.operations),
        );
        out.check(
            report.operations == sent,
            format!("daemon report counted {} ops", report.operations),
        );
        out.check(
            stats.windows_closed == windows,
            format!(
                "{} windows closed, {windows} expected",
                stats.windows_closed
            ),
        );
        if spec.regimes.len() > 1 {
            out.check(
                stats.reconfigurations >= 1,
                "the shifting workload reconfigures the live engine",
            );
        }
        let first = &sessions[0];
        out.check(
            record.latencies == first.0.latencies && config.events.len() == first.2.events.len(),
            "every session returns the same simulated latencies and reconfigurations",
        );
    }
    let (record, stats, config, _) = sessions.last().expect("at least one session");

    // End-to-end, from the untraced frames of every session. Each stream
    // is cut into chunks that carry the same mix of work; host
    // interference only ever adds time, so the fastest decile of chunks
    // is the steady estimate of what the code costs (README.md, "Noise").
    let timed_from = warmup_ops;
    let sim_s: f64 = record.latencies[timed_from..]
        .iter()
        .map(|&l| f64::from(l) * 1e-6)
        .sum();
    let chunk_frames = spec.chunk_ops() / spec.frame_ops;
    let chunks: Vec<ChunkStats> = sessions
        .iter()
        .flat_map(|(r, ..)| chunk_stats(r, chunk_frames, spec.frame_ops))
        .collect();
    let rates: Vec<f64> = chunks.iter().map(|c| c.ops_per_sec).collect();
    let p50s: Vec<f64> = chunks.iter().map(|c| c.p50_us).collect();
    let p95s: Vec<f64> = chunks.iter().map(|c| c.p95_us).collect();
    out.push("setup_s", "s", Clock::Wall, median(&setup_s));
    out.push("frame_p50_us", "us", Clock::Wall, quantile(&p50s, 0.1));
    out.push(
        "sim_ops_per_sec",
        "ops/s",
        Clock::Sim,
        timed_ops as f64 / sim_s,
    );

    // The daemon's tuner, re-measured like the offline one.
    let snapshot_t = Instant::now();
    let snapshot = tune::build_snapshot(&plan.ctx);
    let snapshot_ms = snapshot_t.elapsed().as_secs_f64() * 1e3;
    let winners = &runs.last().expect("at least one set-up").1.winners;
    let measured = tune::remeasure(&plan.ctx, &snapshot, winners);
    let (default, tuned) = measured.split_at(measured.len() / 2);
    tune::report_quality(out, &tuner, &runs, default, tuned);
    out.provenance_json("chunks", chunks.len().to_string());
    out.provenance_json("stream_wall_s", format!("{}", record.wall_s));

    let Some(tracer) = tracer else {
        return Ok(());
    };
    let mut layers = Layers::default();
    let replay = replay(&tuner, spec, &serve_cfg, &ops, record, tracer);
    out.check(
        replay.mismatched_latencies == 0,
        format!(
            "engine replay reproduces the daemon's per-op latencies ({} differ)",
            replay.mismatched_latencies
        ),
    );
    let daemon_windows: Vec<u64> = config.events.iter().map(|e| e.window).collect();
    out.check(
        replay.reconfig_windows == daemon_windows,
        format!(
            "replay reconfigures at windows {:?}, the daemon at {daemon_windows:?}",
            replay.reconfig_windows
        ),
    );
    let per_op = |ns: u64| ns as f64 / timed_ops as f64;
    // Client side, from the traced frames' spans: the frame's self time
    // (its length minus encode and response decode) is the time spent in
    // the daemon and the sockets.
    let totals = tracer.totals();
    let span = |name| totals.get(name).copied().unwrap_or_default();
    let frames = span("serve.frame");
    let traced_frames = frames.count.max(1) as f64;
    let traced_ops = traced_frames * spec.frame_ops as f64;
    layers.encode_ns_per_op = span("serve.protocol.encode").total_ns as f64 / traced_ops;
    layers.response_decode_ns_per_op =
        span("serve.protocol.decode_response").total_ns as f64 / traced_ops;
    layers.decode_ns_per_op = per_op(replay.decode_ns);
    layers.response_encode_ns_per_op = per_op(replay.response_encode_ns);
    let rtt_mean_us = frames.total_ns as f64 / traced_frames / 1e3;
    layers.residence_us_per_frame = frames.self_ns as f64 / traced_frames / 1e3;
    let client_us = rtt_mean_us - layers.residence_us_per_frame;
    let traced_rtt: Vec<f64> = record
        .rtt_ns
        .iter()
        .zip(&record.traced)
        .filter(|(_, &t)| t)
        .map(|(&ns, _)| ns as f64)
        .collect();
    // The replayed work of the same frames the client traced.
    let traced_work: Vec<f64> = replay
        .frame_work_ns
        .iter()
        .zip(&record.traced)
        .filter(|(_, &t)| t)
        .map(|(&ns, _)| ns as f64 / 1e3)
        .collect();
    let server_work_us = traced_work.iter().sum::<f64>() / traced_work.len().max(1) as f64;
    layers.transport_us_per_frame = layers.residence_us_per_frame - server_work_us;
    let empty: Vec<f64> = record
        .empty_frame_ns
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    layers.empty_frame_us = median(&empty);
    // What the independently timed parts leave unexplained: the shard
    // hand-off, plus cache effects the single-threaded replay lacks.
    layers.reconcile_gap_frac =
        (rtt_mean_us - client_us - server_work_us - layers.empty_frame_us) / rtt_mean_us;
    if spec.reconcile {
        out.check(
            layers.reconcile_gap_frac.abs() <= crate::RECONCILE_TOLERANCE,
            format!(
                "layer self times reconcile with the frame round trip (gap {:.3}, tolerance {})",
                layers.reconcile_gap_frac,
                crate::RECONCILE_TOLERANCE
            ),
        );
    }
    let untraced_rtt: Vec<f64> = record
        .rtt_ns
        .iter()
        .zip(&record.traced)
        .filter(|(_, &t)| !t)
        .map(|(&ns, _)| ns as f64)
        .collect();
    // Blocks alternate, so both halves saw the same host conditions.
    layers.trace_overhead_frac = median(&traced_rtt) / median(&untraced_rtt) - 1.0;
    let all_rtt: Vec<f64> = record.rtt_ns.iter().map(|&n| n as f64 / 1e3).collect();
    layers.frame_p99_us = quantile(&all_rtt, 0.99);
    // Too unsteady on a shared host to gate (README.md, "Measured
    // spread"); estimated like frame_p50_us.
    layers.ops_per_sec = quantile(&rates, 0.9);
    layers.frame_p95_us = quantile(&p95s, 0.1);
    layers.frames = record.rtt_ns.len() as f64;
    layers.ops = timed_ops as f64;
    layers.windows_closed = stats.windows_closed as f64;
    layers.reoptimizations = stats.reoptimizations as f64;
    layers.reconfigurations = stats.reconfigurations as f64;
    let apply: Vec<f64> = config.events.iter().map(|e| e.apply_us as f64).collect();
    layers.reconfig_apply_us = median(&apply);
    layers.observe_ns_per_op = per_op(replay.observe_ns);
    layers.generate_ns_per_op = generate_ns;
    let (reads, writes) = ops[timed_from..].iter().fold((0u64, 0u64), |(r, w), op| {
        if op.kind.is_write() {
            (r, w + 1)
        } else {
            (r + 1, w)
        }
    });
    layers.read_ns_per_op = replay.engine_read_ns as f64 / reads.max(1) as f64;
    layers.write_ns_per_op = replay.engine_write_ns as f64 / writes.max(1) as f64;
    layers.reconfigure_us = median(&replay.reconfigure_us);
    layers.preload_ms = replay.preload_ms;
    layers.snapshot_build_ms = snapshot_ms;
    let user_bytes: u64 = ops[timed_from..]
        .iter()
        .filter(|op| matches!(op.kind, OpKind::Insert | OpKind::Update))
        .map(|op| u64::from(op.payload_len))
        .sum();
    layers.engine_counts(&replay.timed_metrics, user_bytes as f64);
    layers.controller_window_us_p50 = median(&replay.window_us);
    layers.controller_window_us_max = replay.window_us.iter().copied().fold(0.0, f64::max);
    layers.fit(&fit_times);
    layers.predict_ns_per_row = crate::predict_ns_per_row(&tuner);
    layers.evals_per_search = winners
        .first()
        .map_or(0.0, |w| w.surrogate_evaluations as f64);
    (layers.cpu_user_s, layers.cpu_sys_s) = record.cpu;
    layers.failed_op_frac = out.failed_frac();
    layers.emit(out);
    out.provenance_json(
        "reconcile_tolerance",
        format!("{}", crate::RECONCILE_TOLERANCE),
    );
    let spans_path = opts.trace_path();
    tracer
        .write_jsonl(&spans_path, &out.provenance_line(), SPAN_FILE_LIMIT)
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    out.provenance_str("trace_file", &spans_path.to_string_lossy());
    Ok(())
}

type Session = (StreamRecord, StatsReport, ConfigReport);

/// Warms the daemon up, closes set-up, sends the timed stream, and reads
/// the daemon's counters.
fn drive(
    addr: SocketAddr,
    spec: &ServeSpec,
    ops: &[Operation],
    opts: &Options,
    setup_s: &mut Vec<f64>,
    setup_start: Instant,
    mut tracer: Option<&mut Tracer>,
) -> io::Result<Session> {
    let mut conn = Conn::connect(addr)?;
    let mut record = StreamRecord {
        latencies: Vec::with_capacity(ops.len()),
        ..StreamRecord::default()
    };
    let warmup = spec.warmup_ops();
    for chunk in ops[..warmup].chunks(spec.frame_ops) {
        record.failed_ops += conn.frame(chunk, &mut record.latencies, false, None)?;
    }
    setup_s.push(setup_start.elapsed().as_secs_f64());
    let mut control = Client::connect(addr)?;

    let frames = (ops.len() - warmup) / spec.frame_ops;
    record.rtt_ns.reserve(frames);
    record.traced.reserve(frames);
    // Short (test-sized) streams still get several traced blocks.
    let block = TRACE_BLOCK.min(frames / 8).max(1);
    let cpu0 = sys::cpu_times();
    let start = Instant::now();
    for (i, chunk) in ops[warmup..].chunks(spec.frame_ops).enumerate() {
        let corrupt = opts.inject_bad_op && i == frames / 2;
        let traced_block = tracer.is_some() && (i / block) % 2 == 1;
        let t = Instant::now();
        let failed = match tracer.as_deref_mut() {
            Some(tr) if traced_block => {
                let mut times = FrameTimes::default();
                let failed = conn.frame(
                    chunk,
                    &mut record.latencies,
                    corrupt,
                    Some((tr, &mut times)),
                )?;
                let frame = tr.record("serve.frame", i as u64, None, times.start, times.end);
                tr.record(
                    "serve.protocol.encode",
                    i as u64,
                    Some(frame),
                    times.start,
                    times.encoded,
                );
                tr.record(
                    "serve.protocol.decode_response",
                    i as u64,
                    Some(frame),
                    times.received,
                    times.end,
                );
                if i % block == block - 1 {
                    record.empty_frame_ns.push(conn.empty_frame()?);
                }
                failed
            }
            _ => conn.frame(chunk, &mut record.latencies, corrupt, None)?,
        };
        record.rtt_ns.push(t.elapsed().as_nanos() as u64);
        record.traced.push(traced_block);
        record.failed_ops += failed;
    }
    record.wall_s = start.elapsed().as_secs_f64();
    record.cpu = {
        let cpu1 = sys::cpu_times();
        (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1)
    };
    drop(conn);
    let stats = control.stats()?;
    let config = control.config()?;
    control.call(&Request::Shutdown)?;
    Ok((record, stats, config))
}

/// Throughput and frame-latency quantiles of one chunk of the timed
/// stream, over its untraced frames.
#[derive(Debug, Clone, Copy)]
struct ChunkStats {
    ops_per_sec: f64,
    p50_us: f64,
    p95_us: f64,
}

fn chunk_stats(record: &StreamRecord, chunk_frames: usize, frame_ops: usize) -> Vec<ChunkStats> {
    record
        .rtt_ns
        .chunks(chunk_frames.max(1))
        .zip(record.traced.chunks(chunk_frames.max(1)))
        .filter_map(|(rtt, traced)| {
            let mut us: Vec<f64> = rtt
                .iter()
                .zip(traced)
                .filter(|(_, &t)| !t)
                .map(|(&ns, _)| ns as f64 / 1e3)
                .collect();
            if us.is_empty() {
                return None;
            }
            us.sort_by(f64::total_cmp);
            let wall_s = us.iter().sum::<f64>() * 1e-6;
            Some(ChunkStats {
                ops_per_sec: (us.len() * frame_ops) as f64 / wall_s,
                p50_us: quantile_sorted(&us, 0.5),
                p95_us: quantile_sorted(&us, 0.95),
            })
        })
        .collect()
}

/// What the replay measured.
#[derive(Debug, Default)]
struct Replay {
    decode_ns: u64,
    response_encode_ns: u64,
    engine_read_ns: u64,
    engine_write_ns: u64,
    observe_ns: u64,
    controller_ns: u64,
    reconfigure_ns: u64,
    window_us: Vec<f64>,
    reconfigure_us: Vec<f64>,
    preload_ms: f64,
    mismatched_latencies: u64,
    reconfig_windows: Vec<u64>,
    /// Engine counters over the timed stream only.
    timed_metrics: EngineMetrics,
    /// Server-side work replayed for each timed frame, ns.
    frame_work_ns: Vec<u64>,
}

impl Replay {
    /// Server-side work replayed so far (timed frames), ns.
    fn server_ns(&self) -> u64 {
        self.decode_ns
            + self.response_encode_ns
            + self.engine_read_ns
            + self.engine_write_ns
            + self.observe_ns
            + self.controller_ns
            + self.reconfigure_ns
    }
}

/// Steps one op to completion the way a shard worker does; returns its
/// simulated latency in µs.
fn step_op(engine: &mut Engine, token: u64, op: Operation, done: &mut Vec<OpCompletion>) -> u64 {
    let ready = engine.clock();
    engine.submit(token, op, ready);
    loop {
        done.clear();
        if !engine.step_into(done) {
            return 0;
        }
        if let Some(c) = done.iter().find(|c| c.token == token) {
            return c.latency().0 / 1_000;
        }
    }
}

/// Replays the recorded stream through the daemon's public building
/// blocks — request decode, `Engine::submit`/`step_into`, the online
/// characterizer, the controller, `Engine::reconfigure`, and response
/// encode — timing each, and checks that the engine reproduces every
/// latency the daemon returned. Timings cover the timed stream only.
fn replay(
    tuner: &RafikiTuner,
    spec: &ServeSpec,
    cfg: &ServeConfig,
    ops: &[Operation],
    record: &StreamRecord,
    tracer: &mut Tracer,
) -> Replay {
    let mut r = Replay::default();
    let mut controller = OnlineController::new(tuner, cfg.controller).expect("the tuner is fitted");
    let t = Instant::now();
    let mut engine = Engine::new(controller.active_config().clone(), ServerSpec::default());
    engine.preload(spec.preload_keys, PRELOAD_PAYLOAD);
    r.preload_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut characterizer = OnlineCharacterizer::new(cfg.window_ops, cfg.krd_capacity);
    let warmup_frames = spec.warmup_ops() / spec.frame_ops;
    let mut text = String::new();
    let mut response = String::new();
    let mut done = Vec::new();
    let mut results = Vec::with_capacity(spec.frame_ops);
    let mut start_metrics = EngineMetrics::default();
    let mut token = 0u64;
    for (f, chunk) in ops.chunks(spec.frame_ops).enumerate() {
        let timed = f >= warmup_frames;
        if f == warmup_frames {
            start_metrics = *engine.metrics();
        }
        let before = r.server_ns();
        text.clear();
        encode_batch_into(chunk, &mut text);
        let id = f as u64;
        let frame_start = tracer.now();
        let t0 = Instant::now();
        let decoded = decode_batch_fast(&text);
        let decode_ns = t0.elapsed().as_nanos() as u64;
        let frame = tracer.record("replay.frame", id, None, frame_start, frame_start);
        tracer.record(
            "serve.protocol.decode_request",
            id,
            Some(frame),
            frame_start,
            frame_start + decode_ns,
        );
        let items = match decoded {
            Some(Request::Batch(items)) => items,
            _ => Vec::new(),
        };
        results.clear();
        for (i, item) in items.into_iter().enumerate() {
            let Ok(op) = item else {
                results.push(BatchResult::Error {
                    message: "unknown op code".into(),
                });
                continue;
            };
            let t0 = Instant::now();
            let latency = step_op(&mut engine, token, op, &mut done);
            let t1 = Instant::now();
            token += 1;
            let summary = characterizer.observe(&op);
            let t2 = Instant::now();
            let index = f * spec.frame_ops + i;
            if record.latencies.get(index).copied() != Some(u32::try_from(latency).unwrap_or(0)) {
                r.mismatched_latencies += 1;
            }
            results.push(BatchResult::Done {
                latency_us: latency,
            });
            if timed {
                let engine_ns = (t1 - t0).as_nanos() as u64;
                if op.kind.is_write() {
                    r.engine_write_ns += engine_ns;
                } else {
                    r.engine_read_ns += engine_ns;
                }
                r.observe_ns += (t2 - t1).as_nanos() as u64;
            }
            if let Some(window) = summary {
                let t = tracer.now();
                let decision = controller
                    .observe_window(window.index, window.read_ratio)
                    .expect("the tuner is fitted");
                let t_end = tracer.now();
                tracer.record("core.controller.observe_window", id, Some(frame), t, t_end);
                r.window_us.push((t_end - t) as f64 / 1e3);
                if timed {
                    r.controller_ns += t_end - t;
                }
                if decision.switched {
                    let t = tracer.now();
                    engine.reconfigure(controller.active_config().clone());
                    let t_end = tracer.now();
                    tracer.record("engine.reconfigure", id, Some(frame), t, t_end);
                    r.reconfigure_us.push((t_end - t) as f64 / 1e3);
                    r.reconfig_windows.push(window.index as u64);
                    if timed {
                        r.reconfigure_ns += t_end - t;
                    }
                }
            }
        }
        let t0 = Instant::now();
        response.clear();
        Response::Batch(std::mem::take(&mut results))
            .to_json()
            .encode_into(&mut response);
        let encode_ns = t0.elapsed().as_nanos() as u64;
        let end = tracer.now();
        tracer.record(
            "serve.protocol.encode_response",
            id,
            Some(frame),
            end - encode_ns,
            end,
        );
        tracer.close(frame, end);
        if timed {
            r.decode_ns += decode_ns;
            r.response_encode_ns += encode_ns;
            r.frame_work_ns.push(r.server_ns() - before);
        }
    }
    r.timed_metrics = engine.metrics().delta(&start_metrics);
    r
}
