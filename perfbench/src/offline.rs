//! `offline_tune`: the paper's offline pipeline with no daemon. Set-up
//! builds the evaluation context and the preload snapshot; the timed
//! phase is `RafikiTuner::fit` (a collection grid over
//! snapshot-hydrated engines on up to `nproc` threads, then ensemble
//! training), `optimize` at the 11 read ratios, and re-measurement of
//! the default and tuned configurations on the engine.
//!
//! The fit and sweep run three times and every re-measurement three
//! times: identical work, so the benchmark checks that the results
//! repeat and reports the fastest repetition's wall time.

use crate::report::{geomean, median, Clock, Outcome};
use crate::trace::Tracer;
use crate::tune::{self, FitTimes};
use crate::{sys, Layers, Options, Scale};
use rafiki_engine::{Engine, EngineConfig};
use rafiki_workload::{WorkloadGenerator, WorkloadSpec};
use std::time::Instant;

/// Runs the workload and fills `out`.
///
/// # Errors
///
/// Fails when the tuner cannot be fitted.
pub fn run(
    opts: &Options,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    // Placement: the grid and the re-measurements use every allowed CPU;
    // the OS places their threads. Recorded, not pinned.
    let cpus = sys::allowed_cpus().map_err(|e| e.to_string())?;
    out.provenance_str("placement", "os-placed on every allowed cpu");
    out.provenance_json("cpus", format!("{cpus:?}"));
    out.provenance_json(
        "threads",
        format!(
            "{{\"grid_and_remeasure_workers\": {}, \"search\": 1}}",
            sys::nproc()
        ),
    );
    let (reps, setups) = match (opts.scale, tracer.is_some()) {
        (Scale::Tiny, _) => (1, 1),
        (Scale::Full, true) => (1, 3),
        (Scale::Full, false) => (8, 2),
    };

    // Each repetition sets up, fits, sweeps and re-measures: identical
    // work, spread across the run so the fastest repetition is likely to
    // have met a quiet host.
    let cpu0 = sys::cpu_times();
    let mut setup_s = Vec::with_capacity(reps * setups);
    let mut runs = Vec::with_capacity(reps);
    let mut passes = Vec::with_capacity(reps);
    let mut fitted = None;
    for _ in 0..reps {
        let mut prepared = None;
        for _ in 0..setups {
            let t = Instant::now();
            let plan = tune::offline_plan(opts.seed, opts.scale);
            let snapshot = tune::build_snapshot(&plan.ctx);
            setup_s.push(t.elapsed().as_secs_f64());
            prepared = Some((plan, snapshot));
        }
        let (plan, snapshot) = prepared.expect("at least one set-up");
        let t = Instant::now();
        let (tuner, fit_times) =
            tune::fit(&plan, tracer.as_deref_mut()).map_err(|e| format!("tuner fit: {e}"))?;
        let fit_s = t.elapsed().as_secs_f64();
        let sweep = tune::sweep(&tuner, tracer.as_deref_mut(), 2);
        passes.push(tune::remeasure(&plan.ctx, &snapshot, &sweep.winners));
        runs.push((fit_s, sweep));
        fitted = Some((plan, snapshot, tuner, fit_times));
    }
    let cpu1 = sys::cpu_times();
    let (plan, snapshot, tuner, fit_times) = fitted.expect("at least one repetition");
    let winners = &runs.last().expect("at least one repetition").1.winners;
    let fastest = tune::fastest(&passes);
    out.check(
        fastest.is_some(),
        "repeated engine measurements agree exactly",
    );
    let measured = fastest.unwrap_or_else(|| passes[0].clone());
    let (default, tuned) = measured.split_at(measured.len() / 2);
    let c = &plan.cfg.collection;
    out.provenance_json(
        "grid_points",
        (c.configurations * c.read_ratios.len()).to_string(),
    );
    out.provenance_json("repetitions", reps.to_string());

    // End-to-end. The pipeline's requests to the datastore are its
    // engine measurements, so their wall time stands in for frames.
    let walls_us: Vec<f64> = measured.iter().map(|m| m.wall_s * 1e6).collect();
    out.push("setup_s", "s", Clock::Wall, median(&setup_s));
    out.push("frame_p50_us", "us", Clock::Wall, median(&walls_us));
    let tuned_tput: Vec<f64> = tuned.iter().map(|m| m.ops_per_sec).collect();
    out.push("sim_ops_per_sec", "ops/s", Clock::Sim, geomean(&tuned_tput));
    tune::report_quality(out, &tuner, &runs, default, tuned);
    out.provenance_json("measurements", measured.len().to_string());

    let Some(tracer) = tracer else {
        return Ok(());
    };
    let mut layers = Layers::default();
    per_layer(&mut layers, &plan, &snapshot, winners, &fit_times, tracer);
    layers.predict_ns_per_row = crate::predict_ns_per_row(&tuner);
    layers.evals_per_search = winners
        .first()
        .map_or(0.0, |w| w.surrogate_evaluations as f64);
    layers.cpu_user_s = cpu1.0 - cpu0.0;
    layers.cpu_sys_s = cpu1.1 - cpu0.1;
    // Fewer than a hundred spans against seconds of work: the overhead
    // is the measured cost of recording that many spans.
    let tune_s = runs[0].0 + runs[0].1.total_s;
    layers.trace_overhead_frac = crate::span_cost_s(tracer.spans().len()) / tune_s;
    layers.failed_op_frac = out.failed_frac();
    layers.emit(out);
    let path = opts.trace_path();
    tracer
        .write_jsonl(&path, &out.provenance_line(), usize::MAX)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(())
}

/// The engine and fit layers, timed through their public entry points.
fn per_layer(
    layers: &mut Layers,
    plan: &tune::TunePlan,
    snapshot: &rafiki_engine::EngineSnapshot,
    winners: &[rafiki::OptimizedConfig],
    fit_times: &FitTimes,
    tracer: &mut Tracer,
) {
    layers.fit(fit_times);
    let t = Instant::now();
    let mut fresh = Engine::new(EngineConfig::default(), plan.ctx.server);
    tracer.time("engine.preload", 0, None, || {
        fresh.preload(plan.ctx.preload_keys, plan.ctx.preload_payload);
    });
    layers.preload_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    tracer.time("engine.snapshot_build", 0, None, || {
        tune::build_snapshot(&plan.ctx)
    });
    layers.snapshot_build_ms = t.elapsed().as_secs_f64() * 1e3;

    // Engine counters from one measurement repeated through
    // `run_benchmark`: the tuned configuration at read ratio 0.5.
    let mid = winners.len() / 2;
    let cfg = winners
        .get(mid)
        .map_or_else(EngineConfig::default, |w| w.config.clone());
    let mut engine = Engine::new(cfg, plan.ctx.server);
    engine.preload_from(snapshot);
    let mut gen = WorkloadGenerator::new(
        WorkloadSpec {
            read_ratio: tune::sweep_ratios()[mid.min(10)],
            ..plan.ctx.workload
        },
        plan.ctx.seed.wrapping_add(1),
    );
    let probe = tracer.time("engine.measure", mid as u64, None, || {
        rafiki_engine::run_benchmark(&mut engine, &mut gen, &plan.ctx.bench)
    });
    // Payloads are drawn per write; the mean stands in for their sum.
    let user_bytes = probe.write_ops as f64 * plan.ctx.workload.payload.mean();
    layers.engine_counts(engine.metrics(), user_bytes);
}
