//! The tuner side of every workload: fit a [`RafikiTuner`], sweep
//! `optimize` over the paper's 11 read ratios, and re-measure the
//! default and tuned configurations on the engine.

use crate::report::{geomean, median, quantile, Clock, Outcome};
use crate::trace::Tracer;
use crate::Scale;
use rafiki::{
    CollectionPlan, ConfigSearchSpace, EvalContext, OptimizedConfig, RafikiTuner, TunerConfig,
    TunerError,
};
use rafiki_engine::{param_catalog, EngineConfig, EngineSnapshot};
use rafiki_neural::SurrogateModel;
use rafiki_workload::{BenchmarkSpec, WorkloadSpec};
use std::time::Instant;

/// The paper's read-ratio sweep: 0.0, 0.1, ..., 1.0.
pub fn sweep_ratios() -> Vec<f64> {
    (0..=10).map(|i| f64::from(i) / 10.0).collect()
}

/// A tuner's evaluation context and settings.
#[derive(Debug, Clone)]
pub struct TunePlan {
    /// Where the tuner measures configurations.
    pub ctx: EvalContext,
    /// Collection plan, surrogate and GA settings.
    pub cfg: TunerConfig,
}

/// A `TunerConfig::fast` plan (the repository's quick pipeline: five
/// key parameters, 8 configurations × 5 read ratios) over a context
/// preloading `keys` rows and measuring `duration_s` simulated seconds
/// with `clients` closed-loop clients.
fn plan(keys: u64, duration_s: f64, clients: usize, seed: u64) -> TunePlan {
    TunePlan {
        ctx: EvalContext {
            bench: BenchmarkSpec {
                duration_secs: duration_s,
                warmup_secs: duration_s / 4.0,
                clients,
                sample_window_secs: duration_s / 2.0,
            },
            workload: WorkloadSpec {
                initial_keys: keys,
                ..WorkloadSpec::with_read_ratio(0.5)
            },
            preload_keys: keys,
            preload_payload: 1_000,
            seed,
            ..EvalContext::small()
        },
        cfg: TunerConfig::fast(),
    }
}

/// The offline workload's pipeline: the measurement workloads come from
/// `seed`; 32 clients on 20k rows, 0.5 simulated seconds per point,
/// sized so the fit can be repeated eight times in one run.
pub fn offline_plan(seed: u64, scale: Scale) -> TunePlan {
    match scale {
        Scale::Full => plan(20_000, 0.5, 32, seed),
        Scale::Tiny => tiny_plan(seed),
    }
}

/// The daemon's tuner. It is the daemon's model rather than its input,
/// so it does not depend on the run's seed: 16 clients on 20k rows,
/// 0.5 simulated seconds per point.
pub fn serve_plan(scale: Scale) -> TunePlan {
    match scale {
        Scale::Full => plan(20_000, 0.5, 16, 0),
        Scale::Tiny => tiny_plan(0),
    }
}

fn tiny_plan(seed: u64) -> TunePlan {
    let mut tiny = plan(4_000, 0.2, 8, seed);
    tiny.ctx.preload_payload = 200;
    tiny.cfg.collection = CollectionPlan {
        configurations: 3,
        read_ratios: vec![0.0, 0.5, 1.0],
        ..CollectionPlan::default()
    };
    tiny
}

/// Wall times of a traced fit's phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitTimes {
    /// `CollectionPlan::collect`, s.
    pub collect_s: f64,
    /// Grid points collected.
    pub grid_points: usize,
    /// `SurrogateModel::fit`, s.
    pub train_s: f64,
}

/// Fits a tuner. Untraced, this is `RafikiTuner::fit`. Traced, it runs
/// the same phases through their public entry points so each can be
/// timed: `CollectionPlan::collect`, then `SurrogateModel::fit`, then
/// `RafikiTuner::install`. Both plans skip screening, so the two paths
/// build the same tuner.
///
/// # Errors
///
/// Propagates the tuner's error.
pub fn fit(
    plan: &TunePlan,
    tracer: Option<&mut Tracer>,
) -> Result<(RafikiTuner, FitTimes), TunerError> {
    let mut tuner = RafikiTuner::new(plan.ctx.clone(), plan.cfg.clone());
    let Some(tracer) = tracer else {
        tuner.fit()?;
        return Ok((tuner, FitTimes::default()));
    };
    assert!(
        plan.cfg.screening.is_none() && plan.cfg.fixed_params.is_none(),
        "the traced fit replays the unscreened path only"
    );
    let ids = TunerConfig::paper_key_params();
    let params = param_catalog()
        .into_iter()
        .filter(|p| ids.contains(&p.id))
        .collect();
    let space = ConfigSearchSpace::new(params, EngineConfig::default());
    let t0 = Instant::now();
    let dataset = tracer.time("core.collect", 0, None, || {
        plan.cfg.collection.collect(&plan.ctx, &space)
    });
    let collect_s = t0.elapsed().as_secs_f64();
    if dataset.is_empty() {
        return Err(TunerError::EmptyDataset);
    }
    let t1 = Instant::now();
    let surrogate = tracer.time("neural.fit", 0, None, || {
        SurrogateModel::fit(&dataset.to_training_data(), &plan.cfg.surrogate)
    });
    let times = FitTimes {
        collect_s,
        grid_points: dataset.len(),
        train_s: t1.elapsed().as_secs_f64(),
    };
    tuner.install(space, surrogate, dataset);
    Ok((tuner, times))
}

/// A second tuner with the same fitted state (the daemon takes
/// ownership of the one it serves with).
pub fn duplicate(tuner: &RafikiTuner, plan: &TunePlan) -> Option<RafikiTuner> {
    let mut copy = RafikiTuner::new(plan.ctx.clone(), plan.cfg.clone());
    copy.install(
        tuner.space()?.clone(),
        tuner.surrogate()?.clone(),
        tuner.dataset()?.clone(),
    );
    Some(copy)
}

/// The 11-point `optimize` sweep.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// One winner per read ratio, in sweep order.
    pub winners: Vec<OptimizedConfig>,
    /// Wall time of each `optimize` call, ms.
    pub search_ms: Vec<f64>,
    /// Wall time of the whole sweep, s.
    pub total_s: f64,
    /// Searches that returned an error.
    pub errors: u64,
}

/// Runs `optimize` at each of the 11 read ratios, then `times − 1` more
/// sweeps that only add call timings; a repeat that picks a different
/// configuration counts as an error.
pub fn sweep(tuner: &RafikiTuner, mut tracer: Option<&mut Tracer>, times: usize) -> Sweep {
    let mut out = Sweep::default();
    for pass in 0..times.max(1) {
        let start = Instant::now();
        for (i, rr) in sweep_ratios().into_iter().enumerate() {
            let t = Instant::now();
            let result = match tracer.as_deref_mut() {
                Some(tr) => tr.time("ga.optimize", i as u64, None, || tuner.optimize(rr)),
                None => tuner.optimize(rr),
            };
            out.search_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok(w) if pass == 0 => out.winners.push(w),
                Ok(w)
                    if out
                        .winners
                        .get(i)
                        .is_some_and(|first| first.config == w.config) => {}
                _ => out.errors += 1,
            }
        }
        if pass == 0 {
            out.total_s = start.elapsed().as_secs_f64();
        }
    }
    out
}

/// One re-measurement on the engine.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Simulated throughput, ops/s.
    pub ops_per_sec: f64,
    /// Operations completed in the measured period.
    pub ops: u64,
    /// Wall time of the measurement, s.
    pub wall_s: f64,
}

/// Re-measures the default configuration and every winner at its read
/// ratio, on up to `nproc` threads, hydrating engines from `snapshot`.
/// Returns the default measurements then the tuned ones, in sweep order.
pub fn remeasure(
    ctx: &EvalContext,
    snapshot: &EngineSnapshot,
    winners: &[OptimizedConfig],
) -> Vec<Measured> {
    let ratios = sweep_ratios();
    let n = winners.len().min(ratios.len());
    let defaults = EngineConfig::default();
    rafiki_stats::parallel_indexed(2 * n, |i| {
        let (rr, cfg) = if i < n {
            (ratios[i], &defaults)
        } else {
            (ratios[i - n], &winners[i - n].config)
        };
        let t = Instant::now();
        let r =
            ctx.measure_detailed_seeded_snapshot(rr, cfg, ctx.seed.wrapping_add(1), Some(snapshot));
        Measured {
            ops_per_sec: r.avg_ops_per_sec,
            ops: r.total_ops,
            wall_s: t.elapsed().as_secs_f64(),
        }
    })
    .expect("re-measurement worker panicked")
}

/// Folds passes of the same re-measurements into one: each measurement
/// keeps its fastest wall time. Returns `None` when the passes' results
/// differ, which deterministic measurements never do.
pub fn fastest(passes: &[Vec<Measured>]) -> Option<Vec<Measured>> {
    let (first, rest) = passes.split_first()?;
    let mut out = first.clone();
    for pass in rest {
        if pass.len() != out.len() {
            return None;
        }
        for (m, p) in out.iter_mut().zip(pass) {
            if (m.ops_per_sec, m.ops) != (p.ops_per_sec, p.ops) {
                return None;
            }
            m.wall_s = m.wall_s.min(p.wall_s);
        }
    }
    Some(out)
}

/// Builds the snapshot re-measurements hydrate from, and hydrates one
/// engine so its layout is built now rather than inside the timed
/// phase.
pub fn build_snapshot(ctx: &EvalContext) -> EngineSnapshot {
    let snapshot = ctx.snapshot();
    let mut engine = rafiki_engine::Engine::new(EngineConfig::default(), ctx.server);
    engine.preload_from(&snapshot);
    snapshot
}

/// The tuner's cost and quality, checked and reported. `runs` holds each
/// repetition's fit wall time and sweep, identical work done again; the
/// last sweep's winners are the ones re-measured.
///
/// - `tune_s`: the fastest repetition's fit plus first sweep;
/// - `search_ms`: the 10th percentile of every `optimize` call's time;
/// - `tuned_gain`: geometric mean of tuned/default measured throughput;
/// - `pred_error`: median |predicted/measured − 1| over the winners.
///
/// Every prediction, the default configuration's included, must be
/// finite and positive.
///
/// Host interference only ever adds time, so the fastest repetitions are
/// the steadiest estimate of what the code costs.
pub fn report_quality(
    out: &mut Outcome,
    tuner: &RafikiTuner,
    runs: &[(f64, Sweep)],
    default: &[Measured],
    tuned: &[Measured],
) {
    let Some((_, sweep)) = runs.last() else {
        out.check(false, "the tuner ran at least once");
        return;
    };
    let winners: Vec<&EngineConfig> = sweep.winners.iter().map(|w| &w.config).collect();
    out.check(
        runs.iter().all(|(_, s)| {
            s.winners
                .iter()
                .map(|w| &w.config)
                .eq(winners.iter().copied())
        }),
        "repeated fits and sweeps pick the same configurations",
    );
    let tune_s = runs
        .iter()
        .map(|(fit_s, s)| fit_s + s.total_s)
        .fold(f64::INFINITY, f64::min);
    let calls: Vec<f64> = runs.iter().flat_map(|(_, s)| s.search_ms.clone()).collect();
    let search_ms = quantile(&calls, 0.1);
    for (_, s) in runs {
        out.attempted += s.search_ms.len() as u64;
        out.failed += s.errors;
    }
    out.attempted += (default.len() + tuned.len()) as u64;
    out.check(
        runs.iter().all(|(_, s)| s.errors == 0),
        "every optimize call succeeds",
    );
    out.check(
        sweep.winners.len() == sweep_ratios().len(),
        "the sweep yields one winner per read ratio",
    );
    let invalid = sweep
        .winners
        .iter()
        .filter(|w| std::panic::catch_unwind(|| w.config.validate()).is_err())
        .count();
    out.failed += invalid as u64;
    out.check(
        invalid == 0,
        "every tuned config passes EngineConfig::validate",
    );
    // Predictions for the winners, then for the default configuration.
    let default_genome = tuner.space().map(|s| vec![s.default_genome()]);
    let predictions: Vec<f64> = sweep
        .winners
        .iter()
        .map(|w| w.predicted_throughput)
        .chain(sweep_ratios().into_iter().map(|rr| {
            default_genome
                .as_ref()
                .and_then(|g| tuner.predict_many(rr, g).ok())
                .map_or(f64::NAN, |p| p[0])
        }))
        .collect();
    let bad_pred = predictions
        .iter()
        .filter(|p| !(p.is_finite() && **p > 0.0))
        .count();
    out.failed += bad_pred as u64;
    out.check(bad_pred == 0, "every prediction is finite and positive");
    let bad_measure = default
        .iter()
        .chain(tuned)
        .filter(|m| !(m.ops_per_sec.is_finite() && m.ops_per_sec > 0.0))
        .count();
    out.failed += bad_measure as u64;
    out.check(bad_measure == 0, "every re-measurement is positive");

    let gains: Vec<f64> = default
        .iter()
        .zip(tuned)
        .map(|(d, t)| t.ops_per_sec / d.ops_per_sec)
        .collect();
    // The default configuration is in every training set, so its
    // predictions are near exact; the winners' are the claims to check.
    let errors: Vec<f64> = predictions
        .iter()
        .zip(tuned)
        .map(|(p, m)| (p / m.ops_per_sec - 1.0).abs())
        .collect();
    out.push("tune_s", "s", Clock::Wall, tune_s);
    out.push("search_ms", "ms", Clock::Wall, search_ms);
    out.push("tuned_gain", "ratio", Clock::Sim, geomean(&gains));
    out.push("pred_error", "ratio", Clock::Sim, median(&errors));
}
