//! The benchmark's own checks, each workload at a tiny size.

use rafiki_perfbench::report::{Clock, Outcome};
use rafiki_perfbench::{run, Options, Scale, WORKLOADS};
use rafiki_serve::Json;
use std::path::PathBuf;
use std::sync::Mutex;

fn options(workload: &str, seed: u64, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed,
        seconds: 1,
        trace,
        scale: Scale::Tiny,
        inject_bad_op: false,
        out_dir: std::env::temp_dir().join(format!("rafiki-perfbench-{}", std::process::id())),
    }
}

/// Workloads pin threads and time themselves: run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn run_one(opts: &Options) -> Result<Outcome, String> {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    run(opts)
}

fn run_ok(opts: &Options) -> Outcome {
    let out = run_one(opts).unwrap_or_else(|e| panic!("{} failed to run: {e}", opts.workload));
    assert!(
        out.correct(),
        "{} seed {} trace {}: failed checks {:?}",
        opts.workload,
        opts.seed,
        opts.trace,
        out.failed_checks
    );
    out
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let workloads = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(workloads).expect("BENCHMARK.json is readable");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let names: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
    for workload in WORKLOADS {
        let untraced = run_ok(&options(workload, 3, false));
        assert_eq!(emitted(&untraced), declared("end_to_end"), "{workload}");
        let traced = run_ok(&options(workload, 3, true));
        assert_eq!(emitted(&traced), declared("per_layer"), "{workload} traced");
    }
}

/// Sim and count metrics of one outcome, by name.
fn exact(out: &Outcome) -> Vec<(&'static str, f64)> {
    out.metrics
        .iter()
        .filter(|m| m.clock != Clock::Wall)
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn sim_and_count_metrics_repeat_for_a_seed_and_change_for_another() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let a = run_ok(&options(workload, 5, trace));
            let b = run_ok(&options(workload, 5, trace));
            let c = run_ok(&options(workload, 6, trace));
            assert!(!exact(&a).is_empty(), "{workload} has exact metrics");
            assert_eq!(exact(&a), exact(&b), "{workload} trace {trace} repeats");
            assert_ne!(
                exact(&a),
                exact(&c),
                "{workload} trace {trace} changes with the seed"
            );
        }
    }
}

#[test]
fn an_unknown_op_code_is_counted_and_fails_the_run() {
    for workload in ["serve_read_hot", "serve_mgrast_shift"] {
        let opts = Options {
            inject_bad_op: true,
            ..options(workload, 7, false)
        };
        let out = run_one(&opts).expect("the run completes");
        assert!(!out.correct(), "{workload}: the injected op fails the run");
        assert!(out.failed >= 1, "{workload}: the failure is counted");
        assert!(out.failed_frac() > 0.0, "{workload}: failed_op_frac > 0");
        assert!(
            out.failed_checks
                .iter()
                .any(|c| c.contains("every batch result is a latency")),
            "{workload}: {:?}",
            out.failed_checks
        );
    }
}
