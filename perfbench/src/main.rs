//! `rafiki-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the provenance as one JSON line, a metric table (name, value,
//! unit, clock), and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 0 when every
//! check passed, 1 when a check failed, and 2 when the run could not be
//! made.

use rafiki_perfbench::{run, Options, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        scale: Scale::Full,
        inject_bad_op: false,
        out_dir: PathBuf::from("perfbench").join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--tiny" => opts.scale = Scale::Tiny,
            "--inject-bad-op" => opts.inject_bad_op = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rafiki-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rafiki-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", outcome.provenance_line());
    print!("{}", outcome.table());
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
