//! `metis-perf`: the repo's one benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
//! ```
//!
//! Runs the named workload, checks its outputs, prints every metric by name
//! with unit, sample count, direction and regression bound, and ends with
//! one JSON result line. With no `--workload` it re-executes itself once
//! per workload, so each gets its own process (and its own peak RSS).
//! `--trace` switches from the end-to-end run to the layer-replay run and
//! writes the spans to `<out-dir>/trace-<workload>.jsonl`.
//!
//! The harness measures every layer **from outside**, by timing calls into
//! the crates' public functions; nothing outside `perf/` knows it exists.

mod alloc;
mod ann;
mod checks;
mod layers;
mod micro;
mod realtime;
mod replay;
mod report;
mod run;
mod scenario;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use checks::Checks;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: metis-perf [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
[--out-dir DIR] [--emit-benchmark-json]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    emit_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 20_241_016,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out_dir: PathBuf::from("perf/out"),
        emit_benchmark_json: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
                args.seconds = s;
            }
            "--trace" => {
                // Bare `--trace` means on; `--trace 0|1` is the driver's form.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("--out-dir")?),
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Re-executes this binary once per workload, in spec order.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut worst = ExitCode::SUCCESS;
    for w in &spec::WORKLOADS {
        let status = Command::new(&exe)
            .arg("--workload")
            .arg(w.name)
            .arg("--seed")
            .arg(args.seed.to_string())
            .arg("--seconds")
            .arg(args.seconds.to_string())
            .arg("--trace")
            .arg(if args.trace { "1" } else { "0" })
            .arg("--out-dir")
            .arg(&args.out_dir)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: workload {} exited with {s}", w.name);
                worst = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: cannot run workload {}: {e}", w.name);
                worst = ExitCode::FAILURE;
            }
        }
    }
    worst
}

fn run_one(args: &Args, name: &str) -> ExitCode {
    let (Some(workload), Some(params)) = (spec::workload(name), run::params(name)) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload {name}; known: {}",
            known.join(", ")
        );
        return ExitCode::FAILURE;
    };
    print!(
        "{}",
        report::header(workload, args.seed, args.seconds, args.trace)
    );
    let mut checks = Checks::default();
    let expected = spec::metrics(args.trace);
    let readings = if args.trace {
        let (readings, jsonl) = run::traced(name, args.seed, &params, &mut checks);
        let path = args.out_dir.join(format!("trace-{name}.jsonl"));
        let written =
            std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, jsonl));
        match written {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        readings
    } else {
        run::untraced(args.seed, args.seconds, &params, &mut checks)
    };
    readings.verify(expected, &mut checks);
    print!("{}", readings.table(expected));
    println!(
        "  operations: {} attempted, {} succeeded, {} failed; threads: {} available, at most 2 used",
        checks.attempted(),
        checks.attempted() - checks.failed(),
        checks.failed(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    for (what, count) in checks.violations() {
        println!("  CHECK FAILED ({count}x): {what}");
    }
    println!("{}", readings.result_line(expected, &checks));
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.emit_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => run_one(&args, name),
        None => run_all(&args),
    }
}
