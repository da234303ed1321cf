//! `metis` — command-line workload runner for the METIS reproduction.
//!
//! ```sh
//! metis run --dataset finsec --system metis --queries 100 --qps 0.2
//! metis sweep --dataset musique
//! metis profile --dataset qmsum --queries 5
//! metis run --driver realtime --time-scale 1000 --queries 8 --json out.json
//! ```

mod args;

use std::process::ExitCode;

use metis_core::{
    fixed_config_grid, map_profile, DriverSpec, MetisOptions, RagConfig, RunConfig, RunResult,
    Runner, SystemKind,
};
use metis_datasets::{build_dataset, build_dataset_with_spec, ArrivalProcess};
use metis_engine::Priority;
use metis_llm::{GpuCluster, ModelSpec, ReplicaSpec};
use metis_metrics::BenchReport;
use metis_profiler::{LlmProfiler, ProfilerKind};

use args::{parse, Command, GpuClass, RunArgs, SystemChoice, USAGE};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&argv) {
        Ok(Command::Help) => {
            print!("{USAGE}");
            Ok(())
        }
        Ok(Command::Run(a)) => cmd_run(&a),
        Ok(Command::Sweep(a)) => {
            cmd_sweep(&a);
            Ok(())
        }
        Ok(Command::Profile(a)) => {
            cmd_profile(&a);
            Ok(())
        }
        Err(e) => Err(format!("{e}\n\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn system_of(choice: SystemChoice, slo: Option<f64>, priority_from_slo: bool) -> SystemKind {
    match choice {
        SystemChoice::Metis => {
            let mut opts = MetisOptions::full();
            opts.slo_secs = slo;
            opts.priority_from_slo = priority_from_slo;
            SystemKind::Metis(opts)
        }
        SystemChoice::AdaptiveRag => SystemKind::AdaptiveRag {
            profiler: ProfilerKind::Gpt4o,
        },
        SystemChoice::FixedStuff(k) => SystemKind::VllmFixed {
            config: RagConfig::stuff(k),
        },
        SystemChoice::FixedMapReduce(k, l) => SystemKind::VllmFixed {
            config: RagConfig::map_reduce(k, l),
        },
    }
}

fn run_once(a: &RunArgs, system: SystemKind) -> RunResult {
    let dataset = build_dataset_with_spec(a.dataset, a.queries, a.seed, a.index, a.quant);
    let closed_loop = a.qps <= 0.0;
    let arrivals = if closed_loop {
        vec![0; a.queries]
    } else {
        a.arrivals.arrivals(a.seed ^ 0xA11, a.qps, a.queries)
    };
    let mut cfg = RunConfig::standard(system, arrivals, a.seed);
    cfg.closed_loop = closed_loop;
    cfg.replicas = a.replicas;
    if let Some(mix) = &a.replica_mix {
        cfg.replica_specs = Some(
            mix.iter()
                .map(|class| {
                    ReplicaSpec::new(match class {
                        GpuClass::A40 => GpuCluster::single_a40(),
                        GpuClass::H100 => GpuCluster::single_h100(),
                    })
                })
                .collect(),
        );
    }
    cfg.router = a.router;
    cfg.engine.preempt_mode = a.preempt_mode;
    if a.autoscale {
        // `--replicas` is the starting fleet; the default policy's band
        // (1..=8 replicas) governs how far the run may grow or drain.
        cfg = cfg.with_autoscale(metis_core::Autoscaler::default());
    }
    if a.big_model {
        cfg.model = ModelSpec::llama31_70b_awq();
        cfg.cluster = GpuCluster::dual_a40();
    }
    cfg.prefix_cache_bytes = a.prefix_cache_bytes;
    cfg.driver = a.driver;
    Runner::new(&dataset, cfg).run()
}

fn print_result(label: &str, r: &RunResult) {
    let lat = r.latency();
    println!(
        "{label:<28} mean {:>6.2}s  p50 {:>6.2}s  p99 {:>6.2}s  F1 {:.3}  $api {:.4}",
        lat.mean(),
        lat.p50(),
        lat.p99(),
        r.mean_f1(),
        r.api_cost_usd
    );
}

fn cmd_run(a: &RunArgs) -> Result<(), String> {
    println!(
        "dataset {:?}, {} queries, {}{}",
        a.dataset,
        a.queries,
        if a.qps <= 0.0 {
            "closed loop".to_string()
        } else {
            format!("{} arrivals, λ = {}/s", a.arrivals.name(), a.qps)
        },
        if a.replicas > 1 {
            format!(", {} replicas ({})", a.replicas, a.router.name())
        } else {
            String::new()
        }
    );
    // Under the realtime driver the run takes real time — virtual seconds
    // divided by `--time-scale` — so the summary reports how faithfully the
    // wall tracked the virtual makespan, read through the sanctioned `WallClock`.
    let wall_clock = metis_llm::WallClock::new(1.0);
    let r = run_once(a, system_of(a.system, a.slo, a.priority_from_slo));
    let wall = wall_clock.now() as f64 / 1e9;
    print_result(&format!("{:?}", a.system), &r);
    let stages = r.stage_breakdown();
    println!(
        "stages (mean s): profile {:.3}  decide {:.3}  retrieve {:.3}  \
         queue-wait {:.3}  prefill {:.3}  decode {:.3}",
        stages.profile,
        stages.decide,
        stages.retrieve,
        stages.queue_wait,
        stages.prefill,
        stages.decode,
    );
    let retrieval = r.retrieval();
    println!(
        "retrieval [{}{}]: p50 {:.2} ms  p99 {:.2} ms  fact-recall {:.3}",
        a.index.label(),
        if a.quant.is_quantized() {
            format!(",{}", a.quant.name())
        } else {
            String::new()
        },
        retrieval.p50() * 1e3,
        retrieval.p99() * 1e3,
        r.mean_retrieval_recall()
    );
    if a.prefix_cache_bytes.is_some() {
        println!("prefix-cache hit rate: {:.1}%", r.prefix_hit_rate * 100.0);
    }
    if r.preemptions > 0 {
        println!("preemptions: {}", r.preemptions);
    }
    if r.migrations > 0 {
        println!(
            "migrations: {} ({} KV tokens moved, {} tokens recomputed)",
            r.migrations, r.migrated_tokens, r.preempted_tokens
        );
    }
    if a.autoscale {
        println!(
            "fleet: peak {} replicas, {:.1} replica-seconds",
            r.peak_replicas, r.replica_seconds
        );
    }
    if a.priority_from_slo {
        for p in Priority::all() {
            let lat = r.latency_of(p);
            let wait = r.queue_wait(Some(p));
            if lat.is_empty() {
                continue;
            }
            println!(
                "  {:<12} {:>3} queries  delay p50 {:>6.2}s p99 {:>6.2}s  queue-wait p99 {:>6.2}s",
                p.name(),
                lat.len(),
                lat.p50(),
                lat.p99(),
                wait.p99(),
            );
        }
    }
    if a.replicas > 1 {
        let counts = r.completions_by_replica();
        let parts: Vec<String> = counts
            .iter()
            .enumerate()
            .map(|(i, n)| format!("r{i}={n}"))
            .collect();
        println!("per-replica completions: {}", parts.join(" "));
    }
    if let DriverSpec::Realtime { time_scale } = r.driver {
        println!(
            "virtual makespan {:.2}s  wall {wall:.2}s  (expected wall ≥ {:.2}s at {time_scale}×)",
            r.makespan_secs,
            r.makespan_secs / time_scale,
        );
    }
    match &a.json {
        Some(path) => write_report_to(&build_report(a, &r), path),
        None => Ok(()),
    }
}

/// Builds the run's single-cell [`BenchReport`] — the same schema the bench
/// harness emits, so CLI runs slot into the same tooling (`cmp`/`diff`,
/// plotting) as figure reproductions. Realtime cells additionally carry the
/// `driver`/`time_scale` markers `cell_report` stamps on them.
fn build_report(a: &RunArgs, r: &RunResult) -> BenchReport {
    let mut report = BenchReport::new("cli_run", "metis run");
    report.dataset_seed = a.seed;
    report.run_seed = a.seed;
    report = report
        .knob("dataset", format!("{:?}", a.dataset))
        .knob("system", format!("{:?}", a.system))
        .knob("queries", a.queries)
        .knob("qps", a.qps)
        .knob("arrivals", a.arrivals.name())
        .knob("replicas", a.replicas)
        .knob("router", a.router.name())
        .knob("index", a.index.label())
        .knob("quantize", a.quant.name())
        .knob("driver", r.driver.name());
    if let DriverSpec::Realtime { time_scale } = r.driver {
        report = report.knob("time_scale", time_scale);
    }
    // Elasticity knobs only when they shape the run, so reports from plain
    // fixed-fleet invocations keep their existing shape.
    if a.preempt_mode != metis_engine::PreemptMode::Recompute {
        report = report.knob("preempt_mode", a.preempt_mode.name());
    }
    if a.autoscale {
        report = report.knob("autoscale", true);
    }
    if let Some(mix) = &a.replica_mix {
        let names: Vec<&str> = mix
            .iter()
            .map(|c| match c {
                GpuClass::A40 => "a40",
                GpuClass::H100 => "h100",
            })
            .collect();
        report = report.knob("replica_mix", names.join(","));
    }
    // Likewise the serving knobs, each only when its flag is set (the burst
    // factor with every burst run: its default shapes the arrivals too).
    if let Some(secs) = a.slo {
        report = report.knob("slo", secs);
    }
    if a.priority_from_slo {
        report = report.knob("priority_from_slo", true);
    }
    if a.big_model {
        report = report.knob("big_model", true);
    }
    if let Some(bytes) = a.prefix_cache_bytes {
        report = report.knob("prefix_cache_gb", bytes >> 30);
    }
    if let ArrivalProcess::Burst { factor } = a.arrivals {
        report = report.knob("burst_factor", factor);
    }
    report.cells.push(
        r.cell_report("run", a.seed)
            .knob("system", format!("{:?}", a.system)),
    );
    report
}

/// Writes a report to `path`, creating parent directories as needed.
fn write_report_to(report: &BenchReport, path: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, report.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("report: {path}");
    Ok(())
}

fn cmd_sweep(a: &RunArgs) {
    println!(
        "fixed-configuration sweep on {:?} ({} queries, λ = {}/s)",
        a.dataset, a.queries, a.qps
    );
    for config in fixed_config_grid() {
        let r = run_once(a, SystemKind::VllmFixed { config });
        print_result(&config.label(), &r);
    }
}

fn cmd_profile(a: &RunArgs) {
    let dataset = build_dataset(a.dataset, a.queries, a.seed);
    let mut profiler = LlmProfiler::new(ProfilerKind::Gpt4o);
    let metadata = dataset.db.metadata().clone();
    for q in &dataset.queries {
        let out = profiler.profile(q, &metadata, a.seed);
        let e = out.estimate;
        let space = map_profile(&e);
        println!(
            "q{:<4} true(pieces {}, joint {}, {:?}) est(pieces {}, joint {}, {:?}, conf {:.2}) \
             → methods {:?}, chunks {}..{}, summary {}..{}",
            q.id.0,
            q.profile.pieces,
            q.profile.joint,
            q.profile.complexity,
            e.pieces,
            e.joint,
            e.complexity,
            e.confidence,
            space.methods.iter().map(|m| m.name()).collect::<Vec<_>>(),
            space.num_chunks.0,
            space.num_chunks.1,
            space.intermediate_length.0,
            space.intermediate_length.1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_that_cannot_be_written_is_an_error() {
        // A path whose parent is a regular file: neither creatable nor writable.
        let file = std::env::temp_dir().join(format!("metis-cli-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, "").expect("temp file");
        let path = file.join("report.json");
        let result = write_report_to(&BenchReport::new("t", "t"), &path.to_string_lossy());
        std::fs::remove_file(&file).expect("remove temp file");
        let err = result.expect_err("the write cannot have succeeded");
        assert!(err.starts_with("cannot create "), "{err}");
    }

    #[test]
    fn a_report_records_the_serving_knobs_only_when_set() {
        let knobs_of = |a: &RunArgs| {
            let r = run_once(a, system_of(a.system, a.slo, a.priority_from_slo));
            build_report(a, &r).knobs
        };
        let plain = RunArgs {
            dataset: metis_datasets::DatasetKind::Squad,
            queries: 2,
            ..RunArgs::default()
        };
        let serving = [
            "slo",
            "priority_from_slo",
            "big_model",
            "prefix_cache_gb",
            "burst_factor",
        ];
        let knobs = knobs_of(&plain);
        assert!(
            knobs.iter().all(|(k, _)| !serving.contains(&k.as_str())),
            "{knobs:?}"
        );

        let knobs = knobs_of(&RunArgs {
            slo: Some(1.5),
            priority_from_slo: true,
            big_model: true,
            prefix_cache_bytes: Some(4 << 30),
            arrivals: ArrivalProcess::Burst { factor: 6.0 },
            ..plain
        });
        let set: Vec<(&str, &str)> = knobs
            .iter()
            .filter(|(k, _)| serving.contains(&k.as_str()))
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            set,
            [
                ("slo", "1.5"),
                ("priority_from_slo", "true"),
                ("big_model", "true"),
                ("prefix_cache_gb", "4"),
                ("burst_factor", "6"),
            ]
        );
    }
}
