//! Sim/realtime parity: the same seeded workload served twice — once by the
//! deterministic discrete-event simulator and once by the live multithreaded
//! realtime driver — must agree on what happened.
//!
//! The realtime driver runs the *same* engines on the *same* latency models;
//! only the passage of time is real (scaled wall clock, one worker thread
//! per replica). Because engine timestamps stay virtual under both drivers,
//! the two runs differ only in how wall-clock jitter shifts which iteration
//! boundary absorbs each event — so their per-stage means must track each
//! other closely. This bench is the live path's correctness oracle, and it
//! **asserts**:
//!
//! * identical completion counts (every query finishes under both drivers);
//! * queue-wait / prefill / decode stage means within 10% (plus a small
//!   absolute floor for near-zero stages) at time-scale ≥ 100×.
//!
//! `METIS_TIME_SCALE` (default 200) sets the realtime driver's time
//! compression. The realtime cell carries the `driver = realtime` marker.
//! Its numbers move with the host, so this report has no baseline: the
//! bounds asserted here are what holds it.

use metis_core::{DriverSpec, RunConfig, RunResult, Runner, StageMeans};
use metis_datasets::{poisson_arrivals, DatasetKind};
use metis_engine::RouterPolicy;
use metis_llm::Clock;
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, metis, Figure, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_realtime_parity",
    artefact: "Realtime parity",
    title: "one workload, two drivers: simulator vs live threads",
    paper: "the simulator is the oracle — the live driver must reproduce its \
            stage-level behavior, not just finish the work",
    report_title: "sim vs realtime driver parity",
    queries: 16,
    run: measure,
};

/// Relative tolerance on per-stage means (the acceptance bound).
const REL_TOL: f64 = 0.10;
/// Absolute slack in seconds, so near-zero stage means (an uncontended
/// queue waits ~0s) don't trip on sub-millisecond jitter.
const ABS_FLOOR_SECS: f64 = 0.25;

fn time_scale() -> f64 {
    std::env::var("METIS_TIME_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s: &f64| s.is_finite() && s > 0.0)
        .unwrap_or(200.0)
}

fn check_stage(name: &str, sim: f64, rt: f64, failures: &mut Vec<String>) {
    let allowed = (sim * REL_TOL).max(ABS_FLOOR_SECS);
    let diff = (rt - sim).abs();
    let verdict = if diff <= allowed { "ok" } else { "MISMATCH" };
    println!("  {name:<12} sim {sim:>8.3}s  realtime {rt:>8.3}s  |Δ| {diff:>7.3}s  {verdict}");
    if diff > allowed {
        failures.push(format!(
            "{name}: sim {sim:.3}s vs realtime {rt:.3}s (|Δ| {diff:.3}s > allowed {allowed:.3}s)"
        ));
    }
}

fn measure(n: usize, report: &mut BenchReport) {
    let scale = time_scale();
    let kind = DatasetKind::Musique;
    let d = dataset(kind, n);
    let qps = base_qps(kind);
    println!(
        "\n--- {} ({n} queries, λ = {qps}/s, 2 replicas, time-scale {scale}×) ---",
        kind.name()
    );

    let run = |driver: DriverSpec| -> RunResult {
        let arrivals = poisson_arrivals(RUN_SEED ^ 0xA11, qps, n);
        let cfg = RunConfig::standard(metis(), arrivals, RUN_SEED)
            .replicated(2, RouterPolicy::RoundRobin)
            .with_driver(driver);
        Runner::new(&d, cfg).run()
    };
    let sim = run(DriverSpec::Sim);
    // The parity bench measures how much wall time the realtime driver
    // spends vs virtual time; the wall read goes through the sanctioned
    // Clock abstraction.
    let wall_clock = metis_llm::WallClock::new(1.0);
    let rt = run(DriverSpec::Realtime { time_scale: scale });
    let wall = wall_clock.now() as f64 / 1e9;

    assert_eq!(
        sim.per_query.len(),
        rt.per_query.len(),
        "drivers disagree on completion count"
    );
    assert_eq!(sim.per_query.len(), n, "queries went missing");
    println!(
        "  completions  sim {:>8}   realtime {:>8}   (wall {wall:.2}s for {:.2} virtual s)",
        sim.per_query.len(),
        rt.per_query.len(),
        rt.makespan_secs
    );

    let s: StageMeans = sim.stage_breakdown();
    let r: StageMeans = rt.stage_breakdown();
    let mut failures = Vec::new();
    check_stage("queue-wait", s.queue_wait, r.queue_wait, &mut failures);
    check_stage("prefill", s.prefill, r.prefill, &mut failures);
    check_stage("decode", s.decode, r.decode, &mut failures);
    // End-to-end delay is the telescoped sum of the stages; report it too.
    check_stage(
        "delay(mean)",
        sim.latency().mean(),
        rt.latency().mean(),
        &mut failures,
    );

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "time_scale", scale);
    for (id, result) in [("sim", &sim), ("realtime", &rt)] {
        let cell = result.cell_report(id, RUN_SEED);
        report.cells.push(cell.knob("dataset", kind.name()));
    }

    assert!(
        failures.is_empty(),
        "stage means diverged between drivers:\n  {}",
        failures.join("\n  ")
    );
    println!("  parity holds: every stage mean within max(10%, {ABS_FLOOR_SECS}s)");
}
