//! Preemptive SLO-class scheduling under bursty load: interactive-class
//! p99 queueing delay of FCFS vs the preemptive scheduler, swept over
//! burst factor × {1, 4} replicas.
//!
//! This experiment goes beyond the paper (whose engine admits FCFS "as in
//! vLLM"): under on/off bursts the FCFS queue head-of-line blocks every
//! class equally, while the preemptive scheduler evicts batch-class work to
//! admit interactive queries immediately. The expectation is that
//! preemption strictly improves interactive p99 queueing delay at burst
//! factors ≥ 4 and equal replica count, paying with batch-class waits —
//! the SLO-differentiated trade an operator wants.
//!
//! Each replica's KV working memory is capped at 2 GiB (the low end of the
//! paper's Fig. 8 scale): scheduling policy only matters when bursts
//! actually contend on KV.
//!
//! One of the five figures whose smoke-scale report must equal its
//! `baselines/` file byte for byte.

use metis_core::{MetisOptions, RunConfig, RunResult, Runner, SystemKind};
use metis_datasets::{burst_arrivals, DatasetKind};
use metis_engine::{Priority, RouterPolicy, SchedPolicy};
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, push_cells, values, Figure, Sweep, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_preempt",
    artefact: "Preemptive scheduling",
    title: "interactive p99 queueing delay, FCFS vs preemptive, under bursts",
    paper: "preemption strictly improves interactive p99 queueing delay at \
            burst factor >= 4 and equal replica count; batch-class waits absorb \
            the cost and overall quality is unchanged",
    report_title: "FCFS vs preemptive SLO-class scheduling under bursty arrivals",
    queries: 96,
    run: measure,
};

const BURST_FACTORS: [f64; 3] = [1.0, 4.0, 8.0];
const REPLICAS: [usize; 2] = [1, 4];
const KV_CAP_BYTES: u64 = 2 * (1 << 30);

fn system(sched: SchedPolicy) -> SystemKind {
    SystemKind::Metis(MetisOptions {
        sched,
        priority_from_slo: true,
        ..MetisOptions::full()
    })
}

/// The interactive tail is the whole point of the preemptive scheduler.
fn int_p99(r: &RunResult) -> f64 {
    r.queue_wait(Some(Priority::Interactive)).p99()
}

fn measure(n: usize, report: &mut BenchReport) {
    let kind = DatasetKind::Musique;
    let d = dataset(kind, n);
    let base = base_qps(kind);
    println!(
        "\n--- {} ({} queries, base λ = {base}/s, KV cap {} GiB/replica) ---",
        kind.name(),
        n,
        KV_CAP_BYTES >> 30,
    );
    println!(
        "  {:<7} {:<9} {:>16} {:>16} {:>10} {:>12}",
        "burst", "replicas", "fcfs int p99(s)", "pre int p99(s)", "preempts", "all p99(s)"
    );

    // The two policies of a (burst factor, fleet size) point are adjacent
    // cells.
    let points: Vec<(f64, usize)> = BURST_FACTORS
        .iter()
        .flat_map(|&factor| REPLICAS.map(|replicas| (factor, replicas)))
        .collect();
    let mut sweep = Sweep::new("fig_preempt");
    for &(factor, replicas) in &points {
        for (policy, sched) in [
            ("fcfs", SchedPolicy::Fcfs),
            ("preemptive", SchedPolicy::Preemptive),
        ] {
            let d = &d;
            sweep = sweep.cell_with_seed(
                format!("{factor:.0}x/{replicas}r/{policy}"),
                RUN_SEED,
                move |seed| {
                    // Offered load scales with the replica count so the
                    // per-replica contention regime stays comparable.
                    let arrivals = burst_arrivals(seed, base * replicas as f64 * 1.5, factor, n);
                    let mut cfg = RunConfig::standard(system(sched), arrivals, seed)
                        .replicated(replicas, RouterPolicy::LeastKvLoad);
                    cfg.engine.kv_pool_bytes_cap = Some(KV_CAP_BYTES);
                    Runner::new(d, cfg).run()
                },
            );
        }
    }
    let cells = sweep.run();
    for (&(factor, replicas), policies) in points.iter().zip(cells.chunks(2)) {
        let [fcfs, pre] = values(policies);
        println!(
            "  {:<7} {:<9} {:>16.2} {:>16.2} {:>10} {:>12.2}",
            format!("{factor:.0}x"),
            replicas,
            int_p99(fcfs),
            int_p99(pre),
            pre.preemptions,
            pre.latency().p99(),
        );
    }

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "kv_cap_gib", KV_CAP_BYTES >> 30);
    // The interactive tail is in the report, so the baseline pins it.
    push_cells(report, &cells, |c, r| {
        c.knob("dataset", kind.name())
            .metric("interactive_queue_wait_p99_secs", int_p99(r))
    });
}
