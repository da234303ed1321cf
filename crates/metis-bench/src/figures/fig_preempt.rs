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

use crate::{base_qps, dataset, knob, push_cells, Claim, Figure, Sweep, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_preempt",
    artefact: "Preemptive scheduling",
    title: "FCFS vs preemptive SLO-class scheduling under bursty arrivals",
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

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let kind = DatasetKind::Musique;
    let d = dataset(kind, n);
    let base = base_qps(kind);

    // The two policies of a (burst factor, fleet size) point are adjacent
    // cells.
    let mut sweep = Sweep::new("fig_preempt");
    for factor in BURST_FACTORS {
        for replicas in REPLICAS {
            for (policy, sched) in [
                ("fcfs", SchedPolicy::Fcfs),
                ("preemptive", SchedPolicy::Preemptive),
            ] {
                sweep = sweep.cell_with_seed(
                    format!("{factor:.0}x/{replicas}r/{policy}"),
                    RUN_SEED,
                    move |seed| {
                        // Offered load scales with the replica count so the
                        // per-replica contention regime stays comparable.
                        let rate = base * replicas as f64 * 1.5;
                        let arrivals = burst_arrivals(seed, rate, factor, n);
                        let mut cfg = RunConfig::standard(system(sched), arrivals, seed)
                            .replicated(replicas, RouterPolicy::LeastKvLoad);
                        cfg.engine.kv_pool_bytes_cap = Some(KV_CAP_BYTES);
                        Runner::new(d, cfg).run()
                    },
                );
            }
        }
    }
    let cells = sweep.run();

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "kv_cap_gib", KV_CAP_BYTES >> 30);
    // The interactive tail is in the report, so the baseline pins it.
    push_cells(report, &cells, |c, r| {
        c.knob("dataset", kind.name())
            .metric("interactive_queue_wait_p99_secs", int_p99(r))
    });
    Vec::new()
}
