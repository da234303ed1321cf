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
//! Scale knob: `METIS_BENCH_QUERIES` (CI smoke runs set it low). Emits
//! `bench-reports/fig_preempt.json` — one of the five reports CI requires
//! to equal their `baselines/` file byte for byte.

use metis_bench::{base_qps, bench_queries, dataset, emit, header, new_report, Sweep, RUN_SEED};
use metis_core::{MetisOptions, RunConfig, RunResult, Runner, SystemKind};
use metis_datasets::{burst_arrivals, DatasetKind};
use metis_engine::{Priority, RouterPolicy};

const BURST_FACTORS: [f64; 3] = [1.0, 4.0, 8.0];
const REPLICAS: [usize; 2] = [1, 4];
const KV_CAP_BYTES: u64 = 2 * (1 << 30);

fn system(preemptive: bool) -> SystemKind {
    let mut opts = MetisOptions::full();
    opts.priority_from_slo = true;
    opts.preemptive = preemptive;
    opts.gang = false; // The baseline arm is plain vLLM FCFS admission.
    SystemKind::Metis(opts)
}

fn main() {
    header(
        "Preemptive scheduling",
        "interactive p99 queueing delay, FCFS vs preemptive, under bursts",
        "preemption strictly improves interactive p99 queueing delay at \
         burst factor >= 4 and equal replica count; batch-class waits absorb \
         the cost and overall quality is unchanged",
    );
    let n = bench_queries(96);
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

    let mut sweep = Sweep::new("fig_preempt");
    for &factor in &BURST_FACTORS {
        for &replicas in &REPLICAS {
            for preemptive in [false, true] {
                let d = &d;
                let policy = if preemptive { "preemptive" } else { "fcfs" };
                sweep = sweep.cell_with_seed(
                    format!("{factor:.0}x/{replicas}r/{policy}"),
                    RUN_SEED,
                    move |seed| {
                        // Offered load scales with the replica count so the
                        // per-replica contention regime stays comparable.
                        let arrivals =
                            burst_arrivals(seed, base * replicas as f64 * 1.5, factor, n);
                        let mut cfg = RunConfig::standard(system(preemptive), arrivals, seed)
                            .replicated(replicas, RouterPolicy::LeastKvLoad);
                        cfg.engine.kv_pool_bytes_cap = Some(KV_CAP_BYTES);
                        Runner::new(d, cfg).run()
                    },
                );
            }
        }
    }
    let cells = sweep.run();
    let find = |factor: f64, replicas: usize, policy: &str| -> &RunResult {
        &cells
            .iter()
            .find(|c| c.id == format!("{factor:.0}x/{replicas}r/{policy}"))
            .expect("cell computed")
            .value
    };
    for &factor in &BURST_FACTORS {
        for &replicas in &REPLICAS {
            let fcfs = find(factor, replicas, "fcfs");
            let pre = find(factor, replicas, "preemptive");
            let int_p99 = |r: &RunResult| r.queue_wait(Some(Priority::Interactive)).p99();
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
    }

    let mut report = new_report(
        "fig_preempt",
        "FCFS vs preemptive SLO-class scheduling under bursty arrivals",
    )
    .knob("queries", n)
    .knob("dataset", kind.name())
    .knob("kv_cap_gib", KV_CAP_BYTES >> 30);
    for cell in &cells {
        let r = &cell.value;
        // The interactive tail is the whole point of the preemptive
        // scheduler, so it is in the report and the baseline pins it.
        report.cells.push(
            r.cell_report(&cell.id, cell.seed)
                .knob("dataset", kind.name())
                .metric(
                    "interactive_queue_wait_p99_secs",
                    r.queue_wait(Some(Priority::Interactive)).p99(),
                ),
        );
    }
    emit(&report);
}
