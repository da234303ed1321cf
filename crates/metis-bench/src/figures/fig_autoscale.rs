//! Fleet elasticity beyond the paper: queue-driven autoscaling on a
//! diurnal day, and KV migration vs recompute under preemption pressure.
//!
//! **Part 1 — the elasticity frontier.** The paper evaluates METIS on a
//! fixed fleet; an operator pays for replica-seconds whether or not the
//! trough needs them. This sweep serves one diurnal day (sinusoidal rate,
//! [`diurnal_arrivals`]) under the [`Autoscaler`] (starting from a single
//! replica) and under fixed fleets of {2, 4, 8}, all with SLO-derived
//! priorities. The expectation: the autoscaler bills strictly fewer
//! replica-seconds than fixed-8 while holding interactive p99 delay inside
//! fixed-8's tolerance band — it buys capacity for the peak and returns it
//! at the trough.
//!
//! **Part 2 — the preemption-resume trade.** Under KV pressure the
//! preemptive scheduler evicts batch-class sequences. Recompute throws the
//! victim's computed tokens away; migrate re-places the victim on a replica
//! with KV headroom, pricing the transfer at the cluster's migration bandwidth
//! and falling back to recompute at zero headroom. On the same burst (one
//! seed, common random numbers) migrate must cut the recomputed-token bill.
//!
//! The expectations above are asserted at every scale. One of the five
//! figures whose smoke-scale report must equal its `baselines/` file byte
//! for byte.

use metis_core::{Autoscaler, MetisOptions, RunConfig, RunResult, Runner, SystemKind};
use metis_datasets::{burst_arrivals, diurnal_arrivals, Dataset, DatasetKind};
use metis_engine::{PreemptMode, Priority, RouterPolicy};
use metis_metrics::BenchReport;

use crate::{base_qps, dataset, knob, push_cells, values, Claim, Figure, Sweep, RUN_SEED};

pub(super) const FIGURE: Figure = Figure {
    name: "fig_autoscale",
    artefact: "Fleet elasticity",
    title: "Queue-driven autoscaling and KV migration under pressure",
    queries: 96,
    run: measure,
};

const FIXED_FLEETS: [usize; 3] = [2, 4, 8];
/// Per-replica KV cap for the diurnal day (Part 1): tight enough that
/// admission contends at the peak, so queue depth — the autoscaler's
/// signal — reflects saturation instead of everything batching in.
const DAY_KV_CAP_BYTES: u64 = 2 << 30;
/// Per-replica KV cap for the preemption-pressure arm (Part 2).
const KV_CAP_BYTES: u64 = 512 << 20;
/// Diurnal mean rate as a multiple of the dataset's calibrated base rate —
/// the peak (2× the mean) must outrun a small fleet so the autoscaler has
/// something to do.
const DAY_RATE_SCALE: f64 = 2.0;

fn system() -> SystemKind {
    let mut opts = MetisOptions::full();
    opts.priority_from_slo = true;
    SystemKind::Metis(opts)
}

/// The bench's scaling policy: a trough-adequate floor of 4 replicas
/// (fixed-4 already serves the day's mean), headroom to the largest fixed
/// fleet it is compared against, and a tight band (up at queue depth 2,
/// down at 1) evaluated every 500 ms so the peak is met before its queues
/// age into the tail.
fn policy() -> Autoscaler {
    Autoscaler {
        min_replicas: 4,
        max_replicas: 8,
        scale_up_queue_depth: 2,
        scale_down_queue_depth: 1,
        scale_up_pressure: 0.5,
        eval_interval_nanos: 500_000_000,
        cooldown_nanos: 2_000_000_000,
        warmup_nanos: 1_000_000_000,
    }
}

fn day_run(d: &Dataset, seed: u64, n: usize, fleet: Option<usize>) -> RunResult {
    let rate = base_qps(DatasetKind::Musique) * DAY_RATE_SCALE;
    let arrivals = diurnal_arrivals(seed, rate, n);
    let mut cfg = match fleet {
        Some(replicas) => RunConfig::standard(system(), arrivals, seed)
            .replicated(replicas, RouterPolicy::LeastKvLoad),
        None => {
            // The elastic arm starts at the policy's floor and grows from
            // there; the scaler never *raises* a fleet below its floor.
            let mut cfg = RunConfig::standard(system(), arrivals, seed)
                .replicated(policy().min_replicas, RouterPolicy::LeastKvLoad);
            cfg = cfg.with_autoscale(policy());
            cfg
        }
    };
    cfg.engine.kv_pool_bytes_cap = Some(DAY_KV_CAP_BYTES);
    Runner::new(d, cfg).run()
}

fn pressure_run(d: &Dataset, seed: u64, n: usize, mode: PreemptMode) -> RunResult {
    // Round-robin (not least-KV) so one replica can saturate while a peer
    // keeps headroom — migration needs somewhere to go.
    let arrivals = burst_arrivals(seed, 1.4, 8.0, n);
    let mut cfg =
        RunConfig::standard(system(), arrivals, seed).replicated(3, RouterPolicy::RoundRobin);
    cfg.engine.kv_pool_bytes_cap = Some(KV_CAP_BYTES);
    cfg.engine.preempt_mode = mode;
    Runner::new(d, cfg).run()
}

fn int_p99(r: &RunResult) -> f64 {
    r.latency_of(Priority::Interactive).p99()
}

fn measure(n: usize, report: &mut BenchReport) -> Vec<Claim> {
    let kind = DatasetKind::Musique;
    let d = dataset(kind, n);

    let mut sweep =
        Sweep::new("fig_autoscale").cell_with_seed("day/autoscale", RUN_SEED, move |seed| {
            day_run(d, seed, n, None)
        });
    for &fleet in &FIXED_FLEETS {
        sweep = sweep.cell_with_seed(format!("day/fixed-{fleet}"), RUN_SEED, move |seed| {
            day_run(d, seed, n, Some(fleet))
        });
    }
    let sweep = sweep
        .cell_with_seed("pressure/recompute", RUN_SEED, move |seed| {
            pressure_run(d, seed, n, PreemptMode::Recompute)
        })
        .cell_with_seed("pressure/migrate", RUN_SEED, move |seed| {
            pressure_run(d, seed, n, PreemptMode::Migrate)
        });
    let cells = sweep.run();
    let [auto, _, _, fixed8, recompute, migrate] = values(&cells);

    // The headline claims, asserted at every scale the bench runs at. The
    // baseline pins each number at smoke scale only and says nothing of
    // how they relate, so the elasticity acceptance lives here, next to
    // the numbers it is about.
    assert!(
        auto.replica_seconds < fixed8.replica_seconds,
        "autoscaler bills {:.1} replica-seconds, fixed-8 bills {:.1}",
        auto.replica_seconds,
        fixed8.replica_seconds
    );
    assert!(
        int_p99(auto) <= int_p99(fixed8) * 1.10 + 0.75,
        "autoscaled interactive p99 {:.2}s left fixed-8's band ({:.2}s)",
        int_p99(auto),
        int_p99(fixed8)
    );
    assert!(
        recompute.preemptions > 0,
        "the pressure burst must force evictions"
    );
    assert!(migrate.migrations > 0, "victims must actually move");
    assert!(
        migrate.preempted_tokens < recompute.preempted_tokens,
        "migrate recomputes {} tokens, recompute {}",
        migrate.preempted_tokens,
        recompute.preempted_tokens
    );

    knob(report, "queries", n);
    knob(report, "dataset", kind.name());
    knob(report, "day_rate_scale", DAY_RATE_SCALE);
    knob(report, "day_kv_cap_gib", DAY_KV_CAP_BYTES >> 30);
    knob(report, "pressure_kv_cap_mib", KV_CAP_BYTES >> 20);
    // Every cell carries the elasticity metrics explicitly (fixed fleets
    // and recompute cells would otherwise omit them as defaults), so
    // baseline diffs see the whole frontier.
    push_cells(report, &cells, |c, r| {
        c.knob("dataset", kind.name())
            .metric("replica_seconds", r.replica_seconds)
            .metric("peak_replicas", r.peak_replicas as f64)
            .metric("interactive_delay_p99_secs", int_p99(r))
            .metric("recomputed_tokens", r.preempted_tokens as f64)
            .metric("migrations", r.migrations as f64)
    });
    Vec::new()
}
