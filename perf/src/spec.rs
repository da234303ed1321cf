//! The benchmark's definition: workloads, metrics, units, directions and
//! regression bounds.
//!
//! This table is the single source of truth. `BENCHMARK.json` at the repo
//! root is its rendering (`metis-perf --emit-benchmark-json`; a unit test
//! fails when the file and the table disagree), the harness refuses to
//! finish a run that did not emit exactly the metrics listed here, and
//! `perf/README.md` explains each row.

use metis_metrics::Json;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it exists (one line, at most 200 characters).
    pub why: &'static str,
}

/// One metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name in the output and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit (at most 16 characters).
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

/// The workloads, in the order an unqualified run executes them.
///
/// Every workload runs the same four stages — serve (sim), engine replay,
/// realtime-vs-sim, ANN build + search — because the driver compares every
/// end-to-end metric on every workload. What differs is the scenario the
/// serve stage runs and which stages run at full depth; the others run at
/// guard depth (see `perf/README.md`).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_paper_mix",
        why: "the paper's evaluation shape: METIS on one replica over the four Table-1 datasets, Poisson arrivals; most of the wall time is the small-corpus flat retrieval read path",
    },
    Workload {
        name: "serve_fleet_burst",
        why: "bursts on an autoscaled 3-6 replica fleet with preemption, migration and prefix routing, plus an engine-only replay of the same calls: the only place the scheduler and cluster do the work",
    },
    Workload {
        name: "serve_realtime",
        why: "same engine paced by wall-clock worker threads instead of stepped; host-side cost shows up as lost fidelity against the sim oracle; guards the sim/realtime driver fork",
    },
    Workload {
        name: "ann_index_8k",
        why: "raw-vector indexes with writes beside reads: HNSW-sq8 builds timed next to HNSW and IVF searches, so a search gain bought with build time shows; bypasses every serving layer",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics (untraced passes only).
///
/// The driver judges a bound against the spread of ten runs that each use
/// another seed, so a bound has to cover what the seed moves (every
/// `virt_*` metric and `f1_mean` repeat exactly on one seed and move with
/// it) on top of what the host moves. Each is at least three times the
/// spread measured on the seed commit (`perf/README.md` has the table),
/// capped at the contract's 0.25.
pub const END_TO_END: [Metric; 15] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("sim_queries_per_s", "1/s", Higher, 0.20),
    e2e("engine_calls_per_s", "1/s", Higher, 0.25),
    e2e("virt_delay_p50_s", "virt_s", Lower, 0.25),
    e2e("virt_delay_p90_s", "virt_s", Lower, 0.25),
    e2e("virt_slo_met_share", "share", Higher, 0.08),
    e2e("f1_mean", "F1", Higher, 0.12),
    e2e("rt_pace_ratio", "x", Lower, 0.02),
    e2e("rt_delay_ratio", "x", Lower, 0.15),
    e2e("build_vectors_per_s", "1/s", Higher, 0.25),
    e2e("search_hnsw_p50_us", "us", Lower, 0.20),
    e2e("search_hnsw_p99_us", "us", Lower, 0.25),
    e2e("search_ivf_p50_us", "us", Lower, 0.25),
    e2e("recall_at_10", "recall", Higher, 0.01),
];

/// Per-layer metrics (the `--trace 1` run). Layer = crate; the prefix of
/// each name is the crate it measures. No bounds: they explain, the
/// end-to-end metrics gate.
pub const PER_LAYER: [Metric; 66] = [
    layer("text.encode_ns_per_token", "ns", Lower),
    layer("text.chunk_ns_per_token", "ns", Lower),
    layer("embed.query_ns", "ns", Lower),
    layer("embed.chunk_ns_per_token", "ns", Lower),
    layer("embed.allocs_per_call", "count", Lower),
    layer("vectordb.retrieve_ns_per_query", "ns", Lower),
    layer("vectordb.retrieve_share", "share", Lower),
    layer("vectordb.retrieve_allocs_per_query", "count", Lower),
    layer("vectordb.flat1024_ns_per_vector", "ns", Lower),
    layer("vectordb.store_get_ns_per_chunk", "ns", Lower),
    layer("vectordb.store_hot_hit_share", "share", Higher),
    layer("vectordb.hnsw_build_s", "s", Lower),
    layer("vectordb.ivf_build_s", "s", Lower),
    layer("vectordb.flat_build_s", "s", Lower),
    layer("vectordb.sq8_train_encode_s", "s", Lower),
    layer("vectordb.hnsw_ns_per_eval", "ns", Lower),
    layer("vectordb.hnsw_evals_per_search", "count", Lower),
    layer("vectordb.hnsw_hops_per_search", "count", Lower),
    layer("vectordb.hnsw_allocs_per_search", "count", Lower),
    layer("vectordb.sq8_lut_build_ns", "ns", Lower),
    layer("vectordb.sqflat_ns_per_vector", "ns", Lower),
    layer("vectordb.ivf_ns_per_vector", "ns", Lower),
    layer("vectordb.ivf_allocs_per_search", "count", Lower),
    layer("vectordb.ivf_recall_at_10", "recall", Higher),
    layer("vectordb.flat64_ns_per_vector", "ns", Lower),
    layer("vectordb.flat_search_us_p50", "us", Lower),
    layer("llm.iteration_time_ns", "ns", Lower),
    layer("llm.answer_ns", "ns", Lower),
    layer("engine.replay_ns_per_call", "ns", Lower),
    layer("engine.ns_per_iteration", "ns", Lower),
    layer("engine.iterations_per_call", "count", Lower),
    layer("engine.allocs_per_iteration", "count", Lower),
    layer("engine.submit_ns", "ns", Lower),
    layer("engine.route_ns", "ns", Lower),
    layer("engine.pump_ns_per_completion", "ns", Lower),
    layer("engine.kv_alloc_grow_free_ns", "ns", Lower),
    layer("engine.prefix_lookup_ns", "ns", Lower),
    layer("engine.preemptions", "count", Lower),
    layer("engine.migrations", "count", Lower),
    layer("engine.preempted_tokens", "count", Lower),
    layer("engine.prefix_hit_share", "share", Higher),
    layer("engine.peak_replicas", "count", Lower),
    layer("engine.interactive_queue_wait_p99_s", "virt_s", Lower),
    layer("engine.rt_stage_gap_s", "virt_s", Lower),
    layer("datasets.build_s_per_kquery", "s", Lower),
    layer("datasets.arrivals_ns_per_query", "ns", Lower),
    layer("datasets.ann_generate_s", "s", Lower),
    layer("profiler.profile_ns", "ns", Lower),
    layer("core.map_profile_ns", "ns", Lower),
    layer("core.choose_config_ns", "ns", Lower),
    layer("core.plan_synthesis_ns", "ns", Lower),
    layer("core.autoscale_eval_ns", "ns", Lower),
    layer("core.runner_self_ns_per_query", "ns", Lower),
    layer("core.runner_self_share", "share", Lower),
    layer("core.runner_allocs_per_query", "count", Lower),
    layer("core.fallback_share", "share", Lower),
    layer("core.virt_delay_p99_s", "virt_s", Lower),
    layer("core.retrieval_model_over_flat_x", "x", Lower),
    layer("core.retrieval_model_over_ivf_x", "x", Lower),
    layer("core.retrieval_model_over_hnsw_x", "x", Lower),
    layer("metrics.f1_ns", "ns", Lower),
    layer("metrics.cell_report_ns", "ns", Lower),
    layer("metrics.report_render_ns_per_kb", "ns", Lower),
    layer("metrics.report_parse_ns_per_kb", "ns", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The metrics a run in the given mode must emit.
pub fn metrics(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs, from the root of a checkout.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let s = |v: &str| Json::Str(v.to_owned());
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name".to_owned(), s(m.name)),
            ("unit".to_owned(), s(m.unit)),
            ("better".to_owned(), s(m.better.name())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound".to_owned(), Json::Num(b)));
        }
        Json::Obj(fields)
    };
    let doc = Json::Obj(vec![
        (
            "command".to_owned(),
            Json::Arr(COMMAND.iter().map(|c| s(c)).collect()),
        ),
        ("paths".to_owned(), Json::Arr(vec![s("perf")])),
        ("run_seconds".to_owned(), Json::UInt(RUN_SECONDS)),
        (
            "workloads".to_owned(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".to_owned(), s(w.name)),
                            ("why".to_owned(), s(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_owned(),
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".to_owned(),
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    let mut out = doc.render_pretty(2);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "workload name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(m.name), "metric name {}", m.name);
            assert!(unit_ok(m.unit), "unit of {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "bound of {}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32);
    }

    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(on_disk.len() <= 64 * 1024);
        let disk = Json::parse(&on_disk).expect("BENCHMARK.json parses");
        let table = Json::parse(&benchmark_json()).expect("rendering parses");
        assert_eq!(
            disk, table,
            "BENCHMARK.json drifted from perf/src/spec.rs; regenerate it with \
             `cargo run --release --manifest-path perf/Cargo.toml -- --emit-benchmark-json > BENCHMARK.json`"
        );
        // Exactly the contract's keys.
        let Json::Obj(fields) = &disk else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
