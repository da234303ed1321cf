//! One workload, end to end: set-up, the measured rounds, readings.
//!
//! Every workload runs the same four stages — serve (sim driver), engine
//! replay, realtime-vs-sim, ANN build + search — so that every end-to-end
//! metric exists on every workload (the driver compares them pairwise).
//! A workload is its [`Params`]: which scenario the serve stage runs and
//! which stages run at full depth. The others run at *guard depth*: small
//! inputs of the same statistical shape — enough for a steady reading, no
//! more.
//!
//! The stages are interleaved, not run one after the other: a *round* is
//! one serve pass, one replay pass, one HNSW build and a search pass after
//! each of the three, optionally followed by one sim/realtime pair. After an
//! untimed warm-up round every round repeats the same fixed work, and each
//! wall metric is the best of its rounds ([`stats::per_item_min`] says
//! why). Interleaving spreads every stage's samples over the whole run, so
//! a slow burst of the host cannot cover all samples of any one metric.

use std::time::Instant;

use metis_core::RunResult;
use metis_datasets::AnnCorpus;
use metis_engine::Priority;
use metis_vectordb::{SqFlatIndex, VectorIndex};

use crate::ann::{self, Built};
use crate::checks::Checks;
use crate::layers::{self, LAYER_CALLS};
use crate::realtime;
use crate::replay::{self, CallTrace, ReplayOut};
use crate::report::Readings;
use crate::scenario::{self, Datasets, Scenario, Virtual, RT_PAIRS, RT_SEEDS};
use crate::trace::{ratio, Recorder};
use crate::{alloc, micro, spec, stats};

/// Which scenario the serve stage runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serve {
    /// [`scenario::paper_mix`].
    PaperMix,
    /// [`scenario::fleet_burst`].
    FleetBurst,
    /// [`scenario::realtime_musique`] under the sim driver — the oracle
    /// runs of the realtime stage, all seeds.
    RealtimeOracle,
}

/// A workload's shape. All sizes are fixed: a round does the same work on
/// every commit, and only the number of rounds follows `--seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Scenario of the serve stage.
    pub serve: Serve,
    /// How many of the scenario's runs the engine replay rebuilds.
    pub replay_runs: usize,
    /// Times the rebuilt traffic is replayed per round.
    pub replay_reps: usize,
    /// Sim/realtime pairs served, one after each of the first rounds.
    pub rt_pairs: usize,
    /// ANN corpus size.
    pub ann_vectors: usize,
    /// ANN queries with planted gold.
    pub ann_queries: usize,
    /// Timed rounds of a run of the standard [`spec::RUN_SECONDS`]; other
    /// `--seconds` scale it. Chosen so that such a run lasts 15-30 s of wall
    /// on the seed commit, set-up and warm-up included.
    pub rounds: usize,
}

/// ANN corpus of the `ann_index_8k` workload. Sized so that an HNSW build
/// lasts ~1.4 s and every round can repeat it: a 50 000-vector build lasts
/// 20 s, can be timed once, and on a shared host that one timing spread
/// 13-16 % from run to run (and 45 % while a neighbour was busy). Its sq8
/// codes and graph (~1.6 MiB) also fit a core's private L2, out of the L3
/// the host's other tenants share.
pub const ANN_FULL: (usize, usize) = (8_192, 512);
/// ANN corpus every other workload builds at guard depth.
pub const ANN_GUARD: (usize, usize) = (3_000, 200);

/// The parameters of a workload of the spec table.
pub fn params(workload: &str) -> Option<Params> {
    let guard = Params {
        serve: Serve::RealtimeOracle,
        replay_runs: 1,
        replay_reps: 200,
        rt_pairs: 1,
        ann_vectors: ANN_GUARD.0,
        ann_queries: ANN_GUARD.1,
        rounds: 6,
    };
    Some(match workload {
        "serve_paper_mix" => Params {
            serve: Serve::PaperMix,
            rounds: 8,
            ..guard
        },
        "serve_fleet_burst" => Params {
            serve: Serve::FleetBurst,
            replay_runs: usize::MAX,
            replay_reps: 12,
            ..guard
        },
        "serve_realtime" => Params {
            // The pairs pace this run: five of them last ~10 s of wall, one
            // after each of the first five rounds.
            rt_pairs: RT_PAIRS,
            ..guard
        },
        "ann_index_8k" => Params {
            ann_vectors: ANN_FULL.0,
            ann_queries: ANN_FULL.1,
            rounds: 7,
            ..guard
        },
        _ => return None,
    })
}

impl Params {
    /// Timed rounds a run of `seconds` makes.
    fn rounds_in(&self, seconds: f64) -> usize {
        let scaled = self.rounds as f64 * seconds / spec::RUN_SECONDS as f64;
        (scaled.round() as usize).clamp(3, 12)
    }
}

/// Everything generated from the seed before the first timed region.
pub struct Inputs {
    serve: Scenario,
    /// The realtime scenario when the serve stage runs a different one.
    rt: Option<Scenario>,
    corpus: AnnCorpus,
    /// Wall seconds `AnnCorpus::generate` took.
    ann_generate_s: f64,
    /// Wall seconds of the set-up, item by item: every dataset build, the
    /// ANN corpus, and whatever remains of the whole.
    setup_parts: Vec<f64>,
}

impl Inputs {
    fn rt(&self) -> &Scenario {
        self.rt.as_ref().unwrap_or(&self.serve)
    }
}

/// Generates every input of the workload from `seed`. With
/// [`Datasets::Discard`] the same work is done and timed but the datasets
/// are not kept.
pub fn setup(seed: u64, p: &Params, mode: Datasets) -> Inputs {
    let whole = Instant::now();
    let (serve, rt) = match p.serve {
        Serve::PaperMix => (
            scenario::paper_mix(seed, mode),
            Some(scenario::realtime_musique(seed, p.rt_pairs, mode)),
        ),
        Serve::FleetBurst => (
            scenario::fleet_burst(seed, mode),
            Some(scenario::realtime_musique(seed, p.rt_pairs, mode)),
        ),
        Serve::RealtimeOracle => (scenario::realtime_musique(seed, RT_SEEDS, mode), None),
    };
    let t = Instant::now();
    let corpus = ann::generate(scenario::mix(seed, 0x3D00), p.ann_vectors, p.ann_queries);
    let ann_generate_s = t.elapsed().as_secs_f64();
    let mut setup_parts = serve.build_secs.clone();
    setup_parts.extend(rt.iter().flat_map(|sc| sc.build_secs.iter().copied()));
    setup_parts.push(ann_generate_s);
    let rest = whole.elapsed().as_secs_f64() - setup_parts.iter().sum::<f64>();
    setup_parts.push(rest.max(0.0));
    Inputs {
        serve,
        rt,
        corpus,
        ann_generate_s,
        setup_parts,
    }
}

/// What the warm-up round produced: the outputs every timed round must
/// reproduce.
struct Reference {
    virt: Virtual,
    trace: CallTrace,
    totals: ReplayOut,
    hnsw: ann::SearchPass,
    ivf: ann::SearchPass,
}

/// Timings of the timed rounds.
#[derive(Default)]
struct Samples {
    /// Wall seconds of each `Runner::run` call, per round.
    serve: Vec<Vec<f64>>,
    /// Wall seconds of each replay of the rebuilt traffic, all rounds.
    replay: Vec<f64>,
    /// Fastest microseconds of each query so far.
    hnsw: Vec<f64>,
    ivf: Vec<f64>,
    /// Wall seconds of each HNSW build.
    hnsw_build: Vec<f64>,
    pairs: Vec<realtime::Pair>,
}

/// One pass of the serve scenario, checked and summarised.
fn serve_pass(sc: &Scenario, checks: &mut Checks) -> (Vec<RunResult>, Virtual, Vec<f64>) {
    let (results, walls) = sc.run_pass();
    let virt = scenario::summarize(sc, &results, checks);
    (results, virt, walls)
}

/// `reps` replays of `trace`, each timed on its own; every one must give
/// `expect`ed totals.
fn replay_pass(
    trace: &CallTrace,
    reps: usize,
    expect: &ReplayOut,
    walls: &mut Vec<f64>,
    checks: &mut Checks,
) {
    let mut rec = Recorder::new(false);
    for _ in 0..reps {
        let t = Instant::now();
        let out = replay::replay(trace, &mut rec, checks);
        walls.push(t.elapsed().as_secs_f64());
        checks.require(
            out == *expect,
            "every replay of the same traffic gives identical engine totals",
        );
    }
}

fn search_pass(
    index: &dyn VectorIndex,
    corpus: &AnnCorpus,
    checks: &mut Checks,
) -> ann::SearchPass {
    ann::search_pass(index, corpus, "", &mut Recorder::new(false), checks)
}

/// The untimed warm-up round, with the checks that need to run only once.
fn warm_up(inputs: &Inputs, built: &Built, p: &Params, checks: &mut Checks) -> Reference {
    let (results, virt, _) = serve_pass(&inputs.serve, checks);
    let trace = replay::build(&inputs.serve, &results, p.replay_runs, checks);
    let totals = replay::replay(&trace, &mut Recorder::new(false), checks);
    checks.require(
        totals.completed == totals.submitted && totals.submitted == trace.calls() as u64,
        "the replay completes every submitted call",
    );
    let flat = search_pass(&built.flat, &inputs.corpus, checks);
    checks.require(
        flat.recall == 1.0,
        "the exact flat index has recall@10 = 1.0 on the planted gold",
    );
    let hnsw = search_pass(&built.hnsw, &inputs.corpus, checks);
    let ivf = search_pass(&built.ivf, &inputs.corpus, checks);
    checks.require(
        hnsw.recall >= ann::RECALL_FLOOR && ivf.recall >= ann::RECALL_FLOOR,
        "HNSW and IVF recall@10 stay at or above 0.95 on the planted gold",
    );
    Reference {
        virt,
        trace,
        totals,
        hnsw,
        ivf,
    }
}

/// Search passes per round, spread between its other stages. A search pass
/// is the cheapest stage and its p99 the metric that needs the most timings
/// per item, so it gets three chances a round at a quiet host.
const SEARCHES_PER_ROUND: usize = 3;

/// One pass of every query through HNSW and IVF, lowering each query's
/// floor, then a re-timing of the slowest HNSW queries.
fn search_passes(
    inputs: &Inputs,
    built: &Built,
    reference: &Reference,
    s: &mut Samples,
    checks: &mut Checks,
) {
    for (index, expect, floors) in [
        (
            &built.hnsw as &dyn VectorIndex,
            &reference.hnsw,
            &mut s.hnsw,
        ),
        (&built.ivf, &reference.ivf, &mut s.ivf),
    ] {
        let pass = search_pass(index, &inputs.corpus, checks);
        checks.require(
            pass.recall == expect.recall && pass.work == expect.work,
            "every search pass reports identical recall and work",
        );
        floors.resize(pass.micros.len(), f64::INFINITY);
        for (floor, t) in floors.iter_mut().zip(pass.micros) {
            *floor = floor.min(t);
        }
    }
    ann::retime_slowest(&built.hnsw, &inputs.corpus, &mut s.hnsw, checks);
}

/// One timed round.
fn round(
    inputs: &Inputs,
    built: &Built,
    p: &Params,
    reference: &Reference,
    s: &mut Samples,
    checks: &mut Checks,
) {
    let (_, virt, walls) = serve_pass(&inputs.serve, checks);
    checks.require(
        virt == reference.virt,
        "all passes of a sim scenario give byte-identical virtual results",
    );
    s.serve.push(walls);
    search_passes(inputs, built, reference, s, checks);
    replay_pass(
        &reference.trace,
        p.replay_reps,
        &reference.totals,
        &mut s.replay,
        checks,
    );
    search_passes(inputs, built, reference, s, checks);
    let t = Instant::now();
    std::hint::black_box(ann::build_hnsw(&inputs.corpus));
    s.hnsw_build.push(t.elapsed().as_secs_f64());
    search_passes(inputs, built, reference, s, checks);
}

/// Wall seconds of one serve pass with every `Runner::run` call at the
/// fastest of its rounds.
fn best_pass_secs(walls: &[Vec<f64>]) -> f64 {
    stats::per_item_min(walls).iter().sum()
}

fn read_serve(sc: &Scenario, virt: &Virtual, walls: &[Vec<f64>], out: &mut Readings) {
    let q = sc.queries();
    let per_round: Vec<f64> = walls
        .iter()
        .map(|w| q as f64 / w.iter().sum::<f64>())
        .collect();
    out.set_with_quartiles(
        "sim_queries_per_s",
        q as f64 / best_pass_secs(walls),
        &per_round,
        format!(
            "{q} queries per pass / sum over the {} Runner::run calls of each call's fastest round; {} timed rounds after 1 warm-up (quartiles: whole passes)",
            sc.runs.len(),
            walls.len()
        ),
    );
    let pooled = format!("{} queries pooled, identical in every pass", virt.n);
    let by_kind = format!("{pooled}; percentile per dataset kind, geometric mean over kinds");
    out.set(
        "virt_delay_p50_s",
        virt.delay_p50_s,
        virt.n,
        by_kind.clone(),
    );
    out.set("virt_delay_p90_s", virt.delay_p90_s, virt.n, by_kind);
    out.set("virt_slo_met_share", virt.slo_met_share, q, pooled.clone());
    out.set("f1_mean", virt.f1_mean, q, pooled);
}

fn read_replay(reference: &Reference, walls: &[f64], out: &mut Readings) {
    let calls = reference.trace.calls() as f64;
    let cps: Vec<f64> = walls.iter().map(|w| calls / w).collect();
    out.set_with_quartiles(
        "engine_calls_per_s",
        calls / stats::min(walls),
        &cps,
        format!(
            "{calls} calls, {} iterations, {} preemptions per replay; fastest of {} timed replays",
            reference.totals.iterations,
            reference.totals.preemptions,
            walls.len()
        ),
    );
}

fn read_rt(pairs: &[realtime::Pair], out: &mut Readings) {
    let pace: Vec<f64> = pairs.iter().map(|p| p.pace_ratio).collect();
    let late: Vec<f64> = pairs.iter().map(|p| p.late_ms).collect();
    let delay: Vec<f64> = pairs.iter().map(|p| p.delay_ratio).collect();
    out.set_median(
        "rt_pace_ratio",
        &pace,
        format!(
            "{} sim/realtime seed pairs; realtime finished {:.1} ms late (median, max {:.1} ms)",
            pairs.len(),
            stats::median(&late),
            late.iter().copied().fold(f64::MIN, f64::max)
        ),
    );
    out.set_median(
        "rt_delay_ratio",
        &delay,
        format!("{} sim/realtime seed pairs", pairs.len()),
    );
}

fn read_ann(built: &Built, reference: &Reference, s: &Samples, n: usize, out: &mut Readings) {
    let builds: Vec<f64> = std::iter::once(built.hnsw_build_s)
        .chain(s.hnsw_build.iter().copied())
        .collect();
    out.set_with_quartiles(
        "build_vectors_per_s",
        n as f64 / stats::min(&builds),
        &builds.iter().map(|b| n as f64 / b).collect::<Vec<_>>(),
        format!(
            "{n} vectors / fastest of {} HNSW-sq8 builds, {:.3} s (IVF {:.3} s, flat {:.4} s beside it, each timed once)",
            builds.len(),
            stats::min(&builds),
            built.ivf_build_s,
            built.flat_build_s
        ),
    );
    let hnsw = stats::sorted(&s.hnsw);
    let ivf = stats::sorted(&s.ivf);
    let note = format!(
        "{} queries, each the fastest of its {} timings ({SEARCHES_PER_ROUND} passes a round)",
        hnsw.len(),
        s.serve.len() * SEARCHES_PER_ROUND
    );
    out.set(
        "search_hnsw_p50_us",
        stats::percentile_sorted(&hnsw, 50.0),
        hnsw.len(),
        note.clone(),
    );
    out.set(
        "search_hnsw_p99_us",
        stats::percentile_sorted(&hnsw, 99.0),
        hnsw.len(),
        format!(
            "{note}, the slowest twentieth re-timed after every pass; {} beyond",
            hnsw.len() - (0.99 * hnsw.len() as f64).ceil() as usize
        ),
    );
    out.set(
        "search_ivf_p50_us",
        stats::percentile_sorted(&ivf, 50.0),
        ivf.len(),
        note,
    );
    out.set(
        "recall_at_10",
        reference.hnsw.recall,
        hnsw.len(),
        format!(
            "HNSW-sq8 vs planted gold (IVF {:.4}, flat 1.0)",
            reference.ivf.recall
        ),
    );
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: end-to-end metrics.
pub fn untraced(seed: u64, seconds: f64, p: &Params, checks: &mut Checks) -> Readings {
    let mut out = Readings::default();
    let inputs = setup(seed, p, Datasets::Keep);
    let mut setups = vec![inputs.setup_parts.clone()];

    let built = ann::build(&inputs.corpus, &mut Recorder::new(false));
    let reference = warm_up(&inputs, &built, p, checks);
    let mut s = Samples::default();
    for r in 0..p.rounds_in(seconds).max(p.rt_pairs) {
        round(&inputs, &built, p, &reference, &mut s, checks);
        setups.push(setup(seed, p, Datasets::Discard).setup_parts);
        if r < p.rt_pairs {
            s.pairs.push(realtime::run_pair(inputs.rt(), r, checks));
        }
    }

    read_serve(&inputs.serve, &reference.virt, &s.serve, &mut out);
    read_replay(&reference, &s.replay, &mut out);
    read_rt(&s.pairs, &mut out);
    read_ann(&built, &reference, &s, inputs.corpus.items.len(), &mut out);
    out.set(
        "peak_rss_mb",
        peak_rss_mb(),
        1,
        "VmHWM at workload end; one process per workload",
    );

    let wholes: Vec<f64> = setups.iter().map(|parts| parts.iter().sum()).collect();
    out.set_with_quartiles(
        "setup_s",
        stats::per_item_min(&setups).iter().sum(),
        &wholes,
        format!(
            "dataset, arrival and corpus generation: sum over its {} items (each dataset, the ANN corpus, the rest) of each item's fastest repetition, one repetition per round (quartiles: whole set-ups)",
            setups[0].len()
        ),
    );
    out
}

/// The traced run: per-layer metrics plus the span file's contents.
pub fn traced(workload: &str, seed: u64, p: &Params, checks: &mut Checks) -> (Readings, String) {
    let mut out = Readings::default();
    let inputs = setup(seed, p, Datasets::Keep);
    let sc = &inputs.serve;
    let queries = sc.queries() as f64;

    // Untraced reference: a warm-up and three timed passes of the serve stage.
    let before = sc
        .datasets
        .iter()
        .map(|d| d.db.store().stats())
        .collect::<Vec<_>>();
    let (results, virt, _) = serve_pass(sc, checks);
    let mut walls = Vec::new();
    for _ in 0..3 {
        let (_, again, wall) = serve_pass(sc, checks);
        checks.require(
            again == virt,
            "all passes of a sim scenario give byte-identical virtual results",
        );
        walls.push(wall);
    }
    let pass_ns = best_pass_secs(&walls) * 1e9;
    let (hot, accesses) = sc
        .datasets
        .iter()
        .zip(&before)
        .map(|(d, b)| d.db.store().stats().since(b))
        .fold((0u64, 0u64), |(h, a), s| (h + s.hot_hits, a + s.accesses));
    // One more pass with the allocation counter on (spans off).
    let (_, pass_allocs) = alloc::counted(|| sc.run_pass());

    // Layer replay, first with the recorder off (its own untraced wall),
    // then on.
    let shadows: Vec<layers::Shadow> = sc.datasets.iter().map(layers::shadow).collect();
    let mut off = Recorder::new(false);
    let t = Instant::now();
    layers::replay(sc, &results, &shadows, &mut off, checks);
    let mut untraced_s = t.elapsed().as_secs_f64();
    let mut rec = Recorder::new(true);
    alloc::set_counting(true);
    let t = Instant::now();
    let counts = layers::replay(sc, &results, &shadows, &mut rec, checks);
    let mut traced_s = t.elapsed().as_secs_f64();
    alloc::set_counting(false);
    drop(shadows);

    let retrieve = rec.total("vectordb.retrieve_counted");
    let layers_ns = LAYER_CALLS.iter().map(|n| rec.total(n).ns).sum::<u64>() as f64;
    let layer_allocs: u64 = LAYER_CALLS.iter().map(|n| rec.total(n).allocs).sum();
    out.set(
        "embed.query_ns",
        rec.total("embed.embed").ns_per_call(),
        counts.queries as usize,
        "Embedder::embed of each query",
    );
    out.set(
        "vectordb.retrieve_ns_per_query",
        retrieve.ns_per_call(),
        retrieve.calls as usize,
        "VectorDb::retrieve_counted spans",
    );
    out.set(
        "vectordb.retrieve_share",
        retrieve.ns as f64 / pass_ns,
        retrieve.calls as usize,
        "retrieve spans / untraced pass wall",
    );
    out.set(
        "vectordb.retrieve_allocs_per_query",
        retrieve.allocs_per_call(),
        retrieve.calls as usize,
        "",
    );
    out.set(
        "vectordb.flat1024_ns_per_vector",
        ratio(
            rec.total("vectordb.flat.search_counted").ns as f64,
            counts.flat_vectors as f64,
        ),
        counts.flat_vectors as usize,
        "shadow FlatIndex::search_counted over the embedder's dimension",
    );
    out.set(
        "vectordb.store_get_ns_per_chunk",
        ratio(
            rec.total("vectordb.store.get").ns as f64,
            counts.chunks as f64,
        ),
        counts.chunks as usize,
        "shadow ChunkStore::get",
    );
    out.set(
        "vectordb.store_hot_hit_share",
        ratio(hot as f64, accesses as f64),
        accesses as usize,
        "database store counters over the untraced passes",
    );
    out.set(
        "profiler.profile_ns",
        rec.total("profiler.profile").ns_per_call(),
        counts.queries as usize,
        "",
    );
    out.set(
        "core.map_profile_ns",
        rec.total("core.map_profile").ns_per_call(),
        counts.queries as usize,
        "",
    );
    out.set(
        "core.choose_config_ns",
        rec.total("core.choose_config").ns_per_call(),
        counts.queries as usize,
        "sized against an idle replica",
    );
    out.set(
        "core.plan_synthesis_ns",
        rec.total("core.plan_synthesis").ns_per_call(),
        counts.queries as usize,
        "",
    );
    out.set(
        "metrics.f1_ns",
        rec.total("metrics.f1_score").ns_per_call(),
        counts.queries as usize,
        "",
    );
    out.set(
        "core.runner_self_ns_per_query",
        (pass_ns - layers_ns).max(0.0) / queries,
        counts.queries as usize,
        "attribution estimate: untraced pass wall minus replayed layer spans (runner + controller + engine)",
    );
    out.set(
        "core.runner_self_share",
        (pass_ns - layers_ns).max(0.0) / pass_ns,
        counts.queries as usize,
        "attribution estimate; 1 - this is the share attributed to named layer spans",
    );
    out.set(
        "core.runner_allocs_per_query",
        (pass_allocs as f64 - layer_allocs as f64).max(0.0) / queries,
        counts.queries as usize,
        "attribution estimate: counted pass minus replayed layer spans",
    );
    out.set("core.fallback_share", virt.fallback_share, virt.n, "");
    out.set(
        "core.virt_delay_p99_s",
        virt.delay_p99_s,
        virt.n,
        "informational: too seed-sensitive to gate",
    );
    out.set(
        "core.retrieval_model_over_flat_x",
        ratio(counts.model_nanos as f64, retrieve.ns as f64),
        retrieve.calls as usize,
        "RetrievalModel::nanos of the reported work / measured wall, serving retrievals",
    );

    // Fleet counters of the serve pass.
    let sum = |f: fn(&RunResult) -> u64| results.iter().map(f).sum::<u64>() as f64;
    let runs = results.len();
    out.set(
        "engine.preemptions",
        sum(|r| r.preemptions),
        runs,
        "per serve pass",
    );
    out.set(
        "engine.migrations",
        sum(|r| r.migrations),
        runs,
        "per serve pass",
    );
    out.set(
        "engine.preempted_tokens",
        sum(|r| r.preempted_tokens),
        runs,
        "per serve pass",
    );
    out.set(
        "engine.prefix_hit_share",
        stats::mean(
            &results
                .iter()
                .map(|r| r.prefix_hit_rate)
                .collect::<Vec<_>>(),
        ),
        runs,
        "mean over runs",
    );
    out.set(
        "engine.peak_replicas",
        results.iter().map(|r| r.peak_replicas).max().unwrap_or(0) as f64,
        runs,
        "max over runs",
    );
    let interactive: Vec<f64> = results
        .iter()
        .flat_map(|r| r.per_query.iter())
        .filter(|q| q.priority == Priority::Interactive)
        .map(|q| q.queue_wait_secs)
        .collect();
    out.set(
        "engine.interactive_queue_wait_p99_s",
        if interactive.is_empty() {
            0.0
        } else {
            stats::percentile(&interactive, 99.0)
        },
        interactive.len(),
        "interactive-class queries of the serve pass (0 when the scenario has none)",
    );

    // Engine replay: off, then on.
    let trace = replay::build(sc, &results, p.replay_runs, checks);
    let t = Instant::now();
    let totals = replay::replay(&trace, &mut off, checks);
    let replay_off_s = t.elapsed().as_secs_f64();
    untraced_s += replay_off_s;
    alloc::set_counting(true);
    let t = Instant::now();
    let again = replay::replay(&trace, &mut rec, checks);
    traced_s += t.elapsed().as_secs_f64();
    alloc::set_counting(false);
    checks.require(
        again == totals && totals.completed == totals.submitted,
        "every replay of the same traffic gives identical engine totals",
    );
    let pumps = [
        rec.total("engine.pump_before"),
        rec.total("engine.pump_idle"),
    ];
    let pump_ns = (pumps[0].ns + pumps[1].ns) as f64;
    let pump_allocs = (pumps[0].allocs + pumps[1].allocs) as f64;
    let calls = totals.submitted as f64;
    out.set(
        "engine.replay_ns_per_call",
        replay_off_s * 1e9 / calls.max(1.0),
        totals.submitted as usize,
        "untraced replay wall / LLM calls",
    );
    out.set(
        "engine.ns_per_iteration",
        ratio(pump_ns, totals.iterations as f64),
        totals.iterations as usize,
        "pump spans / engine iterations",
    );
    out.set(
        "engine.iterations_per_call",
        ratio(totals.iterations as f64, calls),
        totals.submitted as usize,
        "",
    );
    out.set(
        "engine.allocs_per_iteration",
        ratio(pump_allocs, totals.iterations as f64),
        totals.iterations as usize,
        "",
    );
    out.set(
        "engine.submit_ns",
        rec.total("engine.submit").ns_per_call(),
        rec.total("engine.submit").calls as usize,
        "Driver::submit",
    );
    out.set(
        "engine.route_ns",
        rec.total("engine.route").ns_per_call(),
        rec.total("engine.route").calls as usize,
        "Driver::route",
    );
    out.set(
        "engine.pump_ns_per_completion",
        ratio(pump_ns, totals.completed as f64),
        totals.completed as usize,
        "Driver::pump_before + pump_idle",
    );
    drop(trace);

    // Realtime: whole-run comparisons only (the workers are not spanned).
    let pairs: Vec<realtime::Pair> = (0..p.rt_pairs)
        .map(|i| realtime::run_pair(inputs.rt(), i, checks))
        .collect();
    out.set(
        "engine.rt_stage_gap_s",
        pairs.iter().map(|p| p.stage_gap_s).fold(0.0, f64::max),
        pairs.len(),
        "largest |realtime - sim| stage mean over the pairs",
    );

    // ANN: builds and one search pass, spanned; one pass unspanned.
    let corpus = &inputs.corpus;
    let built = ann::build(corpus, &mut rec);
    let flat_off = search_pass(&built.flat, corpus, checks);
    checks.require(
        flat_off.recall == 1.0,
        "the exact flat index has recall@10 = 1.0 on the planted gold",
    );
    let t = Instant::now();
    let h_off = ann::search_pass(&built.hnsw, corpus, "", &mut off, checks);
    let i_off = ann::search_pass(&built.ivf, corpus, "", &mut off, checks);
    untraced_s += t.elapsed().as_secs_f64();
    alloc::set_counting(true);
    let t = Instant::now();
    let h = ann::search_pass(
        &built.hnsw,
        corpus,
        "vectordb.hnsw.search_counted",
        &mut rec,
        checks,
    );
    let i = ann::search_pass(
        &built.ivf,
        corpus,
        "vectordb.ivf.search_counted",
        &mut rec,
        checks,
    );
    traced_s += t.elapsed().as_secs_f64();
    alloc::set_counting(false);
    checks.require(
        h.recall >= ann::RECALL_FLOOR && i.recall >= ann::RECALL_FLOOR,
        "HNSW and IVF recall@10 stay at or above 0.95 on the planted gold",
    );
    let searches = corpus.queries.len();
    let sum_us = |m: &[f64]| m.iter().sum::<f64>();
    let model = metis_core::RetrievalModel::default();
    out.set(
        "vectordb.hnsw_build_s",
        built.hnsw_build_s,
        1,
        "HnswIndex::build, sq8",
    );
    out.set(
        "vectordb.ivf_build_s",
        built.ivf_build_s,
        1,
        "IvfIndex::build",
    );
    out.set(
        "vectordb.flat_build_s",
        built.flat_build_s,
        1,
        "FlatIndex::add loop",
    );
    out.set(
        "vectordb.hnsw_ns_per_eval",
        ratio(sum_us(&h_off.micros) * 1e3, h_off.work.distances() as f64),
        h_off.work.distances(),
        "search wall / distance evals (sq8 + exact)",
    );
    out.set(
        "vectordb.hnsw_evals_per_search",
        h.work.distances() as f64 / searches as f64,
        searches,
        "",
    );
    out.set(
        "vectordb.hnsw_hops_per_search",
        h.work.graph_hops as f64 / searches as f64,
        searches,
        "",
    );
    out.set(
        "vectordb.hnsw_allocs_per_search",
        rec.total("vectordb.hnsw.search_counted").allocs_per_call(),
        searches,
        "",
    );
    out.set(
        "vectordb.ivf_ns_per_vector",
        ratio(sum_us(&i_off.micros) * 1e3, i_off.work.distances() as f64),
        i_off.work.distances(),
        "search wall / (vectors + centroids) scored",
    );
    out.set(
        "vectordb.ivf_allocs_per_search",
        rec.total("vectordb.ivf.search_counted").allocs_per_call(),
        searches,
        "",
    );
    out.set("vectordb.ivf_recall_at_10", i.recall, searches, "");
    out.set(
        "vectordb.flat64_ns_per_vector",
        ratio(
            sum_us(&flat_off.micros) * 1e3,
            flat_off.work.vectors_scored as f64,
        ),
        flat_off.work.vectors_scored,
        "exact oracle",
    );
    out.set(
        "vectordb.flat_search_us_p50",
        stats::percentile(&flat_off.micros, 50.0),
        searches,
        "exact oracle, one pass",
    );
    out.set(
        "core.retrieval_model_over_ivf_x",
        ratio(
            model.nanos(&i_off.work, 0) as f64,
            sum_us(&i_off.micros) * 1e3,
        ),
        searches,
        "model nanos incl. 5 ms base per search / measured wall",
    );
    out.set(
        "core.retrieval_model_over_hnsw_x",
        ratio(
            model.nanos(&h_off.work, 0) as f64,
            sum_us(&h_off.micros) * 1e3,
        ),
        searches,
        "model nanos incl. 5 ms base per search / measured wall",
    );
    let sqflat = SqFlatIndex::build(ann::DIM, ann::SQ8_RERANK, &corpus.items);
    let sq_pass = ann::search_pass(&sqflat as &dyn VectorIndex, corpus, "", &mut off, checks);
    out.set(
        "vectordb.sqflat_ns_per_vector",
        ratio(
            sum_us(&sq_pass.micros) * 1e3,
            sq_pass.work.quantized_scored as f64,
        ),
        sq_pass.work.quantized_scored,
        "SqFlatIndex search wall / sq8 vectors scored",
    );
    let query_vectors: Vec<Vec<f32>> = corpus.queries.iter().map(|q| q.vector.clone()).collect();
    let sq8 = micro::sq8(ann::DIM, &corpus.items, &query_vectors);
    out.set(
        "vectordb.sq8_train_encode_s",
        sq8.train_encode_s,
        1,
        "ScalarQuantizer::train + encode of the corpus",
    );
    out.set(
        "vectordb.sq8_lut_build_ns",
        sq8.lut_build_ns,
        searches,
        "ScalarQuantizer::lut per query, min of batches",
    );

    // Micro-measurements on the scenario's first dataset.
    let d = &sc.datasets[0];
    out.set(
        "text.encode_ns_per_token",
        micro::text_encode_ns_per_token(d),
        micro::BATCHES,
        "Tokenizer::encode, min of batches",
    );
    out.set(
        "text.chunk_ns_per_token",
        micro::text_chunk_ns_per_token(d),
        micro::BATCHES,
        "Chunker::split, min of batches",
    );
    let (chunk_ns, embed_allocs) = micro::embed_chunk(d);
    out.set(
        "embed.chunk_ns_per_token",
        chunk_ns,
        micro::BATCHES,
        "Embedder::embed over whole chunks, min of batches",
    );
    out.set("embed.allocs_per_call", embed_allocs, 64, "");
    out.set(
        "llm.iteration_time_ns",
        micro::llm_iteration_time_ns(),
        micro::BATCHES,
        "LatencyModel::iteration_time, min of batches",
    );
    out.set(
        "llm.answer_ns",
        micro::llm_answer_ns(d),
        micro::BATCHES,
        "GenerationModel::answer over 8-chunk contexts, min of batches",
    );
    out.set(
        "engine.kv_alloc_grow_free_ns",
        micro::engine_kv_alloc_grow_free_ns(),
        micro::BATCHES,
        "one alloc + grow + free cycle, min of batches",
    );
    out.set(
        "engine.prefix_lookup_ns",
        micro::engine_prefix_lookup_ns(),
        micro::BATCHES,
        "PrefixCache::lookup_or_insert, min of batches",
    );
    out.set(
        "datasets.build_s_per_kquery",
        micro::datasets_build_s_per_kquery(seed),
        1,
        "build_dataset(Musique, 100)",
    );
    out.set(
        "datasets.arrivals_ns_per_query",
        micro::datasets_arrivals_ns_per_query(seed),
        micro::BATCHES,
        "poisson_arrivals, min of batches",
    );
    out.set(
        "datasets.ann_generate_s",
        inputs.ann_generate_s,
        1,
        "AnnCorpus::generate at this workload's size",
    );
    out.set(
        "core.autoscale_eval_ns",
        micro::core_autoscale_eval_ns(),
        micro::BATCHES,
        "Autoscaler::evaluate, min of batches",
    );
    let report = micro::metrics_report(&results[0]);
    out.set(
        "metrics.cell_report_ns",
        report.cell_report_ns,
        micro::BATCHES,
        "RunResult::cell_report, min of batches",
    );
    out.set(
        "metrics.report_render_ns_per_kb",
        report.render_ns_per_kb,
        micro::BATCHES,
        "BenchReport::render, min of batches",
    );
    out.set(
        "metrics.report_parse_ns_per_kb",
        report.parse_ns_per_kb,
        micro::BATCHES,
        "BenchReport::parse, min of batches",
    );

    out.set(
        "trace.spans",
        rec.spans().len() as f64,
        rec.spans().len(),
        "spans written to the trace file",
    );
    out.set(
        "trace.overhead_share",
        (traced_s - untraced_s) / untraced_s,
        2,
        format!("replays with the recorder on ({traced_s:.3} s) vs off ({untraced_s:.3} s)"),
    );
    (out, rec.to_jsonl(workload))
}
