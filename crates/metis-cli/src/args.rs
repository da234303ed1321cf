//! Hand-rolled argument parsing (no external dependencies).

use metis_datasets::{ArrivalProcess, DatasetKind};
use metis_engine::{DriverSpec, PreemptMode, RouterPolicy};
use metis_vectordb::{HnswConfig, IndexSpec, Quantization};

/// Default burst density for `--arrivals burst` (overridden by
/// `--burst-factor`).
pub const DEFAULT_BURST_FACTOR: f64 = 4.0;
/// Default inter-arrival CV for `--arrivals gamma`.
pub const DEFAULT_GAMMA_CV: f64 = 2.0;
/// Default inverted-list count for `--index ivf` (overridden by `--nlist`).
pub const DEFAULT_IVF_NLIST: usize = 64;
/// Default probe count for `--index ivf` (overridden by `--nprobe`).
pub const DEFAULT_IVF_NPROBE: usize = 8;
/// Default max neighbors per node for `--index hnsw` (overridden by `--m`).
pub const DEFAULT_HNSW_M: usize = 16;
/// Default layer-0 expansion budget for `--index hnsw` (overridden by
/// `--ef-search`).
pub const DEFAULT_HNSW_EF_SEARCH: usize = 64;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `metis run ...` — serve a workload and print the summary.
    Run(RunArgs),
    /// `metis sweep ...` — sweep the fixed-configuration menu.
    Sweep(RunArgs),
    /// `metis profile ...` — show profiles and pruned spaces per query.
    Profile(RunArgs),
    /// `metis help`.
    Help,
}

/// Options shared by the subcommands.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Which dataset to generate.
    pub dataset: DatasetKind,
    /// System under test (run subcommand only).
    pub system: SystemChoice,
    /// Number of queries.
    pub queries: usize,
    /// Poisson arrival rate (q/s); 0 = closed loop.
    pub qps: f64,
    /// Master seed.
    pub seed: u64,
    /// Serve with Llama-3.1-70B on two A40s instead of Mistral-7B.
    pub big_model: bool,
    /// Optional per-query latency SLO in seconds.
    pub slo: Option<f64>,
    /// Optional chunk-KV prefix cache, in bytes (the flag takes GiB).
    pub prefix_cache_bytes: Option<u64>,
    /// Number of engine replicas to serve across.
    pub replicas: usize,
    /// Heterogeneous fleet: one replica per listed GPU class (replaces
    /// `--replicas`).
    pub replica_mix: Option<Vec<GpuClass>>,
    /// How queries are dispatched across replicas.
    pub router: RouterPolicy,
    /// Grow/drain the fleet at runtime from queue depth and preemption
    /// pressure.
    pub autoscale: bool,
    /// How KV-evicted sequences resume: recompute from scratch, or migrate
    /// their KV to a replica with headroom.
    pub preempt_mode: PreemptMode,
    /// Arrival process shaping the open-loop workload (ignored in closed
    /// loop).
    pub arrivals: ArrivalProcess,
    /// Derive each query's scheduling priority from its SLO tier.
    pub priority_from_slo: bool,
    /// Retrieval index the corpus is served from.
    pub index: IndexSpec,
    /// How the index stores and scores vectors (exact f32 or sq8).
    pub quant: Quantization,
    /// Optional path to write the run's machine-readable report to — the
    /// same `BenchReport` JSON schema the bench harness emits.
    pub json: Option<String>,
    /// Who executes the engine work and on whose time (`run` only;
    /// `sweep`/`profile` always simulate).
    pub driver: DriverSpec,
}

/// A GPU class a `--replica-mix` entry names. The CLI keeps the class (not
/// a full `ReplicaSpec`) so parsed commands stay comparable in tests; the
/// binary maps each class to its cluster when building the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuClass {
    /// One NVIDIA A40 (48 GB).
    A40,
    /// One NVIDIA H100 (80 GB).
    H100,
}

/// Which serving system to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemChoice {
    /// Full METIS.
    Metis,
    /// AdaptiveRAG\* baseline.
    AdaptiveRag,
    /// vLLM with a fixed configuration `stuff(k)`.
    FixedStuff(u32),
    /// vLLM with a fixed configuration `map_reduce(k, l)`.
    FixedMapReduce(u32, u32),
}

impl Default for RunArgs {
    fn default() -> Self {
        Self {
            dataset: DatasetKind::Musique,
            system: SystemChoice::Metis,
            queries: 100,
            qps: 0.5,
            seed: 7,
            big_model: false,
            slo: None,
            prefix_cache_bytes: None,
            replicas: 1,
            replica_mix: None,
            router: RouterPolicy::RoundRobin,
            autoscale: false,
            preempt_mode: PreemptMode::Recompute,
            arrivals: ArrivalProcess::Poisson,
            priority_from_slo: false,
            index: IndexSpec::Flat,
            quant: Quantization::F32,
            json: None,
            driver: DriverSpec::Sim,
        }
    }
}

/// Usage text printed by `metis help` and on parse errors.
pub const USAGE: &str = "\
metis — METIS RAG-serving reproduction (SOSP '25)

USAGE:
  metis run     [OPTIONS]   serve a workload and print per-system results
  metis sweep   [OPTIONS]   sweep the fixed-configuration menu
  metis profile [OPTIONS]   show profiler output and pruned spaces per query
  metis help

OPTIONS:
  --dataset <squad|musique|finsec|qmsum>   (default musique)
  --system  <metis|adaptive|stuff:K|map_reduce:K:L>  (default metis)
  --queries <N>            (default 100)
  --qps <RATE>             Poisson rate; 0 = closed loop (default 0.5)
  --seed <N>               (default 7)
  --big-model              serve Llama-3.1-70B on two A40s
  --slo <SECS>             per-query latency budget
  --prefix-cache-gb <GIB>  enable chunk-KV reuse
  --replicas <N>           engine replicas to serve across (default 1)
  --replica-mix <a40|h100,...>  heterogeneous fleet: one replica per listed
                           GPU class, e.g. a40,a40,h100 (replaces --replicas)
  --router <round-robin|least-kv|prefix-aware>  replica dispatch policy
                           (default round-robin; prefix-aware routes each
                           query to the replica whose chunk-KV cache holds
                           its retrieved chunks, needs --prefix-cache-gb)
  --autoscale              grow/drain the fleet at runtime from queue depth
                           and preemption pressure (--replicas sets the
                           starting fleet; bounds 1..=8)
  --preempt-mode <recompute|migrate>  how KV-evicted sequences resume
                           (default recompute; migrate prices a KV transfer
                           to a replica with headroom)
  --arrivals <poisson|burst|gamma|diurnal>  arrival process (default poisson)
  --burst-factor <F>       burst density for --arrivals burst (default 4)
  --priority-from-slo      schedule each query at its SLO tier's priority
  --index <flat|ivf|hnsw>  retrieval index over the corpus (default flat)
  --nlist <N>              IVF inverted lists (default 64; needs --index ivf)
  --nprobe <N>             IVF lists probed per search, <= nlist
                           (default 8; needs --index ivf)
  --m <N>                  HNSW max neighbors per node (default 16;
                           needs --index hnsw)
  --ef-search <N>          HNSW layer-0 expansion budget per search
                           (default 64; needs --index hnsw)
  --quantize <f32|sq8>     vector storage: exact f32 (default) or 8-bit
                           scalar quantization with exact re-ranking
  --json <PATH>            also write the run report as JSON (run only;
                           same schema as the bench harness emits)
  --driver <sim|realtime>  execution driver of run (default sim): sim is the
                           deterministic simulator; realtime paces the same
                           simulation by the wall clock and also prints the
                           wall time beside the virtual makespan
  --time-scale <F>         virtual-per-wall speedup for --driver realtime
                           (default 1 = true wall pace; e.g. 1000 compresses
                           1000 virtual seconds into one wall second)
";

/// Parses a dataset name.
pub fn parse_dataset(s: &str) -> Result<DatasetKind, String> {
    match s.to_ascii_lowercase().as_str() {
        "squad" => Ok(DatasetKind::Squad),
        "musique" => Ok(DatasetKind::Musique),
        "finsec" | "kg-rag-finsec" => Ok(DatasetKind::FinSec),
        "qmsum" => Ok(DatasetKind::Qmsum),
        other => Err(format!("unknown dataset '{other}'")),
    }
}

/// Parses a router policy name.
pub fn parse_router(s: &str) -> Result<RouterPolicy, String> {
    match s.to_ascii_lowercase().as_str() {
        "round-robin" | "rr" => Ok(RouterPolicy::RoundRobin),
        "least-kv" | "least-kv-load" => Ok(RouterPolicy::LeastKvLoad),
        "prefix-aware" | "prefix" => Ok(RouterPolicy::PrefixAware),
        other => Err(format!("unknown router '{other}'")),
    }
}

/// Parses a preemption-resume mode name.
pub fn parse_preempt_mode(s: &str) -> Result<PreemptMode, String> {
    match s.to_ascii_lowercase().as_str() {
        "recompute" => Ok(PreemptMode::Recompute),
        "migrate" => Ok(PreemptMode::Migrate),
        other => Err(format!("unknown preempt mode '{other}'")),
    }
}

/// Parses a `--replica-mix` list: comma-separated GPU class names, one
/// replica per entry.
pub fn parse_replica_mix(s: &str) -> Result<Vec<GpuClass>, String> {
    s.split(',')
        .map(|name| match name.trim().to_ascii_lowercase().as_str() {
            "a40" => Ok(GpuClass::A40),
            "h100" => Ok(GpuClass::H100),
            "" => Err("--replica-mix has an empty entry".to_string()),
            other => Err(format!("unknown GPU class '{other}' in --replica-mix")),
        })
        .collect()
}

/// Parses an arrival-process name (factors come from their own flags).
pub fn parse_arrivals(s: &str) -> Result<ArrivalProcess, String> {
    match s.to_ascii_lowercase().as_str() {
        "poisson" => Ok(ArrivalProcess::Poisson),
        "burst" => Ok(ArrivalProcess::Burst {
            factor: DEFAULT_BURST_FACTOR,
        }),
        "gamma" => Ok(ArrivalProcess::Gamma {
            cv: DEFAULT_GAMMA_CV,
        }),
        "diurnal" => Ok(ArrivalProcess::Diurnal),
        other => Err(format!("unknown arrival process '{other}'")),
    }
}

/// Parses a system choice.
pub fn parse_system(s: &str) -> Result<SystemChoice, String> {
    let lower = s.to_ascii_lowercase();
    // Zero is refused rather than served as one chunk (the runner clamps):
    // the summary line and the report's `system` knob echo what was typed.
    let at_least_one = |field: &str, what: &str| match field.parse::<u32>() {
        Ok(0) => Err(format!("{what} must be at least 1 in system '{s}'")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {what} '{field}' in system '{s}'")),
    };
    if lower == "metis" {
        return Ok(SystemChoice::Metis);
    }
    if lower == "adaptive" || lower == "adaptiverag" {
        return Ok(SystemChoice::AdaptiveRag);
    }
    if let Some(rest) = lower.strip_prefix("stuff:") {
        return Ok(SystemChoice::FixedStuff(at_least_one(rest, "chunk count")?));
    }
    if let Some(rest) = lower.strip_prefix("map_reduce:") {
        let mut it = rest.split(':');
        let k = at_least_one(it.next().unwrap_or_default(), "chunk count")?;
        let l = it
            .next()
            .map_or(Ok(100), |f| at_least_one(f, "intermediate length"))?;
        if let Some(extra) = it.next() {
            return Err(format!(
                "unexpected field '{extra}' in system '{s}' (map_reduce:K[:L])"
            ));
        }
        return Ok(SystemChoice::FixedMapReduce(k, l));
    }
    Err(format!("unknown system '{s}'"))
}

/// Parses the full command line (without the binary name).
pub fn parse(args: &[String]) -> Result<Command, String> {
    // The subcommand is settled before any flag is read, so a mistyped one
    // is reported as such and `help` is help whatever follows it.
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let command: fn(RunArgs) -> Command = match sub.as_str() {
        "run" => Command::Run,
        "sweep" => Command::Sweep,
        "profile" => Command::Profile,
        "help" | "--help" | "-h" => return Ok(Command::Help),
        other => return Err(format!("unknown subcommand '{other}'")),
    };
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum IndexFamily {
        Flat,
        Ivf,
        Hnsw,
    }
    let mut run = RunArgs::default();
    let mut burst_factor: Option<f64> = None;
    let mut index_family: Option<IndexFamily> = None;
    let mut nlist: Option<usize> = None;
    let mut nprobe: Option<usize> = None;
    let mut hnsw_m: Option<usize> = None;
    let mut ef_search: Option<usize> = None;
    let mut driver_realtime: Option<bool> = None;
    let mut time_scale: Option<f64> = None;
    let mut replicas_flag: Option<usize> = None;
    let mut i = 1;
    let next = |i: &mut usize| -> Result<&str, String> {
        *i += 1;
        args.get(*i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--dataset" => run.dataset = parse_dataset(next(&mut i)?)?,
            "--system" => run.system = parse_system(next(&mut i)?)?,
            "--queries" => {
                run.queries = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --queries: {e}"))?
            }
            "--qps" => {
                run.qps = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --qps: {e}"))?;
                // `<= 0` means closed loop; NaN and inf mean nothing, and
                // the arrival generators assert on them.
                if !run.qps.is_finite() {
                    return Err(format!("--qps must be finite, got {}", run.qps));
                }
            }
            "--seed" => {
                run.seed = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--big-model" => run.big_model = true,
            "--slo" => {
                let secs: f64 = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --slo: {e}"))?;
                // A NaN or non-positive budget admits no estimate, so every
                // decision would silently take the infeasible-SLO fallback.
                if !secs.is_finite() || secs <= 0.0 {
                    return Err(format!("--slo must be finite and positive, got {secs}"));
                }
                run.slo = Some(secs);
            }
            "--prefix-cache-gb" => {
                let gib: u64 = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --prefix-cache-gb: {e}"))?;
                let bytes = gib.checked_mul(1 << 30);
                run.prefix_cache_bytes = Some(bytes.ok_or_else(|| {
                    format!("--prefix-cache-gb {gib} does not fit in a 64-bit byte count")
                })?);
            }
            "--replicas" => {
                let n: usize = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --replicas: {e}"))?;
                replicas_flag = Some(n);
                run.replicas = n;
            }
            "--replica-mix" => run.replica_mix = Some(parse_replica_mix(next(&mut i)?)?),
            "--router" => run.router = parse_router(next(&mut i)?)?,
            "--autoscale" => run.autoscale = true,
            "--preempt-mode" => run.preempt_mode = parse_preempt_mode(next(&mut i)?)?,
            "--arrivals" => run.arrivals = parse_arrivals(next(&mut i)?)?,
            "--burst-factor" => {
                let f: f64 = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --burst-factor: {e}"))?;
                if !f.is_finite() || f < 1.0 {
                    return Err(format!("--burst-factor must be >= 1, got {f}"));
                }
                burst_factor = Some(f);
            }
            "--priority-from-slo" => run.priority_from_slo = true,
            "--json" => {
                let path = next(&mut i)?;
                if path.is_empty() {
                    return Err("--json requires a non-empty path".into());
                }
                run.json = Some(path.to_owned());
            }
            "--index" => {
                index_family = Some(match next(&mut i)?.to_ascii_lowercase().as_str() {
                    "flat" => IndexFamily::Flat,
                    "ivf" => IndexFamily::Ivf,
                    "hnsw" => IndexFamily::Hnsw,
                    other => return Err(format!("unknown index '{other}'")),
                })
            }
            "--m" => {
                let n: usize = next(&mut i)?.parse().map_err(|e| format!("bad --m: {e}"))?;
                if n < 2 {
                    return Err("--m must be at least 2".into());
                }
                hnsw_m = Some(n);
            }
            "--ef-search" => {
                let n: usize = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --ef-search: {e}"))?;
                if n == 0 {
                    return Err("--ef-search must be positive".into());
                }
                ef_search = Some(n);
            }
            "--quantize" => {
                run.quant = match next(&mut i)?.to_ascii_lowercase().as_str() {
                    "f32" => Quantization::F32,
                    "sq8" => Quantization::sq8(),
                    other => return Err(format!("unknown quantization '{other}'")),
                }
            }
            "--nlist" => {
                let n: usize = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --nlist: {e}"))?;
                if n == 0 {
                    return Err("--nlist must be positive".into());
                }
                nlist = Some(n);
            }
            "--driver" => {
                driver_realtime = Some(match next(&mut i)?.to_ascii_lowercase().as_str() {
                    "sim" => false,
                    "realtime" => true,
                    other => return Err(format!("unknown driver '{other}'")),
                })
            }
            "--time-scale" => {
                let f: f64 = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --time-scale: {e}"))?;
                if !f.is_finite() || f <= 0.0 {
                    return Err(format!("--time-scale must be finite and positive, got {f}"));
                }
                time_scale = Some(f);
            }
            "--nprobe" => {
                let n: usize = next(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --nprobe: {e}"))?;
                if n == 0 {
                    return Err("--nprobe must be positive".into());
                }
                nprobe = Some(n);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        i += 1;
    }
    if run.queries == 0 {
        return Err("--queries must be positive".into());
    }
    if run.replicas == 0 {
        // `Cluster::new` would otherwise panic deep inside the run.
        return Err("--replicas must be positive".into());
    }
    // `--replica-mix` *is* the fleet size, one replica per listed class;
    // alongside an explicit `--replicas` one of the two would silently win.
    if let Some(mix) = &run.replica_mix {
        if replicas_flag.is_some() {
            return Err("--replica-mix replaces --replicas (drop one)".into());
        }
        // The heterogeneous fleet sizes each replica's engine from its own
        // GPU class; `--big-model` instead repoints the whole fleet at the
        // fixed dual-A40 70B serving config, so the mix would be ignored.
        if run.big_model {
            return Err("--replica-mix cannot be combined with --big-model".into());
        }
        run.replicas = mix.len();
    }
    // `--burst-factor` composes with `--arrivals burst` in either flag
    // order; anywhere else it would be silently ignored.
    if let Some(f) = burst_factor {
        match &mut run.arrivals {
            ArrivalProcess::Burst { factor } => *factor = f,
            other => {
                return Err(format!(
                    "--burst-factor requires --arrivals burst (got {})",
                    other.name()
                ))
            }
        }
    }
    // Index shape flags compose with their family's `--index` in any flag
    // order; under any other family they would be silently ignored, so both
    // directions are rejected instead (`--nlist` without ivf, `--ef-search`
    // without hnsw). The shape constraints (`nprobe <= nlist`, …) are the
    // index's own `IndexSpec::validate` rules, surfaced here at parse with
    // a message — not as a panic deep inside the index build.
    let family = index_family.unwrap_or(IndexFamily::Flat);
    if family != IndexFamily::Ivf && (nlist.is_some() || nprobe.is_some()) {
        return Err("--nlist/--nprobe require --index ivf".into());
    }
    if family != IndexFamily::Hnsw && (hnsw_m.is_some() || ef_search.is_some()) {
        return Err("--ef-search/--m require --index hnsw".into());
    }
    run.index = match family {
        IndexFamily::Flat => IndexSpec::Flat,
        IndexFamily::Ivf => {
            let nlist = nlist.unwrap_or(DEFAULT_IVF_NLIST);
            let spec = IndexSpec::ivf(
                nlist,
                nprobe.unwrap_or_else(|| DEFAULT_IVF_NPROBE.min(nlist)),
            );
            spec.validate().map_err(|e| {
                // The index's own rule, respelled with the CLI flag names.
                e.replace("nprobe", "--nprobe").replace("nlist", "--nlist")
            })?;
            spec
        }
        IndexFamily::Hnsw => {
            let m = hnsw_m.unwrap_or(DEFAULT_HNSW_M);
            let spec = IndexSpec::Hnsw {
                m,
                // A construction beam narrower than the neighbor budget
                // makes no sense; raise it with large --m so the flag the
                // user *can't* set never fails validation.
                ef_construction: HnswConfig::default().ef_construction.max(m),
                ef_search: ef_search.unwrap_or(DEFAULT_HNSW_EF_SEARCH),
            };
            spec.validate().map_err(|e| {
                e.replace("ef-search", "--ef-search")
                    .replace("m must", "--m must")
            })?;
            spec
        }
    };
    // Only the METIS controller derives priorities from SLO tiers; on any
    // other system the flag would be silently ignored while the run report
    // still printed a per-class breakdown.
    if run.priority_from_slo && run.system != SystemChoice::Metis {
        return Err("--priority-from-slo requires --system metis".into());
    }
    // Only `run` emits a report or picks a driver — `sweep`/`profile`
    // always simulate and print, so either flag would be silently inert
    // there. `--time-scale` in turn only means something on the realtime
    // driver: the simulator's virtual time is not tied to wall time at all.
    if (run.json.is_some() || driver_realtime.is_some()) && sub != "run" {
        return Err("--json/--driver require the run subcommand".into());
    }
    if time_scale.is_some() && driver_realtime != Some(true) {
        return Err("--time-scale requires --driver realtime".into());
    }
    if driver_realtime == Some(true) {
        run.driver = DriverSpec::Realtime {
            time_scale: time_scale.unwrap_or(1.0),
        };
    }
    // Prefix-aware routing compares the replicas' chunk-KV caches; without
    // a cache every replica looks identical and the router silently
    // degrades to least-kv, so the dependency is made explicit.
    if run.router == RouterPolicy::PrefixAware && run.prefix_cache_bytes.is_none() {
        return Err("--router prefix-aware requires --prefix-cache-gb".into());
    }
    Ok(command(run))
}

/// Parses a command line that must be a `run` invocation, returning its
/// arguments or a descriptive error — the non-panicking plumbing the tests
/// build on (the binary itself dispatches every subcommand via [`parse`]).
#[cfg(test)]
pub fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    match parse(args)? {
        Command::Run(a) => Ok(a),
        other => Err(format!("expected a 'run' command, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    /// Pulls every `--flag` token out of a block of text.
    fn flags_in(text: &str) -> std::collections::BTreeSet<String> {
        let mut flags = std::collections::BTreeSet::new();
        for raw in text.split(|c: char| c.is_whitespace() || "`|<>()=,;".contains(c)) {
            let token = raw.trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
            if let Some(name) = token.strip_prefix("--") {
                if !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
                {
                    flags.insert(token.to_string());
                }
            }
        }
        flags
    }

    /// The README's CLI section and the parser must not drift apart: every
    /// flag the README documents must exist in the parser (and be listed
    /// in `USAGE`), and every flag `USAGE` offers must be documented in
    /// the README's CLI section.
    #[test]
    fn readme_cli_flags_match_the_parser() {
        let readme = include_str!("../../../README.md");
        let cli_section = readme
            .split("\n## CLI\n")
            .nth(1)
            .expect("README has a '## CLI' section")
            .split("\n## ")
            .next()
            .unwrap();

        // Command examples are `cargo run --release -p metis-cli -- …`;
        // only the part after cargo's `--` separator belongs to this
        // parser, so strip each cargo prefix before scanning for flags.
        let own_text: String = cli_section
            .lines()
            .map(
                |line| match (line.contains("cargo "), line.split_once(" -- ")) {
                    (true, Some((_, rest))) => rest,
                    (true, None) => "",
                    (false, _) => line,
                },
            )
            .collect::<Vec<_>>()
            .join("\n");
        let documented = flags_in(&own_text);
        let offered = flags_in(USAGE);
        assert!(!documented.is_empty() && !offered.is_empty());

        for flag in &documented {
            assert!(
                offered.contains(flag),
                "README documents {flag} but USAGE does not list it"
            );
            // The parser itself must recognize the flag: whatever else goes
            // wrong with a bare probe (missing value, combination rules),
            // it must never be "unknown option".
            let probe = parse(&sv(&["run", flag, "1"]));
            if let Err(msg) = probe {
                assert!(
                    !msg.contains(&format!("unknown option '{flag}'")),
                    "README documents {flag} but the parser rejects it as unknown: {msg}"
                );
            }
        }
        for flag in &offered {
            assert!(
                documented.contains(flag),
                "USAGE lists {flag} but the README CLI section never mentions it"
            );
        }
    }

    #[test]
    fn run_defaults() -> Result<(), String> {
        let a = parse_run(&sv(&["run"]))?;
        assert_eq!(a, RunArgs::default());
        Ok(())
    }

    #[test]
    fn full_option_set_parses() -> Result<(), String> {
        let a = parse_run(&sv(&[
            "run",
            "--dataset",
            "finsec",
            "--system",
            "map_reduce:8:120",
            "--queries",
            "50",
            "--qps",
            "0.2",
            "--seed",
            "42",
            "--big-model",
            "--slo",
            "2.5",
            "--prefix-cache-gb",
            "4",
            "--replicas",
            "2",
            "--router",
            "least-kv",
        ]))?;
        assert_eq!(a.dataset, DatasetKind::FinSec);
        assert_eq!(a.system, SystemChoice::FixedMapReduce(8, 120));
        assert_eq!(a.queries, 50);
        assert_eq!(a.qps, 0.2);
        assert_eq!(a.seed, 42);
        assert!(a.big_model);
        assert_eq!(a.slo, Some(2.5));
        assert_eq!(a.prefix_cache_bytes, Some(4 << 30));
        assert_eq!(a.replicas, 2);
        assert_eq!(a.router, RouterPolicy::LeastKvLoad);
        Ok(())
    }

    #[test]
    fn non_run_commands_are_rejected_by_parse_run() {
        assert!(parse_run(&sv(&["sweep"])).is_err());
        assert!(parse_run(&sv(&["help"])).is_err());
    }

    #[test]
    fn replica_and_router_flags_parse() -> Result<(), String> {
        let a = parse_run(&sv(&["run", "--replicas", "4"]))?;
        assert_eq!(a.replicas, 4);
        assert_eq!(a.router, RouterPolicy::RoundRobin, "default router");
        let a = parse_run(&sv(&["run", "--router", "rr"]))?;
        assert_eq!(a.router, RouterPolicy::RoundRobin);
        let a = parse_run(&sv(&["run", "--router", "least-kv-load"]))?;
        assert_eq!(a.router, RouterPolicy::LeastKvLoad);
        Ok(())
    }

    #[test]
    fn bad_inputs_are_rejected_with_messages() {
        assert!(parse(&sv(&["run", "--dataset", "wiki"])).is_err());
        assert!(parse(&sv(&["run", "--system", "magic"])).is_err());
        assert!(parse(&sv(&["run", "--queries", "0"])).is_err());
        assert!(parse(&sv(&["run", "--qps"])).is_err(), "missing value");
        // The subcommand is judged before any flag: a mistyped one is named
        // as such (`serve`/`replay` are `run --driver` now), and `help` is
        // help whatever follows.
        for sub in ["launch", "serve", "replay"] {
            let err = parse(&sv(&[sub, "--queries", "0"])).unwrap_err();
            assert_eq!(err, format!("unknown subcommand '{sub}'"));
        }
        assert_eq!(parse(&sv(&["help", "--bogus"])), Ok(Command::Help));
        // Malformed replica/router values carry a descriptive error.
        let err = parse(&sv(&["run", "--replicas", "two"])).unwrap_err();
        assert!(err.contains("bad --replicas"), "got: {err}");
        let err = parse(&sv(&["run", "--router", "hash-ring"])).unwrap_err();
        assert!(err.contains("unknown router"), "got: {err}");
    }

    #[test]
    fn zero_replicas_is_a_parse_error_not_a_deep_panic() {
        // `Cluster::new` panics on an empty replica list; the CLI must
        // refuse the value up front with a descriptive message instead.
        let err = parse_run(&sv(&["run", "--replicas", "0"])).unwrap_err();
        assert!(err.contains("--replicas must be positive"), "got: {err}");
        // The check applies to every subcommand that takes the flag.
        let err = parse(&sv(&["sweep", "--replicas", "0"])).unwrap_err();
        assert!(err.contains("--replicas must be positive"), "got: {err}");
    }

    #[test]
    fn non_finite_qps_is_rejected() -> Result<(), String> {
        // These used to reach the arrival generator's "rate must be
        // positive" assert and panic there.
        for bad in ["nan", "inf", "-inf", "1e400"] {
            let err = parse_run(&sv(&["run", "--qps", bad])).unwrap_err();
            assert!(err.contains("--qps must be finite"), "{bad}: {err}");
        }
        // Zero and below still select the closed loop.
        assert_eq!(parse_run(&sv(&["run", "--qps", "-1"]))?.qps, -1.0);
        Ok(())
    }

    #[test]
    fn slo_must_be_a_finite_positive_budget() -> Result<(), String> {
        // A budget no estimate can meet used to be accepted and silently
        // turned every decision into the infeasible-SLO fallback.
        for bad in ["nan", "inf", "0", "-3"] {
            let err = parse_run(&sv(&["run", "--slo", bad])).unwrap_err();
            assert!(
                err.contains("--slo must be finite and positive"),
                "{bad}: {err}"
            );
        }
        assert_eq!(parse_run(&sv(&["run", "--slo", "0.25"]))?.slo, Some(0.25));
        Ok(())
    }

    #[test]
    fn prefix_cache_size_must_fit_a_byte_count() -> Result<(), String> {
        // 2^34 GiB = 2^64 bytes: the multiplication used to wrap to 0 in
        // release builds and panic in debug ones.
        let err = parse_run(&sv(&["run", "--prefix-cache-gb", "17179869184"])).unwrap_err();
        assert!(
            err.contains("--prefix-cache-gb 17179869184 does not fit"),
            "{err}"
        );
        let a = parse_run(&sv(&["run", "--prefix-cache-gb", "17179869183"]))?;
        assert_eq!(a.prefix_cache_bytes, Some(17_179_869_183 << 30));
        Ok(())
    }

    /// The parser is total: whatever the argv, it returns — never panics —
    /// and what it accepts is safe to hand to the simulator.
    #[test]
    fn parse_is_total_and_every_accepted_argv_is_runnable() {
        // `run` twice: it alone takes every flag, the driver ones included.
        const SUBS: [&str; 8] = [
            "run", "run", "sweep", "profile", "help", "launch", "serve", "replay",
        ];
        const REJECTED_SUBS: [&str; 3] = ["launch", "serve", "replay"];
        // Valid openings, so the cross-flag rules are reached too.
        const OPENINGS: [&[&str]; 4] = [
            &[],
            &["--index", "ivf"],
            &["--driver", "realtime"],
            &["--arrivals", "burst"],
        ];
        #[rustfmt::skip]
        const VALUES: [&str; 24] = [
            "0", "1", "2", "7", "64", "-1", "0.5", "1e-9", "4096", "17179869184",
            "18446744073709551616", "nan", "inf", "-inf", "1e400", "", ",", "a40,,h100", "sq8", "☃",
            "stuff:0", "stuff:3", "map_reduce:4:0", "map_reduce:2:9",
        ];
        let flags: Vec<String> = flags_in(USAGE).into_iter().collect();
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut pick = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        let mut accepted = 0;
        for _ in 0..20_000 {
            let mut argv = vec![SUBS[pick(SUBS.len())].to_string()];
            argv.extend(OPENINGS[pick(OPENINGS.len())].iter().map(|s| s.to_string()));
            for _ in 0..pick(4) {
                argv.push(flags[pick(flags.len())].clone());
                if pick(4) > 0 {
                    argv.push(VALUES[pick(VALUES.len())].to_string());
                }
            }
            let parsed = std::panic::catch_unwind(|| parse(&argv))
                .unwrap_or_else(|_| panic!("parse panicked on {argv:?}"));
            assert!(
                parsed.is_err() || !REJECTED_SUBS.contains(&argv[0].as_str()),
                "{argv:?} was accepted"
            );
            let a = match parsed {
                Ok(Command::Run(a) | Command::Sweep(a) | Command::Profile(a)) => a,
                Ok(Command::Help) | Err(_) => continue,
            };
            accepted += 1;
            assert!(a.queries >= 1 && a.replicas >= 1, "{argv:?} -> {a:?}");
            assert!(a.qps.is_finite(), "{argv:?} -> qps {}", a.qps);
            match a.system {
                SystemChoice::FixedStuff(k) => assert!(k >= 1, "{argv:?} -> {k} chunks"),
                SystemChoice::FixedMapReduce(k, l) => {
                    assert!(k >= 1 && l >= 1, "{argv:?} -> map_reduce {k}:{l}");
                }
                SystemChoice::Metis | SystemChoice::AdaptiveRag => {}
            }
            assert!(
                a.slo.is_none_or(|s| s.is_finite() && s > 0.0),
                "{argv:?} -> slo {:?}",
                a.slo
            );
            if let IndexSpec::Ivf { nlist, nprobe, .. } = a.index {
                assert!(
                    nprobe <= nlist,
                    "{argv:?} -> nprobe {nprobe} > nlist {nlist}"
                );
            }
            if let DriverSpec::Realtime { time_scale } = a.driver {
                assert!(
                    time_scale.is_finite() && time_scale > 0.0,
                    "{argv:?} -> {time_scale}"
                );
            }
        }
        assert!(
            accepted >= 2_000,
            "only {accepted} of 20 000 argvs parsed: the pool has gone stale"
        );
    }

    #[test]
    fn elasticity_flags_parse() -> Result<(), String> {
        let a = parse_run(&sv(&["run"]))?;
        assert!(!a.autoscale);
        assert_eq!(a.preempt_mode, PreemptMode::Recompute);
        assert_eq!(a.replica_mix, None);
        let a = parse_run(&sv(&["run", "--autoscale", "--replicas", "2"]))?;
        assert!(a.autoscale);
        assert_eq!(a.replicas, 2, "--replicas is the starting fleet");
        let a = parse_run(&sv(&[
            "run",
            "--preempt-mode",
            "migrate",
            "--replicas",
            "3",
        ]))?;
        assert_eq!(a.preempt_mode, PreemptMode::Migrate);
        // Realtime is the paced simulator, so it migrates too.
        let a = parse_run(&sv(&[
            "run",
            "--driver",
            "realtime",
            "--preempt-mode",
            "migrate",
        ]))?;
        assert_eq!(
            (a.driver, a.preempt_mode),
            (
                DriverSpec::Realtime { time_scale: 1.0 },
                PreemptMode::Migrate
            )
        );
        // An explicit recompute still parses (useful in scripts).
        let a = parse_run(&sv(&["run", "--preempt-mode", "recompute"]))?;
        assert_eq!(a.preempt_mode, PreemptMode::Recompute);
        // The mix is the fleet: one replica per listed class, in order.
        let a = parse_run(&sv(&["run", "--replica-mix", "a40,a40,h100"]))?;
        assert_eq!(
            a.replica_mix,
            Some(vec![GpuClass::A40, GpuClass::A40, GpuClass::H100])
        );
        assert_eq!(a.replicas, 3, "the mix sets the fleet size");
        let a = parse_run(&sv(&[
            "run",
            "--router",
            "prefix-aware",
            "--prefix-cache-gb",
            "4",
            "--replicas",
            "2",
        ]))?;
        assert_eq!(a.router, RouterPolicy::PrefixAware);
        Ok(())
    }

    #[test]
    fn elasticity_flag_misuse_is_rejected() {
        // --replica-mix and --replicas conflict in either flag order.
        let err = parse(&sv(&["run", "--replica-mix", "a40", "--replicas", "2"])).unwrap_err();
        assert!(err.contains("replaces --replicas"), "got: {err}");
        let err = parse(&sv(&["run", "--replicas", "2", "--replica-mix", "a40"])).unwrap_err();
        assert!(err.contains("replaces --replicas"), "got: {err}");
        let err = parse(&sv(&["run", "--replica-mix", "a40,h100", "--big-model"])).unwrap_err();
        assert!(err.contains("--big-model"), "got: {err}");
        // Malformed mixes carry descriptive errors.
        let err = parse(&sv(&["run", "--replica-mix", "a40,,h100"])).unwrap_err();
        assert!(err.contains("empty entry"), "got: {err}");
        let err = parse(&sv(&["run", "--replica-mix", "tpu"])).unwrap_err();
        assert!(err.contains("unknown GPU class"), "got: {err}");
        let err = parse(&sv(&["run", "--preempt-mode", "teleport"])).unwrap_err();
        assert!(err.contains("unknown preempt mode"), "got: {err}");
        // Prefix-aware routing without a prefix cache would silently act
        // as least-kv.
        let err = parse(&sv(&["run", "--router", "prefix-aware"])).unwrap_err();
        assert!(err.contains("requires --prefix-cache-gb"), "got: {err}");
    }

    #[test]
    fn arrival_process_flags_parse() -> Result<(), String> {
        let a = parse_run(&sv(&["run"]))?;
        assert_eq!(a.arrivals, ArrivalProcess::Poisson);
        assert!(!a.priority_from_slo);
        let a = parse_run(&sv(&["run", "--arrivals", "burst"]))?;
        assert_eq!(a.arrivals, ArrivalProcess::Burst { factor: 4.0 });
        // --burst-factor composes in either flag order.
        let a = parse_run(&sv(&["run", "--arrivals", "burst", "--burst-factor", "8"]))?;
        assert_eq!(a.arrivals, ArrivalProcess::Burst { factor: 8.0 });
        let a = parse_run(&sv(&["run", "--burst-factor", "6", "--arrivals", "burst"]))?;
        assert_eq!(a.arrivals, ArrivalProcess::Burst { factor: 6.0 });
        let a = parse_run(&sv(&["run", "--arrivals", "gamma"]))?;
        assert_eq!(a.arrivals, ArrivalProcess::Gamma { cv: 2.0 });
        let a = parse_run(&sv(&[
            "run",
            "--arrivals",
            "diurnal",
            "--priority-from-slo",
        ]))?;
        assert_eq!(a.arrivals, ArrivalProcess::Diurnal);
        assert!(a.priority_from_slo);
        Ok(())
    }

    #[test]
    fn arrival_flag_misuse_is_rejected() {
        let err = parse(&sv(&["run", "--arrivals", "lunar"])).unwrap_err();
        assert!(err.contains("unknown arrival process"), "got: {err}");
        let err = parse(&sv(&["run", "--burst-factor", "0.5"])).unwrap_err();
        assert!(err.contains("must be >= 1"), "got: {err}");
        let err = parse(&sv(&["run", "--burst-factor", "4"])).unwrap_err();
        assert!(err.contains("requires --arrivals burst"), "got: {err}");
        let err = parse(&sv(&["run", "--arrivals", "gamma", "--burst-factor", "4"])).unwrap_err();
        assert!(err.contains("requires --arrivals burst"), "got: {err}");
        // Fixed-config systems never assign priorities: the flag would be
        // silently inert, so it is rejected instead.
        let err = parse(&sv(&["run", "--system", "stuff:4", "--priority-from-slo"])).unwrap_err();
        assert!(err.contains("requires --system metis"), "got: {err}");
    }

    #[test]
    fn index_flags_parse_in_any_order() -> Result<(), String> {
        let a = parse_run(&sv(&["run"]))?;
        assert_eq!(a.index, IndexSpec::Flat);
        let a = parse_run(&sv(&["run", "--index", "flat"]))?;
        assert_eq!(a.index, IndexSpec::Flat);
        // Defaults fill in the unspecified IVF shape.
        let a = parse_run(&sv(&["run", "--index", "ivf"]))?;
        assert_eq!(a.index, IndexSpec::ivf(64, 8));
        let a = parse_run(&sv(&["run", "--index", "ivf", "--nlist", "32"]))?;
        assert_eq!(a.index, IndexSpec::ivf(32, 8));
        // The default nprobe clamps to a small nlist.
        let a = parse_run(&sv(&["run", "--index", "ivf", "--nlist", "4"]))?;
        assert_eq!(a.index, IndexSpec::ivf(4, 4));
        // Shape flags compose before or after --index.
        let a = parse_run(&sv(&[
            "run", "--nprobe", "2", "--index", "ivf", "--nlist", "16",
        ]))?;
        assert_eq!(a.index, IndexSpec::ivf(16, 2));
        Ok(())
    }

    #[test]
    fn index_flag_misuse_is_rejected_at_parse() {
        // nprobe > nlist: a parse error with a message, not a deep panic.
        let err = parse(&sv(&[
            "run", "--index", "ivf", "--nlist", "8", "--nprobe", "32",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--nprobe (32) must be <= --nlist (8)"),
            "got: {err}"
        );
        // Shape flags without their own index family would be silently
        // inert — both directions are rejected with exact messages.
        let err = parse(&sv(&["run", "--nlist", "64"])).unwrap_err();
        assert_eq!(err, "--nlist/--nprobe require --index ivf");
        let err = parse(&sv(&["run", "--index", "flat", "--nprobe", "4"])).unwrap_err();
        assert_eq!(err, "--nlist/--nprobe require --index ivf");
        let err = parse(&sv(&["run", "--index", "hnsw", "--nlist", "64"])).unwrap_err();
        assert_eq!(err, "--nlist/--nprobe require --index ivf");
        let err = parse(&sv(&["run", "--ef-search", "128"])).unwrap_err();
        assert_eq!(err, "--ef-search/--m require --index hnsw");
        let err = parse(&sv(&["run", "--index", "flat", "--m", "8"])).unwrap_err();
        assert_eq!(err, "--ef-search/--m require --index hnsw");
        let err = parse(&sv(&["run", "--index", "ivf", "--ef-search", "32"])).unwrap_err();
        assert_eq!(err, "--ef-search/--m require --index hnsw");
        // Malformed values carry descriptive errors.
        let err = parse(&sv(&["run", "--index", "pq"])).unwrap_err();
        assert!(err.contains("unknown index"), "got: {err}");
        let err = parse(&sv(&["run", "--index", "ivf", "--nlist", "0"])).unwrap_err();
        assert!(err.contains("--nlist must be positive"), "got: {err}");
        let err = parse(&sv(&["run", "--index", "ivf", "--nprobe", "zero"])).unwrap_err();
        assert!(err.contains("bad --nprobe"), "got: {err}");
    }

    #[test]
    fn hnsw_flags_parse_in_any_order() -> Result<(), String> {
        // Defaults fill in the unspecified HNSW shape.
        let a = parse_run(&sv(&["run", "--index", "hnsw"]))?;
        assert_eq!(a.index, IndexSpec::hnsw(16, 64));
        // Shape flags compose before or after --index.
        let a = parse_run(&sv(&[
            "run",
            "--ef-search",
            "128",
            "--index",
            "hnsw",
            "--m",
            "8",
        ]))?;
        assert_eq!(a.index, IndexSpec::hnsw(8, 128));
        // A neighbor budget above the default construction beam raises the
        // beam instead of failing validation on a flag the CLI can't set.
        let a = parse_run(&sv(&["run", "--index", "hnsw", "--m", "128"]))?;
        assert_eq!(
            a.index,
            IndexSpec::Hnsw {
                m: 128,
                ef_construction: 128,
                ef_search: 64
            }
        );
        Ok(())
    }

    #[test]
    fn hnsw_flag_misuse_is_rejected_at_parse() {
        let err = parse(&sv(&["run", "--index", "hnsw", "--m", "1"])).unwrap_err();
        assert!(err.contains("--m must be at least 2"), "got: {err}");
        let err = parse(&sv(&["run", "--index", "hnsw", "--ef-search", "0"])).unwrap_err();
        assert!(err.contains("--ef-search must be positive"), "got: {err}");
        let err = parse(&sv(&["run", "--index", "hnsw", "--ef-search", "many"])).unwrap_err();
        assert!(err.contains("bad --ef-search"), "got: {err}");
        let err = parse(&sv(&["run", "--index", "hnsw", "--m", "wide"])).unwrap_err();
        assert!(err.contains("bad --m"), "got: {err}");
    }

    #[test]
    fn quantize_flag_parses_with_every_index_family() -> Result<(), String> {
        let a = parse_run(&sv(&["run"]))?;
        assert_eq!(a.quant, Quantization::F32);
        let a = parse_run(&sv(&["run", "--quantize", "f32"]))?;
        assert_eq!(a.quant, Quantization::F32);
        // sq8 storage is an axis orthogonal to the index family.
        let a = parse_run(&sv(&["run", "--quantize", "sq8"]))?;
        assert_eq!(a.quant, Quantization::sq8());
        let a = parse_run(&sv(&["run", "--index", "ivf", "--quantize", "sq8"]))?;
        assert_eq!(a.index, IndexSpec::ivf(64, 8));
        assert_eq!(a.quant, Quantization::sq8());
        let a = parse_run(&sv(&["run", "--index", "hnsw", "--quantize", "sq8"]))?;
        assert_eq!(a.index, IndexSpec::hnsw(16, 64));
        assert_eq!(a.quant, Quantization::sq8());
        let err = parse(&sv(&["run", "--quantize", "pq4"])).unwrap_err();
        assert!(err.contains("unknown quantization"), "got: {err}");
        Ok(())
    }

    #[test]
    fn json_flag_parses_on_run_only() -> Result<(), String> {
        let a = parse_run(&sv(&["run", "--json", "out/report.json"]))?;
        assert_eq!(a.json.as_deref(), Some("out/report.json"));
        let a = parse_run(&sv(&["run"]))?;
        assert_eq!(a.json, None);
        let err = parse(&sv(&["sweep", "--json", "x.json"])).unwrap_err();
        assert_eq!(err, "--json/--driver require the run subcommand");
        let err = parse(&sv(&["run", "--json", ""])).unwrap_err();
        assert!(err.contains("non-empty path"), "got: {err}");
        let err = parse(&sv(&["run", "--json"])).unwrap_err();
        assert!(err.contains("missing value"), "got: {err}");
        Ok(())
    }

    #[test]
    fn driver_flags_parse_on_run() -> Result<(), String> {
        assert_eq!(parse_run(&sv(&["run"]))?.driver, DriverSpec::Sim);
        let a = parse_run(&sv(&["run", "--driver", "realtime"]))?;
        assert_eq!(a.driver, DriverSpec::Realtime { time_scale: 1.0 });
        // Flags compose in either order, and with --json.
        let a = parse_run(&sv(&[
            "run",
            "--time-scale",
            "1000",
            "--driver",
            "realtime",
            "--json",
            "out/replay.json",
        ]))?;
        assert_eq!(a.driver, DriverSpec::Realtime { time_scale: 1000.0 });
        assert_eq!(a.json.as_deref(), Some("out/replay.json"));
        // An explicit sim driver still parses (useful in scripts).
        assert_eq!(
            parse_run(&sv(&["run", "--driver", "sim"]))?.driver,
            DriverSpec::Sim
        );
        Ok(())
    }

    #[test]
    fn driver_flag_misuse_is_rejected() {
        // Inert placements are rejected rather than silently ignored.
        let err = parse(&sv(&["sweep", "--driver", "realtime"])).unwrap_err();
        assert_eq!(err, "--json/--driver require the run subcommand");
        let err = parse(&sv(&["run", "--time-scale", "100"])).unwrap_err();
        assert!(err.contains("requires --driver realtime"), "got: {err}");
        let err = parse(&sv(&["run", "--driver", "sim", "--time-scale", "100"])).unwrap_err();
        assert!(err.contains("requires --driver realtime"), "got: {err}");
        // Malformed values carry descriptive errors.
        let err = parse(&sv(&["run", "--driver", "gpu"])).unwrap_err();
        assert!(err.contains("unknown driver"), "got: {err}");
        let err = parse(&sv(&["run", "--driver", "realtime", "--time-scale", "0"])).unwrap_err();
        assert!(err.contains("finite and positive"), "got: {err}");
        let err = parse(&sv(&[
            "run",
            "--driver",
            "realtime",
            "--time-scale",
            "fast",
        ]))
        .unwrap_err();
        assert!(err.contains("bad --time-scale"), "got: {err}");
    }

    #[test]
    fn system_spellings() {
        assert_eq!(parse_system("METIS").unwrap(), SystemChoice::Metis);
        assert_eq!(
            parse_system("adaptiverag").unwrap(),
            SystemChoice::AdaptiveRag
        );
        assert_eq!(
            parse_system("stuff:12").unwrap(),
            SystemChoice::FixedStuff(12)
        );
        assert_eq!(
            parse_system("map_reduce:6").unwrap(),
            SystemChoice::FixedMapReduce(6, 100)
        );
        assert_eq!(
            parse_system("map_reduce:6:250").unwrap(),
            SystemChoice::FixedMapReduce(6, 250)
        );
        // Specs the runner would quietly serve as something else.
        for (spec, why) in [
            ("stuff:0", "chunk count must be at least 1"),
            ("map_reduce:0", "chunk count must be at least 1"),
            ("map_reduce:4:0", "intermediate length must be at least 1"),
            ("map_reduce:4:100:zzz", "unexpected field 'zzz'"),
            ("map_reduce:4:", "bad intermediate length ''"),
            ("stuff:4:9", "bad chunk count '4:9'"),
        ] {
            let err = parse_system(spec).unwrap_err();
            assert!(err.contains(why) && err.contains(spec), "{spec}: {err}");
        }
    }
}
