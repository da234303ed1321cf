//! The figure table: one [`Figure`] row per table and figure of the
//! evaluation, each measured by the module of the same name.

use std::fmt::Write as _;

use metis_metrics::{BenchReport, Json};

use crate::{knob, DATASET_SEED, RUN_SEED};

mod ablations;
mod appendix_embeddings;
mod fig01_preview;
mod fig04_knobs;
mod fig05_perquery;
mod fig09_confidence;
mod fig10_overall;
mod fig11_throughput;
mod fig12_breakdown;
mod fig13_cost;
mod fig14_feedback;
mod fig15_big_model;
mod fig16_incremental;
mod fig17_small_profiler;
mod fig18_profiler_overhead;
mod fig19_low_load;
mod fig_ann_scale;
mod fig_autoscale;
mod fig_preempt;
mod fig_realtime_parity;
mod fig_replicas;
mod fig_retrieval;
mod table1_datasets;

/// One experiment of the evaluation.
pub struct Figure {
    /// The name it is selected by; also its module, its report's
    /// `experiment` and the stem of its report (and baseline) file.
    pub name: &'static str,
    /// The paper artefact it reproduces ("Figure 10"), or what it is
    /// called where the paper has none.
    pub artefact: &'static str,
    /// The title of its report, which says what the experiment is.
    pub title: &'static str,
    /// Its full-scale size: queries per dataset or cell (`fig04_knobs`:
    /// generation seeds per point).
    pub queries: usize,
    /// Measures the figure at size `n`: adds its knobs and cells to the
    /// report and returns what it measured of the paper's numeric claims.
    pub(crate) run: fn(n: usize, report: &mut BenchReport) -> Vec<Claim>,
}

impl Figure {
    /// Runs the figure at `scale` (`None`: its full-scale [`Self::queries`])
    /// and returns its report, stamped with the bench-standard seeds and —
    /// so a smoke-run report can never be mistaken for a full-scale one —
    /// a `METIS_BENCH_QUERIES` knob holding the scale that was asked for.
    /// Beside the report come its claims, each id prefixed with the
    /// figure's name; they are not part of the report, whose bytes the
    /// baselines pin.
    pub fn report(&self, scale: Option<usize>) -> (BenchReport, Vec<Claim>) {
        let mut report = BenchReport::new(self.name, self.title);
        report.dataset_seed = DATASET_SEED;
        report.run_seed = RUN_SEED;
        if let Some(q) = scale {
            knob(&mut report, "METIS_BENCH_QUERIES", q);
        }
        let mut claims = (self.run)(scale.unwrap_or(self.queries), &mut report);
        for claim in &mut claims {
            claim.id = format!("{}/{}", self.name, claim.id);
        }
        (report, claims)
    }

    /// Prints what [`Self::report`] returned at `scale`: the report — its
    /// title, knobs and every cell — and every claim.
    pub fn print(&self, report: &BenchReport, claims: &[Claim], scale: Option<usize>) {
        println!("\n{}: {}", self.artefact, report.title);
        print!("{}{}", cells_text(report), claims_text(claims, scale));
    }
}

/// The report's knobs, then every cell of it, one paragraph each: its id
/// and knobs, then the standard stats it carries (a summary of no samples
/// and a zero scalar are left out), its stage means and every extra.
fn cells_text(report: &BenchReport) -> String {
    let mut out = format!("  knobs:{}\n", knobs_text(&report.knobs));
    for cell in &report.cells {
        let mut stats = vec![
            format!("queries {}", cell.queries),
            format!("f1 {}", num(cell.f1)),
        ];
        for (name, s) in [
            ("delay", &cell.latency),
            ("queue_wait", &cell.queue_wait),
            ("retrieval", &cell.retrieval),
        ] {
            if s.count > 0 {
                let (mean, p50, p99) = (num(s.mean), num(s.p50()), num(s.p99()));
                stats.push(format!("{name} mean/p50/p99 {mean}/{p50}/{p99} s"));
            }
        }
        let scalars = [
            ("throughput_qps", cell.throughput_qps),
            ("preemptions", cell.preemptions as f64),
            ("gpu_busy_secs", cell.gpu_busy_secs),
            ("api_cost_usd", cell.api_cost_usd),
            ("retrieval_recall", cell.retrieval_recall),
        ];
        let named = scalars.into_iter().filter(|&(_, v)| v != 0.0);
        let named = named.chain(cell.extra.iter().map(|(n, v)| (n.as_str(), *v)));
        stats.extend(named.map(|(name, v)| format!("{name} {}", num(v))));
        if !cell.stages.is_empty() {
            let stages = cell.stages.iter().map(|(n, v)| format!(" {n}={}", num(*v)));
            stats.push(format!("stage means (s):{}", stages.collect::<String>()));
        }
        let knobs = knobs_text(&cell.knobs);
        let _ = writeln!(out, "  {}{knobs}\n    {}", cell.id, stats.join("  "));
    }
    out
}

/// `  name=value` per knob.
fn knobs_text(knobs: &[(String, String)]) -> String {
    knobs.iter().map(|(k, v)| format!("  {k}={v}")).collect()
}

/// `v` with four significant digits (an integer as itself).
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        return format!("{v}");
    }
    let digits = 3 - v.abs().log10().floor() as i32;
    format!("{v:.*}", digits.clamp(0, 12) as usize)
}

/// One line per claim: its id, the paper's range and direction, what was
/// measured and the verdict, or why there is none.
fn claims_text(claims: &[Claim], scale: Option<usize>) -> String {
    let mut out = String::new();
    for claim in claims {
        let verdict = match claim.verdict(scale) {
            Some(v) => v.word(),
            None => "no verdict at smoke scale",
        };
        let (lo, hi) = (claim.paper_lo, claim.paper_hi);
        let paper = if lo == hi {
            format!("{lo}")
        } else {
            format!("{lo}..{hi}")
        };
        let _ = writeln!(
            out,
            "  claim {}: paper {paper}, {} is better; measured {}: {verdict}",
            claim.id,
            claim.better.word(),
            num(claim.measured)
        );
    }
    out
}

/// Which side of the paper's range the paper's claim is on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Better {
    /// A larger value makes the claim (a speed-up, a gain).
    Higher,
    /// A smaller value makes the claim (an overhead).
    Lower,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Whether a full-scale measurement holds up the paper's claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Inside the paper's range, or beyond it in the claimed direction.
    Reproduced,
    /// Short of the paper's range.
    Deviates,
}

impl Verdict {
    /// The verdict as `docs/fidelity.md` and `claims.json` spell it.
    fn word(self) -> &'static str {
        match self {
            Verdict::Reproduced => "Reproduced",
            Verdict::Deviates => "Deviates",
        }
    }
}

/// One numeric claim of the paper beside what a figure measured of it. A
/// one-sided claim ("> 93 %", "≈ 2.8×") has `paper_lo == paper_hi`.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// `<figure>/<dataset>/<quantity>`; the figure prefix is added by
    /// [`Figure::report`].
    pub(crate) id: String,
    /// The low end of the paper's range.
    pub(crate) paper_lo: f64,
    /// The high end of the paper's range.
    pub(crate) paper_hi: f64,
    /// The direction the paper claims.
    pub(crate) better: Better,
    /// The reproduction's value, in the paper's unit. `+∞` where no
    /// comparison point exists (no fixed configuration reaches the quality
    /// compared against).
    pub(crate) measured: f64,
}

impl Claim {
    /// The claim `id` that its quantity is `paper.0..=paper.1`, or more.
    pub(crate) fn higher(id: impl Into<String>, paper: (f64, f64), measured: f64) -> Self {
        Self::new(id, paper, Better::Higher, measured)
    }

    /// The claim `id` that its quantity is `paper.0..=paper.1`, or less.
    pub(crate) fn lower(id: impl Into<String>, paper: (f64, f64), measured: f64) -> Self {
        Self::new(id, paper, Better::Lower, measured)
    }

    fn new(id: impl Into<String>, (lo, hi): (f64, f64), better: Better, measured: f64) -> Self {
        Self {
            id: id.into(),
            paper_lo: lo,
            paper_hi: hi,
            better,
            measured,
        }
    }

    /// [`Verdict::Reproduced`] when the measured value lies in the paper's
    /// range or beyond it in the claimed direction, else
    /// [`Verdict::Deviates`]; `None` for a run at an explicit `scale` (a
    /// smoke run), where a verdict would be noise.
    pub(crate) fn verdict(&self, scale: Option<usize>) -> Option<Verdict> {
        if scale.is_some() {
            return None;
        }
        let holds = match self.better {
            Better::Higher => self.measured >= self.paper_lo,
            Better::Lower => self.measured <= self.paper_hi,
        };
        Some(if holds {
            Verdict::Reproduced
        } else {
            Verdict::Deviates
        })
    }

    /// The claim as `tests/golden/claims.json` holds it (`docs/reports.md`
    /// gives the schema): a `measured` of `+∞` is the string `"inf"`.
    pub fn to_json(&self, scale: Option<usize>) -> Json {
        let measured = if self.measured == f64::INFINITY {
            Json::Str("inf".into())
        } else {
            Json::Num(self.measured)
        };
        let verdict = self
            .verdict(scale)
            .map_or(Json::Null, |v| Json::Str(v.word().into()));
        Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("paper_lo".into(), Json::Num(self.paper_lo)),
            ("paper_hi".into(), Json::Num(self.paper_hi)),
            ("better".into(), Json::Str(self.better.word().into())),
            ("measured".into(), measured),
            ("verdict".into(), verdict),
        ])
    }
}

/// Every figure, in the order `docs/benchmarks.md` lists them.
pub const FIGURES: &[Figure] = &[
    fig01_preview::FIGURE,
    fig04_knobs::FIGURE,
    fig05_perquery::FIGURE,
    fig09_confidence::FIGURE,
    fig10_overall::FIGURE,
    fig11_throughput::FIGURE,
    fig12_breakdown::FIGURE,
    fig13_cost::FIGURE,
    fig14_feedback::FIGURE,
    fig15_big_model::FIGURE,
    fig16_incremental::FIGURE,
    fig17_small_profiler::FIGURE,
    fig18_profiler_overhead::FIGURE,
    fig19_low_load::FIGURE,
    table1_datasets::FIGURE,
    appendix_embeddings::FIGURE,
    ablations::FIGURE,
    fig_replicas::FIGURE,
    fig_preempt::FIGURE,
    fig_retrieval::FIGURE,
    fig_realtime_parity::FIGURE,
    fig_ann_scale::FIGURE,
    fig_autoscale::FIGURE,
];

/// The figures `args` name, in that order; all of them when it names none.
/// `--bench`, which cargo appends to every bench target's arguments, is not
/// a name. An unknown name is an error that lists the valid ones.
pub fn select(args: impl IntoIterator<Item = String>) -> Result<Vec<&'static Figure>, String> {
    let names: Vec<String> = args.into_iter().filter(|a| a != "--bench").collect();
    if names.is_empty() {
        return Ok(FIGURES.iter().collect());
    }
    let find = |name: &String| {
        FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
            let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            format!(
                "no figure named '{name}'; the figures are: {}",
                valid.join(" ")
            )
        })
    };
    names.iter().map(find).collect()
}

#[cfg(test)]
mod tests {
    use metis_metrics::{CellReport, LatencySummary, SummaryStats};

    use super::*;

    #[test]
    fn a_report_carries_its_figures_name_the_seeds_and_the_scale_asked_for() {
        fn sized(n: usize, report: &mut BenchReport) -> Vec<Claim> {
            knob(report, "queries", n);
            vec![Claim::higher("gain", (1.0, 2.0), n as f64)]
        }
        let probe = Figure {
            name: "probe",
            artefact: "Probe",
            title: "a probe",
            queries: 40,
            run: sized,
        };
        let knobs = |report: &BenchReport| -> Vec<String> {
            let pairs = report.knobs.iter();
            pairs
                .map(|(name, value)| format!("{name}={value}"))
                .collect()
        };
        let (full, claims) = probe.report(None);
        assert_eq!(full.experiment, "probe");
        assert_eq!(full.title, "a probe");
        assert_eq!((full.dataset_seed, full.run_seed), (DATASET_SEED, RUN_SEED));
        assert_eq!(knobs(&full), ["queries=40"]);
        assert_eq!(claims, [Claim::higher("probe/gain", (1.0, 2.0), 40.0)]);
        // The stamp comes first: knob order is bytes of every baseline.
        let (smoke, _) = probe.report(Some(8));
        assert_eq!(knobs(&smoke), ["METIS_BENCH_QUERIES=8", "queries=8"]);
    }

    #[test]
    fn a_claim_is_reproduced_inside_its_range_or_beyond_it_in_its_direction() {
        use Verdict::{Deviates, Reproduced};
        let verdict =
            |better, measured| Claim::new("c", (1.5, 2.5), better, measured).verdict(None);
        for (measured, higher, lower) in [
            (1.0, Deviates, Reproduced),
            (1.5, Reproduced, Reproduced),
            (2.0, Reproduced, Reproduced),
            (2.5, Reproduced, Reproduced),
            (3.0, Reproduced, Deviates),
            (f64::INFINITY, Reproduced, Deviates),
        ] {
            assert_eq!(
                verdict(Better::Higher, measured),
                Some(higher),
                "{measured}"
            );
            assert_eq!(verdict(Better::Lower, measured), Some(lower), "{measured}");
        }
        // A one-sided claim is reproduced on its bound.
        let at = |better| Claim::new("c", (0.1, 0.1), better, 0.1).verdict(None);
        assert_eq!(
            (at(Better::Higher), at(Better::Lower)),
            (Some(Reproduced), Some(Reproduced))
        );
        // At smoke scale a claim carries no verdict, however it reads.
        for measured in [1.0, 2.0, 3.0] {
            assert_eq!(
                Claim::new("c", (1.5, 2.5), Better::Higher, measured).verdict(Some(8)),
                None
            );
        }
    }

    #[test]
    fn the_printer_shows_every_cell_knob_and_extra() {
        let mut report = BenchReport::new("probe", "a probe");
        let mut cell = CellReport::new("squad/metis", 7).knob("dataset", "squad");
        cell.latency = SummaryStats::of(&LatencySummary::new(vec![0.5, 1.5]));
        report.cells.push(cell.metric("usd_per_query", 0.000_125));
        let text = cells_text(&report);
        for shown in [
            "squad/metis",
            "dataset=squad",
            "mean/p50/p99 1/0.5000/1.500",
            "usd_per_query 0.0001250",
        ] {
            assert!(text.contains(shown), "{shown} missing from:\n{text}");
        }
        // A summary of no samples is left out.
        assert!(!text.contains("queue_wait"), "{text}");
    }
}
