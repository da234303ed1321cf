//! The figure table: one [`Figure`] row per table and figure of the
//! evaluation, each measured by the module of the same name.

use metis_metrics::BenchReport;

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
    /// What the experiment is, as printed above its table.
    pub title: &'static str,
    /// What the paper (or, beyond the paper, this reproduction) expects the
    /// numbers to show. Printed beside them, not checked against them.
    pub paper: &'static str,
    /// The title of its report.
    pub report_title: &'static str,
    /// Its full-scale size: queries per dataset or cell (`fig04_knobs`:
    /// generation seeds per point).
    pub queries: usize,
    /// Measures the figure at size `n`: prints its table and adds its knobs
    /// and cells to the report.
    pub(crate) run: fn(n: usize, report: &mut BenchReport),
}

impl Figure {
    /// Runs the figure at `scale` (`None`: its full-scale [`Self::queries`])
    /// and returns its report, stamped with the bench-standard seeds and —
    /// so a smoke-run report can never be mistaken for a full-scale one —
    /// a `METIS_BENCH_QUERIES` knob holding the scale that was asked for.
    pub fn report(&self, scale: Option<usize>) -> BenchReport {
        println!("\n================================================================");
        println!("{}: {}", self.artefact, self.title);
        println!("paper expectation: {}", self.paper);
        println!("================================================================");
        let mut report = BenchReport::new(self.name, self.report_title);
        report.dataset_seed = DATASET_SEED;
        report.run_seed = RUN_SEED;
        if let Some(q) = scale {
            knob(&mut report, "METIS_BENCH_QUERIES", q);
        }
        (self.run)(scale.unwrap_or(self.queries), &mut report);
        report
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
    use super::*;

    #[test]
    fn a_report_carries_its_figures_name_the_seeds_and_the_scale_asked_for() {
        fn sized(n: usize, report: &mut BenchReport) {
            knob(report, "queries", n);
        }
        let probe = Figure {
            name: "probe",
            artefact: "Probe",
            title: "stamps only",
            paper: "none",
            report_title: "a probe",
            queries: 40,
            run: sized,
        };
        let knobs = |report: &BenchReport| -> Vec<String> {
            let pairs = report.knobs.iter();
            pairs
                .map(|(name, value)| format!("{name}={value}"))
                .collect()
        };
        let full = probe.report(None);
        assert_eq!(full.experiment, "probe");
        assert_eq!(full.title, "a probe");
        assert_eq!((full.dataset_seed, full.run_seed), (DATASET_SEED, RUN_SEED));
        assert_eq!(knobs(&full), ["queries=40"]);
        // The stamp comes first: knob order is bytes of every baseline.
        let smoke = probe.report(Some(8));
        assert_eq!(knobs(&smoke), ["METIS_BENCH_QUERIES=8", "queries=8"]);
    }
}
