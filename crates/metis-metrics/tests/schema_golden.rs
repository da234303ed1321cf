//! Golden-file schema stability: the rendered form of a fixed report is
//! pinned byte-for-byte in `tests/golden/report_v1.json`. Renaming a
//! field, changing the percentile grid, reordering keys, or touching the
//! pretty-printer all fail this test loudly — which is the point: CI
//! compares these documents byte-for-byte with committed baselines, so the
//! schema must never drift silently. On an *intentional* schema change,
//! bump `SCHEMA_VERSION`, regenerate the golden (the failure message says
//! how), and refresh `baselines/`.

#![expect(
    clippy::disallowed_methods,
    reason = "METIS_REGEN_GOLDEN=1 rewrites the golden file; nothing else here touches a file"
)]

use metis_metrics::{BenchReport, CellReport, LatencySummary, SummaryStats};

const GOLDEN: &str = include_str!("golden/report_v1.json");

/// The fixed fixture — do not change without bumping the schema version.
fn fixture() -> BenchReport {
    let mut report = BenchReport::new("golden_fixture", "schema stability fixture")
        .knob("dataset", "musique")
        .knob("load_mults", "1,2");
    report.dataset_seed = 20_241_016;
    report.run_seed = 99;
    let lat = LatencySummary::new(vec![0.5, 1.0, 2.0, 4.0]);
    let ret = LatencySummary::new(vec![0.015625, 0.03125]);
    report.cells.push(
        CellReport {
            queries: 4,
            f1: 0.75,
            latency: SummaryStats::of(&lat),
            queue_wait: SummaryStats::of(&LatencySummary::new(vec![0.25])),
            retrieval: SummaryStats::of(&ret),
            stages: vec![
                ("profile".into(), 0.125),
                ("decide".into(), 0.0),
                ("retrieve".into(), 0.03125),
                ("queue_wait".into(), 0.25),
                ("prefill".into(), 0.5),
                ("decode".into(), 1.0),
            ],
            throughput_qps: 2.0,
            preemptions: 1,
            gpu_busy_secs: 3.5,
            api_cost_usd: 0.0625,
            retrieval_recall: 0.875,
            ..CellReport::new("musique/metis/1.00x", 7)
        }
        .knob("system", "metis")
        .metric("chunk_recall_at_8", 0.9375),
    );
    report
}

#[test]
fn rendered_schema_matches_the_committed_golden() {
    let rendered = fixture().render();
    if std::env::var("METIS_REGEN_GOLDEN").is_ok() {
        // Intentional schema change: rewrite the golden in place (run with
        // METIS_REGEN_GOLDEN=1), then review the diff and bump
        // SCHEMA_VERSION if fields changed shape.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/report_v1.json");
        std::fs::write(path, &rendered).expect("write golden");
        return;
    }
    assert_eq!(
        rendered, GOLDEN,
        "schema drift: the rendered report no longer matches \
         tests/golden/report_v1.json. If the change is intentional, rerun \
         this test with METIS_REGEN_GOLDEN=1, review the diff, bump \
         SCHEMA_VERSION on shape changes, and regenerate baselines/ (see \
         README)."
    );
}

#[test]
fn committed_golden_still_parses_to_the_fixture() {
    let parsed = BenchReport::parse(GOLDEN).expect("golden parses");
    assert_eq!(parsed, fixture(), "golden no longer decodes losslessly");
}
