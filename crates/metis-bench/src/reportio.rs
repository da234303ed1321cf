//! Report assembly and emission for bench targets.
//!
//! Every bench target ends with [`emit`]: the human-readable table it
//! already printed is joined by a machine-readable JSON artifact under
//! `target/bench-reports/<experiment>.json` (override the directory with
//! `METIS_BENCH_REPORT_DIR`). CI uploads these artifacts and requires the
//! five that have a file in `baselines/` to equal it byte for byte.

use std::path::{Path, PathBuf};

use metis_metrics::BenchReport;

use crate::{bench_queries_override, DATASET_SEED, RUN_SEED};

/// Environment variable overriding the report output directory.
pub const REPORT_DIR_ENV: &str = "METIS_BENCH_REPORT_DIR";

/// Where reports land: `$METIS_BENCH_REPORT_DIR`, else `bench-reports`
/// under `$CARGO_TARGET_DIR`, else under the workspace `target`.
pub fn report_dir() -> PathBuf {
    let var = |name| std::env::var(name).ok();
    resolve_report_dir(
        var(REPORT_DIR_ENV).as_deref(),
        var("CARGO_TARGET_DIR").as_deref(),
    )
}

/// [`report_dir`] as a function of its two variables. A relative target dir
/// is anchored at the workspace root (found from this crate's manifest dir),
/// not at the cwd: cargo builds into it relative to where it was invoked but
/// runs a bench binary from the package root, so the cwd is the one place a
/// `CARGO_TARGET_DIR=tgt` build never wrote to.
fn resolve_report_dir(report_dir: Option<&str>, target_dir: Option<&str>) -> PathBuf {
    if let Some(dir) = report_dir {
        return PathBuf::from(dir);
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(target_dir.unwrap_or("target"))
        .join("bench-reports")
}

/// Starts a report for one bench target, stamped with the bench-standard
/// seeds and the effective `METIS_BENCH_QUERIES` override (so a smoke-run
/// report can never be mistaken for a full-scale one).
pub fn new_report(experiment: &str, title: &str) -> BenchReport {
    let mut report = BenchReport::new(experiment, title);
    report.dataset_seed = DATASET_SEED;
    report.run_seed = RUN_SEED;
    if let Some(q) = bench_queries_override() {
        report = report.knob("METIS_BENCH_QUERIES", q);
    }
    report
}

/// Writes `report` to `report_dir()/<experiment>.json` and prints the
/// path. Returns the written path.
///
/// # Panics
///
/// Panics when the directory or file cannot be written — a bench that
/// silently loses its artifact would defeat CI's baseline comparison.
pub fn emit(report: &BenchReport) -> PathBuf {
    let dir = report_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    let path = dir.join(format!("{}.json", report.experiment));
    std::fs::write(&path, report.render())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    let path = path.canonicalize().unwrap_or(path);
    println!(
        "\nreport: {} ({} cells)",
        path.display(),
        report.cells.len()
    );
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_dir_follows_the_override_then_the_target_dir() {
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(
            resolve_report_dir(None, None),
            workspace.join("target/bench-reports")
        );
        // Cargo built into `<workspace>/tgt`; the cwd is `crates/metis-bench`.
        assert_eq!(
            resolve_report_dir(None, Some("tgt")),
            workspace.join("tgt/bench-reports")
        );
        assert_eq!(
            resolve_report_dir(None, Some("/abs/tgt")),
            Path::new("/abs/tgt/bench-reports")
        );
        assert_eq!(
            resolve_report_dir(Some("out"), Some("tgt")),
            Path::new("out")
        );
    }

    #[test]
    fn emitted_reports_parse_back() {
        let dir = std::env::temp_dir().join(format!("metis-report-test-{}", std::process::id()));
        // Scope the override to this test via a direct write (env vars are
        // process-global; the writer takes the dir from the path instead).
        let mut report = new_report("emit_unit_test", "t");
        report.cells.push(metis_metrics::CellReport::new("only", 1));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(format!("{}.json", report.experiment));
        std::fs::write(&path, report.render()).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        let parsed = BenchReport::parse(&text).expect("parse");
        assert_eq!(parsed, report);
        assert_eq!(parsed.dataset_seed, DATASET_SEED);
        assert_eq!(parsed.run_seed, RUN_SEED);
        std::fs::remove_dir_all(&dir).ok();
    }
}
