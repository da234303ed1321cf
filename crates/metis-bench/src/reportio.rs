//! Report emission for the bench target.
//!
//! Every figure the bench target runs ends with [`emit`]: the report it
//! already printed is written as a machine-readable JSON artifact under
//! `target/bench-reports/<experiment>.json` (override the directory with
//! `METIS_BENCH_REPORT_DIR`). CI uploads these artifacts. The ones that have a file in `baselines/` must equal it byte
//! for byte; the root pin test (`tests/pins/main.rs`) checks that in
//! process and writes nothing here.

use std::path::{Path, PathBuf};

use metis_metrics::BenchReport;

/// Where reports land: `$METIS_BENCH_REPORT_DIR`, else `bench-reports`
/// under `$CARGO_TARGET_DIR`, else under the workspace `target`.
fn report_dir() -> PathBuf {
    let var = |name| std::env::var(name).ok();
    resolve_report_dir(
        var("METIS_BENCH_REPORT_DIR").as_deref(),
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

/// Writes `report` to `report_dir()/<experiment>.json` and prints the
/// path.
///
/// # Panics
///
/// Panics when the directory or file cannot be written — a bench that
/// silently loses its artifact would upload nothing for CI to keep.
pub fn emit(report: &BenchReport) {
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
}
