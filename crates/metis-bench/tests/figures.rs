//! The perf gate and the figure registry's own invariants.
//!
//! The gate: each figure with a `baselines/<name>.json` is run here, in
//! process, at the smoke scale CI benches at, and its rendered report must
//! equal that file byte for byte. Every other deterministic figure is
//! witnessed by one FNV-1a digest of its smoke-scale report in
//! `baselines/digests.txt`. The rest replaces what used to be guarded from
//! outside the compiler: registration, the handbook's freshness, and the
//! bench target's argument handling.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use metis_bench::{select, FIGURES};

/// The figures pinned by a committed baseline. A baseline that is deleted
/// or renamed fails the gate for its figure; a new one must be listed here.
const GATED: [&str; 5] = [
    "fig11_throughput",
    "fig_ann_scale",
    "fig_autoscale",
    "fig_preempt",
    "fig_retrieval",
];
/// The scale every baseline was generated at (`METIS_BENCH_QUERIES=8`).
const SMOKE: usize = 8;

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn gated_figures_equal_their_baselines() {
    for figure in select(GATED.map(String::from)).expect("gated figures are registered") {
        let name = figure.name;
        let baseline = read(&workspace().join(format!("baselines/{name}.json")));
        let fresh = figure.report(Some(SMOKE)).render();
        if fresh == baseline {
            continue;
        }
        // Reports render one value per line, so the moved lines name the
        // moved fields.
        let moved: Vec<String> = baseline
            .lines()
            .zip(fresh.lines())
            .enumerate()
            .filter(|(_, (was, is))| was != is)
            .take(12)
            .map(|(i, (was, is))| format!("  line {}:\n    - {was}\n    + {is}", i + 1))
            .collect();
        panic!(
            "{name} moved from baselines/{name}.json ({} lines, was {}); first moved lines:\n{}\n\
             explain every moved number in the PR, then regenerate with\n  \
             METIS_BENCH_QUERIES={SMOKE} METIS_BENCH_REPORT_DIR=$PWD/baselines \
             cargo bench -p metis-bench -- {name}",
            fresh.lines().count(),
            baseline.lines().count(),
            moved.join("\n")
        );
    }
}

/// FNV-1a, 64-bit, over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The witness of the figures that have no baseline: one `name digest` line
/// per figure, in table order, over its smoke-scale report. Every row of
/// [`FIGURES`] is gated or digested, so a figure can never move unread.
/// Regenerate, on an intentional change only, with
/// `METIS_REGEN_GOLDEN=1 cargo test -p metis-bench --test figures`.
#[test]
fn ungated_figures_equal_their_digests() {
    let mut fresh = String::new();
    for figure in FIGURES {
        let name = figure.name;
        if GATED.contains(&name) {
            continue;
        }
        let digest = fnv1a64(figure.report(Some(SMOKE)).render().as_bytes());
        writeln!(fresh, "{name} {digest:016x}").expect("write to String");
    }
    let path = workspace().join("baselines/digests.txt");
    if std::env::var("METIS_REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &fresh).expect("write baselines/digests.txt");
        return;
    }
    let committed = read(&path);
    let moved: Vec<&str> = fresh
        .lines()
        .filter(|line| !committed.lines().any(|c| c == *line))
        .collect();
    assert!(
        fresh == committed,
        "baselines/digests.txt does not witness these smoke-scale reports:\n  {}\n\
         explain every moved figure in the PR, then regenerate with\n  \
         METIS_REGEN_GOLDEN=1 cargo test -p metis-bench --test figures",
        moved.join("\n  ")
    );
}

#[test]
fn the_baselines_are_exactly_the_gated_figures() {
    let committed: BTreeSet<String> = std::fs::read_dir(workspace().join("baselines"))
        .expect("baselines/ exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            path.file_stem()
                .expect("a stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let gated: BTreeSet<String> = GATED.map(String::from).into();
    assert_eq!(committed, gated, "baselines/*.json vs GATED");
    select(committed).expect("every baseline names a figure");
}

#[test]
fn figure_names_are_unique_and_name_their_modules() {
    let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names.len(), FIGURES.len(), "a figure name repeats");
    for name in names {
        let module = format!("crates/metis-bench/src/figures/{name}.rs");
        assert!(
            workspace().join(&module).is_file(),
            "figure '{name}' is not named after its module: no {module}"
        );
    }
}

#[test]
fn the_handbook_lists_every_figure_with_its_full_scale() {
    let handbook = read(&workspace().join("docs/benchmarks.md"));
    for figure in FIGURES {
        let (name, queries) = (figure.name, figure.queries.to_string());
        let row = handbook
            .lines()
            .find(|l| l.starts_with(&format!("| `{name}` |")))
            .unwrap_or_else(|| panic!("docs/benchmarks.md has no table row for `{name}`"));
        assert!(
            row.split('|')
                .any(|cell| cell.split_whitespace().next() == Some(&queries)),
            "docs/benchmarks.md: the row of `{name}` does not give its full scale, {queries}"
        );
    }
}

#[test]
fn arguments_select_figures_by_name_in_order() {
    let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
    let names = |list: &[&str]| -> Result<Vec<&str>, String> {
        Ok(select(args(list))?.iter().map(|f| f.name).collect())
    };
    let all: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names(&[]), Ok(all.clone()));
    // Cargo appends `--bench` to whatever follows `--`.
    assert_eq!(names(&["--bench"]), Ok(all));
    assert_eq!(
        names(&["fig19_low_load", "fig10_overall", "--bench"]),
        Ok(vec!["fig19_low_load", "fig10_overall"])
    );
    let err = names(&["fig10_overall", "nonsense"]).expect_err("an unknown name is an error");
    assert!(err.contains("'nonsense'"), "{err}");
    for figure in FIGURES {
        assert!(err.contains(figure.name), "{err} omits {}", figure.name);
    }
}
