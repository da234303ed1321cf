//! The figure registry's own invariants, which used to be guarded from
//! outside the compiler: registration, the freshness of the handbook and of
//! the fidelity page, and the bench target's argument handling. The perf gate, every figure's
//! smoke-scale report held to `baselines/`, is the root pin test
//! (`tests/pins/main.rs`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use metis_bench::{select, FIGURES};
use metis_metrics::Json;

fn workspace() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
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
fn the_fidelity_page_gives_every_pinned_claim_its_verdict() {
    let golden = read(&workspace().join("tests/golden/claims.json"));
    let claims = Json::parse(&golden).expect("claims.json parses");
    let fidelity = read(&workspace().join("docs/fidelity.md"));
    for claim in claims.as_arr().expect("an array of claims") {
        let field = |name| {
            claim
                .get(name)
                .and_then(Json::as_str)
                .expect("a string field")
        };
        let (id, verdict) = (field("id"), field("verdict"));
        let row = fidelity
            .lines()
            .find(|l| l.starts_with(&format!("| `{id}` |")))
            .unwrap_or_else(|| panic!("docs/fidelity.md has no row for `{id}`"));
        assert!(
            row.split('|').any(|cell| cell.trim() == verdict),
            "docs/fidelity.md: the row of `{id}` does not say {verdict}"
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
