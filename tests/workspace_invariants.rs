//! The workspace invariants no compiler lint can express, checked from the
//! tree itself: crate layering, NaN-safe ordering, that the per-crate
//! `clippy.toml` files still say what the root one says, and that every
//! committed baseline is a smoke-scale report of a registered bench. The
//! invariants clippy *can* express live in `clippy.toml`;
//! docs/architecture.md § "Invariants" maps every invariant to its guard.

#![expect(
    clippy::disallowed_methods,
    reason = "reads the workspace's own manifests, sources and lint configs"
)]

use std::path::{Path, PathBuf};

/// The layer order, low to high. A crate may depend only on crates of a
/// strictly lower layer, so the simulation core (`foundation` to
/// `orchestration`) can never reach up into the binaries (`app`) or the
/// benches and facade (`top`).
const LAYERS: [&str; 8] = [
    "foundation",    // metis-text
    "model",         // metis-embed, metis-llm, metis-metrics
    "runtime",       // metis-vectordb, metis-engine
    "data",          // metis-datasets
    "profiling",     // metis-profiler
    "orchestration", // metis-core
    "app",           // metis-cli
    "top",           // metis-bench, the `metis` facade
];

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Every file below `dir` (relative to the package root, where cargo runs tests), sorted.
fn walk(dir: &str) -> Vec<PathBuf> {
    let (mut files, mut dirs) = (Vec::new(), vec![PathBuf::from(dir)]);
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("dir entry").path();
            let into = if path.is_dir() { &mut dirs } else { &mut files };
            into.push(path);
        }
    }
    files.sort();
    files
}

/// Package name, declared layer and `metis-*` dependencies of one manifest.
fn manifest(path: &Path) -> (String, String, Vec<String>) {
    let (mut name, mut layer, mut deps) = (String::new(), String::new(), Vec::new());
    let (text, mut section) = (read(path), "");
    for line in text.lines().map(str::trim) {
        let (key, value) = line.split_once('=').unwrap_or((line, ""));
        let (key, value) = (key.trim(), value.trim().trim_matches('"'));
        match section {
            _ if line.starts_with('[') => section = line.trim_end_matches(']'),
            "[package" if key == "name" => name = value.to_string(),
            "[package.metadata.metis" if key == "layer" => layer = value.to_string(),
            // `metis-x.workspace = true`, `metis-x = { .. }` and a
            // `[dependencies.metis-x]` table alike.
            s if s.contains("dependencies") && !s.starts_with("[workspace") => {
                let table = s.rsplit_once("dependencies.");
                let dep = table.map_or(key, |(_, name)| name);
                deps.extend(dep.split('.').next().map(String::from));
            }
            _ => {}
        }
    }
    deps.retain(|d| d.starts_with("metis-"));
    (name, layer, deps)
}

#[test]
fn crates_depend_only_on_strictly_lower_layers() {
    let mut manifests = walk("crates");
    manifests.push(PathBuf::from("Cargo.toml"));
    manifests.retain(|p| p.ends_with("Cargo.toml"));
    let parsed: Vec<_> = manifests.iter().map(|m| manifest(m)).collect();
    let rank = |name: &str| {
        let found = parsed.iter().find(|(n, ..)| n == name);
        let (_, layer, _) = found.unwrap_or_else(|| panic!("no crates/{name} in this workspace"));
        LAYERS.iter().position(|l| l == layer).unwrap_or_else(|| {
            panic!("{name}: [package.metadata.metis] layer is \"{layer}\", not one of {LAYERS:?}")
        })
    };
    for (name, layer, deps) in &parsed {
        let own = rank(name);
        for dep in deps {
            assert!(
                rank(dep) < own,
                "{name} ({layer}) may not depend on {dep} ({}): dependencies point strictly \
                 down {LAYERS:?}",
                LAYERS[rank(dep)]
            );
        }
    }
}

/// `a.partial_cmp(b).unwrap()` panics on NaN and `.unwrap_or(Equal)` makes
/// the order intransitive; float keys are compared with `total_cmp`.
#[test]
fn no_partial_cmp_result_is_unwrapped() {
    let mut files = walk("crates");
    files.extend(walk("src"));
    files.retain(|p| p.extension().is_some_and(|e| e == "rs") && p.iter().any(|dir| dir == "src"));
    for file in files {
        // Comments and all whitespace go first, so a call chain split over
        // several lines is still seen.
        let text = read(&file);
        let mut code: String = text.lines().filter_map(|l| l.split("//").next()).collect();
        code.retain(|c| !c.is_whitespace());
        for (at, _) in code.match_indices("partial_cmp(") {
            let mut depth = 0usize;
            let close = code[at..].find(|c| {
                depth += usize::from(c == '(');
                depth -= usize::from(c == ')');
                c == ')' && depth == 0
            });
            let after = close.map_or("", |end| &code[at + end + 1..]);
            assert!(
                !after.starts_with(".unwrap") && !after.starts_with(".expect"),
                "{}: `partial_cmp(..)` is unwrapped; compare floats with `total_cmp`",
                file.display()
            );
        }
    }
}

/// Clippy reads the nearest `clippy.toml` only, so a crate's own file must
/// repeat every root entry verbatim; the two crates whose job is I/O have
/// theirs in order to drop the I/O entries.
#[test]
fn crate_clippy_configs_repeat_the_root_entries() {
    let root = read(Path::new("clippy.toml"));
    let is_entry = |line: &&str| line.starts_with("{ path");
    for conf in walk("crates").iter().filter(|p| p.ends_with("clippy.toml")) {
        let does_io =
            conf.starts_with("crates/metis-cli") || conf.starts_with("crates/metis-bench");
        let own = read(conf);
        for entry in root.lines().map(str::trim).filter(is_entry) {
            let io_entry = ["std::fs::", "std::net::", "std::process::"]
                .iter()
                .any(|p| entry.contains(p));
            assert!(
                (does_io && io_entry) || own.lines().any(|l| l.trim() == entry),
                "{} shadows the root clippy.toml but lacks its entry:\n{entry}",
                conf.display()
            );
        }
    }
}

/// CI compares each `baselines/<bench>.json` with that bench's fresh report
/// by bytes, and bytes can only say "differ". This says why before any
/// bench runs: a baseline that is not a report, is filed under another
/// experiment's name, names no bench target, or was regenerated at a scale
/// other than the `METIS_BENCH_QUERIES=8` CI's smoke step runs at.
#[test]
fn baselines_are_smoke_scale_reports_of_registered_benches() {
    let benches = read(Path::new("crates/metis-bench/Cargo.toml"));
    let is_json = |p: &PathBuf| p.extension().is_some_and(|e| e == "json");
    for path in walk("baselines").into_iter().filter(is_json) {
        let at = path.display();
        let report = metis::metrics::BenchReport::parse(&read(&path))
            .unwrap_or_else(|e| panic!("{at}: not a bench report: {e}"));
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 stem");
        assert_eq!(
            report.experiment, stem,
            "{at}: holds experiment '{}'; CI compares it with target/bench-reports/{stem}.json",
            report.experiment
        );
        assert!(
            benches.contains(&format!("[[bench]]\nname = \"{stem}\"\n")),
            "{at}: '{stem}' is not a [[bench]] target of crates/metis-bench/Cargo.toml"
        );
        let scale = report
            .knobs
            .iter()
            .find(|(k, _)| k == "METIS_BENCH_QUERIES");
        assert_eq!(
            scale.map(|(_, v)| v.as_str()),
            Some("8"),
            "{at}: regenerate with METIS_BENCH_QUERIES=8, the scale CI's smoke step runs at"
        );
    }
}
