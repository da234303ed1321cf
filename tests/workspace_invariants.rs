//! The workspace invariants no compiler lint can express, checked from the
//! tree itself: crate layering, NaN-safe ordering, that the per-crate
//! `clippy.toml` files still say what the root one says, and that every
//! name a library crate exports has a reader outside that crate. The
//! invariants clippy *can* express live in `clippy.toml`;
//! docs/architecture.md § "Invariants" maps every invariant to its guard.

#![expect(
    clippy::disallowed_methods,
    reason = "reads the workspace's own manifests, sources and lint configs"
)]

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The layer order, low to high. A crate may depend only on crates of a
/// strictly lower layer, so the simulation core (`foundation` to
/// `orchestration`) can never reach up into the binary and the benches
/// (`app`) or the facade (`top`), whose pin test runs the benches.
const LAYERS: [&str; 8] = [
    "foundation",    // metis-text
    "model",         // metis-embed, metis-llm, metis-metrics
    "runtime",       // metis-vectordb, metis-engine
    "data",          // metis-datasets
    "profiling",     // metis-profiler
    "orchestration", // metis-core
    "app",           // metis-cli, metis-bench
    "top",           // the `metis` facade
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

/// The nine library crates: their root `pub use` lists *are* the API.
const LIBRARY_CRATES: [&str; 9] = [
    "text", "embed", "vectordb", "llm", "engine", "datasets", "profiler", "metrics", "core",
];

/// Exported names no consumer spells, kept because an exported item's
/// signature does: (name, the export whose signature needs it).
const SIGNATURE_ONLY: &[(&str, &str)] = &[
    ("GenOutput", "GenerationModel"),
    ("SummaryOutput", "GenerationModel"),
    ("GpuSpec", "GpuCluster"),
    ("AnnQuery", "AnnCorpus"),
    ("Table1Row", "Dataset"),
    ("GenParams", "DatasetKind"),
    ("QueryId", "QuerySpec"),
    ("ProfilerOutput", "LlmProfiler"),
    ("JsonError", "Json"),
    ("SchemaError", "BenchReport"),
    ("ScaleAction", "Autoscaler"),
    ("Controller", "SystemKind"),
    ("Decision", "choose_config"),
    ("QueryResult", "RunResult"),
    ("StageBreakdown", "QueryResult"),
];

/// The identifiers on the non-comment lines of `text`.
fn identifiers(text: &str) -> BTreeSet<&str> {
    let code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
    code.flat_map(|l| l.split(|c: char| !c.is_alphanumeric() && c != '_'))
        .collect()
}

/// A crate's API is its root `pub use` lists and nothing else (modules are
/// private, so every item has one public path), and every name on them is
/// there for someone: spelled by a `.rs` file outside the crate's `src/`, or
/// listed in [`SIGNATURE_ONLY`]. An export nobody reads is `pub(crate)`
/// waiting to happen — and once it is, `dead_code` can see it.
#[test]
fn exports_keep_their_readers() {
    let mut sources: Vec<PathBuf> = ["crates", "src", "tests", "examples", "perf/src"]
        .iter()
        .flat_map(|dir| walk(dir))
        .collect();
    sources.retain(|p| p.extension().is_some_and(|e| e == "rs") && !p.ends_with(file!()));
    let texts: Vec<String> = sources.iter().map(|p| read(p)).collect();
    let readers: Vec<(&PathBuf, BTreeSet<&str>)> = sources
        .iter()
        .zip(texts.iter().map(|t| identifiers(t)))
        .collect();
    let mut signature_only: BTreeSet<_> = SIGNATURE_ONLY.iter().collect();
    for krate in LIBRARY_CRATES {
        let src = PathBuf::from(format!("crates/metis-{krate}/src"));
        let lib = read(&src.join("lib.rs"));
        assert!(
            lib.contains("\n#![warn(unreachable_pub)]\n"),
            "metis-{krate}: lib.rs must carry #![warn(unreachable_pub)]"
        );
        let public_modules: Vec<&str> = lib.lines().filter(|l| l.starts_with("pub mod ")).collect();
        let allowed: &[&str] = if krate == "core" {
            &["pub mod synthesis;"]
        } else {
            &[]
        };
        assert_eq!(
            public_modules, allowed,
            "metis-{krate}: modules are private; the crate root re-exports the API"
        );
        // `pub use a::b::{X, Y as Z};` → X, Z.
        let code: String = lib.lines().filter(|l| !l.starts_with("//")).collect();
        let exports: Vec<&str> = code
            .split(';')
            .filter_map(|stmt| stmt.trim().strip_prefix("pub use "))
            .flat_map(|path| path.rsplit_once("::").expect("a path").1.split(','))
            .map(|name| name.rsplit(" as ").next().expect("a name"))
            .map(|name| name.trim_matches(|c: char| c == '{' || c == '}' || c.is_whitespace()))
            .filter(|name| !name.is_empty())
            .collect();
        assert!(!exports.is_empty(), "metis-{krate}: no `pub use` found");
        for name in &exports {
            let read_outside = readers
                .iter()
                .any(|(path, idents)| !path.starts_with(&src) && idents.contains(name));
            let row = SIGNATURE_ONLY.iter().find(|(n, _)| n == name);
            match row {
                None => assert!(
                    read_outside,
                    "metis-{krate} exports `{name}`, which nothing outside {} names: make it \
                     pub(crate), or add a SIGNATURE_ONLY row naming the export that needs it",
                    src.display()
                ),
                Some(row @ (_, needs)) => {
                    assert!(
                        !read_outside && exports.contains(needs),
                        "stale SIGNATURE_ONLY row {row:?}: `{name}` has a reader now, or \
                         metis-{krate} no longer exports `{needs}`"
                    );
                    signature_only.remove(row);
                }
            }
        }
    }
    assert!(
        signature_only.is_empty(),
        "stale SIGNATURE_ONLY rows, no crate exports the name: {signature_only:?}"
    );
}
