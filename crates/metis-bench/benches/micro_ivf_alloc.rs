//! Allocation micro-bench for the IVF and HNSW hot paths.
//!
//! `IvfIndex::search_counted` ranks every centroid and walks the probed
//! lists through per-index scratch buffers (hoisted behind a mutex), so
//! the only allocation a search performs is the returned hit vector —
//! independent of corpus size and probe depth. `HnswIndex` keeps its
//! visited stamps, frontier and scored pool in a per-thread scratch, so
//! the same holds at any `ef`. This bench *proves* both with a counting
//! global allocator: it measures allocations per search at shallow and
//! deep settings and fails if the count is not the same small constant,
//! then times the IVF search under the vendored criterion harness.
//!
//! Runs in its own bench binary because a `#[global_allocator]` is
//! process-wide; the timing numbers are wall-clock and stay out of the CI
//! perf-gate baselines (like `micro`), but the allocation assertions run —
//! and gate — under CI's bench-smoke pass.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, Criterion};
use metis_bench::{bench_queries, emit, new_report, DATASET_SEED, RUN_SEED};
use metis_datasets::{AnnConfig, AnnCorpus};
use metis_metrics::CellReport;
use metis_vectordb::{HnswConfig, HnswIndex, IvfConfig, IvfIndex, Quantization, VectorIndex};

/// [`System`] plus a relaxed allocation counter.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations per call of `search` across `queries`, after a warm-up
/// pass has grown the scratch buffers to steady-state capacity.
fn allocs_per_search<T>(queries: &[Vec<f32>], search: impl Fn(&[f32]) -> T) -> f64 {
    for q in queries {
        black_box(search(q));
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for q in queries {
        black_box(search(q));
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before) as f64 / queries.len() as f64
}

fn main() {
    println!("=== micro_ivf_alloc — IVF and HNSW searches allocate only what they return ===");
    let corpus = AnnCorpus::generate(AnnConfig {
        num_queries: bench_queries(64).max(2),
        ..AnnConfig::at_scale(20_000, DATASET_SEED)
    });
    let queries: Vec<Vec<f32>> = corpus.queries.iter().map(|q| q.vector.clone()).collect();
    let k = corpus.config.k;
    let build = |nprobe: usize| {
        IvfIndex::build(
            corpus.config.dim,
            IvfConfig {
                nlist: 64,
                nprobe,
                train_iters: 8,
            },
            &corpus.items,
        )
    };

    // The allocation profile must not scale with probe depth: scratch is
    // reused, and only the returned hit vector is allocated per call.
    let shallow = build(2);
    let deep = build(32);
    let shallow_allocs = allocs_per_search(&queries, |q| shallow.search(q, k));
    let deep_allocs = allocs_per_search(&queries, |q| deep.search(q, k));
    println!("  allocations/search: nprobe=2 → {shallow_allocs:.2}, nprobe=32 → {deep_allocs:.2}");
    assert!(
        shallow_allocs <= 2.0 && deep_allocs <= 2.0,
        "IVF search must allocate at most the returned hit vector \
         (got {shallow_allocs:.2} / {deep_allocs:.2} per search)"
    );
    assert!(
        (shallow_allocs - deep_allocs).abs() < 0.5,
        "allocations per search must not scale with probe depth \
         (nprobe=2 → {shallow_allocs:.2}, nprobe=32 → {deep_allocs:.2})"
    );

    // Same contract for the HNSW beam: visited stamps, frontier and scored
    // pool are per-thread scratch, so the budget `ef` moves the work and
    // not the allocation count.
    let hnsw = HnswIndex::build(
        corpus.config.dim,
        HnswConfig::default(),
        Quantization::sq8(),
        &corpus.items[..corpus.items.len().min(4_000)],
    );
    let narrow_allocs = allocs_per_search(&queries, |q| hnsw.search_with_ef(q, k, 16));
    let wide_allocs = allocs_per_search(&queries, |q| hnsw.search_with_ef(q, k, 192));
    println!("  allocations/search: hnsw ef=16 → {narrow_allocs:.2}, ef=192 → {wide_allocs:.2}");
    assert!(
        narrow_allocs == wide_allocs && wide_allocs <= 3.0,
        "HNSW search must allocate the returned hit vector plus O(1), at any ef \
         (ef=16 → {narrow_allocs:.2}, ef=192 → {wide_allocs:.2})"
    );

    let mut c = Criterion::default().sample_size(40);
    c.bench_function("vectordb/ivf_search_20k_nprobe8", |b| {
        let idx = build(8);
        let mut qi = 0usize;
        b.iter(|| {
            qi = (qi + 1) % queries.len();
            black_box(idx.search(&queries[qi], k))
        })
    });

    let mut report = new_report(
        "micro_ivf_alloc",
        "IVF search allocation profile and wall-clock timing",
    );
    let mut cell = CellReport::new("ivf_search_20k", RUN_SEED)
        .metric("allocs_per_search_nprobe2", shallow_allocs)
        .metric("allocs_per_search_nprobe32", deep_allocs)
        .metric("hnsw_allocs_per_search_ef16", narrow_allocs)
        .metric("hnsw_allocs_per_search_ef192", wide_allocs);
    for (name, median_ns) in c.results() {
        println!("  {name}: median {median_ns:.0} ns/iter");
        cell = cell.metric(format!("{name}/median_ns"), *median_ns);
    }
    report.cells.push(cell);
    emit(&report);
}
