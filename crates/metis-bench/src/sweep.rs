//! The generic parallel sweep driver every figure runs on.
//!
//! A [`Sweep`] is a named list of cells — one closure per (config × seed ×
//! load) point — executed across [`std::thread::scope`] workers. Two
//! properties make its output fit for committed baselines:
//!
//! * **Deterministic per-cell seeds** — each cell's seed is derived from
//!   [`RUN_SEED`] and the cell *id* ([`cell_seed`]), not from
//!   insertion order or thread timing, so inserting a new cell never
//!   reshuffles the seeds of existing ones.
//! * **Deterministic ordering** — results come back in insertion order
//!   regardless of which worker finished first.
//!
//! Cells usually produce a [`RunResult`](metis_core::RunResult) (lowered to
//! a report cell via `RunResult::cell_report`) but the driver is generic:
//! micro-benches and profiler sweeps return their own cell types.

use crate::RUN_SEED;

/// FNV-1a over a cell id — the stable id → seed-stream mapping.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates the base-seed/id mix.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic seed a cell named `id` runs with under `base`.
pub(crate) fn cell_seed(base: u64, id: &str) -> u64 {
    splitmix(base ^ fnv1a(id))
}

/// One executed cell: its id, the seed it ran with, and what it produced.
#[derive(Clone, Debug)]
pub(crate) struct SweepCell<T> {
    /// The cell id (unique within the sweep).
    pub(crate) id: String,
    /// The seed the cell's closure received.
    pub(crate) seed: u64,
    /// The cell's output.
    pub(crate) value: T,
}

struct Planned<'env, T> {
    id: String,
    /// Explicit seed (paired cells); `None` derives from the id.
    seed: Option<u64>,
    run: Box<dyn FnOnce(u64) -> T + Send + 'env>,
}

/// A named set of cells executed in parallel with deterministic seeds and
/// output order. See the [module docs](self) for the guarantees.
pub(crate) struct Sweep<'env, T> {
    name: String,
    cells: Vec<Planned<'env, T>>,
}

impl<'env, T: Send> Sweep<'env, T> {
    /// An empty sweep; `name` labels its duplicate-id panic.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            cells: Vec::new(),
        }
    }

    /// Adds one cell. `f` receives the cell's derived seed.
    ///
    /// # Panics
    ///
    /// Panics if `id` repeats within the sweep — duplicate ids would make
    /// baseline comparison ambiguous.
    pub(crate) fn cell(
        mut self,
        id: impl Into<String>,
        f: impl FnOnce(u64) -> T + Send + 'env,
    ) -> Self {
        self.push(id.into(), None, Box::new(f));
        self
    }

    /// Adds one cell that runs under an *explicit* seed instead of an
    /// id-derived one. Use this for paired comparisons: cells that are
    /// read against each other (systems at the same load, policies on the
    /// same burst) must share one seed so they see the same workload
    /// realization — common random numbers — and the difference measured
    /// is the system's, not the arrival sequence's. The recorded
    /// [`SweepCell::seed`] is always the seed the cell actually ran with.
    ///
    /// # Panics
    ///
    /// Panics if `id` repeats within the sweep.
    pub(crate) fn cell_with_seed(
        mut self,
        id: impl Into<String>,
        seed: u64,
        f: impl FnOnce(u64) -> T + Send + 'env,
    ) -> Self {
        self.push(id.into(), Some(seed), Box::new(f));
        self
    }

    fn push(
        &mut self,
        id: String,
        seed: Option<u64>,
        run: Box<dyn FnOnce(u64) -> T + Send + 'env>,
    ) {
        assert!(
            self.cells.iter().all(|c| c.id != id),
            "sweep '{}': duplicate cell id '{id}'",
            self.name
        );
        self.cells.push(Planned { id, seed, run });
    }

    /// Runs every cell on its own scoped thread; results return in
    /// insertion order with the seeds they ran under. A cell that panics
    /// re-raises its own panic here, once every other cell has finished.
    pub(crate) fn run(self) -> Vec<SweepCell<T>> {
        std::thread::scope(|s| {
            let workers: Vec<_> = self
                .cells
                .into_iter()
                .map(|Planned { id, seed, run }| {
                    let seed = seed.unwrap_or_else(|| cell_seed(RUN_SEED, &id));
                    (id, seed, s.spawn(move || run(seed)))
                })
                .collect();
            workers
                .into_iter()
                .map(|(id, seed, worker)| {
                    let value = worker
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                    SweepCell { id, seed, value }
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_insertion_order() {
        // A channel rendezvous (not a timed sleep) forces the first-inserted
        // cell to finish strictly after the second: "slow" blocks until
        // "fast" has produced its value, so insertion order is provably not
        // completion order.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let sweep = Sweep::new("t")
            .cell("slow", move |_| {
                rx.recv().expect("fast cell signals before finishing");
                1u32
            })
            .cell("fast", move |_| {
                tx.send(()).expect("slow cell is waiting");
                2u32
            });
        let out = sweep.run();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].id.as_str(), out[0].value), ("slow", 1));
        assert_eq!((out[1].id.as_str(), out[1].value), ("fast", 2));
    }

    #[test]
    fn seeds_depend_on_id_not_insertion_order() {
        let run = |ids: &[&str]| -> Vec<(String, u64)> {
            let mut s = Sweep::new("t");
            for &id in ids {
                s = s.cell(id, |seed| seed);
            }
            s.run().into_iter().map(|c| (c.id, c.value)).collect()
        };
        let a = run(&["x", "y"]);
        let b = run(&["y", "z", "x"]);
        let seed_of = |cells: &[(String, u64)], id: &str| {
            cells.iter().find(|(i, _)| i == id).map(|(_, s)| *s)
        };
        assert_eq!(seed_of(&a, "x"), seed_of(&b, "x"), "x keeps its seed");
        assert_eq!(seed_of(&a, "y"), seed_of(&b, "y"), "y keeps its seed");
        assert_ne!(seed_of(&a, "x"), seed_of(&a, "y"), "distinct per id");
        // And the closure receives exactly the advertised derivation.
        assert_eq!(seed_of(&a, "x"), Some(cell_seed(crate::RUN_SEED, "x")));
    }

    #[test]
    fn base_seed_shifts_every_cell() {
        let a = cell_seed(1, "cell");
        let b = cell_seed(2, "cell");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "duplicate cell id")]
    fn duplicate_ids_are_rejected() {
        let _ = Sweep::new("t").cell("a", |_| 0u8).cell("a", |_| 1u8);
    }

    #[test]
    fn explicit_seeds_pair_cells_and_are_recorded_truthfully() {
        let out = Sweep::new("t")
            .cell_with_seed("sys_a", 42, |seed| seed)
            .cell_with_seed("sys_b", 42, |seed| seed)
            .cell("unpaired", |seed| seed)
            .run();
        assert_eq!(out[0].value, 42, "closure receives the explicit seed");
        assert_eq!(out[1].value, 42, "paired cells share the realization");
        assert_eq!(out[0].seed, 42, "recorded seed is the one used");
        assert_eq!(out[2].seed, out[2].value, "derived cells record theirs");
        assert_ne!(out[2].seed, 42);
    }

    #[test]
    #[should_panic(expected = "the cell's own message")]
    fn a_panicking_cell_re_raises_its_own_payload() {
        let _ = Sweep::new("t")
            .cell("fine", |_| 0u8)
            .cell("broken", |_| panic!("the cell's own message"))
            .run();
    }
}
