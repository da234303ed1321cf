//! Retrieval latency model: measured search work → simulated time.
//!
//! Retrieval used to be charged as one hardcoded constant that scanned the
//! whole corpus whatever the index; now the vector database reports what
//! each search actually did ([`SearchWork`]: vectors scored, centroids
//! ranked, lists probed — full scan for flat, probed-list sizes for IVF)
//! plus the embedder's per-query feature-hash units, and this model converts
//! that work into nanoseconds on the discrete-event timeline. The constants
//! keep the paper's regime — retrieval is >100× cheaper than synthesis
//! (§2) — while making index choice, corpus scale, and probe depth visible
//! in end-to-end latency.

use metis_llm::Nanos;
use metis_vectordb::SearchWork;

/// Converts measured retrieval work into simulated nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetrievalModel {
    /// Fixed per-query overhead (query setup, top-k merge, payload fetch).
    pub base_nanos: Nanos,
    /// Cost per embedder feature-hash unit (query embedding).
    pub embed_nanos_per_unit: Nanos,
    /// Cost per corpus vector scored exactly (f32).
    pub vector_nanos: Nanos,
    /// Cost per corpus vector scored in the quantized (sq8) domain — a
    /// 1-byte-per-dim code row decoded in registers instead of a 4× wider
    /// f32 row, priced several times cheaper than
    /// [`RetrievalModel::vector_nanos`].
    pub quantized_nanos: Nanos,
    /// Cost per coarse-quantizer centroid scored (IVF only).
    pub centroid_nanos: Nanos,
    /// Cost per inverted list visited (pointer chasing; IVF only).
    pub list_nanos: Nanos,
    /// Cost per HNSW graph hop: one node expansion's pointer chase and
    /// neighbor-list walk, charged on top of the distance evals it
    /// triggers.
    pub hop_nanos: Nanos,
}

impl Default for RetrievalModel {
    fn default() -> Self {
        // The scan terms are calibrated to the old constant model (5 ms +
        // 20 µs per chunk), so a flat run lands within ~0.2 ms of its
        // pre-subsystem timing — the newly charged query-embedding term
        // (~2 units/token × 2 µs) is the only shift.
        // The sq8 and HNSW terms only bill work the new index kinds
        // report; flat and IVF runs cost exactly what they did before.
        Self {
            base_nanos: 5_000_000,
            embed_nanos_per_unit: 2_000,
            vector_nanos: 20_000,
            quantized_nanos: 4_000,
            centroid_nanos: 20_000,
            list_nanos: 5_000,
            hop_nanos: 50_000,
        }
    }
}

impl RetrievalModel {
    /// Nanoseconds for one retrieval that performed `work` index-search
    /// operations and `embed_units` of query embedding.
    pub fn nanos(&self, work: &SearchWork, embed_units: u64) -> Nanos {
        self.base_nanos
            + self.embed_nanos_per_unit * embed_units
            + self.vector_nanos * work.vectors_scored as Nanos
            + self.quantized_nanos * work.quantized_scored as Nanos
            + self.centroid_nanos * work.centroids_scored as Nanos
            + self.list_nanos * work.lists_probed as Nanos
            + self.hop_nanos * work.graph_hops as Nanos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_costs_the_base_only() {
        let m = RetrievalModel::default();
        assert_eq!(m.nanos(&SearchWork::default(), 0), m.base_nanos);
    }

    #[test]
    fn flat_scan_matches_the_old_constant_model() {
        // The pre-subsystem runner charged 5 ms + 20 µs × corpus size.
        let m = RetrievalModel::default();
        let n = 300;
        let flat = m.nanos(&SearchWork::full_scan(n), 0);
        assert_eq!(flat, 5_000_000 + 20_000 * n as Nanos);
    }

    #[test]
    fn probing_fewer_vectors_is_strictly_cheaper() {
        let m = RetrievalModel::default();
        let corpus = 1_000usize;
        let flat = m.nanos(&SearchWork::full_scan(corpus), 80);
        let ivf = m.nanos(
            &SearchWork {
                vectors_scored: corpus / 8,
                centroids_scored: 64,
                lists_probed: 8,
                ..SearchWork::default()
            },
            80,
        );
        assert!(ivf < flat, "ivf {ivf} !< flat {flat}");
    }

    #[test]
    fn hnsw_with_sq8_undercuts_the_ivf_frontier() {
        // Representative work at a 10⁶-vector corpus: IVF probes 16 of 256
        // lists (~62k exact evals); HNSW expands ~80 nodes, sq8-scores
        // ~2.5k candidates, and exact-reranks 40.
        let m = RetrievalModel::default();
        let ivf = m.nanos(
            &SearchWork {
                vectors_scored: 62_500,
                centroids_scored: 256,
                lists_probed: 16,
                ..SearchWork::default()
            },
            80,
        );
        let hnsw = m.nanos(
            &SearchWork {
                vectors_scored: 40,
                quantized_scored: 2_500,
                graph_hops: 80,
                ..SearchWork::default()
            },
            80,
        );
        assert!(
            hnsw * 10 < ivf,
            "hnsw {hnsw} should be well under ivf {ivf}"
        );
    }

    #[test]
    fn cost_is_monotone_in_every_work_component() {
        let m = RetrievalModel::default();
        let base = SearchWork {
            vectors_scored: 100,
            quantized_scored: 50,
            centroids_scored: 16,
            lists_probed: 4,
            graph_hops: 12,
        };
        let c0 = m.nanos(&base, 10);
        for grown in [
            SearchWork {
                vectors_scored: 101,
                ..base
            },
            SearchWork {
                quantized_scored: 51,
                ..base
            },
            SearchWork {
                centroids_scored: 17,
                ..base
            },
            SearchWork {
                lists_probed: 5,
                ..base
            },
            SearchWork {
                graph_hops: 13,
                ..base
            },
        ] {
            assert!(m.nanos(&grown, 10) > c0);
        }
        assert!(m.nanos(&base, 11) > c0);
    }
}
