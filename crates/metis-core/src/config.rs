//! RAG configuration knobs and configuration spaces (§2).

/// How retrieved chunks are synthesized into an answer (Fig. 3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SynthesisMethod {
    /// Answer from each chunk separately; keep the most confident answer.
    /// Cheapest, but cannot reason across chunks.
    MapRerank,
    /// Concatenate all chunks into one prompt. Middle ground; suffers
    /// lost-in-the-middle on long inputs.
    Stuff,
    /// Summarize each chunk (to `intermediate_length` tokens), then answer
    /// over the summaries. Most compute, best at denoising long contexts.
    MapReduce,
}

impl SynthesisMethod {
    /// All methods, cheapest first.
    pub fn all() -> [SynthesisMethod; 3] {
        [
            SynthesisMethod::MapRerank,
            SynthesisMethod::Stuff,
            SynthesisMethod::MapReduce,
        ]
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            SynthesisMethod::MapRerank => "map_rerank",
            SynthesisMethod::Stuff => "stuff",
            SynthesisMethod::MapReduce => "map_reduce",
        }
    }
}

/// One concrete RAG configuration (the paper's three knobs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RagConfig {
    /// How many chunks to retrieve (knob 1).
    pub num_chunks: u32,
    /// How to synthesize (knob 2).
    pub synthesis: SynthesisMethod,
    /// Summary length for `map_reduce` (knob 3; ignored otherwise).
    pub intermediate_length: u32,
}

impl RagConfig {
    /// A `stuff` configuration.
    pub fn stuff(num_chunks: u32) -> Self {
        Self {
            num_chunks,
            synthesis: SynthesisMethod::Stuff,
            intermediate_length: 0,
        }
    }

    /// A `map_rerank` configuration.
    pub fn map_rerank(num_chunks: u32) -> Self {
        Self {
            num_chunks,
            synthesis: SynthesisMethod::MapRerank,
            intermediate_length: 0,
        }
    }

    /// A `map_reduce` configuration.
    pub fn map_reduce(num_chunks: u32, intermediate_length: u32) -> Self {
        Self {
            num_chunks,
            synthesis: SynthesisMethod::MapReduce,
            intermediate_length,
        }
    }

    /// The paper's golden configuration for profiler feedback (§5):
    /// `map_reduce` with 30 chunks and 300-token summaries.
    pub fn golden() -> Self {
        Self::map_reduce(30, 300)
    }

    /// The number of chunks this configuration actually consumes against
    /// `available` chunks (a corpus size or a retrieval result length): at
    /// least one whenever anything is available, never more than requested
    /// or available. This is the *single* clamp shared by the runner's
    /// engine-timed retrieval and the synthesis quality path — both must
    /// call it so the two chunk counts can never drift apart.
    pub fn effective_chunks(&self, available: usize) -> usize {
        (self.num_chunks.max(1) as usize).min(available)
    }

    /// Short display form, e.g. `stuff(k=8)` or `map_reduce(k=8,l=100)`.
    pub fn label(&self) -> String {
        match self.synthesis {
            SynthesisMethod::MapReduce => format!(
                "map_reduce(k={},l={})",
                self.num_chunks, self.intermediate_length
            ),
            m => format!("{}(k={})", m.name(), self.num_chunks),
        }
    }
}

/// The pruned, per-query configuration space produced by Algorithm 1.
#[derive(Clone, Debug, PartialEq)]
pub struct PrunedSpace {
    /// Candidate synthesis methods.
    pub methods: Vec<SynthesisMethod>,
    /// Inclusive `num_chunks` range (`[n, 3n]` from the profile).
    pub num_chunks: (u32, u32),
    /// Inclusive `intermediate_length` range (profiler's summary range).
    pub intermediate_length: (u32, u32),
}

impl PrunedSpace {
    /// Number of configurations in the pruned space.
    pub fn size(&self) -> u64 {
        let chunks = u64::from(self.num_chunks.1 - self.num_chunks.0 + 1);
        let lens = u64::from(self.intermediate_length.1 - self.intermediate_length.0 + 1);
        self.methods
            .iter()
            .map(|m| match m {
                SynthesisMethod::MapReduce => chunks * lens,
                _ => chunks,
            })
            .sum()
    }

    /// Whether `config` lies inside this space.
    pub fn contains(&self, config: &RagConfig) -> bool {
        self.methods.contains(&config.synthesis)
            && (self.num_chunks.0..=self.num_chunks.1).contains(&config.num_chunks)
            && (config.synthesis != SynthesisMethod::MapReduce
                || (self.intermediate_length.0..=self.intermediate_length.1)
                    .contains(&config.intermediate_length))
    }

    /// Enumerates representative configurations: every method × every chunk
    /// count, with `intermediate_length` sampled at the range edges and
    /// midpoint for `map_reduce` (full enumeration of lengths is never
    /// needed — demand is monotone in the length).
    pub fn candidates(&self) -> Vec<RagConfig> {
        let mut out = Vec::new();
        let (clo, chi) = self.num_chunks;
        let (llo, lhi) = self.intermediate_length;
        let lmid = (llo + lhi) / 2;
        for &m in &self.methods {
            for k in clo..=chi {
                match m {
                    SynthesisMethod::MapReduce => {
                        for l in [llo, lmid, lhi] {
                            let cfg = RagConfig::map_reduce(k, l);
                            if !out.contains(&cfg) {
                                out.push(cfg);
                            }
                        }
                    }
                    SynthesisMethod::Stuff => out.push(RagConfig::stuff(k)),
                    SynthesisMethod::MapRerank => out.push(RagConfig::map_rerank(k)),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_space_is_50_to_100x_smaller() {
        // A typical profile: pieces = 3 → chunks 3..9, summaries 20..80.
        let pruned = PrunedSpace {
            methods: vec![SynthesisMethod::Stuff, SynthesisMethod::MapReduce],
            num_chunks: (3, 9),
            intermediate_length: (20, 80),
        };
        // The full space, 35 chunk counts × (2 + 300 lengths): §3's
        // "prohibitive" scale.
        let full = 35 * 2 + 35 * 300;
        let ratio = f64::from(full) / pruned.size() as f64;
        assert!(ratio > 20.0, "reduction only {ratio:.0}x");
    }

    #[test]
    fn contains_respects_method_and_ranges() {
        let p = PrunedSpace {
            methods: vec![SynthesisMethod::Stuff],
            num_chunks: (2, 6),
            intermediate_length: (10, 50),
        };
        assert!(p.contains(&RagConfig::stuff(4)));
        assert!(!p.contains(&RagConfig::stuff(7)));
        assert!(!p.contains(&RagConfig::map_rerank(4)));
    }

    #[test]
    fn intermediate_length_only_constrains_map_reduce() {
        let p = PrunedSpace {
            methods: vec![SynthesisMethod::Stuff, SynthesisMethod::MapReduce],
            num_chunks: (1, 5),
            intermediate_length: (10, 20),
        };
        assert!(p.contains(&RagConfig::stuff(3))); // ilen 0 irrelevant.
        assert!(!p.contains(&RagConfig::map_reduce(3, 50)));
        assert!(p.contains(&RagConfig::map_reduce(3, 15)));
    }

    #[test]
    fn candidates_cover_methods_and_chunk_range() {
        let p = PrunedSpace {
            methods: vec![SynthesisMethod::Stuff, SynthesisMethod::MapReduce],
            num_chunks: (2, 4),
            intermediate_length: (10, 30),
        };
        let c = p.candidates();
        // 3 chunk values × (1 stuff + 3 map_reduce lengths) = 12.
        assert_eq!(c.len(), 12);
        assert!(c.iter().all(|cfg| p.contains(cfg)));
    }

    #[test]
    fn golden_config_matches_section5() {
        let g = RagConfig::golden();
        assert_eq!(g.synthesis, SynthesisMethod::MapReduce);
        assert_eq!(g.num_chunks, 30);
        assert_eq!(g.intermediate_length, 300);
    }

    #[test]
    fn effective_chunks_clamps_once_for_both_paths() {
        // Zero-chunk requests still read one chunk when one exists.
        assert_eq!(RagConfig::stuff(0).effective_chunks(10), 1);
        // Requests are capped by what exists.
        assert_eq!(RagConfig::stuff(8).effective_chunks(3), 3);
        assert_eq!(RagConfig::stuff(8).effective_chunks(100), 8);
        // An empty corpus yields nothing, whatever was requested.
        assert_eq!(RagConfig::stuff(8).effective_chunks(0), 0);
        // Idempotent under chaining: clamping against the corpus and then
        // against the (already clamped) retrieval result is a fixed point,
        // so the engine-timed count always equals the quality-path count.
        for requested in [0u32, 1, 5, 10_000] {
            for corpus in [0usize, 1, 7, 500] {
                let cfg = RagConfig::stuff(requested);
                let k = cfg.effective_chunks(corpus);
                assert_eq!(cfg.effective_chunks(k), k);
            }
        }
    }

    #[test]
    fn labels_are_readable() {
        assert_eq!(RagConfig::stuff(8).label(), "stuff(k=8)");
        assert_eq!(
            RagConfig::map_reduce(5, 100).label(),
            "map_reduce(k=5,l=100)"
        );
    }
}
