//! Algorithm 1: rule-based mapping from query profiles to pruned
//! configuration spaces (§4.2), plus the low-confidence fallback of §5.
//!
//! ```text
//! if joint reasoning required == "no":
//!     synthesis_method = map_rerank
//! else if query complexity == "low":
//!     synthesis_method = stuff
//! else:
//!     synthesis_method = {stuff, map_reduce}
//! num_chunks           = [pieces, 3 × pieces]
//! intermediate_length  = summary range
//! ```

use std::collections::VecDeque;

use metis_datasets::Complexity;
use metis_profiler::EstimatedProfile;

use crate::config::{PrunedSpace, SynthesisMethod};

/// Maximum `num_chunks` the mapping will request (full-space cap).
const MAX_CHUNKS: u32 = 35;

/// Applies Algorithm 1 to a profile estimate.
pub fn map_profile(profile: &EstimatedProfile) -> PrunedSpace {
    let methods = if !profile.joint {
        vec![SynthesisMethod::MapRerank]
    } else if profile.complexity == Complexity::Low {
        vec![SynthesisMethod::Stuff]
    } else {
        vec![SynthesisMethod::Stuff, SynthesisMethod::MapReduce]
    };
    let n = profile.pieces.max(1);
    PrunedSpace {
        methods,
        num_chunks: (n, (3 * n).min(MAX_CHUNKS)),
        intermediate_length: profile.summary_range,
    }
}

/// Rolling history of recent pruned spaces, backing the §5 fallback: when a
/// profile's confidence is below the 90% threshold, METIS reuses the pruned
/// configuration space of the recent 10 queries instead of trusting the
/// low-confidence estimate.
#[derive(Clone, Debug)]
pub(crate) struct ProfileHistory {
    window: usize,
    recent: VecDeque<PrunedSpace>,
}

impl Default for ProfileHistory {
    fn default() -> Self {
        Self::new(10)
    }
}

impl ProfileHistory {
    /// Creates a history over the last `window` queries.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub(crate) fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            recent: VecDeque::new(),
        }
    }

    /// Records a trusted pruned space.
    pub(crate) fn push(&mut self, space: PrunedSpace) {
        if self.recent.len() == self.window {
            self.recent.pop_front();
        }
        self.recent.push_back(space);
    }

    /// The fallback space: the union of methods and the average bounds over
    /// the recorded window. Returns `None` when no history exists (the
    /// caller then uses a conservative default).
    pub(crate) fn fallback(&self) -> Option<PrunedSpace> {
        if self.recent.is_empty() {
            return None;
        }
        let mut methods: Vec<SynthesisMethod> = Vec::new();
        let (mut clo, mut chi, mut llo, mut lhi) = (0u64, 0u64, 0u64, 0u64);
        for s in &self.recent {
            for &m in &s.methods {
                if !methods.contains(&m) {
                    methods.push(m);
                }
            }
            clo += u64::from(s.num_chunks.0);
            chi += u64::from(s.num_chunks.1);
            llo += u64::from(s.intermediate_length.0);
            lhi += u64::from(s.intermediate_length.1);
        }
        let n = self.recent.len() as u64;
        Some(PrunedSpace {
            methods,
            num_chunks: (((clo + n / 2) / n) as u32, ((chi + n / 2) / n) as u32),
            intermediate_length: (((llo + n / 2) / n) as u32, ((lhi + n / 2) / n) as u32),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(joint: bool, complexity: Complexity, pieces: u32) -> EstimatedProfile {
        EstimatedProfile {
            complexity,
            joint,
            pieces,
            summary_range: (30, 120),
            confidence: 0.95,
        }
    }

    #[test]
    fn no_joint_maps_to_map_rerank() {
        let p = map_profile(&profile(false, Complexity::High, 1));
        assert_eq!(p.methods, vec![SynthesisMethod::MapRerank]);
    }

    #[test]
    fn joint_low_complexity_maps_to_stuff() {
        let p = map_profile(&profile(true, Complexity::Low, 3));
        assert_eq!(p.methods, vec![SynthesisMethod::Stuff]);
    }

    #[test]
    fn joint_high_complexity_maps_to_both() {
        let p = map_profile(&profile(true, Complexity::High, 3));
        assert_eq!(
            p.methods,
            vec![SynthesisMethod::Stuff, SynthesisMethod::MapReduce]
        );
    }

    #[test]
    fn chunk_range_is_one_to_three_times_pieces() {
        let p = map_profile(&profile(true, Complexity::High, 4));
        assert_eq!(p.num_chunks, (4, 12));
    }

    #[test]
    fn chunk_range_caps_at_full_space() {
        let p = map_profile(&profile(true, Complexity::High, 20));
        assert_eq!(p.num_chunks, (20, MAX_CHUNKS));
    }

    #[test]
    fn summary_range_passes_through() {
        let p = map_profile(&profile(true, Complexity::High, 2));
        assert_eq!(p.intermediate_length, (30, 120));
    }

    #[test]
    fn history_window_rolls() {
        let mut h = ProfileHistory::new(2);
        for k in 1..=3u32 {
            h.push(map_profile(&profile(true, Complexity::High, k)));
        }
        assert_eq!(h.recent.len(), 2);
        // Oldest (pieces=1) evicted: average over pieces 2 and 3.
        let f = h.fallback().unwrap();
        assert_eq!(f.num_chunks, (3, 8)); // avg(2,3)=2.5→3, avg(6,9)=7.5→8.
    }

    #[test]
    fn fallback_unions_methods() {
        let mut h = ProfileHistory::default();
        h.push(map_profile(&profile(false, Complexity::Low, 1)));
        h.push(map_profile(&profile(true, Complexity::High, 3)));
        let f = h.fallback().unwrap();
        assert!(f.methods.contains(&SynthesisMethod::MapRerank));
        assert!(f.methods.contains(&SynthesisMethod::Stuff));
        assert!(f.methods.contains(&SynthesisMethod::MapReduce));
    }

    #[test]
    fn empty_history_has_no_fallback() {
        assert!(ProfileHistory::default().fallback().is_none());
    }
}
