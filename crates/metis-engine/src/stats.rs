//! Engine-level statistics.

use metis_llm::Nanos;

use crate::request::ReplicaId;

/// Aggregate statistics of one engine run.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// The replica these stats describe (0 for a standalone engine).
    pub replica: ReplicaId,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Iterations executed.
    pub iterations: u64,
    /// Total virtual time spent in iterations.
    pub busy: Nanos,
    /// Sum over completed requests of (admission − arrival).
    pub total_queue_wait: Nanos,
    /// Sum over completed requests of (finish − arrival).
    pub total_latency: Nanos,
    /// Total prefill tokens processed.
    pub prefill_tokens: u64,
    /// Total decode tokens generated.
    pub decode_tokens: u64,
    /// Peak KV-cache occupancy in tokens.
    pub peak_kv_tokens: u64,
    /// Running sequences evicted under KV pressure to admit a
    /// higher-priority request (preemption-with-recompute).
    pub preemptions: u64,
    /// Tokens of already-computed work (prefill progress beyond the cached
    /// prefix, plus emitted output) discarded by preemptions; the victims
    /// recompute them after re-admission.
    pub preempted_tokens: u64,
    /// Victims whose KV was moved to another replica instead of discarded
    /// (preemption-with-migration).
    pub migrations: u64,
    /// Tokens of computed KV state shipped off this replica by migrations;
    /// unlike [`Self::preempted_tokens`], nothing here is recomputed — the
    /// cost is the priced transfer, not lost work.
    pub migrated_tokens: u64,
}

impl EngineStats {
    /// Preemptions per submitted request (0 when nothing was submitted) —
    /// the KV-contention signal METIS's best-fit reads as back-pressure.
    pub fn preemption_pressure(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.preemptions as f64 / self.submitted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preemption_pressure_is_per_submission() {
        assert_eq!(EngineStats::default().preemption_pressure(), 0.0);
        let s = EngineStats {
            submitted: 8,
            preemptions: 2,
            ..Default::default()
        };
        assert_eq!(s.preemption_pressure(), 0.25);
    }
}
