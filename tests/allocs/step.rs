//! Allocation pin for [`Engine::step`]: an iteration that completes nothing
//! allocates nothing, and one that completes something allocates exactly
//! the `Vec<Completion>` it returns.

use metis::engine::{
    Engine, EngineConfig, GroupId, LlmRequest, Priority, RequestId, SchedPolicy, Stage,
};
use metis::llm::{GpuCluster, LatencyModel, ModelSpec};

use crate::counted;

fn request(id: u64, stage: Stage, prompt: u64, out: u64, priority: Priority) -> LlmRequest {
    LlmRequest {
        id: RequestId(id),
        group: GroupId(id / 3),
        stage,
        prompt_tokens: prompt,
        output_tokens: out,
        cached_prompt_tokens: 0,
        arrival: 0,
        priority,
    }
}

#[test]
fn a_step_allocates_only_the_completions_it_returns() {
    for policy in [
        SchedPolicy::Fcfs,
        SchedPolicy::GangByGroup,
        SchedPolicy::Preemptive,
    ] {
        let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let bytes = 4_096 * lat.model().kv_bytes_per_token();
        let mut e = Engine::new(
            lat,
            EngineConfig {
                policy,
                kv_pool_bytes_cap: Some(bytes),
                ..EngineConfig::default()
            },
        );
        // Six sequences of staggered length fill the pool; forty more —
        // maps, reduces and singles over shared groups — wait behind them.
        // No arrivals after this point. No queued call is ever of a class
        // that may evict a running one: a preemption attempt with
        // candidates builds its victim list on the heap — once per change
        // of the engine's state, not per iteration, and not pinned here.
        for i in 0..6 {
            let priority = Priority::all()[(i % 2) as usize];
            e.submit(request(i, Stage::Map, 400, 40 + 25 * i, priority));
        }
        for i in 6..46 {
            let stage = [Stage::Map, Stage::Reduce, Stage::Single][(i % 3) as usize];
            let priority = Priority::all()[1 + (i % 2) as usize];
            e.submit(request(i, stage, 500 + 10 * i, 30, priority));
        }
        // Warm-up: everything admittable is admitted and prefilled.
        for _ in 0..8 {
            assert!(e.step().is_empty(), "{policy:?}: warm-up completes nothing");
        }
        assert!(
            e.queued_len() >= 30,
            "{policy:?}: the queue is blocked and deep"
        );

        // From here to the drain: steps under a blocked queue, steps that
        // retire sequences, and the steps after those, which rank the queue
        // and admit from it.
        let (mut quiet, mut completing) = (0, 0);
        while !e.is_idle() {
            let (count, done) = counted(|| e.step());
            let made = count.allocs;
            if done.is_empty() {
                quiet += 1;
                assert_eq!(made, 0, "{policy:?}: a step that completed nothing");
            } else {
                completing += 1;
                assert!(made <= 1, "{policy:?}: a completing step made {made}");
            }
        }
        assert!(
            quiet > 100 && completing > 20,
            "{policy:?}: {quiet} quiet, {completing} completing steps"
        );
    }
}
