//! `RefEngine`: docs/serving.md's admission contract, transcribed as plainly
//! as it reads. No change stamp, no blocked-head memo, no scratch buffers,
//! no allocator: every admission attempt stably sorts the whole queue, and
//! KV is one counter of free blocks. It shares with `Engine` only the public
//! request, completion and stats types and the latency model's
//! `iteration_time`.

use std::cmp::Reverse;

use metis::engine::{
    Completion, EngineConfig, EngineStats, LlmRequest, PreemptMode, ReplicaId, SchedPolicy, Stage,
};
use metis::llm::{secs_to_nanos, LatencyModel, Nanos};

/// Paged KV block size in tokens.
const BLOCK: u64 = 16;
/// A cross-replica KV transfer moves 25 GB per virtual second.
const MIGRATION_BYTES_PER_SEC: f64 = 25e9;

/// The blocks a footprint of `tokens` holds.
pub fn blocks(tokens: u64) -> u64 {
    tokens.div_ceil(BLOCK)
}

/// An admitted sequence: its request (holding the blocks of its whole
/// footprint), its tokens with KV — prompt tokens while it prefills, from
/// the cached prefix up, then the prompt plus every token emitted — and the
/// completion it will report, stamped as it goes.
pub type Seq = (LlmRequest, u64, Completion);

/// A preemption victim: the request to migrate (computed tokens folded into
/// its cached prefix), the request to recompute, the KV tokens a migration
/// moves, the tokens a recompute loses, and when it was evicted.
type Victim = (LlmRequest, LlmRequest, u64, u64, Nanos);

/// One replica under the contract.
pub struct RefEngine {
    lat: LatencyModel,
    cfg: EngineConfig,
    pub now: Nanos,
    /// Not yet due, by due time, ties in submission order.
    pending: Vec<(Nanos, LlmRequest)>,
    /// Waiting for admission, with the instant each entered the queue.
    pub queue: Vec<(LlmRequest, Nanos)>,
    /// Admitted; admission appends, retirement keeps the order, eviction
    /// moves the last into the victim's slot.
    pub running: Vec<Seq>,
    pub free_blocks: u64,
    pub total_blocks: u64,
    outbox: Vec<Victim>,
    pub stats: EngineStats,
}

impl RefEngine {
    pub fn new(lat: LatencyModel, cfg: EngineConfig, replica: ReplicaId) -> Self {
        let pool = lat.cluster().kv_pool_bytes(lat.model());
        let pool = cfg.kv_pool_bytes_cap.map_or(pool, |cap| pool.min(cap));
        let total_blocks = pool / lat.model().kv_bytes_per_token() / BLOCK;
        let stats = EngineStats {
            replica,
            ..EngineStats::default()
        };
        Self {
            lat,
            cfg,
            now: 0,
            pending: Vec::new(),
            queue: Vec::new(),
            running: Vec::new(),
            free_blocks: total_blocks,
            total_blocks,
            outbox: Vec::new(),
            stats,
        }
    }

    pub fn is_idle(&self) -> bool {
        let waiting = self.pending.is_empty() && self.queue.is_empty();
        waiting && self.running.is_empty() && self.outbox.is_empty()
    }

    pub fn submit(&mut self, req: LlmRequest) {
        self.stats.submitted += 1;
        self.enter(req.arrival, req);
    }

    /// `req` enters the queue at `at`, or waits until then.
    fn enter(&mut self, at: Nanos, mut req: LlmRequest) {
        req.output_tokens = req.output_tokens.max(1);
        req.cached_prompt_tokens = req.cached_prompt_tokens.min(req.prompt_tokens);
        if at <= self.now {
            self.queue.push((req, at));
        } else {
            let i = self.pending.partition_point(|p| p.0 <= at);
            self.pending.insert(i, (at, req));
        }
    }

    fn absorb(&mut self) {
        let due = self.pending.partition_point(|p| p.0 <= self.now);
        let arrived = self.pending.drain(..due).map(|(at, req)| (req, at));
        self.queue.extend(arrived);
    }

    /// The queue in admission order: a stable sort under the policy's rank
    /// key, so ties keep queue position.
    fn ranked(&self) -> Vec<usize> {
        let running = |req: &LlmRequest| self.running.iter().any(|s| s.0.group == req.group);
        // Gang affinity: 0 a reduce call, 1 a call whose group runs, 2 any other.
        let gang = |r: &LlmRequest| match r.stage {
            Stage::Reduce => 0,
            _ => 2 - u8::from(running(r)),
        };
        let class = |r: &LlmRequest| (r.priority, gang(r) > 0, !running(r), r.arrival);
        let mut order: Vec<usize> = (0..self.queue.len()).collect();
        let req = |i: usize| &self.queue[i].0;
        match self.cfg.policy {
            SchedPolicy::Fcfs => {}
            SchedPolicy::GangByGroup => order.sort_by_key(|&i| gang(req(i))),
            SchedPolicy::Preemptive => order.sort_by_key(|&i| class(req(i))),
        }
        order
    }

    /// Admits heads until one does not fit (head-of-line blocking); only
    /// `Preemptive` evicts for it, and only for KV, never for a batch slot.
    fn admit(&mut self) {
        while let Some(&head) = self.ranked().first() {
            let need = blocks(self.queue[head].0.kv_demand_tokens());
            let slot_full = self.running.len() >= self.cfg.max_batch_seqs;
            let kv_short = need > self.free_blocks;
            let preemptive = self.cfg.policy == SchedPolicy::Preemptive;
            if (slot_full || kv_short) && !(preemptive && kv_short && self.preempt(head, need)) {
                return;
            }
            let (req, enqueued) = self.queue.remove(head);
            self.free_blocks -= need;
            self.stats.total_queue_wait += self.now.saturating_sub(enqueued);
            let done = Completion {
                id: req.id,
                group: req.group,
                stage: req.stage,
                replica: self.stats.replica,
                arrival: req.arrival,
                admitted: self.now,
                prefill_done: self.now,
                finish: self.now,
            };
            let computed = req.cached_prompt_tokens;
            self.running.push((req, computed, done));
        }
    }

    /// Evicts running sequences of strictly lower classes, cheapest first
    /// (lowest class, then latest admitted, then running order), until
    /// `head` fits; evicts nothing when all of them would not make room.
    fn preempt(&mut self, head: usize, need: u64) -> bool {
        let class = self.queue[head].0.priority;
        let mut victims: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].0.priority > class)
            .collect();
        let cheapest = |(req, _, done): &Seq| Reverse((req.priority, done.admitted));
        victims.sort_by_key(|&i| cheapest(&self.running[i]));
        let held = |i: usize| blocks(self.running[i].0.kv_demand_tokens());
        let reclaimable: u64 = victims.iter().map(|&i| held(i)).sum();
        if victims.is_empty() || self.free_blocks + reclaimable < need {
            return false;
        }
        let ids: Vec<_> = victims.iter().map(|&i| self.running[i].0.id).collect();
        for id in ids {
            if self.running.len() < self.cfg.max_batch_seqs && need <= self.free_blocks {
                break;
            }
            // Eviction moves the last running sequence into the victim's slot.
            let at = self.running.iter().position(|s| s.0.id == id).unwrap();
            let (req, computed, _) = self.running.swap_remove(at);
            self.free_blocks += blocks(req.kv_demand_tokens());
            self.stats.preemptions += 1;
            let mut migrate = req.clone();
            let emitted = computed.saturating_sub(req.prompt_tokens);
            migrate.prompt_tokens += emitted;
            migrate.output_tokens -= emitted;
            migrate.cached_prompt_tokens = computed;
            let lost = computed - req.cached_prompt_tokens;
            let victim = (migrate, req, computed, lost, self.now);
            match self.cfg.preempt_mode {
                PreemptMode::Recompute => self.requeue(victim),
                PreemptMode::Migrate => self.outbox.push(victim),
            }
        }
        true
    }

    /// A victim re-queues for recompute, losing what it had computed.
    fn requeue(&mut self, (_, req, _, lost, at): Victim) {
        self.stats.preempted_tokens += lost;
        self.queue.push((req, at));
    }

    /// One iteration: one token for every decoding sequence, and the prefill
    /// chunk budget spent across prefilling ones in running order. When
    /// nothing runs, the clock jumps to the next arrival first.
    pub fn step(&mut self) -> Vec<Completion> {
        self.absorb();
        self.admit();
        if let (true, Some(&(t, _))) = (self.running.is_empty(), self.pending.first()) {
            self.now = self.now.max(t);
            self.absorb();
            self.admit();
        }
        if self.running.is_empty() {
            return Vec::new();
        }
        let chunk = self.cfg.prefill_chunk_tokens;
        let mut budget = if chunk == 0 { u64::MAX } else { chunk };
        let (mut prefill, mut weighted, mut decode, mut kv) = (0, 0.0, 0, 0);
        let mut shares = Vec::new();
        for (req, computed, _) in &self.running {
            let n = req.prompt_tokens.saturating_sub(*computed).min(budget);
            budget -= n;
            (prefill, kv) = (prefill + n, kv + computed);
            weighted += (n * (computed + n)) as f64;
            decode += u64::from(*computed >= req.prompt_tokens);
            shares.push(n);
        }
        let ctx = (weighted / prefill.max(1) as f64) as u64;
        let dt = self.lat.iteration_time(prefill, ctx, decode, kv);
        self.now += dt;
        let (now, st) = (self.now, &mut self.stats);
        (st.iterations, st.busy) = (st.iterations + 1, st.busy + dt);
        (st.prefill_tokens, st.decode_tokens) =
            (st.prefill_tokens + prefill, st.decode_tokens + decode);
        let used = (self.total_blocks - self.free_blocks) * BLOCK;
        st.peak_kv_tokens = st.peak_kv_tokens.max(used);
        let mut finished = Vec::new();
        for ((req, computed, done), n) in self.running.iter_mut().zip(shares) {
            if *computed < req.prompt_tokens {
                *computed += n;
                if *computed >= req.prompt_tokens {
                    done.prefill_done = now;
                }
            } else if *computed + 1 < req.prompt_tokens + req.output_tokens {
                *computed += 1;
            } else {
                done.finish = now;
                finished.push(*done);
            }
        }
        for c in &finished {
            let at = self.running.iter().position(|s| s.0.id == c.id).unwrap();
            self.free_blocks += blocks(self.running.remove(at).0.kv_demand_tokens());
            self.stats.completed += 1;
            self.stats.total_latency += c.finish - c.arrival;
        }
        finished
    }
}

/// Places every victim in `src`'s outbox on the other replica with the most
/// free KV that holds its whole demand (lowest id on ties), after a priced
/// transfer; with zero headroom anywhere, or no other replica, it recomputes
/// on `src`.
pub fn place(fleet: &mut [RefEngine], src: usize) {
    for victim in std::mem::take(&mut fleet[src].outbox) {
        let fits = |e: &RefEngine| e.free_blocks * BLOCK >= victim.0.kv_demand_tokens();
        let dest = (0..fleet.len())
            .filter(|&i| i != src && fits(&fleet[i]))
            .max_by_key(|&i| (fleet[i].free_blocks, Reverse(i)));
        let Some(d) = dest else {
            fleet[src].requeue(victim);
            continue;
        };
        let (migrate, _, kv_tokens, _, at) = victim;
        let bytes = kv_tokens * fleet[src].lat.model().kv_bytes_per_token();
        fleet[src].stats.migrations += 1;
        fleet[src].stats.migrated_tokens += kv_tokens;
        let transfer = secs_to_nanos(bytes as f64 / MIGRATION_BYTES_PER_SEC);
        fleet[d].enter(at + transfer, migrate);
    }
}
