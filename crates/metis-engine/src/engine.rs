//! The continuous-batching engine.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

use metis_llm::{LatencyModel, Nanos};

use crate::kvcache::{KvAllocator, KvError};
use crate::request::{GroupId, LlmRequest, Priority, ReplicaId, RequestId, RequestState, Stage};
use crate::stats::EngineStats;

/// Paged KV block size in tokens (vLLM default: 16).
const KV_BLOCK_TOKENS: u64 = 16;

/// Admission-ordering policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPolicy {
    /// Plain vLLM first-come-first-served admission.
    Fcfs,
    /// Parrot\*-style gang scheduling: requests whose group already has
    /// admitted sequences are prioritized, so one RAG query's map calls run
    /// together instead of interleaving with every other query.
    GangByGroup,
    /// Preemptive SLO-class-aware scheduling: admission ranks by
    /// ([`Priority`], reduce-before-map, gang affinity, arrival), and when
    /// the highest-ranked request's KV demand does not fit, running
    /// sequences of a *strictly lower* class are preempted
    /// (recompute-style: their KV is freed, their progress reset to the
    /// cached prefix, and they re-queue) instead of head-of-line blocking.
    Preemptive,
}

/// What preemption does with a victim's computed KV state.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PreemptMode {
    /// vLLM-style recompute: the victim's KV is discarded, its progress
    /// resets to the cached prefix, and it re-queues on the same replica.
    #[default]
    Recompute,
    /// KV migration: the victim is handed to the cluster in an eviction
    /// outbox with its computed tokens folded into a cached prefix; the
    /// cluster moves the KV bytes to a replica with headroom at a priced
    /// transfer cost, falling back to local recompute when no replica has
    /// room. A standalone engine has no other replica: its
    /// [`Engine::run_until_idle`] requeues the victims for recompute.
    Migrate,
}

impl PreemptMode {
    /// Stable lowercase name (CLI values and report knobs).
    pub fn name(&self) -> &'static str {
        match self {
            PreemptMode::Recompute => "recompute",
            PreemptMode::Migrate => "migrate",
        }
    }
}

/// Engine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum concurrently running sequences.
    pub max_batch_seqs: usize,
    /// Chunked-prefill token budget per iteration (Sarathi/vLLM style).
    /// `0` means *unlimited* (no chunking): every admitted sequence
    /// prefills its whole remaining prompt in one iteration.
    pub prefill_chunk_tokens: u64,
    /// Admission policy.
    pub policy: SchedPolicy,
    /// Cap on the schedulable KV pool in bytes (`None` = whole free GPU
    /// memory). Deployments bound in-flight batch memory well below the
    /// physical pool to control tail latency; the paper's Fig. 8 examples
    /// operate at a 6–12 GB working-memory scale on the same hardware.
    pub kv_pool_bytes_cap: Option<u64>,
    /// What preemption does with a victim's computed KV state.
    pub preempt_mode: PreemptMode,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_batch_seqs: 256,
            prefill_chunk_tokens: 2048,
            policy: SchedPolicy::Fcfs,
            kv_pool_bytes_cap: Some(12 * (1 << 30)),
            preempt_mode: PreemptMode::Recompute,
        }
    }
}

/// A preemption victim evicted under [`PreemptMode::Migrate`], waiting in
/// the engine's outbox for the cluster to place it. Both re-admission forms
/// are precomputed so the cluster can take either path without knowing the
/// victim's internal progress state:
#[derive(Clone, Debug)]
pub(crate) struct EvictedSeq {
    /// The migrate form: every computed token (prefill progress plus
    /// emitted output) folded into the cached prefix, so a destination
    /// holding the moved KV resumes without recomputation. The original
    /// `arrival` stamp is preserved — transfer time is real wait the
    /// request experiences, and keeping the stamp keeps the per-stage
    /// breakdown telescoping exactly.
    pub(crate) migrate_req: LlmRequest,
    /// The recompute-fallback form: progress reset to the original cached
    /// prefix, exactly as [`PreemptMode::Recompute`] would have requeued it.
    pub(crate) recompute_req: LlmRequest,
    /// Tokens of computed KV state a migration must move.
    pub(crate) kv_tokens: u64,
    /// Computed tokens the recompute fallback would discard.
    pub(crate) lost_tokens: u64,
    /// When the victim was evicted (a migration transfer departs here).
    pub(crate) evicted_at: Nanos,
}

/// A finished request, reported by [`Engine::step`].
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The request that finished.
    pub id: RequestId,
    /// Its group.
    pub group: GroupId,
    /// Its stage.
    pub stage: Stage,
    /// The replica that served it (0 for a standalone engine).
    pub replica: ReplicaId,
    /// When it entered the engine queue.
    pub arrival: Nanos,
    /// When it was admitted (KV allocated). For a request that was
    /// preempted and re-admitted, this is the *last* admission.
    pub admitted: Nanos,
    /// When its prefill completed and decoding began. For a preempted
    /// request this is the completion of the *last* (recomputed) prefill,
    /// so `admitted <= prefill_done <= finish` always holds and
    /// `(admitted − arrival) + (prefill_done − admitted) +
    /// (finish − prefill_done)` telescopes exactly to `finish − arrival` —
    /// the identity the per-stage breakdown reports rely on. A fully
    /// prefix-cached request decodes immediately: `prefill_done == admitted`.
    pub prefill_done: Nanos,
    /// When its last token was generated.
    pub finish: Nanos,
}

struct Running {
    req: LlmRequest,
    state: RequestState,
    admitted: Nanos,
    /// Clock at the transition into `Decoding` (== `admitted` until then).
    prefill_done: Nanos,
}

/// A queue entry: the request plus the time it (re-)entered the admission
/// queue, so queue-wait accounting stays exact across preempt/requeue
/// cycles (a preempted request's second wait starts at its eviction, not at
/// its original arrival).
struct Queued {
    req: LlmRequest,
    enqueued: Nanos,
}

/// The discrete-event continuous-batching engine.
///
/// # Examples
///
/// ```
/// use metis_engine::{Engine, EngineConfig, GroupId, LlmRequest, RequestId, Stage};
/// use metis_llm::{GpuCluster, LatencyModel, ModelSpec};
///
/// let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
/// let mut engine = Engine::new(lat, EngineConfig::default());
/// engine.submit(LlmRequest {
///     id: RequestId(1),
///     group: GroupId(1),
///     stage: Stage::Single,
///     prompt_tokens: 1000,
///     output_tokens: 10,
///     cached_prompt_tokens: 0,
///     arrival: 0,
///     priority: Default::default(),
/// });
/// let done = engine.run_until_idle();
/// assert_eq!(done.len(), 1);
/// assert!(done[0].finish > 0);
/// ```
pub struct Engine {
    latency: LatencyModel,
    config: EngineConfig,
    replica: ReplicaId,
    /// The engine's own virtual clock. It advances only by the iteration
    /// durations the latency model emits (and by jumps to arrivals), even
    /// under the realtime driver: a wall clock only decides *when* the
    /// driver steps the engine, which keeps timestamps identical across
    /// drivers.
    now: Nanos,
    /// Requests with future arrival times, keyed by (arrival, submit order).
    pending: BTreeMap<(Nanos, u64), LlmRequest>,
    /// Arrived requests awaiting admission, in arrival order (preempted
    /// requests re-enter at the back; admission picks by rank, see
    /// [`Engine::head`], and position only breaks ties).
    queue: VecDeque<Queued>,
    running: Vec<Running>,
    alloc: KvAllocator,
    stats: EngineStats,
    submit_seq: u64,
    /// Victims evicted under [`PreemptMode::Migrate`], awaiting placement
    /// by the cluster (always empty under [`PreemptMode::Recompute`]).
    evicted: Vec<EvictedSeq>,
    /// Change stamp of the admission inputs: bumped by [`Engine::touch`],
    /// and only there, at every mutation of the queue, the running set or
    /// the allocator. Admission is a function of exactly those three and
    /// reads no clock, so an answer found at one stamp holds until the next.
    stamp: u64,
    /// The stamp at which the admission head was last found blocked;
    /// [`Engine::try_admit`] returns at once while it is still current.
    blocked_at: Option<u64>,
    /// Scratch for [`Engine::head`]: the groups of the running set, sorted.
    /// Refilled in place on every ranking pass, so it allocates only while
    /// the running set is still growing past its previous peak.
    active_groups: Vec<GroupId>,
}

impl Engine {
    /// Builds an engine for the latency model's (model, cluster) pair.
    pub fn new(latency: LatencyModel, config: EngineConfig) -> Self {
        let pool_bytes = latency.cluster().kv_pool_bytes(latency.model());
        let pool_bytes = match config.kv_pool_bytes_cap {
            Some(cap) => pool_bytes.min(cap),
            None => pool_bytes,
        };
        let capacity = pool_bytes / latency.model().kv_bytes_per_token();
        Self {
            latency,
            config,
            replica: ReplicaId(0),
            now: 0,
            pending: BTreeMap::new(),
            queue: VecDeque::new(),
            running: Vec::new(),
            alloc: KvAllocator::new(capacity, KV_BLOCK_TOKENS),
            stats: EngineStats::default(),
            submit_seq: 0,
            evicted: Vec::new(),
            stamp: 0,
            blocked_at: None,
            active_groups: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advances the engine's virtual clock to `t` (never backwards) and
    /// absorbs any arrivals that became due. The cluster calls this once,
    /// to start a newly added replica's clock at its ready time; from then
    /// on virtual time advances only by the iteration durations
    /// [`Engine::step`] computes, which is what keeps runs bit-for-bit
    /// reproducible.
    pub(crate) fn advance_clock_to(&mut self, t: Nanos) {
        self.now = self.now.max(t);
        self.absorb_arrivals();
    }

    /// This engine's replica id within its cluster (0 standalone).
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Assigns the replica id stamped on completions and stats; called by
    /// [`Cluster::new`](crate::cluster::Cluster::new).
    pub(crate) fn set_replica(&mut self, id: ReplicaId) {
        self.replica = id;
        self.stats.replica = id;
    }

    /// Free KV-cache tokens right now — what METIS's best-fit inspects
    /// (the paper reads this through `pynvml`; we read the allocator).
    pub fn free_kv_tokens(&self) -> u64 {
        self.alloc.free_tokens()
    }

    /// Free KV-cache bytes right now — what the `LeastKvLoad` router ranks,
    /// so a heterogeneous fleet compares memory, not token counts.
    pub fn free_kv_bytes(&self) -> u64 {
        self.free_kv_tokens() * self.latency.model().kv_bytes_per_token()
    }

    /// Total KV-cache capacity in tokens.
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.alloc.capacity_tokens()
    }

    /// Whether a call of `prompt_tokens` and `output_tokens` could ever be
    /// admitted here: the KV footprint [`Engine::submit`] reserves for it,
    /// against the pool's capacity rather than what is free now. Submitted
    /// anyway, a call that fails this would wait in the queue forever, so
    /// callers reject it instead.
    pub fn check_capacity(&self, prompt_tokens: u64, output_tokens: u64) -> Result<(), KvError> {
        self.alloc
            .check_capacity(prompt_tokens + output_tokens.max(1))
    }

    /// The latency model in use.
    pub fn latency_model(&self) -> &LatencyModel {
        &self.latency
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Whether the engine has no work at all (idle and drained). An
    /// unplaced eviction-outbox entry counts as work: those victims still
    /// owe tokens somewhere.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
            && self.queue.is_empty()
            && self.running.is_empty()
            && self.evicted.is_empty()
    }

    /// Number of requests waiting for admission.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of admitted (running) sequences.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Whether the engine has work runnable *now* (queued or running), as
    /// opposed to only future arrivals.
    pub(crate) fn has_active_work(&self) -> bool {
        !self.queue.is_empty() || !self.running.is_empty()
    }

    /// Earliest future-arrival time among not-yet-arrived requests.
    pub(crate) fn next_pending_arrival(&self) -> Option<Nanos> {
        self.pending.keys().next().map(|&(t, _)| t)
    }

    /// Drains the eviction outbox ([`PreemptMode::Migrate`] victims). The
    /// [`Cluster`](crate::cluster::Cluster) owns their placement: migrate
    /// each to a replica with headroom, or requeue the recompute form here.
    pub(crate) fn take_evicted(&mut self) -> Vec<EvictedSeq> {
        std::mem::take(&mut self.evicted)
    }

    /// Number of unplaced victims in the eviction outbox.
    pub(crate) fn evicted_len(&self) -> usize {
        self.evicted.len()
    }

    /// Accepts a migrated-in sequence: the request keeps its original
    /// `arrival` stamp (so queue-wait and per-stage accounting see the
    /// caller's timeline, transfer included) but becomes *available for
    /// admission* only at `ready_at`, when its KV bytes have finished
    /// arriving. Does not count toward `submitted` — the request was
    /// already submitted once, to the replica that evicted it.
    pub(crate) fn submit_in_transit(&mut self, mut req: LlmRequest, ready_at: Nanos) {
        req.output_tokens = req.output_tokens.max(1);
        req.cached_prompt_tokens = req.cached_prompt_tokens.min(req.prompt_tokens);
        if ready_at <= self.now {
            let enqueued = ready_at;
            self.queue.push_back(Queued { req, enqueued });
            self.touch();
        } else {
            let key = (ready_at, self.submit_seq);
            self.submit_seq += 1;
            self.pending.insert(key, req);
        }
    }

    /// Requeues a recompute-fallback victim locally (migration found no
    /// headroom anywhere), charging the discarded tokens to this replica
    /// like a plain recompute preemption would have.
    pub(crate) fn requeue_recompute(&mut self, seq: EvictedSeq) {
        self.stats.preempted_tokens += seq.lost_tokens;
        self.queue.push_back(Queued {
            req: seq.recompute_req,
            enqueued: seq.evicted_at,
        });
        self.touch();
    }

    /// Records a successful migration *off* this replica (called by the
    /// cluster at placement time, once a destination is known).
    pub(crate) fn record_migration(&mut self, kv_tokens: u64) {
        self.stats.migrations += 1;
        self.stats.migrated_tokens += kv_tokens;
    }

    /// Submits a request.
    ///
    /// A request whose arrival stamp is in the engine's past (normal when
    /// the replica's last iteration ran past the caller's event time) keeps
    /// its original arrival: it enters the queue as if it had been waiting
    /// since `arrival`, so queue-wait accounting and admission ranking see
    /// the caller's timeline, not the iteration boundary.
    pub fn submit(&mut self, mut req: LlmRequest) {
        // Zero-output requests would never finish; clamp to one token.
        req.output_tokens = req.output_tokens.max(1);
        req.cached_prompt_tokens = req.cached_prompt_tokens.min(req.prompt_tokens);
        self.stats.submitted += 1;
        if req.arrival <= self.now {
            let enqueued = req.arrival;
            self.queue.push_back(Queued { req, enqueued });
            self.touch();
        } else {
            let key = (req.arrival, self.submit_seq);
            self.submit_seq += 1;
            self.pending.insert(key, req);
        }
    }

    /// Records a mutation of the queue, the running set or the allocator —
    /// the inputs of admission. Every such mutation calls this, and nothing
    /// else moves the stamp.
    fn touch(&mut self) {
        self.stamp += 1;
    }

    fn absorb_arrivals(&mut self) {
        let now = self.now;
        while let Some(due) = self.pending.first_entry() {
            if due.key().0 > now {
                break;
            }
            // The key time, not `req.arrival`: identical for ordinary
            // future arrivals, but a migrated-in sequence keeps its
            // original arrival stamp while its local wait starts when the
            // KV transfer lands (see [`Engine::submit_in_transit`]).
            let ((enqueued, _), req) = due.remove_entry();
            self.queue.push_back(Queued { req, enqueued });
            self.touch();
        }
    }

    /// Index of the queue entry admission tries next (`None` on an empty
    /// queue): the minimum of the configured policy's rank key, ties broken
    /// by queue position (`min_by_key` keeps the first minimum — the head
    /// of a stable sort under the same key). One pass, no allocation in
    /// steady state.
    fn head(&mut self) -> Option<usize> {
        let policy = self.config.policy;
        if policy != SchedPolicy::Fcfs && !self.queue.is_empty() {
            self.active_groups.clear();
            self.active_groups
                .extend(self.running.iter().map(|r| r.req.group));
            self.active_groups.sort_unstable();
        }
        let foreign = |req: &LlmRequest| self.active_groups.binary_search(&req.group).is_err();
        let mut ranked = self.queue.iter().enumerate();
        let head = match policy {
            SchedPolicy::Fcfs => ranked.next(),
            // DAG-aware application scheduling (Parrot*): reduce calls jump
            // the queue — they unblock a whole query whose map work is
            // already sunk — then calls whose group is already running,
            // then FIFO.
            SchedPolicy::GangByGroup => ranked.min_by_key(|(_, q)| {
                if q.req.stage == Stage::Reduce {
                    0u8
                } else if foreign(&q.req) {
                    2
                } else {
                    1
                }
            }),
            // SLO class first, then the Parrot* DAG/gang keys inside a
            // class, then arrival — so preempted requests that re-enter at
            // the back of the deque still rank by their original arrival
            // within their class.
            SchedPolicy::Preemptive => ranked.min_by_key(|(_, q)| {
                (
                    q.req.priority,
                    q.req.stage != Stage::Reduce,
                    foreign(&q.req),
                    q.req.arrival,
                )
            }),
        };
        head.map(|(i, _)| i)
    }

    fn try_admit(&mut self) {
        loop {
            if self.blocked_at == Some(self.stamp) {
                return;
            }
            let Some(head) = self.head() else {
                return;
            };
            let demand = self.queue[head].req.kv_demand_tokens();
            let slot_blocked = self.running.len() >= self.config.max_batch_seqs;
            let kv_blocked = !self.alloc.fits(demand);
            if slot_blocked || kv_blocked {
                // Head-of-line blocking, as in vLLM's FCFS admission —
                // unless the preemptive policy can evict lower-class work.
                // Preemption is reserved for *KV* pressure (as in vLLM's
                // recompute preemption): a full batch drains within
                // iterations, so evicting sunk work for a slot would cost
                // more than the wait it saves.
                if self.config.policy != SchedPolicy::Preemptive
                    || !kv_blocked
                    || !self.preempt_for(head, demand)
                {
                    // Recorded after `preempt_for` returns: whatever it
                    // did, this is the state a fresh attempt would see.
                    self.blocked_at = Some(self.stamp);
                    return;
                }
            }
            let Queued { req, enqueued } = self.queue.remove(head).expect("index from head()");
            self.alloc
                .alloc(req.id, demand)
                .expect("fits() checked above");
            self.stats.total_queue_wait += self.now.saturating_sub(enqueued);
            // Cached prefix tokens are already resident: prefill starts past
            // them (they still count toward the KV allocation made above).
            let done = req.cached_prompt_tokens;
            let state = if done >= req.prompt_tokens {
                RequestState::Decoding { emitted: 0 }
            } else {
                RequestState::Prefilling { done }
            };
            self.running.push(Running {
                state,
                admitted: self.now,
                // Fully cached prompts skip prefill: it "completes" at
                // admission. Otherwise the transition in `step` stamps it.
                prefill_done: self.now,
                req,
            });
            self.touch();
        }
    }

    /// Tries to make room for queue entry `candidate` (KV demand `demand`)
    /// by preempting running sequences of a *strictly lower* priority
    /// class. Victims are evicted cheapest-first (lowest class, then most
    /// recently admitted — least sunk work), recompute-style: KV freed,
    /// progress reset to the cached prefix, request re-queued. Returns
    /// `true` only when the candidate is guaranteed to fit afterwards; when
    /// the full victim set cannot cover the demand, nothing is evicted.
    fn preempt_for(&mut self, candidate: usize, demand: u64) -> bool {
        let pri: Priority = self.queue[candidate].req.priority;
        let mut victims: Vec<usize> = (0..self.running.len())
            .filter(|&i| self.running[i].req.priority > pri)
            .collect();
        if victims.is_empty() {
            return false;
        }
        victims.sort_by_key(|&i| {
            let r = &self.running[i];
            (Reverse(r.req.priority), Reverse(r.admitted))
        });
        // Commit only if evicting every victim would make the candidate
        // fit: both a batch slot (freeing any victim yields one) and the
        // KV demand, block-granular like the allocator.
        let demand_rounded = demand.div_ceil(KV_BLOCK_TOKENS) * KV_BLOCK_TOKENS;
        let reclaimable: u64 = victims
            .iter()
            .map(|&i| {
                self.alloc
                    .held_tokens(self.running[i].req.id)
                    .expect("running seq holds KV")
            })
            .sum();
        if self.alloc.free_tokens() + reclaimable < demand_rounded {
            return false;
        }
        let victim_ids: Vec<RequestId> = victims.iter().map(|&i| self.running[i].req.id).collect();
        for id in victim_ids {
            if self.running.len() < self.config.max_batch_seqs && self.alloc.fits(demand) {
                break;
            }
            let idx = self
                .running
                .iter()
                .position(|r| r.req.id == id)
                .expect("victim still running");
            let r = self.running.swap_remove(idx);
            self.alloc.free(r.req.id).expect("running seq held KV");
            self.touch();
            // Tokens computed past the cached prefix: what recompute
            // discards, and exactly what a migration must move.
            let (lost, computed_through) = match r.state {
                RequestState::Prefilling { done } => {
                    (done.saturating_sub(r.req.cached_prompt_tokens), done)
                }
                RequestState::Decoding { emitted } => (
                    r.req
                        .prompt_tokens
                        .saturating_sub(r.req.cached_prompt_tokens)
                        + emitted,
                    r.req.prompt_tokens + emitted,
                ),
                _ => (0, r.req.cached_prompt_tokens),
            };
            self.stats.preemptions += 1;
            match self.config.preempt_mode {
                PreemptMode::Recompute => {
                    // Recompute-preemption discards all progress past the
                    // cached prefix; the victim will re-prefill (and
                    // re-decode) it.
                    self.stats.preempted_tokens += lost;
                    self.queue.push_back(Queued {
                        req: r.req,
                        enqueued: self.now,
                    });
                }
                PreemptMode::Migrate => {
                    // Hand the victim to the cluster with its computed
                    // tokens folded into a cached prefix. A mid-decode
                    // victim's emitted tokens become prompt: the KV moves,
                    // so the destination resumes decoding where the victim
                    // stopped; total prompt+output demand is unchanged.
                    let mut migrate_req = r.req.clone();
                    if let RequestState::Decoding { emitted } = r.state {
                        migrate_req.prompt_tokens += emitted;
                        migrate_req.output_tokens -= emitted;
                    }
                    migrate_req.cached_prompt_tokens = computed_through;
                    self.evicted.push(EvictedSeq {
                        migrate_req,
                        recompute_req: r.req,
                        kv_tokens: computed_through,
                        lost_tokens: lost,
                        evicted_at: self.now,
                    });
                }
            }
        }
        self.running.len() < self.config.max_batch_seqs && self.alloc.fits(demand)
    }

    /// Advances the simulation by one engine iteration (or one clock jump to
    /// the next arrival when idle). Returns the requests that completed.
    pub fn step(&mut self) -> Vec<Completion> {
        self.absorb_arrivals();
        self.try_admit();

        if self.running.is_empty() {
            // Nothing runnable: jump to the next arrival if there is one.
            if let Some((&(t, _), _)) = self.pending.iter().next() {
                self.now = self.now.max(t);
                self.absorb_arrivals();
                self.try_admit();
            }
            if self.running.is_empty() {
                return Vec::new();
            }
        }

        // Assemble the iteration: one decode token per decoding sequence,
        // chunked prefill across prefilling sequences in running order.
        let mut prefill_budget = self.prefill_budget();
        let mut prefill_tokens: u64 = 0;
        let mut prefill_ctx_weighted: f64 = 0.0;
        let mut decode_seqs: u64 = 0;
        let mut finishing: usize = 0;
        let mut batch_kv: u64 = 0;

        for r in &self.running {
            match r.state {
                RequestState::Prefilling { done } => {
                    batch_kv += done;
                    let n = take_prefill(&mut prefill_budget, r.req.prompt_tokens - done);
                    prefill_tokens += n;
                    prefill_ctx_weighted += (n * (done + n)) as f64;
                }
                RequestState::Decoding { emitted } => {
                    decode_seqs += 1;
                    finishing += usize::from(emitted + 1 >= r.req.output_tokens);
                    batch_kv += r.req.prompt_tokens + emitted;
                }
                _ => {}
            }
        }

        let avg_ctx = if prefill_tokens > 0 {
            (prefill_ctx_weighted / prefill_tokens as f64) as u64
        } else {
            0
        };
        // An iteration in which no sequence progresses (cannot happen now
        // that a zero chunk budget means unlimited) takes this same path:
        // it advances by overhead only and is counted like any other, so
        // utilization and `EngineStats::busy` stay truthful.
        let dt = self
            .latency
            .iteration_time(prefill_tokens, avg_ctx, decode_seqs, batch_kv);
        self.now = self.now.saturating_add(dt);
        self.stats.iterations += 1;
        self.stats.busy += dt;
        self.stats.prefill_tokens += prefill_tokens;
        self.stats.decode_tokens += decode_seqs;
        self.stats.peak_kv_tokens = self.stats.peak_kv_tokens.max(self.alloc.used_tokens());

        // Apply progress in a second pass that re-derives each prefill
        // share from a fresh budget. Every sequence is visited once, still
        // in its start-of-iteration state, so one that finishes prefill
        // here emits its first token next iteration, not this one. The
        // completions are sized exactly: an iteration that finishes nothing
        // allocates nothing, one that does allocates once.
        let clock = self.now;
        let mut prefill_budget = self.prefill_budget();
        let mut completions = Vec::with_capacity(finishing);
        for r in &mut self.running {
            match r.state {
                RequestState::Prefilling { done } => {
                    let done = done + take_prefill(&mut prefill_budget, r.req.prompt_tokens - done);
                    r.state = if done >= r.req.prompt_tokens {
                        r.prefill_done = clock;
                        RequestState::Decoding { emitted: 0 }
                    } else {
                        RequestState::Prefilling { done }
                    };
                }
                RequestState::Decoding { emitted } => {
                    let emitted = emitted + 1;
                    if emitted >= r.req.output_tokens {
                        r.state = RequestState::Finished { at: clock };
                        completions.push(Completion {
                            id: r.req.id,
                            group: r.req.group,
                            stage: r.req.stage,
                            replica: self.replica,
                            arrival: r.req.arrival,
                            admitted: r.admitted,
                            prefill_done: r.prefill_done,
                            finish: clock,
                        });
                    } else {
                        r.state = RequestState::Decoding { emitted };
                    }
                }
                _ => {}
            }
        }
        // Retire finished sequences and free their KV.
        if !completions.is_empty() {
            for c in &completions {
                self.alloc.free(c.id).expect("finished seq held KV");
                self.stats.completed += 1;
                self.stats.total_latency += c.finish.saturating_sub(c.arrival);
            }
            self.running
                .retain(|r| !matches!(r.state, RequestState::Finished { .. }));
            self.touch();
        }
        completions
    }

    /// The chunked-prefill token budget of one iteration. A zero chunk
    /// budget means unlimited (no chunking): a literal zero would starve
    /// every prefilling sequence while the clock kept advancing — a
    /// livelock.
    fn prefill_budget(&self) -> u64 {
        match self.config.prefill_chunk_tokens {
            0 => u64::MAX,
            n => n,
        }
    }

    /// Runs until every submitted request has completed; returns all
    /// completions in finish order.
    ///
    /// # Panics
    ///
    /// Panics if the engine fails to make progress (a request that can never
    /// be admitted, e.g. KV demand beyond total capacity) — surfacing the
    /// bug beats spinning forever.
    pub fn run_until_idle(&mut self) -> Vec<Completion> {
        let mut all = Vec::new();
        while !self.is_idle() {
            // Standalone, a migration victim has no other replica: requeue
            // it for recompute, as a one-replica cluster's zero-headroom
            // fallback does.
            for seq in self.take_evicted() {
                self.requeue_recompute(seq);
            }
            let before = self.now;
            let done = self.step();
            self.assert_progressed(before, done.len());
            all.extend(done);
        }
        all
    }

    /// Checks that the [`Self::step`] which started at `before` and
    /// completed `completed` requests made progress: it advanced the clock,
    /// finished something, or left the engine idle. Every loop that steps
    /// an engine — here and the cluster — calls this.
    ///
    /// # Panics
    ///
    /// Panics, reporting the queue and KV state, when the step did none of
    /// those: a request that can never be admitted would otherwise spin
    /// its driver forever. Callers keep such requests out with
    /// [`Self::check_capacity`] (the runner rejects the query), so under
    /// the runner this fires only on a broken internal invariant.
    pub(crate) fn assert_progressed(&self, before: Nanos, completed: usize) {
        assert!(
            self.now() > before || completed > 0 || self.is_idle(),
            "replica {} stuck: queued={} running={} evicted={} free_kv={} — an \
             unadmittable request, or an unplaced eviction?",
            self.replica.0,
            self.queued_len(),
            self.running_len(),
            self.evicted_len(),
            self.free_kv_tokens()
        );
    }
}

/// Takes one prefilling sequence's share — up to `remaining` tokens — out
/// of what is left of the iteration's prefill budget.
fn take_prefill(budget: &mut u64, remaining: u64) -> u64 {
    let n = remaining.min(*budget);
    *budget -= n;
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use metis_llm::{GpuCluster, ModelSpec};

    fn engine() -> Engine {
        let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        Engine::new(lat, EngineConfig::default())
    }

    fn req(id: u64, group: u64, prompt: u64, out: u64, arrival: Nanos) -> LlmRequest {
        LlmRequest {
            id: RequestId(id),
            group: GroupId(group),
            stage: Stage::Single,
            prompt_tokens: prompt,
            output_tokens: out,
            cached_prompt_tokens: 0,
            arrival,
            priority: Priority::Standard,
        }
    }

    #[test]
    fn advance_clock_to_makes_a_warm_up_physical() {
        // How a warm-up is made physical: advancing the clock never
        // rewinds it, and arrivals that become due are absorbed into the
        // queue so `has_active_work` sees them.
        let mut e = engine();
        e.submit(req(1, 1, 500, 5, 3_000_000_000));
        assert!(
            !e.has_active_work(),
            "future arrival is pending, not queued"
        );
        e.advance_clock_to(2_000_000_000);
        assert_eq!(e.now(), 2_000_000_000);
        assert!(!e.has_active_work());
        e.advance_clock_to(1_000_000_000); // Backwards: ignored.
        assert_eq!(e.now(), 2_000_000_000);
        e.advance_clock_to(3_500_000_000);
        assert!(e.has_active_work(), "due arrival was absorbed");
        let done = e.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].arrival, 3_000_000_000);
        assert!(done[0].admitted >= 3_500_000_000);
    }

    #[test]
    #[should_panic(expected = "stuck: queued=1 running=0 evicted=0")]
    fn unadmittable_request_is_detected() {
        let mut e = engine();
        let cap = e.kv_capacity_tokens();
        e.submit(req(1, 1, cap * 2, 5, 0));
        let _ = e.run_until_idle();
    }

    #[test]
    fn zero_prefill_budget_means_unlimited_not_livelock() {
        // Regression: `prefill_chunk_tokens == 0` used to starve every
        // prefilling sequence while `step()` kept advancing the clock — a
        // livelock `run_until_idle` never escaped. Zero now means
        // "unchunked": the run completes.
        let lat = LatencyModel::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40());
        let mut e = Engine::new(
            lat,
            EngineConfig {
                prefill_chunk_tokens: 0,
                ..EngineConfig::default()
            },
        );
        let cap = e.free_kv_tokens();
        for i in 0..4 {
            e.submit(req(i, i, 3_000, 10, i * 1_000_000));
        }
        let done = e.run_until_idle();
        assert_eq!(done.len(), 4);
        assert_eq!(e.free_kv_tokens(), cap);
        // Unchunked prefill means each prompt lands in one iteration.
        assert_eq!(e.stats().prefill_tokens, 4 * 3_000);
    }
}
