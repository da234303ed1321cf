//! vLLM-like serving engine simulator.
//!
//! A discrete-event reproduction of the serving substrate the paper builds
//! on: continuous (iteration-level) batching with chunked prefill over a
//! paged KV cache, driven by the analytical latency model in `metis-llm`.
//!
//! The engine advances a virtual clock one *iteration* at a time. Each
//! iteration decodes one token for every running sequence and spends a
//! bounded budget of prefill tokens on admitted-but-unprefilled sequences
//! (chunked prefill, as in vLLM/Sarathi). A sequence is admitted only when
//! its whole KV footprint (prompt + maximum output) fits in the paged KV
//! pool — the same admission rule METIS's joint scheduler reasons about
//! from the outside via [`Engine::free_kv_tokens`].
//!
//! Three scheduling policies are provided:
//! * [`SchedPolicy::Fcfs`] — plain vLLM first-come-first-served admission.
//! * [`SchedPolicy::GangByGroup`] — Parrot\*-style application-aware
//!   co-scheduling: requests belonging to a group (e.g. the map calls of one
//!   RAG query) are admitted together, ahead of newly arrived groups.
//! * [`SchedPolicy::Preemptive`] — SLO-class-aware scheduling on top of the
//!   gang keys: admission ranks by ([`Priority`], reduce-before-map, gang
//!   affinity, arrival), and under KV pressure running sequences of a
//!   strictly lower class are preempted (recompute-style) and re-queued
//!   instead of head-of-line blocking the whole queue.
//!
//! For multi-backend serving, [`Cluster`] lifts the single engine to `N`
//! independent replicas behind a pluggable router ([`RouterPolicy`]):
//! round-robin dispatch or KV-aware `LeastKvLoad`, which routes each query
//! to the replica with the most free KV bytes. It answers the other fleet
//! questions too — which slots are warm, draining or retired, and what
//! they have cost — from the engines it holds.
//!
//! *Who* executes the work — and on whose time — is the [`Driver`]
//! abstraction: [`SimDriver`] advances the cluster deterministically on
//! virtual time (the paper's evaluation mode), and under
//! [`DriverSpec::Realtime`] the same driver is paced by a scaled wall
//! clock, sleeping until each iteration's virtual start.

#![warn(unreachable_pub)]

mod cluster;
mod driver;
mod engine;
mod kvcache;
mod prefixcache;
mod request;
mod stats;

pub use cluster::{Cluster, RouterPolicy};
pub use driver::{Driver, DriverSpec, SimDriver};
pub use engine::{Completion, Engine, EngineConfig, PreemptMode, SchedPolicy};
pub use kvcache::{KvAllocator, KvError};
pub use prefixcache::PrefixCache;
pub use request::{GroupId, LlmRequest, Priority, ReplicaId, RequestId, Stage};
pub use stats::EngineStats;
