//! GPU hardware model.
//!
//! The paper benchmarks on a server with two NVIDIA A40 GPUs (48 GB each):
//! one GPU serves Mistral-7B, both serve Llama-3.1-70B with tensor
//! parallelism. The cluster model aggregates compute and bandwidth across
//! GPUs and splits the weight footprint, the standard TP approximation.

use crate::latency::LatencyModel;
use crate::spec::ModelSpec;
use crate::time::Nanos;

/// One GPU's capabilities.
#[derive(Clone, Copy, Debug)]
pub struct GpuSpec {
    /// Device memory in bytes.
    pub mem_bytes: u64,
    /// Dense fp16 tensor throughput in FLOP/s.
    pub flops: f64,
    /// Memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Achievable fraction of peak FLOPs in serving (MFU).
    pub mfu: f64,
    /// Achievable fraction of peak bandwidth.
    pub mbu: f64,
}

impl GpuSpec {
    /// NVIDIA A40: 48 GB, ~74.8 TFLOPS dense fp16 tensor, 696 GB/s.
    pub fn a40() -> Self {
        Self {
            mem_bytes: 48 * (1 << 30),
            flops: 74.8e12,
            mem_bw: 696e9,
            mfu: 0.65,
            mbu: 0.85,
        }
    }

    /// NVIDIA H100 SXM: 80 GB HBM3, ~989 TFLOPS dense fp16 tensor,
    /// 3.35 TB/s. The high-end class for heterogeneous fleets: roughly
    /// 13× the A40's compute and 5× its bandwidth per device.
    pub fn h100() -> Self {
        Self {
            mem_bytes: 80 * (1 << 30),
            flops: 989e12,
            mem_bw: 3.35e12,
            mfu: 0.65,
            mbu: 0.85,
        }
    }
}

/// A tensor-parallel group of identical GPUs serving one model replica.
#[derive(Clone, Copy, Debug)]
pub struct GpuCluster {
    /// The per-device spec.
    pub gpu: GpuSpec,
    /// Number of devices in the TP group.
    pub count: u32,
    /// Fraction of device memory vLLM may use (`gpu_memory_utilization`).
    pub mem_utilization: f64,
    /// Bytes reserved per device for activations, CUDA graphs, and NCCL
    /// buffers (not available for weights or KV cache).
    pub reserved_bytes: u64,
}

impl GpuCluster {
    /// Single A40 (the paper's Mistral-7B setup).
    pub fn single_a40() -> Self {
        Self {
            gpu: GpuSpec::a40(),
            count: 1,
            mem_utilization: 0.90,
            reserved_bytes: 3 * (1 << 30),
        }
    }

    /// Two A40s with tensor parallelism (the paper's Llama-70B setup).
    pub fn dual_a40() -> Self {
        Self {
            count: 2,
            ..Self::single_a40()
        }
    }

    /// Single H100 (the high-end replica class in mixed fleets).
    pub fn single_h100() -> Self {
        Self {
            gpu: GpuSpec::h100(),
            count: 1,
            mem_utilization: 0.90,
            reserved_bytes: 3 * (1 << 30),
        }
    }

    /// Aggregate effective FLOP/s across the TP group.
    pub fn effective_flops(&self) -> f64 {
        self.gpu.flops * self.gpu.mfu * f64::from(self.count)
    }

    /// Aggregate effective memory bandwidth across the TP group.
    pub fn effective_bw(&self) -> f64 {
        self.gpu.mem_bw * self.gpu.mbu * f64::from(self.count)
    }

    /// Total usable memory across devices after the utilization cap.
    pub fn usable_mem(&self) -> u64 {
        (self.gpu.mem_bytes as f64 * self.mem_utilization) as u64 * u64::from(self.count)
    }

    /// Bytes available for the KV cache once `model` is resident.
    ///
    /// Returns 0 (rather than panicking) if the model does not fit; callers
    /// treat that as a configuration error at engine construction.
    pub fn kv_pool_bytes(&self, model: &ModelSpec) -> u64 {
        let reserved = self.reserved_bytes * u64::from(self.count);
        self.usable_mem()
            .saturating_sub(model.weight_bytes())
            .saturating_sub(reserved)
    }
}

/// One replica's hardware and lifecycle parameters.
///
/// A fleet is a list of these: each replica is an independent tensor-
/// parallel GPU group (possibly of a different class than its neighbors)
/// plus the warm-up cost an autoscaler pays before the replica admits
/// work — weight loading, CUDA-graph capture, cache allocation.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaSpec {
    /// The replica's GPU group.
    pub cluster: GpuCluster,
    /// Virtual nanoseconds between spawning this replica and it accepting
    /// routed work (0 = instantly ready, the static-fleet behavior).
    pub warmup_nanos: Nanos,
}

impl ReplicaSpec {
    /// A replica on `cluster` with no warm-up cost.
    pub fn new(cluster: GpuCluster) -> Self {
        Self {
            cluster,
            warmup_nanos: 0,
        }
    }
}

/// A multi-replica serving fleet: independent tensor-parallel groups, each
/// serving its own copy of `model`. Replicas share nothing — no weights,
/// no KV — which is the deployment shape the engine's `Cluster` router
/// dispatches over. The per-replica [`ReplicaSpec`]s may mix GPU classes
/// (e.g. A40-like and H100-like latency/KV-capacity models).
#[derive(Clone, Debug)]
pub struct FleetSpec {
    /// The model every replica serves.
    pub model: ModelSpec,
    /// The per-replica specs, in replica order (at least 1).
    pub replicas: Vec<ReplicaSpec>,
}

impl FleetSpec {
    /// Builds a homogeneous fleet of `replicas` copies of `model` on
    /// `cluster`-shaped GPU groups with no warm-up cost.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn new(model: ModelSpec, cluster: GpuCluster, replicas: usize) -> Self {
        Self::heterogeneous(model, vec![ReplicaSpec::new(cluster); replicas])
    }

    /// Builds a fleet from explicit per-replica specs (mixed GPU classes,
    /// per-replica warm-up costs).
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn heterogeneous(model: ModelSpec, replicas: Vec<ReplicaSpec>) -> Self {
        assert!(!replicas.is_empty(), "a fleet needs at least one replica");
        Self { model, replicas }
    }

    /// One latency model per replica, in replica order.
    pub fn latency_models(&self) -> Vec<LatencyModel> {
        self.replicas
            .iter()
            .map(|r| LatencyModel::new(self.model.clone(), r.cluster))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a40_capacity_matches_datasheet() {
        let g = GpuSpec::a40();
        assert_eq!(g.mem_bytes, 51_539_607_552);
        assert!(g.flops > 70e12 && g.flops < 80e12);
    }

    #[test]
    fn mistral_kv_pool_is_tens_of_gb() {
        let cluster = GpuCluster::single_a40();
        let model = ModelSpec::mistral_7b_awq();
        let pool = cluster.kv_pool_bytes(&model);
        // ~43.2 usable − ~3.8 weights − 3 reserved ≈ 36 GB.
        assert!(
            pool > 30 * (1 << 30) && pool < 40 * (1u64 << 30),
            "pool = {pool}"
        );
    }

    #[test]
    fn llama70b_needs_two_gpus() {
        let model = ModelSpec::llama31_70b_awq();
        // On one A40 the AWQ weights barely fit, leaving a KV pool too small
        // to serve long-context RAG; fp16 weights do not fit at all.
        assert!(GpuCluster::single_a40().kv_pool_bytes(&model) < 8 * (1u64 << 30));
        let mut fp16 = model.clone();
        fp16.quant = crate::spec::Quantization::Fp16;
        assert_eq!(GpuCluster::single_a40().kv_pool_bytes(&fp16), 0);
        assert!(GpuCluster::dual_a40().kv_pool_bytes(&model) > 10 * (1u64 << 30));
    }

    #[test]
    fn dual_cluster_doubles_compute() {
        let one = GpuCluster::single_a40();
        let two = GpuCluster::dual_a40();
        assert!((two.effective_flops() / one.effective_flops() - 2.0).abs() < 1e-9);
        assert!((two.effective_bw() / one.effective_bw() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn homogeneous_fleet_has_one_latency_model_per_replica() {
        let fleet = FleetSpec::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40(), 4);
        assert_eq!(fleet.latency_models().len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replica_fleet_is_rejected() {
        let _ = FleetSpec::new(ModelSpec::mistral_7b_awq(), GpuCluster::single_a40(), 0);
    }

    #[test]
    fn h100_outclasses_a40() {
        let (a, h) = (GpuCluster::single_a40(), GpuCluster::single_h100());
        assert!(h.effective_flops() > 10.0 * a.effective_flops());
        assert!(h.effective_bw() > 4.0 * a.effective_bw());
        let model = ModelSpec::mistral_7b_awq();
        // The 80 GB device also holds a far larger KV pool.
        assert!(h.kv_pool_bytes(&model) > 15 * a.kv_pool_bytes(&model) / 10);
    }

    #[test]
    fn heterogeneous_fleet_mixes_classes_per_replica() {
        let model = ModelSpec::mistral_7b_awq();
        let fleet = FleetSpec::heterogeneous(
            model.clone(),
            vec![
                ReplicaSpec::new(GpuCluster::single_a40()),
                ReplicaSpec {
                    cluster: GpuCluster::single_h100(),
                    warmup_nanos: 5_000_000_000,
                },
            ],
        );
        assert_eq!(fleet.replicas[0].warmup_nanos, 0);
        assert_eq!(fleet.replicas[1].warmup_nanos, 5_000_000_000);
        // Each replica's latency model reflects its own GPU class.
        let models = fleet.latency_models();
        assert_eq!(models.len(), 2);
        let a40_pool = GpuCluster::single_a40().kv_pool_bytes(&model);
        let h100_pool = GpuCluster::single_h100().kv_pool_bytes(&model);
        assert!(h100_pool > a40_pool);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_heterogeneous_fleet_is_rejected() {
        let _ = FleetSpec::heterogeneous(ModelSpec::mistral_7b_awq(), Vec::new());
    }
}
