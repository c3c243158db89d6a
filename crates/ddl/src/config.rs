//! Training-run configuration.

use serde::Serialize;
use stash_collectives::bucket::Bucketing;
use stash_collectives::schedule::Algorithm;
use stash_datapipe::cache::CacheState;
use stash_dnn::dataset::DatasetSpec;
use stash_dnn::model::Model;
use stash_faults::plan::MAX_SLOWDOWN;
use stash_gpucompute::precision::Precision;
use stash_hwtopo::cluster::ClusterSpec;

use crate::error::TrainError;

/// Where training data comes from.
#[derive(Debug, Clone, Serialize)]
pub enum DataMode {
    /// Data pre-populated in GPU memory (the paper's steps 1, 2 and 5):
    /// the input pipeline is bypassed entirely.
    Synthetic,
    /// Real data streamed through the input pipeline (steps 3 and 4).
    Real {
        /// Dataset to stream.
        dataset: DatasetSpec,
        /// Page-cache temperature for the epoch.
        cache: CacheState,
    },
}

impl DataMode {
    /// `true` for [`DataMode::Synthetic`].
    #[must_use]
    pub fn is_synthetic(&self) -> bool {
        matches!(self, DataMode::Synthetic)
    }
}

/// Which GPUs participate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ActiveGpus {
    /// Every GPU of every instance (steps 2-5).
    All,
    /// Only rank 0, all other GPUs idle (the paper's step 1: single-GPU
    /// synthetic training on a multi-GPU machine).
    Single,
}

/// How much of the epoch to actually simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EpochMode {
    /// Simulate every iteration.
    Full,
    /// Simulate `iterations` and extrapolate linearly — sound because DL
    /// iterations are repetitive (the paper's own single-epoch argument).
    Sampled {
        /// Iterations to simulate.
        iterations: u64,
    },
}

/// Complete description of one training run.
#[derive(Debug, Clone, Serialize)]
pub struct TrainConfig {
    /// The cluster to train on.
    pub cluster: ClusterSpec,
    /// The model to train.
    pub model: Model,
    /// Per-GPU mini-batch size.
    pub per_gpu_batch: u64,
    /// Data source.
    pub data: DataMode,
    /// Gradient bucketing policy.
    pub bucketing: Bucketing,
    /// Collective algorithm.
    pub algorithm: Algorithm,
    /// Overlap communication with backward compute (PyTorch DDP
    /// behaviour). Disabling serializes all communication after backward.
    pub overlap: bool,
    /// Participating GPUs.
    pub active: ActiveGpus,
    /// Samples each active GPU processes per epoch.
    pub samples_per_gpu: u64,
    /// Full simulation or sampled extrapolation.
    pub epoch_mode: EpochMode,
    /// Record a per-iteration rank-0 timeline in the report.
    pub record_trace: bool,
    /// Numeric precision (fp32 as in the paper, or AMP).
    pub precision: Precision,
    /// Micro-batches accumulated locally before each gradient
    /// synchronisation (1 = synchronous DDP as in the paper). Larger
    /// values amortise communication over more compute, trading gradient
    /// staleness for lower network stalls.
    pub grad_accumulation: u64,
    /// Failure injection: slow one rank's compute by a factor. In
    /// synchronous data parallelism a single straggler drags the whole
    /// ring (every bucket waits for all ranks).
    pub straggler: Option<Straggler>,
}

/// One deliberately slowed rank (failure injection).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Straggler {
    /// Global rank to slow down.
    pub rank: usize,
    /// Compute-time multiplier (> 1 slows the rank), at most
    /// [`MAX_SLOWDOWN`].
    pub slowdown: f64,
}

impl TrainConfig {
    /// A conventional DDP configuration: all GPUs, synthetic data, ring
    /// all-reduce, per-layer buckets, overlap on, sampled epoch.
    #[must_use]
    pub fn synthetic(
        cluster: ClusterSpec,
        model: Model,
        per_gpu_batch: u64,
        samples_per_gpu: u64,
    ) -> Self {
        TrainConfig {
            cluster,
            model,
            per_gpu_batch,
            data: DataMode::Synthetic,
            bucketing: Bucketing::PerLayer,
            algorithm: Algorithm::Ring,
            overlap: true,
            active: ActiveGpus::All,
            samples_per_gpu,
            epoch_mode: EpochMode::Sampled { iterations: 30 },
            record_trace: false,
            precision: Precision::Fp32,
            grad_accumulation: 1,
            straggler: None,
        }
    }

    /// Number of iterations in the (full) epoch. One iteration covers
    /// `per_gpu_batch x grad_accumulation` samples per GPU.
    #[must_use]
    pub fn epoch_iterations(&self) -> u64 {
        self.samples_per_gpu
            .div_ceil(self.per_gpu_batch.max(1) * self.grad_accumulation.max(1))
    }

    /// Number of iterations actually simulated.
    #[must_use]
    pub fn simulated_iterations(&self) -> u64 {
        match self.epoch_mode {
            EpochMode::Full => self.epoch_iterations(),
            EpochMode::Sampled { iterations } => iterations.min(self.epoch_iterations()),
        }
    }

    /// Validates the configuration (shape errors only; memory checks happen
    /// in the engine, which knows the GPUs).
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::InvalidConfig`] for contradictory settings.
    pub fn validate(&self) -> Result<(), TrainError> {
        if self.per_gpu_batch == 0 {
            return Err(TrainError::InvalidConfig(
                "per_gpu_batch must be positive".into(),
            ));
        }
        if self.samples_per_gpu == 0 {
            return Err(TrainError::InvalidConfig(
                "samples_per_gpu must be positive".into(),
            ));
        }
        if let EpochMode::Sampled { iterations: 0 } = self.epoch_mode {
            return Err(TrainError::InvalidConfig(
                "sampled epoch needs iterations > 0".into(),
            ));
        }
        if self.grad_accumulation == 0 {
            return Err(TrainError::InvalidConfig(
                "grad_accumulation must be positive".into(),
            ));
        }
        if let Some(s) = self.straggler {
            if !(1.0..=MAX_SLOWDOWN).contains(&s.slowdown) {
                return Err(TrainError::InvalidConfig(format!(
                    "straggler slowdown must be a factor from 1 to {MAX_SLOWDOWN}, got {}",
                    s.slowdown
                )));
            }
            if s.rank >= self.cluster.world_size() {
                return Err(TrainError::InvalidConfig(format!(
                    "straggler rank {} out of range (world {})",
                    s.rank,
                    self.cluster.world_size()
                )));
            }
        }
        if self.active == ActiveGpus::Single && !self.data.is_synthetic() {
            return Err(TrainError::InvalidConfig(
                "single-GPU profiling step uses synthetic data only".into(),
            ));
        }
        if self.active == ActiveGpus::Single && self.cluster.node_count() > 1 {
            return Err(TrainError::InvalidConfig(
                "single-GPU step runs on one instance".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_hwtopo::instance::{p3_16xlarge, p3_8xlarge};

    #[test]
    fn synthetic_defaults_are_ddp_like() {
        let cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_16xlarge()),
            stash_dnn::zoo::resnet18(),
            32,
            1000,
        );
        assert!(cfg.data.is_synthetic());
        assert!(cfg.overlap);
        assert_eq!(cfg.algorithm, Algorithm::Ring);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn iteration_counts_round_up() {
        let cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_8xlarge()),
            stash_dnn::zoo::resnet18(),
            32,
            100,
        );
        assert_eq!(cfg.epoch_iterations(), 4);
        assert_eq!(cfg.simulated_iterations(), 4); // capped by the epoch
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::single(p3_8xlarge()),
            stash_dnn::zoo::resnet18(),
            32,
            1000,
        );
        cfg.per_gpu_batch = 0;
        assert!(cfg.validate().is_err());
        cfg.per_gpu_batch = 32;
        cfg.samples_per_gpu = 0;
        assert!(cfg.validate().is_err());
        cfg.samples_per_gpu = 100;
        cfg.active = ActiveGpus::Single;
        cfg.data = DataMode::Real {
            dataset: stash_dnn::dataset::DatasetSpec::imagenet1k(),
            cache: CacheState::Warm,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn single_step_on_multi_node_rejected() {
        let mut cfg = TrainConfig::synthetic(
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
            stash_dnn::zoo::resnet18(),
            32,
            1000,
        );
        cfg.active = ActiveGpus::Single;
        assert!(cfg.validate().is_err());
    }
}
