//! Seeded workload inputs: the instance shapes, the vision models and the
//! draws that turn a `--seed` into cells.
//!
//! Every workload draws whole *rounds*: a seeded shuffle of its full
//! (shape, model[, batch]) set, so each pair appears equally often. The
//! seed changes the order, the batches and the iteration budgets, but not
//! the mix — which keeps a run's cost, and so its timings, comparable
//! across seeds.

use stash::core::profiler::{ProfileJob, Stash};
use stash::dnn::model::Model;
use stash::dnn::zoo;
use stash::gpucompute::memory;
use stash::hwtopo::cluster::ClusterSpec;
use stash::hwtopo::instance::{
    p2_16xlarge, p2_8xlarge, p2_xlarge, p3_16xlarge, p3_24xlarge, p3_2xlarge, p3_8xlarge, p4,
};
use stash::simkit::rng::DetRng;

/// The hardware and models a run draws from, built once per set-up.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// The seven vision models of Table II (BERT is profiled on another
    /// dataset and is left out).
    pub models: Vec<Model>,
    /// The figure grid's instance shapes.
    pub shapes: Vec<ClusterSpec>,
    /// Multi-GPU and multi-node shapes: the ones faults can act on.
    pub chaos_shapes: Vec<ClusterSpec>,
}

impl Catalog {
    /// The full catalog, or a few cheap shapes and models for `--smoke`.
    pub fn new(smoke: bool) -> Catalog {
        let mut models: Vec<Model> = zoo::all_models()
            .into_iter()
            .map(|(m, _)| m)
            .filter(|m| !m.name.starts_with("BERT"))
            .collect();
        if smoke {
            let shapes = vec![
                ClusterSpec::single(p3_2xlarge()),
                ClusterSpec::single(p3_8xlarge()),
                ClusterSpec::homogeneous(p3_2xlarge(), 4),
            ];
            models.retain(|m| ["AlexNet", "SqueezeNet", "VGG11"].contains(&m.name.as_str()));
            return Catalog {
                models,
                chaos_shapes: shapes[1..].to_vec(),
                shapes,
            };
        }
        let shapes = vec![
            ClusterSpec::single(p2_xlarge()),
            ClusterSpec::single(p2_8xlarge()),
            ClusterSpec::single(p2_16xlarge()),
            ClusterSpec::homogeneous(p2_xlarge(), 8),
            ClusterSpec::homogeneous(p2_8xlarge(), 2),
            ClusterSpec::single(p3_2xlarge()),
            ClusterSpec::single(p3_8xlarge()),
            ClusterSpec::single(p3_16xlarge()),
            ClusterSpec::single(p3_24xlarge()),
            ClusterSpec::homogeneous(p3_2xlarge(), 4),
            ClusterSpec::homogeneous(p3_2xlarge(), 8),
            ClusterSpec::homogeneous(p3_8xlarge(), 2),
            ClusterSpec::single(p4()),
        ];
        let chaos_shapes = shapes
            .iter()
            .filter(|s| s.world_size() > 1)
            .cloned()
            .collect();
        Catalog {
            models,
            shapes,
            chaos_shapes,
        }
    }

    /// Every (shape, model) index pair of the figure shapes.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        (0..self.shapes.len())
            .flat_map(|s| (0..self.models.len()).map(move |m| (s, m)))
            .collect()
    }
}

/// Whether `model` at `batch` fits the memory of `cluster`'s GPUs.
pub fn fits(cluster: &ClusterSpec, model: &Model, batch: u64) -> bool {
    cluster
        .instances
        .iter()
        .all(|i| memory::fits(&i.gpu.spec(), model, batch))
}

/// A uniform draw from `lo..=hi`.
pub fn draw(rng: &mut DetRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_below(hi - lo + 1)
}

/// A feasible per-GPU batch in `lo..=hi` for `model` on `cluster`, drawn
/// uniformly from the feasible ones; `None` when none fits.
pub fn feasible_batch(
    rng: &mut DetRng,
    cluster: &ClusterSpec,
    model: &Model,
    lo: u64,
    hi: u64,
) -> Option<u64> {
    let max = (lo..=hi).rev().find(|&b| fits(cluster, model, b))?;
    Some(draw(rng, lo, max))
}

/// A profiler job for `model` on `cluster`.
pub fn job(
    model: &Model,
    cluster: &ClusterSpec,
    batch: u64,
    iterations: Option<u64>,
) -> ProfileJob {
    let mut stash = Stash::new(model.clone()).with_batch(batch);
    if let Some(iterations) = iterations {
        stash = stash.with_sampled_iterations(iterations);
    }
    ProfileJob {
        stash,
        cluster: cluster.clone(),
    }
}

/// Measurement steps a profile of `cluster` runs: steps 1-4, plus step 5
/// across the network for multi-node shapes.
pub fn profile_steps(cluster: &ClusterSpec) -> u64 {
    if cluster.node_count() > 1 {
        5
    } else {
        4
    }
}

/// Splitmix64 finalizer: a well-mixed hash of one word.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded 1-in-20 sample of cells the correctness gate re-checks.
pub fn sampled_for_recheck(seed: u64, cell: u64) -> bool {
    mix(seed ^ mix(cell)).is_multiple_of(20)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_grid_has_the_expected_cells() {
        let c = Catalog::new(false);
        assert_eq!(c.shapes.len(), 13);
        assert_eq!(c.models.len(), 7);
        let cells = c
            .pairs()
            .into_iter()
            .flat_map(|(s, m)| [32, 64, 128].map(|b| (s, m, b)))
            .filter(|&(s, m, b)| fits(&c.shapes[s], &c.models[m], b))
            .count();
        assert_eq!(cells, 262);
    }

    #[test]
    fn chaos_shapes_all_have_several_gpus() {
        for smoke in [false, true] {
            let c = Catalog::new(smoke);
            assert!(!c.chaos_shapes.is_empty());
            assert!(c.chaos_shapes.iter().all(|s| s.world_size() > 1));
        }
    }

    #[test]
    fn feasible_batches_fit_and_draws_repeat() {
        let c = Catalog::new(false);
        let mut a = DetRng::new(3);
        let mut b = DetRng::new(3);
        for (s, m) in c.pairs() {
            let x = feasible_batch(&mut a, &c.shapes[s], &c.models[m], 8, 128);
            assert_eq!(
                x,
                feasible_batch(&mut b, &c.shapes[s], &c.models[m], 8, 128)
            );
            let x = x.expect("batch 8 fits every shape");
            assert!(fits(&c.shapes[s], &c.models[m], x));
        }
    }

    #[test]
    fn recheck_sample_is_about_one_in_twenty() {
        let picked = (0..20_000).filter(|&i| sampled_for_recheck(1, i)).count();
        assert!((800..1200).contains(&picked), "{picked}");
    }
}
