//! Page-cache model.
//!
//! DS-Analyzer's fetch-stall methodology hinges on the OS page cache:
//! step 3 trains with caches *cleared* (every read hits the SSD), step 4
//! with the dataset *fully cached* (reads hit DRAM). The model reduces the
//! cache to a deterministic hit fraction: cold epochs always miss, warm
//! epochs hit for whatever fraction of the dataset fits in the page cache.

use serde::{Deserialize, Serialize};
use stash_hwtopo::constants::PAGE_CACHE_FRACTION;

/// Cache temperature of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheState {
    /// OS caches cleared before the epoch (DS-Analyzer step 3).
    Cold,
    /// Dataset resident from a previous epoch (DS-Analyzer step 4).
    Warm,
}

/// Deterministic page-cache hit model for one node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PageCache {
    hit_fraction: f64,
    acc: f64,
}

impl PageCache {
    /// Builds the model for an epoch on a node with `main_memory_bytes`
    /// DRAM streaming a dataset shard of `dataset_bytes`.
    #[must_use]
    pub fn new(state: CacheState, main_memory_bytes: f64, dataset_bytes: f64) -> Self {
        let hit_fraction = match state {
            CacheState::Cold => 0.0,
            CacheState::Warm => {
                if dataset_bytes <= 0.0 {
                    1.0
                } else {
                    (main_memory_bytes * PAGE_CACHE_FRACTION / dataset_bytes).min(1.0)
                }
            }
        };
        PageCache {
            hit_fraction,
            acc: 0.0,
        }
    }

    /// The stationary hit fraction.
    #[must_use]
    pub fn hit_fraction(&self) -> f64 {
        self.hit_fraction
    }

    /// Bits of the error-diffusion accumulator: with the fixed hit
    /// fraction, the whole state behind future hit/miss decisions.
    #[must_use]
    pub fn acc_bits(&self) -> u64 {
        self.acc.to_bits()
    }

    /// Decides whether the next batch read hits the cache. Deterministic:
    /// hits are spread evenly (error-diffusion), so a 0.75 fraction yields
    /// exactly 3 hits out of every 4 calls.
    pub fn next_is_hit(&mut self) -> bool {
        self.acc += self.hit_fraction;
        if self.acc >= 1.0 - 1e-12 {
            self.acc -= 1.0;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_never_hits() {
        let mut c = PageCache::new(CacheState::Cold, 1e12, 1e9);
        assert_eq!(c.hit_fraction(), 0.0);
        assert!((0..100).all(|_| !c.next_is_hit()));
    }

    #[test]
    fn warm_with_big_dram_always_hits() {
        let mut c = PageCache::new(CacheState::Warm, 768e9, 133e9);
        assert_eq!(c.hit_fraction(), 1.0);
        assert!((0..100).all(|_| c.next_is_hit()));
    }

    #[test]
    fn warm_partial_cache_hits_proportionally() {
        // 40 GB usable cache over an 80 GB dataset → 50% hits.
        let mut c = PageCache::new(CacheState::Warm, 50e9, 80e9 * PAGE_CACHE_FRACTION / 0.8);
        let f = c.hit_fraction();
        assert!(f > 0.0 && f < 1.0);
        let hits = (0..1000).filter(|_| c.next_is_hit()).count();
        assert!(
            (hits as f64 - 1000.0 * f).abs() <= 1.0,
            "hits={hits}, f={f}"
        );
    }

    #[test]
    fn empty_dataset_is_always_warm_hit() {
        let c = PageCache::new(CacheState::Warm, 1e9, 0.0);
        assert_eq!(c.hit_fraction(), 1.0);
    }
}
