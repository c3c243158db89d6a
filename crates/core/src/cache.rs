//! Measurement memoization.
//!
//! The paper's pitch is pay-once characterization: identical measurements
//! should never be simulated twice. [`MeasurementCache`] memoizes
//! [`run_epoch`] results keyed by a canonical hash of the full
//! [`TrainConfig`] — model, batch, dataset, cluster, active GPUs, data
//! mode, collective algorithm, precision and sampled iterations all feed
//! the key, so two configs collide only when the simulation they describe
//! is identical (and therefore, the engine being deterministic, so is the
//! result).
//!
//! The cache is shared: `&MeasurementCache` is [`Sync`], so the parallel
//! profiler's worker threads and the sweep pool's jobs
//! ([`par_profile_many`], `run_sweep`) all hit one map. Within a single
//! profile this deduplicates nothing (the five steps differ), but across
//! a sweep it collapses the repeated reference-instance measurements —
//! e.g. steps 1/2 of every multi-node p3 cluster re-measure the same
//! `p3.16xlarge` epochs, often on two workers at once, which is why a
//! miss is single-flight.
//!
//! [`run_epoch`]: stash_ddl::engine::run_epoch
//! [`par_profile_many`]: crate::profiler::par_profile_many

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use serde::Serialize;
use stash_ddl::config::TrainConfig;
use stash_ddl::engine::{EngineArena, Run};
use stash_simkit::time::SimDuration;
use stash_store::fnv128;

use crate::error::ProfileError;

/// Snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the engine.
    pub misses: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A thread-safe memo of epoch measurements keyed by training config.
///
/// # Examples
///
/// ```
/// use stash_core::cache::MeasurementCache;
/// use stash_core::profiler::Stash;
/// use stash_dnn::zoo;
/// use stash_hwtopo::prelude::*;
///
/// let cache = MeasurementCache::new();
/// let stash = Stash::new(zoo::resnet18()).with_sampled_iterations(3);
/// let cluster = ClusterSpec::single(p3_16xlarge());
/// let cold = stash.profile_cached(&cluster, &cache)?;
/// let warm = stash.profile_cached(&cluster, &cache)?;
/// assert_eq!(cold, warm); // bit-identical
/// assert!(cache.stats().hits >= 4); // second run fully served from cache
/// # Ok::<(), stash_core::error::ProfileError>(())
/// ```
#[derive(Debug, Default)]
pub struct MeasurementCache {
    entries: Mutex<Entries>,
    /// Signalled whenever an in-flight measurement settles.
    settled: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The memo plus the keys some thread is simulating right now.
#[derive(Debug, Default)]
struct Entries {
    done: HashMap<u128, SimDuration>,
    in_flight: HashSet<u128>,
}

/// A thread's claim on simulating one key. Dropping it — after the
/// result is stored, or on an engine error or panic — releases the key
/// and wakes the threads waiting for it, so a failed measurement never
/// leaves them blocked.
struct Claim<'a> {
    cache: &'a MeasurementCache,
    key: u128,
}

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        // Removing a key keeps the map valid whatever the poisoning
        // thread was doing, and a Drop must not panic.
        let mut entries = match self.cache.entries.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        entries.in_flight.remove(&self.key);
        self.cache.settled.notify_all();
    }
}

impl MeasurementCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> MeasurementCache {
        MeasurementCache::default()
    }

    /// Acquires the entry map, preserving the poisoning panic the public
    /// accessors document (a poisoned cache means a measurement thread
    /// died mid-insert; results can no longer be trusted).
    fn locked(&self) -> MutexGuard<'_, Entries> {
        match self.entries.lock() {
            Ok(guard) => guard,
            Err(_) => panic!("cache poisoned"),
        }
    }

    /// Number of distinct measurements stored.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locked().done.len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Drops every stored measurement (counters are kept). Each dropped
    /// entry counts as an eviction in the telemetry registry.
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn clear(&self) {
        let mut entries = self.locked();
        let evicted = entries.done.len() as u64;
        entries.done.clear();
        stash_telemetry::metrics::CACHE_EVICTIONS.add(evicted);
    }

    /// The epoch time for `cfg`, simulated on first request (inside the
    /// caller's `arena`, so a loop over many configurations reuses one
    /// simulator allocation) and memoized after. The engine is
    /// deterministic, so a cached result is bit-identical to a fresh run.
    ///
    /// The engine runs outside the lock, and a miss is single-flight:
    /// concurrent requests for a key another thread is simulating wait
    /// for its result and count as hits. So each distinct key costs one
    /// simulation and one miss however the requests interleave; only an
    /// engine error lets a waiter retry (and fail the same way). Waiting
    /// cannot deadlock because a claimed key's simulation (one engine
    /// run) never consults the cache.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (which are never cached).
    ///
    /// # Panics
    ///
    /// Panics if the cache mutex was poisoned.
    pub fn epoch_time(
        &self,
        cfg: &TrainConfig,
        arena: &mut EngineArena,
    ) -> Result<SimDuration, ProfileError> {
        let key = config_key(cfg);
        let mut entries = self.locked();
        loop {
            if let Some(&t) = entries.done.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                stash_telemetry::metrics::CACHE_HITS.inc();
                return Ok(t);
            }
            if entries.in_flight.insert(key) {
                break;
            }
            entries = match self.settled.wait(entries) {
                Ok(guard) => guard,
                Err(_) => panic!("cache poisoned"),
            };
        }
        drop(entries);
        let claim = Claim { cache: self, key };
        self.misses.fetch_add(1, Ordering::Relaxed);
        stash_telemetry::metrics::CACHE_MISSES.inc();
        let t = Run {
            arena: Some(arena),
            ..Run::default()
        }
        .epoch(cfg)?
        .report
        .epoch_time;
        self.locked().done.insert(key, t);
        drop(claim);
        Ok(t)
    }
}

/// Canonical cache key: FNV-1a (128-bit, [`fnv128`]) over the config's
/// canonical JSON, streamed without building a `Value` tree.
///
/// Serialization is field-ordered and deterministic, so equal configs hash
/// equal; 128 bits make accidental collisions between distinct configs
/// negligible.
#[must_use]
pub fn config_key(cfg: &TrainConfig) -> u128 {
    let Ok(canonical) = serde_json::to_string(cfg) else {
        unreachable!("TrainConfig serialization is infallible")
    };
    fnv128(canonical.as_bytes())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use stash_datapipe::cache::CacheState;
    use stash_ddl::config::{ActiveGpus, DataMode, EpochMode, Straggler};
    use stash_ddl::engine::run_epoch;
    use stash_dnn::dataset::DatasetSpec;
    use stash_dnn::zoo;
    use stash_hwtopo::cluster::ClusterSpec;
    use stash_hwtopo::instance::{catalog, p3_8xlarge};

    fn cfg() -> TrainConfig {
        let mut c = TrainConfig::synthetic(
            ClusterSpec::single(p3_8xlarge()),
            zoo::resnet18(),
            32,
            2_000,
        );
        c.epoch_mode = stash_ddl::config::EpochMode::Sampled { iterations: 3 };
        c
    }

    #[test]
    fn identical_configs_share_a_key() {
        assert_eq!(config_key(&cfg()), config_key(&cfg()));
    }

    #[test]
    fn differing_fields_change_the_key() {
        let base = cfg();
        let mut batch = cfg();
        batch.per_gpu_batch = 64;
        let mut active = cfg();
        active.active = ActiveGpus::Single;
        assert_ne!(config_key(&base), config_key(&batch));
        assert_ne!(config_key(&base), config_key(&active));
    }

    #[test]
    fn config_keys_match_the_value_tree_derivation() {
        // The derivation caches were keyed with before keys were streamed.
        let tree_key = |cfg: &TrainConfig| {
            fnv128(
                serde_json::to_string(&cfg.to_json_value())
                    .unwrap()
                    .as_bytes(),
            )
        };
        for (model, _) in zoo::all_models() {
            for inst in catalog() {
                for nodes in [1, 2] {
                    let cluster = ClusterSpec::homogeneous(inst.clone(), nodes);
                    let synthetic = TrainConfig::synthetic(cluster, model.clone(), 32, 2_000);
                    let mut single = synthetic.clone();
                    single.active = ActiveGpus::Single;
                    let mut cold = synthetic.clone();
                    cold.data = DataMode::Real {
                        dataset: DatasetSpec::imagenet1k(),
                        cache: CacheState::Cold,
                    };
                    let mut warm = synthetic.clone();
                    warm.data = DataMode::Real {
                        dataset: DatasetSpec::squad2(),
                        cache: CacheState::Warm,
                    };
                    warm.epoch_mode = EpochMode::Full;
                    warm.straggler = Some(Straggler {
                        rank: 0,
                        slowdown: 1.5,
                    });
                    warm.record_trace = true;
                    for cfg in [synthetic, single, cold, warm] {
                        assert_eq!(
                            config_key(&cfg),
                            tree_key(&cfg),
                            "{} on {}",
                            cfg.model.name,
                            cfg.cluster.display_name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn second_lookup_hits_and_matches() {
        let cache = MeasurementCache::new();
        let first = cache.epoch_time(&cfg(), &mut EngineArena::new()).unwrap();
        let second = cache.epoch_time(&cfg(), &mut EngineArena::new()).unwrap();
        assert_eq!(first, second);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        assert!((cache.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    /// `threads` concurrent lookups of `cfg`, released together.
    fn concurrent_lookups(
        cache: &MeasurementCache,
        cfg: &TrainConfig,
        threads: usize,
    ) -> Vec<Result<SimDuration, ProfileError>> {
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        cache.epoch_time(cfg, &mut EngineArena::new())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn concurrent_misses_on_one_key_simulate_once() {
        let cache = MeasurementCache::new();
        let results = concurrent_lookups(&cache, &cfg(), 4);
        let direct = run_epoch(&cfg()).unwrap().epoch_time;
        assert!(results.iter().all(|r| *r.as_ref().unwrap() == direct));
        assert_eq!(cache.stats(), CacheStats { hits: 3, misses: 1 });
    }

    #[test]
    fn failed_measurements_release_their_waiters() {
        let cache = MeasurementCache::new();
        let mut oom = cfg();
        oom.per_gpu_batch = 1 << 20;
        let results = concurrent_lookups(&cache, &oom, 3);
        assert!(results.iter().all(Result::is_err));
        // Errors are never cached: every lookup ran the engine.
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 3 });
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_empties_entries_but_keeps_counters() {
        let cache = MeasurementCache::new();
        cache.epoch_time(&cfg(), &mut EngineArena::new()).unwrap();
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn cached_value_matches_direct_engine_run() {
        let cache = MeasurementCache::new();
        let via_cache = cache.epoch_time(&cfg(), &mut EngineArena::new()).unwrap();
        let direct = run_epoch(&cfg()).unwrap().epoch_time;
        assert_eq!(via_cache, direct);
    }
}
