//! Shared trace cache: generate each workload trace exactly once per
//! batch.
//!
//! A paper-style sweep varies the scheduler (and its suspension factor)
//! over a fixed `(system, jobs, load, seed, estimate-model)` trace, so a
//! 4-scheduler × 5-SF grid regenerates the identical job list twenty
//! times. [`TraceCache`] memoizes generation behind an [`Arc<[Job]>`]: the
//! first requester of a [`TraceKey`] pays the generation cost, everyone
//! else clones a pointer. The cache is thread-safe (the sweep harness
//! shares one across its worker threads) and generation runs outside the
//! lock, so a cold grid never serializes on it. Generation is also
//! single-flight: requesters racing on a cold key wait for the one
//! generation in progress instead of running their own, so hit and miss
//! counts depend only on the request sequence, not on thread timing.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::estimate::EstimateModel;
use crate::job::Job;
use crate::traces::SystemPreset;

/// Everything that determines a generated trace's bytes. Floating-point
/// parameters are keyed by their IEEE bit patterns, so two configurations
/// share a cache entry exactly when they would generate identical traces.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceKey {
    /// Preset name (presets are static, so the name identifies the mix).
    pub system: &'static str,
    /// Trace length in jobs.
    pub n_jobs: usize,
    /// Generator seed.
    pub seed: u64,
    /// `f64::to_bits` of the load factor.
    pub load_bits: u64,
    /// Estimate model discriminant plus its parameters' bit patterns.
    pub estimates: (u8, u64, u64),
    /// Hash of the processor-speed configuration, 0 for the homogeneous
    /// default (see [`TraceKey::with_speed`]). The job list itself is
    /// speed-independent, but batch result caches key whole runs by this
    /// struct — without the field, a heterogeneous run and its homogeneous
    /// twin would collide the same way preemption configs once did.
    pub speed_bits: u64,
}

impl TraceKey {
    /// Key for a synthetic trace of `n_jobs` jobs on `system` at
    /// `load_factor`, with user estimates drawn from `estimates`.
    pub fn new(
        system: SystemPreset,
        n_jobs: usize,
        seed: u64,
        load_factor: f64,
        estimates: &EstimateModel,
    ) -> Self {
        let est = match *estimates {
            EstimateModel::Accurate => (0u8, 0u64, 0u64),
            EstimateModel::Mixture {
                well_fraction,
                max_factor,
            } => (1, well_fraction.to_bits(), max_factor.to_bits()),
            EstimateModel::RoundedMixture {
                well_fraction,
                max_factor,
            } => (2, well_fraction.to_bits(), max_factor.to_bits()),
        };
        TraceKey {
            system: system.name,
            n_jobs,
            seed,
            load_bits: load_factor.to_bits(),
            estimates: est,
            speed_bits: 0,
        }
    }

    /// Fold a processor-speed configuration into the key: `spec` is the
    /// canonical speed spec string and `aware` whether placement is
    /// speed-aware. Callers with the homogeneous default skip this call,
    /// keeping their keys (and cache sharing) byte-identical to the
    /// pre-heterogeneity ones.
    pub fn with_speed(mut self, spec: &str, aware: bool) -> Self {
        // FNV-1a over the spec bytes plus an awareness byte: cheap, stable
        // across runs (unlike `DefaultHasher`), and collision-free for the
        // short canonical spec strings in practice.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in spec.as_bytes().iter().chain(&[b'|', aware as u8]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.speed_bits = h;
        self
    }
}

/// One cached trace plus its LRU clock reading.
struct Entry {
    jobs: Arc<[Job]>,
    last_use: u64,
}

/// A generation in progress: the first requester of a cold key fills it,
/// later ones block on it until it is filled.
type Flight = Arc<OnceLock<Arc<[Job]>>>;

/// The lock-guarded interior: the entry map plus the LRU accounting.
#[derive(Default)]
struct Inner {
    entries: HashMap<TraceKey, Entry>,
    /// Cold keys being generated right now.
    inflight: HashMap<TraceKey, Flight>,
    /// Monotone access clock driving LRU order.
    tick: u64,
    /// Resident bytes across all entries (job payloads only).
    bytes: usize,
}

impl Inner {
    fn touch(&mut self, key: &TraceKey) -> Option<Arc<[Job]>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_use = tick;
            Arc::clone(&e.jobs)
        })
    }
}

/// Resident payload size of a trace.
fn trace_bytes(jobs: &Arc<[Job]>) -> usize {
    jobs.len() * std::mem::size_of::<Job>()
}

/// A memoized map from [`TraceKey`] to immutable shared traces, with an
/// optional LRU byte budget ([`TraceCache::with_byte_budget`]). Without a
/// budget every generated trace is retained forever — right for paper
/// grids that revisit a handful of traces; archive-scale sweeps over many
/// distinct traces cap residency instead, spilling the least-recently-used
/// entries (outstanding [`Arc`] clones keep in-flight runs valid; the
/// cache merely drops its own reference, so a re-request regenerates).
#[derive(Default)]
pub struct TraceCache {
    map: Mutex<Inner>,
    budget: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl TraceCache {
    /// An empty cache with unbounded residency.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// An empty cache that keeps at most ~`bytes` of trace payload
    /// resident, evicting least-recently-used entries past that. The most
    /// recent trace is always retained, so a budget smaller than one
    /// trace degrades to per-trace memoization rather than thrashing.
    pub fn with_byte_budget(bytes: usize) -> Self {
        TraceCache {
            budget: Some(bytes),
            ..TraceCache::default()
        }
    }

    /// The trace for `key`, generating it with `generate` on first
    /// request. Generation runs outside the lock and once per cold key:
    /// a thread requesting a key another thread is generating waits for
    /// that trace and counts as a hit.
    pub fn get_or_generate(
        &self,
        key: TraceKey,
        generate: impl FnOnce() -> Vec<Job>,
    ) -> Arc<[Job]> {
        let flight = {
            let mut inner = self.map.lock().expect("cache lock");
            if let Some(hit) = inner.touch(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
            Arc::clone(inner.inflight.entry(key).or_default())
        };
        let mut generated = false;
        let jobs = Arc::clone(flight.get_or_init(|| {
            generated = true;
            generate().into()
        }));
        if !generated {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return jobs;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.map.lock().expect("cache lock");
        inner.inflight.remove(&key);
        inner.tick += 1;
        let last_use = inner.tick;
        inner.bytes += trace_bytes(&jobs);
        let entry = Entry {
            jobs: Arc::clone(&jobs),
            last_use,
        };
        if let Some(stale) = inner.entries.insert(key, entry) {
            inner.bytes -= trace_bytes(&stale.jobs);
        }
        if let Some(budget) = self.budget {
            while inner.bytes > budget && inner.entries.len() > 1 {
                let oldest = inner
                    .entries
                    .iter()
                    .filter(|(k, _)| **k != key)
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(k, _)| *k);
                let Some(victim) = oldest else { break };
                if let Some(e) = inner.entries.remove(&victim) {
                    inner.bytes -= trace_bytes(&e.jobs);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        jobs
    }

    /// Distinct traces currently resident.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").entries.len()
    }

    /// Resident trace payload bytes.
    pub fn resident_bytes(&self) -> usize {
        self.map.lock().expect("cache lock").bytes
    }

    /// Entries spilled to stay under the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to generate.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The trace for `key` as a caching [`JobSource`]: the first request
    /// generates, later requests replay the shared `Arc<[Job]>` without a
    /// copy. This is how sweep workers feed cached traces through the
    /// same source seam open-system generators use.
    pub fn source(
        &self,
        key: TraceKey,
        generate: impl FnOnce() -> Vec<Job>,
    ) -> crate::source::TraceSource {
        crate::source::TraceSource::shared(self.get_or_generate(key, generate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;
    use crate::traces::SDSC;

    fn gen(seed: u64) -> Vec<Job> {
        SyntheticConfig::new(SDSC, seed).with_jobs(50).generate()
    }

    #[test]
    fn caches_by_key_and_counts() {
        let cache = TraceCache::new();
        let key = TraceKey::new(SDSC, 50, 7, 1.0, &EstimateModel::Accurate);
        let a = cache.get_or_generate(key, || gen(7));
        let b = cache.get_or_generate(key, || panic!("second request must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

        let other = TraceKey::new(SDSC, 50, 8, 1.0, &EstimateModel::Accurate);
        let c = cache.get_or_generate(other, || gen(8));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn keys_separate_estimate_models_and_loads() {
        let mix = EstimateModel::Mixture {
            well_fraction: 0.5,
            max_factor: 10.0,
        };
        let base = TraceKey::new(SDSC, 50, 7, 1.0, &EstimateModel::Accurate);
        assert_ne!(base, TraceKey::new(SDSC, 50, 7, 1.0, &mix));
        assert_ne!(
            base,
            TraceKey::new(SDSC, 50, 7, 1.25, &EstimateModel::Accurate)
        );
        assert_eq!(
            base,
            TraceKey::new(SDSC, 50, 7, 1.0, &EstimateModel::Accurate)
        );
    }

    #[test]
    fn keys_separate_speed_configs() {
        let base = TraceKey::new(SDSC, 50, 7, 1.0, &EstimateModel::Accurate);
        let tiers = base.with_speed("tiers:0.5x64+1.0x64", true);
        let blind = base.with_speed("tiers:0.5x64+1.0x64", false);
        assert_ne!(base, tiers, "heterogeneous runs get their own key");
        assert_ne!(tiers, blind, "placement awareness is part of the key");
        assert_eq!(tiers, base.with_speed("tiers:0.5x64+1.0x64", true));
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let per_trace = 50 * std::mem::size_of::<Job>();
        // Room for two traces, not three.
        let cache = TraceCache::with_byte_budget(2 * per_trace + per_trace / 2);
        let key = |seed| TraceKey::new(SDSC, 50, seed, 1.0, &EstimateModel::Accurate);
        let a = cache.get_or_generate(key(1), || gen(1));
        let _b = cache.get_or_generate(key(2), || gen(2));
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        let a2 = cache.get_or_generate(key(1), || panic!("must hit"));
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = cache.get_or_generate(key(3), || gen(3));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.resident_bytes() <= 2 * per_trace + per_trace / 2);
        // `a` survived (recently used); `b` regenerates on re-request.
        cache.get_or_generate(key(1), || panic!("a was evicted"));
        let miss_before = cache.misses();
        cache.get_or_generate(key(2), || gen(2));
        assert_eq!(cache.misses(), miss_before + 1, "b was spilled");
    }

    #[test]
    fn budget_smaller_than_one_trace_keeps_latest() {
        let cache = TraceCache::with_byte_budget(1);
        let key = |seed| TraceKey::new(SDSC, 50, seed, 1.0, &EstimateModel::Accurate);
        let a = cache.get_or_generate(key(1), || gen(1));
        assert_eq!(a.len(), 50);
        assert_eq!(cache.len(), 1, "most recent trace always retained");
        let b = cache.get_or_generate(key(2), || gen(2));
        assert_eq!(b.len(), 50);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn shared_trace_is_concurrently_reachable() {
        let cache = TraceCache::new();
        let key = TraceKey::new(SDSC, 50, 3, 1.0, &EstimateModel::Accurate);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let t = cache.get_or_generate(key, || gen(3));
                    assert_eq!(t.len(), 50);
                });
            }
        });
        assert_eq!(cache.len(), 1, "one entry regardless of racing requesters");
    }

    #[test]
    fn racing_requesters_generate_a_cold_key_once() {
        let cache = TraceCache::new();
        let key = TraceKey::new(SDSC, 50, 3, 1.0, &EstimateModel::Accurate);
        let generations = AtomicU64::new(0);
        let barrier = std::sync::Barrier::new(4);
        let traces: Vec<Arc<[Job]>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        cache.get_or_generate(key, || {
                            generations.fetch_add(1, Ordering::Relaxed);
                            // Hold the generation open so the others most
                            // likely arrive while the key is cold; the
                            // assertions hold for any interleaving.
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            gen(3)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(generations.load(Ordering::Relaxed), 1, "one generation");
        assert_eq!((cache.misses(), cache.hits()), (1, 3));
        assert!(traces.iter().all(|t| Arc::ptr_eq(t, &traces[0])));
    }
}
