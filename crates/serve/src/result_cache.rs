//! LRU result cache keyed on (clip-hash, preset).
//!
//! [`crate::store`] remembers individual jobs; this cache remembers
//! *answers*. Two submissions with the same clip and effective preset
//! produce bit-identical masks (the batch runtime's determinism
//! guarantee), so the second never needs a worker: the server replays
//! the first's scores from here, which is the path that turns repeated
//! layout traffic — the common case in a shared OPC service — into
//! O(1) responses. It complements [`mosaic_runtime::SimCache`], which
//! only amortizes kernel-bank construction for *concurrent* same-optics
//! jobs but still pays the full optimization per clip.
//!
//! The key is an FNV-1a hash of the canonical parameter string
//! ([`crate::protocol::SubmitParams::cache_key`]); eviction is
//! least-recently-used under a fixed entry capacity. Only cleanly
//! finished jobs are admitted — salvaged partials and failures must
//! not be replayed as authoritative answers.

use mosaic_runtime::JobOutcome;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// FNV-1a 64-bit, the same checksum family the checkpoint format uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One cached answer.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The producing job's outcome (metrics, iterations, wall time).
    pub outcome: JobOutcome,
    /// Id of the job whose completed run populated this entry.
    pub source_job: String,
}

#[derive(Debug)]
struct Entry {
    result: CachedResult,
    /// Monotonic recency stamp; smallest is evicted first.
    stamp: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<u64, Entry>,
    clock: u64,
    hits: usize,
    misses: usize,
    insertions: usize,
    evictions: usize,
}

/// Cache counters for the `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Entries currently held.
    pub len: usize,
    /// Entry capacity (0 = caching disabled).
    pub capacity: usize,
    /// Entries admitted in total.
    pub insertions: usize,
    /// Entries evicted by the LRU policy.
    pub evictions: usize,
}

/// Thread-safe LRU result cache.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding up to `capacity` answers; 0 disables caching
    /// (every lookup misses, nothing is admitted).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(CacheInner::default()),
            capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hashes a canonical key string into the cache's key space.
    pub fn fingerprint(key: &str) -> u64 {
        fnv1a(key.as_bytes())
    }

    /// Looks an answer up, refreshing its recency on a hit.
    pub fn get(&self, fingerprint: u64) -> Option<CachedResult> {
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        match inner.map.get_mut(&fingerprint) {
            Some(entry) => {
                entry.stamp = stamp;
                let result = entry.result.clone();
                inner.hits += 1;
                Some(result)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Admits an answer, evicting the least recently used entry when
    /// the cache is full. No-op at capacity 0.
    pub fn put(&self, fingerprint: u64, result: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        if inner.map.len() >= self.capacity && !inner.map.contains_key(&fingerprint) {
            // Linear LRU scan: capacities are operator-sized (hundreds,
            // not millions), and eviction is off the submit fast path.
            if let Some(&oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                inner.map.remove(&oldest);
                inner.evictions += 1;
            }
        }
        inner.map.insert(fingerprint, Entry { result, stamp });
        inner.insertions += 1;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            len: inner.map.len(),
            capacity: self.capacity,
            insertions: inner.insertions,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str) -> CachedResult {
        CachedResult {
            outcome: JobOutcome::cancelled(1, None),
            source_job: tag.to_string(),
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_refreshes_recency() {
        let cache = ResultCache::new(2);
        cache.put(1, result("a"));
        cache.put(2, result("b"));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.put(3, result("c"));
        assert!(cache.get(2).is_none(), "2 was least recently used");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.put(1, result("a"));
        assert!(cache.get(1).is_none());
        let s = cache.stats();
        assert_eq!(s.len, 0);
        assert_eq!(s.insertions, 0);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let cache = ResultCache::new(1);
        cache.put(7, result("a"));
        cache.put(7, result("b"));
        assert_eq!(cache.get(7).map(|r| r.source_job), Some("b".to_string()));
        assert_eq!(cache.stats().evictions, 0);
    }
}
