//! The sharded LRU result cache keyed by canonical scenarios.
//!
//! Each shard is an independent `Mutex` around a classic linked-list LRU
//! (slab-backed, O(1) get/insert/evict), so concurrent workers touching
//! different orbits never contend. Shard selection uses the key's own
//! deterministic [`CacheKey::mix`] rather than the process-seeded
//! standard hasher, so a key lands on the same shard in every run.
//!
//! Misses are **single-flight**: the first thread to miss a key claims
//! it and computes; threads missing the same key meanwhile block on the
//! shard's condvar and pick up the finished value instead of re-running
//! the engine. This is what turns a thundering herd of symmetric twins
//! into one engine run. (Correctness never depends on it — values are
//! pure functions of their key — it only avoids duplicate work.)

use rvz_experiments::CacheKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Aggregate cache counters (monotone; read by `/stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Lookups that waited for a concurrent computation of the same key
    /// (single-flight joins; counted as hits as well).
    pub joined: u64,
    /// Entries currently resident.
    pub entries: usize,
}

const NIL: u32 = u32::MAX;

struct Node<V> {
    key: CacheKey,
    value: V,
    prev: u32,
    next: u32,
}

/// One LRU shard: slab of nodes + intrusive recency list + index.
struct Shard<V> {
    map: HashMap<CacheKey, u32>,
    nodes: Vec<Node<V>>,
    free: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    pending: Vec<CacheKey>,
}

impl<V: Clone> Shard<V> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            pending: Vec::new(),
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<V> {
        let i = *self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.nodes[i as usize].value.clone())
    }

    /// Inserts (or refreshes) a value; returns `true` if an eviction
    /// occurred.
    fn insert(&mut self, key: CacheKey, value: V, capacity: usize) -> bool {
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i as usize].value = value;
            self.unlink(i);
            self.push_front(i);
            return false;
        }
        let mut evicted = false;
        if self.map.len() >= capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL, "capacity ≥ 1 and map non-empty");
            self.unlink(lru);
            let old = &self.nodes[lru as usize];
            self.map.remove(&old.key);
            self.free.push(lru);
            evicted = true;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.nodes.push(Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        evicted
    }
}

/// The sharded, single-flight LRU cache.
pub struct ResultCache<V> {
    shards: Vec<(Mutex<Shard<V>>, Condvar)>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    joined: AtomicU64,
}

impl<V: Clone> ResultCache<V> {
    /// Creates a cache holding at most `capacity` entries across
    /// `shards` shards (both floored at 1; shards rounded to a power of
    /// two).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let shard_capacity = capacity.max(1).div_ceil(shards);
        ResultCache {
            shards: (0..shards)
                .map(|_| (Mutex::new(Shard::new()), Condvar::new()))
                .collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            joined: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &(Mutex<Shard<V>>, Condvar) {
        let i = (key.mix() as usize) & (self.shards.len() - 1);
        &self.shards[i]
    }

    /// Looks the key up, refreshing recency; counts a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        let (lock, _) = self.shard(key);
        let value = lock.lock().expect("cache shard poisoned").get(key);
        match value {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        value
    }

    /// Inserts a computed value.
    pub fn insert(&self, key: CacheKey, value: V) {
        let (lock, cvar) = self.shard(&key);
        let evicted = {
            let mut shard = lock.lock().expect("cache shard poisoned");
            shard.pending.retain(|k| k != &key);
            shard.insert(key, value, self.shard_capacity)
        };
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        cvar.notify_all();
    }

    /// Returns the cached value or computes it exactly once across all
    /// concurrent callers of the same key (single-flight).
    ///
    /// The boolean is `true` when the value came from the cache (either
    /// resident or joined from a concurrent computation) and `false`
    /// when this caller ran `compute`. The computed value is returned
    /// to the caller either way, but is only *inserted* when `cacheable`
    /// approves it (e.g. a deadline-exhausted engine outcome is an
    /// artifact of this request's wall clock and must never answer a
    /// future request).
    ///
    /// When the value is rejected the single-flight claim is released
    /// and waiters retry — each then computes under its own conditions
    /// instead of inheriting a non-reusable result.
    pub fn get_or_compute_if<F, P>(&self, key: CacheKey, compute: F, cacheable: P) -> (V, bool)
    where
        F: FnOnce() -> V,
        P: FnOnce(&V) -> bool,
    {
        let (lock, cvar) = self.shard(&key);
        {
            let mut shard = lock.lock().expect("cache shard poisoned");
            let mut waited = false;
            loop {
                if let Some(v) = shard.get(&key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        self.joined.fetch_add(1, Ordering::Relaxed);
                    }
                    return (v, true);
                }
                if shard.pending.contains(&key) {
                    // Someone else is computing this key: wait and retry.
                    waited = true;
                    shard = cvar.wait(shard).expect("cache shard poisoned");
                    continue;
                }
                shard.pending.push(key);
                break;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // If `compute` panics, release the claim so waiters retry
        // instead of hanging forever.
        struct Unclaim<'a, V: Clone> {
            cache: &'a ResultCache<V>,
            key: CacheKey,
            armed: bool,
        }
        impl<V: Clone> Drop for Unclaim<'_, V> {
            fn drop(&mut self) {
                if self.armed {
                    let (lock, cvar) = self.cache.shard(&self.key);
                    lock.lock()
                        .expect("cache shard poisoned")
                        .pending
                        .retain(|k| k != &self.key);
                    cvar.notify_all();
                }
            }
        }
        let mut guard = Unclaim {
            cache: self,
            key,
            armed: true,
        };
        let value = compute();
        if cacheable(&value) {
            guard.armed = false;
            self.insert(key, value.clone());
        } else {
            // Let the guard release the claim: waiters wake, find the
            // key absent, and run their own computation.
            drop(guard);
        }
        (value, false)
    }

    /// Exports every resident entry in recency order: least- to
    /// most-recently-used within each shard, shards in index order.
    ///
    /// Re-inserting the entries in this exact order into an equally
    /// configured cache reproduces every shard's LRU list (keys land on
    /// their shard by [`CacheKey::mix`], and within a shard the last
    /// insert is the most recent) — the property the snapshot
    /// save→load fidelity tests assert. Pending single-flight claims
    /// live outside the node slab and are excluded by construction;
    /// counters are not part of the export (they describe this
    /// process's history, not the cache contents).
    pub fn export(&self) -> Vec<(CacheKey, V)> {
        let mut out = Vec::new();
        for (lock, _) in &self.shards {
            let shard = lock.lock().expect("cache shard poisoned");
            let mut i = shard.tail;
            while i != NIL {
                let node = &shard.nodes[i as usize];
                out.push((node.key, node.value.clone()));
                i = node.prev;
            }
        }
        out
    }

    /// A consistent snapshot of the counters plus resident-entry count.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            joined: self.joined.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|(lock, _)| lock.lock().expect("cache shard poisoned").map.len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvz_experiments::{canonicalize, ScenarioGrid, DEFAULT_GRID};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn keys(n: usize) -> Vec<CacheKey> {
        let speeds: Vec<f64> = (0..n).map(|i| 0.25 + 0.015625 * i as f64).collect();
        ScenarioGrid::new()
            .speeds(&speeds)
            .build()
            .iter()
            .map(|s| canonicalize(s, DEFAULT_GRID).key)
            .collect()
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ResultCache::new(16, 2);
        let k = keys(1)[0];
        assert_eq!(cache.get(&k), None);
        cache.insert(k, 42u64);
        assert_eq!(cache.get(&k), Some(42));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard, capacity 2.
        let cache = ResultCache::new(2, 1);
        let ks = keys(3);
        cache.insert(ks[0], 0u64);
        cache.insert(ks[1], 1u64);
        assert_eq!(cache.get(&ks[0]), Some(0), "refresh k0");
        cache.insert(ks[2], 2u64); // must evict k1, the stalest
        assert_eq!(cache.get(&ks[1]), None);
        assert_eq!(cache.get(&ks[0]), Some(0));
        assert_eq!(cache.get(&ks[2]), Some(2));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn reinserting_a_key_updates_in_place() {
        let cache = ResultCache::new(2, 1);
        let k = keys(1)[0];
        cache.insert(k, 1u64);
        cache.insert(k, 2u64);
        assert_eq!(cache.get(&k), Some(2));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn eviction_churn_reuses_slots() {
        let cache = ResultCache::new(4, 1);
        let ks = keys(64);
        for (i, k) in ks.iter().enumerate() {
            cache.insert(*k, i as u64);
        }
        // Only the four most recent survive.
        for (i, k) in ks.iter().enumerate() {
            assert_eq!(cache.get(k).is_some(), i >= 60, "key {i}");
        }
        assert_eq!(cache.stats().entries, 4);
        assert_eq!(cache.stats().evictions, 60);
    }

    #[test]
    fn single_flight_computes_once_under_contention() {
        let cache = Arc::new(ResultCache::new(64, 4));
        let k = keys(1)[0];
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                let compute = || {
                    computed.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    7u64
                };
                let (v, _) = cache.get_or_compute_if(k, compute, |_| true);
                v
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1, "engine ran once");
    }

    #[test]
    fn export_preserves_recency_and_reimport_reproduces_eviction_order() {
        // Single shard so the recency order is globally observable.
        let cache = ResultCache::new(4, 1);
        let ks = keys(5);
        for (i, k) in ks.iter().enumerate().take(4) {
            cache.insert(*k, i as u64);
        }
        // Refresh k0: eviction order becomes k1, k2, k3, k0.
        assert_eq!(cache.get(&ks[0]), Some(0));
        let exported = cache.export();
        assert_eq!(
            exported.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![1, 2, 3, 0],
            "export walks least- to most-recent"
        );

        // Re-import into a fresh cache and push one more key: the same
        // entry (k1, the stalest) must fall out.
        let restored = ResultCache::new(4, 1);
        for (k, v) in exported {
            restored.insert(k, v);
        }
        restored.insert(ks[4], 4u64);
        assert_eq!(restored.get(&ks[1]), None, "k1 was the LRU on both sides");
        for (i, k) in ks.iter().enumerate() {
            if i != 1 {
                assert_eq!(restored.get(k), Some(i as u64), "key {i}");
            }
        }
    }

    #[test]
    fn export_skips_inflight_single_flight_claims() {
        let cache = Arc::new(ResultCache::new(16, 1));
        let ks = keys(2);
        cache.insert(ks[0], 1u64);
        let started = Arc::new(std::sync::Barrier::new(2));
        let worker = {
            let cache = Arc::clone(&cache);
            let started = Arc::clone(&started);
            let key = ks[1];
            std::thread::spawn(move || {
                let compute = || {
                    started.wait();
                    // Hold the claim open while the main thread exports.
                    std::thread::sleep(std::time::Duration::from_millis(60));
                    2u64
                };
                cache.get_or_compute_if(key, compute, |_| true)
            })
        };
        started.wait();
        let exported = cache.export();
        assert_eq!(
            exported.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![ks[0]],
            "a pending claim is not an entry and must never be exported"
        );
        assert_eq!(worker.join().unwrap(), (2, false));
        assert_eq!(cache.export().len(), 2, "after completion it is");
    }

    #[test]
    fn shard_selection_is_deterministic() {
        let cache = ResultCache::<u64>::new(128, 8);
        for k in keys(16) {
            let a = (k.mix() as usize) & (cache.shards.len() - 1);
            let b = (k.mix() as usize) & (cache.shards.len() - 1);
            assert_eq!(a, b);
        }
    }
}
