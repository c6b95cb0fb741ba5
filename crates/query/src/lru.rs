//! A sharded, byte-capped LRU over pre-serialized response bodies.
//!
//! Query responses are small JSON documents that are expensive to
//! recompute relative to a hash lookup, so the cache stores the exact
//! wire bytes ([`std::sync::Arc`]`<[u8]>`: one allocation the size of
//! the body) keyed by the canonical `u64` of the spec. The key only *finds* an entry: FNV-1a is not
//! collision-resistant, so each entry keeps its [`QuerySpec`] and a hit
//! must match it exactly — two specs whose keys collide never get each
//! other's answer, they take turns in one slot. The byte budget is
//! split evenly across a fixed number of shards, each behind its own
//! mutex, so concurrent server workers rarely contend; eviction is
//! least-recently-used within a shard, driven by a monotonic per-shard
//! tick. The cap is a hard invariant: an insert first evicts until the
//! new body fits, and a body larger than a whole shard is refused
//! outright (the `oversize` counter) rather than wedging the cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::spec::QuerySpec;

/// Shard count: a power of two so the key's high bits pick a shard
/// without bias from the FNV low bits.
const SHARDS: usize = 8;

struct Entry {
    key: u64,
    spec: QuerySpec,
    body: Arc<[u8]>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: Vec<Entry>,
    bytes: usize,
    tick: u64,
}

/// Observed cache behaviour, for `/metrics` and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Bodies admitted.
    pub insertions: u64,
    /// Bodies evicted to make room.
    pub evictions: u64,
    /// Bodies refused because they exceed a whole shard's budget.
    pub oversize: u64,
    /// Bytes currently resident.
    pub bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// The configured byte cap.
    pub capacity_bytes: usize,
}

/// The sharded LRU itself. Cheap to share: all methods take `&self`.
pub struct QueryCache {
    shards: Vec<Mutex<Shard>>,
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    oversize: AtomicU64,
}

impl QueryCache {
    /// Creates a cache bounded to roughly `capacity_bytes` of bodies
    /// (split evenly across shards; each shard holds at least one
    /// byte of budget so a zero cap degenerates to "cache nothing").
    pub fn new(capacity_bytes: usize) -> QueryCache {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: capacity_bytes / SHARDS,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            oversize: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // High bits: FNV-1a mixes them well, and the low bits already
        // steered the entry's position within the shard's scan.
        let index = (key >> 61) as usize % self.shards.len();
        &self.shards[index]
    }

    /// Looks up `spec`'s body under its `key`, refreshing its recency on
    /// a hit. An entry under `key` for a different spec is a miss.
    pub fn get(&self, key: u64, spec: &QuerySpec) -> Option<Arc<[u8]>> {
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard
            .entries
            .iter_mut()
            .find(|e| e.key == key && e.spec == *spec)
        {
            entry.last_used = tick;
            let body = Arc::clone(&entry.body);
            drop(shard);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(body)
        } else {
            drop(shard);
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Admits `spec`'s body under its `key`, evicting least-recently-used
    /// entries until it fits. A body larger than a whole shard's budget
    /// is refused (the response is still served, just never cached).
    /// Returns whether the body was admitted.
    pub fn insert(&self, key: u64, spec: &QuerySpec, body: Arc<[u8]>) -> bool {
        let cost = body.len();
        if cost > self.shard_cap {
            self.oversize.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut evicted = 0u64;
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(pos) = shard.entries.iter().position(|e| e.key == key) {
            // Racing computes of the same spec, or a spec whose key
            // collides: drop the older body and readmit the newer one
            // through the same budget math.
            let gone = shard.entries.swap_remove(pos);
            shard.bytes -= gone.body.len();
        }
        while shard.bytes + cost > self.shard_cap {
            let victim = shard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let gone = shard.entries.swap_remove(i);
                    shard.bytes -= gone.body.len();
                    evicted += 1;
                }
                None => break,
            }
        }
        shard.bytes += cost;
        shard.entries.push(Entry {
            key,
            spec: spec.clone(),
            body,
            last_used: tick,
        });
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        true
    }

    /// A consistent-enough snapshot of the counters and gauges.
    pub fn stats(&self) -> QueryCacheStats {
        let (mut bytes, mut entries) = (0, 0);
        for shard in &self.shards {
            let shard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            bytes += shard.bytes;
            entries += shard.entries.len();
        }
        QueryCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            oversize: self.oversize.load(Ordering::Relaxed),
            bytes,
            entries,
            capacity_bytes: self.shard_cap * self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::QueryKind;

    fn body(len: usize, fill: u8) -> Arc<[u8]> {
        Arc::from(vec![fill; len])
    }

    /// A distinct valid spec per `n`: a csr query reporting `n + 1`.
    fn spec(n: u64) -> QuerySpec {
        QuerySpec {
            kind: QueryKind::Csr,
            reported: Some(n as f64 + 1.0),
            physical: Some(1.0),
            ..QuerySpec::default()
        }
    }

    #[test]
    fn hits_refresh_recency_and_misses_count() {
        let cache = QueryCache::new(8 * 64);
        assert!(cache.get(1, &spec(1)).is_none());
        cache.insert(1, &spec(1), body(10, b'a'));
        assert_eq!(cache.get(1, &spec(1)).unwrap().len(), 10);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.bytes, 10);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        // One shard's budget is 64 bytes; keys 0..3 shifted into the
        // same shard via identical high bits.
        let cache = QueryCache::new(8 * 64);
        let k = |i: u64| (i, spec(i)); // high bits zero: all land in shard 0
        let [(k1, s1), (k2, s2), (k3, s3)] = [k(1), k(2), k(3)];
        cache.insert(k1, &s1, body(30, b'a'));
        cache.insert(k2, &s2, body(30, b'b'));
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.get(k1, &s1).is_some());
        cache.insert(k3, &s3, body(30, b'c'));
        assert!(cache.get(k2, &s2).is_none(), "LRU entry should be evicted");
        assert!(cache.get(k1, &s1).is_some());
        assert!(cache.get(k3, &s3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn refuses_oversize_bodies() {
        let cache = QueryCache::new(8 * 64);
        assert!(!cache.insert(9, &spec(9), body(65, b'x')));
        assert!(cache.get(9, &spec(9)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.oversize, 1);
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn reinserting_a_key_replaces_the_body_in_place() {
        let cache = QueryCache::new(8 * 64);
        cache.insert(5, &spec(5), body(10, b'a'));
        cache.insert(5, &spec(5), body(20, b'b'));
        assert_eq!(cache.get(5, &spec(5)).unwrap().len(), 20);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 20);
    }

    /// Two specs forced under one key never see each other's body: the
    /// key finds the entry, the spec decides the hit.
    #[test]
    fn specs_under_one_key_never_get_each_others_body() {
        let cache = QueryCache::new(8 * 64);
        let (a, b) = (spec(1), spec(2));
        cache.insert(7, &a, body(10, b'a'));
        assert!(cache.get(7, &b).is_none(), "b hit a's body");
        assert_eq!(*cache.get(7, &a).unwrap(), *body(10, b'a'));
        cache.insert(7, &b, body(12, b'b'));
        assert!(cache.get(7, &a).is_none(), "a hit b's body");
        assert_eq!(*cache.get(7, &b).unwrap(), *body(12, b'b'));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!((stats.entries, stats.bytes), (1, 12));
    }

    /// The acceptance invariant: a randomized 1 000-operation stress
    /// never exceeds the byte cap — checked after *every* operation —
    /// and actually exercises eviction.
    #[test]
    fn randomized_stress_never_exceeds_the_cap() {
        let cap = 4096;
        let cache = QueryCache::new(cap);
        // Deterministic SplitMix64 stream: no RNG dependency, same
        // stress every run.
        let mut state = 0x9e37_79b9_97f4_a7c5u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..1000 {
            let r = next();
            let key = r % 257;
            if r % 3 == 0 {
                let _ = cache.get(key, &spec(key));
            } else {
                let len = 1 + (r >> 16) as usize % 200;
                cache.insert(key, &spec(key), body(len, b'z'));
            }
            let stats = cache.stats();
            assert!(
                stats.bytes <= cap,
                "cache holds {} bytes, cap is {cap}",
                stats.bytes
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "stress should evict: {stats:?}");
        assert!(stats.hits > 0 && stats.misses > 0);
    }
}
