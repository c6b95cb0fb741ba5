//! The pre-serialized response cache: warm requests skip rendering.
//!
//! The artifact cache memoizes *computed results*; this cache memoizes
//! the *responses* built from them — status, content type and the
//! body's wire bytes — keyed by the request shape (`path`, query string,
//! `Accept` variant). A warm request on its connection thread is then
//! parse → key → one lookup → head → `writev`, never re-rendering JSON
//! and never taking a compute slot. The head is rendered per hit for
//! the request's persistence mode, by the same
//! [`Response::head_bytes`] every computed response goes through, so an
//! entry holds no copy of it and a hit's head cannot drift from a
//! compute's.
//!
//! Only safe entries are admitted, by the request handler in `conn.rs`:
//! `GET` requests answering `200` on the immutable-content routes
//! (`/experiments`, `/experiments/{id}`, `/query`, `/query/schema`).
//! Those bodies are deterministic for the lifetime of the process — the
//! artifact cache memoizes forever and query answers are canonical — so
//! entries can never go stale. `/healthz` and `/metrics` change per
//! request and are never cached; non-200s (404 rosters, failure bodies)
//! are recomputed so retry semantics stay live. A `/query` entry shares
//! its body with the query engine's LRU — one allocation, referenced
//! from both — so the answer's bytes are held once; the entry adds only
//! its key.
//!
//! Eviction is LRU under a hard byte cap, mirroring the query engine's
//! LRU discipline: a logical tick orders entries, eviction removes the
//! least-recently-used until the newcomer fits, and an entry larger
//! than the whole cap is refused outright. An entry's cost is its key
//! plus its body, counted even when the body is shared, so the cap also
//! bounds the bytes this cache keeps alive after the query LRU lets
//! them go. Lookups scan a flat `Vec` guarded by one mutex — entry
//! counts are small (bounded by the registry + query working set under
//! the byte cap) and the scan compares a precomputed 64-bit key hash,
//! in 32-byte entries whose key and response sit behind a pointer,
//! before ever touching the key string, so the warm path stays cheap and
//! deterministic (no hash-order iteration anywhere).

use std::sync::{Mutex, PoisonError};

use accelwall_query::canon::fnv1a;

use crate::http::Response;
use crate::metrics::Route;

/// A point-in-time snapshot of the cache counters for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RespCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the request was computed).
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries evicted to fit newcomers under the byte cap.
    pub evictions: u64,
    /// Live entries.
    pub entries: u64,
    /// Bytes currently held (bodies + keys).
    pub bytes: u64,
    /// The configured byte cap.
    pub capacity_bytes: u64,
}

struct Entry {
    /// FNV-1a of the key, compared before the key string on lookup.
    hash: u64,
    last_used: u64,
    /// Key plus body bytes, what the entry counts against the cap.
    cost: usize,
    /// Behind a pointer, so a lookup's scan walks 32-byte entries.
    cached: Box<Cached>,
}

/// What an entry holds past its scan fields.
struct Cached {
    key: Box<str>,
    /// The route label the original compute was observed under.
    route: Route,
    /// Status, content type and the shared body.
    response: Response,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    bytes: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// The byte cap the server gives its response cache.
pub const CAPACITY_BYTES: usize = 4 * 1024 * 1024;

/// The cache itself: one mutex over a flat entry list (see module docs
/// for why that is enough).
pub struct ResponseCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResponseCache")
            .field("capacity", &self.capacity)
            .field("entries", &stats.entries)
            .field("bytes", &stats.bytes)
            .finish_non_exhaustive()
    }
}

impl ResponseCache {
    /// An empty cache capped at `capacity` bytes.
    pub fn new(capacity: usize) -> ResponseCache {
        ResponseCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Looks `key` up, refreshing its LRU position on a hit: the route
    /// the original compute was observed under, and the response, whose
    /// body the copy shares.
    pub fn get(&self, key: &str) -> Option<(Route, Response)> {
        let hash = fnv1a(key.as_bytes());
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && *e.cached.key == *key)
        {
            Some(entry) => {
                entry.last_used = tick;
                let hit = (entry.cached.route, entry.cached.response.clone());
                inner.hits += 1;
                Some(hit)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Admits one response under `key`, sharing its body. A duplicate
    /// key (two connection threads racing the same compute) keeps the
    /// incumbent; an entry larger than the whole cap is refused;
    /// otherwise LRU entries are evicted until it fits.
    pub fn insert(&self, key: &str, route: Route, response: &Response) {
        let cost = key.len() + response.body.len();
        if cost > self.capacity {
            return;
        }
        let hash = fnv1a(key.as_bytes());
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner
            .entries
            .iter()
            .any(|e| e.hash == hash && *e.cached.key == *key)
        {
            return;
        }
        while inner.bytes + cost > self.capacity {
            let Some(oldest) = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            else {
                break;
            };
            let evicted = inner.entries.swap_remove(oldest);
            inner.bytes -= evicted.cost;
            inner.evictions += 1;
        }
        inner.tick += 1;
        let last_used = inner.tick;
        inner.bytes += cost;
        inner.insertions += 1;
        inner.entries.push(Entry {
            hash,
            last_used,
            cost,
            cached: Box::new(Cached {
                key: key.into(),
                route,
                response: response.clone(),
            }),
        });
    }

    /// A counter snapshot for the `/metrics` rendering.
    pub fn stats(&self) -> RespCacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        RespCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.entries.len() as u64,
            bytes: inner.bytes as u64,
            capacity_bytes: self.capacity as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entry(key: &str, body: &str) -> (String, Response) {
        (key.to_string(), Response::json(200, body))
    }

    #[test]
    fn hits_share_the_response_and_render_its_head_per_mode() {
        let cache = ResponseCache::new(4096);
        let (key, response) = entry("exp:fig3a:j", "{\"x\": 1}\n");
        assert!(cache.get(&key).is_none());
        cache.insert(&key, Route::Experiment, &response);
        let (route, hit) = cache.get(&key).expect("inserted entry");
        assert_eq!((route, hit.status), (Route::Experiment, 200));
        assert!(Arc::ptr_eq(&hit.body, &response.body), "body was copied");
        for keep_alive in [true, false] {
            assert_eq!(hit.head_bytes(keep_alive), response.head_bytes(keep_alive));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.bytes as usize, key.len() + response.body.len());
    }

    #[test]
    fn lru_evicts_under_the_byte_cap_and_refuses_oversize() {
        // Measure one entry's true cost (key + body), then cap the cache
        // at four-and-a-half entries.
        let probe = ResponseCache::new(1 << 20);
        let (key, response) = entry("exp:fig0:j", &"x".repeat(64));
        probe.insert(&key, Route::Experiment, &response);
        let cost = probe.stats().bytes as usize;
        let cache = ResponseCache::new(4 * cost + cost / 2);
        for i in 0..4 {
            let (key, response) = entry(&format!("exp:fig{i}:j"), &"x".repeat(64));
            cache.insert(&key, Route::Experiment, &response);
        }
        // Touch the oldest so eviction order reflects use, not insertion.
        assert!(cache.get("exp:fig0:j").is_some());
        let (key, response) = entry("exp:fig4:j", &"y".repeat(64));
        cache.insert(&key, Route::Experiment, &response);
        let stats = cache.stats();
        assert!(stats.evictions >= 1, "{stats:?}");
        assert!(stats.bytes <= stats.capacity_bytes, "{stats:?}");
        assert!(cache.get("exp:fig0:j").is_some(), "recently-used evicted");
        assert!(cache.get("exp:fig1:j").is_none(), "LRU survived");
        // An entry bigger than the whole cap is refused, not thrashed.
        let before = cache.stats();
        let (key, response) = entry("exp:huge:j", &"z".repeat(4096));
        cache.insert(&key, Route::Experiment, &response);
        assert_eq!(cache.stats().insertions, before.insertions);
    }

    #[test]
    fn duplicate_keys_keep_the_incumbent() {
        let cache = ResponseCache::new(4096);
        let (key, first) = entry("roster", "[1]\n");
        cache.insert(&key, Route::Experiments, &first);
        let (_, second) = entry("roster", "[2]\n");
        cache.insert(&key, Route::Experiments, &second);
        assert_eq!(cache.stats().insertions, 1);
        assert_eq!(cache.get(&key).expect("entry").1.body, first.body);
    }
}
