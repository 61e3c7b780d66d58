//! A small bounded LRU map for the dynamic solver's per-component result caches.
//!
//! The dynamic solver drops the results of components that left the reduced graph
//! on the first query after a commit, so an unbounded cache holds one entry per live
//! component and query shape (model, and pool capacity or minimum size). The shapes
//! are the clients' to choose, so a long-lived `maxfaircliqued` should bound them.
//! [`LruCache`] bounds the entry count with least-recently-used eviction and counts
//! hits, misses and evictions so a `stats` request can report cache health.
//!
//! The implementation is deliberately simple: a `HashMap` of `(value, last-use tick)`
//! with an `O(len)` scan on eviction. Capacities are small (hundreds to a few
//! thousand entries of whole-component answers), evictions are rare relative to
//! lookups, and the values are `Arc`s — so the scan never shows up next to an actual
//! branch-and-bound search.

use std::collections::HashMap;
use std::hash::Hash;

/// Counters describing one [`LruCache`]'s lifetime behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident.
    pub len: usize,
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries evicted to make room (not counting [`retain`](LruCache::retain)).
    pub evictions: u64,
}

impl CacheStats {
    /// Sums another cache's counters into this one (for aggregating across the
    /// per-`(k, config)` entries of a dynamic solver).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.len += other.len;
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
    }
}

/// A hash map bounded to `capacity` entries with least-recently-used eviction.
///
/// `capacity = None` means unbounded (the default for batch workloads). A capacity
/// of `0` is treated as "cache nothing": every insert is dropped on the floor and
/// counted as an eviction.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
    capacity: Option<usize>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache holding at most `capacity` entries (`None` = unbounded).
    pub fn new(capacity: Option<usize>) -> Self {
        Self {
            map: HashMap::new(),
            tick: 0,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Changes the bound, evicting LRU entries immediately if the cache is over it.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        if let Some(cap) = capacity {
            while self.map.len() > cap {
                self.evict_lru();
            }
        }
    }

    /// Looks `key` up, refreshing its recency. Counts a hit or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((value, last_use)) => {
                *last_use = self.tick;
                self.hits += 1;
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the least recently used entry first
    /// when the cache is full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        match self.capacity {
            Some(0) => {
                self.evictions += 1; // cache disabled: the new entry itself is "evicted"
            }
            Some(cap) => {
                if !self.map.contains_key(&key) && self.map.len() >= cap {
                    self.evict_lru();
                }
                self.map.insert(key, (value, self.tick));
            }
            None => {
                self.map.insert(key, (value, self.tick));
            }
        }
    }

    /// Drops every entry whose key fails the predicate (no eviction accounting —
    /// this is invalidation, not capacity pressure).
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        self.map.retain(|k, _| keep(k));
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// This cache's lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.map.len(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }

    fn evict_lru(&mut self) {
        let victim = self
            .map
            .iter()
            .min_by_key(|(_, (_, last_use))| *last_use)
            .map(|(k, _)| k.clone());
        if let Some(key) = victim {
            self.map.remove(&key);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_cache_never_evicts() {
        let mut c: LruCache<u32, u32> = LruCache::new(None);
        for i in 0..100 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.len(), 100);
        assert_eq!(c.get(&7), Some(&70));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 0, 0));
    }

    #[test]
    fn lru_eviction_order_follows_recency() {
        let mut c: LruCache<&str, u32> = LruCache::new(Some(2));
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh "a": "b" is now LRU
        c.insert("c", 3);
        assert_eq!(c.get(&"b"), None, "LRU entry must be evicted");
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn replacing_a_resident_key_does_not_evict() {
        let mut c: LruCache<&str, u32> = LruCache::new(Some(2));
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c: LruCache<u32, u32> = LruCache::new(Some(0));
        c.insert(1, 1);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let mut c: LruCache<u32, u32> = LruCache::new(None);
        for i in 0..10 {
            c.insert(i, i);
        }
        let _ = c.get(&0); // keep 0 hot
        c.set_capacity(Some(3));
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 7);
        assert_eq!(c.get(&0), Some(&0), "most recently used entries survive");
    }

    #[test]
    fn retain_does_not_count_as_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(Some(10));
        for i in 0..6 {
            c.insert(i, i);
        }
        c.retain(|&k| k % 2 == 0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn absorb_sums_counters() {
        let mut a = CacheStats {
            len: 1,
            hits: 2,
            misses: 3,
            evictions: 4,
        };
        a.absorb(&CacheStats {
            len: 10,
            hits: 20,
            misses: 30,
            evictions: 40,
        });
        assert_eq!(
            a,
            CacheStats {
                len: 11,
                hits: 22,
                misses: 33,
                evictions: 44,
            }
        );
    }
}
