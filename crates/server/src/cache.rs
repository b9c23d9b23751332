//! A sharded LRU cache for `locate` answers.
//!
//! `locate` is the high-QPS endpoint (it is a read of the prebuilt diagram,
//! not an optimization), and real traffic concentrates on popular places.
//! Keys are the dataset name, its snapshot generation, and the quantized
//! cell of the probe — so a reload naturally invalidates (generation changes)
//! and nearby probes collide onto one entry. Sharding by key hash keeps lock
//! contention away from the event loops. Hits and misses are counted by the
//! caller, in the metrics registry.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Cache key: dataset, snapshot generation, quantized cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Dataset name.
    pub dataset: String,
    /// Snapshot generation the answer was computed against.
    pub generation: u64,
    /// Quantized cell of the probe location.
    pub cell: (i64, i64),
}

struct Shard<V> {
    entries: HashMap<CacheKey, (Arc<V>, u64)>,
    tick: u64,
}

impl<V> Shard<V> {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A sharded LRU map from [`CacheKey`] to `Arc<V>`.
pub struct LocateCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard: usize,
}

impl<V> LocateCache<V> {
    /// A cache of `capacity` total entries spread over `shards` shards.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        LocateCache {
            per_shard: capacity.div_ceil(shards).max(1),
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard<V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Looks up a key, refreshing its recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<V>> {
        let mut shard = self.shard(key).lock().expect("cache lock poisoned");
        let tick = shard.touch();
        let (value, last_use) = shard.entries.get_mut(key)?;
        *last_use = tick;
        Some(Arc::clone(value))
    }

    /// Inserts a value, evicting the shard's least-recently-used entry when
    /// the shard is full. (Eviction scans the shard — shards are small by
    /// construction, so this stays cheap and dependency-free.)
    pub fn insert(&self, key: CacheKey, value: Arc<V>) {
        let mut shard = self.shard(&key).lock().expect("cache lock poisoned");
        let tick = shard.touch();
        if shard.entries.len() >= self.per_shard && !shard.entries.contains_key(&key) {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, last_use))| *last_use)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&oldest);
            }
        }
        shard.entries.insert(key, (value, tick));
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache lock poisoned").entries.len())
            .sum()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(cell: (i64, i64)) -> CacheKey {
        CacheKey {
            dataset: "d".into(),
            generation: 1,
            cell,
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache: LocateCache<u32> = LocateCache::new(4, 64);
        assert!(cache.is_empty());
        assert!(cache.get(&key((0, 0))).is_none());
        cache.insert(key((0, 0)), Arc::new(7));
        assert_eq!(*cache.get(&key((0, 0))).unwrap(), 7);
        assert!(cache.get(&key((0, 1))).is_none());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn generation_separates_entries() {
        let cache: LocateCache<u32> = LocateCache::new(2, 16);
        cache.insert(key((5, 5)), Arc::new(1));
        let newer = CacheKey {
            generation: 2,
            ..key((5, 5))
        };
        assert!(cache.get(&newer).is_none());
        cache.insert(newer.clone(), Arc::new(2));
        assert_eq!(*cache.get(&newer).unwrap(), 2);
        assert_eq!(*cache.get(&key((5, 5))).unwrap(), 1);
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // One shard, capacity 2: inserting a third entry evicts the LRU one.
        let cache: LocateCache<i64> = LocateCache::new(1, 2);
        cache.insert(key((1, 0)), Arc::new(1));
        cache.insert(key((2, 0)), Arc::new(2));
        // Touch (1,0) so (2,0) becomes the LRU entry.
        assert!(cache.get(&key((1, 0))).is_some());
        cache.insert(key((3, 0)), Arc::new(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key((2, 0))).is_none());
        assert!(cache.get(&key((1, 0))).is_some());
        assert!(cache.get(&key((3, 0))).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache: LocateCache<i64> = LocateCache::new(1, 2);
        cache.insert(key((1, 0)), Arc::new(1));
        cache.insert(key((2, 0)), Arc::new(2));
        cache.insert(key((1, 0)), Arc::new(10));
        assert_eq!(cache.len(), 2);
        assert_eq!(*cache.get(&key((1, 0))).unwrap(), 10);
        assert_eq!(*cache.get(&key((2, 0))).unwrap(), 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache: Arc<LocateCache<u64>> = Arc::new(LocateCache::new(8, 256));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let k = key(((i % 32) as i64, t as i64));
                        cache.insert(k.clone(), Arc::new(i));
                        // Each thread owns its keys, so its own insert is
                        // still there.
                        assert_eq!(cache.get(&k).as_deref(), Some(&i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 4 * 32);
    }
}
