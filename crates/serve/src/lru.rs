//! A small LRU cache for hot-node logits.
//!
//! Recency is tracked with lazy invalidation: every touch pushes a fresh
//! `(tick, key)` pair onto a queue, and eviction pops pairs until it finds
//! one whose tick still matches the live entry — amortized O(1) per
//! operation with no linked-list juggling. Values are `Arc<[f32]>` so a
//! cached logit row is shared, never copied, into response assembly.
//!
//! Every entry belongs to a **bundle generation**: a hot reload calls
//! [`LruCache::invalidate`] with the new generation tag, which drops every
//! row cached under the old bundle in one sweep. Serving a pre-reload
//! logit row after the model weights changed would be silent staleness —
//! the generation tag makes it structurally impossible.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

pub struct LruCache {
    cap: usize,
    tick: u64,
    /// Bundle generation the current contents were computed under.
    generation: u64,
    map: HashMap<u32, (u64, Arc<[f32]>)>,
    queue: VecDeque<(u64, u32)>,
}

impl LruCache {
    /// `cap == 0` disables caching entirely (every lookup misses).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            tick: 0,
            generation: 0,
            map: HashMap::new(),
            queue: VecDeque::new(),
        }
    }

    /// Generation tag of the bundle the cached rows were computed under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Drops every cached row and re-tags the cache with the new bundle
    /// generation. Returns the number of rows invalidated. A no-op (0)
    /// when the generation is unchanged — reloading the same generation
    /// twice must not flush a warm cache.
    pub fn invalidate(&mut self, generation: u64) -> usize {
        if generation == self.generation {
            return 0;
        }
        assert!(
            generation > self.generation,
            "bundle generation must be monotonic: {} -> {generation}",
            self.generation
        );
        self.generation = generation;
        let dropped = self.map.len();
        self.map.clear();
        self.queue.clear();
        dropped
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a node's logits, refreshing its recency on hit.
    pub fn get(&mut self, key: u32) -> Option<Arc<[f32]>> {
        self.tick += 1;
        let tick = self.tick;
        let (stamp, val) = self.map.get_mut(&key)?;
        *stamp = tick;
        let val = Arc::clone(val);
        self.queue.push_back((tick, key));
        self.compact();
        Some(val)
    }

    /// Inserts (or refreshes) a node's logits, evicting the least recently
    /// used entries past capacity.
    pub fn put(&mut self, key: u32, val: Arc<[f32]>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, val));
        self.queue.push_back((self.tick, key));
        while self.map.len() > self.cap {
            let Some((tick, key)) = self.queue.pop_front() else {
                break;
            };
            // Stale queue pairs (the entry was touched again later) are
            // skipped; only a pair matching the live stamp evicts.
            if self.map.get(&key).is_some_and(|(t, _)| *t == tick) {
                self.map.remove(&key);
            }
        }
        self.compact();
    }

    /// The queue grows one pair per touch — hits as much as inserts; sweep
    /// out the stale pairs when it gets far ahead of the live set so it
    /// cannot grow without bound.
    fn compact(&mut self) {
        if self.queue.len() > 8 * self.cap.max(16) {
            self.queue
                .retain(|(t, k)| self.map.get(k).is_some_and(|(live, _)| live == t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(v: f32) -> Arc<[f32]> {
        Arc::from(vec![v].into_boxed_slice())
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put(1, row(1.0));
        c.put(2, row(2.0));
        assert!(c.get(1).is_some()); // 2 is now the LRU entry
        c.put(3, row(3.0));
        assert!(c.get(2).is_none(), "LRU entry must be evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut c = LruCache::new(0);
        c.put(1, row(1.0));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_drops_everything_and_retags() {
        let mut c = LruCache::new(4);
        c.put(1, row(1.0));
        c.put(2, row(2.0));
        assert_eq!(c.generation(), 0);
        assert_eq!(c.invalidate(1), 2);
        assert_eq!(c.generation(), 1);
        assert!(c.is_empty());
        assert!(c.get(1).is_none() && c.get(2).is_none());
        // Same-generation invalidation is a no-op, not a flush.
        c.put(3, row(3.0));
        assert_eq!(c.invalidate(1), 0);
        assert!(c.get(3).is_some());
    }

    #[test]
    fn refresh_updates_value_and_queue_stays_bounded() {
        let mut c = LruCache::new(4);
        for i in 0..10_000u32 {
            c.put(i % 4, row(i as f32));
            assert!(c.get(i % 4).is_some());
        }
        assert!(c.len() <= 4);
        assert!(
            c.queue.len() <= 8 * 16 + 2,
            "queue must stay compacted, got {}",
            c.queue.len()
        );
        assert_eq!(c.get(3).unwrap()[0], 9999.0);
    }

    #[test]
    fn hit_only_workload_keeps_queue_bounded_and_lru_order() {
        let cap = 32u32;
        let mut c = LruCache::new(cap as usize);
        for k in 0..cap {
            c.put(k, row(k as f32));
        }
        // 50·cap hits and no insert, cycling cap−1 … 0: the last cycle
        // leaves key cap−1 the least recently hit and key 0 the most.
        for i in (0..50 * cap).rev() {
            assert!(c.get(i % cap).is_some());
            assert!(
                c.queue.len() <= 8 * cap as usize + 1,
                "queue must be swept on hits too, got {}",
                c.queue.len()
            );
        }
        c.put(cap, row(-1.0));
        assert!(
            c.get(cap - 1).is_none(),
            "least recently hit key is evicted"
        );
        assert!(c.get(0).is_some() && c.get(cap).is_some());
        assert_eq!(c.len(), cap as usize);
    }
}
