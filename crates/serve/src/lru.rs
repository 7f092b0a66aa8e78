//! A small LRU cache for hot-node logits, built for dense node ids.
//!
//! Keys are node ids the server has already range-checked against the
//! served graph, so lookup is an array index, not a hash: `slots[id]` names
//! the entry holding that node's row (or `NONE`). Entries are threaded on
//! an intrusive doubly linked recency list (`prev`/`next` are entry
//! indices), and every cached row lives in one `cap × width` `f32` slab at
//! `entry × width` — a hit is a list splice plus a slice borrow, a fill
//! past capacity reuses the least recently used entry in place, and
//! nothing is allocated per row. Memory is bounded by 4 B per id up to the
//! largest id ever cached, 12 B per entry, and the slab.
//!
//! Every entry belongs to a **bundle generation**: a hot reload calls
//! `LruCache::invalidate` with the new generation tag, which drops every
//! row cached under the old bundle in one sweep. Serving a pre-reload
//! logit row after the model weights changed would be silent staleness —
//! the generation tag makes it structurally impossible.

/// "No entry" in `slots`, `prev`, `next`, `head` and `tail`.
const NONE: u32 = u32::MAX;

/// One cached row's place in the recency list.
#[derive(Clone, Copy)]
struct Entry {
    key: u32,
    /// Towards the most recently used end.
    prev: u32,
    /// Towards the least recently used end.
    next: u32,
}

pub struct LruCache {
    cap: usize,
    /// Bundle generation the current contents were computed under.
    generation: u64,
    /// Node id → entry index; grown on demand to the largest id cached.
    slots: Vec<u32>,
    /// Live entries are `0..entries.len()`: an entry is only ever freed by
    /// the eviction that immediately reuses it, or by `invalidate`.
    entries: Vec<Entry>,
    /// Most / least recently used entry.
    head: u32,
    tail: u32,
    /// Row length, fixed by the first `put` after construction or
    /// `invalidate`; 0 while the cache is empty.
    width: usize,
    /// Entry `e`'s row is `slab[e * width..][..width]`.
    slab: Vec<f32>,
}

impl LruCache {
    /// `cap == 0` disables caching entirely (every lookup misses).
    pub fn new(cap: usize) -> Self {
        assert!(
            cap < NONE as usize,
            "cache capacity must fit an entry index"
        );
        Self {
            cap,
            generation: 0,
            slots: Vec::new(),
            entries: Vec::new(),
            head: NONE,
            tail: NONE,
            width: 0,
            slab: Vec::new(),
        }
    }

    /// Drops every cached row and re-tags the cache with the new bundle
    /// generation. Returns the number of rows invalidated. A no-op (0)
    /// when the generation is unchanged — reloading the same generation
    /// twice must not flush a warm cache.
    pub(crate) fn invalidate(&mut self, generation: u64) -> usize {
        if generation == self.generation {
            return 0;
        }
        assert!(
            generation > self.generation,
            "bundle generation must be monotonic: {} -> {generation}",
            self.generation
        );
        self.generation = generation;
        let dropped = self.entries.len();
        for e in self.entries.drain(..) {
            self.slots[e.key as usize] = NONE;
        }
        self.head = NONE;
        self.tail = NONE;
        // The next bundle may have a different class count.
        self.width = 0;
        self.slab.clear();
        dropped
    }

    /// Looks up a node's logits, refreshing its recency on hit. The row is
    /// borrowed from the slab: copy it out before the next `put`.
    pub fn get(&mut self, key: u32) -> Option<&[f32]> {
        let e = *self.slots.get(key as usize)?;
        if e == NONE {
            return None;
        }
        self.touch(e);
        Some(self.row(e))
    }

    /// Inserts (or refreshes) a node's logits, evicting the least recently
    /// used entry past capacity. Keys are dense node ids: the slot table
    /// grows to the largest key ever put.
    ///
    /// # Panics
    /// Panics if `val`'s length differs from the rows already cached.
    pub fn put<R: AsRef<[f32]>>(&mut self, key: u32, val: R) {
        let val = val.as_ref();
        if self.cap == 0 {
            return;
        }
        if self.entries.is_empty() {
            self.width = val.len();
            self.slab.resize(self.cap * self.width, 0.0);
        }
        assert_eq!(val.len(), self.width, "cached rows must share one width");
        if key as usize >= self.slots.len() {
            self.slots.resize(key as usize + 1, NONE);
        }
        let mut e = self.slots[key as usize];
        if e != NONE {
            self.touch(e);
        } else {
            if self.entries.len() < self.cap {
                e = self.entries.len() as u32;
                self.entries.push(Entry {
                    key,
                    prev: NONE,
                    next: NONE,
                });
            } else {
                e = self.tail;
                self.unlink(e);
                let victim = std::mem::replace(&mut self.entries[e as usize].key, key);
                self.slots[victim as usize] = NONE;
            }
            self.slots[key as usize] = e;
            self.push_front(e);
        }
        let at = e as usize * self.width;
        self.slab[at..at + self.width].copy_from_slice(val);
    }

    fn row(&self, e: u32) -> &[f32] {
        let at = e as usize * self.width;
        &self.slab[at..at + self.width]
    }

    /// Moves entry `e` to the most recently used end.
    fn touch(&mut self, e: u32) {
        if self.head != e {
            self.unlink(e);
            self.push_front(e);
        }
    }

    fn unlink(&mut self, e: u32) {
        let Entry { prev, next, .. } = self.entries[e as usize];
        match prev {
            NONE => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NONE => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, e: u32) {
        let old = std::mem::replace(&mut self.head, e);
        self.entries[e as usize].prev = NONE;
        self.entries[e as usize].next = old;
        match old {
            NONE => self.tail = e,
            o => self.entries[o as usize].prev = e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put(1, [1.0]);
        c.put(2, [2.0]);
        assert!(c.get(1).is_some()); // 2 is now the LRU entry
        c.put(3, [3.0]);
        assert!(c.get(2).is_none(), "LRU entry must be evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.entries.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut c = LruCache::new(0);
        c.put(1, [1.0]);
        assert!(c.get(1).is_none());
        assert!(c.entries.is_empty());
    }

    #[test]
    fn invalidate_drops_everything_and_retags() {
        let mut c = LruCache::new(4);
        c.put(1, [1.0]);
        c.put(2, [2.0]);
        assert_eq!(c.generation, 0);
        assert_eq!(c.invalidate(1), 2);
        assert_eq!(c.generation, 1);
        assert!(c.entries.is_empty());
        assert!(c.get(1).is_none() && c.get(2).is_none());
        // Same-generation invalidation is a no-op, not a flush.
        c.put(3, [3.0]);
        assert_eq!(c.invalidate(1), 0);
        assert!(c.get(3).is_some());
        // A new bundle may serve a different class count.
        assert_eq!(c.invalidate(2), 1);
        c.put(3, [3.0, 4.0]);
        assert_eq!(c.get(3), Some(&[3.0, 4.0][..]));
    }

    #[test]
    fn hit_only_workload_keeps_lru_order() {
        let cap = 32u32;
        let mut c = LruCache::new(cap as usize);
        for k in 0..cap {
            c.put(k, [k as f32]);
        }
        // 50·cap hits and no insert, cycling cap−1 … 0: the last cycle
        // leaves key cap−1 the least recently hit and key 0 the most.
        for i in (0..50 * cap).rev() {
            assert_eq!(c.get(i % cap), Some(&[(i % cap) as f32][..]));
        }
        c.put(cap, [-1.0]);
        assert!(
            c.get(cap - 1).is_none(),
            "least recently hit key is evicted"
        );
        assert!(c.get(0).is_some() && c.get(cap).is_some());
        assert_eq!(c.entries.len(), cap as usize);
    }

    /// The obvious LRU: a `Vec` ordered most recently used first.
    struct Model {
        cap: usize,
        rows: Vec<(u32, [f32; 2])>,
    }

    impl Model {
        fn get(&mut self, key: u32) -> Option<[f32; 2]> {
            let at = self.rows.iter().position(|(k, _)| *k == key)?;
            let hit = self.rows.remove(at);
            self.rows.insert(0, hit);
            Some(hit.1)
        }

        /// Returns the evicted key, if any.
        fn put(&mut self, key: u32, val: [f32; 2]) -> Option<u32> {
            if self.cap == 0 {
                return None;
            }
            if let Some(at) = self.rows.iter().position(|(k, _)| *k == key) {
                self.rows.remove(at);
            }
            self.rows.insert(0, (key, val));
            (self.rows.len() > self.cap).then(|| self.rows.pop().expect("over capacity").0)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random `get` / `put` / `invalidate` sequences against the model:
        /// after every step the two agree on the value returned, the key
        /// evicted, `len`, and the full contents in recency order.
        #[test]
        fn matches_a_naive_model(
            cap in 0usize..6,
            ops in proptest::collection::vec((0u8..8, 0u32..12), 1..200),
        ) {
            let mut lru = LruCache::new(cap);
            let mut model = Model { cap, rows: Vec::new() };
            let mut generation = 0;
            for (step, (op, key)) in ops.into_iter().enumerate() {
                match op {
                    0..=2 => {
                        let got = lru.get(key).map(|r| [r[0], r[1]]);
                        prop_assert_eq!(got, model.get(key), "get {} at step {}", key, step);
                    }
                    3..=6 => {
                        let val = [key as f32, step as f32];
                        lru.put(key, val);
                        if let Some(victim) = model.put(key, val) {
                            prop_assert!(
                                lru.slots[victim as usize] == NONE,
                                "put {} at step {} must evict {}", key, step, victim
                            );
                        }
                    }
                    _ => {
                        generation += 1;
                        prop_assert_eq!(lru.invalidate(generation), model.rows.len());
                        model.rows.clear();
                    }
                }
                prop_assert_eq!(lru.entries.len(), model.rows.len());
                // Walk the recency list head to tail without touching it.
                let mut walked = Vec::new();
                let mut e = lru.head;
                while e != NONE {
                    let entry = lru.entries[e as usize];
                    walked.push((entry.key, [lru.row(e)[0], lru.row(e)[1]]));
                    prop_assert_eq!(lru.slots[entry.key as usize], e);
                    e = entry.next;
                }
                prop_assert_eq!(&walked, &model.rows, "contents after step {}", step);
                let live = lru.slots.iter().filter(|&&s| s != NONE).count();
                prop_assert_eq!(live, model.rows.len(), "stale slot after step {}", step);
            }
        }
    }
}
