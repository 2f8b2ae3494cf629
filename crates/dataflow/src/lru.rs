//! The master's prefetch buffer (§V): a fixed-capacity LRU cache.

#[expect(
    clippy::disallowed_types,
    reason = "keyed lookup only: eviction order lives in the recency list, never in map iteration"
)]
use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot<V> {
    key: u32,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU cache from `u32` keys (node ids) to values.
///
/// Implemented as a slab of slots threaded on an intrusive doubly-linked
/// recency list plus a key → slot map: `get`, `insert`, and eviction are
/// all `O(1)`. This is the buffer the master dedicates to prefetched node
/// neighborhoods, "using an LRU replacement strategy to evict nodes".
///
/// ```
/// use dataflow::LruCache;
/// let mut c = LruCache::new(2);
/// c.insert(1, "a");
/// c.insert(2, "b");
/// c.get(&1);          // 1 is now most recently used
/// c.insert(3, "c");   // evicts 2
/// assert!(c.get(&2).is_none());
/// assert_eq!(c.get(&1), Some(&"a"));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<V> {
    slots: Vec<Slot<V>>,
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only: eviction order lives in the recency list, never in map iteration"
    )]
    index: HashMap<u32, usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[expect(
        clippy::panic,
        reason = "constructor contract, unreachable from cluster paths: ClusterConfig validation rejects zero buffer capacities before a cache is built"
    )]
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only: eviction order lives in the recency list, never in map iteration"
    )]
    pub fn new(capacity: usize) -> Self {
        if capacity == 0 {
            panic!("capacity must be positive");
        }
        LruCache {
            slots: Vec::with_capacity(capacity.min(4096)),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is cached (does not touch recency).
    pub fn contains(&self, key: &u32) -> bool {
        self.index.contains_key(key)
    }

    fn detach(&mut self, slot: usize) {
        let (p, n) = (self.slots[slot].prev, self.slots[slot].next);
        if p != NIL {
            self.slots[p].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slots[n].prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &u32) -> Option<&V> {
        let slot = *self.index.get(key)?;
        if slot != self.head {
            self.detach(slot);
            self.push_front(slot);
        }
        Some(&self.slots[slot].value)
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry
    /// when full. Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: u32, value: V) -> Option<(u32, V)> {
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].value = value;
            if slot != self.head {
                self.detach(slot);
                self.push_front(slot);
            }
            return None;
        }
        if self.index.len() < self.capacity {
            let slot = self.slots.len();
            self.slots.push(Slot { key, value, prev: NIL, next: NIL });
            self.index.insert(key, slot);
            self.push_front(slot);
            return None;
        }
        // Recycle the LRU slot.
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "full cache must have a tail");
        self.detach(victim);
        let old_key = self.slots[victim].key;
        self.index.remove(&old_key);
        let old_value = std::mem::replace(&mut self.slots[victim].value, value);
        self.slots[victim].key = key;
        self.index.insert(key, victim);
        self.push_front(victim);
        Some((old_key, old_value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert!(c.insert(1, 'a').is_none());
        assert!(c.insert(2, 'b').is_none());
        let evicted = c.insert(3, 'c').expect("full cache evicts");
        assert_eq!(evicted, (1, 'a'));
        assert!(!c.contains(&1));
        assert!(c.contains(&2) && c.contains(&3));
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 'a');
        c.insert(2, 'b');
        assert_eq!(c.get(&1), Some(&'a'));
        let evicted = c.insert(3, 'c').expect("full cache evicts");
        assert_eq!(evicted.0, 2, "2 was least recently used");
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1, 'a');
        c.insert(2, 'b');
        assert!(c.insert(1, 'z').is_none());
        assert_eq!(c.get(&1), Some(&'z'));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let mut c = LruCache::new(1);
        c.insert(1, 1);
        assert_eq!(c.insert(2, 2), Some((1, 1)));
        assert_eq!(c.insert(3, 3), Some((2, 2)));
        assert_eq!(c.get(&3), Some(&3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn long_mixed_workload_matches_reference_model() {
        // Compare against a naive Vec-based LRU model.
        let mut c = LruCache::new(4);
        let mut model: Vec<(u32, u64)> = Vec::new(); // front = MRU
        let mut x: u64 = 12345;
        for step in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 10) as u32;
            if step % 3 == 0 {
                // get
                let hit = c.get(&key).copied();
                let model_hit = model.iter().position(|&(k, _)| k == key).map(|i| {
                    let e = model.remove(i);
                    model.insert(0, e);
                    e.1
                });
                assert_eq!(hit, model_hit, "step {step} key {key}");
            } else {
                c.insert(key, step);
                if let Some(i) = model.iter().position(|&(k, _)| k == key) {
                    model.remove(i);
                } else if model.len() == 4 {
                    model.pop();
                }
                model.insert(0, (key, step));
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = LruCache::<u8>::new(0);
    }
}
