//! A map of bounded size that makes room in insertion order.
//!
//! The serving side keeps a few caches whose values can never go stale
//! within their lifetime — the router's free-flow destination indexes, the
//! query engine's route answers of one epoch — so they need no recency
//! tracking: a constant capacity and dropping the entry inserted longest ago
//! keep a working set of popular keys resident at the cost of one
//! `VecDeque` push per insertion.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A map of at most `capacity` entries that makes room by dropping the
/// entry inserted longest ago. Not synchronised: owners put it behind their
/// own lock.
#[derive(Debug)]
pub struct BoundedMap<K, V> {
    entries: HashMap<K, V>,
    inserted: VecDeque<K>,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V: Clone> BoundedMap<K, V> {
    /// An empty map holding at most `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        BoundedMap {
            entries: HashMap::new(),
            inserted: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The resident value of `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// The number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The resident value of `key` after the call: the one already there,
    /// or else `value`, inserted.
    pub fn insert_if_absent(&mut self, key: K, value: V) -> V {
        if let Some(resident) = self.entries.get(&key) {
            return resident.clone();
        }
        if self.entries.len() >= self.capacity {
            let oldest = self.inserted.pop_front().expect("a full map has an oldest");
            self.entries.remove(&oldest);
        }
        self.inserted.push_back(key);
        self.entries.insert(key, value.clone());
        value
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.inserted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oldest_insertion_goes_first_and_a_resident_key_is_not_reinserted() {
        let mut map = BoundedMap::new(2);
        assert_eq!(map.insert_if_absent(1, 'a'), 'a');
        assert_eq!(map.insert_if_absent(2, 'b'), 'b');
        assert_eq!(map.insert_if_absent(1, 'z'), 'a');
        assert_eq!(map.insert_if_absent(3, 'c'), 'c');
        assert_eq!(map.get(&1), None);
        assert_eq!((map.get(&2), map.get(&3)), (Some(&'b'), Some(&'c')));
        assert_eq!(map.len(), 2);
        map.clear();
        assert!(map.is_empty());
        // A cleared map forgets its insertion order too: filling it again
        // evicts only what was inserted after the clear.
        for key in [4, 5, 6] {
            map.insert_if_absent(key, 'x');
        }
        assert_eq!(map.get(&4), None);
        assert!(map.get(&5).is_some() && map.get(&6).is_some());
        assert_eq!(BoundedMap::<u8, u8>::new(0).capacity, 1);
    }
}
