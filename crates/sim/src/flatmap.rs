//! [`FlatMap`]: a small map for the in-flight tables of a hardware
//! model (MSHRs, request waiters, page walks), whose size the modelled
//! hardware bounds.
//!
//! A table of a few dozen entries is faster to search in a flat array
//! than in a tree: the map is one `Vec` of pairs kept in ascending key
//! order, looked up by a forward scan that stops at the first key not
//! below the one sought (at these sizes it measured faster than a
//! binary search), and grown or shrunk by shifting the entries above the
//! slot. It allocates its bound once, on the
//! first insert, and never again while it stays within it, so the
//! per-access path of a simulation does no allocation and no node
//! rebalancing.
//!
//! Its order is its keys', whatever its history, so [`FlatMap::iter`]
//! ascends as a `BTreeMap`'s does. Its snapshot encoding is
//! `BTreeMap`'s — the length, then the pairs in ascending key order —
//! written as the entries stand, so replacing a `BTreeMap` with it
//! leaves every snapshot byte in place.

use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// A vector map in ascending key order, sized by a hardware bound.
#[derive(Debug, Clone)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
    /// Slots reserved by the first insert.
    bound: usize,
}

impl<K: Ord, V> FlatMap<K, V> {
    /// An empty map that reserves `bound` slots on its first insert and
    /// allocates nothing before.
    pub fn with_bound(bound: usize) -> Self {
        Self {
            entries: Vec::new(),
            bound,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The slot of `key`, or where it would go.
    fn search(&self, key: &K) -> Result<usize, usize> {
        let end = self.entries.len();
        let i = self
            .entries
            .iter()
            .position(|(k, _)| k >= key)
            .unwrap_or(end);
        if self.entries.get(i).is_some_and(|(k, _)| k == key) {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// True when `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// The value of `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let i = self.search(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// The value of `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = self.search(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Sets `key` to `value`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                if self.entries.capacity() == 0 {
                    self.entries.reserve_exact(self.bound);
                }
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.search(key).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

/// The bytes of a `BTreeMap` holding the same entries: the length, then
/// the pairs in ascending key order. A key that does not ascend is
/// corruption, with the `BTreeMap` decoder's message.
impl<K: Snap + Ord, V: Snap> Snap for FlatMap<K, V> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(self.entries.len());
        for (k, v) in &self.entries {
            k.save(w);
            v.save(w);
        }
    }

    /// Decodes a map with no bound, which grows as a `Vec` does. A
    /// restore goes through [`Snap::load_into`], which keeps the bound.
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = Self::with_bound(0);
        out.load_into(r)?;
        Ok(out)
    }

    /// Decodes into this map's allocation and keeps its bound.
    fn load_into(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_len()?;
        self.entries.clear();
        for _ in 0..n {
            let k = K::load(r)?;
            let v = V::load(r)?;
            if self.entries.last().is_some_and(|(last, _)| *last >= k) {
                return Err(SnapshotError::Corrupt(
                    "map keys not in ascending order".to_string(),
                ));
            }
            self.insert(k, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn bytes<T: Snap>(value: &T) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        value.save(&mut w);
        w.into_bytes()
    }

    fn entries(map: &FlatMap<u64, u64>) -> Vec<(u64, u64)> {
        map.iter().map(|(&k, &v)| (k, v)).collect()
    }

    /// SplitMix64, enough to drive the seeded operation sequences.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn flat_map_matches_a_btree_map_and_its_bytes() {
        for seed in 0..32u64 {
            let mut rng = seed;
            let mut flat = FlatMap::with_bound(16);
            let mut tree = BTreeMap::new();
            for step in 0..64 {
                // A small key space makes replacing inserts and hits on
                // removal common.
                let key = next(&mut rng) % 24;
                let value = next(&mut rng);
                if next(&mut rng).is_multiple_of(3) {
                    assert_eq!(
                        flat.remove(&key),
                        tree.remove(&key),
                        "seed {seed} step {step}"
                    );
                } else {
                    assert_eq!(
                        flat.insert(key, value),
                        tree.insert(key, value),
                        "seed {seed} step {step}"
                    );
                }
                // `iter` ascends as the tree's does.
                let want: Vec<_> = tree.iter().map(|(&k, &v)| (k, v)).collect();
                assert_eq!(entries(&flat), want, "seed {seed} step {step}");
                assert_eq!(flat.len(), tree.len());
                assert_eq!(flat.get(&key), tree.get(&key));
                assert_eq!(flat.contains_key(&key), tree.contains_key(&key));

                let blob = bytes(&flat);
                assert_eq!(blob, bytes(&tree), "seed {seed} step {step}");
                let tree_back: BTreeMap<u64, u64> =
                    Snap::load(&mut SnapshotReader::new(&blob)).unwrap();
                assert_eq!(tree_back, tree);
                let mut flat_back = FlatMap::with_bound(16);
                flat_back
                    .load_into(&mut SnapshotReader::new(&bytes(&tree)))
                    .unwrap();
                assert_eq!(entries(&flat_back), want);
                let fresh: FlatMap<u64, u64> = Snap::load(&mut SnapshotReader::new(&blob)).unwrap();
                assert_eq!(entries(&fresh), want);
            }
        }
    }

    #[test]
    fn keys_that_do_not_ascend_are_corrupt() {
        for keys in [[3u64, 3], [5, 2]] {
            let mut w = SnapshotWriter::new();
            w.put_len(2);
            for k in keys {
                w.put_u64(k);
                w.put_u64(k * 10);
            }
            let blob = w.into_bytes();
            let want = SnapshotError::Corrupt("map keys not in ascending order".to_string());
            let got: Result<FlatMap<u64, u64>, _> = Snap::load(&mut SnapshotReader::new(&blob));
            assert_eq!(got.unwrap_err(), want, "{keys:?}");
            let mut into = FlatMap::<u64, u64>::with_bound(4);
            let got = into.load_into(&mut SnapshotReader::new(&blob));
            assert_eq!(got.unwrap_err(), want, "{keys:?}");
        }
    }

    #[test]
    fn the_first_insert_reserves_the_bound_and_filling_it_keeps_it() {
        let mut map = FlatMap::with_bound(32);
        assert_eq!(map.entries.capacity(), 0);
        map.insert(7u64, ());
        assert_eq!(map.entries.capacity(), 32);
        for key in 0..32u64 {
            map.insert(key, ());
        }
        assert_eq!(map.len(), 32);
        assert_eq!(map.entries.capacity(), 32);
        for key in 0..32u64 {
            map.remove(&key);
        }
        map.insert(1, ());
        assert_eq!(map.entries.capacity(), 32);

        // A restore decodes into the map's allocation and keeps its bound.
        let mut restored = FlatMap::<u64, ()>::with_bound(32);
        restored
            .load_into(&mut SnapshotReader::new(&bytes(&map)))
            .unwrap();
        assert_eq!(restored.entries.capacity(), 32);
        for key in 2..33u64 {
            restored.insert(key, ());
        }
        assert_eq!(restored.entries.capacity(), 32);
    }
}
