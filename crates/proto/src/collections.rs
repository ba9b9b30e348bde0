//! Deterministic collections for simulation state.
//!
//! The simulator's determinism contract (see DESIGN.md §"Determinism
//! rules") bans `std::collections::HashMap`/`HashSet` from sim-facing
//! crates: their iteration order depends on `RandomState`, so any loop
//! over them can leak host randomness into simulation state, statistics
//! or traces. [`OrderedMap`] is the sanctioned replacement — a hash map
//! whose iteration order is *insertion order*, independent of the keys'
//! hash values and of the host. It is in-tree and dependency-free like
//! the rest of this crate, hashing with the same FNV-1a function used
//! for config fingerprints.

use std::hash::{Hash, Hasher};

/// FNV-1a implementing [`std::hash::Hasher`], so any `K: Hash` key can
/// be hashed without `RandomState`. The stream of bytes fed by `Hash`
/// impls for a given key value is stable for a given compiler target,
/// and — more importantly — the *iteration order* of [`OrderedMap`]
/// never depends on these hash values at all.
#[derive(Debug, Clone)]
struct Fnv1aHasher(u64);

impl Default for Fnv1aHasher {
    fn default() -> Self {
        Fnv1aHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1aHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = Fnv1aHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// A hash map that iterates in insertion order.
///
/// Lookups go through a bucket index (FNV-1a, chained); entries live in
/// an append-only vector, so `iter`/`keys`/`values` walk them in the
/// order they were first inserted. `remove` leaves a tombstone to
/// preserve the order of the survivors; tombstones are compacted away
/// once they outnumber live entries.
///
/// # Examples
///
/// ```
/// use netcrafter_proto::collections::OrderedMap;
///
/// let mut m = OrderedMap::new();
/// m.insert("b", 2);
/// m.insert("a", 1);
/// m.insert("c", 3);
/// m.remove(&"a");
/// let keys: Vec<&str> = m.keys().copied().collect();
/// assert_eq!(keys, ["b", "c"]); // insertion order, not hash order
/// ```
#[derive(Debug, Clone)]
pub struct OrderedMap<K, V> {
    /// Entries in insertion order; `None` marks a removed entry.
    entries: Vec<Option<(K, V)>>,
    /// Bucket chains of indices into `entries`. Length is a power of two.
    buckets: Vec<Vec<u32>>,
    live: usize,
}

impl<K, V> Default for OrderedMap<K, V> {
    fn default() -> Self {
        OrderedMap {
            entries: Vec::new(),
            buckets: Vec::new(),
            live: 0,
        }
    }
}

impl<K: Hash + Eq, V> OrderedMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live entry remains.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn bucket_of(&self, key: &K) -> usize {
        debug_assert!(self.buckets.len().is_power_of_two());
        (hash_of(key) as usize) & (self.buckets.len() - 1)
    }

    /// Index into `entries` of the live entry for `key`, if present.
    fn find(&self, key: &K) -> Option<usize> {
        if self.buckets.is_empty() {
            return None;
        }
        let b = self.bucket_of(key);
        self.buckets[b].iter().copied().find_map(|ix| {
            let (k, _) = self.entries[ix as usize].as_ref()?;
            (k == key).then_some(ix as usize)
        })
    }

    /// Rebuilds the bucket index (and drops tombstones) sized for `cap`
    /// live entries.
    fn rebuild(&mut self, cap: usize) {
        self.entries.retain(Option::is_some);
        let n = (cap.max(4) * 2).next_power_of_two();
        self.buckets.clear();
        self.buckets.resize(n, Vec::new());
        for (ix, slot) in self.entries.iter().enumerate() {
            let (k, _) = slot.as_ref().expect("tombstones dropped above");
            let b = (hash_of(k) as usize) & (n - 1);
            self.buckets[b].push(ix as u32);
        }
    }

    /// Inserts `value` under `key`, returning the previous value if the
    /// key was already present (its insertion rank is kept).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(ix) = self.find(&key) {
            let slot = self.entries[ix].as_mut().expect("found entries are live");
            return Some(std::mem::replace(&mut slot.1, value));
        }
        if self.entries.len() + 1 > self.buckets.len() / 2 {
            self.rebuild(self.live + 1);
        }
        let b = self.bucket_of(&key);
        self.buckets[b].push(self.entries.len() as u32);
        self.entries.push(Some((key, value)));
        self.live += 1;
        None
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key)
            .map(|ix| &self.entries[ix].as_ref().expect("live entry").1)
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key)
            .map(|ix| &mut self.entries[ix].as_mut().expect("live entry").1)
    }

    /// True if `key` has a live entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_some()
    }

    /// Mutable access to the value under `key`, inserting
    /// `default()` first if the key is absent (the insertion takes the
    /// last rank, exactly like `HashMap::entry(..).or_insert_with`).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let ix = match self.find(&key) {
            Some(ix) => ix,
            None => {
                self.insert(key, default());
                self.entries.len() - 1
            }
        };
        &mut self.entries[ix].as_mut().expect("live entry").1
    }

    /// Removes the entry for `key`, returning its value. The relative
    /// order of the remaining entries is unchanged.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let ix = self.find(key)?;
        let b = self.bucket_of(key);
        let chain = &mut self.buckets[b];
        let pos = chain
            .iter()
            .position(|&e| e as usize == ix)
            .expect("index chain holds every live entry");
        chain.remove(pos);
        let (_, v) = self.entries[ix].take().expect("found entries are live");
        self.live -= 1;
        // Compact once tombstones dominate, so a long-running map with
        // churn stays O(live) in memory and iteration time.
        if self.entries.len() >= 16 && self.live * 2 < self.entries.len() {
            self.rebuild(self.live);
        }
        Some(v)
    }

    /// Drops every entry, keeping allocations.
    pub fn clear(&mut self) {
        self.entries.clear();
        for chain in &mut self.buckets {
            chain.clear();
        }
        self.live = 0;
    }

    /// Entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries
            .iter()
            .filter_map(|slot| slot.as_ref().map(|(k, v)| (k, v)))
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_insertion_order() {
        let mut m = OrderedMap::new();
        for k in [9u64, 2, 7, 4, 1, 8] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        assert_eq!(keys, [9, 2, 7, 4, 1, 8]);
        let vals: Vec<u64> = m.values().copied().collect();
        assert_eq!(vals, [90, 20, 70, 40, 10, 80]);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = OrderedMap::new();
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        assert_eq!(m.get(&"a"), Some(&2));
        *m.get_mut(&"a").unwrap() += 1;
        assert_eq!(m.remove(&"a"), Some(3));
        assert_eq!(m.remove(&"a"), None);
        assert!(m.is_empty());
    }

    #[test]
    fn reinsert_after_remove_takes_last_rank() {
        let mut m = OrderedMap::new();
        m.insert("a", 1);
        m.insert("b", 2);
        m.remove(&"a");
        m.insert("a", 3);
        let keys: Vec<&str> = m.keys().copied().collect();
        assert_eq!(keys, ["b", "a"]);
    }

    #[test]
    fn get_or_insert_with_appends_once() {
        let mut m = OrderedMap::new();
        *m.get_or_insert_with(5u32, || 0) += 1;
        *m.get_or_insert_with(5u32, || 100) += 1;
        assert_eq!(m.get(&5), Some(&2));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn removal_preserves_survivor_order_through_compaction() {
        let mut m = OrderedMap::new();
        for k in 0u64..64 {
            m.insert(k, k);
        }
        // Remove every even key: enough tombstones to trigger compaction.
        for k in (0u64..64).step_by(2) {
            assert_eq!(m.remove(&k), Some(k));
        }
        let keys: Vec<u64> = m.keys().copied().collect();
        let expect: Vec<u64> = (0u64..64).filter(|k| k % 2 == 1).collect();
        assert_eq!(keys, expect);
        for k in &expect {
            assert_eq!(m.get(k), Some(k));
        }
        assert_eq!(m.len(), 32);
    }

    #[test]
    fn churn_matches_reference_model() {
        // Pseudo-random insert/remove churn cross-checked against a
        // Vec-based reference that models insertion order exactly.
        let mut m: OrderedMap<u64, u64> = OrderedMap::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut state = 0x243F_6A88_85A3_08D3u64; // in-tree LCG, fixed seed
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for step in 0..4000u64 {
            let key = next() % 97;
            if next() % 3 == 0 {
                let got = m.remove(&key);
                let pos = reference.iter().position(|(k, _)| *k == key);
                let want = pos.map(|p| reference.remove(p).1);
                assert_eq!(got, want, "remove({key}) at step {step}");
            } else {
                let got = m.insert(key, step);
                let pos = reference.iter().position(|(k, _)| *k == key);
                let want = match pos {
                    Some(p) => Some(std::mem::replace(&mut reference[p].1, step)),
                    None => {
                        reference.push((key, step));
                        None
                    }
                };
                assert_eq!(got, want, "insert({key}) at step {step}");
            }
            assert_eq!(m.len(), reference.len());
        }
        let got: Vec<(u64, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, reference, "final iteration order matches the model");
    }

    #[test]
    fn clear_resets_but_keeps_working() {
        let mut m = OrderedMap::new();
        m.insert(1u8, 1u8);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        m.insert(2, 2);
        assert_eq!(m.get(&2), Some(&2));
        assert_eq!(m.len(), 1);
    }
}
