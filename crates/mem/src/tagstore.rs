//! A generic set-associative tag array with LRU replacement, shared by
//! the caches and (via `netcrafter-vm`) the TLBs.

use netcrafter_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// A set-associative lookup structure keyed by an integer (line address,
/// VPN, …) with least-recently-used replacement.
///
/// `n_sets == 1` gives a fully associative structure (the L1 TLB and the
/// page-walk cache); larger `n_sets` give classic set-indexed caches.
///
/// The array is flat: tags, LRU stamps and payloads each live in one
/// allocation indexed `set * ways + way`, and `fill[set]` counts the
/// resident ways, which are always the set's first `fill[set]` slots.
/// Slots past the fill count hold stale values and are never read.
///
/// # Examples
///
/// ```
/// use netcrafter_mem::TagStore;
///
/// let mut ts: TagStore<u32> = TagStore::new(2, 2); // 2 sets, 2 ways
/// assert_eq!(ts.insert(0, 10, 0), None);
/// assert_eq!(ts.insert(2, 20, 1), None); // same set as key 0
/// assert_eq!(ts.lookup(0, 2), Some(&mut 10));
/// // Key 4 also maps to set 0; the LRU victim is key 2.
/// assert_eq!(ts.insert(4, 40, 3), Some((2, 20)));
/// ```
#[derive(Debug, Clone)]
pub struct TagStore<T> {
    tags: Vec<u64>,
    last_used: Vec<u64>,
    data: Vec<T>,
    fill: Vec<usize>,
    ways: usize,
}

impl<T: Clone + Default> TagStore<T> {
    /// Creates a store with `n_sets` sets of `ways` ways.
    pub fn new(n_sets: usize, ways: usize) -> Self {
        assert!(n_sets > 0 && ways > 0, "geometry must be non-zero");
        let slots = n_sets.checked_mul(ways).expect("geometry overflows usize");
        Self {
            tags: vec![0; slots],
            last_used: vec![0; slots],
            data: vec![T::default(); slots],
            fill: vec![0; n_sets],
            ways,
        }
    }

    /// Builds a store holding `entries` total entries at `ways`
    /// associativity (`ways == entries` ⇒ fully associative).
    pub fn with_entries(entries: usize, ways: usize) -> Self {
        let ways = ways.min(entries).max(1);
        let n_sets = (entries / ways).max(1);
        Self::new(n_sets, ways)
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.fill.len()
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total resident entries.
    pub fn len(&self) -> usize {
        self.fill.iter().sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.fill.iter().all(|&n| n == 0)
    }

    #[inline]
    fn set_and_tag(&self, key: u64) -> (usize, u64) {
        let n = self.n_sets() as u64;
        ((key % n) as usize, key / n)
    }

    /// The slot range of `set`'s resident ways.
    #[inline]
    fn resident(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.ways;
        base..base + self.fill[set]
    }

    /// Slot index of the resident way of `set` holding `tag`.
    #[inline]
    fn position(&self, set: usize, tag: u64) -> Option<usize> {
        let slots = self.resident(set);
        let base = slots.start;
        self.tags[slots]
            .iter()
            .position(|&t| t == tag)
            .map(|way| base + way)
    }

    /// Slot index of `key`, if resident.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let (set, tag) = self.set_and_tag(key);
        self.position(set, tag)
    }

    /// Looks up `key`, updating its LRU stamp to `now` on a hit.
    pub fn lookup(&mut self, key: u64, now: u64) -> Option<&mut T> {
        let slot = self.find(key)?;
        self.last_used[slot] = now;
        Some(&mut self.data[slot])
    }

    /// Looks up `key` without touching replacement state.
    pub fn peek(&self, key: u64) -> Option<&T> {
        self.find(key).map(|slot| &self.data[slot])
    }

    /// Inserts `key → data`, evicting the set's LRU entry if the set is
    /// full. Returns the evicted `(key, data)` pair, if any. Inserting an
    /// already-resident key replaces its payload (no eviction).
    pub fn insert(&mut self, key: u64, data: T, now: u64) -> Option<(u64, T)> {
        let (set, tag) = self.set_and_tag(key);
        if let Some(slot) = self.position(set, tag) {
            self.data[slot] = data;
            self.last_used[slot] = now;
            return None;
        }
        let slots = self.resident(set);
        if slots.len() < self.ways {
            self.fill[set] += 1;
            self.tags[slots.end] = tag;
            self.last_used[slots.end] = now;
            self.data[slots.end] = data;
            return None;
        }
        // Evict LRU (ties broken by lowest way index for determinism).
        let base = slots.start;
        let victim = base
            + self.last_used[slots]
                .iter()
                .enumerate()
                .min_by_key(|&(way, &stamp)| (stamp, way))
                .map(|(way, _)| way)
                .expect("set is full, so non-empty");
        let victim_tag = std::mem::replace(&mut self.tags[victim], tag);
        self.last_used[victim] = now;
        let victim_data = std::mem::replace(&mut self.data[victim], data);
        Some((victim_tag * self.n_sets() as u64 + set as u64, victim_data))
    }

    /// Iterates over all resident `(key, &data)` pairs (diagnostics only;
    /// order is unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let n_sets = self.n_sets() as u64;
        (0..self.n_sets()).flat_map(move |set| {
            self.resident(set)
                .map(move |slot| (self.tags[slot] * n_sets + set as u64, &self.data[slot]))
        })
    }

    /// Removes `key`, returning its payload. The set's last resident way
    /// moves into the freed slot (`Vec::swap_remove` order).
    pub fn invalidate(&mut self, key: u64) -> Option<T> {
        let (set, tag) = self.set_and_tag(key);
        let slot = self.position(set, tag)?;
        let last = self.resident(set).end - 1;
        self.fill[set] -= 1;
        self.tags.swap(slot, last);
        self.last_used.swap(slot, last);
        self.data.swap(slot, last);
        Some(std::mem::take(&mut self.data[last]))
    }
}

/// The sets are serialized verbatim — within-set slot order and the LRU
/// stamps are observable through victim selection (`invalidate` moves the
/// last way into the freed slot, so slot order is not derivable from
/// insertion history). Each set is its resident length followed by one
/// `(tag, last_used, data)` triple per way, the encoding of a
/// `Vec<(u64, u64, T)>`.
impl<T: Snap + Clone + Default> Snap for TagStore<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(self.ways);
        w.put_len(self.n_sets());
        for set in 0..self.n_sets() {
            let slots = self.resident(set);
            w.put_len(slots.len());
            for slot in slots {
                self.tags[slot].save(w);
                self.last_used[slot].save(w);
                self.data[slot].save(w);
            }
        }
    }

    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let ways = r.get_len()?;
        let n_sets = r.get_len()?;
        if ways == 0 || n_sets == 0 || n_sets.checked_mul(ways).is_none() {
            return Err(SnapshotError::Corrupt(format!(
                "TagStore geometry {n_sets} sets x {ways} ways"
            )));
        }
        let mut store = Self::new(n_sets, ways);
        store.load_sets(r)?;
        Ok(store)
    }

    /// Decodes into the existing arrays: a restore allocates nothing. The
    /// snapshot's geometry must match `self` (restore targets are built
    /// from the same configuration).
    fn load_into(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let ways = r.get_len()?;
        let n_sets = r.get_len()?;
        if ways != self.ways || n_sets != self.n_sets() {
            return Err(SnapshotError::Corrupt(format!(
                "TagStore geometry mismatch: snapshot {n_sets} sets x {ways} ways, \
                 target {} x {}",
                self.n_sets(),
                self.ways
            )));
        }
        self.load_sets(r)
    }
}

impl<T: Snap + Clone + Default> TagStore<T> {
    /// Decodes every set's resident ways over the current contents.
    fn load_sets(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        for set in 0..self.n_sets() {
            let len = r.get_len()?;
            if len > self.ways {
                return Err(SnapshotError::Corrupt(format!(
                    "TagStore set holds {len} slots but has only {} ways",
                    self.ways
                )));
            }
            self.fill[set] = len;
            for slot in self.resident(set) {
                self.tags[slot] = u64::load(r)?;
                self.last_used[slot] = u64::load(r)?;
                self.data[slot] = T::load(r)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut ts: TagStore<&str> = TagStore::new(4, 2);
        assert!(ts.is_empty());
        assert_eq!(ts.insert(5, "five", 0), None);
        assert_eq!(ts.lookup(5, 1), Some(&mut "five"));
        assert_eq!(ts.lookup(9, 1), None); // same set (9 % 4 == 1), other tag
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn evicts_lru_within_set() {
        let mut ts: TagStore<u32> = TagStore::new(1, 2); // fully assoc, 2 entries
        ts.insert(1, 100, 0);
        ts.insert(2, 200, 1);
        ts.lookup(1, 2); // 1 is now MRU
        let evicted = ts.insert(3, 300, 3);
        assert_eq!(evicted, Some((2, 200)));
        assert!(ts.peek(1).is_some());
        assert!(ts.peek(3).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut ts: TagStore<u32> = TagStore::new(1, 1);
        ts.insert(7, 70, 0);
        assert_eq!(ts.insert(7, 71, 1), None, "replacement, not eviction");
        assert_eq!(ts.peek(7), Some(&71));
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn eviction_returns_reconstructed_key() {
        let mut ts: TagStore<u32> = TagStore::new(4, 1);
        ts.insert(6, 60, 0); // set 2
        let evicted = ts.insert(10, 100, 1); // also set 2
        assert_eq!(evicted, Some((6, 60)));
    }

    #[test]
    fn invalidate_removes() {
        let mut ts: TagStore<u32> = TagStore::new(2, 2);
        ts.insert(4, 40, 0);
        assert_eq!(ts.invalidate(4), Some(40));
        assert_eq!(ts.invalidate(4), None);
        assert!(ts.is_empty());
    }

    #[test]
    fn with_entries_geometry() {
        let ts: TagStore<()> = TagStore::with_entries(512, 8);
        assert_eq!(ts.n_sets(), 64);
        assert_eq!(ts.ways(), 8);
        let fa: TagStore<()> = TagStore::with_entries(32, usize::MAX);
        assert_eq!(fa.n_sets(), 1);
        assert_eq!(fa.ways(), 32);
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        let mut ts: TagStore<u32> = TagStore::new(1, 2);
        ts.insert(1, 10, 0);
        ts.insert(2, 20, 1);
        let _ = ts.peek(1); // does not refresh key 1
        let evicted = ts.insert(3, 30, 2);
        assert_eq!(evicted, Some((1, 10)), "peek must not refresh LRU");
    }

    #[test]
    fn iter_lists_all_entries() {
        let mut ts: TagStore<u32> = TagStore::new(2, 2);
        ts.insert(0, 1, 0);
        ts.insert(1, 2, 0);
        ts.insert(2, 3, 0);
        let mut keys: Vec<u64> = ts.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2]);
    }
}
