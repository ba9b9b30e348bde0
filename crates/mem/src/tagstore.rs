//! A generic set-associative tag array with LRU replacement, shared by
//! the caches and (via `netcrafter-vm`) the TLBs.

use netcrafter_sim::snap_fields;
use netcrafter_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// One resident entry: the caller's payload plus replacement state.
#[derive(Debug, Clone)]
struct Slot<T> {
    tag: u64,
    last_used: u64,
    data: T,
}

snap_fields! { impl<T: Snap> Snap for Slot<T> { tag, last_used, data } }

/// A set-associative lookup structure keyed by an integer (line address,
/// VPN, …) with least-recently-used replacement.
///
/// `n_sets == 1` gives a fully associative structure (the L1 TLB and the
/// page-walk cache); larger `n_sets` give classic set-indexed caches.
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
    sets: Vec<Vec<Slot<T>>>,
    ways: usize,
}

impl<T> TagStore<T> {
    /// Creates a store with `n_sets` sets of `ways` ways.
    pub fn new(n_sets: usize, ways: usize) -> Self {
        assert!(n_sets > 0 && ways > 0, "geometry must be non-zero");
        Self {
            sets: (0..n_sets).map(|_| Vec::with_capacity(ways)).collect(),
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
        self.sets.len()
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total resident entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(Vec::is_empty)
    }

    #[inline]
    fn set_and_tag(&self, key: u64) -> (usize, u64) {
        let n = self.sets.len() as u64;
        ((key % n) as usize, key / n)
    }

    /// Looks up `key`, updating its LRU stamp to `now` on a hit.
    pub fn lookup(&mut self, key: u64, now: u64) -> Option<&mut T> {
        let (set, tag) = self.set_and_tag(key);
        self.sets[set]
            .iter_mut()
            .find(|s| s.tag == tag)
            .map(|slot| {
                slot.last_used = now;
                &mut slot.data
            })
    }

    /// Looks up `key` without touching replacement state.
    pub fn peek(&self, key: u64) -> Option<&T> {
        let (set, tag) = self.set_and_tag(key);
        self.sets[set]
            .iter()
            .find(|s| s.tag == tag)
            .map(|s| &s.data)
    }

    /// Inserts `key → data`, evicting the set's LRU entry if the set is
    /// full. Returns the evicted `(key, data)` pair, if any. Inserting an
    /// already-resident key replaces its payload (no eviction).
    pub fn insert(&mut self, key: u64, data: T, now: u64) -> Option<(u64, T)> {
        let (set_ix, tag) = self.set_and_tag(key);
        let n_sets = self.sets.len() as u64;
        let set = &mut self.sets[set_ix];
        if let Some(slot) = set.iter_mut().find(|s| s.tag == tag) {
            slot.data = data;
            slot.last_used = now;
            return None;
        }
        if set.len() < self.ways {
            set.push(Slot {
                tag,
                last_used: now,
                data,
            });
            return None;
        }
        // Evict LRU (ties broken by lowest way index for determinism).
        let victim_ix = set
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.last_used, *i))
            .map(|(i, _)| i)
            .expect("set is full, so non-empty");
        let victim = std::mem::replace(
            &mut set[victim_ix],
            Slot {
                tag,
                last_used: now,
                data,
            },
        );
        Some((victim.tag * n_sets + set_ix as u64, victim.data))
    }

    /// Removes `key`, returning its payload.
    pub fn invalidate(&mut self, key: u64) -> Option<T> {
        let (set, tag) = self.set_and_tag(key);
        let pos = self.sets[set].iter().position(|s| s.tag == tag)?;
        Some(self.sets[set].swap_remove(pos).data)
    }

    /// Iterates over all resident `(key, &data)` pairs (diagnostics only;
    /// order is unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let n_sets = self.sets.len() as u64;
        self.sets.iter().enumerate().flat_map(move |(set_ix, set)| {
            set.iter()
                .map(move |s| (s.tag * n_sets + set_ix as u64, &s.data))
        })
    }
}

/// Decodes one set into `set`, reusing its allocation.
fn load_set<T: Snap>(
    set: &mut Vec<Slot<T>>,
    ways: usize,
    r: &mut SnapshotReader<'_>,
) -> Result<(), SnapshotError> {
    let len = r.get_len()?;
    if len > ways {
        return Err(SnapshotError::Corrupt(format!(
            "TagStore set holds {len} slots but has only {ways} ways"
        )));
    }
    set.clear();
    for _ in 0..len {
        set.push(Slot::load(r)?);
    }
    Ok(())
}

/// The sets are serialized verbatim — within-set slot order and the LRU
/// stamps are observable through victim selection (`invalidate` uses
/// `swap_remove`, so slot order is not derivable from insertion history).
impl<T: Snap> Snap for TagStore<T> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(self.ways);
        w.put_len(self.sets.len());
        for set in &self.sets {
            set.save(w);
        }
    }

    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let ways = r.get_len()?;
        let n_sets = r.get_len()?;
        if ways == 0 || n_sets == 0 {
            return Err(SnapshotError::Corrupt(format!(
                "TagStore geometry {n_sets} sets x {ways} ways"
            )));
        }
        let mut sets = Vec::with_capacity(n_sets);
        for _ in 0..n_sets {
            let mut set = Vec::with_capacity(ways);
            load_set(&mut set, ways, r)?;
            sets.push(set);
        }
        Ok(Self { sets, ways })
    }

    /// Reuses every set's existing allocation. This is the
    /// snapshot-restore hot path — a store holds one `Vec` per set, so
    /// `load` pays thousands of small allocations per cache while this
    /// pays none. The snapshot's geometry must match `self` (restore
    /// targets are built from the same configuration).
    fn load_into(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let ways = r.get_len()?;
        let n_sets = r.get_len()?;
        if ways != self.ways || n_sets != self.sets.len() {
            return Err(SnapshotError::Corrupt(format!(
                "TagStore geometry mismatch: snapshot {n_sets} sets x {ways} ways, \
                 target {} x {}",
                self.sets.len(),
                self.ways
            )));
        }
        self.sets
            .iter_mut()
            .try_for_each(|set| load_set(set, ways, r))
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
