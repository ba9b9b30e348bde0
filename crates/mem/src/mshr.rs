//! Miss-status holding registers: track outstanding misses and merge
//! same-line requests, with a hard entry limit that stalls the requester
//! when exhausted (Table 2: 32 entries at L1, 64 at L2, 8/64 at the TLBs).

use netcrafter_sim::snap_fields;
use netcrafter_sim::snapshot::{Snap, SnapshotError};
use netcrafter_sim::FlatMap;

/// Result of trying to register a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss on this key: the caller must issue the fill request.
    Allocated,
    /// A miss on this key is already outstanding and covers the new
    /// request: merged, no new fill needed.
    Merged,
    /// No free entries (or the outstanding fill cannot satisfy the new
    /// request): the caller must stall and retry.
    Stalled,
}

/// An MSHR file mapping miss keys to waiting requests.
///
/// Each entry remembers the *coverage* of the in-flight fill as a sector
/// bitmask; a subsequent miss merges only if its needed sectors are a
/// subset of what the fill will bring (relevant under Trimming, where
/// fills may carry a single sector).
#[derive(Debug, Clone)]
pub struct Mshr<W> {
    entries: FlatMap<u64, Entry<W>>,
    capacity: usize,
    /// Peak simultaneous occupancy, for reporting.
    pub peak: usize,
    /// Times a request had to stall on a full file.
    pub full_stalls: u64,
    /// Times a request merged into an existing entry.
    pub merges: u64,
}

#[derive(Debug, Clone)]
struct Entry<W> {
    coverage: u16,
    waiters: Vec<W>,
}

impl<W> Mshr<W> {
    /// Creates an MSHR file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR needs at least one entry");
        Self {
            entries: FlatMap::with_bound(capacity),
            capacity,
            peak: 0,
            full_stalls: 0,
            merges: 0,
        }
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when a miss on `key` is already in flight.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Sector coverage of the outstanding fill for `key` (0 if none).
    pub fn coverage(&self, key: u64) -> u16 {
        self.entries.get(&key).map_or(0, |e| e.coverage)
    }

    /// What [`Mshr::register`] would return for a miss on `key` needing
    /// `sectors`, without registering it. `register` decides through
    /// this, so a caller that sleeps on `Stalled` (the CU's parked access
    /// retries) cannot disagree with the attempt it skipped.
    pub fn probe(&self, key: u64, sectors: u16) -> MshrOutcome {
        match self.entries.get(&key) {
            Some(entry) if sectors & !entry.coverage == 0 => MshrOutcome::Merged,
            // The in-flight fill will not bring everything this request
            // needs; the requester must retry after the fill lands.
            Some(_) => MshrOutcome::Stalled,
            None if self.entries.len() >= self.capacity => MshrOutcome::Stalled,
            None => MshrOutcome::Allocated,
        }
    }

    /// Registers a miss on `key` needing `sectors`, enqueueing `waiter`
    /// for wake-up on fill.
    pub fn register(&mut self, key: u64, sectors: u16, waiter: W) -> MshrOutcome {
        let outcome = self.probe(key, sectors);
        match outcome {
            MshrOutcome::Allocated => {
                self.entries.insert(
                    key,
                    Entry {
                        coverage: sectors,
                        waiters: vec![waiter],
                    },
                );
                self.peak = self.peak.max(self.entries.len());
            }
            MshrOutcome::Merged => {
                let entry = self.entries.get_mut(&key).expect("probe found the entry");
                entry.waiters.push(waiter);
                self.merges += 1;
            }
            MshrOutcome::Stalled => self.full_stalls += 1,
        }
        outcome
    }

    /// Completes the miss on `key`, returning every waiter to wake.
    ///
    /// # Panics
    ///
    /// Panics if no miss on `key` is outstanding (a response must always
    /// match a request).
    pub fn complete(&mut self, key: u64) -> Vec<W> {
        self.entries
            .remove(&key)
            .unwrap_or_else(|| panic!("MSHR completion for unknown key {key:#x}"))
            .waiters
    }
}

snap_fields! { impl<W: Snap> Snap for Entry<W> { coverage, waiters } }

snap_fields! {
    impl<W: Snap> Snap for Mshr<W> { capacity, peak, full_stalls, merges, entries }
    validate Self::check_restored
}

impl<W> Mshr<W> {
    fn check_restored(&self) -> Result<(), SnapshotError> {
        if self.capacity == 0 {
            return Err(SnapshotError::Corrupt("MSHR capacity 0".to_string()));
        }
        if self.entries.len() > self.capacity {
            return Err(SnapshotError::Corrupt(format!(
                "MSHR holds {} entries but capacity is {}",
                self.entries.len(),
                self.capacity
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_complete() {
        let mut m: Mshr<u32> = Mshr::new(2);
        assert_eq!(m.register(0x40, 0b1111, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(0x40, 0b0001, 2), MshrOutcome::Merged);
        assert_eq!(m.len(), 1);
        assert!(m.contains(0x40));
        assert_eq!(m.complete(0x40), vec![1, 2]);
        assert!(m.is_empty());
        assert_eq!(m.merges, 1);
    }

    #[test]
    fn capacity_stalls() {
        let mut m: Mshr<u32> = Mshr::new(1);
        assert_eq!(m.register(0x40, 0b1111, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(0x80, 0b1111, 2), MshrOutcome::Stalled);
        assert_eq!(m.full_stalls, 1);
        m.complete(0x40);
        assert_eq!(m.register(0x80, 0b1111, 2), MshrOutcome::Allocated);
    }

    #[test]
    fn uncovered_sector_stalls_instead_of_merging() {
        let mut m: Mshr<u32> = Mshr::new(4);
        // In-flight fill brings only sector 0 (a trimmed fill).
        assert_eq!(m.register(0x40, 0b0001, 1), MshrOutcome::Allocated);
        // A request for sector 2 cannot merge: the fill won't carry it.
        assert_eq!(m.register(0x40, 0b0100, 2), MshrOutcome::Stalled);
        // A request inside sector 0 merges fine.
        assert_eq!(m.register(0x40, 0b0001, 3), MshrOutcome::Merged);
        assert_eq!(m.complete(0x40), vec![1, 3]);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m: Mshr<u32> = Mshr::new(8);
        for i in 0..5u64 {
            m.register(i * 64, 0b1111, i as u32);
        }
        m.complete(0);
        m.complete(64);
        assert_eq!(m.peak, 5);
        assert_eq!(m.len(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn completing_unknown_key_panics() {
        let mut m: Mshr<u32> = Mshr::new(1);
        m.complete(0x1000);
    }
}
