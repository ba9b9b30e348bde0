//! A translation lookaside buffer: a thin, statistics-carrying wrapper
//! over the set-associative tag store, used for both the per-CU L1 TLB
//! (32-entry fully associative) and the per-GPU shared L2 TLB (512-entry
//! 8-way) of Table 2.

use netcrafter_mem::TagStore;
use netcrafter_proto::config::TlbConfig;
use netcrafter_proto::Metrics;
use netcrafter_sim::snap_fields;

/// TLB hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found a translation.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by insertions.
    pub evictions: u64,
}

snap_fields! { impl Snap for TlbStats { hits, misses, evictions } }

impl TlbStats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.hits"), self.hits);
        metrics.add(&format!("{prefix}.misses"), self.misses);
        metrics.add(&format!("{prefix}.evictions"), self.evictions);
    }
}

/// A TLB caching `vpn → pfn` translations.
#[derive(Debug)]
pub struct Tlb {
    entries: TagStore<u64>,
    lookup_cycles: u32,
    /// Statistics.
    pub stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB from its configuration (`ways == u32::MAX` means fully
    /// associative).
    pub fn new(cfg: &TlbConfig) -> Self {
        let ways = if cfg.ways == u32::MAX {
            cfg.entries as usize
        } else {
            cfg.ways as usize
        };
        Self {
            entries: TagStore::with_entries(cfg.entries as usize, ways),
            lookup_cycles: cfg.lookup_cycles,
            stats: TlbStats::default(),
        }
    }

    /// Lookup latency in cycles (applied by the owning component).
    pub fn lookup_cycles(&self) -> u32 {
        self.lookup_cycles
    }

    /// Looks up `vpn`, recording hit/miss.
    pub fn lookup(&mut self, vpn: u64, now: u64) -> Option<u64> {
        match self.entries.lookup(vpn, now) {
            Some(&mut pfn) => {
                self.stats.hits += 1;
                Some(pfn)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks residency without counting a lookup or touching LRU.
    pub fn probe(&self, vpn: u64) -> Option<u64> {
        self.entries.peek(vpn).copied()
    }

    /// Installs a translation.
    pub fn insert(&mut self, vpn: u64, pfn: u64, now: u64) {
        if self.entries.insert(vpn, pfn, now).is_some() {
            self.stats.evictions += 1;
        }
    }

    /// Resident translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

snap_fields! {
    /// The lookup latency is builder-time configuration; it is saved so
    /// the bytes say which TLB they describe. The generated `load_into`
    /// restores the entry store in place.
    impl Snap for Tlb { entries, lookup_cycles, stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1_cfg() -> TlbConfig {
        TlbConfig {
            entries: 4,
            ways: u32::MAX,
            lookup_cycles: 1,
            mshr_entries: 8,
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(&l1_cfg());
        assert_eq!(tlb.lookup(7, 0), None);
        tlb.insert(7, 0x70, 0);
        assert_eq!(tlb.lookup(7, 1), Some(0x70));
        assert_eq!(tlb.stats.hits, 1);
        assert_eq!(tlb.stats.misses, 1);
    }

    #[test]
    fn fully_associative_evicts_lru() {
        let mut tlb = Tlb::new(&l1_cfg());
        for vpn in 0..4 {
            tlb.insert(vpn, vpn * 16, vpn);
        }
        tlb.lookup(0, 10); // refresh vpn 0
        tlb.insert(9, 0x90, 11); // evicts vpn 1 (LRU)
        assert_eq!(tlb.probe(0), Some(0));
        assert_eq!(tlb.probe(1), None);
        assert_eq!(tlb.stats.evictions, 1);
    }

    #[test]
    fn set_associative_geometry() {
        let cfg = TlbConfig {
            entries: 512,
            ways: 8,
            lookup_cycles: 10,
            mshr_entries: 64,
        };
        let tlb = Tlb::new(&cfg);
        assert_eq!(tlb.lookup_cycles(), 10);
        assert!(tlb.is_empty());
    }

    #[test]
    fn probe_does_not_count() {
        let mut tlb = Tlb::new(&l1_cfg());
        tlb.insert(3, 0x30, 0);
        assert_eq!(tlb.probe(3), Some(0x30));
        assert_eq!(tlb.stats.hits + tlb.stats.misses, 0);
    }
}
