//! The per-CU L1 vector cache: 64 KB, write-through, 20-cycle lookup,
//! 32-entry MSHR (Table 2), with per-sector line validity to support
//! NetCrafter's Trimming (§4.3) and the sector-cache baseline (§5.3).
//!
//! The L1 is a passive structure embedded in its CU component: the CU
//! drives it, applies the 20-cycle lookup latency to completions, issues
//! the fill requests it demands, and feeds responses back through
//! [`L1Cache::fill`].

use netcrafter_proto::config::{CacheConfig, SectorFillPolicy};
use netcrafter_proto::{AccessId, LineAddr, LineMask, Metrics, LINE_BYTES};
use netcrafter_sim::snap_fields;

use crate::mshr::{Mshr, MshrOutcome};
use crate::tagstore::TagStore;

/// Outcome of an L1 read lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Access {
    /// All needed sectors are resident; data is ready after the lookup
    /// latency.
    Hit,
    /// Miss: the caller must fetch `sectors` of the line from the owning
    /// L2 (local or remote) and call [`L1Cache::fill`] with the response.
    Miss {
        /// Sector mask to request, per the configured fill policy.
        sectors: u16,
    },
    /// Miss merged into an in-flight fill of the same line; the waiter
    /// wakes when that fill lands. No new request is needed.
    MergedMiss,
    /// The MSHR is full (or an in-flight partial fill cannot satisfy this
    /// request): retry next cycle.
    Stall,
}

/// A read decided but not yet made (see [`L1Cache::plan_read`]).
struct ReadPlan {
    access: L1Access,
    /// Sectors to register with the MSHR; unused on a hit.
    register_mask: u16,
    /// The line is resident but lacks a needed sector.
    sector_miss: bool,
}

/// L1 statistics (drives the MPKI comparisons of Figures 16 and 17).
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Stats {
    /// Read lookups.
    pub reads: u64,
    /// Write lookups (write-through; never allocate).
    pub writes: u64,
    /// Read hits.
    pub hits: u64,
    /// Read misses (allocated + merged).
    pub misses: u64,
    /// Misses where the line was resident but a needed sector was not —
    /// the cost of sectored fills.
    pub sector_misses: u64,
    /// Fills applied.
    pub fills: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
}

snap_fields! {
    impl Snap for L1Stats { reads, writes, hits, misses, sector_misses, fills, evictions }
}

impl L1Stats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.reads"), self.reads);
        metrics.add(&format!("{prefix}.writes"), self.writes);
        metrics.add(&format!("{prefix}.hits"), self.hits);
        metrics.add(&format!("{prefix}.misses"), self.misses);
        metrics.add(&format!("{prefix}.sector_misses"), self.sector_misses);
        metrics.add(&format!("{prefix}.fills"), self.fills);
        metrics.add(&format!("{prefix}.evictions"), self.evictions);
    }
}

/// The L1 vector cache model.
///
/// # Examples
///
/// ```
/// use netcrafter_mem::{L1Access, L1Cache};
/// use netcrafter_proto::config::{CacheConfig, SectorFillPolicy};
/// use netcrafter_proto::{AccessId, LineAddr, LineMask};
///
/// let cfg = CacheConfig {
///     size_bytes: 64 * 1024, ways: 4, lookup_cycles: 20, mshr_entries: 32,
/// };
/// let mut l1 = L1Cache::new(&cfg, SectorFillPolicy::OnTrim, 16);
/// // An 8-byte cross-cluster read requests a single trimmed sector…
/// let acc = l1.read(LineAddr(0x40), LineMask::span(0, 8), AccessId(1), 0, true);
/// assert_eq!(acc, L1Access::Miss { sectors: 0b0001 });
/// // …and the fill wakes the waiter and validates just that sector.
/// assert_eq!(l1.fill(LineAddr(0x40), 0b0001, 10), vec![AccessId(1)]);
/// assert_eq!(
///     l1.read(LineAddr(0x40), LineMask::span(0, 4), AccessId(2), 11, true),
///     L1Access::Hit
/// );
/// ```
#[derive(Debug)]
pub struct L1Cache {
    tags: TagStore<u16>,
    mshr: Mshr<AccessId>,
    policy: SectorFillPolicy,
    granularity: u32,
    full_mask: u16,
    lookup_cycles: u32,
    /// Statistics.
    pub stats: L1Stats,
}

impl L1Cache {
    /// Builds an L1 from its configuration.
    pub fn new(cfg: &CacheConfig, policy: SectorFillPolicy, granularity: u32) -> Self {
        assert!(granularity > 0 && (LINE_BYTES as u32).is_multiple_of(granularity));
        let lines = (cfg.size_bytes / LINE_BYTES) as usize;
        let sectors_per_line = LINE_BYTES as u32 / granularity;
        Self {
            tags: TagStore::with_entries(lines, cfg.ways as usize),
            mshr: Mshr::new(cfg.mshr_entries as usize),
            policy,
            granularity,
            full_mask: ((1u32 << sectors_per_line) - 1) as u16,
            lookup_cycles: cfg.lookup_cycles,
            stats: L1Stats::default(),
        }
    }

    /// Lookup latency in cycles (the CU applies it to completions).
    pub fn lookup_cycles(&self) -> u32 {
        self.lookup_cycles
    }

    /// Configured sector granularity in bytes.
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// Sector mask a fill request should carry for an access needing
    /// `mask`, given the fill policy and whether the line's owner is
    /// across the inter-cluster network.
    ///
    /// * `FullLine` — always the whole line (baseline).
    /// * `Always` — exactly the needed sectors (sector-cache baseline,
    ///   local and remote alike).
    /// * `OnTrim` — one sector only when the access fits a single sector
    ///   *and* the response would cross clusters (§4.3: "we only trim when
    ///   the request has to traverse the lowest-bandwidth network").
    pub fn fill_request_sectors(&self, mask: LineMask, crosses_clusters: bool) -> u16 {
        match self.policy {
            SectorFillPolicy::FullLine => self.full_mask,
            SectorFillPolicy::Always => mask.sectors(self.granularity as u64),
            SectorFillPolicy::OnTrim => {
                if crosses_clusters && mask.fits_one_sector(self.granularity as u64) {
                    mask.sectors(self.granularity as u64)
                } else {
                    self.full_mask
                }
            }
        }
    }

    /// Decides a read of `mask` of the line `key`, given the line's
    /// resident sectors, without changing anything: the outcome, and the
    /// sectors a miss registers with the MSHR. [`L1Cache::read`] and
    /// [`L1Cache::read_would_stall`] both decide here, so a retry that is
    /// skipped because it would stall is one `read` would have stalled.
    fn plan_read(
        &self,
        key: u64,
        mask: LineMask,
        resident: Option<u16>,
        crosses_clusters: bool,
    ) -> ReadPlan {
        let needed = mask.sectors(self.granularity as u64);
        if resident.is_some_and(|valid| needed & !valid == 0) {
            return ReadPlan {
                access: L1Access::Hit,
                register_mask: 0,
                sector_miss: false,
            };
        }
        let request = self.fill_request_sectors(mask, crosses_clusters);
        debug_assert_eq!(needed & !request, 0, "fill must cover the access");
        // Merging into an in-flight fill is judged on the sectors this
        // access *needs*; only a fresh allocation records the (possibly
        // wider) fill-request coverage. Otherwise a local full-line
        // request behind a trimmed single-sector fill would stall even
        // though the fill covers it.
        let register_mask = if self.mshr.contains(key) {
            needed
        } else {
            request
        };
        let access = match self.mshr.probe(key, register_mask) {
            MshrOutcome::Allocated => L1Access::Miss { sectors: request },
            MshrOutcome::Merged => L1Access::MergedMiss,
            MshrOutcome::Stalled => L1Access::Stall,
        };
        ReadPlan {
            access,
            register_mask,
            sector_miss: resident.is_some(),
        }
    }

    /// Performs a read lookup for `waiter` needing `mask` of `line`.
    pub fn read(
        &mut self,
        line: LineAddr,
        mask: LineMask,
        waiter: AccessId,
        now: u64,
        crosses_clusters: bool,
    ) -> L1Access {
        let key = line.0 / LINE_BYTES;
        let resident = self.tags.lookup(key, now).map(|v| *v);
        let plan = self.plan_read(key, mask, resident, crosses_clusters);
        // Statistics count each logical access once: a Stall outcome is
        // retried by the CU and must not inflate the read/sector-miss
        // counters on every attempt (the MSHR counts the stall).
        match plan.access {
            L1Access::Hit => {
                self.stats.reads += 1;
                self.stats.hits += 1;
                return L1Access::Hit;
            }
            L1Access::Miss { .. } | L1Access::MergedMiss => {
                self.stats.reads += 1;
                self.stats.sector_misses += u64::from(plan.sector_miss);
                self.stats.misses += 1;
            }
            L1Access::Stall => {}
        }
        let outcome = self.mshr.register(key, plan.register_mask, waiter);
        debug_assert_eq!(
            outcome == MshrOutcome::Stalled,
            plan.access == L1Access::Stall,
            "the MSHR must do what the plan probed"
        );
        plan.access
    }

    /// True when [`L1Cache::read`] of `mask` of `line` would return
    /// [`L1Access::Stall`] in the cache's current state. Changes nothing
    /// (no LRU stamp, no counter): a CU whose stalled retries would all
    /// stall again sleeps on this instead of re-reading every cycle, and
    /// books the skipped attempts with
    /// [`L1Cache::settle_stalled_reads`].
    pub fn read_would_stall(&self, line: LineAddr, mask: LineMask, crosses_clusters: bool) -> bool {
        let key = line.0 / LINE_BYTES;
        let resident = self.tags.peek(key).copied();
        self.plan_read(key, mask, resident, crosses_clusters).access == L1Access::Stall
    }

    /// True when some sector of `line` is resident. Changes nothing.
    pub fn is_resident(&self, line: LineAddr) -> bool {
        self.tags.peek(line.0 / LINE_BYTES).is_some()
    }

    /// Books `attempts` consecutive stalled reads of `line`, one per
    /// cycle and the last at cycle `last`, without executing them: what
    /// [`L1Cache::read`] changes when it returns [`L1Access::Stall`] is
    /// one MSHR stall per attempt and the LRU stamp of the line, if it is
    /// resident (a stall on a missing sector).
    pub fn settle_stalled_reads(&mut self, line: LineAddr, attempts: u64, last: u64) {
        self.mshr.full_stalls += attempts;
        let _ = self.tags.lookup(line.0 / LINE_BYTES, last);
    }

    /// Performs a write lookup. The L1 is write-through and
    /// no-write-allocate: the write always propagates to the owning L2;
    /// if the line is resident its written sectors remain valid (data
    /// updated in place).
    pub fn write(&mut self, line: LineAddr, _mask: LineMask, now: u64) {
        self.stats.writes += 1;
        let key = line.0 / LINE_BYTES;
        let _ = self.tags.lookup(key, now);
    }

    /// Applies a fill carrying `sectors_valid` of `line`; returns the
    /// accesses waiting on it.
    pub fn fill(&mut self, line: LineAddr, sectors_valid: u16, now: u64) -> Vec<AccessId> {
        self.stats.fills += 1;
        let key = line.0 / LINE_BYTES;
        if let Some(valid) = self.tags.lookup(key, now) {
            *valid |= sectors_valid;
        } else if self.tags.insert(key, sectors_valid, now).is_some() {
            self.stats.evictions += 1;
        }
        self.mshr.complete(key)
    }

    /// True while fills are pending.
    pub fn busy(&self) -> bool {
        !self.mshr.is_empty()
    }

    /// MSHR stall count (diagnostics).
    pub fn mshr_stalls(&self) -> u64 {
        self.mshr.full_stalls
    }

    snap_fields! {
        pub fn save + load_into {
            policy: skipped(config),
            granularity: skipped(config),
            full_mask: skipped(config),
            lookup_cycles: skipped(config),
            tags,
            mshr,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(policy: SectorFillPolicy) -> L1Cache {
        L1Cache::new(
            &CacheConfig {
                size_bytes: 1024, // 16 lines
                ways: 4,
                lookup_cycles: 20,
                mshr_entries: 4,
            },
            policy,
            16,
        )
    }

    fn line(n: u64) -> LineAddr {
        LineAddr(n * 64)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(SectorFillPolicy::FullLine);
        let r = c.read(line(1), LineMask::span(0, 8), AccessId(1), 0, false);
        assert_eq!(r, L1Access::Miss { sectors: 0b1111 });
        assert_eq!(c.fill(line(1), 0b1111, 5), vec![AccessId(1)]);
        let r = c.read(line(1), LineMask::span(32, 8), AccessId(2), 6, false);
        assert_eq!(r, L1Access::Hit);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn merged_miss_wakes_both_waiters() {
        let mut c = cache(SectorFillPolicy::FullLine);
        assert!(matches!(
            c.read(line(2), LineMask::span(0, 4), AccessId(1), 0, false),
            L1Access::Miss { .. }
        ));
        assert_eq!(
            c.read(line(2), LineMask::span(8, 4), AccessId(2), 1, false),
            L1Access::MergedMiss
        );
        let woken = c.fill(line(2), 0b1111, 10);
        assert_eq!(woken, vec![AccessId(1), AccessId(2)]);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = cache(SectorFillPolicy::FullLine);
        for i in 0..4 {
            assert!(matches!(
                c.read(line(10 + i), LineMask::span(0, 4), AccessId(i), 0, false),
                L1Access::Miss { .. }
            ));
        }
        assert_eq!(
            c.read(line(20), LineMask::span(0, 4), AccessId(9), 1, false),
            L1Access::Stall
        );
        assert!(c.mshr_stalls() > 0);
    }

    #[test]
    fn trim_policy_requests_single_sector_only_across_clusters() {
        let c = cache(SectorFillPolicy::OnTrim);
        let small = LineMask::span(16, 8); // fits sector 1
        assert_eq!(c.fill_request_sectors(small, true), 0b0010);
        assert_eq!(
            c.fill_request_sectors(small, false),
            0b1111,
            "local: full line"
        );
        let wide = LineMask::span(8, 16); // straddles sectors 0-1
        assert_eq!(
            c.fill_request_sectors(wide, true),
            0b1111,
            "multi-sector: full line"
        );
    }

    #[test]
    fn always_policy_requests_needed_sectors_everywhere() {
        let c = cache(SectorFillPolicy::Always);
        let m = LineMask::span(48, 8);
        assert_eq!(c.fill_request_sectors(m, false), 0b1000);
        assert_eq!(c.fill_request_sectors(m, true), 0b1000);
    }

    #[test]
    fn sector_miss_on_partial_line() {
        let mut c = cache(SectorFillPolicy::OnTrim);
        // Trimmed fill brings only sector 0.
        assert_eq!(
            c.read(line(3), LineMask::span(0, 8), AccessId(1), 0, true),
            L1Access::Miss { sectors: 0b0001 }
        );
        c.fill(line(3), 0b0001, 5);
        // Sector 0 hits.
        assert_eq!(
            c.read(line(3), LineMask::span(4, 4), AccessId(2), 6, true),
            L1Access::Hit
        );
        // Sector 3 misses even though the line is resident.
        assert_eq!(
            c.read(line(3), LineMask::span(48, 8), AccessId(3), 7, true),
            L1Access::Miss { sectors: 0b1000 }
        );
        assert_eq!(c.stats.sector_misses, 1);
        c.fill(line(3), 0b1000, 12);
        // Now both sectors are valid.
        assert_eq!(
            c.read(line(3), LineMask::span(48, 4), AccessId(4), 13, true),
            L1Access::Hit
        );
    }

    #[test]
    fn uncovered_inflight_fill_stalls_new_sector() {
        let mut c = cache(SectorFillPolicy::OnTrim);
        assert_eq!(
            c.read(line(4), LineMask::span(0, 8), AccessId(1), 0, true),
            L1Access::Miss { sectors: 0b0001 }
        );
        // Same line, different sector, while the single-sector fill is in
        // flight: cannot merge, must stall and retry after the fill.
        assert_eq!(
            c.read(line(4), LineMask::span(32, 8), AccessId(2), 1, true),
            L1Access::Stall
        );
        c.fill(line(4), 0b0001, 10);
        assert_eq!(
            c.read(line(4), LineMask::span(32, 8), AccessId(2), 11, true),
            L1Access::Miss { sectors: 0b0100 }
        );
    }

    #[test]
    fn eviction_counted() {
        let mut c = cache(SectorFillPolicy::FullLine);
        // 16 lines, 4 ways, 4 sets. Fill 5 lines mapping to the same set
        // (stride = n_sets lines).
        let n_sets = 4;
        for i in 0..5u64 {
            let l = line(i * n_sets);
            assert!(matches!(
                c.read(l, LineMask::span(0, 4), AccessId(i), i, false),
                L1Access::Miss { .. }
            ));
            c.fill(l, 0b1111, i + 100);
        }
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn writes_do_not_allocate() {
        let mut c = cache(SectorFillPolicy::FullLine);
        c.write(line(6), LineMask::span(0, 8), 0);
        assert_eq!(c.stats.writes, 1);
        // Still a miss on read: writes never allocate.
        assert!(matches!(
            c.read(line(6), LineMask::span(0, 8), AccessId(1), 1, false),
            L1Access::Miss { .. }
        ));
    }
}
