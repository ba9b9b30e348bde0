//! The hardware memory coalescer (§2.1): merges the per-thread addresses
//! of a 64-lane wavefront into per-cache-line requests before they reach
//! the L1 vector cache.
//!
//! Threads within a wavefront issue one address each (or none, when
//! predicated off). The coalescer groups them by 64 B line and produces
//! one [`CoalescedAccess`] per distinct line, whose byte mask is the
//! union of the lanes' spans — exactly the quantity Figure 7
//! characterizes and Trimming exploits. A fully sequential wavefront
//! collapses to a handful of full-line accesses; a random-gather
//! wavefront degenerates to up to 64 small accesses.

use std::collections::BTreeMap;

use netcrafter_proto::access::{AccessKind, CoalescedAccess};
use netcrafter_proto::{LineMask, VAddr, LINE_BYTES};

/// Number of lanes (threads) per wavefront (§2.1: wavefront size 64).
pub const WAVEFRONT_LANES: usize = 64;

/// One lane's memory operand: an address and an element size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccess {
    /// The lane's element address.
    pub addr: VAddr,
    /// Element size (1–16 bytes; elements never straddle a line).
    pub bytes: u8,
}

impl LaneAccess {
    /// Convenience constructor.
    pub fn new(addr: u64, bytes: u8) -> Self {
        assert!(bytes >= 1 && bytes as u64 <= 16, "element size {bytes}");
        assert!(
            addr % LINE_BYTES + bytes as u64 <= LINE_BYTES,
            "element at {addr:#x} straddles a cache line"
        );
        Self {
            addr: VAddr(addr),
            bytes,
        }
    }
}

/// Statistics the coalescer keeps (per CU in hardware; callers aggregate).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoalescerStats {
    /// Wavefront memory instructions processed.
    pub instructions: u64,
    /// Active lanes seen.
    pub lanes: u64,
    /// Coalesced line requests emitted.
    pub requests: u64,
}

/// The coalescing unit.
#[derive(Debug, Default)]
pub struct Coalescer {
    /// Statistics.
    pub stats: CoalescerStats,
}

impl Coalescer {
    /// Creates a coalescer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Coalesces one wavefront memory instruction: the active lanes'
    /// operands merge into one request per distinct 64 B line, in
    /// ascending line order (the deterministic hardware arbitration).
    ///
    /// # Panics
    ///
    /// Panics if more than [`WAVEFRONT_LANES`] lanes are supplied.
    pub fn coalesce(&mut self, lanes: &[LaneAccess], kind: AccessKind) -> Vec<CoalescedAccess> {
        assert!(lanes.len() <= WAVEFRONT_LANES, "{} lanes", lanes.len());
        self.stats.instructions += 1;
        self.stats.lanes += lanes.len() as u64;
        let mut per_line: BTreeMap<u64, LineMask> = BTreeMap::new();
        for lane in lanes {
            let line = lane.addr.0 / LINE_BYTES;
            let mask = LineMask::span(lane.addr.line_offset(), lane.bytes as u64);
            per_line
                .entry(line)
                .and_modify(|m| *m = m.union(mask))
                .or_insert(mask);
        }
        self.stats.requests += per_line.len() as u64;
        per_line
            .into_iter()
            .map(|(line, mask)| CoalescedAccess::with_mask(VAddr(line * LINE_BYTES), kind, mask))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 64 lanes reading consecutive 4-byte elements span 4 lines and
    /// coalesce into exactly 4 full-line requests.
    #[test]
    fn sequential_lanes_coalesce_to_full_lines() {
        let mut c = Coalescer::new();
        let lanes: Vec<_> = (0..64)
            .map(|i| LaneAccess::new(0x1000 + i * 4, 4))
            .collect();
        let reqs = c.coalesce(&lanes, AccessKind::Read);
        assert_eq!(reqs.len(), 4);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.vaddr.0, 0x1000 + i as u64 * 64);
            assert_eq!(r.mask, LineMask::FULL);
            assert_eq!(r.bytes_required(), 64);
        }
        assert_eq!((c.stats.instructions, c.stats.requests), (1, 4));
    }

    /// Random-gather lanes produce one small request per distinct line —
    /// the Figure 7 ≤16 B population.
    #[test]
    fn divergent_lanes_stay_small() {
        let mut c = Coalescer::new();
        let lanes: Vec<_> = (0..8)
            .map(|i| LaneAccess::new(0x10_000 + i * 4096, 8))
            .collect();
        let reqs = c.coalesce(&lanes, AccessKind::Read);
        assert_eq!(reqs.len(), 8, "no two lanes share a line");
        assert!(reqs.iter().all(|r| r.bytes_required() == 8));
        assert!(reqs.iter().all(|r| r.mask.fits_one_sector(16)));
    }

    /// Lanes hitting the same line with scattered elements union their
    /// masks into one request.
    #[test]
    fn same_line_lanes_merge_masks() {
        let mut c = Coalescer::new();
        let lanes = [
            LaneAccess::new(0x2000, 4),
            LaneAccess::new(0x2010, 4),
            LaneAccess::new(0x2030, 8),
        ];
        let reqs = c.coalesce(&lanes, AccessKind::Write);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].bytes_required(), 16);
        assert_eq!(reqs[0].mask.sectors(16), 0b1011);
        assert!(reqs[0].kind.is_write());
    }

    /// Strided lanes (transpose columns): one 4 B element per line.
    #[test]
    fn strided_lanes_one_element_per_line() {
        let mut c = Coalescer::new();
        let lanes: Vec<_> = (0..16).map(|i| LaneAccess::new(i * 1024, 4)).collect();
        let reqs = c.coalesce(&lanes, AccessKind::Read);
        assert_eq!(reqs.len(), 16);
        assert!(reqs.iter().all(|r| r.bytes_required() == 4));
    }

    /// Output order is ascending-line deterministic regardless of lane
    /// order.
    #[test]
    fn output_is_line_sorted() {
        let mut c = Coalescer::new();
        let lanes = [
            LaneAccess::new(0x3040, 4),
            LaneAccess::new(0x3000, 4),
            LaneAccess::new(0x30c0, 4),
        ];
        let reqs = c.coalesce(&lanes, AccessKind::Read);
        let addrs: Vec<u64> = reqs.iter().map(|r| r.vaddr.0).collect();
        assert_eq!(addrs, vec![0x3000, 0x3040, 0x30c0]);
    }

    #[test]
    #[should_panic(expected = "straddles")]
    fn straddling_element_rejected() {
        let _ = LaneAccess::new(0x103c, 8);
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn too_many_lanes_rejected() {
        let mut c = Coalescer::new();
        let lanes: Vec<_> = (0..65).map(|i| LaneAccess::new(i * 64, 4)).collect();
        let _ = c.coalesce(&lanes, AccessKind::Read);
    }
}
