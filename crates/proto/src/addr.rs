//! Virtual and physical addresses, cache lines, sectors and pages.
//!
//! The simulated machine uses the address geometry of the paper's baseline:
//!
//! * 48-bit virtual addresses translated by a 4-level radix page table
//!   (9 bits per level, 4 KiB pages) — §2.3;
//! * 64-byte cache lines — Table 2;
//! * 16-byte sectors within a line, the granularity at which Trimming
//!   fetches remote data and at which the sectored L1 fills — §4.3.

use core::fmt;

/// Bytes per cache line (Table 2).
pub const LINE_BYTES: u64 = 64;
/// Bytes per page (standard 4 KiB small pages, §2.3).
pub const PAGE_BYTES: u64 = 4096;
/// Default Trimming / sector granularity in bytes (§4.3).
pub const SECTOR_BYTES: u64 = 16;
/// Number of page-table levels in the radix tree (§2.3).
pub const PT_LEVELS: u8 = 4;
/// Virtual-address bits carried by a PCIe-style packet header (§4.1).
pub const VA_BITS: u32 = 48;
/// Index bits per page-table level (512-entry tables).
pub const PT_LEVEL_BITS: u32 = 9;

/// A virtual address in the unified virtual memory space shared by all GPUs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

/// A physical address. The physical space is partitioned across GPUs: the
/// bits above [`PA_GPU_REGION_BITS`](crate::config::PA_GPU_REGION_BITS)
/// name the GPU whose HBM holds the byte.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PAddr(pub u64);

/// A physical cache-line address (a [`PAddr`] with the low 6 bits cleared).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

impl fmt::Debug for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line:{:#x}", self.0)
    }
}

impl VAddr {
    /// Virtual page number of this address.
    #[inline]
    pub const fn vpn(self) -> u64 {
        self.0 / PAGE_BYTES
    }

    /// Byte offset within the page.
    #[inline]
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_BYTES
    }

    /// Byte offset within the 64 B cache line.
    #[inline]
    pub const fn line_offset(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// Radix-tree index at `level` (level 1 is the root, level 4 the leaf),
    /// matching the 4-level walk of §2.3.
    #[inline]
    pub const fn pt_index(self, level: u8) -> u64 {
        debug_assert!(level >= 1 && level <= PT_LEVELS);
        let shift = 12 + PT_LEVEL_BITS * (PT_LEVELS - level) as u32;
        (self.0 >> shift) & ((1 << PT_LEVEL_BITS) - 1)
    }
}

impl PAddr {
    /// Physical page frame number.
    #[inline]
    pub const fn pfn(self) -> u64 {
        self.0 / PAGE_BYTES
    }

    /// Physical cache-line address containing this byte.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 & !(LINE_BYTES - 1))
    }

    /// Byte offset within the 64 B cache line.
    #[inline]
    pub const fn line_offset(self) -> u64 {
        self.0 % LINE_BYTES
    }

    /// Sector index within the cache line at `sector_bytes` granularity.
    #[inline]
    pub const fn sector(self, sector_bytes: u64) -> u8 {
        (self.line_offset() / sector_bytes) as u8
    }
}

impl LineAddr {
    /// Constructs the line address containing `pa`.
    #[inline]
    pub const fn containing(pa: PAddr) -> Self {
        pa.line()
    }

    /// First byte of the line as a full physical address.
    #[inline]
    pub const fn base(self) -> PAddr {
        PAddr(self.0)
    }

    /// Physical page frame number of the line.
    #[inline]
    pub const fn pfn(self) -> u64 {
        self.0 / PAGE_BYTES
    }
}

/// A byte-range mask over one 64 B cache line, recording exactly which bytes
/// a coalesced wavefront access touches.
///
/// The paper's Figure 7 characterizes inter-cluster read requests by how
/// many line bytes the wavefront actually needs; this mask is where that
/// information originates. It also drives the Trimming decision (§4.3): a
/// request whose mask fits in one 16 B sector is eligible for a trimmed
/// response.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineMask(pub u64);

impl LineMask {
    /// The empty mask.
    pub const EMPTY: LineMask = LineMask(0);
    /// Mask covering the whole 64 B line.
    pub const FULL: LineMask = LineMask(u64::MAX);

    /// Mask for `len` bytes starting at byte `offset` within the line.
    /// Saturates at the line end.
    #[inline]
    pub const fn span(offset: u64, len: u64) -> Self {
        debug_assert!(offset < LINE_BYTES);
        let end = if offset + len > LINE_BYTES {
            LINE_BYTES
        } else {
            offset + len
        };
        let n = end - offset;
        if n == 64 {
            return LineMask(u64::MAX);
        }
        LineMask(((1u64 << n) - 1) << offset)
    }

    /// Number of bytes covered.
    #[inline]
    pub const fn bytes(self) -> u32 {
        self.0.count_ones()
    }

    /// True if no byte is covered.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two masks.
    #[inline]
    pub const fn union(self, other: Self) -> Self {
        LineMask(self.0 | other.0)
    }

    /// True if every byte of `self` is also in `other`.
    #[inline]
    pub const fn subset_of(self, other: Self) -> bool {
        self.0 & !other.0 == 0
    }

    /// Mask of the sectors (at `sector_bytes` granularity) needed to cover
    /// this byte mask. Bit `i` of the result covers bytes
    /// `[i*sector_bytes, (i+1)*sector_bytes)`.
    pub fn sectors(self, sector_bytes: u64) -> u16 {
        let n_sectors = (LINE_BYTES / sector_bytes) as u16;
        debug_assert!(n_sectors <= 16, "sector granularity below 4 B unsupported");
        let mut out = 0u16;
        for s in 0..n_sectors {
            let sector_mask = LineMask::span(s as u64 * sector_bytes, sector_bytes);
            if self.0 & sector_mask.0 != 0 {
                out |= 1 << s;
            }
        }
        out
    }

    /// True if all covered bytes fit in a single sector of `sector_bytes`,
    /// i.e. the access qualifies for Trimming's "needs 16 bytes" bit.
    pub fn fits_one_sector(self, sector_bytes: u64) -> bool {
        !self.is_empty() && self.sectors(sector_bytes).count_ones() == 1
    }

    /// Index of the lowest sector touched, at `sector_bytes` granularity.
    /// Returns `None` for an empty mask.
    pub fn first_sector(self, sector_bytes: u64) -> Option<u8> {
        if self.is_empty() {
            None
        } else {
            Some((self.0.trailing_zeros() as u64 / sector_bytes) as u8)
        }
    }

    /// Bucket of bytes required as reported in Figure 7: 16, 32, 48 or 64.
    /// An access needing 1–16 bytes buckets to 16, and so on.
    pub fn fig7_bucket(self) -> u32 {
        let b = self.bytes();
        (b.div_ceil(16)).max(1) * 16
    }
}

impl fmt::Debug for LineMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mask[{}B:{:#018x}]", self.bytes(), self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_and_offsets() {
        let va = VAddr(0x12345);
        assert_eq!(va.vpn(), 0x12);
        assert_eq!(va.page_offset(), 0x345);
        assert_eq!(va.line_offset(), 0x05);
    }

    #[test]
    fn pt_indices_cover_48_bits() {
        // Address with distinct 9-bit groups.
        let va = VAddr((1u64 << 39) | (2 << 30) | (3 << 21) | (4 << 12) | 0xabc);
        assert_eq!(va.pt_index(1), 1);
        assert_eq!(va.pt_index(2), 2);
        assert_eq!(va.pt_index(3), 3);
        assert_eq!(va.pt_index(4), 4);
        assert_eq!(va.page_offset(), 0xabc);
    }

    #[test]
    fn line_and_sector_math() {
        let pa = PAddr(0x1003a);
        assert_eq!(pa.line(), LineAddr(0x10000));
        assert_eq!(pa.line_offset(), 0x3a);
        assert_eq!(pa.sector(16), 3);
        assert_eq!(LineAddr(0x10000).base(), PAddr(0x10000));
    }

    #[test]
    fn line_mask_span_and_bytes() {
        let m = LineMask::span(4, 8);
        assert_eq!(m.bytes(), 8);
        assert!(!m.is_empty());
        assert!(m.subset_of(LineMask::FULL));
        assert_eq!(LineMask::span(0, 64), LineMask::FULL);
        assert_eq!(
            LineMask::span(60, 100).bytes(),
            4,
            "span saturates at line end"
        );
    }

    #[test]
    fn sector_coverage() {
        let m = LineMask::span(0, 8);
        assert_eq!(m.sectors(16), 0b0001);
        assert!(m.fits_one_sector(16));
        assert_eq!(m.first_sector(16), Some(0));

        let m = LineMask::span(14, 4); // straddles sector 0/1 boundary
        assert_eq!(m.sectors(16), 0b0011);
        assert!(!m.fits_one_sector(16));

        let m = LineMask::span(48, 16);
        assert_eq!(m.sectors(16), 0b1000);
        assert_eq!(m.first_sector(16), Some(3));

        assert_eq!(LineMask::EMPTY.first_sector(16), None);
        assert!(!LineMask::EMPTY.fits_one_sector(16));
    }

    #[test]
    fn sector_granularity_4_and_8() {
        let m = LineMask::span(0, 4);
        assert_eq!(m.sectors(4), 0b1);
        assert_eq!(m.sectors(8), 0b1);
        let m = LineMask::span(8, 8);
        assert_eq!(m.sectors(8), 0b10);
        assert!(m.fits_one_sector(8));
    }

    #[test]
    fn fig7_buckets() {
        assert_eq!(LineMask::span(0, 1).fig7_bucket(), 16);
        assert_eq!(LineMask::span(0, 16).fig7_bucket(), 16);
        assert_eq!(LineMask::span(0, 17).fig7_bucket(), 32);
        assert_eq!(LineMask::span(0, 33).fig7_bucket(), 48);
        assert_eq!(LineMask::FULL.fig7_bucket(), 64);
    }

    #[test]
    fn mask_union_subset() {
        let a = LineMask::span(0, 8);
        let b = LineMask::span(8, 8);
        let u = a.union(b);
        assert_eq!(u.bytes(), 16);
        assert!(a.subset_of(u));
        assert!(b.subset_of(u));
        assert!(!u.subset_of(a));
    }
}
