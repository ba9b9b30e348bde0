//! The 4-level radix page table shared by the unified-virtual-memory
//! multi-GPU node, including physical placement of the page-table pages
//! themselves.
//!
//! Placement policy (§2.3): the paper extends LASP by co-locating
//! translation metadata with data — each page-table page is placed on the
//! GPU that owns the first data page mapped beneath it. The root is
//! reached through a per-GPU register, so level-1 reads go wherever the
//! level-1 table was placed (the GPU owning the very first mapping).

use std::collections::BTreeMap;

use netcrafter_proto::addr::{PT_LEVELS, PT_LEVEL_BITS};
use netcrafter_proto::{GpuId, LineAddr, VAddr, PAGE_BYTES};

/// Offset (in frames) of the page-table area inside each GPU's physical
/// partition. Data frames are allocated from the bottom of the partition;
/// page-table frames from this high-water mark, so the two never collide
/// (2^20 frames = 4 GiB of data per GPU before collision, far beyond any
/// simulated footprint).
const PT_FRAME_BASE: u64 = 1 << 20;

/// The physical reads a page-table walk must perform: one `(owner, line)`
/// pair per remaining level.
pub type PtLevelAddrs = Vec<(GpuId, LineAddr)>;

#[derive(Debug, Clone, Copy)]
struct PtNode {
    owner: GpuId,
    /// Physical frame (within `owner`'s partition) holding this table.
    pfn: u64,
}

/// Entries of a leaf (level-4) node: one per page of its 2 MiB region.
const LEAF_ENTRIES: usize = 1 << PT_LEVEL_BITS;

/// A leaf entry that maps nothing. `map` refuses it as a frame number.
const UNMAPPED: u64 = u64::MAX;

/// The functional page table plus the placement of its nodes.
///
/// Built once at "kernel launch" by the LASP placement pass; immutable
/// during simulation (the paper's workloads run with pre-faulted,
/// statically placed pages).
///
/// The mappings are stored the way the radix tree holds them: one
/// 512-entry frame array per leaf node (one 2 MiB region), all of them in
/// one flat allocation. A translation is one probe of the small
/// leaf-index map plus an array index.
///
/// # Examples
///
/// ```
/// use netcrafter_vm::PageTable;
/// use netcrafter_proto::GpuId;
///
/// let mut pt = PageTable::new(1 << 24);
/// pt.map(0x42, 0x1000, GpuId(2)); // page and its PTE page live on gpu2
/// assert_eq!(pt.translate(0x42), Some(0x1000));
/// // A cold walk reads 4 levels; with levels 1-3 cached (PWC hit) only
/// // the leaf PTE is read — and it lives on gpu2, possibly remotely.
/// assert_eq!(pt.walk_reads(0x42, 1).len(), 4);
/// let (owner, _line) = pt.walk_reads(0x42, 4)[0];
/// assert_eq!(owner, GpuId(2));
/// ```
#[derive(Debug, Default)]
pub struct PageTable {
    /// Leaf prefix (`vpn >> 9`) → index into `leaves`.
    leaf_ix: BTreeMap<u64, usize>,
    /// Placement of each leaf node, in creation order.
    leaves: Vec<PtNode>,
    /// The leaves' entries: leaf `i` maps page `j` of its region to
    /// `frames[i * 512 + j]`, or holds [`UNMAPPED`].
    frames: Vec<u64>,
    /// (level, prefix) → placement of the level 1–3 nodes. The prefix of
    /// a node at level ℓ is `vpn >> (9 * (4 - ℓ))`.
    upper: BTreeMap<(u8, u64), PtNode>,
    /// Next free page-table frame per GPU (above `PT_FRAME_BASE`).
    next_pt_frame: BTreeMap<GpuId, u64>,
    /// Frame-number base per GPU (from the physical partition size).
    frames_per_gpu: u64,
}

impl PageTable {
    /// Creates an empty table for GPUs whose partitions are
    /// `frames_per_gpu` frames long.
    pub fn new(frames_per_gpu: u64) -> Self {
        Self {
            frames_per_gpu,
            ..Self::default()
        }
    }

    /// Identity of the *node* read at `level`: the walk path above it.
    /// A level-4 (leaf) node covers 512 pages (one 2 MiB region,
    /// `vpn >> 9`); the level-1 root covers everything (`vpn >> 36 == 0`).
    #[inline]
    fn prefix(vpn: u64, level: u8) -> u64 {
        vpn >> (PT_LEVEL_BITS * (PT_LEVELS - level + 1) as u32)
    }

    /// Maps `vpn → pfn`. Creates any missing radix nodes on the walk path
    /// and places each new node on `pte_owner` — callers pass the GPU
    /// owning the first data page of the node's region, so the first
    /// mapping beneath a node decides its home (the paper's policy).
    pub fn map(&mut self, vpn: u64, pfn: u64, pte_owner: GpuId) {
        assert_ne!(pfn, UNMAPPED, "vpn {vpn:#x}: frame {pfn:#x} is reserved");
        let leaf = match self.leaf(vpn) {
            Some(leaf) => leaf,
            None => self.add_leaf(vpn, pte_owner),
        };
        let entry = &mut self.frames[leaf * LEAF_ENTRIES + Self::leaf_slot(vpn)];
        assert!(*entry == UNMAPPED || *entry == pfn, "vpn {vpn:#x} remapped");
        *entry = pfn;
    }

    /// Creates `vpn`'s leaf and whichever nodes above it are missing, in
    /// walk order, all placed on `owner`; returns the leaf's index. Nodes
    /// above an existing leaf exist: they were created with it.
    fn add_leaf(&mut self, vpn: u64, owner: GpuId) -> usize {
        for level in 1..PT_LEVELS {
            let key = (level, Self::prefix(vpn, level));
            if !self.upper.contains_key(&key) {
                let node = self.place_node(owner);
                self.upper.insert(key, node);
            }
        }
        let node = self.place_node(owner);
        let leaf = self.leaves.len();
        self.leaves.push(node);
        self.frames
            .resize(self.frames.len() + LEAF_ENTRIES, UNMAPPED);
        self.leaf_ix.insert(Self::prefix(vpn, PT_LEVELS), leaf);
        leaf
    }

    /// Allocates the next page-table frame on `owner` for a new node.
    fn place_node(&mut self, owner: GpuId) -> PtNode {
        let next = self.next_pt_frame.entry(owner).or_insert(PT_FRAME_BASE);
        let pfn = *next;
        *next += 1;
        PtNode { owner, pfn }
    }

    /// Index of `vpn`'s entry within its leaf node.
    #[inline]
    fn leaf_slot(vpn: u64) -> usize {
        (vpn % LEAF_ENTRIES as u64) as usize
    }

    /// The leaf node on `vpn`'s path, if one exists.
    #[inline]
    fn leaf(&self, vpn: u64) -> Option<usize> {
        self.leaf_ix.get(&Self::prefix(vpn, PT_LEVELS)).copied()
    }

    /// The node read at `level` of a walk of `vpn`.
    fn node(&self, vpn: u64, level: u8) -> Option<PtNode> {
        if level == PT_LEVELS {
            self.leaf(vpn).map(|leaf| self.leaves[leaf])
        } else {
            self.upper.get(&(level, Self::prefix(vpn, level))).copied()
        }
    }

    /// Functional translation.
    pub fn translate(&self, vpn: u64) -> Option<u64> {
        let leaf = self.leaf(vpn)?;
        let pfn = self.frames[leaf * LEAF_ENTRIES + Self::leaf_slot(vpn)];
        (pfn != UNMAPPED).then_some(pfn)
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.frames.iter().filter(|&&pfn| pfn != UNMAPPED).count()
    }

    /// Number of allocated page-table nodes.
    pub fn node_count(&self) -> usize {
        self.upper.len() + self.leaves.len()
    }

    /// The GPU holding the page-table node at `level` on `vpn`'s path.
    pub fn node_owner(&self, vpn: u64, level: u8) -> Option<GpuId> {
        self.node(vpn, level).map(|n| n.owner)
    }

    /// Physical line holding the entry consulted at `level` of a walk of
    /// `vpn`, with its owner GPU. The entry index within the node selects
    /// the 8-byte slot, hence the line.
    pub fn entry_line(&self, vpn: u64, level: u8) -> Option<(GpuId, LineAddr)> {
        let node = self.node(vpn, level)?;
        let entry_ix = VAddr(vpn * PAGE_BYTES).pt_index(level);
        let gpu_base = (node.owner.raw() as u64) * self.frames_per_gpu * PAGE_BYTES;
        let node_base = gpu_base + node.pfn * PAGE_BYTES;
        let entry_addr = node_base + entry_ix * 8;
        Some((node.owner, netcrafter_proto::PAddr(entry_addr).line()))
    }

    /// The memory reads a walk of `vpn` must perform when starting at
    /// `start_level` (1 = nothing cached, 4 = only the leaf PTE needed).
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is unmapped — workloads only touch pre-placed
    /// pages, so an unmapped walk is a harness bug.
    pub fn walk_reads(&self, vpn: u64, start_level: u8) -> PtLevelAddrs {
        assert!(
            self.translate(vpn).is_some(),
            "page fault: vpn {vpn:#x} is unmapped (workload touched unplaced memory)"
        );
        (start_level..=PT_LEVELS)
            .map(|level| {
                self.entry_line(vpn, level)
                    .unwrap_or_else(|| panic!("missing node at level {level} for vpn {vpn:#x}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAMES: u64 = 1 << 24; // 64 GiB partitions

    #[test]
    fn map_and_translate() {
        let mut pt = PageTable::new(FRAMES);
        pt.map(0x10, 0x999, GpuId(0));
        assert_eq!(pt.translate(0x10), Some(0x999));
        assert_eq!(pt.translate(0x11), None);
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn first_mapping_places_nodes() {
        let mut pt = PageTable::new(FRAMES);
        pt.map(0x10, 0x1, GpuId(2));
        // All four nodes on the path exist and live on gpu2.
        for level in 1..=4 {
            assert_eq!(pt.node_owner(0x10, level), Some(GpuId(2)), "level {level}");
        }
        assert_eq!(pt.node_count(), 4);
    }

    #[test]
    fn second_mapping_in_same_region_reuses_leaf() {
        let mut pt = PageTable::new(FRAMES);
        pt.map(0x10, 0x1, GpuId(2));
        // Same 2 MiB region (same leaf node: vpn >> 9).
        pt.map(0x11, 0x2, GpuId(3));
        assert_eq!(pt.node_count(), 4, "no new nodes");
        // Leaf still owned by the first mapper, per the paper's
        // first-data-page placement.
        assert_eq!(pt.node_owner(0x11, 4), Some(GpuId(2)));
    }

    #[test]
    fn distant_vpn_allocates_new_leaf() {
        let mut pt = PageTable::new(FRAMES);
        pt.map(0x10, 0x1, GpuId(0));
        pt.map(0x10 + 512, 0x2, GpuId(1)); // next 2 MiB region
        assert_eq!(pt.node_owner(0x10, 4), Some(GpuId(0)));
        assert_eq!(pt.node_owner(0x10 + 512, 4), Some(GpuId(1)));
        // Root is shared and keeps its original owner.
        assert_eq!(pt.node_owner(0x10 + 512, 1), Some(GpuId(0)));
    }

    #[test]
    fn walk_reads_shrink_with_start_level() {
        let mut pt = PageTable::new(FRAMES);
        pt.map(0x42, 0x7, GpuId(1));
        assert_eq!(pt.walk_reads(0x42, 1).len(), 4);
        assert_eq!(pt.walk_reads(0x42, 3).len(), 2);
        assert_eq!(pt.walk_reads(0x42, 4).len(), 1);
    }

    #[test]
    fn entry_lines_are_in_owner_partition() {
        let mut pt = PageTable::new(FRAMES);
        pt.map(0x42, 0x7, GpuId(1));
        for (owner, line) in pt.walk_reads(0x42, 1) {
            assert_eq!(owner, GpuId(1));
            let gpu_of_pa = line.0 / (FRAMES * PAGE_BYTES);
            assert_eq!(gpu_of_pa, 1, "PT line {line:?} must live on gpu1");
        }
    }

    #[test]
    fn adjacent_entries_share_lines() {
        let mut pt = PageTable::new(FRAMES);
        // vpn 0 and vpn 1 differ only in the leaf index -> their leaf
        // entries are 8 bytes apart, i.e. the same 64 B line.
        pt.map(0x0, 0x1, GpuId(0));
        pt.map(0x1, 0x2, GpuId(0));
        let a = pt.entry_line(0x0, 4).unwrap();
        let b = pt.entry_line(0x1, 4).unwrap();
        assert_eq!(a, b, "adjacent PTEs coalesce into one line read");
        // vpn 0 and vpn 8 are 64 bytes apart -> different lines.
        pt.map(0x8, 0x3, GpuId(0));
        let c = pt.entry_line(0x8, 4).unwrap();
        assert_ne!(a.1, c.1);
    }

    #[test]
    #[should_panic(expected = "page fault")]
    fn walking_unmapped_page_panics() {
        let pt = PageTable::new(FRAMES);
        pt.walk_reads(0x123, 1);
    }

    #[test]
    fn remap_same_value_is_idempotent() {
        let mut pt = PageTable::new(FRAMES);
        pt.map(0x5, 0x9, GpuId(0));
        pt.map(0x5, 0x9, GpuId(1)); // no-op, nodes already exist
        assert_eq!(pt.mapped_pages(), 1);
    }
}
