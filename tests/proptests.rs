//! Randomized property tests over the core data structures: flit
//! segmentation/reassembly, stitching, the Cluster Queue, address math,
//! the tag store and the page table.
//!
//! Each test draws a few hundred random cases from the in-tree
//! [`SplitMix64`] generator (fixed seeds, so failures reproduce exactly)
//! and asserts the same invariants the original proptest suite checked.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use netcrafter::core::{ClusterQueue, SplitMix64};
use netcrafter::gpu::{Coalescer, LaneAccess};
use netcrafter::mem::TagStore;
use netcrafter::net::{EgressQueue, Reassembler, Segmenter};
use netcrafter::proto::addr::PT_LEVELS;
use netcrafter::proto::AccessKind;
use netcrafter::proto::{
    AccessId, GpuId, LineAddr, LineMask, MemReq, NetCrafterConfig, NodeId, Origin, PAddr, Packet,
    PacketId, PacketKind, PacketPayload, Pooling, Priority, TrafficClass, VAddr, ALL_PACKET_KINDS,
    PAGE_BYTES,
};
use netcrafter::sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};
use netcrafter::vm::PageTable;

const CASES: usize = 256;

fn packet(id: u64, kind: PacketKind, dst: u16) -> Packet {
    let payload = match kind {
        PacketKind::WriteReq | PacketKind::ReadRsp => 64,
        _ => 0,
    };
    Packet {
        id: PacketId(id),
        kind,
        src: NodeId(0),
        dst: NodeId(dst),
        payload_bytes: payload,
        trim: None,
        inner: PacketPayload::Req(MemReq {
            access: AccessId(id),
            line: LineAddr(id * 64),
            write: kind == PacketKind::WriteReq,
            mask: LineMask::span(0, 8),
            sectors: 0b1111,
            class: if kind.is_ptw() {
                TrafficClass::Ptw
            } else {
                TrafficClass::Data
            },
            requester: GpuId(0),
            owner: GpuId(2),
            origin: Origin::Cu(0),
        }),
    }
}

fn rand_kinds(rng: &mut SplitMix64, lo: usize, hi: usize) -> Vec<PacketKind> {
    let n = rng.range(lo as u64, hi as u64) as usize;
    (0..n).map(|_| *rng.pick(&ALL_PACKET_KINDS)).collect()
}

/// Any interleaving of any packet mix reassembles every packet exactly
/// once, at both 8 B and 16 B flit sizes.
#[test]
fn segment_reassemble_round_trips() {
    let mut rng = SplitMix64::new(0x5e91);
    for _ in 0..CASES {
        let kinds = rand_kinds(&mut rng, 1, 19);
        let flit_bytes = *rng.pick(&[8u32, 16]);
        let lace = rng.range(1, 4) as usize;

        let seg = Segmenter::new(flit_bytes);
        let packets: Vec<Packet> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| packet(i as u64, k, 3))
            .collect();
        // Round-robin interleave the packets' flit streams.
        let mut streams: Vec<_> = packets
            .iter()
            .map(|p| seg.segment(p.clone()).into_iter())
            .collect();
        let mut flits = Vec::new();
        let mut exhausted = false;
        while !exhausted {
            exhausted = true;
            for s in &mut streams {
                for _ in 0..lace {
                    if let Some(f) = s.next() {
                        flits.push(f);
                        exhausted = false;
                    }
                }
            }
        }
        let mut reasm = Reassembler::new();
        let mut done = Vec::new();
        for f in flits {
            done.extend(reasm.accept(f));
        }
        assert_eq!(done.len(), packets.len());
        assert_eq!(reasm.in_flight(), 0);
        let mut got: Vec<u64> = done.iter().map(|p| p.id.raw()).collect();
        got.sort_unstable();
        let want: Vec<u64> = (0..packets.len() as u64).collect();
        assert_eq!(got, want);
    }
}

/// The Cluster Queue conserves every packet byte through any mix of
/// stitching, pooling and sequencing: total chunk bytes out equals total
/// chunk bytes in, and every packet id reappears. Every value of each
/// mechanism is sampled, in every combination.
#[test]
fn cluster_queue_conserves_chunks() {
    let mut rng = SplitMix64::new(0xc1a5);
    let mut seen = [[false; 3]; 4];
    for _ in 0..CASES {
        let kinds = rand_kinds(&mut rng, 1, 29);
        let window = *rng.pick(&[16u32, 32]);
        let stitching = rng.below_usize(4);
        let sequencing = rng.below_usize(3);
        seen[stitching][sequencing] = true;
        let cfg = NetCrafterConfig {
            stitching: [
                None,
                Some(Pooling::Off),
                Some(Pooling::new(window, false)),
                Some(Pooling::new(window, true)),
            ][stitching],
            sequencing: [None, Some(Priority::Ptw), Some(Priority::Data)][sequencing],
            ..NetCrafterConfig::disabled()
        };
        let push_gap = rng.below(4);

        let seg = Segmenter::new(16);
        let mut q = ClusterQueue::new(cfg, NodeId(99));
        let mut now = 0u64;
        let mut pushed_bytes = 0u64;
        let mut pushed_chunks = 0usize;
        for (i, &k) in kinds.iter().enumerate() {
            for f in seg.segment(packet(i as u64, k, 3)) {
                pushed_bytes += f.used_bytes() as u64;
                pushed_chunks += f.chunks.len();
                q.push(f, now);
                now += push_gap;
            }
        }
        let mut popped_bytes = 0u64;
        let mut popped_chunks = 0usize;
        let mut ids = BTreeSet::new();
        let mut guard = 0;
        while q.len() > 0 {
            now += 1;
            guard += 1;
            assert!(guard < 1_000_000, "queue must drain");
            if let Some(f) = q.pop(now) {
                assert!(f.used_bytes() <= f.capacity);
                for c in &f.chunks {
                    // Metadata bytes are protocol overhead, not payload.
                    popped_bytes += c.bytes as u64;
                    ids.insert(c.packet.raw());
                }
                popped_chunks += f.chunks.len();
            }
        }
        assert_eq!(popped_bytes, pushed_bytes);
        assert_eq!(popped_chunks, pushed_chunks);
        assert_eq!(ids.len(), kinds.len());
    }
    assert!(
        seen.iter().flatten().all(|&s| s),
        "a mechanism pair was never fuzzed"
    );
}

/// LineMask sector math is self-consistent for every span and
/// granularity.
#[test]
fn line_mask_sectors_cover_mask() {
    let mut rng = SplitMix64::new(0x11a5);
    for _ in 0..CASES {
        let offset = rng.below(64);
        let len = rng.range(1, 63);
        let granularity = *rng.pick(&[4u64, 8, 16]);

        let mask = LineMask::span(offset, len);
        let sectors = mask.sectors(granularity);
        assert!(sectors != 0);
        // Every covered byte falls in a selected sector.
        for byte in 0..64u64 {
            let in_mask = mask.0 & (1 << byte) != 0;
            let sector_selected = sectors & (1 << (byte / granularity)) != 0;
            if in_mask {
                assert!(sector_selected);
            }
        }
        // fits_one_sector agrees with popcount.
        assert_eq!(mask.fits_one_sector(granularity), sectors.count_ones() == 1);
        if let Some(first) = mask.first_sector(granularity) {
            assert!(sectors & (1 << first) != 0);
        }
    }
}

/// TagStore never exceeds its geometry and lookups always find what was
/// just inserted.
#[test]
fn tagstore_respects_geometry() {
    let mut rng = SplitMix64::new(0x7a65);
    for _ in 0..CASES {
        let n_keys = rng.range(1, 99) as usize;
        let keys: Vec<u64> = (0..n_keys).map(|_| rng.below(256)).collect();
        let sets = rng.range(1, 7) as usize;
        let ways = rng.range(1, 3) as usize;

        let mut ts: TagStore<u64> = TagStore::new(sets, ways);
        for (i, &k) in keys.iter().enumerate() {
            ts.insert(k, k * 10, i as u64);
            assert_eq!(ts.peek(k), Some(&(k * 10)), "just-inserted key resident");
            assert!(ts.len() <= sets * ways, "capacity respected");
        }
    }
}

/// The reference tag store: one `Vec` of `(tag, last_used, data)` per
/// set, with the rules spelled out — a hit refreshes the stamp, a full set
/// evicts its lowest stamp (lowest way on a tie), `invalidate` is
/// `swap_remove` — and the snapshot encoding written by hand.
struct NaiveTagStore {
    sets: Vec<Vec<(u64, u64, u64)>>,
    ways: usize,
}

impl NaiveTagStore {
    fn with_entries(entries: usize, ways: usize) -> Self {
        let ways = ways.min(entries).max(1);
        let n_sets = (entries / ways).max(1);
        Self {
            sets: vec![Vec::new(); n_sets],
            ways,
        }
    }

    fn set_and_tag(&self, key: u64) -> (usize, u64) {
        let n = self.sets.len() as u64;
        ((key % n) as usize, key / n)
    }

    fn slot(&mut self, key: u64) -> Option<&mut (u64, u64, u64)> {
        let (set, tag) = self.set_and_tag(key);
        self.sets[set].iter_mut().find(|s| s.0 == tag)
    }

    fn lookup(&mut self, key: u64, now: u64) -> Option<&mut u64> {
        self.slot(key).map(|s| {
            s.1 = now;
            &mut s.2
        })
    }

    fn peek(&self, key: u64) -> Option<&u64> {
        let (set, tag) = self.set_and_tag(key);
        self.sets[set].iter().find(|s| s.0 == tag).map(|s| &s.2)
    }

    fn insert(&mut self, key: u64, data: u64, now: u64) -> Option<(u64, u64)> {
        if let Some(s) = self.slot(key) {
            *s = (s.0, now, data);
            return None;
        }
        let (set_ix, tag) = self.set_and_tag(key);
        let n_sets = self.sets.len() as u64;
        let set = &mut self.sets[set_ix];
        if set.len() < self.ways {
            set.push((tag, now, data));
            return None;
        }
        let victim = (0..set.len()).min_by_key(|&i| (set[i].1, i)).unwrap();
        let (old_tag, _, old_data) = std::mem::replace(&mut set[victim], (tag, now, data));
        Some((old_tag * n_sets + set_ix as u64, old_data))
    }

    fn invalidate(&mut self, key: u64) -> Option<u64> {
        let (set, tag) = self.set_and_tag(key);
        let pos = self.sets[set].iter().position(|s| s.0 == tag)?;
        Some(self.sets[set].swap_remove(pos).2)
    }

    fn iter(&self) -> Vec<(u64, u64)> {
        let n_sets = self.sets.len() as u64;
        let mut out = Vec::new();
        for (set_ix, set) in self.sets.iter().enumerate() {
            out.extend(set.iter().map(|s| (s.0 * n_sets + set_ix as u64, s.2)));
        }
        out
    }

    fn save(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_len(self.ways);
        w.put_len(self.sets.len());
        for set in &self.sets {
            w.put_len(set.len());
            for &(tag, last_used, data) in set {
                w.put_u64(tag);
                w.put_u64(last_used);
                w.put_u64(data);
            }
        }
        w.into_bytes()
    }
}

fn saved(ts: &TagStore<u64>) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    ts.save(&mut w);
    w.into_bytes()
}

/// One random `lookup` / `peek` / `insert` / `invalidate` on both stores,
/// asserting equal answers.
fn tagstore_step(rng: &mut SplitMix64, flat: &mut TagStore<u64>, naive: &mut NaiveTagStore) {
    let capacity = (flat.n_sets() * flat.ways()) as u64;
    let key = rng.below(3 * capacity + 2);
    let now = rng.below(64); // few stamps, so LRU ties happen
    match rng.below(4) {
        0 => {
            let (a, b) = (flat.lookup(key, now), naive.lookup(key, now));
            assert_eq!(a.as_deref(), b.as_deref(), "lookup {key}");
            if let (Some(a), Some(b)) = (a, b) {
                *a += 1;
                *b += 1;
            }
        }
        1 => assert_eq!(flat.peek(key), naive.peek(key), "peek {key}"),
        2 => assert_eq!(
            flat.insert(key, key ^ now, now),
            naive.insert(key, key ^ now, now),
            "insert {key}"
        ),
        _ => assert_eq!(
            flat.invalidate(key),
            naive.invalidate(key),
            "invalidate {key}"
        ),
    }
}

/// The flat tag store behaves, iterates and saves exactly like the
/// per-set `Vec` reference, over fully associative, direct-mapped,
/// clamped (`ways > entries`) and set-associative geometries; its
/// snapshots round-trip through `load` and `load_into`.
#[test]
fn flat_tagstore_matches_per_set_vectors() {
    let mut rng = SplitMix64::new(0xf1a7);
    for case in 0..CASES {
        let (entries, ways) = match case % 4 {
            0 => (rng.range(1, 40) as usize, usize::MAX), // one set
            1 => (rng.range(1, 40) as usize, 1),          // one way
            2 => {
                let entries = rng.range(1, 8) as usize;
                (entries, entries + rng.range(1, 16) as usize) // clamped
            }
            _ => {
                let ways = rng.range(2, 8) as usize;
                (ways * rng.range(2, 16) as usize, ways)
            }
        };
        let mut flat: TagStore<u64> = TagStore::with_entries(entries, ways);
        let mut naive = NaiveTagStore::with_entries(entries, ways);
        assert_eq!((flat.n_sets(), flat.ways()), (naive.sets.len(), naive.ways));
        let ops = rng.range(1, 400);
        for _ in 0..ops {
            tagstore_step(&mut rng, &mut flat, &mut naive);
        }
        let listed: Vec<(u64, u64)> = flat.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(listed, naive.iter(), "case {case}: iter");
        assert_eq!(flat.len(), listed.len());
        assert_eq!(flat.is_empty(), listed.is_empty());

        let bytes = saved(&flat);
        assert_eq!(bytes, naive.save(), "case {case}: snapshot bytes");
        let loaded = TagStore::<u64>::load(&mut SnapshotReader::new(&bytes)).expect("load");
        assert_eq!(saved(&loaded), bytes, "case {case}: load round-trip");

        // Restore over a store holding other entries, then keep going:
        // the restored store must go on agreeing with the reference.
        let mut target: TagStore<u64> = TagStore::with_entries(entries, ways);
        for k in 0..entries as u64 * 2 {
            target.insert(k * 7 + 1, k, k);
        }
        target
            .load_into(&mut SnapshotReader::new(&bytes))
            .expect("load_into");
        assert_eq!(saved(&target), bytes, "case {case}: load_into round-trip");
        for _ in 0..ops.min(50) {
            tagstore_step(&mut rng, &mut target, &mut naive);
        }
        assert_eq!(saved(&target), naive.save(), "case {case}: after restore");
    }
}

/// The page table as maps: `vpn → pfn` and `(level, prefix) → (owner,
/// node frame)`, nodes placed on the first mapper in walk order from
/// frame 2^20 of its partition (the page table's own rule).
struct NaivePageTable {
    mapping: BTreeMap<u64, u64>,
    nodes: BTreeMap<(u8, u64), (GpuId, u64)>,
    next_pt_frame: BTreeMap<GpuId, u64>,
    frames_per_gpu: u64,
}

impl NaivePageTable {
    fn prefix(vpn: u64, level: u8) -> u64 {
        vpn >> (9 * u32::from(PT_LEVELS - level + 1))
    }

    fn map(&mut self, vpn: u64, pfn: u64, owner: GpuId) {
        self.mapping.insert(vpn, pfn);
        for level in 1..=PT_LEVELS {
            if let Entry::Vacant(slot) = self.nodes.entry((level, Self::prefix(vpn, level))) {
                let next = self.next_pt_frame.entry(owner).or_insert(1 << 20);
                slot.insert((owner, *next));
                *next += 1;
            }
        }
    }

    fn entry_line(&self, vpn: u64, level: u8) -> Option<(GpuId, LineAddr)> {
        let &(owner, pfn) = self.nodes.get(&(level, Self::prefix(vpn, level)))?;
        let node_base = (u64::from(owner.raw()) * self.frames_per_gpu + pfn) * PAGE_BYTES;
        let entry = node_base + VAddr(vpn * PAGE_BYTES).pt_index(level) * 8;
        Some((owner, PAddr(entry).line()))
    }
}

/// The leaf-array page table answers every query as the map-based one
/// does, over runs of pages that cross 2 MiB leaves and alternate
/// between GPUs, with scattered and repeated mappings mixed in.
#[test]
fn leaf_array_page_table_matches_maps() {
    const FRAMES: u64 = 1 << 24;
    let mut rng = SplitMix64::new(0x1eaf);
    for case in 0..64 {
        let gpus = rng.range(1, 16);
        let mut pt = PageTable::new(FRAMES);
        let mut naive = NaivePageTable {
            mapping: BTreeMap::new(),
            nodes: BTreeMap::new(),
            next_pt_frame: BTreeMap::new(),
            frames_per_gpu: FRAMES,
        };
        let mut next_frame = vec![0u64; gpus as usize];
        for _ in 0..rng.range(1, 6) {
            // A buffer: a run of pages, block-placed or interleaved over
            // the GPUs; some runs land in another level-1..3 subtree, and
            // some overlap pages already mapped.
            let base = match naive
                .mapping
                .keys()
                .nth(rng.below_usize(naive.mapping.len()))
            {
                Some(&vpn) if rng.below(3) == 0 => vpn.saturating_sub(rng.below(700)),
                _ => rng.below(1 << 27),
            };
            let pages = rng.range(1, 1500);
            let interleaved = rng.below(2) == 0;
            for p in 0..pages {
                let vpn = base + p;
                if let Some(&pfn) = naive.mapping.get(&vpn) {
                    pt.map(vpn, pfn, GpuId(0)); // a repeat changes nothing
                    continue;
                }
                let gpu = if interleaved {
                    p % gpus
                } else {
                    p * gpus / pages
                };
                let pfn = gpu * FRAMES + next_frame[gpu as usize];
                next_frame[gpu as usize] += 1;
                let owner = GpuId(gpu as u16);
                pt.map(vpn, pfn, owner);
                naive.map(vpn, pfn, owner);
            }
        }
        assert_eq!(pt.mapped_pages(), naive.mapping.len(), "case {case}");
        assert_eq!(pt.node_count(), naive.nodes.len(), "case {case}");

        let mapped: Vec<u64> = naive.mapping.keys().copied().collect();
        for _ in 0..400 {
            // Mapped pages, their unmapped neighbours and far misses.
            let vpn = match rng.below(3) {
                0 => mapped[rng.below_usize(mapped.len())],
                1 => mapped[rng.below_usize(mapped.len())] + rng.range(1, 600),
                _ => rng.below(1 << 28),
            };
            let translation = naive.mapping.get(&vpn).copied();
            assert_eq!(pt.translate(vpn), translation, "case {case}: vpn {vpn:#x}");
            for level in 1..=PT_LEVELS {
                let line = naive.entry_line(vpn, level);
                assert_eq!(pt.entry_line(vpn, level), line, "vpn {vpn:#x} L{level}");
                assert_eq!(pt.node_owner(vpn, level), line.map(|l| l.0));
            }
            if translation.is_some() {
                for start in 1..=PT_LEVELS {
                    let reads: Vec<_> = (start..=PT_LEVELS)
                        .map(|level| naive.entry_line(vpn, level).unwrap())
                        .collect();
                    assert_eq!(pt.walk_reads(vpn, start), reads, "vpn {vpn:#x}");
                }
            }
        }
    }
}

/// Page-table walks always resolve to the functional translation and
/// shrink monotonically with the PWC start level.
#[test]
fn page_table_walks_consistent() {
    let mut rng = SplitMix64::new(0x9a6e);
    for _ in 0..64 {
        let n_vpns = rng.range(1, 39) as usize;
        let vpns: BTreeSet<u64> = (0..n_vpns).map(|_| rng.below(1 << 20)).collect();
        let owners: Vec<u16> = (0..40).map(|_| rng.below(4) as u16).collect();

        let mut pt = PageTable::new(1 << 24);
        for (i, &vpn) in vpns.iter().enumerate() {
            pt.map(vpn, 1000 + i as u64, GpuId(owners[i % owners.len()]));
        }
        for &vpn in &vpns {
            assert!(pt.translate(vpn).is_some());
            let full = pt.walk_reads(vpn, 1);
            assert_eq!(full.len(), 4);
            for start in 2..=4u8 {
                let partial = pt.walk_reads(vpn, start);
                assert_eq!(partial.len(), 5 - start as usize);
                // The partial walk is a suffix of the full walk.
                assert_eq!(&full[(start - 1) as usize..], &partial[..]);
            }
        }
    }
}

/// The coalescer covers every lane byte exactly, never splits a line
/// into two requests, and is order-insensitive.
#[test]
fn coalescer_covers_all_lanes() {
    let mut rng = SplitMix64::new(0xc0a1);
    for _ in 0..CASES {
        let n_lanes = rng.range(1, 63) as usize;
        let lanes: Vec<LaneAccess> = (0..n_lanes)
            .map(|_| {
                let slot = rng.below(4096);
                let bytes = *rng.pick(&[1u8, 2, 4, 8, 16]);
                // Align within the line so elements never straddle.
                LaneAccess::new(slot * 16, bytes)
            })
            .collect();
        let kind = if rng.flip() {
            AccessKind::Read
        } else {
            AccessKind::Write
        };

        let mut c = Coalescer::new();
        let reqs = c.coalesce(&lanes, kind);
        // One request per distinct line, sorted ascending.
        let mut lines: Vec<u64> = lanes.iter().map(|l| l.addr.0 / 64).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(reqs.len(), lines.len());
        for w in reqs.windows(2) {
            assert!(w[0].vaddr.0 < w[1].vaddr.0);
        }
        // Every lane byte is covered by its line's request mask.
        for lane in &lanes {
            let line_base = lane.addr.0 / 64 * 64;
            let req = reqs
                .iter()
                .find(|r| r.vaddr.0 == line_base)
                .expect("line present");
            let lane_mask = LineMask::span(lane.addr.0 % 64, lane.bytes as u64);
            assert!(lane_mask.subset_of(req.mask));
            assert_eq!(req.kind, kind);
        }
        // Reversed lane order produces the identical requests.
        let mut rev: Vec<LaneAccess> = lanes.clone();
        rev.reverse();
        let mut c2 = Coalescer::new();
        assert_eq!(c2.coalesce(&rev, kind), reqs);
    }
}

/// VAddr page-table indices always reconstruct the VPN.
#[test]
fn pt_indices_reconstruct_vpn() {
    let mut rng = SplitMix64::new(0x1d42);
    for _ in 0..CASES {
        let vpn = rng.below(1u64 << 36);
        let va = VAddr(vpn * 4096);
        let mut rebuilt = 0u64;
        for level in 1..=4u8 {
            rebuilt = (rebuilt << 9) | va.pt_index(level);
        }
        assert_eq!(rebuilt, vpn);
    }
}
