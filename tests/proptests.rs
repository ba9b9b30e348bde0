//! Randomized property tests over the core data structures: flit
//! segmentation/reassembly, stitching, the Cluster Queue, address math,
//! the tag store and the page table.
//!
//! Each test draws a few hundred random cases from the in-tree
//! [`SplitMix64`] generator (fixed seeds, so failures reproduce exactly)
//! and asserts the same invariants the original proptest suite checked.

use std::collections::BTreeSet;

use netcrafter::core::{ClusterQueue, SplitMix64};
use netcrafter::gpu::{Coalescer, LaneAccess};
use netcrafter::mem::TagStore;
use netcrafter::net::{EgressQueue, Reassembler, Segmenter};
use netcrafter::proto::AccessKind;
use netcrafter::proto::{
    AccessId, GpuId, LineAddr, LineMask, MemReq, NetCrafterConfig, NodeId, Origin, Packet,
    PacketId, PacketKind, PacketPayload, Pooling, Priority, TrafficClass, VAddr, ALL_PACKET_KINDS,
};
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
