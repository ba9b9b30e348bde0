//! Flits — flow-control units — with explicit occupancy accounting and
//! support for NetCrafter's stitched multi-chunk flits.
//!
//! A packet is segmented into fixed-size flits before entering the network
//! (§2.1, step 4b). Because packet sizes are rarely multiples of the flit
//! size, the final flit of a packet is usually partly empty — the padded
//! bytes of Table 1 and Figure 6. NetCrafter's Stitching Engine fills that
//! padding with *chunks* of other packets heading to the same destination
//! cluster (§4.2, Figure 11).
//!
//! A [`Flit`] here is therefore a list of [`Chunk`]s plus a byte capacity.
//! An ordinary (un-stitched) flit holds exactly one chunk. A stitched flit
//! holds the parent chunk followed by one or more stitched chunks; a
//! stitched chunk that carries only payload (no header) pays 2 extra
//! metadata bytes — the `ID` and `Size` fields of Figure 10(c).

use core::fmt;

use crate::ids::{NodeId, PacketId};
use crate::packet::{Packet, PacketKind, TrafficClass};

/// Extra metadata bytes prepended to a payload-only chunk when it is
/// stitched into a parent flit: a 1-byte `ID` tag plus a 1-byte `Size`
/// field (§4.2).
pub const STITCH_META_BYTES: u32 = 2;

/// A contiguous fragment of one packet carried inside a flit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// The packet this fragment belongs to.
    pub packet: PacketId,
    /// The packet's traffic category.
    pub kind: PacketKind,
    /// Occupied bytes of this fragment (header and/or payload bytes),
    /// excluding stitching metadata.
    pub bytes: u32,
    /// Stitching metadata bytes (0, or [`STITCH_META_BYTES`] when this
    /// chunk was stitched without its header).
    pub meta_bytes: u32,
    /// True if this fragment contains the packet's header.
    pub has_header: bool,
    /// True if this is the final fragment of its packet.
    pub is_tail: bool,
    /// Position of this fragment in the packet's original flit sequence.
    pub seq: u32,
    /// Final destination endpoint of the packet.
    pub dst: NodeId,
    /// Latency class (PTW fragments are latency-critical).
    pub class: TrafficClass,
    /// The full logical packet, carried by the tail fragment so the
    /// destination can reconstruct the protocol message. `None` on
    /// non-tail fragments.
    pub packet_info: Option<Box<Packet>>,
}

impl Chunk {
    /// Total bytes this chunk consumes inside a flit.
    #[inline]
    pub const fn wire_bytes(&self) -> u32 {
        self.bytes + self.meta_bytes
    }

    /// True if this chunk is a self-contained single-flit packet
    /// (header and tail in one fragment), which stitches for free.
    #[inline]
    pub const fn is_whole_packet(&self) -> bool {
        self.has_header && self.is_tail && self.seq == 0
    }
}

/// A flow-control unit traversing the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flit {
    /// Flit capacity in bytes (16 in the baseline, 8 in the flit-size
    /// sensitivity study of Figure 21).
    pub capacity: u32,
    /// Fragments carried. `chunks[0]` is the parent; any further entries
    /// were stitched in by a NetCrafter controller.
    pub chunks: Vec<Chunk>,
    /// Current routing destination. For endpoint traffic this is the
    /// destination GPU's node; stitched flits on the inter-cluster link are
    /// addressed to the remote cluster switch, which un-stitches and
    /// re-routes the constituent chunks.
    pub dst: NodeId,
}

impl Flit {
    /// Creates an ordinary single-chunk flit.
    pub fn single(capacity: u32, chunk: Chunk) -> Self {
        let dst = chunk.dst;
        let flit = Self {
            capacity,
            chunks: vec![chunk],
            dst,
        };
        debug_assert!(flit.used_bytes() <= capacity, "chunk larger than flit");
        flit
    }

    /// Occupied bytes, including stitching metadata.
    #[inline]
    pub fn used_bytes(&self) -> u32 {
        self.chunks.iter().map(Chunk::wire_bytes).sum()
    }

    /// Empty (padded) bytes available for stitching.
    #[inline]
    pub fn empty_bytes(&self) -> u32 {
        self.capacity - self.used_bytes()
    }

    /// Fraction of the flit that is padding, in percent.
    #[inline]
    pub fn padding_pct(&self) -> u32 {
        self.empty_bytes() * 100 / self.capacity
    }

    /// True if this flit carries more than one packet's data.
    #[inline]
    pub fn is_stitched(&self) -> bool {
        self.chunks.len() > 1
    }

    /// Latency class of the flit: PTW if *any* chunk is PTW-related, so a
    /// stitched flit containing a page-table fragment keeps its priority.
    pub fn class(&self) -> TrafficClass {
        if self.chunks.iter().any(|c| c.class == TrafficClass::Ptw) {
            TrafficClass::Ptw
        } else {
            TrafficClass::Data
        }
    }

    /// Cost in bytes of stitching `candidate`'s parent chunk into `self`:
    /// the candidate's occupied bytes, plus metadata if the candidate's
    /// first chunk lacks a header. Returns `None` if the candidate cannot
    /// fit (also when the candidate itself is already stitched — the
    /// engine only stitches single-chunk candidates, though an already-
    /// stitched *parent* may absorb more chunks, §4.4 step 4h). Routes are
    /// not compared: the Cluster Queue only offers candidates from the
    /// parent's destination-cluster partition.
    pub fn stitch_cost(&self, candidate: &Flit) -> Option<u32> {
        self.stitch_cost_in(self.empty_bytes(), candidate)
    }

    /// [`Flit::stitch_cost`] for a caller that has already read
    /// `self.empty_bytes()` into `room`: the Cluster Queue offers one
    /// parent many candidates, and the sum over the parent's chunks is
    /// the same for all of them.
    pub fn stitch_cost_in(&self, room: u32, candidate: &Flit) -> Option<u32> {
        debug_assert_eq!(room, self.empty_bytes());
        if candidate.chunks.len() != 1 {
            return None;
        }
        let c = &candidate.chunks[0];
        let cost = if c.has_header {
            c.bytes
        } else {
            c.bytes + STITCH_META_BYTES
        };
        (cost <= room).then_some(cost)
    }

    /// Absorbs `candidate`'s chunk into this flit, applying stitching
    /// metadata when needed.
    ///
    /// # Panics
    ///
    /// Panics if the candidate does not fit (callers must check
    /// [`Flit::stitch_cost`] first).
    pub fn stitch(&mut self, mut candidate: Flit) {
        let cost = self
            .stitch_cost(&candidate)
            .expect("stitch candidate must fit parent flit");
        let mut chunk = candidate.chunks.remove(0);
        if !chunk.has_header {
            chunk.meta_bytes = STITCH_META_BYTES;
        }
        debug_assert_eq!(chunk.wire_bytes(), cost);
        self.chunks.push(chunk);
        debug_assert!(self.used_bytes() <= self.capacity);
    }

    /// Splits a stitched flit back into its constituent single-chunk flits,
    /// dropping stitching metadata — the Un-stitching operation performed
    /// by the receiving cluster switch's Stitching Engine (§4.4).
    pub fn unstitch(self) -> Vec<Flit> {
        let capacity = self.capacity;
        self.chunks
            .into_iter()
            .map(|mut chunk| {
                chunk.meta_bytes = 0;
                Flit::single(capacity, chunk)
            })
            .collect()
    }
}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flit[{}B/{}B, {} chunk(s), dst {}]",
            self.used_bytes(),
            self.capacity,
            self.chunks.len(),
            self.dst
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(packet: u64, bytes: u32, has_header: bool, is_tail: bool, seq: u32) -> Chunk {
        Chunk {
            packet: PacketId(packet),
            kind: PacketKind::ReadRsp,
            bytes,
            meta_bytes: 0,
            has_header,
            is_tail,
            seq,
            dst: NodeId(3),
            class: TrafficClass::Data,
            packet_info: None,
        }
    }

    #[test]
    fn occupancy_accounting() {
        // Tail flit of a read response: 4 occupied bytes, 12 empty.
        let f = Flit::single(16, chunk(1, 4, false, true, 4));
        assert_eq!(f.used_bytes(), 4);
        assert_eq!(f.empty_bytes(), 12);
        assert_eq!(f.padding_pct(), 75);
        assert!(!f.is_stitched());
    }

    #[test]
    fn stitch_whole_packet_costs_no_metadata() {
        // Parent: read-response tail (4 B used, 12 empty).
        let mut parent = Flit::single(16, chunk(1, 4, false, true, 4));
        // Candidate: a whole write-response packet (4 B with header).
        let cand = Flit::single(16, chunk(2, 4, true, true, 0));
        assert_eq!(parent.stitch_cost(&cand), Some(4));
        parent.stitch(cand);
        assert!(parent.is_stitched());
        assert_eq!(parent.used_bytes(), 8);
        assert_eq!(parent.chunks[1].meta_bytes, 0);
    }

    #[test]
    fn stitch_partial_payload_pays_two_bytes() {
        // Parent: read-response tail with 12 empty bytes.
        let mut parent = Flit::single(16, chunk(1, 4, false, true, 4));
        // Candidate: tail of another read response (payload only, no header).
        let cand = Flit::single(16, chunk(2, 4, false, true, 4));
        assert_eq!(parent.stitch_cost(&cand), Some(6)); // 4 + 2 metadata
        parent.stitch(cand);
        assert_eq!(parent.used_bytes(), 10);
        assert_eq!(parent.chunks[1].meta_bytes, STITCH_META_BYTES);
    }

    #[test]
    fn stitch_rejects_oversized_candidate() {
        let parent = Flit::single(16, chunk(1, 12, true, true, 0)); // 4 empty
        let cand = Flit::single(16, chunk(2, 12, true, true, 0)); // needs 12
        assert_eq!(parent.stitch_cost(&cand), None);
    }

    #[test]
    fn stitch_rejects_already_stitched_candidate() {
        let mut cand = Flit::single(16, chunk(2, 4, false, true, 4));
        cand.stitch(Flit::single(16, chunk(3, 4, true, true, 0)));
        let parent = Flit::single(16, chunk(1, 4, false, true, 4));
        assert_eq!(parent.stitch_cost(&cand), None);
    }

    #[test]
    fn multiple_candidates_fill_parent() {
        // Parent write-response (4 B used, 12 empty) absorbs three whole
        // write responses of 4 B each.
        let mut parent = Flit::single(16, chunk(1, 4, true, true, 0));
        for id in 2..5 {
            let cand = Flit::single(16, chunk(id, 4, true, true, 0));
            assert!(parent.stitch_cost(&cand).is_some(), "candidate {id} fits");
            parent.stitch(cand);
        }
        assert_eq!(parent.used_bytes(), 16);
        assert_eq!(parent.empty_bytes(), 0);
        let cand = Flit::single(16, chunk(9, 4, true, true, 0));
        assert_eq!(
            parent.stitch_cost(&cand),
            None,
            "full parent absorbs no more"
        );
    }

    #[test]
    fn unstitch_round_trips() {
        let mut parent = Flit::single(16, chunk(1, 4, false, true, 4));
        let cand_a = Flit::single(16, chunk(2, 4, false, true, 4));
        let cand_b = Flit::single(16, chunk(3, 4, true, true, 0));
        parent.stitch(cand_a.clone());
        parent.stitch(cand_b.clone());
        let parts = parent.unstitch();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1], cand_a);
        assert_eq!(parts[2], cand_b);
        assert!(parts.iter().all(|f| !f.is_stitched()));
    }

    #[test]
    fn ptw_chunk_promotes_flit_class() {
        let mut parent = Flit::single(16, chunk(1, 4, false, true, 4));
        assert_eq!(parent.class(), TrafficClass::Data);
        let mut ptw = chunk(2, 12, true, true, 0);
        ptw.kind = PacketKind::PageTableRsp;
        ptw.class = TrafficClass::Ptw;
        parent.stitch(Flit::single(16, ptw));
        assert_eq!(parent.class(), TrafficClass::Ptw);
    }

    #[test]
    fn whole_packet_detection() {
        assert!(chunk(1, 12, true, true, 0).is_whole_packet());
        assert!(!chunk(1, 4, false, true, 4).is_whole_packet());
        assert!(!chunk(1, 16, true, false, 0).is_whole_packet());
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn stitch_panics_when_too_big() {
        let mut parent = Flit::single(16, chunk(1, 14, true, true, 0));
        parent.stitch(Flit::single(16, chunk(2, 12, true, true, 0)));
    }
}
