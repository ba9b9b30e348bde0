//! Network packets: the six traffic categories of the paper's Table 1.
//!
//! The simulated protocol is the simplified PCIe-style protocol of §4.1:
//! each packet is a header plus a payload. Headers are 12 bytes (4 B
//! metadata + 8 B address) for read/write/page-table *requests* and for
//! page-table *responses* (whose translated physical address rides in the
//! header's address field), and 4 bytes (metadata only) for read/write
//! *responses*, matching footnote 2 of the paper.
//!
//! | Kind            | Header | Payload | Wire bytes | 16 B flits | Padded |
//! |-----------------|--------|---------|------------|------------|--------|
//! | `ReadReq`       | 12     | 0       | 12         | 1          | 4      |
//! | `WriteReq`      | 12     | 64      | 76         | 5          | 4      |
//! | `PageTableReq`  | 12     | 0       | 12         | 1          | 4      |
//! | `ReadRsp`       | 4      | 64      | 68         | 5          | 12     |
//! | `WriteRsp`      | 4      | 0       | 4          | 1          | 12     |
//! | `PageTableRsp`  | 12     | 0       | 12         | 1          | 4      |
//!
//! A *trimmed* read response (§4.3) carries a single sector instead of the
//! whole line: 4 + 16 = 20 wire bytes, i.e. 2 flits instead of 5.

use core::fmt;

use crate::ids::{NodeId, PacketId};
use crate::message::{MemReq, MemRsp};

/// The six packet categories observed on the inter-GPU network (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PacketKind {
    /// A remote read request; carries only the address.
    ReadReq,
    /// A remote write request; carries the address and a full cache line.
    WriteReq,
    /// A page-table read issued by a page-table walker for a PTE held on a
    /// remote GPU.
    PageTableReq,
    /// A read response carrying cache-line data (possibly trimmed).
    ReadRsp,
    /// A write acknowledgment; header-only.
    WriteRsp,
    /// A page-table response carrying the translated physical address in
    /// its header address field.
    PageTableRsp,
}

/// Every packet kind, in Table 1 order. Useful for stats tables and for the
/// Cluster Queue's per-type partitions.
pub const ALL_PACKET_KINDS: [PacketKind; 6] = [
    PacketKind::ReadReq,
    PacketKind::WriteReq,
    PacketKind::PageTableReq,
    PacketKind::ReadRsp,
    PacketKind::WriteRsp,
    PacketKind::PageTableRsp,
];

impl PacketKind {
    /// Header size on the wire (footnote 2 of the paper): 4 B for data
    /// responses, 12 B otherwise.
    #[inline]
    pub const fn header_bytes(self) -> u32 {
        match self {
            PacketKind::ReadRsp | PacketKind::WriteRsp => 4,
            _ => 12,
        }
    }

    /// True for the two page-table-walk-related kinds, which the
    /// Sequencing mechanism treats as latency-critical (§3.3, Observation 3).
    #[inline]
    pub const fn is_ptw(self) -> bool {
        matches!(self, PacketKind::PageTableReq | PacketKind::PageTableRsp)
    }

    /// Index into Table-1-ordered arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            PacketKind::ReadReq => 0,
            PacketKind::WriteReq => 1,
            PacketKind::PageTableReq => 2,
            PacketKind::ReadRsp => 3,
            PacketKind::WriteRsp => 4,
            PacketKind::PageTableRsp => 5,
        }
    }

    /// Short display label used by the stats tables.
    pub const fn label(self) -> &'static str {
        match self {
            PacketKind::ReadReq => "Read Req",
            PacketKind::WriteReq => "Write Req",
            PacketKind::PageTableReq => "Page Table Req",
            PacketKind::ReadRsp => "Read Rsp",
            PacketKind::WriteRsp => "Write Rsp",
            PacketKind::PageTableRsp => "Page Table Rsp",
        }
    }
}

impl fmt::Display for PacketKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Latency class of network traffic, used by the Sequencing mechanism:
/// PTW-related flits are prioritized over data flits on lower-bandwidth
/// links (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Ordinary data traffic (read/write requests and responses).
    Data,
    /// Page-table-walk traffic (page-table requests and responses).
    Ptw,
}

/// Trimming control bits carried in a read request's otherwise-unused
/// address bits (§4.3): one bit saying the wavefront needs at most one
/// sector, plus the sector offset within the 64 B line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrimInfo {
    /// Sector granularity in bytes (16 in the paper's default; 4 and 8 are
    /// explored in Figure 17).
    pub granularity: u32,
    /// Index of the one sector the wavefront needs.
    pub sector: u8,
}

/// The protocol-level message a packet delivers to its destination RDMA
/// engine once reassembled from flits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketPayload {
    /// A memory request (remote read/write or remote page-table read).
    Req(MemReq),
    /// A memory response.
    Rsp(MemRsp),
}

/// A network packet exchanged between GPU RDMA engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique packet id; doubles as the stitching `ID` metadata.
    pub id: PacketId,
    /// Traffic category.
    pub kind: PacketKind,
    /// Source endpoint (the sending GPU's RDMA engine node).
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Data payload bytes: 64 for full-line transfers, the sector size for
    /// trimmed read responses, 0 for header-only packets.
    pub payload_bytes: u32,
    /// Trim request bits (set on eligible read requests).
    pub trim: Option<TrimInfo>,
    /// The message delivered on reassembly.
    pub inner: PacketPayload,
}

impl Packet {
    /// Header size on the wire.
    #[inline]
    pub const fn header_bytes(&self) -> u32 {
        self.kind.header_bytes()
    }

    /// Total occupied wire bytes (header + payload): the *Bytes Required*
    /// column of Table 1.
    #[inline]
    pub const fn wire_bytes(&self) -> u32 {
        self.kind.header_bytes() + self.payload_bytes
    }

    /// Number of flits the packet occupies at `flit_bytes` granularity:
    /// the *Flits Occupied* column of Table 1.
    #[inline]
    pub const fn flit_count(&self, flit_bytes: u32) -> u32 {
        self.wire_bytes().div_ceil(flit_bytes)
    }

    /// Padded (useless) bytes when segmented into `flit_bytes` flits:
    /// the *Bytes Padded* column of Table 1.
    #[inline]
    pub const fn padded_bytes(&self, flit_bytes: u32) -> u32 {
        self.flit_count(flit_bytes) * flit_bytes - self.wire_bytes()
    }

    /// Latency class, derived from the packet kind.
    #[inline]
    pub const fn class(&self) -> TrafficClass {
        if self.kind.is_ptw() {
            TrafficClass::Ptw
        } else {
            TrafficClass::Data
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LineAddr, LineMask};
    use crate::ids::{AccessId, GpuId};

    fn dummy_req() -> MemReq {
        MemReq {
            access: AccessId(1),
            line: LineAddr(0x1000),
            write: false,
            mask: LineMask::span(0, 8),
            sectors: 0b1111,
            class: TrafficClass::Data,
            requester: GpuId(0),
            owner: GpuId(2),
            origin: crate::message::Origin::Cu(0),
        }
    }

    fn packet(kind: PacketKind, payload: u32) -> Packet {
        Packet {
            id: PacketId(7),
            kind,
            src: NodeId(0),
            dst: NodeId(3),
            payload_bytes: payload,
            trim: None,
            inner: PacketPayload::Req(dummy_req()),
        }
    }

    /// Reproduces Table 1 of the paper exactly, for 16 B flits.
    #[test]
    fn table1_sizes() {
        // (kind, payload, occupied_bytes, required, padded, flits)
        let rows = [
            (PacketKind::ReadReq, 0, 16, 12, 4, 1),
            (PacketKind::WriteReq, 64, 80, 76, 4, 5),
            (PacketKind::PageTableReq, 0, 16, 12, 4, 1),
            (PacketKind::ReadRsp, 64, 80, 68, 12, 5),
            (PacketKind::WriteRsp, 0, 16, 4, 12, 1),
            (PacketKind::PageTableRsp, 0, 16, 12, 4, 1),
        ];
        for (kind, payload, occupied, required, padded, flits) in rows {
            let p = packet(kind, payload);
            assert_eq!(p.wire_bytes(), required, "{kind}: bytes required");
            assert_eq!(p.padded_bytes(16), padded, "{kind}: bytes padded");
            assert_eq!(p.flit_count(16), flits, "{kind}: flits occupied");
            assert_eq!(p.flit_count(16) * 16, occupied, "{kind}: bytes occupied");
        }
    }

    #[test]
    fn trimmed_read_rsp_is_two_flits() {
        let p = packet(PacketKind::ReadRsp, 16);
        assert_eq!(p.wire_bytes(), 20);
        assert_eq!(p.flit_count(16), 2);
        assert_eq!(p.padded_bytes(16), 12);
    }

    #[test]
    fn eight_byte_flits() {
        let p = packet(PacketKind::ReadRsp, 64);
        assert_eq!(p.flit_count(8), 9); // 68 bytes -> 9 flits of 8 B
        assert_eq!(p.padded_bytes(8), 4);
    }

    #[test]
    fn ptw_classification() {
        assert!(PacketKind::PageTableReq.is_ptw());
        assert!(PacketKind::PageTableRsp.is_ptw());
        assert!(!PacketKind::ReadRsp.is_ptw());
        assert_eq!(
            packet(PacketKind::PageTableReq, 0).class(),
            TrafficClass::Ptw
        );
        assert_eq!(packet(PacketKind::ReadReq, 0).class(), TrafficClass::Data);
    }

    #[test]
    fn kind_indices_are_table1_order() {
        for (i, k) in ALL_PACKET_KINDS.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
