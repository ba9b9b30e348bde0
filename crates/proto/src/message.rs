//! Protocol-level messages exchanged between simulated components.
//!
//! Components in the engine communicate exclusively by sending [`Message`]s
//! to each other's mailboxes. Within a GPU these are memory and translation
//! transactions; between GPUs everything is carried by [`Flit`]s over the
//! switched network, with credit messages implementing link-level flow
//! control (back-pressure, §5.1).

use crate::addr::{LineAddr, LineMask};
use crate::flit::Flit;
use crate::ids::{AccessId, GpuId, NodeId};
use crate::packet::TrafficClass;

/// Who, within a GPU, issued a memory request — the reply-routing tag a
/// response follows back. For requests that cross GPUs the origin names
/// the unit on the *requesting* GPU; the owning GPU's L2 always replies
/// toward its RDMA engine for non-local requesters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// A compute unit (GPU-local index) — L1 miss traffic.
    Cu(u16),
    /// The GMMU's page-table walkers.
    Gmmu,
    /// The RDMA engine (a remote GPU's request being serviced locally).
    Rdma,
    /// The L2 cache itself (fills and write-backs toward DRAM).
    L2,
}

/// A memory request for one cache line (or a subset of its sectors).
///
/// The same type serves every level: CU→L1, L1→local L2, RDMA-wrapped
/// remote requests, page-table-walker reads, and L2→DRAM fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// End-to-end transaction id; responses echo it.
    pub access: AccessId,
    /// Physical line address.
    pub line: LineAddr,
    /// True for stores.
    pub write: bool,
    /// Bytes of the line the requester needs (reads) or writes (stores).
    pub mask: LineMask,
    /// Sector-fill request mask: which sectors of the line the requester
    /// wants returned. `u16::MAX`-style all-ones means "whole line"; the
    /// bit width accommodates 4 B sectors (16 per line).
    pub sectors: u16,
    /// Latency class — [`TrafficClass::Ptw`] for page-table reads.
    pub class: TrafficClass,
    /// GPU that issued the request.
    pub requester: GpuId,
    /// GPU whose memory partition owns the line.
    pub owner: GpuId,
    /// Unit on the requesting GPU to route the response back to.
    pub origin: Origin,
}

/// A memory response for one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRsp {
    /// Transaction id echoed from the request.
    pub access: AccessId,
    /// Physical line address.
    pub line: LineAddr,
    /// True if this acknowledges a store.
    pub write: bool,
    /// Which sectors of the line this response carries. A full-line read
    /// response has all requested sectors set; a *trimmed* response (§4.3)
    /// carries exactly one.
    pub sectors_valid: u16,
    /// Latency class, echoed from the request.
    pub class: TrafficClass,
    /// GPU that issued the original request (response destination).
    pub requester: GpuId,
    /// GPU that served the data.
    pub owner: GpuId,
    /// Reply-routing tag echoed from the request.
    pub origin: Origin,
}

impl MemRsp {
    /// Builds the matching response for `req` carrying `sectors_valid`.
    pub fn for_req(req: &MemReq, sectors_valid: u16) -> Self {
        Self {
            access: req.access,
            line: req.line,
            write: req.write,
            sectors_valid,
            class: req.class,
            requester: req.requester,
            owner: req.owner,
            origin: req.origin,
        }
    }
}

/// A virtual-to-physical translation request (CU→L2 TLB, L2 TLB→GMMU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransReq {
    /// The access waiting on this translation.
    pub access: AccessId,
    /// Virtual page number to translate.
    pub vpn: u64,
    /// GPU-local index of the requesting CU.
    pub cu: u16,
}

/// A completed translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransRsp {
    /// The access that requested the translation.
    pub access: AccessId,
    /// Virtual page number.
    pub vpn: u64,
    /// Resolved physical frame number.
    pub pfn: u64,
    /// GPU-local index of the requesting CU (for routing back).
    pub cu: u16,
}

/// Any message deliverable to a component mailbox.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A memory request.
    MemReq(MemReq),
    /// A memory response.
    MemRsp(MemRsp),
    /// A translation request.
    TransReq(TransReq),
    /// A translation response.
    TransRsp(TransRsp),
    /// A flit on a network link or inside a switch. `from` names the
    /// sending hop for attribution; `link` is the *receiver's* port index
    /// for the link the flit arrived on, so fabrics with several parallel
    /// links between the same node pair (torus virtual channels) stay
    /// distinguishable.
    Flit {
        /// The flit itself.
        flit: Flit,
        /// Node that transmitted it (previous hop).
        from: NodeId,
        /// The receiver's port index for this link.
        link: u16,
    },
    /// Link-level credit return: the receiver freed `count` buffer slots
    /// on the link coming from the node that now receives this credit.
    /// `link` is the *receiver's* (credit consumer's) port index for that
    /// link — the port whose egress credits are replenished.
    Credit {
        /// Node returning the credit (the downstream buffer owner).
        from: NodeId,
        /// Number of freed flit slots.
        count: u32,
        /// The credit receiver's port index for this link.
        link: u16,
    },
}

impl Message {
    /// Short label for tracing and debugging.
    pub fn label(&self) -> &'static str {
        match self {
            Message::MemReq(_) => "mem-req",
            Message::MemRsp(_) => "mem-rsp",
            Message::TransReq(_) => "trans-req",
            Message::TransRsp(_) => "trans-rsp",
            Message::Flit { .. } => "flit",
            Message::Credit { .. } => "credit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> MemReq {
        MemReq {
            access: AccessId(5),
            line: LineAddr(0x40),
            write: false,
            mask: LineMask::span(0, 16),
            sectors: 0b1111,
            class: TrafficClass::Data,
            requester: GpuId(3),
            owner: GpuId(1),
            origin: Origin::Cu(0),
        }
    }

    #[test]
    fn response_echoes_request() {
        let r = req();
        let rsp = MemRsp::for_req(&r, 0b0001);
        assert_eq!(rsp.access, r.access);
        assert_eq!(rsp.line, r.line);
        assert_eq!(rsp.requester, r.requester);
        assert_eq!(rsp.owner, r.owner);
        assert_eq!(rsp.sectors_valid, 0b0001);
        assert_eq!(rsp.class, TrafficClass::Data);
    }

    #[test]
    fn labels() {
        assert_eq!(Message::MemReq(req()).label(), "mem-req");
        assert_eq!(
            Message::Credit {
                from: NodeId(0),
                count: 1,
                link: 0
            }
            .label(),
            "credit"
        );
    }
}
