//! The per-GPU RDMA engine (§2.1, \[9\]): the bridge between a GPU's
//! memory system and the inter-GPU network.
//!
//! Outbound, it wraps remote memory transactions into the six Table 1
//! packet categories, stamps Trimming bits on eligible read requests
//! (§4.3), segments packets into flits (step 4b of Figure 2) and
//! transmits them toward the cluster switch over the intra-cluster link.
//! Inbound, it returns link credits, reassembles flits into packets
//! (step 4e), forwards request packets into the local L2, and routes
//! response packets back to the CU or GMMU that asked.

use netcrafter_core::TrimEngine;
use netcrafter_net::{EgressPort, EgressWire, FifoQueue, Reassembler, Segmenter, WIRE_LATENCY};
use netcrafter_proto::config::{SystemConfig, ON_CHIP_HOP_CYCLES};
use netcrafter_proto::{
    GpuId, MemRsp, Message, Metrics, NodeId, Packet, PacketId, PacketKind, PacketPayload,
    TrafficClass, TrimInfo,
};
use netcrafter_sim::{snap_fields, BurstOutcome, Component, ComponentId, Ctx, EventClass, Tracer};

/// Where the RDMA engine's traffic goes.
#[derive(Debug, Clone)]
pub struct RdmaWiring {
    /// The cluster switch this GPU hangs off.
    pub switch: ComponentId,
    /// Node id of that switch.
    pub switch_node: NodeId,
    /// This GPU's port index at the switch (stamped as `link` on
    /// everything sent to it).
    pub switch_port: u16,
    /// Credits granted by the switch's input buffer.
    pub switch_credits: u32,
    /// The GPU's local L2 (arriving remote requests are served there).
    pub l2: ComponentId,
    /// The GPU's translation unit (PT read responses go back here).
    pub gmmu: ComponentId,
    /// The GPU's CUs by local index (data responses go back here).
    pub cus: Vec<ComponentId>,
}

/// RDMA statistics.
#[derive(Debug, Clone, Default)]
pub struct RdmaStats {
    /// Packets sent, by Table 1 category.
    pub packets_out: [u64; 6],
    /// Packets received, by Table 1 category.
    pub packets_in: [u64; 6],
    /// Remote requests served against the local L2.
    pub requests_served: u64,
    /// Wire bytes of all packets sent (before flit padding).
    pub wire_bytes_out: u64,
}

snap_fields! {
    impl Snap for RdmaStats { packets_out, packets_in, requests_served, wire_bytes_out }
}

impl RdmaStats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        for (i, kind) in netcrafter_proto::ALL_PACKET_KINDS.iter().enumerate() {
            let label = kind.label().replace(' ', "_");
            metrics.add(&format!("{prefix}.out.{label}"), self.packets_out[i]);
            metrics.add(&format!("{prefix}.in.{label}"), self.packets_in[i]);
        }
        metrics.add(&format!("{prefix}.requests_served"), self.requests_served);
        metrics.add(&format!("{prefix}.wire_bytes_out"), self.wire_bytes_out);
    }
}

/// The RDMA engine component of one GPU.
pub struct Rdma {
    gpu: GpuId,
    node: NodeId,
    name: String,
    wiring: RdmaWiring,
    gpus_per_cluster: u16,
    granularity: u32,
    full_sector_mask: u16,
    seg: Segmenter,
    reasm: Reassembler,
    /// The Trim Engine (stats live here; the decision uses the request's
    /// sector mask, which the requesting L1 set per its fill policy).
    pub trim: TrimEngine,
    egress: EgressPort,
    next_packet: u64,
    /// Statistics.
    pub stats: RdmaStats,
}

impl Rdma {
    /// Builds the RDMA engine of `gpu` at network node `node`.
    pub fn new(gpu: GpuId, node: NodeId, cfg: &SystemConfig, wiring: RdmaWiring) -> Self {
        let flits_per_cycle = cfg.topology.intra_bytes_per_cycle() / cfg.flit_bytes as f64;
        let egress = EgressPort::new(
            EgressWire {
                peer: wiring.switch,
                self_node: node,
                peer_port: wiring.switch_port,
                wire_latency: WIRE_LATENCY,
            },
            Box::new(FifoQueue::new()),
            // Unbounded: every segmented flit queues here in order, and
            // the switch's credits bound what is in flight.
            usize::MAX,
            flits_per_cycle,
            wiring.switch_credits,
        );
        Self {
            gpu,
            node,
            name: format!("{gpu}.rdma"),
            gpus_per_cluster: cfg.topology.gpus_per_cluster,
            granularity: cfg.trim_granularity,
            full_sector_mask: cfg.full_sector_mask(),
            seg: Segmenter::new(cfg.flit_bytes),
            reasm: Reassembler::new(),
            trim: TrimEngine::new(cfg.trimming(), cfg.trim_granularity),
            egress,
            next_packet: (gpu.raw() as u64) << 48,
            wiring,
            stats: RdmaStats::default(),
        }
    }

    fn crosses_clusters(&self, other: GpuId) -> bool {
        other.cluster(self.gpus_per_cluster) != self.gpu.cluster(self.gpus_per_cluster)
    }

    fn next_packet_id(&mut self) -> PacketId {
        let id = self.next_packet;
        self.next_packet += 1;
        PacketId(id)
    }

    fn transmit(&mut self, packet: Packet, now: netcrafter_sim::Cycle) {
        self.stats.packets_out[packet.kind.index()] += 1;
        self.stats.wire_bytes_out += packet.wire_bytes() as u64;
        for flit in self.seg.segment(packet) {
            self.egress.push(flit, now);
        }
    }

    /// Outbound request: a CU or GMMU transaction whose owner is remote.
    fn send_request(
        &mut self,
        req: netcrafter_proto::MemReq,
        now: netcrafter_sim::Cycle,
        tracer: &mut Tracer,
    ) {
        debug_assert_ne!(
            req.owner, self.gpu,
            "{}: local request routed to RDMA",
            self.name
        );
        let kind = if req.write {
            PacketKind::WriteReq
        } else if req.class == TrafficClass::Ptw {
            PacketKind::PageTableReq
        } else {
            PacketKind::ReadReq
        };
        // Trim bits: a data read that asks for exactly one sector (the
        // requesting L1 applies the policy) and crosses clusters.
        let trim = (kind == PacketKind::ReadReq
            && self.crosses_clusters(req.owner)
            && req.sectors.count_ones() == 1
            && req.sectors != self.full_sector_mask)
            .then(|| TrimInfo {
                granularity: self.granularity,
                sector: req.sectors.trailing_zeros() as u8,
            });
        let id = self.next_packet_id();
        if let Some(t) = &trim {
            tracer.instant(EventClass::Trim, "trim.request", id.0, t.sector as u64);
        }
        let packet = Packet {
            id,
            kind,
            src: self.node,
            dst: NodeId(req.owner.raw()),
            payload_bytes: if req.write { 64 } else { 0 },
            trim,
            inner: PacketPayload::Req(req),
        };
        self.transmit(packet, now);
    }

    /// Outbound response: the local L2 finished serving a remote request.
    fn send_response(&mut self, rsp: MemRsp, now: netcrafter_sim::Cycle, tracer: &mut Tracer) {
        debug_assert_ne!(rsp.requester, self.gpu);
        let crosses = self.crosses_clusters(rsp.requester);
        let (kind, payload) = if rsp.write {
            (PacketKind::WriteRsp, 0)
        } else if rsp.class == TrafficClass::Ptw {
            // Page-table responses carry the PA in the header (§4.1).
            (PacketKind::PageTableRsp, 0)
        } else {
            // The response carries exactly the sectors the requester's
            // fill policy asked for; a sub-line cross-cluster payload is
            // Trimming at work.
            let sectors = rsp.sectors_valid.count_ones();
            let payload = (sectors * self.granularity).min(64);
            self.trim.record_response(payload, crosses);
            (PacketKind::ReadRsp, payload)
        };
        let id = self.next_packet_id();
        if kind == PacketKind::ReadRsp && crosses && payload < 64 {
            tracer.instant(EventClass::Trim, "trim.response", id.0, payload as u64);
        }
        let packet = Packet {
            id,
            kind,
            src: self.node,
            dst: NodeId(rsp.requester.raw()),
            payload_bytes: payload,
            trim: None,
            inner: PacketPayload::Rsp(rsp),
        };
        self.transmit(packet, now);
    }

    /// Inbound packet, fully reassembled.
    fn deliver(&mut self, packet: Packet, ctx: &mut Ctx<'_>) {
        self.stats.packets_in[packet.kind.index()] += 1;
        match packet.inner {
            PacketPayload::Req(req) => {
                debug_assert_eq!(req.owner, self.gpu, "{}: misrouted request", self.name);
                self.stats.requests_served += 1;
                ctx.send(self.wiring.l2, Message::MemReq(req), ON_CHIP_HOP_CYCLES);
            }
            PacketPayload::Rsp(rsp) => {
                debug_assert_eq!(rsp.requester, self.gpu, "{}: misrouted response", self.name);
                let target = match rsp.origin {
                    netcrafter_proto::Origin::Cu(i) => self.wiring.cus[i as usize],
                    netcrafter_proto::Origin::Gmmu => self.wiring.gmmu,
                    other => panic!("{}: response to {other:?}", self.name),
                };
                ctx.send(target, Message::MemRsp(rsp), ON_CHIP_HOP_CYCLES);
            }
        }
    }
}

impl Component for Rdma {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.cycle();
        while let Some(msg) = ctx.recv() {
            match msg {
                Message::MemReq(req) => self.send_request(req, now, ctx.tracer()),
                Message::MemRsp(rsp) => self.send_response(rsp, now, ctx.tracer()),
                Message::Flit { flit, from, .. } => {
                    debug_assert_eq!(from, self.wiring.switch_node);
                    ctx.send(
                        self.wiring.switch,
                        Message::Credit {
                            from: self.node,
                            count: 1,
                            link: self.wiring.switch_port,
                        },
                        1,
                    );
                    for packet in self.reasm.accept(flit) {
                        self.deliver(packet, ctx);
                    }
                }
                Message::Credit { count, .. } => self.egress.on_credit(count, now),
                other => panic!("{}: unexpected {}", self.name, other.label()),
            }
        }
        self.egress.tick(ctx);
    }

    /// Burst dispatch: the mailbox drains inside one `tick`, then the
    /// egress port answers both busy-ness and the wake (the RDMA
    /// engine's only wake answer).
    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        BurstOutcome {
            busy: self.egress.busy(),
            wake: self.egress.next_wake(ctx.cycle()),
        }
    }

    fn busy(&self) -> bool {
        self.egress.busy()
    }

    fn name(&self) -> &str {
        &self.name
    }

    snap_fields! {
        fn save_state + load_state {
            gpu: skipped(wiring),
            node: skipped(wiring),
            name: skipped(wiring),
            wiring: skipped(wiring),
            gpus_per_cluster: skipped(config),
            granularity: skipped(config),
            full_sector_mask: skipped(config),
            seg: skipped(config),
            reasm,
            trim,
            egress,
            next_packet,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::{AccessId, Flit, LineAddr, LineMask, MemReq, Origin};
    use netcrafter_sim::EngineBuilder;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// Collects flits (pretending to be the switch) and other messages.
    struct Collector {
        flits: Arc<Mutex<Vec<Flit>>>,
        msgs: Arc<Mutex<Vec<Message>>>,
        node: NodeId,
        credit_back: Option<ComponentId>,
    }
    impl Component for Collector {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                match msg {
                    Message::Flit { flit, .. } => {
                        self.flits.lock().unwrap().push(flit);
                        if let Some(peer) = self.credit_back {
                            ctx.send(
                                peer,
                                Message::Credit {
                                    from: self.node,
                                    count: 1,
                                    link: 0,
                                },
                                1,
                            );
                        }
                    }
                    other => self.msgs.lock().unwrap().push(other),
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "collector"
        }
    }

    struct H {
        engine: netcrafter_sim::Engine,
        rdma: ComponentId,
        flits: Arc<Mutex<Vec<Flit>>>,
        msgs: Arc<Mutex<Vec<Message>>>,
    }

    fn harness(trimming: bool) -> H {
        let mut cfg = SystemConfig::small(1);
        if trimming {
            cfg = cfg.with_netcrafter();
        }
        let mut b = EngineBuilder::new();
        let sw = b.reserve();
        let l2 = b.reserve();
        let gmmu = b.reserve();
        let cu = b.reserve();
        let rdma = b.reserve();
        let flits = Arc::new(Mutex::new(Vec::new()));
        let msgs = Arc::new(Mutex::new(Vec::new()));
        for id in [l2, gmmu, cu] {
            b.install(
                id,
                Box::new(Collector {
                    flits: Arc::clone(&flits),
                    msgs: Arc::clone(&msgs),
                    node: NodeId(4),
                    credit_back: None,
                }),
            );
        }
        b.install(
            sw,
            Box::new(Collector {
                flits: Arc::clone(&flits),
                msgs: Arc::clone(&msgs),
                node: NodeId(4),
                credit_back: Some(rdma),
            }),
        );
        b.install(
            rdma,
            Box::new(Rdma::new(
                GpuId(0),
                NodeId(0),
                &cfg,
                RdmaWiring {
                    switch: sw,
                    switch_node: NodeId(4),
                    switch_port: 0,
                    switch_credits: 1024,
                    l2,
                    gmmu,
                    cus: vec![cu],
                },
            )),
        );
        H {
            engine: b.build(),
            rdma,
            flits,
            msgs,
        }
    }

    fn remote_read(sectors: u16, owner: u16) -> MemReq {
        MemReq {
            access: AccessId(1),
            line: LineAddr(0x40),
            write: false,
            mask: LineMask::span(0, 8),
            sectors,
            class: TrafficClass::Data,
            requester: GpuId(0),
            owner: GpuId(owner),
            origin: Origin::Cu(0),
        }
    }

    #[test]
    fn read_request_is_one_flit() {
        let mut h = harness(false);
        h.engine
            .inject(h.rdma, Message::MemReq(remote_read(0b1111, 2)), 1);
        h.engine.run_to_quiescence(1000);
        let flits = h.flits.lock().unwrap();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].chunks[0].kind, PacketKind::ReadReq);
        assert_eq!(flits[0].used_bytes(), 12);
    }

    #[test]
    fn trim_bits_set_for_single_sector_cross_cluster_read() {
        let mut h = harness(true);
        h.engine
            .inject(h.rdma, Message::MemReq(remote_read(0b0010, 2)), 1);
        h.engine.run_to_quiescence(1000);
        let flits = h.flits.lock().unwrap();
        let info = flits[0].chunks[0].packet_info.as_ref().unwrap();
        assert_eq!(
            info.trim,
            Some(TrimInfo {
                granularity: 16,
                sector: 1
            })
        );
    }

    #[test]
    fn no_trim_bits_within_cluster() {
        let mut h = harness(true);
        // gpu1 is in the same cluster as gpu0.
        h.engine
            .inject(h.rdma, Message::MemReq(remote_read(0b0010, 1)), 1);
        h.engine.run_to_quiescence(1000);
        let flits = h.flits.lock().unwrap();
        let info = flits[0].chunks[0].packet_info.as_ref().unwrap();
        assert_eq!(info.trim, None);
    }

    #[test]
    fn full_read_response_is_five_flits() {
        let mut h = harness(false);
        let rsp = MemRsp {
            access: AccessId(9),
            line: LineAddr(0x80),
            write: false,
            sectors_valid: 0b1111,
            class: TrafficClass::Data,
            requester: GpuId(3),
            owner: GpuId(0),
            origin: Origin::Cu(2),
        };
        h.engine.inject(h.rdma, Message::MemRsp(rsp), 1);
        h.engine.run_to_quiescence(1000);
        assert_eq!(h.flits.lock().unwrap().len(), 5);
        assert_eq!(
            h.flits.lock().unwrap()[0].chunks[0].kind,
            PacketKind::ReadRsp
        );
    }

    #[test]
    fn trimmed_response_is_two_flits() {
        let mut h = harness(true);
        let rsp = MemRsp {
            access: AccessId(9),
            line: LineAddr(0x80),
            write: false,
            sectors_valid: 0b0100,
            class: TrafficClass::Data,
            requester: GpuId(3),
            owner: GpuId(0),
            origin: Origin::Cu(2),
        };
        h.engine.inject(h.rdma, Message::MemRsp(rsp), 1);
        h.engine.run_to_quiescence(1000);
        assert_eq!(h.flits.lock().unwrap().len(), 2, "trimmed 20 B response");
    }

    #[test]
    fn pt_response_is_header_only() {
        let mut h = harness(false);
        let rsp = MemRsp {
            access: AccessId(9),
            line: LineAddr(0x80),
            write: false,
            sectors_valid: u16::MAX,
            class: TrafficClass::Ptw,
            requester: GpuId(2),
            owner: GpuId(0),
            origin: Origin::Gmmu,
        };
        h.engine.inject(h.rdma, Message::MemRsp(rsp), 1);
        h.engine.run_to_quiescence(1000);
        let flits = h.flits.lock().unwrap();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].chunks[0].kind, PacketKind::PageTableRsp);
        assert_eq!(flits[0].used_bytes(), 12);
    }

    #[test]
    fn inbound_request_forwards_to_l2() {
        let mut h = harness(false);
        // Build the flits of a remote GPU's read request to us (owner 0).
        let seg = Segmenter::new(16);
        let req = MemReq {
            owner: GpuId(0),
            requester: GpuId(2),
            ..remote_read(0b1111, 0)
        };
        let packet = Packet {
            id: PacketId(7),
            kind: PacketKind::ReadReq,
            src: NodeId(2),
            dst: NodeId(0),
            payload_bytes: 0,
            trim: None,
            inner: PacketPayload::Req(req),
        };
        for flit in seg.segment(packet) {
            h.engine.inject(
                h.rdma,
                Message::Flit {
                    flit,
                    from: NodeId(4),
                    link: 0,
                },
                1,
            );
        }
        h.engine.run_to_quiescence(1000);
        let msgs = h.msgs.lock().unwrap();
        assert!(msgs
            .iter()
            .any(|m| matches!(m, Message::MemReq(r) if r.requester == GpuId(2))));
    }

    #[test]
    fn inbound_response_routes_to_origin_cu() {
        let mut h = harness(false);
        let seg = Segmenter::new(16);
        let rsp = MemRsp {
            access: AccessId(9),
            line: LineAddr(0x80),
            write: false,
            sectors_valid: 0b1111,
            class: TrafficClass::Data,
            requester: GpuId(0),
            owner: GpuId(2),
            origin: Origin::Cu(0),
        };
        let packet = Packet {
            id: PacketId(8),
            kind: PacketKind::ReadRsp,
            src: NodeId(2),
            dst: NodeId(0),
            payload_bytes: 64,
            trim: None,
            inner: PacketPayload::Rsp(rsp),
        };
        for flit in seg.segment(packet) {
            h.engine.inject(
                h.rdma,
                Message::Flit {
                    flit,
                    from: NodeId(4),
                    link: 0,
                },
                1,
            );
        }
        h.engine.run_to_quiescence(1000);
        let msgs = h.msgs.lock().unwrap();
        assert!(msgs
            .iter()
            .any(|m| matches!(m, Message::MemRsp(r) if !r.write)));
    }
}
