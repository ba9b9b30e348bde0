//! The cluster switch: per-port input pipelines, bounded buffers,
//! crossbar routing with back-pressure, and un-stitching of NetCrafter
//! flits arriving from a remote cluster.
//!
//! Modelled after the Akita switch MGPUSim uses (§5.1): each arriving flit
//! traverses a 30-cycle processing pipeline at 1 flit/cycle/port, then
//! waits in a bounded buffer for routing. Routing moves flits to output
//! buffers; a full output buffer pauses routing for that input, and the
//! held-back credits propagate the stall upstream.

use std::collections::BTreeMap;

use netcrafter_proto::config::SwitchConfig;
use netcrafter_proto::{Flit, Message, Metrics, NodeId};
use netcrafter_sim::snapshot::SnapshotError;
use netcrafter_sim::{
    snap_fields, BurstOutcome, Component, ComponentId, Ctx, Cycle, DelayQueue, EventClass, Tracer,
    Wake,
};

use crate::port::{EgressPort, EgressQueue, EgressWire, FifoQueue, PortSeries};
use crate::topology::{FabricLink, SwitchSpec};

/// Everything needed to wire one bidirectional switch port.
pub struct SwitchPortSpec {
    /// Engine id of the component on the other end of the link.
    pub peer: ComponentId,
    /// Node id of that component (used to attribute arrivals and credits).
    pub peer_node: NodeId,
    /// The paired port's index at the peer: the value stamped as `link`
    /// on everything sent over this port, so the peer indexes its port
    /// array directly even when several parallel links join the same two
    /// nodes (torus virtual channels). 0 for single-port endpoints.
    pub peer_port: u16,
    /// Link bandwidth in flits per cycle.
    pub flits_per_cycle: f64,
    /// Buffer size in flits: this port's input and output buffers hold
    /// this many, and its egress starts with as many credits (the peer's
    /// input buffer on this link is the same size).
    pub buffer: u32,
    /// The egress queue implementation (FIFO, or NetCrafter's Cluster
    /// Queue on inter-cluster ports).
    pub queue: Box<dyn EgressQueue>,
    /// Wire propagation latency in cycles.
    pub wire_latency: u64,
    /// True for ports facing another cluster (the lower-bandwidth links
    /// NetCrafter optimizes); used for statistics attribution.
    pub is_inter: bool,
}

struct Port {
    peer: ComponentId,
    peer_node: NodeId,
    peer_port: u16,
    wire_latency: u64,
    in_pipe: DelayQueue<Flit>,
    in_capacity: usize,
    stalled: Option<Flit>,
    egress: EgressPort,
    is_inter: bool,
}

impl Port {
    fn input_occupancy(&self) -> usize {
        self.in_pipe.len() + usize::from(self.stalled.is_some())
    }

    /// True while flits wait in the input pipeline or a stalled slot.
    fn rx_busy(&self) -> bool {
        !self.in_pipe.is_empty() || self.stalled.is_some()
    }

    snap_fields! {
        fn save + load_into {
            peer: skipped(wiring),
            peer_node: skipped(wiring),
            peer_port: skipped(wiring),
            wire_latency: skipped(config),
            in_pipe,
            in_capacity: skipped(config),
            stalled,
            egress,
            is_inter: skipped(wiring),
        }
    }
}

/// Ascending indices of the set bits of a port mask.
fn ports_in(mask: u64) -> impl Iterator<Item = usize> {
    let mut bits = mask;
    std::iter::from_fn(move || {
        if bits == 0 {
            return None;
        }
        let ix = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        Some(ix)
    })
}

/// Route-table entry for a destination with no route.
const NO_ROUTE: u16 = u16::MAX;

/// Largest radix the `u64` active-port masks can index.
const MAX_RADIX: usize = 64;

/// Aggregate switch statistics.
#[derive(Debug, Clone, Default)]
pub struct SwitchStats {
    /// Flits accepted from links.
    pub arrived: u64,
    /// Stitched flits taken apart by this switch's un-stitching engine.
    pub unstitched_flits: u64,
    /// Constituent flits recovered by un-stitching.
    pub unstitched_chunks: u64,
    /// Routing stalls due to full output buffers (back-pressure events).
    pub output_stalls: u64,
}

snap_fields! {
    impl Snap for SwitchStats { arrived, unstitched_flits, unstitched_chunks, output_stalls }
}

/// A cluster switch component.
///
/// A tick visits only the ports with work: `rx_active` has a bit per
/// port holding input flits (pipelined or stalled), `tx_active` one per
/// port whose egress queue is non-empty. An idle egress port is left
/// unticked and catches up on its next push, credit or tick (see
/// [`EgressPort::catch_up`]).
pub struct Switch {
    node: NodeId,
    name: String,
    pipeline_cycles: u32,
    ports: Vec<Port>,
    /// Output port per destination, indexed by `NodeId.0` (`NO_ROUTE`
    /// where the switch has none).
    route: Vec<u16>,
    /// Ports with a non-empty input pipeline or a stalled flit.
    rx_active: u64,
    /// Ports with a non-empty egress queue.
    tx_active: u64,
    /// Per-port chunk counters reused by the un-stitching admission check
    /// in [`Switch::try_route`]; always all-zero between calls. A scratch
    /// field (not a local) so the routing hot path allocates nothing.
    unstitch_needed: Vec<u32>,
    /// Aggregate statistics.
    pub stats: SwitchStats,
}

impl Switch {
    /// Builds a switch at `node` with the given ports and routing table
    /// (destination node → port index).
    pub fn new(
        node: NodeId,
        name: impl Into<String>,
        pipeline_cycles: u32,
        specs: Vec<SwitchPortSpec>,
        route: BTreeMap<NodeId, usize>,
    ) -> Self {
        assert!(
            specs.len() <= MAX_RADIX,
            "switch radix {} exceeds the {MAX_RADIX} ports an active mask holds",
            specs.len()
        );
        let mut ports = Vec::with_capacity(specs.len());
        for spec in specs {
            ports.push(Port {
                peer: spec.peer,
                peer_node: spec.peer_node,
                peer_port: spec.peer_port,
                wire_latency: spec.wire_latency,
                in_pipe: DelayQueue::new(),
                in_capacity: spec.buffer as usize,
                stalled: None,
                egress: EgressPort::new(
                    EgressWire {
                        peer: spec.peer,
                        self_node: node,
                        peer_port: spec.peer_port,
                        wire_latency: spec.wire_latency,
                    },
                    spec.queue,
                    spec.buffer as usize,
                    spec.flits_per_cycle,
                    spec.buffer,
                ),
                is_inter: spec.is_inter,
            });
        }
        let table_len = route.keys().last().map_or(0, |dst| usize::from(dst.0) + 1);
        let mut table = vec![NO_ROUTE; table_len];
        for (&dst, &port) in &route {
            assert!(
                port < ports.len(),
                "route for {dst} names unknown port {port}"
            );
            table[usize::from(dst.0)] = u16::try_from(port).expect("radix is at most 64");
        }
        let unstitch_needed = vec![0; ports.len()];
        Self {
            node,
            name: name.into(),
            pipeline_cycles,
            ports,
            route: table,
            rx_active: 0,
            tx_active: 0,
            unstitch_needed,
            stats: SwitchStats::default(),
        }
    }

    /// Builds the switch `spec` describes: `config`'s pipeline, and
    /// `config.buffer_entries`-flit buffers on every port. GPU ports run
    /// at `intra_fpc` flits/cycle behind a FIFO; fabric ports run at
    /// `inter_fpc` scaled by their [`FabricLink::rate_scale`] behind the
    /// queue `inter_queue` returns for them. `peer` names the component
    /// on the far end of each link.
    pub fn from_spec(
        spec: &SwitchSpec,
        name: impl Into<String>,
        config: &SwitchConfig,
        intra_fpc: f64,
        inter_fpc: f64,
        peer: impl Fn(&FabricLink) -> ComponentId,
        mut inter_queue: impl FnMut(&FabricLink) -> Box<dyn EgressQueue>,
    ) -> Self {
        let ports = spec
            .links
            .iter()
            .map(|link| {
                let (flits_per_cycle, queue): (f64, Box<dyn EgressQueue>) = if link.is_inter {
                    (inter_fpc * link.rate_scale, inter_queue(link))
                } else {
                    (intra_fpc, Box::new(FifoQueue::new()))
                };
                SwitchPortSpec {
                    peer: peer(link),
                    peer_node: link.peer,
                    peer_port: link.peer_port,
                    flits_per_cycle,
                    buffer: config.buffer_entries,
                    queue,
                    wire_latency: link.latency,
                    is_inter: link.is_inter,
                }
            })
            .collect();
        Self::new(
            spec.node,
            name,
            config.pipeline_cycles,
            ports,
            spec.routes.clone(),
        )
    }

    /// Turns on windowed time-series sampling on every egress port
    /// (`window` cycles per bucket). See [`PortSeries`].
    pub fn enable_sampling(&mut self, window: u64) {
        for port in &mut self.ports {
            port.egress.enable_sampling(window);
        }
    }

    /// Extracts the sampled per-link series: `(peer_node, is_inter,
    /// series)` for every port where sampling was enabled, with the
    /// occupancy and pooling integrals settled through `end`, the run's
    /// final cycle.
    pub fn take_series(&mut self, end: Cycle) -> Vec<(NodeId, bool, PortSeries)> {
        self.ports
            .iter_mut()
            .filter_map(|p| {
                p.egress
                    .take_series(end)
                    .map(|series| (p.peer_node, p.is_inter, series))
            })
            .collect()
    }

    /// Dumps statistics under `prefix`: aggregate counters plus per-port
    /// egress counters, inter-cluster ports additionally aggregated under
    /// `<prefix>.inter`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.arrived"), self.stats.arrived);
        metrics.add(
            &format!("{prefix}.unstitched_flits"),
            self.stats.unstitched_flits,
        );
        metrics.add(
            &format!("{prefix}.unstitched_chunks"),
            self.stats.unstitched_chunks,
        );
        metrics.add(&format!("{prefix}.output_stalls"), self.stats.output_stalls);
        for port in &self.ports {
            let scope = format!("{prefix}.port{}", port.peer_node);
            port.egress.stats.report(metrics, &scope);
            port.egress.report_queue(metrics, &scope);
            if port.is_inter {
                port.egress
                    .stats
                    .report(metrics, &format!("{prefix}.inter"));
                port.egress
                    .report_queue(metrics, &format!("{prefix}.inter"));
            }
        }
    }

    fn out_port_for(&self, dst: NodeId) -> usize {
        match self.route.get(usize::from(dst.0)) {
            Some(&port) if port != NO_ROUTE => usize::from(port),
            _ => panic!("{}: no route to {dst}", self.name),
        }
    }

    /// Rebuilds the derived active-port masks after a restore.
    fn rebuild_masks(&mut self) -> Result<(), SnapshotError> {
        (self.rx_active, self.tx_active) = self.port_masks();
        Ok(())
    }

    /// `(rx_active, tx_active)` recomputed from the ports.
    fn port_masks(&self) -> (u64, u64) {
        let (mut rx, mut tx) = (0, 0);
        for (ix, port) in self.ports.iter().enumerate() {
            if port.rx_busy() {
                rx |= 1 << ix;
            }
            if port.egress.busy() {
                tx |= 1 << ix;
            }
        }
        (rx, tx)
    }

    /// Pushes `flit` onto output port `port`'s queue.
    fn push_out(&mut self, port: usize, flit: Flit, now: Cycle) {
        self.ports[port].egress.push(flit, now);
        self.tx_active |= 1 << port;
    }

    /// Sends one input-buffer credit back over port `ix`.
    fn return_credit(&self, ix: usize, ctx: &mut Ctx<'_>) {
        let p = &self.ports[ix];
        ctx.send(
            p.peer,
            Message::Credit {
                from: self.node,
                count: 1,
                link: p.peer_port,
            },
            p.wire_latency,
        );
    }

    /// Routes port `ix`'s flits whose pipeline delay elapsed, its stalled
    /// flit first, stopping at the first that cannot leave (ordering).
    fn route_port(&mut self, ix: usize, now: Cycle, ctx: &mut Ctx<'_>) {
        let mut next = self.ports[ix].stalled.take();
        if next.is_none() {
            next = self.ports[ix].in_pipe.pop_ready(now);
        }
        while let Some(flit) = next {
            if let Err(flit) = self.try_route(flit, now, ctx.tracer()) {
                self.ports[ix].stalled = Some(flit);
                return;
            }
            self.return_credit(ix, ctx);
            next = self.ports[ix].in_pipe.pop_ready(now);
        }
        if !self.ports[ix].rx_busy() {
            self.rx_active &= !(1 << ix);
        }
    }

    /// Attempts to route `flit` out of the switch. On success the flit is
    /// placed in the relevant output buffer(s) and `true` is returned; on
    /// back-pressure the flit is returned to the caller via `Err`.
    fn try_route(&mut self, flit: Flit, now: Cycle, tracer: &mut Tracer) -> Result<(), Flit> {
        if flit.dst == self.node {
            // A stitched flit addressed to this switch: un-stitch and
            // route every constituent to its own endpoint.
            debug_assert!(flit.is_stitched() || flit.chunks.len() == 1);
            debug_assert!(self.unstitch_needed.iter().all(|&n| n == 0));
            for i in 0..flit.chunks.len() {
                let port = self.out_port_for(flit.chunks[i].dst);
                self.unstitch_needed[port] += 1;
            }
            let fits = self
                .ports
                .iter()
                .zip(&self.unstitch_needed)
                .all(|(p, &n)| n == 0 || p.egress.free_space() >= n as usize);
            for n in &mut self.unstitch_needed {
                *n = 0;
            }
            if !fits {
                self.stats.output_stalls += 1;
                return Err(flit);
            }
            if flit.is_stitched() {
                self.stats.unstitched_flits += 1;
                tracer.instant(
                    EventClass::Stitch,
                    "stitch.unpack",
                    flit.chunks.first().map_or(0, |c| c.packet.0),
                    flit.chunks.len() as u64,
                );
            }
            let parts = flit.unstitch();
            self.stats.unstitched_chunks += parts.len() as u64;
            for part in parts {
                let port = self.out_port_for(part.dst);
                self.push_out(port, part, now);
            }
            Ok(())
        } else {
            let port = self.out_port_for(flit.dst);
            if self.ports[port].egress.can_accept() {
                self.push_out(port, flit, now);
                Ok(())
            } else {
                self.stats.output_stalls += 1;
                Err(flit)
            }
        }
    }
}

impl Component for Switch {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.cycle();

        // 1. Accept arrivals and credits.
        while let Some(msg) = ctx.recv() {
            match msg {
                Message::Flit { flit, from, link } => {
                    let ix = link as usize;
                    assert!(
                        ix < self.ports.len(),
                        "{}: flit from {from} on unknown port {link}",
                        self.name
                    );
                    let port = &mut self.ports[ix];
                    debug_assert_eq!(
                        port.peer_node, from,
                        "{}: port {link} faces {}, flit claims {from}",
                        self.name, port.peer_node
                    );
                    assert!(
                        port.input_occupancy() < port.in_capacity,
                        "{}: input buffer overflow from {from} (credit protocol violated)",
                        self.name
                    );
                    self.stats.arrived += 1;
                    let tracer = ctx.tracer();
                    if tracer.wants(EventClass::Flit) {
                        let id = flit.chunks.first().map_or(0, |c| c.packet.0);
                        tracer.instant(EventClass::Flit, "flit.rx", id, flit.used_bytes() as u64);
                    }
                    port.in_pipe.push(now + self.pipeline_cycles as Cycle, flit);
                    self.rx_active |= 1 << ix;
                }
                Message::Credit { from, count, link } => {
                    let ix = link as usize;
                    assert!(
                        ix < self.ports.len(),
                        "{}: credit from {from} on unknown port {link}",
                        self.name
                    );
                    debug_assert_eq!(self.ports[ix].peer_node, from);
                    self.ports[ix].egress.on_credit(count, now);
                }
                other => panic!("{}: unexpected message {}", self.name, other.label()),
            }
        }

        // 2. Route flits whose pipeline delay elapsed, in port order.
        for ix in ports_in(self.rx_active) {
            self.route_port(ix, now, ctx);
        }

        // 3. Transmit from non-empty output buffers. An empty one is not
        //    ticked: its tick would only move the token bucket, which its
        //    next push, credit or tick replays.
        for ix in ports_in(self.tx_active) {
            let egress = &mut self.ports[ix].egress;
            egress.tick(ctx);
            if !egress.busy() {
                self.tx_active &= !(1 << ix);
            }
        }
    }

    /// Burst dispatch: one tick over the whole mailbox slice, then a
    /// single fused pass over the active ports only — the switch's only
    /// wake answer. The masks are exact, so busy-ness is their union; an
    /// inactive port has nothing to wake for.
    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        debug_assert_eq!(
            (self.rx_active, self.tx_active),
            self.port_masks(),
            "{}: active-port masks disagree with the ports",
            self.name
        );
        let now = ctx.cycle();
        let busy = (self.rx_active | self.tx_active) != 0;
        let mut wake = Wake::OnMessage;
        for ix in ports_in(self.rx_active) {
            let port = &self.ports[ix];
            // A stalled flit is retried — and counted in output_stalls —
            // every cycle, so skipping any would change the statistics.
            if port.stalled.is_some() {
                return BurstOutcome {
                    busy,
                    wake: Wake::EveryCycle,
                };
            }
            if let Some(t) = port.in_pipe.next_ready() {
                wake = wake.earliest(Wake::At(t));
            }
        }
        for ix in ports_in(self.tx_active) {
            wake = wake.earliest(self.ports[ix].egress.next_wake(now));
            if wake == Wake::EveryCycle {
                break;
            }
        }
        BurstOutcome { busy, wake }
    }

    fn busy(&self) -> bool {
        self.ports.iter().any(|p| p.rx_busy() || p.egress.busy())
    }

    fn name(&self) -> &str {
        &self.name
    }

    snap_fields! {
        fn save_state + load_state {
            node: skipped(wiring),
            name: skipped(wiring),
            pipeline_cycles: skipped(config),
            ports: fixed,
            route: skipped(config),
            rx_active: skipped(derived),
            tx_active: skipped(derived),
            unstitch_needed: skipped(scratch),
            stats,
        }
        validate Self::rebuild_masks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::FifoQueue;
    use crate::seg::Segmenter;
    use netcrafter_proto::{
        AccessId, GpuId, LineAddr, LineMask, MemReq, Packet, PacketId, PacketKind, PacketPayload,
        TrafficClass,
    };
    use netcrafter_sim::{Engine, EngineBuilder};

    /// Endpoint that sends a burst of flits into the switch at startup and
    /// records everything it receives.
    struct Endpoint {
        node: NodeId,
        switch: ComponentId,
        /// This endpoint's port index at the switch (stamped as `link`).
        switch_port: u16,
        outbound: Vec<Flit>,
        /// The flits received, in arrival order.
        received: Vec<Flit>,
        sent: bool,
        switch_credits: u32,
    }

    impl Component for Endpoint {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                match msg {
                    Message::Flit { flit, from, .. } => {
                        self.received.push(flit);
                        ctx.send(
                            self.switch,
                            Message::Credit {
                                from: self.node,
                                count: 1,
                                link: self.switch_port,
                            },
                            1,
                        );
                        let _ = from;
                    }
                    Message::Credit { count, .. } => self.switch_credits += count,
                    other => panic!("endpoint got {}", other.label()),
                }
            }
            if !self.sent {
                self.sent = true;
                for flit in self.outbound.drain(..) {
                    ctx.send(
                        self.switch,
                        Message::Flit {
                            flit,
                            from: self.node,
                            link: self.switch_port,
                        },
                        1,
                    );
                }
            }
        }
        fn busy(&self) -> bool {
            !self.sent
        }
        fn name(&self) -> &str {
            "endpoint"
        }
        snap_fields! {
            fn save_state + load_state {
                node: skipped(wiring),
                switch: skipped(wiring),
                switch_port: skipped(wiring),
                outbound,
                received,
                sent,
                switch_credits,
            }
        }
    }

    /// The flits endpoint `id` received, in arrival order.
    fn received(e: &Engine, id: ComponentId) -> &[Flit] {
        &e.get::<Endpoint>(id).expect("endpoint").received
    }

    fn packet(id: u64, dst: NodeId) -> Packet {
        Packet {
            id: PacketId(id),
            kind: PacketKind::ReadReq,
            src: NodeId(0),
            dst,
            payload_bytes: 0,
            trim: None,
            inner: PacketPayload::Req(MemReq {
                access: AccessId(id),
                line: LineAddr(0),
                write: false,
                mask: LineMask::span(0, 8),
                sectors: 0b1111,
                class: TrafficClass::Data,
                requester: GpuId(0),
                owner: GpuId(1),
                origin: netcrafter_proto::message::Origin::Cu(0),
            }),
        }
    }

    fn spec(peer: ComponentId, peer_node: NodeId, peer_port: u16, rate: f64) -> SwitchPortSpec {
        SwitchPortSpec {
            peer,
            peer_node,
            peer_port,
            flits_per_cycle: rate,
            buffer: 1024,
            queue: Box::new(FifoQueue::new()),
            wire_latency: 1,
            is_inter: false,
        }
    }

    /// One switch, two endpoints; endpoint 0 sends a packet to endpoint 1.
    #[test]
    fn routes_between_endpoints_with_pipeline_latency() {
        let mut b = EngineBuilder::new();
        let e0 = b.reserve();
        let e1 = b.reserve();
        let sw = b.reserve();

        let seg = Segmenter::new(16);
        let flits = seg.segment(packet(1, NodeId(1)));
        b.install(
            e0,
            Box::new(Endpoint {
                node: NodeId(0),
                switch: sw,
                switch_port: 0,
                outbound: flits,
                received: Vec::new(),
                sent: false,
                switch_credits: 0,
            }),
        );
        b.install(
            e1,
            Box::new(Endpoint {
                node: NodeId(1),
                switch: sw,
                switch_port: 1,
                outbound: vec![],
                received: Vec::new(),
                sent: false,
                switch_credits: 0,
            }),
        );
        let route = BTreeMap::from([(NodeId(0), 0), (NodeId(1), 1)]);
        b.install(
            sw,
            Box::new(Switch::new(
                NodeId(2),
                "sw",
                30,
                vec![spec(e0, NodeId(0), 0, 8.0), spec(e1, NodeId(1), 0, 8.0)],
                route,
            )),
        );
        let mut e = b.build();
        let end = e.run_to_quiescence(500);
        assert_eq!(received(&e, e1).len(), 1);
        // Path: send (1) + pipeline (30) + wire (1) and change.
        assert!(
            end >= 32,
            "must include the 30-cycle switch pipeline, got {end}"
        );
    }

    /// Two switches in series (inter-cluster link), endpoint to endpoint.
    #[test]
    fn two_hop_route_crosses_both_switches() {
        let mut b = EngineBuilder::new();
        let e0 = b.reserve();
        let e1 = b.reserve();
        let sw0 = b.reserve();
        let sw1 = b.reserve();

        let seg = Segmenter::new(16);
        let mut outbound = Vec::new();
        for id in 0..4 {
            outbound.extend(seg.segment(packet(id, NodeId(1))));
        }
        let n_flits = outbound.len();
        b.install(
            e0,
            Box::new(Endpoint {
                node: NodeId(0),
                switch: sw0,
                switch_port: 0,
                outbound,
                received: Vec::new(),
                sent: false,
                switch_credits: 0,
            }),
        );
        b.install(
            e1,
            Box::new(Endpoint {
                node: NodeId(1),
                switch: sw1,
                switch_port: 1,
                outbound: vec![],
                received: Vec::new(),
                sent: false,
                switch_credits: 0,
            }),
        );
        // sw0 (node 2): port0 -> e0, port1 -> sw1 (inter, 1 flit/cycle).
        b.install(
            sw0,
            Box::new(Switch::new(
                NodeId(2),
                "sw0",
                30,
                vec![spec(e0, NodeId(0), 0, 8.0), spec(sw1, NodeId(3), 0, 1.0)],
                BTreeMap::from([(NodeId(0), 0), (NodeId(1), 1), (NodeId(3), 1)]),
            )),
        );
        // sw1 (node 3): port0 -> sw0, port1 -> e1.
        b.install(
            sw1,
            Box::new(Switch::new(
                NodeId(3),
                "sw1",
                30,
                vec![spec(sw0, NodeId(2), 1, 1.0), spec(e1, NodeId(1), 0, 8.0)],
                BTreeMap::from([(NodeId(0), 0), (NodeId(2), 0), (NodeId(1), 1)]),
            )),
        );
        let mut e = b.build();
        let end = e.run_to_quiescence(1000);
        assert_eq!(received(&e, e1).len(), n_flits);
        assert!(end > 60, "two switch pipelines, got {end}");
    }

    /// A slow egress with tiny downstream credit stalls routing and the
    /// back-pressure keeps input occupancy bounded (no overflow panic).
    #[test]
    fn backpressure_with_small_buffers() {
        let mut b = EngineBuilder::new();
        let e0 = b.reserve();
        let e1 = b.reserve();
        let sw0 = b.reserve();
        let sw1 = b.reserve();

        let seg = Segmenter::new(16);
        let mut outbound = Vec::new();
        for id in 0..20 {
            outbound.extend(seg.segment(packet(id, NodeId(1))));
        }
        let n = outbound.len();
        b.install(
            e0,
            Box::new(Endpoint {
                node: NodeId(0),
                switch: sw0,
                switch_port: 0,
                outbound,
                received: Vec::new(),
                sent: false,
                switch_credits: 0,
            }),
        );
        b.install(
            e1,
            Box::new(Endpoint {
                node: NodeId(1),
                switch: sw1,
                switch_port: 1,
                outbound: vec![],
                received: Vec::new(),
                sent: false,
                switch_credits: 0,
            }),
        );
        // Tight buffers: output 4, input 4, credits 4, slow inter link.
        let tight = |peer, peer_node, peer_port, rate| SwitchPortSpec {
            peer,
            peer_node,
            peer_port,
            flits_per_cycle: rate,
            buffer: 4,
            queue: Box::new(FifoQueue::new()),
            wire_latency: 1,
            is_inter: false,
        };
        b.install(
            sw0,
            Box::new(Switch::new(
                NodeId(2),
                "sw0",
                5,
                vec![spec(e0, NodeId(0), 0, 8.0), tight(sw1, NodeId(3), 0, 0.25)],
                BTreeMap::from([(NodeId(0), 0), (NodeId(1), 1), (NodeId(3), 1)]),
            )),
        );
        b.install(
            sw1,
            Box::new(Switch::new(
                NodeId(3),
                "sw1",
                5,
                vec![tight(sw0, NodeId(2), 1, 0.25), spec(e1, NodeId(1), 0, 8.0)],
                BTreeMap::from([(NodeId(0), 0), (NodeId(2), 0), (NodeId(1), 1)]),
            )),
        );
        // Endpoint e0 has 1024 credits toward sw0 but sw0 input cap is
        // 1024 by spec() for its port; the bottleneck is the 0.25
        // flits/cycle inter link with 4-credit windows.
        let mut e = b.build();
        e.run_to_quiescence(5000);
        assert_eq!(received(&e, e1).len(), n);
    }

    /// What one run of [`radix4_backpressure`] leaves behind: every
    /// receiver's flits in arrival order, the end cycle, and per switch
    /// its statistics, port credits, token bits and snapshot bytes.
    type Observed = (
        Vec<Vec<Flit>>,
        Cycle,
        Vec<(String, Vec<u32>, Vec<u128>, Vec<u8>)>,
    );

    /// A radix-4 switch under back-pressure: two senders and a local
    /// receiver share `sw0` with a 0.25 flits/cycle, 4-credit link to a
    /// second switch `sw1`. Returns the engine, `[sw0, sw1]` and the two
    /// receivers.
    fn radix4_engine() -> (Engine, [ComponentId; 2], [ComponentId; 2]) {
        let mut b = EngineBuilder::new();
        let [e0, e1, e2, e3, sw0, sw1] = [(); 6].map(|()| b.reserve());
        let seg = Segmenter::new(16);
        let mut outbound = [Vec::new(), Vec::new()];
        for id in 0..60 {
            let dst = NodeId(if id % 3 == 0 { 2 } else { 3 });
            outbound[(id % 2) as usize].extend(seg.segment(packet(id, dst)));
        }
        let [out0, out1] = outbound;
        for (id, node, switch, switch_port, outbound) in [
            (e0, 0, sw0, 0, out0),
            (e1, 1, sw0, 1, out1),
            (e2, 2, sw0, 2, vec![]),
            (e3, 3, sw1, 1, vec![]),
        ] {
            b.install(
                id,
                Box::new(Endpoint {
                    node: NodeId(node),
                    switch,
                    switch_port,
                    outbound,
                    received: Vec::new(),
                    sent: false,
                    switch_credits: 0,
                }),
            );
        }
        let tight = |peer, peer_node, peer_port| SwitchPortSpec {
            buffer: 4,
            ..spec(peer, peer_node, peer_port, 0.25)
        };
        b.install(
            sw0,
            Box::new(Switch::new(
                NodeId(4),
                "sw0",
                5,
                vec![
                    spec(e0, NodeId(0), 0, 8.0),
                    spec(e1, NodeId(1), 0, 8.0),
                    spec(e2, NodeId(2), 0, 8.0),
                    tight(sw1, NodeId(5), 0),
                ],
                BTreeMap::from([(NodeId(2), 2), (NodeId(3), 3), (NodeId(5), 3)]),
            )),
        );
        b.install(
            sw1,
            Box::new(Switch::new(
                NodeId(5),
                "sw1",
                5,
                vec![tight(sw0, NodeId(4), 3), spec(e3, NodeId(3), 0, 8.0)],
                BTreeMap::from([(NodeId(4), 0), (NodeId(3), 1)]),
            )),
        );
        (b.build(), [sw0, sw1], [e2, e3])
    }

    /// Runs [`radix4_engine`] to quiescence under `mode`. Every egress
    /// port is settled to the end cycle before it is observed.
    fn radix4_backpressure(mode: netcrafter_sim::SchedulerMode) -> Observed {
        let (mut e, [sw0, sw1], receivers) = radix4_engine();
        e.set_scheduler(mode);
        let end = e.run_to_quiescence(20_000);
        let switches = [sw0, sw1]
            .map(|id| {
                e.with_mut(id, |sw: &mut Switch| {
                    for port in &mut sw.ports {
                        port.egress.catch_up(end + 1);
                    }
                    let mut w = netcrafter_sim::snapshot::SnapshotWriter::new();
                    sw.save_state(&mut w);
                    (
                        format!("{:?}", sw.stats),
                        sw.ports.iter().map(|p| p.egress.credits()).collect(),
                        sw.ports.iter().map(|p| p.egress.tokens()).collect(),
                        w.into_bytes(),
                    )
                })
                .expect("switch")
            })
            .to_vec();
        let received = receivers.map(|id| received(&e, id).to_vec()).to_vec();
        (received, end, switches)
    }

    /// Idle egress ports are neither ticked nor visited, under either
    /// scheduler; settled, both leave the same flits, statistics,
    /// credits and token buckets behind.
    #[test]
    fn lazy_ports_agree_across_schedulers() {
        use netcrafter_sim::SchedulerMode;
        let legacy = radix4_backpressure(SchedulerMode::Legacy);
        let event = radix4_backpressure(SchedulerMode::EventDriven);
        assert_eq!(legacy.0.iter().map(Vec::len).collect::<Vec<_>>(), [20, 40]);
        assert!(
            legacy.2[0].0.contains("output_stalls: ")
                && !legacy.2[0].0.contains("output_stalls: 0"),
            "the tight link must back-pressure: {}",
            legacy.2[0].0
        );
        assert_eq!(legacy, event);
    }

    /// Per switch: its statistics and every egress port's `(last_tick,
    /// credits, token level)`.
    type PortState = Vec<(String, Vec<(Cycle, u32, u128)>)>;

    fn port_state(e: &Engine, switches: [ComponentId; 2]) -> PortState {
        let port = |p: &Port| (p.egress.last_tick(), p.egress.credits(), p.egress.tokens());
        let switch = |id| e.get::<Switch>(id).expect("switch");
        switches
            .map(|id| {
                (
                    format!("{:?}", switch(id).stats),
                    switch(id).ports.iter().map(port).collect(),
                )
            })
            .to_vec()
    }

    /// A switch paused while an egress port sleeps saves that port as it
    /// is — its own catch-up anchor and token level, not the switch's
    /// cycle — and a twin restored from the bytes finishes the replay
    /// itself: run on, it delivers what the original delivers.
    #[test]
    fn paused_switch_restores_sleeping_ports_as_they_are() {
        let (mut original, switches, receivers) = radix4_engine();
        let sleeping_while_stalled = |e: &Engine| {
            let sw = e.get::<Switch>(switches[0]).expect("switch");
            let newest = sw.ports.iter().map(|p| p.egress.last_tick()).max();
            sw.stats.output_stalls > 0
                && sw.ports.iter().any(|p| Some(p.egress.last_tick()) < newest)
        };
        while !sleeping_while_stalled(&original) {
            assert!(!original.quiescent(), "the tight link must back-pressure");
            original.step();
        }
        let (mut twin, _, _) = radix4_engine();
        twin.restore(&original.save_snapshot())
            .expect("same build restores");
        assert_eq!(port_state(&twin, switches), port_state(&original, switches));

        let end = original.run_to_quiescence(20_000);
        assert_eq!(twin.run_to_quiescence(20_000), end);
        for id in receivers {
            assert_eq!(received(&twin, id), received(&original, id));
        }
        assert_eq!(port_state(&twin, switches), port_state(&original, switches));
    }

    /// Stitched flit addressed to the switch gets un-stitched and each
    /// chunk routed to its own endpoint.
    #[test]
    fn unstitches_and_fans_out() {
        let mut b = EngineBuilder::new();
        let e0 = b.reserve();
        let e1 = b.reserve();
        let e2 = b.reserve();
        let sw = b.reserve();

        let seg = Segmenter::new(16);
        let mut parent = seg.segment(packet(1, NodeId(1))).remove(0);
        let mut p2 = packet(2, NodeId(2));
        p2.kind = PacketKind::WriteRsp; // 4 bytes, fits in the 4 empty bytes
        let cand = seg.segment(p2).remove(0);
        parent.stitch(cand);
        parent.dst = NodeId(3); // addressed to the switch
        b.install(
            e0,
            Box::new(Endpoint {
                node: NodeId(0),
                switch: sw,
                switch_port: 0,
                outbound: vec![parent],
                received: Vec::new(),
                sent: false,
                switch_credits: 0,
            }),
        );
        for (id, node, port) in [(e1, NodeId(1), 1), (e2, NodeId(2), 2)] {
            b.install(
                id,
                Box::new(Endpoint {
                    node,
                    switch: sw,
                    switch_port: port,
                    outbound: vec![],
                    received: Vec::new(),
                    sent: false,
                    switch_credits: 0,
                }),
            );
        }
        let mut sw_comp = Switch::new(
            NodeId(3),
            "sw",
            10,
            vec![
                spec(e0, NodeId(0), 0, 8.0),
                spec(e1, NodeId(1), 0, 8.0),
                spec(e2, NodeId(2), 0, 8.0),
            ],
            BTreeMap::from([(NodeId(0), 0), (NodeId(1), 1), (NodeId(2), 2)]),
        );
        sw_comp.stats = SwitchStats::default();
        b.install(sw, Box::new(sw_comp));
        let mut e = b.build();
        e.run_to_quiescence(200);
        for (id, packet) in [(e1, PacketId(1)), (e2, PacketId(2))] {
            let got = received(&e, id);
            assert_eq!(got.len(), 1, "chunk for {packet:?} delivered");
            assert!(!got[0].is_stitched());
            assert_eq!(got[0].chunks[0].packet, packet);
        }
    }
}
