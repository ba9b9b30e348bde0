//! Synthetic traffic evaluation of the interconnect substrate: uniform
//! random flit injection through the two-cluster switch fabric, producing
//! the classic load-latency curve (latency explodes as offered load
//! approaches the bottleneck link's capacity).
//!
//! This validates the network model independently of the GPU stack: the
//! inter-cluster link must saturate at exactly its configured
//! flits/cycle, back-pressure must keep buffers bounded, and latency
//! under light load must equal the sum of pipeline and wire delays.
//!
//! A source does not tick on cycles where it cannot inject: it sleeps
//! until the first cycle its rate limiter pays for a flit, or until a
//! credit arrives, and replays the skipped accrual on its next tick.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use netcrafter_proto::{
    Chunk, Flit, Message, NodeId, PacketId, PacketKind, SystemConfig, TrafficClass,
};
use netcrafter_sim::{
    snap_fields, BurstOutcome, Component, ComponentId, Ctx, Cycle, Engine, EngineBuilder,
    RateLimiter, Wake,
};

use crate::port::FifoQueue;
use crate::switch::{Switch, SwitchPortSpec};

/// Results of one synthetic-load run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load in flits/cycle per source.
    pub offered: f64,
    /// Delivered throughput in flits/cycle over the whole fabric.
    pub throughput: f64,
    /// Mean end-to-end flit latency in cycles.
    pub avg_latency: f64,
    /// Maximum observed flit latency.
    pub max_latency: u64,
}

/// A flit source injecting uniform random-destination traffic at a fixed
/// rate. The injection timestamp rides in the packet id, so the sink can
/// compute end-to-end latency without side tables.
struct Source {
    node: NodeId,
    switch: ComponentId,
    /// This endpoint's port index at its switch, stamped as `link` on
    /// every flit so the switch can index the ingress port directly.
    switch_port: u16,
    rate: RateLimiter,
    dsts: Vec<NodeId>,
    remaining: u64,
    credits: u32,
    rng_state: u64,
    flit_bytes: u32,
    /// Cycle of the last tick; the cycles slept since are replayed as
    /// pure accrual on the next one.
    last_tick: Cycle,
}

impl Source {
    fn next_dst(&mut self) -> NodeId {
        // xorshift64*: deterministic, dependency-free.
        self.rng_state ^= self.rng_state >> 12;
        self.rng_state ^= self.rng_state << 25;
        self.rng_state ^= self.rng_state >> 27;
        let x = self.rng_state.wrapping_mul(0x2545F4914F6CDD1D);
        #[allow(clippy::cast_possible_truncation)] // the remainder is below dsts.len()
        let i = (x % self.dsts.len() as u64) as usize;
        self.dsts[i]
    }
}

impl Component for Source {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        // Each slept cycle would only have accrued: it lacked a credit, or
        // its `try_consume` failed, which leaves the tokens alone.
        let now = ctx.cycle();
        let mut slept = now.saturating_sub(self.last_tick + 1);
        while slept > 0 && !self.rate.is_saturated() {
            self.rate.accrue();
            slept -= 1;
        }
        self.last_tick = now;
        while let Some(msg) = ctx.recv() {
            if let Message::Credit { count, .. } = msg {
                self.credits += count;
            }
        }
        self.rate.accrue();
        while self.remaining > 0 && self.credits > 0 && self.rate.try_consume(1.0) {
            self.remaining -= 1;
            self.credits -= 1;
            let dst = self.next_dst();
            let flit = Flit::single(
                self.flit_bytes,
                Chunk {
                    packet: PacketId(ctx.cycle()), // inject timestamp
                    kind: PacketKind::ReadReq,
                    bytes: 12,
                    meta_bytes: 0,
                    has_header: true,
                    is_tail: true,
                    seq: 0,
                    dst,
                    class: TrafficClass::Data,
                    packet_info: None,
                },
            );
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
    fn busy(&self) -> bool {
        self.remaining > 0
    }
    fn name(&self) -> &str {
        "traffic-source"
    }

    /// Drained or out of credits, only a message changes anything.
    /// Otherwise the source sleeps until the first cycle whose accrual
    /// lets a flit go, found on a copy of the rate limiter.
    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        let busy = self.remaining > 0;
        if !busy || self.credits == 0 {
            return BurstOutcome {
                busy,
                wake: Wake::OnMessage,
            };
        }
        let mut rate = self.rate.clone();
        let mut at = ctx.cycle();
        loop {
            at += 1;
            rate.accrue();
            if rate.try_consume(1.0) {
                break;
            }
        }
        BurstOutcome {
            busy,
            wake: Wake::At(at),
        }
    }

    snap_fields! {
        fn save_state + load_state {
            node: skipped(wiring),
            switch: skipped(wiring),
            switch_port: skipped(wiring),
            dsts: skipped(config),
            flit_bytes: skipped(config),
            rate,
            remaining,
            credits,
            rng_state,
            last_tick,
        }
    }
}

/// Shared latency accumulator across all sinks.
#[derive(Debug, Default)]
struct SinkStats {
    received: u64,
    latency_sum: u64,
    latency_max: u64,
}

snap_fields! { impl Snap for SinkStats { received, latency_sum, latency_max } }

struct Sink {
    node: NodeId,
    switch: ComponentId,
    /// Port index of this endpoint at its switch (for credit returns).
    switch_port: u16,
    /// The co-located source: the switch addresses all of this node's
    /// traffic (including returned input-buffer credits) to the sink, so
    /// the sink forwards credits to the source that actually needs them.
    source: ComponentId,
    stats: Arc<Mutex<SinkStats>>,
}

impl Component for Sink {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(msg) = ctx.recv() {
            match msg {
                Message::Flit { flit, .. } => {
                    let mut s = self.stats.lock().expect("sink stats lock");
                    for chunk in &flit.chunks {
                        let lat = ctx.cycle() - chunk.packet.raw();
                        s.received += 1;
                        s.latency_sum += lat;
                        s.latency_max = s.latency_max.max(lat);
                    }
                    ctx.send(
                        self.switch,
                        Message::Credit {
                            from: self.node,
                            count: 1,
                            link: self.switch_port,
                        },
                        1,
                    );
                }
                Message::Credit { from, count, .. } => {
                    ctx.send(
                        self.source,
                        Message::Credit {
                            from,
                            count,
                            link: 0,
                        },
                        1,
                    );
                }
                other => panic!("sink got {}", other.label()),
            }
        }
    }
    fn busy(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        "traffic-sink"
    }
    fn next_wake(&self, _now: Cycle) -> Wake {
        Wake::OnMessage
    }

    // The accumulator is shared by every sink; each saves (and each
    // restores) the same totals, so the repetition is idempotent.
    snap_fields! {
        fn save_state + load_state {
            node: skipped(wiring),
            switch: skipped(wiring),
            switch_port: skipped(wiring),
            source: skipped(wiring),
            stats,
        }
    }
}

/// Parameters of the synthetic fabric: the Figure 2 shape with
/// source/sink endpoints instead of GPUs.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Endpoints per cluster.
    pub endpoints_per_cluster: u16,
    /// Intra-cluster link rate in flits/cycle.
    pub intra_fpc: f64,
    /// Inter-cluster link rate in flits/cycle.
    pub inter_fpc: f64,
    /// Switch pipeline depth in cycles.
    pub pipeline_cycles: u32,
    /// Switch buffer capacity in flits.
    pub buffer_entries: u32,
    /// Flits injected per source.
    pub flits_per_source: u64,
}

impl Default for SyntheticConfig {
    /// The paper's Table 2 node: its link rates in its flits, its switch.
    fn default() -> Self {
        let paper = SystemConfig::paper_baseline();
        let flit = f64::from(paper.flit_bytes);
        Self {
            endpoints_per_cluster: paper.topology.gpus_per_cluster,
            intra_fpc: paper.topology.intra_bytes_per_cycle() / flit,
            inter_fpc: paper.topology.inter_bytes_per_cycle() / flit,
            pipeline_cycles: paper.switch.pipeline_cycles,
            buffer_entries: paper.switch.buffer_entries,
            flits_per_source: 2000,
        }
    }
}

/// Runs uniform-random traffic at `offered` flits/cycle/source through a
/// two-cluster fabric and measures delivered throughput and latency.
pub fn run_load_point(cfg: &SyntheticConfig, offered: f64) -> LoadPoint {
    let mut fabric = Fabric::build(cfg, offered);
    let end = fabric.engine.run_to_quiescence(100_000_000);
    fabric.load_point(cfg, offered, end)
}

/// One load point's fabric, built and not yet run.
struct Fabric {
    engine: Engine,
    /// The shared totals of every sink.
    stats: Arc<Mutex<SinkStats>>,
}

impl Fabric {
    /// Wires the two-cluster fabric with every source injecting at
    /// `offered` flits/cycle.
    fn build(cfg: &SyntheticConfig, offered: f64) -> Fabric {
        assert!(offered > 0.0);
        let n = cfg.endpoints_per_cluster;
        let total_eps = (2 * n) as usize;
        let mut b = EngineBuilder::new();
        let ep_ids: Vec<ComponentId> = (0..total_eps * 2).map(|_| b.reserve()).collect();
        // Layout: endpoint i has a Source component ep_ids[2i] and a Sink
        // ep_ids[2i+1]; both share node id i (source sends, sink receives).
        // Nodes total_eps and total_eps+1 are the two cluster switches.
        let sw0 = b.reserve();
        let sw1 = b.reserve();
        let stats = Arc::new(Mutex::new(SinkStats::default()));
        let total_eps_u16 = u16::try_from(total_eps).expect("endpoint count fits in u16 node ids");
        let all_nodes: Vec<NodeId> = (0..total_eps_u16).map(NodeId).collect();

        for i in 0..total_eps {
            let my_switch = if i < n as usize { sw0 } else { sw1 };
            // Each switch's local endpoints occupy ports 0..n in node order.
            let switch_port = u16::try_from(i % n as usize).expect("port fits in u16");
            b.install(
                ep_ids[2 * i],
                Box::new(Source {
                    node: all_nodes[i],
                    switch: my_switch,
                    switch_port,
                    // Burst of rate+1 so fractional accrual is never clipped
                    // before a whole-flit consume opportunity.
                    rate: RateLimiter::new(offered, offered + 1.0),
                    dsts: all_nodes
                        .iter()
                        .copied()
                        .filter(|&d| d != all_nodes[i])
                        .collect(),
                    remaining: cfg.flits_per_source,
                    credits: cfg.buffer_entries,
                    rng_state: 0x9E3779B97F4A7C15 ^ (i as u64 + 1),
                    flit_bytes: 16,
                    last_tick: 0,
                }),
            );
            b.install(
                ep_ids[2 * i + 1],
                Box::new(Sink {
                    node: all_nodes[i],
                    switch: my_switch,
                    switch_port,
                    source: ep_ids[2 * i],
                    stats: Arc::clone(&stats),
                }),
            );
        }

        // Switches: the flit arrives from node i (the source), but the switch
        // must deliver flits *to* node i at the sink component. Use the sink
        // as the port peer; credits from the source arrive tagged with the
        // same node id, which is all the switch keys on.
        let mk_switch =
            |node: NodeId, locals: std::ops::Range<usize>, other: (ComponentId, NodeId)| {
                let mut specs = Vec::new();
                let mut route = BTreeMap::new();
                for i in locals.clone() {
                    route.insert(all_nodes[i], specs.len());
                    specs.push(SwitchPortSpec {
                        peer: ep_ids[2 * i + 1], // deliver to the sink
                        peer_node: all_nodes[i],
                        peer_port: 0,
                        flits_per_cycle: cfg.intra_fpc,
                        initial_credits: cfg.buffer_entries,
                        input_capacity: cfg.buffer_entries as usize,
                        output_capacity: cfg.buffer_entries as usize,
                        queue: Box::new(FifoQueue::new()),
                        wire_latency: crate::topology::WIRE_LATENCY,
                        is_inter: false,
                    });
                }
                let port = specs.len();
                route.insert(other.1, port);
                for (i, &node) in all_nodes.iter().enumerate() {
                    if !locals.contains(&i) {
                        route.insert(node, port);
                    }
                }
                specs.push(SwitchPortSpec {
                    peer: other.0,
                    peer_node: other.1,
                    // Both switches have n local ports, so the inter port sits at
                    // the same index n on each side.
                    peer_port: n,
                    flits_per_cycle: cfg.inter_fpc,
                    initial_credits: cfg.buffer_entries,
                    input_capacity: cfg.buffer_entries as usize,
                    output_capacity: cfg.buffer_entries as usize,
                    queue: Box::new(FifoQueue::new()),
                    wire_latency: crate::topology::WIRE_LATENCY,
                    is_inter: true,
                });
                Switch::new(
                    node,
                    format!("{node}.switch"),
                    cfg.pipeline_cycles,
                    specs,
                    route,
                )
            };
        let sw0_node = NodeId(total_eps_u16);
        let sw1_node = NodeId(total_eps_u16 + 1);
        b.install(
            sw0,
            Box::new(mk_switch(sw0_node, 0..n as usize, (sw1, sw1_node))),
        );
        b.install(
            sw1,
            Box::new(mk_switch(sw1_node, n as usize..total_eps, (sw0, sw0_node))),
        );

        Fabric {
            engine: b.build(),
            stats,
        }
    }

    /// The load point measured by a run that ended at cycle `end`.
    fn load_point(&self, cfg: &SyntheticConfig, offered: f64, end: Cycle) -> LoadPoint {
        let s = self.stats.lock().expect("sink stats lock");
        let total_eps = 2 * u64::from(cfg.endpoints_per_cluster);
        assert_eq!(
            s.received,
            cfg.flits_per_source * total_eps,
            "flit conservation"
        );
        LoadPoint {
            offered,
            throughput: s.received as f64 / end as f64,
            avg_latency: s.latency_sum as f64 / s.received.max(1) as f64,
            max_latency: s.latency_max,
        }
    }
}

/// Sweeps offered load and returns one [`LoadPoint`] per rate.
pub fn load_latency_sweep(cfg: &SyntheticConfig, rates: &[f64]) -> Vec<LoadPoint> {
    rates.iter().map(|&r| run_load_point(cfg, r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_sim::SchedulerMode;

    fn small() -> SyntheticConfig {
        SyntheticConfig {
            flits_per_source: 400,
            ..SyntheticConfig::default()
        }
    }

    /// Runs one load point under `mode`, counting the sources' ticks.
    fn run_counting(cfg: &SyntheticConfig, offered: f64, mode: SchedulerMode) -> (LoadPoint, u64) {
        let mut fabric = Fabric::build(cfg, offered);
        fabric.engine.set_scheduler(mode);
        let mut source_ticks = 0;
        let end = fabric.engine.run_while(100_000_000, |e| {
            let ticked = |id| {
                e.get::<Source>(ComponentId(id))
                    .is_some_and(|s| s.last_tick == e.cycle() && e.cycle() > 0)
            };
            source_ticks += (0..e.len()).filter(|&id| ticked(id)).count() as u64;
            true
        });
        (fabric.load_point(cfg, offered, end), source_ticks)
    }

    /// The benchmark's 8-endpoint fabric at a hundredth of its flits: a
    /// source that ticked every cycle while injecting ticked 16 M times
    /// over a 0.05 load point at full size.
    #[test]
    fn sources_sleep_between_tokens_and_schedulers_agree() {
        let cfg = SyntheticConfig {
            endpoints_per_cluster: 4,
            flits_per_source: 1000,
            ..SyntheticConfig::default()
        };
        for offered in [0.05, 1.0] {
            let (legacy, every_cycle) = run_counting(&cfg, offered, SchedulerMode::Legacy);
            let (event, source_ticks) = run_counting(&cfg, offered, SchedulerMode::EventDriven);
            assert_eq!(legacy, event, "load point at {offered}");
            if offered == 0.05 {
                // 8 sources x ~20 k cycles; one tick per flit sent plus
                // one per credit returned, against 16 M -> 2 M at scale.
                assert!(every_cycle >= 160_000, "{every_cycle}");
                assert!(source_ticks <= 20_000, "{source_ticks} source ticks");
            }
        }
    }

    #[test]
    fn light_load_latency_is_structural() {
        let p = run_load_point(&small(), 0.01);
        // Intra path: wire(1)+pipeline(30)+wire(1) ≈ 32; inter path adds
        // another switch: ≈ 64. Uniform traffic mixes the two.
        assert!(
            p.avg_latency > 30.0,
            "at least one switch: {}",
            p.avg_latency
        );
        assert!(
            p.avg_latency < 120.0,
            "no queueing at light load: {}",
            p.avg_latency
        );
    }

    #[test]
    fn saturation_is_capped_by_inter_link() {
        // 2 endpoints/cluster, uniform random: 2/3 of each source's
        // traffic crosses the inter link (2 of 3 destinations), so the
        // 1 flit/cycle inter links (one each way) cap aggregate delivered
        // throughput near 2 * 1 / (2/3 * 1/2) … simpler: offered far above
        // capacity ⇒ latency explodes and throughput plateaus well below
        // offered.
        let light = run_load_point(&small(), 0.05);
        // A longer run lets the queue build to steady state.
        let heavy = run_load_point(&SyntheticConfig::default(), 1.0);
        assert!(
            heavy.avg_latency > 3.0 * light.avg_latency,
            "saturation queues: {} vs {}",
            heavy.avg_latency,
            light.avg_latency
        );
        let total_offered = 1.0 * 4.0;
        assert!(
            heavy.throughput < total_offered * 0.9,
            "inter link caps throughput: {}",
            heavy.throughput
        );
    }

    #[test]
    fn throughput_scales_until_the_knee() {
        let pts = load_latency_sweep(&small(), &[0.05, 0.1, 0.2]);
        assert!(pts[1].throughput > pts[0].throughput * 1.5);
        assert!(pts[2].throughput > pts[1].throughput * 1.2);
        // Latency is monotone non-decreasing with load.
        assert!(pts[2].avg_latency >= pts[0].avg_latency);
    }

    #[test]
    fn determinism() {
        let a = run_load_point(&small(), 0.3);
        let b = run_load_point(&small(), 0.3);
        assert_eq!(a, b);
    }
}
