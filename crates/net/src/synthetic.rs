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
//! credit arrives, and settles the skipped accrual on its next tick.

use netcrafter_proto::config::{rate_tokens, SWITCH};
use netcrafter_proto::{
    Chunk, Flit, Message, NodeId, PacketId, PacketKind, SystemConfig, TopologyConfig, TrafficClass,
};
use netcrafter_sim::{
    snap_fields, BurstOutcome, Component, ComponentId, Ctx, Cycle, Engine, EngineBuilder,
    RateLimiter, Wake,
};

use crate::port::FifoQueue;
use crate::switch::Switch;
use crate::topology::Topology;

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
    /// Cycle of the last tick; the cycles slept since are settled as
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
        self.rate
            .accrue_idle(now.saturating_sub(self.last_tick + 1));
        self.last_tick = now;
        while let Some(msg) = ctx.recv() {
            if let Message::Credit { count, .. } = msg {
                self.credits += count;
            }
        }
        self.rate.accrue();
        while self.remaining > 0 && self.credits > 0 && self.rate.try_consume(1) {
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
    /// lets a flit go.
    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        let busy = self.remaining > 0;
        if !busy || self.credits == 0 {
            return BurstOutcome {
                busy,
                wake: Wake::OnMessage,
            };
        }
        // The tick's last `try_consume` failed, so the wait is at least
        // one cycle.
        BurstOutcome {
            busy,
            wake: Wake::At(ctx.cycle() + self.rate.cycles_until(1)),
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

/// What one sink received, and the latencies of it.
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
    stats: SinkStats,
}

impl Component for Sink {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(msg) = ctx.recv() {
            match msg {
                Message::Flit { flit, .. } => {
                    let s = &mut self.stats;
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

/// Parameters of a synthetic run: the paper's two-cluster mesh (its
/// link rates in its flits, the [`SWITCH`] switch) with source/sink
/// endpoints in place of GPUs.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Endpoints per cluster.
    pub endpoints_per_cluster: u16,
    /// Flits injected per source.
    pub flits_per_source: u64,
}

impl Default for SyntheticConfig {
    /// The paper's Table 2 node: two endpoints per cluster.
    fn default() -> Self {
        Self {
            endpoints_per_cluster: SystemConfig::paper_baseline().topology.gpus_per_cluster,
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
}

impl Fabric {
    /// Wires the paper's two-cluster mesh with every source injecting at
    /// `offered` flits/cycle. Endpoint `i` stands where GPU `i` would:
    /// its switch sees the sink (which forwards returned credits to the
    /// source) as the port's peer.
    fn build(cfg: &SyntheticConfig, offered: f64) -> Fabric {
        rate_tokens("offered load in flits", offered).unwrap_or_else(|why| panic!("{why}"));
        let paper = SystemConfig::paper_baseline();
        let topo = Topology::new(&TopologyConfig {
            clusters: 2,
            gpus_per_cluster: cfg.endpoints_per_cluster,
            ..paper.topology
        });
        let mut b = EngineBuilder::new();
        // Endpoint i has a Source component ep_ids[2i] and a Sink
        // ep_ids[2i+1]; both share node id i (source sends, sink receives).
        let ep_ids: Vec<ComponentId> = (0..2 * topo.total_gpus()).map(|_| b.reserve()).collect();
        let sink = |i: usize| ep_ids[2 * i + 1];
        let switches: Vec<ComponentId> = (0..topo.num_switches()).map(|_| b.reserve()).collect();

        for gpu in topo.all_gpus() {
            let (i, node) = (gpu.index(), topo.gpu_node(gpu));
            let switch = switches[topo.gpu_cluster(gpu).index()];
            let switch_port = topo.gpu_port_at_switch(gpu);
            b.install(
                ep_ids[2 * i],
                Box::new(Source {
                    node,
                    switch,
                    switch_port,
                    // Burst of rate+1 so fractional accrual is never clipped
                    // before a whole-flit consume opportunity.
                    rate: RateLimiter::new(offered, 1),
                    dsts: topo
                        .all_gpus()
                        .filter(|&d| d != gpu)
                        .map(|d| topo.gpu_node(d))
                        .collect(),
                    remaining: cfg.flits_per_source,
                    credits: SWITCH.buffer_entries,
                    rng_state: 0x9E3779B97F4A7C15 ^ (i as u64 + 1),
                    flit_bytes: paper.flit_bytes,
                    last_tick: 0,
                }),
            );
            b.install(
                sink(i),
                Box::new(Sink {
                    node,
                    switch,
                    switch_port,
                    source: ep_ids[2 * i],
                    stats: SinkStats::default(),
                }),
            );
        }

        let flit = f64::from(paper.flit_bytes);
        for (s, spec) in topo.switch_specs().enumerate() {
            let switch = Switch::from_spec(
                spec,
                topo.switch_name(s),
                &SWITCH,
                paper.topology.intra_bytes_per_cycle() / flit,
                paper.topology.inter_bytes_per_cycle() / flit,
                |link| match topo.node_gpu(link.peer) {
                    Some(gpu) => sink(gpu.index()),
                    None => switches[topo.switch_index(link.peer)],
                },
                |_| Box::new(FifoQueue::new()),
            );
            b.install(switches[s], Box::new(switch));
        }

        Fabric { engine: b.build() }
    }

    /// The load point measured by a run that ended at cycle `end`.
    fn load_point(&self, cfg: &SyntheticConfig, offered: f64, end: Cycle) -> LoadPoint {
        let mut s = SinkStats::default();
        let sinks =
            (0..self.engine.len()).filter_map(|id| self.engine.get::<Sink>(ComponentId(id)));
        for Sink { stats: sink, .. } in sinks {
            s.received += sink.received;
            s.latency_sum += sink.latency_sum;
            s.latency_max = s.latency_max.max(sink.latency_max);
        }
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
        // With n endpoints per cluster, a source picks each of its 2n-1
        // destinations uniformly, so a fraction n/(2n-1) of its flits
        // crosses the 1 flit/cycle inter link leaving its cluster. The n
        // sources sharing that link sustain at most (2n-1)/n^2 flits/cycle
        // each, and all 2n together deliver at most 2(2n-1)/n: 3.0 for the
        // default n = 2, 3.5 for the benchmark's n = 4.
        let light = run_load_point(&small(), 0.05);
        for n in [2, 4] {
            // A longer run lets the queue build to steady state.
            let cfg = SyntheticConfig {
                endpoints_per_cluster: n,
                ..SyntheticConfig::default()
            };
            let heavy = run_load_point(&cfg, 1.0);
            assert!(
                heavy.avg_latency > 3.0 * light.avg_latency,
                "saturation queues: {} vs {}",
                heavy.avg_latency,
                light.avg_latency
            );
            let n = f64::from(n);
            let total_offered = 1.0 * 2.0 * n;
            assert!(
                heavy.throughput < total_offered * 0.9,
                "inter link caps throughput: {}",
                heavy.throughput
            );
            let cap = 2.0 * (2.0 * n - 1.0) / n;
            assert!(
                heavy.throughput <= cap * 1.01,
                "throughput {} above the inter-link bound {cap}",
                heavy.throughput
            );
        }
    }

    #[test]
    fn throughput_scales_until_the_knee() {
        let pts = load_latency_sweep(&small(), &[0.05, 0.1, 0.2]);
        assert!(pts[1].throughput > pts[0].throughput * 1.5);
        assert!(pts[2].throughput > pts[1].throughput * 1.2);
        // Latency is monotone non-decreasing with load.
        assert!(pts[2].avg_latency >= pts[0].avg_latency);
    }

    /// Exact load points of the paper fabric: the benchmark's 8-endpoint
    /// shape from light load to saturation, and the default 4-endpoint
    /// one. `(throughput bits, average latency bits, max latency)`.
    #[test]
    fn load_points_are_pinned() {
        let pin = |p: LoadPoint| {
            (
                p.throughput.to_bits(),
                p.avg_latency.to_bits(),
                p.max_latency,
            )
        };
        let eight = SyntheticConfig {
            endpoints_per_cluster: 4,
            flits_per_source: 2000,
        };
        let expected = [
            (0.05, (0x3fd9_8ecd_eb5f_f4f6, 0x4049_2d7c_ed91_6873, 66)),
            (0.2, (0x3ff9_6ea1_3d64_a913, 0x4049_2d7c_ed91_6873, 66)),
            (0.5, (0x400b_2442_e084_0458, 0x406c_036d_9168_72b0, 716)),
            (1.0, (0x400b_25bc_21a9_abd8, 0x408e_2020_8312_6e98, 3232)),
        ];
        for (offered, want) in expected {
            assert_eq!(pin(run_load_point(&eight, offered)), want, "at {offered}");
        }
        assert_eq!(
            pin(run_load_point(&SyntheticConfig::default(), 0.3)),
            (0x3ff3_037f_9ea6_6859, 0x404a_65c2_8f5c_28f6, 64)
        );
    }

    #[test]
    #[should_panic(expected = "offered load in flits 1e-30 per cycle is refused")]
    fn an_offered_load_no_bucket_holds_is_refused() {
        run_load_point(&small(), 1e-30);
    }

    #[test]
    fn determinism() {
        let a = run_load_point(&small(), 0.3);
        let b = run_load_point(&small(), 0.3);
        assert_eq!(a, b);
    }
}
