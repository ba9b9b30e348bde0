//! The HBM/GDDR model: 1 TB/s sustained bandwidth, 100 ns access latency
//! (Table 2). One DRAM component backs each GPU's L2 partition; it also
//! stores the page-table pages the GMMU walks.

use std::collections::VecDeque;

use netcrafter_proto::config::DramConfig;
use netcrafter_proto::{GpuId, MemReq, MemRsp, Message, Metrics, LINE_BYTES};
use netcrafter_sim::{
    snap_fields, BurstOutcome, Component, ComponentId, Ctx, Cycle, RateLimiter, Wake,
};

/// DRAM statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramStats {
    /// Line reads served.
    pub reads: u64,
    /// Line writes absorbed (write-backs).
    pub writes: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Cycles a request waited for bandwidth.
    pub queue_wait_cycles: u64,
}

snap_fields! { impl Snap for DramStats { reads, writes, bytes, queue_wait_cycles } }

impl DramStats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.reads"), self.reads);
        metrics.add(&format!("{prefix}.writes"), self.writes);
        metrics.add(&format!("{prefix}.bytes"), self.bytes);
        metrics.add(
            &format!("{prefix}.queue_wait_cycles"),
            self.queue_wait_cycles,
        );
    }
}

/// One GPU's DRAM stack.
pub struct Dram {
    name: String,
    l2: ComponentId,
    queue: VecDeque<(u64, MemReq)>, // (arrival cycle, request)
    rate: RateLimiter,
    latency: u32,
    /// Cycle of the last executed tick; idle cycles skipped by the
    /// event-driven scheduler are settled as pure token accrual.
    last_tick: Cycle,
    /// Statistics.
    pub stats: DramStats,
}

impl Dram {
    /// Builds the DRAM of `gpu`, replying to its L2.
    pub fn new(gpu: GpuId, cfg: &DramConfig, l2: ComponentId) -> Self {
        Self {
            name: format!("{gpu}.dram"),
            l2,
            queue: VecDeque::new(),
            // A burst of four cycles' bandwidth.
            rate: RateLimiter::new(
                f64::from(cfg.bytes_per_cycle),
                3 * u64::from(cfg.bytes_per_cycle),
            ),
            latency: cfg.latency_cycles,
            last_tick: 0,
            stats: DramStats::default(),
        }
    }
}

impl Component for Dram {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.cycle();
        // Skipped cycles had an empty queue (the wake contract), so each
        // one would only have accrued tokens.
        self.rate
            .accrue_idle((now - self.last_tick).saturating_sub(1));
        self.last_tick = now;
        while let Some(msg) = ctx.recv() {
            match msg {
                Message::MemReq(req) => self.queue.push_back((now, req)),
                other => panic!("{}: unexpected {}", self.name, other.label()),
            }
        }
        self.rate.accrue();
        while let Some((arrived, _)) = self.queue.front() {
            if !self.rate.try_consume(LINE_BYTES) {
                break;
            }
            let (arrived, req) = (*arrived, self.queue.pop_front().expect("front").1);
            self.stats.bytes += LINE_BYTES;
            self.stats.queue_wait_cycles += now - arrived;
            if req.write {
                self.stats.writes += 1;
                // Write-backs are fire-and-forget.
            } else {
                self.stats.reads += 1;
                let rsp = MemRsp::for_req(&req, req.sectors);
                ctx.send(self.l2, Message::MemRsp(rsp), self.latency as u64);
            }
        }
    }

    /// Burst dispatch: one queue-emptiness test answers both the busy bit
    /// and the wake. Serving is bandwidth-throttled cycle by cycle; an
    /// empty queue only changes on a request message.
    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        if self.queue.is_empty() {
            BurstOutcome {
                busy: false,
                wake: Wake::OnMessage,
            }
        } else {
            BurstOutcome {
                busy: true,
                wake: Wake::EveryCycle,
            }
        }
    }

    fn busy(&self) -> bool {
        !self.queue.is_empty()
    }

    fn name(&self) -> &str {
        &self.name
    }

    snap_fields! {
        fn save_state + load_state {
            name: skipped(wiring),
            l2: skipped(wiring),
            latency: skipped(config),
            queue,
            rate,
            last_tick,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::{AccessId, LineAddr, LineMask, Origin, TrafficClass};
    use netcrafter_sim::EngineBuilder;
    use std::sync::Arc;
    use std::sync::Mutex;

    struct Sink {
        got: Arc<Mutex<Vec<(u64, MemRsp)>>>,
    }
    impl Component for Sink {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                if let Message::MemRsp(rsp) = msg {
                    self.got.lock().unwrap().push((ctx.cycle(), rsp));
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    fn req(line: u64, write: bool) -> MemReq {
        MemReq {
            access: AccessId(line),
            line: LineAddr(line * 64),
            write,
            mask: LineMask::FULL,
            sectors: 0b1111,
            class: TrafficClass::Data,
            requester: GpuId(0),
            owner: GpuId(0),
            origin: Origin::L2,
        }
    }

    #[test]
    fn read_latency_is_config_latency() {
        let mut b = EngineBuilder::new();
        let sink = b.reserve();
        let dram = b.reserve();
        let got = Arc::new(Mutex::new(Vec::new()));
        b.install(
            sink,
            Box::new(Sink {
                got: Arc::clone(&got),
            }),
        );
        b.install(
            dram,
            Box::new(Dram::new(
                GpuId(0),
                &DramConfig {
                    bytes_per_cycle: 1000,
                    latency_cycles: 100,
                },
                sink,
            )),
        );
        let mut e = b.build();
        e.inject(dram, Message::MemReq(req(1, false)), 1);
        e.run_to_quiescence(1000);
        let got = got.lock().unwrap();
        assert_eq!(got.len(), 1);
        // Inject arrives at 1, served same cycle, +100 latency => ~101.
        assert!(
            got[0].0 >= 101 && got[0].0 <= 103,
            "arrival at {}",
            got[0].0
        );
    }

    #[test]
    fn writes_are_absorbed_without_response() {
        let mut b = EngineBuilder::new();
        let sink = b.reserve();
        let dram = b.reserve();
        let got = Arc::new(Mutex::new(Vec::new()));
        b.install(
            sink,
            Box::new(Sink {
                got: Arc::clone(&got),
            }),
        );
        b.install(
            dram,
            Box::new(Dram::new(
                GpuId(0),
                &DramConfig {
                    bytes_per_cycle: 1000,
                    latency_cycles: 100,
                },
                sink,
            )),
        );
        let mut e = b.build();
        e.inject(dram, Message::MemReq(req(1, true)), 1);
        e.run_to_quiescence(1000);
        assert!(got.lock().unwrap().is_empty());
    }

    #[test]
    fn bandwidth_throttles_throughput() {
        // 64 B/cycle: exactly one line per cycle.
        let mut b = EngineBuilder::new();
        let sink = b.reserve();
        let dram = b.reserve();
        let got = Arc::new(Mutex::new(Vec::new()));
        b.install(
            sink,
            Box::new(Sink {
                got: Arc::clone(&got),
            }),
        );
        let mut d = Dram::new(
            GpuId(0),
            &DramConfig {
                bytes_per_cycle: 64,
                latency_cycles: 10,
            },
            sink,
        );
        d.rate = RateLimiter::new(32.0, 32); // half a line per cycle
        b.install(dram, Box::new(d));
        let mut e = b.build();
        for i in 0..4 {
            e.inject(dram, Message::MemReq(req(i, false)), 1);
        }
        e.run_to_quiescence(1000);
        let got = got.lock().unwrap();
        assert_eq!(got.len(), 4);
        // At 0.5 lines/cycle, 4 lines take ~8 cycles: arrivals spread out.
        let first = got.first().expect("responses").0;
        let last = got.last().expect("responses").0;
        assert!(last >= first + 6, "throttled: first {first}, last {last}");
    }
}
