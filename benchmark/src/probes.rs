//! Probes: fixed, seeded operation sequences driven straight into one
//! public type of each crate, timed from here. They do not depend on the
//! workload or on `--seed`, so every traced run reports them and a layer
//! optimisation shows in its probe whatever workload is running. The
//! shapes follow `crates/bench/benches/{engine_scheduler,components}.rs`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use netcrafter::core::{ClusterQueue, SplitMix64, TrimEngine};
use netcrafter::gpu::{Coalescer, LaneAccess, WAVEFRONT_LANES};
use netcrafter::mem::{Mshr, MshrOutcome, TagStore};
use netcrafter::multigpu::{Experiment, RunResult, System, SystemVariant, TraceOptions};
use netcrafter::net::synthetic::run_load_point;
use netcrafter::net::{EgressQueue, Reassembler, Segmenter};
use netcrafter::proto::{
    AccessId, AccessKind, GpuId, LineAddr, LineMask, MemReq, Message, NetCrafterConfig, NodeId,
    Origin, Packet, PacketId, PacketKind, PacketPayload, SystemConfig, TrafficClass,
};
use netcrafter::sim::{Arena, Component, ComponentId, Ctx, Cycle, Engine, EngineBuilder, Wake};
use netcrafter::vm::{PageTable, Tlb};
use netcrafter::workloads::{Scale, Workload};

use crate::span::Recorder;
use crate::stats::median;
use crate::workloads::net_config;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The seed of every probe's operation sequence.
const PROBE_SEED: u64 = 0x5EED_0F2E_C02D;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs `batch` — which does `ops` operations and returns the seconds they
/// took — at least three times and until `budget_s` has gone; the median
/// nanoseconds per operation.
fn ns_per_op(budget_s: f64, mut batch: impl FnMut() -> (f64, f64)) -> f64 {
    let t_all = Instant::now();
    let mut per_op = Vec::new();
    while per_op.len() < 3 || t_all.elapsed().as_secs_f64() < budget_s {
        let (ops, secs) = batch();
        per_op.push(secs * 1e9 / ops);
    }
    median(&per_op)
}

fn token() -> Message {
    Message::Credit {
        from: NodeId(0),
        count: 1,
        link: 0,
    }
}

/// Real work every cycle: the scheduler can skip nothing.
struct Churn(u64);

impl Component for Churn {
    fn tick(&mut self, _ctx: &mut Ctx<'_>) {
        self.0 = (self.0 ^ 0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .rotate_left(31);
    }
    fn busy(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "churn"
    }
}

/// Sleeps until a message arrives, then passes it on after `delay`.
struct Relay {
    next: ComponentId,
    delay: u64,
}

impl Component for Relay {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(msg) = ctx.recv() {
            ctx.send(self.next, msg, self.delay);
        }
    }
    fn busy(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        "relay"
    }
    fn next_wake(&self, _now: Cycle) -> Wake {
        Wake::OnMessage
    }
}

/// A ring of `n` relays with `tokens` messages circulating.
fn relay_ring(n: usize, delay: u64, tokens: usize) -> Engine {
    let mut b = EngineBuilder::new();
    let ids: Vec<ComponentId> = (0..n).map(|_| b.reserve()).collect();
    for (i, &id) in ids.iter().enumerate() {
        b.install(
            id,
            Box::new(Relay {
                next: ids[(i + 1) % n],
                delay,
            }),
        );
    }
    let mut e = b.build();
    for t in 0..tokens {
        e.inject(ids[t * n / tokens], token(), 1);
    }
    e
}

fn engine(out: &mut Values, budget: f64) {
    // Dense: 64 always-busy components, every one ticked every cycle.
    let dense = ns_per_op(budget, || {
        let mut b = EngineBuilder::new();
        for i in 0..64 {
            b.add(Box::new(Churn(i)));
        }
        let mut e = b.build();
        let (_, secs) = timed(|| e.run_while(20_000, |_| true));
        black_box(e.cycle());
        (64.0 * 20_000.0, secs)
    });
    out.insert("sim.engine.dense_ns_per_tick", dense);

    // Sparse: 32 tokens in a ring of 256; every delivery wakes exactly one
    // sleeping component, so this is the wake heap and the mailbox path.
    let sparse = ns_per_op(budget, || {
        let mut e = relay_ring(256, 16, 32);
        let (_, secs) = timed(|| e.run_while(100_000, |_| true));
        (e.messages_delivered() as f64, secs)
    });
    out.insert("sim.engine.sparse_ns_per_wake", sparse);

    // Idle: one token, 64 cycles between deliveries; almost every cycle
    // is skipped by fast-forward.
    let idle_ns_per_cycle = ns_per_op(budget, || {
        let mut e = relay_ring(256, 64, 1);
        let (_, secs) = timed(|| e.run_while(2_000_000, |_| true));
        (e.cycle() as f64, secs)
    });
    out.insert(
        "sim.engine.idle_skip_mcycles_per_s",
        1e3 / idle_ns_per_cycle,
    );
}

fn arena(out: &mut Values, budget: f64) {
    // 1024 messages in flight; each step retires the oldest and sends one.
    let mut arena: Arena<Message> = Arena::new();
    let mut live: Vec<_> = (0..1024).map(|_| arena.alloc(token())).collect();
    let mut at = 0;
    let ns = ns_per_op(budget, || {
        let (_, secs) = timed(|| {
            for _ in 0..1_000_000 {
                black_box(arena.take(live[at]));
                live[at] = arena.alloc(token());
                at = (at + 1) % live.len();
            }
        });
        (1_000_000.0, secs)
    });
    out.insert("sim.arena.ns_per_msg", ns);
}

/// GUPS under full NetCrafter, the state prefix-sharing sweeps fork.
fn gups(smoke: bool) -> Experiment {
    if smoke {
        Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
    } else {
        Experiment::new(Workload::Gups, SystemVariant::NetCrafter).with_scale(Scale::paper())
    }
}

fn snapshot(out: &mut Values, budget: f64, smoke: bool) {
    let exp = gups(smoke);
    let cfg = exp.variant.apply(exp.base_cfg);
    let kernel = exp
        .workload
        .generate(&exp.scale, cfg.total_gpus(), exp.seed);
    let mut sys = System::build(cfg, &kernel);
    sys.run_until(if smoke { 1_000 } else { 20_000 });
    let bytes = sys.save_snapshot();
    out.insert("sim.snapshot.bytes", bytes.len() as f64);
    let ms = |ns: f64| ns / 1e6;
    let save = ns_per_op(budget, || {
        let (b, secs) = timed(|| sys.save_snapshot());
        black_box(b);
        (1.0, secs)
    });
    out.insert("sim.snapshot.save_ms", ms(save));
    let fork = ns_per_op(budget, || {
        let (f, secs) = timed(|| sys.fork_snapshot());
        black_box(f);
        (1.0, secs)
    });
    out.insert("sim.snapshot.fork_ms", ms(fork));
    let hash = ns_per_op(budget, || {
        let (h, secs) = timed(|| sys.state_hash());
        black_box(h);
        (1.0, secs)
    });
    out.insert("sim.snapshot.hash_ms", ms(hash));
    // Restore goes onto a freshly built node, as a forked sweep job does;
    // the build is outside the timed part.
    let restore = ns_per_op(budget, || {
        let mut fresh = System::build(cfg, &kernel);
        let (r, secs) = timed(|| fresh.restore(&bytes));
        r.expect("a snapshot restores onto the configuration that made it");
        (1.0, secs)
    });
    out.insert("sim.snapshot.restore_ms", ms(restore));
}

/// `Experiment::run_traced(trace_all)` against `run`, alternating, and a
/// kv round trip of the result while it is at hand.
fn tracer_and_kv(out: &mut Values, budget: f64, smoke: bool) {
    let exp = gups(smoke);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut result: Option<RunResult> = None;
    for _ in 0..if smoke { 1 } else { 3 } {
        let (r, secs) = timed(|| exp.run());
        plain.push(secs);
        result = Some(r);
        let (t, secs) = timed(|| exp.run_traced(&TraceOptions::trace_all()));
        black_box(t);
        traced.push(secs);
    }
    out.insert(
        "sim.trace.overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
    );
    let result = result.expect("at least one run");
    let ns = ns_per_op(budget, || {
        let (back, secs) = timed(|| RunResult::from_kv(&result.to_kv()));
        assert!(back.is_some(), "a result's text form parses back");
        (1.0, secs)
    });
    out.insert("proto.metrics.kv_roundtrip_us", ns / 1e3);
}

fn packet(id: u64, kind: PacketKind) -> Packet {
    Packet {
        id: PacketId(id),
        kind,
        src: NodeId(0),
        dst: NodeId(3),
        payload_bytes: match kind {
            PacketKind::WriteReq | PacketKind::ReadRsp => 64,
            _ => 0,
        },
        trim: None,
        inner: PacketPayload::Req(mem_req(id, LineMask::span(0, 8))),
    }
}

fn mem_req(id: u64, mask: LineMask) -> MemReq {
    MemReq {
        access: AccessId(id),
        line: LineAddr(id * 64),
        write: false,
        mask,
        sectors: 0b1111,
        class: TrafficClass::Data,
        requester: GpuId(0),
        owner: GpuId(2),
        origin: Origin::Cu(0),
    }
}

fn net(out: &mut Values, budget: f64, smoke: bool) {
    // A 64 B read response: five 16 B flits out, one packet back.
    let seg = Segmenter::new(16);
    let ns = ns_per_op(budget, || {
        let mut rx = Reassembler::new();
        let (_, secs) = timed(|| {
            for id in 0..10_000 {
                for flit in seg.segment(packet(id, PacketKind::ReadRsp)) {
                    black_box(rx.accept(flit));
                }
            }
        });
        assert_eq!(rx.completed(), 10_000);
        (10_000.0, secs)
    });
    out.insert("net.seg.ns_per_packet", ns);

    // The synthetic fabric of `net_saturation` at its two extremes, at
    // fixed rates and a fixed size.
    let light = net_config(smoke, 15_000);
    let (_, secs) = timed(|| run_load_point(&light, 0.05));
    out.insert(
        "net.synth.light_mflits_per_host_s",
        (light.flits_per_source * 8) as f64 / secs / 1e6,
    );
    let sat = net_config(smoke, 150_000);
    let (point, secs) = timed(|| run_load_point(&sat, 1.0));
    out.insert(
        "net.synth.sat_mflits_per_host_s",
        (sat.flits_per_source * 8) as f64 / secs / 1e6,
    );
    out.insert("net.synth.sat_throughput_fpc", point.throughput);
    out.insert("net.synth.sat_avg_latency_cyc", point.avg_latency);
}

fn core(out: &mut Values, budget: f64) {
    // 64 packets of the four stitchable kinds through a ClusterQueue with
    // every mechanism on: the CAM search runs on each push.
    let seg = Segmenter::new(16);
    let flits: Vec<_> = (0..64u64)
        .flat_map(|i| {
            let kind = match i % 4 {
                0 => PacketKind::ReadRsp,
                1 => PacketKind::ReadReq,
                2 => PacketKind::WriteRsp,
                _ => PacketKind::PageTableRsp,
            };
            seg.segment(packet(i, kind))
        })
        .collect();
    let ns = ns_per_op(budget, || {
        let mut secs = 0.0;
        for _ in 0..200 {
            let mut q = ClusterQueue::new(NetCrafterConfig::full(), NodeId(9));
            let batch = flits.clone();
            secs += timed(|| {
                let mut now = 0;
                for f in batch {
                    q.push(f, now);
                    now += 1;
                }
                while q.len() > 0 {
                    now += 1;
                    black_box(q.pop(now));
                }
            })
            .1;
        }
        (200.0 * flits.len() as f64, secs)
    });
    out.insert("core.cq.ns_per_flit", ns);

    // One trimming decision per inter-cluster read: the request-side
    // sector test and the response-side bookkeeping.
    let mut rng = SplitMix64::new(PROBE_SEED);
    let reqs: Vec<MemReq> = (0..4096)
        .map(|i| {
            let start = rng.below(56);
            mem_req(i, LineMask::span(start, 1 + rng.below(32)))
        })
        .collect();
    let mut trim = TrimEngine::new(true, 16);
    let ns = ns_per_op(budget, || {
        let (_, secs) = timed(|| {
            for _ in 0..50 {
                for req in &reqs {
                    let bits = trim.request_bits(black_box(req), true);
                    trim.record_response(if bits.is_some() { 16 } else { 64 }, true);
                }
            }
        });
        (50.0 * reqs.len() as f64, secs)
    });
    black_box(trim.stats.trimmed);
    out.insert("core.trim.ns_per_decision", ns);
}

fn mem(out: &mut Values, budget: f64) {
    let mut rng = SplitMix64::new(PROBE_SEED);
    let keys: Vec<u64> = (0..65_536).map(|_| rng.below(4096)).collect();
    // A 1024-entry 4-way store probed over four times its reach.
    let mut store: TagStore<u16> = TagStore::with_entries(1024, 4);
    let mut now = 0;
    let ns = ns_per_op(budget, || {
        let (_, secs) = timed(|| {
            for &key in &keys {
                now += 1;
                if store.lookup(key, now).is_none() {
                    store.insert(key, 0xf, now);
                }
            }
        });
        (keys.len() as f64, secs)
    });
    out.insert("mem.tagstore.ns_per_access", ns);

    let mut mshr: Mshr<u64> = Mshr::new(32);
    let ns = ns_per_op(budget, || {
        let (_, secs) = timed(|| {
            for (i, &key) in keys.iter().enumerate() {
                let key = key % 16;
                if mshr.register(key, 0b1111, i as u64) == MshrOutcome::Allocated {
                    black_box(mshr.complete(key));
                }
            }
        });
        (keys.len() as f64, secs)
    });
    out.insert("mem.mshr.ns_per_op", ns);
}

fn vm(out: &mut Values, budget: f64) {
    let mut rng = SplitMix64::new(PROBE_SEED);
    let vpns: Vec<u64> = (0..65_536).map(|_| rng.below(4096)).collect();
    let mut pt = PageTable::new(1 << 24);
    for vpn in 0..4096 {
        pt.map(vpn, vpn + 100, GpuId((vpn % 4) as u16));
    }
    let ns = ns_per_op(budget, || {
        let (_, secs) = timed(|| {
            for &vpn in &vpns {
                black_box(pt.walk_reads(vpn, 1));
            }
        });
        (vpns.len() as f64, secs)
    });
    out.insert("vm.pagetable.ns_per_walk", ns);

    // The per-GPU L2 TLB (512 entries), full, looked up over twice its
    // reach: half the lookups hit, half miss, none inserts — what the
    // GMMU's retried lookups do.
    let mut tlb = Tlb::new(&SystemConfig::paper_baseline().l2_tlb);
    for vpn in 0..512 {
        tlb.insert(vpn, vpn + 100, vpn);
    }
    let mut now = 512;
    let ns = ns_per_op(budget, || {
        let (_, secs) = timed(|| {
            for &vpn in &vpns {
                now += 1;
                black_box(tlb.lookup(vpn % 1024, now));
            }
        });
        (vpns.len() as f64, secs)
    });
    out.insert("vm.tlb.ns_per_lookup", ns);
}

fn gpu(out: &mut Values, budget: f64) {
    // 256 gather wavefronts: 64 lanes of 4 B elements over 64 lines, so a
    // wave coalesces to a few dozen partial-line requests.
    let mut rng = SplitMix64::new(PROBE_SEED);
    let waves: Vec<Vec<LaneAccess>> = (0..256)
        .map(|_| {
            (0..WAVEFRONT_LANES)
                .map(|_| LaneAccess::new(0x4000_0000 + rng.below(64 * 16) * 4, 4))
                .collect()
        })
        .collect();
    let mut coalescer = Coalescer::new();
    let ns = ns_per_op(budget, || {
        let (_, secs) = timed(|| {
            for lanes in &waves {
                black_box(coalescer.coalesce(lanes, AccessKind::Read));
            }
        });
        (waves.len() as f64, secs)
    });
    out.insert("gpu.coalescer.ns_per_wave", ns);
}

/// Runs every probe, one `probe.<crate>.<name>` span each.
pub fn run_all(rec: &mut Recorder, smoke: bool) -> Values {
    let budget = if smoke { 0.02 } else { 0.5 };
    let mut out = Values::new();
    rec.scope("probe.sim.engine", 0, |_| engine(&mut out, budget));
    rec.scope("probe.sim.arena", 0, |_| arena(&mut out, budget));
    rec.scope("probe.sim.snapshot", 0, |_| {
        snapshot(&mut out, budget / 2.0, smoke)
    });
    rec.scope("probe.sim.trace+proto.kv", 0, |_| {
        tracer_and_kv(&mut out, budget, smoke)
    });
    rec.scope("probe.net", 0, |_| net(&mut out, budget, smoke));
    rec.scope("probe.core", 0, |_| core(&mut out, budget));
    rec.scope("probe.mem", 0, |_| mem(&mut out, budget));
    rec.scope("probe.vm", 0, |_| vm(&mut out, budget));
    rec.scope("probe.gpu.coalescer", 0, |_| gpu(&mut out, budget));
    out
}
