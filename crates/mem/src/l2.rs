//! The shared, banked L2 cache: 4 MB per GPU, 16 banks, 16-way,
//! 100-cycle lookup, write-back with write-allocate, 64-entry MSHR
//! (Table 2). Every GPU's L2 partition serves the whole node: local CUs
//! reach it directly, remote GPUs reach it through RDMA engines (§2.1).
//! Remote data is *not* cached here on the requesting side — only the
//! owner's partition caches it — matching the paper's no-remote-L2-caching
//! baseline.

use std::collections::VecDeque;

use netcrafter_proto::config::{CacheConfig, ON_CHIP_HOP_CYCLES};
use netcrafter_proto::{GpuId, MemReq, MemRsp, Message, Metrics, Origin, LINE_BYTES};
use netcrafter_sim::{
    snap_fields, BurstOutcome, Component, ComponentId, Ctx, Cycle, DelayQueue, EventClass, Wake,
};

use crate::mshr::{Mshr, MshrOutcome};
use crate::tagstore::TagStore;

/// L2 statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2Stats {
    /// Read lookups processed.
    pub reads: u64,
    /// Write lookups processed.
    pub writes: u64,
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty lines written back to DRAM.
    pub writebacks: u64,
    /// Requests served for remote GPUs.
    pub remote_served: u64,
    /// Page-table (PTW) reads served.
    pub ptw_reads: u64,
    /// Retries due to full MSHRs.
    pub mshr_retries: u64,
}

snap_fields! {
    impl Snap for L2Stats {
        reads, writes, read_hits, read_misses, write_hits, write_misses, writebacks,
        remote_served, ptw_reads, mshr_retries,
    }
}

impl L2Stats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.reads"), self.reads);
        metrics.add(&format!("{prefix}.writes"), self.writes);
        metrics.add(&format!("{prefix}.read_hits"), self.read_hits);
        metrics.add(&format!("{prefix}.read_misses"), self.read_misses);
        metrics.add(&format!("{prefix}.write_hits"), self.write_hits);
        metrics.add(&format!("{prefix}.write_misses"), self.write_misses);
        metrics.add(&format!("{prefix}.writebacks"), self.writebacks);
        metrics.add(&format!("{prefix}.remote_served"), self.remote_served);
        metrics.add(&format!("{prefix}.ptw_reads"), self.ptw_reads);
        metrics.add(&format!("{prefix}.mshr_retries"), self.mshr_retries);
    }
}

#[derive(Debug)]
struct Bank {
    input: VecDeque<MemReq>,
    pipe: DelayQueue<MemReq>,
    tags: TagStore<bool>, // payload: dirty flag
    mshr: Mshr<MemReq>,
}

// The tag array is the L2's bulk state; the generated `load_into`
// restores it (and everything else) in place.
snap_fields! { impl Snap for Bank { input, pipe, tags, mshr } }

/// Reply-routing table: where responses to each origin go.
#[derive(Debug, Clone)]
pub struct L2Wiring {
    /// Component of each local CU, indexed by GPU-local CU id.
    pub cus: Vec<ComponentId>,
    /// Component of the local GMMU.
    pub gmmu: ComponentId,
    /// Component of the local RDMA engine.
    pub rdma: ComponentId,
    /// Component of the local DRAM.
    pub dram: ComponentId,
}

/// The banked shared L2 component of one GPU.
pub struct L2Cache {
    gpu: GpuId,
    name: String,
    banks: Vec<Bank>,
    wiring: L2Wiring,
    lookup_cycles: u32,
    full_sector_mask: u16,
    /// Statistics.
    pub stats: L2Stats,
}

impl L2Cache {
    /// Builds the L2 of `gpu` from its configuration, split over `banks`
    /// banks, and its reply wiring.
    pub fn new(
        gpu: GpuId,
        cfg: &CacheConfig,
        banks: u32,
        full_sector_mask: u16,
        wiring: L2Wiring,
    ) -> Self {
        let banks = banks.max(1) as usize;
        let lines_per_bank = (cfg.size_bytes / LINE_BYTES) as usize / banks;
        let mshr_per_bank = (cfg.mshr_entries as usize / banks).max(1);
        Self {
            gpu,
            name: format!("{gpu}.l2"),
            banks: (0..banks)
                .map(|_| Bank {
                    input: VecDeque::new(),
                    pipe: DelayQueue::new(),
                    tags: TagStore::with_entries(lines_per_bank, cfg.ways as usize),
                    mshr: Mshr::new(mshr_per_bank),
                })
                .collect(),
            wiring,
            lookup_cycles: cfg.lookup_cycles,
            full_sector_mask,
            stats: L2Stats::default(),
        }
    }

    #[inline]
    fn bank_of(&self, line_key: u64) -> usize {
        (line_key % self.banks.len() as u64) as usize
    }

    fn reply_target(&self, req: &MemReq) -> ComponentId {
        if req.requester != self.gpu {
            return self.wiring.rdma;
        }
        match req.origin {
            Origin::Cu(i) => self.wiring.cus[i as usize],
            Origin::Gmmu => self.wiring.gmmu,
            Origin::Rdma => self.wiring.rdma,
            Origin::L2 => unreachable!("L2 never replies to itself"),
        }
    }

    fn respond(&mut self, ctx: &mut Ctx<'_>, req: &MemReq) {
        if req.requester != self.gpu {
            self.stats.remote_served += 1;
        }
        let target = self.reply_target(req);
        let rsp = MemRsp::for_req(req, req.sectors);
        ctx.send(target, Message::MemRsp(rsp), ON_CHIP_HOP_CYCLES);
    }

    fn send_dram_fill(&mut self, ctx: &mut Ctx<'_>, req: &MemReq) {
        let fill = MemReq {
            write: false,
            sectors: self.full_sector_mask,
            origin: Origin::L2,
            ..*req
        };
        ctx.send(self.wiring.dram, Message::MemReq(fill), ON_CHIP_HOP_CYCLES);
    }

    fn send_dram_writeback(&mut self, ctx: &mut Ctx<'_>, line_key: u64) {
        self.stats.writebacks += 1;
        let wb = MemReq {
            access: netcrafter_proto::AccessId(u64::MAX), // fire-and-forget
            line: netcrafter_proto::LineAddr(line_key * LINE_BYTES),
            write: true,
            mask: netcrafter_proto::LineMask::FULL,
            sectors: self.full_sector_mask,
            class: netcrafter_proto::TrafficClass::Data,
            requester: self.gpu,
            owner: self.gpu,
            origin: Origin::L2,
        };
        ctx.send(self.wiring.dram, Message::MemReq(wb), ON_CHIP_HOP_CYCLES);
    }

    /// Installs `line_key` (evicting if needed) and returns whether a
    /// dirty victim needs writing back.
    fn install(bank: &mut Bank, line_key: u64, dirty: bool, now: Cycle) -> Option<u64> {
        if let Some(d) = bank.tags.lookup(line_key, now) {
            *d |= dirty;
            return None;
        }
        match bank.tags.insert(line_key, dirty, now) {
            Some((victim_key, true)) => Some(victim_key),
            _ => None,
        }
    }

    fn process(&mut self, ctx: &mut Ctx<'_>, req: MemReq, now: Cycle) {
        debug_assert_eq!(
            req.owner, self.gpu,
            "{}: request for foreign line",
            self.name
        );
        let line_key = req.line.0 / LINE_BYTES;
        let bank_ix = self.bank_of(line_key);
        if req.write {
            self.stats.writes += 1;
            let bank = &mut self.banks[bank_ix];
            let hit = bank.tags.lookup(line_key, now).is_some();
            let full_line = req.mask == netcrafter_proto::LineMask::FULL;
            if hit {
                self.stats.write_hits += 1;
                *self.banks[bank_ix].tags.lookup(line_key, now).expect("hit") = true;
                self.respond(ctx, &req);
            } else if full_line {
                // Full-line write: install without fetching.
                self.stats.write_misses += 1;
                if let Some(victim) = Self::install(&mut self.banks[bank_ix], line_key, true, now) {
                    self.send_dram_writeback(ctx, victim);
                }
                self.respond(ctx, &req);
            } else {
                // Partial write miss: write-allocate (fetch then merge).
                self.stats.write_misses += 1;
                self.register_miss(ctx, bank_ix, line_key, req);
            }
        } else {
            self.stats.reads += 1;
            if req.class == netcrafter_proto::TrafficClass::Ptw {
                self.stats.ptw_reads += 1;
            }
            let hit = self.banks[bank_ix].tags.lookup(line_key, now).is_some();
            if hit {
                self.stats.read_hits += 1;
                self.respond(ctx, &req);
            } else {
                self.stats.read_misses += 1;
                self.register_miss(ctx, bank_ix, line_key, req);
            }
        }
    }

    /// Books a miss on `line_key` in its bank's MSHR: the first miss on
    /// a line opens an `l2.miss` span and fetches it from DRAM, a later
    /// one merges into it, and a full MSHR re-queues the request.
    fn register_miss(&mut self, ctx: &mut Ctx<'_>, bank_ix: usize, line_key: u64, req: MemReq) {
        match self.banks[bank_ix]
            .mshr
            .register(line_key, self.full_sector_mask, req)
        {
            MshrOutcome::Allocated => {
                ctx.tracer().begin(EventClass::Cache, "l2.miss", line_key);
                self.send_dram_fill(ctx, &req);
            }
            MshrOutcome::Merged => {
                ctx.tracer()
                    .instant(EventClass::Mshr, "mshr.merge", line_key, 0);
            }
            MshrOutcome::Stalled => {
                self.stats.mshr_retries += 1;
                ctx.tracer()
                    .instant(EventClass::Mshr, "mshr.stall", line_key, 0);
                self.banks[bank_ix].input.push_back(req);
            }
        }
    }

    fn on_fill(&mut self, ctx: &mut Ctx<'_>, rsp: MemRsp, now: Cycle) {
        let line_key = rsp.line.0 / LINE_BYTES;
        let bank_ix = self.bank_of(line_key);
        if let Some(victim) = Self::install(&mut self.banks[bank_ix], line_key, false, now) {
            self.send_dram_writeback(ctx, victim);
        }
        let waiters = self.banks[bank_ix].mshr.complete(line_key);
        if !waiters.is_empty() {
            ctx.tracer().end(EventClass::Cache, "l2.miss", line_key);
            ctx.tracer().instant(
                EventClass::Mshr,
                "mshr.fill",
                line_key,
                waiters.len() as u64,
            );
        }
        for req in waiters {
            if req.write {
                *self.banks[bank_ix]
                    .tags
                    .lookup(line_key, now)
                    .expect("just installed") = true;
            }
            self.respond(ctx, &req);
        }
    }
}

impl Component for L2Cache {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.cycle();
        while let Some(msg) = ctx.recv() {
            match msg {
                Message::MemReq(req) => {
                    let bank_ix = self.bank_of(req.line.0 / LINE_BYTES);
                    self.banks[bank_ix].input.push_back(req);
                }
                Message::MemRsp(rsp) => {
                    debug_assert!(!rsp.write, "DRAM write-backs are fire-and-forget");
                    self.on_fill(ctx, rsp, now);
                }
                other => panic!("{}: unexpected {}", self.name, other.label()),
            }
        }
        // Each bank admits one request per cycle into its lookup pipeline
        // and retires what the pipeline completes.
        for ix in 0..self.banks.len() {
            if let Some(req) = self.banks[ix].input.pop_front() {
                let ready = now + self.lookup_cycles as Cycle;
                self.banks[ix].pipe.push(ready, req);
            }
            while let Some(req) = self.banks[ix].pipe.pop_ready(now) {
                self.process(ctx, req, now);
            }
        }
    }

    fn busy(&self) -> bool {
        self.banks
            .iter()
            .any(|b| !b.input.is_empty() || !b.pipe.is_empty() || !b.mshr.is_empty())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        // Fused status pass: busy and the earliest wake come from the
        // same per-bank fields, so one traversal answers both. Queued
        // input admits one request per bank per cycle; with only pipeline
        // contents left, nothing happens until the earliest lookup
        // completes; MSHR-only state waits on the DRAM fill message. Once
        // a bank has queued input the outcome is saturated (busy, ticked
        // every cycle) and the remaining banks cannot change it.
        let mut busy = false;
        let mut wake = Wake::OnMessage;
        for bank in &self.banks {
            busy |= !bank.input.is_empty() || !bank.pipe.is_empty() || !bank.mshr.is_empty();
            if !bank.input.is_empty() {
                wake = Wake::EveryCycle;
            } else if let Some(t) = bank.pipe.next_ready() {
                wake = wake.earliest(Wake::At(t));
            }
            if busy && wake == Wake::EveryCycle {
                break;
            }
        }
        BurstOutcome { busy, wake }
    }

    snap_fields! {
        fn save_state + load_state {
            gpu: skipped(wiring),
            name: skipped(wiring),
            wiring: skipped(wiring),
            lookup_cycles: skipped(config),
            full_sector_mask: skipped(config),
            banks: fixed,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::{AccessId, LineAddr, LineMask, TrafficClass};
    use netcrafter_sim::EngineBuilder;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// Captures responses; also acts as the DRAM stand-in that answers
    /// fills after a fixed delay.
    struct Stub {
        responses: Arc<Mutex<Vec<MemRsp>>>,
        fills_seen: Arc<Mutex<Vec<MemReq>>>,
        reply_to: Option<ComponentId>,
        latency: u64,
    }
    impl Component for Stub {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                match msg {
                    Message::MemRsp(rsp) => self.responses.lock().unwrap().push(rsp),
                    Message::MemReq(req) => {
                        self.fills_seen.lock().unwrap().push(req);
                        if !req.write {
                            if let Some(target) = self.reply_to {
                                ctx.send(
                                    target,
                                    Message::MemRsp(MemRsp::for_req(&req, req.sectors)),
                                    self.latency,
                                );
                            }
                        }
                    }
                    other => panic!("stub got {}", other.label()),
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "stub"
        }
    }

    struct Harness {
        engine: netcrafter_sim::Engine,
        l2: ComponentId,
        responses: Arc<Mutex<Vec<MemRsp>>>,
        fills: Arc<Mutex<Vec<MemReq>>>,
    }

    fn harness() -> Harness {
        let mut b = EngineBuilder::new();
        let cu = b.reserve();
        let gmmu = b.reserve();
        let rdma = b.reserve();
        let dram = b.reserve();
        let l2 = b.reserve();
        let responses = Arc::new(Mutex::new(Vec::new()));
        let fills = Arc::new(Mutex::new(Vec::new()));
        for id in [cu, gmmu, rdma] {
            b.install(
                id,
                Box::new(Stub {
                    responses: Arc::clone(&responses),
                    fills_seen: Arc::clone(&fills),
                    reply_to: None,
                    latency: 0,
                }),
            );
        }
        b.install(
            dram,
            Box::new(Stub {
                responses: Arc::clone(&responses),
                fills_seen: Arc::clone(&fills),
                reply_to: Some(l2),
                latency: 100,
            }),
        );
        let cfg = CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            lookup_cycles: 100,
            mshr_entries: 16,
        };
        b.install(
            l2,
            Box::new(L2Cache::new(
                GpuId(0),
                &cfg,
                4,
                0b1111,
                L2Wiring {
                    cus: vec![cu],
                    gmmu,
                    rdma,
                    dram,
                },
            )),
        );
        Harness {
            engine: b.build(),
            l2,
            responses,
            fills,
        }
    }

    fn read(line: u64, requester: u16, origin: Origin) -> MemReq {
        MemReq {
            access: AccessId(line),
            line: LineAddr(line * 64),
            write: false,
            mask: LineMask::span(0, 8),
            sectors: 0b1111,
            class: TrafficClass::Data,
            requester: GpuId(requester),
            owner: GpuId(0),
            origin,
        }
    }

    #[test]
    fn read_miss_fills_from_dram_then_hits() {
        let mut h = harness();
        h.engine
            .inject(h.l2, Message::MemReq(read(1, 0, Origin::Cu(0))), 1);
        h.engine.run_to_quiescence(1000);
        assert_eq!(h.responses.lock().unwrap().len(), 1);
        assert_eq!(h.fills.lock().unwrap().len(), 1, "one DRAM fill");
        let t_miss = h.engine.cycle();
        assert!(t_miss >= 200, "lookup (100) + DRAM (100), got {t_miss}");

        // Second read to the same line: hit, no new fill.
        h.engine
            .inject(h.l2, Message::MemReq(read(1, 0, Origin::Cu(0))), 1);
        h.engine.run_to_quiescence(1000);
        assert_eq!(h.responses.lock().unwrap().len(), 2);
        assert_eq!(h.fills.lock().unwrap().len(), 1, "no second fill");
    }

    #[test]
    fn remote_request_replies_to_rdma() {
        let mut h = harness();
        // requester = gpu2 (remote): reply goes to the rdma stub, which
        // shares the same responses vec — verify via remote_served stat
        // path by checking a response arrived.
        h.engine
            .inject(h.l2, Message::MemReq(read(2, 2, Origin::Cu(5))), 1);
        h.engine.run_to_quiescence(1000);
        assert_eq!(h.responses.lock().unwrap().len(), 1);
        assert_eq!(h.responses.lock().unwrap()[0].requester, GpuId(2));
    }

    #[test]
    fn merged_misses_single_fill() {
        let mut h = harness();
        h.engine
            .inject(h.l2, Message::MemReq(read(3, 0, Origin::Cu(0))), 1);
        h.engine
            .inject(h.l2, Message::MemReq(read(3, 0, Origin::Gmmu)), 2);
        h.engine.run_to_quiescence(1000);
        assert_eq!(h.responses.lock().unwrap().len(), 2, "both waiters woken");
        assert_eq!(h.fills.lock().unwrap().len(), 1, "one fill serves both");
    }

    #[test]
    fn full_line_write_installs_without_fetch() {
        let mut h = harness();
        let mut w = read(4, 0, Origin::Cu(0));
        w.write = true;
        w.mask = LineMask::FULL;
        h.engine.inject(h.l2, Message::MemReq(w), 1);
        h.engine.run_to_quiescence(1000);
        assert_eq!(h.responses.lock().unwrap().len(), 1, "write ack");
        assert!(
            h.fills.lock().unwrap().is_empty(),
            "no fetch for full-line write"
        );
    }

    #[test]
    fn partial_write_miss_allocates() {
        let mut h = harness();
        let mut w = read(5, 0, Origin::Cu(0));
        w.write = true;
        w.mask = LineMask::span(0, 8);
        h.engine.inject(h.l2, Message::MemReq(w), 1);
        h.engine.run_to_quiescence(1000);
        assert_eq!(
            h.responses.lock().unwrap().len(),
            1,
            "write ack after allocate"
        );
        assert_eq!(
            h.fills.lock().unwrap().len(),
            1,
            "fetch before merging write"
        );
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut h = harness();
        // 64 KB / 64 B = 1024 lines over 4 banks = 256 lines/bank, 4 ways
        // -> 64 sets/bank. Write lines that all land in bank 0, set 0:
        // line keys multiple of 4 (bank) * 64 (set) = 256.
        for i in 0..5u64 {
            let mut w = read(i * 256, 0, Origin::Cu(0));
            w.write = true;
            w.mask = LineMask::FULL;
            h.engine.inject(h.l2, Message::MemReq(w), 1 + i);
        }
        h.engine.run_to_quiescence(5000);
        assert_eq!(h.responses.lock().unwrap().len(), 5);
        // 5 dirty lines into a 4-way set: one eviction -> one write-back
        // (a write MemReq arriving at the DRAM stub).
        let wbs = h.fills.lock().unwrap().iter().filter(|r| r.write).count();
        assert_eq!(wbs, 1, "exactly one dirty write-back");
    }

    #[test]
    fn ptw_reads_counted() {
        let mut h = harness();
        let mut r = read(7, 0, Origin::Gmmu);
        r.class = TrafficClass::Ptw;
        h.engine.inject(h.l2, Message::MemReq(r), 1);
        h.engine.run_to_quiescence(1000);
        assert_eq!(h.responses.lock().unwrap().len(), 1);
    }
}
