//! The shared translation unit of one GPU: L2 TLB, GMMU page-walk cache,
//! and parallel page-table walkers (§2.3, Table 2).
//!
//! This component receives [`TransReq`]s from the GPU's CUs (after their
//! private L1 TLBs missed), and emits [`TransRsp`]s. Page-table reads it
//! issues are ordinary memory requests with
//! [`TrafficClass::Ptw`](netcrafter_proto::TrafficClass): local ones go to
//! the GPU's L2 cache, remote ones to the RDMA engine, where they become
//! the Page Table Req/Rsp packets whose latency the paper's Sequencing
//! mechanism protects.

use std::collections::{BTreeMap, VecDeque};

use netcrafter_proto::config::{GmmuConfig, TlbConfig, ON_CHIP_HOP_CYCLES};
use netcrafter_proto::ids::IdAlloc;
use netcrafter_proto::{
    AccessId, GpuId, LatencyStat, LineMask, MemReq, Message, Metrics, Origin, TrafficClass,
    TransReq, TransRsp,
};
use netcrafter_sim::snapshot::SnapshotError;
use netcrafter_sim::{
    snap_fields, Component, ComponentId, Ctx, Cycle, DelayQueue, EventClass, Wake,
};

use crate::pagetable::PageTable;
use crate::tlb::Tlb;

use std::sync::Arc;

/// Where the translation unit's outputs go.
#[derive(Debug, Clone)]
pub struct TranslationWiring {
    /// Component of each local CU, indexed by GPU-local CU id.
    pub cus: Vec<ComponentId>,
    /// The GPU's L2 cache (local page-table reads).
    pub l2: ComponentId,
    /// The GPU's RDMA engine (remote page-table reads).
    pub rdma: ComponentId,
}

/// Translation-unit statistics.
#[derive(Debug, Clone, Default)]
pub struct GmmuStats {
    /// Translation requests received.
    pub requests: u64,
    /// Page-table walks performed.
    pub walks: u64,
    /// Walks by number of memory reads (index 0 unused; 1–4 used).
    pub walk_reads_hist: [u64; 5],
    /// Page-table reads served by the local L2 path.
    pub local_pt_reads: u64,
    /// Page-table reads that crossed to another GPU.
    pub remote_pt_reads: u64,
    /// End-to-end walk latency (PWC decision to final read).
    pub walk_latency: LatencyStat,
    /// Walks that had to queue for a free walker.
    pub walker_queue_events: u64,
}

snap_fields! {
    impl Snap for GmmuStats {
        requests, walks, walk_reads_hist, local_pt_reads, remote_pt_reads, walk_latency,
        walker_queue_events,
    }
}

impl GmmuStats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.requests"), self.requests);
        metrics.add(&format!("{prefix}.walks"), self.walks);
        for reads in 1..5 {
            metrics.add(
                &format!("{prefix}.walks_{reads}reads"),
                self.walk_reads_hist[reads],
            );
        }
        metrics.add(&format!("{prefix}.local_pt_reads"), self.local_pt_reads);
        metrics.add(&format!("{prefix}.remote_pt_reads"), self.remote_pt_reads);
        metrics.add(
            &format!("{prefix}.walker_queue_events"),
            self.walker_queue_events,
        );
        metrics
            .latency_mut(&format!("{prefix}.walk_latency"))
            .merge(&self.walk_latency);
    }
}

#[derive(Debug)]
struct Walk {
    vpn: u64,
    reads: Vec<(GpuId, netcrafter_proto::LineAddr)>,
    next_read: usize,
    started: Cycle,
}

snap_fields! {
    impl Snap for Walk { vpn, reads, next_read, started }
    validate Self::check_restored
}

impl Walk {
    fn check_restored(&self) -> Result<(), SnapshotError> {
        if self.next_read > self.reads.len() {
            return Err(SnapshotError::Corrupt(format!(
                "walk read cursor {} past {} reads",
                self.next_read,
                self.reads.len()
            )));
        }
        Ok(())
    }
}

/// A walk waiting for a free walker: `(vpn, page-table reads, enqueue cycle)`.
type PendingWalk = (u64, Vec<(GpuId, netcrafter_proto::LineAddr)>, Cycle);

/// The per-GPU shared L2 TLB + GMMU component.
pub struct TranslationUnit {
    gpu: GpuId,
    name: String,
    /// Shared L2 TLB (hit path).
    pub l2_tlb: Tlb,
    pwc: netcrafter_mem::TagStore<()>,
    pwc_cycles: u32,
    max_walkers: usize,
    page_table: Arc<PageTable>,
    wiring: TranslationWiring,

    tlb_pipe: DelayQueue<TransReq>,
    pwc_pipe: DelayQueue<u64>,
    /// Requests parked because every L2-TLB MSHR was taken, in arrival
    /// order. The modelled hardware replays each of them every cycle;
    /// nothing such a replay can observe changes until a walk completes,
    /// so only [`Self::replay_retries`] executes lookups and the
    /// guaranteed misses in between are counted arithmetically.
    retry: VecDeque<TransReq>,
    /// Last cycle whose replay misses are already in `l2_tlb.stats` for
    /// everything in `retry`; 0 while `retry` is empty. It moves only
    /// when `retry` does, never on a tick that leaves the queue alone,
    /// so the saved state is the same under every scheduler.
    retry_settled: Cycle,
    /// Pages that took an MSHR in the current [`Self::replay_retries`]
    /// scan; scratch, meaningless between scans.
    replay_claimed: Vec<u64>,
    waiters: BTreeMap<u64, Vec<TransReq>>,
    waiter_cap: usize,
    active: BTreeMap<u64, Walk>,
    pending_walks: VecDeque<PendingWalk>,
    inflight_reads: BTreeMap<AccessId, u64>,
    read_ids: IdAlloc<AccessId>,
    /// Statistics.
    pub stats: GmmuStats,
}

impl TranslationUnit {
    /// Builds the translation unit of `gpu`.
    pub fn new(
        gpu: GpuId,
        l2_tlb_cfg: &TlbConfig,
        gmmu_cfg: &GmmuConfig,
        page_table: Arc<PageTable>,
        wiring: TranslationWiring,
    ) -> Self {
        assert!(
            l2_tlb_cfg.mshr_entries > 0,
            "{gpu}.gmmu: the L2 TLB needs at least one MSHR"
        );
        Self {
            gpu,
            name: format!("{gpu}.gmmu"),
            l2_tlb: Tlb::new(l2_tlb_cfg),
            pwc: netcrafter_mem::TagStore::with_entries(
                gmmu_cfg.pwc_entries as usize,
                gmmu_cfg.pwc_entries as usize,
            ),
            pwc_cycles: gmmu_cfg.pwc_lookup_cycles,
            max_walkers: gmmu_cfg.walkers as usize,
            page_table,
            wiring,
            tlb_pipe: DelayQueue::new(),
            pwc_pipe: DelayQueue::new(),
            retry: VecDeque::new(),
            retry_settled: 0,
            replay_claimed: Vec::new(),
            waiters: BTreeMap::new(),
            waiter_cap: l2_tlb_cfg.mshr_entries as usize,
            active: BTreeMap::new(),
            pending_walks: VecDeque::new(),
            inflight_reads: BTreeMap::new(),
            read_ids: IdAlloc::new(),
            stats: GmmuStats::default(),
        }
    }

    /// Requests currently parked behind a full set of L2-TLB MSHRs.
    pub fn parked_requests(&self) -> usize {
        self.retry.len()
    }

    #[inline]
    fn pwc_key(level: u8, prefix: u64) -> u64 {
        ((level as u64) << 60) | prefix
    }

    fn pwc_start_level(&mut self, vpn: u64, now: Cycle) -> u8 {
        for level in [3u8, 2, 1] {
            let shift = 9 * (4 - level) as u32;
            let prefix = vpn >> shift;
            if self.pwc.lookup(Self::pwc_key(level, prefix), now).is_some() {
                return level + 1;
            }
        }
        1
    }

    fn pwc_fill(&mut self, vpn: u64, now: Cycle) {
        for level in [1u8, 2, 3] {
            let shift = 9 * (4 - level) as u32;
            self.pwc.insert(Self::pwc_key(level, vpn >> shift), (), now);
        }
    }

    fn respond(&mut self, ctx: &mut Ctx<'_>, req: &TransReq, pfn: u64) {
        let rsp = TransRsp {
            access: req.access,
            vpn: req.vpn,
            pfn,
            cu: req.cu,
        };
        ctx.send(
            self.wiring.cus[req.cu as usize],
            Message::TransRsp(rsp),
            ON_CHIP_HOP_CYCLES,
        );
    }

    fn issue_read(&mut self, ctx: &mut Ctx<'_>, vpn: u64) {
        let walk = self.active.get(&vpn).expect("walk active");
        let (owner, line) = walk.reads[walk.next_read];
        let access = self.read_ids.next();
        self.inflight_reads.insert(access, vpn);
        let req = MemReq {
            access,
            line,
            write: false,
            mask: LineMask::span(line.base().0 % 64, 8),
            sectors: u16::MAX, // PT responses travel as header-only packets
            class: TrafficClass::Ptw,
            requester: self.gpu,
            owner,
            origin: Origin::Gmmu,
        };
        let target = if owner == self.gpu {
            self.stats.local_pt_reads += 1;
            self.wiring.l2
        } else {
            self.stats.remote_pt_reads += 1;
            self.wiring.rdma
        };
        ctx.send(target, Message::MemReq(req), ON_CHIP_HOP_CYCLES);
    }

    fn start_walk(
        &mut self,
        ctx: &mut Ctx<'_>,
        vpn: u64,
        reads: Vec<(GpuId, netcrafter_proto::LineAddr)>,
        queued_at: Cycle,
    ) {
        debug_assert!(self.active.len() < self.max_walkers);
        self.stats.walks += 1;
        self.stats.walk_reads_hist[reads.len().min(4)] += 1;
        ctx.tracer().begin(EventClass::Ptw, "ptw.walk", vpn);
        self.active.insert(
            vpn,
            Walk {
                vpn,
                reads,
                next_read: 0,
                started: queued_at,
            },
        );
        self.issue_read(ctx, vpn);
    }

    fn complete_walk(&mut self, ctx: &mut Ctx<'_>, vpn: u64, now: Cycle) {
        let walk = self.active.remove(&vpn).expect("walk active");
        self.stats.walk_latency.record(now - walk.started);
        ctx.tracer().end(EventClass::Ptw, "ptw.walk", walk.vpn);
        let pfn = self
            .page_table
            .translate(vpn)
            .unwrap_or_else(|| panic!("{}: walk of unmapped vpn {vpn:#x}", self.name));
        self.l2_tlb.insert(vpn, pfn, now);
        self.pwc_fill(vpn, now);
        for req in self.waiters.remove(&vpn).unwrap_or_default() {
            self.respond(ctx, &req, pfn);
        }
        // A queued walk can now take the freed walker.
        if let Some((vpn, reads, queued_at)) = self.pending_walks.pop_front() {
            self.start_walk(ctx, vpn, reads, queued_at);
        }
    }

    fn handle_lookup(&mut self, ctx: &mut Ctx<'_>, req: TransReq, now: Cycle) {
        if let Some(pfn) = self.l2_tlb.lookup(req.vpn, now) {
            self.respond(ctx, &req, pfn);
            return;
        }
        if let Some(list) = self.waiters.get_mut(&req.vpn) {
            list.push(req); // walk already underway for this vpn
            return;
        }
        if self.waiters.len() >= self.waiter_cap {
            // TLB MSHR full: replayed every cycle from the next one on.
            // Whatever is parked already was replayed (and missed) on
            // every cycle up to this one, ahead of this lookup.
            self.settle_retries(now);
            self.retry.push_back(req);
            return;
        }
        self.waiters.insert(req.vpn, vec![req]);
        self.pwc_pipe.push(now + self.pwc_cycles as Cycle, req.vpn);
    }

    /// Counts one replay miss per parked request for every cycle after
    /// `retry_settled` up to and including `through`.
    fn settle_retries(&mut self, through: Cycle) {
        self.l2_tlb.stats.misses += self.retry.len() as u64 * (through - self.retry_settled);
        self.retry_settled = through;
    }

    /// Replays the parked requests in arrival order at `now`, the cycle a
    /// walk completed: the freed MSHRs go to the oldest requests, later
    /// ones for the same page join them, the rest park again.
    ///
    /// Only a request that can move runs its lookup: one reached while an
    /// MSHR is free, or one whose page was claimed earlier in this scan.
    /// Any other would miss the TLB (no parked page has ever had a walk —
    /// a request for a page being walked joins that walk instead of
    /// parking, and an MSHR is only ever claimed by the oldest request
    /// for its page with all later ones joining in the same scan — so no
    /// completion can have installed it), find no walk to join and no
    /// MSHR, and go back to the end of the queue: it is rotated there
    /// with its miss counted, which leaves the FIFO as the full replay
    /// would.
    fn replay_retries(&mut self, ctx: &mut Ctx<'_>, now: Cycle) {
        // The skipped cycles were misses; this cycle's lookups run below
        // and count themselves.
        self.settle_retries(now - 1);
        self.retry_settled = now;
        self.replay_claimed.clear();
        for _ in 0..self.retry.len() {
            let req = self.retry.pop_front().expect("len checked");
            let free = self.waiters.len() < self.waiter_cap;
            if free || self.replay_claimed.contains(&req.vpn) {
                self.handle_lookup(ctx, req, now);
                if free {
                    self.replay_claimed.push(req.vpn);
                }
            } else {
                debug_assert!(
                    self.l2_tlb.probe(req.vpn).is_none() && !self.waiters.contains_key(&req.vpn),
                    "{}: parked vpn {:#x} could have moved",
                    self.name,
                    req.vpn
                );
                self.l2_tlb.stats.misses += 1;
                self.retry.push_back(req);
            }
        }
        if self.retry.is_empty() {
            self.retry_settled = 0;
        }
    }

    /// Debug-build referee for every tick that skips the replay: each
    /// parked request would miss again and find no MSHR, and a walk is
    /// underway whose completion will bring the next replay.
    fn debug_assert_parked_blocked(&self) {
        if !cfg!(debug_assertions) || self.retry.is_empty() {
            return;
        }
        assert!(
            self.waiters.len() >= self.waiter_cap,
            "{}: requests parked beside a free MSHR",
            self.name
        );
        for req in &self.retry {
            assert!(
                self.l2_tlb.probe(req.vpn).is_none() && !self.waiters.contains_key(&req.vpn),
                "{}: parked vpn {:#x} would no longer miss",
                self.name,
                req.vpn
            );
        }
        assert!(
            !self.active.is_empty() || !self.pending_walks.is_empty() || !self.pwc_pipe.is_empty(),
            "{}: requests parked with no walk left to free an MSHR",
            self.name
        );
    }
}

impl Component for TranslationUnit {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.cycle();
        let mut walk_completed = false;
        while let Some(msg) = ctx.recv() {
            match msg {
                Message::TransReq(req) => {
                    self.stats.requests += 1;
                    self.tlb_pipe
                        .push(now + self.l2_tlb.lookup_cycles() as Cycle, req);
                }
                Message::MemRsp(rsp) => {
                    let vpn = self
                        .inflight_reads
                        .remove(&rsp.access)
                        .unwrap_or_else(|| panic!("{}: stray PT read response", self.name));
                    let walk = self.active.get_mut(&vpn).expect("walk active");
                    walk.next_read += 1;
                    if walk.next_read < walk.reads.len() {
                        self.issue_read(ctx, vpn);
                    } else {
                        self.complete_walk(ctx, vpn, now);
                        walk_completed = true;
                    }
                }
                other => panic!("{}: unexpected {}", self.name, other.label()),
            }
        }

        // Retries (TLB-MSHR-full) get first claim on this cycle. Only a
        // completed walk changes what they can find.
        if walk_completed && !self.retry.is_empty() {
            self.replay_retries(ctx, now);
        } else {
            self.debug_assert_parked_blocked();
        }
        while let Some(req) = self.tlb_pipe.pop_ready(now) {
            self.handle_lookup(ctx, req, now);
        }
        while let Some(vpn) = self.pwc_pipe.pop_ready(now) {
            let start = self.pwc_start_level(vpn, now);
            let reads = self.page_table.walk_reads(vpn, start);
            if self.active.len() < self.max_walkers {
                self.start_walk(ctx, vpn, reads, now);
            } else {
                self.stats.walker_queue_events += 1;
                self.pending_walks.push_back((vpn, reads, now));
            }
        }
    }

    fn busy(&self) -> bool {
        !self.tlb_pipe.is_empty()
            || !self.pwc_pipe.is_empty()
            || !self.retry.is_empty()
            || !self.active.is_empty()
            || !self.pending_walks.is_empty()
            || !self.waiters.is_empty()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_wake(&self, _now: Cycle) -> Wake {
        // The next thing to happen locally is a pipeline completion.
        // Active walks and queued walkers advance on PT-read response
        // messages, and parked retries wait for those walks.
        let mut wake = Wake::OnMessage;
        if let Some(t) = self.tlb_pipe.next_ready() {
            wake = wake.earliest(Wake::At(t));
        }
        if let Some(t) = self.pwc_pipe.next_ready() {
            wake = wake.earliest(Wake::At(t));
        }
        wake
    }

    snap_fields! {
        fn save_state + load_state {
            gpu: skipped(wiring),
            name: skipped(wiring),
            pwc_cycles: skipped(config),
            max_walkers: skipped(config),
            page_table: skipped(wiring),
            wiring: skipped(wiring),
            waiter_cap: skipped(config),
            l2_tlb,
            pwc,
            tlb_pipe,
            pwc_pipe,
            retry,
            retry_settled,
            replay_claimed: skipped(scratch),
            waiters,
            active,
            pending_walks,
            inflight_reads,
            read_ids,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::MemRsp;
    use netcrafter_sim::{EngineBuilder, SchedulerMode};
    use std::sync::Mutex;

    /// Stub CU: records TransRsp arrivals.
    struct CuStub {
        got: Arc<Mutex<Vec<(Cycle, TransRsp)>>>,
    }
    impl Component for CuStub {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                if let Message::TransRsp(r) = msg {
                    self.got.lock().unwrap().push((ctx.cycle(), r));
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "cu-stub"
        }
    }

    /// Stub memory: answers every MemReq after `latency`, recording it.
    struct MemStub {
        reply_to: ComponentId,
        latency: u64,
        seen: Arc<Mutex<Vec<MemReq>>>,
    }
    impl Component for MemStub {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                if let Message::MemReq(req) = msg {
                    self.seen.lock().unwrap().push(req);
                    ctx.send(
                        self.reply_to,
                        Message::MemRsp(MemRsp::for_req(&req, req.sectors)),
                        self.latency,
                    );
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "mem-stub"
        }
    }

    struct H {
        engine: netcrafter_sim::Engine,
        tu: ComponentId,
        rsp: Arc<Mutex<Vec<(Cycle, TransRsp)>>>,
        local_reads: Arc<Mutex<Vec<MemReq>>>,
        remote_reads: Arc<Mutex<Vec<MemReq>>>,
    }

    fn harness(pt: PageTable, walkers: u32) -> H {
        let mut b = EngineBuilder::new();
        let cu = b.reserve();
        let l2 = b.reserve();
        let rdma = b.reserve();
        let tu = b.reserve();
        let rsp = Arc::new(Mutex::new(Vec::new()));
        let local_reads = Arc::new(Mutex::new(Vec::new()));
        let remote_reads = Arc::new(Mutex::new(Vec::new()));
        b.install(
            cu,
            Box::new(CuStub {
                got: Arc::clone(&rsp),
            }),
        );
        b.install(
            l2,
            Box::new(MemStub {
                reply_to: tu,
                latency: 50,
                seen: Arc::clone(&local_reads),
            }),
        );
        b.install(
            rdma,
            Box::new(MemStub {
                reply_to: tu,
                latency: 400,
                seen: Arc::clone(&remote_reads),
            }),
        );
        b.install(
            tu,
            Box::new(TranslationUnit::new(
                GpuId(0),
                &TlbConfig {
                    entries: 512,
                    ways: 8,
                    lookup_cycles: 10,
                    mshr_entries: 4,
                },
                &GmmuConfig {
                    pwc_entries: 32,
                    pwc_lookup_cycles: 10,
                    walkers,
                },
                Arc::new(pt),
                TranslationWiring {
                    cus: vec![cu],
                    l2,
                    rdma,
                },
            )),
        );
        H {
            engine: b.build(),
            tu,
            rsp,
            local_reads,
            remote_reads,
        }
    }

    fn treq(vpn: u64) -> Message {
        Message::TransReq(TransReq {
            access: AccessId(vpn),
            vpn,
            cu: 0,
        })
    }

    #[test]
    fn cold_walk_reads_four_levels_locally() {
        let mut pt = PageTable::new(1 << 24);
        pt.map(0x42, 0x7, GpuId(0));
        let mut h = harness(pt, 16);
        h.engine.inject(h.tu, treq(0x42), 1);
        h.engine.run_to_quiescence(5000);
        assert_eq!(h.rsp.lock().unwrap().len(), 1);
        assert_eq!(h.rsp.lock().unwrap()[0].1.pfn, 0x7);
        assert_eq!(h.local_reads.lock().unwrap().len(), 4, "4-level walk");
        assert!(h.remote_reads.lock().unwrap().is_empty());
        // Latency: 10 (TLB) + 10 (PWC) + 4 sequential reads of ~52 each.
        let t = h.rsp.lock().unwrap()[0].0;
        assert!(t > 220, "sequential walk latency, got {t}");
    }

    #[test]
    fn pwc_accelerates_neighbouring_walks() {
        let mut pt = PageTable::new(1 << 24);
        pt.map(0x42, 0x7, GpuId(0));
        pt.map(0x43, 0x8, GpuId(0)); // same leaf table
        let mut h = harness(pt, 16);
        h.engine.inject(h.tu, treq(0x42), 1);
        h.engine.run_to_quiescence(5000);
        assert_eq!(h.local_reads.lock().unwrap().len(), 4);
        // Second walk: PWC has levels 1-3 cached -> only the leaf read.
        h.engine.inject(h.tu, treq(0x43), 1);
        h.engine.run_to_quiescence(5000);
        assert_eq!(h.local_reads.lock().unwrap().len(), 5, "only 1 extra read");
    }

    #[test]
    fn l2_tlb_hit_skips_walk() {
        let mut pt = PageTable::new(1 << 24);
        pt.map(0x42, 0x7, GpuId(0));
        let mut h = harness(pt, 16);
        h.engine.inject(h.tu, treq(0x42), 1);
        h.engine.run_to_quiescence(5000);
        let reads_after_first = h.local_reads.lock().unwrap().len();
        h.engine.inject(h.tu, treq(0x42), 1);
        h.engine.run_to_quiescence(5000);
        assert_eq!(h.rsp.lock().unwrap().len(), 2);
        assert_eq!(
            h.local_reads.lock().unwrap().len(),
            reads_after_first,
            "no new reads"
        );
    }

    #[test]
    fn concurrent_same_vpn_requests_share_one_walk() {
        let mut pt = PageTable::new(1 << 24);
        pt.map(0x42, 0x7, GpuId(0));
        let mut h = harness(pt, 16);
        h.engine.inject(h.tu, treq(0x42), 1);
        h.engine.inject(h.tu, treq(0x42), 2);
        h.engine.inject(h.tu, treq(0x42), 3);
        h.engine.run_to_quiescence(5000);
        assert_eq!(h.rsp.lock().unwrap().len(), 3, "all requesters answered");
        assert_eq!(h.local_reads.lock().unwrap().len(), 4, "single walk");
    }

    #[test]
    fn remote_pte_reads_go_to_rdma() {
        let mut pt = PageTable::new(1 << 24);
        pt.map(0x42, 0x7, GpuId(2)); // PT nodes placed on gpu2
        let mut h = harness(pt, 16);
        h.engine.inject(h.tu, treq(0x42), 1);
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.rsp.lock().unwrap().len(), 1);
        assert_eq!(h.remote_reads.lock().unwrap().len(), 4);
        assert!(h.local_reads.lock().unwrap().is_empty());
        assert!(h
            .remote_reads
            .lock()
            .unwrap()
            .iter()
            .all(|r| r.class == TrafficClass::Ptw));
        assert!(h
            .remote_reads
            .lock()
            .unwrap()
            .iter()
            .all(|r| r.owner == GpuId(2)));
    }

    #[test]
    fn tlb_mshr_cap_retries_instead_of_dropping() {
        // waiter_cap is 4 (mshr_entries in the harness config); issue 6
        // distinct vpns at once — all must still complete, the two that
        // found no MSHR right after the walks that free one.
        let vpn = |i: u64| 0x100 + i * (1 << 12);
        let mut pt = PageTable::new(1 << 24);
        for i in 0..6 {
            pt.map(vpn(i), 0x10 + i, GpuId(0));
        }
        let mut h = harness(pt, 16);
        for i in 0..6 {
            h.engine.inject(h.tu, treq(vpn(i)), 1);
        }
        h.engine.run_to_quiescence(50_000);
        // All six leave the TLB pipe at cycle 11. Four take an MSHR, pass
        // the PWC (10) and walk four local levels (2 + 50 each): done at
        // 229, answered over the 2-cycle hop at 231. The two parked
        // requests claim the freed MSHRs at 229 in arrival order; their
        // walks find levels 1-2 in the PWC and read two levels: 239 + 104
        // + 2 = 345.
        let log: Vec<(Cycle, u64, u64)> = h
            .rsp
            .lock()
            .unwrap()
            .iter()
            .map(|(t, r)| (*t, r.vpn, r.pfn))
            .collect();
        let expected: Vec<(Cycle, u64, u64)> = (0..6)
            .map(|i| (if i < 4 { 231 } else { 345 }, vpn(i), 0x10 + i))
            .collect();
        assert_eq!(log, expected, "capped MSHR retries, never drops");
        // Six first lookups, then both parked requests replayed on each
        // of the cycles 12..=229.
        let tu: &TranslationUnit = h.engine.get(h.tu).expect("tu");
        assert_eq!(tu.l2_tlb.stats.misses, 6 + 2 * 218);
        assert_eq!(tu.l2_tlb.stats.hits, 0);
        assert_eq!(tu.stats.walk_reads_hist, [0, 0, 2, 0, 4]);
    }

    /// The MSHR-overflow scenario, loaded and ready to run: 40 requests
    /// for distinct, PWC-disjoint pages whose tables live on another GPU
    /// arrive 7 cycles apart, far faster than 4 MSHRs turn over, and two
    /// latecomers ask for pages that are still parked.
    fn overflow_harness() -> H {
        let mut pt = PageTable::new(1 << 24);
        for (vpn, _) in overflow_requests() {
            pt.map(vpn, vpn >> 20, GpuId(2));
        }
        let mut h = harness(pt, 16);
        for (vpn, delay) in overflow_requests() {
            h.engine.inject(h.tu, treq(vpn), delay);
        }
        h
    }

    /// Runs the overflow scenario under `mode`; returns the response log
    /// and the L2-TLB counters.
    fn run_mshr_overflow(mode: SchedulerMode) -> (Vec<(Cycle, TransRsp)>, crate::tlb::TlbStats) {
        let mut h = overflow_harness();
        h.engine.set_scheduler(mode);
        h.engine.run_to_quiescence(100_000);
        let tu: &TranslationUnit = h.engine.get(h.tu).expect("tu");
        assert_eq!(tu.retry_settled, 0, "nothing parked, nothing to settle");
        let log = h.rsp.lock().unwrap().clone();
        (log, tu.l2_tlb.stats)
    }

    /// `(vpn, injection delay)` of the overflow scenario, in arrival
    /// order. Page `i` is `(i + 1) << 27`: no two share a page-table node
    /// below the root, so every walk reads four levels.
    fn overflow_requests() -> Vec<(u64, u64)> {
        let mut reqs: Vec<(u64, u64)> = (0..40).map(|i| ((i + 1) << 27, 1 + 7 * i)).collect();
        reqs.push((13 << 27, 1 + 7 * 40)); // page 12, parked until cycle 4'886
        reqs.push((34 << 27, 1 + 7 * 41)); // page 33
        reqs
    }

    #[test]
    fn mshr_overflow_is_identical_under_every_scheduler_and_counts_each_replay() {
        // Legacy ticks the unit on every cycle, the event-driven scheduler
        // only at pipe deadlines and PT-read responses.
        let (legacy_log, legacy_stats) = run_mshr_overflow(SchedulerMode::Legacy);
        let (log, stats) = run_mshr_overflow(SchedulerMode::EventDriven);
        assert_eq!(log, legacy_log);
        assert_eq!(stats, legacy_stats);

        // The reference the numbers must equal, from first principles. A
        // request leaves the TLB pipe 10 cycles after it arrives; an MSHR
        // is held for the PWC lookup (10) plus four remote reads (2 + 400
        // each); a freed MSHR goes to the oldest parked request in the
        // cycle its walk completes; the answer takes the 2-cycle hop.
        const HELD: u64 = 10 + 4 * 402;
        let reqs = overflow_requests();
        let looked_up: Vec<u64> = reqs.iter().map(|&(_, delay)| delay + 10).collect();
        let mut claimed: Vec<u64> = Vec::new();
        for i in 0..40 {
            claimed.push(if i < 4 {
                looked_up[i]
            } else {
                claimed[i - 4] + HELD
            });
        }
        // The latecomers join their page's first request when it claims.
        claimed.push(claimed[12]);
        claimed.push(claimed[33]);

        let mut expected: Vec<(Cycle, u64)> = Vec::new();
        for i in 0..40 {
            expected.push((claimed[i] + HELD + 2, reqs[i].0));
            if i == 12 || i == 33 {
                expected.push((claimed[i] + HELD + 2, reqs[i].0));
            }
        }
        let seen: Vec<(Cycle, u64)> = log.iter().map(|(t, r)| (*t, r.vpn)).collect();
        assert_eq!(seen, expected, "MSHRs are claimed in arrival order");

        // One miss per first lookup, plus one per parked request per
        // cycle: the queue length summed over every cycle of the run.
        let last = *claimed.iter().max().expect("non-empty");
        let queue_cycles: u64 = (1..=last)
            .map(|c| {
                (0..reqs.len())
                    .filter(|&i| looked_up[i] < c && c <= claimed[i])
                    .count() as u64
            })
            .sum();
        assert!(
            queue_cycles > 100_000,
            "the scenario must park for a long time"
        );
        assert_eq!(stats.misses, reqs.len() as u64 + queue_cycles);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn one_completion_moves_one_parked_request_and_keeps_the_rest_in_order() {
        // Four requests take the four MSHRs 100 cycles apart (looked up
        // at 11, 111, 211, 311; each held 10 + 4 * 402 cycles), then six
        // for six more pages park behind them (looked up at 330..=335).
        let page = |i: u64| (i + 1) << 27;
        let mut pt = PageTable::new(1 << 24);
        for i in 0..10 {
            pt.map(page(i), i, GpuId(2));
        }
        let mut h = harness(pt, 16);
        for i in 0..4 {
            h.engine.inject(h.tu, treq(page(i)), 1 + 100 * i);
        }
        for i in 0..6 {
            h.engine.inject(h.tu, treq(page(4 + i)), 320 + i);
        }
        // The first walk completes at 11 + 1618: one MSHR, one mover.
        h.engine.run_until(1_629);
        let tu: &TranslationUnit = h.engine.get(h.tu).expect("tu");
        let parked: Vec<u64> = tu.retry.iter().map(|r| r.vpn).collect();
        assert_eq!(parked, (5..10).map(page).collect::<Vec<_>>());
        assert!(
            tu.waiters.contains_key(&page(4)),
            "the oldest took the MSHR"
        );
        assert_eq!(tu.retry_settled, 1_629);
        // Ten first lookups, then the request parked at cycle 330 + i is
        // replayed (and misses) on each of the cycles 331 + i ..= 1629 —
        // by a lookup that ran only for the one that moved.
        let replays: u64 = (0..6).map(|i| 1_629 - (330 + i)).sum();
        assert_eq!(tu.l2_tlb.stats.misses, 10 + replays);
        assert_eq!(tu.l2_tlb.stats.hits, 0);

        h.engine.run_to_quiescence(100_000);
        let answered: Vec<u64> = h.rsp.lock().unwrap().iter().map(|(_, r)| r.vpn).collect();
        assert_eq!(answered, (0..10).map(page).collect::<Vec<_>>());
    }

    #[test]
    fn parked_retries_never_ask_for_a_tick_every_cycle() {
        let mut h = overflow_harness();
        let mut parked_cycles = 0;
        while !h.engine.quiescent() {
            h.engine.step();
            let tu: &TranslationUnit = h.engine.get(h.tu).expect("tu");
            // `tick_burst` is the trait default: it reports `next_wake`.
            let wake = tu.next_wake(h.engine.cycle());
            assert_ne!(wake, Wake::EveryCycle, "at cycle {}", h.engine.cycle());
            if tu.parked_requests() > 0 {
                parked_cycles += 1;
                assert!(tu.busy(), "parked requests keep the run alive");
            }
        }
        assert!(parked_cycles > 10_000, "parked for {parked_cycles} cycles");
    }

    #[test]
    fn walk_latency_statistics_recorded() {
        let mut pt = PageTable::new(1 << 24);
        pt.map(0x42, 0x7, GpuId(0));
        let mut h = harness(pt, 16);
        h.engine.inject(h.tu, treq(0x42), 1);
        h.engine.run_to_quiescence(5_000);
        let tu: &TranslationUnit = h.engine.get(h.tu).expect("tu");
        assert_eq!(tu.stats.walks, 1);
        assert_eq!(tu.stats.walk_reads_hist[4], 1, "cold walk reads 4 levels");
        assert!(tu.stats.walk_latency.mean() > 100.0, "4 sequential reads");
        let mut m = Metrics::new();
        tu.stats.report(&mut m, "g");
        assert_eq!(m.counter("g.walks"), 1);
        assert_eq!(m.counter("g.local_pt_reads"), 4);
    }

    #[test]
    fn walker_limit_queues_walks() {
        let mut pt = PageTable::new(1 << 24);
        // Two far-apart vpns -> distinct walks.
        pt.map(0x42, 0x7, GpuId(0));
        pt.map(0x42 + (1 << 18), 0x8, GpuId(0));
        let mut h = harness(pt, 1); // single walker
        h.engine.inject(h.tu, treq(0x42), 1);
        h.engine.inject(h.tu, treq(0x42 + (1 << 18)), 1);
        h.engine.run_to_quiescence(10_000);
        assert_eq!(
            h.rsp.lock().unwrap().len(),
            2,
            "both walks complete eventually"
        );
    }
}
