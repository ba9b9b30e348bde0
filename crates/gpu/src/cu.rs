//! The compute unit: executes coalesced wavefront access streams with
//! latency hiding, owns a private L1 TLB and L1 vector cache, and feeds
//! the memory hierarchy (§2.1).
//!
//! A CU keeps up to `max_waves_per_cu` wavefronts resident and issues one
//! operation per cycle from a ready wavefront (round-robin). A wavefront
//! blocks on its own loads — other wavefronts keep issuing, which is the
//! latency tolerance GPUs (and Flit Pooling) rely on. Stores are posted:
//! they propagate write-through toward the owning L2 and only bound the
//! CU by the outstanding-access cap.

use std::collections::{BTreeMap, VecDeque};

use netcrafter_mem::{L1Access, L1Cache};
use netcrafter_proto::access::{CoalescedAccess, WavefrontOp, WavefrontTrace};
use netcrafter_proto::config::{SystemConfig, ON_CHIP_HOP_CYCLES};
use netcrafter_proto::ids::IdAlloc;
use netcrafter_proto::{
    AccessId, CuId, GpuId, LatencyStat, LineAddr, MemReq, Message, Metrics, Origin, PAddr,
    TrafficClass, TransReq, PAGE_BYTES,
};
use netcrafter_sim::snapshot::SnapshotError;
use netcrafter_sim::{
    snap_fields, BurstOutcome, Component, ComponentId, Ctx, Cycle, EventClass, Wake,
};
use netcrafter_vm::Tlb;

/// Where the CU's outgoing traffic goes.
#[derive(Debug, Clone)]
pub struct CuWiring {
    /// The GPU's shared translation unit (L2 TLB + GMMU).
    pub gmmu: ComponentId,
    /// The GPU's local L2 cache.
    pub l2: ComponentId,
    /// The GPU's RDMA engine (remote lines).
    pub rdma: ComponentId,
}

/// Per-CU statistics.
#[derive(Debug, Clone, Default)]
pub struct CuStats {
    /// Dynamic operations issued (MPKI denominator).
    pub instructions: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Reads whose line lives on another GPU.
    pub remote_reads: u64,
    /// Reads whose line lives across the inter-cluster network.
    pub inter_cluster_reads: u64,
    /// Figure 7: inter-cluster reads bucketed by bytes required
    /// (16/32/48/64).
    pub fig7: [u64; 4],
    /// End-to-end latency of inter-cluster reads (issue → data).
    pub inter_cluster_read_latency: LatencyStat,
    /// End-to-end latency of all reads.
    pub read_latency: LatencyStat,
    /// Cycles with no ready wavefront (stall cycles).
    pub idle_cycles: u64,
    /// Wavefronts completed.
    pub waves_done: u64,
}

snap_fields! {
    impl Snap for CuStats {
        instructions, mem_ops, remote_reads, inter_cluster_reads, fig7,
        inter_cluster_read_latency, read_latency, idle_cycles, waves_done,
    }
}

impl CuStats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.instructions"), self.instructions);
        metrics.add(&format!("{prefix}.mem_ops"), self.mem_ops);
        metrics.add(&format!("{prefix}.remote_reads"), self.remote_reads);
        metrics.add(
            &format!("{prefix}.inter_cluster_reads"),
            self.inter_cluster_reads,
        );
        for (i, count) in self.fig7.iter().enumerate() {
            metrics.add(&format!("{prefix}.fig7_{}B", (i + 1) * 16), *count);
        }
        metrics
            .latency_mut(&format!("{prefix}.inter_cluster_read_latency"))
            .merge(&self.inter_cluster_read_latency);
        metrics
            .latency_mut(&format!("{prefix}.read_latency"))
            .merge(&self.read_latency);
        metrics.add(&format!("{prefix}.idle_cycles"), self.idle_cycles);
        metrics.add(&format!("{prefix}.waves_done"), self.waves_done);
    }
}

#[derive(Debug)]
enum WfState {
    /// Can issue its next op.
    Ready,
    /// Computing or absorbing L1 hit latency until the given cycle.
    BusyUntil(Cycle),
    /// Waiting for a translation (the pending access resumes on reply).
    WaitTranslation(CoalescedAccess),
    /// Waiting for a read fill.
    WaitMem,
    /// L1/MSHR or outstanding-cap stall: retry the translated access.
    RetryAccess(CoalescedAccess, u64),
    /// Trace exhausted.
    Done,
}

snap_fields! {
    enum WfState {
        0 => Ready,
        1 => BusyUntil(until),
        2 => WaitTranslation(access),
        3 => WaitMem,
        4 => RetryAccess(access, pfn),
        5 => Done,
    }
}

#[derive(Debug)]
struct Wavefront {
    trace: WavefrontTrace,
    pc: usize,
    state: WfState,
    /// Loads in flight for this wavefront (non-blocking up to the CU's
    /// `max_loads_per_wave`).
    loads_in_flight: u16,
}

snap_fields! {
    impl Snap for Wavefront { trace, pc, state, loads_in_flight }
    validate Self::check_restored
}

impl Wavefront {
    fn check_restored(&self) -> Result<(), SnapshotError> {
        if self.pc > self.trace.ops.len() {
            return Err(SnapshotError::Corrupt(format!(
                "wavefront pc {} past {} trace ops",
                self.pc,
                self.trace.ops.len()
            )));
        }
        Ok(())
    }
}

/// A compute unit component.
pub struct Cu {
    gpu: GpuId,
    cu_raw: u16,
    name: String,
    /// The CU's private L1 vector cache.
    pub l1: L1Cache,
    /// The CU's private L1 TLB.
    pub l1_tlb: Tlb,
    wiring: CuWiring,
    gpus_per_cluster: u16,
    frames_per_gpu: u64,
    max_waves: usize,
    max_outstanding: u32,
    max_loads_per_wave: u16,
    full_sector_mask: u16,

    resident: Vec<Wavefront>,
    pending: VecDeque<WavefrontTrace>,
    rr: usize,
    ids: IdAlloc<AccessId>,
    id_base: u64,
    trans_waiters: BTreeMap<AccessId, usize>,
    read_waiters: BTreeMap<AccessId, usize>,
    issue_times: BTreeMap<AccessId, (Cycle, bool)>, // (issued, inter_cluster)
    outstanding: u32,
    /// Cycle of the last tick, the anchor for the arithmetic catch-up
    /// (`idle_cycles`, failed access retries) after an event-driven
    /// scheduler skips blocked cycles.
    last_tick: Cycle,
    /// Whether the CU was busy at the end of the last tick. State is
    /// frozen between ticks, so this is the busy value for every cycle
    /// the scheduler skipped since (`load_waves` can flip it, but only
    /// at a kernel barrier, which re-ticks the CU immediately).
    was_busy: bool,
    /// Statistics.
    pub stats: CuStats,
}

impl Cu {
    /// Builds a CU of `gpu` with GPU-local index `cu`, executing `waves`.
    pub fn new(
        gpu: GpuId,
        cu: CuId,
        cfg: &SystemConfig,
        waves: Vec<WavefrontTrace>,
        wiring: CuWiring,
    ) -> Self {
        let l1 = L1Cache::new(&cfg.l1, cfg.sector_fill, cfg.trim_granularity);
        let l1_tlb = Tlb::new(&cfg.l1_tlb);
        // Globally unique access ids: gpu and cu in the high bits.
        let id_base = ((gpu.raw() as u64) << 40) | ((cu.raw() as u64) << 24);
        Self {
            gpu,
            cu_raw: cu.raw(),
            name: format!("{gpu}.{cu}"),
            l1,
            l1_tlb,
            wiring,
            gpus_per_cluster: cfg.topology.gpus_per_cluster,
            frames_per_gpu: 1u64 << (netcrafter_proto::config::PA_GPU_REGION_BITS - 12),
            max_waves: cfg.max_waves_per_cu as usize,
            max_outstanding: cfg.max_outstanding_per_cu,
            max_loads_per_wave: cfg.max_loads_per_wave,
            full_sector_mask: cfg.full_sector_mask(),
            resident: Vec::new(),
            pending: waves.into(),
            rr: 0,
            ids: IdAlloc::new(),
            id_base,
            trans_waiters: BTreeMap::new(),
            read_waiters: BTreeMap::new(),
            issue_times: BTreeMap::new(),
            outstanding: 0,
            last_tick: 0,
            was_busy: false,
            stats: CuStats::default(),
        }
    }

    fn next_id(&mut self) -> AccessId {
        AccessId(self.id_base + self.ids.next().raw())
    }

    fn owner_of(&self, pa: u64) -> GpuId {
        GpuId((pa / (self.frames_per_gpu * PAGE_BYTES)) as u16)
    }

    fn crosses_clusters(&self, owner: GpuId) -> bool {
        owner.cluster(self.gpus_per_cluster) != self.gpu.cluster(self.gpus_per_cluster)
    }

    fn activate_pending(&mut self) {
        while self.resident.len() < self.max_waves {
            let Some(trace) = self.pending.pop_front() else {
                break;
            };
            self.resident.push(Wavefront {
                trace,
                pc: 0,
                state: WfState::Ready,
                loads_in_flight: 0,
            });
        }
    }

    /// Loads another batch of wavefronts onto the CU — the dispatch path
    /// for a subsequent kernel after a global kernel barrier. Only legal
    /// while the CU is idle (the harness runs each kernel to quiescence
    /// before launching the next).
    pub fn load_waves(&mut self, waves: Vec<WavefrontTrace>) {
        assert!(
            !self.busy(),
            "{}: kernel barrier violated — waves loaded onto a busy CU",
            self.name
        );
        self.resident.clear();
        self.pending.extend(waves);
    }

    /// Waves whose translated access found the outstanding cap reached
    /// or the L1 stalling, and is retried until it goes through.
    pub fn retrying_waves(&self) -> usize {
        let retrying = |w: &&Wavefront| matches!(w.state, WfState::RetryAccess(..));
        self.resident.iter().filter(retrying).count()
    }

    /// Physical line of the translated access `acc`, the GPU owning it,
    /// and whether that GPU sits in another cluster.
    fn locate(&self, acc: &CoalescedAccess, pfn: u64) -> (LineAddr, GpuId, bool) {
        let pa = PAddr(pfn * PAGE_BYTES + acc.vaddr.page_offset());
        let owner = self.owner_of(pa.0);
        (pa.line(), owner, self.crosses_clusters(owner))
    }

    /// True when attempting the translated access now would leave its
    /// wave in [`WfState::RetryAccess`]: the outstanding cap is reached,
    /// or it is a read the L1 would stall. Changes nothing, and asks the
    /// questions `do_mem_access` asks, in its order and of the same
    /// deciders (the cap comparison, `L1Cache::plan_read`), so a retry
    /// that is skipped on this answer is one that would have failed.
    fn retry_blocked(&self, acc: &CoalescedAccess, pfn: u64) -> bool {
        if self.outstanding >= self.max_outstanding {
            return true;
        }
        if acc.kind.is_write() {
            return false;
        }
        let (line, _, crosses) = self.locate(acc, pfn);
        self.l1.read_would_stall(line, acc.mask, crosses)
    }

    /// Books the retry passes of the `skipped` cycles the scheduler did
    /// not tick, the last of them at cycle `last`. `blocked_wake` only
    /// lets it skip while every `RetryAccess` wave is `retry_blocked`,
    /// and nothing such a pass changes feeds back into that answer, so
    /// each skipped pass would have failed every retry again. A
    /// cap-blocked attempt returns before it touches anything; an
    /// L1-stalled read has by then burnt an access id (`next_id` runs
    /// before `l1.read`), counted an MSHR stall and stamped its line.
    fn settle_parked_retries(&mut self, skipped: u64, last: Cycle) {
        let capped = self.outstanding >= self.max_outstanding;
        for wf_ix in 0..self.resident.len() {
            let WfState::RetryAccess(acc, pfn) = self.resident[wf_ix].state else {
                continue;
            };
            // Debug-build referee: the CU slept on a retry that is still
            // blocked in the frozen, pre-mailbox state.
            debug_assert!(
                self.retry_blocked(&acc, pfn),
                "{}: wave {wf_ix} slept {skipped} cycles on a retry that would succeed",
                self.name
            );
            if !capped {
                let (line, ..) = self.locate(&acc, pfn);
                self.ids.skip(skipped);
                self.l1.settle_stalled_reads(line, skipped, last);
            }
        }
    }

    /// Executes the (already translated) access for wavefront `wf_ix`.
    fn do_mem_access(&mut self, ctx: &mut Ctx<'_>, wf_ix: usize, acc: CoalescedAccess, pfn: u64) {
        let now = ctx.cycle();
        if self.outstanding >= self.max_outstanding {
            self.resident[wf_ix].state = WfState::RetryAccess(acc, pfn);
            return;
        }
        let (line, owner, crosses) = self.locate(&acc, pfn);
        let target = if owner == self.gpu {
            self.wiring.l2
        } else {
            self.wiring.rdma
        };

        // The coalesced mask is line-relative in the trace's virtual
        // space; physical line offset equals virtual line offset (pages
        // are line-aligned), so the mask carries over unchanged.
        if acc.kind.is_write() {
            self.l1.write(line, acc.mask, now);
            let req = MemReq {
                access: self.next_id(),
                line,
                write: true,
                mask: acc.mask,
                sectors: self.full_sector_mask,
                class: TrafficClass::Data,
                requester: self.gpu,
                owner,
                origin: Origin::Cu(self.cu_raw),
            };
            self.outstanding += 1;
            ctx.send(target, Message::MemReq(req), ON_CHIP_HOP_CYCLES);
            // Posted write: the wavefront moves on after the issue cycle.
            self.resident[wf_ix].state = WfState::BusyUntil(now + 1);
            return;
        }

        let id = self.next_id();
        match self.l1.read(line, acc.mask, id, now, crosses) {
            L1Access::Hit => {
                self.resident[wf_ix].state =
                    WfState::BusyUntil(now + self.l1.lookup_cycles() as Cycle);
            }
            L1Access::Miss { sectors } => {
                if crosses {
                    self.stats.inter_cluster_reads += 1;
                    self.stats.fig7[(acc.mask.fig7_bucket() as usize / 16) - 1] += 1;
                }
                if owner != self.gpu {
                    self.stats.remote_reads += 1;
                }
                let req = MemReq {
                    access: id,
                    line,
                    write: false,
                    mask: acc.mask,
                    sectors,
                    class: TrafficClass::Data,
                    requester: self.gpu,
                    owner,
                    origin: Origin::Cu(self.cu_raw),
                };
                self.outstanding += 1;
                self.read_waiters.insert(id, wf_ix);
                self.issue_times.insert(id, (now, crosses));
                ctx.tracer().begin(EventClass::Cache, "l1.miss", id.0);
                ctx.send(
                    target,
                    Message::MemReq(req),
                    u64::from(self.l1.lookup_cycles()) + ON_CHIP_HOP_CYCLES,
                );
                self.note_load_issued(wf_ix);
            }
            L1Access::MergedMiss => {
                self.read_waiters.insert(id, wf_ix);
                self.issue_times.insert(id, (now, crosses));
                ctx.tracer().begin(EventClass::Cache, "l1.miss", id.0);
                self.note_load_issued(wf_ix);
            }
            L1Access::Stall => {
                self.resident[wf_ix].state = WfState::RetryAccess(acc, pfn);
            }
        }
    }

    /// Starts the memory op `acc` for `wf_ix`: translation first.
    fn start_access(&mut self, ctx: &mut Ctx<'_>, wf_ix: usize, acc: CoalescedAccess) {
        self.stats.mem_ops += 1;
        let vpn = acc.vaddr.vpn();
        let now = ctx.cycle();
        if let Some(pfn) = self.l1_tlb.lookup(vpn, now) {
            self.do_mem_access(ctx, wf_ix, acc, pfn);
        } else {
            let id = self.next_id();
            self.trans_waiters.insert(id, wf_ix);
            let req = TransReq {
                access: id,
                vpn,
                cu: self.cu_raw,
            };
            ctx.send(self.wiring.gmmu, Message::TransReq(req), ON_CHIP_HOP_CYCLES);
            self.resident[wf_ix].state = WfState::WaitTranslation(acc);
        }
    }

    /// Books an issued (in-flight) load on `wf_ix`: the wavefront keeps
    /// issuing until it exhausts its non-blocking-load budget, then waits
    /// for data (the first "use").
    fn note_load_issued(&mut self, wf_ix: usize) {
        let wf = &mut self.resident[wf_ix];
        wf.loads_in_flight += 1;
        wf.state = if wf.loads_in_flight >= self.max_loads_per_wave {
            WfState::WaitMem
        } else {
            WfState::Ready
        };
    }

    /// The earliest cycle at which ticking the CU can do more than what
    /// `tick` settles arithmetically from `last_tick`: count an idle
    /// cycle and fail every access retry again. A wave that can issue —
    /// `Ready`, or a `BusyUntil` deadline already due — needs every
    /// cycle, and so does a retry that would go through; a pure compute
    /// phase sleeps until its deadline; memory- and translation-blocked
    /// waves and blocked retries sleep until a response message arrives
    /// (a reached outstanding cap and a stalling L1 MSHR both have a
    /// response on the way, and only a response changes either). A
    /// non-empty pending queue only matters while a resident slot is
    /// free — except in the degenerate all-retired-but-queue-nonempty
    /// state, where the legacy scheduler spins, so we must spin too. A
    /// drained CU changes state only on a message or a new kernel's
    /// `load_waves`, which re-ticks it via the engine's external-mutation
    /// tracking. This is the CU's only wake answer (`tick_burst` returns
    /// it).
    fn blocked_wake(&self, now: Cycle) -> Wake {
        let mut wake = Wake::OnMessage;
        let mut active = false;
        for w in &self.resident {
            match &w.state {
                WfState::Ready => return Wake::EveryCycle,
                WfState::RetryAccess(acc, pfn) => {
                    if !self.retry_blocked(acc, *pfn) {
                        return Wake::EveryCycle;
                    }
                    active = true;
                }
                WfState::BusyUntil(t) => {
                    if *t <= now {
                        return Wake::EveryCycle;
                    }
                    wake = wake.earliest(Wake::At(*t));
                    active = true;
                }
                WfState::WaitTranslation(_) | WfState::WaitMem => active = true,
                WfState::Done => {}
            }
        }
        if !self.pending.is_empty() && (self.resident.len() < self.max_waves || !active) {
            return Wake::EveryCycle;
        }
        wake
    }

    fn wake_read(&mut self, ctx: &mut Ctx<'_>, id: AccessId) {
        let now = ctx.cycle();
        let wf_ix = self
            .read_waiters
            .remove(&id)
            .unwrap_or_else(|| panic!("{}: stray read completion {id}", self.name));
        if let Some((issued, crosses)) = self.issue_times.remove(&id) {
            let lat = now - issued;
            self.stats.read_latency.record(lat);
            if crosses {
                self.stats.inter_cluster_read_latency.record(lat);
            }
        }
        ctx.tracer().end(EventClass::Cache, "l1.miss", id.0);
        let wf = &mut self.resident[wf_ix];
        debug_assert!(wf.loads_in_flight > 0);
        wf.loads_in_flight -= 1;
        if matches!(wf.state, WfState::WaitMem) {
            wf.state = WfState::BusyUntil(now + 1);
        }
    }
}

impl Component for Cu {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.cycle();
        // Catch up on the skipped cycles before looking at the mailbox.
        // `blocked_wake` only lets the scheduler skip spans where no wave
        // can issue, no retry can go through and no message arrives, and
        // state is frozen between ticks — so the reference model would
        // have spent every skipped cycle failing the same retries and
        // then in the `!issued && busy` branch below, exactly when
        // `was_busy` holds. Under the Legacy reference the span is 0.
        let skipped = now.saturating_sub(self.last_tick + 1);
        if skipped > 0 && self.was_busy {
            self.stats.idle_cycles += skipped;
            self.settle_parked_retries(skipped, now - 1);
        }
        self.activate_pending();

        while let Some(msg) = ctx.recv() {
            match msg {
                Message::TransRsp(rsp) => {
                    let wf_ix = self
                        .trans_waiters
                        .remove(&rsp.access)
                        .unwrap_or_else(|| panic!("{}: stray translation", self.name));
                    self.l1_tlb.insert(rsp.vpn, rsp.pfn, now);
                    let WfState::WaitTranslation(acc) = self.resident[wf_ix].state else {
                        panic!("{}: wavefront not awaiting translation", self.name);
                    };
                    self.do_mem_access(ctx, wf_ix, acc, rsp.pfn);
                }
                Message::MemRsp(rsp) => {
                    self.outstanding -= 1;
                    if rsp.write {
                        // Posted-write ack: nothing blocks on it.
                    } else {
                        for id in self.l1.fill(rsp.line, rsp.sectors_valid, now) {
                            self.wake_read(ctx, id);
                        }
                    }
                }
                other => panic!("{}: unexpected {}", self.name, other.label()),
            }
        }

        // Retry stalled accesses before issuing new work (age order).
        for wf_ix in 0..self.resident.len() {
            if let WfState::RetryAccess(acc, pfn) = self.resident[wf_ix].state {
                self.do_mem_access(ctx, wf_ix, acc, pfn);
            }
        }

        // Issue one op from a ready wavefront (round-robin).
        let n = self.resident.len();
        let mut issued = false;
        for step in 0..n {
            let wf_ix = (self.rr + step) % n.max(1);
            let ready = match self.resident[wf_ix].state {
                WfState::Ready => true,
                WfState::BusyUntil(t) => t <= now,
                _ => false,
            };
            if !ready {
                continue;
            }
            let wf = &mut self.resident[wf_ix];
            if wf.pc >= wf.trace.ops.len() {
                wf.state = WfState::Done;
                self.stats.waves_done += 1;
                self.activate_pending();
                continue;
            }
            let op = wf.trace.ops[wf.pc];
            wf.pc += 1;
            match op {
                WavefrontOp::Compute(cycles) => {
                    // A compute phase of n cycles stands for ~n issued
                    // ALU instructions (the MPKI denominator).
                    self.stats.instructions += cycles as u64;
                    wf.state = WfState::BusyUntil(now + cycles as Cycle);
                }
                WavefrontOp::Mem(acc) => {
                    self.stats.instructions += 1;
                    wf.state = WfState::Ready;
                    self.start_access(ctx, wf_ix, acc);
                }
            }
            self.rr = (wf_ix + 1) % n.max(1);
            issued = true;
            break;
        }
        let busy = self.busy();
        if !issued && busy {
            self.stats.idle_cycles += 1;
        }

        // Reap finished wavefronts so `busy` can settle — but only once
        // every in-flight load has returned (a Done wavefront may still
        // have non-blocking loads outstanding). Reaping only removes
        // `Done` waves, which never contribute to `busy`, so the value
        // computed above stays valid as the end-of-tick anchor.
        if self
            .resident
            .iter()
            .all(|w| matches!(w.state, WfState::Done))
            && !self.resident.is_empty()
            && self.pending.is_empty()
            && self.read_waiters.is_empty()
        {
            self.resident.clear();
        }
        self.last_tick = now;
        self.was_busy = busy;
    }

    fn busy(&self) -> bool {
        !self.pending.is_empty()
            || self
                .resident
                .iter()
                .any(|w| !matches!(w.state, WfState::Done))
            || self.outstanding > 0
            || self.l1.busy()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        // `tick` just computed and cached its end-of-tick busy value —
        // reuse it instead of re-scanning the resident waves and the L1.
        BurstOutcome {
            busy: self.was_busy,
            wake: self.blocked_wake(ctx.cycle()),
        }
    }

    snap_fields! {
        fn save_state + load_state {
            gpu: skipped(wiring),
            cu_raw: skipped(wiring),
            name: skipped(wiring),
            wiring: skipped(wiring),
            gpus_per_cluster: skipped(config),
            frames_per_gpu: skipped(config),
            max_waves: skipped(config),
            max_outstanding: skipped(config),
            max_loads_per_wave: skipped(config),
            full_sector_mask: skipped(config),
            id_base: skipped(wiring),
            l1,
            l1_tlb,
            resident,
            pending,
            rr,
            ids,
            trans_waiters,
            read_waiters,
            issue_times,
            outstanding,
            // The catch-up anchor is part of the dynamic state: an
            // event-driven snapshot may be taken mid-sleep, with the skipped
            // cycles' idle credit and retry side effects still pending — the
            // restored run finishes the catch-up from the same anchor under
            // any scheduler.
            last_tick,
            was_busy,
            stats,
        }
        validate Self::check_waiters
    }
}

impl Cu {
    /// Every parked access must point at a resident wavefront.
    fn check_waiters(&self) -> Result<(), SnapshotError> {
        let waves = self.resident.len();
        for (which, waiters) in [
            ("translation", &self.trans_waiters),
            ("read", &self.read_waiters),
        ] {
            if let Some((id, wf_ix)) = waiters.iter().find(|&(_, &wf_ix)| wf_ix >= waves) {
                return Err(SnapshotError::Corrupt(format!(
                    "{which} waiter {id} points at wavefront {wf_ix} of {waves}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::access::AccessKind;
    use netcrafter_proto::LineMask;
    use netcrafter_proto::{CtaId, MemRsp, SystemConfig, VAddr, WavefrontId};
    use netcrafter_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};
    use netcrafter_sim::EngineBuilder;
    use std::sync::Arc;
    use std::sync::Mutex;

    #[test]
    fn unknown_wavefront_state_tags_are_rejected() {
        let got = WfState::load(&mut SnapshotReader::new(&[9]));
        assert_eq!(
            got.unwrap_err(),
            SnapshotError::Corrupt("WfState tag 9".to_string())
        );
    }

    /// Answers translations (identity: pfn = vpn + base) and memory
    /// requests (full-line fills) after fixed delays.
    struct Backend {
        reqs: Arc<Mutex<Vec<MemReq>>>,
        trans: Arc<Mutex<Vec<TransReq>>>,
        mem_latency: u64,
        pfn_base: u64,
    }
    impl Component for Backend {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                match msg {
                    Message::TransReq(req) => {
                        self.trans.lock().unwrap().push(req);
                        ctx.send(
                            netcrafter_sim::ComponentId(0),
                            Message::TransRsp(netcrafter_proto::TransRsp {
                                access: req.access,
                                vpn: req.vpn,
                                pfn: req.vpn + self.pfn_base,
                                cu: req.cu,
                            }),
                            5,
                        );
                    }
                    Message::MemReq(req) => {
                        self.reqs.lock().unwrap().push(req);
                        ctx.send(
                            netcrafter_sim::ComponentId(0),
                            Message::MemRsp(MemRsp::for_req(&req, req.sectors)),
                            self.mem_latency,
                        );
                    }
                    other => panic!("backend got {}", other.label()),
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "backend"
        }
        fn next_wake(&self, _now: Cycle) -> Wake {
            Wake::OnMessage
        }
    }

    fn wave(id: u32, ops: Vec<WavefrontOp>) -> WavefrontTrace {
        WavefrontTrace {
            id: WavefrontId(id),
            cta: CtaId(0),
            ops,
        }
    }

    struct H {
        engine: netcrafter_sim::Engine,
        cu: ComponentId,
        reqs: Arc<Mutex<Vec<MemReq>>>,
        trans: Arc<Mutex<Vec<TransReq>>>,
    }

    fn harness(waves: Vec<WavefrontTrace>, pfn_base: u64) -> H {
        let mut cfg = SystemConfig::small(1);
        cfg.max_waves_per_cu = 4;
        harness_with(&cfg, waves, pfn_base, 50)
    }

    fn harness_with(
        cfg: &SystemConfig,
        waves: Vec<WavefrontTrace>,
        pfn_base: u64,
        mem_latency: u64,
    ) -> H {
        let mut b = EngineBuilder::new();
        let cu_id = b.reserve(); // must be ComponentId(0): Backend replies there
        let be = b.reserve();
        let reqs = Arc::new(Mutex::new(Vec::new()));
        let trans = Arc::new(Mutex::new(Vec::new()));
        b.install(
            be,
            Box::new(Backend {
                reqs: Arc::clone(&reqs),
                trans: Arc::clone(&trans),
                mem_latency,
                pfn_base,
            }),
        );
        b.install(
            cu_id,
            Box::new(Cu::new(
                GpuId(0),
                netcrafter_proto::CuId(0),
                cfg,
                waves,
                CuWiring {
                    gmmu: be,
                    l2: be,
                    rdma: be,
                },
            )),
        );
        H {
            engine: b.build(),
            cu: cu_id,
            reqs,
            trans,
        }
    }

    #[test]
    fn read_misses_translate_then_fetch() {
        let w = wave(
            0,
            vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1000), 8))],
        );
        let mut h = harness(vec![w], 0);
        let _ = h.cu;
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.trans.lock().unwrap().len(), 1, "one TLB miss");
        assert_eq!(h.reqs.lock().unwrap().len(), 1, "one L1 miss");
        let req = h.reqs.lock().unwrap()[0];
        assert!(!req.write);
        assert_eq!(req.line.0, 0x1000);
    }

    #[test]
    fn tlb_and_l1_hits_skip_traffic() {
        // Two reads of the same line: second is an L1 + TLB hit.
        let w = wave(
            0,
            vec![
                WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1000), 8)),
                WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1008), 8)),
            ],
        );
        let mut h = harness(vec![w], 0);
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.trans.lock().unwrap().len(), 1);
        assert_eq!(h.reqs.lock().unwrap().len(), 1);
    }

    #[test]
    fn writes_are_posted_write_through() {
        let w = wave(
            0,
            vec![
                WavefrontOp::Mem(CoalescedAccess::write(VAddr(0x1000), 64)),
                WavefrontOp::Compute(3),
            ],
        );
        let mut h = harness(vec![w], 0);
        h.engine.run_to_quiescence(10_000);
        let reqs = h.reqs.lock().unwrap();
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0].write);
    }

    #[test]
    fn wavefronts_overlap_their_misses() {
        // Two wavefronts each read a distinct line; with 50-cycle memory
        // the runs overlap, so both requests are issued before either
        // response arrives.
        let w0 = wave(
            0,
            vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1000), 8))],
        );
        let w1 = wave(
            1,
            vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x2000), 8))],
        );
        let mut h = harness(vec![w0, w1], 0);
        // Run just past issue: both memory requests out by cycle ~40
        // (translation round-trip ~10 + L1 lookup 20).
        h.engine.run_while(60, |_| true);
        assert_eq!(h.reqs.lock().unwrap().len(), 2, "misses overlap");
        h.engine.run_to_quiescence(10_000);
    }

    #[test]
    fn remote_lines_route_to_rdma_target() {
        // pfn_base pushes the PA into gpu1's partition; wiring routes all
        // targets to the same backend, but the request's owner records it.
        let frames = 1u64 << 24;
        let w = wave(
            0,
            vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1000), 8))],
        );
        let mut h = harness(vec![w], frames);
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.reqs.lock().unwrap()[0].owner, GpuId(1));
    }

    #[test]
    fn compute_ops_take_their_cycles() {
        let w = wave(0, vec![WavefrontOp::Compute(100)]);
        let mut h = harness(vec![w], 0);
        let end = h.engine.run_to_quiescence(10_000);
        assert!(end >= 100, "compute burns 100 cycles, got {end}");
        assert!(h.reqs.lock().unwrap().is_empty());
    }

    #[test]
    fn trace_with_mixed_ops_completes() {
        let mut ops = Vec::new();
        for i in 0..10u64 {
            ops.push(WavefrontOp::Compute(2));
            ops.push(WavefrontOp::Mem(CoalescedAccess::with_mask(
                VAddr(0x1000 + i * 64),
                if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                LineMask::span(0, 8),
            )));
        }
        let waves = (0..4).map(|i| wave(i, ops.clone())).collect();
        let mut h = harness(waves, 0);
        h.engine.run_to_quiescence(100_000);
        assert!(h.reqs.lock().unwrap().len() >= 10);
    }

    /// One CU whose single L1 MSHR is held by a 500-cycle fill of line Z
    /// (requested at 1076, back at 1576) while wave 1 retries a read of a
    /// missing sector of the resident line X: every attempt stalls, burns
    /// an access id, counts an MSHR stall and re-stamps X. Wave 2 hits
    /// the other resident line, Y, at 1568 — in a tick whose retry pass
    /// stamps X too, and the last tick before the fill. Ticked every
    /// cycle, X is stamped 1575 when Z arrives and Y is the victim; with
    /// X left at 1568 the tie would evict X, the lower way.
    fn blocked_behind_a_long_fill(mode: netcrafter_sim::SchedulerMode) -> H {
        let mut cfg = SystemConfig::small(1).with_sector_cache();
        cfg.max_waves_per_cu = 4;
        cfg.max_loads_per_wave = 1;
        cfg.l1.size_bytes = 128; // one set of two lines
        cfg.l1.ways = 2;
        cfg.l1.mshr_entries = 1;
        let read = |va: u64| WavefrontOp::Mem(CoalescedAccess::read(VAddr(va), 8));
        let (x, y, z) = (0x1000, 0x1040, 0x1080);
        let waves = vec![
            // Fills X, then Y, then holds the MSHR for Z.
            wave(0, vec![read(x), read(y), read(z)]),
            // Sector 3 of X is not resident, and the MSHR is taken.
            wave(1, vec![WavefrontOp::Compute(1200), read(x + 48)]),
            wave(2, vec![WavefrontOp::Compute(1565), read(y)]),
        ];
        let mut h = harness_with(&cfg, waves, 0, 500);
        h.engine.set_scheduler(mode);
        h
    }

    #[test]
    fn parked_retries_cost_no_ticks_and_settle_to_the_per_cycle_state() {
        use netcrafter_sim::SchedulerMode;
        type Observed = (u64, u64, u64, Vec<u8>, u64, usize);
        let finish = |mut h: H| -> Observed {
            h.engine.run_to_quiescence(10_000);
            let cu: &Cu = h.engine.get(h.cu).expect("cu");
            let mut l1 = SnapshotWriter::new();
            cu.l1.save(&mut l1);
            (
                cu.stats.idle_cycles,
                cu.l1.mshr_stalls(),
                cu.ids.issued(),
                l1.into_bytes(),
                cu.l1.stats.sector_misses,
                h.reqs.lock().unwrap().len(),
            )
        };
        let legacy = finish(blocked_behind_a_long_fill(SchedulerMode::Legacy));

        let mut h = blocked_behind_a_long_fill(SchedulerMode::EventDriven);
        // Wave 1 has been retrying since 1202; nothing is due before
        // wave 2's deadline.
        h.engine.run_until(1_250);
        let cu: &Cu = h.engine.get(h.cu).expect("cu");
        assert!(
            matches!(cu.resident[1].state, WfState::RetryAccess(..)),
            "wave 1 is retrying at 1250"
        );
        // One issue per cycle: wave 2 started its compute phase at cycle 3.
        assert_eq!(
            cu.blocked_wake(1_250),
            Wake::At(1_568),
            "asleep until wave 2"
        );
        let (ticks, stalls, ids) = (
            h.engine.ticks_executed(),
            cu.l1.mshr_stalls(),
            cu.ids.issued(),
        );
        h.engine.run_until(1_550);
        let cu: &Cu = h.engine.get(h.cu).expect("cu");
        assert_eq!(
            h.engine.ticks_executed(),
            ticks,
            "300 parked cycles, no tick"
        );
        assert_eq!(
            (cu.l1.mshr_stalls(), cu.ids.issued()),
            (stalls, ids),
            "the skipped attempts are booked by the next tick, not before"
        );
        let event_driven = finish(h);

        assert!(legacy.1 > 350, "a stall per parked cycle: {}", legacy.1);
        assert_eq!(legacy.5, 4, "X, Y, Z and sector 3 of X are fetched");
        assert_eq!(legacy.4, 1, "X survived the fill of Z");
        assert_eq!(event_driven, legacy);
    }
}
