//! The Cluster Queue and Stitching Engine (§4.2, §4.4): the egress-side
//! heart of the NetCrafter controller.
//!
//! Flits destined to cross the inter-cluster link are buffered in
//! per-packet-type partitions (the request type determines how many empty
//! bytes a flit has — Table 1). A round-robin scheduler drains the
//! partitions; when Sequencing is enabled the partitions holding
//! PTW-related flits are served first. On each ejection the Stitching
//! Engine searches the partitions for candidate flits that (1) fit in the
//! parent's empty bytes and (2) share the destination cluster (guaranteed
//! here: one Cluster Queue serves one inter-cluster port), stitching as
//! many as fit. A parent that found no candidate may be *pooled* — moved
//! to a per-partition side slot for a bounded window so a candidate can
//! arrive — unless it is latency-critical (Selective Flit Pooling) or the
//! window is disabled. Two refinements keep pooling's latency cost below
//! its bandwidth win: the partition behind a pooled flit keeps flowing
//! (only the pooled flit pays the delay), and an arriving flit that fits
//! a pooled parent stitches immediately, releasing it before the timer.
//!
//! Stitched flits are re-addressed to the remote cluster switch, whose
//! routing stage un-stitches them and forwards each chunk to its own GPU
//! (see [`netcrafter_net::Switch`]).

use std::collections::VecDeque;
use std::num::NonZeroU32;

use netcrafter_net::EgressQueue;
use netcrafter_proto::{
    Flit, Metrics, NetCrafterConfig, NodeId, PacketKind, Pooling, ALL_PACKET_KINDS,
};
use netcrafter_sim::snapshot::SnapshotError;
use netcrafter_sim::{snap_fields, Cycle, EventClass, Tracer};

/// Smallest parent free space worth pooling for: a 4-byte write response
/// (whole packet, no metadata) is the smallest useful candidate, so
/// parents with at least 4 free bytes may wait for one. This matters for
/// the Selective Flit Pooling comparison: PTW flits have exactly 4 empty
/// bytes, so under *plain* pooling they wait too — the latency cost
/// Selective Flit Pooling removes (§4.2, Optimization II).
const MIN_POOL_BYTES: u32 = 4;

/// Cluster Queue statistics (Figures 12 and 20 derive from these).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterQueueStats {
    /// Flits accepted into the queue.
    pub pushed: u64,
    /// Flits ejected into the link.
    pub popped: u64,
    /// Ejected flits that carried stitched content.
    pub stitched_parents: u64,
    /// Candidate flits absorbed into parents (each absorbed candidate is
    /// one flit that never occupies the link on its own).
    pub absorbed_candidates: u64,
    /// Times a parent was pooled to wait for candidates.
    pub pool_events: u64,
    /// Pooled parents ejected un-stitched after their window expired.
    pub pool_expired_unstitched: u64,
    /// Pops served from the PTW-priority partitions under Sequencing.
    pub ptw_priority_pops: u64,
    /// High-water mark of total occupancy.
    pub peak_occupancy: u64,
}

snap_fields! {
    impl Snap for ClusterQueueStats {
        pushed, popped, stitched_parents, absorbed_candidates, pool_events,
        pool_expired_unstitched, ptw_priority_pops, peak_occupancy,
    }
}

impl ClusterQueueStats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.cq.pushed"), self.pushed);
        metrics.add(&format!("{prefix}.cq.popped"), self.popped);
        metrics.add(
            &format!("{prefix}.cq.stitched_parents"),
            self.stitched_parents,
        );
        metrics.add(&format!("{prefix}.cq.absorbed"), self.absorbed_candidates);
        metrics.add(&format!("{prefix}.cq.pool_events"), self.pool_events);
        metrics.add(
            &format!("{prefix}.cq.pool_expired_unstitched"),
            self.pool_expired_unstitched,
        );
        metrics.add(
            &format!("{prefix}.cq.ptw_priority_pops"),
            self.ptw_priority_pops,
        );
        metrics.add(&format!("{prefix}.cq.peak_occupancy"), self.peak_occupancy);
    }
}

/// The NetCrafter Cluster Queue for one inter-cluster egress port.
///
/// # Examples
///
/// Two read-response tails stitch into one flit (the paper's first
/// Figure 11 scenario):
///
/// ```
/// use netcrafter_core::ClusterQueue;
/// use netcrafter_net::{EgressQueue, Segmenter};
/// use netcrafter_proto::{
///     AccessId, GpuId, LineAddr, LineMask, MemRsp, NetCrafterConfig, NodeId, Origin,
///     Packet, PacketId, PacketKind, PacketPayload, TrafficClass,
/// };
///
/// let seg = Segmenter::new(16);
/// let mut cq = ClusterQueue::new(NetCrafterConfig::stitching_only(), NodeId(5));
/// for id in 0..2u64 {
///     let rsp = Packet {
///         id: PacketId(id),
///         kind: PacketKind::ReadRsp,
///         src: NodeId(0),
///         dst: NodeId(3),
///         payload_bytes: 64,
///         trim: None,
///         inner: PacketPayload::Rsp(MemRsp {
///             access: AccessId(id),
///             line: LineAddr(id * 64),
///             write: false,
///             sectors_valid: 0b1111,
///             class: TrafficClass::Data,
///             requester: GpuId(3),
///             owner: GpuId(0),
///             origin: Origin::Cu(0),
///         }),
///     };
///     for flit in seg.segment(rsp) {
///         cq.push(flit, 0);
///     }
/// }
/// // 10 flits went in; the second packet's 4-byte tail rides inside the
/// // first packet's tail, so only 9 come out.
/// let mut out = Vec::new();
/// let mut now = 0;
/// while cq.len() > 0 {
///     now += 1;
///     out.extend(cq.pop(now));
/// }
/// assert_eq!(out.len(), 9);
/// assert_eq!(out.iter().filter(|f| f.is_stitched()).count(), 1);
/// ```
#[derive(Debug)]
pub struct ClusterQueue {
    cfg: NetCrafterConfig,
    /// Node of the cluster switch on the far end of this port's link;
    /// stitched flits are addressed to it for un-stitching.
    remote_switch: NodeId,
    queues: [VecDeque<Flit>; 6],
    /// Per-partition pooling side slot: a parent waiting (until the given
    /// cycle) for a stitch candidate. The partition behind it keeps
    /// flowing — only the pooled flit pays the window.
    pooled: [Option<(Flit, Cycle)>; 6],
    rr: usize,
    len: usize,
    /// Statistics.
    pub stats: ClusterQueueStats,
}

impl ClusterQueue {
    /// Creates the queue for a port whose far end is `remote_switch`.
    pub fn new(cfg: NetCrafterConfig, remote_switch: NodeId) -> Self {
        Self {
            cfg,
            remote_switch,
            queues: Default::default(),
            pooled: Default::default(),
            rr: 0,
            len: 0,
            stats: ClusterQueueStats::default(),
        }
    }

    #[inline]
    fn is_ptw_partition(qi: usize) -> bool {
        ALL_PACKET_KINDS[qi].is_ptw()
    }

    /// The partition a flit queues in: its leading chunk's packet type.
    #[inline]
    fn partition_of(flit: &Flit) -> usize {
        flit.chunks[0].kind.index()
    }

    /// The partitions Sequencing serves first at this pop: none when it
    /// is off, or while the controller is still inside its warmup window
    /// (`active` false, see [`NetCrafterConfig::active_at`]), so warmup
    /// behaviour is knob-independent.
    fn prioritized(&self, active: bool) -> Option<[usize; 2]> {
        match self.cfg.sequencing {
            Some(priority) if active => Some(priority.kinds().map(PacketKind::index)),
            _ => None,
        }
    }

    /// Service order for this pop: the prioritized partitions first
    /// (PTW, or data reads in Figure 8's counterfactual), then the rest
    /// in round-robin order.
    fn service_order(&self, active: bool) -> [usize; 6] {
        let priority = self.prioritized(active);
        let mut order = [0usize; 6];
        let mut n = 0;
        for qi in priority.into_iter().flatten() {
            order[n] = qi;
            n += 1;
        }
        for step in 0..6 {
            let qi = (self.rr + step) % 6;
            if !priority.is_some_and(|p| p.contains(&qi)) {
                order[n] = qi;
                n += 1;
            }
        }
        debug_assert_eq!(n, 6);
        order
    }

    /// Absorbs every candidate that fits into `parent`, best-fit first.
    /// Returns the number of candidates stitched.
    fn stitch_into(&mut self, parent: &mut Flit) -> u64 {
        let mut absorbed = 0;
        loop {
            // A full parent (four of the five flits of a read response)
            // fits nothing: every chunk occupies at least one byte.
            let room = parent.empty_bytes();
            if room == 0 {
                break;
            }
            let mut best: Option<(usize, usize, u32)> = None;
            'scan: for qi in 0..6 {
                for (pos, cand) in self.queues[qi]
                    .iter()
                    .enumerate()
                    .take(self.cfg.stitch_search_depth as usize)
                {
                    if let Some(cost) = parent.stitch_cost_in(room, cand) {
                        if best.is_none_or(|(_, _, c)| cost > c) {
                            best = Some((qi, pos, cost));
                            // No cost exceeds `room`, and a later perfect
                            // fit only ties: this is the choice.
                            if cost == room {
                                break 'scan;
                            }
                        }
                    }
                }
            }
            let Some((qi, pos, _)) = best else { break };
            let cand = self.queues[qi].remove(pos).expect("position valid");
            self.len -= 1;
            parent.stitch(cand);
            absorbed += 1;
        }
        absorbed
    }

    /// The window partition `qi` pools for, if it may pool: pooling is
    /// on, and the partition is not exempt (PTW partitions are exempt
    /// under Selective Flit Pooling, and the Sequencing design never sets
    /// their timer — §4.4 step 4e).
    fn pool_window(&self, qi: usize) -> Option<NonZeroU32> {
        let ptw = Self::is_ptw_partition(qi);
        match self.cfg.stitching? {
            Pooling::All { window } if !(ptw && self.cfg.sequencing.is_some()) => Some(window),
            Pooling::Selective { window } if !ptw => Some(window),
            _ => None,
        }
    }

    /// Final bookkeeping for an ejecting flit: statistics, re-addressing
    /// of stitched parents, and round-robin advance. `active` gates the
    /// Sequencing accounting the same way it gates `service_order`.
    fn finish(&mut self, mut parent: Flit, qi: usize, active: bool, tracer: &mut Tracer) -> Flit {
        if parent.is_stitched() {
            self.stats.stitched_parents += 1;
            parent.dst = self.remote_switch;
            tracer.instant(
                EventClass::Stitch,
                "stitch.eject",
                Self::flit_id(&parent),
                parent.chunks.len() as u64 - 1,
            );
        }
        self.stats.popped += 1;
        if self.prioritized(active).is_some_and(|p| p.contains(&qi)) {
            self.stats.ptw_priority_pops += 1;
            tracer.instant(
                EventClass::Seq,
                "seq.priority_pop",
                Self::flit_id(&parent),
                qi as u64,
            );
        } else {
            // Advance round-robin past the partition just served.
            self.rr = (qi + 1) % 6;
        }
        parent
    }

    /// Total flits held (for tests and diagnostics).
    pub fn occupancy(&self) -> usize {
        self.len
    }

    /// Convenience pop without a tracer, for tests, benches and doctests.
    /// Simulation code goes through [`EgressQueue::pop`], which threads
    /// the engine's tracer so stitch/pool/sequence decisions are visible
    /// in traces.
    pub fn pop(&mut self, now: Cycle) -> Option<Flit> {
        let mut tracer = Tracer::off();
        EgressQueue::pop(self, now, &mut tracer)
    }

    #[inline]
    fn flit_id(flit: &Flit) -> u64 {
        flit.chunks.first().map_or(0, |c| c.packet.0)
    }
}

impl EgressQueue for ClusterQueue {
    fn push(&mut self, flit: Flit, now: Cycle) {
        self.stats.pushed += 1;
        // Stitch-on-arrival: a pooled parent is waiting for exactly this
        // kind of arrival. If the new flit fits one, stitch immediately
        // and make the parent ready to eject — the wait ends the moment
        // its purpose is served, rather than at timer expiry when
        // transient candidates have long drained.
        if self.cfg.stitching.is_some() && self.cfg.active_at(now) {
            for qi in 0..6 {
                if let Some((parent, until)) = self.pooled[qi].as_mut() {
                    if parent.stitch_cost(&flit).is_some() {
                        parent.stitch(flit);
                        self.stats.absorbed_candidates += 1;
                        *until = now; // ready at the partition's next turn
                        return;
                    }
                }
            }
        }
        self.len += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.len as u64);
        self.queues[Self::partition_of(&flit)].push_back(flit);
    }

    fn pop(&mut self, now: Cycle, tracer: &mut Tracer) -> Option<Flit> {
        // Inside the warmup window every policy is inert: plain round-robin
        // service, no stitching, no pooling, no sequencing. This makes the
        // pre-activation trajectory identical across all knob settings that
        // share a roster, which is what lets sweep jobs share one simulated
        // prefix (see DESIGN.md §3.7).
        let active = self.cfg.active_at(now);
        for qi in self.service_order(active) {
            // 1. A ripe pooled flit leaves first: its window expired (or
            //    a candidate arrived and cleared the timer). One last
            //    candidate search runs before ejection (§4.4 step 4f).
            if self.pooled[qi]
                .as_ref()
                .is_some_and(|(_, until)| *until <= now)
            {
                let (mut parent, _) = self.pooled[qi].take().expect("checked above");
                self.len -= 1;
                let absorbed = if self.cfg.stitching.is_some() && active {
                    self.stitch_into(&mut parent)
                } else {
                    0
                };
                if absorbed == 0 && !parent.is_stitched() {
                    self.stats.pool_expired_unstitched += 1;
                    tracer.instant(EventClass::Pool, "pool.expired", Self::flit_id(&parent), 0);
                }
                self.stats.absorbed_candidates += absorbed;
                return Some(self.finish(parent, qi, active, tracer));
            }
            // 2. The regular front of the partition. If the front moves
            //    to the pooling side slot, the next flit behind it is
            //    considered in the same turn — pooling never stalls the
            //    partition, only the pooled flit.
            while let Some(mut parent) = self.queues[qi].pop_front() {
                let absorbed = if self.cfg.stitching.is_some() && active {
                    self.stitch_into(&mut parent)
                } else {
                    0
                };
                if absorbed == 0
                    && active
                    && parent.empty_bytes() >= MIN_POOL_BYTES
                    && self.pooled[qi].is_none()
                {
                    if let Some(window) = self.pool_window(qi) {
                        // Pool into the side slot; try the next flit.
                        self.stats.pool_events += 1;
                        tracer.instant(
                            EventClass::Pool,
                            "pool.park",
                            Self::flit_id(&parent),
                            parent.empty_bytes() as u64,
                        );
                        self.pooled[qi] = Some((parent, now + Cycle::from(window.get())));
                        continue;
                    }
                }
                self.len -= 1;
                self.stats.absorbed_candidates += absorbed;
                return Some(self.finish(parent, qi, active, tracer));
            }
        }
        None
    }

    fn len(&self) -> usize {
        self.len
    }

    fn pooled_len(&self) -> usize {
        self.pooled.iter().filter(|slot| slot.is_some()).count()
    }

    fn held_chunks(&self) -> usize {
        // Exact count for the owning port's debug-build conservation
        // invariant: stitching moves chunks between held flits (and into
        // the ejecting parent) but never creates or destroys them.
        let queued: usize = self
            .queues
            .iter()
            .flat_map(|q| q.iter())
            .map(|f| f.chunks.len())
            .sum();
        let pooled: usize = self
            .pooled
            .iter()
            .flatten()
            .map(|(f, _)| f.chunks.len())
            .sum();
        queued + pooled
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // Any un-pooled flit can be served (or parked) immediately; with
        // only pooled parents left, nothing happens until the earliest
        // window expires — pops in between are side-effect-free, so the
        // owning port may sleep until then.
        if self.queues.iter().any(|q| !q.is_empty()) {
            return Some(now);
        }
        self.pooled.iter().flatten().map(|(_, until)| *until).min()
    }

    fn report(&self, metrics: &mut Metrics, prefix: &str) {
        self.stats.report(metrics, prefix);
    }

    snap_fields! {
        fn save + load_into {
            cfg: skipped(config),
            remote_switch: skipped(wiring),
            queues,
            pooled,
            rr,
            len: skipped(derived),
            stats,
        }
        validate Self::finish_restore
    }
}

impl ClusterQueue {
    fn finish_restore(&mut self) -> Result<(), SnapshotError> {
        if self.rr >= self.queues.len() {
            return Err(SnapshotError::Corrupt(format!(
                "cluster queue round-robin cursor {} out of range",
                self.rr
            )));
        }
        // Occupancy is derived, not stored: recomputing it keeps the
        // counter consistent with the restored queues by construction.
        self.len = self.queues.iter().map(VecDeque::len).sum::<usize>()
            + self.pooled.iter().flatten().count();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::{Chunk, PacketId, Priority, TrafficClass};

    fn chunk(packet: u64, kind: PacketKind, bytes: u32, has_header: bool, is_tail: bool) -> Chunk {
        Chunk {
            packet: PacketId(packet),
            kind,
            bytes,
            meta_bytes: 0,
            has_header,
            is_tail,
            seq: if has_header { 0 } else { 4 },
            dst: NodeId(2),
            class: if kind.is_ptw() {
                TrafficClass::Ptw
            } else {
                TrafficClass::Data
            },
            packet_info: None,
        }
    }

    /// A read-response tail flit: 4 B used, 12 empty.
    fn rsp_tail(id: u64) -> Flit {
        Flit::single(16, chunk(id, PacketKind::ReadRsp, 4, false, true))
    }

    /// A whole read-request flit: 12 B used, 4 empty.
    fn read_req(id: u64) -> Flit {
        Flit::single(16, chunk(id, PacketKind::ReadReq, 12, true, true))
    }

    /// A whole write-response flit: 4 B used, 12 empty.
    fn write_rsp(id: u64) -> Flit {
        Flit::single(16, chunk(id, PacketKind::WriteRsp, 4, true, true))
    }

    /// A whole page-table response flit: 12 B used.
    fn pt_rsp(id: u64) -> Flit {
        Flit::single(16, chunk(id, PacketKind::PageTableRsp, 12, true, true))
    }

    fn cq(cfg: NetCrafterConfig) -> ClusterQueue {
        ClusterQueue::new(cfg, NodeId(99))
    }

    #[test]
    fn held_chunks_conserved_through_stitching_and_pooling() {
        // Backs the EgressPort debug-build conservation invariant: chunks
        // pushed == chunks popped + held_chunks(), even while stitching
        // merges flits and pooling parks them in side slots.
        let mut q = cq(NetCrafterConfig::full());
        let mut pushed = 0usize;
        let mut popped = 0usize;
        for id in 0..6u64 {
            let f = if id % 2 == 0 {
                read_req(id)
            } else {
                rsp_tail(id)
            };
            pushed += f.chunks.len();
            q.push(f, 0);
            assert_eq!(pushed, popped + q.held_chunks());
        }
        // Drain across the pooling window so parked parents eject too.
        for now in 0..200u64 {
            while let Some(f) = q.pop(now) {
                popped += f.chunks.len();
                assert_eq!(pushed, popped + q.held_chunks());
            }
        }
        assert_eq!(q.held_chunks(), 0, "queue drained");
        assert_eq!(pushed, popped, "every chunk pushed was ejected");
    }

    #[test]
    fn fifo_when_everything_disabled() {
        let mut q = cq(NetCrafterConfig::disabled());
        q.push(read_req(1), 0);
        q.push(rsp_tail(2), 0);
        let a = q.pop(1).unwrap();
        let b = q.pop(1).unwrap();
        assert_eq!(a.chunks[0].packet, PacketId(1));
        assert_eq!(b.chunks[0].packet, PacketId(2));
        assert!(q.pop(1).is_none());
        assert!(!a.is_stitched() && !b.is_stitched());
    }

    #[test]
    fn stitches_read_rsp_tails_back_to_back() {
        // The paper's first Figure 11 scenario: two read-response tails.
        let mut q = cq(NetCrafterConfig::stitching_only());
        q.push(rsp_tail(1), 0);
        q.push(rsp_tail(2), 0);
        let parent = q.pop(1).unwrap();
        assert!(parent.is_stitched());
        assert_eq!(parent.chunks.len(), 2);
        assert_eq!(
            parent.used_bytes(),
            4 + 4 + 2,
            "partial payload pays 2 B metadata"
        );
        assert_eq!(parent.dst, NodeId(99), "re-addressed to remote switch");
        assert!(q.pop(1).is_none(), "candidate was absorbed");
        assert_eq!(q.stats.absorbed_candidates, 1);
    }

    #[test]
    fn stitches_across_types_best_fit_first() {
        let mut q = cq(NetCrafterConfig::stitching_only());
        // Round-robin starts at the ReadReq partition, so the read-req is
        // the parent (12 B used, 4 empty). Candidates: a write-rsp (cost
        // 4, fits exactly) and a rsp tail (cost 4 + 2 = 6, does not fit).
        // Best fit picks the write-rsp.
        q.push(rsp_tail(1), 0);
        q.push(write_rsp(2), 0);
        q.push(read_req(3), 0);
        let parent = q.pop(1).unwrap();
        assert_eq!(parent.chunks.len(), 2);
        assert_eq!(parent.chunks[0].packet, PacketId(3));
        assert_eq!(parent.chunks[1].packet, PacketId(2));
        assert_eq!(parent.empty_bytes(), 0);
        // The rsp tail is still queued and ejects alone.
        let leftover = q.pop(1).unwrap();
        assert_eq!(leftover.chunks[0].packet, PacketId(1));
        assert!(!leftover.is_stitched());
    }

    /// The first perfect fit in scan order wins over a smaller fit
    /// scanned before it and a second perfect fit scanned after it.
    #[test]
    fn first_perfect_fit_is_chosen() {
        let mut q = cq(NetCrafterConfig::stitching_only());
        q.push(rsp_tail(1), 0); // the parent: 12 B empty
        q.push(write_rsp(2), 0); // fits, cost 4
        q.push(pt_rsp(3), 0); // perfect fit, cost 12
        q.push(pt_rsp(4), 0); // perfect fit, cost 12
        let parent = q.pop(1).unwrap();
        let packets: Vec<_> = parent.chunks.iter().map(|c| c.packet).collect();
        assert_eq!(packets, [PacketId(1), PacketId(3)]);
        assert_eq!(parent.empty_bytes(), 0);
        assert_eq!(q.occupancy(), 2);
    }

    #[test]
    fn multiple_small_candidates_fill_parent() {
        let mut q = cq(NetCrafterConfig::stitching_only());
        q.push(rsp_tail(1), 0); // 12 empty
        q.push(write_rsp(2), 0); // 4 B
        q.push(write_rsp(3), 0); // 4 B
        q.push(write_rsp(4), 0); // 4 B
        let parent = q.pop(1).unwrap();
        assert_eq!(parent.chunks.len(), 4, "parent + three 4 B candidates");
        assert_eq!(parent.empty_bytes(), 0);
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn pooling_delays_lonely_parent_until_candidate_arrives() {
        let mut cfg = NetCrafterConfig::stitching_only();
        cfg.stitching = Some(Pooling::new(32, false));
        let mut q = cq(cfg);
        q.push(rsp_tail(1), 0);
        // No candidate: the parent moves to the pooling side slot.
        assert!(q.pop(10).is_none());
        assert_eq!(q.stats.pool_events, 1);
        assert_eq!(q.occupancy(), 1);
        // A candidate arriving inside the window stitches on arrival and
        // makes the parent ready immediately — well before cycle 42.
        q.push(write_rsp(2), 20);
        let parent = q.pop(21).unwrap();
        assert!(parent.is_stitched());
        assert_eq!(parent.chunks[0].packet, PacketId(1));
        assert_eq!(parent.chunks[1].packet, PacketId(2));
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn pooling_does_not_block_the_partition_behind() {
        let mut cfg = NetCrafterConfig::stitching_only();
        cfg.stitching = Some(Pooling::new(32, false));
        let mut q = cq(cfg);
        q.push(rsp_tail(1), 0);
        // A full body flit queued behind the tail.
        q.push(
            Flit::single(16, chunk(9, PacketKind::ReadRsp, 16, true, false)),
            0,
        );
        // First pop pools the tail; the body flit is NOT stitchable into
        // it (16 > 12), and the partition keeps flowing: the same pop
        // call serves the body flit.
        let served = q.pop(5).unwrap();
        assert_eq!(served.chunks[0].packet, PacketId(9));
        assert_eq!(q.stats.pool_events, 1);
        // The pooled tail ejects at expiry.
        assert!(q.pop(36).is_none());
        let tail = q.pop(37).unwrap();
        assert_eq!(tail.chunks[0].packet, PacketId(1));
        assert!(!tail.is_stitched());
    }

    #[test]
    fn pool_expiry_ejects_unstitched() {
        let mut cfg = NetCrafterConfig::stitching_only();
        cfg.stitching = Some(Pooling::new(32, false));
        let mut q = cq(cfg);
        q.push(rsp_tail(1), 0);
        assert!(q.pop(5).is_none()); // pooled at 5, until 37
        assert!(q.pop(36).is_none(), "still inside the window");
        let parent = q.pop(37).unwrap();
        assert!(!parent.is_stitched());
        assert_eq!(q.stats.pool_expired_unstitched, 1);
    }

    #[test]
    fn selective_pooling_exempts_ptw_flits() {
        let mut cfg = NetCrafterConfig::stitching_only();
        cfg.stitching = Some(Pooling::new(32, true));
        let mut q = cq(cfg);
        q.push(pt_rsp(1), 0); // 12 B used, 4 empty: could pool, but exempt
        let f = q.pop(1).unwrap();
        assert!(!f.is_stitched());
        assert_eq!(q.stats.pool_events, 0, "PTW flits are never pooled");
        // A data flit still pools.
        q.push(rsp_tail(2), 1);
        assert!(q.pop(2).is_none());
        assert_eq!(q.stats.pool_events, 1);
    }

    #[test]
    fn sequencing_serves_ptw_first() {
        let mut cfg = NetCrafterConfig::disabled();
        cfg.sequencing = Some(Priority::Ptw);
        let mut q = cq(cfg);
        q.push(rsp_tail(1), 0);
        q.push(read_req(2), 0);
        q.push(pt_rsp(3), 0);
        let first = q.pop(1).unwrap();
        assert_eq!(
            first.chunks[0].packet,
            PacketId(3),
            "PTW jumps the data flits"
        );
        assert_eq!(q.stats.ptw_priority_pops, 1);
    }

    #[test]
    fn sequencing_does_not_starve_data() {
        let mut cfg = NetCrafterConfig::disabled();
        cfg.sequencing = Some(Priority::Ptw);
        let mut q = cq(cfg);
        q.push(pt_rsp(1), 0);
        q.push(rsp_tail(2), 0);
        assert_eq!(q.pop(1).unwrap().chunks[0].packet, PacketId(1));
        assert_eq!(q.pop(1).unwrap().chunks[0].packet, PacketId(2));
        assert!(q.pop(1).is_none());
    }

    /// Figure 8's counterfactual serves data reads where the design
    /// serves PTW flits.
    #[test]
    fn data_priority_serves_reads_first() {
        let mut cfg = NetCrafterConfig::disabled();
        cfg.sequencing = Some(Priority::Data);
        let mut q = cq(cfg);
        // After a write response, round-robin alone would serve the PTW
        // response partition before the read partitions.
        q.push(write_rsp(1), 0);
        q.pop(1).unwrap();
        q.push(pt_rsp(2), 1);
        q.push(rsp_tail(3), 1);
        assert_eq!(q.pop(2).unwrap().chunks[0].packet, PacketId(3));
        assert_eq!(q.stats.ptw_priority_pops, 1);
        assert_eq!(q.pop(2).unwrap().chunks[0].packet, PacketId(2));
    }

    #[test]
    fn warmup_window_makes_every_knob_inert() {
        // Before `warmup_cycles` the full NetCrafter config must behave
        // exactly like the disabled roster: round-robin service, no
        // stitching, no pooling, no sequencing priority.
        let mut cfg = NetCrafterConfig::full();
        cfg.warmup_cycles = 1_000;
        let mut q = cq(cfg);
        q.push(rsp_tail(1), 0); // would stitch/pool if active
        q.push(rsp_tail(2), 0);
        q.push(pt_rsp(3), 0); // would jump the queue under sequencing
        let a = q.pop(10).unwrap();
        let b = q.pop(10).unwrap();
        let c = q.pop(10).unwrap();
        assert!(!a.is_stitched() && !b.is_stitched() && !c.is_stitched());
        // Round-robin starting at partition 0 serves ReadRsp then PtRsp.
        assert_eq!(a.chunks[0].packet, PacketId(1));
        assert_eq!(b.chunks[0].packet, PacketId(3));
        assert_eq!(c.chunks[0].packet, PacketId(2));
        assert_eq!(q.stats.pool_events, 0);
        assert_eq!(q.stats.absorbed_candidates, 0);
        assert_eq!(q.stats.ptw_priority_pops, 0);
        assert_eq!(q.stats.stitched_parents, 0);
    }

    #[test]
    fn policies_activate_at_warmup_boundary() {
        let mut cfg = NetCrafterConfig::stitching_only();
        cfg.warmup_cycles = 100;
        let mut q = cq(cfg);
        // At cycle 99 the two tails eject separately…
        q.push(rsp_tail(1), 99);
        q.push(rsp_tail(2), 99);
        assert!(!q.pop(99).unwrap().is_stitched());
        assert!(!q.pop(99).unwrap().is_stitched());
        // …at cycle 100 they stitch.
        q.push(rsp_tail(3), 100);
        q.push(rsp_tail(4), 100);
        let parent = q.pop(100).unwrap();
        assert!(parent.is_stitched());
        assert_eq!(parent.chunks.len(), 2);
        assert!(q.pop(100).is_none());
    }

    #[test]
    fn warmup_trajectory_matches_across_roster_members() {
        // Two configs in the same prefix group (ClusterQueue roster, same
        // trimming, different policy knobs) must produce byte-identical
        // pop sequences while the warmup window is open.
        let mut a_cfg = NetCrafterConfig::full();
        a_cfg.warmup_cycles = 1_000;
        let mut b_cfg = NetCrafterConfig::stitching_only();
        b_cfg.sequencing = Some(Priority::Ptw);
        b_cfg.warmup_cycles = 1_000;
        let mut a = cq(a_cfg);
        let mut b = cq(b_cfg);
        for id in 0..12u64 {
            let f = match id % 3 {
                0 => read_req(id),
                1 => rsp_tail(id),
                _ => pt_rsp(id),
            };
            a.push(f.clone(), id);
            b.push(f, id);
        }
        for now in 12..40u64 {
            let fa = a.pop(now);
            let fb = b.pop(now);
            match (&fa, &fb) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.chunks[0].packet, y.chunks[0].packet);
                    assert_eq!(x.is_stitched(), y.is_stitched());
                }
                (None, None) => {}
                _ => panic!("divergent pop at cycle {now}: {fa:?} vs {fb:?}"),
            }
        }
        assert_eq!(a.occupancy(), 0);
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn round_robin_rotates_partitions() {
        let mut q = cq(NetCrafterConfig::disabled());
        // Two partitions with two flits each; service alternates.
        q.push(read_req(1), 0);
        q.push(read_req(2), 0);
        q.push(write_rsp(3), 0);
        q.push(write_rsp(4), 0);
        let order: Vec<u64> = (0..4)
            .map(|_| q.pop(1).unwrap().chunks[0].packet.raw())
            .collect();
        assert_eq!(order, vec![1, 3, 2, 4], "alternating service");
    }

    #[test]
    fn full_netcrafter_stitches_ptw_parent_without_pooling_it() {
        let mut q = cq(NetCrafterConfig::full());
        q.push(pt_rsp(1), 0); // parent, 4 empty
        q.push(write_rsp(2), 0); // 4 B candidate fits exactly
        let parent = q.pop(1).unwrap();
        assert!(parent.is_stitched());
        assert_eq!(parent.chunks.len(), 2);
        assert_eq!(parent.class(), TrafficClass::Ptw);
        assert_eq!(q.stats.pool_events, 0);
    }

    #[test]
    fn stitching_pulls_tail_from_behind_full_flits() {
        let mut q = cq(NetCrafterConfig::stitching_only());
        q.push(rsp_tail(1), 0); // parent
                                // A full body flit at the front of the ReadRsp queue… wait, the
                                // parent IS the front. Put a full header flit of packet 2 then its
                                // tail; the engine must skip the 16 B flit and take the 4 B tail.
        q.push(
            Flit::single(16, chunk(2, PacketKind::ReadRsp, 16, true, false)),
            0,
        );
        q.push(rsp_tail(2), 0);
        let parent = q.pop(1).unwrap();
        assert!(parent.is_stitched());
        assert_eq!(parent.chunks[1].packet, PacketId(2));
        assert!(parent.chunks[1].is_tail);
        // The body flit is still there.
        let body = q.pop(1).unwrap();
        assert_eq!(body.used_bytes(), 16);
    }

    #[test]
    fn occupancy_accounting_is_exact() {
        let mut cfg = NetCrafterConfig::stitching_only();
        cfg.stitching = Some(Pooling::new(16, false));
        let mut q = cq(cfg);
        for i in 0..5 {
            q.push(write_rsp(i), 0);
        }
        assert_eq!(q.occupancy(), 5);
        assert_eq!(q.stats.peak_occupancy, 5);
        // First pop: parent (4 used, 12 empty) absorbs three more 4 B
        // write responses (12 bytes).
        let parent = q.pop(1).unwrap();
        assert_eq!(parent.chunks.len(), 4);
        assert_eq!(q.occupancy(), 1);
        // The last flit pools (12 empty bytes, no candidates) and ejects
        // at expiry.
        assert!(q.pop(100).is_none());
        let last = q.pop(116).unwrap(); // 100 + 16-cycle window
        assert!(!last.is_stitched());
        assert_eq!(q.stats.pool_events, 1);
        assert_eq!(q.occupancy(), 0);
        assert_eq!(q.len(), 0);
    }
}
