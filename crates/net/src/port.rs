//! Egress ports: bounded output buffers, link rate limiting, credit-based
//! flow control, and per-port traffic statistics.
//!
//! An [`EgressPort`] is used by both switches (per output) and GPU RDMA
//! engines (toward their cluster switch). Its queue is a boxed
//! [`EgressQueue`] so that the inter-cluster egress of a cluster switch
//! can host NetCrafter's Cluster Queue instead of the plain FIFO — the
//! Cluster Queue performs Stitching, Flit Pooling and Sequencing inside
//! its `pop`.

use netcrafter_proto::{Flit, Message, Metrics, NodeId, TimeSeries, TrafficClass};
use netcrafter_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use netcrafter_sim::{snap_fields, ComponentId, Ctx, Cycle, EventClass, RateLimiter, Tracer, Wake};
use std::collections::VecDeque;

/// The queue behind an egress port. `pop` may return `None` even when the
/// queue is non-empty — that is exactly how Flit Pooling delays ejection.
/// Queues are `Send` because the [`netcrafter_sim::Component`] owning
/// them must be.
pub trait EgressQueue: Send {
    /// Enqueues a flit at cycle `now`.
    fn push(&mut self, flit: Flit, now: Cycle);

    /// Dequeues the next flit to transmit, if any is willing to go. The
    /// tracer is focused on the owning component; queues that make
    /// scheduling decisions (stitching, pooling, sequencing) emit their
    /// per-decision events through it.
    fn pop(&mut self, now: Cycle, tracer: &mut Tracer) -> Option<Flit>;

    /// Flits currently held.
    fn len(&self) -> usize;

    /// Flits currently parked in pooling side-slots (0 for queues that
    /// never pool). Integrated per cycle by the link telemetry: the
    /// per-window integral of this value is the aggregate pooling delay in
    /// flit-cycles (Little's law).
    fn pooled_len(&self) -> usize {
        0
    }

    /// True when no flit is held.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dumps queue-specific statistics under `prefix`.
    fn report(&self, metrics: &mut Metrics, prefix: &str) {
        let _ = (metrics, prefix);
    }

    /// The earliest cycle at which `pop` might return a flit: `Some(t)`
    /// with `t <= now` means "willing right now", a future `t` is a
    /// pooling-window expiry, and `None` means nothing is queued. Drives
    /// the event-driven wake of the owning port.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.is_empty() {
            None
        } else {
            Some(now)
        }
    }

    /// Total packet chunks held, counting pooled side-slots. This is the
    /// conserved quantity behind the debug-build flit-conservation
    /// invariant ([`EgressPort`] asserts `pushed == popped + held_chunks()`
    /// in chunks around every push and pop): stitching merges flits but
    /// never creates or destroys chunks. The default is only correct for
    /// queues that hold single-chunk flits exclusively; every in-tree
    /// queue overrides it with an exact count.
    fn held_chunks(&self) -> usize {
        self.len()
    }

    /// Appends the queue's dynamic state to `w` (part of the engine
    /// snapshot of the owning component).
    fn save(&self, w: &mut SnapshotWriter);

    /// Restores the state written by [`EgressQueue::save`] into this
    /// (identically configured) queue.
    fn load_into(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// The default strictly-FIFO egress queue.
#[derive(Debug, Default)]
pub struct FifoQueue {
    q: VecDeque<Flit>,
}

impl FifoQueue {
    /// Creates an empty FIFO.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EgressQueue for FifoQueue {
    fn push(&mut self, flit: Flit, _now: Cycle) {
        self.q.push_back(flit);
    }

    fn pop(&mut self, _now: Cycle, _tracer: &mut Tracer) -> Option<Flit> {
        self.q.pop_front()
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn held_chunks(&self) -> usize {
        self.q.iter().map(|f| f.chunks.len()).sum()
    }

    snap_fields! {
        fn save + load_into { q }
    }
}

/// Per-port transmit statistics, harvested for Figures 4, 6, 9, 12, 20
/// and 21.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    /// Flits transmitted.
    pub flits: u64,
    /// Occupied (useful) bytes transmitted, excluding padding.
    pub used_bytes: u64,
    /// Stitching metadata bytes transmitted (part of used capacity but
    /// protocol overhead).
    pub meta_bytes: u64,
    /// Cycles in which at least one flit was transmitted.
    pub busy_cycles: u64,
    /// Flits carrying more than one packet (stitched).
    pub stitched_flits: u64,
    /// Extra flits avoided by stitching: for a flit carrying `k` chunks,
    /// `k - 1` transmissions were saved.
    pub chunks: u64,
    /// Flits by padding percentage bucket (0, 25, 50, 75 — computed from
    /// the flit's empty bytes over its capacity).
    pub padding_hist: [u64; 4],
    /// Flits whose primary class is PTW vs data: `[data, ptw]`.
    pub class_flits: [u64; 2],
    /// Used bytes by class: `[data, ptw]`.
    pub class_bytes: [u64; 2],
    /// Flits by packet kind (Table 1 order), attributed per chunk.
    pub kind_chunks: [u64; 6],
}

impl PortStats {
    fn record(&mut self, flit: &Flit) {
        self.flits += 1;
        let used = flit.used_bytes() as u64;
        self.used_bytes += used;
        self.chunks += flit.chunks.len() as u64;
        if flit.is_stitched() {
            self.stitched_flits += 1;
        }
        let padding_pct = flit.empty_bytes() * 100 / flit.capacity;
        let bucket = (padding_pct / 25).min(3) as usize;
        self.padding_hist[bucket] += 1;
        let class_ix = usize::from(flit.class() == TrafficClass::Ptw);
        self.class_flits[class_ix] += 1;
        for chunk in &flit.chunks {
            self.meta_bytes += chunk.meta_bytes as u64;
            let cix = usize::from(chunk.class == TrafficClass::Ptw);
            self.class_bytes[cix] += chunk.wire_bytes() as u64;
            self.kind_chunks[chunk.kind.index()] += 1;
        }
    }

    /// Writes all counters under `prefix` into `metrics`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.flits"), self.flits);
        metrics.add(&format!("{prefix}.used_bytes"), self.used_bytes);
        metrics.add(&format!("{prefix}.meta_bytes"), self.meta_bytes);
        metrics.add(&format!("{prefix}.busy_cycles"), self.busy_cycles);
        metrics.add(&format!("{prefix}.stitched_flits"), self.stitched_flits);
        metrics.add(&format!("{prefix}.chunks"), self.chunks);
        for (i, count) in self.padding_hist.iter().enumerate() {
            metrics.add(&format!("{prefix}.padding{}", i * 25), *count);
        }
        metrics.add(&format!("{prefix}.data_flits"), self.class_flits[0]);
        metrics.add(&format!("{prefix}.ptw_flits"), self.class_flits[1]);
        metrics.add(&format!("{prefix}.data_bytes"), self.class_bytes[0]);
        metrics.add(&format!("{prefix}.ptw_bytes"), self.class_bytes[1]);
        for (i, kind) in netcrafter_proto::ALL_PACKET_KINDS.iter().enumerate() {
            metrics.add(
                &format!("{prefix}.kind.{}", kind.label().replace(' ', "_")),
                self.kind_chunks[i],
            );
        }
    }
}

snap_fields! {
    impl Snap for PortStats {
        flits, used_bytes, meta_bytes, busy_cycles, stitched_flits, chunks, padding_hist,
        class_flits, class_bytes, kind_chunks,
    }
}

/// Windowed per-link time series sampled by an [`EgressPort`] when
/// sampling is enabled: the raw material of the bandwidth, occupancy and
/// pooling-delay curves.
#[derive(Debug, Clone)]
pub struct PortSeries {
    /// Useful payload bytes transmitted per window (bandwidth curve).
    pub bytes: TimeSeries,
    /// Flits transmitted per window.
    pub flits: TimeSeries,
    /// Per-cycle queue-length integral per window: dividing by the window
    /// width gives mean queue occupancy; the integral itself is aggregate
    /// queueing delay in flit-cycles.
    pub occupancy: TimeSeries,
    /// Per-cycle pooled-slot integral per window — the pooling-delay
    /// curve (non-zero only on Cluster Queue ports).
    pub pooled: TimeSeries,
}

impl PortSeries {
    /// Creates an empty series set with the given window width (cycles).
    pub fn new(window: u64) -> Self {
        PortSeries {
            bytes: TimeSeries::new(window),
            flits: TimeSeries::new(window),
            occupancy: TimeSeries::new(window),
            pooled: TimeSeries::new(window),
        }
    }
}

/// Identity and timing of the wire an [`EgressPort`] transmits on: who
/// is on the other end, which of the peer's ports the wire lands on,
/// and how long the signal takes to get there.
#[derive(Debug, Clone, Copy)]
pub struct EgressWire {
    /// Engine address of the next hop's component.
    pub peer: ComponentId,
    /// The transmitting port's own node id.
    pub self_node: NodeId,
    /// The paired port's index at the peer (0 for single-port endpoints).
    pub peer_port: u16,
    /// Wire propagation latency in cycles.
    pub wire_latency: u64,
}

/// A rate-limited, credit-flow-controlled transmit port.
pub struct EgressPort {
    /// Engine address of the next hop's component.
    peer: ComponentId,
    /// This port's own node id (stamped as `from` on transmissions).
    self_node: NodeId,
    /// The paired port's index at the peer, stamped as `link` on
    /// transmissions so the receiver can index its port array directly
    /// (0 for single-port endpoints).
    peer_port: u16,
    /// Output buffer.
    queue: Box<dyn EgressQueue>,
    /// Output buffer capacity in flits (Table 2: 1024).
    capacity: usize,
    /// Link bandwidth in flits/cycle (may be fractional).
    rate: RateLimiter,
    /// Remaining downstream buffer slots.
    credits: u32,
    /// Wire propagation latency in cycles.
    wire_latency: u64,
    /// Transmit statistics.
    pub stats: PortStats,
    /// Windowed telemetry, `None` (and costing one branch per tick)
    /// unless [`EgressPort::enable_sampling`] was called. It observes the
    /// run and is not snapshotted.
    series: Option<Box<PortSeries>>,
    /// Cycle of the last executed tick; skipped cycles in between are
    /// settled by [`EgressPort::catch_up`] so the rate limiter's token
    /// level equals that of ticking every cycle.
    last_tick: Cycle,
    /// Debug-build flit-conservation ledger: chunks that entered the
    /// output buffer. Chunks (not flits) are the conserved unit because
    /// stitching merges flits without creating or destroying chunks.
    /// Release builds never count. Not snapshotted: a restore restarts
    /// the ledger from the queue it restored.
    dbg_pushed_chunks: u64,
    /// Debug-build flit-conservation ledger: chunks transmitted.
    dbg_popped_chunks: u64,
}

impl std::fmt::Debug for EgressPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EgressPort")
            .field("peer", &self.peer)
            .field("self_node", &self.self_node)
            .field("queued", &self.queue.len())
            .field("credits", &self.credits)
            .finish()
    }
}

impl EgressPort {
    /// Creates a port transmitting over `wire`.
    ///
    /// * `flits_per_cycle` — link bandwidth over flit size (8.0 for the
    ///   128 GB/s intra links, 1.0 for the 16 GB/s inter links at 16 B
    ///   flits).
    /// * `initial_credits` — downstream input buffer capacity.
    pub fn new(
        wire: EgressWire,
        queue: Box<dyn EgressQueue>,
        capacity: usize,
        flits_per_cycle: f64,
        initial_credits: u32,
    ) -> Self {
        Self {
            peer: wire.peer,
            self_node: wire.self_node,
            peer_port: wire.peer_port,
            queue,
            capacity,
            // Burst of rate+1 flit: fractional accrual is never clipped
            // before reaching a whole-flit consume opportunity, so e.g. a
            // 3.125 flits/cycle link really sustains 3.125, not 3.
            rate: RateLimiter::new(flits_per_cycle, 1),
            credits: initial_credits,
            wire_latency: wire.wire_latency,
            stats: PortStats::default(),
            series: None,
            last_tick: 0,
            dbg_pushed_chunks: 0,
            dbg_popped_chunks: 0,
        }
    }

    /// Debug-build invariant: every chunk pushed was either transmitted
    /// or is still held (queued or pooled). Checked around each push and
    /// at the end of each tick, so at quiescence (empty queue) it is
    /// exactly "flits injected == flits ejected" in chunk units. Compiles
    /// to nothing in release builds.
    #[inline]
    fn debug_assert_conserved(&self) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.dbg_pushed_chunks,
            self.dbg_popped_chunks + self.queue.held_chunks() as u64,
            "chunk conservation violated on egress port at {}: \
             {} pushed != {} popped + {} held",
            self.self_node,
            self.dbg_pushed_chunks,
            self.dbg_popped_chunks,
            self.queue.held_chunks(),
        );
    }

    /// Turns on windowed time-series sampling with `window` cycles per
    /// bucket. Idempotent only in the sense that calling again resets the
    /// series.
    pub fn enable_sampling(&mut self, window: u64) {
        self.series = Some(Box::new(PortSeries::new(window)));
    }

    /// Extracts the sampled series, disabling further sampling. The
    /// occupancy and pooling integrals are settled through `end`, the
    /// run's final cycle, for the cycles since the last tick.
    pub fn take_series(&mut self, end: Cycle) -> Option<PortSeries> {
        self.settle_series(self.last_tick + 1, end);
        self.series.take().map(|b| *b)
    }

    /// Integrates the occupancy and pooling series over `first..=last`,
    /// through which both lengths hold their current value: the cycle
    /// being ticked, or cycles skipped since the last tick (nothing was
    /// pushed or popped in them).
    fn settle_series(&mut self, first: Cycle, last: Cycle) {
        let queue = &self.queue;
        if let Some(s) = self.series.as_deref_mut() {
            s.occupancy.add_span(first, last, queue.len() as u64);
            s.pooled.add_span(first, last, queue.pooled_len() as u64);
        }
    }

    /// True if the output buffer has room for another flit.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Free output-buffer slots.
    pub fn free_space(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Enqueues a flit for transmission.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — callers must check
    /// [`EgressPort::can_accept`] and stall instead (that is the
    /// back-pressure path).
    pub fn push(&mut self, flit: Flit, now: Cycle) {
        assert!(
            self.can_accept(),
            "egress buffer overflow at {}",
            self.self_node
        );
        self.catch_up(now);
        #[cfg(debug_assertions)]
        {
            self.dbg_pushed_chunks += flit.chunks.len() as u64;
        }
        self.queue.push(flit, now);
        self.debug_assert_conserved();
    }

    /// Handles a returned credit from the downstream buffer, arriving at
    /// cycle `now`.
    pub fn on_credit(&mut self, count: u32, now: Cycle) {
        self.catch_up(now);
        self.credits += count;
    }

    /// True while flits wait for transmission.
    pub fn busy(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Current credit balance (for tests and diagnostics).
    pub fn credits(&self) -> u32 {
        self.credits
    }

    /// Settles the token-bucket effects of every cycle skipped since the
    /// last tick, exactly as the per-cycle ticks would have run them:
    /// `accrue()` each cycle, plus one `try_consume(1)` whenever credits
    /// were available (the tick loop burns one token probing an unwilling
    /// queue — see the `else break` in [`EgressPort::tick`]). Both are
    /// closed forms ([`RateLimiter::accrue_idle`],
    /// [`RateLimiter::probe_idle`]): a span of any length costs one step.
    ///
    /// Link sampling's occupancy and pooling integrals are settled for
    /// the same span, so sampling never needs a tick of its own.
    ///
    /// Contract: every state change catches up first. [`EgressPort::push`],
    /// [`EgressPort::on_credit`] and [`EgressPort::tick`] call this before
    /// they touch the queue, the credit balance or the bucket, so a
    /// settled span only covers cycles through which credits and queue
    /// length were constant. An owner may therefore leave a port unticked for as
    /// long as its tick could not transmit (empty queue, no credits, or
    /// pooling with a future release): those ticks are pop-free, and the
    /// token level is the only state they touch.
    pub fn catch_up(&mut self, now: Cycle) {
        let first = self.last_tick + 1;
        if now <= first {
            return;
        }
        self.settle_series(first, now - 1);
        if self.credits == 0 {
            // The transmit loop's guard fails before any consume.
            self.rate.accrue_idle(now - first);
        } else {
            self.rate.probe_idle(now - first);
        }
        self.last_tick = now - 1;
    }

    /// When this port next needs its owner to tick it (folded into the
    /// owner's own wake). Skipped cycles are settled by
    /// [`EgressPort::catch_up`].
    pub fn next_wake(&self, now: Cycle) -> Wake {
        match self.queue.next_event(now) {
            // Willing to transmit: drain per cycle while credits last;
            // with none, only a credit message changes anything.
            Some(t) if t <= now => {
                if self.credits > 0 {
                    Wake::EveryCycle
                } else {
                    Wake::OnMessage
                }
            }
            // Pooling window: wake exactly at its expiry.
            Some(t) => Wake::At(t),
            None => Wake::OnMessage,
        }
    }

    /// Advances one cycle: accrues bandwidth and transmits as many flits
    /// as rate, credits and the queue allow.
    pub fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.cycle();
        self.catch_up(now);
        self.last_tick = now;
        self.settle_series(now, now);
        self.rate.accrue();
        let mut sent_any = false;
        while self.credits > 0 && self.rate.try_consume(1) {
            let Some(flit) = self.queue.pop(now, ctx.tracer()) else {
                // Nothing was willing to go (the queue may be pooling);
                // the consumed token stays burnt, and `catch_up` settles
                // the same burn for skipped cycles.
                break;
            };
            self.credits -= 1;
            #[cfg(debug_assertions)]
            {
                self.dbg_popped_chunks += flit.chunks.len() as u64;
            }
            self.stats.record(&flit);
            let used = flit.used_bytes() as u64;
            if let Some(series) = self.series.as_deref_mut() {
                series.bytes.add(now, used);
                series.flits.add(now, 1);
            }
            let tracer = ctx.tracer();
            if tracer.wants(EventClass::Flit) {
                let id = flit.chunks.first().map_or(0, |c| c.packet.0);
                tracer.instant(EventClass::Flit, "flit.tx", id, used);
            }
            sent_any = true;
            ctx.send(
                self.peer,
                Message::Flit {
                    flit,
                    from: self.self_node,
                    link: self.peer_port,
                },
                self.wire_latency,
            );
        }
        if sent_any {
            self.stats.busy_cycles += 1;
        }
        self.debug_assert_conserved();
    }

    /// Queue-specific statistics (Cluster Queue counters when NetCrafter
    /// is installed on this port).
    pub fn report_queue(&self, metrics: &mut Metrics, prefix: &str) {
        self.queue.report(metrics, prefix);
    }

    snap_fields! {
        pub fn save + load_into {
            peer: skipped(wiring),
            self_node: skipped(wiring),
            peer_port: skipped(wiring),
            capacity: skipped(config),
            wire_latency: skipped(config),
            queue,
            rate,
            credits,
            stats,
            series: skipped(observer),
            // The port's own catch-up anchor: a restored port settles
            // the cycles it slept through on its next push, credit or
            // tick, as it would have without the pause.
            last_tick,
            dbg_pushed_chunks: skipped(derived),
            dbg_popped_chunks: skipped(derived),
        }
        validate Self::restart_ledger
    }

    /// Restarts the debug-build chunk ledger from the restored queue: the
    /// chunks it holds count as pushed, none as popped.
    fn restart_ledger(&mut self) -> Result<(), SnapshotError> {
        self.dbg_pushed_chunks = if cfg!(debug_assertions) {
            self.queue.held_chunks() as u64
        } else {
            0
        };
        self.dbg_popped_chunks = 0;
        Ok(())
    }

    /// The rate limiter's token level (for tests).
    #[cfg(test)]
    pub(crate) fn tokens(&self) -> u128 {
        self.rate.tokens()
    }

    /// Cycle of the last executed (or settled) tick (for tests).
    #[cfg(test)]
    pub(crate) fn last_tick(&self) -> Cycle {
        self.last_tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::{Chunk, PacketId, PacketKind};
    use netcrafter_sim::{Component, EngineBuilder};

    fn flit(bytes: u32, ptw: bool) -> Flit {
        Flit::single(
            16,
            Chunk {
                packet: PacketId(1),
                kind: if ptw {
                    PacketKind::PageTableReq
                } else {
                    PacketKind::ReadReq
                },
                bytes,
                meta_bytes: 0,
                has_header: true,
                is_tail: true,
                seq: 0,
                dst: NodeId(9),
                class: if ptw {
                    TrafficClass::Ptw
                } else {
                    TrafficClass::Data
                },
                packet_info: None,
            },
        )
    }

    /// A component wrapping an EgressPort that pushes `n` flits at cycle 1.
    struct Tx {
        port: EgressPort,
        to_send: u32,
    }
    impl Component for Tx {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(Message::Credit { count, .. }) = ctx.recv() {
                self.port.on_credit(count, ctx.cycle());
            }
            while self.to_send > 0 && self.port.can_accept() {
                self.to_send -= 1;
                self.port.push(flit(12, false), ctx.cycle());
            }
            self.port.tick(ctx);
        }
        fn busy(&self) -> bool {
            self.to_send > 0 || self.port.busy()
        }
        fn name(&self) -> &str {
            "tx"
        }
    }

    /// Counts arrivals and returns credits.
    struct Rx {
        got: u64,
        peer: ComponentId,
        arrival_cycles: Vec<Cycle>,
    }
    impl Component for Rx {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                if let Message::Flit { .. } = msg {
                    self.got += 1;
                    self.arrival_cycles.push(ctx.cycle());
                    ctx.send(
                        self.peer,
                        Message::Credit {
                            from: NodeId(9),
                            count: 1,
                            link: 0,
                        },
                        1,
                    );
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "rx"
        }
    }

    fn wire_to(peer: ComponentId) -> EgressWire {
        EgressWire {
            peer,
            self_node: NodeId(0),
            peer_port: 0,
            wire_latency: 1,
        }
    }

    #[test]
    fn transmits_at_configured_rate() {
        let mut b = EngineBuilder::new();
        let tx_id = b.reserve();
        let rx_id = b.reserve();
        let port = EgressPort::new(
            wire_to(rx_id),
            Box::new(FifoQueue::new()),
            1024,
            1.0, // 1 flit/cycle
            1024,
        );
        b.install(tx_id, Box::new(Tx { port, to_send: 10 }));
        b.install(
            rx_id,
            Box::new(Rx {
                got: 0,
                peer: tx_id,
                arrival_cycles: vec![],
            }),
        );
        let mut e = b.build();
        e.run_to_quiescence(100);
        // 10 flits at 1/cycle: one arrival per cycle.
        // (Downcast-free check: messages delivered = 10 flits + 10 credits.)
        assert_eq!(e.messages_delivered(), 20);
    }

    #[test]
    fn credits_gate_transmission() {
        let mut b = EngineBuilder::new();
        let tx_id = b.reserve();
        let rx_id = b.reserve();
        let port = EgressPort::new(
            wire_to(rx_id),
            Box::new(FifoQueue::new()),
            1024,
            4.0,
            2, // only 2 downstream slots
        );
        b.install(tx_id, Box::new(Tx { port, to_send: 6 }));
        b.install(
            rx_id,
            Box::new(Rx {
                got: 0,
                peer: tx_id,
                arrival_cycles: vec![],
            }),
        );
        let mut e = b.build();
        e.run_to_quiescence(200);
        // All 6 eventually arrive (credits recycle), but never more than 2
        // outstanding — verified by total message count 6 flits + 6 credits.
        assert_eq!(e.messages_delivered(), 12);
    }

    #[test]
    fn fractional_rate_sends_every_other_cycle() {
        let mut r = RateLimiter::new(0.5, 1);
        let mut sent = 0;
        for _ in 0..10 {
            r.accrue();
            if r.try_consume(1) {
                sent += 1;
            }
        }
        assert_eq!(sent, 5);
    }

    #[test]
    fn stats_classify_flits() {
        let mut stats = PortStats::default();
        stats.record(&flit(12, false)); // 25% padding (4/16)
        stats.record(&flit(4, true)); // 75% padding
        let mut full = flit(12, false);
        full.stitch(flit(4, true));
        stats.record(&full); // 0 padding, stitched, mixed class -> ptw
        assert_eq!(stats.flits, 3);
        assert_eq!(stats.stitched_flits, 1);
        assert_eq!(stats.padding_hist[1], 1); // 25%
        assert_eq!(stats.padding_hist[3], 1); // 75%
        assert_eq!(stats.padding_hist[0], 1); // 0%
        assert_eq!(stats.class_flits, [1, 2]);
        assert_eq!(stats.chunks, 4);

        let mut m = Metrics::new();
        stats.report(&mut m, "p");
        assert_eq!(m.counter("p.flits"), 3);
        assert_eq!(m.counter("p.stitched_flits"), 1);
        assert_eq!(m.counter("p.padding75"), 1);
        assert_eq!(m.counter("p.ptw_flits"), 2);
    }

    /// A 0.01 flits/cycle link walks 100 distinct token levels before
    /// its orbit closes; `catch_up` settles 499 credited idle cycles in
    /// one step and lands on the level of a cycle-by-cycle replay.
    #[test]
    fn catch_up_handles_orbits_longer_than_history() {
        let mut b = EngineBuilder::new();
        let rx_id = b.reserve();
        drop(b);
        let mut port = EgressPort::new(wire_to(rx_id), Box::new(FifoQueue::new()), 4, 0.01, 3);
        let mut reference = RateLimiter::new(0.01, 1);
        for _ in 1..500u64 {
            reference.accrue();
            reference.try_consume(1);
        }
        port.catch_up(500);
        assert_eq!(port.tokens(), reference.tokens());
        assert_eq!(port.last_tick, 499);
    }

    /// Pushes a flit at each listed cycle. A lazy pusher ticks its port
    /// only while the queue holds flits, so the port sleeps through idle
    /// stretches and is woken by a push or a credit.
    struct Pusher {
        port: EgressPort,
        pushes: VecDeque<Cycle>,
        lazy: bool,
    }
    impl Component for Pusher {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            let now = ctx.cycle();
            while let Some(Message::Credit { count, .. }) = ctx.recv() {
                self.port.on_credit(count, now);
            }
            while self.pushes.front() == Some(&now) {
                self.pushes.pop_front();
                self.port.push(flit(12, false), now);
            }
            if !self.lazy || self.port.busy() {
                self.port.tick(ctx);
            }
        }
        fn busy(&self) -> bool {
            !self.pushes.is_empty() || self.port.busy()
        }
        fn name(&self) -> &str {
            "pusher"
        }
    }

    /// The sampled series, credits and token level of a 0.5 flits/cycle,
    /// 2-credit port fed in bursts, settled through the run's end.
    fn sampled_bursts(lazy: bool) -> (PortSeries, u32, u128) {
        let mut b = EngineBuilder::new();
        let tx_id = b.reserve();
        let rx_id = b.reserve();
        // A 5-cycle wire returns each credit to an idle, credit-starved
        // port several cycles after its queue drained.
        let wire = EgressWire {
            wire_latency: 5,
            ..wire_to(rx_id)
        };
        let mut port = EgressPort::new(wire, Box::new(FifoQueue::new()), 16, 0.5, 2);
        port.enable_sampling(4);
        // The last pair spends both credits and leaves the queue empty.
        let pushes = [3, 3, 3, 3, 21, 40, 41, 41, 63, 90, 90].into();
        b.install(tx_id, Box::new(Pusher { port, pushes, lazy }));
        b.install(
            rx_id,
            Box::new(Rx {
                got: 0,
                peer: tx_id,
                arrival_cycles: vec![],
            }),
        );
        let mut e = b.build();
        let end = e.run_to_quiescence(500);
        let port = &mut e.get_mut::<Pusher>(tx_id).expect("pusher").port;
        port.catch_up(end + 1);
        let series = port.take_series(end).expect("sampling on");
        (series, port.credits(), port.tokens())
    }

    /// A port left unticked while idle and then pushed into integrates
    /// the slept span at the occupancy it had — zero — not at the pushed
    /// length: its series, credits and token level equal those of a
    /// port ticked on every cycle.
    #[test]
    fn sampled_port_pushed_after_sleeping_matches_per_cycle_ticks() {
        let (every, credits, tokens) = sampled_bursts(false);
        let (lazy, lazy_credits, lazy_tokens) = sampled_bursts(true);
        assert!(every.occupancy.total() > 0, "the bursts must queue");
        assert_eq!(lazy.occupancy, every.occupancy);
        assert_eq!(lazy.pooled, every.pooled);
        assert_eq!(lazy.bytes, every.bytes);
        assert_eq!(lazy.flits, every.flits);
        assert_eq!((lazy_credits, lazy_tokens), (credits, tokens));
    }

    #[test]
    #[should_panic(expected = "egress buffer overflow")]
    fn overflow_panics() {
        let mut b = EngineBuilder::new();
        let rx_id = b.reserve();
        drop(b);
        let mut port = EgressPort::new(wire_to(rx_id), Box::new(FifoQueue::new()), 1, 1.0, 0);
        port.push(flit(12, false), 0);
        assert!(!port.can_accept());
        port.push(flit(12, false), 0);
    }
}
