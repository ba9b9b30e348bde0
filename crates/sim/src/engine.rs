//! The cycle engine: the component interface and the public face of the
//! scheduler core (`sched.rs`).
//!
//! * **Event-driven** (default): only components with a scheduled wake
//!   tick, idle stretches are fast-forwarded to the next scheduled event,
//!   and quiescence is tracked incrementally instead of rescanning every
//!   component's [`Component::busy`] flag each cycle.
//! * **Legacy**: every component ticks every cycle, in id order, with no
//!   fast-forward — the reference the tests compare against, selectable
//!   via [`Engine::set_scheduler`].
//!
//! Both dispatch the same [`Component::tick_burst`]; Legacy ignores the
//! wake it returns. The two produce bit-identical results because a
//! component may only be skipped on cycles where its tick would have been
//! a no-op: the [`Component::next_wake`] contract promises exactly that
//! (see DESIGN.md, "Event-driven scheduling").

use std::collections::VecDeque;

use netcrafter_proto::Message;

use crate::arena::{Arena, Handle};
use crate::sched::Core;
use crate::snapshot::{
    read_header, write_header, Snap, SnapshotError, SnapshotReader, SnapshotWriter,
};
use crate::trace::{Trace, TraceConfig, Tracer};
use crate::Cycle;

/// Index of a component and of its (single) mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

/// When a component next needs to be ticked (see
/// [`Component::next_wake`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Tick again next cycle. Always safe; required whenever the
    /// component does per-cycle work (counts stall/idle cycles, samples a
    /// time series, drains a queue, accrues observable rate-limiter
    /// tokens it will spend).
    EveryCycle,
    /// Tick at the given cycle (clamped to the next cycle if already
    /// due). For precisely-known timers: pipeline readiness, pooling
    /// window expiry.
    At(Cycle),
    /// No tick needed until a message arrives. The engine always ticks a
    /// component on the cycle it receives a message, whatever it last
    /// returned.
    OnMessage,
}

impl Wake {
    /// The earlier of two wakes, for components composed of several
    /// independently scheduled parts: `EveryCycle` dominates, `OnMessage`
    /// is latest, and two timers take the smaller cycle.
    pub fn earliest(self, other: Wake) -> Wake {
        match (self, other) {
            (Wake::EveryCycle, _) | (_, Wake::EveryCycle) => Wake::EveryCycle,
            (Wake::At(a), Wake::At(b)) => Wake::At(a.min(b)),
            (Wake::At(a), Wake::OnMessage) | (Wake::OnMessage, Wake::At(a)) => Wake::At(a),
            (Wake::OnMessage, Wake::OnMessage) => Wake::OnMessage,
        }
    }
}

/// Which scheduler drives [`Engine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Tick every component every cycle (the reference model).
    Legacy,
    /// Tick only woken components; fast-forward idle cycles.
    EventDriven,
}

/// What one [`Component::tick_burst`] reports back to the scheduler: the
/// component's busy flag and its next wake, computed in the same virtual
/// call that did the work (instead of three separate calls per woken
/// component: `tick`, `busy`, `next_wake`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstOutcome {
    /// The value [`Component::busy`] would return right now.
    pub busy: bool,
    /// When the component next needs a tick, under the
    /// [`Component::next_wake`] contract.
    pub wake: Wake,
}

/// The interface every simulated hardware block implements.
///
/// A component is ticked in a fixed id order within a cycle. During its
/// tick it may drain its mailbox via [`Ctx::recv`] and send messages to
/// peers via [`Ctx::send`]; sends are staged and delivered by the engine,
/// so a component never observes a message sent in the same cycle.
///
/// Under the event-driven scheduler a component is only ticked when a
/// message arrives or the wake its [`Component::tick_burst`] returned
/// comes due; the default (`EveryCycle`) preserves the tick-always
/// behaviour.
///
/// Components are `Send`, so an engine may be handed to another thread;
/// an engine is never shared, so `Sync` is not required.
pub trait Component: std::any::Any + Send {
    /// Advances the component by one cycle.
    fn tick(&mut self, ctx: &mut Ctx<'_>);

    /// True while the component still has internal work (pipeline contents,
    /// pending responses, unissued ops). The engine declares the system
    /// quiescent — and stops — only when *no* component is busy and no
    /// message is in flight.
    fn busy(&self) -> bool;

    /// Human-readable instance name for traces and error messages.
    fn name(&self) -> &str;

    /// When this component next needs a tick, asked right after each tick
    /// by the default [`Component::tick_burst`] (the engine never calls it
    /// directly; only the event-driven scheduler acts on the answer).
    ///
    /// Contract: every cycle between now and the returned wake on which
    /// the component is *not* ticked must be one where its tick would
    /// have had no observable effect — no state change, no statistics or
    /// trace events, no sends. Message arrival always forces a tick
    /// regardless of the returned value.
    fn next_wake(&self, _now: Cycle) -> Wake {
        Wake::EveryCycle
    }

    /// Burst entry point: performs this cycle's work (draining the whole
    /// mailbox burst) *and* reports the post-tick busy flag and next wake
    /// in one virtual call. It is the only method the engine calls to
    /// advance a component, under every [`SchedulerMode`].
    ///
    /// The default wraps [`Component::tick`], [`Component::busy`] and
    /// [`Component::next_wake`]. An override states its wake here and
    /// nowhere else; its busy flag must equal `busy()`, which debug
    /// builds assert after every tick, and its wake must obey the
    /// `next_wake` contract, which the Legacy rows of the scheduler
    /// equivalence suite and the `gated_counts` tick gates hold.
    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        BurstOutcome {
            busy: self.busy(),
            wake: self.next_wake(ctx.cycle),
        }
    }

    /// Appends this component's full dynamic state to `w` (see
    /// `netcrafter_sim::snapshot`). Together with
    /// [`Component::load_state`] the pair must be a fixed point: saving,
    /// loading into a freshly built instance and saving again yields the
    /// same bytes. Static configuration derived from the builder need not
    /// be written — only state that changes as the simulation runs.
    ///
    /// The default panics: a component that can appear in a
    /// checkpointed engine must implement the pair, and every snapshot
    /// or fork test fails on the first one that does not.
    fn save_state(&self, _w: &mut SnapshotWriter) {
        panic!("component `{}` does not support snapshotting", self.name());
    }

    /// Restores the dynamic state written by [`Component::save_state`]
    /// into this (identically configured) instance.
    fn load_state(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        panic!("component `{}` does not support snapshotting", self.name());
    }
}

/// Per-tick context handed to a component: its own mailbox, the current
/// cycle, and a staging buffer for outgoing messages.
///
/// Mailbox and staging buffer hold 8-byte [`Handle`]s into the engine's
/// message arena; payloads are written once on send and read once on
/// receive, so a delivery never copies the full [`Message`] through the
/// wheel.
pub struct Ctx<'a> {
    pub(crate) cycle: Cycle,
    pub(crate) inbox: &'a mut VecDeque<Handle>,
    pub(crate) outbox: &'a mut Vec<(Cycle, ComponentId, Handle)>,
    pub(crate) arena: &'a mut Arena<Message>,
    pub(crate) self_id: ComponentId,
    pub(crate) tracer: &'a mut Tracer,
}

impl Ctx<'_> {
    /// Current simulation cycle.
    #[inline]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// This component's own id (usable as a send target for self-wakeups).
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Pops the oldest message from this component's mailbox.
    #[inline]
    pub fn recv(&mut self) -> Option<Message> {
        self.inbox.pop_front().map(|h| self.arena.take(h))
    }

    /// Sends `msg` to `dst`, arriving after `delay` cycles (minimum 1: a
    /// message can never be observed in the cycle it was sent).
    #[inline]
    pub fn send(&mut self, dst: ComponentId, msg: Message, delay: u64) {
        let when = self.cycle + delay.max(1);
        let h = self.arena.alloc(msg);
        self.outbox.push((when, dst, h));
    }

    /// The structured-event tracer, focused on this component. A single
    /// branch and a no-op when tracing is disabled (the default).
    #[inline]
    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }
}

/// Incrementally wires up an [`Engine`].
///
/// Construction is two-phase so components can know their peers' ids
/// before those peers exist: [`EngineBuilder::reserve`] allocates an id,
/// and [`EngineBuilder::install`] later provides the component.
///
/// # Examples
///
/// ```
/// use netcrafter_sim::{EngineBuilder, Component, Ctx};
///
/// struct Nop;
/// impl Component for Nop {
///     fn tick(&mut self, _ctx: &mut Ctx<'_>) {}
///     fn busy(&self) -> bool { false }
///     fn name(&self) -> &str { "nop" }
/// }
///
/// let mut b = EngineBuilder::new();
/// let id = b.reserve();
/// b.install(id, Box::new(Nop));
/// let mut engine = b.build();
/// assert!(engine.quiescent());
/// ```
#[derive(Default)]
pub struct EngineBuilder {
    slots: Vec<Option<Box<dyn Component>>>,
}

impl EngineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves a component id to be filled in later with
    /// [`EngineBuilder::install`].
    pub fn reserve(&mut self) -> ComponentId {
        self.slots.push(None);
        ComponentId(self.slots.len() - 1)
    }

    /// Installs a component into a reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already filled or the id was never reserved.
    pub fn install(&mut self, id: ComponentId, component: Box<dyn Component>) {
        let slot = self
            .slots
            .get_mut(id.0)
            .unwrap_or_else(|| panic!("component id {id} was never reserved"));
        assert!(slot.is_none(), "component id {id} installed twice");
        *slot = Some(component);
    }

    /// Reserves and installs in one step.
    pub fn add(&mut self, component: Box<dyn Component>) -> ComponentId {
        let id = self.reserve();
        self.install(id, component);
        id
    }

    /// Finalizes the engine.
    ///
    /// # Panics
    ///
    /// Panics if any reserved slot was never installed.
    pub fn build(self) -> Engine {
        let n = self.slots.len();
        let mut core = Core::new();
        for (i, slot) in self.slots.into_iter().enumerate() {
            let comp = slot.unwrap_or_else(|| panic!("component slot {i} never installed"));
            core.push(comp);
        }
        // Every component gets a first tick on cycle 1 and re-arms
        // itself from there via `next_wake`.
        core.rearm_all_at(1);
        Engine {
            core,
            mode: SchedulerMode::EventDriven,
            dirty: Vec::new(),
            dirty_flags: vec![false; n],
        }
    }
}

/// The simulation engine: owns all components and mailboxes and advances
/// simulated time.
pub struct Engine {
    /// The scheduler core over every component.
    core: Core,
    mode: SchedulerMode,
    /// Components handed out via `get_mut` since the last step: external
    /// code may have changed their state behind the scheduler's back, so
    /// their cached busy flag is suspect and they are re-ticked on the
    /// next cycle.
    dirty: Vec<usize>,
    dirty_flags: Vec<bool>,
}

impl Engine {
    /// Current simulation cycle.
    #[inline]
    pub fn cycle(&self) -> Cycle {
        self.core.cycle
    }

    /// Total messages delivered so far.
    #[inline]
    pub fn messages_delivered(&self) -> u64 {
        self.core.delivered
    }

    /// Component ticks executed by this engine object so far, under
    /// whichever schedulers it ran. A measure of host work: it is not
    /// part of the simulated state, so a snapshot neither saves nor
    /// restores it, and the event-driven scheduler exists to make it small.
    #[inline]
    pub fn ticks_executed(&self) -> u64 {
        self.core.ticks
    }

    /// Cycles this engine object has executed so far, under whichever
    /// schedulers it ran: every cycle under Legacy, only the cycles with
    /// a delivery or a wake event-driven. Host work like
    /// [`Engine::ticks_executed`], and likewise never snapshotted.
    #[inline]
    pub fn steps_executed(&self) -> u64 {
        self.core.steps
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.core.comps.len()
    }

    /// True if the engine contains no components.
    pub fn is_empty(&self) -> bool {
        self.core.comps.is_empty()
    }

    /// Switches scheduler mid-flight: re-arms every component for the
    /// next cycle and refreshes the busy cache, so no wake derived under
    /// the previous mode is trusted.
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.mode = mode;
        self.flush_dirty();
        self.core.rearm_all_at(self.core.cycle + 1);
        self.core.refresh_busy();
    }

    /// Turns on structured-event tracing with the given filter. One track
    /// is registered per component (in id order), so [`crate::Event::track`]
    /// equals the component id. Call before running; events from earlier
    /// cycles are simply absent.
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        let mut tracer = Tracer::new(config);
        for comp in &self.core.comps {
            tracer.register_track(comp.name());
        }
        tracer.set_now(self.core.cycle);
        self.core.tracer = tracer;
    }

    /// The structured-event tracer (disabled unless
    /// [`Engine::enable_tracing`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.core.tracer
    }

    /// Extracts everything recorded since [`Engine::enable_tracing`] (or
    /// the last call to this method), leaving tracing active.
    pub fn take_trace(&mut self) -> Trace {
        self.core.tracer.take()
    }

    /// Injects a message from outside the simulation (e.g. a kernel-launch
    /// trigger), delivered at `cycle + delay`.
    pub fn inject(&mut self, dst: ComponentId, msg: Message, delay: u64) {
        let when = self.core.cycle + delay.max(1);
        let h = self.core.arena.alloc(msg);
        self.core.schedule(when, dst.0, h);
    }

    /// Marks a component as externally mutated: its cached busy flag is
    /// recomputed on the next quiescence check / step, and it gets a tick.
    /// Arming here (not in `flush_dirty`) keeps the wake visible to
    /// `fast_forward`, which runs before the step that flushes.
    #[inline]
    fn mark_dirty(&mut self, id: usize) {
        if !self.dirty_flags[id] {
            self.dirty_flags[id] = true;
            self.dirty.push(id);
            self.core.arm(id, self.core.cycle + 1);
        }
    }

    /// Re-syncs the busy cache for externally mutated components (they
    /// were armed for a tick by `mark_dirty`).
    fn flush_dirty(&mut self) {
        for i in self.dirty.drain(..) {
            self.dirty_flags[i] = false;
            let live = self.core.comps[i].busy();
            self.core.fold_busy(i, live);
        }
    }

    /// True when nothing remains to simulate: every mailbox is empty, no
    /// message is in flight, and no component reports internal work.
    ///
    /// O(1) via the incrementally maintained busy count, plus a live
    /// check of any component mutated through `get_mut` since the last
    /// step.
    pub fn quiescent(&self) -> bool {
        let dirty = self.dirty.iter();
        let cached = dirty.clone().filter(|&&i| self.core.busy_flags[i]).count();
        let live = dirty.filter(|&&i| self.core.comps[i].busy()).count();
        self.core.in_flight == 0 && self.core.busy_count - cached + live == 0
    }

    /// Advances one cycle: delivers due messages, then ticks components —
    /// all of them under [`SchedulerMode::Legacy`], only woken ones under
    /// [`SchedulerMode::EventDriven`].
    pub fn step(&mut self) {
        self.advance(self.core.cycle + 1);
    }

    /// Executes the next cycle that has work — under Legacy simply the
    /// next cycle — but none past `limit` (which must lie ahead). The
    /// cycles skipped are ones in which no component would tick and no
    /// message would be delivered.
    fn advance(&mut self, limit: Cycle) {
        self.flush_dirty();
        let legacy = self.mode == SchedulerMode::Legacy;
        let next = self.core.cycle + 1;
        let land = if legacy || limit == next {
            next
        } else {
            self.core.next_event_cycle().clamp(next, limit)
        };
        self.core.step_at(land, legacy);
    }

    /// Runs until [`Engine::quiescent`] or until `max_cycles` elapse.
    /// Returns the final cycle.
    ///
    /// # Panics
    ///
    /// Panics if the cycle limit is hit while work remains — a livelocked
    /// simulation is always a modelling bug and must not pass silently.
    pub fn run_to_quiescence(&mut self, max_cycles: Cycle) -> Cycle {
        let limit = self.core.cycle + max_cycles;
        while !self.quiescent() {
            assert!(
                self.core.cycle < limit,
                "simulation did not quiesce within {max_cycles} cycles; busy: {:?}",
                self.busy_components()
            );
            self.advance(limit);
        }
        self.core.cycle
    }

    /// Runs while `cond` holds and work remains, up to `max_cycles`.
    ///
    /// Under the event-driven scheduler, `cond` is evaluated before each
    /// *executed* cycle; idle stretches are fast-forwarded (never past
    /// `max_cycles`), so a condition that flips on a cycle in which
    /// nothing is scheduled is observed at the next event or at the limit.
    pub fn run_while(&mut self, max_cycles: Cycle, mut cond: impl FnMut(&Engine) -> bool) -> Cycle {
        let limit = self.core.cycle + max_cycles;
        while self.core.cycle < limit && cond(self) && !self.quiescent() {
            self.advance(limit);
        }
        self.core.cycle
    }

    /// Names of components currently reporting work, for diagnostics.
    pub fn busy_components(&self) -> Vec<&str> {
        self.core
            .comps
            .iter()
            .filter(|c| c.busy())
            .map(|c| c.name())
            .collect()
    }

    /// Typed access to a component: the stats-harvesting path used by the
    /// measurement harness, which knows what it installed at each id.
    pub fn get<T: Component>(&self, id: ComponentId) -> Option<&T> {
        (self.core.comps[id.0].as_ref() as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Typed mutable access to a component. Marks it externally mutated:
    /// it is re-ticked and its busy flag re-read on the next cycle.
    pub fn get_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.mark_dirty(id.0);
        (self.core.comps[id.0].as_mut() as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    // ---- checkpoint / restore ----

    /// Runs until the clock reaches `target` or the system quiesces,
    /// whichever comes first. Every cycle boundary is a valid checkpoint
    /// under both scheduler modes (DESIGN.md §3.4).
    pub fn run_until(&mut self, target: Cycle) -> Cycle {
        self.run_while(target.saturating_sub(self.core.cycle), |_| true)
    }

    /// Appends the engine's full dynamic state — clock, every component's
    /// saved state, mailboxes and in-flight messages — to `w`, in the
    /// canonical order described in DESIGN.md §3.4. Scheduler-derived
    /// state (timed-wake lists, armed table, busy cache) is intentionally
    /// excluded: it is reconstructed bit-exactly on load, which also makes
    /// snapshots portable across scheduler modes. So is the tracer: it
    /// observes the run and is not part of its state.
    pub fn save_state_into(&mut self, w: &mut SnapshotWriter) {
        self.flush_dirty();
        let core = &self.core;
        w.put_len(core.comps.len());
        w.put_u64(core.cycle);
        w.put_u64(core.delivered);
        for comp in &core.comps {
            w.put_str(comp.name());
            let mut body = SnapshotWriter::new();
            comp.save_state(&mut body);
            w.put_bytes(&body.into_bytes());
        }
        // Mailboxes: same bytes as a `VecDeque<Message>` save — handles
        // are resolved through the arena in queue order.
        for inbox in &core.inboxes {
            w.put_len(inbox.len());
            for &h in inbox {
                core.arena.get(h).save(w);
            }
        }
        // In-flight messages in canonical order: ascending delivery cycle,
        // send order within a cycle, then the overflow list.
        w.put_len(core.in_flight);
        for (when, dst, h) in core.in_flight() {
            w.put_u64(when);
            w.put_len(dst);
            core.arena.get(h).save(w);
        }
    }

    /// Restores the state written by [`Engine::save_state_into`] into
    /// this engine, which must contain the same components (same count,
    /// names and order — i.e. be built from the same configuration).
    /// The active scheduler mode is kept and all of its derived state is
    /// rebuilt from scratch, exactly as [`Engine::set_scheduler`] does;
    /// the engine's own tracer is kept too and records from the restored
    /// cycle on.
    pub fn load_state_from(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_len()?;
        if n != self.core.comps.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n} components, engine has {}",
                self.core.comps.len()
            )));
        }
        let cycle = r.get_u64()?;
        let delivered = r.get_u64()?;
        // Borrow every component blob from the snapshot buffer (restore
        // is a sweep hot path — no per-component copies or name allocs).
        let mut bodies: Vec<&[u8]> = Vec::with_capacity(n);
        for comp in &self.core.comps {
            let name = r.get_bytes()?;
            if name != comp.name().as_bytes() {
                return Err(SnapshotError::Corrupt(format!(
                    "component mismatch: snapshot has `{}`, engine has `{}`",
                    String::from_utf8_lossy(name),
                    comp.name()
                )));
            }
            bodies.push(r.get_bytes()?);
        }
        let mut inboxes: Vec<VecDeque<Message>> = Vec::with_capacity(n);
        for _ in 0..n {
            inboxes.push(Snap::load(r)?);
        }
        let in_flight = r.get_len()?;
        let mut deliveries = Vec::with_capacity(in_flight);
        for _ in 0..in_flight {
            let when = r.get_u64()?;
            let dst = r.get_len()?;
            let msg = Message::load(r)?;
            if when <= cycle {
                return Err(SnapshotError::Corrupt(format!(
                    "in-flight message due at {when}, not after cycle {cycle}"
                )));
            }
            if dst >= n {
                return Err(SnapshotError::Corrupt(format!(
                    "in-flight message for unknown component {dst}"
                )));
            }
            deliveries.push((when, dst, msg));
        }

        // Everything decoded — only now mutate the engine.
        let core = &mut self.core;
        core.cycle = cycle;
        core.delivered = delivered;
        for (comp, body) in core.comps.iter_mut().zip(&bodies) {
            let mut br = SnapshotReader::new(body);
            comp.load_state(&mut br)
                .map_err(|e| e.within(comp.name()))?;
            if br.remaining() != 0 {
                return Err(SnapshotError::Corrupt(format!(
                    "component `{}` left {} unread byte(s) in its state blob",
                    comp.name(),
                    br.remaining()
                )));
            }
        }
        core.arena = Arena::new();
        core.inboxes.clear();
        for inbox in inboxes {
            let mut q = VecDeque::with_capacity(inbox.len());
            for msg in inbox {
                q.push_back(core.arena.alloc(msg));
            }
            core.inboxes.push(q);
        }
        core.clear_in_flight();
        for (when, dst, msg) in deliveries {
            let h = core.arena.alloc(msg);
            core.schedule(when, dst, h);
        }
        core.tracer.set_now(cycle);
        // Rebuild every piece of scheduler-derived state (armed table,
        // timed-wake lists, always-on set, busy cache, dirty list) for the
        // current mode — bit-exact by the `next_wake` contract.
        self.set_scheduler(self.mode);
        Ok(())
    }

    /// Serializes the engine into a standalone versioned snapshot
    /// (header + [`Engine::save_state_into`] body).
    pub fn save_snapshot(&mut self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_header(&mut w);
        self.save_state_into(&mut w);
        w.into_bytes()
    }

    /// Restores a snapshot produced by [`Engine::save_snapshot`],
    /// validating the header (magic, version) and that every byte is
    /// consumed.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        read_header(&mut r)?;
        self.load_state_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing byte(s) after engine state",
                r.remaining()
            )));
        }
        Ok(())
    }

    /// FNV-1a hash over the canonical state encoding — a cheap
    /// fingerprint for "are these two paused simulations identical?".
    pub fn state_hash(&mut self) -> u64 {
        let mut w = SnapshotWriter::new();
        self.save_state_into(&mut w);
        netcrafter_proto::fnv1a64(&w.into_bytes())
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cycle", &self.core.cycle)
            .field("components", &self.core.comps.len())
            .field("in_flight", &self.core.in_flight)
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every received message back to a peer after a delay.
    struct Echo {
        peer: ComponentId,
        delay: u64,
        received: Vec<(Cycle, Message)>,
        bounces_left: u32,
    }

    impl Component for Echo {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                self.received.push((ctx.cycle(), msg.clone()));
                if self.bounces_left > 0 {
                    self.bounces_left -= 1;
                    ctx.send(self.peer, msg, self.delay);
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    fn credit(n: u32) -> Message {
        Message::Credit {
            from: netcrafter_proto::NodeId(0),
            count: n,
            link: 0,
        }
    }

    #[test]
    fn messages_arrive_after_exact_delay() {
        let mut b = EngineBuilder::new();
        let a = b.reserve();
        let c = b.reserve();
        b.install(
            a,
            Box::new(Echo {
                peer: c,
                delay: 5,
                received: vec![],
                bounces_left: 0,
            }),
        );
        b.install(
            c,
            Box::new(Echo {
                peer: a,
                delay: 5,
                received: vec![],
                bounces_left: 0,
            }),
        );
        let mut e = b.build();
        e.inject(a, credit(1), 3);
        assert!(!e.quiescent());
        let end = e.run_to_quiescence(100);
        assert_eq!(end, 3, "message delivered at cycle 3 and system quiesces");
        assert_eq!(e.messages_delivered(), 1);
    }

    #[test]
    fn ping_pong_alternates() {
        let mut b = EngineBuilder::new();
        let a = b.reserve();
        let c = b.reserve();
        b.install(
            a,
            Box::new(Echo {
                peer: c,
                delay: 10,
                received: vec![],
                bounces_left: 2,
            }),
        );
        b.install(
            c,
            Box::new(Echo {
                peer: a,
                delay: 10,
                received: vec![],
                bounces_left: 2,
            }),
        );
        let mut e = b.build();
        e.inject(a, credit(7), 1);
        e.run_to_quiescence(1000);
        // a receives at 1, sends -> c receives at 11, sends -> a at 21,
        // sends -> c at 31, sends -> a at 41 (a has no bounces left).
        assert_eq!(e.messages_delivered(), 5);
    }

    #[test]
    fn long_delays_take_overflow_path() {
        let mut b = EngineBuilder::new();
        let a = b.add(Box::new(Echo {
            peer: ComponentId(0),
            delay: 1,
            received: vec![],
            bounces_left: 0,
        }));
        let mut e = b.build();
        e.inject(a, credit(1), 2000); // > WHEEL_SLOTS
        let end = e.run_to_quiescence(5000);
        assert_eq!(end, 2000);
        assert_eq!(e.messages_delivered(), 1);
    }

    struct Recorder {
        got: Vec<u32>,
    }
    impl Component for Recorder {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(Message::Credit { count, .. }) = ctx.recv() {
                self.got.push(count);
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "recorder"
        }
    }

    #[test]
    fn delivery_preserves_send_order_within_cycle() {
        let mut b = EngineBuilder::new();
        let r = b.add(Box::new(Recorder { got: vec![] }));
        let mut e = b.build();
        for i in 0..10 {
            e.inject(r, credit(i), 4);
        }
        e.run_to_quiescence(100);
        assert_eq!(e.messages_delivered(), 10);
        let rec = e.get::<Recorder>(r).expect("recorder installed");
        assert_eq!(
            rec.got,
            (0..10).collect::<Vec<u32>>(),
            "same-cycle deliveries arrive in send order"
        );
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn livelock_is_detected() {
        struct Forever;
        impl Component for Forever {
            fn tick(&mut self, _ctx: &mut Ctx<'_>) {}
            fn busy(&self) -> bool {
                true
            }
            fn name(&self) -> &str {
                "forever"
            }
        }
        let mut b = EngineBuilder::new();
        b.add(Box::new(Forever));
        let mut e = b.build();
        e.run_to_quiescence(10);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "busy() disagrees")]
    fn fused_busy_flag_is_refereed_every_tick() {
        /// A fused status that drifted from its scalar answer.
        struct Liar;
        impl Component for Liar {
            fn tick(&mut self, _ctx: &mut Ctx<'_>) {}
            fn busy(&self) -> bool {
                true
            }
            fn name(&self) -> &str {
                "liar"
            }
            fn tick_burst(&mut self, _ctx: &mut Ctx<'_>) -> BurstOutcome {
                BurstOutcome {
                    busy: false,
                    wake: Wake::OnMessage,
                }
            }
        }
        let mut b = EngineBuilder::new();
        b.add(Box::new(Liar));
        b.build().step();
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn double_install_panics() {
        let mut b = EngineBuilder::new();
        let id = b.reserve();
        b.install(
            id,
            Box::new(Echo {
                peer: id,
                delay: 1,
                received: vec![],
                bounces_left: 0,
            }),
        );
        b.install(
            id,
            Box::new(Echo {
                peer: id,
                delay: 1,
                received: vec![],
                bounces_left: 0,
            }),
        );
    }

    #[test]
    #[should_panic(expected = "never installed")]
    fn missing_install_panics() {
        let mut b = EngineBuilder::new();
        let _ = b.reserve();
        let _ = b.build();
    }

    #[test]
    fn run_while_stops_on_condition() {
        struct Heartbeat;
        impl Component for Heartbeat {
            fn tick(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.self_id();
                if ctx.recv().is_some() {
                    ctx.send(
                        me,
                        Message::Credit {
                            from: netcrafter_proto::NodeId(0),
                            count: 1,
                            link: 0,
                        },
                        1,
                    );
                }
            }
            fn busy(&self) -> bool {
                false
            }
            fn name(&self) -> &str {
                "heartbeat"
            }
        }
        let mut b = EngineBuilder::new();
        let h = b.add(Box::new(Heartbeat));
        let mut e = b.build();
        e.inject(h, credit(1), 1);
        let end = e.run_while(10_000, |e| e.cycle() < 50);
        assert_eq!(end, 50);
        assert!(!e.quiescent(), "heartbeat keeps a message in flight");
    }

    #[test]
    fn stepwise_injections_are_received_on_the_next_cycle() {
        let mut b = EngineBuilder::new();
        let a = b.add(Box::new(Echo {
            peer: ComponentId(0),
            delay: 1,
            received: vec![],
            bounces_left: 0,
        }));
        let mut e = b.build();
        for i in 0..5 {
            e.inject(a, credit(i), 1);
            e.step();
        }
        let got = &e.get::<Echo>(a).expect("echo installed").received;
        let want: Vec<(Cycle, Message)> = (0..5).map(|i| (u64::from(i) + 1, credit(i))).collect();
        assert_eq!(got, &want, "one receipt per step, in injection order");
    }

    #[test]
    fn typed_component_access() {
        let mut b = EngineBuilder::new();
        let id = b.add(Box::new(Echo {
            peer: ComponentId(0),
            delay: 1,
            received: vec![],
            bounces_left: 0,
        }));
        let mut e = b.build();
        assert!(e.get::<Echo>(id).is_some(), "downcast to the real type");
        struct Other;
        impl Component for Other {
            fn tick(&mut self, _ctx: &mut Ctx<'_>) {}
            fn busy(&self) -> bool {
                false
            }
            fn name(&self) -> &str {
                "other"
            }
        }
        assert!(e.get::<Other>(id).is_none(), "wrong type yields None");
        assert!(e.get_mut::<Echo>(id).is_some());
    }

    #[test]
    fn zero_delay_is_clamped_to_one() {
        struct Sender {
            dst: ComponentId,
            sent: bool,
        }
        impl Component for Sender {
            fn tick(&mut self, ctx: &mut Ctx<'_>) {
                if !self.sent {
                    self.sent = true;
                    ctx.send(
                        self.dst,
                        Message::Credit {
                            from: netcrafter_proto::NodeId(0),
                            count: 1,
                            link: 0,
                        },
                        0,
                    );
                }
            }
            fn busy(&self) -> bool {
                false
            }
            fn name(&self) -> &str {
                "sender"
            }
        }
        let mut b = EngineBuilder::new();
        let s = b.reserve();
        let r = b.reserve();
        b.install(
            s,
            Box::new(Sender {
                dst: r,
                sent: false,
            }),
        );
        b.install(
            r,
            Box::new(Echo {
                peer: s,
                delay: 1,
                received: vec![],
                bounces_left: 0,
            }),
        );
        let mut e = b.build();
        e.step(); // sender sends at cycle 1 with delay 0 -> arrives cycle 2
        assert_eq!(e.messages_delivered(), 0);
        e.step();
        assert_eq!(e.messages_delivered(), 1);
    }

    // ---- event-driven scheduler ----

    /// Counts its own ticks; forwards each message onward after `delay`.
    /// Wake class `OnMessage`: a pure message reactor.
    struct Relay {
        peer: ComponentId,
        delay: u64,
        ticks: u64,
        forwarded: u64,
        hops_left: u64,
    }
    impl Component for Relay {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            self.ticks += 1;
            while let Some(msg) = ctx.recv() {
                if self.hops_left > 0 {
                    self.hops_left -= 1;
                    self.forwarded += 1;
                    ctx.send(self.peer, msg, self.delay);
                }
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

    /// Emits one credit every `period` cycles via a precise `At` wake,
    /// until `left` runs out.
    struct Pulse {
        dst: ComponentId,
        period: Cycle,
        next: Cycle,
        left: u32,
    }
    impl Component for Pulse {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while ctx.recv().is_some() {}
            if self.left > 0 && ctx.cycle() >= self.next {
                self.left -= 1;
                self.next = ctx.cycle() + self.period;
                ctx.send(self.dst, credit(self.left), 1);
            }
        }
        fn busy(&self) -> bool {
            self.left > 0
        }
        fn name(&self) -> &str {
            "pulse"
        }
        fn next_wake(&self, _now: Cycle) -> Wake {
            if self.left > 0 {
                Wake::At(self.next)
            } else {
                Wake::OnMessage
            }
        }
    }

    fn relay_ring(mode: SchedulerMode) -> (Engine, Vec<ComponentId>) {
        let mut b = EngineBuilder::new();
        let ids: Vec<ComponentId> = (0..8).map(|_| b.reserve()).collect();
        for (i, &id) in ids.iter().enumerate() {
            b.install(
                id,
                Box::new(Relay {
                    peer: ids[(i + 1) % ids.len()],
                    delay: 37,
                    ticks: 0,
                    forwarded: 0,
                    hops_left: 5,
                }),
            );
        }
        let mut e = b.build();
        e.set_scheduler(mode);
        (e, ids)
    }

    #[test]
    fn event_driven_matches_legacy_on_relay_ring() {
        let run = |mode| {
            let (mut e, ids) = relay_ring(mode);
            e.inject(ids[0], credit(1), 1);
            let end = e.run_to_quiescence(100_000);
            (end, e.messages_delivered())
        };
        assert_eq!(
            run(SchedulerMode::Legacy),
            run(SchedulerMode::EventDriven),
            "schedulers must agree on end cycle and delivery count"
        );
    }

    #[test]
    fn event_driven_skips_idle_cycles() {
        let (mut e, ids) = relay_ring(SchedulerMode::EventDriven);
        e.inject(ids[0], credit(1), 1);
        let end = e.run_to_quiescence(100_000);
        let total_ticks: u64 = ids
            .iter()
            .map(|&id| e.get::<Relay>(id).unwrap().ticks)
            .sum();
        // Legacy would tick 8 components x `end` cycles; event-driven
        // ticks only the initial arming plus one tick per delivery.
        assert!(
            total_ticks < 8 + 2 * e.messages_delivered(),
            "ticks {total_ticks} deliveries {} end {end}",
            e.messages_delivered()
        );
    }

    #[test]
    fn at_wakes_fire_on_schedule_in_both_modes() {
        let run = |mode| {
            let mut b = EngineBuilder::new();
            let sink = b.reserve();
            b.add(Box::new(Pulse {
                dst: sink,
                period: 50,
                next: 1,
                left: 6,
            }));
            b.install(sink, Box::new(Recorder { got: vec![] }));
            let mut e = b.build();
            e.set_scheduler(mode);
            let end = e.run_to_quiescence(10_000);
            let got = e.get::<Recorder>(sink).unwrap().got.clone();
            (end, e.messages_delivered(), got)
        };
        let legacy = run(SchedulerMode::Legacy);
        let event = run(SchedulerMode::EventDriven);
        assert_eq!(legacy, event);
        assert_eq!(legacy.1, 6, "six pulses delivered");
    }

    #[test]
    fn external_mutation_is_observed() {
        struct Latch {
            armed: bool,
            fired: bool,
        }
        impl Component for Latch {
            fn tick(&mut self, ctx: &mut Ctx<'_>) {
                while ctx.recv().is_some() {}
                if self.armed {
                    self.armed = false;
                    self.fired = true;
                }
            }
            fn busy(&self) -> bool {
                self.armed
            }
            fn name(&self) -> &str {
                "latch"
            }
            fn next_wake(&self, _now: Cycle) -> Wake {
                if self.armed {
                    Wake::EveryCycle
                } else {
                    Wake::OnMessage
                }
            }
        }
        let mut b = EngineBuilder::new();
        let id = b.add(Box::new(Latch {
            armed: false,
            fired: false,
        }));
        let mut e = b.build();
        e.run_to_quiescence(10);
        assert!(e.quiescent());
        // Mutate behind the scheduler's back: the engine must notice the
        // busy flip and tick the component again.
        e.get_mut::<Latch>(id).unwrap().armed = true;
        assert!(!e.quiescent(), "dirty component re-checked live");
        e.run_to_quiescence(10);
        assert!(e.get::<Latch>(id).unwrap().fired, "latch got its tick");
    }

    #[test]
    fn fast_forward_takes_overflow_and_wheel_paths() {
        // Chain: delivery at 2000 (overflow), relayed with delay 37
        // (wheel). Event-driven must land on both exactly.
        let run = |mode| {
            let mut b = EngineBuilder::new();
            let tail = b.reserve();
            let head = b.add(Box::new(Relay {
                peer: tail,
                delay: 37,
                ticks: 0,
                forwarded: 0,
                hops_left: 1,
            }));
            b.install(
                tail,
                Box::new(Relay {
                    peer: head,
                    delay: 1,
                    ticks: 0,
                    forwarded: 0,
                    hops_left: 0,
                }),
            );
            let mut e = b.build();
            e.set_scheduler(mode);
            e.inject(head, credit(3), 2000);
            let end = e.run_to_quiescence(5000);
            (end, e.messages_delivered())
        };
        let legacy = run(SchedulerMode::Legacy);
        assert_eq!(legacy, run(SchedulerMode::EventDriven));
        assert_eq!(legacy, (2037, 2));
    }

    /// Snapshot-capable bouncer: returns each credit to its peer with a
    /// delay drawn from a fixed rotation mixing same-slot, wheel-range
    /// and overflow-range hops, so a long run recycles arena slots
    /// continuously.
    struct Churner {
        peer: ComponentId,
        delays: &'static [u64],
        next_delay: usize,
        bounces_left: u32,
        received: u64,
    }

    impl Component for Churner {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                self.received += 1;
                if self.bounces_left > 0 {
                    self.bounces_left -= 1;
                    let d = self.delays[self.next_delay % self.delays.len()];
                    self.next_delay += 1;
                    ctx.send(self.peer, msg, d);
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "churner"
        }
        crate::snap_fields! {
            fn save_state + load_state {
                peer: skipped(wiring),
                delays: skipped(config),
                next_delay,
                bounces_left,
                received,
            }
        }
    }

    /// Drains at most one message per tick, so a same-cycle burst sits
    /// in its engine-side inbox across several cycles — exactly the
    /// state a snapshot must carry through the arena.
    struct Sloth {
        backlog: u32,
        got: u64,
    }

    impl Component for Sloth {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.recv().is_some() {
                self.got += 1;
                self.backlog -= 1;
            }
        }
        fn busy(&self) -> bool {
            self.backlog > 0
        }
        fn name(&self) -> &str {
            "sloth"
        }
        crate::snap_fields! {
            fn save_state + load_state { backlog, got }
        }
    }

    const CHURN_DELAYS: &[u64] = &[1, 3, 700, 2, 517, 5];

    fn churn_engine() -> Engine {
        let mut b = EngineBuilder::new();
        let a = b.reserve();
        let c = b.reserve();
        b.install(
            a,
            Box::new(Churner {
                peer: c,
                delays: CHURN_DELAYS,
                next_delay: 0,
                bounces_left: 40,
                received: 0,
            }),
        );
        b.install(
            c,
            Box::new(Churner {
                peer: a,
                delays: CHURN_DELAYS,
                next_delay: 0,
                bounces_left: 40,
                received: 0,
            }),
        );
        b.add(Box::new(Sloth { backlog: 4, got: 0 }));
        b.build()
    }

    #[test]
    fn snapshot_round_trip_survives_arena_churn() {
        let mut live = churn_engine();
        let a = ComponentId(0);
        let sloth = ComponentId(2);
        // Several concurrent bounce chains spanning wheel and overflow
        // ranges, plus a same-cycle burst the sloth drains one per tick.
        for i in 0..6u32 {
            live.inject(a, credit(i), 1 + u64::from(i) * 400);
        }
        for i in 0..4u32 {
            live.inject(sloth, credit(100 + i), 450);
        }
        // Pause mid-flight: the sloth's backlog keeps an inbox occupied,
        // short hops sit in the wheel and a 400/700-cycle hop scheduled
        // near the pause sits in the overflow map.
        live.run_until(451);
        assert!(
            live.core
                .in_flight()
                .any(|(when, _, _)| when - live.cycle() < crate::sched::WHEEL_SLOTS as u64),
            "pause must catch a delivery in the wheel"
        );
        assert!(
            live.core
                .in_flight()
                .any(|(when, _, _)| when - live.cycle() >= crate::sched::WHEEL_SLOTS as u64),
            "pause must catch a long-range delivery in overflow"
        );
        assert!(
            live.core.inboxes.iter().any(|q| !q.is_empty()),
            "pause must catch an undrained inbox"
        );

        // Fixed point: restore into a freshly built twin; its re-encoded
        // snapshot and state hash are byte-identical.
        let snap = live.save_snapshot();
        let mut twin = churn_engine();
        twin.restore(&snap).expect("snapshot restores");
        assert_eq!(
            twin.save_snapshot(),
            snap,
            "save/load/save is a fixed point"
        );
        assert_eq!(twin.state_hash(), live.state_hash());

        // Continuation: both runs land on the same end state.
        let end_live = live.run_to_quiescence(100_000);
        let end_twin = twin.run_to_quiescence(100_000);
        assert_eq!(
            end_live, end_twin,
            "restored run quiesces at the same cycle"
        );
        assert_eq!(live.messages_delivered(), twin.messages_delivered());
        assert_eq!(live.state_hash(), twin.state_hash());

        // Arena recycling: ~90 deliveries flowed through, but the slab
        // only ever grew to the peak concurrent in-flight count.
        assert!(
            live.messages_delivered() >= 80,
            "expected a long churn run, got {} deliveries",
            live.messages_delivered()
        );
        assert!(
            live.core.arena.is_empty(),
            "quiescent engine holds no payloads"
        );
        assert!(
            live.core.arena.capacity() <= 16,
            "arena failed to recycle: {} slots for {} deliveries",
            live.core.arena.capacity(),
            live.messages_delivered()
        );
    }
}
