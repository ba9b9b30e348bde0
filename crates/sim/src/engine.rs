//! The cycle engine: the component interface and the [`Engine`], which
//! owns every component with its mailbox, the message arena and the
//! scheduler state, and advances them one executed cycle at a time.
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
//!
//! One 512-slot wheel holds every future event: a slot carries the
//! deliveries due at one cycle and a linked list of the components whose
//! timed wake ([`Wake::At`]) falls on it, with an overflow list and a far
//! list for anything further out. The always-on components and a cycle's
//! woken set are bitsets, walked in ascending index order, so no woken
//! list is sorted or deduplicated, and push order is delivery order, so a
//! delivery carries no ordering key.

use std::any::Any;
use std::collections::VecDeque;

use netcrafter_proto::Message;

use crate::arena::{Arena, Handle};
use crate::snapshot::{
    read_header, write_header, Snap, SnapshotError, SnapshotReader, SnapshotWriter,
};
use crate::trace::{Trace, TraceConfig, Tracer};
use crate::Cycle;

/// Sentinel for "no scheduled wake / no pending delivery".
const NEVER: Cycle = Cycle::MAX;

/// Delay-wheel size: delays below this are O(1); longer delays take the
/// (rare) overflow path.
const WHEEL_SLOTS: usize = 512;

/// The wheel slot holding the deliveries and wakes due at `cycle`.
#[inline]
#[allow(clippy::cast_possible_truncation)] // the remainder is below WHEEL_SLOTS
fn wheel_slot(cycle: Cycle) -> usize {
    (cycle % WHEEL_SLOTS as u64) as usize
}

/// Wake-list node of the far list (wakes `WHEEL_SLOTS` or more cycles
/// out); nodes `0..WHEEL_SLOTS` head the wheel slots' lists.
const FAR: usize = WHEEL_SLOTS;

/// Number of list heads: component `l`'s node is `HEADS + l`.
const HEADS: usize = WHEEL_SLOTS + 1;

/// A node of the circular, doubly linked wake lists (`Engine::links`).
#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

impl Link {
    /// An empty list's head (or an unlinked node), pointing at itself.
    #[allow(clippy::cast_possible_truncation)] // `EngineBuilder::build` bounds every node below 2^32
    fn alone(node: usize) -> Link {
        Link {
            prev: node as u32,
            next: node as u32,
        }
    }
}

/// Sets bit `i` of a bitset.
#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Clears bit `i` of a bitset.
#[inline]
fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

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
pub trait Component: Any + Send {
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
    cycle: Cycle,
    inbox: &'a mut VecDeque<Handle>,
    outbox: &'a mut Vec<(Cycle, ComponentId, Handle)>,
    arena: &'a mut Arena<Message>,
    self_id: ComponentId,
    tracer: &'a mut Tracer,
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

    /// Finalizes the engine at cycle 0, event-driven, tracing off.
    ///
    /// # Panics
    ///
    /// Panics if any reserved slot was never installed.
    pub fn build(self) -> Engine {
        let n = self.slots.len();
        assert!(HEADS + n < u32::MAX as usize, "too many components");
        let comps = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("component slot {i} never installed")))
            .collect();
        let mut engine = Engine {
            comps,
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            arena: Arena::new(),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_SLOTS / 64],
            overflow: Vec::new(),
            overflow_min: NEVER,
            slot_scratch: Vec::new(),
            overflow_scratch: Vec::new(),
            cycle: 0,
            in_flight: 0,
            delivered: 0,
            ticks: 0,
            steps: 0,
            outbox: Vec::new(),
            armed: vec![NEVER; n],
            links: (0..HEADS + n).map(Link::alone).collect(),
            far_min: NEVER,
            far_stale: false,
            every: vec![0; n.div_ceil(64)],
            every_count: 0,
            woken: vec![0; n.div_ceil(64)],
            busy_flags: vec![false; n],
            busy_count: 0,
            tracer: Tracer::off(),
            mode: SchedulerMode::EventDriven,
        };
        // Every component gets a first tick on cycle 1 and re-arms
        // itself from there via the wake its tick returns.
        engine.rebuild();
        engine
    }
}

/// The simulation engine: owns every component, mailbox and in-flight
/// message, and the scheduler state that drives them, indexed by
/// component id; advances simulated time.
pub struct Engine {
    comps: Vec<Box<dyn Component>>,
    inboxes: Vec<VecDeque<Handle>>,
    /// Backing store for every in-flight and mailboxed message payload;
    /// the wheel, inboxes and outbox move 8-byte handles instead.
    arena: Arena<Message>,
    /// Ring buffer of future deliveries indexed by `cycle % WHEEL_SLOTS`;
    /// a slot only ever holds one cycle's deliveries. Its timed wakes are
    /// the list headed by node `slot` of `links`.
    wheel: Vec<Vec<(usize, Handle)>>,
    /// Wheel slots that may hold a delivery or a wake, one bit each: set
    /// whenever one is filed, cleared when the slot is drained or found
    /// empty by [`Engine::next_event_cycle`].
    occupied: [u64; WHEEL_SLOTS / 64],
    /// Deliveries further than `WHEEL_SLOTS` cycles out (rare).
    overflow: Vec<(Cycle, usize, Handle)>,
    /// Earliest delivery cycle in `overflow` (`NEVER` when empty).
    overflow_min: Cycle,
    /// Persistent buffers swapped with the due wheel slot / the overflow
    /// list during a step, so the steady state allocates nothing.
    slot_scratch: Vec<(usize, Handle)>,
    overflow_scratch: Vec<(Cycle, usize, Handle)>,
    cycle: Cycle,
    in_flight: usize,
    delivered: u64,
    /// Component ticks executed: host work, never snapshotted.
    ticks: u64,
    /// Cycles executed ([`Engine::step_at`] calls): host work too.
    steps: u64,
    /// Sends staged by the component being ticked.
    outbox: Vec<(Cycle, ComponentId, Handle)>,
    /// Next cycle each component must tick (`NEVER` = waiting on a
    /// message). The one rule for a timed wake: component `l` is on a
    /// wake list exactly when `armed[l]` is not `NEVER` — the list of
    /// slot `armed[l] % WHEEL_SLOTS`, or the far list while that cycle
    /// is out of the wheel's range.
    armed: Vec<Cycle>,
    /// Circular doubly linked wake lists: the `HEADS` list heads, then
    /// one node per component, so a wake is filed, moved or cancelled in
    /// O(1) and a due slot is drained by walking its list.
    links: Vec<Link>,
    /// Earliest wake on the far list (`NEVER` when empty); below the true
    /// minimum while `far_stale`.
    far_min: Cycle,
    /// A wake at `far_min` may have been cancelled since `far_min` was
    /// last computed.
    far_stale: bool,
    /// Components whose last wake was [`Wake::EveryCycle`], one bit each:
    /// ticked every cycle with no wake-list traffic.
    every: Vec<u64>,
    /// Number of set bits in `every`.
    every_count: usize,
    /// The components woken by this cycle's deliveries and due wakes, one
    /// bit each; cleared as the step ticks them.
    woken: Vec<u64>,
    /// Cached `busy()` per component, folded after each tick and each
    /// [`Engine::with_mut`], so quiescence needs no O(n) rescan.
    busy_flags: Vec<bool>,
    /// Number of `true` entries in `busy_flags`.
    busy_count: usize,
    tracer: Tracer,
    mode: SchedulerMode,
}

impl Engine {
    /// Current simulation cycle.
    #[inline]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Total messages delivered so far.
    #[inline]
    pub fn messages_delivered(&self) -> u64 {
        self.delivered
    }

    /// Component ticks executed by this engine object so far, under
    /// whichever schedulers it ran. A measure of host work: it is not
    /// part of the simulated state, so a snapshot neither saves nor
    /// restores it, and the event-driven scheduler exists to make it small.
    #[inline]
    pub fn ticks_executed(&self) -> u64 {
        self.ticks
    }

    /// Cycles this engine object has executed so far, under whichever
    /// schedulers it ran: every cycle under Legacy, only the cycles with
    /// a delivery or a wake event-driven. Host work like
    /// [`Engine::ticks_executed`], and likewise never snapshotted.
    #[inline]
    pub fn steps_executed(&self) -> u64 {
        self.steps
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.comps.len()
    }

    /// True if the engine contains no components.
    pub fn is_empty(&self) -> bool {
        self.comps.is_empty()
    }

    /// Switches scheduler mid-flight: re-arms every component for the
    /// next cycle and refreshes the busy cache, so no wake derived under
    /// the previous mode is trusted.
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.mode = mode;
        self.rebuild();
    }

    /// Turns on structured-event tracing with the given filter. One track
    /// is registered per component (in id order), so [`crate::Event::track`]
    /// equals the component id. Call before running; events from earlier
    /// cycles are simply absent.
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        let mut tracer = Tracer::new(config);
        for comp in &self.comps {
            tracer.register_track(comp.name());
        }
        tracer.set_now(self.cycle);
        self.tracer = tracer;
    }

    /// The structured-event tracer (disabled unless
    /// [`Engine::enable_tracing`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Extracts everything recorded since [`Engine::enable_tracing`] (or
    /// the last call to this method), leaving tracing active.
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }

    /// Injects a message from outside the simulation (e.g. a kernel-launch
    /// trigger), delivered at `cycle + delay`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a component of this engine.
    pub fn inject(&mut self, dst: ComponentId, msg: Message, delay: u64) {
        let when = self.cycle + delay.max(1);
        let h = self.arena.alloc(msg);
        self.schedule(when, dst.0, h);
    }

    /// True when nothing remains to simulate: every mailbox is empty, no
    /// message is in flight, and no component reports internal work.
    /// O(1) via the incrementally maintained busy count.
    pub fn quiescent(&self) -> bool {
        self.in_flight == 0 && self.busy_count == 0
    }

    /// Advances one cycle: delivers due messages, then ticks components —
    /// all of them under [`SchedulerMode::Legacy`], only woken ones under
    /// [`SchedulerMode::EventDriven`].
    pub fn step(&mut self) {
        self.advance(self.cycle + 1);
    }

    /// Executes the next cycle that has work — under Legacy simply the
    /// next cycle — but none past `limit` (which must lie ahead). The
    /// cycles skipped are ones in which no component would tick and no
    /// message would be delivered.
    fn advance(&mut self, limit: Cycle) {
        let legacy = self.mode == SchedulerMode::Legacy;
        let next = self.cycle + 1;
        let land = if legacy || limit == next {
            next
        } else {
            self.next_event_cycle().clamp(next, limit)
        };
        self.step_at(land, legacy);
    }

    /// Runs until [`Engine::quiescent`] or until `max_cycles` elapse.
    /// Returns the final cycle.
    ///
    /// # Panics
    ///
    /// Panics if the cycle limit is hit while work remains — a livelocked
    /// simulation is always a modelling bug and must not pass silently.
    pub fn run_to_quiescence(&mut self, max_cycles: Cycle) -> Cycle {
        let limit = self.cycle.saturating_add(max_cycles);
        while !self.quiescent() {
            assert!(
                self.cycle < limit,
                "simulation did not quiesce within {max_cycles} cycles; busy: {:?}",
                self.busy_components()
            );
            self.advance(limit);
        }
        self.cycle
    }

    /// Runs while `cond` holds and work remains, up to `max_cycles`.
    ///
    /// Under the event-driven scheduler, `cond` is evaluated before each
    /// *executed* cycle; idle stretches are fast-forwarded (never past
    /// `max_cycles`), so a condition that flips on a cycle in which
    /// nothing is scheduled is observed at the next event or at the limit.
    pub fn run_while(&mut self, max_cycles: Cycle, mut cond: impl FnMut(&Engine) -> bool) -> Cycle {
        let limit = self.cycle.saturating_add(max_cycles);
        while self.cycle < limit && cond(self) && !self.quiescent() {
            self.advance(limit);
        }
        self.cycle
    }

    /// Names of components currently reporting work, for diagnostics.
    pub fn busy_components(&self) -> Vec<&str> {
        self.comps
            .iter()
            .filter(|c| c.busy())
            .map(|c| c.name())
            .collect()
    }

    /// Typed access to a component: the stats-harvesting path used by the
    /// measurement harness, which knows what it installed at each id.
    /// `None` when `id` is unknown or not a `T`.
    pub fn get<T: Component>(&self, id: ComponentId) -> Option<&T> {
        (self.comps.get(id.0)?.as_ref() as &dyn Any).downcast_ref::<T>()
    }

    /// Runs `f` on a component from outside the simulation and returns
    /// its result, or `None` when `id` is unknown or not a `T`. When `f`
    /// returns, the component's busy flag is re-read into the cache and
    /// it is armed for a tick next cycle, since its state may have
    /// changed behind the scheduler's back.
    pub fn with_mut<T: Component, R>(
        &mut self,
        id: ComponentId,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let comp = self.comps.get_mut(id.0)?;
        let out = f((comp.as_mut() as &mut dyn Any).downcast_mut::<T>()?);
        let busy = comp.busy();
        self.fold_busy(id.0, busy);
        self.arm(id.0, self.cycle + 1);
        Some(out)
    }

    // ---- checkpoint / restore ----

    /// Runs until the clock reaches `target` or the system quiesces,
    /// whichever comes first. Every cycle boundary is a valid checkpoint
    /// under both scheduler modes (DESIGN.md §3.4).
    pub fn run_until(&mut self, target: Cycle) -> Cycle {
        self.run_while(target.saturating_sub(self.cycle), |_| true)
    }

    /// Appends the engine's full dynamic state — clock, every component's
    /// saved state, mailboxes and in-flight messages — to `w`, in the
    /// canonical order described in DESIGN.md §3.4. Scheduler-derived
    /// state (timed-wake lists, armed table, busy cache) is intentionally
    /// excluded: it is reconstructed bit-exactly on load, which also makes
    /// snapshots portable across scheduler modes. So is the tracer: it
    /// observes the run and is not part of its state.
    pub fn save_state_into(&self, w: &mut SnapshotWriter) {
        w.put_len(self.comps.len());
        w.put_u64(self.cycle);
        w.put_u64(self.delivered);
        for comp in &self.comps {
            w.put_str(comp.name());
            let mut body = SnapshotWriter::new();
            comp.save_state(&mut body);
            w.put_bytes(&body.into_bytes());
        }
        // Mailboxes: same bytes as a `VecDeque<Message>` save — handles
        // are resolved through the arena in queue order.
        for inbox in &self.inboxes {
            w.put_len(inbox.len());
            for &h in inbox {
                self.arena.get(h).save(w);
            }
        }
        // In-flight messages in canonical order: ascending delivery cycle
        // through the wheel, send order within a cycle, then the overflow
        // list.
        w.put_len(self.in_flight);
        let wheel = (1..WHEEL_SLOTS as u64).flat_map(|d| {
            let when = self.cycle + d;
            let slot = &self.wheel[wheel_slot(when)];
            slot.iter().map(move |&(l, h)| (when, l, h))
        });
        for (when, dst, h) in wheel.chain(self.overflow.iter().copied()) {
            w.put_u64(when);
            w.put_len(dst);
            self.arena.get(h).save(w);
        }
    }

    /// Restores the state written by [`Engine::save_state_into`] into
    /// this engine, which must contain the same components (same count,
    /// names and order — i.e. be built from the same configuration).
    /// The active scheduler mode is kept and all of its derived state is
    /// rebuilt from scratch, exactly as [`Engine::set_scheduler`] does;
    /// the engine's own tracer is kept too and records from the restored
    /// cycle on.
    ///
    /// # Errors
    ///
    /// Fails on a snapshot that does not decode or does not match this
    /// engine. The engine is then partly restored and must be dropped.
    pub fn load_state_from(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_len()?;
        if n != self.comps.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n} components, engine has {}",
                self.comps.len()
            )));
        }
        let cycle = r.get_u64()?;
        let delivered = r.get_u64()?;
        // Borrow every component blob from the snapshot buffer (restore
        // is a sweep hot path — no per-component copies or name allocs).
        let mut bodies: Vec<&[u8]> = Vec::with_capacity(n);
        for comp in &self.comps {
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

        // The engine-level framing decoded; from here the engine is
        // assigned piece by piece, and a component whose blob fails to
        // load leaves it partly restored.
        self.cycle = cycle;
        self.delivered = delivered;
        for (comp, body) in self.comps.iter_mut().zip(&bodies) {
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
        self.arena = Arena::new();
        self.inboxes.clear();
        for inbox in inboxes {
            let mut q = VecDeque::with_capacity(inbox.len());
            for msg in inbox {
                q.push_back(self.arena.alloc(msg));
            }
            self.inboxes.push(q);
        }
        self.wheel.iter_mut().for_each(Vec::clear);
        self.overflow.clear();
        self.overflow_min = NEVER;
        self.in_flight = 0;
        for (when, dst, msg) in deliveries {
            let h = self.arena.alloc(msg);
            self.schedule(when, dst, h);
        }
        self.tracer.set_now(cycle);
        self.rebuild();
        Ok(())
    }

    /// Serializes the engine into a standalone versioned snapshot
    /// (header + [`Engine::save_state_into`] body).
    pub fn save_snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_header(&mut w);
        self.save_state_into(&mut w);
        w.into_bytes()
    }

    /// Restores a snapshot produced by [`Engine::save_snapshot`],
    /// validating the header (magic, version) and that every byte is
    /// consumed.
    ///
    /// # Errors
    ///
    /// As [`Engine::load_state_from`], plus a bad header or trailing
    /// bytes; on `Err` the engine is partly restored and must be dropped.
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
    pub fn state_hash(&self) -> u64 {
        let mut w = SnapshotWriter::new();
        self.save_state_into(&mut w);
        netcrafter_proto::fnv1a64(&w.into_bytes())
    }

    // ---- the scheduler ----

    /// Discards every derived wake and schedules a fresh tick for every
    /// component next cycle, then re-reads every `busy()` into the
    /// cache. Always bit-exact: ticking an idle component is
    /// observable-effect-free by the [`Component::next_wake`] contract
    /// (the Legacy reference ticks everything every cycle and must agree).
    fn rebuild(&mut self) {
        for (head, link) in self.links[..HEADS].iter_mut().enumerate() {
            *link = Link::alone(head);
        }
        self.far_min = NEVER;
        self.far_stale = false;
        self.every_count = 0;
        self.every.fill(0);
        self.armed.fill(NEVER);
        for l in 0..self.comps.len() {
            self.arm(l, self.cycle + 1);
            let busy = self.comps[l].busy();
            self.fold_busy(l, busy);
        }
    }

    /// Schedules component `l` to tick at `when` (keeping any earlier
    /// wake it already has).
    #[inline]
    fn arm(&mut self, l: usize, when: Cycle) {
        if when < self.armed[l] {
            if self.armed[l] != NEVER {
                self.cancel_wake(l);
            }
            self.armed[l] = when;
            debug_assert!(when > self.cycle);
            if when - self.cycle < WHEEL_SLOTS as u64 {
                self.file_in_slot(l, when);
            } else {
                self.far_min = self.far_min.min(when);
                self.link(FAR, HEADS + l);
            }
        }
    }

    /// Links component `l` into the wake list of the wheel slot of cycle
    /// `when`, which must be in the wheel's range.
    #[inline]
    fn file_in_slot(&mut self, l: usize, when: Cycle) {
        let slot = wheel_slot(when);
        self.link(slot, HEADS + l);
        set_bit(&mut self.occupied, slot);
    }

    /// Takes component `l`'s timed wake off its list and disarms it.
    #[inline]
    fn cancel_wake(&mut self, l: usize) {
        if self.armed[l] == self.far_min {
            self.far_stale = true;
        }
        self.unlink(HEADS + l);
        self.armed[l] = NEVER;
    }

    /// Appends `node` to the list headed by `head`.
    #[inline]
    #[allow(clippy::cast_possible_truncation)] // `EngineBuilder::build` bounds every node below 2^32
    fn link(&mut self, head: usize, node: usize) {
        let tail = self.links[head].prev;
        self.links[node] = Link {
            prev: tail,
            next: head as u32,
        };
        self.links[tail as usize].next = node as u32;
        self.links[head].prev = node as u32;
    }

    /// Removes `node` from whichever list holds it.
    #[inline]
    fn unlink(&mut self, node: usize) {
        let Link { prev, next } = self.links[node];
        self.links[prev as usize].next = next;
        self.links[next as usize].prev = prev;
    }

    /// Drops `l` from the always-on set.
    #[inline]
    fn unevery(&mut self, l: usize) {
        if self.every[l / 64] & (1 << (l % 64)) != 0 {
            clear_bit(&mut self.every, l);
            self.every_count -= 1;
        }
    }

    /// Stores component `l`'s busy flag in the cache, keeping
    /// `busy_count` equal to the number of set flags.
    #[inline]
    fn fold_busy(&mut self, l: usize, busy: bool) {
        let was = std::mem::replace(&mut self.busy_flags[l], busy);
        self.busy_count = self.busy_count + usize::from(busy) - usize::from(was);
    }

    /// Queues `h` for delivery to component `l` at cycle `when`.
    #[inline]
    fn schedule(&mut self, when: Cycle, l: usize, h: Handle) {
        assert!(
            l < self.comps.len(),
            "send to unknown component {}",
            ComponentId(l)
        );
        debug_assert!(when > self.cycle);
        self.in_flight += 1;
        if (when - self.cycle) < WHEEL_SLOTS as u64 {
            let slot = wheel_slot(when);
            self.wheel[slot].push((l, h));
            set_bit(&mut self.occupied, slot);
        } else {
            self.overflow_min = self.overflow_min.min(when);
            self.overflow.push((when, l, h));
        }
    }

    /// Earliest future cycle with scheduled work — a component wake or a
    /// message delivery — or `NEVER` when nothing is pending.
    fn next_event_cycle(&mut self) -> Cycle {
        // An always-on component ticks next cycle, full stop.
        if self.every_count > 0 {
            return self.cycle + 1;
        }
        if self.far_stale {
            self.far_min = NEVER;
            let mut node = self.links[FAR].next as usize;
            while node != FAR {
                self.far_min = self.far_min.min(self.armed[node - HEADS]);
                node = self.links[node].next as usize;
            }
            self.far_stale = false;
        }
        // The first occupied wheel slot ahead, if it comes before both
        // out-of-range lists. A slot whose bit outlived its contents is
        // cleared on the way.
        let bound = self.overflow_min.min(self.far_min);
        let span = (bound - self.cycle).min(WHEEL_SLOTS as u64);
        let mut d = 1;
        while d < span {
            let slot = wheel_slot(self.cycle + d);
            let ahead = self.occupied[slot / 64] >> (slot % 64);
            if ahead == 0 {
                d += (64 - slot % 64) as u64;
                continue;
            }
            d += u64::from(ahead.trailing_zeros());
            if d >= span {
                break;
            }
            let slot = wheel_slot(self.cycle + d);
            if !self.wheel[slot].is_empty() || self.links[slot].next as usize != slot {
                return self.cycle + d;
            }
            clear_bit(&mut self.occupied, slot);
            d += 1;
        }
        bound
    }

    /// Executes cycle `c` (any cycle after the current one up to
    /// [`Engine::next_event_cycle`]): delivers the messages due at `c`,
    /// then ticks components in ascending index order — every one of
    /// them when `tick_all` (the Legacy reference, which ignores the
    /// returned wakes), otherwise only the woken ones.
    fn step_at(&mut self, c: Cycle, tick_all: bool) {
        debug_assert!(c > self.cycle);
        self.cycle = c;
        self.steps += 1;
        self.tracer.set_now(c);

        // Refill the wheel from the overflow list when anything has come
        // into range (checked against the cached minimum: overflow is
        // rare, and the scan must not run on every step). The drain is
        // order-preserving — a `swap_remove` here would scramble the
        // same-cycle delivery order of the survivors on a later refill.
        // An entry due at `c` itself lands in slot `c`, which is empty
        // until then: anything pushed there directly was sent within the
        // last `WHEEL_SLOTS` cycles, in a step whose own refill had
        // already moved this entry.
        let horizon = c + WHEEL_SLOTS as u64;
        if self.overflow_min < horizon {
            let mut pending = std::mem::replace(
                &mut self.overflow,
                std::mem::take(&mut self.overflow_scratch),
            );
            let mut min_left = NEVER;
            for (when, l, h) in pending.drain(..) {
                if when < horizon {
                    let slot = wheel_slot(when);
                    self.wheel[slot].push((l, h));
                    set_bit(&mut self.occupied, slot);
                } else {
                    min_left = min_left.min(when);
                    self.overflow.push((when, l, h));
                }
            }
            self.overflow_min = min_left;
            self.overflow_scratch = pending;
        }
        // Likewise move far wakes that have come into range.
        if self.far_min < horizon {
            let mut min_left = NEVER;
            let mut node = self.links[FAR].next as usize;
            while node != FAR {
                let next = self.links[node].next as usize;
                let when = self.armed[node - HEADS];
                debug_assert!(when >= c, "a far wake at {when} was overrun by cycle {c}");
                if when < horizon {
                    self.unlink(node);
                    self.file_in_slot(node - HEADS, when);
                } else {
                    min_left = min_left.min(when);
                }
                node = next;
            }
            self.far_min = min_left;
            self.far_stale = false;
        }

        // The wakes due at `c`: all of the slot's list, which then
        // empties in one step.
        let slot = wheel_slot(c);
        let mut node = self.links[slot].next as usize;
        while node != slot {
            let l = node - HEADS;
            debug_assert_eq!(self.armed[l], c);
            self.armed[l] = NEVER;
            set_bit(&mut self.woken, l);
            node = self.links[node].next as usize;
        }
        self.links[slot] = Link::alone(slot);
        clear_bit(&mut self.occupied, slot);

        // Deliver the slot due this cycle. The slot vector and the
        // persistent scratch buffer trade places (and capacities). A
        // receiver wakes now, so any later timed wake it had is moot.
        let mut due = std::mem::replace(
            &mut self.wheel[slot],
            std::mem::take(&mut self.slot_scratch),
        );
        self.in_flight -= due.len();
        self.delivered += due.len() as u64;
        for (l, h) in due.drain(..) {
            if self.armed[l] != NEVER {
                self.cancel_wake(l);
            }
            set_bit(&mut self.woken, l);
            self.inboxes[l].push_back(h);
        }
        self.slot_scratch = due;
        if tick_all {
            self.woken.fill(0);
            for l in 0..self.comps.len() {
                self.tick_one(l);
            }
            return;
        }

        // Tick the woken and always-on components in ascending index
        // order — the reference tick order restricted to the woken set
        // (skipped components' ticks are no-ops by the `next_wake`
        // contract, so the interleaving is equivalent). A tick only
        // files wakes and deliveries for later cycles, so the set is
        // fixed before the first tick.
        for word in 0..self.woken.len() {
            let mut bits = self.woken[word] | self.every[word];
            if bits == 0 {
                continue;
            }
            self.woken[word] = 0;
            while bits != 0 {
                let l = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                match self.tick_one(l) {
                    Wake::EveryCycle => {
                        let bit = 1 << (l % 64);
                        if self.every[word] & bit == 0 {
                            self.every[word] |= bit;
                            self.every_count += 1;
                        }
                    }
                    Wake::At(t) => {
                        self.unevery(l);
                        self.arm(l, t.max(c + 1));
                    }
                    Wake::OnMessage => self.unevery(l),
                }
            }
        }
    }

    /// Ticks component `l` through [`Component::tick_burst`] — the only
    /// way the engine advances a component — then folds its busy flag
    /// into the cache and commits its sends. Returns its next wake.
    ///
    /// Debug builds check the fused busy flag against [`Component::busy`]
    /// on every tick, naming the component and cycle on a mismatch.
    ///
    /// Forced inline, with the send commit out of line behind an emptiness
    /// check: most ticks send nothing, and a call plus the commit loop's
    /// setup on each cost 20–30 % per tick on always-busy components
    /// (`sim.engine.dense_ns_per_tick`) and 8 % of `scaleout_ft16` wall.
    #[inline(always)]
    fn tick_one(&mut self, l: usize) -> Wake {
        self.ticks += 1;
        // Component ids index a Vec of boxed components; 2^32 of them do
        // not fit in memory.
        #[allow(clippy::cast_possible_truncation)]
        self.tracer.focus(l as u32);
        let mut ctx = Ctx {
            cycle: self.cycle,
            inbox: &mut self.inboxes[l],
            outbox: &mut self.outbox,
            arena: &mut self.arena,
            self_id: ComponentId(l),
            tracer: &mut self.tracer,
        };
        let comp = &mut self.comps[l];
        let out = comp.tick_burst(&mut ctx);
        debug_assert_eq!(
            out.busy,
            comp.busy(),
            "`{}` at cycle {}: busy() disagrees with the busy flag tick_burst returned",
            comp.name(),
            self.cycle
        );
        self.fold_busy(l, out.busy);
        if !self.outbox.is_empty() {
            self.commit_sends();
        }
        out.wake
    }

    /// Commits the sends the ticked component staged. Ticks run
    /// in ascending index order and each tick's sends keep their staging
    /// order, so committing after every tick pushes onto the wheel in
    /// exactly the order one commit at the end of the step would.
    #[inline(never)]
    fn commit_sends(&mut self) {
        for i in 0..self.outbox.len() {
            let (when, dst, h) = self.outbox[i];
            self.schedule(when, dst.0, h);
        }
        self.outbox.clear();
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cycle", &self.cycle)
            .field("components", &self.comps.len())
            .field("in_flight", &self.in_flight)
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
        assert_eq!(e.with_mut(id, |echo: &mut Echo| echo.delay), Some(1));
        assert!(e.with_mut(id, |_: &mut Other| ()).is_none());
        let unknown = ComponentId(5);
        assert!(e.get::<Echo>(unknown).is_none(), "unknown id yields None");
        assert!(e.with_mut(unknown, |_: &mut Echo| ()).is_none());
    }

    #[test]
    #[should_panic(expected = "send to unknown component comp5")]
    fn inject_to_an_unknown_component_panics_at_the_call() {
        let mut b = EngineBuilder::new();
        b.add(Box::new(Recorder { got: vec![] }));
        b.build().inject(ComponentId(5), credit(1), 1);
    }

    /// `u64::MAX` means "no limit" from any cycle, not only from 0.
    #[test]
    fn run_limits_saturate_past_cycle_zero() {
        let paused = || {
            let mut b = EngineBuilder::new();
            let r = b.add(Box::new(Recorder { got: vec![] }));
            let mut e = b.build();
            e.inject(r, credit(1), 10);
            assert_eq!(e.run_until(5), 5);
            e
        };
        let mut e = paused();
        assert_eq!(e.run_to_quiescence(Cycle::MAX), 10);
        assert_eq!(e.messages_delivered(), 1);
        let mut e = paused();
        assert_eq!(e.run_while(Cycle::MAX, |_| true), 10);
        assert_eq!(e.messages_delivered(), 1);
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

    /// A mutation through `with_mut` is seen by the busy cache at once and
    /// gets the component a tick next cycle, mid-run and at quiescence,
    /// under both schedulers; event-driven, that tick is the only extra one.
    #[test]
    fn external_mutation_is_observed() {
        struct Latch {
            armed: bool,
            fired: Vec<Cycle>,
        }
        impl Component for Latch {
            fn tick(&mut self, ctx: &mut Ctx<'_>) {
                while ctx.recv().is_some() {}
                if self.armed {
                    self.armed = false;
                    self.fired.push(ctx.cycle());
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
        let run = |mode| {
            let mut b = EngineBuilder::new();
            let id = b.add(Box::new(Latch {
                armed: false,
                fired: vec![],
            }));
            let sink = b.add(Box::new(Relay {
                peer: id,
                delay: 1,
                ticks: 0,
                forwarded: 0,
                hops_left: 0,
            }));
            b.add(Box::new(Pulse {
                dst: sink,
                period: 50,
                next: 1,
                left: 4,
            }));
            let mut e = b.build();
            e.set_scheduler(mode);
            let arm = |e: &mut Engine| {
                e.with_mut(id, |l: &mut Latch| l.armed = true).unwrap();
                assert!(!e.quiescent(), "the busy flip is cached at once");
            };
            assert_eq!(e.run_until(20), 20);
            arm(&mut e);
            assert_eq!(e.run_to_quiescence(1_000), 152, "the pulses end the run");
            arm(&mut e);
            let end = e.run_to_quiescence(10);
            let fired = e.get::<Latch>(id).unwrap().fired.clone();
            (end, fired, e.ticks_executed())
        };
        let (end, fired, ticks) = run(SchedulerMode::EventDriven);
        assert_eq!(
            (end, &fired),
            (153, &vec![21, 153]),
            "each arm is a tick next cycle"
        );
        let legacy = run(SchedulerMode::Legacy);
        assert_eq!((legacy.0, &legacy.1), (end, &fired));
        // Three first ticks, the pulse's three later sends, the sink's
        // four receipts and one tick per mutation.
        assert_eq!(ticks, 3 + 3 + 4 + 2);
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
            live.wheel.iter().any(|slot| !slot.is_empty()),
            "pause must catch a delivery in the wheel"
        );
        assert!(
            !live.overflow.is_empty(),
            "pause must catch a long-range delivery in overflow"
        );
        assert!(
            live.inboxes.iter().any(|q| !q.is_empty()),
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
        assert!(live.arena.is_empty(), "quiescent engine holds no payloads");
        assert!(
            live.arena.capacity() <= 16,
            "arena failed to recycle: {} slots for {} deliveries",
            live.arena.capacity(),
            live.messages_delivered()
        );
    }
}
