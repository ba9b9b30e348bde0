//! The scheduler core: the one step loop behind every execution mode.
//!
//! A [`Core`] owns a set of components with their mailboxes, the message
//! arena, the delay wheel with its overflow list, the wake heap, the
//! always-on set and the busy cache, and advances them one executed
//! cycle at a time. The sequential [`Engine`](crate::Engine) is one core
//! over every component; each domain of the conservative parallel
//! scheduler is one core over its slice (see `parallel.rs`).
//!
//! What differs between the two is the [`Route`] type parameter, fixed
//! at compile time: the ordering key stored with each in-flight delivery
//! (and whether a due slot is sorted by it), where a staged send goes
//! (always this core, or possibly another domain), and how a local
//! component index maps to the global component id. The sequential
//! instantiation uses the zero-sized key `()`, so it carries no sort, no
//! key bytes and no routing branch.
//!
//! Wakes come from three places. A component that returned
//! [`Wake::EveryCycle`] sits in the sorted always-on list. One that
//! returned [`Wake::At`] has an entry in the lazy wake heap. A message
//! delivery wakes its receiver in the same step without touching the
//! heap: `armed` deduplicates the burst and the receiver goes straight
//! onto the cycle's woken list, which is sorted once before the ticks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use netcrafter_proto::Message;

use crate::arena::{Arena, Handle};
use crate::engine::{Component, ComponentId, Ctx, Wake};
use crate::trace::Tracer;
use crate::Cycle;

/// Sentinel for "no scheduled wake / no pending delivery".
pub(crate) const NEVER: Cycle = Cycle::MAX;

/// Delay-wheel size: delays below this are O(1); longer delays take the
/// (rare) overflow path.
pub(crate) const WHEEL_SLOTS: usize = 512;

/// The wheel slot holding the deliveries due at `cycle`.
#[inline]
#[allow(clippy::cast_possible_truncation)] // the remainder is below WHEEL_SLOTS
fn wheel_slot(cycle: Cycle) -> usize {
    (cycle % WHEEL_SLOTS as u64) as usize
}

/// How a [`Core`] orders its deliveries and places its components' sends.
pub(crate) trait Route {
    /// Ordering key stored next to every in-flight delivery. `()` when
    /// push order already is delivery order.
    type Key: Copy + Ord;

    /// Global component id of local index `l` (the tracer track and
    /// [`Ctx::self_id`]).
    fn global(&self, l: usize) -> usize;

    /// Puts one due wheel slot into delivery order.
    fn order(due: &mut [(Self::Key, usize, Handle)]);

    /// Places a send staged by local component `src` at cycle `now`.
    /// Returns the delivery key and the local destination index when
    /// this core delivers the message; consumes the payload and returns
    /// `None` when it leaves for another domain.
    fn place(
        &mut self,
        src: usize,
        now: Cycle,
        when: Cycle,
        dst: ComponentId,
        h: Handle,
        arena: &mut Arena<Message>,
    ) -> Option<(Self::Key, usize)>;
}

/// Components, mailboxes, in-flight messages and the scheduler state
/// that drives them. All indices are local to this core.
pub(crate) struct Core<R: Route> {
    pub(crate) comps: Vec<Box<dyn Component>>,
    pub(crate) inboxes: Vec<VecDeque<Handle>>,
    /// Backing store for every in-flight and mailboxed message payload;
    /// the wheel, inboxes and outbox move 8-byte handles instead.
    pub(crate) arena: Arena<Message>,
    /// Ring buffer of future deliveries indexed by `cycle % WHEEL_SLOTS`;
    /// a slot only ever holds one cycle's deliveries.
    wheel: Vec<Vec<(R::Key, usize, Handle)>>,
    /// Deliveries further than `WHEEL_SLOTS` cycles out (rare).
    overflow: Vec<(Cycle, R::Key, usize, Handle)>,
    /// Earliest delivery cycle in `overflow` (`NEVER` when empty).
    overflow_min: Cycle,
    /// Persistent buffers swapped with the due wheel slot / the overflow
    /// list during a step, so the steady state allocates nothing.
    slot_scratch: Vec<(R::Key, usize, Handle)>,
    overflow_scratch: Vec<(Cycle, R::Key, usize, Handle)>,
    pub(crate) cycle: Cycle,
    pub(crate) in_flight: usize,
    pub(crate) delivered: u64,
    /// Component ticks executed by this core — host work, not simulation
    /// state: it depends on the scheduler and is never snapshotted.
    pub(crate) ticks: u64,
    /// Sends staged by the component being ticked.
    outbox: Vec<(Cycle, ComponentId, Handle)>,
    /// Next cycle each component must tick (`NEVER` = waiting on a
    /// message).
    armed: Vec<Cycle>,
    /// Lazy min-heap over `(wake cycle, index)` of timed wakes; entries
    /// that no longer match `armed` are stale and skipped on pop.
    /// Message wakes never enter it.
    wake_heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Components whose last wake was [`Wake::EveryCycle`]: ticked every
    /// cycle from this sorted list with zero heap traffic. `every`
    /// mirrors membership; entries whose flag has been cleared are
    /// compacted out lazily during the per-cycle sweep.
    active: Vec<usize>,
    every: Vec<bool>,
    /// Number of `true` entries in `every` (live `active` members).
    every_count: usize,
    /// Scratch buffer for the indices woken this cycle.
    woken: Vec<usize>,
    /// Cached `busy()` per component, maintained after each tick so
    /// quiescence needs no O(n) rescan.
    pub(crate) busy_flags: Vec<bool>,
    /// Number of `true` entries in `busy_flags`.
    pub(crate) busy_count: usize,
    pub(crate) tracer: Tracer,
    pub(crate) route: R,
}

impl<R: Route> Core<R> {
    /// An empty core paused at `cycle`.
    pub(crate) fn new(route: R, cycle: Cycle, tracer: Tracer) -> Self {
        Core {
            comps: Vec::new(),
            inboxes: Vec::new(),
            arena: Arena::new(),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            overflow_min: NEVER,
            slot_scratch: Vec::new(),
            overflow_scratch: Vec::new(),
            cycle,
            in_flight: 0,
            delivered: 0,
            ticks: 0,
            outbox: Vec::new(),
            armed: Vec::new(),
            wake_heap: BinaryHeap::new(),
            active: Vec::new(),
            every: Vec::new(),
            every_count: 0,
            woken: Vec::new(),
            busy_flags: Vec::new(),
            busy_count: 0,
            tracer,
            route,
        }
    }

    /// Appends a component (local index = previous length) with no wake
    /// scheduled; the caller arms it.
    pub(crate) fn push(&mut self, comp: Box<dyn Component>, inbox: VecDeque<Handle>) {
        let busy = comp.busy();
        self.comps.push(comp);
        self.inboxes.push(inbox);
        self.armed.push(NEVER);
        self.every.push(false);
        self.busy_flags.push(busy);
        self.busy_count += busy as usize;
    }

    /// Schedules component `l` to tick at `when` (keeping any earlier
    /// wake it already has).
    #[inline]
    pub(crate) fn arm(&mut self, l: usize, when: Cycle) {
        if when < self.armed[l] {
            self.armed[l] = when;
            self.wake_heap.push(Reverse((when, l)));
        }
    }

    /// Drops `l` from the always-on set (its stale `active` entry is
    /// compacted on the next per-cycle sweep).
    #[inline]
    fn unevery(&mut self, l: usize) {
        if self.every[l] {
            self.every[l] = false;
            self.every_count -= 1;
        }
    }

    /// Discards every derived wake and schedules a fresh tick for every
    /// component at `next`. Always bit-exact: ticking an idle component
    /// is observable-effect-free by the [`Component::next_wake`]
    /// contract (the Legacy reference ticks everything every cycle and
    /// must agree).
    pub(crate) fn rearm_all_at(&mut self, next: Cycle) {
        self.wake_heap.clear();
        self.active.clear();
        self.every_count = 0;
        self.every.fill(false);
        self.armed.fill(NEVER);
        for l in 0..self.comps.len() {
            self.arm(l, next);
        }
    }

    /// Re-reads every component's `busy()` into the cache.
    pub(crate) fn refresh_busy(&mut self) {
        self.busy_count = 0;
        for (flag, c) in self.busy_flags.iter_mut().zip(&self.comps) {
            *flag = c.busy();
            self.busy_count += *flag as usize;
        }
    }

    #[inline]
    pub(crate) fn fold_busy(&mut self, l: usize, busy: bool) {
        if busy != self.busy_flags[l] {
            self.busy_flags[l] = busy;
            if busy {
                self.busy_count += 1;
            } else {
                self.busy_count -= 1;
            }
        }
    }

    /// Queues `h` for delivery to local component `l` at cycle `when`.
    #[inline]
    pub(crate) fn schedule(&mut self, when: Cycle, key: R::Key, l: usize, h: Handle) {
        debug_assert!(when > self.cycle);
        self.in_flight += 1;
        if (when - self.cycle) < WHEEL_SLOTS as u64 {
            self.wheel[wheel_slot(when)].push((key, l, h));
        } else {
            self.overflow_min = self.overflow_min.min(when);
            self.overflow.push((when, key, l, h));
        }
    }

    /// Every in-flight delivery as `(cycle, local dst, handle)`, in
    /// canonical order: ascending delivery cycle through the wheel, push
    /// order within a cycle, then the overflow list.
    pub(crate) fn in_flight(&self) -> impl Iterator<Item = (Cycle, usize, Handle)> + '_ {
        let wheel = (1..WHEEL_SLOTS as u64).flat_map(move |d| {
            let when = self.cycle + d;
            self.wheel[wheel_slot(when)]
                .iter()
                .map(move |&(_, l, h)| (when, l, h))
        });
        wheel.chain(self.overflow.iter().map(|&(when, _, l, h)| (when, l, h)))
    }

    /// Forgets every in-flight delivery (their payloads stay in the
    /// arena for the caller to move or drop).
    pub(crate) fn clear_in_flight(&mut self) {
        for slot in &mut self.wheel {
            slot.clear();
        }
        self.overflow.clear();
        self.overflow_min = NEVER;
        self.in_flight = 0;
    }

    /// Earliest future cycle with scheduled work — a component wake or a
    /// message delivery — or `NEVER` when nothing is pending.
    pub(crate) fn next_event_cycle(&mut self) -> Cycle {
        // An always-on component ticks next cycle, full stop.
        if self.every_count > 0 {
            return self.cycle + 1;
        }
        // Pop stale heap entries until the top is live.
        let mut wake = NEVER;
        while let Some(&Reverse((when, l))) = self.wake_heap.peek() {
            if self.armed[l] == when {
                wake = when;
                break;
            }
            self.wake_heap.pop();
        }
        if wake <= self.cycle + 1 {
            return wake;
        }
        let mut next = wake.min(self.overflow_min);
        let in_wheel = self.in_flight - self.overflow.len();
        if in_wheel > 0 {
            for d in 1..=WHEEL_SLOTS as u64 {
                let c = self.cycle + d;
                if c >= next {
                    break;
                }
                if !self.wheel[wheel_slot(c)].is_empty() {
                    next = c;
                    break;
                }
            }
        }
        next
    }

    /// Executes cycle `c` (any cycle after the current one up to
    /// [`Core::next_event_cycle`]): delivers the messages due at `c`,
    /// then ticks components in ascending index order — every one of
    /// them when `tick_all` (the Legacy reference, which ignores the
    /// returned wakes), otherwise only the woken ones. Returns the number
    /// of deliveries.
    pub(crate) fn step_at(&mut self, c: Cycle, tick_all: bool) -> usize {
        debug_assert!(c > self.cycle);
        self.cycle = c;
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
            for (when, key, l, h) in pending.drain(..) {
                if when < horizon {
                    self.wheel[wheel_slot(when)].push((key, l, h));
                } else {
                    min_left = min_left.min(when);
                    self.overflow.push((when, key, l, h));
                }
            }
            self.overflow_min = min_left;
            self.overflow_scratch = pending;
        }

        // Deliver the slot due this cycle. The slot vector and the
        // persistent scratch buffer trade places (and capacities).
        let slot = wheel_slot(c);
        let mut due = std::mem::replace(
            &mut self.wheel[slot],
            std::mem::take(&mut self.slot_scratch),
        );
        R::order(&mut due);
        let delivered_now = due.len();
        self.in_flight -= delivered_now;
        self.delivered += delivered_now as u64;
        if tick_all {
            for (_, l, h) in due.drain(..) {
                self.inboxes[l].push_back(h);
            }
            self.slot_scratch = due;
            for l in 0..self.comps.len() {
                self.tick_one(l);
            }
            return delivered_now;
        }

        // A receiver wakes this cycle without a heap round trip: `armed`
        // marks it woken (deduplicating a burst of deliveries), and a wake
        // already armed for `c` is left to the heap drain below.
        let mut woken = std::mem::take(&mut self.woken);
        woken.clear();
        for (_, l, h) in due.drain(..) {
            if self.armed[l] > c {
                self.armed[l] = c;
                woken.push(l);
            }
            self.inboxes[l].push_back(h);
        }
        self.slot_scratch = due;
        for &l in &woken {
            self.armed[l] = NEVER;
        }
        while let Some(&Reverse((when, l))) = self.wake_heap.peek() {
            if when > c {
                break;
            }
            self.wake_heap.pop();
            if self.armed[l] <= c {
                self.armed[l] = NEVER;
                woken.push(l);
            }
        }
        // Sweep the always-on set: every live member ticks this cycle;
        // members that re-armed away since last cycle are compacted out
        // in place (order-preserving, so `active` stays sorted).
        let heap_woken = woken.len();
        if !self.active.is_empty() {
            let mut keep = 0;
            for k in 0..self.active.len() {
                let l = self.active[k];
                if self.every[l] {
                    self.active[keep] = l;
                    keep += 1;
                    woken.push(l);
                }
            }
            self.active.truncate(keep);
        }
        // Ascending index order — the reference tick order restricted to
        // the woken set (skipped components' ticks are no-ops by the
        // `next_wake` contract, so the interleaving is equivalent). When
        // only the (sorted, duplicate-free) always-on sweep contributed,
        // the order is already right.
        if heap_woken > 0 {
            woken.sort_unstable();
            woken.dedup();
        }
        for &l in &woken {
            match self.tick_one(l) {
                Wake::EveryCycle => {
                    if !self.every[l] {
                        self.every[l] = true;
                        self.every_count += 1;
                        let pos = self.active.partition_point(|&x| x < l);
                        self.active.insert(pos, l);
                    }
                }
                Wake::At(t) => {
                    self.unevery(l);
                    self.arm(l, t.max(c + 1));
                }
                Wake::OnMessage => self.unevery(l),
            }
        }
        self.woken = woken;
        delivered_now
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
        let global = self.route.global(l);
        // Component ids index a Vec of boxed components; 2^32 of them do
        // not fit in memory.
        #[allow(clippy::cast_possible_truncation)]
        self.tracer.focus(global as u32);
        let mut ctx = Ctx {
            cycle: self.cycle,
            inbox: &mut self.inboxes[l],
            outbox: &mut self.outbox,
            arena: &mut self.arena,
            self_id: ComponentId(global),
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
            self.commit_sends(l);
        }
        out.wake
    }

    /// Commits the sends component `l` staged during its tick. Ticks run
    /// in ascending index order and each tick's sends keep their staging
    /// order, so committing after every tick pushes onto the wheel in
    /// exactly the order one commit at the end of the step would.
    #[inline(never)]
    fn commit_sends(&mut self, l: usize) {
        for i in 0..self.outbox.len() {
            let (when, dst, h) = self.outbox[i];
            let placed = self
                .route
                .place(l, self.cycle, when, dst, h, &mut self.arena);
            if let Some((key, to)) = placed {
                assert!(to < self.inboxes.len(), "send to unknown component {dst}");
                self.schedule(when, key, to, h);
            }
        }
        self.outbox.clear();
    }
}
