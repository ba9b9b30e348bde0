//! The scheduler core: the one step loop behind every execution mode.
//!
//! A [`Core`] owns a set of components with their mailboxes, the message
//! arena, the wheel of deliveries and timed wakes with its two overflow
//! lists, the always-on set and the busy cache, and advances them one
//! executed cycle at a time. The sequential [`Engine`](crate::Engine) is
//! one core over every component; each domain of the conservative
//! parallel scheduler is one core over its slice (see `parallel.rs`).
//!
//! What differs between the two is the [`Route`] type parameter, fixed
//! at compile time: the ordering key stored with each in-flight delivery
//! (and whether a due slot is sorted by it), where a staged send goes
//! (always this core, or possibly another domain), and how a local
//! component index maps to the global component id. The sequential
//! instantiation uses the zero-sized key `()`, so it carries no sort, no
//! key bytes and no routing branch.
//!
//! One wheel holds every future event. Its 512 slots each carry the
//! deliveries due at one cycle and a list of the components whose timed
//! wake ([`Wake::At`]) falls on that cycle; deliveries further out wait
//! in the overflow list, wakes further out on the far list, and both move
//! into the wheel as their cycle comes into range. A component is on at
//! most one list, the one `armed` names, and is unlinked the moment its
//! wake is replaced or a message wakes it first, so no list ever holds a
//! stale entry. Components that returned [`Wake::EveryCycle`] are a
//! bitset. A cycle's woken set is a second bitset: the due slot's wakes
//! and delivery receivers are OR-ed into it, and the ticks walk it
//! together with the always-on bits in ascending index order, so no
//! woken list is sorted or deduplicated.

use std::collections::VecDeque;

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

/// A node of the circular, doubly linked wake lists (`Core::links`).
#[derive(Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

impl Link {
    /// An empty list's head (or an unlinked node), pointing at itself.
    #[allow(clippy::cast_possible_truncation)] // `Core::push` bounds every node below 2^32
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
    /// a slot only ever holds one cycle's deliveries. Its timed wakes are
    /// the list headed by node `slot` of `links`.
    wheel: Vec<Vec<(R::Key, usize, Handle)>>,
    /// Wheel slots that may hold a delivery or a wake, one bit each: set
    /// whenever one is filed, cleared when the slot is drained or found
    /// empty by [`Core::next_event_cycle`].
    occupied: [u64; WHEEL_SLOTS / 64],
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
    /// Cycles executed by this core ([`Core::step_at`] calls) — host
    /// work as well, never snapshotted.
    pub(crate) steps: u64,
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
            occupied: [0; WHEEL_SLOTS / 64],
            overflow: Vec::new(),
            overflow_min: NEVER,
            slot_scratch: Vec::new(),
            overflow_scratch: Vec::new(),
            cycle,
            in_flight: 0,
            delivered: 0,
            ticks: 0,
            steps: 0,
            outbox: Vec::new(),
            armed: Vec::new(),
            links: (0..HEADS).map(Link::alone).collect(),
            far_min: NEVER,
            far_stale: false,
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
        let l = self.comps.len();
        assert!(HEADS + l < u32::MAX as usize, "too many components");
        self.comps.push(comp);
        self.inboxes.push(inbox);
        self.armed.push(NEVER);
        self.links.push(Link::alone(HEADS + l));
        if l.is_multiple_of(64) {
            self.every.push(0);
            self.woken.push(0);
        }
        self.busy_flags.push(busy);
        self.busy_count += busy as usize;
    }

    /// Schedules component `l` to tick at `when` (keeping any earlier
    /// wake it already has).
    #[inline]
    pub(crate) fn arm(&mut self, l: usize, when: Cycle) {
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
    #[allow(clippy::cast_possible_truncation)] // `Core::push` bounds every node below 2^32
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

    /// Discards every derived wake and schedules a fresh tick for every
    /// component at `next`. Always bit-exact: ticking an idle component
    /// is observable-effect-free by the [`Component::next_wake`]
    /// contract (the Legacy reference ticks everything every cycle and
    /// must agree).
    pub(crate) fn rearm_all_at(&mut self, next: Cycle) {
        for (head, link) in self.links[..HEADS].iter_mut().enumerate() {
            *link = Link::alone(head);
        }
        self.far_min = NEVER;
        self.far_stale = false;
        self.every_count = 0;
        self.every.fill(0);
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
            let slot = wheel_slot(when);
            self.wheel[slot].push((key, l, h));
            set_bit(&mut self.occupied, slot);
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
    /// [`Core::next_event_cycle`]): delivers the messages due at `c`,
    /// then ticks components in ascending index order — every one of
    /// them when `tick_all` (the Legacy reference, which ignores the
    /// returned wakes), otherwise only the woken ones. Returns the number
    /// of deliveries.
    pub(crate) fn step_at(&mut self, c: Cycle, tick_all: bool) -> usize {
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
            for (when, key, l, h) in pending.drain(..) {
                if when < horizon {
                    let slot = wheel_slot(when);
                    self.wheel[slot].push((key, l, h));
                    set_bit(&mut self.occupied, slot);
                } else {
                    min_left = min_left.min(when);
                    self.overflow.push((when, key, l, h));
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
        R::order(&mut due);
        let delivered_now = due.len();
        self.in_flight -= delivered_now;
        self.delivered += delivered_now as u64;
        for (_, l, h) in due.drain(..) {
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
            return delivered_now;
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
