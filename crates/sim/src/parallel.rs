//! Conservative parallel discrete-event execution across domains.
//!
//! [`SchedulerMode::ParallelEventDriven`](crate::SchedulerMode) splits the
//! component set into *domains* (one per GPU cluster plus the switch/root
//! domain, derived from the topology by `multigpu::system`), runs each
//! domain's event-driven loop on a worker thread, and synchronizes at a
//! conservative epoch barrier with *asymmetric per-domain horizons*.
//! Domain `d`'s horizon in an epoch starting at the globally earliest
//! pending event `g` is `g + Lin(d) - 1`, where `Lin(d)` is the minimum
//! *incoming* pair lookahead over every other domain `s` (the per-pair
//! matrix of [`Partition::with_pair_lookahead`], or the global minimum
//! `L` when no matrix was supplied — in which case every horizon equals
//! the classic `g + L - 1`). Safety: a message sent by any domain `s`
//! during the epoch is sent at some cycle `c >= g`, so it arrives at
//! `c + L(s, d) >= g + Lin(d)` — strictly beyond `d`'s horizon. No
//! domain can receive a message for a cycle it has already executed, so
//! causality is preserved without rollback, while domains behind
//! high-latency links run epochs their own slack allows (see DESIGN.md
//! §3.6 for the full argument).
//!
//! **Bit-exactness.** Every delivery carries a canonical key
//! `(send_cycle, src component id, per-src sequence)`. The sequential
//! scheduler delivers same-cycle messages in wheel push order, which is
//! exactly ascending key order (sends commit in tick order — ascending
//! id — within a cycle, and the overflow refill is order-preserving), so
//! sorting each slot by key before delivery reproduces the sequential
//! delivery order no matter how the barrier interleaved cross-domain
//! transfers. Tracer shards are merged in `(cycle, track)` order behind
//! a *watermark*: with asymmetric horizons a fast domain may emit events
//! for cycles a slow domain has not reached yet, so merged events are
//! held back until every domain has fully executed past their cycle (the
//! minimum per-domain completed cycle). See DESIGN.md §3.3 for the full
//! determinism argument.
//!
//! **Quiescence.** A component may ask for ticks while idle (the default
//! [`Component::next_wake`] does; no product component has since link
//! sampling settles skipped cycles) and then ticks until *global*
//! quiescence, so a domain must not free-run past the final cycle. A
//! domain therefore executes events only while *locally* active (busy
//! components or local messages in flight); once locally quiescent its
//! remaining wakes are pure observation ticks, which the barrier replays
//! afterwards — through the epoch end while the system is still globally
//! active, or through the global quiescence cycle `X = max` over domains
//! of the last driving cycle on the final barrier. `X` equals the
//! sequential stop cycle because the sequential run's last step always
//! delivers a message or retires the last busy component.

use std::collections::VecDeque;
use std::sync::mpsc;

use netcrafter_proto::Message;

use crate::arena::{Arena, Handle};
use crate::engine::{Component, ComponentId, Engine};
use crate::sched::{Core, Route, NEVER};
use crate::trace::Event;
use crate::Cycle;

/// Canonical delivery key: `(send cycle, src component id, per-src
/// sequence)`. Sorting same-cycle deliveries by this key reproduces the
/// sequential wheel push order exactly.
type Key = (Cycle, u32, u32);

/// Pseudo-source for messages injected from outside the simulation (or
/// already in flight when the parallel run starts): they sort after any
/// same-cycle real send, which is safe because injections only happen
/// while the engine is paused (their recorded send cycle predates every
/// in-run send cycle).
const SRC_EXTERNAL: u32 = u32::MAX;

/// A message crossing a domain boundary, exchanged at epoch barriers.
struct CrossMsg {
    when: Cycle,
    key: Key,
    dst: ComponentId,
    msg: Message,
}

/// Static assignment of components to domains plus the proven lookahead.
///
/// Build one with [`Partition::new`] and install it with
/// [`Engine::set_parallel`]. Domain indices must be dense (`0..domains`)
/// and the lookahead is the minimum cross-domain `Ctx::send` delay in
/// cycles — every cross-domain send is asserted against it at runtime.
#[derive(Debug, Clone)]
pub struct Partition {
    pub(crate) domain_of: Vec<usize>,
    pub(crate) domains: usize,
    pub(crate) lookahead: u64,
    /// Optional per-domain-pair minimum send delay, row-major
    /// `domains × domains`; `u64::MAX` marks pairs with no direct link.
    /// When present, cross-domain sends are asserted against the pair's
    /// own bound instead of the global minimum — a send over a
    /// high-latency fabric link that undercuts *that link's* latency is
    /// caught even though it clears the global minimum.
    pub(crate) pair_lookahead: Option<Vec<u64>>,
}

impl Partition {
    /// Builds a partition from a component-id-indexed domain table.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero or any domain index in
    /// `0..max(domain_of)+1` is unused (domains must be dense).
    pub fn new(domain_of: Vec<usize>, lookahead: u64) -> Partition {
        assert!(
            lookahead >= 1,
            "partition lookahead must be at least one cycle"
        );
        let domains = Self::check_dense(&domain_of);
        Partition {
            domain_of,
            domains,
            lookahead,
            pair_lookahead: None,
        }
    }

    /// Builds a partition with a per-domain-pair lookahead matrix
    /// (row-major `domains × domains`, `u64::MAX` = no direct link). The
    /// epoch length is still the minimum over linked pairs — conservative
    /// for every pair — but each cross-domain send is asserted against
    /// its own pair's bound, so a heterogeneous fabric keeps per-link
    /// latency contracts honest.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape is wrong, a linked pair's bound is
    /// zero, no pair is linked, or the domain table is not dense.
    pub fn with_pair_lookahead(domain_of: Vec<usize>, pairs: Vec<u64>) -> Partition {
        let domains = Self::check_dense(&domain_of);
        assert_eq!(
            pairs.len(),
            domains * domains,
            "pair lookahead matrix must be domains^2 = {}",
            domains * domains
        );
        let mut min = NEVER;
        for a in 0..domains {
            for b in 0..domains {
                if a == b {
                    continue;
                }
                let v = pairs[a * domains + b];
                if v < NEVER {
                    assert!(
                        v >= 1,
                        "pair ({a},{b}) lookahead must be at least one cycle"
                    );
                    min = min.min(v);
                }
            }
        }
        assert!(min < NEVER, "pair lookahead matrix links no domain pair");
        Partition {
            domain_of,
            domains,
            lookahead: min,
            pair_lookahead: Some(pairs),
        }
    }

    fn check_dense(domain_of: &[usize]) -> usize {
        let domains = domain_of.iter().map(|&d| d + 1).max().unwrap_or(0);
        let mut seen = vec![false; domains];
        for &d in domain_of {
            seen[d] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "partition domain indices must be dense (0..{domains})"
        );
        domains
    }

    /// Number of domains.
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// The proven minimum cross-domain send delay, in cycles.
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// The minimum send delay proven for the `(a, b)` domain pair: the
    /// matrix entry when one was supplied, the global minimum otherwise.
    pub fn pair_lookahead(&self, a: usize, b: usize) -> u64 {
        match &self.pair_lookahead {
            Some(m) => m[a * self.domains + b],
            None => self.lookahead,
        }
    }
}

/// Partition plus worker-thread count, installed by
/// [`Engine::set_parallel`].
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    pub(crate) partition: Partition,
    pub(crate) threads: usize,
}

/// [`Route`] of one domain: its slice of the id space, the canonical
/// delivery keys, and the staging area for sends that leave the domain.
struct Shard {
    /// This domain's index.
    dom: usize,
    /// Global component ids owned here, ascending (so ascending local
    /// index equals ascending global id — the sequential tick order).
    ids: Vec<usize>,
    /// Global id -> local index (valid only for this domain's members).
    local_of: Vec<usize>,
    /// Global id -> owning domain (shared table, cloned per domain).
    domain_of: Vec<usize>,
    /// Per-local-component send sequence counter (third key field).
    send_seq: Vec<u32>,
    /// Cross-domain sends staged during the current epoch.
    cross_out: Vec<CrossMsg>,
    /// Minimum send delay proven towards each destination domain (this
    /// domain's row of [`Partition::pair_lookahead`]).
    bounds: Vec<u64>,
    /// Last executed cycle that delivered a message or saw a busy
    /// component — the domain's contribution to the global stop cycle.
    last_driving: Cycle,
}

impl Route for Shard {
    type Key = Key;

    #[inline]
    fn global(&self, l: usize) -> usize {
        self.ids[l]
    }

    /// Keys are unique, so the unstable sort is deterministic.
    #[inline]
    fn order(due: &mut [(Key, usize, Handle)]) {
        due.sort_unstable_by_key(|&(key, _, _)| key);
    }

    fn place(
        &mut self,
        src: usize,
        now: Cycle,
        when: Cycle,
        dst: ComponentId,
        h: Handle,
        arena: &mut Arena<Message>,
    ) -> Option<(Key, usize)> {
        // Component ids index a Vec of boxed components; 2^32 of them do
        // not fit in memory.
        #[allow(clippy::cast_possible_truncation)]
        let key = (now, self.ids[src] as u32, self.send_seq[src]);
        self.send_seq[src] += 1;
        let dd = self.domain_of[dst.0];
        if dd == self.dom {
            return Some((key, self.local_of[dst.0]));
        }
        let bound = self.bounds[dd];
        assert!(
            when - now >= bound,
            "cross-domain send comp{} -> {dst} with delay {} \
             below the partition lookahead {bound} \
             (domain {} -> {dd})",
            self.ids[src],
            when - now,
            self.dom
        );
        // Cross-domain messages travel by value: the payload leaves this
        // domain's arena here and is re-interned by the receiving domain.
        let msg = arena.take(h);
        self.cross_out.push(CrossMsg {
            when,
            key,
            dst,
            msg,
        });
        None
    }
}

/// One domain: the scheduler core over its slice of the engine.
type Domain = Core<Shard>;

impl Domain {
    fn adopt(&mut self, global: usize, comp: Box<dyn Component>, inbox: VecDeque<Handle>) {
        self.route.local_of[global] = self.route.ids.len();
        self.route.ids.push(global);
        self.route.send_seq.push(0);
        self.push(comp, inbox);
    }

    fn locally_quiescent(&self) -> bool {
        self.busy_count == 0 && self.in_flight == 0
    }

    /// Applies a cross-domain message received at an epoch barrier. Its
    /// delivery cycle is strictly beyond the epoch it was sent in, so it
    /// can never target an already-executed cycle.
    fn apply_cross(&mut self, m: CrossMsg) {
        assert!(
            m.when > self.cycle,
            "cross-domain message for executed cycle {} (domain {} at {})",
            m.when,
            self.route.dom,
            self.cycle
        );
        let l = self.route.local_of[m.dst.0];
        let h = self.arena.alloc(m.msg);
        self.schedule(m.when, m.key, l, h);
    }

    /// Executes cycle `c` and records whether it was a driving one.
    fn step_driving(&mut self, c: Cycle) {
        let was_busy = self.busy_count > 0;
        let delivered_now = self.step_at(c, false);
        if delivered_now > 0 || was_busy || self.busy_count > 0 {
            self.route.last_driving = c;
        }
    }

    /// Runs this domain's events up to (and including) `end`, pausing as
    /// soon as it is locally quiescent: any wakes left are pure
    /// observation ticks, deferred to [`Domain::catch_up`] so the domain
    /// cannot free-run past the (unknown) global stop cycle.
    fn run_epoch(&mut self, end: Cycle) {
        while !self.locally_quiescent() {
            let next = self.next_event_cycle();
            if next > end {
                break;
            }
            self.step_driving(next);
        }
    }

    /// Replays the deferred observation ticks through `through` (the
    /// epoch end while globally active, or the global stop cycle on the
    /// final barrier), then advances the local clock to `through`.
    fn catch_up(&mut self, through: Cycle) {
        while self.locally_quiescent() {
            let next = self.next_event_cycle();
            if next > through {
                break;
            }
            self.step_driving(next);
            assert!(
                self.locally_quiescent() && self.route.cross_out.is_empty(),
                "a deferred observation tick changed simulation state \
                 (next_wake contract violation in domain {})",
                self.route.dom
            );
        }
        self.cycle = self.cycle.max(through);
    }

    /// Names of busy components, as `(global id, name)` pairs.
    fn busy_names(&self) -> Vec<(usize, String)> {
        let ids = self.route.ids.iter();
        ids.zip(&self.comps)
            .filter(|(_, c)| c.busy())
            .map(|(&g, c)| (g, c.name().to_string()))
            .collect()
    }
}

/// Worker commands, one barrier round = `Epoch` then `CatchUp`.
enum Cmd {
    /// Apply the routed cross-domain messages, then run each owned
    /// domain to its own horizon (both vecs in ownership order —
    /// horizons differ per domain under the asymmetric epoch scheme).
    Epoch {
        ends: Vec<Cycle>,
        incoming: Vec<Vec<CrossMsg>>,
    },
    /// Replay each owned domain's deferred observation ticks through its
    /// own bound (ownership order).
    CatchUp { throughs: Vec<Cycle> },
    /// Report busy component names (for the livelock panic message).
    Names,
    /// Return the domain states to the main thread and exit.
    Finish,
}

/// Per-domain epoch report.
struct EpochReport {
    quiescent: bool,
    last_driving: Cycle,
    cross: Vec<CrossMsg>,
    events: Vec<Event>,
}

enum Reply {
    Epoch(Vec<EpochReport>),
    /// The earliest next event over the worker's domains, and the events
    /// their observation ticks emitted.
    CatchUp {
        next_event: Cycle,
        events: Vec<Event>,
    },
    Names(Vec<(usize, String)>),
    Finished(Vec<Domain>),
}

/// The parallel body of `Engine::run_to_quiescence`: decomposes the
/// engine into domains, runs the epoch-barrier loop on `cfg.threads`
/// workers, and reassembles the engine bit-identically to what the
/// sequential event-driven scheduler would have produced.
pub(crate) fn run_parallel(engine: &mut Engine, cfg: &ParallelConfig, max_cycles: Cycle) {
    if engine.quiescent() {
        return;
    }
    engine.flush_dirty();
    let part = &cfg.partition;
    let n_domains = part.domains;
    let threads = cfg.threads.min(n_domains);
    let start = engine.core.cycle;
    let limit = start + max_cycles;

    // ---- decompose ----
    let n = engine.core.comps.len();
    let mut domains: Vec<Domain> = (0..n_domains)
        .map(|dom| {
            let shard = Shard {
                dom,
                ids: Vec::new(),
                local_of: vec![usize::MAX; n],
                domain_of: part.domain_of.clone(),
                send_seq: Vec::new(),
                cross_out: Vec::new(),
                bounds: (0..n_domains)
                    .map(|to| part.pair_lookahead(dom, to))
                    .collect(),
                last_driving: start,
            };
            Core::new(shard, start, engine.core.tracer.shard())
        })
        .collect();
    let components = std::mem::take(&mut engine.core.comps);
    let inboxes = std::mem::take(&mut engine.core.inboxes);
    // In-flight deliveries all predate the run, so they share an external
    // key prefix; per-slot order is preserved through ascending sequence
    // numbers.
    let pending: Vec<(Cycle, usize, Handle)> = engine.core.in_flight().collect();
    engine.core.clear_in_flight();
    let msgs = &mut engine.core.arena;
    for (g, (comp, inbox)) in components.into_iter().zip(inboxes).enumerate() {
        let dom = &mut domains[part.domain_of[g]];
        let q = inbox
            .into_iter()
            .map(|h| dom.arena.alloc(msgs.take(h)))
            .collect();
        dom.adopt(g, comp, q);
    }
    for (seq, (when, dst, h)) in pending.into_iter().enumerate() {
        let dom = &mut domains[part.domain_of[dst]];
        let dh = dom.arena.alloc(msgs.take(h));
        let l = dom.route.local_of[dst];
        let seq = u32::try_from(seq).expect("fewer than 2^32 in-flight messages");
        dom.schedule(when, (start, SRC_EXTERNAL, seq), l, dh);
    }
    // Every payload has moved to a domain arena; the (empty) engine arena
    // keeps its slot capacity for after reassembly.
    debug_assert!(msgs.is_empty());
    // Every component gets a fresh tick at start+1 and re-arms itself
    // from there — always bit-exact (ticking an idle component is
    // observable-effect-free by the next_wake contract).
    for d in &mut domains {
        d.rearm_all_at(start + 1);
    }

    // ---- worker assignment: worker w owns domains w, w+threads, … ----
    let mut worker_domains: Vec<Vec<Domain>> = (0..threads).map(|_| Vec::new()).collect();
    let mut owned: Vec<Vec<usize>> = (0..threads).map(|_| Vec::new()).collect();
    for (d, state) in domains.into_iter().enumerate() {
        owned[d % threads].push(d);
        worker_domains[d % threads].push(state);
    }

    let mut finished: Vec<Domain> = Vec::with_capacity(n_domains);
    let mut end_cycle = start;

    std::thread::scope(|scope| {
        let mut cmd_txs = Vec::with_capacity(threads);
        let mut reply_rxs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for doms in worker_domains {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Cmd>();
            let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
            cmd_txs.push(cmd_tx);
            reply_rxs.push(reply_rx);
            handles.push(scope.spawn(move || {
                let mut doms = doms;
                while let Ok(cmd) = cmd_rx.recv() {
                    let reply = match cmd {
                        Cmd::Epoch { ends, incoming } => {
                            let mut reports = Vec::with_capacity(doms.len());
                            for ((d, inc), end) in doms.iter_mut().zip(incoming).zip(ends) {
                                for m in inc {
                                    d.apply_cross(m);
                                }
                                d.run_epoch(end);
                                reports.push(EpochReport {
                                    quiescent: d.locally_quiescent(),
                                    last_driving: d.route.last_driving,
                                    cross: std::mem::take(&mut d.route.cross_out),
                                    events: d.tracer.drain_events(),
                                });
                            }
                            Reply::Epoch(reports)
                        }
                        Cmd::CatchUp { throughs } => {
                            let mut next_event = NEVER;
                            let mut events = Vec::new();
                            for (d, through) in doms.iter_mut().zip(throughs) {
                                d.catch_up(through);
                                next_event = next_event.min(d.next_event_cycle());
                                events.extend(d.tracer.drain_events());
                            }
                            Reply::CatchUp { next_event, events }
                        }
                        Cmd::Names => {
                            Reply::Names(doms.iter().flat_map(Domain::busy_names).collect())
                        }
                        Cmd::Finish => {
                            let _ = reply_tx.send(Reply::Finished(doms));
                            return;
                        }
                    };
                    if reply_tx.send(reply).is_err() {
                        return;
                    }
                }
            }));
        }

        // ---- barrier loop (main thread) ----
        // On any channel failure a worker has panicked: bail out quietly
        // and let `thread::scope` propagate the worker's own panic.
        let mut routed: Vec<Vec<CrossMsg>> = (0..n_domains).map(|_| Vec::new()).collect();
        // Per-domain *incoming* lookahead: the minimum pair bound over
        // every other domain that can send here. A domain with no
        // incoming link at all (`NEVER`) is bounded only by the run
        // limit. Without a pair matrix every entry equals the global
        // lookahead and the horizons degenerate to the classic symmetric
        // epoch.
        let lin: Vec<u64> = (0..n_domains)
            .map(|d| {
                (0..n_domains)
                    .filter(|&s| s != d)
                    .map(|s| part.pair_lookahead(s, d))
                    .min()
                    .unwrap_or(NEVER)
            })
            .collect();
        // (`g >= 1`, so a `NEVER` bound saturates and leaves only `limit`.)
        let horizon_for = |g: Cycle| -> Vec<Cycle> {
            let end = |&l: &u64| limit.min(g.saturating_add(l - 1));
            lin.iter().map(end).collect()
        };
        // Everything is armed at start+1, so domain `d`'s first window is
        // exactly `Lin(d)` long.
        let mut ends = horizon_for(start + 1);
        // Cycle through which each domain's event stream is final
        // (executed, including deferred observation ticks). The merge
        // watermark is the minimum over domains: an event at or below it
        // can never be preceded by anything a later round produces.
        let mut completed: Vec<Cycle> = vec![start; n_domains];
        // Events held back until the watermark passes them.
        let mut pending_events: Vec<Event> = Vec::new();
        // Per-domain local-quiescence after the last epoch (observation
        // catch-up cannot change it, so the epoch report stays valid).
        let mut lq: Vec<bool> = vec![false; n_domains];
        // Observation floor: the highest cycle the sequential run is
        // known to execute. Driving ticks raise it via `last_driving`;
        // while the system is active it also advances to `global_next`,
        // because the earliest pending event/delivery is certain to run
        // (a pure observation wake cannot be what ends the simulation).
        // Without the `global_next` leg a busy-but-sleeping domain (all
        // blocked components waiting `OnMessage`/`At` with no local
        // events) would freeze `last_driving` below a quiescent domain's
        // deferred observation wake, and the rounds would spin forever.
        let mut floor = start;
        // Sends every worker `w` the command `make(w)`; false if any is gone.
        let send_all = |make: &mut dyn FnMut(usize) -> Cmd| {
            let sends = cmd_txs.iter().enumerate();
            sends.fold(true, |ok, (w, tx)| tx.send(make(w)).is_ok() && ok)
        };
        'run: loop {
            let sent = send_all(&mut |w| Cmd::Epoch {
                ends: owned[w].iter().map(|&d| ends[d]).collect(),
                incoming: owned[w]
                    .iter()
                    .map(|&d| std::mem::take(&mut routed[d]))
                    .collect(),
            });
            if !sent {
                break 'run;
            }
            let mut active = false;
            let mut last_driving = start;
            for (w, rx) in reply_rxs.iter().enumerate() {
                let Ok(Reply::Epoch(reports)) = rx.recv() else {
                    break 'run;
                };
                for (i, rep) in reports.into_iter().enumerate() {
                    let d = owned[w][i];
                    lq[d] = rep.quiescent;
                    active |= !rep.quiescent;
                    last_driving = last_driving.max(rep.last_driving);
                    for m in rep.cross {
                        routed[part.domain_of[m.dst.0]].push(m);
                    }
                    pending_events.extend(rep.events);
                }
            }
            active |= routed.iter().any(|v| !v.is_empty());
            // Deferred observation ticks: on the final barrier every
            // domain replays through the global stop cycle
            // `X = last_driving`. While still active, a locally quiescent
            // domain replays through its own horizon, clamped to the
            // observation floor `<= X` — with asymmetric horizons a
            // far-ahead domain's `ends[d]` may exceed the (unknown)
            // final stop cycle, and observation ticks past `X` would
            // sample cycles the sequential run never executes.
            // Clamped ticks are not lost: they stay deferred and replay
            // once the floor (or the final barrier) passes them.
            floor = floor.max(last_driving);
            let throughs: Vec<Cycle> = if active {
                (0..n_domains).map(|d| ends[d].min(floor)).collect()
            } else {
                vec![last_driving; n_domains]
            };
            let sent = send_all(&mut |w| Cmd::CatchUp {
                throughs: owned[w].iter().map(|&d| throughs[d]).collect(),
            });
            if !sent {
                break 'run;
            }
            let mut global_next = NEVER;
            for rx in &reply_rxs {
                let Ok(Reply::CatchUp { next_event, events }) = rx.recv() else {
                    break 'run;
                };
                global_next = global_next.min(next_event);
                pending_events.extend(events);
            }
            // Merge this round's tracer shards in canonical
            // `(cycle, track)` order behind the watermark. An active
            // (non-locally-quiescent) domain has executed everything
            // through its horizon; a locally
            // quiescent one only through its catch-up bound. Nothing at
            // or below the minimum of those can be emitted later, so the
            // prefix up to the watermark is final; the rest waits.
            for d in 0..n_domains {
                let done = if lq[d] { throughs[d] } else { ends[d] };
                completed[d] = completed[d].max(done);
            }
            let watermark = if active {
                completed.iter().copied().min().unwrap_or(NEVER)
            } else {
                NEVER
            };
            pending_events.sort_by_key(|e| (e.cycle, e.track));
            let cut = pending_events.partition_point(|e| e.cycle <= watermark);
            let released = pending_events.drain(..cut);
            engine.core.tracer.absorb_events(released);
            if !active {
                end_cycle = last_driving;
                break 'run;
            }
            for msgs in &routed {
                for m in msgs {
                    global_next = global_next.min(m.when);
                }
            }
            let min_end = ends.iter().copied().min().unwrap_or(limit);
            if global_next == NEVER || global_next > limit || min_end == limit {
                // The sequential scheduler would hit its cycle limit with
                // work remaining: reproduce its panic, byte for byte.
                let mut busy: Vec<(usize, String)> = Vec::new();
                send_all(&mut |_| Cmd::Names);
                for rx in &reply_rxs {
                    if let Ok(Reply::Names(names)) = rx.recv() {
                        busy.extend(names);
                    }
                }
                busy.sort();
                let names: Vec<String> = busy.into_iter().map(|(_, n)| n).collect();
                panic!("simulation did not quiesce within {max_cycles} cycles; busy: {names:?}");
            }
            // `global_next <= limit` here (checked above), and while
            // active the sequential run cannot stop before it: every
            // pending delivery or driving wake is at or after it, and an
            // observation wake cannot be the last thing that runs. So
            // next round's deferred observation ticks may replay up to it.
            floor = floor.max(global_next);
            ends = horizon_for(global_next);
        }

        send_all(&mut |_| Cmd::Finish);
        for rx in &reply_rxs {
            if let Ok(Reply::Finished(doms)) = rx.recv() {
                finished.extend(doms);
            }
        }
        drop(cmd_txs);
        // Join explicitly so a worker's own panic payload propagates
        // verbatim (`thread::scope` would replace it with a generic
        // "a scoped thread panicked" message).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    // ---- reassemble ----
    // A worker that died has already re-raised its panic above, so every
    // domain is back. Mailbox payloads are re-interned from the domain
    // arenas into the engine's; with `in_flight == 0` the wheels hold
    // nothing, so that must leave each domain arena empty.
    let core = &mut engine.core;
    let mut parts: Vec<(usize, Box<dyn Component>, VecDeque<Handle>)> = Vec::with_capacity(n);
    for mut dom in finished {
        assert!(
            dom.in_flight == 0 && dom.route.cross_out.is_empty(),
            "domain {} finished with undelivered messages",
            dom.route.dom
        );
        core.delivered += dom.delivered;
        core.ticks += dom.ticks;
        core.steps += dom.steps;
        let ids = std::mem::take(&mut dom.route.ids);
        for ((g, comp), inbox) in ids.into_iter().zip(dom.comps).zip(dom.inboxes) {
            let moved = inbox.into_iter().map(|h| dom.arena.take(h));
            parts.push((g, comp, moved.map(|m| core.arena.alloc(m)).collect()));
        }
        debug_assert!(dom.arena.is_empty(), "domain arena retained payloads");
    }
    assert_eq!(parts.len(), n, "parallel run lost a domain's components");
    parts.sort_unstable_by_key(|&(g, _, _)| g);
    for (_, comp, inbox) in parts {
        core.comps.push(comp);
        core.inboxes.push(inbox);
    }
    core.cycle = end_cycle;
    core.tracer.set_now(end_cycle);
    // Re-arm everything and refresh the busy cache, exactly like a
    // scheduler switch (conservative and bit-exact).
    engine.set_scheduler(crate::SchedulerMode::ParallelEventDriven);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, EngineBuilder};
    use crate::Wake;

    /// Logs every receipt, then forwards the message onward after
    /// `delay`, up to `hops_left` times.
    struct Relay {
        peer: ComponentId,
        delay: u64,
        hops_left: u64,
        got: Vec<(Cycle, u32)>,
    }
    impl Component for Relay {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                if let Message::Credit { count, .. } = msg {
                    self.got.push((ctx.cycle(), count));
                }
                if self.hops_left > 0 {
                    self.hops_left -= 1;
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

    fn credit(n: u32) -> Message {
        Message::Credit {
            from: netcrafter_proto::NodeId(0),
            count: n,
            link: 0,
        }
    }

    fn ring(n: usize, delay: u64, hops: u64) -> (Engine, Vec<ComponentId>) {
        let mut b = EngineBuilder::new();
        let ids: Vec<ComponentId> = (0..n).map(|_| b.reserve()).collect();
        for (i, &id) in ids.iter().enumerate() {
            b.install(
                id,
                Box::new(Relay {
                    peer: ids[(i + 1) % n],
                    delay,
                    hops_left: hops,
                    got: Vec::new(),
                }),
            );
        }
        (b.build(), ids)
    }

    /// 3-domain relay ring: the parallel scheduler must reproduce the
    /// sequential end cycle, delivery count, and every component's exact
    /// `(cycle, payload)` receipt log — the unit-level version of the
    /// byte-equivalence table in `multigpu`. Two tokens start on the same
    /// component, so same-cycle receipts must keep their send order.
    #[test]
    fn three_domain_ring_matches_sequential_delivery_order() {
        let run = |threads: usize| {
            let (mut e, ids) = ring(6, 37, 9);
            if threads > 1 {
                // Domains {0,1} {2,3} {4,5}; every cross-domain hop
                // (1→2, 3→4, 5→0) has delay 37 = the lookahead.
                e.set_parallel(Partition::new(vec![0, 0, 1, 1, 2, 2], 37), threads);
            }
            e.inject(ids[0], credit(1), 1);
            e.inject(ids[0], credit(2), 1);
            e.inject(ids[2], credit(3), 1);
            e.inject(ids[4], credit(4), 1);
            let end = e.run_to_quiescence(100_000);
            let logs: Vec<Vec<(Cycle, u32)>> = ids
                .iter()
                .map(|&id| e.get::<Relay>(id).expect("relay").got.clone())
                .collect();
            (end, e.messages_delivered(), logs)
        };
        let sequential = run(1);
        assert_eq!(sequential, run(3), "parallel must match sequential");
        assert_eq!(sequential.1, 58, "4 injections + 6x9 forwarded hops");
    }

    #[test]
    fn parallel_engine_stays_usable_after_a_run() {
        let (mut e, ids) = ring(4, 5, 3);
        e.set_parallel(Partition::new(vec![0, 0, 1, 1], 5), 2);
        e.inject(ids[0], credit(9), 1);
        let first = e.run_to_quiescence(10_000);
        e.inject(ids[2], credit(9), 2);
        let second = e.run_to_quiescence(10_000);
        assert!(second > first, "second kernel advances from the first");
        assert_eq!(e.messages_delivered(), 14, "13 first run + 1 second");
    }

    #[test]
    #[should_panic(expected = "below the partition lookahead")]
    fn undersized_lookahead_is_caught_at_the_send() {
        let (mut e, ids) = ring(4, 5, 8);
        // Claimed lookahead 50 but the ring's cross-domain hops are 5.
        e.set_parallel(Partition::new(vec![0, 0, 1, 1], 50), 2);
        e.inject(ids[0], credit(1), 1);
        e.run_to_quiescence(10_000);
    }

    /// A correct pair matrix reproduces the sequential run exactly, and
    /// its min over linked pairs drives the epochs.
    #[test]
    fn pair_lookahead_matches_sequential() {
        let run = |parallel: bool| {
            let (mut e, ids) = ring(4, 5, 8);
            if parallel {
                let pairs = vec![NEVER, 5, 5, NEVER];
                let p = Partition::with_pair_lookahead(vec![0, 0, 1, 1], pairs);
                assert_eq!(p.lookahead(), 5);
                assert_eq!(p.pair_lookahead(0, 1), 5);
                e.set_parallel(p, 2);
            }
            e.inject(ids[0], credit(1), 1);
            let end = e.run_to_quiescence(10_000);
            (end, e.messages_delivered())
        };
        assert_eq!(run(false), run(true));
    }

    /// The per-pair bound is stricter than the global minimum: a send
    /// that clears the min but undercuts its own pair's claim is caught.
    #[test]
    #[should_panic(expected = "below the partition lookahead")]
    fn pair_lookahead_catches_per_link_violation() {
        let (mut e, ids) = ring(4, 5, 8);
        // Pair (0,1) claims 7 cycles but the ring hops in 5; pair (1,0)
        // claims 5, so the global minimum (5) alone would not trip.
        let pairs = vec![NEVER, 7, 5, NEVER];
        e.set_parallel(Partition::with_pair_lookahead(vec![0, 0, 1, 1], pairs), 2);
        e.inject(ids[0], credit(1), 1);
        e.run_to_quiescence(10_000);
    }

    #[test]
    #[should_panic(expected = "links no domain pair")]
    fn unlinked_pair_matrix_is_rejected() {
        let _ = Partition::with_pair_lookahead(vec![0, 1], vec![NEVER; 4]);
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn parallel_livelock_is_detected() {
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
        b.add(Box::new(Forever));
        let mut e = b.build();
        e.set_parallel(Partition::new(vec![0, 1], 1), 2);
        e.run_to_quiescence(10);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn sparse_partition_is_rejected() {
        let _ = Partition::new(vec![0, 2], 1);
    }
}
