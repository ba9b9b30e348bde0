//! Randomized equivalence of the scheduler core's two modes: the Legacy
//! tick-everything reference and event-driven execution must agree on
//! the end cycle, the delivery count and every component's
//! `(cycle, payload)` receipt log.
//!
//! Graphs are drawn from fixed SplitMix64 seeds: relays, `At`-timed
//! pulses and recorders, bounded always-busy components and (on every
//! third seed) a never-busy every-cycle sampler, wired with delays on
//! both sides of the delay wheel's 512-slot range.
//!
//! A second family adds movers, whose `At` target a message arrival
//! moves later or earlier, so stale timed wakes are left behind inside
//! and beyond the wheel's range. There the event-driven driver must tick
//! no node that has nothing due and execute no cycle that ticks nothing.

use netcrafter_proto::{Message, NodeId};
use netcrafter_sim::{
    Component, ComponentId, Ctx, Cycle, Engine, EngineBuilder, SchedulerMode, Wake,
};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Delays on both sides of the 512-slot wheel (overflow from 512 up).
const DELAYS: [u64; 12] = [1, 2, 3, 5, 17, 37, 100, 511, 512, 513, 700, 1500];

/// Log payload of a timer firing (receipts log the message payload).
const TIMER: u32 = u32::MAX;

/// How far ahead a `Mover` sets its timer, taken in turn on every move:
/// later and earlier than the previous target, inside and beyond the
/// 512-slot wheel.
const MOVES: [u64; 6] = [600, 20, 3000, 5, 480, 1500];

#[derive(Clone, Copy)]
enum Kind {
    /// Sleeps until a message arrives; forwards it while hops remain.
    Relay { hops: u32 },
    /// Sends on a precise `At` timer, `left` times.
    Pulse { period: u64, next: Cycle, left: u32 },
    /// Logs a timer entry on a precise `At` timer, `left` times.
    Recorder { period: u64, next: Cycle, left: u32 },
    /// Busy and ticking every cycle for `left` cycles, sending on every
    /// fifth.
    Busy { left: u32 },
    /// Never busy, ticks every cycle: its tick count is the end cycle.
    Sampler,
    /// Sleeps until an `At` target that every message arrival moves to
    /// the next `MOVES` offset from now; fires (logs and sends) `left`
    /// times.
    Mover {
        target: Cycle,
        left: u32,
        moves: usize,
    },
}

#[derive(Clone)]
struct Node {
    id: u32,
    kind: Kind,
    /// `(destination, delay)` edges, used round-robin.
    edges: Vec<(usize, u64)>,
    sent: usize,
    ticks: u64,
    /// Ticks after cycle 1 that found no message, no due timer and no
    /// every-cycle work.
    idle: u64,
    log: Vec<(Cycle, u32)>,
}

impl Node {
    fn send(&mut self, ctx: &mut Ctx<'_>, payload: u32) {
        let (dst, delay) = self.edges[self.sent % self.edges.len()];
        self.sent += 1;
        ctx.send(ComponentId(dst), credit(payload), delay);
    }
}

fn credit(count: u32) -> Message {
    Message::Credit {
        from: NodeId(0),
        count,
        link: 0,
    }
}

impl Component for Node {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        self.ticks += 1;
        let now = ctx.cycle();
        let mut due = now == 1
            || match self.kind {
                Kind::Pulse { next, left, .. } | Kind::Recorder { next, left, .. } => {
                    left > 0 && now >= next
                }
                Kind::Mover { target, left, .. } => left > 0 && now >= target,
                Kind::Busy { left } => left > 0,
                Kind::Sampler => true,
                Kind::Relay { .. } => false,
            };
        while let Some(msg) = ctx.recv() {
            due = true;
            let Message::Credit { count, .. } = msg else {
                unreachable!("only credits circulate");
            };
            self.log.push((now, count));
            match &mut self.kind {
                Kind::Relay { hops } if *hops > 0 => {
                    *hops -= 1;
                    self.send(ctx, count);
                }
                Kind::Mover { target, moves, .. } => {
                    *moves += 1;
                    *target = now + MOVES[*moves % MOVES.len()];
                }
                _ => {}
            }
        }
        self.idle += u64::from(!due);
        match self.kind {
            Kind::Pulse { period, next, left } if left > 0 && now >= next => {
                self.kind = Kind::Pulse {
                    period,
                    next: now + period,
                    left: left - 1,
                };
                self.send(ctx, self.id * 1000 + left);
            }
            Kind::Recorder { period, next, left } if left > 0 && now >= next => {
                self.kind = Kind::Recorder {
                    period,
                    next: now + period,
                    left: left - 1,
                };
                self.log.push((now, TIMER));
            }
            Kind::Busy { left } if left > 0 => {
                self.kind = Kind::Busy { left: left - 1 };
                if left.is_multiple_of(5) {
                    self.send(ctx, self.id * 1000 + left);
                }
            }
            Kind::Mover {
                target,
                left,
                moves,
            } if left > 0 && now >= target => {
                self.kind = Kind::Mover {
                    target: now + MOVES[(moves + 1) % MOVES.len()],
                    left: left - 1,
                    moves: moves + 1,
                };
                self.log.push((now, TIMER));
                self.send(ctx, self.id * 1000 + left);
            }
            _ => {}
        }
    }

    fn busy(&self) -> bool {
        match self.kind {
            Kind::Pulse { left, .. }
            | Kind::Recorder { left, .. }
            | Kind::Busy { left }
            | Kind::Mover { left, .. } => left > 0,
            Kind::Relay { .. } | Kind::Sampler => false,
        }
    }

    fn name(&self) -> &str {
        "node"
    }

    fn next_wake(&self, _now: Cycle) -> Wake {
        match self.kind {
            Kind::Pulse { next, left, .. }
            | Kind::Recorder { next, left, .. }
            | Kind::Mover {
                target: next, left, ..
            } if left > 0 => Wake::At(next),
            Kind::Busy { left } if left > 0 => Wake::EveryCycle,
            Kind::Sampler => Wake::EveryCycle,
            _ => Wake::OnMessage,
        }
    }
}

/// What two drivers must agree on: the end cycle, the delivery count and
/// every node's receipt log.
type Observed = (Cycle, u64, Vec<Vec<(Cycle, u32)>>);

/// One random scenario: the nodes and the external injections.
struct Scenario {
    nodes: Vec<Node>,
    injections: Vec<(usize, u32, u64)>,
}

impl Scenario {
    fn draw(seed: u64) -> Scenario {
        let mut rng = SplitMix64(seed);
        let n = 4 + rng.below(9) as usize;
        let mut nodes: Vec<Node> = (0..n)
            .map(|i| {
                let kind = match rng.below(9) {
                    0..=3 => Kind::Relay {
                        hops: 5 + rng.below(16) as u32,
                    },
                    4..=5 => Kind::Pulse {
                        period: 1 + rng.below(900),
                        next: 1 + rng.below(50),
                        left: 1 + rng.below(6) as u32,
                    },
                    6..=7 => Kind::Recorder {
                        period: 1 + rng.below(900),
                        next: 1 + rng.below(50),
                        left: 1 + rng.below(6) as u32,
                    },
                    _ => Kind::Busy {
                        left: 1 + rng.below(300) as u32,
                    },
                };
                let edges = (0..1 + rng.below(2))
                    .map(|_| (rng.below(n as u64) as usize, rng.pick(&DELAYS)))
                    .collect();
                Node {
                    id: i as u32,
                    kind,
                    edges,
                    sent: 0,
                    ticks: 0,
                    idle: 0,
                    log: Vec::new(),
                }
            })
            .collect();
        if seed.is_multiple_of(3) {
            nodes[n - 1].kind = Kind::Sampler;
        }
        let injections = (0..3 + rng.below(4))
            .map(|k| {
                let dst = rng.below(n as u64) as usize;
                (dst, 900_000 + k as u32, rng.pick(&DELAYS))
            })
            .collect();
        Scenario { nodes, injections }
    }

    /// `draw(seed)` with node 0 and about a third of the rest turned
    /// into movers.
    fn with_movers(seed: u64) -> Scenario {
        let mut scenario = Scenario::draw(seed);
        let mut rng = SplitMix64(seed ^ 0x5EED_3057);
        for (i, node) in scenario.nodes.iter_mut().enumerate() {
            if i == 0 || rng.below(3) == 0 {
                node.kind = Kind::Mover {
                    target: 1 + rng.below(700),
                    left: 1 + rng.below(5) as u32,
                    moves: rng.below(MOVES.len() as u64) as usize,
                };
            }
        }
        scenario
    }

    fn build(&self) -> Engine {
        let mut b = EngineBuilder::new();
        for node in &self.nodes {
            b.add(Box::new(node.clone()));
        }
        b.build()
    }

    /// Runs `engine` to quiescence and returns everything compared.
    fn observe(&self, mut engine: Engine) -> Observed {
        for &(dst, payload, delay) in &self.injections {
            engine.inject(ComponentId(dst), credit(payload), delay);
        }
        let end = engine.run_to_quiescence(10_000_000);
        Self::harvest(&engine, end)
    }

    /// What `observe` compares, read from an engine that ran to `end`.
    fn harvest(engine: &Engine, end: Cycle) -> Observed {
        let mut logs = Vec::new();
        for i in 0..engine.len() {
            let node = engine.get::<Node>(ComponentId(i)).expect("node installed");
            if matches!(node.kind, Kind::Sampler) {
                assert_eq!(node.ticks, end, "the sampler ticks on every cycle run");
            }
            logs.push(node.log.clone());
        }
        (end, engine.messages_delivered(), logs)
    }
}

#[test]
fn legacy_and_event_driven_agree_on_random_graphs() {
    for seed in 1..=32u64 {
        let scenario = Scenario::draw(seed);
        let mut legacy = scenario.build();
        legacy.set_scheduler(SchedulerMode::Legacy);
        let reference = scenario.observe(legacy);
        assert!(reference.1 > 0, "seed {seed}: nothing was delivered");

        let event_driven = scenario.observe(scenario.build());
        assert!(
            event_driven == reference,
            "seed {seed}: event-driven diverges from Legacy"
        );
    }
}

/// Runs `engine` to quiescence under its current scheduler, counting the
/// cycles it executes through `run_while`'s condition (evaluated once
/// before each executed cycle). Fails on an executed cycle that ticked
/// no component. Returns what `observe` compares and the executed-cycle
/// count.
fn run_counting_steps(
    mut engine: Engine,
    injections: &[(usize, u32, u64)],
) -> (Observed, u64, Engine) {
    for &(dst, payload, delay) in injections {
        engine.inject(ComponentId(dst), credit(payload), delay);
    }
    let mut last = (engine.cycle(), engine.ticks_executed());
    let mut steps = 0u64;
    let mut empty = Vec::new();
    let end = engine.run_while(10_000_000, |e| {
        let now = (e.cycle(), e.ticks_executed());
        if now.0 != last.0 {
            steps += 1;
            if now.1 == last.1 {
                empty.push(now.0);
            }
        }
        last = now;
        true
    });
    assert!(engine.quiescent(), "the run stopped at the cycle limit");
    assert!(empty.is_empty(), "cycles executed with no tick: {empty:?}");
    (Scenario::harvest(&engine, end), steps, engine)
}

#[test]
fn stale_wakes_cost_no_tick_and_no_executed_cycle() {
    for seed in 1..=32u64 {
        let scenario = Scenario::with_movers(seed);
        let mut legacy = scenario.build();
        legacy.set_scheduler(SchedulerMode::Legacy);
        let reference = scenario.observe(legacy);

        let (observed, _, engine) = run_counting_steps(scenario.build(), &scenario.injections);
        assert!(
            observed == reference,
            "seed {seed}: event-driven diverges from Legacy"
        );
        for i in 0..engine.len() {
            let node = engine.get::<Node>(ComponentId(i)).expect("node installed");
            assert_eq!(
                node.idle, 0,
                "seed {seed}: node {i} ticked {} time(s) with nothing due",
                node.idle
            );
        }
    }
}

#[test]
fn a_far_sleeper_and_one_far_delivery_execute_three_cycles() {
    let node = |kind, edges| Node {
        id: 0,
        kind,
        edges,
        sent: 0,
        ticks: 0,
        idle: 0,
        log: Vec::new(),
    };
    let mut b = EngineBuilder::new();
    // Cycle 1 ticks everything; the sleeper's timer is 100 000 cycles
    // out, and the relay forwards nothing.
    let sleeper = Kind::Recorder {
        period: 1,
        next: 100_001,
        left: 1,
    };
    b.add(Box::new(node(sleeper, vec![(0, 1)])));
    b.add(Box::new(node(Kind::Relay { hops: 0 }, vec![(0, 1)])));
    let (observed, steps, _) = run_counting_steps(b.build(), &[(1, 7, 700)]);
    assert_eq!(steps, 3, "cycles 1, 700 and 100 001");
    assert_eq!(observed.0, 100_001);
    assert_eq!(observed.2, [vec![(100_001, TIMER)], vec![(700, 7)]]);
}

#[test]
fn scenarios_cover_the_overflow_path_and_every_component_kind() {
    let mut seen = [false; 6];
    let mut long_delay = false;
    for seed in 1..=32u64 {
        for scenario in [Scenario::draw(seed), Scenario::with_movers(seed)] {
            for node in &scenario.nodes {
                seen[match node.kind {
                    Kind::Relay { .. } => 0,
                    Kind::Pulse { .. } => 1,
                    Kind::Recorder { .. } => 2,
                    Kind::Busy { .. } => 3,
                    Kind::Sampler => 4,
                    Kind::Mover { .. } => 5,
                }] = true;
                long_delay |= node.edges.iter().any(|&(_, d)| d >= 512);
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "a component kind never occurs");
    assert!(long_delay, "no edge exercises the overflow list");
}
