//! Randomized equivalence of the one scheduler core's three drivers:
//! the Legacy tick-everything reference, sequential event-driven
//! execution, and the conservative parallel scheduler (2 and 3 domains,
//! 1–4 worker threads) must agree on the end cycle, the delivery count
//! and every component's `(cycle, payload)` receipt log.
//!
//! Graphs are drawn from fixed SplitMix64 seeds: relays, `At`-timed
//! pulses and recorders, bounded always-busy components and (on every
//! third seed) a never-busy every-cycle sampler, wired with delays on
//! both sides of the delay wheel's 512-slot range, under a random dense
//! partition whose lookahead is the minimum cross-domain edge delay.

use netcrafter_proto::{Message, NodeId};
use netcrafter_sim::{
    Component, ComponentId, Ctx, Cycle, Engine, EngineBuilder, Partition, SchedulerMode, Wake,
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
}

#[derive(Clone)]
struct Node {
    id: u32,
    kind: Kind,
    /// `(destination, delay)` edges, used round-robin.
    edges: Vec<(usize, u64)>,
    sent: usize,
    ticks: u64,
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
        while let Some(msg) = ctx.recv() {
            let Message::Credit { count, .. } = msg else {
                unreachable!("only credits circulate");
            };
            self.log.push((now, count));
            if let Kind::Relay { hops } = &mut self.kind {
                if *hops > 0 {
                    *hops -= 1;
                    self.send(ctx, count);
                }
            }
        }
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
            _ => {}
        }
    }

    fn busy(&self) -> bool {
        match self.kind {
            Kind::Pulse { left, .. } | Kind::Recorder { left, .. } | Kind::Busy { left } => {
                left > 0
            }
            Kind::Relay { .. } | Kind::Sampler => false,
        }
    }

    fn name(&self) -> &str {
        "node"
    }

    fn next_wake(&self, _now: Cycle) -> Wake {
        match self.kind {
            Kind::Pulse { next, left, .. } | Kind::Recorder { next, left, .. } if left > 0 => {
                Wake::At(next)
            }
            Kind::Busy { left } if left > 0 => Wake::EveryCycle,
            Kind::Sampler => Wake::EveryCycle,
            _ => Wake::OnMessage,
        }
    }
}

/// One random scenario: the nodes, the external injections, and a dense
/// partition per domain count.
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

    /// A random dense assignment to `domains` domains with the tightest
    /// valid lookahead, alternating between the uniform bound and the
    /// per-pair matrix.
    fn partition(&self, domains: usize, rng: &mut SplitMix64) -> Partition {
        let n = self.nodes.len();
        // The first `domains` nodes pin one domain each (dense by
        // construction); the rest land anywhere.
        let domain_of: Vec<usize> = (0..n)
            .map(|i| {
                if i < domains {
                    i
                } else {
                    rng.below(domains as u64) as usize
                }
            })
            .collect();
        let mut pairs = vec![u64::MAX; domains * domains];
        for (src, node) in self.nodes.iter().enumerate() {
            for &(dst, delay) in &node.edges {
                let (a, b) = (domain_of[src], domain_of[dst]);
                if a != b {
                    let cell = &mut pairs[a * domains + b];
                    *cell = (*cell).min(delay);
                }
            }
        }
        let tightest = pairs.iter().copied().min().unwrap_or(u64::MAX);
        if tightest == u64::MAX {
            // No cross-domain edge at all: any lookahead is valid.
            Partition::new(domain_of, 64)
        } else if rng.below(2) == 0 {
            Partition::new(domain_of, tightest)
        } else {
            Partition::with_pair_lookahead(domain_of, pairs)
        }
    }

    fn build(&self) -> Engine {
        let mut b = EngineBuilder::new();
        for node in &self.nodes {
            b.add(Box::new(node.clone()));
        }
        b.build()
    }

    /// Runs `engine` to quiescence and returns everything compared.
    fn observe(&self, mut engine: Engine) -> (Cycle, u64, Vec<Vec<(Cycle, u32)>>) {
        for &(dst, payload, delay) in &self.injections {
            engine.inject(ComponentId(dst), credit(payload), delay);
        }
        let end = engine.run_to_quiescence(10_000_000);
        let mut logs = Vec::new();
        for i in 0..self.nodes.len() {
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
fn legacy_event_driven_and_pdes_agree_on_random_graphs() {
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

        let mut rng = SplitMix64(seed ^ 0xD0_4A1D);
        for domains in [2, 3] {
            for threads in 1..=4 {
                let mut engine = scenario.build();
                engine.set_parallel(scenario.partition(domains, &mut rng), threads);
                let pdes = scenario.observe(engine);
                assert!(
                    pdes == reference,
                    "seed {seed}: {domains} domains on {threads} thread(s) diverge from Legacy"
                );
            }
        }
    }
}

#[test]
fn scenarios_cover_the_overflow_path_and_every_component_kind() {
    let mut seen = [false; 5];
    let mut long_delay = false;
    for seed in 1..=32u64 {
        let scenario = Scenario::draw(seed);
        for node in &scenario.nodes {
            seen[match node.kind {
                Kind::Relay { .. } => 0,
                Kind::Pulse { .. } => 1,
                Kind::Recorder { .. } => 2,
                Kind::Busy { .. } => 3,
                Kind::Sampler => 4,
            }] = true;
            long_delay |= node.edges.iter().any(|&(_, d)| d >= 512);
        }
    }
    assert!(seen.iter().all(|&s| s), "a component kind never occurs");
    assert!(long_delay, "no edge exercises the overflow list");
}
