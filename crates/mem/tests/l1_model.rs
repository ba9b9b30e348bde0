//! Model-based randomized test: the L1 cache agrees with a simple
//! reference model of per-sector validity across arbitrary access/fill
//! interleavings and all three fill policies. Cases are drawn from the
//! in-tree [`SplitMix64`] generator with a fixed seed so failures
//! reproduce exactly.
//!
//! Every case also drives a twin cache that books stalled retries the
//! way a sleeping CU does, with one `L1Cache::settle_stalled_reads`
//! call, while the first cache executes them one per cycle: the two
//! must hold the same bytes after every op, LRU stamps included.

use std::collections::{BTreeMap, BTreeSet};

use netcrafter_core::SplitMix64;
use netcrafter_mem::{L1Access, L1Cache};
use netcrafter_proto::config::{CacheConfig, SectorFillPolicy, L1};
use netcrafter_proto::{AccessId, LineAddr, LineMask};
use netcrafter_sim::SnapshotWriter;

#[derive(Debug, Clone)]
enum Op {
    /// Read `len` bytes at byte `offset` of line `line`.
    Read {
        line: u64,
        offset: u64,
        len: u64,
        crosses: bool,
    },
    /// Complete the oldest outstanding fill.
    Fill,
    /// Retry, `attempts` times on consecutive cycles, a read of `len`
    /// bytes at byte `offset` of the line of outstanding fill number
    /// `pick` (modulo their count) while it stalls; nothing when no fill
    /// is outstanding or the read would not stall.
    Retry {
        pick: u64,
        offset: u64,
        len: u64,
        crosses: bool,
        attempts: u64,
    },
}

fn arb_op(rng: &mut SplitMix64) -> Op {
    // 3:2 odds of a read vs a fill, as in the original proptest strategy.
    if rng.ratio(3, 5) {
        let line = rng.below(24);
        let offset = rng.below(56);
        let len = rng.range(1, 7).min(64 - offset).max(1);
        Op::Read {
            line,
            offset,
            len,
            crosses: rng.flip(),
        }
    } else {
        Op::Fill
    }
}

/// `arb_op` over 96 lines (so sets fill up and evict), or one time in
/// four a stalled-retry run.
fn arb_op_with_retries(rng: &mut SplitMix64) -> Op {
    if rng.ratio(1, 4) {
        let offset = rng.below(56);
        Op::Retry {
            pick: rng.below(8),
            offset,
            len: rng.range(1, 7).min(64 - offset).max(1),
            crosses: rng.flip(),
            attempts: rng.range(1, 40),
        }
    } else {
        match arb_op(rng) {
            Op::Read {
                offset,
                len,
                crosses,
                ..
            } => Op::Read {
                line: rng.below(96),
                offset,
                len,
                crosses,
            },
            op => op,
        }
    }
}

const POLICIES: [SectorFillPolicy; 3] = [
    SectorFillPolicy::FullLine,
    SectorFillPolicy::OnTrim,
    SectorFillPolicy::Always,
];

#[test]
fn l1_matches_reference_model() {
    let mut rng = SplitMix64::new(0x11c4c4e);
    for case in 0..128 {
        let n_ops = rng.range(1, 119) as usize;
        let ops: Vec<Op> = (0..n_ops).map(|_| arb_op(&mut rng)).collect();
        let policy = *rng.pick(&POLICIES);
        check_case(&ops, policy, case);
    }
}

#[test]
fn settled_retries_match_per_cycle_retries() {
    let mut rng = SplitMix64::new(0x05e7_71ed);
    let mut settled_runs = 0;
    for case in 0..128 {
        let n_ops = rng.range(1, 119) as usize;
        let ops: Vec<Op> = (0..n_ops).map(|_| arb_op_with_retries(&mut rng)).collect();
        let policy = *rng.pick(&POLICIES);
        settled_runs += check_case(&ops, policy, case);
    }
    assert!(settled_runs > 100, "only {settled_runs} stalled-retry runs");
}

/// The cache's saved bytes: tags with their LRU stamps, MSHR, counters.
fn state(l1: &L1Cache) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    l1.save(&mut w);
    w.into_bytes()
}

/// Runs `ops` against the reference model, and against a twin that
/// settles every stalled-retry run in one call; returns the number of
/// runs settled.
fn check_case(ops: &[Op], policy: SectorFillPolicy, case: usize) -> usize {
    let cfg = CacheConfig {
        size_bytes: 64 * 64, // 64 lines: small enough to evict
        ways: 4,
        lookup_cycles: 20,
        mshr_entries: 8,
    };
    let mut l1 = L1Cache::new(&cfg, policy, 16);
    let mut twin = L1Cache::new(&cfg, policy, 16);
    let mut settled_runs = 0;

    // Reference: which sectors of which line are valid, which fills are
    // outstanding. Evictions make the reference *optimistic* (it never
    // evicts), so the invariant is one-directional where eviction
    // matters: an L1 Hit implies the reference had the sectors; an L1
    // miss with reference-valid sectors is legal (eviction). Outstanding
    // fills are matched exactly.
    let mut ref_valid: BTreeMap<u64, u16> = BTreeMap::new();
    let mut outstanding: Vec<(u64, u16, Vec<AccessId>)> = Vec::new();
    let mut next_id = 0u64;
    let mut now = 0u64;
    let mut waiting: BTreeSet<AccessId> = BTreeSet::new();

    for op in ops {
        now += 1;
        match *op {
            Op::Read {
                line,
                offset,
                len,
                crosses,
            } => {
                let id = AccessId(next_id);
                next_id += 1;
                let mask = LineMask::span(offset, len);
                let needed = mask.sectors(16);
                let access = l1.read(LineAddr(line * 64), mask, id, now, crosses);
                let twin_access = twin.read(LineAddr(line * 64), mask, id, now, crosses);
                assert_eq!(access, twin_access, "case {case}: the twin reads alike");
                match access {
                    L1Access::Hit => {
                        let valid = ref_valid.get(&line).copied().unwrap_or(0);
                        assert_eq!(
                            needed & !valid,
                            0,
                            "case {case}: hit on sectors the model never filled: \
                             line {line} needed {needed:04b} valid {valid:04b}"
                        );
                    }
                    L1Access::Miss { sectors } => {
                        assert_eq!(needed & !sectors, 0, "case {case}: fill covers the access");
                        if policy == SectorFillPolicy::FullLine {
                            assert_eq!(sectors, 0b1111);
                        }
                        outstanding.push((line, sectors, vec![id]));
                        waiting.insert(id);
                    }
                    L1Access::MergedMiss => {
                        let entry = outstanding
                            .iter_mut()
                            .find(|(l, _, _)| *l == line)
                            .expect("merge requires an outstanding fill");
                        assert_eq!(needed & !entry.1, 0, "case {case}: merge must be covered");
                        entry.2.push(id);
                        waiting.insert(id);
                    }
                    L1Access::Stall => {
                        // Legal only when the MSHR is full or an
                        // uncovered same-line fill is in flight.
                        let same_line = outstanding
                            .iter()
                            .any(|(l, s, _)| *l == line && needed & !s != 0);
                        assert!(
                            outstanding.len() >= 8 || same_line,
                            "case {case}: stall without cause"
                        );
                    }
                }
            }
            Op::Fill => {
                if outstanding.is_empty() {
                    continue;
                }
                let (line, sectors, ids) = outstanding.remove(0);
                let woken = l1.fill(LineAddr(line * 64), sectors, now);
                let twin_woken = twin.fill(LineAddr(line * 64), sectors, now);
                assert_eq!(woken, twin_woken, "case {case}: the twin fills alike");
                let mut got: Vec<u64> = woken.iter().map(|a| a.raw()).collect();
                let mut want: Vec<u64> = ids.iter().map(|a| a.raw()).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "case {case}: fill wakes exactly its waiters");
                for id in ids {
                    waiting.remove(&id);
                }
                *ref_valid.entry(line).or_insert(0) |= sectors;
            }
            Op::Retry {
                pick,
                offset,
                len,
                crosses,
                attempts,
            } => {
                let Some(&(line, ..)) = outstanding.get(pick as usize % outstanding.len().max(1))
                else {
                    continue;
                };
                let (line, mask) = (LineAddr(line * 64), LineMask::span(offset, len));
                if !l1.read_would_stall(line, mask, crosses) {
                    continue;
                }
                for _ in 0..attempts {
                    let id = AccessId(next_id);
                    next_id += 1;
                    let access = l1.read(line, mask, id, now, crosses);
                    assert_eq!(access, L1Access::Stall, "case {case}: a retry stalls again");
                    now += 1;
                }
                now -= 1;
                twin.settle_stalled_reads(line, attempts, now);
                settled_runs += 1;
            }
        }
        assert!(
            state(&l1) == state(&twin),
            "case {case}: the settled twin diverges after {op:?}"
        );
    }
    // Drain remaining fills; everything waiting must wake.
    for (line, sectors, ids) in outstanding {
        let woken = l1.fill(LineAddr(line * 64), sectors, now);
        assert_eq!(woken.len(), ids.len());
        for id in ids {
            waiting.remove(&id);
        }
    }
    assert!(
        waiting.is_empty(),
        "case {case}: no access left waiting forever"
    );
    assert!(
        !l1.busy(),
        "case {case}: cache quiesces once fills complete"
    );
    settled_runs
}

/// Table 2's L1 with a line resident with one sector, whose parked read
/// of another sector stalls behind the line's second, uncovered fill
/// while the set's other three ways are filled: the stalled retries'
/// LRU stamps decide which line the next fill into the set evicts. A
/// CU that sleeps on the retries settles them in one call; a settle that
/// books the stalls but not the stamp evicts the parked line instead.
///
/// The scheduler equivalence table cannot stage this: a CU's L1 changes
/// only while the CU ticks, and each tick executes the parked retries
/// for real, so when a sleeping CU wakes to a fill, every line of the
/// set was last touched no later than the parked line's last executed
/// retry; the settled stamp can change the victim only through an LRU
/// tie among lines all touched in that one tick, which no workload run
/// at Table 2's CU and L1 was seen to reach.
#[test]
fn a_settled_stall_restamps_the_line_the_next_eviction_spares() {
    // Lines `0, 256, 512, …` share set 0 of the 256-set L1.
    let sets = L1.size_bytes / 64 / L1.ways as u64;
    let line = |i: u64| LineAddr(i * sets * 64);
    let sector = |s: u64| LineMask::span(s * 16, 16);
    let (parked, others, newcomer) = (line(0), [line(1), line(2), line(3)], line(4));
    let run = |settle: bool| {
        let mut l1 = L1Cache::new(&L1, SectorFillPolicy::Always, 16);
        let mut ids = (0..).map(AccessId);
        let mut id = move || ids.next().expect("ids are endless");
        let mut now = 0;
        let mut tick = move || {
            now += 1;
            now
        };
        // The parked line: sector 0 resident, sector 1 in flight.
        assert!(matches!(
            l1.read(parked, sector(0), id(), tick(), false),
            L1Access::Miss { .. }
        ));
        l1.fill(parked, 0b0001, tick());
        assert!(matches!(
            l1.read(parked, sector(1), id(), tick(), false),
            L1Access::Miss { .. }
        ));
        // The set's three other ways, each newer than the parked line.
        for other in others {
            assert!(matches!(
                l1.read(other, sector(0), id(), tick(), false),
                L1Access::Miss { .. }
            ));
            l1.fill(other, 0b0001, tick());
        }
        // A read of sector 2 stalls behind the sector-1 fill: ten
        // attempts on consecutive cycles, the last at `last`.
        assert!(l1.read_would_stall(parked, sector(2), false));
        let first = tick();
        let last = first + 9;
        if settle {
            l1.settle_stalled_reads(parked, 10, last);
        } else {
            for cycle in first..=last {
                assert_eq!(
                    l1.read(parked, sector(2), id(), cycle, false),
                    L1Access::Stall
                );
            }
        }
        // A fill into the full set evicts its least recently used line.
        assert!(matches!(
            l1.read(newcomer, sector(0), id(), last + 1, false),
            L1Access::Miss { .. }
        ));
        l1.fill(newcomer, 0b0001, last + 2);
        l1
    };
    let (per_cycle, settled) = (run(false), run(true));
    for l1 in [&per_cycle, &settled] {
        assert!(l1.is_resident(parked), "the re-stamped parked line stays");
        assert!(!l1.is_resident(others[0]), "the oldest other line goes");
    }
    assert!(
        state(&per_cycle) == state(&settled),
        "settled state differs"
    );
    assert_eq!(settled.mshr_stalls(), 10);
}
