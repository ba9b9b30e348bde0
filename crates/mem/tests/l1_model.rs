//! Model-based randomized test: the L1 cache agrees with a simple
//! reference model of per-sector validity across arbitrary access/fill
//! interleavings and all three fill policies. Cases are drawn from the
//! in-tree [`SplitMix64`] generator with a fixed seed so failures
//! reproduce exactly.

use std::collections::{BTreeMap, BTreeSet};

use netcrafter_core::SplitMix64;
use netcrafter_mem::{L1Access, L1Cache};
use netcrafter_proto::config::{CacheConfig, SectorFillPolicy};
use netcrafter_proto::{AccessId, LineAddr, LineMask};

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

fn check_case(ops: &[Op], policy: SectorFillPolicy, case: usize) {
    let cfg = CacheConfig {
        size_bytes: 64 * 64, // 64 lines: small enough to evict
        ways: 4,
        lookup_cycles: 20,
        mshr_entries: 8,
    };
    let mut l1 = L1Cache::new(&cfg, policy, 16);

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
                match l1.read(LineAddr(line * 64), mask, id, now, crosses) {
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
        }
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
}
