//! Hostile snapshot bytes never take the process down: a corrupted
//! mid-run snapshot fed to `System::restore` on a fresh system returns
//! `Ok` (the damage hit a value whose every bit pattern is valid) or a
//! `SnapshotError` — it never panics, and never hangs on an absurd
//! length field.
//!
//! The corruptions are seeded (SplitMix64), so a failure reproduces:
//! truncation at every Nth offset, single-bit flips and `0xFF` stomps
//! over short runs of bytes, all over a real quick-scale snapshot taken
//! while flits, fills and page walks are in flight.
//!
//! Well-formed bytes of another run are refused as a whole: a snapshot
//! carries its run id, and `restore` returns `SnapshotError::WrongRun`
//! before it assigns anything.

use std::panic::{catch_unwind, AssertUnwindSafe};

use netcrafter_core::SplitMix64;
use netcrafter_multigpu::{CheckpointPlan, Experiment, System, SystemVariant};
use netcrafter_proto::{Pooling, SystemConfig};
use netcrafter_sim::snapshot::SnapshotError;
use netcrafter_workloads::Workload;

fn quick() -> Experiment {
    Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
}

/// The node `exp` runs on, with `tweak` applied to its variant-applied
/// configuration.
fn build_with(exp: &Experiment, tweak: impl FnOnce(&mut SystemConfig)) -> System {
    let mut cfg = exp.variant.apply(exp.base_cfg);
    tweak(&mut cfg);
    let kernel = exp
        .workload
        .generate(&exp.scale, cfg.total_gpus(), exp.seed);
    System::build(cfg, &kernel)
}

fn build_of(exp: &Experiment) -> System {
    build_with(exp, |_| {})
}

fn build() -> System {
    build_of(&quick())
}

/// `exp` run up to `cycle` and saved there.
fn paused_at(exp: &Experiment, cycle: u64) -> Vec<u8> {
    let mut sys = build_of(exp);
    sys.run_until(cycle);
    assert!(!sys.engine.quiescent(), "paused mid-run");
    sys.save_snapshot()
}

#[track_caller]
fn assert_wrong_run(what: &str, restored: Result<(), SnapshotError>) {
    match restored {
        Err(SnapshotError::WrongRun { found, expected }) => assert_ne!(found, expected),
        other => panic!("{what}: expected WrongRun, got {other:?}"),
    }
}

#[test]
fn a_snapshot_restores_into_its_own_run_only() {
    let good = paused_at(&quick(), 1_500);
    build().restore(&good).expect("its own run");
    assert_wrong_run("seed", build_of(&quick().with_seed(7)).restore(&good));
    let spmv = Experiment {
        workload: Workload::Spmv,
        ..quick()
    };
    assert_wrong_run("workload", build_of(&spmv).restore(&good));
    // With no warmup window every knob is live from cycle 0.
    let wide = |cfg: &mut SystemConfig| cfg.netcrafter.stitching = Some(Pooling::new(64, true));
    assert_wrong_run("pooling window", build_with(&quick(), wide).restore(&good));
}

#[test]
fn warmup_siblings_share_the_state_before_the_warmup_cycle_only() {
    let mut exp = quick();
    exp.base_cfg.netcrafter.warmup_cycles = 400;
    let mut sibling = exp.clone();
    sibling.variant = SystemVariant::StitchTrim;

    // Paused at W − 1 no knob has acted yet: the sibling resumes the
    // fork and finishes exactly as its own cold run.
    let fork = paused_at(&exp, 399);
    let plan = CheckpointPlan {
        resume_from: Some(&fork),
        pause_at: None,
    };
    let warm = (sibling.run_planned(plan, None)).expect("a sibling's fork at W - 1 restores");
    assert_eq!(warm.result.to_kv(), sibling.run().to_kv());

    // Pausing *at* W executes cycle W under the policy: only that run
    // may continue from there.
    let at_w = paused_at(&exp, 400);
    build_of(&exp).restore(&at_w).expect("its own run");
    assert_wrong_run("sibling at W", build_of(&sibling).restore(&at_w));
}

/// Restores `bytes` onto a fresh system; `Err(what)` if that panicked.
fn restore_survives(what: String, bytes: &[u8]) -> Result<(), String> {
    let mut sys = build();
    catch_unwind(AssertUnwindSafe(|| {
        // Ok or a SnapshotError are both acceptable outcomes.
        let _ = sys.restore(bytes);
    }))
    .map_err(|_| what)
}

#[test]
fn corrupted_snapshots_restore_or_fail_without_panicking() {
    let mut sys = build();
    sys.run_until(1_500);
    assert!(!sys.engine.quiescent(), "paused mid-run");
    let good = sys.save_snapshot();
    build()
        .restore(&good)
        .expect("the intact snapshot restores");

    let mut rng = SplitMix64::new(0x5EED_C0DE);
    let mut cases = 0;
    let mut panicked: Vec<String> = Vec::new();
    let mut check = |what: String, bytes: &[u8]| {
        cases += 1;
        panicked.extend(restore_survives(what, bytes).err());
    };

    // Truncation at every Nth offset (N prime, so cuts land at every
    // alignment), plus the first bytes, where the header lives.
    let stride = good.len() / 101;
    for cut in (0..good.len()).step_by(stride).chain(0..16) {
        check(format!("truncated to {cut} bytes"), &good[..cut]);
    }
    // Single-bit flips: tags, length prefixes, counters, float bits.
    for _ in 0..120 {
        let at = rng.below_usize(good.len());
        let bit = rng.below(8);
        let mut bytes = good.clone();
        bytes[at] ^= 1 << bit;
        check(format!("bit {bit} of byte {at} flipped"), &bytes);
    }
    // 0xFF stomps over 1–8 bytes: absurd lengths, ids and cycle counts.
    for _ in 0..120 {
        let at = rng.below_usize(good.len());
        let len = rng.range(1, 8) as usize;
        let mut bytes = good.clone();
        let end = (at + len).min(bytes.len());
        bytes[at..end].fill(0xFF);
        check(format!("bytes {at}..{end} stomped with 0xFF"), &bytes);
    }

    assert!(cases >= 300, "only {cases} cases ran");
    assert!(
        panicked.is_empty(),
        "restore panicked on {} of {cases} corrupted snapshots:\n  {}",
        panicked.len(),
        panicked.join("\n  ")
    );
}
