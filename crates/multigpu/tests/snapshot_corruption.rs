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

use std::panic::{catch_unwind, AssertUnwindSafe};

use netcrafter_core::SplitMix64;
use netcrafter_multigpu::{Experiment, System, SystemVariant};
use netcrafter_workloads::Workload;

fn build() -> System {
    let exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
    let cfg = exp.variant.apply(exp.base_cfg);
    let kernel = exp
        .workload
        .generate(&exp.scale, cfg.total_gpus(), exp.seed);
    System::build(cfg, &kernel)
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
