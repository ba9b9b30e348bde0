//! What `snap_fields!` can and cannot guarantee, shown at runtime.
//!
//! The macro makes *omitting* a field from the snapshot pair a compile
//! error (its `compile_fail` doctest), and generating both halves from
//! one list rules out save/load disagreeing. What stays a judgement is
//! the classification itself: a component that lists an evolving field
//! as `skipped` restores cleanly, hashes identically at the restore
//! point — and then silently diverges from the original run. The twin
//! that persists every evolving field stays bit-identical.

use netcrafter_sim::{snap_fields, Component, Ctx, EngineBuilder};

/// Accumulator whose `sum` trajectory depends on the tick counter.
struct Drifter {
    ticks: u64,
    sum: u64,
    horizon: u64,
}

impl Drifter {
    fn new() -> Self {
        Drifter {
            ticks: 0,
            sum: 0,
            horizon: 200,
        }
    }

    fn step(&mut self) {
        if self.ticks < self.horizon {
            self.ticks += 1;
            // `sum` depends on `ticks`, so a restore that resets `ticks`
            // bends the `sum` trajectory from here on.
            self.sum += self.ticks * 3 + 1;
        }
    }
}

impl Component for Drifter {
    fn tick(&mut self, _ctx: &mut Ctx<'_>) {
        self.step();
    }

    fn busy(&self) -> bool {
        self.ticks < self.horizon
    }

    fn name(&self) -> &str {
        "drifter"
    }

    snap_fields! {
        fn save_state + load_state {
            horizon: skipped(config),
            sum,
            ticks,
        }
    }
}

/// The same model, snapshotted through a pair that misclassifies
/// `ticks` as derived state.
struct LeakyDrifter {
    inner: Drifter,
}

impl Component for LeakyDrifter {
    fn tick(&mut self, _ctx: &mut Ctx<'_>) {
        self.inner.step();
    }

    fn busy(&self) -> bool {
        self.inner.busy()
    }

    fn name(&self) -> &str {
        "drifter"
    }

    snap_fields! {
        fn save_state + load_state { inner }
    }
}

impl Drifter {
    snap_fields! {
        fn save + load_into {
            horizon: skipped(config),
            sum,
            ticks: skipped(derived),
        }
    }
}

/// Runs to cycle 50, snapshots, and compares the original at cycle 150
/// with a restored replica run over the same span.
fn divergence_after_restore(build: fn() -> Box<dyn Component>) -> (u64, u64) {
    let mut b = EngineBuilder::new();
    b.add(build());
    let mut original = b.build();
    original.run_until(50);
    let snapshot = original.save_snapshot();
    original.run_until(150);

    let mut b = EngineBuilder::new();
    b.add(build());
    let mut replica = b.build();
    replica.restore(&snapshot).expect("snapshot restores");
    replica.run_until(150);
    (original.state_hash(), replica.state_hash())
}

#[test]
fn persisting_every_evolving_field_is_restore_equivalent() {
    let (original, replica) = divergence_after_restore(|| Box::new(Drifter::new()));
    assert_eq!(
        original, replica,
        "a component that snapshots every evolving field replays bit-identically"
    );
}

#[test]
fn skipping_an_evolving_field_diverges_silently() {
    let (original, replica) = divergence_after_restore(|| {
        Box::new(LeakyDrifter {
            inner: Drifter::new(),
        })
    });
    assert_ne!(
        original, replica,
        "classifying an evolving field as skipped must show up as \
         post-restore divergence"
    );
}
