//! Fixture: idiomatic deterministic sim code fires nothing.
use std::collections::BTreeMap;

pub struct Table {
    routes: BTreeMap<u16, usize>,
}

impl Component for Table {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx.cycle();
    }
    fn busy(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        "table"
    }
    fn next_wake(&self, _now: Cycle) -> Wake {
        Wake::OnMessage
    }
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.routes.save(w);
    }
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.routes = Snap::load(r)?;
        Ok(())
    }
}

pub struct Meter {
    limit: u64,
    seen: u64,
}

// The snapshot pair may come from `snap_fields!`: snapshot-coverage
// reads the two method names out of the invocation.
impl Component for Meter {
    fn tick(&mut self, _ctx: &mut Ctx<'_>) {
        self.seen += 1;
    }
    fn busy(&self) -> bool {
        self.seen < self.limit
    }
    fn name(&self) -> &str {
        "meter"
    }
    fn next_wake(&self, _now: Cycle) -> Wake {
        Wake::EveryCycle
    }
    snap_fields! {
        fn save_state + load_state {
            limit: skipped(config),
            seen,
        }
    }
}

impl EgressQueue for Table {
    fn pop(&mut self, _now: Cycle, tracer: &mut Tracer) -> Option<Flit> {
        let _ = tracer;
        None
    }
}

pub fn widen(x: u16) -> u64 {
    // Widening casts are fine; only u8/u16 narrowing is flagged.
    x as u64
}

pub fn checked_narrow(x: usize) -> u16 {
    u16::try_from(x).expect("fits")
}
