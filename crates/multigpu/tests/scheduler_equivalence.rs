//! The scheduler equivalence table: every way of executing a simulation
//! must reproduce the uninterrupted event-driven run byte for byte.
//!
//! Rows are {EventDriven, Legacy} × {uninterrupted, pause at the
//! midpoint then resume}; columns are a slice of the fig14
//! matrix on the 2×2 mesh plus the fat-tree-8 and torus fabrics, one
//! column paused while translation requests are parked behind full
//! L2-TLB MSHRs (their replay misses only partly settled), and three
//! paused while CUs with Table 2's limits and L1 sleep on access retries
//! that cannot succeed — held by the outstanding cap, stalled by the L1,
//! and stalled on a resident line — with the burnt access ids, MSHR
//! stalls and LRU stamps of the skipped attempts not yet booked. Each cell compares `exec_cycles`, `Metrics::to_kv`,
//! the chrome-trace JSON and the per-link time-series JSONL against the
//! EventDriven/uninterrupted cell of its column. A pause row checks the
//! run that paused and went on, then resumes both the snapshot it took
//! itself and the one the event-driven row took: snapshots exclude
//! scheduler-derived state, so they are portable across schedulers.
//! Snapshots exclude observers too, so a resumed cell records only what
//! it simulates: its metrics are compared in full, its trace from the
//! first cycle after the pause and its time series from the first window
//! that starts after it. A CU given more waves than slots is held to the
//! same results under every scheduler, and to byte-identical restores
//! of a pause taken after a retired wave handed its slot on.
//!
//! Every row dispatches the same `tick_burst`; Legacy ticks every
//! component every cycle and ignores the returned wakes, so its rows
//! referee the skipped ticks: a native wake (Switch, Rdma, L2, Dram, Cu
//! and the EgressPort/ClusterQueue machinery) that sleeps through a tick
//! that mattered shows as a Legacy diff. The fused busy flags are
//! refereed separately, per tick, by the debug assertion in the engine's
//! `tick_one`.

use netcrafter_gpu::{Cu, RetryPark};
use netcrafter_multigpu::{
    CheckpointPlan, CheckpointedRun, Experiment, LinkSeries, System, SystemVariant, TraceData,
    TraceOptions,
};
use netcrafter_proto::config::CU;
use netcrafter_proto::{SystemConfig, TimeSeries, TopologyConfig};
use netcrafter_sim::snapshot::{ForkSnapshot, SnapshotError, SnapshotWriter};
use netcrafter_sim::{Component, SchedulerMode, Trace, TraceConfig};
use netcrafter_vm::TranslationUnit;
use netcrafter_workloads::{Scale, Workload};

const SCHEDS: [SchedulerMode; 2] = [SchedulerMode::EventDriven, SchedulerMode::Legacy];

fn trace_opts() -> TraceOptions {
    TraceOptions {
        config: Some(TraceConfig::default()),
        sample_window: Some(256),
    }
}

/// Everything a cell is compared on.
struct Observed {
    exec_cycles: u64,
    metrics: String,
    chrome_json: String,
    links_jsonl: String,
}

impl Observed {
    /// The run's results, and what it recorded after cycle `since` (all
    /// of it when `None`): trace events after `since`, series windows
    /// starting after it.
    fn of(run: &CheckpointedRun, since: Option<u64>) -> Observed {
        let data = run.recorded.as_ref().expect("every cell runs traced");
        let kept = |cycle: u64| since.is_none_or(|since| cycle > since);
        let events = data.trace.events.iter().filter(|e| kept(e.cycle));
        let trace = Trace {
            tracks: data.trace.tracks.clone(),
            events: events.cloned().collect(),
        };
        let links = data.links.iter().map(|l| {
            let mut series = l.series.clone();
            let s = &mut series;
            for ts in [&mut s.bytes, &mut s.flits, &mut s.occupancy, &mut s.pooled] {
                let mut after = TimeSeries::new(ts.window());
                for (start, value) in ts.iter().filter(|&(start, _)| kept(start)) {
                    after.add(start, value);
                }
                *ts = after;
            }
            LinkSeries {
                link: l.link.clone(),
                is_inter: l.is_inter,
                series,
            }
        });
        let after = TraceData {
            trace,
            links: links.collect(),
        };
        Observed {
            exec_cycles: run.result.exec_cycles,
            metrics: run.result.metrics.to_kv(),
            chrome_json: after.trace.to_chrome_json(),
            links_jsonl: after.links_to_jsonl(),
        }
    }

    fn assert_matches(&self, reference: &Observed, cell: &str) {
        assert_eq!(
            self.exec_cycles, reference.exec_cycles,
            "{cell}: cycle counts diverge"
        );
        assert_eq!(self.metrics, reference.metrics, "{cell}: metrics diverge");
        assert!(
            self.chrome_json == reference.chrome_json,
            "{cell}: chrome-trace JSON diverges"
        );
        assert!(
            self.links_jsonl == reference.links_jsonl,
            "{cell}: per-link time series diverge"
        );
    }
}

/// Runs `plan` traced; a resumed run is observed after its resume cycle.
fn traced(exp: &Experiment, plan: CheckpointPlan<'_>) -> (CheckpointedRun, Observed) {
    let run = exp
        .run_planned(plan, Some(&trace_opts()))
        .expect("snapshot restores");
    let since = plan.resume_from.map(|_| run.resumed_at);
    let seen = Observed::of(&run, since);
    (run, seen)
}

/// Walks every row of one column, pausing at the midpoint of the run.
fn check_column(column: &str, exp: &Experiment) {
    check_column_pausing(column, exp, |exec_cycles| exec_cycles / 2);
}

/// Walks every row of one column; `pause_at` picks the pause cycle from
/// the uninterrupted run's length.
fn check_column_pausing(column: &str, exp: &Experiment, pause_at: impl Fn(u64) -> u64) {
    let (reference_run, reference) = traced(exp, CheckpointPlan::default());
    let mid = pause_at(reference.exec_cycles);
    assert!(
        mid > 0 && mid < reference.exec_cycles,
        "{column}: no room to pause at {mid}"
    );
    let reference_after_mid = Observed::of(&reference_run, Some(mid));
    let mut event_driven_snapshot: Option<ForkSnapshot> = None;

    for sched in SCHEDS {
        let exp = exp.clone().with_scheduler(sched);
        let cell = format!("{column} / {sched:?}");
        if sched != SchedulerMode::EventDriven {
            let (_, seen) = traced(&exp, CheckpointPlan::default());
            seen.assert_matches(&reference, &format!("{cell} / uninterrupted"));
        }

        // Pausing to hand a snapshot back must not perturb the run that
        // continues.
        let pause = CheckpointPlan {
            resume_from: None,
            pause_at: Some(mid),
        };
        let (paused, seen) = traced(&exp, pause);
        seen.assert_matches(&reference, &format!("{cell} / pausing run"));
        let own = paused.snapshot.expect("pause requested");
        assert_eq!(own.cycle(), mid, "{cell}: paused at the requested barrier");

        let mut snapshots = vec![("its own snapshot", own.clone())];
        match &event_driven_snapshot {
            None => event_driven_snapshot = Some(own),
            Some(foreign) => snapshots.push(("the event-driven snapshot", foreign.clone())),
        }
        for (whose, snapshot) in snapshots {
            let resume = CheckpointPlan {
                resume_from: Some(snapshot.bytes()),
                pause_at: None,
            };
            let (run, seen) = traced(&exp, resume);
            assert_eq!(run.resumed_at, mid, "{cell}: resumed from the pause point");
            seen.assert_matches(
                &reference_after_mid,
                &format!("{cell} / resumed from {whose}"),
            );
        }
    }
}

/// Quick-scale compute on a scale-out fabric: 2 CUs per GPU, the launch
/// widened by `Scale::for_gpus` so per-GPU load carries over.
fn scale_out(mut cfg: SystemConfig, variant: SystemVariant) -> Experiment {
    cfg.cus_per_gpu = 2;
    let scale = Scale::tiny().for_gpus(cfg.total_gpus());
    Experiment::quick(Workload::Gups, variant)
        .with_base_cfg(cfg)
        .with_scale(scale)
}

#[test]
fn mesh_fig14_slice() {
    // Every NetCrafter mechanism (stitching, pooling, sequencing,
    // trimming) runs under every row.
    for variant in [
        SystemVariant::Baseline,
        SystemVariant::NetCrafter,
        SystemVariant::StitchOnly,
    ] {
        for workload in [Workload::Gups, Workload::Atax] {
            check_column(
                &format!("mesh/{workload:?}/{variant:?}"),
                &Experiment::quick(workload, variant),
            );
        }
    }
    check_column(
        "mesh/Mt/NetCrafter",
        &Experiment::quick(Workload::Mt, SystemVariant::NetCrafter),
    );
}

#[test]
fn fat_tree_8() {
    // Multi-hop traffic through six switches.
    for variant in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
        let exp = scale_out(SystemConfig::fat_tree_8(), variant);
        check_column(&format!("fat-tree-8/{variant:?}"), &exp);
    }
}

#[test]
fn torus_8_and_dateline_ring() {
    // The 3-ring makes the dateline virtual channels (only present on
    // rings of length >= 3) forward real traffic.
    let mut torus3 = SystemConfig::paper_baseline();
    torus3.topology = TopologyConfig::parse_spec("torus:3x1x1:g=2").expect("valid spec");
    for (name, cfg) in [
        ("torus-8", SystemConfig::torus_8()),
        ("torus-3x1x1", torus3),
    ] {
        for variant in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
            check_column(&format!("{name}/{variant:?}"), &scale_out(cfg, variant));
        }
    }
}

/// GUPS on the 2×2 mesh with two L2-TLB MSHRs per GPU, so translation
/// requests park behind full MSHRs.
fn mshr_starved() -> Experiment {
    let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
    exp.base_cfg.l2_tlb.mshr_entries = 2;
    exp
}

/// Builds the system `exp` simulates, without running it.
fn build(exp: &Experiment) -> System {
    let cfg = exp.variant.apply(exp.base_cfg);
    let kernel = exp
        .workload
        .generate(&exp.scale, cfg.total_gpus(), exp.seed);
    System::build(cfg, &kernel)
}

/// Requests parked behind full L2-TLB MSHRs, summed over the GPUs.
fn parked_requests(sys: &System) -> usize {
    sys.ids
        .gmmus
        .iter()
        .map(|&id| {
            let tu: &TranslationUnit = sys.engine.get(id).expect("gmmu installed");
            tu.parked_requests()
        })
        .sum()
}

/// A cycle of the `mshr_starved` run, a few cycles into a stretch in
/// which some GPU has parked requests and their replay misses are only
/// partly settled.
fn cycle_with_parked_requests() -> u64 {
    let mut sys = build(&mshr_starved());
    while parked_requests(&sys) == 0 {
        assert!(
            !sys.engine.quiescent(),
            "two MSHRs must overflow on quick GUPS"
        );
        sys.engine.step();
    }
    let pause = sys.engine.cycle() + 5;
    sys.run_until(pause);
    assert!(parked_requests(&sys) > 0, "still parked at cycle {pause}");
    pause
}

#[test]
fn pausing_while_tlb_requests_are_parked() {
    let exp = mshr_starved();
    let pause = cycle_with_parked_requests();
    check_column_pausing("mesh/Gups/NetCrafter/2-mshr", &exp, |_| pause);

    check_states_pausing(&exp, pause, |sys| parked_requests(sys) > 0);
}

/// The pause of `check_column_pausing` at the state level: a replica
/// restored at `pause` — where `mid_park` must hold — encodes to the
/// bytes it was restored from and ends in the state its scheduler reaches
/// uninterrupted (Legacy leaves later last-tick anchors in the CUs than
/// the event-driven scheduler, so each is its own reference).
fn check_states_pausing(exp: &Experiment, pause: u64, mid_park: impl Fn(&System) -> bool) {
    let mut reference = build(exp);
    let exec_cycles = reference.run(exp.max_cycles);
    let metrics = reference.harvest().to_kv();
    for sched in SCHEDS {
        let configured = || {
            let mut sys = build(exp);
            sys.engine.set_scheduler(sched);
            sys
        };
        let mut straight = configured();
        assert_eq!(straight.run(exp.max_cycles), exec_cycles, "{sched:?}");
        let mut paused = configured();
        paused.run_until(pause);
        assert!(mid_park(&paused), "{sched:?}: parked at {pause}");
        let snapshot = paused.save_snapshot();
        let mut replica = configured();
        replica.restore(&snapshot).expect("snapshot restores");
        assert_eq!(
            replica.state_hash(),
            paused.state_hash(),
            "{sched:?}: restored state"
        );
        assert_eq!(replica.save_snapshot(), snapshot, "{sched:?}: re-encoding");
        assert_eq!(replica.run(exp.max_cycles), exec_cycles, "{sched:?}");
        assert_eq!(
            replica.state_hash(),
            straight.state_hash(),
            "{sched:?}: final state"
        );
        assert_eq!(replica.harvest().to_kv(), metrics, "{sched:?}: metrics");
    }
}

/// What holds back the parked CU retries a column pauses among.
#[derive(Debug, Clone, Copy)]
enum Regime {
    /// The outstanding cap is reached: a blocked attempt returns before
    /// it touches anything.
    Capped,
    /// Below the cap, the L1 stalls a read behind an in-flight fill of
    /// its line that does not cover it: every blocked attempt burns an
    /// access id and counts an MSHR stall.
    L1Stalled,
    /// An L1-stalled read of a resident line, missing a sector: every
    /// blocked attempt also re-stamps the line, and the stamp decides a
    /// later eviction.
    ResidentStall,
}

impl Regime {
    fn holds(self, park: RetryPark) -> bool {
        park.waves > 0
            && match self {
                Regime::Capped => park.capped,
                Regime::L1Stalled => !park.capped,
                Regime::ResidentStall => park.resident_stalls > 0,
            }
    }
}

/// Quick-scale runs at Table 2's CU limits and L1 whose CUs park
/// retries in `regime`. The cap of 32 accesses needs more waves per CU
/// than the quick scale gives: GUPS on one CU per GPU with eight waves
/// per CTA. Below the cap, 32 MSHRs never fill, so an L1 stall is a read
/// behind a partial fill of its line: trimmed single-sector fills across
/// clusters (maximal independent set, MIS), and sectored fills everywhere
/// (page rank, PR), which leave lines resident with sectors missing.
fn retry_park_column(regime: Regime) -> Experiment {
    match regime {
        Regime::Capped => Experiment::quick(Workload::Gups, SystemVariant::Baseline)
            .with_base_cfg(SystemConfig::small(1))
            .with_scale(Scale {
                ctas: 4,
                waves_per_cta: 8,
                mem_ops_per_wave: 8,
                ..Scale::tiny()
            }),
        Regime::L1Stalled => Experiment::quick(Workload::Mis, SystemVariant::NetCrafter),
        Regime::ResidentStall => Experiment::quick(Workload::Pr, SystemVariant::SectorCache),
    }
}

/// The retry parks of every CU.
fn retry_parks(sys: &System) -> impl Iterator<Item = RetryPark> + '_ {
    sys.ids.cus.iter().flatten().map(|&id| {
        let cu: &Cu = sys.engine.get(id).expect("cu installed");
        cu.retry_park()
    })
}

/// A cycle of `exp`'s run at which some CU has slept on blocked retries
/// in `regime` for four cycles: its retries are held back as `regime`
/// says, and its saved state — which holds its last-tick anchor — did
/// not move, so the event-driven engine did not tick it.
fn cycle_inside_a_retry_park(exp: &Experiment, regime: Regime) -> u64 {
    let mut sys = build(exp);
    let cus: Vec<_> = sys.ids.cus.iter().flatten().copied().collect();
    let mut seen: Vec<(Vec<u8>, u32)> = vec![(Vec::new(), 0); cus.len()];
    loop {
        assert!(!sys.engine.quiescent(), "{regime:?}: no CU parked so");
        sys.engine.step();
        for (&id, (bytes, unchanged)) in cus.iter().zip(&mut seen) {
            let cu: &Cu = sys.engine.get(id).expect("cu installed");
            let mut w = SnapshotWriter::new();
            cu.save_state(&mut w);
            let now = w.into_bytes();
            let park = cu.retry_park();
            *unchanged = if park.waves > 0 && now == *bytes {
                *unchanged + 1
            } else {
                0
            };
            *bytes = now;
            if *unchanged >= 4 && regime.holds(park) {
                return sys.engine.cycle();
            }
        }
    }
}

#[test]
fn pausing_while_cu_retries_are_parked() {
    for regime in [Regime::Capped, Regime::L1Stalled, Regime::ResidentStall] {
        let exp = retry_park_column(regime);
        let pause = cycle_inside_a_retry_park(&exp, regime);
        let column = format!("mesh/{:?}/{:?}/{regime:?}", exp.workload, exp.variant);
        check_column_pausing(&column, &exp, |_| pause);
        check_states_pausing(&exp, pause, |sys| {
            retry_parks(sys).any(|park| regime.holds(park))
        });
    }
}

/// `Scale::small()` GUPS with one CU per GPU: 64 waves per CU for its
/// 40 slots, so waves wait for a retired wave to hand its slot on.
fn more_waves_than_slots() -> Experiment {
    Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
        .with_base_cfg(SystemConfig::small(1))
        .with_scale(Scale::small())
}

/// Some CU has retired more waves than it has slots, so at least one of
/// its slots was handed to a waiting wave.
fn a_slot_was_refilled(sys: &System) -> bool {
    let slots = u64::from(CU.max_waves);
    let metrics = sys.harvest();
    (0..sys.ids.cus.len()).any(|g| metrics.counter(&format!("gpu{g}.cu.waves_done")) > slots)
}

#[test]
fn waves_beyond_the_slots_run_when_a_slot_frees() {
    let exp = more_waves_than_slots();
    let mut sys = build(&exp);
    while !a_slot_was_refilled(&sys) {
        assert!(!sys.engine.quiescent(), "a CU must run out of slots");
        sys.run_until(sys.engine.cycle() + 500);
    }
    let pause = sys.engine.cycle();
    sys.run(exp.max_cycles);
    let done = sys.harvest().counter("total.cu.waves_done");
    assert_eq!(done, 256, "every wave retires");
    // Every scheduler runs to the same cycle count and metrics, and a
    // snapshot taken after a slot was refilled restores byte for byte.
    check_states_pausing(&exp, pause, a_slot_was_refilled);
}

#[test]
fn set_threads_changes_no_byte_of_the_result() {
    let exp = Experiment::quick(Workload::Mt, SystemVariant::NetCrafter);
    let mut plain = build(&exp);
    let exec_cycles = plain.run(exp.max_cycles);
    for threads in [0, 2, 64] {
        let mut sys = build(&exp);
        sys.set_threads(threads);
        assert_eq!(sys.run(exp.max_cycles), exec_cycles, "{threads} threads");
        assert_eq!(
            sys.save_snapshot(),
            plain.save_snapshot(),
            "{threads} threads"
        );
        assert_eq!(
            sys.harvest().to_kv(),
            plain.harvest().to_kv(),
            "{threads} threads"
        );
    }
}

// ---- the snapshot layer under the table ----

/// Builds the system a quick GUPS/NetCrafter run simulates, without
/// running it.
fn build_system() -> System {
    build(&Experiment::quick(
        Workload::Gups,
        SystemVariant::NetCrafter,
    ))
}

#[test]
fn state_hash_is_a_fixed_point_across_save_and_load() {
    let mut sys = build_system();
    sys.run_until(2_000);
    let hash = sys.state_hash();
    let snapshot = sys.save_snapshot();

    // Loading into a freshly built system reproduces the hash, and
    // re-saving reproduces the snapshot bytes exactly (the encoding is
    // canonical, so save ∘ load is the identity).
    let mut copy = build_system();
    assert_ne!(copy.state_hash(), hash, "cycle-0 state must differ");
    copy.restore(&snapshot).expect("snapshot restores");
    assert_eq!(copy.state_hash(), hash, "state hash survives a round trip");
    assert_eq!(copy.save_snapshot(), snapshot, "re-encoding is identical");

    // Both replicas must also agree after simulating further.
    assert_eq!(sys.run(1_000_000), copy.run(1_000_000));
    assert_eq!(sys.state_hash(), copy.state_hash());
}

#[test]
fn corrupted_and_foreign_snapshots_fail_loudly() {
    let mut sys = build_system();
    sys.run_until(1_000);
    let good = sys.save_snapshot();

    // Truncation anywhere must be detected, never silently zero-filled.
    let mut sys = build_system();
    let err = sys
        .restore(&good[..good.len() - 3])
        .expect_err("truncated snapshot must not restore");
    assert!(
        matches!(err, SnapshotError::Truncated { .. }),
        "unexpected error for truncation: {err}"
    );

    // A foreign file fails on the magic number before any state loads.
    let mut sys = build_system();
    let err = sys
        .restore(b"definitely not a snapshot")
        .expect_err("foreign bytes must not restore");
    assert!(
        matches!(err, SnapshotError::BadMagic(_)),
        "unexpected error for foreign bytes: {err}"
    );

    // An old-format snapshot fails with the version pair, not by
    // misinterpreting the body: the version is the u32 after the magic.
    let mut old = good.clone();
    old[4..8].copy_from_slice(&0u32.to_le_bytes());
    let mut sys = build_system();
    let err = sys
        .restore(&old)
        .expect_err("version-0 snapshot must not restore");
    match err {
        SnapshotError::VersionMismatch { found, expected } => {
            assert_eq!(found, 0);
            assert!(expected >= 1);
        }
        other => panic!("unexpected error for old version: {other}"),
    }

    // Trailing garbage after a complete state is rejected too.
    let mut padded = good;
    padded.push(0);
    let mut sys = build_system();
    let err = sys
        .restore(&padded)
        .expect_err("trailing bytes must not restore");
    assert!(
        matches!(err, SnapshotError::Corrupt(_)),
        "unexpected error for trailing bytes: {err}"
    );
}
