//! End-to-end checks of the observability layer on real simulations: the
//! structured event trace must agree with the scalar [`Metrics`] counters
//! the figures are built from, must not perturb the simulation — its
//! results, its schedule or its snapshots — and must export valid,
//! deterministic Chrome-trace JSON.
//!
//! [`Metrics`]: netcrafter_proto::Metrics

use netcrafter_multigpu::{
    CheckpointPlan, CheckpointedRun, Experiment, RunResult, SystemVariant, TraceData, TraceOptions,
};
use netcrafter_sim::snapshot::ForkSnapshot;
use netcrafter_sim::trace::json;
use netcrafter_sim::{Phase, TraceConfig};
use netcrafter_workloads::Workload;

/// A quick GUPS run with full tracing and 256-cycle link sampling.
fn traced_quick(variant: SystemVariant) -> (RunResult, TraceData) {
    let opts = TraceOptions {
        config: Some(TraceConfig::default()),
        sample_window: Some(256),
    };
    Experiment::quick(Workload::Gups, variant).run_traced(&opts)
}

#[test]
fn traced_event_counts_agree_with_metrics() {
    let (result, data) = traced_quick(SystemVariant::NetCrafter);
    let m = &result.metrics;
    let t = &data.trace;
    assert!(!t.events.is_empty(), "a full trace records events");

    // Every traced decision has a counter it must match: an entry point
    // that loses its tracer (or its counter) fails its row.
    for (event, counter) in [
        ("flit.rx", "net.arrived"),
        ("stitch.eject", "net.inter.cq.stitched_parents"),
        ("stitch.unpack", "net.unstitched_flits"),
        ("pool.park", "net.inter.cq.pool_events"),
        ("pool.expired", "net.inter.cq.pool_expired_unstitched"),
        ("seq.priority_pop", "net.inter.cq.ptw_priority_pops"),
        // The run drains, so every trim request has had its response.
        ("trim.request", "total.trim.trimmed"),
        ("trim.response", "total.trim.trimmed"),
    ] {
        assert!(m.counter(counter) > 0, "{counter}: the run exercises it");
        assert_eq!(t.count(event) as u64, m.counter(counter), "{event}");
    }
    // Every page-table walk opens one `ptw.walk` span.
    assert_eq!(
        t.count_phase("ptw.walk", Phase::Begin) as u64,
        m.counter("total.gmmu.walks")
    );
    assert!(t.count("ptw.walk") > 0, "cold TLBs must walk");
    // Walk spans close: the run drains, so begins pair with ends.
    assert_eq!(
        t.count_phase("ptw.walk", Phase::Begin),
        t.count_phase("ptw.walk", Phase::End)
    );
    // L1 miss lifetimes likewise all complete.
    assert_eq!(
        t.count_phase("l1.miss", Phase::Begin),
        t.count_phase("l1.miss", Phase::End)
    );
}

#[test]
fn link_series_sums_match_flit_counters() {
    let (result, data) = traced_quick(SystemVariant::Baseline);
    assert!(!data.links.is_empty(), "sampling covers every egress port");
    let inter_flits: u64 = data
        .links
        .iter()
        .filter(|l| l.is_inter)
        .map(|l| l.series.flits.total())
        .sum();
    assert_eq!(
        inter_flits,
        result.metrics.counter("net.inter.flits"),
        "windowed per-link flit series must sum to the scalar counter"
    );
    let jsonl = data.links_to_jsonl();
    for line in jsonl.lines() {
        json::parse(line).expect("every time-series line is valid JSON");
    }
}

/// Observation is not state: under every observer a run pauses into the
/// same snapshot bytes after the same engine ticks and ends with the same
/// metrics, and a snapshot resumes under any observer, which then records
/// only the cycles it simulates.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
    let run = |plan, opts: Option<&TraceOptions>| exp.run_planned(plan, opts).expect("runs");
    let outcome = |r: &CheckpointedRun| (r.result.exec_cycles, r.ticks, r.result.metrics.to_kv());
    let flits = Some(TraceConfig::parse("class=flit").expect("valid filter"));
    let observers = [
        None,
        Some(TraceOptions::trace_all()),
        Some(TraceOptions::sample(256)),
        Some(TraceOptions {
            config: flits,
            ..TraceOptions::sample(512)
        }),
    ];
    let pause = CheckpointPlan {
        pause_at: Some(1_500),
        ..CheckpointPlan::default()
    };
    let plain = run(pause, None);
    let snapshot = plain.snapshot.as_ref().map(ForkSnapshot::bytes);
    let resume = CheckpointPlan {
        resume_from: snapshot,
        ..CheckpointPlan::default()
    };
    let plain_resumed = outcome(&run(resume, None));
    assert!(plain_resumed.2 == outcome(&plain).2, "resumed metrics");

    for opts in &observers {
        let paused = run(pause, opts.as_ref());
        let taken = paused.snapshot.as_ref().map(ForkSnapshot::bytes);
        assert!(taken.is_some() && taken == snapshot, "{opts:?}: snapshot");
        assert!(outcome(&paused) == outcome(&plain), "{opts:?}: run");
        let resumed = run(resume, opts.as_ref());
        assert!(outcome(&resumed) == plain_resumed, "{opts:?}: resumed run");
        let events = resumed.recorded.iter().flat_map(|d| &d.trace.events);
        let first = events.map(|e| e.cycle).min();
        let traced = opts.as_ref().is_some_and(|o| o.config.is_some());
        assert_eq!(first.is_some(), traced, "{opts:?}: records");
        assert!(first.is_none_or(|c| c > 1_500), "{opts:?}: {first:?}");
    }
}

#[test]
fn chrome_json_from_a_real_run_round_trips() {
    let (_, data) = traced_quick(SystemVariant::NetCrafter);
    let text = data.trace.to_chrome_json();
    let doc = json::parse(&text).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    // One thread_name metadata record per track, then the real events.
    let meta = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
        .count();
    assert_eq!(meta, data.trace.tracks.len());
    assert_eq!(events.len(), meta + data.trace.events.len());
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph");
        assert!(matches!(ph, "M" | "i" | "b" | "e" | "C"), "phase {ph:?}");
        if ph != "M" {
            assert!(e.get("ts").and_then(json::Value::as_f64).is_some());
            assert!(e.get("cat").and_then(|v| v.as_str()).is_some());
        }
    }
}

#[test]
fn traces_of_identical_runs_are_identical() {
    let (_, a) = traced_quick(SystemVariant::NetCrafter);
    let (_, b) = traced_quick(SystemVariant::NetCrafter);
    assert_eq!(a.trace.to_chrome_json(), b.trace.to_chrome_json());
    assert_eq!(a.links_to_jsonl(), b.links_to_jsonl());
}

#[test]
fn filter_restricts_what_is_recorded() {
    let opts = TraceOptions {
        config: Some(TraceConfig::parse("class=ptw").expect("valid filter")),
        sample_window: None,
    };
    let (_, data) = Experiment::quick(Workload::Gups, SystemVariant::Baseline).run_traced(&opts);
    assert!(data.trace.count("ptw.walk") > 0, "ptw class is kept");
    assert_eq!(data.trace.count("flit.rx"), 0, "flit class is filtered");
    assert!(data.links.is_empty(), "sampling stays off");

    let opts = TraceOptions {
        config: Some(TraceConfig::parse("comp=no-such-component").expect("valid filter")),
        sample_window: None,
    };
    let (_, data) = Experiment::quick(Workload::Gups, SystemVariant::Baseline).run_traced(&opts);
    assert!(
        data.trace.events.is_empty(),
        "component filter excludes all"
    );
}
