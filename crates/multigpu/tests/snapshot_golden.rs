//! Golden snapshot bytes: `(SNAPSHOT_VERSION, byte length, fnv1a64)` of
//! mid-run snapshots of three quick-scale systems, pinned.
//!
//! The snapshot encoding is positional and canonical, so any change to
//! what a type saves — a field added, dropped, reordered or widened —
//! moves these numbers. A mismatch means old checkpoints no longer
//! decode: bump `SNAPSHOT_VERSION` in `crates/sim/src/snapshot.rs` and
//! re-pin (the failure message prints the new tuple). A refactor of the
//! save/load code that is meant to be byte-neutral must pass unmodified.
//! The header carries the run id, a hash of the configuration's `Debug`
//! string, so a field added to or removed from `SystemConfig` moves the
//! hash but not the length: when `System::state_hash` (the body alone,
//! printed with the failure) is unchanged, re-pin without a version bump.

use netcrafter_multigpu::{Experiment, System, SystemVariant};
use netcrafter_proto::{fnv1a64, SystemConfig};
use netcrafter_sim::snapshot::SNAPSHOT_VERSION;
use netcrafter_sim::TraceConfig;
use netcrafter_vm::TranslationUnit;
use netcrafter_workloads::{Scale, Workload};

/// `(version, length, fnv1a64)`.
type Pin = (u32, usize, u64);

fn build(exp: &Experiment) -> System {
    let cfg = exp.variant.apply(exp.base_cfg);
    let kernel = exp
        .workload
        .generate(&exp.scale, cfg.total_gpus(), exp.seed);
    System::build(cfg, &kernel)
}

/// Quick-scale GUPS under full NetCrafter on a scale-out fabric (the
/// `scheduler_equivalence` recipe: 2 CUs per GPU, launch widened with
/// the GPU count).
fn scale_out(mut cfg: SystemConfig) -> Experiment {
    cfg.cus_per_gpu = 2;
    let scale = Scale::tiny().for_gpus(cfg.total_gpus());
    Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
        .with_base_cfg(cfg)
        .with_scale(scale)
}

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

#[track_caller]
fn assert_pinned(name: &str, sys: &mut System, pin: Pin) {
    let bytes = sys.save_snapshot();
    let hash = fnv1a64(&bytes);
    assert!(
        (SNAPSHOT_VERSION, bytes.len(), hash) == pin,
        "{name}: snapshot bytes changed: bump SNAPSHOT_VERSION unless only the \
         run id moved (body state_hash now {:#018x}), and re-pin \
         (now ({SNAPSHOT_VERSION}, {}, {hash:#018x}), pinned {pin:?})",
        sys.state_hash(),
        bytes.len()
    );
}

/// GUPS/NetCrafter on the 2×2 mesh with two L2-TLB MSHRs per GPU, paused
/// five cycles into a stretch in which translation requests are parked
/// behind full MSHRs — the GMMU's retry queue and settle anchor are
/// non-trivial in these bytes. The run is traced and link-sampled, which
/// adds nothing to them: observers are not simulated state.
#[test]
fn mesh_gups_netcrafter_paused_while_tlb_requests_are_parked() {
    let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
    exp.base_cfg.l2_tlb.mshr_entries = 2;
    let mut sys = build(&exp);
    sys.enable_tracing(TraceConfig::default());
    sys.enable_link_sampling(256);
    // Far enough in that flits, fills and walks are in flight everywhere.
    sys.run_until(1_000);
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
    assert_pinned("mesh/Gups/NetCrafter/2-mshr", &mut sys, MESH);
}

#[test]
fn fat_tree_8_mid_run() {
    let mut sys = build(&scale_out(SystemConfig::fat_tree_8()));
    sys.run_until(1_500);
    assert!(!sys.engine.quiescent(), "paused mid-run");
    assert_pinned("fat-tree-8/Gups/NetCrafter", &mut sys, FAT_TREE_8);
}

#[test]
fn torus_8_mid_run() {
    let mut sys = build(&scale_out(SystemConfig::torus_8()));
    sys.run_until(1_500);
    assert!(!sys.engine.quiescent(), "paused mid-run");
    assert_pinned("torus-8/Gups/NetCrafter", &mut sys, TORUS_8);
}

const MESH: Pin = (11, 167_254, 0x161f_0e68_1415_8eca);
const FAT_TREE_8: Pin = (11, 349_763, 0x508c_e4ba_be89_d947);
const TORUS_8: Pin = (11, 353_923, 0xdd62_af83_ce8c_46d2);
