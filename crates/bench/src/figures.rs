//! One job list and one renderer per paper table/figure.
//!
//! Every id pairs a `jobs` function, which lists the simulations the
//! table reads as [`Experiment`]s, with a `render` function, which turns
//! their results (in list order) into a [`Table`] whose rows correspond
//! to the series the paper plots. [`generate`] resolves the list through
//! [`Runner::sweep`] and renders it; [`sweep_jobs`] hands the same list to
//! callers that resolve several tables in one sweep. A table's
//! simulations are therefore declared once, and every one of them goes
//! through the runner's memo, disk cache, prefix forks and workers.
//! Nothing here builds a `System`. EXPERIMENTS.md records a full
//! paper-scale output next to the published values.

use std::sync::Arc;

use netcrafter_multigpu::{Experiment, RunResult, SystemVariant};
use netcrafter_net::Topology;
use netcrafter_proto::{
    AccessId, GpuId, LineAddr, LineMask, MemReq, NodeId, Origin, Packet, PacketId, PacketKind,
    PacketPayload, SystemConfig, TrafficClass, ALL_PACKET_KINDS,
};
use netcrafter_workloads::Workload;

use crate::{f2, geomean, mean, pct, Runner, Table};

/// Returns every figure/table id known to [`generate`].
pub fn all_ids() -> Vec<&'static str> {
    vec![
        "table1", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig12",
        "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22",
        "ablation", "scaling", "topology",
    ]
}

/// The simulations one table reads.
type Jobs = fn(&Runner) -> Vec<Experiment>;

/// Renders a table from the results of its [`Jobs`], in list order.
type Render = fn(&Runner, &[Arc<RunResult>]) -> Table;

/// The job list and renderer of figure `id`.
///
/// # Panics
///
/// Panics on an unknown id (the CLI validates first).
fn figure(id: &str) -> (Jobs, Render) {
    match id {
        "table1" => (|_| Vec::new(), |_, _| table1()),
        "table3" => (|_| Vec::new(), |_, _| table3()),
        "fig3" => (|r| for_all(r, &BASE_IDEAL), fig3),
        "fig4" => (|r| for_all(r, &BASE_IDEAL), fig4),
        "fig5" => (|r| for_all(r, &BASE_IDEAL), fig5),
        "fig6" => (|r| for_all(r, &[SystemVariant::Baseline]), fig6),
        "fig7" => (|r| for_all(r, &[SystemVariant::Baseline]), fig7),
        "fig8" => (|r| for_all(r, &FIG8), fig8),
        "fig9" => (|r| for_all(r, &[SystemVariant::Baseline]), fig9),
        "fig12" => (|r| for_all(r, &FIG12), fig12),
        "fig14" => (|r| for_all(r, &FIG14), fig14),
        "fig15" => (|r| for_all(r, &BASE_NC), fig15),
        "fig16" => (|r| for_all(r, &FIG16), fig16),
        "fig17" => (fig17_jobs, fig17),
        "fig18" => (|r| for_all(r, &pool_sweep(false)), fig18),
        "fig19" => (|r| for_all(r, &pool_sweep(true)), fig19),
        "fig20" => (|r| for_all(r, &pool_sweep(true)), fig20),
        "fig21" => (fig21_jobs, fig21),
        "fig22" => (fig22_jobs, fig22),
        "ablation" => (ablation_jobs, ablation),
        "scaling" => (scaling_jobs, scaling),
        "topology" => (topology_jobs, topology),
        other => panic!("unknown figure id {other:?}"),
    }
}

/// Resolves figure `id`'s simulations through [`Runner::sweep`] and
/// renders its table.
///
/// # Panics
///
/// Panics on an unknown id (the CLI validates first).
pub fn generate(id: &str, r: &Runner) -> Table {
    let (jobs, render) = figure(id);
    render(r, &r.sweep(&jobs(r)))
}

/// Every simulation figure `id` reads, in the order its renderer reads
/// them. The `figures` binary resolves the lists of all requested ids in
/// one parallel sweep before generating, so [`generate`] then replays a
/// warm memo.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn sweep_jobs(id: &str, r: &Runner) -> Vec<Experiment> {
    let (jobs, _) = figure(id);
    jobs(r)
}

const BASE_IDEAL: [SystemVariant; 2] = [SystemVariant::Baseline, SystemVariant::Ideal];
const BASE_NC: [SystemVariant; 2] = [SystemVariant::Baseline, SystemVariant::NetCrafter];
const SELPOOL32: SystemVariant = SystemVariant::StitchPool {
    window: 32,
    selective: true,
};
const FIG8: [SystemVariant; 3] = [
    SystemVariant::Baseline,
    SystemVariant::SeqOnly,
    SystemVariant::DataPrio,
];
const FIG12: [SystemVariant; 2] = [
    SystemVariant::StitchOnly,
    SystemVariant::StitchPool {
        window: 32,
        selective: false,
    },
];
/// The baseline, then the four bars of Figure 14.
const FIG14: [SystemVariant; 5] = [
    SystemVariant::Baseline,
    SELPOOL32,
    SystemVariant::StitchTrim,
    SystemVariant::NetCrafter,
    SystemVariant::SectorCache,
];
const FIG16: [SystemVariant; 3] = [
    SystemVariant::Baseline,
    SystemVariant::TrimOnly,
    SystemVariant::SectorCache,
];

/// The baseline, Stitching alone, then Stitching with (optionally
/// selective) Flit Pooling at 32–128-cycle windows (Figures 18–20).
fn pool_sweep(selective: bool) -> [SystemVariant; 6] {
    let pool = |window| SystemVariant::StitchPool { window, selective };
    [
        SystemVariant::Baseline,
        SystemVariant::StitchOnly,
        pool(32),
        pool(64),
        pool(96),
        pool(128),
    ]
}

/// `variants` on the base configuration for every Table 3 workload,
/// workload-major.
fn for_all(r: &Runner, variants: &[SystemVariant]) -> Vec<Experiment> {
    Workload::ALL
        .into_iter()
        .flat_map(|w| variants.iter().map(move |&v| r.job(w, v)))
        .collect()
}

/// A workload-major result list cut into one slice per Table 3 workload.
fn by_workload(res: &[Arc<RunResult>]) -> impl Iterator<Item = (Workload, &[Arc<RunResult>])> {
    let per_workload = res.len() / Workload::ALL.len();
    Workload::ALL
        .into_iter()
        .zip(res.chunks_exact(per_workload))
}

/// Speedup of `res` over `base`.
fn speedup(base: &RunResult, res: &RunResult) -> f64 {
    base.exec_cycles as f64 / res.exec_cycles as f64
}

/// Table 1: the six packet categories and their 16 B-flit geometry.
/// Computed from the packet model, not hard-coded, so it stays in lock
/// step with the protocol implementation.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: 16 B flit occupancy by request type",
        vec![
            "Request Type",
            "Bytes Occupied",
            "Bytes Required",
            "Bytes Padded",
            "Flits Occupied",
        ],
    );
    for kind in ALL_PACKET_KINDS {
        let payload = match kind {
            PacketKind::WriteReq | PacketKind::ReadRsp => 64,
            _ => 0,
        };
        let p = Packet {
            id: PacketId(0),
            kind,
            src: NodeId(0),
            dst: NodeId(1),
            payload_bytes: payload,
            trim: None,
            inner: PacketPayload::Req(MemReq {
                access: AccessId(0),
                line: LineAddr(0),
                write: kind == PacketKind::WriteReq,
                mask: LineMask::FULL,
                sectors: 0b1111,
                class: if kind.is_ptw() {
                    TrafficClass::Ptw
                } else {
                    TrafficClass::Data
                },
                requester: GpuId(0),
                owner: GpuId(1),
                origin: Origin::Cu(0),
            }),
        };
        t.row(vec![
            kind.label().to_owned(),
            (p.flit_count(16) * 16).to_string(),
            p.wire_bytes().to_string(),
            p.padded_bytes(16).to_string(),
            p.flit_count(16).to_string(),
        ]);
    }
    t
}

/// Table 3: the evaluated workloads.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3: evaluated applications",
        vec!["Abbr.", "Application", "Access Pattern", "Benchmark Suite"],
    );
    for w in Workload::ALL {
        t.row(vec![
            w.abbrev().to_owned(),
            w.description().to_owned(),
            w.pattern().to_owned(),
            w.suite().to_owned(),
        ]);
    }
    t
}

/// Figure 3: speedup of the *ideal* uniform-high-bandwidth node over the
/// non-uniform baseline.
fn fig3(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 3: ideal (uniform 128 GB/s) speedup over non-uniform baseline",
        vec!["Workload", "Baseline cycles", "Ideal cycles", "Speedup"],
    );
    let mut speedups = Vec::new();
    for (w, rs) in by_workload(res) {
        let (base, ideal) = (&rs[0], &rs[1]);
        let s = speedup(base, ideal);
        speedups.push(s);
        t.row(vec![
            w.abbrev().into(),
            base.exec_cycles.to_string(),
            ideal.exec_cycles.to_string(),
            f2(s),
        ]);
    }
    t.row(vec![
        "GEOMEAN".into(),
        "-".into(),
        "-".into(),
        f2(geomean(&speedups)),
    ]);
    t.row(vec![
        "AVG".into(),
        "-".into(),
        "-".into(),
        f2(mean(&speedups)),
    ]);
    t
}

/// Figure 4: inter-cluster link utilization, baseline vs ideal.
fn fig4(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 4: inter-cluster network utilization",
        vec!["Workload", "Non-uniform", "Ideal"],
    );
    let (mut b_all, mut i_all) = (Vec::new(), Vec::new());
    for (w, rs) in by_workload(res) {
        let (base, ideal) = (&rs[0], &rs[1]);
        b_all.push(base.inter_utilization());
        i_all.push(ideal.inter_utilization());
        t.row(vec![
            w.abbrev().into(),
            pct(base.inter_utilization()),
            pct(ideal.inter_utilization()),
        ]);
    }
    t.row(vec!["AVG".into(), pct(mean(&b_all)), pct(mean(&i_all))]);
    t
}

/// Mean inter-cluster read latency of `other` against `base`, one row per
/// workload plus the average normalized latency (Figures 5 and 15).
fn latency_table(title: &str, header: Vec<&str>, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(title, header);
    let mut ratios = Vec::new();
    for (w, rs) in by_workload(res) {
        let (b, o) = (rs[0].inter_read_latency(), rs[1].inter_read_latency());
        let norm = if b > 0.0 { o / b } else { 1.0 };
        if b > 0.0 {
            ratios.push(norm);
        }
        t.row(vec![
            w.abbrev().into(),
            format!("{b:.0}"),
            format!("{o:.0}"),
            f2(norm),
        ]);
    }
    t.row(vec![
        "AVG".into(),
        "-".into(),
        "-".into(),
        f2(mean(&ratios)),
    ]);
    t
}

/// Figure 5: average inter-cluster memory access latency of the ideal
/// configuration, normalized to the non-uniform baseline (= 1.0).
fn fig5(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    latency_table(
        "Figure 5: avg inter-cluster read latency (normalized to non-uniform)",
        vec![
            "Workload",
            "Non-uniform (cycles)",
            "Ideal (cycles)",
            "Ideal normalized",
        ],
        res,
    )
}

/// Figure 6: fraction of inter-cluster flits with 25% / 75% padding in
/// the baseline.
fn fig6(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 6: flit occupancy distribution on the inter-cluster link (baseline)",
        vec!["Workload", "25% padded", "75% padded", "25%+75% total"],
    );
    let mut totals = Vec::new();
    for (w, rs) in by_workload(res) {
        let p25 = rs[0].padding_fraction(25);
        let p75 = rs[0].padding_fraction(75);
        totals.push(p25 + p75);
        t.row(vec![w.abbrev().into(), pct(p25), pct(p75), pct(p25 + p75)]);
    }
    t.row(vec![
        "AVG".into(),
        "-".into(),
        "-".into(),
        pct(mean(&totals)),
    ]);
    t
}

/// Figure 7: inter-cluster read requests by bytes required.
fn fig7(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 7: inter-cluster reads by cache-line bytes required",
        vec!["Workload", "<=16B", "<=32B", "<=48B", "64B"],
    );
    for (w, rs) in by_workload(res) {
        let f = rs[0].fig7_fractions();
        t.row(vec![
            w.abbrev().into(),
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3]),
        ]);
    }
    t
}

/// Figure 8: prioritizing read-PTW accesses helps; prioritizing the same
/// class of data accesses hurts.
fn fig8(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 8: speedup of prioritizing PTW vs data accesses (vs baseline)",
        vec!["Workload", "Prioritize PTW", "Prioritize data"],
    );
    let (mut ptw_all, mut data_all) = (Vec::new(), Vec::new());
    for (w, rs) in by_workload(res) {
        let (ptw, data) = (speedup(&rs[0], &rs[1]), speedup(&rs[0], &rs[2]));
        ptw_all.push(ptw);
        data_all.push(data);
        t.row(vec![w.abbrev().into(), f2(ptw), f2(data)]);
    }
    t.row(vec![
        "GEOMEAN".into(),
        f2(geomean(&ptw_all)),
        f2(geomean(&data_all)),
    ]);
    t
}

/// Figure 9: PTW vs data share of inter-cluster traffic (baseline).
fn fig9(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 9: PTW-related share of inter-cluster bytes (baseline)",
        vec!["Workload", "PTW", "Data"],
    );
    let mut shares = Vec::new();
    for (w, rs) in by_workload(res) {
        let s = rs[0].ptw_byte_share();
        shares.push(s);
        t.row(vec![w.abbrev().into(), pct(s), pct(1.0 - s)]);
    }
    t.row(vec![
        "AVG".into(),
        pct(mean(&shares)),
        pct(1.0 - mean(&shares)),
    ]);
    t
}

/// Figure 12: percentage of flits stitched, before and after Flit
/// Pooling.
fn fig12(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 12: flits stitched, Stitching alone vs with 32-cycle Flit Pooling",
        vec!["Workload", "Stitching", "Stitching+Pooling"],
    );
    let (mut a_all, mut b_all) = (Vec::new(), Vec::new());
    for (w, rs) in by_workload(res) {
        let (alone, pooled) = (rs[0].stitched_fraction(), rs[1].stitched_fraction());
        a_all.push(alone);
        b_all.push(pooled);
        t.row(vec![w.abbrev().into(), pct(alone), pct(pooled)]);
    }
    t.row(vec!["AVG".into(), pct(mean(&a_all)), pct(mean(&b_all))]);
    t
}

/// Each workload's speedups of its later variants over its first
/// (baseline) run, one column per variant, plus the column geomeans.
fn speedup_columns(t: &mut Table, res: &[Arc<RunResult>]) -> Vec<Vec<f64>> {
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); t.header.len() - 1];
    for (w, rs) in by_workload(res) {
        let mut cells = vec![w.abbrev().to_owned()];
        for (col, run) in cols.iter_mut().zip(&rs[1..]) {
            let s = speedup(&rs[0], run);
            col.push(s);
            cells.push(f2(s));
        }
        t.row(cells);
    }
    let mut gm = vec!["GEOMEAN".to_owned()];
    gm.extend(cols.iter().map(|col| f2(geomean(col))));
    t.row(gm);
    cols
}

/// Figure 14: overall speedup of the cumulative NetCrafter mechanisms and
/// the sector-cache baseline, normalized to the non-uniform baseline.
fn fig14(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 14: overall speedup over the non-uniform baseline",
        vec![
            "Workload",
            "Stitching",
            "+Trimming",
            "+Sequencing (NetCrafter)",
            "SectorCache(16B)",
        ],
    );
    let cols = speedup_columns(&mut t, res);
    let mut mx = vec!["MAX".to_owned()];
    mx.extend(
        cols.iter()
            .map(|col| f2(col.iter().copied().fold(0.0_f64, f64::max))),
    );
    t.row(mx);
    t
}

/// Figure 15: average inter-cluster read latency, baseline vs NetCrafter.
fn fig15(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    latency_table(
        "Figure 15: avg inter-cluster read latency, baseline vs NetCrafter",
        vec![
            "Workload",
            "Baseline (cycles)",
            "NetCrafter (cycles)",
            "NetCrafter normalized",
        ],
        res,
    )
}

/// Figure 16: L1 MPKI under NetCrafter's selective Trimming vs the
/// 16 B sector cache that trims everywhere.
fn fig16(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 16: L1 MPKI — baseline vs Trimming vs 16 B sector cache",
        vec![
            "Workload",
            "Baseline",
            "Trimming (NetCrafter)",
            "SectorCache(16B)",
        ],
    );
    for (w, rs) in by_workload(res) {
        let mut cells = vec![w.abbrev().to_owned()];
        cells.extend(rs.iter().map(|run| f2(run.l1_mpki())));
        t.row(cells);
    }
    t
}

/// The trimming / sector granularities of Figure 17, in bytes.
const FIG17_GRANULARITIES: [u32; 3] = [4, 8, 16];

fn fig17_jobs(r: &Runner) -> Vec<Experiment> {
    let mut jobs = Vec::new();
    for g in FIG17_GRANULARITIES {
        let mut cfg = r.base_cfg;
        cfg.trim_granularity = g;
        for v in [SystemVariant::TrimOnly, SystemVariant::SectorCache] {
            jobs.push(r.job_with(Workload::LargeGemm, v, cfg, &format!("gran{g}")));
        }
    }
    jobs
}

/// Figure 17: large-GEMM L1 MPKI as a function of trimming / sector
/// granularity (4, 8, 16 B), selective Trimming vs all-trimming.
fn fig17(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 17: large GEMM L1 MPKI vs granularity",
        vec![
            "Granularity",
            "Trimming (inter-cluster only)",
            "All-trimming (sector cache)",
        ],
    );
    for (g, rs) in FIG17_GRANULARITIES.iter().zip(res.chunks_exact(2)) {
        t.row(vec![
            format!("{g}B"),
            f2(rs[0].l1_mpki()),
            f2(rs[1].l1_mpki()),
        ]);
    }
    t
}

fn pooling_table(title: &str, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        title,
        vec![
            "Workload",
            "Stitching",
            "Pool32",
            "Pool64",
            "Pool96",
            "Pool128",
        ],
    );
    speedup_columns(&mut t, res);
    t
}

/// Figure 18: Stitching with plain Flit Pooling, 32–128-cycle windows.
fn fig18(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    pooling_table(
        "Figure 18: speedup, Stitching + Flit Pooling (window sweep)",
        res,
    )
}

/// Figure 19: Stitching with *Selective* Flit Pooling, 32–128 cycles.
fn fig19(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    pooling_table(
        "Figure 19: speedup, Stitching + Selective Flit Pooling (window sweep)",
        res,
    )
}

/// Figure 20: reduction in inter-cluster network bytes vs baseline.
fn fig20(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 20: inter-cluster byte reduction vs baseline",
        vec![
            "Workload",
            "Stitching",
            "SelPool32",
            "SelPool64",
            "SelPool96",
            "SelPool128",
        ],
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); t.header.len() - 1];
    for (w, rs) in by_workload(res) {
        let base_bytes = rs[0].inter_link_bytes().max(1);
        let mut cells = vec![w.abbrev().to_owned()];
        for (col, run) in cols.iter_mut().zip(&rs[1..]) {
            let reduction = 1.0 - run.inter_link_bytes() as f64 / base_bytes as f64;
            col.push(reduction);
            cells.push(pct(reduction));
        }
        t.row(cells);
    }
    let mut avg = vec!["AVG".to_owned()];
    avg.extend(cols.iter().map(|col| pct(mean(col))));
    t.row(avg);
    t
}

/// Per workload: baseline and Stitch+SelPool32, each at 16 B and then at
/// 8 B flits.
fn fig21_jobs(r: &Runner) -> Vec<Experiment> {
    let mut cfg8 = r.base_cfg;
    cfg8.flit_bytes = 8;
    let mut jobs = Vec::new();
    for w in Workload::ALL {
        for v in [SystemVariant::Baseline, SELPOOL32] {
            jobs.push(r.job(w, v));
            jobs.push(r.job_with(w, v, cfg8, "flit8"));
        }
    }
    jobs
}

/// Figure 21: Stitching + Selective Pooling speedup at 8 B vs 16 B flits
/// (each normalized to the baseline at its own flit size).
fn fig21(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Figure 21: stitching benefit at 8 B vs 16 B flit size",
        vec!["Workload", "16B flits", "8B flits"],
    );
    let (mut s16_all, mut s8_all) = (Vec::new(), Vec::new());
    for (w, rs) in by_workload(res) {
        let sp16 = speedup(&rs[0], &rs[2]);
        let sp8 = speedup(&rs[1], &rs[3]);
        s16_all.push(sp16);
        s8_all.push(sp8);
        t.row(vec![w.abbrev().into(), f2(sp16), f2(sp8)]);
    }
    t.row(vec![
        "GEOMEAN".into(),
        f2(geomean(&s16_all)),
        f2(geomean(&s8_all)),
    ]);
    t
}

/// The `(intra, inter, label)` bandwidth points of Figure 22 (the labels
/// double as display tags).
const FIG22_CONFIGS: [(f64, f64, &str); 6] = [
    (128.0, 16.0, "128:16 (8:1)"),
    (256.0, 32.0, "256:32 (8:1)"),
    (512.0, 64.0, "512:64 (8:1)"),
    (128.0, 32.0, "128:32 (4:1)"),
    (128.0, 64.0, "128:64 (2:1)"),
    (32.0, 32.0, "32:32 (homog.)"),
];

fn fig22_jobs(r: &Runner) -> Vec<Experiment> {
    let mut jobs = Vec::new();
    for w in Workload::ALL {
        for (intra, inter, label) in FIG22_CONFIGS {
            let mut cfg = r.base_cfg;
            cfg.topology.intra_gbps = intra;
            cfg.topology.inter_gbps = inter;
            for v in BASE_NC {
                jobs.push(r.job_with(w, v, cfg, label));
            }
        }
    }
    jobs
}

/// Figure 22: NetCrafter speedup across bandwidth ratios/values,
/// including a homogeneous configuration.
fn fig22(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut header = vec!["Workload"];
    header.extend(FIG22_CONFIGS.iter().map(|&(_, _, label)| label));
    let mut t = Table::new(
        "Figure 22: NetCrafter speedup across bandwidth configurations",
        header,
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); FIG22_CONFIGS.len()];
    for (w, rs) in by_workload(res) {
        let mut cells = vec![w.abbrev().to_owned()];
        for (col, pair) in cols.iter_mut().zip(rs.chunks_exact(2)) {
            let s = speedup(&pair[0], &pair[1]);
            col.push(s);
            cells.push(f2(s));
        }
        t.row(cells);
    }
    let mut gm = vec!["GEOMEAN".to_owned()];
    gm.extend(cols.iter().map(|col| f2(geomean(col))));
    t.row(gm);
    t
}

/// The stitch-friendly workloads and the per-partition search depths the
/// ablation sweeps.
const ABLATION_WORKLOADS: [Workload; 3] = [Workload::Gups, Workload::Spmv, Workload::Mt];
const ABLATION_DEPTHS: [u32; 4] = [1, 4, 16, 64];

/// Per workload: the baseline, then Stitching alone at every depth.
fn ablation_jobs(r: &Runner) -> Vec<Experiment> {
    let mut jobs = Vec::new();
    for w in ABLATION_WORKLOADS {
        jobs.push(r.job(w, SystemVariant::Baseline));
        for d in ABLATION_DEPTHS {
            let mut cfg = r.base_cfg;
            cfg.netcrafter.stitch_search_depth = d;
            jobs.push(r.job_with(w, SystemVariant::StitchOnly, cfg, &format!("depth{d}")));
        }
    }
    jobs
}

/// Design-space ablation (not in the paper): how wide must the Stitching
/// Engine's candidate search be? Sweeps the per-partition search depth
/// and reports the stitched-away flit fraction and speedup for three
/// stitch-friendly workloads.
fn ablation(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut header = vec!["Workload".to_owned()];
    for d in ABLATION_DEPTHS {
        header.push(format!("stitch%@{d}"));
        header.push(format!("speedup@{d}"));
    }
    let mut t = Table::new(
        "Ablation: stitch candidate search depth (Stitching only)",
        header.iter().map(String::as_str).collect(),
    );
    let per_workload = 1 + ABLATION_DEPTHS.len();
    for (w, rs) in ABLATION_WORKLOADS
        .iter()
        .zip(res.chunks_exact(per_workload))
    {
        let mut cells = vec![w.abbrev().to_owned()];
        for run in &rs[1..] {
            cells.push(pct(run.stitched_fraction()));
            cells.push(f2(speedup(&rs[0], run)));
        }
        t.row(cells);
    }
    t
}

const SCALING_WORKLOADS: [Workload; 4] = [
    Workload::Gups,
    Workload::Spmv,
    Workload::Pr,
    Workload::Vgg16,
];

/// Per workload and cluster count (1–4): baseline, then NetCrafter.
fn scaling_jobs(r: &Runner) -> Vec<Experiment> {
    let mut jobs = Vec::new();
    for w in SCALING_WORKLOADS {
        for clusters in 1u16..=4 {
            let mut cfg = r.base_cfg;
            cfg.topology.clusters = clusters;
            let tag = format!("clusters{clusters}");
            for v in BASE_NC {
                jobs.push(r.job_with(w, v, cfg, &tag));
            }
        }
    }
    jobs
}

/// Extension study (not in the paper): does NetCrafter keep helping as
/// the node grows? Sweeps the cluster count at 2 GPUs per cluster — more
/// clusters mean more inter-cluster traffic crossing more slow links.
fn scaling(_: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Extension: NetCrafter speedup vs cluster count (2 GPUs/cluster)",
        vec![
            "Workload",
            "1 cluster",
            "2 clusters",
            "3 clusters",
            "4 clusters",
        ],
    );
    for (w, rs) in SCALING_WORKLOADS.iter().zip(res.chunks_exact(8)) {
        let mut cells = vec![w.abbrev().to_owned()];
        cells.extend(
            rs.chunks_exact(2)
                .map(|pair| f2(speedup(&pair[0], &pair[1]))),
        );
        t.row(cells);
    }
    t
}

/// Workloads driven across every fabric by the `topology` figure and the
/// `gated_counts` topology matrix: a latency-bound, a sparse, and an
/// iterative-graph pattern, so multi-hop effects show on more than one
/// traffic shape without sweeping the full 15-workload matrix per fabric.
pub const TOPOLOGY_WORKLOADS: [Workload; 3] = [Workload::Gups, Workload::Spmv, Workload::Pr];

/// The fabric points of the `topology` figure: `(display tag, config)`
/// for the mesh baseline plus each scale-out preset. Presets contribute
/// only their topology; every compute parameter (CUs, caches, scale)
/// comes from the runner's base config so `--quick` stays quick. The mesh
/// point is the base config and therefore shares its runs with the other
/// figures' memo entries.
pub fn topology_sweep_points(r: &Runner) -> Vec<(String, SystemConfig)> {
    let mut points = vec![(String::new(), r.base_cfg)];
    for (name, preset) in [
        ("fat-tree-8", SystemConfig::fat_tree_8()),
        ("fat-tree-16", SystemConfig::fat_tree_16()),
        ("torus-8", SystemConfig::torus_8()),
    ] {
        let mut cfg = r.base_cfg;
        cfg.topology = preset.topology;
        points.push((format!("topo-{name}"), cfg));
    }
    points
}

/// The job for one topology-sweep cell. The launch is re-scaled with
/// `Scale::for_gpus` so bigger fabrics keep the 4-GPU mesh's per-GPU
/// load instead of spreading one mesh-sized kernel ever thinner (the
/// mesh point itself is the identity, so it still shares memo entries
/// with the other figures).
pub fn topology_job(
    r: &Runner,
    w: Workload,
    v: SystemVariant,
    cfg: SystemConfig,
    tag: &str,
) -> Experiment {
    let mut job = r.job_with(w, v, cfg, tag);
    job.scale = job.scale.for_gpus(cfg.topology.total_gpus());
    job
}

/// Per fabric point and topology workload: baseline, then NetCrafter.
fn topology_jobs(r: &Runner) -> Vec<Experiment> {
    let mut jobs = Vec::new();
    for (tag, cfg) in topology_sweep_points(r) {
        for w in TOPOLOGY_WORKLOADS {
            for v in BASE_NC {
                jobs.push(topology_job(r, w, v, cfg, &tag));
            }
        }
    }
    jobs
}

/// Extension study (not in the paper): how much of the NetCrafter win
/// survives scale-out fabrics? Each row is one fabric with its geometry
/// (mean cross-cluster hop count, edge-switch oversubscription ratio)
/// next to the per-workload baseline→NetCrafter speedups and their
/// geomean, so the benefit can be read against hop count and
/// oversubscription directly.
fn topology(r: &Runner, res: &[Arc<RunResult>]) -> Table {
    let mut t = Table::new(
        "Extension: NetCrafter speedup vs fabric topology",
        vec![
            "Fabric", "GPUs", "Switches", "Hops", "Oversub", "GUPS", "SPMV", "PR", "Geomean",
        ],
    );
    let per_point = 2 * TOPOLOGY_WORKLOADS.len();
    for ((tag, cfg), rs) in topology_sweep_points(r)
        .into_iter()
        .zip(res.chunks_exact(per_point))
    {
        let topo = Topology::new(&cfg.topology);
        let label = if tag.is_empty() {
            "mesh".to_owned()
        } else {
            tag.trim_start_matches("topo-").to_owned()
        };
        let speedups: Vec<f64> = rs
            .chunks_exact(2)
            .map(|pair| speedup(&pair[0], &pair[1]))
            .collect();
        let mut cells = vec![
            label,
            cfg.topology.total_gpus().to_string(),
            cfg.topology.num_switches().to_string(),
            f2(topo.mean_cross_hops()),
            f2(cfg.topology.oversubscription()),
        ];
        cells.extend(speedups.iter().map(|&s| f2(s)));
        cells.push(f2(geomean(&speedups)));
        t.row(cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_exactly() {
        let t = table1();
        // Rows: kind, occupied, required, padded, flits.
        let expect = [
            ("Read Req", "16", "12", "4", "1"),
            ("Write Req", "80", "76", "4", "5"),
            ("Page Table Req", "16", "12", "4", "1"),
            ("Read Rsp", "80", "68", "12", "5"),
            ("Write Rsp", "16", "4", "12", "1"),
            ("Page Table Rsp", "16", "12", "4", "1"),
        ];
        for (row, (kind, occ, req, pad, flits)) in t.rows.iter().zip(expect) {
            assert_eq!(row[0], kind);
            assert_eq!(row[1], occ, "{kind} occupied");
            assert_eq!(row[2], req, "{kind} required");
            assert_eq!(row[3], pad, "{kind} padded");
            assert_eq!(row[4], flits, "{kind} flits");
        }
    }

    #[test]
    fn table3_lists_all_15() {
        let t = table3();
        assert_eq!(t.rows.len(), 15);
        assert_eq!(t.rows[0][0], "GUPS");
        assert_eq!(t.rows[14][0], "RNET18");
    }

    #[test]
    fn all_ids_dispatch() {
        // Static tables dispatch without a runner doing real work.
        let r = Runner::quick();
        for id in ["table1", "table3"] {
            let t = generate(id, &r);
            assert!(!t.rows.is_empty());
        }
        assert_eq!(r.runs_completed(), 0);
        assert_eq!(all_ids().len(), 22);
    }

    #[test]
    fn sweep_jobs_enumerate_every_id() {
        let r = Runner::quick();
        for id in all_ids() {
            let jobs = sweep_jobs(id, &r);
            match id {
                "table1" | "table3" => assert!(jobs.is_empty(), "{id}"),
                _ => assert!(!jobs.is_empty(), "{id} should have sweep jobs"),
            }
        }
        assert_eq!(sweep_jobs("fig17", &r).len(), 3 * 2);
        assert_eq!(sweep_jobs("fig22", &r).len(), 15 * 6 * 2);
    }

    /// The benchmark's `fig14_paper` job list: workload-major, the
    /// baseline first and then the four bars, on the base config.
    #[test]
    fn fig14_jobs_are_pinned() {
        let r = Runner::quick();
        let keys: Vec<String> = sweep_jobs("fig14", &r)
            .iter()
            .map(Experiment::memo_key)
            .collect();
        assert_eq!(keys.len(), 15 * 5);
        assert_eq!(
            keys[..5],
            [
                "GUPS|Baseline|",
                "GUPS|Stitch+SelPool32|",
                "GUPS|Stitch+Trim|",
                "GUPS|NetCrafter|",
                "GUPS|SectorCache(16B)|",
            ]
        );
        for (w, five) in Workload::ALL.iter().zip(keys.chunks_exact(5)) {
            let expect: Vec<String> = keys[..5]
                .iter()
                .map(|k| k.replacen("GUPS", w.abbrev(), 1))
                .collect();
            assert_eq!(five, expect);
        }
    }

    /// Every ablation cell is a runner job on the base config, so a sweep
    /// warmup reaches all of them, and each depth survives the variant.
    #[test]
    fn ablation_jobs_keep_the_base_warmup() {
        let mut r = Runner::quick();
        r.base_cfg.netcrafter.warmup_cycles = 500;
        let jobs = sweep_jobs("ablation", &r);
        assert_eq!(jobs.len(), 3 * (1 + 4));
        for job in &jobs {
            assert_eq!(job.warmup_cycles(), 500, "{}", job.memo_key());
        }
        let depths: Vec<u32> = jobs
            .iter()
            .filter(|j| j.variant == SystemVariant::StitchOnly)
            .map(|j| j.variant.apply(j.base_cfg).netcrafter.stitch_search_depth)
            .collect();
        assert_eq!(depths, [1, 4, 16, 64].repeat(3));
    }

    /// Figure 3's shape on one workload at quick scale.
    #[test]
    fn quick_fig_pipeline_works() {
        let r = Runner::quick();
        let res = r.sweep(&[
            r.job(Workload::Gups, SystemVariant::Baseline),
            r.job(Workload::Gups, SystemVariant::Ideal),
        ]);
        assert!(res[1].exec_cycles <= res[0].exec_cycles);
        assert!(res[0].inter_utilization() > 0.0);
    }
}
