//! One generator per paper table/figure. Each returns a [`Table`] whose
//! rows correspond to the series the paper plots; EXPERIMENTS.md records
//! a full paper-scale output next to the published values.

use netcrafter_multigpu::{JobSpec, System, SystemVariant};
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

/// Dispatches a figure id to its generator.
///
/// # Panics
///
/// Panics on an unknown id (the CLI validates first).
pub fn generate(id: &str, runner: &Runner) -> Table {
    match id {
        "table1" => table1(),
        "table3" => table3(),
        "fig3" => fig3(runner),
        "fig4" => fig4(runner),
        "fig5" => fig5(runner),
        "fig6" => fig6(runner),
        "fig7" => fig7(runner),
        "fig8" => fig8(runner),
        "fig9" => fig9(runner),
        "fig12" => fig12(runner),
        "fig14" => fig14(runner),
        "fig15" => fig15(runner),
        "fig16" => fig16(runner),
        "fig17" => fig17(runner),
        "fig18" => fig18(runner),
        "fig19" => fig19(runner),
        "fig20" => fig20(runner),
        "fig21" => fig21(runner),
        "fig22" => fig22(runner),
        "ablation" => ablation_search_depth(runner),
        "scaling" => extension_cluster_scaling(runner),
        "topology" => extension_topology_sweep(runner),
        other => panic!("unknown figure id {other:?}"),
    }
}

/// Enumerates every [`Runner::run`]/[`Runner::run_with`] call the
/// generator for `id` will make, as job specs for [`Runner::sweep`].
///
/// The `figures` binary collects these for all requested ids and resolves
/// them in one parallel sweep before generating; the generators then hit
/// a warm memo, so their output is identical to a sequential run.
/// `fig17` and `ablation` build systems directly (custom kernels and
/// config knobs no [`SystemVariant`] expresses) and contribute only the
/// baseline runs they share with other figures.
pub fn sweep_jobs(id: &str, r: &Runner) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let for_all = |variants: &[SystemVariant], jobs: &mut Vec<JobSpec>| {
        for w in Workload::ALL {
            for &v in variants {
                jobs.push(r.job(w, v));
            }
        }
    };
    let selpool32 = SystemVariant::StitchPool {
        window: 32,
        selective: true,
    };
    match id {
        "table1" | "table3" | "fig17" => {}
        "fig3" | "fig4" | "fig5" => {
            for_all(&[SystemVariant::Baseline, SystemVariant::Ideal], &mut jobs);
        }
        "fig6" | "fig7" | "fig9" => for_all(&[SystemVariant::Baseline], &mut jobs),
        "fig8" => for_all(
            &[
                SystemVariant::Baseline,
                SystemVariant::SeqOnly,
                SystemVariant::DataPrio,
            ],
            &mut jobs,
        ),
        "fig12" => for_all(
            &[
                SystemVariant::StitchOnly,
                SystemVariant::StitchPool {
                    window: 32,
                    selective: false,
                },
            ],
            &mut jobs,
        ),
        "fig14" => for_all(
            &[
                SystemVariant::Baseline,
                selpool32,
                SystemVariant::StitchTrim,
                SystemVariant::NetCrafter,
                SystemVariant::SectorCache,
            ],
            &mut jobs,
        ),
        "fig15" => for_all(
            &[SystemVariant::Baseline, SystemVariant::NetCrafter],
            &mut jobs,
        ),
        "fig16" => for_all(
            &[
                SystemVariant::Baseline,
                SystemVariant::TrimOnly,
                SystemVariant::SectorCache,
            ],
            &mut jobs,
        ),
        "fig18" | "fig19" | "fig20" => {
            let selective = id != "fig18";
            let mut variants = vec![SystemVariant::Baseline, SystemVariant::StitchOnly];
            for window in [32, 64, 96, 128] {
                variants.push(SystemVariant::StitchPool { window, selective });
            }
            for_all(&variants, &mut jobs);
        }
        "fig21" => {
            let mut cfg8 = r.base_cfg;
            cfg8.flit_bytes = 8;
            for w in Workload::ALL {
                for v in [SystemVariant::Baseline, selpool32] {
                    jobs.push(r.job(w, v));
                    jobs.push(r.job_with(w, v, cfg8, "flit8"));
                }
            }
        }
        "fig22" => {
            for w in Workload::ALL {
                for (intra, inter, label) in FIG22_CONFIGS {
                    let mut cfg = r.base_cfg;
                    cfg.topology.intra_gbps = intra;
                    cfg.topology.inter_gbps = inter;
                    for v in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
                        jobs.push(r.job_with(w, v, cfg, label));
                    }
                }
            }
        }
        "ablation" => {
            for w in [Workload::Gups, Workload::Spmv, Workload::Mt] {
                jobs.push(r.job(w, SystemVariant::Baseline));
            }
        }
        "scaling" => {
            for w in [
                Workload::Gups,
                Workload::Spmv,
                Workload::Pr,
                Workload::Vgg16,
            ] {
                for clusters in 1u16..=4 {
                    let mut cfg = r.base_cfg;
                    cfg.topology.clusters = clusters;
                    let tag = format!("clusters{clusters}");
                    for v in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
                        jobs.push(r.job_with(w, v, cfg, &tag));
                    }
                }
            }
        }
        "topology" => {
            for (tag, cfg) in topology_sweep_points(r) {
                for w in TOPOLOGY_WORKLOADS {
                    for v in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
                        jobs.push(topology_job(r, w, v, cfg, &tag));
                    }
                }
            }
        }
        other => panic!("unknown figure id {other:?}"),
    }
    jobs
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
pub fn fig3(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 3: ideal (uniform 128 GB/s) speedup over non-uniform baseline",
        vec!["Workload", "Baseline cycles", "Ideal cycles", "Speedup"],
    );
    let mut speedups = Vec::new();
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let ideal = r.run(w, SystemVariant::Ideal);
        let s = base.exec_cycles as f64 / ideal.exec_cycles as f64;
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
pub fn fig4(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 4: inter-cluster network utilization",
        vec!["Workload", "Non-uniform", "Ideal"],
    );
    let (mut b_all, mut i_all) = (Vec::new(), Vec::new());
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let ideal = r.run(w, SystemVariant::Ideal);
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

/// Figure 5: average inter-cluster memory access latency of the ideal
/// configuration, normalized to the non-uniform baseline (= 1.0).
pub fn fig5(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 5: avg inter-cluster read latency (normalized to non-uniform)",
        vec![
            "Workload",
            "Non-uniform (cycles)",
            "Ideal (cycles)",
            "Ideal normalized",
        ],
    );
    let mut ratios = Vec::new();
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let ideal = r.run(w, SystemVariant::Ideal);
        let (b, i) = (base.inter_read_latency(), ideal.inter_read_latency());
        let norm = if b > 0.0 { i / b } else { 1.0 };
        if b > 0.0 {
            ratios.push(norm);
        }
        t.row(vec![
            w.abbrev().into(),
            format!("{b:.0}"),
            format!("{i:.0}"),
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

/// Figure 6: fraction of inter-cluster flits with 25% / 75% padding in
/// the baseline.
pub fn fig6(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 6: flit occupancy distribution on the inter-cluster link (baseline)",
        vec!["Workload", "25% padded", "75% padded", "25%+75% total"],
    );
    let mut totals = Vec::new();
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let p25 = base.padding_fraction(25);
        let p75 = base.padding_fraction(75);
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
pub fn fig7(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 7: inter-cluster reads by cache-line bytes required",
        vec!["Workload", "<=16B", "<=32B", "<=48B", "64B"],
    );
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let f = base.fig7_fractions();
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
pub fn fig8(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 8: speedup of prioritizing PTW vs data accesses (vs baseline)",
        vec!["Workload", "Prioritize PTW", "Prioritize data"],
    );
    let (mut ptw_all, mut data_all) = (Vec::new(), Vec::new());
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let ptw = r.run(w, SystemVariant::SeqOnly);
        let data = r.run(w, SystemVariant::DataPrio);
        let sp = |x: u64| base.exec_cycles as f64 / x as f64;
        ptw_all.push(sp(ptw.exec_cycles));
        data_all.push(sp(data.exec_cycles));
        t.row(vec![
            w.abbrev().into(),
            f2(sp(ptw.exec_cycles)),
            f2(sp(data.exec_cycles)),
        ]);
    }
    t.row(vec![
        "GEOMEAN".into(),
        f2(geomean(&ptw_all)),
        f2(geomean(&data_all)),
    ]);
    t
}

/// Figure 9: PTW vs data share of inter-cluster traffic (baseline).
pub fn fig9(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 9: PTW-related share of inter-cluster bytes (baseline)",
        vec!["Workload", "PTW", "Data"],
    );
    let mut shares = Vec::new();
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let s = base.ptw_byte_share();
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
pub fn fig12(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 12: flits stitched, Stitching alone vs with 32-cycle Flit Pooling",
        vec!["Workload", "Stitching", "Stitching+Pooling"],
    );
    let (mut a_all, mut b_all) = (Vec::new(), Vec::new());
    for w in Workload::ALL {
        let alone = r.run(w, SystemVariant::StitchOnly);
        let pooled = r.run(
            w,
            SystemVariant::StitchPool {
                window: 32,
                selective: false,
            },
        );
        a_all.push(alone.stitched_fraction());
        b_all.push(pooled.stitched_fraction());
        t.row(vec![
            w.abbrev().into(),
            pct(alone.stitched_fraction()),
            pct(pooled.stitched_fraction()),
        ]);
    }
    t.row(vec!["AVG".into(), pct(mean(&a_all)), pct(mean(&b_all))]);
    t
}

/// Figure 14: overall speedup of the cumulative NetCrafter mechanisms and
/// the sector-cache baseline, normalized to the non-uniform baseline.
pub fn fig14(r: &Runner) -> Table {
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
    let variants = [
        SystemVariant::StitchPool {
            window: 32,
            selective: true,
        },
        SystemVariant::StitchTrim,
        SystemVariant::NetCrafter,
        SystemVariant::SectorCache,
    ];
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let mut cells = vec![w.abbrev().to_owned()];
        for (i, v) in variants.iter().enumerate() {
            let res = r.run(w, *v);
            let s = base.exec_cycles as f64 / res.exec_cycles as f64;
            cols[i].push(s);
            cells.push(f2(s));
        }
        t.row(cells);
    }
    let mut gm = vec!["GEOMEAN".to_owned()];
    let mut mx = vec!["MAX".to_owned()];
    for col in &cols {
        gm.push(f2(geomean(col)));
        mx.push(f2(col.iter().copied().fold(0.0_f64, f64::max)));
    }
    t.row(gm);
    t.row(mx);
    t
}

/// Figure 15: average inter-cluster read latency, baseline vs NetCrafter.
pub fn fig15(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 15: avg inter-cluster read latency, baseline vs NetCrafter",
        vec![
            "Workload",
            "Baseline (cycles)",
            "NetCrafter (cycles)",
            "NetCrafter normalized",
        ],
    );
    let mut ratios = Vec::new();
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let nc = r.run(w, SystemVariant::NetCrafter);
        let (b, n) = (base.inter_read_latency(), nc.inter_read_latency());
        let norm = if b > 0.0 { n / b } else { 1.0 };
        if b > 0.0 {
            ratios.push(norm);
        }
        t.row(vec![
            w.abbrev().into(),
            format!("{b:.0}"),
            format!("{n:.0}"),
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

/// Figure 16: L1 MPKI under NetCrafter's selective Trimming vs the
/// 16 B sector cache that trims everywhere.
pub fn fig16(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 16: L1 MPKI — baseline vs Trimming vs 16 B sector cache",
        vec![
            "Workload",
            "Baseline",
            "Trimming (NetCrafter)",
            "SectorCache(16B)",
        ],
    );
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let trim = r.run(w, SystemVariant::TrimOnly);
        let sector = r.run(w, SystemVariant::SectorCache);
        t.row(vec![
            w.abbrev().into(),
            f2(base.l1_mpki()),
            f2(trim.l1_mpki()),
            f2(sector.l1_mpki()),
        ]);
    }
    t
}

/// Figure 17: large-GEMM L1 MPKI as a function of trimming / sector
/// granularity (4, 8, 16 B), selective Trimming vs all-trimming.
pub fn fig17(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 17: large GEMM L1 MPKI vs granularity",
        vec![
            "Granularity",
            "Trimming (inter-cluster only)",
            "All-trimming (sector cache)",
        ],
    );
    for g in [4u32, 8, 16] {
        let mut cells = vec![format!("{g}B")];
        for v in [SystemVariant::TrimOnly, SystemVariant::SectorCache] {
            let mut cfg = v.apply(r.base_cfg);
            cfg.trim_granularity = g;
            let kernel = netcrafter_workloads::gen::large_gemm(&r.scale, cfg.total_gpus(), r.seed);
            let mut sys = System::build(cfg, &kernel);
            let exec = sys.run(300_000_000);
            let m = sys.harvest();
            let mpki = 1000.0 * m.counter("total.l1.misses") as f64
                / m.counter("total.cu.instructions").max(1) as f64;
            let _ = exec;
            cells.push(f2(mpki));
        }
        t.row(cells);
    }
    t
}

fn pooling_sweep(r: &Runner, selective: bool, title: &str) -> Table {
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
    let windows = [0u32, 32, 64, 96, 128];
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); windows.len()];
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let mut cells = vec![w.abbrev().to_owned()];
        for (i, &window) in windows.iter().enumerate() {
            let v = if window == 0 {
                SystemVariant::StitchOnly
            } else {
                SystemVariant::StitchPool { window, selective }
            };
            let res = r.run(w, v);
            let s = base.exec_cycles as f64 / res.exec_cycles as f64;
            cols[i].push(s);
            cells.push(f2(s));
        }
        t.row(cells);
    }
    let mut gm = vec!["GEOMEAN".to_owned()];
    for col in &cols {
        gm.push(f2(geomean(col)));
    }
    t.row(gm);
    t
}

/// Figure 18: Stitching with plain Flit Pooling, 32–128-cycle windows.
pub fn fig18(r: &Runner) -> Table {
    pooling_sweep(
        r,
        false,
        "Figure 18: speedup, Stitching + Flit Pooling (window sweep)",
    )
}

/// Figure 19: Stitching with *Selective* Flit Pooling, 32–128 cycles.
pub fn fig19(r: &Runner) -> Table {
    pooling_sweep(
        r,
        true,
        "Figure 19: speedup, Stitching + Selective Flit Pooling (window sweep)",
    )
}

/// Figure 20: reduction in inter-cluster network bytes vs baseline.
pub fn fig20(r: &Runner) -> Table {
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
    let windows = [0u32, 32, 64, 96, 128];
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); windows.len()];
    for w in Workload::ALL {
        let base = r.run(w, SystemVariant::Baseline);
        let base_bytes = base.inter_link_bytes().max(1);
        let mut cells = vec![w.abbrev().to_owned()];
        for (i, &window) in windows.iter().enumerate() {
            let v = if window == 0 {
                SystemVariant::StitchOnly
            } else {
                SystemVariant::StitchPool {
                    window,
                    selective: true,
                }
            };
            let res = r.run(w, v);
            let reduction = 1.0 - res.inter_link_bytes() as f64 / base_bytes as f64;
            cols[i].push(reduction);
            cells.push(pct(reduction));
        }
        t.row(cells);
    }
    let mut avg = vec!["AVG".to_owned()];
    for col in &cols {
        avg.push(pct(mean(col)));
    }
    t.row(avg);
    t
}

/// Figure 21: Stitching + Selective Pooling speedup at 8 B vs 16 B flits
/// (each normalized to the baseline at its own flit size).
pub fn fig21(r: &Runner) -> Table {
    let mut t = Table::new(
        "Figure 21: stitching benefit at 8 B vs 16 B flit size",
        vec!["Workload", "16B flits", "8B flits"],
    );
    let mut cfg8 = r.base_cfg;
    cfg8.flit_bytes = 8;
    let (mut s16_all, mut s8_all) = (Vec::new(), Vec::new());
    let stitch = SystemVariant::StitchPool {
        window: 32,
        selective: true,
    };
    for w in Workload::ALL {
        let b16 = r.run(w, SystemVariant::Baseline);
        let s16 = r.run(w, stitch);
        let b8 = r.run_with(w, SystemVariant::Baseline, cfg8, "flit8");
        let s8 = r.run_with(w, stitch, cfg8, "flit8");
        let sp16 = b16.exec_cycles as f64 / s16.exec_cycles as f64;
        let sp8 = b8.exec_cycles as f64 / s8.exec_cycles as f64;
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

/// The `(intra, inter, label)` bandwidth points of Figure 22, shared with
/// [`sweep_jobs`] (the labels double as memo tags).
const FIG22_CONFIGS: [(f64, f64, &str); 6] = [
    (128.0, 16.0, "128:16 (8:1)"),
    (256.0, 32.0, "256:32 (8:1)"),
    (512.0, 64.0, "512:64 (8:1)"),
    (128.0, 32.0, "128:32 (4:1)"),
    (128.0, 64.0, "128:64 (2:1)"),
    (32.0, 32.0, "32:32 (homog.)"),
];

/// Figure 22: NetCrafter speedup across bandwidth ratios/values,
/// including a homogeneous configuration.
pub fn fig22(r: &Runner) -> Table {
    let configs = FIG22_CONFIGS;
    let mut header = vec!["Workload"];
    for (_, _, label) in &configs {
        header.push(label);
    }
    let mut t = Table::new(
        "Figure 22: NetCrafter speedup across bandwidth configurations",
        header,
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    for w in Workload::ALL {
        let mut cells = vec![w.abbrev().to_owned()];
        for (i, (intra, inter, label)) in configs.iter().enumerate() {
            let mut cfg = r.base_cfg;
            cfg.topology.intra_gbps = *intra;
            cfg.topology.inter_gbps = *inter;
            let base = r.run_with(w, SystemVariant::Baseline, cfg, label);
            let nc = r.run_with(w, SystemVariant::NetCrafter, cfg, label);
            let s = base.exec_cycles as f64 / nc.exec_cycles as f64;
            cols[i].push(s);
            cells.push(f2(s));
        }
        t.row(cells);
    }
    let mut gm = vec!["GEOMEAN".to_owned()];
    for col in &cols {
        gm.push(f2(geomean(col)));
    }
    t.row(gm);
    t
}

/// Design-space ablation (not in the paper): how wide must the Stitching
/// Engine's candidate search be? Sweeps the per-partition search depth
/// and reports the stitched-away flit fraction and speedup for three
/// stitch-friendly workloads.
pub fn ablation_search_depth(r: &Runner) -> Table {
    let depths = [1u32, 4, 16, 64];
    let mut header = vec!["Workload".to_owned()];
    for d in depths {
        header.push(format!("stitch%@{d}"));
        header.push(format!("speedup@{d}"));
    }
    let mut t = Table::new(
        "Ablation: stitch candidate search depth (Stitching only)",
        header.iter().map(String::as_str).collect(),
    );
    for w in [Workload::Gups, Workload::Spmv, Workload::Mt] {
        let base = r.run(w, SystemVariant::Baseline);
        let mut cells = vec![w.abbrev().to_owned()];
        for d in depths {
            // Built directly: SystemVariant would overwrite the depth.
            let mut cfg = r.base_cfg;
            cfg.netcrafter = netcrafter_proto::NetCrafterConfig {
                stitching: true,
                stitch_search_depth: d,
                ..netcrafter_proto::NetCrafterConfig::disabled()
            };
            let kernel = w.generate(&r.scale, cfg.total_gpus(), r.seed);
            let mut sys = System::build(cfg, &kernel);
            let exec = sys.run(300_000_000);
            let m = sys.harvest();
            let absorbed = m.counter("net.inter.cq.absorbed");
            let popped = m.counter("net.inter.cq.popped");
            let frac = if absorbed + popped == 0 {
                0.0
            } else {
                absorbed as f64 / (absorbed + popped) as f64
            };
            cells.push(pct(frac));
            cells.push(f2(base.exec_cycles as f64 / exec as f64));
        }
        t.row(cells);
    }
    t
}

/// Extension study (not in the paper): does NetCrafter keep helping as
/// the node grows? Sweeps the cluster count at 2 GPUs per cluster — more
/// clusters mean more inter-cluster traffic crossing more slow links.
pub fn extension_cluster_scaling(r: &Runner) -> Table {
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
    for w in [
        Workload::Gups,
        Workload::Spmv,
        Workload::Pr,
        Workload::Vgg16,
    ] {
        let mut cells = vec![w.abbrev().to_owned()];
        for clusters in 1u16..=4 {
            let mut cfg = r.base_cfg;
            cfg.topology.clusters = clusters;
            let tag = format!("clusters{clusters}");
            let base = r.run_with(w, SystemVariant::Baseline, cfg, &tag);
            let nc = r.run_with(w, SystemVariant::NetCrafter, cfg, &tag);
            cells.push(f2(base.exec_cycles as f64 / nc.exec_cycles as f64));
        }
        t.row(cells);
    }
    t
}

/// Workloads driven across every fabric by the `topology` figure and the
/// `gated_counts` topology matrix: a latency-bound, a sparse, and an
/// iterative-graph pattern, so multi-hop effects show on more than one
/// traffic shape without sweeping the full 15-workload matrix per fabric.
pub const TOPOLOGY_WORKLOADS: [Workload; 3] = [Workload::Gups, Workload::Spmv, Workload::Pr];

/// The fabric points of the `topology` figure: `(memo tag, config)` for
/// the mesh baseline plus each scale-out preset. Presets contribute only
/// their topology; every compute parameter (CUs, caches, scale) comes
/// from the runner's base config so `--quick` stays quick. The mesh
/// point keeps the empty tag and therefore shares its runs with the
/// other figures' memo entries.
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
) -> JobSpec {
    let mut job = r.job_with(w, v, cfg, tag);
    job.scale = job.scale.for_gpus(cfg.topology.total_gpus());
    job
}

/// Extension study (not in the paper): how much of the NetCrafter win
/// survives scale-out fabrics? Each row is one fabric with its geometry
/// (mean cross-cluster hop count, edge-switch oversubscription ratio)
/// next to the per-workload baseline→NetCrafter speedups and their
/// geomean, so the benefit can be read against hop count and
/// oversubscription directly.
pub fn extension_topology_sweep(r: &Runner) -> Table {
    let mut t = Table::new(
        "Extension: NetCrafter speedup vs fabric topology",
        vec![
            "Fabric", "GPUs", "Switches", "Hops", "Oversub", "GUPS", "SPMV", "PR", "Geomean",
        ],
    );
    for (tag, cfg) in topology_sweep_points(r) {
        let topo = Topology::new(&cfg.topology);
        let label = if tag.is_empty() {
            "mesh".to_owned()
        } else {
            tag.trim_start_matches("topo-").to_owned()
        };
        let mut cells = vec![
            label,
            cfg.topology.total_gpus().to_string(),
            cfg.topology.num_switches().to_string(),
            f2(topo.mean_cross_hops()),
            f2(cfg.topology.oversubscription()),
        ];
        let mut speedups = Vec::new();
        for w in TOPOLOGY_WORKLOADS {
            let base = r.run_job(&topology_job(r, w, SystemVariant::Baseline, cfg, &tag));
            let nc = r.run_job(&topology_job(r, w, SystemVariant::NetCrafter, cfg, &tag));
            let s = base.exec_cycles as f64 / nc.exec_cycles as f64;
            speedups.push(s);
            cells.push(f2(s));
        }
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
        assert_eq!(all_ids().len(), 22);
    }

    #[test]
    fn sweep_jobs_enumerate_every_id() {
        let r = Runner::quick();
        for id in all_ids() {
            let jobs = sweep_jobs(id, &r);
            match id {
                "table1" | "table3" | "fig17" => assert!(jobs.is_empty(), "{id}"),
                _ => assert!(!jobs.is_empty(), "{id} should have sweep jobs"),
            }
        }
        assert_eq!(sweep_jobs("fig14", &r).len(), 15 * 5);
        assert_eq!(sweep_jobs("fig22", &r).len(), 15 * 6 * 2);
    }

    #[test]
    fn prewarm_covers_generator_runs() {
        let r = Runner::quick().with_jobs(2);
        let jobs = sweep_jobs("fig3", &r);
        r.sweep(&jobs);
        let before = r.runs_completed();
        let t = generate("fig3", &r);
        assert_eq!(
            r.runs_completed(),
            before,
            "sweep covered every run fig3 makes"
        );
        assert_eq!(t.rows.len(), 15 + 2);
    }

    /// One real end-to-end figure at quick scale: Figure 3 on a reduced
    /// workload set would still take seconds; instead verify fig3 shape
    /// properties using the quick runner on two workloads by calling the
    /// underlying pieces.
    #[test]
    fn quick_fig_pipeline_works() {
        let r = Runner::quick();
        let base = r.run(Workload::Gups, SystemVariant::Baseline);
        let ideal = r.run(Workload::Gups, SystemVariant::Ideal);
        assert!(ideal.exec_cycles <= base.exec_cycles);
        assert!(base.inter_utilization() > 0.0);
    }
}
