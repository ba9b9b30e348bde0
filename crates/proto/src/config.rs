//! System configuration: the paper's Table 2 node plus the NetCrafter
//! mechanism knobs and every sensitivity-study parameter.
//!
//! [`SystemConfig`] holds only what a study varies: the interconnect,
//! the CU count, the L2 TLB, the flit size, the trim granularity, the L1
//! fill policy and the three mechanisms. The blocks of Table 2 that no
//! study varies are constants here ([`CU`], [`L1`], [`L2`], [`L1_TLB`],
//! [`GMMU`], [`DRAM`], [`SWITCH`]), as are the L2 bank count and the
//! on-chip hop ([`L2_BANKS`], [`ON_CHIP_HOP_CYCLES`]). The
//! experiment harness builds variants of the paper's baseline
//! ([`SystemConfig::paper_baseline`]) by setting fields, exactly as the
//! evaluation section varies them (flit size, pooling window, bandwidth
//! ratios, sector policies).

use std::num::NonZeroU32;

use crate::addr::{LINE_BYTES, SECTOR_BYTES};
use crate::ids::GpuId;
use crate::packet::PacketKind;

/// Simulated core clock: 1 GHz (Table 2), so 1 GB/s of link bandwidth is
/// exactly 1 byte per cycle.
pub const CLOCK_GHZ: f64 = 1.0;

/// Tokens per whole flit (or byte) in a bandwidth bucket: a bucket counts
/// its rate, burst and level in 10⁻¹⁸ of what it meters, as integers.
pub const RATE_UNIT: u128 = 1_000_000_000_000_000_000;

/// `per_cycle` as a whole number of [`RATE_UNIT`] tokens, or why a
/// bucket cannot hold it (naming it `what`). The value taken is that of
/// the shortest decimal that reads back as `per_cycle`, which a run id
/// prints: the `f64` nearest 0.3 lies below 3/10, and ten cycles of it
/// would fall short of three flits.
pub fn rate_tokens(what: &str, per_cycle: f64) -> Result<u128, String> {
    use std::io::Write;
    let exact = || {
        (per_cycle > 0.0).then_some(())?;
        let mut text = [0u8; 32];
        let mut free = &mut text[..];
        write!(free, "{per_cycle:e}").ok()?;
        let len = 32 - free.len();
        let (mantissa, exp) = std::str::from_utf8(&text[..len]).ok()?.split_once('e')?;
        let fraction = mantissa.split_once('.').map_or(0, |(_, f)| f.len());
        // digits × 10^(exp − fraction digits), in 10⁻¹⁸ units.
        let shift = exp.parse::<i32>().ok()? + 18 - i32::try_from(fraction).ok()?;
        let digits = mantissa
            .bytes()
            .filter(u8::is_ascii_digit)
            .fold(0, |n, d| n * 10 + u128::from(d - b'0'));
        digits.checked_mul(10u128.checked_pow(u32::try_from(shift).ok()?)?)
    };
    exact().ok_or_else(|| {
        format!(
            "{what} {per_cycle:?} per cycle is refused: a bandwidth bucket holds \
             positive whole multiples of 1e-18 per cycle"
        )
    })
}

/// Bits of physical address space owned by each GPU's memory partition
/// (64 GiB per GPU). The GPU owning a physical address is
/// `pa >> PA_GPU_REGION_BITS`.
pub const PA_GPU_REGION_BITS: u32 = 36;

/// Independent banks of each GPU's L2; capacity and MSHRs split evenly.
pub const L2_BANKS: u32 = 16;

/// Latency in cycles of every message between two components of one GPU
/// (CU, L2, DRAM, GMMU, RDMA engine).
pub const ON_CHIP_HOP_CYCLES: u64 = 2;

/// How the L1 vector cache fills lines from remote responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectorFillPolicy {
    /// Baseline: every fill brings the whole 64 B line.
    FullLine,
    /// NetCrafter Trimming (§4.3): fills arriving from *inter-cluster*
    /// responses may carry a single sector; everything else is full-line.
    OnTrim,
    /// The sector-cache comparison baseline of §5.3: every fill, local or
    /// remote, brings only the requested sectors.
    Always,
}

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Lookup latency in cycles.
    pub lookup_cycles: u32,
    /// Miss-status-holding-register entries.
    pub mshr_entries: u32,
}

/// Configuration of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Associativity; `u32::MAX` means fully associative.
    pub ways: u32,
    /// Lookup latency in cycles.
    pub lookup_cycles: u32,
    /// MSHR entries for outstanding misses.
    pub mshr_entries: u32,
}

/// DRAM timing/bandwidth model (Table 2: 1 TB/s, 100 ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Sustained bandwidth in bytes per cycle (1 TB/s at 1 GHz = 1000 B).
    pub bytes_per_cycle: u32,
    /// Access latency in cycles (100 ns at 1 GHz = 100 cycles).
    pub latency_cycles: u32,
}

/// Network switch parameters (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchConfig {
    /// Data-processing pipeline depth in cycles.
    pub pipeline_cycles: u32,
    /// Per-port I/O buffer capacity in flits.
    pub buffer_entries: u32,
}

/// GMMU parameters: page-walk cache and parallel walkers (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GmmuConfig {
    /// Page-walk-cache entries (fully associative).
    pub pwc_entries: u32,
    /// Page-walk-cache lookup latency in cycles.
    pub pwc_lookup_cycles: u32,
    /// Number of parallel page-table walkers.
    pub walkers: u32,
}

/// Limits of one compute unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuConfig {
    /// Wavefronts resident at once (latency hiding depth).
    pub max_waves: u16,
    /// Memory accesses outstanding at once.
    pub max_outstanding: u32,
    /// Loads outstanding per *wavefront* before it stalls waiting for
    /// data — models non-blocking loads up to the first use (GPU ISAs
    /// issue several independent loads back to back). 1 reproduces a
    /// strictly blocking wavefront.
    pub max_loads_per_wave: u16,
}

/// Every compute unit (Table 2): 40 resident wavefronts, 32 outstanding
/// accesses, 4 loads in flight per wavefront.
pub const CU: CuConfig = CuConfig {
    max_waves: 40,
    max_outstanding: 32,
    max_loads_per_wave: 4,
};

/// L1 vector cache of each CU (Table 2): 64 KB, 4-way, 20-cycle lookup,
/// 32 MSHRs.
pub const L1: CacheConfig = CacheConfig {
    size_bytes: 64 * 1024,
    ways: 4,
    lookup_cycles: 20,
    mshr_entries: 32,
};

/// Shared L2 of each GPU (Table 2): 4 MB, 16-way, 100-cycle lookup,
/// 64 MSHRs, split evenly over [`L2_BANKS`] banks.
pub const L2: CacheConfig = CacheConfig {
    size_bytes: 4 * 1024 * 1024,
    ways: 16,
    lookup_cycles: 100,
    mshr_entries: 64,
};

/// L1 TLB of each CU (Table 2): 32 entries, fully associative, 1-cycle
/// lookup. Its 8 MSHRs are Table 2's figure but nothing reads them: an
/// L1 TLB miss goes straight to the GMMU, whose L2 TLB MSHRs
/// ([`SystemConfig::l2_tlb`]) bound the outstanding translations.
pub const L1_TLB: TlbConfig = TlbConfig {
    entries: 32,
    ways: u32::MAX,
    lookup_cycles: 1,
    mshr_entries: 8,
};

/// GMMU of each GPU (Table 2): a 32-entry page-walk cache with a
/// 10-cycle lookup, and 16 parallel walkers.
pub const GMMU: GmmuConfig = GmmuConfig {
    pwc_entries: 32,
    pwc_lookup_cycles: 10,
    walkers: 16,
};

/// HBM of each GPU (Table 2): 1 TB/s and 100 ns at the 1 GHz clock.
pub const DRAM: DramConfig = DramConfig {
    bytes_per_cycle: 1000,
    latency_cycles: 100,
};

/// Every network switch (Table 2): a 30-cycle pipeline and 1024-flit
/// port buffers.
pub const SWITCH: SwitchConfig = SwitchConfig {
    pipeline_cycles: 30,
    buffer_entries: 1024,
};

/// Switch-level fabric connecting the cluster (edge) switches.
///
/// The paper's node is a full mesh of two cluster switches (one link);
/// the scale-out fabrics add a two-tier fat-tree and a 3D torus so the
/// non-uniform-bandwidth mechanisms can be stress-tested across multi-hop
/// paths and oversubscription ratios.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricConfig {
    /// Every cluster switch links directly to every other cluster switch
    /// (the paper baseline: 2 switches, 1 inter link).
    Mesh,
    /// Two-tier fat-tree: every cluster (edge) switch uplinks to each of
    /// `cores` core switches. Oversubscription ratio =
    /// injection bandwidth / uplink bandwidth per edge switch.
    FatTree {
        /// Number of core-tier switches.
        cores: u16,
    },
    /// 3D torus of cluster switches with deterministic dimension-order
    /// routing (X, then Y, then Z) and dateline virtual channels for
    /// deadlock freedom on the wrap links.
    Torus {
        /// Ring length in X (fastest-varying coordinate).
        x: u16,
        /// Ring length in Y.
        y: u16,
        /// Ring length in Z (slowest-varying coordinate).
        z: u16,
    },
}

/// The bandwidth share of each of a torus channel's two virtual channels.
pub const TORUS_VC_SHARE: f64 = 0.5;

impl FabricConfig {
    /// Wire latency in cycles of every switch↔switch link of this kind:
    /// the paper-baseline mesh uses 1, the scale-out fabrics 4, so the
    /// per-link lookahead heterogeneity is real.
    pub const fn link_cycles(self) -> u32 {
        match self {
            FabricConfig::Mesh => 1,
            FabricConfig::FatTree { .. } | FabricConfig::Torus { .. } => 4,
        }
    }
}

/// Shape and bandwidths of the hierarchical interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyConfig {
    /// Number of GPU clusters (2 in the Frontier-inspired baseline). Each
    /// cluster owns one edge switch.
    pub clusters: u16,
    /// GPUs per cluster (2 in the baseline).
    pub gpus_per_cluster: u16,
    /// Intra-cluster (higher-bandwidth) link rate in GB/s — bytes/cycle at
    /// the 1 GHz clock. Baseline: 128.
    pub intra_gbps: f64,
    /// Inter-cluster (lower-bandwidth) link rate in GB/s. Baseline: 16.
    pub inter_gbps: f64,
    /// How the cluster switches are wired together (its kind also sets
    /// the fabric link latency, [`FabricConfig::link_cycles`]).
    pub fabric: FabricConfig,
}

impl TopologyConfig {
    /// Total number of GPUs in the node.
    #[inline]
    pub fn total_gpus(&self) -> u16 {
        self.clusters * self.gpus_per_cluster
    }

    /// Intra-cluster link bandwidth in bytes per cycle.
    #[inline]
    pub fn intra_bytes_per_cycle(&self) -> f64 {
        self.intra_gbps * CLOCK_GHZ
    }

    /// Inter-cluster link bandwidth in bytes per cycle.
    #[inline]
    pub fn inter_bytes_per_cycle(&self) -> f64 {
        self.inter_gbps * CLOCK_GHZ
    }

    /// Total number of switches in the fabric: one edge switch per
    /// cluster, plus the core tier for fat-trees.
    #[inline]
    pub fn num_switches(&self) -> u16 {
        match self.fabric {
            FabricConfig::Mesh | FabricConfig::Torus { .. } => self.clusters,
            FabricConfig::FatTree { cores } => self.clusters + cores,
        }
    }

    /// Checks that the fabric's nodes — every GPU, then every switch —
    /// fit the `u16` node-id space. Each count is a `u16` of its own, so
    /// a shape like `mesh:300x300` is representable while its node count
    /// is not.
    pub fn check_size(&self) -> Result<(), String> {
        let cores = match self.fabric {
            FabricConfig::Mesh | FabricConfig::Torus { .. } => 0,
            FabricConfig::FatTree { cores } => u32::from(cores),
        };
        let gpus = u32::from(self.clusters) * u32::from(self.gpus_per_cluster);
        let switches = u32::from(self.clusters) + cores;
        if gpus + switches > u32::from(u16::MAX) {
            return Err(format!(
                "{gpus} GPUs and {switches} switches exceed the 65535 nodes a fabric can address"
            ));
        }
        Ok(())
    }

    /// Distinct fabric neighbors of one edge switch (physical links, not
    /// virtual channels). Used for oversubscription and capacity math.
    pub fn fabric_links_per_edge(&self) -> u16 {
        match self.fabric {
            FabricConfig::Mesh => self.clusters.saturating_sub(1),
            FabricConfig::FatTree { cores } => cores,
            FabricConfig::Torus { x, y, z } => [x, y, z]
                .iter()
                .map(|&d| match d {
                    0 | 1 => 0u16,
                    2 => 1,
                    _ => 2,
                })
                .sum(),
        }
    }

    /// Injection-to-uplink bandwidth ratio at one edge switch: the
    /// fat-tree oversubscription knob, generalized to all fabrics.
    pub fn oversubscription(&self) -> f64 {
        let uplinks = self.fabric_links_per_edge();
        if uplinks == 0 {
            return 0.0;
        }
        (self.gpus_per_cluster as f64 * self.intra_gbps) / (uplinks as f64 * self.inter_gbps)
    }

    /// Parses a `--topology` CLI spec into a topology with the paper's
    /// baseline bandwidths (override via the returned struct's fields).
    ///
    /// Grammar (case-sensitive, `:`-separated options):
    /// * `mesh` or `mesh:CxG` — full mesh of `C` clusters × `G` GPUs
    ///   (default 2×2 — the paper baseline).
    /// * `fat-tree:k=K[:g=G][:cores=N]` — `K` edge switches × `G` GPUs
    ///   (default 2) with `N` cores (default `K/2`).
    /// * `torus:XxYxZ[:g=G]` — `X·Y·Z` switches × `G` GPUs (default 1).
    pub fn parse_spec(spec: &str) -> Result<Self, String> {
        let baseline = SystemConfig::paper_baseline().topology;
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or("");
        let opts: Vec<&str> = parts.collect();
        let parse_u16 = |s: &str, what: &str| -> Result<u16, String> {
            s.parse::<u16>()
                .map_err(|_| format!("--topology: bad {what} {s:?} in {spec:?}"))
        };
        let parse_dims = |s: &str| -> Result<(u16, u16, u16), String> {
            let d: Vec<&str> = s.split('x').collect();
            if d.len() != 3 {
                return Err(format!("--topology: expected XxYxZ, got {s:?} in {spec:?}"));
            }
            Ok((
                parse_u16(d[0], "dimension")?,
                parse_u16(d[1], "dimension")?,
                parse_u16(d[2], "dimension")?,
            ))
        };
        let parsed = match kind {
            "mesh" => {
                let mut t = baseline;
                if let Some(shape) = opts.first() {
                    let d: Vec<&str> = shape.split('x').collect();
                    if d.len() != 2 {
                        return Err(format!("--topology: expected mesh:CxG, got {spec:?}"));
                    }
                    t.clusters = parse_u16(d[0], "cluster count")?;
                    t.gpus_per_cluster = parse_u16(d[1], "GPUs per cluster")?;
                }
                if let Some(o) = opts.get(1) {
                    return Err(format!("--topology: unknown option {o:?} in {spec:?}"));
                }
                t
            }
            "fat-tree" => {
                let mut k = None;
                let mut g = 2u16;
                let mut cores = None;
                for o in &opts {
                    if let Some(v) = o.strip_prefix("k=") {
                        k = Some(parse_u16(v, "edge count")?);
                    } else if let Some(v) = o.strip_prefix("g=") {
                        g = parse_u16(v, "GPUs per cluster")?;
                    } else if let Some(v) = o.strip_prefix("cores=") {
                        cores = Some(parse_u16(v, "core count")?);
                    } else {
                        return Err(format!("--topology: unknown option {o:?} in {spec:?}"));
                    }
                }
                let k = k.ok_or_else(|| format!("--topology: fat-tree needs k=K in {spec:?}"))?;
                TopologyConfig {
                    clusters: k,
                    gpus_per_cluster: g,
                    fabric: FabricConfig::FatTree {
                        cores: cores.unwrap_or_else(|| (k / 2).max(1)),
                    },
                    ..baseline
                }
            }
            "torus" => {
                let dims = opts
                    .first()
                    .ok_or_else(|| format!("--topology: torus needs XxYxZ in {spec:?}"))?;
                let (x, y, z) = parse_dims(dims)?;
                let mut g = 1u16;
                for o in &opts[1..] {
                    if let Some(v) = o.strip_prefix("g=") {
                        g = parse_u16(v, "GPUs per cluster")?;
                    } else {
                        return Err(format!("--topology: unknown option {o:?} in {spec:?}"));
                    }
                }
                let clusters = x
                    .checked_mul(y)
                    .and_then(|xy| xy.checked_mul(z))
                    .ok_or_else(|| {
                        format!("--topology: {dims:?} exceeds 65535 switches in {spec:?}")
                    })?;
                TopologyConfig {
                    clusters,
                    gpus_per_cluster: g,
                    fabric: FabricConfig::Torus { x, y, z },
                    ..baseline
                }
            }
            _ => {
                return Err(format!(
                    "--topology: unknown fabric {kind:?} (mesh | fat-tree | torus) in {spec:?}"
                ))
            }
        };
        parsed
            .check_size()
            .map_err(|e| format!("--topology: {e} in {spec:?}"))?;
        Ok(parsed)
    }
}

/// Flit Pooling (§4.2): how long a stitching parent that found no
/// candidate may wait in its partition's side slot for one.
///
/// A window is never zero: no pooling is [`Pooling::Off`], and
/// [`Pooling::new`] maps a zero window there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pooling {
    /// A parent without a candidate ejects at once.
    Off,
    /// Every partition's parents may wait up to `window` cycles.
    All {
        /// Pooling window in cycles.
        window: NonZeroU32,
    },
    /// Selective Flit Pooling (§4.2, Optimization II): as [`Pooling::All`],
    /// but latency-critical PTW parents never wait.
    Selective {
        /// Pooling window in cycles.
        window: NonZeroU32,
    },
}

impl Pooling {
    /// Pooling with a `window`-cycle window, selective or not; a zero
    /// window is [`Pooling::Off`]. The paper sweeps 32–128 cycles and
    /// picks 32 (Figures 18/19).
    pub const fn new(window: u32, selective: bool) -> Self {
        match NonZeroU32::new(window) {
            None => Pooling::Off,
            Some(window) if selective => Pooling::Selective { window },
            Some(window) => Pooling::All { window },
        }
    }
}

/// Sequencing (§4.3): which Cluster Queue partitions are served ahead of
/// the round-robin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// The design: page-table responses and requests first.
    Ptw,
    /// Figure 8's counterfactual: read responses and requests first —
    /// the "prioritize the same fraction of data accesses" comparison
    /// that shows PTW traffic is the latency-critical class.
    Data,
}

impl Priority {
    /// The two prioritized partitions' packet kinds, in service order.
    pub const fn kinds(self) -> [PacketKind; 2] {
        match self {
            Priority::Ptw => [PacketKind::PageTableRsp, PacketKind::PageTableReq],
            Priority::Data => [PacketKind::ReadRsp, PacketKind::ReadReq],
        }
    }
}

/// Per-mechanism NetCrafter configuration (§4): one value per Cluster
/// Queue mechanism. Trimming is not here: it is the L1's
/// [`SectorFillPolicy::OnTrim`] fill ([`SystemConfig::sector_fill`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetCrafterConfig {
    /// The Stitching Engine (§4.2) and its Flit Pooling; `None` is
    /// stitching off (and so pooling too).
    pub stitching: Option<Pooling>,
    /// Sequencing (§4.3) and the partitions it serves first; `None` is
    /// plain round-robin. PTW parents never pool under Sequencing (§4.4
    /// step 4e), whichever partitions it prioritizes.
    pub sequencing: Option<Priority>,
    /// How deep into each Cluster Queue partition the Stitching Engine
    /// searches for candidates — the width of the controller's candidate
    /// CAM. The paper does not specify this; 16 is our default and the
    /// ablation harness sweeps it.
    pub stitch_search_depth: u32,
    /// Policy activation cycle: the Cluster Queue knobs (stitching,
    /// pooling, sequencing and their refinements) stay inert until this
    /// cycle, so every configuration that differs only in those knobs
    /// evolves identically through the warmup window. 0 (the default)
    /// activates everything from cycle 0 — the historical behavior.
    ///
    /// This is the lever behind prefix-sharing sweeps: jobs whose
    /// [`SystemConfig::warmup_repr`] match can execute the shared
    /// `[0, warmup_cycles)` prefix once and fork the snapshot into each
    /// divergent suffix. Trimming is not a knob here: it is the L1's
    /// [`SystemConfig::sector_fill`], which acts through construction
    /// and from cycle 0, like the trim granularity, so both stay part
    /// of the prefix identity.
    pub warmup_cycles: u64,
}

impl NetCrafterConfig {
    /// Everything off: the plain non-uniform baseline.
    pub const fn disabled() -> Self {
        Self {
            stitching: None,
            sequencing: None,
            stitch_search_depth: 16,
            warmup_cycles: 0,
        }
    }

    /// The Cluster Queue knobs of the full NetCrafter design evaluated in
    /// Figure 14: Stitching with 32-cycle Selective Flit Pooling, and
    /// Sequencing (its Trimming is the L1's
    /// [`SectorFillPolicy::OnTrim`]).
    pub const fn full() -> Self {
        Self {
            stitching: Some(Pooling::new(32, true)),
            sequencing: Some(Priority::Ptw),
            ..Self::disabled()
        }
    }

    /// Stitching only (no pooling) — the leftmost NetCrafter bar of
    /// Figures 12/18/19.
    pub const fn stitching_only() -> Self {
        Self {
            stitching: Some(Pooling::Off),
            ..Self::disabled()
        }
    }

    /// True once the policy knobs have activated at `now`. Warmup-gated
    /// components (the Cluster Queue) consult this at every knob decision
    /// point; before activation they behave exactly like a disabled
    /// configuration.
    #[inline]
    pub const fn active_at(&self, now: u64) -> bool {
        now >= self.warmup_cycles
    }

    /// This configuration with every warmup-gated knob forced to its
    /// inert value. Two configurations with equal `inert()` (and equal
    /// `warmup_cycles`, which is preserved) are byte-identical through
    /// the warmup window — the property the prefix-sharing planner keys
    /// on. Every knob here is warmup-gated.
    pub const fn inert(&self) -> Self {
        Self {
            warmup_cycles: self.warmup_cycles,
            ..Self::disabled()
        }
    }
}

/// What a study varies: the Table 2 values a figure or sensitivity study
/// sets, the NetCrafter mechanisms and the study knobs. The fixed rest of
/// Table 2 is the constants [`CU`], [`L1`], [`L2`], [`L1_TLB`], [`GMMU`],
/// [`DRAM`] and [`SWITCH`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Interconnect shape and bandwidths.
    pub topology: TopologyConfig,
    /// Compute units per GPU (Table 2: 64; tests and fast experiments use
    /// scaled-down counts with proportionally scaled workloads).
    pub cus_per_gpu: u16,
    /// L2 TLB (per GPU): 512-entry, 8-way, 10-cycle, 64-entry MSHR.
    pub l2_tlb: TlbConfig,
    /// Flit size in bytes (16 baseline, 8 in Figure 21).
    pub flit_bytes: u32,
    /// NetCrafter mechanisms.
    pub netcrafter: NetCrafterConfig,
    /// L1 fill policy (baseline / Trimming / sector-cache comparison);
    /// [`SectorFillPolicy::OnTrim`] is what turns Trimming on.
    pub sector_fill: SectorFillPolicy,
    /// Trimming / sector granularity in bytes (16 default; 4 and 8 in
    /// Figure 17).
    pub trim_granularity: u32,
}

impl SystemConfig {
    /// The paper's Table 2 baseline: 2 clusters × 2 GPUs, 128/16 GB/s,
    /// 64 CUs per GPU, NetCrafter disabled (with the fixed constants
    /// above, the whole of Table 2; `--topology mesh`).
    pub fn paper_baseline() -> Self {
        Self {
            topology: TopologyConfig {
                clusters: 2,
                gpus_per_cluster: 2,
                intra_gbps: 128.0,
                inter_gbps: 16.0,
                fabric: FabricConfig::Mesh,
            },
            cus_per_gpu: 64,
            l2_tlb: TlbConfig {
                entries: 512,
                ways: 8,
                lookup_cycles: 10,
                mshr_entries: 64,
            },
            flit_bytes: 16,
            netcrafter: NetCrafterConfig::disabled(),
            sector_fill: SectorFillPolicy::FullLine,
            trim_granularity: SECTOR_BYTES as u32,
        }
    }

    /// A scaled-down configuration for unit/integration tests and fast
    /// experiments: same ratios and latencies as the paper baseline but
    /// fewer CUs. Workload footprints must be scaled accordingly.
    pub fn small(cus_per_gpu: u16) -> Self {
        Self {
            cus_per_gpu,
            ..Self::paper_baseline()
        }
    }

    /// Replaces the topology's shape, keeping the baseline bandwidths
    /// and every non-network parameter.
    fn with_fabric(mut self, clusters: u16, gpus_per_cluster: u16, fabric: FabricConfig) -> Self {
        self.topology.clusters = clusters;
        self.topology.gpus_per_cluster = gpus_per_cluster;
        self.topology.fabric = fabric;
        self
    }

    /// 8-GPU fat-tree: 4 edge switches × 2 GPUs, 2 cores (2:1 fat-tree
    /// stage, 8:1 with the bandwidth taper — `--topology fat-tree:k=4`).
    pub fn fat_tree_8() -> Self {
        Self::paper_baseline().with_fabric(4, 2, FabricConfig::FatTree { cores: 2 })
    }

    /// 16-GPU fat-tree: 8 edge switches × 2 GPUs, 4 cores
    /// (`--topology fat-tree:k=8`).
    pub fn fat_tree_16() -> Self {
        Self::paper_baseline().with_fabric(8, 2, FabricConfig::FatTree { cores: 4 })
    }

    /// 64-GPU fat-tree: 16 edge switches × 4 GPUs, 8 cores
    /// (`--topology fat-tree:k=16:g=4:cores=8`).
    pub fn fat_tree_64() -> Self {
        Self::paper_baseline().with_fabric(16, 4, FabricConfig::FatTree { cores: 8 })
    }

    /// 8-GPU 3D torus: 2×2×2 switches, one GPU each
    /// (`--topology torus:2x2x2`).
    pub fn torus_8() -> Self {
        Self::paper_baseline().with_fabric(8, 1, FabricConfig::Torus { x: 2, y: 2, z: 2 })
    }

    /// 64-GPU 3D torus: 4×4×4 switches, one GPU each
    /// (`--topology torus:4x4x4`).
    pub fn torus_64() -> Self {
        Self::paper_baseline().with_fabric(64, 1, FabricConfig::Torus { x: 4, y: 4, z: 4 })
    }

    /// The *ideal* configuration of Figure 3: every link runs at the
    /// intra-cluster bandwidth, removing the non-uniformity.
    pub fn idealized(mut self) -> Self {
        self.topology.inter_gbps = self.topology.intra_gbps;
        self
    }

    /// True if the L1 trims: a cross-cluster read that fits one sector
    /// asks for that sector alone, and the RDMA engine counts it (§4.3).
    pub const fn trimming(&self) -> bool {
        matches!(self.sector_fill, SectorFillPolicy::OnTrim)
    }

    /// True if any NetCrafter mechanism is on, so every inter-cluster
    /// egress port gets a Cluster Queue instead of a plain FIFO.
    /// `warmup_cycles` deliberately does not count: it delays mechanisms,
    /// it is not one, and the component roster must not depend on it.
    pub const fn any_enabled(&self) -> bool {
        let nc = &self.netcrafter;
        nc.stitching.is_some() || nc.sequencing.is_some() || self.trimming()
    }

    /// Total GPUs in the node.
    #[inline]
    pub fn total_gpus(&self) -> u16 {
        self.topology.total_gpus()
    }

    /// The GPU whose HBM partition owns physical address `pa`.
    #[inline]
    pub fn pa_owner(&self, pa: u64) -> GpuId {
        GpuId((pa >> PA_GPU_REGION_BITS) as u16)
    }

    /// Sectors per 64 B line at the configured trim granularity.
    #[inline]
    pub fn sectors_per_line(&self) -> u32 {
        (LINE_BYTES as u32) / self.trim_granularity
    }

    /// All-sectors mask for the configured granularity.
    #[inline]
    pub fn full_sector_mask(&self) -> u16 {
        ((1u32 << self.sectors_per_line()) - 1) as u16
    }

    /// The cache identity of a simulation: the derived `Debug` form, so
    /// every field is in it by construction. Two configs with equal
    /// `stable_repr` produce identical runs (given equal workload, scale
    /// and seed). Floats print in their shortest round-tripping form and
    /// [`Self::validate`] admits only positive finite bandwidths, so the
    /// string is exact.
    pub fn stable_repr(&self) -> String {
        format!("{self:?}")
    }

    /// The *warmup identity* of this configuration: [`Self::stable_repr`]
    /// with every warmup-gated NetCrafter knob masked to its inert value
    /// (see [`NetCrafterConfig::inert`]), plus a roster token recording
    /// whether a NetCrafter controller is instantiated at all.
    ///
    /// Two configurations with equal `warmup_repr` — and a nonzero,
    /// therefore equal, `warmup_cycles` — produce byte-identical
    /// simulation state over `[0, warmup_cycles)`, and snapshots taken in
    /// that window carry the same run id and restore into either.
    /// This string is the internal-node key of the prefix-sharing plan
    /// tree.
    pub fn warmup_repr(&self) -> String {
        let mut masked = *self;
        masked.netcrafter = self.netcrafter.inert();
        // The roster differs between "some mechanism on" (ClusterQueue)
        // and "all off" (FifoQueue) even though the masked knobs agree,
        // so it must be part of the key.
        format!("roster={};{masked:?}", u8::from(self.any_enabled()))
    }

    /// Validates internal consistency; called by the system builder.
    pub fn validate(&self) -> Result<(), String> {
        if self.flit_bytes == 0 || !self.flit_bytes.is_power_of_two() {
            return Err(format!(
                "flit size must be a power of two, got {}",
                self.flit_bytes
            ));
        }
        if self.trim_granularity == 0 || 64 % self.trim_granularity != 0 {
            return Err(format!(
                "trim granularity must divide the 64 B line, got {}",
                self.trim_granularity
            ));
        }
        if self.topology.clusters == 0 || self.topology.gpus_per_cluster == 0 {
            return Err("topology must contain at least one GPU".into());
        }
        self.topology.check_size()?;
        for (which, gbps) in [
            ("intra", self.topology.intra_gbps),
            ("inter", self.topology.inter_gbps),
        ] {
            if !(gbps.is_finite() && gbps > 0.0) {
                return Err(format!(
                    "{which}-cluster link bandwidth must be positive and finite, got {gbps} GB/s"
                ));
            }
        }
        let flit = f64::from(self.flit_bytes);
        let inter = self.topology.inter_bytes_per_cycle() / flit;
        rate_tokens(
            "intra-cluster link rate in flits",
            self.topology.intra_bytes_per_cycle() / flit,
        )?;
        rate_tokens("inter-cluster link rate in flits", inter)?;
        if let FabricConfig::Torus { .. } = self.topology.fabric {
            rate_tokens(
                "torus virtual channel rate in flits",
                inter * TORUS_VC_SHARE,
            )?;
        }
        match self.topology.fabric {
            FabricConfig::Mesh => {}
            FabricConfig::FatTree { cores } => {
                if cores == 0 {
                    return Err("fat-tree needs at least one core switch".into());
                }
            }
            FabricConfig::Torus { x, y, z } => {
                if x == 0 || y == 0 || z == 0 {
                    return Err(format!("torus dimensions must be nonzero, got {x}x{y}x{z}"));
                }
                if (x as u32) * (y as u32) * (z as u32) != self.topology.clusters as u32 {
                    return Err(format!(
                        "torus {x}x{y}x{z} does not match {} clusters",
                        self.topology.clusters
                    ));
                }
            }
        }
        if self.cus_per_gpu == 0 {
            return Err("need at least one CU per GPU".into());
        }
        if self.l2_tlb.mshr_entries == 0 {
            return Err("l2_tlb.mshr_entries must be at least 1, got 0".into());
        }
        check_tlb_sets("l2_tlb", &self.l2_tlb)
    }
}

/// Checks that a TLB's entries fill whole sets (`u32::MAX` ways is one
/// fully associative set).
fn check_tlb_sets(what: &str, tlb: &TlbConfig) -> Result<(), String> {
    let ways = match tlb.ways {
        u32::MAX => tlb.entries,
        ways => ways,
    };
    check_sets(what, u64::from(tlb.entries), ways)
}

/// Checks that `entries` fill whole sets of `ways` ways: anything else
/// panics when the tag array is built or silently drops entries.
fn check_sets(what: &str, entries: u64, ways: u32) -> Result<(), String> {
    if entries == 0 || ways == 0 || !entries.is_multiple_of(u64::from(ways)) {
        return Err(format!(
            "{what} must hold a whole, non-zero number of {ways}-way sets, got {entries} entries"
        ));
    }
    Ok(())
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

/// 64-bit FNV-1a: the workspace's standard stable hash for cache keys
/// (dependency-free and identical across platforms and runs, unlike
/// `std::hash::DefaultHasher`, which is seeded per process).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table2() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.cus_per_gpu, 64);
        assert_eq!(CU.max_waves, 40);
        assert_eq!(CU.max_outstanding, 32);
        assert_eq!(CU.max_loads_per_wave, 4);
        assert_eq!(L1.size_bytes, 64 * 1024);
        assert_eq!(L1.ways, 4);
        assert_eq!(L1.lookup_cycles, 20);
        assert_eq!(L1.mshr_entries, 32);
        assert_eq!(L1_TLB.entries, 32);
        assert_eq!(L1_TLB.lookup_cycles, 1);
        assert_eq!(c.l2_tlb.entries, 512);
        assert_eq!(c.l2_tlb.ways, 8);
        assert_eq!(c.l2_tlb.lookup_cycles, 10);
        assert_eq!(L2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(L2.ways, 16);
        assert_eq!(L2.lookup_cycles, 100);
        assert_eq!(DRAM.bytes_per_cycle, 1000);
        assert_eq!(DRAM.latency_cycles, 100);
        assert_eq!(GMMU.walkers, 16);
        assert_eq!(GMMU.pwc_entries, 32);
        assert_eq!(SWITCH.pipeline_cycles, 30);
        assert_eq!(SWITCH.buffer_entries, 1024);
        assert_eq!(c.topology.inter_gbps, 16.0);
        assert_eq!(c.topology.intra_gbps, 128.0);
        assert_eq!(c.flit_bytes, 16);
        assert!(c.validate().is_ok());
    }

    /// Every fixed Table 2 block can be built: its limits are non-zero and
    /// its entries fill whole sets, so a bad edit to a constant fails here
    /// and not in a builder's panic or a silently smaller array.
    #[test]
    fn table2_constants_are_buildable() {
        for (what, limit) in [
            ("CU.max_waves", u32::from(CU.max_waves)),
            ("CU.max_outstanding", CU.max_outstanding),
            ("CU.max_loads_per_wave", u32::from(CU.max_loads_per_wave)),
            ("L1.mshr_entries", L1.mshr_entries),
            ("L2.mshr_entries per bank", L2.mshr_entries / L2_BANKS),
            ("GMMU.pwc_entries", GMMU.pwc_entries),
            ("GMMU.walkers", GMMU.walkers),
            ("DRAM.bytes_per_cycle", DRAM.bytes_per_cycle),
            ("SWITCH.buffer_entries", SWITCH.buffer_entries),
        ] {
            assert!(limit > 0, "{what} is 0");
        }
        assert_eq!(L2.mshr_entries % L2_BANKS, 0, "L2 MSHRs split evenly");
        let l2_bank = L2.size_bytes / u64::from(L2_BANKS);
        for (what, bytes, ways) in [
            ("L1", L1.size_bytes, L1.ways),
            ("L2 bank", l2_bank, L2.ways),
        ] {
            assert!(bytes.is_multiple_of(LINE_BYTES), "{what}: {bytes} B");
            assert_eq!(check_sets(what, bytes / LINE_BYTES, ways), Ok(()));
        }
        assert_eq!(check_tlb_sets("L1_TLB", &L1_TLB), Ok(()));
        let pwc = GMMU.pwc_entries;
        assert_eq!(check_sets("GMMU page-walk cache", pwc.into(), pwc), Ok(()));
    }

    #[test]
    fn bandwidth_ratio_is_8_to_1() {
        let t = SystemConfig::paper_baseline().topology;
        assert_eq!(t.intra_bytes_per_cycle() / t.inter_bytes_per_cycle(), 8.0);
        // 16 GB/s at 16 B flits = exactly 1 flit/cycle on the slow link.
        assert_eq!(t.inter_bytes_per_cycle(), 16.0);
    }

    #[test]
    fn idealized_removes_nonuniformity() {
        let c = SystemConfig::paper_baseline().idealized();
        assert_eq!(c.topology.inter_gbps, c.topology.intra_gbps);
    }

    #[test]
    fn cluster_crossing() {
        let t = SystemConfig::paper_baseline().topology;
        assert_eq!(t.total_gpus(), 4);
    }

    #[test]
    fn pa_partitioning() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.pa_owner(0), GpuId(0));
        assert_eq!(c.pa_owner(1 << PA_GPU_REGION_BITS), GpuId(1));
        assert_eq!(c.pa_owner((3 << PA_GPU_REGION_BITS) + 0x123456), GpuId(3));
    }

    #[test]
    fn netcrafter_presets() {
        let base = SystemConfig::paper_baseline();
        assert!(!base.any_enabled() && !base.trimming());
        let full = NetCrafterConfig::full();
        assert_eq!(full.stitching, Some(Pooling::new(32, true)));
        assert_eq!(full.sequencing, Some(Priority::Ptw));
        let nc = SystemConfig {
            netcrafter: full,
            sector_fill: SectorFillPolicy::OnTrim,
            ..base
        };
        assert!(nc.any_enabled() && nc.trimming());
        let s = NetCrafterConfig::stitching_only();
        assert_eq!((s.stitching, s.sequencing), (Some(Pooling::Off), None));
        // A zero window is no pooling, whether or not it is selective.
        assert_eq!(Pooling::new(0, true), Pooling::Off);
        assert_eq!(Pooling::new(0, false), Pooling::Off);
        assert!(matches!(Pooling::new(64, false), Pooling::All { window } if window.get() == 64));
        // The sectored fill alone is Trimming, and builds the roster.
        let mut trim = base;
        trim.sector_fill = SectorFillPolicy::OnTrim;
        assert!(trim.trimming() && trim.any_enabled());
    }

    #[test]
    fn sector_masks() {
        let c = SystemConfig::paper_baseline();
        assert_eq!(c.sectors_per_line(), 4);
        assert_eq!(c.full_sector_mask(), 0b1111);
        let mut c4 = c;
        c4.trim_granularity = 4;
        assert_eq!(c4.sectors_per_line(), 16);
        assert_eq!(c4.full_sector_mask(), 0xffff);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = SystemConfig::paper_baseline();
        c.flit_bytes = 12;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_baseline();
        c.trim_granularity = 24;
        assert!(c.validate().is_err());

        for gbps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = SystemConfig::paper_baseline();
            c.topology.inter_gbps = gbps;
            assert!(c.validate().is_err(), "inter {gbps}");
        }
        // A rate below a bucket's token is named and refused; so is a
        // torus rate that its virtual channels would halve below one.
        let mut c = SystemConfig::paper_baseline();
        c.topology.inter_gbps = 1e-30;
        assert_eq!(
            c.validate().expect_err("too slow to meter"),
            "inter-cluster link rate in flits 6.25e-32 per cycle is refused: a bandwidth \
             bucket holds positive whole multiples of 1e-18 per cycle"
        );
        let mut c = SystemConfig::torus_8();
        c.topology.inter_gbps = 16e-18;
        let err = c.validate().expect_err("half a token");
        assert!(err.starts_with("torus virtual channel rate"), "{err}");

        // An MSHR-less L2 TLB cannot be built.
        let mut c = SystemConfig::paper_baseline();
        c.l2_tlb.mshr_entries = 0;
        let err = c.validate().expect_err("zero limit");
        assert!(err.ends_with("got 0") && !err.contains('\n'), "{err}");

        // A TLB geometry that would panic in the builder or give a smaller
        // array than configured.
        for bad in [
            |c: &mut SystemConfig| c.l2_tlb.entries = 0,
            |c: &mut SystemConfig| {
                c.l2_tlb.entries = 0;
                c.l2_tlb.ways = u32::MAX;
            },
            |c: &mut SystemConfig| c.l2_tlb.ways = 0,
            |c: &mut SystemConfig| c.l2_tlb.entries = 500,
        ] {
            let mut c = SystemConfig::paper_baseline();
            bad(&mut c);
            let err = c.validate().expect_err("unbuildable geometry");
            assert!(!err.contains('\n'), "{err}");
        }
        // Fully associative and one-set TLBs are fine.
        for good in [
            |c: &mut SystemConfig| c.l2_tlb.ways = u32::MAX,
            |c: &mut SystemConfig| c.l2_tlb.entries = 8,
        ] {
            let mut c = SystemConfig::paper_baseline();
            good(&mut c);
            assert_eq!(c.validate(), Ok(()));
        }

        let nc = SystemConfig {
            netcrafter: NetCrafterConfig::full(),
            sector_fill: SectorFillPolicy::OnTrim,
            ..SystemConfig::paper_baseline()
        };
        assert!(nc.validate().is_ok());
    }

    #[test]
    fn stable_repr_distinguishes_every_knob() {
        let base = SystemConfig::paper_baseline();
        assert_eq!(
            base.stable_repr(),
            SystemConfig::paper_baseline().stable_repr()
        );

        // A representative field from each sub-struct must perturb the key.
        let mut variants: Vec<SystemConfig> = Vec::new();
        variants.push(base.idealized());
        variants.push(SystemConfig {
            netcrafter: NetCrafterConfig::full(),
            ..base
        });
        variants.push(SystemConfig {
            sector_fill: SectorFillPolicy::Always,
            ..base
        });
        let mut c = base;
        c.cus_per_gpu = 8;
        variants.push(c);
        let mut c = base;
        c.flit_bytes = 8;
        variants.push(c);
        let mut c = base;
        c.trim_granularity = 8;
        variants.push(c);
        let mut c = base;
        c.topology.clusters = 3;
        variants.push(c);
        let mut c = base;
        c.topology.fabric = FabricConfig::FatTree { cores: 1 };
        variants.push(c);
        variants.push(SystemConfig::fat_tree_8());
        variants.push(SystemConfig::fat_tree_16());
        variants.push(SystemConfig::fat_tree_64());
        variants.push(SystemConfig::torus_8());
        variants.push(SystemConfig::torus_64());
        let mut c = base;
        c.netcrafter.stitching = Some(Pooling::new(64, false));
        variants.push(c);
        let mut c = base;
        c.netcrafter.warmup_cycles = 5_000;
        variants.push(c);
        let mut c = base;
        c.l2_tlb.mshr_entries = 16;
        variants.push(c);

        let mut reprs = std::collections::BTreeSet::new();
        reprs.insert(base.stable_repr());
        for v in &variants {
            assert!(
                reprs.insert(v.stable_repr()),
                "collision: {}",
                v.stable_repr()
            );
        }
    }

    #[test]
    fn warmup_repr_masks_policy_knobs_but_keys_roster_and_fill() {
        // Two configs that differ only in warmup-inert policy knobs must share
        // a prefix key: both run the full ClusterQueue roster with every knob
        // gated off until `warmup_cycles`.
        let mut full = SystemConfig {
            netcrafter: NetCrafterConfig::full(),
            sector_fill: SectorFillPolicy::OnTrim,
            ..SystemConfig::paper_baseline()
        };
        full.netcrafter.warmup_cycles = 2_000;
        let mut variant = full;
        variant.netcrafter.sequencing = None;
        variant.netcrafter.stitching = Some(Pooling::Off);
        variant.netcrafter.stitch_search_depth = 4;
        assert_ne!(full.stable_repr(), variant.stable_repr());
        assert_eq!(full.warmup_repr(), variant.warmup_repr());

        // Baseline (all knobs off) builds a FifoQueue roster: its snapshot
        // layout is incompatible, so the key must differ even though the
        // masked knob values match.
        let mut baseline = SystemConfig::paper_baseline();
        baseline.netcrafter.warmup_cycles = 2_000;
        assert_ne!(baseline.warmup_repr(), full.warmup_repr());

        // Trimming is the construction-time L1 fill policy, so it is NOT
        // masked out of the prefix key.
        let mut no_trim = full;
        no_trim.sector_fill = SectorFillPolicy::FullLine;
        assert_ne!(no_trim.warmup_repr(), full.warmup_repr());

        // Different warmup horizons simulate different prefixes.
        let mut longer = full;
        longer.netcrafter.warmup_cycles = 4_000;
        assert_ne!(longer.warmup_repr(), full.warmup_repr());

        // Physical divergence (scale) always splits the key.
        let mut scaled = full;
        scaled.cus_per_gpu = 8;
        assert_ne!(scaled.warmup_repr(), full.warmup_repr());
    }

    #[test]
    fn active_at_respects_warmup() {
        let mut nc = NetCrafterConfig::full();
        assert!(nc.active_at(0));
        nc.warmup_cycles = 100;
        assert!(!nc.active_at(0));
        assert!(!nc.active_at(99));
        assert!(nc.active_at(100));
        // `inert()` keeps the warmup horizon, drops the rest.
        let inert = nc.inert();
        assert_eq!((inert.stitching, inert.sequencing), (None, None));
        assert_eq!(inert.warmup_cycles, nc.warmup_cycles);
    }

    /// A rate is the decimal it prints, in whole tokens.
    #[test]
    fn rates_are_their_decimals_in_tokens() {
        for (rate, tokens) in [
            (1.0, RATE_UNIT),
            (8.0, 8 * RATE_UNIT),
            (0.3, 3 * RATE_UNIT / 10),
            (0.05 * 1.0137, 50_685_000_000_000_010),
            (1e-18, 1),
            (1000.0, 1000 * RATE_UNIT),
        ] {
            assert_eq!(rate_tokens("rate", rate), Ok(tokens), "{rate:?}");
        }
        for refused in [0.0, -1.0, 1e-19, 1.5e-18, f64::NAN, f64::INFINITY, 1e30] {
            let err = rate_tokens("rate", refused).expect_err("refused");
            assert!(
                err.starts_with(&format!("rate {refused:?} per cycle is refused")),
                "{err}"
            );
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn scale_out_presets_validate() {
        for (cfg, gpus, switches) in [
            (SystemConfig::fat_tree_8(), 8, 6),
            (SystemConfig::fat_tree_16(), 16, 12),
            (SystemConfig::fat_tree_64(), 64, 24),
            (SystemConfig::torus_8(), 8, 8),
            (SystemConfig::torus_64(), 64, 64),
        ] {
            assert!(cfg.validate().is_ok(), "{:?}", cfg.topology.fabric);
            assert_eq!(cfg.total_gpus(), gpus);
            assert_eq!(cfg.topology.num_switches(), switches);
        }
        // fat_tree_8: 2 GPUs × 128 GB/s injected over 2 cores × 16 GB/s.
        assert_eq!(SystemConfig::fat_tree_8().topology.oversubscription(), 8.0);
        // torus_8 (2x2x2): 3 distinct neighbors per switch.
        assert_eq!(SystemConfig::torus_8().topology.fabric_links_per_edge(), 3);
        assert_eq!(SystemConfig::torus_64().topology.fabric_links_per_edge(), 6);
        // The mesh keeps the paper's one-cycle fabric wire.
        assert_eq!(FabricConfig::Mesh.link_cycles(), 1);
        assert_eq!(SystemConfig::fat_tree_8().topology.fabric.link_cycles(), 4);
        assert_eq!(SystemConfig::torus_8().topology.fabric.link_cycles(), 4);
    }

    /// Every topology preset is the spec its doc comment names.
    #[test]
    fn topology_presets_equal_their_specs() {
        for (preset, spec) in [
            (SystemConfig::paper_baseline(), "mesh"),
            (SystemConfig::fat_tree_8(), "fat-tree:k=4"),
            (SystemConfig::fat_tree_16(), "fat-tree:k=8"),
            (SystemConfig::fat_tree_64(), "fat-tree:k=16:g=4:cores=8"),
            (SystemConfig::torus_8(), "torus:2x2x2"),
            (SystemConfig::torus_64(), "torus:4x4x4"),
        ] {
            assert_eq!(
                TopologyConfig::parse_spec(spec),
                Ok(preset.topology),
                "{spec}"
            );
        }
    }

    #[test]
    fn topology_spec_parser() {
        let t = TopologyConfig::parse_spec("mesh:3x2").unwrap();
        assert_eq!((t.clusters, t.gpus_per_cluster), (3, 2));
        assert_eq!(t.fabric, FabricConfig::Mesh);

        let t = TopologyConfig::parse_spec("torus:4x2x1:g=2").unwrap();
        assert_eq!((t.clusters, t.gpus_per_cluster), (8, 2));
        assert_eq!(t.fabric, FabricConfig::Torus { x: 4, y: 2, z: 1 });

        for bad in [
            "ring",
            "fat-tree",
            "fat-tree:k=x",
            "fat-tree:k=4:banana",
            "torus",
            "torus:2x2",
            "torus:2x2x2:k=3",
            "torus:300x300x1",
            "torus:256x256x1",
            // Each count fits a u16, GPUs plus switches do not.
            "torus:255x257x1",
            "mesh:300x300",
            "mesh:256x255",
            "fat-tree:k=21845:g=2:cores=1",
            "mesh:3",
            "mesh:2x2:junk",
        ] {
            let err = TopologyConfig::parse_spec(bad).expect_err(bad);
            assert!(
                err.starts_with("--topology:") && !err.contains('\n'),
                "{bad}: {err}"
            );
        }
        // 21845 x (1 switch + 2 GPUs) = 65535 nodes: the largest that fit.
        let t = TopologyConfig::parse_spec("mesh:21845x2").unwrap();
        assert_eq!((t.clusters, t.gpus_per_cluster), (21845, 2));
    }

    #[test]
    fn fabric_validation() {
        let mut c = SystemConfig::torus_8();
        c.topology.clusters = 9; // 2x2x2 != 9
        assert!(c.validate().is_err());

        let mut c = SystemConfig::fat_tree_8();
        c.topology.fabric = FabricConfig::FatTree { cores: 0 };
        assert!(c.validate().is_err());

        // Node ids are u16: 300 x 300 GPUs do not fit, whichever way the
        // counts were set.
        let mut c = SystemConfig::paper_baseline();
        c.topology.clusters = 300;
        c.topology.gpus_per_cluster = 300;
        let err = c.validate().expect_err("90000 GPUs");
        assert!(err.contains("90000 GPUs"), "{err}");
    }

    #[test]
    fn sector_cache_preset() {
        let c = SystemConfig {
            sector_fill: SectorFillPolicy::Always,
            ..SystemConfig::paper_baseline()
        };
        assert_eq!(c.sector_fill, SectorFillPolicy::Always);
        assert!(!c.any_enabled() && !c.trimming());
    }
}
