//! System configuration: the paper's Table 2 baseline plus the NetCrafter
//! mechanism knobs and every sensitivity-study parameter.
//!
//! All components take their parameters from [`SystemConfig`]; the
//! experiment harness builds variants of the paper's baseline
//! ([`SystemConfig::paper_baseline`]) by toggling fields, exactly as the
//! evaluation section varies them (flit size, pooling window, bandwidth
//! ratios, sector policies).

use crate::addr::SECTOR_BYTES;
use crate::ids::{ClusterId, GpuId};

/// Simulated core clock: 1 GHz (Table 2), so 1 GB/s of link bandwidth is
/// exactly 1 byte per cycle.
pub const CLOCK_GHZ: f64 = 1.0;

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

    /// Cluster of a GPU.
    #[inline]
    pub fn cluster_of(&self, gpu: GpuId) -> ClusterId {
        gpu.cluster(self.gpus_per_cluster)
    }

    /// True if `a` and `b` are in different clusters, i.e. traffic between
    /// them crosses the lower-bandwidth inter-cluster network.
    #[inline]
    pub fn crosses_clusters(&self, a: GpuId, b: GpuId) -> bool {
        self.cluster_of(a) != self.cluster_of(b)
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

/// Per-mechanism NetCrafter configuration (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetCrafterConfig {
    /// Enable the Stitching Engine (§4.2).
    pub stitching: bool,
    /// Flit Pooling window in cycles; 0 disables pooling. The paper sweeps
    /// 32–128 and picks 32 as the sweet spot (Figure 18/19).
    pub pooling_window: u32,
    /// Selective Flit Pooling: exempt latency-critical (PTW) flits from
    /// the pooling delay (§4.2, Optimization II).
    pub selective_pooling: bool,
    /// Enable Sequencing: prioritize PTW flits at the Cluster Queue (§4.3).
    pub sequencing: bool,
    /// Figure 8 characterization support: when set (with `sequencing`),
    /// the Cluster Queue prioritizes *data read* partitions instead of the
    /// PTW partitions — the "prioritize the same fraction of data
    /// accesses" comparison the paper uses to show PTW traffic is the
    /// latency-critical class.
    pub prioritize_data_instead: bool,
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
            stitching: false,
            pooling_window: 0,
            selective_pooling: false,
            sequencing: false,
            prioritize_data_instead: false,
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
            stitching: true,
            pooling_window: 32,
            selective_pooling: true,
            sequencing: true,
            prioritize_data_instead: false,
            stitch_search_depth: 16,
            warmup_cycles: 0,
        }
    }

    /// Stitching only (no pooling) — the leftmost NetCrafter bar of
    /// Figures 12/18/19.
    pub const fn stitching_only() -> Self {
        Self {
            stitching: true,
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

/// Complete system configuration (Table 2 + NetCrafter + study knobs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Interconnect shape and bandwidths.
    pub topology: TopologyConfig,
    /// Compute units per GPU (Table 2: 64; tests and fast experiments use
    /// scaled-down counts with proportionally scaled workloads).
    pub cus_per_gpu: u16,
    /// Maximum wavefronts resident per CU (latency hiding depth).
    pub max_waves_per_cu: u16,
    /// Maximum outstanding memory accesses per CU.
    pub max_outstanding_per_cu: u32,
    /// Maximum outstanding loads per *wavefront* before it stalls waiting
    /// for data — models non-blocking loads up to the first use (GPU ISAs
    /// issue several independent loads back to back). 1 reproduces a
    /// strictly blocking wavefront.
    pub max_loads_per_wave: u16,
    /// L1 vector cache (per CU): 64 KB, 20-cycle lookup, 32-entry MSHR.
    pub l1: CacheConfig,
    /// Shared L2: 4 MB/GPU, [`L2_BANKS`] banks, 16-way, 100-cycle
    /// lookup, 64 MSHRs.
    pub l2: CacheConfig,
    /// L1 TLB (per CU): 32-entry fully associative, 1-cycle.
    pub l1_tlb: TlbConfig,
    /// L2 TLB (per GPU): 512-entry, 8-way, 10-cycle, 64-entry MSHR.
    pub l2_tlb: TlbConfig,
    /// GMMU: 32-entry PWC (10-cycle), 16 parallel walkers.
    pub gmmu: GmmuConfig,
    /// DRAM: 1 TB/s, 100 ns.
    pub dram: DramConfig,
    /// Network switch: 30-cycle pipeline, 1024-entry buffers.
    pub switch: SwitchConfig,
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
    /// 64 CUs per GPU, NetCrafter disabled.
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
            max_waves_per_cu: 40,
            max_outstanding_per_cu: 32,
            max_loads_per_wave: 4,
            l1: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 4,
                lookup_cycles: 20,
                mshr_entries: 32,
            },
            l2: CacheConfig {
                size_bytes: 4 * 1024 * 1024,
                ways: 16,
                lookup_cycles: 100,
                mshr_entries: 64,
            },
            l1_tlb: TlbConfig {
                entries: 32,
                ways: u32::MAX,
                lookup_cycles: 1,
                mshr_entries: 8,
            },
            l2_tlb: TlbConfig {
                entries: 512,
                ways: 8,
                lookup_cycles: 10,
                mshr_entries: 64,
            },
            gmmu: GmmuConfig {
                pwc_entries: 32,
                pwc_lookup_cycles: 10,
                walkers: 16,
            },
            dram: DramConfig {
                bytes_per_cycle: 1000,
                latency_cycles: 100,
            },
            switch: SwitchConfig {
                pipeline_cycles: 30,
                buffer_entries: 1024,
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

    /// Enables the full NetCrafter design (§5.2) with the paper's chosen
    /// parameters and the Trimming-aware L1 fill policy.
    pub fn with_netcrafter(mut self) -> Self {
        self.netcrafter = NetCrafterConfig::full();
        self.sector_fill = SectorFillPolicy::OnTrim;
        self
    }

    /// The sector-cache comparison baseline of §5.3: 16 B sectored L1
    /// fills everywhere, NetCrafter itself disabled.
    pub fn with_sector_cache(mut self) -> Self {
        self.netcrafter = NetCrafterConfig::disabled();
        self.sector_fill = SectorFillPolicy::Always;
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
        self.netcrafter.stitching || self.netcrafter.sequencing || self.trimming()
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
        (crate::addr::LINE_BYTES as u32) / self.trim_granularity
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
        for (field, limit) in [
            ("max_waves_per_cu", u32::from(self.max_waves_per_cu)),
            ("max_outstanding_per_cu", self.max_outstanding_per_cu),
            ("max_loads_per_wave", u32::from(self.max_loads_per_wave)),
        ] {
            if limit == 0 {
                return Err(format!("{field} must be at least 1, got 0"));
            }
        }
        Ok(())
    }
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
        assert_eq!(c.l1.size_bytes, 64 * 1024);
        assert_eq!(c.l1.lookup_cycles, 20);
        assert_eq!(c.l1.mshr_entries, 32);
        assert_eq!(c.l1_tlb.entries, 32);
        assert_eq!(c.l1_tlb.lookup_cycles, 1);
        assert_eq!(c.l2_tlb.entries, 512);
        assert_eq!(c.l2_tlb.ways, 8);
        assert_eq!(c.l2_tlb.lookup_cycles, 10);
        assert_eq!(c.l2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.l2.ways, 16);
        assert_eq!(c.l2.lookup_cycles, 100);
        assert_eq!(c.dram.bytes_per_cycle, 1000);
        assert_eq!(c.dram.latency_cycles, 100);
        assert_eq!(c.gmmu.walkers, 16);
        assert_eq!(c.gmmu.pwc_entries, 32);
        assert_eq!(c.switch.pipeline_cycles, 30);
        assert_eq!(c.switch.buffer_entries, 1024);
        assert_eq!(c.topology.inter_gbps, 16.0);
        assert_eq!(c.topology.intra_gbps, 128.0);
        assert_eq!(c.flit_bytes, 16);
        assert!(c.validate().is_ok());
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
        assert!(!t.crosses_clusters(GpuId(0), GpuId(1)));
        assert!(t.crosses_clusters(GpuId(1), GpuId(2)));
        assert!(t.crosses_clusters(GpuId(0), GpuId(3)));
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
        assert!(full.stitching && full.sequencing);
        assert_eq!(full.pooling_window, 32);
        assert!(full.selective_pooling);
        let nc = base.with_netcrafter();
        assert!(nc.any_enabled() && nc.trimming());
        let s = NetCrafterConfig::stitching_only();
        assert!(s.stitching && !s.sequencing);
        assert_eq!(s.pooling_window, 0);
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

        // A CU that may hold no wave, no access or no load never runs.
        for zero in [
            |c: &mut SystemConfig| c.max_waves_per_cu = 0,
            |c: &mut SystemConfig| c.max_outstanding_per_cu = 0,
            |c: &mut SystemConfig| c.max_loads_per_wave = 0,
        ] {
            let mut c = SystemConfig::paper_baseline();
            zero(&mut c);
            let err = c.validate().expect_err("zero CU limit");
            assert!(err.ends_with("got 0") && !err.contains('\n'), "{err}");
        }

        assert!(SystemConfig::paper_baseline()
            .with_netcrafter()
            .validate()
            .is_ok());
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
        variants.push(base.with_netcrafter());
        variants.push(base.with_sector_cache());
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
        c.netcrafter.pooling_window = 64;
        variants.push(c);
        let mut c = base;
        c.netcrafter.warmup_cycles = 5_000;
        variants.push(c);
        let mut c = base;
        c.l1.mshr_entries = 16;
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
        let mut full = SystemConfig::paper_baseline().with_netcrafter();
        full.netcrafter.warmup_cycles = 2_000;
        let mut variant = full;
        variant.netcrafter.sequencing = false;
        variant.netcrafter.pooling_window = 0;
        variant.netcrafter.selective_pooling = false;
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
        assert!(!inert.stitching && !inert.sequencing && !inert.selective_pooling);
        assert_eq!(inert.pooling_window, 0);
        assert_eq!(inert.warmup_cycles, nc.warmup_cycles);
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

    #[test]
    fn topology_spec_parser() {
        let t = TopologyConfig::parse_spec("mesh").unwrap();
        assert_eq!(t, SystemConfig::paper_baseline().topology);
        let t = TopologyConfig::parse_spec("mesh:3x2").unwrap();
        assert_eq!((t.clusters, t.gpus_per_cluster), (3, 2));
        assert_eq!(t.fabric, FabricConfig::Mesh);

        let t = TopologyConfig::parse_spec("fat-tree:k=4").unwrap();
        assert_eq!(t, SystemConfig::fat_tree_8().topology);
        let t = TopologyConfig::parse_spec("fat-tree:k=16:g=4:cores=8").unwrap();
        assert_eq!(t, SystemConfig::fat_tree_64().topology);

        let t = TopologyConfig::parse_spec("torus:2x2x2").unwrap();
        assert_eq!(t, SystemConfig::torus_8().topology);
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
        let c = SystemConfig::paper_baseline().with_sector_cache();
        assert_eq!(c.sector_fill, SectorFillPolicy::Always);
        assert!(!c.any_enabled() && !c.trimming());
    }
}
