//! Node assembly: instantiates and wires every component of the
//! non-uniform bandwidth multi-GPU system (Figure 2 / Table 2).

use std::collections::BTreeMap;
use std::sync::Arc;

use netcrafter_core::ClusterQueue;
use netcrafter_gpu::{lasp, Cu, CuWiring, Rdma, RdmaWiring};
use netcrafter_mem::l2::{L2Cache, L2Wiring};
use netcrafter_mem::Dram;
use netcrafter_net::PortSeries;
use netcrafter_net::{FifoQueue, Switch, Topology};
use netcrafter_proto::config::{CU, DRAM, GMMU, L1, L2, L2_BANKS, PA_GPU_REGION_BITS, SWITCH};
use netcrafter_proto::WavefrontTrace;
use netcrafter_proto::{fnv1a64, GpuId, KernelSpec, Metrics, SystemConfig};
use netcrafter_sim::snapshot::{
    read_header, write_header, ForkSnapshot, Snap, SnapshotError, SnapshotReader, SnapshotWriter,
};
use netcrafter_sim::{ComponentId, Cycle, Engine, EngineBuilder, Trace, TraceConfig};
use netcrafter_vm::{TranslationUnit, TranslationWiring};

/// One sampled egress link: a human-readable label plus its time series.
#[derive(Debug)]
pub struct LinkSeries {
    /// `"<switch>-><peer node>"`, e.g. `"cluster0.switch->node4"`.
    pub link: String,
    /// True for inter-cluster links (the ones NetCrafter targets).
    pub is_inter: bool,
    /// Windowed bandwidth/occupancy/pooling curves for the link.
    pub series: PortSeries,
}

/// Component ids of everything in the node, for stats harvesting.
#[derive(Debug, Clone)]
pub struct SystemIds {
    /// CUs, indexed `[gpu][cu]`.
    pub cus: Vec<Vec<ComponentId>>,
    /// L2 caches per GPU.
    pub l2s: Vec<ComponentId>,
    /// DRAM stacks per GPU.
    pub drams: Vec<ComponentId>,
    /// Translation units per GPU.
    pub gmmus: Vec<ComponentId>,
    /// RDMA engines per GPU.
    pub rdmas: Vec<ComponentId>,
    /// All switches, in topology order: edge switches per cluster first,
    /// then any fat-tree core tier.
    pub switches: Vec<ComponentId>,
}

/// Every CU's program: `[gpu][cu][kernel] -> waves`.
type Programs = Vec<Vec<Vec<Vec<WavefrontTrace>>>>;

/// The assembled multi-GPU node.
pub struct System {
    /// The simulation engine holding every component.
    pub engine: Engine,
    /// Component directory.
    pub ids: SystemIds,
    cfg: SystemConfig,
    /// The switch graph `cfg.topology` describes, built once.
    topo: Topology,
    /// Run ids of this node's snapshots (see `save_header`).
    warm_id: u64,
    full_id: u64,
    /// The kernels' names, in launch order.
    kernel_names: Vec<String>,
    pages_per_gpu: Vec<u64>,
    /// Per-kernel execution times recorded by [`System::run_all`]; the
    /// running kernel is the next one, `kernel_cycles.len()`.
    pub kernel_cycles: Vec<(String, Cycle)>,
}

impl System {
    /// Builds the node described by `cfg` and loads `kernel` onto it:
    /// LASP places CTAs and pages (including PTE pages), wavefronts are
    /// dispatched to CUs, and every component is wired.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or the kernel touches undeclared
    /// memory.
    pub fn build(cfg: SystemConfig, kernel: &KernelSpec) -> Self {
        Self::build_multi(cfg, std::slice::from_ref(kernel))
    }

    /// Dispatches one kernel as every CU's next kernel: a CTA runs
    /// entirely on one CU; a GPU's CTAs round-robin over its CUs.
    fn dispatch(
        kernel: &KernelSpec,
        cta_gpu: &BTreeMap<netcrafter_proto::CtaId, GpuId>,
        programs: &mut Programs,
    ) {
        for program in programs.iter_mut().flatten() {
            program.push(Vec::new());
        }
        let mut next_cu = vec![0usize; programs.len()];
        for cta in &kernel.ctas {
            let gpu = cta_gpu[&cta.id].index();
            let cus = &mut programs[gpu];
            let cu = next_cu[gpu] % cus.len();
            next_cu[gpu] += 1;
            let waves = cus[cu].last_mut().expect("kernel pushed");
            waves.extend(cta.waves.iter().cloned());
        }
    }

    /// Builds the node and loads a *sequence* of kernels separated by
    /// global kernel barriers (§2.2's serial kernel launches): LASP
    /// places all kernels' pages up front (first placement wins, like
    /// first-touch across launches), kernel 0 is dispatched immediately,
    /// and [`System::run_all`] launches each subsequent kernel when the
    /// previous one drains.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation, `kernels` is empty, or any
    /// kernel touches undeclared memory.
    pub fn build_multi(cfg: SystemConfig, kernels: &[KernelSpec]) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid config: {e}"));
        assert!(!kernels.is_empty(), "need at least one kernel");
        let kernels_id = kernels
            .iter()
            .fold(0, |h: u64, k| h.rotate_left(5) ^ k.fingerprint());
        let run_id = |repr: String| fnv1a64(repr.as_bytes()) ^ kernels_id;
        let topo = Topology::new(&cfg.topology);
        let total_gpus = topo.total_gpus();
        let frames_per_gpu = 1u64 << (PA_GPU_REGION_BITS - 12);

        // LASP: CTA schedules + data/PTE placement across all kernels.
        let mut placer = lasp::Placer::new(total_gpus, frames_per_gpu);
        let mut programs: Programs =
            vec![vec![Vec::new(); cfg.cus_per_gpu as usize]; total_gpus as usize];
        for k in kernels {
            let cta_gpu = placer.place_kernel(k);
            Self::dispatch(k, &cta_gpu, &mut programs);
        }
        let (page_table, pages_per_gpu) = placer.finish();
        let page_table = Arc::new(page_table);

        // Reserve ids: per GPU (cus…, gmmu, l2, dram, rdma), then switches.
        let mut b = EngineBuilder::new();
        let mut ids = SystemIds {
            cus: Vec::new(),
            l2s: Vec::new(),
            drams: Vec::new(),
            gmmus: Vec::new(),
            rdmas: Vec::new(),
            switches: Vec::new(),
        };
        for _g in 0..total_gpus {
            let cus: Vec<ComponentId> = (0..cfg.cus_per_gpu).map(|_| b.reserve()).collect();
            ids.cus.push(cus);
            ids.gmmus.push(b.reserve());
            ids.l2s.push(b.reserve());
            ids.drams.push(b.reserve());
            ids.rdmas.push(b.reserve());
        }
        for _s in 0..topo.num_switches() {
            ids.switches.push(b.reserve());
        }

        let flit = cfg.flit_bytes as f64;
        let intra_fpc = cfg.topology.intra_bytes_per_cycle() / flit;
        let inter_fpc = cfg.topology.inter_bytes_per_cycle() / flit;

        // Install per-GPU components.
        for g in 0..total_gpus {
            let gpu = GpuId(g);
            let gix = gpu.index();
            let cluster = topo.gpu_cluster(gpu);
            let switch_comp = ids.switches[cluster.index()];
            let switch_node = topo.switch_node(cluster);

            for (c, &cu_id) in ids.cus[gix].iter().enumerate() {
                let program = std::mem::take(&mut programs[gix][c]);
                b.install(
                    cu_id,
                    Box::new(Cu::new(
                        gpu,
                        netcrafter_proto::CuId(c as u16),
                        &cfg,
                        &CU,
                        &L1,
                        program,
                        CuWiring {
                            gmmu: ids.gmmus[gix],
                            l2: ids.l2s[gix],
                            rdma: ids.rdmas[gix],
                        },
                    )),
                );
            }
            b.install(
                ids.gmmus[gix],
                Box::new(TranslationUnit::new(
                    gpu,
                    &cfg.l2_tlb,
                    &GMMU,
                    Arc::clone(&page_table),
                    TranslationWiring {
                        cus: ids.cus[gix].clone(),
                        l2: ids.l2s[gix],
                        rdma: ids.rdmas[gix],
                    },
                )),
            );
            b.install(
                ids.l2s[gix],
                Box::new(L2Cache::new(
                    gpu,
                    &L2,
                    L2_BANKS,
                    cfg.full_sector_mask(),
                    L2Wiring {
                        cus: ids.cus[gix].clone(),
                        gmmu: ids.gmmus[gix],
                        rdma: ids.rdmas[gix],
                        dram: ids.drams[gix],
                    },
                )),
            );
            b.install(
                ids.drams[gix],
                Box::new(Dram::new(gpu, &DRAM, ids.l2s[gix])),
            );
            b.install(
                ids.rdmas[gix],
                Box::new(Rdma::new(
                    gpu,
                    topo.gpu_node(gpu),
                    &cfg,
                    RdmaWiring {
                        switch: switch_comp,
                        switch_node,
                        switch_port: topo.gpu_port_at_switch(gpu),
                        switch_credits: SWITCH.buffer_entries,
                        l2: ids.l2s[gix],
                        gmmu: ids.gmmus[gix],
                        cus: ids.cus[gix].clone(),
                    },
                )),
            );
        }

        // Install switches straight from the topology's static specs. Each
        // inter-cluster egress port carries its *own* NetCrafter controller
        // instance (a ClusterQueue keyed to the adjacent switch), so
        // pooling, stitching and sequencing state is per switch, not global.
        for (s, spec) in topo.switch_specs().enumerate() {
            let switch = Switch::from_spec(
                spec,
                topo.switch_name(s),
                &SWITCH,
                intra_fpc,
                inter_fpc,
                |link| match topo.node_gpu(link.peer) {
                    Some(gpu) => ids.rdmas[gpu.index()],
                    None => ids.switches[topo.switch_index(link.peer)],
                },
                |link| {
                    if cfg.any_enabled() {
                        Box::new(ClusterQueue::new(cfg.netcrafter, link.peer))
                    } else {
                        Box::new(FifoQueue::new())
                    }
                },
            );
            b.install(ids.switches[s], Box::new(switch));
        }

        Self {
            engine: b.build(),
            ids,
            warm_id: run_id(cfg.warmup_repr()),
            full_id: run_id(cfg.stable_repr()),
            cfg,
            topo,
            kernel_names: kernels.iter().map(|k| k.name.clone()).collect(),
            pages_per_gpu,
            kernel_cycles: Vec::new(),
        }
    }

    /// Runs every loaded kernel to completion, honouring global kernel
    /// barriers: the next kernel launches only when the node is fully
    /// drained. Returns the total execution time; per-kernel times are in
    /// [`System::kernel_cycles`], each timed from its launch — also for a
    /// node restored in the middle of a kernel.
    pub fn run_all(&mut self, max_cycles_per_kernel: Cycle) -> Cycle {
        let mut end = self.engine.cycle();
        while self.kernel_cycles.len() < self.kernel_names.len() {
            end = self.engine.run_to_quiescence(max_cycles_per_kernel);
            self.end_kernel(end);
        }
        end
    }

    /// Records the running kernel's time, drained at cycle `end`, and
    /// launches the next kernel on every CU if there is one. Kernel 0
    /// launched at cycle 0 and each later one when the one before it
    /// drained, so the running kernel launched at the sum of the
    /// recorded times.
    fn end_kernel(&mut self, end: Cycle) {
        let launched: Cycle = self.kernel_cycles.iter().map(|&(_, c)| c).sum();
        let name = self.kernel_names[self.kernel_cycles.len()].clone();
        self.kernel_cycles.push((name, end - launched));
        if self.kernel_cycles.len() < self.kernel_names.len() {
            for &cu in self.ids.cus.iter().flatten() {
                let cu = self.engine.get_mut::<Cu>(cu).expect("cu installed");
                cu.launch();
            }
        }
    }

    /// The configuration the node was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Does nothing: the simulator has one sequential engine, so there is
    /// no thread count to set. The name exists only because the frozen
    /// benchmark crate calls it (`benchmark/src/workloads.rs:486`,
    /// `benchmark/src/run.rs:749`); ROADMAP item 1 deletes it with those
    /// callers.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Turns on structured event tracing for every component, filtered by
    /// `config`. Call before running; harvest with [`System::take_trace`].
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        self.engine.enable_tracing(config);
    }

    /// Drains the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Trace {
        self.engine.take_trace()
    }

    /// Turns on windowed bandwidth/occupancy sampling on every switch
    /// egress port, with `window`-cycle buckets. Call before running;
    /// harvest with [`System::take_link_series`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn enable_link_sampling(&mut self, window: Cycle) {
        for &sw_id in &self.ids.switches {
            self.engine
                .get_mut::<Switch>(sw_id)
                .expect("switch installed")
                .enable_sampling(window);
        }
    }

    /// Drains the per-link time series sampled since
    /// [`System::enable_link_sampling`], labelled `switch->peer`, with
    /// every cycle up to the current one accounted.
    pub fn take_link_series(&mut self) -> Vec<LinkSeries> {
        let end = self.engine.cycle();
        let mut out = Vec::new();
        for (s, &sw_id) in self.ids.switches.iter().enumerate() {
            let name = self.topo.switch_name(s);
            let sw = self
                .engine
                .get_mut::<Switch>(sw_id)
                .expect("switch installed");
            for (peer_node, is_inter, series) in sw.take_series(end) {
                out.push(LinkSeries {
                    link: format!("{name}->{peer_node}"),
                    is_inter,
                    series,
                });
            }
        }
        out
    }

    /// Runs the loaded kernel to completion (quiescence). Returns the
    /// execution time in cycles.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to quiesce within `max_cycles` — a
    /// deadlock or livelock in the model.
    pub fn run(&mut self, max_cycles: Cycle) -> Cycle {
        self.engine.run_to_quiescence(max_cycles)
    }

    /// Runs forward to `cycle` without requiring quiescence. Every cycle
    /// boundary is a valid snapshot point under both scheduler modes.
    pub fn run_until(&mut self, cycle: Cycle) -> Cycle {
        self.engine.run_until(cycle)
    }

    /// The canonical state encoding behind every snapshot flavour: the
    /// finished kernels' times, then the engine body (every component,
    /// mailboxes, in-flight messages). The kernels themselves are not in
    /// it: they are the program, which the run id pins.
    fn save_body(&mut self, w: &mut SnapshotWriter) {
        self.kernel_cycles.save(w);
        self.engine.save_state_into(w);
    }

    /// The versioned header, then the run id: the kernels' fingerprints
    /// with [`SystemConfig::warmup_repr`] before the warmup cycle, while
    /// the masked knobs are unread, and with `stable_repr` from it on.
    fn save_header(&self, w: &mut SnapshotWriter) {
        write_header(w);
        let warming = self.engine.cycle() < self.cfg.netcrafter.warmup_cycles;
        w.put_u64(if warming { self.warm_id } else { self.full_id });
    }

    /// Serializes the node's full dynamic state behind the versioned
    /// snapshot header and run id. Restore with [`System::restore`] on a
    /// node built from the *same* config and kernels — or, before the
    /// warmup cycle, from one that differs only in warmup-inert knobs.
    pub fn save_snapshot(&mut self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.save_header(&mut w);
        self.save_body(&mut w);
        w.into_bytes()
    }

    /// Restores a snapshot produced by [`System::save_snapshot`] onto a
    /// freshly built node of the same run, validating the header, the run
    /// id (a mismatch fails [`SnapshotError::WrongRun`] before anything
    /// is assigned) and that every byte is consumed. Continuing the run
    /// afterwards is byte-identical to the run that produced the snapshot.
    /// Tracing and link sampling are this node's own, not the snapshot's:
    /// they record the cycles simulated after the restore.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        read_header(&mut r)?;
        let found = r.get_u64()?;
        if found != self.warm_id && found != self.full_id {
            return Err(SnapshotError::WrongRun {
                found,
                expected: self.full_id,
            });
        }
        self.kernel_cycles.load_into(&mut r)?;
        self.engine.load_state_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing byte(s) after system state",
                r.remaining()
            )));
        }
        Ok(())
    }

    /// FNV-1a fingerprint of the node's canonical state encoding (kernel
    /// times + engine body, no header or run id).
    pub fn state_hash(&mut self) -> u64 {
        let mut w = SnapshotWriter::new();
        self.save_body(&mut w);
        fnv1a64(&w.into_bytes())
    }

    /// Serializes the paused node into an in-memory [`ForkSnapshot`] for
    /// prefix-sharing sweeps: the same bytes as [`System::save_snapshot`]
    /// behind an `Arc`, tagged with the pause cycle and the body's
    /// [`System::state_hash`]. One serialization pass produces both the
    /// bytes and the fingerprint; restoring the fork N times costs N
    /// pointer clones, not N encodes. Restore with [`System::restore`] on
    /// a node built from the same config and kernels.
    pub fn fork_snapshot(&mut self) -> ForkSnapshot {
        let mut w = SnapshotWriter::new();
        self.save_header(&mut w);
        let header_len = w.position();
        self.save_body(&mut w);
        let bytes = w.into_bytes();
        let hash = fnv1a64(&bytes[header_len..]);
        ForkSnapshot::new(self.engine.cycle(), bytes, hash)
    }

    /// Collects every component's statistics plus system-level derived
    /// counters into one registry.
    pub fn harvest(&self) -> Metrics {
        let mut m = Metrics::new();
        let cycles = self.engine.cycle();
        m.set("sys.cycles", cycles);
        m.set("sys.messages", self.engine.messages_delivered());
        for (g, pages) in self.pages_per_gpu.iter().enumerate() {
            m.set(&format!("lasp.gpu{g}.pages"), *pages);
        }

        for (g, cu_ids) in self.ids.cus.iter().enumerate() {
            for &cu_id in cu_ids {
                let cu: &Cu = self.engine.get(cu_id).expect("cu installed");
                cu.stats.report(&mut m, &format!("gpu{g}.cu"));
                cu.stats.report(&mut m, "total.cu");
                cu.l1.stats.report(&mut m, &format!("gpu{g}.l1"));
                cu.l1.stats.report(&mut m, "total.l1");
                cu.l1_tlb.stats.report(&mut m, &format!("gpu{g}.l1tlb"));
                cu.l1_tlb.stats.report(&mut m, "total.l1tlb");
            }
            let tu: &TranslationUnit = self.engine.get(self.ids.gmmus[g]).expect("gmmu installed");
            tu.stats.report(&mut m, &format!("gpu{g}.gmmu"));
            tu.stats.report(&mut m, "total.gmmu");
            tu.l2_tlb.stats.report(&mut m, &format!("gpu{g}.l2tlb"));
            tu.l2_tlb.stats.report(&mut m, "total.l2tlb");
            let l2: &L2Cache = self.engine.get(self.ids.l2s[g]).expect("l2 installed");
            l2.stats.report(&mut m, &format!("gpu{g}.l2"));
            l2.stats.report(&mut m, "total.l2");
            let dram: &Dram = self.engine.get(self.ids.drams[g]).expect("dram installed");
            dram.stats.report(&mut m, &format!("gpu{g}.dram"));
            dram.stats.report(&mut m, "total.dram");
            let rdma: &Rdma = self.engine.get(self.ids.rdmas[g]).expect("rdma installed");
            rdma.stats.report(&mut m, &format!("gpu{g}.rdma"));
            rdma.stats.report(&mut m, "total.rdma");
            rdma.trim.stats.report(&mut m, &format!("gpu{g}.trim"));
            rdma.trim.stats.report(&mut m, "total.trim");
        }

        for (c, &sw_id) in self.ids.switches.iter().enumerate() {
            let sw: &Switch = self.engine.get(sw_id).expect("switch installed");
            sw.report(&mut m, &format!("switch{c}"));
            sw.report(&mut m, "net");
        }
        // Inter-cluster link capacity over the run, for utilization:
        // sum the actual fabric egress ports' rate shares (a full mesh
        // has clusters*(clusters-1) full-rate ports; torus VC pairs split
        // one physical channel, so each counts its rate_scale).
        let inter_weight: f64 = self
            .topo
            .switch_specs()
            .flat_map(|s| s.links.iter())
            .filter(|l| l.is_inter)
            .map(|l| l.rate_scale)
            .sum();
        let inter_fpc = self.cfg.topology.inter_bytes_per_cycle() / self.cfg.flit_bytes as f64;
        m.set(
            "net.inter.capacity_flits",
            (cycles as f64 * inter_fpc * inter_weight) as u64,
        );
        m.set("net.inter.flit_bytes", self.cfg.flit_bytes as u64);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::access::{CoalescedAccess, WavefrontOp, WavefrontTrace};
    use netcrafter_proto::kernel::{AccessPattern, BufferSpec, CtaSpec};
    use netcrafter_proto::{CtaId, VAddr, WavefrontId, PAGE_BYTES};

    /// A minimal 2-CTA kernel over an interleaved buffer: guaranteed to
    /// generate remote and inter-cluster traffic on a 2×2 node.
    fn tiny_kernel() -> KernelSpec {
        let base = 0x4000_0000u64;
        let pages = 8u64;
        let buffer = BufferSpec {
            name: "data".into(),
            base: VAddr(base),
            bytes: pages * PAGE_BYTES,
            pattern: AccessPattern::Random,
        };
        let mut ctas = Vec::new();
        for c in 0..2u32 {
            let mut ops = Vec::new();
            for i in 0..12u64 {
                // Touch every page: pages interleave across 4 GPUs.
                let page = (i + c as u64 * 3) % pages;
                ops.push(WavefrontOp::Mem(CoalescedAccess::read(
                    VAddr(base + page * PAGE_BYTES + (i % 8) * 64),
                    8,
                )));
                ops.push(WavefrontOp::Compute(2));
            }
            ops.push(WavefrontOp::Mem(CoalescedAccess::write(
                VAddr(base + c as u64 * PAGE_BYTES),
                64,
            )));
            ctas.push(CtaSpec {
                id: CtaId(c),
                waves: vec![WavefrontTrace {
                    id: WavefrontId(c),
                    cta: CtaId(c),
                    ops,
                }],
                home_hint: None,
            });
        }
        KernelSpec {
            name: "tiny".into(),
            ctas,
            buffers: vec![buffer],
        }
    }

    #[test]
    fn baseline_system_runs_to_completion() {
        let cfg = SystemConfig::small(2);
        let mut sys = System::build(cfg, &tiny_kernel());
        let cycles = sys.run(1_000_000);
        assert!(cycles > 0);
        let m = sys.harvest();
        assert_eq!(m.counter("sys.cycles"), cycles);
        assert!(m.counter("total.cu.instructions") > 0);
        assert!(m.counter("total.l1.reads") > 0);
        assert!(
            m.counter("net.inter.flits") > 0,
            "interleaved pages must cross clusters"
        );
        assert!(m.counter("total.gmmu.walks") > 0, "cold TLBs must walk");
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let cfg = SystemConfig::small(2);
        let run = || {
            let mut sys = System::build(cfg, &tiny_kernel());
            let cycles = sys.run(1_000_000);
            (cycles, sys.engine.messages_delivered())
        };
        assert_eq!(run(), run(), "simulation must be deterministic");
    }

    #[test]
    fn netcrafter_system_runs_and_stitches_or_trims() {
        let cfg = crate::SystemVariant::NetCrafter.apply(SystemConfig::small(2));
        let mut sys = System::build(cfg, &tiny_kernel());
        sys.run(1_000_000);
        let m = sys.harvest();
        // 8 B random reads across clusters: trimming must engage.
        assert!(m.counter("total.trim.trimmed") > 0, "trimming engages");
    }

    #[test]
    fn ideal_config_is_faster_than_baseline() {
        // Use a heavier kernel so the slow link actually congests.
        let mut kernel = tiny_kernel();
        for cta in &mut kernel.ctas {
            let ops = cta.waves[0].ops.clone();
            for _ in 0..8 {
                cta.waves[0].ops.extend(ops.clone());
            }
        }
        let base = {
            let mut sys = System::build(SystemConfig::small(2), &kernel);
            sys.run(4_000_000)
        };
        let ideal = {
            let mut sys = System::build(SystemConfig::small(2).idealized(), &kernel);
            sys.run(4_000_000)
        };
        assert!(
            ideal <= base,
            "uniform high bandwidth cannot be slower: ideal {ideal} vs base {base}"
        );
    }

    #[test]
    fn sampling_tracks_traffic_phases() {
        let mut sys = System::build(SystemConfig::small(2), &tiny_kernel());
        sys.enable_link_sampling(200);
        let end = sys.run(1_000_000);
        let links = sys.take_link_series();
        let inter: Vec<_> = links.iter().filter(|l| l.is_inter).collect();
        assert!(!inter.is_empty());
        let total: u64 = inter.iter().map(|l| l.series.flits.total()).sum();
        let m = sys.harvest();
        assert_eq!(
            total,
            m.counter("net.inter.flits"),
            "samples sum to the total"
        );
        // Every link's occupancy integral covers the run to its last cycle.
        for link in &links {
            assert_eq!(link.series.occupancy.len() as u64, end / 200 + 1);
        }
    }

    #[test]
    fn multi_kernel_runs_with_barriers() {
        // Two launches of the tiny kernel back to back: the second must
        // start only after the first drains, and both complete.
        let k1 = tiny_kernel();
        let mut k2 = tiny_kernel();
        k2.name = "tiny-2".into();
        let total_mem = (k1.total_mem_ops() + k2.total_mem_ops()) as u64;
        let mut sys = System::build_multi(SystemConfig::small(2), &[k1, k2]);
        let end = sys.run_all(1_000_000);
        assert!(end > 0);
        assert_eq!(sys.kernel_cycles.len(), 2);
        assert_eq!(sys.kernel_cycles[0].0, "tiny");
        assert_eq!(sys.kernel_cycles[1].0, "tiny-2");
        assert!(sys.kernel_cycles[1].1 > 0, "second kernel does real work");
        let m = sys.harvest();
        assert_eq!(m.counter("total.cu.mem_ops"), total_mem);
        // The second launch re-touches the same pages: warm TLBs and
        // caches make it cheaper than the first.
        assert!(
            sys.kernel_cycles[1].1 <= sys.kernel_cycles[0].1,
            "warm second launch: {:?}",
            sys.kernel_cycles
        );
    }

    #[test]
    fn a_node_restored_inside_a_later_kernel_times_it_from_its_launch() {
        let build = || {
            let mut k2 = tiny_kernel();
            k2.name = "tiny-2".into();
            System::build_multi(SystemConfig::small(2), &[tiny_kernel(), k2])
        };
        let mut straight = build();
        straight.run_all(1_000_000);

        let mut paused = build();
        let drained = paused.run(1_000_000);
        paused.end_kernel(drained);
        paused.run_until(drained + straight.kernel_cycles[1].1 / 2);
        assert!(!paused.engine.quiescent(), "paused inside kernel 1");
        let mut restored = build();
        restored.restore(&paused.save_snapshot()).expect("restores");
        restored.run_all(1_000_000);
        assert_eq!(restored.kernel_cycles, straight.kernel_cycles);
    }

    #[test]
    fn multi_kernel_shares_first_placement() {
        let k1 = tiny_kernel();
        let k2 = tiny_kernel();
        let single = System::build(SystemConfig::small(2), &tiny_kernel());
        let multi = System::build_multi(SystemConfig::small(2), &[k1, k2]);
        // Same buffer ⇒ same pages placed once, not twice.
        assert_eq!(single.pages_per_gpu, multi.pages_per_gpu);
    }

    #[test]
    fn all_accesses_complete_exactly_once() {
        let kernel = tiny_kernel();
        let total_mem: u64 = kernel.total_mem_ops() as u64;
        let mut sys = System::build(SystemConfig::small(2), &kernel);
        sys.run(1_000_000);
        let m = sys.harvest();
        assert_eq!(m.counter("total.cu.mem_ops"), total_mem);
    }
}
