//! Experiment configurations and derived measures — the vocabulary of
//! the paper's evaluation section (§5).

use netcrafter_proto::{
    Metrics, NetCrafterConfig, Pooling, Priority, SectorFillPolicy, SystemConfig,
};
use netcrafter_sim::snapshot::{ForkSnapshot, SnapshotError};
use netcrafter_sim::{SchedulerMode, Trace, TraceConfig};
use netcrafter_workloads::{Scale, Workload};

use crate::system::{LinkSeries, System};

/// The system configurations the evaluation compares (§5.2–§5.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemVariant {
    /// The non-uniform bandwidth baseline (Table 2), everything off.
    Baseline,
    /// The impractical *ideal*: inter-cluster links run at intra-cluster
    /// bandwidth (Figure 3).
    Ideal,
    /// Full NetCrafter: Stitching + 32-cycle Selective Flit Pooling +
    /// Trimming + Sequencing (the rightmost Figure 14 bar).
    NetCrafter,
    /// Stitching alone, no pooling (Figures 12/18/19 leftmost).
    StitchOnly,
    /// Stitching with (optionally selective) Flit Pooling of the given
    /// window (Figures 18/19 sweeps); window 0 is [`SystemVariant::StitchOnly`].
    StitchPool {
        /// Pooling window in cycles.
        window: u32,
        /// Exempt PTW flits from pooling.
        selective: bool,
    },
    /// Stitching + Selective Pooling + Trimming (the cumulative middle
    /// bar of Figure 14).
    StitchTrim,
    /// Trimming alone (with its sectored L1 fills).
    TrimOnly,
    /// Sequencing alone (PTW prioritization).
    SeqOnly,
    /// Figure 8's counterfactual: prioritize data-read flits instead of
    /// PTW flits.
    DataPrio,
    /// The §5.3 comparison baseline: 16 B sectored L1 everywhere,
    /// NetCrafter off.
    SectorCache,
}

impl SystemVariant {
    /// Applies the variant to a base configuration: the variant sets the
    /// two Cluster Queue mechanisms and the L1 fill policy (Trimming is
    /// [`SectorFillPolicy::OnTrim`]), and Ideal also the inter-cluster
    /// bandwidth. The base config's `netcrafter.warmup_cycles` and
    /// `netcrafter.stitch_search_depth` survive: the warmup window is a
    /// sweep-level lever (it makes every variant's pre-activation
    /// trajectory identical for prefix sharing) and the search depth a
    /// study knob (the ablation sweeps it), not part of any variant's
    /// identity.
    pub fn apply(self, cfg: SystemConfig) -> SystemConfig {
        use SectorFillPolicy::{Always, FullLine, OnTrim};
        let full = NetCrafterConfig::full();
        let (stitching, sequencing, sector_fill) = match self {
            SystemVariant::Baseline | SystemVariant::Ideal => (None, None, FullLine),
            SystemVariant::NetCrafter => (full.stitching, full.sequencing, OnTrim),
            SystemVariant::StitchOnly => (Some(Pooling::Off), None, FullLine),
            SystemVariant::StitchPool { window, selective } => {
                (Some(Pooling::new(window, selective)), None, FullLine)
            }
            SystemVariant::StitchTrim => (full.stitching, None, OnTrim),
            SystemVariant::TrimOnly => (None, None, OnTrim),
            SystemVariant::SeqOnly => (None, Some(Priority::Ptw), FullLine),
            SystemVariant::DataPrio => (None, Some(Priority::Data), FullLine),
            SystemVariant::SectorCache => (None, None, Always),
        };
        let mut out = if self == SystemVariant::Ideal {
            cfg.idealized()
        } else {
            cfg
        };
        out.netcrafter.stitching = stitching;
        out.netcrafter.sequencing = sequencing;
        out.sector_fill = sector_fill;
        out
    }

    /// Display label for tables.
    pub fn label(self) -> String {
        match self {
            SystemVariant::Baseline => "Baseline".into(),
            SystemVariant::Ideal => "Ideal".into(),
            SystemVariant::NetCrafter => "NetCrafter".into(),
            SystemVariant::StitchOnly => "Stitching".into(),
            SystemVariant::StitchPool { window, selective } => {
                if selective {
                    format!("Stitch+SelPool{window}")
                } else {
                    format!("Stitch+Pool{window}")
                }
            }
            SystemVariant::StitchTrim => "Stitch+Trim".into(),
            SystemVariant::TrimOnly => "Trimming".into(),
            SystemVariant::SeqOnly => "Sequencing".into(),
            SystemVariant::DataPrio => "DataPrio".into(),
            SystemVariant::SectorCache => "SectorCache(16B)".into(),
        }
    }
}

/// The outcome of one run: execution time plus harvested metrics, with
/// accessors for every figure's derived measure.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// End-to-end execution time in cycles.
    pub exec_cycles: u64,
    /// All harvested counters/histograms/latencies.
    pub metrics: Metrics,
}

impl RunResult {
    /// Inter-cluster link utilization in [0, 1] (Figure 4).
    pub fn inter_utilization(&self) -> f64 {
        self.metrics
            .ratio("net.inter.flits", "net.inter.capacity_flits")
    }

    /// Mean inter-cluster read latency in cycles (Figures 5 and 15).
    pub fn inter_read_latency(&self) -> f64 {
        self.metrics
            .latency("total.cu.inter_cluster_read_latency")
            .mean()
    }

    /// Fraction of inter-cluster flits with the given padding percentage
    /// bucket (0, 25, 50 or 75) — Figure 6.
    pub fn padding_fraction(&self, pct: u32) -> f64 {
        let total = self.metrics.counter("net.inter.flits");
        if total == 0 {
            return 0.0;
        }
        self.metrics.counter(&format!("net.inter.padding{pct}")) as f64 / total as f64
    }

    /// Distribution of inter-cluster reads by bytes required (Figure 7):
    /// fractions for 16/32/48/64 B.
    pub fn fig7_fractions(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        let total: u64 = (1..=4)
            .map(|i| self.metrics.counter(&format!("total.cu.fig7_{}B", i * 16)))
            .sum();
        if total == 0 {
            return out;
        }
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self
                .metrics
                .counter(&format!("total.cu.fig7_{}B", (i + 1) * 16)) as f64
                / total as f64;
        }
        out
    }

    /// PTW-related share of inter-cluster bytes (Figure 9).
    pub fn ptw_byte_share(&self) -> f64 {
        let ptw = self.metrics.counter("net.inter.ptw_bytes");
        let data = self.metrics.counter("net.inter.data_bytes");
        if ptw + data == 0 {
            0.0
        } else {
            ptw as f64 / (ptw + data) as f64
        }
    }

    /// Fraction of would-be inter-cluster flits that were stitched away
    /// into parents (Figure 12): absorbed / (transmitted + absorbed).
    pub fn stitched_fraction(&self) -> f64 {
        let absorbed = self.metrics.counter("net.inter.cq.absorbed");
        let popped = self.metrics.counter("net.inter.cq.popped");
        if absorbed + popped == 0 {
            0.0
        } else {
            absorbed as f64 / (absorbed + popped) as f64
        }
    }

    /// Bytes that crossed inter-cluster links, counting each transmitted
    /// flit at full flit size (Figure 20's currency).
    pub fn inter_link_bytes(&self) -> u64 {
        self.metrics.counter("net.inter.flits") * self.metrics.counter("net.inter.flit_bytes")
    }

    /// L1 misses per kilo-instruction (Figures 16/17).
    pub fn l1_mpki(&self) -> f64 {
        1000.0 * self.metrics.counter("total.l1.misses") as f64
            / self.metrics.counter("total.cu.instructions").max(1) as f64
    }

    /// Renders the result as the line-oriented text block used by the
    /// bench crate's on-disk result cache: one `exec_cycles` header line
    /// followed by [`Metrics::to_kv`].
    pub fn to_kv(&self) -> String {
        format!(
            "exec_cycles = {}\n{}",
            self.exec_cycles,
            self.metrics.to_kv()
        )
    }

    /// Parses the text produced by [`RunResult::to_kv`]; `None` on any
    /// corruption so cache readers fall back to re-simulating.
    pub fn from_kv(text: &str) -> Option<RunResult> {
        let (first, rest) = text.split_once('\n')?;
        let exec_cycles = first.strip_prefix("exec_cycles = ")?.parse().ok()?;
        Some(RunResult {
            exec_cycles,
            metrics: Metrics::from_kv(rest)?,
        })
    }
}

/// One configured run, which is also one sweep job: workload × variant ×
/// scale × base config.
///
/// It is `Send` (all fields are owned plain data), so a sweep runner can
/// hand jobs to `std::thread` workers. A run is named twice, for two
/// readers:
///
/// * [`Experiment::cache_key`] — what it runs: the variant-applied
///   configuration, workload, scale, seed and watchdog limit. Equal keys
///   give equal results, so the runner's memo, its duplicate aliasing and
///   the disk cache all key on it.
/// * [`Experiment::memo_key`] — what a table calls it,
///   `workload|variant|tag`: a display name for reports, never used to
///   find a result.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Workload to run.
    pub workload: Workload,
    /// System variant.
    pub variant: SystemVariant,
    /// Base configuration (topology, CU count, flit size, …); the
    /// variant is applied on top at [`Experiment::run`].
    pub base_cfg: SystemConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Watchdog limit.
    pub max_cycles: u64,
    /// Worker threads for the conservative parallel scheduler; 1 runs
    /// sequentially. Results are bit-identical either way, so this is
    /// host-side tuning, not a simulation input, and in no key.
    pub threads: usize,
    /// Scheduler a single-threaded run uses. Results are bit-identical
    /// under every mode; tests select [`SchedulerMode::Legacy`] here to
    /// compare against the tick-everything reference.
    pub scheduler: SchedulerMode,
    /// Display tag distinguishing sweep points of one variant in reports
    /// (e.g. `"clusters4"`); empty for plain runs. It is in
    /// [`Experiment::memo_key`] only.
    pub tag: String,
}

impl Experiment {
    /// A standard experiment: 4 GPUs × 8 CUs, small scale.
    pub fn new(workload: Workload, variant: SystemVariant) -> Self {
        Self {
            workload,
            variant,
            base_cfg: SystemConfig::small(8),
            scale: Scale::small(),
            seed: 0xC0FFEE,
            max_cycles: 80_000_000,
            threads: 1,
            scheduler: SchedulerMode::EventDriven,
            tag: String::new(),
        }
    }

    /// A minimal configuration for doc tests and smoke tests: 2 CUs per
    /// GPU, tiny workloads — runs in milliseconds.
    pub fn quick(workload: Workload, variant: SystemVariant) -> Self {
        Self {
            workload,
            variant,
            base_cfg: SystemConfig::small(2),
            scale: Scale::tiny(),
            seed: 0xC0FFEE,
            max_cycles: 20_000_000,
            threads: 1,
            scheduler: SchedulerMode::EventDriven,
            tag: String::new(),
        }
    }

    /// Replaces the workload scale.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Replaces the base configuration.
    pub fn with_base_cfg(mut self, cfg: SystemConfig) -> Self {
        self.base_cfg = cfg;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the worker-thread count (1 = sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the scheduler of a single-threaded run.
    pub fn with_scheduler(mut self, mode: SchedulerMode) -> Self {
        self.scheduler = mode;
        self
    }

    /// Display name: `workload|variant-label|tag`. Reports and
    /// `benchmark/golden.json` use it; no result is found by it.
    pub fn memo_key(&self) -> String {
        format!("{}|{}|{}", self.workload, self.variant.label(), self.tag)
    }

    /// Stable cross-process key covering every input that affects the
    /// simulation outcome. Deliberately excludes `tag` (display-only),
    /// `threads` and `scheduler` (bit-identical results).
    pub fn cache_key(&self) -> String {
        let applied = self.variant.apply(self.base_cfg);
        let key = self.key("v1", &applied.stable_repr());
        format!("{key};max={}", self.max_cycles)
    }

    /// The identity both keys share: `kind`, the workload, the given
    /// configuration string, the scale and the workload seed.
    fn key(&self, kind: &str, cfg: &str) -> String {
        let (wl, scale, seed) = (self.workload, self.scale, self.seed);
        format!("{kind};wl={wl:?};{cfg};scale={scale:?};wlseed={seed:016x}")
    }

    /// Prefix-sharing group key: jobs with equal keys evolve
    /// byte-identically over `[0, W)`, `W` their NetCrafter warmup cycle,
    /// so one simulated prefix (an in-memory [`ForkSnapshot`] paused at
    /// `W - 1`) serves them all.
    ///
    /// The key is the variant-applied configuration's
    /// [`SystemConfig::warmup_repr`] — the stable representation with the
    /// warmup-inert policy knobs masked, plus the component-roster token —
    /// combined with the workload identity. `max_cycles` is deliberately
    /// excluded: a prefix paused before the warmup cycle is valid for any
    /// watchdog deeper than it (the planner enforces that per job).
    ///
    /// `None` means this job cannot share a prefix:
    /// * no warmup window (`warmup_cycles == 0`) — knobs act from cycle 0;
    /// * no NetCrafter knob enabled — the build uses the plain FIFO
    ///   egress roster, whose snapshot layout differs from the
    ///   ClusterQueue roster (and an all-off run has nothing to share a
    ///   warmup *with*);
    /// * the watchdog is not strictly deeper than the warmup window.
    pub fn prefix_key(&self) -> Option<String> {
        let applied = self.variant.apply(self.base_cfg);
        let warmup = applied.netcrafter.warmup_cycles;
        if warmup == 0 || !applied.any_enabled() || warmup >= self.max_cycles {
            return None;
        }
        Some(self.key("p1", &applied.warmup_repr()))
    }

    /// The variant-applied warmup cycle `W`, the first one the policy
    /// knobs act on; when [`Experiment::prefix_key`] is `Some` the job's
    /// shared prefix is `[0, W)` and its fork is paused at `W - 1`.
    pub fn warmup_cycles(&self) -> u64 {
        self.variant.apply(self.base_cfg).netcrafter.warmup_cycles
    }

    /// Builds the system, runs the workload to completion and harvests.
    pub fn run(&self) -> RunResult {
        self.run_planned(CheckpointPlan::default(), None)
            .expect("nothing to restore")
            .result
    }

    /// Like [`Experiment::run`], but with the requested observability
    /// turned on: event tracing when `opts.config` is set, per-link
    /// time-series sampling when `opts.sample_window` is set. Returns the
    /// normal result plus everything recorded.
    pub fn run_traced(&self, opts: &TraceOptions) -> (RunResult, TraceData) {
        let run = self
            .run_planned(CheckpointPlan::default(), Some(opts))
            .expect("nothing to restore");
        (run.result, run.recorded.expect("tracing requested"))
    }

    /// [`Experiment::run`] driven by a [`CheckpointPlan`]: the run can
    /// resume from a snapshot and pause once to hand one back, with the
    /// observability of [`Experiment::run_traced`] when `trace` is given.
    /// Pause → resume → continue is byte-identical to the uninterrupted
    /// run, and a snapshot taken before the warmup cycle `W` (pausing at
    /// `W` executes cycle `W`, which the knobs already steer) resumes
    /// under every job with the same [`Experiment::prefix_key`].
    ///
    /// Observation is not state: a snapshot is the same bytes whatever
    /// `trace` asks for, and a resumed run records what it simulates —
    /// trace events after the resume cycle, time-series samples from it
    /// on — under whatever `trace` it is given.
    ///
    /// # Errors
    ///
    /// Returns the restore error when `plan.resume_from` is corrupt, has
    /// a version mismatch or belongs to another run
    /// ([`SnapshotError::WrongRun`]).
    pub fn run_planned(
        &self,
        plan: CheckpointPlan<'_>,
        trace: Option<&TraceOptions>,
    ) -> Result<CheckpointedRun, SnapshotError> {
        let cfg = self.variant.apply(self.base_cfg);
        let kernel = self
            .workload
            .generate(&self.scale, cfg.total_gpus(), self.seed);
        let mut sys = System::build(cfg, &kernel);
        if let Some(opts) = trace {
            if let Some(config) = &opts.config {
                sys.enable_tracing(config.clone());
            }
            if let Some(window) = opts.sample_window {
                sys.enable_link_sampling(window);
            }
        }
        sys.engine.set_scheduler(self.scheduler);
        sys.set_threads(self.threads);
        if let Some(bytes) = plan.resume_from {
            sys.restore(bytes)?;
            debug_assert!(
                sys.save_snapshot() == bytes,
                "a restored node must re-encode to the bytes it was restored from"
            );
        }
        let resumed_at = sys.engine.cycle();
        let messages_at_resume = sys.engine.messages_delivered();
        let snapshot = plan.pause_at.filter(|&at| at > resumed_at).map(|at| {
            sys.run_until(at);
            sys.fork_snapshot()
        });
        let exec_cycles = sys.run(self.max_cycles);
        let result = RunResult {
            exec_cycles,
            metrics: sys.harvest(),
        };
        Ok(CheckpointedRun {
            result,
            snapshot,
            resumed_at,
            ticks: sys.engine.ticks_executed(),
            steps: sys.engine.steps_executed(),
            messages: sys.engine.messages_delivered() - messages_at_resume,
            recorded: trace.map(|_| TraceData {
                trace: sys.take_trace(),
                links: sys.take_link_series(),
            }),
        })
    }
}

/// What a run does besides running: at most one snapshot in, at most one
/// out. The default plan (neither) reproduces [`Experiment::run`] exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointPlan<'a> {
    /// Snapshot bytes ([`ForkSnapshot::bytes`], or the file `simulate
    /// --checkpoint-at` wrote from them) to resume from instead of
    /// starting at cycle 0.
    pub resume_from: Option<&'a [u8]>,
    /// Pause once at this cycle, hand the paused state back in
    /// [`CheckpointedRun::snapshot`], and continue to completion. The
    /// snapshot is tagged with the cycle actually paused at (earlier when
    /// the run quiesces first); none is taken when `resume_from` already
    /// starts at or past the cycle.
    pub pause_at: Option<u64>,
}

/// Outcome of [`Experiment::run_planned`].
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The run's result, identical to an uninterrupted run's.
    pub result: RunResult,
    /// The state paused at [`CheckpointPlan::pause_at`], when asked for.
    pub snapshot: Option<ForkSnapshot>,
    /// Cycle the simulation actually started stepping from: 0 for a cold
    /// run, the snapshot's cycle after a resume.
    pub resumed_at: u64,
    /// Component ticks the engine executed for this run (from
    /// `resumed_at` on): host work, which depends on the scheduler and
    /// is deliberately not part of [`RunResult`] or its metrics.
    pub ticks: u64,
    /// Cycles the engine executed over the same span (the event-driven
    /// scheduler skips the ones with nothing due): host work as well.
    pub steps: u64,
    /// Messages delivered over the same cycles (`sys.messages` counts
    /// from cycle 0 even after a resume).
    pub messages: u64,
    /// Everything recorded, when the run was given [`TraceOptions`].
    pub recorded: Option<TraceData>,
}

/// What [`Experiment::run_traced`] should record.
#[derive(Debug, Clone, Default)]
pub struct TraceOptions {
    /// Event-trace filter; `None` leaves tracing off.
    pub config: Option<TraceConfig>,
    /// Time-series bucket width in cycles; `None` leaves sampling off.
    pub sample_window: Option<u64>,
}

impl TraceOptions {
    /// Trace everything, no time series.
    pub fn trace_all() -> Self {
        Self {
            config: Some(TraceConfig::default()),
            sample_window: None,
        }
    }

    /// Sample every link with `window`-cycle buckets, no event trace.
    pub fn sample(window: u64) -> Self {
        Self {
            config: None,
            sample_window: Some(window),
        }
    }
}

/// Everything [`Experiment::run_traced`] recorded.
#[derive(Debug)]
pub struct TraceData {
    /// The structured event trace (empty when tracing was off).
    pub trace: Trace,
    /// Per-link time series (empty when sampling was off).
    pub links: Vec<LinkSeries>,
}

impl TraceData {
    /// Renders the link series as compact JSONL: one object per
    /// `(link, metric)` pair with the window width and bucket values.
    pub fn links_to_jsonl(&self) -> String {
        let mut out = String::new();
        for link in &self.links {
            for (metric, series) in [
                ("bytes", &link.series.bytes),
                ("flits", &link.series.flits),
                ("occupancy", &link.series.occupancy),
                ("pooled", &link.series.pooled),
            ] {
                out.push_str(&format!(
                    "{{\"link\":{},\"inter\":{},\"metric\":\"{}\",\"window\":{},\"buckets\":[",
                    netcrafter_sim::trace::json_string(&link.link),
                    link.is_inter,
                    metric,
                    series.window(),
                ));
                for (i, (_, v)) in series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&v.to_string());
                }
                out.push_str("]}\n");
            }
        }
        out
    }
}

/// The name [`Experiment`] had as a sweep job, kept for callers outside
/// the workspace.
#[deprecated(note = "a sweep job is an `Experiment`")]
pub type JobSpec = Experiment;

#[cfg(test)]
mod tests {
    use super::*;

    /// One of each variant.
    const VARIANTS: [SystemVariant; 10] = [
        SystemVariant::Baseline,
        SystemVariant::Ideal,
        SystemVariant::NetCrafter,
        SystemVariant::StitchOnly,
        SystemVariant::StitchPool {
            window: 64,
            selective: true,
        },
        SystemVariant::StitchTrim,
        SystemVariant::TrimOnly,
        SystemVariant::SeqOnly,
        SystemVariant::DataPrio,
        SystemVariant::SectorCache,
    ];

    #[test]
    fn variants_produce_expected_configs() {
        let base = SystemConfig::paper_baseline();
        let mut reprs = std::collections::BTreeSet::new();
        for v in VARIANTS {
            let c = v.apply(base);
            assert!(c.validate().is_ok(), "{v:?}");
            assert_eq!(
                c.trimming(),
                matches!(
                    v,
                    SystemVariant::NetCrafter | SystemVariant::StitchTrim | SystemVariant::TrimOnly
                ),
                "{v:?}"
            );
            assert!(reprs.insert(c.stable_repr()), "{v:?} repeats a run");
        }

        let ideal = SystemVariant::Ideal.apply(base);
        assert_eq!(ideal.topology.inter_gbps, ideal.topology.intra_gbps);

        let nc = SystemVariant::NetCrafter.apply(base);
        assert_eq!(nc.netcrafter, NetCrafterConfig::full());
        assert_eq!(nc.sector_fill, SectorFillPolicy::OnTrim);

        let so = SystemVariant::StitchOnly.apply(base);
        assert_eq!(so.netcrafter, NetCrafterConfig::stitching_only());
        // A zero window is stitching without pooling, selective or not.
        for selective in [false, true] {
            let sp0 = SystemVariant::StitchPool {
                window: 0,
                selective,
            };
            assert_eq!(sp0.apply(base), so);
        }

        let sp = SystemVariant::StitchPool {
            window: 64,
            selective: true,
        }
        .apply(base);
        assert_eq!(sp.netcrafter.stitching, Some(Pooling::new(64, true)));

        let sc = SystemVariant::SectorCache.apply(base);
        assert_eq!(sc.sector_fill, SectorFillPolicy::Always);
        assert!(!sc.any_enabled());

        let seq = SystemVariant::SeqOnly.apply(base);
        assert_eq!(seq.netcrafter.stitching, None);
        assert_eq!(seq.netcrafter.sequencing, Some(Priority::Ptw));

        let dp = SystemVariant::DataPrio.apply(base);
        assert_eq!(dp.netcrafter.sequencing, Some(Priority::Data));
    }

    #[test]
    fn variant_apply_preserves_warmup_cycles() {
        let mut base = SystemConfig::paper_baseline();
        base.netcrafter.warmup_cycles = 1_234;
        base.netcrafter.stitch_search_depth = 4;
        for v in VARIANTS {
            let c = v.apply(base);
            assert_eq!(
                c.netcrafter.warmup_cycles, 1_234,
                "variant {v:?} must not clobber the warmup window"
            );
            assert_eq!(
                c.netcrafter.stitch_search_depth, 4,
                "variant {v:?} must not clobber the search depth"
            );
        }
    }

    #[test]
    fn every_variant_but_the_plain_ones_builds_cluster_queues() {
        for v in VARIANTS {
            let r = Experiment::quick(Workload::Gups, v).run();
            let fifo = matches!(
                v,
                SystemVariant::Baseline | SystemVariant::Ideal | SystemVariant::SectorCache
            );
            assert_eq!(
                r.metrics.counter("net.inter.cq.pushed") > 0,
                !fifo,
                "{v:?}: a Cluster Queue exactly when a mechanism is on"
            );
            assert_eq!(
                v.apply(SystemConfig::small(2)).any_enabled(),
                !fifo,
                "{v:?}"
            );
        }
    }

    #[test]
    fn quick_experiment_runs_gups() {
        let r = Experiment::quick(Workload::Gups, SystemVariant::Baseline).run();
        assert!(r.exec_cycles > 0);
        assert!(r.metrics.counter("total.cu.mem_ops") > 0);
        assert!(r.inter_utilization() > 0.0, "GUPS loads the slow link");
        let fig7 = r.fig7_fractions();
        assert!(fig7[0] > 0.9, "GUPS needs <=16 B nearly always: {fig7:?}");
    }

    #[test]
    fn ideal_beats_baseline_on_network_bound_workload() {
        let base = Experiment::quick(Workload::Gups, SystemVariant::Baseline).run();
        let ideal = Experiment::quick(Workload::Gups, SystemVariant::Ideal).run();
        assert!(
            ideal.exec_cycles <= base.exec_cycles,
            "ideal {} vs base {}",
            ideal.exec_cycles,
            base.exec_cycles
        );
    }

    #[test]
    fn netcrafter_stitches_on_quick_run() {
        let r = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter).run();
        assert!(r.stitched_fraction() > 0.0, "some flits must stitch");
        assert!(
            r.metrics.counter("total.trim.trimmed") > 0,
            "trimming engages"
        );
    }

    #[test]
    fn experiment_is_send_and_keeps_the_memo_key_format() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<Experiment>();

        let exp = Experiment {
            tag: "flit8".into(),
            ..Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
        };
        assert_eq!(exp.memo_key(), "GUPS|NetCrafter|flit8");
        assert_eq!(
            Experiment::quick(Workload::Gups, SystemVariant::Baseline).tag,
            ""
        );
    }

    #[test]
    fn cache_key_tracks_physical_inputs_only() {
        let a = Experiment::quick(Workload::Gups, SystemVariant::Baseline);
        let b = Experiment {
            tag: "some-tag".into(),
            ..a.clone()
        };
        assert_eq!(a.cache_key(), b.cache_key(), "tag is display-only");
        assert_ne!(a.memo_key(), b.memo_key());

        let other_variant = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        assert_ne!(a.cache_key(), other_variant.cache_key());

        let other_seed = a.clone().with_seed(7);
        assert_ne!(a.cache_key(), other_seed.cache_key());
        assert_eq!(a.memo_key(), other_seed.memo_key(), "the seed is not named");

        let other_scale = a.clone().with_scale(Scale::small());
        assert_ne!(a.cache_key(), other_scale.cache_key());

        // PDES and every scheduler give bit-identical results, so a cache
        // filled sequentially serves a threaded or Legacy run.
        let threaded = a.clone().with_threads(4);
        assert_eq!(a.cache_key(), threaded.cache_key(), "threads are host-side");
        assert_eq!(a.memo_key(), threaded.memo_key());
        let legacy = a.clone().with_scheduler(SchedulerMode::Legacy);
        assert_eq!(a.cache_key(), legacy.cache_key(), "so is the scheduler");

        let mut longer = a.clone();
        longer.max_cycles += 1;
        assert_ne!(a.cache_key(), longer.cache_key());
    }

    #[test]
    fn prefix_key_groups_warmup_equivalent_jobs() {
        let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        // No warmup window: nothing to share.
        assert!(exp.prefix_key().is_none());

        exp.base_cfg.netcrafter.warmup_cycles = 500;
        let key = exp.prefix_key().expect("warmup window set");
        assert_eq!(exp.warmup_cycles(), 500);
        let with = |variant| Experiment {
            variant,
            ..exp.clone()
        };

        // Policy variants on the same ClusterQueue roster + fill policy
        // share the prefix with full NetCrafter.
        assert_eq!(
            with(SystemVariant::StitchTrim).prefix_key(),
            Some(key.clone())
        );

        // Different display tag never splits a group.
        let tagged = Experiment {
            tag: "other-tag".into(),
            ..exp.clone()
        };
        assert_eq!(tagged.prefix_key(), Some(key.clone()));

        // Different max_cycles does not split the group either (the
        // prefix is valid under any deeper watchdog).
        let mut deeper = exp.clone();
        deeper.max_cycles *= 2;
        assert_eq!(deeper.prefix_key(), Some(key.clone()));

        // FullLine-fill variants share a *different* prefix: trimming's
        // sectored fills change warmup state.
        let so_key = with(SystemVariant::StitchOnly)
            .prefix_key()
            .expect("shareable");
        assert_ne!(so_key, key);
        assert_eq!(with(SystemVariant::SeqOnly).prefix_key(), Some(so_key));

        // Baseline runs the FIFO roster: no sharing.
        assert!(with(SystemVariant::Baseline).prefix_key().is_none());

        // A watchdog at or below the warmup window disables sharing.
        let mut shallow = exp.clone();
        shallow.max_cycles = 500;
        assert!(shallow.prefix_key().is_none());

        // Physical divergence splits the group.
        assert_ne!(exp.with_seed(7).prefix_key().unwrap(), key);
    }

    /// `exp` paused once at `at`: the finished run, which carries the
    /// snapshot.
    fn paused(exp: &Experiment, at: u64) -> CheckpointedRun {
        let plan = CheckpointPlan {
            resume_from: None,
            pause_at: Some(at),
        };
        exp.run_planned(plan, None).expect("nothing to restore")
    }

    #[test]
    fn forked_run_is_byte_identical_to_cold() {
        // The oracle of prefix sharing at experiment granularity: pause
        // one run on the last inert cycle (warmup - 1) and finish two
        // *different* policy variants from its snapshot. Each must match
        // its own cold run byte-for-byte (exec cycles and every metric).
        let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        exp.base_cfg.netcrafter.warmup_cycles = 400;
        let fork = paused(&exp, 399).snapshot.expect("paused at cycle 399");
        assert_eq!(fork.cycle(), 399);

        for variant in [SystemVariant::NetCrafter, SystemVariant::StitchTrim] {
            let mut member = exp.clone();
            member.variant = variant;
            let cold = member.run();
            let plan = CheckpointPlan {
                resume_from: Some(fork.bytes()),
                pause_at: None,
            };
            let warm = member.run_planned(plan, None).expect("fork restores");
            assert_eq!(warm.resumed_at, fork.cycle());
            assert!(warm.snapshot.is_none(), "no pause asked for");
            assert_eq!(warm.result.exec_cycles, cold.exec_cycles, "{variant:?}");
            assert_eq!(
                warm.result.metrics.to_kv(),
                cold.metrics.to_kv(),
                "{variant:?} metrics diverged after fork restore"
            );
        }
    }

    #[test]
    fn fork_at_captures_mid_run_without_perturbing_the_run() {
        // A representative job pauses on the last inert cycle, hands its
        // snapshot back, and continues: its own result must match an
        // uninterrupted run, and a warmup-equivalent sibling pausing at
        // the same cycle must be in the same state, byte for byte.
        let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        exp.base_cfg.netcrafter.warmup_cycles = 400;
        let cold = exp.run();
        let run = paused(&exp, 399);
        assert_eq!(run.resumed_at, 0);
        assert_eq!(run.result.exec_cycles, cold.exec_cycles);
        assert_eq!(run.result.metrics.to_kv(), cold.metrics.to_kv());
        let fork = run.snapshot.expect("paused at cycle 399");

        let mut sibling = exp.clone();
        sibling.variant = SystemVariant::StitchTrim;
        let theirs = paused(&sibling, 399).snapshot.expect("paused at cycle 399");
        assert_eq!(fork.cycle(), theirs.cycle());
        assert_eq!(fork.state_hash(), theirs.state_hash());
        assert_eq!(fork.bytes(), theirs.bytes());

        // A snapshot that already starts at the pause cycle is not taken
        // a second time, and a run that quiesces first pauses there.
        let plan = CheckpointPlan {
            resume_from: Some(fork.bytes()),
            pause_at: Some(399),
        };
        let resumed = exp.run_planned(plan, None).expect("fork restores");
        assert!(resumed.snapshot.is_none());
        let late = paused(&exp, u64::MAX).snapshot.expect("paused at the end");
        assert_eq!(late.cycle(), cold.exec_cycles);
    }

    #[test]
    fn run_result_kv_round_trip() {
        let r = Experiment::quick(Workload::Gups, SystemVariant::Baseline).run();
        let text = r.to_kv();
        let back = RunResult::from_kv(&text).expect("round trip parses");
        assert_eq!(back.exec_cycles, r.exec_cycles);
        assert_eq!(back.metrics.to_kv(), r.metrics.to_kv());
        assert_eq!(back.inter_read_latency(), r.inter_read_latency());
        assert!(RunResult::from_kv("garbage").is_none());
        assert!(RunResult::from_kv("exec_cycles = nope\n").is_none());
    }

    #[test]
    fn variant_labels_are_unique() {
        let labels: Vec<String> = VARIANTS
            .iter()
            .chain(&[SystemVariant::StitchPool {
                window: 64,
                selective: false,
            }])
            .map(|v| v.label())
            .collect();
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
