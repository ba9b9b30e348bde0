//! The 15 evaluated GPU workloads (paper Table 3) as deterministic
//! coalesced-access trace generators.
//!
//! The paper runs GCN3 binaries of these applications inside MGPUSim; a
//! Rust reproduction cannot ship an ISA emulator plus the proprietary
//! benchmark binaries, so each workload is reproduced at the level every
//! NetCrafter mechanism actually observes: the stream of *coalesced
//! wavefront accesses* entering the memory system. Each generator
//! reproduces its application's
//!
//! * access-pattern class (Table 3: random / gather / scatter / adjacent
//!   / partitioned), which drives LASP placement and hence the
//!   local-vs-remote and intra-vs-inter-cluster traffic mix;
//! * bytes-required-per-cache-line distribution (Figure 7), which drives
//!   flit padding and Trimming opportunity;
//! * read/write balance and compute intensity;
//! * memory footprint relative to TLB reach, which drives page-table-walk
//!   traffic (the paper's ~13% PTW share of inter-cluster bytes).
//!
//! Every generator is deterministic in `(scale, seed)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod dnn;
pub mod gen;
pub mod scale;

pub use scale::Scale;

use netcrafter_proto::KernelSpec;

/// The evaluated workloads, in Table 3 order, then the kernels of
/// single-figure studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Workload {
    Gups,
    Mt,
    Mis,
    Im2col,
    Atax,
    Bs,
    Mm2,
    Mvt,
    Spmv,
    Pr,
    Sr,
    Syr2k,
    Vgg16,
    Lenet,
    Rnet18,
    /// The large dense GEMM of the Figure 17 granularity study; not one
    /// of Table 3's workloads, so not in [`Workload::ALL`].
    LargeGemm,
}

impl Workload {
    /// Every workload, in Table 3 order.
    pub const ALL: [Workload; 15] = [
        Workload::Gups,
        Workload::Mt,
        Workload::Mis,
        Workload::Im2col,
        Workload::Atax,
        Workload::Bs,
        Workload::Mm2,
        Workload::Mvt,
        Workload::Spmv,
        Workload::Pr,
        Workload::Sr,
        Workload::Syr2k,
        Workload::Vgg16,
        Workload::Lenet,
        Workload::Rnet18,
    ];

    /// Paper abbreviation (Table 3).
    pub fn abbrev(self) -> &'static str {
        match self {
            Workload::Gups => "GUPS",
            Workload::Mt => "MT",
            Workload::Mis => "MIS",
            Workload::Im2col => "IM2COL",
            Workload::Atax => "ATAX",
            Workload::Bs => "BS",
            Workload::Mm2 => "MM2",
            Workload::Mvt => "MVT",
            Workload::Spmv => "SPMV",
            Workload::Pr => "PR",
            Workload::Sr => "SR",
            Workload::Syr2k => "SYR2K",
            Workload::Vgg16 => "VGG16",
            Workload::Lenet => "LENET",
            Workload::Rnet18 => "RNET18",
            Workload::LargeGemm => "LGEMM",
        }
    }

    /// Full application description (Table 3).
    pub fn description(self) -> &'static str {
        match self {
            Workload::Gups => "multi-threaded, random access",
            Workload::Mt => "matrix transpose",
            Workload::Mis => "max. independent set",
            Workload::Im2col => "image to column",
            Workload::Atax => "matrix transpose & vector multiplication",
            Workload::Bs => "blackscholes",
            Workload::Mm2 => "2D matrix multiplications",
            Workload::Mvt => "matrix vector product and transpose",
            Workload::Spmv => "sparse matrix vector multiplication",
            Workload::Pr => "page rank algorithm",
            Workload::Sr => "shoc-reduction",
            Workload::Syr2k => "rank-2k of a symmetric matrix",
            Workload::Vgg16 => "deep CNN for large-scale image recognition",
            Workload::Lenet => "CNN for digit recognition",
            Workload::Rnet18 => "RESNET18 - deep CNN with residual connections",
            Workload::LargeGemm => "large dense matrix multiplication",
        }
    }

    /// Access-pattern column of Table 3 (`-` for the DNN workloads).
    pub fn pattern(self) -> &'static str {
        match self {
            Workload::Gups | Workload::Mis | Workload::Spmv | Workload::Pr => "Random",
            Workload::Mt | Workload::Mm2 | Workload::Sr | Workload::LargeGemm => "Gather",
            Workload::Im2col | Workload::Syr2k => "Adjacent",
            Workload::Atax => "Scatter",
            Workload::Bs => "Partitioned",
            Workload::Mvt => "Scatter,Gather",
            Workload::Vgg16 | Workload::Lenet | Workload::Rnet18 => "-",
        }
    }

    /// Benchmark-suite column of Table 3.
    pub fn suite(self) -> &'static str {
        match self {
            Workload::Gups => "MGPUSim",
            Workload::Mt | Workload::Bs => "AMDAPPSDK",
            Workload::Mis => "Pannotia",
            Workload::Im2col | Workload::Vgg16 | Workload::Lenet | Workload::Rnet18 => "DNN-Mark",
            Workload::Atax | Workload::Mm2 | Workload::Mvt | Workload::Syr2k => "Polybench",
            Workload::Spmv | Workload::Sr => "SHOC",
            Workload::Pr => "Hetero-Mark",
            Workload::LargeGemm => "-",
        }
    }

    /// Generates the workload's kernel for `total_gpus` GPUs at `scale`,
    /// deterministically in `seed`.
    pub fn generate(self, scale: &Scale, total_gpus: u16, seed: u64) -> KernelSpec {
        match self {
            Workload::Gups => gen::gups(scale, total_gpus, seed),
            Workload::Mt => gen::mt(scale, total_gpus, seed),
            Workload::Mis => gen::mis(scale, total_gpus, seed),
            Workload::Im2col => gen::im2col(scale, total_gpus, seed),
            Workload::Atax => gen::atax(scale, total_gpus, seed),
            Workload::Bs => gen::bs(scale, total_gpus, seed),
            Workload::Mm2 => gen::mm2(scale, total_gpus, seed),
            Workload::Mvt => gen::mvt(scale, total_gpus, seed),
            Workload::Spmv => gen::spmv(scale, total_gpus, seed),
            Workload::Pr => gen::pr(scale, total_gpus, seed),
            Workload::Sr => gen::sr(scale, total_gpus, seed),
            Workload::Syr2k => gen::syr2k(scale, total_gpus, seed),
            Workload::Vgg16 => dnn::vgg16(scale, total_gpus, seed),
            Workload::Lenet => dnn::lenet(scale, total_gpus, seed),
            Workload::Rnet18 => dnn::rnet18(scale, total_gpus, seed),
            Workload::LargeGemm => gen::large_gemm(scale, total_gpus, seed),
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::WavefrontOp;

    #[test]
    fn table3_metadata_complete() {
        assert_eq!(Workload::ALL.len(), 15);
        for w in Workload::ALL {
            assert!(!w.abbrev().is_empty());
            assert!(!w.description().is_empty());
            assert!(!w.suite().is_empty());
        }
        assert_eq!(Workload::Gups.pattern(), "Random");
        assert_eq!(Workload::Bs.pattern(), "Partitioned");
        assert_eq!(Workload::Mvt.pattern(), "Scatter,Gather");
    }

    #[test]
    fn all_workloads_generate_nonempty_kernels() {
        let scale = Scale::tiny();
        for w in Workload::ALL {
            let k = w.generate(&scale, 4, 1);
            assert!(!k.ctas.is_empty(), "{w}: no CTAs");
            assert!(!k.buffers.is_empty(), "{w}: no buffers");
            assert!(k.total_mem_ops() > 0, "{w}: no memory ops");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let scale = Scale::tiny();
        for w in Workload::ALL {
            let a = w.generate(&scale, 4, 42);
            let b = w.generate(&scale, 4, 42);
            assert_eq!(a.total_ops(), b.total_ops(), "{w}");
            // Deep-compare the first trace.
            let ta = &a.ctas[0].waves[0].ops;
            let tb = &b.ctas[0].waves[0].ops;
            assert_eq!(ta, tb, "{w}: traces differ across identical seeds");
        }
    }

    #[test]
    fn different_seeds_differ_for_random_workloads() {
        let scale = Scale::tiny();
        let a = Workload::Gups.generate(&scale, 4, 1);
        let b = Workload::Gups.generate(&scale, 4, 2);
        assert_ne!(
            a.ctas[0].waves[0].ops, b.ctas[0].waves[0].ops,
            "GUPS must vary with seed"
        );
    }

    #[test]
    fn every_access_falls_in_a_declared_buffer() {
        let scale = Scale::tiny();
        for w in Workload::ALL {
            let k = w.generate(&scale, 4, 7);
            for cta in &k.ctas {
                for wave in &cta.waves {
                    for op in &wave.ops {
                        if let WavefrontOp::Mem(acc) = op {
                            let inside = k.buffers.iter().any(|b| {
                                acc.vaddr.0 >= b.base.0 && acc.vaddr.0 < b.base.0 + b.bytes
                            });
                            assert!(inside, "{w}: access {:?} outside buffers", acc.vaddr);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn random_workloads_use_small_accesses() {
        let scale = Scale::tiny();
        for w in [Workload::Gups, Workload::Spmv, Workload::Mis, Workload::Pr] {
            let k = w.generate(&scale, 4, 3);
            let (mut small, mut total) = (0u64, 0u64);
            for cta in &k.ctas {
                for wave in &cta.waves {
                    for op in &wave.ops {
                        if let WavefrontOp::Mem(acc) = op {
                            total += 1;
                            if acc.bytes_required() <= 16 {
                                small += 1;
                            }
                        }
                    }
                }
            }
            assert!(
                small * 2 > total,
                "{w}: random workloads should mostly need <=16 B ({small}/{total})"
            );
        }
    }

    #[test]
    fn adjacent_workloads_use_full_lines() {
        let scale = Scale::tiny();
        for w in [Workload::Im2col, Workload::Syr2k] {
            let k = w.generate(&scale, 4, 3);
            let (mut full, mut total) = (0u64, 0u64);
            for cta in &k.ctas {
                for wave in &cta.waves {
                    for op in &wave.ops {
                        if let WavefrontOp::Mem(acc) = op {
                            total += 1;
                            if acc.bytes_required() == 64 {
                                full += 1;
                            }
                        }
                    }
                }
            }
            assert!(full * 2 > total, "{w}: adjacent workloads mostly use 64 B");
        }
    }

    #[test]
    fn partitioned_workload_sets_home_hints() {
        let k = Workload::Bs.generate(&Scale::tiny(), 4, 3);
        assert!(k.ctas.iter().all(|c| c.home_hint.is_some()));
    }
}
