//! Kernel descriptors: what a workload generator hands to the system —
//! CTAs with their wavefront traces, and the data buffers they touch with
//! their access-pattern classification.
//!
//! The pattern classification is what LASP's compile-time static index
//! analysis produces in the paper (§2.2, \[42\]): it drives both CTA→GPU
//! scheduling and page placement. Workload generators know their own
//! access patterns exactly, so they play the role of the compiler pass.

use crate::access::{AccessKind, CoalescedAccess, WavefrontOp, WavefrontTrace};
use crate::ids::{CtaId, GpuId};
use crate::VAddr;

/// Data-access pattern classes used by LASP for placement (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Each CTA block touches a disjoint slice (e.g. BlackScholes):
    /// block-partition pages to co-locate with the CTAs.
    Partitioned,
    /// Neighbouring CTAs touch neighbouring data (e.g. SYR2K, IM2COL).
    Adjacent,
    /// CTAs gather from a shared structure (e.g. matrix multiply reads).
    Gather,
    /// CTAs scatter writes across a shared structure (e.g. ATAX, MVT).
    Scatter,
    /// Unpredictable accesses (GUPS, SPMV, PageRank, MIS): interleave
    /// pages across GPUs.
    Random,
}

/// A virtual-address-space data buffer of a kernel.
#[derive(Debug, Clone)]
pub struct BufferSpec {
    /// Human-readable name (for placement audits).
    pub name: String,
    /// First virtual address (page-aligned).
    pub base: VAddr,
    /// Size in bytes.
    pub bytes: u64,
    /// Pattern classification for LASP.
    pub pattern: AccessPattern,
}

impl BufferSpec {
    /// Number of pages the buffer spans.
    pub fn pages(&self) -> u64 {
        self.bytes.div_ceil(crate::PAGE_BYTES)
    }

    /// First virtual page number.
    pub fn base_vpn(&self) -> u64 {
        assert_eq!(
            self.base.0 % crate::PAGE_BYTES,
            0,
            "buffers are page-aligned"
        );
        self.base.vpn()
    }
}

/// One CTA: its wavefronts and an optional placement hint from the
/// generator (the GPU whose data slice it predominantly touches).
#[derive(Debug, Clone)]
pub struct CtaSpec {
    /// CTA id, unique within the kernel.
    pub id: CtaId,
    /// The CTA's wavefronts, in dispatch order.
    pub waves: Vec<WavefrontTrace>,
    /// Preferred GPU (from the generator's own locality knowledge);
    /// `None` lets LASP block-partition by CTA id.
    pub home_hint: Option<GpuId>,
}

/// A complete kernel launch.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name (workload + kernel index).
    pub name: String,
    /// All CTAs of the launch.
    pub ctas: Vec<CtaSpec>,
    /// The buffers the kernel touches.
    pub buffers: Vec<BufferSpec>,
}

impl KernelSpec {
    /// Total wavefronts across all CTAs.
    pub fn total_waves(&self) -> usize {
        self.ctas.iter().map(|c| c.waves.len()).sum()
    }

    /// Total dynamic operations across all wavefront traces.
    pub fn total_ops(&self) -> usize {
        self.ctas
            .iter()
            .flat_map(|c| &c.waves)
            .map(|w| w.ops.len())
            .sum()
    }

    /// Total memory operations.
    pub fn total_mem_ops(&self) -> usize {
        self.ctas
            .iter()
            .flat_map(|c| &c.waves)
            .map(super::access::WavefrontTrace::mem_ops)
            .sum()
    }

    /// A stable fingerprint of everything the kernel hands the system
    /// (name, buffers, CTA ids, home hints, every op), folded a `u64` at a
    /// time FNV-1a style. Each step is a bijection of the running value,
    /// so changing any one word changes the result. The wave types are
    /// taken apart field by field with no `..`, so a field added to one
    /// of them does not compile until it is folded in here too.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fnv1a64(self.name.as_bytes());
        let mut fold = |words: &[u64]| {
            for &w in words {
                h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(&[self.buffers.len() as u64]);
        for b in &self.buffers {
            let name = crate::fnv1a64(b.name.as_bytes());
            fold(&[name, b.base.0, b.bytes, b.pattern as u64]);
        }
        fold(&[self.ctas.len() as u64]);
        for spec in &self.ctas {
            let hint = spec.home_hint.map_or(u64::MAX, |g| u64::from(g.0));
            fold(&[u64::from(spec.id.0), hint, spec.waves.len() as u64]);
            for WavefrontTrace { id, cta, ops } in &spec.waves {
                let ids = u64::from(id.0) << 32 | u64::from(cta.0);
                fold(&[ids, ops.len() as u64]);
                for op in ops {
                    match *op {
                        WavefrontOp::Compute(cycles) => fold(&[u64::from(cycles) << 2]),
                        WavefrontOp::Mem(CoalescedAccess { vaddr, kind, mask }) => {
                            let kind = match kind {
                                AccessKind::Read => 1,
                                AccessKind::Write => 2,
                            };
                            fold(&[kind, vaddr.0, mask.0]);
                        }
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::WavefrontId;

    #[test]
    fn buffer_geometry() {
        let b = BufferSpec {
            name: "a".into(),
            base: VAddr(0x10_000),
            bytes: 5000,
            pattern: AccessPattern::Random,
        };
        assert_eq!(b.pages(), 2);
        assert_eq!(b.base_vpn(), 0x10);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_buffer_panics() {
        let b = BufferSpec {
            name: "a".into(),
            base: VAddr(0x10_100),
            bytes: 64,
            pattern: AccessPattern::Random,
        };
        let _ = b.base_vpn();
    }

    #[test]
    fn kernel_counts() {
        let wave = |id: u32| WavefrontTrace {
            id: WavefrontId(id),
            cta: CtaId(0),
            ops: vec![
                WavefrontOp::Compute(5),
                WavefrontOp::Mem(CoalescedAccess::read(VAddr(0), 8)),
            ],
        };
        let k = KernelSpec {
            name: "k".into(),
            ctas: vec![CtaSpec {
                id: CtaId(0),
                waves: vec![wave(0), wave(1)],
                home_hint: Some(GpuId(1)),
            }],
            buffers: vec![],
        };
        assert_eq!(k.total_waves(), 2);
        assert_eq!(k.total_ops(), 4);
        assert_eq!(k.total_mem_ops(), 2);
    }

    /// Changing any one field of a wave — its ids, a compute phase's
    /// cycles, an access's kind, address or mask — moves the fingerprint.
    #[test]
    fn fingerprint_moves_with_every_wave_field() {
        let kernel = |wave: WavefrontTrace| KernelSpec {
            name: "k".into(),
            ctas: vec![CtaSpec {
                id: CtaId(0),
                waves: vec![wave],
                home_hint: None,
            }],
            buffers: vec![],
        };
        let read = CoalescedAccess::read(VAddr(0x40), 8);
        let wave = WavefrontTrace {
            id: WavefrontId(0),
            cta: CtaId(0),
            ops: vec![WavefrontOp::Compute(5), WavefrontOp::Mem(read)],
        };
        let base = kernel(wave.clone()).fingerprint();
        assert_eq!(base, kernel(wave.clone()).fingerprint(), "stable");

        let with_access = |access: CoalescedAccess| WavefrontTrace {
            ops: vec![WavefrontOp::Compute(5), WavefrontOp::Mem(access)],
            ..wave.clone()
        };
        let changed = [
            (
                "id",
                WavefrontTrace {
                    id: WavefrontId(1),
                    ..wave.clone()
                },
            ),
            (
                "cta",
                WavefrontTrace {
                    cta: CtaId(1),
                    ..wave.clone()
                },
            ),
            (
                "compute cycles",
                WavefrontTrace {
                    ops: vec![WavefrontOp::Compute(6), WavefrontOp::Mem(read)],
                    ..wave.clone()
                },
            ),
            (
                "kind",
                with_access(CoalescedAccess {
                    kind: AccessKind::Write,
                    ..read
                }),
            ),
            ("vaddr", with_access(CoalescedAccess::read(VAddr(0x80), 8))),
            ("mask", with_access(CoalescedAccess::read(VAddr(0x40), 4))),
        ];
        for (field, wave) in changed {
            assert_ne!(kernel(wave).fingerprint(), base, "{field}");
        }
    }
}
