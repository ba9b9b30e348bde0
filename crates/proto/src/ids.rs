//! Strongly-typed identifiers for the entities of the simulated system.
//!
//! Every identifier is a thin newtype over an integer so that indices into
//! the various component tables cannot be confused with one another. All of
//! them are `Copy`, ordered and hashable, and display as `kind<n>`.

use core::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $repr);

        impl $name {
            /// Returns the raw integer value of this identifier.
            #[inline]
            pub const fn raw(self) -> $repr {
                self.0
            }

            /// Returns the identifier as a `usize`, for indexing tables.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$repr> for $name {
            #[inline]
            fn from(v: $repr) -> Self {
                Self(v)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A GPU (chiplet) in the multi-GPU node. GPUs are numbered globally,
    /// so with 2 clusters × 2 GPUs the ids are `gpu0..gpu3`.
    GpuId,
    u16,
    "gpu"
);

id_type!(
    /// A cluster of GPUs connected by the higher-bandwidth intra-cluster
    /// network. Clusters are connected to each other by the lower-bandwidth
    /// inter-cluster network that NetCrafter optimizes.
    ClusterId,
    u16,
    "cluster"
);

id_type!(
    /// A compute unit (CU / streaming multiprocessor) within one GPU.
    /// The id is local to its GPU.
    CuId,
    u16,
    "cu"
);

id_type!(
    /// A cooperative thread array (workgroup / thread block) of a kernel.
    CtaId,
    u32,
    "cta"
);

id_type!(
    /// A wavefront (warp): 64 adjacent threads executing in lockstep on a
    /// SIMD unit. The id is unique within one kernel launch.
    WavefrontId,
    u32,
    "wf"
);

id_type!(
    /// A network endpoint or intermediate hop. Every GPU's RDMA engine and
    /// every switch owns one `NodeId`; routing tables map destination nodes
    /// to output ports.
    NodeId,
    u16,
    "node"
);

id_type!(
    /// A memory access in flight, assigned at coalescing time and carried
    /// end-to-end so responses can be matched to requests.
    AccessId,
    u64,
    "acc"
);

id_type!(
    /// A network packet. The id doubles as the stitching `ID` metadata the
    /// paper adds when a payload-only chunk is stitched into a parent flit
    /// (§4.2, Figure 10(c)).
    PacketId,
    u64,
    "pkt"
);

impl GpuId {
    /// Returns the cluster this GPU belongs to, given the number of GPUs
    /// per cluster.
    #[inline]
    pub const fn cluster(self, gpus_per_cluster: u16) -> ClusterId {
        ClusterId(self.0 / gpus_per_cluster)
    }
}

/// A monotonically increasing id allocator usable for any id-macro type.
///
/// # Examples
///
/// ```
/// use netcrafter_proto::ids::{IdAlloc, PacketId};
///
/// let mut alloc = IdAlloc::<PacketId>::new();
/// assert_eq!(alloc.next(), PacketId(0));
/// assert_eq!(alloc.next(), PacketId(1));
/// ```
#[derive(Debug, Clone)]
pub struct IdAlloc<T> {
    next: u64,
    _marker: core::marker::PhantomData<T>,
}

impl<T: From<u64>> IdAlloc<T> {
    /// Creates an allocator starting at id 0.
    pub const fn new() -> Self {
        Self {
            next: 0,
            _marker: core::marker::PhantomData,
        }
    }

    /// Returns the next id and advances the allocator.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> T {
        let id = self.next;
        self.next += 1;
        T::from(id)
    }

    /// Discards the next `n` ids, as `n` calls of [`IdAlloc::next`] whose
    /// results were dropped would.
    pub fn skip(&mut self, n: u64) {
        self.next += n;
    }

    /// Number of ids handed out so far.
    pub const fn issued(&self) -> u64 {
        self.next
    }

    /// Recreates an allocator that has already handed out `issued` ids,
    /// so the next id is `issued`. Used when restoring saved state.
    pub const fn with_issued(issued: u64) -> Self {
        Self {
            next: issued,
            _marker: core::marker::PhantomData,
        }
    }
}

impl<T: From<u64>> Default for IdAlloc<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(GpuId(0) < GpuId(3));
        assert_eq!(GpuId(2).index(), 2);
        assert_eq!(CuId(7).raw(), 7);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(GpuId(3).to_string(), "gpu3");
        assert_eq!(ClusterId(1).to_string(), "cluster1");
        assert_eq!(format!("{:?}", PacketId(42)), "pkt42");
    }

    #[test]
    fn gpu_cluster_mapping_matches_frontier_layout() {
        // 2 GPUs per cluster: gpu0,gpu1 -> cluster0; gpu2,gpu3 -> cluster1.
        assert_eq!(GpuId(0).cluster(2), ClusterId(0));
        assert_eq!(GpuId(1).cluster(2), ClusterId(0));
        assert_eq!(GpuId(2).cluster(2), ClusterId(1));
        assert_eq!(GpuId(3).cluster(2), ClusterId(1));
    }

    #[test]
    fn id_alloc_is_monotonic() {
        let mut a = IdAlloc::<AccessId>::new();
        let first = a.next();
        let second = a.next();
        assert_eq!(first, AccessId(0));
        assert_eq!(second, AccessId(1));
        assert_eq!(a.issued(), 2);
        a.skip(3);
        assert_eq!(a.next(), AccessId(5));
    }

    #[test]
    fn from_raw_round_trips() {
        let id: NodeId = 9u16.into();
        assert_eq!(id, NodeId(9));
    }
}
