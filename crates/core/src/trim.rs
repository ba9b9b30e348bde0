//! The Trim Engine (§4.3): drops the unneeded payload of read responses
//! that must traverse the inter-cluster network.
//!
//! A read request whose coalesced byte mask fits in a single sector and
//! whose response will cross clusters carries trim bits (one "needs ≤ one
//! sector" bit plus the sector offset, repurposed from unused address
//! bits — [`TrimInfo`]). When the owning GPU builds the response, the Trim
//! Engine honours those bits: the response carries one sector (granularity
//! bytes) instead of the full 64 B line, shrinking a Read Rsp from 5 flits
//! to 2 at 16 B flits.
//!
//! Placement note: the paper houses the Trim Engine in the cluster
//! switch's NetCrafter controller; this implementation applies the
//! identical decision at the responding RDMA engine during packet
//! creation (the crossing predicate is static, so the outcome is the
//! same on the lower-bandwidth network — see DESIGN.md §1).

use netcrafter_proto::{MemReq, Metrics, TrimInfo};
use netcrafter_sim::snap_fields;

/// Trim statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrimStats {
    /// Read responses considered (inter-cluster reads).
    pub considered: u64,
    /// Responses actually trimmed.
    pub trimmed: u64,
    /// Payload bytes removed from the network by trimming.
    pub bytes_saved: u64,
}

snap_fields! { impl Snap for TrimStats { considered, trimmed, bytes_saved } }

impl TrimStats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.considered"), self.considered);
        metrics.add(&format!("{prefix}.trimmed"), self.trimmed);
        metrics.add(&format!("{prefix}.bytes_saved"), self.bytes_saved);
    }
}

/// The Trim Engine.
#[derive(Debug)]
pub struct TrimEngine {
    enabled: bool,
    granularity: u32,
    /// Statistics.
    pub stats: TrimStats,
}

impl TrimEngine {
    /// Creates a Trim Engine; when `enabled` is false every decision is
    /// "keep the full line" (the baseline).
    pub fn new(enabled: bool, granularity: u32) -> Self {
        assert!(granularity > 0 && 64 % granularity == 0);
        Self {
            enabled,
            granularity,
            stats: TrimStats::default(),
        }
    }

    snap_fields! {
        pub fn save + load_into {
            enabled: skipped(config),
            granularity: skipped(config),
            stats,
        }
    }

    /// Configured sector granularity in bytes.
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// Computes the trim bits a *request* should carry: `Some` when
    /// trimming is on, the access fits one sector, and the response will
    /// cross clusters.
    pub fn request_bits(&self, req: &MemReq, crosses_clusters: bool) -> Option<TrimInfo> {
        if !self.enabled || !crosses_clusters || req.write {
            return None;
        }
        let g = self.granularity as u64;
        if req.mask.fits_one_sector(g) {
            Some(TrimInfo {
                granularity: self.granularity,
                sector: req.mask.first_sector(g).expect("non-empty mask"),
            })
        } else {
            None
        }
    }

    /// Accounts a read response of `payload_bytes` (derived by the caller
    /// from the sectors the fill policy requested). A sub-line payload on
    /// a cross-cluster response is a trim performed by this engine; with
    /// the engine disabled (the sector-cache baseline also produces
    /// partial responses) nothing is counted as trimmed. Statistics only:
    /// the caller (`Rdma`) emits the `trim.response` trace event alongside.
    pub fn record_response(&mut self, payload_bytes: u32, crosses_clusters: bool) {
        if !crosses_clusters {
            return;
        }
        self.stats.considered += 1;
        if self.enabled && payload_bytes < 64 {
            self.stats.trimmed += 1;
            self.stats.bytes_saved += 64 - payload_bytes as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::{AccessId, GpuId, LineAddr, LineMask, Origin, TrafficClass};

    fn req(mask: LineMask) -> MemReq {
        MemReq {
            access: AccessId(1),
            line: LineAddr(0x40),
            write: false,
            mask,
            sectors: 0b1111,
            class: TrafficClass::Data,
            requester: GpuId(3),
            owner: GpuId(0),
            origin: Origin::Cu(0),
        }
    }

    #[test]
    fn small_cross_cluster_read_gets_trim_bits() {
        let te = TrimEngine::new(true, 16);
        let bits = te.request_bits(&req(LineMask::span(16, 8)), true);
        assert_eq!(
            bits,
            Some(TrimInfo {
                granularity: 16,
                sector: 1
            })
        );
    }

    #[test]
    fn intra_cluster_read_is_never_trimmed() {
        let te = TrimEngine::new(true, 16);
        assert_eq!(te.request_bits(&req(LineMask::span(16, 8)), false), None);
    }

    #[test]
    fn wide_access_is_not_trimmed() {
        let te = TrimEngine::new(true, 16);
        assert_eq!(te.request_bits(&req(LineMask::span(8, 32)), true), None);
    }

    #[test]
    fn disabled_engine_never_trims() {
        let te = TrimEngine::new(false, 16);
        assert_eq!(te.request_bits(&req(LineMask::span(0, 4)), true), None);
    }

    #[test]
    fn writes_are_not_trimmed() {
        let te = TrimEngine::new(true, 16);
        let mut r = req(LineMask::span(0, 4));
        r.write = true;
        assert_eq!(te.request_bits(&r, true), None);
    }

    #[test]
    fn trimmed_response_accounted() {
        let mut te = TrimEngine::new(true, 16);
        te.record_response(16, true);
        assert_eq!(te.stats.considered, 1);
        assert_eq!(te.stats.trimmed, 1);
        assert_eq!(te.stats.bytes_saved, 48);
        // Intra-cluster responses are never considered.
        te.record_response(16, false);
        assert_eq!(te.stats.considered, 1);
    }

    #[test]
    fn full_response_not_counted_as_trim() {
        let mut te = TrimEngine::new(true, 16);
        te.record_response(64, true);
        assert_eq!(te.stats.considered, 1);
        assert_eq!(te.stats.trimmed, 0);
    }

    #[test]
    fn disabled_engine_counts_no_trims_for_partial_responses() {
        // The sector-cache baseline produces partial responses with the
        // trim engine disabled; they are not NetCrafter trims.
        let mut te = TrimEngine::new(false, 16);
        te.record_response(16, true);
        assert_eq!(te.stats.considered, 1);
        assert_eq!(te.stats.trimmed, 0);
        assert_eq!(te.stats.bytes_saved, 0);
    }

    #[test]
    fn fine_granularities() {
        let te4 = TrimEngine::new(true, 4);
        let bits = te4.request_bits(&req(LineMask::span(60, 4)), true);
        assert_eq!(
            bits,
            Some(TrimInfo {
                granularity: 4,
                sector: 15
            })
        );
        let mut te8 = TrimEngine::new(true, 8);
        te8.record_response(8, true);
        assert_eq!(te8.stats.bytes_saved, 56);
    }

    #[test]
    fn stats_report() {
        let mut te = TrimEngine::new(true, 16);
        te.record_response(16, true);
        let mut m = Metrics::new();
        te.stats.report(&mut m, "trim");
        assert_eq!(m.counter("trim.trimmed"), 1);
        assert_eq!(m.counter("trim.bytes_saved"), 48);
    }
}
