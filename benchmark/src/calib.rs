//! Host-speed calibration.
//!
//! The box this runs on shares its caches and memory with other tenants,
//! and a simulation's wall time follows their load in steps that last from
//! seconds to minutes: over 25 minutes, 14 identical runs of `fig14_paper`
//! took 26.6 s to 38.2 s, and within one pass a job ran at 1.0x to 2.3x its
//! best time. A dependent ALU chain does not move with it, nor does
//! anything sampled on the second core; what does is the latency of a
//! dependent load chain over 4 MB, run on the measuring thread wherever the
//! pass can be interrupted. So every host time the benchmark bounds is
//! divided by
//!
//! ```text
//! factor = (1 - SHARE) + SHARE * measured_ns_per_load / REFERENCE_NS
//! ```
//!
//! averaged over the samples taken through the pass, which puts it in
//! seconds at the reference cache speed. On those 25 minutes (13 or 14 runs
//! of each workload, interleaved) the interquartile spread of `wall_s` went
//! from 21 % to 6 % on `fig14_paper`, 11 % to 6 % on `scaleout_ft16`, 19 %
//! to 10 % on `sweep_prefix` and 18 % to 12 % on `net_saturation`. The chain
//! is the benchmark's own code, so no change to the product can move the
//! factor; raw seconds and the factor are reported next to every
//! calibrated number.

use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per dependent load of the chain on this box when it is
/// neither idle nor crowded (the median over the runs above).
pub const REFERENCE_NS: f64 = 80.0;

/// The share of a run's time taken to scale with the chain. Fitted on the
/// runs above: 0.8 to 1.0 suits `fig14_paper` and `sweep_prefix` best, 0.5
/// to 0.6 `scaleout_ft16` and `net_saturation`; one value serves all four,
/// since a share per workload would be four more things to tune.
const SHARE: f64 = 0.7;

/// 4 MB of `u32`: larger than a core's private caches, smaller than the
/// last-level cache, like a simulation's hot state.
const CHAIN_LEN: usize = 1 << 20;

pub struct Calibrator {
    chain: Vec<u32>,
    at: u32,
    loads: u32,
    samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator whose every sample follows `loads` links of the chain
    /// (about 0.1 microseconds each).
    pub fn new(loads: u32) -> Self {
        // One cycle through all slots in a fixed pseudo-random order, so
        // each load depends on the one before and no prefetcher helps.
        let mut order: Vec<u32> = (0..CHAIN_LEN as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHAIN_LEN).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut chain = vec![0; CHAIN_LEN];
        for k in 0..CHAIN_LEN {
            chain[order[k] as usize] = order[(k + 1) % CHAIN_LEN];
        }
        Self {
            chain,
            at: 0,
            loads,
            samples: Vec::new(),
        }
    }

    /// Takes one sample: nanoseconds per load, now.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut at = self.at;
        for _ in 0..self.loads {
            at = self.chain[at as usize];
        }
        self.at = black_box(at);
        self.samples
            .push(t0.elapsed().as_secs_f64() * 1e9 / f64::from(self.loads));
    }

    /// The speed factor over the samples taken since the last call (1.0
    /// when there are none): above 1 the box was slower than the
    /// reference, below 1 faster. Divide host times by it.
    pub fn factor(&mut self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        self.samples.clear();
        (1.0 - SHARE) + SHARE * mean / REFERENCE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle_through_every_slot() {
        let cal = Calibrator::new(1);
        let mut seen = vec![false; CHAIN_LEN];
        let mut at = 0u32;
        for _ in 0..CHAIN_LEN {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = cal.chain[at as usize];
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn factor_is_one_without_samples_and_positive_with() {
        let mut cal = Calibrator::new(10_000);
        assert_eq!(cal.factor(), 1.0);
        cal.sample();
        cal.sample();
        let f = cal.factor();
        assert!(f > 1.0 - SHARE && f.is_finite());
        // `factor` starts a new window.
        assert_eq!(cal.factor(), 1.0);
    }
}
