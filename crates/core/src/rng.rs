//! A small deterministic PRNG (SplitMix64) used by the workload
//! generators and randomized tests.
//!
//! The repository builds fully offline, so it cannot depend on the `rand`
//! crate; SplitMix64 is tiny, statistically solid for trace generation,
//! and — crucially — *stable*: the stream produced for a given seed is
//! part of the experiment-reproducibility contract (EXPERIMENTS.md
//! records figures generated from these streams).

use netcrafter_sim::snap_fields;

/// SplitMix64: Sebastiano Vigna's 64-bit mixer-based generator.
///
/// Every workload generator derives one `SplitMix64` from
/// `seed ^ workload-constant`, so traces are deterministic in
/// `(scale, seed)` and independent across workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

snap_fields! { impl Snap for SplitMix64 { state } }

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; returns 0 when `n == 0`.
    ///
    /// Uses Lemire's multiply-shift reduction with a rejection loop, so
    /// the distribution is exactly uniform for every `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Reject the partial top interval to avoid modulo bias.
        let threshold = n.wrapping_neg() % n;
        loop {
            let wide = (self.next_u64() as u128) * (n as u128);
            if wide as u64 >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform `usize` in `[0, n)`; returns 0 when `n == 0`.
    pub fn below_usize(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den` (like `rand`'s `gen_ratio`).
    pub fn ratio(&mut self, num: u32, den: u32) -> bool {
        debug_assert!(den > 0 && num <= den);
        self.below(den as u64) < num as u64
    }

    /// Fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below_usize(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(SplitMix64::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers() {
        let mut r = SplitMix64::new(7);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.below(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable: {seen:?}");
        assert_eq!(r.below(0), 0);
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = SplitMix64::new(11);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.range(3, 6);
            assert!((3..=6).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 6;
        }
        assert!(lo_seen && hi_seen);
        assert_eq!(r.range(5, 5), 5);
    }

    #[test]
    fn ratio_tracks_probability() {
        let mut r = SplitMix64::new(13);
        let hits = (0..10_000).filter(|_| r.ratio(1, 4)).count();
        assert!((2000..3000).contains(&hits), "1/4 ratio ~2500: {hits}");
        assert!((0..100).all(|_| r.ratio(4, 4)));
        assert!(!(0..100).any(|_| r.ratio(0, 4)));
    }

    #[test]
    fn pick_selects_every_element() {
        let mut r = SplitMix64::new(17);
        let items = [10, 20, 30];
        let mut counts = [0u32; 3];
        for _ in 0..300 {
            counts[(*r.pick(&items) / 10 - 1) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
    }
}
