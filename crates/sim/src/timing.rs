//! Timing utilities shared by all hardware models: fixed-latency
//! pipelines and fractional-rate bandwidth limiters.

use std::collections::VecDeque;

use netcrafter_proto::config::{rate_tokens, RATE_UNIT};

use crate::snapshot::{Snap, SnapshotError};
use crate::Cycle;

/// A fixed- or variable-latency pipeline: items pushed at cycle `t` with
/// latency `d` become available at cycle `t + d`, in push order.
///
/// This models lookup pipelines (the 20-cycle L1, the 100-cycle L2, the
/// 30-cycle switch pipeline) without per-cycle shifting: entries store
/// their ready cycle and are popped lazily.
///
/// # Examples
///
/// ```
/// use netcrafter_sim::DelayQueue;
///
/// let mut q = DelayQueue::new();
/// q.push(10, "a"); // ready at cycle 10
/// q.push(12, "b");
/// assert_eq!(q.pop_ready(9), None);
/// assert_eq!(q.pop_ready(10), Some("a"));
/// assert_eq!(q.pop_ready(10), None);
/// assert_eq!(q.pop_ready(15), Some("b"));
/// ```
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    items: VecDeque<(Cycle, T)>,
}

impl<T> DelayQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            items: VecDeque::new(),
        }
    }

    /// Enqueues `item`, ready at cycle `ready_at`.
    ///
    /// Ready cycles must be non-decreasing in push order (true for any
    /// fixed-latency pipeline); this is asserted in debug builds.
    pub fn push(&mut self, ready_at: Cycle, item: T) {
        debug_assert!(
            self.items.back().is_none_or(|(r, _)| *r <= ready_at),
            "DelayQueue requires non-decreasing ready cycles"
        );
        self.items.push_back((ready_at, item));
    }

    /// Pops the front item if it is ready at `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.items.front().is_some_and(|(r, _)| *r <= now) {
            self.items.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Number of queued items (ready or not).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over all queued items.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(_, item)| item)
    }

    /// The cycle at which the front item becomes ready, if any. Because
    /// ready cycles are non-decreasing, this is the earliest readiness in
    /// the whole queue — the precise wake for an event-driven component.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.items.front().map(|&(r, _)| r)
    }
}

impl<T> Default for DelayQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

crate::snap_fields! {
    impl<T: Snap> Snap for DelayQueue<T> { items }
    validate Self::check_restored
}

impl<T> DelayQueue<T> {
    fn check_restored(&self) -> Result<(), SnapshotError> {
        if self
            .items
            .iter()
            .zip(self.items.iter().skip(1))
            .any(|((a, _), (b, _))| a > b)
        {
            return Err(SnapshotError::Corrupt(
                "DelayQueue ready cycles not non-decreasing".to_string(),
            ));
        }
        Ok(())
    }
}

/// A token-bucket rate limiter supporting fractional rates, used to model
/// link and DRAM bandwidth.
///
/// Each cycle [`RateLimiter::accrue`] adds `rate` tokens; an operation
/// costing `n` whole units (flits, bytes) proceeds only when `n` units of
/// tokens are there. Accumulation is capped at a burst so an idle link
/// cannot bank unlimited credit. Rate, burst and level are integers in
/// [`RATE_UNIT`]s, so a span of idle cycles settles in one step
/// ([`RateLimiter::accrue_idle`], [`RateLimiter::probe_idle`]) to exactly
/// the level that many single cycles reach.
///
/// # Examples
///
/// ```
/// use netcrafter_sim::RateLimiter;
///
/// // A 16 GB/s link at 1 GHz moves one 16 B flit per cycle.
/// let mut link = RateLimiter::new(1.0, 1);
/// link.accrue();
/// assert!(link.try_consume(1));
/// assert!(!link.try_consume(1)); // budget spent this cycle
/// ```
#[derive(Debug, Clone)]
pub struct RateLimiter {
    rate: u128,
    burst: u128,
    tokens: u128,
}

impl RateLimiter {
    /// Creates an empty limiter adding `rate` units per cycle and holding
    /// at most `rate + headroom` of them.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is refused by [`rate_tokens`].
    pub fn new(rate: f64, headroom: u64) -> Self {
        let rate = rate_tokens("rate", rate).unwrap_or_else(|why| panic!("{why}"));
        Self {
            rate,
            burst: rate + u128::from(headroom) * RATE_UNIT,
            tokens: 0,
        }
    }

    /// Adds one cycle's worth of tokens.
    pub fn accrue(&mut self) {
        self.tokens = (self.tokens + self.rate).min(self.burst);
    }

    /// Consumes `n` whole units if available.
    pub fn try_consume(&mut self, n: u64) -> bool {
        let cost = u128::from(n) * RATE_UNIT;
        let paid = self.tokens >= cost;
        if paid {
            self.tokens -= cost;
        }
        paid
    }

    /// Settles `cycles` calls of [`RateLimiter::accrue`].
    pub fn accrue_idle(&mut self, cycles: u64) {
        let added = self.rate.saturating_mul(u128::from(cycles));
        self.tokens = self.tokens.saturating_add(added).min(self.burst);
    }

    /// Settles `cycles` cycles of [`RateLimiter::accrue`] followed by
    /// `try_consume(1)` on a limiter of headroom 1, in closed form
    /// (DESIGN.md §3.1, "Fast-forward"): with one unit costing `c`, the
    /// level `t` becomes `min(t + n(rate − c), rate)` at `rate ≥ c`, and
    /// below `c` it is `(t₁ + (n − 1)·rate) mod c` after the first cycle.
    pub fn probe_idle(&mut self, cycles: u64) {
        debug_assert_eq!(
            self.burst,
            self.rate + RATE_UNIT,
            "probe_idle needs headroom 1"
        );
        if cycles == 0 {
            return;
        }
        if self.rate >= RATE_UNIT {
            let gain = (self.rate - RATE_UNIT).saturating_mul(u128::from(cycles));
            self.tokens = self.tokens.saturating_add(gain).min(self.rate);
        } else {
            self.accrue();
            self.try_consume(1);
            // (cycles − 1) < 2⁶⁴ and rate < 10¹⁸ < 2⁶⁰: no overflow.
            let gain = u128::from(cycles - 1) * self.rate;
            self.tokens = (self.tokens + gain % RATE_UNIT) % RATE_UNIT;
        }
    }

    /// The fewest calls of [`RateLimiter::accrue`] after which
    /// `try_consume(n)` succeeds, on a limiter whose burst holds `n`.
    pub fn cycles_until(&self, n: u64) -> u64 {
        let short = (u128::from(n) * RATE_UNIT).saturating_sub(self.tokens);
        u64::try_from(short.div_ceil(self.rate)).expect("a wait below 2^64 cycles")
    }

    /// The token level, in [`RATE_UNIT`]s.
    pub fn tokens(&self) -> u128 {
        self.tokens
    }
}

impl RateLimiter {
    // Rate and burst are configuration, which a snapshot's run id pins;
    // the level is the state.
    crate::snap_fields! {
        pub fn save + load_into {
            rate: skipped(config),
            burst: skipped(config),
            tokens,
        }
        validate Self::check_restored
    }

    fn check_restored(&self) -> Result<(), SnapshotError> {
        if self.tokens > self.burst {
            return Err(SnapshotError::Corrupt(format!(
                "RateLimiter level {} above its burst {}",
                self.tokens, self.burst
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_queue_orders_by_readiness() {
        let mut q = DelayQueue::new();
        assert!(q.is_empty());
        q.push(5, 'x');
        q.push(5, 'y');
        q.push(9, 'z');
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_ready(4), None);
        assert_eq!(q.pop_ready(5), Some('x'));
        assert_eq!(q.pop_ready(5), Some('y'));
        assert_eq!(q.pop_ready(5), None);
        assert_eq!(q.pop_ready(100), Some('z'));
        assert!(q.is_empty());
    }

    #[test]
    fn delay_queue_iterates_contents() {
        let mut q = DelayQueue::new();
        q.push(1, 10);
        q.push(2, 20);
        let all: Vec<_> = q.iter().copied().collect();
        assert_eq!(all, vec![10, 20]);
    }

    #[test]
    fn rate_limiter_integer_rate() {
        let mut r = RateLimiter::new(2.0, 2);
        assert!(!r.try_consume(1), "no tokens before first accrue");
        r.accrue();
        assert!(r.try_consume(2));
        assert!(!r.try_consume(1));
    }

    #[test]
    fn rate_limiter_fractional_rate_accumulates() {
        // 0.5 flits/cycle: one flit every two cycles.
        let mut r = RateLimiter::new(0.5, 1);
        r.accrue();
        assert!(!r.try_consume(1));
        r.accrue();
        assert!(r.try_consume(1));
    }

    /// Rates are the decimals they print: ten cycles of 0.3 pay for
    /// exactly three units, and ten of 0.7 for seven.
    #[test]
    fn rate_limiter_decimal_rates_are_exact() {
        for (rate, units) in [(0.3, 3), (0.7, 7)] {
            let mut r = RateLimiter::new(rate, 1);
            let paid = (0..10)
                .filter(|_| {
                    r.accrue();
                    r.try_consume(1)
                })
                .count();
            assert_eq!((paid, r.tokens()), (units, 0), "at {rate}");
        }
    }

    #[test]
    fn rate_limiter_caps_at_burst() {
        let mut r = RateLimiter::new(10.0, 5);
        for _ in 0..100 {
            r.accrue();
        }
        assert_eq!(r.tokens(), 15 * RATE_UNIT);
        assert!(r.try_consume(15));
        assert!(!r.try_consume(1));
    }

    #[test]
    fn rate_limiter_reports_saturation() {
        let mut r = RateLimiter::new(10.0, 5);
        r.accrue();
        assert_eq!(r.tokens(), 10 * RATE_UNIT);
        r.accrue();
        assert_eq!(r.tokens(), 15 * RATE_UNIT, "capped at burst");
        r.accrue();
        assert_eq!(r.tokens(), 15 * RATE_UNIT, "accrue at the burst is a no-op");
        r.accrue_idle(u64::MAX);
        assert_eq!(r.tokens(), 15 * RATE_UNIT);
    }

    /// SplitMix64, enough to drive the seeded spans.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The closed forms against the cycle-by-cycle loop they settle: a
    /// port without credits only accrues, one with credits also pays
    /// one unit per cycle when it can, and a sleeping source wakes on
    /// the first cycle that pays. Random start levels, spans up to 10⁵
    /// cycles, rates above, at and below one unit.
    #[test]
    fn idle_spans_settle_to_the_per_cycle_level() {
        let mut rng = 7;
        for rate in [8.0, 1.0, 0.5, 0.05 * 1.0137] {
            for i in 0..40 {
                let mut start = RateLimiter::new(rate, 1);
                start.tokens = u128::from(next(&mut rng)) % (start.burst + 1);
                // Short spans and long ones.
                let span = next(&mut rng) % [8, 100_001][i % 2];

                let (mut looped, mut settled) = (start.clone(), start.clone());
                for _ in 0..span {
                    looped.accrue();
                }
                settled.accrue_idle(span);
                assert_eq!(
                    settled.tokens, looped.tokens,
                    "{rate}: {span} cycles, no credits"
                );

                let (mut looped, mut settled) = (start.clone(), start.clone());
                for _ in 0..span {
                    looped.accrue();
                    looped.try_consume(1);
                }
                settled.probe_idle(span);
                assert_eq!(
                    settled.tokens, looped.tokens,
                    "{rate}: {span} cycles, credits"
                );

                let mut waited = start.clone();
                let mut cycles = 0;
                while !waited.clone().try_consume(1) {
                    waited.accrue();
                    cycles += 1;
                }
                assert_eq!(start.cycles_until(1), cycles, "{rate}: wake");
            }
        }
    }
    #[test]
    fn delay_queue_exposes_next_ready() {
        let mut q: DelayQueue<char> = DelayQueue::new();
        assert_eq!(q.next_ready(), None);
        q.push(5, 'x');
        q.push(9, 'y');
        assert_eq!(q.next_ready(), Some(5));
        q.pop_ready(5);
        assert_eq!(q.next_ready(), Some(9));
    }

    #[test]
    #[should_panic(expected = "rate 0.0 per cycle is refused")]
    fn zero_rate_rejected() {
        let _ = RateLimiter::new(0.0, 1);
    }
}
