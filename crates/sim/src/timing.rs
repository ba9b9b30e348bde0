//! Timing utilities shared by all hardware models: fixed-latency
//! pipelines and fractional-rate bandwidth limiters.

use std::collections::VecDeque;

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
/// Each cycle [`RateLimiter::accrue`] adds `rate` tokens (bytes); an
/// operation consuming `n` bytes proceeds only when `n` tokens are
/// available. Accumulation is capped at one burst window so an idle link
/// cannot bank unlimited credit.
///
/// # Examples
///
/// ```
/// use netcrafter_sim::RateLimiter;
///
/// // A 16 GB/s link at 1 GHz moves 16 B/cycle: exactly one 16 B flit.
/// let mut link = RateLimiter::new(16.0, 16.0);
/// link.accrue();
/// assert!(link.try_consume(16.0));
/// assert!(!link.try_consume(16.0)); // budget spent this cycle
/// ```
#[derive(Debug, Clone)]
pub struct RateLimiter {
    rate: f64,
    burst: f64,
    tokens: f64,
}

impl RateLimiter {
    /// Creates a limiter adding `rate` tokens per cycle, capped at `burst`.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!(burst >= rate, "burst must cover at least one cycle of rate");
        Self {
            rate,
            burst,
            tokens: 0.0,
        }
    }

    /// Adds one cycle's worth of tokens.
    pub fn accrue(&mut self) {
        self.tokens = (self.tokens + self.rate).min(self.burst);
    }

    /// Consumes `n` tokens if available.
    pub fn try_consume(&mut self, n: f64) -> bool {
        if self.tokens + 1e-9 >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }

    /// The configured rate in tokens per cycle.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// True once the bucket is full: further [`RateLimiter::accrue`] calls
    /// are no-ops, so an idle-cycle replay can stop early.
    pub fn is_saturated(&self) -> bool {
        self.tokens == self.burst
    }

    /// The exact bit pattern of the token count, for detecting periodic
    /// orbits when replaying long idle stretches bit-identically.
    pub fn tokens_bits(&self) -> u64 {
        self.tokens.to_bits()
    }
}

crate::snap_fields! {
    /// Rate and burst are builder-time configuration, but they are saved
    /// anyway and validated on load: restoring a snapshot into a limiter
    /// built from a different config is a config mismatch, not a silent
    /// behavior change. The token count restores by exact bit pattern.
    impl Snap for RateLimiter { rate, burst, tokens }
    validate Self::check_restored
}

impl RateLimiter {
    fn check_restored(&self) -> Result<(), SnapshotError> {
        let Self {
            rate,
            burst,
            tokens,
        } = *self;
        // Positive comparisons so NaNs in any field also fail validation.
        let valid = rate > 0.0 && burst >= rate && (0.0..=burst).contains(&tokens);
        if !valid {
            return Err(SnapshotError::Corrupt(format!(
                "RateLimiter state rate={rate} burst={burst} tokens={tokens}"
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
        let mut r = RateLimiter::new(2.0, 4.0);
        assert!(!r.try_consume(1.0), "no tokens before first accrue");
        r.accrue();
        assert!(r.try_consume(2.0));
        assert!(!r.try_consume(1.0));
    }

    #[test]
    fn rate_limiter_fractional_rate_accumulates() {
        // 0.5 flits/cycle: one flit every two cycles.
        let mut r = RateLimiter::new(0.5, 1.0);
        r.accrue();
        assert!(!r.try_consume(1.0));
        r.accrue();
        assert!(r.try_consume(1.0));
    }

    #[test]
    fn rate_limiter_caps_at_burst() {
        let mut r = RateLimiter::new(10.0, 15.0);
        for _ in 0..100 {
            r.accrue();
        }
        assert!(r.available() <= 15.0);
        assert!(r.try_consume(15.0));
        assert!(!r.try_consume(0.1));
    }

    #[test]
    fn rate_limiter_reports_saturation() {
        let mut r = RateLimiter::new(10.0, 15.0);
        assert!(!r.is_saturated());
        r.accrue();
        assert!(!r.is_saturated());
        r.accrue();
        assert!(r.is_saturated(), "capped at burst");
        let bits = r.tokens_bits();
        r.accrue();
        assert_eq!(r.tokens_bits(), bits, "accrue at saturation is a no-op");
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
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let _ = RateLimiter::new(0.0, 1.0);
    }
}
