//! Measurement infrastructure: named counters, histograms and latency
//! accumulators harvested by the experiment harness.
//!
//! Components keep their own cheap plain-struct counters on the hot path;
//! at the end of a run the system assembles everything into a [`Metrics`]
//! registry, which the figure generators query by name. Keys are dotted
//! paths such as `"net.inter.flits"` or `"gpu0.l1.misses"`.

use std::collections::BTreeMap;
use std::fmt;

/// Accumulates latency samples: count, sum, max.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStat {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (cycles).
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

impl LatencyStat {
    /// Records one latency sample.
    pub fn record(&mut self, cycles: u64) {
        self.count += 1;
        self.sum += cycles;
        self.max = self.max.max(cycles);
    }

    /// Arithmetic mean, or 0.0 if no samples were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// A sparse integer histogram (bucket → count).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` observations to `bucket`.
    pub fn add(&mut self, bucket: u64, n: u64) {
        *self.buckets.entry(bucket).or_insert(0) += n;
    }

    /// Records one observation of `bucket`.
    pub fn record(&mut self, bucket: u64) {
        self.add(bucket, 1);
    }

    /// Count in one bucket.
    pub fn get(&self, bucket: u64) -> u64 {
        self.buckets.get(&bucket).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Fraction of observations in `bucket` (0.0 if empty).
    pub fn fraction(&self, bucket: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(bucket) as f64 / total as f64
        }
    }

    /// Iterates `(bucket, count)` in ascending bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().map(|(&b, &c)| (b, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, c) in other.iter() {
            self.add(b, c);
        }
    }
}

/// A fixed-window time series: accumulates `u64` amounts into consecutive
/// cycle windows of equal width.
///
/// The backing vector grows on demand as samples land in later windows
/// (*rollover*), so recording is O(1) amortised and idle tails cost
/// nothing. Used by the telemetry layer for per-link bandwidth, queue
/// occupancy integrals and pooling-delay curves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    window: u64,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Creates an empty series with `window` cycles per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "TimeSeries window must be positive");
        TimeSeries {
            window,
            buckets: Vec::new(),
        }
    }

    /// Cycles per bucket.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Adds `amount` to the bucket containing `cycle`, extending the
    /// series as needed.
    #[inline]
    pub fn add(&mut self, cycle: u64, amount: u64) {
        let ix = (cycle / self.window) as usize;
        if ix >= self.buckets.len() {
            self.buckets.resize(ix + 1, 0);
        }
        self.buckets[ix] += amount;
    }

    /// Adds `per_cycle` for every cycle of `first..=last` in one `add` per
    /// bucket — what an `add` per cycle would record, zeros included.
    pub fn add_span(&mut self, first: u64, last: u64, per_cycle: u64) {
        let mut cycle = first;
        while cycle <= last {
            let end = last.min(cycle - cycle % self.window + self.window - 1);
            self.add(cycle, (end - cycle + 1) * per_cycle);
            cycle = end + 1;
        }
    }

    /// Number of buckets (index of the last touched window + 1).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Value of bucket `ix` (0 beyond the recorded range).
    pub fn bucket(&self, ix: usize) -> u64 {
        self.buckets.get(ix).copied().unwrap_or(0)
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Iterates `(window_start_cycle, value)` in time order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as u64 * self.window, v))
    }
}

/// The harvested metrics of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    latencies: BTreeMap<String, LatencyStat>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `key` (creating it at zero).
    pub fn add(&mut self, key: &str, n: u64) {
        *self.counters.entry(key.to_owned()).or_insert(0) += n;
    }

    /// Sets counter `key` to `n`, overwriting any prior value.
    pub fn set(&mut self, key: &str, n: u64) {
        self.counters.insert(key.to_owned(), n);
    }

    /// Reads counter `key` (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Returns a mutable histogram for `key`.
    pub fn histogram_mut(&mut self, key: &str) -> &mut Histogram {
        self.histograms.entry(key.to_owned()).or_default()
    }

    /// Reads histogram `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Returns a mutable latency accumulator for `key`.
    pub fn latency_mut(&mut self, key: &str) -> &mut LatencyStat {
        self.latencies.entry(key.to_owned()).or_default()
    }

    /// Reads latency accumulator `key` (zeroed default if absent).
    pub fn latency(&self, key: &str) -> LatencyStat {
        self.latencies.get(key).copied().unwrap_or_default()
    }

    /// Ratio of two counters, or 0.0 when the denominator is zero.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.counter(den);
        if d == 0 {
            0.0
        } else {
            self.counter(num) as f64 / d as f64
        }
    }

    /// Iterates all counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates counters whose key starts with `prefix`.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .range(prefix.to_owned()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.as_str(), v))
    }

    /// Renders all counters as two-column CSV (`key,value`), with latency
    /// accumulators flattened to `key.mean` / `key.max` / `key.count` rows
    /// — the export format for spreadsheet post-processing of runs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("key,value\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("{k},{v}\n"));
        }
        for (k, l) in &self.latencies {
            out.push_str(&format!("{k}.mean,{:.2}\n", l.mean()));
            out.push_str(&format!("{k}.max,{}\n", l.max));
            out.push_str(&format!("{k}.count,{}\n", l.count));
        }
        for (k, h) in &self.histograms {
            for (bucket, count) in h.iter() {
                out.push_str(&format!("{k}.bucket{bucket},{count}\n"));
            }
        }
        out
    }

    /// Renders the registry as a line-oriented `key = value` text block
    /// that [`Metrics::from_kv`] parses back losslessly. This is the
    /// on-disk format of the bench result cache: keys are dotted paths
    /// (never containing spaces), so a single space-split is unambiguous.
    ///
    /// ```text
    /// counter net.inter.flits = 15
    /// latency net.read = 3 120 64          (count sum max)
    /// hist net.occupancy = 16:2 64:1       (bucket:count ...)
    /// ```
    pub fn to_kv(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} = {v}\n"));
        }
        for (k, l) in &self.latencies {
            out.push_str(&format!("latency {k} = {} {} {}\n", l.count, l.sum, l.max));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("hist {k} ="));
            for (b, c) in h.iter() {
                out.push_str(&format!(" {b}:{c}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses the text produced by [`Metrics::to_kv`]. Returns `None` on
    /// any malformed line so a corrupt or truncated cache file is treated
    /// as a miss rather than yielding wrong figures.
    pub fn from_kv(text: &str) -> Option<Metrics> {
        let mut m = Metrics::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (tag, rest) = line.split_once(' ')?;
            let (key, value) = rest.split_once(" =")?;
            let value = value.trim_start();
            match tag {
                "counter" => {
                    m.counters.insert(key.to_owned(), value.parse().ok()?);
                }
                "latency" => {
                    let mut it = value.split_whitespace();
                    let stat = LatencyStat {
                        count: it.next()?.parse().ok()?,
                        sum: it.next()?.parse().ok()?,
                        max: it.next()?.parse().ok()?,
                    };
                    if it.next().is_some() {
                        return None;
                    }
                    m.latencies.insert(key.to_owned(), stat);
                }
                "hist" => {
                    let mut h = Histogram::new();
                    for pair in value.split_whitespace() {
                        let (b, c) = pair.split_once(':')?;
                        // `to_kv` writes each bucket once; a repeat is
                        // damage (and adding it could overflow).
                        if h.buckets.insert(b.parse().ok()?, c.parse().ok()?).is_some() {
                            return None;
                        }
                    }
                    m.histograms.insert(key.to_owned(), h);
                }
                _ => return None,
            }
        }
        Some(m)
    }

    /// Merges another registry into this one (counters add, histograms and
    /// latencies merge).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, l) in &other.latencies {
            self.latencies.entry(k.clone()).or_default().merge(l);
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k} = {v}")?;
        }
        for (k, l) in &self.latencies {
            writeln!(
                f,
                "{k} = mean {:.1} / max {} ({} samples)",
                l.mean(),
                l.max,
                l.count
            )?;
        }
        for (k, h) in &self.histograms {
            write!(f, "{k} = {{")?;
            for (i, (b, c)) in h.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{b}: {c}")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stat_accumulates() {
        let mut l = LatencyStat::default();
        assert_eq!(l.mean(), 0.0);
        l.record(10);
        l.record(30);
        assert_eq!(l.count, 2);
        assert_eq!(l.mean(), 20.0);
        assert_eq!(l.max, 30);

        let mut other = LatencyStat::default();
        other.record(100);
        l.merge(&other);
        assert_eq!(l.count, 3);
        assert_eq!(l.max, 100);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = Histogram::new();
        h.record(16);
        h.record(16);
        h.record(64);
        h.add(32, 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.get(16), 2);
        assert_eq!(h.fraction(16), 0.5);
        assert_eq!(h.fraction(48), 0.0);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(16, 2), (32, 1), (64, 1)]);
    }

    #[test]
    fn time_series_window_rollover() {
        let mut ts = TimeSeries::new(100);
        assert!(ts.is_empty());
        ts.add(0, 5);
        ts.add(99, 5); // same window
        assert_eq!(ts.len(), 1);
        ts.add(100, 7); // rolls into window 1
        assert_eq!(ts.len(), 2);
        ts.add(950, 1); // far rollover extends through empty windows
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.bucket(0), 10);
        assert_eq!(ts.bucket(1), 7);
        assert_eq!(ts.bucket(5), 0);
        assert_eq!(ts.bucket(9), 1);
        assert_eq!(ts.bucket(99), 0, "beyond recorded range reads as 0");
        assert_eq!(ts.total(), 18);
        let points: Vec<_> = ts.iter().take(3).collect();
        assert_eq!(points, vec![(0, 10), (100, 7), (200, 0)]);

        // A span settles exactly what one `add` per cycle would have.
        for (first, last, per_cycle) in [
            (3, 3, 2),
            (7, 45, 3),
            (90, 1_234, 1),
            (20, 29, 0),
            (5, 4, 1),
        ] {
            let (mut settled, mut ticked) = (TimeSeries::new(10), TimeSeries::new(10));
            settled.add_span(first, last, per_cycle);
            (first..=last).for_each(|cycle| ticked.add(cycle, per_cycle));
            assert_eq!(settled, ticked, "{first}..={last} x {per_cycle}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn time_series_rejects_zero_window() {
        let _ = TimeSeries::new(0);
    }

    #[test]
    fn metrics_counters_and_ratio() {
        let mut m = Metrics::new();
        m.add("net.inter.flits", 10);
        m.add("net.inter.flits", 5);
        m.set("net.inter.cycles", 30);
        assert_eq!(m.counter("net.inter.flits"), 15);
        assert_eq!(m.ratio("net.inter.flits", "net.inter.cycles"), 0.5);
        assert_eq!(m.ratio("x", "missing"), 0.0);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn prefix_iteration() {
        let mut m = Metrics::new();
        m.add("gpu0.l1.hits", 1);
        m.add("gpu0.l1.misses", 2);
        m.add("gpu1.l1.hits", 3);
        let gpu0: Vec<_> = m.counters_with_prefix("gpu0.").collect();
        assert_eq!(gpu0.len(), 2);
        assert!(gpu0.iter().all(|(k, _)| k.starts_with("gpu0.")));
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = Metrics::new();
        a.add("c", 1);
        a.latency_mut("l").record(10);
        a.histogram_mut("h").record(1);

        let mut b = Metrics::new();
        b.add("c", 2);
        b.latency_mut("l").record(20);
        b.histogram_mut("h").record(1);

        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.latency("l").count, 2);
        assert_eq!(a.histogram("h").unwrap().get(1), 2);
    }

    #[test]
    fn csv_export_flattens_everything() {
        let mut m = Metrics::new();
        m.add("a.count", 7);
        m.latency_mut("a.lat").record(4);
        m.histogram_mut("a.hist").record(2);
        let csv = m.to_csv();
        assert!(csv.starts_with("key,value\n"));
        assert!(csv.contains("a.count,7\n"));
        assert!(csv.contains("a.lat.mean,4.00\n"));
        assert!(csv.contains("a.lat.count,1\n"));
        assert!(csv.contains("a.hist.bucket2,1\n"));
    }

    #[test]
    fn kv_round_trip_is_lossless() {
        let mut m = Metrics::new();
        m.add("net.inter.flits", 15);
        m.set("zero", 0);
        m.latency_mut("net.read").record(56);
        m.latency_mut("net.read").record(64);
        m.histogram_mut("net.occupancy").add(16, 2);
        m.histogram_mut("net.occupancy").add(64, 1);
        m.histogram_mut("empty.hist");

        let text = m.to_kv();
        let back = Metrics::from_kv(&text).expect("round trip parses");
        assert_eq!(back.counter("net.inter.flits"), 15);
        assert_eq!(back.counter("zero"), 0);
        assert_eq!(back.latency("net.read"), m.latency("net.read"));
        assert_eq!(
            back.histogram("net.occupancy"),
            m.histogram("net.occupancy")
        );
        assert_eq!(back.histogram("empty.hist"), Some(&Histogram::new()));
        // Re-serialising the parsed registry is byte-identical.
        assert_eq!(back.to_kv(), text);
    }

    #[test]
    fn kv_rejects_corrupt_input() {
        assert!(Metrics::from_kv("counter a = 1").is_some());
        assert!(Metrics::from_kv("").is_some());
        assert!(Metrics::from_kv("counter a = x").is_none());
        assert!(Metrics::from_kv("bogus a = 1").is_none());
        assert!(Metrics::from_kv("latency l = 1 2").is_none());
        assert!(Metrics::from_kv("latency l = 1 2 3 4").is_none());
        assert!(Metrics::from_kv("hist h = 1:2 3").is_none());
        assert!(Metrics::from_kv("counter truncated").is_none());
    }

    #[test]
    fn display_renders_all_sections() {
        let mut m = Metrics::new();
        m.add("a.count", 7);
        m.latency_mut("a.lat").record(4);
        m.histogram_mut("a.hist").record(2);
        let s = m.to_string();
        assert!(s.contains("a.count = 7"));
        assert!(s.contains("a.lat"));
        assert!(s.contains("a.hist"));
    }
}
