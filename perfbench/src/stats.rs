//! Percentiles, a fixed-memory latency histogram, and the in-memory spans of a
//! traced run.

use std::collections::HashMap;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// The `q` quantile of `samples` by nearest rank (sorts in place); NaN when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Sub-buckets per power of two: 512 gives 0.2% relative resolution.
const SUB_BITS: u32 = 9;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (about 18 minutes) share the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as u64 * SUB) as usize;

/// A log-linear latency histogram over nanoseconds. Its memory is fixed, so the
/// benchmark's own footprint does not grow with the number of requests a run
/// completes (which would leak throughput into `peak_rss_mb`).
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    fn index(ns: u64) -> usize {
        let ns = ns.min((1 << MAX_BITS) - 1);
        if ns < 2 * SUB {
            return ns as usize;
        }
        let shift = (63 - ns.leading_zeros()) - SUB_BITS;
        let top = ns >> shift;
        (2 * SUB + u64::from(shift - 1) * SUB + (top - SUB)) as usize
    }

    /// Midpoint of bucket `index`, in nanoseconds.
    fn midpoint(index: usize) -> f64 {
        let index = index as u64;
        if index < 2 * SUB {
            return index as f64;
        }
        let j = index - 2 * SUB;
        let shift = j / SUB + 1;
        let low = (j % SUB + SUB) << shift;
        low as f64 + (1u64 << shift) as f64 / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q` quantile by nearest rank, in milliseconds; NaN when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i) / 1e6;
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Spans per layer a traced run writes out.
const SPANS_WRITTEN_PER_LAYER: usize = 200;

/// One timed call into a layer.
struct Span {
    op: u64,
    layer: &'static str,
    start_us: f64,
    dur_us: f64,
}

/// Spans the benchmark records around its own calls into each layer, kept in
/// memory and written out when the run ends. Spans of one op share its id.
pub struct Spans {
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Starts a new op; the spans recorded next carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Calls `f` inside a span of `layer`; returns its result and duration in µs.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        (value, self.end(layer, start))
    }

    /// Records a span of `layer` from `start` to now; returns its duration in µs.
    /// For calls whose layer is known only from their result.
    pub fn end(&mut self, layer: &'static str, start: Instant) -> f64 {
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            op: self.op,
            layer,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us,
        });
        dur_us
    }

    /// Median duration of the spans of `layer`, in µs.
    pub fn median_us(&self, layer: &str) -> f64 {
        let mut durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.dur_us)
            .collect();
        quantile(&mut durations, 0.5)
    }

    /// Writes the first [`SPANS_WRITTEN_PER_LAYER`] spans of each layer as JSON
    /// lines (a serve pass alone records thousands).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut written: HashMap<&str, usize> = HashMap::new();
        for s in &self.spans {
            let n = written.entry(s.layer).or_default();
            *n += 1;
            if *n > SPANS_WRITTEN_PER_LAYER {
                continue;
            }
            writeln!(
                out,
                "{{\"op\":{},\"layer\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.op, s.layer, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(us * 1000);
        }
        let p50 = h.quantile_ms(0.5);
        assert!((p50 - 0.5).abs() / 0.5 < 0.003, "{p50}");
        let p99 = h.quantile_ms(0.99);
        assert!((p99 - 0.99).abs() / 0.99 < 0.003, "{p99}");
        for ns in [0u64, 1, 1023, 1024, 1025, 123_456_789, (1 << 40) - 1] {
            let mid = LatencyHistogram::midpoint(LatencyHistogram::index(ns));
            assert!(
                (mid - ns as f64).abs() <= ns as f64 / 500.0 + 1.0,
                "{ns} -> {mid}"
            );
        }
    }

    #[test]
    fn nearest_rank_quantile() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 5.0);
        assert!(quantile(&mut [], 0.5).is_nan());
    }
}
