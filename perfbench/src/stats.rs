//! Percentiles and medians over latency samples.

/// The percentiles a timing may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// sorted ascending and non-empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// tolerance keeps decimal percentiles such as 99.9, which binary floats
/// hold slightly high, from rounding an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`LADDER`] that has at least ten samples
/// beyond it among `n` samples — the highest one `n` samples support.
/// `None` when even the median lacks ten samples above it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|p| n.saturating_sub(rank(n, *p)) >= 10)
}

/// A timing summary: the median and the highest supported percentile,
/// with the sample count they came from (all in the samples' unit).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// The median.
    pub p50: u64,
    /// The 99th percentile (the end-to-end tail metric).
    pub p99: u64,
    /// [`tail_percentile`] of `n`, when there is one.
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct`.
    pub tail: u64,
    /// The largest sample.
    pub max: u64,
}

/// Summarise `samples` (sorted in place). `None` when empty.
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let tail_pct = tail_percentile(samples.len());
    Some(Summary {
        n: samples.len(),
        p50: percentile(samples, 50.0),
        p99: percentile(samples, 99.0),
        tail_pct,
        tail: tail_pct.map_or(0, |p| percentile(samples, p)),
        max: *samples.last().expect("non-empty"),
    })
}

/// Median of `values` (mean of the middle pair for an even count);
/// 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
