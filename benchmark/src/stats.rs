//! Sample statistics: medians, the tail-percentile rule, quartile spread.

/// Percentiles a tail may be reported at, highest first.
const LADDER: [usize; 5] = [99, 95, 90, 75, 50];
/// A percentile is reported only with at least this many samples beyond it.
const BEYOND: usize = 10;
/// Fewest samples in a window when a figure is steadied over windows of
/// consecutive samples: enough to support p95 under the rule above.
const WINDOW: usize = 200;
/// Most windows a sample set is cut into.
const MAX_WINDOWS: usize = 15;

/// How many windows `n` samples are cut into.
fn windows(n: usize) -> usize {
    (n / WINDOW).clamp(1, MAX_WINDOWS)
}

fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// The highest ladder percentile with at least ten of `n` samples beyond it.
pub fn supported_percentile(n: usize) -> f64 {
    LADDER
        .into_iter()
        .find(|p| n * (100 - p) / 100 >= BEYOND)
        .unwrap_or(50) as f64
}

/// A latency sample set reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub n: usize,
    pub p50: f64,
    /// Which percentile `tail` is (the rule picks it from `n`).
    pub tail_pct: f64,
    pub tail: f64,
}

/// Reduces samples given in the order they were taken. The tail is taken
/// per window of consecutive samples and the median window is reported,
/// so one stall moves one window and not the result.
pub fn latency(in_order: &[f64]) -> Latency {
    assert!(!in_order.is_empty(), "latency of no samples");
    let per = in_order.len() / windows(in_order.len());
    let tail_pct = supported_percentile(per);
    let tails: Vec<f64> = in_order
        .chunks_exact(per)
        .map(|w| {
            let mut w = w.to_vec();
            sort(&mut w);
            percentile(&w, tail_pct)
        })
        .collect();
    Latency {
        n: in_order.len(),
        p50: median(in_order),
        tail_pct,
        tail: median(&tails),
    }
}

/// Operations per second from completion times (seconds, ascending, from
/// the moment the first operation was issued): the median over windows of
/// consecutive completions, so one stall moves one window and not the rate.
pub fn rate(done_at: &[f64]) -> f64 {
    assert!(!done_at.is_empty(), "rate of no completions");
    let per = done_at.len() / windows(done_at.len());
    let rates: Vec<f64> = (0..done_at.len() / per)
        .map(|k| {
            let from = if k == 0 { 0.0 } else { done_at[k * per - 1] };
            per as f64 / (done_at[(k + 1) * per - 1] - from).max(1e-9)
        })
        .collect();
    median(&rates)
}

/// Share of operations within `limit`, per window of consecutive attempts
/// in the order they were due, median window. `latencies[i]` is `None` for
/// an operation that failed, which misses any limit.
pub fn within_pct_steady(latencies: &[Option<f64>], limit: f64) -> f64 {
    assert!(!latencies.is_empty(), "share of no attempts");
    let per = latencies.len() / windows(latencies.len());
    let shares: Vec<f64> = latencies
        .chunks_exact(per)
        .map(|w| {
            100.0 * w.iter().filter(|l| l.is_some_and(|l| l <= limit)).count() as f64 / per as f64
        })
        .collect();
    median(&shares)
}

/// Distance between the first and third quartile as a share of the median
/// (Python's `statistics.quantiles(values, n=4)`, exclusive method); with
/// fewer than four values, the range as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    if n < 4 {
        // Too few for quartiles (they would be extrapolated): the range.
        return (v[n - 1] - v[0]) / percentile(&v, 50.0).abs().max(f64::MIN_POSITIVE);
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    let mid = q(2);
    if mid == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(999), 95.0);
        assert_eq!(supported_percentile(200), 95.0);
        assert_eq!(supported_percentile(199), 90.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(40), 75.0);
        assert_eq!(supported_percentile(20), 50.0);
        assert_eq!(supported_percentile(3), 50.0);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_median_window() {
        // Fifteen windows of 1000; one holds a stall that p99 of the whole
        // would report, the median window does not.
        let mut v = vec![1.0; 15_000];
        for x in &mut v[1000..1200] {
            *x = 500.0;
        }
        let l = latency(&v);
        assert_eq!((l.n, l.tail_pct, l.tail), (15_000, 99.0, 1.0));
        // 600 samples are three windows of 200, which support p95.
        assert_eq!(latency(&v[..600]).tail_pct, 95.0);
    }

    #[test]
    fn rate_ignores_one_stall() {
        // 600 completions 1 ms apart, with a 1 s stall in the middle window.
        let done: Vec<f64> = (1..=600)
            .map(|i| f64::from(i) * 1e-3 + if i > 300 { 1.0 } else { 0.0 })
            .collect();
        assert!((rate(&done) - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn steady_share_is_the_median_window() {
        let mut l = vec![Some(1.0); 600];
        for x in &mut l[0..100] {
            *x = None;
        }
        assert_eq!(within_pct_steady(&l, 20.0), 100.0);
        // A failed request and a late one both miss the limit.
        assert_eq!(
            within_pct_steady(&[Some(30.0), Some(1.0), None, Some(2.0)], 20.0),
            50.0
        );
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
