//! The one place the benchmark summarises samples.
//!
//! Every figure comes back with the number of samples behind it, so a
//! report can print the count beside the value and a reader can tell a
//! p95 over 40 samples from one over 40 000.
//!
//! Two families live here on purpose:
//!
//! * latency **percentiles** are nearest-rank order statistics (no
//!   interpolation: a reported latency is one that was observed), and the
//!   guide's rule — *report the highest percentile that still has at least
//!   ten samples beyond it* — is [`top_percentile`] / [`supports`];
//! * run-to-run **medians and quartiles** follow Python's
//!   `statistics.median` / `statistics.quantiles(values, n=4)` exactly,
//!   because that is what the acceptance driver computes spreads with and
//!   `--compare` must agree with it.

/// One summarised number and how many samples it was drawn from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure {
    /// The summarised value (0 when `n == 0`).
    pub value: f64,
    /// Samples behind it.
    pub n: usize,
}

impl Figure {
    /// The figure of an empty sample.
    pub const EMPTY: Figure = Figure { value: 0.0, n: 0 };
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The percentile ladder [`top_percentile`] climbs.
pub const LADDER: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// 1-based nearest rank `ceil(q·n)`; the epsilon keeps a product like
/// `0.95 · 200` that lands a hair above the integer from rounding up a
/// whole rank.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile: the sample at rank `ceil(q·n)` (1-based) of
/// the sorted samples. Non-finite samples are dropped.
pub fn percentile(samples: &[f64], q: f64) -> Figure {
    let s = sorted(samples);
    if s.is_empty() {
        return Figure::EMPTY;
    }
    Figure {
        value: s[rank(s.len(), q) - 1],
        n: s.len(),
    }
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] of them beyond the
/// `q`-percentile.
pub fn supports(n: usize, q: f64) -> bool {
    n >= MIN_BEYOND && n - rank(n, q) >= MIN_BEYOND
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it, and its value. `None` below 20 samples, where not
/// even the median qualifies.
pub fn top_percentile(samples: &[f64]) -> Option<(f64, Figure)> {
    let n = samples.iter().filter(|v| v.is_finite()).count();
    LADDER
        .iter()
        .rev()
        .find(|&&q| supports(n, q))
        .map(|&q| (q, percentile(samples, q)))
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> Figure {
    let s = sorted(samples);
    if s.is_empty() {
        return Figure::EMPTY;
    }
    Figure {
        value: s.iter().sum::<f64>() / s.len() as f64,
        n: s.len(),
    }
}

/// Largest sample.
pub fn max(samples: &[f64]) -> Figure {
    let s = sorted(samples);
    Figure {
        value: s.last().copied().unwrap_or(0.0),
        n: s.len(),
    }
}

/// Python's `statistics.median`: the middle sample, or the mean of the
/// two middle samples for an even count.
pub fn median(samples: &[f64]) -> Figure {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return Figure::EMPTY;
    }
    let value = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    Figure { value, n }
}

/// First, second and third quartile of a set of run results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median (as [`median`]).
    pub q2: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind them.
    pub n: usize,
}

impl Quartiles {
    /// Interquartile distance as a share of the median (0 when the
    /// median is 0) — the run-to-run spread the bounds are judged against.
    pub fn spread(&self) -> f64 {
        if self.q2 == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.q2.abs()
        }
    }
}

/// Python's `statistics.quantiles(values, n=4)` (the default *exclusive*
/// method). With fewer than two samples all three quartiles are the one
/// sample (or 0).
pub fn quartiles(samples: &[f64]) -> Quartiles {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return Quartiles {
            q1: v,
            q2: v,
            q3: v,
            n,
        };
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        q2: median(&s).value,
        q3: cut(3),
        n,
    }
}

/// Events per second as the **median over `k` equal sub-windows** of
/// `[start_ns, end_ns)`: each `(timestamp_ns, weight)` event is counted in
/// the window it falls in; events outside the interval are ignored. A
/// noisy-neighbour burst then costs one window, not the run. `n` is the
/// number of windows.
pub fn subwindow_rate(events: &[(u64, u64)], start_ns: u64, end_ns: u64, k: usize) -> Figure {
    median(&subwindow_rates(events, start_ns, end_ns, k))
}

/// The rate of each of the `k` sub-windows behind [`subwindow_rate`], in
/// time order (empty for an empty interval).
pub fn subwindow_rates(events: &[(u64, u64)], start_ns: u64, end_ns: u64, k: usize) -> Vec<f64> {
    if k == 0 || end_ns <= start_ns {
        return Vec::new();
    }
    let span = end_ns - start_ns;
    let mut counts = vec![0u64; k];
    for &(t, w) in events {
        if t >= start_ns && t < end_ns {
            // u128: (t - start) * k overflows u64 for runs over ~30 min.
            let i = ((t - start_ns) as u128 * k as u128 / span as u128) as usize;
            counts[i.min(k - 1)] += w;
        }
    }
    let window_s = span as f64 / k as f64 / 1e9;
    counts.iter().map(|&c| c as f64 / window_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1, 2, …, n in a scrambled order.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v.rotate_left(n / 3);
        v
    }

    #[test]
    fn nine_samples() {
        let v = ramp(9);
        assert_eq!(median(&v), Figure { value: 5.0, n: 9 });
        // exclusive method, m = 10: q1 at 2.5 → (2+3)/2, q3 at 7.5.
        let q = quartiles(&v);
        assert_eq!((q.q1, q.q2, q.q3, q.n), (2.5, 5.0, 7.5, 9));
        assert_eq!(q.spread(), 1.0);
        // rank ceil(0.95·9) = 9.
        assert_eq!(percentile(&v, 0.95).value, 9.0);
        assert_eq!(percentile(&v, 0.50).value, 5.0);
        assert!(top_percentile(&v).is_none(), "nothing has 10 beyond it");
    }

    #[test]
    fn ten_samples() {
        let v = ramp(10);
        assert_eq!(median(&v).value, 5.5);
        // m = 11: q1 at 2.75 → 2·0.25 + 3·0.75, q3 at 8.25.
        let q = quartiles(&v);
        assert_eq!((q.q1, q.q3), (2.75, 8.25));
        assert_eq!(percentile(&v, 0.50).value, 5.0, "nearest rank, not mean");
        assert_eq!(percentile(&v, 0.90).value, 9.0);
        assert!(top_percentile(&v).is_none());
    }

    #[test]
    fn two_hundred_samples() {
        let v = ramp(200);
        assert_eq!(median(&v).value, 100.5);
        // m = 201: q1 at 50.25, q3 at 150.75.
        let q = quartiles(&v);
        assert_eq!((q.q1, q.q3), (50.25, 150.75));
        assert_eq!(
            percentile(&v, 0.95),
            Figure {
                value: 190.0,
                n: 200
            }
        );
        // p95 has exactly 10 beyond it, p99 only 2.
        assert!(supports(200, 0.95));
        assert!(!supports(200, 0.99));
        assert!(!supports(199, 0.95));
        let (p, f) = top_percentile(&v).expect("p95");
        assert_eq!((p, f.value), (0.95, 190.0));
    }

    #[test]
    fn ten_thousand_samples() {
        let v = ramp(10_000);
        assert_eq!(median(&v).value, 5000.5);
        let q = quartiles(&v);
        assert_eq!((q.q1, q.q3), (2500.25, 7500.75));
        assert_eq!(percentile(&v, 0.99).value, 9900.0);
        assert_eq!(percentile(&v, 0.999).value, 9990.0);
        let (p, f) = top_percentile(&v).expect("p99.9");
        assert_eq!((p, f.value, f.n), (0.999, 9990.0, 10_000));
        // 9 999 samples leave only 9 beyond p99.9: fall back to p99.
        assert_eq!(top_percentile(&v[1..]).expect("p99").0, 0.99);
    }

    #[test]
    fn twenty_is_the_first_count_with_a_reportable_median() {
        assert!(top_percentile(&ramp(19)).is_none());
        assert_eq!(top_percentile(&ramp(20)).expect("p50").0, 0.50);
    }

    #[test]
    fn empty_and_non_finite_samples() {
        assert_eq!(median(&[]), Figure::EMPTY);
        assert_eq!(percentile(&[], 0.5), Figure::EMPTY);
        assert_eq!(quartiles(&[]).n, 0);
        assert_eq!(quartiles(&[7.0]).q3, 7.0);
        let v = [1.0, f64::NAN, 3.0, f64::INFINITY];
        assert_eq!(median(&v), Figure { value: 2.0, n: 2 });
        assert_eq!(mean(&v).value, 2.0);
        assert_eq!(max(&v).value, 3.0);
    }

    #[test]
    fn subwindow_median_ignores_one_bad_window() {
        // 10 windows of 1 s; 100 events/s everywhere except a stalled
        // window 3 (10 events) and a burst in window 4 (190 events).
        let mut events = Vec::new();
        for w in 0..10u64 {
            let n = match w {
                3 => 10,
                4 => 190,
                _ => 100,
            };
            for i in 0..n {
                events.push((1_000 + w * 1_000_000_000 + i * 1_000, 1));
            }
        }
        events.push((500, 1)); // before the interval
        events.push((1_000 + 10_000_000_000, 1)); // at the end: excluded
        let f = subwindow_rate(&events, 1_000, 1_000 + 10_000_000_000, 10);
        assert_eq!(
            f,
            Figure {
                value: 100.0,
                n: 10
            }
        );
        // Weights count as that many events.
        let f = subwindow_rate(&[(5, 8), (15, 4)], 0, 20, 2);
        assert!((f.value - 6e8).abs() < 1.0, "{}", f.value);
        assert_eq!(subwindow_rate(&events, 10, 10, 10), Figure::EMPTY);
    }
}
