//! The benchmark's own statistics: nearest-rank percentiles, the rule
//! for which tail percentile a sample supports, and failure accounting.

/// Nearest-rank percentile `q` (0 < q <= 100) of an ascending slice:
/// the smallest sample with at least `q`% of the samples at or below
/// it. Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 100.0, "percentile {q} out of (0, 100]");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n >= 1` samples. The
/// epsilon keeps `99.9 * 10000 / 100` from rounding up past 9990.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples (nearest rank, so always a measured value).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Samples strictly above the nearest-rank percentile `q` of `n`
/// samples.
fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The tail percentile to report for `n` request latencies: p99 when at
/// least ten samples lie beyond it, else the median. p90 is skipped on
/// purpose: a run that got faster would cross from p50 to p90 at 100
/// samples, and the jump would read as a slower tail.
pub fn tail_percentile(n: usize) -> f64 {
    if samples_beyond(n, 99.0) >= 10 {
        99.0
    } else {
        50.0
    }
}

/// A uniform random sample of at most `cap` values from a stream
/// (Vitter's algorithm R), so memory stays fixed however many values a
/// run produces.
pub struct Reservoir {
    cap: usize,
    seen: u64,
    pub samples: Vec<f64>,
    rng: polaris_simnet::rng::SplitMix64,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Self {
        Reservoir {
            cap,
            seen: 0,
            samples: Vec::with_capacity(cap),
            rng: polaris_simnet::rng::SplitMix64::new(seed),
        }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
        } else {
            let j = self.rng.next_below(self.seen) as usize;
            if j < self.cap {
                self.samples[j] = v;
            }
        }
    }

    /// Values pushed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok = false` marks it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; 0 when nothing was attempted.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        let v = ramp(1000);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 99.9), 999.0);
        // Always a sample, never an interpolation.
        assert_eq!(percentile(&[3.0, 7.0], 50.0), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn tail_choice_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(0, 99.0), 0);
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(10_000, 99.9), 10);
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(8), 50.0);
        assert_eq!(tail_percentile(500), 50.0);
        assert_eq!(tail_percentile(999), 50.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(100_000), 99.0);
        for n in 1..20_000 {
            if tail_percentile(n) == 99.0 {
                assert!(samples_beyond(n, 99.0) >= 10, "n={n}");
            }
        }
    }

    #[test]
    fn reservoir_keeps_a_fixed_uniform_sample() {
        let mut r = Reservoir::new(1000, 1);
        (0..500).for_each(|i| r.push(i as f64));
        assert_eq!(r.samples.len(), 500, "below the cap every value is kept");
        (500..100_000).for_each(|i| r.push(i as f64));
        assert_eq!((r.samples.len(), r.seen()), (1000, 100_000));
        // The sample's median sits near the stream's.
        let m = median(&r.samples);
        assert!((m - 50_000.0).abs() < 5_000.0, "median {m}");
    }

    #[test]
    fn fail_ratio_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_ratio(), 0.0);
        for i in 0..8 {
            t.record(i % 4 != 0);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 8,
                failed: 2
            }
        );
        assert_eq!(t.fail_ratio(), 0.25);
        let mut u = Tally::default();
        (0..12).for_each(|_| u.record(true));
        t.merge(u);
        assert_eq!(
            t,
            Tally {
                attempted: 20,
                failed: 2
            }
        );
        assert_eq!(t.fail_ratio(), 0.1);
    }
}
