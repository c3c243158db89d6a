//! Online statistics used by the simulator's instrumentation.
//!
//! Two small accumulators cover the profiler's needs:
//!
//! * [`Summary`] — scalar samples (mean / min / max / variance via Welford);
//! * [`TimeWeighted`] — piecewise-constant signals integrated over simulated
//!   time (e.g. "how many flows were active, on average").

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Welford online summary of scalar samples.
///
/// # Examples
///
/// ```
/// use stash_simkit::stats::Summary;
///
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), Some(1.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Empty summary.
    #[must_use]
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// Integrates a piecewise-constant signal over simulated time.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the accumulator
/// weights each value by how long it was held.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    weighted_sum: f64,
    observed: SimDuration,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new(0.0, SimTime::ZERO)
    }
}

impl TimeWeighted {
    /// Starts tracking at `t0` with initial `value`.
    #[must_use]
    pub fn new(value: f64, t0: SimTime) -> Self {
        TimeWeighted {
            value,
            last_change: t0,
            weighted_sum: 0.0,
            observed: SimDuration::ZERO,
        }
    }

    /// Updates the signal to `value` at time `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        self.advance(now);
        self.value = value;
    }

    /// Adds `delta` to the signal at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Replays `samples`, one period's `(time, value)` changes in time
    /// order, `n` times: repetition `k` in `1..=n` sets each value at
    /// `t + k·period`. Bit-identical to calling [`TimeWeighted::set`] for
    /// every shifted sample. From the second repetition on, each one starts
    /// from the same value and holds every value equally long, so it adds
    /// the same products in the same order: they are computed once, in the
    /// second repetition, and only added in the later ones.
    pub fn repeat(&mut self, samples: &[(SimTime, f64)], period: SimDuration, n: u64) {
        if n == 0 || samples.is_empty() {
            return;
        }
        for &(t, v) in samples {
            self.set(t + period, v);
        }
        if n == 1 {
            return;
        }
        let before = self.observed;
        let products: Vec<f64> = samples
            .iter()
            .map(|&(t, v)| {
                let product = self.advance(t + period * 2);
                self.value = v;
                product
            })
            .collect();
        let held = self.observed - before;
        let rest = n - 2;
        for _ in 0..rest {
            for &product in &products {
                self.weighted_sum += product;
            }
        }
        self.observed += held * rest;
        self.last_change += period * rest;
    }

    /// Holds the current value until `now`; returns the product it added
    /// to the integral.
    fn advance(&mut self, now: SimTime) -> f64 {
        let dt = now.duration_since(self.last_change);
        let product = self.value * dt.as_secs_f64();
        self.weighted_sum += product;
        self.observed += dt;
        self.last_change = now;
        product
    }

    /// Time-weighted mean of the signal up to `now`.
    #[must_use]
    pub fn mean_until(&self, now: SimTime) -> f64 {
        let mut copy = *self;
        copy.advance(now);
        if copy.observed.is_zero() {
            copy.value
        } else {
            copy.weighted_sum / copy.observed.as_secs_f64()
        }
    }

    /// Current (instantaneous) value of the signal.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_matches_closed_form() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(1.0, SimTime::ZERO);
        tw.set(SimTime::from_nanos(1_000_000_000), 3.0); // 1.0 held for 1s
        tw.set(SimTime::from_nanos(3_000_000_000), 0.0); // 3.0 held for 2s
                                                         // mean over 3s = (1*1 + 3*2)/3 = 7/3
        let mean = tw.mean_until(SimTime::from_nanos(3_000_000_000));
        assert!((mean - 7.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_add_is_relative() {
        let mut tw = TimeWeighted::new(0.0, SimTime::ZERO);
        tw.add(SimTime::from_nanos(10), 2.0);
        tw.add(SimTime::from_nanos(20), -1.0);
        assert_eq!(tw.value(), 1.0);
    }

    #[test]
    fn repeat_matches_setting_every_shifted_sample() {
        let t = SimTime::from_nanos;
        // Irregular gaps and values with no short binary expansion, so a
        // reordered or recomputed sum would show in the low bits.
        let samples = [
            (t(1_000_123), 0.3),
            (t(1_250_777), 1.0 / 3.0),
            (t(1_250_777), 0.7),
            (t(2_999_001), 0.0),
            (t(3_400_000), 0.123_456_789),
        ];
        for period_ns in [2_400_000, 2_400_001, 7_777_777] {
            let period = SimDuration::from_nanos(period_ns);
            for n in [0, 1, 2, 3, 4, 17, 1000] {
                let mut start = TimeWeighted::new(0.25, SimTime::ZERO);
                for &(at, v) in &samples {
                    start.set(at, v);
                }
                let mut each = start;
                for k in 1..=n {
                    for &(at, v) in &samples {
                        each.set(at + period * k, v);
                    }
                }
                let mut repeated = start;
                repeated.repeat(&samples, period, n);
                let end = t(3_400_000) + period * (n + 1);
                assert_eq!(
                    repeated.mean_until(end).to_bits(),
                    each.mean_until(end).to_bits(),
                    "period {period_ns} ns, n {n}"
                );
                assert_eq!(repeated.value(), each.value());
                assert_eq!(repeated.last_change, each.last_change);
                assert_eq!(repeated.observed, each.observed);
            }
        }
        let mut untouched = TimeWeighted::new(0.5, t(10));
        untouched.repeat(&[], SimDuration::from_nanos(5), 9);
        assert_eq!(untouched, TimeWeighted::new(0.5, t(10)));
    }

    #[test]
    fn time_weighted_no_elapsed_time_returns_value() {
        let tw = TimeWeighted::new(5.0, SimTime::ZERO);
        assert_eq!(tw.mean_until(SimTime::ZERO), 5.0);
    }
}
