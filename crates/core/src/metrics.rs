//! Latency and throughput metrics.
//!
//! The validation methodology of the paper revolves around load–latency
//! curves (mean and tail) and time series of windowed tail latency (for the
//! power-management study). This module provides:
//!
//! * [`LatencySummary`] — percentiles/mean over a set of samples,
//! * [`LatencyRecorder`] — an accumulating recorder with warmup filtering,
//! * [`WindowedRecorder`] — fixed-width time windows producing a series of
//!   summaries (Fig. 16 traces, Table III violation rates).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Summary statistics over a batch of latency samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median (p50), seconds.
    pub p50: f64,
    /// 95th percentile, seconds.
    pub p95: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Maximum observed, seconds.
    pub max: f64,
}

impl LatencySummary {
    /// The empty summary (all zeros).
    pub fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        }
    }

    /// Computes a summary from unsorted samples (seconds). Sorts a copy.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::empty();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        Self::from_sorted(&sorted)
    }

    /// Computes a summary from already-sorted samples.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `sorted` is non-decreasing.
    pub fn from_sorted(sorted: &[f64]) -> Self {
        if sorted.is_empty() {
            return Self::empty();
        }
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "samples must be sorted"
        );
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        LatencySummary {
            count,
            mean,
            p50: percentile_sorted(sorted, 0.50),
            p95: percentile_sorted(sorted, 0.95),
            p99: percentile_sorted(sorted, 0.99),
            max: sorted[count - 1],
        }
    }
}

/// Nearest-rank percentile (the convention used by wrk2 and most tail-latency
/// reporting): the smallest sample such that at least `q` of the samples are
/// ≤ it.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    let idx = rank.max(1) - 1;
    sorted[idx.min(sorted.len() - 1)]
}

/// Accumulates end-to-end latency samples, ignoring those completed before
/// the warmup deadline.
///
/// # Examples
///
/// ```
/// use uqsim_core::metrics::LatencyRecorder;
/// use uqsim_core::time::{SimDuration, SimTime};
///
/// let mut rec = LatencyRecorder::new(SimTime::from_secs_f64(1.0));
/// rec.record(SimTime::from_secs_f64(0.5), SimDuration::from_millis(9)); // warmup: dropped
/// rec.record(SimTime::from_secs_f64(1.5), SimDuration::from_millis(2));
/// assert_eq!(rec.summary().count, 1);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    warmup_until: SimTime,
    samples: Vec<f64>,
    dropped_warmup: usize,
}

impl LatencyRecorder {
    /// Creates a recorder that ignores completions before `warmup_until`.
    pub fn new(warmup_until: SimTime) -> Self {
        LatencyRecorder {
            warmup_until,
            samples: Vec::new(),
            dropped_warmup: 0,
        }
    }

    /// Records a completion at `now` with the given end-to-end latency.
    pub fn record(&mut self, now: SimTime, latency: SimDuration) {
        if now < self.warmup_until {
            self.dropped_warmup += 1;
            return;
        }
        self.samples.push(latency.as_secs_f64());
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of samples discarded as warmup.
    pub fn dropped_warmup(&self) -> usize {
        self.dropped_warmup
    }

    /// Summary over all retained samples.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::from_samples(&self.samples)
    }

    /// Raw retained samples (seconds), in completion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Moves the retained samples out, leaving the recorder empty.
    pub(crate) fn take_samples(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.samples)
    }
}

/// One completed window of a [`WindowedRecorder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window start time.
    pub start: SimTime,
    /// Window end time (exclusive).
    pub end: SimTime,
    /// Latency summary over completions in the window.
    pub latency: LatencySummary,
    /// Completions per second over the window.
    pub throughput: f64,
}

/// Collects latency samples into fixed-width, non-overlapping windows.
///
/// Used by the power manager (which makes one decision per window) and by
/// the Fig. 16 traces.
#[derive(Debug, Clone)]
pub struct WindowedRecorder {
    width: SimDuration,
    current_start: SimTime,
    current: Vec<f64>,
    finished: Vec<WindowStats>,
}

impl WindowedRecorder {
    /// Creates a recorder with the given window width, starting at time 0.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(width > SimDuration::ZERO, "window width must be positive");
        WindowedRecorder {
            width,
            current_start: SimTime::ZERO,
            current: Vec::new(),
            finished: Vec::new(),
        }
    }

    /// Window width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Advances window boundaries up to `now`, closing any elapsed windows
    /// (empty ones included, so the series has no gaps).
    ///
    /// [`record`](WindowedRecorder::record) calls this itself, which keeps
    /// the series gap-free *between* completions; the simulator additionally
    /// calls it when a run deadline fires, so idle time at the *end* of a
    /// run shows up as explicit count-0 windows instead of silently
    /// truncating the time axis.
    pub fn advance_to(&mut self, now: SimTime) {
        while now >= self.current_start + self.width {
            let end = self.current_start + self.width;
            let latency = LatencySummary::from_samples(&self.current);
            let throughput = self.current.len() as f64 / self.width.as_secs_f64();
            self.finished.push(WindowStats {
                start: self.current_start,
                end,
                latency,
                throughput,
            });
            self.current.clear();
            self.current_start = end;
        }
    }

    /// Records a completion; call with non-decreasing `now`.
    pub fn record(&mut self, now: SimTime, latency: SimDuration) {
        self.advance_to(now);
        self.current.push(latency.as_secs_f64());
    }

    /// All closed windows so far.
    pub fn finished(&self) -> &[WindowStats] {
        &self.finished
    }

    /// Closes the in-progress window (even if shorter than `width`) and
    /// returns the full series.
    pub fn into_series(mut self) -> Vec<WindowStats> {
        if !self.current.is_empty() {
            let end = self.current_start + self.width;
            let latency = LatencySummary::from_samples(&self.current);
            let throughput = self.current.len() as f64 / self.width.as_secs_f64();
            self.finished.push(WindowStats {
                start: self.current_start,
                end,
                latency,
                throughput,
            });
        }
        self.finished
    }

    /// Summary of the most recently *closed* window, if any.
    pub fn last_window(&self) -> Option<&WindowStats> {
        self.finished.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&xs, 0.50), 50.0);
        assert_eq!(percentile_sorted(&xs, 0.99), 99.0);
        assert_eq!(percentile_sorted(&xs, 1.0), 100.0);
        assert_eq!(percentile_sorted(&xs, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_small_samples() {
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 0.51), 2.0);
    }

    #[test]
    fn summary_from_samples() {
        let s = LatencySummary::from_samples(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn summary_percentiles_monotone() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64) * 1e-6).collect();
        let s = LatencySummary::from_samples(&xs);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn recorder_drops_warmup() {
        let mut rec = LatencyRecorder::new(SimTime::from_secs_f64(1.0));
        rec.record(SimTime::from_secs_f64(0.9), SimDuration::from_millis(100));
        rec.record(SimTime::from_secs_f64(1.0), SimDuration::from_millis(1));
        rec.record(SimTime::from_secs_f64(2.0), SimDuration::from_millis(3));
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped_warmup(), 1);
        let s = rec.summary();
        assert!((s.mean - 0.002).abs() < 1e-12);
    }

    #[test]
    fn windowed_recorder_closes_empty_windows() {
        let mut w = WindowedRecorder::new(SimDuration::from_secs(1));
        w.record(SimTime::from_secs_f64(0.5), SimDuration::from_millis(1));
        w.record(SimTime::from_secs_f64(3.5), SimDuration::from_millis(2));
        let series = w.into_series();
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].latency.count, 1);
        assert_eq!(series[1].latency.count, 0);
        assert_eq!(series[2].latency.count, 0);
        assert_eq!(series[3].latency.count, 1);
        assert!((series[0].throughput - 1.0).abs() < 1e-12);
    }

    #[test]
    fn advance_to_emits_trailing_empty_windows() {
        let mut w = WindowedRecorder::new(SimDuration::from_secs(1));
        w.record(SimTime::from_secs_f64(0.5), SimDuration::from_millis(1));
        // A long idle stretch after the last completion must still close
        // windows — with zero counts — up to the advance point.
        w.advance_to(SimTime::from_secs_f64(3.7));
        let series = w.finished();
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].latency.count, 1);
        assert_eq!(series[1].latency.count, 0);
        assert_eq!(series[2].latency.count, 0);
        assert_eq!(series[2].end, SimTime::from_secs_f64(3.0));
        // Idempotent: advancing to the same instant adds nothing.
        w.advance_to(SimTime::from_secs_f64(3.7));
        assert_eq!(w.finished().len(), 3);
    }

    #[test]
    fn windowed_recorder_boundaries() {
        let mut w = WindowedRecorder::new(SimDuration::from_secs(1));
        // Exactly at the boundary goes into the next window.
        w.record(SimTime::from_secs_f64(1.0), SimDuration::from_millis(1));
        let series = w.into_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].latency.count, 0);
        assert_eq!(series[1].latency.count, 1);
    }

    #[test]
    fn last_window_tracks_closed() {
        let mut w = WindowedRecorder::new(SimDuration::from_secs(1));
        assert!(w.last_window().is_none());
        w.record(SimTime::from_secs_f64(0.2), SimDuration::from_millis(5));
        w.advance_to(SimTime::from_secs_f64(1.5));
        let last = w.last_window().unwrap();
        assert_eq!(last.latency.count, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = WindowedRecorder::new(SimDuration::ZERO);
    }

    #[test]
    fn window_stats_serde_roundtrip() {
        let mut w = WindowedRecorder::new(SimDuration::from_secs(1));
        w.record(SimTime::from_secs_f64(0.5), SimDuration::from_millis(2));
        let series = w.into_series();
        let json = serde_json::to_string(&series).unwrap();
        let back: Vec<WindowStats> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, series);
    }

    #[test]
    fn summary_of_empty_is_all_zero() {
        let s = LatencySummary::from_samples(&[]);
        assert_eq!(s, LatencySummary::empty());
        assert_eq!(s.count, 0);
    }

    #[test]
    fn into_series_includes_partial_window() {
        let mut w = WindowedRecorder::new(SimDuration::from_secs(1));
        w.record(SimTime::from_secs_f64(0.25), SimDuration::from_millis(1));
        w.record(SimTime::from_secs_f64(1.25), SimDuration::from_millis(1));
        let series = w.into_series();
        assert_eq!(series.len(), 2, "second (partial) window must be closed");
        assert_eq!(series[1].latency.count, 1);
    }
}
