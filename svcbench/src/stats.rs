//! The benchmark's own arithmetic: percentiles and the samples-beyond
//! rule, open-loop due-time latency and generator lag, and the guarded
//! ratios the per-layer report is made of. Pure functions over plain
//! numbers, so the unit tests below pin them on synthetic inputs.

use std::time::{Duration, Instant};

/// A timing percentile is only reported when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Linear-interpolation percentile (`p` in `[0, 1]`) of an ascending
/// slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "percentile input must be sorted");
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sort a sample in place and return its percentile `p`.
pub fn percentile_of(samples: &mut [f64], p: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile(samples, p)
}

/// How many of `n` samples lie beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // the interpolated percentile sits at rank p·(n-1); every sample with
    // a higher rank is beyond it
    let rank = p.clamp(0.0, 1.0) * n.saturating_sub(1) as f64;
    n.saturating_sub(rank.floor() as usize + 1)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The smallest sample count that supports percentile `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..).find(|&n| supports(n, p)).expect("some sample count supports any p < 1")
}

/// Latency of an open-loop request: from when it was **due**, not when it
/// was sent, so a stall that delays later submissions is charged to them.
pub fn due_latency(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// How late the generator sent a request (zero when on time or early).
pub fn lag(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// The due time of the `k`-th request of an open-loop schedule at `rate`
/// requests per second starting at `start`.
pub fn due_at(start: Instant, rate: f64, k: u64) -> Instant {
    start + Duration::from_secs_f64(k as f64 / rate)
}

/// `num / den`, or 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Hits over lookups (`hits + misses`), 0 when there were none.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// Median of a sample (sorting it in place).
pub fn median(samples: &mut [f64]) -> f64 {
    percentile_of(samples, 0.5)
}

/// Share of a parent interval `[start, end)` that none of its children
/// cover. Children may overlap each other; each is clipped to the parent.
pub fn uncovered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0u64, start);
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = ramp(5); // 1 2 3 4 5
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let mut shuffled = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut shuffled), 3.0);
    }

    #[test]
    fn percentile_matches_the_usual_definition_on_a_long_ramp() {
        // 1..=1000: p99 sits at rank 989.01 → 990.01
        let v = ramp(1000);
        assert!((percentile(&v, 0.99) - 990.01).abs() < 1e-9);
        assert!((percentile(&v, 0.5) - 500.5).abs() < 1e-9);
    }

    #[test]
    fn samples_beyond_counts_higher_ranks() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 10);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 10);
        assert_eq!(samples_beyond(92, 0.9), 10);
        assert_eq!(samples_beyond(91, 0.9), 9);
        assert_eq!(samples_beyond(5, 0.5), 2);
        assert_eq!(samples_beyond(0, 0.5), 0);
        // brute force: count samples strictly above the percentile of a
        // strictly increasing ramp
        for n in 1..300 {
            for p in [0.5, 0.9, 0.99] {
                let v = ramp(n);
                let q = percentile(&v, p);
                let above = v.iter().filter(|&&x| x > q).count();
                assert_eq!(samples_beyond(n, p), above, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn the_ten_beyond_rule() {
        assert!(supports(1000, 0.99));
        assert!(!supports(900, 0.99));
        assert!(supports(100, 0.9));
        assert!(!supports(60, 0.9));
        assert_eq!(samples_needed(0.99), 902);
        assert_eq!(samples_needed(0.9), 92);
        assert_eq!(samples_needed(0.5), 20);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let rate = 4.0; // one request every 250 ms
        let due = due_at(t0, rate, 3);
        assert_eq!(due - t0, Duration::from_millis(750));
        // a request sent 40 ms late and answered 20 ms after sending waited
        // 60 ms from its due time, and the generator lagged 40 ms
        let sent = due + Duration::from_millis(40);
        let done = sent + Duration::from_millis(20);
        assert_eq!(due_latency(due, done), Duration::from_millis(60));
        assert_eq!(lag(due, sent), Duration::from_millis(40));
        // sent early: no lag, and latency still counts from the due time
        let early = due - Duration::from_millis(1);
        assert_eq!(lag(due, early), Duration::ZERO);
        assert_eq!(due_latency(due, early), Duration::ZERO);
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(hit_rate(3, 1), 0.75);
        assert_eq!(hit_rate(0, 0), 0.0);
        assert_eq!(hit_rate(5, 0), 1.0);
        assert_eq!(ratio(10.0, 4.0), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn uncovered_time_ignores_overlap_and_clips_children() {
        // parent [0, 100); children cover [10, 30) ∪ [20, 50) ∪ [90, 120)
        let mut kids = vec![(20, 50), (10, 30), (90, 120)];
        assert_eq!(uncovered_ns(0, 100, &mut kids), 100 - 40 - 10);
        assert_eq!(uncovered_ns(0, 100, &mut []), 100);
        let mut whole = vec![(0, 100)];
        assert_eq!(uncovered_ns(0, 100, &mut whole), 0);
    }
}
