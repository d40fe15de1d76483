//! Small numeric helpers: quantiles, means, digests and a timing loop.

use std::time::{Duration, Instant};

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (the "type 7" rule numpy and R default to). Empty input
/// yields `0.0`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the middle half: the lowest and the highest quarter of the
/// sorted values are dropped. Unlike the median it moves smoothly when
/// the values fall into two modes in changing proportions.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// FNV-1a 64 over exact bit patterns: two digests are equal only when
/// every hashed value is bitwise equal.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    pub fn f32s(&mut self, vs: &[f32]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(u64::from(v.to_bits()));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest of one decision: the fused action and every pre-decision.
pub fn decision_digest(final_action: &[f64], pre_actions: &[Vec<f64>]) -> u64 {
    let mut d = Digest::new();
    d.f64s(final_action);
    d.u64(pre_actions.len() as u64);
    for a in pre_actions {
        d.f64s(a);
    }
    d.finish()
}

/// Calls `f` until at least `min_calls` calls and `min_time` have passed;
/// returns the mean wall time per call in microseconds.
pub fn mean_call_us(min_calls: usize, min_time: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < min_calls || start.elapsed() < min_time {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Completion rate (events per second) of the median block of `block`
/// consecutive events, given each event's time in seconds. Robust to a
/// transient stall; falls back to the overall rate below two blocks.
pub fn block_rate(times: &[f64], block: usize) -> f64 {
    let mut t = times.to_vec();
    t.sort_by(f64::total_cmp);
    let rates: Vec<f64> = (block..t.len())
        .step_by(block)
        .map(|i| block as f64 / (t[i] - t[i - block]))
        .collect();
    if rates.len() >= 2 {
        median(&rates)
    } else {
        t.len() as f64 / t.last().copied().unwrap_or(1.0)
    }
}

/// Quantile `q` of the median window: `values` (in arrival order) are cut
/// into consecutive windows of `window` samples, and the median of the
/// windows' `q`-quantiles is returned. A transient stall spoils only the
/// windows it touches. Below two whole windows, the plain quantile.
pub fn window_quantile(values: &[f64], window: usize, q: f64) -> f64 {
    let per_window: Vec<f64> = values
        .chunks_exact(window)
        .map(|w| quantile(w, q))
        .collect();
    if per_window.len() >= 2 {
        median(&per_window)
    } else {
        quantile(values, q)
    }
}

/// "p50 a, p90 b, p95 c, p99 d" of latencies in µs, with the count.
pub fn percentiles(values: &[f64]) -> String {
    format!(
        "n {}, p50 {:.1}, p90 {:.1}, p95 {:.1}, p99 {:.1} us",
        values.len(),
        quantile(values, 0.5),
        quantile(values, 0.9),
        quantile(values, 0.95),
        quantile(values, 0.99)
    )
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(interquartile_mean(&[2.0, 4.0, 9.0]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn window_quantile_ignores_a_stalled_window() {
        let mut v = vec![1.0; 30];
        v[12] = 100.0;
        v[14] = 100.0;
        assert_eq!(window_quantile(&v, 10, 1.0), 1.0);
        assert_eq!(window_quantile(&v[..15], 10, 1.0), 100.0);
    }

    #[test]
    fn block_rate_takes_the_median_block() {
        // Blocks of 4 events at 10/s, 10/s, then one stalled block.
        let mut times: Vec<f64> = (0..=8).map(|i| i as f64 / 10.0).collect();
        times.extend([2.0, 3.0, 4.0, 5.0]);
        let r = block_rate(&times, 4);
        assert!((r - 10.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = decision_digest(&[0.5, 0.5], &[vec![1.0]]);
        let b = decision_digest(&[0.5, 0.5], &[vec![f64::from_bits(1.0f64.to_bits() + 1)]]);
        assert_ne!(a, b);
        assert_eq!(a, decision_digest(&[0.5, 0.5], &[vec![1.0]]));
    }
}
