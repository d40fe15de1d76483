//! Horizon-specific observation windows (paper Section IV-A).
//!
//! The OHLC window of each asset/feature series is split with the
//! multi-level Haar DWT into `n` frequency bands; band `k` is the input
//! `P^k` of horizon policy `k` (k = 0 → longest horizon). By linearity the
//! bands sum to the raw window, so no information is lost or duplicated.
//!
//! The decomposition runs on the **raw price series** and normalises the
//! bands afterwards: with anchor `a = close(t, i)`, the normalised window
//! `p/a − 1` decomposes as `band₀/a − 1` (the constant `−1` has no detail
//! energy, so it lives entirely in the approximation band) and `bandₖ/a`
//! for `k ≥ 1`. Decomposing before normalising is what makes the windows
//! cacheable: the raw series of day `t` and day `t+1` overlap bitwise,
//! while their normalised versions differ everywhere because the anchor
//! moves. [`HorizonWindowCache`] exploits that overlap through
//! [`SlidingDwt`] and produces outputs bitwise identical to
//! [`horizon_windows`].

use cit_dwt::{horizon_scales, DwtCacheStats, SlidingDwt};
use cit_market::{AssetPanel, Feature, NUM_FEATURES};
use cit_tensor::Tensor;

const FEATURES: [Feature; NUM_FEATURES] =
    [Feature::Open, Feature::High, Feature::Low, Feature::Close];

/// The raw normalised window as a `[m, d, z]` tensor (the cross-insight
/// policy's price input).
pub fn raw_window(panel: &AssetPanel, t: usize, z: usize) -> Tensor {
    let mut out = Tensor::zeros(&[panel.num_assets(), NUM_FEATURES, z]);
    write_raw_window(panel, t, z, out.data_mut());
    out
}

/// Writes [`AssetPanel::normalized_window`] of day `t`, narrowed to
/// `f32`, into `dst` (`[m, d, z]`).
fn write_raw_window(panel: &AssetPanel, t: usize, z: usize, dst: &mut [f32]) {
    let mut dst = dst.iter_mut();
    panel.for_each_normalized(t, z, |v| {
        *dst.next().expect("dst holds [m, d, z]") = v as f32;
    });
}

/// Gathers the raw (unnormalised) prices of one asset/feature series over
/// the window ending at day `t` into `dst` (`z` samples).
fn read_series(panel: &AssetPanel, t: usize, i: usize, f: Feature, dst: &mut [f64]) {
    let first = t + 1 - dst.len();
    for (s, v) in dst.iter_mut().enumerate() {
        *v = panel.price(first + s, i, f);
    }
}

/// Writes the normalised bands of one asset/feature series into the output
/// tensors. Shared by the cached and uncached paths so both produce
/// bit-identical tensors.
fn write_bands(
    out: &mut [Tensor],
    i: usize,
    fi: usize,
    z: usize,
    anchor: f64,
    scales: &[Vec<f64>],
) {
    for (k, scale) in scales.iter().enumerate() {
        // Only the approximation band absorbs the `−1` shift of the
        // `p/a − 1` normalisation; detail bands are purely scaled.
        let shift = if k == 0 { 1.0 } else { 0.0 };
        let base = (i * NUM_FEATURES + fi) * z;
        let dst = &mut out[k].data_mut()[base..base + z];
        for (d, &v) in dst.iter_mut().zip(scale) {
            *d = (v / anchor - shift) as f32;
        }
    }
}

/// The `n` horizon-specific windows `P^1..P^n` for day `t`, each `[m, d, z]`.
///
/// Index 0 carries the lowest-frequency (long-term) band, index `n-1` the
/// highest-frequency (short-term) band.
pub fn horizon_windows(panel: &AssetPanel, t: usize, z: usize, n: usize) -> Vec<Tensor> {
    assert!(n >= 1, "need at least one horizon");
    let m = panel.num_assets();
    let mut out = vec![Tensor::zeros(&[m, NUM_FEATURES, z]); n];
    let mut series = vec![0.0; z];
    for i in 0..m {
        let anchor = panel.close(t, i);
        for (fi, &f) in FEATURES.iter().enumerate() {
            read_series(panel, t, i, f, &mut series);
            let scales = horizon_scales(&series, n);
            write_bands(&mut out, i, fi, z, anchor, &scales);
        }
    }
    out
}

/// A sliding-window cache around [`horizon_windows`].
///
/// Holds one [`SlidingDwt`] per asset/feature series; consecutive-day
/// requests reuse the shifted coefficient streams instead of recomputing
/// the full `O(m · d · z · n)` decomposition. Outputs are bitwise
/// identical to the uncached function for every request pattern.
///
/// The cache also owns its output: the `n` horizon windows and the raw
/// window are written into tensors allocated once, with the series
/// gathered through one scratch buffer, so a warm call allocates nothing
/// but the copies [`HorizonWindowCache::windows`] hands out.
///
/// ```
/// use cit_core::{horizon_windows, HorizonWindowCache};
/// use cit_market::SynthConfig;
///
/// let panel = SynthConfig { num_assets: 2, num_days: 80, test_start: 60, ..Default::default() }
///     .generate();
/// let (z, n) = (16, 3);
/// let mut cache = HorizonWindowCache::new(panel.num_assets(), z, n);
/// for t in (z - 1)..40 {
///     let cached = cache.windows(&panel, t);   // one [m, 4, z] tensor per horizon
///     let cold = horizon_windows(&panel, t, z, n);
///     for (c, r) in cached.iter().zip(&cold) {
///         assert_eq!(c.data(), r.data()); // bitwise-equal to the uncached path
///     }
/// }
/// assert!(cache.stats().incremental > cache.stats().full);
/// ```
pub struct HorizonWindowCache {
    z: usize,
    caches: Vec<SlidingDwt>,
    /// One series' raw prices, gathered from the panel (`z` samples).
    series: Vec<f64>,
    /// The horizon windows of the last fill, one `[m, d, z]` per band.
    bands: Vec<Tensor>,
    /// The raw normalised window of the last fill, `[m, d, z]`.
    raw: Tensor,
}

impl HorizonWindowCache {
    /// Creates a cache for `num_assets` assets, window length `z` and `n`
    /// horizon bands.
    pub fn new(num_assets: usize, z: usize, n: usize) -> Self {
        assert!(n >= 1, "need at least one horizon");
        let shape = [num_assets, NUM_FEATURES, z];
        HorizonWindowCache {
            z,
            caches: (0..num_assets * NUM_FEATURES)
                .map(|_| SlidingDwt::new(z, n))
                .collect(),
            series: vec![0.0; z],
            bands: vec![Tensor::zeros(&shape); n],
            raw: Tensor::zeros(&shape),
        }
    }

    /// Equivalent of `horizon_windows(panel, t, z, n)` for the cache's
    /// `z` and `n`.
    pub fn windows(&mut self, panel: &AssetPanel, t: usize) -> Vec<Tensor> {
        self.fill_bands(panel, t);
        self.bands.clone()
    }

    /// The model inputs of day `t`, written into the cache's own buffers:
    /// the horizon windows (as [`HorizonWindowCache::windows`]) and the
    /// raw window (as [`raw_window`]).
    pub(crate) fn inputs(&mut self, panel: &AssetPanel, t: usize) -> (&[Tensor], &Tensor) {
        self.fill_bands(panel, t);
        write_raw_window(panel, t, self.z, self.raw.data_mut());
        (&self.bands, &self.raw)
    }

    /// Writes the horizon windows of day `t` into `self.bands`. Every
    /// element is overwritten, so nothing from an earlier day survives.
    fn fill_bands(&mut self, panel: &AssetPanel, t: usize) {
        let m = panel.num_assets();
        assert_eq!(
            m * NUM_FEATURES,
            self.caches.len(),
            "HorizonWindowCache: panel asset count changed"
        );
        for i in 0..m {
            let anchor = panel.close(t, i);
            for (fi, &f) in FEATURES.iter().enumerate() {
                read_series(panel, t, i, f, &mut self.series);
                let scales = self.caches[i * NUM_FEATURES + fi].scales_at(t, &self.series);
                write_bands(&mut self.bands, i, fi, self.z, anchor, scales);
            }
        }
    }

    /// Aggregated hit/miss counters across every per-series cache.
    pub fn stats(&self) -> DwtCacheStats {
        let mut total = DwtCacheStats::default();
        for c in &self.caches {
            let s = c.stats();
            total.memo_hits += s.memo_hits;
            total.incremental += s.incremental;
            total.full += s.full;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cit_market::SynthConfig;

    fn panel() -> AssetPanel {
        SynthConfig {
            num_assets: 3,
            num_days: 120,
            test_start: 90,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn shapes_are_consistent() {
        let p = panel();
        let raw = raw_window(&p, 60, 16);
        assert_eq!(raw.shape(), &[3, 4, 16]);
        let scales = horizon_windows(&p, 60, 16, 3);
        assert_eq!(scales.len(), 3);
        for s in &scales {
            assert_eq!(s.shape(), &[3, 4, 16]);
        }
    }

    #[test]
    fn bands_sum_to_raw_window() {
        let p = panel();
        let raw = raw_window(&p, 60, 16);
        let scales = horizon_windows(&p, 60, 16, 4);
        for i in 0..3 {
            for f in 0..4 {
                for s in 0..16 {
                    let sum: f32 = scales.iter().map(|sc| sc.at3(i, f, s)).sum();
                    assert!(
                        (sum - raw.at3(i, f, s)).abs() < 1e-4,
                        "band partition broken at ({i},{f},{s})"
                    );
                }
            }
        }
    }

    #[test]
    fn single_horizon_equals_raw() {
        let p = panel();
        let raw = raw_window(&p, 50, 16);
        let one = horizon_windows(&p, 50, 16, 1);
        for i in 0..3 {
            for f in 0..4 {
                for s in 0..16 {
                    assert!((one[0].at3(i, f, s) - raw.at3(i, f, s)).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn long_band_is_smoother_than_short_band() {
        let p = panel();
        let scales = horizon_windows(&p, 80, 32, 3);
        let tv = |t: &Tensor, i: usize, f: usize| -> f32 {
            (1..32)
                .map(|s| (t.at3(i, f, s) - t.at3(i, f, s - 1)).abs())
                .sum()
        };
        // Averaged over assets/features the long-horizon band must vary less.
        let mut tv_long = 0.0;
        let mut tv_short = 0.0;
        for i in 0..3 {
            for f in 0..4 {
                tv_long += tv(&scales[0], i, f);
                tv_short += tv(&scales[2], i, f);
            }
        }
        assert!(
            tv_long < tv_short,
            "long band rougher than short band: {tv_long} vs {tv_short}"
        );
    }

    #[test]
    fn cached_windows_are_bitwise_identical() {
        let p = panel();
        let (z, n) = (16, 3);
        let mut cache = HorizonWindowCache::new(3, z, n);
        for t in (z - 1)..80 {
            let cached = cache.windows(&p, t);
            let reference = horizon_windows(&p, t, z, n);
            for (c, r) in cached.iter().zip(&reference) {
                assert_eq!(c.data(), r.data(), "cache must be bitwise exact at t={t}");
            }
        }
        let stats = cache.stats();
        assert!(
            stats.incremental > stats.full,
            "sequential sweep should mostly hit the incremental path: {stats:?}"
        );
    }

    #[test]
    fn cached_windows_survive_resets_and_jumps() {
        let p = panel();
        let (z, n) = (16, 4);
        let mut cache = HorizonWindowCache::new(3, z, n);
        // Rollout-style pattern: sequential runs with resets back in time.
        for t in [20, 21, 22, 40, 41, 20, 21, 60, 61, 62, 63] {
            let cached = cache.windows(&p, t);
            let reference = horizon_windows(&p, t, z, n);
            for (c, r) in cached.iter().zip(&reference) {
                assert_eq!(c.data(), r.data(), "t={t}");
            }
        }
    }
}
