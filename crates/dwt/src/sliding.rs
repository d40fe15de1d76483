//! Incremental sliding-window Haar decomposition.
//!
//! The trainer asks for the horizon decomposition of `window[t+1−z ..= t]`
//! at every environment step — each request shifts the previous window by
//! one sample and recomputes every level from scratch. Decimated Haar
//! analysis pairs samples `(2i, 2i+1)`, so a shift of exactly
//! `2^levels` samples preserves the pairing at *every* level (level `l`'s
//! input shifts by `2^(levels−l)`, always even). [`SlidingDwt`] exploits
//! this with a ring of `2^levels` slots keyed by `end % 2^levels`: after a
//! warm-up of one period, every stride-1 request finds the slot filled by
//! `end − 2^levels` and only computes the new coefficient tail
//! (`2^levels − 1` coefficients) plus the last `2^levels` samples of each
//! band reconstruction, instead of the full `O(z · n)` rebuild.
//!
//! Cached results are **bitwise identical** to [`horizon_scales`]: the
//! incremental path evaluates exactly the same floating-point operations on
//! exactly the same operands as a cold decomposition, it just skips the
//! ones whose results are already known. Windows whose length is not a
//! multiple of `2^levels` (odd-padding would break pair alignment) fall
//! back to a full per-call computation and are never cached incrementally.
//!
//! Both paths run in place: a slot's coefficient streams and bands are
//! allocated once, when the slot is first filled, and every later request
//! (full or incremental) overwrites them through one scratch buffer of
//! `z` samples shared by all slots.
//!
//! [`horizon_scales`]: crate::horizon_scales

use crate::haar::{haar_inverse_in_place, haar_step_in_place};

/// Hit/miss counters of a [`SlidingDwt`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DwtCacheStats {
    /// Requests answered entirely from cache (same `end`, same window).
    pub memo_hits: u64,
    /// Requests answered by an incremental tail update.
    pub incremental: u64,
    /// Requests that required a full decomposition.
    pub full: u64,
}

/// One cached window: its samples, its wavelet pyramid and its bands.
struct Slot {
    end: usize,
    window: Vec<f64>,
    /// Detail coefficients per level, finest first.
    details: Vec<Vec<f64>>,
    /// Coarsest approximation coefficients.
    approx: Vec<f64>,
    scales: Vec<Vec<f64>>,
}

impl Slot {
    /// A zeroed slot for windows of `z` samples whose analysis levels
    /// take `lengths` samples each.
    fn new(z: usize, n_scales: usize, lengths: &[usize]) -> Slot {
        let half = |len: &usize| len.div_ceil(2);
        Slot {
            end: 0,
            window: vec![0.0; z],
            details: lengths.iter().map(|l| vec![0.0; half(l)]).collect(),
            approx: vec![0.0; lengths.last().map_or(0, half)],
            scales: vec![vec![0.0; z]; n_scales],
        }
    }
}

/// A sliding-window cache around [`horizon_scales`].
///
/// One instance serves one scalar series (one asset/feature pair); `end` is
/// the series index of the window's last sample, so consecutive calls with
/// `end, end+1, end+2, …` hit the incremental path once the ring is warm.
///
/// ```
/// use cit_dwt::{horizon_scales, SlidingDwt};
///
/// let series: Vec<f64> = (0..48).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
/// let (z, n_scales) = (16, 3); // z is a multiple of period() = 2^(n-1) = 4
/// let mut cache = SlidingDwt::new(z, n_scales);
/// for end in (z - 1)..series.len() {
///     let window = &series[end + 1 - z..=end];
///     // Bitwise identical to a cold decomposition of the same window.
///     assert_eq!(cache.scales_at(end, window), &horizon_scales(window, n_scales));
/// }
/// // After one warm-up period, stride-1 sweeps run incrementally.
/// let stats = cache.stats();
/// assert!(stats.incremental > stats.full, "{stats:?}");
/// ```
///
/// [`horizon_scales`]: crate::horizon_scales
pub struct SlidingDwt {
    z: usize,
    n_scales: usize,
    /// Slide distance that preserves Haar pair alignment (`2^levels`).
    period: usize,
    /// Whether `z` admits the incremental path at all.
    aligned: bool,
    /// Samples entering each of the `n_scales − 1` analysis levels
    /// (`lengths[0] = z`).
    lengths: Vec<usize>,
    slots: Vec<Option<Slot>>,
    /// Analysis scratch of `z` samples.
    work: Vec<f64>,
    stats: DwtCacheStats,
}

impl SlidingDwt {
    /// Creates a cache for windows of length `z` split into `n_scales`
    /// horizon bands (mirroring [`horizon_scales`]).
    ///
    /// # Panics
    /// Panics if `z == 0` or `n_scales == 0`.
    ///
    /// [`horizon_scales`]: crate::horizon_scales
    pub fn new(z: usize, n_scales: usize) -> Self {
        assert!(z >= 1, "SlidingDwt: window length must be positive");
        assert!(n_scales >= 1, "SlidingDwt: need at least one scale");
        let levels = n_scales - 1;
        let period = 1usize << levels;
        let aligned = z.is_multiple_of(period);
        let lengths = std::iter::successors(Some(z), |len| Some(len.div_ceil(2)))
            .take(levels)
            .collect();
        SlidingDwt {
            z,
            n_scales,
            period,
            aligned,
            lengths,
            slots: (0..period).map(|_| None).collect(),
            work: vec![0.0; z],
            stats: DwtCacheStats::default(),
        }
    }

    /// Cache counters so far.
    pub fn stats(&self) -> DwtCacheStats {
        self.stats
    }

    /// The slide distance (in samples) served incrementally: `2^(n_scales−1)`.
    pub fn period(&self) -> usize {
        self.period
    }

    /// The horizon bands of `window`, whose last sample has series index
    /// `end`. Semantically identical to `horizon_scales(window, n_scales)`.
    ///
    /// # Panics
    /// Panics if `window.len() != z`, or if `z` is too short for
    /// `n_scales − 1` analysis levels (as [`crate::decompose`] does).
    pub fn scales_at(&mut self, end: usize, window: &[f64]) -> &[Vec<f64>] {
        assert_eq!(window.len(), self.z, "SlidingDwt: window length mismatch");
        let idx = end % self.period;
        let reuse = match self.slots[idx].as_ref() {
            Some(s) if s.end == end && s.window == window => Reuse::Memo,
            Some(s)
                if self.aligned
                    && !self.lengths.is_empty()
                    && s.end + self.period == end
                    && s.window[self.period..] == window[..self.z - self.period] =>
            {
                Reuse::Incremental
            }
            _ => Reuse::None,
        };
        let (z, n_scales) = (self.z, self.n_scales);
        let SlidingDwt {
            lengths,
            slots,
            work,
            stats,
            ..
        } = self;
        match reuse {
            Reuse::Memo => stats.memo_hits += 1,
            Reuse::Incremental => {
                stats.incremental += 1;
                let slot = slots[idx].as_mut().expect("slot checked above");
                slide_slot(slot, end, window, work, lengths.len(), n_scales);
            }
            Reuse::None => {
                stats.full += 1;
                let slot = slots[idx].get_or_insert_with(|| Slot::new(z, n_scales, lengths));
                fill_slot(slot, end, window, work, lengths, n_scales);
            }
        }
        &slots[idx].as_ref().expect("slot filled above").scales
    }
}

enum Reuse {
    Memo,
    Incremental,
    None,
}

/// Which pyramid bands horizon band `k` keeps: the approximation for
/// `k = 0`, else detail level `n_scales − 1 − k` (the last band is the
/// finest detail).
fn band_mask(k: usize, n_scales: usize) -> (bool, Option<usize>) {
    (k == 0, (k >= 1).then(|| n_scales - 1 - k))
}

/// Recomputes `slot` from `window` with the operations of
/// [`crate::horizon_scales`]: a [`crate::decompose`] of `lengths.len()`
/// levels, then one [`crate::reconstruct`] per band with every other
/// band zeroed.
fn fill_slot(
    slot: &mut Slot,
    end: usize,
    window: &[f64],
    work: &mut [f64],
    lengths: &[usize],
    n_scales: usize,
) {
    slot.end = end;
    slot.window.copy_from_slice(window);
    let levels = lengths.len();
    if levels == 0 {
        slot.scales[0].copy_from_slice(window);
        return;
    }
    work.copy_from_slice(window);
    for (l, &len) in lengths.iter().enumerate() {
        assert!(len >= 2, "decompose: signal too short for {levels} levels");
        haar_step_in_place(&mut work[..len], &mut slot.details[l]);
    }
    let top = slot.approx.len();
    slot.approx.copy_from_slice(&work[..top]);
    for (k, band) in slot.scales.iter_mut().enumerate() {
        let (keep_approx, detail_level) = band_mask(k, n_scales);
        if keep_approx {
            band[..top].copy_from_slice(&slot.approx);
        } else {
            band[..top].fill(0.0);
        }
        for l in (0..levels).rev() {
            let d = (detail_level == Some(l)).then_some(&slot.details[l][..]);
            haar_inverse_in_place(&mut band[..lengths[l]], slot.details[l].len(), d);
        }
    }
}

/// Advances `slot` by one period (`2^levels` samples): shifts every
/// coefficient stream and band left by its per-level stride and fills the
/// vacated tails from the new samples at the end of `window`.
fn slide_slot(
    slot: &mut Slot,
    end: usize,
    window: &[f64],
    work: &mut [f64],
    levels: usize,
    n_scales: usize,
) {
    let z = window.len();
    let period = 1usize << levels;
    // Cascade the new input tail down the analysis levels. The new approx
    // coefficients of level l are exactly the input tail level l+1 needs.
    work[..period].copy_from_slice(&window[z - period..]);
    let mut len = period;
    for stream in &mut slot.details {
        let half = len / 2;
        stream.copy_within(half.., 0);
        let n = stream.len();
        haar_step_in_place(&mut work[..len], &mut stream[n - half..]);
        len = half;
    }
    let top = slot.approx.len();
    slot.approx.copy_within(len.., 0);
    slot.approx[top - len..].copy_from_slice(&work[..len]);
    // Each band reconstruction shifts by `period` samples; only the last
    // `period` outputs touch new coefficients, and they are rebuilt in
    // place from the last `period >> levels` coefficients.
    for (k, band) in slot.scales.iter_mut().enumerate() {
        band.copy_within(period.., 0);
        let (keep_approx, detail_level) = band_mask(k, n_scales);
        let tail = &mut band[z - period..];
        if keep_approx {
            tail[..len].copy_from_slice(&slot.approx[top - len..]);
        } else {
            tail[..len].fill(0.0);
        }
        let mut dn = len;
        for l in (0..levels).rev() {
            let d = (detail_level == Some(l)).then(|| {
                let stream = &slot.details[l];
                &stream[stream.len() - dn..]
            });
            haar_inverse_in_place(&mut tail[..2 * dn], dn, d);
            dn *= 2;
        }
    }
    slot.end = end;
    slot.window.copy_within(period.., 0);
    slot.window[z - period..].copy_from_slice(&window[z - period..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::horizon_scales;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                100.0 + 0.2 * t + 3.0 * (t * 0.37).sin() + 0.8 * (t * 1.7).cos()
            })
            .collect()
    }

    fn sweep_matches_reference(z: usize, n_scales: usize, steps: usize) -> DwtCacheStats {
        let x = series(z + steps);
        let mut cache = SlidingDwt::new(z, n_scales);
        for end in (z - 1)..(z - 1 + steps) {
            let window = &x[end + 1 - z..=end];
            let cached = cache.scales_at(end, window).to_vec();
            let reference = horizon_scales(window, n_scales);
            assert_eq!(
                cached, reference,
                "z={z} n={n_scales} end={end}: cached bands must be bitwise identical"
            );
        }
        cache.stats()
    }

    #[test]
    fn aligned_sweep_is_bitwise_identical_and_hits_incremental_path() {
        for (z, n) in [(16, 3), (16, 5), (32, 4), (64, 5), (8, 2)] {
            let stats = sweep_matches_reference(z, n, 40);
            let period = 1usize << (n - 1);
            assert_eq!(stats.full as usize, period, "one cold fill per ring slot");
            assert_eq!(stats.incremental as usize, 40 - period);
        }
    }

    /// The in-place paths match the allocating reference bit for bit, not
    /// just by value: plateaus make exact-zero details (where a signed
    /// zero would show), and odd window lengths exercise the padding.
    #[test]
    fn in_place_paths_match_the_reference_bit_for_bit() {
        let x: Vec<f64> = (0..120)
            .map(|i| {
                if (i / 8) % 3 == 0 {
                    5.0
                } else {
                    100.0 - (i as f64 * 0.7).sin()
                }
            })
            .collect();
        let bits = |bands: &[Vec<f64>]| -> Vec<Vec<u64>> {
            bands
                .iter()
                .map(|b| b.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        for (z, n) in [(32, 5), (16, 3), (13, 3), (21, 4), (8, 1)] {
            let mut cache = SlidingDwt::new(z, n);
            for end in (z - 1)..x.len() {
                let window = &x[end + 1 - z..=end];
                let cached = bits(cache.scales_at(end, window));
                assert_eq!(
                    cached,
                    bits(&horizon_scales(window, n)),
                    "z={z} n={n} end={end}"
                );
            }
        }
    }

    #[test]
    fn misaligned_window_falls_back_to_full_compute() {
        // z = 10 is not a multiple of 2^2: every call is a full rebuild but
        // results still match the reference exactly.
        let stats = sweep_matches_reference(10, 3, 20);
        assert_eq!(stats.incremental, 0);
        assert_eq!(stats.full, 20);
    }

    #[test]
    fn repeated_end_is_memoised() {
        let x = series(64);
        let mut cache = SlidingDwt::new(32, 4);
        let w = &x[0..32];
        let first = cache.scales_at(31, w).to_vec();
        let second = cache.scales_at(31, w).to_vec();
        assert_eq!(first, second);
        assert_eq!(cache.stats().memo_hits, 1);
        assert_eq!(cache.stats().full, 1);
    }

    #[test]
    fn single_scale_is_identity() {
        let x = series(16);
        let mut cache = SlidingDwt::new(16, 1);
        assert_eq!(cache.scales_at(15, &x)[0], x);
    }

    #[test]
    fn non_unit_strides_and_gaps_stay_correct() {
        // Jumping by arbitrary strides must never poison the ring.
        let x = series(200);
        let z = 16;
        let n = 3;
        let mut cache = SlidingDwt::new(z, n);
        let mut end = z - 1;
        for stride in [1, 1, 4, 1, 7, 2, 1, 1, 16, 3, 1] {
            end += stride;
            let window = &x[end + 1 - z..=end];
            let cached = cache.scales_at(end, window).to_vec();
            assert_eq!(cached, horizon_scales(window, n), "stride {stride}");
        }
    }

    #[test]
    fn bands_still_sum_to_window_after_many_slides() {
        let x = series(100);
        let z = 32;
        let mut cache = SlidingDwt::new(z, 5);
        for end in (z - 1)..99 {
            let window = &x[end + 1 - z..=end];
            let bands = cache.scales_at(end, window);
            for t in 0..z {
                let sum: f64 = bands.iter().map(|b| b[t]).sum();
                assert!((sum - window[t]).abs() < 1e-9, "end={end} t={t}");
            }
        }
    }
}
