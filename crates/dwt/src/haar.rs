//! Single- and multi-level Haar discrete wavelet transform.
//!
//! The Haar analysis filters are
//! `a[i] = (x[2i] + x[2i+1]) / √2` (low-pass) and
//! `d[i] = (x[2i] - x[2i+1]) / √2` (high-pass); synthesis inverts them
//! exactly. Odd-length signals are extended by repeating the final sample;
//! the original length is remembered so reconstruction is exact.

const SQRT2: f64 = std::f64::consts::SQRT_2;

/// One analysis step: returns `(approximation, detail)` coefficients.
pub fn haar_step(x: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut a = x.to_vec();
    let mut d = vec![0.0; x.len().div_ceil(2)];
    haar_step_in_place(&mut a, &mut d);
    a.truncate(d.len());
    (a, d)
}

/// One analysis step in place: the first `x.len().div_ceil(2)` entries
/// of `x` become the approximation and `d` (of that length) receives the
/// detail coefficients. Same operations as [`haar_step`], including the
/// repeated final sample of an odd-length signal.
pub(crate) fn haar_step_in_place(x: &mut [f64], d: &mut [f64]) {
    let len = x.len();
    debug_assert_eq!(d.len(), len.div_ceil(2));
    for (i, di) in d.iter_mut().enumerate() {
        // Position i is written only after positions 2i and 2i+1 (both
        // at or past i) are read, and later steps read past 2i+1.
        let x0 = x[2 * i];
        let x1 = if 2 * i + 1 < len { x[2 * i + 1] } else { x0 };
        x[i] = (x0 + x1) / SQRT2;
        *di = (x0 - x1) / SQRT2;
    }
}

/// One synthesis step: rebuilds the signal of length `out_len` from
/// approximation and detail coefficients.
///
/// # Panics
/// Panics if the coefficient vectors differ in length or `out_len` exceeds
/// twice their length.
pub fn haar_inverse_step(a: &[f64], d: &[f64], out_len: usize) -> Vec<f64> {
    assert_eq!(
        a.len(),
        d.len(),
        "haar_inverse_step: coefficient length mismatch"
    );
    assert!(
        out_len <= 2 * a.len(),
        "haar_inverse_step: out_len too large"
    );
    let mut x = vec![0.0; 2 * a.len()];
    x[..a.len()].copy_from_slice(a);
    haar_inverse_in_place(&mut x, a.len(), Some(d));
    x.truncate(out_len);
    x
}

/// One synthesis step in place: `x[..half]` holds the approximation and
/// is overwritten by the first `x.len()` (at most `2·half`) samples of
/// the rebuilt signal. `d: None` stands for all-zero details and runs
/// the same operations on a literal `0.0`, so a masked band rebuilds
/// bitwise like [`haar_inverse_step`] over a zeroed detail vector.
pub(crate) fn haar_inverse_in_place(x: &mut [f64], half: usize, d: Option<&[f64]>) {
    let out_len = x.len();
    debug_assert!(out_len + 1 >= 2 * half && out_len <= 2 * half);
    // Backwards: step i writes positions 2i and 2i+1, never below i, so
    // each a[j] with j < i is still intact when step j reads it.
    for i in (0..half).rev() {
        let a = x[i];
        let di = d.map_or(0.0, |d| d[i]);
        if 2 * i + 1 < out_len {
            x[2 * i + 1] = (a - di) / SQRT2;
        }
        x[2 * i] = (a + di) / SQRT2;
    }
}

/// A multi-level Haar decomposition.
///
/// `details[0]` holds the level-1 (highest-frequency) coefficients and
/// `details.last()` the coarsest detail band; `approx` is the remaining
/// low-frequency approximation. `lengths[l]` is the signal length that
/// entered analysis level `l`, needed for exact reconstruction of
/// odd-length signals.
#[derive(Debug, Clone)]
pub struct WaveletPyramid {
    /// Detail coefficients per level, finest first.
    pub details: Vec<Vec<f64>>,
    /// Coarsest approximation coefficients.
    pub approx: Vec<f64>,
    /// Input length at each analysis level.
    pub lengths: Vec<usize>,
}

impl WaveletPyramid {
    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.details.len()
    }

    /// Returns a copy with every band zeroed except the selected ones.
    ///
    /// `keep_approx` keeps the coarse approximation; `keep_detail` is the
    /// set of detail level indices (0 = finest) to keep.
    pub fn masked(&self, keep_approx: bool, keep_detail: &[usize]) -> WaveletPyramid {
        let mut out = self.clone();
        if !keep_approx {
            out.approx.iter_mut().for_each(|v| *v = 0.0);
        }
        for (l, d) in out.details.iter_mut().enumerate() {
            if !keep_detail.contains(&l) {
                d.iter_mut().for_each(|v| *v = 0.0);
            }
        }
        out
    }
}

/// Multi-level analysis of `x`.
///
/// # Panics
/// Panics when `levels == 0` or the signal is empty or too short for the
/// requested depth (each level needs at least 2 samples).
pub fn decompose(x: &[f64], levels: usize) -> WaveletPyramid {
    assert!(levels >= 1, "decompose: need at least one level");
    assert!(!x.is_empty(), "decompose: empty signal");
    let mut details = Vec::with_capacity(levels);
    let mut lengths = Vec::with_capacity(levels);
    let mut current = x.to_vec();
    for _ in 0..levels {
        assert!(
            current.len() >= 2,
            "decompose: signal too short for {levels} levels"
        );
        lengths.push(current.len());
        let (a, d) = haar_step(&current);
        details.push(d);
        current = a;
    }
    WaveletPyramid {
        details,
        approx: current,
        lengths,
    }
}

/// Multi-level synthesis: exact inverse of [`decompose`].
pub fn reconstruct(p: &WaveletPyramid) -> Vec<f64> {
    let mut current = p.approx.clone();
    for l in (0..p.details.len()).rev() {
        current = haar_inverse_step(&current, &p.details[l], p.lengths[l]);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn single_step_known_values() {
        let (a, d) = haar_step(&[1.0, 3.0, 2.0, 4.0]);
        assert_close(&a, &[4.0 / SQRT2, 6.0 / SQRT2], 1e-12);
        assert_close(&d, &[-2.0 / SQRT2, -2.0 / SQRT2], 1e-12);
    }

    #[test]
    fn step_roundtrip_even() {
        let x = [1.0, -2.0, 3.5, 0.25, 7.0, -1.0];
        let (a, d) = haar_step(&x);
        let back = haar_inverse_step(&a, &d, x.len());
        assert_close(&back, &x, 1e-12);
    }

    #[test]
    fn step_roundtrip_odd() {
        let x = [1.0, 2.0, 3.0];
        let (a, d) = haar_step(&x);
        let back = haar_inverse_step(&a, &d, x.len());
        assert_close(&back, &x, 1e-12);
    }

    #[test]
    fn multilevel_roundtrip() {
        let x: Vec<f64> = (0..37)
            .map(|i| (i as f64 * 0.7).sin() + 0.1 * i as f64)
            .collect();
        for levels in 1..=4 {
            let p = decompose(&x, levels);
            let back = reconstruct(&p);
            assert_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn constant_signal_has_no_detail() {
        let x = vec![5.0; 16];
        let p = decompose(&x, 3);
        for d in &p.details {
            assert!(
                d.iter().all(|v| v.abs() < 1e-12),
                "constant signal leaked detail energy"
            );
        }
    }

    #[test]
    fn energy_is_preserved() {
        // Orthonormal Haar preserves the squared norm (even lengths).
        let x: Vec<f64> = (0..32).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let p = decompose(&x, 4);
        let coeff_energy: f64 = p.approx.iter().map(|v| v * v).sum::<f64>()
            + p.details
                .iter()
                .flat_map(|d| d.iter())
                .map(|v| v * v)
                .sum::<f64>();
        let sig_energy: f64 = x.iter().map(|v| v * v).sum();
        assert!((coeff_energy - sig_energy).abs() < 1e-9);
    }

    #[test]
    fn masking_zeroes_bands() {
        let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let p = decompose(&x, 2);
        let only_approx = p.masked(true, &[]);
        assert!(only_approx
            .details
            .iter()
            .all(|d| d.iter().all(|v| *v == 0.0)));
        let only_fine = p.masked(false, &[0]);
        assert!(only_fine.approx.iter().all(|v| *v == 0.0));
        assert_eq!(only_fine.details[0], p.details[0]);
        assert!(only_fine.details[1].iter().all(|v| *v == 0.0));
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn too_many_levels_panics() {
        let _ = decompose(&[1.0, 2.0], 3);
    }
}
