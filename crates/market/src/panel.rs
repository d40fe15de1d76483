//! The asset panel: OHLC price history for `m` assets over `T` days.

/// Feature indices within a panel (the paper uses `d = 4` OHLC features).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feature {
    /// Opening price.
    Open = 0,
    /// Daily high.
    High = 1,
    /// Daily low.
    Low = 2,
    /// Closing price.
    Close = 3,
}

/// Number of per-asset features stored in a panel.
pub const NUM_FEATURES: usize = 4;

/// Why a buffer cannot form a valid [`AssetPanel`]
/// (see [`AssetPanel::try_new`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PanelError {
    /// Fewer than two days or zero assets.
    Empty(String),
    /// Buffer length does not equal `T·m·d`.
    SizeMismatch(String),
    /// A price is NaN, infinite, zero or negative. The environment's
    /// return computations divide by prices, so a dirty panel must go
    /// through [`crate::quality`] validation/repair first.
    DirtyPrice(String),
    /// `test_start` is not inside `[0, T)`.
    BadSplit(String),
}

impl std::fmt::Display for PanelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PanelError::Empty(m)
            | PanelError::SizeMismatch(m)
            | PanelError::DirtyPrice(m)
            | PanelError::BadSplit(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for PanelError {}

/// A dense panel of daily OHLC prices: `data[(t, i, f)]` with `T` days,
/// `m` assets and [`NUM_FEATURES`] features, plus a train/test split index.
#[derive(Debug, Clone)]
pub struct AssetPanel {
    name: String,
    num_days: usize,
    num_assets: usize,
    /// Row-major `[T, m, d]`.
    data: Vec<f64>,
    /// First day index that belongs to the test period.
    test_start: usize,
    asset_names: Vec<String>,
}

impl AssetPanel {
    /// Builds a panel from raw `[T, m, d]` data.
    ///
    /// # Panics
    /// Panics if the buffer length is not `T·m·d`, the panel is empty, any
    /// price is non-positive/non-finite, or `test_start` is out of range.
    pub fn new(
        name: impl Into<String>,
        num_days: usize,
        num_assets: usize,
        data: Vec<f64>,
        test_start: usize,
    ) -> Self {
        Self::try_new(name, num_days, num_assets, data, test_start)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a panel from raw `[T, m, d]` data, returning a typed
    /// [`PanelError`] instead of panicking. This is the only constructor —
    /// [`AssetPanel::new`] delegates here — so a `PortfolioEnv` can never
    /// be built over non-positive or non-finite prices; dirty feeds go
    /// through [`crate::quality`] validation/repair first.
    pub fn try_new(
        name: impl Into<String>,
        num_days: usize,
        num_assets: usize,
        data: Vec<f64>,
        test_start: usize,
    ) -> Result<Self, PanelError> {
        if num_days < 2 {
            return Err(PanelError::Empty("panel needs at least two days".into()));
        }
        if num_assets < 1 {
            return Err(PanelError::Empty("panel needs at least one asset".into()));
        }
        if data.len() != num_days * num_assets * NUM_FEATURES {
            return Err(PanelError::SizeMismatch(format!(
                "panel buffer size mismatch: {} values for {num_days}×{num_assets}×{NUM_FEATURES}",
                data.len()
            )));
        }
        if let Some(pos) = data.iter().position(|p| !(p.is_finite() && *p > 0.0)) {
            let (t, rest) = (
                pos / (num_assets * NUM_FEATURES),
                pos % (num_assets * NUM_FEATURES),
            );
            return Err(PanelError::DirtyPrice(format!(
                "panel prices must be positive and finite: value {} at day {t}, asset {}",
                data[pos],
                rest / NUM_FEATURES
            )));
        }
        if test_start >= num_days {
            return Err(PanelError::BadSplit("test_start out of range".into()));
        }
        Ok(AssetPanel {
            name: name.into(),
            num_days,
            num_assets,
            data,
            test_start,
            asset_names: default_asset_names(num_assets),
        })
    }

    /// Builds a panel from day rows, each holding `m·d` values (one OHLC
    /// block per asset), validated once each as by
    /// [`AssetPanel::try_push_days`]. The test period starts at day 0.
    pub fn try_from_days<R: AsRef<[f64]>>(
        name: impl Into<String>,
        num_assets: usize,
        days: &[R],
    ) -> Result<Self, PanelError> {
        if num_assets < 1 {
            return Err(PanelError::Empty("panel needs at least one asset".into()));
        }
        let mut panel = AssetPanel {
            name: name.into(),
            num_days: 0,
            num_assets,
            data: Vec::new(),
            test_start: 0,
            asset_names: default_asset_names(num_assets),
        };
        panel.try_push_days(days)?;
        if panel.num_days < 2 {
            return Err(PanelError::Empty("panel needs at least two days".into()));
        }
        Ok(panel)
    }

    /// Appends day rows after the last day. Each row must hold `m·d`
    /// values, every one positive and finite. Only the new rows are
    /// checked, each once, as it is copied in. The append is atomic: at
    /// the first bad row the panel is left as it was, and the error names
    /// that row by its index in `days`.
    pub fn try_push_days<R: AsRef<[f64]>>(&mut self, days: &[R]) -> Result<(), PanelError> {
        let width = self.num_assets * NUM_FEATURES;
        let old_len = self.data.len();
        for (i, day) in days.iter().enumerate() {
            let day = day.as_ref();
            let bad = if day.len() != width {
                Some(PanelError::SizeMismatch(format!(
                    "day {i}: expected {width} values ({} assets × {NUM_FEATURES} OHLC), got {}",
                    self.num_assets,
                    day.len()
                )))
            } else {
                day.iter()
                    .find(|p| !(p.is_finite() && **p > 0.0))
                    .map(|bad| {
                        PanelError::DirtyPrice(format!(
                            "day {i}: prices must be positive and finite, got {bad}"
                        ))
                    })
            };
            if let Some(e) = bad {
                self.data.truncate(old_len);
                return Err(e);
            }
            self.data.extend_from_slice(day);
        }
        self.num_days += days.len();
        Ok(())
    }

    /// Removes the `n` oldest days. Day indices shift down by `n`; the
    /// test split moves with its day (clamped at day 0).
    ///
    /// # Panics
    /// Panics if fewer than two days would remain.
    pub fn drop_front_days(&mut self, n: usize) {
        assert!(
            n + 2 <= self.num_days,
            "drop_front_days: a panel keeps at least two days"
        );
        self.data.drain(..n * self.num_assets * NUM_FEATURES);
        self.num_days -= n;
        self.test_start = self.test_start.saturating_sub(n);
    }

    /// The row-major `[T, m, d]` price buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Dataset label (e.g. "US", "HK", "CN").
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of trading days `T`.
    pub fn num_days(&self) -> usize {
        self.num_days
    }

    /// Number of assets `m`.
    pub fn num_assets(&self) -> usize {
        self.num_assets
    }

    /// First day of the test period.
    pub fn test_start(&self) -> usize {
        self.test_start
    }

    /// Names of the assets.
    pub fn asset_names(&self) -> &[String] {
        &self.asset_names
    }

    /// Overrides asset names (e.g. when loading real tickers from CSV).
    ///
    /// # Panics
    /// Panics if the name count does not match the asset count.
    pub fn set_asset_names(&mut self, names: Vec<String>) {
        assert_eq!(names.len(), self.num_assets, "asset name count mismatch");
        self.asset_names = names;
    }

    /// Price of feature `f` for asset `i` on day `t`.
    #[inline]
    pub fn price(&self, t: usize, i: usize, f: Feature) -> f64 {
        self.data[(t * self.num_assets + i) * NUM_FEATURES + f as usize]
    }

    /// Closing price of asset `i` on day `t`.
    #[inline]
    pub fn close(&self, t: usize, i: usize) -> f64 {
        self.price(t, i, Feature::Close)
    }

    /// Vector of closing prices on day `t`.
    pub fn closes(&self, t: usize) -> Vec<f64> {
        (0..self.num_assets).map(|i| self.close(t, i)).collect()
    }

    /// Per-asset price relatives `close(t) / close(t-1)`.
    ///
    /// # Panics
    /// Panics when `t == 0`.
    pub fn price_relatives(&self, t: usize) -> Vec<f64> {
        assert!(t >= 1, "price_relatives needs t >= 1");
        (0..self.num_assets)
            .map(|i| self.close(t, i) / self.close(t - 1, i))
            .collect()
    }

    /// Growth ratios `close(t)/close(t-1) − 1` (the paper's `x_t`).
    pub fn growth_ratios(&self, t: usize) -> Vec<f64> {
        self.price_relatives(t)
            .into_iter()
            .map(|r| r - 1.0)
            .collect()
    }

    /// A normalised feature window for RL states: for each asset and OHLC
    /// feature, the `z` most recent values ending at day `t`, divided by the
    /// asset's closing price on day `t` and shifted by −1 (so values hover
    /// around zero). Layout `[m, d, z]`, row-major.
    ///
    /// # Panics
    /// Panics when fewer than `z` days of history exist at `t`.
    pub fn normalized_window(&self, t: usize, z: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_assets * NUM_FEATURES * z);
        self.for_each_normalized(t, z, |v| out.push(v));
        out
    }

    /// Calls `visit` with each value of
    /// [`AssetPanel::normalized_window`], in its `[m, d, z]` order,
    /// without building the vector.
    ///
    /// # Panics
    /// Panics when fewer than `z` days of history exist at `t`.
    pub fn for_each_normalized(&self, t: usize, z: usize, mut visit: impl FnMut(f64)) {
        assert!(
            t + 1 >= z,
            "normalized_window: need {z} days of history at t={t}"
        );
        assert!(t < self.num_days, "normalized_window: t out of range");
        for i in 0..self.num_assets {
            let anchor = self.close(t, i);
            for f in [Feature::Open, Feature::High, Feature::Low, Feature::Close] {
                for s in 0..z {
                    let day = t + 1 - z + s;
                    visit(self.price(day, i, f) / anchor - 1.0);
                }
            }
        }
    }

    /// The closing-price series of asset `i` over `[t+1−z, t]`.
    pub fn close_window(&self, t: usize, i: usize, z: usize) -> Vec<f64> {
        assert!(
            t + 1 >= z,
            "close_window: need {z} days of history at t={t}"
        );
        (t + 1 - z..=t).map(|day| self.close(day, i)).collect()
    }

    /// Equal-weight buy-and-hold index over the whole panel, normalised to
    /// 1.0 on day 0 — the "Market" row of Table III.
    pub fn index_curve(&self) -> Vec<f64> {
        let base = self.closes(0);
        (0..self.num_days)
            .map(|t| {
                let closes = self.closes(t);
                closes.iter().zip(&base).map(|(c, b)| c / b).sum::<f64>() / self.num_assets as f64
            })
            .collect()
    }
}

/// Placeholder asset names `A000, A001, …`.
fn default_asset_names(num_assets: usize) -> Vec<String> {
    (0..num_assets).map(|i| format!("A{i:03}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_panel() -> AssetPanel {
        // 3 days, 2 assets: closes asset0 = 10, 11, 12.1 ; asset1 = 20, 19, 19.
        let mut data = Vec::new();
        let closes = [[10.0, 20.0], [11.0, 19.0], [12.1, 19.0]];
        for day in &closes {
            for &c in day {
                data.extend_from_slice(&[c * 0.99, c * 1.01, c * 0.98, c]);
            }
        }
        AssetPanel::new("tiny", 3, 2, data, 2)
    }

    #[test]
    fn accessors() {
        let p = tiny_panel();
        assert_eq!(p.num_days(), 3);
        assert_eq!(p.num_assets(), 2);
        assert_eq!(p.close(1, 0), 11.0);
        assert_eq!(p.price(1, 1, Feature::High), 19.0 * 1.01);
        assert_eq!(p.test_start(), 2);
    }

    #[test]
    fn price_relatives_match_hand_computation() {
        let p = tiny_panel();
        let r = p.price_relatives(1);
        assert!((r[0] - 1.1).abs() < 1e-12);
        assert!((r[1] - 0.95).abs() < 1e-12);
        let g = p.growth_ratios(2);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!(g[1].abs() < 1e-12);
    }

    #[test]
    fn normalized_window_layout_and_anchor() {
        let p = tiny_panel();
        let w = p.normalized_window(2, 2);
        assert_eq!(w.len(), 2 * NUM_FEATURES * 2);
        // Asset 0, Close feature, last slot = close(2)/close(2) - 1 = 0.
        let close_row_start = (Feature::Close as usize) * 2; // asset 0 row
        assert!((w[close_row_start + 1]).abs() < 1e-12);
        // Previous close: 11 / 12.1 - 1.
        assert!((w[close_row_start] - (11.0 / 12.1 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn index_curve_starts_at_one() {
        let p = tiny_panel();
        let idx = p.index_curve();
        assert!((idx[0] - 1.0).abs() < 1e-12);
        // Day 1: (11/10 + 19/20)/2 = (1.1 + 0.95)/2
        assert!((idx[1] - 1.025).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_prices() {
        let _ = AssetPanel::new("bad", 2, 1, vec![1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0], 1);
    }

    fn day_rows(p: &AssetPanel) -> Vec<Vec<f64>> {
        let width = p.num_assets() * NUM_FEATURES;
        p.as_slice().chunks(width).map(<[f64]>::to_vec).collect()
    }

    #[test]
    fn panels_grow_and_shrink_in_place() {
        let p = tiny_panel();
        let rows = day_rows(&p);
        let mut grown = AssetPanel::try_from_days("tiny", 2, &rows[..2]).unwrap();
        grown.try_push_days(&rows[2..]).unwrap();
        assert_eq!(grown.num_days(), 3);
        assert_eq!(grown.as_slice(), p.as_slice());
        grown.drop_front_days(1);
        assert_eq!(grown.num_days(), 2);
        assert_eq!(grown.test_start(), 0);
        assert_eq!(grown.close(0, 0), 11.0);
        assert_eq!(grown.as_slice(), &p.as_slice()[8..]);
    }

    #[test]
    fn a_bad_row_leaves_the_panel_untouched() {
        let p = tiny_panel();
        let mut rows = day_rows(&p);
        let mut panel = AssetPanel::try_from_days("tiny", 2, &rows[..2]).unwrap();
        let before = panel.as_slice().to_vec();
        rows[2][5] = f64::NAN;
        let err = panel.try_push_days(&rows[1..]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "day 1: prices must be positive and finite, got NaN"
        );
        let err = panel.try_push_days(&[vec![1.0; 3]]).unwrap_err();
        assert_eq!(
            err.to_string(),
            "day 0: expected 8 values (2 assets × 4 OHLC), got 3"
        );
        assert_eq!(panel.num_days(), 2);
        assert_eq!(panel.as_slice(), &before[..]);
        assert!(matches!(
            AssetPanel::try_from_days("one", 2, &rows[..1]),
            Err(PanelError::Empty(_))
        ));
    }

    #[test]
    fn close_window_is_chronological() {
        let p = tiny_panel();
        assert_eq!(p.close_window(2, 0, 3), vec![10.0, 11.0, 12.1]);
    }
}
