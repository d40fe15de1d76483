//! Workload inputs, all derived from the workload seed: the market panel,
//! the paper-scale model configuration, the served checkpoint, and the
//! scratch directory runs write into.

use cit_core::{CitConfig, CrossInsightTrader, DecisionModel};
use cit_market::{AssetPanel, Feature, SynthConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Assets in every workload's panel.
pub const ASSETS: usize = 11;

const FEATURES: [Feature; 4] = [Feature::Open, Feature::High, Feature::Low, Feature::Close];

/// Worker threads the machine offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits one seed into independent streams (splitmix64 finaliser).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An 11-asset synthetic market of `days` days (the last eighth is the
/// test period the trainer never sees).
pub fn panel(seed: u64, days: usize) -> AssetPanel {
    SynthConfig {
        num_assets: ASSETS,
        num_days: days,
        test_start: days - days / 8,
        seed: derive(seed, 1),
        ..Default::default()
    }
    .generate()
}

/// The paper-scale model: `CitConfig::default()` (n = 5, z = 32,
/// TCN + attention, counterfactual critic) with the workload seed and one
/// worker per core.
pub fn config(seed: u64) -> CitConfig {
    CitConfig {
        seed: derive(seed, 2),
        threads: nproc(),
        ..CitConfig::default()
    }
}

/// OHLC rows `[from, to)` of `panel`, one `[m·4]` row per day — the wire
/// format of `open` and `decide`.
pub fn rows(panel: &AssetPanel, from: usize, to: usize) -> Vec<Vec<f64>> {
    (from..to)
        .map(|t| {
            (0..panel.num_assets())
                .flat_map(|i| FEATURES.iter().map(move |&f| panel.price(t, i, f)))
                .collect()
        })
        .collect()
}

/// Saves a seeded, untrained trader as the served checkpoint in `dir`
/// (input preparation, not part of set-up). Compute cost does not depend
/// on the weights.
pub fn save_checkpoint(seed: u64, dir: &Path) -> Result<PathBuf, String> {
    let trader =
        CrossInsightTrader::try_new(&panel(seed, 64), config(seed)).map_err(|e| e.to_string())?;
    let path = dir.join("model.cit");
    trader.save(&path).map_err(|e| e.to_string())?;
    Ok(path)
}

/// Loads the served checkpoint the way `cit-serve` loads one.
pub fn load_model(path: &Path, seed: u64) -> Result<DecisionModel, String> {
    DecisionModel::from_checkpoint(path, config(seed), ASSETS).map_err(|e| e.to_string())
}

/// Runs `setup` `times` times and keeps the last result; returns it with
/// the interquartile mean of the set-up times in seconds. Earlier results
/// are dropped (and with them any server they started) before the next
/// repetition.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        drop(kept.take());
        let start = Instant::now();
        let value = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        kept = Some(value);
    }
    let kept = kept.ok_or("set-up never ran")?;
    Ok((kept, crate::stats::interquartile_mean(&secs)))
}

/// A per-run scratch directory inside the benchmark's own directory,
/// removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".tmp")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
