//! Inference-only decision path: a frozen, shareable model for serving.
//!
//! Training needs mutable state everywhere — an RNG stream for
//! exploration, Adam moments, the environment, the supervisor. Serving
//! needs none of that: evaluation decisions are deterministic mean
//! actions, so a trained checkpoint can be loaded once into an immutable
//! [`DecisionModel`] and shared (`Arc<DecisionModel>`) across any number
//! of request threads. The only per-caller mutable state is the sliding
//! [`HorizonWindowCache`] and each policy's previous action, which live
//! with the caller (one per serving session), not with the model.
//!
//! [`DecisionModel::decide`] is **bitwise identical** to
//! [`CrossInsightTrader::decide`] with `stochastic = false` on the same
//! window — both run the same forward graphs on the same parameters —
//! which is what makes served decisions provably equal to offline
//! backtests of the same checkpoint (enforced by a parity test below and
//! end-to-end by `crates/serve/tests/roundtrip.rs`).

use crate::actor::{one_hot, CitActor};
use crate::config::CitConfig;
use crate::decomposition::HorizonWindowCache;
use crate::error::CitError;
#[cfg(doc)]
use crate::trainer::CrossInsightTrader;
use crate::trainer::{build_networks, temperature_action, Networks};
use cit_market::AssetPanel;
use cit_nn::{serialize, ParamStore};
use cit_tensor::GraphPool;
use std::path::Path;

/// A frozen cross-insight trader for inference: parameters plus the actor
/// networks, no optimiser, no RNG, no environment.
///
/// The model is `Send + Sync`; [`DecisionModel::decide`] takes `&self`, so
/// one instance behind an `Arc` serves concurrent requests without locks.
/// Graph arenas are recycled through an internal thread-safe
/// [`GraphPool`].
///
/// ```no_run
/// use cit_core::{CitConfig, DecisionModel};
///
/// let model = DecisionModel::from_checkpoint("run.cit", CitConfig::default(), 9)?;
/// let mut cache = model.new_cache();
/// let prev = model.uniform_prev_actions();
/// // panel: any AssetPanel holding >= cfg.window days ending at day t.
/// # let panel = cit_market::SynthConfig::default().generate();
/// let out = model.decide(&panel, panel.num_days() - 1, &prev, &mut cache);
/// assert!((out.final_action.iter().sum::<f64>() - 1.0).abs() < 1e-6);
/// # Ok::<(), cit_core::CitError>(())
/// ```
pub struct DecisionModel {
    cfg: CitConfig,
    num_assets: usize,
    store: ParamStore,
    horizon_actors: Vec<CitActor>,
    cross_actor: CitActor,
    pool: GraphPool,
}

/// Everything one deterministic inference pass produces.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceOutput {
    /// Per-horizon pre-decisions `a^k = softmax(τ·μ^k)`.
    pub pre_actions: Vec<Vec<f64>>,
    /// The fused portfolio `ã = softmax(τ·μ̃)` to execute.
    pub final_action: Vec<f64>,
}

impl DecisionModel {
    /// Builds an untrained model (fresh seeded initialisation) — mainly
    /// useful for tests and warm-up benchmarks.
    pub fn untrained(cfg: CitConfig, num_assets: usize) -> Result<Self, CitError> {
        // Serving goes through here (from_checkpoint included): make sure
        // the kernel autotuner is active before the first decide.
        cit_compute::autotune::ensure_installed();
        let Networks {
            store,
            horizon_actors,
            cross_actor,
            ..
        } = build_networks(&cfg, num_assets)?;
        Ok(DecisionModel {
            cfg,
            num_assets,
            store,
            horizon_actors,
            cross_actor,
            pool: GraphPool::new(),
        })
    }

    /// Loads a checkpoint written by [`CrossInsightTrader::save`] (v1 or
    /// v2) into a frozen inference model. Any training state the file
    /// carries (optimiser moments, RNG, trainer progress) is ignored —
    /// only the parameters matter here.
    ///
    /// `cfg` and `num_assets` must describe the architecture the
    /// checkpoint was trained with; a mismatch surfaces as a typed
    /// [`CitError::Checkpoint`] naming the offending parameter.
    pub fn from_checkpoint(
        path: impl AsRef<Path>,
        cfg: CitConfig,
        num_assets: usize,
    ) -> Result<Self, CitError> {
        let mut model = Self::untrained(cfg, num_assets)?;
        serialize::load(&mut model.store, path)?;
        Ok(model)
    }

    /// The configuration in force.
    pub fn config(&self) -> &CitConfig {
        &self.cfg
    }

    /// Number of assets `m` the model allocates portfolios over.
    pub fn num_assets(&self) -> usize {
        self.num_assets
    }

    /// Total parameters held by the frozen store.
    pub fn num_params(&self) -> usize {
        self.store.num_elements()
    }

    /// Days of price history a caller must supply before the first
    /// decision (the look-back window `z`).
    pub fn min_history(&self) -> usize {
        self.cfg.window
    }

    /// A fresh sliding-window DWT cache sized for this model. Each
    /// serving session owns one; it is the only mutable inference state
    /// besides the previous actions.
    pub fn new_cache(&self) -> HorizonWindowCache {
        HorizonWindowCache::new(self.num_assets, self.cfg.window, self.cfg.num_policies)
    }

    /// The uniform previous-action set every fresh session starts from —
    /// the same initial state [`CrossInsightTrader`] evaluation uses.
    pub fn uniform_prev_actions(&self) -> Vec<Vec<f64>> {
        let m = self.num_assets;
        vec![vec![1.0 / m as f64; m]; self.cfg.num_policies]
    }

    /// One deterministic decision at day `t` of `panel`.
    ///
    /// `prev_actions` holds each horizon policy's previous pre-decision
    /// (start from [`DecisionModel::uniform_prev_actions`], then feed back
    /// `pre_actions` of the previous output); `cache` is the session's
    /// [`HorizonWindowCache`]. Requires `t + 1 >= window` days of history.
    ///
    /// # Panics
    /// Panics when the panel's asset count does not match the model or
    /// fewer than `window` days of history exist at `t`.
    pub fn decide(
        &self,
        panel: &AssetPanel,
        t: usize,
        prev_actions: &[Vec<f64>],
        cache: &mut HorizonWindowCache,
    ) -> InferenceOutput {
        assert_eq!(
            panel.num_assets(),
            self.num_assets,
            "DecisionModel::decide: panel has {} assets, model has {}",
            panel.num_assets(),
            self.num_assets
        );
        let n = self.cfg.num_policies;
        assert_eq!(prev_actions.len(), n, "need one previous action per policy");
        let (windows, raw) = cache.inputs(panel, t);
        let mut pre_actions = Vec::with_capacity(n);
        for (k, window) in windows.iter().enumerate() {
            let mut extra = one_hot(k, n);
            extra.extend(prev_actions[k].iter().map(|&v| v as f32));
            let mean =
                self.horizon_actors[k].mean_numeric_in(&self.store, &self.pool, window, &extra);
            pre_actions.push(temperature_action(&mean, self.cfg.action_temperature));
        }
        let cross_extra: Vec<f32> = pre_actions
            .iter()
            .flat_map(|a| a.iter().map(|&v| v as f32))
            .collect();
        let cross_mean =
            self.cross_actor
                .mean_numeric_in(&self.store, &self.pool, raw, &cross_extra);
        let final_action = temperature_action(&cross_mean, self.cfg.action_temperature);
        InferenceOutput {
            pre_actions,
            final_action,
        }
    }
}

// The whole point of the type: shareable across request threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DecisionModel>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::CrossInsightTrader;
    use cit_market::SynthConfig;

    fn panel() -> AssetPanel {
        SynthConfig {
            num_assets: 3,
            num_days: 220,
            test_start: 160,
            ..Default::default()
        }
        .generate()
    }

    /// The serving contract: a checkpoint round-tripped through
    /// `DecisionModel` decides bitwise-identically to the trained trader's
    /// deterministic evaluation path, over a whole prev-action-carrying
    /// sweep.
    #[test]
    fn decisions_match_trainer_bitwise() {
        let p = panel();
        let cfg = CitConfig::smoke(11);
        let mut trader = CrossInsightTrader::new(&p, cfg);
        trader.train(&p);
        let dir = std::env::temp_dir().join(format!("cit_inference_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("parity.cit");
        trader.save(&ckpt).unwrap();

        let model = DecisionModel::from_checkpoint(&ckpt, cfg, 3).unwrap();
        let mut cache = model.new_cache();
        let mut prev_model = model.uniform_prev_actions();
        let mut prev_trader = model.uniform_prev_actions();
        for t in p.test_start()..p.test_start() + 20 {
            let served = model.decide(&p, t, &prev_model, &mut cache);
            let offline = trader.decide(&p, t, &prev_trader, false);
            assert_eq!(
                served.final_action, offline.final_action,
                "final action diverged at t={t}"
            );
            assert_eq!(
                served.pre_actions, offline.pre_actions,
                "pre-decisions diverged at t={t}"
            );
            prev_model = served.pre_actions;
            prev_trader = offline.pre_actions.clone();
        }
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn untrained_model_produces_valid_portfolios() {
        let p = panel();
        let cfg = CitConfig::smoke(3);
        let model = DecisionModel::untrained(cfg, 3).unwrap();
        let mut cache = model.new_cache();
        let out = model.decide(&p, 100, &model.uniform_prev_actions(), &mut cache);
        assert_eq!(out.pre_actions.len(), cfg.num_policies);
        for a in out
            .pre_actions
            .iter()
            .chain(std::iter::once(&out.final_action))
        {
            assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            assert!(a.iter().all(|w| w.is_finite() && *w >= 0.0));
        }
    }

    #[test]
    fn mismatched_checkpoint_is_a_typed_error() {
        let p = panel();
        let cfg = CitConfig::smoke(4);
        let mut trader = CrossInsightTrader::new(&p, cfg);
        trader.train(&p);
        let dir = std::env::temp_dir().join(format!("cit_inference_mm_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("mismatch.cit");
        trader.save(&ckpt).unwrap();
        // Wrong asset count: shapes cannot match.
        let err = match DecisionModel::from_checkpoint(&ckpt, cfg, 4) {
            Err(e) => e,
            Ok(_) => panic!("mismatched checkpoint must not load"),
        };
        assert!(matches!(err, CitError::Checkpoint(_)), "{err}");
        std::fs::remove_file(&ckpt).ok();
    }

    #[test]
    fn bad_config_is_rejected() {
        let mut cfg = CitConfig::smoke(5);
        cfg.num_policies = 0;
        assert!(matches!(
            DecisionModel::untrained(cfg, 3),
            Err(CitError::Config(_))
        ));
    }
}
