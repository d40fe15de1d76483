//! # cit-bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md §4 for the experiment index) plus criterion
//! micro-benchmarks. Each binary accepts `--scale smoke|paper` and
//! `--seed <u64>`, prints the paper-style table to stdout and writes CSV
//! series under `results/`. Checkpoint-aware binaries (`table3`, `table4`)
//! additionally accept `--resume`: CIT trainings then auto-checkpoint
//! under `results/checkpoints/` and a restarted run continues from the
//! last checkpoint bit-identically instead of retraining from scratch.

#![deny(missing_docs)]

use cit_core::{CitConfig, CrossInsightTrader};
use cit_faults::FaultInjector;
use cit_market::{
    assess_panel, market_result, run_test_period_with, AssetPanel, BacktestResult, EnvConfig,
    MarketPreset, QualityConfig,
};
use cit_online::{Crp, Eg, Olmar, Ons, UniversalPortfolio};
use cit_rl::{
    A2c, Ddpg, DdpgConfig, DeepTrader, Eiie, MetaTrader, MetaTraderConfig, Ppo, PpoConfig,
    RlConfig, Sarl,
};
use cit_telemetry::{FilterSink, JsonlSink, MultiSink, Record, StderrSink, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny panels and step counts: finishes in seconds, for CI.
    Smoke,
    /// The scale recorded in EXPERIMENTS.md (markets shrunk 4× in assets
    /// and 2× in days relative to the paper; see DESIGN.md §2).
    Paper,
}

impl Scale {
    /// Parses `--scale` and `--seed` from command-line arguments
    /// (defaults: paper, 42). Binaries that also honour `--resume` use
    /// [`BenchOpts::from_args`] instead.
    pub fn from_args() -> (Scale, u64) {
        let opts = BenchOpts::from_args();
        assert!(
            !opts.resume,
            "--resume is not supported by this binary (only table3/table4 checkpoint)"
        );
        (opts.scale, opts.seed)
    }
}

/// Parsed command-line options of an experiment binary.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    /// Experiment scale (`--scale smoke|paper`, default paper).
    pub scale: Scale,
    /// RNG seed (`--seed <u64>`, default 42).
    pub seed: u64,
    /// Checkpoint/resume mode (`--resume`): CIT trainings auto-checkpoint
    /// under `results/checkpoints/` and continue from an existing
    /// checkpoint instead of retraining from scratch.
    pub resume: bool,
}

impl BenchOpts {
    /// Parses `--scale`, `--seed` and `--resume` from the command line.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut opts = BenchOpts {
            scale: Scale::Paper,
            seed: 42,
            resume: false,
        };
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" if i + 1 < args.len() => {
                    opts.scale = match args[i + 1].as_str() {
                        "smoke" => Scale::Smoke,
                        "paper" => Scale::Paper,
                        other => panic!("unknown scale {other}; use smoke|paper"),
                    };
                    i += 2;
                }
                "--seed" if i + 1 < args.len() => {
                    opts.seed = args[i + 1].parse().expect("--seed takes a u64");
                    i += 2;
                }
                "--resume" => {
                    opts.resume = true;
                    i += 1;
                }
                other => {
                    panic!("unknown argument {other}; supported: --scale, --seed, --resume")
                }
            }
        }
        opts
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scale::Smoke => write!(f, "smoke"),
            Scale::Paper => write!(f, "paper"),
        }
    }
}

/// The shared diagnostics handle of an experiment binary: progress lines
/// go to stderr (pretty one-liners), while the full record stream — run
/// manifest, per-update training diagnostics, per-step backtest records
/// and span-timing snapshots — lands in `results/<experiment>_run.jsonl`.
///
/// Falls back to stderr-only when the JSONL file cannot be created.
pub fn experiment_telemetry(experiment: &str, scale: Scale, seed: u64) -> Telemetry {
    let stderr = Arc::new(FilterSink::new(Arc::new(StderrSink), &["progress", "run."]));
    let path = out_dir().join(format!("{experiment}_run.jsonl"));
    let tel = match JsonlSink::create(&path) {
        Ok(jsonl) => Telemetry::new(Arc::new(MultiSink::new(vec![stderr, Arc::new(jsonl)]))),
        Err(err) => {
            eprintln!(
                "warning: cannot write {}: {err}; stderr telemetry only",
                path.display()
            );
            Telemetry::new(stderr)
        }
    };
    tel.emit(
        Record::new("run.start")
            .with("experiment", experiment)
            .with("scale", scale.to_string())
            .with("seed", seed)
            .with("autotune_host", cit_compute::autotune::host_key())
            .with("simd_level", cit_compute::autotune::simd_level()),
    );
    tel
}

/// Closes out an experiment run: emits a `run.end` marker, dumps every
/// metric/span-histogram snapshot into the record stream and flushes.
pub fn finish_run(telemetry: &Telemetry) {
    telemetry.emit(Record::new("run.end"));
    telemetry.report();
}

/// Resolves the ambient fault plan (the `CIT_FAULT_PLAN` environment
/// variable) into an injector for chaos smoke tests. Unset → disabled
/// (zero-cost no-op injection points); an unreadable or malformed plan
/// file warns on `telemetry` and stays disabled rather than aborting the
/// experiment.
pub fn chaos_injector(telemetry: &Telemetry) -> FaultInjector {
    match FaultInjector::from_env() {
        Ok(inj) => {
            if inj.is_enabled() {
                telemetry.progress(format!(
                    "chaos: fault plan active (seed {})",
                    inj.seed().unwrap_or(0)
                ));
            }
            inj
        }
        Err(err) => {
            telemetry.progress(format!(
                "warning: ignoring {} fault plan: {err}",
                cit_faults::FAULT_PLAN_ENV
            ));
            FaultInjector::disabled()
        }
    }
}

/// Refuses to benchmark garbage: assesses every panel's data quality and
/// errors — naming the offending panels and assets — when any carries
/// unrepaired critical issues (non-finite/non-positive prices cannot occur
/// in a constructed [`AssetPanel`], so in practice this catches outlier
/// returns that would corrupt the paper's metrics). Each report is also
/// emitted on `telemetry` as a `quality.report` record.
pub fn require_clean_panels(panels: &[AssetPanel], telemetry: &Telemetry) -> Result<(), String> {
    let cfg = QualityConfig::default();
    let mut offenders = Vec::new();
    for p in panels {
        let report = assess_panel(p, &cfg);
        report.emit(telemetry);
        if report.has_critical() {
            offenders.push(format!(
                "{} ({}; assets: {})",
                p.name(),
                report.summary(),
                report.offending_assets().join(", ")
            ));
        }
    }
    if offenders.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "panel quality guard: unrepaired critical issues in {}",
            offenders.join("; ")
        ))
    }
}

/// Generates the three market panels at the given scale.
pub fn panels(scale: Scale) -> Vec<AssetPanel> {
    MarketPreset::ALL
        .iter()
        .map(|p| match scale {
            Scale::Smoke => p.scaled(10, 24).generate(),
            Scale::Paper => p.scaled(4, 2).generate(),
        })
        .collect()
}

/// The environment configuration used by all experiments.
pub fn env_config(scale: Scale) -> EnvConfig {
    EnvConfig {
        window: window(scale),
        transaction_cost: 1e-3,
    }
}

/// Look-back window per scale.
pub fn window(_scale: Scale) -> usize {
    16
}

/// Base RL config per scale.
pub fn rl_config(scale: Scale, seed: u64) -> RlConfig {
    match scale {
        Scale::Smoke => RlConfig {
            total_steps: 300,
            window: window(scale),
            seed,
            ..RlConfig::smoke(seed)
        },
        Scale::Paper => RlConfig {
            total_steps: 2_500,
            window: window(scale),
            gamma: 0.9,
            lr: 5e-4,
            seed,
            ..RlConfig::default()
        },
    }
}

/// CIT config per scale (with the paper's best `n = 5` policies at paper
/// scale).
pub fn cit_config(scale: Scale, seed: u64) -> CitConfig {
    match scale {
        Scale::Smoke => CitConfig {
            window: window(scale),
            seed,
            ..CitConfig::smoke(seed)
        },
        Scale::Paper => CitConfig {
            num_policies: 5,
            window: window(scale),
            total_steps: 5_000,
            lr: 1e-3,
            gamma: 0.3,
            action_temperature: 4.0,
            init_log_std: -2.0,
            seed,
            ..CitConfig::default()
        },
    }
}

/// Trains + backtests one named model on a panel. Known names:
/// OLMAR, CRP, ONS, UP, EG, EIIE, A2C, DDPG, PPO, SARL, DeepTrader, CIT,
/// Market.
pub fn run_model(name: &str, panel: &AssetPanel, scale: Scale, seed: u64) -> BacktestResult {
    run_model_with(name, panel, scale, seed, &Telemetry::disabled())
}

/// [`run_model`] with diagnostics: the trained CIT model emits per-update
/// training records, and every backtest emits per-step portfolio records,
/// into `telemetry`.
pub fn run_model_with(
    name: &str,
    panel: &AssetPanel,
    scale: Scale,
    seed: u64,
    telemetry: &Telemetry,
) -> BacktestResult {
    let env = env_config(scale);
    let rl = rl_config(scale, seed);
    let tp = |strategy: &mut dyn cit_market::Strategy| {
        run_test_period_with(panel, env, strategy, telemetry)
    };
    match name {
        "OLMAR" => tp(&mut Olmar::default()),
        "CRP" => tp(&mut Crp),
        "ONS" => tp(&mut Ons::default()),
        "UP" => tp(&mut UniversalPortfolio::default()),
        "EG" => tp(&mut Eg::default()),
        "EIIE" => {
            let mut agent = Eiie::new(panel, rl);
            agent.train(panel);
            tp(&mut agent)
        }
        "A2C" => {
            let mut agent = A2c::new(panel, rl);
            agent.train(panel);
            tp(&mut agent)
        }
        "DDPG" => {
            let mut agent = Ddpg::new(
                panel,
                DdpgConfig {
                    base: rl,
                    ..Default::default()
                },
            );
            agent.train(panel);
            tp(&mut agent)
        }
        "PPO" => {
            let mut agent = Ppo::new(
                panel,
                PpoConfig {
                    base: rl,
                    ..Default::default()
                },
            );
            agent.train(panel);
            tp(&mut agent)
        }
        "SARL" => {
            let mut agent = Sarl::new(panel, rl);
            agent.train(panel);
            tp(&mut agent)
        }
        "DeepTrader" => {
            let mut agent = DeepTrader::new(panel, rl);
            agent.train(panel);
            tp(&mut agent)
        }
        "CIT" => {
            let mut trader = CrossInsightTrader::new(panel, cit_config(scale, seed))
                .with_telemetry(telemetry.clone())
                .with_faults(chaos_injector(telemetry));
            trader.train(panel);
            tp(&mut trader)
        }
        "MetaTrader" => {
            let mut agent = MetaTrader::new(
                panel,
                MetaTraderConfig {
                    base: rl,
                    ..Default::default()
                },
            );
            agent.train(panel);
            tp(&mut agent)
        }
        "Market" => market_result(panel, panel.test_start(), panel.num_days()),
        other => panic!("unknown model {other}"),
    }
}

/// Path of the CIT training checkpoint for one (experiment, market, seed)
/// triple, under `results/checkpoints/`.
pub fn checkpoint_path(experiment: &str, market: &str, seed: u64) -> PathBuf {
    out_dir()
        .join("checkpoints")
        .join(format!("{experiment}_{market}_s{seed}.cit"))
}

/// [`run_model_with`], plus crash-safe checkpointing for the CIT model:
/// when `checkpoint` is `Some`, training auto-saves its full state there
/// every few updates and a final checkpoint on completion, and an existing
/// (non-corrupt) file is loaded first so an interrupted or finished run
/// continues bit-identically instead of starting over. Other models ignore
/// `checkpoint`.
pub fn run_model_ckpt(
    name: &str,
    panel: &AssetPanel,
    scale: Scale,
    seed: u64,
    telemetry: &Telemetry,
    checkpoint: Option<&std::path::Path>,
) -> BacktestResult {
    let Some(path) = checkpoint.filter(|_| name == "CIT") else {
        return run_model_with(name, panel, scale, seed, telemetry);
    };
    let mut cfg = cit_config(scale, seed);
    if cfg.checkpoint_every == 0 {
        cfg.checkpoint_every = 10;
    }
    let fresh = || {
        CrossInsightTrader::new(panel, cfg)
            .with_telemetry(telemetry.clone())
            .with_faults(chaos_injector(telemetry))
            .with_checkpoint(path)
    };
    let mut trader = fresh();
    if path.exists() {
        if let Err(err) = trader.load(path) {
            telemetry.progress(format!(
                "checkpoint {} unusable ({err}); retraining from scratch",
                path.display()
            ));
            trader = fresh();
        }
    }
    trader.train(panel);
    if let Err(err) = trader.save(path) {
        telemetry.progress(format!(
            "warning: final checkpoint {} not written: {err}",
            path.display()
        ));
    }
    run_test_period_with(panel, env_config(scale), &mut trader, telemetry)
}

/// Runs one model across several seeds and returns per-seed metrics plus
/// the mean and standard deviation of each metric — the paper averages over
/// 5 random initialisations.
pub fn run_model_seeds(
    name: &str,
    panel: &AssetPanel,
    scale: Scale,
    seeds: &[u64],
) -> (
    Vec<cit_market::Metrics>,
    cit_market::Metrics,
    cit_market::Metrics,
) {
    assert!(!seeds.is_empty(), "need at least one seed");
    let per_seed: Vec<cit_market::Metrics> = seeds
        .iter()
        .map(|&s| run_model(name, panel, scale, s).metrics)
        .collect();
    let n = per_seed.len() as f64;
    let mean = cit_market::Metrics {
        ar: per_seed.iter().map(|m| m.ar).sum::<f64>() / n,
        sr: per_seed.iter().map(|m| m.sr).sum::<f64>() / n,
        mdd: per_seed.iter().map(|m| m.mdd).sum::<f64>() / n,
        cr: per_seed.iter().map(|m| m.cr).sum::<f64>() / n,
    };
    let var = |f: fn(&cit_market::Metrics) -> f64, mu: f64| {
        (per_seed
            .iter()
            .map(|m| (f(m) - mu) * (f(m) - mu))
            .sum::<f64>()
            / n)
            .sqrt()
    };
    let std = cit_market::Metrics {
        ar: var(|m| m.ar, mean.ar),
        sr: var(|m| m.sr, mean.sr),
        mdd: var(|m| m.mdd, mean.mdd),
        cr: var(|m| m.cr, mean.cr),
    };
    (per_seed, mean, std)
}

/// Prints a paper-style metrics table: one row per model, AR/SR/CR columns
/// per market.
pub fn print_metric_table(markets: &[&str], rows: &[(String, Vec<cit_market::Metrics>)]) {
    print!("{:<12}", "Model");
    for m in markets {
        print!(" | {m:^23}");
    }
    println!();
    print!("{:<12}", "");
    for _ in markets {
        print!(" | {:>7} {:>7} {:>7}", "AR", "SR", "CR");
    }
    println!();
    println!("{}", "-".repeat(12 + markets.len() * 26));
    for (name, metrics) in rows {
        print!("{name:<12}");
        for met in metrics {
            print!(" | {:>7.2} {:>7.2} {:>7.2}", met.ar, met.sr, met.cr);
        }
        println!();
    }
}

/// The output directory for experiment CSVs.
pub fn out_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Writes labelled series to `results/<file>` and reports the path.
pub fn save_series(file: &str, series: &[(String, Vec<f64>)]) {
    let path = out_dir().join(file);
    let csv = cit_market::series_to_csv(series);
    cit_market::save(&path, &csv).expect("write results CSV");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_have_preset_structure() {
        let ps = panels(Scale::Smoke);
        assert_eq!(ps.len(), 3);
        assert!(ps[0].num_assets() >= ps[1].num_assets());
        assert!(ps[1].num_assets() >= ps[2].num_assets());
    }

    #[test]
    fn online_models_run_at_smoke_scale() {
        let p = &panels(Scale::Smoke)[2];
        for name in ["OLMAR", "CRP", "ONS", "UP", "EG", "Market"] {
            let r = run_model(name, p, Scale::Smoke, 1);
            assert!(r.metrics.mdd <= 1.0, "{name}");
        }
    }

    #[test]
    fn preset_panels_pass_the_quality_guard() {
        for scale in [Scale::Smoke, Scale::Paper] {
            let ps = panels(scale);
            require_clean_panels(&ps, &Telemetry::disabled())
                .unwrap_or_else(|e| panic!("{scale} presets must be clean: {e}"));
        }
    }

    #[test]
    fn quality_guard_names_dirty_panels() {
        // An outlier day the guard must catch (constructed panels cannot
        // hold non-finite prices, so outliers are the reachable critical).
        let mut data = Vec::new();
        for t in 0..40usize {
            let c = if t == 20 {
                500.0
            } else {
                10.0 + t as f64 * 0.01
            };
            data.extend_from_slice(&[c, c * 1.01, c * 0.99, c]);
        }
        let panel = AssetPanel::new("DIRTY", 40, 1, data, 30);
        let err = require_clean_panels(std::slice::from_ref(&panel), &Telemetry::disabled())
            .expect_err("outlier day must trip the guard");
        assert!(err.contains("DIRTY"), "{err}");
        assert!(err.contains("A000"), "{err}");
    }

    #[test]
    #[should_panic(expected = "unknown model")]
    fn unknown_model_panics() {
        let p = &panels(Scale::Smoke)[2];
        let _ = run_model("nope", p, Scale::Smoke, 1);
    }

    #[test]
    fn cit_checkpoint_resume_reproduces_backtest() {
        let p = &panels(Scale::Smoke)[2];
        let mut path = std::env::temp_dir();
        path.push(format!("cit_bench_ckpt_{}.cit", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // First run trains from scratch and leaves a final checkpoint.
        let a = run_model_ckpt(
            "CIT",
            p,
            Scale::Smoke,
            3,
            &Telemetry::disabled(),
            Some(&path),
        );
        assert!(path.exists(), "final checkpoint written");
        // Second run resumes from the completed checkpoint (no retraining)
        // and must reproduce the backtest bitwise.
        let b = run_model_ckpt(
            "CIT",
            p,
            Scale::Smoke,
            3,
            &Telemetry::disabled(),
            Some(&path),
        );
        assert_eq!(a.wealth, b.wealth, "resumed backtest must match bitwise");
        let _ = std::fs::remove_file(&path);
    }
}
