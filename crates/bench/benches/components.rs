//! Micro-benchmarks for every performance-relevant component, including
//! the ablation benches called out in DESIGN.md §5: autodiff overhead,
//! DWT decomposition, TCN/attention forward+backward, environment
//! stepping, and short cross-insight training bursts per critic mode.
//!
//! The harness is hand-rolled (`harness = false`): the build resolves
//! offline, so criterion is unavailable. Each bench is calibrated to a
//! minimum measurement window, the best-of-rounds ns/iter is printed to
//! stdout, and a machine-readable `bench.result` record per bench lands
//! in `results/components_bench_run.jsonl` via `cit-telemetry`.

use cit_bench::{experiment_telemetry, finish_run, Scale};
use cit_core::{horizon_windows, raw_window, CitConfig, CrossInsightTrader};
use cit_dwt::{decompose, horizon_scales, reconstruct, SlidingDwt};
use cit_market::{DecisionContext, EnvConfig, PortfolioEnv, Strategy, SynthConfig};
use cit_nn::{Ctx, ParamStore, SpatialAttention, Tcn};
use cit_online::{Olmar, Rmr};
use cit_telemetry::{Record, Telemetry};
use cit_tensor::kernels::{matmul_nn, matmul_nt, matmul_ref, matmul_tn};
use cit_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measurement rounds; the reported ns/iter is the fastest round.
const ROUNDS: usize = 5;

struct Harness {
    tel: Telemetry,
    /// `--quick` smoke mode: tiny measurement windows, kernel sections
    /// only — used by CI to assert the harness and the JSON manifest work.
    quick: bool,
    /// `(name, ns_per_iter)` of every completed bench, for the manifest.
    results: RefCell<Vec<(String, f64)>>,
}

impl Harness {
    fn new() -> Self {
        // `cargo bench` passes extra flags (e.g. `--bench`); only the
        // `--quick` switch is recognised, everything else is ignored.
        Harness {
            tel: experiment_telemetry("components_bench", Scale::Smoke, 0),
            quick: std::env::args().any(|a| a == "--quick"),
            results: RefCell::new(Vec::new()),
        }
    }

    /// Minimum timed window per measurement round.
    fn min_window(&self) -> Duration {
        if self.quick {
            Duration::from_micros(200)
        } else {
            Duration::from_millis(20)
        }
    }

    /// Times `f`, doubling the iteration count until one round fills the
    /// measurement window, then reports the fastest of [`ROUNDS`] rounds.
    fn bench(&self, name: &str, mut f: impl FnMut()) {
        let mut iters: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            if t0.elapsed() >= self.min_window() || iters >= 1 << 22 {
                break;
            }
            iters *= 2;
        }
        let rounds = if self.quick { 2 } else { ROUNDS };
        let mut best = Duration::MAX;
        for _ in 0..rounds {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            best = best.min(t0.elapsed());
        }
        self.report(name, iters, best.as_secs_f64() / iters as f64);
    }

    /// Times `routine` over fresh `setup()` state per batch (setup
    /// excluded from the measurement) — for stateful work like training
    /// bursts that cannot be repeated on the same value.
    fn bench_batched<T>(
        &self,
        name: &str,
        batches: usize,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T),
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..batches {
            let state = setup();
            let t0 = Instant::now();
            routine(state);
            total += t0.elapsed();
        }
        self.report(name, batches as u64, total.as_secs_f64() / batches as f64);
    }

    fn report(&self, name: &str, iters: u64, secs_per_iter: f64) {
        println!(
            "{name:<40} {:>14.1} ns/iter  ({iters} iters)",
            secs_per_iter * 1e9
        );
        self.results
            .borrow_mut()
            .push((name.to_string(), secs_per_iter * 1e9));
        self.tel.emit(
            Record::new("bench.result")
                .with("name", name)
                .with("iters", iters)
                .with("ns_per_iter", secs_per_iter * 1e9),
        );
    }

    fn result_ns(&self, name: &str) -> Option<f64> {
        self.results
            .borrow()
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, ns)| ns)
    }
}

fn panel() -> cit_market::AssetPanel {
    SynthConfig {
        num_assets: 10,
        num_days: 400,
        test_start: 320,
        ..Default::default()
    }
    .generate()
}

fn bench_dwt(h: &Harness) {
    let signal: Vec<f64> = (0..256)
        .map(|i| (i as f64 * 0.1).sin() + 0.01 * i as f64)
        .collect();
    h.bench("dwt/decompose_256_l4", || {
        black_box(decompose(black_box(&signal), 4));
    });
    let p = decompose(&signal, 4);
    h.bench("dwt/reconstruct_256_l4", || {
        black_box(reconstruct(black_box(&p)));
    });
    h.bench("dwt/horizon_scales_256_n5", || {
        black_box(horizon_scales(black_box(&signal), 5));
    });
}

fn bench_decomposition(h: &Harness) {
    let panel = panel();
    h.bench("decomposition/raw_window_m10_z32", || {
        black_box(raw_window(black_box(&panel), 300, 32));
    });
    h.bench("decomposition/horizon_windows_m10_z32_n5", || {
        black_box(horizon_windows(black_box(&panel), 300, 32, 5));
    });
}

fn bench_networks(h: &Harness) {
    let (m, f, z) = (10usize, 8usize, 32usize);
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let tcn = Tcn::new(&mut store, &mut rng, "t", 4, f, 3, 2);
    let att = SpatialAttention::new(&mut store, &mut rng, "a", m, f, z);
    let window = Tensor::ones(&[m, 4, z]);

    h.bench("networks/tcn_forward_m10_f8_z32", || {
        let mut ctx = Ctx::new(&store);
        let x = ctx.input(window.clone());
        let hid = tcn.forward(&mut ctx, x);
        black_box(ctx.g.value(hid).sum());
    });
    h.bench("networks/tcn_attention_forward_backward", || {
        let mut ctx = Ctx::new(&store);
        let x = ctx.input(window.clone());
        let hid = tcn.forward(&mut ctx, x);
        let hid = att.forward(&mut ctx, hid);
        let sq = ctx.g.mul(hid, hid);
        let loss = ctx.g.sum_all(sq);
        black_box(ctx.backward(loss).len());
    });
    // Ablation: graph-construction overhead vs plain tensor math.
    let a = Tensor::ones(&[64, 64]);
    let b = Tensor::ones(&[64, 64]);
    h.bench("networks/autodiff_matmul_64", || {
        let mut ctx = Ctx::new(&store);
        let av = ctx.input(a.clone());
        let bv = ctx.input(b.clone());
        let cvar = ctx.g.matmul(av, bv);
        black_box(ctx.g.value(cvar).sum());
    });
    h.bench("networks/plain_matmul_64", || {
        black_box(a.matmul(&b).sum());
    });
}

fn bench_env_and_strategies(h: &Harness) {
    let panel = panel();
    let cfg = EnvConfig {
        window: 32,
        transaction_cost: 1e-3,
    };
    h.bench_batched(
        "env/env_step_m10_x50",
        30,
        || PortfolioEnv::new(&panel, cfg, 40, 320),
        |mut env| {
            let a = vec![0.1f64; 10];
            for _ in 0..50 {
                black_box(env.step(&a).reward);
            }
        },
    );
    let mut olmar = Olmar::default();
    olmar.reset(10);
    let held = vec![0.1f64; 10];
    h.bench("env/olmar_decide_m10", || {
        let ctx = DecisionContext {
            panel: &panel,
            t: 200,
            prev_weights: &held,
            window: 32,
        };
        black_box(olmar.decide(&ctx));
    });
    let mut rmr = Rmr::default();
    rmr.reset(10);
    h.bench("env/rmr_decide_m10", || {
        let ctx = DecisionContext {
            panel: &panel,
            t: 200,
            prev_weights: &held,
            window: 32,
        };
        black_box(rmr.decide(&ctx));
    });
}

fn bench_cit(h: &Harness) {
    let panel = panel();
    let mut cfg = CitConfig::smoke(1);
    cfg.window = 16;
    cfg.num_policies = 3;
    let mut trader = CrossInsightTrader::new(&panel, cfg);
    let prev = vec![vec![0.1f64; 10]; 3];

    h.bench("cit/decide_n3_m10", || {
        black_box(trader.decide(&panel, 200, &prev, false).final_action.len());
    });
    // Ablation: marginal cost of the counterfactual mechanism, timed as a
    // short training burst per critic mode.
    for mode in [
        cit_core::CriticMode::Counterfactual,
        cit_core::CriticMode::SharedQ,
    ] {
        h.bench_batched(
            &format!("cit/train_burst_{}", mode.label()),
            5,
            || {
                let mut cfg = CitConfig::smoke(2);
                cfg.window = 16;
                cfg.num_policies = 3;
                cfg.total_steps = 32;
                cfg.critic_mode = mode;
                CrossInsightTrader::new(&panel, cfg)
            },
            |mut t| {
                black_box(t.train(&panel).steps);
            },
        );
    }
}

/// Deterministic pseudo-random fill for kernel inputs.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

/// Tiled kernels vs the textbook naive reference (`matmul_ref`), plus the
/// im2col conv path. Asserts every kernel output is finite — the `--quick`
/// CI smoke relies on this.
fn bench_kernels(h: &Harness) {
    let s = 128usize;
    let a = fill(s * s, 11);
    let b = fill(s * s, 23);
    h.bench("kernels/matmul_naive_ref_128", || {
        black_box(matmul_ref(s, s, s, black_box(&a), black_box(&b)));
    });
    h.bench("kernels/matmul_tiled_128", || {
        black_box(matmul_nn(s, s, s, black_box(&a), black_box(&b)));
    });
    h.bench("kernels/matmul_nt_tiled_128", || {
        black_box(matmul_nt(s, s, s, black_box(&a), black_box(&b)));
    });
    h.bench("kernels/matmul_tn_tiled_128", || {
        black_box(matmul_tn(s, s, s, black_box(&a), black_box(&b)));
    });
    let out = matmul_nn(s, s, s, &a, &b);
    assert!(
        out.iter().all(|v| v.is_finite()),
        "tiled matmul produced non-finite output"
    );

    // Conv1d forward+backward through the graph op (im2col path inside).
    let (n, cin, l, cout, k, dil) = (10usize, 8usize, 32usize, 8usize, 3usize, 2usize);
    let x = Tensor::from_vec(&[n, cin, l], fill(n * cin * l, 31));
    let w = Tensor::from_vec(&[cout, cin, k], fill(cout * cin * k, 37));
    let bias = Tensor::from_vec(&[cout], fill(cout, 41));
    h.bench("kernels/conv1d_im2col_fwd_10x8x32", || {
        let mut g = cit_tensor::Graph::new();
        let xv = g.input(x.clone());
        let wv = g.input(w.clone());
        let bv = g.input(bias.clone());
        let y = g.conv1d(xv, wv, bv, dil);
        black_box(g.value(y).sum());
    });
    h.bench("kernels/conv1d_im2col_fwd_bwd_10x8x32", || {
        let mut g = cit_tensor::Graph::new();
        let xv = g.param_leaf(x.clone());
        let wv = g.param_leaf(w.clone());
        let bv = g.param_leaf(bias.clone());
        let y = g.conv1d(xv, wv, bv, dil);
        let sq = g.mul(y, y);
        let loss = g.sum_all(sq);
        let grads = g.backward(loss);
        black_box(grads.wrt(wv).map(|t| t.sum()));
    });
    {
        let mut g = cit_tensor::Graph::new();
        let xv = g.input(x.clone());
        let wv = g.input(w.clone());
        let bv = g.input(bias.clone());
        let y = g.conv1d(xv, wv, bv, dil);
        assert!(
            g.value(y).all_finite(),
            "im2col conv produced non-finite output"
        );
    }
}

/// Cold full decomposition vs the warm sliding-window cache. The window is
/// long relative to the slide period (z = 256, period = 16), where the
/// incremental path recomputes only the coefficient/reconstruction tails.
fn bench_dwt_cache(h: &Harness) {
    let (z, n_scales) = (256usize, 5usize);
    let x: Vec<f64> = (0..z + 4096)
        .map(|i| {
            let t = i as f64;
            100.0 + 0.2 * t + 3.0 * (t * 0.37).sin() + 0.8 * (t * 1.7).cos()
        })
        .collect();
    let mut end = z - 1;
    h.bench("dwt_cache/horizon_scales_cold_z256_n5", || {
        end += 1;
        if end >= x.len() {
            end = z - 1;
        }
        let window = &x[end + 1 - z..=end];
        black_box(horizon_scales(black_box(window), n_scales));
    });
    let mut cache = SlidingDwt::new(z, n_scales);
    let mut end = z - 1;
    h.bench("dwt_cache/sliding_dwt_warm_z256_n5", || {
        end += 1;
        if end >= x.len() {
            end = z - 1;
        }
        let window = &x[end + 1 - z..=end];
        black_box(cache.scales_at(end, window).len());
    });
    let stats = cache.stats();
    assert!(
        stats.incremental > 0,
        "warm bench never hit the incremental path: {stats:?}"
    );
}

/// A training burst at paper-like scale, reporting the mean `train.step`
/// rollout-step span and the mean `train.update` span through telemetry.
fn bench_train_step(h: &Harness) {
    let panel = SynthConfig {
        num_assets: 11,
        num_days: 500,
        test_start: 420,
        ..Default::default()
    }
    .generate();
    let (tel, _sink) = Telemetry::memory();
    let cfg = CitConfig {
        seed: 42,
        threads: 0, // auto: honours CIT_THREADS
        total_steps: if h.quick { 32 } else { 512 },
        ..CitConfig::default()
    };
    let mut trader = CrossInsightTrader::new(&panel, cfg).with_telemetry(tel.clone());
    let t0 = Instant::now();
    let report = trader.train(&panel);
    let wall = t0.elapsed();
    assert!(
        report.update_rewards.iter().all(|r| r.is_finite()),
        "training burst produced non-finite rewards"
    );
    let steps = report.steps as f64;
    h.report(
        "train/env_step_paper_scale",
        report.steps as u64,
        wall.as_secs_f64() / steps,
    );
    for span in ["train.step", "train.update"] {
        let hist = tel.span_histogram(span);
        if hist.count() > 0 {
            h.report(&format!("train/span_{span}"), hist.count(), hist.mean());
        }
    }
    let stats = trader.dwt_stats();
    println!(
        "train/dwt_cache                          hits: memo {} incremental {} full {}",
        stats.memo_hits, stats.incremental, stats.full
    );
}

/// Pre-PR baselines measured at commit 6eac353 (same machine, release
/// profile) with the seed's naive kernels, scalar conv loops, uncached DWT
/// and joint single-threaded graph. `train.update`/env-step numbers come
/// from the identical 512-step paper-scale burst.
const BASELINE_6EAC353: [(&str, f64); 4] = [
    ("matmul_128_ns", 279_016.9),
    ("conv1d_fwd_bwd_10x8x32_ns", 255_887.2),
    ("train_env_step_ns", 6_007_000.0),
    ("train_update_span_ns", 192_205_000.0),
];

/// Transposed-layout baselines measured at commit 2300cc1 (same machine),
/// before the packed micro-kernel rewrite — the nt number is the 7×
/// anomaly the tiling-scheme work exists to fix.
const BASELINE_2300CC1: [(&str, f64); 2] = [
    ("matmul_128_nt_ns", 1_217_120.0),
    ("matmul_128_tn_ns", 212_188.5),
];

/// Writes `BENCH_compute.json` at the repository root: measured numbers,
/// the embedded pre-PR baseline, and derived speedups.
fn write_manifest(h: &Harness) {
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"cit-compute\",\n");
    json.push_str("  \"baseline_commit\": \"6eac353\",\n");
    json.push_str(&format!("  \"quick\": {},\n", h.quick));
    json.push_str(&format!(
        "  \"threads\": {},\n",
        cit_compute::threads_from_env()
    ));
    json.push_str(&format!(
        "  \"autotune_host\": \"{}\",\n",
        cit_compute::autotune::host_key()
    ));
    json.push_str(&format!(
        "  \"simd_level\": \"{}\",\n",
        cit_compute::autotune::simd_level()
    ));

    json.push_str("  \"results_ns\": {\n");
    let results = h.results.borrow();
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.1}{comma}\n"));
    }
    json.push_str("  },\n");

    json.push_str("  \"baseline_ns\": {\n");
    let baselines: Vec<(&str, f64)> = BASELINE_6EAC353
        .iter()
        .chain(BASELINE_2300CC1.iter())
        .copied()
        .collect();
    for (i, (name, ns)) in baselines.iter().enumerate() {
        let comma = if i + 1 < baselines.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ns:.1}{comma}\n"));
    }
    json.push_str("  },\n");

    let mut speedups: Vec<(String, f64)> = Vec::new();
    let mut push_ratio = |label: &str, num: Option<f64>, den: Option<f64>| {
        if let (Some(n), Some(d)) = (num, den) {
            if d > 0.0 {
                speedups.push((label.to_string(), n / d));
            }
        }
    };
    push_ratio(
        "matmul_128_tiled_vs_naive_ref",
        h.result_ns("kernels/matmul_naive_ref_128"),
        h.result_ns("kernels/matmul_tiled_128"),
    );
    push_ratio(
        "matmul_128_tiled_vs_baseline_6eac353",
        Some(BASELINE_6EAC353[0].1),
        h.result_ns("kernels/matmul_tiled_128"),
    );
    push_ratio(
        "matmul_128_nt_vs_baseline",
        Some(BASELINE_2300CC1[0].1),
        h.result_ns("kernels/matmul_nt_tiled_128"),
    );
    push_ratio(
        "matmul_128_tn_vs_baseline",
        Some(BASELINE_2300CC1[1].1),
        h.result_ns("kernels/matmul_tn_tiled_128"),
    );
    push_ratio(
        "conv1d_fwd_bwd_vs_baseline_6eac353",
        Some(BASELINE_6EAC353[1].1),
        h.result_ns("kernels/conv1d_im2col_fwd_bwd_10x8x32"),
    );
    push_ratio(
        "dwt_warm_vs_cold_z256_n5",
        h.result_ns("dwt_cache/horizon_scales_cold_z256_n5"),
        h.result_ns("dwt_cache/sliding_dwt_warm_z256_n5"),
    );
    push_ratio(
        "train_env_step_vs_baseline_6eac353",
        Some(BASELINE_6EAC353[2].1),
        h.result_ns("train/env_step_paper_scale"),
    );
    push_ratio(
        "train_update_span_vs_baseline_6eac353",
        Some(BASELINE_6EAC353[3].1),
        h.result_ns("train/span_train.update"),
    );
    json.push_str("  \"speedups\": {\n");
    for (i, (name, ratio)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {ratio:.2}{comma}\n"));
    }
    json.push_str("  },\n");

    // Sanity field, deliberately OUTSIDE the speedups map (it is a cost
    // ratio, not a speedup — values near 1.0 are good, and the CI floor on
    // speedups must not apply to it): nt must stay within 2× of nn.
    let nt_vs_nn = match (
        h.result_ns("kernels/matmul_nt_tiled_128"),
        h.result_ns("kernels/matmul_tiled_128"),
    ) {
        (Some(nt), Some(nn)) if nn > 0.0 => nt / nn,
        _ => f64::NAN,
    };
    json.push_str(&format!("  \"nt_vs_nn_ratio\": {nt_vs_nn:.2}\n}}\n"));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_compute.json");
    std::fs::write(path, &json).expect("write BENCH_compute.json");
    println!("wrote {path}");
    for (name, ratio) in &speedups {
        println!("speedup {name:<45} {ratio:.2}x");
    }
}

fn main() {
    // Same resolution path production uses: the kernels below go through
    // the installed autotuner unless CIT_AUTOTUNE=off / CIT_TILING is set.
    cit_compute::autotune::ensure_installed();
    let h = Harness::new();
    bench_kernels(&h);
    bench_dwt_cache(&h);
    if !h.quick {
        bench_dwt(&h);
        bench_decomposition(&h);
        bench_networks(&h);
        bench_env_and_strategies(&h);
        bench_cit(&h);
    }
    bench_train_step(&h);
    write_manifest(&h);
    finish_run(&h.tel);
}
