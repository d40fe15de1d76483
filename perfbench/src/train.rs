//! The `train` workload: paper-scale training bursts through
//! `CrossInsightTrader::try_train` with one worker per core.
//!
//! Each burst is a fresh trader built from the workload seed and trained
//! for `BURST_STEPS` environment steps, so every burst does identical
//! work and ends with identical parameters; a run repeats bursts until
//! its time is up. Per-update wall times come from the trainer's
//! `train.update` records, timestamped by the benchmark as they arrive.

use crate::inputs::{self, nproc};
use crate::layers::{self, Replay};
use crate::report::Outcome;
use crate::stats::{median, quantile, Digest};
use crate::Args;
use cit_core::{CitConfig, CrossInsightTrader};
use cit_market::AssetPanel;
use cit_telemetry::{Record, Sink, Telemetry};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Days in the training panel.
const DAYS: usize = 640;
/// Set-up repetitions: set-up is a few milliseconds here, so the average
/// of many is needed to hold still from run to run.
const SETUPS: usize = 101;
/// Environment steps per burst: 16 updates of the default 32-step rollout.
const BURST_STEPS: usize = 512;

/// Timestamps each `train.update` record: the update boundaries.
#[derive(Default)]
struct UpdateClock {
    marks: Mutex<Vec<Instant>>,
}

impl Sink for UpdateClock {
    fn emit(&self, record: &Record) {
        if record.kind == "train.update" {
            self.marks
                .lock()
                .expect("update clock")
                .push(Instant::now());
        }
    }
}

struct Burst {
    wall: Duration,
    steps: usize,
    update_ms: Vec<f64>,
    digest: u64,
    /// Share of the trainer's DWT window lookups served incrementally.
    dwt_incremental_share: f64,
}

/// One burst on a fresh trader. `clock` (when given) receives the update
/// records; `telemetry` is the handle the trainer records into.
fn burst(
    panel: &AssetPanel,
    cfg: CitConfig,
    telemetry: Telemetry,
    clock: Option<&UpdateClock>,
    out: &mut Outcome,
) -> Result<Burst, String> {
    let mut trader = CrossInsightTrader::try_new(panel, cfg)
        .map_err(|e| e.to_string())?
        .with_telemetry(telemetry);
    if let Some(c) = clock {
        c.marks.lock().expect("update clock").clear();
    }
    let start = Instant::now();
    let report = trader.try_train(panel);
    let wall = start.elapsed();
    out.attempted += 1;
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            return Err(format!("training burst failed: {e}"));
        }
    };
    if let Some(bad) = report.update_rewards.iter().find(|r| !r.is_finite()) {
        out.mismatch(format!("non-finite update reward {bad}"));
    }
    let mut update_ms = Vec::new();
    if let Some(c) = clock {
        let marks = c.marks.lock().expect("update clock");
        let mut prev = start;
        for &m in marks.iter() {
            update_ms.push(m.duration_since(prev).as_secs_f64() * 1e3);
            prev = m;
        }
    }
    let mut d = Digest::new();
    for (name, values) in trader.export_params() {
        d.u64(name.len() as u64);
        for b in name.bytes() {
            d.u64(u64::from(b));
        }
        d.f32s(&values);
    }
    let st = trader.dwt_stats();
    let lookups = (st.memo_hits + st.incremental + st.full).max(1) as f64;
    Ok(Burst {
        wall,
        steps: report.steps,
        update_ms,
        digest: d.finish(),
        dwt_incremental_share: st.incremental as f64 / lookups,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cfg = CitConfig {
        total_steps: BURST_STEPS,
        ..inputs::config(args.seed)
    };
    let (panel, setup_s) = inputs::repeated_setup(SETUPS, || {
        let panel = inputs::panel(args.seed, DAYS);
        CrossInsightTrader::try_new(&panel, cfg).map_err(|e| e.to_string())?;
        Ok(panel)
    })?;
    // Warm-up (untimed): one full burst for first-touch allocation,
    // kernel tuning and the processor's clock to settle.
    burst(&panel, cfg, Telemetry::disabled(), None, &mut out)?;

    let clock = Arc::new(UpdateClock::default());
    let untraced = Telemetry::new(clock.clone());
    let traced = Telemetry::memory().0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut bursts = Vec::new();
    let mut plain = Vec::new();
    let mut traced_bursts = Vec::new();
    while bursts.is_empty() || Instant::now() < deadline {
        if args.trace {
            // Alternate telemetry off / fully traced bursts: the ratio of
            // their wall times is what tracing costs.
            plain.push(burst(&panel, cfg, Telemetry::disabled(), None, &mut out)?);
            traced_bursts.push(burst(&panel, cfg, traced.clone(), None, &mut out)?);
            bursts.push(burst(
                &panel,
                cfg,
                untraced.clone(),
                Some(&clock),
                &mut out,
            )?);
        } else {
            bursts.push(burst(
                &panel,
                cfg,
                untraced.clone(),
                Some(&clock),
                &mut out,
            )?);
        }
    }
    let all = bursts.iter().chain(&plain).chain(&traced_bursts);
    let digests: Vec<u64> = all.map(|b| b.digest).collect();
    if digests.iter().any(|&d| d != digests[0]) {
        out.mismatch("identical bursts ended with different parameters");
    }

    // The median burst's rate: robust to a burst that stalled.
    let rates: Vec<f64> = bursts
        .iter()
        .map(|b| b.steps as f64 / b.wall.as_secs_f64())
        .collect();
    let steps_per_s = median(&rates);
    let updates: Vec<f64> = bursts.iter().flat_map(|b| b.update_ms.clone()).collect();
    out.set("setup_s", setup_s);
    out.set("throughput_per_s", steps_per_s);
    out.set("p50_us", median(&updates) * 1e3);
    out.set("slow_us", quantile(&updates, 0.9) * 1e3);
    out.note(format!(
        "train: {} bursts x {BURST_STEPS} steps, {} updates timed, {} threads, final-parameter digest {:016x}",
        bursts.len(),
        updates.len(),
        nproc(),
        digests[0]
    ));
    out.note(format!(
        "train_steps_per_s = {} 1/s (median burst); train_update_ms_p50 = {} ms; update p90 = {} ms",
        steps_per_s,
        median(&updates),
        quantile(&updates, 0.9)
    ));

    if args.trace {
        trace_layers(&traced, &traced_bursts, &plain, &mut out);
        let model = cit_core::DecisionModel::untrained(cfg, panel.num_assets())
            .map_err(|e| e.to_string())?;
        layers::measure(
            &Replay {
                model: &model,
                panel: &panel,
                starts: vec![cfg.min_start()],
                history: cfg.window * 2,
                decides: 400,
                max_history: cit_serve::ServeConfig::default().max_history,
                resident: 1,
            },
            &mut out,
        )?;
        // The trainer's own DWT cache (memo hits included), not the replay's.
        out.set("dwt.incremental_share", bursts[0].dwt_incremental_share);
    }
    Ok(out)
}

/// Per-update and per-call means of the trainer's own spans over the
/// traced bursts.
fn trace_layers(tel: &Telemetry, traced: &[Burst], plain: &[Burst], out: &mut Outcome) {
    let updates = tel.span_histogram("train.update").count().max(1) as f64;
    let mut phases = 0.0;
    for phase in [
        "rollout",
        "targets",
        "advantages",
        "graph_build",
        "opt_step",
    ] {
        let sum = tel.span_histogram(&format!("train.{phase}")).sum();
        phases += sum;
        out.set(&format!("train.{phase}_ms"), sum / updates * 1e3);
    }
    let update_sum = tel.span_histogram("train.update").sum();
    out.set("train.span_coverage", phases / update_sum);
    let per_call = |span: &str| tel.span_histogram(span).mean();
    out.set("train.step_ms", per_call("train.step") * 1e3);
    out.set("actor.forward_us", per_call("actor.forward") * 1e6);
    out.set(
        "dwt.horizon_windows_us",
        per_call("dwt.horizon_windows") * 1e6,
    );
    out.set("critic.update_us", per_call("critic.update") * 1e6);
    out.set("nn.tcn_forward_us", per_call("nn.tcn_forward") * 1e6);
    out.set(
        "nn.attention_forward_us",
        per_call("nn.attention_forward") * 1e6,
    );
    out.set("nn.backward_ms", per_call("nn.backward") * 1e3);
    out.note(
        "critic.update_us and nn.backward_ms run inside the concurrent train.graph_build tasks: \
         they are busy time summed over workers, not wall time",
    );
    let secs = |bs: &[Burst]| median(&bs.iter().map(|b| b.wall.as_secs_f64()).collect::<Vec<_>>());
    out.set("trace.overhead_ratio", secs(traced) / secs(plain));
}
