//! The serving workloads: `serve_c1`, `serve_open` and `serve_churn`.
//!
//! Each starts `cit-serve` in-process on a loopback port with a seeded,
//! untrained checkpoint loaded through `DecisionModel::from_checkpoint`,
//! drives it over TCP, and checks every answered decision bitwise against
//! an offline `DecisionModel::decide` replay of the same day stream.
//! Server-side numbers come only from the cumulative `serve.latency` and
//! `serve.batch_size` histograms and the reject counters.

use crate::inputs::{self, nproc, rows, Scratch};
use crate::layers::{self, Replay};
use crate::loadgen::{self, GenSession, Phase};
use crate::report::Outcome;
use crate::stats::{
    block_rate, decision_digest, mean, median, percentiles, quantile, us, window_quantile,
};
use crate::Args;
use cit_core::DecisionModel;
use cit_market::AssetPanel;
use cit_serve::json::Json;
use cit_serve::{Client, Reply, Request, ServeConfig, Server};
use cit_telemetry::{duration_bounds, Telemetry};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Samples per window of the windowed latency quantiles: a window's p99
/// has ten samples beyond it.
const LATENCY_WINDOW: usize = 1024;

/// A snapshot of the server instruments the benchmark trusts.
#[derive(Clone, Copy)]
struct Readings {
    latency_count: u64,
    latency_sum: f64,
    batches: u64,
    batched: f64,
    rejected: u64,
    errors: u64,
    evicted: u64,
    restored: u64,
}

impl Readings {
    fn take(server: &Server) -> Readings {
        let tel = server.telemetry();
        let latency = tel.histogram("serve.latency", &duration_bounds());
        let batch = tel.histogram("serve.batch_size", &[1.0]);
        let stats = server.stats();
        Readings {
            latency_count: latency.count(),
            latency_sum: latency.sum(),
            batches: batch.count(),
            batched: batch.sum(),
            rejected: tel.counter("serve.rejected").get(),
            errors: stats.errors_total,
            evicted: stats.sessions_evicted,
            restored: stats.sessions_restored,
        }
    }

    /// Mean server-side latency (µs) of the requests answered since `before`.
    fn server_us_since(&self, before: &Readings) -> f64 {
        let n = self.latency_count - before.latency_count;
        (self.latency_sum - before.latency_sum) / n.max(1) as f64 * 1e6
    }
}

/// Server-side layer metrics over a timed window of `wall` seconds.
fn server_layers(before: &Readings, after: &Readings, wall: f64, out: &mut Outcome) {
    let batches = after.batches - before.batches;
    out.set("serve.server_decide_us", after.server_us_since(before));
    out.set(
        "serve.batch_size_mean",
        (after.batched - before.batched) / batches.max(1) as f64,
    );
    out.set("serve.batches_per_s", batches as f64 / wall);
    out.set("serve.rejected", (after.rejected - before.rejected) as f64);
    out.set("spill.evicted", (after.evicted - before.evicted) as f64);
    out.set("spill.restored", (after.restored - before.restored) as f64);
}

/// The residual of the served decide after its measured parts: queue
/// wait, batch wait and wake-ups.
fn queue_wait(out: &mut Outcome) {
    let m = |k: &str| out.metrics.get(k).copied().unwrap_or(0.0);
    let residual = m("serve.server_decide_us")
        - m("protocol.parse_decide_us")
        - m("session.decide_us")
        - m("protocol.render_decision_us");
    out.set("serve.queue_wait_us", residual);
}

fn start_server(model: DecisionModel, cfg: ServeConfig, traced: bool) -> Result<Server, String> {
    let telemetry = if traced {
        Telemetry::memory().0
    } else {
        Telemetry::disabled()
    };
    Server::start_with(model, cfg, telemetry).map_err(|e| format!("server start: {e}"))
}

fn open_session(client: &mut Client, name: &str, history: Vec<Vec<f64>>) -> Result<(), String> {
    let reply = client
        .call(&Request::Open {
            session: name.to_string(),
            prices: history,
        })
        .map_err(|e| format!("open {name}: {e}"))?;
    if reply.ok() {
        Ok(())
    } else {
        Err(format!("open {name} refused: {:?}", reply.error_message()))
    }
}

fn reply_digest(reply: &Reply) -> Option<u64> {
    if !reply.ok() {
        return None;
    }
    Some(decision_digest(
        &reply.final_action()?,
        &reply.pre_actions()?,
    ))
}

/// Replays `model.decide` over days `first, first + 1, …` with one cache
/// and compares each decision with `served`. Returns the first mismatch.
fn check_stream(
    model: &DecisionModel,
    panel: &AssetPanel,
    first: usize,
    served: &[u64],
) -> Option<String> {
    let mut cache = model.new_cache();
    let mut prev = model.uniform_prev_actions();
    for (i, &digest) in served.iter().enumerate() {
        let o = model.decide(panel, first + i, &prev, &mut cache);
        if decision_digest(&o.final_action, &o.pre_actions) != digest {
            return Some(format!(
                "decision for day {} differs from the offline replay",
                first + i
            ));
        }
        prev = o.pre_actions;
    }
    None
}

/// [`check_stream`] over many streams on `nproc` threads.
fn check_streams(
    model: &DecisionModel,
    panel: &AssetPanel,
    streams: &[(usize, &[u64])],
) -> Vec<String> {
    let chunk = streams.len().div_ceil(nproc()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter_map(|&(first, served)| check_stream(model, panel, first, served))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["replay thread panicked".into()])
            })
            .collect()
    })
}

// ---------------------------------------------------------------- serve_c1

/// Days of history the c1 session opens with.
const C1_HISTORY: usize = 256;
/// The c1 server's `max_history`: history cycles between 512 and 1024
/// days, whatever the decide rate.
const C1_MAX_HISTORY: usize = 1024;
/// Untimed decides before the timed loop, in seconds.
const C1_WARMUP_S: f64 = 1.0;
/// Panel length: enough days for every decide of a run.
const C1_DAYS: usize = 24_000;

struct C1 {
    seed: u64,
    panel: AssetPanel,
    model_path: PathBuf,
    server: Server,
    client: Client,
}

fn c1_setup(args: &Args, dir: &Path, traced: bool) -> Result<C1, String> {
    let panel = inputs::panel(args.seed, C1_DAYS);
    let model = inputs::load_model(&dir.join("model.cit"), args.seed)?;
    let cfg = ServeConfig {
        max_history: C1_MAX_HISTORY,
        ..ServeConfig::default()
    };
    let server = start_server(model, cfg, traced)?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    open_session(&mut client, "c1", rows(&panel, 0, C1_HISTORY))?;
    Ok(C1 {
        seed: args.seed,
        model_path: dir.join("model.cit"),
        panel,
        server,
        client,
    })
}

struct ClosedLoop {
    latency_us: Vec<f64>,
    /// Client time between a reply and the next send.
    gap_us: Vec<f64>,
    /// When each reply arrived, in seconds from the loop's start.
    done_s: Vec<f64>,
    digests: Vec<u64>,
    wall: f64,
}

/// Closed-loop decides on session `c1`, one new day each, from day
/// `first`, until `until`.
fn c1_loop(
    env: &mut C1,
    first: usize,
    until: Instant,
    out: &mut Outcome,
) -> Result<ClosedLoop, String> {
    let mut r = ClosedLoop {
        latency_us: Vec::new(),
        gap_us: Vec::new(),
        done_s: Vec::new(),
        digests: Vec::new(),
        wall: 0.0,
    };
    let start = Instant::now();
    let mut last_reply = start;
    while Instant::now() < until {
        let day = first + r.digests.len();
        if day >= env.panel.num_days() {
            out.note("c1 ran out of panel days before its time was up");
            break;
        }
        let line = Request::Decide {
            session: "c1".into(),
            prices: rows(&env.panel, day, day + 1),
        }
        .render();
        let sent = Instant::now();
        r.gap_us.push(us(sent - last_reply));
        let reply = env.client.call_line(&line);
        last_reply = Instant::now();
        r.latency_us.push(us(last_reply - sent));
        r.done_s.push((last_reply - start).as_secs_f64());
        out.attempted += 1;
        match reply.as_ref().ok().and_then(reply_digest) {
            Some(d) => r.digests.push(d),
            None => {
                out.failed += 1;
                return Err(format!("c1 decide for day {day} failed: {reply:?}"));
            }
        }
    }
    r.wall = start.elapsed().as_secs_f64();
    Ok(r)
}

/// Warm-up plus one timed closed loop of `secs`, output-checked.
fn c1_pass(
    env: &mut C1,
    secs: f64,
    out: &mut Outcome,
) -> Result<(ClosedLoop, Readings, Readings), String> {
    let warm_until = Instant::now() + Duration::from_secs_f64(C1_WARMUP_S);
    let warm = c1_loop(env, C1_HISTORY, warm_until, out)?;
    let before = Readings::take(&env.server);
    let until = Instant::now() + Duration::from_secs_f64(secs);
    let timed = c1_loop(env, C1_HISTORY + warm.digests.len(), until, out)?;
    let after = Readings::take(&env.server);
    let model = inputs::load_model(&env.model_path, env.seed)?;
    let served: Vec<u64> = warm.digests.iter().chain(&timed.digests).copied().collect();
    if let Some(m) = check_stream(&model, &env.panel, C1_HISTORY, &served) {
        out.mismatch(m);
    }
    if after.errors != before.errors {
        out.mismatch("the server answered errors during the c1 loop");
    }
    Ok((timed, before, after))
}

pub fn run_c1(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    inputs::save_checkpoint(args.seed, scratch.path())?;
    let (mut env, setup_s) = inputs::repeated_setup(21, || c1_setup(args, scratch.path(), false))?;
    if !args.trace {
        let (timed, _, _) = c1_pass(&mut env, args.seconds, &mut out)?;
        let n = timed.latency_us.len();
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", block_rate(&timed.done_s, 256));
        out.note(format!(
            "serve_c1 decide latency: {}",
            percentiles(&timed.latency_us)
        ));
        out.set(
            "p50_us",
            window_quantile(&timed.latency_us, LATENCY_WINDOW, 0.5),
        );
        out.set(
            "slow_us",
            window_quantile(&timed.latency_us, LATENCY_WINDOW, 0.95),
        );
        out.note(format!(
            "serve_c1: {n} decides in {:.3} s on 1 connection; decide_rps and decide_p50_us are throughput_per_s and p50_us, slow_us is the decide p95 (decide_p99_us is the p99 above)",
            timed.wall
        ));
        return Ok(out);
    }
    // Traced: an untraced reference pass, then a traced pass on a fresh
    // server (recording telemetry) whose numbers feed the layer metrics.
    let (reference, _, _) = c1_pass(&mut env, args.seconds / 3.0, &mut out)?;
    drop(env);
    let mut env = c1_setup(args, scratch.path(), true)?;
    let (timed, before, after) = c1_pass(&mut env, args.seconds * 2.0 / 3.0, &mut out)?;
    out.set(
        "trace.overhead_ratio",
        median(&timed.latency_us) / median(&reference.latency_us),
    );
    server_layers(&before, &after, timed.wall, &mut out);
    let server_us = after.server_us_since(&before);
    out.set(
        "net.client_overhead_us",
        mean(&timed.latency_us) - server_us,
    );
    out.set("loadgen.late_us_p99", quantile(&timed.gap_us, 0.99));
    drop(env.client);
    env.server.shutdown();
    let model = inputs::load_model(&env.model_path, env.seed)?;
    layers::measure(
        &Replay {
            model: &model,
            panel: &env.panel,
            starts: vec![0],
            history: C1_HISTORY,
            decides: 2000,
            max_history: C1_MAX_HISTORY,
            resident: 1,
        },
        &mut out,
    )?;
    queue_wait(&mut out);
    Ok(out)
}

// -------------------------------------------------------------- serve_open

/// Sessions the generator drives: more than the server's `queue_cap`.
const OPEN_SESSIONS: usize = 512;
/// Days of history each session opens with.
const OPEN_HISTORY: usize = 64;
/// Days between the history windows of consecutive sessions.
const OPEN_STRIDE: usize = 13;
/// Absolute arrival rates (decides/s): the in-capacity phase, then the
/// overload phase. See README.md for the capacity they were chosen from.
pub const OPEN_RATES: [f64; 2] = [300.0, 3000.0];
/// Share of the timed run spent in the in-capacity phase; the rest is
/// measured overload.
const OPEN_SPLIT: f64 = 0.3;
/// Untimed overload before the measured overload: the answered rate
/// climbs for one to two seconds while the generator's in-flight set and
/// the server's queue fill.
const OPEN_RAMP_S: f64 = 3.0;
const OPEN_MAX_HISTORY: usize = 1024;

struct Open {
    seed: u64,
    panel: AssetPanel,
    model_path: PathBuf,
    server: Server,
}

fn open_setup(args: &Args, dir: &Path, traced: bool) -> Result<Open, String> {
    let days = OPEN_SESSIONS * OPEN_STRIDE + OPEN_HISTORY + 1000;
    let panel = inputs::panel(args.seed, days);
    let model = inputs::load_model(&dir.join("model.cit"), args.seed)?;
    let cfg = ServeConfig {
        max_history: OPEN_MAX_HISTORY,
        ..ServeConfig::default()
    };
    let server = start_server(model, cfg, traced)?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    for j in 0..OPEN_SESSIONS {
        let s = j * OPEN_STRIDE;
        open_session(
            &mut client,
            &format!("s{j}"),
            rows(&panel, s, s + OPEN_HISTORY),
        )?;
    }
    Ok(Open {
        seed: args.seed,
        model_path: dir.join("model.cit"),
        panel,
        server,
    })
}

struct OpenPass {
    incap_due_us: Vec<f64>,
    overload: loadgen::PhaseStats,
    /// Answered decides per second in the overload phase (median block).
    goodput: f64,
    /// Send lateness in the in-capacity and the overload phase.
    late_us: [Vec<f64>; 2],
    client_mean_us: f64,
    wall: f64,
}

fn open_pass(
    env: &Open,
    secs: f64,
    out: &mut Outcome,
) -> Result<(OpenPass, Readings, Readings), String> {
    let mut sessions: Vec<GenSession> = (0..OPEN_SESSIONS)
        .map(|j| GenSession::new(format!("s{j}"), j * OPEN_STRIDE + OPEN_HISTORY))
        .collect();
    let phases = [
        // Warm-up: about one decide per session, not timed.
        Phase {
            rate: OPEN_RATES[0],
            secs: OPEN_SESSIONS as f64 / OPEN_RATES[0],
        },
        Phase {
            rate: OPEN_RATES[0],
            secs: secs * OPEN_SPLIT,
        },
        // Overload ramp, not timed.
        Phase {
            rate: OPEN_RATES[1],
            secs: OPEN_RAMP_S,
        },
        Phase {
            rate: OPEN_RATES[1],
            secs: secs * (1.0 - OPEN_SPLIT),
        },
    ];
    let before = Readings::take(&env.server);
    let start = Instant::now();
    let gen = loadgen::run(
        env.server.addr(),
        &env.panel,
        &mut sessions,
        &phases,
        nproc(),
    );
    let wall = start.elapsed().as_secs_f64();
    let after = Readings::take(&env.server);
    if let Some(e) = gen.errors.first() {
        return Err(format!("load generator: {e}"));
    }
    for st in &gen.phases {
        out.attempted += st.offered;
        out.failed += st.failed;
    }
    let model = inputs::load_model(&env.model_path, env.seed)?;
    let streams: Vec<(usize, &[u64])> = sessions
        .iter()
        .map(|s| (s.first_day, s.digests.as_slice()))
        .collect();
    for m in check_streams(&model, &env.panel, &streams) {
        out.mismatch(m);
    }
    let answered: Vec<f64> = gen.phases.iter().flat_map(|p| p.sent_us.clone()).collect();
    let mut phases_iter = gen.phases.into_iter().skip(1);
    let mut incap = phases_iter.next().expect("in-capacity phase");
    let _ramp = phases_iter.next().expect("overload ramp");
    let mut overload = phases_iter.next().expect("overload phase");
    let overload_start: f64 = phases[..3].iter().map(|p| p.secs).sum();
    let done: Vec<f64> = overload.done_s.iter().map(|t| t - overload_start).collect();
    let goodput = block_rate(&done, 256);
    let pass = OpenPass {
        late_us: [
            std::mem::take(&mut incap.late_us),
            std::mem::take(&mut overload.late_us),
        ],
        incap_due_us: incap.due_us,
        overload,
        goodput,
        client_mean_us: mean(&answered),
        wall,
    };
    Ok((pass, before, after))
}

pub fn run_open(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    inputs::save_checkpoint(args.seed, scratch.path())?;
    let (env, setup_s) = inputs::repeated_setup(4, || open_setup(args, scratch.path(), false))?;
    let summarize = |p: &OpenPass, out: &mut Outcome| {
        let o = &p.overload;
        out.note(format!(
            "serve_open: in-capacity {} /s: {} answered, p50 {:.1} us, p99 {:.1} us (decide_p50_us, decide_p99_us)",
            OPEN_RATES[0],
            p.incap_due_us.len(),
            median(&p.incap_due_us),
            quantile(&p.incap_due_us, 0.99)
        ));
        out.note(format!(
            "serve_open: overload {} /s: offered {}, answered {}, rejected {}, skipped {}; overload_goodput_rps {:.1}, overload_p99_us {:.1}, overload_reject_ratio {:.4}",
            OPEN_RATES[1],
            o.offered,
            o.answered,
            o.rejected,
            o.skipped,
            p.goodput,
            quantile(&o.due_us, 0.99),
            o.rejected as f64 / o.offered.max(1) as f64
        ));
        out.note(format!(
            "serve_open: generator late p99 {:.1} us in capacity, {:.1} us in overload",
            quantile(&p.late_us[0], 0.99),
            quantile(&p.late_us[1], 0.99)
        ));
        out.note(format!(
            "serve_open in-capacity latency: {}",
            percentiles(&p.incap_due_us)
        ));
        out.note(format!(
            "serve_open overload latency: {}",
            percentiles(&o.due_us)
        ));
    };
    if !args.trace {
        let (p, _, _) = open_pass(&env, args.seconds, &mut out)?;
        summarize(&p, &mut out);
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", p.goodput);
        out.set(
            "p50_us",
            window_quantile(&p.incap_due_us, LATENCY_WINDOW / 4, 0.5),
        );
        out.set(
            "slow_us",
            window_quantile(&p.overload.due_us, LATENCY_WINDOW, 0.99),
        );
        return Ok(out);
    }
    let (reference, _, _) = open_pass(&env, args.seconds / 2.0, &mut out)?;
    drop(env);
    let env = open_setup(args, scratch.path(), true)?;
    let (p, before, after) = open_pass(&env, args.seconds / 2.0, &mut out)?;
    summarize(&p, &mut out);
    out.set(
        "trace.overhead_ratio",
        median(&p.incap_due_us) / median(&reference.incap_due_us),
    );
    server_layers(&before, &after, p.wall, &mut out);
    let o = &p.overload;
    out.set(
        "serve.reject_ratio",
        o.rejected as f64 / o.offered.max(1) as f64,
    );
    out.set(
        "net.client_overhead_us",
        p.client_mean_us - after.server_us_since(&before),
    );
    out.set("loadgen.late_us_p99", quantile(&p.late_us[0], 0.99));
    let panel = env.panel;
    let model_path = env.model_path;
    env.server.shutdown();
    let model = inputs::load_model(&model_path, args.seed)?;
    layers::measure(
        &Replay {
            model: &model,
            panel: &panel,
            starts: (0..8).map(|j| j * OPEN_STRIDE).collect(),
            history: OPEN_HISTORY,
            decides: 64,
            max_history: OPEN_MAX_HISTORY,
            resident: OPEN_SESSIONS,
        },
        &mut out,
    )?;
    queue_wait(&mut out);
    Ok(out)
}

// ------------------------------------------------------------- serve_churn

/// Days of history each churned session opens with.
const CHURN_HISTORY: usize = 2048;
/// Warm decides before a session goes idle.
const CHURN_DECIDES: usize = 3;
/// Distinct open histories (sessions cycle through them).
const CHURN_VARIANTS: usize = 8;
const CHURN_STRIDE: usize = 61;
const CHURN_TTL_MS: u64 = 150;
const CHURN_TICK_MS: u64 = 10;
/// How long a session stays idle: the TTL plus ten eviction ticks.
const CHURN_IDLE_MS: u64 = CHURN_TTL_MS + 10 * CHURN_TICK_MS;
/// Idle sessions the client keeps waiting at once.
const CHURN_PIPELINE: usize = 8;
/// Untimed cycling before the timed pass, in seconds.
const CHURN_WARMUP_S: f64 = 1.0;

struct Churn {
    seed: u64,
    panel: AssetPanel,
    model_path: PathBuf,
    server: Server,
}

fn churn_start(v: usize) -> usize {
    v * CHURN_STRIDE
}

/// The rendered `prices` array of each variant's open history: input
/// preparation, kept out of the timed set-up.
fn churn_histories(panel: &AssetPanel) -> Vec<String> {
    (0..CHURN_VARIANTS)
        .map(|v| {
            let s = churn_start(v);
            Json::from(rows(panel, s, s + CHURN_HISTORY)).render()
        })
        .collect()
}

fn churn_setup(args: &Args, scratch: &Scratch, traced: bool) -> Result<Churn, String> {
    let days = churn_start(CHURN_VARIANTS) + CHURN_HISTORY + CHURN_DECIDES + 16;
    let panel = inputs::panel(args.seed, days);
    let model = inputs::load_model(&scratch.path().join("model.cit"), args.seed)?;
    let cfg = ServeConfig {
        session_ttl: Some(Duration::from_millis(CHURN_TTL_MS)),
        tick_ms: CHURN_TICK_MS,
        spill_dir: Some(scratch.subdir("spill")?),
        ..ServeConfig::default()
    };
    let server = start_server(model, cfg, traced)?;
    Ok(Churn {
        seed: args.seed,
        model_path: scratch.path().join("model.cit"),
        panel,
        server,
    })
}

/// One session's cycle, as observed by the client.
struct Cycle {
    variant: usize,
    digests: Vec<u64>,
}

#[derive(Default)]
struct ChurnPass {
    cycles: Vec<Cycle>,
    open_us: Vec<f64>,
    first_decide_us: Vec<f64>,
    restore_us: Vec<f64>,
    client_us: Vec<f64>,
    server_decide_us: Vec<f64>,
    gap_us: Vec<f64>,
    /// When each cycle completed, in seconds from the pass's start.
    done_s: Vec<f64>,
    /// Cycles per second: the median block of eight cycles.
    rate: f64,
    wall: f64,
}

struct Idle {
    name: String,
    variant: usize,
    since: Instant,
    digests: Vec<u64>,
}

/// Opens sessions named `{tag}-N` for `secs`, cycling each through
/// decides, eviction, restore and close; then lets the last ones finish.
fn churn_pass(
    env: &Churn,
    histories: &[String],
    tag: &str,
    secs: f64,
    out: &mut Outcome,
) -> Result<(ChurnPass, Readings, Readings), String> {
    let mut client = Client::connect(env.server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut pass = ChurnPass::default();
    let mut idle: std::collections::VecDeque<Idle> = Default::default();
    let idle_for = Duration::from_millis(CHURN_IDLE_MS);
    let before = Readings::take(&env.server);
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    // The client's own lag between a reply and its next send; deliberate
    // idle waits reset it.
    let last_reply = std::cell::Cell::new(start);
    let mut opened = 0usize;
    // Sends one line; returns the reply, client latency and server latency.
    let mut call = |line: &str,
                    out: &mut Outcome,
                    pass: &mut ChurnPass|
     -> Result<(Reply, f64, f64), String> {
        let tel = env.server.telemetry();
        let hist = tel.histogram("serve.latency", &duration_bounds());
        let (n0, s0) = (hist.count(), hist.sum());
        let sent = Instant::now();
        pass.gap_us.push(us(sent - last_reply.get()));
        out.attempted += 1;
        let reply = client
            .call_line(line)
            .map_err(|e| format!("churn request: {e}"))?;
        last_reply.set(Instant::now());
        let client_us = us(last_reply.get() - sent);
        pass.client_us.push(client_us);
        let server_us = if hist.count() > n0 {
            (hist.sum() - s0) / (hist.count() - n0) as f64 * 1e6
        } else {
            0.0
        };
        if !reply.ok() {
            out.failed += 1;
            return Err(format!(
                "churn request refused: {:?}",
                reply.error_message()
            ));
        }
        Ok((reply, client_us, server_us))
    };
    let decide_line = |name: &str, day: usize| {
        Request::Decide {
            session: name.to_string(),
            prices: rows(&env.panel, day, day + 1),
        }
        .render()
    };
    loop {
        let now = Instant::now();
        let ready = idle.front().is_some_and(|s| now >= s.since + idle_for);
        if ready {
            let mut s = idle.pop_front().expect("front checked");
            let day = churn_start(s.variant) + CHURN_HISTORY + CHURN_DECIDES;
            let (reply, client_us, server_us) = call(&decide_line(&s.name, day), out, &mut pass)?;
            pass.restore_us.push(client_us);
            pass.server_decide_us.push(server_us);
            s.digests
                .push(reply_digest(&reply).ok_or("restore decide carried no decision")?);
            call(
                &Request::Close {
                    session: s.name.clone(),
                }
                .render(),
                out,
                &mut pass,
            )?;
            pass.cycles.push(Cycle {
                variant: s.variant,
                digests: s.digests,
            });
            pass.done_s.push(start.elapsed().as_secs_f64());
        } else if now < until && idle.len() < CHURN_PIPELINE {
            let variant = opened % CHURN_VARIANTS;
            let name = format!("{tag}-{opened}");
            opened += 1;
            let line = format!(
                "{{\"op\":\"open\",\"session\":\"{name}\",\"prices\":{}}}",
                histories[variant]
            );
            let (_, open_us, _) = call(&line, out, &mut pass)?;
            pass.open_us.push(open_us);
            let mut digests = Vec::with_capacity(CHURN_DECIDES + 1);
            for i in 0..CHURN_DECIDES {
                let day = churn_start(variant) + CHURN_HISTORY + i;
                let (reply, client_us, server_us) = call(&decide_line(&name, day), out, &mut pass)?;
                if i == 0 {
                    pass.first_decide_us.push(client_us);
                }
                pass.server_decide_us.push(server_us);
                digests.push(reply_digest(&reply).ok_or("decide carried no decision")?);
            }
            idle.push_back(Idle {
                name,
                variant,
                since: Instant::now(),
                digests,
            });
        } else if let Some(front) = idle.front() {
            std::thread::sleep((front.since + idle_for).saturating_duration_since(now));
            last_reply.set(Instant::now());
        } else {
            break;
        }
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass.rate = block_rate(&pass.done_s, 8);
    let after = Readings::take(&env.server);

    // Every restore decide must really have restored from spill.
    let restored = after.restored - before.restored;
    if restored < pass.cycles.len() as u64 {
        out.mismatch(format!(
            "only {restored} of {} idle sessions were restored from spill",
            pass.cycles.len()
        ));
    }
    let model = inputs::load_model(&env.model_path, env.seed)?;
    let expected: Vec<Vec<u64>> = (0..CHURN_VARIANTS)
        .map(|v| {
            let mut cache = model.new_cache();
            let mut prev = model.uniform_prev_actions();
            (0..=CHURN_DECIDES)
                .map(|i| {
                    let t = churn_start(v) + CHURN_HISTORY + i;
                    let o = model.decide(&env.panel, t, &prev, &mut cache);
                    prev.clone_from(&o.pre_actions);
                    decision_digest(&o.final_action, &o.pre_actions)
                })
                .collect()
        })
        .collect();
    for c in &pass.cycles {
        if c.digests != expected[c.variant] {
            out.mismatch(format!(
                "a churned session on history {} decided differently from the offline replay",
                c.variant
            ));
        }
    }
    Ok((pass, before, after))
}

pub fn run_churn(args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    inputs::save_checkpoint(args.seed, scratch.path())?;
    let (env, setup_s) = inputs::repeated_setup(41, || churn_setup(args, scratch, false))?;
    let summarize = |p: &ChurnPass, out: &mut Outcome| {
        out.note(format!(
            "serve_churn: {} cycles in {:.3} s; open_p50_us {:.1} (p90 {:.1}), restore_decide_p50_us {:.1}, churn_sessions_per_s {:.3}",
            p.cycles.len(),
            p.wall,
            median(&p.open_us),
            quantile(&p.open_us, 0.9),
            median(&p.restore_us),
            p.rate
        ));
    };
    let histories = churn_histories(&env.panel);
    // Warm-up (untimed, but output-checked).
    churn_pass(&env, &histories, "warm", CHURN_WARMUP_S, &mut out)?;
    if !args.trace {
        let (p, _, _) = churn_pass(&env, &histories, "churn", args.seconds, &mut out)?;
        summarize(&p, &mut out);
        out.set("setup_s", setup_s);
        out.set("throughput_per_s", p.rate);
        out.set("p50_us", median(&p.open_us));
        out.set("slow_us", median(&p.restore_us));
        return Ok(out);
    }
    let (reference, _, _) =
        churn_pass(&env, &histories, "reference", args.seconds / 3.0, &mut out)?;
    drop(env);
    let env = churn_setup(args, scratch, true)?;
    let (p, before, after) = churn_pass(
        &env,
        &histories,
        "traced",
        args.seconds * 2.0 / 3.0,
        &mut out,
    )?;
    summarize(&p, &mut out);
    out.set("trace.overhead_ratio", reference.rate / p.rate);
    server_layers(&before, &after, p.wall, &mut out);
    // One connection, so each request's server-side latency is the
    // histogram delta around it: decides only.
    out.set("serve.server_decide_us", mean(&p.server_decide_us));
    out.set(
        "net.client_overhead_us",
        mean(&p.client_us) - after.server_us_since(&before),
    );
    out.set(
        "spill.restore_us",
        mean(&p.restore_us) - mean(&p.first_decide_us),
    );
    out.set("loadgen.late_us_p99", quantile(&p.gap_us, 0.99));
    let panel = env.panel;
    let model_path = env.model_path;
    env.server.shutdown();
    let model = inputs::load_model(&model_path, args.seed)?;
    layers::measure(
        &Replay {
            model: &model,
            panel: &panel,
            starts: (0..CHURN_VARIANTS).map(churn_start).collect(),
            history: CHURN_HISTORY,
            decides: CHURN_DECIDES + 1,
            max_history: ServeConfig::default().max_history,
            resident: CHURN_PIPELINE,
        },
        &mut out,
    )?;
    queue_wait(&mut out);
    Ok(out)
}
