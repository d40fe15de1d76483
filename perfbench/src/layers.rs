//! Per-layer measurements taken from outside the program: calls into the
//! public functions of `cit-core`, `cit-serve`, `cit-tensor` and
//! `cit-compute`, replayed on the workload's own inputs after its timed
//! phase (nothing else runs meanwhile).

use crate::inputs::rows;
use crate::report::Outcome;
use crate::stats::{mean, mean_call_us, us};
use cit_core::{raw_window, DecisionModel};
use cit_market::AssetPanel;
use cit_serve::{Request, Response, Session, SessionStore};
use cit_tensor::{kernels, Graph, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The shape of a workload's serving traffic, replayed layer by layer.
pub struct Replay<'a> {
    pub model: &'a DecisionModel,
    pub panel: &'a AssetPanel,
    /// First history day of each replayed session.
    pub starts: Vec<usize>,
    /// Days of history each session opens with.
    pub history: usize,
    /// Decides per session after the open, each carrying one new day.
    pub decides: usize,
    /// The server's `max_history` (trimming shapes the history copies).
    pub max_history: usize,
    /// Sessions resident in the store while the workload runs.
    pub resident: usize,
}

/// Measures every replayed layer into `out`.
pub fn measure(r: &Replay, out: &mut Outcome) -> Result<(), String> {
    let model = r.model;
    let z = model.config().window;
    let decide_days: Vec<usize> = r
        .starts
        .iter()
        .flat_map(|&s| (0..r.decides).map(move |i| s + r.history + i))
        .collect();

    // The served decide path, taken apart on the same days: the model
    // alone (`core.decide`), the sliding DWT windows (warm: advancing one
    // day on a live cache, first call of each session excluded), the raw
    // window, and the whole session decide with its history copy. The
    // four calls are interleaved day by day, so a slow stretch of the
    // host slows all of them alike and their differences stay meaningful.
    let mut decide_us = Vec::new();
    let mut warm = Vec::new();
    let mut raw = Vec::new();
    let mut session_decide_us = Vec::new();
    let mut outputs = Vec::new();
    let (mut memo, mut incremental, mut full) = (0u64, 0u64, 0u64);
    for (j, &s) in r.starts.iter().enumerate() {
        let history = rows(r.panel, s, s + r.history);
        let mut session = Session::open(model, &format!("replay-{j}"), "", &history, r.max_history)
            .map_err(|e| format!("replayed open failed: {}", e.render()))?;
        let mut cache = model.new_cache();
        let mut windows = model.new_cache();
        let mut prev = model.uniform_prev_actions();
        for i in 0..r.decides {
            let t = s + r.history + i;
            let start = Instant::now();
            let o = model.decide(r.panel, t, &prev, &mut cache);
            decide_us.push(us(start.elapsed()));
            prev.clone_from(&o.pre_actions);
            if outputs.len() < 2000 {
                outputs.push((t, o));
            }

            let start = Instant::now();
            black_box(windows.windows(r.panel, t));
            if i > 0 {
                warm.push(us(start.elapsed()));
            }

            let start = Instant::now();
            black_box(raw_window(r.panel, t, z));
            raw.push(us(start.elapsed()));

            let day = rows(r.panel, t, t + 1);
            let start = Instant::now();
            let resp = session.decide(model, &day);
            session_decide_us.push(us(start.elapsed()));
            resp.map_err(|e| format!("replayed decide failed: {}", e.render()))?;
        }
        let st = cache.stats();
        memo += st.memo_hits;
        incremental += st.incremental;
        full += st.full;
    }
    let mut cold = Vec::new();
    for &t in decide_days.iter().take(300) {
        let mut cache = model.new_cache();
        let start = Instant::now();
        black_box(cache.windows(r.panel, t));
        cold.push(us(start.elapsed()));
    }
    let core_decide = mean(&decide_us);
    // With one decide per session there is no warm call: the served
    // pattern is all cold, and so is its replay.
    let warm_us = if warm.is_empty() {
        mean(&cold)
    } else {
        mean(&warm)
    };
    let session_decide = mean(&session_decide_us);
    let lookups = (memo + incremental + full).max(1) as f64;
    out.set("core.decide_us", core_decide);
    out.set("dwt.incremental_share", incremental as f64 / lookups);
    out.set("dwt.windows_warm_us", warm_us);
    out.set("dwt.windows_cold_us", mean(&cold));
    out.set("dwt.raw_window_us", mean(&raw));
    out.set("core.forward_us", core_decide - warm_us - mean(&raw));
    out.set("session.decide_us", session_decide);
    out.set("session.history_copy_us", session_decide - core_decide);

    // Session open at the workload's history length.
    let histories: Vec<Vec<Vec<f64>>> = r
        .starts
        .iter()
        .map(|&s| rows(r.panel, s, s + r.history))
        .collect();
    let mut next = 0usize;
    out.set(
        "session.open_us",
        mean_call_us(5, Duration::from_millis(200), || {
            let history = &histories[next % histories.len()];
            next += 1;
            black_box(Session::open(model, "replay", "", history, r.max_history).is_ok());
        }),
    );

    // Protocol: the workload's own request lines and decision renders.
    let lines: Vec<String> = decide_days
        .iter()
        .take(2000)
        .map(|&t| {
            Request::Decide {
                session: "replay".into(),
                prices: rows(r.panel, t, t + 1),
            }
            .render()
        })
        .collect();
    let start = Instant::now();
    for line in &lines {
        Request::parse(black_box(line)).map_err(|e| format!("replayed parse failed: {e}"))?;
    }
    let parse_decide = us(start.elapsed()) / lines.len().max(1) as f64;
    out.set("protocol.parse_decide_us", parse_decide);
    let responses: Vec<Response> = outputs
        .into_iter()
        .map(|(t, o)| Response::Decision {
            session: "replay".into(),
            day: t,
            final_action: o.final_action,
            pre_actions: o.pre_actions,
            model: String::new(),
        })
        .collect();
    let start = Instant::now();
    for resp in &responses {
        black_box(resp.render());
    }
    let render = us(start.elapsed()) / responses.len().max(1) as f64;
    out.set("protocol.render_decision_us", render);
    let open_line = Request::Open {
        session: "replay".into(),
        prices: histories[0].clone(),
    }
    .render();
    out.set(
        "protocol.parse_open_us",
        mean_call_us(5, Duration::from_millis(200), || {
            black_box(Request::parse(black_box(&open_line)).is_ok());
        }),
    );

    // The session store at the workload's resident count.
    let store = SessionStore::new(cit_serve::ServeConfig::default().shards);
    let names: Vec<String> = (0..r.resident.max(1))
        .map(|j| format!("resident-{j}"))
        .collect();
    for (j, name) in names.iter().enumerate() {
        let s = r.starts[j % r.starts.len()];
        let session = Session::open(
            model,
            name,
            "",
            &rows(r.panel, s, s + r.history),
            r.max_history,
        )
        .map_err(|e| e.render())?;
        store.insert(session).map_err(|e| e.render())?;
    }
    let mut next = 0usize;
    out.set(
        "store.take_put_us",
        mean_call_us(10_000, Duration::from_millis(100), || {
            let name = &names[next % names.len()];
            next += 1;
            let session = store.take(name).expect("resident session");
            store.put_back(black_box(session));
        }),
    );

    kernel_layers(out);
    out.set(
        "compute.parallel_map_us",
        parallel_map_us(model.config().threads.max(1)),
    );
    out.note(format!(
        "layer replay: {} sessions x {} decides, {} history days, {} resident",
        r.starts.len(),
        r.decides,
        r.history,
        r.resident
    ));
    Ok(())
}

/// Deterministic fill for kernel operands.
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// The kernels at the shapes one paper-scale actor forward issues
/// (m = 11 assets, hidden 8, z = 32, kernel 3): the second TCN level's
/// dilated conv, the attention mix `S·H` (nn), and the conv weight and
/// input gradients of backward (nt, tn). Flops and bytes are computed
/// from the shapes, not measured.
fn kernel_layers(out: &mut Outcome) {
    let (m, f, z, k) = (11usize, 8usize, 32usize, 3usize);
    let x = Tensor::from_vec(&[m, f, z], fill(m * f * z, 1));
    let w = Tensor::from_vec(&[f, f, k], fill(f * f * k, 2));
    let b = Tensor::from_vec(&[f], fill(f, 3));
    let conv_us = mean_call_us(1000, Duration::from_millis(100), || {
        let mut g = Graph::new();
        let (xv, wv, bv) = (g.input(x.clone()), g.input(w.clone()), g.input(b.clone()));
        let y = g.conv1d(xv, wv, bv, 2);
        black_box(g.value(y).data()[0]);
    });
    let conv_flops = 2.0 * (m * f * f * k * z) as f64;
    let conv_bytes = 4 * (m * f * z * 2 + f * f * k + f + 2 * m * f * k * z);
    report_kernel(out, "conv1d", conv_us, conv_flops, conv_bytes);

    let shapes = [
        ("matmul_nn", m, m, f * z),
        ("matmul_nt", f, z, f * k),
        ("matmul_tn", f * k, f, z),
    ];
    for (name, mm, kk, nn) in shapes {
        let a = fill(mm * kk, 4);
        let bm = fill(kk * nn, 5);
        let t = mean_call_us(1000, Duration::from_millis(100), || {
            let c = match name {
                "matmul_nn" => kernels::matmul_nn(mm, kk, nn, black_box(&a), black_box(&bm)),
                "matmul_nt" => kernels::matmul_nt(mm, kk, nn, black_box(&a), black_box(&bm)),
                _ => kernels::matmul_tn(mm, kk, nn, black_box(&a), black_box(&bm)),
            };
            black_box(c[0]);
        });
        let bytes = 4 * (mm * kk + kk * nn + mm * nn);
        report_kernel(out, name, t, 2.0 * (mm * kk * nn) as f64, bytes);
    }
}

fn report_kernel(out: &mut Outcome, name: &str, call_us: f64, flops: f64, bytes: usize) {
    out.set(&format!("kernels.{name}_us"), call_us);
    out.set(&format!("kernels.{name}_gflops"), flops / call_us / 1e3);
    out.note(format!(
        "kernels.{name}: {flops} flops and {bytes} bytes per call (computed from shapes)"
    ));
}

/// `parallel_map` over a max-batch-sized list of trivial tasks: the
/// fan-out cost one serving batch pays.
fn parallel_map_us(threads: usize) -> f64 {
    let batch = cit_serve::ServeConfig::default().max_batch;
    mean_call_us(200, Duration::from_millis(100), || {
        let tasks: Vec<_> = (0..batch).map(|i| move || black_box(i * 3)).collect();
        black_box(cit_compute::parallel_map(threads, tasks));
    })
}
