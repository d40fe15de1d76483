//! The metric tables and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`; a run prints
//! every end-to-end metric (untraced) or every per-layer metric (traced)
//! as the last line of standard output, after human-readable lines.

use std::collections::BTreeMap;

/// End-to-end metrics: name and unit. Every workload reports all of them;
/// README.md defines what each means on each workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("p50_us", "us"),
    ("slow_us", "us"),
];

/// Per-layer metrics: name and unit. A layer a workload leaves idle
/// reports zero there.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("train.rollout_ms", "ms"),
    ("train.targets_ms", "ms"),
    ("train.advantages_ms", "ms"),
    ("train.graph_build_ms", "ms"),
    ("train.opt_step_ms", "ms"),
    ("train.step_ms", "ms"),
    ("train.span_coverage", "ratio"),
    ("actor.forward_us", "us"),
    ("dwt.horizon_windows_us", "us"),
    ("critic.update_us", "us"),
    ("nn.tcn_forward_us", "us"),
    ("nn.attention_forward_us", "us"),
    ("nn.backward_ms", "ms"),
    ("dwt.incremental_share", "ratio"),
    ("dwt.windows_warm_us", "us"),
    ("dwt.windows_cold_us", "us"),
    ("dwt.raw_window_us", "us"),
    ("core.decide_us", "us"),
    ("core.forward_us", "us"),
    ("kernels.conv1d_us", "us"),
    ("kernels.matmul_nn_us", "us"),
    ("kernels.matmul_nt_us", "us"),
    ("kernels.matmul_tn_us", "us"),
    ("kernels.conv1d_gflops", "GFLOP/s"),
    ("kernels.matmul_nn_gflops", "GFLOP/s"),
    ("kernels.matmul_nt_gflops", "GFLOP/s"),
    ("kernels.matmul_tn_gflops", "GFLOP/s"),
    ("compute.parallel_map_us", "us"),
    ("protocol.parse_decide_us", "us"),
    ("protocol.render_decision_us", "us"),
    ("protocol.parse_open_us", "us"),
    ("session.decide_us", "us"),
    ("session.open_us", "us"),
    ("session.history_copy_us", "us"),
    ("store.take_put_us", "us"),
    ("serve.server_decide_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches_per_s", "1/s"),
    ("serve.rejected", "count"),
    ("serve.reject_ratio", "ratio"),
    ("net.client_overhead_us", "us"),
    ("spill.evicted", "count"),
    ("spill.restored", "count"),
    ("spill.restore_us", "us"),
    ("loadgen.late_us_p99", "us"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one run produced: operation accounting, metric values and the
/// human-readable lines printed before the result.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (mismatched decisions, non-finite rewards).
    pub mismatches: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records an output-check failure; the run then reports
    /// `"correct": false`.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.mismatches.push(what.into());
    }

    /// Prints the human-readable lines, then the result object as the
    /// last line. Fails when a required metric is missing or not finite.
    pub fn print(&self, workload: &str, traced: bool) -> Result<(), String> {
        if self.attempted == 0 {
            return Err(format!("{workload}: no operation was attempted"));
        }
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for line in &self.lines {
            println!("# {line}");
        }
        for m in self.mismatches.iter().take(10) {
            println!("# check failed: {m}");
        }
        let mut fields = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                // Idle layers read zero; an end-to-end metric is never idle.
                None if traced => 0.0,
                None => return Err(format!("{workload}: metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("{workload}: metric {name} is not finite ({value})"));
            }
            println!("# {workload} {name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}
