//! The repository benchmark: four workloads over the paper-scale model,
//! end-to-end metrics untraced and per-layer metrics traced.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_c1 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `train`, `serve_c1`, `serve_open`, `serve_churn` (see
//! README.md for why each exists and what each metric means on it). The
//! last line of standard output is the result object; everything before
//! it is human-readable and starts with `#`.

mod inputs;
mod layers;
mod loadgen;
mod report;
mod serve;
mod stats;
mod train;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<report::Outcome, String> {
    let scratch = inputs::Scratch::create()?;
    match args.workload.as_str() {
        "train" => train::run(args),
        "serve_c1" => serve::run_c1(args, &scratch),
        "serve_open" => serve::run_open(args, &scratch),
        "serve_churn" => serve::run_churn(args, &scratch),
        other => Err(format!(
            "unknown workload {other} (train, serve_c1, serve_open, serve_churn)"
        )),
    }
}

fn main() {
    let result = parse_args().and_then(|args| {
        let outcome = run(&args)?;
        outcome.print(&args.workload, args.trace)
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
