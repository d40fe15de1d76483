//! `cit-serve` — run a decision server from the command line.
//!
//! ```text
//! cit-serve [--addr HOST:PORT] [--admin HOST:PORT] [--checkpoint PATH | --untrained]
//!           [--model NAME=PATH]... [--router-seed S]
//!           [--assets N] [--seed S] [--full-config] [--debug-ops]
//!           [--queue-cap N] [--addr-file PATH]
//!           [--spill-dir DIR] [--session-ttl-ms N] [--tick-ms N]
//!           [--request-deadline-ms N]
//! ```
//!
//! Prints a single `READY addr=... admin=...` line once both listeners
//! are bound (and optionally writes the same addresses to `--addr-file`
//! so scripts can pick an ephemeral port with `--addr 127.0.0.1:0`),
//! then blocks until a client sends the `shutdown` op.
//!
//! `--checkpoint`/`--untrained` populate the **default** model slot;
//! each repeated `--model NAME=PATH` hosts an additional named slot
//! (same architecture, addressed by the optional `model` field on the
//! wire — see `PROTOCOL.md`). `--router-seed` seeds the deterministic
//! regime router behind `open {"model":"auto"}`.
//!
//! `--request-deadline-ms` sheds queued requests that waited longer than
//! the budget with a typed `deadline_exceeded` reject. Setting the
//! `CIT_FAULT_PLAN` environment variable to a `cit-faults` plan path
//! arms serve-plane fault injection (socket/spill/reload faults) for
//! chaos testing — see `crates/faults/plans/serve_chaos.plan`.

use cit_core::{CitConfig, DecisionModel};
use cit_serve::{NamedModel, ServeConfig, Server, AUTO_MODEL, DEFAULT_MODEL};
use std::io::Write;
use std::process::exit;
use std::time::Duration;

const USAGE: &str = "usage: cit-serve [--addr HOST:PORT] [--admin HOST:PORT]\n                 [--checkpoint PATH | --untrained] [--model NAME=PATH]...\n                 [--router-seed S] [--assets N] [--seed S]\n                 [--full-config] [--debug-ops] [--queue-cap N] [--addr-file PATH]\n                 [--spill-dir DIR] [--session-ttl-ms N] [--tick-ms N]\n                 [--request-deadline-ms N]   (env: CIT_FAULT_PLAN=<plan>)";

struct Args {
    addr: String,
    admin: Option<String>,
    checkpoint: Option<String>,
    extra_models: Vec<(String, String)>,
    router_seed: u64,
    assets: usize,
    seed: u64,
    full_config: bool,
    debug_ops: bool,
    queue_cap: Option<usize>,
    addr_file: Option<String>,
    spill_dir: Option<String>,
    session_ttl_ms: Option<u64>,
    tick_ms: Option<u64>,
    request_deadline_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        admin: None,
        checkpoint: None,
        extra_models: Vec::new(),
        router_seed: 0,
        assets: 4,
        seed: 7,
        full_config: false,
        debug_ops: false,
        queue_cap: None,
        addr_file: None,
        spill_dir: None,
        session_ttl_ms: None,
        tick_ms: None,
        request_deadline_ms: None,
    };
    let mut i = 1;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = value(&mut i)?,
            "--admin" => args.admin = Some(value(&mut i)?),
            "--checkpoint" => args.checkpoint = Some(value(&mut i)?),
            "--untrained" => args.checkpoint = None,
            "--model" => {
                let spec = value(&mut i)?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--model expects NAME=PATH, got {spec:?}"))?;
                if name.is_empty() || path.is_empty() {
                    return Err(format!("--model expects NAME=PATH, got {spec:?}"));
                }
                if name == DEFAULT_MODEL || name == AUTO_MODEL {
                    return Err(format!(
                        "--model name {name:?} is reserved ({DEFAULT_MODEL:?} is the \
                         --checkpoint slot, {AUTO_MODEL:?} invokes the router)"
                    ));
                }
                args.extra_models.push((name.to_string(), path.to_string()));
            }
            "--router-seed" => {
                args.router_seed = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--router-seed: {e}"))?
            }
            "--assets" => {
                args.assets = value(&mut i)?
                    .parse()
                    .map_err(|e| format!("--assets: {e}"))?
            }
            "--seed" => args.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--full-config" => args.full_config = true,
            "--debug-ops" => args.debug_ops = true,
            "--queue-cap" => {
                args.queue_cap = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--queue-cap: {e}"))?,
                )
            }
            "--addr-file" => args.addr_file = Some(value(&mut i)?),
            "--spill-dir" => args.spill_dir = Some(value(&mut i)?),
            "--session-ttl-ms" => {
                args.session_ttl_ms = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--session-ttl-ms: {e}"))?,
                )
            }
            "--tick-ms" => {
                args.tick_ms = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--tick-ms: {e}"))?,
                )
            }
            "--request-deadline-ms" => {
                args.request_deadline_ms = Some(
                    value(&mut i)?
                        .parse()
                        .map_err(|e| format!("--request-deadline-ms: {e}"))?,
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cit-serve: {e}");
            exit(2);
        }
    };

    // The on-disk checkpoint format stores parameters only, so the
    // architecture must be supplied: the smoke config matches what
    // `servebench`/`ci.sh` train, `--full-config` the paper-sized one.
    let cfg = if args.full_config {
        CitConfig {
            seed: args.seed,
            ..CitConfig::default()
        }
    } else {
        CitConfig::smoke(args.seed)
    };
    let (model, label) = match &args.checkpoint {
        Some(path) => match DecisionModel::from_checkpoint(path, cfg, args.assets) {
            Ok(m) => (m, path.clone()),
            Err(e) => {
                eprintln!("cit-serve: cannot load {path:?}: {e}");
                exit(1);
            }
        },
        None => match DecisionModel::untrained(cfg, args.assets) {
            Ok(m) => (m, format!("untrained(seed={})", args.seed)),
            Err(e) => {
                eprintln!("cit-serve: cannot build untrained model: {e}");
                exit(1);
            }
        },
    };
    // Slot 0 is the default; each --model NAME=PATH loads into an extra
    // named slot sharing the same architecture config.
    let mut models = vec![NamedModel {
        name: DEFAULT_MODEL.to_string(),
        model,
        checkpoint_label: label,
    }];
    for (name, path) in &args.extra_models {
        match DecisionModel::from_checkpoint(path, cfg, args.assets) {
            Ok(m) => models.push(NamedModel {
                name: name.clone(),
                model: m,
                checkpoint_label: path.clone(),
            }),
            Err(e) => {
                eprintln!("cit-serve: cannot load model {name:?} from {path:?}: {e}");
                exit(1);
            }
        }
    }

    let mut serve_cfg = ServeConfig {
        addr: args.addr,
        admin_addr: args.admin,
        checkpoint_label: models[0].checkpoint_label.clone(),
        debug_ops: args.debug_ops,
        router_seed: args.router_seed,
        ..ServeConfig::default()
    };
    if let Some(cap) = args.queue_cap {
        serve_cfg.queue_cap = cap;
    }
    if let Some(dir) = &args.spill_dir {
        serve_cfg.spill_dir = Some(dir.into());
    }
    if let Some(ttl) = args.session_ttl_ms {
        if args.spill_dir.is_none() {
            eprintln!("cit-serve: --session-ttl-ms requires --spill-dir");
            exit(2);
        }
        serve_cfg.session_ttl = Some(Duration::from_millis(ttl));
    }
    if let Some(tick) = args.tick_ms {
        serve_cfg.tick_ms = tick;
    }
    if let Some(deadline) = args.request_deadline_ms {
        serve_cfg.request_deadline = Some(Duration::from_millis(deadline));
    }
    // Arm serve-plane fault injection when CIT_FAULT_PLAN names a plan;
    // the default is the zero-cost disabled injector.
    match cit_faults::FaultInjector::from_env() {
        Ok(faults) => {
            if faults.is_enabled() {
                eprintln!(
                    "cit-serve: fault injection armed (seed {:?})",
                    faults.seed()
                );
            }
            serve_cfg.faults = faults;
        }
        Err(e) => {
            eprintln!("cit-serve: bad CIT_FAULT_PLAN: {e}");
            exit(2);
        }
    }

    let server = match Server::start_multi(models, serve_cfg, cit_telemetry::Telemetry::disabled())
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cit-serve: cannot start server: {e}");
            exit(1);
        }
    };

    let admin = server
        .admin_addr()
        .map_or_else(|| "-".to_string(), |a| a.to_string());
    if let Some(path) = &args.addr_file {
        let body = format!("addr={}\nadmin={}\n", server.addr(), admin);
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cit-serve: cannot write {path:?}: {e}");
            exit(1);
        }
    }
    eprintln!(
        "cit-serve: matmul kernels {}",
        cit_compute::autotune::simd_level()
    );
    println!("READY addr={} admin={admin}", server.addr());
    let _ = std::io::stdout().flush();

    // Block until a client asks for a drain, then join everything.
    while !server.is_draining() {
        std::thread::sleep(Duration::from_millis(100));
    }
    server.shutdown();
}
