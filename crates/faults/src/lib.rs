//! # cit-faults
//!
//! Deterministic, plan-driven fault injection for chaos-testing the
//! cross-insight-trader pipeline: NaN/Inf poisoning of named gradients and
//! tensors at a chosen optimiser update, `ErrorKind`-faked I/O failures on
//! checkpoint and fold writes, corrupted/missing/outlier market rows, and
//! delayed or truncated panel reads.
//!
//! A [`FaultPlan`] is a seeded list of typed [`Fault`]s with a line-based
//! text format (mirroring the checkpoint format), so a failing chaos run
//! can be reproduced bitwise from its plan file. The [`FaultInjector`]
//! follows the `cit-telemetry` handle pattern: the disabled default is an
//! `Option` check per injection point, so production code pays nothing
//! measurable when no plan is active.
//!
//! Every fault fires **exactly once** (interior fired-flags), keyed either
//! by an explicit index (optimiser update for gradient/tensor poison) or by
//! the per-site occurrence count (I/O sites). Fire-once semantics are what
//! make supervisor rollbacks converge: after a rollback replays past the
//! injection point, the fault does not re-fire and the recovered trajectory
//! matches an uninjected run bit-for-bit.
//!
//! ```
//! use cit_faults::{Fault, FaultInjector, FaultPlan, IoFaultKind, PoisonValue};
//!
//! let plan = FaultPlan {
//!     seed: 42,
//!     faults: vec![
//!         Fault::GradPoison { param: "pi0".into(), at_update: 3, value: PoisonValue::Nan },
//!         Fault::Io { site: "checkpoint.save".into(), at: 1, kind: IoFaultKind::Denied },
//!     ],
//! };
//! let parsed = FaultPlan::parse(&plan.to_string()).expect("round-trip");
//! assert_eq!(parsed, plan);
//!
//! let faults = FaultInjector::new(plan);
//! assert!(faults.io_error("checkpoint.save").is_some()); // occurrence 1 fires
//! assert!(faults.io_error("checkpoint.save").is_none()); // fire-once
//!
//! let off = FaultInjector::disabled();
//! assert!(!off.is_enabled());
//! assert!(off.io_error("checkpoint.save").is_none());
//! ```

#![deny(missing_docs)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Environment variable naming a fault-plan file to activate
/// ([`FaultInjector::from_env`]).
pub const FAULT_PLAN_ENV: &str = "CIT_FAULT_PLAN";

/// The non-finite value a poison fault writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoisonValue {
    /// `f32::NAN`.
    Nan,
    /// `f32::INFINITY`.
    Inf,
    /// `f32::NEG_INFINITY`.
    NegInf,
}

impl PoisonValue {
    /// The concrete `f32` injected.
    pub fn as_f32(self) -> f32 {
        match self {
            PoisonValue::Nan => f32::NAN,
            PoisonValue::Inf => f32::INFINITY,
            PoisonValue::NegInf => f32::NEG_INFINITY,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            PoisonValue::Nan => "nan",
            PoisonValue::Inf => "inf",
            PoisonValue::NegInf => "-inf",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "nan" => Some(PoisonValue::Nan),
            "inf" => Some(PoisonValue::Inf),
            "-inf" => Some(PoisonValue::NegInf),
            _ => None,
        }
    }
}

/// The `std::io::ErrorKind` a faked I/O failure reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// `ErrorKind::NotFound`.
    NotFound,
    /// `ErrorKind::PermissionDenied`.
    Denied,
    /// `ErrorKind::Interrupted`.
    Interrupted,
    /// `ErrorKind::BrokenPipe`.
    BrokenPipe,
    /// `ErrorKind::WouldBlock`.
    WouldBlock,
    /// `ErrorKind::Other`.
    Other,
}

impl IoFaultKind {
    /// The `std::io::ErrorKind` this fault fakes.
    pub fn error_kind(self) -> io::ErrorKind {
        match self {
            IoFaultKind::NotFound => io::ErrorKind::NotFound,
            IoFaultKind::Denied => io::ErrorKind::PermissionDenied,
            IoFaultKind::Interrupted => io::ErrorKind::Interrupted,
            IoFaultKind::BrokenPipe => io::ErrorKind::BrokenPipe,
            IoFaultKind::WouldBlock => io::ErrorKind::WouldBlock,
            IoFaultKind::Other => io::ErrorKind::Other,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            IoFaultKind::NotFound => "not-found",
            IoFaultKind::Denied => "denied",
            IoFaultKind::Interrupted => "interrupted",
            IoFaultKind::BrokenPipe => "broken-pipe",
            IoFaultKind::WouldBlock => "would-block",
            IoFaultKind::Other => "other",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "not-found" => Some(IoFaultKind::NotFound),
            "denied" => Some(IoFaultKind::Denied),
            "interrupted" => Some(IoFaultKind::Interrupted),
            "broken-pipe" => Some(IoFaultKind::BrokenPipe),
            "would-block" => Some(IoFaultKind::WouldBlock),
            "other" => Some(IoFaultKind::Other),
            _ => None,
        }
    }
}

/// One typed fault in a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Poison the gradient of the first parameter whose name starts with
    /// `param` at optimiser update `at_update` (0-indexed).
    GradPoison {
        /// Parameter-name prefix (e.g. `pi0`, `cross`, `critic`).
        param: String,
        /// The optimiser update at which to poison.
        at_update: u64,
        /// The non-finite value injected.
        value: PoisonValue,
    },
    /// Poison a named tensor (e.g. `pi0.latent`, `cross.latent`) at its
    /// `at`-th production (1-indexed occurrence of that site).
    TensorPoison {
        /// Site name the producer reports (see crate docs of the consumer).
        site: String,
        /// 1-indexed occurrence at which to poison.
        at: u64,
        /// The non-finite value injected.
        value: PoisonValue,
    },
    /// Fake an I/O failure at the `at`-th occurrence (1-indexed) of the
    /// named site (e.g. `checkpoint.save`, `fold.write`).
    Io {
        /// Site name the writer consults.
        site: String,
        /// 1-indexed occurrence at which to fail.
        at: u64,
        /// The faked error kind.
        kind: IoFaultKind,
    },
    /// Corrupt one market row: all OHLC features of (`day`, `asset`)
    /// become NaN at ingestion.
    MarketNan {
        /// Day index.
        day: usize,
        /// Asset index.
        asset: usize,
    },
    /// Drop one market row at ingestion (equivalent to a gap in the feed).
    MarketMissing {
        /// Day index.
        day: usize,
        /// Asset index.
        asset: usize,
    },
    /// Scale one market row's prices by `factor`, producing an outlier
    /// return (and a second one when the next day reverts).
    MarketOutlier {
        /// Day index.
        day: usize,
        /// Asset index.
        asset: usize,
        /// Multiplicative price distortion.
        factor: f64,
    },
    /// Truncate a panel read to its first `days` days.
    TruncateRead {
        /// Number of days the read returns.
        days: usize,
    },
    /// Delay a panel read by `millis` milliseconds (slow-feed simulation).
    DelayRead {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
    /// Impose a `millis` stall at the `at`-th occurrence (1-indexed) of
    /// the named site — a stalled socket, a slow disk, a delayed batcher
    /// completion (e.g. `serve.batch.complete`, `serve.sock.read`).
    Delay {
        /// Site name the caller consults.
        site: String,
        /// 1-indexed occurrence at which to stall.
        at: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Truncate the `at`-th write at the named site to its first `bytes`
    /// bytes — a torn spill file or a short socket write
    /// (e.g. `serve.spill.truncate`, `serve.sock.write`).
    PartialWrite {
        /// Site name the writer consults.
        site: String,
        /// 1-indexed occurrence at which to truncate.
        at: u64,
        /// Bytes that actually get written.
        bytes: usize,
    },
    /// Flip one byte (XOR `0xff`) at `offset` of the `at`-th write at the
    /// named site — silent on-disk corruption a checksum must catch
    /// (e.g. `serve.spill.corrupt`).
    CorruptWrite {
        /// Site name the writer consults.
        site: String,
        /// 1-indexed occurrence at which to corrupt.
        at: u64,
        /// Byte offset to flip (clamped to the payload by the writer).
        offset: usize,
    },
}

/// Errors raised while reading a fault plan.
#[derive(Debug)]
pub enum PlanError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the plan text.
    Malformed(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Io(e) => write!(f, "fault-plan io error: {e}"),
            PlanError::Malformed(m) => write!(f, "malformed fault plan: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<io::Error> for PlanError {
    fn from(e: io::Error) -> Self {
        PlanError::Io(e)
    }
}

const HEADER: &str = "cit-faults v1";

/// A seeded, ordered list of faults to inject into one run. The seed is
/// recorded so a chaos run's artifacts name the exact (plan, seed) pair
/// that reproduces it; the plan itself is fully deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed recorded with the plan (reported in telemetry/logs).
    pub seed: u64,
    /// The faults, each firing exactly once.
    pub faults: Vec<Fault>,
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        let _ = writeln!(out, "seed {}", self.seed);
        for fault in &self.faults {
            match fault {
                Fault::GradPoison {
                    param,
                    at_update,
                    value,
                } => {
                    let _ = writeln!(out, "grad {param} {at_update} {}", value.as_str());
                }
                Fault::TensorPoison { site, at, value } => {
                    let _ = writeln!(out, "tensor {site} {at} {}", value.as_str());
                }
                Fault::Io { site, at, kind } => {
                    let _ = writeln!(out, "io {site} {at} {}", kind.as_str());
                }
                Fault::MarketNan { day, asset } => {
                    let _ = writeln!(out, "market-nan {day} {asset}");
                }
                Fault::MarketMissing { day, asset } => {
                    let _ = writeln!(out, "market-missing {day} {asset}");
                }
                Fault::MarketOutlier { day, asset, factor } => {
                    let _ = writeln!(out, "market-outlier {day} {asset} {factor:e}");
                }
                Fault::TruncateRead { days } => {
                    let _ = writeln!(out, "truncate-read {days}");
                }
                Fault::DelayRead { millis } => {
                    let _ = writeln!(out, "delay-read {millis}");
                }
                Fault::Delay { site, at, millis } => {
                    let _ = writeln!(out, "delay {site} {at} {millis}");
                }
                Fault::PartialWrite { site, at, bytes } => {
                    let _ = writeln!(out, "partial-write {site} {at} {bytes}");
                }
                Fault::CorruptWrite { site, at, offset } => {
                    let _ = writeln!(out, "corrupt-write {site} {at} {offset}");
                }
            }
        }
        f.write_str(&out)
    }
}

impl FaultPlan {
    /// Parses the text format produced by the [`FaultPlan`] `Display` impl
    /// (`plan.to_string()`).
    /// Comments (`#`) and blank lines are tolerated anywhere, including
    /// before the header.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        let mut lines = text.lines().enumerate();
        let header = lines
            .by_ref()
            .map(|(_, l)| l)
            .find(|l| {
                let t = l.trim();
                !t.is_empty() && !t.starts_with('#')
            })
            .ok_or_else(|| PlanError::Malformed("empty plan".into()))?;
        if header.trim() != HEADER {
            return Err(PlanError::Malformed(format!("unexpected header: {header}")));
        }
        let mut plan = FaultPlan::default();
        for (idx, raw) in lines {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let bad = |what: &str| PlanError::Malformed(format!("line {lineno}: {what}: {line}"));
            let arg = |i: usize| -> Result<&str, PlanError> {
                parts.get(i).copied().ok_or_else(|| bad("missing field"))
            };
            let num = |i: usize| -> Result<u64, PlanError> {
                arg(i)?.parse().map_err(|_| bad("bad number"))
            };
            match parts[0] {
                "seed" => plan.seed = num(1)?,
                "grad" => plan.faults.push(Fault::GradPoison {
                    param: arg(1)?.to_string(),
                    at_update: num(2)?,
                    value: PoisonValue::parse(arg(3)?).ok_or_else(|| bad("bad poison value"))?,
                }),
                "tensor" => plan.faults.push(Fault::TensorPoison {
                    site: arg(1)?.to_string(),
                    at: num(2)?,
                    value: PoisonValue::parse(arg(3)?).ok_or_else(|| bad("bad poison value"))?,
                }),
                "io" => plan.faults.push(Fault::Io {
                    site: arg(1)?.to_string(),
                    at: num(2)?,
                    kind: IoFaultKind::parse(arg(3)?).ok_or_else(|| bad("bad io kind"))?,
                }),
                "market-nan" => plan.faults.push(Fault::MarketNan {
                    day: num(1)? as usize,
                    asset: num(2)? as usize,
                }),
                "market-missing" => plan.faults.push(Fault::MarketMissing {
                    day: num(1)? as usize,
                    asset: num(2)? as usize,
                }),
                "market-outlier" => plan.faults.push(Fault::MarketOutlier {
                    day: num(1)? as usize,
                    asset: num(2)? as usize,
                    factor: arg(3)?.parse().map_err(|_| bad("bad factor"))?,
                }),
                "truncate-read" => plan.faults.push(Fault::TruncateRead {
                    days: num(1)? as usize,
                }),
                "delay-read" => plan.faults.push(Fault::DelayRead { millis: num(1)? }),
                "delay" => plan.faults.push(Fault::Delay {
                    site: arg(1)?.to_string(),
                    at: num(2)?,
                    millis: num(3)?,
                }),
                "partial-write" => plan.faults.push(Fault::PartialWrite {
                    site: arg(1)?.to_string(),
                    at: num(2)?,
                    bytes: num(3)? as usize,
                }),
                "corrupt-write" => plan.faults.push(Fault::CorruptWrite {
                    site: arg(1)?.to_string(),
                    at: num(2)?,
                    offset: num(3)? as usize,
                }),
                _ => return Err(bad("unknown fault kind")),
            }
        }
        Ok(plan)
    }

    /// Loads a plan from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PlanError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Saves the plan to a file (parents created).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_string())
    }
}

struct Inner {
    plan: FaultPlan,
    /// One fire-once flag per fault, in plan order.
    fired: Vec<AtomicBool>,
    /// Per-site occurrence counters for `io`/`tensor` faults.
    counters: Mutex<BTreeMap<String, u64>>,
    /// Human-readable log of fired faults (for tests and telemetry).
    log: Mutex<Vec<String>>,
    /// Set by [`FaultInjector::release_stalls`]; `wake` ends the stalls
    /// in progress when it flips.
    released: Mutex<bool>,
    wake: Condvar,
}

/// The injection handle threaded through trainers, writers and ingestion.
///
/// Cloning is cheap (one `Arc`); clones share fired-flags and counters, so
/// a plan is consumed exactly once per injector regardless of how many
/// components hold a handle. The default value is disabled: every
/// injection point then costs a single `Option` branch.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl FaultInjector {
    /// The zero-cost disabled handle: every injection point is a no-op.
    pub fn disabled() -> Self {
        FaultInjector { inner: None }
    }

    /// An enabled handle executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = plan.faults.iter().map(|_| AtomicBool::new(false)).collect();
        FaultInjector {
            inner: Some(Arc::new(Inner {
                plan,
                fired,
                counters: Mutex::new(BTreeMap::new()),
                log: Mutex::new(Vec::new()),
                released: Mutex::new(false),
                wake: Condvar::new(),
            })),
        }
    }

    /// Resolves the `CIT_FAULT_PLAN` environment variable: unset (or empty)
    /// yields the disabled handle, otherwise the named plan file is loaded.
    pub fn from_env() -> Result<Self, PlanError> {
        match std::env::var(FAULT_PLAN_ENV) {
            Ok(path) if !path.trim().is_empty() => Ok(Self::new(FaultPlan::load(path.trim())?)),
            _ => Ok(Self::disabled()),
        }
    }

    /// `true` when a plan is active.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The active plan's recorded seed (`None` when disabled).
    pub fn seed(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.plan.seed)
    }

    /// Marks fault `idx` fired; returns `false` when it already had.
    fn fire(inner: &Inner, idx: usize, what: impl FnOnce() -> String) -> bool {
        if inner.fired[idx].swap(true, Ordering::SeqCst) {
            return false;
        }
        inner.log.lock().expect("faults log poisoned").push(what());
        true
    }

    /// Gradient-poison faults scheduled for optimiser update `update`.
    /// Returns `(param-prefix, value)` pairs; each fault fires once, so a
    /// supervisor rollback replaying this update is not re-poisoned.
    #[inline]
    pub fn grad_poison(&self, update: u64) -> Vec<(String, f32)> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            if let Fault::GradPoison {
                param,
                at_update,
                value,
            } = fault
            {
                if *at_update == update
                    && Self::fire(inner, idx, || {
                        format!(
                            "grad {param} poisoned ({}) at update {update}",
                            value.as_str()
                        )
                    })
                {
                    out.push((param.clone(), value.as_f32()));
                }
            }
        }
        out
    }

    /// Tensor poison for the named site, keyed by occurrence count (every
    /// call increments the site's counter). `None` when nothing fires.
    #[inline]
    pub fn tensor_poison(&self, site: &str) -> Option<f32> {
        let inner = self.inner.as_deref()?;
        let count = Self::bump(inner, site);
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            if let Fault::TensorPoison { site: s, at, value } = fault {
                if s == site
                    && *at == count
                    && Self::fire(inner, idx, || {
                        format!(
                            "tensor {site} poisoned ({}) at occurrence {count}",
                            value.as_str()
                        )
                    })
                {
                    return Some(value.as_f32());
                }
            }
        }
        None
    }

    /// Faked I/O failure for the named site, keyed by occurrence count
    /// (every call increments the site's counter). `None` when the write
    /// should proceed normally.
    #[inline]
    pub fn io_error(&self, site: &str) -> Option<io::Error> {
        let inner = self.inner.as_deref()?;
        let count = Self::bump(inner, site);
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            if let Fault::Io { site: s, at, kind } = fault {
                if s == site
                    && *at == count
                    && Self::fire(inner, idx, || {
                        format!("io {site} failed ({}) at occurrence {count}", kind.as_str())
                    })
                {
                    return Some(io::Error::new(
                        kind.error_kind(),
                        format!("injected fault: {site} occurrence {count}"),
                    ));
                }
            }
        }
        None
    }

    /// Market-row faults to apply at panel ingestion (each fires once).
    pub fn market_faults(&self) -> Vec<Fault> {
        let Some(inner) = self.inner.as_deref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            let market = matches!(
                fault,
                Fault::MarketNan { .. } | Fault::MarketMissing { .. } | Fault::MarketOutlier { .. }
            );
            if market && Self::fire(inner, idx, || format!("market fault applied: {fault:?}")) {
                out.push(fault.clone());
            }
        }
        out
    }

    /// Day count a truncated panel read should return (fires once).
    pub fn truncate_read(&self) -> Option<usize> {
        let inner = self.inner.as_deref()?;
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            if let Fault::TruncateRead { days } = fault {
                if Self::fire(inner, idx, || format!("read truncated to {days} days")) {
                    return Some(*days);
                }
            }
        }
        None
    }

    /// Sleep to impose on a panel read (fires once).
    pub fn read_delay(&self) -> Option<Duration> {
        let inner = self.inner.as_deref()?;
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            if let Fault::DelayRead { millis } = fault {
                if Self::fire(inner, idx, || format!("read delayed {millis} ms")) {
                    return Some(Duration::from_millis(*millis));
                }
            }
        }
        None
    }

    /// Site-keyed stall for the named site, keyed by occurrence count
    /// (every call increments the site's counter). The caller sleeps for
    /// the returned duration — a stalled socket, slow disk or delayed
    /// batcher completion. `None` when nothing fires.
    #[inline]
    pub fn delay_at(&self, site: &str) -> Option<Duration> {
        let inner = self.inner.as_deref()?;
        let count = Self::bump(inner, site);
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            if let Fault::Delay {
                site: s,
                at,
                millis,
            } = fault
            {
                if s == site
                    && *at == count
                    && Self::fire(inner, idx, || {
                        format!("delay {site} stalled {millis} ms at occurrence {count}")
                    })
                {
                    return Some(Duration::from_millis(*millis));
                }
            }
        }
        None
    }

    /// Stalls the calling thread when a delay fires at the named site
    /// (see [`FaultInjector::delay_at`]): for the fault's duration, or
    /// until [`FaultInjector::release_stalls`] ends it. Returns whether a
    /// stall fired.
    pub fn stall_at(&self, site: &str) -> bool {
        let Some(d) = self.delay_at(site) else {
            return false;
        };
        let inner = self.inner.as_deref().expect("a delay fired");
        let released = inner.released.lock().expect("faults release poisoned");
        let _ = inner
            .wake
            .wait_timeout_while(released, d, |released| !*released)
            .expect("faults release poisoned");
        true
    }

    /// Ends the stall in progress and every later one at once. A test
    /// holds a site with a delay far longer than it needs and releases
    /// it when it has seen what it waits for, so nothing it asserts
    /// depends on how long its own set-up took.
    pub fn release_stalls(&self) {
        if let Some(inner) = self.inner.as_deref() {
            *inner.released.lock().expect("faults release poisoned") = true;
            inner.wake.notify_all();
        }
    }

    /// Byte cap for a truncated write at the named site, keyed by
    /// occurrence count. The writer persists only the first `n` bytes —
    /// a torn spill file or a short socket write. `None` when the write
    /// should complete normally.
    #[inline]
    pub fn partial_write(&self, site: &str) -> Option<usize> {
        let inner = self.inner.as_deref()?;
        let count = Self::bump(inner, site);
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            if let Fault::PartialWrite { site: s, at, bytes } = fault {
                if s == site
                    && *at == count
                    && Self::fire(inner, idx, || {
                        format!("write {site} truncated to {bytes} bytes at occurrence {count}")
                    })
                {
                    return Some(*bytes);
                }
            }
        }
        None
    }

    /// Byte offset to flip (XOR `0xff`) in a write at the named site,
    /// keyed by occurrence count — silent corruption for checksum tests.
    /// The writer clamps the offset to the payload length. `None` when
    /// the write should proceed untouched.
    #[inline]
    pub fn corrupt_write(&self, site: &str) -> Option<usize> {
        let inner = self.inner.as_deref()?;
        let count = Self::bump(inner, site);
        for (idx, fault) in inner.plan.faults.iter().enumerate() {
            if let Fault::CorruptWrite {
                site: s,
                at,
                offset,
            } = fault
            {
                if s == site
                    && *at == count
                    && Self::fire(inner, idx, || {
                        format!("write {site} corrupted at byte {offset}, occurrence {count}")
                    })
                {
                    return Some(*offset);
                }
            }
        }
        None
    }

    /// Human-readable log of every fault fired so far.
    pub fn fired_log(&self) -> Vec<String> {
        match self.inner.as_deref() {
            Some(inner) => inner.log.lock().expect("faults log poisoned").clone(),
            None => Vec::new(),
        }
    }

    /// Number of faults fired so far.
    pub fn fired_count(&self) -> usize {
        match self.inner.as_deref() {
            Some(inner) => inner
                .fired
                .iter()
                .filter(|f| f.load(Ordering::SeqCst))
                .count(),
            None => 0,
        }
    }

    fn bump(inner: &Inner, site: &str) -> u64 {
        let mut counters = inner.counters.lock().expect("faults counters poisoned");
        let c = counters.entry(site.to_string()).or_insert(0);
        *c += 1;
        *c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            seed: 7,
            faults: vec![
                Fault::GradPoison {
                    param: "pi0".into(),
                    at_update: 3,
                    value: PoisonValue::Nan,
                },
                Fault::TensorPoison {
                    site: "cross.latent".into(),
                    at: 2,
                    value: PoisonValue::Inf,
                },
                Fault::Io {
                    site: "checkpoint.save".into(),
                    at: 2,
                    kind: IoFaultKind::Denied,
                },
                Fault::MarketNan { day: 5, asset: 1 },
                Fault::MarketMissing { day: 6, asset: 0 },
                Fault::MarketOutlier {
                    day: 9,
                    asset: 2,
                    factor: 40.0,
                },
                Fault::TruncateRead { days: 64 },
                Fault::DelayRead { millis: 1 },
                Fault::Delay {
                    site: "serve.batch.complete".into(),
                    at: 2,
                    millis: 3,
                },
                Fault::PartialWrite {
                    site: "serve.spill.truncate".into(),
                    at: 1,
                    bytes: 40,
                },
                Fault::CorruptWrite {
                    site: "serve.spill.corrupt".into(),
                    at: 1,
                    offset: 9,
                },
            ],
        }
    }

    #[test]
    fn plan_text_roundtrip() {
        let plan = sample_plan();
        let text = plan.to_string();
        assert!(text.starts_with(HEADER));
        let parsed = FaultPlan::parse(&text).expect("parse");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn plan_tolerates_comments_and_blank_lines() {
        let text = "cit-faults v1\n\n# chaos\nseed 9\ngrad cross 1 inf\n";
        let plan = FaultPlan::parse(text).expect("parse");
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.faults.len(), 1);
    }

    #[test]
    fn plan_rejects_garbage() {
        assert!(FaultPlan::parse("nope\n").is_err());
        assert!(FaultPlan::parse("cit-faults v1\nexplode everything\n").is_err());
        assert!(FaultPlan::parse("cit-faults v1\ngrad pi0 3 sideways\n").is_err());
        assert!(FaultPlan::parse("cit-faults v1\nio checkpoint.save x denied\n").is_err());
    }

    #[test]
    fn grad_poison_fires_once_at_its_update() {
        let faults = FaultInjector::new(sample_plan());
        assert!(faults.grad_poison(0).is_empty());
        let hits = faults.grad_poison(3);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "pi0");
        assert!(hits[0].1.is_nan());
        // A rollback replaying update 3 is not re-poisoned.
        assert!(faults.grad_poison(3).is_empty());
    }

    #[test]
    fn io_fault_fires_at_exact_occurrence() {
        let faults = FaultInjector::new(sample_plan());
        assert!(faults.io_error("checkpoint.save").is_none()); // occurrence 1
        let err = faults.io_error("checkpoint.save").expect("occurrence 2");
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        assert!(faults.io_error("checkpoint.save").is_none()); // fire-once
        assert!(faults.io_error("fold.write").is_none()); // different site
    }

    #[test]
    fn tensor_poison_counts_site_occurrences() {
        let faults = FaultInjector::new(sample_plan());
        assert!(faults.tensor_poison("cross.latent").is_none());
        let v = faults.tensor_poison("cross.latent").expect("occurrence 2");
        assert!(v.is_infinite());
        assert!(faults.tensor_poison("cross.latent").is_none());
    }

    #[test]
    fn market_and_read_faults_fire_once() {
        let faults = FaultInjector::new(sample_plan());
        assert_eq!(faults.market_faults().len(), 3);
        assert!(faults.market_faults().is_empty());
        assert_eq!(faults.truncate_read(), Some(64));
        assert_eq!(faults.truncate_read(), None);
        assert_eq!(faults.read_delay(), Some(Duration::from_millis(1)));
        assert_eq!(faults.read_delay(), None);
    }

    #[test]
    fn serve_plane_faults_fire_at_exact_occurrences() {
        let faults = FaultInjector::new(sample_plan());
        assert_eq!(faults.delay_at("serve.batch.complete"), None); // occ 1
        assert_eq!(
            faults.delay_at("serve.batch.complete"),
            Some(Duration::from_millis(3))
        );
        assert_eq!(faults.delay_at("serve.batch.complete"), None); // fire-once
        assert_eq!(faults.partial_write("serve.spill.truncate"), Some(40));
        assert_eq!(faults.partial_write("serve.spill.truncate"), None);
        assert_eq!(faults.corrupt_write("serve.spill.corrupt"), Some(9));
        assert_eq!(faults.corrupt_write("serve.spill.corrupt"), None);
        // Different sites keep independent counters.
        assert_eq!(faults.partial_write("serve.sock.write"), None);
    }

    #[test]
    fn same_plan_reproduces_the_same_firing_sequence() {
        let drive = |faults: &FaultInjector| {
            for u in 0..6 {
                let _ = faults.grad_poison(u);
            }
            for _ in 0..3 {
                let _ = faults.io_error("checkpoint.save");
                let _ = faults.tensor_poison("cross.latent");
            }
            let _ = faults.market_faults();
            faults.fired_log()
        };
        let a = drive(&FaultInjector::new(sample_plan()));
        let b = drive(&FaultInjector::new(sample_plan()));
        assert_eq!(a, b, "same plan + seed must reproduce the same failures");
        assert!(!a.is_empty());
    }

    #[test]
    fn disabled_injector_is_inert() {
        let off = FaultInjector::disabled();
        assert!(!off.is_enabled());
        assert!(off.grad_poison(0).is_empty());
        assert!(off.io_error("checkpoint.save").is_none());
        assert!(off.tensor_poison("x").is_none());
        assert!(off.market_faults().is_empty());
        assert_eq!(off.fired_count(), 0);
    }

    #[test]
    fn from_env_loads_plan_file() {
        let dir = std::env::temp_dir().join(format!("cit_faults_env_{}", std::process::id()));
        let path = dir.join("plan.txt");
        sample_plan().save(&path).expect("save plan");
        // Note: set_var is process-global; this is the only test touching it.
        std::env::set_var(FAULT_PLAN_ENV, &path);
        let faults = FaultInjector::from_env().expect("from_env");
        assert!(faults.is_enabled());
        assert_eq!(faults.seed(), Some(7));
        std::env::set_var(FAULT_PLAN_ENV, "");
        let off = FaultInjector::from_env().expect("empty -> disabled");
        assert!(!off.is_enabled());
        std::env::remove_var(FAULT_PLAN_ENV);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clones_share_fired_state() {
        let a = FaultInjector::new(sample_plan());
        let b = a.clone();
        assert_eq!(a.grad_poison(3).len(), 1);
        assert!(b.grad_poison(3).is_empty(), "clone shares fire-once flags");
        assert_eq!(b.fired_count(), 1);
    }

    #[test]
    fn released_stalls_end_early() {
        // A ten-minute stall: the test would time out long before it
        // ended on its own.
        let plan = FaultPlan {
            seed: 1,
            faults: vec![Fault::Delay {
                site: "serve.batch.complete".into(),
                at: 1,
                millis: 600_000,
            }],
        };
        let faults = FaultInjector::new(plan);
        let held = faults.clone();
        let stalled = std::thread::spawn(move || held.stall_at("serve.batch.complete"));
        while faults.fired_count() == 0 {
            std::thread::yield_now();
        }
        faults.release_stalls();
        assert!(stalled.join().unwrap(), "the stall fired and ended");
        assert!(!faults.stall_at("serve.batch.complete"), "fire-once");
        assert!(!FaultInjector::disabled().stall_at("serve.batch.complete"));
    }
}
