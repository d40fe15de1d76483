//! The newline-delimited JSON line protocol.
//!
//! One request per line, one response per line, UTF-8. Every request is a
//! JSON object with an `"op"` field; every response carries `"ok"`
//! (`true`/`false`) and echoes the operation. Prices travel as
//! `[days][m·4]` matrices: one row per trading day, each row the
//! `m` assets' OHLC quadruples in asset order — the exact memory layout
//! of [`cit_market::AssetPanel`].
//!
//! | op | request fields | success fields |
//! |----|----------------|----------------|
//! | `open` | `session`, `prices`, optional `model` | `days` |
//! | `decide` | `session`, optional `prices`, optional `model` | `day`, `final_action`, `pre_actions` |
//! | `close` | `session` | — |
//! | `info` | optional `model` | `sessions`, `num_assets`, `num_params`, `window`, `policies` |
//! | `stats` | — | live operational metrics (see [`ServerStats`]) |
//! | `reload` | `checkpoint`, optional `model` | `num_params` |
//! | `shutdown` | — | — |
//! | `sleep` | `ms` (debug builds of the server only) | `ms` |
//!
//! The optional `model` field selects one of the server's named model
//! slots; requests without it address the **default** slot, byte for
//! byte as before multi-model serving existed. `open {"model":"auto"}`
//! asks the server's deterministic meta-router to pick the slot from the
//! open history's market regime. A request naming an unknown slot is
//! rejected with a typed `model_not_found`. In the typed [`Request`]
//! enum the model-addressed forms are separate `*As` variants
//! ([`Request::OpenAs`], [`Request::DecideAs`], [`Request::InfoAs`],
//! [`Request::ReloadAs`]) so that model-oblivious clients keep compiling
//! and keep emitting the exact pre-multi-model wire bytes.
//!
//! The complete versioned wire reference — every op's request/response
//! shape, every error kind's retryability, backpressure and deadline
//! semantics, worked `nc` examples — lives in `PROTOCOL.md` at the repo
//! root.
//!
//! Failures: `{"ok":false,"kind":"<kind>","error":"<message>"}` with
//! [`ErrorKind`] naming the reject class. `overloaded` is the
//! backpressure signal and `deadline_exceeded` the load-shedding one —
//! both guarantee the request touched no session state, so retrying
//! (with backoff, see [`crate::RetryPolicy`]) is always safe;
//! `session_lost` means the session's spilled state was corrupt on disk
//! and has been quarantined.

use crate::json::Json;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a session seeded with at least `window` days of history,
    /// pinned to the **default** model slot.
    Open {
        /// Client-chosen session id.
        session: String,
        /// Price history, one `[m·4]` OHLC row per day.
        prices: Vec<Vec<f64>>,
    },
    /// `open` addressed at a named model slot (`"auto"` asks the
    /// meta-router to pick one from the history's market regime). The
    /// session is pinned to the resolved slot for its whole life,
    /// including across spill/restore.
    OpenAs {
        /// Client-chosen session id.
        session: String,
        /// Price history, one `[m·4]` OHLC row per day.
        prices: Vec<Vec<f64>>,
        /// Model slot name, or `"auto"` for router selection.
        model: String,
    },
    /// Append zero or more days, then decide on the latest day.
    Decide {
        /// Session id from a prior `open`.
        session: String,
        /// New days to append before deciding (may be empty).
        prices: Vec<Vec<f64>>,
    },
    /// `decide` carrying an explicit model slot name: the server verifies
    /// the slot exists (`model_not_found` otherwise) and matches the
    /// session's pin (`bad_request` otherwise) — a guard for clients that
    /// track which model their session runs on.
    DecideAs {
        /// Session id from a prior `open`.
        session: String,
        /// New days to append before deciding (may be empty).
        prices: Vec<Vec<f64>>,
        /// Model slot the session is expected to be pinned to.
        model: String,
    },
    /// Drop a session.
    Close {
        /// Session id to drop.
        session: String,
    },
    /// Server/model introspection (default model slot).
    Info,
    /// `info` for one named model slot: model-specific fields
    /// (`num_params`, `checkpoint`) and the count of sessions pinned to
    /// that slot.
    InfoAs {
        /// Model slot to introspect.
        model: String,
    },
    /// Live operational metrics (req/s, latency windows, queue depth).
    Stats,
    /// Atomically swap a new checkpoint into the default model slot
    /// (same architecture).
    Reload {
        /// Path to a cit-params checkpoint on the server's filesystem.
        checkpoint: String,
    },
    /// `reload` addressed at a named model slot; other slots (and every
    /// in-flight session pinned to them) are untouched.
    ReloadAs {
        /// Path to a cit-params checkpoint on the server's filesystem.
        checkpoint: String,
        /// Model slot to swap.
        model: String,
    },
    /// Begin graceful drain: stop accepting, finish queued work.
    Shutdown,
    /// Debug: stall the batcher (only honoured with
    /// [`crate::ServeConfig::debug_ops`]).
    Sleep {
        /// Stall duration in milliseconds.
        ms: u64,
    },
}

/// Reject classes a client can branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON or missing/invalid fields.
    BadRequest,
    /// The bounded decision queue is full — retry later (backpressure).
    Overloaded,
    /// `decide`/`close` for a session that does not exist.
    UnknownSession,
    /// `open` for a session id already in use.
    SessionExists,
    /// Checkpoint reload failed (file missing / architecture mismatch);
    /// the previous model stays active.
    ReloadFailed,
    /// The server is draining and no longer takes new work.
    ShuttingDown,
    /// Invalid price data (wrong row width, non-positive, non-finite).
    BadData,
    /// The session's spilled state was corrupt or truncated on disk; the
    /// file has been quarantined (`*.corrupt`) and the session is gone.
    /// Re-`open` with fresh history to continue.
    SessionLost,
    /// The request sat in the batcher queue past
    /// [`crate::ServeConfig::request_deadline`] and was shed instead of
    /// being answered stale — retry, like `overloaded`.
    DeadlineExceeded,
    /// The request named a model slot the server does not host (or used
    /// `"auto"` outside `open`). The set of slots is fixed at startup;
    /// ask `stats` for the live list.
    ModelNotFound,
}

impl ErrorKind {
    /// Number of reject classes — the length every per-kind stats table
    /// must have.
    pub const COUNT: usize = 10;

    /// The kind's position in [`ErrorKind::ALL`] (and in the server's
    /// per-kind error counters). The match is exhaustive on purpose:
    /// adding a kind without extending [`ErrorKind::ALL`] (and `COUNT`)
    /// fails to compile via the const assertions below.
    pub const fn index(self) -> usize {
        match self {
            ErrorKind::BadRequest => 0,
            ErrorKind::Overloaded => 1,
            ErrorKind::UnknownSession => 2,
            ErrorKind::SessionExists => 3,
            ErrorKind::ReloadFailed => 4,
            ErrorKind::ShuttingDown => 5,
            ErrorKind::BadData => 6,
            ErrorKind::SessionLost => 7,
            ErrorKind::DeadlineExceeded => 8,
            ErrorKind::ModelNotFound => 9,
        }
    }

    /// Every reject class, in wire-tag order — the index basis for the
    /// server's per-kind error counters.
    pub const ALL: [ErrorKind; Self::COUNT] = [
        ErrorKind::BadRequest,
        ErrorKind::Overloaded,
        ErrorKind::UnknownSession,
        ErrorKind::SessionExists,
        ErrorKind::ReloadFailed,
        ErrorKind::ShuttingDown,
        ErrorKind::BadData,
        ErrorKind::SessionLost,
        ErrorKind::DeadlineExceeded,
        ErrorKind::ModelNotFound,
    ];

    /// The wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::SessionExists => "session_exists",
            ErrorKind::ReloadFailed => "reload_failed",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::BadData => "bad_data",
            ErrorKind::SessionLost => "session_lost",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::ModelNotFound => "model_not_found",
        }
    }

    /// Parses a wire tag back into a kind (client side).
    pub fn from_tag(tag: &str) -> Option<ErrorKind> {
        Some(match tag {
            "bad_request" => ErrorKind::BadRequest,
            "overloaded" => ErrorKind::Overloaded,
            "unknown_session" => ErrorKind::UnknownSession,
            "session_exists" => ErrorKind::SessionExists,
            "reload_failed" => ErrorKind::ReloadFailed,
            "shutting_down" => ErrorKind::ShuttingDown,
            "bad_data" => ErrorKind::BadData,
            "session_lost" => ErrorKind::SessionLost,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "model_not_found" => ErrorKind::ModelNotFound,
            _ => return None,
        })
    }

    /// A reject the server answers **before** touching any session state
    /// (`overloaded` is refused at the queue, `deadline_exceeded` is shed
    /// before compute), so retrying the identical request is always safe.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorKind::Overloaded | ErrorKind::DeadlineExceeded)
    }

    /// A reject that sheds load instead of answering: `overloaded`,
    /// `deadline_exceeded` and `shutting_down`. The server-wide latency
    /// histograms leave these out, so their percentiles describe answered
    /// requests only.
    pub(crate) fn is_shed(self) -> bool {
        self.is_retryable() || self == ErrorKind::ShuttingDown
    }
}

// Compile-time sync between `index()` (an exhaustive match — the thing
// that actually breaks when a kind is added) and the `ALL` table every
// stats/counter array is sized from.
const _: () = {
    let mut i = 0;
    while i < ErrorKind::COUNT {
        assert!(
            ErrorKind::ALL[i].index() == i,
            "ErrorKind::ALL out of sync with ErrorKind::index()"
        );
        i += 1;
    }
};

/// One trailing window's server-side traffic digest inside
/// [`ServerStats`]: request rate and latency quantiles over the last
/// `secs` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Window length in seconds.
    pub secs: u64,
    /// Requests answered inside the window.
    pub requests: u64,
    /// Requests per second over the window (`0.0` when idle).
    pub req_per_s: f64,
    /// Median request latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: f64,
}

/// One operation's cumulative breakdown inside [`ServerStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Operation name (`open`, `decide`, `close`, `info`, `stats`,
    /// `reload`, `sleep`, or `other` for unparseable requests).
    pub op: String,
    /// Requests of this op since start.
    pub requests: u64,
    /// Error responses of this op since start.
    pub errors: u64,
    /// Median latency of this op in microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency of this op in microseconds.
    pub p99_us: f64,
}

/// One model slot's breakdown inside [`ServerStats`]: which checkpoint
/// it runs, how much traffic it carries and how many sessions are
/// pinned to it.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Slot name (`default` for the unnamed slot).
    pub model: String,
    /// Identity of the slot's loaded checkpoint (path of the last
    /// successful reload into this slot, or its startup label).
    pub checkpoint: String,
    /// Successful reloads into this slot since start.
    pub reloads: u64,
    /// Resident sessions currently pinned to this slot.
    pub sessions: usize,
    /// `open`/`decide` requests answered by this slot since start.
    pub requests: u64,
    /// Error responses attributed to this slot since start.
    pub errors: u64,
    /// This slot's request rate over the trailing 10 s window.
    pub req_per_s: f64,
}

/// The payload of a successful `stats` op: everything an operator (or
/// `cit-top`) needs to judge a live server at a glance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Live session count (resident in memory; spilled sessions are not
    /// counted until restored).
    pub sessions: usize,
    /// Open client connections on the reactor.
    pub connections: usize,
    /// Sessions idle-evicted to disk (or spilled at shutdown) since start.
    pub sessions_evicted: u64,
    /// Sessions transparently restored from disk spill since start.
    pub sessions_restored: u64,
    /// Spill files found corrupt or truncated and quarantined
    /// (`*.corrupt`) since start — at startup recovery scan or on a
    /// failed restore.
    pub sessions_quarantined: u64,
    /// Requests currently queued for the batcher.
    pub queue_depth: usize,
    /// The bounded queue's capacity (`overloaded` rejects past this).
    pub queue_cap: usize,
    /// Identity of the loaded checkpoint (path of the last successful
    /// reload, or the label the server started with).
    pub checkpoint: String,
    /// Successful checkpoint reloads since start.
    pub reloads: u64,
    /// Requests answered since start (every op, success or error).
    pub requests_total: u64,
    /// Error responses since start.
    pub errors_total: u64,
    /// Mean batch size since start (`0.0` before the first batch).
    pub batch_mean: f64,
    /// Trailing-window digests (10 s and 60 s).
    pub windows: Vec<WindowStats>,
    /// Per-op cumulative breakdown (ops seen at least once).
    pub ops: Vec<OpStats>,
    /// Error counts by reject class (kinds seen at least once), as
    /// `(kind tag, count)` pairs.
    pub errors: Vec<(String, u64)>,
    /// Per-model-slot breakdown, default slot first.
    pub models: Vec<ModelStats>,
}

impl ServerStats {
    /// Reconstructs stats from a parsed `stats` response line — the
    /// client side of [`Response::render`]. Returns `None` when the JSON
    /// is not a stats payload.
    pub fn from_json(v: &Json) -> Option<ServerStats> {
        if v.get("op").and_then(Json::as_str) != Some("stats") {
            return None;
        }
        let windows = v
            .get("windows")?
            .as_array()?
            .iter()
            .map(|w| {
                Some(WindowStats {
                    secs: w.get("secs")?.as_usize()? as u64,
                    requests: w.get("requests")?.as_usize()? as u64,
                    req_per_s: w.get("req_per_s")?.as_f64()?,
                    p50_us: w.get("p50_us")?.as_f64()?,
                    p95_us: w.get("p95_us")?.as_f64()?,
                    p99_us: w.get("p99_us")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let ops = v
            .get("ops")?
            .as_array()?
            .iter()
            .map(|o| {
                Some(OpStats {
                    op: o.get("op")?.as_str()?.to_string(),
                    requests: o.get("requests")?.as_usize()? as u64,
                    errors: o.get("errors")?.as_usize()? as u64,
                    p50_us: o.get("p50_us")?.as_f64()?,
                    p99_us: o.get("p99_us")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let errors = v
            .get("errors")?
            .as_array()?
            .iter()
            .map(|e| {
                Some((
                    e.get("kind")?.as_str()?.to_string(),
                    e.get("count")?.as_usize()? as u64,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let models = v
            .get("models")?
            .as_array()?
            .iter()
            .map(|m| {
                Some(ModelStats {
                    model: m.get("model")?.as_str()?.to_string(),
                    checkpoint: m.get("checkpoint")?.as_str()?.to_string(),
                    reloads: m.get("reloads")?.as_usize()? as u64,
                    sessions: m.get("sessions")?.as_usize()?,
                    requests: m.get("requests")?.as_usize()? as u64,
                    errors: m.get("errors")?.as_usize()? as u64,
                    req_per_s: m.get("req_per_s")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ServerStats {
            uptime_s: v.get("uptime_s")?.as_f64()?,
            sessions: v.get("sessions")?.as_usize()?,
            connections: v.get("connections")?.as_usize()?,
            sessions_evicted: v.get("sessions_evicted")?.as_usize()? as u64,
            sessions_restored: v.get("sessions_restored")?.as_usize()? as u64,
            sessions_quarantined: v.get("sessions_quarantined")?.as_usize()? as u64,
            queue_depth: v.get("queue_depth")?.as_usize()?,
            queue_cap: v.get("queue_cap")?.as_usize()?,
            checkpoint: v.get("checkpoint")?.as_str()?.to_string(),
            reloads: v.get("reloads")?.as_usize()? as u64,
            requests_total: v.get("requests_total")?.as_usize()? as u64,
            errors_total: v.get("errors_total")?.as_usize()? as u64,
            batch_mean: v.get("batch_mean")?.as_f64()?,
            windows,
            ops,
            errors,
            models,
        })
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", "stats".into()),
            ("uptime_s", self.uptime_s.into()),
            ("sessions", self.sessions.into()),
            ("connections", self.connections.into()),
            ("sessions_evicted", (self.sessions_evicted as usize).into()),
            (
                "sessions_restored",
                (self.sessions_restored as usize).into(),
            ),
            (
                "sessions_quarantined",
                (self.sessions_quarantined as usize).into(),
            ),
            ("queue_depth", self.queue_depth.into()),
            ("queue_cap", self.queue_cap.into()),
            ("checkpoint", self.checkpoint.clone().into()),
            ("reloads", (self.reloads as usize).into()),
            ("requests_total", (self.requests_total as usize).into()),
            ("errors_total", (self.errors_total as usize).into()),
            ("batch_mean", self.batch_mean.into()),
            (
                "windows",
                Json::Arr(
                    self.windows
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("secs", (w.secs as usize).into()),
                                ("requests", (w.requests as usize).into()),
                                ("req_per_s", w.req_per_s.into()),
                                ("p50_us", w.p50_us.into()),
                                ("p95_us", w.p95_us.into()),
                                ("p99_us", w.p99_us.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "ops",
                Json::Arr(
                    self.ops
                        .iter()
                        .map(|o| {
                            Json::obj(vec![
                                ("op", o.op.clone().into()),
                                ("requests", (o.requests as usize).into()),
                                ("errors", (o.errors as usize).into()),
                                ("p50_us", o.p50_us.into()),
                                ("p99_us", o.p99_us.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "errors",
                Json::Arr(
                    self.errors
                        .iter()
                        .map(|(kind, count)| {
                            Json::obj(vec![
                                ("kind", kind.clone().into()),
                                ("count", (*count as usize).into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "models",
                Json::Arr(
                    self.models
                        .iter()
                        .map(|m| {
                            Json::obj(vec![
                                ("model", m.model.clone().into()),
                                ("checkpoint", m.checkpoint.clone().into()),
                                ("reloads", (m.reloads as usize).into()),
                                ("sessions", m.sessions.into()),
                                ("requests", (m.requests as usize).into()),
                                ("errors", (m.errors as usize).into()),
                                ("req_per_s", m.req_per_s.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session created.
    Opened {
        /// Echoed session id.
        session: String,
        /// Days of history the session now holds.
        days: usize,
        /// Resolved model slot the session is pinned to — under
        /// `"auto"` this is where the router's pick is reported. Empty
        /// (omitted on the wire) for sessions opened without a `model`
        /// field, so default-slot traffic stays byte-identical.
        model: String,
    },
    /// A portfolio decision.
    Decision {
        /// Echoed session id.
        session: String,
        /// Absolute day index (days pushed since `open`, minus one).
        day: usize,
        /// The fused portfolio weights to execute (sums to 1).
        final_action: Vec<f64>,
        /// Per-horizon pre-decisions (fed back as the policies' previous
        /// actions on the next decide).
        pre_actions: Vec<Vec<f64>>,
        /// Model slot that produced the decision: the session's pin,
        /// empty (omitted on the wire) for sessions opened without a
        /// `model` field.
        model: String,
    },
    /// Session dropped.
    Closed {
        /// Echoed session id.
        session: String,
    },
    /// Introspection payload.
    Info {
        /// Live session count (whole server for plain `info`; pinned to
        /// the named slot for `info {"model":...}`).
        sessions: usize,
        /// Assets `m` the model allocates over.
        num_assets: usize,
        /// Parameters in the active model.
        num_params: usize,
        /// Look-back window `z` (days of history `open` must provide).
        window: usize,
        /// Horizon policy count `n`.
        policies: usize,
        /// Introspected model slot. Rendered only when the request
        /// carried a `model` field (empty = omitted).
        model: String,
    },
    /// Live operational metrics.
    Stats(Box<ServerStats>),
    /// Checkpoint swapped in.
    Reloaded {
        /// Parameters in the new model.
        num_params: usize,
        /// Slot the checkpoint was swapped into. Rendered only when the
        /// request carried a `model` field (empty = omitted).
        model: String,
    },
    /// Drain started.
    ShuttingDown,
    /// Debug stall finished.
    Slept {
        /// Echoed stall duration.
        ms: u64,
    },
    /// Any failure.
    Error {
        /// Reject class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Convenience constructor for failures.
    pub fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Error {
            kind,
            message: message.into(),
        }
    }

    /// Renders one response line (no trailing newline). The `model` echo
    /// fields are emitted only when non-empty, so responses to
    /// model-oblivious requests are byte-identical to the single-model
    /// protocol.
    pub fn render(&self) -> String {
        let json = match self {
            Response::Opened {
                session,
                days,
                model,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("op", "open".into()),
                    ("session", session.clone().into()),
                    ("days", (*days).into()),
                ];
                if !model.is_empty() {
                    pairs.push(("model", model.clone().into()));
                }
                Json::obj(pairs)
            }
            Response::Decision {
                session,
                day,
                final_action,
                pre_actions,
                model,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("op", "decide".into()),
                    ("session", session.clone().into()),
                    ("day", (*day).into()),
                    ("final_action", final_action.clone().into()),
                    (
                        "pre_actions",
                        Json::Arr(pre_actions.iter().map(|a| a.clone().into()).collect()),
                    ),
                ];
                if !model.is_empty() {
                    pairs.push(("model", model.clone().into()));
                }
                Json::obj(pairs)
            }
            Response::Closed { session } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", "close".into()),
                ("session", session.clone().into()),
            ]),
            Response::Info {
                sessions,
                num_assets,
                num_params,
                window,
                policies,
                model,
            } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("op", "info".into()),
                    ("sessions", (*sessions).into()),
                    ("num_assets", (*num_assets).into()),
                    ("num_params", (*num_params).into()),
                    ("window", (*window).into()),
                    ("policies", (*policies).into()),
                ];
                if !model.is_empty() {
                    pairs.push(("model", model.clone().into()));
                }
                Json::obj(pairs)
            }
            Response::Stats(stats) => stats.to_json(),
            Response::Reloaded { num_params, model } => {
                let mut pairs = vec![
                    ("ok", Json::Bool(true)),
                    ("op", "reload".into()),
                    ("num_params", (*num_params).into()),
                ];
                if !model.is_empty() {
                    pairs.push(("model", model.clone().into()));
                }
                Json::obj(pairs)
            }
            Response::ShuttingDown => {
                Json::obj(vec![("ok", Json::Bool(true)), ("op", "shutdown".into())])
            }
            Response::Slept { ms } => Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", "sleep".into()),
                ("ms", (*ms as usize).into()),
            ]),
            Response::Error { kind, message } => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("kind", kind.tag().into()),
                ("error", message.as_str().into()),
            ]),
        };
        json.render()
    }
}

impl Request {
    /// Renders one request line (no trailing newline) — the client side
    /// of [`Request::parse`].
    pub fn render(&self) -> String {
        fn matrix(rows: &[Vec<f64>]) -> Json {
            Json::Arr(rows.iter().map(|r| r.clone().into()).collect())
        }
        let json = match self {
            Request::Open { session, prices } => Json::obj(vec![
                ("op", "open".into()),
                ("session", session.clone().into()),
                ("prices", matrix(prices)),
            ]),
            Request::OpenAs {
                session,
                prices,
                model,
            } => Json::obj(vec![
                ("op", "open".into()),
                ("session", session.clone().into()),
                ("prices", matrix(prices)),
                ("model", model.clone().into()),
            ]),
            Request::Decide { session, prices } => {
                let mut pairs = vec![
                    ("op", Json::from("decide")),
                    ("session", session.clone().into()),
                ];
                if !prices.is_empty() {
                    pairs.push(("prices", matrix(prices)));
                }
                Json::obj(pairs)
            }
            Request::DecideAs {
                session,
                prices,
                model,
            } => {
                let mut pairs = vec![
                    ("op", Json::from("decide")),
                    ("session", session.clone().into()),
                ];
                if !prices.is_empty() {
                    pairs.push(("prices", matrix(prices)));
                }
                pairs.push(("model", model.clone().into()));
                Json::obj(pairs)
            }
            Request::Close { session } => Json::obj(vec![
                ("op", "close".into()),
                ("session", session.clone().into()),
            ]),
            Request::Info => Json::obj(vec![("op", "info".into())]),
            Request::InfoAs { model } => {
                Json::obj(vec![("op", "info".into()), ("model", model.clone().into())])
            }
            Request::Stats => Json::obj(vec![("op", "stats".into())]),
            Request::Reload { checkpoint } => Json::obj(vec![
                ("op", "reload".into()),
                ("checkpoint", checkpoint.clone().into()),
            ]),
            Request::ReloadAs { checkpoint, model } => Json::obj(vec![
                ("op", "reload".into()),
                ("checkpoint", checkpoint.clone().into()),
                ("model", model.clone().into()),
            ]),
            Request::Shutdown => Json::obj(vec![("op", "shutdown".into())]),
            Request::Sleep { ms } => {
                Json::obj(vec![("op", "sleep".into()), ("ms", (*ms as usize).into())])
            }
        };
        json.render()
    }

    /// Parses one request line. Errors are client-facing messages.
    ///
    /// `prices` can hold tens of thousands of numbers, so the first
    /// `prices` member is decoded straight into rows in the same pass
    /// that reads the line; only the small fields become a [`Json`] tree.
    /// The result is what [`Json::parse`] plus the field lookups below
    /// would give.
    pub fn parse(line: &str) -> Result<Request, String> {
        let (v, mut rows) =
            Json::parse_with_rows(line, "prices").map_err(|e| format!("invalid JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field \"op\"")?;
        let session = |required: bool| -> Result<String, String> {
            match v.get("session").and_then(Json::as_str) {
                Some(s) if !s.is_empty() => Ok(s.to_string()),
                _ if !required => Ok(String::new()),
                _ => Err("missing string field \"session\"".into()),
            }
        };
        let mut prices = |required: bool| -> Result<Vec<Vec<f64>>, String> {
            if let Some(rows) = rows.take() {
                return Ok(rows);
            }
            match v.get("prices") {
                Some(p) => p
                    .as_f64_matrix()
                    .ok_or_else(|| "\"prices\" must be an array of number rows".to_string()),
                None if !required => Ok(Vec::new()),
                None => Err("missing field \"prices\"".into()),
            }
        };
        // A present `model` must be a non-empty string; absent selects
        // the default slot (the plain, non-`*As` variant).
        let model = || -> Result<Option<String>, String> {
            match v.get("model") {
                None => Ok(None),
                Some(m) => match m.as_str() {
                    Some(s) if !s.is_empty() => Ok(Some(s.to_string())),
                    _ => Err("\"model\" must be a non-empty string".into()),
                },
            }
        };
        match op {
            "open" => {
                let (session, prices) = (session(true)?, prices(true)?);
                Ok(match model()? {
                    Some(model) => Request::OpenAs {
                        session,
                        prices,
                        model,
                    },
                    None => Request::Open { session, prices },
                })
            }
            "decide" => {
                let (session, prices) = (session(true)?, prices(false)?);
                Ok(match model()? {
                    Some(model) => Request::DecideAs {
                        session,
                        prices,
                        model,
                    },
                    None => Request::Decide { session, prices },
                })
            }
            "close" => Ok(Request::Close {
                session: session(true)?,
            }),
            "info" => Ok(match model()? {
                Some(model) => Request::InfoAs { model },
                None => Request::Info,
            }),
            "stats" => Ok(Request::Stats),
            "reload" => {
                let checkpoint = v
                    .get("checkpoint")
                    .and_then(Json::as_str)
                    .ok_or("missing string field \"checkpoint\"")?
                    .to_string();
                Ok(match model()? {
                    Some(model) => Request::ReloadAs { checkpoint, model },
                    None => Request::Reload { checkpoint },
                })
            }
            "shutdown" => Ok(Request::Shutdown),
            "sleep" => Ok(Request::Sleep {
                ms: v
                    .get("ms")
                    .and_then(Json::as_usize)
                    .ok_or("missing integer field \"ms\"")? as u64,
            }),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op() {
        assert_eq!(
            Request::parse(r#"{"op":"open","session":"s","prices":[[1,2,3,4]]}"#).unwrap(),
            Request::Open {
                session: "s".into(),
                prices: vec![vec![1.0, 2.0, 3.0, 4.0]],
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"decide","session":"s"}"#).unwrap(),
            Request::Decide {
                session: "s".into(),
                prices: vec![],
            }
        );
        assert_eq!(Request::parse(r#"{"op":"info"}"#).unwrap(), Request::Info);
        assert_eq!(
            Request::parse(r#"{"op":"reload","checkpoint":"/tmp/x.cit"}"#).unwrap(),
            Request::Reload {
                checkpoint: "/tmp/x.cit".into(),
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"sleep","ms":250}"#).unwrap(),
            Request::Sleep { ms: 250 }
        );
    }

    #[test]
    fn parses_model_addressed_ops() {
        assert_eq!(
            Request::parse(r#"{"op":"open","session":"s","prices":[[1,2,3,4]],"model":"auto"}"#)
                .unwrap(),
            Request::OpenAs {
                session: "s".into(),
                prices: vec![vec![1.0, 2.0, 3.0, 4.0]],
                model: "auto".into(),
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"decide","session":"s","model":"alt"}"#).unwrap(),
            Request::DecideAs {
                session: "s".into(),
                prices: vec![],
                model: "alt".into(),
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"info","model":"alt"}"#).unwrap(),
            Request::InfoAs {
                model: "alt".into()
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"reload","checkpoint":"/tmp/x.cit","model":"alt"}"#).unwrap(),
            Request::ReloadAs {
                checkpoint: "/tmp/x.cit".into(),
                model: "alt".into(),
            }
        );
        // A present-but-invalid model field is a parse error, never a
        // silent fall-through to the default slot.
        for bad in [
            r#"{"op":"info","model":""}"#,
            r#"{"op":"info","model":7}"#,
            r#"{"op":"open","session":"s","prices":[[1,2,3,4]],"model":[]}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"open","session":"s"}"#,
            r#"{"op":"open","session":"s","prices":[["x"]]}"#,
            r#"{"op":"decide"}"#,
            r#"{"op":"warp"}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn requests_round_trip_through_render() {
        let reqs = [
            Request::Open {
                session: "s".into(),
                prices: vec![vec![1.0, 2.0, 3.0, 4.0]],
            },
            Request::Decide {
                session: "s".into(),
                prices: vec![],
            },
            Request::Decide {
                session: "s".into(),
                prices: vec![vec![0.5; 4]],
            },
            Request::Close {
                session: "s".into(),
            },
            Request::Info,
            Request::Stats,
            Request::Reload {
                checkpoint: "a b/c.cit".into(),
            },
            Request::Shutdown,
            Request::Sleep { ms: 10 },
            Request::OpenAs {
                session: "s".into(),
                prices: vec![vec![1.0, 2.0, 3.0, 4.0]],
                model: "auto".into(),
            },
            Request::DecideAs {
                session: "s".into(),
                prices: vec![],
                model: "alt".into(),
            },
            Request::InfoAs {
                model: "alt".into(),
            },
            Request::ReloadAs {
                checkpoint: "a b/c.cit".into(),
                model: "alt".into(),
            },
        ];
        for req in reqs {
            assert_eq!(Request::parse(&req.render()).unwrap(), req);
        }
    }

    #[test]
    fn error_kinds_round_trip_their_tags() {
        for kind in ErrorKind::ALL {
            assert_eq!(ErrorKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(ErrorKind::from_tag("nope"), None);
        assert!(ErrorKind::Overloaded.is_retryable());
        assert!(ErrorKind::DeadlineExceeded.is_retryable());
        assert!(!ErrorKind::SessionLost.is_retryable());
        assert!(!ErrorKind::ModelNotFound.is_retryable());
    }

    #[test]
    fn stats_response_round_trips() {
        let stats = ServerStats {
            uptime_s: 12.5,
            sessions: 3,
            connections: 5,
            sessions_evicted: 4,
            sessions_restored: 1,
            sessions_quarantined: 2,
            queue_depth: 1,
            queue_cap: 128,
            checkpoint: "/tmp/model.cit".into(),
            reloads: 2,
            requests_total: 1000,
            errors_total: 7,
            batch_mean: 4.5,
            windows: vec![WindowStats {
                secs: 10,
                requests: 250,
                req_per_s: 25.0,
                p50_us: 800.0,
                p95_us: 2500.0,
                p99_us: 4000.0,
            }],
            ops: vec![OpStats {
                op: "decide".into(),
                requests: 900,
                errors: 2,
                p50_us: 850.0,
                p99_us: 4100.0,
            }],
            errors: vec![("overloaded".into(), 5), ("unknown_session".into(), 2)],
            models: vec![
                ModelStats {
                    model: "default".into(),
                    checkpoint: "/tmp/model.cit".into(),
                    reloads: 2,
                    sessions: 2,
                    requests: 700,
                    errors: 1,
                    req_per_s: 18.5,
                },
                ModelStats {
                    model: "alt".into(),
                    checkpoint: "/tmp/alt.cit".into(),
                    reloads: 0,
                    sessions: 1,
                    requests: 200,
                    errors: 0,
                    req_per_s: 6.5,
                },
            ],
        };
        let line = Response::Stats(Box::new(stats.clone())).render();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let back = ServerStats::from_json(&v).expect("stats parse");
        assert_eq!(back, stats);
    }

    #[test]
    fn decision_response_renders_weights_bitwise() {
        let w = vec![1.0 / 3.0, 2.0 / 3.0];
        let r = Response::Decision {
            session: "s".into(),
            day: 41,
            final_action: w.clone(),
            pre_actions: vec![w.clone()],
            model: String::new(),
        };
        let line = r.render();
        let v = crate::json::Json::parse(&line).unwrap();
        let back = v.get("final_action").unwrap().as_f64_array().unwrap();
        assert_eq!(back[0].to_bits(), w[0].to_bits());
        assert_eq!(back[1].to_bits(), w[1].to_bits());
    }

    #[test]
    fn model_echo_is_omitted_for_default_slot_traffic() {
        // Byte-compat guarantee: an empty model echo renders exactly the
        // pre-multi-model line; a non-empty one appends the field.
        let plain = Response::Opened {
            session: "s".into(),
            days: 31,
            model: String::new(),
        };
        assert_eq!(
            plain.render(),
            r#"{"ok":true,"op":"open","session":"s","days":31}"#
        );
        let routed = Response::Opened {
            session: "s".into(),
            days: 31,
            model: "alt".into(),
        };
        assert!(routed.render().contains(r#""model":"alt""#));
        let info = Response::Info {
            sessions: 0,
            num_assets: 4,
            num_params: 10,
            window: 30,
            policies: 3,
            model: String::new(),
        };
        assert!(!info.render().contains("model"));
        let reloaded = Response::Reloaded {
            num_params: 10,
            model: String::new(),
        };
        assert_eq!(
            reloaded.render(),
            r#"{"ok":true,"op":"reload","num_params":10}"#
        );
    }
}
