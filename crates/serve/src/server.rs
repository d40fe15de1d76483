//! Server assembly: configuration, shared state, the registry of
//! hot-swappable model slots, session-lifecycle wiring (idle-TTL
//! eviction + disk spill), and the live metrics plane (`stats` op +
//! optional admin exposition listener). The connection layer itself is
//! the readiness-polled reactor in [`crate::reactor`]; decision compute
//! is the micro-batcher in [`crate::batch`]; slot selection for `"auto"`
//! opens is the [`crate::router`] policy.

use crate::batch::{run_batcher, Job};
use crate::protocol::{
    ErrorKind, ModelStats, OpStats, Request, Response, ServerStats, WindowStats,
};
use crate::reactor::{run_reactor, Completions};
use crate::registry::{ModelRegistry, NamedModel, AUTO_MODEL, DEFAULT_MODEL};
use crate::router::{RegimeRouter, RouterPolicy};
use crate::session::SessionStore;
use crate::spill::SpillDir;
use cit_core::{CitConfig, DecisionModel};
use cit_faults::FaultInjector;
use cit_telemetry::{
    duration_bounds, Counter, Gauge, Histogram, NoopSink, RollingHistogram, Telemetry,
    WindowedCounter, DEFAULT_WINDOWS,
};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a serving instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the default
    /// `127.0.0.1:0`).
    pub addr: String,
    /// Most requests one batch may hold. The batcher never waits to fill
    /// a batch: it takes what is queued when it starts one, so batches
    /// hold the requests that arrived while the previous batch computed.
    pub max_batch: usize,
    /// Bounded queue depth between the reactor and the batcher; a full
    /// queue rejects with [`ErrorKind::Overloaded`].
    pub queue_cap: usize,
    /// Worker threads for in-batch parallelism (0 = auto, honouring
    /// `CIT_THREADS`).
    pub threads: usize,
    /// Shards of the session store.
    pub shards: usize,
    /// Days of price history a session may hold before the oldest half is
    /// trimmed (decisions only need the model window).
    pub max_history: usize,
    /// Honour the `sleep` debug op (tests use it to stall the batcher
    /// deterministically; keep off in production).
    pub debug_ops: bool,
    /// Optional bind address for the admin listener answering plain-HTTP
    /// `GET /metrics` (Prometheus-style text exposition) and `GET /stats`
    /// (the JSON snapshot) — scrapable without speaking the line
    /// protocol. `None` (the default) disables it.
    pub admin_addr: Option<String>,
    /// Identity label of the model the server started with, reported by
    /// the `stats` op until a `reload` replaces it with the new
    /// checkpoint's path.
    pub checkpoint_label: String,
    /// Reactor tick period in milliseconds: the cadence of idle-session
    /// eviction scans and the poll timeout while the server is idle.
    pub tick_ms: u64,
    /// Sessions idle longer than this are spilled to disk and evicted
    /// from memory (restored transparently on their next request).
    /// Requires [`ServeConfig::spill_dir`]; `None` disables eviction.
    pub session_ttl: Option<Duration>,
    /// Directory for spilled session state. When set, evicted sessions
    /// and (on graceful shutdown) every live session are persisted here,
    /// so restarts and evictions never lose open sessions.
    pub spill_dir: Option<PathBuf>,
    /// Per-request deadline budget. A job that has already waited longer
    /// than this in the batcher queue is shed with a typed
    /// [`ErrorKind::DeadlineExceeded`] reject instead of being computed —
    /// under overload, answering a request whose caller has given up only
    /// steals capacity from requests that can still make their deadline.
    /// `None` (the default) never sheds.
    pub request_deadline: Option<Duration>,
    /// Most bytes of pending responses one connection may buffer before
    /// the reactor declares it a slow reader and disconnects it (a stalled
    /// client must not grow server memory without bound).
    pub max_wbuf: usize,
    /// Seed of the deterministic meta-router behind `open
    /// {"model":"auto"}` — same seed + same open history ⇒ same slot,
    /// across restarts and platforms.
    pub router_seed: u64,
    /// Fault-injection handle for chaos testing (see `cit-faults`). The
    /// default disabled handle costs one `Option` check per site.
    pub faults: FaultInjector,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_batch: 16,
            queue_cap: 128,
            threads: 0,
            shards: 16,
            max_history: 4096,
            debug_ops: false,
            admin_addr: None,
            checkpoint_label: "unnamed".to_string(),
            tick_ms: 100,
            session_ttl: None,
            spill_dir: None,
            request_deadline: None,
            max_wbuf: 4 << 20,
            router_seed: 0,
            faults: FaultInjector::disabled(),
        }
    }
}

/// Operation names the server breaks request metrics down by; `other`
/// collects unparseable requests.
pub(crate) const OP_NAMES: [&str; 8] = [
    "open", "decide", "close", "info", "stats", "reload", "sleep", "other",
];

/// The `other` slot of [`OP_NAMES`] (unparseable requests).
pub(crate) const OP_OTHER: usize = 7;

// `op_index` can only hand out indices it names explicitly and its match
// over `Request` is exhaustive, so the single drift risk between the
// table and the function is the `other` sentinel. Pin it.
const _: () = assert!(
    OP_OTHER == OP_NAMES.len() - 1,
    "OP_OTHER must be the last OP_NAMES slot"
);

/// Index into [`OP_NAMES`] / [`ServerState::ops`] for a request. The
/// model-addressed `*As` forms share their base op's row: on the wire
/// they *are* the same op, just carrying an extra field.
pub(crate) fn op_index(req: &Request) -> usize {
    match req {
        Request::Open { .. } | Request::OpenAs { .. } => 0,
        Request::Decide { .. } | Request::DecideAs { .. } => 1,
        Request::Close { .. } => 2,
        Request::Info | Request::InfoAs { .. } => 3,
        Request::Stats => 4,
        Request::Reload { .. } | Request::ReloadAs { .. } => 5,
        Request::Sleep { .. } => 6,
        // Shutdown shares the `other` slot: it answers at most once per
        // server lifetime, a dedicated breakdown row would be noise.
        Request::Shutdown => OP_OTHER,
    }
}

/// Per-op instruments: request/error counters plus a latency histogram.
pub(crate) struct OpInstruments {
    pub(crate) requests: Counter,
    pub(crate) errors: Counter,
    pub(crate) latency: Histogram,
}

/// Shared server state: the model-slot registry, the meta-router, the
/// session store, the drain flag and the telemetry instruments.
pub(crate) struct ServerState {
    /// The named model slots (slot zero = default).
    pub(crate) registry: ModelRegistry,
    /// The policy behind `open {"model":"auto"}`.
    pub(crate) router: Box<dyn RouterPolicy>,
    pub(crate) model_cfg: CitConfig,
    pub(crate) num_assets: usize,
    pub(crate) cfg: ServeConfig,
    pub(crate) store: SessionStore,
    /// The spill directory, opened once at startup when configured.
    pub(crate) spill: Option<SpillDir>,
    pub(crate) threads: usize,
    pub(crate) shutdown: AtomicBool,
    pub(crate) telemetry: Telemetry,
    pub(crate) latency: Histogram,
    pub(crate) requests: Counter,
    pub(crate) rejects: Counter,
    pub(crate) batch_size: Histogram,
    pub(crate) reloads: Counter,
    pub(crate) sessions_gauge: Gauge,
    /// When the server started (uptime basis for `stats`).
    pub(crate) started: Instant,
    /// Jobs currently sitting in (or just leaving) the batcher queue,
    /// maintained by [`crate::batch::DepthGuard`] so every exit path
    /// decrements.
    pub(crate) queue_depth: Arc<AtomicI64>,
    pub(crate) queue_gauge: Gauge,
    /// Live connection count, maintained by the reactor.
    pub(crate) connections: AtomicI64,
    pub(crate) connections_gauge: Gauge,
    /// Sessions idle-evicted (or spilled at shutdown) since start.
    pub(crate) evicted: AtomicU64,
    pub(crate) evicted_gauge: Gauge,
    /// Sessions restored from spill since start.
    pub(crate) restored: AtomicU64,
    pub(crate) restored_counter: Counter,
    /// Spill files found damaged (bad checksum, truncation, bad magic)
    /// and quarantined as `*.corrupt` — at startup recovery or on a
    /// failed restore. Each one is a session the server could not bring
    /// back; the client saw a typed `session_lost`.
    pub(crate) quarantined: AtomicU64,
    pub(crate) quarantined_counter: Counter,
    /// Every request (any op) for live req/s.
    pub(crate) requests_window: WindowedCounter,
    /// The same latencies as `latency`, over trailing windows, for live
    /// p50/p95/p99.
    pub(crate) latency_window: RollingHistogram,
    /// Per-op breakdown, indexed like [`OP_NAMES`].
    pub(crate) ops: Vec<OpInstruments>,
    /// Per-reject-class counters, indexed like [`ErrorKind::ALL`].
    pub(crate) error_kinds: Vec<Counter>,
}

impl ServerState {
    /// Records one answered request into the live metrics plane: the
    /// request-rate window, the per-op breakdown, the per-kind error
    /// counters for an error, and the server-wide latency histograms.
    ///
    /// Only `queued` (data-plane) requests that got a real answer reach
    /// the latency histograms, cumulative and windowed alike: load-shedding
    /// rejects ([`ErrorKind::is_shed`]) answer in microseconds, and under
    /// overload they would drag every percentile toward zero.
    pub(crate) fn observe(&self, op_idx: usize, resp: &Response, elapsed: Duration, queued: bool) {
        let secs = elapsed.as_secs_f64();
        self.requests_window.inc();
        let shed = matches!(resp, Response::Error { kind, .. } if kind.is_shed());
        if queued && !shed {
            self.latency.record(secs);
            self.latency_window.record(secs);
            self.requests.inc();
        }
        let op = &self.ops[op_idx];
        op.requests.inc();
        op.latency.record(secs);
        if let Response::Error { kind, .. } = resp {
            op.errors.inc();
            self.error_kinds[kind.index()].inc();
            // Load-shedding rejects (queue full, deadline blown) are the
            // ones capacity dashboards watch; session_lost and friends
            // stay in the per-kind breakdown only.
            if kind.is_retryable() {
                self.rejects.inc();
            }
        }
    }

    /// Bumps the eviction accounting (count + gauge) by `n`.
    pub(crate) fn note_evicted(&self, n: u64) {
        let total = self.evicted.fetch_add(n, Ordering::Relaxed) + n;
        self.evicted_gauge.set(total as f64);
    }

    /// Bumps the restore accounting by `n`.
    pub(crate) fn note_restored(&self, n: u64) {
        self.restored.fetch_add(n, Ordering::Relaxed);
        self.restored_counter.add(n);
    }

    /// Bumps the quarantine accounting by `n`.
    pub(crate) fn note_quarantined(&self, n: u64) {
        self.quarantined.fetch_add(n, Ordering::Relaxed);
        self.quarantined_counter.add(n);
    }

    /// Resolves a wire `model` value against the registry, mapping the
    /// `"auto"` sentinel and unknown names to a typed `model_not_found`
    /// (the sentinel is only meaningful on `open`, which handles it
    /// before calling this).
    pub(crate) fn resolve_slot(
        &self,
        name: &str,
    ) -> Result<&Arc<crate::registry::ModelSlot>, Response> {
        self.registry.get(name).ok_or_else(|| {
            Response::error(
                ErrorKind::ModelNotFound,
                if name == AUTO_MODEL {
                    format!("{AUTO_MODEL:?} is only valid on open")
                } else {
                    format!("no model slot {name:?}")
                },
            )
        })
    }

    /// The spill-restore model resolver: maps a spill file's model pin
    /// to the slot's current model (empty pin = default slot).
    pub(crate) fn spill_resolver(&self) -> impl Fn(&str) -> Option<Arc<DecisionModel>> + '_ {
        move |name: &str| self.registry.get(name).map(|slot| slot.current())
    }

    /// Atomically swaps a new checkpoint into slot `slot_name` (empty =
    /// default) — the `reload` op. A failed load (including an injected
    /// `serve.reload` disk fault) leaves the running model untouched and
    /// answers a typed `reload_failed`; other slots are never touched.
    pub(crate) fn reload(&self, checkpoint: &str, slot_name: &str) -> Response {
        let slot = match self.resolve_slot(slot_name) {
            Ok(s) => s,
            Err(resp) => return resp,
        };
        if let Some(e) = self.cfg.faults.io_error("serve.reload") {
            return Response::error(
                ErrorKind::ReloadFailed,
                format!("checkpoint {checkpoint:?} not loaded: {e}"),
            );
        }
        match DecisionModel::from_checkpoint(checkpoint, self.model_cfg, self.num_assets) {
            Ok(new_model) => {
                let num_params = new_model.num_params();
                slot.swap(new_model, checkpoint);
                self.reloads.inc();
                self.telemetry.emit(
                    cit_telemetry::Record::new("serve.reload")
                        .with("path", checkpoint)
                        .with("model", slot.name.as_str()),
                );
                Response::Reloaded {
                    num_params,
                    // Echo the slot only for model-addressed reloads.
                    model: if slot_name.is_empty() {
                        String::new()
                    } else {
                        slot.name.clone()
                    },
                }
            }
            Err(e) => Response::error(
                ErrorKind::ReloadFailed,
                format!("checkpoint {checkpoint:?} not loaded: {e}"),
            ),
        }
    }

    /// Builds the `stats` payload from the live instruments.
    pub(crate) fn build_stats(&self) -> ServerStats {
        let windows = DEFAULT_WINDOWS
            .iter()
            .map(|&secs| {
                let lat = self.latency_window.window(secs);
                WindowStats {
                    secs,
                    requests: self.requests_window.window_count(secs),
                    req_per_s: self.requests_window.rate(secs),
                    p50_us: lat.quantile(0.5) * 1e6,
                    p95_us: lat.quantile(0.95) * 1e6,
                    p99_us: lat.quantile(0.99) * 1e6,
                }
            })
            .collect();
        let ops = OP_NAMES
            .iter()
            .zip(&self.ops)
            .filter(|(_, i)| i.requests.get() > 0)
            .map(|(name, i)| OpStats {
                op: name.to_string(),
                requests: i.requests.get(),
                errors: i.errors.get(),
                p50_us: i.latency.quantile(0.5) * 1e6,
                p99_us: i.latency.quantile(0.99) * 1e6,
            })
            .collect();
        let errors: Vec<(String, u64)> = ErrorKind::ALL
            .iter()
            .zip(&self.error_kinds)
            .filter(|(_, c)| c.get() > 0)
            .map(|(kind, c)| (kind.tag().to_string(), c.get()))
            .collect();
        let by_model = self.store.count_by_model();
        let models = self
            .registry
            .slots()
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                // Sessions opened without a `model` field carry an empty
                // pin; they belong to the default slot (slot zero).
                let mut sessions = by_model.get(slot.name.as_str()).copied().unwrap_or(0);
                if i == 0 {
                    sessions += by_model.get("").copied().unwrap_or(0);
                }
                ModelStats {
                    model: slot.name.clone(),
                    checkpoint: slot.checkpoint(),
                    reloads: slot.reloads.get(),
                    sessions,
                    requests: slot.requests.get(),
                    errors: slot.errors.get(),
                    req_per_s: slot.requests_window.rate(DEFAULT_WINDOWS[0]),
                }
            })
            .collect();
        ServerStats {
            uptime_s: self.started.elapsed().as_secs_f64(),
            sessions: self.store.len(),
            connections: self.connections.load(Ordering::Relaxed).max(0) as usize,
            sessions_evicted: self.evicted.load(Ordering::Relaxed),
            sessions_restored: self.restored.load(Ordering::Relaxed),
            sessions_quarantined: self.quarantined.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed).max(0) as usize,
            queue_cap: self.cfg.queue_cap,
            checkpoint: self.registry.default_slot().checkpoint(),
            reloads: self.reloads.get(),
            requests_total: self.requests_window.total(),
            errors_total: errors.iter().map(|(_, c)| c).sum(),
            batch_mean: self.batch_size.mean(),
            windows,
            ops,
            errors,
            models,
        }
    }
}

/// Flags the drain; the reactor observes the flag on its next wake (the
/// caller is responsible for waking it when setting the flag from
/// outside the reactor thread).
pub(crate) fn begin_drain_flag(state: &ServerState) {
    state.shutdown.store(true, Ordering::Relaxed);
}

/// A running serving instance.
///
/// [`Server::start`] binds, spawns the reactor and the batcher, and
/// returns immediately; [`Server::shutdown`] (or drop) drains
/// gracefully: the listener closes, queued requests finish, and — when a
/// spill directory is configured — every live session is persisted to
/// disk before the process lets go of it.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    completions: Arc<Completions>,
    sender: Option<SyncSender<Job>>,
    reactor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    admin: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts serving `model` as the sole (default) slot with telemetry
    /// disabled.
    pub fn start(model: DecisionModel, cfg: ServeConfig) -> io::Result<Server> {
        Self::start_with(model, cfg, Telemetry::disabled())
    }

    /// Starts serving `model` as the sole (default) slot, recording
    /// request metrics into `telemetry`: `serve.latency` /
    /// `serve.batch_size` histograms, `serve.requests` /
    /// `serve.rejected` / `serve.reloads` counters, `serve.sessions` /
    /// `serve.connections` / `serve.sessions_evicted` gauges and the
    /// per-slot `serve.model.<name>.*` family.
    pub fn start_with(
        model: DecisionModel,
        cfg: ServeConfig,
        telemetry: Telemetry,
    ) -> io::Result<Server> {
        let checkpoint_label = cfg.checkpoint_label.clone();
        Self::start_multi(
            vec![NamedModel {
                name: DEFAULT_MODEL.to_string(),
                model,
                checkpoint_label,
            }],
            cfg,
            telemetry,
        )
    }

    /// Starts serving several models as named slots — the first entry
    /// becomes the **default** slot addressed by requests without a
    /// `model` field. Every slot must share one architecture (asset
    /// count, window, policy count); `open {"model":"auto"}` routes new
    /// sessions across the roster via the seeded [`RegimeRouter`]
    /// (see [`ServeConfig::router_seed`]).
    pub fn start_multi(
        models: Vec<NamedModel>,
        cfg: ServeConfig,
        telemetry: Telemetry,
    ) -> io::Result<Server> {
        // The metrics plane needs a live registry even when the caller
        // opted out of record sinks: upgrade a disabled handle to one
        // that keeps instruments but discards records, so `stats` and
        // the admin exposition always answer with real numbers.
        let telemetry = if telemetry.is_enabled() {
            telemetry
        } else {
            Telemetry::new(Arc::new(NoopSink))
        };
        let registry = ModelRegistry::new(models, &telemetry)?;
        let default_model = registry.default_slot().current();
        let listener = TcpListener::bind(&cfg.addr)?;
        // Survive four-digit-client connect storms (see `deepen_backlog`).
        crate::reactor::deepen_backlog(&listener, 4096);
        let addr = listener.local_addr()?;
        let admin_listener = match &cfg.admin_addr {
            Some(a) => Some(TcpListener::bind(a)?),
            None => None,
        };
        let admin_addr = match &admin_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let spill = match &cfg.spill_dir {
            Some(dir) => Some(SpillDir::open(dir, cfg.faults.clone())?),
            None => None,
        };
        // Recovery scan before serving: a torn or corrupted spill left by
        // a crashed predecessor is quarantined now, so it can never wedge
        // a restore mid-traffic. Bad files are renamed, never deleted;
        // files pinned to slots this server does not host are skipped.
        let recovered = spill
            .as_ref()
            .map(|s| s.recover_scan(&|name| registry.get(name).map(|slot| slot.current())));
        let threads = cit_compute::resolve_threads(cfg.threads);
        let ops = OP_NAMES
            .iter()
            .map(|name| OpInstruments {
                requests: telemetry.counter(&format!("serve.op.{name}.requests")),
                errors: telemetry.counter(&format!("serve.op.{name}.errors")),
                latency: telemetry
                    .histogram(&format!("serve.op.{name}.latency"), &duration_bounds()),
            })
            .collect();
        let error_kinds = ErrorKind::ALL
            .iter()
            .map(|kind| telemetry.counter(&format!("serve.errors.{}", kind.tag())))
            .collect();
        let state = Arc::new(ServerState {
            model_cfg: *default_model.config(),
            num_assets: default_model.num_assets(),
            router: Box::new(RegimeRouter::new(cfg.router_seed)),
            registry,
            store: SessionStore::new(cfg.shards),
            spill,
            threads,
            shutdown: AtomicBool::new(false),
            latency: telemetry.histogram("serve.latency", &duration_bounds()),
            requests: telemetry.counter("serve.requests"),
            rejects: telemetry.counter("serve.rejected"),
            batch_size: telemetry.histogram(
                "serve.batch_size",
                &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            ),
            reloads: telemetry.counter("serve.reloads"),
            sessions_gauge: telemetry.gauge("serve.sessions"),
            started: Instant::now(),
            queue_depth: Arc::new(AtomicI64::new(0)),
            queue_gauge: telemetry.gauge("serve.queue_depth"),
            connections: AtomicI64::new(0),
            connections_gauge: telemetry.gauge("serve.connections"),
            evicted: AtomicU64::new(0),
            evicted_gauge: telemetry.gauge("serve.sessions_evicted"),
            restored: AtomicU64::new(0),
            restored_counter: telemetry.counter("serve.sessions_restored"),
            quarantined: AtomicU64::new(0),
            quarantined_counter: telemetry.counter("serve.sessions_quarantined"),
            requests_window: telemetry.windowed_counter("serve.requests_window"),
            latency_window: telemetry.rolling_histogram("serve.latency_window", &duration_bounds()),
            ops,
            error_kinds,
            telemetry,
            cfg,
        });
        if let Some((intact, quarantined)) = recovered {
            if quarantined > 0 {
                state.note_quarantined(quarantined as u64);
            }
            if intact > 0 || quarantined > 0 {
                state.telemetry.emit(
                    cit_telemetry::Record::new("serve.recover_scan")
                        .with("intact", intact.to_string())
                        .with("quarantined", quarantined.to_string()),
                );
            }
        }

        // Self-pipe: the read end lives in the reactor's poll set, the
        // write end inside the shared completion queue.
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        let completions = Arc::new(Completions::new(waker_tx));

        let (tx, rx) = mpsc::sync_channel::<Job>(state.cfg.queue_cap.max(1));
        let batcher = {
            let state = state.clone();
            std::thread::spawn(move || run_batcher(rx, &state))
        };
        let reactor = {
            let state = state.clone();
            let tx = tx.clone();
            let completions = completions.clone();
            std::thread::spawn(move || run_reactor(listener, state, tx, completions, waker_rx))
        };
        let admin = admin_listener.map(|l| {
            let state = state.clone();
            std::thread::spawn(move || crate::admin::run_admin(l, state))
        });
        Ok(Server {
            state,
            addr,
            admin_addr,
            completions,
            sender: Some(tx),
            reactor: Some(reactor),
            batcher: Some(batcher),
            admin,
        })
    }

    /// The bound address (resolve the actual port when binding to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin listener's bound address, when
    /// [`ServeConfig::admin_addr`] was set.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The current `stats` payload — what the `stats` wire op answers.
    pub fn stats(&self) -> crate::protocol::ServerStats {
        self.state.build_stats()
    }

    /// The telemetry handle metrics are recorded into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.state.telemetry
    }

    /// Live session count (resident in memory; spilled sessions are not
    /// counted until restored).
    pub fn sessions(&self) -> usize {
        self.state.store.len()
    }

    /// `true` once a drain has started (via [`Server::shutdown`] or the
    /// protocol `shutdown` op).
    pub fn is_draining(&self) -> bool {
        self.state.shutdown.load(Ordering::Relaxed)
    }

    /// Graceful drain: stops accepting, lets in-flight and queued
    /// requests finish, joins every thread, then spills all live
    /// sessions to disk when a spill directory is configured.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        begin_drain_flag(&self.state);
        self.completions.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        self.sender.take(); // disconnect the batcher's channel
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        // Every job is done and every session back in the store: persist
        // them so a restart picks up where this process stopped.
        if let Some(spill) = &self.state.spill {
            let spilled = self.state.store.spill_all(spill);
            if spilled > 0 {
                self.state.note_evicted(spilled as u64);
                self.state.telemetry.emit(
                    cit_telemetry::Record::new("serve.spill_all")
                        .with("sessions", spilled.to_string()),
                );
            }
        }
        if let Some(h) = self.admin.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reactor.is_some() || self.batcher.is_some() {
            self.shutdown_impl();
        }
    }
}
