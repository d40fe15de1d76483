//! The micro-batching core.
//!
//! The reactor enqueues jobs into a bounded channel; a single batcher
//! thread batches them naturally: it blocks for the first job, takes
//! whatever else is already queued (up to
//! [`crate::ServeConfig::max_batch`]) without waiting for more, and runs
//! the batch's decisions through the `cit-compute` thread pool — one
//! task per session, so requests for different sessions run in parallel
//! while requests for the same session keep their arrival order. Jobs
//! that arrive while a batch computes form the next batch, so a lone
//! request never waits on a timer and batches grow with load by
//! themselves. A full channel is the backpressure signal: the reactor
//! never blocks, it replies `overloaded` immediately. Results travel
//! back to the reactor through the [`crate::reactor::Completions`]
//! queue + self-pipe wake.

use crate::protocol::{ErrorKind, Request, Response};
use crate::reactor::Completions;
use crate::server::ServerState;
use crate::session::Session;
use cit_compute::parallel_map;
use cit_telemetry::Gauge;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RAII occupancy of the batcher queue: construction increments the
/// shared depth (and mirrors it into the `serve.queue_depth` gauge),
/// drop decrements. Owned by a job's [`ReplyHandle`], so *every* way a
/// job exits the queue — answered, rejected on a full channel
/// (`try_send` hands the job back), drained at shutdown, or unwound past
/// by a panicking handler — restores the gauge. A burst of `overloaded`
/// rejects must leave the depth at zero.
pub(crate) struct DepthGuard {
    depth: Arc<AtomicI64>,
    gauge: Gauge,
}

impl DepthGuard {
    pub(crate) fn new(depth: Arc<AtomicI64>, gauge: Gauge) -> DepthGuard {
        let now = depth.fetch_add(1, Ordering::AcqRel) + 1;
        gauge.set(now.max(0) as f64);
        DepthGuard { depth, gauge }
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        let now = self.depth.fetch_sub(1, Ordering::AcqRel) - 1;
        self.gauge.set(now.max(0) as f64);
    }
}

/// The reply path of one queued request: routes the response to its
/// `(connection, sequence)` slot via the completion queue. Dropping an
/// unanswered handle (batcher panic, drain that abandons work) answers
/// the slot with a typed `shutting_down` error, so a client waiting on a
/// response can never hang on a lost job.
///
/// The handle holds the job's queue-depth occupancy and releases it
/// *before* the response is pushed: once the reactor can see a reply,
/// the job no longer counts, so a `stats` sent after the last reply
/// reads an empty queue.
pub(crate) struct ReplyHandle {
    completions: Arc<Completions>,
    conn: u64,
    seq: u64,
    depth: Option<DepthGuard>,
    sent: bool,
}

impl ReplyHandle {
    pub(crate) fn new(
        completions: Arc<Completions>,
        conn: u64,
        seq: u64,
        depth: DepthGuard,
    ) -> ReplyHandle {
        ReplyHandle {
            completions,
            conn,
            seq,
            depth: Some(depth),
            sent: false,
        }
    }

    pub(crate) fn send(mut self, resp: Response) {
        self.sent = true;
        self.depth = None;
        self.completions.push(self.conn, self.seq, resp);
    }

    /// Disarms the drop guard: used when `try_send` hands the job back
    /// and the reactor answers the slot itself (reject path).
    pub(crate) fn cancel(mut self) {
        self.sent = true;
    }
}

impl Drop for ReplyHandle {
    fn drop(&mut self) {
        self.depth = None;
        if !self.sent {
            self.completions.push(
                self.conn,
                self.seq,
                Response::error(ErrorKind::ShuttingDown, "server is draining"),
            );
        }
    }
}

/// One queued request plus its reply path back to the reactor.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) reply: ReplyHandle,
    /// When the reactor enqueued the job — the clock
    /// [`crate::ServeConfig::request_deadline`] shedding runs against.
    pub(crate) enqueued: Instant,
}

/// The batcher loop: runs until the channel disconnects (the reactor and
/// the server handle dropped their senders), draining every remaining
/// job first — graceful shutdown never abandons queued work.
pub(crate) fn run_batcher(rx: Receiver<Job>, state: &ServerState) {
    while let Some(batch) = next_batch(&rx, state.cfg.max_batch) {
        process_batch(state, batch);
    }
}

/// Blocks until one item is queued, then takes whatever else is already
/// queued, up to `max_batch` items in all, without waiting for more.
/// `None` once every sender is gone and the queue is empty.
fn next_batch<T>(rx: &Receiver<T>, max_batch: usize) -> Option<Vec<T>> {
    let mut batch = vec![rx.recv().ok()?];
    while batch.len() < max_batch {
        match rx.try_recv() {
            Ok(item) => batch.push(item),
            Err(_) => break,
        }
    }
    Some(batch)
}

/// Checks a session out of the store, transparently restoring it from
/// the spill directory when it was idle-evicted (or left behind by a
/// previous server process) — the spill file's model pin picks the slot
/// it restores against. `Err` carries the client-facing response for a
/// genuinely unknown or unrestorable session (including one pinned to a
/// slot this server does not host: its state is intact on disk but
/// unusable here, which the client sees as `session_lost`).
fn checkout(state: &ServerState, name: &str) -> Result<Session, Response> {
    if let Some(session) = state.store.take(name) {
        return Ok(session);
    }
    if let Some(spill) = &state.spill {
        match spill.take(name, &state.spill_resolver()) {
            Ok(Some(session)) => {
                state.note_restored(1);
                return Ok(session);
            }
            Ok(None) => {}
            Err(failure) => {
                // The spilled copy is unusable: damaged bytes are already
                // quarantined as `*.corrupt` (never deleted — the file is
                // evidence), and the client gets the one error kind that
                // means "this session's state is gone, reopen it".
                if failure.quarantined {
                    state.note_quarantined(1);
                    state.telemetry.emit(
                        cit_telemetry::Record::new("serve.spill_quarantined").with("session", name),
                    );
                }
                return Err(Response::error(
                    ErrorKind::SessionLost,
                    format!(
                        "session {name:?} could not be restored: {}",
                        failure.message
                    ),
                ));
            }
        }
    }
    Err(Response::error(
        ErrorKind::UnknownSession,
        format!("no session {name:?}"),
    ))
}

/// Handles one `open`: resolves the requested model slot (`""` =
/// default, `"auto"` = ask the meta-router, anything else must name a
/// hosted slot), builds the session pinned to it, and answers the job.
/// The router runs on the raw open history *before* validation —
/// `regime_features` is total, degenerate input routes to the default
/// slot and then fails validation with a proper typed error.
fn open_session(
    state: &ServerState,
    session: &str,
    model_req: &str,
    prices: &[Vec<f64>],
    reply: ReplyHandle,
) {
    let slot = if model_req == crate::registry::AUTO_MODEL {
        let features = cit_core::regime_features(
            prices,
            state.num_assets,
            state.model_cfg.window,
            state.model_cfg.num_policies,
        );
        let pick = state.router.route(&features, state.registry.len());
        state.registry.by_index(pick)
    } else {
        match state.resolve_slot(model_req) {
            Ok(slot) => slot,
            Err(resp) => {
                reply.send(resp);
                return;
            }
        }
    };
    // The pin (and the `model` echo) is empty for model-oblivious opens,
    // which keeps their response bytes identical to single-model serving.
    let pin = if model_req.is_empty() {
        String::new()
    } else {
        slot.name.clone()
    };
    // A spilled session is still alive (just cold), so its id is taken —
    // mirrors the in-store duplicate check.
    let spilled = state
        .spill
        .as_ref()
        .is_some_and(|spill| spill.contains(session));
    let resp = if spilled {
        Response::error(
            ErrorKind::SessionExists,
            format!("session {session:?} already exists (spilled to disk)"),
        )
    } else {
        let model = slot.current();
        match Session::open(&model, session, &pin, prices, state.cfg.max_history) {
            Ok(s) => {
                let days = s.days();
                match state.store.insert(s) {
                    Ok(()) => Response::Opened {
                        session: session.to_string(),
                        days,
                        model: pin,
                    },
                    Err(e) => e,
                }
            }
            Err(e) => e,
        }
    };
    slot.requests.inc();
    slot.requests_window.inc();
    if matches!(resp, Response::Error { .. }) {
        slot.errors.inc();
    }
    reply.send(resp);
}

/// Executes one batch: opens first (so a same-batch decide can see the
/// session), then all decides grouped by session, then closes, then any
/// debug stalls.
pub(crate) fn process_batch(state: &ServerState, mut batch: Vec<Job>) {
    // Injected batch stall (`serve.batch.complete`): stalls *before* the
    // deadline check, so a delayed batch sheds its own now-stale jobs —
    // the combination chaos tests exercise.
    state.cfg.faults.stall_at("serve.batch.complete");
    // Deadline shedding: a job that already overstayed its budget in the
    // queue is answered with a typed retryable reject instead of being
    // computed. Shedding happens before any session state is touched, so
    // a shed request is always safe to retry.
    if let Some(deadline) = state.cfg.request_deadline {
        let now = Instant::now();
        let mut live = Vec::with_capacity(batch.len());
        for job in batch {
            if now.duration_since(job.enqueued) > deadline {
                job.reply.send(Response::error(
                    ErrorKind::DeadlineExceeded,
                    format!("request waited past its {deadline:?} deadline"),
                ));
            } else {
                live.push(job);
            }
        }
        batch = live;
        if batch.is_empty() {
            return;
        }
    }
    state.batch_size.record(batch.len() as f64);

    // Decide jobs grouped by session name, first-seen order preserved.
    // Each job carries the model the client *expects* the session to be
    // pinned to (`None` for model-oblivious decides).
    type DecideGroup = (String, Vec<(Vec<Vec<f64>>, Option<String>, ReplyHandle)>);
    let mut decide_groups: Vec<DecideGroup> = Vec::new();
    let mut closes = Vec::new();
    let mut sleeps = Vec::new();
    let mut push_decide = |session: String, prices, expected, reply| match decide_groups
        .iter_mut()
        .find(|(name, _)| *name == session)
    {
        Some((_, jobs)) => jobs.push((prices, expected, reply)),
        None => decide_groups.push((session, vec![(prices, expected, reply)])),
    };
    for Job { req, reply, .. } in batch {
        match req {
            Request::Open { session, prices } => {
                open_session(state, &session, "", &prices, reply);
            }
            Request::OpenAs {
                session,
                prices,
                model,
            } => {
                open_session(state, &session, &model, &prices, reply);
            }
            Request::Decide { session, prices } => push_decide(session, prices, None, reply),
            Request::DecideAs {
                session,
                prices,
                model,
            } => push_decide(session, prices, Some(model), reply),
            Request::Close { session } => closes.push((session, reply)),
            Request::Sleep { ms } => sleeps.push((ms, reply)),
            // Info/Stats/Reload/Shutdown are handled on the reactor and
            // never enqueued.
            _ => reply.send(Response::error(
                ErrorKind::BadRequest,
                "operation cannot be queued",
            )),
        }
    }

    // Check out each group's session, fan the groups out over the compute
    // pool, and reply in arrival order within each group. The session is
    // checked back in *before* any reply is sent, so a client holding a
    // response can never observe its own session missing from the store.
    let tasks: Vec<_> = decide_groups
        .into_iter()
        .map(|(name, jobs)| {
            move || {
                let mut session = match checkout(state, &name) {
                    Ok(s) => s,
                    Err(resp) => {
                        for (_, _, reply) in jobs {
                            reply.send(resp.clone());
                        }
                        return;
                    }
                };
                // The session's pin picks the model; the roster is fixed
                // at startup, so a resident (or just-restored) session's
                // pin always resolves.
                let slot = state
                    .registry
                    .get(session.model_name())
                    .expect("resident session pinned to unhosted slot")
                    .clone();
                let model = slot.current();
                let replies: Vec<(ReplyHandle, Response)> = jobs
                    .into_iter()
                    .map(|(prices, expected, reply)| {
                        // An explicit model on decide is a client-side
                        // guard: verify it names the session's slot.
                        if let Some(expected) = expected {
                            match state.resolve_slot(&expected) {
                                Ok(want) if Arc::ptr_eq(want, &slot) => {}
                                Ok(_) => {
                                    let resp = Response::error(
                                        ErrorKind::BadRequest,
                                        format!(
                                            "session {name:?} is pinned to model {:?}, \
                                             not {expected:?}",
                                            slot.name
                                        ),
                                    );
                                    return (reply, resp);
                                }
                                Err(resp) => return (reply, resp),
                            }
                        }
                        let resp = match session.decide(&model, &prices) {
                            Ok(r) => r,
                            Err(e) => e,
                        };
                        (reply, resp)
                    })
                    .collect();
                state.store.put_back(session);
                for (reply, resp) in replies {
                    slot.requests.inc();
                    slot.requests_window.inc();
                    if matches!(resp, Response::Error { .. }) {
                        slot.errors.inc();
                    }
                    reply.send(resp);
                }
            }
        })
        .collect();
    parallel_map(state.threads, tasks);

    for (name, reply) in closes {
        // Resident sessions drop from the store; spilled sessions drop
        // from disk. Either counts as a successful close.
        let resident = state.store.take(&name).is_some();
        let spilled = !resident
            && state
                .spill
                .as_ref()
                .is_some_and(|spill| spill.remove(&name));
        let resp = if resident || spilled {
            Response::Closed { session: name }
        } else {
            Response::error(ErrorKind::UnknownSession, format!("no session {name:?}"))
        };
        reply.send(resp);
    }
    state.sessions_gauge.set(state.store.len() as f64);

    for (ms, reply) in sleeps {
        std::thread::sleep(Duration::from_millis(ms));
        reply.send(Response::Slept { ms });
    }
}

#[cfg(test)]
mod tests {
    use super::next_batch;
    use std::sync::mpsc;

    #[test]
    fn a_backlog_drains_in_full_batches_then_the_rest() {
        let max_batch = 16;
        let (tx, rx) = mpsc::sync_channel(64);
        for i in 0..max_batch + 4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let first = next_batch(&rx, max_batch).unwrap();
        assert_eq!(first, (0..max_batch).collect::<Vec<_>>());
        let second = next_batch(&rx, max_batch).unwrap();
        assert_eq!(second, (max_batch..max_batch + 4).collect::<Vec<_>>());
        assert!(
            next_batch(&rx, max_batch).is_none(),
            "drained and disconnected"
        );
    }

    #[test]
    fn a_lone_job_is_a_batch_of_one_without_waiting_for_company() {
        // The sender stays alive: a timer-based drain would wait here for
        // more jobs, a natural one returns what is queued.
        let (tx, rx) = mpsc::sync_channel(4);
        tx.send(7).unwrap();
        assert_eq!(next_batch(&rx, 16).unwrap(), vec![7]);
        tx.send(8).unwrap();
        tx.send(9).unwrap();
        assert_eq!(next_batch(&rx, 16).unwrap(), vec![8, 9]);
        drop(tx);
        assert!(next_batch(&rx, 16).is_none());
    }
}
