//! The readiness-polled connection layer: one reactor thread owns the
//! nonblocking listener and every client socket, multiplexed with
//! `poll(2)` (declared directly against the platform C library — no
//! external crates). Connections are small state machines: a read buffer
//! accumulates partial lines, a write buffer absorbs partial writes, and
//! an ordered slot queue keeps pipelined responses in request order.
//!
//! Decision work still flows through the bounded micro-batcher queue
//! ([`crate::batch`]); the batcher's worker threads hand results back
//! through a completion queue and wake the reactor over a self-pipe
//! (a `UnixStream` pair), so the reactor never blocks on compute and a
//! stalled batcher never stops `stats`/`info`/`reload` from answering.
//! Session idle-TTL eviction runs off the reactor's poll tick.

use crate::batch::{DepthGuard, Job, ReplyHandle};
use crate::protocol::{ErrorKind, Request, Response};
use crate::server::{begin_drain_flag, op_index, ServerState, OP_OTHER};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

extern "C" {
    /// `poll(2)`; `nfds_t` is `c_ulong` on every supported 64-bit Unix.
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    /// `listen(2)`, re-issued to resize an already-listening socket's
    /// accept backlog.
    fn listen(sockfd: i32, backlog: i32) -> i32;
}

/// Deepens the listener's accept backlog. `TcpListener::bind` hardcodes
/// a backlog of 128; a 1024-client connect storm overflows that queue
/// and the kernel resets the dropped handshakes (ECONNRESET on the
/// client's first write). Linux permits calling `listen(2)` again on a
/// listening socket to resize the queue (silently capped by
/// `net.core.somaxconn`). Best-effort: on failure the default stands.
pub(crate) fn deepen_backlog(listener: &TcpListener, backlog: i32) {
    unsafe {
        listen(listener.as_raw_fd(), backlog);
    }
}

/// Blocks until any registered fd is ready or `timeout` elapses.
fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// The cross-thread completion path back into the reactor: batcher
/// workers push `(connection, sequence, response)` triples and poke the
/// self-pipe so a sleeping `poll` wakes immediately.
pub(crate) struct Completions {
    queue: Mutex<Vec<(u64, u64, Response)>>,
    waker: UnixStream,
}

impl Completions {
    pub(crate) fn new(waker: UnixStream) -> Completions {
        // Nonblocking so a batcher worker can never stall on a full
        // pipe — a full pipe already means a wake is pending.
        let _ = waker.set_nonblocking(true);
        Completions {
            queue: Mutex::new(Vec::new()),
            waker,
        }
    }

    pub(crate) fn push(&self, conn: u64, seq: u64, resp: Response) {
        self.queue
            .lock()
            .expect("completion queue poisoned")
            .push((conn, seq, resp));
        self.wake();
    }

    /// Wakes the reactor without queueing a completion (drain signal).
    /// A full pipe means a wake is already pending — that is fine.
    pub(crate) fn wake(&self) {
        let _ = (&self.waker).write(&[1u8]);
    }

    fn drain(&self) -> Vec<(u64, u64, Response)> {
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// One in-order response slot of a connection. Pipelined requests each
/// claim a slot at parse time; responses are flushed strictly from the
/// front so replies can never overtake each other.
struct Slot {
    seq: u64,
    /// Index into [`crate::server::OP_NAMES`].
    op_idx: usize,
    /// Whether the request went through the batcher queue (these also
    /// feed the `serve.requests`/`serve.latency` instruments on reply,
    /// mirroring the thread-per-connection backend).
    queued: bool,
    started: Instant,
    resp: Option<Response>,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed; `scanned` marks how far the
    /// newline scan got so repeated partial reads stay O(new bytes).
    rbuf: Vec<u8>,
    scanned: usize,
    /// Rendered responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// In-order response slots (front = oldest outstanding request).
    slots: VecDeque<Slot>,
    next_seq: u64,
    /// Close once every slot is answered and the write buffer is empty
    /// (set by the `shutdown` op and by EOF).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            slots: VecDeque::new(),
            next_seq: 0,
            closing: false,
        }
    }

    /// Work that still has to happen before the connection may close.
    fn has_pending(&self) -> bool {
        !self.slots.is_empty() || !self.wbuf.is_empty()
    }
}

/// What to do with a connection after an I/O step.
enum ConnFate {
    Keep,
    Drop,
}

/// The reactor loop. Owns the listener and all connections; returns once
/// a drain completes (flag set, every queued request answered or the
/// drain deadline passed).
pub(crate) fn run_reactor(
    listener: TcpListener,
    state: Arc<ServerState>,
    tx: SyncSender<Job>,
    completions: Arc<Completions>,
    waker_rx: UnixStream,
) {
    if listener.set_nonblocking(true).is_err() || waker_rx.set_nonblocking(true).is_err() {
        return;
    }
    let tick = Duration::from_millis(state.cfg.tick_ms.max(1));
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut last_tick = Instant::now();
    let mut drain_deadline: Option<Instant> = None;
    // Rebuilt every iteration: fds[0] = waker, fds[1] = listener (while
    // accepting), then one entry per connection (ids kept in parallel).
    let mut fds: Vec<PollFd> = Vec::new();
    let mut ids: Vec<u64> = Vec::new();

    loop {
        let draining = state.shutdown.load(Ordering::Relaxed);
        if draining {
            if drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + Duration::from_secs(5));
            }
            // Idle connections close immediately on drain; busy ones get
            // until the deadline to flush.
            conns.retain(|_, c| c.has_pending());
            let expired = drain_deadline.is_some_and(|d| Instant::now() >= d);
            if conns.is_empty() || expired {
                state.connections.store(0, Ordering::Relaxed);
                state.connections_gauge.set(0.0);
                return;
            }
        }

        fds.clear();
        ids.clear();
        fds.push(PollFd {
            fd: waker_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        let listener_slot = if draining {
            None
        } else {
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            Some(1)
        };
        let conn_base = fds.len();
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if !conn.closing {
                events |= POLLIN;
            }
            if !conn.wbuf.is_empty() {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd: conn.stream.as_raw_fd(),
                events,
                revents: 0,
            });
            ids.push(id);
        }

        if poll_fds(&mut fds, tick).is_err() {
            return;
        }

        // 1. Drain the self-pipe (wake tokens carry no payload).
        if fds[0].revents != 0 {
            let mut sink = [0u8; 256];
            while matches!((&waker_rx).read(&mut sink), Ok(n) if n > 0) {}
        }

        // 2. Apply completions from the batcher workers.
        for (conn_id, seq, resp) in completions.drain() {
            if let Some(conn) = conns.get_mut(&conn_id) {
                apply_completion(conn, seq, resp, &state);
            }
        }

        // 3. Accept new connections.
        if let Some(slot) = listener_slot {
            if fds[slot].revents != 0 {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            conns.insert(next_id, Conn::new(stream));
                            next_id += 1;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }
        }

        // 4. Service ready connections.
        let mut dead: Vec<u64> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let revents = fds[conn_base + i].revents;
            if revents == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if revents & (POLLERR | POLLNVAL) != 0 {
                dead.push(id);
                continue;
            }
            let mut fate = ConnFate::Keep;
            if revents & (POLLIN | POLLHUP) != 0 && !conn.closing {
                fate = read_and_dispatch(conn, id, &state, &tx, &completions);
            }
            if matches!(fate, ConnFate::Keep) && !conn.wbuf.is_empty() {
                fate = flush_writes(conn, &state);
            }
            if matches!(fate, ConnFate::Keep) && conn.wbuf.len() > state.cfg.max_wbuf {
                // Slow reader: the socket is not draining and the pending
                // responses have outgrown the per-connection budget.
                // Disconnecting bounds server memory; the client treats it
                // like any other connection loss.
                fate = ConnFate::Drop;
            }
            if matches!(fate, ConnFate::Keep) && conn.closing && !conn.has_pending() {
                fate = ConnFate::Drop;
            }
            if matches!(fate, ConnFate::Drop) {
                dead.push(id);
            }
        }

        // Completions may have unblocked flushes on connections that had
        // no poll events this round.
        let mut flush_dead: Vec<u64> = Vec::new();
        for (&id, conn) in conns.iter_mut() {
            if !conn.wbuf.is_empty() {
                if let ConnFate::Drop = flush_writes(conn, &state) {
                    flush_dead.push(id);
                }
            }
            if conn.wbuf.len() > state.cfg.max_wbuf {
                flush_dead.push(id); // slow reader (see above)
            }
            if conn.closing && !conn.has_pending() {
                flush_dead.push(id);
            }
        }
        dead.extend(flush_dead);
        for id in dead {
            conns.remove(&id);
        }
        state
            .connections
            .store(conns.len() as i64, Ordering::Relaxed);
        state.connections_gauge.set(conns.len() as f64);

        // 5. Tick work: idle-session eviction and the session gauge.
        if last_tick.elapsed() >= tick {
            last_tick = Instant::now();
            if let (Some(ttl), Some(spill)) = (state.cfg.session_ttl, &state.spill) {
                let evicted = state.store.evict_idle(ttl, spill);
                if evicted > 0 {
                    state.note_evicted(evicted as u64);
                }
            }
            state.sessions_gauge.set(state.store.len() as f64);
        }
    }
}

/// Reads everything the socket has, then parses and dispatches every
/// complete line in the buffer.
fn read_and_dispatch(
    conn: &mut Conn,
    conn_id: u64,
    state: &Arc<ServerState>,
    tx: &SyncSender<Job>,
    completions: &Arc<Completions>,
) -> ConnFate {
    // Injected socket-read faults: a stall (`serve.sock.stall` — the
    // kernel buffered nothing yet) and a hard error (`serve.sock.read` —
    // peer reset). The server's answer to both is the same as to the real
    // thing — carry on, or drop this connection; nothing else may be
    // disturbed. Each probe owns its site string because every probe
    // call advances that site's occurrence counter.
    state.cfg.faults.stall_at("serve.sock.stall");
    if state.cfg.faults.io_error("serve.sock.read").is_some() {
        return ConnFate::Drop;
    }
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                // EOF: no more requests can arrive; flush what remains
                // and close.
                conn.closing = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Drop,
        }
    }
    // Extract complete lines; `scanned` avoids rescanning the same
    // partial-line prefix on every read. The buffer is moved out while
    // its lines are handled, so each line is borrowed, not copied.
    let rbuf = std::mem::take(&mut conn.rbuf);
    let mut start = 0;
    while let Some(rel) = rbuf[conn.scanned.max(start)..]
        .iter()
        .position(|&b| b == b'\n')
    {
        let end = conn.scanned.max(start) + rel;
        let line = trim_line(&rbuf[start..end]);
        if !line.is_empty() {
            match std::str::from_utf8(line) {
                Ok(line) => handle_line(conn, conn_id, line, state, tx, completions),
                // A line that is not UTF-8 is read with U+FFFD in place
                // of each bad sequence.
                Err(_) => {
                    let line = String::from_utf8_lossy(line);
                    handle_line(conn, conn_id, &line, state, tx, completions);
                }
            }
        }
        start = end + 1;
        conn.scanned = start;
    }
    conn.rbuf = rbuf;
    if start > 0 {
        conn.rbuf.drain(..start);
    }
    conn.scanned = conn.rbuf.len();
    ConnFate::Keep
}

fn trim_line(mut line: &[u8]) -> &[u8] {
    if line.last() == Some(&b'\r') {
        line = &line[..line.len() - 1];
    }
    // Leading/trailing spaces were tolerated by the blocking backend
    // (`line.trim().is_empty()` skipped blank lines); keep blank-line
    // tolerance by trimming ASCII whitespace.
    while line.first().is_some_and(|b| b.is_ascii_whitespace()) {
        line = &line[1..];
    }
    while line.last().is_some_and(|b| b.is_ascii_whitespace()) {
        line = &line[..line.len() - 1];
    }
    line
}

/// Parses one request line and either answers it inline (control-plane
/// ops) or enqueues it for the batcher (decision-plane ops), claiming an
/// in-order response slot either way.
fn handle_line(
    conn: &mut Conn,
    conn_id: u64,
    line: &str,
    state: &Arc<ServerState>,
    tx: &SyncSender<Job>,
    completions: &Arc<Completions>,
) {
    let started = Instant::now();
    let seq = conn.next_seq;
    conn.next_seq += 1;

    let req = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            complete_inline(
                conn,
                seq,
                OP_OTHER,
                started,
                Response::error(ErrorKind::BadRequest, e),
                state,
            );
            return;
        }
    };
    let op_idx = op_index(&req);
    match req {
        Request::Info => {
            let model = state.registry.default_slot().current();
            let resp = Response::Info {
                sessions: state.store.len(),
                num_assets: state.num_assets,
                num_params: model.num_params(),
                window: model.min_history(),
                policies: model.config().num_policies,
                model: String::new(),
            };
            complete_inline(conn, seq, op_idx, started, resp, state);
        }
        Request::InfoAs { model } => {
            // Slot-addressed info: model-specific numbers plus the count
            // of sessions pinned to that slot.
            let resp = match state.resolve_slot(&model) {
                Ok(slot) => {
                    let by_model = state.store.count_by_model();
                    let mut sessions = by_model.get(slot.name.as_str()).copied().unwrap_or(0);
                    if Arc::ptr_eq(state.registry.default_slot(), slot) {
                        sessions += by_model.get("").copied().unwrap_or(0);
                    }
                    let m = slot.current();
                    Response::Info {
                        sessions,
                        num_assets: state.num_assets,
                        num_params: m.num_params(),
                        window: m.min_history(),
                        policies: m.config().num_policies,
                        model: slot.name.clone(),
                    }
                }
                Err(resp) => resp,
            };
            complete_inline(conn, seq, op_idx, started, resp, state);
        }
        Request::Stats => {
            let resp = Response::Stats(Box::new(state.build_stats()));
            complete_inline(conn, seq, op_idx, started, resp, state);
        }
        Request::Reload { checkpoint } => {
            // Loading a checkpoint blocks the reactor briefly; reloads
            // are rare operator actions and the swap must be atomic with
            // respect to request dispatch anyway.
            let resp = state.reload(&checkpoint, "");
            complete_inline(conn, seq, op_idx, started, resp, state);
        }
        Request::ReloadAs { checkpoint, model } => {
            let resp = state.reload(&checkpoint, &model);
            complete_inline(conn, seq, op_idx, started, resp, state);
        }
        Request::Shutdown => {
            begin_drain_flag(state);
            complete_inline(conn, seq, op_idx, started, Response::ShuttingDown, state);
            conn.closing = true;
        }
        Request::Sleep { .. } if !state.cfg.debug_ops => {
            let resp = Response::error(ErrorKind::BadRequest, "sleep requires debug_ops");
            complete_inline(conn, seq, op_idx, started, resp, state);
        }
        queued @ (Request::Open { .. }
        | Request::OpenAs { .. }
        | Request::Decide { .. }
        | Request::DecideAs { .. }
        | Request::Close { .. }
        | Request::Sleep { .. }) => {
            if state.shutdown.load(Ordering::Relaxed) {
                let resp = Response::error(ErrorKind::ShuttingDown, "server is draining");
                complete_inline(conn, seq, op_idx, started, resp, state);
                return;
            }
            let depth = DepthGuard::new(state.queue_depth.clone(), state.queue_gauge.clone());
            let reply = ReplyHandle::new(completions.clone(), conn_id, seq, depth);
            conn.slots.push_back(Slot {
                seq,
                op_idx,
                queued: true,
                started,
                resp: None,
            });
            match tx.try_send(Job {
                req: queued,
                reply,
                enqueued: Instant::now(),
            }) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => {
                    // The job came back: cancel its reply handle so the
                    // drop guard does not also answer this slot.
                    job.reply.cancel();
                    let resp = Response::error(
                        ErrorKind::Overloaded,
                        format!(
                            "decision queue full ({} queued); retry later",
                            state.cfg.queue_cap
                        ),
                    );
                    fill_slot(conn, seq, resp, state);
                }
                Err(TrySendError::Disconnected(job)) => {
                    job.reply.cancel();
                    let resp = Response::error(ErrorKind::ShuttingDown, "server is draining");
                    fill_slot(conn, seq, resp, state);
                }
            }
        }
    }
}

/// Claims a slot and completes it immediately (control-plane path).
fn complete_inline(
    conn: &mut Conn,
    seq: u64,
    op_idx: usize,
    started: Instant,
    resp: Response,
    state: &ServerState,
) {
    conn.slots.push_back(Slot {
        seq,
        op_idx,
        queued: false,
        started,
        resp: None,
    });
    fill_slot(conn, seq, resp, state);
}

/// A batcher completion arrived for `seq`.
fn apply_completion(conn: &mut Conn, seq: u64, resp: Response, state: &ServerState) {
    fill_slot(conn, seq, resp, state);
}

/// Records the response into its slot, observes it in the metrics plane
/// and renders every now-ready slot from the front of the queue.
fn fill_slot(conn: &mut Conn, seq: u64, resp: Response, state: &ServerState) {
    let Some(slot) = conn.slots.iter_mut().find(|s| s.seq == seq) else {
        return; // connection was already torn down past this request
    };
    if slot.resp.is_some() {
        return;
    }
    state.observe(slot.op_idx, &resp, slot.started.elapsed(), slot.queued);
    slot.resp = Some(resp);
    // Flush ready responses in order.
    while let Some(front) = conn.slots.front() {
        if front.resp.is_none() {
            break;
        }
        let slot = conn.slots.pop_front().expect("front exists");
        let resp = slot.resp.expect("checked above");
        let mut payload = resp.render();
        payload.push('\n');
        conn.wbuf.extend_from_slice(payload.as_bytes());
    }
}

/// Writes as much of the pending buffer as the socket accepts. Injected
/// faults: `serve.sock.write` I/O errors drop the connection; a
/// `serve.sock.partial` fault caps this flush (the remainder stays
/// buffered — exactly what a congested socket does).
fn flush_writes(conn: &mut Conn, state: &ServerState) -> ConnFate {
    if state.cfg.faults.io_error("serve.sock.write").is_some() {
        return ConnFate::Drop;
    }
    let limit = match state.cfg.faults.partial_write("serve.sock.partial") {
        Some(cap) => conn.wbuf.len().min(cap.max(1)),
        None => conn.wbuf.len(),
    };
    let mut written = 0;
    while written < limit {
        match conn.stream.write(&conn.wbuf[written..limit]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ConnFate::Drop,
        }
    }
    if written > 0 {
        conn.wbuf.drain(..written);
    }
    ConnFate::Keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    /// A job's queue occupancy ends before its reply reaches the reactor.
    /// The test holds the completion queue, so the reply waits inside
    /// `Completions::push` while the queue depth is read: the depth a
    /// `stats` request sent right after the reply would see.
    #[test]
    fn queue_depth_is_released_before_the_reply_is_pushed() {
        let (waker, _wake_rx) = UnixStream::pair().expect("socket pair");
        let completions = Arc::new(Completions::new(waker));
        let depth = Arc::new(AtomicI64::new(0));
        let guard = DepthGuard::new(depth.clone(), Default::default());
        let reply = ReplyHandle::new(completions.clone(), 7, 0, guard);
        assert_eq!(depth.load(Ordering::Acquire), 1);

        let held = completions.queue.lock().expect("completion queue");
        let sender = std::thread::spawn(move || reply.send(Response::ShuttingDown));
        let deadline = Instant::now() + Duration::from_secs(10);
        while depth.load(Ordering::Acquire) != 0 {
            assert!(
                Instant::now() < deadline,
                "the job still counts in the queue depth while its reply is pushed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        sender.join().expect("sender thread");
        let pushed = completions.drain();
        assert_eq!(pushed.len(), 1);
        assert_eq!((pushed[0].0, pushed[0].1), (7, 0));
    }
}
