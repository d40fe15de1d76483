//! The open-loop load generator of `serve_open`.
//!
//! Each connection has a sender thread, which sleeps until each slot is
//! due and sends, and a receiver thread, which blocks on replies; with
//! `nproc / 2` connections (at least one) the generator stays within
//! `nproc` threads and `nproc` connections. Arrivals follow a fixed
//! schedule per phase (absolute rates), spread round-robin over the
//! connection's sessions. A session holds at most one request in flight,
//! so its day stream stays intact: a slot whose session is still waiting
//! is skipped, and a rejected decide is offered again at the session's
//! next slot. Latency is timed from the slot's due time, so a stall delays
//! every request due behind it; the generator also reports how late it
//! sent.

use crate::inputs::rows;
use crate::stats::{decision_digest, us};
use cit_market::AssetPanel;
use cit_serve::json::Json;
use cit_serve::Request;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One phase of the schedule: total arrival rate across connections.
#[derive(Clone, Copy)]
pub struct Phase {
    pub rate: f64,
    pub secs: f64,
}

/// A served session as the generator sees it.
pub struct GenSession {
    pub name: String,
    /// Panel day carried by the session's first decide.
    pub first_day: usize,
    /// Digests of the answered decisions, in day order (filled in once
    /// the schedule has ended).
    pub digests: Vec<u64>,
    /// The answered reply lines, in day order, parsed after the run so
    /// the generator spends as little processor time as it can.
    replies: Vec<Vec<u8>>,
    busy: bool,
}

impl GenSession {
    pub fn new(name: String, first_day: usize) -> GenSession {
        GenSession {
            name,
            first_day,
            digests: Vec::new(),
            replies: Vec::new(),
            busy: false,
        }
    }
}

/// Accounting of one phase, summed over connections.
#[derive(Default)]
pub struct PhaseStats {
    /// Decides sent.
    pub offered: u64,
    pub answered: u64,
    /// Typed `overloaded` rejects.
    pub rejected: u64,
    /// Replies that did not carry a decision, classified after the run.
    refused: Vec<Vec<u8>>,
    /// Slots whose session still had a request in flight.
    pub skipped: u64,
    /// Protocol errors and other error replies.
    pub failed: u64,
    /// Answered latency from the due time.
    pub due_us: Vec<f64>,
    /// Answered latency from the actual send.
    pub sent_us: Vec<f64>,
    /// How late each send was against its due time.
    pub late_us: Vec<f64>,
    /// When each answer arrived, in seconds from the schedule's start.
    pub done_s: Vec<f64>,
}

impl PhaseStats {
    fn absorb(&mut self, other: PhaseStats) {
        self.offered += other.offered;
        self.answered += other.answered;
        self.rejected += other.rejected;
        self.skipped += other.skipped;
        self.failed += other.failed;
        self.due_us.extend(other.due_us);
        self.sent_us.extend(other.sent_us);
        self.late_us.extend(other.late_us);
        self.done_s.extend(other.done_s);
        self.refused.extend(other.refused);
    }

    /// Counts the refused replies as typed rejects or failures.
    fn classify(&mut self) {
        for line in std::mem::take(&mut self.refused) {
            let kind = std::str::from_utf8(&line)
                .ok()
                .and_then(|t| Json::parse(t.trim_end()).ok())
                .and_then(|j| j.get("kind").and_then(Json::as_str).map(str::to_string));
            if kind.as_deref() == Some("overloaded") {
                self.rejected += 1;
            } else {
                self.failed += 1;
            }
        }
    }
}

/// The digest of an answered reply line, `None` when it is not a decision.
fn line_digest(line: &[u8]) -> Option<u64> {
    let json = Json::parse(std::str::from_utf8(line).ok()?.trim_end()).ok()?;
    let final_action = json.get("final_action")?.as_f64_array()?;
    let pre_actions = json.get("pre_actions")?.as_f64_matrix()?;
    Some(decision_digest(&final_action, &pre_actions))
}

pub struct GenResult {
    pub phases: Vec<PhaseStats>,
    pub errors: Vec<String>,
}

struct InFlight {
    session: usize,
    phase: usize,
    due: Instant,
    sent: Instant,
}

/// State one connection's sender and receiver share.
struct Shared<'a> {
    sessions: &'a mut [GenSession],
    inflight: VecDeque<InFlight>,
    stats: Vec<PhaseStats>,
    sending_done: bool,
    /// The schedule's start.
    t0: Instant,
}

/// Runs the schedule; `sessions` are split into contiguous chunks, one
/// per connection.
pub fn run(
    addr: SocketAddr,
    panel: &AssetPanel,
    sessions: &mut [GenSession],
    phases: &[Phase],
    threads: usize,
) -> GenResult {
    let conns = (threads / 2).clamp(1, sessions.len().max(1));
    let per_conn = sessions.len().div_ceil(conns);
    let t0 = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<Vec<PhaseStats>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .chunks_mut(per_conn)
            .enumerate()
            .map(|(c, chunk)| {
                let schedule = schedule(phases, c, conns);
                s.spawn(move || connection(addr, panel, chunk, &schedule, phases.len(), t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let mut out = GenResult {
        phases: (0..phases.len()).map(|_| PhaseStats::default()).collect(),
        errors: Vec::new(),
    };
    for r in results {
        match r {
            Ok(stats) => {
                for (acc, st) in out.phases.iter_mut().zip(stats) {
                    acc.absorb(st);
                }
            }
            Err(e) => out.errors.push(e),
        }
    }
    for phase in &mut out.phases {
        phase.classify();
    }
    for session in sessions.iter_mut() {
        for line in std::mem::take(&mut session.replies) {
            match line_digest(&line) {
                Some(d) => session.digests.push(d),
                None => out
                    .errors
                    .push(format!("{}: malformed decision reply", session.name)),
            }
        }
    }
    out
}

/// Due offsets (from the run's start) and phase of connection `c`'s
/// slots: global slot `g` of a phase is due at `start + g / rate`, and
/// connection `c` owns the slots with `g mod conns == c`.
fn schedule(phases: &[Phase], c: usize, conns: usize) -> Vec<(Duration, usize)> {
    let mut out = Vec::new();
    let mut start = 0.0;
    for (p, ph) in phases.iter().enumerate() {
        let slots = (ph.secs * ph.rate).floor() as usize;
        for g in (c..slots).step_by(conns) {
            out.push((Duration::from_secs_f64(start + g as f64 / ph.rate), p));
        }
        start += ph.secs;
    }
    out
}

/// One connection: the calling thread sends, a scoped thread receives.
fn connection(
    addr: SocketAddr,
    panel: &AssetPanel,
    sessions: &mut [GenSession],
    schedule: &[(Duration, usize)],
    num_phases: usize,
    t0: Instant,
) -> Result<Vec<PhaseStats>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    // The receiver only needs the timeout to notice the end of the run.
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let shared = Mutex::new(Shared {
        sessions,
        inflight: VecDeque::new(),
        stats: (0..num_phases).map(|_| PhaseStats::default()).collect(),
        sending_done: false,
        t0,
    });
    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive(reader, &shared));
        let sent = send(&mut stream, panel, schedule, t0, &shared);
        shared.lock().expect("generator state").sending_done = true;
        if sent.is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let received = receiver
            .join()
            .unwrap_or_else(|_| Err("receiver thread panicked".into()));
        (sent, received)
    });
    sent?;
    received?;
    Ok(shared.into_inner().expect("generator state").stats)
}

fn send(
    stream: &mut TcpStream,
    panel: &AssetPanel,
    schedule: &[(Duration, usize)],
    t0: Instant,
    shared: &Mutex<Shared>,
) -> Result<(), String> {
    for (slot, &(offset, phase)) in schedule.iter().enumerate() {
        let due = t0 + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let line = {
            let mut st = shared.lock().expect("generator state");
            let idx = slot % st.sessions.len();
            let session = &mut st.sessions[idx];
            let day = session.first_day + session.replies.len();
            if session.busy || day >= panel.num_days() {
                st.stats[phase].skipped += 1;
                continue;
            }
            session.busy = true;
            let mut line = Request::Decide {
                session: session.name.clone(),
                prices: rows(panel, day, day + 1),
            }
            .render();
            line.push('\n');
            let sent = Instant::now();
            let stats = &mut st.stats[phase];
            stats.offered += 1;
            stats.late_us.push(us(sent - due));
            st.inflight.push_back(InFlight {
                session: idx,
                phase,
                due,
                sent,
            });
            line
        };
        stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
    }
    Ok(())
}

/// Reads replies and matches them to in-flight requests in order (the
/// server answers each connection in order) until sending is done and
/// nothing is in flight.
fn receive(mut reader: TcpStream, shared: &Mutex<Shared>) -> Result<(), String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut drain_by: Option<Instant> = None;
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        let received = Instant::now();
        let mut st = shared.lock().expect("generator state");
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let req = st
                .inflight
                .pop_front()
                .ok_or("reply without a request in flight")?;
            let since_start = received.duration_since(st.t0).as_secs_f64();
            let session = &mut st.sessions[req.session];
            session.busy = false;
            // Replies render `ok` first: a decision starts `{"ok":true`.
            if line.starts_with(b"{\"ok\":true") {
                session.replies.push(line);
                let stats = &mut st.stats[req.phase];
                stats.done_s.push(since_start);
                stats.answered += 1;
                stats.due_us.push(us(received - req.due));
                stats.sent_us.push(us(received - req.sent));
            } else {
                st.stats[req.phase].refused.push(line);
            }
        }
        if st.sending_done {
            if st.inflight.is_empty() {
                return Ok(());
            }
            let deadline = *drain_by.get_or_insert(received + Duration::from_secs(30));
            if received > deadline {
                return Err(format!("{} replies never arrived", st.inflight.len()));
            }
        }
    }
}
