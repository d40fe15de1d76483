//! Chaos tests for the serving plane: injected socket, spill and batcher
//! faults against a live server with concurrent clients. The contract
//! under test — no panics, damaged spills quarantined (never deleted)
//! and surfaced as typed `session_lost`, stale jobs shed with typed
//! `deadline_exceeded`, reject accounting consistent between clients and
//! the server, queue depth back to zero, and every session that dodged
//! the faults deciding **bitwise identically** to an uninjected run.

use cit_core::{CitConfig, DecisionModel};
use cit_faults::{FaultInjector, FaultPlan};
use cit_market::{AssetPanel, Feature, SynthConfig};
use cit_serve::{Client, ErrorKind, Request, RetryPolicy, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

fn synth(num_assets: usize, seed: u64) -> AssetPanel {
    SynthConfig {
        num_assets,
        num_days: 220,
        test_start: 160,
        seed,
        ..Default::default()
    }
    .generate()
}

/// The `[m·4]` OHLC wire rows for panel days `[from, to)`.
fn rows(panel: &AssetPanel, from: usize, to: usize) -> Vec<Vec<f64>> {
    (from..to)
        .map(|t| {
            (0..panel.num_assets())
                .flat_map(|i| {
                    [Feature::Open, Feature::High, Feature::Low, Feature::Close]
                        .into_iter()
                        .map(move |f| panel.price(t, i, f))
                })
                .collect()
        })
        .collect()
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cit_chaos_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn model(seed: u64, assets: usize) -> DecisionModel {
    DecisionModel::untrained(CitConfig::smoke(seed), assets).expect("smoke model")
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Files in `dir` whose name ends with `suffix`.
fn files_with_suffix(dir: &PathBuf, suffix: &str) -> usize {
    std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .count()
        })
        .unwrap_or(0)
}

/// A spill file damaged on disk between two server runs is quarantined
/// by the startup recovery scan — renamed to `*.corrupt`, counted in
/// `sessions_quarantined` — and the session id becomes free again. Torn
/// temp files and alien bytes get the same treatment; intact spills are
/// left alone.
#[test]
fn startup_recovery_scan_quarantines_damaged_spills() {
    let panel = synth(2, 71);
    let dir = spill_dir("recover");
    let cfg = ServeConfig {
        spill_dir: Some(dir.clone()),
        ..Default::default()
    };

    // First server: two sessions, spilled at shutdown.
    let first = Server::start(model(71, 2), cfg.clone()).unwrap();
    let mut c = Client::connect(first.addr()).unwrap();
    for name in ["victim", "intact"] {
        assert!(c
            .call(&Request::Open {
                session: name.into(),
                prices: rows(&panel, 0, 160),
            })
            .unwrap()
            .ok());
    }
    first.shutdown();
    assert_eq!(files_with_suffix(&dir, ".spill"), 2);

    // Damage one spill (truncate to half), plant a stale temp file and a
    // file that was never a spill.
    let victim_path = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| {
            std::fs::read(p).is_ok_and(|b| {
                String::from_utf8_lossy(&b).contains("victim")
                    || p.to_string_lossy().contains(&hex("victim"))
            })
        })
        .expect("victim spill on disk");
    let good = std::fs::read(&victim_path).unwrap();
    std::fs::write(&victim_path, &good[..good.len() / 2]).unwrap();
    std::fs::write(dir.join("torn.spill.tmp"), b"half a write").unwrap();
    std::fs::write(dir.join("alien.spill"), b"NOTSPILL").unwrap();

    // Second server: the scan quarantines the damage before traffic.
    let second = Server::start(model(71, 2), cfg).unwrap();
    let mut c = Client::connect(second.addr()).unwrap();
    let stats = c.call(&Request::Stats).unwrap().stats().unwrap();
    assert_eq!(
        stats.sessions_quarantined, 3,
        "truncated spill + temp file + alien bytes must all be quarantined"
    );
    assert_eq!(
        files_with_suffix(&dir, ".corrupt"),
        3,
        "renamed, not deleted"
    );
    assert_eq!(
        files_with_suffix(&dir, ".spill"),
        1,
        "intact spill untouched"
    );

    // The quarantined session's id is free again; the intact one is not.
    assert!(c
        .call(&Request::Open {
            session: "victim".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());
    assert!(!c
        .call(&Request::Open {
            session: "intact".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());
    second.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Hex encoding matching the spill filename scheme.
fn hex(name: &str) -> String {
    name.as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

/// A spill corrupted *while the server runs* (injected torn write) is
/// detected at restore: the client gets a typed `session_lost`, the file
/// is quarantined and counted, and the session id is free to reopen —
/// the server never panics and other sessions never notice.
#[test]
fn live_spill_corruption_surfaces_typed_session_lost() {
    let panel = synth(2, 73);
    let dir = spill_dir("livecorrupt");
    let plan = FaultPlan::parse("cit-faults v1\nseed 1\npartial-write serve.spill.truncate 1 40\n")
        .unwrap();
    let cfg = ServeConfig {
        spill_dir: Some(dir.clone()),
        session_ttl: Some(Duration::from_millis(40)),
        tick_ms: 10,
        faults: FaultInjector::new(plan),
        ..Default::default()
    };
    let server = Server::start(model(73, 2), cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c
        .call(&Request::Open {
            session: "s".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());

    // Let the TTL evict it — the first spill write is truncated to 40
    // bytes by the plan.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stats = c.call(&Request::Stats).unwrap().stats().unwrap();
        if stats.sessions_evicted >= 1 || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // The decide that triggers the restore must come back as a typed
    // session_lost — not a hang, not a panic, not a silent wrong answer.
    let reply = c
        .call(&Request::Decide {
            session: "s".into(),
            prices: rows(&panel, 160, 161),
        })
        .unwrap();
    assert!(!reply.ok());
    assert_eq!(
        reply.error_kind(),
        Some(ErrorKind::SessionLost),
        "restore of a torn spill must surface session_lost, got {:?}",
        reply.error_message()
    );
    let stats = c.call(&Request::Stats).unwrap().stats().unwrap();
    assert_eq!(stats.sessions_quarantined, 1);
    assert_eq!(
        files_with_suffix(&dir, ".corrupt"),
        1,
        "quarantined, not deleted"
    );
    // The id is free again and the server is fully operational.
    assert!(c
        .call(&Request::Open {
            session: "s".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A spill read that fails is not evidence of damage: the client gets a
/// typed `session_lost`, the file stays on disk and nothing is
/// quarantined, so the next decide restores the session intact.
#[test]
fn a_failed_spill_read_leaves_the_file_for_a_retry() {
    let panel = synth(2, 71);
    let dir = spill_dir("readfail");
    let plan =
        FaultPlan::parse("cit-faults v1\nseed 1\nio serve.spill.read 1 interrupted\n").unwrap();
    let faults = FaultInjector::new(plan);
    let cfg = ServeConfig {
        spill_dir: Some(dir.clone()),
        session_ttl: Some(Duration::from_millis(40)),
        tick_ms: 10,
        faults: faults.clone(),
        ..Default::default()
    };
    let server = Server::start(model(71, 2), cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c
        .call(&Request::Open {
            session: "s".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());
    while c
        .call(&Request::Stats)
        .unwrap()
        .stats()
        .unwrap()
        .sessions_evicted
        == 0
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let decide = Request::Decide {
        session: "s".into(),
        prices: rows(&panel, 160, 161),
    };
    let reply = c.call(&decide).unwrap();
    assert_eq!(
        reply.error_kind(),
        Some(ErrorKind::SessionLost),
        "{:?}",
        reply.error_message()
    );
    assert_eq!(faults.fired_count(), 1, "the read fault fired");
    assert!(
        dir.join(format!("{}.spill", hex("s"))).is_file(),
        "the unread spill stays on disk"
    );
    assert_eq!(files_with_suffix(&dir, ".corrupt"), 0);
    let stats = c.call(&Request::Stats).unwrap().stats().unwrap();
    assert_eq!(stats.sessions_quarantined, 0);
    assert_eq!(stats.sessions_restored, 0);

    // The file was left for a retry: the same decide now restores the
    // session and decides like the model replayed offline.
    let reply = c.call(&decide).unwrap();
    assert!(reply.ok(), "{:?}", reply.error_message());
    let offline = model(71, 2);
    let mut cache = offline.new_cache();
    let expected = offline.decide(&panel, 160, &offline.uniform_prev_actions(), &mut cache);
    assert_eq!(
        bits(&reply.final_action().unwrap()),
        bits(&expected.final_action)
    );
    let stats = c.call(&Request::Stats).unwrap().stats().unwrap();
    assert_eq!(stats.sessions_restored, 1);
    assert_eq!(stats.sessions_quarantined, 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Deadline budgets shed stale work: a request stuck behind a stalled
/// batch longer than `request_deadline` is answered with a typed
/// `deadline_exceeded` reject (not computed late, not dropped), the
/// retry policy recovers it, and the queue depth returns to zero.
#[test]
fn deadline_shedding_rejects_stale_queued_jobs() {
    let panel = synth(2, 79);
    let cfg = ServeConfig {
        debug_ops: true,
        request_deadline: Some(Duration::from_millis(50)),
        ..Default::default()
    };
    let server = Server::start(model(79, 2), cfg).unwrap();
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    assert!(c
        .call(&Request::Open {
            session: "d".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());

    // Stall the batcher for 150 ms from a second connection, then queue
    // a decide behind it: by the time the batcher drains it, the decide
    // has overstayed its 50 ms budget.
    let staller = std::thread::spawn(move || {
        let mut s = Client::connect(addr).unwrap();
        let r = s.call(&Request::Sleep { ms: 150 }).unwrap();
        assert!(r.ok());
    });
    std::thread::sleep(Duration::from_millis(30)); // sleep batch is in flight
    let reply = c
        .call(&Request::Decide {
            session: "d".into(),
            prices: rows(&panel, 160, 161),
        })
        .unwrap();
    staller.join().unwrap();
    assert!(!reply.ok());
    assert_eq!(
        reply.error_kind(),
        Some(ErrorKind::DeadlineExceeded),
        "stale queued job must be shed with deadline_exceeded, got {:?}",
        reply.error_message()
    );

    // A shed request touched no session state: the retry policy replays
    // the identical decide and it lands.
    let mut policy = RetryPolicy::new(10).seeded(79);
    let retried = c
        .call_retry(
            &Request::Decide {
                session: "d".into(),
                prices: rows(&panel, 160, 161),
            },
            &mut policy,
        )
        .unwrap();
    assert!(retried.ok(), "{:?}", retried.error_message());

    let stats = c.call(&Request::Stats).unwrap().stats().unwrap();
    assert!(
        stats
            .errors
            .iter()
            .any(|(tag, n)| tag == "deadline_exceeded" && *n >= 1),
        "deadline_exceeded missing from stats error breakdown: {:?}",
        stats.errors
    );
    assert_eq!(stats.queue_depth, 0, "shed jobs must release queue slots");
    server.shutdown();
}

/// Natural batching: decides that queue while a batch computes form the
/// next batch, all of them at once. Batch one is held by a
/// `serve.batch.complete` stall that the test releases itself, once it
/// has seen the other decides queued behind it (queue depth k + 1 while
/// its own job is unanswered); then it reads the batch sizes back.
#[test]
fn decides_queued_behind_a_batch_form_the_next_batch() {
    const K: usize = 6;
    let panel = synth(2, 83);
    // Each open waits for its reply, so the opens of s0..=sK are the
    // first K + 1 batches; the decide of s0 is batch K + 2 and stalls
    // until released (the ten-minute bound only ends a failed run).
    let plan = FaultPlan::parse(&format!(
        "cit-faults v1\nseed 1\ndelay serve.batch.complete {} 600000\n",
        K + 2
    ))
    .expect("plan parses");
    let faults = FaultInjector::new(plan);
    let cfg = ServeConfig {
        faults: faults.clone(),
        ..Default::default()
    };
    let (telemetry, _sink) = cit_telemetry::Telemetry::memory();
    let server = Server::start_with(model(83, 2), cfg, telemetry).unwrap();
    // Dropped before the server, so a failed assertion releases the
    // stall instead of leaving shutdown waiting on it.
    let _release = ReleaseStalls(faults.clone());
    let addr = server.addr();
    let mut c = Client::connect(addr).unwrap();
    let names: Vec<String> = (0..=K).map(|j| format!("s{j}")).collect();
    for name in &names {
        let opened = c
            .call(&Request::Open {
                session: name.clone(),
                prices: rows(&panel, 0, 160),
            })
            .unwrap();
        assert!(opened.ok(), "{:?}", opened.error_message());
    }
    let batch_size = server.telemetry().histogram("serve.batch_size", &[1.0]);
    assert_eq!(batch_size.count(), (K + 1) as u64);

    let decide_line = |name: &str| {
        let mut line = Request::Decide {
            session: name.into(),
            prices: rows(&panel, 160, 161),
        }
        .render();
        line.push('\n');
        line
    };
    let connect = || {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    };
    let mut first = connect();
    first.write_all(decide_line(&names[0]).as_bytes()).unwrap();
    while faults.fired_count() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Batch K + 2 is stalled: pipeline the other K decides in one write.
    let mut rest = connect();
    let pipelined: String = names[1..].iter().map(|n| decide_line(n)).collect();
    rest.write_all(pipelined.as_bytes()).unwrap();
    loop {
        let stats = c.call(&Request::Stats).unwrap().stats().unwrap();
        if stats.queue_depth == K + 1 {
            break;
        }
        assert!(
            batch_size.count() == (K + 1) as u64,
            "the stalled batch finished before the other decides were queued"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    faults.release_stalls();

    let mut replies = Vec::new();
    for (stream, n) in [(first, 1), (rest, K)] {
        let mut reader = BufReader::new(stream);
        for _ in 0..n {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            replies.push(cit_serve::json::Json::parse(line.trim_end()).unwrap());
        }
    }
    // Two more batches: the stalled one, then all K queued decides.
    assert_eq!(batch_size.count(), (K + 3) as u64);
    assert_eq!(batch_size.sum(), ((K + 1) + 1 + K) as f64);

    // Batch composition changes no bits: every session decides like the
    // model replayed offline on the same day.
    let offline = model(83, 2);
    let mut cache = offline.new_cache();
    let expected = offline.decide(&panel, 160, &offline.uniform_prev_actions(), &mut cache);
    for reply in &replies {
        let served = reply
            .get("final_action")
            .and_then(cit_serve::json::Json::as_f64_array)
            .unwrap_or_else(|| panic!("not a decision: {}", reply.render()));
        assert_eq!(bits(&served), bits(&expected.final_action));
    }
    server.shutdown();
}

/// Releases an injector's stalls when dropped.
struct ReleaseStalls(FaultInjector);

impl Drop for ReleaseStalls {
    fn drop(&mut self) {
        self.0.release_stalls();
    }
}

/// What a chaos-soak worker saw, for parity and accounting.
struct WorkerReport {
    session: String,
    /// Bitwise final actions for each decided day, in order.
    decided: Vec<Vec<u64>>,
    /// Retryable rejects observed (retries taken + terminal rejects).
    rejects: u64,
    /// The worker lost its connection or its session mid-run.
    excluded: bool,
    /// Responses that were neither ok nor a typed protocol error.
    protocol_errors: u64,
}

/// The full chaos soak: the CI fault plan (sockets, spills, batcher
/// stalls, reload) against concurrent clients with retrying, over a
/// server with aggressive eviction and a deadline budget. Asserts the
/// whole robustness contract at once.
#[test]
fn chaos_soak_survives_combined_fault_plan() {
    const WORKERS: usize = 8;
    const DAYS: std::ops::Range<usize> = 160..190;
    let panel = synth(2, 83);

    // Uninjected control: the bitwise ground truth per day. Sessions are
    // independent, so one control session stands for all of them.
    let control = Server::start(model(83, 2), ServeConfig::default()).unwrap();
    let mut cc = Client::connect(control.addr()).unwrap();
    assert!(cc
        .call(&Request::Open {
            session: "ctl".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());
    let mut expected: Vec<Vec<u64>> = Vec::new();
    for t in DAYS {
        let r = cc
            .call(&Request::Decide {
                session: "ctl".into(),
                prices: rows(&panel, t, t + 1),
            })
            .unwrap();
        assert!(r.ok());
        expected.push(bits(&r.final_action().unwrap()));
    }
    control.shutdown();

    // Chaos server under the same plan ci.sh uses.
    let plan_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../faults/plans/serve_chaos.plan");
    let plan_text = std::fs::read_to_string(&plan_path).expect("serve_chaos.plan readable");
    let plan = FaultPlan::parse(&plan_text).expect("serve_chaos.plan parses");
    let dir = spill_dir("soak");
    let cfg = ServeConfig {
        spill_dir: Some(dir.clone()),
        session_ttl: Some(Duration::from_millis(40)),
        tick_ms: 10,
        request_deadline: Some(Duration::from_millis(25)),
        faults: FaultInjector::new(plan),
        ..Default::default()
    };
    let server = Server::start(model(83, 2), cfg).unwrap();
    let addr = server.addr();

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let panel = panel.clone();
            std::thread::spawn(move || {
                let session = format!("w{w}");
                let mut report = WorkerReport {
                    session: session.clone(),
                    decided: Vec::new(),
                    rejects: 0,
                    excluded: false,
                    protocol_errors: 0,
                };
                let mut client = match Client::connect(addr) {
                    Ok(c) => c,
                    Err(_) => {
                        report.excluded = true;
                        return report;
                    }
                };
                let mut policy = RetryPolicy::new(12).seeded(1000 + w as u64);
                let open = client.call_retry(
                    &Request::Open {
                        session: session.clone(),
                        prices: rows(&panel, 0, 160),
                    },
                    &mut policy,
                );
                match open {
                    Ok(r) if r.ok() => {}
                    Ok(_) | Err(_) => {
                        report.rejects += std::mem::take(&mut policy.retries_taken);
                        report.excluded = true;
                        return report;
                    }
                }
                for (i, t) in DAYS.enumerate() {
                    // Go idle past the TTL on some days so eviction,
                    // spill and restore interleave with the faults.
                    if t % 3 == w % 3 {
                        std::thread::sleep(Duration::from_millis(60));
                    }
                    let reply = client.call_retry(
                        &Request::Decide {
                            session: session.clone(),
                            prices: rows(&panel, t, t + 1),
                        },
                        &mut policy,
                    );
                    match reply {
                        Ok(r) if r.ok() => {
                            report.decided.push(bits(&r.final_action().unwrap()));
                        }
                        Ok(r) => {
                            match r.error_kind() {
                                // Session state is gone (quarantined
                                // spill) — a real client reopens; for
                                // parity this stream is over.
                                Some(ErrorKind::SessionLost) => {}
                                // Retries exhausted on a retryable kind:
                                // counts as one more observed reject.
                                Some(k) if k.is_retryable() => report.rejects += 1,
                                _ => report.protocol_errors += 1,
                            }
                            report.excluded = true;
                            break;
                        }
                        // Connection killed by an injected socket fault:
                        // a mid-flight decide must not be blindly
                        // resent (it may have been applied), so the
                        // stream ends here.
                        Err(_) => {
                            report.excluded = true;
                            break;
                        }
                    }
                    let _ = i;
                }
                report.rejects += policy.retries_taken;
                report
            })
        })
        .collect();

    let reports: Vec<WorkerReport> = workers
        .into_iter()
        .map(|h| h.join().expect("chaos worker must not panic"))
        .collect();

    // No response was ever malformed or mistyped.
    let protocol_errors: u64 = reports.iter().map(|r| r.protocol_errors).sum();
    assert_eq!(
        protocol_errors, 0,
        "typed-error contract violated under chaos"
    );

    // Bitwise parity: every decision any worker got — including those of
    // workers later excluded — matches the uninjected control stream.
    let mut clean = 0;
    for report in &reports {
        for (day, got) in report.decided.iter().enumerate() {
            assert_eq!(
                got, &expected[day],
                "session {} diverged from control at day index {day}",
                report.session
            );
        }
        if !report.excluded {
            assert_eq!(report.decided.len(), DAYS.len());
            clean += 1;
        }
    }
    assert!(
        clean >= 2,
        "too few sessions survived the plan cleanly ({clean}/{WORKERS}) — the soak is vacuous"
    );

    // Accounting against the server, via a resilient stats client.
    let mut stats_policy = RetryPolicy::new(8).seeded(2).with_io_retries();
    let mut sc = Client::connect(addr).unwrap();
    let stats = sc
        .call_retry(&Request::Stats, &mut stats_policy)
        .unwrap()
        .stats()
        .unwrap();

    // Every retryable reject a client observed was counted by the server;
    // the server may additionally have counted rejects whose response
    // died with an injected connection drop (at most one in-flight per
    // dropped worker).
    let client_rejects: u64 = reports.iter().map(|r| r.rejects).sum();
    let server_rejects: u64 = stats
        .errors
        .iter()
        .filter(|(tag, _)| tag == "overloaded" || tag == "deadline_exceeded")
        .map(|(_, n)| n)
        .sum();
    let dropped = reports.iter().filter(|r| r.excluded).count() as u64;
    assert!(
        server_rejects >= client_rejects && server_rejects - client_rejects <= dropped,
        "reject accounting drifted: clients saw {client_rejects}, server counted \
         {server_rejects}, {dropped} workers dropped"
    );

    // The plan's spill corruption was detected and quarantined (the
    // workers' idle periods force eviction/restore traffic through it).
    assert!(
        stats.sessions_quarantined >= 1,
        "no spill damage was ever quarantined — the spill faults never bit"
    );
    assert_eq!(
        files_with_suffix(&dir, ".corrupt") as u64,
        stats.sessions_quarantined
    );

    // All shed and answered work released its queue slot.
    assert_eq!(stats.queue_depth, 0, "queue depth must return to zero");

    // The injected reload fault was absorbed as a typed reload_failed
    // without touching the live model.
    let before = stats.reloads;
    let r = sc
        .call_retry(
            &Request::Reload {
                checkpoint: "/nonexistent".into(),
            },
            &mut stats_policy,
        )
        .unwrap();
    assert!(!r.ok());
    assert_eq!(r.error_kind(), Some(ErrorKind::ReloadFailed));
    let after = sc
        .call_retry(&Request::Stats, &mut stats_policy)
        .unwrap()
        .stats()
        .unwrap();
    assert_eq!(
        after.reloads, before,
        "failed reload must not swap the model"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
