//! End-to-end tests of the live metrics plane: the `stats` op under
//! real load, the admin exposition endpoint, the queue-depth gauge
//! across reject bursts, and checkpoint identity across reloads.

use cit_core::{CitConfig, CrossInsightTrader, DecisionModel};
use cit_market::{AssetPanel, Feature, SynthConfig};
use cit_serve::{json::Json, Client, ErrorKind, Request, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// One plain-HTTP GET against the admin listener; returns (status line,
/// body).
fn admin_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A live server under decide load answers `stats` with non-zero
/// last-10s throughput and latency quantiles, a per-op breakdown, and
/// consistent totals.
#[test]
fn stats_under_load_report_live_windows() {
    let panel = synth(2, 11);
    let model = DecisionModel::untrained(CitConfig::smoke(11), 2).unwrap();
    let cfg = ServeConfig {
        checkpoint_label: "smoke-11".into(),
        ..Default::default()
    };
    let server = Server::start(model, cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    assert!(client
        .call(&Request::Open {
            session: "load".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());
    for t in 160..200 {
        let reply = client
            .call(&Request::Decide {
                session: "load".into(),
                prices: rows(&panel, t, t + 1),
            })
            .unwrap();
        assert!(reply.ok(), "{:?}", reply.error_message());
    }

    let reply = client.call(&Request::Stats).unwrap();
    assert!(reply.ok());
    let stats = reply.stats().expect("typed stats payload");

    assert_eq!(stats.checkpoint, "smoke-11");
    assert_eq!(stats.sessions, 1);
    assert_eq!(stats.queue_depth, 0, "queue idle between requests");
    // open + 40 decides (+ this stats request, observed after building
    // the reply, so not yet counted).
    assert_eq!(stats.requests_total, 41);
    assert_eq!(stats.errors_total, 0);
    assert!(stats.batch_mean >= 1.0);

    // The whole burst happened inside the last 10 seconds.
    let w10 = stats.windows.iter().find(|w| w.secs == 10).expect("10s");
    assert!(w10.requests >= 41, "window missed requests: {w10:?}");
    assert!(w10.req_per_s > 0.0, "live req/s must be non-zero");
    assert!(w10.p99_us > 0.0, "live p99 must be non-zero");
    assert!(
        w10.p50_us <= w10.p95_us && w10.p95_us <= w10.p99_us,
        "quantiles must be ordered: {w10:?}"
    );

    let decide = stats.ops.iter().find(|o| o.op == "decide").expect("decide");
    assert_eq!(decide.requests, 40);
    assert_eq!(decide.errors, 0);
    assert!(decide.p99_us > 0.0);
    assert!(stats.ops.iter().any(|o| o.op == "open"));
    server.shutdown();
}

/// The admin listener serves Prometheus-parseable text exposition and a
/// JSON snapshot without speaking the line protocol; unknown paths 404.
#[test]
fn admin_endpoint_serves_parseable_exposition() {
    let panel = synth(2, 13);
    let model = DecisionModel::untrained(CitConfig::smoke(13), 2).unwrap();
    let cfg = ServeConfig {
        admin_addr: Some("127.0.0.1:0".into()),
        ..Default::default()
    };
    let server = Server::start(model, cfg).unwrap();
    let admin = server.admin_addr().expect("admin listener bound");
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client
        .call(&Request::Open {
            session: "s".into(),
            prices: rows(&panel, 0, 160),
        })
        .unwrap()
        .ok());
    for t in 160..170 {
        assert!(client
            .call(&Request::Decide {
                session: "s".into(),
                prices: rows(&panel, t, t + 1),
            })
            .unwrap()
            .ok());
    }

    let (status, body) = admin_get(admin, "/metrics");
    assert!(status.contains("200"), "bad status: {status}");
    // Expected metric families from the serving plane.
    for needle in [
        "# TYPE serve_requests counter",
        "# TYPE serve_latency histogram",
        "serve_latency_window_bucket{",
        "serve_requests_window_rate{window=\"10s\"}",
        "serve_op_decide_requests 10",
        "serve_sessions 1",
        "serve_queue_depth 0",
        "telemetry_uptime_seconds",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    // Every sample line is `name[{labels}] value` with a finite value.
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = line.rsplit_once(' ').expect("sample line shape");
        assert!(!name.is_empty());
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("bad value in {line:?}"));
        assert!(v.is_finite(), "non-finite sample in {line:?}");
    }
    // Cumulative histogram buckets are monotone non-decreasing.
    let mut last = 0u64;
    for line in body
        .lines()
        .filter(|l| l.starts_with("serve_latency_bucket"))
    {
        let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(v >= last, "non-monotone bucket: {line}");
        last = v;
    }

    let (status, body) = admin_get(admin, "/stats");
    assert!(status.contains("200"));
    let snap = Json::parse(body.trim()).expect("valid JSON snapshot");
    assert!(snap.get("uptime_s").and_then(Json::as_f64).is_some());
    assert!(snap.get("metrics").is_some());

    let (status, _) = admin_get(admin, "/nope");
    assert!(status.contains("404"), "unknown path must 404: {status}");
    server.shutdown();
}

/// Regression: a burst of `overloaded` rejects must leave the
/// queue-depth gauge at exactly zero — the rejected jobs' occupancy is
/// released on the reject path, not only on the answered path.
#[test]
fn overloaded_burst_leaves_queue_depth_zero() {
    let panel = synth(2, 19);
    let model = DecisionModel::untrained(CitConfig::smoke(19), 2).unwrap();
    let cfg = ServeConfig {
        max_batch: 1,
        queue_cap: 2,
        debug_ops: true,
        ..Default::default()
    };
    let server = Server::start(model, cfg).unwrap();
    let addr = server.addr();

    let mut setup = Client::connect(addr).unwrap();
    assert!(setup
        .call(&Request::Open {
            session: "s".into(),
            prices: rows(&panel, 0, 40),
        })
        .unwrap()
        .ok());

    // Stall the batcher, fill the bounded queue, then burst well past it.
    let stall = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call(&Request::Sleep { ms: 700 }).unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.call(&Request::Decide {
                    session: "s".into(),
                    prices: vec![],
                })
                .unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    let mut rejects = 0;
    for _ in 0..16 {
        let reply = setup
            .call(&Request::Decide {
                session: "s".into(),
                prices: vec![],
            })
            .unwrap();
        assert_eq!(reply.error_kind(), Some(ErrorKind::Overloaded));
        rejects += 1;
    }
    assert_eq!(rejects, 16);

    // Drain: stalled + queued work completes.
    assert!(stall.join().unwrap().ok());
    for f in fillers {
        assert!(f.join().unwrap().ok());
    }

    let stats = server.stats();
    assert_eq!(
        stats.queue_depth, 0,
        "rejects leaked queue occupancy: {stats:?}"
    );
    let overloaded = stats
        .errors
        .iter()
        .find(|(kind, _)| kind == "overloaded")
        .map(|(_, n)| *n)
        .unwrap_or(0);
    assert_eq!(overloaded, 16, "all rejects counted by kind");
    assert_eq!(stats.errors_total, 16);
    server.shutdown();
}

/// Regression: load-shedding rejects stay out of the windowed latency
/// histogram, as they stay out of the cumulative one. A burst of
/// microsecond `overloaded` replies outnumbering the answered requests
/// must not pull the live p50 down to reject latency.
#[test]
fn windowed_latency_excludes_shed_rejects() {
    let panel = synth(2, 23);
    let model = DecisionModel::untrained(CitConfig::smoke(23), 2).unwrap();
    let cfg = ServeConfig {
        max_batch: 1,
        queue_cap: 2,
        debug_ops: true,
        ..Default::default()
    };
    let server = Server::start(model, cfg).unwrap();
    let addr = server.addr();
    let mut setup = Client::connect(addr).unwrap();
    assert!(setup
        .call(&Request::Open {
            session: "s".into(),
            prices: rows(&panel, 0, 40),
        })
        .unwrap()
        .ok());

    // Stall the batcher so the answered requests each take >= 100 ms,
    // fill the queue, then burst rejects that are answered at once.
    let stall = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.call(&Request::Sleep { ms: 400 }).unwrap()
    });
    std::thread::sleep(Duration::from_millis(100));
    let fillers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.call(&Request::Decide {
                    session: "s".into(),
                    prices: vec![],
                })
                .unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    for _ in 0..24 {
        let reply = setup
            .call(&Request::Decide {
                session: "s".into(),
                prices: vec![],
            })
            .unwrap();
        assert_eq!(reply.error_kind(), Some(ErrorKind::Overloaded));
    }
    assert!(stall.join().unwrap().ok());
    for f in fillers {
        assert!(f.join().unwrap().ok());
    }

    // Answered: open, sleep, two decides. Rejected: 24 decides.
    let stats = server.stats();
    assert_eq!(
        stats.requests_total, 28,
        "the request count still has rejects"
    );
    let w10 = stats.windows.iter().find(|w| w.secs == 10).expect("10s");
    assert_eq!(w10.requests, 28);
    // Three of the four answered requests waited >= 100 ms behind the
    // stall; with the rejects counted the median would be theirs (µs).
    assert!(
        w10.p50_us >= 50_000.0,
        "windowed p50 {} µs reflects rejects, not answered requests",
        w10.p50_us
    );
    server.shutdown();
}

/// `stats` reports the identity of the loaded checkpoint and follows a
/// successful hot reload; a failed reload leaves it untouched.
#[test]
fn stats_track_checkpoint_identity_across_reload() {
    let panel = synth(2, 29);
    let cfg = CitConfig::smoke(29);
    let mut trader = CrossInsightTrader::new(&panel, cfg);
    trader.train(&panel);
    let dir = std::env::temp_dir().join(format!("cit_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("reload.cit");
    trader.save(&ckpt).expect("save checkpoint");

    let model = DecisionModel::from_checkpoint(&ckpt, cfg, 2).unwrap();
    let server = Server::start(
        model,
        ServeConfig {
            checkpoint_label: "boot-label".into(),
            ..Default::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let stats = client.call(&Request::Stats).unwrap().stats().unwrap();
    assert_eq!(stats.checkpoint, "boot-label");
    assert_eq!(stats.reloads, 0);

    // Failed reload: identity unchanged.
    assert!(!client
        .call(&Request::Reload {
            checkpoint: "/nonexistent/x.cit".into(),
        })
        .unwrap()
        .ok());
    let stats = client.call(&Request::Stats).unwrap().stats().unwrap();
    assert_eq!(stats.checkpoint, "boot-label");
    assert_eq!(stats.reloads, 0);

    // Successful reload: identity follows the new checkpoint path.
    assert!(client
        .call(&Request::Reload {
            checkpoint: ckpt.display().to_string(),
        })
        .unwrap()
        .ok());
    let stats = client.call(&Request::Stats).unwrap().stats().unwrap();
    assert_eq!(stats.checkpoint, ckpt.display().to_string());
    assert_eq!(stats.reloads, 1);
    server.shutdown();
    std::fs::remove_file(&ckpt).ok();
}
