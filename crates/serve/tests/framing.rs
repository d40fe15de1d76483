//! Line framing on the server's read path: a request line may arrive in
//! any number of reads, split anywhere (inside a number, inside a UTF-8
//! character), with the next request pipelined behind it, and a line
//! that is not UTF-8 is read with U+FFFD in place of its bad bytes.

use cit_core::{CitConfig, DecisionModel};
use cit_market::{AssetPanel, Feature, SynthConfig};
use cit_serve::{Request, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const DAYS: usize = 2048;

fn synth(num_days: usize) -> AssetPanel {
    SynthConfig {
        num_assets: 2,
        num_days,
        test_start: num_days - 10,
        seed: 29,
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

fn server() -> Server {
    let model = DecisionModel::untrained(CitConfig::smoke(29), 2).expect("smoke model");
    Server::start(model, ServeConfig::default()).expect("start server")
}

/// Writes `bytes` in pieces cut at `cuts`, pausing between pieces so
/// each tends to land in its own read, then reads `replies` lines.
fn exchange(addr: SocketAddr, bytes: &[u8], cuts: &[usize], replies: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut from = 0;
    for &cut in cuts.iter().chain([bytes.len()].iter()) {
        stream.write_all(&bytes[from..cut]).expect("write piece");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(3));
        from = cut;
    }
    (0..replies)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read reply");
            line
        })
        .collect()
}

/// A 2,048-day `open` with a `decide` (and a `close`) pipelined behind
/// it gets the same replies whether the bytes arrive in one write or
/// in pieces cut at seeded offsets — one cut inside the two-byte `ä` of
/// the session name.
#[test]
fn split_open_gets_the_same_replies_as_a_whole_one() {
    let panel = synth(DAYS + 1);
    let session = "främe";
    let mut bytes = Vec::new();
    for req in [
        Request::Open {
            session: session.into(),
            prices: rows(&panel, 0, DAYS),
        },
        Request::Decide {
            session: session.into(),
            prices: rows(&panel, DAYS, DAYS + 1),
        },
        Request::Close {
            session: session.into(),
        },
    ] {
        bytes.extend_from_slice(req.render().as_bytes());
        bytes.push(b'\n');
    }
    assert!(
        bytes.len() > 100_000,
        "the open line is {} bytes",
        bytes.len()
    );

    let server = server();
    let whole = exchange(server.addr(), &bytes, &[], 3);
    assert!(whole[0].contains(r#""ok":true"#), "{}", whole[0]);
    assert!(whole[1].contains(r#""final_action""#), "{}", whole[1]);
    assert!(whole[2].contains(r#""ok":true"#), "{}", whole[2]);

    let inside_char = bytes
        .windows(2)
        .position(|w| w == "ä".as_bytes())
        .expect("session name in the line")
        + 1;
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cuts: Vec<usize> = (0..12).map(|_| rng.random_range(1..bytes.len())).collect();
        cuts.push(inside_char);
        cuts.sort_unstable();
        cuts.dedup();
        let split = exchange(server.addr(), &bytes, &cuts, 3);
        assert_eq!(split, whole, "replies differ with cuts {cuts:?}");
    }
    server.shutdown();
}

/// A line with invalid UTF-8 inside the session name is read lossily:
/// the session is named with U+FFFD in place of the bad byte, and the
/// same bytes address it again.
#[test]
fn invalid_utf8_in_a_session_name_is_read_lossily() {
    let panel = synth(120);
    let lines = [
        Request::Open {
            session: "bad#name".into(),
            prices: rows(&panel, 0, 100),
        },
        Request::Close {
            session: "bad#name".into(),
        },
    ];
    // `#` occurs nowhere else in these lines; 0xFF is never UTF-8.
    let mut bytes = Vec::new();
    for line in &lines {
        bytes.extend(
            line.render()
                .bytes()
                .map(|b| if b == b'#' { 0xff } else { b }),
        );
        bytes.push(b'\n');
    }
    let server = server();
    let replies = exchange(server.addr(), &bytes, &[], 2);
    assert_eq!(
        replies[0],
        "{\"ok\":true,\"op\":\"open\",\"session\":\"bad\u{fffd}name\",\"days\":100}\n"
    );
    assert_eq!(
        replies[1],
        "{\"ok\":true,\"op\":\"close\",\"session\":\"bad\u{fffd}name\"}\n"
    );
    server.shutdown();
}
