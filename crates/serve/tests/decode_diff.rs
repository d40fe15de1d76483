//! Differential test of the request decoder.
//!
//! `Request::parse` decodes a line's `prices` straight into rows and
//! builds `Json` values only for the small fields. The reference below
//! is the plain path it replaces: the whole line as a `Json` tree, then
//! the field lookups. Seeded generators render every request variant
//! with awkward numbers, reordered, duplicate and unknown keys and extra
//! whitespace, then damage the lines. On every line both decoders must
//! give the same `Ok` (prices compared by `f64` bits) or the same error
//! text.
//!
//! The soak runs many more lines:
//!
//! ```sh
//! cargo test -p cit-serve --release --test decode_diff -- --ignored decoder_soak_matches_tree_parse
//! ```

use cit_serve::json::Json;
use cit_serve::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference decoder: `Json::parse`, then the field extraction
/// `Request::parse` performs.
fn reference_parse(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
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
    let prices = |required: bool| -> Result<Vec<Vec<f64>>, String> {
        match v.get("prices") {
            Some(p) => p
                .as_f64_matrix()
                .ok_or_else(|| "\"prices\" must be an array of number rows".to_string()),
            None if !required => Ok(Vec::new()),
            None => Err("missing field \"prices\"".into()),
        }
    };
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

/// The request's price rows as bits (`-0.0` and `0.0` differ).
fn price_bits(req: &Request) -> Vec<Vec<u64>> {
    match req {
        Request::Open { prices, .. }
        | Request::OpenAs { prices, .. }
        | Request::Decide { prices, .. }
        | Request::DecideAs { prices, .. } => prices
            .iter()
            .map(|row| row.iter().map(|v| v.to_bits()).collect())
            .collect(),
        _ => Vec::new(),
    }
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

fn chance(rng: &mut StdRng, percent: u32) -> bool {
    rng.random_range(0..100u32) < percent
}

/// Whitespace the reader skips between tokens (usually none).
fn ws(rng: &mut StdRng) -> &'static str {
    if chance(rng, 85) {
        ""
    } else {
        ["  ", "\t", "\r\n", "\n "][rng.random_range(0..4usize)]
    }
}

/// A random `f64` bit pattern, weighted towards the awkward ones.
fn awkward_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..10u32) {
        0 => f64::from_bits(rng.random::<u64>()),
        1 => [0.0, -0.0][rng.random_range(0..2usize)],
        // Subnormals.
        2 => f64::from_bits(rng.random_range(1..1u64 << 52)),
        3 => [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
        ][rng.random_range(0..6usize)],
        4 => rng.random_range(-1e6..1e6),
        _ => rng.random_range(1.0..500.0),
    }
}

/// The text of one number: usually a valid rendering, sometimes a form
/// `str::parse` also accepts, and when `dirty`, sometimes one it
/// refuses.
fn number_text(rng: &mut StdRng, dirty: bool) -> String {
    let v = awkward_f64(rng);
    match rng.random_range(0..20u32) {
        1 if !dirty => format!("{v}"),
        0 => pick(
            rng,
            &[
                "+1", ".5", "1.", "1e400", "-1e400", "1E5", "1e+5", "-.5e-3", "00012", "-0",
                "1e-400", "0.0000",
            ],
        )
        .to_string(),
        1 => pick(
            rng,
            &[
                "", "-", "+", "1e", "--1", "1.2.3", "e5", "1e5e5", ".", "-e", "1-", "+-1", "0x10",
            ],
        )
        .to_string(),
        2 => format!("{v:e}"),
        3 => format!("{v:E}"),
        _ => format!("{v}"),
    }
}

/// One `prices` value: a matrix of numbers, sometimes ragged or with
/// empty rows, and when `dirty`, sometimes with a malformed number or a
/// non-number element.
fn prices_text(rng: &mut StdRng) -> String {
    let dirty = chance(rng, 40);
    let rows = match rng.random_range(0..10u32) {
        0 => 0,
        1 => rng.random_range(20..80usize),
        _ => rng.random_range(1..5usize),
    };
    let width = rng.random_range(0..10usize);
    let mut out = String::from("[");
    for r in 0..rows {
        if r > 0 {
            out.push_str(ws(rng));
            out.push(',');
        }
        out.push_str(ws(rng));
        if dirty && chance(rng, 2) {
            out.push_str(pick(rng, &["7", "null", "\"row\"", "{}", "{\"a\":[1]}"]));
            continue;
        }
        let cols = if chance(rng, 10) {
            rng.random_range(0..12usize)
        } else {
            width
        };
        out.push('[');
        for c in 0..cols {
            if c > 0 {
                out.push(',');
            }
            out.push_str(ws(rng));
            if dirty && chance(rng, 1) {
                out.push_str(pick(
                    rng,
                    &["null", "true", "false", "\"1\"", "[1,2]", "[]", "{}", "nul"],
                ));
            } else {
                out.push_str(&number_text(rng, dirty));
            }
            out.push_str(ws(rng));
        }
        out.push(']');
    }
    out.push_str(ws(rng));
    out.push(']');
    out
}

/// A non-empty JSON string literal, with escapes and non-ASCII
/// characters.
fn string_text(rng: &mut StdRng) -> String {
    let mut out = String::from("\"");
    for _ in 0..rng.random_range(1..8usize) {
        out.push_str(pick(
            rng,
            &[
                "s", "w7", "é", "中", "🙂", "\\n", "\\\"", "\\\\", "\\/", "\\u0041", "\\ud800",
                "\\u00e9", " ", "-", "\\t",
            ],
        ));
    }
    out.push('"');
    out
}

/// Any small JSON value, for unknown keys and wrongly typed fields.
fn other_value(rng: &mut StdRng) -> String {
    match rng.random_range(0..8u32) {
        0 => "null".into(),
        1 => "true".into(),
        2 => number_text(rng, true),
        3 => string_text(rng),
        4 => "[]".into(),
        5 => format!("{{\"k\":{},\"l\":[1,{{}}]}}", string_text(rng)),
        6 => format!("[{},[{}]]", number_text(rng, true), number_text(rng, true)),
        _ => "{}".into(),
    }
}

/// A request line: the members of one of the ops, shuffled, with
/// optional duplicate and unknown keys.
fn request_line(rng: &mut StdRng) -> String {
    let op = pick(
        rng,
        &[
            "open", "open", "open", "decide", "decide", "decide", "close", "info", "stats",
            "reload", "shutdown", "sleep", "warp",
        ],
    );
    let mut members: Vec<(String, String)> = Vec::new();
    let op_value = if chance(rng, 3) {
        other_value(rng)
    } else {
        format!("\"{op}\"")
    };
    members.push(("op".into(), op_value));
    let wants_session = matches!(op, "open" | "decide" | "close");
    if (wants_session && !chance(rng, 5)) || chance(rng, 10) {
        let value = match rng.random_range(0..20u32) {
            0 => "\"\"".into(),
            1 => other_value(rng),
            _ => string_text(rng),
        };
        members.push(("session".into(), value));
    }
    let wants_prices = matches!(op, "open" | "decide");
    if (wants_prices && !chance(rng, 10)) || chance(rng, 5) {
        let value = if chance(rng, 5) {
            other_value(rng)
        } else {
            prices_text(rng)
        };
        members.push(("prices".into(), value));
    }
    if chance(rng, 30) {
        let value = match rng.random_range(0..10u32) {
            0 => "\"\"".into(),
            1 => other_value(rng),
            _ => format!("\"{}\"", pick(rng, &["alt", "auto", "default", "m2"])),
        };
        members.push(("model".into(), value));
    }
    if op == "reload" || chance(rng, 3) {
        let value = if chance(rng, 10) {
            other_value(rng)
        } else {
            string_text(rng)
        };
        members.push(("checkpoint".into(), value));
    }
    if op == "sleep" || chance(rng, 3) {
        let value = pick(
            rng,
            &[
                "0",
                "250",
                "1.5",
                "-3",
                "4294967295",
                "4294967296",
                "1e3",
                "\"5\"",
            ],
        );
        members.push(("ms".into(), value.into()));
    }
    // Unknown keys, and duplicates of known ones (the first wins).
    let extras = if chance(rng, 30) {
        rng.random_range(1..3usize)
    } else {
        0
    };
    for _ in 0..extras {
        let key = pick(rng, &["extra", "id", "prices", "op", "session", "model"]);
        let value = if key == "prices" && chance(rng, 50) {
            prices_text(rng)
        } else {
            other_value(rng)
        };
        members.push((key.into(), value));
    }
    for i in (1..members.len()).rev() {
        let j = rng.random_range(0..i + 1);
        members.swap(i, j);
    }
    let mut line = format!("{}{{", ws(rng));
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{}\"{key}\"{}:{}{value}{}",
            ws(rng),
            ws(rng),
            ws(rng),
            ws(rng)
        ));
    }
    line.push('}');
    line.push_str(ws(rng));
    line
}

/// Damages a line: truncation, byte flips, inserted or deleted
/// characters. Bytes that stop being UTF-8 are read the way the server
/// reads such a line, with U+FFFD in place of each bad sequence.
fn mutate(rng: &mut StdRng, line: String) -> String {
    let mut bytes = line.into_bytes();
    for _ in 0..rng.random_range(1..4usize) {
        let at = rng.random_range(0..bytes.len() + 1);
        match rng.random_range(0..6u32) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] ^= 1 << rng.random_range(0..8u32),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {
                let ins = pick(
                    rng,
                    &[
                        ",", "]", "\"", "[", "{", "}", ":", " ", "-", "e", ".", "null", "[]", "1",
                    ],
                );
                bytes.splice(at..at, ins.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Decodes `cases` generated lines (about one in three damaged) with
/// both decoders and requires identical results.
fn run_differential(seed: u64, cases: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut ok, mut err, mut with_rows) = (0usize, 0usize, 0usize);
    for case in 0..cases {
        let mut line = request_line(&mut rng);
        if chance(&mut rng, 35) {
            line = mutate(&mut rng, line);
        }
        let got = Request::parse(&line);
        let want = reference_parse(&line);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g, w, "case {case}: requests differ on line {line:?}");
                assert_eq!(
                    price_bits(g),
                    price_bits(w),
                    "case {case}: price bits differ on line {line:?}"
                );
                ok += 1;
                if !price_bits(g).is_empty() {
                    with_rows += 1;
                }
            }
            (Err(g), Err(w)) => {
                assert_eq!(g, w, "case {case}: errors differ on line {line:?}");
                err += 1;
            }
            _ => panic!("case {case}: {got:?} vs reference {want:?} on line {line:?}"),
        }
    }
    // The generator must reach both outcomes, and accepted prices.
    assert!(ok * 10 >= cases, "only {ok} of {cases} lines accepted");
    assert!(err * 10 >= cases, "only {err} of {cases} lines rejected");
    assert!(
        with_rows * 20 >= cases,
        "only {with_rows} of {cases} lines carried prices"
    );
}

#[test]
fn decoder_matches_tree_parse() {
    run_differential(0x5eed_d1ff, 10_000);
}

/// Lines a generator may hit rarely, checked every run.
#[test]
fn decoder_matches_tree_parse_on_edge_lines() {
    let lines = [
        r#"{"op":"open","session":"s","prices":[[+1,.5,1.,1e400]]}"#,
        r#"{"op":"open","session":"s","prices":[[-0,0,5e-324,-1e-400]]}"#,
        r#"{"op":"open","session":"s","prices":[]}"#,
        r#"{"op":"open","session":"s","prices":[[],[]]}"#,
        r#"{"op":"open","session":"s","prices":[[1,2],[3]]}"#,
        r#"{"op":"open","session":"s","prices":[[1,null]]}"#,
        r#"{"op":"open","session":"s","prices":[[1,[2]]]}"#,
        r#"{"op":"open","session":"s","prices":[[1,"2"]]}"#,
        r#"{"op":"open","session":"s","prices":[[1,]]}"#,
        r#"{"op":"open","session":"s","prices":[[1 2]]}"#,
        r#"{"op":"open","session":"s","prices":[[1e]]}"#,
        r#"{"op":"open","session":"s","prices":[[1],]}"#,
        r#"{"op":"open","session":"s","prices":[1,2]}"#,
        r#"{"op":"open","session":"s","prices":[[1]"#,
        r#"{"op":"open","session":"s","prices":[[1,2]],"prices":"x"}"#,
        r#"{"op":"open","session":"s","prices":"x","prices":[[1,2]]}"#,
        r#"{"op":"open","session":"s","prices":[[1,2]],"prices":[[1,}"#,
        r#"{"prices":[[1,2]],"op":"decide","session":"s","op":"close"}"#,
        r#"{"op":"decide","session":"s","prices":[[1]] } trailing"#,
        r#"  {"op":"decide","session":"s","prices":[ [ 1 , 2 ] , [ 3 ] ] }  "#,
        r#"[{"op":"info"}]"#,
        r#""prices""#,
        "",
        "{",
        r#"{"op":"open","session":"é\ud800","prices":[[1]]}"#,
    ];
    for line in lines {
        let got = Request::parse(line);
        let want = reference_parse(line);
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g, w, "line {line:?}");
                assert_eq!(price_bits(g), price_bits(w), "line {line:?}");
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "line {line:?}"),
            _ => panic!("{got:?} vs reference {want:?} on line {line:?}"),
        }
    }
}

/// The long run: `--ignored`, in release.
#[test]
#[ignore = "soak: run with --release -- --ignored"]
fn decoder_soak_matches_tree_parse() {
    run_differential(0x50a4_2024, 1_000_000);
}
