//! Event-loop regression tests: connection-lifecycle behavior that the
//! old per-connection reader-thread front got wrong (or could not
//! express at all), driven over real sockets against a real `renderd`.
//!
//! Each of the three bugfix tests fails against the pre-event-loop code:
//! * `oversized_line_slow_drip_is_rejected` — the old `MAX_LINE_BYTES`
//!   guard sat in a branch `read_until` could not reach under read
//!   timeouts, so a drip-fed unterminated line grew without bound and no
//!   error was ever sent.
//! * `shutdown_completes_with_a_partial_line_pending` — the old reader
//!   only exited its shutdown check when its buffer was empty, so a
//!   half-sent request parked the drain forever.
//! * `write_errors_are_surfaced_for_vanished_clients` — the old
//!   `ConnWriter::send_line` discarded write errors, so nothing recorded
//!   that responses were going nowhere and workers kept rendering for
//!   dead clients.

use kdtune_server::server::{RenderServer, ServerConfig};
use kdtune_telemetry::json::JsonValue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kdtune-evloop-{tag}-{}.jsonl", std::process::id()))
}

fn start_server(
    tag: &str,
    config: ServerConfig,
) -> (
    String,
    std::thread::JoinHandle<std::io::Result<()>>,
    PathBuf,
) {
    let store = temp_path(tag);
    std::fs::remove_file(&store).ok();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        store_path: store.clone(),
        ..config
    };
    let server = RenderServer::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, store)
}

struct LineClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    fn connect(addr: &str) -> LineClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        LineClient { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> JsonValue {
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("recv");
        assert!(!response.is_empty(), "connection closed mid-conversation");
        kdtune_telemetry::json::parse(response.trim()).expect("response is JSON")
    }

    fn roundtrip(&mut self, line: &str) -> JsonValue {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(v: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing field {key:?} in {v}"));
    }
    cur
}

/// Scrapes the Prometheus exposition over the protocol and returns the
/// value of `name` (with `label` as a `key="value"` fragment, if given).
fn scrape_counter(client: &mut LineClient, name: &str, label: Option<&str>) -> Option<f64> {
    let response = client.roundtrip(r#"{"id":900,"cmd":"metrics"}"#);
    let text = field(&response, &["result", "text"]).as_str()?.to_string();
    for line in text.lines() {
        if !line.starts_with(name) {
            continue;
        }
        if let Some(label) = label {
            if !line.contains(label) {
                continue;
            }
        } else if line.contains('{') {
            continue;
        }
        return line.split_whitespace().last()?.parse().ok();
    }
    None
}

/// Joins a server thread with a deadline, so a drain hang fails the test
/// instead of wedging the whole suite.
fn join_within(
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    deadline: Duration,
    what: &str,
) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = handle.join();
        let _ = tx.send(result);
    });
    match rx.recv_timeout(deadline) {
        Ok(result) => result
            .expect("server thread panicked")
            .expect("server run returned an error"),
        Err(_) => panic!("{what}: server failed to shut down within {deadline:?}"),
    }
}

/// Bugfix 1: an unterminated line that dribbles in across many reads
/// must trip the per-line cap on whatever accumulation path it takes,
/// get a `bad_request` response, and lose the connection.
#[test]
fn oversized_line_slow_drip_is_rejected() {
    let (addr, handle, store) = start_server("overflow", ServerConfig::default());

    let mut drip = TcpStream::connect(&addr).expect("connect");
    drip.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // 3 x 30 KB with pauses: no single read sees the whole thing, no
    // newline ever arrives, and the total crosses MAX_LINE_BYTES (64 KB)
    // only on the third chunk.
    let chunk = vec![b'x'; 30 * 1024];
    for _ in 0..3 {
        drip.write_all(&chunk).expect("drip chunk");
        std::thread::sleep(Duration::from_millis(60));
    }

    let mut reader = BufReader::new(drip.try_clone().unwrap());
    let mut response = String::new();
    reader.read_line(&mut response).expect("error line");
    let response = kdtune_telemetry::json::parse(response.trim()).expect("line is JSON");
    assert_eq!(field(&response, &["ok"]).as_bool(), Some(false));
    assert_eq!(field(&response, &["error"]).as_str(), Some("bad_request"));
    assert!(
        field(&response, &["message"])
            .as_str()
            .unwrap()
            .contains("too long"),
        "{response}"
    );
    // The connection is closed right after the terminal error — either a
    // clean FIN or an RST (the server killed the socket while some of the
    // oversized payload was still in its receive queue).
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "nothing follows the terminal error"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
    }

    // The lifecycle series recorded the overflow kill.
    let mut probe = LineClient::connect(&addr);
    let overflows = scrape_counter(
        &mut probe,
        "renderd_conn_lifecycle_total",
        Some(r#"event="line_overflow""#),
    )
    .expect("lifecycle series present");
    assert!(overflows >= 1.0, "line_overflow counted: {overflows}");

    probe.roundtrip(r#"{"id":901,"cmd":"shutdown"}"#);
    join_within(handle, Duration::from_secs(30), "overflow test");
    std::fs::remove_file(&store).ok();
}

/// Bugfix 2: a client parked mid-request (bytes buffered, no newline)
/// must not stall shutdown — the drain closes it and `run` returns.
#[test]
fn shutdown_completes_with_a_partial_line_pending() {
    let (addr, handle, store) = start_server("partial", ServerConfig::default());

    let mut parked = TcpStream::connect(&addr).expect("connect");
    parked
        .write_all(br#"{"id":5,"cmd":"render","scene":"#)
        .expect("send partial request");
    parked.flush().unwrap();
    // Give the loop a moment to read the fragment into its buffer.
    std::thread::sleep(Duration::from_millis(100));

    let mut admin = LineClient::connect(&addr);
    let response = admin.roundtrip(r#"{"id":6,"cmd":"shutdown"}"#);
    assert_eq!(field(&response, &["ok"]).as_bool(), Some(true));

    // Pre-fix behavior: the reader held the connection open forever
    // because its buffer was non-empty, and run() never returned.
    join_within(handle, Duration::from_secs(10), "partial-line drain");

    // The parked client was closed by the drain, not left hanging.
    parked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rest = Vec::new();
    parked
        .read_to_end(&mut rest)
        .expect("drain closed the socket");
    std::fs::remove_file(&store).ok();
}

/// Bugfix 3: when a client vanishes with responses still owed, the
/// failed flush must be counted (`renderd_write_errors_total` and the
/// `write_error` lifecycle event) instead of silently discarded.
#[test]
fn write_errors_are_surfaced_for_vanished_clients() {
    let (addr, handle, store) = start_server(
        "writeerr",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );

    // Pipeline several slow renders, then vanish before any response can
    // be produced. res 256 keeps each job long enough that responses are
    // flushed one at a time: the first flush lands in the kernel buffer
    // and draws an RST from the dead peer, and a later flush errors.
    {
        let mut ghost = TcpStream::connect(&addr).expect("connect");
        for id in 0..4 {
            ghost
                .write_all(
                    format!(
                        r#"{{"id":{id},"cmd":"render","scene":"wood_doll","scale":"tiny","res":256}}"#
                    )
                    .as_bytes(),
                )
                .unwrap();
            ghost.write_all(b"\n").unwrap();
        }
        ghost.flush().unwrap();
        // drop immediately: FIN now (the client never read anything, so
        // the close is graceful), RST once responses start arriving.
    }

    let mut probe = LineClient::connect(&addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut write_errors = 0.0;
    while Instant::now() < deadline {
        write_errors =
            scrape_counter(&mut probe, "renderd_write_errors_total", None).unwrap_or(0.0);
        if write_errors >= 1.0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    assert!(
        write_errors >= 1.0,
        "a response written to a vanished client was not counted as a write error"
    );
    let lifecycle = scrape_counter(
        &mut probe,
        "renderd_conn_lifecycle_total",
        Some(r#"event="write_error""#),
    )
    .unwrap_or(0.0);
    assert!(lifecycle >= 1.0, "write_error lifecycle event not recorded");

    probe.roundtrip(r#"{"id":902,"cmd":"shutdown"}"#);
    join_within(handle, Duration::from_secs(60), "write-error test");
    std::fs::remove_file(&store).ok();
}

/// Pipelining: many requests in one burst on one connection come back
/// one response per request, in submission order (single worker).
#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle, store) = start_server(
        "pipeline",
        ServerConfig {
            workers: 1,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );

    let mut client = LineClient::connect(&addr);
    let mut batch = String::new();
    for id in 1..=6 {
        batch.push_str(&format!(
            r#"{{"id":{id},"cmd":"render","scene":"wood_doll","scale":"tiny","res":16}}"#
        ));
        batch.push('\n');
    }
    client.stream.write_all(batch.as_bytes()).unwrap();
    client.stream.flush().unwrap();

    for expected in 1..=6 {
        let response = client.recv();
        assert_eq!(
            field(&response, &["id"]).as_i64(),
            Some(expected),
            "responses arrive in submission order"
        );
        assert_eq!(field(&response, &["ok"]).as_bool(), Some(true));
    }

    client.roundtrip(r#"{"id":7,"cmd":"shutdown"}"#);
    join_within(handle, Duration::from_secs(30), "pipeline test");
    std::fs::remove_file(&store).ok();
}

/// Idle connections (accepted, zero bytes sent) must not block the
/// drain; they are closed and observe EOF.
#[test]
fn idle_connections_do_not_block_shutdown() {
    let (addr, handle, store) = start_server("idle", ServerConfig::default());

    let idlers: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(&addr).expect("connect idle"))
        .collect();
    std::thread::sleep(Duration::from_millis(100));

    let mut admin = LineClient::connect(&addr);
    let connections = field(
        &admin.roundtrip(r#"{"id":1,"cmd":"stats"}"#),
        &["result", "connections"],
    )
    .as_i64()
    .unwrap();
    assert!(
        connections >= 4,
        "stats sees the idle connections: {connections}"
    );
    admin.roundtrip(r#"{"id":2,"cmd":"shutdown"}"#);
    join_within(handle, Duration::from_secs(10), "idle-connection drain");

    for mut idler in idlers {
        idler
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut rest = Vec::new();
        idler.read_to_end(&mut rest).expect("closed by drain");
        assert!(rest.is_empty());
    }
    std::fs::remove_file(&store).ok();
}

/// `--max-conns`: accepts over the limit get one `busy` line and are
/// closed; established connections are unaffected; the rejection shows
/// up in the lifecycle series.
#[test]
fn connection_limit_rejects_excess_clients() {
    let (addr, handle, store) = start_server(
        "maxconns",
        ServerConfig {
            max_conns: 2,
            ..ServerConfig::default()
        },
    );

    let mut first = LineClient::connect(&addr);
    let mut second = LineClient::connect(&addr);
    // Roundtrips guarantee both are accepted (not just in the backlog)
    // before the third connect.
    first.roundtrip(r#"{"id":1,"cmd":"stats"}"#);
    second.roundtrip(r#"{"id":2,"cmd":"stats"}"#);

    let third = TcpStream::connect(&addr).expect("connect");
    third
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(third.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("rejection line");
    let response = kdtune_telemetry::json::parse(line.trim()).expect("line is JSON");
    assert_eq!(field(&response, &["ok"]).as_bool(), Some(false));
    assert_eq!(field(&response, &["error"]).as_str(), Some("busy"));
    assert!(
        field(&response, &["message"])
            .as_str()
            .unwrap()
            .contains("connection limit"),
        "{response}"
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "rejected connection is closed");

    let rejected = scrape_counter(
        &mut first,
        "renderd_conn_lifecycle_total",
        Some(r#"event="conn_limit""#),
    )
    .expect("lifecycle series present");
    assert!(rejected >= 1.0);
    // The survivors still work.
    let response = second.roundtrip(r#"{"id":3,"cmd":"stats"}"#);
    assert_eq!(field(&response, &["ok"]).as_bool(), Some(true));

    first.roundtrip(r#"{"id":4,"cmd":"shutdown"}"#);
    join_within(handle, Duration::from_secs(30), "max-conns test");
    std::fs::remove_file(&store).ok();
}

/// A deeply nested request line is a `bad_request`, not a stack overflow
/// on the event-loop thread: the server answers it and keeps serving
/// other connections.
#[test]
fn deeply_nested_line_is_a_bad_request() {
    let (addr, handle, store) = start_server("nested", ServerConfig::default());

    let mut nested = LineClient::connect(&addr);
    let response = nested.roundtrip(&"[".repeat(60_000));
    assert_eq!(field(&response, &["ok"]).as_bool(), Some(false));
    assert_eq!(field(&response, &["error"]).as_str(), Some("bad_request"));

    let mut other = LineClient::connect(&addr);
    let response = other.roundtrip(r#"{"id":2,"cmd":"stats"}"#);
    assert_eq!(field(&response, &["ok"]).as_bool(), Some(true));

    other.roundtrip(r#"{"id":3,"cmd":"shutdown"}"#);
    join_within(handle, Duration::from_secs(30), "nested-line test");
    std::fs::remove_file(&store).ok();
}
