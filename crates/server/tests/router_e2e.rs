//! Router end-to-end tests: a real `kdtune route` front over real
//! shards, driven by the real `loadgen` client and raw line clients.
//!
//! Two topologies are exercised: *attach* mode over in-process
//! [`RenderServer`]s (fast, covers routing/merging/draining), and
//! *spawn* mode over actual `renderd` child processes (covers
//! supervision: kill -9 mid-load must produce structured errors and
//! re-hash, and the replacement child must be readopted).

use kdtune_server::loadgen::{self, LoadgenOptions};
use kdtune_server::router::{Router, RouterConfig, ShardMode};
use kdtune_server::server::{RenderServer, ServerConfig};
use kdtune_telemetry::json::JsonValue;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kdtune-router-{tag}-{}.jsonl", std::process::id()))
}

fn start_shard(tag: &str) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        store_path: temp_path(tag),
        ..ServerConfig::default()
    };
    std::fs::remove_file(&config.store_path).ok();
    let server = RenderServer::bind(config).expect("bind shard");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn start_router(config: RouterConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let router = Router::bind(config).expect("bind router");
    let addr = router.local_addr().to_string();
    (addr, std::thread::spawn(move || router.run()))
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
        self.stream.flush().unwrap();
    }

    fn recv(&mut self) -> JsonValue {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("recv");
        assert!(n > 0, "server closed the connection mid-conversation");
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

fn render_line(id: i64, scene: &str) -> String {
    format!(
        r#"{{"id":{id},"cmd":"render","trace":"t{id}","scene":"{scene}","scale":"tiny","res":32,"frame":0}}"#
    )
}

/// Sends `signal` (`-STOP`, `-9`, …) to `pid`; true when `kill` succeeded.
fn signal(signal: &str, pid: u64) -> bool {
    std::process::Command::new("kill")
        .args([signal, &pid.to_string()])
        .status()
        .expect("spawn kill")
        .success()
}

/// Kills spawned shard processes if the test unwinds: a failed assertion
/// must not leave `renderd` children running, holding the test's stdout.
struct ShardReaper(Vec<u64>);

impl Drop for ShardReaper {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for &pid in &self.0 {
                signal("-9", pid);
            }
        }
    }
}

fn tune_line(id: i64, scene: &str, steps: u32) -> String {
    format!(
        r#"{{"id":{id},"cmd":"tune_step","trace":"t{id}","scene":"{scene}","scale":"tiny","res":32,"steps":{steps}}}"#
    )
}

/// Attach mode: loadgen through the router must complete with zero
/// trace mismatches, `stats` must merge the shard views while keeping
/// the single-renderd paths loadgen reads, each session key must live
/// on exactly one shard, and merged `metrics` must expose per-shard
/// labeled series.
#[test]
fn attach_router_routes_merges_and_partitions_sessions() {
    let (shard_a, handle_a) = start_shard("attach-a");
    let (shard_b, handle_b) = start_shard("attach-b");
    let (router_addr, router_handle) = start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: ShardMode::Attach(vec![shard_a.clone(), shard_b.clone()]),
        ..RouterConfig::default()
    });

    let options = LoadgenOptions {
        connections: 4,
        requests: 96,
        res: 32,
        scenes: vec![
            "bunny".into(),
            "fairy_forest".into(),
            "toasters".into(),
            "wood_doll".into(),
        ],
        out: None,
        expect_router: true,
        ..LoadgenOptions::defaults(router_addr.clone())
    };
    let report = loadgen::run(&options).expect("loadgen through router");
    assert!(report.ok > 0, "no request succeeded: {report:?}");
    assert_eq!(
        report.protocol_errors, 0,
        "errors: {:?}",
        report.first_errors
    );
    assert_eq!(
        report.trace_mismatches, 0,
        "request/response pairing broke through the router"
    );
    assert!(report.router, "stats did not identify a router");
    assert_eq!(report.router_shards.len(), 2);
    assert!(
        report
            .router_shards
            .iter()
            .all(|(_, state, _)| state == "up"),
        "shards: {:?}",
        report.router_shards
    );
    // Four scenes hash across two shards; both sides of the ring should
    // have seen traffic (the probability of a 4-scene wipeout on one
    // side is low and deterministic — same ring every run).
    assert!(
        report.router_shards.iter().all(|(_, _, fwd)| *fwd > 0),
        "one shard never saw traffic: {:?}",
        report.router_shards
    );

    // Session partitioning: each session id must live on exactly one
    // shard, and the merged count must equal the sum of the parts.
    let mut control = LineClient::connect(&router_addr);
    let stats = control.roundtrip(r#"{"id":1,"cmd":"stats"}"#);
    assert_eq!(field(&stats, &["ok"]).as_bool(), Some(true));
    let result = field(&stats, &["result"]);
    assert_eq!(field(result, &["shards_up"]).as_u64(), Some(2));
    let merged_sessions = field(result, &["sessions", "count"]).as_u64().unwrap();
    let mut per_shard_sessions: Vec<Vec<String>> = Vec::new();
    if let JsonValue::Array(shards) = field(result, &["shards"]) {
        for shard in shards {
            let ids = match field(shard, &["stats", "sessions", "ids"]) {
                JsonValue::Array(ids) => ids
                    .iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect(),
                other => panic!("sessions.ids is not an array: {other}"),
            };
            per_shard_sessions.push(ids);
        }
    } else {
        panic!("stats.shards is not an array");
    }
    let total: usize = per_shard_sessions.iter().map(Vec::len).sum();
    assert_eq!(merged_sessions as usize, total);
    for id in &per_shard_sessions[0] {
        assert!(
            !per_shard_sessions[1].contains(id),
            "session {id} lives on both shards — keyspace not partitioned"
        );
    }
    // Both cache paths loadgen depends on survive the merge.
    assert!(field(result, &["cache", "hit_rate"]).as_f64().is_some());
    assert!(field(result, &["requests", "renders"]).as_u64().unwrap() > 0);

    // Merged metrics: per-shard labeled copies of the shard series plus
    // the router's own series, in both expositions.
    let text = control.roundtrip(r#"{"id":2,"cmd":"metrics"}"#);
    let text = field(&text, &["result", "text"])
        .as_str()
        .unwrap()
        .to_string();
    for needle in [
        "renderd_requests_total{cmd=\"render\",code=\"ok\",shard=\"0\"}",
        "renderd_requests_total{cmd=\"render\",code=\"ok\",shard=\"1\"}",
        "router_requests_total{code=\"ok\"}",
        "router_forwarded_total{shard=\"0\"}",
    ] {
        assert!(
            text.contains(needle),
            "metrics text lacks {needle}:\n{text}"
        );
    }
    // Aggregate (unlabeled) series must also be present.
    assert!(text.contains("renderd_requests_total{cmd=\"render\",code=\"ok\"}"));
    let json = control.roundtrip(r#"{"id":3,"cmd":"metrics","format":"json"}"#);
    let metrics = field(&json, &["result", "metrics"]);
    assert!(
        metrics.get("counters").is_some() && metrics.get("histograms").is_some(),
        "merged metrics json missing sections: {metrics}"
    );

    // Attach-mode shutdown drains the router but leaves the shards
    // (externally owned) running; shut those down directly.
    let bye = control.roundtrip(r#"{"id":4,"cmd":"shutdown"}"#);
    assert_eq!(field(&bye, &["ok"]).as_bool(), Some(true));
    drop(control);
    router_handle.join().unwrap().unwrap();
    for addr in [&shard_a, &shard_b] {
        LineClient::connect(addr).roundtrip(r#"{"id":9,"cmd":"shutdown"}"#);
    }
    handle_a.join().unwrap().unwrap();
    handle_b.join().unwrap().unwrap();
}

/// With every shard down, render requests get a structured
/// `unavailable` error immediately — not a hang, not a dropped
/// connection.
#[test]
fn all_shards_down_yields_structured_unavailable() {
    // A bound-then-dropped listener gives an address nothing listens on.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead.local_addr().unwrap().to_string();
    drop(dead);
    let (router_addr, router_handle) = start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: ShardMode::Attach(vec![dead_addr]),
        ..RouterConfig::default()
    });
    let mut client = LineClient::connect(&router_addr);
    let response = client.roundtrip(&render_line(7, "bunny"));
    assert_eq!(field(&response, &["ok"]).as_bool(), Some(false));
    assert_eq!(field(&response, &["error"]).as_str(), Some("unavailable"));
    assert_eq!(field(&response, &["trace"]).as_str(), Some("t7"));
    // Control commands still answer with the router-only view.
    let stats = client.roundtrip(r#"{"id":8,"cmd":"stats"}"#);
    assert_eq!(field(&stats, &["result", "shards_up"]).as_u64(), Some(0));
    client.roundtrip(r#"{"id":9,"cmd":"shutdown"}"#);
    drop(client);
    router_handle.join().unwrap().unwrap();
}

/// Spawn mode: the router launches real `renderd` children, survives a
/// `kill -9` of one of them (in-flight requests on it fail with
/// structured `unavailable`, its keys re-hash to the survivor), and
/// readopts the respawned replacement.
#[test]
fn spawned_shard_killed_midload_rehashes_and_is_readopted() {
    let renderd = env!("CARGO_BIN_EXE_renderd").to_string();
    let store_base = temp_path("spawn").display().to_string();
    for i in 0..2 {
        std::fs::remove_file(format!("{store_base}.shard{i}.jsonl")).ok();
    }
    let (router_addr, router_handle) = start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: ShardMode::Spawn {
            count: 2,
            command: vec![
                renderd,
                "--workers".into(),
                "1".into(),
                "--queue".into(),
                "64".into(),
                "--cache-mb".into(),
                "32".into(),
            ],
        },
        shard_store_base: Some(store_base),
        ..RouterConfig::default()
    });

    let mut control = LineClient::connect(&router_addr);
    let shard_rows = |control: &mut LineClient| -> Vec<JsonValue> {
        let stats = control.roundtrip(r#"{"id":1,"cmd":"stats"}"#);
        match field(&stats, &["result", "shards"]) {
            JsonValue::Array(rows) => rows.clone(),
            other => panic!("stats.shards is not an array: {other}"),
        }
    };
    let wait_shards_up = |control: &mut LineClient, want: u64| {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = control.roundtrip(r#"{"id":1,"cmd":"stats"}"#);
            let up = field(&stats, &["result", "shards_up"]).as_u64().unwrap();
            if up == want {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {want} shards up (at {up})"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    wait_shards_up(&mut control, 2);
    let pid_of = |row: &JsonValue| field(row, &["pid"]).as_u64().unwrap();
    let mut reaper = ShardReaper(shard_rows(&mut control).iter().map(pid_of).collect());

    // Seed sessions across both shards, then find which shard owns
    // "bunny" so the kill is aimed at a shard with known keys.
    let mut client = LineClient::connect(&router_addr);
    for (i, scene) in ["bunny", "fairy_forest", "toasters", "wood_doll"]
        .iter()
        .enumerate()
    {
        let response = client.roundtrip(&render_line(100 + i as i64, scene));
        assert_eq!(
            field(&response, &["ok"]).as_bool(),
            Some(true),
            "seed render failed: {response}"
        );
    }
    let rows = shard_rows(&mut control);
    let owner = rows
        .iter()
        .position(|row| {
            matches!(
                field(row, &["stats", "sessions", "ids"]),
                JsonValue::Array(ids) if ids.iter().any(|id| {
                    id.as_str().is_some_and(|s| s.starts_with("bunny@"))
                })
            )
        })
        .expect("some shard owns the bunny session");
    let victim_pid = pid_of(&rows[owner]);

    // Freeze the doomed shard, pipeline a burst at it, and kill it with
    // the whole burst in flight. The router handles a connection's lines
    // in order and answers a malformed line itself, so once that
    // `bad_request` arrives every tune line before it is pending on the
    // frozen shard. Every request must get *some* response line — ok if
    // it completed before the kill landed, a structured `unavailable`
    // otherwise. A hang here trips the read timeout and fails the test.
    assert!(
        signal("-STOP", victim_pid),
        "kill -STOP {victim_pid} failed"
    );
    for i in 0..8 {
        client.send(&tune_line(200 + i, "bunny", 4));
    }
    let marker = client.roundtrip("{");
    assert_eq!(field(&marker, &["error"]).as_str(), Some("bad_request"));
    let killed = signal("-9", victim_pid);
    assert!(killed, "kill -9 {victim_pid} failed");
    let mut saw_unavailable = false;
    for _ in 0..8 {
        let response = client.recv();
        match field(&response, &["ok"]).as_bool() {
            Some(true) => {}
            _ => {
                assert_eq!(
                    field(&response, &["error"]).as_str(),
                    Some("unavailable"),
                    "unexpected error shape: {response}"
                );
                saw_unavailable = true;
            }
        }
    }
    // The burst raced the kill; whichever way it resolved, the doomed
    // shard's keys must now re-hash to the survivor. Retry until the
    // router has noticed the death (requests in the gap legitimately
    // fail with `unavailable`).
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut rehashed = false;
    let mut attempt = 0;
    while Instant::now() < deadline {
        attempt += 1;
        let response = client.roundtrip(&render_line(300 + attempt, "bunny"));
        if field(&response, &["ok"]).as_bool() == Some(true) {
            rehashed = true;
            break;
        }
        saw_unavailable = true;
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(rehashed, "bunny renders never re-hashed to the survivor");
    assert!(
        saw_unavailable,
        "the kill was never observed as a structured unavailable error"
    );

    // Supervision: the dead child is respawned (fresh ephemeral port,
    // fresh pid) and readopted into the ring.
    wait_shards_up(&mut control, 2);
    let rows = shard_rows(&mut control);
    let new_pid = pid_of(&rows[owner]);
    reaper.0.push(new_pid);
    assert_ne!(new_pid, victim_pid, "shard {owner} was not respawned");
    // Its keyspace slice snaps back: bunny renders reach the new child.
    let response = client.roundtrip(&render_line(400, "bunny"));
    assert_eq!(field(&response, &["ok"]).as_bool(), Some(true));

    // Spawn-mode shutdown fans out to the children and reaps them.
    let bye = control.roundtrip(r#"{"id":5,"cmd":"shutdown"}"#);
    assert_eq!(field(&bye, &["ok"]).as_bool(), Some(true));
    drop(control);
    drop(client);
    router_handle.join().unwrap().unwrap();
}
