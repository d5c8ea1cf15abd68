//! `serve_cached`: the render/query service over its wire protocol.
//!
//! One `renderd` serves a seeded stream of render requests and point-query
//! batches over two closed-loop connections, after a set-up that warms
//! every key into the tree cache, so the timed phase does no tree
//! building. The traced run then replays the same stream through `kdtune
//! route` over two spawned shards with one worker each, for the router's
//! own layer figures.

use crate::reference::{self, QueryRef};
use crate::trace::Tracer;
use crate::{kill_groups, procfs, round_order, stats, Report, Round, LIVE_GROUPS, MIN_ROUNDS};
use kdtune::kdtree::Algorithm;
use kdtune::raycast::Camera;
use kdtune::scenes::{self, sample_points, PointSampler, SceneParams};
use kdtune::telemetry::json::{self, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scene scale preset of every request: the service's `tiny`, which
/// `loadgen` also sends by default.
pub const SCALE: &str = "tiny";
/// Square resolution of every render request: `loadgen`'s default.
pub const RES: u32 = 64;
/// Static scenes and fixed animation frames the render requests cover.
pub const SCENE_FRAMES: [(&str, usize); 7] = [
    ("bunny", 0),
    ("sponza", 0),
    ("sibenik", 0),
    ("toasters", 0),
    ("toasters", 123),
    ("wood_doll", 14),
    ("fairy_forest", 10),
];
/// The eager builders; lazy trees bypass the tree cache.
pub const ALGOS: [Algorithm; 3] = [Algorithm::NodeLevel, Algorithm::Nested, Algorithm::InPlace];
/// Packet widths of the render requests (1 is the scalar path).
pub const WIDTHS: [u32; 4] = [1, 4, 8, 16];
/// Scenes of the point-query batches (frame 0, as the service uses).
pub const QUERY_SCENES: [&str; 3] = ["bunny", "sibenik", "fairy_forest"];
/// Query requests name only the sampler and the seed, so the service
/// applies its own batch shape (`QueryShape::default` in
/// crates/server/src/protocol.rs); the references use the same shape.
pub const QUERY_BATCH: usize = 256;
pub const QUERY_K: usize = 8;
pub const QUERY_RADIUS_PM: u32 = 50;
/// Times each render and each query request is sent per round, so that
/// a round has renders and queries at 3:1 (84·9 : 18·14 = 756 : 252), the
/// ratio of `loadgen --mix 3:1`, the mixed workload the program's CLI help
/// and CI run.
pub const RENDER_REPEATS: usize = 9;
pub const QUERY_REPEATS: usize = 14;
/// Client connections (one thread each).
pub const CONNECTIONS: usize = 2;
/// Workers of the single renderd; the routed topology has two shards of
/// one worker each.
pub const RENDERD_WORKERS: usize = 2;
/// Times the service is started and warmed before the timed phase (the
/// last instance serves it) and after it; `setup_s` is the median of all.
/// Taken at both ends of the run, they sample the host's speed over the
/// whole run.
const SETUP_BEFORE: usize = 5;
const SETUP_AFTER: usize = 4;
/// Untimed replay between set-up and the timed phase.
const BURN_IN_SECONDS: f64 = 1.0;
/// How long a server may take to start, drain or answer.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What a correct reply to a request must contain.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expect {
    /// `primary_hits` and `occluded` of a brute-force render; the other
    /// counts follow from them and the resolution.
    Render {
        primary_hits: u64,
        occluded: u64,
    },
    Query(QueryRef),
}

/// One distinct request of the stream.
pub struct Request {
    /// The request's fields other than `id` and `trace`.
    body: String,
    /// Packet width of a render request (0 for a query).
    width: u32,
    algo: Algorithm,
    expect: Expect,
}

impl Request {
    fn line(&self, id: u64) -> String {
        format!("{{\"id\":{id},\"trace\":\"kb{id}\",{}}}\n", self.body)
    }
}

/// The distinct requests of one round, in canonical order, with their
/// brute-force expectations. `seed` varies the query points.
pub fn requests(seed: u64) -> Vec<Request> {
    // The scenes as the service generates them at `SCALE`.
    let params = SceneParams::tiny();
    let mut out = Vec::new();
    let render_refs = reference::par_map(&SCENE_FRAMES, |&(name, frame)| {
        let scene = scenes::by_name(name, &params).expect("registered scene");
        let view = scene.view;
        let camera = Camera::look_at(view.eye, view.target, view.up, view.fov_deg, RES, RES);
        let mesh = scene.frame(frame % scene.frame_count());
        reference::frame(&mesh, &camera, view.light)
    });
    for (&(scene, frame), r) in SCENE_FRAMES.iter().zip(&render_refs) {
        for algo in ALGOS {
            for width in WIDTHS {
                out.push(Request {
                    body: format!(
                        "\"cmd\":\"render\",\"scene\":\"{scene}\",\"scale\":\"{SCALE}\",\"algo\":\"{}\",\"res\":{RES},\"frame\":{frame},\"packet_width\":{width}",
                        algo.name()
                    ),
                    width,
                    algo,
                    expect: Expect::Render {
                        primary_hits: r.primary_hits,
                        occluded: r.occluded,
                    },
                });
            }
        }
    }
    let mut queries = Vec::new();
    for scene in QUERY_SCENES {
        for algo in ALGOS {
            for sampler in PointSampler::ALL {
                let query_seed = (seed % 1_000_000) * 64 + queries.len() as u64;
                queries.push((scene, algo, sampler, query_seed));
            }
        }
    }
    let query_refs = reference::par_map(&queries, |&(scene, _, sampler, query_seed)| {
        let mesh = scenes::by_name(scene, &params)
            .expect("registered scene")
            .frame(0);
        let points = sample_points(&mesh, sampler, QUERY_BATCH, query_seed);
        // The service's gather radius: per-mille of the bounding-box diagonal.
        let radius = QUERY_RADIUS_PM as f32 / 1000.0 * mesh.bounds().extent().length();
        reference::query(&mesh, &points, QUERY_K, radius)
    });
    for (&(scene, algo, sampler, query_seed), r) in queries.iter().zip(query_refs) {
        out.push(Request {
            body: format!(
                "\"cmd\":\"query\",\"scene\":\"{scene}\",\"scale\":\"{SCALE}\",\"algo\":\"{}\",\"sampler\":\"{}\",\"seed\":{query_seed}",
                algo.name(),
                sampler.name()
            ),
            width: 0,
            algo,
            expect: Expect::Query(r),
        });
    }
    out
}

/// Server-reported stage times of one successful reply, in µs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stages {
    pub queue: f64,
    pub build: f64,
    /// `render` or `query`.
    pub work: f64,
    pub serialize: f64,
    pub cache_hit: bool,
}

impl Stages {
    fn total(&self) -> f64 {
        self.queue + self.build + self.work + self.serialize
    }
}

/// Checks one reply line against its request: the envelope echoes `id`
/// and `trace` and reports success, and the result's counts equal the
/// brute-force reference.
pub fn check_reply(line: &str, id: u64, expect: &Expect) -> Result<Stages, String> {
    let v = json::parse(line.trim_end()).map_err(|e| format!("unparsable reply: {e}"))?;
    if v.get("id").and_then(JsonValue::as_u64) != Some(id) {
        return Err(format!("reply does not echo id {id}"));
    }
    if v.get("trace").and_then(JsonValue::as_str) != Some(format!("kb{id}").as_str()) {
        return Err(format!("reply does not echo trace kb{id}"));
    }
    if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("request failed: {}", line.trim_end()));
    }
    let result = v.get("result").ok_or("reply without result")?;
    let count = |key: &str| {
        result
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("result without integer {key}"))
    };
    let stage = |key: &str| {
        result
            .get("stages")
            .and_then(|s| s.get(key))
            .and_then(JsonValue::as_f64)
    };
    match *expect {
        Expect::Render {
            primary_hits,
            occluded,
        } => {
            let got = (
                count("primary_rays")?,
                count("primary_hits")?,
                count("shadow_rays")?,
                count("occluded")?,
            );
            let want = (u64::from(RES * RES), primary_hits, primary_hits, occluded);
            if got != want {
                return Err(format!("render counts {got:?}, expected {want:?}"));
            }
        }
        Expect::Query(want) => {
            let far = result
                .get("mean_knn_far_d2")
                .and_then(JsonValue::as_f64)
                .ok_or("result without mean_knn_far_d2")?;
            let got = (count("knn_results")?, count("radius_results")?);
            if got != (want.knn_results, want.radius_results)
                || (far - want.mean_knn_far_d2).abs() > 1e-6 * want.mean_knn_far_d2.abs().max(1.0)
            {
                return Err(format!(
                    "query results {got:?} far {far}, expected {want:?}"
                ));
            }
        }
    }
    let work = stage("render_us").or_else(|| stage("query_us"));
    Ok(Stages {
        queue: stage("queue_us").ok_or("no queue stage")?,
        build: stage("build_us").ok_or("no build stage")?,
        work: work.ok_or("no render or query stage")?,
        serialize: stage("serialize_us").ok_or("no serialize stage")?,
        cache_hit: result.get("cache").and_then(JsonValue::as_str) == Some("hit"),
    })
}

/// A client connection that sends one line and waits for one line.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A started service: `renderd`, or the router and its shards. The
/// service leads a process group of its own, which the shards the router
/// spawns inherit, so one kill reaches every process it started.
struct Service {
    child: Child,
    addr: SocketAddr,
    /// Server processes whose CPU time counts as the service's: renderd,
    /// or the shards as the router's stats reply names them.
    workers: Vec<u32>,
    /// The router, when routed.
    router: Option<u32>,
    stdout: Option<JoinHandle<()>>,
    /// `shutdown` saw every process of the service exit. Its group id may
    /// then be reused, so drop kills no group.
    exited: bool,
}

impl Service {
    fn start(routed: bool, bin_dir: &Path, store: &Path) -> Result<Service, String> {
        let store = store.display().to_string();
        let mut cmd = if routed {
            let mut c = Command::new(bin_dir.join("kdtune"));
            c.args(["route", "--shards", "2", "--workers", "1"]);
            c
        } else {
            let mut c = Command::new(bin_dir.join("renderd"));
            c.args(["--workers", &RENDERD_WORKERS.to_string()]);
            c
        };
        // One thread per request: the workers, not a nested pool, use the
        // two cores.
        cmd.args(["--addr", "127.0.0.1:0", "--store", &store])
            .env("RAYON_NUM_THREADS", "1")
            .process_group(0)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        let pid = child.id();
        LIVE_GROUPS.lock().expect("group registry").push(pid);
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // From here on, dropping the service kills its group.
        let mut service = Service {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            workers: if routed { Vec::new() } else { vec![pid] },
            router: routed.then_some(pid),
            stdout: None,
            exited: false,
        };
        let mut first = String::new();
        let addr = stdout
            .read_line(&mut first)
            .ok()
            .and_then(|_| first.split(" listening on ").nth(1))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        // Keep draining stdout so the server never blocks on a full pipe.
        service.stdout = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stdout.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        }));
        service.addr = addr.ok_or_else(|| format!("no listening line, got {first:?}"))?;
        if routed {
            service.wait_for_shards()?;
        }
        Ok(service)
    }

    /// Waits until the router reports both shards up, taking the shard
    /// pids from its stats reply.
    fn wait_for_shards(&mut self) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            let line = conn.call("{\"id\":1,\"cmd\":\"stats\"}\n")?;
            let reply = json::parse(line.trim_end()).map_err(|e| format!("stats reply: {e}"))?;
            let result = reply.get("result");
            let up = result
                .and_then(|r| r.get("shards_up"))
                .and_then(JsonValue::as_u64);
            if up == Some(2) {
                let shards: Vec<u32> = match result.and_then(|r| r.get("shards")) {
                    Some(JsonValue::Array(shards)) => shards
                        .iter()
                        .filter_map(|s| s.get("pid").and_then(JsonValue::as_u64))
                        .map(|pid| pid as u32)
                        .collect(),
                    _ => Vec::new(),
                };
                if shards.len() != 2 {
                    return Err(format!("stats reply names shard pids {shards:?}"));
                }
                self.workers = shards;
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("shards did not come up".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pids(&self) -> Vec<u32> {
        self.router
            .into_iter()
            .chain(self.workers.iter().copied())
            .collect()
    }

    /// Asks the service to shut down and waits for a clean exit of every
    /// process it runs.
    fn shutdown(mut self) -> Result<(), String> {
        let pids = self.pids();
        let asked = Conn::open(self.addr)
            .and_then(|mut c| c.call("{\"id\":1,\"cmd\":\"shutdown\"}\n"))
            .and_then(|reply| {
                let ok = json::parse(reply.trim_end())
                    .ok()
                    .and_then(|v| v.get("ok").and_then(JsonValue::as_bool));
                match ok {
                    Some(true) => Ok(()),
                    _ => Err(format!("shutdown refused: {reply}")),
                }
            });
        let deadline = Instant::now() + IO_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        // Shards are the router's children; once it has exited they must
        // be gone too. Otherwise drop kills whatever is left of the group.
        let leftover: Vec<u32> = pids.iter().copied().filter(|&p| alive(p)).collect();
        let outcome = asked.and_then(|()| match status {
            Some(s) if s.success() && leftover.is_empty() => Ok(()),
            Some(s) => Err(format!(
                "service exited with {s}, leftover processes {leftover:?}"
            )),
            None => Err("service did not exit after shutdown".into()),
        });
        self.exited = outcome.is_ok();
        outcome
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let group = self.child.id();
        if !self.exited {
            kill_groups(&[group]);
        }
        let _ = self.child.wait();
        // Whoever adopts the shards reaps them; wait until they have ended.
        let deadline = Instant::now() + IO_TIMEOUT;
        while self.workers.iter().any(|&p| alive(p)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(drain) = self.stdout.take() {
            let _ = drain.join();
        }
        if let Ok(mut groups) = LIVE_GROUPS.lock() {
            groups.retain(|&g| g != group);
        }
    }
}

/// Whether `pid` names a process that has not yet exited.
fn alive(pid: u32) -> bool {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            s.rfind(')')
                .map(|i| s[i + 1..].trim_start().starts_with('Z'))
        })
        .is_some_and(|zombie| !zombie)
}

/// One timed request. `op` is the request's id and its position in the
/// replay, counted from 1.
struct Sample {
    op: u64,
    /// Index of the request in the round.
    req: usize,
    sent: Instant,
    done: Instant,
    reply: Result<String, String>,
}

/// A timed request whose reply passed its checks.
struct Served<'a> {
    req: &'a Request,
    sample: &'a Sample,
    stages: Stages,
}

impl Served<'_> {
    fn latency_us(&self) -> f64 {
        (self.sample.done - self.sample.sent).as_secs_f64() * 1e6
    }

    /// Reply latency that the server's stages do not cover: socket, event
    /// loop and parse, and through the router the router hop.
    fn remainder_us(&self) -> f64 {
        self.latency_us() - self.stages.total()
    }
}

/// Sends every request once over one connection, in canonical order,
/// and returns the reply lines unchecked.
fn warm_up(addr: SocketAddr, reqs: &[Request]) -> Result<Vec<String>, String> {
    let mut conn = Conn::open(addr)?;
    (0..reqs.len())
        .map(|i| conn.call(&reqs[i].line(i as u64 + 1)))
        .collect()
}

/// Checks the warm-up replies and returns the build time in µs of each
/// cache miss, by algorithm. A wrong warm-up reply is reported but fails
/// no operation: the timed requests for the same key are checked again.
fn warm_builds(reqs: &[Request], replies: &[String]) -> Vec<(Algorithm, f64)> {
    let mut builds = Vec::new();
    for (i, (req, reply)) in reqs.iter().zip(replies).enumerate() {
        match check_reply(reply, i as u64 + 1, &req.expect) {
            Ok(stages) if !stages.cache_hit => builds.push((req.algo, stages.build)),
            Ok(_) => {}
            Err(e) => eprintln!("kdbench: warm-up request {}: {e}", req.body),
        }
    }
    builds
}

/// One round: the index of every request, repeated `RENDER_REPEATS` or
/// `QUERY_REPEATS` times.
fn round(reqs: &[Request]) -> Vec<usize> {
    let repeats = |r: &Request| match r.expect {
        Expect::Render { .. } => RENDER_REPEATS,
        Expect::Query(_) => QUERY_REPEATS,
    };
    (0..reqs.len())
        .flat_map(|i| std::iter::repeat_n(i, repeats(&reqs[i])))
        .collect()
}

/// Replays whole rounds over two connections until `seconds` have passed
/// and at least `min_rounds` rounds were sent. Round `r` sends the requests
/// of `round(reqs)` in the order `round_order(_, seed, r)`. The samples
/// come back in the order of their ids.
fn replay(
    addr: SocketAddr,
    reqs: &[Request],
    seed: u64,
    seconds: f64,
    min_rounds: usize,
) -> Result<Vec<Sample>, String> {
    struct Next {
        op: usize,
        order: Vec<usize>,
        stop: bool,
    }
    let round = round(reqs);
    let next = Mutex::new(Next {
        op: 0,
        order: Vec::new(),
        stop: false,
    });
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (next, round) = (&next, &round);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let (op, req) = {
                            let mut n = next.lock().expect("sequencer");
                            let pos = n.op % round.len();
                            if n.stop
                                || (pos == 0
                                    && n.op >= min_rounds * round.len()
                                    && start.elapsed().as_secs_f64() >= seconds)
                            {
                                n.stop = true;
                                break;
                            }
                            if pos == 0 {
                                let r = (n.op / round.len()) as u64;
                                n.order = round_order(round.len(), seed, r)
                                    .into_iter()
                                    .map(|i| round[i])
                                    .collect();
                            }
                            n.op += 1;
                            (n.op as u64, n.order[pos])
                        };
                        let line = reqs[req].line(op);
                        let sent = Instant::now();
                        let reply = conn.call(&line);
                        let done = Instant::now();
                        if reply.is_err() {
                            next.lock().expect("sequencer").stop = true;
                        }
                        mine.push(Sample {
                            op,
                            req,
                            sent,
                            done,
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.op);
    Ok(samples)
}

/// The timed replay against one started service, and what the service's
/// processes spent on it.
struct Phase {
    samples: Vec<Sample>,
    /// CPU seconds of the serving processes (renderd, or both shards).
    server_cpu: f64,
    /// CPU seconds of the router, when routed.
    router_cpu: f64,
    /// Peak resident set of the service's processes, summed, in MiB.
    rss: f64,
}

fn timed_phase(
    service: &Service,
    reqs: &[Request],
    seed: u64,
    seconds: f64,
) -> Result<Phase, String> {
    // Untimed rounds first: the first second of replay runs measurably
    // slower (client and server threads, allocator and caches warming).
    replay(service.addr, reqs, seed, BURN_IN_SECONDS, 0)?;
    let cpu = |pids: &[u32]| {
        pids.iter()
            .filter_map(|&p| procfs::cpu_seconds(p))
            .sum::<f64>()
    };
    let routers: Vec<u32> = service.router.into_iter().collect();
    let before = (cpu(&service.workers), cpu(&routers));
    let samples = replay(service.addr, reqs, seed, seconds, MIN_ROUNDS)?;
    let after = (cpu(&service.workers), cpu(&routers));
    let rss = service
        .pids()
        .iter()
        .map(|&p| procfs::peak_rss_mib(p).unwrap_or(f64::NAN))
        .sum();
    Ok(Phase {
        samples,
        server_cpu: after.0 - before.0,
        router_cpu: after.1 - before.1,
        rss,
    })
}

/// Checks every timed reply; `None` marks a failed request.
fn check_phase(phase: &Phase, reqs: &[Request]) -> Vec<Option<Stages>> {
    let mut reported = false;
    phase
        .samples
        .iter()
        .map(|s| {
            let outcome = s.reply.as_ref().map_err(String::clone);
            match outcome.and_then(|line| check_reply(line, s.op, &reqs[s.req].expect)) {
                Ok(stages) => Some(stages),
                Err(e) => {
                    if !reported {
                        eprintln!("kdbench: request {} failed: {e}", s.op);
                        reported = true;
                    }
                    None
                }
            }
        })
        .collect()
}

/// Cuts the timed requests, in id order, into their rounds. A round lasts
/// from its first send to the first send of the next round, or to the
/// run's last reply, so the rounds split the timed phase without overlap.
fn rounds(samples: &[Sample], stages: &[Option<Stages>], round_len: usize) -> Vec<Round> {
    let first_send = |chunk: &[Sample]| chunk.iter().map(|s| s.sent).min();
    let starts: Vec<Instant> = samples.chunks(round_len).filter_map(first_send).collect();
    let end = samples.iter().map(|s| s.done).max();
    samples
        .chunks(round_len)
        .zip(stages.chunks(round_len))
        .zip(&starts)
        .enumerate()
        .map(|(i, ((chunk, checked), &start))| {
            let until = starts.get(i + 1).copied().or(end).unwrap_or(start);
            Round {
                seconds: (until - start).as_secs_f64(),
                correct: checked.iter().filter(|s| s.is_some()).count() as u64,
                latency_ms: chunk
                    .iter()
                    .map(|s| (s.done - s.sent).as_secs_f64() * 1e3)
                    .collect(),
            }
        })
        .collect()
}

fn served<'a>(phase: &'a Phase, reqs: &'a [Request], stages: &[Option<Stages>]) -> Vec<Served<'a>> {
    phase
        .samples
        .iter()
        .zip(stages)
        .filter_map(|(sample, stages)| {
            stages.map(|stages| Served {
                req: &reqs[sample.req],
                sample,
                stages,
            })
        })
        .collect()
}

/// One span per served request, with children laid out back to back from
/// the send (the server reports stage durations only), followed by the
/// remainder as `rest`. Span operations are request ids plus `op_offset`.
fn record_spans(tracer: &mut Tracer, served: &[Served], rest: &str, op_offset: u64) {
    for c in served {
        let op = c.sample.op + op_offset;
        let root = tracer.record_between("request", c.sample.sent, c.sample.done, None, op);
        let mut at = tracer.offset_us(c.sample.sent);
        let work = if c.req.width == 0 {
            "server.query"
        } else {
            "server.render"
        };
        for (name, us) in [
            ("server.queue", c.stages.queue),
            ("server.build", c.stages.build),
            (work, c.stages.work),
            ("server.serialize", c.stages.serialize),
        ] {
            tracer.record(name, at, at + us, root, op);
            at += us;
        }
        tracer.record(rest, at, tracer.offset_us(c.sample.done), root, op);
    }
}

pub fn run(
    bin_dir: &Path,
    out_dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    for bin in ["renderd", "kdtune"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!("{} not built", bin_dir.join(bin).display()));
        }
    }
    let mut tracer = Tracer::new(trace);
    let reqs = requests(seed);
    let round_len = round(&reqs).len();
    let tmp = TempDir::create(out_dir)?;

    let mut setup_s = Vec::with_capacity(SETUP_BEFORE + SETUP_AFTER);
    let mut builds = Vec::new();
    let mut set_up = |rep: usize| {
        let t0 = Instant::now();
        let s = Service::start(false, bin_dir, &tmp.0.join(format!("store{rep}.jsonl")))?;
        let replies = warm_up(s.addr, &reqs)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        builds.extend(warm_builds(&reqs, &replies));
        Ok::<Service, String>(s)
    };
    for rep in 1..SETUP_BEFORE {
        set_up(rep)?.shutdown()?;
    }
    let service = set_up(SETUP_BEFORE)?;
    let phase = timed_phase(&service, &reqs, seed, seconds)?;
    let clean_exit = service.shutdown();
    if let Err(e) = &clean_exit {
        eprintln!("kdbench: {e}");
    }
    for rep in 1..=SETUP_AFTER {
        set_up(SETUP_BEFORE + rep)?.shutdown()?;
    }

    // The traced run replays the stream once more through the router, for
    // the router's own layer figures; no end-to-end figure comes from it.
    let routed = if trace {
        let s = Service::start(true, bin_dir, &tmp.0.join("store-routed.jsonl"))?;
        let replies = warm_up(s.addr, &reqs)?;
        warm_builds(&reqs, &replies);
        let p = timed_phase(&s, &reqs, seed, seconds)?;
        let exit = s.shutdown();
        if let Err(e) = &exit {
            eprintln!("kdbench: router: {e}");
        }
        Some((p, exit.is_ok()))
    } else {
        None
    };

    let stages = check_phase(&phase, &reqs);
    let failures = |st: &[Option<Stages>]| st.iter().filter(|s| s.is_none()).count() as u64;
    let mut attempted = phase.samples.len() as u64;
    let mut failed = failures(&stages);
    let mut correct = clean_exit.is_ok() && phase.samples.len().is_multiple_of(round_len);
    let routed = routed.map(|(p, clean)| {
        let st = check_phase(&p, &reqs);
        attempted += p.samples.len() as u64;
        failed += failures(&st);
        correct &= clean && p.samples.len().is_multiple_of(round_len);
        (p, st)
    });
    let mut report = Report::new(attempted, failed);
    report.correct = correct;
    report.end_to_end(
        &setup_s,
        &rounds(&phase.samples, &stages, round_len),
        phase.rss,
    );

    if trace {
        let direct = served(&phase, &reqs, &stages);
        record_spans(&mut tracer, &direct, "server.frontend", 0);
        let med = |of: &[Served], f: &dyn Fn(&Served) -> Option<f64>| {
            stats::median(&of.iter().filter_map(f).collect::<Vec<_>>())
        };
        report.layer("server.queue_us", med(&direct, &|c| Some(c.stages.queue)));
        report.layer(
            "server.lookup_us",
            med(&direct, &|c| c.stages.cache_hit.then_some(c.stages.build)),
        );
        let hits = direct.iter().filter(|c| c.stages.cache_hit).count();
        report.layer(
            "server.cache_hit_ratio",
            hits as f64 / direct.len().max(1) as f64,
        );
        for w in WIDTHS {
            let v = med(&direct, &|c| (c.req.width == w).then_some(c.stages.work));
            report.layer(&format!("server.render_us.w{w}"), v);
        }
        report.layer(
            "server.query_us",
            med(&direct, &|c| (c.req.width == 0).then_some(c.stages.work)),
        );
        report.layer(
            "server.serialize_us",
            med(&direct, &|c| Some(c.stages.serialize)),
        );
        report.layer(
            "server.frontend_us",
            med(&direct, &|c| Some(c.remainder_us())),
        );
        let per_req = |secs: f64, n: usize| secs * 1e3 / n.max(1) as f64;
        report.layer(
            "server.cpu_ms_per_req",
            per_req(phase.server_cpu, phase.samples.len()),
        );
        if let Some((p, st)) = &routed {
            let via_router = served(p, &reqs, st);
            let offset = phase.samples.len() as u64;
            record_spans(&mut tracer, &via_router, "router.hop", offset);
            report.layer(
                "router.hop_us",
                med(&via_router, &|c| Some(c.remainder_us())),
            );
            report.layer(
                "router.cpu_ms_per_req",
                per_req(p.router_cpu, p.samples.len()),
            );
        }
        for algo in ALGOS {
            let ms: Vec<f64> = builds
                .iter()
                .filter(|(a, _)| *a == algo)
                .map(|(_, us)| us / 1e3)
                .collect();
            report.layer(
                &format!("kdtree.build_ms.{}", algo.name()),
                stats::median(&ms),
            );
        }
    }
    report.tracer = Some(tracer);
    Ok(report)
}

/// A private directory for the servers' store files, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn create(parent: &Path) -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = parent.join(format!("tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render_reply(id: u64, hits: u64, occluded: u64) -> String {
        format!(
            "{{\"id\":{id},\"ok\":true,\"trace\":\"kb{id}\",\"result\":{{\"cache\":\"hit\",\"primary_rays\":{},\"primary_hits\":{hits},\"shadow_rays\":{hits},\"occluded\":{occluded},\"stages\":{{\"queue_us\":3,\"build_us\":1,\"render_us\":40,\"serialize_us\":2}}}}}}",
            RES * RES
        )
    }

    #[test]
    fn a_correct_render_reply_passes() {
        let expect = Expect::Render {
            primary_hits: 900,
            occluded: 80,
        };
        let stages = check_reply(&render_reply(5, 900, 80), 5, &expect).unwrap();
        assert!(stages.cache_hit);
        assert_eq!(
            (stages.queue, stages.work, stages.total()),
            (3.0, 40.0, 46.0)
        );
    }

    /// Rounds split the timed phase at each round's first send, and count
    /// only the requests whose checks passed as goodput.
    #[test]
    fn rounds_split_the_phase_at_first_sends() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Two connections: in each round one request is sent before the
        // other's reply, and the second round's first send comes before
        // the first round's last reply.
        let times = [(0, 4), (1, 3), (3, 9), (4, 6), (6, 8), (8, 10)];
        let samples: Vec<Sample> = times
            .iter()
            .enumerate()
            .map(|(i, &(sent, done))| Sample {
                op: i as u64 + 1,
                req: 0,
                sent: at(sent),
                done: at(done),
                reply: Ok(String::new()),
            })
            .collect();
        let mut checked = vec![Some(Stages::default()); samples.len()];
        checked[4] = None;
        let r = rounds(&samples, &checked, 3);
        assert_eq!(r.len(), 2);
        assert!((r[0].seconds - 0.004).abs() < 1e-9);
        assert!((r[1].seconds - 0.006).abs() < 1e-9);
        assert_eq!((r[0].correct, r[1].correct), (3, 2));
        assert_eq!(r[1].latency_ms.len(), 3);
        assert!((r[0].latency_ms[2] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn perturbed_references_and_echoes_fail() {
        let expect = Expect::Render {
            primary_hits: 900,
            occluded: 80,
        };
        let line = render_reply(5, 900, 80);
        let perturbed = Expect::Render {
            primary_hits: 900,
            occluded: 81,
        };
        assert!(check_reply(&line, 5, &perturbed).is_err());
        assert!(check_reply(&line, 6, &expect).is_err(), "id echo");
        let wrong_trace = line.replace("\"kb5\"", "\"kb7\"");
        assert!(check_reply(&wrong_trace, 5, &expect).is_err(), "trace echo");
        let error = "{\"id\":5,\"ok\":false,\"trace\":\"kb5\",\"error\":\"busy\"}";
        assert!(check_reply(error, 5, &expect).is_err());

        let q = QueryRef {
            knn_results: 512,
            radius_results: 77,
            mean_knn_far_d2: 0.25,
        };
        let query = |knn: u64, radius: u64, far: f64| {
            format!("{{\"id\":9,\"ok\":true,\"trace\":\"kb9\",\"result\":{{\"cache\":\"hit\",\"knn_results\":{knn},\"radius_results\":{radius},\"mean_knn_far_d2\":{far},\"stages\":{{\"queue_us\":1,\"build_us\":1,\"query_us\":9,\"serialize_us\":1}}}}}}")
        };
        assert!(check_reply(&query(512, 77, 0.25), 9, &Expect::Query(q)).is_ok());
        assert!(check_reply(&query(512, 78, 0.25), 9, &Expect::Query(q)).is_err());
        assert!(check_reply(&query(511, 77, 0.25), 9, &Expect::Query(q)).is_err());
        assert!(check_reply(&query(512, 77, 0.26), 9, &Expect::Query(q)).is_err());
    }

    /// A service whose start-up fails after it has spawned a process of
    /// its own (here a stand-in shard) leaves nothing running.
    #[test]
    fn a_failed_start_leaves_no_process_behind() {
        use std::os::unix::fs::PermissionsExt;
        let parent = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
        let dir = TempDir::create(&parent).unwrap();
        let pid_file = dir.0.join("shard.pid");
        let script = format!(
            "#!/bin/sh\nsleep 60 &\necho $! > '{}'\necho 'kdtune route listening on 127.0.0.1:1'\nwait\n",
            pid_file.display()
        );
        let router = dir.0.join("kdtune");
        std::fs::write(&router, script).unwrap();
        std::fs::set_permissions(&router, std::fs::Permissions::from_mode(0o755)).unwrap();

        // Nothing listens on port 1, so waiting for the shards fails.
        assert!(Service::start(true, &dir.0, &dir.0.join("store.jsonl")).is_err());
        let shard: u32 = std::fs::read_to_string(&pid_file)
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while alive(shard) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(!alive(shard), "stand-in shard {shard} still running");
        assert!(LIVE_GROUPS.lock().unwrap().is_empty());
    }

    #[test]
    fn request_lines_are_json_with_unique_echo_fields() {
        let reqs = requests(3);
        assert_eq!(
            reqs.len(),
            SCENE_FRAMES.len() * ALGOS.len() * WIDTHS.len()
                + QUERY_SCENES.len() * ALGOS.len() * PointSampler::ALL.len()
        );
        let line = json::parse(&reqs[0].line(42)).unwrap();
        assert_eq!(line.get("id").and_then(JsonValue::as_u64), Some(42));
        assert_eq!(line.get("trace").and_then(JsonValue::as_str), Some("kb42"));
        let round = round(&reqs);
        let queries = round.iter().filter(|&&i| reqs[i].width == 0).count();
        assert_eq!(round.len(), 4 * queries, "renders and queries at 3:1");
        // The query points, and so the references, follow the seed.
        let other = requests(4);
        let last = reqs.len() - 1;
        assert_ne!(reqs[last].body, other[last].body);
        assert_eq!(reqs[0].body, other[0].body);
    }
}
