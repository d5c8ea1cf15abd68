//! Per-connection state for the readiness-driven event loop: bounded
//! line reassembly, a capped backpressure-aware write queue, the waker
//! that lets worker threads nudge the loop, and the client front that
//! `renderd` and the router both run over them.
//!
//! The split of responsibilities is strict: only the event-loop thread
//! touches the socket (reads *and* writes), while worker threads touch
//! only the [`ConnHandle`] — an `Arc` holding the write queue, the
//! dead/overflow flags, and the in-flight job count. A worker "sends" a
//! response by appending it to the queue and waking the loop; the loop
//! flushes queues when `poll(2)` reports the socket writable. That makes
//! every write error observable in exactly one place (the loop's flush),
//! fixing the old reader-thread design where `ConnWriter::send_line`
//! swallowed broken pipes and workers kept rendering for dead clients.

use crate::protocol::{self, ErrorCode};
use kdtune_telemetry::MetricsRegistry;
use polling::{PollFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on bytes queued for one connection before the server
/// gives up on the client and kills the connection. A client that stops
/// reading its socket while pipelining requests hits this cap; the
/// alternative — buffering without bound — turns one slow reader into a
/// server OOM.
pub const MAX_WRITE_QUEUE_BYTES: usize = 4 * 1024 * 1024;

/// Read chunk size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// Wakes the event loop out of `poll(2)`. One byte on a nonblocking
/// socketpair; a full pipe means a wake is already pending, which is all
/// the semantics needed.
pub(crate) struct Waker {
    tx: UnixStream,
}

impl Waker {
    /// A connected (waker, poll-side receiver) pair, both nonblocking.
    pub fn pair() -> std::io::Result<(Arc<Waker>, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Arc::new(Waker { tx }), rx))
    }

    /// Nudges the loop; never blocks, never fails (a full buffer already
    /// guarantees a pending wakeup).
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }
}

/// Drains all pending wake bytes; called by the loop once per iteration.
pub(crate) fn drain_waker(rx: &UnixStream) {
    let mut buf = [0u8; 64];
    while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
}

#[derive(Default)]
struct WriteQueue {
    bytes: VecDeque<u8>,
    /// Set when an enqueue would have exceeded [`MAX_WRITE_QUEUE_BYTES`];
    /// the loop kills the connection instead of buffering further.
    overflowed: bool,
}

/// The worker-facing half of a connection. Cheap to clone (via `Arc`),
/// safe to use after the socket is gone: operations on a dead handle are
/// no-ops that report failure.
pub(crate) struct ConnHandle {
    queue: parking_lot::Mutex<WriteQueue>,
    dead: AtomicBool,
    in_flight: AtomicUsize,
    waker: Arc<Waker>,
}

impl ConnHandle {
    pub fn new(waker: Arc<Waker>) -> Arc<ConnHandle> {
        Arc::new(ConnHandle {
            queue: parking_lot::Mutex::new(WriteQueue::default()),
            dead: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            waker,
        })
    }

    /// Queues `line` + `\n` for the event loop to flush. Returns `false`
    /// — and queues nothing — if the connection is already dead or the
    /// write queue is over its cap, so callers can tell a response was
    /// dropped rather than delivered.
    pub fn send_line(&self, line: &str) -> bool {
        if self.is_dead() {
            return false;
        }
        let sent = {
            let mut queue = self.queue.lock();
            if queue.overflowed {
                false
            } else if queue.bytes.len() + line.len() + 1 > MAX_WRITE_QUEUE_BYTES {
                queue.overflowed = true;
                false
            } else {
                queue.bytes.extend(line.as_bytes());
                queue.bytes.push_back(b'\n');
                true
            }
        };
        // Wake either way: the loop must flush the new bytes, or kill the
        // overflowed connection.
        self.waker.wake();
        sent
    }

    /// Whether a write error (or teardown) already severed this client.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    pub fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }

    /// Accounts a queued job so the loop keeps the connection open until
    /// the response exists.
    pub fn job_started(&self) {
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    /// Job done (response queued, or skipped for a dead client). Wakes
    /// the loop so "close when nothing is pending" conditions re-evaluate.
    pub fn job_finished(&self) {
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.waker.wake();
    }

    pub fn jobs_in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Bytes currently queued for flushing.
    pub fn pending_bytes(&self) -> usize {
        self.queue.lock().bytes.len()
    }

    pub fn overflowed(&self) -> bool {
        self.queue.lock().overflowed
    }
}

/// What one readiness-driven read pass produced.
#[derive(Default)]
pub(crate) struct ReadOutcome {
    /// Complete lines (without the terminating `\n`), in arrival order —
    /// several per pass when the client pipelines.
    pub lines: Vec<Vec<u8>>,
    /// The unterminated tail outgrew the per-line cap; the connection
    /// must be answered with `bad_request` and closed.
    pub overflow: bool,
    /// The peer half-closed its sending side (EOF).
    pub eof: bool,
    /// A hard read error; the connection is unusable.
    pub error: bool,
}

/// Loop-side connection state: the socket plus the line-reassembly
/// buffer and close bookkeeping. Lives exclusively on the event-loop
/// thread.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub handle: Arc<ConnHandle>,
    read_buf: Vec<u8>,
    /// Max bytes an unterminated line may accumulate before `overflow`.
    line_cap: usize,
    /// EOF observed; stop polling for reads.
    pub read_closed: bool,
    /// Close as soon as the write queue drains (terminal error sent).
    pub close_after_flush: bool,
    /// Last flush hit `WouldBlock`; wait for `POLLOUT` before retrying.
    pub write_blocked: bool,
}

/// Result of flushing one connection's write queue.
#[derive(PartialEq, Eq, Debug)]
pub(crate) enum Flush {
    /// Queue fully drained.
    Done,
    /// Socket buffer full; bytes remain queued.
    Blocked,
    /// Write failed; the handle has been marked dead.
    Error,
}

impl Conn {
    /// Wraps a client or upstream socket. Nagle's algorithm is off: a
    /// reply line written behind an unacknowledged one must not wait for
    /// the peer's delayed ACK.
    pub fn new(stream: TcpStream, waker: Arc<Waker>, line_cap: usize) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            handle: ConnHandle::new(waker),
            read_buf: Vec::new(),
            line_cap,
            read_closed: false,
            close_after_flush: false,
            write_blocked: false,
        })
    }

    /// Drains the socket (until `WouldBlock`) and reassembles lines.
    ///
    /// The per-line cap is enforced on *every* accumulation path: however
    /// the bytes dribble in — one syscall, many timeouts apart, with or
    /// without a newline ever arriving — an unterminated line larger than
    /// `line_cap` trips `overflow`. The old reader-thread code only
    /// checked the cap on one rare branch, so a slow-drip client could
    /// grow the buffer without bound.
    pub fn read_ready(&mut self) -> ReadOutcome {
        let mut outcome = ReadOutcome::default();
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    outcome.eof = true;
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = self.read_buf.iter().position(|&b| b == b'\n') {
                        let mut line: Vec<u8> = self.read_buf.drain(..=pos).collect();
                        line.pop(); // the newline
                        outcome.lines.push(line);
                    }
                    if self.read_buf.len() > self.line_cap {
                        outcome.overflow = true;
                        self.read_buf.clear();
                        self.read_closed = true;
                        return outcome;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    outcome.error = true;
                    self.read_closed = true;
                    break;
                }
            }
        }
        outcome
    }

    /// A partial request line is sitting in the reassembly buffer.
    #[cfg(test)]
    pub fn has_partial_line(&self) -> bool {
        !self.read_buf.is_empty()
    }

    /// Writes as much of the queue as the socket accepts right now.
    pub fn flush(&mut self) -> Flush {
        let mut queue = self.handle.queue.lock();
        while !queue.bytes.is_empty() {
            let (front, _) = queue.bytes.as_slices();
            match self.stream.write(front) {
                Ok(0) => {
                    drop(queue);
                    self.handle.mark_dead();
                    return Flush::Error;
                }
                Ok(n) => {
                    queue.bytes.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.write_blocked = true;
                    return Flush::Blocked;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    drop(queue);
                    self.handle.mark_dead();
                    return Flush::Error;
                }
            }
        }
        self.write_blocked = false;
        Flush::Done
    }

    /// Bytes waiting to be flushed.
    pub fn pending_write(&self) -> bool {
        self.handle.pending_bytes() > 0
    }
}

/// The counter, labelled `event`, that [`ClientFront`] counts its
/// lifecycle events in.
struct Lifecycle {
    metrics: Arc<MetricsRegistry>,
    series: &'static str,
}

impl Lifecycle {
    fn count(&self, event: &'static str) {
        self.metrics.add(self.series, &[("event", event)], 1);
    }
}

/// The client half of an event loop, shared by `renderd` and the router:
/// the listener, every accepted [`Conn`] by token, and the policy both
/// apply to them. Connects over the limit get one `busy` line and are
/// closed; complete lines go to the caller in arrival order; an
/// over-long line is answered `bad_request` after the lines before it,
/// and its connection closes once that is flushed; connections that are
/// dead, overflowed, finished, idle while draining or past the drain
/// deadline are closed. Each step counts once in the lifecycle series.
///
/// The caller keeps its waker, poll timeouts, drain condition and any
/// other sockets. Each iteration it calls [`poll_set`](Self::poll_set),
/// `poll(2)`, [`read`](Self::read) and
/// [`flush_and_close`](Self::flush_and_close).
pub(crate) struct ClientFront {
    listener: TcpListener,
    waker: Arc<Waker>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    max_conns: usize,
    drain: Duration,
    /// Set by the first poll while draining.
    drain_deadline: Option<Instant>,
    lifecycle: Lifecycle,
    /// Connections owed the `bad_request` answer to an over-long line.
    overlong: Vec<u64>,
    /// This iteration's poll slots: the listener's, and the connections'
    /// (in `tokens` order) from `conn_base` on.
    accept_slot: Option<usize>,
    conn_base: usize,
    tokens: Vec<u64>,
}

impl ClientFront {
    /// Takes over `listener` (made nonblocking) and registers the
    /// lifecycle series, so a scrape shows them before any traffic.
    pub fn new(
        listener: TcpListener,
        waker: Arc<Waker>,
        max_conns: usize,
        drain_ms: u64,
        metrics: Arc<MetricsRegistry>,
        series: &'static str,
    ) -> std::io::Result<ClientFront> {
        listener.set_nonblocking(true)?;
        for event in [
            "accepted",
            "closed",
            "read_eof",
            "write_error",
            "line_overflow",
            "write_overflow",
            "conn_limit",
            "drain_closed",
        ] {
            metrics.counter(series, &[("event", event)]);
        }
        Ok(ClientFront {
            listener,
            waker,
            conns: HashMap::new(),
            next_token: 0,
            max_conns,
            drain: Duration::from_millis(drain_ms),
            drain_deadline: None,
            lifecycle: Lifecycle { metrics, series },
            overlong: Vec::new(),
            accept_slot: None,
            conn_base: 0,
            tokens: Vec::new(),
        })
    }

    /// Open client connections.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Appends the listener (unless draining) and every connection that
    /// wants reads or writes to `fds`. Connections waiting only on
    /// in-flight jobs are left out — `job_finished` wakes the loop — so a
    /// hung-up peer cannot spin the loop on an unmaskable `POLLHUP`.
    pub fn poll_set(&mut self, fds: &mut Vec<PollFd>, draining: bool) {
        if draining && self.drain_deadline.is_none() {
            self.drain_deadline = Some(Instant::now() + self.drain);
        }
        self.accept_slot = (!draining).then(|| {
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
            fds.len() - 1
        });
        self.conn_base = fds.len();
        self.tokens.clear();
        for (&token, conn) in &self.conns {
            let mut events = 0i16;
            if !draining && !conn.read_closed && !conn.close_after_flush {
                events |= POLLIN;
            }
            if conn.pending_write() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                self.tokens.push(token);
            }
        }
    }

    /// Accepts new connections, then reads every ready one: returns the
    /// complete lines in arrival order, each with its connection's
    /// handle. `POLLOUT` re-arms a blocked writer and failed sockets are
    /// marked dead. An over-long line is answered by the next flush, so
    /// the caller handles the lines before it first.
    pub fn read(&mut self, fds: &[PollFd]) -> Vec<(Arc<ConnHandle>, Vec<u8>)> {
        if self.accept_slot.is_some_and(|slot| fds[slot].readable()) {
            self.accept();
        }
        let mut lines = Vec::new();
        for (i, token) in self.tokens.iter().enumerate() {
            let Some(conn) = self.conns.get_mut(token) else {
                continue;
            };
            let pfd = &fds[self.conn_base + i];
            if pfd.failed() {
                conn.handle.mark_dead();
                continue;
            }
            if pfd.writable() {
                conn.write_blocked = false;
            }
            if !pfd.readable() || conn.read_closed {
                continue;
            }
            let outcome = conn.read_ready();
            let handle = &conn.handle;
            lines.extend(outcome.lines.into_iter().map(|l| (Arc::clone(handle), l)));
            if outcome.overflow {
                self.lifecycle.count("line_overflow");
                self.overlong.push(*token);
            }
            if outcome.eof {
                self.lifecycle.count("read_eof");
            }
            if outcome.error {
                handle.mark_dead();
            }
        }
        lines
    }

    /// Accepts until `WouldBlock`; over the limit, a connection gets one
    /// `busy` line and is closed at once.
    fn accept(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) if self.conns.len() >= self.max_conns => {
                    self.lifecycle.count("conn_limit");
                    let line = protocol::err_line(
                        0,
                        ErrorCode::Busy,
                        &format!("connection limit ({}) reached", self.max_conns),
                    );
                    // Best effort: the socket is fresh, so the line fits
                    // the send buffer; a failure only means a close with
                    // no explanation.
                    let _ = (&stream).write_all(format!("{line}\n").as_bytes());
                }
                Ok((stream, _)) => {
                    let waker = Arc::clone(&self.waker);
                    if let Ok(conn) = Conn::new(stream, waker, protocol::MAX_LINE_BYTES) {
                        self.lifecycle.count("accepted");
                        self.conns.insert(self.next_token, conn);
                        self.next_token += 1;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Answers over-long lines and writes every queue the socket takes
    /// (unless it reported `WouldBlock` and has not polled writable
    /// since). Then closes dead sockets, overflowed write queues, flushed
    /// terminal errors and finished peers; while `draining`, also every
    /// idle connection (a half-sent request or an idle socket must not
    /// hold up the drain) and, past the drain deadline, all the rest.
    /// Returns how many connections failed a write or overflowed their
    /// write queue.
    pub fn flush_and_close(&mut self, draining: bool) -> u64 {
        let mut write_errors = 0;
        for token in self.overlong.drain(..) {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.handle.send_line(&protocol::err_line(
                0,
                ErrorCode::BadRequest,
                &format!(
                    "request line too long (max {} bytes)",
                    protocol::MAX_LINE_BYTES
                ),
            ));
            conn.close_after_flush = true;
        }
        for conn in self.conns.values_mut() {
            let flushable = !conn.handle.is_dead() && conn.pending_write() && !conn.write_blocked;
            if flushable && conn.flush() == Flush::Error {
                self.lifecycle.count("write_error");
                write_errors += 1;
            }
        }
        let deadline_passed = self.drain_deadline.is_some_and(|d| Instant::now() >= d);
        let lifecycle = &self.lifecycle;
        self.conns.retain(|_, conn| {
            let idle = !conn.pending_write() && conn.handle.jobs_in_flight() == 0;
            let close = if conn.handle.is_dead() {
                true
            } else if conn.handle.overflowed() {
                lifecycle.count("write_overflow");
                write_errors += 1;
                true
            } else if (conn.close_after_flush && !conn.pending_write())
                || (conn.read_closed && idle)
                || (draining && idle)
            {
                true
            } else if draining && deadline_passed {
                lifecycle.count("drain_closed");
                true
            } else {
                false
            };
            if close {
                conn.handle.mark_dead();
                lifecycle.count("closed");
            }
            !close
        });
        write_errors
    }
}

impl Drop for ClientFront {
    /// Closes what a failed `poll` left open, so workers skip its jobs.
    fn drop(&mut self) {
        for (_, conn) in self.conns.drain() {
            conn.handle.mark_dead();
            self.lifecycle.count("closed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn conn_pair(line_cap: usize) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let (waker, _rx) = Waker::pair().unwrap();
        (Conn::new(server_side, waker, line_cap).unwrap(), client)
    }

    #[test]
    fn accepted_and_connected_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let connected = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        for stream in [accepted, connected] {
            let (waker, _rx) = Waker::pair().unwrap();
            let conn = Conn::new(stream, waker, 64).unwrap();
            assert!(conn.stream.nodelay().unwrap());
        }
    }

    #[test]
    fn reassembles_pipelined_lines_across_chunks() {
        let (mut conn, mut client) = conn_pair(1024);
        client.write_all(b"alpha\nbeta\ngam").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let out = conn.read_ready();
        assert_eq!(out.lines, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert!(!out.overflow && !out.eof && !out.error);
        assert!(conn.has_partial_line());

        client.write_all(b"ma\n").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let out = conn.read_ready();
        assert_eq!(out.lines, vec![b"gamma".to_vec()]);
        assert!(!conn.has_partial_line());
    }

    #[test]
    fn slow_drip_without_newline_trips_the_cap() {
        let (mut conn, mut client) = conn_pair(64);
        // Three separate accumulation passes, no newline anywhere: the
        // cap must trip regardless of how the bytes are sliced.
        for _ in 0..3 {
            client.write_all(&[b'x'; 40]).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(20));
            let out = conn.read_ready();
            assert!(out.lines.is_empty());
            if out.overflow {
                assert!(!conn.has_partial_line(), "oversized buffer discarded");
                return;
            }
        }
        panic!("120 dribbled bytes never tripped a 64-byte line cap");
    }

    #[test]
    fn eof_is_reported_after_final_lines() {
        let (mut conn, mut client) = conn_pair(1024);
        client.write_all(b"last\n").unwrap();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let out = conn.read_ready();
        assert_eq!(out.lines, vec![b"last".to_vec()]);
        assert!(out.eof);
        assert!(conn.read_closed);
    }

    #[test]
    fn send_line_queues_until_cap_then_overflows() {
        let (waker, _rx) = Waker::pair().unwrap();
        let handle = ConnHandle::new(waker);
        assert!(handle.send_line("hello"));
        assert_eq!(handle.pending_bytes(), 6);
        let huge = "y".repeat(MAX_WRITE_QUEUE_BYTES);
        assert!(!handle.send_line(&huge), "cap-busting line is refused");
        assert!(handle.overflowed());
        assert!(!handle.send_line("after"), "overflowed queue takes nothing");
        assert_eq!(handle.pending_bytes(), 6);
    }

    #[test]
    fn dead_handles_report_dropped_responses() {
        let (waker, _rx) = Waker::pair().unwrap();
        let handle = ConnHandle::new(waker);
        handle.mark_dead();
        assert!(!handle.send_line("too late"));
        assert_eq!(handle.pending_bytes(), 0);
    }

    #[test]
    fn flush_writes_queued_bytes_to_the_socket() {
        let (mut conn, mut client) = conn_pair(1024);
        conn.handle.send_line("ping");
        assert_eq!(conn.flush(), Flush::Done);
        let mut buf = [0u8; 8];
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let n = client.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
    }

    #[test]
    fn flush_to_a_closed_peer_marks_the_handle_dead() {
        let (mut conn, client) = conn_pair(1024);
        drop(client);
        // The first flush may land in the kernel buffer before the RST is
        // processed; keep flushing until the error surfaces.
        let mut saw_error = false;
        for _ in 0..50 {
            conn.handle.send_line(&"z".repeat(4096));
            match conn.flush() {
                Flush::Error => {
                    saw_error = true;
                    break;
                }
                _ => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        assert!(saw_error, "write to closed peer never errored");
        assert!(conn.handle.is_dead());
        assert!(!conn.handle.send_line("dropped"));
    }

    #[test]
    fn waker_wakes_and_drains() {
        let (waker, rx) = Waker::pair().unwrap();
        waker.wake();
        waker.wake();
        let mut fds = [polling::PollFd::new(
            std::os::unix::io::AsRawFd::as_raw_fd(&rx),
            polling::POLLIN,
        )];
        assert_eq!(polling::wait(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].readable());
        drain_waker(&rx);
        let mut fds = [polling::PollFd::new(
            std::os::unix::io::AsRawFd::as_raw_fd(&rx),
            polling::POLLIN,
        )];
        assert_eq!(polling::wait(&mut fds, 50).unwrap(), 0, "fully drained");
    }

    #[test]
    fn in_flight_accounting_balances() {
        let (waker, _rx) = Waker::pair().unwrap();
        let handle = ConnHandle::new(waker);
        handle.job_started();
        handle.job_started();
        assert_eq!(handle.jobs_in_flight(), 2);
        handle.job_finished();
        handle.job_finished();
        assert_eq!(handle.jobs_in_flight(), 0);
    }
}
