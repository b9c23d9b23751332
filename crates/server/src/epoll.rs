//! The transport: per-thread readiness event loops over [`molq_net`] that
//! serve requests inline.
//!
//! [`ServerConfig::workers`] event loops each own a [`molq_net::Poller`]
//! and a slab of connection state machines, and run [`Service::handle`] on
//! their own thread: one thread reads, handles and writes every request of
//! a connection, so no request crosses a thread. A loop never blocks on a
//! socket: reads and writes go until `WouldBlock` and the level-triggered
//! poller re-notifies when the fd is ready again, so thousands of
//! mostly-idle keep-alive connections cost one fd and a slab slot each
//! instead of a parked thread.
//!
//! One acceptor thread owns the listener. It hands each new connection to
//! the loop with the fewest open connections (through the loop's inbox and
//! [`molq_net::Waker`]), where it stays until it closes. A request runs to
//! completion on its loop, so a long one (a slow `/solve`, a
//! `POST /reload?wait=1`) stalls the other connections of that loop until
//! it returns; the other loops are unaffected.
//!
//! Data flow per request:
//!
//! 1. readable event → drain the socket into the connection buffer →
//!    `proto::try_parse`;
//! 2. a complete message → shed it if its event batch is already older than
//!    the request timeout, else fire the `http.worker` fault point, run
//!    [`Service::handle`] and render the response;
//! 3. flush until `WouldBlock`, arming writable interest for the rest, and
//!    answer the next pipelined request once the response is out.
//!
//! Resilience:
//!
//! * **Deadline-aware shedding.** Each event batch is stamped with the
//!   instant [`Poller::wait`] returned. A request dispatched more than the
//!   service's request timeout after that instant waited behind its loop's
//!   earlier work for longer than its evaluation may take: it is answered
//!   `503` + `Retry-After` (the evaluation would only have timed out) and
//!   counted as `queue_shed`.
//! * **Respawn.** The acceptor also supervises: a loop whose thread died
//!   (the `http.worker` fault point, or a transport bug — handler panics
//!   are caught per request in the service layer) is joined and replaced by
//!   a fresh loop on the same inbox and waker. The dead loop's connections
//!   close with it.
//! * **Overload.** Once `max_connections` connections are open, the
//!   acceptor answers new ones `503 server overloaded`.
//! * **Reaping.** Idle keep-alive connections, slow-loris partial reads
//!   and stalled writers are closed after the read timeout.

use crate::http::{ServerConfig, ServerHandle};
use crate::metrics::Metric;
use crate::proto::{self, ParseOutcome};
use crate::service::Service;
use molq_net::{Event, Interest, Poller, Waker};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
/// Connection tokens are `slot + TOKEN_BASE`.
const TOKEN_BASE: u64 = 2;

/// Event-loop tick: bounds sweep latency and stop-flag observation.
const TICK: Duration = Duration::from_millis(100);

/// Acceptor tick: bounds how long a dead loop waits for its respawn and how
/// long shutdown waits for the acceptor to notice the stop flag.
const SUPERVISE_TICK: Duration = Duration::from_millis(10);

/// Readiness events taken per [`Poller::wait`].
const EVENTS_PER_WAIT: usize = 1024;

/// Per-connection inbound buffer cap: one maximal message plus pipelined
/// slack. Beyond this the client is flooding and the connection closes.
const MAX_CONN_BUF: usize = proto::MAX_HEAD + proto::MAX_BODY + 64 * 1024;

/// The part of an event loop that outlives its thread: the acceptor hands
/// connections in through it, and a respawned loop adopts it.
struct LoopShared {
    /// Accepted connections the loop has not registered yet.
    inbox: Mutex<Vec<TcpStream>>,
    waker: Waker,
    /// Connections assigned to the loop and not yet closed, queued in the
    /// inbox or live in the slab; the acceptor balances on it.
    load: AtomicUsize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ConnState {
    /// Accumulating bytes towards a complete request.
    Reading,
    /// Flushing the write buffer; then keep the connection or close it.
    Writing {
        /// Return to `Reading` after the flush, or close.
        keep_alive: bool,
    },
}

struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes (persists across requests: pipelining).
    buf: Vec<u8>,
    /// Pending outbound bytes and how far they are flushed.
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    last_activity: Instant,
    interest: Interest,
    /// The peer sent EOF; serve what is in flight, then close.
    peer_closed: bool,
}

/// Starts the event loops and the acceptor. Called via
/// [`crate::http::start`].
pub(crate) fn start(service: Arc<Service>, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind((config.host.as_str(), config.port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let poller = Poller::new(EVENTS_PER_WAIT)?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    let stop = Arc::new(AtomicBool::new(false));

    // Every loop is built before any thread spawns, so setup errors surface
    // here instead of stranding running threads.
    let loops = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::new(LoopShared {
                inbox: Mutex::new(Vec::new()),
                waker: Waker::new()?,
                load: AtomicUsize::new(0),
            });
            EventLoop::new(shared, Arc::clone(&service), config.read_timeout)
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let loops = loops
        .into_iter()
        .map(|event_loop| LoopSlot {
            shared: Arc::clone(&event_loop.shared),
            thread: Some(event_loop.spawn(&stop)),
        })
        .collect();

    let acceptor = Acceptor {
        listener,
        poller,
        loops,
        service,
        config,
        stop: Arc::clone(&stop),
    };
    Ok(ServerHandle {
        addr,
        stop,
        acceptor: std::thread::spawn(move || acceptor.run()),
    })
}

/// One event loop as the acceptor sees it.
struct LoopSlot {
    shared: Arc<LoopShared>,
    /// `None` only after a respawn attempt failed (retried next tick).
    thread: Option<JoinHandle<()>>,
}

struct Acceptor {
    listener: TcpListener,
    poller: Poller,
    loops: Vec<LoopSlot>,
    service: Arc<Service>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
}

impl Acceptor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            if let Err(e) = self.poller.wait(&mut events, Some(SUPERVISE_TICK)) {
                eprintln!("molq-server: acceptor wait failed: {e}");
                break;
            }
            if !events.is_empty() {
                self.accept_ready();
            }
            self.supervise();
        }
        // Stop accepting, then let every loop finish its in-flight responses.
        drop(self.listener);
        for slot in &self.loops {
            slot.shared.waker.wake();
        }
        for slot in self.loops {
            if let Some(thread) = slot.thread {
                let _ = thread.join();
            }
        }
    }

    fn accept_ready(&mut self) {
        let metrics = self.service.metrics();
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    metrics.inc(Metric::Accepted);
                    let mut open = 0;
                    let mut target = &self.loops[0].shared;
                    for slot in &self.loops {
                        let load = slot.shared.load.load(Ordering::Relaxed);
                        open += load;
                        if load < target.load.load(Ordering::Relaxed) {
                            target = &slot.shared;
                        }
                    }
                    if open >= self.config.max_connections.max(1) {
                        metrics.inc(Metric::OverloadShed);
                        let _ = stream.write_all(proto::overload_response().as_bytes());
                        continue;
                    }
                    target.load.fetch_add(1, Ordering::Relaxed);
                    metrics.inc(Metric::OpenConnections);
                    target
                        .inbox
                        .lock()
                        .expect("inbox lock is never held across a panic")
                        .push(stream);
                    target.waker.wake();
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Joins and replaces every loop whose thread finished while the server
    /// is live (a loop only returns on its own after the stop flag is set,
    /// so a finished live loop died).
    fn supervise(&mut self) {
        for slot in &mut self.loops {
            if !slot.thread.as_ref().is_none_or(JoinHandle::is_finished) {
                continue;
            }
            if self.stop.load(Ordering::SeqCst) {
                return; // a clean exit at shutdown, not a death
            }
            if let Some(dead) = slot.thread.take() {
                let _ = dead.join(); // reap; the panic payload is dropped
            }
            let fresh = EventLoop::new(
                Arc::clone(&slot.shared),
                Arc::clone(&self.service),
                self.config.read_timeout,
            );
            match fresh {
                Ok(event_loop) => {
                    slot.thread = Some(event_loop.spawn(&self.stop));
                    self.service.metrics().inc(Metric::WorkersRespawned);
                }
                Err(e) => eprintln!("molq-server: event loop respawn failed: {e}"),
            }
        }
    }
}

struct EventLoop {
    shared: Arc<LoopShared>,
    service: Arc<Service>,
    read_timeout: Duration,
    poller: Poller,
    slab: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    shutting_down: bool,
    /// Last timeout sweep, so the O(slab) reap runs once per [`TICK`]
    /// rather than once per event batch.
    last_sweep: Instant,
    /// When the current event batch's wait returned.
    batch_at: Instant,
}

impl EventLoop {
    fn new(
        shared: Arc<LoopShared>,
        service: Arc<Service>,
        read_timeout: Duration,
    ) -> std::io::Result<EventLoop> {
        let poller = Poller::new(EVENTS_PER_WAIT)?;
        poller.register(shared.waker.fd(), WAKER_TOKEN, Interest::READ)?;
        Ok(EventLoop {
            shared,
            service,
            read_timeout,
            poller,
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            shutting_down: false,
            last_sweep: Instant::now(),
            batch_at: Instant::now(),
        })
    }

    fn spawn(mut self, stop: &Arc<AtomicBool>) -> JoinHandle<()> {
        let stop = Arc::clone(stop);
        std::thread::spawn(move || self.run(&stop))
    }

    fn run(&mut self, stop: &AtomicBool) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            events.clear();
            if let Err(e) = self.poller.wait(&mut events, Some(TICK)) {
                eprintln!("molq-server: epoll wait failed: {e}");
                return;
            }
            self.batch_at = Instant::now();
            for ev in events.drain(..) {
                match ev.token {
                    WAKER_TOKEN => {
                        self.shared.waker.drain();
                        self.adopt();
                    }
                    token => self.conn_ready((token - TOKEN_BASE) as usize, ev),
                }
            }
            if self.last_sweep.elapsed() >= TICK {
                self.sweep();
                self.last_sweep = Instant::now();
            }
            if stop.load(Ordering::SeqCst) {
                if !self.shutting_down {
                    self.shutting_down = true;
                    self.adopt();
                    // Connections with no response pending close now;
                    // writing ones drain first.
                    for slot in 0..self.slab.len() {
                        let idle = matches!(
                            &self.slab[slot],
                            Some(c) if c.state == ConnState::Reading
                        );
                        if idle {
                            self.close(slot);
                        }
                    }
                }
                if self.live == 0 {
                    return;
                }
            }
        }
    }

    /// Registers the connections the acceptor queued for this loop (or,
    /// while shutting down, closes them).
    fn adopt(&mut self) {
        let streams = std::mem::take(
            &mut *self
                .shared
                .inbox
                .lock()
                .expect("inbox lock is never held across a panic"),
        );
        for stream in streams {
            if self.shutting_down || !self.register(stream) {
                self.release(1);
            }
        }
    }

    fn register(&mut self, stream: TcpStream) -> bool {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            return false;
        }
        let fd = stream.as_raw_fd();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        if self
            .poller
            .register(fd, TOKEN_BASE + slot as u64, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return false;
        }
        self.slab[slot] = Some(Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Reading,
            last_activity: Instant::now(),
            interest: Interest::READ,
            peer_closed: false,
        });
        self.live += 1;
        true
    }

    fn conn_ready(&mut self, slot: usize, ev: Event) {
        if self.slab.get(slot).and_then(Option::as_ref).is_none() {
            return; // already closed earlier this batch
        }
        if ev.hangup {
            self.close(slot);
            return;
        }
        if ev.readable {
            if !self.read_ready(slot) {
                return; // connection closed during the read
            }
            self.serve(slot);
            // A vanished client with no complete message buffered has
            // nothing left to answer: close.
            let vanished = matches!(
                self.slab.get(slot).and_then(Option::as_ref),
                Some(c) if c.peer_closed && c.state == ConnState::Reading
            );
            if vanished {
                self.close(slot);
                return;
            }
        }
        if ev.writable && self.flush(slot) {
            self.serve(slot);
        }
    }

    /// Drains the socket until `WouldBlock` or EOF. Returns `false` when
    /// the connection was closed.
    fn read_ready(&mut self, slot: usize) -> bool {
        let mut chunk = [0u8; 4096];
        loop {
            let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
                return false;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    // EOF is level-persistent: disarm read interest so the
                    // poller stops re-reporting it.
                    let interest = Interest {
                        readable: false,
                        writable: conn.interest.writable,
                    };
                    self.set_interest(slot, interest);
                    return true;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if conn.buf.len() > MAX_CONN_BUF {
                        self.close(slot); // flooding
                        return false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if !conn.buf.is_empty() && conn.state == ConnState::Reading {
                        self.service.metrics().inc(Metric::ReadStalls);
                    }
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return false;
                }
            }
        }
    }

    /// Answers buffered requests in order until none is complete or a
    /// response waits on a full socket (responses must go out in order, so
    /// a connection has at most one pending).
    fn serve(&mut self, slot: usize) {
        while self.dispatch(slot) && self.flush(slot) {}
    }

    /// Parses one buffered request and puts its response in the write
    /// buffer. Returns `false` when there was nothing to answer.
    fn dispatch(&mut self, slot: usize) -> bool {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        if conn.state != ConnState::Reading {
            return false;
        }
        let (request, consumed) = match proto::try_parse(&conn.buf) {
            ParseOutcome::Incomplete => return false,
            ParseOutcome::Ready { request, consumed } => (request, consumed),
        };
        conn.buf.drain(..consumed);
        let (bytes, keep_alive) = match request.parsed {
            // Protocol rejection: answered without touching the service.
            Err(e) => (proto::render_response(&e.to_response(), false), false),
            Ok(_) if self.batch_at.elapsed() > self.service.config().request_timeout => {
                self.service.metrics().inc(Metric::QueueShed);
                (proto::shed_response().into_bytes(), false)
            }
            Ok(api_request) => {
                // Fault point outside the service layer's panic isolation:
                // arming `http.worker=panic` kills this loop and exercises
                // respawn.
                if let Err(e) = crate::fault::fail_point("http.worker") {
                    eprintln!("molq-server: worker fault injected: {e}");
                }
                let response = self.service.handle(&api_request);
                (
                    proto::render_response(&response, request.keep_alive),
                    request.keep_alive,
                )
            }
        };
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        conn.out = bytes;
        conn.out_pos = 0;
        conn.state = ConnState::Writing { keep_alive };
        conn.last_activity = Instant::now();
        true
    }

    /// Writes the pending response until done or `WouldBlock`. Returns
    /// `true` when it is fully written and the connection reads on.
    fn flush(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
                return false;
            };
            if conn.out_pos >= conn.out.len() {
                break;
            }
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(slot);
                    return false;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.service.metrics().inc(Metric::WriteStalls);
                    let interest = Interest {
                        readable: conn.interest.readable,
                        writable: true,
                    };
                    self.set_interest(slot, interest);
                    return false;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return false;
                }
            }
        }
        // Fully flushed.
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        conn.out.clear();
        conn.out_pos = 0;
        let ConnState::Writing { keep_alive } = conn.state else {
            return true; // nothing was pending
        };
        if !keep_alive || conn.peer_closed || self.shutting_down {
            self.close(slot);
            return false;
        }
        conn.state = ConnState::Reading;
        conn.last_activity = Instant::now();
        self.set_interest(slot, Interest::READ);
        true
    }

    fn set_interest(&mut self, slot: usize, interest: Interest) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.interest == interest {
            return;
        }
        if self
            .poller
            .rearm(conn.stream.as_raw_fd(), TOKEN_BASE + slot as u64, interest)
            .is_ok()
        {
            conn.interest = interest;
        }
    }

    /// Periodic reaping: idle keep-alive connections, slow-loris partial
    /// reads and stalled writers with no progress for the read timeout.
    /// Idleness is measured up to the batch instant, not now: bytes that
    /// arrived while this loop was busy serving are not yet read.
    fn sweep(&mut self) {
        for slot in 0..self.slab.len() {
            let expired = matches!(
                &self.slab[slot],
                Some(c) if self.batch_at.saturating_duration_since(c.last_activity) > self.read_timeout
            );
            if expired {
                self.close(slot);
            }
        }
    }

    fn close(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        drop(conn);
        self.free.push(slot);
        self.live -= 1;
        self.release(1);
    }

    /// Takes `n` closed connections off the loop's load and the
    /// open-connection gauge.
    fn release(&self, n: usize) {
        self.shared.load.fetch_sub(n, Ordering::Relaxed);
        self.service
            .metrics()
            .sub(Metric::OpenConnections, n as u64);
    }
}

impl Drop for EventLoop {
    /// A loop that dies closes its live connections as the slab drops;
    /// release them so the gauges stay exact. (A loop that returned has
    /// none.) Connections still in the inbox stay counted: the respawned
    /// loop adopts them.
    fn drop(&mut self) {
        self.release(self.live);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddr;

    fn server(workers: usize, service: Arc<Service>) -> (ServerHandle, SocketAddr) {
        let config = ServerConfig {
            workers,
            read_timeout: Duration::from_millis(500),
            ..ServerConfig::default()
        };
        let handle = crate::http::start(service, config).unwrap();
        let addr = handle.addr();
        (handle, addr)
    }

    fn empty_service() -> Arc<Service> {
        Arc::new(Service::new(crate::engine::Engine::new()))
    }

    /// Writes raw bytes, half-closes, and returns everything the server
    /// sends back (empty if it just closes).
    fn send_and_read(addr: SocketAddr, payload: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(payload).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_requests_and_shuts_down_cleanly() {
        let (handle, addr) = server(2, empty_service());
        let resp = send_and_read(addr, b"GET /health HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
        handle.shutdown();
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let (handle, addr) = server(2, empty_service());
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for _ in 0..3 {
            s.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = [0u8; 4096];
            let n = s.read(&mut buf).unwrap();
            let text = String::from_utf8_lossy(&buf[..n]);
            assert!(text.starts_with("HTTP/1.1 200"), "{text:?}");
            assert!(text.contains("Connection: keep-alive"), "{text:?}");
        }
        handle.shutdown();
    }

    #[test]
    fn malformed_requests_get_4xx_and_never_wedge_the_loop() {
        // One loop on purpose: if any malformed request panicked or hung
        // it, every later assertion in this test would fail.
        let (handle, addr) = server(1, empty_service());

        // Oversized head: rejected before buffering unbounded data.
        let mut huge = b"GET /health HTTP/1.1\r\nX-Filler: ".to_vec();
        huge.resize(20 * 1024, b'a');
        let resp = send_and_read(addr, &huge);
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");

        // Unparseable Content-Length: 400, not a silent zero (which would
        // misparse the body as the next pipelined request).
        let resp = send_and_read(
            addr,
            b"POST /reload HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");

        // Declared body over the cap: 413 without reading it.
        let resp = send_and_read(
            addr,
            b"POST /reload HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp:?}");

        // Client hangs up mid-body: clean close, no response.
        let resp = send_and_read(
            addr,
            b"POST /reload HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
        );
        assert_eq!(resp, "");

        // Non-UTF-8 head: 400.
        let resp = send_and_read(addr, b"GET /\xff\xfe HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp:?}");

        // The lone loop survived all of the above and still answers.
        let resp = send_and_read(addr, b"GET /health HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp:?}");
        handle.shutdown();
    }

    #[test]
    fn many_idle_connections_coexist_with_service() {
        let (handle, addr) = server(2, empty_service());
        // Far more connections than loops: a thread-per-connection server
        // with 2 threads would strand most of these.
        let mut conns: Vec<TcpStream> =
            (0..32).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for s in conns.iter_mut() {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
        }
        for s in conns.iter_mut() {
            let mut buf = [0u8; 4096];
            let n = s.read(&mut buf).unwrap();
            let text = String::from_utf8_lossy(&buf[..n]);
            assert!(text.starts_with("HTTP/1.1 200"), "{text:?}");
        }
        handle.shutdown();
    }

    #[test]
    fn open_connections_gauge_tracks_accepts_and_closes() {
        let service = empty_service();
        let (handle, addr) = server(2, Arc::clone(&service));
        let open = || service.metrics().get(Metric::OpenConnections);
        let mut conns: Vec<TcpStream> = (0..4).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for s in conns.iter_mut() {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
            let mut buf = [0u8; 4096];
            assert!(s.read(&mut buf).unwrap() > 0);
        }
        assert_eq!(open(), 4);
        drop(conns);
        let deadline = Instant::now() + Duration::from_secs(10);
        while open() != 0 {
            assert!(
                Instant::now() < deadline,
                "open_connections stuck at {}",
                open()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.shutdown();
    }
}
