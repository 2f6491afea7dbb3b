//! The TCP transport: a readiness-driven event loop.
//!
//! One loop thread multiplexes the listener and every connection over
//! [`crate::netpoll::Poller`] (epoll on Linux, poll(2) elsewhere).
//! There are no per-connection threads and no sleep-tick polling: the
//! loop blocks in `wait` until a socket is ready or the engine wakes it
//! with a response. Solves still run on the engine's bounded
//! [`crate::scheduler::Scheduler`] worker pool — the loop only moves
//! bytes, so thousands of idle connections cost two file descriptors
//! and a few hundred bytes of buffer each, not a stack.
//!
//! Per-connection protocol state is a pair of byte buffers:
//!
//! * **read side** — raw bytes accumulate in `read_buf`; complete
//!   newline-terminated frames are carved off into `pending` (UTF-8 is
//!   validated per frame, and partial frames persist across readiness
//!   events, so a frame split over any number of TCP segments is
//!   reassembled byte-for-byte). A frame that exceeds
//!   [`ServerOptions::max_frame`] without a newline gets a structured
//!   `bad_request` answer and the connection is closed — the buffer
//!   cannot be grown without bound by a hostile peer.
//! * **write side** — response lines append to `write_buf` and drain
//!   whenever the socket is writable; a slow reader backs up its own
//!   buffer, never the loop.
//!
//! **Ordering / determinism**: exactly one request per connection is in
//! flight in the engine at a time (`busy` flag). Pipelined frames queue
//! in arrival order and dispatch strictly after the previous request's
//! final frame, so the response byte stream for a connection is
//! identical to the old thread-per-connection transport — and to
//! offline mode — at any thread count.
//!
//! **Backpressure** is layered: frames queued per connection are capped
//! (`max_pipelined` — beyond it the loop simply stops reading from that
//! socket and TCP flow control pushes back), and the engine's solve
//! queue is bounded (`busy` rejections), so total memory is bounded by
//! `connections × (max_frame + max_pipelined × frame)`.
//!
//! Shutdown: a `shutdown` request flips the engine's drain flag. The
//! loop closes the listener, answers everything already queued, closes
//! each connection once it is idle and flushed, and exits —
//! in-flight requests always get their response first.

use crate::engine::{write_flight_dump, Emit, Engine, SolveHooks};
use crate::netpoll::{Interest, PollEvent, Poller, Token};
use crate::protocol::{error_response, peek_trace_id, ErrorCode};
use sdc_campaigns::json::Json;
use sdc_obs::flight::FlightRecorder;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};

/// Transport tuning knobs (the engine has its own, see
/// [`crate::engine::EngineConfig`]).
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Largest accepted frame, bytes (without the newline). A frame
    /// that grows past this without terminating is answered with
    /// `bad_request` and the connection is closed.
    pub max_frame: usize,
    /// Most complete frames queued per connection before the loop
    /// stops reading from that socket (TCP flow control takes over).
    pub max_pipelined: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions { max_frame: 8 * 1024 * 1024, max_pipelined: 64 }
    }
}

/// A running server; dropping it does *not* stop the loop — call
/// [`ServerHandle::wait`] after shutdown, or keep it alive for the
/// process lifetime.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    event_loop: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `--port 0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine (for in-process tests and metrics scraping).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Blocks until a `shutdown` request has drained the server: joins
    /// the event loop, then the engine's workers.
    pub fn wait(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        self.engine.drain();
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an OS-assigned port) and starts
/// the event loop for `engine` with default [`ServerOptions`].
pub fn serve(engine: Arc<Engine>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with(engine, addr, ServerOptions::default())
}

/// [`serve`] with explicit transport options.
pub fn serve_with(
    engine: Arc<Engine>,
    addr: &str,
    opts: ServerOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let mut event_loop = EventLoop::new(engine.clone(), listener, poller, opts)?;
    let handle = std::thread::Builder::new()
        .name("sdc-loop".into())
        .spawn(move || event_loop.run())
        .expect("cannot spawn event-loop thread");
    Ok(ServerHandle { addr: local, engine, event_loop: Some(handle) })
}

/// A response frame travelling from an engine worker back to the loop.
struct OutMsg {
    token: usize,
    line: String,
    /// Final frame of its request: clears the connection's `busy` flag.
    last: bool,
}

/// State shared between the loop and the emit closures handed to the
/// engine. Emits may fire from worker threads at any time — they park
/// the frame here and wake the loop.
struct LoopShared {
    outbox: Mutex<Vec<OutMsg>>,
    waker: crate::netpoll::Waker,
    /// Tokens whose write side died while a request was in flight.
    /// Engine workers probe membership (the `delivery_dead` hook) when
    /// their solve finishes; the final emit removes the token again, so
    /// the set stays bounded by requests actually in flight.
    dead: Mutex<HashSet<usize>>,
}

const LISTENER: Token = Token(0);
/// First token handed to an accepted connection.
const FIRST_CONN: usize = 1;

struct Conn {
    stream: TcpStream,
    /// Raw inbound bytes; a partial frame lives here between events.
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already scanned for a newline.
    scanned: usize,
    /// Outbound bytes not yet accepted by the kernel.
    write_buf: Vec<u8>,
    /// Complete frames awaiting dispatch, in arrival order.
    pending: VecDeque<String>,
    /// A request from this connection is in flight in the engine.
    busy: bool,
    /// Peer sent EOF (half-close: it may still be reading responses).
    peer_closed: bool,
    /// The write side failed — responses can never be delivered.
    write_dead: bool,
    /// Close as soon as idle and flushed (protocol violation).
    closing: bool,
    /// Trace id of the most recently dispatched request, stamped on
    /// this connection's `conn.state` close event for correlation.
    current_trace: Option<String>,
    /// Currently registered readiness interest.
    interest: Interest,
    /// Whether the fd is registered with the poller at all. A socket
    /// wanting no interest is deregistered outright: epoll reports
    /// `EPOLLHUP` regardless of the requested mask, so a closed peer
    /// with a solve still in flight would otherwise spin the loop.
    registered: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            pending: VecDeque::new(),
            busy: false,
            peer_closed: false,
            write_dead: false,
            closing: false,
            current_trace: None,
            interest: Interest::READ,
            registered: true,
        }
    }

    fn has_unflushed(&self) -> bool {
        !self.write_buf.is_empty()
    }
}

struct EventLoop {
    engine: Arc<Engine>,
    listener: Option<TcpListener>,
    poller: Poller,
    opts: ServerOptions,
    shared: Arc<LoopShared>,
    conns: BTreeMap<usize, Conn>,
    next_token: usize,
    draining: bool,
    /// Loop-thread flight recorder (present only with `--flight-dir`):
    /// captures `loop.wake` / `conn.state` events so a transport-level
    /// failure (oversized frame) can dump the loop's recent history.
    flight: Option<Arc<FlightRecorder>>,
}

impl EventLoop {
    fn new(
        engine: Arc<Engine>,
        listener: TcpListener,
        poller: Poller,
        opts: ServerOptions,
    ) -> std::io::Result<Self> {
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        let shared = Arc::new(LoopShared {
            outbox: Mutex::new(Vec::new()),
            waker: poller.waker(),
            dead: Mutex::new(HashSet::new()),
        });
        Ok(EventLoop {
            engine,
            listener: Some(listener),
            poller,
            opts,
            shared,
            conns: BTreeMap::new(),
            next_token: FIRST_CONN,
            draining: false,
            flight: None,
        })
    }

    fn run(&mut self) {
        // With post-mortems enabled, the loop thread records its own
        // recent events; without, nothing changes (`enabled()` stays
        // false on this thread and event construction is skipped).
        if self.engine.flight_dir().is_some() {
            let rec = Arc::new(FlightRecorder::new(sdc_obs::flight::DEFAULT_CAPACITY));
            self.flight = Some(rec.clone());
            sdc_obs::with_local(rec, || self.run_inner());
        } else {
            self.run_inner();
        }
    }

    fn run_inner(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            // Apply responses and dispatch queued frames until nothing
            // moves: quick commands answer synchronously inside
            // `dispatch`, which re-fills the outbox, which may unblock
            // the next pipelined frame — hence the alternation.
            loop {
                let moved_out = self.apply_outbox();
                let moved_in = self.dispatch_ready();
                if !moved_out && !moved_in {
                    break;
                }
            }

            // A handled `shutdown` request flips the engine flag; stop
            // accepting the moment we notice.
            if self.engine.shutdown_requested() && self.listener.is_some() {
                if let Some(l) = self.listener.take() {
                    let _ = self.poller.deregister(l.as_raw_fd());
                }
                self.draining = true;
            }

            self.flush_and_close();

            if self.draining && self.conns.is_empty() {
                return;
            }

            self.update_interests();

            match self.poller.wait(&mut events, None) {
                Ok(_woken) => {}
                Err(_) => continue,
            }
            self.engine.metrics.loop_wakeups.inc();
            if sdc_obs::enabled() {
                static EV_WAKE: sdc_obs::Callsite =
                    sdc_obs::Callsite { name: "loop.wake", channel: sdc_obs::Channel::Timing };
                sdc_obs::Event::new(&EV_WAKE).u64("events", events.len() as u64).emit();
            }

            for ev in events.drain(..) {
                if ev.token == LISTENER {
                    self.accept_all();
                } else {
                    self.handle_conn_event(ev);
                }
            }
        }
    }

    /// Moves engine responses into their connections' write buffers.
    fn apply_outbox(&mut self) -> bool {
        let msgs: Vec<OutMsg> =
            std::mem::take(&mut *self.shared.outbox.lock().unwrap_or_else(|e| e.into_inner()));
        let moved = !msgs.is_empty();
        for msg in msgs {
            // The connection may have died while its solve ran; the
            // response is dropped, exactly as a broken write would be.
            if let Some(conn) = self.conns.get_mut(&msg.token) {
                conn.write_buf.extend_from_slice(msg.line.as_bytes());
                conn.write_buf.push(b'\n');
                if msg.last {
                    conn.busy = false;
                }
            }
        }
        moved
    }

    /// Starts the next queued request on every non-busy connection
    /// (one in flight per connection keeps response order, and
    /// therefore served bytes, deterministic).
    fn dispatch_ready(&mut self) -> bool {
        let ready: Vec<(usize, String)> = self
            .conns
            .iter_mut()
            .filter(|(_, c)| !c.busy && !c.pending.is_empty())
            .map(|(&t, c)| {
                c.busy = true;
                let line = c.pending.pop_front().expect("checked non-empty");
                // Remember the request's trace id (cheap: gated on the
                // substring) so the close event can be correlated.
                c.current_trace = peek_trace_id(&line);
                (t, line)
            })
            .collect();
        let moved = !ready.is_empty();
        for (token, line) in ready {
            // A slot just freed: refill it from bytes already buffered.
            self.carve(token);
            let shared = Arc::clone(&self.shared);
            let emit: Emit = Arc::new(move |frame: Json, last: bool| {
                shared.outbox.lock().unwrap_or_else(|e| e.into_inner()).push(OutMsg {
                    token,
                    line: frame.to_line(),
                    last,
                });
                if last {
                    // The request is over either way; keep `dead` from
                    // accumulating tokens of reaped connections.
                    shared.dead.lock().unwrap_or_else(|e| e.into_inner()).remove(&token);
                }
                // Wake *after* the push: the loop always sees the frame
                // once the pipe byte is readable.
                shared.waker.wake();
            });
            let hooks = SolveHooks {
                delivery_dead: Some({
                    let shared = Arc::clone(&self.shared);
                    Arc::new(move || {
                        shared.dead.lock().unwrap_or_else(|e| e.into_inner()).contains(&token)
                    })
                }),
            };
            self.engine.handle_line_async_with(&line, emit, hooks);
        }
        moved
    }

    fn accept_all(&mut self) {
        let Some(listener) = &self.listener else { return };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), Token(token), Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.engine.metrics.connections_opened.inc();
                    self.engine.metrics.connections_active.inc();
                    emit_conn_state(token, "open", None);
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn handle_conn_event(&mut self, ev: PollEvent) {
        let Some(conn) = self.conns.get_mut(&ev.token.0) else { return };
        if ev.readable || ev.closed {
            read_available(conn);
            self.carve(ev.token.0);
        }
        // `ev.writable` needs no special handling: `flush_and_close`
        // runs every iteration and drains what the kernel will take.
    }

    /// Carves `token`'s buffered frames into `pending`, poisoning the
    /// connection when its unterminated tail outgrows `max_frame`. Runs
    /// after every read and whenever a `pending` slot frees up: frames
    /// left buffered at the pipelining cap must not wait for a readable
    /// event that a client awaiting its replies will never cause.
    fn carve(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if !extract_frames(conn, self.opts.max_frame, self.opts.max_pipelined) {
            return;
        }
        self.engine.metrics.frames_oversized.inc();
        // Transport-level poisoning is a dump condition too: the loop's
        // own recorder holds the recent wake/connection history leading
        // up to the bad frame.
        if let (Some(dir), Some(rec)) = (self.engine.flight_dir(), &self.flight) {
            let mut header = sdc_obs::Event::new(&sdc_obs::flight::HEADER)
                .str("reason", "oversized_frame")
                .u64("token", token as u64);
            if let Some(t) = &conn.current_trace {
                header = header.str("trace", t.clone());
            }
            if write_flight_dump(&dir, "oversized_frame", &rec.dump(header)).is_ok() {
                self.engine.metrics.flight_dumps.inc();
            }
        }
        let err = error_response(
            None,
            ErrorCode::BadRequest,
            format!("frame exceeds max_frame ({} bytes) without a newline", self.opts.max_frame),
        );
        conn.write_buf.extend_from_slice(err.to_line().as_bytes());
        conn.write_buf.push(b'\n');
        conn.closing = true;
        conn.read_buf.clear();
        conn.scanned = 0;
    }

    /// Flushes write buffers and closes every connection that is done:
    /// flushed + idle + (peer gone, protocol violation, or draining).
    fn flush_and_close(&mut self) {
        let mut dead: Vec<usize> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            flush_writes(conn);
            if conn.write_dead && conn.busy {
                // The requester died mid-request: flag the token so the
                // engine worker's `delivery_dead` hook sees it when the
                // solve completes (flight-recorder `disconnect` dumps).
                self.shared.dead.lock().unwrap_or_else(|e| e.into_inner()).insert(token);
            }
            let finished = conn.pending.is_empty() && !conn.busy && !conn.has_unflushed();
            // A dead write side means no response can ever be delivered;
            // only an in-flight solve keeps the slot (its emit clears
            // `busy` and the next sweep reaps it).
            let undeliverable = conn.write_dead && !conn.busy;
            if (finished && (conn.closing || conn.peer_closed || self.draining)) || undeliverable {
                dead.push(token);
            }
        }
        for token in dead {
            if let Some(conn) = self.conns.remove(&token) {
                if conn.registered {
                    let _ = self.poller.deregister(conn.stream.as_raw_fd());
                }
                self.engine.metrics.connections_active.dec();
                emit_conn_state(token, "close", conn.current_trace.as_deref());
            }
        }
    }

    /// Keeps each connection's registered interest truthful — the
    /// poller is level-triggered, so stale interest means a spinning
    /// loop (stale writable) or a stalled one (missing writable).
    fn update_interests(&mut self) {
        let max_pipelined = self.opts.max_pipelined;
        for (&token, conn) in self.conns.iter_mut() {
            let readable = !conn.peer_closed
                && !conn.write_dead
                && !conn.closing
                && conn.pending.len() < max_pipelined;
            let want = Interest { readable, writable: conn.has_unflushed() && !conn.write_dead };
            if want == conn.interest && (want != Interest::NONE) == conn.registered {
                continue;
            }
            let fd = conn.stream.as_raw_fd();
            if want == Interest::NONE {
                if conn.registered {
                    let _ = self.poller.deregister(fd);
                    conn.registered = false;
                }
            } else if conn.registered {
                let _ = self.poller.reregister(fd, Token(token), want);
            } else if self.poller.register(fd, Token(token), want).is_ok() {
                conn.registered = true;
            }
            conn.interest = want;
        }
    }
}

/// Emits a `conn.state` lifecycle event (Timing channel: connection
/// arrival order is wall-clock, never part of the determinism
/// contract). `trace` is the id of the connection's last request, when
/// it carried one — the loop thread has no ambient trace context, so
/// the correlation field is stamped explicitly.
fn emit_conn_state(token: usize, state: &'static str, trace: Option<&str>) {
    if sdc_obs::enabled() {
        static EV_CONN: sdc_obs::Callsite =
            sdc_obs::Callsite { name: "conn.state", channel: sdc_obs::Channel::Timing };
        let mut ev = sdc_obs::Event::new(&EV_CONN).u64("token", token as u64).str("state", state);
        if let Some(t) = trace {
            ev = ev.str("trace", t);
        }
        ev.emit();
    }
}

/// Reads everything the kernel has for this connection (level-triggered
/// poller: stopping early just means another event, but draining now is
/// cheaper). Consumed bytes are always kept. EOF is a *half*-close —
/// the peer may still be reading responses, so only `peer_closed` is
/// set; a hard error (ECONNRESET from an aborted peer) kills both
/// directions, so it also marks the write side dead, which is what lets
/// the loop flag a mid-solve disconnect.
fn read_available(conn: &mut Conn) {
    let mut scratch = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut scratch) {
            Ok(0) => {
                conn.peer_closed = true;
                return;
            }
            Ok(n) => conn.read_buf.extend_from_slice(&scratch[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.peer_closed = true;
                conn.write_dead = true;
                return;
            }
        }
    }
}

/// Carves complete frames out of `read_buf` into `pending` (up to
/// `max_pipelined` queued). Returns `true` if the unterminated tail
/// exceeds `max_frame` — the caller poisons the connection. The
/// `scanned` cursor makes repeated partial reads O(new bytes), not
/// O(buffer), and UTF-8 is validated per complete frame so a read
/// boundary inside a multibyte character is harmless.
fn extract_frames(conn: &mut Conn, max_frame: usize, max_pipelined: usize) -> bool {
    while conn.pending.len() < max_pipelined {
        match conn.read_buf[conn.scanned..].iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let end = conn.scanned + pos;
                if end > max_frame {
                    return true;
                }
                let text = String::from_utf8_lossy(&conn.read_buf[..end]);
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    conn.pending.push_back(trimmed.to_string());
                }
                conn.read_buf.drain(..=end);
                conn.scanned = 0;
            }
            None => {
                // No newline anywhere: everything scanned, nothing to
                // rescan until more bytes arrive.
                conn.scanned = conn.read_buf.len();
                return conn.read_buf.len() > max_frame;
            }
        }
    }
    // Stopped at the pipelining cap with bytes (possibly whole frames)
    // still buffered; `scanned` stays put so they are found once a
    // dispatch frees a slot.
    false
}

/// Writes as much of `write_buf` as the kernel accepts; errors mark the
/// write side dead (the next sweep reaps the connection).
fn flush_writes(conn: &mut Conn) {
    if conn.write_dead {
        conn.write_buf.clear();
        return;
    }
    let mut written = 0usize;
    while written < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[written..]) {
            Ok(0) => {
                conn.write_dead = true;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.write_dead = true;
                break;
            }
        }
    }
    if written > 0 {
        conn.write_buf.drain(..written);
    }
}
