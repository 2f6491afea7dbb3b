//! `served-mix`: open-loop traffic to an in-process `serve` with one
//! worker thread, on small matrices where the server's own layers
//! (parse, queue, encode, transport) are a visible share of latency.
//!
//! The generator sends on a fixed schedule from one thread over two
//! connections, pipelining frames whether or not replies are outstanding,
//! and times each request from the moment it was due. Every response is
//! compared byte for byte with what `Engine::handle_line` answers offline
//! for the same frame.

use crate::host::Host;
use crate::pace;
use crate::stats::{describe, median, percentile, tail_percentile};
use crate::{Args, Report, Rng};
use sdc_campaigns::json::Json;
use sdc_server::{serve, Engine, EngineConfig, ServerHandle};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop rates of the two latency levels, requests per second: about
/// 30% and 60% of what one worker thread serves on this mix.
const RATE_LOW: f64 = 300.0;
const RATE_HIGH: f64 = 600.0;
/// Each level runs this many consecutive windows; its tail is the median
/// of the windows' tails. A descheduled core delays every request queued
/// behind it, so one host stall moves one window, not the reported tail.
const WINDOWS: usize = 3;
/// Segments a latency level is split into (see [`Level`]).
const SEGMENTS: usize = 24;
/// The latency limit `max_rate_rps` must meet, on the tail percentile.
const TAIL_LIMIT_MS: f64 = 50.0;
/// Probes a rung of the ladder gets before it counts as failed.
const PROBES: usize = 10;
/// The fixed rate ladder `max_rate_rps` is searched on: 5% steps.
fn ladder() -> Vec<f64> {
    (0..41).map(|k| (400.0 * 1.05f64.powi(k)).round()).collect()
}
/// Distinct frames in the mix; the send order cycles through seeded
/// shuffles of them.
const POOL: usize = 48;
const SHUFFLES: usize = 85;
const CONNECTIONS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 11;
/// Replies a connection may owe before the generator stops sending on
/// it. Both connections' worth (64) queued behind ~1 ms solves already
/// break the latency limit, so a probe that reaches it has failed its rung; the
/// cap also stays below the server's per-connection pipelining cap (64),
/// past which the server stalls (see `pipelining_past_the_cap_stalls`).
const OUTSTANDING_CAP: usize = 32;

const LOAD_P: &str = r#"{"cmd":"load_matrix","name":"p","problem":{"kind":"poisson","m":24}}"#;
const LOAD_Q: &str = r#"{"cmd":"load_matrix","name":"q","problem":{"kind":"poisson","m":16}}"#;
const SOLVE: &str = r#""inner_iters":10,"maxit":60,"solver":"ftgmres","tol":1e-8"#;

/// The frames of the mix, drawn from the seed: plain FT-GMRES solves on
/// the registered Poisson 24 matrix, a share carrying one huge fault under
/// the restart-inner detector, a share on a second matrix (which breaks
/// same-matrix batching), and repeated `load_matrix` frames (registry
/// cache writes beside the solve reads). `aggregates` is the number of
/// inner iterations a fault-free solve of `p` runs, so every fault lands
/// inside the solve.
fn frames(seed: u64, aggregates: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    // Fixed shares (of 48: 32 plain, 7 faulted, 6 on `q`, 3 loads), so
    // seeds differ in order and fault coordinates, not in the mix's cost.
    (0..POOL)
        .map(|id| {
            let roll = id * 100 / POOL;
            let tag = rng.below(1 << 20);
            if roll < 65 {
                format!(r#"{{"cmd":"solve","id":{id},"matrix":"p","seed":{tag},{SOLVE}}}"#)
            } else if roll < 80 {
                let pos = if rng.below(2) == 0 { "first" } else { "last" };
                let agg = 1 + rng.below(aggregates);
                format!(
                    r#"{{"cmd":"solve","detector":"restart_inner","fault":{{"aggregate":{agg},"class":"huge","position":"{pos}"}},"id":{id},"matrix":"p",{SOLVE}}}"#
                )
            } else if roll < 92 {
                format!(r#"{{"cmd":"solve","id":{id},"matrix":"q","seed":{tag},{SOLVE}}}"#)
            } else {
                format!(r#"{{"cmd":"load_matrix","id":{id},"name":"p","problem":{{"kind":"poisson","m":24}}}}"#)
            }
        })
        .collect()
}

fn is_solve(frame: &str) -> bool {
    frame.contains(r#""cmd":"solve""#)
}

fn offline_line(engine: &Engine, frame: &str) -> String {
    engine.handle_line(frame, &mut |_| {}).to_line()
}

/// A field of a solve response's `summary`.
fn summary_field(response: &str, key: &str) -> f64 {
    let v = Json::parse(response).expect("response parses");
    v.field("result")
        .and_then(|v| v.field("summary"))
        .and_then(|v| v.field(key))
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|e| panic!("summary.{key}: {e:?}"))
}

/// Sends one control frame on an idle connection and reads its reply.
fn call(stream: &TcpStream, frame: &str) -> String {
    let mut w = stream;
    writeln!(w, "{frame}").expect("send control frame");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read control reply");
    line.trim_end().to_string()
}

struct Server {
    handle: ServerHandle,
    conns: Vec<TcpStream>,
}

/// Set-up: start the server, connect, and register both matrices.
fn start() -> Server {
    let engine = Arc::new(Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() }));
    let handle = serve(engine, "127.0.0.1:0").expect("bind a loopback port");
    let conns: Vec<TcpStream> = (0..CONNECTIONS)
        .map(|_| {
            let s = TcpStream::connect(handle.addr()).expect("connect to the server");
            s.set_nodelay(true).expect("set TCP_NODELAY");
            s
        })
        .collect();
    for load in [LOAD_P, LOAD_Q] {
        let resp = call(&conns[0], load);
        assert!(resp.contains(r#""ok":true"#), "load_matrix failed: {resp}");
    }
    Server { handle, conns }
}

fn stop(s: Server) {
    let resp = call(&s.conns[0], r#"{"cmd":"shutdown"}"#);
    assert!(resp.contains(r#""draining":true"#), "shutdown refused: {resp}");
    drop(s.conns);
    s.handle.wait();
}

mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    pub const POLLIN: i16 = 0x1;
    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }
}

/// Blocks until one of `conns` has bytes to read or `timeout` passes, and
/// returns which are readable. `ppoll` sleeps on a high-resolution timer;
/// a socket receive timeout would round up to a scheduler tick and make
/// sends go out milliseconds late.
fn wait_readable(conns: &[TcpStream], timeout: Duration) -> Vec<bool> {
    let mut fds: Vec<sys::PollFd> = conns
        .iter()
        .map(|c| sys::PollFd { fd: c.as_raw_fd(), events: sys::POLLIN, revents: 0 })
        .collect();
    let ts = sys::Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` holds exactly `fds.len()` initialised entries and,
    // like `ts`, lives for the whole call; a null signal mask leaves the
    // thread's mask unchanged.
    let n = unsafe { sys::ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    fds.iter().map(|f| n > 0 && f.revents != 0).collect()
}

/// One request as the generator saw it.
#[derive(Clone, Copy)]
struct Sample {
    frame: usize,
    due: Instant,
    sent: Instant,
    recv: Option<Instant>,
    ok: bool,
}

/// One step of an open-loop schedule: send `frame` on connection `conn`
/// at `due`.
#[derive(Clone, Copy)]
struct Send {
    conn: usize,
    frame: usize,
    due: Instant,
}

/// Runs an open-loop schedule from the calling thread over all `conns`:
/// sends every frame when due, whether or not replies are outstanding,
/// and reads replies in between, until every sent frame is answered or
/// `deadline` passes. A frame due on a connection that owes
/// [`OUTSTANDING_CAP`] replies ends the sending, or with `hold` waits
/// (with every frame after it) until the connection owes fewer; its
/// latency still counts from its due time. Returns the samples of the
/// frames it sent, in send order, and whether it met the cap.
fn drive(
    conns: &[TcpStream],
    plan: &[Send],
    wire: &[String],
    expected: &[String],
    deadline: Instant,
    hold: bool,
) -> (Vec<Sample>, bool) {
    let mut samples: Vec<Sample> = Vec::with_capacity(plan.len());
    // Per connection: indices into `samples` still owed a reply, and
    // bytes of a partly received reply.
    let mut owed: Vec<std::collections::VecDeque<usize>> = vec![Default::default(); conns.len()];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut chunk = vec![0u8; 1 << 16];
    let (mut limit, mut got, mut capped) = (plan.len(), 0usize, false);
    while got < limit {
        let now = Instant::now();
        let mut held = false;
        while samples.len() < limit && plan[samples.len()].due <= now {
            let step = plan[samples.len()];
            if owed[step.conn].len() >= OUTSTANDING_CAP {
                capped = true;
                if hold {
                    held = true;
                } else {
                    limit = samples.len();
                }
                break;
            }
            (&conns[step.conn]).write_all(wire[step.frame].as_bytes()).expect("send frame");
            owed[step.conn].push_back(samples.len());
            let sent = Instant::now();
            samples.push(Sample { frame: step.frame, due: step.due, sent, recv: None, ok: false });
        }
        let now = Instant::now();
        if now >= deadline || got >= limit {
            break;
        }
        let until = if samples.len() < limit && !held { plan[samples.len()].due } else { deadline };
        for (c, ready) in
            wait_readable(conns, until.saturating_duration_since(now)).into_iter().enumerate()
        {
            if !ready {
                continue;
            }
            let k = match (&conns[c]).read(&mut chunk) {
                Ok(0) => panic!("the server closed a connection mid-phase"),
                Ok(k) => k,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("read from the server: {e}"),
            };
            let t = Instant::now();
            let buf = &mut bufs[c];
            let scanned = buf.len();
            buf.extend_from_slice(&chunk[..k]);
            let mut line_start = 0;
            for i in scanned..buf.len() {
                if buf[i] == b'\n' {
                    let idx = owed[c].pop_front().expect("a reply for a frame never sent");
                    let s = &mut samples[idx];
                    s.recv = Some(t);
                    s.ok = &buf[line_start..i] == expected[s.frame].as_bytes();
                    got += 1;
                    line_start = i + 1;
                }
            }
            buf.drain(..line_start);
        }
    }
    (samples, capped)
}

/// What one fixed-rate phase measured.
struct Phase {
    /// Frames the schedule called for.
    planned: usize,
    /// The frames actually sent, in due order.
    samples: Vec<Sample>,
    /// A connection came to owe the outstanding cap (the backlog grew).
    capped: bool,
    start: Instant,
    window: Duration,
}

impl Phase {
    fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok)
            .filter_map(|s| s.recv.map(|r| (r - s.due).as_secs_f64() * 1e3))
            .collect()
    }
    /// Median over [`WINDOWS`] consecutive windows of each window's tail
    /// latency (the percentile [`tail_percentile`] picks for its size).
    fn tail_ms(&self) -> f64 {
        let per = self.samples.len().div_ceil(WINDOWS).max(1);
        let tails: Vec<f64> = self
            .samples
            .chunks(per)
            .map(|w| {
                let lat: Vec<f64> = w
                    .iter()
                    .filter(|s| s.ok)
                    .filter_map(|s| s.recv.map(|r| (r - s.due).as_secs_f64() * 1e3))
                    .collect();
                percentile(&lat, tail_percentile(lat.len()))
            })
            .collect();
        median(&tails)
    }
    fn late_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| (s.sent - s.due).as_secs_f64() * 1e3).collect()
    }
    /// Replies per second, from the first due time to the last reply.
    fn achieved_rps(&self) -> f64 {
        let last = self.samples.iter().filter_map(|s| s.recv).max().unwrap_or(self.start);
        self.ok() as f64 / (last - self.start).as_secs_f64().max(1e-9)
    }
    /// A backlog that grew through the window: sending hit the cap, or
    /// fewer than 95% of the requests due in the window were answered by
    /// its end.
    fn backlog_grew(&self) -> bool {
        let end = self.start + self.window;
        let done = self.samples.iter().filter(|s| s.recv.is_some_and(|r| r <= end)).count();
        self.capped || (done as f64) < 0.95 * self.samples.len() as f64
    }
    /// Counts the phase's requests in `r`: every sent frame must get the
    /// offline bytes back; with `all_due`, frames the schedule called for
    /// but the cap held back count as failed too.
    fn record(&self, r: &mut Report, all_due: bool) {
        for s in &self.samples {
            r.check(s.ok, || {
                format!(
                    "frame {}: reply missing, refused or not byte-identical to offline",
                    s.frame
                )
            });
        }
        if all_due {
            for _ in self.samples.len()..self.planned {
                r.check(false, || "frame held back: more than OUTSTANDING_CAP replies owed".into());
            }
        }
    }
}

struct Mix {
    /// Frames with their trailing newline, ready to send.
    wire: Vec<String>,
    frames: Vec<String>,
    expected: Vec<String>,
    seq: Vec<usize>,
    /// Position in `seq` of the next phase's first frame.
    cursor: std::cell::Cell<usize>,
}

/// Sends `rate` requests per second for `window`, alternating the
/// connections, and waits for every reply (`hold`: see [`drive`]). The
/// phase starts on a shuffle's boundary in the send order.
fn phase(srv: &Server, mix: &Mix, rate: f64, window: Duration, hold: bool) -> Phase {
    let planned = ((rate * window.as_secs_f64()).round() as usize).max(1);
    let start = Instant::now() + Duration::from_millis(20);
    let first = mix.cursor.get().next_multiple_of(POOL);
    let plan: Vec<Send> = (0..planned)
        .map(|i| Send {
            conn: i % CONNECTIONS,
            frame: mix.seq[(first + i) % mix.seq.len()],
            due: start + Duration::from_secs_f64(i as f64 / rate),
        })
        .collect();
    mix.cursor.set(first + planned);
    let deadline = start + window + Duration::from_secs(20);
    let (samples, capped) = drive(&srv.conns, &plan, &mix.wire, &mix.expected, deadline, hold);
    Phase { planned, samples, capped, start, window }
}

/// One latency level: its rate run as [`SEGMENTS`] fixed-rate phases.
///
/// Other tenants of a shared host slow this workload by ~1.4x in phases
/// of a fraction of a second to seconds, and how much of a run they
/// cover varies from run to run. So the level reports its fastest
/// segment's median latency (each segment sends whole shuffles of the
/// mix: 96 or 144 requests), and offline times are each frame's fastest
/// pass: the uncontended speed, which every run reaches at some point.
struct Level(Vec<Phase>);

impl Level {
    fn new() -> Level {
        Level(Vec::new())
    }
    /// Runs one more segment of about `window` at `rate`, rounded to send
    /// whole shuffles of the pool, so every segment sends the same frames.
    fn segment(&mut self, srv: &Server, mix: &Mix, rate: f64, window: Duration) {
        let pools = (rate * window.as_secs_f64() / POOL as f64).round().max(1.0);
        let window = Duration::from_secs_f64(pools * POOL as f64 / rate);
        self.0.push(phase(srv, mix, rate, window, true));
    }
    fn run(srv: &Server, mix: &Mix, rate: f64, window: Duration) -> Level {
        let mut l = Level::new();
        for _ in 0..SEGMENTS {
            l.segment(srv, mix, rate, window / SEGMENTS as u32);
        }
        l
    }
    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.0.iter().flat_map(|p| &p.samples)
    }
    fn latencies_ms(&self) -> Vec<f64> {
        self.0.iter().flat_map(Phase::latencies_ms).collect()
    }
    /// The lowest of the segments' median latencies.
    fn p50_ms(&self) -> f64 {
        self.0.iter().map(|p| median(&p.latencies_ms())).fold(f64::INFINITY, f64::min)
    }
    /// Median of the segments' tails.
    fn tail_ms(&self) -> f64 {
        median(&self.0.iter().map(Phase::tail_ms).collect::<Vec<_>>())
    }
    fn late_ms(&self) -> Vec<f64> {
        self.0.iter().flat_map(Phase::late_ms).collect()
    }
    /// Replies per second, over all segments.
    fn achieved_rps(&self) -> f64 {
        let busy: f64 = self.0.iter().map(|p| p.ok() as f64 / p.achieved_rps()).sum();
        self.0.iter().map(Phase::ok).sum::<usize>() as f64 / busy
    }
    fn record(&self, r: &mut Report) {
        self.0.iter().for_each(|p| p.record(r, true));
    }
}

/// Counters from the server's `metrics` command.
fn scrape(srv: &Server) -> BTreeMap<String, f64> {
    let resp = call(&srv.conns[0], r#"{"cmd":"metrics"}"#);
    let v = Json::parse(&resp).expect("metrics reply parses");
    match v.field("result").and_then(|r| r.field("series")).expect("metrics series") {
        Json::Obj(m) => m.iter().map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(0.0))).collect(),
        _ => panic!("metrics series is not an object"),
    }
}

/// Offline timings of the mix, pass by pass: per-frame `handle_line`
/// wall time, and the parse and encode kernels alone (microseconds).
struct Offline {
    per_frame: Vec<Vec<f64>>,
    parse: Vec<f64>,
    encode: Vec<f64>,
}

impl Offline {
    fn new(mix: &Mix) -> Offline {
        Offline { per_frame: vec![Vec::new(); mix.frames.len()], parse: vec![], encode: vec![] }
    }

    /// Times one pass over the mix.
    fn pass(&mut self, engine: &Engine, mix: &Mix) {
        const REPS: u32 = 20;
        for (i, f) in mix.frames.iter().enumerate() {
            let t = Instant::now();
            let resp = engine.handle_line(f, &mut |_| {});
            self.per_frame[i].push(t.elapsed().as_secs_f64() * 1e6);

            let t = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(Json::parse(std::hint::black_box(f)).expect("frame parses"));
            }
            self.parse.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
            let t = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(std::hint::black_box(&resp).to_line());
            }
            self.encode.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS));
        }
    }

    /// Times passes until `span` has elapsed (at least three).
    fn passes(&mut self, engine: &Engine, mix: &Mix, span: Duration) {
        let t0 = Instant::now();
        while self.per_frame[0].len() < 3 || t0.elapsed() < span {
            self.pass(engine, mix);
        }
    }

    /// Each frame's fastest pass (see [`Level`] for why the fastest).
    fn exec_us(&self) -> Vec<f64> {
        self.per_frame.iter().map(|v| percentile(v, 0.0)).collect()
    }

    /// Median over the mix's solve frames of their fastest pass.
    fn solve_exec_us(&self, mix: &Mix) -> f64 {
        let v: Vec<f64> = mix
            .frames
            .iter()
            .zip(self.exec_us())
            .filter(|(f, _)| is_solve(f))
            .map(|(_, e)| e)
            .collect();
        median(&v)
    }
}

pub fn run(args: &Args, _host: &Host) -> Report {
    let mut r = Report::default();

    // Offline twin: the same engine code, no transport. Its answers are
    // the bytes every served reply must equal.
    let offline = Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
    for load in [LOAD_P, LOAD_Q] {
        offline_line(&offline, load);
    }
    let base = offline_line(&offline, &format!(r#"{{"cmd":"solve","matrix":"p",{SOLVE}}}"#));
    let frames = frames(args.seed, summary_field(&base, "iterations") as u64 * 10);
    let expected: Vec<String> = frames.iter().map(|f| offline_line(&offline, f)).collect();
    for (f, e) in frames.iter().zip(&expected) {
        r.check(e.contains(r#""ok":true"#), || format!("offline frame failed: {f} -> {e}"));
    }
    // The send order: seeded shuffles of the whole pool, back to back.
    let mut seq_rng = Rng::new(args.seed ^ 0x0de7);
    let seq: Vec<usize> = (0..SHUFFLES)
        .flat_map(|_| {
            let mut p: Vec<usize> = (0..POOL).collect();
            for i in (1..POOL).rev() {
                p.swap(i, seq_rng.below(i as u64 + 1) as usize);
            }
            p
        })
        .collect();
    let wire = frames.iter().map(|f| format!("{f}\n")).collect();
    let mix = Mix { wire, frames, expected, seq, cursor: 0.into() };
    let solves: Vec<&String> = mix.expected.iter().filter(|e| e.contains(r#""summary""#)).collect();
    let sum = |k: &str| solves.iter().map(|e| summary_field(e, k)).sum::<f64>();

    // Set-up, SETUPS times: server start, two connections, matrix loads.
    let mut setups = Vec::new();
    let mut srv = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let s = start();
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            stop(s);
        } else {
            srv = Some(s);
        }
    }
    let srv = srv.expect("a running server");
    // Warm-up, not counted.
    let _ = phase(&srv, &mix, RATE_LOW, Duration::from_millis(300), true);

    let budget = args.budget().as_secs_f64();
    let sec = |f: f64| Duration::from_secs_f64(f * budget);

    if args.trace {
        let mut off = Offline::new(&mix);
        off.passes(&offline, &mix, sec(0.1));
        let exec_us = off.exec_us();
        let low = Level::run(&srv, &mix, RATE_LOW, sec(0.3));
        low.record(&mut r);
        let sent_exec: Vec<f64> = low.samples().map(|s| exec_us[s.frame]).collect();
        let before = scrape(&srv);
        let high = Level::run(&srv, &mix, RATE_HIGH, sec(0.3));
        let after = scrape(&srv);
        high.record(&mut r);
        let plain = Level::run(&srv, &mix, RATE_HIGH, sec(0.3));
        plain.record(&mut r);
        stop(srv);

        let d =
            |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
        r.metric("server.exec_us", off.solve_exec_us(&mix));
        r.metric("server.parse_us", median(&off.parse));
        r.metric("server.encode_us", median(&off.encode));
        r.metric("server.transport_us", 1e3 * low.p50_ms() - median(&sent_exec));
        r.metric("sched.batches", d("sdc_batches_dispatched_total"));
        r.metric("sched.batched_solves", d("sdc_batched_solves_total"));
        r.metric(
            "sched.queue_depth_peak",
            after.get("sdc_queue_depth_peak").copied().unwrap_or(0.0),
        );
        r.metric("sched.busy_rejects", d("sdc_busy_rejects_total"));
        r.metric(
            "netpoll.wakeups_per_req",
            d("sdc_loop_wakeups_total") / high.samples().count() as f64,
        );
        r.metric("gen.late_ms", percentile(&high.late_ms(), 99.0));
        // Scraping counters around a phase is the only observation the
        // served path gets; compare it with an unscraped phase.
        r.metric("obs.trace_overhead_frac", high.p50_ms() / plain.p50_ms() - 1.0);
        // Fault handling over one pass of the mix's distinct frames.
        let inner = sum("iterations") + sum("detector_restarts");
        r.metric("ftgmres.inner_solves", inner);
        r.metric(
            "ftgmres.useful_inner_frac",
            (sum("iterations") - sum("inner_rejections")) / inner,
        );
        r.metric("detector.events", sum("detector_events"));
        r.metric("detector.restarts", sum("detector_restarts"));
        r.metric("faults.injected", sum("injections"));
        r.note(format!(
            "offline exec p50 {:.1} us, served p50 at {RATE_LOW} rps {:.1} us; \
             at {RATE_HIGH} rps: {} batches, {} batched solves",
            off.solve_exec_us(&mix),
            1e3 * low.p50_ms(),
            d("sdc_batches_dispatched_total"),
            d("sdc_batched_solves_total")
        ));
        return r;
    }

    // Offline passes and the two levels' segments alternate, so all three
    // see the same host.
    let mut off = Offline::new(&mix);
    off.passes(&offline, &mix, sec(0.02));
    let (mut low, mut high) = (Level::new(), Level::new());
    let mut slowdowns = Vec::new();
    for _ in 0..SEGMENTS {
        slowdowns.push(pace::slowdown());
        off.pass(&offline, &mix);
        low.segment(&srv, &mix, RATE_LOW, sec(0.28 / SEGMENTS as f64));
        high.segment(&srv, &mix, RATE_HIGH, sec(0.16 / SEGMENTS as f64));
    }
    low.record(&mut r);
    high.record(&mut r);

    // max_rate_rps: binary search on the ladder for the highest rung whose
    // tail latency meets the limit without a growing backlog, reported as
    // the reply rate achieved on that rung. A rung fails only if all
    // PROBES probes fail it, so a contended phase of the host cannot end
    // the search early.
    let rungs = ladder();
    let probe = sec(0.5 / (PROBES as f64 * (rungs.len() as f64).log2().ceil()));
    let (mut lo, mut hi) = (0usize, rungs.len());
    let (mut max_rate, mut probed) = (0.0, Vec::new());
    while lo < hi {
        let mid = (lo + hi) / 2;
        let mut achieved = None;
        for _ in 0..PROBES {
            slowdowns.push(pace::slowdown());
            let p = phase(&srv, &mix, rungs[mid], probe, false);
            p.record(&mut r, false);
            let pass =
                p.ok() == p.samples.len() && !p.backlog_grew() && p.tail_ms() <= TAIL_LIMIT_MS;
            probed.push(format!("{}{}", rungs[mid], if pass { "+" } else { "-" }));
            if pass {
                achieved = Some(p.achieved_rps());
                break;
            }
        }
        match achieved {
            Some(rps) => {
                max_rate = rps;
                lo = mid + 1;
            }
            None => hi = mid,
        }
    }
    stop(srv);
    r.check(max_rate > 0.0, || format!("no rung met the {TAIL_LIMIT_MS} ms limit"));

    // The run's slowdown: the median of the measurements between
    // segments and probes, while the server was idle.
    let slowdown = median(&slowdowns);
    let (lat_low, lat_high) = (low.latencies_ms(), high.latencies_ms());
    r.metric("setup_s", median(&setups) / slowdown);
    r.metric("solve_s", off.solve_exec_us(&mix) * 1e-6 / slowdown);
    r.metric("iters_to_tol", sum("iterations") / solves.len() as f64);
    r.metric("units_per_s", high.achieved_rps());
    r.metric("lat_p50_ms.low", low.p50_ms() / slowdown);
    r.ungated("lat_p99_ms.low", low.tail_ms() / slowdown, "ms");
    r.metric("lat_p50_ms.high", high.p50_ms() / slowdown);
    r.ungated("lat_p99_ms.high", high.tail_ms() / slowdown, "ms");
    r.metric("max_rate_rps", max_rate * slowdown);
    r.note(format!(
        "raw (slowdown {slowdown:.4}): setup_s {:.6} solve_s {:.6} lat_p50_ms.low {:.4} lat_p50_ms.high {:.4} max_rate_rps {:.1}",
        median(&setups),
        off.solve_exec_us(&mix) * 1e-6,
        low.p50_ms(),
        high.p50_ms(),
        max_rate
    ));
    r.note(format!("latency ms at {RATE_LOW} rps, all segments: {}", describe(&lat_low)));
    r.note(format!("latency ms at {RATE_HIGH} rps, all segments: {}", describe(&lat_high)));
    r.note(format!(
        "gen_late_ms p99 {:.3} / {:.3}; ladder {} (limit {TAIL_LIMIT_MS} ms)",
        percentile(&low.late_ms(), 99.0),
        percentile(&high.late_ms(), 99.0),
        probed.join(" ")
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_frame(id: usize) -> String {
        format!("{{\"cmd\":\"solve\",\"id\":{id},\"matrix\":\"p\",{SOLVE}}}\n")
    }

    fn read_ids(conn: &TcpStream, n: usize, timeout: Duration) -> Vec<String> {
        conn.set_read_timeout(Some(timeout)).expect("set timeout");
        let mut rd = BufReader::new(conn);
        let mut ids = Vec::new();
        for _ in 0..n {
            let mut line = String::new();
            if rd.read_line(&mut line).is_err() || line.is_empty() {
                break;
            }
            ids.push(line.split(',').next().unwrap_or_default().to_string());
        }
        ids
    }

    #[test]
    fn pipelined_replies_come_back_in_order_per_connection() {
        let srv = start();
        std::thread::scope(|s| {
            for (c, conn) in srv.conns.iter().enumerate() {
                s.spawn(move || {
                    let mut w = conn;
                    for k in 0..OUTSTANDING_CAP {
                        w.write_all(solve_frame(100 * c + k).as_bytes()).expect("send");
                    }
                    let ids = read_ids(conn, OUTSTANDING_CAP, Duration::from_secs(30));
                    let want: Vec<String> =
                        (0..OUTSTANDING_CAP).map(|k| format!("{{\"id\":{}", 100 * c + k)).collect();
                    assert_eq!(ids, want);
                });
            }
        });
        stop(srv);
    }

    /// Reproduces a server defect the generator's outstanding cap keeps
    /// clear of: frames pipelined past `ServerOptions::max_pipelined` (64)
    /// in one burst stay in the connection's read buffer once the queue
    /// drains, and are answered only after the client sends more bytes.
    #[test]
    #[ignore = "reproduces a known server stall; passes once the server re-scans buffered frames"]
    fn pipelining_past_the_cap_stalls() {
        let srv = start();
        let mut burst = String::new();
        for k in 0..100 {
            burst.push_str(&solve_frame(k));
        }
        (&srv.conns[1]).write_all(burst.as_bytes()).expect("send burst");
        let ids = read_ids(&srv.conns[1], 100, Duration::from_secs(10));
        let got = ids.len();
        (&srv.conns[1]).write_all(b"{\"cmd\":\"list\"}\n").expect("nudge");
        let _ = read_ids(&srv.conns[1], 100 - got + 1, Duration::from_secs(30));
        stop(srv);
        assert_eq!(got, 100, "only {got} of 100 pipelined frames answered before a nudge");
    }

    #[test]
    fn mix_is_seeded_and_well_formed() {
        let (a, b, c) = (frames(1, 80), frames(1, 80), frames(2, 80));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|f| Json::parse(f).is_ok()));
        assert!(a.iter().any(|f| f.contains("\"fault\"")));
        assert!(a.iter().any(|f| f.contains("\"matrix\":\"q\"")));
    }
}
