//! Adversarial transport tests: the event loop must survive hostile or
//! broken clients — connection bursts, slowloris drip-feeds, mid-frame
//! disconnects, oversized frames — without blocking, dropping consumed
//! bytes, or answering anything but structured errors.

use sdc_campaigns::json::Json;
use sdc_server::{
    netpoll, serve, serve_with, Client, Engine, EngineConfig, ServerHandle, ServerOptions,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn start() -> ServerHandle {
    let engine = Arc::new(Engine::new(EngineConfig {
        threads: 0,
        queue_cap: 16,
        batch_max: 4,
        shard: None,
    }));
    serve(engine, "127.0.0.1:0").expect("bind")
}

fn call(client: &mut Client, line: &str) -> Json {
    let frames = client.request_lines(line).expect("request");
    Json::parse(frames.last().expect("non-empty")).expect("valid frame")
}

fn shutdown(handle: ServerHandle) {
    let mut c = Client::connect(handle.addr()).expect("connect for shutdown");
    let r = call(&mut c, "{\"cmd\":\"shutdown\"}");
    assert!(r.field("ok").unwrap().as_bool().unwrap());
    handle.wait();
}

#[test]
fn burst_of_512_connections_all_get_answers() {
    netpoll::ensure_fd_limit(4096);
    let handle = start();
    let addr = handle.addr();

    // Open every connection before sending anything: the loop must
    // hold 512 concurrent sockets (the old transport needed 512
    // threads for this).
    let mut conns: Vec<Client> = (0..512)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}")))
        .collect();
    for (i, c) in conns.iter_mut().enumerate() {
        c.send_line(&format!("{{\"cmd\":\"stats\",\"id\":{i}}}")).expect("send");
    }
    for (i, c) in conns.iter_mut().enumerate() {
        let frame = c.read_frame().expect("read").expect("frame");
        let v = Json::parse(&frame).expect("json");
        assert!(v.field("ok").unwrap().as_bool().unwrap(), "{frame}");
        assert_eq!(v.field("id").unwrap().as_usize().unwrap(), i);
    }
    let stats = call(&mut conns[0], "{\"cmd\":\"stats\"}");
    let active = stats.field("result").unwrap().field("connections").unwrap();
    assert!(active.field("active").unwrap().as_usize().unwrap() >= 512);

    drop(conns);
    shutdown(handle);
}

#[test]
fn slowloris_partial_frames_never_block_other_clients() {
    let handle = start();
    let addr = handle.addr();

    // The slow client drips one request byte at a time…
    let mut slow = TcpStream::connect(addr).expect("connect slow");
    slow.set_nodelay(true).ok();
    let request = b"{\"cmd\":\"stats\",\"id\":42}\n";
    let (head, tail) = request.split_at(7);
    slow.write_all(head).expect("drip head");

    // …while a normal client gets immediate service on every byte of
    // the drip (a blocked loop would wedge right here).
    let mut fast = Client::connect(addr).expect("connect fast");
    for byte in tail {
        let r = call(&mut fast, "{\"cmd\":\"list\"}");
        assert!(r.field("ok").unwrap().as_bool().unwrap());
        slow.write_all(std::slice::from_ref(byte)).expect("drip");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Every consumed byte was kept: the reassembled frame answers.
    slow.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        assert_eq!(slow.read(&mut byte).expect("slow read"), 1, "eof before response");
        if byte[0] == b'\n' {
            break;
        }
        buf.push(byte[0]);
    }
    let v = Json::parse(&String::from_utf8(buf).expect("utf8")).expect("json");
    assert!(v.field("ok").unwrap().as_bool().unwrap());
    assert_eq!(v.field("id").unwrap().as_usize().unwrap(), 42);

    shutdown(handle);
}

#[test]
fn mid_frame_disconnect_leaves_the_server_healthy() {
    let handle = start();
    let addr = handle.addr();

    // Abort mid-frame (no newline ever arrives)…
    let mut dead = TcpStream::connect(addr).expect("connect");
    dead.write_all(b"{\"cmd\":\"solve\",\"matrix").expect("partial write");
    drop(dead);

    // …and mid-pipeline (a full request, then vanish before reading).
    let mut ghost = TcpStream::connect(addr).expect("connect");
    ghost.write_all(b"{\"cmd\":\"list\"}\n").expect("full write");
    drop(ghost);

    // The server keeps serving; the unterminated tail was never
    // treated as a request.
    let mut c = Client::connect(addr).expect("connect");
    let r = call(&mut c, "{\"cmd\":\"stats\"}");
    assert!(r.field("ok").unwrap().as_bool().unwrap());
    let requests = r.field("result").unwrap().field("requests").unwrap();
    assert_eq!(
        requests.field("solve").unwrap().as_usize().unwrap(),
        0,
        "a partial frame must not become a request"
    );

    shutdown(handle);
}

/// A scratch flight-recorder directory, wiped before use.
fn flight_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sdc_flight_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Waits for `count` post-mortems named `flight-*-{reason}.jsonl` and
/// returns their paths, sorted (the sequence number orders them).
fn wait_for_dumps(dir: &std::path::Path, reason: &str, count: usize) -> Vec<std::path::PathBuf> {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let mut found: Vec<_> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| {
                        let name = p.file_name().unwrap_or_default().to_string_lossy();
                        name.starts_with("flight-") && name.ends_with(&format!("-{reason}.jsonl"))
                    })
                    .collect()
            })
            .unwrap_or_default();
        if found.len() >= count {
            found.sort();
            return found;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no flight-*-{reason}.jsonl appeared in {}",
            dir.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The det-channel lines of a dump or trace: iteration-level solver
/// events, with the timing spans (same name prefixes, but carrying
/// `parent`) filtered out so both sides compare apples to apples.
fn det_lines(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .filter(|l| {
            let v = Json::parse(l).expect("canonical line");
            if v.get("parent").is_some() {
                return false;
            }
            let ev = v.get("ev").and_then(|e| e.as_str().ok()).unwrap_or_default();
            ["gmres.", "fgmres.", "precond.", "fault."].iter().any(|p| ev.starts_with(p))
        })
        .cloned()
        .collect()
}

#[test]
fn oversized_frames_get_a_structured_error_and_a_close() {
    let dir = flight_dir("oversize");
    let engine = Arc::new(Engine::new(EngineConfig {
        threads: 0,
        queue_cap: 16,
        batch_max: 4,
        shard: None,
    }));
    engine.set_flight_dir(dir.clone());
    let handle = serve_with(
        engine,
        "127.0.0.1:0",
        ServerOptions { max_frame: 1024, ..ServerOptions::default() },
    )
    .expect("bind");
    let addr = handle.addr();

    // An unterminated frame past the cap is rejected without waiting
    // for a newline that may never come.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&vec![b'x'; 4096]).expect("flood");
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read until close");
    let line = resp.lines().next().expect("one error frame");
    let v = Json::parse(line).expect("json");
    assert!(!v.field("ok").unwrap().as_bool().unwrap());
    let err = v.field("error").unwrap();
    assert_eq!(err.field("code").unwrap().as_str().unwrap(), "bad_request");
    assert!(err.field("message").unwrap().as_str().unwrap().contains("max_frame"));

    // A terminated-but-huge frame is rejected the same way.
    let mut s = TcpStream::connect(addr).expect("connect");
    let mut big = vec![b'y'; 2048];
    big.push(b'\n');
    s.write_all(&big).expect("big frame");
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read until close");
    assert!(resp.contains("max_frame"), "{resp}");

    // Within the limit everything still works, and the rejections were
    // counted.
    let mut c = Client::connect(addr).expect("connect");
    let r = call(&mut c, "{\"cmd\":\"metrics\"}");
    let text =
        r.field("result").unwrap().field("prometheus").unwrap().as_str().unwrap().to_string();
    assert!(text.contains("sdc_frames_oversized_total 2"), "{text}");

    // Both rejections left a post-mortem behind: the loop-thread flight
    // recorder dumped its recent window under an `oversized_frame`
    // header that names the offending connection.
    let dumps = wait_for_dumps(&dir, "oversized_frame", 2);
    let first = std::fs::read_to_string(&dumps[0]).expect("dump");
    let header = Json::parse(first.lines().next().expect("header line")).expect("json");
    assert_eq!(header.field("ev").unwrap().as_str().unwrap(), "flight.header");
    assert_eq!(header.field("reason").unwrap().as_str().unwrap(), "oversized_frame");
    assert!(header.field("token").is_ok(), "{first}");

    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `SO_LINGER` with a zero timeout: dropping the socket sends an RST
/// instead of an orderly FIN, which the loop reads as a hard error
/// (dead write side), not a half-close. `TcpStream::set_linger` is
/// still unstable, so this goes through the raw syscall like netpoll.
fn set_rst_on_close(s: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { l_onoff: 1, l_linger: 0 };
    // SAFETY: plain syscall on a live fd with a properly-sized struct.
    let rc = unsafe {
        setsockopt(
            s.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
}

/// The trace id that [`SolveGate`] holds back.
const GATED_TRACE: &str = "gated-solve";

/// A global subscriber that parks the solve running under trace id
/// [`GATED_TRACE`] at its first event until [`SolveGate::open`], so the
/// test, not the host's speed, decides when that solve may finish.
/// Every other event passes straight through.
#[derive(Default)]
struct SolveGate {
    /// `(entered, open)`.
    state: std::sync::Mutex<(bool, bool)>,
    changed: std::sync::Condvar,
}

impl SolveGate {
    const LIMIT: Duration = Duration::from_secs(60);

    /// Blocks until the gated solve has reached the gate.
    fn wait_entered(&self) {
        let state = self.state.lock().unwrap();
        let (state, timeout) =
            self.changed.wait_timeout_while(state, Self::LIMIT, |s| !s.0).unwrap();
        assert!(state.0 && !timeout.timed_out(), "the gated solve never started");
    }

    /// Lets the gated solve run on.
    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl sdc_obs::Subscriber for SolveGate {
    fn event(&self, _event: &sdc_obs::Event) {
        if sdc_obs::current_trace().as_deref() != Some(GATED_TRACE) {
            return;
        }
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.changed.notify_all();
        // Bounded, so a failing test cannot wedge the worker for good.
        let _ = self.changed.wait_timeout_while(state, Self::LIMIT, |s| !s.1).unwrap();
    }
}

#[test]
fn mid_solve_disconnect_writes_a_suffix_consistent_post_mortem() {
    let dir = flight_dir("disconnect");
    let engine = Arc::new(Engine::new(EngineConfig {
        threads: 0,
        queue_cap: 16,
        batch_max: 4,
        shard: None,
    }));
    engine.set_flight_dir(dir.clone());
    let handle = serve(engine, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    const SOLVE: &str = "{\"cmd\":\"solve\",\"matrix\":\"p\",\"solver\":\"ftgmres\",\
                         \"tol\":1e-10,\"maxit\":60,\"inner_iters\":10";

    let mut c = Client::connect(addr).expect("connect");
    let r = call(
        &mut c,
        "{\"cmd\":\"load_matrix\",\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":32}}",
    );
    assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());

    // Reference: the identical solve, blocking, with the det trace
    // captured in the response.
    let traced = call(&mut c, &format!("{SOLVE},\"trace\":true}}"));
    assert!(traced.field("ok").unwrap().as_bool().unwrap(), "{}", traced.to_line());
    let reference: Vec<String> = traced
        .field("result")
        .unwrap()
        .field("trace")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|l| l.as_str().expect("trace lines are strings").to_string())
        .collect();
    let reference = det_lines(&reference);
    assert!(!reference.is_empty());
    // The clean delivered solve must NOT have dumped.
    assert!(!dir.exists(), "clean solve left a post-mortem");

    // Fire the same solve under the gate's trace id (a trace id never
    // reaches det bytes) and wait until it is parked mid-solve.
    let gate = Arc::new(SolveGate::default());
    sdc_obs::install_global(gate.clone());
    let mut ghost = TcpStream::connect(addr).expect("connect ghost");
    let gated = format!("{SOLVE},\"trace\":{{\"id\":\"{GATED_TRACE}\"}}}}\n");
    ghost.write_all(gated.as_bytes()).expect("send solve");
    gate.wait_entered();

    // Slam the door: linger(0) turns the close into an RST, so the loop
    // sees a hard read error — a dead write side — while the solve is
    // parked. On loopback the RST has reached the server socket when
    // `drop` returns, and the poller is level-triggered, so the loop
    // reads it no later than the wake that reads the first `stats`
    // below; the second round trip starts after that wake's sweep has
    // flagged the connection dead.
    set_rst_on_close(&ghost);
    drop(ghost);
    for _ in 0..2 {
        let r = call(&mut c, "{\"cmd\":\"stats\"}");
        assert!(r.field("ok").unwrap().as_bool().unwrap(), "{}", r.to_line());
    }
    gate.open();

    let dumps = wait_for_dumps(&dir, "disconnect", 1);
    sdc_obs::clear_global();
    let content = std::fs::read_to_string(&dumps[0]).expect("dump");
    let mut lines = content.lines().map(str::to_string);
    let header = Json::parse(&lines.next().expect("header line")).expect("json");
    assert_eq!(header.field("ev").unwrap().as_str().unwrap(), "flight.header");
    assert_eq!(header.field("reason").unwrap().as_str().unwrap(), "disconnect");
    assert_eq!(header.field("solver").unwrap().as_str().unwrap(), "ftgmres");
    assert_eq!(header.field("trace").unwrap().as_str().unwrap(), GATED_TRACE);

    // The dump's det lines are byte-for-byte the tail of the reference
    // trace: same events, same fields, ending where the solve ended —
    // the determinism guarantee carried into the post-mortem.
    let body: Vec<String> = lines.collect();
    let dumped = det_lines(&body);
    assert!(!dumped.is_empty(), "{content}");
    assert!(
        reference.ends_with(&dumped),
        "dump det lines must be a suffix of the traced reference\nlast dumped: {:?}\nlast ref: {:?}",
        dumped.last(),
        reference.last()
    );

    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipelined_requests_answer_in_order() {
    let handle = start();
    let addr = handle.addr();

    // Many frames in one TCP segment, including a solve in the middle:
    // responses must come back in request order with matching ids.
    let mut s = TcpStream::connect(addr).expect("connect");
    let mut batch = String::new();
    batch.push_str("{\"cmd\":\"load_matrix\",\"id\":0,\"name\":\"p\",\"problem\":{\"kind\":\"poisson\",\"m\":8}}\n");
    for id in 1..=10 {
        if id % 3 == 0 {
            batch.push_str(&format!(
                "{{\"cmd\":\"solve\",\"id\":{id},\"matrix\":\"p\",\"solver\":\"gmres\",\"tol\":1e-8,\"maxit\":200}}\n"
            ));
        } else {
            batch.push_str(&format!("{{\"cmd\":\"stats\",\"id\":{id}}}\n"));
        }
    }
    s.write_all(batch.as_bytes()).expect("pipeline");
    s.shutdown(std::net::Shutdown::Write).ok();

    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut all = String::new();
    s.read_to_string(&mut all).expect("responses");
    let ids: Vec<usize> = all
        .lines()
        .map(|l| Json::parse(l).expect("json").field("id").unwrap().as_usize().unwrap())
        .collect();
    assert_eq!(ids, (0..=10).collect::<Vec<_>>(), "in-order pipelined responses");
    for l in all.lines() {
        let v = Json::parse(l).expect("json");
        assert!(v.field("ok").unwrap().as_bool().unwrap(), "{l}");
    }

    shutdown(handle);
}
