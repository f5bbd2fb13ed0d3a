//! The TCP front-end: accept loop, connection handlers, worker pool.
//!
//! One thread accepts connections; each connection gets a detached
//! handler thread that parses request lines and either answers inline
//! (`ping`, protocol errors, store hits) or submits a job to the
//! bounded [`WorkQueue`]. A fixed pool of worker threads claims jobs,
//! runs the deterministic session, streams `event` frames back over the
//! connection as the simulation executes, stores the finished entry,
//! and finally sends `stats` + `result`. Sessions are isolated: a
//! panicking session is confined to its job (`catch_unwind`) and
//! answered with an `error` frame; the worker, the queue, and every
//! other connection keep going.
//!
//! Responses on one connection are multiplexed by request `id`: each
//! frame is written atomically (one mutex-guarded line), so concurrent
//! sessions for the same client interleave frames but never corrupt
//! them.

use crate::bus::{EventBus, SpoolSink, WriterSink};
use crate::client::{Client, Outcome};
use crate::pool::{SubmitError, WorkQueue};
use crate::protocol::{
    ack_frame, bye_frame, error_frame, parse_request, pong_frame, reject_frame, result_frame,
    stats_frame, Request, WorkRequest, MAX_FRAME_BYTES,
};
use crate::session;
use crate::store::{ResultEntry, ResultStore};
use av_core::ckptstore::CkptStore;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on localhost (`0` = ephemeral).
    pub port: u16,
    /// Worker threads running sessions concurrently.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Result-store spool directory (`None` = in-memory only).
    pub spool: Option<PathBuf>,
    /// Append every streamed event frame to this file as well.
    pub event_log: Option<PathBuf>,
    /// Durable checkpoint-store directory (`None` = no warm starts).
    /// With a store, drive/blame sessions resume from the newest stored
    /// barrier of their configuration and persist their horizon — the
    /// machinery behind the `extend` request kind.
    pub ckpt_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 0,
            workers: 2,
            queue_capacity: 16,
            spool: None,
            event_log: None,
            ckpt_dir: None,
        }
    }
}

/// One queued session.
struct Job {
    request: WorkRequest,
    conn: Arc<Mutex<TcpStream>>,
    submitted: Instant,
}

struct Shared {
    addr: SocketAddr,
    workers: usize,
    queue: WorkQueue<Job>,
    store: ResultStore,
    ckpt: Option<CkptStore>,
    event_log: Option<Arc<Mutex<File>>>,
    shutting_down: AtomicBool,
}

impl Shared {
    /// Idempotently begins shutdown: refuse new work, optionally drain
    /// the queue, and wake the accept loop with a self-connection.
    fn begin_shutdown(&self, drain: bool) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close(drain);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running scenario service.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the configured localhost port and starts the accept loop
    /// and worker pool.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        assert!(config.workers > 0, "need at least one worker");
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        let addr = listener.local_addr()?;
        let store = match &config.spool {
            Some(dir) => ResultStore::with_spool(dir)?,
            None => ResultStore::in_memory(),
        };
        // Like the checkpoint store's below: loud but non-fatal, a
        // quarantined entry only costs its request one cold run.
        eprint!("{}", store.recovery().render());
        let ckpt = match &config.ckpt_dir {
            Some(dir) => {
                let (ckpt, recovery) = CkptStore::open(dir)?;
                // Recovery is loud but non-fatal: quarantined entries
                // cost warm starts, never correctness.
                eprint!("{}", recovery.render());
                Some(ckpt)
            }
            None => None,
        };
        let event_log = match &config.event_log {
            Some(path) => {
                Some(Arc::new(Mutex::new(OpenOptions::new().create(true).append(true).open(path)?)))
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            addr,
            workers: config.workers,
            queue: WorkQueue::new(config.queue_capacity),
            store,
            ckpt,
            event_log,
            shutting_down: AtomicBool::new(false),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server { shared, accept: Some(accept), workers })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins shutdown (also reachable over the wire via the `shutdown`
    /// request). With `drain`, queued sessions still run to completion.
    pub fn shutdown(&self, drain: bool) {
        self.shared.begin_shutdown(drain);
    }

    /// Joins the accept loop and every worker. In-flight sessions (and,
    /// under drain, the whole backlog) finish first.
    pub fn wait(mut self) -> io::Result<()> {
        let join_err = |_| io::Error::other("service thread panicked");
        if let Some(accept) = self.accept.take() {
            accept.join().map_err(join_err)?;
        }
        for worker in self.workers.drain(..) {
            worker.join().map_err(join_err)?;
        }
        Ok(())
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // Handlers are detached: a connection's lifetime is its own.
        thread::spawn(move || {
            let _ = handle_connection(stream, &shared);
        });
    }
}

/// Writes one frame line atomically; delivery is best-effort (a client
/// that hung up must not take the worker down with it).
fn send(conn: &Arc<Mutex<TcpStream>>, frame: &str) {
    let mut stream = conn.lock().unwrap();
    let _ = stream.write_all(frame.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

enum FrameRead {
    Line(String),
    /// Clean EOF, or a stream truncated mid-frame: either way the
    /// conversation is over.
    Closed,
    /// The peer exceeded [`MAX_FRAME_BYTES`] without a newline.
    TooLong,
}

/// Reads one newline-terminated frame with a hard size bound, without
/// ever buffering an unbounded line.
fn read_frame(reader: &mut BufReader<TcpStream>) -> FrameRead {
    let mut line = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok([]) => return FrameRead::Closed,
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return FrameRead::Closed,
        };
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                if line.len() > MAX_FRAME_BYTES {
                    return FrameRead::TooLong;
                }
                return match String::from_utf8(line) {
                    Ok(text) => FrameRead::Line(text),
                    Err(_) => FrameRead::Closed,
                };
            }
            None => {
                let len = available.len();
                line.extend_from_slice(available);
                reader.consume(len);
                if line.len() > MAX_FRAME_BYTES {
                    return FrameRead::TooLong;
                }
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    let conn = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_frame(&mut reader) {
            FrameRead::Closed => return Ok(()),
            FrameRead::TooLong => {
                // The stream position is ambiguous past an oversized
                // frame, so answer and hang up rather than resync.
                send(&conn, &error_frame(None, &format!("frame exceeds {MAX_FRAME_BYTES} bytes")));
                return Ok(());
            }
            FrameRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(line.trim()) {
            Err(e) => send(&conn, &error_frame(e.id.as_deref(), &e.reason)),
            Ok(Request::Ping { id }) => send(
                &conn,
                &pong_frame(&id, shared.workers, shared.queue.capacity(), shared.store.len()),
            ),
            Ok(Request::Shutdown { id, drain }) => {
                send(&conn, &bye_frame(&id, drain));
                shared.begin_shutdown(drain);
                return Ok(());
            }
            Ok(Request::Work(request)) => {
                let fingerprint = request.fingerprint();
                if let Some(entry) = shared.store.get(fingerprint) {
                    // Store hit: replay inline, no queueing, no
                    // simulation — byte-for-byte what the cold run sent.
                    send(&conn, &ack_frame(&request.id, fingerprint, 0));
                    serve_from_store(&request.id, &entry, &conn, shared);
                    continue;
                }
                let id = request.id.clone();
                let job =
                    Job { request: *request, conn: Arc::clone(&conn), submitted: Instant::now() };
                match shared.queue.submit(job) {
                    Ok(depth) => send(&conn, &ack_frame(&id, fingerprint, depth)),
                    Err(SubmitError::Full { capacity }) => send(
                        &conn,
                        &reject_frame(&id, 429, &format!("queue full ({capacity} waiting)")),
                    ),
                    Err(SubmitError::Closed) => {
                        send(&conn, &reject_frame(&id, 503, "service is shutting down"))
                    }
                }
            }
        }
    }
}

fn serve_from_store(id: &str, entry: &ResultEntry, conn: &Arc<Mutex<TcpStream>>, shared: &Shared) {
    let started = Instant::now();
    let mut bus = EventBus::new(id);
    bus.add_sink(Box::new(WriterSink::new(Arc::clone(conn))));
    if let Some(log) = &shared.event_log {
        bus.add_sink(Box::new(WriterSink::new(Arc::clone(log))));
    }
    session::replay(entry, &mut bus);
    let exec_ms = started.elapsed().as_secs_f64() * 1e3;
    send(conn, &stats_frame(id, true, 0.0, exec_ms));
    send(conn, &result_frame(id, &entry.body));
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.next() {
        let queue_wait_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let id = job.request.id.clone();
        let fingerprint = job.request.fingerprint();

        let spool = SpoolSink::new();
        let payloads = spool.payloads();
        let mut bus = EventBus::new(&id);
        bus.add_sink(Box::new(WriterSink::new(Arc::clone(&job.conn))));
        if let Some(log) = &shared.event_log {
            bus.add_sink(Box::new(WriterSink::new(Arc::clone(log))));
        }
        bus.add_sink(Box::new(spool));

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            session::execute(&job.request, &mut bus, shared.ckpt.as_ref())
        }));
        let exec_ms = started.elapsed().as_secs_f64() * 1e3;
        match outcome {
            Ok(Ok(body)) => {
                let events = payloads.lock().unwrap().clone();
                // A spool write failure degrades to cache-miss-on-repeat,
                // it must not fail the session that already ran.
                let _ = shared.store.put(ResultEntry { fingerprint, body: body.clone(), events });
                send(&job.conn, &stats_frame(&id, false, queue_wait_ms, exec_ms));
                send(&job.conn, &result_frame(&id, &body));
            }
            Ok(Err(reason)) => send(&job.conn, &error_frame(Some(&id), &reason)),
            Err(_) => send(&job.conn, &error_frame(Some(&id), "internal error: session panicked")),
        }
    }
}

/// The `serve --check` self-test: starts a service on an ephemeral
/// port, drives the protocol end to end — ping, malformed frame, cold
/// drive, store-served repeat (byte-compared), oversized frame,
/// graceful shutdown — and reports what it verified.
pub fn run_check() -> Result<String, String> {
    let fail = |what: &str, detail: String| format!("check failed at {what}: {detail}");
    let server = Server::start(ServeConfig { workers: 2, queue_capacity: 8, ..Default::default() })
        .map_err(|e| fail("start", e.to_string()))?;
    let addr = server.addr();

    let mut client = Client::connect(addr).map_err(|e| fail("connect", e.to_string()))?;
    let pong = client.ping("chk-ping").map_err(|e| fail("ping", e.to_string()))?;
    if !pong.contains("\"type\":\"pong\"") {
        return Err(fail("ping", format!("unexpected reply {pong}")));
    }

    client.send_line("this is not json").map_err(|e| fail("malformed", e.to_string()))?;
    let err = client.read_frame().map_err(|e| fail("malformed", e.to_string()))?;
    if !err.as_deref().is_some_and(|f| f.contains("\"type\":\"error\"")) {
        return Err(fail("malformed", format!("expected error frame, got {err:?}")));
    }

    let drive = |cid: &str| {
        format!(
            "{{\"id\":\"{cid}\",\"kind\":\"drive\",\"world\":\"smoke\",\"duration_s\":2.0,\
             \"trace\":true,\"stream_trace\":true}}"
        )
    };
    let cold = client.run(&drive("chk-cold")).map_err(|e| fail("cold drive", e.to_string()))?;
    let Outcome::Completed { body: cold_body } = &cold.outcome else {
        return Err(fail("cold drive", format!("{:?}", cold.outcome)));
    };
    if cold.cached != Some(false) {
        return Err(fail("cold drive", format!("expected cached:false, got {:?}", cold.cached)));
    }
    let warm = client.run(&drive("chk-warm")).map_err(|e| fail("warm drive", e.to_string()))?;
    let Outcome::Completed { body: warm_body } = &warm.outcome else {
        return Err(fail("warm drive", format!("{:?}", warm.outcome)));
    };
    if warm.cached != Some(true) {
        return Err(fail("warm drive", format!("expected cached:true, got {:?}", warm.cached)));
    }
    if warm_body != cold_body {
        return Err(fail("byte identity", "store-served body differs from cold run".to_string()));
    }
    if warm.events != cold.events {
        return Err(fail("byte identity", "store-served events differ from cold run".to_string()));
    }
    if cold.events.is_empty() {
        return Err(fail("streaming", "cold drive streamed no events".to_string()));
    }

    let mut big = Client::connect(addr).map_err(|e| fail("oversize connect", e.to_string()))?;
    big.send_line(&"x".repeat(MAX_FRAME_BYTES + 2)).map_err(|e| fail("oversize", e.to_string()))?;
    let reply = big.read_frame().map_err(|e| fail("oversize", e.to_string()))?;
    if !reply.as_deref().is_some_and(|f| f.contains("frame exceeds")) {
        return Err(fail("oversize", format!("expected bounded-frame error, got {reply:?}")));
    }

    let bye = client.shutdown("chk-bye", true).map_err(|e| fail("shutdown", e.to_string()))?;
    if !bye.contains("\"type\":\"bye\"") {
        return Err(fail("shutdown", format!("unexpected reply {bye}")));
    }
    server.wait().map_err(|e| fail("wait", e.to_string()))?;

    // Extend: a checkpoint-store-backed service that ran a short drive
    // answers an `extend` to a longer horizon byte-identically to a
    // plain service running the long drive cold — the durable-resume
    // acceptance gate, over the wire.
    let ckpt_dir = std::env::temp_dir().join(format!("av-serve-check-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let extend_result = (|| {
        let plain = Server::start(ServeConfig { workers: 1, ..Default::default() })
            .map_err(|e| fail("extend plain start", e.to_string()))?;
        let mut client = Client::connect(plain.addr())
            .map_err(|e| fail("extend plain connect", e.to_string()))?;
        let long = |cid: &str, kind: &str| {
            format!(
                "{{\"id\":\"{cid}\",\"kind\":\"{kind}\",\"world\":\"smoke\",\"duration_s\":4.0,\
                 \"trace\":true,\"stream_trace\":true}}"
            )
        };
        let cold = client
            .run(&long("chk-ext-cold", "drive"))
            .map_err(|e| fail("extend cold drive", e.to_string()))?;
        let Outcome::Completed { body: cold_body } = &cold.outcome else {
            return Err(fail("extend cold drive", format!("{:?}", cold.outcome)));
        };
        client.shutdown("chk-ext-bye1", true).map_err(|e| fail("extend", e.to_string()))?;
        plain.wait().map_err(|e| fail("extend plain wait", e.to_string()))?;

        let durable = Server::start(ServeConfig {
            workers: 1,
            ckpt_dir: Some(ckpt_dir.clone()),
            ..Default::default()
        })
        .map_err(|e| fail("extend durable start", e.to_string()))?;
        let mut client = Client::connect(durable.addr())
            .map_err(|e| fail("extend durable connect", e.to_string()))?;
        let short = client
            .run(
                "{\"id\":\"chk-ext-short\",\"kind\":\"drive\",\"world\":\"smoke\",\
                 \"duration_s\":2.0,\"trace\":true,\"stream_trace\":true}",
            )
            .map_err(|e| fail("extend short drive", e.to_string()))?;
        if !matches!(short.outcome, Outcome::Completed { .. }) {
            return Err(fail("extend short drive", format!("{:?}", short.outcome)));
        }
        let warm = client
            .run(&long("chk-ext-warm", "extend"))
            .map_err(|e| fail("extend request", e.to_string()))?;
        let Outcome::Completed { body: warm_body } = &warm.outcome else {
            return Err(fail("extend request", format!("{:?}", warm.outcome)));
        };
        if warm_body != cold_body {
            return Err(fail("extend byte identity", "extend body differs from cold".to_string()));
        }
        if warm.events != cold.events {
            return Err(fail("extend byte identity", "extend events differ from cold".to_string()));
        }
        client.shutdown("chk-ext-bye2", true).map_err(|e| fail("extend", e.to_string()))?;
        durable.wait().map_err(|e| fail("extend durable wait", e.to_string()))?;
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    extend_result?;

    Ok(format!(
        "serve check ok: pong, malformed->error, cold drive ({} events), \
         store-served repeat byte-identical, oversized frame bounded, graceful drain, \
         extend-from-checkpoint byte-identical",
        cold.events.len()
    ))
}
