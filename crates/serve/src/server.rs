//! The resident partition server.
//!
//! One listener thread accepts connections (nonblocking, polling the
//! stop flag so SIGTERM drains promptly); each connection gets a reader
//! thread that parses one request per line and submits it to a
//! [`BoundedQueue`] shared by `server_threads` worker threads. The
//! reader waits for the worker's reply up to the per-request deadline —
//! queue-full requests shed immediately with `err busy`, expired ones
//! answer `err deadline-exceeded` (the work may still finish in the
//! background; only the response is abandoned).
//!
//! Reads (`community-of`, `members`, `stats`) answer from the current
//! [`Snapshot`] without any coordination beyond an `Arc` clone.
//! Mutations (`update`, `snapshot-save`) serialize on a mutate lock;
//! a failed or panicked re-detection never reaches the snapshot cell,
//! so the last good snapshot keeps serving — the crash-safety
//! contract the fault-injection tests pin down.

use crate::faults::{FaultPlan, FaultPoint};
use crate::persist::{self, BackoffPolicy};
use crate::protocol::{self, Request};
use crate::queue::{BoundedQueue, Push};
use crate::snapshot::{Snapshot, SnapshotCell};
use grappolo_core::{
    detect_communities_cancellable, update_communities_cancellable, with_thread_budget,
    CancelToken, DynamicError, LouvainConfig, SweepMode,
};
use grappolo_graph::io::{self, IoError};
use grappolo_graph::CsrGraph;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads answering requests.
    pub server_threads: usize,
    /// Bounded request queue capacity; a full queue sheds with `err busy`.
    pub queue_depth: usize,
    /// Per-request response deadline.
    pub deadline: Duration,
    /// Retry schedule for persistence.
    pub backoff: BackoffPolicy,
    /// Detection configuration for startup and `update` re-convergence.
    pub detect: LouvainConfig,
    /// Armed failpoints (empty in production).
    pub faults: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            server_threads: 4,
            queue_depth: 128,
            deadline: Duration::from_secs(2),
            backoff: BackoffPolicy::default(),
            detect: LouvainConfig::builder()
                .sweep(SweepMode::Active)
                .build()
                .expect("default serve detect config is valid"),
            faults: FaultPlan::new(),
        }
    }
}

/// Service counters, exported by the `metrics` protocol command.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Request lines submitted (well-formed or not).
    pub requests: AtomicU64,
    /// Requests refused because the queue was full.
    pub shed: AtomicU64,
    /// Requests whose deadline expired before a reply.
    pub deadline_expired: AtomicU64,
    /// `update` runs that errored or panicked (snapshot kept).
    pub detect_failures: AtomicU64,
    /// `snapshot-save` runs that exhausted their retry budget.
    pub persist_failures: AtomicU64,
    /// Successful snapshot swaps.
    pub snapshot_swaps: AtomicU64,
}

impl Metrics {
    fn line(&self) -> String {
        format!(
            "ok requests={} shed={} deadline-expired={} detect-failures={} \
             persist-failures={} snapshot-swaps={}",
            self.requests.load(Ordering::SeqCst),
            self.shed.load(Ordering::SeqCst),
            self.deadline_expired.load(Ordering::SeqCst),
            self.detect_failures.load(Ordering::SeqCst),
            self.persist_failures.load(Ordering::SeqCst),
            self.snapshot_swaps.load(Ordering::SeqCst),
        )
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// Could not bind or configure the listening socket.
    Bind(std::io::Error),
    /// Could not load the graph (includes injected `load` faults).
    Load(IoError),
    /// Invalid configuration.
    Config(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "binding listener: {e}"),
            ServeError::Load(e) => write!(f, "loading graph: {e}"),
            ServeError::Config(m) => write!(f, "invalid serve config: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

struct WorkItem {
    request: Request,
    reply: mpsc::Sender<String>,
}

struct ServerState {
    cell: SnapshotCell,
    detect: LouvainConfig,
    faults: FaultPlan,
    backoff: BackoffPolicy,
    deadline: Duration,
    metrics: Metrics,
    cancel: CancelToken,
    /// Serializes `update`/`snapshot-save` so at most one mutation runs.
    mutate: parking_lot::Mutex<()>,
}

/// The resident server. Construct with [`Server::start_from_path`] or
/// [`Server::start_with_graph`].
pub struct Server;

impl Server {
    /// Loads a graph (any `grappolo` format), runs the initial detection,
    /// and starts serving. The load and the initial detection share one
    /// pool, under the thread budget `config.detect` gives a run.
    pub fn start_from_path(path: &Path, config: ServeConfig) -> Result<ServerHandle, ServeError> {
        config
            .faults
            .hit(FaultPoint::Load)
            .map_err(|e| ServeError::Load(IoError::Io(std::io::Error::other(e.to_string()))))?;
        let budget = config.detect.clone();
        with_thread_budget(&budget, || {
            let graph = io::load_path(path).map_err(ServeError::Load)?;
            Self::start_with_graph(graph, config)
        })
    }

    /// Runs the initial detection on `graph` and starts serving. The
    /// `detect` failpoint is *not* consulted here — it targets `update`
    /// re-detections, so a fault-armed server still starts with a good
    /// snapshot to preserve.
    pub fn start_with_graph(
        graph: CsrGraph,
        config: ServeConfig,
    ) -> Result<ServerHandle, ServeError> {
        if config.server_threads == 0 {
            return Err(ServeError::Config("server_threads must be ≥ 1".into()));
        }
        let cancel = CancelToken::new();
        let result = detect_communities_cancellable(&graph, &config.detect, &cancel)
            .expect("fresh token is never cancelled");
        let initial = Snapshot {
            graph,
            assignment: result.assignment,
            num_communities: result.num_communities,
            modularity: result.modularity,
            epoch: 0,
        };
        let state = Arc::new(ServerState {
            cell: SnapshotCell::new(initial),
            detect: config.detect,
            faults: config.faults,
            backoff: config.backoff,
            deadline: config.deadline,
            metrics: Metrics::default(),
            cancel,
            mutate: parking_lot::Mutex::new(()),
        });
        let queue = Arc::new(BoundedQueue::<WorkItem>::new(config.queue_depth));
        let stop = Arc::new(AtomicBool::new(false));

        let listener = TcpListener::bind(&config.addr).map_err(ServeError::Bind)?;
        let addr = listener.local_addr().map_err(ServeError::Bind)?;
        listener.set_nonblocking(true).map_err(ServeError::Bind)?;

        let workers: Vec<JoinHandle<()>> = (0..config.server_threads)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    while let Some(item) = queue.pop() {
                        let response = handle_request(&state, item.request);
                        let _ = item.reply.send(response);
                    }
                })
            })
            .collect();

        let listener_join = {
            let queue = Arc::clone(&queue);
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Request/response round trips are one small
                            // packet each way; Nagle + delayed ACK would
                            // add ~40ms per turn otherwise.
                            let _ = stream.set_nodelay(true);
                            if state.faults.hit(FaultPoint::Socket).is_err() {
                                // Injected socket failure: drop the
                                // connection on the floor; the client sees
                                // EOF and may retry.
                                drop(stream);
                                continue;
                            }
                            let queue = Arc::clone(&queue);
                            let state = Arc::clone(&state);
                            std::thread::spawn(move || handle_connection(stream, state, queue));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
            })
        };

        Ok(ServerHandle {
            addr,
            stop,
            queue,
            state,
            listener_join: Some(listener_join),
            workers,
        })
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) leaves the threads running for
/// the life of the process.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<WorkItem>>,
    state: Arc<ServerState>,
    listener_join: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// The current snapshot (what queries answer from).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.state.cell.load()
    }

    /// The live fault plan — tests re-arm failpoints mid-run through it.
    pub fn faults(&self) -> FaultPlan {
        self.state.faults.clone()
    }

    /// Graceful drain: stop accepting, cancel any in-flight detection,
    /// let queued requests finish, join every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.state.cancel.cancel();
        self.queue.close();
        if let Some(j) = self.listener_join.take() {
            let _ = j.join();
        }
        for j in self.workers.drain(..) {
            let _ = j.join();
        }
    }

    /// Blocks until `should_stop` returns true (polled every `poll`),
    /// then drains. The CLI passes the SIGTERM latch here.
    pub fn serve_until(self, should_stop: impl Fn() -> bool, poll: Duration) {
        while !should_stop() {
            std::thread::sleep(poll);
        }
        self.shutdown();
    }
}

/// The longest request line a connection may send, newline excluded. Far
/// above any verb plus a `PATH_MAX` path; it bounds what one connection can
/// make the daemon buffer.
const MAX_REQUEST_LINE: usize = 64 * 1024;

fn handle_connection(
    stream: TcpStream,
    state: Arc<ServerState>,
    queue: Arc<BoundedQueue<WorkItem>>,
) {
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        // One byte past the limit tells an over-long line from one of
        // exactly `MAX_REQUEST_LINE` bytes plus its newline.
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let over_long = buf.last() != Some(&b'\n') && buf.len() > MAX_REQUEST_LINE;
        let request = if over_long {
            Err(format!("request line longer than {MAX_REQUEST_LINE} bytes"))
        } else {
            match std::str::from_utf8(&buf).map(str::trim) {
                Ok("") => continue,
                Ok("quit") => break,
                Ok(line) => Ok(line),
                Err(_) => Err("request line is not UTF-8".to_string()),
            }
        };
        state.metrics.requests.fetch_add(1, Ordering::SeqCst);
        let mut response = match request {
            Ok(line) => submit_and_wait(&state, &queue, line),
            Err(message) => format!("err bad-request {message}"),
        };
        // One write syscall per response: a split payload/newline write
        // would re-introduce the Nagle stall set_nodelay avoids.
        response.push('\n');
        let sent = writer
            .write_all(response.as_bytes())
            .and_then(|_| writer.flush());
        // The rest of an over-long line is never read: the connection
        // closes after its answer.
        if sent.is_err() || over_long {
            break;
        }
    }
}

fn submit_and_wait(state: &ServerState, queue: &BoundedQueue<WorkItem>, line: &str) -> String {
    let request = match protocol::parse(line) {
        Ok(r) => r,
        Err(e) => return format!("err bad-request {e}"),
    };
    // The `deadline` failpoint makes deadline expiry deterministic: an
    // armed request is treated as already expired, no timing races.
    if state.faults.hit(FaultPoint::Deadline).is_err() {
        state
            .metrics
            .deadline_expired
            .fetch_add(1, Ordering::SeqCst);
        return "err deadline-exceeded".to_string();
    }
    let (tx, rx) = mpsc::channel();
    match queue.try_push(WorkItem { request, reply: tx }) {
        Push::Accepted => match rx.recv_timeout(state.deadline) {
            Ok(response) => response,
            Err(_) => {
                state
                    .metrics
                    .deadline_expired
                    .fetch_add(1, Ordering::SeqCst);
                "err deadline-exceeded".to_string()
            }
        },
        Push::Shed => {
            state.metrics.shed.fetch_add(1, Ordering::SeqCst);
            "err busy queue full, retry later".to_string()
        }
        Push::Closed => "err shutting-down".to_string(),
    }
}

fn handle_request(state: &ServerState, request: Request) -> String {
    match request {
        Request::Ping => "ok pong".to_string(),
        Request::Stats => format!("ok {}", state.cell.load().stats_line()),
        Request::Metrics => state.metrics.line(),
        Request::CommunityOf(v) => {
            let snap = state.cell.load();
            match snap.community_of(v) {
                Some(c) => format!("ok {c}"),
                None => format!(
                    "err unknown-vertex {v} (graph has {} vertices)",
                    snap.graph.num_vertices()
                ),
            }
        }
        Request::Members(c) => protocol::members_response(&state.cell.load().members(c)),
        Request::Update(path) => run_update(state, &path),
        Request::SnapshotSave(path) => run_save(state, &path),
    }
}

/// Applies an edge-delta batch file: load → parse → cancellable
/// re-convergence under `catch_unwind` → atomic snapshot swap. Every
/// failure mode leaves the previous snapshot serving.
fn run_update(state: &ServerState, path: &Path) -> String {
    let _guard = state.mutate.lock();
    if state.cancel.is_cancelled() {
        return "err shutting-down".to_string();
    }
    if let Err(e) = state.faults.hit(FaultPoint::Load) {
        return format!("err load-failed {e}");
    }
    let batch = match std::fs::File::open(path)
        .map_err(IoError::from)
        .and_then(io::read_edge_batch)
    {
        Ok(b) => b,
        Err(IoError::Parse { line, message }) => {
            return format!("err bad-batch {}:{line}: {message}", path.display())
        }
        Err(e) => return format!("err load-failed reading {}: {e}", path.display()),
    };
    let snap = state.cell.load();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        state
            .faults
            .hit(FaultPoint::Detect)
            .map_err(|e| DynamicError::Failed(e.to_string()))?;
        update_communities_cancellable(
            &snap.graph,
            &snap.assignment,
            Some(snap.modularity),
            &batch,
            &state.detect,
            &state.cancel,
        )
    }));
    match outcome {
        Err(_) => {
            state.metrics.detect_failures.fetch_add(1, Ordering::SeqCst);
            "err detect-failed panic during re-detection (snapshot preserved)".to_string()
        }
        Ok(Err(DynamicError::Cancelled(_))) => "err shutting-down".to_string(),
        Ok(Err(DynamicError::Failed(m))) => {
            state.metrics.detect_failures.fetch_add(1, Ordering::SeqCst);
            format!("err detect-failed {m} (snapshot preserved)")
        }
        Ok(Ok(out)) => {
            let next = Snapshot {
                graph: out.graph,
                assignment: out.assignment,
                num_communities: out.num_communities,
                modularity: out.modularity,
                epoch: 0, // stamped by the cell
            };
            let epoch = state.cell.store(next);
            state.metrics.snapshot_swaps.fetch_add(1, Ordering::SeqCst);
            format!(
                "ok updated communities={} modularity={:.6} epoch={epoch}",
                out.num_communities, out.modularity
            )
        }
    }
}

fn run_save(state: &ServerState, path: &Path) -> String {
    let _guard = state.mutate.lock();
    let snap = state.cell.load();
    match persist::save_snapshot_atomic(&snap, path, &state.backoff, &state.faults) {
        Ok(()) => format!(
            "ok saved {} {} epoch={}",
            path.display(),
            persist::assignment_path(path).display(),
            snap.epoch
        ),
        Err(e) => {
            state
                .metrics
                .persist_failures
                .fetch_add(1, Ordering::SeqCst);
            format!("err persist-failed {e}")
        }
    }
}
