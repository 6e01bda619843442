//! The multi-tenant server: many concurrent [`Deployment`] sessions over
//! TCP, solving on a bounded worker pool.
//!
//! Architecture (all std, no async runtime):
//!
//! * an **acceptor** thread owns the listener and performs admission
//!   control — a connection beyond [`ServerConfig::max_sessions`] receives
//!   one [`ErrorCode::Busy`] frame and is closed;
//! * one **session** thread per connection owns that tenant's
//!   [`Deployment`] (sessions are fully isolated — no shared state between
//!   tenants beyond the worker pool) and speaks the frame protocol;
//! * a fixed pool of **solve workers** executes [`ClientMsg::Solve`] jobs.
//!   The job queue is bounded ([`ServerConfig::queue_depth`]); a solve
//!   submitted while the queue is full is refused with a typed
//!   [`ErrorCode::Overloaded`] frame instead of queueing unboundedly.
//!
//! Streaming: a solving worker pushes [`SolveEvent`]s into a bounded queue
//! ([`ServerConfig::event_queue`]); the session thread forwards them as
//! [`ServerMsg::Event`] frames. A full queue drops events (counted,
//! reported in `SolveOk`) rather than stalling the search; a failed
//! socket write marks the client gone and flips the job's cancel flag, so
//! the search stops cooperatively at its next event — cancel on disconnect.
//!
//! Budgets: [`ServerConfig::budget`] caps are clamped into every session's
//! [`ProgramParams`] at build time via
//! [`ProgramParams::clamp_solver_budget`], so no tenant can request more
//! search per COP execution than its quota.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use cologne::datalog::NodeId;
use cologne::net::Topology;
use cologne::{
    CologneError, Deployment, DeploymentBuilder, EventOptions, EventSink, ProgramParams,
    SolveEvent, SolveRequest, SolveResponse,
};

use crate::wire::{
    decode_client, encode_server, read_frame, write_frame, ClientMsg, ErrorCode, FrameError,
    ServerMsg, TenantBudget, WireError, DEFAULT_MAX_FRAME,
};

/// Server configuration: the tenant program plus resource limits.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Colog source compiled for every session.
    pub program: String,
    /// Base program parameters per session (budget caps clamp into these).
    pub params: ProgramParams,
    /// Topology per session (`None` = single node).
    pub topology: Option<Topology>,
    /// Admission control: maximum concurrent sessions.
    pub max_sessions: usize,
    /// Solve worker threads.
    pub workers: usize,
    /// Bounded solve-job queue depth; a full queue refuses solves with
    /// [`ErrorCode::Overloaded`].
    pub queue_depth: usize,
    /// Per-tenant node/time budget caps.
    pub budget: TenantBudget,
    /// Bounded per-solve event queue between worker and session thread.
    pub event_queue: usize,
    /// Cap on incoming frame payloads.
    pub max_frame: u32,
}

impl ServerConfig {
    /// Defaults sized for tests and moderate load.
    pub fn new(program: &str) -> Self {
        ServerConfig {
            program: program.to_string(),
            params: ProgramParams::new(),
            topology: None,
            max_sessions: 1536,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_depth: 256,
            budget: TenantBudget::default(),
            event_queue: 256,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or socket setup failed.
    Io(io::Error),
    /// The configured program/settings do not build a deployment.
    Config(CologneError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A snapshot of the server's own counters (not tenant counters — those are
/// per-session [`cologne::StatsSnapshot`]s).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections admitted.
    pub accepted: u64,
    /// Connections refused with [`ErrorCode::Busy`].
    pub rejected_busy: u64,
    /// Solves that completed (ok or solver error reported to the client).
    pub solves: u64,
    /// Solves refused with [`ErrorCode::Overloaded`].
    pub overloaded: u64,
    /// Event frames written to clients.
    pub events_streamed: u64,
    /// Solves cancelled because the client disconnected mid-stream.
    pub disconnect_cancels: u64,
    /// Ingest operations applied.
    pub ingest_ops: u64,
    /// Sessions currently open.
    pub active_sessions: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    solves: AtomicU64,
    overloaded: AtomicU64,
    events_streamed: AtomicU64,
    disconnect_cancels: AtomicU64,
    ingest_ops: AtomicU64,
}

struct SolveJob {
    deployment: Deployment,
    request: SolveRequest,
    events_tx: SyncSender<(NodeId, SolveEvent)>,
    cancel: Arc<AtomicBool>,
    done_tx: SyncSender<JobDone>,
}

struct JobDone {
    deployment: Deployment,
    result: Result<SolveResponse, CologneError>,
    dropped: u64,
}

/// The worker-side sink: non-blocking pushes into the bounded event queue,
/// with the cancel flag checked on every event so a disconnected client
/// stops the search at its next emission point.
struct StreamSink<'a> {
    tx: &'a SyncSender<(NodeId, SolveEvent)>,
    dropped: &'a mut u64,
    cancel: &'a AtomicBool,
}

impl EventSink for StreamSink<'_> {
    fn event(&mut self, node: NodeId, event: SolveEvent) -> bool {
        if self.cancel.load(Ordering::Relaxed) {
            return false;
        }
        match self.tx.try_send((node, event)) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                *self.dropped += 1;
                true
            }
            // the session thread is gone; stop the search
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

struct Shared {
    cfg: ServerConfig,
    active: AtomicUsize,
    counters: Counters,
    sessions_started: AtomicU64,
    jobs: Mutex<Option<SyncSender<SolveJob>>>,
    shutdown: AtomicBool,
}

/// A running server; dropped or [`Server::shutdown`] stops accepting.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. The configuration is validated eagerly by
    /// building one throwaway deployment, so a broken program or solver
    /// setting fails here instead of on every connection.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> Result<Server, ServeError> {
        build_deployment(&cfg).map_err(ServeError::Config)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // queue_depth 0 is a rendezvous queue: a solve is admitted only if
        // a worker is idle right now — useful for deterministic tests
        let (job_tx, job_rx) = sync_channel::<SolveJob>(cfg.queue_depth);
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cfg,
            active: AtomicUsize::new(0),
            counters: Counters::default(),
            sessions_started: AtomicU64::new(0),
            jobs: Mutex::new(Some(job_tx)),
            shutdown: AtomicBool::new(false),
        });
        let job_rx = Arc::new(Mutex::new(job_rx));
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            std::thread::spawn(move || worker_loop(&job_rx));
        }
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || acceptor_loop(&listener, &shared))
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_busy: c.rejected_busy.load(Ordering::Relaxed),
            solves: c.solves.load(Ordering::Relaxed),
            overloaded: c.overloaded.load(Ordering::Relaxed),
            events_streamed: c.events_streamed.load(Ordering::Relaxed),
            disconnect_cancels: c.disconnect_cancels.load(Ordering::Relaxed),
            ingest_ops: c.ingest_ops.load(Ordering::Relaxed),
            active_sessions: self.shared.active.load(Ordering::Relaxed) as u64,
        }
    }

    /// Stop accepting connections and retire the worker pool once open
    /// sessions finish. Sessions still connected keep running until their
    /// clients disconnect.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // closing the job sender lets idle workers exit
        self.shared.jobs.lock().expect("jobs lock").take();
        // poke the blocking accept() so the acceptor observes shutdown
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

/// Build one tenant deployment from the server configuration, with the
/// budget caps clamped into its parameters.
fn build_deployment(cfg: &ServerConfig) -> Result<Deployment, CologneError> {
    let mut params = cfg.params.clone();
    params.clamp_solver_budget(
        cfg.budget.max_nodes.map(|n| n.get()),
        cfg.budget.max_solve_time,
    );
    let mut builder = DeploymentBuilder::new(&cfg.program).params(params);
    if let Some(topology) = &cfg.topology {
        builder = builder.topology(topology.clone());
    }
    builder.build()
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_sessions {
            shared
                .counters
                .rejected_busy
                .fetch_add(1, Ordering::Relaxed);
            let mut writer = BufWriter::new(stream);
            let msg = ServerMsg::Error {
                code: ErrorCode::Busy,
                message: format!("server at session limit {}", shared.cfg.max_sessions),
            };
            let _ = write_frame(&mut writer, &encode_server(&msg));
            let _ = writer.flush();
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let _ = session_loop(&shared, stream);
            shared.active.fetch_sub(1, Ordering::SeqCst);
        });
    }
}

fn worker_loop(jobs: &Mutex<Receiver<SolveJob>>) {
    loop {
        // hold the lock only while waiting for one job, not while solving
        let job = match jobs.lock() {
            Ok(rx) => match rx.recv() {
                Ok(job) => job,
                Err(_) => return,
            },
            Err(_) => return,
        };
        let SolveJob {
            mut deployment,
            request,
            events_tx,
            cancel,
            done_tx,
        } = job;
        let mut dropped = 0u64;
        let result = {
            let mut sink = StreamSink {
                tx: &events_tx,
                dropped: &mut dropped,
                cancel: &cancel,
            };
            deployment.solve_streaming(&request, &mut sink)
        };
        // close the event stream before reporting completion, so the session
        // thread's forwarding loop terminates first
        drop(events_tx);
        let _ = done_tx.send(JobDone {
            deployment,
            result,
            dropped,
        });
    }
}

fn send_msg(writer: &mut BufWriter<TcpStream>, msg: &ServerMsg) -> io::Result<()> {
    write_frame(writer, &encode_server(msg))?;
    writer.flush()
}

fn error_msg(code: ErrorCode, message: impl Into<String>) -> ServerMsg {
    ServerMsg::Error {
        code,
        message: message.into(),
    }
}

fn cologne_error_msg(err: &CologneError) -> ServerMsg {
    error_msg(ErrorCode::of_error(err), err.to_string())
}

fn session_loop(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    // request/response latency matters more than throughput per byte here
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let session_id = shared.sessions_started.fetch_add(1, Ordering::Relaxed);
    let mut deployment = match build_deployment(&shared.cfg) {
        Ok(d) => Some(d),
        Err(e) => {
            let _ = send_msg(&mut writer, &cologne_error_msg(&e));
            return Ok(());
        }
    };
    let mut default_events: Option<EventOptions> = None;
    loop {
        let payload = match read_frame(&mut reader, shared.cfg.max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => break,
            Err(FrameError::Oversized { len, max }) => {
                let _ = send_msg(
                    &mut writer,
                    &error_msg(
                        ErrorCode::Oversized,
                        format!("frame payload {len} bytes exceeds cap {max}"),
                    ),
                );
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        let msg = match decode_client(&payload) {
            Ok(msg) => msg,
            Err(e) => {
                let fatal = matches!(e, WireError::BadVersion(_));
                send_msg(&mut writer, &error_msg(e.code(), e.to_string()))?;
                if fatal {
                    break;
                }
                continue;
            }
        };
        match msg {
            ClientMsg::Hello { tenant: _ } => {
                send_msg(
                    &mut writer,
                    &ServerMsg::HelloOk {
                        session: session_id,
                    },
                )?;
            }
            ClientMsg::Ingest {
                node,
                relation,
                ops,
                sync,
            } => {
                let dep = deployment.as_mut().expect("deployment present");
                let mut applied = 0u32;
                let mut failure: Option<CologneError> = None;
                match dep.handle(node, &relation) {
                    Ok(mut handle) => {
                        for op in ops {
                            let outcome = if op.insert {
                                handle.insert(op.tuple)
                            } else {
                                handle.delete(op.tuple)
                            };
                            match outcome {
                                Ok(()) => applied += 1,
                                Err(e) => {
                                    failure = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                    Err(e) => failure = Some(e),
                }
                shared
                    .counters
                    .ingest_ops
                    .fetch_add(u64::from(applied), Ordering::Relaxed);
                match failure {
                    // ingest batches are not transactional: operations before
                    // the failing one stay applied, and the error frame names
                    // the reason (unknown relation, schema mismatch, ...)
                    Some(e) => send_msg(&mut writer, &cologne_error_msg(&e))?,
                    None => {
                        if sync {
                            dep.sync(node);
                        }
                        send_msg(&mut writer, &ServerMsg::IngestOk { applied })?;
                    }
                }
            }
            ClientMsg::Solve(mut request) => {
                if request.events.is_none() {
                    request.events = default_events;
                }
                if let Err(e) = request.validate() {
                    send_msg(&mut writer, &cologne_error_msg(&e))?;
                    continue;
                }
                let dep = deployment.take().expect("deployment present");
                let (events_tx, events_rx) = sync_channel(shared.cfg.event_queue.max(1));
                let (done_tx, done_rx) = sync_channel(1);
                let cancel = Arc::new(AtomicBool::new(false));
                let job = SolveJob {
                    deployment: dep,
                    request,
                    events_tx,
                    cancel: Arc::clone(&cancel),
                    done_tx,
                };
                let submit = {
                    let guard = shared.jobs.lock().expect("jobs lock");
                    match guard.as_ref() {
                        Some(tx) => tx.try_send(job).map_err(|e| match e {
                            TrySendError::Full(job) => (ErrorCode::Overloaded, job),
                            TrySendError::Disconnected(job) => (ErrorCode::Internal, job),
                        }),
                        None => Err((ErrorCode::Internal, job)),
                    }
                };
                match submit {
                    Err((code, job)) => {
                        deployment = Some(job.deployment);
                        if code == ErrorCode::Overloaded {
                            shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                            send_msg(
                                &mut writer,
                                &error_msg(code, "solve queue full; retry later"),
                            )?;
                        } else {
                            send_msg(&mut writer, &error_msg(code, "server shutting down"))?;
                            break;
                        }
                    }
                    Ok(()) => {
                        let mut client_gone = false;
                        while let Ok((node, event)) = events_rx.recv() {
                            if client_gone {
                                continue; // drain so the worker never blocks
                            }
                            if send_msg(&mut writer, &ServerMsg::Event { node, event }).is_err() {
                                client_gone = true;
                                cancel.store(true, Ordering::Relaxed);
                                shared
                                    .counters
                                    .disconnect_cancels
                                    .fetch_add(1, Ordering::Relaxed);
                            } else {
                                shared
                                    .counters
                                    .events_streamed
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        let done = done_rx.recv().expect("worker reports completion");
                        deployment = Some(done.deployment);
                        shared.counters.solves.fetch_add(1, Ordering::Relaxed);
                        let reply = match done.result {
                            Ok(response) => ServerMsg::SolveOk {
                                reports: response.reports.into_iter().collect(),
                                dropped_events: done.dropped,
                            },
                            Err(e) => cologne_error_msg(&e),
                        };
                        if client_gone || send_msg(&mut writer, &reply).is_err() {
                            break;
                        }
                    }
                }
            }
            ClientMsg::Subscribe(opts) => {
                default_events = opts;
                send_msg(&mut writer, &ServerMsg::SubscribeOk)?;
            }
            ClientMsg::Stats => {
                let dep = deployment.as_ref().expect("deployment present");
                send_msg(&mut writer, &ServerMsg::StatsOk(dep.stats()))?;
            }
            ClientMsg::Tick { micros } => {
                let dep = deployment.as_mut().expect("deployment present");
                let limit = dep.now().plus_us(micros);
                let handled = dep.run_messages_until(limit);
                send_msg(&mut writer, &ServerMsg::TickOk { handled })?;
            }
            ClientMsg::Bye => {
                let _ = send_msg(&mut writer, &ServerMsg::ByeOk);
                break;
            }
        }
    }
    Ok(())
}
