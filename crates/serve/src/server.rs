//! The multi-tenant server: many concurrent [`Deployment`] sessions over
//! TCP, one thread per session.
//!
//! Architecture (all std, no async runtime):
//!
//! * an **acceptor** thread owns the listener and performs admission
//!   control — a connection beyond [`ServerConfig::max_sessions`] receives
//!   one [`ErrorCode::Busy`] frame and is closed;
//! * one **session** thread per connection owns that tenant's
//!   [`Deployment`] and socket (sessions are fully isolated — no shared
//!   state between tenants beyond the solve gate), speaks the frame
//!   protocol and runs the tenant's [`ClientMsg::Solve`]s itself;
//! * a **solve gate** bounds those solves: at most
//!   [`ServerConfig::workers`] run at once and at most
//!   [`ServerConfig::queue_depth`] more wait for a free slot. A solve
//!   beyond that is refused with a typed [`ErrorCode::Overloaded`] frame
//!   instead of queueing unboundedly.
//!
//! Streaming: every [`SolveEvent`] is written to the session's socket as a
//! [`ServerMsg::Event`] frame when the search emits it. Nothing is queued
//! or dropped, so `SolveOk.dropped_events` is always 0. A client that stops
//! reading stalls its search for at most a fixed socket write timeout; a
//! write that fails or times out marks the client gone and cancels the
//! search cooperatively at that event — cancel on disconnect.
//!
//! Budgets: [`ServerConfig::budget`] caps are clamped into every session's
//! [`ProgramParams`] at build time via
//! [`ProgramParams::clamp_solver_budget`], so no tenant can request more
//! search per COP execution than its quota.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use cologne::datalog::NodeId;
use cologne::net::Topology;
use cologne::{
    CologneError, Deployment, DeploymentBuilder, EventOptions, EventSink, ProgramParams, SolveEvent,
};

use crate::wire::{
    decode_client, encode_server, read_frame, write_frame, ClientMsg, ErrorCode, FrameError,
    ServerMsg, TenantBudget, WireError, DEFAULT_MAX_FRAME,
};

/// How long one write to a session's socket may block before the client
/// counts as gone. Events are written while the solve holds its gate slot,
/// so this bounds how long a client that stops reading keeps the slot.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

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
    /// Solves running at once, across all sessions (at least 1).
    pub workers: usize,
    /// Solves admitted to wait for a running slot; a solve beyond
    /// `workers + queue_depth` is refused with [`ErrorCode::Overloaded`]
    /// (`0`: a solve is admitted only while a slot is free).
    pub queue_depth: usize,
    /// Per-tenant node/time budget caps.
    pub budget: TenantBudget,
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

/// The solve gate: at most `workers` solves run and at most `capacity`
/// (`workers + queue_depth`) are admitted, counted as `(admitted, running)`
/// under one mutex. Every update leaves both counts valid before it
/// unlocks, so a poisoned lock is recovered instead of propagated.
struct Gate {
    workers: usize,
    capacity: usize,
    counts: Mutex<(usize, usize)>,
    freed: Condvar,
}

/// One running solve's slot; dropping it — on unwind too — frees the slot
/// and wakes one waiting solve.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(workers: usize, queue_depth: usize) -> Gate {
        let workers = workers.max(1);
        Gate {
            workers,
            capacity: workers.saturating_add(queue_depth),
            counts: Mutex::new((0, 0)),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, (usize, usize)> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admit one solve and block until a slot is free; `None` when
    /// `capacity` solves are already admitted.
    fn enter(&self) -> Option<Permit<'_>> {
        let mut counts = self.lock();
        if counts.0 >= self.capacity {
            return None;
        }
        counts.0 += 1;
        while counts.1 >= self.workers {
            counts = self
                .freed
                .wait(counts)
                .unwrap_or_else(PoisonError::into_inner);
        }
        counts.1 += 1;
        Some(Permit(self))
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut counts = self.0.lock();
        counts.0 -= 1;
        counts.1 -= 1;
        drop(counts);
        self.0.freed.notify_one();
    }
}

struct Shared {
    cfg: ServerConfig,
    active: AtomicUsize,
    counters: Counters,
    sessions_started: AtomicU64,
    gate: Gate,
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
        let shared = Arc::new(Shared {
            gate: Gate::new(cfg.workers, cfg.queue_depth),
            cfg,
            active: AtomicUsize::new(0),
            counters: Counters::default(),
            sessions_started: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
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

    /// Stop accepting connections. Sessions still connected keep running
    /// until their clients disconnect, but their next solve is refused with
    /// [`ErrorCode::Internal`] and the session closed.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
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

/// Writes each event straight to the session's socket. A failed or timed
/// out write means the client is gone: the sink counts one disconnect
/// cancel and refuses this and every later event, which cancels the
/// search.
struct SocketSink<'a> {
    writer: &'a mut BufWriter<TcpStream>,
    counters: &'a Counters,
    client_gone: bool,
}

impl EventSink for SocketSink<'_> {
    fn event(&mut self, node: NodeId, event: SolveEvent) -> bool {
        if self.client_gone {
            return false;
        }
        if send_msg(self.writer, &ServerMsg::Event { node, event }).is_ok() {
            self.counters
                .events_streamed
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.client_gone = true;
            self.counters
                .disconnect_cancels
                .fetch_add(1, Ordering::Relaxed);
        }
        !self.client_gone
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
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let session_id = shared.sessions_started.fetch_add(1, Ordering::Relaxed);
    let mut deployment = match build_deployment(&shared.cfg) {
        Ok(d) => d,
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
                let mut applied = 0u32;
                let mut failure: Option<CologneError> = None;
                match deployment.handle(node, &relation) {
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
                            deployment.sync(node);
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
                if shared.shutdown.load(Ordering::SeqCst) {
                    let _ = send_msg(
                        &mut writer,
                        &error_msg(ErrorCode::Internal, "server shutting down"),
                    );
                    break;
                }
                let Some(permit) = shared.gate.enter() else {
                    shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                    send_msg(
                        &mut writer,
                        &error_msg(ErrorCode::Overloaded, "solve queue full; retry later"),
                    )?;
                    continue;
                };
                let mut sink = SocketSink {
                    writer: &mut writer,
                    counters: &shared.counters,
                    client_gone: false,
                };
                let result = deployment.solve_streaming(&request, &mut sink);
                let client_gone = sink.client_gone;
                drop(permit);
                shared.counters.solves.fetch_add(1, Ordering::Relaxed);
                if client_gone {
                    break;
                }
                let reply = match result {
                    Ok(response) => ServerMsg::SolveOk {
                        reports: response.reports.into_iter().collect(),
                        dropped_events: 0,
                    },
                    Err(e) => cologne_error_msg(&e),
                };
                send_msg(&mut writer, &reply)?;
            }
            ClientMsg::Subscribe(opts) => {
                default_events = opts;
                send_msg(&mut writer, &ServerMsg::SubscribeOk)?;
            }
            ClientMsg::Stats => {
                send_msg(&mut writer, &ServerMsg::StatsOk(deployment.stats()))?;
            }
            ClientMsg::Tick { micros } => {
                let limit = deployment.now().plus_us(micros);
                let handled = deployment.run_messages_until(limit);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    fn counts(gate: &Gate) -> (usize, usize) {
        *gate.lock()
    }

    #[test]
    fn gate_runs_workers_queues_depth_and_refuses_the_rest() {
        let gate = &Gate::new(1, 1);
        let first = gate.enter().expect("a free slot admits and runs");
        let (ran_tx, ran_rx) = mpsc::channel();
        thread::scope(|s| {
            s.spawn(move || {
                let _permit = gate.enter().expect("the queue admits the second solve");
                ran_tx.send(()).expect("the test thread listens");
            });
            // (admitted 2, running 1) is visible only once the second solve
            // has released the lock inside its wait for the slot
            while counts(gate) != (2, 1) {
                thread::yield_now();
            }
            assert!(ran_rx.try_recv().is_err(), "the second solve waits");
            assert!(gate.enter().is_none(), "the third solve is refused");
            drop(first);
            ran_rx
                .recv()
                .expect("releasing the first lets the second run");
        });
        assert_eq!(counts(gate), (0, 0));
    }

    #[test]
    fn a_panicking_solve_frees_its_slot() {
        let gate = &Gate::new(1, 0);
        let joined = thread::scope(|s| {
            s.spawn(|| {
                let _permit = gate.enter().expect("a free slot");
                panic!("the solve panics");
            })
            .join()
        });
        assert!(joined.is_err());
        assert_eq!(counts(gate), (0, 0), "capacity must not leak");
        assert!(gate.enter().is_some());
    }

    #[test]
    fn a_poisoned_gate_keeps_working() {
        let gate = &Gate::new(1, 0);
        let _ = thread::scope(|s| {
            s.spawn(|| {
                let _counts = gate.counts.lock();
                panic!("poison the gate");
            })
            .join()
        });
        assert!(gate.counts.is_poisoned());
        let permit = gate.enter().expect("a poisoned gate still admits");
        assert!(gate.enter().is_none(), "and still counts");
        drop(permit);
        assert_eq!(counts(gate), (0, 0));
    }
}
