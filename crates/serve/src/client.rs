//! The client library: a blocking, synchronous connection to a
//! `cologne-serve` server speaking the frame protocol of [`crate::wire`].
//!
//! [`Client::solve`] reassembles streamed [`ServerMsg::Event`] frames plus
//! the final [`ServerMsg::SolveOk`] into the same [`SolveResponse`] an
//! in-process [`cologne::Deployment::solve`] returns — including the
//! event-buffer capacity semantics, so (elapsed-normalized) the two are
//! byte-identical for deterministic solves.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

use cologne::datalog::{NodeId, Value};
use cologne::{EventOptions, SolveEvent, SolveRequest, SolveResponse, StatsSnapshot};

use crate::wire::{
    decode_server, encode_client, read_frame, write_frame, ClientMsg, ErrorCode, FrameError,
    IngestOp, ServerMsg, WireError, DEFAULT_MAX_FRAME,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent bytes this client cannot decode.
    Wire(WireError),
    /// A frame violated transport limits (e.g. oversized).
    Frame(String),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with an unexpected (but well-formed) message.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Frame(m) => write!(f, "frame: {m}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::Oversized { len, max } => {
                ClientError::Frame(format!("frame payload {len} bytes exceeds cap {max}"))
            }
        }
    }
}

/// One session against a `cologne-serve` server. All calls are blocking
/// request/response; [`Client::solve`] additionally consumes the event
/// stream the server interleaves before the final answer.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: u32,
}

impl Client {
    /// Connect (with `TCP_NODELAY`, the protocol is latency-bound).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &encode_client(msg))?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerMsg, ClientError> {
        let payload = read_frame(&mut self.reader, self.max_frame)?
            .ok_or_else(|| ClientError::Protocol("server closed the connection".into()))?;
        Ok(decode_server(&payload)?)
    }

    /// Convert a non-streaming reply: error frames become
    /// [`ClientError::Server`], anything else is passed to `f`.
    fn expect<T>(
        &mut self,
        f: impl FnOnce(ServerMsg) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        match self.recv()? {
            ServerMsg::Error { code, message } => Err(ClientError::Server { code, message }),
            msg => f(msg),
        }
    }

    /// Open the session; returns the server-assigned session id.
    pub fn hello(&mut self, tenant: &str) -> Result<u64, ClientError> {
        self.send(&ClientMsg::Hello {
            tenant: tenant.to_string(),
        })?;
        self.expect(|msg| match msg {
            ServerMsg::HelloOk { session } => Ok(session),
            other => Err(unexpected("HelloOk", &other)),
        })
    }

    /// Apply a batch of inserts/deletes against one relation of one node
    /// through the server's schema-checked handle path. Returns the number
    /// of operations applied; a schema violation surfaces as
    /// [`ClientError::Server`] with the offending-op detail (operations
    /// before it stay applied — batches are not transactional). With
    /// `sync`, the node's rules run to fixpoint afterwards.
    pub fn ingest(
        &mut self,
        node: NodeId,
        relation: &str,
        ops: Vec<IngestOp>,
        sync: bool,
    ) -> Result<u32, ClientError> {
        self.send(&ClientMsg::Ingest {
            node,
            relation: relation.to_string(),
            ops,
            sync,
        })?;
        self.expect(|msg| match msg {
            ServerMsg::IngestOk { applied } => Ok(applied),
            other => Err(unexpected("IngestOk", &other)),
        })
    }

    /// Insert one tuple (see [`Client::ingest`] for batches).
    pub fn insert(
        &mut self,
        node: NodeId,
        relation: &str,
        tuple: Vec<Value>,
    ) -> Result<(), ClientError> {
        self.ingest(node, relation, vec![IngestOp::insert(tuple)], false)?;
        Ok(())
    }

    /// Delete one tuple (see [`Client::ingest`] for batches).
    pub fn delete(
        &mut self,
        node: NodeId,
        relation: &str,
        tuple: Vec<Value>,
    ) -> Result<(), ClientError> {
        self.ingest(node, relation, vec![IngestOp::delete(tuple)], false)?;
        Ok(())
    }

    /// Set (or clear) the session's default event options, applied to any
    /// subsequent [`Client::solve`] whose request doesn't set its own.
    pub fn subscribe(&mut self, options: Option<EventOptions>) -> Result<(), ClientError> {
        self.send(&ClientMsg::Subscribe(options))?;
        self.expect(|msg| match msg {
            ServerMsg::SubscribeOk => Ok(()),
            other => Err(unexpected("SubscribeOk", &other)),
        })
    }

    /// Execute one solve, buffering streamed events into the response —
    /// the remote mirror of [`cologne::Deployment::solve`].
    pub fn solve(&mut self, request: &SolveRequest) -> Result<SolveResponse, ClientError> {
        let capacity = request.events.as_ref().map(|e| e.capacity);
        self.solve_inner(request, capacity, &mut |_, _| {})
    }

    /// Execute one solve, handing each streamed event to `on_event` as it
    /// arrives instead of buffering — the remote mirror of
    /// [`cologne::Deployment::solve_streaming`]. The returned response has
    /// an empty event buffer.
    pub fn solve_streaming(
        &mut self,
        request: &SolveRequest,
        on_event: &mut dyn FnMut(NodeId, SolveEvent),
    ) -> Result<SolveResponse, ClientError> {
        self.solve_inner(request, Some(0), on_event)
    }

    /// `keep`: how many streamed events to retain in the response buffer
    /// (`None` = all). Retaining fewer than the server streams counts the
    /// surplus as dropped, mirroring the in-process buffer-capacity
    /// semantics so the two paths return identical responses.
    fn solve_inner(
        &mut self,
        request: &SolveRequest,
        keep: Option<usize>,
        on_event: &mut dyn FnMut(NodeId, SolveEvent),
    ) -> Result<SolveResponse, ClientError> {
        self.send(&ClientMsg::Solve(request.clone()))?;
        let mut events: Vec<(NodeId, SolveEvent)> = Vec::new();
        let mut overflow = 0u64;
        loop {
            match self.recv()? {
                ServerMsg::Event { node, event } => {
                    on_event(node, event.clone());
                    if keep.map_or(true, |k| events.len() < k) {
                        events.push((node, event));
                    } else {
                        overflow += 1;
                    }
                }
                ServerMsg::SolveOk {
                    reports,
                    dropped_events,
                } => {
                    return Ok(SolveResponse {
                        reports: reports.into_iter().collect(),
                        events,
                        dropped_events: dropped_events + overflow,
                    });
                }
                ServerMsg::Error { code, message } => {
                    return Err(ClientError::Server { code, message });
                }
                other => return Err(unexpected("Event|SolveOk", &other)),
            }
        }
    }

    /// Fetch the session's unified statistics snapshot
    /// ([`cologne::Deployment::stats`] over the wire).
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.send(&ClientMsg::Stats)?;
        self.expect(|msg| match msg {
            ServerMsg::StatsOk(snapshot) => Ok(snapshot),
            other => Err(unexpected("StatsOk", &other)),
        })
    }

    /// Advance the session's simulated clock by `micros`, delivering
    /// in-flight network messages; returns how many were handled.
    pub fn tick(&mut self, micros: u64) -> Result<u64, ClientError> {
        self.send(&ClientMsg::Tick { micros })?;
        self.expect(|msg| match msg {
            ServerMsg::TickOk { handled } => Ok(handled),
            other => Err(unexpected("TickOk", &other)),
        })
    }

    /// Close the session gracefully.
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.send(&ClientMsg::Bye)?;
        self.expect(|msg| match msg {
            ServerMsg::ByeOk => Ok(()),
            other => Err(unexpected("ByeOk", &other)),
        })
    }
}

fn unexpected(wanted: &str, got: &ServerMsg) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}
