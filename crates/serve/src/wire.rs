//! The `cologne-serve` wire protocol: length-prefixed binary frames.
//!
//! See `docs/PROTOCOL.md` for the normative spec. In short:
//!
//! ```text
//! frame   := u32-LE payload-length | payload
//! payload := version-byte (1) | opcode-byte | body
//! ```
//!
//! Client→server opcodes live in `0x01..=0x7F` ([`ClientMsg`]),
//! server→client opcodes in `0x80..=0xFF` ([`ServerMsg`]). Bodies are built
//! from little-endian integers, length-prefixed UTF-8 strings, `u8` option
//! flags and the [`cologne_datalog::serde`] value encoding. Decoding is
//! **total**: any byte sequence either decodes or returns a typed
//! [`WireError`] — never a panic, and never an allocation proportional to a
//! corrupt length field (collection counts are checked against the remaining
//! input first).

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::num::NonZeroU64;
use std::time::Duration;

use cologne::datalog::serde::{decode_tuple, encode_tuple, DecodeError};
use cologne::datalog::{EngineStats, NodeId, RemoteTuple, Tuple};
use cologne::solver::SearchStats;
use cologne::{
    BoundCertificate, CologneError, DeliveryStats, EventOptions, NodeStats, PipelineStats,
    SolveEvent, SolveReport, SolveRequest, SolveTarget, StatsSnapshot,
};

/// Protocol version carried in every payload's first byte.
///
/// Version 2 added the dual-bound fields: `dual_bound`/`gap` on search
/// stats and `Progress` events, and the optional `BoundCertificate` on
/// solve reports.
pub const PROTOCOL_VERSION: u8 = 2;

/// Default cap on a frame's payload length (16 MiB).
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Typed error codes carried by [`ServerMsg::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame body failed to decode.
    Malformed = 1,
    /// The payload's version byte is not [`PROTOCOL_VERSION`].
    VersionMismatch = 2,
    /// The opcode byte names no known message.
    UnknownOpcode = 3,
    /// The frame's declared length exceeds the server's cap.
    Oversized = 4,
    /// An ingest named a relation the tenant's program never mentions.
    UnknownRelation = 5,
    /// A tuple failed the relation's schema check.
    SchemaMismatch = 6,
    /// A request carried an invalid configuration (e.g. parallel + events).
    InvalidConfig = 7,
    /// Every solve slot is busy and the wait queue is full; retry later.
    Overloaded = 8,
    /// The server is at its session limit; the connection is being closed.
    Busy = 9,
    /// Any other server-side failure.
    Internal = 10,
}

impl ErrorCode {
    /// Decode an error-code byte.
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::VersionMismatch,
            3 => ErrorCode::UnknownOpcode,
            4 => ErrorCode::Oversized,
            5 => ErrorCode::UnknownRelation,
            6 => ErrorCode::SchemaMismatch,
            7 => ErrorCode::InvalidConfig,
            8 => ErrorCode::Overloaded,
            9 => ErrorCode::Busy,
            10 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The code a [`CologneError`] surfaces as on the wire.
    pub fn of_error(err: &CologneError) -> ErrorCode {
        match err {
            CologneError::UnknownRelation { .. } => ErrorCode::UnknownRelation,
            CologneError::SchemaMismatch { .. } => ErrorCode::SchemaMismatch,
            CologneError::InvalidConfig(_) => ErrorCode::InvalidConfig,
            _ => ErrorCode::Internal,
        }
    }
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// Bytes remained after the message body.
    TrailingBytes(usize),
    /// The version byte is not [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// The opcode names no known message (for the decoded direction).
    BadOpcode(u8),
    /// An enum tag byte is out of range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A value payload failed to decode.
    Value(DecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated mid-message"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v}, expected {PROTOCOL_VERSION}")
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::Value(e) => write!(f, "value: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Value(e)
    }
}

impl WireError {
    /// The error code a decode failure surfaces as on the wire.
    pub fn code(&self) -> ErrorCode {
        match self {
            WireError::BadVersion(_) => ErrorCode::VersionMismatch,
            WireError::BadOpcode(_) => ErrorCode::UnknownOpcode,
            _ => ErrorCode::Malformed,
        }
    }
}

/// One ingest operation: insert or delete one tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestOp {
    /// True for insertion, false for deletion.
    pub insert: bool,
    /// The tuple.
    pub tuple: Tuple,
}

impl IngestOp {
    /// An insertion.
    pub fn insert(tuple: Tuple) -> IngestOp {
        IngestOp {
            insert: true,
            tuple,
        }
    }

    /// A deletion.
    pub fn delete(tuple: Tuple) -> IngestOp {
        IngestOp {
            insert: false,
            tuple,
        }
    }
}

/// Client→server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Open the session (first message; names the tenant for logs/quotas).
    Hello {
        /// Tenant identifier (free-form, for accounting).
        tenant: String,
    },
    /// A batch of schema-validated inserts/deletes on one relation of one
    /// node, optionally followed by a rule sync (run rules, ship remote
    /// tuples).
    Ingest {
        /// Target node.
        node: NodeId,
        /// Relation name.
        relation: String,
        /// The operations, applied in order.
        ops: Vec<IngestOp>,
        /// Run the node's rules and ship after applying the batch.
        sync: bool,
    },
    /// Execute one solve; the server streams [`ServerMsg::Event`] frames
    /// (when events were requested) followed by one [`ServerMsg::SolveOk`].
    Solve(SolveRequest),
    /// Set the session's default event options, applied to subsequent
    /// [`ClientMsg::Solve`] requests that carry no options of their own
    /// (`None` unsubscribes).
    Subscribe(Option<EventOptions>),
    /// Request a [`ServerMsg::StatsOk`] snapshot of the tenant's deployment.
    Stats,
    /// Advance the tenant's simulated network by `micros` microseconds,
    /// delivering in-flight messages.
    Tick {
        /// Microseconds to advance.
        micros: u64,
    },
    /// Close the session cleanly.
    Bye,
}

/// Server→client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// The session is open.
    HelloOk {
        /// Server-assigned session id.
        session: u64,
    },
    /// An ingest batch was applied.
    IngestOk {
        /// Number of operations applied.
        applied: u32,
    },
    /// One streamed solve event.
    Event {
        /// The node whose search emitted the event.
        node: NodeId,
        /// The event.
        event: SolveEvent,
    },
    /// A solve finished; terminates the event stream of that solve.
    SolveOk {
        /// Per-node reports in ascending node order.
        reports: Vec<(NodeId, SolveReport)>,
        /// Events dropped server-side (`cologne-serve` streams every
        /// event and always sends 0).
        dropped_events: u64,
    },
    /// The stats snapshot.
    StatsOk(StatsSnapshot),
    /// A tick finished.
    TickOk {
        /// Number of simulation events processed.
        handled: u64,
    },
    /// The subscription defaults were updated.
    SubscribeOk,
    /// A typed failure; the session stays open except for
    /// [`ErrorCode::Busy`], [`ErrorCode::Oversized`] and
    /// [`ErrorCode::VersionMismatch`], after which the server closes.
    Error {
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Clean session close.
    ByeOk,
}

// ---------------------------------------------------------------------------
// frame IO
// ---------------------------------------------------------------------------

/// Why a frame could not be read off a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(io::Error),
    /// The declared payload length exceeds the reader's cap. The payload has
    /// NOT been consumed; the connection must be closed.
    Oversized {
        /// Declared length.
        len: u32,
        /// The reader's cap.
        max: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload {len} bytes exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Write one frame (length prefix + payload).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame's payload. Returns `Ok(None)` on a clean EOF before the
/// length prefix (the peer closed between frames).
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// encoding primitives
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(u8::from(b));
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    fn opt_i64(&mut self) -> Result<Option<i64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.i64()?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f64::from_bits(self.u64()?))),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }

    fn str_(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        std::str::from_utf8(raw)
            .map(str::to_string)
            .map_err(|_| WireError::Value(DecodeError::BadUtf8))
    }

    /// A collection count, sanity-checked against the remaining input (every
    /// element takes at least one byte) so corrupt counts cannot force a
    /// huge allocation.
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn tuple(&mut self) -> Result<Tuple, WireError> {
        Ok(decode_tuple(self.buf, &mut self.pos)?)
    }

    fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

// ---------------------------------------------------------------------------
// domain-type encodings
// ---------------------------------------------------------------------------

fn put_opt_i64(out: &mut Vec<u8>, v: Option<i64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Floats travel as their IEEE-754 bit pattern so the round trip is exact.
fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

fn put_certificate(out: &mut Vec<u8>, cert: &Option<BoundCertificate>) {
    match cert {
        None => out.push(0),
        Some(cert) => {
            out.push(1);
            put_str(out, &cert.engine);
            out.extend_from_slice(&cert.dual_bound.to_le_bytes());
            put_u32(out, cert.binding.len() as u32);
            for name in &cert.binding {
                put_str(out, name);
            }
        }
    }
}

fn put_event(out: &mut Vec<u8>, event: &SolveEvent) {
    match event {
        SolveEvent::Incumbent { objective } => {
            out.push(0);
            put_opt_i64(out, *objective);
        }
        SolveEvent::Restart {
            restarts,
            next_budget,
        } => {
            out.push(1);
            put_u64(out, *restarts);
            put_u64(out, *next_budget);
        }
        SolveEvent::LnsIteration {
            iteration,
            improved,
            best_objective,
        } => {
            out.push(2);
            put_u64(out, *iteration);
            put_bool(out, *improved);
            put_opt_i64(out, *best_objective);
        }
        SolveEvent::NodeBudget { nodes, fails } => {
            out.push(3);
            put_u64(out, *nodes);
            put_u64(out, *fails);
        }
        SolveEvent::Progress {
            nodes,
            fails,
            solutions,
            dual_bound,
            gap,
        } => {
            out.push(4);
            put_u64(out, *nodes);
            put_u64(out, *fails);
            put_u64(out, *solutions);
            put_opt_i64(out, *dual_bound);
            put_opt_f64(out, *gap);
        }
    }
}

fn dec_event(d: &mut Dec) -> Result<SolveEvent, WireError> {
    Ok(match d.u8()? {
        0 => SolveEvent::Incumbent {
            objective: d.opt_i64()?,
        },
        1 => SolveEvent::Restart {
            restarts: d.u64()?,
            next_budget: d.u64()?,
        },
        2 => SolveEvent::LnsIteration {
            iteration: d.u64()?,
            improved: d.bool()?,
            best_objective: d.opt_i64()?,
        },
        3 => SolveEvent::NodeBudget {
            nodes: d.u64()?,
            fails: d.u64()?,
        },
        4 => SolveEvent::Progress {
            nodes: d.u64()?,
            fails: d.u64()?,
            solutions: d.u64()?,
            dual_bound: d.opt_i64()?,
            gap: d.opt_f64()?,
        },
        tag => return Err(WireError::BadTag { what: "event", tag }),
    })
}

fn put_search_stats(out: &mut Vec<u8>, s: &SearchStats) {
    put_u64(out, s.nodes);
    put_u64(out, s.fails);
    put_u64(out, s.propagations);
    put_u64(out, s.prunings);
    put_u64(out, s.solutions);
    put_u64(out, s.max_depth);
    put_u64(out, s.lns_iterations);
    put_u64(out, s.lns_improvements);
    put_u64(out, s.elapsed_micros);
    put_bool(out, s.limit_reached);
    put_bool(out, s.cancelled);
    put_bool(out, s.warm_start);
    put_u64(out, s.parallel_workers);
    put_u64(out, s.subtrees);
    put_u64(out, s.portfolio_rounds);
    put_opt_i64(out, s.dual_bound);
    put_opt_f64(out, s.gap);
}

fn dec_search_stats(d: &mut Dec) -> Result<SearchStats, WireError> {
    Ok(SearchStats {
        nodes: d.u64()?,
        fails: d.u64()?,
        propagations: d.u64()?,
        prunings: d.u64()?,
        solutions: d.u64()?,
        max_depth: d.u64()?,
        lns_iterations: d.u64()?,
        lns_improvements: d.u64()?,
        elapsed_micros: d.u64()?,
        limit_reached: d.bool()?,
        cancelled: d.bool()?,
        warm_start: d.bool()?,
        parallel_workers: d.u64()?,
        subtrees: d.u64()?,
        portfolio_rounds: d.u64()?,
        dual_bound: d.opt_i64()?,
        gap: d.opt_f64()?,
    })
}

fn dec_certificate(d: &mut Dec) -> Result<Option<BoundCertificate>, WireError> {
    match d.u8()? {
        0 => Ok(None),
        1 => {
            let engine = d.str_()?;
            let dual_bound = d.i64()?;
            let mut binding = Vec::new();
            for _ in 0..d.count()? {
                binding.push(d.str_()?);
            }
            Ok(Some(BoundCertificate {
                engine,
                dual_bound,
                binding,
            }))
        }
        tag => Err(WireError::BadTag {
            what: "option",
            tag,
        }),
    }
}

fn put_report(out: &mut Vec<u8>, r: &SolveReport) {
    put_bool(out, r.feasible);
    put_bool(out, r.trivial);
    put_opt_i64(out, r.objective);
    put_bool(out, r.proven_optimal);
    put_search_stats(out, &r.stats);
    put_certificate(out, &r.certificate);
    put_u32(out, r.assignments.len() as u32);
    for (name, rows) in &r.assignments {
        put_str(out, name);
        put_u32(out, rows.len() as u32);
        for row in rows {
            encode_tuple(row, out);
        }
    }
    put_u32(out, r.outgoing.len() as u32);
    for remote in &r.outgoing {
        put_u32(out, remote.dest.0);
        put_str(out, &remote.relation);
        encode_tuple(&remote.tuple, out);
        put_bool(out, remote.insert);
    }
}

fn dec_report(d: &mut Dec) -> Result<SolveReport, WireError> {
    let feasible = d.bool()?;
    let trivial = d.bool()?;
    let objective = d.opt_i64()?;
    let proven_optimal = d.bool()?;
    let stats = dec_search_stats(d)?;
    let certificate = dec_certificate(d)?;
    let mut assignments = BTreeMap::new();
    for _ in 0..d.count()? {
        let name = d.str_()?;
        let mut rows = Vec::new();
        for _ in 0..d.count()? {
            rows.push(d.tuple()?);
        }
        assignments.insert(name, rows);
    }
    let mut outgoing = Vec::new();
    for _ in 0..d.count()? {
        outgoing.push(RemoteTuple {
            dest: NodeId(d.u32()?),
            relation: d.str_()?,
            tuple: d.tuple()?,
            insert: d.bool()?,
        });
    }
    Ok(SolveReport {
        feasible,
        trivial,
        objective,
        proven_optimal,
        stats,
        certificate,
        assignments,
        outgoing,
    })
}

fn put_request(out: &mut Vec<u8>, r: &SolveRequest) {
    match r.target {
        SolveTarget::All => out.push(0),
        SolveTarget::Node(n) => {
            out.push(1);
            put_u32(out, n.0);
        }
    }
    put_bool(out, r.parallel);
    put_opt_events(out, &r.events);
}

fn dec_request(d: &mut Dec) -> Result<SolveRequest, WireError> {
    let target = match d.u8()? {
        0 => SolveTarget::All,
        1 => SolveTarget::Node(NodeId(d.u32()?)),
        tag => {
            return Err(WireError::BadTag {
                what: "solve target",
                tag,
            })
        }
    };
    let parallel = d.bool()?;
    let events = dec_opt_events(d)?;
    Ok(SolveRequest {
        target,
        parallel,
        events,
    })
}

fn put_opt_events(out: &mut Vec<u8>, opts: &Option<EventOptions>) {
    match opts {
        None => out.push(0),
        Some(opts) => {
            out.push(1);
            put_u64(out, opts.capacity as u64);
            put_opt_u64(out, opts.cancel_after_incumbents);
        }
    }
}

fn dec_opt_events(d: &mut Dec) -> Result<Option<EventOptions>, WireError> {
    match d.u8()? {
        0 => Ok(None),
        1 => Ok(Some(EventOptions {
            capacity: d.u64()?.min(usize::MAX as u64) as usize,
            cancel_after_incumbents: d.opt_u64()?,
        })),
        tag => Err(WireError::BadTag {
            what: "option",
            tag,
        }),
    }
}

fn put_snapshot(out: &mut Vec<u8>, s: &StatsSnapshot) {
    put_u32(out, s.nodes.len() as u32);
    for row in &s.nodes {
        put_u32(out, row.node.0);
        put_u64(out, row.solver_invocations);
        put_u64(out, row.pipeline.plan_builds);
        put_u64(out, row.pipeline.full_rebuilds);
        put_u64(out, row.pipeline.incremental_builds);
        put_u64(out, row.engine.external_deltas);
        put_u64(out, row.engine.derivations);
        put_u64(out, row.engine.updates);
        put_u64(out, row.engine.remote_sends);
        put_u64(out, row.engine.aggregate_recomputes);
        put_u64(out, row.engine.unknown_relation_inserts);
        put_search_stats(out, &row.search_total);
        match &row.last_search {
            None => out.push(0),
            Some(last) => {
                out.push(1);
                put_search_stats(out, last);
            }
        }
    }
    put_u64(out, s.delivery.data_packets_sent);
    put_u64(out, s.delivery.retransmits);
    put_u64(out, s.delivery.acks_sent);
    put_u64(out, s.delivery.duplicates_dropped);
    put_u64(out, s.delivery.stale_epoch_dropped);
    put_u64(out, s.delivery.out_of_order_buffered);
    put_u64(out, s.delivery.crashes);
    put_u64(out, s.delivery.rejoins);
    put_u64(out, s.delivery.resync_tuples);
    put_u64(out, s.rejected_remote_tuples);
}

fn dec_snapshot(d: &mut Dec) -> Result<StatsSnapshot, WireError> {
    let mut nodes = Vec::new();
    for _ in 0..d.count()? {
        let node = NodeId(d.u32()?);
        let solver_invocations = d.u64()?;
        let pipeline = PipelineStats {
            plan_builds: d.u64()?,
            full_rebuilds: d.u64()?,
            incremental_builds: d.u64()?,
        };
        let engine = EngineStats {
            external_deltas: d.u64()?,
            derivations: d.u64()?,
            updates: d.u64()?,
            remote_sends: d.u64()?,
            aggregate_recomputes: d.u64()?,
            unknown_relation_inserts: d.u64()?,
        };
        let search_total = dec_search_stats(d)?;
        let last_search = match d.u8()? {
            0 => None,
            1 => Some(dec_search_stats(d)?),
            tag => {
                return Err(WireError::BadTag {
                    what: "option",
                    tag,
                })
            }
        };
        nodes.push(NodeStats {
            node,
            solver_invocations,
            pipeline,
            engine,
            search_total,
            last_search,
        });
    }
    let delivery = DeliveryStats {
        data_packets_sent: d.u64()?,
        retransmits: d.u64()?,
        acks_sent: d.u64()?,
        duplicates_dropped: d.u64()?,
        stale_epoch_dropped: d.u64()?,
        out_of_order_buffered: d.u64()?,
        crashes: d.u64()?,
        rejoins: d.u64()?,
        resync_tuples: d.u64()?,
    };
    let rejected_remote_tuples = d.u64()?;
    Ok(StatsSnapshot {
        nodes,
        delivery,
        rejected_remote_tuples,
    })
}

// ---------------------------------------------------------------------------
// message encode/decode
// ---------------------------------------------------------------------------

fn header(opcode: u8) -> Vec<u8> {
    vec![PROTOCOL_VERSION, opcode]
}

/// Encode one client message into a frame payload.
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    match msg {
        ClientMsg::Hello { tenant } => {
            let mut out = header(0x01);
            put_str(&mut out, tenant);
            out
        }
        ClientMsg::Ingest {
            node,
            relation,
            ops,
            sync,
        } => {
            let mut out = header(0x02);
            put_u32(&mut out, node.0);
            put_str(&mut out, relation);
            put_u32(&mut out, ops.len() as u32);
            for op in ops {
                put_bool(&mut out, op.insert);
                encode_tuple(&op.tuple, &mut out);
            }
            put_bool(&mut out, *sync);
            out
        }
        ClientMsg::Solve(request) => {
            let mut out = header(0x03);
            put_request(&mut out, request);
            out
        }
        ClientMsg::Subscribe(opts) => {
            let mut out = header(0x04);
            put_opt_events(&mut out, opts);
            out
        }
        ClientMsg::Stats => header(0x05),
        ClientMsg::Tick { micros } => {
            let mut out = header(0x06);
            put_u64(&mut out, *micros);
            out
        }
        ClientMsg::Bye => header(0x07),
    }
}

fn check_version(d: &mut Dec) -> Result<(), WireError> {
    match d.u8()? {
        PROTOCOL_VERSION => Ok(()),
        v => Err(WireError::BadVersion(v)),
    }
}

/// Decode one client-message payload.
pub fn decode_client(payload: &[u8]) -> Result<ClientMsg, WireError> {
    let mut d = Dec::new(payload);
    check_version(&mut d)?;
    let opcode = d.u8()?;
    let msg = match opcode {
        0x01 => ClientMsg::Hello { tenant: d.str_()? },
        0x02 => {
            let node = NodeId(d.u32()?);
            let relation = d.str_()?;
            let mut ops = Vec::new();
            for _ in 0..d.count()? {
                ops.push(IngestOp {
                    insert: d.bool()?,
                    tuple: d.tuple()?,
                });
            }
            let sync = d.bool()?;
            ClientMsg::Ingest {
                node,
                relation,
                ops,
                sync,
            }
        }
        0x03 => ClientMsg::Solve(dec_request(&mut d)?),
        0x04 => ClientMsg::Subscribe(dec_opt_events(&mut d)?),
        0x05 => ClientMsg::Stats,
        0x06 => ClientMsg::Tick { micros: d.u64()? },
        0x07 => ClientMsg::Bye,
        op => return Err(WireError::BadOpcode(op)),
    };
    d.finish()?;
    Ok(msg)
}

/// Encode one server message into a frame payload.
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    match msg {
        ServerMsg::HelloOk { session } => {
            let mut out = header(0x81);
            put_u64(&mut out, *session);
            out
        }
        ServerMsg::IngestOk { applied } => {
            let mut out = header(0x82);
            put_u32(&mut out, *applied);
            out
        }
        ServerMsg::Event { node, event } => {
            let mut out = header(0x83);
            put_u32(&mut out, node.0);
            put_event(&mut out, event);
            out
        }
        ServerMsg::SolveOk {
            reports,
            dropped_events,
        } => {
            let mut out = header(0x84);
            put_u32(&mut out, reports.len() as u32);
            for (node, report) in reports {
                put_u32(&mut out, node.0);
                put_report(&mut out, report);
            }
            put_u64(&mut out, *dropped_events);
            out
        }
        ServerMsg::StatsOk(snapshot) => {
            let mut out = header(0x85);
            put_snapshot(&mut out, snapshot);
            out
        }
        ServerMsg::TickOk { handled } => {
            let mut out = header(0x86);
            put_u64(&mut out, *handled);
            out
        }
        ServerMsg::SubscribeOk => header(0x89),
        ServerMsg::Error { code, message } => {
            let mut out = header(0x87);
            out.push(*code as u8);
            put_str(&mut out, message);
            out
        }
        ServerMsg::ByeOk => header(0x88),
    }
}

/// Decode one server-message payload.
pub fn decode_server(payload: &[u8]) -> Result<ServerMsg, WireError> {
    let mut d = Dec::new(payload);
    check_version(&mut d)?;
    let opcode = d.u8()?;
    let msg = match opcode {
        0x81 => ServerMsg::HelloOk { session: d.u64()? },
        0x82 => ServerMsg::IngestOk { applied: d.u32()? },
        0x83 => ServerMsg::Event {
            node: NodeId(d.u32()?),
            event: dec_event(&mut d)?,
        },
        0x84 => {
            let mut reports = Vec::new();
            for _ in 0..d.count()? {
                let node = NodeId(d.u32()?);
                reports.push((node, dec_report(&mut d)?));
            }
            let dropped_events = d.u64()?;
            ServerMsg::SolveOk {
                reports,
                dropped_events,
            }
        }
        0x85 => ServerMsg::StatsOk(dec_snapshot(&mut d)?),
        0x86 => ServerMsg::TickOk { handled: d.u64()? },
        0x89 => ServerMsg::SubscribeOk,
        0x87 => {
            let code_byte = d.u8()?;
            let code = ErrorCode::from_u8(code_byte).ok_or(WireError::BadTag {
                what: "error code",
                tag: code_byte,
            })?;
            ServerMsg::Error {
                code,
                message: d.str_()?,
            }
        }
        0x88 => ServerMsg::ByeOk,
        op => return Err(WireError::BadOpcode(op)),
    };
    d.finish()?;
    Ok(msg)
}

/// Per-tenant resource caps enforced by the server (also carried in
/// `ServerConfig`); here so both halves of the protocol documentation can
/// reference one definition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantBudget {
    /// Cap on search nodes per COP execution (`None` = no cap).
    pub max_nodes: Option<NonZeroU64>,
    /// Cap on wall-clock time per COP execution (`None` = no cap).
    pub max_solve_time: Option<Duration>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cologne::datalog::Value;

    fn sample_report() -> SolveReport {
        let stats = SearchStats {
            nodes: 42,
            elapsed_micros: 7,
            limit_reached: true,
            dual_bound: Some(-5),
            gap: Some(0.125),
            ..Default::default()
        };
        let mut assignments = BTreeMap::new();
        assignments.insert(
            "assign".to_string(),
            vec![vec![Value::Int(1), Value::Int(10), Value::Int(1)]],
        );
        SolveReport {
            feasible: true,
            trivial: false,
            objective: Some(-3),
            proven_optimal: false,
            stats,
            certificate: Some(BoundCertificate {
                engine: "linear_relaxation".into(),
                dual_bound: -5,
                binding: vec!["LinearEq#0 (objective)".into(), "LinearEq#2".into()],
            }),
            assignments,
            outgoing: vec![RemoteTuple {
                dest: NodeId(2),
                relation: "pong".into(),
                tuple: vec![Value::Addr(NodeId(2)), Value::Bool(true)],
                insert: true,
            }],
        }
    }

    #[test]
    fn client_messages_round_trip() {
        let msgs = [
            ClientMsg::Hello {
                tenant: "acme".into(),
            },
            ClientMsg::Ingest {
                node: NodeId(3),
                relation: "vm".into(),
                ops: vec![
                    IngestOp {
                        insert: true,
                        tuple: vec![Value::Int(1), Value::Str("x".into())],
                    },
                    IngestOp {
                        insert: false,
                        tuple: vec![],
                    },
                ],
                sync: true,
            },
            ClientMsg::Solve(SolveRequest::all().with_events(64)),
            ClientMsg::Solve(
                SolveRequest::at(NodeId(1))
                    .with_events(8)
                    .cancel_after_incumbents(2),
            ),
            ClientMsg::Solve(SolveRequest::all().parallel()),
            ClientMsg::Subscribe(Some(EventOptions::buffered(16))),
            ClientMsg::Subscribe(None),
            ClientMsg::Stats,
            ClientMsg::Tick { micros: 5_000_000 },
            ClientMsg::Bye,
        ];
        for msg in msgs {
            let payload = encode_client(&msg);
            assert_eq!(decode_client(&payload).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let snapshot = StatsSnapshot {
            nodes: vec![NodeStats {
                node: NodeId(1),
                solver_invocations: 4,
                pipeline: PipelineStats {
                    plan_builds: 1,
                    full_rebuilds: 2,
                    incremental_builds: 3,
                },
                engine: EngineStats {
                    external_deltas: 9,
                    ..Default::default()
                },
                search_total: SearchStats {
                    nodes: 100,
                    ..Default::default()
                },
                last_search: Some(SearchStats::default()),
            }],
            delivery: DeliveryStats {
                data_packets_sent: 12,
                ..Default::default()
            },
            rejected_remote_tuples: 1,
        };
        let msgs = [
            ServerMsg::HelloOk { session: 77 },
            ServerMsg::IngestOk { applied: 3 },
            ServerMsg::Event {
                node: NodeId(0),
                event: SolveEvent::Incumbent {
                    objective: Some(12),
                },
            },
            ServerMsg::Event {
                node: NodeId(1),
                event: SolveEvent::LnsIteration {
                    iteration: 3,
                    improved: true,
                    best_objective: None,
                },
            },
            ServerMsg::Event {
                node: NodeId(2),
                event: SolveEvent::Progress {
                    nodes: 64,
                    fails: 8,
                    solutions: 1,
                    dual_bound: Some(17),
                    gap: Some(0.0625),
                },
            },
            ServerMsg::Event {
                node: NodeId(2),
                event: SolveEvent::Progress {
                    nodes: 1,
                    fails: 0,
                    solutions: 0,
                    dual_bound: None,
                    gap: None,
                },
            },
            ServerMsg::SolveOk {
                reports: vec![(NodeId(0), sample_report())],
                dropped_events: 2,
            },
            ServerMsg::StatsOk(snapshot),
            ServerMsg::TickOk { handled: 9 },
            ServerMsg::SubscribeOk,
            ServerMsg::Error {
                code: ErrorCode::SchemaMismatch,
                message: "arity 2 != 3".into(),
            },
            ServerMsg::ByeOk,
        ];
        for msg in msgs {
            let payload = encode_server(&msg);
            assert_eq!(decode_server(&payload).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn version_and_opcode_errors_are_typed() {
        assert_eq!(
            decode_client(&[9, 0x05]),
            Err(WireError::BadVersion(9)),
            "wrong version byte"
        );
        assert_eq!(
            decode_client(&[PROTOCOL_VERSION, 0x60]),
            Err(WireError::BadOpcode(0x60))
        );
        // server opcodes are not client opcodes and vice versa
        assert_eq!(
            decode_client(&[PROTOCOL_VERSION, 0x81]),
            Err(WireError::BadOpcode(0x81))
        );
        assert_eq!(
            decode_server(&[PROTOCOL_VERSION, 0x01]),
            Err(WireError::BadOpcode(0x01))
        );
        assert_eq!(decode_client(&[]), Err(WireError::Truncated));
        // trailing bytes are rejected
        let mut payload = encode_client(&ClientMsg::Bye);
        payload.push(0);
        assert_eq!(decode_client(&payload), Err(WireError::TrailingBytes(1)));
        assert_eq!(WireError::BadVersion(9).code(), ErrorCode::VersionMismatch);
        assert_eq!(WireError::BadOpcode(0x60).code(), ErrorCode::UnknownOpcode);
        assert_eq!(WireError::Truncated.code(), ErrorCode::Malformed);
    }

    #[test]
    fn frame_io_round_trips_and_caps() {
        let payload = encode_client(&ClientMsg::Stats);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), payload);
        assert_eq!(read_frame(&mut cursor, 1024).unwrap().unwrap(), payload);
        assert!(
            read_frame(&mut cursor, 1024).unwrap().is_none(),
            "clean EOF"
        );

        // an oversized declared length is rejected before any allocation
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Oversized { len: u32::MAX, .. })
        ));

        // EOF inside the length prefix is an error, not a clean close
        let mut cursor = io::Cursor::new(vec![1u8, 2]);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn cologne_errors_map_to_codes() {
        assert_eq!(
            ErrorCode::of_error(&CologneError::UnknownRelation {
                relation: "vmm".into(),
                suggestion: Some("vm".into()),
            }),
            ErrorCode::UnknownRelation
        );
        assert_eq!(
            ErrorCode::of_error(&CologneError::SchemaMismatch {
                relation: "vm".into(),
                detail: "arity".into(),
            }),
            ErrorCode::SchemaMismatch
        );
        assert_eq!(
            ErrorCode::of_error(&CologneError::InvalidConfig("x".into())),
            ErrorCode::InvalidConfig
        );
        assert_eq!(
            ErrorCode::of_error(&CologneError::NoGoal),
            ErrorCode::Internal
        );
    }
}
