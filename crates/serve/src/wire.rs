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
//!
//! Each layout is written once, for both directions: a private `Wire` trait
//! (`put`/`get`) covers the primitives and the generic containers, and two
//! macros derive every struct from its field list and every tagged enum from
//! its tag table. Those lists, near the end of the codec section, are the
//! normative body layouts. Changing a body is one line in its list, a
//! [`PROTOCOL_VERSION`] bump and new hex in `tests/golden_wire.rs`.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::num::NonZeroU64;
use std::time::Duration;

use cologne::datalog::serde::{decode_value, encode_value, DecodeError};
use cologne::datalog::{EngineStats, NodeId, RemoteTuple, Tuple, Value};
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
// the codec
// ---------------------------------------------------------------------------

/// One wire layout: `put` appends a value, `get` reads one back. Bodies are
/// compositions of these impls, so every layout exists once and serves both
/// directions.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(d: &mut Dec<'_>) -> Result<Self, WireError>;
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
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

    /// A collection count, sanity-checked against the remaining input (every
    /// element takes at least one byte) so corrupt counts cannot force a
    /// huge allocation.
    fn count(&mut self) -> Result<usize, WireError> {
        let n = u32::get(self)? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
}

macro_rules! wire_ints {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
                let raw = d.bytes(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("bytes(n) is n bytes long")))
            }
        }
    )*};
}

wire_ints!(u8, u32, u64, i64);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

/// Floats travel as their IEEE-754 bit pattern so the round trip is exact.
impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::get(d)?))
    }
}

/// Capacities travel as `u64`; one this platform cannot hold saturates.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(usize::try_from(u64::get(d)?).unwrap_or(usize::MAX))
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let len = u32::get(d)? as usize;
        std::str::from_utf8(d.bytes(len)?)
            .map(str::to_string)
            .map_err(|_| WireError::Value(DecodeError::BadUtf8))
    }
}

impl Wire for NodeId {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(NodeId(u32::get(d)?))
    }
}

impl Wire for Value {
    fn put(&self, out: &mut Vec<u8>) {
        encode_value(self, out);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(decode_value(d.buf, &mut d.pos)?)
    }
}

impl Wire for ErrorCode {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u8).put(out);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let tag = u8::get(d)?;
        ErrorCode::from_u8(tag).ok_or(WireError::BadTag {
            what: "error code",
            tag,
        })
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => Ok(Some(T::get(d)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let mut items = Vec::new();
        for _ in 0..d.count()? {
            items.push(T::get(d)?);
        }
        Ok(items)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for (key, value) in self {
            key.put(out);
            value.put(out);
        }
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let mut map = BTreeMap::new();
        for _ in 0..d.count()? {
            map.insert(K::get(d)?, V::get(d)?);
        }
        Ok(map)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok((A::get(d)?, B::get(d)?))
    }
}

/// A struct is its fields in list order. The decoder builds the struct
/// literal from the same list, so a missing field does not compile.
macro_rules! wire_structs {
    ($($ty:ident { $($field:ident),* })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
                Ok($ty { $($field: Wire::get(d)?),* })
            }
        }
    )*};
}

/// A tagged enum is one tag byte, then the variant's fields in list order;
/// `$unknown` names the error for a tag the table lacks. The encoder's
/// match is exhaustive, so a variant missing from the table does not
/// compile.
macro_rules! wire_enum {
    ($ty:ident, $unknown:expr;
     $($tag:literal => $var:ident $({ $($field:ident),* })? $(( $($pos:ident),* ))?,)*) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$var $({ $($field),* })? $(( $($pos),* ))? => {
                        out.push($tag);
                        $($($field.put(out);)*)?
                        $($($pos.put(out);)*)?
                    })*
                }
            }

            fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
                Ok(match u8::get(d)? {
                    $($tag => {
                        $($(let $field = Wire::get(d)?;)*)?
                        $($(let $pos = Wire::get(d)?;)*)?
                        $ty::$var $({ $($field),* })? $(( $($pos),* ))?
                    })*
                    tag => {
                        let unknown: fn(u8) -> WireError = $unknown;
                        return Err(unknown(tag));
                    }
                })
            }
        }
    };
}

// The normative body layouts of PROTOCOL v2 (docs/PROTOCOL.md).

wire_structs! {
    IngestOp { insert, tuple }
    EventOptions { capacity, cancel_after_incumbents }
    SolveRequest { target, parallel, events }
    BoundCertificate { engine, dual_bound, binding }
    RemoteTuple { dest, relation, tuple, insert }
    SearchStats {
        nodes, fails, propagations, prunings, solutions, max_depth, lns_iterations,
        lns_improvements, elapsed_micros, limit_reached, cancelled, warm_start,
        parallel_workers, subtrees, portfolio_rounds, dual_bound, gap
    }
    SolveReport {
        feasible, trivial, objective, proven_optimal, stats, certificate, assignments, outgoing
    }
    PipelineStats { plan_builds, full_rebuilds, incremental_builds }
    EngineStats {
        external_deltas, derivations, updates, remote_sends, aggregate_recomputes,
        unknown_relation_inserts
    }
    NodeStats { node, solver_invocations, pipeline, engine, search_total, last_search }
    DeliveryStats {
        data_packets_sent, retransmits, acks_sent, duplicates_dropped, stale_epoch_dropped,
        out_of_order_buffered, crashes, rejoins, resync_tuples
    }
    StatsSnapshot { nodes, delivery, rejected_remote_tuples }
}

wire_enum! { SolveTarget, |tag| WireError::BadTag { what: "solve target", tag };
    0 => All,
    1 => Node(node),
}

wire_enum! { SolveEvent, |tag| WireError::BadTag { what: "event", tag };
    0 => Incumbent { objective },
    1 => Restart { restarts, next_budget },
    2 => LnsIteration { iteration, improved, best_objective },
    3 => NodeBudget { nodes, fails },
    4 => Progress { nodes, fails, solutions, dual_bound, gap },
}

wire_enum! { ClientMsg, WireError::BadOpcode;
    0x01 => Hello { tenant },
    0x02 => Ingest { node, relation, ops, sync },
    0x03 => Solve(request),
    0x04 => Subscribe(events),
    0x05 => Stats,
    0x06 => Tick { micros },
    0x07 => Bye,
}

wire_enum! { ServerMsg, WireError::BadOpcode;
    0x81 => HelloOk { session },
    0x82 => IngestOk { applied },
    0x83 => Event { node, event },
    0x84 => SolveOk { reports, dropped_events },
    0x85 => StatsOk(snapshot),
    0x86 => TickOk { handled },
    0x87 => Error { code, message },
    0x88 => ByeOk,
    0x89 => SubscribeOk,
}

// ---------------------------------------------------------------------------
// message encode/decode
// ---------------------------------------------------------------------------

fn encode(msg: &impl Wire) -> Vec<u8> {
    let mut out = vec![PROTOCOL_VERSION];
    msg.put(&mut out);
    out
}

fn decode<M: Wire>(payload: &[u8]) -> Result<M, WireError> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    match u8::get(&mut d)? {
        PROTOCOL_VERSION => {}
        v => return Err(WireError::BadVersion(v)),
    }
    let msg = M::get(&mut d)?;
    match d.remaining() {
        0 => Ok(msg),
        n => Err(WireError::TrailingBytes(n)),
    }
}

/// Encode one client message into a frame payload.
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    encode(msg)
}

/// Decode one client-message payload.
pub fn decode_client(payload: &[u8]) -> Result<ClientMsg, WireError> {
    decode(payload)
}

/// Encode one server message into a frame payload.
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    encode(msg)
}

/// Decode one server-message payload.
pub fn decode_server(payload: &[u8]) -> Result<ServerMsg, WireError> {
    decode(payload)
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
