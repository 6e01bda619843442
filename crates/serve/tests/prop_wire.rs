//! Property tests for the `cologne-serve` wire codec.
//!
//! The decoder is total: *any* byte string — truncated, oversized, or
//! outright garbage — must produce a typed error, never a panic or an
//! unbounded allocation. Round-trips must be lossless for every message
//! the encoder can produce.

use proptest::prelude::*;

use cologne::datalog::{EngineStats, NodeId, RemoteTuple, SymId, Value, F64};
use cologne::solver::SearchStats;
use cologne::{
    BoundCertificate, DeliveryStats, EventOptions, NodeStats, PipelineStats, SolveEvent,
    SolveReport, SolveRequest, StatsSnapshot,
};
use cologne_serve::{
    decode_client, decode_server, encode_client, encode_server, read_frame, write_frame, ClientMsg,
    ErrorCode, FrameError, IngestOp, ServerMsg,
};

/// Deterministically map two sampled integers onto one `Value`, covering
/// every variant (floats canonicalized — the codec only ever sees
/// canonical bits, which `F64` construction already guarantees).
fn mk_value(tag: u8, payload: i64) -> Value {
    match tag % 6 {
        0 => Value::Int(payload),
        1 => Value::Float(F64(payload as f64 / 7.0)),
        2 => Value::Str(format!("s{payload}\u{00e9}")),
        3 => Value::Addr(NodeId(payload as u32)),
        4 => Value::Bool(payload & 1 == 1),
        _ => Value::Sym(SymId(payload as u32)),
    }
}

fn mk_tuple(cells: &[(u8, i64)]) -> Vec<Value> {
    cells.iter().map(|&(t, p)| mk_value(t, p)).collect()
}

fn mk_request(
    target_node: Option<u32>,
    parallel: bool,
    events: Option<(u64, Option<u64>)>,
) -> SolveRequest {
    let mut request = match target_node {
        Some(n) => SolveRequest::at(NodeId(n)),
        None => SolveRequest::all(),
    };
    request.parallel = parallel;
    request.events = events.map(|(capacity, cancel)| {
        let mut opts = EventOptions::buffered(capacity as usize);
        opts.cancel_after_incumbents = cancel;
        opts
    });
    request
}

/// Deterministic draws from one sampled seed (splitmix64), for messages too
/// nested for the tuple strategies; a failing case prints the seed.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn int(&mut self) -> i64 {
        self.next() as i64
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.next() as u32)
    }

    fn text(&mut self) -> String {
        format!("r{}\u{00e9}", self.below(1000))
    }

    fn gap(&mut self) -> f64 {
        self.below(1 << 20) as f64 / 1024.0
    }

    fn tuple(&mut self) -> Vec<Value> {
        self.vec(4, |g| mk_value(g.below(6) as u8, g.int()))
    }

    fn opt<T>(&mut self, draw: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.flag().then(|| draw(self))
    }

    /// Up to `max` elements (empty included).
    fn vec<T>(&mut self, max: u64, mut draw: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.below(max + 1);
        (0..len).map(|_| draw(self)).collect()
    }
}

fn search_stats(g: &mut Draws) -> SearchStats {
    SearchStats {
        nodes: g.next(),
        fails: g.next(),
        propagations: g.next(),
        prunings: g.next(),
        solutions: g.next(),
        max_depth: g.next(),
        lns_iterations: g.next(),
        lns_improvements: g.next(),
        elapsed_micros: g.next(),
        limit_reached: g.flag(),
        cancelled: g.flag(),
        warm_start: g.flag(),
        parallel_workers: g.next(),
        subtrees: g.next(),
        portfolio_rounds: g.next(),
        dual_bound: g.opt(Draws::int),
        gap: g.opt(Draws::gap),
    }
}

fn report(g: &mut Draws) -> SolveReport {
    SolveReport {
        feasible: g.flag(),
        trivial: g.flag(),
        objective: g.opt(Draws::int),
        proven_optimal: g.flag(),
        stats: search_stats(g),
        certificate: g.opt(|g| BoundCertificate {
            engine: g.text(),
            dual_bound: g.int(),
            binding: g.vec(3, Draws::text),
        }),
        assignments: g
            .vec(3, |g| (g.text(), g.vec(3, Draws::tuple)))
            .into_iter()
            .collect(),
        outgoing: g.vec(3, |g| RemoteTuple {
            dest: g.node(),
            relation: g.text(),
            tuple: g.tuple(),
            insert: g.flag(),
        }),
    }
}

fn snapshot(g: &mut Draws) -> StatsSnapshot {
    StatsSnapshot {
        nodes: g.vec(3, |g| NodeStats {
            node: g.node(),
            solver_invocations: g.next(),
            pipeline: PipelineStats {
                plan_builds: g.next(),
                full_rebuilds: g.next(),
                incremental_builds: g.next(),
            },
            engine: EngineStats {
                external_deltas: g.next(),
                derivations: g.next(),
                updates: g.next(),
                remote_sends: g.next(),
                aggregate_recomputes: g.next(),
                unknown_relation_inserts: g.next(),
            },
            search_total: search_stats(g),
            last_search: g.opt(search_stats),
        }),
        delivery: DeliveryStats {
            data_packets_sent: g.next(),
            retransmits: g.next(),
            acks_sent: g.next(),
            duplicates_dropped: g.next(),
            stale_epoch_dropped: g.next(),
            out_of_order_buffered: g.next(),
            crashes: g.next(),
            rejoins: g.next(),
            resync_tuples: g.next(),
        },
        rejected_remote_tuples: g.next(),
    }
}

fn event(g: &mut Draws) -> SolveEvent {
    match g.below(5) {
        0 => SolveEvent::Incumbent {
            objective: g.opt(Draws::int),
        },
        1 => SolveEvent::Restart {
            restarts: g.next(),
            next_budget: g.next(),
        },
        2 => SolveEvent::LnsIteration {
            iteration: g.next(),
            improved: g.flag(),
            best_objective: g.opt(Draws::int),
        },
        3 => SolveEvent::NodeBudget {
            nodes: g.next(),
            fails: g.next(),
        },
        _ => SolveEvent::Progress {
            nodes: g.next(),
            fails: g.next(),
            solutions: g.next(),
            dual_bound: g.opt(Draws::int),
            gap: g.opt(Draws::gap),
        },
    }
}

fn client_msg(g: &mut Draws) -> ClientMsg {
    match g.below(7) {
        0 => ClientMsg::Hello { tenant: g.text() },
        1 => ClientMsg::Ingest {
            node: g.node(),
            relation: g.text(),
            ops: g.vec(4, |g| IngestOp {
                insert: g.flag(),
                tuple: g.tuple(),
            }),
            sync: g.flag(),
        },
        2 => ClientMsg::Solve(mk_request(
            g.opt(|g| g.next() as u32),
            g.flag(),
            g.opt(|g| (g.below(1 << 20), g.opt(Draws::next))),
        )),
        3 => ClientMsg::Subscribe(g.opt(|g| EventOptions::buffered(g.below(1 << 20) as usize))),
        4 => ClientMsg::Stats,
        5 => ClientMsg::Tick { micros: g.next() },
        _ => ClientMsg::Bye,
    }
}

fn server_msg(g: &mut Draws) -> ServerMsg {
    match g.below(9) {
        0 => ServerMsg::HelloOk { session: g.next() },
        1 => ServerMsg::IngestOk {
            applied: g.next() as u32,
        },
        2 => ServerMsg::Event {
            node: g.node(),
            event: event(g),
        },
        3 => ServerMsg::SolveOk {
            reports: g.vec(2, |g| (g.node(), report(g))),
            dropped_events: g.next(),
        },
        4 => ServerMsg::StatsOk(snapshot(g)),
        5 => ServerMsg::TickOk { handled: g.next() },
        6 => ServerMsg::SubscribeOk,
        7 => ServerMsg::Error {
            code: ErrorCode::from_u8(1 + g.below(10) as u8).expect("codes 1..=10"),
            message: g.text(),
        },
        _ => ServerMsg::ByeOk,
    }
}

/// Whether bytes decode in one direction.
type Decodes = fn(&[u8]) -> bool;

/// One random message of either direction, encoded, with its direction's
/// decoder.
fn any_encoded(g: &mut Draws) -> (Vec<u8>, Decodes) {
    if g.flag() {
        (encode_client(&client_msg(g)), |b| decode_client(b).is_ok())
    } else {
        (encode_server(&server_msg(g)), |b| decode_server(b).is_ok())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ingest batches of arbitrary tuples round-trip exactly.
    #[test]
    fn ingest_round_trips(
        node in 0u32..1000,
        sync in prop::bool::ANY,
        ops in prop::collection::vec((prop::bool::ANY, prop::collection::vec((0u8..6, -1000i64..1000), 0..6)), 0..8),
    ) {
        let msg = ClientMsg::Ingest {
            node: NodeId(node),
            relation: "link".to_string(),
            ops: ops
                .iter()
                .map(|(insert, cells)| IngestOp {
                    insert: *insert,
                    tuple: mk_tuple(cells),
                })
                .collect(),
            sync,
        };
        let decoded = decode_client(&encode_client(&msg));
        prop_assert_eq!(decoded.as_ref().ok(), Some(&msg));
    }

    /// Every shape of solve request round-trips exactly.
    #[test]
    fn solve_requests_round_trip(
        target in 0u32..5,
        node in 0u32..100,
        parallel in prop::bool::ANY,
        has_events in prop::bool::ANY,
        capacity in 0u64..100_000,
        cancel in 0u64..10,
    ) {
        let request = mk_request(
            (target % 2 == 0).then_some(node),
            parallel,
            has_events.then_some((capacity, (cancel % 2 == 0).then_some(cancel))),
        );
        let msg = ClientMsg::Solve(request.clone());
        let decoded = decode_client(&encode_client(&msg));
        prop_assert_eq!(decoded.as_ref().ok(), Some(&msg));
        match decoded {
            Ok(ClientMsg::Solve(r)) => {
                prop_assert_eq!(r.target, request.target);
                prop_assert_eq!(r.parallel, request.parallel);
                prop_assert_eq!(r.events, request.events);
            }
            other => prop_assert!(false, "decoded to {other:?}"),
        }
    }

    /// Streamed event frames round-trip exactly.
    #[test]
    fn event_frames_round_trip(
        node in 0u32..100,
        kind in 0u8..5,
        a in -100_000i64..100_000,
        b in 0u64..1_000_000,
    ) {
        let event = match kind {
            0 => SolveEvent::Incumbent { objective: (a % 2 == 0).then_some(a) },
            1 => SolveEvent::Restart { restarts: b, next_budget: b * 2 },
            2 => SolveEvent::LnsIteration {
                iteration: b,
                improved: a % 2 == 0,
                best_objective: (a % 3 == 0).then_some(a),
            },
            3 => SolveEvent::NodeBudget { nodes: b, fails: b / 3 },
            _ => SolveEvent::Progress {
                nodes: b,
                fails: b / 2,
                solutions: b % 17,
                dual_bound: (a % 2 == 0).then_some(a),
                gap: (a % 3 == 0).then_some(a.unsigned_abs() as f64 / 100_000.0),
            },
        };
        let msg = ServerMsg::Event { node: NodeId(node), event };
        let decoded = decode_server(&encode_server(&msg));
        prop_assert_eq!(decoded.as_ref().ok(), Some(&msg));
    }

    /// A strict prefix of a valid message never decodes and never panics:
    /// the codec notices the truncation and reports a typed error.
    #[test]
    fn truncation_always_errors(seed in 0u64..u64::MAX, cut in 0usize..10_000) {
        let (bytes, decodes) = any_encoded(&mut Draws(seed));
        let cut = cut % bytes.len();
        prop_assert!(!decodes(&bytes[..cut]), "strict prefix of length {cut} decoded");
    }

    /// Arbitrary garbage bytes never panic either decoder; they produce
    /// `Ok` (if they happen to spell a message) or a typed error.
    #[test]
    fn garbage_never_panics(raw in prop::collection::vec(0u32..256, 0..64)) {
        let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
        let _ = decode_client(&bytes);
        let _ = decode_server(&bytes);
    }

    /// One flipped byte in a valid encoding never panics the decoder.
    #[test]
    fn bit_flips_never_panic(seed in 0u64..u64::MAX, at in 0usize..10_000, flip in 1u8..255) {
        let (mut bytes, _) = any_encoded(&mut Draws(seed));
        let at = at % bytes.len();
        bytes[at] ^= flip;
        let _ = decode_client(&bytes);
        let _ = decode_server(&bytes);
    }

    /// Solve results — reports with and without certificates, bounds,
    /// assignments and outgoing tuples — round-trip exactly.
    #[test]
    fn solve_ok_round_trips(seed in 0u64..u64::MAX) {
        let g = &mut Draws(seed);
        let msg = ServerMsg::SolveOk {
            reports: g.vec(4, |g| (g.node(), report(g))),
            dropped_events: g.next(),
        };
        let decoded = decode_server(&encode_server(&msg));
        prop_assert_eq!(decoded.as_ref().ok(), Some(&msg));
    }

    /// Stats snapshots round-trip exactly.
    #[test]
    fn stats_ok_round_trips(seed in 0u64..u64::MAX) {
        let msg = ServerMsg::StatsOk(snapshot(&mut Draws(seed)));
        let decoded = decode_server(&encode_server(&msg));
        prop_assert_eq!(decoded.as_ref().ok(), Some(&msg));
    }

    /// Frame transport round-trips arbitrary payloads and refuses
    /// oversized ones *before* allocating.
    #[test]
    fn frames_round_trip_and_cap(payload in prop::collection::vec(0u8..200, 0..300)) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("vec write");
        let mut cursor = &buf[..];
        let read = read_frame(&mut cursor, 1 << 20).expect("well-formed frame");
        prop_assert_eq!(read.as_deref(), Some(&payload[..]));

        // same bytes under a tiny cap: typed Oversized, not an allocation
        if payload.len() > 4 {
            let mut cursor = &buf[..];
            match read_frame(&mut cursor, 4) {
                Err(FrameError::Oversized { len, max }) => {
                    prop_assert_eq!(len as usize, payload.len());
                    prop_assert_eq!(max, 4);
                }
                other => prop_assert!(false, "expected Oversized, got {other:?}"),
            }
        }
    }
}

#[test]
fn clean_eof_is_none() {
    let empty: &[u8] = &[];
    let mut cursor = empty;
    assert!(matches!(read_frame(&mut cursor, 1024), Ok(None)));
}

#[test]
fn eof_inside_length_prefix_is_io_error() {
    let partial: &[u8] = &[3, 0];
    let mut cursor = partial;
    assert!(matches!(
        read_frame(&mut cursor, 1024),
        Err(FrameError::Io(_))
    ));
}
