//! Golden bytes for PROTOCOL v2.
//!
//! One fully populated instance of every client and server message (and of
//! every solve-event kind) is encoded and compared with fixed hex, then the
//! fixed hex is decoded back to the message. The round-trip tests cannot
//! catch an encoder and decoder that change a layout together; this test
//! does. A deliberate layout change bumps `PROTOCOL_VERSION` and records
//! new hex here.

use std::collections::BTreeMap;

use cologne::datalog::{EngineStats, NodeId, RemoteTuple, SymId, Value, F64};
use cologne::solver::SearchStats;
use cologne::{
    BoundCertificate, DeliveryStats, EventOptions, NodeStats, PipelineStats, SolveEvent,
    SolveReport, SolveRequest, StatsSnapshot,
};
use cologne_serve::{
    decode_client, decode_server, encode_client, encode_server, ClientMsg, ErrorCode, IngestOp,
    ServerMsg, PROTOCOL_VERSION,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("golden hex"))
        .collect()
}

/// Compare every encoding with its golden hex, listing all mismatches at
/// once so a deliberate re-recording is one copy.
fn check<M: PartialEq + std::fmt::Debug>(
    cases: &[(&str, M, &str)],
    encode: fn(&M) -> Vec<u8>,
    decode: fn(&[u8]) -> Result<M, cologne_serve::WireError>,
) {
    let mut mismatches = Vec::new();
    for (name, msg, golden) in cases {
        let bytes = encode(msg);
        if hex(&bytes) != *golden {
            mismatches.push(format!("{name}: {}", hex(&bytes)));
            continue;
        }
        assert_eq!(decode(&unhex(golden)).as_ref(), Ok(msg), "{name} decodes");
    }
    assert!(
        mismatches.is_empty(),
        "encodings differ from the golden bytes:\n{}",
        mismatches.join("\n")
    );
}

fn search_stats(seed: u64, bound: bool) -> SearchStats {
    SearchStats {
        nodes: seed + 1,
        fails: seed + 2,
        propagations: seed + 3,
        prunings: seed + 4,
        solutions: seed + 5,
        max_depth: seed + 6,
        lns_iterations: seed + 7,
        lns_improvements: seed + 8,
        elapsed_micros: seed + 9,
        limit_reached: true,
        cancelled: false,
        warm_start: true,
        parallel_workers: seed + 10,
        subtrees: seed + 11,
        portfolio_rounds: seed + 12,
        dual_bound: bound.then_some(-(seed as i64) - 13),
        gap: bound.then_some(0.375),
    }
}

fn report_with_certificate() -> SolveReport {
    let mut assignments = BTreeMap::new();
    assignments.insert(
        "assign".to_string(),
        vec![
            vec![Value::Int(-1), Value::Sym(SymId(9)), Value::Bool(true)],
            vec![Value::Float(F64(2.5)), Value::Str("h\u{e9}".into())],
        ],
    );
    assignments.insert("empty".to_string(), vec![]);
    SolveReport {
        feasible: true,
        trivial: false,
        objective: Some(-3),
        proven_optimal: true,
        stats: search_stats(100, true),
        certificate: Some(BoundCertificate {
            engine: "linear_relaxation".into(),
            dual_bound: -5,
            binding: vec!["LinearEq#0 (objective)".into(), "LinearEq#2".into()],
        }),
        assignments,
        outgoing: vec![RemoteTuple {
            dest: NodeId(2),
            relation: "pong".into(),
            tuple: vec![Value::Addr(NodeId(2)), Value::Bool(false)],
            insert: true,
        }],
    }
}

fn report_without_certificate() -> SolveReport {
    SolveReport {
        feasible: false,
        trivial: true,
        objective: None,
        proven_optimal: false,
        stats: search_stats(200, false),
        certificate: None,
        assignments: BTreeMap::new(),
        outgoing: vec![],
    }
}

fn node_stats(node: u32, last: bool) -> NodeStats {
    let seed = u64::from(node) * 100;
    NodeStats {
        node: NodeId(node),
        solver_invocations: seed + 1,
        pipeline: PipelineStats {
            plan_builds: seed + 2,
            full_rebuilds: seed + 3,
            incremental_builds: seed + 4,
        },
        engine: EngineStats {
            external_deltas: seed + 5,
            derivations: seed + 6,
            updates: seed + 7,
            remote_sends: seed + 8,
            aggregate_recomputes: seed + 9,
            unknown_relation_inserts: seed + 10,
        },
        search_total: search_stats(seed + 20, true),
        last_search: last.then(|| search_stats(seed + 40, false)),
    }
}

fn snapshot() -> StatsSnapshot {
    StatsSnapshot {
        nodes: vec![node_stats(1, true), node_stats(2, false)],
        delivery: DeliveryStats {
            data_packets_sent: 31,
            retransmits: 32,
            acks_sent: 33,
            duplicates_dropped: 34,
            stale_epoch_dropped: 35,
            out_of_order_buffered: 36,
            crashes: 37,
            rejoins: 38,
            resync_tuples: 39,
        },
        rejected_remote_tuples: 40,
    }
}

fn event(node: u32, event: SolveEvent) -> ServerMsg {
    ServerMsg::Event {
        node: NodeId(node),
        event,
    }
}

#[test]
fn protocol_version_is_two() {
    assert_eq!(PROTOCOL_VERSION, 2);
}

#[test]
fn client_messages_match_golden_bytes() {
    let cases = [
        (
            "hello",
            ClientMsg::Hello {
                tenant: "acme".into(),
            },
            "02010400000061636d65",
        ),
        (
            "ingest",
            ClientMsg::Ingest {
                node: NodeId(3),
                relation: "vm".into(),
                ops: vec![
                    IngestOp::insert(vec![
                        Value::Int(7),
                        Value::Float(F64(-0.5)),
                        Value::Str("x".into()),
                        Value::Addr(NodeId(4)),
                        Value::Bool(true),
                        Value::Sym(SymId(5)),
                    ]),
                    IngestOp::delete(vec![]),
                ],
                sync: true,
            },
            "02020300000002000000766d0200000001060000000007000000000000000100\
             0000000000e0bf020100000078030400000004010505000000000000000001",
        ),
        (
            "solve_all",
            ClientMsg::Solve(SolveRequest::all()),
            "0203000000",
        ),
        (
            "solve_node_events",
            ClientMsg::Solve(
                SolveRequest::at(NodeId(6))
                    .with_events(64)
                    .cancel_after_incumbents(2),
            ),
            "0203010600000000014000000000000000010200000000000000",
        ),
        (
            "solve_parallel",
            ClientMsg::Solve(SolveRequest::all().parallel()),
            "0203000100",
        ),
        (
            "subscribe_some",
            ClientMsg::Subscribe(Some(EventOptions::buffered(16))),
            "020401100000000000000000",
        ),
        ("subscribe_none", ClientMsg::Subscribe(None), "020400"),
        ("stats", ClientMsg::Stats, "0205"),
        (
            "tick",
            ClientMsg::Tick { micros: 5_000_000 },
            "0206404b4c0000000000",
        ),
        ("bye", ClientMsg::Bye, "0207"),
    ];
    check(&cases, encode_client, decode_client);
}

#[test]
fn server_messages_match_golden_bytes() {
    let cases = [
        (
            "hello_ok",
            ServerMsg::HelloOk { session: 77 },
            "02814d00000000000000",
        ),
        (
            "ingest_ok",
            ServerMsg::IngestOk { applied: 3 },
            "028203000000",
        ),
        (
            "event_incumbent",
            event(
                0,
                SolveEvent::Incumbent {
                    objective: Some(12),
                },
            ),
            "02830000000000010c00000000000000",
        ),
        (
            "event_incumbent_none",
            event(0, SolveEvent::Incumbent { objective: None }),
            "0283000000000000",
        ),
        (
            "event_restart",
            event(
                1,
                SolveEvent::Restart {
                    restarts: 4,
                    next_budget: 800,
                },
            ),
            "0283010000000104000000000000002003000000000000",
        ),
        (
            "event_lns_iteration",
            event(
                2,
                SolveEvent::LnsIteration {
                    iteration: 3,
                    improved: true,
                    best_objective: Some(-9),
                },
            ),
            "0283020000000203000000000000000101f7ffffffffffffff",
        ),
        (
            "event_node_budget",
            event(
                3,
                SolveEvent::NodeBudget {
                    nodes: 5000,
                    fails: 17,
                },
            ),
            "0283030000000388130000000000001100000000000000",
        ),
        (
            "event_progress",
            event(
                4,
                SolveEvent::Progress {
                    nodes: 64,
                    fails: 8,
                    solutions: 1,
                    dual_bound: Some(17),
                    gap: Some(0.0625),
                },
            ),
            "0283040000000440000000000000000800000000000000010000000000000001\
             110000000000000001000000000000b03f",
        ),
        (
            "event_progress_none",
            event(
                4,
                SolveEvent::Progress {
                    nodes: 1,
                    fails: 0,
                    solutions: 0,
                    dual_bound: None,
                    gap: None,
                },
            ),
            "0283040000000401000000000000000000000000000000000000000000000000\
             00",
        ),
        (
            "solve_ok",
            ServerMsg::SolveOk {
                reports: vec![
                    (NodeId(0), report_with_certificate()),
                    (NodeId(1), report_without_certificate()),
                ],
                dropped_events: 2,
            },
            "02840200000000000000010001fdffffffffffffff0165000000000000006600\
             0000000000006700000000000000680000000000000069000000000000006a00\
             0000000000006b000000000000006c000000000000006d000000000000000100\
             016e000000000000006f000000000000007000000000000000018fffffffffff\
             ffff01000000000000d83f01110000006c696e6561725f72656c61786174696f\
             6efbffffffffffffff02000000160000004c696e6561724571233020286f626a\
             656374697665290a0000004c696e656172457123320200000006000000617373\
             69676e020000000300000000ffffffffffffffff050900000004010200000001\
             0000000000000440020300000068c3a905000000656d70747900000000010000\
             000200000004000000706f6e6702000000030200000004000101000000000100\
             00c900000000000000ca00000000000000cb00000000000000cc000000000000\
             00cd00000000000000ce00000000000000cf00000000000000d0000000000000\
             00d100000000000000010001d200000000000000d300000000000000d4000000\
             0000000000000000000000000000000200000000000000",
        ),
        (
            "stats_ok",
            ServerMsg::StatsOk(snapshot()),
            "0285020000000100000065000000000000006600000000000000670000000000\
             0000680000000000000069000000000000006a000000000000006b0000000000\
             00006c000000000000006d000000000000006e00000000000000790000000000\
             00007a000000000000007b000000000000007c000000000000007d0000000000\
             00007e000000000000007f000000000000008000000000000000810000000000\
             0000010001820000000000000083000000000000008400000000000000017bff\
             ffffffffffff01000000000000d83f018d000000000000008e00000000000000\
             8f00000000000000900000000000000091000000000000009200000000000000\
             9300000000000000940000000000000095000000000000000100019600000000\
             00000097000000000000009800000000000000000002000000c9000000000000\
             00ca00000000000000cb00000000000000cc00000000000000cd000000000000\
             00ce00000000000000cf00000000000000d000000000000000d1000000000000\
             00d200000000000000dd00000000000000de00000000000000df000000000000\
             00e000000000000000e100000000000000e200000000000000e3000000000000\
             00e400000000000000e500000000000000010001e600000000000000e7000000\
             00000000e8000000000000000117ffffffffffffff01000000000000d83f001f\
             0000000000000020000000000000002100000000000000220000000000000023\
             0000000000000024000000000000002500000000000000260000000000000027\
             000000000000002800000000000000",
        ),
        (
            "tick_ok",
            ServerMsg::TickOk { handled: 9 },
            "02860900000000000000",
        ),
        ("subscribe_ok", ServerMsg::SubscribeOk, "0289"),
        (
            "error",
            ServerMsg::Error {
                code: ErrorCode::SchemaMismatch,
                message: "arity 2 != 3".into(),
            },
            "0287060c0000006172697479203220213d2033",
        ),
        ("bye_ok", ServerMsg::ByeOk, "0288"),
    ];
    check(&cases, encode_server, decode_server);
}
