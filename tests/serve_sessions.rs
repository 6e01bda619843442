//! Integration tests for the `cologne-serve` serving layer: concurrent
//! multi-tenant sessions, per-tenant isolation, admission control and
//! backpressure, per-tenant budgets, and the headline contract of the wire
//! protocol — a remote solve returns a `SolveResponse` byte-identical
//! (elapsed-normalized) to the same solve executed in-process.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::num::NonZeroU64;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use cologne::datalog::{NodeId, Value};
use cologne::net::Topology;
use cologne::solver::LnsConfig;
use cologne::{
    CologneError, CologneInstance, DeploymentBuilder, ProgramParams, SolveRequest, SolveResponse,
    SolverMode, VarDomain,
};
use cologne_serve::{
    decode_server, encode_client, read_frame, write_frame, Client, ClientError, ClientMsg,
    ErrorCode, IngestOp, ServeError, Server, ServerConfig, ServerMsg, TenantBudget, ACLOUD_DEMO,
    DEFAULT_MAX_FRAME,
};

/// Deterministic parameters for the demo program: node-limit-bounded, no
/// wall-clock budget, so a solve's report is byte-reproducible.
fn det_params() -> ProgramParams {
    ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(200_000))
}

fn det_config() -> ServerConfig {
    let mut cfg = ServerConfig::new(ACLOUD_DEMO);
    cfg.params = det_params();
    cfg
}

/// The facts of one tenant: `vms` VMs (sizes derived from the tenant id so
/// every tenant's optimum differs) over two 16-GB hosts.
fn tenant_facts(vms: u32) -> Vec<(&'static str, Vec<Value>)> {
    let mut facts = Vec::new();
    for vid in 0..vms {
        facts.push((
            "vm",
            vec![
                Value::Int(i64::from(vid)),
                Value::Int(i64::from(10 + 7 * (vid % 5))),
                Value::Int(2),
            ],
        ));
    }
    for hid in [100, 101] {
        facts.push(("host", vec![Value::Int(hid), Value::Int(0), Value::Int(0)]));
        facts.push(("hostMemThres", vec![Value::Int(hid), Value::Int(16)]));
    }
    facts
}

/// The same tenant workload executed in-process through the public
/// `Deployment::solve` entry point.
fn solve_in_process(
    params: ProgramParams,
    facts: &[(&'static str, Vec<Value>)],
    request: &SolveRequest,
) -> SolveResponse {
    let mut d = DeploymentBuilder::new(ACLOUD_DEMO)
        .params(params)
        .build()
        .expect("demo program compiles");
    for (rel, tuple) in facts {
        d.relation(rel)
            .expect("relation exists")
            .insert(tuple.clone())
            .expect("tuple matches schema");
    }
    d.solve(request).expect("in-process solve succeeds")
}

/// The same workload through the wire.
fn solve_remote(
    addr: std::net::SocketAddr,
    tenant: &str,
    facts: &[(&'static str, Vec<Value>)],
    request: &SolveRequest,
) -> SolveResponse {
    let mut client = Client::connect(addr).expect("connect");
    client.hello(tenant).expect("hello");
    for (rel, tuple) in facts {
        client
            .insert(NodeId(0), rel, tuple.clone())
            .expect("remote insert succeeds");
    }
    let response = client.solve(request).expect("remote solve succeeds");
    client.bye().expect("clean close");
    response
}

#[test]
fn remote_solve_is_byte_identical_to_in_process() {
    let server = Server::bind("127.0.0.1:0", det_config()).expect("bind");
    let request = SolveRequest::all().with_events(1024);
    let facts = tenant_facts(4);

    let remote = solve_remote(server.local_addr(), "t0", &facts, &request);
    let local = solve_in_process(det_params(), &facts, &request);

    assert!(remote.single().expect("one node").feasible);
    assert!(
        !remote.events.is_empty(),
        "events must stream over the wire"
    );
    assert_eq!(
        remote.normalized(),
        local.normalized(),
        "wire and in-process responses must be byte-identical modulo wall-clock"
    );
    assert_eq!(
        server.stats().events_streamed,
        remote.events.len() as u64,
        "the server streams every event, and the client keeps all of them"
    );
    server.shutdown();
}

#[test]
fn concurrent_tenants_are_isolated() {
    let server = Server::bind("127.0.0.1:0", det_config()).expect("bind");
    let addr = server.local_addr();
    let request = SolveRequest::all().with_events(256);

    // Eight tenants with different workloads solve concurrently; each must
    // get exactly the answer its own facts produce in isolation.
    let handles: Vec<_> = (0..8u32)
        .map(|i| {
            let request = request.clone();
            thread::spawn(move || {
                let facts = tenant_facts(2 + (i % 4));
                let remote = solve_remote(addr, &format!("tenant-{i}"), &facts, &request);
                (i, facts, remote)
            })
        })
        .collect();

    for handle in handles {
        let (i, facts, remote) = handle.join().expect("tenant thread");
        let local = solve_in_process(det_params(), &facts, &request);
        assert_eq!(
            remote.normalized(),
            local.normalized(),
            "tenant {i} must see only its own facts"
        );
        // the assignment table covers exactly this tenant's VMs × hosts
        let report = remote.single().expect("one node");
        assert_eq!(
            report.table("assign").len(),
            (2 + (i % 4)) as usize * 2,
            "tenant {i} assignment grid"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.accepted, 8);
    assert_eq!(stats.solves, 8);
    assert_eq!(stats.rejected_busy, 0);
    server.shutdown();
}

#[test]
fn admission_control_rejects_beyond_session_limit() {
    let mut cfg = det_config();
    cfg.max_sessions = 1;
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");

    let mut first = Client::connect(server.local_addr()).expect("first connect");
    first.hello("first").expect("first session admitted");

    // the second connection is refused with one typed Busy frame
    let mut second = Client::connect(server.local_addr()).expect("tcp connect still works");
    match second.hello("second") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected Busy, got {other:?}"),
    }

    // once the first session closes, a slot frees up
    first.bye().expect("clean close");
    for _ in 0..200 {
        let mut retry = Client::connect(server.local_addr()).expect("reconnect");
        if retry.hello("third").is_ok() {
            let busy = server.stats().rejected_busy;
            assert!(busy >= 1, "the refused connection must be counted");
            server.shutdown();
            return;
        }
        thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("slot never freed after the first session closed");
}

#[test]
fn full_solve_queue_reports_overloaded() {
    let mut cfg = det_config();
    // one worker, rendezvous queue: a solve is admitted only when the
    // worker is idle, so a second solve while the first runs is refused
    cfg.workers = 1;
    cfg.queue_depth = 0;
    // the busy solve's length is this node budget, not the solver's speed
    cfg.budget = TenantBudget {
        max_nodes: NonZeroU64::new(20_000),
        max_solve_time: None,
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    // 16 VMs over four hosts, too many for the exact search to prove
    // within the budget: the single worker stays busy after its first
    // incumbent streams out until the node budget stops it
    let mut facts = tenant_facts(16);
    for hid in [102, 103] {
        facts.push(("host", vec![Value::Int(hid), Value::Int(0), Value::Int(0)]));
        facts.push(("hostMemThres", vec![Value::Int(hid), Value::Int(16)]));
    }
    let request = SolveRequest::all().with_events(1024);
    let (started_tx, started_rx) = mpsc::channel();
    let solver_thread = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.hello("busy-tenant").expect("hello");
        for (rel, tuple) in &facts {
            client
                .insert(NodeId(0), rel, tuple.clone())
                .expect("insert");
        }
        let response = client
            .solve_streaming(&request, &mut |_, _| {
                let _ = started_tx.send(());
            })
            .expect("long solve succeeds");
        client.bye().expect("clean close");
        response
    });

    // first streamed event ⇒ the worker is mid-solve right now
    started_rx.recv().expect("solve must stream events");
    let mut other = Client::connect(addr).expect("connect second");
    other.hello("impatient").expect("hello");
    match other.solve(&SolveRequest::all()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    let response = solver_thread.join().expect("solver thread");
    let report = response.single().expect("one node");
    assert!(report.feasible);
    assert!(
        report.stats.limit_reached,
        "the busy solve must end on its node budget, not by proving its optimum"
    );
    assert!(server.stats().overloaded >= 1);
    server.shutdown();
}

/// Write one client frame on a raw socket.
fn raw_send(writer: &mut BufWriter<TcpStream>, msg: &ClientMsg) {
    write_frame(writer, &encode_client(msg)).expect("write frame");
    writer.flush().expect("flush frame");
}

/// Read one server frame from a raw socket.
fn raw_recv(reader: &mut BufReader<TcpStream>) -> ServerMsg {
    let payload = read_frame(reader, DEFAULT_MAX_FRAME)
        .expect("read frame")
        .expect("server frame");
    decode_server(&payload).expect("server frame decodes")
}

#[test]
fn disconnect_mid_solve_cancels_and_frees_the_slot() {
    let mut cfg = det_config();
    // one solve slot and no waiting room: another solve is admitted only
    // once the abandoned one has given its slot back
    cfg.workers = 1;
    cfg.queue_depth = 0;
    // 30 VMs over four hosts do not prove within this budget: uncancelled,
    // the search runs on for minutes after its first event (200 000 nodes
    // take ~30 s in a debug build), far past the deadline below
    cfg.params = det_params().with_solver_node_limit(Some(5_000_000));
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr();

    let mut facts = tenant_facts(30);
    for hid in [102, 103] {
        facts.push(("host", vec![Value::Int(hid), Value::Int(0), Value::Int(0)]));
        facts.push(("hostMemThres", vec![Value::Int(hid), Value::Int(64)]));
    }
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
    let mut writer = BufWriter::new(stream);
    let hello = ClientMsg::Hello {
        tenant: "leaver".into(),
    };
    raw_send(&mut writer, &hello);
    assert!(matches!(raw_recv(&mut reader), ServerMsg::HelloOk { .. }));
    for (relation, tuple) in facts {
        let ingest = ClientMsg::Ingest {
            node: NodeId(0),
            relation: relation.into(),
            ops: vec![IngestOp::insert(tuple)],
            sync: false,
        };
        raw_send(&mut writer, &ingest);
        assert_eq!(raw_recv(&mut reader), ServerMsg::IngestOk { applied: 1 });
    }
    let solve = ClientMsg::Solve(SolveRequest::all().with_events(1024));
    raw_send(&mut writer, &solve);
    assert!(
        matches!(raw_recv(&mut reader), ServerMsg::Event { .. }),
        "the solve streams its first event"
    );
    // hang up mid-stream, without reading the rest
    drop((reader, writer));

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut next = Client::connect(addr).expect("connect next");
    next.hello("next").expect("hello");
    loop {
        match next.solve(&SolveRequest::all()) {
            Ok(_) => break,
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => {
                assert!(
                    Instant::now() < deadline,
                    "the abandoned solve still holds the only slot"
                );
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("expected the next solve to run, got {e:?}"),
        }
    }
    assert_eq!(server.stats().disconnect_cancels, 1);
    next.bye().expect("clean close");
    server.shutdown();
}

#[test]
fn tenant_budget_caps_search_effort() {
    let mut cfg = det_config();
    cfg.budget = TenantBudget {
        max_nodes: NonZeroU64::new(50),
        max_solve_time: None,
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");

    let facts = tenant_facts(8);
    let request = SolveRequest::all();
    let remote = solve_remote(server.local_addr(), "capped", &facts, &request);
    let report = remote.single().expect("one node");
    assert!(
        report.stats.nodes <= 50,
        "the tenant budget must cap search nodes, got {}",
        report.stats.nodes
    );

    // the budget clamp is itself deterministic: in-process with the same
    // clamped parameters gives the identical truncated search
    let mut params = det_params();
    params.clamp_solver_budget(Some(50), None);
    let local = solve_in_process(params, &facts, &request);
    assert_eq!(remote.normalized(), local.normalized());
    server.shutdown();
}

#[test]
fn schema_errors_surface_as_typed_frames_and_session_survives() {
    let server = Server::bind("127.0.0.1:0", det_config()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.hello("t").expect("hello");

    // unknown relation → typed error frame, session stays usable
    match client.insert(NodeId(0), "vmm", vec![Value::Int(1)]) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::UnknownRelation);
            assert!(message.contains("vm"), "did-you-mean detail: {message}");
        }
        other => panic!("expected UnknownRelation, got {other:?}"),
    }

    // schema mismatch (wrong arity) → typed error frame
    match client.insert(NodeId(0), "vm", vec![Value::Int(1)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SchemaMismatch),
        other => panic!("expected SchemaMismatch, got {other:?}"),
    }

    // the session still works end to end after both rejections
    for (rel, tuple) in tenant_facts(2) {
        client.insert(NodeId(0), rel, tuple).expect("valid insert");
    }
    let response = client.solve(&SolveRequest::all()).expect("solve succeeds");
    assert!(response.single().expect("one node").feasible);
    client.bye().expect("clean close");
    server.shutdown();
}

/// Solver knobs that would misbehave at solve time are rejected as
/// `InvalidConfig` wherever parameters enter: a bare instance, the
/// deployment builder and the server's bind-time check.
#[test]
fn invalid_solver_params_are_rejected_on_every_construction_path() {
    let lns = |tweak: fn(&mut LnsConfig)| {
        let mut config = LnsConfig::default();
        tweak(&mut config);
        det_params().with_solver_mode(SolverMode::Lns(config))
    };
    let cases = [
        ("destroy_fraction 0", lns(|c| c.destroy_fraction = 0.0)),
        (
            "destroy_fraction NaN",
            lns(|c| c.destroy_fraction = f64::NAN),
        ),
        ("repair_growth < 1", lns(|c| c.repair_growth = 0.5)),
        ("dive_node_limit 0", lns(|c| c.dive_node_limit = 0)),
        (
            "gap_limit NaN",
            det_params().with_solver_gap_limit(Some(f64::NAN)),
        ),
        (
            "gap_limit < 0",
            det_params().with_solver_gap_limit(Some(-0.1)),
        ),
        (
            "split_threshold < 2",
            det_params().with_solver_split_threshold(Some(1)),
        ),
    ];
    for (what, params) in cases {
        assert!(
            matches!(
                CologneInstance::new(NodeId(0), ACLOUD_DEMO, params.clone()),
                Err(CologneError::InvalidConfig(_))
            ),
            "{what}: CologneInstance::new"
        );
        assert!(
            matches!(
                DeploymentBuilder::new(ACLOUD_DEMO)
                    .params(params.clone())
                    .build(),
                Err(CologneError::InvalidConfig(_))
            ),
            "{what}: DeploymentBuilder::build"
        );
        let mut cfg = ServerConfig::new(ACLOUD_DEMO);
        cfg.params = params;
        assert!(
            matches!(
                Server::bind("127.0.0.1:0", cfg),
                Err(ServeError::Config(CologneError::InvalidConfig(_)))
            ),
            "{what}: Server::bind"
        );
    }
    // the same parameters without a bad knob are accepted
    assert!(CologneInstance::new(NodeId(0), ACLOUD_DEMO, det_params()).is_ok());
}

/// `Server::bind` compiles the program once and builds one deployment from
/// it, so a program that does not compile, a regular rule reading a
/// constant the parameters lack, and an empty topology all fail at bind.
#[test]
fn broken_programs_and_topologies_are_rejected_at_bind() {
    let unparsable = ServerConfig {
        program: "goal bogus".into(),
        ..det_config()
    };
    let missing_constant = ServerConfig {
        program: format!("{ACLOUD_DEMO} r9 bigVm(Vid) <- vm(Vid,Cpu,Mem), Cpu>cpu_cap."),
        ..det_config()
    };
    let empty_topology = ServerConfig {
        topology: Some(Topology::new()),
        ..det_config()
    };
    let bind = |cfg| Server::bind("127.0.0.1:0", cfg).map(|_| ());
    assert!(
        matches!(
            bind(unparsable),
            Err(ServeError::Config(CologneError::Parse(_)))
        ),
        "unparsable program"
    );
    assert!(
        matches!(
            bind(missing_constant),
            Err(ServeError::Config(CologneError::MissingParameter(p))) if p == "cpu_cap"
        ),
        "regular rule reading an absent constant"
    );
    assert!(
        matches!(
            bind(empty_topology),
            Err(ServeError::Config(CologneError::InvalidConfig(_)))
        ),
        "empty topology"
    );
}
