//! `serve_steady` and `serve_sessions`: one in-process `cologne-serve` server
//! with the default limits, and one closed-loop client per core over loopback
//! TCP. Tenants are tiny on purpose (4 VMs on 2 hosts), so the wire, the
//! sockets and the session-to-worker handoff — not the solver — own the
//! operation. `serve_steady` changes one VM and re-solves on a warm session;
//! `serve_sessions` opens a fresh tenant for every operation.

use std::net::SocketAddr;
use std::time::Instant;

use cologne::datalog::NodeId;
use cologne::{
    Deployment, DeploymentBuilder, ProgramParams, SolveRequest, SolveResponse, StatsSnapshot,
    VarDomain,
};
use cologne_serve::{
    decode_client, decode_server, encode_client, encode_server, Client, ClientError, ClientMsg,
    ErrorCode, IngestOp, Server, ServerConfig, ServerMsg, ACLOUD_DEMO,
};

use super::acloud::record_solve;
use super::{record_engine, record_pipeline, trace_compile, warmup_ops, Round, Workload};
use crate::fixtures::{Cloud, Rng};
use crate::trace::{span_if, Trace};

/// One answer in this many is also compared with an in-process deployment's.
const TWIN_CHECK_EVERY: u64 = 50;

const NODE: NodeId = NodeId(0);

pub struct Serve {
    fresh_sessions: bool,
    seed: u64,
    /// Operations per client and round.
    ops: usize,
    state: Option<State>,
}

struct State {
    server: Server,
    tenants: Vec<Tenant>,
    epoch: Instant,
}

/// One load-generator thread's side of the conversation.
struct Tenant {
    rng: Rng,
    addr: SocketAddr,
    op_index: u64,
    /// The warm session and the benchmark's copy of its facts
    /// (`serve_steady` only; `serve_sessions` draws both per operation).
    session: Option<(Client, Cloud)>,
    /// In-process deployment fed the same operations (traced rounds).
    twin: Option<Deployment>,
}

fn params() -> ProgramParams {
    ProgramParams::new()
        .with_var_domain("assign", VarDomain::BOOL)
        .with_solver_max_time(None)
        .with_solver_node_limit(Some(100_000))
}

fn in_process() -> Deployment {
    DeploymentBuilder::new(ACLOUD_DEMO)
        .params(params())
        .build()
        .expect("demo program compiles")
}

fn load_twin(twin: &mut Deployment, cloud: &Cloud) {
    for (relation, tuple) in cloud.base_facts() {
        twin.handle(NODE, relation)
            .expect("demo relation")
            .insert(tuple)
            .expect("fact matches the schema");
    }
}

/// Load generator threads and connections: one per core.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
}

/// Encode and decode the operation's own frames, as spans beside the
/// operation, and count their bytes (4-byte length prefix included).
fn trace_wire(trace: &mut Trace, round: &mut Round, sent: &[ClientMsg], received: &[ServerMsg]) {
    let out: Vec<Vec<u8>> = trace.span("wire.encode", || sent.iter().map(encode_client).collect());
    trace.span("wire.decode", || {
        for bytes in &out {
            std::hint::black_box(decode_client(bytes).expect("own frame decodes"));
        }
    });
    let back: Vec<Vec<u8>> = trace.span("wire.encode", || {
        received.iter().map(encode_server).collect()
    });
    trace.span("wire.decode", || {
        for bytes in &back {
            std::hint::black_box(decode_server(bytes).expect("own frame decodes"));
        }
    });
    round.add(
        "wire.bytes_out",
        out.iter().map(|b| b.len() + 4).sum::<usize>() as f64,
    );
    round.add(
        "wire.bytes_in",
        back.iter().map(|b| b.len() + 4).sum::<usize>() as f64,
    );
}

fn solve_ok(response: &SolveResponse) -> ServerMsg {
    ServerMsg::SolveOk {
        reports: response.reports.clone().into_iter().collect(),
        dropped_events: response.dropped_events,
    }
}

/// Engine and grounding counters of a twin since `before`.
fn record_twin(round: &mut Round, after: &StatsSnapshot, before: Option<&StatsSnapshot>) {
    let (now, then) = (&after.nodes[0], before.map(|b| &b.nodes[0]));
    record_engine(round, &now.engine, then.map(|t| &t.engine));
    record_pipeline(round, now.pipeline, then.map(|t| t.pipeline));
}

/// Close the books on one operation: its latency counts whether it was
/// answered or refused; a refusal is a failed operation, any other error a
/// broken run.
fn settle<T>(round: &mut Round, ns: u64, answer: Result<T, ClientError>) -> Option<T> {
    round.op_done(ns);
    match answer {
        Ok(answer) => Some(answer),
        Err(ClientError::Server {
            code: ErrorCode::Overloaded | ErrorCode::Busy,
            ..
        }) => {
            round.failed += 1;
            None
        }
        Err(e) => panic!("serve operation failed: {e}"),
    }
}

/// Open the `op` span of the next operation when tracing is on.
fn begin_op(trace: &mut Option<&mut Trace>) -> Option<usize> {
    trace.as_deref_mut().map(|trace| {
        trace.next_op();
        trace.enter("op")
    })
}

fn end_op(trace: &mut Option<&mut Trace>, op: Option<usize>) {
    if let (Some(trace), Some(op)) = (trace.as_deref_mut(), op) {
        trace.exit(op);
    }
}

/// `Client::solve`, when tracing as a `client.solve` span with the search's
/// own clock nested in it.
fn traced_solve(
    trace: &mut Option<&mut Trace>,
    client: &mut Client,
    request: &SolveRequest,
) -> Result<SolveResponse, ClientError> {
    let Some(trace) = trace.as_deref_mut() else {
        return client.solve(request);
    };
    let span = trace.enter("client.solve");
    let response = client.solve(request);
    trace.exit(span);
    if let Some(report) = response.as_ref().ok().and_then(|r| r.single()) {
        trace.nest(span, "search", report.stats.elapsed_micros * 1000);
    }
    response
}

impl Tenant {
    /// Count one answer and check it against the benchmark's copy of the
    /// facts; `twin` is the in-process answer to the same operation.
    fn account(
        &mut self,
        round: &mut Round,
        cloud: &Cloud,
        response: &SolveResponse,
        twin: Option<&SolveResponse>,
    ) {
        self.op_index += 1;
        let Some(report) = response
            .single()
            .filter(|r| r.feasible && !r.trivial && r.objective.is_some())
        else {
            round.failed += 1;
            return;
        };
        record_solve(round, report);
        round.check("placement", cloud.verify(report));
        if self.op_index % TWIN_CHECK_EVERY != 1 {
            return;
        }
        match twin {
            // fed the same history, the two must agree to the byte
            Some(twin) => {
                if twin.normalized() != response.normalized() {
                    round
                        .errors
                        .push("served answer differs from the in-process twin's".into());
                }
            }
            // a cold deployment proves the same optimum
            None => {
                let mut cold = in_process();
                load_twin(&mut cold, cloud);
                let cold = cold.solve(&SolveRequest::all()).expect("cold twin solves");
                let cold = cold.single().expect("one node");
                if cold.proven_optimal
                    && report.proven_optimal
                    && cold.objective != report.objective
                {
                    round.errors.push(format!(
                        "served objective {:?} differs from a cold deployment's {:?}",
                        report.objective, cold.objective
                    ));
                }
            }
        }
    }

    /// `serve_steady`: one VM's cpu changes, then solve, on the warm session.
    fn steady_op(&mut self, round: &mut Round, mut trace: Option<&mut Trace>) {
        let (mut client, mut cloud) = self.session.take().expect("warm session");
        let vm = self.rng.index(cloud.vms.len());
        let (old, new) = cloud.set_cpu(vm, self.rng.range(10, 81));
        let ops = vec![IngestOp::delete(old), IngestOp::insert(new)];
        let request = SolveRequest::all();

        let t = Instant::now();
        let op = begin_op(&mut trace);
        let response = span_if(&mut trace, "client.ingest", || {
            client.ingest(NODE, "vm", ops.clone(), false)
        })
        .and_then(|_| traced_solve(&mut trace, &mut client, &request));
        end_op(&mut trace, op);
        let ns = t.elapsed().as_nanos() as u64;
        if let Some(response) = settle(round, ns, response) {
            let twin = trace.map(|trace| {
                let twin = self.twin.as_mut().expect("traced setup ran");
                let answer = trace.span("server.inproc", || {
                    let mut vm = twin.handle(NODE, "vm").expect("vm is in the schema");
                    for op in &ops {
                        let tuple = op.tuple.clone();
                        if op.insert {
                            vm.insert(tuple).expect("row matches the schema");
                        } else {
                            vm.delete(tuple).expect("row matches the schema");
                        }
                    }
                    twin.solve(&request).expect("twin solves")
                });
                let sent = [
                    ClientMsg::Ingest {
                        node: NODE,
                        relation: "vm".into(),
                        ops: ops.clone(),
                        sync: false,
                    },
                    ClientMsg::Solve(request.clone()),
                ];
                let received = [ServerMsg::IngestOk { applied: 2 }, solve_ok(&response)];
                trace_wire(trace, round, &sent, &received);
                trace_compile(trace, ACLOUD_DEMO);
                answer
            });
            self.account(round, &cloud, &response, twin.as_ref());
        }
        self.session = Some((client, cloud));
    }

    /// `serve_sessions`: a fresh tenant connects, says hello, inserts its
    /// base facts one by one, solves once and leaves.
    fn session_op(&mut self, round: &mut Round, mut trace: Option<&mut Trace>) {
        let cloud = Cloud::generate(&mut self.rng, 4, 2, (10, 81));
        let facts = cloud.base_facts();
        let request = SolveRequest::all();
        let addr = self.addr;

        let t = Instant::now();
        let op = begin_op(&mut trace);
        let answer = (|| {
            let mut client = span_if(&mut trace, "client.connect", || Client::connect(addr))?;
            let session = span_if(&mut trace, "client.hello", || client.hello("tenant"))?;
            span_if(&mut trace, "client.ingest", || {
                facts
                    .iter()
                    .try_for_each(|(relation, tuple)| client.insert(NODE, relation, tuple.clone()))
            })?;
            let response = traced_solve(&mut trace, &mut client, &request)?;
            span_if(&mut trace, "client.bye", || client.bye())?;
            Ok((response, session))
        })();
        end_op(&mut trace, op);
        let ns = t.elapsed().as_nanos() as u64;

        if let Some((response, session)) = settle(round, ns, answer) {
            let twin = trace.map(|trace| {
                let (answer, stats) = trace.span("server.inproc", || {
                    let mut twin = in_process();
                    load_twin(&mut twin, &cloud);
                    let answer = twin.solve(&request).expect("twin solves");
                    (answer, twin.stats())
                });
                record_twin(round, &stats, None);
                let mut sent = vec![ClientMsg::Hello {
                    tenant: "tenant".into(),
                }];
                let mut received = vec![ServerMsg::HelloOk { session }];
                for (relation, tuple) in &facts {
                    sent.push(ClientMsg::Ingest {
                        node: NODE,
                        relation: relation.to_string(),
                        ops: vec![IngestOp::insert(tuple.clone())],
                        sync: false,
                    });
                    received.push(ServerMsg::IngestOk { applied: 1 });
                }
                sent.extend([ClientMsg::Solve(request.clone()), ClientMsg::Bye]);
                received.extend([solve_ok(&response), ServerMsg::ByeOk]);
                trace_wire(trace, round, &sent, &received);
                trace_compile(trace, ACLOUD_DEMO);
                answer
            });
            self.account(round, &cloud, &response, twin.as_ref());
        }
    }
}

impl Serve {
    pub fn steady(seed: u64, ops: usize) -> Self {
        Serve {
            fresh_sessions: false,
            seed,
            ops,
            state: None,
        }
    }

    pub fn sessions(seed: u64, ops: usize) -> Self {
        Serve {
            fresh_sessions: true,
            seed,
            ops,
            state: None,
        }
    }

    /// Every tenant runs `ops` operations on its own thread; the round is
    /// their union, its wall time the slowest tenant's.
    fn drive(&self, st: &mut State, ops: usize, traced: bool) -> (Round, Trace) {
        let fresh_sessions = self.fresh_sessions;
        let epoch = st.epoch;
        let parts: Vec<(Round, Trace)> = std::thread::scope(|scope| {
            let threads: Vec<_> = st
                .tenants
                .iter_mut()
                .enumerate()
                .map(|(c, tenant)| {
                    scope.spawn(move || {
                        let mut round = Round::default();
                        let mut trace = Trace::new(epoch).numbered_from((c as u64 + 1) << 32);
                        for _ in 0..ops {
                            let trace = traced.then_some(&mut trace);
                            if fresh_sessions {
                                tenant.session_op(&mut round, trace);
                            } else {
                                tenant.steady_op(&mut round, trace);
                            }
                        }
                        (round, trace)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("load generator thread"))
                .collect()
        });
        let mut round = Round::default();
        let mut trace = Trace::new(epoch);
        for (part, spans) in parts {
            round.op_ns.extend(part.op_ns);
            round.wall_ns = round.wall_ns.max(part.wall_ns);
            round.failed += part.failed;
            round.errors.extend(part.errors);
            for (name, value) in part.counts {
                round.add(name, value);
            }
            trace.absorb(spans);
        }
        (round, trace)
    }

    fn measure(&mut self, traced: bool) -> (Round, Trace) {
        let mut st = self.state.take().expect("setup ran");
        let server_before = st.server.stats();
        let twins_before: Vec<Option<StatsSnapshot>> = st
            .tenants
            .iter()
            .map(|t| t.twin.as_ref().map(Deployment::stats))
            .collect();
        let (mut round, trace) = self.drive(&mut st, self.ops, traced);
        let server = st.server.stats();
        round.add(
            "server.solves",
            (server.solves - server_before.solves) as f64,
        );
        round.add(
            "server.ingest_ops",
            (server.ingest_ops - server_before.ingest_ops) as f64,
        );
        round.add(
            "server.accepted",
            (server.accepted - server_before.accepted) as f64,
        );
        round.add(
            "server.overloaded",
            (server.overloaded - server_before.overloaded) as f64,
        );
        round.add(
            "server.rejected_busy",
            (server.rejected_busy - server_before.rejected_busy) as f64,
        );
        for (tenant, before) in st.tenants.iter_mut().zip(&twins_before) {
            if let (Some(twin), false) = (&tenant.twin, self.fresh_sessions) {
                record_twin(&mut round, &twin.stats(), before.as_ref());
            }
            if let Some((client, _)) = tenant.session.take() {
                client.bye().expect("session closes");
            }
        }
        st.server.shutdown();
        (round, trace)
    }
}

impl Workload for Serve {
    fn setup(&mut self, round: u64, traced: bool) {
        assert!(self.state.is_none(), "the previous round was measured");
        let server =
            Server::bind("127.0.0.1:0", server_config()).expect("server binds on loopback");
        let addr = server.local_addr();
        let tenants = (0..clients() as u64)
            .map(|c| {
                let mut rng = Rng::new(self.seed, round * 1024 + c);
                let mut twin = (traced && !self.fresh_sessions).then(in_process);
                let session = (!self.fresh_sessions).then(|| {
                    let cloud = Cloud::generate(&mut rng, 4, 2, (10, 81));
                    let mut client = Client::connect(addr).expect("client connects");
                    client.hello(&format!("tenant-{c}")).expect("hello");
                    for (relation, tuple) in cloud.base_facts() {
                        client.insert(NODE, relation, tuple).expect("insert");
                    }
                    client
                        .solve(&SolveRequest::all())
                        .expect("first cold solve");
                    if let Some(twin) = &mut twin {
                        load_twin(twin, &cloud);
                        twin.solve(&SolveRequest::all()).expect("twin solves");
                    }
                    (client, cloud)
                });
                Tenant {
                    rng,
                    addr,
                    op_index: 0,
                    session,
                    twin,
                }
            })
            .collect();
        let mut st = State {
            server,
            tenants,
            epoch: Instant::now(),
        };
        let (warm, _) = self.drive(&mut st, warmup_ops(self.ops), traced);
        assert!(
            warm.errors.is_empty() && warm.failed == 0,
            "warm-up failed: {:?}",
            warm.errors
        );
        for tenant in &mut st.tenants {
            tenant.op_index = 0;
        }
        self.state = Some(st);
    }

    fn run(&mut self) -> Round {
        self.measure(false).0
    }

    fn run_traced(&mut self, trace: &mut Trace) -> Round {
        let (round, spans) = self.measure(true);
        trace.absorb(spans);
        round
    }
}

fn server_config() -> ServerConfig {
    let mut cfg = ServerConfig::new(ACLOUD_DEMO);
    cfg.params = params();
    cfg
}
