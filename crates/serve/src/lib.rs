//! # cologne-serve
//!
//! The serving layer: a multi-tenant TCP server and client library on top
//! of the [`cologne::Deployment`] API, speaking a length-prefixed binary
//! protocol (see `docs/PROTOCOL.md` at the repository root).
//!
//! The same typed [`cologne::SolveRequest`] → [`cologne::SolveResponse`]
//! pair drives solves in-process and over the wire; for deterministic
//! (node-limit-bounded) searches a remote solve returns a response
//! byte-identical — elapsed-normalized — to the in-process one.
//!
//! The [`Server`] runs each session on a thread of its own, and a
//! session's solves on that same thread, under one server-wide solve gate
//! ([`ServerConfig::workers`] running, [`ServerConfig::queue_depth`]
//! waiting); see [`server`] for the architecture.
//!
//! ```no_run
//! use cologne_serve::{Client, Server, ServerConfig, ACLOUD_DEMO};
//! use cologne::SolveRequest;
//! use cologne::datalog::{NodeId, Value};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::new(ACLOUD_DEMO)).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.hello("tenant-a").unwrap();
//! client.insert(NodeId(0), "vm", vec![Value::Int(1), Value::Int(40), Value::Int(2)]).unwrap();
//! // ... more facts ...
//! let response = client.solve(&SolveRequest::all().with_events(256)).unwrap();
//! println!("objective: {:?}", response.single().unwrap().objective);
//! ```

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use server::{ServeError, Server, ServerConfig, ServerStats};
pub use wire::{
    decode_client, decode_server, encode_client, encode_server, read_frame, write_frame, ClientMsg,
    ErrorCode, FrameError, IngestOp, ServerMsg, TenantBudget, WireError, DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
};

/// The ACloud load-balancing policy of the paper's Sec. 4.2 — the stock
/// demo program used by the server binary, the client example and the
/// serving benchmarks. Tenants ingest `vm(Vid,Cpu,Mem)`,
/// `host(Hid,Cpu,Mem)` and `hostMemThres(Hid,M)` facts and solve for a
/// stdev-minimizing `assign(Vid,Hid,V)` placement.
pub const ACLOUD_DEMO: &str = r#"
    goal minimize C in hostStdevCpu(C).
    var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
    r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
    d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
    d2 hostStdevCpu(STDEV<C>) <- host(Hid,Cpu,Mem), hostCpu(Hid,Cpu2), C==Cpu+Cpu2.
    d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
    c1 assignCount(Vid,V) -> V==1.
    d4 hostMem(Hid,SUM<M>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), M==V*Mem.
    c2 hostMem(Hid,Mem) -> hostMemThres(Hid,M), Mem<=M.
"#;

/// [`ServerConfig`] for [`ACLOUD_DEMO`] with the boolean `assign` domain
/// it needs — the one-liner used by the binary and the example.
pub fn demo_config() -> ServerConfig {
    let mut cfg = ServerConfig::new(ACLOUD_DEMO);
    // Bounds on: demo reports carry a certified optimality gap over the
    // wire (no gap limit, so search behavior is unchanged).
    cfg.params = cologne::ProgramParams::new()
        .with_var_domain("assign", cologne::VarDomain::BOOL)
        .with_solver_bound_mode(cologne::solver::BoundMode::Auto);
    cfg
}
