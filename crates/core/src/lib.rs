//! # cologne
//!
//! A reproduction of **Cologne: A Declarative Distributed Constraint
//! Optimization Platform** (Liu, Ren, Loo, Mao, Basu — PVLDB 5(8), 2012).
//!
//! Cologne lets distributed-systems policies be written as constraint
//! optimization problems in **Colog**, a distributed Datalog dialect extended
//! with `goal`/`var` declarations and solver rules, and executes them by
//! integrating an incremental declarative-networking engine (RapidNet in the
//! paper, [`cologne_datalog`] here) with a constraint solver (Gecode in the
//! paper, [`cologne_solver`] here).
//!
//! This crate is the runtime that glues those pieces together:
//!
//! * [`CologneInstance`] — a per-node engine+solver pair: compiles a Colog
//!   program, runs its regular rules incrementally, and on `invokeSolver`
//!   grounds the solver rules into a COP, solves it under the configured
//!   time budget and materializes the result back into the tables
//!   (Sec. 5.1–5.4 of the paper).
//! * [`Deployment`] — one instance per topology node connected by the
//!   simulated network of [`cologne_net`], exchanging located tuples and
//!   solver outputs (Sec. 5.5, "simulation mode" of Sec. 6); a centralized
//!   system is a one-node topology.
//!
//! ## Quickstart
//!
//! The public API is built around three pillars: the
//! [`DeploymentBuilder`] (one way to stand up single-node and distributed
//! systems alike), schema-checked [`RelationHandle`]s (typos and arity
//! mistakes error eagerly, with did-you-mean suggestions), and streaming
//! [`solver::SolveObserver`] events for long solves.
//!
//! ```
//! use cologne::{DeploymentBuilder, ProgramParams, SolveRequest, VarDomain};
//! use cologne::datalog::Value;
//!
//! // The ACloud load-balancing policy from Sec. 4.2, verbatim.
//! let program = r#"
//!     goal minimize C in hostStdevCpu(C).
//!     var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
//!     r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
//!     d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
//!     d2 hostStdevCpu(STDEV<C>) <- host(Hid,Cpu,Mem), hostCpu(Hid,Cpu2), C==Cpu+Cpu2.
//!     d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
//!     c1 assignCount(Vid,V) -> V==1.
//!     d4 hostMem(Hid,SUM<M>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), M==V*Mem.
//!     c2 hostMem(Hid,Mem) -> hostMemThres(Hid,M), Mem<=M.
//! "#;
//!
//! let mut node = DeploymentBuilder::new(program)
//!     .params(ProgramParams::new().with_var_domain("assign", VarDomain::BOOL))
//!     .build()
//!     .unwrap();
//! // Schema-checked writes: a typo'd relation or a malformed tuple errors
//! // here instead of silently never matching a rule.
//! let mut vm = node.relation("vm").unwrap();
//! vm.insert(vec![Value::Int(1), Value::Int(40), Value::Int(2)]).unwrap();
//! vm.insert(vec![Value::Int(2), Value::Int(20), Value::Int(2)]).unwrap();
//! for hid in [10, 11] {
//!     node.relation("host").unwrap()
//!         .insert(vec![Value::Int(hid), Value::Int(0), Value::Int(0)]).unwrap();
//!     node.relation("hostMemThres").unwrap()
//!         .insert(vec![Value::Int(hid), Value::Int(8)]).unwrap();
//! }
//! assert!(node.relation("vmm").is_err()); // did you mean 'vm'?
//!
//! let target = node.single_node().unwrap();
//! let response = node.solve(&SolveRequest::at(target)).unwrap();
//! let report = response.single().unwrap();
//! assert!(report.feasible);
//! // every VM placed exactly once
//! for vid in [1i64, 2] {
//!     let count: i64 = report.table("assign").iter()
//!         .filter(|row| row[0] == Value::Int(vid))
//!         .map(|row| row[2].as_int().unwrap())
//!         .sum();
//!     assert_eq!(count, 1);
//! }
//! ```

pub mod deploy;
pub mod distributed;
pub mod error;
pub mod ground;
pub mod handle;
pub mod instance;
pub mod params;
pub mod pipeline;
pub mod solve_api;
pub mod stats;
pub mod translate;

pub use deploy::{Deployment, DeploymentBuilder};
pub use distributed::{CrashEvent, DeliveryStats, TimerOutcome, RETX_TIMER_TAG};
pub use error::CologneError;
pub use ground::{ground, GroundedCop, GroundingPlan, GroundingScratch};
pub use handle::RelationHandle;
pub use instance::{CologneInstance, SolveReport};
pub use params::{ProgramParams, VarDomain};
pub use pipeline::{PipelineStats, SolvePipeline};
pub use solve_api::{EventOptions, EventSink, SolveRequest, SolveResponse, SolveTarget};
pub use stats::{NodeStats, StatsSnapshot};

// Re-export the compiler-facing types users need to drive the runtime.
pub use cologne_colog::{GoalKind, Program, RelationSchema, RuleClass, SchemaCatalog};
// Re-export the observer surface so streaming consumers need only `cologne`,
// plus the bound-certificate types `SolveReport` embeds and the search mode
// `ProgramParams` selects (its other knob types live under `solver`).
pub use cologne_solver::{BoundCertificate, EventLog, SolveEvent, SolveObserver, SolverMode};

/// The solver's [`solver::BoundMode`], under the name of the parameter that
/// carries it ([`ProgramParams::solver_bound_mode`]).
pub use cologne_solver::BoundMode as SolverBoundMode;

/// Re-export of the Datalog substrate (values, tuples, engine).
pub mod datalog {
    pub use cologne_datalog::*;
}

/// Re-export of the constraint-solver substrate.
pub mod solver {
    pub use cologne_solver::*;
}

/// Re-export of the network-simulation substrate.
pub mod net {
    pub use cologne_net::*;
}

/// Re-export of the Colog compiler (parser, analysis, localization, codegen).
pub mod colog {
    pub use cologne_colog::*;
}
