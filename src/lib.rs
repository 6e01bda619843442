//! # cologne-repro
//!
//! Workspace facade for the Cologne reproduction (Liu et al., PVLDB 2012).
//!
//! This crate exists to anchor the repository-level `tests/` and `examples/`
//! directories as cargo targets; the implementation lives in the member
//! crates:
//!
//! * [`cologne`] — the runtime (instances, grounding pipeline, distribution);
//! * `cologne-colog` — the Colog compiler front-end;
//! * `cologne-datalog` — the incremental Datalog engine;
//! * `cologne-solver` — the finite-domain constraint solver;
//! * `cologne-net` — the discrete-event network simulator;
//! * `cologne-usecases` — the paper's three evaluation use cases;
//! * `cologne-bench` — experiment harnesses for the paper's tables and figures.

pub use cologne;
