//! # cologne-usecases
//!
//! The three use cases evaluated by the Cologne paper (Liu et al., VLDB
//! 2012), implemented on top of the `cologne` runtime, together with their
//! workload generators, the baselines they are compared against, and the
//! experiment harnesses that regenerate every table and figure of Sec. 6:
//!
//! * [`acloud`] — adaptive cloud load balancing (Fig. 2, Fig. 3) with the
//!   Default and Heuristic baselines and the ACloud / ACloud (M) Colog
//!   policies, driven by a synthetic data-center trace;
//! * [`followsun`] — inter-data-center VM migration (Fig. 4, Fig. 5) with
//!   the distributed per-link negotiation protocol of Sec. 4.3 running over
//!   the simulated network;
//! * [`wireless`] — wireless channel selection (Fig. 6, Fig. 7) with
//!   centralized, distributed and cross-layer protocols plus the
//!   Identical-Ch and 1-Interface baselines, evaluated on an
//!   interference-model grid simulator;
//! * [`programs`] — the Colog program listings themselves;
//! * [`table2`] — the compactness comparison (Table 2): Colog rules and the
//!   rules the runtime installs, beside the paper's quoted C++ LOC.

pub mod acloud;
pub mod churn;
pub mod followsun;
mod hostile;
pub mod programs;
pub mod table2;
pub mod wireless;

pub use acloud::{
    large_acloud_instance, run_acloud_experiment, solve_large_acloud, AcloudConfig, AcloudPolicy,
    AcloudResults, LargeAcloudConfig,
};
pub use churn::{run_churn, ChurnConfig, ChurnOutcome, ChurnTick};
pub use followsun::{
    build_followsun_deployment, run_followsun, run_followsun_sweep, FollowSunConfig,
    FollowSunOutcome, FollowSunWorkload,
};
pub use table2::{compactness_table, render_table, CompactnessRow};
pub use wireless::{
    networked_distributed_assignment, run_fig6, run_fig7, NetworkedAssignment, WirelessConfig,
    WirelessPolicy, WirelessProtocol,
};
