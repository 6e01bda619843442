//! Use case #3: wireless channel selection (Sec. 3.2, Appendix A, Sec. 6.4).
//!
//! Wireless mesh nodes pick channels for their links so that nearby links do
//! not interfere. The paper runs centralized and distributed Colog channel
//! selection on the 30-node ORBIT testbed and reports aggregate throughput as
//! offered load increases (Fig. 6), plus policy variations — restricted
//! channels and one-hop vs two-hop interference models — under the
//! cross-layer protocol (Fig. 7).
//!
//! The ORBIT testbed is physical hardware we do not have; the substitution
//! ([`aggregate_throughput`] below, driven by
//! `cologne-bench --bin fig6_7_wireless`) is an interference-model grid
//! simulator: links whose channels are closer than `F_mindiff` and that are
//! within one/two hops of each other share capacity, flows are routed over
//! the grid, and aggregate throughput is the sum of per-flow deliveries. The
//! channel assignments themselves are still produced by the Colog programs
//! through the Cologne runtime.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cologne::datalog::{NodeId, Value};
use cologne::net::{FaultPlan, LinkProps, NodeTraffic, SimTime, Topology};
use cologne::solver::Branching;
use cologne::{
    CologneInstance, CrashEvent, DeliveryStats, Deployment, DeploymentBuilder, ProgramParams,
    SolveRequest, VarDomain,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hostile::hostile_barrier;
use crate::programs::{WIRELESS_CENTRALIZED, WIRELESS_DISTRIBUTED};

/// An undirected link identified by its (smaller, larger) endpoints.
pub type Link = (u32, u32);

/// A channel assignment: one channel per undirected link.
pub type ChannelAssignment = BTreeMap<Link, i64>;

/// The channel-selection protocols compared in Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WirelessProtocol {
    /// Cross-layer: distributed channel selection plus interference-aware
    /// routing of the flows.
    CrossLayer,
    /// Distributed per-link negotiation (Appendix A.3).
    Distributed,
    /// Centralized channel manager (Appendix A.2).
    Centralized,
    /// Identical channel sets on every node; a centralized solver restricted
    /// to those channels assigns links.
    IdenticalCh,
    /// One interface per node, one common channel.
    OneInterface,
}

impl WirelessProtocol {
    /// All protocols in the paper's legend order.
    pub fn all() -> [WirelessProtocol; 5] {
        [
            WirelessProtocol::CrossLayer,
            WirelessProtocol::Distributed,
            WirelessProtocol::Centralized,
            WirelessProtocol::IdenticalCh,
            WirelessProtocol::OneInterface,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            WirelessProtocol::CrossLayer => "Cross-layer",
            WirelessProtocol::Distributed => "Distributed",
            WirelessProtocol::Centralized => "Centralized",
            WirelessProtocol::IdenticalCh => "Identical-Ch",
            WirelessProtocol::OneInterface => "1-Interface",
        }
    }
}

/// Policy variations of Fig. 7 (cross-layer protocol fixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WirelessPolicy {
    /// The default two-hop interference cost model.
    TwoHopInterference,
    /// 20% of the channels become unavailable (primary users / spectrum
    /// limits).
    RestrictedChannels,
    /// Cost model considering only one-hop interference.
    OneHopInterference,
}

impl WirelessPolicy {
    /// All policies in the paper's order.
    pub fn all() -> [WirelessPolicy; 3] {
        [
            WirelessPolicy::TwoHopInterference,
            WirelessPolicy::RestrictedChannels,
            WirelessPolicy::OneHopInterference,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            WirelessPolicy::TwoHopInterference => "2-hop Interference",
            WirelessPolicy::RestrictedChannels => "Restricted Channels",
            WirelessPolicy::OneHopInterference => "1-hop Interference",
        }
    }
}

/// Configuration of the wireless experiments.
#[derive(Debug, Clone)]
pub struct WirelessConfig {
    /// Grid rows (paper: 30 nodes in an 8m x 5m grid; we use rows x cols).
    pub rows: u32,
    /// Grid columns.
    pub cols: u32,
    /// Available channels.
    pub channels: Vec<i64>,
    /// Radio interfaces per node (paper: 2).
    pub interfaces_per_node: i64,
    /// Minimum channel separation below which two links interfere.
    pub f_mindiff: i64,
    /// Fraction of nodes with a primary-user restriction on some channel.
    pub primary_user_fraction: f64,
    /// Number of traffic flows injected.
    pub flows: usize,
    /// Per-link base capacity in Mbps when free of interference.
    pub base_capacity_mbps: f64,
    /// Branch-and-bound node budget per COP execution.
    pub solver_node_limit: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WirelessConfig {
    fn default() -> Self {
        WirelessConfig {
            rows: 5,
            cols: 6,
            // contiguous channel indices; F_mindiff = 2 means adjacent
            // channels still interfere (partial spectral overlap)
            channels: (1..=6).collect(),
            interfaces_per_node: 2,
            f_mindiff: 2,
            primary_user_fraction: 0.2,
            flows: 15,
            base_capacity_mbps: 11.0,
            solver_node_limit: 30_000,
            seed: 17,
        }
    }
}

impl WirelessConfig {
    /// A small 3x3 grid for unit tests.
    pub fn tiny() -> Self {
        WirelessConfig {
            rows: 3,
            cols: 3,
            channels: (1..=4).collect(),
            flows: 4,
            solver_node_limit: 10_000,
            ..Default::default()
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.rows * self.cols
    }
}

/// The simulated mesh network: topology, primary users, flows.
#[derive(Debug, Clone)]
pub struct MeshNetwork {
    /// Grid topology (radio links between adjacent nodes).
    pub topology: Topology,
    /// Per-node primary-user channel restrictions.
    pub primary_users: BTreeMap<u32, Vec<i64>>,
    /// Traffic flows as (source, destination) pairs.
    pub flows: Vec<(u32, u32)>,
    config: WirelessConfig,
}

impl MeshNetwork {
    /// Build the mesh for a configuration.
    pub fn generate(config: &WirelessConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topology = Topology::grid(config.rows, config.cols, LinkProps::default());
        let mut primary_users = BTreeMap::new();
        for n in topology.nodes() {
            if rng.gen_bool(config.primary_user_fraction) {
                let ch = config.channels[rng.gen_range(0..config.channels.len())];
                primary_users.insert(n, vec![ch]);
            }
        }
        let nodes = topology.nodes();
        let mut flows = Vec::with_capacity(config.flows);
        while flows.len() < config.flows {
            let s = nodes[rng.gen_range(0..nodes.len())];
            let d = nodes[rng.gen_range(0..nodes.len())];
            if s != d {
                flows.push((s, d));
            }
        }
        MeshNetwork {
            topology,
            primary_users,
            flows,
            config: config.clone(),
        }
    }

    /// Undirected links of the mesh.
    pub fn links(&self) -> Vec<Link> {
        self.topology.links()
    }

    /// Shortest path between two nodes (BFS over the grid).
    pub fn shortest_path(&self, src: u32, dst: u32) -> Vec<u32> {
        let mut prev: BTreeMap<u32, u32> = BTreeMap::new();
        let mut visited: BTreeSet<u32> = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(src);
        visited.insert(src);
        while let Some(n) = queue.pop_front() {
            if n == dst {
                break;
            }
            for m in self.topology.neighbors(n) {
                if visited.insert(m) {
                    prev.insert(m, n);
                    queue.push_back(m);
                }
            }
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            match prev.get(&cur) {
                Some(&p) => {
                    path.push(p);
                    cur = p;
                }
                None => return Vec::new(), // unreachable
            }
        }
        path.reverse();
        path
    }
}

fn link_key(a: u32, b: u32) -> Link {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

// ----- interference and throughput model -------------------------------------

/// Number of links interfering with `link` under the given assignment:
/// links within `hops` hops whose channel differs by less than `f_mindiff`.
pub fn interference_count(
    mesh: &MeshNetwork,
    assignment: &ChannelAssignment,
    link: Link,
    f_mindiff: i64,
    hops: u32,
) -> usize {
    let my_channel = assignment.get(&link).copied().unwrap_or(0);
    let (a, b) = link;
    let mut near_nodes: BTreeSet<u32> = BTreeSet::from([a, b]);
    if hops >= 2 {
        for n in [a, b] {
            for m in mesh.topology.neighbors(n) {
                near_nodes.insert(m);
            }
        }
    }
    assignment
        .iter()
        .filter(|(other, ch)| {
            **other != link
                && (near_nodes.contains(&other.0) || near_nodes.contains(&other.1))
                && (my_channel - **ch).abs() < f_mindiff
        })
        .count()
}

/// Aggregate throughput (Mbps) delivered for a per-flow offered rate
/// (`data_rate_mbps`), given a channel assignment. Cross-layer routing picks
/// the least-interfered of a few candidate paths; other protocols use
/// shortest paths.
pub fn aggregate_throughput(
    mesh: &MeshNetwork,
    assignment: &ChannelAssignment,
    data_rate_mbps: f64,
    interference_aware_routing: bool,
) -> f64 {
    if interference_aware_routing {
        // Cross-layer routing jointly optimizes routes and channels: it keeps
        // whichever routing (plain shortest-path or interference-avoiding
        // detours) delivers more aggregate traffic, so it can never do worse
        // than the channel assignment alone.
        let detoured = aggregate_throughput_routed(mesh, assignment, data_rate_mbps, true);
        let plain = aggregate_throughput_routed(mesh, assignment, data_rate_mbps, false);
        return detoured.max(plain);
    }
    aggregate_throughput_routed(mesh, assignment, data_rate_mbps, false)
}

fn aggregate_throughput_routed(
    mesh: &MeshNetwork,
    assignment: &ChannelAssignment,
    data_rate_mbps: f64,
    interference_aware_routing: bool,
) -> f64 {
    let config = &mesh.config;
    // Effective capacity of every assigned link.
    let mut capacity: BTreeMap<Link, f64> = BTreeMap::new();
    for (&link, _) in assignment.iter() {
        let interferers = interference_count(mesh, assignment, link, config.f_mindiff, 2) as f64;
        capacity.insert(link, config.base_capacity_mbps / (1.0 + interferers));
    }
    // Route flows.
    let mut usage: BTreeMap<Link, f64> = BTreeMap::new();
    let mut flow_paths: Vec<Vec<u32>> = Vec::with_capacity(mesh.flows.len());
    for &(s, d) in &mesh.flows {
        let mut path = mesh.shortest_path(s, d);
        if interference_aware_routing {
            // Try detours through each neighbour of the source and keep the
            // path whose bottleneck capacity is highest.
            let mut best = path.clone();
            let mut best_score = path_bottleneck(&path, &capacity);
            for via in mesh.topology.neighbors(s) {
                if via == d {
                    continue;
                }
                let mut alt = mesh.shortest_path(s, via);
                let tail = mesh.shortest_path(via, d);
                if alt.is_empty() || tail.is_empty() {
                    continue;
                }
                alt.extend(tail.into_iter().skip(1));
                let score = path_bottleneck(&alt, &capacity);
                if score > best_score {
                    best_score = score;
                    best = alt;
                }
            }
            path = best;
        }
        for w in path.windows(2) {
            *usage.entry(link_key(w[0], w[1])).or_insert(0.0) += 1.0;
        }
        flow_paths.push(path);
    }
    // Each flow receives the minimum of its offered rate and its bottleneck
    // fair share.
    let mut total = 0.0;
    for path in flow_paths {
        if path.len() < 2 {
            continue;
        }
        let mut rate = data_rate_mbps;
        for w in path.windows(2) {
            let link = link_key(w[0], w[1]);
            let cap = capacity.get(&link).copied().unwrap_or(0.1);
            let share = cap / usage.get(&link).copied().unwrap_or(1.0).max(1.0);
            rate = rate.min(share);
        }
        total += rate;
    }
    total
}

fn path_bottleneck(path: &[u32], capacity: &BTreeMap<Link, f64>) -> f64 {
    path.windows(2)
        .map(|w| capacity.get(&link_key(w[0], w[1])).copied().unwrap_or(0.1))
        .fold(f64::INFINITY, f64::min)
}

// ----- channel selection protocols --------------------------------------------

fn centralized_params(config: &WirelessConfig, channels: &[i64]) -> ProgramParams {
    ProgramParams::new()
        .with_var_domain(
            "assign",
            VarDomain::new(
                channels.iter().copied().min().unwrap_or(1),
                channels.iter().copied().max().unwrap_or(1),
            ),
        )
        .with_constant("F_mindiff", config.f_mindiff)
        // First-fail branching: channel variables squeezed by primary users
        // and the interface (UNIQUE) constraint are decided first.
        .with_solver_branching(Branching::SmallestDomain)
        .with_solver_node_limit(Some(config.solver_node_limit))
        .with_solver_max_time(Some(std::time::Duration::from_secs(10)))
}

/// Parameters for the *distributed* per-link negotiation. Branching is
/// explicitly per use case: the big first-fail win is on the centralized
/// whole-mesh COP (96% less time on the 4x4 grid), but on the tiny per-link
/// COPs it reorders which channel each best-response move lands on, which
/// makes the renegotiation fixpoint wander for extra passes — the 3x3/4x4
/// distributed regression introduced when first-fail became the wireless
/// default. The negotiation therefore pins input-order branching while the
/// centralized solver keeps first-fail.
fn distributed_params(config: &WirelessConfig, channels: &[i64]) -> ProgramParams {
    centralized_params(config, channels).with_solver_branching(Branching::InputOrder)
}

/// Centralized channel selection: one Cologne instance solves the whole mesh
/// (Appendix A.2). `channels` restricts the candidate channels (used both for
/// the full protocol and for the Identical-Ch baseline).
pub fn centralized_assignment(mesh: &MeshNetwork, channels: &[i64]) -> ChannelAssignment {
    let config = &mesh.config;
    let params = centralized_params(config, channels);
    let mut instance = CologneInstance::new(NodeId(0), WIRELESS_CENTRALIZED, params)
        .expect("wireless centralized program compiles");
    let mut link = instance.relation("link").expect("link is in the schema");
    for (a, b) in mesh.links() {
        link.insert(vec![Value::Int(a as i64), Value::Int(b as i64)])
            .expect("link rows match the schema");
        link.insert(vec![Value::Int(b as i64), Value::Int(a as i64)])
            .expect("link rows match the schema");
    }
    for n in mesh.topology.nodes() {
        instance
            .relation("numInterface")
            .expect("numInterface is in the schema")
            .insert(vec![
                Value::Int(n as i64),
                Value::Int(config.interfaces_per_node),
            ])
            .expect("numInterface rows match the schema");
        for banned in mesh.primary_users.get(&n).cloned().unwrap_or_default() {
            // only ban channels that are actually in the candidate set
            if channels.contains(&banned) && channels.len() > 1 {
                instance
                    .relation("primaryUser")
                    .expect("primaryUser is in the schema")
                    .insert(vec![Value::Int(n as i64), Value::Int(banned)])
                    .expect("primaryUser rows match the schema");
            }
        }
    }
    let mut out = ChannelAssignment::new();
    if let Ok(report) = instance.invoke_solver() {
        for row in report.table("assign") {
            let (Some(x), Some(y), Some(c)) = (row[0].as_int(), row[1].as_int(), row[2].as_int())
            else {
                continue;
            };
            out.insert(link_key(x as u32, y as u32), c);
        }
    }
    // Links the solver could not assign (infeasible/limited) fall back to the
    // first channel so the throughput model still sees a full assignment.
    for link in mesh.links() {
        out.entry(link).or_insert(channels[0]);
    }
    out
}

/// Distributed per-link channel negotiation (Appendix A.3): links are
/// negotiated one at a time; each negotiation solves a local COP at the
/// initiating node using its neighbourhood's already-chosen channels.
///
/// Mirroring the paper's protocol — nodes *periodically* re-initiate
/// negotiations as neighbour state changes — the first pass over the links is
/// followed by a refinement pass in which every link is renegotiated with
/// full knowledge of the completed assignment. The per-node instances are
/// reused across all negotiations, so the cached `GroundingPlan` of each
/// instance is built once and amortized over every `invoke_solver` call.
pub fn distributed_assignment(mesh: &MeshNetwork, channels: &[i64]) -> ChannelAssignment {
    distributed_assignment_with_stats(mesh, channels).0
}

/// [`distributed_assignment`], also returning the solver statistics
/// accumulated across every negotiation of every node — the regression
/// handle that pins the protocol's total search effort.
pub fn distributed_assignment_with_stats(
    mesh: &MeshNetwork,
    channels: &[i64],
) -> (ChannelAssignment, cologne::solver::SearchStats) {
    let config = &mesh.config;
    let params = distributed_params(config, channels);
    let mut instances: BTreeMap<u32, CologneInstance> = BTreeMap::new();
    for n in mesh.topology.nodes() {
        let mut inst = CologneInstance::new(NodeId(n), WIRELESS_DISTRIBUTED, params.clone())
            .expect("wireless distributed program compiles");
        let x = Value::Addr(NodeId(n));
        let mut link = inst.relation("link").expect("link is in the schema");
        for m in mesh.topology.neighbors(n) {
            link.insert(vec![x.clone(), Value::Addr(NodeId(m))])
                .expect("link rows match the schema");
        }
        for banned in mesh.primary_users.get(&n).cloned().unwrap_or_default() {
            if channels.contains(&banned) && channels.len() > 1 {
                inst.relation("primaryUser")
                    .expect("primaryUser is in the schema")
                    .insert(vec![x.clone(), Value::Int(banned)])
                    .expect("primaryUser rows match the schema");
            }
        }
        instances.insert(n, inst);
    }
    let mut assignment = ChannelAssignment::new();
    // Pass 0: greedy negotiation in link order. Further passes renegotiate
    // every link against the complete current assignment (each negotiation is
    // a best-response move of the local COP) until no link changes its
    // channel — the fixpoint the paper's periodic re-negotiations converge
    // to — with a small cap as a safety net against oscillation.
    for pass in 0..6 {
        let mut changed = false;
        for (a, b) in mesh.links() {
            let initiator = a.max(b);
            let peer = a.min(b);
            // Renegotiation: the link's previous choice must not constrain
            // its own new negotiation.
            let previous = assignment.remove(&link_key(initiator, peer));
            let channel =
                negotiate_link(mesh, channels, &mut instances, &assignment, initiator, peer);
            changed |= previous != Some(channel);
            assignment.insert(link_key(initiator, peer), channel);
        }
        if pass > 0 && !changed {
            break;
        }
    }
    let mut stats = cologne::solver::SearchStats::default();
    for inst in instances.values() {
        stats.merge(inst.cumulative_solver_stats());
    }
    (assignment, stats)
}

/// One link negotiation of the distributed protocol: the initiator solves a
/// local COP over its own and its neighbours' currently chosen channels.
fn negotiate_link(
    mesh: &MeshNetwork,
    channels: &[i64],
    instances: &mut BTreeMap<u32, CologneInstance>,
    assignment: &ChannelAssignment,
    initiator: u32,
    peer: u32,
) -> i64 {
    // the initiator learns its neighbours' current choices
    let mut nbor_rows = Vec::new();
    let mut nbor_pu_rows = Vec::new();
    for z in mesh.topology.neighbors(initiator) {
        for ((la, lb), &c) in assignment {
            if *la == z || *lb == z {
                let w = if *la == z { *lb } else { *la };
                nbor_rows.push(vec![
                    Value::Addr(NodeId(initiator)),
                    Value::Addr(NodeId(z)),
                    Value::Addr(NodeId(w)),
                    Value::Int(c),
                ]);
            }
        }
        for banned in mesh.primary_users.get(&z).cloned().unwrap_or_default() {
            if channels.contains(&banned) && channels.len() > 1 {
                nbor_pu_rows.push(vec![
                    Value::Addr(NodeId(initiator)),
                    Value::Addr(NodeId(z)),
                    Value::Int(banned),
                ]);
            }
        }
    }
    // plus its own already-chosen links
    let mut chosen_rows = Vec::new();
    for ((la, lb), &c) in assignment {
        if *la == initiator || *lb == initiator {
            let w = if *la == initiator { *lb } else { *la };
            chosen_rows.push(vec![
                Value::Addr(NodeId(initiator)),
                Value::Addr(NodeId(w)),
                Value::Int(c),
            ]);
        }
    }
    let inst = instances.get_mut(&initiator).expect("instance exists");
    inst.relation("nborChosen")
        .expect("nborChosen is in the schema")
        .set(nbor_rows)
        .expect("nborChosen rows match the schema");
    inst.relation("nborPrimaryUser")
        .expect("nborPrimaryUser is in the schema")
        .set(nbor_pu_rows)
        .expect("nborPrimaryUser rows match the schema");
    inst.relation("chosen")
        .expect("chosen is in the schema")
        .set(chosen_rows)
        .expect("chosen rows match the schema");
    inst.relation("setLink")
        .expect("setLink is in the schema")
        .set(vec![vec![
            Value::Addr(NodeId(initiator)),
            Value::Addr(NodeId(peer)),
        ]])
        .expect("setLink rows match the schema");
    inst.invoke_solver()
        .ok()
        .filter(|r| r.feasible && !r.trivial)
        .and_then(|r| {
            r.table("assign")
                .iter()
                .find(|row| row[1].as_addr() == Some(NodeId(peer)))
                .and_then(|row| row[2].as_int())
        })
        .unwrap_or(channels[0])
}

// ----- networked distributed negotiation ---------------------------------------

/// Half a second of virtual time per quiescence barrier: generous against
/// the 25–400ms retransmit window, cheap because the clock is event-driven.
const STEP_US: u64 = 500_000;

/// Outcome of [`networked_distributed_assignment`]: the converged channels
/// plus the network-level evidence of how they were reached.
#[derive(Debug, Clone)]
pub struct NetworkedAssignment {
    /// Converged per-link channels (same shape as [`distributed_assignment`]).
    pub assignment: ChannelAssignment,
    /// At-least-once delivery counters: retransmits, dedups, buffered
    /// reorders, crash/rejoin resyncs.
    pub delivery: DeliveryStats,
    /// Per-node traffic, including `messages_dropped` / `messages_duplicated`.
    pub traffic: BTreeMap<u32, NodeTraffic>,
    /// Crash and rejoin events observed while negotiating.
    pub crash_log: Vec<CrashEvent>,
    /// Negotiation passes run before the fixpoint (or the safety cap).
    pub passes: usize,
}

/// Distributed per-link negotiation **over the simulated network**: unlike
/// [`distributed_assignment`], which hand-feeds each initiator its
/// neighbourhood state, every `chosen` / `primaryUser` update here travels
/// as located tuples through the program's own shipping rules (r2/r3 of
/// `WIRELESS_DISTRIBUTED`) on top of the at-least-once delivery layer, under
/// the given [`FaultPlan`].
///
/// A quiet plan (`FaultPlan::default()`) exercises the exact same code path
/// as a hostile one, which is what makes the reconvergence tests meaningful:
/// under seeded loss/duplication/jitter/crash schedules the negotiation must
/// reach the same fixpoint assignment as the fault-free run. Local solves
/// run without a wall-clock cutoff so each one is a deterministic function
/// of its (settled) inputs.
pub fn networked_distributed_assignment(
    mesh: &MeshNetwork,
    channels: &[i64],
    plan: FaultPlan,
) -> NetworkedAssignment {
    let config = &mesh.config;
    // No wall-clock cutoff (schedule-dependent) and no warm starts: a node
    // that crashed solves from a cold pipeline, and a warm incumbent could
    // tie-break the re-solve differently from the quiet run's.
    let params = distributed_params(config, channels)
        .with_solver_max_time(None)
        .with_warm_start(false);
    let mut driver = DeploymentBuilder::new(WIRELESS_DISTRIBUTED)
        .params(params)
        .topology(mesh.topology.clone())
        .faults(plan)
        .build()
        .expect("wireless distributed program compiles");

    let fault_horizon = driver
        .fault_plan()
        .and_then(|p| p.crashes().iter().map(|c| c.up).max())
        .unwrap_or(SimTime::ZERO);

    // Base facts: each node knows its incident links and its own
    // primary-user restrictions; r3 ships the latter to the neighbours.
    for n in mesh.topology.nodes() {
        let x = Value::Addr(NodeId(n));
        for m in mesh.topology.neighbors(n) {
            driver
                .insert(NodeId(n), "link", vec![x.clone(), Value::Addr(NodeId(m))])
                .expect("link rows match the schema");
        }
        for banned in mesh.primary_users.get(&n).cloned().unwrap_or_default() {
            if channels.contains(&banned) && channels.len() > 1 {
                driver
                    .insert(
                        NodeId(n),
                        "primaryUser",
                        vec![x.clone(), Value::Int(banned)],
                    )
                    .expect("primaryUser rows match the schema");
            }
        }
    }
    barrier(&mut driver, fault_horizon, [0, 0]);

    let mut assignment = ChannelAssignment::new();
    let mut passes = 0;
    for pass in 0..8 {
        passes = pass + 1;
        let mut changed = false;
        for (a, b) in mesh.links() {
            let initiator = a.max(b);
            let peer = a.min(b);
            // Wait out any crash window on this link's endpoints: a down
            // initiator cannot solve, a down peer cannot receive the
            // outcome, and writing relations at a down node would ship
            // nothing. Third-party crashes are the delivery layer's problem.
            barrier(&mut driver, fault_horizon, [initiator, peer]);

            // Renegotiation: the link's previous choice must not constrain
            // its own new negotiation.
            let previous = assignment.remove(&link_key(initiator, peer));
            refresh_chosen(&mut driver, &assignment, initiator);
            refresh_chosen(&mut driver, &assignment, peer);
            set_and_sync(
                &mut driver,
                initiator,
                "setLink",
                vec![vec![
                    Value::Addr(NodeId(initiator)),
                    Value::Addr(NodeId(peer)),
                ]],
            );
            // Quiescence barrier: every shipped nborChosen/nborPrimaryUser
            // tuple must be delivered and acked before the local solve reads
            // the neighbourhood view (and any mid-settle crash waited out,
            // so the rejoin re-sync has landed too).
            barrier(&mut driver, fault_horizon, [initiator, peer]);

            let response = driver.solve(&SolveRequest::at(NodeId(initiator))).ok();
            let channel = response
                .as_ref()
                .and_then(|response| response.single())
                .filter(|r| r.feasible && !r.trivial)
                .and_then(|r| {
                    r.table("assign")
                        .iter()
                        .find(|row| row[1].as_addr() == Some(NodeId(peer)))
                        .and_then(|row| row[2].as_int())
                })
                .unwrap_or(channels[0]);
            changed |= previous != Some(channel);
            assignment.insert(link_key(initiator, peer), channel);

            // Publish the outcome — both endpoints record the channel, which
            // r2 ships to their neighbourhoods — and disarm the negotiation.
            refresh_chosen(&mut driver, &assignment, initiator);
            refresh_chosen(&mut driver, &assignment, peer);
            set_and_sync(&mut driver, initiator, "setLink", vec![]);
            barrier(&mut driver, fault_horizon, [initiator, peer]);
        }
        if pass > 0 && !changed {
            break;
        }
    }

    let traffic = mesh
        .topology
        .nodes()
        .into_iter()
        .map(|n| (n, driver.traffic(NodeId(n))))
        .collect();
    NetworkedAssignment {
        assignment,
        delivery: driver.delivery_stats(),
        traffic,
        crash_log: driver.take_crash_log(),
        passes,
    }
}

/// One negotiation-step barrier (see [`hostile_barrier`]), anchored at
/// "one step from now".
fn barrier(driver: &mut Deployment, fault_horizon: SimTime, endpoints: [u32; 2]) {
    let deadline = driver.now().plus_us(STEP_US);
    hostile_barrier(driver, deadline, fault_horizon, STEP_US, endpoints);
}

/// Refresh one node's `chosen` table from the in-progress assignment and
/// ship the resulting r2 deltas.
fn refresh_chosen(driver: &mut Deployment, assignment: &ChannelAssignment, node: u32) {
    let rows: Vec<Vec<Value>> = assignment
        .iter()
        .filter(|((la, lb), _)| *la == node || *lb == node)
        .map(|((la, lb), &c)| {
            let w = if *la == node { *lb } else { *la };
            vec![
                Value::Addr(NodeId(node)),
                Value::Addr(NodeId(w)),
                Value::Int(c),
            ]
        })
        .collect();
    set_and_sync(driver, node, "chosen", rows);
}

fn set_and_sync(driver: &mut Deployment, node: u32, rel: &str, rows: Vec<Vec<Value>>) {
    driver
        .handle(NodeId(node), rel)
        .expect("relation is in the schema")
        .set(rows)
        .expect("rows match the schema");
    driver.sync(NodeId(node));
}

/// Identical-Ch baseline: the same two channels on every node, assigned by
/// the centralized solver restricted to that set.
pub fn identical_channels_assignment(mesh: &MeshNetwork) -> ChannelAssignment {
    let channels: Vec<i64> = mesh.config.channels.iter().copied().take(2).collect();
    centralized_assignment(mesh, &channels)
}

/// 1-Interface baseline: every link on one common channel.
pub fn one_interface_assignment(mesh: &MeshNetwork) -> ChannelAssignment {
    mesh.links()
        .into_iter()
        .map(|l| (l, mesh.config.channels[0]))
        .collect()
}

/// Compute the channel assignment used by a protocol.
pub fn assignment_for(mesh: &MeshNetwork, protocol: WirelessProtocol) -> ChannelAssignment {
    match protocol {
        WirelessProtocol::CrossLayer | WirelessProtocol::Distributed => {
            distributed_assignment(mesh, &mesh.config.channels)
        }
        WirelessProtocol::Centralized => centralized_assignment(mesh, &mesh.config.channels),
        WirelessProtocol::IdenticalCh => identical_channels_assignment(mesh),
        WirelessProtocol::OneInterface => one_interface_assignment(mesh),
    }
}

/// One curve of Fig. 6 / Fig. 7: aggregate throughput per offered data rate.
#[derive(Debug, Clone)]
pub struct ThroughputCurve {
    /// Offered per-flow data rates (Mbps).
    pub data_rates: Vec<f64>,
    /// Aggregate delivered throughput (Mbps) at each rate.
    pub throughput: Vec<f64>,
}

impl ThroughputCurve {
    /// Peak aggregate throughput across the sweep.
    pub fn peak(&self) -> f64 {
        self.throughput.iter().copied().fold(0.0, f64::max)
    }
}

/// Run the Fig. 6 experiment: throughput vs offered rate for every protocol.
pub fn run_fig6(
    config: &WirelessConfig,
    data_rates: &[f64],
) -> BTreeMap<WirelessProtocol, ThroughputCurve> {
    let mesh = MeshNetwork::generate(config);
    let mut out = BTreeMap::new();
    for protocol in WirelessProtocol::all() {
        let assignment = assignment_for(&mesh, protocol);
        let routing_aware = protocol == WirelessProtocol::CrossLayer;
        let throughput = data_rates
            .iter()
            .map(|&r| aggregate_throughput(&mesh, &assignment, r, routing_aware))
            .collect();
        out.insert(
            protocol,
            ThroughputCurve {
                data_rates: data_rates.to_vec(),
                throughput,
            },
        );
    }
    out
}

/// Run the Fig. 7 experiment: cross-layer protocol under policy variations.
pub fn run_fig7(
    config: &WirelessConfig,
    data_rates: &[f64],
) -> BTreeMap<WirelessPolicy, ThroughputCurve> {
    let mesh = MeshNetwork::generate(config);
    let mut out = BTreeMap::new();
    for policy in WirelessPolicy::all() {
        let assignment = match policy {
            WirelessPolicy::TwoHopInterference => {
                distributed_assignment(&mesh, &mesh.config.channels)
            }
            WirelessPolicy::RestrictedChannels => {
                // Sec. 6.4: each node loses ~20% of its channels (decreased
                // signal strength, primary users, spectrum-usage limits). We
                // model it as additional per-node primary-user restrictions
                // plus a network-wide trim of the candidate set.
                let mut restricted = mesh.clone();
                let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed);
                let per_node_ban =
                    ((mesh.config.channels.len() as f64) * 0.2).ceil().max(1.0) as usize;
                for n in restricted.topology.nodes() {
                    let banned = restricted.primary_users.entry(n).or_default();
                    while banned.len() < per_node_ban {
                        let ch = mesh.config.channels[rng.gen_range(0..mesh.config.channels.len())];
                        if !banned.contains(&ch) {
                            banned.push(ch);
                        }
                    }
                }
                let keep = ((mesh.config.channels.len() as f64) * 0.8).ceil() as usize;
                let channels: Vec<i64> = mesh
                    .config
                    .channels
                    .iter()
                    .copied()
                    .take(keep.max(1))
                    .collect();
                distributed_assignment(&restricted, &channels)
            }
            WirelessPolicy::OneHopInterference => {
                // the negotiating node ignores its neighbours' channels and
                // only avoids clashing with its own other links
                let mut restricted = mesh.clone();
                restricted.primary_users.clear();
                one_hop_assignment(&restricted)
            }
        };
        let throughput = data_rates
            .iter()
            .map(|&r| aggregate_throughput(&mesh, &assignment, r, true))
            .collect();
        out.insert(
            policy,
            ThroughputCurve {
                data_rates: data_rates.to_vec(),
                throughput,
            },
        );
    }
    out
}

/// One-hop-only variant of the distributed negotiation: the cost model only
/// sees the initiator's own links (used by the Fig. 7 "1-hop Interference"
/// policy).
pub fn one_hop_assignment(mesh: &MeshNetwork) -> ChannelAssignment {
    // Reuse the distributed machinery but hide neighbour information, which
    // reduces the model to one-hop interference.
    let config = &mesh.config;
    let params = distributed_params(config, &config.channels);
    let mut assignment = ChannelAssignment::new();
    for (a, b) in mesh.links() {
        let initiator = a.max(b);
        let peer = a.min(b);
        let mut inst =
            CologneInstance::new(NodeId(initiator), WIRELESS_DISTRIBUTED, params.clone())
                .expect("wireless distributed program compiles");
        let x = Value::Addr(NodeId(initiator));
        let mut link = inst.relation("link").expect("link is in the schema");
        for m in mesh.topology.neighbors(initiator) {
            link.insert(vec![x.clone(), Value::Addr(NodeId(m))])
                .expect("link rows match the schema");
        }
        let chosen_rows: Vec<Vec<Value>> = assignment
            .iter()
            .filter(|((la, lb), _)| *la == initiator || *lb == initiator)
            .map(|((la, lb), &c)| {
                let w = if *la == initiator { *lb } else { *la };
                vec![x.clone(), Value::Addr(NodeId(w)), Value::Int(c)]
            })
            .collect();
        inst.relation("chosen")
            .expect("chosen is in the schema")
            .set(chosen_rows)
            .expect("chosen rows match the schema");
        inst.relation("setLink")
            .expect("setLink is in the schema")
            .set(vec![vec![x.clone(), Value::Addr(NodeId(peer))]])
            .expect("setLink rows match the schema");
        let channel = inst
            .invoke_solver()
            .ok()
            .filter(|r| r.feasible && !r.trivial)
            .and_then(|r| r.table("assign").first().and_then(|row| row[2].as_int()))
            .unwrap_or(config.channels[0]);
        assignment.insert(link_key(initiator, peer), channel);
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_generation_is_deterministic() {
        let config = WirelessConfig::tiny();
        let a = MeshNetwork::generate(&config);
        let b = MeshNetwork::generate(&config);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.primary_users, b.primary_users);
        assert_eq!(a.topology.num_nodes(), 9);
        assert_eq!(a.links().len(), 12);
    }

    #[test]
    fn shortest_path_connects_grid_corners() {
        let mesh = MeshNetwork::generate(&WirelessConfig::tiny());
        let path = mesh.shortest_path(0, 8);
        assert_eq!(path.first(), Some(&0));
        assert_eq!(path.last(), Some(&8));
        assert_eq!(path.len(), 5); // 4 hops across a 3x3 grid
    }

    #[test]
    fn interference_counts_depend_on_channels() {
        let mesh = MeshNetwork::generate(&WirelessConfig::tiny());
        let links = mesh.links();
        // everything on one channel: lots of interference
        let same: ChannelAssignment = links.iter().map(|&l| (l, 1)).collect();
        // spread channels far apart
        let spread: ChannelAssignment = links
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, 1 + 10 * (i as i64 % 3)))
            .collect();
        let link = links[0];
        let same_count = interference_count(&mesh, &same, link, 2, 2);
        let spread_count = interference_count(&mesh, &spread, link, 2, 2);
        assert!(same_count > spread_count);
        // one-hop model never counts more than the two-hop model
        assert!(
            interference_count(&mesh, &same, link, 2, 1)
                <= interference_count(&mesh, &same, link, 2, 2)
        );
    }

    #[test]
    fn throughput_saturates_with_offered_load() {
        let mesh = MeshNetwork::generate(&WirelessConfig::tiny());
        let assignment = one_interface_assignment(&mesh);
        let low = aggregate_throughput(&mesh, &assignment, 0.5, false);
        let high = aggregate_throughput(&mesh, &assignment, 50.0, false);
        assert!(low <= high + 1e-9);
        // offered load of 0 delivers 0
        assert_eq!(aggregate_throughput(&mesh, &assignment, 0.0, false), 0.0);
    }

    #[test]
    fn centralized_assignment_respects_primary_users() {
        let mut config = WirelessConfig::tiny();
        config.primary_user_fraction = 1.0; // every node restricted
        let mesh = MeshNetwork::generate(&config);
        let assignment = centralized_assignment(&mesh, &config.channels);
        assert_eq!(assignment.len(), mesh.links().len());
        for ((a, b), ch) in &assignment {
            assert!(config.channels.contains(ch));
            for node in [a, b] {
                if let Some(banned) = mesh.primary_users.get(node) {
                    assert!(
                        !banned.contains(ch),
                        "link ({a},{b}) uses banned channel {ch}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_assignment_covers_all_links_and_avoids_neighbours() {
        let config = WirelessConfig::tiny();
        let mesh = MeshNetwork::generate(&config);
        let assignment = distributed_assignment(&mesh, &config.channels);
        assert_eq!(assignment.len(), mesh.links().len());
        for ch in assignment.values() {
            assert!(config.channels.contains(ch));
        }
        // diverse channel usage (not everything on one channel)
        let distinct: BTreeSet<i64> = assignment.values().copied().collect();
        assert!(
            distinct.len() > 1,
            "negotiation should use more than one channel"
        );
    }

    #[test]
    fn smarter_protocols_beat_baselines() {
        let config = WirelessConfig::tiny();
        let mesh = MeshNetwork::generate(&config);
        let distributed = distributed_assignment(&mesh, &config.channels);
        let single = one_interface_assignment(&mesh);
        let rate = 6.0;
        let t_distributed = aggregate_throughput(&mesh, &distributed, rate, false);
        let t_single = aggregate_throughput(&mesh, &single, rate, false);
        assert!(
            t_distributed >= t_single,
            "distributed ({t_distributed:.2}) must be at least 1-interface ({t_single:.2})"
        );
    }

    #[test]
    fn networked_negotiation_converges_on_quiet_network() {
        let config = WirelessConfig::tiny();
        let mesh = MeshNetwork::generate(&config);
        let out = networked_distributed_assignment(&mesh, &config.channels, FaultPlan::default());
        assert_eq!(out.assignment.len(), mesh.links().len());
        for ch in out.assignment.values() {
            assert!(config.channels.contains(ch));
        }
        // The quiet plan still runs the reliable delivery layer…
        assert!(out.delivery.data_packets_sent > 0);
        assert!(out.delivery.acks_sent > 0);
        // …but a perfect network never retransmits, drops or crashes.
        assert_eq!(out.delivery.retransmits, 0);
        assert_eq!(out.delivery.duplicates_dropped, 0);
        assert!(out.crash_log.is_empty());
        for t in out.traffic.values() {
            assert_eq!(t.messages_dropped, 0);
            assert_eq!(t.messages_duplicated, 0);
        }
        assert!(out.passes >= 2, "at least one refinement pass runs");
    }

    #[test]
    fn fig7_policies_produce_curves() {
        let config = WirelessConfig::tiny();
        let rates = [1.0, 4.0];
        let curves = run_fig7(&config, &rates);
        assert_eq!(curves.len(), 3);
        for curve in curves.values() {
            assert_eq!(curve.throughput.len(), rates.len());
            assert!(curve.peak() >= 0.0);
        }
    }
}
