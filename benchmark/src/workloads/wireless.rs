//! `wireless_hostile`: the third paper use case on the retransmit path. Every
//! operation negotiates the channels of a whole 5x6 mesh, one tiny COP per
//! link, over a network that loses a fifth of the messages, duplicates a
//! tenth and jitters the rest. The use case is one monolithic function, so
//! this workload contributes counters and the operation time, not layer
//! times.

use std::time::Instant;

use cologne::net::{FaultPlan, LinkFaults};
use cologne_usecases::wireless::{aggregate_throughput, MeshNetwork};
use cologne_usecases::{networked_distributed_assignment, NetworkedAssignment, WirelessConfig};

use super::{warmup_ops, Round, Workload};
use crate::fixtures::Rng;
use crate::trace::{span_if, Trace};

/// One mesh in this many is also negotiated over a quiet network; the
/// hostile run must converge to the same channels.
const QUIET_CHECK_EVERY: usize = 8;

pub struct Wireless {
    seed: u64,
    ops: usize,
    rng: Option<Rng>,
}

fn hostile_plan() -> FaultPlan {
    FaultPlan::seeded(7).link_faults(LinkFaults {
        loss: 0.2,
        duplicate: 0.1,
        jitter_us: 20_000,
    })
}

impl Wireless {
    pub fn new(seed: u64, ops: usize) -> Self {
        Wireless {
            seed,
            ops,
            rng: None,
        }
    }

    /// The next mesh: primary users and flows are drawn by the use case's
    /// own generator from a seed this stream supplies.
    fn next_mesh(rng: &mut Rng) -> (MeshNetwork, Vec<i64>) {
        let config = WirelessConfig {
            rows: 5,
            cols: 6,
            solver_node_limit: 5000,
            seed: rng.next_u64(),
            ..WirelessConfig::tiny()
        };
        (MeshNetwork::generate(&config), config.channels)
    }

    fn negotiate(&mut self, mut trace: Option<&mut Trace>) -> Round {
        let mut rng = self.rng.take().expect("setup ran");
        let mut round = Round::default();
        for i in 0..self.ops {
            let (mesh, channels) = Self::next_mesh(&mut rng);
            let t = Instant::now();
            if let Some(trace) = trace.as_deref_mut() {
                trace.next_op();
            }
            let result = span_if(&mut trace, "op", || {
                networked_distributed_assignment(&mesh, &channels, hostile_plan())
            });
            round.op_done(t.elapsed().as_nanos() as u64);
            account(&mut round, &mesh, &result);
            if i % QUIET_CHECK_EVERY == 0 {
                let quiet =
                    networked_distributed_assignment(&mesh, &channels, FaultPlan::default());
                if quiet.assignment != result.assignment {
                    round
                        .errors
                        .push("hostile and quiet negotiations chose different channels".into());
                }
            }
        }
        round
    }
}

fn account(round: &mut Round, mesh: &MeshNetwork, result: &NetworkedAssignment) {
    if result.assignment.len() != mesh.links().len() {
        round.failed += 1;
    }
    round.add("n.runs", 1.0);
    round.add(
        "sum.throughput_mbps",
        aggregate_throughput(mesh, &result.assignment, 6.0, false),
    );
    round.add("dist.passes", result.passes as f64);
    let d = &result.delivery;
    round.add("dist.data_packets", d.data_packets_sent as f64);
    round.add("dist.retransmits", d.retransmits as f64);
    round.add("dist.acks", d.acks_sent as f64);
    round.add("dist.duplicates_dropped", d.duplicates_dropped as f64);
    round.add("dist.out_of_order_buffered", d.out_of_order_buffered as f64);
    for traffic in result.traffic.values() {
        round.add("net.messages_sent", traffic.messages_sent as f64);
        round.add("net.bytes_sent", traffic.bytes_sent as f64);
        round.add("net.messages_dropped", traffic.messages_dropped as f64);
        round.add(
            "net.messages_duplicated",
            traffic.messages_duplicated as f64,
        );
    }
}

impl Workload for Wireless {
    fn setup(&mut self, round: u64, _traced: bool) {
        // Nothing outlives a negotiation; set-up is the warm-up alone, three
        // negotiations at least so that one odd mesh does not set it.
        let mut rng = Rng::new(self.seed, round);
        for _ in 0..warmup_ops(self.ops).max(3) {
            let (mesh, channels) = Self::next_mesh(&mut rng);
            std::hint::black_box(networked_distributed_assignment(
                &mesh,
                &channels,
                hostile_plan(),
            ));
        }
        self.rng = Some(rng);
    }

    fn run(&mut self) -> Round {
        self.negotiate(None)
    }

    fn run_traced(&mut self, trace: &mut Trace) -> Round {
        self.negotiate(Some(trace))
    }
}
