//! `followsun_dist`: the paper's Fig. 4/5 case. Every operation is one whole
//! distributed Follow-the-Sun execution: ten data centers compiled and
//! deployed on the simulated (quiet) network, then one integer-domain COP per
//! link, negotiated one link at a time.

use std::time::Instant;

use cologne::datalog::{NodeId, RemoteTuple, Value};
use cologne::net::SimTime;
use cologne::Deployment;
use cologne_usecases::followsun::FollowSunWorkload;
use cologne_usecases::programs::FOLLOWSUN_DISTRIBUTED;
use cologne_usecases::{build_followsun_deployment, run_followsun, FollowSunConfig};

use super::{record_engine, record_search, trace_compile, warmup_ops, Round, Workload};
use crate::fixtures::Rng;
use crate::trace::Trace;

pub struct FollowSun {
    seed: u64,
    ops: usize,
    rng: Option<Rng>,
}

/// What the traced copy of the negotiation loop reports of one execution.
struct Replay {
    initial_cost: i64,
    final_cost: i64,
    costs: Vec<i64>,
}

impl FollowSun {
    pub fn new(seed: u64, ops: usize) -> Self {
        FollowSun {
            seed,
            ops,
            rng: None,
        }
    }

    /// The next execution's topology and costs are drawn by the use case's
    /// own generator from a seed this stream supplies.
    fn next_config(rng: &mut Rng) -> FollowSunConfig {
        FollowSunConfig {
            data_centers: 10,
            solver_node_limit: 500,
            seed: rng.next_u64(),
            ..FollowSunConfig::default()
        }
    }

    /// Count one execution and check its cost series never rises.
    fn account(round: &mut Round, outcome: &cologne_usecases::FollowSunOutcome) {
        let rising = outcome
            .cost_series
            .windows(2)
            .any(|w| w[1].normalized_cost > w[0].normalized_cost + 1e-9);
        if rising {
            round
                .errors
                .push("the Follow-the-Sun cost series rises".into());
        }
        if outcome.solver_invocations == 0 {
            round.failed += 1;
        }
        round.add("n.runs", 1.0);
        round.add("sum.cost_reduction_pct", 100.0 * outcome.cost_reduction());
        round.add("sum.overhead_kbps", outcome.per_node_overhead_kbps);
        round.add("dist.solver_invocations", outcome.solver_invocations as f64);
        record_search(round, &outcome.solver_stats);
    }
}

fn set_curvm(driver: &mut Deployment, workload: &FollowSunWorkload, node: u32) {
    let rows = (0..workload.alloc.len())
        .map(|d| {
            vec![
                Value::Addr(NodeId(node)),
                Value::Int(d as i64),
                Value::Int(workload.alloc[node as usize][d]),
            ]
        })
        .collect();
    let instance = driver.instance_mut(NodeId(node)).expect("node exists");
    instance
        .relation("curVm")
        .expect("curVm is in the schema")
        .set(rows)
        .expect("curVm rows match the schema");
    let out = instance.run_rules();
    driver.ship(NodeId(node), out);
}

/// The benchmark's copy of the quiet-network negotiation loop of
/// `run_followsun`, over the same public `Deployment` calls, with a span
/// around each of them. The output check holds it to the original's costs.
fn replay(config: &FollowSunConfig, trace: &mut Trace, round: &mut Round) -> Replay {
    let mut workload = FollowSunWorkload::generate(config);
    let mut driver = trace.span("dist.build", || {
        build_followsun_deployment(config, &workload)
    });
    let initial_cost = workload.allocation_cost();
    let mut migration_cost = 0i64;
    let mut costs = vec![initial_cost];

    for (link, &(a, b)) in workload.topology.links().iter().enumerate() {
        let (initiator, peer) = (a.max(b), a.min(b));
        let deadline = SimTime::from_secs((link as u64 + 1) * config.negotiation_period_secs);
        let mut events = trace.span("net.run", || driver.run_messages_until(deadline));
        trace.span("datalog.apply", || {
            driver
                .insert(
                    NodeId(initiator),
                    "setLink",
                    vec![Value::Addr(NodeId(initiator)), Value::Addr(NodeId(peer))],
                )
                .expect("setLink matches the schema")
        });
        events += trace.span("net.run", || driver.run_messages_until(deadline));

        let keep_cost: i64 = [initiator, peer]
            .iter()
            .map(|&x| {
                let x = x as usize;
                (0..workload.alloc.len())
                    .map(|d| workload.alloc[x][d] * (workload.op_cost + workload.comm_cost[x][d]))
                    .sum::<i64>()
            })
            .sum();
        let invoke = trace.enter("invoke");
        let report = driver
            .instance_mut(NodeId(initiator))
            .expect("initiator exists")
            .invoke_solver();
        trace.exit(invoke);
        let mut outgoing: Vec<RemoteTuple> = Vec::new();
        if let Ok(report) = report {
            // the search's own clock, nested where it ran
            trace.nest(invoke, "search", report.stats.elapsed_micros * 1000);
            let improves = report.objective.is_some_and(|obj| obj < keep_cost);
            if report.feasible && !report.trivial && improves {
                for row in report.table("migVm") {
                    let (Some(y), Some(d), Some(r)) =
                        (row[1].as_addr(), row[2].as_int(), row[3].as_int())
                    else {
                        continue;
                    };
                    if r == 0 {
                        continue;
                    }
                    outgoing.push(RemoteTuple {
                        dest: y,
                        relation: "migVm".into(),
                        tuple: vec![
                            Value::Addr(y),
                            Value::Addr(NodeId(initiator)),
                            Value::Int(d),
                            Value::Int(-r),
                        ],
                        insert: true,
                    });
                    migration_cost += workload.apply_migration(initiator, y.0, d as usize, r);
                }
            }
        }
        trace.span("datalog.apply", || {
            driver.ship(NodeId(initiator), outgoing);
            set_curvm(&mut driver, &workload, initiator);
            set_curvm(&mut driver, &workload, peer);
            driver
                .instance_mut(NodeId(initiator))
                .expect("initiator exists")
                .relation("setLink")
                .expect("setLink is in the schema")
                .set(vec![])
                .expect("empty refresh is valid");
        });
        events += trace.span("net.run", || driver.run_messages_until(deadline));
        round.add("net.events", events as f64);
        costs.push(workload.allocation_cost() + migration_cost);
    }

    for node in workload.topology.nodes() {
        let traffic = driver.traffic(NodeId(node));
        round.add("net.messages_sent", traffic.messages_sent as f64);
        round.add("net.bytes_sent", traffic.bytes_sent as f64);
        round.add("net.messages_dropped", traffic.messages_dropped as f64);
        round.add(
            "net.messages_duplicated",
            traffic.messages_duplicated as f64,
        );
        let instance = driver.instance(NodeId(node)).expect("node exists");
        record_engine(round, instance.engine_stats(), None);
    }
    let delivery = driver.delivery_stats();
    round.add("dist.data_packets", delivery.data_packets_sent as f64);
    round.add("dist.retransmits", delivery.retransmits as f64);
    round.add("dist.acks", delivery.acks_sent as f64);
    Replay {
        initial_cost,
        final_cost: workload.allocation_cost() + migration_cost,
        costs,
    }
}

impl Workload for FollowSun {
    fn setup(&mut self, round: u64, _traced: bool) {
        // Nothing outlives an execution; set-up is the warm-up alone, three
        // executions at least so that one odd topology does not set it.
        let mut rng = Rng::new(self.seed, round);
        for _ in 0..warmup_ops(self.ops).max(3) {
            std::hint::black_box(run_followsun(&Self::next_config(&mut rng)));
        }
        self.rng = Some(rng);
    }

    fn run(&mut self) -> Round {
        let mut rng = self.rng.take().expect("setup ran");
        let mut round = Round::default();
        for _ in 0..self.ops {
            let config = Self::next_config(&mut rng);
            let t = Instant::now();
            let outcome = run_followsun(&config);
            round.op_done(t.elapsed().as_nanos() as u64);
            Self::account(&mut round, &outcome);
        }
        round
    }

    fn run_traced(&mut self, trace: &mut Trace) -> Round {
        let mut rng = self.rng.take().expect("setup ran");
        let mut round = Round::default();
        for _ in 0..self.ops {
            let config = Self::next_config(&mut rng);
            trace.next_op();
            let t = Instant::now();
            let op = trace.enter("op");
            let replayed = replay(&config, trace, &mut round);
            trace.exit(op);
            round.op_done(t.elapsed().as_nanos() as u64);
            trace_compile(trace, FOLLOWSUN_DISTRIBUTED);

            let outcome = run_followsun(&config);
            Self::account(&mut round, &outcome);
            if (replayed.initial_cost, replayed.final_cost)
                != (outcome.initial_cost, outcome.final_cost)
            {
                round.errors.push(format!(
                    "the traced loop ends at cost {} from {}, run_followsun at {} from {}",
                    replayed.final_cost,
                    replayed.initial_cost,
                    outcome.final_cost,
                    outcome.initial_cost
                ));
            }
            if replayed.costs.windows(2).any(|w| w[1] > w[0]) {
                round
                    .errors
                    .push("the traced loop's cost series rises".into());
            }
        }
        round
    }
}
