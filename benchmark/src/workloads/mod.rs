//! The seven workloads. Each is a closed loop: the next operation starts when
//! the previous one has answered. A run is a sequence of *rounds*; a round
//! builds fresh state from the seed (timed as set-up, warm-up included) and
//! then times a fixed number of operations on it.

use std::collections::BTreeMap;

use cologne::datalog::EngineStats;
use cologne::solver::SearchStats;
use cologne::PipelineStats;

use crate::trace::Trace;

pub mod acloud;
pub mod datalog;
pub mod followsun;
pub mod serve;
pub mod wireless;

/// Workload names, in the order they are run and reported.
pub const NAMES: [&str; 7] = [
    "acloud_resolve",
    "acloud_scale",
    "datalog_churn",
    "followsun_dist",
    "wireless_hostile",
    "serve_steady",
    "serve_sessions",
];

/// Counters and sums of one round, by per-layer metric name. Per-operation
/// means and ratios are derived from them in `report`.
pub type Counts = BTreeMap<&'static str, f64>;

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Latency of every completed operation, all clients.
    pub op_ns: Vec<u64>,
    /// Time the slowest client spent inside operations (output checks run
    /// between operations and are not in it).
    pub wall_ns: u64,
    /// Operations that failed, were refused, or ended without a solution.
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub errors: Vec<String>,
    pub counts: Counts,
}

impl Round {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// Record a completed operation of a single-client workload.
    pub fn op_done(&mut self, ns: u64) {
        self.op_ns.push(ns);
        self.wall_ns += ns;
    }

    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// Work counters of the searches behind one operation.
pub fn record_search(round: &mut Round, stats: &SearchStats) {
    round.add("search.elapsed_us", stats.elapsed_micros as f64);
    round.add("search.nodes", stats.nodes as f64);
    round.add("search.fails", stats.fails as f64);
    round.add("search.propagations", stats.propagations as f64);
    round.add("search.prunings", stats.prunings as f64);
    round.add("search.solutions", stats.solutions as f64);
    round.add("search.lns_iterations", stats.lns_iterations as f64);
    round.add("search.lns_improvements", stats.lns_improvements as f64);
}

/// Engine counters accumulated since `before` (since the engine was built
/// when `None`).
pub fn record_engine(round: &mut Round, now: &EngineStats, before: Option<&EngineStats>) {
    let zero = EngineStats::default();
    let before = before.unwrap_or(&zero);
    round.add(
        "datalog.derivations",
        (now.derivations - before.derivations) as f64,
    );
    round.add("datalog.updates", (now.updates - before.updates) as f64);
    round.add(
        "datalog.agg_recomputes",
        (now.aggregate_recomputes - before.aggregate_recomputes) as f64,
    );
    round.add(
        "datalog.remote_sends",
        (now.remote_sends - before.remote_sends) as f64,
    );
}

/// Grounding-pipeline counters accumulated since `before`.
pub fn record_pipeline(round: &mut Round, now: PipelineStats, before: Option<PipelineStats>) {
    let before = before.unwrap_or_default();
    round.add(
        "ground.plan_builds",
        (now.plan_builds - before.plan_builds) as f64,
    );
    round.add(
        "ground.full_rebuilds",
        (now.full_rebuilds - before.full_rebuilds) as f64,
    );
    round.add(
        "ground.incremental_builds",
        (now.incremental_builds - before.incremental_builds) as f64,
    );
}

pub trait Workload {
    /// Build fresh state for input round `round` and warm it up. `traced`
    /// rounds also build the twins the staged replay needs.
    fn setup(&mut self, round: u64, traced: bool);
    /// Time the round's operations through the one-shot public calls.
    fn run(&mut self) -> Round;
    /// Replay the round through the staged public calls, recording a span at
    /// every layer boundary.
    fn run_traced(&mut self, trace: &mut Trace) -> Round;
}

/// The workload `name` with its inputs drawn from `seed`. `ops` overrides
/// the operations per round (tests use tens of them).
pub fn build(name: &str, seed: u64, ops: Option<usize>) -> Option<Box<dyn Workload>> {
    Some(match name {
        "acloud_resolve" => Box::new(acloud::Acloud::resolve(seed, ops.unwrap_or(80))),
        "acloud_scale" => Box::new(acloud::Acloud::scale(seed, ops.unwrap_or(8))),
        "datalog_churn" => Box::new(datalog::Churn::new(seed, ops.unwrap_or(60), 100_000)),
        "followsun_dist" => Box::new(followsun::FollowSun::new(seed, ops.unwrap_or(20))),
        "wireless_hostile" => Box::new(wireless::Wireless::new(seed, ops.unwrap_or(30))),
        "serve_steady" => Box::new(serve::Serve::steady(seed, ops.unwrap_or(2500))),
        "serve_sessions" => Box::new(serve::Serve::sessions(seed, ops.unwrap_or(500))),
        _ => return None,
    })
}

/// Time one compilation of a workload's Colog source, as spans of their own
/// beside the operation: parsing, then localization and analysis.
pub fn trace_compile(trace: &mut Trace, source: &str) {
    use cologne::colog::{analyze, localize_rules, parse_program, Program};
    let parsed = trace
        .span("colog.parse", || parse_program(source))
        .expect("the workload's program parses");
    trace.span("colog.analyze", || {
        let rules = localize_rules(&parsed.rules).expect("the program localizes");
        analyze(&Program {
            goal: parsed.goal,
            vars: parsed.vars,
            rules,
        })
        .expect("the program analyzes")
    });
}

/// Untimed warm-up operations before a round of `ops`: 5 %, at least one.
pub fn warmup_ops(ops: usize) -> usize {
    (ops / 20).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums that are clock readings, not counters.
    const CLOCKS: [&str; 2] = ["search.elapsed_us", "load.ns"];

    fn tiny(name: &str, seed: u64) -> Box<dyn Workload> {
        match name {
            // the engine scales down with the row count; the rules stay
            "datalog_churn" => Box::new(datalog::Churn::new(seed, 20, 2000)),
            "acloud_scale" => build(name, seed, Some(2)).unwrap(),
            "followsun_dist" | "wireless_hostile" => build(name, seed, Some(3)).unwrap(),
            _ => build(name, seed, Some(20)).unwrap(),
        }
    }

    fn one_round(name: &str, seed: u64, traced: bool) -> (Round, Trace) {
        let mut workload = tiny(name, seed);
        let mut trace = Trace::new(std::time::Instant::now());
        workload.setup(0, traced);
        let round = if traced {
            workload.run_traced(&mut trace)
        } else {
            workload.run()
        };
        (round, trace)
    }

    fn counters(round: &Round) -> Counts {
        let mut counts = round.counts.clone();
        counts.retain(|name, _| !CLOCKS.contains(name));
        counts
    }

    /// Every workload, a few operations: the output checks pass, nothing
    /// fails, and two runs of one seed count the same work to the digit.
    #[test]
    fn every_workload_passes_its_checks_and_repeats_its_counters() {
        for name in NAMES {
            let (plain, _) = one_round(name, 7, false);
            assert_eq!(plain.errors, Vec::<String>::new(), "{name}");
            assert_eq!(plain.failed, 0, "{name}");
            assert!(!plain.op_ns.is_empty(), "{name}");
            assert!(plain.wall_ns > 0, "{name}");

            let (first, trace) = one_round(name, 7, true);
            let (second, _) = one_round(name, 7, true);
            assert_eq!(first.errors, Vec::<String>::new(), "{name} traced");
            assert_eq!(first.failed, 0, "{name} traced");
            assert_eq!(counters(&first), counters(&second), "{name}");
            assert_eq!(first.op_ns.len(), plain.op_ns.len(), "{name}");
            // the real path's counters do not depend on whether it is traced
            for (counter, value) in counters(&plain) {
                assert_eq!(first.counts.get(counter), Some(&value), "{name} {counter}");
            }

            // one `op` span per operation, and the lines sum to them
            let ops: Vec<_> = trace.spans.iter().filter(|s| s.name == "op").collect();
            assert_eq!(ops.len(), first.op_ns.len(), "{name}");
            let own = crate::trace::self_times(&trace.spans);
            let roots: u64 = trace
                .spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            assert_eq!(own.values().sum::<u64>(), roots, "{name}");
        }
    }

    #[test]
    fn another_seed_draws_other_inputs() {
        let (a, _) = one_round("acloud_resolve", 7, false);
        let (b, _) = one_round("acloud_resolve", 8, false);
        assert_ne!(a.counts["sum.objective"], b.counts["sum.objective"]);
    }

    #[test]
    fn unknown_names_are_refused() {
        assert!(build("acloud", 1, None).is_none());
        for name in NAMES {
            assert!(build(name, 1, None).is_some());
        }
    }
}
