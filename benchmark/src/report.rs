//! The metric catalog — every name, unit, direction and bound the benchmark
//! reports, in the order of `BENCHMARK.json` — and the reduction of a run's
//! rounds to those metrics.

use std::collections::BTreeMap;

use crate::stats::{median, percentile, sorted_ms, spread};
use crate::workloads::Round;

/// A metric a user of the system would see, measured with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "op_ms_p90", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2 },
];

/// Where a per-layer metric's value comes from.
pub enum Source {
    /// A counter summed over the round, per operation.
    PerOp,
    /// One summed counter over another (0 when the denominator is 0).
    Ratio(&'static str, &'static str),
    /// Self time of the spans of this name, microseconds per operation.
    SelfTime(&'static str),
    /// Worked out from other values in [`per_layer`].
    Derived,
}

/// A metric of one layer, from the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Declared in `BENCHMARK.json`; per-layer metrics carry no bound, so
    /// nothing at run time reads the direction.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    pub source: Source,
    /// True when the value is fixed by seed and budgets: two runs of the
    /// same code must print it identically.
    pub exact: bool,
}

const fn count(name: &'static str, better: &'static str) -> Layer {
    Layer {
        name,
        unit: "count",
        better,
        source: Source::PerOp,
        exact: true,
    }
}

const fn ratio(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    num: &'static str,
    den: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source: Source::Ratio(num, den),
        exact: true,
    }
}

const fn time(name: &'static str, span: &'static str) -> Layer {
    Layer {
        name,
        unit: "us",
        better: "lower",
        source: Source::SelfTime(span),
        exact: false,
    }
}

const fn derived(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    exact: bool,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source: Source::Derived,
        exact,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: [Layer; 81] = [
    // outcome of the operations: quality, traffic and failures
    derived("fail_ratio", "ratio", "lower", true),
    ratio("objective_mean", "cost", "lower", "sum.objective", "n.solves"),
    ratio("proved_ratio", "ratio", "higher", "n.proved", "n.solves"),
    ratio("cost_reduction_pct", "%", "higher", "sum.cost_reduction_pct", "n.runs"),
    ratio("overhead_kbps", "KB/s", "lower", "sum.overhead_kbps", "n.runs"),
    ratio("throughput_mbps", "Mb/s", "higher", "sum.throughput_mbps", "n.runs"),
    derived("load_tuples_per_s", "1/s", "higher", false),
    derived("op_ms_p50_spread", "ratio", "lower", false),
    // colog
    time("colog.parse_us", "colog.parse"),
    time("colog.analyze_us", "colog.analyze"),
    // datalog
    time("datalog.apply_us", "datalog.apply"),
    time("datalog.run_us", "datalog.run"),
    count("datalog.derivations", "lower"),
    count("datalog.updates", "lower"),
    count("datalog.agg_recomputes", "lower"),
    count("datalog.remote_sends", "lower"),
    ratio("datalog.useful_ratio", "ratio", "higher", "datalog.updates", "datalog.derivations"),
    // core.ground
    time("ground.us", "ground"),
    count("ground.vars", "lower"),
    count("ground.propagators", "lower"),
    count("ground.plan_builds", "lower"),
    count("ground.full_rebuilds", "lower"),
    count("ground.incremental_builds", "higher"),
    derived("ground.reuse_ratio", "ratio", "higher", true),
    // solver.bounds
    time("bounds.root_us", "bounds.root"),
    ratio("bounds.gap_mean", "ratio", "lower", "sum.gap", "n.gap"),
    // solver.search
    time("search.us", "search"),
    count("search.nodes", "lower"),
    count("search.fails", "lower"),
    count("search.propagations", "lower"),
    count("search.prunings", "lower"),
    count("search.solutions", "higher"),
    derived("search.nodes_per_s", "1/s", "higher", false),
    count("search.lns_iterations", "lower"),
    count("search.lns_improvements", "higher"),
    ratio("search.lns_useful_ratio", "ratio", "higher", "search.lns_improvements", "search.lns_iterations"),
    ratio("search.warm_ratio", "ratio", "higher", "n.warm", "n.solves"),
    ratio("search.limit_ratio", "ratio", "lower", "n.limit", "n.solves"),
    // core.pipeline
    time("invoke.us", "invoke"),
    derived("invoke.materialize_us", "us", "lower", false),
    // net + core.distributed
    time("dist.build_us", "dist.build"),
    time("net.run_us", "net.run"),
    count("net.events", "lower"),
    count("net.messages_sent", "lower"),
    count("net.bytes_sent", "lower"),
    count("net.messages_dropped", "lower"),
    count("net.messages_duplicated", "lower"),
    count("dist.data_packets", "lower"),
    count("dist.retransmits", "lower"),
    count("dist.acks", "lower"),
    count("dist.duplicates_dropped", "lower"),
    count("dist.out_of_order_buffered", "lower"),
    ratio("dist.retransmit_ratio", "ratio", "lower", "dist.retransmits", "dist.data_packets"),
    count("dist.solver_invocations", "lower"),
    count("dist.passes", "lower"),
    // serve.wire
    time("wire.encode_us", "wire.encode"),
    time("wire.decode_us", "wire.decode"),
    count("wire.bytes_out", "lower"),
    count("wire.bytes_in", "lower"),
    // serve.server
    time("server.inproc_us", "server.inproc"),
    derived("server.overhead_us", "us", "lower", false),
    count("server.solves", "lower"),
    count("server.ingest_ops", "lower"),
    count("server.accepted", "lower"),
    count("server.overloaded", "lower"),
    count("server.rejected_busy", "lower"),
    derived("server.refused_ratio", "ratio", "lower", true),
    // serve.client
    time("client.connect_us", "client.connect"),
    time("client.hello_us", "client.hello"),
    time("client.ingest_us", "client.ingest"),
    time("client.solve_us", "client.solve"),
    time("client.bye_us", "client.bye"),
    derived("client.op_ms_p99", "ms", "lower", false),
    // the traced operation as a whole
    derived("trace.op_us", "us", "lower", false),
    time("trace.other_us", "op"),
    derived("trace.overhead_pct", "%", "lower", false),
    derived("trace.rounds", "count", "higher", false),
    derived("trace.ops_per_round", "count", "higher", true),
    derived("search.share_pct", "%", "lower", false),
    derived("datalog.share_pct", "%", "lower", false),
    derived("bounds.share_pct", "%", "lower", false),
];

/// A measured metric: name, unit, value.
pub type Value = (&'static str, &'static str, f64);

/// One round as the runner measured it.
pub struct Measured {
    pub traced: bool,
    pub setup_ns: u64,
    pub round: Round,
    /// Self time per span name over the round (traced rounds only).
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Measured {
    fn ops(&self) -> f64 {
        self.round.op_ns.len().max(1) as f64
    }

    /// Latency percentile of the round's operations, in milliseconds.
    pub fn p(&self, p: f64) -> f64 {
        percentile(&sorted_ms(&self.round.op_ns), p)
    }

    fn count(&self, name: &str) -> f64 {
        self.round.counts.get(name).copied().unwrap_or(0.0)
    }

    fn self_us_per_op(&self, span: &str) -> f64 {
        self.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e3 / self.ops()
    }
}

fn median_of(rounds: &[&Measured], f: impl Fn(&Measured) -> f64) -> f64 {
    let values: Vec<f64> = rounds.iter().map(|m| f(m)).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

fn div(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of a run, from its untraced rounds: each is the
/// median over rounds of that round's value. The shared cores stall for
/// seconds at a time; a stall spoils the rounds it hits, and the median
/// leaves those out where a pooled tail percentile or mean would not.
pub fn end_to_end(rounds: &[Measured], peak_rss_mb: f64) -> Vec<Value> {
    let plain: Vec<&Measured> = rounds.iter().filter(|m| !m.traced).collect();
    END_TO_END
        .iter()
        .map(|metric| {
            let value = match metric.name {
                "setup_s" => median_of(&plain, |m| m.setup_ns as f64 / 1e9),
                "op_ms_p50" => median_of(&plain, |m| m.p(50.0)),
                "op_ms_p90" => median_of(&plain, |m| m.p(90.0)),
                "ops_per_s" => median_of(&plain, |m| m.ops() * 1e9 / m.round.wall_ns.max(1) as f64),
                "peak_rss_mb" => peak_rss_mb,
                other => unreachable!("end-to-end metric {other} has no reduction"),
            };
            (metric.name, metric.unit, value)
        })
        .collect()
}

/// The per-layer metrics of a traced run. Counters and quality come from the
/// first traced round alone, whose operations are fixed by the seed; times
/// are medians over the traced rounds; the untraced rounds give the baseline
/// the tracing overhead is measured against.
pub fn per_layer(rounds: &[Measured]) -> Vec<Value> {
    let plain: Vec<&Measured> = rounds.iter().filter(|m| !m.traced).collect();
    let traced: Vec<&Measured> = rounds.iter().filter(|m| m.traced).collect();
    let first = traced.first().expect("a traced run has a traced round");
    let time_of = |span: &str| median_of(&traced, |m| m.self_us_per_op(span));
    let op_us = median_of(&traced, |m| {
        m.round.op_ns.iter().sum::<u64>() as f64 / 1e3 / m.ops()
    });
    let attempted: f64 = rounds.iter().map(|m| m.ops()).sum();
    let failed: f64 = rounds.iter().map(|m| m.round.failed as f64).sum();
    PER_LAYER
        .iter()
        .map(|layer| {
            let value = match layer.source {
                Source::PerOp => first.count(layer.name) / first.ops(),
                Source::Ratio(num, den) => div(first.count(num), first.count(den)),
                Source::SelfTime(span) => time_of(span),
                Source::Derived => match layer.name {
                    "fail_ratio" => div(failed, attempted),
                    "load_tuples_per_s" => median_of(&plain, |m| {
                        div(m.count("load.tuples") * 1e9, m.count("load.ns"))
                    }),
                    "op_ms_p50_spread" => {
                        spread(&plain.iter().map(|m| m.p(50.0)).collect::<Vec<_>>())
                    }
                    "ground.reuse_ratio" => div(
                        first.count("ground.incremental_builds"),
                        first.count("ground.incremental_builds")
                            + first.count("ground.full_rebuilds"),
                    ),
                    "search.nodes_per_s" => median_of(&traced, |m| {
                        div(m.count("search.nodes") * 1e6, m.count("search.elapsed_us"))
                    }),
                    "invoke.materialize_us" => {
                        (time_of("invoke") - time_of("ground") - time_of("search")).max(0.0)
                    }
                    "server.overhead_us" => {
                        if time_of("server.inproc") == 0.0 {
                            0.0
                        } else {
                            (op_us - time_of("server.inproc")).max(0.0)
                        }
                    }
                    "server.refused_ratio" => div(
                        first.count("server.overloaded") + first.count("server.rejected_busy"),
                        first.ops(),
                    ),
                    "client.op_ms_p99" => median_of(
                        &plain
                            .iter()
                            .copied()
                            .filter(|m| m.round.op_ns.len() >= 1000)
                            .collect::<Vec<_>>(),
                        |m| m.p(99.0),
                    ),
                    "trace.op_us" => op_us,
                    "trace.overhead_pct" => {
                        100.0
                            * (div(
                                median_of(&traced, |m| m.p(50.0)),
                                median_of(&plain, |m| m.p(50.0)),
                            ) - 1.0)
                    }
                    "trace.rounds" => traced.len() as f64,
                    "trace.ops_per_round" => first.ops(),
                    "search.share_pct" => 100.0 * div(time_of("search"), op_us),
                    "datalog.share_pct" => {
                        100.0 * div(time_of("datalog.apply") + time_of("datalog.run"), op_us)
                    }
                    "bounds.share_pct" => 100.0 * div(time_of("bounds.root"), op_us),
                    other => unreachable!("derived metric {other} has no rule"),
                },
            };
            (layer.name, layer.unit, value)
        })
        .collect()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_name(values: Vec<Value>) -> BTreeMap<&'static str, f64> {
        values.into_iter().map(|(name, _, v)| (name, v)).collect()
    }

    fn measured(traced: bool, op_ms: &[f64], setup_ms: f64) -> Measured {
        let mut round = Round::default();
        for ms in op_ms {
            round.op_done((ms * 1e6) as u64);
        }
        Measured {
            traced,
            setup_ns: (setup_ms * 1e6) as u64,
            round,
            self_ns: BTreeMap::new(),
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(crate::workloads::NAMES)
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    /// `BENCHMARK.json` at the repository root declares exactly this catalog.
    #[test]
    fn benchmark_json_declares_this_catalog() {
        use crate::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let field = |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();
        let list = |key: &str| doc.get(key).unwrap().as_array().unwrap().to_vec();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert!(list("workloads").iter().all(|w| {
            let why = field(w, "why");
            !why.is_empty() && why.len() <= 200 && !why.contains('\n')
        }));

        let declared: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").unwrap().as_f64().unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let catalog: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(declared, catalog);

        let declared: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let catalog: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(declared, catalog);

        let paths: Vec<&str> = doc
            .get("paths")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn wall_clock_metrics_are_medians_over_rounds() {
        // the middle round is the median on every metric; the stalled third
        // round moves nothing, and traced rounds never count
        let rounds = vec![
            measured(false, &[1.0, 1.0, 1.0, 2.0], 10.0),
            measured(false, &[1.1, 1.1, 1.1, 2.2], 11.0),
            measured(false, &[9.0, 9.0, 9.0, 9.0], 90.0),
            measured(true, &[100.0], 1000.0),
        ];
        let m = by_name(end_to_end(&rounds, 42.0));
        assert_eq!(m["setup_s"], 0.011);
        assert_eq!(m["op_ms_p50"], 1.1);
        assert_eq!(m["op_ms_p90"], 2.2);
        assert!((m["ops_per_s"] - 4.0 / 0.0055).abs() < 1e-6);
        assert_eq!(m["peak_rss_mb"], 42.0);
    }

    #[test]
    fn counters_come_from_the_first_traced_round_and_times_from_all() {
        let mut a = measured(true, &[2.0, 2.0], 1.0);
        a.round.add("search.nodes", 200.0);
        a.round.add("datalog.updates", 10.0);
        a.round.add("datalog.derivations", 40.0);
        a.self_ns.insert("search", 3_000_000);
        let mut b = measured(true, &[2.0, 2.0], 1.0);
        b.round.add("search.nodes", 999.0);
        b.self_ns.insert("search", 3_200_000);
        let base = measured(false, &[1.0, 1.0], 1.0);
        let m = by_name(per_layer(&[base, a, b]));
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["search.nodes"], 100.0);
        assert_eq!(m["datalog.useful_ratio"], 0.25);
        assert_eq!(m["search.us"], 1550.0);
        assert_eq!(m["trace.op_us"], 2000.0);
        assert_eq!(m["trace.overhead_pct"], 100.0);
        assert_eq!(m["search.share_pct"], 77.5);
        assert_eq!(m["objective_mean"], 0.0);
    }
}
