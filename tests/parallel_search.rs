//! The parallel LNS portfolio (`LnsConfig::workers ≥ 2`), the one parallel
//! search engine. On random models it must stay sound against the
//! sequential exact optimum and be rerun-deterministic; on the large ACloud
//! scenario a seeded run must be byte-identical across reruns.

use std::num::NonZeroUsize;

use proptest::prelude::*;

use cologne::solver::{
    Branching, LnsConfig, Model, SearchConfig, SearchOutcome, StopReason, ValueChoice,
    DEFAULT_SPLIT_THRESHOLD,
};
use cologne::{SolveReport, SolverMode};
use cologne_usecases::{solve_large_acloud, LargeAcloudConfig};

/// The observables of a search with wall-clock time excluded, so reruns can
/// be compared whole.
fn outcome_fingerprint(out: &SearchOutcome) -> impl PartialEq + std::fmt::Debug {
    let mut stats = out.stats.clone();
    stats.elapsed_micros = 0;
    (
        out.best.clone(),
        out.best_objective,
        out.solutions.clone(),
        out.stop,
        stats,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random linear/disequality COPs, under every branching and value
    /// heuristic, a 2-worker portfolio records only feasible incumbents,
    /// never beats the sequential exact optimum, matches it whenever it
    /// claims completeness, and reruns identically.
    #[test]
    fn random_models_portfolio_agrees_with_exact(
        num_vars in 2usize..6,
        bounds in prop::collection::vec((-4i64..2, 2i64..14), 2..6),
        constraints in prop::collection::vec(
            (prop::collection::vec(-3i64..4, 2..6), -10i64..20, 0u8..4),
            1..6
        ),
        objective_coeffs in prop::collection::vec(-3i64..4, 2..6),
        heuristics in (0u8..2, 0u8..2, 0u8..2),
        maximize in prop::bool::ANY,
    ) {
        let mut m = Model::new();
        let vars: Vec<_> = (0..num_vars)
            .map(|i| {
                let (lo, hi) = bounds[i % bounds.len()];
                m.new_var(lo, hi)
            })
            .collect();
        for (coeffs, bound, kind) in &constraints {
            let terms: Vec<(i64, _)> = coeffs
                .iter()
                .zip(vars.iter())
                .map(|(&c, &v)| (c, v))
                .collect();
            match kind % 4 {
                0 => m.linear_le(&terms, *bound),
                1 => m.linear_ge(&terms, *bound),
                2 => m.linear_eq(&terms, *bound),
                _ => m.linear_ne(&terms, *bound),
            }
        }
        let obj_terms: Vec<(i64, _)> = objective_coeffs
            .iter()
            .zip(vars.iter())
            .map(|(&c, &v)| (c, v))
            .collect();
        let obj = m.linear_var(&obj_terms, 0);
        let exact_cfg = SearchConfig {
            branching: [Branching::InputOrder, Branching::SmallestDomain][heuristics.0 as usize],
            value_choice: [ValueChoice::Min, ValueChoice::ClosestToZero][heuristics.1 as usize],
            split_threshold: [Some(DEFAULT_SPLIT_THRESHOLD), Some(2)][heuristics.2 as usize],
            ..Default::default()
        };
        let portfolio_cfg = SearchConfig {
            mode: SolverMode::Lns(LnsConfig {
                workers: NonZeroUsize::new(2),
                ..Default::default()
            }),
            node_limit: Some(20_000),
            ..exact_cfg.clone()
        };
        let solve = |cfg: &SearchConfig| {
            if maximize {
                m.maximize(obj, cfg)
            } else {
                m.minimize(obj, cfg)
            }
        };
        let exact = solve(&exact_cfg);
        prop_assert_eq!(exact.stop, StopReason::Complete);
        let portfolio = solve(&portfolio_cfg);

        for a in portfolio.solutions.iter().chain(&portfolio.best) {
            for p in m.propagators() {
                prop_assert!(p.check(&|v| a.value(v)), "{} violated", p.name());
            }
        }
        match (portfolio.best_objective, exact.best_objective) {
            (Some(found), Some(optimum)) => {
                let never_better = if maximize { found <= optimum } else { found >= optimum };
                prop_assert!(never_better, "portfolio {found} beats the optimum {optimum}");
                if portfolio.stop == StopReason::Complete {
                    prop_assert_eq!(found, optimum);
                }
            }
            (Some(found), None) => prop_assert!(false, "portfolio {found} on an infeasible model"),
            (None, _) => prop_assert!(portfolio.stop != StopReason::Complete || exact.best.is_none()),
        }

        let rerun = solve(&portfolio_cfg);
        prop_assert_eq!(outcome_fingerprint(&rerun), outcome_fingerprint(&portfolio));
    }
}

/// Fingerprint of a pipeline-level solve, with wall-clock time excluded so
/// reruns can be compared byte-for-byte.
fn report_fingerprint(report: &SolveReport) -> impl PartialEq + std::fmt::Debug {
    let mut stats = report.stats.clone();
    stats.elapsed_micros = 0;
    (
        report.feasible,
        report.objective,
        report.proven_optimal,
        stats,
        report.assignments.clone(),
    )
}

/// The parallel LNS portfolio on the large ACloud scenario is byte-identical
/// across reruns at a fixed seed (modulo wall-clock time), finds a feasible
/// assignment, and records its portfolio shape in the stats.
#[test]
fn large_acloud_parallel_lns_rerun_is_byte_identical() {
    let config = LargeAcloudConfig {
        vms: 100,
        hosts: 8,
        node_limit: 8_000,
        seed: 23,
        workers: NonZeroUsize::new(4),
    };
    let first = solve_large_acloud(&config, SolverMode::Lns(config.lns_params()));
    let second = solve_large_acloud(&config, SolverMode::Lns(config.lns_params()));
    assert!(first.feasible, "portfolio finds a feasible incumbent");
    assert_eq!(first.stats.parallel_workers, 4);
    assert!(
        first.stats.portfolio_rounds > 0,
        "portfolio rounds recorded"
    );
    assert_eq!(
        report_fingerprint(&first),
        report_fingerprint(&second),
        "same seed, same worker count => byte-identical outcome"
    );
    let assign = first.table("assign");
    assert_eq!(assign.len(), config.vms * config.hosts);
}
