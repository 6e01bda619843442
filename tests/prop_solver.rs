//! Property-based tests for the constraint solver: solutions returned by the
//! search always satisfy every posted constraint, optimization never returns
//! a worse objective than any feasible assignment found by brute force, and
//! domain operations preserve set semantics.

use proptest::prelude::*;

use cologne_solver::{
    solve_reference, Branching, Domain, Model, Objective, SearchConfig, ValueChoice,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Domain bound/removal operations behave like operations on an explicit
    /// value set.
    #[test]
    fn domain_matches_reference_set(
        lo in -20i64..0,
        hi in 1i64..20,
        removals in prop::collection::vec(-25i64..25, 0..12),
        below in -25i64..25,
        above in -25i64..25,
    ) {
        let mut dom = Domain::new(lo, hi);
        let mut reference: std::collections::BTreeSet<i64> = (lo..=hi).collect();
        for r in &removals {
            let res = dom.remove_value(*r);
            if reference.contains(r) && reference.len() == 1 {
                prop_assert!(res.is_err());
                return Ok(());
            }
            reference.remove(r);
        }
        if dom.remove_below(below).is_err() {
            prop_assert!(reference.iter().all(|&v| v < below));
            return Ok(());
        }
        reference.retain(|&v| v >= below);
        if dom.remove_above(above).is_err() {
            prop_assert!(reference.iter().all(|&v| v > above));
            return Ok(());
        }
        reference.retain(|&v| v <= above);
        let dom_values: Vec<i64> = dom.iter().collect();
        let ref_values: Vec<i64> = reference.into_iter().collect();
        prop_assert_eq!(dom_values, ref_values);
    }

    /// Every solution of a random linear satisfaction model satisfies all of
    /// its constraints (checked through the propagators' own `check`).
    #[test]
    fn solutions_satisfy_all_constraints(
        num_vars in 2usize..5,
        bounds in prop::collection::vec((0i64..4, 4i64..9), 2..5),
        constraints in prop::collection::vec(
            (prop::collection::vec(-3i64..4, 2..5), -10i64..20, 0u8..3),
            1..6
        ),
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
            match kind % 3 {
                0 => m.linear_le(&terms, *bound),
                1 => m.linear_ge(&terms, *bound),
                _ => m.linear_ne(&terms, *bound),
            }
        }
        let cfg = SearchConfig { max_solutions: Some(20), ..Default::default() };
        let out = m.solve_all(&cfg);
        for sol in &out.solutions {
            for p in m.propagators() {
                prop_assert!(p.check(&|v| sol.value(v)), "constraint {} violated", p.name());
            }
        }
    }

    /// Branch-and-bound minimization never reports an objective worse than
    /// the best assignment found by exhaustive enumeration on small models.
    #[test]
    fn minimization_is_no_worse_than_enumeration(
        d1 in 0i64..4,
        d2 in 0i64..4,
        c1 in -3i64..4,
        c2 in -3i64..4,
        cap in 0i64..8,
    ) {
        let mut m = Model::new();
        let x = m.new_var(0, d1 + 1);
        let y = m.new_var(0, d2 + 1);
        m.linear_le(&[(1, x), (1, y)], cap);
        let obj = m.linear_var(&[(c1, x), (c2, y)], 0);
        let out = m.minimize(obj, &SearchConfig::default());

        // brute force
        let mut best: Option<i64> = None;
        for xv in 0..=(d1 + 1) {
            for yv in 0..=(d2 + 1) {
                if xv + yv <= cap {
                    let v = c1 * xv + c2 * yv;
                    best = Some(best.map_or(v, |b: i64| b.min(v)));
                }
            }
        }
        match (out.best_objective, best) {
            (Some(found), Some(expected)) => prop_assert_eq!(found, expected),
            (None, None) => {}
            (found, expected) => prop_assert!(false, "solver {found:?} vs brute force {expected:?}"),
        }
    }

    /// The trail-based searcher is behaviorally identical to the retained
    /// copy-on-branch reference implementation: on random linear /
    /// disequality models, under every heuristic combination, both must
    /// produce the same best objective, the same solution/incumbent
    /// sequence, and the same node, fail and depth counts.
    #[test]
    fn trail_searcher_matches_cloning_reference(
        num_vars in 2usize..5,
        bounds in prop::collection::vec((-4i64..2, 2i64..14), 2..5),
        constraints in prop::collection::vec(
            (prop::collection::vec(-3i64..4, 2..5), -10i64..20, 0u8..4),
            1..6
        ),
        objective_coeffs in prop::collection::vec(-3i64..4, 2..5),
        heuristics in (0u8..2, 0u8..2, 0u8..4),
        maximize in prop::bool::ANY,
    ) {
        let build = || {
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
            (m, obj)
        };
        let (m, obj) = build();
        let cfg = SearchConfig {
            branching: [Branching::InputOrder, Branching::SmallestDomain][heuristics.0 as usize],
            value_choice: [ValueChoice::Min, ValueChoice::ClosestToZero][heuristics.1 as usize],
            split_threshold: [None, Some(2), Some(4), Some(16)][heuristics.2 as usize],
            ..Default::default()
        };
        let objective = if maximize {
            Objective::Maximize(obj)
        } else {
            Objective::Minimize(obj)
        };
        let trail = if maximize {
            m.maximize(obj, &cfg)
        } else {
            m.minimize(obj, &cfg)
        };
        let reference = solve_reference(&m, objective, &cfg);
        prop_assert_eq!(trail.best_objective, reference.best_objective);
        prop_assert_eq!(trail.solutions.len(), reference.solutions.len());
        prop_assert_eq!(&trail.solutions, &reference.solutions);
        prop_assert_eq!(trail.stats.nodes, reference.stats.nodes);
        prop_assert_eq!(trail.stats.fails, reference.stats.fails);
        prop_assert_eq!(trail.stats.solutions, reference.stats.solutions);
        prop_assert_eq!(trail.stats.max_depth, reference.stats.max_depth);
        prop_assert_eq!(trail.stop, reference.stop);
    }

    /// The scaled-variance lowering used for `STDEV` goals always picks a
    /// most-balanced split of a fixed total.
    #[test]
    fn scaled_variance_balances_totals(total in 2i64..20) {
        let mut m = Model::new();
        let a = m.new_var(0, total);
        let b = m.new_var(0, total);
        m.linear_eq(&[(1, a), (1, b)], total);
        let variance = m.scaled_variance_var(&[a, b]);
        let out = m.minimize(variance, &SearchConfig::default());
        let best = out.best.expect("feasible");
        let diff = (best.value(a) - best.value(b)).abs();
        prop_assert!(diff <= 1, "split {} / {} is not balanced", best.value(a), best.value(b));
    }

    /// ACloud-shaped models (each VM on exactly one host, a per-host VM cap,
    /// minimize the scaled variance of the host loads) reach the same
    /// optimum under the trail searcher, the cloning reference searcher and
    /// brute-force enumeration of every placement.
    #[test]
    fn acloud_variance_optimum_matches_reference_and_enumeration(
        cpus in prop::collection::vec(1i64..40, 1..7),
        hosts in 2usize..4,
        base in prop::collection::vec(0i64..30, 3..4),
        cap in 2i64..7,
    ) {
        let mut m = Model::new();
        let assign: Vec<Vec<_>> = cpus
            .iter()
            .map(|_| (0..hosts).map(|_| m.new_bool()).collect())
            .collect();
        for row in &assign {
            m.linear_eq(&row.iter().map(|&a| (1, a)).collect::<Vec<_>>(), 1);
        }
        let loads: Vec<_> = (0..hosts)
            .map(|h| {
                let terms: Vec<_> = cpus.iter().zip(&assign).map(|(&c, row)| (c, row[h])).collect();
                m.linear_le(&terms.iter().map(|&(_, a)| (1, a)).collect::<Vec<_>>(), cap);
                m.linear_var(&terms, base[h])
            })
            .collect();
        let z = m.scaled_variance_var(&loads);
        let trail = m.minimize(z, &SearchConfig::default());
        let reference = solve_reference(&m, Objective::Minimize(z), &SearchConfig::default());
        prop_assert_eq!(trail.best_objective, reference.best_objective);

        // Every placement as a base-`hosts` number, one digit per VM.
        let n = hosts as i64;
        let mut best: Option<i64> = None;
        for code in 0..n.pow(cpus.len() as u32) {
            let (mut load, mut count) = (base[..hosts].to_vec(), vec![0; hosts]);
            let mut rest = code;
            for &c in &cpus {
                let h = (rest % n) as usize;
                rest /= n;
                load[h] += c;
                count[h] += 1;
            }
            if count.iter().any(|&k| k > cap) {
                continue;
            }
            let sum: i64 = load.iter().sum();
            let value = n * load.iter().map(|l| l * l).sum::<i64>() - sum * sum;
            best = Some(best.map_or(value, |b| b.min(value)));
        }
        prop_assert_eq!(trail.best_objective, best);
    }
}
