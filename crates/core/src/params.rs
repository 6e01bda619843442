//! Program parameters.
//!
//! Colog programs reference named constants (`max_migrates`, `F_mindiff`,
//! `cost_thres`, ...) and leave the domains of solver variables to the
//! generated Gecode model. [`ProgramParams`] carries both, mirroring the
//! knobs the paper exposes (`SOLVER_MAX_TIME`, policy thresholds) without
//! changing the Colog surface syntax.

use std::collections::BTreeMap;
use std::time::Duration;

use cologne_solver::{
    BoundMode, Branching, SearchConfig, SolverMode, ValueChoice, DEFAULT_SPLIT_THRESHOLD,
};

use crate::error::CologneError;

/// Domain `[lo, hi]` for the solver variables of one `var`-declared table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarDomain {
    /// Smallest allowed value.
    pub lo: i64,
    /// Largest allowed value.
    pub hi: i64,
}

impl VarDomain {
    /// A 0/1 domain (the default, used for assignment variables).
    pub const BOOL: VarDomain = VarDomain { lo: 0, hi: 1 };

    /// Build a domain.
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "empty var domain [{lo}, {hi}]");
        VarDomain { lo, hi }
    }
}

impl Default for VarDomain {
    fn default() -> Self {
        VarDomain::BOOL
    }
}

/// Compile/run-time parameters for a Colog program — the single source of
/// truth for every solver knob ([`ProgramParams::validate`] lists the
/// accepted ranges). The solve pipeline derives its [`SearchConfig`] from
/// these fields whenever it (re)builds its grounding plan, so a change made
/// through `CologneInstance::params_mut` reaches the next solve like any
/// other parameter change.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramParams {
    /// Values for named constants appearing in the program.
    constants: BTreeMap<String, i64>,
    /// Domain of the solver variables declared by each `var` statement,
    /// keyed by solver-table name. Tables not listed use [`VarDomain::BOOL`].
    var_domains: BTreeMap<String, VarDomain>,
    /// The paper's `SOLVER_MAX_TIME`: wall-clock budget per COP execution.
    pub solver_max_time: Option<Duration>,
    /// Cap on branch-and-bound search nodes per COP execution (a
    /// deterministic alternative to the wall-clock limit, useful in tests
    /// and benchmarks).
    pub solver_node_limit: Option<u64>,
    /// Variable-selection heuristic for the COP search.
    pub solver_branching: Branching,
    /// Value-selection heuristic for the COP search.
    pub solver_value_choice: ValueChoice,
    /// Domain size above which value enumeration switches to bisection
    /// (`None` = never bisect implicitly). Must be at least 2.
    pub solver_split_threshold: Option<u64>,
    /// Search mode for COP invocations: exact branch-and-bound (the paper's
    /// mode) or large neighborhood search with its [`cologne_solver::LnsConfig`].
    pub solver_mode: SolverMode,
    /// Dual-bound engine for COP invocations. Anything but
    /// [`BoundMode::Off`] computes a certified dual bound at the frozen root
    /// of every solve and reports the optimality gap in the solve
    /// statistics. Off by default — the default keeps every run
    /// byte-identical to a build without the bounds subsystem.
    pub solver_bound_mode: BoundMode,
    /// Relative optimality-gap threshold for early termination. With
    /// `Some(eps)` (and a bound mode that is not `Off`), a COP search stops
    /// as soon as its certified gap drops strictly below `eps`; the solve is
    /// then reported as budget-limited rather than proved optimal.
    /// `Some(0.0)` never stops early (the gap is never negative), so it
    /// reproduces the full search byte-for-byte. `None` (the default)
    /// disables gap-driven termination. Must be finite and non-negative.
    pub solver_gap_limit: Option<f64>,
    /// Carry the previous invocation's best assignment into the next solve
    /// (the warm-start half of incremental re-optimization): persisting rows
    /// seed the initial branch-and-bound bound for exact search and the
    /// initial incumbent for LNS. On by default; disable to force every
    /// invocation to cold-start (e.g. for baseline benchmarking).
    pub warm_start: bool,
}

impl Default for ProgramParams {
    fn default() -> Self {
        ProgramParams {
            constants: BTreeMap::new(),
            var_domains: BTreeMap::new(),
            // Sec. 6.2: "we limit each solver's COP execution time to 10 seconds".
            solver_max_time: Some(Duration::from_secs(10)),
            solver_node_limit: None,
            solver_branching: Branching::default(),
            solver_value_choice: ValueChoice::default(),
            solver_split_threshold: Some(DEFAULT_SPLIT_THRESHOLD),
            solver_mode: SolverMode::default(),
            solver_bound_mode: BoundMode::default(),
            solver_gap_limit: None,
            warm_start: true,
        }
    }
}

impl ProgramParams {
    /// Empty parameter set with the paper's default solver time limit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a named constant (builder style).
    pub fn with_constant(mut self, name: &str, value: i64) -> Self {
        self.constants.insert(name.to_string(), value);
        self
    }

    /// Set the domain for a `var`-declared table (builder style).
    pub fn with_var_domain(mut self, table: &str, domain: VarDomain) -> Self {
        self.var_domains.insert(table.to_string(), domain);
        self
    }

    /// Set the solver time limit (builder style).
    pub fn with_solver_max_time(mut self, limit: Option<Duration>) -> Self {
        self.solver_max_time = limit;
        self
    }

    /// Set the solver node limit (builder style).
    pub fn with_solver_node_limit(mut self, limit: Option<u64>) -> Self {
        self.solver_node_limit = limit;
        self
    }

    /// Set the branch-and-bound variable-selection heuristic (builder style).
    pub fn with_solver_branching(mut self, branching: Branching) -> Self {
        self.solver_branching = branching;
        self
    }

    /// Set the value-selection heuristic (builder style).
    pub fn with_solver_value_choice(mut self, value_choice: ValueChoice) -> Self {
        self.solver_value_choice = value_choice;
        self
    }

    /// Set the domain size above which value enumeration bisects (builder
    /// style). `None` never bisects implicitly.
    pub fn with_solver_split_threshold(mut self, threshold: Option<u64>) -> Self {
        self.solver_split_threshold = threshold;
        self
    }

    /// Set the search mode — exact or LNS — for COP invocations (builder
    /// style).
    pub fn with_solver_mode(mut self, mode: SolverMode) -> Self {
        self.solver_mode = mode;
        self
    }

    /// Set the dual-bound engine for COP invocations (builder style).
    pub fn with_solver_bound_mode(mut self, mode: BoundMode) -> Self {
        self.solver_bound_mode = mode;
        self
    }

    /// Set the relative optimality-gap threshold for early termination
    /// (builder style). `None` disables gap-driven termination.
    pub fn with_solver_gap_limit(mut self, limit: Option<f64>) -> Self {
        self.solver_gap_limit = limit;
        self
    }

    /// Enable or disable warm-started solving (builder style).
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Clamp the solver budgets to per-tenant caps: the effective node
    /// limit (resp. time limit) becomes the minimum of the configured limit
    /// and the cap, and an unlimited budget becomes the cap itself. A
    /// serving layer applies this once per session so no tenant can buy
    /// more search than its quota, whatever its program asks for. `None`
    /// caps leave the corresponding budget untouched.
    pub fn clamp_solver_budget(&mut self, node_cap: Option<u64>, time_cap: Option<Duration>) {
        if let Some(cap) = node_cap {
            self.solver_node_limit = Some(self.solver_node_limit.map_or(cap, |l| l.min(cap)));
        }
        if let Some(cap) = time_cap {
            self.solver_max_time = Some(self.solver_max_time.map_or(cap, |l| l.min(cap)));
        }
    }

    /// Check the solver knobs for values that would misbehave at solve time.
    /// Every construction path (`CologneInstance::new`, and through it the
    /// deployment builder and the server) runs this and surfaces a failure
    /// as [`CologneError::InvalidConfig`].
    pub fn validate(&self) -> Result<(), CologneError> {
        if let Some(t) = self.solver_split_threshold {
            if t < 2 {
                return Err(CologneError::InvalidConfig(format!(
                    "solver_split_threshold must be at least 2, got {t}"
                )));
            }
        }
        if let SolverMode::Lns(lns) = &self.solver_mode {
            if !(lns.destroy_fraction.is_finite()
                && lns.destroy_fraction > 0.0
                && lns.destroy_fraction <= 1.0)
            {
                return Err(CologneError::InvalidConfig(format!(
                    "LNS destroy_fraction must be in (0, 1], got {}",
                    lns.destroy_fraction
                )));
            }
            if !(lns.repair_growth.is_finite() && lns.repair_growth >= 1.0) {
                return Err(CologneError::InvalidConfig(format!(
                    "LNS repair_growth must be >= 1, got {}",
                    lns.repair_growth
                )));
            }
            if lns.dive_node_limit == 0 {
                return Err(CologneError::InvalidConfig(
                    "LNS dive_node_limit must be positive".into(),
                ));
            }
        }
        if let Some(gap) = self.solver_gap_limit {
            if !(gap.is_finite() && gap >= 0.0) {
                return Err(CologneError::InvalidConfig(format!(
                    "solver_gap_limit must be finite and non-negative, got {gap}"
                )));
            }
        }
        Ok(())
    }

    /// The [`SearchConfig`] these parameters describe — the only place in
    /// the workspace where parameters become a search configuration. The
    /// per-solve `warm_start` assignment is filled in by the pipeline;
    /// `fail_limit` and `max_solutions` have no parameter and stay unset.
    pub(crate) fn search_config(&self) -> SearchConfig {
        SearchConfig {
            mode: self.solver_mode.clone(),
            branching: self.solver_branching,
            value_choice: self.solver_value_choice,
            split_threshold: self.solver_split_threshold,
            time_limit: self.solver_max_time,
            fail_limit: None,
            max_solutions: None,
            node_limit: self.solver_node_limit,
            warm_start: None,
            gap_limit: self.solver_gap_limit,
            bound_mode: self.solver_bound_mode,
        }
    }

    /// Look up a named constant.
    pub fn constant(&self, name: &str) -> Option<i64> {
        self.constants.get(name).copied()
    }

    /// Domain for a solver table (defaults to 0/1).
    pub fn var_domain(&self, table: &str) -> VarDomain {
        self.var_domains.get(table).copied().unwrap_or_default()
    }

    /// Names of all declared constants.
    pub fn constant_names(&self) -> Vec<&str> {
        self.constants.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cologne_solver::LnsConfig;
    use std::num::NonZeroUsize;

    #[test]
    fn defaults_match_paper() {
        let p = ProgramParams::default();
        assert_eq!(p.solver_max_time, Some(Duration::from_secs(10)));
        assert_eq!(p.var_domain("assign"), VarDomain::BOOL);
        assert_eq!(p.constant("max_migrates"), None);
        assert_eq!(p.solver_branching, Branching::InputOrder);
        assert_eq!(p.solver_bound_mode, BoundMode::Off);
        assert_eq!(p.solver_gap_limit, None);
        assert!(p.warm_start);
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn bound_builders_set_engine_and_gap() {
        let p = ProgramParams::new()
            .with_solver_bound_mode(BoundMode::Auto)
            .with_solver_gap_limit(Some(0.05));
        assert_eq!(p.solver_bound_mode, BoundMode::Auto);
        assert_eq!(p.solver_gap_limit, Some(0.05));
        let p = p.with_solver_gap_limit(None);
        assert_eq!(p.solver_gap_limit, None);
    }

    #[test]
    fn reoptimization_knobs_toggle() {
        let p = ProgramParams::new().with_warm_start(false);
        assert!(!p.warm_start);
    }

    #[test]
    fn branching_builder_sets_heuristic() {
        let p = ProgramParams::new().with_solver_branching(Branching::SmallestDomain);
        assert_eq!(p.solver_branching, Branching::SmallestDomain);
    }

    #[test]
    fn solver_mode_defaults_to_exact_and_builder_selects_lns() {
        let p = ProgramParams::new();
        assert_eq!(p.solver_mode, SolverMode::Exact);
        let lns = LnsConfig {
            seed: 99,
            max_iterations: Some(10),
            ..Default::default()
        };
        let p = p.with_solver_mode(SolverMode::Lns(lns.clone()));
        assert_eq!(p.solver_mode, SolverMode::Lns(lns));
    }

    #[test]
    fn builder_sets_values() {
        let p = ProgramParams::new()
            .with_constant("max_migrates", 3)
            .with_constant("F_mindiff", 2)
            .with_var_domain("migVm", VarDomain::new(-60, 60))
            .with_solver_max_time(Some(Duration::from_secs(1)))
            .with_solver_node_limit(Some(10_000));
        assert_eq!(p.constant("max_migrates"), Some(3));
        assert_eq!(p.var_domain("migVm"), VarDomain::new(-60, 60));
        assert_eq!(p.var_domain("assign"), VarDomain::BOOL);
        assert_eq!(p.solver_max_time, Some(Duration::from_secs(1)));
        assert_eq!(p.solver_node_limit, Some(10_000));
        assert_eq!(p.constant_names(), vec!["F_mindiff", "max_migrates"]);
    }

    #[test]
    #[should_panic]
    fn empty_domain_rejected() {
        let _ = VarDomain::new(5, 4);
    }

    #[test]
    fn budget_clamp_takes_the_minimum_and_fills_unlimited() {
        // a configured limit below the cap survives
        let mut p = ProgramParams::new().with_solver_node_limit(Some(500));
        p.clamp_solver_budget(Some(1_000), None);
        assert_eq!(p.solver_node_limit, Some(500));
        // a limit above the cap is clamped down
        p.clamp_solver_budget(Some(200), None);
        assert_eq!(p.solver_node_limit, Some(200));
        // an unlimited budget becomes the cap
        let mut p = ProgramParams::new().with_solver_node_limit(None);
        p.clamp_solver_budget(Some(64), None);
        assert_eq!(p.solver_node_limit, Some(64));
        // time budgets clamp the same way; None caps change nothing
        let mut p = ProgramParams::new().with_solver_max_time(Some(Duration::from_secs(30)));
        p.clamp_solver_budget(None, Some(Duration::from_secs(2)));
        assert_eq!(p.solver_max_time, Some(Duration::from_secs(2)));
        p.clamp_solver_budget(None, None);
        assert_eq!(p.solver_max_time, Some(Duration::from_secs(2)));
        assert_eq!(p.solver_node_limit, None);
    }

    /// Every solver field of the parameters reaches the derived
    /// [`SearchConfig`]. The exhaustive destructuring makes a field added to
    /// [`ProgramParams`] a compile error here until it is either mapped or
    /// listed as deliberately not a search knob.
    #[test]
    fn search_config_reflects_every_solver_field() {
        let lns = LnsConfig {
            seed: 7,
            workers: NonZeroUsize::new(3),
            ..Default::default()
        };
        let params = ProgramParams::new()
            .with_solver_max_time(Some(Duration::from_millis(1234)))
            .with_solver_node_limit(Some(4321))
            .with_solver_branching(Branching::SmallestDomain)
            .with_solver_value_choice(ValueChoice::ClosestToZero)
            .with_solver_split_threshold(Some(5))
            .with_solver_mode(SolverMode::Lns(lns))
            .with_solver_bound_mode(BoundMode::Relaxed)
            .with_solver_gap_limit(Some(0.125));
        let config = params.search_config();
        let ProgramParams {
            // not search knobs: grounding inputs and pipeline toggles
            constants: _,
            var_domains: _,
            warm_start: _,
            solver_max_time,
            solver_node_limit,
            solver_branching,
            solver_value_choice,
            solver_split_threshold,
            solver_mode,
            solver_bound_mode,
            solver_gap_limit,
        } = params;
        assert_eq!(config.time_limit, solver_max_time);
        assert_eq!(config.node_limit, solver_node_limit);
        assert_eq!(config.branching, solver_branching);
        assert_eq!(config.value_choice, solver_value_choice);
        assert_eq!(config.split_threshold, solver_split_threshold);
        assert_eq!(config.mode, solver_mode);
        assert_eq!(config.bound_mode, solver_bound_mode);
        assert_eq!(config.gap_limit, solver_gap_limit);

        // every value above differs from the default, so each assertion
        // would fail had its field not been carried over
        let default = ProgramParams::default().search_config();
        assert_ne!(config.time_limit, default.time_limit);
        assert_ne!(config.node_limit, default.node_limit);
        assert_ne!(config.branching, default.branching);
        assert_ne!(config.value_choice, default.value_choice);
        assert_ne!(config.split_threshold, default.split_threshold);
        assert_ne!(config.mode, default.mode);
        assert_ne!(config.bound_mode, default.bound_mode);
        assert_ne!(config.gap_limit, default.gap_limit);
        // the parameterless limits stay unset, the warm start is per solve
        assert_eq!(config.fail_limit, None);
        assert_eq!(config.max_solutions, None);
        assert_eq!(config.warm_start, None);
    }
}
