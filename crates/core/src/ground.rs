//! Grounding of Colog solver rules into a constraint-optimization model.
//!
//! This is the core of the Cologne query processor (Sec. 5.3–5.4 of the
//! paper): solver derivation and constraint rules are evaluated bottom-up
//! against the materialized regular tables, but the attributes whose values
//! the solver must determine flow through the evaluation *symbolically* —
//! each one is (or maps to) an integer variable of the [`cologne_solver`]
//! model, and the selection/aggregation expressions that mention them are
//! translated into solver constraints instead of being evaluated.
//!
//! # Plan / Run split
//!
//! Solver invocations recur on every monitoring epoch and after every input
//! delta, so grounding is staged into two explicit phases:
//!
//! * `GroundingPlan` — the **per-program** stage, built at instance
//!   construction from the shared compiled program, which it holds. It
//!   caches everything that does not depend on table contents: the
//!   topological evaluation order of the solver derivation rules, the
//!   pre-assembled `head + body` element lists of the constraint rules, the
//!   solver-variable layout of each `var` declaration (which argument
//!   positions are solver attributes, and their domain from
//!   [`ProgramParams`]), and the goal relation/position. The plan is only
//!   rebuilt when the parameters change.
//! * `GroundingRun` — the **per-invocation** stage: joins the rule bodies
//!   against the current engine state, allocates solver variables and posts
//!   constraints, producing a [`GroundedCop`]. Its model and symbol table are
//!   taken from a `GroundingScratch`, which recycles the solver arena
//!   (via [`Model::reset`]) across invocations instead of reallocating it.
//!
//! The solve pipeline ([`crate::pipeline`]) holds plan + scratch for the
//! repeated-invocation hot path.
//!
//! # Delta-aware grounding
//!
//! Solver invocations recur after every input delta, and most deltas touch a
//! small slice of the database. The plan therefore records the **relevant
//! relations** of the program — every engine relation the grounding reads:
//! the `forall` relations of the `var` declarations, the non-solver-table
//! body predicates of the solver derivation and constraint rules, and the
//! goal relation when it is a regular table. When the engine's
//! [`DeltaSummary`] (what changed since the previous grounding) leaves every
//! relevant relation clean, the previous [`GroundedCop`] is byte-identical
//! to what a re-grounding would produce: the solve pipeline retains it
//! across invocations and hands it back without running any stage (see
//! [`crate::PipelineStats::incremental_builds`]). Anything else is grounded
//! live, every `var` declaration and rule against the current tables; the
//! engine's incremental fixpoint already did the per-tuple work.
//!
//! Cleanliness is tracked per relation by visibility (multiplicity-only
//! changes stay clean), and a parameter change drops the retained COP
//! because domains, constants and rule layouts may shift (see
//! [`crate::PipelineStats::full_rebuilds`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use cologne_colog::{
    Analysis, Arg, BodyElem, CExpr, COp, GoalKind, Predicate, Program, RuleClass, RuleDecl,
};
use cologne_datalog::{AggFunc, Bindings, DeltaSummary, Engine, SymId, Tuple, Value};
use cologne_solver::{LinExpr, Model, SearchConfig, SearchOutcome, SearchSpace, VarId};

use crate::compiled::CompiledProgram;
use crate::error::CologneError;
use crate::params::{ProgramParams, VarDomain};

/// The result of grounding one COP invocation.
pub struct GroundedCop {
    /// The constraint model, ready to be solved.
    pub model: Model,
    /// Mapping from symbolic attribute ids ([`Value::Sym`]) to model variables.
    pub syms: Vec<VarId>,
    /// Contents of every solver table produced during grounding. Tuples may
    /// contain `Value::Sym` attributes referring into `syms`.
    pub solver_tables: BTreeMap<String, Vec<Tuple>>,
    /// The optimization objective, if the program declares one and the goal
    /// relation is non-empty.
    pub objective: Option<(GoalKind, VarId)>,
    /// Name of the goal relation (for materialization).
    pub goal_relation: Option<String>,
}

impl GroundedCop {
    /// True when the COP has no decision variables (nothing to solve).
    pub fn is_trivial(&self) -> bool {
        self.model.num_vars() == 0
    }

    /// Resolve a grounded value against a solver assignment.
    pub fn resolve(&self, value: &Value, assignment: &cologne_solver::Assignment) -> Value {
        match value {
            Value::Sym(sym) => Value::Int(assignment.value(self.syms[sym.0 as usize])),
            other => other.clone(),
        }
    }

    /// Run the search stage appropriate for the grounded objective
    /// (branch-and-bound for `minimize`/`maximize`, satisfaction search
    /// otherwise) in a caller-provided [`SearchSpace`] (trail-backed domain
    /// store, propagation queue, decision stack), so repeated COP
    /// invocations share one set of search allocations. The solve pipeline
    /// drives this with the space held by its grounding scratch.
    pub fn solve_in(&self, config: &SearchConfig, space: &mut SearchSpace) -> SearchOutcome {
        self.solve_in_observed(config, space, None)
    }

    /// [`GroundedCop::solve_in`] with a streaming
    /// [`cologne_solver::SolveObserver`] receiving incumbents, restarts, LNS
    /// iterations, budget exhaustion and periodic progress while the search
    /// runs.
    pub fn solve_in_observed(
        &self,
        config: &SearchConfig,
        space: &mut SearchSpace,
        observer: Option<&mut dyn cologne_solver::SolveObserver>,
    ) -> SearchOutcome {
        let (objective, config) = match self.objective {
            Some((GoalKind::Minimize, obj)) => {
                (cologne_solver::Objective::Minimize(obj), config.clone())
            }
            Some((GoalKind::Maximize, obj)) => {
                (cologne_solver::Objective::Maximize(obj), config.clone())
            }
            // `satisfy` keeps the `Model::satisfy_in` semantics: find one
            // solution unless the caller asked for more.
            Some((GoalKind::Satisfy, _)) | None => (
                cologne_solver::Objective::Satisfy,
                SearchConfig {
                    max_solutions: Some(config.max_solutions.unwrap_or(1)),
                    ..config.clone()
                },
            ),
        };
        cologne_solver::solve_in_observed(&self.model, objective, &config, space, observer)
    }
}

// ---------------------------------------------------------------------------
// Per-program stage: the grounding plan
// ---------------------------------------------------------------------------

/// Per-`var`-declaration layout cached by the plan.
#[derive(Debug, Clone)]
pub(crate) struct VarPlan {
    /// Index into `program.vars`.
    decl: usize,
    /// Name of the declared solver table.
    pub(crate) table: String,
    /// Domain of the declared solver variables (from [`ProgramParams`]).
    domain: VarDomain,
    /// For every argument position of the declared table: is it a solver
    /// attribute (true) or bound by the `forall` predicate (false)?
    pub(crate) is_solver_position: Vec<bool>,
}

/// Goal information cached by the plan.
#[derive(Debug, Clone)]
struct GoalPlan {
    kind: GoalKind,
    relation: String,
    /// Argument position of the goal variable inside the goal relation
    /// (`None` for `satisfy` goals, which have no objective attribute).
    position: Option<usize>,
}

/// The per-program grounding stage: everything the per-invocation run needs that
/// does not depend on the current table contents. Built from a compiled
/// program, which it holds, and reused across `invokeSolver` executions.
#[derive(Debug, Clone)]
pub(crate) struct GroundingPlan {
    /// The program every rule index and var-decl layout below refers to.
    pub(crate) compiled: Arc<CompiledProgram>,
    /// Solver derivation rules, topologically ordered by head/body relation
    /// dependencies (source order inside cycles).
    deriv_order: Vec<usize>,
    /// Solver constraint rules with their pre-assembled `head + body`
    /// element list (built once instead of per invocation).
    constraint_elems: Vec<(usize, Vec<BodyElem>)>,
    /// Layout of each `var` declaration.
    pub(crate) var_plans: Vec<VarPlan>,
    /// Goal relation and objective position.
    goal: Option<GoalPlan>,
    /// Every engine relation the grounding reads (the delta-awareness
    /// contract — see the module docs): `forall` relations, non-solver-table
    /// body predicates of solver rules, and the goal relation when regular.
    relevant_relations: BTreeSet<String>,
}

impl GroundingPlan {
    /// Build the plan for a compiled program from its static analysis.
    pub fn build(compiled: &Arc<CompiledProgram>, params: &ProgramParams) -> Self {
        let CompiledProgram {
            program, analysis, ..
        } = &**compiled;
        let var_plans = program
            .vars
            .iter()
            .enumerate()
            .map(|(decl, vd)| {
                let solver_positions = vd.solver_positions();
                VarPlan {
                    decl,
                    table: vd.table.name.clone(),
                    domain: params.var_domain(&vd.table.name),
                    is_solver_position: (0..vd.table.args.len())
                        .map(|i| solver_positions.contains(&i))
                        .collect(),
                }
            })
            .collect();
        let mut relevant_relations: BTreeSet<String> = program
            .vars
            .iter()
            .map(|vd| vd.forall.name.clone())
            .collect();
        for idx in analysis
            .rules_in_class(RuleClass::SolverDerivation)
            .chain(analysis.rules_in_class(RuleClass::SolverConstraint))
        {
            for name in program.rules[idx].body_relations() {
                if !analysis.solver_tables.is_solver_table(name) {
                    relevant_relations.insert(name.to_string());
                }
            }
        }
        if let Some(goal) = &program.goal {
            if !analysis.solver_tables.is_solver_table(&goal.relation.name) {
                relevant_relations.insert(goal.relation.name.clone());
            }
        }
        let constraint_elems = analysis
            .rules_in_class(RuleClass::SolverConstraint)
            .map(|idx| {
                let rule = &program.rules[idx];
                // head -> body : for every grounding of the head joined with
                // the body predicates, the body expressions must hold.
                let mut elems: Vec<BodyElem> = Vec::with_capacity(rule.body.len() + 1);
                elems.push(BodyElem::Pred(rule.head.clone()));
                elems.extend(rule.body.iter().cloned());
                (idx, elems)
            })
            .collect();
        let goal = program.goal.as_ref().map(|goal| GoalPlan {
            kind: goal.kind,
            relation: goal.relation.name.clone(),
            position: (goal.kind != GoalKind::Satisfy).then(|| {
                goal.relation
                    .args
                    .iter()
                    .position(|a| a.var_name() == Some(goal.var.as_str()))
                    .expect("goal variable validated by analysis")
            }),
        });
        GroundingPlan {
            compiled: Arc::clone(compiled),
            deriv_order: derivation_rule_order(program, analysis),
            constraint_elems,
            var_plans,
            goal,
            relevant_relations,
        }
    }

    /// True when any relation the grounding reads is dirty in `delta` — a
    /// retained [`GroundedCop`] from before the summary's window can only be
    /// reused when this is false.
    pub fn is_affected_by(&self, delta: &DeltaSummary) -> bool {
        delta
            .dirty_relations()
            .any(|rel| self.relevant_relations.contains(rel))
    }

    /// Run the per-invocation stage against the current engine state,
    /// drawing the model and symbol table from `scratch`. `params` are the
    /// parameters the plan was built with (the solve pipeline rebuilds the
    /// plan whenever they change).
    pub fn ground(
        &self,
        params: &ProgramParams,
        engine: &Engine,
        scratch: &mut GroundingScratch,
    ) -> Result<GroundedCop, CologneError> {
        let mut run = GroundingRun {
            plan: self,
            params,
            engine,
            model: std::mem::take(&mut scratch.model),
            syms: std::mem::take(&mut scratch.syms),
            solver_tables: BTreeMap::new(),
            table_cache: RefCell::new(HashMap::new()),
        };
        run.ground_var_decls()?;
        run.ground_derivation_rules()?;
        run.ground_constraint_rules()?;
        let (objective, goal_relation) = run.build_objective()?;
        // A `STDEV` goal learns its loads' fixed total at the root fixpoint.
        run.model.presolve();
        Ok(GroundedCop {
            model: run.model,
            syms: run.syms,
            solver_tables: run.solver_tables,
            objective,
            goal_relation,
        })
    }
}

/// Topological order of solver derivation rules by head/body relation
/// dependencies; falls back to source order inside cycles.
fn derivation_rule_order(program: &Program, analysis: &Analysis) -> Vec<usize> {
    let deriv: Vec<usize> = analysis
        .rules_in_class(RuleClass::SolverDerivation)
        .collect();
    let head_of = |i: usize| program.rules[i].head.name.as_str();
    let mut order: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = deriv;
    while !remaining.is_empty() {
        let mut progressed = false;
        let mut next_remaining = Vec::new();
        for &i in &remaining {
            let body_rels = program.rules[i].body_relations();
            let depends_on_pending = remaining
                .iter()
                .any(|&j| j != i && body_rels.contains(&head_of(j)));
            if depends_on_pending {
                next_remaining.push(i);
            } else {
                order.push(i);
                progressed = true;
            }
        }
        if !progressed {
            // cycle: keep source order for what is left
            order.extend(next_remaining.iter().copied());
            break;
        }
        remaining = next_remaining;
    }
    order
}

/// Reusable per-invocation allocations: the solver model arena, the
/// symbolic-attribute table, and the [`SearchSpace`] (trail-backed domain
/// store + propagation queue + decision stack) the COP is searched in.
/// The grounding run takes the model and symbol table at the start of an
/// invocation; [`GroundingScratch::recycle`] reclaims them (resetting the
/// model in place) once the caller is done with the [`GroundedCop`]. The
/// search space is lent out per solve by the solve pipeline and keeps its
/// trail, store and queue allocations across invocations.
#[derive(Default)]
pub(crate) struct GroundingScratch {
    model: Model,
    syms: Vec<VarId>,
    pub(crate) space: SearchSpace,
}

impl GroundingScratch {
    /// Reclaim the model and symbol table of a finished invocation so the
    /// next one reuses their allocations instead of growing fresh ones.
    /// (The search space never leaves the scratch, so it needs no explicit
    /// reclaiming.)
    pub fn recycle(&mut self, cop: GroundedCop) {
        let GroundedCop {
            mut model,
            mut syms,
            ..
        } = cop;
        model.reset();
        syms.clear();
        self.model = model;
        self.syms = syms;
    }
}

/// Objective of a grounded COP (`None` when there is nothing to optimize)
/// plus the goal relation name for materialization.
type ObjectiveSpec = (Option<(GoalKind, VarId)>, Option<String>);

/// Intermediate translation result for an expression over (possibly
/// symbolic) bindings.
enum SymVal {
    /// A fully-known integer.
    Concrete(i64),
    /// A linear expression over solver variables.
    Linear(LinExpr),
    /// A 0/1 solver variable carrying the truth value of a comparison.
    Bool(VarId),
}

/// The per-invocation grounding stage: evaluates the plan's rule schedule
/// against the current engine state, producing model variables, constraints
/// and solver tables. Short-lived — one value per `invokeSolver` execution.
struct GroundingRun<'a> {
    plan: &'a GroundingPlan,
    params: &'a ProgramParams,
    engine: &'a Engine,
    model: Model,
    syms: Vec<VarId>,
    solver_tables: BTreeMap<String, Vec<Tuple>>,
    /// Per-run memo of engine tables: the engine is immutable for the
    /// duration of a grounding, and the same relation is read once per rule
    /// that mentions it, so sorting and cloning it each time is pure waste
    /// on large groundings. Solver tables are never cached here — they grow
    /// while the run progresses.
    table_cache: RefCell<HashMap<String, Rc<Vec<Tuple>>>>,
}

impl<'a> GroundingRun<'a> {
    fn new_sym(&mut self, var: VarId) -> Value {
        self.syms.push(var);
        Value::Sym(SymId((self.syms.len() - 1) as u32))
    }

    fn sym_var(&self, id: SymId) -> VarId {
        self.syms[id.0 as usize]
    }

    fn is_solver_table(&self, relation: &str) -> bool {
        self.plan
            .compiled
            .analysis
            .solver_tables
            .is_solver_table(relation)
            || self.solver_tables.contains_key(relation)
    }

    fn table_tuples(&self, relation: &str) -> Rc<Vec<Tuple>> {
        if self.is_solver_table(relation) {
            Rc::new(
                self.solver_tables
                    .get(relation)
                    .cloned()
                    .unwrap_or_default(),
            )
        } else {
            if let Some(hit) = self.table_cache.borrow().get(relation) {
                return Rc::clone(hit);
            }
            let tuples = Rc::new(self.engine.tuples(relation));
            self.table_cache
                .borrow_mut()
                .insert(relation.to_string(), Rc::clone(&tuples));
            tuples
        }
    }

    // ----- var declarations -------------------------------------------------

    fn ground_var_decls(&mut self) -> Result<(), CologneError> {
        let plan = self.plan;
        let program = &plan.compiled.program;
        for vp in &plan.var_plans {
            let vd = &program.vars[vp.decl];
            let domain = vp.domain;
            let forall_tuples = self.table_tuples(&vd.forall.name);
            for tuple in forall_tuples.iter() {
                let mut bindings = Bindings::new();
                if !self.match_with_symbolic(&vd.forall, tuple, &mut bindings, false) {
                    continue;
                }
                let mut row = Vec::with_capacity(vd.table.args.len());
                for (i, arg) in vd.table.args.iter().enumerate() {
                    if vp.is_solver_position[i] {
                        let var = self.model.new_var(domain.lo, domain.hi);
                        // `var`-declared solver attributes are the COP's
                        // decision variables; the LNS mode builds its
                        // neighborhoods from them (auxiliary variables made
                        // by aggregates/expressions stay unmarked — they are
                        // functionally determined by these).
                        self.model.mark_decision(var);
                        row.push(self.new_sym(var));
                    } else {
                        match arg {
                            Arg::Loc(v) | Arg::Var(v) => match bindings.get(v) {
                                Some(val) => row.push(val.clone()),
                                None => {
                                    return Err(CologneError::UnboundVariable {
                                        rule: format!("var {}", vd.table.name),
                                        variable: v.clone(),
                                    })
                                }
                            },
                            Arg::Const(lit) => {
                                row.push(crate::translate::literal_to_value(lit, self.params)?)
                            }
                            Arg::Agg(_, _) => {
                                return Err(CologneError::UnsupportedExpression {
                                    rule: format!("var {}", vd.table.name),
                                    detail: "aggregate in var declaration".into(),
                                })
                            }
                        }
                    }
                }
                self.solver_tables
                    .entry(vd.table.name.clone())
                    .or_default()
                    .push(row);
            }
            // Make sure the table exists even if the forall relation is empty.
            self.solver_tables.entry(vd.table.name.clone()).or_default();
        }
        Ok(())
    }

    // ----- solver derivation rules -------------------------------------------

    fn ground_derivation_rules(&mut self) -> Result<(), CologneError> {
        let plan = self.plan;
        let program = &plan.compiled.program;
        for &idx in &plan.deriv_order {
            self.ground_derivation(&program.rules[idx])?;
        }
        Ok(())
    }

    fn ground_derivation(&mut self, rule: &RuleDecl) -> Result<(), CologneError> {
        let bindings_list = self.join_body(rule, &rule.body, false)?;
        if rule.head.has_aggregate() {
            self.emit_aggregate_head(rule, &bindings_list)?;
        } else {
            let mut rows = Vec::new();
            for b in &bindings_list {
                rows.push(self.instantiate_head(rule, b)?);
            }
            self.solver_tables
                .entry(rule.head.name.clone())
                .or_default()
                .extend(rows);
        }
        Ok(())
    }

    fn instantiate_head(
        &mut self,
        rule: &RuleDecl,
        bindings: &Bindings,
    ) -> Result<Tuple, CologneError> {
        let mut row = Vec::with_capacity(rule.head.args.len());
        for arg in &rule.head.args {
            match arg {
                Arg::Loc(v) | Arg::Var(v) => match bindings.get(v) {
                    Some(val) => row.push(val.clone()),
                    None => {
                        return Err(CologneError::UnboundVariable {
                            rule: rule.label.clone(),
                            variable: v.clone(),
                        })
                    }
                },
                Arg::Const(lit) => row.push(crate::translate::literal_to_value(lit, self.params)?),
                Arg::Agg(_, _) => unreachable!("aggregate heads handled separately"),
            }
        }
        Ok(row)
    }

    fn emit_aggregate_head(
        &mut self,
        rule: &RuleDecl,
        bindings_list: &[Bindings],
    ) -> Result<(), CologneError> {
        // group key -> per-aggregate-column operand values
        let agg_args: Vec<(usize, AggFunc, String)> = rule
            .head
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                Arg::Agg(f, v) => Some((i, *f, v.clone())),
                _ => None,
            })
            .collect();
        let mut groups: BTreeMap<Tuple, Vec<Vec<Value>>> = BTreeMap::new();
        for b in bindings_list {
            let mut key = Vec::new();
            let mut operands: Vec<Value> = Vec::with_capacity(agg_args.len());
            let mut ok = true;
            for arg in &rule.head.args {
                match arg {
                    Arg::Loc(v) | Arg::Var(v) => match b.get(v) {
                        Some(val) => key.push(val.clone()),
                        None => {
                            ok = false;
                            break;
                        }
                    },
                    Arg::Const(lit) => {
                        key.push(crate::translate::literal_to_value(lit, self.params)?)
                    }
                    Arg::Agg(_, v) => match b.get(v) {
                        Some(val) => operands.push(val.clone()),
                        None => {
                            ok = false;
                            break;
                        }
                    },
                }
            }
            if !ok {
                return Err(CologneError::UnboundVariable {
                    rule: rule.label.clone(),
                    variable: "<head>".into(),
                });
            }
            let entry = groups
                .entry(key)
                .or_insert_with(|| vec![Vec::new(); agg_args.len()]);
            for (slot, v) in entry.iter_mut().zip(operands) {
                slot.push(v);
            }
        }
        let mut rows = Vec::with_capacity(groups.len());
        for (key, operand_lists) in groups {
            let mut agg_values: Vec<Value> = Vec::with_capacity(agg_args.len());
            for ((_, func, _), operands) in agg_args.iter().zip(operand_lists.iter()) {
                agg_values.push(self.compute_aggregate(rule, *func, operands)?);
            }
            // Interleave key values and aggregate values back into head order.
            let mut row = Vec::with_capacity(rule.head.args.len());
            let mut key_iter = key.into_iter();
            let mut agg_iter = agg_values.into_iter();
            for arg in &rule.head.args {
                match arg {
                    Arg::Agg(_, _) => row.push(agg_iter.next().expect("aggregate arity")),
                    _ => row.push(key_iter.next().expect("group-by arity")),
                }
            }
            rows.push(row);
        }
        self.solver_tables
            .entry(rule.head.name.clone())
            .or_default()
            .extend(rows);
        Ok(())
    }

    fn compute_aggregate(
        &mut self,
        rule: &RuleDecl,
        func: AggFunc,
        operands: &[Value],
    ) -> Result<Value, CologneError> {
        let all_concrete = operands.iter().all(|v| !v.is_symbolic());
        let all_int = operands
            .iter()
            .all(|v| matches!(v, Value::Int(_) | Value::Bool(_)));
        if all_int && matches!(func, AggFunc::Sum | AggFunc::SumAbs) {
            // `AggFunc::compute` wraps on overflow; sum with the checked
            // arithmetic of constant folding instead.
            let sum = operands.iter().try_fold(0i64, |sum, v| {
                let i = v.as_int().unwrap_or(0);
                sum.checked_add(if func == AggFunc::SumAbs {
                    i.checked_abs()?
                } else {
                    i
                })
            });
            let detail = || format!("{} of {} values", func.keyword(), operands.len());
            return checked(rule, sum, detail).map(Value::Int);
        }
        if all_concrete {
            return Ok(func.compute(operands));
        }
        // Convert operands to solver variables (constants become fixed vars).
        let vars: Vec<VarId> = operands
            .iter()
            .map(|v| match v {
                Value::Sym(s) => self.sym_var(*s),
                other => {
                    let c = other.as_f64().unwrap_or(0.0).round() as i64;
                    self.model.new_const(c)
                }
            })
            .collect();
        let result_var = match func {
            AggFunc::Sum => {
                let terms: Vec<(i64, VarId)> = vars.iter().map(|&v| (1, v)).collect();
                self.model.linear_var(&terms, 0)
            }
            AggFunc::SumAbs => self.model.sum_abs_var(&vars),
            AggFunc::Count => return Ok(Value::Int(operands.len() as i64)),
            AggFunc::Unique => self.model.nvalues_var(&vars),
            AggFunc::Min => self.model.min_var(&vars),
            AggFunc::Max => self.model.max_var(&vars),
            // STDEV is lowered to the scaled integer variance n·Σx² − (Σx)²
            // (same argmin, stays in the integers): one `ScaledVariance`
            // propagator over the operands (`Model::scaled_variance_var`).
            AggFunc::Stdev => self.model.scaled_variance_var(&vars),
        };
        Ok(self.new_sym(result_var))
    }

    // ----- solver constraint rules -------------------------------------------

    fn ground_constraint_rules(&mut self) -> Result<(), CologneError> {
        let plan = self.plan;
        let program = &plan.compiled.program;
        for (idx, elems) in &plan.constraint_elems {
            let rule = &program.rules[*idx];
            // Expressions are posted as hard constraints during the join
            // (force=true); the surviving bindings themselves are not needed.
            self.join_body(rule, elems, true)?;
        }
        Ok(())
    }

    // ----- body evaluation ----------------------------------------------------

    /// Join body elements against the database. `force` selects constraint
    /// semantics: expressions over solver attributes are posted as *hard*
    /// constraints and symbolic join conflicts become equality constraints.
    fn join_body(
        &mut self,
        rule: &RuleDecl,
        elems: &[BodyElem],
        force: bool,
    ) -> Result<Vec<Bindings>, CologneError> {
        let mut frontier = vec![Bindings::new()];
        for elem in elems {
            if frontier.is_empty() {
                break;
            }
            let mut next = Vec::new();
            match elem {
                BodyElem::Pred(pred) => {
                    let tuples = self.table_tuples(&pred.name);
                    for b in &frontier {
                        for t in tuples.iter() {
                            let mut nb = b.clone();
                            if self.match_with_symbolic(pred, t, &mut nb, force) {
                                next.push(nb);
                            }
                        }
                    }
                }
                BodyElem::Expr(expr) => {
                    for b in &frontier {
                        let mut nb = b.clone();
                        if self.apply_expression(rule, expr, &mut nb, force)? {
                            next.push(nb);
                        }
                    }
                }
                BodyElem::Assign(var, expr) => {
                    for b in &frontier {
                        let mut nb = b.clone();
                        let val = self.translate(rule, expr, &nb)?;
                        let value = self.symval_to_value(val);
                        nb.set(var, value);
                        next.push(nb);
                    }
                }
            }
            frontier = next;
        }
        Ok(frontier)
    }

    /// Match a predicate against a tuple. With `equate_symbolic` (constraint
    /// rules), a clash between an already-bound value and a tuple value where
    /// at least one side is symbolic is accepted and turned into an equality
    /// constraint — this is how `assign(X,Y,C) -> assign(Y,X,C)` (channel
    /// symmetry) is enforced.
    fn match_with_symbolic(
        &mut self,
        pred: &Predicate,
        tuple: &Tuple,
        bindings: &mut Bindings,
        equate_symbolic: bool,
    ) -> bool {
        if tuple.len() != pred.args.len() {
            return false;
        }
        for (arg, value) in pred.args.iter().zip(tuple.iter()) {
            match arg {
                Arg::Const(lit) => {
                    let Ok(expected) = crate::translate::literal_to_value(lit, self.params) else {
                        return false;
                    };
                    if &expected != value {
                        return false;
                    }
                }
                Arg::Loc(v) | Arg::Var(v) => match bindings.get(v).cloned() {
                    None => bindings.set(v, value.clone()),
                    Some(existing) if &existing == value => {}
                    Some(existing) => {
                        let symbolic = existing.is_symbolic() || value.is_symbolic();
                        if equate_symbolic && symbolic {
                            self.post_value_equality(&existing, value);
                        } else {
                            return false;
                        }
                    }
                },
                Arg::Agg(_, _) => return false,
            }
        }
        true
    }

    fn post_value_equality(&mut self, a: &Value, b: &Value) {
        let to_expr = |g: &Self, v: &Value| -> LinExpr {
            match v {
                Value::Sym(s) => LinExpr::var(g.sym_var(*s)),
                other => LinExpr::constant(other.as_f64().unwrap_or(0.0).round() as i64),
            }
        };
        let diff = to_expr(self, a).minus(&to_expr(self, b)).normalized();
        self.model.linear_eq(&diff.terms, -diff.constant);
    }

    // ----- expression translation ----------------------------------------------

    fn symval_to_value(&mut self, val: SymVal) -> Value {
        match val {
            SymVal::Concrete(c) => Value::Int(c),
            SymVal::Bool(v) => self.new_sym(v),
            SymVal::Linear(l) => {
                let n = l.normalized();
                if n.terms.is_empty() {
                    Value::Int(n.constant)
                } else if n.terms.len() == 1 && n.terms[0].0 == 1 && n.constant == 0 {
                    // Reuse the existing variable instead of creating an alias.
                    let var = n.terms[0].1;
                    self.new_sym(var)
                } else {
                    let var = self.model.expr_var(&n);
                    self.new_sym(var)
                }
            }
        }
    }

    fn symval_to_linear(&mut self, val: SymVal) -> LinExpr {
        match val {
            SymVal::Concrete(c) => LinExpr::constant(c),
            SymVal::Linear(l) => l,
            SymVal::Bool(v) => LinExpr::var(v),
        }
    }

    /// Apply a body expression to a binding. Returns whether the binding
    /// survives (concrete filters may reject it). Symbolic expressions either
    /// bind new solver variables (derivation rules, `C == V*Cpu`) or are
    /// posted as constraints.
    fn apply_expression(
        &mut self,
        rule: &RuleDecl,
        expr: &CExpr,
        bindings: &mut Bindings,
        force: bool,
    ) -> Result<bool, CologneError> {
        // Pattern 1: X == rhs with X unbound — bind X.
        if let CExpr::Bin(COp::Eq, lhs, rhs) = expr {
            for (var_side, other) in [(lhs, rhs), (rhs, lhs)] {
                if let CExpr::Var(x) = var_side.as_ref() {
                    if bindings.get(x).is_none() && self.params.constant(x).is_none() {
                        let val = self.translate(rule, other, bindings)?;
                        let bound = self.symval_to_value(val);
                        bindings.set(x, bound);
                        return Ok(true);
                    }
                }
            }
            // Pattern 2: (X == k) == rhs with X unbound — indicator variable.
            for (ind_side, other) in [(lhs, rhs), (rhs, lhs)] {
                if let CExpr::Bin(COp::Eq, a, b) = ind_side.as_ref() {
                    let (x, k) = match (a.as_ref(), b.as_ref()) {
                        (CExpr::Var(x), other_side) => (x, other_side),
                        (other_side, CExpr::Var(x)) => (x, other_side),
                        _ => continue,
                    };
                    if bindings.get(x).is_some() || self.params.constant(x).is_some() {
                        continue;
                    }
                    let k_val = match self.translate(rule, k, bindings)? {
                        SymVal::Concrete(c) => c,
                        _ => continue,
                    };
                    // X ranges over {0, k}; b <=> X == k; b <=> rhs.
                    let values = if k_val == 0 {
                        vec![0, 1]
                    } else {
                        vec![0, k_val]
                    };
                    let x_var = self.model.new_var_from_values(&values);
                    let b = self.model.new_bool();
                    self.model.reif_linear_eq(b, &[(1, x_var)], k_val);
                    let cond = self.translate(rule, other, bindings)?;
                    let cond_lin = self.symval_to_linear(cond);
                    let mut terms = vec![(1i64, b)];
                    for &(c, v) in &cond_lin.terms {
                        terms.push((-c, v));
                    }
                    self.model.linear_eq(&terms, cond_lin.constant);
                    let sym = self.new_sym(x_var);
                    bindings.set(x, sym);
                    return Ok(true);
                }
            }
        }
        // Pattern 3: fully translatable expression.
        let val = self.translate(rule, expr, bindings)?;
        match val {
            SymVal::Concrete(c) => {
                if c != 0 {
                    Ok(true)
                } else if force {
                    // Constraint rule with a violated concrete body: the model
                    // is infeasible.
                    self.model.linear_eq(&[], 1);
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            SymVal::Bool(b) => {
                // The expression must hold.
                self.model.linear_eq(&[(1, b)], 1);
                Ok(true)
            }
            SymVal::Linear(_) => Err(CologneError::UnsupportedExpression {
                rule: rule.label.clone(),
                detail: "non-boolean expression used as a condition".into(),
            }),
        }
    }

    /// Translate an expression to a [`SymVal`] under the given bindings.
    fn translate(
        &mut self,
        rule: &RuleDecl,
        expr: &CExpr,
        bindings: &Bindings,
    ) -> Result<SymVal, CologneError> {
        match expr {
            CExpr::Var(v) => match bindings.get(v) {
                Some(Value::Sym(s)) => Ok(SymVal::Linear(LinExpr::var(self.sym_var(*s)))),
                Some(Value::Int(i)) => Ok(SymVal::Concrete(*i)),
                Some(Value::Bool(b)) => Ok(SymVal::Concrete(i64::from(*b))),
                Some(Value::Float(f)) => Ok(SymVal::Concrete(f.0.round() as i64)),
                // Node addresses may be compared for (in)equality in rule
                // bodies (e.g. `Y != Z` in the wireless cost rules); their
                // numeric id is the natural integer view.
                Some(Value::Addr(n)) => Ok(SymVal::Concrete(n.0 as i64)),
                Some(other) => Err(CologneError::UnsupportedExpression {
                    rule: rule.label.clone(),
                    detail: format!("value {other} in arithmetic expression"),
                }),
                None => self
                    .params
                    .constant(v)
                    .map(SymVal::Concrete)
                    .ok_or_else(|| CologneError::UnboundVariable {
                        rule: rule.label.clone(),
                        variable: v.clone(),
                    }),
            },
            CExpr::Lit(lit) => {
                let value = crate::translate::literal_to_value(lit, self.params)?;
                Ok(SymVal::Concrete(
                    value.as_f64().unwrap_or(0.0).round() as i64
                ))
            }
            CExpr::Neg(inner) => {
                let v = self.translate(rule, inner, bindings)?;
                match v {
                    SymVal::Concrete(c) => fold(rule, c.checked_neg(), || format!("-({c})")),
                    other => Ok(SymVal::Linear(self.symval_to_linear(other).scale(-1))),
                }
            }
            CExpr::Abs(inner) => {
                let v = self.translate(rule, inner, bindings)?;
                match v {
                    SymVal::Concrete(c) => fold(rule, c.checked_abs(), || format!("|{c}|")),
                    other => {
                        let lin = self.symval_to_linear(other);
                        let base = self.model.expr_var(&lin);
                        let abs = self.model.abs_var(base);
                        Ok(SymVal::Linear(LinExpr::var(abs)))
                    }
                }
            }
            CExpr::Bin(op, a, b) => {
                let lhs = self.translate(rule, a, bindings)?;
                let rhs = self.translate(rule, b, bindings)?;
                self.translate_binop(rule, *op, lhs, rhs)
            }
        }
    }

    fn translate_binop(
        &mut self,
        rule: &RuleDecl,
        op: COp,
        lhs: SymVal,
        rhs: SymVal,
    ) -> Result<SymVal, CologneError> {
        use COp::*;
        match op {
            Add | Sub => {
                if let (&SymVal::Concrete(a), &SymVal::Concrete(b)) = (&lhs, &rhs) {
                    return if op == Add {
                        fold(rule, a.checked_add(b), || format!("{a} + {b}"))
                    } else {
                        fold(rule, a.checked_sub(b), || format!("{a} - {b}"))
                    };
                }
                let l = self.symval_to_linear(lhs);
                let r = self.symval_to_linear(rhs);
                Ok(SymVal::Linear(if op == Add {
                    l.plus(&r)
                } else {
                    l.minus(&r)
                }))
            }
            Mul => match (lhs, rhs) {
                (SymVal::Concrete(a), SymVal::Concrete(b)) => {
                    fold(rule, a.checked_mul(b), || format!("{a} * {b}"))
                }
                (SymVal::Concrete(a), other) | (other, SymVal::Concrete(a)) => {
                    let l = self.symval_to_linear(other);
                    Ok(SymVal::Linear(l.scale(a)))
                }
                (a, b) => {
                    let la = self.symval_to_linear(a);
                    let lb = self.symval_to_linear(b);
                    let va = self.model.expr_var(&la);
                    let vb = self.model.expr_var(&lb);
                    let prod = self.model.mul_var(va, vb);
                    Ok(SymVal::Linear(LinExpr::var(prod)))
                }
            },
            Div => match (lhs, rhs) {
                (SymVal::Concrete(a), SymVal::Concrete(0)) => {
                    Err(CologneError::UnsupportedExpression {
                        rule: rule.label.clone(),
                        detail: format!("division by zero in constant {a} / 0"),
                    })
                }
                (SymVal::Concrete(a), SymVal::Concrete(b)) => {
                    fold(rule, a.checked_div(b), || format!("{a} / {b}"))
                }
                _ => Err(CologneError::UnsupportedExpression {
                    rule: rule.label.clone(),
                    detail: "division involving solver variables".into(),
                }),
            },
            Eq | Ne | Lt | Le | Gt | Ge => {
                if let (SymVal::Concrete(a), SymVal::Concrete(b)) = (&lhs, &rhs) {
                    let holds = match op {
                        Eq => a == b,
                        Ne => a != b,
                        Lt => a < b,
                        Le => a <= b,
                        Gt => a > b,
                        Ge => a >= b,
                        _ => unreachable!(),
                    };
                    return Ok(SymVal::Concrete(i64::from(holds)));
                }
                let l = self.symval_to_linear(lhs);
                let r = self.symval_to_linear(rhs);
                let diff = l.minus(&r).normalized();
                let b = self.model.new_bool();
                match op {
                    Eq => self.model.reif_linear_eq(b, &diff.terms, -diff.constant),
                    Ne => {
                        let beq = self.model.new_bool();
                        self.model.reif_linear_eq(beq, &diff.terms, -diff.constant);
                        // b = 1 - beq
                        self.model.linear_eq(&[(1, b), (1, beq)], 1);
                    }
                    Le => self.model.reif_linear_le(b, &diff.terms, -diff.constant),
                    Lt => self
                        .model
                        .reif_linear_le(b, &diff.terms, -diff.constant - 1),
                    Ge => {
                        let neg: Vec<(i64, VarId)> =
                            diff.terms.iter().map(|&(c, v)| (-c, v)).collect();
                        self.model.reif_linear_le(b, &neg, diff.constant);
                    }
                    Gt => {
                        let neg: Vec<(i64, VarId)> =
                            diff.terms.iter().map(|&(c, v)| (-c, v)).collect();
                        self.model.reif_linear_le(b, &neg, diff.constant - 1);
                    }
                    _ => unreachable!(),
                }
                Ok(SymVal::Bool(b))
            }
        }
    }

    // ----- goal -----------------------------------------------------------------

    fn build_objective(&mut self) -> Result<ObjectiveSpec, CologneError> {
        let Some(goal) = &self.plan.goal else {
            return Ok((None, None));
        };
        if goal.kind == GoalKind::Satisfy {
            return Ok((None, Some(goal.relation.clone())));
        }
        let position = goal.position.expect("non-satisfy goals have a position");
        let tuples = self.table_tuples(&goal.relation);
        let mut terms: Vec<(i64, VarId)> = Vec::new();
        let mut constant = 0i64;
        for t in tuples.iter() {
            match t.get(position) {
                Some(Value::Sym(s)) => terms.push((1, self.sym_var(*s))),
                Some(other) => constant += other.as_f64().unwrap_or(0.0).round() as i64,
                None => {}
            }
        }
        if terms.is_empty() && tuples.is_empty() {
            // Nothing to optimize: leave the objective out; the caller treats
            // the COP as trivially solved.
            return Ok((None, Some(goal.relation.clone())));
        }
        let objective = if terms.len() == 1 && constant == 0 {
            terms[0].1
        } else {
            self.model.linear_var(&terms, constant)
        };
        Ok((Some((goal.kind, objective)), Some(goal.relation.clone())))
    }
}

/// A folded constant, or an error naming the operation `expr` describes
/// when its `i64` result overflows.
fn fold(
    rule: &RuleDecl,
    result: Option<i64>,
    expr: impl FnOnce() -> String,
) -> Result<SymVal, CologneError> {
    checked(rule, result, expr).map(SymVal::Concrete)
}

/// `result`, or the error [`fold`] reports for an overflowing constant.
fn checked(
    rule: &RuleDecl,
    result: Option<i64>,
    expr: impl FnOnce() -> String,
) -> Result<i64, CologneError> {
    result.ok_or_else(|| CologneError::UnsupportedExpression {
        rule: rule.label.clone(),
        detail: format!("constant {} overflows i64", expr()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cologne_datalog::NodeId;
    use cologne_solver::SearchConfig;

    const MINI_ACLOUD: &str = r#"
        goal minimize C in hostStdevCpu(C).
        var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
        r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
        d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
        d2 hostStdevCpu(STDEV<C>) <- host(Hid,Cpu,Mem), hostCpu(Hid,Cpu2), C==Cpu+Cpu2.
        d3 assignCount(Vid,SUM<V>) <- assign(Vid,Hid,V).
        c1 assignCount(Vid,V) -> V==1.
        d4 hostMem(Hid,SUM<M>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), M==V*Mem.
        c2 hostMem(Hid,Mem) -> hostMemThres(Hid,M), Mem<=M.
    "#;

    fn mini_acloud_engine() -> Engine {
        // two hosts (idle), two VMs of 40 and 20 CPU units, plenty of memory
        let mut e = Engine::new(NodeId(0));
        for (vid, cpu, mem) in [(1, 40, 4), (2, 20, 4)] {
            e.insert(
                "vm",
                vec![Value::Int(vid), Value::Int(cpu), Value::Int(mem)],
            );
        }
        for hid in [10, 11] {
            e.insert("host", vec![Value::Int(hid), Value::Int(0), Value::Int(0)]);
            e.insert("hostMemThres", vec![Value::Int(hid), Value::Int(8)]);
        }
        e
    }

    /// Install the regular rules of `src` on `engine`, run them to a
    /// fixpoint and ground the solver rules once with a fresh plan.
    fn ground(
        engine: &mut Engine,
        src: &str,
        params: &ProgramParams,
    ) -> Result<GroundedCop, CologneError> {
        let compiled = CompiledProgram::compile(src).unwrap();
        for (idx, rule) in compiled.program.rules.iter().enumerate() {
            if compiled.analysis.class_of(idx) == RuleClass::Regular {
                engine.add_rule(crate::translate::rule_to_datalog(rule, params).unwrap());
            }
        }
        engine.run();
        GroundingPlan::build(&compiled, params).ground(
            params,
            engine,
            &mut GroundingScratch::default(),
        )
    }

    fn ground_mini_acloud(engine: &mut Engine, program_src: &str) -> GroundedCop {
        let params = ProgramParams::new().with_var_domain("assign", VarDomain::BOOL);
        ground(engine, program_src, &params).unwrap()
    }

    /// Constant folding over fact values reports overflow and division by
    /// zero as unsupported expressions instead of panicking or wrapping.
    #[test]
    fn constant_folding_rejects_overflow_and_division_by_zero() {
        let overflows = [
            ("Cpu+Base", i64::MAX, 1, "9223372036854775807 + 1"),
            ("Cpu-Base", i64::MIN, 1, "-9223372036854775808 - 1"),
            ("Cpu*Base", i64::MAX, 2, "9223372036854775807 * 2"),
            ("Cpu/Base", i64::MIN, -1, "-9223372036854775808 / -1"),
            ("-Cpu", i64::MIN, 0, "-(-9223372036854775808)"),
            ("|Cpu|", i64::MIN, 0, "|-9223372036854775808|"),
        ]
        .map(|(expr, cpu, base, op)| (expr, cpu, base, format!("constant {op} overflows i64")));
        let division_by_zero = (
            "Cpu/Base",
            7,
            0,
            "division by zero in constant 7 / 0".into(),
        );
        let params = ProgramParams::new().with_var_domain("assign", VarDomain::BOOL);
        for (expr, cpu, base, detail) in overflows.into_iter().chain([division_by_zero]) {
            let src = format!(
                "goal minimize C in total(C).
                 var assign(Vid,V) forall toAssign(Vid).
                 r1 toAssign(Vid) <- vm(Vid,Cpu,Base).
                 d1 total(SUM<C>) <- assign(Vid,V), vm(Vid,Cpu,Base), C==V*({expr})."
            );
            let mut engine = Engine::new(NodeId(0));
            engine.insert("vm", vec![Value::Int(1), Value::Int(cpu), Value::Int(base)]);
            match ground(&mut engine, &src, &params).err() {
                Some(CologneError::UnsupportedExpression { rule, detail: got }) => {
                    assert_eq!((rule.as_str(), got), ("d1", detail), "{expr}");
                }
                other => panic!("{expr}: expected an unsupported expression, got {other:?}"),
            }
        }
    }

    /// A `SUM`/`SUMABS` over concrete values reports overflow like constant
    /// folding does.
    #[test]
    fn concrete_sums_reject_overflow() {
        let params = ProgramParams::new().with_var_domain("assign", VarDomain::BOOL);
        for (agg, cpus) in [
            ("SUM", [i64::MAX, 1]),
            ("SUMABS", [i64::MAX, -1]),
            ("SUMABS", [i64::MIN, 0]),
        ] {
            let src = format!(
                "goal minimize C in total(C).
                 var assign(Vid,V) forall toAssign(Vid).
                 r1 toAssign(Vid) <- vm(Vid,Cpu).
                 d1 total({agg}<Cpu>) <- assign(Vid,V), vm(Vid,Cpu)."
            );
            let mut engine = Engine::new(NodeId(0));
            for (vid, cpu) in cpus.into_iter().enumerate() {
                engine.insert("vm", vec![Value::Int(vid as i64), Value::Int(cpu)]);
            }
            match ground(&mut engine, &src, &params).err() {
                Some(CologneError::UnsupportedExpression { rule, detail }) => {
                    let expected = format!("constant {agg} of 2 values overflows i64");
                    assert_eq!((rule.as_str(), detail), ("d1", expected), "{cpus:?}");
                }
                other => panic!("{agg} {cpus:?}: expected an overflow error, got {other:?}"),
            }
        }
    }

    #[test]
    fn acloud_grounding_creates_expected_structure() {
        let mut engine = mini_acloud_engine();
        let cop = ground_mini_acloud(&mut engine, MINI_ACLOUD);
        // 2 VMs x 2 hosts = 4 assignment variables
        assert_eq!(cop.solver_tables["assign"].len(), 4);
        assert_eq!(cop.solver_tables["hostCpu"].len(), 2);
        assert_eq!(cop.solver_tables["hostStdevCpu"].len(), 1);
        assert_eq!(cop.solver_tables["assignCount"].len(), 2);
        assert!(cop.objective.is_some());
        assert!(!cop.is_trivial());
    }

    #[test]
    fn acloud_optimum_balances_load() {
        let mut engine = mini_acloud_engine();
        let cop = ground_mini_acloud(&mut engine, MINI_ACLOUD);
        let (kind, obj) = cop.objective.unwrap();
        assert_eq!(kind, GoalKind::Minimize);
        let outcome = cop.model.minimize(obj, &SearchConfig::default());
        let best = outcome.best.expect("feasible");
        // each VM on its own host (load 40 vs 20 beats 60 vs 0)
        let mut per_host = std::collections::BTreeMap::new();
        for row in &cop.solver_tables["assign"] {
            let vid = row[0].as_int().unwrap();
            let hid = row[1].as_int().unwrap();
            let v = cop.resolve(&row[2], &best).as_int().unwrap();
            if v == 1 {
                let cpu = if vid == 1 { 40 } else { 20 };
                *per_host.entry(hid).or_insert(0) += cpu;
            }
        }
        let loads: Vec<i64> = per_host.values().copied().collect();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads.iter().sum::<i64>(), 60);
        assert!((loads[0] - loads[1]).abs() == 20, "loads {loads:?}");
    }

    #[test]
    fn memory_constraint_forces_spread() {
        // Hosts only have 4 memory units, each VM needs 4: VMs must spread.
        let mut e = Engine::new(NodeId(0));
        for (vid, cpu, mem) in [(1, 10, 4), (2, 10, 4)] {
            e.insert(
                "vm",
                vec![Value::Int(vid), Value::Int(cpu), Value::Int(mem)],
            );
        }
        for hid in [10, 11] {
            e.insert("host", vec![Value::Int(hid), Value::Int(0), Value::Int(0)]);
            e.insert("hostMemThres", vec![Value::Int(hid), Value::Int(4)]);
        }
        let cop = ground_mini_acloud(&mut e, MINI_ACLOUD);
        let (_, obj) = cop.objective.unwrap();
        let outcome = cop.model.minimize(obj, &SearchConfig::default());
        let best = outcome.best.expect("feasible");
        for hid in [10i64, 11] {
            let mem: i64 = cop.solver_tables["assign"]
                .iter()
                .filter(|r| r[1].as_int() == Some(hid))
                .map(|r| cop.resolve(&r[2], &best).as_int().unwrap() * 4)
                .sum();
            assert!(mem <= 4, "host {hid} over memory: {mem}");
        }
    }

    /// ACloud and ACloud (M) learn the loads' total at the root: every VM
    /// sits on exactly one host (rule c1). Without c1 there is none.
    #[test]
    fn acloud_groundings_learn_the_loads_total() {
        let migration = format!(
            "{MINI_ACLOUD}
            d5 migrate(Vid,Hid1,Hid2,C) <- assign(Vid,Hid1,V), origin(Vid,Hid2), Hid1!=Hid2, (V==1)==(C==1).
            d6 migrateCount(SUM<C>) <- migrate(Vid,Hid1,Hid2,C).
            c3 migrateCount(C) -> C<=max_migrates.
            "
        );
        let without_c1 = MINI_ACLOUD.replace("c1 assignCount(Vid,V) -> V==1.", "");
        assert_ne!(without_c1, MINI_ACLOUD);
        let params = ProgramParams::new()
            .with_var_domain("assign", VarDomain::BOOL)
            .with_constant("max_migrates", 1);
        for (src, total) in [
            (MINI_ACLOUD.to_string(), Some(40 + 20)),
            (migration, Some(60)),
            (without_c1, None),
        ] {
            let mut engine = mini_acloud_engine();
            if src.contains("origin") {
                engine.insert("origin", vec![Value::Int(1), Value::Int(10)]);
                engine.insert("origin", vec![Value::Int(2), Value::Int(10)]);
            }
            let mut cop = ground(&mut engine, &src, &params).unwrap();
            assert_eq!(cop.model.presolve(), vec![total], "{src}");
        }
    }

    #[test]
    fn empty_workload_is_trivial() {
        let mut engine = Engine::new(NodeId(0));
        let cop = ground_mini_acloud(&mut engine, MINI_ACLOUD);
        assert!(cop.is_trivial());
        assert!(cop.objective.is_none());
    }

    #[test]
    fn indicator_pattern_counts_migrations() {
        // Reproduces rules d5/d6/c3 from Sec. 4.2: limit migrations to 0 so
        // the optimal balanced placement is forbidden and VMs stay put.
        let src = format!(
            "{MINI_ACLOUD}
            d5 migrate(Vid,Hid1,Hid2,C) <- assign(Vid,Hid1,V), origin(Vid,Hid2), Hid1!=Hid2, (V==1)==(C==1).
            d6 migrateCount(SUM<C>) <- migrate(Vid,Hid1,Hid2,C).
            c3 migrateCount(C) -> C<=max_migrates.
            "
        );
        let params = ProgramParams::new()
            .with_var_domain("assign", VarDomain::BOOL)
            .with_constant("max_migrates", 0);
        let mut engine = mini_acloud_engine();
        // both VMs currently on host 10
        engine.insert("origin", vec![Value::Int(1), Value::Int(10)]);
        engine.insert("origin", vec![Value::Int(2), Value::Int(10)]);
        let cop = ground(&mut engine, &src, &params).unwrap();
        let (_, obj) = cop.objective.unwrap();
        let best = cop
            .model
            .minimize(obj, &SearchConfig::default())
            .best
            .expect("feasible");
        // With zero migrations allowed, both VMs must remain on host 10.
        for row in &cop.solver_tables["assign"] {
            let hid = row[1].as_int().unwrap();
            let v = cop.resolve(&row[2], &best).as_int().unwrap();
            assert_eq!(v, i64::from(hid == 10), "row {row:?}");
        }
    }

    #[test]
    fn missing_parameter_is_reported() {
        let src = format!(
            "{MINI_ACLOUD}
            d6 migrateCount(SUM<V>) <- assign(Vid,Hid,V).
            c3 migrateCount(C) -> C<=max_migrates.
            "
        );
        let mut engine = mini_acloud_engine();
        let err = match ground(&mut engine, &src, &ProgramParams::new()) {
            Err(e) => e,
            Ok(_) => panic!("grounding should fail without max_migrates"),
        };
        assert!(matches!(
            err,
            CologneError::UnboundVariable { .. } | CologneError::MissingParameter(_)
        ));
    }
}
