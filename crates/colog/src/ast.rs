//! Abstract syntax tree for the Colog language.
//!
//! Colog (Sec. 4 of the paper) extends distributed Datalog with:
//!
//! * a `goal` declaration (`minimize` / `maximize` / `satisfy`),
//! * `var` declarations binding solver variables to the rows of a regular
//!   table (`var assign(Vid,Hid,V) forall toAssign(Vid,Hid)`),
//! * solver *derivation* rules (`head <- body`) and solver *constraint* rules
//!   (`head -> body`),
//! * the `@Loc` location specifier for distributed rules,
//! * aggregates (`SUM`, `COUNT`, `MIN`, `MAX`, `STDEV`, `SUMABS`, `UNIQUE`).

use cologne_datalog::AggFunc;

/// The kind of optimization goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoalKind {
    /// `goal minimize X in rel(...)`
    Minimize,
    /// `goal maximize X in rel(...)`
    Maximize,
    /// `goal satisfy` — find any solution meeting all constraints.
    Satisfy,
}

/// A `goal` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct GoalDecl {
    /// Minimize, maximize or satisfy.
    pub kind: GoalKind,
    /// The goal variable named in the declaration (e.g. `C`).
    pub var: String,
    /// The predicate the goal variable is read from (e.g. `hostStdevCpu(C)`).
    pub relation: Predicate,
}

/// A `var` declaration:
/// `var assign(Vid,Hid,V) forall toAssign(Vid,Hid).`
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// The solver table being declared (e.g. `assign(Vid,Hid,V)`).
    pub table: Predicate,
    /// The regular table whose rows the solver variables range over.
    pub forall: Predicate,
}

impl VarDecl {
    /// Positions of `table`'s arguments that are solver variables: the
    /// argument variables that do not appear in the `forall` predicate
    /// (Sec. 5.2: "V is a solver attribute of table assign, since V does not
    /// appear after forall").
    pub fn solver_positions(&self) -> Vec<usize> {
        let bound: Vec<&str> = self
            .forall
            .args
            .iter()
            .filter_map(|a| a.var_name())
            .collect();
        self.table
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a.var_name() {
                Some(v) if !bound.contains(&v) => Some(i),
                _ => None,
            })
            .collect()
    }
}

/// A constant appearing in a Colog program.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// Integer constant.
    Int(i64),
    /// Floating-point constant.
    Float(f64),
    /// String constant.
    Str(String),
    /// A named program parameter (lowercase identifier such as
    /// `max_migrates`, `F_mindiff`, `cost_thres`); resolved at compile time
    /// from the runtime's `ProgramParams`.
    Param(String),
}

/// One argument of a predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A location specifier `@X`.
    Loc(String),
    /// A plain variable.
    Var(String),
    /// An aggregate over a variable, e.g. `SUM<C>`.
    Agg(AggFunc, String),
    /// A constant.
    Const(Literal),
}

impl Arg {
    /// The variable name carried by this argument (for `Loc`, `Var` and
    /// `Agg`), or `None` for constants.
    pub fn var_name(&self) -> Option<&str> {
        match self {
            Arg::Loc(v) | Arg::Var(v) => Some(v),
            Arg::Agg(_, v) => Some(v),
            Arg::Const(_) => None,
        }
    }

    /// True if the argument is an aggregate.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Arg::Agg(_, _))
    }
}

/// A predicate occurrence `name(arg1, ..., argn)`; if the first argument is a
/// location specifier `@X`, [`Predicate::location`] returns it.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    /// Relation name.
    pub name: String,
    /// Arguments (the location specifier, when present, is `args[0]`).
    pub args: Vec<Arg>,
}

impl Predicate {
    /// Build a predicate.
    pub fn new(name: &str, args: Vec<Arg>) -> Predicate {
        Predicate {
            name: name.to_string(),
            args,
        }
    }

    /// The location variable if the predicate carries a `@Loc` specifier.
    pub fn location(&self) -> Option<&str> {
        match self.args.first() {
            Some(Arg::Loc(v)) => Some(v),
            _ => None,
        }
    }

    /// True if any argument is an aggregate.
    pub fn has_aggregate(&self) -> bool {
        self.args.iter().any(Arg::is_aggregate)
    }

    /// Variable names referenced by the predicate, in order of appearance.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        for a in &self.args {
            if let Some(v) = a.var_name() {
                if !out.iter().any(|x| x == v) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }
}

/// Binary operators in Colog expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum COp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl COp {
    /// True for comparison operators (which yield booleans).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            COp::Eq | COp::Ne | COp::Lt | COp::Le | COp::Gt | COp::Ge
        )
    }
}

/// An expression in a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A variable reference.
    Var(String),
    /// A literal constant or named parameter.
    Lit(Literal),
    /// Binary operation.
    Bin(COp, Box<CExpr>, Box<CExpr>),
    /// Absolute value `|e|`.
    Abs(Box<CExpr>),
    /// Unary negation `-e`.
    Neg(Box<CExpr>),
}

impl CExpr {
    /// Build a binary expression.
    pub fn bin(op: COp, lhs: CExpr, rhs: CExpr) -> CExpr {
        CExpr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Variables referenced by the expression.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            CExpr::Var(v) => {
                if !out.iter().any(|x| x == v) {
                    out.push(v.clone());
                }
            }
            CExpr::Lit(_) => {}
            CExpr::Bin(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            CExpr::Abs(e) | CExpr::Neg(e) => e.collect_vars(out),
        }
    }

    /// True if the expression is a top-level comparison.
    pub fn is_comparison(&self) -> bool {
        matches!(self, CExpr::Bin(op, _, _) if op.is_comparison())
    }
}

/// One element of a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyElem {
    /// A predicate to be joined.
    Pred(Predicate),
    /// A boolean expression (selection in a regular rule; constraint template
    /// in a solver rule).
    Expr(CExpr),
    /// An assignment `X := expr` (regular rules only).
    Assign(String, CExpr),
}

/// `<-` (derivation) vs `->` (constraint).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleArrow {
    /// `head <- body`: the body derives the head.
    Derivation,
    /// `head -> body`: whenever the head holds, the body must hold
    /// (an invariant the solver must maintain, Sec. 4.2).
    Constraint,
}

/// A Colog rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleDecl {
    /// Rule label (`r1`, `d2`, `c3`, ...).
    pub label: String,
    /// Derivation or constraint.
    pub arrow: RuleArrow,
    /// Head predicate.
    pub head: Predicate,
    /// Body elements.
    pub body: Vec<BodyElem>,
}

impl RuleDecl {
    /// Names of relations referenced in the body.
    pub fn body_relations(&self) -> Vec<&str> {
        self.body
            .iter()
            .filter_map(|b| match b {
                BodyElem::Pred(p) => Some(p.name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// All distinct location variables mentioned in head and body predicates.
    pub fn locations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut push = |loc: Option<&str>| {
            if let Some(l) = loc {
                if !out.iter().any(|x| x == l) {
                    out.push(l.to_string());
                }
            }
        };
        push(self.head.location());
        for b in &self.body {
            if let BodyElem::Pred(p) = b {
                push(p.location());
            }
        }
        out
    }

    /// True if the rule spans more than one location (and therefore needs the
    /// localization rewrite of Sec. 5.5).
    pub fn is_distributed(&self) -> bool {
        self.locations().len() > 1
    }
}

/// A complete Colog program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Optional optimization goal (a program may also be pure Datalog).
    pub goal: Option<GoalDecl>,
    /// Solver variable declarations.
    pub vars: Vec<VarDecl>,
    /// Rules, in source order.
    pub rules: Vec<RuleDecl>,
}

impl Program {
    /// Number of rules plus declarations — the unit reported in the
    /// "Colog" column of Table 2 of the paper.
    pub fn num_rules(&self) -> usize {
        self.rules.len() + self.vars.len() + usize::from(self.goal.is_some())
    }

    /// Find a rule by label.
    pub fn rule(&self, label: &str) -> Option<&RuleDecl> {
        self.rules.iter().find(|r| r.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign_var_decl() -> VarDecl {
        VarDecl {
            table: Predicate::new(
                "assign",
                vec![
                    Arg::Var("Vid".into()),
                    Arg::Var("Hid".into()),
                    Arg::Var("V".into()),
                ],
            ),
            forall: Predicate::new(
                "toAssign",
                vec![Arg::Var("Vid".into()), Arg::Var("Hid".into())],
            ),
        }
    }

    #[test]
    fn var_decl_solver_positions() {
        assert_eq!(assign_var_decl().solver_positions(), vec![2]);
    }

    #[test]
    fn predicate_location_and_vars() {
        let p = Predicate::new(
            "migVm",
            vec![
                Arg::Loc("X".into()),
                Arg::Var("Y".into()),
                Arg::Var("D".into()),
                Arg::Var("R".into()),
            ],
        );
        assert_eq!(p.location(), Some("X"));
        assert_eq!(p.variables(), vec!["X", "Y", "D", "R"]);
        assert!(!p.has_aggregate());
        let agg = Predicate::new(
            "hostCpu",
            vec![Arg::Var("Hid".into()), Arg::Agg(AggFunc::Sum, "C".into())],
        );
        assert!(agg.has_aggregate());
        assert_eq!(agg.location(), None);
    }

    #[test]
    fn rule_locations_and_distribution() {
        let rule = RuleDecl {
            label: "d2".into(),
            arrow: RuleArrow::Derivation,
            head: Predicate::new(
                "nborNextVm",
                vec![Arg::Loc("X".into()), Arg::Var("Y".into())],
            ),
            body: vec![
                BodyElem::Pred(Predicate::new(
                    "link",
                    vec![Arg::Loc("Y".into()), Arg::Var("X".into())],
                )),
                BodyElem::Pred(Predicate::new(
                    "curVm",
                    vec![Arg::Loc("Y".into()), Arg::Var("D".into())],
                )),
            ],
        };
        assert_eq!(rule.locations(), vec!["X", "Y"]);
        assert!(rule.is_distributed());
        assert_eq!(rule.body_relations(), vec!["link", "curVm"]);
    }

    #[test]
    fn expression_helpers() {
        let e = CExpr::bin(
            COp::Eq,
            CExpr::Var("C".into()),
            CExpr::bin(COp::Mul, CExpr::Var("V".into()), CExpr::Var("Cpu".into())),
        );
        assert!(e.is_comparison());
        assert_eq!(e.variables(), vec!["C", "V", "Cpu"]);
        let abs = CExpr::Abs(Box::new(CExpr::bin(
            COp::Sub,
            CExpr::Var("C1".into()),
            CExpr::Var("C2".into()),
        )));
        assert_eq!(abs.variables(), vec!["C1", "C2"]);
        assert!(!abs.is_comparison());
    }

    #[test]
    fn program_counts_declarations() {
        let mut p = Program::default();
        assert_eq!(p.num_rules(), 0);
        p.vars.push(assign_var_decl());
        p.goal = Some(GoalDecl {
            kind: GoalKind::Minimize,
            var: "C".into(),
            relation: Predicate::new("hostStdevCpu", vec![Arg::Var("C".into())]),
        });
        assert_eq!(p.num_rules(), 2);
        assert!(p.rule("r1").is_none());
    }
}
