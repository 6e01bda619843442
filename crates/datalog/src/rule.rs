//! Rule representation (the engine's intermediate form).
//!
//! The Colog compiler (crate `cologne-colog`) lowers regular Datalog rules to
//! this IR; solver rules are instead grounded by the Cologne runtime. A rule
//! is `head <- body` where the body is an ordered list of predicate atoms,
//! boolean filters and assignments, and the head may carry aggregate
//! functions over grouped variables (e.g. `hostCpu(Hid, SUM<C>)`).
//!
//! ## Relationship to compiled plans
//!
//! This IR is *name-based*: atoms refer to relations by string and to
//! variables by name. The engine does not evaluate rules in this form.
//! When a rule is registered with [`crate::Engine::add_rule`] it is
//! compiled once into a `RulePlan` (module `plan`, crate-private): relation
//! names become interned `RelId`s, variable names become dense `u16` slots,
//! and the body atoms are reordered into an explicit join order with a
//! per-atom index probe strategy.
//!
//! Invariants the compiler relies on (and `plan::compile` checks or
//! preserves):
//!
//! * body atoms bind variables left-to-right; a filter or assignment may
//!   only read variables bound by atoms (or assignments) before it, and
//!   reordering never moves an atom across an expression that reads one of
//!   its variables;
//! * a located head's first argument is the destination address and must be
//!   bound by the body;
//! * aggregate heads group by their non-aggregate arguments, and the engine
//!   keeps per-group state that each signed derivation is folded into;
//! * a rule whose body mentions the same relation twice is evaluated by
//!   recompute-and-diff rather than per-delta counting, because a single
//!   delta can participate in several derivations of the same head tuple.

use crate::expr::{Expr, Term};
use crate::value::Value;

/// A predicate occurrence `rel(arg1, ..., argn)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Argument terms (variables or constants).
    pub args: Vec<Term>,
    /// True if this predicate carries a location specifier (`@X` as its first
    /// argument) — the distributed-Colog convention from Sec. 4.3.
    pub located: bool,
}

impl Atom {
    /// Build an atom without a location specifier.
    pub fn new(relation: &str, args: Vec<Term>) -> Atom {
        Atom {
            relation: relation.to_string(),
            args,
            located: false,
        }
    }

    /// Build a located atom (first argument is the node address).
    pub fn located(relation: &str, args: Vec<Term>) -> Atom {
        Atom {
            relation: relation.to_string(),
            args,
            located: true,
        }
    }

    /// Variable names appearing in the atom, in order of first appearance.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.args {
            if let Term::Var(v) = t {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        }
        out
    }
}

/// One element of a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyItem {
    /// A predicate to join with.
    Atom(Atom),
    /// A boolean selection over already-bound variables.
    Filter(Expr),
    /// An assignment `Var := Expr` binding a new variable.
    Assign(String, Expr),
}

/// Aggregate functions supported in rule heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `SUM<X>`
    Sum,
    /// `COUNT<X>`
    Count,
    /// `MIN<X>`
    Min,
    /// `MAX<X>`
    Max,
    /// `SUMABS<X>` — sum of absolute values (Follow-the-Sun migration cost).
    SumAbs,
    /// `STDEV<X>` — standard deviation (ACloud load-balancing goal).
    Stdev,
    /// `UNIQUE<X>` — number of distinct values (wireless interface count).
    Unique,
}

impl AggFunc {
    /// Parse an aggregate keyword as it appears in Colog source.
    pub fn from_keyword(kw: &str) -> Option<AggFunc> {
        match kw.to_ascii_uppercase().as_str() {
            "SUM" => Some(AggFunc::Sum),
            "COUNT" => Some(AggFunc::Count),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "SUMABS" => Some(AggFunc::SumAbs),
            "STDEV" => Some(AggFunc::Stdev),
            "UNIQUE" => Some(AggFunc::Unique),
            _ => None,
        }
    }

    /// The Colog keyword for this aggregate.
    pub fn keyword(&self) -> &'static str {
        match self {
            AggFunc::Sum => "SUM",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::SumAbs => "SUMABS",
            AggFunc::Stdev => "STDEV",
            AggFunc::Unique => "UNIQUE",
        }
    }

    /// Compute the aggregate over concrete values.
    pub fn compute(&self, values: &[Value]) -> Value {
        match self {
            AggFunc::Count => Value::Int(values.len() as i64),
            AggFunc::Unique => {
                let mut distinct: Vec<&Value> = values.iter().collect();
                distinct.sort();
                distinct.dedup();
                Value::Int(distinct.len() as i64)
            }
            AggFunc::Min => values.iter().min().cloned().unwrap_or(Value::Int(0)),
            AggFunc::Max => values.iter().max().cloned().unwrap_or(Value::Int(0)),
            AggFunc::Sum | AggFunc::SumAbs => {
                let all_int = values
                    .iter()
                    .all(|v| matches!(v, Value::Int(_) | Value::Bool(_)));
                if all_int {
                    let mut s = 0i64;
                    for v in values {
                        let i = v.as_int().unwrap_or(0);
                        s += if *self == AggFunc::SumAbs { i.abs() } else { i };
                    }
                    Value::Int(s)
                } else {
                    let mut s = 0.0f64;
                    for v in values {
                        let x = v.as_f64().unwrap_or(0.0);
                        s += if *self == AggFunc::SumAbs { x.abs() } else { x };
                    }
                    Value::float(s)
                }
            }
            AggFunc::Stdev => {
                if values.is_empty() {
                    return Value::float(0.0);
                }
                let xs: Vec<f64> = values.iter().map(|v| v.as_f64().unwrap_or(0.0)).collect();
                let mean = xs.iter().sum::<f64>() / xs.len() as f64;
                let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
                Value::float(var.sqrt())
            }
        }
    }
}

/// One argument position of a rule head.
#[derive(Debug, Clone, PartialEq)]
pub enum HeadArg {
    /// A plain term (group-by attribute or constant).
    Term(Term),
    /// An aggregate over a body variable, e.g. `SUM<C>`.
    Agg(AggFunc, String),
}

/// A rule head `rel(args...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Head {
    /// Relation produced by the rule.
    pub relation: String,
    /// Head arguments.
    pub args: Vec<HeadArg>,
    /// True if the head carries a location specifier (first argument is the
    /// destination node address).
    pub located: bool,
}

impl Head {
    /// Head with only plain terms.
    pub fn simple(relation: &str, args: Vec<Term>) -> Head {
        Head {
            relation: relation.to_string(),
            args: args.into_iter().map(HeadArg::Term).collect(),
            located: false,
        }
    }

    /// True if any head argument is an aggregate.
    pub fn has_aggregate(&self) -> bool {
        self.args.iter().any(|a| matches!(a, HeadArg::Agg(_, _)))
    }
}

/// A complete rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule label (`r1`, `d2`, `c3`, ... in the paper's programs).
    pub label: String,
    /// Head.
    pub head: Head,
    /// Body items, evaluated left to right.
    pub body: Vec<BodyItem>,
}

impl Rule {
    /// Create a rule.
    pub fn new(label: &str, head: Head, body: Vec<BodyItem>) -> Rule {
        Rule {
            label: label.to_string(),
            head,
            body,
        }
    }

    /// Names of the relations referenced in the body.
    pub fn body_relations(&self) -> Vec<&str> {
        self.body
            .iter()
            .filter_map(|b| match b {
                BodyItem::Atom(a) => Some(a.relation.as_str()),
                _ => None,
            })
            .collect()
    }

    /// True if the head contains aggregates.
    pub fn is_aggregate(&self) -> bool {
        self.head.has_aggregate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Op;

    /// The head relation after running `rule` over `facts`.
    fn derive(rule: Rule, facts: &[(&str, Vec<Value>)]) -> Vec<Vec<Value>> {
        let head = rule.head.relation.clone();
        let mut engine = crate::Engine::new(crate::NodeId(0));
        engine.add_rule(rule);
        for (relation, tuple) in facts {
            engine.insert(relation, tuple.clone());
        }
        engine.run();
        engine.tuples(&head)
    }

    #[test]
    fn atom_matching_binds_and_checks() {
        let int = Value::Int;
        // out(Vid, Cpu) <- vm(Vid, Cpu, 4)
        let vm = Rule::new(
            "r",
            Head::simple("out", vec![Term::var("Vid"), Term::var("Cpu")]),
            vec![BodyItem::Atom(Atom::new(
                "vm",
                vec![Term::var("Vid"), Term::var("Cpu"), Term::int(4)],
            ))],
        );
        let facts = [
            ("vm", vec![int(1), int(50), int(4)]),
            ("vm", vec![int(2), int(50), int(8)]), // constant mismatch
            ("vm", vec![int(3)]),                  // arity mismatch
        ];
        assert_eq!(derive(vm, &facts), vec![vec![int(1), int(50)]]);
        // join conflict on a repeated variable
        let dup = Rule::new(
            "d",
            Head::simple("loop", vec![Term::var("X")]),
            vec![BodyItem::Atom(Atom::new(
                "link",
                vec![Term::var("X"), Term::var("X")],
            ))],
        );
        let facts = [
            ("link", vec![int(1), int(2)]),
            ("link", vec![int(3), int(3)]),
        ];
        assert_eq!(derive(dup, &facts), vec![vec![int(3)]]);
    }

    #[test]
    fn atom_instantiation() {
        let up = || vec![BodyItem::Atom(Atom::new("up", vec![Term::var("Hid")]))];
        let facts = [("up", vec![Value::Int(9)])];
        // host(Hid, 0) <- up(Hid)
        let host = Rule::new(
            "h",
            Head::simple("host", vec![Term::var("Hid"), Term::int(0)]),
            up(),
        );
        assert_eq!(
            derive(host, &facts),
            vec![vec![Value::Int(9), Value::Int(0)]]
        );
        // a head variable the body never binds drops the derivation
        let missing = Rule::new("m", Head::simple("host", vec![Term::var("Nope")]), up());
        assert!(derive(missing, &facts).is_empty());
    }

    #[test]
    fn aggregate_computations() {
        let ints = vec![Value::Int(3), Value::Int(-1), Value::Int(4)];
        assert_eq!(AggFunc::Sum.compute(&ints), Value::Int(6));
        assert_eq!(AggFunc::SumAbs.compute(&ints), Value::Int(8));
        assert_eq!(AggFunc::Count.compute(&ints), Value::Int(3));
        assert_eq!(AggFunc::Min.compute(&ints), Value::Int(-1));
        assert_eq!(AggFunc::Max.compute(&ints), Value::Int(4));
        assert_eq!(
            AggFunc::Unique.compute(&[Value::Int(1), Value::Int(1), Value::Int(2)]),
            Value::Int(2)
        );
        let st = AggFunc::Stdev.compute(&[Value::Int(2), Value::Int(4)]);
        assert_eq!(st, Value::float(1.0));
        assert_eq!(AggFunc::Stdev.compute(&[]), Value::float(0.0));
    }

    #[test]
    fn aggregate_sum_switches_to_float() {
        let mixed = vec![Value::Int(1), Value::float(2.5)];
        assert_eq!(AggFunc::Sum.compute(&mixed), Value::float(3.5));
    }

    #[test]
    fn agg_keyword_roundtrip() {
        for f in [
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::SumAbs,
            AggFunc::Stdev,
            AggFunc::Unique,
        ] {
            assert_eq!(AggFunc::from_keyword(f.keyword()), Some(f));
        }
        assert_eq!(AggFunc::from_keyword("AVERAGE"), None);
    }

    #[test]
    fn head_and_rule_helpers() {
        let head = Head {
            relation: "hostCpu".into(),
            args: vec![
                HeadArg::Term(Term::var("Hid")),
                HeadArg::Agg(AggFunc::Sum, "C".into()),
            ],
            located: false,
        };
        assert!(head.has_aggregate());
        let rule = Rule::new(
            "d1",
            head,
            vec![
                BodyItem::Atom(Atom::new(
                    "assign",
                    vec![Term::var("Vid"), Term::var("Hid"), Term::var("V")],
                )),
                BodyItem::Atom(Atom::new(
                    "vm",
                    vec![Term::var("Vid"), Term::var("Cpu"), Term::var("Mem")],
                )),
                BodyItem::Assign(
                    "C".into(),
                    Expr::bin(Op::Mul, Expr::var("V"), Expr::var("Cpu")),
                ),
            ],
        );
        assert!(rule.is_aggregate());
        assert_eq!(rule.body_relations(), vec!["assign", "vm"]);
    }
}
