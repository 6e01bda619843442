//! Expressions appearing in rule bodies.
//!
//! Colog rule bodies contain, besides predicates, boolean expressions
//! (selections such as `Hid1 != Hid2` or `Mem <= M`) and assignments
//! (`R2 := -R1`). Both are built from [`Expr`] trees. The engine compiles
//! each tree once into a slot-reading plan expression and evaluates only
//! that (module `plan`); [`Bindings`] is the name-keyed variable map the
//! Cologne grounder builds while matching solver rules.

use crate::value::Value;

/// A term: either a named rule variable or a constant value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A rule variable (`Vid`, `Cpu`, ...). By Datalog convention these start
    /// with an uppercase letter in the surface syntax.
    Var(String),
    /// A constant.
    Const(Value),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(name.to_string())
    }

    /// Convenience constructor for an integer constant term.
    pub fn int(v: i64) -> Term {
        Term::Const(Value::Int(v))
    }
}

/// Binary operators usable in Colog expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
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
    And,
    Or,
}

impl Op {
    /// True for operators producing booleans.
    pub fn is_comparison(&self) -> bool {
        matches!(self, Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge)
    }
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A leaf term.
    Term(Term),
    /// Binary operation.
    BinOp(Op, Box<Expr>, Box<Expr>),
    /// Absolute value `|e|`.
    Abs(Box<Expr>),
    /// Negation `-e`.
    Neg(Box<Expr>),
    /// Logical not.
    Not(Box<Expr>),
}

impl Expr {
    /// Leaf variable expression.
    pub fn var(name: &str) -> Expr {
        Expr::Term(Term::var(name))
    }

    /// Leaf integer expression.
    pub fn int(v: i64) -> Expr {
        Expr::Term(Term::int(v))
    }

    /// Leaf constant expression.
    pub fn value(v: Value) -> Expr {
        Expr::Term(Term::Const(v))
    }

    /// Build `lhs op rhs`.
    pub fn bin(op: Op, lhs: Expr, rhs: Expr) -> Expr {
        Expr::BinOp(op, Box::new(lhs), Box::new(rhs))
    }

    /// Collect the names of all variables referenced by the expression.
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Term(Term::Var(v)) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Term(Term::Const(_)) => {}
            Expr::BinOp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Abs(e) | Expr::Neg(e) | Expr::Not(e) => e.collect_vars(out),
        }
    }
}

/// Variable bindings built up while matching body predicates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bindings {
    entries: Vec<(String, Value)>,
}

impl Bindings {
    /// Empty bindings.
    pub fn new() -> Self {
        Bindings {
            entries: Vec::new(),
        }
    }

    /// Look up a variable.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Bind a variable; if already bound, returns whether the values agree
    /// (join semantics).
    pub fn bind(&mut self, name: &str, value: Value) -> bool {
        match self.get(name) {
            Some(existing) => existing == &value,
            None => {
                self.entries.push((name.to_string(), value));
                true
            }
        }
    }

    /// Overwrite or insert a binding unconditionally (used by `:=`).
    pub fn set(&mut self, name: &str, value: Value) {
        if let Some(slot) = self.entries.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.entries.push((name.to_string(), value));
        }
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Atom, BodyItem, Head, Rule};
    use crate::value::{NodeId, SymId};
    use crate::Engine;

    /// `V := expr` as the engine evaluates it over one `input(X, Y)` row:
    /// the value the derivation carries, or `None` when it is dropped.
    fn eval(expr: Expr, x: Value, y: Value) -> Option<Value> {
        let mut engine = Engine::new(NodeId(0));
        engine.add_rule(Rule::new(
            "r",
            Head::simple("out", vec![Term::var("V")]),
            vec![
                BodyItem::Atom(Atom::new("input", vec![Term::var("X"), Term::var("Y")])),
                BodyItem::Assign("V".into(), expr),
            ],
        ));
        engine.insert("input", vec![x, y]);
        engine.run();
        let out = engine.tuples("out");
        assert!(out.len() <= 1, "one input row derives at most one value");
        out.into_iter().next().map(|mut t| t.remove(0))
    }

    fn abs(e: Expr) -> Expr {
        Expr::Abs(Box::new(e))
    }

    fn neg(e: Expr) -> Expr {
        Expr::Neg(Box::new(e))
    }

    #[test]
    fn arithmetic_int_and_float() {
        let (x, y) = (Value::Int(6), Value::float(1.5));
        let e = |expr| eval(expr, x.clone(), y.clone());
        assert_eq!(
            e(Expr::bin(Op::Mul, Expr::var("X"), Expr::int(2))),
            Some(Value::Int(12))
        );
        // an Int meeting a Float computes in floats
        assert_eq!(
            e(Expr::bin(Op::Add, Expr::var("X"), Expr::var("Y"))),
            Some(Value::float(7.5))
        );
        // integer division truncates
        assert_eq!(
            e(Expr::bin(Op::Div, Expr::var("X"), Expr::int(4))),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn division_by_zero_reported() {
        // A zero divisor drops the derivation, for ints and floats alike.
        let (x, y) = (Value::Int(4), Value::float(0.0));
        assert_eq!(
            eval(
                Expr::bin(Op::Div, Expr::var("X"), Expr::int(0)),
                x.clone(),
                y.clone()
            ),
            None
        );
        assert_eq!(
            eval(Expr::bin(Op::Div, Expr::var("X"), Expr::var("Y")), x, y),
            None
        );
    }

    #[test]
    fn comparisons_and_boolean_ops() {
        let e = |expr| eval(expr, Value::Int(3), Value::Int(5));
        let lt = Expr::bin(Op::Lt, Expr::var("X"), Expr::var("Y"));
        assert_eq!(e(lt.clone()), Some(Value::Bool(true)));
        let ne = Expr::bin(Op::Ne, Expr::var("X"), Expr::var("Y"));
        assert_eq!(e(Expr::bin(Op::And, lt, ne)), Some(Value::Bool(true)));
        let not = Expr::Not(Box::new(Expr::bin(Op::Ge, Expr::var("X"), Expr::var("Y"))));
        assert_eq!(e(not), Some(Value::Bool(true)));
    }

    #[test]
    fn equality_is_numeric_across_types_but_structural_otherwise() {
        let e = |expr| eval(expr, Value::Int(2), Value::float(2.0));
        assert_eq!(
            e(Expr::bin(Op::Eq, Expr::var("X"), Expr::var("Y"))),
            Some(Value::Bool(true))
        );
        let strs = Expr::bin(Op::Eq, Expr::value("a".into()), Expr::value("b".into()));
        assert_eq!(e(strs), Some(Value::Bool(false)));
    }

    #[test]
    fn abs_and_neg() {
        let e = |expr| eval(expr, Value::Int(-4), Value::float(-2.5));
        assert_eq!(e(abs(Expr::var("X"))), Some(Value::Int(4)));
        assert_eq!(e(neg(Expr::var("X"))), Some(Value::Int(4)));
        assert_eq!(e(abs(Expr::var("Y"))), Some(Value::float(2.5)));
    }

    #[test]
    fn unbound_and_symbolic_errors() {
        // A variable the body never binds, or a symbolic solver value,
        // fails the evaluation and drops the derivation.
        assert_eq!(
            eval(Expr::var("Missing"), Value::Int(1), Value::Int(2)),
            None
        );
        assert_eq!(
            eval(Expr::var("X"), Value::Sym(SymId(1)), Value::Int(2)),
            None
        );
    }

    #[test]
    fn type_errors_reported() {
        let e = |expr| eval(expr, Value::Addr(NodeId(1)), Value::Int(1));
        assert_eq!(e(Expr::bin(Op::Add, Expr::var("X"), Expr::var("Y"))), None);
        assert_eq!(
            e(Expr::bin(Op::Lt, Expr::value("a".into()), Expr::var("Y"))),
            None
        );
    }

    #[test]
    fn bindings_join_semantics() {
        let mut b = Bindings::new();
        assert!(b.bind("X", Value::Int(1)));
        assert!(b.bind("X", Value::Int(1)));
        assert!(!b.bind("X", Value::Int(2)));
        b.set("X", Value::Int(9));
        assert_eq!(b.get("X"), Some(&Value::Int(9)));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn variables_collection_is_deduplicated() {
        let e = Expr::bin(
            Op::Add,
            Expr::bin(Op::Mul, Expr::var("V"), Expr::var("Cpu")),
            Expr::var("V"),
        );
        assert_eq!(e.variables(), vec!["V".to_string(), "Cpu".to_string()]);
    }
}
