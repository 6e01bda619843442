//! A naive Datalog evaluator: the oracle `cologne_datalog::Engine` is
//! checked against.
//!
//! [`Naive`] stores nothing but the base facts, as counted multisets. Each
//! [`Naive::fixpoint`] evaluates every rule from scratch, round after round,
//! until the relations stop changing. It keeps no deltas, no indexes and no
//! interned values, and counts derivations only for what located heads
//! send (a stored row is just present or not). A round recomputes every rule
//! over the base facts and the previous round's rows, so a non-recursive
//! program settles after as many rounds as it is deep (aggregates
//! included), and a recursive one climbs to its least fixpoint.
//!
//! The meaning of a program is the engine's documented one:
//! - a base fact is visible while its inserts outnumber its deletes;
//! - a body is read left to right as written: an atom joins (arity,
//!   constants and bound variables must match), a filter keeps the
//!   bindings whose value is true (a non-zero `Int` counts as true), and an
//!   assignment binds or overwrites its variable;
//! - an expression that fails drops the binding: an unbound variable, a
//!   symbolic value, a type mismatch, a zero divisor, or an integer result
//!   outside `i64`;
//! - a head variable the body never binds drops the binding;
//! - an aggregate head groups the bindings by its plain columns and
//!   aggregates over the bindings (a multiset), not the distinct values;
//! - a located head row whose first column addresses another node is sent
//!   there, not stored. It is sent once per binding, or once per row when
//!   the rule aggregates or its body repeats a relation (such rules are
//!   maintained as a set of rows, not by counting derivations).
//!
//! [`Checked`] drives an `Engine` and a `Naive` through the same script and
//! compares them after every `run()`.

use std::collections::{BTreeMap, BTreeSet};

use cologne_datalog::{
    AggFunc, Atom, BodyItem, Engine, Expr, Head, HeadArg, NodeId, Op, RemoteTuple, Rule, Term,
    Tuple, Value,
};
use proptest::prelude::*;

/// Visible tuples per relation.
pub type Tables = BTreeMap<String, BTreeSet<Tuple>>;

/// How many times each `(destination, relation, tuple)` is sent by the
/// located heads, at the fixpoint.
pub type Sent = BTreeMap<(u32, String, Tuple), i64>;

/// The least fixpoint of a program over its visible base facts.
#[derive(Debug, Default)]
pub struct Fixpoint {
    pub tables: Tables,
    pub sent: Sent,
}

/// Variable bindings of one evaluation of a body.
type Env = Vec<(String, Value)>;

fn lookup<'a>(env: &'a Env, name: &str) -> Option<&'a Value> {
    env.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

/// No program of the tests needs more rounds than this to settle.
const MAX_ROUNDS: usize = 100;

/// The rules of one node and its base facts.
pub struct Naive {
    node: NodeId,
    rules: Vec<Rule>,
    base: BTreeMap<String, BTreeMap<Tuple, i64>>,
}

impl Naive {
    pub fn new(node: NodeId, rules: &[Rule]) -> Self {
        Naive {
            node,
            rules: rules.to_vec(),
            base: BTreeMap::new(),
        }
    }

    pub fn insert(&mut self, relation: &str, tuple: Tuple) {
        self.adjust(relation, tuple, 1);
    }

    pub fn delete(&mut self, relation: &str, tuple: Tuple) {
        self.adjust(relation, tuple, -1);
    }

    fn adjust(&mut self, relation: &str, tuple: Tuple, by: i64) {
        let count = self.base.entry(relation.to_string()).or_default();
        *count.entry(tuple).or_insert(0) += by;
    }

    /// Every relation's visible tuples, and what the located heads send.
    pub fn fixpoint(&self) -> Fixpoint {
        let mut current = self.round(&Tables::new());
        for _ in 0..MAX_ROUNDS {
            let next = self.round(&current.tables);
            if next.tables == current.tables {
                return next;
            }
            current = next;
        }
        panic!("no fixpoint after {MAX_ROUNDS} rounds");
    }

    /// The visible base facts plus one evaluation of every rule over `db`.
    fn round(&self, db: &Tables) -> Fixpoint {
        let mut out = Fixpoint::default();
        for (relation, counts) in &self.base {
            let visible = counts.iter().filter(|(_, &c)| c > 0);
            let rows: BTreeSet<Tuple> = visible.map(|(t, _)| t.clone()).collect();
            if !rows.is_empty() {
                out.tables.insert(relation.clone(), rows);
            }
        }
        for rule in &self.rules {
            let relation = &rule.head.relation;
            for row in derive(rule, db) {
                match row.first() {
                    Some(Value::Addr(dest)) if rule.head.located && *dest != self.node => {
                        *out.sent.entry((dest.0, relation.clone(), row)).or_default() += 1;
                    }
                    _ => {
                        out.tables.entry(relation.clone()).or_default().insert(row);
                    }
                }
            }
        }
        out
    }
}

/// The head rows `rule` derives over `db`: one per binding, or one per
/// distinct row when the rule aggregates or its body repeats a relation.
fn derive(rule: &Rule, db: &Tables) -> Vec<Tuple> {
    let envs = bindings(&rule.body, db);
    if rule.head.has_aggregate() {
        return aggregate_rows(&rule.head, &envs);
    }
    let mut rows: Vec<Tuple> = envs
        .iter()
        .filter_map(|env| {
            (rule.head.args.iter())
                .map(|arg| match arg {
                    HeadArg::Term(t) => term(t, env),
                    HeadArg::Agg(..) => unreachable!("plain head"),
                })
                .collect()
        })
        .collect();
    let relations = rule.body_relations();
    if relations.iter().collect::<BTreeSet<_>>().len() < relations.len() {
        rows.sort();
        rows.dedup();
    }
    rows
}

fn term(t: &Term, env: &Env) -> Option<Value> {
    match t {
        Term::Const(v) => Some(v.clone()),
        Term::Var(name) => lookup(env, name).cloned(),
    }
}

/// Every binding of `body` over `db`, in written order.
fn bindings(body: &[BodyItem], db: &Tables) -> Vec<Env> {
    let mut envs = vec![Env::new()];
    for item in body {
        envs = match item {
            BodyItem::Atom(atom) => {
                let rows = db.get(&atom.relation);
                (envs.iter())
                    .flat_map(|env| {
                        rows.into_iter()
                            .flatten()
                            .filter_map(|r| unify(atom, r, env))
                    })
                    .collect()
            }
            BodyItem::Filter(e) => envs
                .into_iter()
                .filter(|env| eval(e, env).as_ref().and_then(truth) == Some(true))
                .collect(),
            BodyItem::Assign(var, e) => envs
                .into_iter()
                .filter_map(|mut env| {
                    let v = eval(e, &env)?;
                    env.retain(|(n, _)| n != var);
                    env.push((var.clone(), v));
                    Some(env)
                })
                .collect(),
        };
    }
    envs
}

/// `env` extended so that `atom` matches `row`, if it can.
fn unify(atom: &Atom, row: &Tuple, env: &Env) -> Option<Env> {
    if atom.args.len() != row.len() {
        return None;
    }
    let mut fresh: Vec<(&String, &Value)> = Vec::new();
    for (t, v) in atom.args.iter().zip(row) {
        let known = match t {
            Term::Const(c) => Some(c),
            Term::Var(name) => lookup(env, name)
                .or_else(|| fresh.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)),
        };
        match (known, t) {
            (Some(k), _) if k != v => return None,
            (None, Term::Var(name)) => fresh.push((name, v)),
            _ => {}
        }
    }
    let mut env = env.clone();
    env.extend(fresh.into_iter().map(|(n, v)| (n.clone(), v.clone())));
    Some(env)
}

/// One row per group: the plain head columns are the key, each aggregate
/// column folds its variable over the group's bindings.
fn aggregate_rows(head: &Head, envs: &[Env]) -> Vec<Tuple> {
    let mut groups: BTreeMap<Tuple, Vec<Tuple>> = BTreeMap::new();
    for env in envs {
        let mut key = Vec::new();
        let mut aggregated = Vec::new();
        let complete = head.args.iter().all(|arg| match arg {
            HeadArg::Term(t) => term(t, env).map(|v| key.push(v)).is_some(),
            HeadArg::Agg(_, var) => lookup(env, var)
                .map(|v| aggregated.push(v.clone()))
                .is_some(),
        });
        if complete {
            groups.entry(key).or_default().push(aggregated);
        }
    }
    groups
        .into_iter()
        .map(|(key, members)| {
            let mut key = key.into_iter();
            let mut column = 0;
            (head.args.iter())
                .map(|arg| match arg {
                    HeadArg::Term(_) => key.next().expect("one key value per plain column"),
                    HeadArg::Agg(func, _) => {
                        let values: Vec<&Value> = members.iter().map(|m| &m[column]).collect();
                        column += 1;
                        fold(*func, &values)
                    }
                })
                .collect()
        })
        .collect()
}

/// One aggregate over a non-empty multiset of values.
fn fold(func: AggFunc, values: &[&Value]) -> Value {
    let numbers = || values.iter().map(|v| number(v).unwrap_or(0.0));
    let n = values.len() as f64;
    match func {
        AggFunc::Count => Value::Int(values.len() as i64),
        AggFunc::Unique => Value::Int(values.iter().collect::<BTreeSet<_>>().len() as i64),
        AggFunc::Min => (*values.iter().min().expect("non-empty group")).clone(),
        AggFunc::Max => (*values.iter().max().expect("non-empty group")).clone(),
        AggFunc::Sum | AggFunc::SumAbs => {
            let abs = func == AggFunc::SumAbs;
            if values
                .iter()
                .all(|v| matches!(v, Value::Int(_) | Value::Bool(_)))
            {
                // Integer sums wrap, as the engine's do.
                let ints = values.iter().map(|v| match v {
                    Value::Int(i) if abs => i.wrapping_abs(),
                    Value::Int(i) => *i,
                    _ => i64::from(**v == Value::Bool(true)),
                });
                Value::Int(ints.fold(0, i64::wrapping_add))
            } else if abs {
                float(numbers().map(f64::abs).sum())
            } else {
                float(numbers().sum())
            }
        }
        AggFunc::Stdev => {
            let mean = numbers().sum::<f64>() / n;
            float((numbers().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n).sqrt())
        }
    }
}

/// The value of `e` under `env`, or `None` when the evaluation fails.
fn eval(e: &Expr, env: &Env) -> Option<Value> {
    match e {
        Expr::Term(t) => term(t, env).filter(|v| !matches!(v, Value::Sym(_))),
        Expr::Neg(x) => match eval(x, env)? {
            Value::Int(i) => i.checked_neg().map(Value::Int),
            Value::Float(f) => Some(float(-f.0)),
            _ => None,
        },
        Expr::Abs(x) => match eval(x, env)? {
            Value::Int(i) => i.checked_abs().map(Value::Int),
            Value::Float(f) => Some(float(f.0.abs())),
            _ => None,
        },
        Expr::Not(x) => Some(Value::Bool(!truth(&eval(x, env)?)?)),
        Expr::BinOp(op, a, b) => binop(*op, eval(a, env)?, eval(b, env)?),
    }
}

fn binop(op: Op, a: Value, b: Value) -> Option<Value> {
    match op {
        Op::And => Some(Value::Bool(truth(&a)? && truth(&b)?)),
        Op::Or => Some(Value::Bool(truth(&a)? || truth(&b)?)),
        Op::Eq | Op::Ne => {
            let equal = match (number(&a), number(&b)) {
                (Some(x), Some(y)) => x == y,
                _ => a == b,
            };
            Some(Value::Bool(equal == (op == Op::Eq)))
        }
        Op::Lt | Op::Le | Op::Gt | Op::Ge => {
            let (x, y) = (number(&a)?, number(&b)?);
            Some(Value::Bool(match op {
                Op::Lt => x < y,
                Op::Le => x <= y,
                Op::Gt => x > y,
                _ => x >= y,
            }))
        }
        Op::Add | Op::Sub | Op::Mul | Op::Div => match (a, b) {
            (Value::Int(x), Value::Int(y)) => match op {
                Op::Add => x.checked_add(y),
                Op::Sub => x.checked_sub(y),
                Op::Mul => x.checked_mul(y),
                _ => x.checked_div(y),
            }
            .map(Value::Int),
            (a, b) => {
                let (x, y) = (number(&a)?, number(&b)?);
                match op {
                    Op::Add => Some(float(x + y)),
                    Op::Sub => Some(float(x - y)),
                    Op::Mul => Some(float(x * y)),
                    _ => (y != 0.0).then(|| float(x / y)),
                }
            }
        },
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(f.0),
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Int(i) => Some(*i != 0),
        _ => None,
    }
}

/// A float as the engine stores it: `-0.0` is `0.0`.
fn float(x: f64) -> Value {
    Value::float(if x == 0.0 { 0.0 } else { x })
}

/// One step of a test script.
#[derive(Debug, Clone)]
pub enum ScriptOp {
    Insert(&'static str, Tuple),
    Delete(&'static str, Tuple),
    Run,
}

/// An `Engine` and the oracle, fed the same facts.
pub struct Checked {
    pub engine: Engine,
    pub oracle: Naive,
    /// The oracle's fixpoint at the previous check.
    last: Fixpoint,
}

impl Checked {
    pub fn new(node: NodeId, rules: &[Rule]) -> Self {
        let mut engine = Engine::new(node);
        engine.add_rules(rules.iter().cloned());
        Checked {
            engine,
            oracle: Naive::new(node, rules),
            last: Fixpoint::default(),
        }
    }

    pub fn insert(&mut self, relation: &str, tuple: Tuple) {
        self.engine.insert(relation, tuple.clone());
        self.oracle.insert(relation, tuple);
    }

    pub fn delete(&mut self, relation: &str, tuple: Tuple) {
        self.engine.delete(relation, tuple.clone());
        self.oracle.delete(relation, tuple);
    }

    /// Applies `script`, checking at every `Run` and once at the end.
    pub fn apply(&mut self, script: &[ScriptOp]) -> Result<(), TestCaseError> {
        for op in script {
            match op {
                ScriptOp::Insert(rel, t) => self.insert(rel, t.clone()),
                ScriptOp::Delete(rel, t) => self.delete(rel, t.clone()),
                ScriptOp::Run => {
                    self.check()?;
                }
            }
        }
        self.check().map(drop)
    }

    /// Runs the engine and compares it with the oracle's fixpoint:
    /// - every relation holds exactly the fixpoint's tuples, and
    ///   `relation_len`/`contains` agree with `tuples`;
    /// - the delta summary marks every relation whose visible set changed
    ///   since the previous check, and each entry's `inserted − deleted`
    ///   is that relation's net change;
    /// - per `(dest, relation, tuple)`, the outbox's inserts − deletes is
    ///   the change in how often the fixpoint sends it.
    ///
    /// Returns the outbox, for delivery to other engines.
    pub fn check(&mut self) -> Result<Vec<RemoteTuple>, TestCaseError> {
        self.engine.run();
        let now = self.oracle.fixpoint();
        let mut names: BTreeSet<String> = self.engine.relation_names().into_iter().collect();
        names.extend(now.tables.keys().cloned());
        names.extend(self.last.tables.keys().cloned());
        let rows = |fix: &Fixpoint, name: &str| -> Vec<Tuple> {
            fix.tables
                .get(name)
                .into_iter()
                .flatten()
                .cloned()
                .collect()
        };

        for name in &names {
            let actual = self.engine.tuples(name);
            let expected = rows(&now, name);
            prop_assert!(
                actual == expected,
                "relation '{}' diverged from the naive fixpoint: engine {:?}, oracle {:?}",
                name,
                actual,
                expected
            );
            prop_assert_eq!(self.engine.relation_len(name), actual.len());
            prop_assert!(actual.iter().all(|t| self.engine.contains(name, t)));
        }

        let summary = self.engine.take_delta_summary();
        for name in &names {
            let (before, after) = (rows(&self.last, name), rows(&now, name));
            prop_assert!(
                before == after || !summary.is_clean(name),
                "relation '{}' changed but the delta summary left it clean",
                name
            );
            if let Some(d) = summary.changes.get(name) {
                let net = after.len() as i64 - before.len() as i64;
                prop_assert!(
                    d.inserted as i64 - d.deleted as i64 == net,
                    "delta summary of '{}' is {:?}, net change {}",
                    name,
                    d,
                    net
                );
            }
        }

        let outbox = self.engine.take_outbox();
        let mut sent_net = Sent::new();
        for r in &outbox {
            let key = (r.dest.0, r.relation.clone(), r.tuple.clone());
            *sent_net.entry(key).or_default() += if r.insert { 1 } else { -1 };
        }
        let mut expected = now.sent.clone();
        for (key, count) in &self.last.sent {
            *expected.entry(key.clone()).or_default() -= count;
        }
        sent_net.retain(|_, n| *n != 0);
        expected.retain(|_, n| *n != 0);
        prop_assert_eq!(sent_net, expected);

        self.last = now;
        Ok(outbox)
    }
}

/// `path(X,Y) <- link(X,Y);  path(X,Z) <- link(X,Y), path(Y,Z)`
pub fn transitive_closure_rules() -> Vec<Rule> {
    let atom = |rel: &str, a: &str, b: &str| {
        BodyItem::Atom(Atom::new(rel, vec![Term::var(a), Term::var(b)]))
    };
    vec![
        Rule::new(
            "r1",
            Head::simple("path", vec![Term::var("X"), Term::var("Y")]),
            vec![atom("link", "X", "Y")],
        ),
        Rule::new(
            "r2",
            Head::simple("path", vec![Term::var("X"), Term::var("Z")]),
            vec![atom("link", "X", "Y"), atom("path", "Y", "Z")],
        ),
    ]
}
