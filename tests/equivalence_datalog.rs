//! `cologne_datalog::Engine` against a naive fixpoint oracle.
//!
//! The oracle (`common/naive_datalog.rs`) keeps only the base facts and
//! recomputes every rule from scratch to a fixpoint: no deltas, no counts,
//! no indexes, no interning. After every `run()` of a script the engine
//! must hold exactly the oracle's tables, its delta summary must account for
//! every relation whose visible set changed, and its outbox must carry the
//! change in what the located heads send.
//!
//! The scripts cover fixed programs with aggregates, filters/assignments
//! and located heads; randomly generated rule sets, plain and aggregate
//! (all seven functions over every head and body shape the delta-maintained
//! group tables have to handle); and the regular rules of every shipped
//! paper program (ACloud, Follow-the-Sun, wireless channel selection).
//! Recursive rules are the exception: the engine's counting keeps tuples
//! that only support each other alive after a deletion, so the suite
//! checks that the engine holds at least the fixpoint and pins one known
//! gap.

#[path = "common/naive_datalog.rs"]
mod naive_datalog;

use proptest::prelude::*;

use cologne::translate::rule_to_datalog;
use cologne::ProgramParams;
use cologne_colog::{analyze, parse_program, RuleClass, SchemaCatalog};
use cologne_datalog::{
    AggFunc, Atom, BodyItem, Engine, Expr, Head, HeadArg, IngestError, NodeId, Op, RemoteTuple,
    Rule, SchemaError, SchemaSet, Term, Tuple, TupleSchema, Value, ValueKind,
};
use cologne_usecases::programs::table2_programs;
use naive_datalog::{transitive_closure_rules, Checked, Naive, ScriptOp};

/// Turn sampled op seeds into a script over base relations.
fn script_from_seeds(
    rels: &[&'static str],
    seeds: &[(u8, i64, i64, bool)],
    values: impl Fn(i64, i64) -> Tuple,
) -> Vec<ScriptOp> {
    let mut script = Vec::with_capacity(seeds.len() + 1);
    for &(sel, a, b, run_after) in seeds {
        let rel = rels[sel as usize % rels.len()];
        let tuple = values(a, b);
        if sel as usize / rels.len() % 2 == 0 {
            script.push(ScriptOp::Insert(rel, tuple));
        } else {
            script.push(ScriptOp::Delete(rel, tuple));
        }
        if run_after {
            script.push(ScriptOp::Run);
        }
    }
    script
}

const AGG_FUNCS: [AggFunc; 7] = [
    AggFunc::Sum,
    AggFunc::Count,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::SumAbs,
    AggFunc::Unique,
    AggFunc::Stdev,
];

/// Base relations of the aggregate suite: `e(K, X)` and `p(@D, X)` carry
/// the aggregated column, `f(K, W)` is joined in, and `sa(K, X)`/`sb(K, Y)`
/// feed STDEV alone.
const AGG_RELS: [&str; 5] = ["e", "f", "p", "sa", "sb"];

/// An aggregated value: negative and positive ints, floats that are
/// multiples of 0.25 (every float sum is exact, so it does not depend on
/// the order either engine adds in), a bool and a string.
fn agg_value(b: i64) -> Value {
    match b.rem_euclid(13) {
        b @ 0..=5 => Value::Int(b - 3),
        b @ 6..=10 => Value::float((b - 8) as f64 * 0.75),
        11 => Value::Bool(true),
        _ => Value::Str("s".into()),
    }
}

/// A row of `rel` from two sampled numbers, over domains small enough that
/// scripts hit the same row and the same group again and again.
fn agg_row(rel: &str, a: i64, b: i64) -> Tuple {
    let key = Value::Int(a.rem_euclid(3));
    match rel {
        "e" => vec![key, agg_value(b)],
        "f" => vec![key, Value::Int(b.rem_euclid(3) - 1)],
        "p" => vec![Value::Addr(NodeId(a.rem_euclid(3) as u32)), agg_value(b)],
        // Two values of mixed kind per key...
        "sa" if b % 2 == 0 => vec![key, Value::float(-1.5)],
        "sa" => vec![key, Value::Int(2)],
        // ...times two rows per key: a STDEV group holds 1, 2 or 4
        // derivations, so its mean and squared deviations are exact too.
        _ => vec![key, Value::Int(b.rem_euclid(2))],
    }
}

/// Two inserts for every delete, over all of [`AGG_RELS`].
fn agg_script(seeds: &[(u8, i64, i64, bool)]) -> Vec<ScriptOp> {
    let mut script = Vec::with_capacity(seeds.len() * 2);
    for &(sel, a, b, run_after) in seeds {
        let rel = AGG_RELS[sel as usize % AGG_RELS.len()];
        let row = agg_row(rel, a, b);
        script.push(if sel as usize / AGG_RELS.len() % 3 == 0 {
            ScriptOp::Delete(rel, row)
        } else {
            ScriptOp::Insert(rel, row)
        });
        if run_after {
            script.push(ScriptOp::Run);
        }
    }
    script
}

/// The aggregate rule `h{i}` of the given function and shape, plus (for the
/// two-column heads) a filter rule reading its output.
fn agg_rules(i: usize, func: AggFunc, shape: u8) -> Vec<Rule> {
    let var = Term::var;
    let atom = |rel: &str, a: &str, b: &str| BodyItem::Atom(Atom::new(rel, vec![var(a), var(b)]));
    let positive = |v: &str| BodyItem::Filter(Expr::bin(Op::Gt, Expr::var(v), Expr::int(0)));
    let agg = |f: AggFunc, v: &str| HeadArg::Agg(f, v.into());
    let key = || HeadArg::Term(var("K"));
    let name = format!("h{i}");
    let (args, located, body) = if func == AggFunc::Stdev {
        (
            vec![key(), agg(func, "X")],
            false,
            vec![atom("sa", "K", "X"), atom("sb", "K", "Y")],
        )
    } else {
        match shape % 7 {
            0 => (
                vec![key(), agg(func, "X")],
                false,
                vec![atom("e", "K", "X")],
            ),
            1 => (
                vec![key(), agg(func, "X")],
                false,
                vec![atom("e", "K", "X"), atom("f", "K", "W"), positive("W")],
            ),
            2 => (
                vec![key(), agg(func, "A")],
                false,
                vec![
                    atom("e", "K", "X"),
                    atom("f", "K", "W"),
                    BodyItem::Assign(
                        "A".into(),
                        Expr::bin(Op::Add, Expr::var("X"), Expr::var("W")),
                    ),
                ],
            ),
            // located head: groups addressed to other nodes go to the outbox
            3 => (
                vec![HeadArg::Term(var("D")), agg(func, "X")],
                true,
                vec![atom("p", "D", "X")],
            ),
            // global aggregate: one group with the empty key
            4 => (vec![agg(func, "X")], false, vec![atom("e", "K", "X")]),
            // repeated body relation: full re-evaluation into the same table
            5 => (
                vec![key(), agg(func, "X")],
                false,
                vec![atom("e", "K", "X"), atom("e", "J", "X")],
            ),
            _ => (
                vec![
                    key(),
                    agg(func, "X"),
                    agg(AggFunc::Max, "W"),
                    agg(AggFunc::Count, "W"),
                ],
                false,
                vec![atom("e", "K", "X"), atom("f", "K", "W")],
            ),
        }
    };
    let two_columns = args.len() == 2 && !located;
    let mut rules = vec![Rule::new(
        &name,
        Head {
            relation: name.clone(),
            args,
            located,
        },
        body,
    )];
    if two_columns {
        let big = format!("big{i}");
        rules.push(Rule::new(
            &big,
            Head::simple(&big, vec![var("K")]),
            vec![atom(&name, "K", "S"), positive("S")],
        ));
    }
    rules
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recursive rules: after every op, the engine holds exactly the
    /// surviving links and at least their transitive closure.
    ///
    /// Each op is followed by a `run()`: batching inserts and deletes of
    /// cyclic graphs into one run can livelock the engine's counting on
    /// recursive rules. Extra `path` rows are the gap that
    /// `transitive_closure_known_gap` pins; no script has shown a missing
    /// one.
    #[test]
    fn transitive_closure_engine_contains_fixpoint(
        seeds in prop::collection::vec((0u8..4, 0i64..5, 0i64..5, prop::bool::ANY), 1..40),
    ) {
        let mut checked = Checked::new(NodeId(0), &transitive_closure_rules());
        let seeds: Vec<(u8, i64, i64, bool)> =
            seeds.into_iter().map(|(s, a, b, _)| (s, a, b, false)).collect();
        let script = script_from_seeds(&["link"], &seeds, |a, b| {
            vec![Value::Int(a), Value::Int(b)]
        });
        for op in script {
            match op {
                ScriptOp::Insert(rel, t) => checked.insert(rel, t),
                ScriptOp::Delete(rel, t) => checked.delete(rel, t),
                ScriptOp::Run => unreachable!("the script runs after every op"),
            }
            checked.engine.run();
            let fixpoint = checked.oracle.fixpoint();
            let expected = |rel: &str| -> Vec<Tuple> {
                fixpoint.tables.get(rel).into_iter().flatten().cloned().collect()
            };
            prop_assert_eq!(checked.engine.tuples("link"), expected("link"));
            let path = checked.engine.tuples("path");
            let missing: Vec<Tuple> =
                expected("path").into_iter().filter(|t| !path.contains(t)).collect();
            prop_assert!(missing.is_empty(), "engine lost path rows {:?}", missing);
        }
    }

    /// Aggregates (SUM grouped by key) feeding a second filtered rule:
    /// recompute-and-diff must agree between the engines.
    #[test]
    fn aggregate_chain_equivalence(
        seeds in prop::collection::vec((0u8..4, 0i64..4, 0i64..6, prop::bool::ANY), 1..30),
    ) {
        let rules = vec![
            Rule::new(
                "tot",
                Head {
                    relation: "tot".into(),
                    args: vec![
                        HeadArg::Term(Term::var("X")),
                        HeadArg::Agg(AggFunc::Sum, "Y".into()),
                    ],
                    located: false,
                },
                vec![BodyItem::Atom(Atom::new(
                    "e",
                    vec![Term::var("X"), Term::var("Y")],
                ))],
            ),
            Rule::new(
                "big",
                Head::simple("big", vec![Term::var("X")]),
                vec![
                    BodyItem::Atom(Atom::new("tot", vec![Term::var("X"), Term::var("S")])),
                    BodyItem::Filter(Expr::BinOp(
                        Op::Ge,
                        Box::new(Expr::Term(Term::var("S"))),
                        Box::new(Expr::Term(Term::Const(Value::Int(4)))),
                    )),
                ],
            ),
        ];
        let mut checked = Checked::new(NodeId(0), &rules);
        let script = script_from_seeds(&["e"], &seeds, |a, b| {
            vec![Value::Int(a), Value::Int(b)]
        });
        checked.apply(&script)?;
    }

    /// Aggregate rules drawn over all seven functions and every shape of
    /// [`agg_rules`], under scripts that insert, insert again, delete and
    /// re-insert over small domains: groups fill, empty and come back, the
    /// current MIN/MAX is retracted, sums change kind between int and float.
    #[test]
    fn aggregate_rules_equivalence(
        rule_seeds in prop::collection::vec((0usize..7, 0u8..7), 1..5),
        op_seeds in prop::collection::vec((0u8..15, 0i64..3, 0i64..13, prop::bool::ANY), 1..50),
    ) {
        let rules: Vec<Rule> = rule_seeds
            .iter()
            .enumerate()
            .flat_map(|(i, &(f, shape))| agg_rules(i, AGG_FUNCS[f], shape))
            .collect();
        let mut checked = Checked::new(NodeId(0), &rules);
        checked.apply(&agg_script(&op_seeds))?;
    }

    /// Filters, assignments and string constants in rule bodies.
    #[test]
    fn filter_assign_equivalence(
        seeds in prop::collection::vec((0u8..4, 0i64..5, 0i64..8, prop::bool::ANY), 1..30),
    ) {
        let rules = vec![Rule::new(
            "p",
            Head::simple("p", vec![Term::var("X"), Term::var("Z")]),
            vec![
                BodyItem::Atom(Atom::new("e", vec![Term::var("X"), Term::var("Y")])),
                BodyItem::Filter(Expr::BinOp(
                    Op::Lt,
                    Box::new(Expr::Term(Term::var("X"))),
                    Box::new(Expr::Term(Term::var("Y"))),
                )),
                BodyItem::Assign(
                    "Z".into(),
                    Expr::BinOp(
                        Op::Add,
                        Box::new(Expr::Term(Term::var("X"))),
                        Box::new(Expr::Term(Term::var("Y"))),
                    ),
                ),
            ],
        )];
        let mut checked = Checked::new(NodeId(0), &rules);
        // Mix string payloads into the second column to exercise interning.
        let strs = ["red", "green", "blue"];
        let script = script_from_seeds(&["e"], &seeds, |a, b| {
            if b >= 5 {
                vec![Value::Int(a), Value::Str(strs[(b - 5) as usize].into())]
            } else {
                vec![Value::Int(a), Value::Int(b)]
            }
        });
        checked.apply(&script)?;
    }

    /// Located heads: tuples addressed to other nodes fill the outbox
    /// identically (as a multiset) in both engines.
    #[test]
    fn located_head_equivalence(
        seeds in prop::collection::vec((0u8..4, 0i64..3, 0i64..5, prop::bool::ANY), 1..30),
    ) {
        let rules = vec![Rule::new(
            "ship",
            Head {
                relation: "ship".into(),
                args: vec![HeadArg::Term(Term::var("D")), HeadArg::Term(Term::var("X"))],
                located: true,
            },
            vec![BodyItem::Atom(Atom::new(
                "pair",
                vec![Term::var("D"), Term::var("X")],
            ))],
        )];
        let mut checked = Checked::new(NodeId(0), &rules);
        let script = script_from_seeds(&["pair"], &seeds, |a, b| {
            vec![Value::Addr(NodeId(a as u32)), Value::Int(b)]
        });
        checked.apply(&script)?;
    }

    /// Randomly generated (non-recursive) rule sets: one layer of rules for
    /// `p` over base relations, one layer for `q` over base relations and
    /// `p`, with random head shapes, constants, filters and assignments.
    #[test]
    fn random_rules_equivalence(
        rule_seeds in prop::collection::vec((0u8..6, 0u8..6, 0u8..6, 0u8..5, 0u8..5), 1..5),
        op_seeds in prop::collection::vec((0u8..8, 0i64..4, 0i64..4, prop::bool::ANY), 1..30),
    ) {
        let vars = ["X", "Y", "Z", "W"];
        let mut rules = Vec::new();
        for (i, &(s0, s1, s2, s3, s4)) in rule_seeds.iter().enumerate() {
            let layer2 = i % 2 == 1;
            let head_rel = if layer2 { "q" } else { "p" };
            // Body: one or two atoms over the allowed layer relations.
            let base = if layer2 {
                ["e0", "e1", "p"]
            } else {
                ["e0", "e1", "e0"]
            };
            let atom = |sel: u8, v0: &str, v1: &str| {
                BodyItem::Atom(Atom::new(
                    base[sel as usize % base.len()],
                    vec![Term::var(v0), Term::var(v1)],
                ))
            };
            let mut body = vec![atom(s0, vars[s3 as usize % 4], vars[s4 as usize % 4])];
            if s1 % 2 == 0 {
                // Second atom shares one variable with the first (or not —
                // cross products are legal too).
                body.push(atom(s1 / 2, vars[s4 as usize % 4], vars[(s3 as usize + 1) % 4]));
            }
            match s2 {
                0 => body.push(BodyItem::Filter(Expr::BinOp(
                    Op::Ne,
                    Box::new(Expr::Term(Term::var(vars[s3 as usize % 4]))),
                    Box::new(Expr::Term(Term::Const(Value::Int(1)))),
                ))),
                1 => body.push(BodyItem::Assign(
                    "A".into(),
                    Expr::BinOp(
                        Op::Add,
                        Box::new(Expr::Term(Term::var(vars[s3 as usize % 4]))),
                        Box::new(Expr::Term(Term::Const(Value::Int(10)))),
                    ),
                )),
                2 => body.push(BodyItem::Filter(Expr::BinOp(
                    Op::Lt,
                    Box::new(Expr::Term(Term::var(vars[s3 as usize % 4]))),
                    Box::new(Expr::Term(Term::var(vars[s4 as usize % 4]))),
                ))),
                _ => {}
            }
            // Head columns: variables (possibly unbound in the body — the
            // engines must agree on dropped instantiations too), the
            // assigned variable, or a constant.
            let head_col = |sel: u8| -> Term {
                match sel % 4 {
                    0 => Term::var(vars[s3 as usize % 4]),
                    1 => Term::var(vars[(s4 as usize + 1) % 4]),
                    2 => Term::var("A"),
                    _ => Term::Const(Value::Int(7)),
                }
            };
            rules.push(Rule::new(
                &format!("g{i}"),
                Head::simple(head_rel, vec![head_col(s0 + s2), head_col(s1 + s4)]),
                body,
            ));
        }
        let mut checked = Checked::new(NodeId(0), &rules);
        let script = script_from_seeds(&["e0", "e1"], &op_seeds, |a, b| {
            vec![Value::Int(a), Value::Int(b)]
        });
        checked.apply(&script)?;
    }
}

/// The engine's known gap on recursive rules, pinned. Counting keeps a
/// derived tuple alive while its count is positive, and on a cycle a tuple
/// can count itself: once `link(2,1)` is deleted below, `path(2,1)` is
/// still derived from `link(2,2)` and `path(2,1)` itself, so it survives
/// although node 1 is no longer reachable from node 2. The engine then
/// holds the fixpoint of the surviving links plus exactly that row.
/// ROADMAP.md item 19 (recursive rules maintained correctly) turns this
/// into an equality with the fixpoint.
#[test]
fn transitive_closure_known_gap() {
    let link = |a: i64, b: i64| vec![Value::Int(a), Value::Int(b)];
    let mut checked = Checked::new(NodeId(0), &transitive_closure_rules());
    for (a, b) in [
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (3, 0),
        (3, 1),
    ] {
        checked.insert("link", link(a, b));
        checked.engine.run();
    }
    checked.delete("link", link(2, 1));
    checked.engine.run();

    let fixpoint = checked.oracle.fixpoint();
    let mut expected = fixpoint.tables["path"].clone();
    assert_eq!(expected.len(), 9);
    assert!(
        expected.insert(link(2, 1)),
        "path(2,1) is not in the fixpoint"
    );
    let actual: Vec<Tuple> = checked.engine.tuples("path");
    assert_eq!(actual, expected.into_iter().collect::<Vec<_>>());
}

/// Every function over every shape at once, through one scripted life of a
/// group: filled, fed a duplicate row, robbed of its current minimum and
/// maximum, emptied, and filled again — compared after every `run()`.
#[test]
fn aggregate_group_lifecycle_pins() {
    let rules: Vec<Rule> = AGG_FUNCS
        .iter()
        .flat_map(|&f| (0..7u8).map(move |shape| (f, shape)))
        .filter(|&(f, shape)| f != AggFunc::Stdev || shape == 0)
        .enumerate()
        .flat_map(|(i, (f, shape))| agg_rules(i, f, shape))
        .collect();
    let mut checked = Checked::new(NodeId(0), &rules);
    let all_rows = |op: fn(&'static str, Tuple) -> ScriptOp| -> Vec<ScriptOp> {
        let mut ops = Vec::new();
        for rel in AGG_RELS {
            for a in 0..3 {
                for b in 0..13 {
                    ops.push(op(rel, agg_row(rel, a, b)));
                }
            }
        }
        ops.push(ScriptOp::Run);
        ops
    };
    let mut script = all_rows(ScriptOp::Insert);
    // a second copy of one row per relation: multiplicity only
    for rel in AGG_RELS {
        script.push(ScriptOp::Insert(rel, agg_row(rel, 1, 4)));
    }
    script.push(ScriptOp::Run);
    // retract the extremes of every `e`/`p` group: Int(-3) is the least
    // value, the string the greatest
    for rel in ["e", "p"] {
        for a in 0..3 {
            script.push(ScriptOp::Delete(rel, agg_row(rel, a, 0)));
            script.push(ScriptOp::Delete(rel, agg_row(rel, a, 12)));
        }
    }
    script.push(ScriptOp::Run);
    // empty every group (the duplicated rows need two deletes), then refill
    script.extend(all_rows(ScriptOp::Delete));
    for rel in AGG_RELS {
        script.push(ScriptOp::Delete(rel, agg_row(rel, 1, 4)));
    }
    script.push(ScriptOp::Run);
    script.extend(all_rows(ScriptOp::Insert));
    checked
        .apply(&script)
        .expect("engine matches the naive fixpoint");
    for i in 0..3 {
        assert!(
            checked.engine.relation_len(&format!("h{i}")) > 0,
            "h{i} is empty"
        );
    }
}

/// The regular (non-solver) rules of every shipped paper program, pinned:
/// lower them through the real compiler pipeline, feed synthetic facts for
/// every base relation, and require both engines to agree on every table.
#[test]
fn paper_programs_equivalence_pins() {
    let params = ProgramParams::new().with_constant("max_migrates", 2);
    let mut pinned_programs = 0usize;
    for (name, source) in table2_programs() {
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let analysis = analyze(&program).unwrap_or_else(|e| panic!("{name}: analysis: {e}"));
        let catalog = SchemaCatalog::derive(&program, &analysis);

        let mut rules = Vec::new();
        for (i, rule) in program.rules.iter().enumerate() {
            if analysis.class_of(i) != RuleClass::Regular {
                continue;
            }
            match rule_to_datalog(rule, &params) {
                Ok(r) => rules.push(r),
                Err(e) => panic!("{name}: lowering regular rule {i}: {e}"),
            }
        }
        if rules.is_empty() {
            // Some centralized variants are pure solver programs with no
            // regular rules (e.g. the wireless channel-selection COP).
            continue;
        }
        pinned_programs += 1;

        let mut checked = Checked::new(NodeId(0), &rules);

        // Base relations: mentioned in rule bodies, not derived by any
        // lowered head and not materialized by the solver's var decls.
        let heads: std::collections::HashSet<&str> =
            rules.iter().map(|r| r.head.relation.as_str()).collect();
        let mut base: Vec<&str> = rules
            .iter()
            .flat_map(|r| r.body_relations())
            .filter(|rel| !heads.contains(rel))
            .filter(|rel| catalog.get(rel).map(|s| !s.declared_by_var).unwrap_or(true))
            .collect();
        base.sort_unstable();
        base.dedup();
        assert!(!base.is_empty(), "{name}: no base relations found");

        let fact = |r_idx: usize, rel: &str, k: i64| -> Tuple {
            let schema = catalog.get(rel);
            let arity = schema.map(|s| s.arity).unwrap_or(2);
            (0..arity)
                .map(
                    |col| match schema.map_or(ValueKind::Any, |s| s.columns[col]) {
                        ValueKind::Addr => Value::Addr(NodeId(((k + col as i64) % 3) as u32)),
                        _ => Value::Int((r_idx as i64 * 5 + k + col as i64) % 7),
                    },
                )
                .collect()
        };
        for (r_idx, rel) in base.iter().enumerate() {
            for k in 0..4i64 {
                checked.insert(rel, fact(r_idx, rel, k));
            }
        }
        checked
            .check()
            .unwrap_or_else(|e| panic!("{name}: after the inserts: {e}"));
        // Then retract the first fact of every base relation.
        for (r_idx, rel) in base.iter().enumerate() {
            checked.delete(rel, fact(r_idx, rel, 0));
        }
        checked
            .check()
            .unwrap_or_else(|e| panic!("{name}: after the deletes: {e}"));
    }
    assert!(
        pinned_programs >= 3,
        "expected at least three programs with regular rules, got {pinned_programs}"
    );
}

/// Wire-path regression: two engines intern the same strings in different
/// orders (so their internal string ids disagree), then exchange located
/// tuples through the outbox. Because `RemoteTuple` carries resolved values
/// and the receiver re-interns on ingest, both engines must end up with
/// identical tables.
#[test]
fn remote_tuples_reintern_across_engines() {
    let ship_rule = |name: &str| {
        Rule::new(
            name,
            Head {
                relation: "inventory".into(),
                args: vec![
                    HeadArg::Term(Term::var("D")),
                    HeadArg::Term(Term::var("Item")),
                ],
                located: true,
            },
            vec![BodyItem::Atom(Atom::new(
                "stock",
                vec![Term::var("D"), Term::var("Item")],
            ))],
        )
    };
    let mut a = Checked::new(NodeId(0), &[ship_rule("ship_a")]);
    let mut b = Checked::new(NodeId(1), &[ship_rule("ship_b")]);

    // Skew the interners: each engine sees the shared strings in a
    // different order (and engine A interns extra strings first).
    let items = ["anvil", "barrel", "crate", "drum"];
    for extra in ["padding-1", "padding-2", "padding-3"] {
        a.insert("scratch", vec![Value::Str(extra.into())]);
    }
    for item in items.iter() {
        a.insert(
            "stock",
            vec![Value::Addr(NodeId(1)), Value::Str((*item).into())],
        );
    }
    for item in items.iter().rev() {
        b.insert(
            "stock",
            vec![Value::Addr(NodeId(0)), Value::Str((*item).into())],
        );
    }
    let from_a = a.check().expect("node 0 matches the naive fixpoint");
    let from_b = b.check().expect("node 1 matches the naive fixpoint");

    // Exchange outboxes, routing each remote tuple to its destination. The
    // receiving engine and its oracle ingest the same wire tuples, and the
    // next check compares the tables they build from them.
    let deliver = |node: &mut Checked, msgs: Vec<RemoteTuple>, expect_dest: u32| {
        for msg in msgs {
            assert_eq!(msg.dest.0, expect_dest);
            assert!(msg.insert);
            node.insert(&msg.relation, msg.tuple);
        }
    };
    assert_eq!(from_a.len(), items.len());
    assert_eq!(from_b.len(), items.len());
    deliver(&mut b, from_a, 1);
    deliver(&mut a, from_b, 0);
    a.check().expect("node 0 matches the naive fixpoint");
    b.check().expect("node 1 matches the naive fixpoint");

    // Each engine now holds the inventory shipped by its peer; despite the
    // different intern orders, the public tables agree exactly.
    let at_a = a.engine.tuples("inventory");
    let at_b = b.engine.tuples("inventory");
    assert_eq!(at_a.len(), items.len());
    assert_eq!(at_b.len(), items.len());
    let strip: fn(&Tuple) -> Value = |t| t[1].clone();
    let mut names_a: Vec<Value> = at_a.iter().map(strip).collect();
    let mut names_b: Vec<Value> = at_b.iter().map(strip).collect();
    names_a.sort();
    names_b.sort();
    assert_eq!(names_a, names_b);
}

/// Two-hop then four-hop reachability: `hop2(X,Z) <- edge(X,Y), edge(Y,Z)`
/// and `hop4(X,Z) <- hop2(X,Y), hop2(Y,Z)`. Over a chain of n edges the
/// outputs stay linear: n−1 and n−3 tuples.
fn chain_hop_rules() -> Vec<Rule> {
    let hop = |name: &str, head: &str, body: &str| {
        Rule::new(
            name,
            Head::simple(head, vec![Term::var("X"), Term::var("Z")]),
            vec![
                BodyItem::Atom(Atom::new(body, vec![Term::var("X"), Term::var("Y")])),
                BodyItem::Atom(Atom::new(body, vec![Term::var("Y"), Term::var("Z")])),
            ],
        )
    };
    vec![hop("h2", "hop2", "edge"), hop("h4", "hop4", "hop2")]
}

fn edge_schema() -> SchemaSet {
    let mut schemas = SchemaSet::new();
    schemas.insert(TupleSchema::new(
        "edge",
        vec![ValueKind::Int, ValueKind::Int],
    ));
    schemas
}

/// The validated bulk path (`try_insert_all`: one relation lookup and one
/// schema lookup per batch) must load exactly what the per-row validated
/// path loads, with the same amount of rule work. The naive oracle's
/// nested-loop join is quadratic in the chain length, so it referees the
/// short chain and the closed form (`hop2 = (i, i+2)`, `hop4 = (i, i+4)`)
/// referees both.
#[test]
fn bulk_ingest_matches_row_ingest_and_reference() {
    for (n, with_oracle) in [(1_000usize, true), (20_000, false)] {
        let edges: Vec<Tuple> = (0..n as i64)
            .map(|i| vec![Value::Int(i), Value::Int(i + 1)])
            .collect();
        let [mut bulk, mut rows] = [(); 2].map(|()| {
            let mut engine = Engine::new(NodeId(0));
            engine.add_rules(chain_hop_rules());
            engine.set_schemas(edge_schema());
            engine
        });
        let mut oracle = Naive::new(NodeId(0), &chain_hop_rules());

        assert_eq!(bulk.try_insert_all("edge", edges.clone()), Ok(n));
        for edge in &edges {
            rows.try_insert("edge", edge.clone())
                .expect("edge row is valid");
            if with_oracle {
                oracle.insert("edge", edge.clone());
            }
        }
        bulk.run();
        rows.run();
        let fixpoint = with_oracle.then(|| oracle.fixpoint());

        for (rel, hops) in [("edge", 1), ("hop2", 2), ("hop4", 4)] {
            let expected: Vec<Tuple> = (0..=(n - hops) as i64)
                .map(|i| vec![Value::Int(i), Value::Int(i + hops as i64)])
                .collect();
            assert_eq!(bulk.relation_len(rel), n + 1 - hops);
            assert!(bulk.tuples(rel) == expected, "bulk '{rel}' diverged");
            assert!(rows.tuples(rel) == expected, "row-by-row '{rel}' diverged");
            if let Some(fixpoint) = &fixpoint {
                let naive: Vec<Tuple> = fixpoint.tables[rel].iter().cloned().collect();
                assert!(naive == expected, "naive fixpoint '{rel}' diverged");
            }
        }
        assert_eq!(bulk.stats(), rows.stats());
    }
}

/// `try_insert_all` is all-or-nothing: a batch with one bad row, or for a
/// relation nobody declared, returns the typed error and queues nothing,
/// and the next valid batch loads as if the bad ones had never been sent.
#[test]
fn bulk_ingest_rejects_a_bad_batch_whole() {
    let mut e = Engine::new(NodeId(0));
    e.add_rules(chain_hop_rules());
    e.set_schemas(edge_schema());
    let edge = |i: i64| vec![Value::Int(i), Value::Int(i + 1)];
    let lens = |e: &Engine| ["edge", "hop2", "hop4"].map(|rel| e.relation_len(rel));
    assert_eq!(
        e.try_insert_all("edge", (0..10).map(edge).collect()),
        Ok(10)
    );
    e.run();
    let settled = e.stats().clone();

    let mut batch: Vec<Tuple> = (10..20).map(edge).collect();
    batch[7] = vec![Value::Int(17), Value::Str("eighteen".into())];
    assert_eq!(
        e.try_insert_all("edge", batch),
        Err(IngestError::Schema(SchemaError::Kind {
            relation: "edge".into(),
            position: 1,
            expected: ValueKind::Int,
            found: ValueKind::Str,
        }))
    );
    assert_eq!(
        e.try_insert_all("egde", (10..20).map(edge).collect()),
        Err(IngestError::UnknownRelation {
            relation: "egde".into(),
            suggestion: Some("edge".into()),
        })
    );
    e.run();
    assert_eq!(e.stats(), &settled, "a refused batch queues nothing");
    assert_eq!(lens(&e), [10, 9, 7]);
    assert!(!e.known_relation("egde"));

    assert_eq!(
        e.try_insert_all("edge", (10..20).map(edge).collect()),
        Ok(10)
    );
    e.run();
    assert_eq!(lens(&e), [20, 19, 17]);
}
