//! Property-based tests for the incremental Datalog engine: incremental
//! maintenance under arbitrary insert/delete sequences ends where the naive
//! oracle's recomputation from scratch ends, and aggregates match the
//! oracle's per-group definitions.

#[path = "common/naive_datalog.rs"]
mod naive_datalog;

use proptest::prelude::*;

use cologne_datalog::{AggFunc, Atom, BodyItem, Head, HeadArg, NodeId, Rule, Term, Value};
use naive_datalog::{transitive_closure_rules, Checked, ScriptOp};

fn pair(a: i64, b: i64) -> Vec<Value> {
    vec![Value::Int(a), Value::Int(b)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental *insertion* maintenance of a recursive program is
    /// equivalent to recomputing from scratch, regardless of arrival order.
    /// (Deletions under recursion need delete-and-rederive, which — like
    /// RapidNet's counting evaluation — this engine does not implement; the
    /// Colog programs of the paper contain no recursive deletions.)
    #[test]
    fn incremental_insertions_equal_recomputation(
        edge_list in prop::collection::vec((0i64..6, 0i64..6), 1..20)
    ) {
        let mut script = Vec::new();
        for &(a, b) in edge_list.iter().filter(|(a, b)| a != b) {
            script.push(ScriptOp::Insert("link", pair(a, b)));
            script.push(ScriptOp::Run); // pipelined: one delta at a time
        }
        Checked::new(NodeId(0), &transitive_closure_rules()).apply(&script)?;
    }

    /// Interleaved insertions and deletions on a *non-recursive* rule (the
    /// shape of every regular rule in the paper's programs) leave the engine
    /// exactly in the recomputed state.
    #[test]
    fn incremental_updates_equal_recomputation_nonrecursive(
        ops in prop::collection::vec((0i64..4, 0i64..4, prop::bool::ANY), 1..30)
    ) {
        // twoHop(X,Z) <- link(X,Y), hop(Y,Z): a join of two base relations.
        let rule = Rule::new(
            "r1",
            Head::simple("twoHop", vec![Term::var("X"), Term::var("Z")]),
            vec![
                BodyItem::Atom(Atom::new("link", vec![Term::var("X"), Term::var("Y")])),
                BodyItem::Atom(Atom::new("hop", vec![Term::var("Y"), Term::var("Z")])),
            ],
        );
        let mut script = Vec::new();
        for (i, &(a, b, insert)) in ops.iter().enumerate() {
            let rel = if i % 2 == 0 { "link" } else { "hop" };
            script.push(if insert {
                ScriptOp::Insert(rel, pair(a, b))
            } else {
                ScriptOp::Delete(rel, pair(a, b))
            });
            script.push(ScriptOp::Run);
        }
        Checked::new(NodeId(0), &[rule]).apply(&script)?;
    }

    /// SUM/MIN/MAX/COUNT aggregates always equal their definitions over
    /// the visible tuples.
    #[test]
    fn aggregates_match_reference(
        rows in prop::collection::vec((0i64..4, -10i64..10), 1..20)
    ) {
        let rules: Vec<Rule> = [
            (AggFunc::Sum, "sums"),
            (AggFunc::Min, "mins"),
            (AggFunc::Max, "maxs"),
            (AggFunc::Count, "counts"),
        ]
        .into_iter()
        .map(|(func, rel)| {
            Rule::new(
                "agg",
                Head {
                    relation: rel.into(),
                    args: vec![HeadArg::Term(Term::var("G")), HeadArg::Agg(func, "V".into())],
                    located: false,
                },
                vec![BodyItem::Atom(Atom::new("data", vec![Term::var("G"), Term::var("V")]))],
            )
        })
        .collect();
        let unique: std::collections::BTreeSet<(i64, i64)> = rows.iter().copied().collect();
        let script: Vec<ScriptOp> =
            unique.iter().map(|&(g, v)| ScriptOp::Insert("data", pair(g, v))).collect();
        let mut checked = Checked::new(NodeId(0), &rules);
        checked.apply(&script)?;
        let groups = unique.iter().map(|(g, _)| g).collect::<std::collections::BTreeSet<_>>();
        prop_assert_eq!(checked.engine.relation_len("sums"), groups.len());
    }
}
