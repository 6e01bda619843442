//! Translation of Colog AST fragments into the Datalog engine's IR.
//!
//! Regular Colog rules (class [`cologne_colog::RuleClass::Regular`]) execute
//! directly on the incremental engine; this module lowers them, resolving
//! named parameters from [`ProgramParams`] along the way. Solver rules are
//! *not* lowered here — they are grounded per COP invocation by
//! [`crate::ground`](mod@crate::ground).

use cologne_colog::{Arg, BodyElem, CExpr, COp, Literal, Predicate, RuleDecl};
use cologne_datalog::{Atom, BodyItem, Expr, Head, HeadArg, Op, Rule, Term, Value};

use crate::error::CologneError;
use crate::params::ProgramParams;

/// Convert a Colog literal to a runtime value, resolving named parameters.
pub fn literal_to_value(lit: &Literal, params: &ProgramParams) -> Result<Value, CologneError> {
    match lit {
        Literal::Int(i) => Ok(Value::Int(*i)),
        Literal::Float(f) => Ok(Value::float(*f)),
        Literal::Str(s) => Ok(Value::Str(s.clone())),
        Literal::Param(p) => params
            .constant(p)
            .map(Value::Int)
            .ok_or_else(|| CologneError::MissingParameter(p.clone())),
    }
}

/// Convert a predicate argument to a term (aggregates are rejected; they only
/// appear in rule heads, which use [`predicate_to_head`]).
pub fn arg_to_term(arg: &Arg, params: &ProgramParams) -> Result<Term, CologneError> {
    match arg {
        Arg::Loc(v) | Arg::Var(v) => Ok(Term::Var(v.clone())),
        Arg::Const(lit) => Ok(Term::Const(literal_to_value(lit, params)?)),
        Arg::Agg(func, v) => Err(CologneError::UnsupportedExpression {
            rule: String::new(),
            detail: format!("aggregate {}<{v}> outside a rule head", func.keyword()),
        }),
    }
}

/// Convert a body predicate to an engine atom.
pub fn predicate_to_atom(pred: &Predicate, params: &ProgramParams) -> Result<Atom, CologneError> {
    let args = pred
        .args
        .iter()
        .map(|a| arg_to_term(a, params))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Atom {
        relation: pred.name.clone(),
        args,
        located: pred.location().is_some(),
    })
}

/// Convert a head predicate (which may contain aggregates) to an engine head.
pub fn predicate_to_head(pred: &Predicate, params: &ProgramParams) -> Result<Head, CologneError> {
    let mut args = Vec::with_capacity(pred.args.len());
    for a in &pred.args {
        match a {
            Arg::Agg(func, v) => args.push(HeadArg::Agg(*func, v.clone())),
            other => args.push(HeadArg::Term(arg_to_term(other, params)?)),
        }
    }
    Ok(Head {
        relation: pred.name.clone(),
        args,
        located: pred.location().is_some(),
    })
}

fn cop_to_op(op: COp) -> Op {
    match op {
        COp::Add => Op::Add,
        COp::Sub => Op::Sub,
        COp::Mul => Op::Mul,
        COp::Div => Op::Div,
        COp::Eq => Op::Eq,
        COp::Ne => Op::Ne,
        COp::Lt => Op::Lt,
        COp::Le => Op::Le,
        COp::Gt => Op::Gt,
        COp::Ge => Op::Ge,
    }
}

/// Convert a Colog expression to an engine expression. Named parameters are
/// substituted by their integer values; unbound uppercase identifiers that
/// happen to name a parameter (e.g. `F_mindiff`) are substituted as well.
pub fn cexpr_to_expr(e: &CExpr, params: &ProgramParams) -> Result<Expr, CologneError> {
    match e {
        CExpr::Var(v) => {
            if let Some(c) = params.constant(v) {
                Ok(Expr::Term(Term::Const(Value::Int(c))))
            } else {
                Ok(Expr::Term(Term::Var(v.clone())))
            }
        }
        CExpr::Lit(lit) => Ok(Expr::Term(Term::Const(literal_to_value(lit, params)?))),
        CExpr::Bin(op, a, b) => Ok(Expr::BinOp(
            cop_to_op(*op),
            Box::new(cexpr_to_expr(a, params)?),
            Box::new(cexpr_to_expr(b, params)?),
        )),
        CExpr::Abs(inner) => Ok(Expr::Abs(Box::new(cexpr_to_expr(inner, params)?))),
        CExpr::Neg(inner) => Ok(Expr::Neg(Box::new(cexpr_to_expr(inner, params)?))),
    }
}

/// Lower a regular Colog rule to an engine rule.
pub fn rule_to_datalog(rule: &RuleDecl, params: &ProgramParams) -> Result<Rule, CologneError> {
    let head = predicate_to_head(&rule.head, params)?;
    let mut body = Vec::with_capacity(rule.body.len());
    for elem in &rule.body {
        match elem {
            BodyElem::Pred(p) => body.push(BodyItem::Atom(predicate_to_atom(p, params)?)),
            BodyElem::Expr(e) => body.push(BodyItem::Filter(cexpr_to_expr(e, params)?)),
            BodyElem::Assign(v, e) => {
                body.push(BodyItem::Assign(v.clone(), cexpr_to_expr(e, params)?))
            }
        }
    }
    Ok(Rule {
        label: rule.label.clone(),
        head,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cologne_colog::parse_program;
    use cologne_datalog::{Engine, NodeId};

    #[test]
    fn literals_and_parameters_resolve() {
        let params = ProgramParams::new().with_constant("max_migrates", 3);
        assert_eq!(
            literal_to_value(&Literal::Int(7), &params).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            literal_to_value(&Literal::Param("max_migrates".into()), &params).unwrap(),
            Value::Int(3)
        );
        assert!(matches!(
            literal_to_value(&Literal::Param("missing".into()), &params),
            Err(CologneError::MissingParameter(_))
        ));
        assert_eq!(
            literal_to_value(&Literal::Str("x".into()), &params).unwrap(),
            Value::Str("x".into())
        );
    }

    #[test]
    fn uppercase_parameters_substituted_in_expressions() {
        let params = ProgramParams::new().with_constant("F_mindiff", 2);
        let e = cexpr_to_expr(&CExpr::Var("F_mindiff".into()), &params).unwrap();
        assert_eq!(e, Expr::Term(Term::Const(Value::Int(2))));
        // ordinary variables stay variables
        let v = cexpr_to_expr(&CExpr::Var("Cpu".into()), &params).unwrap();
        assert_eq!(v, Expr::Term(Term::Var("Cpu".into())));
    }

    #[test]
    fn lowered_rule_runs_on_the_engine() {
        let program =
            parse_program("r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2), Cpu>20.")
                .unwrap();
        let params = ProgramParams::new();
        let rule = rule_to_datalog(&program.rules[0], &params).unwrap();
        let mut engine = Engine::new(NodeId(0));
        engine.add_rule(rule);
        engine.insert("vm", vec![Value::Int(1), Value::Int(50), Value::Int(512)]);
        engine.insert("vm", vec![Value::Int(2), Value::Int(10), Value::Int(512)]);
        engine.insert("host", vec![Value::Int(7), Value::Int(0), Value::Int(0)]);
        engine.run();
        // only the VM above the CPU threshold joins
        assert_eq!(engine.relation_len("toAssign"), 1);
        assert!(engine.contains("toAssign", &vec![Value::Int(1), Value::Int(7)]));
    }

    #[test]
    fn located_predicates_keep_their_flag() {
        let program = parse_program("r2 ping(@Y,X) <- link(@X,Y).").unwrap();
        let rule = rule_to_datalog(&program.rules[0], &ProgramParams::new()).unwrap();
        assert!(rule.head.located);
        match &rule.body[0] {
            BodyItem::Atom(a) => assert!(a.located),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_heads_translate() {
        let program = parse_program("d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,C).").unwrap();
        let rule = rule_to_datalog(&program.rules[0], &ProgramParams::new()).unwrap();
        assert!(rule.is_aggregate());
    }

    #[test]
    fn aggregates_in_body_are_rejected() {
        let pred = Predicate::new(
            "x",
            vec![Arg::Agg(cologne_datalog::AggFunc::Sum, "C".into())],
        );
        assert!(predicate_to_atom(&pred, &ProgramParams::new()).is_err());
    }

    #[test]
    fn assignment_and_abs_translate() {
        let program = parse_program("r3 out(X,R) <- in(X,R1), R:=-R1, |R1-3|<=5.").unwrap();
        let rule = rule_to_datalog(&program.rules[0], &ProgramParams::new()).unwrap();
        assert!(matches!(rule.body[1], BodyItem::Assign(_, _)));
        assert!(matches!(rule.body[2], BodyItem::Filter(_)));
    }
}
