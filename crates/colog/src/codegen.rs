//! Imperative code generation.
//!
//! Cologne compiles Colog programs into C++ that runs inside RapidNet (rule
//! dataflows, message handlers) and Gecode (variable/constraint posting,
//! branch-and-bound setup). Table 2 of the paper compares the number of
//! Colog rules against the lines of generated C++ — roughly two orders of
//! magnitude more code — to argue for the compactness of the declarative
//! specification.
//!
//! This module regenerates that comparison: it emits the equivalent
//! imperative C++ for a parsed program (tuple classes, per-rule delta
//! handlers, localization/message marshaling for distributed rules, Gecode
//! model construction for solver rules) and counts its physical source lines
//! the way `sloccount` does (non-blank, non-comment lines).

use std::collections::BTreeSet;

use crate::analysis::{Analysis, RuleClass};
use crate::ast::{Arg, BodyElem, GoalKind, Predicate, Program, RuleDecl};

/// The generated imperative program.
#[derive(Debug, Clone)]
pub struct GeneratedCode {
    /// C++ source text.
    pub cpp: String,
}

impl GeneratedCode {
    /// Count physical source lines (`sloccount` style: non-blank lines that
    /// are not pure comments).
    pub fn loc(&self) -> usize {
        count_loc(&self.cpp)
    }
}

/// Count non-blank, non-comment lines of C/C++-like source.
pub fn count_loc(code: &str) -> usize {
    code.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("/*") && *l != "*/")
        .count()
}

fn relation_names(program: &Program) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    if let Some(goal) = &program.goal {
        names.insert(goal.relation.name.clone());
    }
    for v in &program.vars {
        names.insert(v.table.name.clone());
        names.insert(v.forall.name.clone());
    }
    for r in &program.rules {
        names.insert(r.head.name.clone());
        for b in &r.body {
            if let BodyElem::Pred(p) = b {
                names.insert(p.name.clone());
            }
        }
    }
    names
}

fn arity_of(program: &Program, relation: &str) -> usize {
    let check = |p: &Predicate| {
        if p.name == relation {
            Some(p.args.len())
        } else {
            None
        }
    };
    for r in &program.rules {
        if let Some(a) = check(&r.head) {
            return a;
        }
        for b in &r.body {
            if let BodyElem::Pred(p) = b {
                if let Some(a) = check(p) {
                    return a;
                }
            }
        }
    }
    for v in &program.vars {
        if let Some(a) = check(&v.table).or_else(|| check(&v.forall)) {
            return a;
        }
    }
    if let Some(goal) = &program.goal {
        if let Some(a) = check(&goal.relation) {
            return a;
        }
    }
    1
}

fn emit_tuple_class(out: &mut String, relation: &str, arity: usize) {
    let fields: Vec<String> = (0..arity).map(|i| format!("attr{i}")).collect();
    out.push_str(&format!(
        "class {relation}Tuple : public rapidnet::Tuple {{\n"
    ));
    out.push_str("public:\n");
    for f in &fields {
        out.push_str(&format!("  rapidnet::ValuePtr {f};\n"));
    }
    out.push_str(&format!("  {relation}Tuple() {{}}\n"));
    out.push_str(&format!(
        "  explicit {relation}Tuple(const std::vector<rapidnet::ValuePtr>& attrs) {{\n"
    ));
    for (i, f) in fields.iter().enumerate() {
        out.push_str(&format!("    {f} = attrs[{i}];\n"));
    }
    out.push_str("  }\n");
    out.push_str("  std::string ToString() const {\n");
    out.push_str("    std::ostringstream os;\n");
    out.push_str(&format!("    os << \"{relation}(\""));
    for f in &fields {
        out.push_str(&format!(" << {f}->ToString() << \",\""));
    }
    out.push_str(" << \")\";\n");
    out.push_str("    return os.str();\n");
    out.push_str("  }\n");
    out.push_str("  bool Equals(const rapidnet::Tuple& other) const;\n");
    out.push_str("  uint32_t HashCode() const;\n");
    out.push_str("};\n\n");
    out.push_str(&format!(
        "bool {relation}Tuple::Equals(const rapidnet::Tuple& other) const {{\n"
    ));
    out.push_str(&format!(
        "  const {relation}Tuple* o = dynamic_cast<const {relation}Tuple*>(&other);\n"
    ));
    out.push_str("  if (o == NULL) return false;\n");
    for f in &fields {
        out.push_str(&format!("  if (!{f}->Equals(*o->{f})) return false;\n"));
    }
    out.push_str("  return true;\n");
    out.push_str("}\n\n");
}

fn pred_args_comment(p: &Predicate) -> String {
    let args: Vec<String> = p
        .args
        .iter()
        .map(|a| match a {
            Arg::Loc(v) => format!("@{v}"),
            Arg::Var(v) => v.clone(),
            Arg::Agg(f, v) => format!("{}<{v}>", f.keyword()),
            Arg::Const(_) => "const".to_string(),
        })
        .collect();
    format!("{}({})", p.name, args.join(","))
}

/// How the Datalog engine will evaluate a regular rule, mirroring the
/// classification in `cologne_datalog::Engine::add_rule`: a rule whose body
/// repeats a relation is recomputed and diffed against its previous output;
/// everything else — aggregate heads included, through per-group state — is
/// maintained incrementally with pipelined per-delta counting.
fn engine_eval_mode(rule: &RuleDecl) -> &'static str {
    let mut names: Vec<&str> = rule
        .body
        .iter()
        .filter_map(|b| match b {
            BodyElem::Pred(p) => Some(p.name.as_str()),
            _ => None,
        })
        .collect();
    names.sort_unstable();
    let repeats = names.windows(2).any(|w| w[0] == w[1]);
    if repeats {
        "recompute-diff"
    } else {
        "pipelined-delta"
    }
}

fn emit_regular_rule(out: &mut String, rule: &RuleDecl) {
    let preds: Vec<&Predicate> = rule
        .body
        .iter()
        .filter_map(|b| match b {
            BodyElem::Pred(p) => Some(p),
            _ => None,
        })
        .collect();
    let exprs = rule.body.len() - preds.len();
    out.push_str(&format!(
        "// rule {}: {} <- ...  [engine: {}]\n",
        rule.label,
        pred_args_comment(&rule.head),
        engine_eval_mode(rule)
    ));
    for (ti, trigger) in preds.iter().enumerate() {
        out.push_str(&format!(
            "void {}Runtime::Rule_{}_Delta{}(Ptr<{}Tuple> delta) {{\n",
            rule_class_name(rule),
            rule.label,
            ti,
            trigger.name
        ));
        out.push_str("  // join the delta tuple with the remaining body relations\n");
        let mut indent = String::from("  ");
        for (oi, other) in preds.iter().enumerate() {
            if oi == ti {
                continue;
            }
            out.push_str(&format!(
                "{indent}RelationIterator<{0}Tuple> it{oi} = m_{0}Table->Begin();\n",
                other.name
            ));
            out.push_str(&format!(
                "{indent}for (; !it{oi}.AtEnd(); it{oi}.Next()) {{\n"
            ));
            indent.push_str("  ");
            out.push_str(&format!(
                "{indent}Ptr<{0}Tuple> t{oi} = it{oi}.Current();\n",
                other.name
            ));
            for v in other.variables().iter().take(2) {
                out.push_str(&format!(
                    "{indent}if (!JoinAttributeMatches(delta, t{oi}, \"{v}\")) continue;\n"
                ));
            }
        }
        for k in 0..exprs {
            out.push_str(&format!(
                "{indent}if (!EvaluateSelection_{}_{k}(bindings)) continue;\n",
                rule.label
            ));
        }
        out.push_str(&format!(
            "{indent}Ptr<{}Tuple> head = Create<{}Tuple>(ProjectHeadAttributes(bindings));\n",
            rule.head.name, rule.head.name
        ));
        if rule.head.location().is_some() {
            out.push_str(&format!(
                "{indent}rapidnet::Address dest = ResolveLocationSpecifier(head);\n"
            ));
            out.push_str(&format!("{indent}if (dest != GetAddress()) {{\n"));
            out.push_str(&format!("{indent}  SendTuple(dest, head);\n"));
            out.push_str(&format!("{indent}}} else {{\n"));
            out.push_str(&format!(
                "{indent}  m_{}Table->Insert(head);\n",
                rule.head.name
            ));
            out.push_str(&format!("{indent}}}\n"));
        } else {
            out.push_str(&format!(
                "{indent}m_{}Table->Insert(head);\n",
                rule.head.name
            ));
        }
        for _ in 1..preds.len() {
            indent.truncate(indent.len() - 2);
            out.push_str(&format!("{indent}}}\n"));
        }
        out.push_str("}\n\n");
        // deletion handler mirrors the insertion handler
        out.push_str(&format!(
            "void {}Runtime::Rule_{}_Delete{}(Ptr<{}Tuple> delta) {{\n",
            rule_class_name(rule),
            rule.label,
            ti,
            trigger.name
        ));
        out.push_str("  // counting view maintenance: retract derivations that used delta\n");
        out.push_str(&format!(
            "  std::vector<Ptr<{}Tuple>> affected = RederiveWithout(delta);\n",
            rule.head.name
        ));
        out.push_str("  for (size_t i = 0; i < affected.size(); ++i) {\n");
        out.push_str(&format!(
            "    m_{}Table->DecrementCount(affected[i]);\n",
            rule.head.name
        ));
        out.push_str("  }\n");
        out.push_str("}\n\n");
    }
}

fn emit_solver_rule(out: &mut String, rule: &RuleDecl, class: RuleClass) {
    let preds: Vec<&Predicate> = rule
        .body
        .iter()
        .filter_map(|b| match b {
            BodyElem::Pred(p) => Some(p),
            _ => None,
        })
        .collect();
    let exprs: Vec<&BodyElem> = rule
        .body
        .iter()
        .filter(|b| matches!(b, BodyElem::Expr(_)))
        .collect();
    let kind = match class {
        RuleClass::SolverDerivation => "derivation",
        RuleClass::SolverConstraint => "constraint",
        RuleClass::Regular => "regular",
    };
    out.push_str(&format!(
        "// solver {kind} rule {}: {}\n",
        rule.label,
        pred_args_comment(&rule.head)
    ));
    out.push_str(&format!(
        "void {}Model::Post_{}(Gecode::Space& home) {{\n",
        rule_class_name(rule),
        rule.label
    ));
    out.push_str("  // enumerate the regular bindings of the rule body\n");
    let mut indent = String::from("  ");
    for (oi, p) in preds.iter().enumerate() {
        out.push_str(&format!(
            "{indent}RelationIterator<{0}Tuple> it{oi} = m_{0}Table->Begin();\n",
            p.name
        ));
        out.push_str(&format!(
            "{indent}for (; !it{oi}.AtEnd(); it{oi}.Next()) {{\n"
        ));
        indent.push_str("  ");
        out.push_str(&format!(
            "{indent}Ptr<{0}Tuple> t{oi} = it{oi}.Current();\n",
            p.name
        ));
        out.push_str(&format!(
            "{indent}Gecode::IntVarArgs vars{oi} = LookupSolverVars(t{oi});\n"
        ));
    }
    for (k, _) in exprs.iter().enumerate() {
        out.push_str(&format!(
            "{indent}Gecode::LinIntExpr e{k} = TranslateExpression_{}_{k}(bindings);\n",
            rule.label
        ));
        out.push_str(&format!("{indent}Gecode::rel(home, e{k});\n"));
    }
    if rule.head.has_aggregate() {
        out.push_str(&format!(
            "{indent}AccumulateAggregate(home, groupKey, contributions);\n"
        ));
    }
    if class == RuleClass::SolverDerivation {
        out.push_str(&format!(
            "{indent}Gecode::IntVar derived = RegisterDerivedVariable(home, \"{}\");\n",
            rule.head.name
        ));
        out.push_str(&format!(
            "{indent}Gecode::rel(home, derived == AggregateExpression(contributions));\n"
        ));
        out.push_str(&format!(
            "{indent}MaterializeHeadTuple(m_{}Table, groupKey, derived);\n",
            rule.head.name
        ));
    } else {
        out.push_str(&format!(
            "{indent}Gecode::rel(home, ConstraintExpression(bindings));\n"
        ));
    }
    for _ in &preds {
        indent.truncate(indent.len() - 2);
        out.push_str(&format!("{indent}}}\n"));
    }
    out.push_str("}\n\n");
    if rule.is_distributed() {
        out.push_str(&format!(
            "void {}Runtime::Recv_{}(Ptr<Packet> packet, rapidnet::Address from) {{\n",
            rule_class_name(rule),
            rule.label
        ));
        out.push_str("  rapidnet::TupleHeader header;\n");
        out.push_str("  packet->RemoveHeader(header);\n");
        out.push_str(&format!(
            "  Ptr<tmp_{}Tuple> tuple = Deserialize<tmp_{}Tuple>(packet);\n",
            rule.label, rule.label
        ));
        out.push_str(&format!("  m_tmp_{}Table->Insert(tuple);\n", rule.label));
        out.push_str("  ScheduleLocalReevaluation();\n");
        out.push_str("}\n\n");
    }
}

fn rule_class_name(rule: &RuleDecl) -> String {
    let mut name = rule.head.name.clone();
    if let Some(first) = name.get_mut(0..1) {
        first.make_ascii_uppercase();
    }
    name
}

/// Generate the equivalent imperative C++ for a Colog program.
pub fn generate_cpp(program: &Program, analysis: &Analysis, program_name: &str) -> GeneratedCode {
    let mut out = String::new();
    out.push_str(&format!(
        "// Auto-generated RapidNet + Gecode C++ for program '{program_name}'.\n"
    ));
    out.push_str("// Equivalent imperative implementation of the Colog specification.\n");
    out.push_str("#include <map>\n#include <set>\n#include <sstream>\n#include <string>\n#include <vector>\n");
    out.push_str("#include \"ns3/rapidnet-module.h\"\n");
    out.push_str(
        "#include <gecode/int.hh>\n#include <gecode/search.hh>\n#include <gecode/minimodel.hh>\n\n",
    );
    out.push_str(&format!("namespace {program_name} {{\n\n"));

    // Tuple classes per relation.
    for rel in relation_names(program) {
        emit_tuple_class(&mut out, &rel, arity_of(program, &rel));
    }

    // Application class boilerplate.
    let class_name = {
        let mut n = program_name.to_string();
        if let Some(first) = n.get_mut(0..1) {
            first.make_ascii_uppercase();
        }
        n
    };
    out.push_str(&format!(
        "class {class_name}Runtime : public rapidnet::RapidNetApplicationBase {{\n"
    ));
    out.push_str("public:\n");
    out.push_str("  static TypeId GetTypeId();\n");
    out.push_str(&format!("  {class_name}Runtime();\n"));
    out.push_str(&format!("  virtual ~{class_name}Runtime();\n"));
    out.push_str("  virtual void StartApplication();\n");
    out.push_str("  virtual void StopApplication();\n");
    out.push_str("  void InvokeSolver();\n");
    out.push_str("  void PeriodicTimerExpired();\n");
    for rel in relation_names(program) {
        out.push_str(&format!("  Ptr<rapidnet::RelationBase> m_{rel}Table;\n"));
    }
    out.push_str("private:\n");
    out.push_str("  Gecode::Space* m_space;\n");
    out.push_str("  EventId m_periodicTimer;\n");
    out.push_str("};\n\n");
    out.push_str(&format!(
        "void {class_name}Runtime::StartApplication() {{\n"
    ));
    for rel in relation_names(program) {
        out.push_str(&format!(
            "  m_{rel}Table = CreateRelation(\"{rel}\", {});\n",
            arity_of(program, &rel)
        ));
    }
    out.push_str("  m_periodicTimer = Simulator::Schedule(Seconds(PERIODIC_INTERVAL),\n");
    out.push_str(&format!(
        "      &{class_name}Runtime::PeriodicTimerExpired, this);\n"
    ));
    out.push_str("}\n\n");

    // Rules.
    for (idx, rule) in program.rules.iter().enumerate() {
        match analysis.class_of(idx) {
            RuleClass::Regular => emit_regular_rule(&mut out, rule),
            class => emit_solver_rule(&mut out, rule, class),
        }
    }

    // Goal / solver invocation glue.
    if let Some(goal) = &program.goal {
        out.push_str(&format!(
            "class {class_name}Model : public Gecode::IntMinimizeSpace {{\n"
        ));
        out.push_str("public:\n");
        out.push_str("  Gecode::IntVarArray m_decisionVars;\n");
        out.push_str("  Gecode::IntVar m_objective;\n");
        for v in &program.vars {
            out.push_str(&format!(
                "  // var {} forall {}\n",
                pred_args_comment(&v.table),
                pred_args_comment(&v.forall)
            ));
            out.push_str(&format!(
                "  void Declare_{}(Gecode::Space& home, Ptr<rapidnet::RelationBase> forallTable);\n",
                v.table.name
            ));
        }
        out.push_str("  virtual Gecode::IntVar cost() const { return m_objective; }\n");
        out.push_str("  virtual Gecode::Space* copy() { return new ");
        out.push_str(&format!("{class_name}Model(*this); }}\n"));
        out.push_str("};\n\n");
        out.push_str(&format!("void {class_name}Runtime::InvokeSolver() {{\n"));
        out.push_str(&format!(
            "  {class_name}Model* model = new {class_name}Model();\n"
        ));
        for v in &program.vars {
            out.push_str(&format!(
                "  model->Declare_{}(*model, m_{}Table);\n",
                v.table.name, v.forall.name
            ));
        }
        for (idx, rule) in program.rules.iter().enumerate() {
            if analysis.class_of(idx) != RuleClass::Regular {
                out.push_str(&format!("  model->Post_{}(*model);\n", rule.label));
            }
        }
        let engine = match goal.kind {
            GoalKind::Minimize | GoalKind::Maximize => "Gecode::BAB",
            GoalKind::Satisfy => "Gecode::DFS",
        };
        out.push_str("  Gecode::Search::Options options;\n");
        out.push_str("  options.stop = Gecode::Search::Stop::time(SOLVER_MAX_TIME);\n");
        out.push_str(&format!(
            "  {engine}<{class_name}Model> search(model, options);\n"
        ));
        out.push_str(&format!("  {class_name}Model* best = NULL;\n"));
        out.push_str(&format!(
            "  while ({class_name}Model* sol = search.next()) {{\n"
        ));
        out.push_str("    delete best;\n");
        out.push_str("    best = sol;\n");
        out.push_str("  }\n");
        out.push_str("  if (best != NULL) {\n");
        for v in &program.vars {
            out.push_str(&format!(
                "    MaterializeSolution(m_{}Table, best->m_decisionVars);\n",
                v.table.name
            ));
        }
        out.push_str(&format!(
            "    MaterializeObjective(m_{}Table, best->m_objective);\n",
            goal.relation.name
        ));
        out.push_str("    delete best;\n");
        out.push_str("  }\n");
        out.push_str("  delete model;\n");
        out.push_str("}\n\n");
    }

    out.push_str(&format!("}} // namespace {program_name}\n"));
    GeneratedCode { cpp: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::parser::parse_program;

    const ACLOUD: &str = r#"
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

    #[test]
    fn loc_counter_ignores_blank_and_comment_lines() {
        let code = "// comment\n\nint x = 1;\n  // indented comment\nint y = 2;\n";
        assert_eq!(count_loc(code), 2);
    }

    #[test]
    fn generated_code_is_orders_of_magnitude_larger() {
        let program = parse_program(ACLOUD).unwrap();
        let analysis = analyze(&program).unwrap();
        let generated = generate_cpp(&program, &analysis, "acloud");
        let loc = generated.loc();
        let rules = program.num_rules();
        assert!(rules >= 9);
        // Table 2 reports ~100x; require at least 40x to allow for structural
        // differences while still demonstrating the orders-of-magnitude gap.
        assert!(
            loc >= rules * 40,
            "generated {loc} LOC for {rules} rules (ratio {})",
            loc / rules
        );
        // and it should actually contain the expected artifacts
        assert!(generated.cpp.contains("class assignTuple"));
        assert!(generated.cpp.contains("Gecode::BAB"));
        assert!(generated.cpp.contains("InvokeSolver"));
    }

    #[test]
    fn distributed_rules_emit_message_handlers() {
        let src = r#"
            goal minimize C in aggCost(@X,C).
            var migVm(@X,Y,D,R) forall toMigVm(@X,Y,D).
            d2 nborNextVm(@X,Y,D,R) <- link(@Y,X), curVm(@Y,D,R1), migVm(@X,Y,D,R2), R==R1+R2.
        "#;
        let program = parse_program(src).unwrap();
        let analysis = analyze(&program).unwrap();
        let generated = generate_cpp(&program, &analysis, "followsun");
        assert!(generated.cpp.contains("Recv_d2"));
        assert!(generated.cpp.contains("Deserialize"));
    }

    #[test]
    fn bigger_programs_generate_more_code() {
        let small = parse_program("r1 path(X,Y) <- link(X,Y).").unwrap();
        let small_an = analyze(&small).unwrap();
        let small_loc = generate_cpp(&small, &small_an, "tiny").loc();
        let big = parse_program(ACLOUD).unwrap();
        let big_an = analyze(&big).unwrap();
        let big_loc = generate_cpp(&big, &big_an, "acloud").loc();
        assert!(big_loc > small_loc);
    }
}
