//! Integration test: the compiler pipeline (parse → analyze → localize)
//! applied to every shipped program, plus the distributed runtime executing
//! a localized rule across simulated nodes.

use cologne::datalog::{NodeId, Value};
use cologne::net::{LinkProps, SimTime, Topology};
use cologne::{DeploymentBuilder, ProgramParams, RuleClass, VarDomain};
use cologne_colog::{analyze, localize_rules, parse_program};
use cologne_usecases::compactness_table;
use cologne_usecases::programs::{table2_programs, FOLLOWSUN_DISTRIBUTED};

#[test]
fn every_shipped_program_passes_the_whole_pipeline() {
    for (name, source) in table2_programs() {
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{name}: parse: {e}"));
        let analysis = analyze(&program).unwrap_or_else(|e| panic!("{name}: analysis: {e}"));
        let localized =
            localize_rules(&program.rules).unwrap_or_else(|e| panic!("{name}: localize: {e}"));
        assert!(
            localized.len() >= program.rules.len(),
            "{name}: localization lost rules"
        );
        // every rule received a classification
        assert_eq!(analysis.classes.len(), program.rules.len());
    }
}

#[test]
fn distributed_followsun_rules_ship_neighbour_state() {
    // Two data centers connected by one link: the localization of rule d2
    // (and d5/d6/c2) must make node 1's curVm/commCost/resource visible at
    // node 0 as tmp_* relations, shipped over the simulated network.
    let params = ProgramParams::new()
        .with_var_domain("migVm", VarDomain::new(-10, 10))
        .with_solver_node_limit(Some(5_000));
    let mut driver = DeploymentBuilder::new(FOLLOWSUN_DISTRIBUTED)
        .params(params)
        .topology(Topology::line(2, LinkProps::default()))
        .build()
        .unwrap();

    for node in [0u32, 1] {
        let x = Value::Addr(NodeId(node));
        let other = Value::Addr(NodeId(1 - node));
        let n = NodeId(node);
        driver
            .insert(n, "link", vec![x.clone(), other.clone()])
            .unwrap();
        driver
            .insert(n, "opCost", vec![x.clone(), Value::Int(10)])
            .unwrap();
        driver
            .insert(n, "resource", vec![x.clone(), Value::Int(20)])
            .unwrap();
        driver
            .insert(n, "migCost", vec![x.clone(), other, Value::Int(10)])
            .unwrap();
        for d in 0..2i64 {
            driver
                .insert(n, "dc", vec![x.clone(), Value::Int(d)])
                .unwrap();
            driver
                .insert(
                    n,
                    "curVm",
                    vec![
                        x.clone(),
                        Value::Int(d),
                        Value::Int(if node == 0 { 6 } else { 1 }),
                    ],
                )
                .unwrap();
            driver
                .insert(
                    n,
                    "commCost",
                    vec![
                        x.clone(),
                        Value::Int(d),
                        Value::Int(if node as i64 == d { 10 } else { 80 }),
                    ],
                )
                .unwrap();
        }
    }
    driver.run_messages_until(SimTime::from_secs(2));

    // the shipping rules created tmp_* relations at node 0 holding node 1's state
    let inst0 = driver.instance(NodeId(0)).unwrap();
    let tmp_relations: Vec<String> = inst0
        .program()
        .rules
        .iter()
        .map(|r| r.head.name.clone())
        .filter(|n| n.starts_with("tmp_"))
        .collect();
    assert!(
        !tmp_relations.is_empty(),
        "localization should introduce tmp_* relations"
    );
    let populated = tmp_relations
        .iter()
        .filter(|rel| inst0.scan(rel).next().is_some())
        .count();
    assert!(
        populated > 0,
        "neighbour state must arrive at node 0 over the network"
    );
    assert!(
        driver.traffic(NodeId(1)).bytes_sent > 0,
        "node 1 must have sent tuples"
    );

    // and the localized program still classifies the local COP rules as solver rules
    let analysis = inst0.analysis();
    let classes: Vec<RuleClass> = (0..inst0.program().rules.len())
        .map(|i| analysis.class_of(i))
        .collect();
    assert!(classes.contains(&RuleClass::SolverDerivation));
    assert!(classes.contains(&RuleClass::SolverConstraint));
    assert!(classes.contains(&RuleClass::Regular));
}

#[test]
fn table2_rows_are_consistent_with_compiler_output() {
    let rows = compactness_table();
    assert_eq!(rows.len(), 5);
    for (row, (name, source)) in rows.iter().zip(table2_programs()) {
        assert_eq!(row.protocol, name);
        let program = parse_program(&source).unwrap();
        assert_eq!(row.colog_rules, program.num_rules(), "{name}");
        let localized = localize_rules(&program.rules).unwrap();
        assert_eq!(row.localized_rules, localized.len(), "{name}");
    }
}
