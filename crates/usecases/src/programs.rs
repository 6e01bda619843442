//! The Colog programs evaluated in the paper.
//!
//! These are the five program listings behind Table 2 (plus the policy
//! extensions of Sec. 4.2/4.3). The executable experiments compile the same
//! sources through the `cologne` runtime; the full listings (including the
//! iterative-update rules that the experiment drivers implement natively,
//! such as Follow-the-Sun's `r2`/`r3`) are used for the code-compactness
//! comparison.

/// ACloud centralized load-balancing program (Sec. 4.2).
pub const ACLOUD_CENTRALIZED: &str = r#"
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

/// The migration-limiting extension of ACloud (rules d5, d6, c3 of Sec. 4.2),
/// appended to [`ACLOUD_CENTRALIZED`] to obtain the "ACloud (M)" policy.
pub const ACLOUD_MIGRATION_EXTENSION: &str = r#"
d5 migrate(Vid,Hid1,Hid2,C) <- assign(Vid,Hid1,V), origin(Vid,Hid2), Hid1!=Hid2, (V==1)==(C==1).
d6 migrateCount(SUM<C>) <- migrate(Vid,Hid1,Hid2,C).
c3 migrateCount(C) -> C<=max_migrates.
"#;

/// ACloud with the migration limit (the "ACloud (M)" policy of Sec. 6.2).
pub fn acloud_with_migration_limit() -> String {
    format!("{ACLOUD_CENTRALIZED}\n{ACLOUD_MIGRATION_EXTENSION}")
}

/// Follow-the-Sun, centralized formulation (the global COP of Sec. 3.1.2
/// solved by a single instance; used for Table 2 and as a reference point).
pub const FOLLOWSUN_CENTRALIZED: &str = r#"
goal minimize C in aggTotalCost(C).
var migVm(X,Y,D,R) forall toMigVm(X,Y,D).

r1 toMigVm(X,Y,D) <- link(X,Y), demand(D,Amt).
d1 nextVm(X,D,R) <- curVm(X,D,R1), migVm(X,Y,D,R2), R==R1-R2.
d2 aggCommCost(X,SUM<Cost>) <- nextVm(X,D,R), commCost(X,D,C), Cost==R*C.
d3 aggOpCost(X,SUM<Cost>) <- nextVm(X,D,R), opCost(X,C), Cost==R*C.
d4 aggMigCost(X,SUMABS<Cost>) <- migVm(X,Y,D,R), migCost(X,Y,C), Cost==R*C.
d5 nodeCost(X,C) <- aggCommCost(X,C1), aggOpCost(X,C2), aggMigCost(X,C3), C==C1+C2+C3.
d6 aggTotalCost(SUM<C>) <- nodeCost(X,C).
d7 aggNextVm(X,SUM<R>) <- nextVm(X,D,R).
c1 aggNextVm(X,R1) -> resource(X,R2), R1<=R2.
c2 nextVm(X,D,R) -> R>=0.
"#;

/// Follow-the-Sun, distributed per-link formulation (Sec. 4.3). Rules `r2`
/// and `r3` (result propagation and allocation update) are part of the
/// listing; the experiment driver performs the equivalent updates natively
/// between link negotiations.
pub const FOLLOWSUN_DISTRIBUTED: &str = r#"
goal minimize C in aggCost(@X,C).
var migVm(@X,Y,D,R) forall toMigVm(@X,Y,D).

r1 toMigVm(@X,Y,D) <- setLink(@X,Y), dc(@X,D).
d1 nextVm(@X,D,R) <- curVm(@X,D,R1), migVm(@X,Y,D,R2), R==R1-R2.
d2 nborNextVm(@X,Y,D,R) <- link(@Y,X), curVm(@Y,D,R1), migVm(@X,Y,D,R2), R==R1+R2.
d3 aggCommCost(@X,SUM<Cost>) <- nextVm(@X,D,R), commCost(@X,D,C), Cost==R*C.
d4 aggOpCost(@X,SUM<Cost>) <- nextVm(@X,D,R), opCost(@X,C), Cost==R*C.
d5 nborAggCommCost(@X,SUM<Cost>) <- link(@Y,X), commCost(@Y,D,C), nborNextVm(@X,Y,D,R), Cost==R*C.
d6 nborAggOpCost(@X,SUM<Cost>) <- link(@Y,X), opCost(@Y,C), nborNextVm(@X,Y,D,R), Cost==R*C.
d7 aggMigCost(@X,SUMABS<Cost>) <- migVm(@X,Y,D,R), migCost(@X,Y,C), Cost==R*C.
d8 aggCost(@X,C) <- aggCommCost(@X,C1), aggOpCost(@X,C2), aggMigCost(@X,C3), nborAggCommCost(@X,C4), nborAggOpCost(@X,C5), C==C1+C2+C3+C4+C5.
d9 aggNextVm(@X,SUM<R>) <- nextVm(@X,D,R).
c1 aggNextVm(@X,R1) -> resource(@X,R2), R1<=R2.
d10 aggNborNextVm(@X,Y,SUM<R>) <- nborNextVm(@X,Y,D,R).
c2 aggNborNextVm(@X,Y,R1) -> link(@Y,X), resource(@Y,R2), R1<=R2.
c3 nextVm(@X,D,R) -> R>=0.
c4 nborNextVm(@X,Y,D,R) -> R>=0.
"#;

/// The policy extension limiting per-link migrations (rules d11/c3 of
/// Sec. 4.3), appended to [`FOLLOWSUN_DISTRIBUTED`] for the
/// "Follow-the-Sun (M)" variant evaluated in Sec. 6.3.
pub const FOLLOWSUN_MIGRATION_EXTENSION: &str = r#"
d11 aggMigVm(@X,Y,SUMABS<R>) <- migVm(@X,Y,D,R).
c5 aggMigVm(@X,Y,R) -> R<=max_migrates.
"#;

/// Follow-the-Sun distributed program with the migration limit.
pub fn followsun_with_migration_limit() -> String {
    format!("{FOLLOWSUN_DISTRIBUTED}\n{FOLLOWSUN_MIGRATION_EXTENSION}")
}

/// Centralized wireless channel selection (Appendix A.2, one-hop model).
pub const WIRELESS_CENTRALIZED: &str = r#"
goal minimize C in totalCost(C).
var assign(X,Y,C) forall link(X,Y).

d1 cost(X,Y,Z,C) <- assign(X,Y,C1), assign(X,Z,C2), Y!=Z, (C==1)==(|C1-C2|<F_mindiff).
d2 totalCost(SUM<C>) <- cost(X,Y,Z,C).
c1 assign(X,Y,C) -> primaryUser(X,C2), C!=C2.
c2 assign(X,Y,C) -> assign(Y,X,C).
d3 uniqueChannel(X,UNIQUE<C>) <- assign(X,Y,C).
c3 uniqueChannel(X,Count) -> numInterface(X,K), Count<=K.
"#;

/// Centralized wireless channel selection with the two-hop interference
/// model (the `d3` variant of Appendix A.2) added on top of the one-hop cost.
pub const WIRELESS_CENTRALIZED_TWOHOP_EXTENSION: &str = r#"
d4 cost2(X,Y,Z,W,C) <- assign(X,Y,C1), link(Z,X), assign(Z,W,C2), X!=W, Y!=W, Y!=Z, (C==1)==(|C1-C2|<F_mindiff).
d5 totalCost2(SUM<C>) <- cost2(X,Y,Z,W,C).
"#;

/// Distributed wireless channel selection (Appendix A.3): per-link
/// negotiation with the two-hop interference model. Neighbouring nodes
/// publish their already-chosen channels (`chosen`) and primary-user
/// restrictions to the negotiating node through the regular rules `r2`/`r3`.
/// Rule `r4` (channel symmetry propagation) is in the listing. After each
/// negotiation the driver (`wireless::networked_distributed_assignment`)
/// writes the link's new channel into the `chosen` table of *both*
/// endpoints — the symmetric assignment `r4` describes — so that `r2` ships
/// it to both neighbourhoods. It then clears `setLink` and waits until every
/// shipped tuple is delivered and acknowledged before the next link.
pub const WIRELESS_DISTRIBUTED: &str = r#"
goal minimize C in totalCost(@X,C).
var assign(@X,Y,C) forall setLink(@X,Y).

r2 nborChosen(@X,Z,W,C2) <- link(@Z,X), chosen(@Z,W,C2).
r3 nborPrimaryUser(@X,Y,C2) <- link(@Y,X), primaryUser(@Y,C2).
d1 cost(@X,Y,Z,W,C) <- assign(@X,Y,C1), nborChosen(@X,Z,W,C2), X!=W, Y!=W, Y!=Z, (C==1)==(|C1-C2|<F_mindiff).
d2 cost(@X,Y,X,W,C) <- assign(@X,Y,C1), chosen(@X,W,C2), Y!=W, (C==1)==(|C1-C2|<F_mindiff).
d3 totalCost(@X,SUM<C>) <- cost(@X,Y,Z,W,C).
c1 assign(@X,Y,C) -> primaryUser(@X,C2), C!=C2.
c2 assign(@X,Y,C) -> nborPrimaryUser(@X,Y,C2), C!=C2.
r4 assign(@Y,X,C) <- assign(@X,Y,C).
"#;

/// Names and sources of the five programs compared in Table 2.
pub fn table2_programs() -> Vec<(&'static str, String)> {
    vec![
        ("ACloud (centralized)", ACLOUD_CENTRALIZED.to_string()),
        (
            "Follow-the-Sun (centralized)",
            FOLLOWSUN_CENTRALIZED.to_string(),
        ),
        (
            "Follow-the-Sun (distributed)",
            followsun_with_migration_limit(),
        ),
        (
            "Wireless (centralized)",
            format!("{WIRELESS_CENTRALIZED}\n{WIRELESS_CENTRALIZED_TWOHOP_EXTENSION}"),
        ),
        ("Wireless (distributed)", WIRELESS_DISTRIBUTED.to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cologne_colog::{analyze, parse_program};

    #[test]
    fn all_programs_parse_and_analyze() {
        for (name, src) in table2_programs() {
            let program = parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let analysis = analyze(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(program.num_rules() > 0, "{name}");
            assert!(!analysis.solver_tables.table_names().is_empty(), "{name}");
        }
    }

    #[test]
    fn acloud_extension_parses() {
        let program = parse_program(&acloud_with_migration_limit()).unwrap();
        assert!(program.rule("d5").is_some());
        assert!(program.rule("c3").is_some());
        assert_eq!(program.rules.len(), 10);
    }

    #[test]
    fn followsun_distributed_has_distributed_rules() {
        let program = parse_program(FOLLOWSUN_DISTRIBUTED).unwrap();
        assert!(program.rules.iter().any(|r| r.is_distributed()));
        let analysis = analyze(&program).unwrap();
        assert!(analysis.solver_tables.is_solver_table("migVm"));
        assert!(analysis.solver_tables.is_solver_table("aggCost"));
    }

    #[test]
    fn wireless_programs_reference_interference_parameters() {
        assert!(WIRELESS_CENTRALIZED.contains("F_mindiff"));
        assert!(WIRELESS_DISTRIBUTED.contains("F_mindiff"));
        let program = parse_program(WIRELESS_CENTRALIZED).unwrap();
        let analysis = analyze(&program).unwrap();
        assert!(analysis.solver_tables.is_solver_table("assign"));
        assert!(analysis.solver_tables.is_solver_table("uniqueChannel"));
    }

    #[test]
    fn rule_counts_are_in_paper_ballpark() {
        // Table 2 lists 10/16/32/35/48 rules; our executable listings are the
        // core subsets, so just check relative ordering and a sane floor.
        let counts: Vec<usize> = table2_programs()
            .iter()
            .map(|(_, src)| parse_program(src).unwrap().num_rules())
            .collect();
        assert!(counts[0] >= 9, "ACloud has {} rules", counts[0]);
        assert!(counts[2] >= counts[1], "distributed FTS >= centralized FTS");
        assert!(counts.iter().all(|&c| c >= 7));
    }
}
