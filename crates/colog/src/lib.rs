//! # cologne-colog
//!
//! The Colog language: lexer, parser, static analysis and localization
//! rewrite.
//!
//! Colog (Sec. 4 of the Cologne paper, Liu et al., VLDB 2012) extends
//! distributed Datalog with constructs for constraint optimization:
//!
//! * `goal minimize|maximize|satisfy X in rel(...)` — the optimization goal;
//! * `var table(...) forall boundTable(...)` — solver variable declarations;
//! * solver derivation rules (`head <- body`) and solver constraint rules
//!   (`head -> body`);
//! * `@Loc` location specifiers for distributed rules;
//! * aggregates `SUM`, `COUNT`, `MIN`, `MAX`, `STDEV`, `SUMABS`, `UNIQUE`.
//!
//! The typical pipeline is:
//!
//! ```
//! use cologne_colog::{parse_program, analyze, localize_rules};
//!
//! let source = r#"
//!     goal minimize C in hostStdevCpu(C).
//!     var assign(Vid,Hid,V) forall toAssign(Vid,Hid).
//!     r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
//!     d1 hostCpu(Hid,SUM<C>) <- assign(Vid,Hid,V), vm(Vid,Cpu,Mem), C==V*Cpu.
//! "#;
//! let program = parse_program(source).expect("valid Colog");
//! let analysis = analyze(&program).expect("well-formed program");
//! assert!(analysis.solver_tables.is_solver_table("assign"));
//! let localized = localize_rules(&program.rules).expect("localizable");
//! assert_eq!(localized.len(), program.rules.len()); // nothing distributed here
//! ```
//!
//! Execution of analysed programs (grounding solver rules, invoking the
//! constraint solver, distributing tuples) lives in the `cologne` runtime
//! crate (`cologne-core`).

pub mod analysis;
pub mod ast;
pub mod lexer;
pub mod localize;
pub mod parser;
pub mod schema;

pub use analysis::{analyze, Analysis, AnalysisError, RuleClass, SolverTables};
pub use ast::{
    Arg, BodyElem, CExpr, COp, GoalDecl, GoalKind, Literal, Predicate, Program, RuleArrow,
    RuleDecl, VarDecl,
};
pub use lexer::{tokenize, LexError, Token};
pub use localize::{localize_rule, localize_rules, LocalizeError};
pub use parser::{parse_program, ParseError};
pub use schema::{RelationSchema, SchemaCatalog};
