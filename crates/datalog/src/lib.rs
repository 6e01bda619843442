//! # cologne-datalog
//!
//! An incremental, distributed-capable Datalog engine — the reproduction's
//! substitute for the RapidNet declarative networking engine used by the
//! Cologne paper (Liu et al., VLDB 2012).
//!
//! The engine provides the features the paper relies on in Sec. 5:
//!
//! * **Pipelined semi-naïve evaluation** — facts are processed one delta at a
//!   time and rule heads are maintained incrementally (counting view
//!   maintenance), so rules never need to be recomputed from scratch when
//!   inputs change.
//! * **Aggregates** — `SUM`, `COUNT`, `MIN`, `MAX`, `STDEV`, `SUMABS` and
//!   `UNIQUE`, matching the aggregate constructs of the Colog language.
//! * **Location specifiers** — a rule head addressed (`@X`) to a different
//!   node is shipped to that node's engine instead of being materialized
//!   locally; the Cologne runtime routes these tuples through the network
//!   substrate (`cologne-net`).
//!
//! ```
//! use cologne_datalog::{Engine, Rule, Head, BodyItem, Atom, Term, Value, NodeId};
//!
//! // path(X,Y) <- link(X,Y)
//! let mut engine = Engine::new(NodeId(0));
//! engine.add_rule(Rule::new(
//!     "r1",
//!     Head::simple("path", vec![Term::var("X"), Term::var("Y")]),
//!     vec![BodyItem::Atom(Atom::new("link", vec![Term::var("X"), Term::var("Y")]))],
//! ));
//! engine.insert("link", vec![Value::Int(1), Value::Int(2)]);
//! engine.run();
//! assert!(engine.contains("path", &vec![Value::Int(1), Value::Int(2)]));
//! ```

pub mod engine;
pub mod expr;
pub(crate) mod intern;
pub(crate) mod plan;
pub mod rule;
pub mod schema;
pub mod serde;
pub mod tuple;
pub mod value;

pub use engine::{DeltaSummary, Engine, EngineStats, RelationDelta, RemoteTuple};
pub use expr::{Bindings, Expr, Op, Term};
pub use rule::{AggFunc, Atom, BodyItem, Head, HeadArg, Rule};
pub use schema::{did_you_mean, IngestError, SchemaError, SchemaSet, TupleSchema};
pub use serde::{decode_tuple, decode_value, encode_tuple, encode_value, DecodeError};
pub use tuple::Tuple;
pub use value::{NodeId, RelId, StrId, SymId, Value, ValueKind, F64};
