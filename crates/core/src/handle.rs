//! Schema-checked relation handles — the typed write surface of a
//! [`CologneInstance`].
//!
//! A [`RelationHandle`] is obtained with [`CologneInstance::relation`],
//! which validates the relation *name* eagerly (a typo is an
//! [`crate::CologneError::UnknownRelation`] with a did-you-mean suggestion,
//! not a silent no-op); every write through the handle then validates the
//! tuple's arity and column kinds against the schema derived from the
//! compiled program ([`cologne_colog::SchemaCatalog`]). This replaced the
//! old stringly-typed write surface, which accepted anything and let
//! mistakes surface as empty solver tables.

use cologne_colog::RelationSchema;
use cologne_datalog::Tuple;

use crate::error::CologneError;
use crate::instance::CologneInstance;

/// A validated, schema-checked view on one relation of an instance.
///
/// The handle mutably borrows the instance, so writes happen in place; reads
/// ([`RelationHandle::scan`], [`RelationHandle::snapshot`]) are available on
/// the same handle for convenience.
pub struct RelationHandle<'a> {
    instance: &'a mut CologneInstance,
    name: String,
}

impl std::fmt::Debug for RelationHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationHandle")
            .field("relation", &self.name)
            .field("schema", self.schema())
            .finish()
    }
}

impl<'a> RelationHandle<'a> {
    pub(crate) fn new(instance: &'a mut CologneInstance, name: &str) -> Self {
        RelationHandle {
            instance,
            name: name.to_string(),
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's derived schema.
    pub fn schema(&self) -> &RelationSchema {
        self.instance
            .schema_catalog()
            .get(&self.name)
            .expect("handle exists only for cataloged relations")
    }

    /// Validate a tuple against the schema without writing it.
    pub fn validate(&self, tuple: &Tuple) -> Result<(), CologneError> {
        self.instance.check_tuple(&self.name, tuple)
    }

    /// Insert a base fact (validated eagerly).
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), CologneError> {
        self.validate(&tuple)?;
        self.instance.engine.insert(&self.name, tuple);
        Ok(())
    }

    /// Delete a base fact (validated eagerly).
    pub fn delete(&mut self, tuple: Tuple) -> Result<(), CologneError> {
        self.validate(&tuple)?;
        self.instance.engine.delete(&self.name, tuple);
        Ok(())
    }

    /// Replace the relation's contents (monitoring refresh), validating
    /// every tuple before anything is queued — a malformed row rejects the
    /// whole batch.
    pub fn set(&mut self, tuples: Vec<Tuple>) -> Result<(), CologneError> {
        for t in &tuples {
            self.validate(t)?;
        }
        self.instance.engine.set_relation(&self.name, tuples);
        Ok(())
    }

    /// Borrowing iterator over the visible tuples, in unspecified order.
    pub fn scan(&self) -> impl Iterator<Item = &Tuple> {
        self.instance.scan(&self.name)
    }

    /// Visible tuples, sorted (deterministic snapshot).
    pub fn snapshot(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self.scan().cloned().collect();
        out.sort();
        out
    }

    /// True if the relation currently contains the tuple.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.instance.contains(&self.name, tuple)
    }

    /// Number of visible tuples.
    pub fn len(&self) -> usize {
        self.scan().count()
    }

    /// True when the relation has no visible tuples.
    pub fn is_empty(&self) -> bool {
        self.scan().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProgramParams;
    use cologne_datalog::{NodeId, Value};

    const PROGRAM: &str = r#"
        r1 toAssign(Vid,Hid) <- vm(Vid,Cpu,Mem), host(Hid,Cpu2,Mem2).
    "#;

    fn instance() -> CologneInstance {
        CologneInstance::new(NodeId(0), PROGRAM, ProgramParams::new()).unwrap()
    }

    #[test]
    fn unknown_relation_rejected_with_suggestion() {
        let mut inst = instance();
        let err = inst.relation("vms").unwrap_err();
        match err {
            CologneError::UnknownRelation {
                relation,
                suggestion,
            } => {
                assert_eq!(relation, "vms");
                assert_eq!(suggestion.as_deref(), Some("vm"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_rejected_before_queueing() {
        let mut inst = instance();
        let mut vm = inst.relation("vm").unwrap();
        assert_eq!(vm.name(), "vm");
        assert_eq!(vm.schema().arity, 3);
        let err = vm.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, CologneError::SchemaMismatch { .. }));
        assert!(vm.is_empty());
        // a batched set rejects wholesale
        let err = vm
            .set(vec![
                vec![Value::Int(1), Value::Int(2), Value::Int(3)],
                vec![Value::Int(9)],
            ])
            .unwrap_err();
        assert!(matches!(err, CologneError::SchemaMismatch { .. }));
        assert!(vm.is_empty());
    }

    #[test]
    fn writes_and_reads_round_trip() {
        let mut inst = instance();
        let mut vm = inst.relation("vm").unwrap();
        vm.insert(vec![Value::Int(2), Value::Int(20), Value::Int(1)])
            .unwrap();
        vm.insert(vec![Value::Int(1), Value::Int(40), Value::Int(2)])
            .unwrap();
        inst.run_rules();
        let mut vm = inst.relation("vm").unwrap();
        assert_eq!(vm.len(), 2);
        assert!(!vm.is_empty());
        assert!(vm.contains(&vec![Value::Int(1), Value::Int(40), Value::Int(2)]));
        assert_eq!(
            vm.snapshot()[0],
            vec![Value::Int(1), Value::Int(40), Value::Int(2)]
        );
        vm.delete(vec![Value::Int(1), Value::Int(40), Value::Int(2)])
            .unwrap();
        inst.run_rules();
        assert_eq!(inst.scan("vm").count(), 1);
        // derived relation populated through the rule
        let mut host = inst.relation("host").unwrap();
        host.set(vec![vec![Value::Int(10), Value::Int(0), Value::Int(0)]])
            .unwrap();
        inst.run_rules();
        assert_eq!(inst.scan("toAssign").count(), 1);
    }
}
