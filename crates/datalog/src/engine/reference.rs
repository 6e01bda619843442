//! The reference interpreter: the pre-index, pre-interning engine.
//!
//! This is the original scan-everything implementation of the engine,
//! preserved verbatim (mirroring the solver's `solve_reference` pattern from
//! PR 2) as the executable specification of engine semantics: pipelined
//! semi-naïve evaluation via interpreted [`crate::Atom::match_tuple`] walks
//! over `String`-keyed relations, with aggregate and repeated-relation rules
//! maintained by recompute-and-diff.
//!
//! It exists for differential testing (it is exported, but nothing in the
//! production pipeline uses it). The equivalence suite asserts that the
//! production engine ([`crate::Engine`]) produces byte-identical fixpoint
//! tables, [`DeltaSummary`] contents and outbox multisets on random rule
//! sets and on the paper's three use-case programs.

use std::collections::{HashMap, HashSet, VecDeque};

use super::{DeltaSummary, EngineStats, RemoteTuple};
use crate::expr::{Bindings, Term};
use crate::rule::{BodyItem, HeadArg, Rule};
use crate::schema::{did_you_mean, IngestError, SchemaSet};
use crate::tuple::{Relation, Tuple};
use crate::value::{NodeId, Value};

#[derive(Debug, Clone)]
struct Delta {
    relation: String,
    tuple: Tuple,
    insert: bool,
}

/// The per-node Datalog engine.
pub struct ReferenceEngine {
    node: NodeId,
    relations: HashMap<String, Relation>,
    rules: Vec<Rule>,
    /// relation name -> indices of rules that mention it in their body
    trigger: HashMap<String, Vec<usize>>,
    /// rules maintained by recompute-and-diff (aggregates, repeated body
    /// relations)
    recompute_rules: HashSet<usize>,
    /// previous output of recompute rules
    prev_output: HashMap<usize, Vec<Tuple>>,
    pending: VecDeque<Delta>,
    outbox: Vec<RemoteTuple>,
    stats: EngineStats,
    /// Visibility changes since the last [`ReferenceEngine::take_delta_summary`].
    delta: DeltaSummary,
    /// Relation names mentioned by any installed rule (head or body) — the
    /// IDB part of the unknown-relation check.
    rule_relations: HashSet<String>,
    /// Declared relation schemas, checked by the validated ingest path.
    schemas: SchemaSet,
    /// Unknown relations already warned about (log-once).
    warned_unknown: HashSet<String>,
}

impl ReferenceEngine {
    /// Create an engine for the given node.
    pub fn new(node: NodeId) -> Self {
        ReferenceEngine {
            node,
            relations: HashMap::new(),
            rules: Vec::new(),
            trigger: HashMap::new(),
            recompute_rules: HashSet::new(),
            prev_output: HashMap::new(),
            pending: VecDeque::new(),
            outbox: Vec::new(),
            stats: EngineStats::default(),
            delta: DeltaSummary::default(),
            rule_relations: HashSet::new(),
            schemas: SchemaSet::new(),
            warned_unknown: HashSet::new(),
        }
    }

    /// The node this engine runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// ReferenceEngine statistics so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Visibility changes accumulated since the last
    /// [`ReferenceEngine::take_delta_summary`] (cumulative, unlike the per-run
    /// counters of [`EngineStats`], which never reset).
    pub fn delta_summary(&self) -> &DeltaSummary {
        &self.delta
    }

    /// Take the accumulated delta summary and start a fresh checkpoint.
    ///
    /// The Cologne runtime calls this right before grounding a COP: the
    /// returned summary describes exactly what changed since the previous
    /// grounding, so clean relations can keep their previously grounded
    /// variables and constraints.
    pub fn take_delta_summary(&mut self) -> DeltaSummary {
        std::mem::take(&mut self.delta)
    }

    /// Install (or replace) the declared relation schemas. Tuples entering
    /// through [`ReferenceEngine::try_insert`]/[`ReferenceEngine::try_delete`] are validated
    /// against them; relations without a schema accept any tuple shape.
    pub fn set_schemas(&mut self, schemas: SchemaSet) {
        self.schemas = schemas;
    }

    /// The declared relation schemas.
    pub fn schemas(&self) -> &SchemaSet {
        &self.schemas
    }

    /// Install a rule. Rules may be added before or after facts.
    pub fn add_rule(&mut self, rule: Rule) {
        let idx = self.rules.len();
        self.rule_relations.insert(rule.head.relation.clone());
        for rel in rule.body_relations() {
            self.rule_relations.insert(rel.to_string());
        }
        let mut body_rels: Vec<&str> = rule.body_relations();
        let repeats = {
            let mut sorted = body_rels.clone();
            sorted.sort_unstable();
            sorted.windows(2).any(|w| w[0] == w[1])
        };
        if rule.is_aggregate() || repeats {
            self.recompute_rules.insert(idx);
        }
        body_rels.sort_unstable();
        body_rels.dedup();
        for rel in body_rels {
            self.trigger.entry(rel.to_string()).or_default().push(idx);
        }
        self.rules.push(rule);
    }

    /// Install several rules.
    pub fn add_rules(&mut self, rules: impl IntoIterator<Item = Rule>) {
        for r in rules {
            self.add_rule(r);
        }
    }

    /// Number of installed rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// True when the engine has any reason to believe the relation exists:
    /// facts are stored under it, a rule mentions it, or a schema declares
    /// it.
    pub fn known_relation(&self, relation: &str) -> bool {
        self.relations.contains_key(relation)
            || self.rule_relations.contains(relation)
            || self.schemas.contains(relation)
    }

    /// A declared relation with a name similar to `relation`, for
    /// did-you-mean diagnostics.
    pub fn suggest_relation(&self, relation: &str) -> Option<String> {
        let mut names: Vec<&str> = self
            .relations
            .keys()
            .map(String::as_str)
            .chain(self.rule_relations.iter().map(String::as_str))
            .chain(self.schemas.names())
            .collect();
        names.sort_unstable();
        names.dedup();
        did_you_mean(relation, names)
    }

    /// Validate a tuple for ingestion: the relation must be known (see
    /// [`ReferenceEngine::known_relation`]) and the tuple must match its schema.
    pub fn validate(&self, relation: &str, tuple: &Tuple) -> Result<(), IngestError> {
        if !self.known_relation(relation) {
            return Err(IngestError::UnknownRelation {
                relation: relation.to_string(),
                suggestion: self.suggest_relation(relation),
            });
        }
        self.schemas.check(relation, tuple)?;
        Ok(())
    }

    /// Queue an insertion after validating it (see [`ReferenceEngine::validate`]).
    /// Nothing is queued on error, so malformed input — above all tuples
    /// received from remote nodes — cannot corrupt engine state.
    pub fn try_insert(&mut self, relation: &str, tuple: Tuple) -> Result<(), IngestError> {
        self.validate(relation, &tuple)?;
        self.queue(relation, tuple, true);
        Ok(())
    }

    /// Queue a deletion after validating it (see [`ReferenceEngine::try_insert`]).
    pub fn try_delete(&mut self, relation: &str, tuple: Tuple) -> Result<(), IngestError> {
        self.validate(relation, &tuple)?;
        self.queue(relation, tuple, false);
        Ok(())
    }

    /// Queue an insertion of a base (or received) tuple.
    ///
    /// Legacy unchecked entry point: the tuple is queued whether or not the
    /// relation is known, but an unknown relation is counted into
    /// [`EngineStats::unknown_relation_inserts`] and warned about once —
    /// historically such a typo created a silent, never-read relation.
    /// Prefer [`ReferenceEngine::try_insert`].
    pub fn insert(&mut self, relation: &str, tuple: Tuple) {
        self.note_unknown(relation);
        self.queue(relation, tuple, true);
    }

    /// Queue a deletion of a base (or received) tuple. Legacy unchecked
    /// entry point; see [`ReferenceEngine::insert`] and prefer [`ReferenceEngine::try_delete`].
    pub fn delete(&mut self, relation: &str, tuple: Tuple) {
        self.note_unknown(relation);
        self.queue(relation, tuple, false);
    }

    /// Count (and warn once about) a legacy ingest into an unknown relation.
    fn note_unknown(&mut self, relation: &str) {
        if self.known_relation(relation) {
            return;
        }
        self.stats.unknown_relation_inserts += 1;
        if self.warned_unknown.insert(relation.to_string()) {
            let suggestion = match self.suggest_relation(relation) {
                Some(s) => format!("; did you mean '{s}'?"),
                None => String::new(),
            };
            eprintln!(
                "[cologne-datalog] warning: tuple queued into unknown relation \
                 '{relation}' (no rule or schema mentions it){suggestion}"
            );
        }
    }

    fn queue(&mut self, relation: &str, tuple: Tuple, insert: bool) {
        self.pending.push_back(Delta {
            relation: relation.to_string(),
            tuple,
            insert,
        });
    }

    /// Replace the contents of a base relation with `tuples`, queueing the
    /// necessary insertions and deletions (used when a monitoring layer
    /// refreshes tables such as `vm` or `host`).
    pub fn set_relation(&mut self, relation: &str, tuples: Vec<Tuple>) {
        self.note_unknown(relation);
        let current: Vec<Tuple> = self
            .relations
            .get(relation)
            .map(|r| r.sorted_tuples())
            .unwrap_or_default();
        let new_set: HashSet<&Tuple> = tuples.iter().collect();
        let old_set: HashSet<&Tuple> = current.iter().collect();
        for t in &current {
            if !new_set.contains(t) {
                self.queue(relation, t.clone(), false);
            }
        }
        for t in &tuples {
            if !old_set.contains(t) {
                self.queue(relation, t.clone(), true);
            }
        }
    }

    /// Visible tuples of a relation (sorted, deterministic).
    pub fn tuples(&self, relation: &str) -> Vec<Tuple> {
        self.relations
            .get(relation)
            .map(|r| r.sorted_tuples())
            .unwrap_or_default()
    }

    /// True if the relation currently contains the tuple.
    pub fn contains(&self, relation: &str, tuple: &Tuple) -> bool {
        self.relations
            .get(relation)
            .is_some_and(|r| r.contains(tuple))
    }

    /// Number of visible tuples in a relation.
    pub fn relation_len(&self, relation: &str) -> usize {
        self.relations
            .get(relation)
            .map(|r| r.iter().count())
            .unwrap_or(0)
    }

    /// Borrowing iterator over the visible tuples of a relation, in
    /// unspecified order (use [`ReferenceEngine::tuples`] when a deterministic order
    /// matters). No allocation, no cloning.
    pub fn scan(&self, relation: &str) -> impl Iterator<Item = &Tuple> {
        self.relations
            .get(relation)
            .into_iter()
            .flat_map(|r| r.iter())
    }

    /// Names of all relations that currently exist.
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        names.sort();
        names
    }

    /// Borrowed names of all relations that currently exist, sorted. The
    /// allocation-light counterpart of [`ReferenceEngine::relation_names`].
    pub fn relation_names_ref(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.relations.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Drain tuples addressed to other nodes (produced by located rule heads).
    pub fn take_outbox(&mut self) -> Vec<RemoteTuple> {
        std::mem::take(&mut self.outbox)
    }

    /// Process all pending deltas to a local fixpoint.
    ///
    /// Returns the number of head updates applied. Remote tuples produced by
    /// located heads are collected in the outbox (see [`ReferenceEngine::take_outbox`]).
    pub fn run(&mut self) -> u64 {
        let before = self.stats.updates;
        loop {
            let mut dirty: HashSet<usize> = HashSet::new();
            while let Some(delta) = self.pending.pop_front() {
                self.stats.external_deltas += 1;
                self.apply_delta(delta, &mut dirty);
            }
            if dirty.is_empty() {
                break;
            }
            let mut dirty_list: Vec<usize> = dirty.into_iter().collect();
            dirty_list.sort_unstable();
            for rule_idx in dirty_list {
                self.recompute_rule(rule_idx);
            }
            if self.pending.is_empty() {
                break;
            }
        }
        self.stats.updates - before
    }

    fn apply_delta(&mut self, delta: Delta, dirty: &mut HashSet<usize>) {
        let rel = self.relations.entry(delta.relation.clone()).or_default();
        let change = rel.adjust(delta.tuple.clone(), if delta.insert { 1 } else { -1 });
        let became_visible = match change {
            Some(v) => v,
            None => return, // multiplicity changed but visibility did not
        };
        self.stats.updates += 1;
        self.delta.record(&delta.relation, became_visible);

        let rule_indices: Vec<usize> = self
            .trigger
            .get(&delta.relation)
            .cloned()
            .unwrap_or_default();
        for rule_idx in rule_indices {
            if self.recompute_rules.contains(&rule_idx) {
                dirty.insert(rule_idx);
                continue;
            }
            self.fire_incremental(rule_idx, &delta.relation, &delta.tuple, became_visible);
        }
    }

    /// Fire a non-aggregate rule with the delta tuple pinned at its (unique)
    /// occurrence of `relation`.
    fn fire_incremental(&mut self, rule_idx: usize, relation: &str, tuple: &Tuple, insert: bool) {
        let rule = self.rules[rule_idx].clone();
        let pin_pos = rule.body.iter().position(|b| match b {
            BodyItem::Atom(a) => a.relation == relation,
            _ => false,
        });
        let pin_pos = match pin_pos {
            Some(p) => p,
            None => return,
        };
        let bindings_list = self.join_body(&rule.body, Some((pin_pos, tuple)));
        let mut head_changes: Vec<(Tuple, bool)> = Vec::new();
        for b in bindings_list {
            self.stats.derivations += 1;
            if let Ok(head_tuple) = self.instantiate_simple_head(&rule, &b) {
                head_changes.push((head_tuple, insert));
            }
        }
        for (head_tuple, ins) in head_changes {
            self.emit(&rule, head_tuple, ins);
        }
    }

    /// Recompute an aggregate (or repeated-relation) rule from scratch and
    /// apply the diff against its previous output.
    fn recompute_rule(&mut self, rule_idx: usize) {
        self.stats.aggregate_recomputes += 1;
        let rule = self.rules[rule_idx].clone();
        let bindings_list = self.join_body(&rule.body, None);
        let new_output: Vec<Tuple> = if rule.is_aggregate() {
            self.aggregate_head(&rule, &bindings_list)
        } else {
            let mut out = Vec::new();
            for b in &bindings_list {
                self.stats.derivations += 1;
                if let Ok(t) = self.instantiate_simple_head(&rule, b) {
                    out.push(t);
                }
            }
            out.sort();
            out.dedup();
            out
        };
        let prev = self
            .prev_output
            .insert(rule_idx, new_output.clone())
            .unwrap_or_default();
        let prev_set: HashSet<&Tuple> = prev.iter().collect();
        let new_set: HashSet<&Tuple> = new_output.iter().collect();
        let deletions: Vec<Tuple> = prev
            .iter()
            .filter(|t| !new_set.contains(*t))
            .cloned()
            .collect();
        let insertions: Vec<Tuple> = new_output
            .iter()
            .filter(|t| !prev_set.contains(*t))
            .cloned()
            .collect();
        for t in deletions {
            self.emit(&rule, t, false);
        }
        for t in insertions {
            self.emit(&rule, t, true);
        }
    }

    /// Compute the grouped, aggregated head tuples of a rule.
    fn aggregate_head(&mut self, rule: &Rule, bindings_list: &[Bindings]) -> Vec<Tuple> {
        // group key -> per-aggregate collected values
        let mut groups: HashMap<Vec<Value>, Vec<Vec<Value>>> = HashMap::new();
        let agg_count = rule
            .head
            .args
            .iter()
            .filter(|a| matches!(a, HeadArg::Agg(_, _)))
            .count();
        for b in bindings_list {
            self.stats.derivations += 1;
            let mut key = Vec::new();
            let mut ok = true;
            let mut collected: Vec<Value> = Vec::with_capacity(agg_count);
            for arg in &rule.head.args {
                match arg {
                    HeadArg::Term(Term::Const(c)) => key.push(c.clone()),
                    HeadArg::Term(Term::Var(v)) => match b.get(v) {
                        Some(val) => key.push(val.clone()),
                        None => {
                            ok = false;
                            break;
                        }
                    },
                    HeadArg::Agg(_, over) => match b.get(over) {
                        Some(val) => collected.push(val.clone()),
                        None => {
                            ok = false;
                            break;
                        }
                    },
                }
            }
            if !ok {
                continue;
            }
            let entry = groups
                .entry(key)
                .or_insert_with(|| vec![Vec::new(); agg_count]);
            for (slot, v) in entry.iter_mut().zip(collected) {
                slot.push(v);
            }
        }
        let mut out = Vec::with_capacity(groups.len());
        for (key, values_per_agg) in groups {
            let mut tuple = Vec::with_capacity(rule.head.args.len());
            let mut key_iter = key.into_iter();
            let mut agg_iter = values_per_agg.into_iter();
            for arg in &rule.head.args {
                match arg {
                    HeadArg::Term(_) => tuple.push(key_iter.next().expect("group key arity")),
                    HeadArg::Agg(func, _) => {
                        let vals = agg_iter.next().expect("aggregate arity");
                        tuple.push(func.compute(&vals));
                    }
                }
            }
            out.push(tuple);
        }
        out.sort();
        out
    }

    fn instantiate_simple_head(
        &self,
        rule: &Rule,
        bindings: &Bindings,
    ) -> Result<Tuple, crate::expr::EvalError> {
        let mut out = Vec::with_capacity(rule.head.args.len());
        for arg in &rule.head.args {
            match arg {
                HeadArg::Term(Term::Const(c)) => out.push(c.clone()),
                HeadArg::Term(Term::Var(v)) => match bindings.get(v) {
                    Some(val) => out.push(val.clone()),
                    None => {
                        return Err(crate::expr::EvalError::UnboundVariable(v.clone()));
                    }
                },
                HeadArg::Agg(_, _) => {
                    unreachable!("aggregate heads are handled by recompute_rule")
                }
            }
        }
        Ok(out)
    }

    /// Apply a head-tuple change: local insert/delete, or remote send when
    /// the head is located at another node.
    fn emit(&mut self, rule: &Rule, tuple: Tuple, insert: bool) {
        if rule.head.located {
            if let Some(Value::Addr(dest)) = tuple.first() {
                if *dest != self.node {
                    self.stats.remote_sends += 1;
                    self.outbox.push(RemoteTuple {
                        dest: *dest,
                        relation: rule.head.relation.clone(),
                        tuple,
                        insert,
                    });
                    return;
                }
            }
        }
        self.pending.push_back(Delta {
            relation: rule.head.relation.clone(),
            tuple,
            insert,
        });
    }

    /// Join the body items against the current database. If `pin` is given,
    /// the atom at that body position matches only the pinned tuple.
    fn join_body(&self, body: &[BodyItem], pin: Option<(usize, &Tuple)>) -> Vec<Bindings> {
        let mut frontier = vec![Bindings::new()];
        for (idx, item) in body.iter().enumerate() {
            if frontier.is_empty() {
                return frontier;
            }
            let mut next = Vec::with_capacity(frontier.len());
            match item {
                BodyItem::Atom(atom) => {
                    if let Some((pinned_idx, pinned_tuple)) = pin {
                        if pinned_idx == idx {
                            for b in &frontier {
                                let mut nb = b.clone();
                                if atom.match_tuple(pinned_tuple, &mut nb) {
                                    next.push(nb);
                                }
                            }
                            frontier = next;
                            continue;
                        }
                    }
                    let empty = Relation::new();
                    let rel = self.relations.get(&atom.relation).unwrap_or(&empty);
                    for b in &frontier {
                        for t in rel.iter() {
                            let mut nb = b.clone();
                            if atom.match_tuple(t, &mut nb) {
                                next.push(nb);
                            }
                        }
                    }
                }
                BodyItem::Filter(expr) => {
                    for b in &frontier {
                        if expr.eval_bool(b).unwrap_or(false) {
                            next.push(b.clone());
                        }
                    }
                }
                BodyItem::Assign(var, expr) => {
                    for b in &frontier {
                        if let Ok(v) = expr.eval(b) {
                            let mut nb = b.clone();
                            nb.set(var, v);
                            next.push(nb);
                        }
                    }
                }
            }
            frontier = next;
        }
        frontier
    }
}
