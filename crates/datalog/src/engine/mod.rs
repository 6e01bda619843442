//! The incremental Datalog evaluation engine.
//!
//! This reproduces the slice of RapidNet the paper relies on (Sec. 5.1):
//! *pipelined semi-naïve* (PSN) evaluation, in which tuples are processed one
//! delta at a time and rule heads are maintained incrementally via counting
//! view maintenance, plus the distributed convention that a rule head with a
//! location specifier addressed to another node is shipped over the network
//! instead of being materialized locally.
//!
//! Aggregate heads are maintained by delta too: each signed derivation of
//! the pinned plan is folded into per-group state (`groups`), and once
//! the queue drains only the touched groups are turned back into head rows
//! and compared with what they last emitted. Only a rule whose body repeats
//! a relation is maintained by full re-evaluation followed by diffing.
//!
//! ## Evaluation-core architecture
//!
//! The engine is built for the 10^5–10^6-tuple groundings of the paper's
//! scaling experiments; four layers cooperate:
//!
//! * **Interning** (`crate::intern`) — relation names and `Value::Str`
//!   payloads are mapped to dense `u32` ids at the API boundary, so every
//!   internal structure is keyed by [`crate::RelId`]-style indexes instead
//!   of `String` hash maps and stored rows are flat arrays of copyable
//!   words (`crate::tuple::IRow`).
//! * **Indexed stores** (`crate::tuple::RelStore`) — each relation is a
//!   deduplicating arena with counted multiplicities, an O(1) visible
//!   count, and per-(arity, bound-column-set) hash indexes built lazily the
//!   first time a compiled plan probes that column set.
//! * **Compiled plans** (`crate::plan`) — `add_rule` compiles each rule
//!   once into a `crate::plan::RulePlan`: positional slot bindings,
//!   per-column match actions, probe keys, and a safety-checked join order
//!   (selections and index probes, not a walk over name-keyed bindings).
//!   The pipelined delta loop fires the pinned variant of a plan for each
//!   delta tuple, joining only against indexed stabilized relations, out of
//!   engine-owned scratch buffers (no allocation per delta).
//! * **Batched delta bookkeeping** — visibility changes are accumulated in
//!   dense per-relation counters during a run and folded into the
//!   name-keyed [`DeltaSummary`] once at the end, so the hot loop never
//!   touches a `BTreeMap<String, _>`.
//!
//! The test suite (`tests/equivalence_datalog.rs`) checks the engine after
//! every `run()` against a naive evaluator that recomputes every rule from
//! the surviving base facts: fixpoint tables, delta summaries and outbox.

mod groups;

use std::collections::{BTreeMap, HashSet, VecDeque};

use crate::intern::{Interner, SymbolTable};
use crate::plan::{self, ExecBuf, HeadCol, HeadPlan, RulePlan};
use crate::rule::Rule;
use crate::schema::{did_you_mean, IngestError, SchemaSet};
use crate::tuple::{IRow, IVal, RelStore, Tuple};
use crate::value::NodeId;

use groups::GroupTable;

/// A tuple addressed to another Cologne instance.
///
/// Remote tuples always carry the *resolved* relation name and string
/// values: interner ids are engine-local, so content (not ids) crosses the
/// wire and the receiving engine re-interns on ingest. Two nodes therefore
/// converge to identical tables even when their insertion orders — and thus
/// their id assignments — differ.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteTuple {
    /// Destination node.
    pub dest: NodeId,
    /// Relation name at the destination.
    pub relation: String,
    /// The tuple payload (including the location attribute).
    pub tuple: Tuple,
    /// True for insertion, false for deletion.
    pub insert: bool,
}

impl RemoteTuple {
    /// Size in bytes used for the communication-overhead accounting of
    /// Fig. 5: 4 bytes per attribute plus a small per-message header, an
    /// approximation of RapidNet's wire format.
    pub fn wire_size(&self) -> usize {
        20 + self.relation.len() + 4 * self.tuple.len()
    }
}

/// Counters describing engine activity.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of externally inserted/deleted tuples processed.
    pub external_deltas: u64,
    /// Number of rule firings (derivations attempted).
    pub derivations: u64,
    /// Number of head tuples that changed visibility.
    pub updates: u64,
    /// Number of tuples addressed to remote nodes.
    pub remote_sends: u64,
    /// Number of full rule re-evaluations. Aggregate heads are maintained
    /// by delta and do not count; what counts is every re-evaluation of a
    /// rule whose body repeats a relation, and the one evaluation that seeds
    /// an aggregate rule installed after its body relations held facts.
    pub aggregate_recomputes: u64,
    /// Number of [`Engine::insert`]/[`Engine::delete`] calls that targeted a
    /// relation absent from both the EDB and the IDB (no stored facts, no
    /// rule mentions it, no schema declares it) — almost always a typo in
    /// the relation name. The legacy entry points still queue the tuple for
    /// compatibility; [`Engine::try_insert`] rejects it instead.
    pub unknown_relation_inserts: u64,
}

/// Net visibility changes of one relation since a delta-summary checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelationDelta {
    /// Tuples that became visible.
    pub inserted: u64,
    /// Tuples that stopped being visible.
    pub deleted: u64,
}

impl RelationDelta {
    /// Total number of visibility changes.
    pub fn total(&self) -> u64 {
        self.inserted + self.deleted
    }
}

/// Per-relation summary of everything that changed since the last checkpoint
/// ([`Engine::take_delta_summary`]).
///
/// This is the contract the Cologne grounding stage consumes to decide
/// between a full re-grounding and an incremental one: a relation absent
/// from `changes` had no visible tuple inserted or deleted since the summary
/// was last taken — its contents are byte-identical to what the previous
/// grounding saw. Multiplicity-only changes (a duplicate insert of an
/// already-visible tuple, or a delete that leaves copies) do not dirty a
/// relation, matching the visibility semantics of [`Engine::tuples`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// Relations with at least one visibility change, with their counts.
    pub changes: BTreeMap<String, RelationDelta>,
}

impl DeltaSummary {
    /// True when nothing changed since the checkpoint.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// True when `relation` had no visibility change since the checkpoint.
    pub fn is_clean(&self, relation: &str) -> bool {
        !self.changes.contains_key(relation)
    }

    /// Names of the dirty relations, sorted.
    pub fn dirty_relations(&self) -> impl Iterator<Item = &str> {
        self.changes.keys().map(String::as_str)
    }

    /// Total visibility changes across all relations.
    pub fn total_changes(&self) -> u64 {
        self.changes.values().map(RelationDelta::total).sum()
    }
}

/// An internal pending delta: interned relation id plus interned row.
#[derive(Debug, Clone)]
struct IDelta {
    rel: u32,
    row: IRow,
    insert: bool,
}

/// How one rule is kept up to date (parallel to `Engine::rules`).
#[derive(Default)]
struct RuleState {
    /// Group state of an aggregate head.
    groups: Option<GroupTable>,
    /// Last output (sorted under `cmp_public`) of a non-aggregate rule
    /// maintained by full re-evaluation.
    prev_output: Vec<IRow>,
    /// A change to a body relation queues a full re-evaluation instead of
    /// firing a pinned plan: always for a repeated body relation, until the
    /// first settle for an aggregate rule installed over existing facts
    /// (its group table has to be seeded from them).
    full_eval: bool,
    /// Listed in `Engine::unsettled`.
    unsettled: bool,
}

/// Buffers of the delta loop, reused across deltas and runs.
#[derive(Default)]
struct Scratch {
    exec: ExecBuf,
    /// Head rows to insert (all the rows of a plain firing).
    ins: Vec<IRow>,
    /// Head rows to delete.
    dels: Vec<IRow>,
}

/// The per-node Datalog engine.
pub struct Engine {
    node: NodeId,
    interner: Interner,
    /// Relation stores, indexed by relation id (always sized to the
    /// interner's relation count).
    stores: Vec<RelStore>,
    /// Whether the relation "exists": a delta has been applied to it, even
    /// one that changed no visibility. [`Engine::relation_names`] lists
    /// exactly these.
    exists: Vec<bool>,
    rules: Vec<Rule>,
    /// Compiled plan per rule (parallel to `rules`).
    plans: Vec<RulePlan>,
    /// Maintenance state per rule (parallel to `rules`).
    state: Vec<RuleState>,
    /// relation id -> indices of rules that mention it in their body
    trigger: Vec<Vec<usize>>,
    /// Rules with work left for the end of the current drain: group tables
    /// to finalize, full re-evaluations to run.
    unsettled: Vec<usize>,
    scratch: Scratch,
    pending: VecDeque<IDelta>,
    outbox: Vec<RemoteTuple>,
    stats: EngineStats,
    /// Visibility changes since the last [`Engine::take_delta_summary`],
    /// folded from the dense counters at the end of each run.
    delta: DeltaSummary,
    /// Dense per-relation insert/delete counters for the current run —
    /// the batched form of [`DeltaSummary`] bookkeeping.
    delta_ins: Vec<u64>,
    delta_del: Vec<u64>,
    /// Relations touched by the dense counters, in first-touch order.
    delta_touched: Vec<u32>,
    /// Relation names mentioned by any installed rule (head or body) — the
    /// IDB part of the unknown-relation check.
    rule_relations: HashSet<String>,
    /// Declared relation schemas, checked by the validated ingest path.
    schemas: SchemaSet,
    /// Unknown relations already warned about (log-once).
    warned_unknown: HashSet<String>,
}

impl Engine {
    /// Create an engine for the given node.
    pub fn new(node: NodeId) -> Self {
        Engine {
            node,
            interner: Interner::default(),
            stores: Vec::new(),
            exists: Vec::new(),
            rules: Vec::new(),
            plans: Vec::new(),
            state: Vec::new(),
            trigger: Vec::new(),
            unsettled: Vec::new(),
            scratch: Scratch::default(),
            pending: VecDeque::new(),
            outbox: Vec::new(),
            stats: EngineStats::default(),
            delta: DeltaSummary::default(),
            delta_ins: Vec::new(),
            delta_del: Vec::new(),
            delta_touched: Vec::new(),
            rule_relations: HashSet::new(),
            schemas: SchemaSet::new(),
            warned_unknown: HashSet::new(),
        }
    }

    /// The node this engine runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Engine statistics so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Visibility changes accumulated since the last
    /// [`Engine::take_delta_summary`] (cumulative, unlike the per-run
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
        self.flush_delta();
        std::mem::take(&mut self.delta)
    }

    /// Install (or replace) the declared relation schemas. Tuples entering
    /// through [`Engine::try_insert`]/[`Engine::try_delete`] are validated
    /// against them; relations without a schema accept any tuple shape.
    pub fn set_schemas(&mut self, schemas: SchemaSet) {
        self.schemas = schemas;
    }

    /// The declared relation schemas.
    pub fn schemas(&self) -> &SchemaSet {
        &self.schemas
    }

    /// Grow the dense per-relation vectors to the interner's relation count.
    fn grow(&mut self) {
        let n = self.interner.rels.len();
        if self.stores.len() < n {
            self.stores.resize_with(n, RelStore::default);
            self.exists.resize(n, false);
            self.trigger.resize_with(n, Vec::new);
            self.delta_ins.resize(n, 0);
            self.delta_del.resize(n, 0);
        }
    }

    /// Intern a relation name and make sure the dense vectors cover it.
    fn rel_id(&mut self, relation: &str) -> u32 {
        let id = self.interner.rels.intern(relation);
        self.grow();
        id
    }

    /// Store of an existing relation (one that has seen a delta), if any.
    fn store_by_name(&self, relation: &str) -> Option<&RelStore> {
        let id = self.interner.rels.lookup(relation)? as usize;
        if *self.exists.get(id)? {
            self.stores.get(id)
        } else {
            None
        }
    }

    /// Install a rule. Rules may be added before or after facts.
    ///
    /// The rule is compiled once into a `RulePlan`; a rule whose body
    /// repeats a relation is classified for maintenance by full
    /// re-evaluation, everything else — aggregate heads included — gets
    /// pinned delta plans for pipelined firing.
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
        let compiled = plan::compile(&rule, repeats, &mut self.interner);
        self.grow();
        body_rels.sort_unstable();
        body_rels.dedup();
        let mut facts_exist = false;
        for rel in body_rels {
            let id = self
                .interner
                .rels
                .lookup(rel)
                .expect("compile interns every body relation") as usize;
            self.trigger[id].push(idx);
            facts_exist |= self.stores[id].num_rows() > 0;
        }
        self.state.push(RuleState {
            groups: compiled
                .aggregate
                .then(|| GroupTable::new(&compiled.head.cols)),
            full_eval: repeats || (compiled.aggregate && facts_exist),
            ..RuleState::default()
        });
        self.plans.push(compiled);
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
        self.store_by_name(relation).is_some()
            || self.rule_relations.contains(relation)
            || self.schemas.contains(relation)
    }

    /// A declared relation with a name similar to `relation`, for
    /// did-you-mean diagnostics.
    pub fn suggest_relation(&self, relation: &str) -> Option<String> {
        let mut names: Vec<&str> = self
            .exists
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| self.interner.rels.resolve(i as u32))
            .chain(self.rule_relations.iter().map(String::as_str))
            .chain(self.schemas.names())
            .collect();
        names.sort_unstable();
        names.dedup();
        did_you_mean(relation, names)
    }

    /// Validate a tuple for ingestion: the relation must be known (see
    /// [`Engine::known_relation`]) and the tuple must match its schema.
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

    /// Queue an insertion after validating it (see [`Engine::validate`]).
    /// Nothing is queued on error, so malformed input — above all tuples
    /// received from remote nodes — cannot corrupt engine state.
    pub fn try_insert(&mut self, relation: &str, tuple: Tuple) -> Result<(), IngestError> {
        self.validate(relation, &tuple)?;
        self.queue(relation, tuple, true);
        Ok(())
    }

    /// Queue a deletion after validating it (see [`Engine::try_insert`]).
    pub fn try_delete(&mut self, relation: &str, tuple: Tuple) -> Result<(), IngestError> {
        self.validate(relation, &tuple)?;
        self.queue(relation, tuple, false);
        Ok(())
    }

    /// Queue a batch of insertions with batched validation: the relation
    /// name is resolved and its schema looked up once for the whole batch
    /// instead of per tuple. Returns the number of tuples queued; nothing
    /// is queued on error. The bulk counterpart of [`Engine::try_insert`]
    /// for 10^5+-tuple loads.
    pub fn try_insert_all(
        &mut self,
        relation: &str,
        tuples: Vec<Tuple>,
    ) -> Result<usize, IngestError> {
        if !self.known_relation(relation) {
            return Err(IngestError::UnknownRelation {
                relation: relation.to_string(),
                suggestion: self.suggest_relation(relation),
            });
        }
        self.schemas.check_all(relation, tuples.iter())?;
        let rel = self.rel_id(relation);
        let n = tuples.len();
        self.pending.reserve(n);
        for tuple in tuples {
            let row = IRow::from_tuple(&tuple, &mut self.interner.strs);
            self.pending.push_back(IDelta {
                rel,
                row,
                insert: true,
            });
        }
        Ok(n)
    }

    /// Queue a batch of insertions through the legacy unchecked path (see
    /// [`Engine::insert`]): one unknown-relation check and one relation-id
    /// resolution for the whole batch.
    pub fn insert_all(&mut self, relation: &str, tuples: impl IntoIterator<Item = Tuple>) {
        self.note_unknown(relation);
        let rel = self.rel_id(relation);
        for tuple in tuples {
            let row = IRow::from_tuple(&tuple, &mut self.interner.strs);
            self.pending.push_back(IDelta {
                rel,
                row,
                insert: true,
            });
        }
    }

    /// Queue an insertion of a base (or received) tuple.
    ///
    /// Legacy unchecked entry point: the tuple is queued whether or not the
    /// relation is known, but an unknown relation is counted into
    /// [`EngineStats::unknown_relation_inserts`] and warned about once —
    /// historically such a typo created a silent, never-read relation.
    /// Prefer [`Engine::try_insert`].
    pub fn insert(&mut self, relation: &str, tuple: Tuple) {
        self.note_unknown(relation);
        self.queue(relation, tuple, true);
    }

    /// Queue a deletion of a base (or received) tuple. Legacy unchecked
    /// entry point; see [`Engine::insert`] and prefer [`Engine::try_delete`].
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

    /// Intern and enqueue one external delta.
    fn queue(&mut self, relation: &str, tuple: Tuple, insert: bool) {
        let rel = self.rel_id(relation);
        let row = IRow::from_tuple(&tuple, &mut self.interner.strs);
        self.pending.push_back(IDelta { rel, row, insert });
    }

    /// Replace the contents of a base relation with `tuples`, queueing the
    /// necessary insertions and deletions (used when a monitoring layer
    /// refreshes tables such as `vm` or `host`).
    pub fn set_relation(&mut self, relation: &str, tuples: Vec<Tuple>) {
        self.note_unknown(relation);
        let current: Vec<Tuple> = self
            .store_by_name(relation)
            .map(|s| s.sorted_pubs(&self.interner.strs))
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
        self.store_by_name(relation)
            .map(|s| s.sorted_pubs(&self.interner.strs))
            .unwrap_or_default()
    }

    /// True if the relation currently contains the tuple.
    pub fn contains(&self, relation: &str, tuple: &Tuple) -> bool {
        let Some(store) = self.store_by_name(relation) else {
            return false;
        };
        // A tuple containing a never-interned string cannot be stored.
        match IRow::lookup_tuple(tuple, &self.interner.strs) {
            Some(row) => store.contains_row(&row),
            None => false,
        }
    }

    /// Number of visible tuples in a relation — O(1) from the store's
    /// maintained visible count.
    pub fn relation_len(&self, relation: &str) -> usize {
        self.store_by_name(relation)
            .map(|s| s.visible_len())
            .unwrap_or(0)
    }

    /// Borrowing iterator over the visible tuples of a relation, in
    /// unspecified order (use [`Engine::tuples`] when a deterministic order
    /// matters). No allocation, no cloning.
    pub fn scan(&self, relation: &str) -> impl Iterator<Item = &Tuple> {
        let strs = &self.interner.strs;
        self.store_by_name(relation)
            .into_iter()
            .flat_map(move |s| s.scan_pubs(strs))
    }

    /// Names of all relations that currently exist.
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .exists
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| self.interner.rels.resolve(i as u32).to_string())
            .collect();
        names.sort();
        names
    }

    /// Borrowed names of all relations that currently exist, sorted. The
    /// allocation-light counterpart of [`Engine::relation_names`].
    pub fn relation_names_ref(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .exists
            .iter()
            .enumerate()
            .filter(|(_, &e)| e)
            .map(|(i, _)| self.interner.rels.resolve(i as u32))
            .collect();
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
    /// located heads are collected in the outbox (see [`Engine::take_outbox`]).
    pub fn run(&mut self) -> u64 {
        let before = self.stats.updates;
        loop {
            while let Some(delta) = self.pending.pop_front() {
                self.stats.external_deltas += 1;
                self.apply_delta(delta);
            }
            if self.unsettled.is_empty() {
                break;
            }
            let mut unsettled = std::mem::take(&mut self.unsettled);
            unsettled.sort_unstable();
            for rule_idx in unsettled.drain(..) {
                self.settle_rule(rule_idx);
            }
            self.unsettled = unsettled;
            if self.pending.is_empty() {
                break;
            }
        }
        self.flush_delta();
        self.stats.updates - before
    }

    /// Fold the dense per-run delta counters into the name-keyed summary.
    fn flush_delta(&mut self) {
        for &rel in &self.delta_touched {
            let iu = rel as usize;
            let entry = self
                .delta
                .changes
                .entry(self.interner.rels.resolve(rel).to_string())
                .or_default();
            entry.inserted += self.delta_ins[iu];
            entry.deleted += self.delta_del[iu];
            self.delta_ins[iu] = 0;
            self.delta_del[iu] = 0;
        }
        self.delta_touched.clear();
    }

    fn apply_delta(&mut self, delta: IDelta) {
        let iu = delta.rel as usize;
        self.exists[iu] = true;
        let adj = if delta.insert { 1 } else { -1 };
        let change = self.stores[iu].adjust(&delta.row, adj);
        let became_visible = match change {
            Some(v) => v,
            None => return, // multiplicity changed but visibility did not
        };
        self.stats.updates += 1;
        if self.delta_ins[iu] == 0 && self.delta_del[iu] == 0 {
            self.delta_touched.push(delta.rel);
        }
        if became_visible {
            self.delta_ins[iu] += 1;
        } else {
            self.delta_del[iu] += 1;
        }

        // `trigger` only changes in `add_rule`, so indexing it afresh each
        // turn stands in for cloning the list.
        for t in 0..self.trigger[iu].len() {
            let rule_idx = self.trigger[iu][t];
            if self.state[rule_idx].full_eval {
                self.mark_unsettled(rule_idx);
            } else {
                self.fire_plan(rule_idx, delta.rel, &delta.row, became_visible);
            }
        }
    }

    /// Queue a rule for [`Engine::settle_rule`] at the end of this drain.
    fn mark_unsettled(&mut self, rule_idx: usize) {
        let state = &mut self.state[rule_idx];
        if !state.unsettled {
            state.unsettled = true;
            self.unsettled.push(rule_idx);
        }
    }

    /// Fire a rule's pinned plan for one delta row. A plain head emits each
    /// derivation as a head-row change; an aggregate head folds it, signed,
    /// into its group table and leaves the emitting to `settle_rule`.
    fn fire_plan(&mut self, rule_idx: usize, rel: u32, row: &IRow, insert: bool) {
        let plan = &self.plans[rule_idx];
        let Some((_, ops)) = plan.pinned.iter().find(|(r, _)| *r == rel) else {
            return;
        };
        let mut exec = std::mem::take(&mut self.scratch.exec);
        let results = plan::execute(ops, plan.n_slots, Some(row), &mut self.stores, &mut exec);
        self.stats.derivations += (results.len() / plan.n_slots) as u64;
        if let Some(groups) = &mut self.state[rule_idx].groups {
            let sign = if insert { 1 } else { -1 };
            for chunk in results.chunks(plan.n_slots) {
                groups.fold(chunk, sign);
            }
            if !results.is_empty() {
                self.mark_unsettled(rule_idx);
            }
        } else {
            let mut rows = std::mem::take(&mut self.scratch.ins);
            rows.extend(
                results
                    .chunks(plan.n_slots)
                    .filter_map(|chunk| build_head_row(&plan.head, chunk)),
            );
            for out in rows.drain(..) {
                self.emit(rule_idx, out, insert);
            }
            self.scratch.ins = rows;
        }
        self.scratch.exec = exec;
    }

    /// End-of-drain work of one rule: re-evaluate it in full if that is how
    /// it is maintained, then emit the head rows that changed — deletions
    /// first, each list in `cmp_public` order.
    fn settle_rule(&mut self, rule_idx: usize) {
        let mut dels = std::mem::take(&mut self.scratch.dels);
        let mut ins = std::mem::take(&mut self.scratch.ins);
        let plan = &self.plans[rule_idx];
        let state = &mut self.state[rule_idx];
        let strs = &self.interner.strs;
        state.unsettled = false;
        if state.full_eval {
            self.stats.aggregate_recomputes += 1;
            let mut exec = std::mem::take(&mut self.scratch.exec);
            let results =
                plan::execute(&plan.full, plan.n_slots, None, &mut self.stores, &mut exec);
            self.stats.derivations += (results.len() / plan.n_slots) as u64;
            if let Some(groups) = &mut state.groups {
                groups.reset();
                for chunk in results.chunks(plan.n_slots) {
                    groups.fold(chunk, 1);
                }
                // A seeded table is maintained by delta from here on.
                state.full_eval = plan.recompute;
            } else {
                let mut new_output: Vec<IRow> = results
                    .chunks(plan.n_slots)
                    .filter_map(|chunk| build_head_row(&plan.head, chunk))
                    .collect();
                new_output.sort_by(|a, b| a.cmp_public(b, strs));
                new_output.dedup();
                diff_sorted(&state.prev_output, &new_output, strs, &mut dels, &mut ins);
                state.prev_output = new_output;
            }
            self.scratch.exec = exec;
        }
        if let Some(groups) = &mut state.groups {
            groups.finalize(strs, &mut dels, &mut ins);
            dels.sort_by(|a, b| a.cmp_public(b, strs));
            ins.sort_by(|a, b| a.cmp_public(b, strs));
        }
        for t in dels.drain(..) {
            self.emit(rule_idx, t, false);
        }
        for t in ins.drain(..) {
            self.emit(rule_idx, t, true);
        }
        self.scratch.dels = dels;
        self.scratch.ins = ins;
    }

    /// Apply a head-row change: local insert/delete, or remote send when
    /// the head is located at another node.
    fn emit(&mut self, rule_idx: usize, row: IRow, insert: bool) {
        let head: &HeadPlan = &self.plans[rule_idx].head;
        if head.located {
            if let Some(IVal::Addr(dest)) = row.as_slice().first() {
                if *dest != self.node.0 {
                    self.stats.remote_sends += 1;
                    self.outbox.push(RemoteTuple {
                        dest: NodeId(*dest),
                        relation: self.interner.rels.resolve(head.rel).to_string(),
                        tuple: row.to_tuple(&self.interner.strs),
                        insert,
                    });
                    return;
                }
            }
        }
        let rel = head.rel;
        self.pending.push_back(IDelta { rel, row, insert });
    }
}

/// Rows of `prev` missing from `new` go to `dels`, rows of `new` missing
/// from `prev` to `ins`. Both inputs are sorted and deduplicated under
/// `cmp_public`, so the diff is a single merge walk — no hash sets, no
/// per-row rehashing.
fn diff_sorted(
    prev: &[IRow],
    new: &[IRow],
    strs: &SymbolTable,
    dels: &mut Vec<IRow>,
    ins: &mut Vec<IRow>,
) {
    let (mut i, mut j) = (0, 0);
    while i < prev.len() && j < new.len() {
        match prev[i].cmp_public(&new[j], strs) {
            std::cmp::Ordering::Less => {
                dels.push(prev[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                ins.push(new[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    dels.extend_from_slice(&prev[i..]);
    ins.extend_from_slice(&new[j..]);
}

/// Instantiate a simple (non-aggregate) head row; `None` when a head
/// variable is unbound, which drops the derivation.
fn build_head_row(head: &HeadPlan, chunk: &[IVal]) -> Option<IRow> {
    let mut vals = Vec::with_capacity(head.cols.len());
    for col in &head.cols {
        match col {
            HeadCol::Const(v) => vals.push(*v),
            HeadCol::Slot(s) => vals.push(chunk[*s as usize]),
            HeadCol::Unbound => return None,
            HeadCol::Agg(_, _) | HeadCol::AggUnbound => {
                unreachable!("aggregate heads go through their group table")
            }
        }
    }
    Some(IRow::from_vals(&vals))
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Expr, Op, Term};
    use crate::rule::{AggFunc, Atom, BodyItem, Head, HeadArg};
    use crate::schema::SchemaError;
    use crate::value::Value;

    fn int_tuple(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn engine() -> Engine {
        Engine::new(NodeId(0))
    }

    /// path(X,Y) <- link(X,Y);  path(X,Z) <- link(X,Y), path(Y,Z)
    fn transitive_closure_rules() -> Vec<Rule> {
        vec![
            Rule::new(
                "r1",
                Head::simple("path", vec![Term::var("X"), Term::var("Y")]),
                vec![BodyItem::Atom(Atom::new(
                    "link",
                    vec![Term::var("X"), Term::var("Y")],
                ))],
            ),
            Rule::new(
                "r2",
                Head::simple("path", vec![Term::var("X"), Term::var("Z")]),
                vec![
                    BodyItem::Atom(Atom::new("link", vec![Term::var("X"), Term::var("Y")])),
                    BodyItem::Atom(Atom::new("path", vec![Term::var("Y"), Term::var("Z")])),
                ],
            ),
        ]
    }

    #[test]
    fn transitive_closure_incremental_insert() {
        let mut e = engine();
        e.add_rules(transitive_closure_rules());
        e.insert("link", int_tuple(&[1, 2]));
        e.insert("link", int_tuple(&[2, 3]));
        e.run();
        assert!(e.contains("path", &int_tuple(&[1, 2])));
        assert!(e.contains("path", &int_tuple(&[2, 3])));
        assert!(e.contains("path", &int_tuple(&[1, 3])));
        // now extend the chain
        e.insert("link", int_tuple(&[3, 4]));
        e.run();
        assert!(e.contains("path", &int_tuple(&[1, 4])));
        assert!(e.contains("path", &int_tuple(&[2, 4])));
    }

    #[test]
    fn transitive_closure_incremental_delete() {
        let mut e = engine();
        e.add_rules(transitive_closure_rules());
        for l in [[1, 2], [2, 3], [3, 4]] {
            e.insert("link", int_tuple(&l));
        }
        e.run();
        assert!(e.contains("path", &int_tuple(&[1, 4])));
        e.delete("link", int_tuple(&[2, 3]));
        e.run();
        assert!(e.contains("path", &int_tuple(&[1, 2])));
        assert!(e.contains("path", &int_tuple(&[3, 4])));
        assert!(!e.contains("path", &int_tuple(&[1, 3])));
        assert!(!e.contains("path", &int_tuple(&[1, 4])));
        assert!(!e.contains("path", &int_tuple(&[2, 4])));
    }

    #[test]
    fn filters_and_assignments() {
        // big(X, Y2) <- item(X, Y), Y > 10, Y2 := Y * 2
        let mut e = engine();
        e.add_rule(Rule::new(
            "r1",
            Head::simple("big", vec![Term::var("X"), Term::var("Y2")]),
            vec![
                BodyItem::Atom(Atom::new("item", vec![Term::var("X"), Term::var("Y")])),
                BodyItem::Filter(Expr::bin(Op::Gt, Expr::var("Y"), Expr::int(10))),
                BodyItem::Assign(
                    "Y2".into(),
                    Expr::bin(Op::Mul, Expr::var("Y"), Expr::int(2)),
                ),
            ],
        ));
        e.insert("item", int_tuple(&[1, 5]));
        e.insert("item", int_tuple(&[2, 20]));
        e.run();
        assert_eq!(e.relation_len("big"), 1);
        assert!(e.contains("big", &int_tuple(&[2, 40])));
    }

    /// Integer arithmetic that leaves `i64` drops the derivation, like a
    /// division by zero, instead of panicking or wrapping; in-range rows of
    /// the same rules still derive.
    #[test]
    fn overflowing_arithmetic_drops_the_derivation() {
        // out(Op, X, Y) <- num(X), Y := expr
        let rule = |op: &str, expr: Expr| {
            Rule::new(
                op,
                Head::simple(
                    "out",
                    vec![Term::Const(op.into()), Term::var("X"), Term::var("Y")],
                ),
                vec![
                    BodyItem::Atom(Atom::new("num", vec![Term::var("X")])),
                    BodyItem::Assign("Y".into(), expr),
                ],
            )
        };
        let x = || Box::new(Expr::var("X"));
        let mut e = engine();
        e.add_rules([
            rule("mul", Expr::bin(Op::Mul, Expr::var("X"), Expr::int(2))),
            rule("div", Expr::bin(Op::Div, Expr::var("X"), Expr::int(-1))),
            rule("neg", Expr::Neg(x())),
            rule("abs", Expr::Abs(x())),
        ]);
        for v in [i64::MAX, i64::MIN, -3] {
            e.insert("num", int_tuple(&[v]));
        }
        e.run();
        let row = |op: &str, x: i64, y: i64| vec![op.into(), Value::Int(x), Value::Int(y)];
        let mut expected = vec![
            row("abs", -3, 3),
            row("abs", i64::MAX, i64::MAX),
            row("div", -3, 3),
            row("div", i64::MAX, -i64::MAX),
            row("mul", -3, -6),
            row("neg", -3, 3),
            row("neg", i64::MAX, -i64::MAX),
        ];
        expected.sort();
        assert_eq!(e.tuples("out"), expected);
    }

    /// hostCpu(H, SUM<C>) <- assign(V, H, C)
    fn host_cpu_rule() -> Rule {
        Rule::new(
            "d1",
            Head {
                relation: "hostCpu".into(),
                args: vec![
                    HeadArg::Term(Term::var("H")),
                    HeadArg::Agg(AggFunc::Sum, "C".into()),
                ],
                located: false,
            },
            vec![BodyItem::Atom(Atom::new(
                "assign",
                vec![Term::var("V"), Term::var("H"), Term::var("C")],
            ))],
        )
    }

    #[test]
    fn aggregate_sum_maintained_incrementally() {
        let mut e = engine();
        e.add_rule(host_cpu_rule());
        e.insert("assign", int_tuple(&[1, 10, 30]));
        e.insert("assign", int_tuple(&[2, 10, 20]));
        e.insert("assign", int_tuple(&[3, 11, 40]));
        e.run();
        assert!(e.contains("hostCpu", &int_tuple(&[10, 50])));
        assert!(e.contains("hostCpu", &int_tuple(&[11, 40])));
        // deletion updates the aggregate
        e.delete("assign", int_tuple(&[2, 10, 20]));
        e.run();
        assert!(e.contains("hostCpu", &int_tuple(&[10, 30])));
        assert!(!e.contains("hostCpu", &int_tuple(&[10, 50])));
        assert_eq!(e.relation_len("hostCpu"), 2);
    }

    #[test]
    fn aggregate_delta_costs_its_derivations_not_the_relation() {
        let mut e = engine();
        e.add_rule(host_cpu_rule());
        e.insert_all("assign", (0..10_000).map(|v| int_tuple(&[v, v % 100, 1])));
        e.run();
        assert_eq!(e.relation_len("hostCpu"), 100);
        assert!(e.contains("hostCpu", &int_tuple(&[7, 100])));
        let before = e.stats().clone();
        // move one row from host 7 to host 8
        e.delete("assign", int_tuple(&[7, 7, 1]));
        e.insert("assign", int_tuple(&[7, 8, 1]));
        e.run();
        assert!(e.contains("hostCpu", &int_tuple(&[7, 99])));
        assert!(e.contains("hostCpu", &int_tuple(&[8, 101])));
        assert_eq!(e.stats().derivations - before.derivations, 2);
        assert_eq!(e.stats().aggregate_recomputes, 0);
    }

    #[test]
    fn aggregate_ignores_multiplicity_only_changes() {
        let mut e = engine();
        e.add_rule(host_cpu_rule());
        e.insert("assign", int_tuple(&[1, 10, 30]));
        e.run();
        e.take_delta_summary();
        let before = e.stats().clone();
        // a second copy of a visible row, then its removal
        e.insert("assign", int_tuple(&[1, 10, 30]));
        assert_eq!(e.run(), 0);
        e.delete("assign", int_tuple(&[1, 10, 30]));
        assert_eq!(e.run(), 0);
        assert!(e.delta_summary().is_empty());
        assert_eq!(e.stats().derivations, before.derivations);
        assert_eq!(e.tuples("hostCpu"), vec![int_tuple(&[10, 30])]);
    }

    #[test]
    fn aggregate_back_at_its_old_value_emits_nothing() {
        let mut e = engine();
        e.add_rule(host_cpu_rule());
        e.insert("assign", int_tuple(&[1, 10, 30]));
        e.insert("assign", int_tuple(&[2, 10, 20]));
        e.insert("assign", int_tuple(&[3, 11, 40]));
        e.run();
        e.take_delta_summary();
        // host 10 swaps one row for an equal one; host 11 empties and
        // refills: both sums end the run where they began it
        e.delete("assign", int_tuple(&[2, 10, 20]));
        e.insert("assign", int_tuple(&[4, 10, 20]));
        e.delete("assign", int_tuple(&[3, 11, 40]));
        e.insert("assign", int_tuple(&[5, 11, 40]));
        e.run();
        let delta = e.take_delta_summary();
        assert_eq!(delta.changes["assign"].total(), 4);
        assert!(delta.is_clean("hostCpu"));
        assert_eq!(
            e.tuples("hostCpu"),
            vec![int_tuple(&[10, 50]), int_tuple(&[11, 40])]
        );
    }

    #[test]
    fn aggregate_bulk_insert_emits_one_row_per_group() {
        let mut e = engine();
        e.add_rule(host_cpu_rule());
        e.insert_all("assign", (0..500).map(|v| int_tuple(&[v, 10, 2])));
        e.run();
        let delta = e.take_delta_summary();
        assert_eq!(delta.changes["assign"].inserted, 500);
        assert_eq!(delta.changes["hostCpu"].inserted, 1);
        assert_eq!(delta.changes["hostCpu"].deleted, 0);
        assert_eq!(e.tuples("hostCpu"), vec![int_tuple(&[10, 1000])]);
    }

    #[test]
    fn aggregate_rule_installed_after_facts_is_seeded_from_them() {
        let mut e = engine();
        e.insert("assign", int_tuple(&[1, 10, 30]));
        e.insert("assign", int_tuple(&[2, 10, 20]));
        e.run();
        e.add_rule(host_cpu_rule());
        // the first change to a body relation evaluates the rule over the
        // facts that were already there, once
        e.insert("assign", int_tuple(&[3, 11, 40]));
        e.run();
        assert_eq!(
            e.tuples("hostCpu"),
            vec![int_tuple(&[10, 50]), int_tuple(&[11, 40])]
        );
        assert_eq!(e.stats().aggregate_recomputes, 1);
        // from then on the groups are kept by delta
        e.delete("assign", int_tuple(&[1, 10, 30]));
        e.run();
        assert!(e.contains("hostCpu", &int_tuple(&[10, 20])));
        assert_eq!(e.stats().aggregate_recomputes, 1);
    }

    #[test]
    fn aggregate_feeding_another_rule() {
        // count(C) <- x(V);  alarm(C) <- count(C), C >= 2
        let mut e = engine();
        e.add_rule(Rule::new(
            "d1",
            Head {
                relation: "count".into(),
                args: vec![HeadArg::Agg(AggFunc::Count, "V".into())],
                located: false,
            },
            vec![BodyItem::Atom(Atom::new("x", vec![Term::var("V")]))],
        ));
        e.add_rule(Rule::new(
            "r1",
            Head::simple("alarm", vec![Term::var("C")]),
            vec![
                BodyItem::Atom(Atom::new("count", vec![Term::var("C")])),
                BodyItem::Filter(Expr::bin(Op::Ge, Expr::var("C"), Expr::int(2))),
            ],
        ));
        e.insert("x", int_tuple(&[1]));
        e.run();
        assert_eq!(e.relation_len("alarm"), 0);
        e.insert("x", int_tuple(&[2]));
        e.run();
        assert!(e.contains("alarm", &int_tuple(&[2])));
        e.delete("x", int_tuple(&[1]));
        e.run();
        assert_eq!(e.relation_len("alarm"), 0);
    }

    #[test]
    fn located_head_goes_to_outbox() {
        // ping(@Y, X) <- link(@X, Y)
        let mut e = engine();
        e.add_rule(Rule::new(
            "r1",
            Head {
                relation: "ping".into(),
                args: vec![HeadArg::Term(Term::var("Y")), HeadArg::Term(Term::var("X"))],
                located: true,
            },
            vec![BodyItem::Atom(Atom::located(
                "link",
                vec![Term::var("X"), Term::var("Y")],
            ))],
        ));
        e.insert("link", vec![Value::Addr(NodeId(0)), Value::Addr(NodeId(7))]);
        e.run();
        let out = e.take_outbox();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dest, NodeId(7));
        assert_eq!(out[0].relation, "ping");
        assert!(out[0].insert);
        assert!(out[0].wire_size() > 0);
        // nothing materialized locally
        assert_eq!(e.relation_len("ping"), 0);
        assert_eq!(e.stats().remote_sends, 1);
    }

    #[test]
    fn located_head_to_self_stays_local() {
        let mut e = engine();
        e.add_rule(Rule::new(
            "r1",
            Head {
                relation: "echo".into(),
                args: vec![HeadArg::Term(Term::var("X"))],
                located: true,
            },
            vec![BodyItem::Atom(Atom::located(
                "link",
                vec![Term::var("X"), Term::var("Y")],
            ))],
        ));
        e.insert("link", vec![Value::Addr(NodeId(0)), Value::Addr(NodeId(7))]);
        e.run();
        assert!(e.take_outbox().is_empty());
        assert!(e.contains("echo", &vec![Value::Addr(NodeId(0))]));
    }

    #[test]
    fn set_relation_diffs() {
        let mut e = engine();
        e.insert("vm", int_tuple(&[1, 50]));
        e.insert("vm", int_tuple(&[2, 60]));
        e.run();
        e.set_relation("vm", vec![int_tuple(&[2, 65]), int_tuple(&[3, 10])]);
        e.run();
        let tuples = e.tuples("vm");
        assert_eq!(tuples, vec![int_tuple(&[2, 65]), int_tuple(&[3, 10])]);
    }

    #[test]
    fn duplicate_inserts_do_not_double_derive() {
        let mut e = engine();
        e.add_rule(Rule::new(
            "r1",
            Head::simple("out", vec![Term::var("X")]),
            vec![BodyItem::Atom(Atom::new("in", vec![Term::var("X")]))],
        ));
        e.insert("in", int_tuple(&[1]));
        e.insert("in", int_tuple(&[1]));
        e.run();
        assert_eq!(e.relation_len("out"), 1);
        // removing one copy keeps the fact visible; removing both hides it
        e.delete("in", int_tuple(&[1]));
        e.run();
        assert!(e.contains("out", &int_tuple(&[1])));
        e.delete("in", int_tuple(&[1]));
        e.run();
        assert!(!e.contains("out", &int_tuple(&[1])));
    }

    #[test]
    fn stats_are_populated() {
        let mut e = engine();
        e.add_rules(transitive_closure_rules());
        e.insert("link", int_tuple(&[1, 2]));
        e.insert("link", int_tuple(&[2, 3]));
        e.run();
        let s = e.stats();
        assert!(s.external_deltas >= 2);
        assert!(s.derivations > 0);
        assert!(s.updates > 0);
    }

    #[test]
    fn delta_summary_tracks_visibility_changes() {
        let mut e = engine();
        e.add_rules(transitive_closure_rules());
        e.insert("link", int_tuple(&[1, 2]));
        e.insert("link", int_tuple(&[2, 3]));
        e.run();
        let delta = e.take_delta_summary();
        assert!(!delta.is_empty());
        assert_eq!(delta.changes["link"].inserted, 2);
        assert_eq!(delta.changes["link"].deleted, 0);
        // derived updates are part of the summary too
        assert_eq!(delta.changes["path"].inserted, 3);
        assert!(!delta.is_clean("link"));
        assert!(delta.is_clean("unrelated"));
        assert_eq!(delta.total_changes(), 5);
        assert_eq!(
            delta.dirty_relations().collect::<Vec<_>>(),
            vec!["link", "path"]
        );
        // the checkpoint resets the summary
        assert!(e.delta_summary().is_empty());
        // a deletion dirties both the base and the derived relation
        e.delete("link", int_tuple(&[2, 3]));
        e.run();
        let delta = e.take_delta_summary();
        assert_eq!(delta.changes["link"].deleted, 1);
        assert_eq!(delta.changes["path"].deleted, 2);
    }

    #[test]
    fn delta_summary_ignores_multiplicity_only_changes() {
        let mut e = engine();
        e.insert("in", int_tuple(&[1]));
        e.run();
        e.take_delta_summary();
        // duplicate insert: multiplicity 2, visibility unchanged
        e.insert("in", int_tuple(&[1]));
        e.run();
        assert!(e.delta_summary().is_empty());
        // one delete: multiplicity 1, still visible
        e.delete("in", int_tuple(&[1]));
        e.run();
        assert!(e.delta_summary().is_empty());
        // second delete: tuple disappears
        e.delete("in", int_tuple(&[1]));
        e.run();
        assert_eq!(e.delta_summary().changes["in"].deleted, 1);
    }

    #[test]
    fn set_relation_with_identical_contents_is_clean() {
        let mut e = engine();
        e.insert("vm", int_tuple(&[1, 50]));
        e.insert("vm", int_tuple(&[2, 60]));
        e.run();
        e.take_delta_summary();
        // a monitoring refresh with unchanged contents produces no deltas
        e.set_relation("vm", vec![int_tuple(&[1, 50]), int_tuple(&[2, 60])]);
        e.run();
        assert!(e.delta_summary().is_empty());
    }

    #[test]
    fn unknown_relation_inserts_are_counted_not_dropped() {
        let mut e = engine();
        e.add_rules(transitive_closure_rules());
        // "lnik" is a typo: no rule mentions it, no facts exist under it.
        e.insert("lnik", int_tuple(&[1, 2]));
        e.delete("lnik", int_tuple(&[1, 2]));
        assert_eq!(e.stats().unknown_relation_inserts, 2);
        // known relations (rule bodies/heads) do not count
        e.insert("link", int_tuple(&[1, 2]));
        e.insert("path", int_tuple(&[9, 9]));
        assert_eq!(e.stats().unknown_relation_inserts, 2);
        // legacy behavior preserved: the tuple was still queued
        e.run();
        assert!(e.contains("lnik", &int_tuple(&[1, 2])) || e.relation_len("lnik") == 0);
        assert_eq!(e.relation_len("link"), 1);
    }

    #[test]
    fn try_insert_rejects_unknown_relation_with_suggestion() {
        let mut e = engine();
        e.add_rules(transitive_closure_rules());
        let err = e.try_insert("lnik", int_tuple(&[1, 2])).unwrap_err();
        match err {
            IngestError::UnknownRelation {
                relation,
                suggestion,
            } => {
                assert_eq!(relation, "lnik");
                assert_eq!(suggestion.as_deref(), Some("link"));
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // nothing was queued
        e.run();
        assert_eq!(e.relation_len("lnik"), 0);
        assert_eq!(e.stats().unknown_relation_inserts, 0);
        // valid ingest goes through
        e.try_insert("link", int_tuple(&[1, 2])).unwrap();
        e.run();
        assert!(e.contains("path", &int_tuple(&[1, 2])));
        e.try_delete("link", int_tuple(&[1, 2])).unwrap();
        e.run();
        assert!(!e.contains("path", &int_tuple(&[1, 2])));
    }

    #[test]
    fn try_insert_enforces_schemas() {
        use crate::schema::{SchemaSet, TupleSchema};
        use crate::value::ValueKind;
        let mut e = engine();
        let mut schemas = SchemaSet::new();
        schemas.insert(TupleSchema::new(
            "link",
            vec![ValueKind::Addr, ValueKind::Addr],
        ));
        e.set_schemas(schemas);
        assert!(e.schemas().contains("link"));
        // wrong arity
        let err = e
            .try_insert("link", vec![Value::Addr(NodeId(0))])
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Schema(SchemaError::Arity { .. })
        ));
        // wrong kind
        let err = e
            .try_insert("link", vec![Value::Addr(NodeId(0)), Value::Int(1)])
            .unwrap_err();
        assert!(matches!(
            err,
            IngestError::Schema(SchemaError::Kind { position: 1, .. })
        ));
        // well-formed tuple accepted (schema also makes the relation known)
        e.try_insert("link", vec![Value::Addr(NodeId(0)), Value::Addr(NodeId(1))])
            .unwrap();
        e.run();
        assert_eq!(e.relation_len("link"), 1);
    }

    #[test]
    fn scan_and_relation_names_ref_borrow() {
        let mut e = engine();
        e.insert("b", int_tuple(&[2]));
        e.insert("a", int_tuple(&[1]));
        e.run();
        assert_eq!(e.relation_names_ref(), vec!["a", "b"]);
        let scanned: Vec<&Tuple> = e.scan("a").collect();
        assert_eq!(scanned, vec![&int_tuple(&[1])]);
        assert_eq!(e.scan("missing").count(), 0);
    }

    #[test]
    fn relation_names_sorted() {
        let mut e = engine();
        e.insert("b", int_tuple(&[1]));
        e.insert("a", int_tuple(&[1]));
        e.run();
        assert_eq!(e.relation_names(), vec!["a".to_string(), "b".to_string()]);
    }
}
