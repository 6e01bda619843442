//! Compiled rule plans: the form in which the engine evaluates a rule.
//!
//! [`crate::Engine::add_rule`] compiles each rule once into a [`RulePlan`]:
//! variable names become dense `u16` slots, atom arguments become per-column
//! [`ColAction`]s over interned rows, and expressions become [`PExpr`] trees
//! that read slots directly. Evaluation then never touches strings or
//! `Bindings`: a frontier is a flat `Vec<IVal>` of slot values, and each
//! body atom is resolved either by probing a lazily built bound-column hash
//! index or by scanning the relation's arena.
//!
//! ## Invariants
//!
//! * **Binding equivalence** — for every rule and database state, executing
//!   a plan yields exactly the multiset of variable bindings of evaluating
//!   the body left to right as written. Atom reordering is only applied
//!   when provably safe (see [`reorder_safe`]): every filter/assign must
//!   reference only variables bound by *earlier* items in the original
//!   order, and no assignment target may appear in an atom. Otherwise the
//!   plan preserves the original body order, so a forward reference reads
//!   a variable that is not bound yet: it compiles to [`PExpr::Unbound`],
//!   which fails every evaluation and so deadens the rule.
//! * **Static boundness** — whether a slot is bound at a given plan
//!   position is a compile-time fact (atoms and assignments bind their
//!   variables for *all* frontier rows), so the executor needs no runtime
//!   bound mask and unbound reads compile to `Unbound`/`HeadCol::Unbound`.
//! * **Failed evaluation drops the row** — [`PExpr::eval`] fails on
//!   symbolic values, unbound variables, type mismatches, division by zero
//!   and integer overflow. A failed filter drops the row, and so does a
//!   failed assignment.
//! * **Pinned firing** — `pinned[rel]` is the plan used by pipelined
//!   semi-naive delta firing, for simple and aggregate heads alike: the
//!   atom occurrence of `rel` matches only the delta row. Rules with pinned
//!   plans mention each body relation at most once (a repeat forces full
//!   re-evaluation), so the pin position is unique.

use crate::expr::{Expr, Op, Term};
use crate::intern::Interner;
use crate::rule::{AggFunc, Atom, BodyItem, HeadArg, Rule};
use crate::tuple::{hash_key, IRow, IVal, RelStore};
use std::collections::HashMap;

/// Source of one probe-key component.
#[derive(Debug, Clone)]
pub(crate) enum KeySrc {
    /// Take the value from a frontier slot.
    Slot(u16),
    /// A constant from the rule text.
    Const(IVal),
}

/// A bound-column probe: `cols` (ascending) identify the index, `srcs`
/// produce the key values in the same column order.
#[derive(Debug, Clone)]
pub(crate) struct ProbeKey {
    pub cols: Vec<u8>,
    pub srcs: Vec<KeySrc>,
}

/// What to do with one column of a candidate row.
#[derive(Debug, Clone)]
pub(crate) enum ColAction {
    /// Column must equal this constant.
    CheckConst(IVal),
    /// Column must equal the current slot value.
    CheckSlot(u16),
    /// Bind the slot to the column value.
    Bind(u16),
}

/// One step of a compiled body.
#[derive(Debug, Clone)]
pub(crate) enum PlanOp {
    /// Join against a stored relation, by index probe or arena scan.
    Match {
        rel: u32,
        arity: u8,
        probe: Option<ProbeKey>,
        actions: Vec<ColAction>,
    },
    /// Join against the pinned delta row only.
    Pinned { arity: u8, actions: Vec<ColAction> },
    /// Keep rows where the expression evaluates to true.
    Filter(PExpr),
    /// `slot := expr`; rows where evaluation fails are dropped.
    Assign { slot: u16, expr: PExpr },
}

/// A compiled expression reading frontier slots.
#[derive(Debug, Clone)]
pub(crate) enum PExpr {
    Const(IVal),
    /// A variable not bound at this plan position — always fails.
    Unbound,
    Slot(u16),
    Bin(Op, Box<PExpr>, Box<PExpr>),
    Abs(Box<PExpr>),
    Neg(Box<PExpr>),
    Not(Box<PExpr>),
}

impl PExpr {
    /// Evaluate against a frontier row. `Err(())` on a symbolic value, an
    /// unbound variable, a type mismatch, a zero divisor or an integer
    /// result outside `i64`.
    pub fn eval(&self, slots: &[IVal]) -> Result<IVal, ()> {
        match self {
            PExpr::Const(v) => {
                if matches!(v, IVal::Sym(_)) {
                    Err(())
                } else {
                    Ok(*v)
                }
            }
            PExpr::Unbound => Err(()),
            PExpr::Slot(s) => {
                let v = slots[*s as usize];
                if matches!(v, IVal::Sym(_)) {
                    Err(())
                } else {
                    Ok(v)
                }
            }
            PExpr::Neg(e) => match e.eval(slots)? {
                IVal::Int(i) => i.checked_neg().map(IVal::Int).ok_or(()),
                IVal::Float(bits) => Ok(fval(-f64::from_bits(bits))),
                _ => Err(()),
            },
            PExpr::Abs(e) => match e.eval(slots)? {
                IVal::Int(i) => i.checked_abs().map(IVal::Int).ok_or(()),
                IVal::Float(bits) => Ok(fval(f64::from_bits(bits).abs())),
                _ => Err(()),
            },
            PExpr::Not(e) => {
                let v = e.eval(slots)?;
                v.as_bool().map(|b| IVal::Bool(!b)).ok_or(())
            }
            PExpr::Bin(op, a, b) => {
                let va = a.eval(slots)?;
                let vb = b.eval(slots)?;
                eval_binop(*op, va, vb)
            }
        }
    }
}

/// Canonicalised float value (mirrors `Value::float` + `F64` hashing).
pub(crate) fn fval(x: f64) -> IVal {
    IVal::Float(crate::value::F64(x).canonical_bits())
}

/// A binary operator over interned values. Comparisons are numeric when
/// both sides are numbers, `==`/`!=` structural otherwise; arithmetic stays
/// in `i64` for two ints (checked) and goes to `f64` for any other numbers.
fn eval_binop(op: Op, a: IVal, b: IVal) -> Result<IVal, ()> {
    use Op::*;
    match op {
        And | Or => match (a.as_bool(), b.as_bool()) {
            (Some(x), Some(y)) => Ok(IVal::Bool(if op == And { x && y } else { x || y })),
            _ => Err(()),
        },
        Eq | Ne => {
            let equal = match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => x == y,
                _ => a == b,
            };
            Ok(IVal::Bool(if op == Eq { equal } else { !equal }))
        }
        Lt | Le | Gt | Ge => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => Ok(IVal::Bool(match op {
                Lt => x < y,
                Le => x <= y,
                Gt => x > y,
                _ => x >= y,
            })),
            _ => Err(()),
        },
        Add | Sub | Mul | Div => match (a, b) {
            (IVal::Int(x), IVal::Int(y)) => match op {
                Add => x.checked_add(y),
                Sub => x.checked_sub(y),
                Mul => x.checked_mul(y),
                // `None` for a zero divisor and for `i64::MIN / -1`
                _ => x.checked_div(y),
            }
            .map(IVal::Int)
            .ok_or(()),
            _ => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Ok(fval(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    _ => {
                        if y == 0.0 {
                            return Err(());
                        }
                        x / y
                    }
                })),
                _ => Err(()),
            },
        },
    }
}

/// One column of a compiled head.
#[derive(Debug, Clone)]
pub(crate) enum HeadCol {
    Const(IVal),
    Slot(u16),
    /// Head variable never bound by the body — instantiation fails.
    Unbound,
    /// Aggregate over a bound slot.
    Agg(AggFunc, u16),
    /// Aggregate over a never-bound variable — the row is skipped.
    AggUnbound,
}

/// The compiled head of a rule.
#[derive(Debug, Clone)]
pub(crate) struct HeadPlan {
    pub rel: u32,
    pub located: bool,
    pub cols: Vec<HeadCol>,
}

/// A fully compiled rule.
#[derive(Debug)]
pub(crate) struct RulePlan {
    /// Frontier stride (≥ 1 so `chunks` is always valid).
    pub n_slots: usize,
    pub head: HeadPlan,
    /// Full-evaluation plan (re-evaluation of `recompute` rules, seeding of
    /// a group table installed over existing facts).
    pub full: Vec<PlanOp>,
    /// Per-relation delta plans: `(rel, ops)` with the occurrence of `rel`
    /// compiled to [`PlanOp::Pinned`]. Empty for `recompute` rules.
    pub pinned: Vec<(u32, Vec<PlanOp>)>,
    /// Head carries aggregates.
    pub aggregate: bool,
    /// The body repeats a relation: one delta row can take part in several
    /// derivations of one head row, so the rule has no pinned plans and is
    /// re-evaluated in full whenever a body relation changes.
    pub recompute: bool,
}

/// Variable-name → slot map, first occurrence across atoms and assignment
/// targets in original body order.
fn slot_map(rule: &Rule) -> HashMap<String, u16> {
    let mut map = HashMap::new();
    let add = |name: &str, map: &mut HashMap<String, u16>| {
        if !map.contains_key(name) {
            map.insert(name.to_string(), map.len() as u16);
        }
    };
    for item in &rule.body {
        match item {
            BodyItem::Atom(a) => {
                for t in &a.args {
                    if let Term::Var(v) = t {
                        add(v, &mut map);
                    }
                }
            }
            BodyItem::Assign(v, _) => add(v, &mut map),
            BodyItem::Filter(_) => {}
        }
    }
    map
}

/// True when atom reordering provably preserves the written order's
/// bindings: every filter/assign reads only variables bound by earlier items
/// (no forward references, which deaden the rule), and no
/// assignment target appears in any atom (an atom could otherwise observe
/// the variable before or after the overwrite depending on order).
fn reorder_safe(rule: &Rule) -> bool {
    let mut atom_vars: Vec<String> = Vec::new();
    for item in &rule.body {
        if let BodyItem::Atom(a) = item {
            atom_vars.extend(a.variables());
        }
    }
    let mut bound: Vec<String> = Vec::new();
    for item in &rule.body {
        match item {
            BodyItem::Atom(a) => {
                for v in a.variables() {
                    if !bound.contains(&v) {
                        bound.push(v);
                    }
                }
            }
            BodyItem::Filter(e) => {
                if e.variables().iter().any(|v| !bound.contains(v)) {
                    return false;
                }
            }
            BodyItem::Assign(target, e) => {
                if e.variables().iter().any(|v| !bound.contains(v)) {
                    return false;
                }
                if atom_vars.contains(target) {
                    return false;
                }
                if !bound.contains(target) {
                    bound.push(target.clone());
                }
            }
        }
    }
    true
}

struct Compiler<'a> {
    slots: &'a HashMap<String, u16>,
    interner: &'a mut Interner,
}

impl Compiler<'_> {
    fn compile_expr(&mut self, expr: &Expr, bound: &[bool]) -> PExpr {
        match expr {
            Expr::Term(Term::Const(v)) => PExpr::Const(IVal::intern(v, &mut self.interner.strs)),
            Expr::Term(Term::Var(name)) => match self.slots.get(name) {
                Some(&s) if bound[s as usize] => PExpr::Slot(s),
                _ => PExpr::Unbound,
            },
            Expr::BinOp(op, a, b) => PExpr::Bin(
                *op,
                Box::new(self.compile_expr(a, bound)),
                Box::new(self.compile_expr(b, bound)),
            ),
            Expr::Abs(e) => PExpr::Abs(Box::new(self.compile_expr(e, bound))),
            Expr::Neg(e) => PExpr::Neg(Box::new(self.compile_expr(e, bound))),
            Expr::Not(e) => PExpr::Not(Box::new(self.compile_expr(e, bound))),
        }
    }

    /// Column actions (and probe-key parts) for one atom at the current
    /// bound state; marks the atom's fresh variables bound.
    fn compile_atom(
        &mut self,
        atom: &Atom,
        bound: &mut [bool],
    ) -> (Vec<ColAction>, Vec<(u8, KeySrc)>) {
        let bound_before = bound.to_vec();
        let mut actions = Vec::with_capacity(atom.args.len());
        let mut key = Vec::new();
        for (c, term) in atom.args.iter().enumerate() {
            match term {
                Term::Const(v) => {
                    let iv = IVal::intern(v, &mut self.interner.strs);
                    actions.push(ColAction::CheckConst(iv));
                    key.push((c as u8, KeySrc::Const(iv)));
                }
                Term::Var(name) => {
                    let s = self.slots[name];
                    if bound_before[s as usize] {
                        actions.push(ColAction::CheckSlot(s));
                        key.push((c as u8, KeySrc::Slot(s)));
                    } else if bound[s as usize] {
                        // repeated within this atom: value known only
                        // mid-row, so it checks but cannot key a probe
                        actions.push(ColAction::CheckSlot(s));
                    } else {
                        actions.push(ColAction::Bind(s));
                        bound[s as usize] = true;
                    }
                }
            }
        }
        (actions, key)
    }

    fn match_op(&mut self, atom: &Atom, rel: u32, bound: &mut [bool]) -> PlanOp {
        let (actions, key) = self.compile_atom(atom, bound);
        let probe = if key.is_empty() {
            None
        } else {
            PlanOp::probe_from(key)
        };
        PlanOp::Match {
            rel,
            arity: atom.args.len() as u8,
            probe,
            actions,
        }
    }

    /// Number of already-determined columns — the greedy join-order score.
    fn bound_cols(&self, atom: &Atom, bound: &[bool]) -> usize {
        atom.args
            .iter()
            .filter(|t| match t {
                Term::Const(_) => true,
                Term::Var(v) => bound[self.slots[v] as usize],
            })
            .count()
    }

    /// Compile the body with an optional pinned atom position. When
    /// `reorder` is false the original item order is preserved verbatim.
    fn schedule(
        &mut self,
        rule: &Rule,
        pin: Option<usize>,
        reorder: bool,
        n_slots: usize,
    ) -> Vec<PlanOp> {
        let mut bound = vec![false; n_slots];
        let mut ops = Vec::with_capacity(rule.body.len());
        if !reorder {
            for (idx, item) in rule.body.iter().enumerate() {
                match item {
                    BodyItem::Atom(atom) => {
                        if pin == Some(idx) {
                            let (actions, _) = self.compile_atom(atom, &mut bound);
                            ops.push(PlanOp::Pinned {
                                arity: atom.args.len() as u8,
                                actions,
                            });
                        } else {
                            let rel = self.interner.rels.intern(&atom.relation);
                            ops.push(self.match_op(atom, rel, &mut bound));
                        }
                    }
                    BodyItem::Filter(e) => {
                        let pe = self.compile_expr(e, &bound);
                        ops.push(PlanOp::Filter(pe));
                    }
                    BodyItem::Assign(v, e) => {
                        let pe = self.compile_expr(e, &bound);
                        let s = self.slots[v];
                        bound[s as usize] = true;
                        ops.push(PlanOp::Assign { slot: s, expr: pe });
                    }
                }
            }
            return ops;
        }

        // Reorderable body: pinned atom first, then repeatedly flush the
        // ready prefix of filters/assigns (their original relative order is
        // preserved) and pick the remaining atom with the most bound
        // columns (ties by original position).
        let mut atoms: Vec<(usize, &Atom)> = Vec::new();
        let mut others: Vec<(usize, &BodyItem)> = Vec::new();
        for (idx, item) in rule.body.iter().enumerate() {
            match item {
                BodyItem::Atom(a) if pin != Some(idx) => atoms.push((idx, a)),
                BodyItem::Atom(_) => {}
                other => others.push((idx, other)),
            }
        }
        if let Some(p) = pin {
            if let BodyItem::Atom(atom) = &rule.body[p] {
                let (actions, _) = self.compile_atom(atom, &mut bound);
                ops.push(PlanOp::Pinned {
                    arity: atom.args.len() as u8,
                    actions,
                });
            }
        }
        let mut next_other = 0usize;
        loop {
            // Flush every filter/assign whose variables are all bound.
            while next_other < others.len() {
                let (_, item) = others[next_other];
                let ready = match item {
                    BodyItem::Filter(e) | BodyItem::Assign(_, e) => e
                        .variables()
                        .iter()
                        .all(|v| self.slots.get(v).is_some_and(|&s| bound[s as usize])),
                    BodyItem::Atom(_) => unreachable!(),
                };
                if !ready {
                    break;
                }
                match item {
                    BodyItem::Filter(e) => {
                        let pe = self.compile_expr(e, &bound);
                        ops.push(PlanOp::Filter(pe));
                    }
                    BodyItem::Assign(v, e) => {
                        let pe = self.compile_expr(e, &bound);
                        let s = self.slots[v];
                        bound[s as usize] = true;
                        ops.push(PlanOp::Assign { slot: s, expr: pe });
                    }
                    BodyItem::Atom(_) => unreachable!(),
                }
                next_other += 1;
            }
            if atoms.is_empty() {
                break;
            }
            let best = atoms
                .iter()
                .enumerate()
                .max_by_key(|(_, (pos, a))| (self.bound_cols(a, &bound), usize::MAX - pos))
                .map(|(i, _)| i)
                .unwrap();
            let (_, atom) = atoms.remove(best);
            let rel = self.interner.rels.intern(&atom.relation);
            ops.push(self.match_op(atom, rel, &mut bound));
        }
        debug_assert_eq!(next_other, others.len(), "unschedulable filter/assign");
        ops
    }
}

impl PlanOp {
    /// Build a probe key from `(col, src)` parts (already in column order).
    fn probe_from(key: Vec<(u8, KeySrc)>) -> Option<ProbeKey> {
        let cols = key.iter().map(|(c, _)| *c).collect();
        let srcs = key.into_iter().map(|(_, s)| s).collect();
        Some(ProbeKey { cols, srcs })
    }
}

/// Compile a rule. `recompute` is the engine's full-re-evaluation
/// classification (the body repeats a relation); every other rule, aggregate
/// head or not, gets one pinned delta plan per body relation.
pub(crate) fn compile(rule: &Rule, recompute: bool, interner: &mut Interner) -> RulePlan {
    let slots = slot_map(rule);
    let n_slots = slots.len().max(1);
    let reorder = reorder_safe(rule);
    let head_rel = interner.rels.intern(&rule.head.relation);

    // Head columns read the final bound state.
    let mut final_bound = vec![false; n_slots];
    for item in &rule.body {
        match item {
            BodyItem::Atom(a) => {
                for v in a.variables() {
                    final_bound[slots[&v] as usize] = true;
                }
            }
            BodyItem::Assign(v, _) => final_bound[slots[v] as usize] = true,
            BodyItem::Filter(_) => {}
        }
    }
    let mut cols = Vec::with_capacity(rule.head.args.len());
    for arg in &rule.head.args {
        cols.push(match arg {
            HeadArg::Term(Term::Const(c)) => HeadCol::Const(IVal::intern(c, &mut interner.strs)),
            HeadArg::Term(Term::Var(v)) => match slots.get(v) {
                Some(&s) if final_bound[s as usize] => HeadCol::Slot(s),
                _ => HeadCol::Unbound,
            },
            HeadArg::Agg(f, v) => match slots.get(v) {
                Some(&s) if final_bound[s as usize] => HeadCol::Agg(*f, s),
                _ => HeadCol::AggUnbound,
            },
        });
    }
    let head = HeadPlan {
        rel: head_rel,
        located: rule.head.located,
        cols,
    };

    let mut c = Compiler {
        slots: &slots,
        interner,
    };
    let full = c.schedule(rule, None, reorder, n_slots);
    let mut pinned = Vec::new();
    if !recompute {
        // Pipelined firing pins the delta at the first (unique) occurrence
        // of each body relation.
        let mut seen: Vec<&str> = Vec::new();
        for (idx, item) in rule.body.iter().enumerate() {
            if let BodyItem::Atom(a) = item {
                if seen.contains(&a.relation.as_str()) {
                    continue;
                }
                seen.push(&a.relation);
                let ops = c.schedule(rule, Some(idx), reorder, n_slots);
                let rel = c.interner.rels.intern(&a.relation);
                pinned.push((rel, ops));
            }
        }
    }

    RulePlan {
        n_slots,
        head,
        full,
        pinned,
        aggregate: rule.is_aggregate(),
        recompute,
    }
}

/// Frontier buffers of [`execute`]. The engine owns one and hands it to
/// every firing, so the delta loop allocates nothing per tuple.
#[derive(Debug, Default)]
pub(crate) struct ExecBuf {
    index_ids: Vec<usize>,
    cur: Vec<IVal>,
    next: Vec<IVal>,
    scratch: Vec<IVal>,
}

/// Execute a plan: seeds a single all-dummy frontier row, applies every op,
/// and returns the surviving frontier rows (stride `n_slots`), which live in
/// `buf` until its next use.
///
/// `stores` is mutable only to let [`RelStore::ensure_index`] build missing
/// bound-column indexes before the read-only join pass; the firing itself
/// never changes relation contents (emissions go through the engine queue).
pub(crate) fn execute<'b>(
    ops: &[PlanOp],
    n_slots: usize,
    pinned_row: Option<&IRow>,
    stores: &mut [RelStore],
    buf: &'b mut ExecBuf,
) -> &'b [IVal] {
    let ExecBuf {
        index_ids,
        cur,
        next,
        scratch,
    } = buf;
    // Prepare pass: resolve (or build) the index behind every probe.
    index_ids.clear();
    index_ids.extend(ops.iter().map(|op| {
        match op {
            PlanOp::Match {
                rel,
                arity,
                probe: Some(pk),
                ..
            } => stores
                .get_mut(*rel as usize)
                .map(|s| s.ensure_index(*arity, &pk.cols))
                .unwrap_or(0),
            _ => 0,
        }
    }));

    cur.clear();
    cur.resize(n_slots, IVal::Int(0));
    scratch.clear();
    scratch.resize(n_slots, IVal::Int(0));

    for (op_idx, op) in ops.iter().enumerate() {
        if cur.is_empty() {
            break;
        }
        next.clear();
        match op {
            PlanOp::Pinned { arity, actions } => {
                if let Some(row) = pinned_row {
                    let vals = row.as_slice();
                    if vals.len() == *arity as usize {
                        for chunk in cur.chunks(n_slots) {
                            if apply_actions(chunk, vals, actions, scratch) {
                                next.extend_from_slice(scratch);
                            }
                        }
                    }
                }
            }
            PlanOp::Match {
                rel,
                arity,
                probe,
                actions,
            } => {
                let store = match stores.get(*rel as usize) {
                    Some(s) => s,
                    None => {
                        cur.clear();
                        break;
                    }
                };
                match probe {
                    Some(pk) => {
                        let ix = index_ids[op_idx];
                        for chunk in cur.chunks(n_slots) {
                            let key = hash_key(pk.srcs.iter().map(|s| match s {
                                KeySrc::Slot(slot) => chunk[*slot as usize],
                                KeySrc::Const(v) => *v,
                            }));
                            for &row_idx in store.probe(ix, key) {
                                let vals = store.row(row_idx).as_slice();
                                if apply_actions(chunk, vals, actions, scratch) {
                                    next.extend_from_slice(scratch);
                                }
                            }
                        }
                    }
                    None => {
                        for chunk in cur.chunks(n_slots) {
                            for row_idx in 0..store.num_rows() as u32 {
                                if !store.visible_at(row_idx) {
                                    continue;
                                }
                                let vals = store.row(row_idx).as_slice();
                                if vals.len() != *arity as usize {
                                    continue;
                                }
                                if apply_actions(chunk, vals, actions, scratch) {
                                    next.extend_from_slice(scratch);
                                }
                            }
                        }
                    }
                }
            }
            PlanOp::Filter(expr) => {
                for chunk in cur.chunks(n_slots) {
                    if expr.eval(chunk).ok().and_then(IVal::as_bool) == Some(true) {
                        next.extend_from_slice(chunk);
                    }
                }
            }
            PlanOp::Assign { slot, expr } => {
                for chunk in cur.chunks(n_slots) {
                    if let Ok(v) = expr.eval(chunk) {
                        scratch.copy_from_slice(chunk);
                        scratch[*slot as usize] = v;
                        next.extend_from_slice(scratch);
                    }
                }
            }
        }
        std::mem::swap(cur, next);
    }
    cur
}

/// Apply one atom's column actions to a candidate row. On success `scratch`
/// holds the extended frontier row.
#[inline]
fn apply_actions(
    chunk: &[IVal],
    row: &[IVal],
    actions: &[ColAction],
    scratch: &mut [IVal],
) -> bool {
    scratch.copy_from_slice(chunk);
    for (col, action) in actions.iter().enumerate() {
        let v = row[col];
        match action {
            ColAction::CheckConst(c) => {
                if v != *c {
                    return false;
                }
            }
            ColAction::CheckSlot(s) => {
                if scratch[*s as usize] != v {
                    return false;
                }
            }
            ColAction::Bind(s) => scratch[*s as usize] = v,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::rule::Head;

    fn tc_rule() -> Rule {
        Rule::new(
            "r2",
            Head::simple("path", vec![Term::var("X"), Term::var("Z")]),
            vec![
                BodyItem::Atom(Atom::new("link", vec![Term::var("X"), Term::var("Y")])),
                BodyItem::Atom(Atom::new("path", vec![Term::var("Y"), Term::var("Z")])),
            ],
        )
    }

    #[test]
    fn transitive_closure_compiles_with_probes() {
        let mut interner = Interner::default();
        let plan = compile(&tc_rule(), false, &mut interner);
        assert_eq!(plan.n_slots, 3);
        assert!(!plan.recompute);
        assert_eq!(plan.pinned.len(), 2);
        // Full plan: first atom scans (nothing bound), second probes on the
        // join column.
        match &plan.full[1] {
            PlanOp::Match {
                probe: Some(pk), ..
            } => assert_eq!(pk.cols, vec![0]),
            other => panic!("expected probing match, got {other:?}"),
        }
        // Pinned plans probe the other atom through the shared variable.
        for (_, ops) in &plan.pinned {
            assert!(matches!(ops[0], PlanOp::Pinned { .. }));
            match &ops[1] {
                PlanOp::Match {
                    probe: Some(pk), ..
                } => assert_eq!(pk.cols.len(), 1),
                other => panic!("expected probing match, got {other:?}"),
            }
        }
    }

    #[test]
    fn forward_reference_disables_reordering() {
        // Filter references Y before any atom binds it.
        let rule = Rule::new(
            "bad",
            Head::simple("out", vec![Term::var("X")]),
            vec![
                BodyItem::Filter(Expr::bin(Op::Gt, Expr::var("Y"), Expr::int(0))),
                BodyItem::Atom(Atom::new("a", vec![Term::var("X"), Term::var("Y")])),
            ],
        );
        assert!(!reorder_safe(&rule));
        let mut interner = Interner::default();
        let plan = compile(&rule, false, &mut interner);
        // Original order preserved: the filter compiles to an always-failing
        // expression, deadening the rule.
        match &plan.full[0] {
            PlanOp::Filter(PExpr::Bin(_, l, _)) => assert!(matches!(**l, PExpr::Unbound)),
            other => panic!("expected filter first, got {other:?}"),
        }
    }

    #[test]
    fn assign_target_in_atom_disables_reordering() {
        let rule = Rule::new(
            "r",
            Head::simple("out", vec![Term::var("X")]),
            vec![
                BodyItem::Atom(Atom::new("a", vec![Term::var("X")])),
                BodyItem::Assign("X".into(), Expr::int(1)),
            ],
        );
        assert!(!reorder_safe(&rule));
    }

    #[test]
    fn pexpr_matches_interpreter_semantics() {
        let slots = [IVal::Int(6), fval(1.5), IVal::Sym(0)];
        let mul = PExpr::Bin(
            Op::Mul,
            Box::new(PExpr::Slot(0)),
            Box::new(PExpr::Const(IVal::Int(2))),
        );
        assert_eq!(mul.eval(&slots), Ok(IVal::Int(12)));
        let mixed = PExpr::Bin(Op::Add, Box::new(PExpr::Slot(0)), Box::new(PExpr::Slot(1)));
        assert_eq!(mixed.eval(&slots), Ok(fval(7.5)));
        let div0 = PExpr::Bin(
            Op::Div,
            Box::new(PExpr::Slot(0)),
            Box::new(PExpr::Const(IVal::Int(0))),
        );
        assert_eq!(div0.eval(&slots), Err(()));
        assert_eq!(PExpr::Slot(2).eval(&slots), Err(())); // symbolic
        assert_eq!(PExpr::Unbound.eval(&slots), Err(()));
        // structural equality on non-numeric values
        let eq = PExpr::Bin(
            Op::Eq,
            Box::new(PExpr::Const(IVal::Str(3))),
            Box::new(PExpr::Const(IVal::Str(3))),
        );
        assert_eq!(eq.eval(&slots), Ok(IVal::Bool(true)));
    }
}
