//! Per-group state of one aggregate rule head.
//!
//! An aggregate rule is fired by delta like any other rule; each signed
//! derivation is folded into the state of its group (the head's
//! non-aggregate columns) instead of being emitted. After the pending queue
//! drains, [`GroupTable::finalize`] turns the groups touched since the last
//! drain back into head rows and reports the rows that changed. At every
//! drain the table therefore equals the grouping of the rule's full join,
//! as if it were recomputed from scratch, at a cost of O(delta derivations
//! plus the distinct values of the touched groups).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::intern::SymbolTable;
use crate::plan::{fval, HeadCol};
use crate::rule::AggFunc;
use crate::tuple::{IRow, IVal};

/// State of one aggregate column of one group.
#[derive(Debug, Default)]
struct AggState {
    /// Running total of the `Int`/`Bool` values of a `SUM`/`SUMABS`.
    acc: i64,
    /// Counted multiset of the values a running total cannot stand for:
    /// every value of `MIN`/`MAX`/`UNIQUE`/`STDEV`, the non-integer values
    /// of `SUM`/`SUMABS`. `COUNT` keeps nothing (it is the group's `n`).
    bag: HashMap<IVal, i64>,
}

impl AggState {
    fn fold(&mut self, func: AggFunc, v: IVal, sign: i64) {
        let int = match v {
            IVal::Int(i) => Some(i),
            IVal::Bool(b) => Some(i64::from(b)),
            _ => None,
        };
        match (func, int) {
            (AggFunc::Count, _) => {}
            (AggFunc::Sum, Some(i)) => self.acc = self.acc.wrapping_add(sign.wrapping_mul(i)),
            (AggFunc::SumAbs, Some(i)) => {
                self.acc = self.acc.wrapping_add(sign.wrapping_mul(i.wrapping_abs()))
            }
            _ => match self.bag.entry(v) {
                Entry::Occupied(mut e) => {
                    *e.get_mut() += sign;
                    if *e.get() == 0 {
                        e.remove();
                    }
                }
                Entry::Vacant(e) => {
                    debug_assert!(sign > 0, "retracted a value that was never folded");
                    e.insert(sign);
                }
            },
        }
    }

    /// The aggregate over the `n` derivations folded so far (`n > 0`), equal
    /// to [`AggFunc::compute`] over them. Float totals are taken over the
    /// distinct values in `cmp_public` order, so the result depends on the
    /// multiset alone, never on the history that built it.
    fn value(
        &self,
        func: AggFunc,
        n: i64,
        strs: &SymbolTable,
        sorted: &mut Vec<(IVal, i64)>,
    ) -> IVal {
        match func {
            AggFunc::Count => IVal::Int(n),
            AggFunc::Unique => IVal::Int(self.bag.len() as i64),
            AggFunc::Min => self.extreme(|a, b| a.cmp_public(b, strs)),
            AggFunc::Max => self.extreme(|a, b| b.cmp_public(a, strs)),
            AggFunc::Sum | AggFunc::SumAbs if self.bag.is_empty() => IVal::Int(self.acc),
            AggFunc::Sum | AggFunc::SumAbs | AggFunc::Stdev => {
                sorted.clear();
                sorted.extend(self.bag.iter().map(|(v, c)| (*v, *c)));
                sorted.sort_by(|a, b| a.0.cmp_public(b.0, strs));
                // (value, multiplicity), non-numeric values counting as 0
                let terms = || {
                    sorted
                        .iter()
                        .map(|(v, c)| (v.as_f64().unwrap_or(0.0), *c as f64))
                };
                fval(match func {
                    AggFunc::Stdev => {
                        let n = n as f64;
                        let mean = terms().map(|(x, c)| x * c).sum::<f64>() / n;
                        let var = terms().map(|(x, c)| (x - mean) * (x - mean) * c);
                        (var.sum::<f64>() / n).sqrt()
                    }
                    AggFunc::SumAbs => {
                        self.acc as f64 + terms().map(|(x, c)| x.abs() * c).sum::<f64>()
                    }
                    _ => self.acc as f64 + terms().map(|(x, c)| x * c).sum::<f64>(),
                })
            }
        }
    }

    /// The least value of the bag under `cmp`.
    fn extreme(&self, cmp: impl Fn(IVal, IVal) -> std::cmp::Ordering) -> IVal {
        self.bag
            .keys()
            .copied()
            .min_by(|a, b| cmp(*a, *b))
            .unwrap_or(IVal::Int(0))
    }
}

#[derive(Debug)]
struct Group {
    /// Live derivations of the group; the group dies when it reaches 0.
    n: i64,
    aggs: Box<[AggState]>,
    /// The head row last emitted for the group, if any.
    emitted: Option<IRow>,
    /// Touched since the last [`GroupTable::finalize`] (listed in `dirty`).
    dirty: bool,
}

/// Group key → state, for one aggregate rule.
#[derive(Debug)]
pub(crate) struct GroupTable {
    /// The compiled head columns (key and aggregate positions).
    cols: Vec<HeadCol>,
    n_aggs: usize,
    groups: HashMap<IRow, Group>,
    /// Keys of the groups touched since the last finalize.
    dirty: Vec<IRow>,
    /// Scratch: key or head row under construction.
    vals: Vec<IVal>,
    /// Scratch of [`AggState::value`].
    sorted: Vec<(IVal, i64)>,
}

impl GroupTable {
    pub fn new(cols: &[HeadCol]) -> Self {
        GroupTable {
            cols: cols.to_vec(),
            n_aggs: cols
                .iter()
                .filter(|c| matches!(c, HeadCol::Agg(_, _)))
                .count(),
            groups: HashMap::new(),
            dirty: Vec::new(),
            vals: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// Fold one derivation (a frontier row of the rule's plan) into its
    /// group: `sign` is +1 when the derivation appeared, -1 when it went.
    /// Derivations that leave a head variable unbound are dropped, like a
    /// failed instantiation of a plain head.
    pub fn fold(&mut self, chunk: &[IVal], sign: i64) {
        self.vals.clear();
        for col in &self.cols {
            match col {
                HeadCol::Const(v) => self.vals.push(*v),
                HeadCol::Slot(s) => self.vals.push(chunk[*s as usize]),
                HeadCol::Agg(_, _) => {}
                HeadCol::Unbound | HeadCol::AggUnbound => return,
            }
        }
        let group = match self.groups.entry(IRow::from_vals(&self.vals)) {
            Entry::Occupied(e) => {
                if !e.get().dirty {
                    self.dirty.push(e.key().clone());
                }
                e.into_mut()
            }
            Entry::Vacant(e) => {
                self.dirty.push(e.key().clone());
                e.insert(Group {
                    n: 0,
                    aggs: (0..self.n_aggs).map(|_| AggState::default()).collect(),
                    emitted: None,
                    dirty: true,
                })
            }
        };
        group.dirty = true;
        group.n += sign;
        let aggs = self.cols.iter().filter_map(|c| match c {
            HeadCol::Agg(func, s) => Some((*func, chunk[*s as usize])),
            _ => None,
        });
        for (state, (func, v)) in group.aggs.iter_mut().zip(aggs) {
            state.fold(func, v, sign);
        }
    }

    /// Forget every derivation but keep what each group last emitted, ahead
    /// of a full re-evaluation that folds the whole join back in.
    pub fn reset(&mut self) {
        for (key, group) in &mut self.groups {
            group.n = 0;
            for state in group.aggs.iter_mut() {
                state.acc = 0;
                state.bag.clear();
            }
            if !group.dirty {
                group.dirty = true;
                self.dirty.push(key.clone());
            }
        }
    }

    /// Bring the groups touched since the last call up to date: a group
    /// whose head row differs from the one it last emitted appends the old
    /// row to `dels` and the new one to `ins`; a group left without
    /// derivations only retracts, and is dropped.
    pub fn finalize(&mut self, strs: &SymbolTable, dels: &mut Vec<IRow>, ins: &mut Vec<IRow>) {
        for key in self.dirty.drain(..) {
            let group = self
                .groups
                .get_mut(&key)
                .expect("dirty keys name live groups");
            group.dirty = false;
            debug_assert!(group.n >= 0, "more retractions than derivations");
            let row = (group.n > 0).then(|| {
                let mut key_vals = key.as_slice().iter();
                let mut states = group.aggs.iter();
                self.vals.clear();
                for col in &self.cols {
                    self.vals.push(match col {
                        HeadCol::Agg(func, _) => states
                            .next()
                            .expect("one state per aggregate column")
                            .value(*func, group.n, strs, &mut self.sorted),
                        _ => *key_vals.next().expect("one key value per plain column"),
                    });
                }
                IRow::from_vals(&self.vals)
            });
            if row != group.emitted {
                dels.extend(group.emitted.take());
                ins.extend(row.clone());
                group.emitted = row;
            }
            if group.n <= 0 {
                self.groups.remove(&key);
            }
        }
    }
}
