//! Tuples and materialized relations.
//!
//! Relations use *counting* multiplicity (a tuple is visible while its
//! derivation count is positive). This is the standard mechanism behind
//! incremental view maintenance in declarative networking engines such as
//! RapidNet (Sec. 5.1 of the paper): when body predicates change, head
//! tuples are inserted or deleted by adjusting counts rather than
//! recomputing rules from scratch.
//!
//! The production engine evaluates against `RelStore` (crate-internal), an
//! indexed arena: rows are flat arrays of copyable `IVal` words, distinct
//! rows live once in an arena keyed by hash, the visible-row count is
//! maintained incrementally (O(1) `relation_len`), and secondary hash
//! indexes over bound-column sets are built lazily on first probe and
//! maintained on every visibility transition.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::intern::SymbolTable;
use crate::value::{NodeId, SymId, Value, F64};

/// A tuple: an ordered list of attribute values belonging to some relation.
pub type Tuple = Vec<Value>;

// ---------------------------------------------------------------------------
// Interned representation (engine-internal)
// ---------------------------------------------------------------------------

/// An interned attribute value: a copyable word pair (tag + payload).
///
/// The internal mirror of [`Value`]: strings are [`StrId`]s into the
/// engine's interner and floats are stored by their canonical bit pattern
/// (NaN normalised, `-0.0` folded into `+0.0`), so `==`/`Hash` on `IVal`
/// agree exactly with `==`/`Hash` on the corresponding [`Value`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum IVal {
    Int(i64),
    /// Canonical bits of an [`F64`].
    Float(u64),
    Str(u32),
    Addr(u32),
    Bool(bool),
    Sym(u32),
}

impl IVal {
    /// Intern a public value (allocates a [`StrId`] for unseen strings).
    pub fn intern(v: &Value, strs: &mut SymbolTable) -> IVal {
        match v {
            Value::Int(i) => IVal::Int(*i),
            Value::Float(f) => IVal::Float(f.canonical_bits()),
            Value::Str(s) => IVal::Str(strs.intern(s)),
            Value::Addr(NodeId(n)) => IVal::Addr(*n),
            Value::Bool(b) => IVal::Bool(*b),
            Value::Sym(SymId(s)) => IVal::Sym(*s),
        }
    }

    /// Read-only lookup: `None` when the value is a string the engine has
    /// never interned — such a value cannot occur in any stored row.
    pub fn lookup(v: &Value, strs: &SymbolTable) -> Option<IVal> {
        match v {
            Value::Str(s) => strs.lookup(s).map(IVal::Str),
            other => {
                let mut unused = SymbolTable::default();
                // Non-string values never touch the table.
                Some(IVal::intern(other, &mut unused))
            }
        }
    }

    /// Convert back to the public representation.
    pub fn to_value(self, strs: &SymbolTable) -> Value {
        match self {
            IVal::Int(i) => Value::Int(i),
            IVal::Float(bits) => Value::Float(F64(f64::from_bits(bits))),
            IVal::Str(id) => Value::Str(strs.resolve(id).to_string()),
            IVal::Addr(n) => Value::Addr(NodeId(n)),
            IVal::Bool(b) => Value::Bool(b),
            IVal::Sym(s) => Value::Sym(SymId(s)),
        }
    }

    /// Numeric view, mirroring [`Value::as_f64`].
    pub fn as_f64(self) -> Option<f64> {
        match self {
            IVal::Int(i) => Some(i as f64),
            IVal::Float(bits) => Some(f64::from_bits(bits)),
            IVal::Bool(b) => Some(f64::from(u8::from(b))),
            _ => None,
        }
    }

    /// Boolean view, mirroring [`Value::as_bool`].
    pub fn as_bool(self) -> Option<bool> {
        match self {
            IVal::Bool(b) => Some(b),
            IVal::Int(i) => Some(i != 0),
            _ => None,
        }
    }

    /// Variant rank matching the derived [`Ord`] on [`Value`].
    fn rank(self) -> u8 {
        match self {
            IVal::Int(_) => 0,
            IVal::Float(_) => 1,
            IVal::Str(_) => 2,
            IVal::Addr(_) => 3,
            IVal::Bool(_) => 4,
            IVal::Sym(_) => 5,
        }
    }

    /// Total order identical to the public [`Value`] order (strings compare
    /// lexicographically through the interner, floats by `total_cmp`).
    pub fn cmp_public(self, other: IVal, strs: &SymbolTable) -> std::cmp::Ordering {
        match (self, other) {
            (IVal::Int(a), IVal::Int(b)) => a.cmp(&b),
            (IVal::Float(a), IVal::Float(b)) => f64::from_bits(a).total_cmp(&f64::from_bits(b)),
            (IVal::Str(a), IVal::Str(b)) => strs.resolve(a).cmp(strs.resolve(b)),
            (IVal::Addr(a), IVal::Addr(b)) => a.cmp(&b),
            (IVal::Bool(a), IVal::Bool(b)) => a.cmp(&b),
            (IVal::Sym(a), IVal::Sym(b)) => a.cmp(&b),
            (a, b) => {
                debug_assert_ne!(a.rank(), b.rank());
                a.rank().cmp(&b.rank())
            }
        }
    }
}

/// Columns stored inline before a row spills to the heap.
const INLINE_COLS: usize = 4;

/// A stored row: a flat array of [`IVal`] words, inline up to
/// [`INLINE_COLS`] columns (covers every relation in the paper's programs).
#[derive(Debug, Clone)]
pub(crate) enum IRow {
    Inline { len: u8, vals: [IVal; INLINE_COLS] },
    Heap(Box<[IVal]>),
}

impl IRow {
    /// Build a row from interned values.
    pub fn from_vals(vals: &[IVal]) -> IRow {
        if vals.len() <= INLINE_COLS {
            let mut inline = [IVal::Int(0); INLINE_COLS];
            inline[..vals.len()].copy_from_slice(vals);
            IRow::Inline {
                len: vals.len() as u8,
                vals: inline,
            }
        } else {
            IRow::Heap(vals.into())
        }
    }

    /// Intern a public tuple.
    pub fn from_tuple(tuple: &[Value], strs: &mut SymbolTable) -> IRow {
        let vals: Vec<IVal> = tuple.iter().map(|v| IVal::intern(v, strs)).collect();
        IRow::from_vals(&vals)
    }

    /// Read-only interning: `None` when the tuple contains a string the
    /// engine has never seen (so no stored row can equal it).
    pub fn lookup_tuple(tuple: &[Value], strs: &SymbolTable) -> Option<IRow> {
        let vals: Option<Vec<IVal>> = tuple.iter().map(|v| IVal::lookup(v, strs)).collect();
        vals.map(|v| IRow::from_vals(&v))
    }

    /// The row's columns.
    pub fn as_slice(&self) -> &[IVal] {
        match self {
            IRow::Inline { len, vals } => &vals[..*len as usize],
            IRow::Heap(vals) => vals,
        }
    }

    /// Arity of the row.
    pub fn len(&self) -> usize {
        match self {
            IRow::Inline { len, .. } => *len as usize,
            IRow::Heap(vals) => vals.len(),
        }
    }

    /// Public form of the row.
    pub fn to_tuple(&self, strs: &SymbolTable) -> Tuple {
        self.as_slice().iter().map(|v| v.to_value(strs)).collect()
    }

    /// Row order identical to the public tuple order.
    pub fn cmp_public(&self, other: &IRow, strs: &SymbolTable) -> std::cmp::Ordering {
        let a = self.as_slice();
        let b = other.as_slice();
        for (x, y) in a.iter().zip(b.iter()) {
            let ord = x.cmp_public(*y, strs);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.len().cmp(&b.len())
    }
}

impl PartialEq for IRow {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for IRow {}
impl Hash for IRow {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

// ---------------------------------------------------------------------------
// Row hashing
// ---------------------------------------------------------------------------

/// One multiply-xor mixing step (FxHash-style).
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

#[inline]
fn mix_ival(h: u64, v: IVal) -> u64 {
    let (tag, payload) = match v {
        IVal::Int(i) => (0u64, i as u64),
        IVal::Float(bits) => (1, bits),
        IVal::Str(s) => (2, u64::from(s)),
        IVal::Addr(n) => (3, u64::from(n)),
        IVal::Bool(b) => (4, u64::from(b)),
        IVal::Sym(s) => (5, u64::from(s)),
    };
    mix(mix(h, tag), payload)
}

/// Hash of a whole row (the arena key).
pub(crate) fn hash_row(vals: &[IVal]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15;
    for &v in vals {
        h = mix_ival(h, v);
    }
    mix(h, vals.len() as u64)
}

/// Hash of a column projection — must fold values in exactly the same
/// order as [`hash_key`] folds the probe-key values.
pub(crate) fn hash_proj(vals: &[IVal], cols: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15;
    for &c in cols {
        h = mix_ival(h, vals[c as usize]);
    }
    h
}

/// Hash of a probe key (values already projected, in ascending-column
/// order, matching [`hash_proj`]).
pub(crate) fn hash_key(vals: impl IntoIterator<Item = IVal>) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15;
    for v in vals {
        h = mix_ival(h, v);
    }
    h
}

/// Pass-through hasher for maps keyed by an already-mixed `u64`.
#[derive(Default)]
pub(crate) struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0, u64::from(b));
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

pub(crate) type HashU64Map<V> = HashMap<u64, V, BuildHasherDefault<PreHashed>>;

// ---------------------------------------------------------------------------
// Indexed relation store (engine-internal)
// ---------------------------------------------------------------------------

/// A secondary hash index over one bound-column set (and one arity — a
/// relation holding rows of several arities indexes each arity separately).
#[derive(Debug, Default)]
pub(crate) struct ColIndex {
    arity: u8,
    /// Indexed columns, ascending.
    cols: Vec<u8>,
    /// Projection hash -> arena indexes of *visible* rows.
    buckets: HashU64Map<Vec<u32>>,
}

/// The production engine's relation storage: a deduplicating arena of
/// interned rows with counted multiplicities, the parallel public form of
/// each row (served by borrow-based reads like [`crate::Engine::scan`]), an
/// O(1) visible count, and lazily built secondary indexes.
#[derive(Debug, Default)]
pub(crate) struct RelStore {
    rows: Vec<IRow>,
    /// Public form of each arena row, materialized lazily on the first
    /// borrow-based read (hot-path writes never pay for it).
    pubs: Vec<OnceCell<Tuple>>,
    counts: Vec<i64>,
    hashes: Vec<u64>,
    /// Row hash -> arena indexes (collision chain).
    lookup: HashU64Map<Vec<u32>>,
    visible: usize,
    indexes: Vec<ColIndex>,
}

impl RelStore {
    fn find(&self, row: &IRow, hash: u64) -> Option<u32> {
        self.lookup
            .get(&hash)?
            .iter()
            .copied()
            .find(|&i| self.rows[i as usize] == *row)
    }

    /// Adjust the count of `row` by `delta`.
    ///
    /// Returns `Some(true)` if the row became visible (count > 0),
    /// `Some(false)` if it stopped being visible, and `None` if visibility
    /// did not change. Secondary indexes and the visible count are
    /// maintained on every visibility transition.
    pub fn adjust(&mut self, row: &IRow, delta: i64) -> Option<bool> {
        if delta == 0 {
            return None;
        }
        let hash = hash_row(row.as_slice());
        let i = match self.find(row, hash) {
            Some(i) => i,
            None => {
                let i = self.rows.len() as u32;
                self.pubs.push(OnceCell::new());
                self.rows.push(row.clone());
                self.counts.push(0);
                self.hashes.push(hash);
                self.lookup.entry(hash).or_default().push(i);
                i
            }
        };
        let iu = i as usize;
        let before = self.counts[iu] > 0;
        self.counts[iu] += delta;
        let after = self.counts[iu] > 0;
        match (before, after) {
            (false, true) => {
                self.visible += 1;
                self.index_update(i, true);
                Some(true)
            }
            (true, false) => {
                self.visible -= 1;
                self.index_update(i, false);
                Some(false)
            }
            _ => None,
        }
    }

    fn index_update(&mut self, i: u32, add: bool) {
        let row = self.rows[i as usize].as_slice();
        for ix in &mut self.indexes {
            if row.len() != ix.arity as usize {
                continue;
            }
            let key = hash_proj(row, &ix.cols);
            if add {
                ix.buckets.entry(key).or_default().push(i);
            } else if let Some(bucket) = ix.buckets.get_mut(&key) {
                if let Some(p) = bucket.iter().position(|&x| x == i) {
                    bucket.swap_remove(p);
                }
            }
        }
    }

    /// Number of visible rows — O(1).
    pub fn visible_len(&self) -> usize {
        self.visible
    }

    /// True when `row` is currently visible.
    pub fn contains_row(&self, row: &IRow) -> bool {
        self.find(row, hash_row(row.as_slice()))
            .is_some_and(|i| self.counts[i as usize] > 0)
    }

    /// Borrowing iterator over the public form of visible rows,
    /// materializing (and caching) each row's public tuple on first use.
    pub fn scan_pubs<'a>(&'a self, strs: &'a SymbolTable) -> impl Iterator<Item = &'a Tuple> {
        self.rows
            .iter()
            .zip(self.pubs.iter())
            .zip(self.counts.iter())
            .filter(|&(_, &c)| c > 0)
            .map(move |((row, cell), _)| cell.get_or_init(|| row.to_tuple(strs)))
    }

    /// Visible public tuples, sorted (deterministic, which keeps
    /// distributed runs reproducible).
    pub fn sorted_pubs(&self, strs: &SymbolTable) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self.scan_pubs(strs).cloned().collect();
        out.sort();
        out
    }

    /// Arena size (visible and tombstoned rows).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The row at an arena index.
    pub fn row(&self, i: u32) -> &IRow {
        &self.rows[i as usize]
    }

    /// True when the arena row at `i` is visible.
    pub fn visible_at(&self, i: u32) -> bool {
        self.counts[i as usize] > 0
    }

    /// Index id for `(arity, cols)`, building the index on first use by
    /// scanning the visible rows of that arity.
    pub fn ensure_index(&mut self, arity: u8, cols: &[u8]) -> usize {
        if let Some(p) = self
            .indexes
            .iter()
            .position(|ix| ix.arity == arity && ix.cols == cols)
        {
            return p;
        }
        let mut ix = ColIndex {
            arity,
            cols: cols.to_vec(),
            buckets: HashU64Map::default(),
        };
        for (i, row) in self.rows.iter().enumerate() {
            if self.counts[i] > 0 && row.len() == arity as usize {
                ix.buckets
                    .entry(hash_proj(row.as_slice(), &ix.cols))
                    .or_default()
                    .push(i as u32);
            }
        }
        self.indexes.push(ix);
        self.indexes.len() - 1
    }

    /// Arena indexes of visible rows whose projection hashes to `key`
    /// (callers must re-verify columns — hash collisions are possible).
    pub fn probe(&self, index: usize, key: u64) -> &[u32] {
        self.indexes[index]
            .buckets
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> IRow {
        let vals: Vec<IVal> = vals.iter().map(|&v| IVal::Int(v)).collect();
        IRow::from_vals(&vals)
    }

    fn ints(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn adjust_tracks_visibility_transitions() {
        let mut r = RelStore::default();
        assert_eq!(r.adjust(&t(&[1, 2]), 1), Some(true));
        assert_eq!(r.adjust(&t(&[1, 2]), 1), None); // still visible
        assert_eq!(r.adjust(&t(&[1, 2]), -1), None);
        assert_eq!(r.adjust(&t(&[1, 2]), -1), Some(false));
        assert!(!r.contains_row(&t(&[1, 2])));
        assert_eq!(r.adjust(&t(&[1, 2]), 0), None);
    }

    #[test]
    fn len_and_iter_skip_invisible() {
        let mut r = RelStore::default();
        let strs = SymbolTable::default();
        r.adjust(&t(&[1]), 1);
        r.adjust(&t(&[2]), 1);
        r.adjust(&t(&[2]), -1);
        assert_eq!(r.visible_len(), 1);
        assert_eq!(r.scan_pubs(&strs).count(), 1);
        assert_eq!(r.num_rows(), 2, "the arena keeps the invisible row");
        assert!(r.contains_row(&t(&[1])));
    }

    #[test]
    fn sorted_tuples_is_deterministic() {
        let mut r = RelStore::default();
        let strs = SymbolTable::default();
        r.adjust(&t(&[3, 1]), 1);
        r.adjust(&t(&[1, 2]), 1);
        r.adjust(&t(&[2, 0]), 1);
        assert_eq!(
            r.sorted_pubs(&strs),
            vec![ints(&[1, 2]), ints(&[2, 0]), ints(&[3, 1])]
        );
    }

    #[test]
    fn negative_counts_keep_tuple_invisible() {
        let mut r = RelStore::default();
        assert_eq!(r.adjust(&t(&[5]), -1), None);
        assert!(!r.contains_row(&t(&[5])));
        assert_eq!(r.adjust(&t(&[5]), 1), None); // back to zero, still invisible
        assert_eq!(r.adjust(&t(&[5]), 1), Some(true));
        assert_eq!(r.visible_len(), 1);
    }
}
