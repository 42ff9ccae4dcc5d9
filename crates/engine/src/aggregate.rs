//! Hash aggregation: accumulators, group tables, and the chunk
//! aggregation kernel of the morsel-driven scan pipeline.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use olap_model::AggOp;

use crate::key::{FoldMap, KeyLayout};

/// A per-measure aggregation accumulator over dense group slots.
#[derive(Debug, Clone)]
pub enum Accumulator {
    Sum(Vec<f64>),
    Min(Vec<f64>),
    Max(Vec<f64>),
    Count(Vec<f64>),
    Avg { sums: Vec<f64>, counts: Vec<f64> },
}

impl Accumulator {
    pub fn new(op: AggOp) -> Self {
        match op {
            AggOp::Sum => Accumulator::Sum(Vec::new()),
            AggOp::Min => Accumulator::Min(Vec::new()),
            AggOp::Max => Accumulator::Max(Vec::new()),
            AggOp::Count => Accumulator::Count(Vec::new()),
            AggOp::Avg => Accumulator::Avg { sums: Vec::new(), counts: Vec::new() },
        }
    }

    /// The state whose finalized values are `values`, for the operators
    /// whose finalized value *is* their state (sum, count, min, max); `None`
    /// for Avg, whose sum and count cannot be recovered from their quotient.
    pub(crate) fn from_finalized(op: AggOp, values: Vec<f64>) -> Option<Self> {
        match op {
            AggOp::Sum => Some(Accumulator::Sum(values)),
            AggOp::Count => Some(Accumulator::Count(values)),
            AggOp::Min => Some(Accumulator::Min(values)),
            AggOp::Max => Some(Accumulator::Max(values)),
            AggOp::Avg => None,
        }
    }

    /// Grows to `n` group slots, initializing new slots to the identity.
    pub fn grow_to(&mut self, n: usize) {
        match self {
            Accumulator::Sum(v) | Accumulator::Count(v) => v.resize(n, 0.0),
            Accumulator::Min(v) => v.resize(n, f64::INFINITY),
            Accumulator::Max(v) => v.resize(n, f64::NEG_INFINITY),
            Accumulator::Avg { sums, counts } => {
                sums.resize(n, 0.0);
                counts.resize(n, 0.0);
            }
        }
    }

    /// Folds one value into group slot `idx`.
    #[inline]
    pub fn update(&mut self, idx: usize, value: f64) {
        match self {
            Accumulator::Sum(v) => v[idx] += value,
            Accumulator::Min(v) => v[idx] = v[idx].min(value),
            Accumulator::Max(v) => v[idx] = v[idx].max(value),
            Accumulator::Count(v) => v[idx] += 1.0,
            Accumulator::Avg { sums, counts } => {
                sums[idx] += value;
                counts[idx] += 1.0;
            }
        }
    }

    /// Folds one value per slot-lane entry: `values` yields the measure
    /// value of each entry, in lane (row) order. The operator is matched
    /// once per call, so each arm is a tight typed loop.
    #[inline]
    fn fold(&mut self, slots: &[u32], values: impl Iterator<Item = f64>) {
        match self {
            Accumulator::Sum(v) => {
                for (&s, x) in slots.iter().zip(values) {
                    v[s as usize] += x;
                }
            }
            Accumulator::Min(v) => {
                for (&s, x) in slots.iter().zip(values) {
                    v[s as usize] = v[s as usize].min(x);
                }
            }
            Accumulator::Max(v) => {
                for (&s, x) in slots.iter().zip(values) {
                    v[s as usize] = v[s as usize].max(x);
                }
            }
            Accumulator::Count(v) => {
                for &s in slots {
                    v[s as usize] += 1.0;
                }
            }
            Accumulator::Avg { sums, counts } => {
                for (&s, x) in slots.iter().zip(values) {
                    sums[s as usize] += x;
                    counts[s as usize] += 1.0;
                }
            }
        }
    }

    /// Merges another accumulator's slot `from` into this one's slot `into`
    /// (for parallel partial aggregates).
    pub fn merge_slot(&mut self, into: usize, other: &Accumulator, from: usize) {
        match (self, other) {
            (Accumulator::Sum(a), Accumulator::Sum(b))
            | (Accumulator::Count(a), Accumulator::Count(b)) => a[into] += b[from],
            (Accumulator::Min(a), Accumulator::Min(b)) => a[into] = a[into].min(b[from]),
            (Accumulator::Max(a), Accumulator::Max(b)) => a[into] = a[into].max(b[from]),
            (
                Accumulator::Avg { sums: asums, counts: acounts },
                Accumulator::Avg { sums: bsums, counts: bcounts },
            ) => {
                asums[into] += bsums[from];
                acounts[into] += bcounts[from];
            }
            _ => unreachable!("merging accumulators of different operators"),
        }
    }

    /// The current finalized value of slot `idx` (without consuming the
    /// accumulator) — used by fused operators that probe partial results.
    #[inline]
    pub fn current(&self, idx: usize) -> f64 {
        match self {
            Accumulator::Sum(v)
            | Accumulator::Min(v)
            | Accumulator::Max(v)
            | Accumulator::Count(v) => v[idx],
            Accumulator::Avg { sums, counts } => {
                if counts[idx] > 0.0 {
                    sums[idx] / counts[idx]
                } else {
                    f64::NAN
                }
            }
        }
    }

    /// Finalizes into per-group values.
    pub fn finish(self) -> Vec<f64> {
        match self {
            Accumulator::Sum(v)
            | Accumulator::Min(v)
            | Accumulator::Max(v)
            | Accumulator::Count(v) => v,
            Accumulator::Avg { sums, counts } => sums
                .into_iter()
                .zip(counts)
                .map(|(s, c)| if c > 0.0 { s / c } else { f64::NAN })
                .collect(),
        }
    }
}

/// A hash group table keyed by `K` (packed `u64` keys on the fast path,
/// [`olap_model::Coordinate`] on the wide fallback path).
#[derive(Debug)]
pub struct GroupTable<K: Eq + Hash + Clone> {
    map: FoldMap<K, u32>,
    keys: Vec<K>,
    accs: Vec<Accumulator>,
}

impl<K: Eq + Hash + Clone> GroupTable<K> {
    pub fn new(ops: &[AggOp]) -> Self {
        GroupTable {
            map: FoldMap::default(),
            keys: Vec::new(),
            accs: ops.iter().map(|op| Accumulator::new(*op)).collect(),
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The group keys, in first-seen order.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The dense slot of `key`, creating it if new.
    #[inline]
    pub fn slot(&mut self, key: K) -> usize {
        let idx = self.intern(key);
        self.grow_accs();
        idx as usize
    }

    /// The slot of `key`, appending it to the key list if new, *without*
    /// growing the accumulators — callers follow with [`Self::grow_accs`].
    #[inline]
    fn intern(&mut self, key: K) -> u32 {
        let next = self.keys.len() as u32;
        match self.map.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.keys.push(e.key().clone());
                *e.insert(next)
            }
        }
    }

    /// Grows every accumulator to one slot per key.
    fn grow_accs(&mut self) {
        let n = self.keys.len();
        for acc in &mut self.accs {
            acc.grow_to(n);
        }
    }

    /// The dense slot of `key`, if present.
    pub fn lookup(&self, key: &K) -> Option<usize> {
        self.map.get(key).map(|i| *i as usize)
    }

    /// Folds one row of measure values into the group of `key`.
    #[inline]
    pub fn update(&mut self, key: K, values: &[f64]) {
        let idx = self.slot(key);
        for (acc, v) in self.accs.iter_mut().zip(values.iter()) {
            acc.update(idx, *v);
        }
    }

    /// Folds a single-measure row (the hot loop for one-measure queries).
    #[inline]
    pub fn update1(&mut self, key: K, value: f64) {
        let idx = self.slot(key);
        self.accs[0].update(idx, value);
    }

    /// The current finalized value of measure `measure_idx` in group slot
    /// `slot` (fused operators probe before materialization).
    #[inline]
    pub fn value(&self, measure_idx: usize, slot: usize) -> f64 {
        self.accs[measure_idx].current(slot)
    }

    /// Merges another group table (parallel partial aggregates).
    pub fn merge(&mut self, other: GroupTable<K>) {
        for (from, key) in other.keys.iter().enumerate() {
            let into = self.slot(key.clone());
            for (acc, oacc) in self.accs.iter_mut().zip(other.accs.iter()) {
                acc.merge_slot(into, oacc, from);
            }
        }
    }

    /// Finalizes into `(keys, measure columns)`.
    pub fn finish(self) -> (Vec<K>, Vec<Vec<f64>>) {
        (self.keys, self.accs.into_iter().map(Accumulator::finish).collect())
    }

    /// Decomposes into raw `(keys, accumulators)` **without** finalizing —
    /// the wire form of a shard's partial aggregate, still mergeable.
    pub fn into_raw(self) -> (Vec<K>, Vec<Accumulator>) {
        (self.keys, self.accs)
    }

    /// Rebuilds a group table from raw parts produced by [`Self::into_raw`]
    /// (possibly deserialized from a remote shard).
    pub fn from_raw(keys: Vec<K>, mut accs: Vec<Accumulator>) -> Self {
        let map = keys.iter().enumerate().map(|(i, k)| (k.clone(), i as u32)).collect();
        for acc in &mut accs {
            acc.grow_to(keys.len());
        }
        GroupTable { map, keys, accs }
    }
}

/// The per-thread lanes of [`accumulate_chunk`]: one packed key and one
/// group slot per folded row. They live in the scan's
/// [`MorselScratch`](crate::pool::MorselScratch), grow to the morsel size
/// once and are reused for every chunk.
#[derive(Debug, Default)]
pub struct GroupLanes {
    keys: Vec<u64>,
    slots: Vec<u32>,
}

/// The aggregation kernel of the morsel pipeline: folds the rows of one
/// chunk into `out`, packing each row's group key with `layout`.
///
/// All inputs are flat buffers the chunk layer prepared (see
/// `DataChunk::key_lane` / `f64_lane`), so no loop dispatches on a type
/// or an encoding. The kernel runs three passes over the folded rows:
///
/// 1. **key lane** — one loop per group-by component ORs
///    `roll[code] << shift` into `lanes.keys`;
/// 2. **slot lane** — maps each key to its dense group slot in `out`,
///    creating slots in first-seen order. This is the only branchy loop;
///    a one-entry last-key check skips the probe on runs of equal keys
///    (the facts are clustered by date);
/// 3. **typed folds** — per accumulator, one loop matched once on the
///    operator, e.g. `sums[slot[i]] += vals[sel[i]]`.
///
/// Every slot receives its values in row order, exactly as a row-at-a-time
/// [`GroupTable::update`] loop would feed it, so results are bit-identical
/// to that loop for every operator and value.
///
/// * `len` — rows in the chunk; every lane must have that length;
/// * `selection` — chunk-local ids of the rows to fold (the predicate
///   kernel's output), or `None` to fold every row;
/// * `keys` — per group-by component: the code lane and the roll-up map
///   from the carried level to the queried level (as raw `u32` codes);
/// * `measures` — one value lane per measure, in accumulator order.
pub fn accumulate_chunk(
    out: &mut GroupTable<u64>,
    lanes: &mut GroupLanes,
    layout: &KeyLayout,
    len: usize,
    selection: Option<&[u32]>,
    keys: &[(&[u32], &[u32])],
    measures: &[&[f64]],
) {
    let GroupLanes { keys: key_lane, slots } = lanes;
    key_lane.clear();
    key_lane.resize(selection.map_or(len, <[u32]>::len), 0);
    for (comp, (codes, roll)) in keys.iter().enumerate() {
        let shift = layout.shift(comp);
        match selection {
            Some(sel) => {
                for (key, &row) in key_lane.iter_mut().zip(sel) {
                    *key |= u64::from(roll[codes[row as usize] as usize]) << shift;
                }
            }
            None => {
                for (key, &code) in key_lane.iter_mut().zip(&codes[..len]) {
                    *key |= u64::from(roll[code as usize]) << shift;
                }
            }
        }
    }

    // `!first` differs from the first key, so the first row always probes.
    let mut last = key_lane.first().map_or((0, 0), |&k| (!k, 0));
    slots.clear();
    slots.extend(key_lane.iter().map(|&key| {
        if key != last.0 {
            last = (key, out.intern(key));
        }
        last.1
    }));
    out.grow_accs();

    for (acc, vals) in out.accs.iter_mut().zip(measures) {
        match selection {
            Some(sel) => acc.fold(slots, sel.iter().map(|&row| vals[row as usize])),
            None => acc.fold(slots, vals[..len].iter().copied()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::MemberId;

    #[test]
    fn sum_and_avg_accumulate() {
        let mut t: GroupTable<u64> = GroupTable::new(&[AggOp::Sum, AggOp::Avg]);
        t.update(7, &[1.0, 10.0]);
        t.update(7, &[2.0, 20.0]);
        t.update(9, &[5.0, 5.0]);
        assert_eq!(t.len(), 2);
        let (keys, cols) = t.finish();
        assert_eq!(keys, vec![7, 9]);
        assert_eq!(cols[0], vec![3.0, 5.0]);
        assert_eq!(cols[1], vec![15.0, 5.0]);
    }

    #[test]
    fn min_max_count() {
        let mut t: GroupTable<u64> = GroupTable::new(&[AggOp::Min, AggOp::Max, AggOp::Count]);
        for v in [3.0, -1.0, 7.0] {
            t.update(0, &[v, v, v]);
        }
        let (_, cols) = t.finish();
        assert_eq!(cols[0], vec![-1.0]);
        assert_eq!(cols[1], vec![7.0]);
        assert_eq!(cols[2], vec![3.0]);
    }

    #[test]
    fn merge_equals_sequential() {
        let ops = [AggOp::Sum, AggOp::Min];
        let rows: Vec<(u64, [f64; 2])> =
            (0..100).map(|i| ((i % 7) as u64, [i as f64, (100 - i) as f64])).collect();
        let mut seq: GroupTable<u64> = GroupTable::new(&ops);
        for (k, v) in &rows {
            seq.update(*k, v);
        }
        let mut a: GroupTable<u64> = GroupTable::new(&ops);
        let mut b: GroupTable<u64> = GroupTable::new(&ops);
        for (i, (k, v)) in rows.iter().enumerate() {
            if i % 2 == 0 {
                a.update(*k, v);
            } else {
                b.update(*k, v);
            }
        }
        a.merge(b);
        let (mut ka, mut ca) = a.finish();
        let (mut ks, mut cs) = seq.finish();
        // Key order may differ; sort both sides consistently.
        let mut perm_a: Vec<usize> = (0..ka.len()).collect();
        perm_a.sort_by_key(|&i| ka[i]);
        let mut perm_s: Vec<usize> = (0..ks.len()).collect();
        perm_s.sort_by_key(|&i| ks[i]);
        ka = perm_a.iter().map(|&i| ka[i]).collect();
        ks = perm_s.iter().map(|&i| ks[i]).collect();
        for col in ca.iter_mut() {
            *col = perm_a.iter().map(|&i| col[i]).collect();
        }
        for col in cs.iter_mut() {
            *col = perm_s.iter().map(|&i| col[i]).collect();
        }
        assert_eq!(ka, ks);
        assert_eq!(ca, cs);
    }

    #[test]
    fn avg_of_empty_group_is_nan() {
        let mut acc = Accumulator::new(AggOp::Avg);
        acc.grow_to(1);
        let out = acc.finish();
        assert!(out[0].is_nan());
    }

    #[test]
    fn chunk_kernel_matches_row_at_a_time_updates() {
        // Two hierarchies of 3 and 2 members, rolled to themselves.
        let layout = KeyLayout::for_cardinalities(&[3, 2]);
        let fk_a: Vec<u32> = vec![0, 1, 2, 0, 1, 2];
        let fk_b: Vec<u32> = vec![0, 0, 1, 1, 0, 1];
        let roll_a: Vec<u32> = (0..3).collect();
        let roll_b: Vec<u32> = (0..2).collect();
        let m1: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let m2: Vec<f64> = vec![0.5; 6];
        let keys = [(&fk_a[..], &roll_a[..]), (&fk_b[..], &roll_b[..])];
        let measures = [&m1[..], &m2[..]];
        let ops = [AggOp::Sum, AggOp::Count];

        let mut expected: GroupTable<u64> = GroupTable::new(&ops);
        for row in [1usize, 3, 4] {
            let members =
                [MemberId(roll_a[fk_a[row] as usize]), MemberId(roll_b[fk_b[row] as usize])];
            expected.update(layout.pack(&members), &[m1[row], m2[row]]);
        }
        let mut lanes = GroupLanes::default();
        let mut out: GroupTable<u64> = GroupTable::new(&ops);
        accumulate_chunk(&mut out, &mut lanes, &layout, 6, Some(&[1, 3, 4]), &keys, &measures);
        assert_eq!(out.finish(), expected.finish());

        // No selection folds every row.
        let mut all: GroupTable<u64> = GroupTable::new(&[AggOp::Sum]);
        accumulate_chunk(&mut all, &mut lanes, &layout, 6, None, &keys, &measures[..1]);
        let (_, cols) = all.finish();
        assert_eq!(cols[0].iter().sum::<f64>(), 21.0);
    }

    #[test]
    fn wide_keys_work() {
        use olap_model::Coordinate;
        let mut t: GroupTable<Coordinate> = GroupTable::new(&[AggOp::Sum]);
        let k = Coordinate::new(vec![MemberId(1), MemberId(2)]);
        t.update1(k.clone(), 4.0);
        t.update1(k.clone(), 6.0);
        assert_eq!(t.lookup(&k), Some(0));
        let (_, cols) = t.finish();
        assert_eq!(cols[0], vec![10.0]);
    }
}
