//! Append deltas: the description of what one fact-batch append changed.
//!
//! The catalog's seqlock version says *that* something changed; a [`Delta`]
//! says *what*: which table grew, which row range is new, and which members
//! of each key column the new rows touch. Downstream layers use it to act
//! incrementally instead of invalidating wholesale — materialized views
//! merge partial aggregates over just the delta rows, and result caches
//! evict only entries whose predicate scope overlaps the touched members
//! (cf. the containment reasoning of cube algebra comparisons).

use std::collections::{BTreeMap, BTreeSet};

use crate::column::Column;

/// Descriptor of one committed append: the appended row range of a table
/// plus the distinct values of every `i64` (key) column in the batch.
///
/// A delta is *stamped* with the settled (even) catalog version its commit
/// produced, so a sequence of deltas explains a version interval: a reader
/// holding results computed at version `v` can ask the catalog for the
/// deltas since `v` and decide member-by-member whether its results are
/// still exact.
#[derive(Debug, Clone)]
pub struct Delta {
    table: String,
    start_row: usize,
    rows: usize,
    /// Distinct appended values per `i64` column — for fact tables these
    /// are the finest-level dimension members the delta touches.
    touched: BTreeMap<String, BTreeSet<i64>>,
    /// Settled catalog version after the commit (0 until stamped).
    version: u64,
}

impl Delta {
    /// Describes a batch about to be appended to `table` at `start_row`.
    /// The version is stamped later, by the catalog commit.
    pub fn describe(table: impl Into<String>, start_row: usize, batch: &[Column]) -> Delta {
        let mut touched = BTreeMap::new();
        let mut rows = batch.first().map(Column::len).unwrap_or(0);
        for col in batch {
            rows = rows.max(col.len());
            // Key-like covers both physical layouts: plain `i64` batches
            // and batches carrying already-encoded key columns get the
            // same touched-member sets.
            if let Some(values) = col.i64_iter() {
                touched.insert(col.name.clone(), values.collect());
            }
        }
        Delta { table: table.into(), start_row, rows, touched, version: 0 }
    }

    /// Stamps the settled catalog version the committing mutation produced.
    /// Normally called by
    /// [`Catalog::commit_append`](crate::Catalog::commit_append); public so
    /// delta consumers can build stamped descriptors in tests.
    pub fn stamped(mut self, version: u64) -> Delta {
        self.version = version;
        self
    }

    /// The appended table's name.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// First appended row index (= the table's row count before the append).
    pub fn start_row(&self) -> usize {
        self.start_row
    }

    /// Number of appended rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The settled catalog version of the commit (0 before commit).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Distinct appended values of an `i64` column, if the batch had one.
    pub fn touched(&self, column: &str) -> Option<&BTreeSet<i64>> {
        self.touched.get(column)
    }

    /// Names of the key columns with touched-member sets.
    pub fn touched_columns(&self) -> impl Iterator<Item = &str> {
        self.touched.keys().map(String::as_str)
    }

    /// Whether any appended value of `column` is allowed by `mask` (a dense
    /// boolean over the column's member domain). Unknown columns and
    /// out-of-domain values count as overlapping — the test is conservative:
    /// `false` *proves* the appended rows cannot satisfy a predicate whose
    /// allowed members are exactly `mask`.
    pub fn overlaps_mask(&self, column: &str, mask: &[bool]) -> bool {
        match self.touched.get(column) {
            None => true,
            Some(values) => values.iter().any(|&v| {
                usize::try_from(v).ok().and_then(|i| mask.get(i).copied()).unwrap_or(true)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> Vec<Column> {
        vec![
            Column::i64("ckey", vec![2, 5, 2]),
            Column::f64("revenue", vec![1.0, 2.0, 3.0]),
            Column::i64("skey", vec![0, 0, 1]),
        ]
    }

    #[test]
    fn describe_collects_touched_members_per_key_column() {
        let d = Delta::describe("lineorder", 100, &batch());
        assert_eq!(d.table(), "lineorder");
        assert_eq!(d.start_row(), 100);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.version(), 0);
        let ckeys: Vec<i64> = d.touched("ckey").unwrap().iter().copied().collect();
        assert_eq!(ckeys, vec![2, 5]);
        let skeys: Vec<i64> = d.touched("skey").unwrap().iter().copied().collect();
        assert_eq!(skeys, vec![0, 1]);
        assert!(d.touched("revenue").is_none(), "measure columns carry no member sets");
        assert_eq!(d.touched_columns().collect::<Vec<_>>(), vec!["ckey", "skey"]);
    }

    #[test]
    fn overlap_test_is_exact_for_known_columns() {
        let d = Delta::describe("lineorder", 0, &batch());
        // ckey touches {2, 5}: a mask excluding both proves disjointness.
        let mut mask = vec![true; 8];
        mask[2] = false;
        mask[5] = false;
        assert!(!d.overlaps_mask("ckey", &mask));
        mask[5] = true;
        assert!(d.overlaps_mask("ckey", &mask));
    }

    #[test]
    fn overlap_test_is_conservative_for_the_unknown() {
        let d = Delta::describe("lineorder", 0, &batch());
        // Unknown column: must assume overlap.
        assert!(d.overlaps_mask("dkey", &[false; 4]));
        // Out-of-domain value: mask shorter than member 5.
        assert!(d.overlaps_mask("ckey", &[false; 3]));
    }

    #[test]
    fn encoded_batch_columns_report_the_same_touched_sets() {
        let plain = Delta::describe("lineorder", 0, &batch());
        let mut encoded_batch = batch();
        encoded_batch[0] = encoded_batch[0].encode_key(8).unwrap();
        encoded_batch[2] = encoded_batch[2].encode_key(2).unwrap();
        let encoded = Delta::describe("lineorder", 0, &encoded_batch);
        assert_eq!(encoded.touched("ckey"), plain.touched("ckey"));
        assert_eq!(encoded.touched("skey"), plain.touched("skey"));
        assert_eq!(encoded.touched_columns().count(), 2);
    }

    #[test]
    fn empty_batch_is_an_empty_delta() {
        let d = Delta::describe("lineorder", 42, &[]);
        assert_eq!(d.rows(), 0);
        assert_eq!(d.touched_columns().count(), 0);
    }
}
