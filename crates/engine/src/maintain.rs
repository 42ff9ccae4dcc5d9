//! Incremental maintenance: the append path of the engine.
//!
//! [`append`] grows a cube's fact table by a batch of rows and keeps every
//! dependent materialized view consistent, committing the new table, the
//! maintained views and a [`Delta`] descriptor under **one** catalog
//! version bump. Downstream caches can therefore follow the catalog's
//! delta chain instead of invalidating wholesale.
//!
//! ## View maintenance policy
//!
//! A view is the cube query "its measures, grouped by its group-by set"
//! over its recorded [`source`](MaterializedAggregate::source) cube. For
//! every view in the catalog:
//!
//! * the source resolves to a binding over the appended fact table, and
//!   the view's query resolves against the grown table → the view is
//!   maintained: **merged** when every one of its measures aggregates
//!   distributively (sum/count/min/max) and its group-by key packs into a
//!   machine word, **rebuilt** from the full grown table otherwise;
//! * the source resolves to a binding over a *different* fact table → the
//!   view is untouched;
//! * the provenance cannot be resolved (no source recorded, unknown source
//!   cube, or columns that no longer line up) → the view is **dropped**: a
//!   view that cannot be re-derived must not keep serving stale aggregates
//!   after its underlying data may have grown.
//!
//! ## One path with queries
//!
//! Maintenance has no scan, merge or emitter of its own. The view's query
//! resolves through the query path's fact-scan builder over the grown,
//! uncommitted table — the delta's rows for a merge, all rows for a
//! rebuild — and runs through `Engine::run_scan` under the engine's
//! governor and fault injector, so a cancelled, expired or faulted append
//! fails and commits nothing. A merge packs the view's rows into a group
//! table of raw sum/count/min/max state (for those operators the stored
//! value *is* the state) and folds the delta's partial aggregate into it
//! with `GroupTable::merge`, the merge morsels and shards use. Views store
//! finalized values, so an Avg view (sum and count folded into a quotient)
//! rebuilds; a view whose key does not pack into a word rebuilds through
//! the wide fallback (`crate::wide`). Every result leaves through the
//! engine's one emitter, in the coordinate order `Engine::get` produces,
//! and [`Engine::build_view`] materializes a fresh view through the same
//! function. Maintenance charges no row or cell budget and records no scan
//! counters: `appends`, `mview_delta_merges` and `mview_rebuilds` are its
//! record.
//!
//! ## Determinism
//!
//! Both the delta scan and the rebuild scan are morsel-driven scans, so
//! partial aggregates merge in morsel order (morsels numbered from the
//! start of the scanned range) and maintenance is byte-identical at every
//! thread count. A merged view is bit-comparable to one rebuilt from
//! scratch; merged sums equal rebuilt sums exactly whenever measure values
//! are integer-valued (exact f64 addition), which the bundled datasets
//! guarantee.
//!
//! ## Concurrency
//!
//! The new table and all maintained views are computed *outside* the
//! catalog lock, then committed with
//! [`commit_append`](olap_storage::Catalog::commit_append), which verifies
//! the base table is still current. A lost race surfaces as
//! [`StorageError::ConcurrentMutation`] and the append is retried from the
//! fresh table, a bounded number of times.

use std::sync::Arc;

use olap_model::{CubeColumn, CubeQuery, GroupBySet};
use olap_storage::{Column, CubeBinding, Delta, MaterializedAggregate, StorageError, Table};

use crate::aggregate::{Accumulator, GroupTable};
use crate::engine::{Engine, GetInternal, GetPlan, ScanCtx, ScanStats};
use crate::error::EngineError;

/// Attempts before a repeatedly lost commit race is surfaced to the caller.
const MAX_COMMIT_ATTEMPTS: usize = 4;

/// The result of one committed append.
#[derive(Debug)]
pub struct MaintainOutcome {
    /// The committed delta, stamped with the catalog version the append
    /// settled at.
    pub delta: Arc<Delta>,
    /// Views maintained by merging the delta's partial aggregates.
    pub views_merged: usize,
    /// Views maintained by a full rebuild from the grown fact table.
    pub views_rebuilt: usize,
    /// Views dropped because their provenance could not be resolved.
    pub views_dropped: Vec<String>,
}

impl MaintainOutcome {
    /// Rows the append added to the fact table.
    pub fn appended(&self) -> usize {
        self.delta.rows()
    }

    /// The catalog version the append settled at.
    pub fn version(&self) -> u64 {
        self.delta.version()
    }
}

/// Appends `batch` to `cube`'s fact table, maintaining every dependent
/// materialized view, and commits table + views + delta atomically.
pub fn append(
    engine: &Engine,
    cube: &str,
    batch: &[Column],
) -> Result<MaintainOutcome, EngineError> {
    let binding = engine.catalog().binding(cube)?;
    validate_batch(&binding, batch)?;
    let mut attempt = 0;
    loop {
        let base = engine.catalog().table(binding.fact_table())?;
        let appended = Arc::new(base.append_batch(batch)?);
        let delta = Delta::describe(binding.fact_table(), base.n_rows(), batch);
        let plan = maintain_views(engine, &appended, &delta)?;
        match engine.catalog().commit_append(&base, appended, plan.maintained, &plan.dropped, delta)
        {
            Ok(delta) => {
                engine.metrics().record_append(plan.merged as u64, plan.rebuilt as u64);
                return Ok(MaintainOutcome {
                    delta,
                    views_merged: plan.merged,
                    views_rebuilt: plan.rebuilt,
                    views_dropped: plan.dropped,
                });
            }
            Err(StorageError::ConcurrentMutation(_)) if attempt + 1 < MAX_COMMIT_ATTEMPTS => {
                attempt += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Referential integrity of the batch: every foreign-key value must be a
/// member id of its hierarchy's finest level, mirroring the check
/// [`CubeBinding::new`] runs on the seed table. Rejecting here keeps the
/// binding's invariant without re-validating the whole grown table.
pub(crate) fn validate_batch(binding: &CubeBinding, batch: &[Column]) -> Result<(), EngineError> {
    let schema = binding.schema();
    for (hi, h) in schema.hierarchies().iter().enumerate() {
        let fk = binding.fk_column(hi);
        let Some(col) = batch.iter().find(|c| c.name == fk) else {
            continue; // a missing column fails structurally in append_batch
        };
        let Some(keys) = col.i64_iter() else {
            continue; // a mistyped column fails structurally in append_batch
        };
        let domain = h.level(0).map(|l| l.cardinality() as i64).unwrap_or(0);
        if let Some(bad) = keys.into_iter().find(|&k| k < 0 || k >= domain) {
            return Err(EngineError::Storage(StorageError::InvalidBinding(format!(
                "appended foreign key `{fk}` holds value {bad} outside the domain of level `{}` (0..{domain})",
                h.level(0).map(|l| l.name()).unwrap_or("?"),
            ))));
        }
    }
    Ok(())
}

/// The maintenance work computed for one append, ready to commit.
struct MaintenancePlan {
    maintained: Vec<MaterializedAggregate>,
    dropped: Vec<String>,
    merged: usize,
    rebuilt: usize,
}

/// Walks the catalog's views and maintains, skips or drops each per the
/// module-level policy. `table` is the already-grown fact table.
fn maintain_views(
    engine: &Engine,
    table: &Arc<Table>,
    delta: &Delta,
) -> Result<MaintenancePlan, EngineError> {
    let mut plan =
        MaintenancePlan { maintained: Vec::new(), dropped: Vec::new(), merged: 0, rebuilt: 0 };
    for view in engine.catalog().views() {
        let source = view.source().map(|src| (src, engine.catalog().binding(src)));
        let Some((src, Ok(binding))) = source else {
            plan.dropped.push(view.name().to_string());
            continue;
        };
        if binding.fact_table() != table.name() {
            continue; // aggregates a different fact table: unaffected
        }
        match maintain_one(engine, src, binding, &view, table, delta)? {
            Some((maintained, merged)) => {
                plan.maintained.push(maintained);
                if merged {
                    plan.merged += 1;
                } else {
                    plan.rebuilt += 1;
                }
            }
            None => plan.dropped.push(view.name().to_string()),
        }
    }
    Ok(plan)
}

/// Maintains one view over the grown `table`: a delta merge when its
/// stored rows are mergeable state, a full rebuild otherwise. Returns the
/// new view and whether it was merged; `Ok(None)` means the view's query no
/// longer resolves against its source and the view must drop, while a
/// failed scan fails the append.
fn maintain_one(
    engine: &Engine,
    src: &str,
    binding: Arc<CubeBinding>,
    view: &MaterializedAggregate,
    table: &Arc<Table>,
    delta: &Delta,
) -> Result<Option<(MaterializedAggregate, bool)>, EngineError> {
    let q = CubeQuery::new(src, view.group_by().clone(), vec![], view.measure_names().to_vec());
    let Ok(plan) = GetPlan::new(binding, &q) else {
        return Ok(None);
    };
    let base = stored_state(view, &plan);
    let rows = match base {
        Some(_) => delta.start_row()..delta.start_row() + delta.rows(),
        None => 0..table.n_rows(),
    };
    let Ok(ctx) = ScanCtx::for_fact(&plan, &q, table, rows) else {
        return Ok(None);
    };
    let merged = base.is_some();
    Ok(Some((build(engine, view.name(), &plan, &q, ctx, base)?, merged)))
}

/// The view's rows as a group table of raw accumulator state, or `None`
/// when they cannot seed a merge: a key that does not pack into a word, or
/// a measure whose stored value is not its own state (Avg).
fn stored_state(view: &MaterializedAggregate, plan: &GetPlan) -> Option<GroupTable<u64>> {
    if !plan.layout.fits_u64() {
        return None;
    }
    let accs = plan
        .ops
        .iter()
        .enumerate()
        .map(|(i, op)| Accumulator::from_finalized(*op, view.measure_at(i)?.to_vec()))
        .collect::<Option<Vec<_>>>()?;
    let keys = (0..view.len())
        .map(|row| {
            let mut key = 0u64;
            for (c, col) in view.coord_cols().iter().enumerate() {
                plan.layout.pack_component(&mut key, c, col[row]);
            }
            key
        })
        .collect();
    Some(GroupTable::from_raw(keys, accs))
}

/// Builds view `name` of the query `q` from its resolved fact scan `ctx` —
/// the one function that materializes a view, fresh, rebuilt or merged.
/// A key that packs into a word scans through the morsel pipeline, folding
/// the result into `base` (the view's stored state) when given; a wider key
/// takes the wide fallback. The view records `q.cube` as its source.
fn build(
    engine: &Engine,
    name: &str,
    plan: &GetPlan,
    q: &CubeQuery,
    ctx: ScanCtx,
    base: Option<GroupTable<u64>>,
) -> Result<MaterializedAggregate, EngineError> {
    let cube = if plan.layout.fits_u64() {
        let scanned = engine.run_scan(ctx)?.table;
        let table = match base {
            Some(mut base) => {
                base.merge(scanned);
                base
            }
            None => scanned,
        };
        GetInternal::new(plan, q, table, ScanStats::default()).emit(None, Vec::new())?.cube
    } else {
        crate::wide::get_wide(engine, plan, q, &ctx)?.cube
    };
    let measures = cube.columns().iter().filter_map(CubeColumn::as_numeric);
    let view = MaterializedAggregate::new(
        name,
        q.group_by.clone(),
        cube.coord_cols().to_vec(),
        q.measures.clone(),
        measures.map(|c| c.data.clone()).collect(),
    )?;
    Ok(view.with_source(q.cube.clone()))
}

impl Engine {
    /// Materializes view `name` over `cube`'s committed fact table: its
    /// `measures` grouped by `group_by`, with `cube` recorded as the source
    /// so appends maintain it. The view is built by the function append
    /// maintenance rebuilds views with, so a fresh view and a maintained one
    /// are byte-identical; like maintenance, it charges no budget and
    /// records no scan counters.
    pub fn build_view(
        &self,
        cube: &str,
        name: &str,
        group_by: GroupBySet,
        measures: Vec<String>,
    ) -> Result<MaterializedAggregate, EngineError> {
        let q = CubeQuery::new(cube, group_by, vec![], measures);
        let plan = GetPlan::new(self.catalog().binding(cube)?, &q)?;
        let fact = self.catalog().table(plan.binding.fact_table())?;
        let ctx = ScanCtx::for_fact(&plan, &q, &fact, 0..fact.n_rows())?;
        build(self, name, &plan, &q, ctx, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use olap_model::{
        AggOp, CubeQuery, CubeSchema, GroupBySet, HierarchyBuilder, MeasureDef, MemberId,
    };
    use olap_storage::binding::DimInfo;
    use olap_storage::{Catalog, CubeBinding};

    fn schema() -> Arc<CubeSchema> {
        let mut product = HierarchyBuilder::new("Product", ["product", "type"]);
        product.add_member_chain(&["Apple", "Fresh Fruit"]).unwrap();
        product.add_member_chain(&["Milk", "Dairy"]).unwrap();
        product.add_member_chain(&["Bread", "Bakery"]).unwrap();
        Arc::new(CubeSchema::new(
            "SALES",
            vec![product.build().unwrap()],
            vec![MeasureDef::new("quantity", AggOp::Sum), MeasureDef::new("mean_qty", AggOp::Avg)],
        ))
    }

    fn seed() -> (Arc<Catalog>, Arc<CubeSchema>) {
        let catalog = Arc::new(Catalog::new());
        let schema = schema();
        let fact = Table::new(
            "sales",
            vec![
                Column::i64("pkey", vec![0, 1, 0, 2]),
                Column::f64("quantity", vec![5.0, 2.0, 1.0, 4.0]),
            ],
        )
        .unwrap();
        let binding = CubeBinding::new(
            schema.clone(),
            &fact,
            vec!["pkey".into()],
            vec!["quantity".into(), "quantity".into()],
            vec![DimInfo {
                table: "product".into(),
                pk: "pkey".into(),
                level_columns: vec!["pkey".into(), "type".into()],
            }],
        )
        .unwrap();
        catalog.register_table(fact);
        catalog.register_binding("SALES", binding);
        (catalog, schema)
    }

    fn batch() -> Vec<Column> {
        vec![Column::i64("pkey", vec![2, 1, 1]), Column::f64("quantity", vec![7.0, 3.0, 9.0])]
    }

    /// Builds a sum view over `levels` via the engine and registers it
    /// with source provenance — the way production views are seeded.
    fn seed_view(catalog: &Arc<Catalog>, schema: &Arc<CubeSchema>, name: &str, level: &str) {
        let engine = Engine::with_config(
            catalog.clone(),
            EngineConfig { use_views: false, ..EngineConfig::default() },
        );
        let group_by = GroupBySet::from_level_names(schema, &[level]).unwrap();
        let out = engine
            .get(&CubeQuery::new("SALES", group_by.clone(), vec![], vec!["quantity".into()]))
            .unwrap();
        let col = out.cube.numeric_column("quantity").unwrap().data.clone();
        let view = MaterializedAggregate::new(
            name,
            group_by,
            out.cube.coord_cols().to_vec(),
            vec!["quantity".into()],
            vec![col],
        )
        .unwrap()
        .with_source("SALES");
        catalog.register_view(view);
    }

    #[test]
    fn append_grows_the_fact_and_serves_new_rows() {
        let (catalog, schema) = seed();
        let engine = Engine::new(catalog.clone());
        let out = engine.append("SALES", &batch()).unwrap();
        assert_eq!(out.appended(), 3);
        assert_eq!(out.version(), catalog.version());
        assert_eq!(catalog.table("sales").unwrap().n_rows(), 7);
        // Aggregate at `type` over the grown table: Fresh Fruit 6, Dairy 14,
        // Bakery 11.
        let g = GroupBySet::from_level_names(&schema, &["type"]).unwrap();
        let q = CubeQuery::new("SALES", g, vec![], vec!["quantity".into()]);
        let cube = engine.get(&q).unwrap().cube;
        let col = &cube.numeric_column("quantity").unwrap().data;
        assert_eq!(col.iter().sum::<f64>(), 31.0);
    }

    #[test]
    fn merged_views_match_a_from_scratch_rebuild() {
        let (catalog, schema) = seed();
        seed_view(&catalog, &schema, "mv_type", "type");
        seed_view(&catalog, &schema, "mv_product", "product");
        let engine = Engine::new(catalog.clone());
        let out = engine.append("SALES", &batch()).unwrap();
        assert_eq!(out.views_merged, 2);
        assert_eq!(out.views_rebuilt, 0);
        assert!(out.views_dropped.is_empty());

        // Rebuild both views from scratch over the grown data.
        let (fresh, _) = seed();
        let fresh_engine = Engine::new(fresh.clone());
        fresh_engine.append("SALES", &batch()).unwrap();
        seed_view(&fresh, &schema, "mv_type", "type");
        seed_view(&fresh, &schema, "mv_product", "product");

        for name in ["mv_type", "mv_product"] {
            let merged = catalog.views().into_iter().find(|v| v.name() == name).unwrap();
            let rebuilt = fresh.views().into_iter().find(|v| v.name() == name).unwrap();
            assert_eq!(merged.coord_cols(), rebuilt.coord_cols(), "{name} coordinates");
            assert_eq!(
                merged.measure("quantity").unwrap(),
                rebuilt.measure("quantity").unwrap(),
                "{name} values"
            );
            assert_eq!(merged.source(), Some("SALES"), "{name} keeps provenance");
        }
    }

    #[test]
    fn avg_views_take_the_rebuild_path() {
        let (catalog, schema) = seed();
        // Hand-built avg view at `type`: coordinate order doesn't matter,
        // maintenance recomputes it entirely.
        let group_by = GroupBySet::from_level_names(&schema, &["type"]).unwrap();
        let view = MaterializedAggregate::new(
            "mv_avg",
            group_by,
            vec![vec![MemberId(0), MemberId(1), MemberId(2)]],
            vec!["mean_qty".into()],
            vec![vec![3.0, 2.0, 4.0]],
        )
        .unwrap()
        .with_source("SALES");
        catalog.register_view(view);
        let engine = Engine::new(catalog.clone());
        let out = engine.append("SALES", &batch()).unwrap();
        assert_eq!((out.views_merged, out.views_rebuilt), (0, 1));
        let v = catalog.views().into_iter().find(|v| v.name() == "mv_avg").unwrap();
        // Grown rows per type: Fresh Fruit {5,1}, Dairy {2,3,9}, Bakery {4,7}.
        assert_eq!(v.measure("mean_qty").unwrap(), &[3.0, 14.0 / 3.0, 5.5]);
    }

    #[test]
    fn unresolvable_views_are_dropped() {
        let (catalog, schema) = seed();
        let group_by = GroupBySet::from_level_names(&schema, &["type"]).unwrap();
        let orphan = MaterializedAggregate::new(
            "mv_orphan",
            group_by.clone(),
            vec![vec![MemberId(0)]],
            vec!["quantity".into()],
            vec![vec![6.0]],
        )
        .unwrap();
        catalog.register_view(orphan.clone());
        let stranger = orphan.with_source("NO_SUCH_CUBE");
        catalog.register_view(
            MaterializedAggregate::new(
                "mv_stranger",
                group_by,
                vec![vec![MemberId(0)]],
                vec!["quantity".into()],
                vec![vec![6.0]],
            )
            .unwrap()
            .with_source("NO_SUCH_CUBE"),
        );
        drop(stranger);
        let engine = Engine::new(catalog.clone());
        let out = engine.append("SALES", &batch()).unwrap();
        assert_eq!(out.views_dropped, vec!["mv_orphan".to_string(), "mv_stranger".to_string()]);
        assert!(catalog.views().is_empty());
    }

    #[test]
    fn out_of_domain_foreign_keys_are_rejected_before_commit() {
        let (catalog, _) = seed();
        let engine = Engine::new(catalog.clone());
        let before = catalog.version();
        let bad = vec![Column::i64("pkey", vec![99]), Column::f64("quantity", vec![1.0])];
        let err = engine.append("SALES", &bad).unwrap_err();
        assert!(matches!(err, EngineError::Storage(StorageError::InvalidBinding(_))));
        assert_eq!(catalog.version(), before, "failed appends leave no trace");
        assert_eq!(catalog.table("sales").unwrap().n_rows(), 4);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn appends_record_maintenance_metrics() {
        let (catalog, schema) = seed();
        seed_view(&catalog, &schema, "mv_type", "type");
        let metrics = Arc::new(crate::metrics::EngineMetrics::new());
        let engine = Engine::new(catalog).with_metrics(metrics.clone());
        engine.append("SALES", &batch()).unwrap();
        let s = metrics.snapshot();
        assert_eq!((s.appends, s.mview_delta_merges, s.mview_rebuilds), (1, 1, 0));
    }
}
