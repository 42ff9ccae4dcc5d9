//! The engine proper: `get`, fused `get ⋈ get` (JOP) and fused
//! `get + pivot` (POP) execution.

use std::ops::Range;
use std::sync::Arc;

use olap_model::{
    AggOp, Coordinate, CubeColumn, CubeQuery, CubeSchema, DerivedCube, GroupBySet, MemberId,
    NumericColumn,
};
use olap_storage::{Catalog, CubeBinding, MaterializedAggregate, NumericSlice, Table};

use crate::aggregate::{accumulate_chunk, GroupLanes, GroupTable};
use crate::error::EngineError;
use crate::fault::{FaultInjector, FaultSite};
use crate::governor::{ResourceGovernor, CHECK_INTERVAL};
use crate::key::KeyLayout;
use crate::metrics::{self, EngineMetrics, ScanPath};
use crate::pool::{run_morsels, MorselScan, MorselScratch, ScanRun, WorkerPool};
use crate::predicate::{select_into, CompiledFilter};
use crate::shard::{
    at_shard, merge_shard_scans, Shard, ShardBudget, ShardPartial, ShardScan, ShardSet,
};

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Answer queries from materialized views when possible (the paper's
    /// setup always has them; the ablation bench turns this off).
    pub use_views: bool,
    /// Use foreign-key hash indexes for selective point predicates on
    /// finest levels (the paper's B-tree-indexed keys).
    pub use_indexes: bool,
    /// Maximum fraction of a level's domain a predicate may select and
    /// still take the index path.
    pub index_selectivity: f64,
    /// Rows per morsel — the unit of parallel work distribution *and* of
    /// the deterministic partial-aggregate merge. The default matches the
    /// governor's [`CHECK_INTERVAL`], preserving the serial engine's
    /// budget-check cadence.
    pub morsel_rows: usize,
    /// Cap on threads per scan; `0` = auto (attached pool size + 1, or the
    /// hardware). Clamped further by `ASSESS_MAX_THREADS` at query time.
    pub max_threads: usize,
    /// Minimum row count before a scan uses more than one thread.
    pub parallel_threshold: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            use_views: true,
            use_indexes: true,
            index_selectivity: 0.01,
            morsel_rows: CHECK_INTERVAL,
            max_threads: 0,
            parallel_threshold: 1 << 16,
        }
    }
}

/// The `ASSESS_MAX_THREADS` environment clamp on per-scan parallelism
/// (read fresh per query so tests can flip it); unset/invalid = no clamp.
fn env_thread_cap() -> usize {
    std::env::var("ASSESS_MAX_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(usize::MAX)
}

/// Join semantics: `assess` maps to an inner join, `assess*` to a
/// left-outer join completed with nulls (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    LeftOuter,
}

/// A `get` cost estimate (see [`Engine::estimate_get`]).
#[derive(Debug, Clone, Copy)]
pub struct GetEstimate {
    /// Rows the access path will scan (view or fact table).
    pub rows_scanned: usize,
    /// Whether a materialized view answers the query.
    pub from_view: bool,
    /// Estimated fraction of scanned rows satisfying the predicates.
    pub selectivity: f64,
    /// Estimated result cardinality `|C|`.
    pub cells: f64,
}

/// The result of a `get`, with access-path diagnostics.
#[derive(Debug)]
pub struct GetOutcome {
    pub cube: DerivedCube,
    /// Name of the materialized view answering the query, if one was used.
    pub used_view: Option<String>,
    /// Rows scanned from the fact table or the view.
    pub rows_scanned: usize,
    /// Threads that actually worked the scan (1 = serial; fused operators
    /// report the maximum of their two sides).
    pub parallelism: usize,
    /// Morsels the scan was split into (fused operators report the sum).
    pub morsels: usize,
    /// Per-shard scan statistics when the engine coordinates a
    /// [`ShardSet`]; empty for unsharded execution. The entries sum to
    /// `rows_scanned`/`morsels` (fused operators merge both sides per
    /// shard index).
    pub per_shard: Vec<ShardScan>,
}

/// Access-path diagnostics of an executed get: everything a [`GetOutcome`]
/// reports besides its cube.
#[derive(Debug, Default)]
pub(crate) struct ScanStats {
    pub(crate) used_view: Option<String>,
    pub(crate) rows_scanned: usize,
    pub(crate) parallelism: usize,
    pub(crate) morsels: usize,
    pub(crate) per_shard: Vec<ShardScan>,
}

impl ScanStats {
    /// The stats of one local morsel scan over `rows_scanned` rows.
    fn local(rows_scanned: usize, run: &ScanRun) -> Self {
        ScanStats {
            rows_scanned,
            parallelism: run.parallelism,
            morsels: run.morsels,
            ..ScanStats::default()
        }
    }

    /// Folds the right side of a fused operator into this (left) side:
    /// rows and morsels add up, parallelism is the larger side's, per-shard
    /// entries merge by shard index, and the left side names the view.
    fn fuse(&mut self, right: &ScanStats) {
        self.rows_scanned += right.rows_scanned;
        self.parallelism = self.parallelism.max(right.parallelism);
        self.morsels += right.morsels;
        self.per_shard = merge_shard_scans(&self.per_shard, &right.per_shard);
    }
}

/// An executed get kept in the engine's internal packed representation, so
/// fused operators can join/pivot without materializing coordinates.
pub(crate) struct GetInternal {
    schema: Arc<CubeSchema>,
    group_by: GroupBySet,
    layout: KeyLayout,
    table: GroupTable<u64>,
    measures: Vec<String>,
    scan: ScanStats,
}

impl GetInternal {
    pub(crate) fn new(
        plan: &GetPlan,
        q: &CubeQuery,
        table: GroupTable<u64>,
        scan: ScanStats,
    ) -> Self {
        GetInternal {
            schema: plan.schema.clone(),
            group_by: q.group_by.clone(),
            layout: plan.layout.clone(),
            table,
            measures: q.measures.clone(),
            scan,
        }
    }

    /// Emits the groups at `rows` (slots of the group table; `None` = every
    /// group, with no per-row pass) as a sorted cube: coordinates unpacked
    /// from the packed keys, the finalized measures, then `extra` columns.
    pub(crate) fn emit(
        self,
        rows: Option<&[usize]>,
        extra: Vec<CubeColumn>,
    ) -> Result<GetOutcome, EngineError> {
        let GetInternal { schema, group_by, layout, table, measures, scan } = self;
        let (keys, cols) = table.finish();
        let keys = pick(keys, rows);
        let coord_cols = (0..group_by.arity())
            .map(|c| keys.iter().map(|&key| layout.unpack_component(key, c)).collect())
            .collect();
        let columns = measures
            .into_iter()
            .zip(cols)
            .map(|(name, col)| CubeColumn::Numeric(NumericColumn::dense(name, pick(col, rows))))
            .chain(extra)
            .collect();
        emit(schema, group_by, coord_cols, columns, scan)
    }
}

/// The entries of `col` at `rows`, in that order; `None` keeps them all.
fn pick<T: Copy>(col: Vec<T>, rows: Option<&[usize]>) -> Vec<T> {
    match rows {
        None => col,
        Some(rows) => rows.iter().map(|&i| col[i]).collect(),
    }
}

/// The one emitter of engine results — queries, fused operators, the wide
/// fallback and view maintenance: assembles the cube, sorts it into the
/// canonical coordinate order and attaches the access-path diagnostics.
pub(crate) fn emit(
    schema: Arc<CubeSchema>,
    group_by: GroupBySet,
    coord_cols: Vec<Vec<MemberId>>,
    columns: Vec<CubeColumn>,
    scan: ScanStats,
) -> Result<GetOutcome, EngineError> {
    let mut cube = DerivedCube::from_parts(schema, group_by, coord_cols, columns)?;
    cube.sort_by_coordinates();
    let ScanStats { used_view, rows_scanned, parallelism, morsels, per_shard } = scan;
    Ok(GetOutcome { cube, used_view, rows_scanned, parallelism, morsels, per_shard })
}

/// A validated `get`: its cube binding, schema, per-measure operators and
/// packed-key layout.
pub(crate) struct GetPlan {
    pub(crate) binding: Arc<CubeBinding>,
    pub(crate) schema: Arc<CubeSchema>,
    pub(crate) ops: Vec<AggOp>,
    pub(crate) layout: KeyLayout,
}

impl GetPlan {
    /// Validates `q` against `binding` and lays out its packed group-by key.
    pub(crate) fn new(binding: Arc<CubeBinding>, q: &CubeQuery) -> Result<Self, EngineError> {
        let schema = binding.schema().clone();
        q.validate(&schema)?;
        let ops: Vec<AggOp> = q
            .measures
            .iter()
            .map(|m| schema.require_measure(m).map(|d| d.agg()))
            .collect::<Result<_, _>>()?;
        let cardinalities: Vec<usize> = q
            .group_by
            .included_hierarchies()
            .map(|(hi, li)| {
                schema.hierarchy(hi).and_then(|h| h.level(li)).map(|l| l.cardinality()).unwrap_or(0)
            })
            .collect();
        let layout = KeyLayout::for_cardinalities(&cardinalities);
        Ok(GetPlan { binding, schema, ops, layout })
    }
}

/// Which storage object a morsel-driven scan reads: a row range of a fact
/// table (morsels number from the range start), or a whole view.
pub(crate) enum ScanSource {
    Fact { table: Arc<Table>, rows: Range<usize> },
    View(Arc<MaterializedAggregate>),
}

/// The shared, immutable context of one morsel-driven scan: the source,
/// compiled predicate masks, roll-up maps and resolved column indexes.
/// Column *existence and types* are validated when the context is built.
///
/// Per morsel, workers first decode every distinct id column into a flat
/// `u32` lane of the scratch (`DataChunk::key_lane` unpacks bit-packed and
/// RLE key columns; views copy coordinate components) and convert measures
/// to `f64` lanes, then run the branch-free select + accumulate kernels
/// over those lanes — the inner loops never branch on the physical
/// encoding.
pub(crate) struct ScanCtx {
    pub(crate) source: ScanSource,
    /// Distinct id columns the kernels read (fact: fk column index; view:
    /// coordinate component), each decoded into one scratch lane per morsel.
    /// Masks and keys refer to these by slot, so a column shared by a
    /// predicate and a group-by component decodes once.
    pub(crate) lane_cols: Vec<usize>,
    /// Per predicate: the lane slot of its id column and the allowed-member
    /// mask over its domain.
    pub(crate) masks: Vec<(usize, Arc<[bool]>)>,
    /// Per group-by component: the lane slot and the roll-up map (member
    /// ids as raw codes) from the carried level to the queried level.
    pub(crate) keys: Vec<(usize, Vec<u32>)>,
    /// Measure columns (fact: table column index; view: measure index).
    pub(crate) measures: Vec<usize>,
    layout: KeyLayout,
    ops: Vec<AggOp>,
}

/// The scratch-lane slot for id column `col`, reusing an existing slot when
/// the column is already scheduled for decode.
fn lane_slot(lane_cols: &mut Vec<usize>, col: usize) -> usize {
    lane_cols.iter().position(|&c| c == col).unwrap_or_else(|| {
        lane_cols.push(col);
        lane_cols.len() - 1
    })
}

impl ScanCtx {
    /// Resolves the fact-side scan of `q` over rows `rows` of `fact` — the
    /// one fact-scan builder. Queries scan the committed table over `0..n`;
    /// append maintenance scans the grown, uncommitted table over the
    /// delta's rows (or `0..n` for a rebuild). Every column is resolved and
    /// type-checked here (borrowing, never copying measure columns), so
    /// workers can index into chunks infallibly. Foreign keys may be plain
    /// `i64` or encoded key columns — both decode into the same flat lanes.
    pub(crate) fn for_fact(
        plan: &GetPlan,
        q: &CubeQuery,
        fact: &Arc<Table>,
        rows: Range<usize>,
    ) -> Result<ScanCtx, EngineError> {
        let (binding, schema) = (&plan.binding, &plan.schema);
        let carrier: Vec<Option<usize>> = vec![Some(0); schema.hierarchies().len()];
        let filter = CompiledFilter::compile(schema, &q.predicates, &carrier)?;
        let mut lane_cols: Vec<usize> = Vec::new();
        let mut masks: Vec<(usize, Arc<[bool]>)> = Vec::new();
        for m in filter.masks() {
            let idx = fact.require_key_like(binding.fk_column(m.hierarchy))?;
            masks.push((lane_slot(&mut lane_cols, idx), m.mask.clone()));
        }
        let mut keys: Vec<(usize, Vec<u32>)> = Vec::new();
        for (hi, li) in q.group_by.included_hierarchies() {
            let idx = fact.require_key_like(binding.fk_column(hi))?;
            let h = schema.hierarchy(hi).expect("hierarchy in range");
            let roll: Vec<u32> = h.composed_map(0, li)?.iter().map(|m| m.0).collect();
            keys.push((lane_slot(&mut lane_cols, idx), roll));
        }
        let mut measures: Vec<usize> = Vec::new();
        for m in &q.measures {
            let col_name = binding.measure_column_by_name(m).ok_or_else(|| {
                EngineError::Model(olap_model::ModelError::UnknownMeasure(m.clone()))
            })?;
            fact.numeric_slice(col_name).map_err(|_| {
                EngineError::Unsupported(format!("measure column `{col_name}` is not numeric"))
            })?;
            measures.push(fact.column_index(col_name).expect("numeric_slice checked existence"));
        }
        Ok(ScanCtx {
            source: ScanSource::Fact { table: fact.clone(), rows },
            lane_cols,
            masks,
            keys,
            measures,
            layout: plan.layout.clone(),
            ops: plan.ops.clone(),
        })
    }

    /// Runs the select and accumulate kernels over one chunk's lanes.
    fn run_kernels(
        &self,
        sel: &mut Vec<u32>,
        group: &mut GroupLanes,
        out: &mut GroupTable<u64>,
        len: usize,
        lanes: &[Vec<u32>],
        measures: &[&[f64]],
    ) {
        let selection = if self.masks.is_empty() {
            None
        } else {
            let masks: Vec<(&[u32], &[bool])> =
                self.masks.iter().map(|(slot, m)| (lanes[*slot].as_slice(), &**m)).collect();
            select_into(sel, len, &masks);
            Some(sel.as_slice())
        };
        let keys: Vec<(&[u32], &[u32])> = self
            .keys
            .iter()
            .map(|(slot, roll)| (lanes[*slot].as_slice(), roll.as_slice()))
            .collect();
        accumulate_chunk(out, group, &self.layout, len, selection, &keys, measures);
    }

    /// Gathers the fact rows `rows` into the scratch lanes by point reads
    /// and runs the kernels over them as one chunk — the hash-index path,
    /// whose sparse row sets would waste a range decode.
    fn process_rows(
        &self,
        fact: &Table,
        rows: &[u32],
        scratch: &mut MorselScratch,
        out: &mut GroupTable<u64>,
    ) {
        scratch.ensure_slots(self.lane_cols.len(), self.measures.len());
        let cols = fact.columns();
        for (col, buf) in self.lane_cols.iter().zip(scratch.lanes.iter_mut()) {
            let codes = cols[*col].key_access().expect("validated key column");
            buf.clear();
            buf.extend(rows.iter().map(|&row| codes.get(row as usize) as u32));
        }
        for (col, buf) in self.measures.iter().zip(scratch.vals.iter_mut()) {
            let values = NumericSlice::from_column(&cols[*col]).expect("validated measure");
            buf.clear();
            buf.extend(rows.iter().map(|&row| values.get(row as usize)));
        }
        let measures: Vec<&[f64]> =
            scratch.vals[..self.measures.len()].iter().map(Vec::as_slice).collect();
        let MorselScratch { sel, lanes, group, .. } = scratch;
        self.run_kernels(sel, group, out, rows.len(), lanes, &measures);
    }
}

impl MorselScan for ScanCtx {
    fn n_rows(&self) -> usize {
        match &self.source {
            ScanSource::Fact { rows, .. } => rows.len(),
            ScanSource::View(v) => v.len(),
        }
    }

    fn new_table(&self) -> GroupTable<u64> {
        GroupTable::new(&self.ops)
    }

    fn process(
        &self,
        lo: usize,
        hi: usize,
        scratch: &mut MorselScratch,
        out: &mut GroupTable<u64>,
    ) -> Result<(), EngineError> {
        let len = hi - lo;
        scratch.ensure_slots(self.lane_cols.len(), self.measures.len());
        match &self.source {
            ScanSource::Fact { table: t, rows } => {
                let (lo, hi) = (rows.start + lo, rows.start + hi);
                // Morsel skipping: a masked run-length column whose
                // overlapping runs all fail its mask proves no row of the
                // morsel survives the predicate conjunction, so the decode
                // and the kernels can be skipped outright. On date-
                // clustered facts this prunes most of the table for
                // time-sliced queries; bit-packed columns answer "maybe"
                // and take the normal path.
                let cant_match = |(slot, m): &(usize, Arc<[bool]>)| {
                    matches!(
                        &t.columns()[self.lane_cols[*slot]].data,
                        olap_storage::ColumnData::Key(k)
                            if !k.codes.may_match(lo, hi, |c| {
                                m.get(c as usize).copied().unwrap_or(false)
                            })
                    )
                };
                if self.masks.iter().any(cant_match) {
                    return Ok(());
                }
                let chunk = t.chunk(lo, len);
                for (col, buf) in self.lane_cols.iter().zip(scratch.lanes.iter_mut()) {
                    chunk.key_lane(*col, buf).expect("validated key column");
                }
                let mut measures: Vec<&[f64]> = Vec::with_capacity(self.measures.len());
                for (idx, buf) in self.measures.iter().zip(scratch.vals.iter_mut()) {
                    measures.push(chunk.f64_lane(*idx, buf).expect("validated measure column"));
                }
                let (sel, group) = (&mut scratch.sel, &mut scratch.group);
                self.run_kernels(sel, group, out, len, &scratch.lanes, &measures);
            }
            ScanSource::View(v) => {
                for (comp, buf) in self.lane_cols.iter().zip(scratch.lanes.iter_mut()) {
                    buf.clear();
                    buf.extend(v.coord_cols()[*comp][lo..hi].iter().map(|m| m.0));
                }
                let measures: Vec<&[f64]> = self
                    .measures
                    .iter()
                    .map(|idx| &v.measure_at(*idx).expect("validated view measure")[lo..hi])
                    .collect();
                let (sel, group) = (&mut scratch.sel, &mut scratch.group);
                self.run_kernels(sel, group, out, len, &scratch.lanes, &measures);
            }
        }
        Ok(())
    }
}

/// The physical execution engine over a [`Catalog`].
///
/// Cloning is cheap (the catalog is shared); the assess runtime clones the
/// engine per execution attempt to attach a fresh [`ResourceGovernor`].
#[derive(Clone)]
pub struct Engine {
    catalog: Arc<Catalog>,
    config: EngineConfig,
    /// Resource limits this engine's executions run under; `None` = no
    /// limits and no cooperative cancellation.
    governor: Option<Arc<ResourceGovernor>>,
    /// Deterministic fault injection for resilience tests; `None` (the
    /// default) injects nothing.
    faults: Option<Arc<FaultInjector>>,
    /// Worker pool for parallel scans; `None` falls back to the
    /// process-wide [`WorkerPool::global`] when a scan wants helpers.
    pool: Option<Arc<WorkerPool>>,
    /// Scan-metrics registry; defaults to the process-wide
    /// [`metrics::global`] registry.
    metrics: Arc<EngineMetrics>,
    /// Shard topology this engine coordinates over; `None` (the default)
    /// executes against its own catalog directly.
    shards: Option<Arc<ShardSet>>,
}

impl Engine {
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Engine::with_config(catalog, EngineConfig::default())
    }

    pub fn with_config(catalog: Arc<Catalog>, config: EngineConfig) -> Self {
        Engine {
            catalog,
            config,
            governor: None,
            faults: None,
            pool: None,
            metrics: metrics::global().clone(),
            shards: None,
        }
    }

    /// Attaches a resource governor; all subsequent queries check it at
    /// operator boundaries and once per claimed morsel inside scans.
    pub fn with_governor(mut self, governor: Arc<ResourceGovernor>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Attaches a fault injector (resilience tests only).
    pub fn with_fault_injector(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a shared worker pool for parallel scans (the serve layer
    /// builds one per process so concurrent queries share the cores).
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Attaches a private scan-metrics registry, replacing the process-wide
    /// default — tests use this so concurrent test threads cannot perturb
    /// each other's counter deltas.
    pub fn with_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// The scan-metrics registry this engine records into.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// Attaches a shard topology: this engine becomes a scatter-gather
    /// coordinator. Its own catalog keeps the dimension tables, bindings
    /// (over empty-but-typed fact tables) and delta history; scans and
    /// appends fan out to the shards. See [`crate::shard`].
    pub fn with_shards(mut self, shards: Arc<ShardSet>) -> Self {
        self.shards = Some(shards);
        self
    }

    /// The shard topology this engine coordinates, if any.
    pub fn shards(&self) -> Option<&Arc<ShardSet>> {
        self.shards.as_ref()
    }

    /// The sub-engine executing one local shard: same configuration,
    /// governor (budgets are global across the fan-out), fault injector,
    /// worker pool and metrics registry — but the shard's own catalog and
    /// no shard set (recursion-safe).
    pub(crate) fn for_shard(&self, catalog: Arc<Catalog>) -> Engine {
        Engine {
            catalog,
            config: self.config.clone(),
            governor: self.governor.clone(),
            faults: self.faults.clone(),
            pool: self.pool.clone(),
            metrics: self.metrics.clone(),
            shards: None,
        }
    }

    /// Tightens the per-scan thread cap: the effective cap becomes the
    /// minimum of the current configuration and `n` (`0` is ignored).
    /// Used by the assess runtime to apply `ExecutionPolicy::max_threads`.
    pub fn with_thread_cap(mut self, n: usize) -> Self {
        if n > 0 {
            self.config.max_threads =
                if self.config.max_threads == 0 { n } else { self.config.max_threads.min(n) };
        }
        self
    }

    /// The degree-of-parallelism ceiling scans run under: the configured
    /// cap (or the pool/hardware when auto), clamped by the
    /// `ASSESS_MAX_THREADS` environment override. Data-size gating
    /// ([`EngineConfig::parallel_threshold`]) applies on top per scan.
    pub fn parallelism_cap(&self) -> usize {
        let cap = if self.config.max_threads == 0 {
            match &self.pool {
                Some(p) => p.threads() + 1,
                None => std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            }
        } else {
            self.config.max_threads
        };
        cap.min(env_thread_cap()).max(1)
    }

    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    pub fn governor(&self) -> Option<&Arc<ResourceGovernor>> {
        self.governor.as_ref()
    }

    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Fault-injection trigger point (no-op without an injector).
    fn fault(&self, site: FaultSite) -> Result<(), EngineError> {
        match &self.faults {
            Some(f) => f.check(site),
            None => Ok(()),
        }
    }

    /// Cooperative deadline/cancellation checkpoint.
    pub(crate) fn gov_check(&self) -> Result<(), EngineError> {
        match &self.governor {
            Some(g) => g.check(),
            None => Ok(()),
        }
    }

    /// Charges scanned rows against the budget (pre-charged, so over-budget
    /// scans fail before doing the work).
    fn gov_charge_rows(&self, n: usize) -> Result<(), EngineError> {
        match &self.governor {
            Some(g) => g.charge_rows_scanned(n as u64),
            None => Ok(()),
        }
    }

    /// Charges a query op's materialized result cells against the budget —
    /// once per op, on the cube it returns.
    fn charge_cells(&self, out: GetOutcome) -> Result<GetOutcome, EngineError> {
        if let Some(g) = &self.governor {
            g.charge_output_cells(out.cube.len() as u64)?;
        }
        Ok(out)
    }

    /// Drives a morsel scan: resolves the effective degree of parallelism
    /// (size gating, config/env caps), picks the pool, and hands off to
    /// [`run_morsels`] under this engine's governor and fault injector.
    /// Small inputs run serially on the caller's thread through the same
    /// code path, so results are byte-identical at every thread count.
    pub(crate) fn run_scan(&self, ctx: ScanCtx) -> Result<ScanRun, EngineError> {
        let n_rows = MorselScan::n_rows(&ctx);
        let morsel_rows = self.config.morsel_rows.max(1);
        let dop = if n_rows < self.config.parallel_threshold { 1 } else { self.parallelism_cap() };
        let pool = (dop > 1).then(|| self.pool.clone().unwrap_or_else(WorkerPool::global));
        let (governor, faults) = (self.governor.clone(), self.faults.clone());
        run_morsels(pool.as_ref(), dop, morsel_rows, Arc::new(ctx), governor, faults)
    }

    /// Appends a batch of fact rows to `cube`'s fact table, incrementally
    /// maintaining every dependent materialized view, and commits table,
    /// views and the change's [`olap_storage::Delta`] under one catalog
    /// version bump. See [`crate::maintain`] for the full contract.
    pub fn append(
        &self,
        cube: &str,
        batch: &[olap_storage::Column],
    ) -> Result<crate::maintain::MaintainOutcome, EngineError> {
        if let Some(set) = &self.shards {
            let set = set.clone();
            return crate::shard::append_sharded(self, &set, cube, batch);
        }
        crate::maintain::append(self, cube, batch)
    }

    /// Executes a cube query (the `get` logical operator, Definition 2.6),
    /// producing a sorted, materialized derived cube.
    ///
    /// Group-by sets whose packed key does not fit a machine word fall back
    /// to a wide-key scan (`crate::wide`) of the same resolved fact-scan
    /// context; fused join/pivot paths keep requiring packed keys.
    pub fn get(&self, q: &CubeQuery) -> Result<GetOutcome, EngineError> {
        let plan = self.plan_get(q)?;
        // The wide fallback reads the coordinator's own fact table, which
        // is empty by design when sharded — a sharded wide get fails in
        // `run_planned` instead.
        if plan.layout.fits_u64() || self.shards.is_some() {
            return self.charge_cells(self.run_planned(q, &plan)?.emit(None, Vec::new())?);
        }
        let fact = self.catalog.table(plan.binding.fact_table())?;
        self.fault(FaultSite::DictLookup)?;
        let ctx = ScanCtx::for_fact(&plan, q, &fact, 0..fact.n_rows())?;
        self.fault(FaultSite::Scan)?;
        self.gov_charge_rows(fact.n_rows())?;
        let out = crate::wide::get_wide(self, &plan, q, &ctx)?;
        self.metrics.record_scan(ScanPath::Wide, out.rows_scanned as u64, out.morsels as u64, 1);
        self.charge_cells(out)
    }

    /// Executes two cube queries and **naturally joins** them inside the
    /// engine (`C ⋈ B`, Listing 4) — the Join-Optimized Plan for external
    /// benchmarks. Cells pair by coordinate equality (Definition 3.1 requires
    /// equal group-by sets). Right-side measures are appended under
    /// `right_renames`.
    pub fn get_join(
        &self,
        left_q: &CubeQuery,
        right_q: &CubeQuery,
        kind: JoinKind,
        right_renames: &[String],
    ) -> Result<GetOutcome, EngineError> {
        let mut left = self.run_get(left_q)?;
        let right = self.run_get(right_q)?;
        check_joinable(&left, &right)?;
        if right_renames.len() != right.measures.len() {
            return Err(EngineError::Unsupported(format!(
                "{} renames for {} benchmark measures",
                right_renames.len(),
                right.measures.len()
            )));
        }
        left.scan.fuse(&right.scan);

        // Probe the benchmark side's group table directly — no separate
        // join index needs to be built.
        let (kept_rows, matches): (Vec<usize>, Vec<Option<usize>>) = left
            .table
            .keys()
            .iter()
            .enumerate()
            .map(|(row, key)| (row, right.table.lookup(key)))
            .filter(|(_, m)| kind == JoinKind::LeftOuter || m.is_some())
            .unzip();
        let (_, right_cols) = right.table.finish();
        let extra = right_renames
            .iter()
            .zip(&right_cols)
            .map(|(name, col)| {
                let data = matches.iter().map(|m| m.map(|slot| col[slot])).collect();
                CubeColumn::Numeric(NumericColumn::nullable(name.clone(), data))
            })
            .collect();
        self.charge_cells(left.emit(Some(&kept_rows), extra)?)
    }

    /// Executes two cube queries and **roll-up joins** them inside the
    /// engine: the right query groups the sliced `hierarchy` at a coarser
    /// level than the left, and every left cell pairs with the right cell
    /// holding its ancestor. The ancestor's `measure` is appended as
    /// `rename` (the ancestor-benchmark extension).
    #[allow(clippy::too_many_arguments)]
    pub fn get_join_rollup(
        &self,
        left_q: &CubeQuery,
        right_q: &CubeQuery,
        hierarchy: usize,
        fine_level: usize,
        coarse_level: usize,
        measure: &str,
        rename: &str,
        kind: JoinKind,
    ) -> Result<GetOutcome, EngineError> {
        let mut left = self.run_get(left_q)?;
        let right = self.run_get(right_q)?;
        let component = left.group_by.component_of(hierarchy).ok_or_else(|| {
            EngineError::NotJoinable(format!(
                "hierarchy #{hierarchy} rolled by the join is not in the group-by set"
            ))
        })?;
        let right_component = right.group_by.component_of(hierarchy).ok_or_else(|| {
            EngineError::NotJoinable("the benchmark dropped the rolled hierarchy".into())
        })?;
        if component != right_component {
            return Err(EngineError::NotJoinable(
                "the two cubes disagree on the rolled hierarchy's position".into(),
            ));
        }
        let midx = right.measures.iter().position(|m| m == measure).ok_or_else(|| {
            EngineError::NotJoinable(format!("measure `{measure}` not in the benchmark query"))
        })?;
        let rollmap = left
            .schema
            .hierarchy(hierarchy)
            .ok_or_else(|| {
                EngineError::Model(olap_model::ModelError::UnknownHierarchy(format!(
                    "#{hierarchy}"
                )))
            })?
            .composed_map(fine_level, coarse_level)?;
        left.scan.fuse(&right.scan);

        let mut kept_rows: Vec<usize> = Vec::new();
        let mut bench_col: Vec<Option<f64>> = Vec::new();
        for (row, &key) in left.table.keys().iter().enumerate() {
            // Re-pack the key in the right cube's layout, substituting the
            // rolled member for the fine one.
            let mut nb_key = 0u64;
            for c in 0..left.group_by.arity() {
                let member = left.layout.unpack_component(key, c);
                let member = if c == component { rollmap[member.index()] } else { member };
                right.layout.pack_component(&mut nb_key, c, member);
            }
            let v = right.table.lookup(&nb_key).map(|slot| right.table.value(midx, slot));
            if kind == JoinKind::Inner && v.is_none() {
                continue;
            }
            kept_rows.push(row);
            bench_col.push(v);
        }
        let extra = vec![CubeColumn::Numeric(NumericColumn::nullable(rename, bench_col))];
        self.charge_cells(left.emit(Some(&kept_rows), extra)?)
    }

    /// Executes two cube queries and **partially joins** them inside the
    /// engine: `C ⋈_{G\l} B` (Section 4.2), where the benchmark holds one or
    /// more slices of level `l` (hierarchy `slice_hierarchy`). Every slice
    /// member in `slice_members` contributes one nullable output column
    /// (`column_names`, same order) holding that slice's value of `measure`
    /// for the matching coordinate — exactly the paper's partial join, whose
    /// output row concatenates the measures of **all** matching benchmark
    /// cells. This is the Join-Optimized Plan for sibling (one slice) and
    /// past (k slices) benchmarks.
    ///
    /// With [`JoinKind::Inner`], target cells with no matching benchmark
    /// cell in any slice are dropped; with [`JoinKind::LeftOuter`] they are
    /// kept with all-null slice columns.
    #[allow(clippy::too_many_arguments)]
    pub fn get_join_sliced(
        &self,
        left_q: &CubeQuery,
        right_q: &CubeQuery,
        slice_hierarchy: usize,
        slice_members: &[MemberId],
        measure: &str,
        column_names: &[String],
        kind: JoinKind,
    ) -> Result<GetOutcome, EngineError> {
        if slice_members.len() != column_names.len() {
            return Err(EngineError::NotJoinable(format!(
                "{} slice members but {} column names",
                slice_members.len(),
                column_names.len()
            )));
        }
        if slice_members.is_empty() {
            return Err(EngineError::NotJoinable("no benchmark slices".into()));
        }
        let mut left = self.run_get(left_q)?;
        let right = self.run_get(right_q)?;
        check_joinable(&left, &right)?;
        let component = left.group_by.component_of(slice_hierarchy).ok_or_else(|| {
            EngineError::NotJoinable(format!(
                "hierarchy #{slice_hierarchy} sliced by the partial join is not in the group-by set"
            ))
        })?;
        let midx = right.measures.iter().position(|m| m == measure).ok_or_else(|| {
            EngineError::NotJoinable(format!("measure `{measure}` not in the benchmark query"))
        })?;
        left.scan.fuse(&right.scan);

        // Probe the benchmark side's group table directly — no separate
        // join index needs to be built.
        let mut kept_rows: Vec<usize> = Vec::new();
        let mut slice_cols: Vec<Vec<Option<f64>>> = vec![Vec::new(); slice_members.len()];
        for (row, &key) in left.table.keys().iter().enumerate() {
            let base = left.layout.clear_component(key, component);
            let mut any = false;
            let mut values: Vec<Option<f64>> = Vec::with_capacity(slice_members.len());
            for &member in slice_members {
                let mut nb_key = base;
                left.layout.pack_component(&mut nb_key, component, member);
                let v = right.table.lookup(&nb_key).map(|slot| right.table.value(midx, slot));
                any |= v.is_some();
                values.push(v);
            }
            if kind == JoinKind::Inner && !any {
                continue;
            }
            kept_rows.push(row);
            for (col, v) in slice_cols.iter_mut().zip(values) {
                col.push(v);
            }
        }
        let extra = column_names
            .iter()
            .zip(slice_cols)
            .map(|(name, col)| CubeColumn::Numeric(NumericColumn::nullable(name.clone(), col)))
            .collect();
        self.charge_cells(left.emit(Some(&kept_rows), extra)?)
    }

    /// Executes one widened cube query and pivots it **inside the engine** —
    /// the Pivot-Optimized Plan's `get + pivot` pushed to SQL (Listing 5).
    ///
    /// `q_all` must select, on `pivot_hierarchy`, both the `reference` slice
    /// and every slice in `neighbors`. The result keeps only the reference
    /// slice; for each neighbor `j` and the measure `measure`, a nullable
    /// column `neighbor_names[j]` holds the neighbor cell's value
    /// (null when the neighbor cell does not exist — cube sparsity).
    #[allow(clippy::too_many_arguments)]
    pub fn get_pivot(
        &self,
        q_all: &CubeQuery,
        pivot_hierarchy: usize,
        reference: MemberId,
        neighbors: &[MemberId],
        measure: &str,
        neighbor_names: &[String],
    ) -> Result<GetOutcome, EngineError> {
        if neighbors.len() != neighbor_names.len() {
            return Err(EngineError::InvalidPivot(format!(
                "{} neighbor slices but {} names",
                neighbors.len(),
                neighbor_names.len()
            )));
        }
        if neighbors.is_empty() {
            return Err(EngineError::InvalidPivot("no neighbor slices".into()));
        }
        let internal = self.run_get(q_all)?;
        let component = internal.group_by.component_of(pivot_hierarchy).ok_or_else(|| {
            EngineError::InvalidPivot(format!(
                "pivot hierarchy #{pivot_hierarchy} is not in the group-by set"
            ))
        })?;
        let midx = internal.measures.iter().position(|m| m == measure).ok_or_else(|| {
            EngineError::InvalidPivot(format!("measure `{measure}` not in the query"))
        })?;

        // Probe the group table directly for neighbor slices — the pivot
        // needs no additional index.
        let (layout, table) = (&internal.layout, &internal.table);
        let mut out_rows: Vec<usize> = Vec::new();
        let mut neighbor_cols: Vec<Vec<Option<f64>>> = vec![Vec::new(); neighbors.len()];
        for (slot, &key) in table.keys().iter().enumerate() {
            if layout.unpack_component(key, component) != reference {
                continue;
            }
            out_rows.push(slot);
            let base = layout.clear_component(key, component);
            for (j, &nb) in neighbors.iter().enumerate() {
                let mut nb_key = base;
                layout.pack_component(&mut nb_key, component, nb);
                neighbor_cols[j].push(table.lookup(&nb_key).map(|s| table.value(midx, s)));
            }
        }
        let extra = neighbor_names
            .iter()
            .zip(neighbor_cols)
            .map(|(name, col)| CubeColumn::Numeric(NumericColumn::nullable(name.clone(), col)))
            .collect();
        self.charge_cells(internal.emit(Some(&out_rows), extra)?)
    }

    /// Estimates the cost of a `get` without running it: the rows the chosen
    /// access path will scan, the filter selectivity, and the expected
    /// result cardinality. Used by the cost-based strategy chooser.
    pub fn estimate_get(&self, q: &CubeQuery) -> Result<GetEstimate, EngineError> {
        let plan = GetPlan::new(self.catalog.binding(&q.cube)?, q)?;
        let schema = &plan.schema;
        // When sharded the coordinator's fact table is empty by design; the
        // estimate counts rows across the shard set instead.
        let fact_rows = match &self.shards {
            Some(set) => set.total_rows(plan.binding.fact_table())?,
            None => self.catalog.table(plan.binding.fact_table())?.n_rows(),
        };
        let (rows, from_view) = match self.view_for(q, &plan) {
            Some(view) => (view.len(), true),
            None => (fact_rows, false),
        };
        let carrier: Vec<Option<usize>> = vec![Some(0); schema.hierarchies().len()];
        let selectivity = CompiledFilter::compile(schema, &q.predicates, &carrier)
            .map(|f| f.estimated_selectivity())
            .unwrap_or(1.0);
        // Group-by slot capacity: the product of the level cardinalities of
        // the included hierarchies, bounded by the qualifying rows.
        let capacity: f64 = q
            .group_by
            .included_hierarchies()
            .map(|(hi, li)| {
                schema
                    .hierarchy(hi)
                    .and_then(|h| h.level(li))
                    .map(|l| l.cardinality() as f64)
                    .unwrap_or(1.0)
            })
            .product();
        let qualifying = rows as f64 * selectivity;
        let cells = qualifying.min(capacity * selectivity.min(1.0)).max(1.0);
        Ok(GetEstimate { rows_scanned: rows, from_view, selectivity, cells })
    }

    /// The materialized view answering `q`, when views are enabled and
    /// every measure sums (views store finalized sums).
    fn view_for(&self, q: &CubeQuery, plan: &GetPlan) -> Option<Arc<MaterializedAggregate>> {
        if !self.config.use_views || plan.ops.iter().any(|op| *op != AggOp::Sum) {
            return None;
        }
        let pred_levels: Vec<(usize, usize)> =
            q.predicates.iter().map(|p| (p.hierarchy, p.level)).collect();
        self.catalog.best_view(&q.group_by, &pred_levels, &q.measures)
    }

    /// Runs a get into the internal packed representation.
    fn run_get(&self, q: &CubeQuery) -> Result<GetInternal, EngineError> {
        self.run_planned(q, &self.plan_get(q)?)
    }

    /// Validates a get and lays out its packed group-by key.
    fn plan_get(&self, q: &CubeQuery) -> Result<GetPlan, EngineError> {
        self.gov_check()?;
        GetPlan::new(self.catalog.binding(&q.cube)?, q)
    }

    /// Runs a planned get; its key must pack into a machine word.
    fn run_planned(&self, q: &CubeQuery, plan: &GetPlan) -> Result<GetInternal, EngineError> {
        if !plan.layout.fits_u64() {
            return Err(EngineError::Unsupported(format!(
                "group-by key needs {} bits; wide keys are not supported by the fused engine paths",
                plan.layout.total_bits()
            )));
        }

        // Scatter-gather: a coordinator fans the scan/aggregate stage out
        // to its shards and merges the partials in ascending shard order.
        if let Some(set) = &self.shards {
            return self.run_get_sharded(q, plan, set);
        }

        // Try the materialized-view path first.
        if let Some(view) = self.view_for(q, plan) {
            self.fault(FaultSite::ViewMatch)?;
            return self.get_from_view(q, plan, &view);
        }

        self.get_from_fact(q, plan)
    }

    /// The coordinator side of a scatter-gather `get`: runs the planned
    /// scan/aggregate stage on every shard in ascending order, merging
    /// each partial into one group table. Local shards execute through
    /// sub-engines sharing this engine's governor/pool/metrics; remote
    /// shards receive the remaining budget and their reported rows are
    /// charged here on receipt. The first shard failure aborts the whole
    /// get — partial merges are discarded, never returned.
    fn run_get_sharded(
        &self,
        q: &CubeQuery,
        plan: &GetPlan,
        set: &ShardSet,
    ) -> Result<GetInternal, EngineError> {
        let mut table: GroupTable<u64> = GroupTable::new(&plan.ops);
        let mut per_shard: Vec<ShardScan> = Vec::with_capacity(set.len());
        let mut used_view: Option<String> = None;
        let mut views_agree = true;
        for (i, shard) in set.shards().iter().enumerate() {
            self.gov_check()?;
            let (partial, scan, view) = match shard {
                Shard::Local(catalog) => {
                    let sub = self.for_shard(catalog.clone());
                    let internal = sub.run_get(q)?;
                    let scan = ShardScan {
                        shard: i,
                        rows_scanned: internal.scan.rows_scanned,
                        parallelism: internal.scan.parallelism,
                        morsels: internal.scan.morsels,
                    };
                    (internal.table, scan, internal.scan.used_view)
                }
                Shard::Remote(t) => {
                    let budget = self.shard_budget();
                    let p: ShardPartial = t.partial(q, budget).map_err(|e| at_shard(set, i, e))?;
                    // Remote rows are charged on receipt; the shard node
                    // enforced the forwarded budget during the scan.
                    self.gov_charge_rows(p.rows_scanned)?;
                    let scan = ShardScan {
                        shard: i,
                        rows_scanned: p.rows_scanned,
                        parallelism: p.parallelism,
                        morsels: p.morsels,
                    };
                    (GroupTable::from_raw(p.keys, p.accs), scan, p.used_view)
                }
            };
            if i == 0 {
                used_view = view;
            } else if used_view != view {
                views_agree = false;
            }
            table.merge(partial);
            per_shard.push(scan);
        }
        let scan = ScanStats {
            used_view: if views_agree { used_view } else { None },
            rows_scanned: per_shard.iter().map(|s| s.rows_scanned).sum(),
            parallelism: per_shard.iter().map(|s| s.parallelism).max().unwrap_or(1),
            morsels: per_shard.iter().map(|s| s.morsels).sum(),
            per_shard,
        };
        Ok(GetInternal::new(plan, q, table, scan))
    }

    /// The remaining budget to forward with a remote shard request.
    fn shard_budget(&self) -> ShardBudget {
        match &self.governor {
            Some(g) => ShardBudget {
                max_rows: g.remaining_rows(),
                deadline_ms: g.remaining_time().map(|d| d.as_millis() as u64),
            },
            None => ShardBudget::default(),
        }
    }

    /// Runs the scan/aggregate stage of `q` and returns the raw partial
    /// aggregate — the shard-node side of scatter-gather execution (the
    /// serve layer exposes this as the `partial` protocol operation).
    pub fn get_partial(&self, q: &CubeQuery) -> Result<ShardPartial, EngineError> {
        let GetInternal { table, scan, .. } = self.run_get(q)?;
        let ScanStats { used_view, rows_scanned, parallelism, morsels, .. } = scan;
        let (keys, accs) = table.into_raw();
        Ok(ShardPartial { keys, accs, used_view, rows_scanned, parallelism, morsels })
    }

    fn get_from_view(
        &self,
        q: &CubeQuery,
        plan: &GetPlan,
        view: &Arc<MaterializedAggregate>,
    ) -> Result<GetInternal, EngineError> {
        self.fault(FaultSite::DictLookup)?;
        let schema = &plan.schema;
        let filter = CompiledFilter::compile(schema, &q.predicates, view.group_by().slots())?;
        // Per included hierarchy of the query: the view coordinate component
        // and the roll-up map from the view's level to the query's level.
        let mut lane_cols: Vec<usize> = Vec::new();
        let mut keys: Vec<(usize, Vec<u32>)> = Vec::new();
        for (hi, li) in q.group_by.included_hierarchies() {
            let view_level = view.group_by().slots()[hi].ok_or_else(|| {
                EngineError::Unsupported("view does not carry a required hierarchy".into())
            })?;
            let comp = view.group_by().component_of(hi).expect("component exists");
            let h = schema.hierarchy(hi).expect("hierarchy in range");
            let roll: Vec<u32> = h.composed_map(view_level, li)?.iter().map(|m| m.0).collect();
            keys.push((lane_slot(&mut lane_cols, comp), roll));
        }
        let mut masks: Vec<(usize, Arc<[bool]>)> = Vec::new();
        for m in filter.masks() {
            let comp = view.group_by().component_of(m.hierarchy).ok_or_else(|| {
                EngineError::Unsupported("view does not carry a predicated hierarchy".into())
            })?;
            masks.push((lane_slot(&mut lane_cols, comp), m.mask.clone()));
        }
        let measures: Vec<usize> =
            q.measures
                .iter()
                .map(|m| {
                    view.measure_names().iter().position(|v| v == m).ok_or_else(|| {
                        EngineError::Unsupported(format!("view lacks measure `{m}`"))
                    })
                })
                .collect::<Result<_, _>>()?;

        let n = view.len();
        self.gov_charge_rows(n)?;
        let run = self.run_scan(ScanCtx {
            source: ScanSource::View(view.clone()),
            lane_cols,
            masks,
            keys,
            measures,
            layout: plan.layout.clone(),
            ops: plan.ops.clone(),
        })?;
        self.metrics.record_scan(
            ScanPath::View,
            n as u64,
            run.morsels as u64,
            run.parallelism as u64,
        );
        let scan =
            ScanStats { used_view: Some(view.name().to_string()), ..ScanStats::local(n, &run) };
        Ok(GetInternal::new(plan, q, run.table, scan))
    }

    fn get_from_fact(&self, q: &CubeQuery, plan: &GetPlan) -> Result<GetInternal, EngineError> {
        let fact = self.catalog.table(plan.binding.fact_table())?;
        self.fault(FaultSite::DictLookup)?;
        let ctx = ScanCtx::for_fact(plan, q, &fact, 0..fact.n_rows())?;

        // Index fast path: a highly selective point predicate on a finest
        // level (e.g. `store = 'SmartMart'`) fetches the matching rows from
        // the foreign-key hash index — the paper's B-tree-indexed keys —
        // instead of scanning the whole fact table. The row set is sparse,
        // so this path stays serial and gathers its rows by point reads,
        // `CHECK_INTERVAL` at a time, into the same lanes and kernels as a
        // morsel scan.
        if self.config.use_indexes {
            if let Some(rows) = self.index_row_set(q, &fact, &plan.binding)? {
                self.gov_charge_rows(rows.len())?;
                let mut table = ctx.new_table();
                let mut scratch = MorselScratch::default();
                for batch in rows.chunks(CHECK_INTERVAL) {
                    self.gov_check()?;
                    ctx.process_rows(&fact, batch, &mut scratch, &mut table);
                }
                self.metrics.record_scan(ScanPath::Index, rows.len() as u64, 0, 1);
                let scan =
                    ScanStats { rows_scanned: rows.len(), parallelism: 1, ..ScanStats::default() };
                return Ok(GetInternal::new(plan, q, table, scan));
            }
        }

        self.fault(FaultSite::Scan)?;
        let n = fact.n_rows();
        self.gov_charge_rows(n)?;
        let run = self.run_scan(ctx)?;
        self.metrics.record_scan(
            ScanPath::Fact,
            n as u64,
            run.morsels as u64,
            run.parallelism as u64,
        );
        let scan = ScanStats::local(n, &run);
        Ok(GetInternal::new(plan, q, run.table, scan))
    }

    /// The fact rows selected by an indexable point predicate, when one
    /// exists and is selective enough to beat a scan: an `Eq` (or small
    /// `In`) predicate at level 0 of some hierarchy, whose member set covers
    /// at most [`EngineConfig::index_selectivity`] of the level's domain.
    fn index_row_set(
        &self,
        q: &CubeQuery,
        fact: &olap_storage::Table,
        binding: &olap_storage::CubeBinding,
    ) -> Result<Option<Vec<u32>>, EngineError> {
        let schema = binding.schema();
        let candidate = q.predicates.iter().find(|p| {
            if p.level != 0 {
                return false;
            }
            let domain = schema
                .hierarchy(p.hierarchy)
                .and_then(|h| h.level(0))
                .map(|l| l.cardinality())
                .unwrap_or(0);
            if domain == 0 {
                return false;
            }
            let members = p.members().len();
            members <= 16 && (members as f64 / domain as f64) <= self.config.index_selectivity
        });
        let Some(pred) = candidate else {
            return Ok(None);
        };
        self.fault(FaultSite::IndexProbe)?;
        let index = self.catalog.hash_index(fact.name(), binding.fk_column(pred.hierarchy))?;
        let mut rows: Vec<u32> = Vec::new();
        for member in pred.members() {
            rows.extend_from_slice(index.lookup(member.0 as i64));
        }
        rows.sort_unstable();
        Ok(Some(rows))
    }
}

/// Joinability check (Definition 3.1): equal group-by sets, and reconciled
/// member domains (identical key layouts).
fn check_joinable(left: &GetInternal, right: &GetInternal) -> Result<(), EngineError> {
    if left.group_by != right.group_by {
        return Err(EngineError::NotJoinable(
            "the target cube and the benchmark have different group-by sets".into(),
        ));
    }
    if left.layout.total_bits() != right.layout.total_bits() {
        return Err(EngineError::NotJoinable(
            "the two cubes have unreconciled member domains".into(),
        ));
    }
    Ok(())
}

/// Convenience used by tests and the assess runtime: the coordinate of a
/// cube row as owned member ids.
pub fn row_coordinate(cube: &DerivedCube, row: usize) -> Coordinate {
    cube.coordinate(row)
}
