//! Wide-key fallback: aggregation with boxed [`Coordinate`] keys.
//!
//! The morsel pipeline packs group-by keys into a `u64`; group-by sets
//! whose combined bit width exceeds 64 (five-plus huge hierarchies at their
//! finest levels) are aggregated here instead, with boxed keys. The scan
//! reads a fact-scan context resolved by the query path's one builder
//! (`ScanCtx::for_fact`): the same lanes, predicate masks, roll-up maps and
//! measure columns a packed scan reads, over the context's row range. It
//! has two callers:
//!
//! * `Engine::get`, which hits [`FaultSite::Scan`](crate::FaultSite),
//!   charges the scanned rows before the scan and records a
//!   [`ScanPath::Wide`](crate::metrics::ScanPath) scan;
//! * append maintenance, which rebuilds a wide view over the grown fact
//!   table and, like every maintenance scan, charges nothing.
//!
//! The scan walks its range one morsel at a time with a governor check per
//! morsel (deadline and cancellation), but stays serial: boxed keys
//! allocate per row, so the scan is allocator-bound and does not profit
//! from helpers. The fused join/pivot operators keep requiring packed keys.

use olap_model::{Coordinate, CubeColumn, CubeQuery, MemberId, NumericColumn};
use olap_storage::NumericSlice;

use crate::aggregate::GroupTable;
use crate::engine::{emit, Engine, GetOutcome, GetPlan, ScanCtx, ScanSource, ScanStats};
use crate::error::EngineError;
use crate::predicate::select_into;

/// Aggregates the fact scan `ctx` of `q` with wide (boxed) keys, straight
/// to a sorted cube.
pub(crate) fn get_wide(
    engine: &Engine,
    plan: &GetPlan,
    q: &CubeQuery,
    ctx: &ScanCtx,
) -> Result<GetOutcome, EngineError> {
    let ScanSource::Fact { table: fact, rows } = &ctx.source else {
        return Err(EngineError::Unsupported("wide keys scan fact tables only".into()));
    };
    let step = engine.config().morsel_rows.max(1);
    let mut table: GroupTable<Coordinate> = GroupTable::new(&plan.ops);
    let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); ctx.lane_cols.len()];
    let mut sel: Vec<u32> = Vec::new();
    let mut key_buf: Vec<MemberId> = vec![MemberId(0); ctx.keys.len()];
    let mut values = vec![0.0f64; ctx.measures.len()];
    let mut morsels = 0usize;
    for lo in rows.clone().step_by(step) {
        engine.gov_check()?;
        morsels += 1;
        let chunk = fact.chunk(lo, step.min(rows.end - lo));
        for (col, buf) in ctx.lane_cols.iter().zip(lanes.iter_mut()) {
            chunk.key_lane(*col, buf).expect("validated key column");
        }
        let masks: Vec<(&[u32], &[bool])> =
            ctx.masks.iter().map(|(slot, m)| (lanes[*slot].as_slice(), &**m)).collect();
        let measures: Vec<NumericSlice<'_>> = ctx
            .measures
            .iter()
            .map(|idx| chunk.numeric_at(*idx).expect("validated measure column"))
            .collect();
        // With no masks `select_into` passes every row; the extra selection
        // vector is noise next to the per-row key allocation below.
        select_into(&mut sel, chunk.len(), &masks);
        for &row in &sel {
            let row = row as usize;
            for (member, (slot, roll)) in key_buf.iter_mut().zip(&ctx.keys) {
                *member = MemberId(roll[lanes[*slot][row] as usize]);
            }
            for (v, m) in values.iter_mut().zip(&measures) {
                *v = m.get(row);
            }
            table.update(Coordinate::new(key_buf.clone()), &values);
        }
    }

    let (keys, cols) = table.finish();
    let coord_cols = (0..q.group_by.arity())
        .map(|c| keys.iter().map(|key| key.members()[c]).collect())
        .collect();
    let columns = q
        .measures
        .iter()
        .zip(cols)
        .map(|(name, data)| CubeColumn::Numeric(NumericColumn::dense(name.clone(), data)))
        .collect();
    let scan =
        ScanStats { rows_scanned: rows.len(), parallelism: 1, morsels, ..ScanStats::default() };
    emit(plan.schema.clone(), q.group_by.clone(), coord_cols, columns, scan)
}
