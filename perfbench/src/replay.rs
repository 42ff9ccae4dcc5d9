//! The traced run: replays a workload's seeded request stream in-process,
//! calling each layer's public functions in the order the server's
//! `execute_run` and `execute_append` use them, with bench-owned spans
//! around every call. Spans stay in memory; per-request self times are
//! derived from them when the replay ends.

use std::time::Instant;

use assess_core::diag::Diagnostic;
use assess_core::result::AssessedCell;
use assess_core::{cost, plan, stmt, AssessRunner, AssessedCube, ExecutionPolicy, Strategy};
use assess_serve::protocol::{n, ok_response, s, to_line};
use assess_serve::subscribe::CellIndex;
use assess_serve::{
    cache_key, diff_cells, index_cells, parse_request, policy_fingerprint, Op as WireOp,
    ResultCache,
};
use olap_engine::Engine;
use olap_storage::Column;
use serde::Value;

use crate::load::Op;
use crate::oracle;
use crate::wire::{append_line, run_line, Format};

/// One bench-owned span. Spans of one request share `req`; `parent`
/// indexes the enclosing span in the tracer.
#[derive(Clone, Debug)]
pub struct Span {
    pub req: u32,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span store. With `on == false` the replay calls the same
/// functions without taking timestamps (the trace-overhead baseline).
pub struct Tracer {
    epoch: Instant,
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { epoch: Instant::now(), on, spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span; returns its output and the span's index.
    fn time<T>(&mut self, req: u32, name: &'static str, f: impl FnOnce() -> T) -> (T, u32) {
        if !self.on {
            return (f(), u32::MAX);
        }
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let span = Span {
            req,
            name,
            parent: None,
            start_ns: self.ns(t0),
            dur_ns: self.ns(t1) - self.ns(t0),
        };
        self.spans.push(span);
        (out, (self.spans.len() - 1) as u32)
    }

    fn span<T>(&mut self, req: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time(req, name, f).0
    }

    /// Adds child spans laid end to end from the parent's start (the
    /// execution report gives stage durations, not start times).
    fn children(&mut self, parent: u32, parts: &[(&'static str, std::time::Duration)]) {
        if !self.on {
            return;
        }
        let (req, mut at) = {
            let p = &self.spans[parent as usize];
            (p.req, p.start_ns)
        };
        for (name, d) in parts {
            let dur_ns = d.as_nanos() as u64;
            if dur_ns > 0 {
                self.spans.push(Span { req, name, parent: Some(parent), start_ns: at, dur_ns });
                at += dur_ns;
            }
        }
    }

    /// The spans as JSON lines, for writing out at the end of the run.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for sp in &self.spans {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}\n",
                sp.req, sp.name, sp.start_ns, sp.dur_ns
            ));
        }
        out
    }
}

/// Layers of the waterfall, in request order. Probe spans (`probe.*`) are
/// extra calls made only to measure the engine and shards; they are not
/// on the request's path and are left out of the sums.
pub const ROWS: [&str; 17] = [
    "serve.protocol.decode",
    "sql.parse",
    "core.check",
    "serve.cache",
    "core.resolve",
    "core.plan",
    "core.exec",
    "core.stage.get_c",
    "core.stage.get_b",
    "core.stage.get_cb",
    "core.stage.transform",
    "core.stage.join",
    "core.stage.compare",
    "core.stage.label",
    "engine.append",
    "serve.subscribe",
    "serve.encode",
];

/// Maps a span name to its waterfall row (`None` for probes).
fn row_of(name: &str) -> Option<usize> {
    let row = match name {
        "cache.lookup" | "cache.insert" | "cache.delta" => "serve.cache",
        other => other,
    };
    ROWS.iter().position(|r| *r == row)
}

/// A cached result in the bench-owned cache (the server's own entry type
/// is private to it).
pub struct Hit {
    pub cube: AssessedCube,
    pub strategy: Strategy,
    pub rows_scanned: usize,
    pub attempts: usize,
}

/// Engine-side figures gathered by the probes.
#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub get_us: Vec<f64>,
    pub rows_scanned: usize,
    pub cells: usize,
    pub view_hits: usize,
    pub dop: Vec<f64>,
    pub morsels: Vec<f64>,
    pub partial_max_us: Vec<f64>,
    pub partial_mean_us: Vec<f64>,
    pub gather_us: Vec<f64>,
    pub rows_skew: Vec<f64>,
    pub append_us: Vec<f64>,
    pub views_merged: usize,
    pub views_rebuilt: usize,
    pub diff_us: Vec<f64>,
    pub changed_cells: Vec<f64>,
    pub lookup_us: Vec<f64>,
    pub response_bytes: Vec<f64>,
}

/// What one replayed request was and how it went.
#[derive(Clone, Debug)]
pub struct Replayed {
    pub req: u32,
    pub op: Op,
    pub cached: bool,
}

/// A live subscription of the replay: its statement and last evaluation.
struct Sub {
    statement: String,
    index: CellIndex,
}

/// Replay state: the engine under test, a bench-owned result cache that
/// sees the same stream, optional shard engines for the partial probes,
/// and the subscriptions appends re-evaluate.
pub struct Replay {
    engine: Engine,
    runner: AssessRunner,
    cache: ResultCache<Hit>,
    shards: Vec<Engine>,
    subs: Vec<Sub>,
    limit: usize,
    fingerprint: String,
    /// Whether to run the engine/shard probes after each executed run.
    pub probe: bool,
    pub probes: Probes,
    pub replayed: Vec<Replayed>,
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

impl Replay {
    pub fn new(engine: Engine, shards: Vec<Engine>, cache_capacity: usize, limit: usize) -> Self {
        let fingerprint = policy_fingerprint(&ExecutionPolicy::default(), None);
        Replay {
            runner: AssessRunner::new(engine.clone()),
            engine,
            cache: ResultCache::new(cache_capacity),
            shards,
            subs: Vec::new(),
            limit,
            fingerprint,
            probe: true,
            probes: Probes::default(),
            replayed: Vec::new(),
        }
    }

    /// Registers a subscription with its baseline evaluation (untimed, as
    /// in the served run where subscribing is part of set-up).
    pub fn subscribe(&mut self, statement: &str) -> Result<(), String> {
        let cells = oracle::cold(&self.runner, statement)?.cells();
        self.subs.push(Sub { statement: statement.to_string(), index: index_cells(&cells) });
        Ok(())
    }

    /// Replays one `run` request (cells format, cache on).
    pub fn run(&mut self, tr: &mut Tracer, req: u32, op: Op, text: &str) -> Result<(), String> {
        let line = run_line(u64::from(req) + 1, text, Format::Cells(self.limit), true);
        let request = tr
            .span(req, "serve.protocol.decode", || parse_request(line.trim_end()))
            .map_err(|e| e.message)?;
        let WireOp::Run(opts) = request.op else {
            return Err("replayed line is not a run".into());
        };
        let spanned = tr
            .span(req, "sql.parse", || {
                assess_sql::parse_spanned(&stmt::strip_comments(&opts.statement))
            })
            .map_err(|e| e.to_string())?;
        let runner = &self.runner;
        let diagnostics = tr.span(req, "core.check", || {
            runner.check_spanned(&spanned.statement, Some(&spanned.spans))
        });
        if diagnostics.iter().any(Diagnostic::is_error) {
            return Err(format!("check failed: {:?}", diagnostics));
        }
        let (cache, fingerprint) = (&self.cache, &self.fingerprint);
        let version = self.engine.catalog().version();
        let t = Instant::now();
        let (key, hit) = tr.span(req, "cache.lookup", || {
            let key = cache_key(&stmt::normalize(&opts.statement), fingerprint);
            let hit = cache.lookup(&key, version);
            (key, hit)
        });
        self.probes.lookup_us.push(us(t));
        let cached = hit.is_some();
        let id = u64::from(req) + 1;
        let limit = self.limit;
        let line = match hit {
            Some(hit) => tr.span(req, "serve.encode", || encode(id, &hit, true, limit)),
            None => {
                let resolved = tr
                    .span(req, "core.resolve", || runner.resolve(&spanned.statement))
                    .map_err(|e| e.to_string())?;
                let engine = &self.engine;
                let physical = tr
                    .span(req, "core.plan", || {
                        cost::choose(&resolved, engine).and_then(|s| plan::plan(&resolved, s))
                    })
                    .map_err(|e| e.to_string())?;
                let (executed, exec_span) =
                    tr.time(req, "core.exec", || runner.execute_plan(&resolved, &physical));
                let (cube, report) = executed.map_err(|e| e.to_string())?;
                if exec_span != u32::MAX {
                    let st = report.timings;
                    tr.children(
                        exec_span,
                        &[
                            ("core.stage.get_c", st.get_c),
                            ("core.stage.get_b", st.get_b),
                            ("core.stage.get_cb", st.get_cb),
                            ("core.stage.transform", st.transform),
                            ("core.stage.join", st.join),
                            ("core.stage.compare", st.comparison),
                            ("core.stage.label", st.label),
                        ],
                    );
                }
                if self.probe {
                    let q = &resolved.target_query;
                    probe_engine(engine, &self.shards, &mut self.probes, tr, req, q)?;
                }
                let value = Hit {
                    cube,
                    strategy: report.strategy,
                    rows_scanned: report.rows_scanned,
                    // `run_auto` records its one successful attempt;
                    // `execute_plan` records none.
                    attempts: report.attempts.len().max(1),
                };
                // As the server does: respond, then insert.
                let line = tr.span(req, "serve.encode", || encode(id, &value, false, limit));
                tr.span(req, "cache.insert", || cache.insert(key, value, version));
                line
            }
        };
        self.probes.response_bytes.push(line.len() as f64);
        self.replayed.push(Replayed { req, op, cached });
        Ok(())
    }

    /// Replays one `append`: decode, `Engine::append`, the cache delta,
    /// and the re-evaluation + diff of every subscription.
    pub fn append(&mut self, tr: &mut Tracer, req: u32, rows_json: &str) -> Result<(), String> {
        let line = append_line(u64::from(req) + 1, rows_json);
        let request = tr
            .span(req, "serve.protocol.decode", || parse_request(line.trim_end()))
            .map_err(|e| e.message)?;
        let WireOp::Append { cube, rows } = request.op else {
            return Err("replayed line is not an append".into());
        };
        let batch = typed_batch(&rows)?;
        let engine = &self.engine;
        let t = Instant::now();
        let outcome = tr
            .span(req, "engine.append", || engine.append(&cube, &batch))
            .map_err(|e| e.to_string())?;
        self.probes.append_us.push(us(t));
        self.probes.views_merged += outcome.views_merged;
        self.probes.views_rebuilt += outcome.views_rebuilt;
        let cache = &self.cache;
        let (patched, evicted) = tr.span(req, "cache.delta", || cache.apply_delta(&outcome.delta));
        for sub in &mut self.subs {
            let t = Instant::now();
            let runner = &self.runner;
            let (frame, cells) = tr.span(req, "serve.subscribe", || {
                oracle::cold(runner, &sub.statement).map(|cube| {
                    let cells: Vec<AssessedCell> = cube.cells();
                    (diff_cells(&sub.index, &cells), cells)
                })
            })?;
            self.probes.diff_us.push(us(t));
            self.probes.changed_cells.push((frame.changed.len() + frame.removed.len()) as f64);
            sub.index = index_cells(&cells);
        }
        let id = u64::from(req) + 1;
        tr.span(req, "serve.encode", || {
            to_line(&ok_response(
                Some(id),
                vec![
                    ("appended", n(outcome.appended() as u64)),
                    ("version", n(outcome.version())),
                    ("cache_patched", n(patched as u64)),
                    ("cache_evicted", n(evicted as u64)),
                ],
            ))
        });
        self.replayed.push(Replayed { req, op: Op::Append, cached: false });
        Ok(())
    }
}

/// The engine probes of one executed run: `Engine::get` on the target
/// query and, when sharded, `get_partial` on every shard engine.
fn probe_engine(
    engine: &Engine,
    shards: &[Engine],
    p: &mut Probes,
    tr: &mut Tracer,
    req: u32,
    query: &olap_model::CubeQuery,
) -> Result<(), String> {
    let t = Instant::now();
    let got = tr.span(req, "probe.engine.get", || engine.get(query)).map_err(|e| e.to_string())?;
    let get_us = us(t);
    p.get_us.push(get_us);
    p.rows_scanned += got.rows_scanned;
    p.cells += got.cube.len();
    p.view_hits += usize::from(got.used_view.is_some());
    p.dop.push(got.parallelism as f64);
    p.morsels.push(got.morsels as f64);
    if shards.is_empty() {
        return Ok(());
    }
    let mut partials = Vec::with_capacity(shards.len());
    for shard in shards {
        let t = Instant::now();
        tr.span(req, "probe.shard.partial", || shard.get_partial(query))
            .map_err(|e| e.to_string())?;
        partials.push(us(t));
    }
    let max = partials.iter().copied().fold(0.0, f64::max);
    p.partial_max_us.push(max);
    p.partial_mean_us.push(crate::stats::mean(&partials));
    p.gather_us.push((get_us - max).max(0.0));
    let rows: Vec<f64> = got.per_shard.iter().map(|s| s.rows_scanned as f64).collect();
    let mean = crate::stats::mean(&rows);
    if mean > 0.0 {
        p.rows_skew.push(rows.iter().copied().fold(0.0, f64::max) / mean);
    }
    Ok(())
}

/// The server's `run` response for a cached or fresh result, built the
/// way its `run_response` builds it for the cells format.
fn encode(id: u64, hit: &Hit, cached: bool, limit: usize) -> String {
    let labels = Value::Object(
        hit.cube
            .label_histogram()
            .into_iter()
            .map(|(label, count)| (label, n(count as u64)))
            .collect(),
    );
    let rows: Vec<Value> =
        hit.cube.cells().iter().take(limit).map(serde::Serialize::to_value).collect();
    let fields = vec![
        ("cached", Value::Bool(cached)),
        ("strategy", s(hit.strategy.acronym())),
        ("cells", n(hit.cube.len() as u64)),
        ("rows_scanned", n(hit.rows_scanned as u64)),
        ("attempts", n(hit.attempts as u64)),
        ("elapsed_ms", n(0)),
        ("labels", labels),
        ("rows", Value::Array(rows)),
        ("truncated", Value::Bool(hit.cube.len() > limit)),
    ];
    to_line(&ok_response(Some(id), fields))
}

/// Types an append's column object the way the server does for the SSB
/// fact table: foreign keys as `i64`, measures as `f64`.
fn typed_batch(rows: &Value) -> Result<Vec<Column>, String> {
    let Value::Object(fields) = rows else {
        return Err("append rows are not an object".into());
    };
    fields
        .iter()
        .map(|(name, values)| {
            let numbers: Vec<f64> = values
                .as_array()
                .ok_or("append column is not an array")?
                .iter()
                .map(|v| v.as_f64().ok_or("append value is not a number"))
                .collect::<Result<_, _>>()?;
            Ok(if name.ends_with("key") {
                Column::i64(name.clone(), numbers.iter().map(|x| *x as i64).collect())
            } else {
                Column::f64(name.clone(), numbers)
            })
        })
        .collect()
}

/// Per-request self time of every waterfall row, in microseconds, from
/// the recorded spans: a span's duration minus what its children cover.
pub fn self_times(spans: &[Span], requests: usize) -> Vec<[f64; ROWS.len()]> {
    let mut out = vec![[0.0; ROWS.len()]; requests];
    let mut child_ns = vec![0u64; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            child_ns[p as usize] += sp.dur_ns;
        }
    }
    for (i, sp) in spans.iter().enumerate() {
        let (Some(row), Some(slot)) = (row_of(sp.name), out.get_mut(sp.req as usize)) else {
            continue;
        };
        slot[row] += sp.dur_ns.saturating_sub(child_ns[i]) as f64 / 1e3;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { req: 0, name: "core.exec", parent: None, start_ns: 0, dur_ns: 10_000 },
            Span { req: 0, name: "core.stage.get_c", parent: Some(0), start_ns: 0, dur_ns: 6_000 },
            Span { req: 0, name: "cache.lookup", parent: None, start_ns: 0, dur_ns: 1_000 },
            Span { req: 0, name: "cache.insert", parent: None, start_ns: 0, dur_ns: 500 },
            Span { req: 0, name: "probe.engine.get", parent: None, start_ns: 0, dur_ns: 9_000 },
        ];
        let t = self_times(&spans, 1);
        let row = |name| ROWS.iter().position(|r| *r == name).unwrap();
        assert_eq!(t[0][row("core.exec")], 4.0);
        assert_eq!(t[0][row("core.stage.get_c")], 6.0);
        assert_eq!(t[0][row("serve.cache")], 1.5);
        assert_eq!(t[0].iter().sum::<f64>(), 11.5);
    }
}
