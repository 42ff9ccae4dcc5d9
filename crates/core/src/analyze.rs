//! Collect-mode static analysis for assess statements.
//!
//! [`ResolvedAssess::resolve`](crate::semantics::ResolvedAssess::resolve)
//! stops at the first problem it hits; that is the right behaviour for an
//! executor, but a miserable one for a user iterating on a statement. The
//! [`Analyzer`] instead walks the whole statement and reports *every*
//! problem it can find as a span-carrying [`Diagnostic`], so one `check`
//! pass surfaces an unknown function, an overlapping label range and a
//! self-referencing sibling benchmark all at once.
//!
//! Two layers of checks run:
//!
//! 1. **Structural checks** mirror the validation in `semantics.rs` clause
//!    by clause (cube, by, measure, predicates, `using` chain, benchmark,
//!    labels), each anchored to the clause's source span when the statement
//!    came from `assess_sql::parse_spanned` and to a dummy span when it
//!    was built programmatically. Lints (`W1xx`) about gaps, unused
//!    benchmarks, degenerate divisions and thin history ride along.
//! 2. **Resolution + engine lints** run only when layer 1 found no errors:
//!    the statement is resolved for real (any residual error is mapped
//!    through [`Diagnostic::from_error`] as a safety net), and, when an
//!    engine is attached, cost-model lints fire — naive-only plans over
//!    large targets (`W105`) and pivot-width explosions (`W106`).
//!
//! The analyzer never panics and never stops early: a statement with an
//! unknown cube still gets its `using` chain and labeling checked.

use crate::ast::{
    AssessStatement, BenchmarkSpec, FuncExpr, FuncSpans, LabelingSpec, PredicateSpans,
    StatementSpans,
};
use crate::diag::{DiagCode, Diagnostic, Sink, Span};
use crate::functions::Function;
use crate::labeling::{self, RangeIssue};
use crate::plan::Strategy;
use crate::semantics::{self, ResolvedAssess, ResolvedBenchmark, SchemaProvider};
use crate::{cost, error::AssessError};
use olap_model::{CubeSchema, GroupBySet, MemberId, Predicate, PredicateOp};
use std::sync::Arc;

/// Canonical statement-syntax names of every built-in `using` function,
/// used for "did you mean" suggestions on `E006`.
const FUNCTION_NAMES: [&str; 11] = [
    "difference",
    "absDifference",
    "normDifference",
    "ratio",
    "percentage",
    "identity",
    "percOfTotal",
    "minMaxNorm",
    "zscore",
    "rank",
    "percentRank",
];

/// `W105` fires when only the naive strategy is feasible and the cost
/// model estimates more scanned rows than this.
const W105_ROW_THRESHOLD: f64 = 10_000.0;

/// `W106` fires for `against past k` with `k` beyond this: the pivoted
/// benchmark matrix grows one column per past slice.
const W106_PAST_LIMIT: u32 = 12;

/// Span-aware, collect-mode checker for [`AssessStatement`]s.
///
/// ```
/// use assess_core::{Analyzer, AssessStatement};
/// # use assess_core::semantics::SchemaProvider;
/// # use olap_model::CubeSchema;
/// # use std::sync::Arc;
/// # struct Empty;
/// # impl SchemaProvider for Empty {
/// #     fn schema_of(&self, _: &str) -> Option<Arc<CubeSchema>> { None }
/// # }
/// let statement = AssessStatement::on("NOWHERE")
///     .by(["region"])
///     .assess("sales")
///     .using(assess_core::FuncExpr::call("nope", vec![]))
///     .labels_named("quartiles")
///     .build();
/// let diags = Analyzer::new(&Empty).check(&statement, None);
/// // One pass reports both the unknown cube and the unknown function.
/// assert!(diags.iter().any(|d| d.code == assess_core::DiagCode::E002));
/// assert!(diags.iter().any(|d| d.code == assess_core::DiagCode::E006));
/// ```
pub struct Analyzer<'a> {
    provider: &'a dyn SchemaProvider,
    engine: Option<&'a olap_engine::Engine>,
}

impl<'a> Analyzer<'a> {
    /// An analyzer over the provider's schemas, without engine lints.
    pub fn new(provider: &'a dyn SchemaProvider) -> Self {
        Analyzer { provider, engine: None }
    }

    /// Attaches an engine so cost-model lints (`W105`, `W106`) can run.
    pub fn with_engine(mut self, engine: &'a olap_engine::Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Checks a statement, returning every diagnostic found, sorted by
    /// source position. `spans` should come from
    /// `assess_sql::parse_spanned`; pass `None` for programmatically built
    /// statements (diagnostics then carry dummy spans).
    pub fn check(
        &self,
        statement: &AssessStatement,
        spans: Option<&StatementSpans>,
    ) -> Vec<Diagnostic> {
        let owned;
        let spans = match spans {
            Some(s) => s,
            None => {
                owned = StatementSpans::dummy_for(statement);
                &owned
            }
        };
        let mut sink = Sink::new();
        let pass = StructuralPass {
            statement,
            spans,
            provider: self.provider,
            engine_attached: self.engine.is_some(),
        };
        pass.run(&mut sink);
        if !sink.has_errors() {
            self.resolve_and_lint(statement, spans, &mut sink);
        }
        sink.finish()
    }

    /// Layer 2: resolve for real (safety net for anything the structural
    /// pass cannot mirror, e.g. data-dependent reconciliation), then run
    /// engine-backed cost lints on the resolved statement.
    fn resolve_and_lint(
        &self,
        statement: &AssessStatement,
        spans: &StatementSpans,
        sink: &mut Sink,
    ) {
        let resolved = match ResolvedAssess::resolve(statement, self.provider) {
            Ok(r) => r,
            Err(e) => {
                let span = span_for_error(&e, spans);
                sink.push(Diagnostic::from_error(&e, span));
                return;
            }
        };
        let Some(engine) = self.engine else { return };

        let feasible: Vec<Strategy> =
            Strategy::all().into_iter().filter(|s| s.feasible_for(&resolved.benchmark)).collect();
        let costs = match cost::estimate_all(&resolved, engine) {
            Ok(c) => c,
            Err(_) => return,
        };

        if feasible == [Strategy::Naive] {
            if let Some(np) = costs.iter().find(|c| c.strategy == "NP") {
                if np.rows_scanned > W105_ROW_THRESHOLD {
                    sink.push(
                        Diagnostic::new(
                            DiagCode::W105,
                            spans.against.unwrap_or(spans.span),
                            format!(
                                "only the naive strategy can run this benchmark, and it scans ~{:.0} rows",
                                np.rows_scanned
                            ),
                        )
                        .with_note(format!(
                            "{} benchmarks cannot use join- or pivot-optimized plans (estimated total cost {:.0})",
                            resolved.benchmark.kind().to_ascii_lowercase(),
                            np.total
                        ))
                        .with_suggestion(
                            "an external, sibling or past benchmark unlocks the optimized strategies",
                        ),
                    );
                }
            }
        }

        if let ResolvedBenchmark::Past { past, .. } = &resolved.benchmark {
            let k = past.len() as u32;
            if k > W106_PAST_LIMIT {
                let mut diag = Diagnostic::new(
                    DiagCode::W106,
                    spans.against.unwrap_or(spans.span),
                    format!(
                        "`past {k}` pivots {k} history columns per group; the pivoted benchmark matrix may explode"
                    ),
                );
                if let Some(pop) = costs.iter().find(|c| c.strategy == "POP") {
                    diag = diag.with_note(format!(
                        "the cost model estimates {:.0} units of client pivot work for the pivot-optimized plan",
                        pop.client_work
                    ));
                }
                sink.push(diag.with_suggestion(
                    "shorten the history window or pre-aggregate the past slices",
                ));
            }
        }
    }
}

/// Maps a residual [`AssessError`] from full resolution to the clause span
/// it most plausibly concerns.
fn span_for_error(error: &AssessError, spans: &StatementSpans) -> Span {
    let dummy = Span::dummy();
    let code = Diagnostic::from_error(error, dummy).code;
    match code {
        DiagCode::E002 => spans.cube,
        DiagCode::E004 => spans.measure,
        DiagCode::E006 | DiagCode::E007 | DiagCode::E015 => {
            spans.using.as_ref().map(|u| u.span).unwrap_or(spans.span)
        }
        DiagCode::E008 | DiagCode::E009 | DiagCode::E010 | DiagCode::E011 => spans.labels,
        DiagCode::E012 | DiagCode::E013 | DiagCode::E014 => spans.against.unwrap_or(spans.span),
        _ => spans.span,
    }
}

/// Layer 1: clause-by-clause structural checks that keep going past
/// errors. Borrowed context for one `check` call.
struct StructuralPass<'a> {
    statement: &'a AssessStatement,
    spans: &'a StatementSpans,
    provider: &'a dyn SchemaProvider,
    /// When an engine is attached the pivot-width lint defers to the
    /// engine phase, which can attach cost-model numbers.
    engine_attached: bool,
}

impl<'a> StructuralPass<'a> {
    fn run(&self, sink: &mut Sink) {
        let schema = self.check_cube(sink);
        let group_by = self.check_group_by(schema.as_deref(), sink);
        self.check_measure(schema.as_deref(), sink);
        let predicates = self.check_predicates(schema.as_deref(), sink);
        self.check_contradictions(schema.as_deref(), predicates.as_deref(), sink);
        self.check_benchmark(schema.as_deref(), group_by.as_ref(), predicates.as_deref(), sink);
        self.check_using(schema.as_deref(), sink);
        self.check_labels(sink);
        self.check_benchmark_usage(sink);
    }

    // ---- with ----------------------------------------------------------

    fn check_cube(&self, sink: &mut Sink) -> Option<Arc<CubeSchema>> {
        match self.provider.schema_of(&self.statement.cube) {
            Some(schema) => Some(schema),
            None => {
                sink.push(
                    Diagnostic::new(
                        DiagCode::E002,
                        self.spans.cube,
                        format!("unknown cube `{}`", self.statement.cube),
                    )
                    .with_note(
                        "the cube must be registered with the catalog before it can be assessed",
                    ),
                );
                None
            }
        }
    }

    // ---- by ------------------------------------------------------------

    fn check_group_by(&self, schema: Option<&CubeSchema>, sink: &mut Sink) -> Option<GroupBySet> {
        if self.statement.by.is_empty() {
            sink.push(
                Diagnostic::new(DiagCode::E016, self.spans.span, "the by clause is empty")
                    .with_suggestion("group by at least one level, e.g. `by month`"),
            );
            return None;
        }
        let schema = schema?;
        let mut used: Vec<(usize, usize)> = Vec::new(); // (hierarchy, position in `by`)
        let mut clean = true;
        for (i, level) in self.statement.by.iter().enumerate() {
            let span = self.spans.by.get(i).copied().unwrap_or_default();
            match schema.locate_level(level) {
                Err(_) => {
                    clean = false;
                    sink.push(unknown_level(schema, level, span));
                }
                Ok((h, _)) => {
                    if let Some(&(_, first)) = used.iter().find(|&&(uh, _)| uh == h) {
                        clean = false;
                        let hname =
                            schema.hierarchy(h).map(|x| x.name().to_owned()).unwrap_or_default();
                        let first_level = self.statement.by.get(first).cloned().unwrap_or_default();
                        sink.push(
                            Diagnostic::new(
                                DiagCode::E016,
                                span,
                                format!(
                                    "levels `{first_level}` and `{level}` both belong to hierarchy `{hname}`"
                                ),
                            )
                            .with_note("a group-by set holds at most one level per hierarchy"),
                        );
                    } else {
                        used.push((h, i));
                    }
                }
            }
        }
        if clean {
            GroupBySet::from_level_names(schema, &self.statement.by).ok()
        } else {
            None
        }
    }

    // ---- assess --------------------------------------------------------

    fn check_measure(&self, schema: Option<&CubeSchema>, sink: &mut Sink) {
        let Some(schema) = schema else { return };
        if schema.measure_index(&self.statement.measure).is_none() {
            sink.push(unknown_measure(schema, &self.statement.measure, self.spans.measure));
        }
    }

    // ---- for -----------------------------------------------------------

    /// Checks every predicate; returns the resolved list only when *all*
    /// resolved, since the benchmark checks below reason over the full set.
    fn check_predicates(
        &self,
        schema: Option<&CubeSchema>,
        sink: &mut Sink,
    ) -> Option<Vec<Predicate>> {
        let schema = schema?;
        let mut resolved = Vec::new();
        let mut clean = true;
        for (i, pred) in self.statement.for_preds.iter().enumerate() {
            let pspans = self.spans.for_preds.get(i).cloned().unwrap_or_else(|| PredicateSpans {
                span: Span::dummy(),
                level: Span::dummy(),
                members: vec![Span::dummy(); pred.members.len()],
            });
            let (h, li) = match schema.locate_level(&pred.level) {
                Ok(loc) => loc,
                Err(_) => {
                    clean = false;
                    sink.push(unknown_level(schema, &pred.level, pspans.level));
                    continue;
                }
            };
            let level = schema.hierarchy(h).and_then(|x| x.level(li));
            let mut ids = Vec::new();
            for (j, member) in pred.members.iter().enumerate() {
                let mspan = pspans.members.get(j).copied().unwrap_or_default();
                match level.and_then(|l| l.member_id(member)) {
                    Some(id) => ids.push(id),
                    None => {
                        clean = false;
                        let mut diag = Diagnostic::new(
                            DiagCode::E005,
                            mspan,
                            format!("level `{}` has no member `{member}`", pred.level),
                        );
                        if let Some(near) =
                            level.and_then(|l| nearest(member, l.members().map(|(_, n)| n)))
                        {
                            diag = diag.with_suggestion(format!("did you mean `{near}`?"));
                        }
                        sink.push(diag);
                    }
                }
            }
            if ids.len() == pred.members.len() {
                let op = match ids.as_slice() {
                    [one] => PredicateOp::Eq(*one),
                    _ => PredicateOp::In(ids),
                };
                resolved.push(Predicate { hierarchy: h, level: li, op });
            }
        }
        clean.then_some(resolved)
    }

    /// `E018`: the conjunction of `for` predicates on one level selects no
    /// member — the target cube is provably empty before any scan runs.
    /// Runs only when every predicate resolved (index-aligned with
    /// `for_preds`), so spans can point at the contradicting clause.
    fn check_contradictions(
        &self,
        schema: Option<&CubeSchema>,
        predicates: Option<&[Predicate]>,
        sink: &mut Sink,
    ) {
        let (Some(schema), Some(preds)) = (schema, predicates) else { return };
        // Group predicate indices by (hierarchy, level), preserving order.
        let mut groups: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for (i, p) in preds.iter().enumerate() {
            match groups.iter_mut().find(|(h, l, _)| *h == p.hierarchy && *l == p.level) {
                Some((_, _, idxs)) => idxs.push(i),
                None => groups.push((p.hierarchy, p.level, vec![i])),
            }
        }
        for (h, l, idxs) in groups {
            let (Some(&first), true) = (idxs.first(), idxs.len() >= 2) else { continue };
            let mut surviving = preds.get(first).map(Predicate::members).unwrap_or_default();
            for &i in idxs.iter().skip(1) {
                let members = preds.get(i).map(Predicate::members).unwrap_or_default();
                surviving.retain(|m| members.contains(m));
            }
            if !surviving.is_empty() {
                continue;
            }
            let level_name = schema
                .hierarchy(h)
                .and_then(|x| x.level(l))
                .map(|lvl| lvl.name().to_owned())
                .unwrap_or_default();
            let last = idxs.last().copied().unwrap_or(first);
            let span = self
                .spans
                .for_preds
                .get(last)
                .map(|s| s.span)
                .filter(|s| !s.is_dummy())
                .unwrap_or(self.spans.span);
            sink.push(
                Diagnostic::new(
                    DiagCode::E018,
                    span,
                    format!(
                        "the for clause slices `{level_name}` {} times with no member in common",
                        idxs.len()
                    ),
                )
                .with_note("predicates are conjunctive: a cell must satisfy all of them, so the target cube is provably empty")
                .with_suggestion(format!(
                    "keep a single `{level_name}` predicate, or list the wanted members in one `in (…)`"
                )),
            );
        }
    }

    // ---- against -------------------------------------------------------

    fn check_benchmark(
        &self,
        schema: Option<&CubeSchema>,
        group_by: Option<&GroupBySet>,
        predicates: Option<&[Predicate]>,
        sink: &mut Sink,
    ) {
        let span = self.spans.against.unwrap_or(self.spans.span);
        match &self.statement.against {
            None | Some(BenchmarkSpec::Constant(_)) => {}
            Some(BenchmarkSpec::External { cube, measure }) => {
                let Some(ext) = self.provider.schema_of(cube) else {
                    sink.push(
                        Diagnostic::new(DiagCode::E002, span, format!("unknown cube `{cube}`"))
                            .with_note(
                                "the external benchmark cube must be registered with the catalog",
                            ),
                    );
                    return;
                };
                if ext.measure_index(measure).is_none() {
                    let mut diag = Diagnostic::new(
                        DiagCode::E012,
                        span,
                        format!("cube `{cube}` has no measure `{measure}`"),
                    );
                    if let Some(near) = nearest(measure, ext.measures().iter().map(|m| m.name())) {
                        diag = diag.with_suggestion(format!("did you mean `{near}`?"));
                    }
                    sink.push(diag);
                }
                let Some(schema) = schema else { return };
                if GroupBySet::from_level_names(&ext, &self.statement.by).is_err() {
                    sink.push(
                        Diagnostic::new(
                            DiagCode::E012,
                            span,
                            format!("external cube `{cube}` is not reconciled with the target"),
                        )
                        .with_note(
                            "every group-by level must exist in both cubes with the same members",
                        ),
                    );
                }
                for pred in &self.statement.for_preds {
                    if schema.locate_level(&pred.level).is_ok()
                        && ext.locate_level(&pred.level).is_err()
                    {
                        sink.push(
                            Diagnostic::new(
                                DiagCode::E012,
                                span,
                                format!(
                                    "the for-clause predicates cannot be applied to external cube `{cube}`"
                                ),
                            )
                            .with_note(format!("`{}` has no level `{}`", cube, pred.level)),
                        );
                        break;
                    }
                }
            }
            Some(BenchmarkSpec::Sibling { level, member }) => {
                let Some(schema) = schema else { return };
                let (h, li) = match schema.locate_level(level) {
                    Ok(loc) => loc,
                    Err(_) => {
                        sink.push(unknown_level(schema, level, span));
                        return;
                    }
                };
                if let Some(gb) = group_by {
                    if gb.slots().get(h).copied() != Some(Some(li)) {
                        sink.push(
                            Diagnostic::new(
                                DiagCode::E012,
                                span,
                                format!("sibling level `{level}` must appear in the by clause"),
                            )
                            .with_suggestion(format!("add `{level}` to the by clause")),
                        );
                    }
                }
                let lvl = schema.hierarchy(h).and_then(|x| x.level(li));
                let sibling_id = lvl.and_then(|l| l.member_id(member));
                if sibling_id.is_none() {
                    let mut diag = Diagnostic::new(
                        DiagCode::E005,
                        span,
                        format!("level `{level}` has no member `{member}`"),
                    );
                    if let Some(near) =
                        lvl.and_then(|l| nearest(member, l.members().map(|(_, n)| n)))
                    {
                        diag = diag.with_suggestion(format!("did you mean `{near}`?"));
                    }
                    sink.push(diag);
                }
                let Some(preds) = predicates else { return };
                let target = preds.iter().find_map(|p| match p.op {
                    PredicateOp::Eq(id) if p.hierarchy == h && p.level == li => Some(id),
                    _ => None,
                });
                match target {
                    None => sink.push(
                        Diagnostic::new(
                            DiagCode::E012,
                            span,
                            format!(
                                "a sibling benchmark needs a `for {level} = …` slice on the target"
                            ),
                        )
                        .with_suggestion(format!(
                            "add `for {level} = '<member>'` to pick the target slice"
                        )),
                    ),
                    Some(target_id) => {
                        if Some(target_id) == sibling_id {
                            sink.push(
                                Diagnostic::new(
                                    DiagCode::E013,
                                    span,
                                    format!("the sibling member `{member}` is the target's own slice"),
                                )
                                .with_note("comparing a slice against itself labels every cell with the neutral range")
                                .with_suggestion(format!("compare against a different member of `{level}`")),
                            );
                        }
                    }
                }
            }
            Some(BenchmarkSpec::Past(k)) => {
                let k = *k;
                if k == 0 {
                    sink.push(
                        Diagnostic::new(DiagCode::E012, span, "`against past 0` is empty")
                            .with_suggestion("use at least one past slice, e.g. `against past 3`"),
                    );
                    return;
                }
                let (Some(schema), Some(gb), Some(preds)) = (schema, group_by, predicates) else {
                    return;
                };
                match semantics::find_temporal_slice(schema, gb, preds) {
                    Err(e) => {
                        sink.push(Diagnostic::from_error(&e, span).with_suggestion(
                            "slice exactly one group-by level, e.g. `for month = '1998-06' by supplier, month`",
                        ));
                    }
                    Ok(pos) => {
                        let Some(p) = preds.get(pos) else { return };
                        let level_name = schema
                            .hierarchy(p.hierarchy)
                            .and_then(|x| x.level(p.level))
                            .map(|l| l.name().to_owned())
                            .unwrap_or_default();
                        let target = match p.op {
                            PredicateOp::Eq(id) => id,
                            _ => MemberId(0),
                        };
                        let member_name = schema
                            .hierarchy(p.hierarchy)
                            .and_then(|x| x.level(p.level))
                            .and_then(|l| l.member_name(target))
                            .unwrap_or_default()
                            .to_owned();
                        let available = target.0;
                        if available < k {
                            sink.push(
                                Diagnostic::new(
                                    DiagCode::E014,
                                    span,
                                    format!(
                                        "`against past {k}` needs {k} predecessors of `{member_name}` on level `{level_name}`, only {available} exist"
                                    ),
                                )
                                .with_note("slices are ordered chronologically; early slices have little history")
                                .with_suggestion(format!("reduce the window to `past {available}` or pick a later slice")),
                            );
                        } else if available == k || k == 1 {
                            let msg = if k == 1 {
                                "`past 1` forecasts from a single slice: the \"forecast\" is just that slice's value".to_owned()
                            } else {
                                format!(
                                    "`against past {k}` uses `{member_name}`'s entire history: there is no slack if slices are missing"
                                )
                            };
                            sink.push(Diagnostic::new(DiagCode::W104, span, msg).with_note(
                                format!("`{member_name}` has exactly {available} predecessors"),
                            ));
                        }
                    }
                }
            }
            Some(BenchmarkSpec::Ancestor { level }) => {
                let Some(schema) = schema else { return };
                let (h, coarse) = match schema.locate_level(level) {
                    Ok(loc) => loc,
                    Err(_) => {
                        sink.push(unknown_level(schema, level, span));
                        return;
                    }
                };
                let Some(gb) = group_by else { return };
                match gb.slots().get(h).copied().flatten() {
                    None => sink.push(
                        Diagnostic::new(
                            DiagCode::E012,
                            span,
                            format!("an ancestor benchmark needs the hierarchy of `{level}` in the by clause"),
                        )
                        .with_suggestion("group by a level of that hierarchy, finer than the ancestor"),
                    ),
                    // Levels are ordered finest-first, so the ancestor must
                    // sit at a strictly larger index than the group-by level.
                    Some(fine) if fine >= coarse => sink.push(
                        Diagnostic::new(
                            DiagCode::E012,
                            span,
                            format!(
                                "ancestor level `{level}` must be strictly coarser than the group-by level of its hierarchy"
                            ),
                        )
                        .with_note("each cell is judged against its ancestor, so the ancestor must aggregate several cells"),
                    ),
                    Some(_) => {}
                }
            }
        }

        // Static pivot-width lint: fires here (rather than in the engine
        // phase) when no engine will get the chance to attach cost numbers.
        if let Some(BenchmarkSpec::Past(k)) = &self.statement.against {
            if *k > W106_PAST_LIMIT && !self.engine_attached {
                sink.push(
                    Diagnostic::new(
                        DiagCode::W106,
                        span,
                        format!(
                            "`past {k}` pivots {k} history columns per group; the pivoted benchmark matrix may explode"
                        ),
                    )
                    .with_suggestion("shorten the history window or pre-aggregate the past slices"),
                );
            }
        }
    }

    // ---- using ---------------------------------------------------------

    fn check_using(&self, schema: Option<&CubeSchema>, sink: &mut Sink) {
        let Some(using) = &self.statement.using else { return };
        let benchmark_measure = match &self.statement.against {
            Some(BenchmarkSpec::External { measure, .. }) => measure.clone(),
            _ => self.statement.measure.clone(),
        };
        let spans = self.spans.using.clone().unwrap_or_else(|| FuncSpans::dummy_for(using));
        self.check_expr(using, &spans, schema, &benchmark_measure, sink);
        self.check_degenerate_division(using, &spans, sink);
    }

    fn check_expr(
        &self,
        expr: &FuncExpr,
        spans: &FuncSpans,
        schema: Option<&CubeSchema>,
        benchmark_measure: &str,
        sink: &mut Sink,
    ) {
        match expr {
            FuncExpr::Call { name, args } => {
                match Function::lookup(name) {
                    None => {
                        let mut diag = Diagnostic::new(
                            DiagCode::E006,
                            spans.name,
                            format!("unknown function `{name}`"),
                        );
                        if let Some(near) = nearest(name, FUNCTION_NAMES.iter().copied()) {
                            diag = diag.with_suggestion(format!("did you mean `{near}`?"));
                        } else {
                            diag = diag.with_note(format!(
                                "available functions: {}",
                                FUNCTION_NAMES.join(", ")
                            ));
                        }
                        sink.push(diag);
                    }
                    Some(f) => {
                        let (min, max) = f.arity();
                        if args.len() < min || args.len() > max {
                            let expected =
                                if min == max { min.to_string() } else { format!("{min}..{max}") };
                            sink.push(
                                Diagnostic::new(
                                    DiagCode::E007,
                                    spans.span,
                                    format!(
                                        "function `{}` expects {expected} arguments, got {}",
                                        f.name(),
                                        args.len()
                                    ),
                                )
                                .with_note(format!(
                                    "`{}` is spelled `{}`",
                                    name,
                                    signature(f)
                                )),
                            );
                        }
                    }
                }
                for (i, arg) in args.iter().enumerate() {
                    let child;
                    let arg_spans = match spans.args.get(i) {
                        Some(s) => s,
                        None => {
                            child = FuncSpans::dummy_for(arg);
                            &child
                        }
                    };
                    self.check_expr(arg, arg_spans, schema, benchmark_measure, sink);
                }
            }
            FuncExpr::Measure(m) => {
                if let Some(schema) = schema {
                    if schema.measure_index(m).is_none() {
                        sink.push(unknown_measure(schema, m, spans.span));
                    }
                }
            }
            FuncExpr::BenchmarkMeasure(m) => {
                if m != benchmark_measure {
                    sink.push(
                        Diagnostic::new(
                            DiagCode::E015,
                            spans.span,
                            format!(
                                "using references benchmark.{m}, but the benchmark measure is `{benchmark_measure}`"
                            ),
                        )
                        .with_suggestion(format!("write `benchmark.{benchmark_measure}`")),
                    );
                }
            }
            FuncExpr::Property { level, .. } => {
                if let Some(schema) = schema {
                    if schema.locate_level(level).is_err() {
                        sink.push(unknown_level(schema, level, spans.span));
                    }
                }
            }
            FuncExpr::Number(_) => {}
        }
    }

    /// `W103`: `ratio`/`percentage`/`normDifference` whose divisor is the
    /// literal 0 or a benchmark that is constantly 0 — the whole delta
    /// column comes out null and no cell ever gets a label.
    fn check_degenerate_division(&self, expr: &FuncExpr, spans: &FuncSpans, sink: &mut Sink) {
        let constant_benchmark = match &self.statement.against {
            None => Some(0.0),
            Some(BenchmarkSpec::Constant(v)) => Some(*v),
            Some(_) => None,
        };
        let mut stack = vec![(expr, spans.clone())];
        while let Some((e, s)) = stack.pop() {
            if let FuncExpr::Call { name, args } = e {
                let divides = matches!(
                    Function::lookup(name),
                    Some(Function::Ratio | Function::Percentage | Function::NormDifference)
                );
                if divides {
                    match args.get(1) {
                        Some(FuncExpr::Number(v)) if *v == 0.0 => {
                            sink.push(
                                Diagnostic::new(
                                    DiagCode::W103,
                                    s.span,
                                    format!("`{name}` divides by the literal 0"),
                                )
                                .with_note(
                                    "every cell's comparison is null, so no cell gets a label",
                                ),
                            );
                        }
                        Some(FuncExpr::BenchmarkMeasure(_)) if constant_benchmark == Some(0.0) => {
                            let what = if self.statement.against.is_none() {
                                "the omitted benchmark defaults to the constant 0"
                            } else {
                                "the benchmark is the constant 0"
                            };
                            sink.push(
                                Diagnostic::new(
                                    DiagCode::W103,
                                    s.span,
                                    format!("`{name}` divides by the benchmark, but {what}"),
                                )
                                .with_note("every cell's comparison is null, so no cell gets a label")
                                .with_suggestion("use `difference` against a zero benchmark, or pick a non-zero constant"),
                            );
                        }
                        _ => {}
                    }
                }
                for (i, arg) in args.iter().enumerate() {
                    let arg_spans =
                        s.args.get(i).cloned().unwrap_or_else(|| FuncSpans::dummy_for(arg));
                    stack.push((arg, arg_spans));
                }
            }
        }
    }

    /// `W102`: the statement fetches a benchmark (or inlines one) that the
    /// `using` chain never reads, or the chain reads no data at all.
    fn check_benchmark_usage(&self, sink: &mut Sink) {
        let Some(using) = &self.statement.using else { return };
        let span = self.spans.using.as_ref().map(|u| u.span).unwrap_or(self.spans.span);
        let mut reads_measure = false;
        let mut reads_benchmark = false;
        let mut literals: Vec<f64> = Vec::new();
        walk(using, &mut |e| match e {
            FuncExpr::Measure(_) | FuncExpr::Property { .. } => reads_measure = true,
            FuncExpr::BenchmarkMeasure(_) => reads_benchmark = true,
            FuncExpr::Number(v) => literals.push(*v),
            FuncExpr::Call { .. } => {}
        });

        if !reads_measure && !reads_benchmark {
            sink.push(
                Diagnostic::new(
                    DiagCode::W102,
                    span,
                    "the using chain reads no measure: the comparison is the same constant for every cell",
                )
                .with_suggestion("reference the assessed measure or `benchmark.<measure>`"),
            );
            return;
        }
        if reads_benchmark {
            return;
        }
        match &self.statement.against {
            None => {}
            // The paper's own idiom inlines the constant into the chain
            // (`ratio(revenue, 45000000) … against 45000000`), so only
            // warn when the constant appears nowhere in the chain.
            Some(BenchmarkSpec::Constant(v)) if !literals.iter().any(|l| l == v) => {
                sink.push(
                    Diagnostic::new(
                        DiagCode::W102,
                        span,
                        format!("the constant benchmark {v} is never used by the using chain"),
                    )
                    .with_suggestion(format!(
                        "reference `benchmark.{}` or inline {v} into the chain",
                        self.statement.measure
                    )),
                );
            }
            Some(BenchmarkSpec::Constant(_)) => {}
            Some(_) => {
                sink.push(
                    Diagnostic::new(
                        DiagCode::W102,
                        span,
                        "the benchmark is fetched but the using chain never references it",
                    )
                    .with_note(
                        "the engine pays for the benchmark query, then the comparison ignores it",
                    )
                    .with_suggestion(format!(
                        "reference `benchmark.{}` in the chain, or drop the against clause",
                        benchmark_measure_name(self.statement)
                    )),
                );
            }
        }
    }

    // ---- labels --------------------------------------------------------

    fn check_labels(&self, sink: &mut Sink) {
        let labels_span = self.spans.labels;
        match &self.statement.labels {
            LabelingSpec::Named(name) => {
                if labeling::lookup_named(name).is_none() {
                    let mut diag = Diagnostic::new(
                        DiagCode::E008,
                        labels_span,
                        format!("unknown labeling `{name}`"),
                    );
                    if let Some(near) = nearest(name, labeling::known_labelings().iter().copied()) {
                        diag = diag.with_suggestion(format!("did you mean `{near}`?"));
                    } else {
                        diag = diag.with_note(format!(
                            "known labelings: {}",
                            labeling::known_labelings().join(", ")
                        ));
                    }
                    sink.push(diag);
                }
            }
            LabelingSpec::Ranges(rules) => {
                if rules.is_empty() {
                    sink.push(
                        Diagnostic::new(
                            DiagCode::E009,
                            labels_span,
                            "the labeling declares no rules",
                        )
                        .with_suggestion("declare at least one range, e.g. `{[0, inf]: ok}`"),
                    );
                    return;
                }
                let rule_span =
                    |i: usize| self.spans.label_rules.get(i).copied().unwrap_or(labels_span);
                let rule_text = |i: usize| rules.get(i).map(|r| r.to_string()).unwrap_or_default();
                for issue in labeling::validate_ranges(rules) {
                    match issue {
                        RangeIssue::Empty { rule } => {
                            let inverted =
                                rules.get(rule).map(|r| r.lo.value > r.hi.value).unwrap_or(false);
                            let why = if inverted {
                                "its bounds are inverted"
                            } else {
                                "its bounds touch but at least one endpoint is open"
                            };
                            sink.push(
                                Diagnostic::new(
                                    DiagCode::E010,
                                    rule_span(rule),
                                    format!("range `{}` is empty: {why}", rule_text(rule)),
                                )
                                .with_suggestion("no value can ever receive this label"),
                            );
                        }
                        RangeIssue::Overlap { first, second } => {
                            sink.push(
                                Diagnostic::new(
                                    DiagCode::E011,
                                    rule_span(second),
                                    format!(
                                        "ranges `{}` and `{}` overlap",
                                        rule_text(first),
                                        rule_text(second)
                                    ),
                                )
                                .with_note("a value falling in both ranges would get two labels")
                                .with_suggestion("make the shared endpoint open on one side"),
                            );
                        }
                        RangeIssue::Gap { before, after } => {
                            sink.push(
                                Diagnostic::new(
                                    DiagCode::W101,
                                    rule_span(after),
                                    format!(
                                        "ranges `{}` and `{}` leave a gap",
                                        rule_text(before),
                                        rule_text(after)
                                    ),
                                )
                                .with_note("values falling in the gap get a null label")
                                .with_suggestion("close the gap or keep it deliberately (assess* keeps null-labelled cells)"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The `benchmark.<x>` column name the statement's benchmark exposes.
fn benchmark_measure_name(statement: &AssessStatement) -> String {
    match &statement.against {
        Some(BenchmarkSpec::External { measure, .. }) => measure.clone(),
        _ => statement.measure.clone(),
    }
}

/// Depth-first walk over a `using` chain.
fn walk(expr: &FuncExpr, f: &mut impl FnMut(&FuncExpr)) {
    f(expr);
    if let FuncExpr::Call { args, .. } = expr {
        for arg in args {
            walk(arg, f);
        }
    }
}

/// A human-readable signature for an arity note.
fn signature(f: Function) -> String {
    let (min, max) = f.arity();
    let args: Vec<String> = (0..max)
        .map(|i| if i < min { format!("arg{}", i + 1) } else { format!("[arg{}]", i + 1) })
        .collect();
    format!("{}({})", f.name(), args.join(", "))
}

/// `E003` with a did-you-mean suggestion over every level of the schema.
fn unknown_level(schema: &CubeSchema, level: &str, span: Span) -> Diagnostic {
    let mut diag = Diagnostic::new(
        DiagCode::E003,
        span,
        format!("cube `{}` has no level `{level}`", schema.name()),
    );
    let candidates = schema.hierarchies().iter().flat_map(|h| h.levels().iter().map(|l| l.name()));
    if let Some(near) = nearest(level, candidates) {
        diag = diag.with_suggestion(format!("did you mean `{near}`?"));
    } else {
        let all: Vec<&str> =
            schema.hierarchies().iter().flat_map(|h| h.levels().iter().map(|l| l.name())).collect();
        diag = diag.with_note(format!("available levels: {}", all.join(", ")));
    }
    diag
}

/// `E004` with a did-you-mean suggestion over the schema's measures.
fn unknown_measure(schema: &CubeSchema, measure: &str, span: Span) -> Diagnostic {
    let mut diag = Diagnostic::new(
        DiagCode::E004,
        span,
        format!("cube `{}` has no measure `{measure}`", schema.name()),
    );
    if let Some(near) = nearest(measure, schema.measures().iter().map(|m| m.name())) {
        diag = diag.with_suggestion(format!("did you mean `{near}`?"));
    } else {
        let all: Vec<&str> = schema.measures().iter().map(|m| m.name()).collect();
        diag = diag.with_note(format!("available measures: {}", all.join(", ")));
    }
    diag
}

/// Closest candidate by case-insensitive edit distance, if close enough to
/// plausibly be a typo (distance ≤ max(2, len/3)).
fn nearest<'x>(name: &str, candidates: impl Iterator<Item = &'x str>) -> Option<String> {
    let budget = (name.chars().count() / 3).max(2);
    candidates
        .map(|c| (edit_distance(&name.to_ascii_lowercase(), &c.to_ascii_lowercase()), c))
        .filter(|&(d, _)| d <= budget)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c.to_owned())
}

/// Levenshtein distance over chars (two-row dynamic program).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        if let Some(slot) = cur.first_mut() {
            *slot = i + 1;
        }
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev.get(j).copied().unwrap_or(0) + usize::from(ca != cb);
            let del = prev.get(j + 1).copied().unwrap_or(0) + 1;
            let ins = cur.get(j).copied().unwrap_or(0) + 1;
            if let Some(slot) = cur.get_mut(j + 1) {
                *slot = sub.min(del).min(ins);
            }
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev.last().copied().unwrap_or(0)
}
