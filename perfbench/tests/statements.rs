//! Every statement the workloads send parses and passes `check` with no
//! errors against the benchmark's own data (SF 0.1 with the default views).

use std::collections::HashSet;

use assess_core::{stmt, AssessRunner, Diagnostic};
use olap_engine::Engine;
use perfbench::rng::Rng;
use perfbench::setup::{self, Phases};
use perfbench::stream::Explore;
use perfbench::workloads::{SUB_HIT, SUB_MISS};

#[test]
fn every_generated_statement_checks_clean_at_the_benchmark_scale() {
    let dataset = setup::dataset(&mut Phases::default());
    let runner = AssessRunner::new(Engine::new(dataset.catalog.clone()));
    let mut texts: Vec<String> =
        Explore::new(Rng::new(42), 0, 1, HashSet::new()).take(3000).map(|s| s.text).collect();
    texts.extend([SUB_HIT.to_string(), SUB_MISS.to_string()]);
    for text in &texts {
        let spanned = assess_sql::parse_spanned(&stmt::strip_comments(text))
            .unwrap_or_else(|e| panic!("does not parse: {e}\n{text}"));
        let diagnostics = runner.check_spanned(&spanned.statement, Some(&spanned.spans));
        let errors: Vec<&Diagnostic> = diagnostics.iter().filter(|d| d.is_error()).collect();
        assert!(errors.is_empty(), "check errors {errors:?}\n{text}");
    }
}
