//! The provenance header printed before every result.

use std::process::Command;

use serde::Value;

use crate::setup;

/// Runs a command to completion and returns its trimmed stdout.
fn output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `(rev, dirty)` of the git checkout rooted at the working directory, or
/// `None` when it is not the root of a git checkout.
fn git() -> Option<(String, bool)> {
    let top = output("git", &["rev-parse", "--show-toplevel"])?;
    let here = std::env::current_dir().ok()?.canonicalize().ok()?;
    if std::path::Path::new(&top).canonicalize().ok()? != here {
        return None;
    }
    let rev = output("git", &["rev-parse", "HEAD"])?;
    let dirty = !output("git", &["status", "--porcelain"])?.is_empty();
    Some((rev, dirty))
}

/// The header: what ran, on what, built by which compiler.
pub fn header(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    let (rev, dirty) = match git() {
        Some((rev, dirty)) => (Value::String(rev), Value::Bool(dirty)),
        None => (Value::String("unknown".into()), Value::Null),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let num = |x: f64| Value::Number(x);
    Value::Object(vec![
        ("workload".into(), Value::String(workload.into())),
        ("seed".into(), num(seed as f64)),
        ("run_seconds".into(), num(seconds as f64)),
        ("trace".into(), Value::Bool(trace)),
        ("git_rev".into(), rev),
        ("git_dirty".into(), dirty),
        ("available_parallelism".into(), num(cores as f64)),
        ("scale_factor".into(), num(setup::SCALE)),
        ("morsel_rows".into(), num(olap_engine::EngineConfig::default().morsel_rows as f64)),
        ("server_workers".into(), num(setup::WORKERS as f64)),
        ("scan_threads".into(), num(setup::scan_threads() as f64)),
        ("max_queued".into(), num(setup::MAX_QUEUED as f64)),
        (
            "rustc".into(),
            Value::String(output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
    ])
}
