//! Correctness checks. Served results are compared with a cold in-process
//! execution on the same catalog; any mismatch counts as a failed request
//! and fails the run.

use std::collections::BTreeMap;

use assess_core::{stmt, AssessRunner, AssessedCube};
use assess_serve::apply_diff;
use serde::Value;

/// A cold `run_auto` of `text`.
pub fn cold(runner: &AssessRunner, text: &str) -> Result<AssessedCube, String> {
    let spanned =
        assess_sql::parse_spanned(&stmt::strip_comments(text)).map_err(|e| e.to_string())?;
    runner.run_auto(&spanned.statement).map(|(cube, _)| cube).map_err(|e| e.to_string())
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).unwrap_or_default()
}

/// Checks one served `run` reply (cells format) against a cold execution:
/// cell count, label histogram and the returned rows must be byte-equal.
pub fn check_run(
    runner: &AssessRunner,
    text: &str,
    reply: &str,
    limit: usize,
) -> Result<(), String> {
    let served: Value =
        serde_json::from_str(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    if served.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("served an error: {reply}"));
    }
    let cube = cold(runner, text)?;
    let cells = served.get("cells").and_then(Value::as_f64);
    if cells != Some(cube.len() as f64) {
        return Err(format!("cell count {cells:?} != cold {}", cube.len()));
    }
    let labels = Value::Object(
        cube.label_histogram().into_iter().map(|(l, c)| (l, Value::Number(c as f64))).collect(),
    );
    let served_labels = served.get("labels").cloned().unwrap_or(Value::Null);
    if json(&served_labels) != json(&labels) {
        return Err(format!("labels {} != cold {}", json(&served_labels), json(&labels)));
    }
    let rows =
        Value::Array(cube.cells().iter().take(limit).map(serde::Serialize::to_value).collect());
    let served_rows = served.get("rows").cloned().unwrap_or(Value::Null);
    if json(&served_rows) != json(&rows) {
        return Err("returned rows differ from the cold execution".to_string());
    }
    Ok(())
}

/// Checks a served CSV reply byte-for-byte against an expected CSV.
pub fn check_csv(reply: &str, expected: &str) -> Result<(), String> {
    let served: Value =
        serde_json::from_str(reply).map_err(|e| format!("unparseable reply: {e}"))?;
    match served.get("csv").and_then(Value::as_str) {
        Some(csv) if csv == expected => Ok(()),
        Some(_) => Err("sharded CSV differs from the unsharded execution".to_string()),
        None => Err(format!("no csv in reply: {}", &reply[..reply.len().min(200)])),
    }
}

/// A subscriber's client-side copy of its result, patched by diff frames.
pub struct Patched {
    pub sub: u64,
    pub state: BTreeMap<Vec<String>, Value>,
}

impl Patched {
    /// Starts from the `subscribe` reply's full baseline.
    pub fn from_baseline(reply: &str) -> Result<Patched, String> {
        let value: Value = serde_json::from_str(reply).map_err(|e| e.to_string())?;
        let sub = value.get("sub").and_then(Value::as_f64).ok_or("subscribe failed")? as u64;
        let mut patched = Patched { sub, state: BTreeMap::new() };
        let full = Value::Object(vec![
            ("full".to_string(), Value::Bool(true)),
            ("changed".to_string(), value.get("rows").cloned().unwrap_or(Value::Array(vec![]))),
        ]);
        apply_diff(&mut patched.state, &full)?;
        Ok(patched)
    }

    /// Applies one pushed frame if it belongs to this subscription.
    pub fn apply(&mut self, frame: &Value) -> Result<(), String> {
        if frame.get("sub").and_then(Value::as_f64) != Some(self.sub as f64) {
            return Ok(());
        }
        if frame.get("event").and_then(Value::as_str) != Some("diff") {
            return Err(format!("subscription {} lagged", self.sub));
        }
        apply_diff(&mut self.state, frame)
    }

    /// Compares the patched copy with a cold, uncached served run of the
    /// same statement (cells format with every row).
    pub fn check(&self, reply: &str) -> Result<(), String> {
        let value: Value = serde_json::from_str(reply).map_err(|e| e.to_string())?;
        let rows = value.get("rows").and_then(Value::as_array).ok_or("cold run has no rows")?;
        let mut cold = BTreeMap::new();
        apply_diff(
            &mut cold,
            &Value::Object(vec![("changed".to_string(), Value::Array(rows.clone()))]),
        )?;
        if cold.len() != self.state.len() {
            return Err(format!(
                "subscription {}: {} patched cells vs {} cold",
                self.sub,
                self.state.len(),
                cold.len()
            ));
        }
        for (coord, cell) in &cold {
            if self.state.get(coord).map(json) != Some(json(cell)) {
                return Err(format!("subscription {}: cell {coord:?} differs", self.sub));
            }
        }
        Ok(())
    }
}
