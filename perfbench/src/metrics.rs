//! Named metrics and the result line.

use serde::Value;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or other context, printed beside the value.
    pub note: String,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, note: String::new() }
}

impl Metric {
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    pub fn print(&self) {
        let note = if self.note.is_empty() { String::new() } else { format!("  ({})", self.note) };
        println!("metric {:<32} {:>14.6} {}{note}", self.name, self.value, self.unit);
    }
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let metrics = Value::Object(
        metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".to_string(), Value::Number(m.value)),
                    ("unit".to_string(), Value::String(m.unit.to_string())),
                ]);
                (m.name.to_string(), v)
            })
            .collect(),
    );
    let line = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Number(attempted as f64)),
        ("failed".to_string(), Value::Number(failed as f64)),
        ("metrics".to_string(), metrics),
    ]);
    serde_json::to_string(&line).unwrap_or_default()
}
