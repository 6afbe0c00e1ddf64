//! Named metrics with units, and the one-line JSON record a benchmark
//! process prints for the orchestrator.

use crate::Outcomes;

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The value of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`. Non-finite values are
    /// written as `null` so the record stays valid JSON (and the
    /// orchestrator counts the run as failed).
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let value = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The record one benchmark process prints as its last stdout line:
/// the metrics, the outcome digest the orchestrator compares across
/// processes, the output check's verdict, and the resolved worker count.
pub fn record_json(metrics: &Metrics, outcomes: &Outcomes, check: &Result<(), String>) -> String {
    let check = match check {
        Ok(()) => "ok".to_string(),
        Err(e) => e.replace(['"', '\\'], "'"),
    };
    format!(
        "{{\"metrics\": {}, \"digest\": \"{:016x}\", \"check\": \"{}\", \"threads\": {}}}",
        metrics.to_json(),
        outcomes.digest,
        check,
        glap_par::resolve_threads(None),
    )
}
