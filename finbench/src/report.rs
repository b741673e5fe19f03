//! The result line: one JSON object holding exactly the metrics of the
//! run's mode, each with its unit from the catalog.

use crate::catalog::metrics_for;

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted (questions answered on `sweep_cold`,
    /// requests sent on `serve_*`).
    pub attempted: u64,
    /// Attempted operations that did not succeed.
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the result line, checking that it carries every metric of
    /// the mode exactly once, nothing else, and only finite values.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let catalog = metrics_for(trace);
        if self.attempted == 0 {
            return Err("the run attempted nothing".into());
        }
        for (name, value) in &self.values {
            if !catalog.iter().any(|m| m.name == *name) {
                return Err(format!("metric {name} is not in this mode's catalog"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
        }
        let mut fields = Vec::with_capacity(catalog.len());
        for m in catalog {
            let mut found = self.values.iter().filter(|(n, _)| *n == m.name);
            let (Some(&(_, value)), None) = (found.next(), found.next()) else {
                return Err(format!("metric {} must be reported exactly once", m.name));
            };
            fields.push(format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    #[test]
    fn renders_every_metric_and_rejects_gaps() {
        let mut r = Report {
            attempted: 3,
            failed: 0,
            values: Vec::new(),
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.5 + i as f64);
        }
        let json = r.to_json(false).expect("complete report");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            r.to_json(true).is_err(),
            "per-layer mode needs per-layer metrics"
        );
        r.values.pop();
        assert!(r.to_json(false).is_err());
        r.set("slo_share", f64::NAN);
        assert!(r.to_json(false).is_err());
    }
}
