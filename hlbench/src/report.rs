//! What one benchmark run reports: named metrics with units, the operation
//! counts, and the final JSON line.

use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: cells for the simulator workloads, jobs for
    /// `serve-mixed`.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Run-level check failures (digest drift, count mismatches) that do
    /// not belong to one operation.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed operation and prints why.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        println!("FAILED {what}: {why}");
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The last line of standard output: one JSON object.
    pub fn result_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON string literal (the benchmark's own strings are plain ASCII, but
/// host strings such as the CPU model are escaped anyway).
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
