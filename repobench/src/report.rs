//! Metric collection and the result line.

use std::fmt::Write as _;

/// One named metric with its unit.
pub struct Metric {
    /// Metric name: `[A-Za-z0-9_.-]+`, starting with a letter or digit.
    pub name: String,
    /// Unit, such as `ms`, `s`, `count` or `bp`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The metrics of one run, in emission order.
#[derive(Default)]
pub struct Report {
    /// Emitted metrics.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric; non-finite values are reported as 0.
    pub fn add(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        });
    }

    /// The names that break the naming rule or repeat.
    pub fn bad_names(&self) -> Vec<&str> {
        let mut seen = std::collections::HashSet::new();
        self.metrics
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !valid_name(n) || !seen.insert(*n))
            .collect()
    }

    /// Prints one `name value unit` line per metric.
    pub fn print_table(&self) {
        for m in &self.metrics {
            println!("  {:<36} {:>16} {}", m.name, m.value, m.unit);
        }
    }

    /// The result object: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // `{:?}` prints an f64 with every digit needed to read it back.
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set size of this process, MiB (Linux `VmRSS`).
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_rule() {
        assert!(valid_name("gpu.share_bp"));
        assert!(valid_name("vt.phase.queue_hol_bp"));
        assert!(valid_name("setup_s"));
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut r = Report::default();
        r.add("x", "ms", 1.0 / 3.0);
        r.add("y", "count", f64::NAN);
        let j = r.json(true, 3, 0);
        assert!(j.contains("\"x\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}"));
        assert!(j.contains("\"y\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
