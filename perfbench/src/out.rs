//! Operation accounting and the result line.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Attempted and failed operations. An operation fails when it panics or
/// its output check does not hold.
#[derive(Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Runs one operation, counting a panic as a failure.
    pub fn run<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(out) => Some(out),
            Err(_) => {
                self.failed += 1;
                eprintln!("FAILED: {what} panicked");
                None
            }
        }
    }

    /// Runs one operation whose result is its output check.
    pub fn check(&mut self, what: &str, f: impl FnOnce() -> bool) {
        if self.run(what, f) == Some(false) {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    /// Failed ÷ attempted.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Named metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name` = `value` `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|(_, v, _)| v.is_finite())
    }

    /// One human-readable line per metric.
    pub fn print_table(&self) {
        for (name, value, unit) in &self.entries {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit. Values print with all their digits.
    pub fn result_json(&self, ops: &Ops, correct: bool) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            ops.attempted,
            ops.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident memory of this process, in MiB, from the kernel's
/// per-process status (`VmHWM`); `None` where that is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_count_panics_and_failed_checks() {
        let mut ops = Ops::default();
        ops.check("holds", || true);
        ops.check("breaks", || false);
        assert_eq!(ops.run("panics", || panic!("boom")), None::<()>);
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert!((ops.failed_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.put("run_s", 0.012345678901234, "s");
        let ops = Ops {
            attempted: 4,
            failed: 0,
        };
        assert_eq!(
            m.result_json(&ops, true),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 0.012345678901234, \"unit\": \"s\"}}}"
        );
    }
}
