//! Prometheus text-exposition rendering (format 0.0.4) and a strict
//! validator for it.
//!
//! The renderer is a plain string builder — no registry of live
//! handles, no background state. Whoever owns the numbers (the runtime,
//! a session pool) renders them fresh on every scrape; [`PromText`]
//! only guarantees the *format* is right. [`validate_exposition`] is
//! the other half of that guarantee: tests and the CI smoke job run
//! every rendered page through it.

use crate::hist::HistogramSnapshot;
use std::fmt::Write as _;

/// A builder for one `/metrics` page.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
    /// Metric families already announced with `# TYPE` (a family may
    /// gain samples from several sources, but must be announced once).
    announced: Vec<String>,
}

impl PromText {
    /// An empty page.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn announce(&mut self, name: &str, kind: &str, help: &str) {
        if self.announced.iter().any(|a| a == name) {
            return;
        }
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
        self.announced.push(name.to_string());
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if labels.is_empty() {
            let _ = writeln!(self.out, "{name} {}", fmt_value(value));
            return;
        }
        let rendered: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        let _ = writeln!(
            self.out,
            "{name}{{{}}} {}",
            rendered.join(","),
            fmt_value(value)
        );
    }

    /// Adds a counter sample (monotonically increasing total).
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.announce(name, "counter", help);
        self.sample(name, labels, value as f64);
    }

    /// Adds a gauge sample (instantaneous value).
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.announce(name, "gauge", help);
        self.sample(name, labels, value);
    }

    /// Adds a latency summary from a histogram snapshot: p50/p95/p99
    /// quantile samples plus `_sum` and `_count`, in **seconds** (the
    /// snapshot's values are nanoseconds).
    pub fn latency_summary(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &HistogramSnapshot,
    ) {
        self.summary(name, help, labels, h, 1e9);
    }

    /// Adds a summary of a histogram of plain counts (batch sizes,
    /// queue depths): the same samples as
    /// [`latency_summary`](Self::latency_summary), values unscaled.
    pub fn count_summary(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &HistogramSnapshot,
    ) {
        self.summary(name, help, labels, h, 1.0);
    }

    fn summary(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &HistogramSnapshot,
        per_unit: f64,
    ) {
        self.announce(name, "summary", help);
        for (q, v) in [
            ("0.5", h.p50()),
            ("0.95", h.p95()),
            ("0.99", h.p99()),
            ("1", h.max),
        ] {
            let mut with_q: Vec<(&str, &str)> = labels.to_vec();
            with_q.push(("quantile", q));
            self.sample(name, &with_q, v as f64 / per_unit);
        }
        let sum = format!("{name}_sum");
        let count = format!("{name}_count");
        self.sample(&sum, labels, h.sum as f64 / per_unit);
        self.sample(&count, labels, h.count() as f64);
    }

    /// The finished page.
    pub fn render(self) -> String {
        self.out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// Validates a Prometheus text-exposition page: every line is a `# HELP`
/// / `# TYPE` comment or a `name{labels} value` sample with a legal
/// metric name and a parseable value, every sample's family has a `#
/// TYPE` announcement, and no family is announced twice. Returns the
/// number of samples.
pub fn validate_exposition(page: &str) -> Result<usize, String> {
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for (lineno, line) in page.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" | "TYPE" => {
                    if !valid_name(name) {
                        return Err(format!("line {lineno}: bad metric name {name:?}"));
                    }
                    if keyword == "TYPE" {
                        if typed.iter().any(|t| t == name) {
                            return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                        }
                        match parts.next() {
                            Some("counter" | "gauge" | "summary" | "histogram" | "untyped") => {}
                            other => {
                                return Err(format!("line {lineno}: bad TYPE {other:?}"));
                            }
                        }
                        typed.push(name.to_string());
                    }
                }
                _ => return Err(format!("line {lineno}: unknown comment {keyword:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.find(['{', ' ']) {
            Some(i) if line.as_bytes()[i] == b'{' => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated labels"))?;
                validate_labels(&line[i + 1..close]).map_err(|e| format!("line {lineno}: {e}"))?;
                (&line[..i], line[close + 1..].trim())
            }
            Some(i) => (&line[..i], line[i + 1..].trim()),
            None => return Err(format!("line {lineno}: sample without value: {line:?}")),
        };
        if !valid_name(name_part) {
            return Err(format!("line {lineno}: bad sample name {name_part:?}"));
        }
        value_part
            .parse::<f64>()
            .map_err(|_| format!("line {lineno}: bad value {value_part:?}"))?;
        let family = name_part
            .strip_suffix("_sum")
            .or_else(|| name_part.strip_suffix("_count"))
            .unwrap_or(name_part);
        if !typed.iter().any(|t| t == family || t == name_part) {
            return Err(format!("line {lineno}: sample {name_part} has no TYPE"));
        }
        samples += 1;
    }
    Ok(samples)
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn validate_labels(body: &str) -> Result<(), String> {
    if body.is_empty() {
        return Ok(());
    }
    // k="v",k="v" — values may contain escaped quotes.
    let mut rest = body;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        if !valid_name(&rest[..eq]) {
            return Err(format!("bad label name {:?}", &rest[..eq]));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value: {after:?}"));
        }
        let mut end = None;
        let bytes = after.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let end = end.ok_or("unterminated label value")?;
        rest = &after[end + 1..];
        if rest.is_empty() {
            return Ok(());
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| format!("junk after label value: {rest:?}"))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LogHistogram;

    #[test]
    fn renders_counters_gauges_and_summaries() {
        let h = LogHistogram::new();
        h.record(1_000);
        h.record(2_000_000);
        let mut p = PromText::new();
        p.counter("ec_executions_total", "Vertex executions.", &[], 42);
        p.gauge("ec_queue_depth", "Tasks queued.", &[("worker", "0")], 3.0);
        p.latency_summary("ec_exec_seconds", "Exec latency.", &[], &h.snapshot());
        let page = p.render();
        let n = validate_exposition(&page).expect("valid page");
        assert_eq!(n, 1 + 1 + 6);
        assert!(page.contains("ec_executions_total 42"));
        assert!(page.contains("ec_queue_depth{worker=\"0\"} 3"));
        assert!(page.contains("ec_exec_seconds{quantile=\"0.99\"}"));
        assert!(page.contains("ec_exec_seconds_count 2"));
    }

    #[test]
    fn families_are_announced_once_across_sources() {
        let mut p = PromText::new();
        p.counter("ec_x_total", "X.", &[("t", "a")], 1);
        p.counter("ec_x_total", "X.", &[("t", "b")], 2);
        let page = p.render();
        assert_eq!(page.matches("# TYPE ec_x_total").count(), 1);
        assert_eq!(validate_exposition(&page), Ok(2));
    }

    #[test]
    fn validator_rejects_malformed_pages() {
        assert!(validate_exposition("ec_orphan 1").is_err()); // no TYPE
        assert!(validate_exposition("# TYPE ec_x counter\nec_x notanumber").is_err());
        assert!(validate_exposition("# TYPE ec_x counter\n9bad_name 1").is_err());
        assert!(validate_exposition("# TYPE ec_x counter\nec_x{l=unquoted} 1").is_err());
        assert!(validate_exposition("# TYPE ec_x counter\n# TYPE ec_x counter\nec_x 1").is_err());
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromText::new();
        p.gauge("ec_g", "G.", &[("name", "a\"b\\c")], 1.0);
        let page = p.render();
        assert!(page.contains("name=\"a\\\"b\\\\c\""));
        assert_eq!(validate_exposition(&page), Ok(1));
    }
}
