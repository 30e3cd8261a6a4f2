//! Estimators, the oracle digest, the seeded value stream, and the
//! one-line result format.

use std::collections::BTreeMap;

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (sorted in
/// place). Empty input yields 0.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the rule the
/// benchmark's run-to-run spread is judged by.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.total_cmp(b));
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile range over the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles_exclusive(values);
    let med = median(&mut values.to_vec());
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// FNV-1a fold of one delivered emission into the running digest. The
/// fold is order-sensitive on purpose: delivery must be in the oracle's
/// serial (phase, vertex) order.
pub fn fold_emission(mut hash: u64, phase: u64, sink: &str, value: &ec_events::Value) -> u64 {
    let bits = match value {
        ec_events::Value::Float(x) => x.to_bits(),
        ec_events::Value::Bool(b) => *b as u64,
        ec_events::Value::Int(i) => *i as u64,
        // The benchmark's graphs emit only floats and bools at sinks.
        _ => u64::MAX,
    };
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&phase.to_le_bytes());
    eat(sink.as_bytes());
    eat(&bits.to_le_bytes());
    hash
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The seeded input stream of one source: a mean-reverting walk
/// (`x ← 0.98·x + u`, `u` uniform in `[-1, 1)`), reported in steps of
/// 2⁻¹⁰. Mean reversion keeps the alarm-crossing rate, and with it the
/// work per event, the same for every seed; a free random walk can
/// drift away from the threshold and never cross it again.
///
/// The 2⁻¹⁰ grid makes every sum and mean the graphs compute exact in
/// `f64`, so the digest does not depend on the order sums were built
/// in. It has to: `restore()` rebuilds a `SlidingWindow`'s running sum
/// from its samples, which for arbitrary floats differs in the last
/// bits from the incrementally updated sum of an uninterrupted run —
/// and from the `Sequential` oracle (see EXPERIMENTS.md, "Findings").
///
/// On top of the walk rides a sawtooth of 2⁻²⁰ per event (period 1024).
/// `Aggregate::sum` emits only when its result changes; the sawtooth
/// makes consecutive sums differ by an odd multiple of 2⁻²⁰ (one source
/// fresh) or by 2 mod 1024 such steps (both fresh) — never by zero — so
/// every phase with fresh input does yield a `tap` emission.
#[derive(Debug, Clone)]
pub struct Walk {
    state: u64,
    x: f64,
    events: u64,
}

impl Walk {
    pub fn new(seed: u64, source: u64) -> Walk {
        Walk {
            state: seed ^ source.wrapping_mul(0xA076_1D64_78BD_642F),
            x: 0.0,
            events: 0,
        }
    }

    pub fn next_value(&mut self) -> f64 {
        // splitmix64
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        self.x = 0.98 * self.x + u;
        let tooth = (self.events % 1024) as f64 / (1u64 << 20) as f64;
        self.events += 1;
        (self.x * 1024.0).round() / 1024.0 + tooth
    }
}

/// One reported metric: value and unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The result of one workload run, printed as the last stdout line.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // Shortest representation that round-trips: all measured digits.
        format!("{v:?}")
    } else {
        "null".into()
    }
}

impl RunResult {
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A child's result line as the parent needs it: counts and
/// `name → value`. Parses only the format [`RunResult::to_json_line`]
/// writes.
#[derive(Debug, Clone, Default)]
pub struct ParsedResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    pub units: BTreeMap<String, String>,
}

pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim())
    };
    let mut out = ParsedResult {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        ..ParsedResult::default()
    };
    let metrics = &line[line.find("\"metrics\": {")? + 12..];
    for entry in metrics.split("\"}") {
        // entry: [, ]"name": {"value": X, "unit": "u
        let Some(name_start) = entry.find('"') else {
            continue;
        };
        let rest = &entry[name_start + 1..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = &rest[..name_end];
        let Some(v_at) = rest.find("\"value\": ") else {
            continue;
        };
        let v_rest = &rest[v_at + 9..];
        let v_end = v_rest.find(',')?;
        let value = v_rest[..v_end].trim().parse::<f64>().unwrap_or(f64::NAN);
        let unit = v_rest.rsplit('"').next().unwrap_or("");
        out.values.insert(name.to_string(), value);
        out.units.insert(name.to_string(), unit.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_round_trips() {
        let mut r = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: Metrics::new(),
        };
        r.metrics.insert("events_per_s".into(), (1234.5678, "1/s"));
        r.metrics.insert("setup_s".into(), (0.25, "s"));
        let p = parse_result_line(&r.to_json_line()).unwrap();
        assert!(p.correct);
        assert_eq!(p.attempted, 12);
        assert_eq!(p.values["events_per_s"], 1234.5678);
        assert_eq!(p.units["events_per_s"], "1/s");
        assert_eq!(p.values["setup_s"], 0.25);
    }

    /// `Aggregate::sum` is silent when its result repeats; the sawtooth
    /// must rule that out for both binnings, or a phase would yield no
    /// `tap` emission and a drain would wait for one forever.
    #[test]
    fn consecutive_sums_always_differ() {
        let (mut a, mut b) = (Walk::new(3, 1), Walk::new(3, 2));
        // In process: both sources fresh in every phase.
        let mut last = f64::NAN;
        for _ in 0..200_000 {
            let sum = a.next_value() + b.next_value();
            assert_ne!(sum, last);
            last = sum;
        }
        // Wire: one source fresh per phase, 64 phases at a time.
        let (mut x, mut y) = (a.next_value(), b.next_value());
        let mut last = x + y;
        for phase in 0..200_000u64 {
            if (phase / 64) % 2 == 0 {
                x = a.next_value();
            } else {
                y = b.next_value();
            }
            assert_ne!(x + y, last);
            last = x + y;
        }
    }

    #[test]
    fn walk_is_a_pure_function_of_seed_and_stays_bounded() {
        let mut a = Walk::new(7, 1);
        let mut b = Walk::new(7, 1);
        let mut c = Walk::new(8, 1);
        let mut differs = false;
        for _ in 0..10_000 {
            let x = a.next_value();
            assert_eq!(x.to_bits(), b.next_value().to_bits());
            differs |= x != c.next_value();
            assert!(x.abs() < 50.0);
        }
        assert!(differs);
    }
}
