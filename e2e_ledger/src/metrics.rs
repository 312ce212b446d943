//! Statistics and the result line: the percentile rule, metric-name
//! validity, and the one-line JSON result the benchmark ends with.

use dasr_core::json::Json;

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile `p` (0–100) of an ascending slice: the value
/// at rank `ceil(p/100 · n)`. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The 1-based nearest rank of percentile `p` among `n ≥ 1` samples. The
/// tolerance keeps float error in `p · n` (99.9 · 10000) off the next rank.
fn rank(n: usize, p: f64) -> usize {
    let exact = p * n as f64 / 100.0;
    ((exact - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it, or `None` when even the median has fewer than ten beyond.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// A timing distribution as reported: median, the tail percentile the
/// sample count supports, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// The percentile `tail` sits at (see [`tail_percentile`]); `None`
    /// when fewer than 20 samples leave no percentile ten samples deep.
    pub tail_pct: Option<f64>,
    /// Value at `tail_pct`, or the maximum when `tail_pct` is `None`.
    pub tail: f64,
    /// The 99th percentile, when at least ten samples lie beyond it
    /// (1000 or more samples).
    pub p99: Option<f64>,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = percentile(&sorted, 50.0)?;
        let tail_pct = tail_percentile(sorted.len());
        let tail = match tail_pct {
            Some(p) => percentile(&sorted, p)?,
            None => *sorted.last()?,
        };
        let p99 = if samples_beyond(sorted.len(), 99.0) >= 10 {
            percentile(&sorted, 99.0)
        } else {
            None
        };
        Some(Self {
            median,
            tail_pct,
            tail,
            p99,
            n: sorted.len(),
        })
    }

    /// The 99th percentile when the sample count supports it, else the
    /// reported tail (whose percentile [`Summary::describe`] states).
    pub fn p99_or_tail(&self) -> f64 {
        self.p99.unwrap_or(self.tail)
    }

    /// `median 1.2, p99 3.4 (n=1000)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail_pct {
            Some(p) => format!("p{p}"),
            None => "max".to_string(),
        };
        format!(
            "median {:.3} {unit}, {tail} {:.3} {unit} (n={})",
            self.median, self.tail, self.n
        )
    }
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: String,
}

impl Metric {
    /// A metric; the name and unit are checked when the result is
    /// rendered.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The benchmark's result: the last line of its standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// No output check failed.
    pub correct: bool,
    /// Operations attempted (each one checked).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Renders the one-line JSON object, or explains why it cannot:
    /// invalid or repeated names, invalid units, non-finite values, or no
    /// attempted operation.
    pub fn to_json_line(&self) -> Result<String, String> {
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        let mut fields = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !valid_name(&m.name) {
                return Err(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(&m.unit) {
                return Err(format!("invalid unit {:?} for {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("{} is not finite: {}", m.name, m.value));
            }
            if fields.iter().any(|(k, _): &(String, Json)| *k == m.name) {
                return Err(format!("metric {} reported twice", m.name));
            }
            fields.push((
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.clone())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(fields)),
        ])
        .write())
    }

    /// Parses a line produced by [`RunResult::to_json_line`].
    #[cfg(test)]
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = dasr_core::json::parse(line)?;
        let count = |key: &str| -> Result<u64, String> {
            let n = v.get(key)?.num()?;
            if n >= 0.0 && n.fract() == 0.0 {
                Ok(n as u64)
            } else {
                Err(format!("{key} is not a whole number: {n}"))
            }
        };
        let metrics = match v.get("metrics")? {
            Json::Obj(fields) => fields
                .iter()
                .map(|(name, m)| {
                    Ok(Metric {
                        name: name.clone(),
                        value: m.get("value")?.num()?,
                        unit: m.get("unit")?.str()?.to_string(),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("metrics is not an object".into()),
        };
        Ok(Self {
            correct: v.get("correct")?.bool()?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// 64-bit FNV-1a, for the simulated-output digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds an `f64`'s exact bits in.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One fewer sample leaves nine beyond p99, so p95 is reported.
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!(s.n, 1000);
        assert_eq!(s.median, 499.0);
        assert_eq!(s.tail_pct, Some(99.0));
        assert_eq!(s.tail, 989.0);
        assert_eq!(s.p99, Some(989.0));
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        let s = Summary::of(&many).expect("non-empty");
        assert_eq!((s.tail_pct, s.p99), (Some(99.9), Some(19_799.0)));
        assert_eq!(s.p99_or_tail(), 19_799.0);
        let few = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((few.median, few.tail_pct, few.tail), (2.0, None, 3.0));
        assert_eq!((few.p99, few.p99_or_tail()), (None, 3.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn metric_names_and_units() {
        for ok in [
            "latency_ms",
            "engine.dispatch_ns_per_request",
            "0x",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
        for ok in ["ms", "1/s", "%", "count", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric::new("tenant_intervals_per_s", 1_234.567_890_123, "1/s"),
                Metric::new("setup_s", 0.000_123_456_789, "s"),
            ],
        }
    }

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let r = sample();
        let line = r.to_json_line().expect("valid");
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":0.000123456789,\"unit\":\"s\"}"));
        assert_eq!(RunResult::parse(&line).expect("parses"), r);
    }

    #[test]
    fn invalid_results_are_refused() {
        let mut r = sample();
        r.metrics.push(Metric::new("setup_s", 1.0, "s"));
        assert!(r.to_json_line().is_err(), "duplicate name");
        let mut r = sample();
        r.metrics[0].value = f64::NAN;
        assert!(r.to_json_line().is_err(), "non-finite value");
        let mut r = sample();
        r.metrics[0].name = "bad name".into();
        assert!(r.to_json_line().is_err(), "invalid name");
        let mut r = sample();
        r.attempted = 0;
        assert!(r.to_json_line().is_err(), "nothing attempted");
        assert!(RunResult::parse("{\"correct\":true}").is_err());
        assert!(RunResult::parse("not json").is_err());
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.u64(1);
        a.f64(2.5);
        let mut b = Digest::default();
        b.f64(2.5);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::default();
        c.u64(1);
        c.f64(2.5);
        assert_eq!(a.finish(), c.finish());
    }
}
