//! Experiment metrics: named time series and histograms.
//!
//! Every figure in the paper is either a *time series* (a metric per gossip
//! cycle, e.g. average recall or average update rate) or a *per-entity
//! distribution* (e.g. bytes per query, users reached per query). The
//! harness records both with the small helpers in this module and prints
//! them as aligned text tables / CSV so the plots can be regenerated with
//! any plotting tool.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A collection of named series indexed by an integer x-value (typically the
/// gossip cycle).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesRecorder {
    series: BTreeMap<String, BTreeMap<u64, f64>>,
}

impl SeriesRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` for series `name` at position `x`.
    pub fn record(&mut self, name: &str, x: u64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_default()
            .insert(x, value);
    }

    /// Names of all recorded series (sorted).
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }

    /// The value of a series at `x`, if recorded.
    pub fn get(&self, name: &str, x: u64) -> Option<f64> {
        self.series.get(name)?.get(&x).copied()
    }

    /// All `(x, value)` points of a series.
    pub fn points(&self, name: &str) -> Vec<(u64, f64)> {
        self.series
            .get(name)
            .map(|m| m.iter().map(|(&x, &v)| (x, v)).collect())
            .unwrap_or_default()
    }

    /// The last (largest-x) value of a series.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.series
            .get(name)
            .and_then(|m| m.iter().next_back().map(|(_, &v)| v))
    }

    /// Renders all series as a CSV table with one row per x-value and one
    /// column per series, `x` first. Missing points are left empty.
    pub fn to_csv(&self) -> String {
        let mut xs: Vec<u64> = self
            .series
            .values()
            .flat_map(|m| m.keys().copied())
            .collect();
        xs.sort_unstable();
        xs.dedup();
        let names = self.names();
        let mut out = String::new();
        out.push('x');
        for name in &names {
            let _ = write!(out, ",{name}");
        }
        out.push('\n');
        for x in xs {
            let _ = write!(out, "{x}");
            for name in &names {
                match self.get(name, x) {
                    Some(v) => {
                        let _ = write!(out, ",{v:.6}");
                    }
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Summary statistics of a set of per-entity observations (one value per
/// query, per user, …).
#[derive(Debug, Clone, PartialEq)]
pub struct DistributionSummary {
    /// Number of observations.
    pub count: usize,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub median: f64,
    /// 90th percentile (nearest rank).
    pub p90: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

impl DistributionSummary {
    /// Computes the summary of a set of observations. Returns a zeroed
    /// summary for an empty input.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                count: 0,
                min: 0.0,
                max: 0.0,
                mean: 0.0,
                median: 0.0,
                p90: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("observations must not be NaN"));
        let pct = |p: f64| {
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        Self {
            count: sorted.len(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            median: pct(0.5),
            p90: pct(0.9),
            p99: pct(0.99),
        }
    }
}

impl std::fmt::Display for DistributionSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={:.1} mean={:.1} median={:.1} p90={:.1} p99={:.1} max={:.1}",
            self.count, self.min, self.mean, self.median, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_series() {
        let mut r = SeriesRecorder::new();
        r.record("recall", 0, 0.4);
        r.record("recall", 5, 0.9);
        r.record("aur", 0, 0.1);
        assert_eq!(r.names(), vec!["aur", "recall"]);
        assert_eq!(r.get("recall", 5), Some(0.9));
        assert_eq!(r.get("recall", 1), None);
        assert_eq!(r.points("recall"), vec![(0, 0.4), (5, 0.9)]);
        assert_eq!(r.last("recall"), Some(0.9));
        assert_eq!(r.last("missing"), None);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut r = SeriesRecorder::new();
        r.record("a", 0, 1.0);
        r.record("b", 1, 2.0);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert!(lines[1].starts_with("0,1.000000,"));
        assert!(lines[2].starts_with("1,,2.000000"));
    }

    #[test]
    fn overwriting_a_point_keeps_latest() {
        let mut r = SeriesRecorder::new();
        r.record("a", 0, 1.0);
        r.record("a", 0, 3.0);
        assert_eq!(r.get("a", 0), Some(3.0));
    }

    #[test]
    fn distribution_summary_percentiles() {
        let values: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = DistributionSummary::of(&values);
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.median, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn empty_distribution_is_zeroed() {
        let s = DistributionSummary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn display_mentions_all_fields() {
        let s = DistributionSummary::of(&[1.0, 2.0, 3.0]);
        let text = s.to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("mean=2.0"));
    }
}
