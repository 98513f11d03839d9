//! What every workload takes and returns, the failure accounting, and the
//! assembly of a traced run's per-layer report.

use std::collections::BTreeMap;
use std::time::Instant;

use p3q_sim::RunReport;

use crate::host::{peak_rss_mib, process_cpu_seconds};
use crate::json::Json;
use crate::span::Tracer;
use crate::spec::{Sizes, PER_LAYER};
use crate::stats::{median, percentile, sorted};
use crate::world::run_rounds;

/// One run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Seconds to measure for. A traced run spends half untraced and half
    /// traced, so that it can state the tracing overhead.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Operations attempted and failed, with a line per failed check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` operations of the timed region as attempted.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// One oracle check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            // A broken layer can fail thousands of checks; a few lines say
            // which one, `failed` says how many.
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// The end-to-end numbers one workload measures.
#[derive(Debug, Clone, Copy)]
pub struct EndToEndValues {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_us_p50: f64,
    pub op_us_p90: f64,
    pub peak_rss_mb: f64,
    pub quality_ratio: f64,
    pub bytes_per_op: f64,
}

/// `ops_per_s`, `op_us_p50` and `op_us_p90` of a run from its rounds, each
/// given as `(rate, latencies in µs)`: the median over rounds of the rounds'
/// rates and of the rounds' own latency percentiles. At the reference sizes
/// a run is one round, and these are that round's.
pub fn rate_and_latency<'a>(rounds: impl IntoIterator<Item = (f64, &'a [f64])>) -> (f64, f64, f64) {
    let (mut rates, mut p50s, mut p90s) = (Vec::new(), Vec::new(), Vec::new());
    for (rate, latencies_us) in rounds {
        let latencies = sorted(latencies_us.to_vec());
        rates.push(rate);
        p50s.push(percentile(&latencies, 50.0));
        p90s.push(percentile(&latencies, 90.0));
    }
    (median(&rates), median(&p50s), median(&p90s))
}

/// The engine's work counts of one drive, by per-layer metric name.
pub fn engine_counts(run: RunReport) -> BTreeMap<&'static str, f64> {
    let cycles = run.cycles_run.max(1) as f64;
    let report = run.report;
    BTreeMap::from([
        ("sim.engine.plans_per_cycle", report.plans as f64 / cycles),
        (
            "sim.engine.exchanges_per_cycle",
            report.pair_exchanges as f64 / cycles,
        ),
        (
            "sim.engine.batches_per_cycle",
            report.batches as f64 / cycles,
        ),
        (
            "sim.exchange.mean_batch_width",
            report.plans as f64 / report.batches.max(1) as f64,
        ),
    ])
}

/// What a run produced.
pub struct Outcome {
    pub checks: Checks,
    pub end_to_end: EndToEndValues,
    /// Every per-layer metric, for a traced run.
    pub layers: Option<BTreeMap<&'static str, f64>>,
    /// Sizes, counts and bases worth keeping beside the metrics.
    pub details: Json,
    pub tracer: Tracer,
}

/// What measuring one workload produced: the untraced rounds every
/// end-to-end number comes from and, for a traced run, the same rounds once
/// more with spans recorded.
pub struct Measured<M, S> {
    /// Measurements of the untraced rounds.
    pub rounds: Vec<M>,
    /// End state of the last untraced round, for the checks.
    pub end: S,
    /// Process CPU seconds per wall second over the untraced rounds.
    pub cpu_per_wall: f64,
    /// The process's memory high-water mark (`VmHWM`, MiB) once set-up and
    /// the first round are done. Later rounds repeat the first, and how
    /// many of them fit depends on the host, so what the allocator makes of
    /// them is left out — as are the checks' own oracles.
    pub peak_rss_mb: f64,
    /// Measurements of the traced rounds, when tracing was asked for.
    pub traced: Option<Vec<M>>,
    pub tracer: Tracer,
}

/// Runs `round` untraced for the run's seconds — or, for a traced run, for
/// half of them untraced and half traced.
pub fn measure<M, S>(
    args: &RunArgs,
    mut round: impl FnMut(&mut Tracer) -> (M, S),
) -> Measured<M, S> {
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut tracer = Tracer::new(false);
    let cpu_before = process_cpu_seconds();
    let wall = Instant::now();
    let mut peak_rss_mb = None;
    let (rounds, end) = run_rounds(budget, || {
        let out = round(&mut tracer);
        peak_rss_mb = peak_rss_mb.or_else(peak_rss_mib);
        out
    });
    let cpu_per_wall = match (cpu_before, process_cpu_seconds()) {
        (Some(before), Some(after)) => (after - before) / wall.elapsed().as_secs_f64(),
        _ => 0.0,
    };
    let traced = args.trace.then(|| {
        tracer = Tracer::new(true);
        run_rounds(budget, || round(&mut tracer)).0
    });
    Measured {
        rounds,
        end,
        cpu_per_wall,
        peak_rss_mb: peak_rss_mb.expect("/proc/self/status reports VmHWM on Linux"),
        traced,
        tracer,
    }
}

impl<M, S> Measured<M, S> {
    /// Self seconds of the spans called `span`, summed over the traced
    /// rounds; 0 for an untraced run.
    pub fn traced_self_seconds(&self, span: &str) -> f64 {
        self.tracer.self_seconds().get(span).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric of a traced run (`None` for an untraced one):
    /// the timed region's split by layer from the spans' self times, the
    /// work `counts` of the region, and `probes` — the set-up stages and the
    /// public functions of the layers this workload enters. A declared
    /// metric nobody produced reads 0: the workload never enters that layer.
    ///
    /// `seconds_of` gives one round's timed seconds.
    pub fn layer_report(
        &self,
        seconds_of: impl Fn(&M) -> f64,
        counts: BTreeMap<&'static str, f64>,
        probes: impl FnOnce() -> BTreeMap<&'static str, f64>,
    ) -> Option<BTreeMap<&'static str, f64>> {
        let traced = self.traced.as_ref()?;
        let probes = probes();
        assert!(
            counts
                .keys()
                .chain(probes.keys())
                .all(|name| PER_LAYER.iter().any(|m| m.name == *name)),
            "a produced layer metric is not declared in spec::PER_LAYER"
        );
        let seconds = |rounds: &[M]| rounds.iter().map(&seconds_of).collect::<Vec<f64>>();
        let traced_seconds = seconds(traced);
        let timed: f64 = traced_seconds.iter().sum();
        let self_seconds = self.tracer.self_seconds();

        let mut report: BTreeMap<&'static str, f64> = BTreeMap::new();
        for metric in PER_LAYER {
            let value = match metric.name.strip_prefix("share.") {
                Some(span) => self_seconds.get(span).copied().unwrap_or(0.0) / timed,
                None => counts
                    .get(metric.name)
                    .or_else(|| probes.get(metric.name))
                    .copied()
                    .unwrap_or(0.0),
            };
            report.insert(metric.name, value);
        }
        let covered = self.tracer.top_level_seconds() / timed;
        report.insert("share.harness", (1.0 - covered).max(0.0));
        report.insert("run.timed_s", timed);
        report.insert(
            "run.trace_overhead_ratio",
            median(&traced_seconds) / median(&seconds(&self.rounds)),
        );
        report.insert("run.cpu_per_wall", self.cpu_per_wall);
        report.insert("run.spans", self.tracer.len() as f64);
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_counts_once_and_keeps_a_few_lines() {
        let mut checks = Checks::default();
        checks.ops(10);
        checks.check(true, || unreachable!("a passing check is not described"));
        for i in 0..20 {
            checks.check(false, || format!("check {i}"));
        }
        assert_eq!((checks.attempted, checks.failed), (31, 20));
        assert_eq!(checks.failures.len(), 8);
        assert_eq!(checks.failures[0], "check 0");
    }

    #[test]
    fn rates_and_latencies_are_medians_over_rounds() {
        let quiet: Vec<f64> = (1..=10).map(f64::from).collect();
        let slowed: Vec<f64> = quiet.iter().map(|us| us * 5.0).collect();
        let rounds = [
            (100.0, quiet.as_slice()),
            (20.0, slowed.as_slice()),
            (102.0, quiet.as_slice()),
        ];
        assert_eq!(rate_and_latency(rounds), (100.0, 5.0, 9.0));
        assert_eq!(rate_and_latency([(7.0, &[3.0][..])]), (7.0, 3.0, 3.0));
    }
}
