//! The trace configuration of the paper's workload, and the querier
//! schedule of the query-hotspot probe.
//!
//! The paper evaluates P3Q on a single workload, the delicious crawl with
//! its daily profile changes (Section 3.4.1) and simultaneous departures
//! (Section 3.4.2). [`ScenarioConfig::trace_config`] turns its one preset,
//! [`Scenario::PaperDelicious`] (Zipf popularity, interest communities and
//! log-normal profile sizes), a population and a seed into a
//! [`TraceConfig`] under one of the [`TraceShape`] vocabulary rules.
//! [`querier_schedule`] draws, per cycle, the small Zipf-skewed set of
//! users (well under 1% of the population) that issues queries in the
//! query-hotspot probe — the workload demand-driven resolution is built
//! for.
//!
//! Profile changes and departures are drawn by the experiment that runs
//! them ([`crate::DynamicsGenerator`], the simulator's mass departure), so
//! the trace is all a scenario generates. Generation is parallel and
//! deterministic, byte-identical for every thread count (see
//! [`crate::TraceGenerator`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use p3q_sim::stream_seed;

use crate::generator::TraceConfig;
use crate::ids::UserId;
use crate::zipf::ZipfSampler;

/// Salt for the per-cycle querier draws of [`querier_schedule`].
const STREAM_QUERIERS: u64 = 0x5CE0_A210_0000_0008;

/// A named workload preset: the paper's one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's delicious-like substrate.
    PaperDelicious,
}

/// How the trace vocabulary scales with the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceShape {
    /// The laptop vocabulary (12k items / 3k tags / 25 topics) regardless of
    /// population — the shape of the figure drivers, where changing `--users`
    /// should change only the population.
    FixedLaptop,
    /// The paper vocabulary (101k items / 32k tags / 80 topics).
    FixedPaper,
    /// Density-preserving scaling: items, tags and topics grow with the
    /// population so the per-user overlap structure stays constant — the
    /// shape of the throughput benchmarks.
    DensityScaled,
}

/// A fully specified scenario instance: population + seed + vocabulary
/// rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Population size.
    pub num_users: usize,
    /// Master seed; the trace derives its streams from it.
    pub seed: u64,
    /// Vocabulary scaling rule.
    pub shape: TraceShape,
}

impl ScenarioConfig {
    /// The preset over a density-scaled trace.
    pub fn new(_scenario: Scenario, num_users: usize, seed: u64) -> Self {
        Self {
            num_users,
            seed,
            shape: TraceShape::DensityScaled,
        }
    }

    /// Replaces the vocabulary scaling rule.
    pub fn with_shape(mut self, shape: TraceShape) -> Self {
        self.shape = shape;
        self
    }

    /// The trace configuration this scenario generates from: the shape rule
    /// applied to the population.
    pub fn trace_config(&self) -> TraceConfig {
        let mut cfg = match self.shape {
            TraceShape::FixedLaptop => TraceConfig::laptop_scale(self.seed),
            TraceShape::FixedPaper => TraceConfig::paper_scale(self.seed),
            TraceShape::DensityScaled => {
                let mut cfg = TraceConfig::laptop_scale(self.seed);
                cfg.num_items = self.num_users * 12;
                cfg.num_tags = (self.num_users * 3).max(300);
                cfg.num_topics = (self.num_users / 40).clamp(10, 200);
                cfg
            }
        };
        cfg.num_users = self.num_users;
        cfg
    }
}

/// The per-cycle querier sets of the query-hotspot probe: one entry per
/// cycle in `0..cycles`, each a sorted, deduplicated set of users issuing
/// queries that cycle. Draws follow a Zipf law over the user ids (rank 0 =
/// user 0 is the hottest querier) with roughly `num_users / 200` draws per
/// cycle, so well under 1% of the population is queried per cycle and the
/// same few users dominate — the skew that makes demand-driven resolution
/// pay off.
///
/// A pure function of `(num_users, seed, cycles)`.
pub fn querier_schedule(num_users: usize, seed: u64, cycles: u64) -> Vec<Vec<UserId>> {
    let sampler = ZipfSampler::new(num_users, 1.2);
    let draws_per_cycle = (num_users / 200).max(1);
    (0..cycles)
        .map(|cycle| {
            let mut rng = StdRng::seed_from_u64(stream_seed(seed ^ STREAM_QUERIERS, cycle));
            let mut queriers: Vec<UserId> = (0..draws_per_cycle)
                .map(|_| UserId::from_index(sampler.sample(&mut rng)))
                .collect();
            queriers.sort_unstable();
            queriers.dedup();
            queriers
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_hotspot_schedules_skewed_queriers_under_one_percent() {
        let schedule = querier_schedule(4_000, 11, 20);
        assert_eq!(schedule.len(), 20);
        let mut hits = vec![0usize; 4_000];
        for queriers in &schedule {
            assert!(!queriers.is_empty());
            // < 1% of the population queried per cycle.
            assert!(queriers.len() * 100 < 4_000, "{} queriers", queriers.len());
            assert!(queriers.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
            for q in queriers {
                assert!(q.index() < 4_000);
                hits[q.index()] += 1;
            }
        }
        // Zipf skew: the hottest user dominates the coldest half combined.
        let tail: usize = hits[2_000..].iter().sum();
        assert!(hits[0] > tail, "head {} vs tail {}", hits[0], tail);
        // Deterministic in the seed.
        assert_eq!(schedule, querier_schedule(4_000, 11, 20));
    }

    #[test]
    fn shapes_scale_the_vocabulary_differently() {
        let scaled = ScenarioConfig::new(Scenario::PaperDelicious, 80, 11);
        let fixed = scaled.clone().with_shape(TraceShape::FixedLaptop);
        assert_eq!(fixed.trace_config().num_items, 12_000);
        assert_eq!(scaled.trace_config().num_items, 80 * 12);
    }
}
