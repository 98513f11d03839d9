//! Scenario presets: one entry point from a named workload shape to the
//! trace configuration an experiment generates from.
//!
//! The paper evaluates P3Q on a single workload, the delicious crawl with
//! its daily profile changes (Section 3.4.1) and simultaneous departures
//! (Section 3.4.2). A [`Scenario`] names the trace that workload runs on;
//! [`ScenarioConfig::trace_config`] turns it, a population and a seed into
//! a [`TraceConfig`] under one of the [`TraceShape`] vocabulary rules. The
//! two presets:
//!
//! * [`Scenario::PaperDelicious`] — the paper's evaluation substrate:
//!   Zipf popularity, interest communities and log-normal profile sizes;
//! * [`Scenario::QueryHotspot`] — the same trace plus a skewed *querier*
//!   schedule ([`ScenarioConfig::querier_schedule`]): every cycle a small
//!   Zipf-distributed set of users (well under 1% of the population)
//!   issues queries — the workload demand-driven resolution is built for.
//!
//! Profile changes and departures are drawn by the experiment that runs
//! them ([`crate::DynamicsGenerator`], the simulator's mass departure), so
//! the trace is all a preset generates. Generation is parallel and
//! deterministic, byte-identical for every thread count (see
//! [`crate::TraceGenerator`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use p3q_sim::stream_seed;

use crate::generator::TraceConfig;
use crate::ids::UserId;
use crate::zipf::ZipfSampler;

/// Salt for the per-cycle querier draws of [`Scenario::QueryHotspot`].
const STREAM_QUERIERS: u64 = 0x5CE0_A210_0000_0008;

/// A named workload preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's delicious-like substrate.
    PaperDelicious,
    /// The paper's substrate plus a Zipf-skewed querier schedule touching
    /// well under 1% of the population per cycle.
    QueryHotspot,
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

/// A fully specified scenario instance: preset + population + seed +
/// querier-schedule horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// The workload preset.
    pub scenario: Scenario,
    /// Population size.
    pub num_users: usize,
    /// Master seed; the trace and the querier schedule derive their streams
    /// from it.
    pub seed: u64,
    /// Number of cycles the querier schedule spans.
    pub horizon: u64,
    /// Vocabulary scaling rule.
    pub shape: TraceShape,
}

impl ScenarioConfig {
    /// A scenario over a density-scaled trace with a 60-cycle horizon.
    pub fn new(scenario: Scenario, num_users: usize, seed: u64) -> Self {
        Self {
            scenario,
            num_users,
            seed,
            horizon: 60,
            shape: TraceShape::DensityScaled,
        }
    }

    /// Replaces the vocabulary scaling rule.
    pub fn with_shape(mut self, shape: TraceShape) -> Self {
        self.shape = shape;
        self
    }

    /// Replaces the querier-schedule horizon.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
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

    /// The per-cycle querier sets of the [`Scenario::QueryHotspot`] preset:
    /// one entry per cycle in `0..horizon`, each a sorted, deduplicated set
    /// of users issuing queries that cycle. Draws follow a Zipf law over
    /// the user ids (rank 0 = user 0 is the hottest querier) with roughly
    /// `num_users / 200` draws per cycle, so well under 1% of the
    /// population is queried per cycle and the same few users dominate —
    /// the skew that makes demand-driven resolution pay off.
    ///
    /// A pure function of `(seed, num_users, horizon)`.
    /// [`Scenario::PaperDelicious`] returns an empty schedule (queries are
    /// not part of its axis).
    pub fn querier_schedule(&self) -> Vec<Vec<UserId>> {
        if self.scenario != Scenario::QueryHotspot {
            return Vec::new();
        }
        let sampler = ZipfSampler::new(self.num_users, 1.2);
        let draws_per_cycle = (self.num_users / 200).max(1);
        (0..self.horizon)
            .map(|cycle| {
                let mut rng =
                    StdRng::seed_from_u64(stream_seed(self.seed ^ STREAM_QUERIERS, cycle));
                let mut queriers: Vec<UserId> = (0..draws_per_cycle)
                    .map(|_| UserId::from_index(sampler.sample(&mut rng)))
                    .collect();
                queriers.sort_unstable();
                queriers.dedup();
                queriers
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_hotspot_schedules_skewed_queriers_under_one_percent() {
        let cfg = ScenarioConfig::new(Scenario::QueryHotspot, 4_000, 11).with_horizon(20);
        let schedule = cfg.querier_schedule();
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
        assert_eq!(schedule, cfg.querier_schedule());
        // The paper preset has no querier axis.
        let plain = ScenarioConfig::new(Scenario::PaperDelicious, 4_000, 11).with_horizon(20);
        assert!(plain.querier_schedule().is_empty());
    }

    #[test]
    fn shapes_scale_the_vocabulary_differently() {
        let scaled = ScenarioConfig::new(Scenario::PaperDelicious, 80, 11);
        let fixed = scaled.clone().with_shape(TraceShape::FixedLaptop);
        assert_eq!(fixed.trace_config().num_items, 12_000);
        assert_eq!(scaled.trace_config().num_items, 80 * 12);
    }
}
