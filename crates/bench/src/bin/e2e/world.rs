//! What the workloads share: the pinned configuration, the pipeline stages
//! every set-up goes through (trace → index → ideal networks → simulator →
//! bootstrap), and the set-up / round timers.

use std::collections::BTreeMap;
use std::time::Instant;

use p3q::prelude::*;
use p3q::storage::scale_bucket;
use p3q_trace::{Scenario, ScenarioConfig, SyntheticTrace};

use crate::host::WORKER_THREADS;

/// `f`'s result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds each stage of a set-up took, by the per-layer metric that names
/// the stage. The stages are timed where they run, once, as part of the
/// set-up `setup_s` measures — nothing is executed again to learn them.
#[derive(Debug, Default)]
pub struct Stages(pub BTreeMap<&'static str, f64>);

impl Stages {
    pub fn time<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, seconds) = timed(f);
        *self.0.entry(metric).or_insert(0.0) += seconds;
        out
    }
}

/// Protocol parameters of every workload: the laptop-scale configuration
/// (`s = 100`, 4 Kbit digests).
pub fn protocol_config() -> P3qConfig {
    P3qConfig::laptop_scale()
}

/// Stored profiles per user, `c`: the paper's 100-profile bucket scaled to
/// the configured personal-network size (10 at `s = 100`).
pub fn storage_budget(cfg: &P3qConfig) -> usize {
    scale_bucket(100, cfg.personal_network_size)
}

/// The density-scaled `paper-delicious` trace for `users` users: the
/// vocabulary grows with the population (the 10 000-user point has the
/// paper's 10k-user / ≈101k-item density).
pub fn scenario_trace(users: usize, seed: u64, stages: &mut Stages) -> SyntheticTrace {
    let config = ScenarioConfig::new(Scenario::PaperDelicious, users, seed).trace_config();
    let trace = stages.time("trace.generate_s", || {
        TraceGenerator::new(config).generate_with_threads(WORKER_THREADS)
    });
    let rate = trace.dataset.total_actions() as f64 / stages.0["trace.generate_s"];
    stages.0.insert("trace.generate_actions_per_s", rate);
    trace
}

/// The offline half of the pipeline over one trace.
pub struct Offline {
    pub trace: SyntheticTrace,
    pub cfg: P3qConfig,
    pub ideal: IdealNetworks,
}

/// Trace, index and ideal networks for `users` users.
pub fn offline(users: usize, seed: u64, stages: &mut Stages) -> Offline {
    let trace = scenario_trace(users, seed, stages);
    let cfg = protocol_config();
    let index = stages.time("core.similarity.index_build_s", || {
        ActionIndex::build(&trace.dataset)
    });
    let ideal = IdealNetworks::compute_with_index_threads(
        &trace.dataset,
        cfg.personal_network_size,
        &index,
        WORKER_THREADS,
    );
    Offline { trace, cfg, ideal }
}

/// One node per user, each willing to store `c` profiles, every random view
/// seeded with `r` random peers; personal networks stay empty.
pub fn bootstrapped_simulator(
    trace: &SyntheticTrace,
    cfg: &P3qConfig,
    seed: u64,
    stages: &mut Stages,
) -> Simulator<P3qNode> {
    let budgets = vec![storage_budget(cfg); trace.dataset.num_users()];
    let mut sim = stages.time("core.experiment.build_simulator_s", || {
        build_simulator_with_budgets(&trace.dataset, cfg, &budgets, seed)
    });
    let mut rng = sim.derived_rng(0xB007);
    stages.time("core.lazy.bootstrap_s", || {
        bootstrap_random_views_with_threads(&mut sim, cfg, &mut rng, WORKER_THREADS)
    });
    sim
}

/// Up to `count` distinct positions in `0..len`, spread evenly and shifted
/// by the seed so different seeds sample different members.
pub fn spread_sample(len: usize, count: usize, seed: u64) -> Vec<usize> {
    let count = count.min(len);
    let shift = (seed % len.max(1) as u64) as usize;
    (0..count)
        .map(|i| (i * len / count + shift) % len)
        .collect()
}

/// Calls `round` until `seconds` have passed — at least once. A round
/// returns its measurements and its end state; the measurements of every
/// round are kept, the end state only of the last, and each is dropped
/// before the next round starts, so peak memory does not grow with the
/// number of rounds a fast host fits in.
pub fn run_rounds<M, S>(seconds: f64, mut round: impl FnMut() -> (M, S)) -> (Vec<M>, S) {
    let clock = Instant::now();
    let mut measurements = Vec::new();
    let mut end_state = None;
    loop {
        drop(end_state.take());
        let (measured, state) = round();
        measurements.push(measured);
        end_state = Some(state);
        if clock.elapsed().as_secs_f64() >= seconds {
            return (measurements, end_state.expect("a round just ran"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_sample_is_distinct_and_seeded() {
        let a = spread_sample(100, 10, 3);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(a.iter().all(|&i| i < 100));
        assert_ne!(a, spread_sample(100, 10, 4));
        assert_eq!(spread_sample(3, 10, 0), vec![0, 1, 2]);
        assert!(spread_sample(0, 5, 1).is_empty());
    }

    #[test]
    fn rounds_run_at_least_once_and_stages_add_up() {
        let (measurements, end) = run_rounds(0.0, || (1, "end"));
        assert_eq!((measurements, end), (vec![1], "end"));
        let mut stages = Stages::default();
        assert_eq!(stages.time("a", || 7), 7);
        let first = stages.0["a"];
        stages.time("a", || ());
        assert!(stages.0["a"] >= first && first >= 0.0);
    }
}
