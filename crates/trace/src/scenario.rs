//! Scenario presets: one entry point from a named workload shape to a full
//! experiment substrate.
//!
//! The paper evaluates P3Q on a single workload — the delicious crawl — but
//! gossip systems differ most under *diverse* workloads: churn and dynamics
//! change both utility and privacy leakage, and personalization quality is
//! highly sensitive to the interest-distribution shape. A [`Scenario`] names
//! one such shape; [`ScenarioConfig::build`] turns it into a
//! [`ScenarioWorkload`]: the generated trace, the [`DynamicsPlan`] that
//! describes what happens on the cycle axis, and the materialized event
//! [`schedule`](ScenarioWorkload::schedule) the simulation layer feeds into
//! its `EventQueue`.
//!
//! The eight presets:
//!
//! * [`Scenario::PaperDelicious`] — the paper's evaluation substrate:
//!   Zipf popularity, interest communities, log-normal profile sizes, and
//!   two organic paper-day change batches (Section 3.4.1);
//! * [`Scenario::FlashCrowd`] — a burst of activity concentrated on a small
//!   hot item set mid-run (viral items, breaking news);
//! * [`Scenario::TopicDrift`] — changing users abandon their original
//!   interests, the workload under which cached similarity decays fastest;
//! * [`Scenario::ChurnHeavy`] — organic dynamics plus escalating mass
//!   departures (Section 3.4.2's churn axis, pushed harder);
//! * [`Scenario::LossyNetwork`] — the paper's substrate over an imperfect
//!   network: gossip exchanges are dropped, delayed and duplicated by the
//!   recommended fault schedule ([`Scenario::fault_config`]);
//! * [`Scenario::CrashRestart`] — nodes crash (losing volatile state) and
//!   restart a few cycles later, continuously, through the recommended
//!   fault schedule;
//! * [`Scenario::QueryHotspot`] — the paper's substrate plus a skewed
//!   *querier* schedule ([`ScenarioConfig::querier_schedule`]): every cycle
//!   a small Zipf-distributed set of users (well under 1% of the
//!   population) issues queries while organic dynamics keep invalidating
//!   cached similarity — the workload demand-driven resolution is built
//!   for;
//! * [`Scenario::UniformControl`] — the null model: one topic, exponent-0
//!   popularity, no scheduled events. Any personalization benefit measured
//!   here is noise, which is exactly what a control is for.
//!
//! The fault axes differ from the dynamics axes on purpose: drops, delays
//! and crashes live in the *simulation* layer's seeded
//! [`p3q_sim::FaultConfig`] schedule, not in the trace, so the same
//! workload can be replayed under any fault rate. A scenario only
//! *recommends* a schedule via [`Scenario::fault_config`].
//!
//! Generation is parallel and deterministic: the trace and every scheduled
//! change batch are fanned out over worker threads with byte-identical
//! output for every thread count (see [`crate::TraceGenerator`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use p3q_sim::{default_threads, stream_seed};

use crate::dynamics::{ChangeBatch, DynamicsConfig, DynamicsGenerator};
use crate::generator::{SyntheticTrace, TraceConfig, TraceGenerator};
use crate::ids::UserId;
use crate::zipf::ZipfSampler;

/// Salt for per-plan-step batch seeds.
const STREAM_PLAN: u64 = 0x5CE0_A210_0000_0007;
/// Salt for the per-cycle querier draws of [`Scenario::QueryHotspot`].
const STREAM_QUERIERS: u64 = 0x5CE0_A210_0000_0008;

/// A named workload preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// The paper's delicious-like substrate with organic daily dynamics.
    PaperDelicious,
    /// A mid-run burst of tagging concentrated on a few hot items.
    FlashCrowd,
    /// Changing users drift to new topics, decaying all cached similarity.
    TopicDrift,
    /// Organic dynamics plus escalating mass departures.
    ChurnHeavy,
    /// The paper's substrate under lossy delivery (drops/delays/duplicates).
    LossyNetwork,
    /// Nodes continuously crash (losing volatile state) and restart.
    CrashRestart,
    /// Organic dynamics plus a Zipf-skewed querier schedule touching well
    /// under 1% of the population per cycle.
    QueryHotspot,
    /// No communities, no popularity skew, no events — the control.
    UniformControl,
}

impl Scenario {
    /// Every preset, in presentation order.
    pub const ALL: [Scenario; 8] = [
        Scenario::PaperDelicious,
        Scenario::FlashCrowd,
        Scenario::TopicDrift,
        Scenario::ChurnHeavy,
        Scenario::LossyNetwork,
        Scenario::CrashRestart,
        Scenario::QueryHotspot,
        Scenario::UniformControl,
    ];

    /// The preset's kebab-case command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::PaperDelicious => "paper-delicious",
            Scenario::FlashCrowd => "flash-crowd",
            Scenario::TopicDrift => "topic-drift",
            Scenario::ChurnHeavy => "churn-heavy",
            Scenario::LossyNetwork => "lossy-network",
            Scenario::CrashRestart => "crash-restart",
            Scenario::QueryHotspot => "query-hotspot",
            Scenario::UniformControl => "uniform-control",
        }
    }

    /// Resolves a command-line name (as produced by [`name`](Self::name)).
    pub fn from_name(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// One-line description for `--help` output and reports.
    pub fn description(self) -> &'static str {
        match self {
            Scenario::PaperDelicious => {
                "paper-scale delicious shape: Zipf popularity, communities, organic daily changes"
            }
            Scenario::FlashCrowd => "mid-run tagging burst concentrated on a small hot item set",
            Scenario::TopicDrift => {
                "changing users drift to new topics, decaying cached similarity"
            }
            Scenario::ChurnHeavy => "organic dynamics plus escalating mass departures",
            Scenario::LossyNetwork => {
                "paper substrate with gossip exchanges dropped, delayed and duplicated"
            }
            Scenario::CrashRestart => {
                "nodes crash (losing volatile state) and restart a few cycles later"
            }
            Scenario::QueryHotspot => {
                "organic dynamics plus a Zipf-skewed querier set (<1% of users per cycle)"
            }
            Scenario::UniformControl => "one topic, no popularity skew, no events (null model)",
        }
    }

    /// The fault schedule this preset recommends, derived from the given
    /// seed (the simulation layer passes its master seed for replayable
    /// runs). Every preset except the two fault axes recommends a zero
    /// schedule — running them faulted is byte-identical to the faultless
    /// engine.
    pub fn fault_config(self, fault_seed: u64) -> p3q_sim::FaultConfig {
        match self {
            Scenario::LossyNetwork => p3q_sim::FaultConfig::lossy(0.05, fault_seed),
            Scenario::CrashRestart => p3q_sim::FaultConfig::crash_restart(0.02, 2, fault_seed),
            _ => p3q_sim::FaultConfig::none(),
        }
    }
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
/// schedule horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// The workload preset.
    pub scenario: Scenario,
    /// Population size.
    pub num_users: usize,
    /// Master seed; the trace and every scheduled batch derive their streams
    /// from it.
    pub seed: u64,
    /// Number of gossip cycles the event schedule spreads over.
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

    /// Replaces the schedule horizon.
    pub fn with_horizon(mut self, horizon: u64) -> Self {
        self.horizon = horizon;
        self
    }

    /// The trace configuration this scenario generates from: the shape rule
    /// applied to the population, then the preset's structural overrides.
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
        if self.scenario == Scenario::UniformControl {
            // The null model: one global topic (no communities) and
            // exponent-0 Zipf (uniform popularity). Tag consistency is kept
            // so queries still mean something.
            cfg.num_topics = 1;
            cfg.item_zipf_exponent = 0.0;
            cfg.tag_zipf_exponent = 0.0;
            cfg.shared_tag_fraction = 1.0;
        }
        cfg
    }

    /// What happens on the cycle axis, before any batch is materialized.
    /// Every step fires at a cycle within `[0, horizon]`, so a run of
    /// `horizon` cycles (with an end-boundary event flush) delivers the
    /// whole schedule even for tiny horizons.
    pub fn dynamics_plan(&self) -> DynamicsPlan {
        let h = self.horizon;
        let step_seed = |index: usize| stream_seed(self.seed ^ STREAM_PLAN, index as u64);
        let steps = match self.scenario {
            Scenario::PaperDelicious => vec![
                PlanStep::changes(h / 3, DynamicsConfig::paper_day(step_seed(0))),
                PlanStep::changes(2 * h / 3, DynamicsConfig::paper_day(step_seed(1))),
            ],
            Scenario::FlashCrowd => {
                let hot_items = (self.num_users / 100).clamp(5, 50);
                // One hot seed across the whole burst: different users tag
                // on each cycle, but the *same* items stay viral.
                let hot_seed = step_seed(usize::MAX);
                (0..3)
                    .map(|k| {
                        PlanStep::changes(
                            (h / 3 + k).min(h),
                            DynamicsConfig::flash_crowd(
                                step_seed(k as usize),
                                hot_seed,
                                0.4,
                                hot_items,
                                0.9,
                            ),
                        )
                    })
                    .collect()
            }
            Scenario::TopicDrift => (0..3)
                .map(|k| {
                    PlanStep::changes(
                        (k + 1) * h / 4,
                        DynamicsConfig::topic_drift(step_seed(k as usize), 0.8),
                    )
                })
                .collect(),
            Scenario::ChurnHeavy => vec![
                PlanStep::departure(h / 4, 0.10),
                PlanStep::changes(h / 3, DynamicsConfig::paper_day(step_seed(0))),
                PlanStep::departure(h / 2, 0.20),
                PlanStep::changes(2 * h / 3, DynamicsConfig::paper_day(step_seed(1))),
                PlanStep::departure(3 * h / 4, 0.30),
            ],
            // The fault axes keep the paper's organic dynamics so that loss
            // and crashes are the *only* difference to PaperDelicious; the
            // faults themselves live in the simulation layer's schedule
            // (see [`Scenario::fault_config`]), not on the cycle axis.
            Scenario::LossyNetwork => vec![
                PlanStep::changes(h / 3, DynamicsConfig::paper_day(step_seed(0))),
                PlanStep::changes(2 * h / 3, DynamicsConfig::paper_day(step_seed(1))),
            ],
            Scenario::CrashRestart => vec![PlanStep::changes(
                h / 2,
                DynamicsConfig::paper_day(step_seed(0)),
            )],
            // The hotspot axis is the *querier* schedule; the cycle axis
            // keeps the paper's organic dynamics so cached similarity is
            // continuously invalidated under the query load.
            Scenario::QueryHotspot => vec![
                PlanStep::changes(h / 3, DynamicsConfig::paper_day(step_seed(0))),
                PlanStep::changes(2 * h / 3, DynamicsConfig::paper_day(step_seed(1))),
            ],
            Scenario::UniformControl => Vec::new(),
        };
        DynamicsPlan { steps }
    }

    /// The per-cycle querier sets of the [`Scenario::QueryHotspot`] preset:
    /// one entry per cycle in `0..horizon`, each a sorted, deduplicated set
    /// of users issuing queries that cycle. Draws follow a Zipf law over
    /// the user ids (rank 0 = user 0 is the hottest querier) with roughly
    /// `num_users / 200` draws per cycle, so well under 1% of the
    /// population is queried per cycle and the same few users dominate —
    /// the skew that makes demand-driven resolution pay off.
    ///
    /// A pure function of `(seed, num_users, horizon)`. Every other preset
    /// returns an empty schedule (queries are not part of its axis).
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

    /// Materializes the scenario with the default worker-thread count
    /// (`P3Q_THREADS` override).
    pub fn build(&self) -> ScenarioWorkload {
        self.build_with_threads(default_threads())
    }

    /// Materializes the scenario with an explicit worker-thread count:
    /// generates the trace, then every planned change batch. Output is
    /// byte-identical for every thread count.
    pub fn build_with_threads(&self, threads: usize) -> ScenarioWorkload {
        let trace = TraceGenerator::new(self.trace_config()).generate_with_threads(threads);
        let plan = self.dynamics_plan();
        let schedule = plan.materialize_with_threads(&trace, threads);
        ScenarioWorkload {
            config: self.clone(),
            trace,
            plan,
            schedule,
        }
    }
}

/// One step of a [`DynamicsPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// The cycle at which the step fires.
    pub cycle: u64,
    /// What fires.
    pub kind: PlanKind,
}

impl PlanStep {
    fn changes(cycle: u64, config: DynamicsConfig) -> Self {
        Self {
            cycle,
            kind: PlanKind::Changes(config),
        }
    }

    fn departure(cycle: u64, fraction: f64) -> Self {
        Self {
            cycle,
            kind: PlanKind::Departure(fraction),
        }
    }
}

/// The kind of a plan step.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// A batch of profile changes with the given configuration.
    Changes(DynamicsConfig),
    /// A mass departure of the given fraction of alive users.
    Departure(f64),
}

/// The cycle-axis plan of a scenario: which change batches and departures
/// fire when. This is the *description*;
/// [`DynamicsPlan::materialize_with_threads`] turns it into concrete events against a generated trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsPlan {
    /// The steps, in firing order.
    pub steps: Vec<PlanStep>,
}

impl DynamicsPlan {
    /// Number of planned steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if nothing is planned.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Generates the concrete event schedule for `trace` with an explicit
    /// worker-thread count.
    pub fn materialize_with_threads(
        &self,
        trace: &SyntheticTrace,
        threads: usize,
    ) -> Vec<(u64, ScenarioEvent)> {
        self.steps
            .iter()
            .map(|step| {
                let event = match &step.kind {
                    PlanKind::Changes(cfg) => ScenarioEvent::ProfileChanges(
                        DynamicsGenerator::new(cfg.clone()).generate_with_threads(trace, threads),
                    ),
                    PlanKind::Departure(fraction) => ScenarioEvent::MassDeparture(*fraction),
                };
                (step.cycle, event)
            })
            .collect()
    }
}

/// A concrete scheduled event: what the simulation layer applies at a cycle
/// boundary. The bench crate converts these 1:1 into its `EventQueue`
/// vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// A batch of profile changes hits the owners' nodes.
    ProfileChanges(ChangeBatch),
    /// A fraction of the alive population departs simultaneously.
    MassDeparture(f64),
}

/// A materialized scenario: the trace, the plan, and the concrete schedule.
#[derive(Debug, Clone)]
pub struct ScenarioWorkload {
    /// The configuration that produced this workload.
    pub config: ScenarioConfig,
    /// The generated trace (dataset + latent topic model).
    pub trace: SyntheticTrace,
    /// The cycle-axis plan.
    pub plan: DynamicsPlan,
    /// The concrete events, ordered by firing cycle.
    pub schedule: Vec<(u64, ScenarioEvent)>,
}

impl ScenarioWorkload {
    /// Total number of new tagging actions across all scheduled change
    /// batches.
    pub fn scheduled_actions(&self) -> usize {
        self.schedule
            .iter()
            .map(|(_, event)| match event {
                ScenarioEvent::ProfileChanges(batch) => batch
                    .changes
                    .iter()
                    .map(|c| c.new_actions.len())
                    .sum::<usize>(),
                ScenarioEvent::MassDeparture(_) => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(scenario: Scenario) -> ScenarioConfig {
        ScenarioConfig::new(scenario, 80, 11).with_horizon(12)
    }

    #[test]
    fn every_preset_builds_and_round_trips_names() {
        for scenario in Scenario::ALL {
            assert_eq!(Scenario::from_name(scenario.name()), Some(scenario));
            let workload = tiny(scenario).build();
            assert_eq!(workload.trace.dataset.num_users(), 80);
            assert!(workload.trace.dataset.total_actions() > 0);
            for (cycle, _) in &workload.schedule {
                assert!(*cycle <= 12);
            }
        }
        assert_eq!(Scenario::from_name("no-such"), None);
    }

    #[test]
    fn build_is_byte_identical_for_any_thread_count() {
        for scenario in [Scenario::FlashCrowd, Scenario::ChurnHeavy] {
            let cfg = tiny(scenario);
            let reference = cfg.build_with_threads(1);
            for threads in [2, 3, 8] {
                let parallel = cfg.build_with_threads(threads);
                assert_eq!(parallel.schedule, reference.schedule, "threads = {threads}");
                for user in reference.trace.dataset.users() {
                    assert_eq!(
                        parallel.trace.dataset.profile(user),
                        reference.trace.dataset.profile(user)
                    );
                }
            }
        }
    }

    #[test]
    fn churn_heavy_schedules_departures() {
        let workload = tiny(Scenario::ChurnHeavy).build();
        let departures: Vec<f64> = workload
            .schedule
            .iter()
            .filter_map(|(_, e)| match e {
                ScenarioEvent::MassDeparture(f) => Some(*f),
                _ => None,
            })
            .collect();
        assert_eq!(departures.len(), 3);
        assert!(departures.iter().all(|f| (0.0..1.0).contains(f)));
        assert!(workload.scheduled_actions() > 0);
    }

    #[test]
    fn uniform_control_has_no_events_and_one_topic() {
        let cfg = tiny(Scenario::UniformControl);
        assert!(cfg.dynamics_plan().is_empty());
        assert_eq!(cfg.trace_config().num_topics, 1);
        let workload = cfg.build();
        assert!(workload.schedule.is_empty());
        assert_eq!(workload.scheduled_actions(), 0);
    }

    #[test]
    fn fault_axes_recommend_schedules_and_others_do_not() {
        let lossy = Scenario::LossyNetwork.fault_config(42);
        assert!(lossy.drop_rate > 0.0);
        assert_eq!(lossy.crash_rate, 0.0);
        let crashy = Scenario::CrashRestart.fault_config(42);
        assert!(crashy.crash_rate > 0.0);
        assert!(crashy.is_delivery_perfect());
        for scenario in [
            Scenario::PaperDelicious,
            Scenario::FlashCrowd,
            Scenario::TopicDrift,
            Scenario::ChurnHeavy,
            Scenario::QueryHotspot,
            Scenario::UniformControl,
        ] {
            assert!(scenario.fault_config(42).is_none(), "{}", scenario.name());
        }
        // The recommended schedules are seed-parameterized and replayable.
        assert_eq!(lossy, Scenario::LossyNetwork.fault_config(42));
        assert_ne!(
            lossy.fault_seed,
            Scenario::LossyNetwork.fault_config(7).fault_seed
        );
    }

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
        // Deterministic in the seed, and the dynamics axis still fires.
        assert_eq!(schedule, cfg.querier_schedule());
        assert!(!cfg.dynamics_plan().is_empty());
        // Other presets have no querier axis.
        let plain = ScenarioConfig::new(Scenario::PaperDelicious, 4_000, 11).with_horizon(20);
        assert!(plain.querier_schedule().is_empty());
    }

    #[test]
    fn shapes_scale_the_vocabulary_differently() {
        let fixed = tiny(Scenario::PaperDelicious).with_shape(TraceShape::FixedLaptop);
        assert_eq!(fixed.trace_config().num_items, 12_000);
        let scaled = tiny(Scenario::PaperDelicious);
        assert_eq!(scaled.trace_config().num_items, 80 * 12);
    }
}
