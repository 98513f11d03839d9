//! Profile dynamics: users keep tagging new items over time.
//!
//! Section 3.4.1 of the paper analyses a year of delicious activity and finds
//! that every week roughly 3,000 of the 10,000 users change their profiles
//! (about 15% per day), adding on average 8 new tagging actions (maximum 268
//! in the day simulated). This module generates such change batches on top of
//! a synthetic trace, reusing the trace's latent topic model so that the new
//! actions remain consistent with each user's interests.
//!
//! Each user's participation, change size and new actions are drawn from a
//! **per-user RNG stream** derived from the batch seed and the user index
//! alone, so batch generation fans out over worker threads
//! ([`DynamicsGenerator::generate_with_threads`]) with output byte-identical
//! for every thread count (oracle:
//! [`DynamicsGenerator::generate_reference`]).
//!
//! Beyond the paper's organic day, [`DynamicsMode`] opens the
//! scenario-diversity axis: *topic drift* (changing users tag outside their
//! original interests) and *flash crowds* (a burst of activity concentrated
//! on a small hot item set).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p3q_sim::{default_threads, parallel_map, stream_seed};

use crate::action::TaggingAction;
use crate::dataset::Dataset;
use crate::generator::{SyntheticTrace, TraceGenerator};
use crate::ids::{ItemId, UserId};
use crate::zipf::ZipfSampler;

/// Salt for the per-user change streams.
const STREAM_CHANGE: u64 = 0xD1A0_11C5_0000_0005;
/// Salt for the hot-item selection stream of flash-crowd batches.
const STREAM_HOT_ITEMS: u64 = 0xF1A5_0C20_0000_0006;

/// How the new tagging actions of a change batch are distributed.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicsMode {
    /// The paper's organic day: every changing user tags new items from her
    /// own interest topics.
    Organic,
    /// Interest drift: with probability `drift_probability`, a changing user
    /// draws her new actions from a *drifted* topic (derived from her user
    /// id) instead of her original interests — the workload shape under
    /// which cached similarity scores and personal networks decay fastest.
    TopicDrift {
        /// Probability that a changing user's batch is drawn from the
        /// drifted topic rather than her own topics.
        drift_probability: f64,
    },
    /// Flash crowd: a small set of `hot_items` dominates the batch — each
    /// new tagged item is, with probability `hot_probability`, drawn
    /// uniformly from the hot set (tagged with its characteristic tags)
    /// instead of the user's own interests. Models viral items, breaking
    /// news, frontpage effects.
    FlashCrowd {
        /// Number of simultaneously hot items.
        hot_items: usize,
        /// Probability that one tagged item comes from the hot set.
        hot_probability: f64,
        /// Seed of the hot-set selection, separate from the batch seed so a
        /// multi-cycle burst (several batches, different participants) can
        /// keep hammering the *same* items.
        hot_seed: u64,
    },
}

impl DynamicsMode {
    fn validate(&self) {
        match self {
            DynamicsMode::Organic => {}
            DynamicsMode::TopicDrift { drift_probability } => {
                assert!(
                    (0.0..=1.0).contains(drift_probability),
                    "drift_probability must be a probability"
                );
            }
            DynamicsMode::FlashCrowd {
                hot_items,
                hot_probability,
                ..
            } => {
                assert!(*hot_items >= 1, "a flash crowd needs at least one item");
                assert!(
                    (0.0..=1.0).contains(hot_probability),
                    "hot_probability must be a probability"
                );
            }
        }
    }
}

/// Configuration of a profile-change batch.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsConfig {
    /// Fraction of users that change their profile in the batch
    /// (the paper's simulated day: 1540 / 10000 ≈ 0.154).
    pub fraction_changing: f64,
    /// Mean number of new tagging actions per changing user (paper: 8).
    pub mean_new_actions: f64,
    /// Maximum number of new tagging actions per changing user (paper: 268).
    pub max_new_actions: usize,
    /// How the new actions are distributed over items and topics.
    pub mode: DynamicsMode,
    /// RNG seed.
    pub seed: u64,
}

impl DynamicsConfig {
    /// The paper's simulated day (2008-11-11 week): ~15% of users change,
    /// 8 new actions on average, 268 at most.
    pub fn paper_day(seed: u64) -> Self {
        Self {
            fraction_changing: 0.154,
            mean_new_actions: 8.0,
            max_new_actions: 268,
            mode: DynamicsMode::Organic,
            seed,
        }
    }

    /// A batch where *every* user changes her profile simultaneously — the
    /// stress scenario quoted in the paper's summary ("even if all users
    /// simultaneously change their profiles…").
    pub fn all_users(seed: u64) -> Self {
        Self {
            fraction_changing: 1.0,
            mean_new_actions: 8.0,
            max_new_actions: 268,
            mode: DynamicsMode::Organic,
            seed,
        }
    }

    /// A paper-day batch where changing users drift to new topics with the
    /// given probability.
    pub fn topic_drift(seed: u64, drift_probability: f64) -> Self {
        Self {
            mode: DynamicsMode::TopicDrift { drift_probability },
            ..Self::paper_day(seed)
        }
    }

    /// A flash-crowd burst: `fraction_changing` of the users tag, and most
    /// tagged items (probability `hot_probability`) come from a hot set of
    /// `hot_items` items chosen by `hot_seed` — pass the same `hot_seed`
    /// with different batch `seed`s to model a burst that spans several
    /// cycles with different participants but the same viral items.
    pub fn flash_crowd(
        seed: u64,
        hot_seed: u64,
        fraction_changing: f64,
        hot_items: usize,
        hot_probability: f64,
    ) -> Self {
        Self {
            fraction_changing,
            mode: DynamicsMode::FlashCrowd {
                hot_items,
                hot_probability,
                hot_seed,
            },
            ..Self::paper_day(seed)
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.fraction_changing),
            "fraction_changing must be a probability"
        );
        assert!(
            self.mean_new_actions > 0.0,
            "mean_new_actions must be positive"
        );
        assert!(
            self.max_new_actions >= 1,
            "max_new_actions must be positive"
        );
        self.mode.validate();
    }
}

/// The profile change of one user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileChange {
    /// The user whose profile changes.
    pub user: UserId,
    /// The tagging actions added to her profile.
    pub new_actions: Vec<TaggingAction>,
}

/// A batch of simultaneous profile changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeBatch {
    /// Per-user changes; at most one entry per user.
    pub changes: Vec<ProfileChange>,
}

impl ChangeBatch {
    /// Users affected by the batch.
    pub fn changed_users(&self) -> Vec<UserId> {
        self.changes.iter().map(|c| c.user).collect()
    }

    /// Number of changing users.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Returns `true` if no user changes.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Average number of new actions per changing user.
    pub fn mean_new_actions(&self) -> f64 {
        if self.changes.is_empty() {
            return 0.0;
        }
        self.changes
            .iter()
            .map(|c| c.new_actions.len())
            .sum::<usize>() as f64
            / self.changes.len() as f64
    }

    /// Largest number of new actions added to a single profile.
    pub fn max_new_actions(&self) -> usize {
        self.changes
            .iter()
            .map(|c| c.new_actions.len())
            .max()
            .unwrap_or(0)
    }

    /// Applies the batch to a dataset, mutating the affected profiles.
    ///
    /// Returns the number of actions that were genuinely new (duplicates of
    /// existing actions are ignored, matching the set semantics of profiles).
    pub fn apply(&self, dataset: &mut Dataset) -> usize {
        let mut added = 0;
        for change in &self.changes {
            added += dataset
                .profile_mut(change.user)
                .extend(change.new_actions.iter().copied());
        }
        added
    }
}

/// Generates change batches consistent with a synthetic trace's topic model.
#[derive(Debug, Clone)]
pub struct DynamicsGenerator {
    config: DynamicsConfig,
}

/// Shared per-batch context: the trace generator, the Zipf samplers and the
/// (possibly empty) hot item set — read-only state every per-user worker
/// borrows.
struct BatchContext {
    trace_gen: TraceGenerator,
    item_sampler: ZipfSampler,
    tag_sampler: ZipfSampler,
    hot_items: Vec<ItemId>,
}

impl DynamicsGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: DynamicsConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Generates one batch of profile changes for the given trace, fanning
    /// per-user change generation out over the default worker-thread count
    /// (`P3Q_THREADS` override). Output is byte-identical for every thread
    /// count.
    pub fn generate(&self, trace: &SyntheticTrace) -> ChangeBatch {
        self.generate_with_threads(trace, default_threads())
    }

    /// Generates one batch with an explicit worker-thread count.
    pub fn generate_with_threads(&self, trace: &SyntheticTrace, threads: usize) -> ChangeBatch {
        let ctx = self.batch_context(trace);
        let per_user = parallel_map(
            0..trace.dataset.num_users(),
            threads,
            || (),
            |user, ()| self.change_for_user(trace, &ctx, user),
        );
        ChangeBatch {
            changes: per_user.into_iter().flatten().collect(),
        }
    }

    /// The retained sequential oracle: a plain loop over users, against
    /// which the parallel batch generator is property-tested byte-identical.
    pub fn generate_reference(&self, trace: &SyntheticTrace) -> ChangeBatch {
        let ctx = self.batch_context(trace);
        let mut changes = Vec::new();
        for user in 0..trace.dataset.num_users() {
            if let Some(change) = self.change_for_user(trace, &ctx, user) {
                changes.push(change);
            }
        }
        ChangeBatch { changes }
    }

    fn batch_context(&self, trace: &SyntheticTrace) -> BatchContext {
        let trace_gen = TraceGenerator::new(trace.config.clone());
        let (item_sampler, tag_sampler) = trace_gen.samplers(&trace.world);
        let hot_items = match self.config.mode {
            DynamicsMode::FlashCrowd {
                hot_items,
                hot_seed,
                ..
            } => {
                // The hot set: distinct items drawn uniformly from the whole
                // vocabulary by a dedicated stream of the hot seed.
                let mut rng = StdRng::seed_from_u64(stream_seed(hot_seed ^ STREAM_HOT_ITEMS, 0));
                let num_items = trace.config.num_items;
                let mut picked: Vec<ItemId> = Vec::with_capacity(hot_items.min(num_items));
                while picked.len() < hot_items.min(num_items) {
                    let item = ItemId::from_index(rng.gen_range(0..num_items));
                    if !picked.contains(&item) {
                        picked.push(item);
                    }
                }
                picked
            }
            _ => Vec::new(),
        };
        BatchContext {
            trace_gen,
            item_sampler,
            tag_sampler,
            hot_items,
        }
    }

    /// One user's contribution to the batch, drawn entirely from her private
    /// RNG stream: participation, change size, and the new actions.
    fn change_for_user(
        &self,
        trace: &SyntheticTrace,
        ctx: &BatchContext,
        user: usize,
    ) -> Option<ProfileChange> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed ^ STREAM_CHANGE, user as u64));
        if !rng.gen_bool(cfg.fraction_changing) {
            return None;
        }
        let user = UserId::from_index(user);
        let count = self.sample_change_size(&mut rng);
        // `count` counts tagging actions; each tagged item yields one or
        // more actions, so generating `count` items over-produces and the
        // excess is truncated to keep the mean at the configured value.
        let mut actions = self.user_actions(trace, ctx, user, count, &mut rng);
        actions.truncate(count.min(cfg.max_new_actions));
        if actions.is_empty() {
            return None;
        }
        Some(ProfileChange {
            user,
            new_actions: actions,
        })
    }

    fn user_actions(
        &self,
        trace: &SyntheticTrace,
        ctx: &BatchContext,
        user: UserId,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<TaggingAction> {
        let world = &trace.world;
        match self.config.mode {
            DynamicsMode::Organic => ctx.trace_gen.actions_for_user(
                world,
                user,
                count,
                &ctx.item_sampler,
                &ctx.tag_sampler,
                rng,
            ),
            DynamicsMode::TopicDrift { drift_probability } => {
                let num_topics = world.topic_items.len() as u64;
                if num_topics > 1 && rng.gen_bool(drift_probability) {
                    // The drifted interest: a topic derived from the user id.
                    // The offset ranges over 1..num_topics, so it never lands
                    // back on her primary topic.
                    let primary = world.user_topics[user.index()][0] as u64;
                    let drifted =
                        ((primary + 1 + user.as_key() % (num_topics - 1)) % num_topics) as u32;
                    ctx.trace_gen.actions_in_topics(
                        world,
                        &[drifted],
                        count,
                        &ctx.item_sampler,
                        &ctx.tag_sampler,
                        rng,
                    )
                } else {
                    ctx.trace_gen.actions_for_user(
                        world,
                        user,
                        count,
                        &ctx.item_sampler,
                        &ctx.tag_sampler,
                        rng,
                    )
                }
            }
            DynamicsMode::FlashCrowd {
                hot_probability, ..
            } => {
                let mut actions = Vec::with_capacity(count * 2);
                for _ in 0..count {
                    if !ctx.hot_items.is_empty() && rng.gen_bool(hot_probability) {
                        let item = ctx.hot_items[rng.gen_range(0..ctx.hot_items.len())];
                        ctx.trace_gen
                            .tag_item(world, item, &ctx.tag_sampler, rng, &mut actions);
                    } else {
                        let organic = ctx.trace_gen.actions_for_user(
                            world,
                            user,
                            1,
                            &ctx.item_sampler,
                            &ctx.tag_sampler,
                            rng,
                        );
                        actions.extend(organic);
                    }
                }
                actions
            }
        }
    }

    /// Samples the number of new tagging actions for one changing user:
    /// a geometric-like distribution with the configured mean, truncated at
    /// the configured maximum (mirroring the paper's "average 8, maximum 268"
    /// observation).
    fn sample_change_size<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let sample = (-u.ln() * self.config.mean_new_actions).ceil() as usize;
        sample.clamp(1, self.config.max_new_actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::TraceConfig;

    fn trace() -> SyntheticTrace {
        TraceGenerator::new(TraceConfig::tiny(42)).generate()
    }

    #[test]
    fn batch_respects_fraction() {
        let t = trace();
        let all = DynamicsGenerator::new(DynamicsConfig::all_users(1)).generate(&t);
        assert_eq!(all.len(), t.dataset.num_users());

        let none = DynamicsGenerator::new(DynamicsConfig {
            fraction_changing: 0.0,
            mean_new_actions: 8.0,
            max_new_actions: 10,
            mode: DynamicsMode::Organic,
            seed: 1,
        })
        .generate(&t);
        assert!(none.is_empty());
    }

    #[test]
    fn change_sizes_respect_the_cap() {
        let t = trace();
        let cfg = DynamicsConfig {
            fraction_changing: 1.0,
            mean_new_actions: 5.0,
            max_new_actions: 7,
            mode: DynamicsMode::Organic,
            seed: 3,
        };
        let batch = DynamicsGenerator::new(cfg).generate(&t);
        assert!(batch.max_new_actions() <= 7);
        assert!(batch.mean_new_actions() > 0.0);
    }

    #[test]
    fn apply_grows_profiles() {
        let t = trace();
        let mut dataset = t.dataset.clone();
        let before = dataset.total_actions();
        let batch = DynamicsGenerator::new(DynamicsConfig::paper_day(9)).generate(&t);
        let added = batch.apply(&mut dataset);
        assert_eq!(dataset.total_actions(), before + added);
        assert!(added > 0, "a paper-day batch should add something");
    }

    #[test]
    fn generation_is_deterministic() {
        let t = trace();
        let a = DynamicsGenerator::new(DynamicsConfig::paper_day(5)).generate(&t);
        let b = DynamicsGenerator::new(DynamicsConfig::paper_day(5)).generate(&t);
        assert_eq!(a, b);
    }

    #[test]
    fn changed_users_are_unique() {
        let t = trace();
        let batch = DynamicsGenerator::new(DynamicsConfig::all_users(2)).generate(&t);
        let mut users = batch.changed_users();
        users.sort_unstable();
        users.dedup();
        assert_eq!(users.len(), batch.len());
    }

    #[test]
    #[should_panic(expected = "fraction_changing")]
    fn invalid_fraction_rejected() {
        let _ = DynamicsGenerator::new(DynamicsConfig {
            fraction_changing: 1.5,
            mean_new_actions: 1.0,
            max_new_actions: 1,
            mode: DynamicsMode::Organic,
            seed: 0,
        });
    }

    #[test]
    #[should_panic(expected = "drift_probability")]
    fn invalid_drift_rejected() {
        let _ = DynamicsGenerator::new(DynamicsConfig::topic_drift(0, 2.0));
    }

    #[test]
    fn parallel_batches_match_reference_for_any_thread_count() {
        let t = trace();
        for cfg in [
            DynamicsConfig::paper_day(5),
            DynamicsConfig::topic_drift(5, 0.8),
            DynamicsConfig::flash_crowd(5, 5, 0.5, 4, 0.9),
        ] {
            let generator = DynamicsGenerator::new(cfg);
            let reference = generator.generate_reference(&t);
            for threads in [1, 2, 3, 8] {
                let parallel = generator.generate_with_threads(&t, threads);
                assert_eq!(parallel, reference, "threads = {threads}");
            }
        }
    }

    #[test]
    fn drifted_batches_leave_the_users_topics() {
        let t = trace();
        let batch = DynamicsGenerator::new(DynamicsConfig::topic_drift(7, 1.0)).generate(&t);
        assert!(!batch.is_empty());
        let mut outside = 0usize;
        let mut total = 0usize;
        for change in &batch.changes {
            let topics = &t.world.user_topics[change.user.index()];
            for action in &change.new_actions {
                total += 1;
                if !topics.contains(&t.world.item_topic[action.item.index()]) {
                    outside += 1;
                }
            }
        }
        // The drifted topic differs from the primary one by construction and
        // from the secondaries almost always.
        assert!(
            outside * 2 > total,
            "expected mostly-drifted actions, got {outside}/{total}"
        );
    }

    #[test]
    fn flash_crowd_concentrates_on_the_hot_set() {
        let t = trace();
        let batch =
            DynamicsGenerator::new(DynamicsConfig::flash_crowd(9, 9, 1.0, 3, 0.95)).generate(&t);
        assert!(!batch.is_empty());
        let mut per_item = std::collections::HashMap::new();
        let mut total = 0usize;
        for change in &batch.changes {
            for action in &change.new_actions {
                *per_item.entry(action.item).or_insert(0usize) += 1;
                total += 1;
            }
        }
        let mut counts: Vec<usize> = per_item.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let hot: usize = counts.iter().take(3).sum();
        assert!(
            hot as f64 / total as f64 > 0.6,
            "expected the top-3 items to dominate, got {hot}/{total}"
        );
    }
}
