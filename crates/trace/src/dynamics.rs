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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use p3q_sim::{default_threads, parallel_map, stream_seed};

use crate::action::TaggingAction;
use crate::dataset::Dataset;
use crate::generator::{SyntheticTrace, TraceGenerator};
use crate::ids::UserId;
use crate::zipf::ZipfSampler;

/// Salt for the per-user change streams.
const STREAM_CHANGE: u64 = 0xD1A0_11C5_0000_0005;

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
            seed,
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

/// Shared per-batch context: the trace generator and its Zipf samplers —
/// read-only state every per-user worker borrows.
struct BatchContext {
    trace_gen: TraceGenerator,
    item_sampler: ZipfSampler,
    tag_sampler: ZipfSampler,
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
        BatchContext {
            trace_gen,
            item_sampler,
            tag_sampler,
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
        let mut actions = ctx.trace_gen.actions_for_user(
            &trace.world,
            user,
            count,
            &ctx.item_sampler,
            &ctx.tag_sampler,
            &mut rng,
        );
        actions.truncate(count.min(cfg.max_new_actions));
        if actions.is_empty() {
            return None;
        }
        Some(ProfileChange {
            user,
            new_actions: actions,
        })
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
            seed: 0,
        });
    }

    #[test]
    fn parallel_batches_match_reference_for_any_thread_count() {
        let t = trace();
        for cfg in [DynamicsConfig::paper_day(5), DynamicsConfig::all_users(5)] {
            let generator = DynamicsGenerator::new(cfg);
            let reference = generator.generate_reference(&t);
            for threads in [1, 2, 3, 8] {
                let parallel = generator.generate_with_threads(&t, threads);
                assert_eq!(parallel, reference, "threads = {threads}");
            }
        }
    }
}
