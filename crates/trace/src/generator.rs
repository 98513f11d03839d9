//! Synthetic delicious-like trace generation.
//!
//! The paper evaluates P3Q on a crawl of delicious (January 2009) reduced to
//! 10,000 users, 101,144 items, 31,899 tags and 9,536,635 tagging actions.
//! That crawl cannot be redistributed, so this module produces a synthetic
//! trace that reproduces the structural properties the protocol depends on:
//!
//! * **long-tail popularity** — item and tag usage follows a Zipf law, so a
//!   few items/tags are extremely popular while most appear rarely;
//! * **interest communities** — users are assigned to a small number of
//!   topics and draw most of their items from those topics, which creates the
//!   overlapping tagging behaviour the personal networks rely on;
//! * **tag consistency** — every item carries a few *characteristic* tags
//!   that most taggers reuse, so that the relevance score of an item for a
//!   query can actually accumulate over a personal network (without this,
//!   personalized top-k would be meaningless noise);
//! * **skewed profile sizes** — the number of items per user follows a
//!   log-normal distribution (mean 249 items at paper scale, 99th percentile
//!   below 2000, as reported in Section 3.3.1).
//!
//! All randomness is driven by a single seed, and every independent unit of
//! work (one user's profile, one item's characteristic tags, one user's
//! topic set) draws from its **own RNG stream** derived from that seed and
//! the unit's index alone ([`p3q_sim::stream_seed`] — the same split-seed
//! trick as the plan/commit cycle engine). Generation therefore fans out
//! over worker threads ([`TraceGenerator::generate_with_threads`]) with
//! output **byte-identical for every thread count**, pinned against the
//! retained sequential oracle [`TraceGenerator::generate_reference`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use p3q_sim::{default_threads, parallel_map_chunks, stream_seed};

use crate::action::TaggingAction;
use crate::dataset::Dataset;
use crate::ids::{ItemId, TagId, UserId};
use crate::profile::Profile;
use crate::zipf::ZipfSampler;

/// Salt for the per-user profile streams (size + tagging actions).
const STREAM_PROFILE: u64 = 0x7052_0F11_E000_0001;
/// Salt for the world-structure stream (item/tag partition shuffles).
const STREAM_WORLD: u64 = 0x3057_0A7E_0000_0002;
/// Salt for the per-item characteristic-tag streams.
const STREAM_ITEM_TAGS: u64 = 0x17A6_5000_0000_0003;
/// Salt for the per-user topic-interest streams.
const STREAM_USER_TOPICS: u64 = 0x5709_1C50_0000_0004;

/// Probability that a tagging action reuses one of the item's
/// characteristic tags instead of a random topic tag.
const CANONICAL_TAG_PROBABILITY: f64 = 0.8;

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Number of users `|U|`.
    pub num_users: usize,
    /// Number of items `|I|` in the vocabulary.
    pub num_items: usize,
    /// Number of tags `|T|` in the vocabulary.
    pub num_tags: usize,
    /// Number of interest communities (topics).
    pub num_topics: usize,
    /// Mean number of distinct items tagged per user (log-normal mean).
    pub mean_items_per_user: f64,
    /// Hard cap on the number of distinct items per user.
    pub max_items_per_user: usize,
    /// Log-normal shape parameter for the items-per-user distribution.
    pub profile_sigma: f64,
    /// Maximum number of topics a single user is interested in.
    pub topics_per_user_max: usize,
    /// Probability that an action is drawn from the user's primary topic
    /// rather than one of her secondary topics.
    pub primary_topic_affinity: f64,
    /// Zipf exponent for item popularity inside a topic.
    pub item_zipf_exponent: f64,
    /// Zipf exponent for tag popularity inside a topic.
    pub tag_zipf_exponent: f64,
    /// Number of characteristic tags attached to each item, and the most
    /// tags one user applies to one item.
    pub tags_per_item: usize,
    /// Fraction of the tag vocabulary shared by every topic ("general" tags
    /// such as `web`, `tools`, `reference`).
    pub shared_tag_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl TraceConfig {
    /// A laptop-scale configuration: 1,000 users, roughly 480k tagging
    /// actions. All harness binaries default to this scale.
    pub fn laptop_scale(seed: u64) -> Self {
        Self {
            num_users: 1_000,
            num_items: 12_000,
            num_tags: 3_000,
            num_topics: 25,
            mean_items_per_user: 60.0,
            max_items_per_user: 500,
            profile_sigma: 0.7,
            topics_per_user_max: 3,
            primary_topic_affinity: 0.65,
            item_zipf_exponent: 0.9,
            tag_zipf_exponent: 0.9,
            tags_per_item: 4,
            shared_tag_fraction: 0.1,
            seed,
        }
    }

    /// The paper-scale configuration: 10,000 users, ~100k items, ~32k tags,
    /// on the order of 10 million tagging actions. Expect several minutes of
    /// generation time and a few GiB of memory.
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            num_users: 10_000,
            num_items: 101_144,
            num_tags: 31_899,
            num_topics: 80,
            mean_items_per_user: 249.0,
            max_items_per_user: 2_000,
            profile_sigma: 0.9,
            topics_per_user_max: 3,
            primary_topic_affinity: 0.65,
            item_zipf_exponent: 0.95,
            tag_zipf_exponent: 0.95,
            tags_per_item: 5,
            shared_tag_fraction: 0.1,
            seed,
        }
    }

    /// A tiny configuration for unit and property tests (runs in
    /// milliseconds).
    pub fn tiny(seed: u64) -> Self {
        Self {
            num_users: 60,
            num_items: 400,
            num_tags: 150,
            num_topics: 5,
            mean_items_per_user: 15.0,
            max_items_per_user: 60,
            profile_sigma: 0.5,
            topics_per_user_max: 2,
            primary_topic_affinity: 0.7,
            item_zipf_exponent: 0.9,
            tag_zipf_exponent: 0.9,
            tags_per_item: 3,
            shared_tag_fraction: 0.1,
            seed,
        }
    }

    fn validate(&self) {
        assert!(self.num_users > 0, "num_users must be positive");
        assert!(self.num_items > 0, "num_items must be positive");
        assert!(self.num_tags > 0, "num_tags must be positive");
        assert!(self.num_topics > 0, "num_topics must be positive");
        assert!(
            self.num_topics <= self.num_items,
            "cannot have more topics than items"
        );
        assert!(
            self.num_topics <= self.num_tags,
            "cannot have more topics than tags"
        );
        assert!(
            self.topics_per_user_max >= 1,
            "users need at least one topic"
        );
        assert!(
            (0.0..=1.0).contains(&self.primary_topic_affinity),
            "primary_topic_affinity must be a probability"
        );
        assert!(
            (0.0..=1.0).contains(&self.shared_tag_fraction),
            "shared_tag_fraction must be a probability"
        );
        assert!(self.mean_items_per_user >= 1.0, "profiles cannot be empty");
        assert!(self.max_items_per_user >= 1, "profiles cannot be empty");
        assert!(self.tags_per_item >= 1, "items need at least one tag");
    }
}

/// The latent topic model behind a generated trace.
///
/// The dynamics generator reuses the world to produce *new* tagging actions
/// that stay consistent with each user's interests (Section 3.4.1).
#[derive(Debug, Clone)]
pub struct World {
    /// Topic of each item (indexed by item id).
    pub item_topic: Vec<u32>,
    /// Characteristic tags of each item (indexed by item id).
    pub item_tags: Vec<Vec<TagId>>,
    /// Topics each user is interested in, primary topic first (indexed by
    /// user id).
    pub user_topics: Vec<Vec<u32>>,
    /// Items belonging to each topic.
    pub topic_items: Vec<Vec<ItemId>>,
    /// Tag pool of each topic (topic-specific tags plus the shared tail).
    pub topic_tags: Vec<Vec<TagId>>,
}

/// A generated trace: the dataset plus the latent world that produced it.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    /// The collaborative-tagging dataset.
    pub dataset: Dataset,
    /// The latent topic model.
    pub world: World,
    /// The configuration used for generation.
    pub config: TraceConfig,
}

/// Generates a synthetic trace from a configuration.
pub struct TraceGenerator {
    config: TraceConfig,
}

impl TraceGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (see [`TraceConfig`]).
    pub fn new(config: TraceConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// Generates the full trace, fanning per-user profile construction (and
    /// the per-item/per-user world loops) out over the default worker-thread
    /// count (`P3Q_THREADS` override). Output is byte-identical for every
    /// thread count — see [`generate_reference`](Self::generate_reference).
    pub fn generate(&self) -> SyntheticTrace {
        self.generate_with_threads(default_threads())
    }

    /// Generates the full trace with an explicit worker-thread count.
    ///
    /// Every user's profile is drawn from an RNG stream derived from the
    /// master seed and the user index alone, so the produced bytes cannot
    /// depend on how users are chunked across threads.
    pub fn generate_with_threads(&self, threads: usize) -> SyntheticTrace {
        let cfg = &self.config;
        let world = self.build_world_with_threads(threads);
        let (item_sampler, tag_sampler) = self.samplers(&world);

        let profiles = parallel_map_chunks(
            cfg.num_users,
            threads,
            || (),
            |user, ()| self.user_profile(&world, user, &item_sampler, &tag_sampler),
        );

        SyntheticTrace {
            dataset: Dataset::new(profiles, cfg.num_items, cfg.num_tags),
            world,
            config: cfg.clone(),
        }
    }

    /// The retained sequential oracle: a plain loop over users (and items)
    /// that never touches the fork-join machinery, against which the
    /// parallel generator is property-tested byte-identical.
    pub fn generate_reference(&self) -> SyntheticTrace {
        let cfg = &self.config;
        let world = self.build_world_reference();
        let (item_sampler, tag_sampler) = self.samplers(&world);

        let mut profiles = Vec::with_capacity(cfg.num_users);
        for user in 0..cfg.num_users {
            profiles.push(self.user_profile(&world, user, &item_sampler, &tag_sampler));
        }

        SyntheticTrace {
            dataset: Dataset::new(profiles, cfg.num_items, cfg.num_tags),
            world,
            config: cfg.clone(),
        }
    }

    /// Builds one user's initial profile from her private RNG stream.
    fn user_profile(
        &self,
        world: &World,
        user: usize,
        item_sampler: &ZipfSampler,
        tag_sampler: &ZipfSampler,
    ) -> Profile {
        let mut rng =
            StdRng::seed_from_u64(stream_seed(self.config.seed ^ STREAM_PROFILE, user as u64));
        let target_items = self.sample_profile_size(&mut rng);
        let actions = self.actions_for_user(
            world,
            UserId::from_index(user),
            target_items,
            item_sampler,
            tag_sampler,
            &mut rng,
        );
        Profile::from_actions(actions)
    }

    /// Generates `target_items` new item-tagging events for `user`,
    /// consistent with her topics in `world`. Used both for initial profile
    /// construction and by the dynamics generator.
    pub(crate) fn actions_for_user<R: Rng + ?Sized>(
        &self,
        world: &World,
        user: UserId,
        target_items: usize,
        item_sampler: &ZipfSampler,
        tag_sampler: &ZipfSampler,
        rng: &mut R,
    ) -> Vec<TaggingAction> {
        self.actions_in_topics(
            world,
            &world.user_topics[user.index()],
            target_items,
            item_sampler,
            tag_sampler,
            rng,
        )
    }

    /// Generates `target_items` item-tagging events drawn from an explicit
    /// topic list (primary topic first). This is the raw form behind
    /// [`actions_for_user`](Self::actions_for_user); the dynamics generator
    /// uses it to model *drifted* interests that differ from the topics a
    /// user started with.
    pub(crate) fn actions_in_topics<R: Rng + ?Sized>(
        &self,
        world: &World,
        topics: &[u32],
        target_items: usize,
        item_sampler: &ZipfSampler,
        tag_sampler: &ZipfSampler,
        rng: &mut R,
    ) -> Vec<TaggingAction> {
        let cfg = &self.config;
        let mut actions = Vec::with_capacity(target_items * 2);
        for _ in 0..target_items {
            let topic = if topics.len() == 1 || rng.gen_bool(cfg.primary_topic_affinity) {
                topics[0]
            } else {
                topics[1 + rng.gen_range(0..topics.len() - 1)]
            } as usize;
            let items = &world.topic_items[topic];
            let rank = item_sampler.sample(rng) % items.len();
            let item = items[rank];
            self.tag_item(world, item, tag_sampler, rng, &mut actions);
        }
        actions
    }

    /// Pushes the tagging actions of one user tagging one `item` (1 to
    /// `tags_per_item` tags, biased towards the item's characteristic
    /// tags). Exposed so workload layers (flash crowds) can target specific
    /// items while staying consistent with the trace's tag model.
    pub(crate) fn tag_item<R: Rng + ?Sized>(
        &self,
        world: &World,
        item: ItemId,
        tag_sampler: &ZipfSampler,
        rng: &mut R,
        actions: &mut Vec<TaggingAction>,
    ) {
        let cfg = &self.config;
        let topic = world.item_topic[item.index()] as usize;
        let tag_count = 1 + rng.gen_range(0..cfg.tags_per_item);
        let characteristic = &world.item_tags[item.index()];
        let pool = &world.topic_tags[topic];
        for _ in 0..tag_count {
            let tag = if !characteristic.is_empty() && rng.gen_bool(CANONICAL_TAG_PROBABILITY) {
                characteristic[rng.gen_range(0..characteristic.len())]
            } else {
                pool[tag_sampler.sample(rng) % pool.len()]
            };
            actions.push(TaggingAction::new(item, tag));
        }
    }

    /// Samples the number of distinct items a user tags (log-normal,
    /// truncated to `[1, max_items_per_user]`).
    pub(crate) fn sample_profile_size<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let cfg = &self.config;
        let sigma = cfg.profile_sigma;
        let mu = cfg.mean_items_per_user.ln() - sigma * sigma / 2.0;
        let z = standard_normal(rng);
        let size = (mu + sigma * z).exp().round() as i64;
        size.clamp(1, cfg.max_items_per_user as i64) as usize
    }

    /// Exposes the per-topic item/tag Zipf samplers used during generation so
    /// other components (dynamics) can stay consistent with the trace.
    pub(crate) fn samplers(&self, world: &World) -> (ZipfSampler, ZipfSampler) {
        (
            ZipfSampler::new(
                world.topic_items.iter().map(Vec::len).max().unwrap_or(1),
                self.config.item_zipf_exponent,
            ),
            ZipfSampler::new(
                world.topic_tags.iter().map(Vec::len).max().unwrap_or(1),
                self.config.tag_zipf_exponent,
            ),
        )
    }

    /// The generator's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// The sequential part of world construction: item/tag partitions,
    /// driven by the dedicated world RNG stream. `O(items + tags)` shuffles
    /// — cheap next to the per-item and per-user loops that build on it.
    fn world_partitions(&self) -> (Vec<u32>, Vec<Vec<ItemId>>, Vec<Vec<TagId>>) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed ^ STREAM_WORLD, 0));

        // Partition items across topics (shuffled so topic membership is not
        // correlated with the numeric id).
        let mut item_ids: Vec<ItemId> = (0..cfg.num_items).map(ItemId::from_index).collect();
        item_ids.shuffle(&mut rng);
        let mut topic_items: Vec<Vec<ItemId>> = vec![Vec::new(); cfg.num_topics];
        let mut item_topic = vec![0u32; cfg.num_items];
        for (idx, item) in item_ids.into_iter().enumerate() {
            let topic = idx % cfg.num_topics;
            topic_items[topic].push(item);
            item_topic[item.index()] = topic as u32;
        }

        // Partition tags: a shared pool used by every topic plus
        // topic-specific pools.
        let mut tag_ids: Vec<TagId> = (0..cfg.num_tags).map(TagId::from_index).collect();
        tag_ids.shuffle(&mut rng);
        let shared_count =
            ((cfg.num_tags as f64 * cfg.shared_tag_fraction) as usize).min(cfg.num_tags);
        let (shared, specific) = tag_ids.split_at(shared_count);
        let mut topic_tags: Vec<Vec<TagId>> = vec![Vec::new(); cfg.num_topics];
        for (idx, &tag) in specific.iter().enumerate() {
            topic_tags[idx % cfg.num_topics].push(tag);
        }
        for pool in &mut topic_tags {
            pool.extend_from_slice(shared);
            if pool.is_empty() {
                // Degenerate configuration (all tags shared): fall back to the
                // shared pool so every topic still has tags.
                pool.extend_from_slice(&tag_ids);
            }
        }

        (item_topic, topic_items, topic_tags)
    }

    /// Characteristic tags of one item, drawn from its private RNG stream
    /// with a Zipf bias so that popular tags describe many items.
    fn item_characteristic_tags(
        &self,
        item: usize,
        item_topic: &[u32],
        topic_tags: &[Vec<TagId>],
        tag_sampler: &ZipfSampler,
    ) -> Vec<TagId> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(stream_seed(cfg.seed ^ STREAM_ITEM_TAGS, item as u64));
        let pool = &topic_tags[item_topic[item] as usize];
        let mut tags = Vec::with_capacity(cfg.tags_per_item);
        while tags.len() < cfg.tags_per_item.min(pool.len()) {
            let tag = pool[tag_sampler.sample(&mut rng) % pool.len()];
            if !tags.contains(&tag) {
                tags.push(tag);
            }
        }
        tags
    }

    /// The topic interests of one user (1..=`topics_per_user_max` distinct
    /// topics, primary first), drawn from her private RNG stream.
    fn user_topic_set(&self, user: usize) -> Vec<u32> {
        let cfg = &self.config;
        let mut rng =
            StdRng::seed_from_u64(stream_seed(cfg.seed ^ STREAM_USER_TOPICS, user as u64));
        let count = 1 + rng.gen_range(0..cfg.topics_per_user_max);
        let mut topics = Vec::with_capacity(count);
        while topics.len() < count.min(cfg.num_topics) {
            let t = rng.gen_range(0..cfg.num_topics) as u32;
            if !topics.contains(&t) {
                topics.push(t);
            }
        }
        topics
    }

    fn build_world_with_threads(&self, threads: usize) -> World {
        let cfg = &self.config;
        let (item_topic, topic_items, topic_tags) = self.world_partitions();
        let tag_sampler = ZipfSampler::new(
            topic_tags.iter().map(Vec::len).max().unwrap_or(1),
            cfg.tag_zipf_exponent,
        );
        let item_tags = parallel_map_chunks(
            cfg.num_items,
            threads,
            || (),
            |item, ()| self.item_characteristic_tags(item, &item_topic, &topic_tags, &tag_sampler),
        );
        let user_topics = parallel_map_chunks(
            cfg.num_users,
            threads,
            || (),
            |user, ()| self.user_topic_set(user),
        );
        World {
            item_topic,
            item_tags,
            user_topics,
            topic_items,
            topic_tags,
        }
    }

    /// Sequential world construction — plain loops over the same per-unit
    /// RNG streams, part of the [`generate_reference`](Self::generate_reference)
    /// oracle.
    fn build_world_reference(&self) -> World {
        let cfg = &self.config;
        let (item_topic, topic_items, topic_tags) = self.world_partitions();
        let tag_sampler = ZipfSampler::new(
            topic_tags.iter().map(Vec::len).max().unwrap_or(1),
            cfg.tag_zipf_exponent,
        );
        let mut item_tags = Vec::with_capacity(cfg.num_items);
        for item in 0..cfg.num_items {
            item_tags.push(self.item_characteristic_tags(
                item,
                &item_topic,
                &topic_tags,
                &tag_sampler,
            ));
        }
        let mut user_topics = Vec::with_capacity(cfg.num_users);
        for user in 0..cfg.num_users {
            user_topics.push(self.user_topic_set(user));
        }
        World {
            item_topic,
            item_tags,
            user_topics,
            topic_items,
            topic_tags,
        }
    }
}

/// Draws a standard-normal variate with the Box–Muller transform (keeps the
/// crate free of `rand_distr`).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::EPSILON {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = TraceGenerator::new(TraceConfig::tiny(99)).generate();
        let b = TraceGenerator::new(TraceConfig::tiny(99)).generate();
        assert_eq!(a.dataset.total_actions(), b.dataset.total_actions());
        for user in a.dataset.users() {
            assert_eq!(a.dataset.profile(user), b.dataset.profile(user));
        }
    }

    #[test]
    fn parallel_generation_matches_reference_for_any_thread_count() {
        let generator = TraceGenerator::new(TraceConfig::tiny(21));
        let reference = generator.generate_reference();
        for threads in [1, 2, 3, 8] {
            let parallel = generator.generate_with_threads(threads);
            assert_eq!(
                parallel.world.item_topic, reference.world.item_topic,
                "threads = {threads}"
            );
            assert_eq!(parallel.world.item_tags, reference.world.item_tags);
            assert_eq!(parallel.world.user_topics, reference.world.user_topics);
            for user in reference.dataset.users() {
                assert_eq!(
                    parallel.dataset.profile(user),
                    reference.dataset.profile(user),
                    "threads = {threads}, user = {user}"
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceGenerator::new(TraceConfig::tiny(1)).generate();
        let b = TraceGenerator::new(TraceConfig::tiny(2)).generate();
        let identical = a
            .dataset
            .users()
            .all(|u| a.dataset.profile(u) == b.dataset.profile(u));
        assert!(!identical);
    }

    #[test]
    fn every_user_has_a_non_empty_profile() {
        let trace = TraceGenerator::new(TraceConfig::tiny(5)).generate();
        for (_, profile) in trace.dataset.iter() {
            assert!(!profile.is_empty());
        }
    }

    #[test]
    fn profiles_respect_the_item_cap() {
        let mut cfg = TraceConfig::tiny(5);
        cfg.max_items_per_user = 10;
        let trace = TraceGenerator::new(cfg).generate();
        for (_, profile) in trace.dataset.iter() {
            assert!(profile.item_count() <= 10);
        }
    }

    #[test]
    fn users_share_interests_within_topics() {
        // With communities, at least some pairs of users must have a positive
        // similarity score; without them personalization is meaningless.
        let trace = TraceGenerator::new(TraceConfig::tiny(7)).generate();
        let users: Vec<_> = trace.dataset.users().collect();
        let mut positive_pairs = 0usize;
        for (i, &a) in users.iter().enumerate() {
            for &b in &users[i + 1..] {
                if trace
                    .dataset
                    .profile(a)
                    .common_actions(trace.dataset.profile(b))
                    > 0
                {
                    positive_pairs += 1;
                }
            }
        }
        assert!(
            positive_pairs > users.len(),
            "expected overlapping interests, found {positive_pairs} similar pairs"
        );
    }

    #[test]
    fn item_popularity_is_long_tailed() {
        let trace = TraceGenerator::new(TraceConfig::laptop_scale(3)).generate();
        let counts = trace.dataset.item_user_counts();
        let mut values: Vec<usize> = counts.values().copied().collect();
        values.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = values.iter().take(values.len() / 10).sum();
        let total: usize = values.iter().sum();
        assert!(
            head as f64 / total as f64 > 0.3,
            "top 10% of items should carry a large share of the usage"
        );
    }

    #[test]
    fn world_topics_cover_all_items() {
        let trace = TraceGenerator::new(TraceConfig::tiny(11)).generate();
        let covered: usize = trace.world.topic_items.iter().map(Vec::len).sum();
        assert_eq!(covered, trace.config.num_items);
    }

    #[test]
    fn profile_size_sampler_respects_bounds() {
        let cfg = TraceConfig::tiny(1);
        let gen = TraceGenerator::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..1000 {
            let size = gen.sample_profile_size(&mut rng);
            assert!(size >= 1 && size <= cfg.max_items_per_user);
        }
    }

    #[test]
    #[should_panic(expected = "num_users")]
    fn zero_users_rejected() {
        let mut cfg = TraceConfig::tiny(0);
        cfg.num_users = 0;
        let _ = TraceGenerator::new(cfg);
    }
}
