//! Protocol configuration.

use serde::{Deserialize, Serialize};

/// Configuration of the P3Q protocol (Section 2.1 / 3.1.2 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct P3qConfig {
    /// Size `s` of the personal network: the number of most-similar
    /// neighbours every user tracks (paper: 1000).
    pub personal_network_size: usize,
    /// Size `r` of the random view maintained by the peer-sampling layer
    /// (paper: 10).
    pub random_view_size: usize,
    /// `k` of the top-k queries (paper: 10).
    pub top_k: usize,
    /// The remaining-list split parameter `α ∈ [0, 1]` of the eager mode
    /// (paper default: 0.5, shown optimal by Theorem 2.2).
    pub alpha: f64,
    /// Maximum number of neighbour profiles proposed in one lazy-mode gossip
    /// exchange (paper: 50, or everything if fewer are stored).
    pub profiles_per_gossip: usize,
    /// Bloom-filter size of the profile digests, in bits (paper: 20 Kbit).
    pub digest_bits: usize,
    /// Number of hash functions of the profile digests.
    pub digest_hashes: u32,
    /// Wall-clock seconds per lazy-mode cycle (paper: 60 s), used only to
    /// convert byte counts into bits-per-second figures.
    pub lazy_cycle_seconds: f64,
    /// Wall-clock seconds per eager-mode cycle (paper: 5 s).
    pub eager_cycle_seconds: f64,
    /// Fault-hardening: lifetime, in cycles, of query state under loss.
    /// Delegated remaining-list shares expire this many cycles after they
    /// were (last) refreshed, and a querier stops re-gossiping an
    /// incomplete query this many cycles after issuing it. `0` disables
    /// both (the paper's idealized network needs neither).
    pub query_ttl_cycles: u64,
    /// Fault-hardening: base backoff, in cycles, before a querier re-adds
    /// her still-uncovered target profiles to the remaining list after a
    /// stretch of cycles without progress (a lost carrier exchange leaves
    /// no other trace). Doubles per retry. `0` disables retries.
    pub retry_backoff_cycles: u64,
    /// Fault-hardening: a personal-network neighbour whose staleness
    /// timestamp exceeds this limit is evicted — under crash faults a dead
    /// neighbour never answers gossip, so its timestamp grows without
    /// bound while live ones keep getting reset. `0` disables eviction.
    ///
    /// Only lazy gossip resets staleness, so this knob **requires lazy
    /// refresh cycles to interleave with eager ones**: in an eager-only run
    /// every timestamp grows monotonically and the personal network evicts
    /// itself wholesale after `limit` cycles. Until-idle eager drives
    /// ([`EagerProtocol`](crate::eager::EagerProtocol) under
    /// `RunOptions::until_complete`) reject a nonzero limit via
    /// [`Self::validate_eager_only`].
    pub neighbour_staleness_limit: u32,
}

impl P3qConfig {
    /// The configuration used throughout the paper's evaluation
    /// (10,000-user delicious trace): `s = 1000`, `r = 10`, `k = 10`,
    /// `α = 0.5`, 50 profiles per gossip, 20 Kbit digests.
    pub fn paper(_users: usize) -> Self {
        Self {
            personal_network_size: 1000,
            random_view_size: 10,
            top_k: 10,
            alpha: 0.5,
            profiles_per_gossip: 50,
            digest_bits: p3q_bloom::PAPER_FILTER_BITS,
            digest_hashes: p3q_bloom::PAPER_FILTER_HASHES,
            lazy_cycle_seconds: 60.0,
            eager_cycle_seconds: 5.0,
            query_ttl_cycles: 0,
            retry_backoff_cycles: 0,
            neighbour_staleness_limit: 0,
        }
    }

    /// A laptop-scale configuration for a system of roughly 1,000 users:
    /// the personal network is scaled to `s = 100` (the same 1:10 ratio to
    /// the population as the paper's 1000:10,000) and digests are shrunk
    /// accordingly; every other parameter keeps its paper value.
    pub fn laptop_scale() -> Self {
        Self {
            personal_network_size: 100,
            random_view_size: 10,
            top_k: 10,
            alpha: 0.5,
            profiles_per_gossip: 50,
            digest_bits: 4 * 1024,
            digest_hashes: 7,
            lazy_cycle_seconds: 60.0,
            eager_cycle_seconds: 5.0,
            query_ttl_cycles: 0,
            retry_backoff_cycles: 0,
            neighbour_staleness_limit: 0,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            personal_network_size: 10,
            random_view_size: 5,
            top_k: 5,
            alpha: 0.5,
            profiles_per_gossip: 10,
            digest_bits: 2048,
            digest_hashes: 5,
            lazy_cycle_seconds: 60.0,
            eager_cycle_seconds: 5.0,
            query_ttl_cycles: 0,
            retry_backoff_cycles: 0,
            neighbour_staleness_limit: 0,
        }
    }

    /// Returns a copy with the fault-hardening machinery switched on:
    /// query TTL / deadline tracking, querier retry-with-backoff and
    /// staleness-based neighbour eviction. Passing `0` for a knob leaves
    /// that mechanism disabled.
    ///
    /// A nonzero `neighbour_staleness_limit` is only sound when lazy
    /// refresh cycles interleave with eager ones (see the field docs);
    /// eager-only run loops enforce this via
    /// [`Self::validate_eager_only`].
    pub fn with_fault_tolerance(
        mut self,
        query_ttl_cycles: u64,
        retry_backoff_cycles: u64,
        neighbour_staleness_limit: u32,
    ) -> Self {
        self.query_ttl_cycles = query_ttl_cycles;
        self.retry_backoff_cycles = retry_backoff_cycles;
        self.neighbour_staleness_limit = neighbour_staleness_limit;
        self.validate();
        self
    }

    /// Returns a copy with a different `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self.validate();
        self
    }

    /// The lazy mode ([`LazyProtocol`](crate::lazy::LazyProtocol)) over a
    /// copy of this configuration — the protocol value handed to a
    /// runtime's `drive` entry.
    pub fn lazy(&self) -> crate::lazy::LazyProtocol {
        crate::lazy::LazyProtocol::new(self.clone())
    }

    /// The eager mode ([`EagerProtocol`](crate::eager::EagerProtocol)) over
    /// a copy of this configuration.
    pub fn eager(&self) -> crate::eager::EagerProtocol {
        crate::eager::EagerProtocol::new(self.clone())
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    /// Panics if any parameter is out of its valid range.
    pub fn validate(&self) {
        assert!(
            self.personal_network_size > 0,
            "personal_network_size must be positive"
        );
        assert!(
            self.random_view_size > 0,
            "random_view_size must be positive"
        );
        assert!(self.top_k > 0, "top_k must be positive");
        assert!(
            (0.0..=1.0).contains(&self.alpha),
            "alpha must lie in [0, 1]"
        );
        assert!(
            self.profiles_per_gossip > 0,
            "profiles_per_gossip must be positive"
        );
        assert!(self.digest_bits > 0, "digest_bits must be positive");
        assert!(self.digest_hashes > 0, "digest_hashes must be positive");
        assert!(
            self.lazy_cycle_seconds > 0.0 && self.eager_cycle_seconds > 0.0,
            "cycle durations must be positive"
        );
        if self.query_ttl_cycles > 0 && self.retry_backoff_cycles > 0 {
            assert!(
                self.retry_backoff_cycles <= self.query_ttl_cycles,
                "retry_backoff_cycles must not exceed query_ttl_cycles \
                 (the first retry could never fire before the deadline)"
            );
        }
    }

    /// Checks that the configuration is sound for an **eager-only** run —
    /// one where no lazy refresh cycles interleave with the eager ones.
    ///
    /// Only lazy gossip resets neighbour staleness, so with a nonzero
    /// [`neighbour_staleness_limit`](Self::neighbour_staleness_limit) an
    /// eager-only run silently evicts the *entire* personal network (live
    /// neighbours included) once every timestamp passes the limit.
    /// [`EagerProtocol`](crate::eager::EagerProtocol)'s `begin_run` hook
    /// calls this on until-idle drives so the footgun fails loudly instead.
    ///
    /// # Panics
    /// Panics if `neighbour_staleness_limit` is nonzero.
    pub(crate) fn validate_eager_only(&self) {
        assert!(
            self.neighbour_staleness_limit == 0,
            "neighbour_staleness_limit = {} in an eager-only run: only lazy \
             gossip resets staleness, so the personal network would evict \
             itself wholesale. Interleave lazy refresh cycles (alternate \
             eager and lazy drives yourself) or set the limit to 0.",
            self.neighbour_staleness_limit
        );
    }
}

impl Default for P3qConfig {
    fn default() -> Self {
        Self::laptop_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration_matches_section_3_1_2() {
        let cfg = P3qConfig::paper(10_000);
        assert_eq!(cfg.personal_network_size, 1000);
        assert_eq!(cfg.random_view_size, 10);
        assert_eq!(cfg.top_k, 10);
        assert!((cfg.alpha - 0.5).abs() < 1e-12);
        assert_eq!(cfg.profiles_per_gossip, 50);
        assert_eq!(cfg.digest_bits, 20 * 1024);
        cfg.validate();
    }

    #[test]
    fn presets_validate() {
        P3qConfig::laptop_scale().validate();
        P3qConfig::tiny().validate();
        P3qConfig::default().validate();
    }

    #[test]
    fn with_alpha_and_top_k_update_fields() {
        let cfg = P3qConfig {
            top_k: 20,
            ..P3qConfig::tiny().with_alpha(0.3)
        };
        cfg.validate();
        assert!((cfg.alpha - 0.3).abs() < 1e-12);
        assert_eq!(cfg.top_k, 20);
    }

    #[test]
    fn fault_tolerance_defaults_off_and_builder_sets_knobs() {
        for cfg in [
            P3qConfig::paper(10_000),
            P3qConfig::laptop_scale(),
            P3qConfig::tiny(),
        ] {
            assert_eq!(cfg.query_ttl_cycles, 0);
            assert_eq!(cfg.retry_backoff_cycles, 0);
            assert_eq!(cfg.neighbour_staleness_limit, 0);
        }
        let cfg = P3qConfig::tiny().with_fault_tolerance(12, 3, 8);
        assert_eq!(cfg.query_ttl_cycles, 12);
        assert_eq!(cfg.retry_backoff_cycles, 3);
        assert_eq!(cfg.neighbour_staleness_limit, 8);
    }

    #[test]
    #[should_panic(expected = "retry_backoff_cycles")]
    fn retry_backoff_beyond_ttl_rejected() {
        let _ = P3qConfig::tiny().with_fault_tolerance(2, 5, 0);
    }

    #[test]
    fn eager_only_validation_accepts_disabled_staleness_eviction() {
        P3qConfig::tiny().validate_eager_only();
        P3qConfig::tiny()
            .with_fault_tolerance(12, 3, 0)
            .validate_eager_only();
    }

    #[test]
    #[should_panic(expected = "eager-only run")]
    fn eager_only_validation_rejects_staleness_eviction() {
        P3qConfig::tiny()
            .with_fault_tolerance(12, 3, 8)
            .validate_eager_only();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let _ = P3qConfig::tiny().with_alpha(1.5);
    }

    #[test]
    #[should_panic(expected = "top_k")]
    fn zero_top_k_rejected() {
        P3qConfig {
            top_k: 0,
            ..P3qConfig::tiny()
        }
        .validate();
    }
}
