//! Summary statistics over a dataset.
//!
//! Used by the harness to report the generated trace next to the paper's
//! crawl statistics (Section 3.1.1: 10,000 users, 101,144 items, 31,899 tags,
//! 9,536,635 tagging actions, 249 items per user on average, >99% of users
//! below 2,000 items).

use std::fmt;

use crate::dataset::Dataset;

/// Aggregate statistics of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Number of users.
    pub users: usize,
    /// Number of distinct items actually used.
    pub items_used: usize,
    /// Number of distinct tags actually used.
    pub tags_used: usize,
    /// Total number of tagging actions.
    pub total_actions: usize,
    /// Mean tagging actions per user.
    pub mean_actions_per_user: f64,
    /// Mean distinct items per user.
    pub mean_items_per_user: f64,
    /// Maximum profile length (actions).
    pub max_actions_per_user: usize,
    /// 99th-percentile of distinct items per user.
    pub p99_items_per_user: usize,
    /// Share of total item usage carried by the most-used 10% of items
    /// (long-tail indicator; close to 1.0 means extremely skewed).
    pub top_decile_item_share: f64,
}

impl DatasetStats {
    /// Computes the statistics of a dataset.
    pub fn compute(dataset: &Dataset) -> Self {
        let users = dataset.num_users();
        let total_actions = dataset.total_actions();

        let item_counts = dataset.item_user_counts();
        let tag_counts = dataset.tag_user_counts();

        let mut items_per_user: Vec<usize> = dataset
            .iter()
            .map(|(_, profile)| profile.item_count())
            .collect();
        items_per_user.sort_unstable();
        let p99_items_per_user = percentile(&items_per_user, 0.99);
        let mean_items_per_user = if users == 0 {
            0.0
        } else {
            items_per_user.iter().sum::<usize>() as f64 / users as f64
        };

        let mut usage: Vec<usize> = item_counts.values().copied().collect();
        usage.sort_unstable_by(|a, b| b.cmp(a));
        let head_len = (usage.len() / 10).max(1).min(usage.len());
        let top_decile_item_share = if usage.is_empty() {
            0.0
        } else {
            usage.iter().take(head_len).sum::<usize>() as f64
                / usage.iter().sum::<usize>().max(1) as f64
        };

        Self {
            users,
            items_used: item_counts.len(),
            tags_used: tag_counts.len(),
            total_actions,
            mean_actions_per_user: if users == 0 {
                0.0
            } else {
                total_actions as f64 / users as f64
            },
            mean_items_per_user,
            max_actions_per_user: dataset.max_profile_len(),
            p99_items_per_user,
            top_decile_item_share,
        }
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "users               : {}", self.users)?;
        writeln!(f, "items used          : {}", self.items_used)?;
        writeln!(f, "tags used           : {}", self.tags_used)?;
        writeln!(f, "tagging actions     : {}", self.total_actions)?;
        writeln!(
            f,
            "actions per user    : {:.1} (max {})",
            self.mean_actions_per_user, self.max_actions_per_user
        )?;
        writeln!(
            f,
            "items per user      : {:.1} (p99 {})",
            self.mean_items_per_user, self.p99_items_per_user
        )?;
        write!(
            f,
            "top-decile item load: {:.1}%",
            self.top_decile_item_share * 100.0
        )
    }
}

/// Value at the given percentile of a sorted slice (nearest-rank method).
fn percentile(sorted: &[usize], p: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TraceConfig, TraceGenerator};

    #[test]
    fn stats_of_generated_trace_are_consistent() {
        let trace = TraceGenerator::new(TraceConfig::tiny(13)).generate();
        let stats = DatasetStats::compute(&trace.dataset);
        assert_eq!(stats.users, trace.dataset.num_users());
        assert_eq!(stats.total_actions, trace.dataset.total_actions());
        assert!(stats.items_used > 0);
        assert!(stats.tags_used > 0);
        assert!(stats.mean_actions_per_user >= stats.mean_items_per_user);
        assert!(stats.p99_items_per_user <= trace.config.max_items_per_user);
        assert!(stats.top_decile_item_share > 0.0 && stats.top_decile_item_share <= 1.0);
    }

    #[test]
    fn empty_dataset_has_zero_stats() {
        let stats = DatasetStats::compute(&Dataset::default());
        assert_eq!(stats.users, 0);
        assert_eq!(stats.total_actions, 0);
        assert_eq!(stats.mean_actions_per_user, 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.5), 5);
        assert_eq!(percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 0.99), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn display_mentions_users() {
        let trace = TraceGenerator::new(TraceConfig::tiny(1)).generate();
        let text = DatasetStats::compute(&trace.dataset).to_string();
        assert!(text.contains("users"));
        assert!(text.contains("tagging actions"));
    }
}
