//! Bandwidth and message accounting.
//!
//! The paper's cost evaluation (Section 3.3.2) bills every byte to one
//! user and one kind of payload (profile digests, common items, full
//! profiles, forwarded/returned remaining lists, partial result lists).
//! [`BandwidthRecorder`] keeps exactly that: bytes per `(node, category)`
//! plus the run's byte and message totals, with categories being plain
//! static strings so the protocol crate can define its own taxonomy.
//!
//! A recorder is a pure function of the commit [`Charge`](crate::Charge)s
//! the cycle sequencer applies in plan order, the only way a byte is
//! billed; two runs that billed the same charges compare equal.
//!
//! Every message of a run is recorded, so a record must cost less than the
//! exchange it bills: categories are few (a protocol defines a handful of
//! constants) and nodes are dense indices, so the counters are one column
//! per category indexed by node, and a record is a pointer match on the
//! category plus three additions.

/// Label of a traffic category (e.g. `"digest"`, `"partial_results"`).
pub type Category = &'static str;

/// The bytes of one category per node index. Nodes above the highest one
/// recorded are absent and read as zero.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Column {
    category: Category,
    bytes: Vec<u64>,
}

/// Records bytes per node and per category, and the run's totals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct BandwidthRecorder {
    /// One column per category, in first-seen order.
    columns: Vec<Column>,
    /// Total bytes across all nodes and categories.
    total_bytes: u64,
    /// Total messages across all nodes and categories.
    total_messages: u64,
}

impl BandwidthRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The column of `category`, if it was ever recorded. Categories are
    /// constants, so the same label almost always arrives as the same
    /// pointer; two distinct statics with equal text are one category.
    fn column(&self, category: Category) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| std::ptr::eq(c.category, category) || c.category == category)
    }

    /// The bytes of `category`; none if it was never recorded.
    fn bytes(&self, category: Category) -> &[u64] {
        self.column(category)
            .map_or(&[], |column| &self.columns[column].bytes)
    }

    /// Records one message of `bytes` bytes sent by `node`, under the given
    /// category.
    pub fn record(&mut self, node: usize, category: Category, bytes: usize) {
        let bytes = bytes as u64;
        let column = self.column(category).unwrap_or_else(|| {
            self.columns.push(Column {
                category,
                bytes: Vec::new(),
            });
            self.columns.len() - 1
        });
        let cells = &mut self.columns[column].bytes;
        if cells.len() <= node {
            cells.resize(node + 1, 0);
        }
        cells[node] += bytes;
        self.total_bytes += bytes;
        self.total_messages += 1;
    }

    /// Total bytes recorded for a node in a category.
    pub fn node_bytes(&self, node: usize, category: Category) -> u64 {
        self.bytes(category).get(node).copied().unwrap_or(0)
    }

    /// Total bytes recorded for a node across all categories.
    pub fn node_total_bytes(&self, node: usize) -> u64 {
        self.columns.iter().filter_map(|c| c.bytes.get(node)).sum()
    }

    /// Total bytes recorded in a category across all nodes.
    pub fn category_bytes(&self, category: Category) -> u64 {
        self.bytes(category).iter().sum()
    }

    /// Grand totals: `(bytes, messages)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.total_bytes, self.total_messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// The recorder as it is defined: one hash entry per key.
    #[derive(Default)]
    struct Model {
        cells: HashMap<(usize, String), (u64, u64)>,
    }

    impl Model {
        fn record(&mut self, node: usize, category: &str, bytes: usize) {
            let cell = self.cells.entry((node, category.to_string())).or_default();
            cell.0 += bytes as u64;
            cell.1 += 1;
        }

        fn sum(&self, keep: impl Fn(usize, &str) -> bool) -> (u64, u64) {
            self.cells
                .iter()
                .filter(|((node, category), _)| keep(*node, category))
                .fold((0, 0), |sum, (_, cell)| (sum.0 + cell.0, sum.1 + cell.1))
        }
    }

    /// Every read of the public API, on keys seen and unseen.
    fn assert_reads_agree(recorder: &BandwidthRecorder, model: &Model, labels: &[Category]) {
        assert_eq!(recorder.totals(), model.sum(|_, _| true));
        for &label in labels.iter().chain(&["never recorded"]) {
            let bytes = model.sum(|_, c| c == label).0;
            assert_eq!(recorder.category_bytes(label), bytes, "{label}");
        }
        for node in (0..40).chain([FAR_NODE - 1, FAR_NODE, FAR_NODE + 1]) {
            assert_eq!(
                recorder.node_total_bytes(node),
                model.sum(|n, _| n == node).0
            );
            for &label in labels.iter().chain(&["never recorded"]) {
                let bytes = model.sum(|n, c| n == node && c == label).0;
                assert_eq!(recorder.node_bytes(node, label), bytes, "{node} {label}");
            }
        }
    }

    /// A node index far above every other one the model test records.
    const FAR_NODE: usize = 50_000;

    #[test]
    fn random_record_merge_reset_sequences_match_a_hash_map_model() {
        // "digest" twice: equal text at two addresses is one category.
        let digest_again: Category = Box::leak(String::from("digest").into_boxed_str());
        assert!(!std::ptr::eq(digest_again, "digest"));
        let labels: [Category; 5] = ["digest", "common", "profiles", "partial", digest_again];
        let mut rng = StdRng::seed_from_u64(7);
        let mut draw = move |bound: u64| rng.gen_range(0..bound);
        // Two recorders that meet the categories in different orders.
        let (mut a, mut a_model) = (BandwidthRecorder::new(), Model::default());
        let (mut b, mut b_model) = (BandwidthRecorder::new(), Model::default());
        a.record(1, labels[0], 5);
        a_model.record(1, labels[0], 5);
        b.record(2, labels[3], 9);
        b_model.record(2, labels[3], 9);
        for step in 0..3000u64 {
            let (recorder, model) = if draw(2) == 0 {
                (&mut a, &mut a_model)
            } else {
                (&mut b, &mut b_model)
            };
            let node = if draw(100) == 0 {
                FAR_NODE
            } else {
                draw(40) as usize
            };
            let label = labels[draw(5) as usize];
            let bytes = draw(4000) as usize;
            recorder.record(node, label, bytes);
            model.record(node, label, bytes);
            if step % 250 == 0 {
                assert_reads_agree(&a, &a_model, &labels);
                assert_reads_agree(&b, &b_model, &labels);
            }
        }
        assert_reads_agree(&a, &a_model, &labels);
        assert_reads_agree(&b, &b_model, &labels);
        assert!(a.node_bytes(FAR_NODE, "digest") > 0);
    }

    #[test]
    fn record_accumulates_bytes_and_messages() {
        let mut r = BandwidthRecorder::new();
        r.record(0, "digest", 100);
        r.record(0, "digest", 50);
        r.record(1, "profile", 500);
        assert_eq!(r.node_bytes(0, "digest"), 150);
        assert_eq!(r.node_total_bytes(0), 150);
        assert_eq!(r.category_bytes("profile"), 500);
        assert_eq!(r.totals(), (650, 3));
    }

    #[test]
    fn unknown_keys_are_zero() {
        let r = BandwidthRecorder::new();
        assert_eq!(r.node_bytes(9, "nope"), 0);
        assert_eq!(r.totals(), (0, 0));
    }
}
