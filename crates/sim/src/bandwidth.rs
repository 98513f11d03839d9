//! Bandwidth and message accounting.
//!
//! The paper's cost evaluation (Section 3.3.2) tracks, per user and per
//! cycle, how many bytes travel for each kind of payload (profile digests,
//! common items, full profiles, forwarded/returned remaining lists, partial
//! result lists). [`BandwidthRecorder`] provides exactly that: counters keyed
//! by `(node, category)` plus per-cycle totals, with categories being plain
//! static strings so the protocol crate can define its own taxonomy.
//!
//! Every message of a run is recorded, so a record must cost less than the
//! exchange it bills: categories are few (a protocol defines a handful of
//! constants) and nodes are dense indices, so the counters are one column
//! per category indexed by node, and a record is a pointer match on the
//! category plus three additions.

/// Label of a traffic category (e.g. `"digest"`, `"partial_results"`).
pub type Category = &'static str;

/// The counters of one category: `(bytes, messages)` per node index. Nodes
/// above the highest one recorded are absent and read as zero.
#[derive(Debug, Clone)]
struct Column {
    category: Category,
    cells: Vec<(u64, u64)>,
}

/// Records bytes and message counts per node and per category.
#[derive(Debug, Clone, Default)]
pub struct BandwidthRecorder {
    /// One column per category, in first-seen order.
    columns: Vec<Column>,
    /// `(cycle, bytes)` sorted by cycle. A run records its cycles in
    /// order, so the cycle being charged is the last entry.
    per_cycle: Vec<(u64, u64)>,
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

    /// The cells of `category`, created on first use and widened with zeros
    /// to hold at least `len` nodes.
    fn cells_mut(&mut self, category: Category, len: usize) -> &mut Vec<(u64, u64)> {
        let column = self.column(category).unwrap_or_else(|| {
            self.columns.push(Column {
                category,
                cells: Vec::new(),
            });
            self.columns.len() - 1
        });
        let cells = &mut self.columns[column].cells;
        if cells.len() < len {
            cells.resize(len, (0, 0));
        }
        cells
    }

    /// The cells of `category`; none if it was never recorded.
    fn cells(&self, category: Category) -> &[(u64, u64)] {
        self.column(category)
            .map_or(&[], |column| &self.columns[column].cells)
    }

    fn add_cycle_bytes(&mut self, cycle: u64, bytes: u64) {
        match self.per_cycle.last_mut() {
            Some(last) if last.0 == cycle => last.1 += bytes,
            _ => match self.per_cycle.binary_search_by_key(&cycle, |&(c, _)| c) {
                Ok(at) => self.per_cycle[at].1 += bytes,
                Err(at) => self.per_cycle.insert(at, (cycle, bytes)),
            },
        }
    }

    /// Records one message of `bytes` bytes sent by `node` during `cycle`,
    /// under the given category.
    pub fn record(&mut self, node: usize, cycle: u64, category: Category, bytes: usize) {
        let bytes = bytes as u64;
        let cell = &mut self.cells_mut(category, node + 1)[node];
        cell.0 += bytes;
        cell.1 += 1;
        self.add_cycle_bytes(cycle, bytes);
        self.total_bytes += bytes;
        self.total_messages += 1;
    }

    /// Total bytes recorded for a node in a category.
    pub fn node_bytes(&self, node: usize, category: Category) -> u64 {
        self.cells(category).get(node).map_or(0, |cell| cell.0)
    }

    /// Total bytes recorded for a node across all categories.
    pub fn node_total_bytes(&self, node: usize) -> u64 {
        self.columns
            .iter()
            .filter_map(|c| c.cells.get(node))
            .map(|&(bytes, _)| bytes)
            .sum()
    }

    /// Number of messages recorded for a node in a category.
    pub fn node_messages(&self, node: usize, category: Category) -> u64 {
        self.cells(category).get(node).map_or(0, |cell| cell.1)
    }

    /// Total bytes recorded in a category across all nodes.
    pub fn category_bytes(&self, category: Category) -> u64 {
        self.cells(category).iter().map(|cell| cell.0).sum()
    }

    /// Total messages recorded in a category across all nodes.
    pub fn category_messages(&self, category: Category) -> u64 {
        self.cells(category).iter().map(|cell| cell.1).sum()
    }

    /// Bytes recorded during one cycle (all nodes, all categories).
    pub fn cycle_bytes(&self, cycle: u64) -> u64 {
        self.per_cycle
            .binary_search_by_key(&cycle, |&(c, _)| c)
            .map_or(0, |at| self.per_cycle[at].1)
    }

    /// Grand totals: `(bytes, messages)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.total_bytes, self.total_messages)
    }

    /// All categories observed so far, sorted for deterministic reporting.
    pub fn categories(&self) -> Vec<Category> {
        let mut cats: Vec<Category> = self.columns.iter().map(|c| c.category).collect();
        cats.sort_unstable();
        cats
    }

    /// Merges the counters of another recorder into this one (used when
    /// experiments run phases with separate recorders).
    pub fn merge(&mut self, other: &BandwidthRecorder) {
        for column in &other.columns {
            let mine = self.cells_mut(column.category, column.cells.len());
            for (into, from) in mine.iter_mut().zip(&column.cells) {
                into.0 += from.0;
                into.1 += from.1;
            }
        }
        for &(cycle, bytes) in &other.per_cycle {
            self.add_cycle_bytes(cycle, bytes);
        }
        self.total_bytes += other.total_bytes;
        self.total_messages += other.total_messages;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    impl BandwidthRecorder {
        /// Clears all counters.
        fn reset(&mut self) {
            *self = Self::default();
        }
    }

    /// The recorder as it is defined: one hash entry per key.
    #[derive(Default)]
    struct Model {
        cells: HashMap<(usize, String), (u64, u64)>,
        per_cycle: HashMap<u64, u64>,
    }

    impl Model {
        fn record(&mut self, node: usize, cycle: u64, category: &str, bytes: usize) {
            let cell = self.cells.entry((node, category.to_string())).or_default();
            cell.0 += bytes as u64;
            cell.1 += 1;
            *self.per_cycle.entry(cycle).or_default() += bytes as u64;
        }

        fn merge(&mut self, other: &Model) {
            for (key, cell) in &other.cells {
                let mine = self.cells.entry(key.clone()).or_default();
                mine.0 += cell.0;
                mine.1 += cell.1;
            }
            for (&cycle, &bytes) in &other.per_cycle {
                *self.per_cycle.entry(cycle).or_default() += bytes;
            }
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
        let mut categories: Vec<&str> = model.cells.keys().map(|(_, c)| c.as_str()).collect();
        categories.sort_unstable();
        categories.dedup();
        assert_eq!(recorder.categories(), categories);
        assert_eq!(recorder.totals(), model.sum(|_, _| true));
        for &label in labels.iter().chain(&["never recorded"]) {
            let (bytes, messages) = model.sum(|_, c| c == label);
            assert_eq!(recorder.category_bytes(label), bytes, "{label}");
            assert_eq!(recorder.category_messages(label), messages, "{label}");
        }
        for node in (0..40).chain([FAR_NODE - 1, FAR_NODE, FAR_NODE + 1]) {
            assert_eq!(
                recorder.node_total_bytes(node),
                model.sum(|n, _| n == node).0
            );
            for &label in labels.iter().chain(&["never recorded"]) {
                let (bytes, messages) = model.sum(|n, c| n == node && c == label);
                assert_eq!(recorder.node_bytes(node, label), bytes, "{node} {label}");
                assert_eq!(
                    recorder.node_messages(node, label),
                    messages,
                    "{node} {label}"
                );
            }
        }
        for cycle in (0..30).chain([u64::MAX]) {
            let bytes = model.per_cycle.get(&cycle).copied().unwrap_or(0);
            assert_eq!(recorder.cycle_bytes(cycle), bytes, "cycle {cycle}");
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
        // Two recorders that meet the categories in different orders, fed
        // cycles mostly — not always — in order.
        let (mut a, mut a_model) = (BandwidthRecorder::new(), Model::default());
        let (mut b, mut b_model) = (BandwidthRecorder::new(), Model::default());
        a.record(1, 0, labels[0], 5);
        a_model.record(1, 0, labels[0], 5);
        b.record(2, 3, labels[3], 9);
        b_model.record(2, 3, labels[3], 9);
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
            let cycle = if draw(10) == 0 { draw(30) } else { step / 100 };
            let label = labels[draw(5) as usize];
            let bytes = draw(4000) as usize;
            recorder.record(node, cycle, label, bytes);
            model.record(node, cycle, label, bytes);
            match draw(500) {
                0 => {
                    a.merge(&b);
                    a_model.merge(&b_model);
                }
                1 => {
                    b.merge(&a);
                    b_model.merge(&a_model);
                }
                2 => {
                    b.reset();
                    b_model = Model::default();
                }
                _ => {}
            }
            if step % 250 == 0 {
                assert_reads_agree(&a, &a_model, &labels);
                assert_reads_agree(&b, &b_model, &labels);
            }
        }
        a.merge(&b);
        a_model.merge(&b_model);
        assert_reads_agree(&a, &a_model, &labels);
        assert!(a.node_bytes(FAR_NODE, "digest") > 0);
    }

    #[test]
    fn record_accumulates_bytes_and_messages() {
        let mut r = BandwidthRecorder::new();
        r.record(0, 1, "digest", 100);
        r.record(0, 1, "digest", 50);
        r.record(1, 2, "profile", 500);
        assert_eq!(r.node_bytes(0, "digest"), 150);
        assert_eq!(r.node_messages(0, "digest"), 2);
        assert_eq!(r.node_total_bytes(0), 150);
        assert_eq!(r.category_bytes("profile"), 500);
        assert_eq!(r.category_messages("profile"), 1);
        assert_eq!(r.cycle_bytes(1), 150);
        assert_eq!(r.cycle_bytes(2), 500);
        assert_eq!(r.totals(), (650, 3));
    }

    #[test]
    fn unknown_keys_are_zero() {
        let r = BandwidthRecorder::new();
        assert_eq!(r.node_bytes(9, "nope"), 0);
        assert_eq!(r.cycle_bytes(9), 0);
        assert_eq!(r.totals(), (0, 0));
    }

    #[test]
    fn categories_are_sorted_and_unique() {
        let mut r = BandwidthRecorder::new();
        r.record(0, 0, "b", 1);
        r.record(1, 0, "a", 1);
        r.record(2, 0, "b", 1);
        assert_eq!(r.categories(), vec!["a", "b"]);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = BandwidthRecorder::new();
        let mut b = BandwidthRecorder::new();
        a.record(0, 0, "x", 10);
        b.record(0, 0, "x", 5);
        b.record(1, 1, "y", 7);
        a.merge(&b);
        assert_eq!(a.node_bytes(0, "x"), 15);
        assert_eq!(a.node_bytes(1, "y"), 7);
        assert_eq!(a.totals(), (22, 3));
    }

    #[test]
    fn reset_clears_everything() {
        let mut r = BandwidthRecorder::new();
        r.record(0, 0, "x", 10);
        r.reset();
        assert_eq!(r.totals(), (0, 0));
        assert!(r.categories().is_empty());
    }
}
