// Fixture: unannotated hash-ordered iteration on the plan/commit path.
// Never compiled — scanned by the analyzer self-tests only.
use std::collections::{HashMap, HashSet};

pub struct Node {
    pub tasks: HashMap<u64, u32>,
}

fn drain_all(node: &mut Node) -> u64 {
    let mut total = 0;
    // VIOLATION: `.drain()` surfaces HashMap's unspecified order.
    for (_, v) in node.tasks.drain() {
        total += u64::from(v);
    }
    total
}

fn visit(node: &Node) -> u64 {
    let mut total = 0;
    // VIOLATION: `for … in` over a hash-typed field.
    for (k, _) in &node.tasks {
        total ^= k;
    }
    let seen: HashSet<u64> = HashSet::new();
    // VIOLATION: `.iter()` on a HashSet.
    for k in seen.iter() {
        total ^= k;
    }
    total
}
