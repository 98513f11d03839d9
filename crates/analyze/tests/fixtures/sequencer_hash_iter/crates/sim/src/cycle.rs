// Fixture: unannotated hash-ordered iteration in the cycle sequencer, the
// one file every runtime's phase order comes from.
// Never compiled — scanned by the analyzer self-tests only.
use std::collections::HashMap;

fn run_cycle(charges_by_node: &HashMap<usize, u64>, recorder: &mut Vec<(usize, u64)>) {
    // VIOLATION: applying a batch's charges in HashMap order would make the
    // recorder's contents depend on the hasher.
    for (node, bytes) in charges_by_node.iter() {
        recorder.push((*node, *bytes));
    }
}
