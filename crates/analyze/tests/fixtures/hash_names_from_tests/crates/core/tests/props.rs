// Fixture: an integration test whose parameter is a `HashMap` named like
// the library's `Vec`. Never compiled — scanned by the analyzer self-tests.
use std::collections::HashMap;

fn build(entries: &HashMap<u64, u32>) -> usize {
    entries.len()
}
