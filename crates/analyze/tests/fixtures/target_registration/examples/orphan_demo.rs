// VIOLATION: this example is not in the crates/integration target table, so
// cargo silently ignores it.
fn main() {}
