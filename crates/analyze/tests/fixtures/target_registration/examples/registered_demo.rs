// Fixture: this example IS registered in crates/integration/Cargo.toml.
fn main() {}
