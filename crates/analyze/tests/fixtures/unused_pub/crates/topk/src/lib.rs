// Fixture: the public surface of a library crate.
// Never compiled — scanned by the analyzer self-tests only.

// VIOLATION: called only by `rank` below, inside its own crate.
pub fn crate_local_helper(x: u32) -> u32 {
    x + 1
}

// VIOLATION: read only by this crate's own `#[cfg(test)]` module.
pub const TEST_ONLY_LIMIT: usize = 8;

// Called by the integration test crates/integration/tests/uses_api.rs:
// not a finding.
pub fn called_by_an_integration_test() -> u32 {
    rank(1)
}

// VIOLATION: named elsewhere only inside a comment and a string.
pub fn mentioned_in_a_comment() {}

// p3q-allow: unused-pub — kept public for callers outside this fixture.
pub fn kept_by_annotation() {}

fn rank(x: u32) -> u32 {
    crate_local_helper(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_is_positive() {
        assert!(TEST_ONLY_LIMIT > 0);
    }
}
