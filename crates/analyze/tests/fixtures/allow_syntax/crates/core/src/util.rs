// Fixture: malformed allow annotations.
// Never compiled — scanned by the analyzer self-tests only.

// VIOLATION: p3q-allow: hash-iter
fn missing_reason() {}

// VIOLATION: p3q-allow: no-such-rule — because I said so
fn unknown_rule() {}
