//! The workspace's runnable examples (`examples/`) and cross-crate
//! integration tests (`tests/`); Cargo discovers both, so a new file there
//! builds and runs with no registration. The library itself is empty.
