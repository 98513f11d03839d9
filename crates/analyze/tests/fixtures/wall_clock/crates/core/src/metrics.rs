// Fixture: wall-clock reads feeding logic outside the bench crate.
// Never compiled — scanned by the analyzer self-tests only.
use std::time::{Instant, SystemTime};

fn cycle_deadline() -> Instant {
    // VIOLATION: ambient time in simulation logic.
    Instant::now()
}

fn stamp() -> SystemTime {
    // VIOLATION: ambient time in simulation logic.
    SystemTime::now()
}

fn worker_label() -> String {
    // VIOLATION: thread identity feeding logic.
    format!("{:?}", std::thread::current().id())
}
