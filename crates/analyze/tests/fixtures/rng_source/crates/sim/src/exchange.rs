// Fixture: RNG construction that bypasses stream_seed on the plan/commit
// path. Never compiled — scanned by the analyzer self-tests only.
use rand::{rngs::StdRng, Rng, SeedableRng};

fn plan_roll(cycle: u64) -> u64 {
    // VIOLATION: raw seed, no stream_seed/splitmix derivation in sight.
    let mut rng = StdRng::seed_from_u64(cycle);
    rng.gen()
}

fn ambient_roll() -> u64 {
    // VIOLATION: entropy-seeded RNG breaks replay.
    let mut rng = StdRng::from_entropy();
    rng.gen()
}
