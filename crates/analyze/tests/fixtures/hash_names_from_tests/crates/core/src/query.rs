// Fixture: a plan/commit-path module iterating a `Vec` named `entries`.
// Never compiled — scanned by the analyzer self-tests only.
use std::collections::HashMap;

pub struct Book {
    entries: Vec<(u64, u32)>,
}

impl Book {
    pub(crate) fn total(&self) -> u64 {
        let mut total = 0;
        for (id, _) in &self.entries {
            total ^= id;
        }
        total + self.entries.iter().map(|(_, v)| u64::from(*v)).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A test-only map under the library `Vec`'s name.
    fn model(entries: HashMap<u64, u32>) -> Book {
        let mut sorted: Vec<(u64, u32)> = entries.into_iter().collect();
        sorted.sort_unstable();
        Book { entries: sorted }
    }
}
