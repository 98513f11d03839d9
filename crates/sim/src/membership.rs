//! Node membership and churn.
//!
//! The paper evaluates P3Q under massive simultaneous departures
//! (Section 3.4.2: "we simply assume that a given percentage of randomly
//! chosen users leave the system simultaneously"). [`Membership`] tracks
//! which nodes are alive and implements exactly that departure model, plus
//! re-joins for completeness.

use rand::seq::SliceRandom;
use rand::Rng;

/// Alive/departed status of every node in the simulation.
///
/// The alive count is maintained incrementally so that the per-cycle
/// scheduling of large populations (100k+ nodes) never has to re-scan the
/// whole vector just to size its work lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    alive: Vec<bool>,
    alive_count: usize,
}

impl Membership {
    /// Creates a membership where all `n` nodes are alive.
    pub fn all_alive(n: usize) -> Self {
        Self {
            alive: vec![true; n],
            alive_count: n,
        }
    }

    /// Total number of nodes (alive or not).
    pub fn len(&self) -> usize {
        self.alive.len()
    }

    /// Returns `true` if the membership tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.alive.is_empty()
    }

    /// Returns `true` if node `idx` is alive.
    pub fn is_alive(&self, idx: usize) -> bool {
        self.alive.get(idx).copied().unwrap_or(false)
    }

    /// Number of alive nodes (O(1); the count is maintained incrementally).
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Indices of alive nodes, in ascending order.
    pub fn alive_nodes(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.alive_count);
        out.extend((0..self.alive.len()).filter(|&i| self.alive[i]));
        out
    }

    /// Marks one node as departed. Returns `true` if it was alive.
    pub fn depart(&mut self, idx: usize) -> bool {
        let was_alive = self.alive[idx];
        self.alive[idx] = false;
        if was_alive {
            self.alive_count -= 1;
        }
        was_alive
    }

    /// Marks one node as alive again. Returns `true` if it was departed.
    pub fn rejoin(&mut self, idx: usize) -> bool {
        let was_departed = !self.alive[idx];
        self.alive[idx] = true;
        if was_departed {
            self.alive_count += 1;
        }
        was_departed
    }

    /// Makes a uniformly random `fraction` of the *currently alive* nodes
    /// leave simultaneously (the paper's churn scenario). Returns the
    /// departed node indices.
    ///
    /// # Panics
    /// Panics if `fraction` is not within `[0, 1]`.
    pub fn mass_departure<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) -> Vec<usize> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "departure fraction must be within [0, 1]"
        );
        let mut candidates = self.alive_nodes();
        candidates.shuffle(rng);
        let count = (candidates.len() as f64 * fraction).round() as usize;
        let departed: Vec<usize> = candidates.into_iter().take(count).collect();
        for &idx in &departed {
            self.depart(idx);
        }
        departed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_alive_initially() {
        let m = Membership::all_alive(5);
        assert_eq!(m.alive_count(), 5);
        assert_eq!(m.alive_nodes(), vec![0, 1, 2, 3, 4]);
        assert!(m.is_alive(3));
    }

    #[test]
    fn depart_and_rejoin() {
        let mut m = Membership::all_alive(3);
        assert!(m.depart(1));
        assert!(!m.depart(1));
        assert!(!m.is_alive(1));
        assert_eq!(m.alive_count(), 2);
        assert!(m.rejoin(1));
        assert!(!m.rejoin(1));
        assert_eq!(m.alive_count(), 3);
    }

    #[test]
    fn mass_departure_removes_requested_fraction() {
        let mut m = Membership::all_alive(1000);
        let mut rng = StdRng::seed_from_u64(1);
        let departed = m.mass_departure(0.3, &mut rng);
        assert_eq!(departed.len(), 300);
        assert_eq!(m.alive_count(), 700);
        for idx in departed {
            assert!(!m.is_alive(idx));
        }
    }

    #[test]
    fn mass_departure_extremes() {
        let mut m = Membership::all_alive(10);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(m.mass_departure(0.0, &mut rng).is_empty());
        assert_eq!(m.alive_count(), 10);
        let all = m.mass_departure(1.0, &mut rng);
        assert_eq!(all.len(), 10);
        assert_eq!(m.alive_count(), 0);
    }

    #[test]
    fn out_of_range_index_is_not_alive() {
        let m = Membership::all_alive(2);
        assert!(!m.is_alive(99));
    }

    #[test]
    fn cached_alive_count_stays_consistent() {
        let mut m = Membership::all_alive(50);
        let mut rng = StdRng::seed_from_u64(9);
        m.mass_departure(0.4, &mut rng);
        m.depart(0);
        m.depart(0); // double departure must not double-count
        m.rejoin(0);
        m.rejoin(0);
        let recount = (0..m.len()).filter(|&i| m.is_alive(i)).count();
        assert_eq!(m.alive_count(), recount);
        assert_eq!(m.alive_nodes().len(), recount);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn invalid_fraction_rejected() {
        let mut m = Membership::all_alive(2);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = m.mass_departure(1.5, &mut rng);
    }
}
