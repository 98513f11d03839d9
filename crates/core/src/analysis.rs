//! The analytical model of the eager mode (Section 2.4, Theorems 2.1–2.4).
//!
//! The model assumes that every gossip hop finds the same number `X` of
//! useful profiles in the destination's local storage, and derives:
//!
//! * `R(α)` — the number of eager cycles until the querier's remaining list
//!   of initial length `L` is exhausted (Theorem 2.1);
//! * the optimality of `α = 0.5` (Theorem 2.2);
//! * an upper bound of `2^R(α)` users involved and `2^R(α) − 1` partial
//!   result messages (Theorem 2.3);
//! * an upper bound of `2 · (2^R(α) − 1)` eager gossip messages carrying
//!   remaining lists (Theorem 2.4).

/// `R(α)`: number of eager cycles for the querier to obtain the best results
/// her personal network can provide (Theorem 2.1).
///
/// `l` is the initial length of the querier's remaining list and `x` the
/// number of profiles found at each hop. Returns `0` when nothing remains to
/// be fetched and `+∞` when `x = 0` with a non-empty remaining list.
///
/// # Panics
/// Panics if `alpha` is outside `[0, 1]`.
pub fn cycles_to_completion(alpha: f64, l: f64, x: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "alpha must lie in [0, 1], got {alpha}"
    );
    assert!(l >= 0.0 && x >= 0.0, "L and X must be non-negative");
    if l <= 0.0 {
        return 0.0;
    }
    if x <= 0.0 {
        return f64::INFINITY;
    }
    if alpha == 0.0 || alpha == 1.0 {
        // Both extremes degenerate to a single chain consuming X profiles per
        // cycle: L / X cycles.
        return (l / x).ceil();
    }
    // The recurrence splits the remaining list by max(α, 1−α) at each cycle;
    // Theorem 2.1 expresses the two symmetric branches separately.
    let a = alpha.max(1.0 - alpha);
    1.0 - ((1.0 - a) * l / x + a).ln() / a.ln()
}

/// Upper bound on the number of users involved in processing a query that
/// completes in `r_alpha` cycles (Theorem 2.3): `2^R(α)`.
pub fn max_users_involved(r_alpha: f64) -> f64 {
    2f64.powf(r_alpha)
}

/// Upper bound on the number of partial result messages sent to the querier
/// (Theorem 2.3): `2^R(α) − 1`.
pub fn max_partial_results(r_alpha: f64) -> f64 {
    2f64.powf(r_alpha) - 1.0
}

/// Simulates the deterministic recurrence of Theorem 2.1's proof directly
/// (lengths of all outstanding remaining lists, cycle by cycle) and returns
/// the number of cycles until every list is empty.
///
/// This is the discrete process the closed form approximates; the
/// `paper_figures --figure theory_validation` harness compares the two and
/// the actual protocol against both.
pub fn simulate_recurrence(alpha: f64, l: f64, x: f64, max_cycles: usize) -> usize {
    assert!((0.0..=1.0).contains(&alpha), "alpha must lie in [0, 1]");
    if l <= 0.0 {
        return 0;
    }
    if x <= 0.0 {
        return max_cycles;
    }
    let mut lists = vec![l];
    for cycle in 1..=max_cycles {
        let mut next = Vec::with_capacity(lists.len() * 2);
        for len in lists {
            if len <= 0.0 {
                continue;
            }
            let after = (len - x).max(0.0);
            let keep = alpha * after;
            let delegate = (1.0 - alpha) * after;
            if keep > 0.0 {
                next.push(keep);
            }
            if delegate > 0.0 {
                next.push(delegate);
            }
        }
        if next.is_empty() {
            return cycle;
        }
        lists = next;
    }
    max_cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_cases() {
        assert_eq!(cycles_to_completion(0.5, 0.0, 5.0), 0.0);
        assert!(cycles_to_completion(0.5, 10.0, 0.0).is_infinite());
        assert_eq!(cycles_to_completion(0.0, 100.0, 10.0), 10.0);
        assert_eq!(cycles_to_completion(1.0, 100.0, 10.0), 10.0);
    }

    #[test]
    fn alpha_half_is_logarithmic() {
        // R(0.5) = 1 - log_0.5(0.5·L/X + 0.5) = log2(L/X + 1).
        let r = cycles_to_completion(0.5, 990.0, 10.0);
        let expected = (990.0f64 / 10.0 + 1.0).log2();
        assert!((r - expected).abs() < 1e-9, "got {r}, expected {expected}");
    }

    #[test]
    fn theorem_2_2_alpha_half_is_optimal() {
        let l = 990.0;
        let x = 10.0;
        let r_half = cycles_to_completion(0.5, l, x);
        for alpha in [0.05, 0.1, 0.3, 0.45, 0.55, 0.7, 0.9, 0.95] {
            let r = cycles_to_completion(alpha, l, x);
            assert!(r >= r_half - 1e-9, "R({alpha}) = {r} < R(0.5) = {r_half}");
        }
        // Monotonicity on each side of 0.5.
        assert!(cycles_to_completion(0.9, l, x) > cycles_to_completion(0.7, l, x));
        assert!(cycles_to_completion(0.1, l, x) > cycles_to_completion(0.3, l, x));
        // Extremes are the slowest.
        assert!(cycles_to_completion(1.0, l, x) >= cycles_to_completion(0.9, l, x));
    }

    #[test]
    fn symmetry_around_one_half() {
        let l = 500.0;
        let x = 5.0;
        for d in [0.1, 0.2, 0.3, 0.4] {
            let lo = cycles_to_completion(0.5 - d, l, x);
            let hi = cycles_to_completion(0.5 + d, l, x);
            assert!((lo - hi).abs() < 1e-9, "R is symmetric in α ↔ 1-α");
        }
    }

    #[test]
    fn paper_magnitude_for_the_default_setting() {
        // Paper: "the query processing time in gossip cycles can be
        // approximated with O(log2 L)". With s = 1000, c = 10 (so L ≈ 990)
        // and roughly X ≈ 10 profiles found per hop, about 10 cycles are
        // needed at α = 0.5 — exactly the paper's Figure 4 horizon.
        let r = cycles_to_completion(0.5, 990.0, 10.0);
        assert!(r > 5.0 && r < 12.0, "R = {r} out of the expected range");
    }

    #[test]
    fn closed_form_tracks_the_recurrence() {
        for &(alpha, l, x) in &[
            (0.5, 990.0, 10.0),
            (0.7, 500.0, 20.0),
            (0.3, 500.0, 20.0),
            (0.9, 200.0, 10.0),
        ] {
            let closed = cycles_to_completion(alpha, l, x).ceil() as usize;
            let simulated = simulate_recurrence(alpha, l, x, 10_000);
            let diff = closed.abs_diff(simulated);
            assert!(
                diff <= 2,
                "α={alpha}: closed form {closed} vs recurrence {simulated}"
            );
        }
    }

    #[test]
    fn bounds_are_consistent() {
        let r = 4.0;
        assert_eq!(max_users_involved(r), 16.0);
        assert_eq!(max_partial_results(r), 15.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let _ = cycles_to_completion(1.5, 10.0, 1.0);
    }
}
