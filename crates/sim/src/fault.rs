//! Deterministic fault injection for the plan/commit engine.
//!
//! The paper analyzes P3Q over an idealized synchronous network: every
//! planned gossip exchange is delivered within its cycle and nodes only
//! leave through the explicit churn model. Real transports drop, delay and
//! duplicate messages, and real processes crash. [`FaultPlan`] makes those
//! imperfections *expressible as a fixed, replayable schedule*: a
//! [`FaultConfig`] plus the engine's cycle axis fully determine every fault,
//! so a faulted run is exactly as reproducible as a perfect one and can
//! serve as the oracle for a future message-passing transport.
//!
//! # Where faults interpose
//!
//! The fault layer sits **between the plan and commit phases** of a cycle
//! (see `RunOptions::faulted` on the simulator's `drive` entry):
//!
//! * **delivery faults** — every *pairwise* plan (a message on the wire)
//!   independently rolls one uniform draw against the configured rates: it
//!   is **dropped** (never commits), **delayed** (re-enqueued on an internal
//!   `EventQueue` and re-injected — and re-rolled — in a later cycle), or
//!   **duplicated** (committed twice; the copy is appended after all
//!   regular plans). *Solo* plans are local computation, not messages, and
//!   are never faulted.
//! * **process faults** — at the start of a cycle, before preparation, each
//!   alive node may **crash**: it departs the [`Membership`], the protocol's
//!   `on_crash` hook clears its volatile state, and a **restart** is
//!   scheduled `downtime_cycles` later, at which point the node rejoins and
//!   `on_restart` runs. A delayed message whose endpoint has crashed by
//!   delivery time **expires** instead of committing.
//!
//! # Determinism
//!
//! All fault randomness flows from [`FaultConfig::fault_seed`] through
//! [`stream_seed`] (the same split-seed discipline as every other
//! deterministic fan-out in the workspace): one stream per concern
//! (delivery vs crash) and per cycle, never touching the simulator's master
//! RNG. Consequently a **zero-fault [`FaultPlan`] consumes no randomness
//! and leaves the plan list untouched**, so its runs are byte-identical to
//! the faultless engine, and any faulted run is byte-identical for every
//! `P3Q_THREADS` value (faults are decided on the ordered plan list, which
//! is itself thread-independent).
//!
//! Every decision is folded into a running [`crate::fingerprint::Fnv`]
//! witness (`FaultPlan::fingerprint`), which the property suites use to pin
//! fault-schedule determinism: same `(seed, FaultConfig)` → same
//! fingerprint.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exchange::ExchangePlan;
use crate::fingerprint::{Fingerprint, Fnv};
use crate::membership::Membership;
use crate::parallel::stream_seed;

/// Stream label for per-cycle delivery-fault RNGs.
const STREAM_DELIVERY: u64 = 0xFA17_0000_0000_0001;
/// Stream label for per-cycle crash RNGs.
const STREAM_CRASH: u64 = 0xFA17_0000_0000_0002;

/// The replayable description of an imperfect network: per-message fault
/// rates, crash behaviour and the seed all fault randomness derives from.
///
/// `(simulation seed, FaultConfig)` fully determines a faulted run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a pairwise plan is dropped outright.
    pub drop_rate: f64,
    /// Probability that a pairwise plan is delayed to a later cycle.
    pub delay_rate: f64,
    /// Probability that a pairwise plan is delivered twice.
    pub duplicate_rate: f64,
    /// Upper bound on the extra cycles a delayed plan waits (the actual
    /// delay is `1 + uniform(0..max_delay_cycles)` cycles; values below 1
    /// are treated as 1).
    pub max_delay_cycles: u64,
    /// Per-cycle probability that an alive node crashes.
    pub crash_rate: f64,
    /// Cycles a crashed node stays down before its restart (the node
    /// rejoins at the start of cycle `crash_cycle + 1 + downtime_cycles`).
    pub downtime_cycles: u64,
    /// Master seed of every fault RNG stream (independent of the
    /// simulator's seed, so the same workload can replay under different
    /// fault schedules and vice versa).
    pub fault_seed: u64,
}

impl FaultConfig {
    /// The perfect network: no faults at all. A [`FaultPlan`] built from
    /// this config consumes no randomness and never alters a plan list, so
    /// runs are byte-identical to the faultless engine.
    pub fn none() -> Self {
        Self {
            drop_rate: 0.0,
            delay_rate: 0.0,
            duplicate_rate: 0.0,
            max_delay_cycles: 1,
            crash_rate: 0.0,
            downtime_cycles: 0,
            fault_seed: 0,
        }
    }

    /// A lossy-but-stable network: messages are dropped, delayed and
    /// duplicated around the headline `loss` rate (delay at half of it,
    /// duplication at a quarter), but nodes never crash.
    pub fn lossy(loss: f64, fault_seed: u64) -> Self {
        Self {
            drop_rate: loss,
            delay_rate: loss / 2.0,
            duplicate_rate: loss / 4.0,
            max_delay_cycles: 3,
            crash_rate: 0.0,
            downtime_cycles: 0,
            fault_seed,
        }
    }

    /// A crash-prone deployment over a reliable network: per-cycle crash
    /// probability `crash_rate`, each crash lasting `downtime_cycles`.
    pub fn crash_restart(crash_rate: f64, downtime_cycles: u64, fault_seed: u64) -> Self {
        Self {
            drop_rate: 0.0,
            delay_rate: 0.0,
            duplicate_rate: 0.0,
            max_delay_cycles: 1,
            crash_rate,
            downtime_cycles,
            fault_seed,
        }
    }

    /// Returns `true` if this config can never produce a fault.
    pub fn is_none(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.duplicate_rate == 0.0
            && self.crash_rate == 0.0
    }

    /// Returns `true` if no *delivery* fault (drop/delay/duplicate) can
    /// occur (crashes may still).
    pub(crate) fn is_delivery_perfect(&self) -> bool {
        self.drop_rate == 0.0 && self.delay_rate == 0.0 && self.duplicate_rate == 0.0
    }

    /// Validates the rates.
    ///
    /// # Panics
    /// Panics if any rate is outside `[0, 1]` or the delivery rates sum to
    /// more than 1.
    pub fn validate(&self) {
        for (name, rate) in [
            ("drop_rate", self.drop_rate),
            ("delay_rate", self.delay_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("crash_rate", self.crash_rate),
        ] {
            assert!(
                (0.0..=1.0).contains(&rate),
                "{name} must be within [0, 1], got {rate}"
            );
        }
        let sum = self.drop_rate + self.delay_rate + self.duplicate_rate;
        assert!(
            sum <= 1.0,
            "drop + delay + duplicate rates must sum to at most 1, got {sum}"
        );
    }

    /// A stable fingerprint of the configuration itself (folded into the
    /// schedule fingerprint so two runs only match when both the seed *and*
    /// the rates match). This is [`Fingerprint::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        Fingerprint::fingerprint(self)
    }
}

impl Fingerprint for FaultConfig {
    fn fold(&self, hasher: &mut Fnv) {
        hasher.write_all([
            self.drop_rate.to_bits(),
            self.delay_rate.to_bits(),
            self.duplicate_rate.to_bits(),
            self.max_delay_cycles,
            self.crash_rate.to_bits(),
            self.downtime_cycles,
            self.fault_seed,
        ]);
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Counters of every fault the plan has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Pairwise plans dropped outright.
    pub dropped: u64,
    /// Pairwise plans re-enqueued for a later cycle.
    pub delayed: u64,
    /// Pairwise plans delivered twice.
    pub duplicated: u64,
    /// Delayed plans that expired because an endpoint was dead at delivery.
    pub expired: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node restarts completed.
    pub restarts: u64,
}

/// The node transitions one faulted cycle starts with: who crashed and who
/// came back. The engine runs the protocol's `on_crash` / `on_restart`
/// hooks over these before the prepare phase.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTransitions {
    /// Nodes that crashed at the start of this cycle (already departed).
    pub crashed: Vec<usize>,
    /// Nodes that restarted at the start of this cycle (already rejoined).
    pub restarted: Vec<usize>,
}

/// The live fault schedule of one run: configured rates plus the in-flight
/// state (delayed messages, pending restarts) and the decision fingerprint.
///
/// Generic over the plan payload `P` because delayed [`ExchangePlan`]s are
/// carried across cycles inside the plan.
#[derive(Debug, Clone)]
pub struct FaultPlan<P> {
    config: FaultConfig,
    delayed: EventQueue<ExchangePlan<P>>,
    restarts: EventQueue<usize>,
    stats: FaultStats,
    fingerprint: Fnv,
}

impl<P> FaultPlan<P> {
    /// Creates the fault schedule for one run.
    ///
    /// # Panics
    /// Panics if the config is invalid (see [`FaultConfig::validate`]).
    pub fn new(config: FaultConfig) -> Self {
        config.validate();
        let mut fingerprint = Fnv::new();
        config.fold(&mut fingerprint);
        Self {
            config,
            delayed: EventQueue::new(),
            restarts: EventQueue::new(),
            stats: FaultStats::default(),
            fingerprint,
        }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Running FNV-1a fingerprint (see [`crate::fingerprint`]) over the
    /// config and every fault decision taken so far. Two runs with the same
    /// `(seed, FaultConfig)` produce the same fingerprint at every cycle
    /// boundary, for every thread count.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint.finish()
    }

    /// Number of delayed plans still in flight.
    pub(crate) fn pending_delayed(&self) -> usize {
        self.delayed.len()
    }

    /// Number of crashed nodes still waiting to restart.
    pub(crate) fn pending_restarts(&self) -> usize {
        self.restarts.len()
    }

    fn note(&mut self, code: u64, a: u64, b: u64) {
        self.fingerprint.write_all([code, a, b]);
    }

    fn cycle_rng(&self, stream: u64, cycle: u64) -> StdRng {
        StdRng::seed_from_u64(stream_seed(
            stream_seed(self.config.fault_seed, stream),
            cycle,
        ))
    }

    /// Starts a faulted cycle: completes due restarts (nodes rejoin the
    /// membership), then rolls per-node crashes over the alive population.
    /// Returns the transitions so the engine can run the protocol's
    /// crash/restart hooks.
    ///
    /// Crashed nodes depart immediately and their restart is scheduled for
    /// cycle `cycle + 1 + downtime_cycles`. [`Membership::depart`] /
    /// [`Membership::rejoin`] are idempotent, so external churn can never
    /// make the alive count drift even if it races a scheduled restart.
    pub(crate) fn begin_cycle(
        &mut self,
        cycle: u64,
        membership: &mut Membership,
    ) -> FaultTransitions {
        let mut transitions = FaultTransitions::default();
        for idx in self.restarts.pop_due(cycle) {
            if membership.rejoin(idx) {
                self.stats.restarts += 1;
                self.note(4, cycle, idx as u64);
                transitions.restarted.push(idx);
            }
        }
        if self.config.crash_rate > 0.0 {
            let mut rng = self.cycle_rng(STREAM_CRASH, cycle);
            for idx in membership.alive_nodes() {
                if rng.gen::<f64>() < self.config.crash_rate {
                    membership.depart(idx);
                    self.restarts
                        .schedule(cycle + 1 + self.config.downtime_cycles, idx);
                    self.stats.crashes += 1;
                    self.note(5, cycle, idx as u64);
                    transitions.crashed.push(idx);
                }
            }
        }
        transitions
    }
}

impl<P: Clone> FaultPlan<P> {
    /// Interposes between plan and commit: applies delivery faults to the
    /// cycle's fresh plans and injects delayed plans that come due.
    ///
    /// Solo plans pass through untouched (they are local computation, not
    /// messages). Each pairwise plan — fresh or redelivered — rolls one
    /// uniform draw: dropped, delayed (re-enqueued; it will roll again at
    /// redelivery, so repeated delays decay geometrically), duplicated
    /// (the copy is appended after all regular plans) or delivered intact.
    /// Redelivered plans whose initiator or destination has died in the
    /// meantime expire instead.
    ///
    /// With zero delivery rates and nothing in flight this returns the
    /// input unchanged, preserving plan indices — and therefore the
    /// per-plan commit RNG streams — exactly.
    pub(crate) fn filter_plans(
        &mut self,
        cycle: u64,
        fresh: Vec<ExchangePlan<P>>,
        membership: &Membership,
    ) -> Vec<ExchangePlan<P>> {
        let arrivals = self.delayed.pop_due(cycle);
        if self.config.is_delivery_perfect() && arrivals.is_empty() {
            return fresh;
        }
        let cfg = self.config;
        let mut rng = self.cycle_rng(STREAM_DELIVERY, cycle);
        let mut out = Vec::with_capacity(fresh.len() + arrivals.len());
        let mut duplicates = Vec::new();
        let fresh_len = fresh.len();
        for (i, plan) in fresh.into_iter().chain(arrivals).enumerate() {
            if plan.destination.is_none() {
                out.push(plan);
                continue;
            }
            let redelivery = i >= fresh_len;
            if redelivery
                && (!membership.is_alive(plan.initiator)
                    || !plan.destination.is_some_and(|d| membership.is_alive(d)))
            {
                self.stats.expired += 1;
                self.note(3, cycle, i as u64);
                continue;
            }
            let roll: f64 = rng.gen();
            if roll < cfg.drop_rate {
                self.stats.dropped += 1;
                self.note(0, cycle, i as u64);
            } else if roll < cfg.drop_rate + cfg.delay_rate {
                let extra = rng.gen_range(0..cfg.max_delay_cycles.max(1));
                self.delayed.schedule(cycle + 1 + extra, plan);
                self.stats.delayed += 1;
                self.note(1, cycle, i as u64);
            } else if roll < cfg.drop_rate + cfg.delay_rate + cfg.duplicate_rate {
                duplicates.push(plan.clone());
                out.push(plan);
                self.stats.duplicated += 1;
                self.note(2, cycle, i as u64);
            } else {
                out.push(plan);
            }
        }
        out.extend(duplicates);
        out
    }
}

/// A queue of values keyed by the cycle at which they become due (FIFO
/// among values due at the same cycle): a [`FaultPlan`]'s delayed plans
/// and pending restarts.
#[derive(Debug, Clone)]
struct EventQueue<E> {
    events: BTreeMap<u64, Vec<E>>,
    len: usize,
}

impl<E> EventQueue<E> {
    fn new() -> Self {
        Self {
            events: BTreeMap::new(),
            len: 0,
        }
    }

    /// Schedules `event` to fire at `cycle`.
    fn schedule(&mut self, cycle: u64, event: E) {
        self.events.entry(cycle).or_default().push(event);
        self.len += 1;
    }

    /// Number of pending events.
    fn len(&self) -> usize {
        self.len
    }

    /// Removes and returns every event due at or before `cycle`, in
    /// scheduling order.
    ///
    /// Single pass: the tree is split at `cycle + 1` — the not-yet-due tail
    /// stays, the due head is drained by value — instead of collecting the
    /// due keys first and removing them one lookup at a time.
    fn pop_due(&mut self, cycle: u64) -> Vec<E> {
        let not_due = match cycle.checked_add(1) {
            Some(next) => self.events.split_off(&next),
            None => BTreeMap::new(), // u64::MAX: everything is due
        };
        let due_map = std::mem::replace(&mut self.events, not_due);
        let mut due = Vec::new();
        for (_, mut events) in due_map {
            self.len -= events.len();
            due.append(&mut events);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(initiator: usize, destination: Option<usize>) -> ExchangePlan<u32> {
        ExchangePlan {
            initiator,
            destination,
            payload: initiator as u32,
        }
    }

    fn indices(plans: &[ExchangePlan<u32>]) -> Vec<(usize, Option<usize>)> {
        plans.iter().map(|p| (p.initiator, p.destination)).collect()
    }

    #[test]
    fn zero_fault_plan_is_transparent() {
        let mut faults: FaultPlan<u32> = FaultPlan::new(FaultConfig::none());
        let mut membership = Membership::all_alive(4);
        let transitions = faults.begin_cycle(0, &mut membership);
        assert_eq!(transitions, FaultTransitions::default());
        assert_eq!(membership.alive_count(), 4);
        let fresh = vec![plan(0, Some(1)), plan(2, None), plan(3, Some(0))];
        let expected = indices(&fresh);
        let out = faults.filter_plans(0, fresh, &membership);
        assert_eq!(indices(&out), expected);
        assert_eq!(faults.stats(), FaultStats::default());
        assert_eq!(faults.fingerprint(), FaultConfig::none().fingerprint());
    }

    #[test]
    fn drop_everything_removes_all_pairwise_plans() {
        let cfg = FaultConfig {
            drop_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut faults: FaultPlan<u32> = FaultPlan::new(cfg);
        let membership = Membership::all_alive(4);
        let out = faults.filter_plans(0, vec![plan(0, Some(1)), plan(2, None)], &membership);
        assert_eq!(indices(&out), vec![(2, None)], "solo plans are immune");
        assert_eq!(faults.stats().dropped, 1);
    }

    #[test]
    fn delayed_plans_come_back_later_and_expire_on_dead_endpoints() {
        let cfg = FaultConfig {
            delay_rate: 1.0,
            max_delay_cycles: 1,
            ..FaultConfig::none()
        };
        let mut faults: FaultPlan<u32> = FaultPlan::new(cfg);
        let mut membership = Membership::all_alive(4);
        let out = faults.filter_plans(0, vec![plan(0, Some(1)), plan(2, Some(3))], &membership);
        assert!(out.is_empty());
        assert_eq!(faults.stats().delayed, 2);
        assert_eq!(faults.pending_delayed(), 2);
        // Redelivery at cycle 1: one endpoint died in the meantime, and the
        // surviving plan rolls again (delay_rate = 1) so it is re-delayed.
        membership.depart(3);
        let out = faults.filter_plans(1, Vec::new(), &membership);
        assert!(out.is_empty());
        assert_eq!(faults.stats().expired, 1);
        assert_eq!(faults.stats().delayed, 3);
        // Make redelivery deliverable: zero the rates via a fresh plan is
        // not possible (config is fixed), but the remaining plan keeps
        // cycling deterministically.
        assert_eq!(faults.pending_delayed(), 1);
    }

    #[test]
    fn duplicates_are_appended_after_regular_plans() {
        let cfg = FaultConfig {
            duplicate_rate: 1.0,
            ..FaultConfig::none()
        };
        let mut faults: FaultPlan<u32> = FaultPlan::new(cfg);
        let membership = Membership::all_alive(4);
        let out = faults.filter_plans(
            0,
            vec![plan(0, Some(1)), plan(2, None), plan(3, Some(0))],
            &membership,
        );
        assert_eq!(
            indices(&out),
            vec![
                (0, Some(1)),
                (2, None),
                (3, Some(0)),
                (0, Some(1)),
                (3, Some(0)),
            ]
        );
        assert_eq!(faults.stats().duplicated, 2);
    }

    #[test]
    fn crashes_depart_and_restart_after_downtime() {
        let cfg = FaultConfig::crash_restart(1.0, 1, 9);
        let mut faults: FaultPlan<u32> = FaultPlan::new(cfg);
        let mut membership = Membership::all_alive(3);
        let t0 = faults.begin_cycle(0, &mut membership);
        assert_eq!(t0.crashed, vec![0, 1, 2]);
        assert_eq!(membership.alive_count(), 0);
        assert_eq!(faults.pending_restarts(), 3);
        // Downtime 1: nothing restarts at cycle 1...
        let t1 = faults.begin_cycle(1, &mut membership);
        assert!(t1.restarted.is_empty());
        assert_eq!(membership.alive_count(), 0);
        // ...everything restarts at cycle 2 (and, at crash_rate 1, crashes
        // again immediately).
        let t2 = faults.begin_cycle(2, &mut membership);
        assert_eq!(t2.restarted, vec![0, 1, 2]);
        assert_eq!(t2.crashed, vec![0, 1, 2]);
        assert_eq!(membership.alive_count(), 0);
        let stats = faults.stats();
        assert_eq!(stats.crashes, 6);
        assert_eq!(stats.restarts, 3);
    }

    #[test]
    fn externally_rejoined_nodes_are_not_double_counted() {
        let cfg = FaultConfig::crash_restart(1.0, 0, 1);
        let mut faults: FaultPlan<u32> = FaultPlan::new(cfg);
        let mut membership = Membership::all_alive(1);
        faults.begin_cycle(0, &mut membership);
        assert_eq!(membership.alive_count(), 0);
        // External churn logic brings the node back before its scheduled
        // restart; the restart must not double-count it.
        membership.rejoin(0);
        let t = faults.begin_cycle(1, &mut membership);
        assert!(t.restarted.is_empty(), "already alive: restart is a no-op");
        assert_eq!(faults.stats().restarts, 0);
        assert_eq!(membership.alive_count(), 0, "crash_rate 1 re-crashes it");
        let recount = (0..membership.len())
            .filter(|&i| membership.is_alive(i))
            .count();
        assert_eq!(membership.alive_count(), recount);
    }

    #[test]
    fn same_config_same_fingerprint_different_seed_different_fingerprint() {
        let run = |seed: u64| {
            let cfg = FaultConfig::lossy(0.3, seed);
            let mut faults: FaultPlan<u32> = FaultPlan::new(cfg);
            let membership = Membership::all_alive(8);
            for cycle in 0..5 {
                let fresh = (0..8)
                    .filter(|&i| membership.is_alive(i))
                    .map(|i| plan(i, Some((i + 1) % 8)))
                    .collect();
                let _ = faults.filter_plans(cycle, fresh, &membership);
            }
            faults.fingerprint()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn rates_are_validated() {
        let ok = FaultConfig::lossy(0.5, 0);
        ok.validate();
        let bad = FaultConfig {
            drop_rate: 0.7,
            delay_rate: 0.5,
            ..FaultConfig::none()
        };
        let err = std::panic::catch_unwind(|| bad.validate());
        assert!(err.is_err(), "delivery rates summing past 1 must panic");
        let neg = FaultConfig {
            crash_rate: -0.1,
            ..FaultConfig::none()
        };
        let err = std::panic::catch_unwind(|| neg.validate());
        assert!(err.is_err(), "negative rates must panic");
    }

    #[test]
    fn preset_helpers_classify_themselves() {
        assert!(FaultConfig::none().is_none());
        assert!(FaultConfig::none().is_delivery_perfect());
        assert!(!FaultConfig::lossy(0.05, 0).is_none());
        assert!(!FaultConfig::lossy(0.05, 0).is_delivery_perfect());
        let crashy = FaultConfig::crash_restart(0.01, 5, 0);
        assert!(!crashy.is_none());
        assert!(crashy.is_delivery_perfect());
    }

    #[test]
    fn events_fire_in_cycle_then_fifo_order() {
        let mut q = EventQueue::new();
        q.schedule(5, "b");
        q.schedule(3, "a");
        q.schedule(5, "c");
        assert_eq!(q.len(), 3);
        assert!(q.pop_due(2).is_empty());
        assert_eq!(q.pop_due(4), vec!["a"]);
        assert_eq!(q.pop_due(10), vec!["b", "c"]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_due_on_empty_is_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.pop_due(100).is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn events_not_yet_due_stay_queued() {
        let mut q = EventQueue::new();
        q.schedule(10, 1u32);
        assert!(q.pop_due(9).is_empty());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(10), vec![1]);
    }

    #[test]
    fn pop_due_at_u64_max_drains_everything() {
        let mut q = EventQueue::new();
        q.schedule(0, "a");
        q.schedule(u64::MAX, "b");
        assert_eq!(q.pop_due(u64::MAX), vec!["a", "b"]);
        assert_eq!(q.len(), 0);
    }
}
