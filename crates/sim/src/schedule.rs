//! One-shot event scheduling on the cycle axis.
//!
//! Experiment drivers occasionally need "at cycle X, do Y" hooks: apply a
//! batch of profile changes, inject a mass departure, start a burst of
//! queries. [`EventQueue`] is a minimal, deterministic priority queue for
//! such events (FIFO among events scheduled for the same cycle); a
//! schedule of `(cycle, event)` pairs collects straight into one.

use std::collections::BTreeMap;

/// A queue of events keyed by the cycle at which they become due.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    events: BTreeMap<u64, Vec<E>>,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self {
            events: BTreeMap::new(),
            len: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` to fire at `cycle`.
    pub fn schedule(&mut self, cycle: u64, event: E) {
        self.events.entry(cycle).or_default().push(event);
        self.len += 1;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes and returns every event due at or before `cycle`, in
    /// scheduling order.
    ///
    /// Single pass: the tree is split at `cycle + 1` — the not-yet-due tail
    /// stays, the due head is drained by value — instead of collecting the
    /// due keys first and removing them one lookup at a time.
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Vec<E> {
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

/// Schedules every `(cycle, event)` pair in iteration order, so events
/// sharing a cycle fire in the order they were collected.
impl<E> FromIterator<(u64, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (u64, E)>>(pairs: I) -> Self {
        let mut queue = Self::new();
        for (cycle, event) in pairs {
            queue.schedule(cycle, event);
        }
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(q.is_empty());
    }

    #[test]
    fn collected_queue_pops_by_cycle_then_fifo() {
        let mut q: EventQueue<&str> = [(7, "c"), (2, "a"), (7, "d"), (2, "b"), (9, "e")]
            .into_iter()
            .collect();
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop_due(2), vec!["a", "b"]);
        assert_eq!(q.pop_due(u64::MAX), vec!["c", "d", "e"]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_due_on_empty_is_empty() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.pop_due(100).is_empty());
        assert!(q.is_empty());
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
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
