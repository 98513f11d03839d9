//! The [`DeliverySchedule`]: the one order in which the sequencer gathers
//! the shards' plan announcements.
//!
//! A message-passing deployment has no global plan list — each shard
//! announces its planned exchanges and the order in which the sequencer
//! gathers them decides the cycle's total plan order, which in turn fixes
//! the per-plan commit RNG streams and the conflict-free batching. The
//! runtime gathers in ascending shard order. Shards own contiguous node
//! ranges and plan their alive locals in ascending order, so the
//! concatenation is exactly the simulator's ascending-node plan order —
//! which is why a transport run is **byte-identical to the simulator** (the
//! oracle-equality the property suites pin). The paper's cycle-driven model
//! has that one order, so the schedule is a marker with nothing to choose.

/// The transport's delivery order: shard announcements gather in ascending
/// shard order, reproducing the simulator's plan order byte-for-byte (see
/// the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliverySchedule;

impl DeliverySchedule {
    /// The canonical (and only) order.
    pub fn canonical() -> Self {
        Self
    }
}
