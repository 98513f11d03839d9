//! The message-passing substrate: mailboxes, and the [`Transport`] that
//! mints them.
//!
//! Every sequencer↔actor link is a mailbox pair minted by the in-process
//! backend ([`InProcess`], `std::sync::mpsc` under the hood); the actors
//! see only the [`MailboxSender`] / [`MailboxReceiver`] halves. The runtime
//! is not generic over the backend while it has one; a second
//! [`Transport`] (sockets) would come with that type parameter. The
//! contract a backend honours is deliberately minimal and is exactly what
//! the determinism argument leans on:
//!
//! * **FIFO per mailbox** — messages sent through one [`MailboxSender`]
//!   arrive in send order. The runtime gives every actor a single sender
//!   (the sequencer), so per-actor delivery order equals the sequencer's
//!   send order and no acknowledgement round-trips are needed.
//! * **Reliable, unbounded send** — [`MailboxSender::send`] only fails when
//!   the receiving end is gone (an actor died). Lossy delivery is modelled
//!   *above* the transport by the fault layer ([`p3q_sim::FaultPlan`]),
//!   never by the channel.

use std::sync::mpsc;

/// Error of a send or receive on a mailbox whose other end has hung up.
///
/// Under the runtime's protocol an actor only hangs up by panicking (or by
/// being stopped at the end of a drive), so the sequencer treats this as
/// fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxClosed;

impl std::fmt::Display for MailboxClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the mailbox's other endpoint is gone")
    }
}

impl std::error::Error for MailboxClosed {}

/// The sending half of a mailbox.
pub trait MailboxSender<M: Send>: Send {
    /// Enqueues one message; never blocks. Fails only if the receiving half
    /// was dropped.
    fn send(&self, msg: M) -> Result<(), MailboxClosed>;
}

/// The receiving half of a mailbox.
pub trait MailboxReceiver<M: Send>: Send {
    /// Blocks until a message arrives. Fails only if every sender was
    /// dropped.
    fn recv(&self) -> Result<M, MailboxClosed>;
}

/// A message-passing backend: a factory for typed point-to-point mailboxes.
///
/// The runtime requests two mailboxes per shard actor (commands in, replies
/// out). Backends are free to multiplex them over anything — threads and
/// `mpsc` here, sockets elsewhere — as long as each mailbox is FIFO and
/// reliable (see the module docs).
pub trait Transport {
    /// Sender type minted by [`Self::mailbox`].
    type Sender<M: Send>: MailboxSender<M>;
    /// Receiver type minted by [`Self::mailbox`].
    type Receiver<M: Send>: MailboxReceiver<M>;

    /// Creates one FIFO mailbox: a connected sender/receiver pair.
    fn mailbox<M: Send>(&mut self) -> (Self::Sender<M>, Self::Receiver<M>);
}

/// The in-process backend: one `std::sync::mpsc` channel per mailbox.
///
/// This is the only backend; the runtime mints every mailbox through it,
/// and it is what the oracle-equality suites pin against the simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

impl<M: Send> MailboxSender<M> for mpsc::Sender<M> {
    fn send(&self, msg: M) -> Result<(), MailboxClosed> {
        mpsc::Sender::send(self, msg).map_err(|_| MailboxClosed)
    }
}

impl<M: Send> MailboxReceiver<M> for mpsc::Receiver<M> {
    fn recv(&self) -> Result<M, MailboxClosed> {
        mpsc::Receiver::recv(self).map_err(|_| MailboxClosed)
    }
}

impl Transport for InProcess {
    type Sender<M: Send> = mpsc::Sender<M>;
    type Receiver<M: Send> = mpsc::Receiver<M>;

    fn mailbox<M: Send>(&mut self) -> (Self::Sender<M>, Self::Receiver<M>) {
        mpsc::channel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_mailboxes_are_fifo() {
        let mut t = InProcess;
        let (tx, rx) = t.mailbox::<u32>();
        for v in 0..10 {
            tx.send(v).unwrap();
        }
        for v in 0..10 {
            assert_eq!(rx.recv().unwrap(), v);
        }
    }

    #[test]
    fn dropping_the_receiver_closes_the_sender() {
        let mut t = InProcess;
        let (tx, rx) = t.mailbox::<u32>();
        drop(rx);
        assert_eq!(MailboxSender::send(&tx, 1), Err(MailboxClosed));
    }

    #[test]
    fn dropping_the_sender_closes_the_receiver() {
        let mut t = InProcess;
        let (tx, rx) = t.mailbox::<u32>();
        MailboxSender::send(&tx, 7).unwrap();
        drop(tx);
        assert_eq!(MailboxReceiver::recv(&rx), Ok(7));
        assert_eq!(MailboxReceiver::recv(&rx), Err(MailboxClosed));
    }
}
