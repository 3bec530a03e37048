//! Point-to-point messaging.
//!
//! A [`Mailbox`] per rank holds in-flight messages. Sends are *eager*: the
//! sender deposits the message stamped with its virtual clock and moves on
//! (plus a fixed software overhead). A receive is a yield point: it is
//! `Pending` until a matching message exists (or the peer is known dead),
//! then completes at virtual time `max(post_time, arrival_time)`, where
//! arrival is the send time plus the network cost at the send instant.

use crate::death::DeathBoard;
use crate::sched::Poll;
use cluster_sim::time::VirtualTime;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::time::Duration as StdDuration;

/// Wildcard source for [`crate::Proc::recv`].
pub const ANY_SOURCE: usize = usize::MAX;
/// Wildcard tag for [`crate::Proc::recv`].
pub const ANY_TAG: i64 = i64::MIN;

/// How long a rank parked on the thread-per-rank oracle host may wait in
/// *real* time, with nothing in the world changing, before the simulation
/// declares a deadlock. Virtual time never times out.
pub(crate) const DEADLOCK_TIMEOUT: StdDuration = StdDuration::from_secs(30);

/// An in-flight message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending rank.
    pub src: usize,
    /// User tag.
    pub tag: i64,
    /// Message size in bytes (drives network cost).
    pub bytes: u64,
    /// Virtual instant the message left the sender.
    pub sent_at: VirtualTime,
    /// Virtual instant the message reaches the receiver's NIC.
    pub arrives_at: VirtualTime,
    /// Optional scalar payload (MiniHPC messages carry one value).
    pub value: i64,
}

/// What a completed receive reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvInfo {
    /// Actual source rank.
    pub src: usize,
    /// Actual tag.
    pub tag: i64,
    /// Message size.
    pub bytes: u64,
    /// Scalar payload.
    pub value: i64,
    /// Virtual completion time of the receive.
    pub completed_at: VirtualTime,
}

/// Why a receive failed to complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvError {
    /// No matching send appeared within the real-time deadlock window — in
    /// a correct program this means a peer is never going to send.
    DeadlockTimeout {
        /// Requested source ([`ANY_SOURCE`] allowed).
        src: usize,
        /// Requested tag ([`ANY_TAG`] allowed).
        tag: i64,
        /// Non-matching messages sitting in the queue at timeout.
        queued: usize,
    },
    /// The awaited peer fail-stopped without a matching send in flight
    /// (for [`ANY_SOURCE`], every possible peer is dead). The receiver
    /// learns this after the plan's virtual death-detection timeout.
    PeerDead {
        /// Requested source ([`ANY_SOURCE`] allowed).
        src: usize,
        /// Requested tag ([`ANY_TAG`] allowed).
        tag: i64,
    },
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::DeadlockTimeout { src, tag, queued } => write!(
                f,
                "simmpi deadlock: recv(src={}, tag={}) waited {:?} with no matching send \
                 ({queued} unrelated message(s) queued)",
                if *src == ANY_SOURCE {
                    "ANY".to_string()
                } else {
                    src.to_string()
                },
                if *tag == ANY_TAG {
                    "ANY".to_string()
                } else {
                    tag.to_string()
                },
                DEADLOCK_TIMEOUT,
            ),
            RecvError::PeerDead { src, tag } => write!(
                f,
                "simmpi peer death: recv(src={}, tag={}) can never complete — the peer fail-stopped",
                if *src == ANY_SOURCE {
                    "ANY".to_string()
                } else {
                    src.to_string()
                },
                if *tag == ANY_TAG {
                    "ANY".to_string()
                } else {
                    tag.to_string()
                },
            ),
        }
    }
}

impl std::error::Error for RecvError {}

/// A rank's incoming-message queue.
#[derive(Debug, Default)]
pub struct Mailbox {
    inner: Mutex<VecDeque<Message>>,
}

/// Whether a message matches a `(src, tag)` request, wildcards included.
fn matches(m: &Message, src: usize, tag: i64) -> bool {
    (src == ANY_SOURCE || m.src == src) && (tag == ANY_TAG || m.tag == tag)
}

impl Mailbox {
    /// Deposit a message.
    pub fn push(&self, msg: Message) {
        self.inner.lock().push_back(msg);
    }

    /// Resolve a receive of `(src, tag)` posted by rank `me`, without
    /// blocking. Wildcards [`ANY_SOURCE`] / [`ANY_TAG`] match anything;
    /// among multiple matches the one with the earliest `(arrives_at, src)`
    /// wins, which keeps wildcard receives as deterministic as eager
    /// delivery allows.
    ///
    /// A queued match always wins, even from a dead sender: a dying rank
    /// publishes all its pre-death sends before its `board` flag, so "flag
    /// set and no match queued" is a final verdict — `Ready(Err(PeerDead))`
    /// once the requested source (or, for [`ANY_SOURCE`], every peer of
    /// `me`) is dead. Otherwise the receive is still `Pending`.
    pub fn poll_recv(
        &self,
        src: usize,
        tag: i64,
        board: &DeathBoard,
        me: usize,
    ) -> Poll<Result<Message, RecvError>> {
        let mut q = self.inner.lock();
        let best = q
            .iter()
            .enumerate()
            .filter(|(_, m)| matches(m, src, tag))
            .min_by_key(|(_, m)| (m.arrives_at, m.src))
            .map(|(i, _)| i);
        if let Some(i) = best {
            return Poll::Ready(Ok(q.remove(i).expect("index valid under lock")));
        }
        if board.peer_gone(me, src) {
            return Poll::Ready(Err(RecvError::PeerDead { src, tag }));
        }
        Poll::Pending
    }

    /// Non-blocking peek: arrival instant of the message
    /// [`Self::poll_recv`] would return, without removing it. The event
    /// scheduler uses this to decide *when* a blocked receive can
    /// complete.
    pub fn best_arrival(&self, src: usize, tag: i64) -> Option<VirtualTime> {
        let q = self.inner.lock();
        q.iter()
            .filter(|m| matches(m, src, tag))
            .map(|m| m.arrives_at)
            .min()
    }

    /// Number of queued messages (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(src: usize, tag: i64, arrives_ns: u64) -> Message {
        Message {
            src,
            tag,
            bytes: 8,
            sent_at: VirtualTime::ZERO,
            arrives_at: VirtualTime(arrives_ns),
            value: 0,
        }
    }

    /// Resolve a receive on a world where nobody has died.
    fn take(mb: &Mailbox, src: usize, tag: i64) -> Message {
        match mb.poll_recv(src, tag, &DeathBoard::new(8), 0) {
            Poll::Ready(Ok(m)) => m,
            other => panic!("expected a queued match, got {other:?}"),
        }
    }

    #[test]
    fn exact_match_takes_only_matching() {
        let mb = Mailbox::default();
        mb.push(msg(1, 7, 100));
        mb.push(msg(2, 7, 50));
        let m = take(&mb, 1, 7);
        assert_eq!(m.src, 1);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn any_source_takes_earliest_arrival() {
        let mb = Mailbox::default();
        mb.push(msg(1, 7, 100));
        mb.push(msg(2, 7, 50));
        let m = take(&mb, ANY_SOURCE, 7);
        assert_eq!(m.src, 2);
    }

    #[test]
    fn any_tag_matches_any() {
        let mb = Mailbox::default();
        mb.push(msg(3, 42, 10));
        let m = take(&mb, 3, ANY_TAG);
        assert_eq!(m.tag, 42);
        assert!(mb.is_empty());
    }

    #[test]
    fn no_match_is_pending_while_the_peer_lives() {
        let mb = Mailbox::default();
        mb.push(msg(2, 7, 10));
        let board = DeathBoard::new(3);
        assert_eq!(mb.poll_recv(1, 7, &board, 0), Poll::Pending);
        assert_eq!(mb.best_arrival(1, 7), None);
        assert_eq!(mb.best_arrival(2, 7), Some(VirtualTime(10)));
        assert_eq!(mb.len(), 1, "a pending poll removes nothing");
    }

    #[test]
    fn recv_error_display_names_the_wildcards() {
        let e = RecvError::DeadlockTimeout {
            src: ANY_SOURCE,
            tag: 7,
            queued: 2,
        };
        let s = e.to_string();
        assert!(s.contains("src=ANY"), "{s}");
        assert!(s.contains("tag=7"), "{s}");
        assert!(s.contains("2 unrelated"), "{s}");
    }

    #[test]
    fn failstop_recv_prefers_queued_predeath_message() {
        let mb = Mailbox::default();
        let board = DeathBoard::new(4);
        board.mark_dead(1);
        // A message the peer sent before dying still completes the recv.
        mb.push(msg(1, 7, 10));
        match mb.poll_recv(1, 7, &board, 0) {
            Poll::Ready(Ok(m)) => assert_eq!(m.src, 1),
            other => panic!("queued pre-death message must win: {other:?}"),
        }
        // With the queue drained, the death is final.
        assert_eq!(
            mb.poll_recv(1, 7, &board, 0),
            Poll::Ready(Err(RecvError::PeerDead { src: 1, tag: 7 }))
        );
    }

    #[test]
    fn failstop_recv_resolves_once_the_peer_dies() {
        let mb = Mailbox::default();
        let board = DeathBoard::new(2);
        assert_eq!(mb.poll_recv(1, 0, &board, 0), Poll::Pending);
        board.mark_dead(1);
        assert_eq!(
            mb.poll_recv(1, 0, &board, 0),
            Poll::Ready(Err(RecvError::PeerDead { src: 1, tag: 0 }))
        );
    }

    #[test]
    fn any_source_fails_only_when_all_peers_dead() {
        let mb = Mailbox::default();
        let board = DeathBoard::new(3);
        board.mark_dead(1);
        // Rank 2 is still alive, so ANY_SOURCE keeps waiting...
        assert_eq!(mb.poll_recv(ANY_SOURCE, 0, &board, 0), Poll::Pending);
        // ...and completes from it.
        mb.push(msg(2, 0, 5));
        match mb.poll_recv(ANY_SOURCE, 0, &board, 0) {
            Poll::Ready(Ok(m)) => assert_eq!(m.src, 2),
            other => panic!("live peer's message must complete the recv: {other:?}"),
        }
        board.mark_dead(2);
        assert_eq!(
            mb.poll_recv(ANY_SOURCE, 0, &board, 0),
            Poll::Ready(Err(RecvError::PeerDead {
                src: ANY_SOURCE,
                tag: 0
            }))
        );
    }

    #[test]
    fn peer_dead_display_names_the_peer() {
        let e = RecvError::PeerDead { src: 3, tag: 9 };
        let s = e.to_string();
        assert!(s.contains("src=3"), "{s}");
        assert!(s.contains("fail-stopped"), "{s}");
    }

    #[test]
    fn ties_broken_by_source() {
        let mb = Mailbox::default();
        mb.push(msg(5, 1, 50));
        mb.push(msg(2, 1, 50));
        assert_eq!(take(&mb, ANY_SOURCE, 1).src, 2);
    }
}
