//! Fail-stop rank deaths.
//!
//! A rank scheduled to die by the cluster's [`cluster_sim::FaultPlan`]
//! halts at its death instant: the [`crate::Proc`] raises a
//! [`DeathUnwind`] panic payload the moment an operation would start at or
//! after the death time, freezing its clock and charging no further work.
//! The harness driving the rank catches it with [`catch_death`] and turns
//! the unwind into a normal "this rank died" outcome.
//!
//! Survivors must never hang on a dead peer. The [`DeathBoard`] is the
//! world's shared failure detector: a dying rank marks itself dead after
//! all its pre-death sends and collective arrivals have been published, so
//! observing the flag implies no further traffic is coming. Whoever hosts
//! the ranks then re-examines every pending receive and rendezvous against
//! the new membership: the event scheduler's control plane at the end of
//! the phase, or the parked ranks themselves on the thread-per-rank oracle
//! host, which the death wakes.

use cluster_sim::time::VirtualTime;
use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;

/// Panic payload raised when a rank reaches its fail-stop instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeathUnwind {
    /// The rank that died.
    pub rank: usize,
    /// The scheduled virtual death instant.
    pub at: VirtualTime,
}

/// Run `f`, converting a [`DeathUnwind`] panic into `Err(death)`. Any
/// other panic is resumed unchanged.
pub fn catch_death<R>(f: impl FnOnce() -> R) -> Result<R, DeathUnwind> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<DeathUnwind>() {
            Ok(death) => Err(*death),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// Inspect a join-handle panic payload for a [`DeathUnwind`].
pub(crate) fn death_in_payload(payload: &(dyn Any + Send)) -> Option<DeathUnwind> {
    payload.downcast_ref::<DeathUnwind>().copied()
}

/// Keep the global panic hook from printing a backtrace for the
/// deliberate [`DeathUnwind`] control-flow unwind (it is always either
/// caught by [`catch_death`] or relabelled by the world's join handler).
/// Every other payload still reaches whatever hook was installed before.
pub(crate) fn silence_death_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<DeathUnwind>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Shared liveness flags, one per world rank. Flags only ever go from
/// alive to dead; publication order (all pre-death effects first, then the
/// flag, then wake-ups) makes "flag set and no matching state" a
/// deterministic verdict for waiters.
#[derive(Debug)]
pub struct DeathBoard {
    flags: Vec<AtomicBool>,
    /// Append-only log of dead ranks, in the order their flags flipped.
    /// Consumers keep a cursor into this log and fold only the *new*
    /// deaths into local alive counters ([`Self::deaths_since`]), turning
    /// "how many members are still alive" from an O(members) rescan into
    /// an O(deaths delta) update.
    log: Mutex<Vec<usize>>,
    /// Published length of `log`; lets cursors test "anything new?"
    /// without taking the lock.
    log_len: AtomicUsize,
}

impl DeathBoard {
    /// A board with every rank alive.
    pub fn new(ranks: usize) -> Self {
        DeathBoard {
            flags: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            log: Mutex::new(Vec::new()),
            log_len: AtomicUsize::new(0),
        }
    }

    /// Mark `rank` dead. Idempotent: only the first call appends to the
    /// death log, so counters folding the log never double-count.
    pub fn mark_dead(&self, rank: usize) {
        if let Some(f) = self.flags.get(rank) {
            if f.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let mut log = self.log.lock();
                log.push(rank);
                self.log_len.store(log.len(), Ordering::SeqCst);
            }
        }
    }

    /// Feed every death recorded after log position `cursor` to `f` and
    /// return the new cursor. The fast path (no new deaths) is a single
    /// atomic load.
    pub fn deaths_since(&self, cursor: usize, mut f: impl FnMut(usize)) -> usize {
        if self.log_len.load(Ordering::SeqCst) == cursor {
            return cursor;
        }
        let log = self.log.lock();
        for &r in &log[cursor..] {
            f(r);
        }
        log.len()
    }

    /// Whether `rank` has fail-stopped.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.flags
            .get(rank)
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Number of dead ranks among `members`.
    pub fn dead_among(&self, members: impl IntoIterator<Item = usize>) -> usize {
        members.into_iter().filter(|&r| self.is_dead(r)).count()
    }

    /// Whether every rank except `rank` is dead.
    pub fn all_peers_dead(&self, rank: usize) -> bool {
        self.flags
            .iter()
            .enumerate()
            .all(|(r, f)| r == rank || f.load(Ordering::SeqCst))
    }

    /// Whether the sender a receive by `me` waits on is gone for good:
    /// `src` is dead, or — for [`crate::ANY_SOURCE`] — every peer is.
    pub fn peer_gone(&self, me: usize, src: usize) -> bool {
        if src == crate::ANY_SOURCE {
            self.all_peers_dead(me)
        } else {
            self.is_dead(src)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_death_extracts_the_marker() {
        let out = catch_death(|| -> u32 {
            std::panic::panic_any(DeathUnwind {
                rank: 3,
                at: VirtualTime::from_secs(2),
            })
        });
        assert_eq!(
            out,
            Err(DeathUnwind {
                rank: 3,
                at: VirtualTime::from_secs(2)
            })
        );
        assert_eq!(catch_death(|| 7), Ok(7));
    }

    #[test]
    fn unrelated_panics_pass_through() {
        let out = std::panic::catch_unwind(|| catch_death(|| -> u32 { panic!("real bug") }));
        assert!(out.is_err(), "non-death panic must keep unwinding");
    }

    #[test]
    fn board_tracks_membership() {
        let b = DeathBoard::new(4);
        assert!(!b.is_dead(1));
        b.mark_dead(1);
        b.mark_dead(3);
        assert!(b.is_dead(1));
        assert_eq!(b.dead_among(0..4), 2);
        assert!(!b.all_peers_dead(0));
        b.mark_dead(2);
        assert!(b.all_peers_dead(0));
    }

    #[test]
    fn death_log_is_idempotent_and_cursored() {
        let b = DeathBoard::new(8);
        b.mark_dead(5);
        b.mark_dead(5); // duplicate: must not re-log
        b.mark_dead(2);
        let mut seen = Vec::new();
        let cur = b.deaths_since(0, |r| seen.push(r));
        assert_eq!(seen, vec![5, 2]);
        assert_eq!(cur, 2);
        // Nothing new: cursor unchanged, no callbacks.
        let cur2 = b.deaths_since(cur, |_| panic!("no new deaths"));
        assert_eq!(cur2, 2);
        b.mark_dead(7);
        let mut tail = Vec::new();
        assert_eq!(b.deaths_since(cur2, |r| tail.push(r)), 3);
        assert_eq!(tail, vec![7]);
    }
}
