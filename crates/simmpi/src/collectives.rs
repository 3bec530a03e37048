//! Collective operations.
//!
//! A single generation-counted rendezvous synchronizes all ranks of the
//! world communicator. Each rank registers with its virtual clock (and an
//! optional scalar contribution); once every alive member has registered,
//! the host's completion check ([`CollectiveSlot::try_complete`]) computes
//! the common exit time `max(entries) + cost(op, procs, bytes)` and the
//! reduced value, then bumps the generation so each member's
//! [`CollectiveSlot::poll_finish`] sees the result. MPI requires all ranks to call
//! collectives in the same order, which is what makes one slot per
//! communicator sufficient; the slot checks that the op/byte arguments of
//! all ranks agree and reports disagreement as a typed
//! [`CollectiveError::Mismatch`] to *every* member (the slot is poisoned),
//! so one rank's bug surfaces as an error on each rank instead of a hang
//! or a single-rank abort.
//!
//! Fail-stop deaths shrink the membership: a collective completes once
//! every *alive* member has entered (ULFM-style), charging the plan's
//! death-detection timeout on top of the normal cost whenever members are
//! missing, and reporting how many were missing in the result. Survivors
//! therefore keep making progress — and keep emitting telemetry — after a
//! peer dies, which is exactly what lets the analysis side localize the
//! death.

use cluster_sim::network::CollectiveOp;
use cluster_sim::time::VirtualTime;
use cluster_sim::Cluster;
use parking_lot::Mutex;
use std::fmt;

use crate::death::DeathBoard;
use crate::p2p::DEADLOCK_TIMEOUT;

/// Reduction operators for `reduce`/`allreduce`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Minimum contribution.
    Min,
    /// Maximum contribution.
    Max,
}

impl ReduceOp {
    fn identity(self) -> i64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => i64::MAX,
            ReduceOp::Max => i64::MIN,
        }
    }

    fn fold(self, a: i64, b: i64) -> i64 {
        match self {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// What one rank passes into a collective.
#[derive(Clone, Copy, Debug)]
pub struct CollectiveEntry {
    /// The operation; must agree across ranks.
    pub op: CollectiveOp,
    /// Per-rank byte count; must agree across ranks.
    pub bytes: u64,
    /// Caller's virtual clock on entry.
    pub at: VirtualTime,
    /// Scalar contribution (reductions and bcast payloads).
    pub value: i64,
    /// Reduction operator (ignored for non-reductions).
    pub rop: ReduceOp,
    /// Whether this rank's `value` is the broadcast payload (root).
    pub is_root: bool,
}

/// Why a collective could not complete normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollectiveError {
    /// Ranks disagreed on the operation or byte count. The slot is
    /// poisoned: every current and future member sees this same error.
    Mismatch {
        /// Operation the first arriver declared.
        expected_op: CollectiveOp,
        /// Operation the disagreeing rank passed.
        got_op: CollectiveOp,
        /// Byte count the first arriver declared.
        expected_bytes: u64,
        /// Byte count the disagreeing rank passed.
        got_bytes: u64,
    },
    /// The real-time deadlock window expired with live members missing —
    /// in a correct program this means some rank never calls in.
    Deadlock {
        /// The operation being waited on.
        op: CollectiveOp,
        /// Members that had arrived at timeout.
        arrived: usize,
        /// Total membership of the communicator.
        procs: usize,
    },
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Mismatch {
                expected_op,
                got_op,
                expected_bytes,
                got_bytes,
            } => write!(
                f,
                "collective mismatch: ranks disagree ({expected_op:?}/{expected_bytes}B vs \
                 {got_op:?}/{got_bytes}B)"
            ),
            CollectiveError::Deadlock { op, arrived, procs } => write!(
                f,
                "simmpi deadlock: collective {op:?} waited {DEADLOCK_TIMEOUT:?} with \
                 {arrived}/{procs} ranks arrived"
            ),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// The shared rendezvous state.
#[derive(Debug)]
pub struct CollectiveSlot {
    state: Mutex<SlotState>,
    procs: usize,
    /// World ranks belonging to this communicator (used to count alive
    /// members against the death board).
    members: Vec<usize>,
}

#[derive(Debug)]
struct SlotState {
    generation: u64,
    arrived: usize,
    op: Option<CollectiveOp>,
    bytes: u64,
    max_entry: VirtualTime,
    acc: i64,
    rop: ReduceOp,
    bcast_val: i64,
    /// Alive members as of the last death-log drain. Maintained by delta
    /// ([`DeathBoard::deaths_since`]) instead of rescanning `members`, so
    /// checking "has everyone alive arrived?" is O(1) + O(new deaths).
    alive: usize,
    /// Cursor into the death board's log; deaths at positions ≥ this have
    /// not yet been folded into `alive`.
    deaths_seen: usize,
    // Results of the previous generation, read by released waiters.
    done_exit: VirtualTime,
    done_value: i64,
    done_missing: u32,
    // A mismatch poisons the slot for every current and future member.
    poisoned: Option<CollectiveError>,
}

/// A completed collective: common exit time plus the combined value
/// (reduction result, or the root's payload for bcast).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollectiveResult {
    /// Virtual instant every rank leaves the collective.
    pub exit: VirtualTime,
    /// Combined scalar value.
    pub value: i64,
    /// Members that were dead and did not participate (0 for a full
    /// rendezvous). Their contributions are simply absent from `value`.
    pub missing: u32,
}

impl CollectiveSlot {
    /// Create a slot for the world communicator's first `procs` ranks.
    pub fn new(procs: usize) -> Self {
        Self::with_members((0..procs).collect())
    }

    /// Create a slot for an explicit member list (sub-communicators). The
    /// list must be sorted ascending (world and split communicators both
    /// are); the death-log fold binary-searches it.
    pub fn with_members(members: Vec<usize>) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        CollectiveSlot {
            state: Mutex::new(SlotState {
                generation: 0,
                arrived: 0,
                op: None,
                bytes: 0,
                max_entry: VirtualTime::ZERO,
                acc: 0,
                rop: ReduceOp::Sum,
                bcast_val: 0,
                // Start from "all alive" with the log cursor at zero: the
                // first drain folds in any deaths that predate this slot
                // (sub-communicators are created lazily, possibly after
                // ranks have already died).
                alive: members.len(),
                deaths_seen: 0,
                done_exit: VirtualTime::ZERO,
                done_value: 0,
                done_missing: 0,
                poisoned: None,
            }),
            procs: members.len(),
            members,
        }
    }

    /// Current alive-member count, folding any deaths logged since the
    /// last call into the slot's counter. Replaces the old O(members)
    /// flag scan: the no-new-deaths fast path is one atomic load, and a
    /// death costs one binary search per open slot instead of a rescan of
    /// every member of every slot.
    fn alive_now(&self, st: &mut SlotState, board: &DeathBoard) -> usize {
        let mut alive = st.alive;
        let seen = board.deaths_since(st.deaths_seen, |dead| {
            if self.members.binary_search(&dead).is_ok() {
                alive -= 1;
            }
        });
        st.alive = alive;
        st.deaths_seen = seen;
        alive.max(1)
    }

    /// Register for the collective without blocking. The rendezvous is
    /// *never* completed inline — even the last arriver yields back to the
    /// host, which completes touched slots via [`Self::try_complete`]
    /// (the event scheduler once the whole dispatch phase has committed).
    /// Inline completion would release waiters before same-instant peers
    /// have registered their waits, stranding them. Returns the generation
    /// joined; poll [`Self::poll_finish`] with it.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Mismatch`] if ranks disagree on the operation or
    /// byte count. The slot poisons, so every current and future member
    /// gets the same error.
    pub fn poll_register(&self, entry: CollectiveEntry) -> Result<u64, CollectiveError> {
        let mut st = self.state.lock();
        if let Some(e) = &st.poisoned {
            return Err(e.clone());
        }
        let my_gen = st.generation;
        if st.arrived == 0 {
            st.op = Some(entry.op);
            st.bytes = entry.bytes;
            st.rop = entry.rop;
            st.acc = entry.rop.identity();
            st.max_entry = VirtualTime::ZERO;
        } else if st.op != Some(entry.op) || st.bytes != entry.bytes {
            let err = CollectiveError::Mismatch {
                expected_op: st.op.expect("first arriver set the op"),
                got_op: entry.op,
                expected_bytes: st.bytes,
                got_bytes: entry.bytes,
            };
            st.poisoned = Some(err.clone());
            return Err(err);
        }
        st.arrived += 1;
        st.max_entry = st.max_entry.max(entry.at);
        let rop = st.rop;
        st.acc = rop.fold(st.acc, entry.value);
        if entry.is_root {
            st.bcast_val = entry.value;
        }
        Ok(my_gen)
    }

    /// Check whether the generation joined via [`Self::poll_register`] has
    /// completed (some later arriver or a death finished it). `None` means
    /// still pending.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::Mismatch`] if the slot was poisoned meanwhile.
    pub fn poll_finish(&self, gen: u64) -> Result<Option<CollectiveResult>, CollectiveError> {
        let st = self.state.lock();
        if let Some(e) = &st.poisoned {
            return Err(e.clone());
        }
        Ok((st.generation != gen).then(|| st.done_result()))
    }

    /// Completion check: if the open generation now has every *alive*
    /// member registered, complete it and return the result so waiters can
    /// be released at its exit time. Dead members shrink the rendezvous:
    /// the result reports them as `missing` and the exit time includes the
    /// fault plan's death-detection timeout. The event scheduler's control
    /// plane calls this at the end of each dispatch phase for every slot
    /// touched by a registration, and for every open slot after a death;
    /// a parked oracle rank calls it for the slot it waits on. The check is
    /// O(1) amortized: a counter compare, plus a death-log delta fold.
    ///
    /// Ranks waiting in a collective cannot die (deaths fire from a rank's
    /// own code), so every arrival this generation is from a live member:
    /// `arrived == alive` means all alive members are in.
    pub fn try_complete(&self, cluster: &Cluster, board: &DeathBoard) -> Option<CollectiveResult> {
        let mut st = self.state.lock();
        if st.poisoned.is_some() || st.arrived == 0 {
            return None;
        }
        if st.arrived < self.alive_now(&mut st, board) {
            return None;
        }
        let op = st.op.expect("op set while generation open");
        let missing = (self.procs - st.arrived) as u32;
        let mut cost = cluster.collective_cost(op, st.arrived, st.bytes, st.max_entry);
        if missing > 0 {
            cost += cluster.faults().death_timeout();
        }
        st.done_exit = st.max_entry + cost;
        st.done_value = match op {
            CollectiveOp::Bcast => st.bcast_val,
            _ => st.acc,
        };
        st.done_missing = missing;
        st.arrived = 0;
        st.generation += 1;
        Some(st.done_result())
    }

    /// The typed error for a member that waited out the real-time deadlock
    /// window on `op` with live members missing.
    pub fn deadlock(&self, op: CollectiveOp) -> CollectiveError {
        CollectiveError::Deadlock {
            op,
            arrived: self.state.lock().arrived,
            procs: self.procs,
        }
    }
}

impl SlotState {
    fn done_result(&self) -> CollectiveResult {
        CollectiveResult {
            exit: self.done_exit,
            value: self.done_value,
            missing: self.done_missing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::ClusterConfig;

    fn entry(op: CollectiveOp, at_ns: u64, value: i64) -> CollectiveEntry {
        CollectiveEntry {
            op,
            bytes: 0,
            at: VirtualTime(at_ns),
            value,
            rop: ReduceOp::Sum,
            is_root: false,
        }
    }

    /// One generation on the poll path, the way a host drives it: every
    /// member registers, the host runs the completion check, and each
    /// member polls its generation. Each rank's `Result` is kept (not
    /// unwrapped), so one rank's error never hides the others'.
    fn poll_generation(
        slot: &CollectiveSlot,
        cluster: &Cluster,
        board: &DeathBoard,
        entries: Vec<CollectiveEntry>,
    ) -> Vec<Result<CollectiveResult, CollectiveError>> {
        let gens: Vec<_> = entries.into_iter().map(|e| slot.poll_register(e)).collect();
        let _ = slot.try_complete(cluster, board);
        gens.into_iter()
            .map(|g| {
                g.and_then(|gen| slot.poll_finish(gen))
                    .map(|done| done.expect("every alive member registered"))
            })
            .collect()
    }

    fn try_run_collective(
        procs: usize,
        entries: Vec<CollectiveEntry>,
        board: &DeathBoard,
    ) -> Vec<Result<CollectiveResult, CollectiveError>> {
        let cluster = ClusterConfig::quiet(procs).build();
        poll_generation(&CollectiveSlot::new(procs), &cluster, board, entries)
    }

    fn run_collective(procs: usize, entries: Vec<CollectiveEntry>) -> Vec<CollectiveResult> {
        let board = DeathBoard::new(procs);
        try_run_collective(procs, entries, &board)
            .into_iter()
            .map(|r| r.expect("collective completed"))
            .collect()
    }

    #[test]
    fn barrier_synchronizes_to_max_plus_cost() {
        let rs = run_collective(
            4,
            (0..4)
                .map(|i| entry(CollectiveOp::Barrier, (i as u64 + 1) * 1000, 0))
                .collect(),
        );
        assert!(rs.iter().all(|r| r.exit == rs[0].exit));
        assert!(rs[0].exit > VirtualTime(4000), "exit after last entry");
    }

    #[test]
    fn allreduce_sums_contributions() {
        let rs = run_collective(
            3,
            vec![
                entry(CollectiveOp::Allreduce, 0, 5),
                entry(CollectiveOp::Allreduce, 0, 7),
                entry(CollectiveOp::Allreduce, 0, 8),
            ],
        );
        assert!(rs.iter().all(|r| r.value == 20));
    }

    #[test]
    fn reduce_min_max() {
        for (rop, expect) in [(ReduceOp::Min, 2), (ReduceOp::Max, 9)] {
            let entries = [2i64, 9, 4]
                .iter()
                .map(|&v| CollectiveEntry {
                    op: CollectiveOp::Allreduce,
                    bytes: 0,
                    at: VirtualTime::ZERO,
                    value: v,
                    rop,
                    is_root: false,
                })
                .collect();
            let rs = run_collective(3, entries);
            assert!(rs.iter().all(|r| r.value == expect));
        }
    }

    #[test]
    fn bcast_delivers_root_value() {
        let mut entries: Vec<CollectiveEntry> =
            (0..4).map(|_| entry(CollectiveOp::Bcast, 0, -1)).collect();
        entries[2].value = 42;
        entries[2].is_root = true;
        let rs = run_collective(4, entries);
        assert!(rs.iter().all(|r| r.value == 42));
    }

    #[test]
    fn slot_is_reusable_across_generations() {
        let procs = 3;
        let cluster = ClusterConfig::quiet(procs).build();
        let board = DeathBoard::new(procs);
        let slot = CollectiveSlot::new(procs);
        for round in 0..10 {
            let rs = poll_generation(
                &slot,
                &cluster,
                &board,
                (0..procs)
                    .map(|r| entry(CollectiveOp::Allreduce, 0, (r + round) as i64))
                    .collect(),
            );
            let expect: i64 = (0..procs as i64).map(|r| r + round as i64).sum();
            for r in rs {
                assert_eq!(r.expect("collective completed").value, expect);
            }
        }
    }

    #[test]
    fn completion_waits_for_every_alive_member() {
        let cluster = ClusterConfig::quiet(3).build();
        let board = DeathBoard::new(3);
        let slot = CollectiveSlot::new(3);
        let gen = slot
            .poll_register(entry(CollectiveOp::Barrier, 0, 0))
            .unwrap();
        slot.poll_register(entry(CollectiveOp::Barrier, 0, 0))
            .unwrap();
        assert_eq!(slot.try_complete(&cluster, &board), None);
        assert_eq!(slot.poll_finish(gen), Ok(None), "still pending");
        assert!(matches!(
            slot.deadlock(CollectiveOp::Barrier),
            CollectiveError::Deadlock {
                arrived: 2,
                procs: 3,
                ..
            }
        ));
    }

    #[test]
    fn dead_member_shrinks_the_rendezvous() {
        let board = DeathBoard::new(4);
        board.mark_dead(3);
        let rs = try_run_collective(
            4,
            (0..3)
                .map(|i| entry(CollectiveOp::Allreduce, 1000, 10 + i))
                .collect(),
            &board,
        );
        for r in &rs {
            let r = r.as_ref().expect("shrunk collective completes");
            assert_eq!(r.missing, 1, "one dead member absent");
            assert_eq!(r.value, 33, "dead member contributes nothing");
        }
        // The shrunk rendezvous pays the death-detection timeout on top of
        // the normal cost, so it exits later than a healthy 3-rank one.
        let healthy = run_collective(
            3,
            (0..3)
                .map(|i| entry(CollectiveOp::Allreduce, 1000, 10 + i))
                .collect(),
        );
        assert!(rs[0].as_ref().unwrap().exit > healthy[0].exit);
    }

    #[test]
    fn death_mid_wait_releases_blocked_members() {
        // Ranks 0 and 1 register; rank 2 dies *after* they are already
        // waiting. The next completion check must fold the death in.
        let procs = 3;
        let cluster = ClusterConfig::quiet(procs).build();
        let board = DeathBoard::new(procs);
        let slot = CollectiveSlot::new(procs);
        let gens: Vec<u64> = (0..2)
            .map(|i| {
                slot.poll_register(entry(CollectiveOp::Barrier, 500, i))
                    .unwrap()
            })
            .collect();
        assert_eq!(slot.try_complete(&cluster, &board), None);
        board.mark_dead(2);
        let done = slot
            .try_complete(&cluster, &board)
            .expect("released by death");
        assert_eq!(done.missing, 1);
        for gen in gens {
            assert_eq!(slot.poll_finish(gen), Ok(Some(done)));
        }
    }

    #[test]
    fn mismatch_poisons_every_member() {
        let board = DeathBoard::new(3);
        let rs = try_run_collective(
            3,
            vec![
                entry(CollectiveOp::Barrier, 0, 0),
                entry(CollectiveOp::Barrier, 0, 0),
                entry(CollectiveOp::Allreduce, 0, 0),
            ],
            &board,
        );
        assert!(
            rs.iter()
                .all(|r| matches!(r, Err(CollectiveError::Mismatch { .. }))),
            "every rank sees the same typed mismatch error: {rs:?}"
        );
    }

    #[test]
    fn poisoned_slot_rejects_late_arrivals() {
        let cluster = ClusterConfig::quiet(2).build();
        let board = DeathBoard::new(2);
        let slot = CollectiveSlot::new(2);
        let poison = poll_generation(
            &slot,
            &cluster,
            &board,
            vec![
                entry(CollectiveOp::Barrier, 0, 0),
                entry(CollectiveOp::Bcast, 0, 0),
            ],
        );
        assert!(poison.iter().all(Result::is_err));
        // A later generation never starts: the poison is sticky.
        let late = slot.poll_register(entry(CollectiveOp::Barrier, 0, 0));
        assert!(matches!(late, Err(CollectiveError::Mismatch { .. })));
        assert_eq!(slot.try_complete(&cluster, &board), None);
    }

    #[test]
    fn mismatch_error_names_both_sides() {
        let e = CollectiveError::Mismatch {
            expected_op: CollectiveOp::Barrier,
            got_op: CollectiveOp::Allreduce,
            expected_bytes: 0,
            got_bytes: 8,
        };
        let msg = e.to_string();
        assert!(
            msg.contains("Barrier") && msg.contains("Allreduce"),
            "{msg}"
        );
    }
}
