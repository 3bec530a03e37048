//! Sub-communicators (`MPI_Comm_split`).
//!
//! Codes like FT perform transposes inside row/column communicators.
//! `split(color)` is a collective over the world: every rank contributes a
//! color, ranks sharing a color form a new [`Comm`] with dense local
//! indices in world-rank order. Collectives on a sub-communicator
//! synchronize only its members and use the member count in the cost
//! model. Communicator IDs are assigned deterministically (same split
//! sequence → same IDs on every rank), so repeated splits are safe.

use crate::collectives::CollectiveSlot;
use cluster_sim::network::CollectiveOp;
use cluster_sim::time::VirtualTime;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A communicator: a subset of world ranks with local indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comm {
    /// World-unique communicator ID.
    pub(crate) id: u64,
    /// Member world ranks, ascending.
    pub(crate) members: Vec<usize>,
    /// This rank's index within `members`.
    pub(crate) my_index: usize,
}

impl Comm {
    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator.
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Translate a communicator-local index to a world rank.
    pub fn world_rank(&self, local: usize) -> usize {
        self.members[local]
    }

    /// The member world ranks.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// World-unique communicator ID.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Rendezvous state for `split` plus the dynamic collective slots of the
/// communicators it creates.
pub(crate) struct CommRegistry {
    split: Mutex<SplitInner>,
    procs: usize,
    slots: Mutex<HashMap<u64, Arc<CollectiveSlot>>>,
}

struct SplitInner {
    generation: u64,
    arrived: usize,
    colors: Vec<i64>,
    max_entry: VirtualTime,
    // Results of the previous generation.
    done_colors: Vec<i64>,
    done_base_id: u64,
    done_exit: VirtualTime,
    next_comm_id: u64,
}

impl SplitInner {
    /// Reconstruct `rank`'s communicator from the published colors of the
    /// completed generation.
    fn done_comm(&self, rank: usize, procs: usize) -> (Comm, VirtualTime) {
        let my_color = self.done_colors[rank];
        let members: Vec<usize> = (0..procs)
            .filter(|&r| self.done_colors[r] == my_color)
            .collect();
        let my_index = members
            .iter()
            .position(|&r| r == rank)
            .expect("rank is in its own group");
        let mut distinct: Vec<i64> = self.done_colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let color_index = distinct
            .iter()
            .position(|&c| c == my_color)
            .expect("color present") as u64;
        (
            Comm {
                id: self.done_base_id + color_index,
                members,
                my_index,
            },
            self.done_exit,
        )
    }
}

impl CommRegistry {
    pub(crate) fn new(procs: usize) -> Self {
        CommRegistry {
            split: Mutex::new(SplitInner {
                generation: 0,
                arrived: 0,
                colors: vec![0; procs],
                max_entry: VirtualTime::ZERO,
                done_colors: Vec::new(),
                done_base_id: 0,
                done_exit: VirtualTime::ZERO,
                // ID 0 is reserved for the world communicator.
                next_comm_id: 1,
            }),
            procs,
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Register for the split without blocking. Never completes inline —
    /// every member (including the last arriver) yields to the host, which
    /// completes the rendezvous via [`Self::try_complete_split`] (the event
    /// scheduler once the dispatch phase has committed). Returns the
    /// generation joined; poll [`Self::poll_split_finish`] with it.
    pub(crate) fn poll_split_register(&self, rank: usize, color: i64, at: VirtualTime) -> u64 {
        let mut st = self.split.lock();
        let my_gen = st.generation;
        if st.arrived == 0 {
            st.max_entry = VirtualTime::ZERO;
        }
        st.colors[rank] = color;
        st.arrived += 1;
        st.max_entry = st.max_entry.max(at);
        my_gen
    }

    /// Completion check for the split rendezvous: completes when every
    /// rank has registered, returning the common exit instant so waiters
    /// can be released. Split is documented as pre-death-only, so the
    /// requirement is the full world.
    pub(crate) fn try_complete_split(&self, cluster: &cluster_sim::Cluster) -> Option<VirtualTime> {
        let mut st = self.split.lock();
        if st.arrived == 0 || st.arrived < self.procs {
            return None;
        }
        let cost = cluster.collective_cost(CollectiveOp::Barrier, self.procs, 0, st.max_entry);
        st.done_exit = st.max_entry + cost;
        st.done_colors = st.colors.clone();
        st.done_base_id = st.next_comm_id;
        // Advance the ID space by the number of distinct colors.
        let mut distinct: Vec<i64> = st.done_colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        st.next_comm_id += distinct.len() as u64;
        st.arrived = 0;
        st.generation += 1;
        Some(st.done_exit)
    }

    /// How many ranks had registered for the open split generation — for
    /// the oracle host's deadlock diagnosis.
    pub(crate) fn split_arrived(&self) -> usize {
        self.split.lock().arrived
    }

    /// Check whether the split generation joined via
    /// [`Self::poll_split_register`] has completed. `None` = still pending.
    pub(crate) fn poll_split_finish(&self, rank: usize, gen: u64) -> Option<(Comm, VirtualTime)> {
        let st = self.split.lock();
        (st.generation != gen).then(|| st.done_comm(rank, self.procs))
    }

    /// The collective slot for a communicator (created on first use). The
    /// slot knows its member world ranks, so sub-communicator collectives
    /// shrink correctly when a member fail-stops.
    pub(crate) fn slot(&self, comm: &Comm) -> Arc<CollectiveSlot> {
        let mut slots = self.slots.lock();
        slots
            .entry(comm.id)
            .or_insert_with(|| Arc::new(CollectiveSlot::with_members(comm.members.clone())))
            .clone()
    }

    /// Look up a communicator's slot by ID without creating it (completion
    /// checks route by ID).
    pub(crate) fn slot_by_id(&self, id: u64) -> Option<Arc<CollectiveSlot>> {
        self.slots.lock().get(&id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use crate::{ReduceOp, World};
    use cluster_sim::ClusterConfig;
    use std::sync::Arc;

    fn quiet_world(ranks: usize) -> World {
        World::new(Arc::new(ClusterConfig::quiet(ranks).build()))
    }

    #[test]
    fn split_forms_expected_groups() {
        let w = quiet_world(6);
        let infos = w.run(|p| {
            let comm = p.block_on(|p| p.split((p.rank() % 2) as i64));
            (comm.size(), comm.rank(), comm.members().to_vec())
        });
        // Even ranks form {0,2,4}, odd {1,3,5}.
        assert_eq!(infos[0], (3, 0, vec![0, 2, 4]));
        assert_eq!(infos[2], (3, 1, vec![0, 2, 4]));
        assert_eq!(infos[1], (3, 0, vec![1, 3, 5]));
        assert_eq!(infos[5], (3, 2, vec![1, 3, 5]));
    }

    #[test]
    fn subcomm_allreduce_sums_only_members() {
        let w = quiet_world(6);
        let sums = w.run(|p| {
            let comm = p.block_on(|p| p.split((p.rank() % 2) as i64));
            p.block_on(|p| p.comm_allreduce(&comm, 8, p.rank() as i64, ReduceOp::Sum))
        });
        assert_eq!(sums, vec![6, 9, 6, 9, 6, 9]); // 0+2+4 and 1+3+5
    }

    #[test]
    fn subcomm_barrier_synchronizes_members_only() {
        let w = quiet_world(4);
        let ends = w.run(|p| {
            let comm = p.block_on(|p| p.split((p.rank() / 2) as i64));
            // One member of each group computes longer.
            if p.rank() % 2 == 0 {
                p.compute(cluster_sim::node::Work::cpu(100_000), 0.0);
            }
            p.block_on(|p| p.comm_barrier(&comm));
            p.now()
        });
        assert_eq!(ends[0], ends[1], "group {{0,1}} aligned");
        assert_eq!(ends[2], ends[3], "group {{2,3}} aligned");
    }

    #[test]
    fn repeated_splits_get_distinct_ids() {
        let w = quiet_world(4);
        let ids = w.run(|p| {
            let a = p.block_on(|p| p.split(0)); // everyone together
            let b = p.block_on(|p| p.split((p.rank() % 2) as i64));
            let c = p.block_on(|p| p.split(0));
            (a.id(), b.id(), c.id())
        });
        // All ranks agree on each split's IDs, and IDs never repeat.
        assert!(ids.iter().all(|&(a, _, _)| a == ids[0].0));
        assert!(ids.iter().all(|&(_, _, c)| c == ids[0].2));
        assert_ne!(ids[0].0, ids[0].2);
        assert_ne!(ids[0].1, ids[1].1, "different colors → different comms");
    }

    #[test]
    fn subcomm_alltoall_uses_member_count() {
        // An alltoall over half the ranks must cost less than over all.
        let w = quiet_world(8);
        let t_sub = w.run(|p| {
            let comm = p.block_on(|p| p.split((p.rank() % 2) as i64));
            p.block_on(|p| p.comm_alltoall(&comm, 1 << 16));
            p.now()
        });
        let w2 = quiet_world(8);
        let t_world = w2.run(|p| {
            p.block_on(|p| p.alltoall(1 << 16));
            p.now()
        });
        assert!(t_sub[0] < t_world[0], "{} vs {}", t_sub[0], t_world[0]);
    }

    #[test]
    fn fts_row_column_transpose_pattern() {
        // The FT pattern: a 2D grid of ranks, alltoall within rows, then
        // within columns.
        let w = quiet_world(4); // 2x2 grid
        let ends = w.run(|p| {
            let row = p.block_on(|p| p.split((p.rank() / 2) as i64));
            let col = p.block_on(|p| p.split((p.rank() % 2) as i64));
            for _ in 0..10 {
                p.block_on(|p| p.comm_alltoall(&row, 4096));
                p.compute(cluster_sim::node::Work::cpu(5_000), 0.0);
                p.block_on(|p| p.comm_alltoall(&col, 4096));
            }
            p.now()
        });
        assert!(ends.iter().all(|e| e.as_nanos() > 0));
    }
}
