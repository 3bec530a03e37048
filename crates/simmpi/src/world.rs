//! World launcher and the thread-per-rank oracle host.
//!
//! Production runs host their ranks on the event scheduler
//! ([`World::run_event`], see [`crate::sched`]). This module also keeps the
//! original host as an oracle: one OS thread per rank, driving the same
//! poll API. A rank whose operation returns [`crate::Poll::Pending`] parks
//! on the world's one condvar ([`Proc::park`]) and re-polls when anything
//! changes.
//! [`World::run`] hosts closures; [`World::run_threaded`] hosts the same
//! [`RankTask`]s the scheduler runs, so differential suites can compare the
//! two hosts on one program.

use crate::collectives::CollectiveSlot;
use crate::death::{death_in_payload, DeathBoard, DeathUnwind};
use crate::p2p::{Mailbox, DEADLOCK_TIMEOUT};
use crate::proc::{Proc, WorldShared};
use crate::sched::{RankTask, TaskPoll};
use cluster_sim::Cluster;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The oracle host's one wait point. Every world change a parked rank may
/// be waiting for — a send, a completed rendezvous, a death, a rank exit —
/// bumps the epoch and wakes every parked rank, which re-polls its
/// pending operation.
#[derive(Default)]
pub(crate) struct OracleWait {
    state: Mutex<WaitState>,
    changed: Condvar,
}

#[derive(Default)]
struct WaitState {
    epoch: u64,
    parked: usize,
}

impl OracleWait {
    /// Record a world change and wake the parked ranks.
    pub(crate) fn notify(&self) {
        let mut st = self.state.lock();
        st.epoch += 1;
        if st.parked > 0 {
            self.changed.notify_all();
        }
    }

    /// Wait until the epoch moves past `seen` and return the new epoch, or
    /// `None` once [`DEADLOCK_TIMEOUT`] of real time passes with no change.
    /// A rank that polled after observing `seen` therefore never misses a
    /// change that raced its poll.
    pub(crate) fn park(&self, seen: u64) -> Option<u64> {
        let mut st = self.state.lock();
        let deadline = Instant::now() + DEADLOCK_TIMEOUT;
        st.parked += 1;
        while st.epoch == seen {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            self.changed.wait_for(&mut st, left);
        }
        st.parked -= 1;
        (st.epoch != seen).then_some(st.epoch)
    }
}

/// An MPI world: the cluster plus rank bookkeeping. Create once per run.
pub struct World {
    cluster: Arc<Cluster>,
}

impl World {
    /// A world sized by the cluster's rank count.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        World { cluster }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.cluster.ranks()
    }

    /// Build the state shared by all ranks of one run; `oracle` adds the
    /// thread-per-rank host's wait point.
    pub(crate) fn make_shared(&self, oracle: bool) -> Arc<WorldShared> {
        let size = self.size();
        Arc::new(WorldShared {
            cluster: self.cluster.clone(),
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            collective: CollectiveSlot::new(size),
            comms: crate::comm::CommRegistry::new(size),
            board: DeathBoard::new(size),
            oracle: oracle.then(OracleWait::default),
        })
    }

    /// Run `f` on every rank concurrently, one OS thread per rank (the
    /// oracle host); returns the per-rank results in rank order. Blocking
    /// operations are called through [`Proc::block_on`]. Panics in any
    /// rank propagate (with that rank's ID in the message).
    ///
    /// All timing the closure observes through [`Proc`] is virtual, so
    /// virtual times are independent of host scheduling (for deterministic
    /// matching — see crate docs).
    pub fn run<F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut Proc) -> R + Sync,
        R: Send,
    {
        self.spawn_ranks(|_, mut proc| f(&mut proc))
    }

    /// Host every rank's [`RankTask`] on its own OS thread — the oracle
    /// counterpart of [`World::run_event`], with the same `make` and
    /// `on_death` contract. A task that yields parks ([`Proc::park`]) and
    /// is resumed when the world changes; a task may also block inside
    /// `resume` by parking itself. Virtual times, stats and sensor streams
    /// are bit-identical to the event scheduler's.
    pub fn run_threaded<T, F, D>(&self, make: F, on_death: D) -> Vec<T::Output>
    where
        T: RankTask,
        T::Output: Send,
        F: Fn(usize, Proc) -> T + Sync,
        D: Fn(DeathUnwind, &mut T) -> T::Output + Sync,
    {
        self.spawn_ranks(|rank, proc| {
            let mut task = make(rank, proc);
            loop {
                match catch_unwind(AssertUnwindSafe(|| task.resume())) {
                    Ok(TaskPoll::Ready(out)) => return out,
                    Ok(TaskPoll::Yielded) => task.proc_mut().park(),
                    Err(payload) => match death_in_payload(&*payload) {
                        Some(death) => return on_death(death, &mut task),
                        None => resume_unwind(payload),
                    },
                }
            }
        })
    }

    /// Spawn one thread per rank running `body`, join them in rank order,
    /// and relabel rank panics. Every rank exit — normal or not — wakes
    /// the parked ranks, so a poisoned rendezvous or a finished peer is
    /// seen promptly.
    fn spawn_ranks<F, R>(&self, body: F) -> Vec<R>
    where
        F: Fn(usize, Proc) -> R + Sync,
        R: Send,
    {
        let size = self.size();
        let shared = self.make_shared(true);
        let body = &body;
        // Rank programs (interpreters) can recurse deeply; debug builds use
        // sizeable frames, so give each rank thread a generous stack.
        const RANK_STACK: usize = 16 << 20;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let shared = shared.clone();
                    std::thread::Builder::new()
                        .name(format!("rank-{rank}"))
                        .stack_size(RANK_STACK)
                        .spawn_scoped(s, move || {
                            let proc = Proc::new(rank, size, shared.clone());
                            let out = catch_unwind(AssertUnwindSafe(|| body(rank, proc)));
                            if let Some(wait) = &shared.oracle {
                                wait.notify();
                            }
                            out.unwrap_or_else(|payload| resume_unwind(payload))
                        })
                        .expect("spawn rank thread")
                })
                .collect();
            handles
                .into_iter()
                .enumerate()
                .map(|(rank, h)| h.join().unwrap_or_else(|e| relabel_panic(rank, e)))
                .collect()
        })
    }
}

/// Re-raise a rank's panic with the rank's ID in the message (both hosts).
pub(crate) fn relabel_panic(rank: usize, e: Box<dyn Any + Send>) -> ! {
    if let Some(death) = death_in_payload(&*e) {
        // The program let a scheduled fail-stop unwind escape its closure;
        // see [`crate::catch_death`].
        panic!(
            "rank {rank} fail-stopped at {:?} (uncaught — wrap the rank \
             closure in simmpi::catch_death to observe deaths)",
            death.at
        );
    }
    let msg = e
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>");
    panic!("rank {rank} panicked: {msg}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p2p::{ANY_SOURCE, ANY_TAG};
    use crate::{Poll, ReduceOp};
    use cluster_sim::node::Work;
    use cluster_sim::time::VirtualTime;
    use cluster_sim::{ClusterConfig, NodeSpec};

    fn quiet_world(ranks: usize) -> World {
        World::new(Arc::new(ClusterConfig::quiet(ranks).build()))
    }

    #[test]
    fn ring_pass_accumulates_latency() {
        // Rank r sends to (r+1) % n after receiving from (r-1); rank 0
        // seeds the ring. Virtual completion times must strictly grow.
        let w = quiet_world(4);
        let finals = w.run(|p| {
            let n = p.size();
            let next = (p.rank() + 1) % n;
            let prev = (p.rank() + n - 1) % n;
            if p.rank() == 0 {
                p.send(next, 1024, 7, 100);
                p.block_on(|p| p.recv(prev, 7));
            } else {
                let got = p.block_on(|p| p.recv(prev, 7));
                p.send(next, 1024, 7, got.value + 1);
            }
            p.now()
        });
        // Rank 3 finished sending before rank 0's final recv completes.
        assert!(finals[0] > finals[3]);
        // Every rank made progress.
        assert!(finals.iter().all(|t| *t > VirtualTime::ZERO));
    }

    #[test]
    fn parked_recv_finds_a_message_queued_before_its_last_wake() {
        // Two ranks driven by hand on one thread, so the interleaving is
        // exact: rank 0's message lands, then a barrier release wakes rank
        // 1 — the last world change before rank 1 posts its receive.
        // Parking must find the queued message instead of waiting for a
        // change that already happened.
        let shared = quiet_world(2).make_shared(true);
        let mut p0 = Proc::new(0, 2, shared.clone());
        let mut p1 = Proc::new(1, 2, shared);
        p0.send(1, 8, 0, 7);
        assert!(p1.barrier().is_pending());
        assert!(p0.barrier().is_pending());
        p0.park(); // completes the barrier and wakes the world
        p1.park();
        assert_eq!(p1.barrier(), Poll::Ready(()));
        assert!(p1.recv(0, 0).is_pending());
        p1.park();
        assert_eq!(p1.recv(0, 0).map(|info| info.value), Poll::Ready(7));
    }

    #[test]
    fn values_flow_through_the_ring() {
        let w = quiet_world(3);
        let got = w.run(|p| {
            let n = p.size();
            let next = (p.rank() + 1) % n;
            let prev = (p.rank() + n - 1) % n;
            if p.rank() == 0 {
                p.send(next, 8, 0, 5);
                p.block_on(|p| p.recv(prev, 0)).value
            } else {
                let v = p.block_on(|p| p.recv(prev, 0)).value;
                p.send(next, 8, 0, v * 2);
                v
            }
        });
        assert_eq!(got, vec![20, 5, 10]);
    }

    #[test]
    fn barrier_equalizes_clocks() {
        let w = quiet_world(8);
        let finals = w.run(|p| {
            // Unequal work before the barrier.
            p.compute(Work::cpu(1000 * (p.rank() as u64 + 1)), 0.0);
            p.block_on(|p| p.barrier());
            p.now()
        });
        assert!(finals.iter().all(|t| *t == finals[0]));
    }

    #[test]
    fn allreduce_results_agree() {
        let w = quiet_world(5);
        let sums = w.run(|p| p.block_on(|p| p.allreduce(8, p.rank() as i64, ReduceOp::Sum)));
        assert_eq!(sums, vec![10; 5]);
    }

    #[test]
    fn deterministic_across_repeated_runs() {
        let run_once = || {
            let w = quiet_world(6);
            w.run(|p| {
                for _ in 0..20 {
                    p.compute(Work::cpu(500), 0.0);
                    p.block_on(|p| p.alltoall(256));
                }
                p.now()
            })
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn wildcard_recv_collects_all_senders() {
        let w = quiet_world(4);
        let totals = w.run(|p| {
            if p.rank() == 0 {
                let mut total = 0;
                for _ in 0..3 {
                    total += p.block_on(|p| p.recv(ANY_SOURCE, ANY_TAG)).value;
                }
                total
            } else {
                p.send(0, 64, p.rank() as i64, p.rank() as i64 * 10);
                0
            }
        });
        assert_eq!(totals[0], 60);
    }

    #[test]
    fn stats_split_compute_and_mpi() {
        let w = quiet_world(2);
        let stats = w.run(|p| {
            p.compute(Work::cpu(10_000), 0.0);
            if p.rank() == 0 {
                p.send(1, 1 << 20, 0, 0);
            } else {
                p.block_on(|p| p.recv(0, 0));
            }
            p.stats()
        });
        assert_eq!(stats[0].compute_time.as_nanos(), 10_000);
        assert_eq!(stats[0].msgs_sent, 1);
        assert_eq!(stats[0].bytes_sent, 1 << 20);
        // The receiver's MPI time includes the 1 MB transfer (~100 us).
        assert!(stats[1].mpi_time.as_micros() >= 100);
    }

    #[test]
    fn bad_node_shows_up_in_compute_times() {
        let cluster = ClusterConfig::quiet(4)
            .with_ranks_per_node(2)
            .with_node(1, NodeSpec::slow_memory(0.5))
            .build();
        let w = World::new(Arc::new(cluster));
        let times = w.run(|p| {
            p.compute(Work::mem(100_000), 0.0);
            p.stats().compute_time
        });
        assert_eq!(times[0], times[1]);
        assert_eq!(times[2], times[3]);
        assert_eq!(times[2].as_nanos(), times[0].as_nanos() * 2);
    }

    #[test]
    fn recv_completes_no_earlier_than_arrival() {
        let w = quiet_world(2);
        let infos = w.run(|p| {
            if p.rank() == 0 {
                p.compute(Work::cpu(50_000), 0.0); // sender is late
                p.send(1, 4096, 1, 0);
                None
            } else {
                Some(p.block_on(|p| p.recv(0, 1))) // receiver posts immediately
            }
        });
        let info = infos[1].unwrap();
        assert!(info.completed_at.as_nanos() >= 50_000);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_is_labelled() {
        let w = quiet_world(2);
        w.run(|p| {
            if p.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 fail-stopped")]
    fn uncaught_death_is_labelled() {
        let cluster = ClusterConfig::quiet(2)
            .with_faults(
                cluster_sim::FaultPlan::none().with_rank_death(1, VirtualTime::from_micros(1)),
            )
            .build();
        let w = World::new(Arc::new(cluster));
        w.run(|p| {
            p.compute(Work::cpu(10_000), 0.0);
            p.compute(Work::cpu(10_000), 0.0);
        });
    }

    #[test]
    fn survivors_outlive_a_dead_rank() {
        // Rank 3 dies mid-run; ranks 0-2 keep iterating compute+barrier
        // rounds over the shrunk membership, deterministically.
        let run_once = || {
            let cluster = ClusterConfig::quiet(4)
                .with_faults(
                    cluster_sim::FaultPlan::none().with_rank_death(3, VirtualTime::from_micros(50)),
                )
                .build();
            let w = World::new(Arc::new(cluster));
            w.run(|p| {
                let out = crate::catch_death(|| {
                    for _ in 0..10 {
                        p.compute(Work::cpu(10_000), 0.0);
                        p.block_on(|p| p.barrier());
                    }
                });
                (out.err(), p.now(), p.stats())
            })
        };
        let outs = run_once();
        let (death, _, dead_stats) = &outs[3];
        let death = death.expect("rank 3 died");
        assert_eq!(death.rank, 3);
        assert_eq!(death.at, VirtualTime::from_micros(50));
        assert_eq!(dead_stats.died_at, Some(VirtualTime::from_micros(50)));
        for (err, end, stats) in &outs[..3] {
            assert!(err.is_none(), "survivors complete");
            assert!(end.as_nanos() > 0);
            assert!(stats.shrunk_collectives > 0, "barriers shrank");
            assert!(stats.died_at.is_none());
        }
        assert_eq!(outs, run_once(), "fail-stop runs are deterministic");
    }

    #[test]
    fn recv_from_dead_peer_degrades() {
        let cluster = ClusterConfig::quiet(2)
            .with_faults(
                cluster_sim::FaultPlan::none().with_rank_death(0, VirtualTime::from_micros(1)),
            )
            .build();
        let w = World::new(Arc::new(cluster));
        let outs = w.run(|p| {
            crate::catch_death(|| {
                if p.rank() == 0 {
                    // Dies before it ever sends.
                    p.compute(Work::cpu(10_000), 0.0);
                    p.compute(Work::cpu(10_000), 0.0);
                    None
                } else {
                    let info = p.block_on(|p| p.recv(0, 7));
                    Some((info, p.stats()))
                }
            })
        });
        let (info, stats) = (*outs[1].as_ref().expect("rank 1 survives")).unwrap();
        assert_eq!(info.bytes, 0, "degraded recv carries no payload");
        assert_eq!(stats.peer_dead_recvs, 1);
        assert_eq!(stats.msgs_received, 0, "no real message was received");
        // Completion pays the death-detection timeout past the death.
        let plan_timeout = cluster_sim::FaultPlan::none().death_timeout();
        assert!(info.completed_at >= VirtualTime::from_micros(1) + plan_timeout);
    }

    #[test]
    fn predeath_sends_still_deliver() {
        // Rank 0 sends, *then* dies; rank 1 must still get the message.
        let cluster = ClusterConfig::quiet(2)
            .with_faults(
                cluster_sim::FaultPlan::none().with_rank_death(0, VirtualTime::from_micros(500)),
            )
            .build();
        let w = World::new(Arc::new(cluster));
        let outs = w.run(|p| {
            crate::catch_death(|| {
                if p.rank() == 0 {
                    p.send(1, 64, 3, 42);
                    p.compute(Work::cpu(1_000_000), 0.0);
                    p.compute(Work::cpu(1_000_000), 0.0);
                    0
                } else {
                    p.block_on(|p| p.recv(0, 3)).value
                }
            })
        });
        assert_eq!(outs[1], Ok(42));
    }
}
