//! Differential equivalence suite: the event-driven virtual-time scheduler
//! (the production host) must be *bit-identical* to the thread-per-rank
//! oracle host (`Prepared::run_oracle`) on every observable output.
//!
//! Both hosts drive the same poll API and share all completion math inside
//! `simmpi` — the oracle's parked ranks run the same completion checks the
//! scheduler's control plane runs — so any divergence in final virtual
//! times, `ProcStats`, sensor record streams, server matrices or the
//! rendered report text is a scheduler bug, not tolerable drift. Fault scenarios (rank/node fail-stop,
//! degraded transport, outage windows) are first-class here: death
//! detection and degraded receives are exactly the paths the scheduler
//! redesigns.

use std::sync::Arc;
use vsensor_bench::failstop::first_mismatch;
use vsensor_repro::cluster_sim::time::VirtualTime;
use vsensor_repro::cluster_sim::{Cluster, ClusterConfig, FaultPlan, NoiseConfig};
use vsensor_repro::interp::{
    run_plain_oracle, run_plain_shared, ExecBackend, InstrumentedRun, RunConfig,
};
use vsensor_repro::runtime::RuntimeConfig;
use vsensor_repro::simmpi::SimBackend;
use vsensor_repro::{scenarios, Pipeline};

/// Which host runs the ranks.
#[derive(Clone, Copy)]
enum Host {
    /// One OS thread per rank.
    Oracle,
    /// The event scheduler.
    Event,
}

/// Run one program on a given host on a fresh cluster built from the same
/// configuration (clusters hold per-run RNG state, so each run gets its
/// own identical instance).
fn run_sim(
    src: &str,
    make_cluster: &dyn Fn() -> Cluster,
    runtime: RuntimeConfig,
    host: Host,
) -> InstrumentedRun {
    let prepared = Pipeline::new().compile(src).expect("program compiles");
    let config = RunConfig {
        runtime,
        ..RunConfig::default()
    };
    let cluster = Arc::new(make_cluster());
    match host {
        Host::Oracle => prepared.run_oracle(cluster, &config),
        Host::Event => prepared.run(cluster, &config),
    }
}

/// Assert every observable output of two instrumented runs is identical,
/// down to the rendered report text.
fn assert_runs_identical(threads: &InstrumentedRun, event: &InstrumentedRun) {
    assert_final_state_identical(threads, event);
    assert_eq!(
        format!("{:?}", threads.alerts),
        format!("{:?}", event.alerts),
        "live alerts"
    );
    // The human-readable report is the final word: bitwise identical text.
    assert_eq!(
        threads.report.render(),
        event.report.render(),
        "rendered report"
    );
}

/// Like [`assert_runs_identical`] but without the live-alert stream and the
/// rendered report (which embeds it). On the oracle host, ranks ingest
/// concurrently from their own threads, so which batches have *arrived*
/// when a detection pass fires — and a pass fires on the first ingest that
/// crosses the schedule — depends on host-thread interleaving, not on the
/// simulation's virtual-time semantics. (The event scheduler ingests in a
/// fixed order, so its alerts are a pure function of the input.)
/// Fail-stop scenarios perturb that interleaving (survivor flushes race
/// the death gossip), so there the oracle's stream may name different
/// provisional events even though the final matrices, detected events,
/// failed ranks and volume counters — everything `first_mismatch` checks —
/// stay bitwise identical.
fn assert_final_state_identical(threads: &InstrumentedRun, event: &InstrumentedRun) {
    assert_eq!(threads.ranks.len(), event.ranks.len());
    for (i, (t, e)) in threads.ranks.iter().zip(event.ranks.iter()).enumerate() {
        assert_eq!(t.end, e.end, "rank {i} final virtual time");
        assert_eq!(t.stats, e.stats, "rank {i} MPI stats");
        assert_eq!(
            t.distribution, e.distribution,
            "rank {i} sense distribution"
        );
        assert_eq!(
            t.local_variances, e.local_variances,
            "rank {i} local variances"
        );
        assert_eq!(t.transport, e.transport, "rank {i} transport counters");
        assert_eq!(
            t.validation.pa().to_bits(),
            e.validation.pa().to_bits(),
            "rank {i} PMU validation Pa"
        );
    }
    assert_eq!(threads.run_time, event.run_time, "run time");
    assert_eq!(
        threads.workload_max_error.to_bits(),
        event.workload_max_error.to_bits(),
        "workload max error"
    );
    // Server-side view: matrices bitwise, events, failed ranks, volume.
    assert_eq!(
        first_mismatch(&threads.server, &event.server),
        None,
        "server results must be bitwise identical"
    );
}

fn assert_equivalent_with(src: &str, make_cluster: &dyn Fn() -> Cluster, runtime: RuntimeConfig) {
    let threads = run_sim(src, make_cluster, runtime.clone(), Host::Oracle);
    let event = run_sim(src, make_cluster, runtime, Host::Event);
    assert_runs_identical(&threads, &event);
}

fn assert_equivalent(src: &str, make_cluster: &dyn Fn() -> Cluster) {
    assert_equivalent_with(src, make_cluster, RuntimeConfig::default());
}

/// A stencil-style workload touching every sensor component class plus
/// point-to-point traffic: ring sendrecv, wildcard receives on rank 0,
/// collectives, and periodic I/O.
const MIXED_WORKLOAD: &str = r#"
    fn main() {
        int rank = mpi_comm_rank();
        int size = mpi_comm_size();
        int next = rank + 1;
        if (next == size) { next = 0; }
        for (it = 0; it < 40; it = it + 1) {
            for (k = 0; k < 6; k = k + 1) { compute(1800); }
            mem_access(4096);
            int got = mpi_sendrecv(next, 512, 0 - 1, it);
            mpi_allreduce(128);
            if (it - it / 8 * 8 == 0) { io_write(256); }
        }
        mpi_barrier();
    }
"#;

/// The Figure 21 bad-node workload used by the fail-stop suite.
const BAD_NODE_SRC: &str = r#"
    fn main() {
        for (t = 0; t < 400; t = t + 1) {
            for (k = 0; k < 4; k = k + 1) { mem_access(25000); }
            mpi_barrier();
        }
    }
"#;

#[test]
fn quiet_cluster_64_ranks_matches_bitwise() {
    assert_equivalent(MIXED_WORKLOAD, &|| ClusterConfig::quiet(64).build());
}

#[test]
fn noisy_cluster_matches_bitwise() {
    assert_equivalent(MIXED_WORKLOAD, &|| {
        let mut cfg = ClusterConfig::healthy(16);
        cfg.noise = NoiseConfig {
            seed: 0xBEEF,
            ..NoiseConfig::default()
        };
        cfg.build()
    });
}

#[test]
fn bad_node_detection_matches_bitwise() {
    let (cluster, runtime) = scenarios::live_bad_node(16, 4, 0.55);
    assert_equivalent_with(
        BAD_NODE_SRC,
        &|| cluster.clone().with_ranks_per_node(2).build(),
        runtime,
    );
}

/// Rank/node fail-stop: survivors shrink collectives, receives from the
/// dead node degrade, and survivor gossip reports the deaths — all at the
/// exact same virtual instants on both hosts.
#[test]
fn node_death_matches_bitwise() {
    let (cluster, runtime) = scenarios::node_death(16, 4, 0.55, 7, 2);
    let threads = run_sim(
        BAD_NODE_SRC,
        &|| cluster.clone().with_ranks_per_node(2).build(),
        runtime.clone(),
        Host::Oracle,
    );
    let event = run_sim(
        BAD_NODE_SRC,
        &|| cluster.clone().with_ranks_per_node(2).build(),
        runtime,
        Host::Event,
    );
    assert_final_state_identical(&threads, &event);
    // Both streams must still report the same deaths, whatever variance
    // alerts the interleaving-dependent provisional passes surfaced.
    let deaths = |run: &InstrumentedRun| {
        run.alerts
            .iter()
            .filter(|a| format!("{a:?}").contains("RankDeath"))
            .count()
    };
    assert_eq!(deaths(&threads), deaths(&event), "death alert count");
    // The scenario actually exercised the fail-stop path.
    assert_eq!(
        event.server.failed_ranks.len(),
        2,
        "both ranks of the killed node must be reported dead"
    );
}

/// Degraded (lossy) telemetry transport: batches drop, retry and reorder
/// by virtual send time; identity proves the scheduler runs every flush at
/// the same virtual instant as the parked oracle threads do.
#[test]
fn degraded_transport_matches_bitwise() {
    assert_equivalent(MIXED_WORKLOAD, &|| {
        ClusterConfig::quiet(8)
            .with_faults(FaultPlan::lossy(0.5, 42))
            .build()
    });
}

/// A mid-run analysis-server outage window on top of packet loss.
#[test]
fn outage_window_matches_bitwise() {
    assert_equivalent(MIXED_WORKLOAD, &|| {
        ClusterConfig::quiet(8)
            .with_faults(FaultPlan::none().with_outage(
                VirtualTime::from_micros(200),
                VirtualTime::from_micros(60_000),
            ))
            .build()
    });
}

/// Plain (uninstrumented) runs match per-rank at 64 ranks.
#[test]
fn plain_runs_match_at_64_ranks() {
    let program = Arc::new(vsensor_repro::lang::compile(MIXED_WORKLOAD).expect("program compiles"));
    let threads = run_plain_oracle(
        program.clone(),
        Arc::new(ClusterConfig::quiet(64).build()),
        ExecBackend::Vm,
    );
    let event = run_plain_shared(
        program,
        Arc::new(ClusterConfig::quiet(64).build()),
        ExecBackend::Vm,
        SimBackend::default(),
    );
    assert_eq!(threads.len(), event.len());
    for (i, (t, e)) in threads.iter().zip(event.iter()).enumerate() {
        assert_eq!(t.end, e.end, "rank {i} final virtual time");
        assert_eq!(t.stats, e.stats, "rank {i} MPI stats");
    }
}

/// Paper-scale smoke test: 4,096 ranks in one process on the event
/// scheduler — far past what thread-per-rank can host — finishing a
/// collective workload with all ranks aligned.
#[test]
fn event_backend_runs_4096_ranks() {
    let program = Arc::new(
        vsensor_repro::lang::compile(
            r#"
            fn main() {
                for (it = 0; it < 3; it = it + 1) {
                    compute(2000);
                    mpi_allreduce(64);
                }
                mpi_barrier();
            }
            "#,
        )
        .unwrap(),
    );
    let results = run_plain_shared(
        program,
        Arc::new(ClusterConfig::quiet(4096).build()),
        ExecBackend::Vm,
        SimBackend::default(),
    );
    assert_eq!(results.len(), 4096);
    let end = results[0].end;
    assert!(end > VirtualTime::ZERO);
    assert!(
        results.iter().all(|r| r.end == end),
        "the closing barrier must align every rank"
    );
}
