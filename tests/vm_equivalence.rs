//! Differential equivalence suite: the bytecode VM must be *bit-identical*
//! to the tree-walking interpreter on every observable output.
//!
//! Both backends share the same work-unit cost model and the same
//! `Machine` side-effect surface (clock, PMU sampling, sensors,
//! transport), so any divergence — in final virtual times, MPI stats,
//! sensor record streams, or even the rendered report text — is a
//! compiler bug, not tolerable drift. Random programs come from an
//! extended `arb_program` that exercises calls, recursion, arrays,
//! `while`/`break`/`continue` and every sensor-relevant builtin class.
//!
//! Both executors run on the thread-per-rank oracle host — the only host
//! the tree-walker runs on — so the comparison isolates the executors.
//! `event_equivalence` ties the oracle-hosted VM to the event scheduler.

use proptest::prelude::*;
use std::sync::Arc;
use vsensor_repro::cluster_sim::time::VirtualTime;
use vsensor_repro::cluster_sim::{Cluster, ClusterConfig, FaultPlan, NoiseConfig};
use vsensor_repro::interp::{run_plain_oracle, ExecBackend, InstrumentedRun, RunConfig};
use vsensor_repro::Pipeline;

/// Run one prepared program under a given executor on the oracle host, on
/// a fresh cluster built from the same configuration (clusters hold
/// per-run RNG state, so each run gets its own identical instance).
fn run_backend(
    src: &str,
    make_cluster: &dyn Fn() -> Cluster,
    backend: ExecBackend,
) -> InstrumentedRun {
    let prepared = Pipeline::new().compile(src).expect("program compiles");
    let config = RunConfig {
        backend,
        ..RunConfig::default()
    };
    prepared.run_oracle(Arc::new(make_cluster()), &config)
}

/// Assert every observable output of two instrumented runs is identical,
/// down to the rendered report text.
fn assert_runs_identical(walker: &InstrumentedRun, vm: &InstrumentedRun) {
    assert_eq!(walker.ranks.len(), vm.ranks.len());
    for (i, (w, v)) in walker.ranks.iter().zip(vm.ranks.iter()).enumerate() {
        assert_eq!(w.end, v.end, "rank {i} final virtual time");
        assert_eq!(w.stats, v.stats, "rank {i} MPI stats");
        assert_eq!(
            w.distribution, v.distribution,
            "rank {i} sense distribution"
        );
        assert_eq!(
            w.local_variances, v.local_variances,
            "rank {i} local variances"
        );
        assert_eq!(w.transport, v.transport, "rank {i} transport counters");
        assert_eq!(
            w.validation.sensor_count(),
            v.validation.sensor_count(),
            "rank {i} validated sensor count"
        );
        assert_eq!(
            w.validation.pa().to_bits(),
            v.validation.pa().to_bits(),
            "rank {i} PMU validation Pa"
        );
    }
    assert_eq!(walker.run_time, vm.run_time, "run time");
    assert_eq!(
        walker.workload_max_error.to_bits(),
        vm.workload_max_error.to_bits(),
        "workload max error"
    );

    // Server-side view of the record stream.
    assert_eq!(walker.server.records, vm.server.records, "record count");
    assert_eq!(walker.server.batches, vm.server.batches, "batch count");
    assert_eq!(
        walker.server.bytes_received, vm.server.bytes_received,
        "bytes received"
    );
    assert_eq!(
        walker.server.malformed_records, vm.server.malformed_records,
        "malformed records"
    );
    assert_eq!(
        format!("{:?}", walker.server.events),
        format!("{:?}", vm.server.events),
        "detected events"
    );
    assert_eq!(
        format!("{:?}", walker.server.delivery),
        format!("{:?}", vm.server.delivery),
        "per-rank delivery quality"
    );
    assert_eq!(
        format!("{:?}", walker.alerts),
        format!("{:?}", vm.alerts),
        "live alerts"
    );

    // The human-readable report is the final word: bitwise identical text.
    assert_eq!(
        walker.report.render(),
        vm.report.render(),
        "rendered report"
    );
}

fn assert_equivalent(src: &str, make_cluster: &dyn Fn() -> Cluster) {
    let walker = run_backend(src, make_cluster, ExecBackend::TreeWalker);
    let vm = run_backend(src, make_cluster, ExecBackend::Vm);
    assert_runs_identical(&walker, &vm);
}

// ---------------------------------------------------------------------
// Random program generator — wider than `tests/proptests.rs`: user
// functions with recursion, arrays, while/break/continue, short-circuit
// conditions and all three sensor component classes.
// ---------------------------------------------------------------------

fn arb_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        (1u32..40).prop_map(|n| format!("for (i = 0; i < {n}; i = i + 1) {{ compute({}); }}", n * 37)),
        (1u32..12).prop_map(|n| format!("mpi_allreduce({});", n * 16)),
        (1u32..10).prop_map(|n| format!("mem_access({});", n * 128)),
        (1u32..6).prop_map(|n| format!("io_read({});", n * 64)),
        Just("x = x + helper(4);".to_string()),
        Just("x = fib(7) - fib(6);".to_string()),
        (0u32..8).prop_map(|k| format!("a[{k}] = a[{k}] + x; x = x + a[{}];", (k + 3) % 8)),
        (2u32..9).prop_map(|n| {
            format!(
                "int w = 0; while (w < {n}) {{ w = w + 1; \
                 if (w == 3) {{ continue; }} \
                 if (w > {}) {{ break; }} x = x + w; }}",
                n - 1
            )
        }),
        Just("if (x > 2 && x < 900000) { x = x - 1; } else { x = x + 2; }".to_string()),
        Just("if (x < 0 || x > 1) { x = x / 2; }".to_string()),
        (1u32..5).prop_map(|n| {
            format!("for (b = 0; b < {n}; b = b + 1) {{ for (c = 0; c < 3; c = c + 1) {{ x = x + c * b; }} }}")
        }),
        Just("float f = 1.5; x = x + f * 2.0;".to_string()),
    ];
    proptest::collection::vec(stmt, 1..7).prop_map(|stmts| {
        format!(
            "fn helper(int n) -> int {{ if (n < 2) {{ return 1; }} return n + helper(n - 1); }}\n\
             fn fib(int n) -> int {{ if (n < 2) {{ return n; }} return fib(n - 1) + fib(n - 2); }}\n\
             fn main() {{ int x = 1; int a[8];\n{}\nmpi_barrier();\n}}",
            stmts.join("\n")
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random programs, quiet cluster: every observable is bit-identical.
    #[test]
    fn random_programs_match_on_quiet_cluster(src in arb_program()) {
        assert_equivalent(&src, &|| ClusterConfig::quiet(2).build());
    }

    /// Random programs on a *noisy* cluster — OS noise and PMU jitter are
    /// derived from work totals and sample keys, so identity here proves
    /// the VM charges the exact same work in the exact same order.
    #[test]
    fn random_programs_match_on_noisy_cluster(src in arb_program(), seed in 0u64..1000) {
        assert_equivalent(&src, &|| {
            let mut cfg = ClusterConfig::healthy(2);
            cfg.noise = NoiseConfig { seed, ..NoiseConfig::default() };
            cfg.build()
        });
    }

    /// Plain (uninstrumented) runs match too.
    #[test]
    fn random_programs_match_plain(src in arb_program()) {
        let program = Arc::new(vsensor_repro::lang::compile(&src).unwrap());
        let walker = run_plain_oracle(
            program.clone(),
            Arc::new(ClusterConfig::quiet(2).build()),
            ExecBackend::TreeWalker,
        );
        let vm = run_plain_oracle(
            program,
            Arc::new(ClusterConfig::quiet(2).build()),
            ExecBackend::Vm,
        );
        prop_assert_eq!(walker.len(), vm.len());
        for (w, v) in walker.iter().zip(vm.iter()) {
            prop_assert_eq!(w.end, v.end);
            prop_assert_eq!(w.stats, v.stats);
        }
    }
}

// ---------------------------------------------------------------------
// Fixed scenarios that stress paths the generator can't reach cheaply.
// ---------------------------------------------------------------------

const ITERATIVE_SOLVER: &str = r#"
    fn main() {
        int a[16];
        for (it = 0; it < 60; it = it + 1) {
            for (k = 0; k < 16; k = k + 1) { a[k] = a[k] + k; compute(1500); }
            mem_access(4096);
            mpi_allreduce(128);
            if (it - it / 10 * 10 == 0) { io_write(256); }
        }
    }
"#;

/// Lossy fault-injected transport: record batches are dropped, retried and
/// reordered based on virtual send times, so identity proves the VM emits
/// the same batches at the same virtual instants.
#[test]
fn faulty_transport_matches_bitwise() {
    assert_equivalent(ITERATIVE_SOLVER, &|| {
        ClusterConfig::quiet(4)
            .with_faults(FaultPlan::lossy(0.5, 42))
            .build()
    });
}

/// A mid-run network outage window.
#[test]
fn outage_window_matches_bitwise() {
    assert_equivalent(ITERATIVE_SOLVER, &|| {
        ClusterConfig::quiet(4)
            .with_faults(FaultPlan::none().with_outage(
                VirtualTime::from_micros(200),
                VirtualTime::from_micros(60_000),
            ))
            .build()
    });
}

/// Noisy cluster at four ranks with the full solver workload.
#[test]
fn noisy_cluster_solver_matches_bitwise() {
    assert_equivalent(ITERATIVE_SOLVER, &|| {
        let mut cfg = ClusterConfig::healthy(4);
        cfg.noise = NoiseConfig {
            seed: 0xC0FFEE,
            ..NoiseConfig::default()
        };
        cfg.build()
    });
}
