//! Checks on the benchmark itself: its timing sink changes nothing, its
//! seeds drive the inputs reproducibly, and its ground truth holds.
//!
//! Run with `cargo test --release --manifest-path vsbench/Cargo.toml`;
//! the held-out-seed test runs `badnode-cg256` at full size.

use std::sync::Arc;
use vsbench::measure::{check, setup, timed_run, Outputs};
use vsbench::sink::{channel_for, TimingSink};
use vsbench::workload::{Workload, EXEC, SIM};
use vsensor::interp::ExecBackend;
use vsensor::runtime::SensorKind;
use vsensor::simmpi::SimBackend;

/// A run through the benchmark's timing and capturing sink is the same
/// run as `Prepared::run`: same rendered report, same per-rank end times.
#[test]
fn timing_sink_is_transparent() {
    for workload in Workload::ALL {
        let ready = setup(workload, &[3], true);
        let (inputs, cluster) = &ready.panel[0];
        let (plain_run, plain_text, _) = timed_run(&ready, 0);

        let (channel, wal) = channel_for(
            cluster,
            ready.prepared.sensors.clone(),
            inputs.run.runtime.clone(),
        );
        let sink = Arc::new(TimingSink::new(channel));
        let run = ready
            .prepared
            .run_sink(cluster.clone(), &inputs.run, sink.clone());

        assert_eq!(run.report.render(), plain_text, "{}", workload.name());
        let ends = |r: &vsensor::interp::InstrumentedRun| {
            r.ranks.iter().map(|r| r.end).collect::<Vec<_>>()
        };
        assert_eq!(ends(&run), ends(&plain_run), "{}", workload.name());
        assert!(
            sink.sends() > 0,
            "{}: the sink saw no traffic",
            workload.name()
        );
        assert_eq!(sink.take_captured().len() as u64, sink.sends());
        if workload == Workload::FaultsCg256 {
            // The durable server's log exists and the crash instant falls
            // inside the run, so the kill-and-recover path ran.
            assert!(wal.expect("server crash plan gets a WAL").frames() > 0);
            assert!(run.run_time.as_nanos() > 300_000_000, "{:?}", run.run_time);
        }
    }
}

/// One seed gives identical outputs, virtual metrics included; another
/// seed gives other noise.
#[test]
fn seed_drives_inputs_reproducibly() {
    for workload in Workload::ALL {
        let outputs = |seed: u64| {
            let ready = setup(workload, &[seed], true);
            let (run, text, _) = timed_run(&ready, 0);
            Outputs::of(&run, text, &ready.panel[0].0.truth)
        };
        let first = outputs(11);
        assert_eq!(first, outputs(11), "{}", workload.name());
        assert_ne!(first.ends, outputs(12).ends, "{}", workload.name());
    }
}

/// Every workload pins one simulation thread and the bytecode VM.
#[test]
fn workloads_pin_the_event_scheduler_and_vm() {
    for workload in Workload::ALL {
        let run = workload.inputs(1).run;
        assert_eq!(run.sim, SimBackend::Event { workers: 1 });
        assert_eq!(run.backend, ExecBackend::Vm);
        assert_eq!((run.sim, run.backend), (SIM, EXEC));
    }
}

/// Ground truth is read off each workload's cluster configuration.
#[test]
fn ground_truth_names_the_bad_node() {
    for workload in [Workload::BadnodeCg256, Workload::FaultsCg256] {
        let bad = workload.inputs(1).truth.bad.expect("bad node injected");
        assert_eq!(bad.kind, SensorKind::Computation);
        assert_eq!(bad.ranks, 92..=114);
    }
    for workload in [Workload::InterpCg16, Workload::ScaleCg4096] {
        assert_eq!(workload.inputs(1).truth.bad, None);
    }
}

/// A seed never run while the benchmark was built still localizes the
/// bad node at full size.
#[test]
fn held_out_seed_localizes_the_bad_node() {
    let ready = setup(Workload::BadnodeCg256, &[0x005E_ED0F_F1CE], false);
    let (run, _, _) = timed_run(&ready, 0);
    let (inputs, cluster) = &ready.panel[0];
    check(&run, &inputs.truth, cluster.ranks()).expect("bad node localized");
}

/// The reference kernel takes host time, and a host that runs it twice as
/// slowly halves the factor applied to the host times measured beside it.
#[test]
fn reference_speed_scales_with_the_kernel() {
    use vsbench::speed::{reference_kernel, to_reference, REFERENCE_S};
    assert!(reference_kernel() > 0.0);
    let nominal = to_reference(&[REFERENCE_S, REFERENCE_S]);
    assert!((nominal - 1.0).abs() < 1e-12);
    let slow = to_reference(&[2.0 * REFERENCE_S, 2.0 * REFERENCE_S]);
    assert!((slow - 0.5).abs() < 1e-12);
}
