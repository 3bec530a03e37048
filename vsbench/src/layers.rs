//! The traced run: the same instrumented run as the timed one, with the
//! event scheduler's `SCHED` phase events on and the telemetry routed
//! through a [`TimingSink`], plus timed calls into each layer's public
//! entry points around it.

use crate::measure::Setup;
use crate::sink::{channel_for, TimingSink};
use crate::workload::SIM;
use std::sync::Arc;
use std::time::Instant;
use vsensor::cluster_sim::time::VirtualTime;
use vsensor::cluster_sim::trace::{Category, TraceSession};
use vsensor::interp::InstrumentedRun;
use vsensor::runtime::AnalysisServer;

/// Host seconds and counts of one traced repeat.
#[derive(Clone, Debug, Default)]
pub struct LayerSample {
    /// Untraced `Prepared::run` + render, for the tracing overhead.
    pub untraced_wall_s: f64,
    /// Traced run + render.
    pub traced_wall_s: f64,
    /// `Prepared::run_plain_on`: VM and scheduler, no dynamic module.
    pub plain_s: f64,
    /// Scheduler phases, from the `SCHED` events.
    pub select_s: f64,
    /// Resume phase: VM dispatch plus everything ranks call into.
    pub resume_s: f64,
    /// Commit phase.
    pub commit_s: f64,
    /// Collective-completion phase.
    pub collectives_s: f64,
    /// Scheduler phases run.
    pub phases: u64,
    /// Task resumes.
    pub resumes: u64,
    /// Host seconds inside the sink's `send` (engine ingest, transport
    /// dice, WAL appends and any crash recovery).
    pub ingest_s: f64,
    /// `send` calls.
    pub ingest_calls: u64,
    /// Replay of the captured batches into a fresh server.
    pub replay_s: f64,
    /// Closing that fresh server's session.
    pub close_s: f64,
    /// `AnalysisServer::recover` from the run's write-ahead log.
    pub wal_recover_s: f64,
    /// `VarianceReport::render`.
    pub render_s: f64,
    /// Frames in the run's write-ahead log (0 without one).
    pub wal_frames: u64,
}

/// One traced repeat: the sample, plus the untraced and the traced run
/// with their rendered reports, for the output checks.
pub struct TracedRepeat {
    /// Timings and counts.
    pub sample: LayerSample,
    /// `Prepared::run` on the same inputs, untraced.
    pub untraced: (InstrumentedRun, String),
    /// The run through the timing sink with tracing on.
    pub traced: (InstrumentedRun, String),
}

/// Run one traced repeat on panel member `member`.
pub fn traced_repeat(setup: &Setup, member: usize) -> TracedRepeat {
    let (inputs, cluster) = &setup.panel[member];
    let mut s = LayerSample::default();

    let t = Instant::now();
    let plain = setup.prepared.run_plain_on(cluster.clone(), SIM);
    s.plain_s = t.elapsed().as_secs_f64();
    drop(plain);

    let (untraced_run, untraced_text, untraced_wall) = crate::measure::timed_run(setup, member);
    s.untraced_wall_s = untraced_wall;

    let (channel, wal) = channel_for(
        cluster,
        setup.prepared.sensors.clone(),
        inputs.run.runtime.clone(),
    );
    let sink = Arc::new(TimingSink::new(channel));
    let session = TraceSession::start(Category::SCHED);
    let start = Instant::now();
    let run = setup
        .prepared
        .run_sink(cluster.clone(), &inputs.run, sink.clone());
    let t = Instant::now();
    let text = run.report.render();
    s.render_s = t.elapsed().as_secs_f64();
    s.traced_wall_s = start.elapsed().as_secs_f64();
    let trace = session.finish();

    for e in trace.of(Category::SCHED) {
        let secs = e.dur as f64 * 1e-9;
        match e.name {
            "sched.select" => s.select_s += secs,
            "sched.resume" => s.resume_s += secs,
            "sched.commit" => s.commit_s += secs,
            "sched.collectives" => s.collectives_s += secs,
            _ => continue,
        }
        // Every phase event of one scheduler loop carries the same counts.
        (s.phases, s.resumes) = (e.a, e.b);
    }
    s.ingest_s = sink.send_seconds();
    s.ingest_calls = sink.sends();

    let server = AnalysisServer::try_new(
        cluster.ranks(),
        setup.prepared.sensors.clone(),
        inputs.run.runtime.clone(),
    )
    .expect("workload runtime configuration is valid");
    let batches = sink.take_captured();
    let t = Instant::now();
    let session = server.session();
    for (batch, at) in batches {
        // Retries of a batch the server already holds replay as
        // duplicates, rejected as they were live.
        let _ = session.ingest(batch, at);
    }
    s.replay_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let result = session.close(VirtualTime::ZERO + run.run_time);
    s.close_s = t.elapsed().as_secs_f64();
    drop(result);

    if let Some(wal) = wal {
        s.wal_frames = wal.frames() as u64;
        let t = Instant::now();
        let recovered = AnalysisServer::recover(&wal).expect("the run's WAL replays");
        s.wal_recover_s = t.elapsed().as_secs_f64();
        drop(recovered);
    }
    TracedRepeat {
        sample: s,
        untraced: (untraced_run, untraced_text),
        traced: (run, text),
    }
}
