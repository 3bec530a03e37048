//! The benchmark's analysis sink: a pass-through wrapper that times every
//! send into the run's real channel and can keep a copy of each batch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vsensor::cluster_sim::time::VirtualTime;
use vsensor::cluster_sim::Cluster;
use vsensor::runtime::{
    AnalysisServer, AnalysisSink, BatchChannel, ControlDirective, CrashingChannel, DirectChannel,
    FaultyChannel, RuntimeConfig, SendOutcome, SensorInfo, TelemetryBatch, WriteAheadLog,
};

/// The channel `Prepared::run` would build for `cluster`: lossless for a
/// healthy cluster, fault-injecting for an active plan, and a durable
/// server behind a crashing channel for a planned server crash. The
/// write-ahead log comes back too when there is one.
pub fn channel_for(
    cluster: &Cluster,
    sensors: Vec<SensorInfo>,
    runtime: RuntimeConfig,
) -> (Arc<dyn AnalysisSink>, Option<Arc<WriteAheadLog>>) {
    let ranks = cluster.ranks();
    let faults = cluster.faults().clone();
    if let Some(at) = faults.server_crash() {
        let (server, wal) = AnalysisServer::try_new_durable(ranks, sensors, runtime)
            .expect("workload runtime configuration is valid");
        let sink = CrashingChannel::new(Arc::new(server), wal.clone(), at, faults);
        return (Arc::new(sink), Some(wal));
    }
    let server = Arc::new(
        AnalysisServer::try_new(ranks, sensors, runtime)
            .expect("workload runtime configuration is valid"),
    );
    if faults.is_active() {
        (Arc::new(FaultyChannel::new(server, faults)), None)
    } else {
        (Arc::new(DirectChannel::new(server)), None)
    }
}

/// Wraps a sink, adding up the host time spent inside its `send` (engine
/// ingest plus whatever the channel does around it) and keeping every
/// batch with its send instant for a later replay.
pub struct TimingSink {
    inner: Arc<dyn AnalysisSink>,
    send_ns: AtomicU64,
    sends: AtomicU64,
    captured: Mutex<Vec<(TelemetryBatch, VirtualTime)>>,
}

impl TimingSink {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn AnalysisSink>) -> Self {
        TimingSink {
            inner,
            send_ns: AtomicU64::new(0),
            sends: AtomicU64::new(0),
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Host seconds spent inside `send`.
    pub fn send_seconds(&self) -> f64 {
        self.send_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of `send` calls.
    pub fn sends(&self) -> u64 {
        self.sends.load(Ordering::Relaxed)
    }

    /// The captured batches, in send order.
    pub fn take_captured(&self) -> Vec<(TelemetryBatch, VirtualTime)> {
        std::mem::take(&mut *self.captured.lock().expect("no sender panicked"))
    }
}

impl BatchChannel for TimingSink {
    fn send(&self, batch: &TelemetryBatch, now: VirtualTime, attempt: u32) -> SendOutcome {
        let start = Instant::now();
        let outcome = self.inner.send(batch, now, attempt);
        let ns = start.elapsed().as_nanos() as u64;
        self.send_ns.fetch_add(ns, Ordering::Relaxed);
        self.sends.fetch_add(1, Ordering::Relaxed);
        self.captured
            .lock()
            .expect("no sender panicked")
            .push((batch.clone(), now));
        outcome
    }

    fn poll_control(&self, rank: usize, now: VirtualTime) -> Vec<ControlDirective> {
        self.inner.poll_control(rank, now)
    }

    fn ack_control(&self, rank: usize, epoch: u64, now: VirtualTime) {
        self.inner.ack_control(rank, epoch, now)
    }
}

impl AnalysisSink for TimingSink {
    fn server(&self) -> Arc<AnalysisServer> {
        self.inner.server()
    }
}
