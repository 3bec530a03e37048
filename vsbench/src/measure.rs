//! One instrumented run of a workload: set-up, the timed run, its output
//! checks against ground truth, and the virtual metrics it yields.

use crate::workload::{GroundTruth, Inputs, Workload, SIM};
use std::sync::Arc;
use std::time::Instant;
use vsensor::cluster_sim::time::VirtualTime;
use vsensor::cluster_sim::{Cluster, FaultPlan, NoiseConfig, PmuConfig};
use vsensor::interp::InstrumentedRun;
use vsensor::runtime::VarianceEvent;
use vsensor::{Pipeline, Prepared};

/// A prepared workload: the program through the static module, plus the
/// built cluster and inputs of every seed of the panel.
pub struct Setup {
    /// Compiled, analyzed and instrumented program.
    pub prepared: Prepared,
    /// The panel's input seeds.
    pub seeds: Vec<u64>,
    /// One `(inputs, cluster)` per panel seed.
    pub panel: Vec<(Inputs, Arc<Cluster>)>,
    /// Host seconds in `vsensor_lang::compile` (source generation
    /// included).
    pub compile_s: f64,
    /// Host seconds in `Pipeline::prepare`.
    pub prepare_s: f64,
    /// Host seconds for the whole set-up.
    pub total_s: f64,
}

/// Generate, compile, analyze/instrument and build the panel's clusters.
pub fn setup(workload: Workload, panel: &[u64], reduced: bool) -> Setup {
    let start = Instant::now();
    let source = workload.source(reduced);
    let program = vsensor::lang::compile(&source).expect("generated workload source compiles");
    let compile_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let prepared = Pipeline::new().prepare(program);
    let prepare_s = t.elapsed().as_secs_f64();
    let members = panel
        .iter()
        .map(|&seed| {
            let inputs = workload.inputs(seed);
            let cluster = Arc::new(inputs.cluster.clone().build());
            (inputs, cluster)
        })
        .collect();
    Setup {
        prepared,
        seeds: panel.to_vec(),
        panel: members,
        compile_s,
        prepare_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// Run `Prepared::run` on one panel seed and render the report: the
/// timed window of `wall_s`.
pub fn timed_run(setup: &Setup, member: usize) -> (InstrumentedRun, String, f64) {
    let (inputs, cluster) = &setup.panel[member];
    let start = Instant::now();
    let run = setup.prepared.run(cluster.clone(), &inputs.run);
    let text = run.report.render();
    (run, text, start.elapsed().as_secs_f64())
}

/// The deterministic outputs of a run, compared bit for bit between
/// repeats of one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Outputs {
    /// The rendered report.
    pub report: String,
    /// Per-rank end times, in virtual nanoseconds.
    pub ends: Vec<u64>,
    /// The virtual metrics derived from the run.
    pub virt: Virtual,
}

/// Metrics in virtual time or counts: exact, repeat bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct Virtual {
    /// `server_bytes / ranks / simulated seconds`, in KB.
    pub telemetry_kb_per_rank_s: f64,
    /// Virtual milliseconds from the injected onset to the first live
    /// alert that overlaps ground truth; the run end when no live alert
    /// does; 0 on a healthy workload.
    pub detect_latency_ms: f64,
    /// Reported events overlapping the ground truth.
    pub true_events: usize,
    /// Reported events that do not overlap the ground truth.
    pub false_events: usize,
}

impl Outputs {
    /// Read a run's outputs and score them against `truth`.
    pub fn of(run: &InstrumentedRun, report: String, truth: &GroundTruth) -> Outputs {
        let ranks = run.report.ranks.max(1) as f64;
        let secs = run.run_time.as_secs_f64().max(1e-12);
        let (true_events, false_events) = run.report.events.iter().fold((0, 0), |(t, f), e| {
            if overlaps(e, truth) {
                (t + 1, f)
            } else {
                (t, f + 1)
            }
        });
        let detect_latency_ms = match &truth.bad {
            None => 0.0,
            Some(bad) => {
                let seen = run
                    .alerts
                    .iter()
                    .filter(|a| a.event().is_some_and(|e| overlaps(e, truth)))
                    .map(|a| a.at)
                    .min()
                    .unwrap_or(VirtualTime::ZERO + run.run_time);
                seen.since(bad.onset).as_nanos() as f64 / 1e6
            }
        };
        Outputs {
            report,
            ends: run.ranks.iter().map(|r| r.end.as_nanos()).collect(),
            virt: Virtual {
                telemetry_kb_per_rank_s: run.report.server_bytes as f64 / 1e3 / ranks / secs,
                detect_latency_ms,
                true_events,
                false_events,
            },
        }
    }
}

/// Whether an event names the injected component on ranks of the bad node.
fn overlaps(e: &VarianceEvent, truth: &GroundTruth) -> bool {
    truth.bad.as_ref().is_some_and(|bad| {
        e.kind == bad.kind && e.first_rank <= *bad.ranks.end() && e.last_rank >= *bad.ranks.start()
    })
}

/// The output checks a repeat must pass; `Err` names the first failure.
/// Every rank must finish, and an injected degradation must be localized:
/// some event of its component lies wholly on the bad node's ranks.
pub fn check(run: &InstrumentedRun, truth: &GroundTruth, ranks: usize) -> Result<(), String> {
    if run.ranks.len() != ranks {
        return Err(format!("{} of {ranks} ranks reported", run.ranks.len()));
    }
    if let Some(bad) = &truth.bad {
        let localized = run.report.events.iter().any(|e| {
            e.kind == bad.kind
                && bad.ranks.contains(&e.first_rank)
                && bad.ranks.contains(&e.last_rank)
        });
        if !localized {
            return Err(format!(
                "bad node ranks {:?} not localized; events: {:?}",
                bad.ranks, run.report.events
            ));
        }
    }
    Ok(())
}

/// Instrumentation overhead in percent, as Table 1 measures it: the
/// workload's topology and nodes with noise, PMU jitter and telemetry
/// faults switched off, so only the probes and their transport show.
pub fn overhead_pct(setup: &Setup) -> f64 {
    let mut quiet = setup.panel[0].0.cluster.clone();
    quiet.noise = NoiseConfig::quiet();
    quiet.pmu = PmuConfig::exact();
    quiet.faults = FaultPlan::none();
    setup
        .prepared
        .measure_overhead_on(Arc::new(quiet.build()), SIM)
        * 100.0
}
