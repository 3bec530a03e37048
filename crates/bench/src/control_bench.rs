//! Control-plane study: the closed sensor-control loop under budgets,
//! escalation, and lossy directive channels.
//!
//! Three questions about the server→rank control plane, answered on the
//! bad-node workload family the control-loop tests use:
//!
//! 1. **Budget.** With the overhead budget set to 0.7× the steady-state
//!    instrumentation-cost rate F (measured on a permissive reference
//!    run), the controller must darken hot sensors until every rank's
//!    cumulative cost lands under the budget — while the slow-memory
//!    node is still localized by the surviving sensors.
//! 2. **Escalation.** A live variance alert must zoom exactly the
//!    suspect ranks in from the coarse slice to fine slices; every other
//!    rank stays coarse and keeps all sensors lit.
//! 3. **Loss.** With 10 % drop (plus dup/delay/corrupt) dice on the
//!    control channel, two seeded runs must agree bitwise — the
//!    directive retry/ack machinery is part of the deterministic state
//!    machine, not a wall-clock side channel.
//!
//! The `repro control` experiment exits nonzero when any of these
//! invariants fails, so CI can gate on it; its virtual-time measurements
//! (cost fractions, epoch counts) are the cells `repro control --check`
//! judges.

use std::fmt::Write;
use std::sync::Arc;
use vsensor::cluster_sim::ClusterConfig;
use vsensor::{scenarios, Pipeline, Prepared};
use vsensor_interp::{InstrumentedRun, RunConfig};
use vsensor_runtime::record::SensorKind;
use vsensor_runtime::{AlertKind, RuntimeConfig};

use crate::failstop::first_mismatch;
use crate::perf_gate::{Cell, Worse};
use crate::Effort;

const RANKS_PER_NODE: usize = 2;
/// Node 4 hosts ranks 8-9 at two ranks per node.
const BAD_NODE: usize = 4;
const BAD_RANKS: (usize, usize) = (8, 9);
const MEM_PERF: f64 = 0.55;

/// The budget workload: a hot, cheap compute sensor (5 senses per
/// iteration) next to the localizing mem sensor (4 senses), so the
/// controller has a correct sensor to darken and a wrong one to avoid.
fn budget_src(iters: usize) -> String {
    format!(
        r#"
    fn main() {{
        for (t = 0; t < {iters}; t = t + 1) {{
            for (k = 0; k < 5; k = k + 1) {{ compute(500); }}
            for (k = 0; k < 4; k = k + 1) {{ mem_access(25000); }}
            mpi_barrier();
        }}
    }}
"#
    )
}

/// Barrier-free escalation workload: without a collective to smear the
/// wait onto healthy ranks, the live alert pins the slow node itself.
fn solo_src(iters: usize) -> String {
    format!(
        r#"
    fn main() {{
        for (t = 0; t < {iters}; t = t + 1) {{
            for (k = 0; k < 4; k = k + 1) {{ mem_access(25000); }}
            compute(2000);
        }}
    }}
"#
    )
}

/// Result of the control-plane study.
pub struct ControlBenchResult {
    /// Ranks used.
    pub ranks: usize,
    /// Steady-state cost rate F of the permissive reference run.
    pub reference_fraction: f64,
    /// The budget the controlled run was held to (0.7 F).
    pub budget: f64,
    /// Worst per-rank cumulative cost fraction of the budgeted run.
    pub budgeted_fraction: f64,
    /// The budgeted run's control counters.
    pub budget_stats: vsensor_runtime::ControlStats,
    /// Whether the budgeted run still pinned the bad node.
    pub budget_localized: bool,
    /// Ranks the escalation run zoomed in (sorted, deduped).
    pub escalated: Vec<usize>,
    /// Whether every escalation directive targeted a suspect rank only.
    pub escalation_confined: bool,
    /// The lossy run's control counters (first of the two runs).
    pub lossy_stats: vsensor_runtime::ControlStats,
    /// First difference between the two seeded lossy runs (`None` means
    /// bitwise identical — the determinism invariant).
    pub lossy_mismatch: Option<String>,
}

impl ControlBenchResult {
    /// The budget invariant: cumulative cost under the budget, bad node
    /// still found.
    pub fn budget_held(&self) -> bool {
        self.budgeted_fraction <= self.budget && self.budget_localized
    }

    /// The escalation invariant: at least one suspect rank zoomed in,
    /// nobody else touched.
    pub fn escalation_ok(&self) -> bool {
        !self.escalated.is_empty() && self.escalation_confined
    }

    /// The determinism invariant: seeded lossy runs agree bitwise.
    pub fn lossy_deterministic(&self) -> bool {
        self.lossy_mismatch.is_none()
    }

    /// Render the study summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "control-plane study ({} ranks)", self.ranks);
        let _ = writeln!(
            out,
            "  budget:     F = {:.6}, budget = {:.6}, held fraction = {:.6} [{}]",
            self.reference_fraction,
            self.budget,
            self.budgeted_fraction,
            if self.budget_held() { "ok" } else { "VIOLATED" },
        );
        let s = &self.budget_stats;
        let _ = writeln!(
            out,
            "              epochs {} dark {} acked {} superseded {}",
            s.epochs_issued, s.sensors_dark, s.acked, s.superseded,
        );
        let _ = writeln!(
            out,
            "  escalation: ranks {:?} of suspect {:?} [{}]",
            self.escalated,
            BAD_RANKS,
            if self.escalation_ok() {
                "ok"
            } else {
                "VIOLATED"
            },
        );
        let l = &self.lossy_stats;
        let _ = writeln!(
            out,
            "  loss:       lost {} recovered {} acked {} — bitwise {}",
            l.lost,
            l.recovered,
            l.acked,
            if self.lossy_deterministic() {
                "identical [ok]"
            } else {
                "DIVERGED"
            },
        );
        if let Some(m) = &self.lossy_mismatch {
            let _ = writeln!(out, "              first mismatch: {m}");
        }
        out
    }

    /// The gate's cells. All are virtual-time figures, deterministic and
    /// portable: any drift is a simulation change.
    pub fn cells(&self) -> Vec<Cell> {
        [
            ("reference-cost-fraction", self.reference_fraction),
            ("budgeted-cost-fraction", self.budgeted_fraction),
            ("control-epochs", self.budget_stats.epochs_issued as f64),
            ("escalated-ranks", self.escalated.len() as f64),
        ]
        .into_iter()
        .map(|(metric, value)| {
            let key = format!("badnode/{}/{metric}", self.ranks);
            Cell::virtual_time("control", key, value, Worse::Higher)
        })
        .collect()
    }
}

/// Run the control-plane study.
pub fn run(effort: Effort) -> ControlBenchResult {
    let (ranks, budget_iters, solo_iters) = match effort {
        Effort::Smoke => (16, 8_000, 6_000),
        Effort::Paper => (32, 16_000, 8_000),
    };
    let budget_prepared = Pipeline::new()
        .compile(&budget_src(budget_iters))
        .expect("budget workload compiles");
    let solo_prepared = Pipeline::new()
        .compile(&solo_src(solo_iters))
        .expect("escalation workload compiles");

    // Escalation disabled on the budget runs: a fine slice equal to the
    // coarse slice makes the zoom-in factor 1.
    let no_escalation = |runtime: RuntimeConfig| {
        let slice = runtime.slice;
        runtime
            .with_escalation_slice(slice)
            .expect("the coarse slice divides itself")
    };

    // 1. Budget: permissive reference measures F, then hold 0.7 F.
    let (cluster, runtime) = scenarios::overhead_budgeted(ranks, BAD_NODE, MEM_PERF, 0.5);
    let reference = run_one(&budget_prepared, cluster, no_escalation(runtime));
    let reference_fraction = worst_cost_fraction(&reference);
    let budget = reference_fraction * 0.7;
    let (cluster, runtime) = scenarios::overhead_budgeted(ranks, BAD_NODE, MEM_PERF, budget);
    let budgeted = run_one(&budget_prepared, cluster, no_escalation(runtime));
    let budgeted_fraction = worst_cost_fraction(&budgeted);
    let budget_stats = budgeted
        .server
        .control
        .clone()
        .expect("control plane armed");
    let budget_localized = computation_pins(&budgeted).contains(&BAD_RANKS);

    // 2. Escalation: live alert zooms in only the suspect ranks. The
    //    slow node's mem-sensor performance is ~0.75 against healthy
    //    ~0.95, so split them at 0.85; stretch the liveness horizon so
    //    the barrier-free tail skew is not mistaken for deaths.
    let (cluster, runtime) = scenarios::alert_escalation(ranks, BAD_NODE, MEM_PERF, 250);
    let runtime = runtime
        .with_variance_threshold(0.85)
        .expect("threshold in range")
        .with_liveness_intervals(50)
        .expect("intervals positive");
    let escalation = run_one(&solo_prepared, cluster, runtime);
    let schedule = escalation.analysis.control_schedule();
    let mut escalated: Vec<usize> = schedule
        .iter()
        .filter(|e| e.subdiv > 1)
        .map(|e| e.rank)
        .collect();
    escalated.sort_unstable();
    escalated.dedup();
    let escalation_confined = schedule
        .iter()
        .all(|e| (BAD_RANKS.0..=BAD_RANKS.1).contains(&e.rank) && e.disabled.is_empty());

    // 3. Loss: the budgeted scenario under seeded directive dice, twice.
    let lossy = |prepared: &Prepared| {
        let base = scenarios::overhead_budgeted(ranks, BAD_NODE, MEM_PERF, budget);
        let (cluster, runtime) = scenarios::lossy_control(base, 0.1, 7);
        run_one(prepared, cluster, no_escalation(runtime))
    };
    let first = lossy(&budget_prepared);
    let second = lossy(&budget_prepared);
    let lossy_mismatch = first_mismatch(&first.server, &second.server);
    let lossy_stats = first.server.control.clone().expect("control plane armed");

    ControlBenchResult {
        ranks,
        reference_fraction,
        budget,
        budgeted_fraction,
        budget_stats,
        budget_localized,
        escalated,
        escalation_confined,
        lossy_stats,
        lossy_mismatch,
    }
}

fn run_one(prepared: &Prepared, cluster: ClusterConfig, runtime: RuntimeConfig) -> InstrumentedRun {
    let config = RunConfig {
        runtime,
        ..Default::default()
    };
    prepared.run(
        Arc::new(cluster.with_ranks_per_node(RANKS_PER_NODE).build()),
        &config,
    )
}

/// Worst per-rank cumulative instrumentation-cost fraction, as the
/// budget controller models it.
fn worst_cost_fraction(outcome: &InstrumentedRun) -> f64 {
    let costs = outcome
        .analysis
        .control_costs()
        .expect("control plane armed");
    let run_ns = outcome.run_time.as_nanos() as f64;
    costs.iter().map(|&c| c as f64 / run_ns).fold(0.0, f64::max)
}

fn computation_pins(outcome: &InstrumentedRun) -> Vec<(usize, usize)> {
    outcome
        .report
        .events
        .iter()
        .filter(|e| e.kind == SensorKind::Computation)
        .map(|e| (e.first_rank, e.last_rank))
        .collect()
}

/// Variance-alert rank spans, used by the escalation smoke in tests.
pub fn live_spans(outcome: &InstrumentedRun) -> Vec<(usize, usize)> {
    outcome
        .alerts
        .iter()
        .filter_map(|a| match &a.kind {
            AlertKind::Variance(e) => Some((e.first_rank, e.last_rank)),
            _ => None,
        })
        .collect()
}
