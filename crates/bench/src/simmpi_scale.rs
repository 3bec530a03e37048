//! Rank-scaling study for the event-driven simulator backend.
//!
//! The paper evaluates vSensor at 16,384 MPI processes; the reproduction
//! must therefore *host* 16,384 simulated ranks in one address space. The
//! event scheduler does, and this module records how its throughput scales
//! with the rank count.
//!
//! The workload is the communication shape the eight miniapps share: a
//! compute slice, a neighbour `mpi_sendrecv` ring exchange, an
//! `mpi_allreduce`, and an `mpi_barrier` per outer iteration. Two metrics
//! per rank count:
//!
//! - **`rank_iters_per_virtual_sec`** — simulated work per virtual second.
//!   Virtual time is deterministic (bit-identical across repeats and
//!   machines), so this cell is portable: any drift means the
//!   *simulation itself* changed, not the machine.
//! - **`rank_iters_per_wall_sec`** — simulated work per wall-clock second,
//!   the scheduler's real throughput. Machine-dependent, so the portable
//!   cell is the *ratio* between adjacent rank counts (scaling
//!   efficiency); the absolute figure is gated only on comparable
//!   hardware.
//!
//! The committed baseline records the 1,024 → 16,384 scaling curve.

use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;
use vsensor::{scenarios, Pipeline, Prepared};

use crate::perf_gate::{Cell, Worse};
use crate::Effort;

/// Outer iterations of the ring/allreduce/barrier loop per rank.
const ITERS: usize = 24;

/// Wall samples per rank count; the fastest is recorded.
const REPS: usize = 5;

/// One measured rank count.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Outer iterations each rank executed.
    pub iterations: usize,
    /// Virtual seconds the run simulated (max over ranks) — deterministic.
    pub virtual_secs: f64,
    /// Rank-iterations per virtual second: `ranks * iterations /
    /// virtual_secs`. Deterministic; the gate's primary column.
    pub rank_iters_per_virtual_sec: f64,
    /// Wall-clock nanoseconds for the whole run (fastest of [`REPS`]).
    pub wall_ns: u64,
    /// Rank-iterations per wall second — the scheduler's real throughput.
    pub rank_iters_per_wall_sec: f64,
}

/// Full sweep result.
pub struct ScaleResult {
    /// One row per rank count, ascending.
    pub rows: Vec<ScaleRow>,
}

impl ScaleResult {
    /// Scaling efficiency between two rank counts: wall throughput at
    /// `hi` ranks divided by wall throughput at `lo` ranks. 1.0 means the
    /// scheduler's cost per rank-iteration is flat across the scale; the
    /// gate fails CI when this ratio collapses.
    pub fn scaling_efficiency(&self, lo: usize, hi: usize) -> Option<f64> {
        let find = |ranks| self.rows.iter().find(|r| r.ranks == ranks);
        let a = find(lo)?;
        let b = find(hi)?;
        Some(b.rank_iters_per_wall_sec / a.rank_iters_per_wall_sec.max(1e-9))
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simmpi event-backend rank scaling ({ITERS} ring+allreduce+barrier iterations/rank)"
        );
        let _ = writeln!(
            out,
            "{:>7} {:>12} {:>18} {:>12} {:>18}",
            "ranks", "virtual(s)", "iters/virt-sec", "wall(ms)", "iters/wall-sec"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>7} {:>12.4} {:>18.0} {:>12.2} {:>18.0}",
                r.ranks,
                r.virtual_secs,
                r.rank_iters_per_virtual_sec,
                r.wall_ns as f64 / 1e6,
                r.rank_iters_per_wall_sec,
            );
        }
        for pair in self.rows.windows(2) {
            let (lo, hi) = (pair[0].ranks, pair[1].ranks);
            if let Some(eff) = self.scaling_efficiency(lo, hi) {
                let _ = writeln!(out, "scaling efficiency {lo} -> {hi} ranks: {eff:.2}x");
            }
        }
        out
    }

    /// The gate's cells: per rank count the virtual-time throughput
    /// (portable) and the wall throughput (absolute), then the scaling
    /// ratio of each *adjacent* pair keyed by its upper rank count — a
    /// collapsing 4K→16K tail cannot hide behind a healthy 1K→4K head
    /// the way it could in one widest-span ratio.
    pub fn cells(&self) -> Vec<Cell> {
        let key = |ranks, metric| format!("simmpi/{ranks}/{metric}");
        let mut cells = Vec::new();
        for r in &self.rows {
            cells.push(Cell::virtual_time(
                "simmpi",
                key(r.ranks, "virt-throughput"),
                r.rank_iters_per_virtual_sec,
                Worse::Lower,
            ));
            cells.push(Cell::wall(
                "simmpi",
                key(r.ranks, "wall-throughput"),
                r.rank_iters_per_wall_sec,
                Worse::Lower,
            ));
        }
        for pair in self.rows.windows(2) {
            let (lo, hi) = (pair[0].ranks, pair[1].ranks);
            if let Some(ratio) = self.scaling_efficiency(lo, hi) {
                cells.push(Cell::ratio("simmpi", key(hi, "scaling-ratio"), ratio));
            }
        }
        cells
    }
}

/// The shared communication skeleton: compute, neighbour ring exchange,
/// allreduce, barrier. Uninstrumented — the study measures the scheduler,
/// not the sensor runtime.
fn workload() -> Prepared {
    let src = format!(
        r#"
        fn main() {{
            int p = mpi_comm_size();
            int r = mpi_comm_rank();
            int right = (r + 1) % p;
            int left = (r + p - 1) % p;
            for (it = 0; it < {ITERS}; it = it + 1) {{
                compute(1500);
                mpi_sendrecv(right, 4096, left, 7);
                mpi_allreduce(256);
                mpi_barrier();
            }}
        }}
        "#
    );
    Pipeline::new()
        .compile(&src)
        .expect("scaling workload compiles")
}

/// One run at `ranks`.
fn measure(prepared: &Prepared, ranks: usize) -> ScaleRow {
    let cluster = Arc::new(scenarios::quiet(ranks).build());
    let started = Instant::now();
    let results = prepared.run_plain(cluster);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let virtual_secs = results
        .iter()
        .map(|r| r.end.as_secs_f64())
        .fold(0.0, f64::max);
    let rank_iters = (ranks * ITERS) as f64;
    ScaleRow {
        ranks,
        iterations: ITERS,
        virtual_secs,
        rank_iters_per_virtual_sec: rank_iters / virtual_secs.max(1e-9),
        wall_ns,
        rank_iters_per_wall_sec: rank_iters / (wall_ns as f64 / 1e9).max(1e-9),
    }
}

/// Per-phase scheduler profile of one event-backend run — the data
/// behind `repro simmpi --profile`. The event scheduler's dispatch loop
/// accounts its four phases (due-set selection incl. heap ops, task
/// resumption, effect commit, collective completion) into the SCHED
/// trace category; this surfaces where a scaling regression lives
/// without reaching for an external profiler.
pub struct ScaleProfile {
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Scheduler phases (distinct dispatch instants) the run executed.
    pub phases: u64,
    /// Total task resumptions across all phases.
    pub resumed: u64,
    /// Wall nanoseconds for the whole run.
    pub wall_ns: u64,
    /// `(phase name, wall ns)` as recorded by the scheduler.
    pub phase_ns: Vec<(&'static str, u64)>,
}

impl ScaleProfile {
    /// Human-readable breakdown table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simmpi scheduler profile: {} ranks, {} dispatch phases, {} resumptions",
            self.ranks, self.phases, self.resumed
        );
        let _ = writeln!(out, "{:>20} {:>12} {:>8}", "phase", "wall(ms)", "share");
        let accounted: u64 = self.phase_ns.iter().map(|(_, ns)| ns).sum();
        for (name, ns) in &self.phase_ns {
            let _ = writeln!(
                out,
                "{:>20} {:>12.2} {:>7.1}%",
                name,
                *ns as f64 / 1e6,
                *ns as f64 * 100.0 / (self.wall_ns as f64).max(1.0),
            );
        }
        let _ = writeln!(
            out,
            "{:>20} {:>12.2} {:>7.1}%  (task construction, output collection)",
            "other",
            self.wall_ns.saturating_sub(accounted) as f64 / 1e6,
            self.wall_ns.saturating_sub(accounted) as f64 * 100.0 / (self.wall_ns as f64).max(1.0),
        );
        let _ = writeln!(out, "{:>20} {:>12.2}", "total", self.wall_ns as f64 / 1e6);
        out
    }
}

/// Run the scaling workload once at `ranks` with the SCHED trace category
/// enabled and aggregate the scheduler's phase accounting. Tracing forces
/// serial dispatch (trace buffers are per-thread), so the profile always
/// describes the single-worker loop.
pub fn profile(ranks: usize) -> ScaleProfile {
    use cluster_sim::trace::{Category, TraceSession};
    let prepared = workload();
    let session = TraceSession::start(Category::SCHED);
    let cluster = Arc::new(scenarios::quiet(ranks).build());
    let started = Instant::now();
    let _ = prepared.run_plain(cluster);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let trace = session.finish();
    let mut phase_ns = Vec::new();
    let (mut phases, mut resumed) = (0u64, 0u64);
    for ev in trace.of(Category::SCHED) {
        phase_ns.push((ev.name, ev.dur));
        phases = phases.max(ev.a);
        resumed = resumed.max(ev.b);
    }
    ScaleProfile {
        ranks,
        phases,
        resumed,
        wall_ns,
        phase_ns,
    }
}

/// Run the sweep at the default rank curve for the effort level. Paper
/// effort records the committed 1,024 → 16,384 curve.
pub fn run(effort: Effort) -> ScaleResult {
    let rank_sweep: &[usize] = match effort {
        Effort::Smoke => &[64, 256],
        Effort::Paper => &[1024, 4096, 16384],
    };
    run_with_ranks(rank_sweep)
}

/// Run the sweep over an explicit rank list (`repro simmpi --ranks N`).
///
/// Virtual time is deterministic across repeats; wall time is not, and
/// has a heavy right tail from allocator state and other tenants of the
/// machine, so every rank count keeps the fastest of [`REPS`] runs. The
/// repeats go round the whole curve rather than one point at a time, so
/// a slow stretch of the machine lands on every point the gate compares
/// instead of on one of them.
pub fn run_with_ranks(rank_sweep: &[usize]) -> ScaleResult {
    let prepared = workload();
    let mut rows: Vec<ScaleRow> = rank_sweep
        .iter()
        .map(|&ranks| measure(&prepared, ranks))
        .collect();
    for _ in 1..REPS {
        for row in &mut rows {
            let again = measure(&prepared, row.ranks);
            if again.wall_ns < row.wall_ns {
                *row = again;
            }
        }
    }
    ScaleResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_rows_and_cells() {
        let r = run(Effort::Smoke);
        assert_eq!(r.rows.len(), 2);
        assert!(r.scaling_efficiency(64, 256).is_some());
        for row in &r.rows {
            assert!(row.virtual_secs > 0.0, "{} ranks simulated time", row.ranks);
            assert!(row.rank_iters_per_virtual_sec > 0.0);
            assert!(row.rank_iters_per_wall_sec > 0.0);
        }
        let keys: Vec<String> = r.cells().into_iter().map(|c| c.key).collect();
        assert_eq!(
            keys,
            [
                "simmpi/64/virt-throughput",
                "simmpi/64/wall-throughput",
                "simmpi/256/virt-throughput",
                "simmpi/256/wall-throughput",
                "simmpi/256/scaling-ratio",
            ]
        );
        assert!(r.render().contains("iters/wall-sec"));
    }

    #[test]
    fn virtual_throughput_is_deterministic() {
        let a = run_with_ranks(&[64]);
        let b = run_with_ranks(&[64]);
        assert_eq!(
            a.rows[0].rank_iters_per_virtual_sec.to_bits(),
            b.rows[0].rank_iters_per_virtual_sec.to_bits(),
            "virtual-time throughput must be bit-identical across repeats"
        );
    }
}
