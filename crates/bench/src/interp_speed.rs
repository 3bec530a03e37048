//! Interpreter backend speed study: tree-walker vs bytecode VM.
//!
//! Runs the fig21 (CG) and fig22 (FT) workloads — in their
//! interpreted-kernel form, where the compute kernels are per-element
//! MiniHPC array loops rather than bulk builtins — under both execution
//! backends across a rank sweep, and reports wall-clock nanoseconds per
//! *simulated* second — the metric that decides how big a cluster the
//! reproduction can afford to simulate. [`InterpSpeedResult::cells`] turns
//! the sweep into the perf gate's cells (`repro interp --check`).

use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;
use vsensor::{scenarios, Pipeline, Prepared};
use vsensor_apps::{cg, ft, Params};
use vsensor_interp::{ExecBackend, RunConfig};

use crate::perf_gate::{Cell, Worse};
use crate::Effort;

/// One measured (workload, backend, ranks) cell.
#[derive(Clone, Debug)]
pub struct InterpRow {
    /// Workload name (`cg-fig21` or `ft-fig22`).
    pub workload: &'static str,
    /// Backend name (`tree-walker` or `vm`).
    pub backend: &'static str,
    /// Simulated MPI ranks.
    pub ranks: usize,
    /// Wall-clock time for the whole instrumented run.
    pub wall_ns: u64,
    /// Virtual seconds the run simulated (max over ranks).
    pub simulated_secs: f64,
    /// The headline metric: wall nanoseconds per simulated second.
    pub wall_ns_per_sim_sec: f64,
}

/// Full sweep result.
pub struct InterpSpeedResult {
    /// All measured cells, in sweep order.
    pub rows: Vec<InterpRow>,
}

impl InterpSpeedResult {
    /// Walker-time / VM-time for one (workload, ranks) pair.
    pub fn speedup(&self, workload: &str, ranks: usize) -> Option<f64> {
        let find = |backend: &str| {
            self.rows
                .iter()
                .find(|r| r.workload == workload && r.ranks == ranks && r.backend == backend)
        };
        let walker = find("tree-walker")?;
        let vm = find("vm")?;
        Some(walker.wall_ns as f64 / vm.wall_ns.max(1) as f64)
    }

    /// Human-readable table with a speedup column.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>14} {:>14} {:>16} {:>9}",
            "workload", "ranks", "walker wall", "vm wall", "vm ns/sim-sec", "speedup"
        );
        let mut keys: Vec<(&str, usize)> = Vec::new();
        for r in &self.rows {
            if !keys.contains(&(r.workload, r.ranks)) {
                keys.push((r.workload, r.ranks));
            }
        }
        for (workload, ranks) in keys {
            let find = |backend: &str| {
                self.rows
                    .iter()
                    .find(|r| r.workload == workload && r.ranks == ranks && r.backend == backend)
            };
            let (Some(w), Some(v)) = (find("tree-walker"), find("vm")) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>12.2}ms {:>12.2}ms {:>16.0} {:>8.2}x",
                workload,
                ranks,
                w.wall_ns as f64 / 1e6,
                v.wall_ns as f64 / 1e6,
                v.wall_ns_per_sim_sec,
                w.wall_ns as f64 / v.wall_ns.max(1) as f64,
            );
        }
        out
    }

    /// The gate's cells per (workload, ranks) measured under both
    /// backends: the walker→VM speedup (a same-machine ratio, portable)
    /// and the VM's wall nanoseconds per simulated second (absolute).
    pub fn cells(&self) -> Vec<Cell> {
        let mut cells = Vec::new();
        for r in self.rows.iter().filter(|r| r.backend == "vm") {
            let Some(speedup) = self.speedup(r.workload, r.ranks) else {
                continue;
            };
            let key = |metric| format!("{}/{}/{metric}", r.workload, r.ranks);
            cells.push(Cell::ratio("interp", key("vm-speedup"), speedup));
            cells.push(Cell::wall(
                "interp",
                key("vm-throughput"),
                r.wall_ns_per_sim_sec,
                Worse::Higher,
            ));
        }
        cells
    }
}

fn workloads(effort: Effort) -> Vec<(&'static str, Prepared)> {
    // The interpreted-kernel variants: the fig21/fig22 communication
    // skeletons with the compute kernels written as per-element MiniHPC
    // loops, so the measurement exercises the interpreter instead of the
    // bulk-kernel builtins. Few outer iterations over large vectors keeps
    // the collective count (a fixed cost both backends share) small
    // relative to interpreted work.
    let (cg_params, ft_params) = match effort {
        Effort::Smoke => (
            Params::test().with_iters(30).with_scale(800),
            Params::test().with_iters(25).with_scale(800),
        ),
        Effort::Paper => (
            Params::bench().with_iters(100).with_scale(8_000),
            Params::bench().with_iters(60).with_scale(8_000),
        ),
    };
    vec![
        (
            "cg-fig21",
            Pipeline::new().prepare(cg::generate_interpreted(cg_params).compile()),
        ),
        (
            "ft-fig22",
            Pipeline::new().prepare(ft::generate_interpreted(ft_params).compile()),
        ),
    ]
}

fn measure(prepared: &Prepared, ranks: usize, backend: ExecBackend) -> (u64, f64) {
    // Both executors run on the thread-per-rank oracle host: the
    // tree-walker cannot yield to the event scheduler, and a speedup is
    // only meaningful between runs on the same host.
    //
    // Cell wall timings have a heavy right tail: rank-thread scheduling
    // and allocator state left by earlier runs in the same process can
    // slow an unlucky run by ~25% without meaning anything about the
    // code. Virtual time is deterministic across repeats, so the fastest
    // of a few runs is the meaningful wall measurement — a single draw
    // would hand the perf gate a noisy trajectory.
    let reps = if ranks <= 16 { 3 } else { 2 };
    let mut best_wall_ns = u64::MAX;
    let mut simulated = 0.0f64;
    for _ in 0..reps {
        let config = RunConfig {
            backend,
            ..RunConfig::default()
        };
        let cluster = Arc::new(scenarios::healthy(ranks).build());
        let started = Instant::now();
        let run = prepared.run_oracle(cluster, &config);
        let wall_ns = started.elapsed().as_nanos() as u64;
        best_wall_ns = best_wall_ns.min(wall_ns);
        simulated = run.run_time.as_secs_f64();
    }
    (best_wall_ns, simulated)
}

/// Run the sweep: both workloads, both backends, 4 → 64 ranks.
pub fn run(effort: Effort) -> InterpSpeedResult {
    let rank_sweep: &[usize] = match effort {
        Effort::Smoke => &[4, 8],
        Effort::Paper => &[4, 16, 64],
    };
    run_with_ranks(effort, rank_sweep)
}

/// Run the sweep over an explicit rank list — the perf-regression gate
/// uses a reduced sweep whose (workload, ranks) cells still match the
/// committed baseline's.
pub fn run_with_ranks(effort: Effort, rank_sweep: &[usize]) -> InterpSpeedResult {
    let mut rows = Vec::new();
    for (workload, prepared) in workloads(effort) {
        for &ranks in rank_sweep {
            for (backend, name) in [
                (ExecBackend::TreeWalker, "tree-walker"),
                (ExecBackend::Vm, "vm"),
            ] {
                let (wall_ns, simulated_secs) = measure(&prepared, ranks, backend);
                rows.push(InterpRow {
                    workload,
                    backend: name,
                    ranks,
                    wall_ns,
                    simulated_secs,
                    wall_ns_per_sim_sec: wall_ns as f64 / simulated_secs.max(1e-9),
                });
            }
        }
    }
    InterpSpeedResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_rows_and_cells() {
        let r = run(Effort::Smoke);
        // 2 workloads × 2 rank counts × 2 backends.
        assert_eq!(r.rows.len(), 8);
        let cells = r.cells();
        assert_eq!(cells.len(), 8, "speedup + throughput per (workload, ranks)");
        assert_eq!(cells[0].key, "cg-fig21/4/vm-speedup");
        assert_eq!(cells[0].value, r.speedup("cg-fig21", 4).unwrap());
        assert_eq!(cells[1].key, "cg-fig21/4/vm-throughput");
        assert!(r.render().contains("speedup"));
        // Both backends simulated the same virtual time (bit-identity).
        for pair in r.rows.chunks(2) {
            assert_eq!(
                pair[0].simulated_secs.to_bits(),
                pair[1].simulated_secs.to_bits(),
                "{} ranks={} virtual time must match",
                pair[0].workload,
                pair[0].ranks
            );
        }
    }
}
