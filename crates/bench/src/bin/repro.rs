//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--smoke] [--out DIR] [--ranks N] [--profile] [experiment...]
//! repro [--check [--ratio-only] [--stats] [--history PATH]] [experiment...]
//! repro gate [--ratio-only] [--stats] [--history PATH]
//! repro --list
//! ```
//!
//! With no experiment names, runs everything. `--smoke` uses the reduced
//! scale (what the unit tests run); the default is the full reproduction
//! scale (use a release build). `--out DIR` additionally writes plottable
//! artifacts — SVG/PPM heatmaps and CSV series — into `DIR`, plus one
//! `<suite>.cells.jsonl` per gated study (`interp`, `service`, `simmpi`,
//! `control`); nothing is written anywhere else. `--ranks N` overrides
//! the rank count for the experiments that accept one: `table1` builds
//! the table at N ranks on the event scheduler (`--ranks 16384`
//! reproduces the paper's process count), and `simmpi` measures the
//! scaling curve at N ranks only.
//!
//! `--check` turns the four gated studies into the CI perf-regression
//! gate: each measures at paper scale, reports its cells, and the cells
//! are judged against the committed `BENCH_baseline.jsonl`; the process
//! exits nonzero when any judged study regressed. `--ratio-only` judges
//! only machine-independent cells (same-machine ratios, virtual-time
//! figures, correctness bits) — required on hardware that is not
//! comparable to the baseline machine (shared CI runners). `--stats`
//! makes the verdict variance-aware: once a cell has 5 recorded runs in
//! the history (`--history PATH`, else the committed
//! `BENCH_history.jsonl`), it is judged against the latest change-point
//! regime's median ± `max(3·MAD, floor)` instead of the fixed 25 % band.
//! The fresh cells are appended to `--history PATH` when one is named —
//! even when a gate fails, so the change-point analysis can see the
//! failing regime form — and never to a file that was not named. `gate`
//! is the name that selects all four studies with `--check`.
//!
//! Refreshing the baseline is an explicit step: run the studies without
//! `--check` at paper scale with `--out DIR`, then concatenate the
//! `DIR/*.cells.jsonl` files into `BENCH_baseline.jsonl`.
//!
//! `repro simmpi --profile` prints the event scheduler's per-phase wall
//! breakdown (due-set selection and heap ops, task execution, effect
//! commit, collective completion) for one run at `--ranks` (default
//! 4,096).

use cluster_sim::time::Duration;
use std::path::{Path, PathBuf};
use vsensor_bench::perf_gate::{self, Cell, GateReport, HistoryCell};
use vsensor_bench::*;
use vsensor_runtime::record::SensorKind;
use vsensor_viz::{render_ppm, render_svg, HeatmapOptions};

const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "Figure 1: run-to-run variance of FT on fixed nodes"),
    ("table1", "Table 1: per-program validation and overhead"),
    ("fig12", "Figure 12: smoothing out background noise"),
    ("fig13", "Figure 13: cache-miss dynamic rule"),
    ("fig14", "Figure 14: normal-run performance matrix"),
    (
        "fig16",
        "Figures 15-17: sense duration/interval distributions",
    ),
    ("fig18", "Figures 18-20: noise injection, mpiP vs vSensor"),
    ("fig21", "Figure 21: CG bad-node case study"),
    ("fig22", "Figure 22: FT network-degradation case study"),
    ("datavolume", "S6.4: trace volume vs vSensor data volume"),
    ("fwq", "S1: FWQ benchmark intrusiveness vs vSensor overhead"),
    ("ablations", "Design-choice ablation sweeps"),
    (
        "interp",
        "Interpreter backend speed: tree-walker vs bytecode VM",
    ),
    (
        "trace",
        "Traced degraded-transport run: Chrome trace JSON + per-category summary",
    ),
    (
        "failstop",
        "Fail-stop robustness: node-death localization + WAL crash-recovery equivalence",
    ),
    (
        "service",
        "Multi-tenant service: fairness, isolation, failover",
    ),
    (
        "failover",
        "Multi-tenant failover smoke: standby promotion must be bitwise-identical",
    ),
    ("simmpi", "Event-backend rank-scaling curve to 16,384 ranks"),
    (
        "control",
        "Control plane: overhead budget, alert escalation, lossy-channel determinism",
    ),
    (
        "gate",
        "The four gated studies with --check, judged against BENCH_baseline.jsonl",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for (name, desc) in EXPERIMENTS {
            println!("{name:<12} {desc}");
        }
        return;
    }
    let effort = if args.iter().any(|a| a == "--smoke") {
        Effort::Smoke
    } else {
        Effort::Paper
    };
    let ratio_only = args.iter().any(|a| a == "--ratio-only");
    let profile = args.iter().any(|a| a == "--profile");
    let stats = args.iter().any(|a| a == "--stats");
    let history_arg: Option<&String> = args
        .iter()
        .position(|a| a == "--history")
        .and_then(|i| args.get(i + 1));
    let out_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }
    let out_args: Vec<String> = out_dir.iter().map(|d| d.display().to_string()).collect();
    let ranks_arg: Option<&String> = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1));
    let ranks_override: Option<usize> = ranks_arg.map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--ranks needs a positive integer, got `{v}`");
            std::process::exit(2);
        })
    });
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| !out_args.contains(a))
        .filter(|a| Some(*a) != ranks_arg)
        .filter(|a| Some(*a) != history_arg)
        .map(String::as_str)
        .collect();
    let run_all = selected.is_empty();
    // `gate` is only a name for the four gated studies under `--check`.
    let gate_all = selected.contains(&"gate");
    let check = gate_all || args.iter().any(|a| a == "--check");
    let want =
        |name: &str| run_all || selected.contains(&name) || (gate_all && GATED.contains(&name));

    let mut unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|s| !EXPERIMENTS.iter().any(|(n, _)| n == s))
        .collect();
    if !unknown.is_empty() {
        unknown.sort_unstable();
        eprintln!("unknown experiment(s): {} — try --list", unknown.join(", "));
        std::process::exit(2);
    }

    let mut gate = check.then(|| Gate::load(ratio_only, stats, history_arg));

    println!("vSensor reproduction harness — effort: {:?}\n", effort);

    if want("fig1") {
        section("fig1");
        println!("{}", fig01_variance::run(effort, 40).render());
    }
    if want("table1") {
        section("table1");
        let t = match ranks_override {
            Some(ranks) => table1_validation::run_at(effort, ranks),
            None => table1_validation::run(effort),
        };
        println!("{}", t.render());
        write_artifact(&out_dir, "table1.csv", &t.to_csv());
    }
    if want("fig12") {
        section("fig12");
        let total = match effort {
            Effort::Smoke => Duration::from_millis(50),
            Effort::Paper => Duration::from_millis(200),
        };
        let r = fig12_smoothing::run(total);
        println!("{}", r.render());
        write_artifact(&out_dir, "fig12.csv", &r.to_csv());
    }
    if want("fig13") {
        section("fig13");
        let iters = match effort {
            Effort::Smoke => 1200,
            Effort::Paper => 6000,
        };
        println!("{}", fig13_dynrules::run(iters).render());
    }
    if want("fig14") {
        section("fig14");
        let r = fig14_matrix::run(effort);
        println!("{}", r.render());
        write_matrix(
            &out_dir,
            "fig14",
            r.run
                .server
                .matrix(SensorKind::Computation)
                .expect("component matrix"),
            "Figure 14: computation matrix, normal run",
            0.5,
        );
    }
    if want("fig16") {
        section("fig16");
        let r = fig16_distribution::run(effort);
        println!("{}", r.render_summary());
        println!("{}", r.render_durations());
        println!("{}", r.render_intervals());
    }
    if want("fig18") {
        section("fig18");
        let r = fig18_injection::run(effort);
        println!("{}", r.render());
        write_matrix(
            &out_dir,
            "fig20",
            r.injected_run
                .server
                .matrix(SensorKind::Computation)
                .expect("component matrix"),
            "Figure 20: computation matrix, noise-injected run",
            0.5,
        );
    }
    if want("fig21") {
        section("fig21");
        let r = fig21_badnode::run(effort);
        println!("{}", r.render());
        write_matrix(
            &out_dir,
            "fig21",
            r.with_bad_node
                .server
                .matrix(SensorKind::Computation)
                .expect("component matrix"),
            "Figure 21: computation matrix, bad node",
            0.7,
        );
    }
    if want("fig22") {
        section("fig22");
        let r = fig22_network::run(effort);
        println!("{}", r.render());
        write_matrix(
            &out_dir,
            "fig22",
            r.degraded
                .server
                .matrix(SensorKind::Network)
                .expect("component matrix"),
            "Figure 22: network matrix, degraded interconnect",
            0.5,
        );
    }
    if want("datavolume") {
        section("datavolume");
        println!("{}", datavolume::run(effort).render());
    }
    if want("fwq") {
        section("fwq");
        println!("{}", fwq_intrusiveness::run(effort).render());
    }
    if want("ablations") {
        section("ablations");
        println!("{}", ablations::render_all(effort));
    }
    if want("interp") {
        section("interp");
        // The gate re-measures the two cheapest rank counts of the
        // committed paper-scale sweep; the 64-rank cells are reported as
        // skipped, not failed.
        let r = if check {
            interp_speed::run_with_ranks(Effort::Paper, &[4, 16])
        } else {
            interp_speed::run(effort)
        };
        println!("{}", r.render());
        measured(&mut gate, &out_dir, "interp", r.cells());
    }
    if want("trace") {
        section("trace");
        let r = trace_run::run(effort);
        println!("{}", r.render());
        write_artifact(&out_dir, "trace.json", &r.chrome_json());
        write_artifact(&out_dir, "trace_summary.txt", &r.summary());
    }
    if want("failstop") {
        section("failstop");
        let r = failstop::run(effort);
        println!("{}", r.render());
        if !r.recovery_equivalent() {
            eprintln!("failstop: crash recovery is NOT bitwise equivalent — failing");
            std::process::exit(1);
        }
    }
    if want("service") {
        section("service");
        let r = service_bench::run(if check { Effort::Paper } else { effort });
        println!("{}", r.render());
        exit_unless_service_invariants(&r);
        measured(&mut gate, &out_dir, "service", r.cells());
    }
    if want("simmpi") {
        section("simmpi");
        if profile {
            // Per-phase wall breakdown of the event scheduler's dispatch
            // loop, from the SCHED trace category: where does a
            // rank-iteration's wall time go — heap ops, task execution,
            // effect commit, or collective completion?
            let ranks = ranks_override.unwrap_or(match effort {
                Effort::Smoke => 256,
                Effort::Paper => 4096,
            });
            println!("{}", simmpi_scale::profile(ranks).render());
        } else {
            // The gate re-measures the whole committed curve, including
            // the 16,384-rank point the event scheduler finishes in
            // seconds.
            let r = if check {
                simmpi_scale::run(Effort::Paper)
            } else if let Some(ranks) = ranks_override {
                simmpi_scale::run_with_ranks(&[ranks])
            } else {
                simmpi_scale::run(effort)
            };
            println!("{}", r.render());
            measured(&mut gate, &out_dir, "simmpi", r.cells());
        }
    }
    if want("control") {
        section("control");
        let r = control_bench::run(if check { Effort::Paper } else { effort });
        println!("{}", r.render());
        exit_unless_control_invariants(&r);
        measured(&mut gate, &out_dir, "control", r.cells());
    }
    // `failover` is the CI smoke alias for the service study's failover
    // invariants — explicit-only so a bare `repro` does not run the
    // 16-tenant study twice.
    if selected.contains(&"failover") {
        section("failover");
        let r = service_bench::run(effort);
        println!("{}", r.render());
        exit_unless_service_invariants(&r);
    }
    if let Some(gate) = gate {
        gate.finish();
    }
}

/// The studies whose cells the perf gate judges.
const GATED: [&str; 4] = ["interp", "service", "simmpi", "control"];

/// The committed baseline and seed history, next to the workspace root.
fn committed(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name)
}

/// File one study's cells: into `--out` when given, and before the
/// gate when `--check` is on.
fn measured(gate: &mut Option<Gate>, out_dir: &Option<PathBuf>, suite: &str, cells: Vec<Cell>) {
    write_artifact(
        out_dir,
        &format!("{suite}.cells.jsonl"),
        &perf_gate::jsonl(&cells, 0),
    );
    if let Some(gate) = gate {
        gate.judge(cells);
    }
}

/// The `--check` state: the committed baseline, the history `--stats`
/// judges against, where to append, and the verdicts so far.
struct Gate {
    portable_only: bool,
    stats: bool,
    baseline: Vec<HistoryCell>,
    history: Vec<HistoryCell>,
    append_to: Option<PathBuf>,
    reports: Vec<GateReport>,
}

impl Gate {
    fn load(portable_only: bool, stats: bool, history_arg: Option<&String>) -> Self {
        let path = committed("BENCH_baseline.jsonl");
        let baseline = std::fs::read_to_string(&path)
            .map(|text| perf_gate::parse_history(&text))
            .unwrap_or_else(|e| {
                eprintln!("perf gate: cannot read {}: {e}", path.display());
                std::process::exit(2);
            });
        let append_to = history_arg.map(PathBuf::from);
        // A missing history file is an empty history, not an error: the
        // stats gate falls back to the fixed band until runs accumulate.
        let history_path = append_to
            .clone()
            .unwrap_or_else(|| committed("BENCH_history.jsonl"));
        let text = std::fs::read_to_string(history_path).unwrap_or_default();
        Gate {
            portable_only,
            stats,
            baseline,
            history: perf_gate::parse_history(&text),
            append_to,
            reports: Vec::new(),
        }
    }

    fn judge(&mut self, cells: Vec<Cell>) {
        let mut report = perf_gate::compare(&self.baseline, cells, self.portable_only);
        if self.stats {
            perf_gate::apply_history(&mut report, &self.history);
        }
        println!("{}", report.render());
        self.reports.push(report);
    }

    /// Append the judged cells to the named history, pass or fail — the
    /// change-point analysis needs to see a failing regime *form*, and a
    /// torn append is tolerated by the valid-prefix parser — then exit
    /// nonzero if any study regressed.
    fn finish(self) {
        if let Some(path) = &self.append_to {
            let run = perf_gate::next_history_run(&self.history);
            let lines: String = self
                .reports
                .iter()
                .map(|r| perf_gate::history_lines(r, run))
                .collect();
            use std::io::Write as _;
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(lines.as_bytes()))
                .unwrap_or_else(|e| {
                    eprintln!("gate: cannot append history to {}: {e}", path.display());
                    std::process::exit(2);
                });
            println!("[appended run {run} to {}]", path.display());
        }
        if !self.reports.iter().all(GateReport::passed) {
            std::process::exit(1);
        }
    }
}

/// Exit nonzero unless the control-plane study's three invariants hold:
/// the overhead budget is respected without losing localization, alert
/// escalation stays confined to the suspect ranks, and seeded lossy
/// control runs are bitwise deterministic.
fn exit_unless_control_invariants(r: &control_bench::ControlBenchResult) {
    let mut failed = false;
    if !r.budget_held() {
        eprintln!(
            "control: budget violated or localization lost (fraction {} vs budget {}, localized {})",
            r.budgeted_fraction, r.budget, r.budget_localized
        );
        failed = true;
    }
    if !r.escalation_ok() {
        eprintln!(
            "control: escalation left the suspect ranks: {:?}",
            r.escalated
        );
        failed = true;
    }
    if !r.lossy_deterministic() {
        eprintln!(
            "control: lossy runs diverged: {:?}",
            r.lossy_mismatch.as_deref()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Exit nonzero unless the service study's three invariants hold:
/// failover bitwise-equivalence, healthy-tenant isolation, and
/// hot-tenant-only backpressure.
fn exit_unless_service_invariants(r: &service_bench::ServiceBenchResult) {
    let mut failed = false;
    if !r.failover_equivalent() {
        eprintln!(
            "service: post-failover results are NOT bitwise equivalent: {:?}",
            r.failover_mismatches.iter().flatten().next()
        );
        failed = true;
    }
    if !r.isolation_holds() {
        eprintln!(
            "service: a healthy tenant deviates from its solo run: {:?}",
            r.healthy_mismatches.iter().flatten().next()
        );
        failed = true;
    }
    if !r.backpressure_is_fair() {
        eprintln!(
            "service: backpressure is unfair (hot {}, steady max {})",
            r.hot_backpressured, r.max_steady_backpressured
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

fn write_artifact(out_dir: &Option<PathBuf>, name: &str, content: &str) {
    if let Some(dir) = out_dir {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write artifact");
        println!("[wrote {}]", path.display());
    }
}

fn write_matrix(
    out_dir: &Option<PathBuf>,
    stem: &str,
    matrix: &vsensor_runtime::PerformanceMatrix,
    title: &str,
    white_at: f64,
) {
    let opts = HeatmapOptions {
        max_cols: 400,
        max_rows: 256,
        white_at,
    };
    write_artifact(
        out_dir,
        &format!("{stem}.svg"),
        &render_svg(matrix, title, &opts),
    );
    write_artifact(out_dir, &format!("{stem}.ppm"), &render_ppm(matrix, &opts));
}

fn section(name: &str) {
    let desc = EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, d)| *d)
        .unwrap_or("");
    println!("{}", "=".repeat(72));
    println!("== {name}: {desc}");
    println!("{}", "=".repeat(72));
}
