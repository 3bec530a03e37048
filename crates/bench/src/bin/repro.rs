//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--smoke] [--out DIR] [--ranks N] [--check [--ratio-only]] [--profile] [experiment...]
//! repro gate [--stats] [--ratio-only] [--history PATH] [--allow-new-cells]
//! repro --list
//! ```
//!
//! With no experiment names, runs everything. `--smoke` uses the reduced
//! scale (what the unit tests run); the default is the full reproduction
//! scale (use a release build). `--out DIR` additionally writes plottable
//! artifacts — SVG/PPM heatmaps and CSV series — into `DIR`. `--ranks N`
//! overrides the rank count for the experiments that accept one: `table1`
//! builds the table at N ranks on the event scheduler (`--ranks 16384`
//! reproduces the paper's process count), and `simmpi` measures the
//! scaling curve at N ranks only. `--check` turns the `interp`, `service`
//! and `simmpi` experiments into the CI perf-regression gate: a reduced
//! paper-scale measurement is compared against the committed
//! `BENCH_*.json` and the process exits nonzero on regression.
//! `--ratio-only` restricts the gates to machine-independent checks
//! (same-machine ratios and virtual-time figures), dropping absolute
//! wall-clock comparisons — required on hardware that is not comparable
//! to the baseline machine (shared CI runners).
//!
//! `repro gate` (explicit-only, like `failover`) runs the perf gates and
//! the control-plane study in
//! one invocation and **appends** the fresh measurements to the history
//! file (`BENCH_history.jsonl`, override with `--history PATH`) — even
//! when a gate fails, so the change-point analysis can see the failing
//! regime form. `--stats` makes every gate variance-aware: once a cell
//! has 5 recorded runs, the verdict comes from the recorded history
//! (latest change-point regime median ± `max(3·MAD, floor)`) instead of
//! the fixed 25 % band; shallower cells keep the fixed band. `--stats`
//! also works with the individual `interp`/`service`/`simmpi --check`
//! gates (read-only — only `gate` appends). `--allow-new-cells` accepts
//! measured cells that are missing from the committed baseline (the
//! intended flag when regenerating a baseline that grew a cell);
//! without it, a new unmeasured cell fails the gate hard.
//!
//! `repro simmpi --profile`
//! prints the event scheduler's per-phase wall breakdown (due-set
//! selection and heap ops, task execution, effect commit, collective
//! completion) for one run at `--ranks` (default 4,096).

use cluster_sim::time::Duration;
use std::path::PathBuf;
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
        "Interpreter backend speed: tree-walker vs bytecode VM (BENCH_interp.json)",
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
        "Multi-tenant service: fairness, isolation, failover (BENCH_service.json)",
    ),
    (
        "failover",
        "Multi-tenant failover smoke: standby promotion must be bitwise-identical",
    ),
    (
        "simmpi",
        "Event-backend rank-scaling curve to 16,384 ranks (BENCH_simmpi.json)",
    ),
    (
        "control",
        "Control plane: overhead budget, alert escalation, lossy-channel determinism",
    ),
    (
        "gate",
        "All perf gates + control study + history accumulation (BENCH_history.jsonl)",
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
    let check = args.iter().any(|a| a == "--check");
    let ratio_only = args.iter().any(|a| a == "--ratio-only");
    let profile = args.iter().any(|a| a == "--profile");
    let stats = args.iter().any(|a| a == "--stats");
    let allow_new_cells = args.iter().any(|a| a == "--allow-new-cells");
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
    let want = |name: &str| run_all || selected.contains(&name);

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

    let gate_ctx = GateCtx::load(stats, allow_new_cells, history_arg);

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
        if check {
            if !run_perf_gate(!ratio_only, &gate_ctx).passed() {
                std::process::exit(1);
            }
        } else {
            let r = interp_speed::run(effort);
            println!("{}", r.render());
            // The perf trajectory is always recorded: into --out when given,
            // next to the invocation otherwise.
            let json = r.to_json();
            match &out_dir {
                Some(_) => write_artifact(&out_dir, "BENCH_interp.json", &json),
                None => {
                    std::fs::write("BENCH_interp.json", &json).expect("write BENCH_interp.json");
                    println!("[wrote BENCH_interp.json]");
                }
            }
        }
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
        if check {
            if !run_service_gate(!ratio_only, &gate_ctx).passed() {
                std::process::exit(1);
            }
        } else {
            let r = service_bench::run(effort);
            println!("{}", r.render());
            let json = r.to_json();
            match &out_dir {
                Some(_) => write_artifact(&out_dir, "BENCH_service.json", &json),
                None => {
                    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
                    println!("[wrote BENCH_service.json]");
                }
            }
            exit_unless_service_invariants(&r);
        }
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
        } else if check {
            if !run_simmpi_gate(!ratio_only, &gate_ctx).passed() {
                std::process::exit(1);
            }
        } else {
            let r = match ranks_override {
                Some(ranks) => simmpi_scale::run_with_ranks(&[ranks]),
                None => simmpi_scale::run(effort),
            };
            println!("{}", r.render());
            let json = r.to_json();
            match &out_dir {
                Some(_) => write_artifact(&out_dir, "BENCH_simmpi.json", &json),
                None => {
                    std::fs::write("BENCH_simmpi.json", &json).expect("write BENCH_simmpi.json");
                    println!("[wrote BENCH_simmpi.json]");
                }
            }
        }
    }
    if want("control") {
        section("control");
        let r = control_bench::run(effort);
        println!("{}", r.render());
        exit_unless_control_invariants(&r);
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
    // `gate` runs all three perf gates and files the fresh measurements
    // into the history — explicit-only for the same reason: it re-runs
    // the interp sweep and the 16-tenant study at paper scale.
    if selected.contains(&"gate") {
        section("gate");
        let interp = run_perf_gate(!ratio_only, &gate_ctx);
        let service = run_service_gate(!ratio_only, &gate_ctx);
        let simmpi = run_simmpi_gate(!ratio_only, &gate_ctx);
        // The control-plane study has no committed baseline file — its
        // figures are virtual-time deterministic, so the run history IS
        // the baseline: the first runs seed it, `--stats` judges later
        // runs against the recorded regime. Invariant violations fail
        // hard regardless.
        let control_run = control_bench::run(effort);
        println!("{}", control_run.render());
        exit_unless_control_invariants(&control_run);
        let control = gate_ctx.finish(control_run.gate_report(), "control");
        // Append before exiting, pass or fail: the change-point analysis
        // needs to see a failing regime *form* across runs, and a torn
        // append is tolerated by the valid-prefix parser anyway.
        let run = perf_gate::next_history_run(&gate_ctx.history);
        let mut lines = String::new();
        for (suite, report) in [
            ("interp", &interp),
            ("service", &service),
            ("simmpi", &simmpi),
            ("control", &control),
        ] {
            lines.push_str(&perf_gate::history_lines(report, suite, run));
        }
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&gate_ctx.history_path)
            .and_then(|mut f| f.write_all(lines.as_bytes()))
            .unwrap_or_else(|e| {
                eprintln!(
                    "gate: cannot append history to {}: {e}",
                    gate_ctx.history_path.display()
                );
                std::process::exit(2);
            });
        println!(
            "[appended run {run} to {}]",
            gate_ctx.history_path.display()
        );
        if !(interp.passed() && service.passed() && simmpi.passed() && control.passed()) {
            std::process::exit(1);
        }
    }
}

/// Everything the gates need beyond the committed baseline files: the
/// `--stats` / `--allow-new-cells` flags and the parsed run history.
struct GateCtx {
    stats: bool,
    allow_new_cells: bool,
    history_path: PathBuf,
    history: Vec<perf_gate::HistoryCell>,
}

impl GateCtx {
    fn load(stats: bool, allow_new_cells: bool, history_arg: Option<&String>) -> Self {
        let history_path = match history_arg {
            Some(p) => PathBuf::from(p),
            None => {
                // Next to the invocation first (repo root in CI), then
                // relative to the crate — same search as the baselines.
                let local = PathBuf::from("BENCH_history.jsonl");
                let repo = PathBuf::from(concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/../../BENCH_history.jsonl"
                ));
                if !local.exists() && repo.exists() {
                    repo
                } else {
                    local
                }
            }
        };
        // A missing history file is an empty history, not an error: the
        // stats gate falls back to the fixed band until runs accumulate.
        let text = std::fs::read_to_string(&history_path).unwrap_or_default();
        GateCtx {
            stats,
            allow_new_cells,
            history_path,
            history: perf_gate::parse_history(&text),
        }
    }

    /// Apply the flags to a freshly compared report: new-cell policy
    /// always, history verdicts when `--stats` is on.
    fn finish(&self, mut report: perf_gate::GateReport, suite: &str) -> perf_gate::GateReport {
        report.allow_new_cells = self.allow_new_cells;
        if self.stats {
            perf_gate::apply_history(&mut report, suite, &self.history);
        }
        println!("{}", report.render());
        report
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

/// The `interp --check` path: a reduced paper-scale sweep compared
/// against the committed baseline. The caller exits nonzero on a failed
/// report so CI can gate on it. Always paper-parameter workloads — the
/// committed baseline was measured at paper scale, so a smoke sweep
/// would not be comparable. With `--ratio-only` (`absolute = false`)
/// only the machine-independent walker→VM speedup ratio is gated — the
/// right mode for shared CI runners, whose absolute speed is not
/// comparable to the baseline machine's.
fn run_perf_gate(absolute: bool, ctx: &GateCtx) -> perf_gate::GateReport {
    let baseline_text = read_baseline().unwrap_or_else(|e| {
        eprintln!("perf gate: cannot read BENCH_interp.json: {e}");
        std::process::exit(2);
    });
    let baseline = perf_gate::parse_baseline(&baseline_text).unwrap_or_else(|e| {
        eprintln!("perf gate: cannot parse BENCH_interp.json: {e}");
        std::process::exit(2);
    });
    // Reduced sweep: the two cheapest rank counts of the committed
    // trajectory. Cells the sweep skips (ranks=64) are reported, not
    // failed.
    let fresh = interp_speed::run_with_ranks(Effort::Paper, &[4, 16]);
    ctx.finish(
        perf_gate::compare(&baseline, &fresh, perf_gate::DEFAULT_TOLERANCE, absolute),
        "interp",
    )
}

/// The `service --check` path: the paper-scale 16-tenant study compared
/// against the committed `BENCH_service.json`. The p99 ingest latencies
/// are *virtual-time* figures — machine-independent, so they are gated
/// even under `--ratio-only`; the wall-clock batches/sec throughput is
/// only gated with `absolute`. Backpressure engagement on the hot tenant
/// is a correctness bit and always gated.
fn run_service_gate(absolute: bool, ctx: &GateCtx) -> perf_gate::GateReport {
    let baseline_text = read_service_baseline().unwrap_or_else(|e| {
        eprintln!("service gate: cannot read BENCH_service.json: {e}");
        std::process::exit(2);
    });
    let baseline = perf_gate::parse_service_baseline(&baseline_text).unwrap_or_else(|e| {
        eprintln!("service gate: cannot parse BENCH_service.json: {e}");
        std::process::exit(2);
    });
    let fresh = service_bench::run(Effort::Paper);
    exit_unless_service_invariants(&fresh);
    ctx.finish(
        perf_gate::compare_service(&baseline, &fresh, perf_gate::DEFAULT_TOLERANCE, absolute),
        "service",
    )
}

/// The `simmpi --check` path: re-measure the committed rank-scaling
/// curve — including the 16,384-rank point, which the batched event
/// scheduler finishes in seconds — and compare against
/// `BENCH_simmpi.json`. Virtual-time throughput and *both* adjacent
/// scaling-efficiency ratios (1,024→4,096 and 4,096→16,384) are gated in
/// every mode, so a collapsing tail cannot hide behind a healthy head;
/// absolute wall throughput only without `--ratio-only`.
fn run_simmpi_gate(absolute: bool, ctx: &GateCtx) -> perf_gate::GateReport {
    let baseline_text = read_simmpi_baseline().unwrap_or_else(|e| {
        eprintln!("simmpi gate: cannot read BENCH_simmpi.json: {e}");
        std::process::exit(2);
    });
    let baseline = perf_gate::parse_simmpi_baseline(&baseline_text).unwrap_or_else(|e| {
        eprintln!("simmpi gate: cannot parse BENCH_simmpi.json: {e}");
        std::process::exit(2);
    });
    let fresh = simmpi_scale::run_with_ranks(&[1024, 4096, 16384]);
    ctx.finish(
        perf_gate::compare_simmpi(&baseline, &fresh, perf_gate::DEFAULT_TOLERANCE, absolute),
        "simmpi",
    )
}

fn read_simmpi_baseline() -> std::io::Result<String> {
    std::fs::read_to_string("BENCH_simmpi.json").or_else(|_| {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_simmpi.json"
        ))
    })
}

fn read_service_baseline() -> std::io::Result<String> {
    std::fs::read_to_string("BENCH_service.json").or_else(|_| {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_service.json"
        ))
    })
}

fn read_baseline() -> std::io::Result<String> {
    // Next to the invocation first (repo root in CI), then relative to
    // the crate for `cargo run` from anywhere in the workspace.
    std::fs::read_to_string("BENCH_interp.json").or_else(|_| {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_interp.json"
        ))
    })
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
