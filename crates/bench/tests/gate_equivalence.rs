//! The one cell judge reproduces the verdicts of the three per-suite
//! comparators it replaced.
//!
//! `fixtures/gate_verdicts.txt` holds the verdicts the `interp`, `service`
//! and `simmpi` comparators gave over the committed baselines (per cell:
//! `ok`, the fresh value, and under `--stats` the history regime's
//! median and allowed deviation; per suite: the overall pass), in four
//! scenarios, each under `--ratio-only` and absolute:
//!
//! * `a` — each committed baseline judged against itself;
//! * `b` — a 2× wall slowdown of the measured code (the VM backend, the
//!   service run, the largest simmpi rank count);
//! * `c` — a uniformly 2× slower machine;
//! * `d<k>` — run *k* of the committed `BENCH_history.jsonl` judged with
//!   `--stats` against runs `< k`.
//!
//! The fresh results are rebuilt from cell values so that every derived
//! cell the studies compute (speedup, throughput, scaling ratio) comes
//! out bit-identical to the recorded value.

use vsensor_bench::interp_speed::{InterpRow, InterpSpeedResult};
use vsensor_bench::perf_gate::{apply_history, compare, parse_history, GateReport, HistoryCell};
use vsensor_bench::service_bench::ServiceBenchResult;
use vsensor_bench::simmpi_scale::{ScaleResult, ScaleRow};

fn committed(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Interp rows whose walker/VM speedup is exactly `speedup`: the VM wall
/// is 2^52 ns, so `speedup · 2^52` is an integer for any speedup ≥ 1.
fn interp(cells: &[(&'static str, usize, f64, f64)]) -> InterpSpeedResult {
    let mut rows = Vec::new();
    for &(workload, ranks, speedup, throughput) in cells {
        let vm = 1u64 << 52;
        let walker = speedup * vm as f64;
        assert_eq!(walker.fract(), 0.0, "{workload}/{ranks} speedup {speedup}");
        let row = |backend, wall_ns, wall_ns_per_sim_sec| InterpRow {
            workload,
            backend,
            ranks,
            wall_ns,
            simulated_secs: 0.0,
            wall_ns_per_sim_sec,
        };
        rows.push(row("tree-walker", walker as u64, 0.0));
        rows.push(row("vm", vm, throughput));
    }
    InterpSpeedResult { rows }
}

/// A 16-tenant service result whose batches per wall second is exactly
/// `throughput` (the wall is a power of two seconds).
fn service(hot: f64, steady: f64, backpressured: u64, throughput: f64) -> ServiceBenchResult {
    let scale = 2f64.powi(52 - throughput.log2().floor() as i32);
    let batches = throughput * scale;
    assert_eq!(batches.fract(), 0.0);
    let r = ServiceBenchResult {
        tenants: 16,
        ranks_per_tenant: 4,
        runs: Vec::new(),
        stats: Vec::new(),
        loads: Vec::new(),
        failover_mismatches: Vec::new(),
        healthy_mismatches: Vec::new(),
        hot_backpressured: backpressured,
        max_steady_backpressured: 0,
        p99_hot_ingest_ns: hot as u64,
        p99_steady_ingest_ns: steady as u64,
        batches_total: batches as u64,
        wall: std::time::Duration::from_secs(scale as u64),
    };
    assert_eq!(r.batches_per_wall_sec().to_bits(), throughput.to_bits());
    r
}

fn scale(rows: &[(usize, f64, f64)]) -> ScaleResult {
    ScaleResult {
        rows: rows
            .iter()
            .map(|&(ranks, virt, wall)| ScaleRow {
                ranks,
                iterations: 24,
                virtual_secs: 0.0,
                rank_iters_per_virtual_sec: virt,
                wall_ns: 0,
                rank_iters_per_wall_sec: wall,
            })
            .collect(),
    }
}

/// The fixture's line format.
fn emit(out: &mut Vec<String>, scenario: &str, mode: &str, suite: &str, r: &GateReport) {
    for c in &r.checks {
        let (median, allowed) = match &c.stats {
            Some(s) => (format!("{:?}", s.median), format!("{:?}", s.allowed)),
            None => ("-".into(), "-".into()),
        };
        out.push(format!(
            "{scenario} {mode} {suite} {} ok={} current={:?} median={median} allowed={allowed}",
            c.cell.key, c.ok, c.cell.value
        ));
    }
    out.push(format!("{scenario} {mode} {suite} pass={}", r.passed()));
}

fn value(cells: &[HistoryCell], suite: &str, key: &str) -> f64 {
    cells
        .iter()
        .find(|c| c.suite == suite && c.cell == key)
        .unwrap_or_else(|| panic!("no {suite} cell {key}"))
        .value
}

const WORKLOADS: [&str; 2] = ["cg-fig21", "ft-fig22"];
const SIMMPI_RANKS: [usize; 3] = [1024, 4096, 16384];
const MODES: [(&str, bool); 2] = [("ratio-only", true), ("absolute", false)];

fn interp_from(cells: &[HistoryCell], ranks: &[usize]) -> InterpSpeedResult {
    let mut rows = Vec::new();
    for w in WORKLOADS {
        for &n in ranks {
            rows.push((
                w,
                n,
                value(cells, "interp", &format!("{w}/{n}/vm-speedup")),
                value(cells, "interp", &format!("{w}/{n}/vm-throughput")),
            ));
        }
    }
    interp(&rows)
}

fn scale_from(cells: &[HistoryCell]) -> ScaleResult {
    let rows: Vec<_> = SIMMPI_RANKS
        .iter()
        .map(|&n| {
            (
                n,
                value(cells, "simmpi", &format!("simmpi/{n}/virt-throughput")),
                value(cells, "simmpi", &format!("simmpi/{n}/wall-throughput")),
            )
        })
        .collect();
    scale(&rows)
}

#[test]
fn one_judge_reproduces_the_three_comparators_verdicts() {
    let baseline = parse_history(&committed("BENCH_baseline.jsonl"));
    let history = parse_history(&committed("BENCH_history.jsonl"));
    let mut out = Vec::new();

    for scenario in ["a", "b", "c"] {
        for (mode, portable_only) in MODES {
            let mut i = interp_from(&baseline, &[4, 16, 64]);
            for r in &mut i.rows {
                if scenario == "c" || (scenario == "b" && r.backend == "vm") {
                    r.wall_ns *= 2;
                    r.wall_ns_per_sim_sec *= 2.0;
                }
            }
            let report = compare(&baseline, i.cells(), portable_only);
            emit(&mut out, scenario, mode, "interp", &report);

            let mut s = service(
                value(&baseline, "service", "service/16/p99-hot-ingest"),
                value(&baseline, "service", "service/16/p99-steady-ingest"),
                value(&baseline, "service", "service/16/backpressure-engaged") as u64,
                value(&baseline, "service", "service/16/service-throughput"),
            );
            if scenario != "a" {
                s.wall *= 2;
            }
            let report = compare(&baseline, s.cells(), portable_only);
            emit(&mut out, scenario, mode, "service", &report);

            let mut m = scale_from(&baseline);
            let last = m.rows.len() - 1;
            for (i, r) in m.rows.iter_mut().enumerate() {
                if scenario == "c" || (scenario == "b" && i == last) {
                    r.rank_iters_per_wall_sec /= 2.0;
                }
            }
            let report = compare(&baseline, m.cells(), portable_only);
            emit(&mut out, scenario, mode, "simmpi", &report);
        }
    }

    let runs = history.iter().map(|h| h.run + 1).max().unwrap_or(0);
    for k in 0..runs {
        let prior: Vec<HistoryCell> = history.iter().filter(|h| h.run < k).cloned().collect();
        let at: Vec<HistoryCell> = history.iter().filter(|h| h.run == k).cloned().collect();
        let scenario = format!("d{k}");
        for (mode, portable_only) in MODES {
            let fresh = [
                ("interp", interp_from(&at, &[4, 16]).cells()),
                (
                    "service",
                    service(
                        value(&at, "service", "service/16/p99-hot-ingest"),
                        value(&at, "service", "service/16/p99-steady-ingest"),
                        112,
                        value(&at, "service", "service/16/service-throughput"),
                    )
                    .cells(),
                ),
                ("simmpi", scale_from(&at).cells()),
            ];
            for (suite, cells) in fresh {
                // The recorded derived cells come back bit-identical.
                for c in &cells {
                    if let Some(h) = at.iter().find(|h| h.cell == c.key) {
                        assert_eq!(c.value.to_bits(), h.value.to_bits(), "run {k} {}", c.key);
                    }
                }
                let mut report = compare(&baseline, cells, portable_only);
                apply_history(&mut report, &prior);
                emit(&mut out, &scenario, mode, suite, &report);
            }
        }
    }

    out.sort();
    let fixture = include_str!("fixtures/gate_verdicts.txt");
    let expected: Vec<&str> = fixture.lines().collect();
    for (got, want) in out.iter().zip(&expected) {
        assert_eq!(got, want);
    }
    assert_eq!(out.len(), expected.len(), "verdict count");
}

#[test]
fn the_committed_baseline_parses_whole_and_covers_every_gated_cell() {
    let text = committed("BENCH_baseline.jsonl");
    let baseline = parse_history(&text);
    assert_eq!(
        baseline.len(),
        text.lines().count(),
        "no torn or malformed line"
    );
    assert!(baseline.iter().all(|c| c.run == 0));
    // Every cell the `--check` measurements emit has a baseline (control
    // emits four `badnode/32/*` cells).
    let fresh = [
        interp_from(&baseline, &[4, 16]).cells(),
        service(1.0, 1.0, 1, 1.0).cells(),
        scale_from(&baseline).cells(),
    ];
    let report = compare(&baseline, fresh.concat(), false);
    assert!(report.new_cells.is_empty(), "{}", report.render());
    assert_eq!(
        baseline.iter().filter(|c| c.suite == "control").count(),
        4,
        "control cells"
    );
}
