//! The perf gate: one cell schema, one committed baseline, one judge.
//!
//! Every gated study — [`crate::interp_speed`], [`crate::service_bench`],
//! [`crate::simmpi_scale`] and [`crate::control_bench`] — reports its
//! measurements as [`Cell`]s. A cell carries its own judging data: the
//! direction that counts as a regression ([`Worse`]), the relative floor
//! of the history verdict, and whether it is portable (machine-
//! independent: virtual time, a same-machine ratio, or a correctness
//! bit). Derived figures — the walker→VM speedup, the adjacent scaling
//! ratios — are computed by the study that measured them, never by the
//! gate.
//!
//! `repro <study> --check` compares fresh cells against the committed
//! `BENCH_baseline.jsonl` with [`compare`]: a fixed
//! [`TOLERANCE`] band in the worse direction, a must-be-positive
//! cell failing at zero. `--ratio-only` judges only portable cells — CI
//! runners' absolute speed is not comparable to any baseline machine.
//! Baseline cells the fresh run did not measure are named and skipped,
//! never failed (CI re-measures a reduced interp sweep); a fresh cell the
//! baseline lacks fails hard, because nothing would gate it.
//!
//! # History mode (`--stats`)
//!
//! The fixed band is one-size-fits-all: far too loose for a
//! deterministic virtual-time figure, occasionally too tight for a
//! wall-derived ratio on a noisy runner. `--stats` replaces it with the
//! statistics the runtime's cross-run baseline store uses
//! ([`vsensor_runtime::stats`]): once a cell has [`MIN_HISTORY_SAMPLES`]
//! recorded runs, the history series is split at its most significant
//! change-points (Welch-t scan, so a runner-hardware change mid-history
//! starts a fresh regime instead of poisoning the median), and the
//! current value must sit within `max(3·scaled-MAD, floor·|median|)` of
//! the latest regime's median in the worse direction. Shallower cells
//! keep the fixed-band verdict — the fallback, not an error.
//!
//! The baseline and the history share one line shape, one flat JSON
//! object per line (`{"run", "suite", "cell", "value"}`), and one parser
//! with the runtime WAL's valid-prefix semantics: the first malformed
//! line (a torn tail from an interrupted append) drops itself and
//! everything after it.

use std::fmt::Write;

use vsensor_runtime::stats::{self, ShiftPolicy};

/// The fixed noise band: a cell may move up to 25 % in its worse
/// direction before the gate fails.
pub const TOLERANCE: f64 = 0.25;

/// History floor for virtual-time cells: deterministic by construction,
/// so drift there is a simulation change.
const VIRTUAL_FLOOR: f64 = 0.01;

/// History floor for wall-derived cells, which jitter with the machine.
const WALL_FLOOR: f64 = 0.10;

/// A cell needs this many recorded runs before the history verdict
/// supersedes the fixed tolerance band — mirrors the runtime baseline
/// store's `min_history`.
pub const MIN_HISTORY_SAMPLES: usize = 5;

/// Which change of a cell's value is a regression.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Worse {
    /// Latencies, ns per unit of work, cost fractions.
    Higher,
    /// Speedups, throughputs, scaling ratios.
    Lower,
    /// A correctness bit: any value ≤ 0 fails, whatever the baseline
    /// says. Never judged statistically and never recorded in the
    /// history — it is not a distribution.
    NonPositive,
}

/// One gated measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Gate suite (`interp`, `service`, `simmpi`, `control`).
    pub suite: &'static str,
    /// `workload/ranks/metric`.
    pub key: String,
    /// The measured value.
    pub value: f64,
    /// Which direction is a regression.
    pub worse: Worse,
    /// Relative floor under the history verdict's `3·MAD` cut.
    pub floor: f64,
    /// Machine-independent, so gated under `--ratio-only`.
    pub portable: bool,
}

impl Cell {
    /// A virtual-time figure: deterministic, portable, tight floor.
    pub fn virtual_time(suite: &'static str, key: String, value: f64, worse: Worse) -> Cell {
        Cell {
            suite,
            key,
            value,
            worse,
            floor: VIRTUAL_FLOOR,
            portable: true,
        }
    }

    /// A ratio of two wall clocks taken in the same run (speedup,
    /// scaling efficiency): portable, and smaller is worse.
    pub fn ratio(suite: &'static str, key: String, value: f64) -> Cell {
        Cell {
            suite,
            key,
            value,
            worse: Worse::Lower,
            floor: WALL_FLOOR,
            portable: true,
        }
    }

    /// An absolute wall-clock figure: comparable only on hardware like
    /// the baseline machine's.
    pub fn wall(suite: &'static str, key: String, value: f64, worse: Worse) -> Cell {
        Cell {
            suite,
            key,
            value,
            worse,
            floor: WALL_FLOOR,
            portable: false,
        }
    }

    /// A count that must stay positive (backpressure still engages).
    pub fn positive(suite: &'static str, key: String, value: f64) -> Cell {
        Cell {
            suite,
            key,
            value,
            worse: Worse::NonPositive,
            floor: 0.0,
            portable: true,
        }
    }

    /// The fixed-band verdict against a baseline value.
    fn within_band(&self, baseline: f64) -> bool {
        match self.worse {
            Worse::Higher => self.value <= baseline * (1.0 + TOLERANCE),
            Worse::Lower => self.value >= baseline * (1.0 - TOLERANCE),
            Worse::NonPositive => self.value > 0.0,
        }
    }
}

/// The history-derived verdict attached to a check in `--stats` mode.
#[derive(Clone, Debug)]
pub struct StatsGate {
    /// Recorded history samples for this cell (the current run excluded).
    pub samples: usize,
    /// Samples in the latest regime after change-point splitting.
    pub regime_len: usize,
    /// Median of the latest regime.
    pub median: f64,
    /// Allowed worse-direction deviation from that median.
    pub allowed: f64,
}

/// One fresh cell judged against its baseline.
#[derive(Clone, Debug)]
pub struct Check {
    /// The fresh measurement.
    pub cell: Cell,
    /// The committed baseline value.
    pub baseline: f64,
    /// Whether the cell passed.
    pub ok: bool,
    /// The history verdict that superseded the fixed band, when deep
    /// enough history was available ([`apply_history`]).
    pub stats: Option<StatsGate>,
}

/// The gate's verdict over one study's cells.
#[derive(Clone, Debug, Default)]
pub struct GateReport {
    /// All performed checks.
    pub checks: Vec<Check>,
    /// Baseline cells of the judged suites that the fresh run did not
    /// measure — named, because a silent skip hides a gate that quietly
    /// stopped measuring something.
    pub skipped: Vec<String>,
    /// Fresh cells the committed baseline lacks: nothing gates them, so
    /// they fail the gate.
    pub new_cells: Vec<String>,
}

impl GateReport {
    /// True when every check passed, at least one ran (an empty
    /// comparison is a gate misconfiguration, not a pass), and no cell
    /// is new and ungated.
    pub fn passed(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok) && self.new_cells.is_empty()
    }

    /// Render the verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf gate (tolerance {:.0}%): {} check(s), {} baseline cell(s) not re-measured",
            TOLERANCE * 100.0,
            self.checks.len(),
            self.skipped.len(),
        );
        for c in &self.checks {
            let _ = write!(
                out,
                "  [{}] {:<32} baseline {:>16.4} current {:>16.4} ({:+.1}%)",
                if c.ok { "ok" } else { "FAIL" },
                c.cell.key,
                c.baseline,
                c.cell.value,
                (c.cell.value / c.baseline.max(1e-12) - 1.0) * 100.0,
            );
            match &c.stats {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        " [history n={} regime {} median {:.2} allow ±{:.2}]",
                        s.samples, s.regime_len, s.median, s.allowed,
                    );
                }
                None => {
                    let _ = writeln!(out, " [fixed tolerance]");
                }
            }
        }
        if !self.skipped.is_empty() {
            let _ = writeln!(
                out,
                "  skipped baseline cell(s): {}",
                self.skipped.join(", ")
            );
        }
        for cell in &self.new_cells {
            let _ = writeln!(
                out,
                "  [NEW ] {cell} — measured but absent from BENCH_baseline.jsonl; refresh it from `--out`"
            );
        }
        let _ = writeln!(
            out,
            "perf gate: {}",
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Judge fresh cells against the committed baseline with the fixed
/// band. With `portable_only` (`--ratio-only`) cells that compare wall
/// clocks across machines are left out.
pub fn compare(baseline: &[HistoryCell], fresh: Vec<Cell>, portable_only: bool) -> GateReport {
    let mut report = GateReport::default();
    for b in baseline {
        let judged_suite = fresh.iter().any(|c| c.suite == b.suite);
        if judged_suite && !fresh.iter().any(|c| c.suite == b.suite && c.key == b.cell) {
            report.skipped.push(b.cell.clone());
        }
    }
    for cell in fresh {
        match baseline
            .iter()
            .find(|b| b.suite == cell.suite && b.cell == cell.key)
        {
            None => report.new_cells.push(cell.key),
            Some(_) if portable_only && !cell.portable => {}
            Some(b) => report.checks.push(Check {
                ok: cell.within_band(b.value),
                baseline: b.value,
                cell,
                stats: None,
            }),
        }
    }
    report
}

/// One line of `BENCH_baseline.jsonl` or `BENCH_history.jsonl`.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryCell {
    /// Monotonic run index (shared by every cell appended by one run;
    /// 0 throughout the baseline).
    pub run: u64,
    /// Gate suite.
    pub suite: String,
    /// Cell key, `workload/ranks/metric`.
    pub cell: String,
    /// The measured value.
    pub value: f64,
}

/// Parse baseline or history text. Valid-prefix semantics like the
/// runtime WAL: the first malformed line drops itself and everything
/// after it; blank lines are skipped. Empty text is an empty history.
pub fn parse_history(text: &str) -> Vec<HistoryCell> {
    let mut cells = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let parsed = (|| -> Result<HistoryCell, String> {
            Ok(HistoryCell {
                run: num_field(line, "run")? as u64,
                suite: str_field(line, "suite")?,
                cell: str_field(line, "cell")?,
                value: num_field(line, "value")?,
            })
        })();
        match parsed {
            Ok(c) => cells.push(c),
            Err(_) => break,
        }
    }
    cells
}

/// The raw text after `"key":`, trimmed.
fn field_value<'a>(obj: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("line missing field `{key}`: {obj}"))?;
    let rest = obj[at + pat.len()..].trim_start();
    rest.strip_prefix(':')
        .map(str::trim_start)
        .ok_or_else(|| format!("malformed field `{key}`"))
}

fn str_field(obj: &str, key: &str) -> Result<String, String> {
    let v = field_value(obj, key)?;
    let v = v
        .strip_prefix('"')
        .ok_or_else(|| format!("field `{key}` is not a string"))?;
    let end = v
        .find('"')
        .ok_or_else(|| format!("unterminated string for `{key}`"))?;
    Ok(v[..end].to_string())
}

fn num_field(obj: &str, key: &str) -> Result<f64, String> {
    let v = field_value(obj, key)?;
    let end = v
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(v.len());
    v[..end]
        .parse::<f64>()
        .map_err(|e| format!("field `{key}` is not a number: {e}"))
}

/// The run index a fresh append should use: one past the largest seen.
pub fn next_history_run(history: &[HistoryCell]) -> u64 {
    history.iter().map(|h| h.run + 1).max().unwrap_or(0)
}

/// Serialize cells as baseline/history lines. `{:?}` round-trips every
/// `f64` bit-exactly through [`parse_history`].
pub fn jsonl<'a>(cells: impl IntoIterator<Item = &'a Cell>, run: u64) -> String {
    let mut out = String::new();
    for c in cells {
        let _ = writeln!(
            out,
            "{{\"run\": {run}, \"suite\": \"{}\", \"cell\": \"{}\", \"value\": {:?}}}",
            c.suite, c.key, c.value,
        );
    }
    out
}

/// This report's judged measurements as history lines (correctness bits
/// excluded).
pub fn history_lines(report: &GateReport, run: u64) -> String {
    jsonl(
        report
            .checks
            .iter()
            .map(|c| &c.cell)
            .filter(|c| c.worse != Worse::NonPositive),
        run,
    )
}

/// The tail of the series after repeatedly splitting at the most
/// significant change-point: the latest stable regime. A hardware or
/// code step mid-history starts a fresh regime instead of widening the
/// old one's dispersion.
fn latest_regime<'a>(series: &'a [f64], policy: &ShiftPolicy) -> &'a [f64] {
    let mut seg = series;
    while seg.len() >= MIN_HISTORY_SAMPLES {
        match stats::detect_shift(seg, policy) {
            Some(cp) => seg = &seg[cp.index..],
            None => break,
        }
    }
    seg
}

/// Re-judge every check against the recorded history (`--stats`).
///
/// Cells with at least [`MIN_HISTORY_SAMPLES`] recorded runs get a
/// variance-aware verdict that *supersedes* the fixed band: the current
/// value must sit within `max(3·scaled-MAD, floor·|median|)` of the
/// latest regime's median in the worse direction. Shallower cells keep
/// their fixed-band verdict (the documented fallback). Correctness bits
/// are never statistical.
pub fn apply_history(report: &mut GateReport, history: &[HistoryCell]) {
    let policy = ShiftPolicy::default();
    for check in &mut report.checks {
        let cell = &check.cell;
        if cell.worse == Worse::NonPositive {
            continue;
        }
        let mut rows: Vec<(u64, f64)> = history
            .iter()
            .filter(|h| h.suite == cell.suite && h.cell == cell.key)
            .map(|h| (h.run, h.value))
            .collect();
        rows.sort_by_key(|&(run, _)| run);
        let series: Vec<f64> = rows.into_iter().map(|(_, v)| v).collect();
        if series.len() < MIN_HISTORY_SAMPLES {
            continue;
        }
        let regime = latest_regime(&series, &policy);
        let median = stats::median(regime).expect("regime is non-empty");
        let smad = stats::scaled_mad(regime).unwrap_or(0.0);
        let allowed = (3.0 * smad).max(cell.floor * median.abs());
        check.ok = if cell.worse == Worse::Higher {
            cell.value <= median + allowed
        } else {
            cell.value >= median - allowed
        };
        check.stats = Some(StatsGate {
            samples: series.len(),
            regime_len: regime.len(),
            median,
            allowed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp_speed::{InterpRow, InterpSpeedResult};
    use crate::service_bench::ServiceBenchResult;
    use crate::simmpi_scale::{ScaleResult, ScaleRow};

    /// Walker 5× slower than the VM, wall growing with ranks — the
    /// committed trajectory's rough shape.
    fn interp(workloads: &[&'static str], ranks: &[usize]) -> InterpSpeedResult {
        let mut rows = Vec::new();
        for &workload in workloads {
            for &ranks in ranks {
                let vm_wall = 1_000_000_000 * ranks as u64;
                for (backend, wall_ns) in [("tree-walker", vm_wall * 5), ("vm", vm_wall)] {
                    rows.push(InterpRow {
                        workload,
                        backend,
                        ranks,
                        wall_ns,
                        simulated_secs: 0.05,
                        wall_ns_per_sim_sec: wall_ns as f64 / 0.05,
                    });
                }
            }
        }
        InterpSpeedResult { rows }
    }

    fn scale_wall(r: &mut InterpSpeedResult, backend: Option<&str>, by: f64) {
        for row in &mut r.rows {
            if backend.is_none_or(|b| row.backend == b) {
                row.wall_ns = (row.wall_ns as f64 * by) as u64;
                row.wall_ns_per_sim_sec *= by;
            }
        }
    }

    fn service() -> ServiceBenchResult {
        ServiceBenchResult {
            tenants: 16,
            ranks_per_tenant: 4,
            runs: Vec::new(),
            stats: Vec::new(),
            loads: Vec::new(),
            failover_mismatches: Vec::new(),
            healthy_mismatches: Vec::new(),
            hot_backpressured: 10,
            max_steady_backpressured: 0,
            p99_hot_ingest_ns: 1_000,
            p99_steady_ingest_ns: 500,
            batches_total: 1_000,
            wall: std::time::Duration::from_secs(1),
        }
    }

    /// Flat cost per rank-iteration: wall throughput independent of
    /// scale, virtual throughput growing with the rank count.
    fn scale(ranks: &[usize]) -> ScaleResult {
        ScaleResult {
            rows: ranks
                .iter()
                .map(|&r| ScaleRow {
                    ranks: r,
                    iterations: 24,
                    virtual_secs: 0.5,
                    rank_iters_per_virtual_sec: (r * 24) as f64 / 0.5,
                    wall_ns: (r as u64) * 1_000_000,
                    rank_iters_per_wall_sec: 24_000.0,
                })
                .collect(),
        }
    }

    /// Cells as the committed baseline holds them: through the same
    /// jsonl round trip `--out` → `BENCH_baseline.jsonl` takes.
    fn baseline(cells: &[Cell]) -> Vec<HistoryCell> {
        parse_history(&jsonl(cells, 0))
    }

    struct Case {
        name: &'static str,
        base: Vec<Cell>,
        fresh: Vec<Cell>,
        portable_only: bool,
        checks: usize,
        failing: &'static [&'static str],
        pass: bool,
    }

    #[test]
    fn fixed_band_verdicts() {
        let two = &["cg-fig21", "ft-fig22"][..];
        let noisy = {
            // ±10 % jitter, alternating direction per row.
            let mut r = interp(two, &[4, 16]);
            for (i, row) in r.rows.iter_mut().enumerate() {
                let f = if i % 2 == 0 { 1.10 } else { 0.90 };
                row.wall_ns = (row.wall_ns as f64 * f) as u64;
                row.wall_ns_per_sim_sec *= f;
            }
            r
        };
        let slow_vm = {
            let mut r = interp(&["cg-fig21"], &[4]);
            scale_wall(&mut r, Some("vm"), 2.0);
            r
        };
        let slow_machine = {
            let mut r = interp(two, &[4, 16]);
            scale_wall(&mut r, None, 3.0);
            r
        };
        let slow_p99 = {
            let mut r = service();
            r.p99_steady_ingest_ns *= 2;
            r
        };
        let no_backpressure = {
            let mut r = service();
            r.hot_backpressured = 0;
            r
        };
        let curve = [1024, 4096, 16384];
        let collapse = {
            // Wall throughput at 4,096 ranks drops to a third while 1,024
            // is untouched: a uniformly slower machine can't do this.
            let mut r = scale(&curve[..2]);
            r.rows[1].rank_iters_per_wall_sec /= 3.0;
            r
        };
        let tail = {
            // 1K→4K gets *better* while 4K→16K halves (0.9 / 2.0). The
            // widest 1K→16K span (0.9 vs 1.0) would clear the band; only
            // the per-segment ratio sees the tail collapse.
            let mut r = scale(&curve);
            r.rows[1].rank_iters_per_wall_sec *= 2.0;
            r.rows[2].rank_iters_per_wall_sec *= 0.9;
            r
        };
        let slow_sim_machine = {
            let mut r = scale(&curve[..2]);
            for row in &mut r.rows {
                row.rank_iters_per_wall_sec /= 3.0;
            }
            r
        };
        let drift = {
            let mut r = scale(&curve[..2]);
            r.rows[0].rank_iters_per_virtual_sec /= 2.0;
            r
        };
        let ib = interp(two, &[4, 16]).cells();
        let cases = vec![
            Case {
                name: "identical interp runs pass",
                base: ib.clone(),
                fresh: ib.clone(),
                portable_only: false,
                checks: 8,
                failing: &[],
                pass: true,
            },
            Case {
                name: "±10% noise passes",
                base: ib.clone(),
                fresh: noisy.cells(),
                portable_only: false,
                checks: 8,
                failing: &[],
                pass: true,
            },
            Case {
                name: "2x VM slowdown fails both interp metrics",
                base: interp(&["cg-fig21"], &[4]).cells(),
                fresh: slow_vm.cells(),
                portable_only: false,
                checks: 2,
                failing: &["cg-fig21/4/vm-speedup", "cg-fig21/4/vm-throughput"],
                pass: false,
            },
            Case {
                name: "2x VM slowdown fails the speedup ratio alone",
                base: interp(&["cg-fig21"], &[4]).cells(),
                fresh: slow_vm.cells(),
                portable_only: true,
                checks: 1,
                failing: &["cg-fig21/4/vm-speedup"],
                pass: false,
            },
            Case {
                name: "ratio-only tolerates a uniformly 3x slower machine",
                base: ib.clone(),
                fresh: slow_machine.cells(),
                portable_only: true,
                checks: 4,
                failing: &[],
                pass: true,
            },
            Case {
                name: "absolute checks see the slower machine",
                base: ib.clone(),
                fresh: slow_machine.cells(),
                portable_only: false,
                checks: 8,
                failing: &[
                    "cg-fig21/4/vm-throughput",
                    "cg-fig21/16/vm-throughput",
                    "ft-fig22/4/vm-throughput",
                    "ft-fig22/16/vm-throughput",
                ],
                pass: false,
            },
            Case {
                name: "identical service runs pass",
                base: service().cells(),
                fresh: service().cells(),
                portable_only: false,
                checks: 4,
                failing: &[],
                pass: true,
            },
            Case {
                name: "ratio-only leaves the service wall throughput out",
                base: service().cells(),
                fresh: service().cells(),
                portable_only: true,
                checks: 3,
                failing: &[],
                pass: true,
            },
            Case {
                name: "a p99 regression fails absolute",
                base: service().cells(),
                fresh: slow_p99.cells(),
                portable_only: false,
                checks: 4,
                failing: &["service/16/p99-steady-ingest"],
                pass: false,
            },
            Case {
                name: "a p99 regression fails ratio-only",
                base: service().cells(),
                fresh: slow_p99.cells(),
                portable_only: true,
                checks: 3,
                failing: &["service/16/p99-steady-ingest"],
                pass: false,
            },
            Case {
                name: "backpressure that stops engaging fails",
                base: service().cells(),
                fresh: no_backpressure.cells(),
                portable_only: true,
                checks: 3,
                failing: &["service/16/backpressure-engaged"],
                pass: false,
            },
            Case {
                name: "identical simmpi curves pass",
                base: scale(&curve).cells(),
                fresh: scale(&curve).cells(),
                portable_only: false,
                // 3 virtual + 3 wall + 2 adjacent ratios.
                checks: 8,
                failing: &[],
                pass: true,
            },
            Case {
                name: "ratio-only leaves the simmpi wall throughputs out",
                base: scale(&curve).cells(),
                fresh: scale(&curve).cells(),
                portable_only: true,
                checks: 5,
                failing: &[],
                pass: true,
            },
            Case {
                name: "a scaling collapse fails ratio-only",
                base: scale(&curve[..2]).cells(),
                fresh: collapse.cells(),
                portable_only: true,
                checks: 3,
                failing: &["simmpi/4096/scaling-ratio"],
                pass: false,
            },
            Case {
                name: "a collapsing tail fails despite a healthy head",
                base: scale(&curve).cells(),
                fresh: tail.cells(),
                portable_only: true,
                checks: 5,
                failing: &["simmpi/16384/scaling-ratio"],
                pass: false,
            },
            Case {
                name: "ratio-only tolerates a uniformly slower simulator machine",
                base: scale(&curve[..2]).cells(),
                fresh: slow_sim_machine.cells(),
                portable_only: true,
                checks: 3,
                failing: &[],
                pass: true,
            },
            Case {
                name: "absolute simmpi checks see the slower machine",
                base: scale(&curve[..2]).cells(),
                fresh: slow_sim_machine.cells(),
                portable_only: false,
                checks: 5,
                failing: &["simmpi/1024/wall-throughput", "simmpi/4096/wall-throughput"],
                pass: false,
            },
            Case {
                name: "virtual drift fails absolute",
                base: scale(&curve[..2]).cells(),
                fresh: drift.cells(),
                portable_only: false,
                checks: 5,
                failing: &["simmpi/1024/virt-throughput"],
                pass: false,
            },
            Case {
                name: "virtual drift fails ratio-only",
                base: scale(&curve[..2]).cells(),
                fresh: drift.cells(),
                portable_only: true,
                checks: 3,
                failing: &["simmpi/1024/virt-throughput"],
                pass: false,
            },
            Case {
                name: "baseline-only rank counts are skipped, not failed",
                base: scale(&curve).cells(),
                fresh: scale(&curve[..2]).cells(),
                portable_only: true,
                checks: 3,
                failing: &[],
                pass: true,
            },
            Case {
                name: "an empty comparison fails",
                base: interp(&["cg-fig21"], &[4]).cells(),
                fresh: interp(&["ft-fig22"], &[8]).cells(),
                portable_only: false,
                checks: 0,
                failing: &[],
                pass: false,
            },
        ];
        for case in cases {
            let report = compare(&baseline(&case.base), case.fresh, case.portable_only);
            let failing: Vec<&str> = report
                .checks
                .iter()
                .filter(|c| !c.ok)
                .map(|c| c.cell.key.as_str())
                .collect();
            let render = report.render();
            assert_eq!(report.checks.len(), case.checks, "{}: {render}", case.name);
            assert_eq!(failing, case.failing, "{}: {render}", case.name);
            assert_eq!(report.passed(), case.pass, "{}: {render}", case.name);
            assert_eq!(
                render.ends_with("PASS\n"),
                case.pass,
                "{}: {render}",
                case.name
            );
        }
    }

    #[test]
    fn skipped_cells_are_named_not_just_counted() {
        let base = interp(&["cg-fig21"], &[4, 16, 64]).cells();
        let report = compare(
            &baseline(&base),
            interp(&["cg-fig21"], &[4, 16]).cells(),
            false,
        );
        assert!(report.passed(), "{}", report.render());
        assert_eq!(
            report.skipped,
            ["cg-fig21/64/vm-speedup", "cg-fig21/64/vm-throughput"]
        );
        assert!(report
            .render()
            .contains("skipped baseline cell(s): cg-fig21/64/vm-speedup"));
        // Another suite's baseline cells are not this run's to skip.
        let mut both = base.clone();
        both.extend(service().cells());
        let report = compare(&baseline(&both), interp(&["cg-fig21"], &[4]).cells(), false);
        assert_eq!(report.skipped.len(), 4, "{:?}", report.skipped);
    }

    #[test]
    fn a_new_unmeasured_cell_is_a_hard_failure() {
        // The study grew a 64-rank cell the committed baseline has never
        // gated. Passing checks must not mask it — in either mode, and
        // whether or not the new cell is portable.
        let base = baseline(&interp(&["cg-fig21"], &[4, 16]).cells());
        for portable_only in [false, true] {
            let report = compare(
                &base,
                interp(&["cg-fig21"], &[4, 16, 64]).cells(),
                portable_only,
            );
            assert!(report.checks.iter().all(|c| c.ok));
            assert_eq!(
                report.new_cells,
                ["cg-fig21/64/vm-speedup", "cg-fig21/64/vm-throughput"]
            );
            assert!(!report.passed(), "{}", report.render());
            assert!(report.render().contains("[NEW ] cg-fig21/64/vm-speedup"));
        }
        // Same contract for the simmpi curve.
        let report = compare(
            &baseline(&scale(&[1024, 4096]).cells()),
            scale(&[1024, 4096, 16384]).cells(),
            true,
        );
        assert_eq!(
            report.new_cells,
            [
                "simmpi/16384/virt-throughput",
                "simmpi/16384/wall-throughput",
                "simmpi/16384/scaling-ratio"
            ]
        );
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn cells_round_trip_bit_exactly_through_jsonl() {
        let mut cells = interp(&["cg-fig21", "ft-fig22"], &[4, 16]).cells();
        cells.extend(service().cells());
        cells.extend(scale(&[1024, 4096, 16384]).cells());
        let parsed = parse_history(&jsonl(&cells, 7));
        assert_eq!(parsed.len(), cells.len());
        for (c, p) in cells.iter().zip(&parsed) {
            assert_eq!((p.run, p.suite.as_str(), &p.cell), (7, c.suite, &c.key));
            assert_eq!(p.value.to_bits(), c.value.to_bits(), "{}", c.key);
        }
        assert!(parse_history("not json").is_empty());
        assert!(parse_history("{\"run\": 0, \"suite\": \"x\"}").is_empty());
    }

    #[test]
    fn history_jsonl_round_trips_and_tolerates_a_torn_tail() {
        let cells = interp(&["cg-fig21"], &[4]).cells();
        let report = compare(&baseline(&cells), cells, false);
        let mut text = history_lines(&report, 3);
        let parsed = parse_history(&text);
        assert_eq!(parsed.len(), report.checks.len());
        assert_eq!(parsed[0].run, 3);
        assert_eq!(parsed[0].suite, "interp");
        assert_eq!(parsed[0].cell, "cg-fig21/4/vm-speedup");
        assert_eq!(parsed[0].value, report.checks[0].cell.value);
        assert_eq!(next_history_run(&parsed), 4);
        assert_eq!(next_history_run(&[]), 0);

        // A torn tail (interrupted append) drops itself and nothing
        // before it — the runtime WAL's valid-prefix semantics.
        text.push_str("{\"run\": 4, \"sui");
        assert_eq!(parse_history(&text).len(), parsed.len());
        // Damage mid-file drops the suffix too: the prefix stays valid.
        let torn = format!("{}garbage\n{}", history_lines(&report, 0), text);
        assert_eq!(parse_history(&torn).len(), parsed.len());
    }

    #[test]
    fn a_correctness_bit_is_never_statistical_nor_recorded() {
        let cells = service().cells();
        let base = baseline(&cells);
        let mut broken = service();
        broken.hot_backpressured = 0;
        let mut report = compare(&base, broken.cells(), true);
        let deep = hist("service", "service/16/backpressure-engaged", &[0.0; 6]);
        apply_history(&mut report, &deep);
        let bit = &report.checks[2];
        assert_eq!(bit.cell.key, "service/16/backpressure-engaged");
        assert!(!bit.ok && bit.stats.is_none());
        assert!(!history_lines(&report, 0).contains("backpressure-engaged"));
        assert!(jsonl(&cells, 0).contains("backpressure-engaged"));
    }

    fn hist(suite: &str, cell: &str, values: &[f64]) -> Vec<HistoryCell> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| HistoryCell {
                run: i as u64,
                suite: suite.into(),
                cell: cell.into(),
                value: v,
            })
            .collect()
    }

    /// One interp speedup check judged with `--stats`.
    fn speedup_report(fresh: &InterpSpeedResult, history: &[HistoryCell]) -> GateReport {
        let base = baseline(&interp(&["cg-fig21"], &[4]).cells());
        let mut report = compare(&base, fresh.cells(), true);
        apply_history(&mut report, history);
        report
    }

    #[test]
    fn shallow_history_keeps_the_fixed_tolerance_verdict() {
        // Four recorded runs: one short of the minimum.
        let history = hist("interp", "cg-fig21/4/vm-speedup", &[5.0; 4]);
        let report = speedup_report(&interp(&["cg-fig21"], &[4]), &history);
        assert!(report.checks[0].stats.is_none(), "{}", report.render());
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("[fixed tolerance]"));
    }

    #[test]
    fn deep_history_supersedes_the_fixed_band_in_both_directions() {
        // The baseline was measured on a faster-relative machine: this
        // machine's speedup sits ~29 % below it, outside the fixed band.
        // Five recorded runs centred on what *this* machine measures
        // accept it…
        let mut fresh = interp(&["cg-fig21"], &[4]);
        scale_wall(&mut fresh, Some("tree-walker"), 100.0 / 140.0);
        assert!(
            !speedup_report(&fresh, &[]).passed(),
            "28% down fails the band"
        );
        let m = fresh.speedup("cg-fig21", 4).unwrap();
        let history = hist(
            "interp",
            "cg-fig21/4/vm-speedup",
            &[m * 1.01, m * 0.99, m, m * 1.02, m],
        );
        let report = speedup_report(&fresh, &history);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.checks[0].stats.as_ref().unwrap().samples, 5);

        // …and a drop the fixed band would wave through fails once the
        // history shows the cell never moves: 15 % below a tight regime.
        let same = interp(&["cg-fig21"], &[4]);
        assert!(speedup_report(&same, &[]).passed());
        let v = same.speedup("cg-fig21", 4).unwrap();
        let tight = hist(
            "interp",
            "cg-fig21/4/vm-speedup",
            &[v * 1.18, v * 1.17, v * 1.18, v * 1.19, v * 1.18],
        );
        let report = speedup_report(&same, &tight);
        assert!(!report.passed(), "{}", report.render());
    }

    #[test]
    fn a_2x_slowdown_fails_the_stats_gate_too() {
        let good = interp(&["cg-fig21"], &[4]).speedup("cg-fig21", 4).unwrap();
        let history = hist(
            "interp",
            "cg-fig21/4/vm-speedup",
            &[good, good * 1.01, good * 0.99, good, good * 1.02, good],
        );
        let mut slow = interp(&["cg-fig21"], &[4]);
        scale_wall(&mut slow, Some("vm"), 2.0);
        let report = speedup_report(&slow, &history);
        assert!(!report.passed(), "{}", report.render());
        assert!(report.checks[0].stats.is_some(), "verdict from history");
    }

    #[test]
    fn a_regime_change_in_history_resets_the_reference() {
        // Five runs on the old CI machine (speedup ~6.4), five on the new
        // one (~5.0): judge against the *latest* regime only.
        let series = [6.4, 6.38, 6.42, 6.41, 6.39, 5.0, 4.98, 5.02, 5.01, 4.99];
        let history = hist("interp", "cg-fig21/4/vm-speedup", &series);
        let judge = |speedup: f64| {
            let cell = Cell::ratio("interp", "cg-fig21/4/vm-speedup".into(), speedup);
            let mut report = compare(&hist("interp", &cell.key, &[6.4]), vec![cell], true);
            apply_history(&mut report, &history);
            let check = report.checks.pop().unwrap();
            let stats = check.stats.expect("deep history");
            assert_eq!(stats.regime_len, 5, "latest regime only");
            assert!((stats.median - 5.0).abs() < 0.05);
            check.ok
        };
        assert!(judge(5.0), "the new machine's own value passes");
        assert!(!judge(5.0 * 0.85), "15% below the new regime fails");
        assert!(judge(6.4), "faster than the regime is never a regression");
    }

    #[test]
    fn deterministic_cells_get_the_tight_floor() {
        // A 5 % dip of a virtual-time figure is a simulation change: the
        // 1 % floor catches it where the wall 10 % floor would not.
        let key = "simmpi/1024/virt-throughput";
        let history = hist("simmpi", key, &[49_152.0; 6]);
        let judge = |value: f64| {
            let cell = Cell::virtual_time("simmpi", key.into(), value, Worse::Lower);
            let mut report = compare(&hist("simmpi", key, &[49_152.0]), vec![cell], true);
            apply_history(&mut report, &history);
            report.checks[0].ok
        };
        assert!(!judge(49_152.0 * 0.95));
        assert!(judge(49_152.0 * 0.995), "0.5% is inside the 1% floor");
        let wall = Cell::ratio("simmpi", key.into(), 49_152.0 * 0.95);
        let mut report = compare(&hist("simmpi", key, &[49_152.0]), vec![wall], true);
        apply_history(&mut report, &history);
        assert!(report.checks[0].ok, "a wall-derived cell gets 10%");
    }
}
