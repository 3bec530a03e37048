//! Benchmark driver for the vSensor pipeline.
//!
//! ```text
//! cargo run --release --manifest-path vsbench/Cargo.toml -- \
//!     --workload badnode-cg256 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` it times the instrumented run end to end; with
//! `--trace 1` it makes traced runs and reports each layer. The last line
//! of standard output is one JSON object with the metrics.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use vsbench::layers::{traced_repeat, LayerSample};
use vsbench::measure::{check, overhead_pct, setup, timed_run, Outputs, Setup};
use vsbench::speed::{reference_kernel, to_reference};
use vsbench::workload::Workload;
use vsbench::{mean, median};

/// Input seeds measured per run: run seed `n` measures `n * PANEL ..
/// n * PANEL + PANEL - 1`, so one run averages over seed-dependent
/// detection outcomes instead of landing on one of them. Repeats cycle
/// through the panel; the first seed always runs twice, and a later
/// repeat of any seed must match its first repeat bit for bit.
const PANEL: u64 = 8;
/// Set-ups timed before each repeat. Spreading them over the whole run
/// lets their median see the same machine states the repeats see.
const SETUPS_PER_REPEAT: usize = 25;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let panel: Vec<u64> = (0..PANEL).map(|i| args.seed * PANEL + i).collect();
    let budget = Duration::from_secs(args.seconds);

    // One untimed set-up warms the allocator; the runs use it.
    let ready = setup(args.workload, &panel, false);
    let mut setups = SetupTimer::default();
    let mut checks = Checks::new(panel.len());
    let metrics = if args.trace {
        traced(&args, &ready, budget, &mut checks, &mut setups)
    } else {
        untraced(&args, &ready, budget, &mut checks, &mut setups)
    };

    let threads = proc_status("Threads:");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    if threads.is_none_or(|t| t > nproc) {
        checks.fail(format!("{threads:?} threads exceed nproc {nproc}"));
    }
    println!("threads {} of nproc {nproc}", threads.unwrap_or(0));
    for failure in &checks.failures {
        println!("FAILED {failure}");
    }
    println!("{}", json(&checks, &metrics));
    ExitCode::SUCCESS
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(
    args: &Args,
    setup: &Setup,
    budget: Duration,
    checks: &mut Checks,
    setups: &mut SetupTimer,
) -> Vec<Metric> {
    let overhead = overhead_pct(setup);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut by_seed = vec![Vec::new(); setup.panel.len()];
    // The reference kernel brackets every repeat, so its samples see the
    // host in the same phases the repeats do.
    let mut kernel = vec![reference_kernel()];
    let mut repeat = 0;
    while repeat <= setup.panel.len() || start.elapsed() < budget {
        setups.sample(args.workload, &setup.seeds);
        let member = repeat % setup.panel.len();
        let (run, text, wall) = timed_run(setup, member);
        walls.push(wall);
        by_seed[member].push(wall);
        kernel.push(reference_kernel());
        checks.record(setup, member, &run, text);
        repeat += 1;
    }
    let peak_rss_mb = proc_status("VmHWM:").unwrap_or(0) as f64 / 1024.0;
    let telemetry = checks.mean_virtual(|v| v.telemetry_kb_per_rank_s);
    let scale = to_reference(&kernel);
    // Input seeds differ in work (on `faults-cg256` about half escalate
    // all ranks), so each seed weighs the same however often it ran.
    let seed_means: Vec<f64> = by_seed.iter().map(|w| mean(w)).collect();
    let (wall_raw, setup_raw) = (mean(&seed_means), median(setups.total.clone()));
    println!(
        "{} seed {}: {} repeats over input seeds {:?}",
        args.workload.name(),
        args.seed,
        walls.len(),
        setup.seeds
    );
    println!(
        "as measured: wall mean over seeds {wall_raw:.4} s (n={}, median {:.4}, min {:.4}, max {:.4}); \
         setup median {setup_raw:.6} s (n={})",
        walls.len(),
        median(walls.clone()),
        walls.iter().cloned().fold(f64::INFINITY, f64::min),
        walls.iter().cloned().fold(0.0, f64::max),
        setups.total.len()
    );
    println!(
        "reference kernel mean {:.4} s (n={}): host times x {scale:.4} to reference speed",
        mean(&kernel),
        kernel.len()
    );
    vec![
        Metric::new("wall_s", wall_raw * scale, "s"),
        Metric::new("setup_s", setup_raw * scale, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::new("overhead_pct", overhead, "%"),
        Metric::new("telemetry_kb_per_rank_s", telemetry, "KB/rank/s"),
    ]
}

/// `--trace 1`: the per-layer metrics.
fn traced(
    args: &Args,
    setup: &Setup,
    budget: Duration,
    checks: &mut Checks,
    setups: &mut SetupTimer,
) -> Vec<Metric> {
    let start = Instant::now();
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut first = None;
    let mut kernel = vec![reference_kernel()];
    while samples.len() < 2 || start.elapsed() < budget {
        setups.sample(args.workload, &setup.seeds);
        let member = samples.len() % setup.panel.len();
        let rep = traced_repeat(setup, member);
        let (untraced_run, untraced_text) = rep.untraced;
        let (traced_run, traced_text) = rep.traced;
        checks.record(setup, member, &untraced_run, untraced_text);
        checks.record(setup, member, &traced_run, traced_text);
        samples.push(rep.sample);
        kernel.push(reference_kernel());
        if first.is_none() {
            first = Some(traced_run);
        }
    }
    let run = first.expect("at least one traced repeat");
    let med = |f: fn(&LayerSample) -> f64| median(samples.iter().map(f).collect());

    print_layers(args.workload, &samples);

    let s0 = &samples[0];
    let transport = &run.report.transport;
    let control = run.report.control.clone().unwrap_or_default();
    let virt = &checks.first[0].as_ref().expect("member 0 ran").virt;
    let msgs: u64 = run.ranks.iter().map(|r| r.stats.msgs_sent).sum();
    let collectives: u64 = run.ranks.iter().map(|r| r.stats.collectives).sum();
    let ingest_s = med(|s| s.ingest_s);
    vec![
        Metric::new("lang.compile_s", median(setups.compile.clone()), "s"),
        Metric::new("analysis.prepare_s", median(setups.prepare.clone()), "s"),
        Metric::new(
            "analysis.sensors",
            setup.prepared.sensor_count() as f64,
            "count",
        ),
        Metric::new("interp.plain_s", med(|s| s.plain_s), "s"),
        Metric::new("simmpi.select_s", med(|s| s.select_s), "s"),
        Metric::new("simmpi.resume_s", med(|s| s.resume_s), "s"),
        Metric::new("simmpi.commit_s", med(|s| s.commit_s), "s"),
        Metric::new("simmpi.collectives_s", med(|s| s.collectives_s), "s"),
        Metric::new("simmpi.phases", s0.phases as f64, "count"),
        Metric::new("simmpi.resumes", s0.resumes as f64, "count"),
        Metric::new("simmpi.msgs", msgs as f64, "count"),
        Metric::new("simmpi.collective_ops", collectives as f64, "count"),
        Metric::new(
            "runtime.dynmod_s",
            med(|s| s.untraced_wall_s - s.plain_s),
            "s",
        ),
        Metric::new("runtime.engine.ingest_s", ingest_s, "s"),
        Metric::new(
            "runtime.engine.ingest_calls",
            s0.ingest_calls as f64,
            "count",
        ),
        Metric::new(
            "runtime.engine.ingest_us_per_call",
            ingest_s * 1e6 / s0.ingest_calls.max(1) as f64,
            "us",
        ),
        Metric::new("runtime.engine.replay_s", med(|s| s.replay_s), "s"),
        Metric::new("runtime.engine.close_s", med(|s| s.close_s), "s"),
        Metric::new("runtime.engine.records", run.server.records as f64, "count"),
        Metric::new(
            "runtime.engine.detect_passes",
            run.server.load.detect_passes as f64,
            "count",
        ),
        Metric::new(
            "runtime.engine.detect_latency_ms",
            virt.detect_latency_ms,
            "ms",
        ),
        Metric::new(
            "runtime.engine.true_events",
            virt.true_events as f64,
            "count",
        ),
        Metric::new(
            "runtime.engine.false_events",
            virt.false_events as f64,
            "count",
        ),
        Metric::new(
            "runtime.transport.attempts",
            transport.send_attempts as f64,
            "count",
        ),
        Metric::new(
            "runtime.transport.retries",
            transport.retries as f64,
            "count",
        ),
        Metric::new(
            "runtime.transport.ack_ratio",
            transport.acked as f64 / transport.send_attempts.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "runtime.transport.records_dropped",
            transport.records_dropped as f64,
            "count",
        ),
        Metric::new(
            "runtime.control.epochs",
            control.epochs_issued as f64,
            "count",
        ),
        Metric::new("runtime.control.lost", control.lost as f64, "count"),
        Metric::new(
            "runtime.control.escalated_ranks",
            control.escalated_ranks as f64,
            "count",
        ),
        Metric::new("runtime.wal.frames", s0.wal_frames as f64, "count"),
        Metric::new("runtime.wal.recover_s", med(|s| s.wal_recover_s), "s"),
        Metric::new("runtime.report.render_s", med(|s| s.render_s), "s"),
        Metric::new("host.reference_s", mean(&kernel), "s"),
        Metric::new("trace.wall_s", med(|s| s.traced_wall_s), "s"),
        Metric::new(
            "trace.overhead_s",
            med(|s| s.traced_wall_s - s.untraced_wall_s),
            "s",
        ),
    ]
}

/// Print the traced run's layer split: each layer's self time and share
/// of the traced wall, for the repeat with the median traced wall, then
/// the predictions this workload was chosen to show.
fn print_layers(workload: Workload, samples: &[LayerSample]) {
    let mut order: Vec<&LayerSample> = samples.iter().collect();
    order.sort_by(|a, b| a.traced_wall_s.total_cmp(&b.traced_wall_s));
    let s = order[order.len() / 2];
    let wall = s.traced_wall_s;
    let sched = s.select_s + s.commit_s + s.collectives_s;
    let vm = s.resume_s - s.ingest_s;
    let driver = wall - s.render_s - sched - s.resume_s;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "traced wall {wall:.4} s (repeat with the median of {}), self time by layer:",
        samples.len()
    );
    for (layer, secs) in [
        ("simmpi scheduler (select+commit+collectives)", sched),
        (
            "interp VM + sensor runtime + transport (resume - ingest)",
            vm,
        ),
        ("runtime engine ingest (sink send)", s.ingest_s),
        ("run driver (bytecode, world, close, report build)", driver),
        ("runtime report render", s.render_s),
    ] {
        let _ = writeln!(
            out,
            "  {layer:<58} {secs:>9.4} s {:>6.1} %",
            share(secs, wall)
        );
    }
    // The dynamic module's cost is a difference of two noisy walls, so it
    // is taken over every repeat, not just the one in the table.
    let med = |f: fn(&LayerSample) -> f64| median(samples.iter().map(f).collect());
    let untraced = med(|s| s.untraced_wall_s);
    let dynmod = med(|s| s.untraced_wall_s - s.plain_s);
    let _ = writeln!(
        out,
        "medians: plain run {:.4} s; dynamic module {dynmod:.4} s = {:.1} % of untraced wall \
         {untraced:.4} s; tracing overhead {:.4} s",
        med(|s| s.plain_s),
        share(dynmod, untraced),
        med(|s| s.traced_wall_s - s.untraced_wall_s)
    );
    let prediction = match workload {
        Workload::InterpCg16 => Some(("VM share >= 90 %", share(vm, wall), 90.0, 100.0)),
        Workload::ScaleCg4096 => Some(("scheduler share >= 15 %", share(sched, wall), 15.0, 100.0)),
        Workload::BadnodeCg256 => Some((
            "dynamic module ~1/3 of wall (25-45 %)",
            share(dynmod, untraced),
            25.0,
            45.0,
        )),
        Workload::FaultsCg256 => None,
    };
    if let Some((what, got, lo, hi)) = prediction {
        let verdict = if (lo..=hi).contains(&got) {
            "match"
        } else {
            "MISMATCH"
        };
        let _ = writeln!(out, "prediction {what}: {got:.1} % -> {verdict}");
    }
    print!("{out}");
}

fn share(part: f64, whole: f64) -> f64 {
    100.0 * part / whole.max(1e-12)
}

/// Host seconds of the set-ups timed during a run.
#[derive(Default)]
struct SetupTimer {
    total: Vec<f64>,
    compile: Vec<f64>,
    prepare: Vec<f64>,
}

impl SetupTimer {
    /// Time [`SETUPS_PER_REPEAT`] set-ups, dropping each before the next.
    fn sample(&mut self, workload: Workload, seeds: &[u64]) {
        for _ in 0..SETUPS_PER_REPEAT {
            let s = setup(workload, seeds, false);
            self.total.push(s.total_s);
            self.compile.push(s.compile_s);
            self.prepare.push(s.prepare_s);
        }
    }
}

/// Output checks across the repeats of one run.
struct Checks {
    attempted: u64,
    failures: Vec<String>,
    /// The first repeat's outputs per panel member; later repeats of the
    /// same member must match them bit for bit.
    first: Vec<Option<Outputs>>,
}

impl Checks {
    fn new(members: usize) -> Self {
        Checks {
            attempted: 0,
            failures: Vec::new(),
            first: vec![None; members],
        }
    }

    fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Check one repeat: ground truth, then sameness with earlier repeats
    /// of its input seed.
    fn record(
        &mut self,
        setup: &Setup,
        member: usize,
        run: &vsensor::interp::InstrumentedRun,
        text: String,
    ) {
        self.attempted += 1;
        let (inputs, cluster) = &setup.panel[member];
        let outputs = Outputs::of(run, text, &inputs.truth);
        let verdict =
            check(run, &inputs.truth, cluster.ranks()).and_then(|()| match &self.first[member] {
                Some(first) if *first != outputs => Err(format!(
                    "input seed #{member} repeat differs from its first repeat"
                )),
                _ => Ok(()),
            });
        if let Err(why) = verdict {
            self.fail(format!("repeat {}: {why}", self.attempted));
        }
        self.first[member].get_or_insert(outputs);
    }

    /// Mean of a virtual metric over the panel's first repeats.
    fn mean_virtual(&self, f: impl Fn(&vsbench::measure::Virtual) -> f64) -> f64 {
        let values: Vec<f64> = self.first.iter().flatten().map(|o| f(&o.virt)).collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result line.
fn json(checks: &Checks, metrics: &[Metric]) -> String {
    let failed = checks.failures.len() as u64;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        checks.attempted,
        failed.min(checks.attempted),
        body.join(", ")
    )
}

/// A numeric field of `/proc/self/status` (kB for memory fields).
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}
