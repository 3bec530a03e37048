//! Benchmark harness: one experiment driver per table and figure of the
//! paper's evaluation (§6).
//!
//! Each module reproduces one artifact and returns a structured result
//! whose `Display`/`render` output mirrors the rows/series the paper
//! reports. The `repro` binary drives them from the command line, and
//! [`perf_gate`] judges the cells of the four gated studies against the
//! committed `BENCH_baseline.jsonl`.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`fig01_variance`]   | Figure 1 — run-to-run variance on fixed nodes |
//! | [`table1_validation`]| Table 1 — per-program analysis + runtime metrics |
//! | [`fig12_smoothing`]  | Figure 12 — noise filtering by time slices |
//! | [`fig13_dynrules`]   | Figure 13 — cache-miss dynamic rule |
//! | [`fig14_matrix`]     | Figure 14 — normal-run performance matrix |
//! | [`fig16_distribution`]| Figures 15-17 — sense durations/intervals |
//! | [`fig18_injection`]  | Figures 18-20 — mpiP vs vSensor under injected noise |
//! | [`fig21_badnode`]    | Figure 21 — CG bad-node case study |
//! | [`fig22_network`]    | Figure 22 — FT network-degradation case study |
//! | [`datavolume`]       | §6.4 — trace volume vs vSensor data volume |
//! | [`fwq_intrusiveness`]| §1's FWQ critique, quantified |
//! | [`ablations`]        | design-choice sweeps called out in DESIGN.md |
//! | [`interp_speed`]     | tree-walker vs bytecode-VM backend speed (gated) |
//! | [`trace_run`]        | traced degraded-transport run → Chrome trace JSON |
//! | [`perf_gate`]        | the one cell schema and judge behind `repro --check` |
//! | [`failstop`]         | node-death localization + WAL crash-recovery equivalence |
//! | [`service_bench`]    | multi-tenant service: fairness, isolation, failover (gated) |
//! | [`simmpi_scale`]     | event-backend rank-scaling curve to 16,384 ranks (gated) |
//! | [`control_bench`]    | closed control loop: budget, escalation, lossy channel (gated) |

pub mod ablations;
pub mod control_bench;
pub mod datavolume;
pub mod failstop;
pub mod fig01_variance;
pub mod fig12_smoothing;
pub mod fig13_dynrules;
pub mod fig14_matrix;
pub mod fig16_distribution;
pub mod fig18_injection;
pub mod fig21_badnode;
pub mod fig22_network;
pub mod fwq_intrusiveness;
pub mod interp_speed;
pub mod perf_gate;
pub mod service_bench;
pub mod simmpi_scale;
pub mod table1_validation;
pub mod trace_run;

/// How big to run an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// Seconds-scale smoke run (unit tests, debug builds).
    Smoke,
    /// The full reproduction (release builds; the `repro` binary default).
    Paper,
}

impl Effort {
    /// Scale a rank count down for smoke runs.
    pub fn ranks(self, paper: usize) -> usize {
        match self {
            Effort::Smoke => (paper / 16).clamp(4, 32),
            Effort::Paper => paper,
        }
    }

    /// App parameters for this effort.
    pub fn params(self) -> vsensor_apps::Params {
        match self {
            Effort::Smoke => vsensor_apps::Params::test(),
            Effort::Paper => vsensor_apps::Params::bench(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_scaling() {
        assert_eq!(Effort::Smoke.ranks(1024), 32);
        assert_eq!(Effort::Smoke.ranks(64), 4);
        assert_eq!(Effort::Paper.ranks(1024), 1024);
    }
}
