//! The benchmark's workloads: each one is a MiniHPC source, a simulated
//! cluster and a runtime configuration, all derived from one seed.

use std::ops::RangeInclusive;
use vsensor::cluster_sim::time::{Duration, VirtualTime};
use vsensor::cluster_sim::{ClusterConfig, FaultConfig, FaultPlan, NodeSpec};
use vsensor::interp::{ExecBackend, RunConfig};
use vsensor::runtime::record::SensorKind;
use vsensor::runtime::RuntimeConfig;
use vsensor::simmpi::SimBackend;
use vsensor_apps::{cg, Params};

/// One simulation thread: the event scheduler with a single worker.
pub const SIM: SimBackend = SimBackend::Event { workers: 1 };
/// The bytecode VM, the only executor the event scheduler can suspend.
pub const EXEC: ExecBackend = ExecBackend::Vm;

/// Figure 21's geometry: 256 ranks at 23 per node, node 4 (ranks 92..=114)
/// with its memory at 55 % of nominal, detected at threshold 0.7.
const FIG21_RANKS: usize = 256;
const FIG21_RANKS_PER_NODE: usize = 23;
const FIG21_BAD_NODE: usize = 4;
const FIG21_MEM_PERF: f64 = 0.55;
const FIG21_THRESHOLD: f64 = 0.7;

/// The named workloads, in the order `BENCHMARK.json` lists them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Interpreted CG on 16 healthy ranks: VM dispatch dominates.
    InterpCg16,
    /// Figure 21 at full scale: the product path with a bad node.
    BadnodeCg256,
    /// Tiny CG on 4096 healthy ranks: scheduler and per-resume MPI work.
    ScaleCg4096,
    /// `BadnodeCg256` through lossy transport, a server crash recovered
    /// from the WAL, and an armed control plane.
    FaultsCg256,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::InterpCg16,
        Workload::BadnodeCg256,
        Workload::ScaleCg4096,
        Workload::FaultsCg256,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InterpCg16 => "interp-cg16",
            Workload::BadnodeCg256 => "badnode-cg256",
            Workload::ScaleCg4096 => "scale-cg4096",
            Workload::FaultsCg256 => "faults-cg256",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The program's parameters at full size, or at test size when
    /// `reduced`: same shape, fewer iterations. The Figure 21 family keeps
    /// enough iterations (about 330 virtual ms) for the server crash at
    /// 300 ms to fire.
    fn params(self, reduced: bool) -> Params {
        match (self, reduced) {
            (Workload::InterpCg16, false) => Params::bench().with_iters(40).with_scale(8_000),
            (Workload::InterpCg16, true) => Params::bench().with_iters(5).with_scale(8_000),
            (Workload::BadnodeCg256 | Workload::FaultsCg256, false) => {
                Params::bench().with_iters(1500)
            }
            (Workload::BadnodeCg256 | Workload::FaultsCg256, true) => {
                Params::bench().with_iters(800)
            }
            (Workload::ScaleCg4096, false) => Params::test(),
            (Workload::ScaleCg4096, true) => Params::test().with_iters(5),
        }
    }

    /// Generate the MiniHPC source text.
    pub fn source(self, reduced: bool) -> String {
        let p = self.params(reduced);
        match self {
            Workload::InterpCg16 => cg::generate_interpreted(p).source,
            _ => cg::generate(p).source,
        }
    }

    /// Build the run's inputs from `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        let mut cluster = match self {
            Workload::InterpCg16 => ClusterConfig::healthy(16),
            Workload::ScaleCg4096 => ClusterConfig::healthy(4096),
            Workload::BadnodeCg256 | Workload::FaultsCg256 => ClusterConfig::healthy(FIG21_RANKS)
                .with_ranks_per_node(FIG21_RANKS_PER_NODE)
                .with_node(FIG21_BAD_NODE, NodeSpec::slow_memory(FIG21_MEM_PERF)),
        };
        cluster.noise.seed = derive(seed, 1);
        cluster.pmu.seed = derive(seed, 2);
        let mut runtime = RuntimeConfig::default();
        if matches!(self, Workload::BadnodeCg256 | Workload::FaultsCg256) {
            runtime = runtime
                .with_variance_threshold(FIG21_THRESHOLD)
                .expect("threshold lies in (0, 1]");
        }
        if self == Workload::FaultsCg256 {
            cluster = cluster.with_faults(
                FaultPlan::new(FaultConfig {
                    drop_rate: 0.10,
                    duplicate_rate: 0.05,
                    corrupt_rate: 0.02,
                    delay_rate: 0.05,
                    seed: derive(seed, 3),
                    ..FaultConfig::default()
                })
                .with_server_crash(VirtualTime::from_millis(300)),
            );
            runtime = runtime
                .with_overhead_budget(0.02)
                .expect("budget lies in [0, 1)")
                .with_escalation_slice(Duration::from_micros(250))
                .expect("250 us divides the 1000 us slice");
        }
        let truth = GroundTruth::from_cluster(&cluster);
        Inputs {
            cluster,
            run: RunConfig {
                runtime,
                backend: EXEC,
                sim: SIM,
                ..RunConfig::default()
            },
            truth,
        }
    }
}

/// Everything one run of a workload needs besides the program.
#[derive(Clone)]
pub struct Inputs {
    /// The simulated cluster, seeded.
    pub cluster: ClusterConfig,
    /// Runtime configuration, pinned to [`SIM`] and [`EXEC`].
    pub run: RunConfig,
    /// What a correct report must find.
    pub truth: GroundTruth,
}

/// The injected variance a correct report localizes: one component on a
/// rank range from an onset on. `None` for a healthy cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct GroundTruth {
    /// The degraded node's component, ranks and onset, if any.
    pub bad: Option<Injected>,
}

/// One injected degradation.
#[derive(Clone, Debug, PartialEq)]
pub struct Injected {
    /// Component whose sensors see the slowdown.
    pub kind: SensorKind,
    /// Ranks hosted on the degraded node.
    pub ranks: RangeInclusive<usize>,
    /// Virtual instant the degradation starts.
    pub onset: VirtualTime,
}

impl GroundTruth {
    /// Read the ground truth off the cluster configuration: every node
    /// override whose memory runs below nominal is a computation-component
    /// degradation of that node's ranks for the whole run.
    pub fn from_cluster(cluster: &ClusterConfig) -> GroundTruth {
        let nominal = NodeSpec::default();
        let bad = cluster
            .node_overrides
            .iter()
            .find(|(_, spec)| {
                spec.mem_factor > nominal.mem_factor || spec.cpu_factor > nominal.cpu_factor
            })
            .map(|&(node, _)| {
                let first = node * cluster.ranks_per_node;
                let last = ((node + 1) * cluster.ranks_per_node - 1).min(cluster.ranks - 1);
                Injected {
                    kind: SensorKind::Computation,
                    ranks: first..=last,
                    onset: VirtualTime::ZERO,
                }
            });
        GroundTruth { bad }
    }
}

/// Derive an independent 64-bit seed for one use (`salt`) of the
/// workload seed — splitmix64's finalizer.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
