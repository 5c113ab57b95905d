//! The benchmark's workloads: their inputs (made from the seed), their
//! configurations, booting, restoring from snapshot bytes, and one run.

use crowdlearn::CrowdLearnConfig;
use crowdlearn_dataset::{Dataset, DatasetConfig, SensingCycleStream};
use crowdlearn_runtime::{
    FaultEpisode, FaultPlan, FleetConfig, FleetOrchestrator, FleetReport, FleetSnapshot,
    MetricsTap, PipelinedSystem, RunBound, RuntimeConfig, RuntimeReport, RuntimeSnapshot,
    ShardSpec, WindowPolicy,
};

/// The paper dataset's seed: on it `paper_stream` reproduces the paper
/// run (window-4 makespan 26 546 s, accuracy 0.870).
pub const PAPER_SEED: u64 = 0x0ec0ada;

/// Shards of `fleet_contended`.
pub const FLEET_SHARDS: usize = 16;

/// Workers in `fleet_contended`'s shared pool. Sixteen window-4 paper
/// streams keep at most 320 workers busy, a quarter of it: every post
/// waits on the others, and the pool never saturates.
pub const FLEET_POOL: usize = 1280;

/// Checkpoint round trips per `chaos_checkpoint` run, spaced evenly over
/// its events. A fixed count keeps the codec work alike across seeds even
/// though the faults change how many events a run has.
pub const DRILL_TRIPS: u64 = 20;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's loop: one 40 x 10 stream, static window 4, tap on.
    PaperStream,
    /// 16 independent disasters over one shared pool and budget.
    FleetContended,
    /// The paper stream under faults, timeouts and an adaptive window,
    /// checkpointed through bytes every few events.
    ChaosCheckpoint,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperStream,
        Workload::FleetContended,
        Workload::ChaosCheckpoint,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperStream => "paper_stream",
            Workload::FleetContended => "fleet_contended",
            Workload::ChaosCheckpoint => "chaos_checkpoint",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Number of independent streams.
    pub fn shards(self) -> usize {
        match self {
            Workload::FleetContended => FLEET_SHARDS,
            _ => 1,
        }
    }

    /// The event-loop configuration every stream runs under.
    pub fn runtime(self) -> RuntimeConfig {
        match self {
            Workload::PaperStream | Workload::FleetContended => RuntimeConfig::paper(),
            Workload::ChaosCheckpoint => RuntimeConfig::paper()
                .with_window_policy(WindowPolicy::adaptive(1, 8))
                .with_hit_timeout(Some(900.0), 3)
                .with_escalation(true)
                .with_faults(chaos_plan()),
        }
    }

    /// Events between checkpoint round trips of a run of `events` events:
    /// `Some` for `chaos_checkpoint` only.
    pub fn drill_interval(self, events: u64) -> Option<u64> {
        (self == Workload::ChaosCheckpoint).then(|| (events / (DRILL_TRIPS + 1)).max(1))
    }

    /// The dataset seed of shard `shard` under workload seed `seed`.
    /// Shard 0 uses the seed itself; the others are distinct disasters.
    pub fn dataset_seed(seed: u64, shard: usize) -> u64 {
        seed.wrapping_add((shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

/// The chaos fault plan over the 40-cycle (24 000 s) paper stream: half
/// the pool walks off (answers slow down past the 900 s timeout, so HITs
/// time out, repost and land late, and the adaptive window widens), then
/// a four-cycle outage (the breaker opens, cycles park and probes
/// back off), then a stretch of lost answers that only the timeout path
/// can retire.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(
        0xC4A05,
        vec![
            FaultEpisode::WorkerAttrition {
                fraction: 0.5,
                from_secs: 3_000.0,
                until_secs: 6_600.0,
            },
            FaultEpisode::PlatformOutage {
                from_secs: 6_600.0,
                until_secs: 9_000.0,
            },
            FaultEpisode::AnswerLoss {
                prob: 0.3,
                from_secs: 9_000.0,
                until_secs: 13_200.0,
            },
        ],
    )
}

/// A workload's generated inputs: one dataset and stream per shard.
pub struct Inputs {
    /// One dataset per shard.
    pub datasets: Vec<Dataset>,
    /// One paper-shaped stream per shard.
    pub streams: Vec<SensingCycleStream>,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let datasets: Vec<Dataset> = (0..workload.shards())
            .map(|i| {
                Dataset::generate(
                    &DatasetConfig::paper().with_seed(Workload::dataset_seed(seed, i)),
                )
            })
            .collect();
        let streams = datasets.iter().map(SensingCycleStream::paper).collect();
        Self { datasets, streams }
    }

    /// A copy of shard 0's inputs alone.
    pub fn first_shard(&self) -> Self {
        Self {
            datasets: self.datasets[..1].to_vec(),
            streams: self.streams[..1].to_vec(),
        }
    }
}

/// Boots one paper system under `runtime` with a tap attached.
pub fn boot_single(dataset: &Dataset, runtime: RuntimeConfig) -> PipelinedSystem {
    let mut system = PipelinedSystem::new(dataset, CrowdLearnConfig::paper(), runtime);
    system.attach_metrics_tap(MetricsTap::new());
    system
}

/// Boots a fleet of one shard per spec, taps attached.
pub fn boot_fleet(
    specs: Vec<ShardSpec>,
    budget_cents: f64,
    datasets: &[Dataset],
) -> FleetOrchestrator {
    let config = FleetConfig::new(budget_cents).with_pool_capacity(FLEET_POOL);
    let mut fleet = FleetOrchestrator::new(specs, config, datasets);
    fleet.attach_metrics_taps();
    fleet
}

/// A booted workload.
pub enum Booted {
    /// One pipelined system.
    Single(Box<PipelinedSystem>),
    /// A fleet of them.
    Fleet(FleetOrchestrator),
}

impl Booted {
    /// Boots every system of `workload` (committee training, CQC fit,
    /// bandit warm-up per stream).
    pub fn boot(workload: Workload, inputs: &Inputs) -> Self {
        match workload {
            Workload::FleetContended => {
                let specs = (0..workload.shards())
                    .map(|_| ShardSpec::new(CrowdLearnConfig::paper(), workload.runtime()))
                    .collect();
                let budget = CrowdLearnConfig::paper().budget_cents * workload.shards() as f64;
                Booted::Fleet(boot_fleet(specs, budget, &inputs.datasets))
            }
            _ => Booted::Single(Box::new(boot_single(
                &inputs.datasets[0],
                workload.runtime(),
            ))),
        }
    }

    /// The booted state as snapshot bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Booted::Single(s) => s.snapshot().expect("paper systems snapshot").to_bytes(),
            Booted::Fleet(f) => f.snapshot().expect("paper fleets snapshot").to_bytes(),
        }
    }

    /// Whether this is a fleet.
    pub fn is_fleet(&self) -> bool {
        matches!(self, Booted::Fleet(_))
    }

    /// Rebuilds a system from [`Booted::to_bytes`] output: a fleet when
    /// `fleet` is set, one system otherwise.
    pub fn from_bytes(fleet: bool, bytes: &[u8], inputs: &Inputs) -> Self {
        if fleet {
            let snap = FleetSnapshot::from_bytes(bytes).expect("fleet frame validates");
            Booted::Fleet(FleetOrchestrator::resume(&snap, &inputs.streams).expect("fleet resumes"))
        } else {
            let snap = RuntimeSnapshot::from_bytes(bytes).expect("frame validates");
            let system =
                PipelinedSystem::resume(&snap, &inputs.streams[0]).expect("system resumes");
            Booted::Single(Box::new(system))
        }
    }

    /// Drives the loop until `events` more events are processed or it
    /// drains; returns the report if it drained.
    pub fn advance(&mut self, inputs: &Inputs, events: u64) -> Option<Report> {
        let bound = RunBound::Events(events);
        match self {
            Booted::Single(s) => s
                .run_until(&inputs.datasets[0], &inputs.streams[0], bound)
                .map(|r| Report::Single(Box::new(r))),
            Booted::Fleet(f) => f
                .run_until(&inputs.datasets, &inputs.streams, bound)
                .map(Report::Fleet),
        }
    }

    /// Runs to completion without interruption.
    pub fn run(mut self, inputs: &Inputs) -> Report {
        self.advance(inputs, u64::MAX)
            .expect("an unbounded run drains")
    }

    /// Runs to completion, checkpointing through bytes every `interval`
    /// events and continuing on the resumed system.
    pub fn run_drill(mut self, inputs: &Inputs, interval: u64) -> Report {
        loop {
            if let Some(report) = self.advance(inputs, interval) {
                return report;
            }
            let bytes = self.to_bytes();
            self = Booted::from_bytes(self.is_fleet(), &bytes, inputs);
        }
    }

    /// The workload's timed run: a drill when given a checkpoint
    /// interval (see [`Workload::drill_interval`]), a plain run otherwise.
    pub fn run_workload(self, inputs: &Inputs, drill: Option<u64>) -> Report {
        match drill {
            Some(interval) => self.run_drill(inputs, interval),
            None => self.run(inputs),
        }
    }
}

/// A finished run.
pub enum Report {
    /// One system's report.
    Single(Box<RuntimeReport>),
    /// A fleet's report.
    Fleet(FleetReport),
}

impl Report {
    /// A byte-exact rendering of everything the run produced.
    pub fn fingerprint(&self) -> String {
        match self {
            Report::Single(r) => format!("{r:?}"),
            Report::Fleet(r) => format!("{r:?}"),
        }
    }

    /// Per-stream reports.
    pub fn streams(&self) -> Vec<&RuntimeReport> {
        match self {
            Report::Single(r) => vec![r.as_ref()],
            Report::Fleet(r) => r.shards.iter().collect(),
        }
    }

    /// Virtual seconds until the last cycle finalized.
    pub fn makespan_secs(&self) -> f64 {
        match self {
            Report::Single(r) => r.makespan_secs,
            Report::Fleet(r) => r.makespan_secs,
        }
    }

    /// Events processed.
    pub fn events(&self) -> u64 {
        self.streams().iter().map(|r| r.events_processed).sum()
    }

    /// Share of streamed images labelled correctly, over every stream.
    pub fn accuracy(&self) -> f64 {
        let (mut right, mut total) = (0usize, 0usize);
        for r in self.streams() {
            for cycle in &r.outcomes {
                right += cycle
                    .images
                    .iter()
                    .filter(|i| i.predicted == i.truth)
                    .count();
                total += cycle.images.len();
            }
        }
        right as f64 / total.max(1) as f64
    }
}
