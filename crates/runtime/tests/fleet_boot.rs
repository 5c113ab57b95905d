//! A fleet boots its shards through one batch of CQC fits, and each shard
//! comes out as the system a lone boot of its dataset and quota gives, byte
//! for byte. `ci.sh` also runs this under `taskset -c 0`, where the batch
//! grows every tree on the calling thread.

use crowdlearn::{CrowdLearnConfig, CrowdLearnSystem};
use crowdlearn_dataset::{Dataset, DatasetConfig};
use crowdlearn_runtime::{
    ArbitrationPolicy, FleetConfig, FleetOrchestrator, RuntimeConfig, ShardSpec,
};

fn state_bytes(system: &CrowdLearnSystem) -> Vec<u8> {
    let mut out = Vec::new();
    system.encode_state(&mut out).expect("every system encodes");
    out
}

#[test]
fn each_shard_boots_as_it_boots_alone() {
    let datasets: Vec<Dataset> = (0..4)
        .map(|seed| Dataset::generate(&DatasetConfig::paper().with_seed(100 + seed)))
        .collect();
    // Training sets of different sizes, one shard with none (its CQC stays
    // untrained), and unequal quotas.
    let configs: Vec<CrowdLearnConfig> = [300, 0, 520, 180]
        .into_iter()
        .enumerate()
        .map(|(i, queries)| {
            let mut config = CrowdLearnConfig::paper();
            config.cqc_training_queries = queries;
            config.warmup_per_cell = 2;
            config.seed += i as u64;
            config.platform_seed += 3 * i as u64;
            config
        })
        .collect();
    let specs = configs
        .iter()
        .map(|config| ShardSpec::new(config.clone(), RuntimeConfig::paper()))
        .collect();
    let arbitration = ArbitrationPolicy::Priority(vec![4.0, 1.0, 2.0, 3.0]);
    let config = FleetConfig::new(4_000.0).with_arbitration(arbitration);
    let fleet = FleetOrchestrator::new(specs, config, &datasets);

    for (i, (dataset, config)) in datasets.iter().zip(configs).enumerate() {
        let quota = fleet.ledger().quota_cents(i);
        let alone = CrowdLearnSystem::new(dataset, config.with_budget_cents(quota));
        assert_eq!(
            state_bytes(fleet.shard(i).system()),
            state_bytes(&alone),
            "shard {i}"
        );
    }
}
