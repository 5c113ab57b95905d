//! The workload's primary system and the structural output checks run on
//! it: the tap observes without steering, the stage replay is the
//! window-1 runtime, and a one-shard fleet is the bare runtime.

use crate::layers::{decode_system, stage_replay, system_state};
use crate::out::Ops;
use crate::workload::{boot_fleet, Booted, Inputs, Report};
use crowdlearn_runtime::{
    FleetOrchestrator, PipelinedSystem, RuntimeConfig, RuntimeSnapshot, ShardSpec,
};

/// Snapshot bytes of the workload's primary system: the system itself, or
/// shard 0 of a fleet.
pub fn primary_bytes(booted: &Booted) -> Vec<u8> {
    let system = match booted {
        Booted::Single(s) => s.as_ref(),
        Booted::Fleet(f) => f.shard(0),
    };
    system
        .snapshot()
        .expect("paper systems snapshot")
        .to_bytes()
}

/// Rebuilds the primary system from [`primary_bytes`] output.
pub fn restore_primary(bytes: &[u8], inputs: &Inputs) -> PipelinedSystem {
    let snap = RuntimeSnapshot::from_bytes(bytes).expect("frame validates");
    PipelinedSystem::resume(&snap, &inputs.streams[0]).expect("system resumes")
}

/// Boots a one-shard fleet running the primary system's configuration on
/// shard 0's inputs.
pub fn one_shard_fleet(primary: &PipelinedSystem, shard0: &Inputs) -> FleetOrchestrator {
    let config = primary.system().config().clone();
    let budget = config.budget_cents;
    let spec = ShardSpec::new(config, primary.runtime_config().clone());
    boot_fleet(vec![spec], budget, &shard0.datasets)
}

/// Runs the primary system to completion.
pub fn run_primary(bytes: &[u8], inputs: &Inputs) -> Report {
    Booted::Single(Box::new(restore_primary(bytes, inputs))).run(inputs)
}

/// The tapped run equals the untapped run, apart from the tap itself.
pub fn tap_is_neutral(bytes: &[u8], inputs: &Inputs) -> bool {
    let mut tapped = restore_primary(bytes, inputs);
    let mut untapped = restore_primary(bytes, inputs);
    untapped.take_metrics_tap();
    let (d, s) = (&inputs.datasets[0], &inputs.streams[0]);
    let mut a = tapped.run(d, s);
    let mut b = untapped.run(d, s);
    a.metrics = None;
    b.metrics = None;
    format!("{a:?}") == format!("{b:?}")
}

/// The stage-API replay produces exactly the cycle outcomes of the
/// runtime at `Static(1)` on the same booted modules.
pub fn replay_is_static1(bytes: &[u8], inputs: &Inputs) -> bool {
    let state = system_state(&restore_primary(bytes, inputs));
    let (d, s) = (&inputs.datasets[0], &inputs.streams[0]);
    let runtime =
        PipelinedSystem::from_system(decode_system(&state), RuntimeConfig::sequential()).run(d, s);
    let replay = stage_replay(&mut decode_system(&state), d, s, None, None);
    runtime.outcomes == replay
}

/// A one-shard fleet's report equals the bare runtime's.
pub fn one_shard_fleet_is_bare(fleet1_bytes: &[u8], bare: &Report, shard0: &Inputs) -> bool {
    let Report::Fleet(fleet) = Booted::from_bytes(true, fleet1_bytes, shard0).run(shard0) else {
        return false;
    };
    let Report::Single(bare) = bare else {
        return false;
    };
    fleet.shards.len() == 1 && format!("{:?}", fleet.shards[0]) == format!("{bare:?}")
}

/// Runs every structural check on the primary system, one operation each.
/// Returns the primary's uninterrupted report and the one-shard fleet's
/// booted bytes for reuse.
pub fn run_all(primary: &[u8], inputs: &Inputs, ops: &mut Ops) -> (Option<Report>, Vec<u8>) {
    let shard0 = inputs.first_shard();
    ops.check("tapped run equals untapped run", || {
        tap_is_neutral(primary, inputs)
    });
    ops.check("stage replay equals the Static(1) runtime", || {
        replay_is_static1(primary, inputs)
    });
    let bare = ops.run("primary run", || run_primary(primary, inputs));
    let fleet1 = one_shard_fleet(&restore_primary(primary, inputs), &shard0);
    let fleet1_bytes = Booted::Fleet(fleet1).to_bytes();
    if let Some(bare) = &bare {
        ops.check("one-shard fleet equals the bare runtime", || {
            one_shard_fleet_is_bare(&fleet1_bytes, bare, &shard0)
        });
    }
    (bare, fleet1_bytes)
}
